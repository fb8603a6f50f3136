//! The last-build memos' contract: a build served from a memo equals a
//! cold build of the same text, and a traced compile is always the cold
//! compile, whatever the thread built before it.
//!
//! The memo counters are process-wide, so every test takes `SERIAL` and
//! asserts on counter deltas around its own builds.

use gc_safety::{
    cache_clear, cache_stats, measure_source, CompileOptions, ExecOutcome, Measured, MemoStats,
    Mode, TraceHandle,
};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

const SRC: &str = r#"
    struct cell { long v; struct cell *next; };
    long sum(struct cell *c, long i) {
        long s = 0;
        while (c) { s += c->v + i; c = c->next; }
        return s;
    }
    int main(void) {
        struct cell *head = 0;
        long i;
        char *b = (char *) malloc(64);
        for (i = 0; i < 300; i++) {
            struct cell *n = (struct cell *) malloc(sizeof(struct cell));
            n->v = i;
            n->next = head;
            head = n;
        }
        for (i = 0; i < 64; i++) b[i] = (char)(i * 3);
        putint(sum(head, b[7 - 3]));
        return 0;
    }
"#;

/// (hits, misses) of memo `stage` between two [`cache_stats`] snapshots.
fn delta(before: &[MemoStats], after: &[MemoStats], stage: &str) -> (u64, u64) {
    let get = |s: &[MemoStats]| {
        let st = s.iter().find(|s| s.stage == stage).expect("memo exists");
        (st.hits, st.misses)
    };
    let ((bh, bm), (ah, am)) = (get(before), get(after));
    (ah - bh, am - bm)
}

/// Everything an [`ExecOutcome`] reports, in a comparable form (the
/// builtin-call map is a `HashMap`, whose order is arbitrary).
fn outcome_facts(o: &ExecOutcome) -> impl PartialEq + std::fmt::Debug {
    let mut calls: Vec<_> = o
        .profile
        .builtin_calls
        .iter()
        .map(|(b, n)| (format!("{b:?}"), *n))
        .collect();
    calls.sort();
    (
        o.output.clone(),
        o.exit_code,
        o.steps,
        o.heap,
        o.profile.block_counts.clone(),
        o.profile.builtin_byte_work,
        calls,
    )
}

fn assert_same_measurement(warm: &Measured, cold: &Measured) {
    let warm_out = warm.outcome.as_ref().expect("warm run succeeds");
    let cold_out = cold.outcome.as_ref().expect("cold run succeeds");
    assert_eq!(outcome_facts(warm_out), outcome_facts(cold_out));
    assert_eq!(warm.costs, cold.costs, "per-machine costs");
    assert_eq!(warm.peephole, cold.peephole, "peephole statistics");
}

#[test]
fn safe_post_after_safe_reuses_both_memos_and_equals_a_cold_build() {
    let _guard = SERIAL.lock().unwrap();
    cache_clear();
    let cold = measure_source(SRC, b"", Mode::OSafePost).expect("cold build");
    assert!(cold.peephole.is_some());

    cache_clear();
    measure_source(SRC, b"", Mode::OSafe).expect("safe build");
    let before = cache_stats();
    let warm = measure_source(SRC, b"", Mode::OSafePost).expect("warm build");
    let after = cache_stats();
    assert_eq!(delta(&before, &after, "compile"), (1, 0), "IR reused");
    assert_eq!(delta(&before, &after, "asm"), (1, 0), "assembly reused");
    assert_same_measurement(&warm, &cold);
}

#[test]
fn memo_hits_are_keyed_by_exact_text_and_options() {
    let _guard = SERIAL.lock().unwrap();
    cache_clear();
    let opts = CompileOptions::optimized_safe();
    let cold = cvm::compile(SRC, &opts).expect("cold compile");
    let before = cache_stats();
    let warm = cvm::compile(SRC, &opts).expect("warm compile");
    assert_eq!(delta(&before, &cache_stats(), "compile"), (1, 0));
    assert_eq!(warm, cold, "a memo hit is the cold IR");

    // Other options, or the same program reformatted, build afresh.
    let before = cache_stats();
    let plain = cvm::compile(SRC, &CompileOptions::optimized()).expect("-O compile");
    let reflowed = format!("/* reflowed */{SRC}");
    let moved = cvm::compile(&reflowed, &CompileOptions::optimized()).expect("reflowed");
    assert_eq!(delta(&before, &cache_stats(), "compile"), (0, 2));
    let shift = "/* reflowed */".len();
    assert_eq!(moved.alloc_sites.len(), 2);
    for (site, orig) in moved.alloc_sites.iter().zip(&plain.alloc_sites) {
        assert_eq!(site.span_start, orig.span_start + shift, "{}", site.label());
    }
}

#[test]
fn traced_compile_after_an_untraced_one_emits_the_cold_stream() {
    let _guard = SERIAL.lock().unwrap();
    let opts = CompileOptions::optimized_safe();
    cache_clear();
    let (cold_trace, cold_sink) = TraceHandle::memory();
    let cold_ir = cvm::compile_traced(SRC, &opts, &cold_trace).expect("cold traced compile");

    cvm::compile(SRC, &opts).expect("untraced compile fills the memo");
    let before = cache_stats();
    let (warm_trace, warm_sink) = TraceHandle::memory();
    let warm_ir = cvm::compile_traced(SRC, &opts, &warm_trace).expect("traced compile");
    assert_eq!(
        delta(&before, &cache_stats(), "compile"),
        (0, 0),
        "a traced request never consults the memo"
    );
    let cold = cold_sink.snapshot();
    assert!(
        cold.iter().any(|e| e.stage == "annotate"),
        "annotation audit events present"
    );
    assert!(
        cold.iter().any(|e| e.stage == "verify"),
        "verifier verdicts present"
    );
    assert_eq!(
        warm_sink.snapshot(),
        cold,
        "the cold event stream, verbatim"
    );
    assert_eq!(warm_ir, cold_ir);
}

//! Determinism self-check: at one seed, the deterministic metrics of the
//! untraced run and the work counts of the traced run repeat exactly.
//!
//! Each workload runs four times (two untraced, two traced) for the
//! shortest time the run allows — one sweep or one pass pair — which
//! takes minutes without optimizations, so these tests run only in
//! release builds: `cargo test --release`.

use perfbench::Report;

const UNTRACED: [&str; 3] = [
    "sim_cycles.geomean",
    "code_bytes.geomean",
    "safe_overhead_ratio",
];

const TRACED: [&str; 5] = [
    "cvm.vm.steps",
    "asmpost.codegen.asm_instrs",
    "asmpost.peephole.rewrites",
    "gcheap.collections",
    "cvm.opt.fires",
];

fn run(workload: &str, trace: bool) -> Report {
    let r = perfbench::run(workload, 11, 0.001, trace).expect("known workload");
    assert!(r.correct, "{workload}: {:?}", r.first_failure);
    assert_eq!(r.failed, 0);
    r
}

fn assert_repeats(workload: &str) {
    for (trace, names) in [(false, &UNTRACED[..]), (true, &TRACED[..])] {
        let (a, b) = (run(workload, trace), run(workload, trace));
        for name in names {
            let (x, y) = (a.metric(name), b.metric(name));
            assert!(x.is_some(), "{workload}: {name} missing");
            assert_eq!(x, y, "{workload}: {name} differs between runs");
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; run with --release"
)]
fn paper_exec_repeats() {
    assert_repeats("paper-exec");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; run with --release"
)]
fn bigfn_compile_repeats() {
    assert_repeats("bigfn-compile");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; run with --release"
)]
fn fuzz_campaign_repeats() {
    assert_repeats("fuzz-campaign");
}

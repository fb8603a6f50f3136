//! Allocation-site labels follow the requesting source text: two
//! formattings of one program, measured back to back in every mode, each
//! profile under their own `malloc@line:col` in the folded allocation
//! stacks and in the pause log's `max_pause_site` attribution. The
//! annotating modes insert text ahead of the call, so their sites must
//! still be resolved against the original source, never the annotated
//! one.

use gc_safety::{measure_source_observed, Mode, Observe, ProfHandle};

/// 1-based (line, col) of the first occurrence of `needle` in `src`.
fn pos_of(src: &str, needle: &str) -> (usize, usize) {
    let off = src.find(needle).expect("needle present");
    let line = src[..off].matches('\n').count() + 1;
    let col = off - src[..off].rfind('\n').map_or(0, |i| i + 1) + 1;
    (line, col)
}

// Enough garbage to cross the 256 KiB collection threshold several
// times, so the pause log is populated and max_pause_site meaningful.
// `q + (i & 3)` is pointer arithmetic the annotating modes wrap on the
// churn site's own line, ahead of it, shifting its column in the
// annotated text.
const SRC_A: &str = "int main(void) {\n    long i;\n    char *q = (char *) malloc(8);\n    char *r;\n    for (i = 0; i < 20000; i = i + 1) {\n        char *p;\n        r = q + (i & 3); p = (char *) malloc(64);\n        p[0] = (char) i;\n        *r = p[0];\n    }\n    return q[1] - q[1];\n}\n";
const SRC_B: &str = "/* same program, reflowed: the churn site moves */\nint main(void)\n{\n        long i;\n        char *q = (char *) malloc(8);\n        char *r;\n        for (i = 0; i < 20000; i = i + 1)\n        {\n                char *p;\n                r = q + (i & 3);\n                p = (char *) malloc(64);\n                p[0] = (char) i;\n                *r = p[0];\n        }\n        return q[1] - q[1];\n}\n";

#[test]
fn each_formatting_profiles_under_its_own_labels_in_every_mode() {
    let label = |src: &str| {
        let (l, c) = pos_of(src, "malloc(64)");
        format!("malloc@{l}:{c}")
    };
    let (label_a, label_b) = (label(SRC_A), label(SRC_B));
    assert_ne!(label_a, label_b);
    for cfg in [gcsafe::Config::gc_safe(), gcsafe::Config::checked()] {
        let annotated = gcsafe::annotate_program(SRC_A, &cfg).expect("annotates");
        assert_ne!(
            label(&annotated.annotated_source),
            label_a,
            "annotation must move the churn site in the annotated text"
        );
    }

    for mode in Mode::all() {
        let profiled = || Observe {
            prof: ProfHandle::enabled(),
            ..Observe::default()
        };
        let a = measure_source_observed(SRC_A, b"", mode, &profiled()).expect("A measures");
        let b = measure_source_observed(SRC_B, b"", mode, &profiled()).expect("B measures");
        let key = mode.key();
        assert_eq!(
            a.output(),
            b.output(),
            "{key}: formatting cannot change behavior"
        );

        for (m, mine, theirs) in [(&a, &label_a, &label_b), (&b, &label_b, &label_a)] {
            let d = m.observe.prof.snapshot().expect("profiled run has data");
            let out = m.outcome.as_ref().expect("run succeeded");
            assert!(
                out.heap.collections > 0,
                "{key}: the churn loop must actually collect"
            );
            // Folded allocation stacks carry this formatting's coordinates…
            assert!(
                d.sites.keys().any(|stack| stack.contains(mine.as_str())),
                "{key}: sites {:?} missing {mine}",
                d.sites.keys().collect::<Vec<_>>()
            );
            // …and never the other formatting's.
            assert!(
                !d.sites.keys().any(|stack| stack.contains(theirs.as_str())),
                "{key}: sites leaked the other formatting's label {theirs}"
            );
            // Pause attribution follows the same rule.
            let worst = d
                .collection_log
                .iter()
                .max_by_key(|r| r.pause_ns)
                .expect("collections were logged");
            let site = worst.site.as_deref().expect("worst pause is attributed");
            assert!(
                site.contains(mine.as_str()) && !site.contains(theirs.as_str()),
                "{key}: max_pause_site {site:?} must carry this formatting's label {mine}"
            );
        }
    }
}

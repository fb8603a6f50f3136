//! Hostile nesting depth: a program whose statements, expressions or
//! types nest deeper than `cfront::parser::MAX_NESTING` gets a rendered
//! `line:col` parse error, never a stack overflow, and one nested just
//! inside the limit survives every stage of every mode. Both run on a
//! 2 MiB thread — the default for test threads and for the measurement
//! matrix's workers.

use cfront::parser::MAX_NESTING;
use gc_safety::{measure_source, Mode};

/// Every way to nest syntax, each `n` levels deep.
fn shapes(n: usize) -> [(&'static str, String); 6] {
    [
        (
            "parentheses",
            format!(
                "int main(void) {{ return {}1{}; }}",
                "(".repeat(n),
                ")".repeat(n)
            ),
        ),
        (
            "left-assoc chain",
            format!("int main(void) {{ return 1{}; }}", "+1".repeat(n - 1)),
        ),
        (
            "unary minus",
            format!("int main(void) {{ return {}1; }}", "- ".repeat(n)),
        ),
        (
            "blocks",
            format!(
                "int main(void) {{ {} return 0; {} }}",
                "{".repeat(n),
                "}".repeat(n)
            ),
        ),
        (
            "pointer declarator",
            format!("int main(void) {{ int {}x; return 0; }}", "*".repeat(n)),
        ),
        (
            "array declarator",
            format!("int main(void) {{ int x{}; return 0; }}", "[1]".repeat(n)),
        ),
    ]
}

fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic and no stack overflow");
}

#[test]
fn deep_nesting_is_a_rendered_error_not_a_stack_overflow() {
    on_small_stack(|| {
        for (name, src) in shapes(20_000) {
            let err = match cvm::compile(&src, &cvm::CompileOptions::optimized_safe()) {
                Ok(_) => panic!("{name}: 20,000 levels compiled"),
                Err(e) => e,
            };
            let (pos, msg) = err.split_once(": ").expect("line:col prefix");
            let (line, col) = pos.split_once(':').expect("line:col");
            assert!(
                line.parse::<usize>().is_ok() && col.parse::<usize>().is_ok(),
                "{name}: {err}"
            );
            assert_eq!(
                msg,
                format!("parse error: nesting exceeds {MAX_NESTING} levels"),
                "{name}"
            );
        }
    });
}

#[test]
fn nesting_just_inside_the_limit_survives_every_mode() {
    on_small_stack(|| {
        for (name, src) in shapes(MAX_NESTING - 8) {
            for mode in Mode::all() {
                let m = measure_source(&src, b"", mode)
                    .unwrap_or_else(|e| panic!("{name} in {}: {e}", mode.label()));
                assert!(m.outcome.is_ok(), "{name} in {}", mode.label());
            }
        }
    });
}

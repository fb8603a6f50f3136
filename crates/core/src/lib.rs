//! # gcsafe — the paper's contribution
//!
//! Implements the annotation system of Hans-J. Boehm, *Simple
//! Garbage-Collector-Safety*, PLDI 1996:
//!
//! * [`base`] — the inductive BASE / BASEADDR definition;
//! * [`annotate`] — the algorithm that wraps pointer-valued expressions in
//!   `KEEP_LIVE(e, BASE(e))` (GC-safe mode) or `GC_same_obj(e, BASE(e))`
//!   (pointer-arithmetic-checking mode), with the paper's optimizations
//!   1–4 individually switchable.
//!
//! The same insertion points serve both purposes — that is the paper's
//! central claim, and it is visible in the code: [`annotate::Config::mode`]
//! is the only difference between the two pipelines.
//!
//! ## Example
//!
//! ```
//! use gcsafe::Config;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "char g(char *p, long i) { return p[i - 1000]; }";
//! let annotated = gcsafe::annotate_program(src, &Config::gc_safe())?;
//! // The subscript address is now pinned to its base pointer:
//! assert!(annotated.annotated_source.contains("KEEP_LIVE(&(p[i - 1000]), p)"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod annotate;
pub mod base;

pub use annotate::{annotate, annotate_traced, AnnotResult, AnnotStats, Config, Mode};
pub use base::{Base, BaseAnalysis};
pub use gctrace::TraceHandle;

use cfront::sema::SemaInfo;
use cfront::{FrontError, Program};

/// A fully annotated, re-type-checked program plus annotation metadata.
#[derive(Debug, Clone)]
pub struct Annotated {
    /// The transformed program (types refreshed).
    pub program: Program,
    /// Sema results for the transformed program.
    pub sema: SemaInfo,
    /// What the annotator did.
    pub result: AnnotResult,
    /// The annotated source text, produced by applying the edit list to the
    /// original source (the paper's preprocessor output).
    pub annotated_source: String,
}

/// One-call pipeline: parse → sema → annotate → re-sema → apply edits.
///
/// # Errors
///
/// Returns parse/sema errors from either sema run, or an edit-application
/// failure (which would indicate an annotator bug).
pub fn annotate_program(source: &str, config: &Config) -> Result<Annotated, FrontError> {
    annotate_program_traced(source, config, &TraceHandle::disabled())
}

/// [`annotate_program`] with an audit-event stream (see
/// [`annotate::annotate_traced`]).
///
/// # Errors
///
/// Same failure modes as [`annotate_program`].
pub fn annotate_program_traced(
    source: &str,
    config: &Config,
    trace: &TraceHandle,
) -> Result<Annotated, FrontError> {
    let mut program = cfront::parse(source)?;
    let sema = cfront::analyze(&mut program)?;
    let result = annotate_traced(&mut program, &sema, config, trace);
    let sema = cfront::analyze(&mut program)?;
    let annotated_source = result.edits.apply(source).map_err(|e| {
        FrontError::new(
            cfront::error::Phase::Sema,
            format!("edit application: {e}"),
            cfront::Span::point(0),
        )
    })?;
    Ok(Annotated {
        program,
        sema,
        result,
        annotated_source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfront::ast::visit_exprs;
    use cfront::ast::{ExprKind, Stmt};

    fn count_wraps(prog: &Program) -> (usize, usize) {
        let mut keep = 0;
        let mut check = 0;
        for f in prog.definitions() {
            let b = Stmt::Block(f.body.clone().expect("definition"));
            visit_exprs(&b, &mut |e| match e.kind {
                ExprKind::KeepLive { .. } => keep += 1,
                ExprKind::CheckSame { .. } => check += 1,
                _ => {}
            });
        }
        (keep, check)
    }

    #[test]
    fn headline_example_gets_annotated() {
        // The paper's opening example: a final reference p[i-1000].
        let src = "char f(char *p, long i) { return p[i - 1000]; }";
        let out = annotate_program(src, &Config::gc_safe()).unwrap();
        let (keep, check) = count_wraps(&out.program);
        assert_eq!(keep, 1);
        assert_eq!(check, 0);
        assert!(out
            .annotated_source
            .contains("KEEP_LIVE(&(p[i - 1000]), p)"));
    }

    #[test]
    fn checked_mode_uses_same_points() {
        let src = "char f(char *p, long i) { return p[i - 1000]; }";
        let safe = annotate_program(src, &Config::gc_safe()).unwrap();
        let checked = annotate_program(src, &Config::checked()).unwrap();
        let (k, c) = count_wraps(&safe.program);
        let (k2, c2) = count_wraps(&checked.program);
        assert_eq!(k + c, k2 + c2, "both modes annotate the same points");
        assert!(c2 > 0);
        assert!(checked.annotated_source.contains("GC_same_obj"));
    }

    #[test]
    fn plain_copy_is_not_wrapped() {
        let src = "char *f(char *p) { char *q; q = p; return q; }";
        let out = annotate_program(src, &Config::gc_safe()).unwrap();
        let (keep, _) = count_wraps(&out.program);
        assert_eq!(keep, 0, "p = q must not become KEEP_LIVE(q, q)");
        assert!(out.result.stats.skipped_copies > 0);
    }

    #[test]
    fn copies_wrapped_when_optimization_disabled() {
        let src = "char *f(char *p) { char *q; q = p; return q; }";
        let cfg = Config {
            skip_copies: false,
            ..Config::gc_safe()
        };
        let out = annotate_program(src, &cfg).unwrap();
        let (keep, _) = count_wraps(&out.program);
        assert!(keep >= 2, "ablation: copies get wrapped, got {keep}");
    }

    #[test]
    fn stored_pointer_arithmetic_is_wrapped() {
        let src = "char *f(char *p) { char *q; q = p + 4; return q; }";
        let out = annotate_program(src, &Config::gc_safe()).unwrap();
        assert!(out.annotated_source.contains("KEEP_LIVE(p + 4, p)"));
    }

    #[test]
    fn compound_assign_rewritten() {
        let src = "void f(char *p) { p += 10; }";
        let out = annotate_program(src, &Config::gc_safe()).unwrap();
        assert!(
            out.annotated_source.contains("p = KEEP_LIVE(p + 10, p)"),
            "got: {}",
            out.annotated_source
        );
    }

    #[test]
    fn incdec_wrapped_in_safe_mode() {
        let src = "void f(char *p) { while (*p++); }";
        let out = annotate_program(src, &Config::gc_safe()).unwrap();
        let (keep, _) = count_wraps(&out.program);
        assert_eq!(keep, 1);
        assert!(out.result.stats.incdec_specials == 1);
    }

    #[test]
    fn incdec_becomes_runtime_call_in_checked_mode() {
        let src = "void f(char *p) { ++p; }";
        let out = annotate_program(src, &Config::checked()).unwrap();
        assert!(
            out.annotated_source.contains("GC_pre_incr(&p, 1)"),
            "got: {}",
            out.annotated_source
        );
        // The rewrite forces p's address to be taken → memory home.
        let fi = &out.sema.funcs["f"];
        assert!(fi.vars.iter().any(|v| v.name == "p" && v.addr_taken));
    }

    #[test]
    fn post_incr_scales_by_element_size() {
        let src = "void f(long *p) { p++; }";
        let out = annotate_program(src, &Config::checked()).unwrap();
        assert!(
            out.annotated_source.contains("GC_post_incr(&p, 8)"),
            "got: {}",
            out.annotated_source
        );
    }

    #[test]
    fn local_arrays_are_not_annotated() {
        let src = "int f(long i) { char buf[32]; buf[i] = 1; return buf[i]; }";
        let out = annotate_program(src, &Config::gc_safe()).unwrap();
        let (keep, check) = count_wraps(&out.program);
        assert_eq!((keep, check), (0, 0), "stack memory needs no protection");
    }

    #[test]
    fn struct_field_access_through_pointer_is_wrapped() {
        let src = "struct node { int v; struct node *next; };\n\
                   int f(struct node *n) { return n->v; }";
        let out = annotate_program(src, &Config::gc_safe()).unwrap();
        assert!(
            out.annotated_source.contains("KEEP_LIVE(&(n->v), n)"),
            "got: {}",
            out.annotated_source
        );
    }

    #[test]
    fn call_site_only_drops_deref_wraps_keeps_stores() {
        let src = "char *f(char *p, long i) { char *q; q = p + i; return p[i]; }";
        let full = annotate_program(src, &Config::gc_safe()).unwrap();
        let cfg = Config {
            call_sites_only: true,
            ..Config::gc_safe()
        };
        let reduced = annotate_program(src, &cfg).unwrap();
        let (kf, _) = count_wraps(&full.program);
        let (kr, _) = count_wraps(&reduced.program);
        assert!(
            kr < kf,
            "call-site-only must reduce wrap count ({kr} vs {kf})"
        );
        assert!(kr >= 1, "the stored value q = p + i is still wrapped");
        assert!(reduced.result.stats.skipped_deref_wraps > 0);
    }

    #[test]
    fn base_heuristic_uses_slow_base() {
        // The paper's canonical string-copy loop: bases p, q should be
        // replaced by the loop-invariant s, t.
        let src = "void copy(char *s, char *t) {\n\
                     char *p; char *q;\n\
                     p = s; q = t;\n\
                     while (*p++ = *q++);\n\
                   }";
        let cfg = Config {
            base_heuristic: true,
            ..Config::gc_safe()
        };
        let out = annotate_program(src, &cfg).unwrap();
        assert!(
            out.result.stats.base_heuristic_hits >= 2,
            "stats: {:?}",
            out.result.stats
        );
        let printed = cfront::pretty::program_to_c(&out.program);
        assert!(printed.contains(", s)"), "base replaced by s in: {printed}");
        assert!(printed.contains(", t)"), "base replaced by t in: {printed}");
    }

    #[test]
    fn base_heuristic_respects_reassigned_sources() {
        // s is reassigned, so p's base must stay p.
        let src = "void f(char *s) { char *p; p = s; s = 0; while (*p++); }";
        let cfg = Config {
            base_heuristic: true,
            ..Config::gc_safe()
        };
        let out = annotate_program(src, &cfg).unwrap();
        assert_eq!(out.result.stats.base_heuristic_hits, 0);
    }

    #[test]
    fn function_argument_arithmetic_is_wrapped() {
        let src = "void g(char *); void f(char *p) { g(p + 1); }";
        let out = annotate_program(src, &Config::gc_safe()).unwrap();
        assert!(out.annotated_source.contains("g(KEEP_LIVE(p + 1, p))"));
    }

    #[test]
    fn returned_arithmetic_is_wrapped() {
        let src = "char *f(char *p) { return p + 8; }";
        let out = annotate_program(src, &Config::gc_safe()).unwrap();
        assert!(out.annotated_source.contains("return KEEP_LIVE(p + 8, p);"));
    }

    #[test]
    fn annotated_source_is_balanced() {
        let src = "struct s { char buf[8]; struct s *link; };\n\
                   char f(struct s *x, long i) { return x->link->buf[i]; }";
        let out = annotate_program(src, &Config::gc_safe()).unwrap();
        let opens = out.annotated_source.matches('(').count();
        let closes = out.annotated_source.matches(')').count();
        assert_eq!(opens, closes, "unbalanced: {}", out.annotated_source);
    }

    #[test]
    fn audit_events_mirror_the_stats() {
        let src = "struct nd { long v; struct nd *next; };\n\
                   long f(struct nd *n, char *p, long i) {\n\
                     char *q; q = p + i;\n\
                     while (*q++);\n\
                     return n->next->v + p[i];\n\
                   }";
        for config in [Config::gc_safe(), Config::checked()] {
            let (trace, sink) = TraceHandle::memory();
            let out = annotate_program_traced(src, &config, &trace).unwrap();
            let evs = sink.snapshot();
            let count = |kind: &str| evs.iter().filter(|e| e.kind == kind).count();
            let stats = out.result.stats;
            assert_eq!(count("wrap"), stats.keep_lives + stats.checks, "{config:?}");
            assert_eq!(count("incdec"), stats.incdec_specials, "{config:?}");
            assert_eq!(
                evs.iter()
                    .filter(|e| {
                        e.kind == "skip"
                            && e.get("reason")
                                .map(|v| v == &gctrace::Value::Str("opt1_copy".into()))
                                == Some(true)
                    })
                    .count(),
                stats.skipped_copies,
                "{config:?}"
            );
            // One summary per defined function.
            assert_eq!(count("summary"), 1);
            assert!(evs.iter().all(|e| e.stage == "annotate"));
        }
    }

    #[test]
    fn untraced_annotation_matches_traced() {
        let src = "char *f(char *p, long i) { return p + i; }";
        let plain = annotate_program(src, &Config::gc_safe()).unwrap();
        let (trace, _sink) = TraceHandle::memory();
        let traced = annotate_program_traced(src, &Config::gc_safe(), &trace).unwrap();
        assert_eq!(plain.annotated_source, traced.annotated_source);
        assert_eq!(plain.result.stats, traced.result.stats);
    }

    #[test]
    fn annotation_is_stable_under_reannotation() {
        // Annotating an already annotated tree must not add more wraps
        // (KEEP_LIVE results are opaque copies).
        let src = "char *f(char *p) { return p + 8; }";
        let out = annotate_program(src, &Config::gc_safe()).unwrap();
        let mut prog = out.program.clone();
        let sema = cfront::analyze(&mut prog).unwrap();
        let second = annotate(&mut prog, &sema, &Config::gc_safe());
        assert_eq!(second.stats.keep_lives, 0, "no new wraps on second pass");
    }
}

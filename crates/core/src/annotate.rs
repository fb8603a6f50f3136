//! The annotation algorithm and its optimizations.
//!
//! The paper: "replace every pointer-valued expression *e* that occurs as
//! the right side of an assignment, or as the argument of a dereferencing
//! operation, or as a function argument or result, by the expression
//! `KEEP_LIVE(e, BASE(e))`. C increment and decrement operators are treated
//! as assignments."
//!
//! Two modes share the same insertion points (the paper's central claim):
//!
//! * [`Mode::GcSafe`] inserts [`ExprKind::KeepLive`] — the compiler-facing
//!   opacity/liveness primitive;
//! * [`Mode::Checked`] inserts [`ExprKind::CheckSame`] (`GC_same_obj`) and
//!   the specialized `GC_pre_incr` / `GC_post_incr` calls — the debugging
//!   pointer-arithmetic checker.
//!
//! The paper's four optimizations are individually switchable for
//! ablation:
//!
//! 1. skip `KEEP_LIVE` on plain copies (`p = q`);
//! 2. specialized expansion of `++`/`--` that avoids forcing the operand
//!    to memory in GC-safe mode;
//! 3. the base-pointer heuristic — "replace base pointers … by equivalent,
//!    but less rapidly varying base pointers" (the `strcpy` example);
//! 4. call-site-only collection: drop the dereference-address wraps, keep
//!    the stored-value wraps.

use crate::base::{Base, BaseAnalysis};
use cfront::ast::*;
use cfront::edit::EditList;
use cfront::pretty::expr_to_c;
use cfront::sema::{Resolution, SemaInfo};
use cfront::types::{Type, TypeTable};
use gctrace::{Event, TraceHandle};
use std::collections::HashMap;

/// Annotation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Insert `KEEP_LIVE` for compiler GC-safety.
    #[default]
    GcSafe,
    /// Insert `GC_same_obj` / `GC_pre_incr` / `GC_post_incr` runtime checks.
    Checked,
}

/// Annotator configuration (mode plus the paper's optimizations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Which primitive to insert.
    pub mode: Mode,
    /// Optimization 1: no wrap when the value is statically a copy.
    pub skip_copies: bool,
    /// Optimization 2: specialized `++`/`--` expansions.
    pub specialize_incdec: bool,
    /// Optimization 3: prefer slowly varying equivalent base pointers.
    pub base_heuristic: bool,
    /// Optimization 4: collections only at call sites — dereference-address
    /// wraps become unnecessary.
    pub call_sites_only: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            mode: Mode::GcSafe,
            skip_copies: true,
            specialize_incdec: true,
            base_heuristic: false,
            call_sites_only: false,
        }
    }
}

impl Config {
    /// The paper's measured GC-safe configuration (optimizations 1 and 2:
    /// "Only optimizations (1) and (2) from above are implemented").
    pub fn gc_safe() -> Self {
        Config::default()
    }

    /// The paper's debugging/checking configuration.
    pub fn checked() -> Self {
        Config {
            mode: Mode::Checked,
            ..Config::default()
        }
    }
}

/// Counters describing what the annotator did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnnotStats {
    /// `KEEP_LIVE` wraps inserted.
    pub keep_lives: usize,
    /// `GC_same_obj` wraps inserted.
    pub checks: usize,
    /// Specialized increment/decrement rewrites.
    pub incdec_specials: usize,
    /// Wraps skipped because the value was a plain copy (optimization 1).
    pub skipped_copies: usize,
    /// Base pointers replaced by a slower-varying equivalent (optimization 3).
    pub base_heuristic_hits: usize,
    /// Dereference wraps skipped under call-site-only mode (optimization 4).
    pub skipped_deref_wraps: usize,
}

/// Result of annotating a program.
#[derive(Debug, Clone, Default)]
pub struct AnnotResult {
    /// Counters.
    pub stats: AnnotStats,
    /// Source-level edits reproducing the transformation on the original
    /// text (the paper's preprocessor output mechanism).
    pub edits: EditList,
}

/// Annotates `prog` in place. Expression types must be filled (run
/// [`cfront::analyze`] first) and must be re-filled afterwards (run it
/// again): the annotator inserts new, untyped nodes.
pub fn annotate(prog: &mut Program, sema: &SemaInfo, config: &Config) -> AnnotResult {
    annotate_traced(prog, sema, config, &TraceHandle::disabled())
}

/// [`annotate`] with a per-annotation audit stream: every wrap, every
/// optimization-suppressed wrap, and every base-heuristic substitution
/// emits an `"annotate"`-stage event on `trace`, followed by one
/// `"summary"` event per function carrying that function's counters, so
/// summing a field across summaries yields the program total.
pub fn annotate_traced(
    prog: &mut Program,
    sema: &SemaInfo,
    config: &Config,
    trace: &TraceHandle,
) -> AnnotResult {
    let types = prog.types.clone();
    let mut ids = std::mem::take(&mut prog.node_ids);
    let mut result = AnnotResult::default();
    let mut funcs = std::mem::take(&mut prog.funcs);
    for f in &mut funcs {
        let Some(body) = f.body.take() else { continue };
        let before = result.stats;
        let origins = if config.base_heuristic {
            compute_origins(&body, sema)
        } else {
            HashMap::new()
        };
        let mut cx = Annotator {
            cfg: config,
            sema,
            types: &types,
            ids: &mut ids,
            stats: &mut result.stats,
            edits: &mut result.edits,
            origins,
            trace,
        };
        let body = cx.block(body);
        f.body = Some(body);
        let stats = result.stats;
        trace.emit(|| {
            Event::new("annotate", "summary")
                .field("function", f.name.as_str())
                .field("keep_lives", stats.keep_lives - before.keep_lives)
                .field("checks", stats.checks - before.checks)
                .field(
                    "incdec_specials",
                    stats.incdec_specials - before.incdec_specials,
                )
                .field(
                    "skipped_copies",
                    stats.skipped_copies - before.skipped_copies,
                )
                .field(
                    "base_heuristic_hits",
                    stats.base_heuristic_hits - before.base_heuristic_hits,
                )
                .field(
                    "skipped_deref_wraps",
                    stats.skipped_deref_wraps - before.skipped_deref_wraps,
                )
        });
    }
    prog.funcs = funcs;
    prog.node_ids = ids;
    result
}

/// Optimization 3 support: for each pointer variable, the unique "less
/// rapidly varying" variable it is provably derived from, if any.
///
/// `origin(x) = s` requires that every assignment to `x` in the function
/// has `BASE(rhs) ∈ {x, s}` and that `s` itself is never assigned (so `s`
/// keeps pointing at the object `x` walks through — the paper's `strcpy`
/// example replaces bases `p`, `q` by `s`, `t`).
fn compute_origins(body: &Block, sema: &SemaInfo) -> HashMap<String, String> {
    let analysis = BaseAnalysis::new(sema);
    #[derive(Default)]
    struct VarFacts {
        sources: Vec<String>,
        poisoned: bool,
        assigned: bool,
    }
    let mut facts: HashMap<String, VarFacts> = HashMap::new();
    let record = |name: &str, src: Base, facts: &mut HashMap<String, VarFacts>| {
        let entry = facts.entry(name.to_string()).or_default();
        entry.assigned = true;
        match src {
            Base::Var(s) if s != name => entry.sources.push(s),
            Base::Var(_) => {} // self-derived: p = p + 1 keeps the object
            _ => entry.poisoned = true,
        }
    };
    let stmt_block = Stmt::Block(body.clone());
    visit_exprs(&stmt_block, &mut |e| match &e.kind {
        ExprKind::Assign { op, lhs, rhs } => {
            if let ExprKind::Ident(name) = &lhs.kind {
                if matches!(lhs.ty.as_ref().map(Type::decayed), Some(Type::Ptr(_))) {
                    let src = if op.is_some() {
                        // p += k stays within the object: self-derived.
                        Base::Var(name.clone())
                    } else {
                        analysis.base(rhs)
                    };
                    record(name, src, &mut facts);
                }
            }
        }
        ExprKind::IncDec { target, .. } => {
            if let ExprKind::Ident(name) = &target.kind {
                if matches!(target.ty.as_ref().map(Type::decayed), Some(Type::Ptr(_))) {
                    record(name, Base::Var(name.clone()), &mut facts);
                }
            }
        }
        ExprKind::AddrOf(inner) => {
            // &x permits indirect writes: poison both as target and source.
            if let ExprKind::Ident(name) = &inner.kind {
                let entry = facts.entry(name.clone()).or_default();
                entry.poisoned = true;
                entry.assigned = true;
            }
        }
        _ => {}
    });
    // Declared initializers count as assignments.
    collect_decl_inits(&stmt_block, &mut |name, init| {
        let src = analysis.base(init);
        record(name, src, &mut facts);
    });
    let mut origins = HashMap::new();
    for (name, f) in &facts {
        if f.poisoned {
            continue;
        }
        let mut uniq: Vec<&String> = f.sources.iter().collect();
        uniq.sort();
        uniq.dedup();
        if uniq.len() != 1 {
            continue;
        }
        let src = uniq[0];
        // The source must never be assigned in this function body (its decl
        // init or parameter value is its only definition).
        let src_ok = facts.get(src).map(|sf| !sf.assigned).unwrap_or(true);
        if src_ok {
            origins.insert(name.clone(), src.clone());
        }
    }
    origins
}

fn collect_decl_inits(stmt: &Stmt, f: &mut dyn FnMut(&str, &Expr)) {
    match stmt {
        Stmt::Decl(decls) => {
            for d in decls {
                if let (Some(init), Type::Ptr(_)) = (&d.init, &d.ty.decayed()) {
                    f(&d.name, init);
                }
            }
        }
        Stmt::Block(b) => {
            for s in &b.stmts {
                collect_decl_inits(s, f);
            }
        }
        Stmt::If(_, t, e) => {
            collect_decl_inits(t, f);
            if let Some(e) = e {
                collect_decl_inits(e, f);
            }
        }
        Stmt::While(_, b) | Stmt::DoWhile(b, _) | Stmt::Switch(_, b) => collect_decl_inits(b, f),
        Stmt::For { init, body, .. } => {
            if let Some(i) = init {
                collect_decl_inits(i, f);
            }
            collect_decl_inits(body, f);
        }
        _ => {}
    }
}

/// Position of an expression relative to the paper's wrap rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pos {
    /// RHS of assignment, dereference argument, call argument, or return
    /// value: wrap pointer arithmetic here.
    Value,
    /// Anywhere else: only recurse.
    Plain,
}

struct Annotator<'a> {
    cfg: &'a Config,
    sema: &'a SemaInfo,
    types: &'a TypeTable,
    ids: &'a mut NodeIdGen,
    stats: &'a mut AnnotStats,
    edits: &'a mut EditList,
    origins: HashMap<String, String>,
    trace: &'a TraceHandle,
}

impl Annotator<'_> {
    fn analysis(&self) -> BaseAnalysis<'_> {
        BaseAnalysis::new(self.sema)
    }

    fn mk(&mut self, span: cfront::Span, kind: ExprKind) -> Expr {
        Expr::new(self.ids.fresh(), span, kind)
    }

    fn ident(&mut self, span: cfront::Span, name: &str) -> Expr {
        self.mk(span, ExprKind::Ident(name.to_string()))
    }

    fn heap_ptr_var(&self, e: &Expr) -> Option<String> {
        let ExprKind::Ident(name) = &e.kind else {
            return None;
        };
        if !matches!(e.ty.as_ref(), Some(Type::Ptr(_))) {
            return None;
        }
        match self.sema.res.get(&e.id) {
            Some(Resolution::Local(_) | Resolution::Global(_)) => Some(name.clone()),
            _ => None,
        }
    }

    /// Applies optimization 3 to a chosen base variable.
    fn final_base(&mut self, base: Base) -> Base {
        let Base::Var(name) = base else { return base };
        if !self.cfg.base_heuristic {
            return Base::Var(name);
        }
        let mut cur = name.clone();
        let mut hops = 0;
        while let Some(next) = self.origins.get(&cur) {
            cur = next.clone();
            hops += 1;
            if hops > 8 {
                break; // cycle guard; origins should be acyclic
            }
        }
        if cur != name {
            self.stats.base_heuristic_hits += 1;
            self.trace.emit(|| {
                Event::new("annotate", "base_heuristic")
                    .field("from", name.as_str())
                    .field("to", cur.as_str())
            });
        }
        Base::Var(cur)
    }

    /// Emits one wrap audit event (the closure only runs when tracing is
    /// enabled, so the pretty-printed expression costs nothing otherwise).
    fn audit_wrap(
        &self,
        value: &Expr,
        primitive: &'static str,
        rule: &'static str,
        base_name: Option<&str>,
    ) {
        self.trace.emit(|| {
            let mut ev = Event::new("annotate", "wrap")
                .field("primitive", primitive)
                .field("rule", rule)
                .field("expr", expr_to_c(value, self.types))
                .field("span_start", value.span.start)
                .field("span_end", value.span.end);
            if let Some(b) = base_name {
                ev = ev.field("base", b);
            }
            ev
        });
    }

    /// Emits one suppressed-wrap audit event.
    fn audit_skip(&self, value: &Expr, reason: &'static str) {
        self.trace.emit(|| {
            Event::new("annotate", "skip")
                .field("reason", reason)
                .field("expr", expr_to_c(value, self.types))
                .field("span_start", value.span.start)
                .field("span_end", value.span.end)
        });
    }

    /// Wraps `value` in the mode's annotation primitive with the given
    /// base. `Base::Nil` (provably non-heap) returns the value unchanged.
    /// When `record_edit` is true a plain textual wrap is recorded at the
    /// value's span.
    fn wrap(&mut self, value: Expr, base: Base, record_edit: bool) -> Expr {
        let base = self.final_base(base);
        let span = value.span;
        match (&self.cfg.mode, base) {
            (_, Base::Nil) => value,
            (Mode::GcSafe, Base::Var(b)) => {
                self.stats.keep_lives += 1;
                self.audit_wrap(&value, "KEEP_LIVE", "base_var", Some(&b));
                if record_edit {
                    self.edits.insert(span.start, "KEEP_LIVE(");
                    self.edits.insert(span.end, format!(", {b})"));
                }
                let base_e = self.ident(span, &b);
                self.mk(
                    span,
                    ExprKind::KeepLive {
                        value: Box::new(value),
                        base: Some(Box::new(base_e)),
                    },
                )
            }
            (Mode::GcSafe, Base::Opaque) => {
                self.stats.keep_lives += 1;
                self.audit_wrap(&value, "KEEP_LIVE", "base_opaque", None);
                if record_edit {
                    self.edits.insert(span.start, "KEEP_LIVE(");
                    self.edits.insert(span.end, ", 0)");
                }
                self.mk(
                    span,
                    ExprKind::KeepLive {
                        value: Box::new(value),
                        base: None,
                    },
                )
            }
            (Mode::Checked, Base::Var(b)) => {
                self.stats.checks += 1;
                self.audit_wrap(&value, "GC_same_obj", "base_var", Some(&b));
                if record_edit {
                    self.edits.insert(span.start, "GC_same_obj(");
                    self.edits.insert(span.end, format!(", {b})"));
                }
                let base_e = self.ident(span, &b);
                self.mk(
                    span,
                    ExprKind::CheckSame {
                        value: Box::new(value),
                        base: Box::new(base_e),
                    },
                )
            }
            (Mode::Checked, Base::Opaque) => {
                // No named base to check against; fall back to opacity.
                self.stats.keep_lives += 1;
                self.audit_wrap(&value, "KEEP_LIVE", "base_opaque", None);
                self.mk(
                    span,
                    ExprKind::KeepLive {
                        value: Box::new(value),
                        base: None,
                    },
                )
            }
        }
    }

    fn block(&mut self, mut b: Block) -> Block {
        b.stmts = b.stmts.into_iter().map(|s| self.stmt(s)).collect();
        b
    }

    fn stmt(&mut self, s: Stmt) -> Stmt {
        match s {
            Stmt::Expr(e) => Stmt::Expr(self.expr(e, Pos::Plain)),
            Stmt::Decl(decls) => Stmt::Decl(
                decls
                    .into_iter()
                    .map(|mut d| {
                        d.init = d.init.take().map(|e| self.expr(e, Pos::Value));
                        d
                    })
                    .collect(),
            ),
            Stmt::Block(b) => Stmt::Block(self.block(b)),
            Stmt::If(c, t, e) => Stmt::If(
                self.expr(c, Pos::Plain),
                Box::new(self.stmt(*t)),
                e.map(|e| Box::new(self.stmt(*e))),
            ),
            Stmt::While(c, b) => Stmt::While(self.expr(c, Pos::Plain), Box::new(self.stmt(*b))),
            Stmt::DoWhile(b, c) => Stmt::DoWhile(Box::new(self.stmt(*b)), self.expr(c, Pos::Plain)),
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => Stmt::For {
                init: init.map(|i| Box::new(self.stmt(*i))),
                cond: cond.map(|c| self.expr(c, Pos::Plain)),
                step: step.map(|st| self.expr(st, Pos::Plain)),
                body: Box::new(self.stmt(*body)),
            },
            Stmt::Switch(c, b) => Stmt::Switch(self.expr(c, Pos::Plain), Box::new(self.stmt(*b))),
            Stmt::Return(Some(e)) => Stmt::Return(Some(self.expr(e, Pos::Value))),
            other => other,
        }
    }

    /// Whether a value expression is statically a copy of a value stored
    /// elsewhere (optimization 1: `p = q` needs no `KEEP_LIVE`).
    fn is_copy(e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Ident(_)
            | ExprKind::IntLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::Call(..)
            | ExprKind::KeepLive { .. }
            | ExprKind::CheckSame { .. }
            | ExprKind::Deref(_)
            | ExprKind::Index(..)
            | ExprKind::Member { .. }
            | ExprKind::SizeofExpr(_)
            | ExprKind::SizeofType(_)
            | ExprKind::Assign { .. }
            | ExprKind::IncDec { .. } => true,
            ExprKind::Cast(_, inner) => Self::is_copy(inner),
            ExprKind::Comma(_, r) => Self::is_copy(r),
            ExprKind::Cond(_, t, f) => Self::is_copy(t) && Self::is_copy(f),
            _ => false,
        }
    }

    /// The dereference-address transformation: rewrites `a[i]` / `e->x` /
    /// `e.x`-via-pointer into `*WRAP(&lvalue, base)` per the paper's
    /// `*&(e1[e2].x)` normalization. Returns `None` when no wrap applies
    /// (non-heap base, or call-site-only mode).
    fn deref_address(&mut self, e: &Expr) -> Option<Base> {
        let base = match &e.kind {
            ExprKind::Index(..) | ExprKind::Member { .. } => self.analysis().base_addr(e),
            _ => return None,
        };
        // Var: wrap with the named base. Opaque: the value flows through a
        // generating expression; wrap with no named base — lowering binds
        // the evaluated pointer operand as the base, which is what the
        // paper's introduced temporary would have been. Nil: provably
        // non-heap, leave alone.
        if matches!(base, Base::Nil) {
            return None;
        }
        if self.cfg.call_sites_only {
            self.stats.skipped_deref_wraps += 1;
            self.audit_skip(e, "opt4_call_sites_only");
            return None;
        }
        Some(base)
    }

    fn expr(&mut self, e: Expr, pos: Pos) -> Expr {
        let span = e.span;
        let ty = e.ty.clone();
        let id = e.id;
        // Rebuild a node in place, preserving its id so BASE analysis (which
        // consults the pre-annotation sema tables) keeps resolving it.
        let rebuild = |ty: Option<cfront::Type>, kind: ExprKind| Expr { id, span, ty, kind };
        match e.kind {
            // ------ stores --------------------------------------------------
            ExprKind::Assign { op: None, lhs, rhs } => {
                let lhs = self.expr(*lhs, Pos::Plain);
                let rhs = self.expr(*rhs, Pos::Value);
                rebuild(
                    ty,
                    ExprKind::Assign {
                        op: None,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                    },
                )
            }
            ExprKind::Assign {
                op: Some(op),
                lhs,
                rhs,
            } => {
                // Pointer compound assignment: p += k → p = WRAP(p + k, p).
                let lhs_is_heap_ptr = self.heap_ptr_var(&lhs).is_some();
                if lhs_is_heap_ptr && matches!(op, BinOp::Add | BinOp::Sub) {
                    let name = self.heap_ptr_var(&lhs).expect("checked above");
                    let rhs = self.expr(*rhs, Pos::Plain);
                    let lhs_copy = self.ident(lhs.span, &name);
                    let mut arith = self.mk(
                        span,
                        ExprKind::Binary(op, Box::new(lhs_copy), Box::new(rhs)),
                    );
                    arith.ty = lhs.ty.clone();
                    let wrapped = self.wrap(arith, Base::Var(name), false);
                    let new = self.mk(
                        span,
                        ExprKind::Assign {
                            op: None,
                            lhs,
                            rhs: Box::new(wrapped),
                        },
                    );
                    self.edits.replace(
                        span.start,
                        span.end - span.start,
                        expr_to_c(&new, self.types),
                    );
                    return new;
                }
                let lhs = self.expr(*lhs, Pos::Plain);
                let rhs = self.expr(*rhs, Pos::Plain);
                rebuild(
                    ty,
                    ExprKind::Assign {
                        op: Some(op),
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                    },
                )
            }
            ExprKind::IncDec { inc, pre, target } => {
                if let Some(name) = self.heap_ptr_var(&target) {
                    if self.cfg.mode == Mode::Checked && self.cfg.specialize_incdec {
                        // ++p → (T)GC_pre_incr(&p, ±sizeof *p);  p++ →
                        // (T)GC_post_incr(&p, ±sizeof *p). Forces p to
                        // memory — the paper's measured cost.
                        self.stats.incdec_specials += 1;
                        let elem = target
                            .ty
                            .as_ref()
                            .and_then(Type::pointee)
                            .and_then(|t| t.size(self.types))
                            .unwrap_or(1) as i64;
                        let delta = if inc { elem } else { -elem };
                        let fname = if pre { "GC_pre_incr" } else { "GC_post_incr" };
                        let callee = self.ident(span, fname);
                        let addr = {
                            let t = self.ident(target.span, &name);
                            self.mk(span, ExprKind::AddrOf(Box::new(t)))
                        };
                        let amount = self.mk(span, ExprKind::IntLit(delta));
                        let call =
                            self.mk(span, ExprKind::Call(Box::new(callee), vec![addr, amount]));
                        let target_ty = target.ty.clone().expect("sema ran before annotation");
                        let new = self.mk(span, ExprKind::Cast(target_ty, Box::new(call)));
                        self.trace.emit(|| {
                            Event::new("annotate", "incdec")
                                .field("primitive", fname)
                                .field("var", name.as_str())
                                .field("delta", delta)
                                .field("span_start", span.start)
                                .field("span_end", span.end)
                        });
                        self.edits.replace(
                            span.start,
                            span.end - span.start,
                            expr_to_c(&new, self.types),
                        );
                        return new;
                    }
                    // GC-safe mode (or generic checked): wrap the whole
                    // inc/dec; lowering pins the new value on the old one —
                    // the paper's optimized `(tmp = e, e = tmp + 1, tmp)`
                    // expansion without forcing e to memory.
                    self.stats.incdec_specials += 1;
                    self.trace.emit(|| {
                        Event::new("annotate", "incdec")
                            .field("primitive", "KEEP_LIVE")
                            .field("var", name.as_str())
                            .field("span_start", span.start)
                            .field("span_end", span.end)
                    });
                    let node = self.mk(span, ExprKind::IncDec { inc, pre, target });
                    return self.wrap(node, Base::Var(name), true);
                }
                let target = self.expr(*target, Pos::Plain);
                rebuild(
                    ty,
                    ExprKind::IncDec {
                        inc,
                        pre,
                        target: Box::new(target),
                    },
                )
            }
            // ------ dereference points -------------------------------------
            ExprKind::Deref(inner) => {
                let inner = self.expr(*inner, Pos::Value);
                rebuild(ty, ExprKind::Deref(Box::new(inner)))
            }
            ExprKind::Index(a, i) => {
                let probe = Expr {
                    id: e.id,
                    span,
                    ty: ty.clone(),
                    kind: ExprKind::Index(a, i),
                };
                let wrap_base = self.deref_address(&probe);
                let ExprKind::Index(a, i) = probe.kind else {
                    unreachable!()
                };
                let a = self.expr(*a, Pos::Plain);
                let i = self.expr(*i, Pos::Plain);
                let idx = rebuild(ty.clone(), ExprKind::Index(Box::new(a), Box::new(i)));
                match wrap_base {
                    Some(base) => {
                        // a[i] → *WRAP(&a[i], base)
                        self.edits.insert(span.start, "(*".to_string());
                        let prefix_done = self.wrap_addr_edits_prefix(span.start);
                        let addr = self.mk(span, ExprKind::AddrOf(Box::new(idx)));
                        let wrapped = self.wrap(addr, base, false);
                        self.wrap_addr_edits_suffix(span.end, &wrapped, prefix_done);
                        let mut out = self.mk(span, ExprKind::Deref(Box::new(wrapped)));
                        out.ty = ty;
                        out
                    }
                    None => idx,
                }
            }
            ExprKind::Member { obj, field, arrow } => {
                let probe = Expr {
                    id: e.id,
                    span,
                    ty: ty.clone(),
                    kind: ExprKind::Member {
                        obj,
                        field: field.clone(),
                        arrow,
                    },
                };
                let wrap_base = self.deref_address(&probe);
                let ExprKind::Member { obj, .. } = probe.kind else {
                    unreachable!()
                };
                let obj = self.expr(*obj, Pos::Plain);
                let mem = rebuild(
                    ty.clone(),
                    ExprKind::Member {
                        obj: Box::new(obj),
                        field: field.clone(),
                        arrow,
                    },
                );
                match wrap_base {
                    Some(base) => {
                        self.edits.insert(span.start, "(*".to_string());
                        let prefix_done = self.wrap_addr_edits_prefix(span.start);
                        let addr = self.mk(span, ExprKind::AddrOf(Box::new(mem)));
                        let wrapped = self.wrap(addr, base, false);
                        self.wrap_addr_edits_suffix(span.end, &wrapped, prefix_done);
                        let mut out = self.mk(span, ExprKind::Deref(Box::new(wrapped)));
                        out.ty = ty;
                        out
                    }
                    None => mem,
                }
            }
            // ------ arithmetic values --------------------------------------
            ExprKind::Binary(op, l, r) => {
                let is_ptr_arith = matches!(op, BinOp::Add | BinOp::Sub)
                    && matches!(ty.as_ref().map(Type::decayed), Some(Type::Ptr(_)));
                let l = self.expr(*l, Pos::Plain);
                let r = self.expr(*r, Pos::Plain);
                let out = rebuild(ty, ExprKind::Binary(op, Box::new(l), Box::new(r)));
                if is_ptr_arith && pos == Pos::Value {
                    let base = self.analysis().base(&out);
                    return self.wrap(out, base, true);
                }
                out
            }
            ExprKind::AddrOf(inner) => {
                // &a[i] / &p->f as a *value* is derived-pointer arithmetic.
                let needs = matches!(
                    inner.kind,
                    ExprKind::Index(..) | ExprKind::Member { .. } | ExprKind::Deref(_)
                );
                let base = self.analysis().base_addr(&inner);
                let inner = self.expr_no_deref_wrap(*inner);
                let out = rebuild(ty, ExprKind::AddrOf(Box::new(inner)));
                if needs && pos == Pos::Value {
                    return self.wrap(out, base, true);
                }
                out
            }
            // ------ pass-through forms -------------------------------------
            ExprKind::Cast(t, inner) => {
                let inner = self.expr(*inner, pos);
                rebuild(ty, ExprKind::Cast(t, Box::new(inner)))
            }
            ExprKind::Cond(c, t, f) => {
                let c = self.expr(*c, Pos::Plain);
                let t = self.expr(*t, pos);
                let f = self.expr(*f, pos);
                rebuild(ty, ExprKind::Cond(Box::new(c), Box::new(t), Box::new(f)))
            }
            ExprKind::Comma(l, r) => {
                let l = self.expr(*l, Pos::Plain);
                let r = self.expr(*r, pos);
                rebuild(ty, ExprKind::Comma(Box::new(l), Box::new(r)))
            }
            ExprKind::Call(callee, args) => {
                let callee = self.expr(*callee, Pos::Plain);
                let args = args.into_iter().map(|a| self.expr(a, Pos::Value)).collect();
                rebuild(ty, ExprKind::Call(Box::new(callee), args))
            }
            ExprKind::Unary(op, inner) => {
                let inner = self.expr(*inner, Pos::Plain);
                rebuild(ty, ExprKind::Unary(op, Box::new(inner)))
            }
            // Leaves and unevaluated operands.
            kind @ (ExprKind::Ident(_)
            | ExprKind::IntLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::SizeofType(_)
            | ExprKind::SizeofExpr(_)
            | ExprKind::KeepLive { .. }
            | ExprKind::CheckSame { .. }) => {
                let out = rebuild(ty.clone(), kind);
                if pos == Pos::Value && Self::is_copy(&out) {
                    if !self.cfg.skip_copies
                        && matches!(ty.as_ref().map(Type::decayed), Some(Type::Ptr(_)))
                    {
                        // Ablation mode: wrap copies too.
                        let base = self.analysis().base(&out);
                        return self.wrap(out, base, true);
                    }
                    self.stats.skipped_copies += 1;
                    self.audit_skip(&out, "opt1_copy");
                }
                out
            }
        }
    }

    /// Annotates an lvalue path under `&` without applying the dereference
    /// wrap to the outermost member/index (the single outer wrap covers the
    /// whole address computation, per the paper's `*&(e1[e2].x)` form).
    fn expr_no_deref_wrap(&mut self, e: Expr) -> Expr {
        let span = e.span;
        let ty = e.ty.clone();
        let id = e.id;
        let rebuild = |ty: Option<cfront::Type>, kind: ExprKind| Expr { id, span, ty, kind };
        match e.kind {
            ExprKind::Index(a, i) => {
                let a = self.expr(*a, Pos::Plain);
                let i = self.expr(*i, Pos::Plain);
                rebuild(ty, ExprKind::Index(Box::new(a), Box::new(i)))
            }
            ExprKind::Member { obj, field, arrow } => {
                let obj = if arrow {
                    self.expr(*obj, Pos::Plain)
                } else {
                    self.expr_no_deref_wrap(*obj)
                };
                rebuild(
                    ty,
                    ExprKind::Member {
                        obj: Box::new(obj),
                        field,
                        arrow,
                    },
                )
            }
            ExprKind::Deref(inner) => {
                let inner = self.expr(*inner, Pos::Plain);
                rebuild(ty, ExprKind::Deref(Box::new(inner)))
            }
            _ => self.expr(e, Pos::Plain),
        }
    }

    /// Records the textual prefix for a deref-address wrap and reports
    /// whether an edit was opened.
    fn wrap_addr_edits_prefix(&mut self, start: usize) -> bool {
        let name = match self.cfg.mode {
            Mode::GcSafe => "KEEP_LIVE",
            Mode::Checked => "GC_same_obj",
        };
        self.edits.insert(start, format!("{name}(&("));
        true
    }

    /// Records the textual suffix for a deref-address wrap.
    fn wrap_addr_edits_suffix(&mut self, end: usize, wrapped: &Expr, opened: bool) {
        if !opened {
            return;
        }
        let base_text = match &wrapped.kind {
            ExprKind::KeepLive { base: Some(b), .. } | ExprKind::CheckSame { base: b, .. } => {
                expr_to_c(b, self.types)
            }
            _ => "0".to_string(),
        };
        self.edits.insert(end, format!("), {base_text}))"));
    }
}

#[cfg(test)]
mod origin_tests {
    use super::*;

    fn origins_of(src: &str, func: &str) -> HashMap<String, String> {
        let mut prog = cfront::parse(src).expect("parses");
        let sema = cfront::analyze(&mut prog).expect("sema");
        let f = prog.func(func).expect("exists");
        compute_origins(f.body.as_ref().expect("body"), &sema)
    }

    #[test]
    fn single_assignment_source_resolves() {
        let src = "void f(char *s) { char *p; char *q; p = s; q = p; while (*q++); }";
        let o = origins_of(src, "f");
        assert_eq!(o.get("p").map(String::as_str), Some("s"));
        // q's source p is itself assigned in this function, so the
        // conservative rule refuses an origin for q: if p were reassigned
        // after `q = p`, the substitution would be unsound.
        assert!(!o.contains_key("q"));
    }

    #[test]
    fn conditional_two_sources_poison() {
        let src = "void f(char *s, char *t, int c) {\n\
                     char *p;\n\
                     if (c) p = s; else p = t;\n\
                     while (*p++);\n\
                   }";
        let o = origins_of(src, "f");
        assert!(!o.contains_key("p"), "two sources: no unique origin");
    }

    #[test]
    fn address_taken_poisons() {
        let src = "void g(char **); void f(char *s) { char *p; p = s; g(&p); while (*p++); }";
        let o = origins_of(src, "f");
        assert!(!o.contains_key("p"), "&p allows indirect writes");
    }

    #[test]
    fn arithmetic_derivation_counts_as_source() {
        // p = s + 4 still has BASE s: same-object guarantee holds.
        let src = "void f(char *s) { char *p; p = s + 4; while (*p++); }";
        let o = origins_of(src, "f");
        assert_eq!(o.get("p").map(String::as_str), Some("s"));
    }

    #[test]
    fn opaque_source_poisons() {
        let src = "char *mk(void); void f(void) { char *p; p = mk(); while (*p++); }";
        let o = origins_of(src, "f");
        assert!(!o.contains_key("p"), "call results have no named origin");
    }
}

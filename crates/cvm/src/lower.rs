//! Lowering from the (possibly annotated) C AST to the IR.
//!
//! Two regimes mirror the paper's compilation modes:
//!
//! * **optimizable** (the default): scalar locals without their address
//!   taken live in virtual registers; the optimizer then runs over the
//!   result (the `-O` rows of the paper's tables);
//! * **fully debuggable** ([`LowerOptions::all_locals_in_memory`]): every
//!   local has a memory home and every access loads/stores it — "if the
//!   values of all logically visible variables are explicitly stored … at
//!   all program points, then they will also be available for the garbage
//!   collector" (the `-g` rows).

use crate::ir::*;
use cfront::ast::{BinOp, Block as AstBlock, Expr, ExprKind, Program, Stmt, UnOp};
use cfront::sema::{FuncInfo, Resolution, SemaInfo, VarId};
use cfront::types::{Type, TypeTable};
use cfront::Span;
use gcheap::GLOBAL_BASE;
use std::collections::HashMap;
use std::fmt;

/// Lowering options.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LowerOptions {
    /// `-g` regime: every local variable gets a frame slot and every
    /// access goes through memory.
    pub all_locals_in_memory: bool,
    /// Lower `KEEP_LIVE` as a real call to an opaque identity function —
    /// the paper's strawman implementation ("terribly inefficient") used
    /// for the implementation-strategy ablation.
    pub keep_live_as_call: bool,
}

/// Lowering failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// Explanation.
    pub message: String,
    /// Source location.
    pub span: Span,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for LowerError {}

type LResult<T> = Result<T, LowerError>;

/// Lowers a type-checked program to IR.
///
/// # Errors
///
/// Returns [`LowerError`] for constructs outside the supported subset
/// (e.g. struct-valued parameters) or a missing `main`.
pub fn lower(prog: &Program, sema: &SemaInfo, opts: LowerOptions) -> LResult<ProgramIr> {
    let mut cx = ProgCx {
        types: &prog.types,
        sema,
        opts,
        func_indices: HashMap::new(),
        global_offsets: Vec::new(),
        globals_image: Vec::new(),
        string_pool: HashMap::new(),
        alloc_sites: Vec::new(),
    };
    // Function table: definitions only, in order.
    let defs: Vec<&cfront::ast::FuncDef> = prog.definitions().collect();
    for (i, f) in defs.iter().enumerate() {
        cx.func_indices.insert(f.name.clone(), i);
    }
    // Globals layout.
    let mut offset: u64 = 16; // leave a null-guard gap at the region start
    for g in &prog.globals {
        let align = g.ty.align(cx.types).max(1);
        offset = (offset + align - 1) & !(align - 1);
        cx.global_offsets.push(offset);
        let size = g.ty.size(cx.types).ok_or_else(|| LowerError {
            message: format!("global '{}' has incomplete type", g.name),
            span: g.span,
        })?;
        offset += size;
    }
    cx.globals_image = vec![0u8; offset as usize];
    // Global initializers.
    let globals_by_index: Vec<_> = prog.globals.iter().collect();
    for (i, g) in globals_by_index.iter().enumerate() {
        if let Some(init) = &g.init {
            let off = cx.global_offsets[i];
            cx.write_init(init, &g.ty, off)?;
        }
    }
    // Lower each definition.
    let mut funcs = Vec::with_capacity(defs.len());
    for f in &defs {
        let fi = sema.funcs.get(&f.name).ok_or_else(|| LowerError {
            message: format!("no sema info for function '{}'", f.name),
            span: f.span,
        })?;
        let func = FuncCx::new(&mut cx, f, fi).lower()?;
        funcs.push(func);
    }
    let main = cx
        .func_indices
        .get("main")
        .copied()
        .ok_or_else(|| LowerError {
            message: "program has no 'main' function".into(),
            span: Span::point(0),
        })?;
    let globals_size = cx.globals_image.len() as u64;
    Ok(ProgramIr {
        funcs,
        main,
        globals_image: cx.globals_image,
        globals_size,
        alloc_sites: cx.alloc_sites,
    })
}

struct ProgCx<'a> {
    types: &'a TypeTable,
    sema: &'a SemaInfo,
    opts: LowerOptions,
    func_indices: HashMap<String, usize>,
    global_offsets: Vec<u64>,
    globals_image: Vec<u8>,
    string_pool: HashMap<String, u64>,
    alloc_sites: Vec<AllocSite>,
}

impl ProgCx<'_> {
    fn intern_string(&mut self, s: &str) -> u64 {
        if let Some(&addr) = self.string_pool.get(s) {
            return addr;
        }
        // Align to 8 for conservative-scan friendliness.
        while !self.globals_image.len().is_multiple_of(8) {
            self.globals_image.push(0);
        }
        let addr = GLOBAL_BASE + self.globals_image.len() as u64;
        self.globals_image.extend_from_slice(s.as_bytes());
        self.globals_image.push(0);
        self.string_pool.insert(s.to_string(), addr);
        addr
    }

    fn const_value(&mut self, e: &Expr) -> LResult<i64> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok(*v),
            ExprKind::StrLit(s) => Ok(self.intern_string(s) as i64),
            ExprKind::Ident(_) => match self.sema.res.get(&e.id) {
                Some(Resolution::EnumConst(v)) => Ok(*v),
                Some(Resolution::Func(name)) => {
                    let idx = self.func_indices.get(name).ok_or_else(|| LowerError {
                        message: format!("undefined function '{name}'"),
                        span: e.span,
                    })?;
                    Ok(FUNC_PTR_BASE + *idx as i64)
                }
                _ => Err(LowerError {
                    message: "global initializer is not constant".into(),
                    span: e.span,
                }),
            },
            ExprKind::Unary(UnOp::Neg, inner) => Ok(self.const_value(inner)?.wrapping_neg()),
            ExprKind::Unary(UnOp::BitNot, inner) => Ok(!self.const_value(inner)?),
            ExprKind::Unary(UnOp::Not, inner) => Ok((self.const_value(inner)? == 0) as i64),
            ExprKind::Unary(UnOp::Plus, inner) => self.const_value(inner),
            ExprKind::Binary(op, l, r) => {
                let a = self.const_value(l)?;
                let b = self.const_value(r)?;
                let ir = match op {
                    BinOp::Add => BinIr::Add,
                    BinOp::Sub => BinIr::Sub,
                    BinOp::Mul => BinIr::Mul,
                    BinOp::Div => BinIr::Div,
                    BinOp::Rem => BinIr::Rem,
                    BinOp::Shl => BinIr::Shl,
                    BinOp::Shr => BinIr::Sar,
                    BinOp::BitAnd => BinIr::And,
                    BinOp::BitOr => BinIr::Or,
                    BinOp::BitXor => BinIr::Xor,
                    BinOp::Eq => BinIr::CmpEq,
                    BinOp::Ne => BinIr::CmpNe,
                    BinOp::Lt => BinIr::CmpLt,
                    BinOp::Le => BinIr::CmpLe,
                    BinOp::Gt => BinIr::CmpGt,
                    BinOp::Ge => BinIr::CmpGe,
                    BinOp::LogAnd => {
                        return Ok(((a != 0) && (b != 0)) as i64);
                    }
                    BinOp::LogOr => {
                        return Ok(((a != 0) || (b != 0)) as i64);
                    }
                };
                Ok(ir.eval(a, b))
            }
            ExprKind::Cast(_, inner) => self.const_value(inner),
            ExprKind::SizeofType(t) => Ok(t.size(self.types).unwrap_or(0) as i64),
            _ => Err(LowerError {
                message: "global initializer is not constant".into(),
                span: e.span,
            }),
        }
    }

    fn write_bytes(&mut self, off: u64, bytes: &[u8]) {
        let off = off as usize;
        self.globals_image[off..off + bytes.len()].copy_from_slice(bytes);
    }

    fn write_scalar(&mut self, off: u64, value: i64, width: u64) {
        let bytes = value.to_le_bytes();
        let w = width as usize;
        let off = off as usize;
        self.globals_image[off..off + w].copy_from_slice(&bytes[..w]);
    }

    fn write_init(&mut self, init: &cfront::ast::Init, ty: &Type, off: u64) -> LResult<()> {
        use cfront::ast::Init;
        match (init, ty) {
            (Init::Scalar(e), Type::Array(elem, _)) if **elem == Type::Char => {
                // char buf[...] = "literal";
                if let ExprKind::StrLit(s) = &e.kind {
                    let mut bytes = s.as_bytes().to_vec();
                    bytes.push(0);
                    self.write_bytes(off, &bytes);
                    return Ok(());
                }
                Err(LowerError {
                    message: "array initializer must be a string or list".into(),
                    span: e.span,
                })
            }
            (Init::Scalar(e), _) => {
                let v = self.const_value(e)?;
                let width = ty.size(self.types).unwrap_or(8);
                self.write_scalar(off, v, width.min(8));
                Ok(())
            }
            (Init::List(items), Type::Array(elem, _)) => {
                let esize = elem.size(self.types).ok_or_else(|| LowerError {
                    message: "array of incomplete element type".into(),
                    span: Span::point(0),
                })?;
                for (i, item) in items.iter().enumerate() {
                    self.write_init(item, elem, off + i as u64 * esize)?;
                }
                Ok(())
            }
            (Init::List(items), Type::Record(id)) => {
                let rec = self.types.record(*id).clone();
                for (item, field) in items.iter().zip(rec.fields.iter()) {
                    self.write_init(item, &field.ty, off + field.offset)?;
                }
                Ok(())
            }
            (Init::List(items), _) if items.len() == 1 => self.write_init(&items[0], ty, off),
            (Init::List(_), _) => Err(LowerError {
                message: "brace initializer for scalar".into(),
                span: Span::point(0),
            }),
        }
    }
}

/// Where a variable's value lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Home {
    /// Virtual register.
    Reg(Temp),
    /// Frame slot at the given offset.
    Frame(u32),
}

/// An lvalue location.
#[derive(Debug, Clone, Copy)]
enum Place {
    /// Register-homed scalar.
    Reg(Temp),
    /// Memory with access width and signedness.
    Mem {
        addr: Operand,
        width: u8,
        signed: bool,
    },
    /// Aggregate in memory: the value *is* the address.
    Aggregate { addr: Operand, size: u64 },
}

struct FuncCx<'a, 'b> {
    prog: &'a mut ProgCx<'b>,
    func: &'a cfront::ast::FuncDef,
    fi: &'a FuncInfo,
    blocks: Vec<crate::ir::Block>,
    cur: BlockId,
    temp_count: u32,
    frame_size: u32,
    homes: Vec<Home>,
    param_temps: Vec<Temp>,
    /// (break target, continue target) stack.
    loops: Vec<(BlockId, Option<BlockId>)>,
}

impl<'a, 'b> FuncCx<'a, 'b> {
    fn new(prog: &'a mut ProgCx<'b>, func: &'a cfront::ast::FuncDef, fi: &'a FuncInfo) -> Self {
        FuncCx {
            prog,
            func,
            fi,
            blocks: vec![crate::ir::Block::default()],
            cur: BlockId(0),
            temp_count: 0,
            frame_size: 0,
            homes: Vec::new(),
            param_temps: Vec::new(),
            loops: Vec::new(),
        }
    }

    fn err(&self, span: Span, msg: impl Into<String>) -> LowerError {
        LowerError {
            message: msg.into(),
            span,
        }
    }

    fn temp(&mut self) -> Temp {
        let t = Temp(self.temp_count);
        self.temp_count += 1;
        t
    }

    fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(crate::ir::Block::default());
        id
    }

    fn emit(&mut self, instr: Instr) {
        let b = &mut self.blocks[self.cur.0 as usize];
        // Never emit past a terminator (unreachable code after return/break).
        if b.instrs.last().map(Instr::is_terminator).unwrap_or(false) {
            return;
        }
        b.instrs.push(instr);
    }

    fn switch_to(&mut self, id: BlockId) {
        self.cur = id;
    }

    fn terminated(&self) -> bool {
        self.blocks[self.cur.0 as usize]
            .instrs
            .last()
            .map(Instr::is_terminator)
            .unwrap_or(false)
    }

    fn alloc_frame(&mut self, size: u64, align: u64) -> u32 {
        let align = align.max(1) as u32;
        self.frame_size = (self.frame_size + align - 1) & !(align - 1);
        let off = self.frame_size;
        self.frame_size += size as u32;
        off
    }

    fn access_info(&self, ty: &Type) -> (u8, bool) {
        match ty {
            Type::Char => (1, true),
            Type::Int => (4, true),
            Type::UInt => (4, false),
            _ => (8, false),
        }
    }

    fn is_aggregate(&self, ty: &Type) -> bool {
        matches!(ty, Type::Array(..) | Type::Record(_))
    }

    fn lower(mut self) -> LResult<FuncIr> {
        // Assign homes for all variables up front.
        for v in &self.fi.vars {
            let home = if self.is_aggregate(&v.ty) {
                let size = v.ty.size(self.prog.types).unwrap_or(8);
                let align = v.ty.align(self.prog.types);
                Home::Frame(self.alloc_frame(size, align))
            } else if v.addr_taken || self.prog.opts.all_locals_in_memory {
                let size = v.ty.size(self.prog.types).unwrap_or(8);
                let align = v.ty.align(self.prog.types).max(size);
                Home::Frame(self.alloc_frame(size, align))
            } else {
                let t = self.temp();
                Home::Reg(t)
            };
            self.homes.push(home);
        }
        // Parameters arrive in fresh temps; copy to homes.
        for (i, v) in self.fi.vars.iter().enumerate() {
            if !v.is_param {
                continue;
            }
            if self.is_aggregate(&v.ty) {
                return Err(self.err(
                    self.func.span,
                    "struct/array parameters by value are not supported (pass a pointer)",
                ));
            }
            let pt = self.temp();
            self.param_temps.push(pt);
            match self.homes[i] {
                Home::Reg(t) => self.emit(Instr::Mov {
                    dst: t,
                    src: pt.into(),
                }),
                Home::Frame(off) => {
                    let addr = self.temp();
                    self.emit(Instr::FrameAddr {
                        dst: addr,
                        offset: off,
                    });
                    let (width, _) = self.access_info(&v.ty.decayed());
                    self.emit(Instr::Store {
                        addr: addr.into(),
                        value: pt.into(),
                        width,
                    });
                }
            }
        }
        let body = self.func.body.as_ref().expect("definition has a body");
        self.block_stmts(body)?;
        if !self.terminated() {
            let zero = self.func.ret != Type::Void;
            if zero {
                self.emit(Instr::Ret {
                    value: Some(Operand::Const(0)),
                });
            } else {
                self.emit(Instr::Ret { value: None });
            }
        }
        // Seal all unterminated blocks (unreachable artifacts) with a ret.
        for b in &mut self.blocks {
            if !b.instrs.last().map(Instr::is_terminator).unwrap_or(false) {
                b.instrs.push(Instr::Ret { value: None });
            }
        }
        Ok(FuncIr {
            name: self.func.name.clone(),
            blocks: self.blocks,
            temp_count: self.temp_count,
            param_temps: self.param_temps,
            frame_size: (self.frame_size + 15) & !15,
            returns_value: self.func.ret != Type::Void,
        })
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn block_stmts(&mut self, b: &AstBlock) -> LResult<()> {
        for s in &b.stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> LResult<()> {
        match s {
            Stmt::Expr(e) => {
                // A statement-position call discards its result: lower it
                // with no destination, so a callee that legally returns no
                // value (e.g. `return;` on one path) stays runnable — the
                // VM rejects value-less returns only when a caller uses one.
                if let ExprKind::Call(callee, args) = &e.kind {
                    self.lower_call(e, callee, args, &Type::Void)?;
                } else {
                    self.expr(e)?;
                }
                Ok(())
            }
            Stmt::Decl(decls) => {
                for d in decls {
                    if let Some(init) = &d.init {
                        let Some(Resolution::Local(var)) = self.prog.sema.res.get(&d.id) else {
                            return Err(self.err(d.span, "unresolved declaration"));
                        };
                        let var = *var;
                        let value = self.expr(init)?;
                        self.store_var(var, value, &d.ty.decayed());
                    }
                }
                Ok(())
            }
            Stmt::Block(b) => self.block_stmts(b),
            Stmt::Empty | Stmt::Case(_) | Stmt::Default => Ok(()),
            Stmt::If(cond, then, els) => {
                let then_b = self.new_block();
                let exit_b = self.new_block();
                let else_b = if els.is_some() {
                    self.new_block()
                } else {
                    exit_b
                };
                let c = self.expr(cond)?;
                self.emit(Instr::Branch {
                    cond: c,
                    if_true: then_b,
                    if_false: else_b,
                });
                self.switch_to(then_b);
                self.stmt(then)?;
                self.emit(Instr::Jump { target: exit_b });
                if let Some(els) = els {
                    self.switch_to(else_b);
                    self.stmt(els)?;
                    self.emit(Instr::Jump { target: exit_b });
                }
                self.switch_to(exit_b);
                Ok(())
            }
            Stmt::While(cond, body) => {
                let cond_b = self.new_block();
                let body_b = self.new_block();
                let exit_b = self.new_block();
                self.emit(Instr::Jump { target: cond_b });
                self.switch_to(cond_b);
                let c = self.expr(cond)?;
                self.emit(Instr::Branch {
                    cond: c,
                    if_true: body_b,
                    if_false: exit_b,
                });
                self.switch_to(body_b);
                self.loops.push((exit_b, Some(cond_b)));
                self.stmt(body)?;
                self.loops.pop();
                self.emit(Instr::Jump { target: cond_b });
                self.switch_to(exit_b);
                Ok(())
            }
            Stmt::DoWhile(body, cond) => {
                let body_b = self.new_block();
                let cond_b = self.new_block();
                let exit_b = self.new_block();
                self.emit(Instr::Jump { target: body_b });
                self.switch_to(body_b);
                self.loops.push((exit_b, Some(cond_b)));
                self.stmt(body)?;
                self.loops.pop();
                self.emit(Instr::Jump { target: cond_b });
                self.switch_to(cond_b);
                let c = self.expr(cond)?;
                self.emit(Instr::Branch {
                    cond: c,
                    if_true: body_b,
                    if_false: exit_b,
                });
                self.switch_to(exit_b);
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                let cond_b = self.new_block();
                let body_b = self.new_block();
                let step_b = self.new_block();
                let exit_b = self.new_block();
                self.emit(Instr::Jump { target: cond_b });
                self.switch_to(cond_b);
                match cond {
                    Some(c) => {
                        let c = self.expr(c)?;
                        self.emit(Instr::Branch {
                            cond: c,
                            if_true: body_b,
                            if_false: exit_b,
                        });
                    }
                    None => self.emit(Instr::Jump { target: body_b }),
                }
                self.switch_to(body_b);
                self.loops.push((exit_b, Some(step_b)));
                self.stmt(body)?;
                self.loops.pop();
                self.emit(Instr::Jump { target: step_b });
                self.switch_to(step_b);
                if let Some(st) = step {
                    self.expr(st)?;
                }
                self.emit(Instr::Jump { target: cond_b });
                self.switch_to(exit_b);
                Ok(())
            }
            Stmt::Switch(scrutinee, body) => self.lower_switch(scrutinee, body),
            Stmt::Break => {
                let Some((exit_b, _)) = self.loops.last().copied() else {
                    return Err(self.err(Span::point(0), "break outside loop/switch"));
                };
                self.emit(Instr::Jump { target: exit_b });
                Ok(())
            }
            Stmt::Continue => {
                let target = self
                    .loops
                    .iter()
                    .rev()
                    .find_map(|(_, c)| *c)
                    .ok_or_else(|| self.err(Span::point(0), "continue outside loop"))?;
                self.emit(Instr::Jump { target });
                Ok(())
            }
            Stmt::Return(value) => {
                let v = match value {
                    Some(e) => Some(self.expr(e)?),
                    None => None,
                };
                self.emit(Instr::Ret { value: v });
                Ok(())
            }
        }
    }

    fn lower_switch(&mut self, scrutinee: &Expr, body: &Stmt) -> LResult<()> {
        let Stmt::Block(block) = body else {
            return Err(self.err(Span::point(0), "switch body must be a block"));
        };
        let sc = self.expr(scrutinee)?;
        // Pre-create a block per case/default marker.
        let mut case_blocks: Vec<(Option<i64>, BlockId)> = Vec::new();
        for s in &block.stmts {
            match s {
                Stmt::Case(v) => case_blocks.push((Some(*v), self.new_block())),
                Stmt::Default => case_blocks.push((None, self.new_block())),
                _ => {}
            }
        }
        let exit_b = self.new_block();
        // Dispatch chain.
        let mut default_target = exit_b;
        for (val, blk) in &case_blocks {
            match val {
                Some(v) => {
                    let cmp = self.temp();
                    self.emit(Instr::Bin {
                        dst: cmp,
                        op: BinIr::CmpEq,
                        a: sc,
                        b: Operand::Const(*v),
                    });
                    let next = self.new_block();
                    self.emit(Instr::Branch {
                        cond: cmp.into(),
                        if_true: *blk,
                        if_false: next,
                    });
                    self.switch_to(next);
                }
                None => default_target = *blk,
            }
        }
        self.emit(Instr::Jump {
            target: default_target,
        });
        // Body with fallthrough.
        let mut marker_idx = 0;
        self.loops.push((exit_b, None));
        for s in &block.stmts {
            match s {
                Stmt::Case(_) | Stmt::Default => {
                    let blk = case_blocks[marker_idx].1;
                    marker_idx += 1;
                    self.emit(Instr::Jump { target: blk }); // fallthrough
                    self.switch_to(blk);
                }
                other => self.stmt(other)?,
            }
        }
        self.loops.pop();
        self.emit(Instr::Jump { target: exit_b });
        self.switch_to(exit_b);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Variables
    // ------------------------------------------------------------------

    fn var_home(&self, id: VarId) -> Home {
        self.homes[id.0 as usize]
    }

    fn read_var(&mut self, id: VarId) -> Operand {
        let v = &self.fi.vars[id.0 as usize];
        match self.var_home(id) {
            Home::Reg(t) => t.into(),
            Home::Frame(off) => {
                if self.is_aggregate(&v.ty) {
                    let addr = self.temp();
                    self.emit(Instr::FrameAddr {
                        dst: addr,
                        offset: off,
                    });
                    addr.into()
                } else {
                    let addr = self.temp();
                    self.emit(Instr::FrameAddr {
                        dst: addr,
                        offset: off,
                    });
                    let (width, signed) = self.access_info(&v.ty.decayed());
                    let dst = self.temp();
                    self.emit(Instr::Load {
                        dst,
                        addr: addr.into(),
                        width,
                        signed,
                    });
                    dst.into()
                }
            }
        }
    }

    fn store_var(&mut self, id: VarId, value: Operand, ty: &Type) {
        match self.var_home(id) {
            Home::Reg(t) => self.emit(Instr::Mov { dst: t, src: value }),
            Home::Frame(off) => {
                let addr = self.temp();
                self.emit(Instr::FrameAddr {
                    dst: addr,
                    offset: off,
                });
                let (width, _) = self.access_info(ty);
                self.emit(Instr::Store {
                    addr: addr.into(),
                    value,
                    width,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Places (lvalues)
    // ------------------------------------------------------------------

    fn place(&mut self, e: &Expr) -> LResult<Place> {
        let ty =
            e.ty.clone()
                .ok_or_else(|| self.err(e.span, "untyped expression"))?;
        match &e.kind {
            ExprKind::Ident(name) => match self.prog.sema.res.get(&e.id) {
                Some(Resolution::Local(var)) => {
                    let var = *var;
                    let vinfo = &self.fi.vars[var.0 as usize];
                    if self.is_aggregate(&vinfo.ty) {
                        let Home::Frame(off) = self.var_home(var) else {
                            unreachable!("aggregates are frame-homed")
                        };
                        let addr = self.temp();
                        self.emit(Instr::FrameAddr {
                            dst: addr,
                            offset: off,
                        });
                        let size = vinfo.ty.size(self.prog.types).unwrap_or(0);
                        return Ok(Place::Aggregate {
                            addr: addr.into(),
                            size,
                        });
                    }
                    match self.var_home(var) {
                        Home::Reg(t) => Ok(Place::Reg(t)),
                        Home::Frame(off) => {
                            let addr = self.temp();
                            self.emit(Instr::FrameAddr {
                                dst: addr,
                                offset: off,
                            });
                            let (width, signed) = self.access_info(&vinfo.ty.decayed());
                            Ok(Place::Mem {
                                addr: addr.into(),
                                width,
                                signed,
                            })
                        }
                    }
                }
                Some(Resolution::Global(gi)) => {
                    let addr = Operand::Const((GLOBAL_BASE + self.prog.global_offsets[*gi]) as i64);
                    if self.is_aggregate(&ty) {
                        let size = ty.size(self.prog.types).unwrap_or(0);
                        Ok(Place::Aggregate { addr, size })
                    } else {
                        let (width, signed) = self.access_info(&ty);
                        Ok(Place::Mem {
                            addr,
                            width,
                            signed,
                        })
                    }
                }
                _ => Err(self.err(e.span, format!("'{name}' is not assignable"))),
            },
            ExprKind::Deref(inner) => {
                let addr = self.expr(inner)?;
                if self.is_aggregate(&ty) {
                    let size = ty.size(self.prog.types).unwrap_or(0);
                    Ok(Place::Aggregate { addr, size })
                } else {
                    let (width, signed) = self.access_info(&ty);
                    Ok(Place::Mem {
                        addr,
                        width,
                        signed,
                    })
                }
            }
            ExprKind::Index(arr, idx) => {
                let addr = self.element_addr(arr, idx)?;
                if self.is_aggregate(&ty) {
                    let size = ty.size(self.prog.types).unwrap_or(0);
                    Ok(Place::Aggregate { addr, size })
                } else {
                    let (width, signed) = self.access_info(&ty);
                    Ok(Place::Mem {
                        addr,
                        width,
                        signed,
                    })
                }
            }
            ExprKind::Member { obj, field, arrow } => {
                let (base_addr, rec_ty) = if *arrow {
                    let a = self.expr(obj)?;
                    let t = obj
                        .ty
                        .as_ref()
                        .map(Type::decayed)
                        .and_then(|t| t.pointee().cloned())
                        .ok_or_else(|| self.err(e.span, "arrow on non-pointer"))?;
                    (a, t)
                } else {
                    let p = self.place(obj)?;
                    let addr = match p {
                        Place::Aggregate { addr, .. } => addr,
                        Place::Mem { addr, .. } => addr,
                        Place::Reg(_) => return Err(self.err(e.span, "member of register value")),
                    };
                    let t = obj
                        .ty
                        .clone()
                        .ok_or_else(|| self.err(e.span, "untyped member base"))?;
                    (addr, t)
                };
                let Type::Record(rid) = rec_ty else {
                    return Err(self.err(e.span, "member of non-record"));
                };
                let rec = self.prog.types.record(rid);
                let fld = rec
                    .field(field)
                    .ok_or_else(|| self.err(e.span, format!("no field '{field}'")))?;
                let offset = fld.offset;
                let addr = self.add_offset(base_addr, offset as i64);
                if self.is_aggregate(&ty) {
                    let size = ty.size(self.prog.types).unwrap_or(0);
                    Ok(Place::Aggregate { addr, size })
                } else {
                    let (width, signed) = self.access_info(&ty);
                    Ok(Place::Mem {
                        addr,
                        width,
                        signed,
                    })
                }
            }
            _ => Err(self.err(e.span, "expression is not an lvalue")),
        }
    }

    fn add_offset(&mut self, base: Operand, offset: i64) -> Operand {
        if offset == 0 {
            return base;
        }
        let dst = self.temp();
        self.emit(Instr::Bin {
            dst,
            op: BinIr::Add,
            a: base,
            b: Operand::Const(offset),
        });
        dst.into()
    }

    /// Computes the address of `arr[idx]`, scaling by element size.
    fn element_addr(&mut self, arr: &Expr, idx: &Expr) -> LResult<Operand> {
        let base = self.expr(arr)?;
        let elem_ty = arr
            .ty
            .as_ref()
            .map(Type::decayed)
            .and_then(|t| t.pointee().cloned())
            .ok_or_else(|| self.err(arr.span, "subscript of non-pointer"))?;
        let esize = elem_ty.size(self.prog.types).unwrap_or(1);
        let i = self.expr(idx)?;
        let scaled = self.scale(i, esize as i64);
        let dst = self.temp();
        self.emit(Instr::Bin {
            dst,
            op: BinIr::Add,
            a: base,
            b: scaled,
        });
        Ok(dst.into())
    }

    fn scale(&mut self, v: Operand, by: i64) -> Operand {
        if by == 1 {
            return v;
        }
        if let Operand::Const(c) = v {
            return Operand::Const(c.wrapping_mul(by));
        }
        let dst = self.temp();
        self.emit(Instr::Bin {
            dst,
            op: BinIr::Mul,
            a: v,
            b: Operand::Const(by),
        });
        dst.into()
    }

    fn read_place(&mut self, p: Place) -> Operand {
        match p {
            Place::Reg(t) => t.into(),
            Place::Mem {
                addr,
                width,
                signed,
            } => {
                let dst = self.temp();
                self.emit(Instr::Load {
                    dst,
                    addr,
                    width,
                    signed,
                });
                dst.into()
            }
            Place::Aggregate { addr, .. } => addr,
        }
    }

    fn write_place(&mut self, p: Place, value: Operand) {
        match p {
            Place::Reg(t) => self.emit(Instr::Mov { dst: t, src: value }),
            Place::Mem { addr, width, .. } => self.emit(Instr::Store { addr, value, width }),
            Place::Aggregate { addr, size } => self.emit(Instr::MemCopy {
                dst_addr: addr,
                src_addr: value,
                len: size,
            }),
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn expr(&mut self, e: &Expr) -> LResult<Operand> {
        let ty =
            e.ty.clone()
                .ok_or_else(|| self.err(e.span, "untyped expression"))?;
        match &e.kind {
            ExprKind::IntLit(v) => Ok(Operand::Const(*v)),
            ExprKind::StrLit(s) => Ok(Operand::Const(self.prog.intern_string(s) as i64)),
            ExprKind::Ident(_) => match self.prog.sema.res.get(&e.id).cloned() {
                Some(Resolution::Local(var)) => {
                    let vinfo = &self.fi.vars[var.0 as usize];
                    if self.is_aggregate(&vinfo.ty) {
                        let p = self.place(e)?;
                        Ok(self.read_place(p))
                    } else {
                        Ok(self.read_var(var))
                    }
                }
                Some(Resolution::Global(_)) => {
                    let p = self.place(e)?;
                    Ok(self.read_place(p))
                }
                Some(Resolution::EnumConst(v)) => Ok(Operand::Const(v)),
                Some(Resolution::Func(name)) => {
                    let idx =
                        self.prog.func_indices.get(&name).ok_or_else(|| {
                            self.err(e.span, format!("undefined function '{name}'"))
                        })?;
                    Ok(Operand::Const(FUNC_PTR_BASE + *idx as i64))
                }
                Some(Resolution::Builtin(_)) => {
                    Err(self.err(e.span, "builtin functions cannot be taken as values"))
                }
                None => Err(self.err(e.span, "unresolved identifier")),
            },
            ExprKind::Unary(op, inner) => {
                let v = self.expr(inner)?;
                let dst = self.temp();
                match op {
                    UnOp::Neg => self.emit(Instr::Bin {
                        dst,
                        op: BinIr::Sub,
                        a: Operand::Const(0),
                        b: v,
                    }),
                    UnOp::Not => self.emit(Instr::Bin {
                        dst,
                        op: BinIr::CmpEq,
                        a: v,
                        b: Operand::Const(0),
                    }),
                    UnOp::BitNot => self.emit(Instr::Bin {
                        dst,
                        op: BinIr::Xor,
                        a: v,
                        b: Operand::Const(-1),
                    }),
                    UnOp::Plus => return Ok(v),
                }
                Ok(dst.into())
            }
            ExprKind::Deref(_) | ExprKind::Index(..) | ExprKind::Member { .. } => {
                let p = self.place(e)?;
                Ok(self.read_place(p))
            }
            ExprKind::AddrOf(inner) => {
                let p = self.place(inner)?;
                match p {
                    Place::Mem { addr, .. } | Place::Aggregate { addr, .. } => Ok(addr),
                    Place::Reg(_) => Err(self.err(
                        e.span,
                        "address of register variable (sema should have homed it)",
                    )),
                }
            }
            ExprKind::Binary(op, l, r) => self.binary(e, *op, l, r, &ty),
            ExprKind::Assign { op, lhs, rhs } => {
                let lhs_ty = lhs
                    .ty
                    .clone()
                    .ok_or_else(|| self.err(lhs.span, "untyped lhs"))?;
                match op {
                    None => {
                        let v = self.expr(rhs)?;
                        let p = self.place(lhs)?;
                        self.write_place(p, v);
                        Ok(v)
                    }
                    Some(op) => {
                        // Compound: evaluate the address once.
                        let p = self.place(lhs)?;
                        let old = self.read_place(p);
                        let v = self.expr(rhs)?;
                        let new = self.apply_binop(*op, old, v, &lhs_ty.decayed(), rhs)?;
                        self.write_place(p, new);
                        Ok(new)
                    }
                }
            }
            ExprKind::IncDec { inc, pre, target } => {
                let new_op = self.lower_incdec(*inc, target, None)?;
                Ok(if *pre { new_op.0 } else { new_op.1 })
            }
            ExprKind::Cond(c, t, f) => {
                let then_b = self.new_block();
                let else_b = self.new_block();
                let join_b = self.new_block();
                let result = self.temp();
                let cv = self.expr(c)?;
                self.emit(Instr::Branch {
                    cond: cv,
                    if_true: then_b,
                    if_false: else_b,
                });
                self.switch_to(then_b);
                let tv = self.expr(t)?;
                self.emit(Instr::Mov {
                    dst: result,
                    src: tv,
                });
                self.emit(Instr::Jump { target: join_b });
                self.switch_to(else_b);
                let fv = self.expr(f)?;
                self.emit(Instr::Mov {
                    dst: result,
                    src: fv,
                });
                self.emit(Instr::Jump { target: join_b });
                self.switch_to(join_b);
                Ok(result.into())
            }
            ExprKind::Comma(l, r) => {
                self.expr(l)?;
                self.expr(r)
            }
            ExprKind::Call(callee, args) => self.lower_call(e, callee, args, &ty),
            ExprKind::Cast(to, inner) => {
                let v = self.expr(inner)?;
                Ok(self.truncate_to(v, to))
            }
            ExprKind::SizeofType(t) => {
                let size = t
                    .size(self.prog.types)
                    .ok_or_else(|| self.err(e.span, "sizeof incomplete type"))?;
                Ok(Operand::Const(size as i64))
            }
            ExprKind::SizeofExpr(inner) => {
                let t = inner
                    .ty
                    .as_ref()
                    .ok_or_else(|| self.err(e.span, "untyped sizeof operand"))?;
                let size = t
                    .size(self.prog.types)
                    .ok_or_else(|| self.err(e.span, "sizeof incomplete type"))?;
                Ok(Operand::Const(size as i64))
            }
            ExprKind::KeepLive { value, base } => {
                self.lower_protected(value, base.as_deref(), false)
            }
            ExprKind::CheckSame { value, base } => self.lower_protected(value, Some(base), true),
        }
    }

    /// Lowers `KEEP_LIVE(value, base)` / `GC_same_obj(value, base)`.
    ///
    /// When `value` is a pointer `++`/`--`, uses the paper's specialized
    /// expansion: `(tmp = p, p = KEEP_LIVE(tmp ± n, tmp-or-base), result)`,
    /// which avoids forcing `p` into memory.
    fn lower_protected(
        &mut self,
        value: &Expr,
        base: Option<&Expr>,
        checked: bool,
    ) -> LResult<Operand> {
        if let ExprKind::IncDec { inc, pre, target } = &value.kind {
            let base_op = match base {
                Some(b) => Some(self.expr(b)?),
                None => None,
            };
            let (new, old) = self.lower_incdec(*inc, target, Some((base_op, checked)))?;
            return Ok(if *pre { new } else { old });
        }
        // No named base: the annotator protected arithmetic whose source is
        // a generating expression. Bind the evaluated pointer operand as
        // the base — the role the paper's introduced temporary plays.
        if base.is_none() {
            if let Some((addr, auto_base)) = self.lower_value_with_base(value)? {
                let dst = self.temp();
                self.emit(Instr::KeepLive {
                    dst,
                    value: addr,
                    base: Some(auto_base),
                });
                return Ok(dst.into());
            }
        }
        let v = self.expr(value)?;
        let b = match base {
            Some(b) => Some(self.expr(b)?),
            None => None,
        };
        let dst = self.temp();
        match (checked, b) {
            (true, Some(b)) => self.emit(Instr::CheckSame {
                dst,
                value: v,
                base: b,
            }),
            (false, b) if self.prog.opts.keep_live_as_call => {
                self.emit(Instr::Call {
                    dst: Some(dst),
                    target: CallTarget::Builtin(cfront::sema::Builtin::KeepLiveFn),
                    args: vec![v, b.unwrap_or(Operand::Const(0))],
                    site: None,
                });
            }
            (true, None) | (false, None) => self.emit(Instr::KeepLive {
                dst,
                value: v,
                base: None,
            }),
            (false, Some(b)) => self.emit(Instr::KeepLive {
                dst,
                value: v,
                base: Some(b),
            }),
        }
        Ok(dst.into())
    }

    /// Lowers a protected value expression while capturing the pointer
    /// operand it derives from, for auto-base binding. Handles the shapes
    /// the annotator produces: `&a[i]`, `&(e->f)`, `&((*e).f)`, and plain
    /// pointer ± integer arithmetic. Returns `None` for other shapes.
    fn lower_value_with_base(&mut self, e: &Expr) -> LResult<Option<(Operand, Operand)>> {
        match &e.kind {
            ExprKind::AddrOf(inner) => match &inner.kind {
                ExprKind::Index(arr, idx) => {
                    let base = self.expr(arr)?;
                    let elem_ty = arr
                        .ty
                        .as_ref()
                        .map(Type::decayed)
                        .and_then(|t| t.pointee().cloned())
                        .ok_or_else(|| self.err(arr.span, "subscript of non-pointer"))?;
                    let esize = elem_ty.size(self.prog.types).unwrap_or(1);
                    let i = self.expr(idx)?;
                    let scaled = self.scale(i, esize as i64);
                    let dst = self.temp();
                    self.emit(Instr::Bin {
                        dst,
                        op: BinIr::Add,
                        a: base,
                        b: scaled,
                    });
                    Ok(Some((dst.into(), base)))
                }
                ExprKind::Member { obj, field, arrow } => {
                    let (base, rec_ty) = if *arrow {
                        let b = self.expr(obj)?;
                        let t = obj
                            .ty
                            .as_ref()
                            .map(Type::decayed)
                            .and_then(|t| t.pointee().cloned())
                            .ok_or_else(|| self.err(inner.span, "arrow on non-pointer"))?;
                        (b, t)
                    } else if let ExprKind::Deref(x) = &obj.kind {
                        let b = self.expr(x)?;
                        let t = obj
                            .ty
                            .clone()
                            .ok_or_else(|| self.err(inner.span, "untyped member base"))?;
                        (b, t)
                    } else {
                        return Ok(None);
                    };
                    let Type::Record(rid) = rec_ty else {
                        return Err(self.err(inner.span, "member of non-record"));
                    };
                    let off = self
                        .prog
                        .types
                        .record(rid)
                        .field(field)
                        .ok_or_else(|| self.err(inner.span, format!("no field '{field}'")))?
                        .offset;
                    let addr = self.add_offset(base, off as i64);
                    Ok(Some((addr, base)))
                }
                _ => Ok(None),
            },
            ExprKind::Binary(op @ (BinOp::Add | BinOp::Sub), l, r) => {
                let l_ptr = matches!(l.ty.as_ref().map(Type::decayed), Some(Type::Ptr(_)));
                let r_ptr = matches!(r.ty.as_ref().map(Type::decayed), Some(Type::Ptr(_)));
                let (ptr_e, int_e, ptr_first) = match (op, l_ptr, r_ptr) {
                    (_, true, false) => (l, r, true),
                    (BinOp::Add, false, true) => (r, l, false),
                    _ => return Ok(None),
                };
                let elem = ptr_e
                    .ty
                    .as_ref()
                    .map(Type::decayed)
                    .and_then(|t| t.pointee().cloned())
                    .map(|t| t.size(self.prog.types).unwrap_or(1))
                    .unwrap_or(1) as i64;
                // Preserve left-to-right evaluation order.
                let (base, i) = if ptr_first {
                    let b = self.expr(ptr_e)?;
                    (b, self.expr(int_e)?)
                } else {
                    let i = self.expr(int_e)?;
                    (self.expr(ptr_e)?, i)
                };
                let scaled = self.scale(i, elem);
                let ir = if *op == BinOp::Add {
                    BinIr::Add
                } else {
                    BinIr::Sub
                };
                let dst = self.temp();
                self.emit(Instr::Bin {
                    dst,
                    op: ir,
                    a: base,
                    b: scaled,
                });
                Ok(Some((dst.into(), base)))
            }
            ExprKind::Cast(_, inner) => self.lower_value_with_base(inner),
            _ => Ok(None),
        }
    }

    /// Lowers `++`/`--` on any lvalue. Returns (new value, old value).
    /// `protect` carries the annotation base and mode when the operation
    /// was wrapped by the annotator.
    fn lower_incdec(
        &mut self,
        inc: bool,
        target: &Expr,
        protect: Option<(Option<Operand>, bool)>,
    ) -> LResult<(Operand, Operand)> {
        let ty = target
            .ty
            .as_ref()
            .map(Type::decayed)
            .ok_or_else(|| self.err(target.span, "untyped inc/dec target"))?;
        let delta: i64 = match &ty {
            Type::Ptr(p) => p.size(self.prog.types).unwrap_or(1) as i64,
            _ => 1,
        };
        let delta = if inc { delta } else { -delta };
        let p = self.place(target)?;
        // Snapshot the old value into a fresh temp: for register-homed
        // targets `read_place` aliases the variable's register, which the
        // store below overwrites.
        let old_val = self.read_place(p);
        let old = {
            let t = self.temp();
            self.emit(Instr::Mov {
                dst: t,
                src: old_val,
            });
            Operand::Temp(t)
        };
        let raw = self.temp();
        self.emit(Instr::Bin {
            dst: raw,
            op: BinIr::Add,
            a: old,
            b: Operand::Const(delta),
        });
        let new: Operand = match protect {
            None => raw.into(),
            Some((base, checked)) => {
                let base = base.or(Some(old));
                let dst = self.temp();
                if checked {
                    self.emit(Instr::CheckSame {
                        dst,
                        value: raw.into(),
                        base: base.expect("base defaulted to old value"),
                    });
                } else {
                    self.emit(Instr::KeepLive {
                        dst,
                        value: raw.into(),
                        base,
                    });
                }
                dst.into()
            }
        };
        self.write_place(p, new);
        Ok((new, old))
    }

    fn apply_binop(
        &mut self,
        op: BinOp,
        a: Operand,
        b: Operand,
        lty: &Type,
        rhs: &Expr,
    ) -> LResult<Operand> {
        // Compound assignment arithmetic: ptr += n scales.
        if let Type::Ptr(pointee) = lty {
            let esize = pointee.size(self.prog.types).unwrap_or(1) as i64;
            let scaled = self.scale(b, esize);
            let ir = if op == BinOp::Add {
                BinIr::Add
            } else {
                BinIr::Sub
            };
            let dst = self.temp();
            self.emit(Instr::Bin {
                dst,
                op: ir,
                a,
                b: scaled,
            });
            return Ok(dst.into());
        }
        let unsigned = lty.is_unsigned()
            || rhs
                .ty
                .as_ref()
                .map(|t| t.decayed().is_unsigned())
                .unwrap_or(false);
        let ir = Self::int_binir(op, unsigned);
        let dst = self.temp();
        self.emit(Instr::Bin { dst, op: ir, a, b });
        Ok(dst.into())
    }

    fn int_binir(op: BinOp, unsigned: bool) -> BinIr {
        match op {
            BinOp::Add => BinIr::Add,
            BinOp::Sub => BinIr::Sub,
            BinOp::Mul => BinIr::Mul,
            BinOp::Div => {
                if unsigned {
                    BinIr::DivU
                } else {
                    BinIr::Div
                }
            }
            BinOp::Rem => {
                if unsigned {
                    BinIr::RemU
                } else {
                    BinIr::Rem
                }
            }
            BinOp::Shl => BinIr::Shl,
            BinOp::Shr => {
                if unsigned {
                    BinIr::Shr
                } else {
                    BinIr::Sar
                }
            }
            BinOp::BitAnd => BinIr::And,
            BinOp::BitOr => BinIr::Or,
            BinOp::BitXor => BinIr::Xor,
            BinOp::Eq => BinIr::CmpEq,
            BinOp::Ne => BinIr::CmpNe,
            BinOp::Lt => {
                if unsigned {
                    BinIr::CmpLtU
                } else {
                    BinIr::CmpLt
                }
            }
            BinOp::Le => {
                if unsigned {
                    BinIr::CmpLeU
                } else {
                    BinIr::CmpLe
                }
            }
            BinOp::Gt => {
                if unsigned {
                    BinIr::CmpGtU
                } else {
                    BinIr::CmpGt
                }
            }
            BinOp::Ge => {
                if unsigned {
                    BinIr::CmpGeU
                } else {
                    BinIr::CmpGe
                }
            }
            BinOp::LogAnd | BinOp::LogOr => unreachable!("short-circuit ops lowered separately"),
        }
    }

    fn binary(
        &mut self,
        whole: &Expr,
        op: BinOp,
        l: &Expr,
        r: &Expr,
        _ty: &Type,
    ) -> LResult<Operand> {
        match op {
            BinOp::LogAnd | BinOp::LogOr => {
                let rhs_b = self.new_block();
                let join_b = self.new_block();
                let result = self.temp();
                let lv = self.expr(l)?;
                let lbool = self.temp();
                self.emit(Instr::Bin {
                    dst: lbool,
                    op: BinIr::CmpNe,
                    a: lv,
                    b: Operand::Const(0),
                });
                self.emit(Instr::Mov {
                    dst: result,
                    src: lbool.into(),
                });
                if op == BinOp::LogAnd {
                    self.emit(Instr::Branch {
                        cond: lbool.into(),
                        if_true: rhs_b,
                        if_false: join_b,
                    });
                } else {
                    self.emit(Instr::Branch {
                        cond: lbool.into(),
                        if_true: join_b,
                        if_false: rhs_b,
                    });
                }
                self.switch_to(rhs_b);
                let rv = self.expr(r)?;
                let rbool = self.temp();
                self.emit(Instr::Bin {
                    dst: rbool,
                    op: BinIr::CmpNe,
                    a: rv,
                    b: Operand::Const(0),
                });
                self.emit(Instr::Mov {
                    dst: result,
                    src: rbool.into(),
                });
                self.emit(Instr::Jump { target: join_b });
                self.switch_to(join_b);
                return Ok(result.into());
            }
            _ => {}
        }
        let lt = l.ty.as_ref().map(Type::decayed);
        let rt = r.ty.as_ref().map(Type::decayed);
        let l_ptr = matches!(lt, Some(Type::Ptr(_)));
        let r_ptr = matches!(rt, Some(Type::Ptr(_)));
        match (op, l_ptr, r_ptr) {
            (BinOp::Add, true, false) | (BinOp::Sub, true, false) => {
                let elem = lt
                    .as_ref()
                    .and_then(|t| t.pointee().cloned())
                    .map(|t| t.size(self.prog.types).unwrap_or(1))
                    .unwrap_or(1) as i64;
                let a = self.expr(l)?;
                let i = self.expr(r)?;
                let scaled = self.scale(i, elem);
                let ir = if op == BinOp::Add {
                    BinIr::Add
                } else {
                    BinIr::Sub
                };
                let dst = self.temp();
                self.emit(Instr::Bin {
                    dst,
                    op: ir,
                    a,
                    b: scaled,
                });
                Ok(dst.into())
            }
            (BinOp::Add, false, true) => {
                let elem = rt
                    .as_ref()
                    .and_then(|t| t.pointee().cloned())
                    .map(|t| t.size(self.prog.types).unwrap_or(1))
                    .unwrap_or(1) as i64;
                let i = self.expr(l)?;
                let a = self.expr(r)?;
                let scaled = self.scale(i, elem);
                let dst = self.temp();
                self.emit(Instr::Bin {
                    dst,
                    op: BinIr::Add,
                    a,
                    b: scaled,
                });
                Ok(dst.into())
            }
            (BinOp::Sub, true, true) => {
                let elem = lt
                    .as_ref()
                    .and_then(|t| t.pointee().cloned())
                    .map(|t| t.size(self.prog.types).unwrap_or(1))
                    .unwrap_or(1) as i64;
                let a = self.expr(l)?;
                let b = self.expr(r)?;
                let diff = self.temp();
                self.emit(Instr::Bin {
                    dst: diff,
                    op: BinIr::Sub,
                    a,
                    b,
                });
                if elem == 1 {
                    Ok(diff.into())
                } else {
                    let dst = self.temp();
                    self.emit(Instr::Bin {
                        dst,
                        op: BinIr::Div,
                        a: diff.into(),
                        b: Operand::Const(elem),
                    });
                    Ok(dst.into())
                }
            }
            _ => {
                let unsigned = l_ptr
                    || r_ptr
                    || lt.map(|t| t.is_unsigned()).unwrap_or(false)
                    || rt.map(|t| t.is_unsigned()).unwrap_or(false);
                let a = self.expr(l)?;
                let b = self.expr(r)?;
                let ir = Self::int_binir(op, unsigned);
                let _ = whole;
                let dst = self.temp();
                self.emit(Instr::Bin { dst, op: ir, a, b });
                Ok(dst.into())
            }
        }
    }

    /// Narrowing conversions truncate (with sign/zero extension) so that
    /// register-homed and memory-homed values behave identically.
    fn truncate_to(&mut self, v: Operand, to: &Type) -> Operand {
        let (bits, signed) = match to {
            Type::Char => (8u32, true),
            Type::Int => (32, true),
            Type::UInt => (32, false),
            _ => return v,
        };
        let sh = 64 - bits;
        let t1 = self.temp();
        self.emit(Instr::Bin {
            dst: t1,
            op: BinIr::Shl,
            a: v,
            b: Operand::Const(sh as i64),
        });
        let t2 = self.temp();
        let op = if signed { BinIr::Sar } else { BinIr::Shr };
        self.emit(Instr::Bin {
            dst: t2,
            op,
            a: t1.into(),
            b: Operand::Const(sh as i64),
        });
        t2.into()
    }

    fn lower_call(
        &mut self,
        whole: &Expr,
        callee: &Expr,
        args: &[Expr],
        ret_ty: &Type,
    ) -> LResult<Operand> {
        let target = match &callee.kind {
            ExprKind::Ident(name) => match self.prog.sema.res.get(&callee.id).cloned() {
                Some(Resolution::Func(fname)) => {
                    let idx = self.prog.func_indices.get(&fname).ok_or_else(|| {
                        self.err(callee.span, format!("function '{fname}' has no definition"))
                    })?;
                    CallTarget::Func(*idx)
                }
                Some(Resolution::Builtin(b)) => CallTarget::Builtin(b),
                Some(Resolution::Local(_) | Resolution::Global(_)) => {
                    let f = self.expr(callee)?;
                    CallTarget::Indirect(f)
                }
                _ => return Err(self.err(callee.span, format!("cannot call '{name}'"))),
            },
            _ => {
                let f = self.expr(callee)?;
                CallTarget::Indirect(f)
            }
        };
        let mut arg_ops = Vec::with_capacity(args.len());
        for a in args {
            arg_ops.push(self.expr(a)?);
        }
        let dst = if *ret_ty == Type::Void {
            None
        } else {
            Some(self.temp())
        };
        // Allocation builtins get an allocation-site record keyed by the
        // span of the whole call expression; line/col are resolved once
        // the source text is in hand (`ProgramIr::resolve_alloc_sites`).
        let primitive = match &target {
            CallTarget::Builtin(cfront::sema::Builtin::Malloc) => Some("malloc"),
            CallTarget::Builtin(cfront::sema::Builtin::Calloc) => Some("calloc"),
            CallTarget::Builtin(cfront::sema::Builtin::Realloc) => Some("realloc"),
            _ => None,
        };
        let site = primitive.map(|primitive| {
            let idx = self.prog.alloc_sites.len() as u32;
            self.prog.alloc_sites.push(AllocSite {
                func: self.func.name.clone(),
                primitive,
                span_start: whole.span.start,
                line: 0,
                col: 0,
            });
            idx
        });
        self.emit(Instr::Call {
            dst,
            target,
            args: arg_ops,
            site,
        });
        Ok(dst.map(Operand::Temp).unwrap_or(Operand::Const(0)))
    }
}

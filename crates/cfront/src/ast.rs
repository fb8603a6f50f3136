//! Abstract syntax for the C subset, with byte spans and (post-sema) types.
//!
//! The tree deliberately includes two *annotation* expression forms that no
//! C parser ever produces — [`ExprKind::KeepLive`] and
//! [`ExprKind::CheckSame`] — because the paper's contribution is precisely
//! a pass that inserts them. Keeping them first-class makes the annotator,
//! the pretty-printer (which renders them back as C), and the lowering all
//! straightforward.

use crate::span::Span;
use crate::types::Type;

/// Unique id for AST nodes, used for side tables (resolutions, bases).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Monotonic [`NodeId`] allocator shared by the parser and the annotator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeIdGen {
    next: u32,
}

impl NodeIdGen {
    /// Creates a generator starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh id.
    pub fn fresh(&mut self) -> NodeId {
        let id = NodeId(self.next);
        self.next += 1;
        id
    }
}

/// Arithmetic and logical binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    BitAnd,
    BitOr,
    BitXor,
    LogAnd,
    LogOr,
}

impl BinOp {
    /// Source spelling.
    pub fn as_str(self) -> &'static str {
        use BinOp::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Rem => "%",
            Shl => "<<",
            Shr => ">>",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            Eq => "==",
            Ne => "!=",
            BitAnd => "&",
            BitOr => "|",
            BitXor => "^",
            LogAnd => "&&",
            LogOr => "||",
        }
    }

    /// Whether the operator yields a boolean (0/1) `int`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }
}

/// Unary operators (dereference and address-of are separate nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum UnOp {
    /// Arithmetic negation `-`.
    Neg,
    /// Logical not `!`.
    Not,
    /// Bitwise complement `~`.
    BitNot,
    /// Unary plus `+` (no-op, kept for fidelity).
    Plus,
}

impl UnOp {
    /// Source spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
            UnOp::BitNot => "~",
            UnOp::Plus => "+",
        }
    }
}

/// An expression node.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Unique node id.
    pub id: NodeId,
    /// Source extent (annotation-inserted nodes inherit their child's span).
    pub span: Span,
    /// Type, filled by semantic analysis (`None` before).
    pub ty: Option<Type>,
    /// Payload.
    pub kind: ExprKind,
}

impl Expr {
    /// Creates an untyped expression node.
    pub fn new(id: NodeId, span: Span, kind: ExprKind) -> Self {
        Expr {
            id,
            span,
            ty: None,
            kind,
        }
    }

    /// The semantic type; panics if sema has not run.
    ///
    /// # Panics
    ///
    /// Panics when called before semantic analysis.
    pub fn ty(&self) -> &Type {
        self.ty
            .as_ref()
            .expect("expression type queried before sema")
    }
}

/// Expression payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer (or char) literal.
    IntLit(i64),
    /// String literal; lowered to a static byte array.
    StrLit(String),
    /// Identifier reference (variable, function, or enum constant).
    Ident(String),
    /// Unary arithmetic/logic.
    Unary(UnOp, Box<Expr>),
    /// Pointer dereference `*e`.
    Deref(Box<Expr>),
    /// Address-of `&e`.
    AddrOf(Box<Expr>),
    /// Binary arithmetic/logic/comparison.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Assignment; `op` is `Some` for compound forms like `+=`.
    Assign {
        /// Compound operator, if any.
        op: Option<BinOp>,
        /// Assignment target (an lvalue).
        lhs: Box<Expr>,
        /// Value expression.
        rhs: Box<Expr>,
    },
    /// Pre-increment/-decrement; `inc` selects `++` vs `--`.
    IncDec {
        /// `true` for `++`.
        inc: bool,
        /// `true` for the prefix form.
        pre: bool,
        /// The lvalue operand.
        target: Box<Expr>,
    },
    /// Conditional `c ? t : f`.
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Comma expression.
    Comma(Box<Expr>, Box<Expr>),
    /// Function call. The callee is an arbitrary expression (direct name or
    /// function pointer).
    Call(Box<Expr>, Vec<Expr>),
    /// Array subscription `a[i]`.
    Index(Box<Expr>, Box<Expr>),
    /// Member access `e.f` (`arrow == false`) or `e->f`.
    Member {
        /// Aggregate (or pointer-to-aggregate) expression.
        obj: Box<Expr>,
        /// Field name.
        field: String,
        /// Whether the `->` form was used.
        arrow: bool,
    },
    /// Cast `(ty) e`.
    Cast(Type, Box<Expr>),
    /// `sizeof(type)` — value computed at sema time.
    SizeofType(Type),
    /// `sizeof expr`.
    SizeofExpr(Box<Expr>),
    /// `KEEP_LIVE(value, base)` — inserted by the GC-safety annotator.
    /// Evaluates to `value` while forcing `base` to remain visible to the
    /// collector until the result itself is visible, and making the result
    /// opaque to the optimizer.
    KeepLive {
        /// The pointer-valued expression being protected.
        value: Box<Expr>,
        /// The base pointer to keep live (`None` renders as NIL/0, meaning
        /// only the opacity effect is wanted).
        base: Option<Box<Expr>>,
    },
    /// `GC_same_obj(value, base)` — inserted by the checking-mode
    /// annotator. At run time verifies both point into the same heap object
    /// and returns `value`; also has the full `KEEP_LIVE` effect.
    CheckSame {
        /// Derived pointer.
        value: Box<Expr>,
        /// Base pointer it must share an object with.
        base: Box<Expr>,
    },
}

/// A local variable declaration (one declarator).
#[derive(Debug, Clone, PartialEq)]
pub struct LocalDecl {
    /// Node id (resolution key).
    pub id: NodeId,
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Optional scalar initializer.
    pub init: Option<Expr>,
    /// Source extent of the declarator.
    pub span: Span,
}

/// Initializer for a global object.
#[derive(Debug, Clone, PartialEq)]
pub enum Init {
    /// Single expression (must be constant or a string literal).
    Scalar(Expr),
    /// Brace-enclosed list.
    List(Vec<Init>),
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Expression statement.
    Expr(Expr),
    /// Local declaration(s).
    Decl(Vec<LocalDecl>),
    /// Compound block.
    Block(Block),
    /// `if` with optional `else`.
    If(Expr, Box<Stmt>, Option<Box<Stmt>>),
    /// `while` loop.
    While(Expr, Box<Stmt>),
    /// `do … while` loop.
    DoWhile(Box<Stmt>, Expr),
    /// `for` loop.
    For {
        /// Init clause (expression or declarations).
        init: Option<Box<Stmt>>,
        /// Condition.
        cond: Option<Expr>,
        /// Step expression.
        step: Option<Expr>,
        /// Body.
        body: Box<Stmt>,
    },
    /// `switch` statement; `case`/`default` markers appear in the body.
    Switch(Expr, Box<Stmt>),
    /// `case N:` marker (must appear directly inside a switch body block).
    Case(i64),
    /// `default:` marker.
    Default,
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `return` with optional value.
    Return(Option<Expr>),
    /// Empty statement `;`.
    Empty,
}

/// A `{ … }` block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Source extent including braces.
    pub span: Span,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Node id (resolution key).
    pub id: NodeId,
    /// Parameter name (empty for unnamed prototype params).
    pub name: String,
    /// Adjusted type (arrays decayed to pointers).
    pub ty: Type,
    /// Span of the declarator.
    pub span: Span,
}

/// A function definition or prototype.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// Parameters.
    pub params: Vec<Param>,
    /// Whether variadic.
    pub varargs: bool,
    /// Body; `None` for a prototype.
    pub body: Option<Block>,
    /// Span of the whole definition.
    pub span: Span,
}

/// A global variable.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDecl {
    /// Node id.
    pub id: NodeId,
    /// Name.
    pub name: String,
    /// Type.
    pub ty: Type,
    /// Optional initializer.
    pub init: Option<Init>,
    /// Span of the declarator.
    pub span: Span,
}

/// A whole translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Record (struct/union) definitions.
    pub types: crate::types::TypeTable,
    /// Global variables, in declaration order.
    pub globals: Vec<GlobalDecl>,
    /// Functions (definitions and prototypes), in declaration order.
    pub funcs: Vec<FuncDef>,
    /// Enum constants gathered at parse time.
    pub enum_consts: Vec<(String, i64)>,
    /// Node-id allocator (annotators continue from here).
    pub node_ids: NodeIdGen,
}

impl Program {
    /// Finds a function definition by name.
    pub fn func(&self, name: &str) -> Option<&FuncDef> {
        // Prefer a definition over a prototype.
        self.funcs
            .iter()
            .find(|f| f.name == name && f.body.is_some())
            .or_else(|| self.funcs.iter().find(|f| f.name == name))
    }

    /// Iterates over function *definitions* (those with bodies).
    pub fn definitions(&self) -> impl Iterator<Item = &FuncDef> {
        self.funcs.iter().filter(|f| f.body.is_some())
    }
}

/// Walks every expression in a statement tree, depth-first, visiting
/// children before parents.
pub fn visit_exprs<'a>(stmt: &'a Stmt, f: &mut dyn FnMut(&'a Expr)) {
    match stmt {
        Stmt::Expr(e) => visit_expr(e, f),
        Stmt::Decl(decls) => {
            for d in decls {
                if let Some(init) = &d.init {
                    visit_expr(init, f);
                }
            }
        }
        Stmt::Block(b) => {
            for s in &b.stmts {
                visit_exprs(s, f);
            }
        }
        Stmt::If(c, t, e) => {
            visit_expr(c, f);
            visit_exprs(t, f);
            if let Some(e) = e {
                visit_exprs(e, f);
            }
        }
        Stmt::While(c, b) => {
            visit_expr(c, f);
            visit_exprs(b, f);
        }
        Stmt::DoWhile(b, c) => {
            visit_exprs(b, f);
            visit_expr(c, f);
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(i) = init {
                visit_exprs(i, f);
            }
            if let Some(c) = cond {
                visit_expr(c, f);
            }
            if let Some(s) = step {
                visit_expr(s, f);
            }
            visit_exprs(body, f);
        }
        Stmt::Switch(c, b) => {
            visit_expr(c, f);
            visit_exprs(b, f);
        }
        Stmt::Return(Some(e)) => visit_expr(e, f),
        Stmt::Case(_)
        | Stmt::Default
        | Stmt::Break
        | Stmt::Continue
        | Stmt::Return(None)
        | Stmt::Empty => {}
    }
}

/// Depth-first expression walk (children first).
pub fn visit_expr<'a>(expr: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
    expr.kind.for_each_child(&mut |child| visit_expr(child, f));
    f(expr);
}

impl ExprKind {
    /// Calls `f` on each direct subexpression, left to right.
    pub fn for_each_child<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        match self {
            ExprKind::IntLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::Ident(_)
            | ExprKind::SizeofType(_) => {}
            ExprKind::Unary(_, e)
            | ExprKind::Deref(e)
            | ExprKind::AddrOf(e)
            | ExprKind::Cast(_, e)
            | ExprKind::SizeofExpr(e)
            | ExprKind::IncDec { target: e, .. }
            | ExprKind::Member { obj: e, .. }
            | ExprKind::KeepLive {
                value: e,
                base: None,
            } => f(e),
            ExprKind::Binary(_, l, r)
            | ExprKind::Comma(l, r)
            | ExprKind::Assign { lhs: l, rhs: r, .. }
            | ExprKind::Index(l, r)
            | ExprKind::KeepLive {
                value: l,
                base: Some(r),
            }
            | ExprKind::CheckSame { value: l, base: r } => {
                f(l);
                f(r);
            }
            ExprKind::Cond(c, t, e) => {
                f(c);
                f(t);
                f(e);
            }
            ExprKind::Call(callee, args) => {
                f(callee);
                for a in args {
                    f(a);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(gen: &mut NodeIdGen, v: i64) -> Expr {
        Expr::new(gen.fresh(), Span::point(0), ExprKind::IntLit(v))
    }

    #[test]
    fn node_id_gen_is_monotonic() {
        let mut g = NodeIdGen::new();
        let a = g.fresh();
        let b = g.fresh();
        assert!(a < b);
    }

    #[test]
    fn visit_expr_is_postorder() {
        let mut g = NodeIdGen::new();
        let e = Expr::new(
            g.fresh(),
            Span::point(0),
            ExprKind::Binary(
                BinOp::Add,
                Box::new(lit(&mut g, 1)),
                Box::new(lit(&mut g, 2)),
            ),
        );
        let mut seen = Vec::new();
        visit_expr(&e, &mut |x| seen.push(x.id));
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[2], e.id, "parent visited last");
    }

    #[test]
    fn visit_exprs_covers_for_loop() {
        let mut g = NodeIdGen::new();
        let s = Stmt::For {
            init: Some(Box::new(Stmt::Expr(lit(&mut g, 0)))),
            cond: Some(lit(&mut g, 1)),
            step: Some(lit(&mut g, 2)),
            body: Box::new(Stmt::Expr(lit(&mut g, 3))),
        };
        let mut n = 0;
        visit_exprs(&s, &mut |_| n += 1);
        assert_eq!(n, 4);
    }

    #[test]
    fn binop_spellings() {
        assert_eq!(BinOp::Shl.as_str(), "<<");
        assert!(BinOp::Le.is_comparison());
        assert!(!BinOp::Add.is_comparison());
    }
}

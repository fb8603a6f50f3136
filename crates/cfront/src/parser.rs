//! Recursive-descent parser for the ANSI C subset.
//!
//! Mirrors the paper's setup ("the yacc/bison grammar and scanner were
//! derived from their gcc equivalents") in spirit: a conventional C grammar
//! restricted to the constructs the annotator's rules talk about. Typedef
//! names and struct tags are resolved during the parse, as C requires.

use crate::ast::*;
use crate::error::{FrontError, FrontResult, Phase};
use crate::lexer::{lex, Kw, Punct, Tok, Token};
use crate::span::Span;
use crate::types::{FuncType, RecordDef, RecordId, Type, TypeTable};
use std::collections::HashMap;

/// Parses a full translation unit.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
pub fn parse(source: &str) -> FrontResult<Program> {
    let tokens = lex(source)?;
    Parser::new(tokens).translation_unit()
}

/// Parses a single expression (used by tests and tools).
///
/// # Errors
///
/// Returns an error if the input is not exactly one expression.
pub fn parse_expr(source: &str) -> FrontResult<Expr> {
    let tokens = lex(source)?;
    let mut p = Parser::new(tokens);
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// The deepest syntax the parser accepts: nested statements, parentheses,
/// operator operands and declarators each count one level, and so does
/// every node of the left-nested trees that binary-operator, postfix and
/// comma chains build in a loop. Every later stage (sema, annotation,
/// lowering, hashing, printing, even dropping the tree) recurses once per
/// level, so this bound keeps the whole pipeline within a default 2 MiB
/// thread stack in builds at opt-level 1 or above (unoptimized frames are
/// 5-10x larger); deeper input gets a parse error instead of a stack
/// overflow.
pub const MAX_NESTING: usize = 256;

/// How many type constructors deep `ty` nests, counted without recursion.
fn type_depth(ty: &Type) -> usize {
    let mut deepest = 0;
    let mut stack = vec![(ty, 1)];
    while let Some((t, d)) = stack.pop() {
        deepest = deepest.max(d);
        match t {
            Type::Ptr(inner) | Type::Array(inner, _) => stack.push((inner, d + 1)),
            Type::Func(f) => {
                stack.extend(std::iter::once(&f.ret).chain(&f.params).map(|p| (p, d + 1)))
            }
            _ => {}
        }
    }
    deepest
}

/// (parameter types, parameter names with spans, varargs flag).
type ParamList = (Vec<Type>, Vec<(String, Span)>, bool);

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    types: TypeTable,
    typedefs: HashMap<String, Type>,
    tags: HashMap<String, RecordId>,
    enum_consts: Vec<(String, i64)>,
    enum_lookup: HashMap<String, i64>,
    ids: NodeIdGen,
    /// Nesting levels currently open (see [`MAX_NESTING`]).
    depth: usize,
    /// Height of every expression built so far, indexed by `NodeId`.
    heights: Vec<usize>,
}

impl Parser {
    fn new(toks: Vec<Token>) -> Self {
        Parser {
            toks,
            pos: 0,
            types: TypeTable::new(),
            typedefs: HashMap::new(),
            tags: HashMap::new(),
            enum_consts: Vec::new(),
            enum_lookup: HashMap::new(),
            ids: NodeIdGen::new(),
            depth: 0,
            heights: Vec::new(),
        }
    }

    // ----- token helpers -------------------------------------------------

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        let i = (self.pos + 1).min(self.toks.len() - 1);
        &self.toks[i].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.toks[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if *self.peek() == Tok::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, k: Kw) -> bool {
        if *self.peek() == Tok::Kw(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> FrontResult<Span> {
        if *self.peek() == Tok::Punct(p) {
            Ok(self.bump().span)
        } else {
            Err(self.error(format!(
                "expected '{}', found '{}'",
                p.as_str(),
                self.peek()
            )))
        }
    }

    fn expect_ident(&mut self) -> FrontResult<(String, Span)> {
        match self.peek().clone() {
            Tok::Ident(name) => {
                let span = self.bump().span;
                Ok((name, span))
            }
            other => Err(self.error(format!("expected identifier, found '{other}'"))),
        }
    }

    fn expect_eof(&mut self) -> FrontResult<()> {
        if *self.peek() == Tok::Eof {
            Ok(())
        } else {
            Err(self.error(format!("expected end of input, found '{}'", self.peek())))
        }
    }

    fn error(&self, msg: impl Into<String>) -> FrontError {
        FrontError::new(Phase::Parse, msg, self.span())
    }

    fn too_deep(span: Span) -> FrontError {
        FrontError::new(
            Phase::Parse,
            format!("nesting exceeds {MAX_NESTING} levels"),
            span,
        )
    }

    /// Runs `parse` one nesting level deeper.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> FrontResult<T>) -> FrontResult<T> {
        if self.depth >= MAX_NESTING {
            return Err(Self::too_deep(self.span()));
        }
        self.depth += 1;
        let r = parse(self);
        self.depth -= 1;
        r
    }

    /// Builds an expression node, rejecting it if its height on top of the
    /// open nesting levels exceeds [`MAX_NESTING`].
    fn mk(&mut self, span: Span, kind: ExprKind) -> FrontResult<Expr> {
        let mut below = 0;
        // Every child was built by `mk`, so its height is recorded.
        kind.for_each_child(&mut |c| below = below.max(self.heights[c.id.0 as usize]));
        let height = below + 1;
        if self.depth + height > MAX_NESTING {
            return Err(Self::too_deep(span));
        }
        let id = self.ids.fresh();
        let slot = id.0 as usize;
        if self.heights.len() <= slot {
            self.heights.resize(slot + 1, 0);
        }
        self.heights[slot] = height;
        Ok(Expr::new(id, span, kind))
    }

    // ----- types ----------------------------------------------------------

    /// Whether the current token can begin a declaration.
    fn at_type_start(&self) -> bool {
        match self.peek() {
            Tok::Kw(
                Kw::Void
                | Kw::Char
                | Kw::Int
                | Kw::Long
                | Kw::Unsigned
                | Kw::Signed
                | Kw::Short
                | Kw::Struct
                | Kw::Union
                | Kw::Enum
                | Kw::Typedef
                | Kw::Static
                | Kw::Extern
                | Kw::Const
                | Kw::Register
                | Kw::Volatile
                | Kw::Auto,
            ) => true,
            Tok::Ident(name) => self.typedefs.contains_key(name),
            _ => false,
        }
    }

    /// Parses declaration specifiers; returns the base type plus whether
    /// `typedef` appeared.
    fn decl_specs(&mut self) -> FrontResult<(Type, bool)> {
        let mut is_typedef = false;
        let mut base: Option<Type> = None;
        let mut unsigned = false;
        let mut signed = false;
        let mut long_count = 0u8;
        let mut saw_int_kw = false;
        loop {
            match self.peek().clone() {
                Tok::Kw(Kw::Typedef) => {
                    self.bump();
                    is_typedef = true;
                }
                Tok::Kw(
                    Kw::Static | Kw::Extern | Kw::Const | Kw::Register | Kw::Volatile | Kw::Auto,
                ) => {
                    self.bump();
                }
                Tok::Kw(Kw::Void) => {
                    self.bump();
                    base = Some(Type::Void);
                }
                Tok::Kw(Kw::Char) => {
                    self.bump();
                    base = Some(Type::Char);
                }
                Tok::Kw(Kw::Int) => {
                    self.bump();
                    saw_int_kw = true;
                }
                Tok::Kw(Kw::Short) => {
                    self.bump();
                    // `short` is mapped to `int` in this subset.
                    saw_int_kw = true;
                }
                Tok::Kw(Kw::Long) => {
                    self.bump();
                    long_count += 1;
                }
                Tok::Kw(Kw::Unsigned) => {
                    self.bump();
                    unsigned = true;
                }
                Tok::Kw(Kw::Signed) => {
                    self.bump();
                    signed = true;
                }
                Tok::Kw(Kw::Struct) | Tok::Kw(Kw::Union) => {
                    let is_union = matches!(self.peek(), Tok::Kw(Kw::Union));
                    self.bump();
                    base = Some(self.struct_or_union(is_union)?);
                }
                Tok::Kw(Kw::Enum) => {
                    self.bump();
                    self.enum_spec()?;
                    base = Some(Type::Int);
                }
                Tok::Ident(name)
                    if base.is_none()
                        && !unsigned
                        && !signed
                        && long_count == 0
                        && !saw_int_kw
                        && self.typedefs.contains_key(&name) =>
                {
                    self.bump();
                    base = Some(self.typedefs[&name].clone());
                }
                _ => break,
            }
        }
        let ty = match base {
            Some(t) => {
                if unsigned || long_count > 0 {
                    return Err(self.error("conflicting type specifiers"));
                }
                t
            }
            None => {
                if long_count > 0 {
                    if unsigned {
                        Type::ULong
                    } else {
                        Type::Long
                    }
                } else if unsigned {
                    Type::UInt
                } else if saw_int_kw || signed {
                    Type::Int
                } else {
                    return Err(self.error("expected type specifier"));
                }
            }
        };
        Ok((ty, is_typedef))
    }

    fn struct_or_union(&mut self, is_union: bool) -> FrontResult<Type> {
        let tag = match self.peek().clone() {
            Tok::Ident(name) => {
                self.bump();
                Some(name)
            }
            _ => None,
        };
        let id = match &tag {
            Some(name) => {
                if let Some(&id) = self.tags.get(name) {
                    id
                } else {
                    let id = self.types.add_record(RecordDef {
                        tag: tag.clone(),
                        is_union,
                        fields: vec![],
                        size: 0,
                        align: 1,
                        complete: false,
                    });
                    self.tags.insert(name.clone(), id);
                    id
                }
            }
            None => self.types.add_record(RecordDef {
                tag: None,
                is_union,
                fields: vec![],
                size: 0,
                align: 1,
                complete: false,
            }),
        };
        if self.eat_punct(Punct::LBrace) {
            if self.types.record(id).complete {
                return Err(self.error(format!(
                    "redefinition of {} '{}'",
                    if is_union { "union" } else { "struct" },
                    tag.as_deref().unwrap_or("<anon>")
                )));
            }
            let mut fields = Vec::new();
            while !self.eat_punct(Punct::RBrace) {
                let (base, td) = self.nested(Self::decl_specs)?;
                if td {
                    return Err(self.error("typedef not allowed inside struct body"));
                }
                loop {
                    let (name, ty, _span) = self.declarator(base.clone())?;
                    if name.is_empty() {
                        return Err(self.error("struct field must be named"));
                    }
                    fields.push((name, ty));
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                self.expect_punct(Punct::Semi)?;
            }
            self.types.complete_record(id, fields);
        }
        Ok(Type::Record(id))
    }

    fn enum_spec(&mut self) -> FrontResult<()> {
        // Optional tag (not recorded separately; enums are just ints).
        if let Tok::Ident(_) = self.peek() {
            self.bump();
        }
        if self.eat_punct(Punct::LBrace) {
            let mut next: i64 = 0;
            loop {
                if self.eat_punct(Punct::RBrace) {
                    break;
                }
                let (name, _) = self.expect_ident()?;
                if self.eat_punct(Punct::Assign) {
                    let e = self.conditional()?;
                    next = self.eval_const(&e)?;
                }
                self.enum_consts.push((name.clone(), next));
                self.enum_lookup.insert(name, next);
                next += 1;
                if !self.eat_punct(Punct::Comma) {
                    self.expect_punct(Punct::RBrace)?;
                    break;
                }
            }
        }
        Ok(())
    }

    /// Parses a declarator against `base`, returning (name, type, span).
    /// An abstract declarator yields an empty name.
    fn declarator(&mut self, base: Type) -> FrontResult<(String, Type, Span)> {
        let start = self.span();
        let mut ty = base;
        let mut stars = 0;
        while self.eat_punct(Punct::Star) {
            // const/volatile after '*'
            while self.eat_kw(Kw::Const) || self.eat_kw(Kw::Volatile) {}
            stars += 1;
            if self.depth + stars > MAX_NESTING {
                return Err(Self::too_deep(self.prev_span()));
            }
            ty = ty.ptr_to();
        }
        // Direct declarator: either a name, a parenthesised declarator, or
        // nothing (abstract).
        enum Direct {
            Name(String),
            Paren(usize, usize), // token range of the inner declarator
            Abstract,
        }
        let direct = match self.peek().clone() {
            Tok::Ident(name) => {
                self.bump();
                Direct::Name(name)
            }
            Tok::Punct(Punct::LParen) if self.paren_is_declarator() => {
                self.bump();
                let inner_start = self.pos;
                self.skip_declarator_tokens()?;
                let inner_end = self.pos;
                self.expect_punct(Punct::RParen)?;
                Direct::Paren(inner_start, inner_end)
            }
            _ => Direct::Abstract,
        };
        // Suffixes bind tighter than the pointer prefix.
        ty = self.declarator_suffixes(ty)?;
        let (name, ty) = match direct {
            Direct::Name(n) => (n, ty),
            Direct::Abstract => (String::new(), ty),
            Direct::Paren(s, e) => {
                // Re-parse the inner declarator with the suffix-applied type
                // as its base (classic C inside-out rule).
                let save = self.pos;
                self.pos = s;
                let saved_end = e;
                let (name, inner_ty, _) = self.nested(|p| p.declarator(ty))?;
                if self.pos != saved_end {
                    return Err(self.error("malformed parenthesised declarator"));
                }
                self.pos = save;
                (name, inner_ty)
            }
        };
        // Typedefs compound, so bound the whole type, not just this
        // declarator's own stars and suffixes.
        if self.depth + type_depth(&ty) > MAX_NESTING {
            return Err(Self::too_deep(start));
        }
        Ok((name, ty, start.merge(self.prev_span())))
    }

    /// Distinguishes `(*f)(…)` declarators from parameter lists.
    fn paren_is_declarator(&self) -> bool {
        matches!(self.peek2(), Tok::Punct(Punct::Star))
    }

    /// Skips the tokens of a parenthesised inner declarator, balancing
    /// parens/brackets, stopping at the matching `)`.
    fn skip_declarator_tokens(&mut self) -> FrontResult<()> {
        let mut depth = 0usize;
        loop {
            match self.peek() {
                Tok::Punct(Punct::LParen | Punct::LBracket) => {
                    depth += 1;
                    self.bump();
                }
                Tok::Punct(Punct::RParen | Punct::RBracket) if depth > 0 => {
                    depth -= 1;
                    self.bump();
                }
                Tok::Punct(Punct::RParen) => return Ok(()),
                Tok::Eof => return Err(self.error("unterminated declarator")),
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn declarator_suffixes(&mut self, mut ty: Type) -> FrontResult<Type> {
        // Collect suffixes then apply them inside-out (rightmost binds last).
        enum Suffix {
            Array(Option<u64>),
            Func(Vec<Type>, Vec<(String, Span)>, bool),
        }
        let mut suffixes = Vec::new();
        loop {
            if self.depth + suffixes.len() > MAX_NESTING {
                return Err(Self::too_deep(self.prev_span()));
            }
            if self.eat_punct(Punct::LBracket) {
                if self.eat_punct(Punct::RBracket) {
                    suffixes.push(Suffix::Array(None));
                } else {
                    let e = self.conditional()?;
                    let n = self.eval_const(&e)?;
                    if n < 0 {
                        return Err(self.error("negative array size"));
                    }
                    self.expect_punct(Punct::RBracket)?;
                    suffixes.push(Suffix::Array(Some(n as u64)));
                }
            } else if *self.peek() == Tok::Punct(Punct::LParen) {
                self.bump();
                let (ptypes, pnames, varargs) = self.nested(Self::param_list)?;
                suffixes.push(Suffix::Func(ptypes, pnames, varargs));
            } else {
                break;
            }
        }
        for suffix in suffixes.into_iter().rev() {
            ty = match suffix {
                Suffix::Array(n) => Type::Array(Box::new(ty), n),
                Suffix::Func(params, _names, varargs) => Type::Func(Box::new(FuncType {
                    ret: ty,
                    params,
                    varargs,
                })),
            };
        }
        Ok(ty)
    }

    /// Parses a parameter list after `(`; consumes the closing `)`.
    fn param_list(&mut self) -> FrontResult<ParamList> {
        let mut types = Vec::new();
        let mut names = Vec::new();
        let mut varargs = false;
        if self.eat_punct(Punct::RParen) {
            return Ok((types, names, varargs));
        }
        // `(void)`
        if *self.peek() == Tok::Kw(Kw::Void) && *self.peek2() == Tok::Punct(Punct::RParen) {
            self.bump();
            self.bump();
            return Ok((types, names, varargs));
        }
        loop {
            if self.eat_punct(Punct::Ellipsis) {
                varargs = true;
                break;
            }
            let (base, td) = self.decl_specs()?;
            if td {
                return Err(self.error("typedef not allowed in parameter list"));
            }
            let (name, ty, span) = self.declarator(base)?;
            types.push(ty.decayed());
            names.push((name, span));
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::RParen)?;
        Ok((types, names, varargs))
    }

    // ----- constant evaluation ---------------------------------------------

    fn eval_const(&self, e: &Expr) -> FrontResult<i64> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok(*v),
            ExprKind::Ident(name) => {
                self.enum_lookup.get(name).copied().ok_or_else(|| {
                    FrontError::new(Phase::Parse, "not a constant expression", e.span)
                })
            }
            ExprKind::Unary(UnOp::Neg, inner) => Ok(self.eval_const(inner)?.wrapping_neg()),
            ExprKind::Unary(UnOp::BitNot, inner) => Ok(!self.eval_const(inner)?),
            ExprKind::Unary(UnOp::Plus, inner) => self.eval_const(inner),
            ExprKind::Unary(UnOp::Not, inner) => Ok((self.eval_const(inner)? == 0) as i64),
            ExprKind::Binary(op, l, r) => {
                let a = self.eval_const(l)?;
                let b = self.eval_const(r)?;
                Ok(match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div if b != 0 => a.wrapping_div(b),
                    BinOp::Rem if b != 0 => a.wrapping_rem(b),
                    BinOp::Div | BinOp::Rem => {
                        return Err(FrontError::new(
                            Phase::Parse,
                            "division by zero in constant expression",
                            e.span,
                        ))
                    }
                    BinOp::Shl => a.wrapping_shl(b as u32),
                    BinOp::Shr => a.wrapping_shr(b as u32),
                    BinOp::BitAnd => a & b,
                    BinOp::BitOr => a | b,
                    BinOp::BitXor => a ^ b,
                    BinOp::Lt => (a < b) as i64,
                    BinOp::Gt => (a > b) as i64,
                    BinOp::Le => (a <= b) as i64,
                    BinOp::Ge => (a >= b) as i64,
                    BinOp::Eq => (a == b) as i64,
                    BinOp::Ne => (a != b) as i64,
                    BinOp::LogAnd => ((a != 0) && (b != 0)) as i64,
                    BinOp::LogOr => ((a != 0) || (b != 0)) as i64,
                })
            }
            ExprKind::SizeofType(ty) => ty
                .size(&self.types)
                .map(|s| s as i64)
                .ok_or_else(|| FrontError::new(Phase::Parse, "sizeof incomplete type", e.span)),
            ExprKind::Cast(_, inner) => self.eval_const(inner),
            ExprKind::Cond(c, t, f) => {
                if self.eval_const(c)? != 0 {
                    self.eval_const(t)
                } else {
                    self.eval_const(f)
                }
            }
            _ => Err(FrontError::new(
                Phase::Parse,
                "not a constant expression",
                e.span,
            )),
        }
    }

    // ----- translation unit ------------------------------------------------

    fn translation_unit(mut self) -> FrontResult<Program> {
        let mut globals = Vec::new();
        let mut funcs = Vec::new();
        while *self.peek() != Tok::Eof {
            self.external_decl(&mut globals, &mut funcs)?;
        }
        Ok(Program {
            types: self.types,
            globals,
            funcs,
            enum_consts: self.enum_consts,
            node_ids: self.ids,
        })
    }

    fn external_decl(
        &mut self,
        globals: &mut Vec<GlobalDecl>,
        funcs: &mut Vec<FuncDef>,
    ) -> FrontResult<()> {
        let start = self.span();
        let (base, is_typedef) = self.decl_specs()?;
        // `struct S { … };` alone.
        if self.eat_punct(Punct::Semi) {
            return Ok(());
        }
        let mut first = true;
        loop {
            let decl_start = self.span();
            // For function definitions we need parameter names, so we parse
            // the declarator and, when it is a function followed by `{`,
            // re-extract the parameter names by re-parsing the suffix.
            let save = self.pos;
            let (name, ty, dspan) = self.declarator(base.clone())?;
            if name.is_empty() {
                return Err(self.error("declaration requires a name"));
            }
            if is_typedef {
                self.typedefs.insert(name.clone(), ty.clone());
            } else if let Type::Func(ft) = &ty {
                if first && *self.peek() == Tok::Punct(Punct::LBrace) {
                    // Function definition — recover parameter names.
                    let params = self.reparse_param_names(save, ft)?;
                    let body = self.block()?;
                    let span = start.merge(body.span);
                    funcs.push(FuncDef {
                        name,
                        ret: ft.ret.clone(),
                        params,
                        varargs: ft.varargs,
                        body: Some(body),
                        span,
                    });
                    return Ok(());
                }
                // Prototype.
                let params = ft
                    .params
                    .iter()
                    .map(|t| Param {
                        id: self.ids.fresh(),
                        name: String::new(),
                        ty: t.clone(),
                        span: dspan,
                    })
                    .collect();
                funcs.push(FuncDef {
                    name,
                    ret: ft.ret.clone(),
                    params,
                    varargs: ft.varargs,
                    body: None,
                    span: start.merge(dspan),
                });
            } else {
                let init = if self.eat_punct(Punct::Assign) {
                    Some(self.initializer()?)
                } else {
                    None
                };
                globals.push(GlobalDecl {
                    id: self.ids.fresh(),
                    name,
                    ty,
                    init,
                    span: decl_start.merge(self.prev_span()),
                });
            }
            first = false;
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::Semi)?;
        Ok(())
    }

    /// Re-parses a function declarator starting at token index `save` to
    /// recover parameter names (the type-only pass discards them).
    fn reparse_param_names(&mut self, save: usize, ft: &FuncType) -> FrontResult<Vec<Param>> {
        let cur = self.pos;
        self.pos = save;
        // Walk to the parameter list: skip stars and the function name.
        while self.eat_punct(Punct::Star) {}
        let _ = self.expect_ident()?;
        self.expect_punct(Punct::LParen)?;
        let (_types, names, _varargs) = self.param_list()?;
        self.pos = cur;
        if names.len() != ft.params.len() {
            return Err(self.error("internal: parameter name recovery mismatch"));
        }
        Ok(names
            .into_iter()
            .zip(ft.params.iter())
            .map(|((name, span), ty)| Param {
                id: self.ids.fresh(),
                name,
                ty: ty.clone(),
                span,
            })
            .collect())
    }

    fn initializer(&mut self) -> FrontResult<Init> {
        if self.eat_punct(Punct::LBrace) {
            let mut items = Vec::new();
            loop {
                if self.eat_punct(Punct::RBrace) {
                    break;
                }
                items.push(self.nested(Self::initializer)?);
                if !self.eat_punct(Punct::Comma) {
                    self.expect_punct(Punct::RBrace)?;
                    break;
                }
            }
            Ok(Init::List(items))
        } else {
            Ok(Init::Scalar(self.assignment()?))
        }
    }

    // ----- statements -------------------------------------------------------

    fn block(&mut self) -> FrontResult<Block> {
        let start = self.expect_punct(Punct::LBrace)?;
        let mut stmts = Vec::new();
        loop {
            if *self.peek() == Tok::Punct(Punct::RBrace) {
                let end = self.bump().span;
                return Ok(Block {
                    stmts,
                    span: start.merge(end),
                });
            }
            if *self.peek() == Tok::Eof {
                return Err(self.error("unterminated block"));
            }
            stmts.push(self.stmt()?);
        }
    }

    fn stmt(&mut self) -> FrontResult<Stmt> {
        self.nested(Self::stmt_here)
    }

    fn stmt_here(&mut self) -> FrontResult<Stmt> {
        match self.peek().clone() {
            Tok::Punct(Punct::LBrace) => Ok(Stmt::Block(self.block()?)),
            Tok::Punct(Punct::Semi) => {
                self.bump();
                Ok(Stmt::Empty)
            }
            Tok::Kw(Kw::If) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let then = Box::new(self.stmt()?);
                let els = if self.eat_kw(Kw::Else) {
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                Ok(Stmt::If(cond, then, els))
            }
            Tok::Kw(Kw::While) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(Stmt::While(cond, Box::new(self.stmt()?)))
            }
            Tok::Kw(Kw::Do) => {
                self.bump();
                let body = Box::new(self.stmt()?);
                if !self.eat_kw(Kw::While) {
                    return Err(self.error("expected 'while' after do body"));
                }
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::DoWhile(body, cond))
            }
            Tok::Kw(Kw::For) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let init = if self.eat_punct(Punct::Semi) {
                    None
                } else if self.at_type_start() {
                    let d = self.local_decl()?;
                    Some(Box::new(d))
                } else {
                    let e = self.expr()?;
                    self.expect_punct(Punct::Semi)?;
                    Some(Box::new(Stmt::Expr(e)))
                };
                let cond = if *self.peek() == Tok::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_punct(Punct::Semi)?;
                let step = if *self.peek() == Tok::Punct(Punct::RParen) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_punct(Punct::RParen)?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body: Box::new(self.stmt()?),
                })
            }
            Tok::Kw(Kw::Switch) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let scrutinee = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(Stmt::Switch(scrutinee, Box::new(self.stmt()?)))
            }
            Tok::Kw(Kw::Case) => {
                self.bump();
                let e = self.conditional()?;
                let v = self.eval_const(&e)?;
                self.expect_punct(Punct::Colon)?;
                Ok(Stmt::Case(v))
            }
            Tok::Kw(Kw::Default) => {
                self.bump();
                self.expect_punct(Punct::Colon)?;
                Ok(Stmt::Default)
            }
            Tok::Kw(Kw::Break) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Break)
            }
            Tok::Kw(Kw::Continue) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Continue)
            }
            Tok::Kw(Kw::Return) => {
                self.bump();
                if self.eat_punct(Punct::Semi) {
                    Ok(Stmt::Return(None))
                } else {
                    let e = self.expr()?;
                    self.expect_punct(Punct::Semi)?;
                    Ok(Stmt::Return(Some(e)))
                }
            }
            _ if self.at_type_start() => self.local_decl(),
            _ => {
                let e = self.expr()?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    /// Parses `type declarator (= init)? (, declarator (= init)?)* ;`.
    fn local_decl(&mut self) -> FrontResult<Stmt> {
        let (base, is_typedef) = self.decl_specs()?;
        if is_typedef {
            return Err(self.error("typedef at block scope is not supported"));
        }
        if self.eat_punct(Punct::Semi) {
            // Bare struct declaration.
            return Ok(Stmt::Empty);
        }
        let mut decls = Vec::new();
        loop {
            let start = self.span();
            let (name, ty, _) = self.declarator(base.clone())?;
            if name.is_empty() {
                return Err(self.error("local declaration requires a name"));
            }
            let init = if self.eat_punct(Punct::Assign) {
                Some(self.assignment()?)
            } else {
                None
            };
            decls.push(LocalDecl {
                id: self.ids.fresh(),
                name,
                ty,
                init,
                span: start.merge(self.prev_span()),
            });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::Semi)?;
        Ok(Stmt::Decl(decls))
    }

    // ----- expressions (precedence climbing) --------------------------------

    /// Full expression including the comma operator.
    pub(crate) fn expr(&mut self) -> FrontResult<Expr> {
        let mut e = self.assignment()?;
        while self.eat_punct(Punct::Comma) {
            let rhs = self.assignment()?;
            let span = e.span.merge(rhs.span);
            e = self.mk(span, ExprKind::Comma(Box::new(e), Box::new(rhs)))?;
        }
        Ok(e)
    }

    fn assignment(&mut self) -> FrontResult<Expr> {
        let lhs = self.conditional()?;
        let op = match self.peek() {
            Tok::Punct(Punct::Assign) => Some(None),
            Tok::Punct(Punct::PlusEq) => Some(Some(BinOp::Add)),
            Tok::Punct(Punct::MinusEq) => Some(Some(BinOp::Sub)),
            Tok::Punct(Punct::StarEq) => Some(Some(BinOp::Mul)),
            Tok::Punct(Punct::SlashEq) => Some(Some(BinOp::Div)),
            Tok::Punct(Punct::PercentEq) => Some(Some(BinOp::Rem)),
            Tok::Punct(Punct::AmpEq) => Some(Some(BinOp::BitAnd)),
            Tok::Punct(Punct::PipeEq) => Some(Some(BinOp::BitOr)),
            Tok::Punct(Punct::CaretEq) => Some(Some(BinOp::BitXor)),
            Tok::Punct(Punct::ShlEq) => Some(Some(BinOp::Shl)),
            Tok::Punct(Punct::ShrEq) => Some(Some(BinOp::Shr)),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.nested(Self::assignment)?;
            let span = lhs.span.merge(rhs.span);
            self.mk(
                span,
                ExprKind::Assign {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
            )
        } else {
            Ok(lhs)
        }
    }

    fn conditional(&mut self) -> FrontResult<Expr> {
        let cond = self.binary(0)?;
        if self.eat_punct(Punct::Question) {
            let then = self.nested(Self::expr)?;
            self.expect_punct(Punct::Colon)?;
            let els = self.nested(Self::conditional)?;
            let span = cond.span.merge(els.span);
            self.mk(
                span,
                ExprKind::Cond(Box::new(cond), Box::new(then), Box::new(els)),
            )
        } else {
            Ok(cond)
        }
    }

    fn binop_at(&self) -> Option<(BinOp, u8)> {
        let (op, prec) = match self.peek() {
            Tok::Punct(Punct::PipePipe) => (BinOp::LogOr, 1),
            Tok::Punct(Punct::AmpAmp) => (BinOp::LogAnd, 2),
            Tok::Punct(Punct::Pipe) => (BinOp::BitOr, 3),
            Tok::Punct(Punct::Caret) => (BinOp::BitXor, 4),
            Tok::Punct(Punct::Amp) => (BinOp::BitAnd, 5),
            Tok::Punct(Punct::EqEq) => (BinOp::Eq, 6),
            Tok::Punct(Punct::NotEq) => (BinOp::Ne, 6),
            Tok::Punct(Punct::Lt) => (BinOp::Lt, 7),
            Tok::Punct(Punct::Gt) => (BinOp::Gt, 7),
            Tok::Punct(Punct::Le) => (BinOp::Le, 7),
            Tok::Punct(Punct::Ge) => (BinOp::Ge, 7),
            Tok::Punct(Punct::Shl) => (BinOp::Shl, 8),
            Tok::Punct(Punct::Shr) => (BinOp::Shr, 8),
            Tok::Punct(Punct::Plus) => (BinOp::Add, 9),
            Tok::Punct(Punct::Minus) => (BinOp::Sub, 9),
            Tok::Punct(Punct::Star) => (BinOp::Mul, 10),
            Tok::Punct(Punct::Slash) => (BinOp::Div, 10),
            Tok::Punct(Punct::Percent) => (BinOp::Rem, 10),
            _ => return None,
        };
        Some((op, prec))
    }

    fn binary(&mut self, min_prec: u8) -> FrontResult<Expr> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = self.binop_at() {
            if prec < min_prec.max(1) {
                break;
            }
            self.bump();
            let rhs = self.binary(prec + 1)?;
            let span = lhs.span.merge(rhs.span);
            lhs = self.mk(span, ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)))?;
        }
        Ok(lhs)
    }

    /// Whether a `(` at the current position begins a cast.
    fn paren_is_cast(&self) -> bool {
        debug_assert_eq!(*self.peek(), Tok::Punct(Punct::LParen));
        match self.peek2() {
            Tok::Kw(
                Kw::Void
                | Kw::Char
                | Kw::Int
                | Kw::Long
                | Kw::Unsigned
                | Kw::Signed
                | Kw::Short
                | Kw::Struct
                | Kw::Union
                | Kw::Enum
                | Kw::Const,
            ) => true,
            Tok::Ident(name) => self.typedefs.contains_key(name),
            _ => false,
        }
    }

    fn type_name(&mut self) -> FrontResult<Type> {
        let (base, _) = self.decl_specs()?;
        let (name, ty, _) = self.declarator(base)?;
        if !name.is_empty() {
            return Err(self.error("type name must be abstract"));
        }
        Ok(ty)
    }

    fn unary(&mut self) -> FrontResult<Expr> {
        self.nested(Self::unary_here)
    }

    fn unary_here(&mut self) -> FrontResult<Expr> {
        let start = self.span();
        match self.peek().clone() {
            Tok::Punct(Punct::Plus) => {
                self.bump();
                let e = self.unary()?;
                let span = start.merge(e.span);
                self.mk(span, ExprKind::Unary(UnOp::Plus, Box::new(e)))
            }
            Tok::Punct(Punct::Minus) => {
                self.bump();
                let e = self.unary()?;
                let span = start.merge(e.span);
                self.mk(span, ExprKind::Unary(UnOp::Neg, Box::new(e)))
            }
            Tok::Punct(Punct::Bang) => {
                self.bump();
                let e = self.unary()?;
                let span = start.merge(e.span);
                self.mk(span, ExprKind::Unary(UnOp::Not, Box::new(e)))
            }
            Tok::Punct(Punct::Tilde) => {
                self.bump();
                let e = self.unary()?;
                let span = start.merge(e.span);
                self.mk(span, ExprKind::Unary(UnOp::BitNot, Box::new(e)))
            }
            Tok::Punct(Punct::Star) => {
                self.bump();
                let e = self.unary()?;
                let span = start.merge(e.span);
                self.mk(span, ExprKind::Deref(Box::new(e)))
            }
            Tok::Punct(Punct::Amp) => {
                self.bump();
                let e = self.unary()?;
                let span = start.merge(e.span);
                self.mk(span, ExprKind::AddrOf(Box::new(e)))
            }
            Tok::Punct(Punct::PlusPlus) => {
                self.bump();
                let e = self.unary()?;
                let span = start.merge(e.span);
                self.mk(
                    span,
                    ExprKind::IncDec {
                        inc: true,
                        pre: true,
                        target: Box::new(e),
                    },
                )
            }
            Tok::Punct(Punct::MinusMinus) => {
                self.bump();
                let e = self.unary()?;
                let span = start.merge(e.span);
                self.mk(
                    span,
                    ExprKind::IncDec {
                        inc: false,
                        pre: true,
                        target: Box::new(e),
                    },
                )
            }
            Tok::Kw(Kw::Sizeof) => {
                self.bump();
                if *self.peek() == Tok::Punct(Punct::LParen) && self.paren_is_cast() {
                    self.bump();
                    let ty = self.type_name()?;
                    let end = self.expect_punct(Punct::RParen)?;
                    self.mk(start.merge(end), ExprKind::SizeofType(ty))
                } else {
                    let e = self.unary()?;
                    let span = start.merge(e.span);
                    self.mk(span, ExprKind::SizeofExpr(Box::new(e)))
                }
            }
            Tok::Punct(Punct::LParen) if self.paren_is_cast() => {
                self.bump();
                let ty = self.type_name()?;
                self.expect_punct(Punct::RParen)?;
                let e = self.unary()?;
                let span = start.merge(e.span);
                self.mk(span, ExprKind::Cast(ty, Box::new(e)))
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> FrontResult<Expr> {
        let mut e = self.primary()?;
        loop {
            match self.peek().clone() {
                Tok::Punct(Punct::LBracket) => {
                    self.bump();
                    let idx = self.expr()?;
                    let end = self.expect_punct(Punct::RBracket)?;
                    let span = e.span.merge(end);
                    e = self.mk(span, ExprKind::Index(Box::new(e), Box::new(idx)))?;
                }
                Tok::Punct(Punct::LParen) => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat_punct(Punct::RParen) {
                        loop {
                            args.push(self.assignment()?);
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                        self.expect_punct(Punct::RParen)?;
                    }
                    let span = e.span.merge(self.prev_span());
                    e = self.mk(span, ExprKind::Call(Box::new(e), args))?;
                }
                Tok::Punct(Punct::Dot) => {
                    self.bump();
                    let (field, fspan) = self.expect_ident()?;
                    let span = e.span.merge(fspan);
                    e = self.mk(
                        span,
                        ExprKind::Member {
                            obj: Box::new(e),
                            field,
                            arrow: false,
                        },
                    )?;
                }
                Tok::Punct(Punct::Arrow) => {
                    self.bump();
                    let (field, fspan) = self.expect_ident()?;
                    let span = e.span.merge(fspan);
                    e = self.mk(
                        span,
                        ExprKind::Member {
                            obj: Box::new(e),
                            field,
                            arrow: true,
                        },
                    )?;
                }
                Tok::Punct(Punct::PlusPlus) => {
                    let end = self.bump().span;
                    let span = e.span.merge(end);
                    e = self.mk(
                        span,
                        ExprKind::IncDec {
                            inc: true,
                            pre: false,
                            target: Box::new(e),
                        },
                    )?;
                }
                Tok::Punct(Punct::MinusMinus) => {
                    let end = self.bump().span;
                    let span = e.span.merge(end);
                    e = self.mk(
                        span,
                        ExprKind::IncDec {
                            inc: false,
                            pre: false,
                            target: Box::new(e),
                        },
                    )?;
                }
                _ => return Ok(e),
            }
        }
    }

    fn primary(&mut self) -> FrontResult<Expr> {
        let start = self.span();
        match self.peek().clone() {
            Tok::IntLit(v) => {
                self.bump();
                self.mk(start, ExprKind::IntLit(v))
            }
            Tok::StrLit(s) => {
                self.bump();
                self.mk(start, ExprKind::StrLit(s))
            }
            Tok::Ident(name) => {
                self.bump();
                self.mk(start, ExprKind::Ident(name))
            }
            Tok::Punct(Punct::LParen) => {
                self.bump();
                let e = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            other => Err(self.error(format!("expected expression, found '{other}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_function() {
        let prog = parse("int add(int a, int b) { return a + b; }").unwrap();
        assert_eq!(prog.funcs.len(), 1);
        let f = &prog.funcs[0];
        assert_eq!(f.name, "add");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name, "a");
        assert!(f.body.is_some());
    }

    #[test]
    fn parses_pointer_declarators() {
        let prog = parse("char **argv; int *p[4];").unwrap();
        assert_eq!(prog.globals.len(), 2);
        assert_eq!(prog.globals[0].ty, Type::Char.ptr_to().ptr_to());
        assert_eq!(
            prog.globals[1].ty,
            Type::Array(Box::new(Type::Int.ptr_to()), Some(4))
        );
    }

    #[test]
    fn parses_function_pointer_declarator() {
        let prog = parse("int (*handler)(int, char *);").unwrap();
        match &prog.globals[0].ty {
            Type::Ptr(inner) => match inner.as_ref() {
                Type::Func(ft) => {
                    assert_eq!(ft.ret, Type::Int);
                    assert_eq!(ft.params.len(), 2);
                }
                other => panic!("expected func, got {other:?}"),
            },
            other => panic!("expected pointer, got {other:?}"),
        }
    }

    #[test]
    fn parses_struct_with_self_pointer() {
        let prog =
            parse("struct node { int value; struct node *next; }; struct node *head;").unwrap();
        let Type::Ptr(inner) = &prog.globals[0].ty else {
            panic!()
        };
        let Type::Record(id) = inner.as_ref() else {
            panic!()
        };
        let rec = prog.types.record(*id);
        assert!(rec.complete);
        assert_eq!(rec.fields.len(), 2);
        assert_eq!(rec.field("next").unwrap().offset, 8);
    }

    #[test]
    fn parses_typedef() {
        let prog = parse("typedef struct cord { int len; } cord; cord *c;").unwrap();
        assert!(matches!(&prog.globals[0].ty, Type::Ptr(_)));
    }

    #[test]
    fn parses_enum_constants() {
        let prog = parse("enum { A, B = 10, C }; int x[C];").unwrap();
        assert_eq!(
            prog.enum_consts,
            vec![
                ("A".to_string(), 0),
                ("B".to_string(), 10),
                ("C".to_string(), 11)
            ]
        );
        assert_eq!(
            prog.globals[0].ty,
            Type::Array(Box::new(Type::Int), Some(11))
        );
    }

    #[test]
    fn parses_control_flow() {
        let prog = parse(
            "int f(int n) {\n\
               int s = 0;\n\
               for (;;) { if (n <= 0) break; s += n--; }\n\
               while (s > 100) s /= 2;\n\
               do s++; while (s % 2);\n\
               switch (s) { case 1: return 1; default: break; }\n\
               return s;\n\
             }",
        )
        .unwrap();
        assert_eq!(prog.funcs.len(), 1);
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        let ExprKind::Binary(BinOp::Add, _, rhs) = &e.kind else {
            panic!()
        };
        assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn assignment_is_right_associative() {
        let e = parse_expr("a = b = c").unwrap();
        let ExprKind::Assign { rhs, .. } = &e.kind else {
            panic!()
        };
        assert!(matches!(rhs.kind, ExprKind::Assign { .. }));
    }

    #[test]
    fn cast_vs_paren() {
        let e = parse_expr("(int)x").unwrap();
        assert!(matches!(e.kind, ExprKind::Cast(Type::Int, _)));
        let e = parse_expr("(x)").unwrap();
        assert!(matches!(e.kind, ExprKind::Ident(_)));
    }

    #[test]
    fn sizeof_forms() {
        let e = parse_expr("sizeof(char *)").unwrap();
        assert!(matches!(e.kind, ExprKind::SizeofType(Type::Ptr(_))));
        let e = parse_expr("sizeof x").unwrap();
        assert!(matches!(e.kind, ExprKind::SizeofExpr(_)));
    }

    #[test]
    fn string_copy_loop_parses() {
        // The paper's canonical example.
        let prog = parse(
            "void copy(char *s, char *t) { char *p; char *q; p = s; q = t; while (*p++ = *q++); }",
        )
        .unwrap();
        assert_eq!(prog.funcs[0].name, "copy");
    }

    #[test]
    fn ternary_and_comma() {
        let e = parse_expr("a ? b : c, d").unwrap();
        assert!(matches!(e.kind, ExprKind::Comma(_, _)));
    }

    #[test]
    fn postfix_chain() {
        let e = parse_expr("a.b[1]->c(2)++").unwrap();
        assert!(matches!(
            e.kind,
            ExprKind::IncDec {
                inc: true,
                pre: false,
                ..
            }
        ));
    }

    #[test]
    fn global_initializers() {
        let prog = parse("int table[3] = {1, 2, 3}; char *msg = \"hi\";").unwrap();
        assert!(matches!(prog.globals[0].init, Some(Init::List(_))));
        assert!(matches!(prog.globals[1].init, Some(Init::Scalar(_))));
    }

    #[test]
    fn prototype_then_definition() {
        let prog = parse("int f(int); int f(int x) { return x; }").unwrap();
        assert_eq!(prog.funcs.len(), 2);
        assert!(prog.funcs[0].body.is_none());
        assert!(prog.func("f").unwrap().body.is_some());
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse("int x = @;").is_err());
        assert!(parse("int f( {").is_err());
    }

    #[test]
    fn unsigned_long_specifiers() {
        let prog = parse("unsigned long big; unsigned u; long l;").unwrap();
        assert_eq!(prog.globals[0].ty, Type::ULong);
        assert_eq!(prog.globals[1].ty, Type::UInt);
        assert_eq!(prog.globals[2].ty, Type::Long);
    }

    #[test]
    fn local_decl_in_for_init() {
        let prog =
            parse("int f(void) { int s = 0; for (int i = 0; i < 4; i++) s += i; return s; }")
                .unwrap();
        assert_eq!(prog.funcs.len(), 1);
    }
}

#[cfg(test)]
mod error_path_tests {
    use super::*;

    fn parse_err(src: &str) -> crate::error::FrontError {
        parse(src).expect_err("must fail to parse")
    }

    #[test]
    fn missing_semicolon() {
        let e = parse_err("int x = 1 int y;");
        assert!(e.message.contains("';'"), "{e}");
    }

    #[test]
    fn unterminated_block() {
        let e = parse_err("int f(void) { int x = 1;");
        assert!(e.message.contains("unterminated") || e.message.contains("expected"));
    }

    #[test]
    fn struct_redefinition() {
        let e = parse_err("struct s { int a; }; struct s { int b; };");
        assert!(e.message.contains("redefinition"), "{e}");
    }

    #[test]
    fn unnamed_declaration() {
        let e = parse_err("int ;miss");
        // Either "requires a name" or a token error, but it must fail.
        assert!(!e.message.is_empty());
    }

    #[test]
    fn negative_array_size() {
        let e = parse_err("int a[-3];");
        assert!(e.message.contains("negative"), "{e}");
    }

    #[test]
    fn case_outside_constant() {
        let e = parse_err("int f(int x) { switch (x) { case x: return 1; } return 0; }");
        assert!(e.message.contains("constant"), "{e}");
    }

    #[test]
    fn do_without_while() {
        let e = parse_err("int f(void) { do {} until (1); return 0; }");
        assert!(e.message.contains("while"), "{e}");
    }

    #[test]
    fn typedef_in_params_rejected() {
        let e = parse_err("int f(typedef int t) { return 0; }");
        assert!(e.message.contains("typedef"), "{e}");
    }

    #[test]
    fn division_by_zero_in_constant() {
        let e = parse_err("int a[4 / 0];");
        assert!(e.message.contains("zero"), "{e}");
    }

    #[test]
    fn typedefs_cannot_compound_past_the_nesting_limit() {
        let stars = "*".repeat(MAX_NESTING - 50);
        parse(&format!("typedef int {stars}T1;")).expect("within the limit");
        let e = parse_err(&format!("typedef int {stars}T1; typedef T1 {stars}T2;"));
        assert_eq!(e.message, format!("nesting exceeds {MAX_NESTING} levels"));
    }

    #[test]
    fn error_positions_are_meaningful() {
        let src = "int x = 1;\nint y = @;";
        let e = parse_err(src);
        let rendered = e.render(src);
        assert!(rendered.starts_with("2:"), "error on line 2: {rendered}");
    }
}

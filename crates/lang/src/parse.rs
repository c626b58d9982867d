//! Recursive-descent parser for the concrete syntax.
//!
//! Top-level forms of a schema source:
//!
//! ```text
//! class Broker { name: string, salary: int, budget: int, profit: int }
//!
//! fn checkBudget(broker: Broker): bool {
//!   r_budget(broker) >= 10 * r_salary(broker)
//! }
//!
//! user clerk { checkBudget, w_budget }
//!
//! require (clerk, r_salary(x) : ti)
//! ```
//!
//! Queries are parsed separately by [`parse_query`]:
//!
//! ```text
//! select r_name(p), profile(p) from p in Person where r_age(p) > 20
//! ```
//!
//! Identifiers starting with `r_` / `w_` are reserved for the special
//! read/write functions in call position; `new C(…)` is the constructor.

use crate::ast::{AccessFnDef, BasicOp, Expr, Literal, Schema};
use crate::lexer::{LexError, Lexer, Spanned, Token};
use crate::query::{Atom, CmpOp, CmpRhs, Cond, FromSource, Invocation, Query, SelectItem};
use crate::requirement::{Cap, Requirement};
use oodb_model::{AttrName, CapabilityList, ClassDef, FnRef, Type, UserName, VarName};
use std::collections::HashSet;
use std::fmt;

/// Parse error with a 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// 1-based line, 0 when at end of input.
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "parse error at end of input: {}", self.message)
        } else {
            write!(f, "parse error at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            message: e.message,
            line: e.line,
        }
    }
}

/// Keywords that cannot be used as identifiers.
pub const KEYWORDS: &[&str] = &[
    "class", "fn", "user", "require", "let", "in", "end", "select", "from", "where", "new", "null",
    "true", "false", "and", "or", "not", "int", "bool", "string",
];

/// Maximum nesting depth for expressions, types, conditions and queries.
/// The parser is recursive-descent, and the type checker, the unfolder, the
/// printer and `Drop` recurse over the trees it builds; without a bound,
/// adversarial input (thousands of nested parentheses, `not`s or `+`s)
/// would overflow the stack instead of erroring. Parentheses, set types,
/// `let`, call arguments, unary prefixes and nested selects each take one
/// level, and so does each operator on a binary chain, on top of the
/// deepest operand before it: the bound is on the height of the tree.
const MAX_DEPTH: u32 = 200;

/// A token slot: a token, or the lex error standing in its place.
type Slot<'a> = Option<Result<Spanned<'a>, LexError>>;

/// A recursive-descent parser over an on-demand [`Lexer`].
///
/// It holds two tokens of lookahead and no token vector. A lex error waits
/// in its token's slot: the parser reports it when it reaches that token,
/// so an earlier syntax error is reported first.
///
/// `schema` collects the parsed definitions; references to declared names
/// share the declaration's copy of the name.
struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The current token, `None` at the end of input.
    cur: Slot<'a>,
    /// The token after it.
    next: Slot<'a>,
    depth: u32,
    /// The deepest `depth` reached since the innermost open operator chain
    /// began (see [`Parser::chain_start`]).
    peak: u32,
    schema: Schema,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        let mut lexer = Lexer::new(src);
        let cur = lexer.next();
        let next = lexer.next();
        Parser {
            lexer,
            cur,
            next,
            depth: 0,
            peak: 0,
            schema: Schema::new(),
        }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        self.peak = self.peak.max(self.depth);
        if self.depth > MAX_DEPTH {
            return self.err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    /// Run `f` one nesting level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.enter()?;
        let r = f(self);
        self.leave();
        r
    }

    /// Begin a chain of left-associative binary operators. Its tree is
    /// left-deep: each operator sits above everything to its left, so
    /// [`Parser::chain_op`] counts it one level above the deepest point the
    /// chain has reached. Returns what [`Parser::chain_end`] restores.
    fn chain_start(&mut self) -> (u32, u32) {
        let outer = (self.depth, self.peak);
        self.peak = self.depth;
        outer
    }

    /// Count one operator of the open chain.
    fn chain_op(&mut self) -> Result<(), ParseError> {
        self.depth = self.peak;
        self.enter()
    }

    fn chain_end(&mut self, (depth, peak): (u32, u32)) {
        self.depth = depth;
        self.peak = self.peak.max(peak);
    }

    fn peek(&self) -> Option<&Token<'a>> {
        match &self.cur {
            Some(Ok(s)) => Some(&s.token),
            _ => None,
        }
    }

    fn peek2(&self) -> Option<&Token<'a>> {
        match (&self.cur, &self.next) {
            (Some(Ok(_)), Some(Ok(s))) => Some(&s.token),
            _ => None,
        }
    }

    fn line(&self) -> u32 {
        match &self.cur {
            Some(Ok(s)) => s.line,
            Some(Err(e)) => e.line,
            None => self.lexer.last_line(),
        }
    }

    /// An error at the current token; a lex error in its place wins.
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        match &self.cur {
            Some(Err(e)) => Err(e.clone().into()),
            _ => Err(ParseError {
                message: message.into(),
                line: self.line(),
            }),
        }
    }

    /// Take the current token and lex the next one. A lex error is never
    /// taken: it stays current until the parser reports it.
    fn bump(&mut self) -> Option<Token<'a>> {
        let Some(Ok(_)) = self.cur else {
            return None;
        };
        let ahead = self.lexer.next();
        let cur = std::mem::replace(&mut self.next, ahead);
        std::mem::replace(&mut self.cur, cur).and_then(|s| s.ok().map(|s| s.token))
    }

    fn expect(&mut self, want: &Token<'_>) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == want => {
                self.bump();
                Ok(())
            }
            Some(t) => self.err(format!("expected `{want}`, found `{t}`")),
            None => self.err(format!("expected `{want}`, found end of input")),
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t.is_kw(kw) => {
                self.bump();
                Ok(())
            }
            Some(t) => self.err(format!("expected `{kw}`, found `{t}`")),
            None => self.err(format!("expected `{kw}`, found end of input")),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        let hit = matches!(self.peek(), Some(t) if t.is_kw(kw));
        if hit {
            self.bump();
        }
        hit
    }

    fn eat(&mut self, want: &Token<'_>) -> bool {
        let hit = self.peek() == Some(want);
        if hit {
            self.bump();
        }
        hit
    }

    fn ident(&mut self, what: &str) -> Result<&'a str, ParseError> {
        match self.peek() {
            Some(&Token::Ident(s)) if !KEYWORDS.contains(&s) => {
                self.bump();
                Ok(s)
            }
            Some(Token::Ident(s)) => self.err(format!("keyword `{s}` cannot be used as {what}")),
            Some(t) => self.err(format!("expected {what}, found `{t}`")),
            None => self.err(format!("expected {what}, found end of input")),
        }
    }

    fn at_end(&self) -> bool {
        self.cur.is_none()
    }

    // ------------------------------------------------------------ types

    fn ty(&mut self) -> Result<Type, ParseError> {
        self.nested(Self::ty_inner)
    }

    fn ty_inner(&mut self) -> Result<Type, ParseError> {
        if self.eat(&Token::LBrace) {
            let inner = self.ty()?;
            self.expect(&Token::RBrace)?;
            return Ok(Type::set(inner));
        }
        match self.peek() {
            Some(&Token::Ident(s)) => {
                self.bump();
                Ok(match s {
                    "int" => Type::INT,
                    "bool" => Type::BOOL,
                    "string" => Type::STR,
                    "null" => Type::Null,
                    other if KEYWORDS.contains(&other) => {
                        return self.err(format!("keyword `{other}` is not a type"))
                    }
                    _ => Type::class(s),
                })
            }
            _ => self.err("expected a type"),
        }
    }

    // ------------------------------------------------------ expressions

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::or_expr)
    }

    /// A chain `operand (op operand)*`, where `op` picks the chain's
    /// operators, as a left-deep tree of `join`s (see
    /// [`Parser::chain_start`]).
    fn chain<T, O>(
        &mut self,
        operand: fn(&mut Self) -> Result<T, ParseError>,
        op: fn(&Token<'_>) -> Option<O>,
        join: fn(O, T, T) -> T,
    ) -> Result<T, ParseError> {
        let outer = self.chain_start();
        let mut lhs = operand(self)?;
        while let Some(o) = self.peek().and_then(op) {
            self.bump();
            self.chain_op()?;
            let rhs = operand(self)?;
            lhs = join(o, lhs, rhs);
        }
        self.chain_end(outer);
        Ok(lhs)
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let op = |t: &Token<'_>| t.is_kw("or").then_some(BasicOp::Or);
        self.chain(Self::and_expr, op, Expr::bin)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let op = |t: &Token<'_>| t.is_kw("and").then_some(BasicOp::And);
        self.chain(Self::not_expr, op, Expr::bin)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_kw("not") {
            let inner = self.nested(Self::not_expr)?;
            Ok(Expr::Basic(BasicOp::Not, vec![inner]))
        } else {
            self.cmp_expr()
        }
    }

    /// A comparison takes one operator: a chain of at most one link.
    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let outer = self.chain_start();
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Some(Token::Ge) => Some(BasicOp::Ge),
            Some(Token::Gt) => Some(BasicOp::Gt),
            Some(Token::Le) => Some(BasicOp::Le),
            Some(Token::Lt) => Some(BasicOp::Lt),
            Some(Token::EqEq) => Some(BasicOp::EqOp),
            Some(Token::NotEq) => Some(BasicOp::NeOp),
            _ => None,
        };
        let e = match op {
            Some(op) => {
                self.bump();
                self.chain_op()?;
                let rhs = self.add_expr()?;
                Expr::bin(op, lhs, rhs)
            }
            None => lhs,
        };
        self.chain_end(outer);
        Ok(e)
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let op = |t: &Token<'_>| match t {
            Token::Plus => Some(BasicOp::Add),
            Token::Minus => Some(BasicOp::Sub),
            Token::PlusPlus => Some(BasicOp::Concat),
            _ => None,
        };
        self.chain(Self::mul_expr, op, Expr::bin)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let op = |t: &Token<'_>| match t {
            Token::Star => Some(BasicOp::Mul),
            Token::Slash => Some(BasicOp::Div),
            Token::Percent => Some(BasicOp::Mod),
            _ => None,
        };
        self.chain(Self::unary_expr, op, Expr::bin)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Token::Minus) {
            let inner = self.nested(Self::unary_expr)?;
            // Fold `-` on an integer literal into a negative constant, so
            // pretty-printed negative literals round-trip structurally.
            if let Expr::Const(Literal::Int(n)) = inner {
                return Ok(Expr::Const(Literal::Int(-n)));
            }
            Ok(Expr::Basic(BasicOp::Neg, vec![inner]))
        } else {
            self.primary_expr()
        }
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        let Some(t) = self.peek() else {
            return self.err("unexpected end of input in expression");
        };
        let s = match *t {
            Token::Ident(s) => s,
            Token::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                return Ok(e);
            }
            Token::Int(_) | Token::Str(_) => {
                return Ok(match self.bump() {
                    Some(Token::Int(i)) => Expr::Const(Literal::Int(i)),
                    Some(Token::Str(s)) => Expr::Const(Literal::Str(s)),
                    _ => unreachable!("peeked a literal"),
                })
            }
            _ => return self.err(format!("unexpected `{t}` in expression")),
        };
        match s {
            "true" => {
                self.bump();
                Ok(Expr::Const(Literal::Bool(true)))
            }
            "false" => {
                self.bump();
                Ok(Expr::Const(Literal::Bool(false)))
            }
            "null" => {
                self.bump();
                Ok(Expr::Const(Literal::Null))
            }
            "let" => self.let_expr(),
            "new" => {
                self.bump();
                let class = self.ident("a class name")?;
                self.expect(&Token::LParen)?;
                let args = self.expr_args()?;
                Ok(Expr::New(class.into(), args))
            }
            _ if KEYWORDS.contains(&s) => {
                self.err(format!("unexpected keyword `{s}` in expression"))
            }
            _ => {
                self.bump();
                if self.eat(&Token::LParen) {
                    let args = self.expr_args()?;
                    self.call_from_name(s, args)
                } else {
                    Ok(Expr::var(s))
                }
            }
        }
    }

    /// Resolve a call by name: `r_att` / `w_att` are special, anything else
    /// is an access-function invocation.
    fn call_from_name(&self, name: &str, args: Vec<Expr>) -> Result<Expr, ParseError> {
        if let Some(attr) = name.strip_prefix("r_") {
            if attr.is_empty() {
                return self.err("`r_` must be followed by an attribute name");
            }
            if args.len() != 1 {
                return self.err(format!(
                    "`{name}` takes exactly 1 argument, got {}",
                    args.len()
                ));
            }
            let mut it = args.into_iter();
            return Ok(Expr::read(attr, it.next().expect("checked len")));
        }
        if let Some(attr) = name.strip_prefix("w_") {
            if attr.is_empty() {
                return self.err("`w_` must be followed by an attribute name");
            }
            if args.len() != 2 {
                return self.err(format!(
                    "`{name}` takes exactly 2 arguments, got {}",
                    args.len()
                ));
            }
            let mut it = args.into_iter();
            let recv = it.next().expect("checked len");
            let val = it.next().expect("checked len");
            return Ok(Expr::write(attr, recv, val));
        }
        Ok(Expr::call(name, args))
    }

    fn expr_args(&mut self) -> Result<Vec<Expr>, ParseError> {
        let mut args = Vec::new();
        if self.eat(&Token::RParen) {
            return Ok(args);
        }
        loop {
            args.push(self.expr()?);
            if self.eat(&Token::Comma) {
                continue;
            }
            self.expect(&Token::RParen)?;
            return Ok(args);
        }
    }

    fn let_expr(&mut self) -> Result<Expr, ParseError> {
        self.expect_kw("let")?;
        let mut bindings = Vec::new();
        loop {
            let name = self.ident("a variable name")?;
            self.expect(&Token::Assign)?;
            let value = self.expr()?;
            bindings.push((VarName::new(name), value));
            if self.eat(&Token::Comma) {
                continue;
            }
            break;
        }
        self.expect_kw("in")?;
        let body = self.expr()?;
        self.expect_kw("end")?;
        Ok(Expr::Let {
            bindings,
            body: Box::new(body),
        })
    }

    // ------------------------------------------------------------ schema

    /// The definitions up to the end of input (or a lex error).
    fn schema(&mut self) -> Result<Schema, ParseError> {
        // One stored list per distinct capability list: a user whose list
        // equals an earlier user's shares that user's.
        let mut lists: HashSet<CapabilityList> = HashSet::new();
        while let Some(t) = self.peek() {
            if t.is_kw("class") {
                let def = self.class_def()?;
                if let Err(e) = self.schema.classes.insert(def) {
                    return self.err(e.to_string());
                }
            } else if t.is_kw("fn") {
                let def = self.fn_def()?;
                if self.schema.functions.contains_key(&def.name) {
                    return self.err(format!("function `{}` defined more than once", def.name));
                }
                self.schema.functions.insert(def.name.clone(), def);
            } else if t.is_kw("user") {
                let (name, caps) = self.user_def()?;
                if self.schema.users.contains_key(name) {
                    return self.err(format!("user `{name}` defined more than once"));
                }
                let caps = match lists.get(&caps) {
                    Some(shared) => shared.clone(),
                    None => {
                        lists.insert(caps.clone());
                        caps
                    }
                };
                self.schema.users.insert(name.into(), caps);
            } else if t.is_kw("require") {
                let req = self.require_def()?;
                self.schema.requirements.push(req);
            } else {
                return self.err(format!(
                    "expected `class`, `fn`, `user` or `require`, found `{t}`"
                ));
            }
        }
        Ok(std::mem::take(&mut self.schema))
    }

    fn class_def(&mut self) -> Result<ClassDef, ParseError> {
        self.expect_kw("class")?;
        let name = self.ident("a class name")?;
        self.expect(&Token::LBrace)?;
        let mut attrs = Vec::new();
        if !self.eat(&Token::RBrace) {
            loop {
                let attr = self.ident("an attribute name")?;
                self.expect(&Token::Colon)?;
                let ty = self.ty()?;
                attrs.push((attr.into(), ty));
                if self.eat(&Token::Comma) {
                    continue;
                }
                self.expect(&Token::RBrace)?;
                break;
            }
        }
        ClassDef::new(name, attrs).or_else(|e| self.err(e.to_string()))
    }

    fn fn_def(&mut self) -> Result<AccessFnDef, ParseError> {
        self.expect_kw("fn")?;
        let name = self.ident("a function name")?;
        if name.starts_with("r_") || name.starts_with("w_") {
            return self.err(format!(
                "function name `{name}` collides with the special-function namespace (`r_…`/`w_…`)"
            ));
        }
        self.expect(&Token::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&Token::RParen) {
            loop {
                let p = self.ident("a parameter name")?;
                self.expect(&Token::Colon)?;
                let ty = self.ty()?;
                params.push((VarName::new(p), ty));
                if self.eat(&Token::Comma) {
                    continue;
                }
                self.expect(&Token::RParen)?;
                break;
            }
        }
        self.expect(&Token::Colon)?;
        let ret = self.ty()?;
        self.expect(&Token::LBrace)?;
        let body = self.expr()?;
        self.expect(&Token::RBrace)?;
        Ok(AccessFnDef {
            name: name.into(),
            params,
            ret,
            body,
        })
    }

    /// A reference to something invocable, sharing the name of the
    /// declared function, attribute or class it names.
    fn fn_ref(&mut self) -> Result<FnRef, ParseError> {
        if self.eat_kw("new") {
            let class = self.ident("a class name")?;
            let shared = self.schema.classes.get_str(class).map(|d| d.name.clone());
            return Ok(FnRef::New(shared.unwrap_or_else(|| class.into())));
        }
        let name = self.ident("a function reference")?;
        let attr = |a: &str| -> AttrName {
            self.schema
                .classes
                .attr_decls(a)
                .next()
                .map_or_else(|| a.into(), |(_, d)| d.name.clone())
        };
        if let Some(a) = name.strip_prefix("r_").filter(|a| !a.is_empty()) {
            return Ok(FnRef::Read(attr(a)));
        }
        if let Some(a) = name.strip_prefix("w_").filter(|a| !a.is_empty()) {
            return Ok(FnRef::Write(attr(a)));
        }
        let shared = self
            .schema
            .functions
            .get_key_value(name)
            .map(|(k, _)| k.clone());
        Ok(FnRef::Access(shared.unwrap_or_else(|| name.into())))
    }

    fn user_def(&mut self) -> Result<(&'a str, CapabilityList), ParseError> {
        self.expect_kw("user")?;
        let name = self.ident("a user name")?;
        self.expect(&Token::LBrace)?;
        let mut caps = CapabilityList::new();
        if !self.eat(&Token::RBrace) {
            loop {
                let f = self.fn_ref()?;
                caps.grant(f);
                if self.eat(&Token::Comma) {
                    continue;
                }
                self.expect(&Token::RBrace)?;
                break;
            }
        }
        Ok((name, caps))
    }

    fn cap(&mut self) -> Result<Cap, ParseError> {
        let kw = self.ident("a capability (ti, pi, ta, pa)")?;
        match kw {
            "ti" => Ok(Cap::Ti),
            "pi" => Ok(Cap::Pi),
            "ta" => Ok(Cap::Ta),
            "pa" => Ok(Cap::Pa),
            other => self.err(format!(
                "unknown capability `{other}` (expected ti, pi, ta, pa)"
            )),
        }
    }

    fn require_def(&mut self) -> Result<Requirement, ParseError> {
        self.expect_kw("require")?;
        self.expect(&Token::LParen)?;
        let user = self.ident("a user name")?;
        // The declared user's name, shared.
        let user = match self.schema.users.get_key_value(user) {
            Some((name, _)) => name.clone(),
            None => UserName::from(user),
        };
        self.expect(&Token::Comma)?;
        let target = self.fn_ref()?;
        self.expect(&Token::LParen)?;
        let mut arg_names = Vec::new();
        let mut arg_caps = Vec::new();
        if !self.eat(&Token::RParen) {
            loop {
                let name = self.ident("an argument name")?;
                let mut caps = Vec::new();
                while self.eat(&Token::Colon) {
                    caps.push(self.cap()?);
                }
                // The previous requirement's name at this position, shared
                // when equal: generated policies repeat them.
                let prev = self.schema.requirements.last();
                let name = match prev.and_then(|r| r.arg_names.get(arg_names.len())) {
                    Some(prev) if prev.as_str() == name => prev.clone(),
                    _ => VarName::new(name),
                };
                arg_names.push(name);
                arg_caps.push(caps);
                if self.eat(&Token::Comma) {
                    continue;
                }
                self.expect(&Token::RParen)?;
                break;
            }
        }
        let mut ret_caps = Vec::new();
        while self.eat(&Token::Colon) {
            ret_caps.push(self.cap()?);
        }
        self.expect(&Token::RParen)?;
        // A large policy keeps one requirement per user: drop the spare
        // capacity the pushes left.
        arg_names.shrink_to_fit();
        arg_caps.shrink_to_fit();
        Ok(Requirement {
            user,
            target,
            arg_names,
            arg_caps,
            ret_caps,
        })
    }

    // ------------------------------------------------------------ query

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let Some(t) = self.peek() else {
            return self.err("unexpected end of input in query atom");
        };
        match *t {
            Token::Int(_) | Token::Str(_) => Ok(match self.bump() {
                Some(Token::Int(i)) => Atom::Lit(Literal::Int(i)),
                Some(Token::Str(s)) => Atom::Lit(Literal::Str(s)),
                _ => unreachable!("peeked a literal"),
            }),
            Token::Minus => {
                self.bump();
                match self.peek() {
                    Some(&Token::Int(i)) => {
                        self.bump();
                        Ok(Atom::Lit(Literal::Int(-i)))
                    }
                    _ => self.err("expected integer after `-`"),
                }
            }
            Token::Ident(s) => match s {
                "true" => {
                    self.bump();
                    Ok(Atom::Lit(Literal::Bool(true)))
                }
                "false" => {
                    self.bump();
                    Ok(Atom::Lit(Literal::Bool(false)))
                }
                "null" => {
                    self.bump();
                    Ok(Atom::Lit(Literal::Null))
                }
                _ if KEYWORDS.contains(&s) => {
                    self.err(format!("unexpected keyword `{s}` in query atom"))
                }
                _ => {
                    self.bump();
                    Ok(Atom::var(s))
                }
            },
            _ => self.err(format!("unexpected `{t}` in query atom")),
        }
    }

    fn invocation(&mut self) -> Result<Invocation, ParseError> {
        let target = self.fn_ref()?;
        self.expect(&Token::LParen)?;
        let mut args = Vec::new();
        if !self.eat(&Token::RParen) {
            loop {
                args.push(self.atom()?);
                if self.eat(&Token::Comma) {
                    continue;
                }
                self.expect(&Token::RParen)?;
                break;
            }
        }
        Ok(Invocation::new(target, args))
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        match self.peek() {
            Some(Token::LParen) => {
                self.bump();
                let q = self.nested(Self::query)?;
                self.expect(&Token::RParen)?;
                Ok(SelectItem::Nested(Box::new(q)))
            }
            Some(&Token::Ident(s)) if s == "new" || !KEYWORDS.contains(&s) => {
                // Lookahead: IDENT "(" is an invocation, otherwise an atom.
                if s == "new" || self.peek2() == Some(&Token::LParen) {
                    Ok(SelectItem::Invoke(self.invocation()?))
                } else {
                    Ok(SelectItem::Atom(self.atom()?))
                }
            }
            _ => Ok(SelectItem::Atom(self.atom()?)),
        }
    }

    fn parse_from_binding(&mut self) -> Result<(VarName, FromSource), ParseError> {
        let var = self.ident("a from-clause variable")?;
        self.expect_kw("in")?;
        match self.peek() {
            Some(&Token::Ident(s)) if s == "new" || self.peek2() == Some(&Token::LParen) => {
                if KEYWORDS.contains(&s) && s != "new" {
                    return self.err(format!("unexpected keyword `{s}` in from clause"));
                }
                let inv = self.invocation()?;
                Ok((VarName::new(var), FromSource::SetExpr(inv)))
            }
            Some(Token::Ident(_)) => {
                let class = self.ident("a class name")?;
                Ok((VarName::new(var), FromSource::Class(class.into())))
            }
            _ => self.err("expected a class name or set-valued invocation in from clause"),
        }
    }

    fn cond(&mut self) -> Result<Cond, ParseError> {
        self.nested(Self::cond_body)
    }

    fn cond_body(&mut self) -> Result<Cond, ParseError> {
        let op = |t: &Token<'_>| t.is_kw("or").then_some(());
        self.chain(Self::cond_and, op, |(), l, r| {
            Cond::Or(Box::new(l), Box::new(r))
        })
    }

    fn cond_and(&mut self) -> Result<Cond, ParseError> {
        let op = |t: &Token<'_>| t.is_kw("and").then_some(());
        self.chain(Self::cond_atom, op, |(), l, r| {
            Cond::And(Box::new(l), Box::new(r))
        })
    }

    fn cond_atom(&mut self) -> Result<Cond, ParseError> {
        if self.eat(&Token::LParen) {
            let c = self.cond()?;
            self.expect(&Token::RParen)?;
            return Ok(c);
        }
        if self.eat_kw("true") {
            return Ok(Cond::True);
        }
        let lhs = self.invocation()?;
        let op = match self.peek() {
            Some(Token::Ge) => CmpOp::Ge,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::EqEq) => CmpOp::Eq,
            Some(Token::NotEq) => CmpOp::Ne,
            _ => return self.err("expected a comparison operator in where clause"),
        };
        self.bump();
        // RHS: an invocation (IDENT "(" …) or an atom.
        let rhs = match self.peek() {
            Some(&Token::Ident(s))
                if s == "new"
                    || (!KEYWORDS.contains(&s) && self.peek2() == Some(&Token::LParen)) =>
            {
                CmpRhs::Invoke(self.invocation()?)
            }
            _ => CmpRhs::Atom(self.atom()?),
        };
        Ok(Cond::Cmp { lhs, op, rhs })
    }

    fn query(&mut self) -> Result<Query, ParseError> {
        self.expect_kw("select")?;
        let mut items = vec![self.select_item()?];
        while self.eat(&Token::Comma) {
            items.push(self.select_item()?);
        }
        self.expect_kw("from")?;
        let mut from = vec![self.parse_from_binding()?];
        while self.eat(&Token::Comma) {
            from.push(self.parse_from_binding()?);
        }
        let filter = if self.eat_kw("where") {
            Some(self.cond()?)
        } else {
            None
        };
        Ok(Query {
            items,
            from,
            filter,
        })
    }
}

/// Parse a full schema source (classes, functions, users, requirements).
///
/// ```
/// let schema = oodb_lang::parse_schema(r#"
///     class Person { name: string, age: int }
///     fn isAdult(p: Person): bool { r_age(p) >= 18 }
///     user app { isAdult, r_name }
///     require (app, r_age(x) : ti)
/// "#).unwrap();
/// assert_eq!(schema.functions.len(), 1);
/// assert_eq!(schema.requirements.len(), 1);
/// oodb_lang::check_schema(&schema).unwrap();
/// ```
pub fn parse_schema(src: &str) -> Result<Schema, ParseError> {
    let mut p = Parser::new(src);
    let s = p.schema()?;
    if !p.at_end() {
        return p.err("trailing input after schema");
    }
    Ok(s)
}

/// Parse a single expression of the function definition language.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(src);
    let e = p.expr()?;
    if !p.at_end() {
        return p.err("trailing input after expression");
    }
    Ok(e)
}

/// Parse a query.
pub fn parse_query(src: &str) -> Result<Query, ParseError> {
    let mut p = Parser::new(src);
    let q = p.query()?;
    if !p.at_end() {
        return p.err("trailing input after query");
    }
    Ok(q)
}

/// Parse a single requirement, e.g. `(clerk, r_salary(x) : ti)` (the
/// leading `require` keyword is optional here).
pub fn parse_requirement(src: &str) -> Result<Requirement, ParseError> {
    let full = if src.trim_start().starts_with("require") {
        src.to_owned()
    } else {
        format!("require {src}")
    };
    let mut p = Parser::new(&full);
    let r = p.require_def()?;
    if !p.at_end() {
        return p.err("trailing input after requirement");
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_check_budget_body() {
        let e = parse_expr("r_budget(broker) >= 10 * r_salary(broker)").unwrap();
        assert_eq!(
            e,
            Expr::bin(
                BasicOp::Ge,
                Expr::read("budget", Expr::var("broker")),
                Expr::bin(
                    BasicOp::Mul,
                    Expr::int(10),
                    Expr::read("salary", Expr::var("broker"))
                )
            )
        );
    }

    #[test]
    fn precedence() {
        let e = parse_expr("1 + 2 * 3 - 4").unwrap();
        // (1 + (2*3)) - 4
        assert_eq!(
            e,
            Expr::bin(
                BasicOp::Sub,
                Expr::bin(
                    BasicOp::Add,
                    Expr::int(1),
                    Expr::bin(BasicOp::Mul, Expr::int(2), Expr::int(3))
                ),
                Expr::int(4)
            )
        );
        let e = parse_expr("not a and b or c").unwrap();
        // ((not a) and b) or c
        assert_eq!(
            e,
            Expr::bin(
                BasicOp::Or,
                Expr::bin(
                    BasicOp::And,
                    Expr::Basic(BasicOp::Not, vec![Expr::var("a")]),
                    Expr::var("b")
                ),
                Expr::var("c")
            )
        );
    }

    #[test]
    fn unary_minus_and_parens() {
        let e = parse_expr("-(x + 1) * 2").unwrap();
        assert_eq!(
            e,
            Expr::bin(
                BasicOp::Mul,
                Expr::Basic(
                    BasicOp::Neg,
                    vec![Expr::bin(BasicOp::Add, Expr::var("x"), Expr::int(1))]
                ),
                Expr::int(2)
            )
        );
    }

    #[test]
    fn let_and_new() {
        let e = parse_expr("let x = 1, y = new Point(2, 3) in x + r_x(y) end").unwrap();
        match e {
            Expr::Let { bindings, body } => {
                assert_eq!(bindings.len(), 2);
                assert!(matches!(bindings[1].1, Expr::New(_, _)));
                assert!(matches!(*body, Expr::Basic(BasicOp::Add, _)));
            }
            other => panic!("expected let, got {other:?}"),
        }
    }

    #[test]
    fn special_fn_arity_checked_at_parse() {
        assert!(parse_expr("r_salary(a, b)").is_err());
        assert!(parse_expr("w_salary(a)").is_err());
        assert!(parse_expr("r_(a)").is_err());
    }

    #[test]
    fn parse_full_schema() {
        let src = r#"
            # The paper's running example (§1, §4.2).
            class Broker { name: string, salary: int, budget: int, profit: int }

            fn checkBudget(broker: Broker): bool {
              r_budget(broker) >= 10 * r_salary(broker)
            }

            user clerk { checkBudget, w_budget }

            require (clerk, r_salary(x) : ti)
        "#;
        let s = parse_schema(src).unwrap();
        assert_eq!(s.classes.len(), 1);
        assert_eq!(s.functions.len(), 1);
        assert_eq!(s.users.len(), 1);
        assert_eq!(s.requirements.len(), 1);
        let caps = s.user_str("clerk").unwrap();
        assert!(caps.allows(&FnRef::access("checkBudget")));
        assert!(caps.allows(&FnRef::write("budget")));
        let r = &s.requirements[0];
        assert_eq!(r.target, FnRef::read("salary"));
        assert_eq!(r.ret_caps, vec![Cap::Ti]);
    }

    #[test]
    fn requirement_with_arg_caps() {
        let r = parse_requirement("(clerk, w_salary(x, v: ta))").unwrap();
        assert_eq!(r.target, FnRef::write("salary"));
        assert_eq!(r.arg_caps, vec![vec![], vec![Cap::Ta]]);
        assert!(r.ret_caps.is_empty());

        let r = parse_requirement("require (u, f(x: ti: pa) : pi)").unwrap();
        assert_eq!(r.arg_caps, vec![vec![Cap::Ti, Cap::Pa]]);
        assert_eq!(r.ret_caps, vec![Cap::Pi]);
    }

    #[test]
    fn parse_queries() {
        let q = parse_query("select r_name(p), profile(p) from p in Person where r_age(p) > 20")
            .unwrap();
        assert_eq!(q.items.len(), 2);
        assert_eq!(q.from.len(), 1);
        assert!(q.filter.is_some());

        // The paper's nested query.
        let q = parse_query(
            "select (select r_name(q) from q in r_child(p)) from p in Person where r_name(p) == \"John\"",
        )
        .unwrap();
        assert!(matches!(q.items[0], SelectItem::Nested(_)));

        // The attack query from §3.1.
        let q = parse_query(
            "select w_budget(b, 1), checkBudget(b), w_budget(b, 2), checkBudget(b) \
             from b in Broker where r_name(b) == \"John\"",
        )
        .unwrap();
        assert_eq!(q.items.len(), 4);
    }

    #[test]
    fn query_with_true_condition_and_atom_item() {
        let q = parse_query("select p from p in Person where true").unwrap();
        assert!(matches!(q.items[0], SelectItem::Atom(Atom::Var(_))));
        assert_eq!(q.filter, Some(Cond::True));
    }

    #[test]
    fn errors_carry_lines() {
        let err = parse_schema("class C { x: int }\nfn f(: int { 1 }").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(parse_expr("1 +").is_err());
        assert!(parse_expr("1 1").is_err());
        assert!(parse_query("select from x in C").is_err());
    }

    #[test]
    fn reserved_fn_names_rejected() {
        let err = parse_schema("fn r_evil(x: int): int { x }").unwrap_err();
        assert!(err.message.contains("special-function namespace"));
    }

    #[test]
    fn duplicate_definitions_rejected() {
        assert!(parse_schema("fn f(): int { 1 } fn f(): int { 2 }").is_err());
        assert!(parse_schema("user u { } user u { }").is_err());
        assert!(parse_schema("class C { } class C { }").is_err());
    }

    #[test]
    fn set_types_parse() {
        let s = parse_schema("class Person { child: {Person}, tags: {{string}} }").unwrap();
        let c = s.classes.get_str("Person").unwrap();
        assert_eq!(
            c.attr_type(&"child".into()),
            Some(&Type::set(Type::class("Person")))
        );
        assert_eq!(
            c.attr_type(&"tags".into()),
            Some(&Type::set(Type::set(Type::STR)))
        );
    }

    /// A valid source of about 1.5 MiB, and its line count.
    fn large_prefix() -> (String, u32) {
        let mut src = String::from("fn f(): int { 1 }\n");
        let mut lines = 1;
        while src.len() < 3 << 19 {
            lines += 1;
            src.push_str(&format!("user u{lines} {{ f }}\n"));
        }
        (src, lines)
    }

    #[test]
    fn errors_past_a_large_prefix_report_their_line() {
        let (prefix, lines) = large_prefix();
        let err = parse_schema(&format!("{prefix}user broken {{ f,, }}\n")).unwrap_err();
        assert_eq!(err.line, lines + 1);
        assert_eq!(err.message, "expected a function reference, found `,`");
        let err = parse_schema(&format!("{prefix}\nuser bad {{ f @ }}\n")).unwrap_err();
        assert_eq!(err.line, lines + 2);
        assert_eq!(err.message, "unexpected character '@'");
    }

    #[test]
    fn the_first_error_in_source_order_is_reported() {
        // The lexer reaches the bad character on line 2 only when the
        // parser does, so the syntax error on line 1 is reported.
        let err = parse_schema("user u { f g }\nuser v { @ }\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.message, "expected `}`, found `g`");
        // Reaching the bad character reports it, as a parse error.
        let err = parse_schema("user u { f }\nuser v { @ }\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "parse error at line 2: unexpected character '@'"
        );
        // A lex error in the second lookahead slot waits its turn too.
        let err = parse_query("select r_a(p) from p in C where r_a(p) > 1 @").unwrap_err();
        assert_eq!(err.message, "unexpected character '@'");
        let err = parse_expr("1 2 @").unwrap_err();
        assert_eq!(err.message, "trailing input after expression");
    }

    #[test]
    fn errors_at_the_end_of_input_report_the_last_line() {
        let err = parse_schema("class C { x: int }\n\nfn f(): int {").unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.message, "unexpected end of input in expression");
        let err = parse_expr("").unwrap_err();
        assert_eq!(
            err.to_string(),
            "parse error at end of input: unexpected end of input in expression"
        );
    }

    #[test]
    fn unicode_whitespace_separates_tokens() {
        let s = parse_schema("user\u{a0}u\u{2003}{\u{a0}f,\u{2003}r_x\u{a0}}").unwrap();
        let caps = s.user_str("u").unwrap();
        assert!(caps.allows(&FnRef::access("f")));
        assert!(caps.allows(&FnRef::read("x")));
    }

    #[test]
    fn equal_lists_share_storage_and_edits_stay_private() {
        let s = parse_schema("user a { f, r_x }\nuser b { r_x, f }\nuser c { f }\n").unwrap();
        let (a, b, c) = (
            s.user_str("a").unwrap(),
            s.user_str("b").unwrap(),
            s.user_str("c").unwrap(),
        );
        assert!(a.shares_storage(b));
        assert!(!a.shares_storage(c));
        let mut edited = b.clone();
        assert!(edited.grant(FnRef::access("g")));
        assert!(edited.revoke(&FnRef::access("f")));
        assert_eq!(edited.to_string(), "{g, r_x}");
        for caps in [a, b] {
            assert_eq!(caps.to_string(), "{f, r_x}");
        }
        assert!(a.shares_storage(b));
    }

    #[test]
    fn references_share_the_declared_names() {
        let s = parse_schema(
            "class C { x: int }\nfn f(c: C): int { r_x(c) }\n\
             user u { f, r_x, new C }\nrequire (u, f(c) : ti)\n",
        )
        .unwrap();
        let same = |a: &str, b: &str| std::ptr::eq(a.as_ptr(), b.as_ptr());
        let (user, caps) = s.users.iter().next().unwrap();
        assert!(same(s.requirements[0].user.as_str(), user.as_str()));
        let f = s.functions.keys().next().unwrap();
        let attr = &s.classes.get_str("C").unwrap().attrs[0].name;
        let class = &s.classes.get_str("C").unwrap().name;
        for r in caps.iter().chain([&s.requirements[0].target]) {
            let (declared, used) = match r {
                FnRef::Access(n) => (f.as_str(), n.as_str()),
                FnRef::Read(a) | FnRef::Write(a) => (attr.as_str(), a.as_str()),
                FnRef::New(c) => (class.as_str(), c.as_str()),
            };
            assert!(same(declared, used), "{r} does not share its name");
        }
    }

    #[test]
    fn new_in_capability_list() {
        let s = parse_schema("user u { new Broker, r_salary }").unwrap();
        let caps = s.user_str("u").unwrap();
        assert!(caps.allows(&FnRef::new_class("Broker")));
        assert!(caps.allows(&FnRef::read("salary")));
    }
}

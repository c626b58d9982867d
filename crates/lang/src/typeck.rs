//! Type checker for schemas, function bodies, queries and requirements.
//!
//! Beyond ordinary typing this module enforces the restrictions the paper's
//! analysis depends on:
//!
//! * **recursion-freedom** (§2: *"We do not consider recursive functions"*) —
//!   the unfolding step of the static analysis terminates only because the
//!   access-function call graph is acyclic;
//! * query invocations take *atoms* (constants / from-clause variables) as
//!   arguments;
//! * requirements may attach inferability capabilities only to basic-typed
//!   positions (§3.2: object identifiers have no printable form, so
//!   "inferability on object identifiers does not make sense"), and no
//!   capability to `null`-typed positions (a one-value type can be neither
//!   usefully inferred nor altered).

use crate::ast::{AccessFnDef, BasicOp, Expr, Schema};
use crate::query::{Atom, CmpOp, CmpRhs, Cond, FromSource, Invocation, Query, SelectItem};
use crate::requirement::{Cap, Requirement};
use oodb_model::{AttrName, ClassName, FnName, FnRef, Type, VarName};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;

/// A type error, with enough structure for tests to assert on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TypeError {
    /// Model-level validation failed (duplicate/unknown classes, …).
    Model(String),
    /// The access-function call graph has a cycle.
    RecursiveFunctions {
        /// One cycle, as a list of function names.
        cycle: Vec<FnName>,
    },
    /// A called access function does not exist.
    UnknownFunction {
        /// Missing name.
        name: FnName,
        /// Where it was called from.
        context: String,
    },
    /// An attribute is not declared by any class.
    UnknownAttribute {
        /// Missing attribute.
        attr: AttrName,
        /// Where it was used.
        context: String,
    },
    /// A class is not declared.
    UnknownClass {
        /// Missing class.
        class: ClassName,
        /// Where it was used.
        context: String,
    },
    /// A variable is not in scope.
    UnboundVariable {
        /// Missing variable.
        var: VarName,
        /// Where it occurred.
        context: String,
    },
    /// Wrong number of arguments.
    ArityMismatch {
        /// What was invoked.
        target: String,
        /// Expected count.
        expected: usize,
        /// Actual count.
        actual: usize,
        /// Where.
        context: String,
    },
    /// An expression has the wrong type.
    Mismatch {
        /// Expected type rendering.
        expected: String,
        /// Actual type.
        actual: Type,
        /// Where.
        context: String,
    },
    /// A requirement is malformed (unknown user/target, bad caps, …).
    BadRequirement {
        /// Description.
        message: String,
    },
    /// A capability list references something that does not exist.
    BadCapability {
        /// Description.
        message: String,
    },
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::Model(m) => write!(f, "{m}"),
            TypeError::RecursiveFunctions { cycle } => {
                write!(f, "recursive access functions are not allowed: ")?;
                for (i, n) in cycle.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{n}")?;
                }
                Ok(())
            }
            TypeError::UnknownFunction { name, context } => {
                write!(f, "unknown access function `{name}` in {context}")
            }
            TypeError::UnknownAttribute { attr, context } => {
                write!(f, "no class declares attribute `{attr}` ({context})")
            }
            TypeError::UnknownClass { class, context } => {
                write!(f, "unknown class `{class}` in {context}")
            }
            TypeError::UnboundVariable { var, context } => {
                write!(f, "unbound variable `{var}` in {context}")
            }
            TypeError::ArityMismatch {
                target,
                expected,
                actual,
                context,
            } => write!(
                f,
                "`{target}` expects {expected} argument(s), got {actual} in {context}"
            ),
            TypeError::Mismatch {
                expected,
                actual,
                context,
            } => write!(f, "expected {expected}, found `{actual}` in {context}"),
            TypeError::BadRequirement { message } => write!(f, "bad requirement: {message}"),
            TypeError::BadCapability { message } => write!(f, "bad capability list: {message}"),
        }
    }
}

impl std::error::Error for TypeError {}

/// Lexical environment for expression checking.
#[derive(Clone, Debug, Default)]
struct Env {
    vars: Vec<(VarName, Type)>,
}

impl Env {
    fn lookup(&self, v: &VarName) -> Option<&Type> {
        self.vars.iter().rev().find(|(n, _)| n == v).map(|(_, t)| t)
    }

    fn push(&mut self, v: VarName, t: Type) {
        self.vars.push((v, t));
    }

    fn truncate(&mut self, n: usize) {
        self.vars.truncate(n);
    }

    fn len(&self) -> usize {
        self.vars.len()
    }
}

/// All `(class, type)` declarations of an attribute name across the schema,
/// in class-name order: one lookup in the class table's attribute index.
pub fn attr_decls<'a>(schema: &'a Schema, attr: &AttrName) -> Vec<(&'a ClassName, &'a Type)> {
    schema
        .classes
        .attr_decls(attr.as_str())
        .map(|(c, a)| (&c.name, &a.ty))
        .collect()
}

/// Does any class declare the attribute?
fn attr_declared(schema: &Schema, attr: &AttrName) -> bool {
    schema.classes.attr_decls(attr.as_str()).len() > 0
}

/// Arity of anything invocable.
pub fn fn_ref_arity(schema: &Schema, target: &FnRef) -> Option<usize> {
    match target {
        FnRef::Access(f) => schema.function(f).map(AccessFnDef::arity),
        FnRef::Read(a) => attr_declared(schema, a).then_some(1),
        FnRef::Write(a) => attr_declared(schema, a).then_some(2),
        FnRef::New(c) => schema.classes.get(c).map(|d| d.attrs.len()),
    }
}

/// Check a whole schema: classes, functions (types + recursion-freedom),
/// capability lists and requirements.
pub fn check_schema(schema: &Schema) -> Result<(), TypeError> {
    schema
        .classes
        .validate()
        .map_err(|e| TypeError::Model(e.to_string()))?;
    check_recursion_freedom(schema)?;
    for def in schema.functions.values() {
        check_function(schema, def)?;
    }
    // Users iterate in name order and many share one stored list (the
    // parser gives equal lists one store): each store is checked once, so a
    // bad list still fails on its first holder. Keyed by storage, not by
    // content, which would hash every list; an equal list in a store of its
    // own is checked again, which is harmless.
    let mut checked: HashSet<usize> = HashSet::new();
    for (user, caps) in &schema.users {
        if !checked.insert(caps.storage_id()) {
            continue;
        }
        for c in caps.iter() {
            check_fn_ref_exists(schema, c).map_err(|mut e| {
                if let TypeError::BadCapability { message } = &mut e {
                    *message = format!("user `{user}`: {message}");
                }
                e
            })?;
        }
    }
    for req in &schema.requirements {
        check_requirement(schema, req)?;
    }
    Ok(())
}

fn check_fn_ref_exists(schema: &Schema, target: &FnRef) -> Result<(), TypeError> {
    let ok = match target {
        FnRef::Access(f) => schema.function(f).is_some(),
        FnRef::Read(a) | FnRef::Write(a) => attr_declared(schema, a),
        FnRef::New(c) => schema.classes.get(c).is_some(),
    };
    if ok {
        Ok(())
    } else {
        Err(TypeError::BadCapability {
            message: format!("`{target}` does not exist in the schema"),
        })
    }
}

/// Detect cycles in the access-function call graph; also rejects calls to
/// unknown functions.
fn check_recursion_freedom(schema: &Schema) -> Result<(), TypeError> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color: BTreeMap<&FnName, Color> =
        schema.functions.keys().map(|k| (k, Color::White)).collect();
    let mut stack_names: Vec<FnName> = Vec::new();

    fn visit<'a>(
        schema: &'a Schema,
        name: &'a FnName,
        color: &mut BTreeMap<&'a FnName, Color>,
        stack: &mut Vec<FnName>,
    ) -> Result<(), TypeError> {
        match color.get(name) {
            None => {
                return Err(TypeError::UnknownFunction {
                    name: name.clone(),
                    context: stack
                        .last()
                        .map(|f| format!("body of `{f}`"))
                        .unwrap_or_else(|| "schema".to_owned()),
                })
            }
            Some(Color::Black) => return Ok(()),
            Some(Color::Grey) => {
                let start = stack.iter().position(|n| n == name).unwrap_or(0);
                let mut cycle: Vec<FnName> = stack[start..].to_vec();
                cycle.push(name.clone());
                return Err(TypeError::RecursiveFunctions { cycle });
            }
            Some(Color::White) => {}
        }
        color.insert(name, Color::Grey);
        stack.push(name.clone());
        let def = schema.function(name).expect("colored implies defined");
        for callee in def.body.called_functions() {
            let callee_ref = schema
                .functions
                .keys()
                .find(|k| **k == callee)
                .ok_or_else(|| TypeError::UnknownFunction {
                    name: callee.clone(),
                    context: format!("body of `{name}`"),
                })?;
            visit(schema, callee_ref, color, stack)?;
        }
        stack.pop();
        color.insert(name, Color::Black);
        Ok(())
    }

    let names: Vec<&FnName> = schema.functions.keys().collect();
    for name in names {
        if color.get(name) == Some(&Color::White) {
            visit(schema, name, &mut color, &mut stack_names)?;
        }
    }
    Ok(())
}

/// Check one access function definition.
fn check_function(schema: &Schema, def: &AccessFnDef) -> Result<(), TypeError> {
    let ctx = format!("function `{}`", def.name);
    // Parameter types must exist.
    for (p, t) in &def.params {
        check_type_exists(schema, t, &format!("{ctx}, parameter `{p}`"))?;
    }
    check_type_exists(schema, &def.ret, &format!("{ctx}, return type"))?;
    // Duplicate parameter names.
    let mut seen = BTreeSet::new();
    for (p, _) in &def.params {
        if !seen.insert(p.clone()) {
            return Err(TypeError::Model(format!(
                "duplicate parameter `{p}` in {ctx}"
            )));
        }
    }
    let mut env = Env::default();
    for (p, t) in &def.params {
        env.push(p.clone(), t.clone());
    }
    let body_ty = type_of_expr(schema, &mut env, &def.body, &ctx)?;
    if !def.ret.accepts(&body_ty) {
        return Err(TypeError::Mismatch {
            expected: format!("return type `{}`", def.ret),
            actual: body_ty,
            context: ctx,
        });
    }
    Ok(())
}

fn check_type_exists(schema: &Schema, t: &Type, ctx: &str) -> Result<(), TypeError> {
    match t {
        Type::Basic(_) | Type::Null => Ok(()),
        Type::Class(c) => {
            if schema.classes.get(c).is_some() {
                Ok(())
            } else {
                Err(TypeError::UnknownClass {
                    class: c.clone(),
                    context: ctx.to_owned(),
                })
            }
        }
        Type::Set(inner) => check_type_exists(schema, inner, ctx),
    }
}

/// Infer the type of an expression in the given environment.
fn type_of_expr(schema: &Schema, env: &mut Env, expr: &Expr, ctx: &str) -> Result<Type, TypeError> {
    match expr {
        Expr::Const(l) => Ok(l.ty()),
        Expr::Var(v) => env
            .lookup(v)
            .cloned()
            .ok_or_else(|| TypeError::UnboundVariable {
                var: v.clone(),
                context: ctx.to_owned(),
            }),
        Expr::Basic(op, args) => {
            if args.len() != op.arity() {
                return Err(TypeError::ArityMismatch {
                    target: op.symbol().to_owned(),
                    expected: op.arity(),
                    actual: args.len(),
                    context: ctx.to_owned(),
                });
            }
            let mut tys = Vec::with_capacity(args.len());
            for a in args {
                tys.push(type_of_expr(schema, env, a, ctx)?);
            }
            type_of_basic(*op, &tys, ctx)
        }
        Expr::Call(f, args) => {
            let def = schema
                .function(f)
                .ok_or_else(|| TypeError::UnknownFunction {
                    name: f.clone(),
                    context: ctx.to_owned(),
                })?;
            if args.len() != def.arity() {
                return Err(TypeError::ArityMismatch {
                    target: f.to_string(),
                    expected: def.arity(),
                    actual: args.len(),
                    context: ctx.to_owned(),
                });
            }
            for (a, (p, want)) in args.iter().zip(&def.params) {
                let got = type_of_expr(schema, env, a, ctx)?;
                if !want.accepts(&got) {
                    return Err(TypeError::Mismatch {
                        expected: format!("`{want}` for parameter `{p}` of `{f}`"),
                        actual: got,
                        context: ctx.to_owned(),
                    });
                }
            }
            Ok(def.ret.clone())
        }
        Expr::Read(attr, recv) => {
            let recv_ty = type_of_expr(schema, env, recv, ctx)?;
            let class = recv_ty.as_class().ok_or_else(|| TypeError::Mismatch {
                expected: "an object type as receiver of a read".to_owned(),
                actual: recv_ty.clone(),
                context: ctx.to_owned(),
            })?;
            let def = schema
                .classes
                .get(class)
                .ok_or_else(|| TypeError::UnknownClass {
                    class: class.clone(),
                    context: ctx.to_owned(),
                })?;
            schema
                .classes
                .attr(&def.name, attr.as_str())
                .map(|a| a.ty.clone())
                .ok_or_else(|| TypeError::UnknownAttribute {
                    attr: attr.clone(),
                    context: format!("class `{class}` has no such attribute ({ctx})"),
                })
        }
        Expr::Write(attr, recv, val) => {
            let recv_ty = type_of_expr(schema, env, recv, ctx)?;
            let class = recv_ty.as_class().ok_or_else(|| TypeError::Mismatch {
                expected: "an object type as receiver of a write".to_owned(),
                actual: recv_ty.clone(),
                context: ctx.to_owned(),
            })?;
            let def = schema
                .classes
                .get(class)
                .ok_or_else(|| TypeError::UnknownClass {
                    class: class.clone(),
                    context: ctx.to_owned(),
                })?;
            let want = schema
                .classes
                .attr(&def.name, attr.as_str())
                .ok_or_else(|| TypeError::UnknownAttribute {
                    attr: attr.clone(),
                    context: format!("class `{class}` has no such attribute ({ctx})"),
                })?
                .ty
                .clone();
            let got = type_of_expr(schema, env, val, ctx)?;
            if !want.accepts(&got) {
                return Err(TypeError::Mismatch {
                    expected: format!("`{want}` for attribute `{class}.{attr}`"),
                    actual: got,
                    context: ctx.to_owned(),
                });
            }
            Ok(Type::Null)
        }
        Expr::New(class, args) => {
            let def = schema
                .classes
                .get(class)
                .ok_or_else(|| TypeError::UnknownClass {
                    class: class.clone(),
                    context: ctx.to_owned(),
                })?;
            if args.len() != def.attrs.len() {
                return Err(TypeError::ArityMismatch {
                    target: format!("new {class}"),
                    expected: def.attrs.len(),
                    actual: args.len(),
                    context: ctx.to_owned(),
                });
            }
            for (a, attr) in args.iter().zip(&def.attrs) {
                let got = type_of_expr(schema, env, a, ctx)?;
                if !attr.ty.accepts(&got) {
                    return Err(TypeError::Mismatch {
                        expected: format!("`{}` for attribute `{}.{}`", attr.ty, class, attr.name),
                        actual: got,
                        context: ctx.to_owned(),
                    });
                }
            }
            Ok(Type::Class(class.clone()))
        }
        Expr::Let { bindings, body } => {
            let mark = env.len();
            for (name, value) in bindings {
                let t = type_of_expr(schema, env, value, ctx)?;
                env.push(name.clone(), t);
            }
            let t = type_of_expr(schema, env, body, ctx);
            env.truncate(mark);
            t
        }
    }
}

fn type_of_basic(op: BasicOp, tys: &[Type], ctx: &str) -> Result<Type, TypeError> {
    use BasicOp::*;
    let want_all = |want: Type, result: Type| -> Result<Type, TypeError> {
        for t in tys {
            if *t != want {
                return Err(TypeError::Mismatch {
                    expected: format!("`{want}` operand for `{}`", op.symbol()),
                    actual: t.clone(),
                    context: ctx.to_owned(),
                });
            }
        }
        Ok(result)
    };
    match op {
        Add | Sub | Mul | Div | Mod | Neg => want_all(Type::INT, Type::INT),
        Ge | Gt | Le | Lt => want_all(Type::INT, Type::BOOL),
        And | Or | Not => want_all(Type::BOOL, Type::BOOL),
        Concat => want_all(Type::STR, Type::STR),
        EqOp | NeOp => {
            let (a, b) = (&tys[0], &tys[1]);
            if !a.is_basic() || a != b {
                return Err(TypeError::Mismatch {
                    expected: format!("two equal basic-typed operands for `{}`", op.symbol()),
                    actual: if a.is_basic() { b.clone() } else { a.clone() },
                    context: ctx.to_owned(),
                });
            }
            Ok(Type::BOOL)
        }
    }
}

/// The argument types and result type of anything invocable, resolved for a
/// specific receiver class where attributes are ambiguous.
///
/// For `r_att`/`w_att` with several declaring classes, `receiver` selects
/// which; `None` is accepted only when exactly one class declares the
/// attribute.
pub fn fn_ref_signature(
    schema: &Schema,
    target: &FnRef,
    receiver: Option<&ClassName>,
) -> Result<(Vec<Type>, Type), TypeError> {
    match target {
        FnRef::Access(f) => {
            let def = schema
                .function(f)
                .ok_or_else(|| TypeError::UnknownFunction {
                    name: f.clone(),
                    context: "signature lookup".to_owned(),
                })?;
            Ok((
                def.params.iter().map(|(_, t)| t.clone()).collect(),
                def.ret.clone(),
            ))
        }
        FnRef::Read(a) | FnRef::Write(a) => {
            let decls = attr_decls(schema, a);
            let (class, attr_ty) = match receiver {
                Some(c) => {
                    let t = decls
                        .iter()
                        .find(|(cn, _)| *cn == c)
                        .map(|(_, t)| (*t).clone())
                        .ok_or_else(|| TypeError::UnknownAttribute {
                            attr: a.clone(),
                            context: format!("class `{c}`"),
                        })?;
                    (c.clone(), t)
                }
                None => {
                    if decls.len() != 1 {
                        return Err(TypeError::UnknownAttribute {
                            attr: a.clone(),
                            context: format!(
                                "attribute declared by {} classes; receiver class required",
                                decls.len()
                            ),
                        });
                    }
                    (decls[0].0.clone(), decls[0].1.clone())
                }
            };
            match target {
                FnRef::Read(_) => Ok((vec![Type::Class(class)], attr_ty)),
                FnRef::Write(_) => Ok((vec![Type::Class(class), attr_ty], Type::Null)),
                _ => unreachable!("outer match restricts to Read/Write"),
            }
        }
        FnRef::New(c) => {
            let def = schema
                .classes
                .get(c)
                .ok_or_else(|| TypeError::UnknownClass {
                    class: c.clone(),
                    context: "signature lookup".to_owned(),
                })?;
            Ok((
                def.attrs.iter().map(|a| a.ty.clone()).collect(),
                Type::Class(c.clone()),
            ))
        }
    }
}

/// Check a requirement against the schema.
pub fn check_requirement(schema: &Schema, req: &Requirement) -> Result<(), TypeError> {
    if schema.user(&req.user).is_none() {
        return Err(TypeError::BadRequirement {
            message: format!("unknown user `{}` in {req}", req.user),
        });
    }
    check_fn_ref_exists(schema, &req.target).map_err(|_| TypeError::BadRequirement {
        message: format!("unknown target `{}` in {req}", req.target),
    })?;
    let arity = fn_ref_arity(schema, &req.target).expect("existence checked above");
    if req.arity() != arity {
        return Err(TypeError::BadRequirement {
            message: format!(
                "target `{}` has arity {arity}, requirement lists {} argument(s)",
                req.target,
                req.arity()
            ),
        });
    }
    if req.cap_count() == 0 {
        return Err(TypeError::BadRequirement {
            message: format!("requirement {req} lists no capabilities"),
        });
    }

    // Resolve position types; for ambiguous attributes check each declaring
    // class's signature.
    let signatures: Vec<(Vec<Type>, Type)> = match &req.target {
        FnRef::Read(a) | FnRef::Write(a) => attr_decls(schema, a)
            .iter()
            .map(|(c, _)| fn_ref_signature(schema, &req.target, Some(c)))
            .collect::<Result<_, _>>()?,
        _ => vec![fn_ref_signature(schema, &req.target, None)?],
    };
    for (arg_tys, ret_ty) in &signatures {
        for (i, caps) in req.arg_caps.iter().enumerate() {
            check_caps_for_type(caps, &arg_tys[i], || format!("argument {} of {req}", i + 1))?;
        }
        check_caps_for_type(&req.ret_caps, ret_ty, || format!("returned value of {req}"))?;
    }
    Ok(())
}

/// Check capabilities against a position's type; `ctx` names the position
/// and is formatted only for an error.
fn check_caps_for_type(caps: &[Cap], ty: &Type, ctx: impl Fn() -> String) -> Result<(), TypeError> {
    for c in caps {
        if *ty == Type::Null {
            return Err(TypeError::BadRequirement {
                message: format!("capability `{c}` on `null`-typed {} is meaningless", ctx()),
            });
        }
        if c.is_inferability() && !ty.is_basic() {
            return Err(TypeError::BadRequirement {
                message: format!(
                    "inferability capability `{c}` on non-basic type `{ty}` ({}): object \
                     identifiers have no printable form (paper §3.2)",
                    ctx()
                ),
            });
        }
    }
    Ok(())
}

/// Check a query issued by a user; returns the types of the select items.
/// Capability enforcement is the engine's job — this is typing only.
pub fn check_query(schema: &Schema, query: &Query) -> Result<Vec<Type>, TypeError> {
    let mut env = Env::default();
    check_query_inner(schema, query, &mut env)
}

fn check_query_inner(
    schema: &Schema,
    query: &Query,
    env: &mut Env,
) -> Result<Vec<Type>, TypeError> {
    let mark = env.len();
    for (var, src) in &query.from {
        let elem_ty = match src {
            FromSource::Class(c) => {
                if schema.classes.get(c).is_none() {
                    return Err(TypeError::UnknownClass {
                        class: c.clone(),
                        context: "from clause".to_owned(),
                    });
                }
                Type::Class(c.clone())
            }
            FromSource::SetExpr(inv) => {
                let t = type_of_invocation(schema, inv, env)?;
                t.as_set_elem()
                    .cloned()
                    .ok_or_else(|| TypeError::Mismatch {
                        expected: "a set-valued expression in from clause".to_owned(),
                        actual: t.clone(),
                        context: format!("binding of `{var}`"),
                    })?
            }
        };
        env.push(var.clone(), elem_ty);
    }
    let mut item_tys = Vec::with_capacity(query.items.len());
    for item in &query.items {
        let t = match item {
            SelectItem::Invoke(inv) => type_of_invocation(schema, inv, env)?,
            SelectItem::Nested(q) => {
                let inner = check_query_inner(schema, q, env)?;
                // A nested single-item select yields a set of that item's
                // type; multi-item selects yield sets of tuples, which we do
                // not type further (render as a set of strings).
                if inner.len() == 1 {
                    Type::set(inner.into_iter().next().expect("len checked"))
                } else {
                    Type::set(Type::STR)
                }
            }
            SelectItem::Atom(a) => type_of_atom(schema, a, env)?,
        };
        item_tys.push(t);
    }
    if let Some(cond) = &query.filter {
        check_cond(schema, cond, env)?;
    }
    env.truncate(mark);
    Ok(item_tys)
}

fn type_of_atom(_schema: &Schema, atom: &Atom, env: &mut Env) -> Result<Type, TypeError> {
    match atom {
        Atom::Lit(l) => Ok(l.ty()),
        Atom::Var(v) => env
            .lookup(v)
            .cloned()
            .ok_or_else(|| TypeError::UnboundVariable {
                var: v.clone(),
                context: "query".to_owned(),
            }),
    }
}

fn type_of_invocation(schema: &Schema, inv: &Invocation, env: &mut Env) -> Result<Type, TypeError> {
    // Resolve receiver class from the first argument for attribute ops.
    let receiver: Option<ClassName> = match &inv.target {
        FnRef::Read(_) | FnRef::Write(_) => inv.args.first().and_then(|a| {
            type_of_atom(schema, a, env)
                .ok()
                .and_then(|t| t.as_class().cloned())
        }),
        _ => None,
    };
    let (arg_tys, ret_ty) = fn_ref_signature(schema, &inv.target, receiver.as_ref())?;
    if inv.args.len() != arg_tys.len() {
        return Err(TypeError::ArityMismatch {
            target: inv.target.to_string(),
            expected: arg_tys.len(),
            actual: inv.args.len(),
            context: "query".to_owned(),
        });
    }
    for (a, want) in inv.args.iter().zip(&arg_tys) {
        let got = type_of_atom(schema, a, env)?;
        if !want.accepts(&got) {
            return Err(TypeError::Mismatch {
                expected: format!("`{want}` argument for `{}`", inv.target),
                actual: got,
                context: "query".to_owned(),
            });
        }
    }
    Ok(ret_ty)
}

fn check_cond(schema: &Schema, cond: &Cond, env: &mut Env) -> Result<(), TypeError> {
    match cond {
        Cond::True => Ok(()),
        Cond::And(a, b) | Cond::Or(a, b) => {
            check_cond(schema, a, env)?;
            check_cond(schema, b, env)
        }
        Cond::Cmp { lhs, op, rhs } => {
            let lt = type_of_invocation(schema, lhs, env)?;
            let rt = match rhs {
                CmpRhs::Atom(a) => type_of_atom(schema, a, env)?,
                CmpRhs::Invoke(i) => type_of_invocation(schema, i, env)?,
            };
            match op {
                CmpOp::Ge | CmpOp::Gt | CmpOp::Le | CmpOp::Lt => {
                    if lt != Type::INT || rt != Type::INT {
                        return Err(TypeError::Mismatch {
                            expected: format!("`int` operands for `{}`", op.symbol()),
                            actual: if lt == Type::INT { rt } else { lt },
                            context: "where clause".to_owned(),
                        });
                    }
                }
                CmpOp::Eq | CmpOp::Ne => {
                    if !lt.is_basic() || lt != rt {
                        return Err(TypeError::Mismatch {
                            expected: "two equal basic-typed operands".to_owned(),
                            actual: rt,
                            context: "where clause".to_owned(),
                        });
                    }
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_query, parse_requirement, parse_schema};

    const STOCKBROKER: &str = r#"
        class Broker { name: string, salary: int, budget: int, profit: int }

        fn calcSalary(budget: int, profit: int): int {
          budget / 10 + profit / 2
        }

        fn checkBudget(broker: Broker): bool {
          r_budget(broker) >= 10 * r_salary(broker)
        }

        fn updateSalary(broker: Broker): null {
          w_salary(broker, calcSalary(r_budget(broker), r_profit(broker)))
        }

        user clerk { checkBudget, w_budget }
        user payroll { updateSalary, w_budget }

        require (clerk, r_salary(x) : ti)
        require (payroll, w_salary(x, v: ta))
    "#;

    #[test]
    fn stockbroker_schema_checks() {
        let s = parse_schema(STOCKBROKER).unwrap();
        check_schema(&s).unwrap();
    }

    #[test]
    fn recursion_is_rejected() {
        let s = parse_schema("fn f(x: int): int { g(x) } fn g(x: int): int { f(x) }").unwrap();
        match check_schema(&s).unwrap_err() {
            TypeError::RecursiveFunctions { cycle } => {
                assert!(cycle.len() >= 2);
            }
            other => panic!("expected recursion error, got {other}"),
        }
        // Self recursion too.
        let s = parse_schema("fn f(x: int): int { f(x) }").unwrap();
        assert!(matches!(
            check_schema(&s),
            Err(TypeError::RecursiveFunctions { .. })
        ));
    }

    #[test]
    fn unknown_callee_rejected() {
        let s = parse_schema("fn f(x: int): int { g(x) }").unwrap();
        assert!(matches!(
            check_schema(&s),
            Err(TypeError::UnknownFunction { .. })
        ));
    }

    #[test]
    fn body_type_must_match() {
        let s = parse_schema("fn f(x: int): bool { x + 1 }").unwrap();
        assert!(matches!(check_schema(&s), Err(TypeError::Mismatch { .. })));
    }

    #[test]
    fn attribute_ops_typed() {
        let s = parse_schema(
            "class C { x: int } fn f(c: C): int { r_x(c) } fn g(c: C): null { w_x(c, 1) }",
        )
        .unwrap();
        check_schema(&s).unwrap();

        let bad = parse_schema("class C { x: int } fn f(c: C): int { r_y(c) }").unwrap();
        assert!(matches!(
            check_schema(&bad),
            Err(TypeError::UnknownAttribute { .. })
        ));

        let bad = parse_schema("class C { x: int } fn f(c: C): null { w_x(c, true) }").unwrap();
        assert!(matches!(
            check_schema(&bad),
            Err(TypeError::Mismatch { .. })
        ));

        let bad = parse_schema("fn f(x: int): int { r_a(x) }").unwrap();
        assert!(matches!(
            check_schema(&bad),
            Err(TypeError::Mismatch { .. })
        ));
    }

    #[test]
    fn new_constructor_typed() {
        let s = parse_schema("class P { x: int, y: int } fn mk(a: int): P { new P(a, a + 1) }")
            .unwrap();
        check_schema(&s).unwrap();
        let bad = parse_schema("class P { x: int, y: int } fn mk(a: int): P { new P(a) }").unwrap();
        assert!(matches!(
            check_schema(&bad),
            Err(TypeError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn let_scoping() {
        let s = parse_schema("fn f(x: int): int { let y = x + 1, z = y * 2 in z end }").unwrap();
        check_schema(&s).unwrap();
        let bad = parse_schema("fn f(x: int): int { let y = z in y end }").unwrap();
        assert!(matches!(
            check_schema(&bad),
            Err(TypeError::UnboundVariable { .. })
        ));
        // A let-bound variable does not leak out of its body.
        let bad = parse_schema("fn f(x: int): int { (let y = 1 in y end) + y }").unwrap();
        assert!(matches!(
            check_schema(&bad),
            Err(TypeError::UnboundVariable { .. })
        ));
    }

    #[test]
    fn requirement_checks() {
        let s = parse_schema(STOCKBROKER).unwrap();

        let bad = parse_requirement("(ghost, r_salary(x) : ti)").unwrap();
        assert!(matches!(
            check_requirement(&s, &bad),
            Err(TypeError::BadRequirement { .. })
        ));

        let bad = parse_requirement("(clerk, r_missing(x) : ti)").unwrap();
        assert!(matches!(
            check_requirement(&s, &bad),
            Err(TypeError::BadRequirement { .. })
        ));

        let bad = parse_requirement("(clerk, r_salary(x, y) : ti)").unwrap();
        assert!(matches!(
            check_requirement(&s, &bad),
            Err(TypeError::BadRequirement { .. })
        ));

        // No capabilities at all.
        let bad = parse_requirement("(clerk, r_salary(x))").unwrap();
        assert!(matches!(
            check_requirement(&s, &bad),
            Err(TypeError::BadRequirement { .. })
        ));

        // Inferability on an object-typed argument.
        let bad = parse_requirement("(clerk, checkBudget(b: ti) : pi)").unwrap();
        assert!(matches!(
            check_requirement(&s, &bad),
            Err(TypeError::BadRequirement { .. })
        ));

        // Alterability on an object-typed argument is fine.
        let ok = parse_requirement("(clerk, checkBudget(b: ta) : pi)").unwrap();
        check_requirement(&s, &ok).unwrap();

        // Capability on the null return of a write is meaningless.
        let bad = parse_requirement("(clerk, w_budget(x, v) : ti)").unwrap();
        assert!(matches!(
            check_requirement(&s, &bad),
            Err(TypeError::BadRequirement { .. })
        ));
    }

    #[test]
    fn query_typing() {
        let s = parse_schema(
            r#"
            class Person { name: string, age: int, child: {Person} }
            fn profile(p: Person): string { "p: " ++ r_name(p) }
            user u { profile, r_name, r_age, r_child }
            "#,
        )
        .unwrap();
        check_schema(&s).unwrap();

        let q = parse_query("select r_name(p), profile(p) from p in Person where r_age(p) > 20")
            .unwrap();
        let tys = check_query(&s, &q).unwrap();
        assert_eq!(tys, vec![Type::STR, Type::STR]);

        let q =
            parse_query("select (select r_name(q) from q in r_child(p)) from p in Person").unwrap();
        let tys = check_query(&s, &q).unwrap();
        assert_eq!(tys, vec![Type::set(Type::STR)]);

        // Unknown class.
        let q = parse_query("select r_name(p) from p in Nobody").unwrap();
        assert!(matches!(
            check_query(&s, &q),
            Err(TypeError::UnknownClass { .. })
        ));

        // From over a non-set function.
        let q = parse_query("select r_name(p) from p in profile(p)").unwrap();
        assert!(check_query(&s, &q).is_err());

        // Where-clause type error.
        let q = parse_query("select r_name(p) from p in Person where r_name(p) > 3").unwrap();
        assert!(matches!(
            check_query(&s, &q),
            Err(TypeError::Mismatch { .. })
        ));
    }

    #[test]
    fn attack_query_types() {
        let s = parse_schema(STOCKBROKER).unwrap();
        let q = parse_query(
            "select w_budget(b, 1), checkBudget(b), w_budget(b, 2), checkBudget(b) \
             from b in Broker where r_name(b) == \"John\"",
        )
        .unwrap();
        let tys = check_query(&s, &q).unwrap();
        assert_eq!(tys, vec![Type::Null, Type::BOOL, Type::Null, Type::BOOL]);
    }

    #[test]
    fn ambiguous_attribute_needs_receiver() {
        let s = parse_schema("class A { v: int } class B { v: bool }").unwrap();
        check_schema(&s).unwrap();
        // Signature lookup without a receiver is ambiguous…
        assert!(fn_ref_signature(&s, &FnRef::read("v"), None).is_err());
        // …but resolvable with one.
        let (args, ret) =
            fn_ref_signature(&s, &FnRef::read("v"), Some(&ClassName::new("B"))).unwrap();
        assert_eq!(args, vec![Type::class("B")]);
        assert_eq!(ret, Type::BOOL);
    }

    #[test]
    fn a_shared_bad_list_fails_on_its_first_holder() {
        // Users share one stored list when they hold equal grants; the list
        // is checked once, and the error names the first user by name.
        let s = parse_schema(
            "class A { v: int }\n\
             user b { r_v }\n\
             user d { r_v, w_nope }\n\
             user c { r_v, w_nope }\n\
             user e { r_v, w_nope }",
        )
        .unwrap();
        let err = check_schema(&s).unwrap_err().to_string();
        assert_eq!(
            err,
            "bad capability list: user `c`: `w_nope` does not exist in the schema"
        );
    }
}

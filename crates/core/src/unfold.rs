//! Unfolding and numbering: building `S'(F)` (§4.1).
//!
//! Given a set `F` of granted functions we
//!
//! 1. take each member as an *outer-most function* whose arguments the user
//!    supplies directly in queries;
//! 2. recursively replace every inner access-function invocation
//!    `f(e1,…,en)` by `let(f) x1=e1, …, xn=en in body end` (recursion-free
//!    schemas guarantee termination);
//! 3. assign each subexpression occurrence a serial number `k` in
//!    *evaluation order* (arguments before the applying node, bindings
//!    before bodies, left to right), exactly the numbering of the paper's
//!    §4.2 example:
//!
//!    ```text
//!    checkBudget(broker):
//!      7>=( 2r_budget(1broker), 6*( 3 10, 5r_salary(4broker) ) )
//!    w_budget(o, v):
//!      10w_budget(8o, 9v)
//!    ```
//!
//! Numbered expressions live in a flat arena ([`NProgram`]); identities are
//! the serial numbers themselves ([`ExprId`], 1-based — 0 is reserved for
//! the "outer observation" origin of inferability axioms on function
//! results).

use oodb_lang::ast::{Expr, Literal};
use oodb_lang::typeck::fn_ref_signature;
use oodb_lang::{BasicOp, Schema};
use oodb_model::{AttrName, CapabilityList, ClassName, FnName, FnRef, Type, VarName};
use std::fmt;

/// Serial number of a numbered subexpression occurrence (1-based).
pub type ExprId = u32;

/// What a numbered occurrence is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NKind {
    /// A constant in program code.
    Const(Literal),
    /// An occurrence of an argument variable of an outer-most function.
    ArgVar {
        /// Index into [`NProgram::outers`].
        outer: usize,
        /// Parameter position within that outer function.
        param: usize,
        /// Display name.
        name: VarName,
    },
    /// An occurrence of a `let`-bound variable.
    LetVar {
        /// Serial number of the binding's right-hand side expression.
        binding: ExprId,
        /// Display name.
        name: VarName,
    },
    /// A basic-function application.
    Basic(BasicOp, Vec<ExprId>),
    /// `r_att(recv)`.
    Read(AttrName, ExprId),
    /// `w_att(recv, val)`.
    Write(AttrName, ExprId, ExprId),
    /// `new C(args…)`; arguments are paired with the attribute each one
    /// initialises (class-declaration order).
    New(ClassName, Vec<(AttrName, ExprId)>),
    /// A `let` form. `origin` is `Some(f)` when this is an unfolded
    /// invocation of access function `f` (the paper's `let(f)` marker),
    /// `None` for source-level `let`s.
    Let {
        /// `Some(f)` when produced by unfolding a call of `f`.
        origin: Option<FnName>,
        /// Bindings in evaluation order; the ids are the RHS expressions.
        bindings: Vec<(VarName, ExprId)>,
        /// Body expression.
        body: ExprId,
    },
}

impl NKind {
    /// The child occurrence ids this node mentions structurally, in
    /// evaluation order. A `LetVar` mentions its binding (the occurrence
    /// the variable denotes); `Let` lists binding right-hand sides before
    /// the body. Used by the demand slicer to walk the program without
    /// matching on every variant.
    pub fn operands(&self) -> Vec<ExprId> {
        match self {
            NKind::Const(_) | NKind::ArgVar { .. } => Vec::new(),
            NKind::LetVar { binding, .. } => vec![*binding],
            NKind::Basic(_, args) => args.clone(),
            NKind::Read(_, recv) => vec![*recv],
            NKind::Write(_, recv, val) => vec![*recv, *val],
            NKind::New(_, args) => args.iter().map(|(_, a)| *a).collect(),
            NKind::Let { bindings, body, .. } => bindings
                .iter()
                .map(|(_, rhs)| *rhs)
                .chain(std::iter::once(*body))
                .collect(),
        }
    }
}

/// One numbered subexpression occurrence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NExpr {
    /// Serial number.
    pub id: ExprId,
    /// Structure.
    pub kind: NKind,
    /// Static type.
    pub ty: Type,
}

/// One outer-most function from the capability list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outer {
    /// Which granted function this is.
    pub fn_ref: FnRef,
    /// Fresh argument variables and their types.
    pub params: Vec<(VarName, Type)>,
    /// Return type.
    pub ret: Type,
    /// The root expression: the unfolded body for access functions, the
    /// `Read`/`Write`/`New` node for special functions.
    pub root: ExprId,
}

/// Errors during unfolding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnfoldError {
    /// A granted function does not exist in the schema.
    UnknownFn(FnRef),
    /// The unfolded program exceeded the size limit — only possible for
    /// pathological call pyramids (unfolding is worst-case exponential in
    /// call depth).
    TooLarge {
        /// The limit that was hit.
        limit: usize,
    },
    /// Internal error: the schema was not type checked (unbound variable or
    /// unknown callee encountered).
    Malformed(String),
    /// A basic-function application with more arguments than the engine's
    /// fixed-width slot encoding supports. Rejected here, at unfold time,
    /// because the closure engine stores the arity in a small fixed field —
    /// letting an oversized application through would silently truncate it
    /// and mis-dispatch the per-operator metarules.
    ArityOverflow {
        /// The operator's symbol.
        op: &'static str,
        /// The offending argument count.
        arity: usize,
        /// The supported maximum ([`MAX_BASIC_ARITY`]).
        limit: usize,
    },
}

impl fmt::Display for UnfoldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnfoldError::UnknownFn(r) => write!(f, "granted function `{r}` is not in the schema"),
            UnfoldError::TooLarge { limit } => {
                write!(f, "unfolded program exceeds {limit} nodes")
            }
            UnfoldError::Malformed(m) => write!(f, "schema not type-checked: {m}"),
            UnfoldError::ArityOverflow { op, arity, limit } => write!(
                f,
                "basic function `{op}` applied to {arity} arguments; at most {limit} are supported"
            ),
        }
    }
}

impl std::error::Error for UnfoldError {}

/// Default node budget for unfolding.
pub const DEFAULT_NODE_LIMIT: usize = 200_000;

/// Maximum supported arity of a basic-function application. Basic operators
/// are unary or binary; the headroom matches the closure engine's inline
/// slot encoding, which this bound protects from overflow.
pub const MAX_BASIC_ARITY: usize = 4;

/// The numbered, unfolded program `S'(F)`.
#[derive(Clone, Debug, Default)]
pub struct NProgram {
    exprs: Vec<NExpr>,
    /// The outer-most functions, in capability-list order.
    pub outers: Vec<Outer>,
}

#[derive(Clone)]
enum VarTarget {
    Arg { outer: usize, param: usize },
    LetBound { binding: ExprId },
}

struct Builder<'s> {
    schema: &'s Schema,
    prog: NProgram,
    limit: usize,
}

impl NProgram {
    /// Unfold a capability list against a (type-checked) schema.
    pub fn unfold(schema: &Schema, caps: &CapabilityList) -> Result<NProgram, UnfoldError> {
        Self::unfold_with_limit(schema, caps, DEFAULT_NODE_LIMIT)
    }

    /// Unfold with an explicit node budget.
    pub fn unfold_with_limit(
        schema: &Schema,
        caps: &CapabilityList,
        limit: usize,
    ) -> Result<NProgram, UnfoldError> {
        let mut b = Builder {
            schema,
            prog: NProgram::default(),
            limit,
        };
        for fn_ref in caps.iter() {
            b.outer(fn_ref)?;
        }
        Ok(b.prog)
    }

    /// Number of numbered occurrences.
    pub fn len(&self) -> usize {
        self.exprs.len()
    }

    /// Is the program empty?
    pub fn is_empty(&self) -> bool {
        self.exprs.is_empty()
    }

    /// Look up an occurrence (panics on id 0 or out of range — ids come from
    /// this program).
    pub fn get(&self, id: ExprId) -> &NExpr {
        &self.exprs[(id - 1) as usize]
    }

    /// Iterate over all occurrences in numbering order.
    pub fn iter(&self) -> impl Iterator<Item = &NExpr> {
        self.exprs.iter()
    }

    /// Index of the outer-most function an occurrence belongs to.
    pub fn outer_index_of(&self, id: ExprId) -> Option<usize> {
        let mut lo = 1;
        for (idx, outer) in self.outers.iter().enumerate() {
            let hi = self.span_end(outer.root);
            if (lo..=hi).contains(&id) {
                return Some(idx);
            }
            lo = hi + 1;
        }
        None
    }

    /// The outer-most function an occurrence belongs to.
    pub fn outer_of(&self, id: ExprId) -> Option<&Outer> {
        // Outers own disjoint, contiguous id ranges ending at their root.
        let mut lo = 1;
        for outer in &self.outers {
            let hi = self.span_end(outer.root);
            if (lo..=hi).contains(&id) {
                return Some(outer);
            }
            lo = hi + 1;
        }
        None
    }

    fn span_end(&self, root: ExprId) -> ExprId {
        // Ids are assigned post-order, so the root has the largest id of its
        // subtree.
        root
    }

    /// Render an occurrence in the paper's numbered notation, e.g.
    /// `7>=(2r_budget(1broker), 6*(3:10, 5r_salary(4broker)))`.
    pub fn render(&self, id: ExprId) -> String {
        let mut s = String::new();
        self.render_into(id, &mut s);
        s
    }

    fn render_into(&self, id: ExprId, out: &mut String) {
        use std::fmt::Write;
        let e = self.get(id);
        let _ = write!(out, "{}", e.id);
        match &e.kind {
            NKind::Const(l) => {
                let _ = write!(out, ":{l}");
            }
            NKind::ArgVar { name, .. } | NKind::LetVar { name, .. } => {
                let _ = write!(out, "{name}");
            }
            NKind::Basic(op, args) => {
                let _ = write!(out, "{}(", op.symbol());
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    self.render_into(*a, out);
                }
                out.push(')');
            }
            NKind::Read(attr, recv) => {
                let _ = write!(out, "r_{attr}(");
                self.render_into(*recv, out);
                out.push(')');
            }
            NKind::Write(attr, recv, val) => {
                let _ = write!(out, "w_{attr}(");
                self.render_into(*recv, out);
                out.push_str(", ");
                self.render_into(*val, out);
                out.push(')');
            }
            NKind::New(class, args) => {
                let _ = write!(out, "new {class}(");
                for (i, (_, a)) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    self.render_into(*a, out);
                }
                out.push(')');
            }
            NKind::Let {
                origin,
                bindings,
                body,
            } => {
                match origin {
                    Some(f) => {
                        let _ = write!(out, "let({f}) ");
                    }
                    None => out.push_str("let "),
                }
                for (i, (name, rhs)) in bindings.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{name}=");
                    self.render_into(*rhs, out);
                }
                out.push_str(" in ");
                self.render_into(*body, out);
                out.push_str(" end");
            }
        }
    }

    /// A short rendering (node only, children as bare numbers) used in
    /// compact proofs.
    pub fn render_shallow(&self, id: ExprId) -> String {
        let e = self.get(id);
        match &e.kind {
            NKind::Const(l) => format!("{}:{l}", e.id),
            NKind::ArgVar { name, .. } | NKind::LetVar { name, .. } => format!("{}{name}", e.id),
            NKind::Basic(op, args) => format!(
                "{}{}({})",
                e.id,
                op.symbol(),
                args.iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            NKind::Read(attr, recv) => format!("{}r_{attr}({recv})", e.id),
            NKind::Write(attr, recv, val) => format!("{}w_{attr}({recv},{val})", e.id),
            NKind::New(class, args) => format!(
                "{}new {class}({})",
                e.id,
                args.iter()
                    .map(|(_, a)| a.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            NKind::Let { origin, body, .. } => match origin {
                Some(f) => format!("{}let({f})…in {body}", e.id),
                None => format!("{}let…in {body}", e.id),
            },
        }
    }
}

/// Every occurrence in a program touching one attribute, grouped by role.
///
/// The write-read, constructor-read and attribute-congruence rules of
/// Table 2 only ever connect expressions drawn from these site lists, so
/// the demand slicer can treat each attribute as one equality "hub":
/// once any read, written value or constructor argument of the attribute
/// is relevant, the whole hub (plus the supporting receivers and
/// constructor nodes the rule premises mention) must be, and nothing
/// outside it can reach the goal through that attribute.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AttrSites {
    /// `r_att(recv)` nodes.
    pub reads: Vec<ExprId>,
    /// Receivers of `w_att(recv, val)` nodes.
    pub write_receivers: Vec<ExprId>,
    /// Written values of `w_att(recv, val)` nodes.
    pub write_values: Vec<ExprId>,
    /// `new C(…)` nodes that initialise the attribute.
    pub ctor_nodes: Vec<ExprId>,
    /// Constructor arguments that initialise the attribute.
    pub ctor_args: Vec<ExprId>,
}

impl NProgram {
    /// Per-attribute site lists, in first-seen order of the attributes.
    pub fn attr_sites(&self) -> Vec<(AttrName, AttrSites)> {
        let mut out: Vec<(AttrName, AttrSites)> = Vec::new();
        fn entry<'a>(
            out: &'a mut Vec<(AttrName, AttrSites)>,
            attr: &AttrName,
        ) -> &'a mut AttrSites {
            match out.iter().position(|(a, _)| a == attr) {
                Some(i) => &mut out[i].1,
                None => {
                    out.push((attr.clone(), AttrSites::default()));
                    &mut out.last_mut().expect("just pushed").1
                }
            }
        }
        for e in self.iter() {
            match &e.kind {
                NKind::Read(attr, _) => entry(&mut out, attr).reads.push(e.id),
                NKind::Write(attr, recv, val) => {
                    let s = entry(&mut out, attr);
                    s.write_receivers.push(*recv);
                    s.write_values.push(*val);
                }
                NKind::New(_, args) => {
                    for (attr, arg) in args {
                        let s = entry(&mut out, attr);
                        s.ctor_nodes.push(e.id);
                        s.ctor_args.push(*arg);
                    }
                }
                _ => {}
            }
        }
        out
    }
}

impl Builder<'_> {
    fn push(&mut self, kind: NKind, ty: Type) -> Result<ExprId, UnfoldError> {
        if self.prog.exprs.len() >= self.limit {
            return Err(UnfoldError::TooLarge { limit: self.limit });
        }
        let id = (self.prog.exprs.len() + 1) as ExprId;
        self.prog.exprs.push(NExpr { id, kind, ty });
        Ok(id)
    }

    fn outer(&mut self, fn_ref: &FnRef) -> Result<(), UnfoldError> {
        let outer_idx = self.prog.outers.len();
        match fn_ref {
            FnRef::Access(name) => {
                let def = self
                    .schema
                    .function(name)
                    .ok_or_else(|| UnfoldError::UnknownFn(fn_ref.clone()))?
                    .clone();
                // Reserve the Outer before unfolding so ArgVar nodes can
                // point at it.
                self.prog.outers.push(Outer {
                    fn_ref: fn_ref.clone(),
                    params: def.params.clone(),
                    ret: def.ret.clone(),
                    root: 0,
                });
                let scope: Vec<(VarName, VarTarget, Type)> = def
                    .params
                    .iter()
                    .enumerate()
                    .map(|(i, (p, t))| {
                        (
                            p.clone(),
                            VarTarget::Arg {
                                outer: outer_idx,
                                param: i,
                            },
                            t.clone(),
                        )
                    })
                    .collect();
                let root = self.unfold_expr(&def.body, &scope)?;
                self.prog.outers[outer_idx].root = root;
                Ok(())
            }
            FnRef::Read(_) | FnRef::Write(_) | FnRef::New(_) => {
                // Special functions: the root is the primitive node applied
                // to fresh argument variables. Where an attribute is
                // declared by several classes, unfold one outer per
                // declaring class (the paper's requirement semantics ranges
                // over all implementations).
                let signatures: Vec<(Vec<Type>, Type)> = match fn_ref {
                    FnRef::Read(attr) | FnRef::Write(attr) => {
                        let classes: Vec<ClassName> =
                            oodb_lang::typeck::attr_decls(self.schema, attr)
                                .into_iter()
                                .map(|(c, _)| c.clone())
                                .collect();
                        if classes.is_empty() {
                            return Err(UnfoldError::UnknownFn(fn_ref.clone()));
                        }
                        classes
                            .iter()
                            .map(|c| {
                                fn_ref_signature(self.schema, fn_ref, Some(c))
                                    .map_err(|e| UnfoldError::Malformed(e.to_string()))
                            })
                            .collect::<Result<_, _>>()?
                    }
                    FnRef::New(_) => vec![fn_ref_signature(self.schema, fn_ref, None)
                        .map_err(|_| UnfoldError::UnknownFn(fn_ref.clone()))?],
                    FnRef::Access(_) => unreachable!("outer match handles access"),
                };
                for (arg_tys, ret) in signatures {
                    let outer_idx = self.prog.outers.len();
                    let params: Vec<(VarName, Type)> = arg_tys
                        .iter()
                        .enumerate()
                        .map(|(i, t)| (VarName::new(format!("a{}", i + 1)), t.clone()))
                        .collect();
                    self.prog.outers.push(Outer {
                        fn_ref: fn_ref.clone(),
                        params: params.clone(),
                        ret: ret.clone(),
                        root: 0,
                    });
                    let mut arg_ids = Vec::with_capacity(params.len());
                    for (i, (p, t)) in params.iter().enumerate() {
                        let id = self.push(
                            NKind::ArgVar {
                                outer: outer_idx,
                                param: i,
                                name: p.clone(),
                            },
                            t.clone(),
                        )?;
                        arg_ids.push(id);
                    }
                    let root = match fn_ref {
                        FnRef::Read(attr) => {
                            self.push(NKind::Read(attr.clone(), arg_ids[0]), ret.clone())?
                        }
                        FnRef::Write(attr) => self.push(
                            NKind::Write(attr.clone(), arg_ids[0], arg_ids[1]),
                            ret.clone(),
                        )?,
                        FnRef::New(class) => {
                            let attr_names: Vec<AttrName> = self
                                .schema
                                .classes
                                .get(class)
                                .map(|d| d.attrs.iter().map(|a| a.name.clone()).collect())
                                .ok_or_else(|| UnfoldError::UnknownFn(fn_ref.clone()))?;
                            let paired = attr_names.into_iter().zip(arg_ids).collect();
                            self.push(NKind::New(class.clone(), paired), ret.clone())?
                        }
                        FnRef::Access(_) => unreachable!("outer match handles access"),
                    };
                    self.prog.outers[outer_idx].root = root;
                }
                Ok(())
            }
        }
    }

    fn unfold_expr(
        &mut self,
        expr: &Expr,
        scope: &[(VarName, VarTarget, Type)],
    ) -> Result<ExprId, UnfoldError> {
        match expr {
            Expr::Const(l) => self.push(NKind::Const(l.clone()), l.ty()),
            Expr::Var(v) => {
                let (_, target, ty) = scope
                    .iter()
                    .rev()
                    .find(|(n, _, _)| n == v)
                    .ok_or_else(|| UnfoldError::Malformed(format!("unbound variable `{v}`")))?;
                let kind = match target {
                    VarTarget::Arg { outer, param } => NKind::ArgVar {
                        outer: *outer,
                        param: *param,
                        name: v.clone(),
                    },
                    VarTarget::LetBound { binding } => NKind::LetVar {
                        binding: *binding,
                        name: v.clone(),
                    },
                };
                self.push(kind, ty.clone())
            }
            Expr::Basic(op, args) => {
                if args.len() > MAX_BASIC_ARITY {
                    return Err(UnfoldError::ArityOverflow {
                        op: op.symbol(),
                        arity: args.len(),
                        limit: MAX_BASIC_ARITY,
                    });
                }
                let mut ids = Vec::with_capacity(args.len());
                for a in args {
                    ids.push(self.unfold_expr(a, scope)?);
                }
                let ty = basic_result_type(*op);
                self.push(NKind::Basic(*op, ids), ty)
            }
            Expr::Read(attr, recv) => {
                let r = self.unfold_expr(recv, scope)?;
                let recv_ty = self.prog.get(r).ty.clone();
                let class = recv_ty
                    .as_class()
                    .ok_or_else(|| UnfoldError::Malformed("read on non-object".into()))?;
                let ty = self
                    .schema
                    .classes
                    .attr(class, attr.as_str())
                    .map(|a| a.ty.clone())
                    .ok_or_else(|| {
                        UnfoldError::Malformed(format!("unknown attribute `{class}.{attr}`"))
                    })?;
                self.push(NKind::Read(attr.clone(), r), ty)
            }
            Expr::Write(attr, recv, val) => {
                let r = self.unfold_expr(recv, scope)?;
                let v = self.unfold_expr(val, scope)?;
                self.push(NKind::Write(attr.clone(), r, v), Type::Null)
            }
            Expr::New(class, args) => {
                let attr_names: Vec<AttrName> = self
                    .schema
                    .classes
                    .get(class)
                    .map(|d| d.attrs.iter().map(|a| a.name.clone()).collect())
                    .ok_or_else(|| UnfoldError::Malformed(format!("unknown class `{class}`")))?;
                let mut ids = Vec::with_capacity(args.len());
                for a in args {
                    ids.push(self.unfold_expr(a, scope)?);
                }
                let paired = attr_names.into_iter().zip(ids).collect();
                self.push(
                    NKind::New(class.clone(), paired),
                    Type::Class(class.clone()),
                )
            }
            Expr::Let { bindings, body } => {
                let mut scope2 = scope.to_vec();
                let mut bound = Vec::with_capacity(bindings.len());
                for (name, value) in bindings {
                    let rhs = self.unfold_expr(value, &scope2)?;
                    let ty = self.prog.get(rhs).ty.clone();
                    scope2.push((name.clone(), VarTarget::LetBound { binding: rhs }, ty));
                    bound.push((name.clone(), rhs));
                }
                let b = self.unfold_expr(body, &scope2)?;
                let ty = self.prog.get(b).ty.clone();
                self.push(
                    NKind::Let {
                        origin: None,
                        bindings: bound,
                        body: b,
                    },
                    ty,
                )
            }
            Expr::Call(name, args) => {
                // f(e1,…,en)  ⇒  let(f) x1=e1',…,xn=en' in body' end
                let def = self
                    .schema
                    .function(name)
                    .ok_or_else(|| UnfoldError::Malformed(format!("unknown function `{name}`")))?
                    .clone();
                let mut bound = Vec::with_capacity(args.len());
                let mut callee_scope = Vec::with_capacity(args.len());
                for (a, (p, t)) in args.iter().zip(&def.params) {
                    let rhs = self.unfold_expr(a, scope)?;
                    bound.push((p.clone(), rhs));
                    callee_scope.push((p.clone(), VarTarget::LetBound { binding: rhs }, t.clone()));
                }
                let b = self.unfold_expr(&def.body, &callee_scope)?;
                self.push(
                    NKind::Let {
                        origin: Some(name.clone()),
                        bindings: bound,
                        body: b,
                    },
                    def.ret.clone(),
                )
            }
        }
    }
}

fn basic_result_type(op: BasicOp) -> Type {
    use BasicOp::*;
    match op {
        Add | Sub | Mul | Div | Mod | Neg => Type::INT,
        Ge | Gt | Le | Lt | EqOp | NeOp | And | Or | Not => Type::BOOL,
        Concat => Type::STR,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_lang::parse_schema;

    fn stockbroker() -> Schema {
        parse_schema(
            r#"
            class Broker { name: string, salary: int, budget: int, profit: int }
            fn checkBudget(broker: Broker): bool {
              r_budget(broker) >= 10 * r_salary(broker)
            }
            user clerk { checkBudget, w_budget }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn paper_numbering_reproduced() {
        // §4.2: checkBudget unfolds to
        //   7>=(2r_budget(1broker), 6*(3:10, 5r_salary(4broker)))
        // and w_budget(o, v) to 10w_budget(8o, 9v).
        let schema = stockbroker();
        let caps = schema.user_str("clerk").unwrap();
        let p = NProgram::unfold(&schema, caps).unwrap();
        assert_eq!(p.outers.len(), 2);
        // Capability lists iterate in order: checkBudget < w_budget.
        let check = &p.outers[0];
        assert_eq!(check.fn_ref, FnRef::access("checkBudget"));
        assert_eq!(check.root, 7);
        assert_eq!(
            p.render(check.root),
            "7>=(2r_budget(1broker), 6*(3:10, 5r_salary(4broker)))"
        );
        let w = &p.outers[1];
        assert_eq!(w.fn_ref, FnRef::write("budget"));
        assert_eq!(w.root, 10);
        assert_eq!(p.render(w.root), "10w_budget(8a1, 9a2)");
        assert_eq!(p.len(), 10);
    }

    #[test]
    fn types_assigned() {
        let schema = stockbroker();
        let caps = schema.user_str("clerk").unwrap();
        let p = NProgram::unfold(&schema, caps).unwrap();
        assert_eq!(p.get(1).ty, Type::class("Broker")); // 1broker
        assert_eq!(p.get(2).ty, Type::INT); // r_budget
        assert_eq!(p.get(3).ty, Type::INT); // 10
        assert_eq!(p.get(7).ty, Type::BOOL); // >=
        assert_eq!(p.get(10).ty, Type::Null); // w_budget
    }

    #[test]
    fn inner_calls_become_lets() {
        // The paper's F = {f(x), r_name(person)} with f(x) = +(g(x),1),
        // g(y) = r_age(y):
        //   6+(4let(g) y=1x in 3r_age(2y) end, 5:1), plus r_name outer.
        let schema = parse_schema(
            r#"
            class Person { name: string, age: int }
            fn g(y: Person): int { r_age(y) }
            fn f(x: Person): int { g(x) + 1 }
            user u { f, r_name }
            "#,
        )
        .unwrap();
        let caps = schema.user_str("u").unwrap();
        let p = NProgram::unfold(&schema, caps).unwrap();
        let f = &p.outers[0];
        assert_eq!(p.render(f.root), "6+(4let(g) y=1x in 3r_age(2y) end, 5:1)");
        let r = &p.outers[1];
        assert_eq!(p.render(r.root), "8r_name(7a1)");
        // The let-var occurrence points at its binding.
        match &p.get(2).kind {
            NKind::LetVar { binding, name } => {
                assert_eq!(*binding, 1);
                assert_eq!(name.as_str(), "y");
            }
            other => panic!("expected LetVar, got {other:?}"),
        }
    }

    #[test]
    fn outer_of_identifies_ranges() {
        let schema = stockbroker();
        let caps = schema.user_str("clerk").unwrap();
        let p = NProgram::unfold(&schema, caps).unwrap();
        assert_eq!(p.outer_of(1).unwrap().fn_ref, FnRef::access("checkBudget"));
        assert_eq!(p.outer_of(7).unwrap().fn_ref, FnRef::access("checkBudget"));
        assert_eq!(p.outer_of(8).unwrap().fn_ref, FnRef::write("budget"));
        assert_eq!(p.outer_of(10).unwrap().fn_ref, FnRef::write("budget"));
        assert!(p.outer_of(11).is_none());
    }

    #[test]
    fn unknown_capability_is_error() {
        let schema = stockbroker();
        let caps: CapabilityList = [FnRef::access("ghost")].into_iter().collect();
        assert!(matches!(
            NProgram::unfold(&schema, &caps),
            Err(UnfoldError::UnknownFn(_))
        ));
        let caps: CapabilityList = [FnRef::read("ghost")].into_iter().collect();
        assert!(matches!(
            NProgram::unfold(&schema, &caps),
            Err(UnfoldError::UnknownFn(_))
        ));
    }

    #[test]
    fn node_limit_enforced() {
        let schema = stockbroker();
        let caps = schema.user_str("clerk").unwrap();
        assert!(matches!(
            NProgram::unfold_with_limit(&schema, caps, 3),
            Err(UnfoldError::TooLarge { limit: 3 })
        ));
    }

    #[test]
    fn ambiguous_attribute_unfolds_per_class() {
        let schema = parse_schema(
            r#"
            class A { v: int }
            class B { v: int }
            user u { r_v }
            "#,
        )
        .unwrap();
        let caps = schema.user_str("u").unwrap();
        let p = NProgram::unfold(&schema, caps).unwrap();
        // One outer per declaring class.
        assert_eq!(p.outers.len(), 2);
        assert_eq!(p.outers[0].params[0].1, Type::class("A"));
        assert_eq!(p.outers[1].params[0].1, Type::class("B"));
    }

    #[test]
    fn source_level_let_unfolds() {
        let schema = parse_schema(
            r#"
            fn f(x: int): int { let y = x + 1 in y * y end }
            user u { f }
            "#,
        )
        .unwrap();
        let caps = schema.user_str("u").unwrap();
        let p = NProgram::unfold(&schema, caps).unwrap();
        let root = p.outers[0].root;
        assert_eq!(p.render(root), "7let y=3+(1x, 2:1) in 6*(4y, 5y) end");
        // Both body occurrences of y point to binding 3.
        for id in [4, 5] {
            match &p.get(id).kind {
                NKind::LetVar { binding, .. } => assert_eq!(*binding, 3),
                other => panic!("expected LetVar, got {other:?}"),
            }
        }
    }

    #[test]
    fn operands_follow_structure() {
        let schema = stockbroker();
        let caps = schema.user_str("clerk").unwrap();
        let p = NProgram::unfold(&schema, caps).unwrap();
        // 7>=(2r_budget(1broker), 6*(3:10, 5r_salary(4broker))), 10w_budget(8a1, 9a2)
        assert_eq!(p.get(7).kind.operands(), vec![2, 6]);
        assert_eq!(p.get(2).kind.operands(), vec![1]);
        assert_eq!(p.get(1).kind.operands(), Vec::<ExprId>::new());
        assert_eq!(p.get(10).kind.operands(), vec![8, 9]);
    }

    #[test]
    fn attr_sites_group_by_attribute() {
        let schema = stockbroker();
        let caps = schema.user_str("clerk").unwrap();
        let p = NProgram::unfold(&schema, caps).unwrap();
        let sites = p.attr_sites();
        let budget = &sites
            .iter()
            .find(|(a, _)| a.as_str() == "budget")
            .expect("budget sites")
            .1;
        assert_eq!(budget.reads, vec![2]);
        assert_eq!(budget.write_receivers, vec![8]);
        assert_eq!(budget.write_values, vec![9]);
        assert!(budget.ctor_nodes.is_empty());
        let salary = &sites
            .iter()
            .find(|(a, _)| a.as_str() == "salary")
            .expect("salary sites")
            .1;
        assert_eq!(salary.reads, vec![5]);
        assert!(salary.write_values.is_empty());
    }

    #[test]
    fn attr_sites_cover_constructors() {
        let schema = parse_schema(
            r#"
            class P { x: int }
            user u { new P, r_x }
            "#,
        )
        .unwrap();
        let caps = schema.user_str("u").unwrap();
        let p = NProgram::unfold(&schema, caps).unwrap();
        let sites = p.attr_sites();
        let x = &sites.iter().find(|(a, _)| a.as_str() == "x").unwrap().1;
        // 2r_x(1a1), 4new P(3a1)
        assert_eq!(x.ctor_nodes, vec![4]);
        assert_eq!(x.ctor_args, vec![3]);
        assert_eq!(x.reads, vec![2]);
    }

    #[test]
    fn new_constructor_unfolds() {
        let schema = parse_schema(
            r#"
            class P { x: int }
            user u { new P }
            "#,
        )
        .unwrap();
        let caps = schema.user_str("u").unwrap();
        let p = NProgram::unfold(&schema, caps).unwrap();
        assert_eq!(p.render(p.outers[0].root), "2new P(1a1)");
        assert_eq!(p.get(2).ty, Type::class("P"));
    }

    /// A parsed schema with `f`'s body replaced by one `+` application over
    /// `arity` copies of `x`. The surface grammar only produces binary
    /// basics, so the wide node is injected directly into the AST.
    fn wide_basic_schema(arity: usize) -> Schema {
        let mut schema = parse_schema(
            r#"
            fn f(x: int): int { x + x }
            user u { f }
            "#,
        )
        .unwrap();
        let f = schema.functions.get_mut(&FnName::from("f")).unwrap();
        f.body = Expr::Basic(BasicOp::Add, vec![Expr::Var(VarName::from("x")); arity]);
        schema
    }

    #[test]
    fn basic_arity_over_the_limit_is_rejected() {
        // Just past the supported width: unfolding must refuse rather than
        // build a node the local-rule tables have no schemas for.
        let schema = wide_basic_schema(MAX_BASIC_ARITY + 1);
        let caps = schema.user_str("u").unwrap();
        let err = NProgram::unfold(&schema, caps).unwrap_err();
        assert_eq!(
            err,
            UnfoldError::ArityOverflow {
                op: "+",
                arity: MAX_BASIC_ARITY + 1,
                limit: MAX_BASIC_ARITY
            }
        );
        assert!(
            err.to_string().contains("at most 4"),
            "unexpected message: {err}"
        );
    }

    #[test]
    fn basic_arity_beyond_u8_is_rejected_not_truncated() {
        // Before the guard, a 300-argument node survived unfolding and the
        // closure engine stored slot indices as `args.len() as u8`,
        // silently wrapping 300 to 44. Now it never reaches the engine.
        let schema = wide_basic_schema(300);
        let caps = schema.user_str("u").unwrap();
        match NProgram::unfold(&schema, caps) {
            Err(UnfoldError::ArityOverflow { arity: 300, .. }) => {}
            other => panic!("expected ArityOverflow for arity 300, got {other:?}"),
        }
    }

    #[test]
    fn basic_arity_at_the_limit_still_unfolds() {
        let schema = wide_basic_schema(MAX_BASIC_ARITY);
        let caps = schema.user_str("u").unwrap();
        let p = NProgram::unfold(&schema, caps).expect("limit arity unfolds");
        // `arity` argument occurrences plus the applying node itself.
        assert_eq!(p.len(), MAX_BASIC_ARITY + 1);
    }
}

//! Certifying proof checker for `F(F)` derivations (Table 2).
//!
//! After three engine rewrites (fastpath interning, demand slicing,
//! semi-naive deltas) the only guard on the closure engine was differential
//! testing between our own engines — a bug shared by every engine passes
//! silently. Following the certifying-algorithms stance, this module makes
//! every analysis *checkable*: given a [`Closure`] computed under
//! [`ProofMode::Full`], [`Closure::certify`] independently re-validates
//! every recorded [`Derivation`] against the declarative rule schemas.
//!
//! ## What is checked
//!
//! For every term in the closure:
//!
//! 1. a proof is recorded ([`CheckError::MissingProof`] otherwise);
//! 2. every premise of the proof is itself in the closure
//!    ([`CheckError::DanglingPremise`]);
//! 3. the step instantiates the rule schema its label names — an axiom
//!    schema justified by the program structure (which is the unfolding
//!    `S'(F)` of the user's capability list), a Table-2 rule, or a
//!    basic-function metarule from [`crate::basics::rules_for`], with the
//!    feedback guards honoured ([`CheckError::BadStep`]);
//! 4. the proof DAG is acyclic ([`CheckError::Cyclic`]); with (1)–(3) this
//!    grounds every term, including every reported flaw's witness terms,
//!    in the axioms.
//!
//! ## Independence argument
//!
//! The checker shares **no code** with the engine's `derive`/`propagate`
//! machinery. Its trusted base is exactly the *declarative* description of
//! the inference system:
//!
//! * [`crate::term`] — term shapes and the `=`/`pi*` normalisation;
//! * [`crate::rules`] — rule labels, the [`RuleConfig`] gates and the
//!   axiom semantics (re-validated structurally, not by calling
//!   [`crate::rules::axioms_with`]);
//! * [`crate::basics`] — the per-operator metarule *tables* (pure data);
//! * [`crate::unfold`] — the numbered program the closure was computed
//!   from.
//!
//! It reads the closure only through its public query API (`iter`,
//! `proof`, `contains`, `proof_mode`), builds its own structural indexes
//! from the [`NProgram`] (hashed with the crate's plain Fx hasher — a
//! utility, not an evaluation path), and never invokes any engine
//! evaluation path. An engine bug therefore cannot hide itself: to
//! fool the checker it would have to fabricate a derivation that *is* a
//! valid schema instance — i.e. not be a bug in the sense of Theorem 1.

use crate::basics::{rules_for, LCap, LTerm, LocalRule, Slot};
use crate::closure::{Closure, Derivation, ProofMode};
use crate::fxhash::FxHashMap;
use crate::rules::{labels, RuleConfig};
use crate::term::{Dir, Origin, Term};
use crate::unfold::{ExprId, NExpr, NKind, NProgram};
use oodb_lang::BasicOp;
use oodb_model::AttrName;
use std::fmt;

/// A successful certification: every proof in the closure re-validated
/// against the rule schemas, with per-rule check counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// Total number of terms whose proofs were checked.
    pub terms_checked: usize,
    /// Terms justified by axiom schemas (empty premise lists).
    pub axioms: usize,
    /// Terms justified by rule applications.
    pub derived: usize,
    /// Check counts per rule label, sorted by label for determinism.
    pub rule_checks: Vec<(&'static str, u64)>,
}

/// A failed certification, naming the first bad step (terms are visited in
/// sorted order, so the failure is deterministic).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// The closure was computed under [`ProofMode::Off`]; there is nothing
    /// to certify.
    NoProofs,
    /// A term is in the closure but carries no derivation.
    MissingProof {
        /// The unproved term.
        term: Term,
    },
    /// A derivation cites a premise that is not in the closure.
    DanglingPremise {
        /// The term whose proof is broken.
        term: Term,
        /// The cited premise missing from the closure.
        premise: Term,
    },
    /// A derivation is not an instance of the rule schema its label names.
    BadStep {
        /// The term whose proof is broken.
        term: Term,
        /// The rule label the derivation claims.
        rule: &'static str,
        /// Why the step does not instantiate the schema.
        reason: String,
    },
    /// The proof DAG contains a cycle through this term.
    Cyclic {
        /// A term on the cycle.
        term: Term,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::NoProofs => {
                write!(f, "closure was computed without proofs (ProofMode::Off)")
            }
            CheckError::MissingProof { term } => {
                write!(f, "term {term} has no recorded derivation")
            }
            CheckError::DanglingPremise { term, premise } => {
                write!(
                    f,
                    "derivation of {term} cites premise {premise} which is not in the closure"
                )
            }
            CheckError::BadStep { term, rule, reason } => {
                write!(
                    f,
                    "derivation of {term} is not an instance of rule `{rule}`: {reason}"
                )
            }
            CheckError::Cyclic { term } => {
                write!(f, "proof DAG is cyclic through {term}")
            }
        }
    }
}

impl std::error::Error for CheckError {}

impl Closure {
    /// Independently re-validate every proof in the closure against the
    /// Table-2 rule schemas and basic-function metarules (see the module
    /// docs for the exact obligations and the independence argument).
    ///
    /// `prog` must be the program the closure was computed from and
    /// `config` the rule configuration it was computed under; the checker
    /// enforces the config's rule-group gates, so certifying against a
    /// different configuration fails.
    pub fn certify(&self, prog: &NProgram, config: &RuleConfig) -> Result<Certificate, CheckError> {
        if self.proof_mode() == ProofMode::Off {
            return Err(CheckError::NoProofs);
        }
        let mut checker = Checker::new(prog, config);
        let mut terms: Vec<Term> = self.iter().collect();
        terms.sort();

        let mut axioms = 0usize;
        let mut derived = 0usize;
        let mut counts: FxHashMap<&'static str, u64> = FxHashMap::default();
        for &t in &terms {
            let d = self.proof(&t).ok_or(CheckError::MissingProof { term: t })?;
            for p in &d.premises {
                if !self.contains(p) {
                    return Err(CheckError::DanglingPremise {
                        term: t,
                        premise: *p,
                    });
                }
            }
            checker
                .check_step(t, d)
                .map_err(|reason| CheckError::BadStep {
                    term: t,
                    rule: d.rule,
                    reason,
                })?;
            if d.premises.is_empty() {
                axioms += 1;
            } else {
                derived += 1;
            }
            *counts.entry(d.rule).or_insert(0) += 1;
        }

        // Acyclicity: iterative tri-colour DFS over the proof DAG. Every
        // premise is in the closure and every closure term has a checked
        // proof, so acyclicity grounds the whole DAG in the axioms.
        let mut colour: FxHashMap<Term, u8> = FxHashMap::default(); // 1 = on stack, 2 = done
        for &root in &terms {
            if colour.get(&root).copied() == Some(2) {
                continue;
            }
            colour.insert(root, 1);
            let mut stack: Vec<(Term, usize)> = vec![(root, 0)];
            while let Some(&(t, i)) = stack.last() {
                let prems = &self.proof(&t).expect("checked above").premises;
                if i < prems.len() {
                    stack.last_mut().expect("non-empty").1 += 1;
                    let p = prems[i];
                    match colour.get(&p).copied() {
                        Some(1) => return Err(CheckError::Cyclic { term: p }),
                        Some(2) => {}
                        _ => {
                            colour.insert(p, 1);
                            stack.push((p, 0));
                        }
                    }
                } else {
                    colour.insert(t, 2);
                    stack.pop();
                }
            }
        }

        let mut rule_checks: Vec<(&'static str, u64)> = counts.into_iter().collect();
        rule_checks.sort();
        Ok(Certificate {
            terms_checked: terms.len(),
            axioms,
            derived,
            rule_checks,
        })
    }
}

/// The schema validator: program-derived structural indexes plus the rule
/// configuration. Check methods return `Err(reason)` for [`CheckError::BadStep`].
struct Checker<'p> {
    prog: &'p NProgram,
    config: &'p RuleConfig,
    /// Write sites by receiver: recv → (attribute, written value).
    writes_by_recv: FxHashMap<ExprId, Vec<(&'p AttrName, ExprId)>>,
    /// Metarule tables per operator, materialised once.
    rules: FxHashMap<BasicOp, Vec<LocalRule>>,
}

impl<'p> Checker<'p> {
    fn new(prog: &'p NProgram, config: &'p RuleConfig) -> Checker<'p> {
        let mut writes_by_recv: FxHashMap<ExprId, Vec<(&'p AttrName, ExprId)>> =
            FxHashMap::default();
        for e in prog.iter() {
            if let NKind::Write(attr, recv, val) = &e.kind {
                writes_by_recv.entry(*recv).or_default().push((attr, *val));
            }
        }
        Checker {
            prog,
            config,
            writes_by_recv,
            rules: FxHashMap::default(),
        }
    }

    /// Bounds-checked occurrence lookup: a fabricated proof may cite ids
    /// outside the program.
    fn node(&self, e: ExprId) -> Result<&'p NExpr, String> {
        if e == 0 || e as usize > self.prog.len() {
            return Err(format!("occurrence {e} is not in the program"));
        }
        Ok(self.prog.get(e))
    }

    /// §3.2 observability: basic-typed always; object-typed only under the
    /// printable-OID regime.
    fn observable(&self, e: &NExpr) -> bool {
        e.ty.is_basic() || (self.config.printable_oids && e.ty.is_class())
    }

    /// The attribute a read node accesses, with its receiver.
    fn as_read(&self, e: ExprId) -> Result<Option<(&'p AttrName, ExprId)>, String> {
        Ok(match &self.node(e)?.kind {
            NKind::Read(attr, recv) => Some((attr, *recv)),
            _ => None,
        })
    }

    /// The constructor argument feeding `attr` when `e` is a `new C(…)`.
    fn ctor_arg(&self, e: ExprId, attr: &AttrName) -> Result<Option<ExprId>, String> {
        Ok(match &self.node(e)?.kind {
            NKind::New(_, args) => args.iter().find(|(a, _)| a == attr).map(|(_, id)| *id),
            _ => None,
        })
    }

    /// The metarule table for `op` (materialised once per operator).
    fn rules_of(&mut self, op: BasicOp) -> &[LocalRule] {
        self.rules.entry(op).or_insert_with(|| rules_for(op))
    }

    fn check_step(&mut self, t: Term, d: &Derivation) -> Result<(), String> {
        match d.rule {
            // "axiom" covers both the alterability and inferability axioms.
            l if l == labels::AXIOM_TA => self.check_axiom(t, d),
            l if l == labels::AXIOM_EQ => self.check_axiom_eq(t, d),
            l if l == labels::RULE_EQ => self.check_rule_eq(t, d),
            l if l == labels::LATTICE => self.check_lattice(t, d),
            l if l == labels::READ_RECEIVER => self.check_read_receiver(t, d),
            l if l == labels::PI_JOIN => self.check_pi_join(t, d),
            l if l == labels::PI_STAR_FROM_EQ => self.check_pi_star_from_eq(t, d),
            l if l == labels::PI_STAR_ON_EQUALS => self.check_pi_star_on_equals(t, d),
            l if l == labels::PI_STAR_JOIN => self.check_pi_star_join(t, d),
            l if l == labels::INFER_BY_EQ => self.check_transfer(t, d, false),
            l if l == labels::ALTER_BY_EQ => self.check_transfer(t, d, true),
            "basic function: diagonal inversion" => self.check_diagonal(t, d),
            l if l.starts_with("basic function") => self.check_local_rule(t, d),
            other => Err(format!("unknown rule label `{other}`")),
        }
    }

    /// `→ ta[x]` (outer argument variables), `→ ti[x/c, l, +]` (observable
    /// arguments, basic constants), `→ ti[root, 0, −]` (observed results).
    fn check_axiom(&self, t: Term, d: &Derivation) -> Result<(), String> {
        expect_premises(d, 0)?;
        match t {
            Term::Ta(e) => match self.node(e)?.kind {
                NKind::ArgVar { .. } => Ok(()),
                _ => Err("ta axiom on a non-argument occurrence".into()),
            },
            Term::Ti(e, o) => {
                let expr = self.node(e)?;
                if o == Origin::new(e, Dir::Down) {
                    let ok = match expr.kind {
                        NKind::ArgVar { .. } => self.observable(expr),
                        NKind::Const(_) => expr.ty.is_basic(),
                        _ => false,
                    };
                    return ok.then_some(()).ok_or_else(|| {
                        "ti axiom on an occurrence that is neither an observable \
                         argument nor a basic constant"
                            .into()
                    });
                }
                if o == Origin::new(0, Dir::Up) {
                    let is_root = self.prog.outers.iter().any(|outer| outer.root == e);
                    return (is_root && self.observable(expr))
                        .then_some(())
                        .ok_or_else(|| {
                            "ti axiom with origin (0,−) on a non-observable or non-root \
                             occurrence"
                                .into()
                        });
                }
                Err(format!("ti axiom carries unexpected origin {o}"))
            }
            _ => Err("axiom label on a term kind axioms never produce".into()),
        }
    }

    /// `=[z, e]` for let-bound variables, `=[e, let … in e end]`, and
    /// `=[x1, x2]` for same-typed outer argument variables.
    fn check_axiom_eq(&self, t: Term, d: &Derivation) -> Result<(), String> {
        expect_premises(d, 0)?;
        let Term::Eq(a, b) = t else {
            return Err("equality axiom on a non-equality term".into());
        };
        for (x, y) in [(a, b), (b, a)] {
            match &self.node(x)?.kind {
                NKind::LetVar { binding, .. } if *binding == y => return Ok(()),
                NKind::Let { body, .. } if *body == y => return Ok(()),
                _ => {}
            }
        }
        let (ea, eb) = (self.node(a)?, self.node(b)?);
        if matches!(ea.kind, NKind::ArgVar { .. })
            && matches!(eb.kind, NKind::ArgVar { .. })
            && ea.ty == eb.ty
        {
            return Ok(());
        }
        Err("equality is not a let binding, a let body, or a same-typed argument pair".into())
    }

    /// Derived equalities: transitivity (2 premises), congruence /
    /// write-read / constructor-read through `=` (1 premise), and the
    /// direct constructor-read seeding (0 premises).
    fn check_rule_eq(&self, t: Term, d: &Derivation) -> Result<(), String> {
        let Term::Eq(u, v) = t else {
            return Err("`rule for =` concluded a non-equality term".into());
        };
        match d.premises.as_slice() {
            [] => {
                // Direct constructor-read: r_att(new C(…)) = the matching
                // constructor argument.
                gate(self.config.write_read, "write_read")?;
                for (arg, r) in [(u, v), (v, u)] {
                    if let Some((attr, recv)) = self.as_read(r)? {
                        if self.ctor_arg(recv, attr)? == Some(arg) {
                            return Ok(());
                        }
                    }
                }
                Err("premise-less equality is not a direct constructor read".into())
            }
            [Term::Eq(x, y)] => {
                let (x, y) = (*x, *y);
                // Attribute congruence: r_att(x) = r_att(y).
                if let (Some((au, ru)), Some((av, rv))) = (self.as_read(u)?, self.as_read(v)?) {
                    if au == av && ((ru, rv) == (x, y) || (ru, rv) == (y, x)) {
                        return Ok(());
                    }
                }
                if self.config.write_read {
                    for (val, r) in [(u, v), (v, u)] {
                        if let Some((attr, rrecv)) = self.as_read(r)? {
                            let wrecv = match rrecv {
                                e if e == x => y,
                                e if e == y => x,
                                _ => continue,
                            };
                            // Write-read: the value written is the value read.
                            let written = self
                                .writes_by_recv
                                .get(&wrecv)
                                .is_some_and(|ws| ws.iter().any(|(a, w)| *a == attr && *w == val));
                            // Constructor-read through the equality.
                            if written || self.ctor_arg(wrecv, attr)? == Some(val) {
                                return Ok(());
                            }
                        }
                    }
                }
                Err("equality does not follow from the premise by congruence, \
                     write-read, or constructor-read"
                    .into())
            }
            [Term::Eq(a, b), Term::Eq(p, q)] => {
                // Transitivity: =[a,b], =[x,c] → =[c,y] with {x,y} = {a,b}.
                for (x, y) in [(*a, *b), (*b, *a)] {
                    let c = match (*p, *q) {
                        (p2, c2) if p2 == x => c2,
                        (c2, q2) if q2 == x => c2,
                        _ => continue,
                    };
                    if Term::eq(c, y) == Some(t) {
                        return Ok(());
                    }
                }
                Err("conclusion is not the transitive closure of the premises".into())
            }
            _ => Err(format!(
                "`rule for =` takes 0–2 equality premises, got {}",
                d.premises.len()
            )),
        }
    }

    /// Lattice: `ta[e] → pa[e]`, `ti[e,n,d] → pi[e,n,d]`.
    fn check_lattice(&self, t: Term, d: &Derivation) -> Result<(), String> {
        expect_premises(d, 1)?;
        match (d.premises[0], t) {
            (Term::Ta(a), Term::Pa(e)) if a == e => Ok(()),
            (Term::Ti(a, o1), Term::Pi(e, o2)) if a == e && o1 == o2 => Ok(()),
            _ => Err("conclusion is not the lattice weakening of the premise".into()),
        }
    }

    /// Receiver alterability: `ta[e] | pa[e] → pa[r_att(e)]`.
    fn check_read_receiver(&self, t: Term, d: &Derivation) -> Result<(), String> {
        expect_premises(d, 1)?;
        let Term::Pa(n) = t else {
            return Err("read-receiver rule concludes partial alterability only".into());
        };
        let Some((_, recv)) = self.as_read(n)? else {
            return Err("conclusion is not on a read occurrence".into());
        };
        match d.premises[0] {
            Term::Ta(e) | Term::Pa(e) if e == recv => Ok(()),
            _ => Err("premise is not an alterability on the read's receiver".into()),
        }
    }

    /// pi-join: `pi[e,n1,d1], pi[e,n2,d2] → ti[e,n2,d2]` with distinct
    /// origins.
    fn check_pi_join(&self, t: Term, d: &Derivation) -> Result<(), String> {
        gate(self.config.pi_join, "pi_join")?;
        expect_premises(d, 2)?;
        let Term::Ti(e, o) = t else {
            return Err("pi-join concludes total inferability only".into());
        };
        match (d.premises[0], d.premises[1]) {
            (Term::Pi(e1, o1), Term::Pi(e2, o2)) if e1 == e && e2 == e && o2 == o && o1 != o2 => {
                Ok(())
            }
            _ => Err(
                "premises are not two distinct-origin partial inferences on the \
                      concluded occurrence"
                    .into(),
            ),
        }
    }

    /// `=[e1,e2] → pi*[(e1,e2), 0, +]`.
    fn check_pi_star_from_eq(&self, t: Term, d: &Derivation) -> Result<(), String> {
        gate(self.config.pi_star, "pi_star")?;
        expect_premises(d, 1)?;
        match (d.premises[0], t) {
            (Term::Eq(a, b), Term::PiStar(p, q, o)) if (p, q) == (a, b) && o == Origin::AXIOM => {
                Ok(())
            }
            _ => Err(
                "conclusion is not the axiom-origin joint constraint of the \
                      premise equality"
                    .into(),
            ),
        }
    }

    /// `=[e1,e2], pi*[(e1,e2),n,d] → pi[e1,n,d], pi[e2,n,d]` for non-axiom
    /// origins.
    fn check_pi_star_on_equals(&self, t: Term, d: &Derivation) -> Result<(), String> {
        gate(self.config.pi_star, "pi_star")?;
        expect_premises(d, 2)?;
        let Term::Pi(e, o) = t else {
            return Err("joint-constraint elimination concludes partial inferability".into());
        };
        match (d.premises[0], d.premises[1]) {
            (Term::Eq(a, b), Term::PiStar(p, q, so))
                if (p, q) == (a, b) && so == o && o != Origin::AXIOM && (e == a || e == b) =>
            {
                Ok(())
            }
            _ => Err(
                "premises are not an equality plus a matching non-axiom joint \
                      constraint on the concluded occurrence"
                    .into(),
            ),
        }
    }

    /// pi*-join: `pi*[(a,b),n1,d1], pi*[(b,c),n2,d2] → pi*[(a,c),n1,d1]`.
    fn check_pi_star_join(&self, t: Term, d: &Derivation) -> Result<(), String> {
        gate(self.config.pi_star, "pi_star")?;
        expect_premises(d, 2)?;
        let (Term::PiStar(p, q, o), Term::PiStar(r, s, _o2), Term::PiStar(u, v, oc)) =
            (d.premises[0], d.premises[1], t)
        else {
            return Err("pi*-join relates three joint constraints".into());
        };
        if oc != o {
            return Err("conclusion must carry the first premise's origin".into());
        }
        for (end, via) in [(p, q), (q, p)] {
            let c = if u == end {
                v
            } else if v == end {
                u
            } else {
                continue;
            };
            if c != via && ((r, s) == (via.min(c), via.max(c))) {
                return Ok(());
            }
        }
        Err("premises do not chain through a shared endpoint onto the conclusion".into())
    }

    /// Equality transfer: `=[e1,e2], X[e1,…] → X[e2,…]` with origins
    /// preserved (`alter` = ta/pa, otherwise ti/pi/pi*).
    fn check_transfer(&self, t: Term, d: &Derivation, alter: bool) -> Result<(), String> {
        gate(self.config.eq_transfer, "eq_transfer")?;
        expect_premises(d, 2)?;
        let Term::Eq(x, y) = d.premises[0] else {
            return Err("first premise must be the equality transferred over".into());
        };
        let endpoints = |from: ExprId, to: ExprId| (from, to) == (x, y) || (from, to) == (y, x);
        match (d.premises[1], t, alter) {
            (Term::Ta(from), Term::Ta(to), true) if endpoints(from, to) => Ok(()),
            (Term::Pa(from), Term::Pa(to), true) if endpoints(from, to) => Ok(()),
            (Term::Ti(from, o1), Term::Ti(to, o2), false) if endpoints(from, to) && o1 == o2 => {
                Ok(())
            }
            (Term::Pi(from, o1), Term::Pi(to, o2), false) if endpoints(from, to) && o1 == o2 => {
                Ok(())
            }
            (Term::PiStar(p, q, o1), Term::PiStar(u, v, o2), false) if o1 == o2 => {
                gate(self.config.pi_star, "pi_star")?;
                for from in [p, q] {
                    let other = if from == p { q } else { p };
                    let to = match from {
                        e if e == x => y,
                        e if e == y => x,
                        _ => continue,
                    };
                    if other != to && (u, v) == (to.min(other), to.max(other)) {
                        return Ok(());
                    }
                }
                Err(
                    "joint constraint does not transfer over the premise equality \
                     onto the conclusion"
                        .into(),
                )
            }
            _ => Err(if alter {
                "premise/conclusion are not matching alterability terms across the equality".into()
            } else {
                "premise/conclusion are not matching inferability terms across the \
                 equality with preserved origin"
                    .into()
            }),
        }
    }

    /// Diagonal inversion: `=[e1,e2], ti|pi[⊕(e1,e2),n,d] → ti|pi[e_i,l,−]`
    /// for diagonal-candidate nodes (`x+x`, `x*x`, `s++s`), guarded against
    /// feedback (`n ≠ l`).
    fn check_diagonal(&self, t: Term, d: &Derivation) -> Result<(), String> {
        gate(self.config.basic_rules, "basic_rules")?;
        expect_premises(d, 2)?;
        let (arg, origin) = match t {
            Term::Ti(e, o) | Term::Pi(e, o) => (e, o),
            _ => return Err("diagonal inversion concludes ti or pi".into()),
        };
        let node = origin.num;
        if origin.dir != Dir::Up {
            return Err("diagonal conclusions carry an upward origin".into());
        }
        let NKind::Basic(op, args) = &self.node(node)?.kind else {
            return Err("conclusion origin is not a basic-function node".into());
        };
        let diagonal = matches!(op, BasicOp::Add | BasicOp::Mul | BasicOp::Concat)
            && args.len() == 2
            && args[0] != args[1];
        if !diagonal {
            return Err("origin node is not a diagonal candidate".into());
        }
        if arg != args[0] && arg != args[1] {
            return Err("concluded occurrence is not an argument of the origin node".into());
        }
        if d.premises[0] != Term::eq(args[0], args[1]).expect("diagonal args are distinct") {
            return Err("first premise is not the arguments' equality".into());
        }
        let src_ok = match (d.premises[1], t) {
            (Term::Ti(e, o), Term::Ti(..)) | (Term::Pi(e, o), Term::Pi(..)) => {
                e == node && (!self.config.feedback_guard || o.num != node)
            }
            _ => false,
        };
        src_ok
            .then_some(())
            .ok_or_else(|| "second premise is not a matching guarded inference on the node".into())
    }

    /// Basic-function metarules: the step must instantiate a rule of the
    /// claimed name from the node's operator table, with the feedback
    /// guards honoured.
    fn check_local_rule(&mut self, t: Term, d: &Derivation) -> Result<(), String> {
        gate(self.config.basic_rules, "basic_rules")?;
        // The node is recoverable from the conclusion: inferability
        // conclusions carry it as the origin; alterability conclusions are
        // always on the application itself (`Ret`).
        let (node, dir) = match t {
            Term::Ti(_, o) | Term::Pi(_, o) | Term::PiStar(_, _, o) => (o.num, Some(o.dir)),
            Term::Ta(e) | Term::Pa(e) => (e, None),
            Term::Eq(..) => return Err("no metarule concludes an equality".into()),
        };
        let NKind::Basic(op, args) = &self.node(node)?.kind else {
            return Err("conclusion does not identify a basic-function node".into());
        };
        let (op, args) = (*op, args.clone());
        let config = self.config;
        let mut last = String::from("no metarule of this name fits the operator");
        for rule in self.rules_of(op).iter().filter(|r| r.name == d.rule) {
            match rule_matches(config, rule, node, &args, t, dir, &d.premises) {
                Ok(()) => return Ok(()),
                Err(reason) => last = reason,
            }
        }
        Err(last)
    }
}

/// Does the derivation instantiate this metarule at `node`? Standalone so
/// the borrow on the rule table stays immutable.
fn rule_matches(
    config: &RuleConfig,
    rule: &LocalRule,
    node: ExprId,
    args: &[ExprId],
    t: Term,
    dir: Option<Dir>,
    premises: &[Term],
) -> Result<(), String> {
    let slot_expr = |s: Slot| -> Result<ExprId, String> {
        match s {
            Slot::Ret => Ok(node),
            Slot::Arg(i) => args
                .get(i)
                .copied()
                .ok_or_else(|| format!("rule slot arg{i} exceeds the node's arity")),
        }
    };
    // The conclusion's slot decides the origin direction and the guard.
    let conclusion_down = match rule.conclusion {
        LTerm::Cap(_, Slot::Ret) => true,
        LTerm::Cap(_, Slot::Arg(_)) => false,
        LTerm::PiStar(a, b) => matches!(a, Slot::Ret) || matches!(b, Slot::Ret),
    };
    let want_dir = if conclusion_down { Dir::Down } else { Dir::Up };
    let guard_ok = |o: Origin| -> bool {
        if !config.feedback_guard {
            return true;
        }
        if conclusion_down {
            !(o.num == node && o.dir == Dir::Up)
        } else {
            o.num != node
        }
    };

    // Conclusion pattern.
    let concluded = match (rule.conclusion, t) {
        // Alterability carries no origin; `dir` is None here.
        (LTerm::Cap(LCap::Ta, s), Term::Ta(e)) | (LTerm::Cap(LCap::Pa, s), Term::Pa(e)) => {
            slot_expr(s)? == e
        }
        (LTerm::Cap(LCap::Ti, s), Term::Ti(e, o)) | (LTerm::Cap(LCap::Pi, s), Term::Pi(e, o)) => {
            slot_expr(s)? == e && o == Origin::new(node, want_dir)
        }
        (LTerm::PiStar(s1, s2), Term::PiStar(u, v, o)) => {
            if !config.pi_star {
                return Err("pi_star rule group is disabled by the configuration".into());
            }
            let (a, b) = (slot_expr(s1)?, slot_expr(s2)?);
            Term::pi_star(a, b, o) == Some(t)
                && (u, v) == (a.min(b), a.max(b))
                && o == Origin::new(node, want_dir)
        }
        _ => false,
    };
    if !concluded {
        return Err("conclusion does not instantiate the rule's conclusion pattern".into());
    }
    if dir.is_some() && dir != Some(want_dir) {
        return Err("conclusion origin direction contradicts the rule's conclusion slot".into());
    }

    // Premises, in rule order.
    if premises.len() != rule.premises.len() {
        return Err(format!(
            "rule takes {} premises, derivation records {}",
            rule.premises.len(),
            premises.len()
        ));
    }
    for (pat, &p) in rule.premises.iter().zip(premises) {
        let ok = match (*pat, p) {
            (LTerm::Cap(LCap::Ta, s), Term::Ta(e)) => slot_expr(s)? == e,
            (LTerm::Cap(LCap::Pa, s), Term::Pa(e)) => slot_expr(s)? == e,
            (LTerm::Cap(LCap::Ti, s), Term::Ti(e, o)) => slot_expr(s)? == e && guard_ok(o),
            (LTerm::Cap(LCap::Pi, s), Term::Pi(e, o)) => slot_expr(s)? == e && guard_ok(o),
            (LTerm::PiStar(s1, s2), Term::PiStar(u, v, o)) => {
                if !config.pi_star {
                    return Err("pi_star rule group is disabled by the configuration".into());
                }
                let (a, b) = (slot_expr(s1)?, slot_expr(s2)?);
                (u, v) == (a.min(b), a.max(b)) && guard_ok(o)
            }
            _ => false,
        };
        if !ok {
            return Err(format!(
                "premise {p} does not instantiate the rule's premise pattern"
            ));
        }
    }
    Ok(())
}

fn expect_premises(d: &Derivation, n: usize) -> Result<(), String> {
    if d.premises.len() == n {
        Ok(())
    } else {
        Err(format!(
            "rule takes {n} premises, derivation records {}",
            d.premises.len()
        ))
    }
}

fn gate(enabled: bool, group: &str) -> Result<(), String> {
    if enabled {
        Ok(())
    } else {
        Err(format!(
            "rule group `{group}` is disabled by the configuration"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_lang::parse_schema;

    const STOCKBROKER: &str = r#"
        class Broker { name: string, salary: int, budget: int, profit: int }
        fn checkBudget(broker: Broker): bool {
          r_budget(broker) >= 10 * r_salary(broker)
        }
        user clerk { checkBudget, w_budget }
        user safe_clerk { checkBudget }
    "#;

    fn closure_for(user: &str) -> (NProgram, Closure) {
        let schema = parse_schema(STOCKBROKER).unwrap();
        oodb_lang::check_schema(&schema).unwrap();
        let prog = NProgram::unfold(&schema, schema.user_str(user).unwrap()).unwrap();
        let c = Closure::compute(&prog).unwrap();
        (prog, c)
    }

    #[test]
    fn paper_fixture_certifies() {
        let config = RuleConfig::default();
        for user in ["clerk", "safe_clerk"] {
            let (prog, c) = closure_for(user);
            let cert = c.certify(&prog, &config).unwrap();
            assert_eq!(cert.terms_checked, c.len(), "{user}: all terms checked");
            assert_eq!(cert.axioms + cert.derived, cert.terms_checked);
            assert!(cert.axioms > 0, "{user}: closure grounds in axioms");
            let total: u64 = cert.rule_checks.iter().map(|(_, n)| n).sum();
            assert_eq!(total as usize, cert.terms_checked);
        }
    }

    #[test]
    fn proofless_closure_is_rejected() {
        let schema = parse_schema(STOCKBROKER).unwrap();
        oodb_lang::check_schema(&schema).unwrap();
        let prog = NProgram::unfold(&schema, schema.user_str("clerk").unwrap()).unwrap();
        let opts = crate::closure::ClosureOptions {
            goal: crate::closure::Goal::Full(ProofMode::Off),
            ..Default::default()
        };
        let c = Closure::saturate(&prog, &opts, crate::stats::NoopObserver)
            .0
            .unwrap();
        assert_eq!(
            c.certify(&prog, &RuleConfig::default()),
            Err(CheckError::NoProofs)
        );
    }

    #[test]
    fn wrong_label_is_a_bad_step() {
        let (prog, mut c) = closure_for("clerk");
        // `pa` on the budget read (occurrence 2) is derived, not an axiom.
        let victim = Term::Pa(2);
        assert!(c.contains(&victim));
        assert!(c.replace_proof(&victim, labels::AXIOM_TA, Vec::new()));
        let err = c.certify(&prog, &RuleConfig::default()).unwrap_err();
        match err {
            CheckError::BadStep { term, .. } => assert_eq!(term, victim),
            other => panic!("expected BadStep, got {other:?}"),
        }
    }

    #[test]
    fn self_premise_cycle_is_detected() {
        let (prog, mut c) = closure_for("clerk");
        let victim = Term::Pa(2);
        // A self-justifying lattice step: shape-valid, so only the
        // acyclicity pass can reject it.
        assert!(c.replace_proof(&victim, labels::LATTICE, vec![Term::Ta(2)]));
        if c.contains(&Term::Ta(2)) {
            c.replace_proof(&Term::Ta(2), labels::LATTICE, vec![Term::Ta(2)]);
            let err = c.certify(&prog, &RuleConfig::default()).unwrap_err();
            assert!(
                matches!(err, CheckError::Cyclic { .. } | CheckError::BadStep { .. }),
                "got {err:?}"
            );
        }
    }

    #[test]
    fn dangling_premise_is_detected() {
        let (prog, mut c) = closure_for("clerk");
        let victim = Term::Pa(2);
        let ghost = Term::Ta(9999);
        assert!(!c.contains(&ghost));
        assert!(c.replace_proof(&victim, labels::LATTICE, vec![ghost]));
        assert_eq!(
            c.certify(&prog, &RuleConfig::default()),
            Err(CheckError::DanglingPremise {
                term: victim,
                premise: ghost,
            })
        );
    }
}

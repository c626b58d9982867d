//! The retained slow-path closure engine — a correctness oracle for
//! [`crate::closure`].
//!
//! This module preserves the pre-fast-path representation: terms live in a
//! SipHash `HashSet<Term>`, capability indexes are `HashMap<ExprId, Vec<…>>`,
//! proofs are always recorded, and the hot loops clone their index snapshots
//! instead of iterating in place, and no mirror, prefilter or dirty mask
//! skips any work. It is the one whole-closure oracle: the differential
//! tests (and the `fastpath` bench experiment) assert that the interned,
//! dense-table engine derives *exactly* the same terms in the same
//! insertion order, with the same witnesses, proofs and verdicts — byte for
//! byte — on every workload.
//!
//! The traversal order is kept identical to the fast engine: same axiom
//! order, same worklist discipline, and the same keyed diagonal index (the
//! one place the historical engine scanned a hash map, which was the only
//! source of run-to-run nondeterminism). Any divergence between the two
//! engines is therefore a bug, not noise.
//!
//! Nothing here is performance-sensitive; clarity and fidelity to the
//! original structure win over speed.

use crate::algorithm::{check_against, AnalysisConfig, AnalysisError, CapabilityView};
use crate::basics::{rules_for, LCap, LTerm, LocalRule, Slot};
use crate::closure::{ClosureError, Derivation};
use crate::report::Verdict;
use crate::rules::{axioms_with, labels, RuleConfig};
use crate::term::{Dir, Origin, Term};
use crate::unfold::{ExprId, NKind, NProgram};
use oodb_lang::requirement::Requirement;
use oodb_lang::{BasicOp, Schema};
use oodb_model::AttrName;
use std::collections::{HashMap, HashSet, VecDeque};

/// The closure computed by the reference engine. Same queries as
/// [`crate::closure::Closure`], hash-map-backed.
#[derive(Debug)]
pub struct RefClosure {
    terms: HashSet<Term>,
    /// Every term in insertion order: what [`RefClosure::iter`] yields, so
    /// the differential suites can compare the fast engine's exact order.
    log: Vec<Term>,
    proofs: HashMap<Term, Derivation>,
    ta: HashSet<ExprId>,
    pa: HashSet<ExprId>,
    ti: HashMap<ExprId, Vec<Origin>>,
    pi: HashMap<ExprId, Vec<Origin>>,
    pistar: HashMap<ExprId, Vec<(ExprId, Origin)>>,
    eq: HashMap<ExprId, Vec<ExprId>>,
    rounds: usize,
}

impl RefClosure {
    /// Compute with default configuration and budget.
    pub fn compute(prog: &NProgram) -> Result<RefClosure, ClosureError> {
        Self::compute_with(
            prog,
            &RuleConfig::default(),
            crate::closure::DEFAULT_TERM_LIMIT,
        )
    }

    /// Compute with explicit rule configuration and term budget.
    pub fn compute_with(
        prog: &NProgram,
        config: &RuleConfig,
        limit: usize,
    ) -> Result<RefClosure, ClosureError> {
        RefEngine::new(prog, *config, limit).run()
    }

    /// Number of terms in the closure.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Is the closure empty?
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Worklist steps taken.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Membership.
    pub fn contains(&self, t: &Term) -> bool {
        self.terms.contains(t)
    }

    /// Total alterability on the occurrence.
    pub fn has_ta(&self, e: ExprId) -> bool {
        self.ta.contains(&e)
    }

    /// Partial alterability.
    pub fn has_pa(&self, e: ExprId) -> bool {
        self.pa.contains(&e)
    }

    /// Total inferability (any origin).
    pub fn has_ti(&self, e: ExprId) -> bool {
        self.ti.contains_key(&e)
    }

    /// Partial inferability (any origin).
    pub fn has_pi(&self, e: ExprId) -> bool {
        self.pi.contains_key(&e)
    }

    /// Known-equal occurrences.
    pub fn equal_to(&self, e: ExprId) -> &[ExprId] {
        self.eq.get(&e).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The derivation of a term (always recorded in this engine).
    pub fn proof(&self, t: &Term) -> Option<&Derivation> {
        self.proofs.get(t)
    }

    /// First-derived `ti` witness (matches the fast engine's).
    pub fn ti_witness(&self, e: ExprId) -> Option<Term> {
        self.ti.get(&e).map(|os| Term::Ti(e, os[0]))
    }

    /// First-derived `pi` witness.
    pub fn pi_witness(&self, e: ExprId) -> Option<Term> {
        self.pi.get(&e).map(|os| Term::Pi(e, os[0]))
    }

    /// Iterate over all terms in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Term> + '_ {
        self.log.iter().copied()
    }
}

impl CapabilityView for RefClosure {
    fn has_ta(&self, e: ExprId) -> bool {
        RefClosure::has_ta(self, e)
    }
    fn has_pa(&self, e: ExprId) -> bool {
        RefClosure::has_pa(self, e)
    }
    fn ti_witness(&self, e: ExprId) -> Option<Term> {
        RefClosure::ti_witness(self, e)
    }
    fn pi_witness(&self, e: ExprId) -> Option<Term> {
        RefClosure::pi_witness(self, e)
    }
}

/// Run `A(R)` end-to-end on the reference engine: capability lookup,
/// unfolding, slow-path closure, then the shared verdict check. The
/// differential tests compare this against the engine's verdicts from
/// [`crate::algorithm::analyze_batch`].
pub fn analyze_ref(
    schema: &Schema,
    req: &Requirement,
    config: &AnalysisConfig,
) -> Result<Verdict, AnalysisError> {
    let caps = schema
        .user(&req.user)
        .ok_or_else(|| AnalysisError::UnknownUser(req.user.to_string()))?;
    let prog = NProgram::unfold_with_limit(schema, caps, config.node_limit)?;
    let closure = RefClosure::compute_with(&prog, &config.rules, config.term_limit)?;
    Ok(check_against(&prog, &closure, req))
}

struct RefEngine<'p> {
    prog: &'p NProgram,
    config: RuleConfig,
    limit: usize,
    out: RefClosure,
    queue: VecDeque<Term>,
    // structural indexes
    basic_slots: HashMap<ExprId, Vec<(ExprId, Slot)>>,
    diag_args: HashMap<ExprId, (ExprId, ExprId)>,
    /// Normalised argument pair → diagonal-candidate nodes in program
    /// order — keyed lookup, same as the fast engine, so the two engines
    /// visit diagonal nodes in the same order.
    diag_by_pair: HashMap<(ExprId, ExprId), Vec<ExprId>>,
    read_by_recv: HashMap<ExprId, Vec<ExprId>>,
    writes_by_recv: HashMap<ExprId, Vec<(AttrName, ExprId)>>,
    op_rules: HashMap<BasicOp, Vec<LocalRule>>,
}

impl<'p> RefEngine<'p> {
    fn new(prog: &'p NProgram, config: RuleConfig, limit: usize) -> RefEngine<'p> {
        let mut basic_slots: HashMap<ExprId, Vec<(ExprId, Slot)>> = HashMap::new();
        let mut diag_args: HashMap<ExprId, (ExprId, ExprId)> = HashMap::new();
        let mut diag_by_pair: HashMap<(ExprId, ExprId), Vec<ExprId>> = HashMap::new();
        let mut read_by_recv: HashMap<ExprId, Vec<ExprId>> = HashMap::new();
        let mut writes_by_recv: HashMap<ExprId, Vec<(AttrName, ExprId)>> = HashMap::new();
        let mut op_rules: HashMap<BasicOp, Vec<LocalRule>> = HashMap::new();

        for e in prog.iter() {
            match &e.kind {
                NKind::Basic(op, args) => {
                    for (i, a) in args.iter().enumerate() {
                        basic_slots
                            .entry(*a)
                            .or_default()
                            .push((e.id, Slot::Arg(i)));
                    }
                    basic_slots.entry(e.id).or_default().push((e.id, Slot::Ret));
                    op_rules.entry(*op).or_insert_with(|| rules_for(*op));
                    if matches!(op, BasicOp::Add | BasicOp::Mul | BasicOp::Concat)
                        && args.len() == 2
                        && args[0] != args[1]
                    {
                        diag_args.insert(e.id, (args[0], args[1]));
                        let pair = (args[0].min(args[1]), args[0].max(args[1]));
                        diag_by_pair.entry(pair).or_default().push(e.id);
                    }
                }
                NKind::Read(_attr, recv) => {
                    read_by_recv.entry(*recv).or_default().push(e.id);
                }
                NKind::Write(attr, recv, val) => {
                    writes_by_recv
                        .entry(*recv)
                        .or_default()
                        .push((attr.clone(), *val));
                }
                _ => {}
            }
        }

        RefEngine {
            prog,
            config,
            limit,
            out: RefClosure {
                terms: HashSet::new(),
                log: Vec::new(),
                proofs: HashMap::new(),
                ta: HashSet::new(),
                pa: HashSet::new(),
                ti: HashMap::new(),
                pi: HashMap::new(),
                pistar: HashMap::new(),
                eq: HashMap::new(),
                rounds: 0,
            },
            queue: VecDeque::new(),
            basic_slots,
            diag_args,
            diag_by_pair,
            read_by_recv,
            writes_by_recv,
            op_rules,
        }
    }

    fn run(mut self) -> Result<RefClosure, ClosureError> {
        self.saturate()?;
        Ok(self.out)
    }

    fn saturate(&mut self) -> Result<(), ClosureError> {
        for (t, rule) in axioms_with(self.prog, self.config.printable_oids) {
            self.derive(t, rule, Vec::new())?;
        }
        if self.config.write_read {
            let direct: Vec<Term> = self
                .prog
                .iter()
                .filter_map(|e| match &e.kind {
                    NKind::Read(attr, recv) => self
                        .ctor_arg(*recv, attr)
                        .and_then(|arg| Term::eq(arg, e.id)),
                    _ => None,
                })
                .collect();
            for t in direct {
                self.derive(t, labels::RULE_EQ, Vec::new())?;
            }
        }
        while let Some(t) = self.queue.pop_front() {
            self.out.rounds += 1;
            self.propagate(t)?;
        }
        Ok(())
    }

    fn ctor_arg(&self, e: ExprId, attr: &AttrName) -> Option<ExprId> {
        match &self.prog.get(e).kind {
            NKind::New(_class, args) => args
                .iter()
                .find(|(name, _)| name == attr)
                .map(|(_, id)| *id),
            _ => None,
        }
    }

    fn derive(
        &mut self,
        t: Term,
        rule: &'static str,
        premises: Vec<Term>,
    ) -> Result<(), ClosureError> {
        if self.out.terms.contains(&t) {
            return Ok(());
        }
        if self.out.terms.len() >= self.limit {
            return Err(ClosureError::TermLimit { limit: self.limit });
        }
        self.out.terms.insert(t);
        self.out.log.push(t);
        self.out.proofs.insert(t, Derivation { rule, premises });
        match t {
            Term::Ta(e) => {
                self.out.ta.insert(e);
            }
            Term::Pa(e) => {
                self.out.pa.insert(e);
            }
            Term::Ti(e, o) => self.out.ti.entry(e).or_default().push(o),
            Term::Pi(e, o) => self.out.pi.entry(e).or_default().push(o),
            Term::PiStar(a, b, o) => {
                self.out.pistar.entry(a).or_default().push((b, o));
                self.out.pistar.entry(b).or_default().push((a, o));
            }
            Term::Eq(a, b) => {
                self.out.eq.entry(a).or_default().push(b);
                self.out.eq.entry(b).or_default().push(a);
            }
        }
        self.queue.push_back(t);
        Ok(())
    }

    fn propagate(&mut self, t: Term) -> Result<(), ClosureError> {
        match t {
            Term::Ta(e) => {
                self.derive(Term::Pa(e), labels::LATTICE, vec![t])?;
                for n in self.read_by_recv.get(&e).cloned().unwrap_or_default() {
                    self.derive(Term::Pa(n), labels::READ_RECEIVER, vec![t])?;
                }
                self.transfer_by_eq(t, e)?;
                self.fire_local_rules(e)?;
            }
            Term::Pa(e) => {
                for n in self.read_by_recv.get(&e).cloned().unwrap_or_default() {
                    self.derive(Term::Pa(n), labels::READ_RECEIVER, vec![t])?;
                }
                self.transfer_by_eq(t, e)?;
                self.fire_local_rules(e)?;
            }
            Term::Ti(e, o) => {
                self.derive(Term::Pi(e, o), labels::LATTICE, vec![t])?;
                self.transfer_by_eq(t, e)?;
                self.fire_local_rules(e)?;
                self.try_diagonal(e)?;
            }
            Term::Pi(e, o) => {
                if self.config.pi_join {
                    let other = self
                        .out
                        .pi
                        .get(&e)
                        .and_then(|os| os.iter().find(|o2| **o2 != o).copied());
                    if let Some(o2) = other {
                        self.derive(Term::Ti(e, o), labels::PI_JOIN, vec![Term::Pi(e, o2), t])?;
                        // Symmetric join: the partner's ti must not depend
                        // on which origin happened to pop first.
                        self.derive(Term::Ti(e, o2), labels::PI_JOIN, vec![t, Term::Pi(e, o2)])?;
                    }
                }
                self.transfer_by_eq(t, e)?;
                self.fire_local_rules(e)?;
                self.try_diagonal(e)?;
            }
            Term::PiStar(a, b, o) => {
                if self.config.pi_star {
                    if o != Origin::AXIOM && self.out.terms.contains(&Term::Eq(a, b)) {
                        let eq = Term::Eq(a, b);
                        self.derive(Term::Pi(a, o), labels::PI_STAR_ON_EQUALS, vec![eq, t])?;
                        self.derive(Term::Pi(b, o), labels::PI_STAR_ON_EQUALS, vec![eq, t])?;
                    }
                    for (end, via) in [(a, b), (b, a)] {
                        let neighbours = self.out.pistar.get(&via).cloned().unwrap_or_default();
                        for (c, o2) in neighbours {
                            if c != end && c != via {
                                if let Some(nt) = Term::pi_star(end, c, o) {
                                    let other =
                                        Term::pi_star(via, c, o2).expect("stored pi* is proper");
                                    self.derive(nt, labels::PI_STAR_JOIN, vec![t, other])?;
                                }
                            }
                        }
                    }
                    self.transfer_by_eq(t, a)?;
                    self.transfer_by_eq(t, b)?;
                    self.fire_local_rules(a)?;
                    self.fire_local_rules(b)?;
                }
            }
            Term::Eq(a, b) => {
                for (x, y) in [(a, b), (b, a)] {
                    for c in self.out.eq.get(&x).cloned().unwrap_or_default() {
                        if let Some(nt) = Term::eq(c, y) {
                            let prem = Term::eq(x, c).expect("adjacency implies distinct");
                            self.derive(nt, labels::RULE_EQ, vec![t, prem])?;
                        }
                    }
                }
                let reads_a = self.read_by_recv.get(&a).cloned().unwrap_or_default();
                let reads_b = self.read_by_recv.get(&b).cloned().unwrap_or_default();
                for ra in &reads_a {
                    for rb in &reads_b {
                        let attr_a = self.read_attr_of(*ra);
                        let attr_b = self.read_attr_of(*rb);
                        if attr_a == attr_b {
                            if let Some(nt) = Term::eq(*ra, *rb) {
                                self.derive(nt, labels::RULE_EQ, vec![t])?;
                            }
                        }
                    }
                }
                if self.config.write_read {
                    for (wrecv, rrecv) in [(a, b), (b, a)] {
                        let writes = self.writes_by_recv.get(&wrecv).cloned().unwrap_or_default();
                        for (attr, val) in writes {
                            for r in self.read_by_recv.get(&rrecv).cloned().unwrap_or_default() {
                                if self.read_attr_of(r) == Some(attr.clone()) {
                                    if let Some(nt) = Term::eq(val, r) {
                                        self.derive(nt, labels::RULE_EQ, vec![t])?;
                                    }
                                }
                            }
                        }
                        for r in self.read_by_recv.get(&rrecv).cloned().unwrap_or_default() {
                            if let Some(attr) = self.read_attr_of(r) {
                                if let Some(arg) = self.ctor_arg(wrecv, &attr) {
                                    if let Some(nt) = Term::eq(arg, r) {
                                        self.derive(nt, labels::RULE_EQ, vec![t])?;
                                    }
                                }
                            }
                        }
                    }
                }
                if self.config.pi_star {
                    let stars = self.out.pistar.get(&a).cloned().unwrap_or_default();
                    for (x, o) in stars {
                        if x == b && o != Origin::AXIOM {
                            let star = Term::pi_star(a, b, o).expect("stored pi* is proper");
                            self.derive(Term::Pi(a, o), labels::PI_STAR_ON_EQUALS, vec![t, star])?;
                            self.derive(Term::Pi(b, o), labels::PI_STAR_ON_EQUALS, vec![t, star])?;
                        }
                    }
                }
                // Diagonal candidates via the keyed pair index (the fast
                // engine does the same — deterministic, unlike a map scan).
                let diag_hits = self.diag_by_pair.get(&(a, b)).cloned().unwrap_or_default();
                for n in diag_hits {
                    self.try_diagonal(n)?;
                }
                if self.config.pi_star {
                    if let Some(nt) = Term::pi_star(a, b, Origin::AXIOM) {
                        self.derive(nt, labels::PI_STAR_FROM_EQ, vec![t])?;
                    }
                }
                if self.config.eq_transfer {
                    self.transfer_all_caps(a, b, t)?;
                    self.transfer_all_caps(b, a, t)?;
                }
            }
        }
        Ok(())
    }

    fn read_attr_of(&self, read_node: ExprId) -> Option<AttrName> {
        match &self.prog.get(read_node).kind {
            NKind::Read(attr, _) => Some(attr.clone()),
            _ => None,
        }
    }

    fn try_diagonal(&mut self, node: ExprId) -> Result<(), ClosureError> {
        if !self.config.basic_rules {
            return Ok(());
        }
        let Some(&(a, b)) = self.diag_args.get(&node) else {
            return Ok(());
        };
        let eq = Term::eq(a, b).expect("diagonal args are distinct");
        if !self.out.terms.contains(&eq) {
            return Ok(());
        }
        let origin = Origin::new(node, Dir::Up);
        let no_guard = !self.config.feedback_guard;
        let guard_ok = move |o: &Origin| no_guard || o.num != node;
        let ti_src = self
            .out
            .ti
            .get(&node)
            .and_then(|os| os.iter().copied().find(|o| guard_ok(o)));
        if let Some(o) = ti_src {
            let prem = Term::Ti(node, o);
            for arg in [a, b] {
                self.derive(
                    Term::Ti(arg, origin),
                    "basic function: diagonal inversion",
                    vec![eq, prem],
                )?;
            }
        }
        let pi_src = self
            .out
            .pi
            .get(&node)
            .and_then(|os| os.iter().copied().find(|o| guard_ok(o)));
        if let Some(o) = pi_src {
            let prem = Term::Pi(node, o);
            for arg in [a, b] {
                self.derive(
                    Term::Pi(arg, origin),
                    "basic function: diagonal inversion",
                    vec![eq, prem],
                )?;
            }
        }
        Ok(())
    }

    fn transfer_all_caps(
        &mut self,
        from: ExprId,
        to: ExprId,
        eq: Term,
    ) -> Result<(), ClosureError> {
        if self.out.ta.contains(&from) {
            self.derive(Term::Ta(to), labels::ALTER_BY_EQ, vec![eq, Term::Ta(from)])?;
        }
        if self.out.pa.contains(&from) {
            self.derive(Term::Pa(to), labels::ALTER_BY_EQ, vec![eq, Term::Pa(from)])?;
        }
        for o in self.out.ti.get(&from).cloned().unwrap_or_default() {
            self.derive(
                Term::Ti(to, o),
                labels::INFER_BY_EQ,
                vec![eq, Term::Ti(from, o)],
            )?;
        }
        for o in self.out.pi.get(&from).cloned().unwrap_or_default() {
            self.derive(
                Term::Pi(to, o),
                labels::INFER_BY_EQ,
                vec![eq, Term::Pi(from, o)],
            )?;
        }
        if self.config.pi_star {
            for (other, o) in self.out.pistar.get(&from).cloned().unwrap_or_default() {
                if other != to {
                    if let Some(nt) = Term::pi_star(to, other, o) {
                        let prem = Term::pi_star(from, other, o).expect("stored pi* is proper");
                        self.derive(nt, labels::INFER_BY_EQ, vec![eq, prem])?;
                    }
                }
            }
        }
        Ok(())
    }

    fn transfer_by_eq(&mut self, t: Term, e: ExprId) -> Result<(), ClosureError> {
        if !self.config.eq_transfer {
            return Ok(());
        }
        for b in self.out.eq.get(&e).cloned().unwrap_or_default() {
            let eq_term = Term::eq(e, b).expect("adjacency implies distinct");
            let (derived, label) = match t {
                Term::Ta(_) => (Some(Term::Ta(b)), labels::ALTER_BY_EQ),
                Term::Pa(_) => (Some(Term::Pa(b)), labels::ALTER_BY_EQ),
                Term::Ti(_, o) => (Some(Term::Ti(b, o)), labels::INFER_BY_EQ),
                Term::Pi(_, o) => (Some(Term::Pi(b, o)), labels::INFER_BY_EQ),
                Term::PiStar(x, y, o) => {
                    let other = if x == e { y } else { x };
                    if other == b {
                        (None, labels::INFER_BY_EQ)
                    } else {
                        (Term::pi_star(b, other, o), labels::INFER_BY_EQ)
                    }
                }
                Term::Eq(..) => (None, labels::RULE_EQ),
            };
            if let Some(nt) = derived {
                self.derive(nt, label, vec![eq_term, t])?;
            }
        }
        Ok(())
    }

    fn fire_local_rules(&mut self, e: ExprId) -> Result<(), ClosureError> {
        if !self.config.basic_rules {
            return Ok(());
        }
        let nodes: Vec<ExprId> = self
            .basic_slots
            .get(&e)
            .map(|v| v.iter().map(|(n, _)| *n).collect())
            .unwrap_or_default();
        for node in nodes {
            self.try_node(node)?;
        }
        Ok(())
    }

    fn try_node(&mut self, node: ExprId) -> Result<(), ClosureError> {
        let (op, args) = match &self.prog.get(node).kind {
            NKind::Basic(op, args) => (*op, args.clone()),
            _ => return Ok(()),
        };
        let rules = self.op_rules.get(&op).cloned().unwrap_or_default();
        for rule in &rules {
            self.try_rule(node, &args, rule)?;
        }
        Ok(())
    }

    fn slot_expr(&self, node: ExprId, args: &[ExprId], slot: Slot) -> ExprId {
        match slot {
            Slot::Arg(i) => args[i],
            Slot::Ret => node,
        }
    }

    fn try_rule(
        &mut self,
        node: ExprId,
        args: &[ExprId],
        rule: &LocalRule,
    ) -> Result<(), ClosureError> {
        let conclusion_down = match rule.conclusion {
            LTerm::Cap(_, Slot::Ret) => true,
            LTerm::Cap(_, Slot::Arg(_)) => false,
            LTerm::PiStar(a, b) => matches!(a, Slot::Ret) || matches!(b, Slot::Ret),
        };
        let guard_ok = |o: Origin| -> bool {
            if !self.config.feedback_guard {
                return true;
            }
            if conclusion_down {
                !(o.num == node && o.dir == Dir::Up)
            } else {
                o.num != node
            }
        };

        let mut premises = Vec::with_capacity(rule.premises.len());
        for p in &rule.premises {
            let found = match *p {
                LTerm::Cap(LCap::Ta, s) => {
                    let e = self.slot_expr(node, args, s);
                    self.out.ta.contains(&e).then_some(Term::Ta(e))
                }
                LTerm::Cap(LCap::Pa, s) => {
                    let e = self.slot_expr(node, args, s);
                    self.out.pa.contains(&e).then_some(Term::Pa(e))
                }
                LTerm::Cap(LCap::Ti, s) => {
                    let e = self.slot_expr(node, args, s);
                    self.out
                        .ti
                        .get(&e)
                        .and_then(|os| os.iter().copied().find(|o| guard_ok(*o)))
                        .map(|o| Term::Ti(e, o))
                }
                LTerm::Cap(LCap::Pi, s) => {
                    let e = self.slot_expr(node, args, s);
                    self.out
                        .pi
                        .get(&e)
                        .and_then(|os| os.iter().copied().find(|o| guard_ok(*o)))
                        .map(|o| Term::Pi(e, o))
                }
                LTerm::PiStar(s1, s2) => {
                    if !self.config.pi_star {
                        None
                    } else {
                        let a = self.slot_expr(node, args, s1);
                        let b = self.slot_expr(node, args, s2);
                        self.out
                            .pistar
                            .get(&a)
                            .and_then(|v| {
                                v.iter()
                                    .find(|(other, o)| *other == b && guard_ok(*o))
                                    .map(|(_, o)| *o)
                            })
                            .and_then(|o| Term::pi_star(a, b, o))
                    }
                }
            };
            match found {
                Some(t) => premises.push(t),
                None => return Ok(()),
            }
        }

        let dir = if conclusion_down { Dir::Down } else { Dir::Up };
        let origin = Origin::new(node, dir);
        let conclusion = match rule.conclusion {
            LTerm::Cap(LCap::Ta, s) => Some(Term::Ta(self.slot_expr(node, args, s))),
            LTerm::Cap(LCap::Pa, s) => Some(Term::Pa(self.slot_expr(node, args, s))),
            LTerm::Cap(LCap::Ti, s) => Some(Term::Ti(self.slot_expr(node, args, s), origin)),
            LTerm::Cap(LCap::Pi, s) => Some(Term::Pi(self.slot_expr(node, args, s), origin)),
            LTerm::PiStar(s1, s2) => {
                if !self.config.pi_star {
                    None
                } else {
                    Term::pi_star(
                        self.slot_expr(node, args, s1),
                        self.slot_expr(node, args, s2),
                        origin,
                    )
                }
            }
        };
        if let Some(c) = conclusion {
            self.derive(c, rule.name, premises)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::Closure;
    use oodb_lang::parse_schema;

    const STOCKBROKER: &str = r#"
        class Broker { name: string, salary: int, budget: int, profit: int }
        fn checkBudget(broker: Broker): bool {
          r_budget(broker) >= 10 * r_salary(broker)
        }
        user clerk { checkBudget, w_budget }
        user safe_clerk { checkBudget }
    "#;

    fn prog_for(user: &str) -> NProgram {
        let schema = parse_schema(STOCKBROKER).unwrap();
        oodb_lang::check_schema(&schema).unwrap();
        NProgram::unfold(&schema, schema.user_str(user).unwrap()).unwrap()
    }

    #[test]
    fn reference_finds_figure_one() {
        let prog = prog_for("clerk");
        let c = RefClosure::compute(&prog).unwrap();
        assert!(c.has_ti(5));
        assert!(c.contains(&Term::Eq(1, 8)));
    }

    #[test]
    fn reference_matches_fast_engine_exactly() {
        for user in ["clerk", "safe_clerk"] {
            let prog = prog_for(user);
            let slow = RefClosure::compute(&prog).unwrap();
            let fast = Closure::compute(&prog).unwrap();
            let t1: Vec<Term> = slow.iter().collect();
            let t2: Vec<Term> = fast.iter().collect();
            assert_eq!(t1, t2, "insertion orders differ for {user}");
            assert_eq!(slow.rounds(), fast.rounds(), "rounds differ for {user}");
            for e in 1..=prog.len() as ExprId {
                assert_eq!(slow.ti_witness(e), fast.ti_witness(e), "ti witness @{e}");
                assert_eq!(slow.pi_witness(e), fast.pi_witness(e), "pi witness @{e}");
                assert_eq!(slow.equal_to(e), fast.equal_to(e), "eq adjacency @{e}");
            }
        }
    }

    #[test]
    fn reference_term_limit_aborts_like_fast() {
        let prog = prog_for("clerk");
        assert!(matches!(
            RefClosure::compute_with(&prog, &RuleConfig::default(), 5),
            Err(ClosureError::TermLimit { limit: 5 })
        ));
    }

    #[test]
    fn analyze_ref_agrees_on_the_paper_example() {
        let schema = parse_schema(STOCKBROKER).unwrap();
        oodb_lang::check_schema(&schema).unwrap();
        let req = oodb_lang::parse_requirement("(clerk, r_salary(x) : ti)").unwrap();
        let cfg = AnalysisConfig::default();
        let slow = analyze_ref(&schema, &req, &cfg).unwrap();
        let fast = crate::algorithm::analyze(&schema, &req).unwrap();
        assert_eq!(slow, fast);
        assert!(slow.is_violated());
    }
}

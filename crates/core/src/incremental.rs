//! Incremental maintenance of one user's closure under capability edits.
//!
//! No `secflow` command runs this module. `secflow serve` answers an edit
//! by running [`analyze_caps`](crate::algorithm::analyze_caps) on the
//! edited list: the demand slice of one list costs less than maintaining
//! its whole proof-carrying closure on every edit-trace workload measured,
//! dense equality cores included. The module stays only because the
//! repository benchmark's traced replay (`perfbench`) still mirrors `serve`
//! edits with [`IncrementalUser`].
//!
//! Maintenance makes an edit cost time proportional to the *edit* rather
//! than the closure:
//!
//! * **Grant** is the easy direction — the inference system is monotone, so
//!   every old term survives (translated into the new id space) and the new
//!   function's terms are reached by ordinary propagation from its axioms.
//!   [`Closure::saturate_from`] absorbs the survivors, re-seeds the axioms
//!   (old ones dedup to no-ops), and drains to fixpoint.
//! * **Revoke** needs *retraction*. We reuse the recorded [`Derivation`]s —
//!   the same proof DAG [`Closure::certify`](crate::checker) validates — for
//!   a DRed-style over-delete/re-derive pass:
//!
//!   1. **Cascade** (old id space): walk the term log in insertion order
//!      (premises always precede conclusions) and delete every term that
//!      either mentions a removed node (expression mentions *and* origin
//!      serials — an origin names the basic-function node the inference
//!      flowed through, so a proof carrying a removed origin is dead) or has
//!      a deleted premise in its recorded proof. This *over*-deletes: a term
//!      whose recorded proof died may still have an alternative proof.
//!   2. **Translate**: one edit removes one contiguous id block per revoked
//!      outer, so the old→new id map is strictly monotone — pair
//!      normalisation of `=`/`pi*` terms is preserved and surviving
//!      derivations translate premise-for-premise into valid rule instances
//!      of the new program.
//!   3. **Re-derive**: absorb the survivors, then push a *frontier* onto the
//!      worklist — every survivor whose mentions (or origin serial) touch
//!      `X`, the deleted-mention set `M` closed one step under the
//!      program's *template groups* (a basic node with its arguments, a
//!      read with its receiver, a write with its receiver and value, a
//!      constructor with its arguments). Any rule instance able to
//!      re-derive an over-deleted term concludes a term whose mentions lie
//!      in `M`, so its anchor node's group intersects `M` and its surviving
//!      premises sit inside `X` — i.e. on the frontier. Draining from the
//!      frontier therefore restores exactly the alternative-proof
//!      survivors, and everything downstream by normal propagation.
//!
//! The result is asserted byte-identical (as a term *set* — insertion order
//! legitimately differs) to a from-scratch recompute by the differential
//! suite (`tests/incremental_differential.rs`).
//!
//! ## Canonical witnesses
//!
//! Verdict *witnesses* out of an incrementally-maintained closure cannot use
//! [`Closure::ti_witness`]'s first-derived pick: insertion order after a
//! warm restart differs from scratch. [`CanonicalView`] answers the same
//! [`CapabilityView`] queries with the **minimum** origin per occurrence —
//! an order-independent choice — so incremental and from-scratch closures
//! produce identical verdicts *including* witness terms when both are read
//! through it.

use crate::algorithm::{
    check_with_occurrences, occurrences, AnalysisConfig, AnalysisError, CapabilityView,
};
use crate::closure::{Closure, Derivation, Goal, ProofMode};
use crate::fxhash::FxHashSet;
use crate::report::Verdict;
use crate::stats::NoopObserver;
use crate::term::{Origin, Term, TermId};
use crate::unfold::{ExprId, NKind, NProgram};
use oodb_lang::requirement::Requirement;
use oodb_lang::Schema;
use oodb_model::{CapabilityList, FnRef, UserName};

/// Read a closure through insertion-order-independent witness selection:
/// the minimum `(num, dir)` origin per occurrence instead of the first
/// derived. Wraps any [`Closure`] — scratch or incrementally maintained —
/// so verdicts compare meaningfully across derivation orders.
pub struct CanonicalView<'a>(pub &'a Closure);

impl CapabilityView for CanonicalView<'_> {
    fn has_ta(&self, e: ExprId) -> bool {
        self.0.has_ta(e)
    }
    fn has_pa(&self, e: ExprId) -> bool {
        self.0.has_pa(e)
    }
    fn ti_witness(&self, e: ExprId) -> Option<Term> {
        // `Origin` orders by (num, dir) with Down < Up — the same order as
        // the engine's packed origin bit — so `min` is canonical.
        self.0.ti_origins(e).iter().min().map(|o| Term::Ti(e, *o))
    }
    fn pi_witness(&self, e: ExprId) -> Option<Term> {
        self.0.pi_origins(e).iter().min().map(|o| Term::Pi(e, *o))
    }
}

/// What an edit did to the maintained closure (telemetry for the
/// benchmark's traced replay).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EditOutcome {
    /// Did the edit change the capability list at all? `false` for granting
    /// an already-granted function or revoking an absent one — the closure
    /// is untouched.
    pub changed: bool,
    /// Terms removed by the deletion cascade (revoke only).
    pub deleted: usize,
    /// Terms carried over (absorbed) from the previous closure.
    pub survivors: usize,
    /// Terms derived fresh by the warm restart (new function's terms on a
    /// grant; recovered alternative-proof terms on a revoke).
    pub rederived: usize,
}

/// One user's capability list, unfolded program and **proof-carrying**
/// closure, maintained incrementally across [`grant`](IncrementalUser::grant)
/// / [`revoke`](IncrementalUser::revoke) edits.
///
/// Edits are transactional: on any error (unknown function, unfolding or
/// term budget) the state is left exactly as before. The term budget behaves
/// as from-scratch: an edit whose resulting fixpoint would exceed
/// `config.term_limit` fails just as the recompute would.
pub struct IncrementalUser {
    user: UserName,
    caps: CapabilityList,
    prog: NProgram,
    closure: Closure,
    config: AnalysisConfig,
}

impl IncrementalUser {
    /// Materialise a user from the schema catalog with a full
    /// ([`ProofMode::Full`]) saturation — the proofs are what the next
    /// revoke's deletion cascade walks.
    pub fn new(
        schema: &Schema,
        user: &UserName,
        config: &AnalysisConfig,
    ) -> Result<IncrementalUser, AnalysisError> {
        let caps = schema
            .user(user)
            .cloned()
            .ok_or_else(|| AnalysisError::UnknownUser(user.to_string()))?;
        let prog = NProgram::unfold_with_limit(schema, &caps, config.node_limit)?;
        let opts = config.closure_options(Goal::Full(ProofMode::Full));
        let closure = Closure::saturate(&prog, &opts, NoopObserver).0?;
        Ok(IncrementalUser {
            user: user.clone(),
            caps,
            prog,
            closure,
            config: *config,
        })
    }

    /// The user this state belongs to.
    pub fn user(&self) -> &UserName {
        &self.user
    }

    /// The current capability list (schema catalog + applied edits).
    pub fn caps(&self) -> &CapabilityList {
        &self.caps
    }

    /// The current unfolded program.
    pub fn program(&self) -> &NProgram {
        &self.prog
    }

    /// The maintained closure.
    pub fn closure(&self) -> &Closure {
        &self.closure
    }

    /// Check a requirement against the maintained closure through
    /// [`CanonicalView`]. The requirement must target this user (routing is
    /// the caller's job).
    pub fn check(&self, req: &Requirement) -> Verdict {
        debug_assert_eq!(&req.user, &self.user, "requirement routed to wrong user");
        let occs = occurrences(&self.prog, &req.target);
        check_with_occurrences(&self.prog, &CanonicalView(&self.closure), req, &occs)
    }

    /// Grant `f`. Monotone direction: every old term survives; the new
    /// function's terms arrive by ordinary propagation from its re-seeded
    /// axioms, so no frontier is needed.
    pub fn grant(&mut self, schema: &Schema, f: &FnRef) -> Result<EditOutcome, AnalysisError> {
        if self.caps.allows(f) {
            return Ok(EditOutcome {
                changed: false,
                survivors: self.closure.len(),
                ..EditOutcome::default()
            });
        }
        let mut caps = self.caps.clone();
        caps.grant(f.clone());
        let prog = NProgram::unfold_with_limit(schema, &caps, self.config.node_limit)?;
        let map = translation_map(&self.prog, &prog, f, EditKind::Grant);
        let survivors: Vec<(Term, Derivation)> = self
            .closure
            .iter_proofs()
            .map(|(t, proof)| {
                (
                    translate_term(t, &map),
                    translate_deriv(proof.clone(), &map),
                )
            })
            .collect();
        let survived = survivors.len();
        let closure = Closure::saturate_from(
            &prog,
            &self.config.rules,
            self.config.term_limit,
            survivors,
            &[],
        )?;
        let outcome = EditOutcome {
            changed: true,
            deleted: 0,
            survivors: survived,
            rederived: closure.len() - survived,
        };
        self.caps = caps;
        self.prog = prog;
        self.closure = closure;
        Ok(outcome)
    }

    /// Revoke `f`: proof-guided deletion cascade, monotone id translation,
    /// frontier-driven re-derivation (module docs walk through why each
    /// step is sound and complete).
    pub fn revoke(&mut self, schema: &Schema, f: &FnRef) -> Result<EditOutcome, AnalysisError> {
        if !self.caps.allows(f) {
            return Ok(EditOutcome {
                changed: false,
                survivors: self.closure.len(),
                ..EditOutcome::default()
            });
        }
        let mut caps = self.caps.clone();
        caps.revoke(f);
        let prog = NProgram::unfold_with_limit(schema, &caps, self.config.node_limit)?;
        let map = translation_map(&self.prog, &prog, f, EditKind::Revoke);

        // Phase 1 — deletion cascade in the *old* id space. `removed[e]`
        // marks the revoked outers' contiguous id blocks. Premises precede
        // conclusions in the log, so one forward pass settles the DAG.
        let old_n = self.prog.len() + 1;
        let mut removed = vec![false; old_n];
        for (e, &to) in map.iter().enumerate() {
            removed[e] = e > 0 && to == 0;
        }
        let new_n = prog.len() + 1;
        let mut m_new = vec![false; new_n];
        let mut dead: FxHashSet<TermId> = FxHashSet::default();
        let mut survivors: Vec<(Term, Derivation)> = Vec::new();
        for (t, proof) in self.closure.iter_proofs() {
            let dies = touches_removed(&t, &removed)
                || proof
                    .premises
                    .iter()
                    .any(|p| dead.contains(&TermId::new(*p)));
            if dies {
                dead.insert(TermId::new(t));
                // Record the deleted term's footprint in the *new* id
                // space; mentions inside the removed block vanish with it.
                for e in term_footprint(&t) {
                    let to = map[e as usize];
                    if to != 0 {
                        m_new[to as usize] = true;
                    }
                }
            } else {
                survivors.push((
                    translate_term(t, &map),
                    translate_deriv(proof.clone(), &map),
                ));
            }
        }

        // Phase 2 — frontier: close M one step under the new program's
        // template groups, then collect every survivor touching the result.
        let x = group_closure(&prog, m_new);
        let frontier: Vec<Term> = survivors
            .iter()
            .map(|(t, _)| *t)
            .filter(|t| term_footprint(t).any(|e| x[e as usize]))
            .collect();

        let survived = survivors.len();
        let closure = Closure::saturate_from(
            &prog,
            &self.config.rules,
            self.config.term_limit,
            survivors,
            &frontier,
        )?;
        let outcome = EditOutcome {
            changed: true,
            deleted: dead.len(),
            survivors: survived,
            rederived: closure.len() - survived,
        };
        self.caps = caps;
        self.prog = prog;
        self.closure = closure;
        Ok(outcome)
    }
}

enum EditKind {
    Grant,
    Revoke,
}

/// Old→new id map for a one-function edit. Outer id blocks are contiguous
/// and in capability-list order on both sides, so pairing the outer lists —
/// skipping the edited function's outers on whichever side has them — gives
/// a strictly monotone map. Index 0 (the invalid id) and removed ids map
/// to 0.
fn translation_map(old: &NProgram, new: &NProgram, f: &FnRef, kind: EditKind) -> Vec<ExprId> {
    let mut map = vec![0 as ExprId; old.len() + 1];
    let mut j = 0usize;
    let mut old_cursor: ExprId = 0;
    let mut new_cursor: ExprId = 0;
    for o in &old.outers {
        let old_hi = o.root;
        if matches!(kind, EditKind::Revoke) && &o.fn_ref == f {
            old_cursor = old_cursor.max(old_hi);
            continue;
        }
        if matches!(kind, EditKind::Grant) {
            while j < new.outers.len() && &new.outers[j].fn_ref == f {
                new_cursor = new_cursor.max(new.outers[j].root);
                j += 1;
            }
        }
        let n = &new.outers[j];
        debug_assert_eq!(n.fn_ref, o.fn_ref, "outer lists misaligned");
        j += 1;
        let new_hi = n.root;
        for e in (old_cursor + 1)..=old_hi {
            map[e as usize] = e - old_cursor + new_cursor;
        }
        old_cursor = old_cursor.max(old_hi);
        new_cursor = new_cursor.max(new_hi);
    }
    map
}

/// Every id a term's identity references: expression mentions plus the
/// origin serial when non-zero (the origin names the basic-function node
/// the inference flowed through — structurally part of the term).
fn term_footprint(t: &Term) -> impl Iterator<Item = ExprId> {
    let (a, b) = t.mentions();
    let o = t.origin().map(|o| o.num).filter(|n| *n != 0);
    std::iter::once(a).chain(b).chain(o)
}

fn touches_removed(t: &Term, removed: &[bool]) -> bool {
    term_footprint(t).any(|e| removed[e as usize])
}

fn translate_origin(o: Origin, map: &[ExprId]) -> Origin {
    if o.num == 0 {
        o
    } else {
        let num = map[o.num as usize];
        debug_assert_ne!(num, 0, "survivor origin in removed range");
        Origin { num, dir: o.dir }
    }
}

/// Translate a term through the monotone map. Monotonicity preserves the
/// `a < b` pair normalisation, so variants rebuild directly.
fn translate_term(t: Term, map: &[ExprId]) -> Term {
    let tr = |e: ExprId| -> ExprId {
        let to = map[e as usize];
        debug_assert_ne!(to, 0, "survivor mentions a removed id");
        to
    };
    match t {
        Term::Ta(e) => Term::Ta(tr(e)),
        Term::Pa(e) => Term::Pa(tr(e)),
        Term::Ti(e, o) => Term::Ti(tr(e), translate_origin(o, map)),
        Term::Pi(e, o) => Term::Pi(tr(e), translate_origin(o, map)),
        Term::PiStar(a, b, o) => Term::PiStar(tr(a), tr(b), translate_origin(o, map)),
        Term::Eq(a, b) => Term::Eq(tr(a), tr(b)),
    }
}

fn translate_deriv(d: Derivation, map: &[ExprId]) -> Derivation {
    Derivation {
        rule: d.rule,
        premises: d
            .premises
            .into_iter()
            .map(|p| translate_term(p, map))
            .collect(),
    }
}

/// Close `m` one step under the program's template groups: a node whose
/// group intersects `m` contributes its whole group. Only node kinds whose
/// local rules relate several occurrences form groups — `let`s, variables
/// and constants connect to the rest of the program through axioms and
/// derived equalities alone, which the frontier covers via `m` itself.
fn group_closure(prog: &NProgram, m: Vec<bool>) -> Vec<bool> {
    let mut x = m.clone();
    let mark = |x: &mut Vec<bool>, group: &[ExprId]| {
        if group.iter().any(|&g| m[g as usize]) {
            for &g in group {
                x[g as usize] = true;
            }
        }
    };
    let mut buf: Vec<ExprId> = Vec::with_capacity(6);
    for e in prog.iter() {
        buf.clear();
        match &e.kind {
            NKind::Basic(_, args) => {
                buf.push(e.id);
                buf.extend(args.iter().copied());
            }
            NKind::Read(_, recv) => buf.extend([e.id, *recv]),
            NKind::Write(_, recv, val) => buf.extend([e.id, *recv, *val]),
            NKind::New(_, args) => {
                buf.push(e.id);
                buf.extend(args.iter().map(|(_, id)| *id));
            }
            _ => continue,
        }
        mark(&mut x, &buf);
    }
    x
}

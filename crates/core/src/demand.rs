//! Demand-driven analysis: relevance slicing and goal tracking.
//!
//! `A(R)`'s verdict check only ever queries `ta`/`pa`/`ti`/`pi` on the
//! argument and result occurrences of the requirement's target function,
//! yet full saturation derives the whole `F(F)` term universe — `O(N²)`
//! capability and equality terms plus `O(N³)` `pi*` tuples. This module is
//! the magic-sets-style fix: from the goal occurrences we compute a
//! conservative *relevance slice* of the numbered program (a cone of
//! influence closed under the premise shapes of Table 2), so the engine can
//! refuse every derivation that mentions an expression outside the slice
//! without losing any derivation into the goal set.
//!
//! # Slice construction
//!
//! `REL` is the least set of occurrences containing the goal expressions
//! and closed under:
//!
//! * **undirected clubs** — groups whose members only ever appear together
//!   in rule premises and conclusions, so any member drags in the rest:
//!   - a `LetVar` and its binding, a `Let` node and its body (the `=`
//!     axioms connect exactly these pairs);
//!   - a basic node and its arguments (the Table 2 local rules and the
//!     diagonal rule mention only node + argument slots);
//!   - outer argument variables of the same static type (the `=` axiom
//!     ranges over all same-typed pairs);
//!   - the per-attribute "hub": all reads of an attribute, all written
//!     values of it, and all constructor arguments initialising it (the
//!     write-read, constructor-read and congruence rules conclude `=`
//!     between hub members);
//! * **directed pulls** — premise-only support that never receives
//!   conclusions from the goal side:
//!   - a relevant read pulls its receiver (congruence and write-read
//!     premises test equalities between receivers);
//!   - an activated hub pulls the write receivers and constructor nodes of
//!     its attribute (rule premises mention them; conclusions land on hub
//!     members).
//!
//! Because every `=`-producing rule concludes on a club edge, the full
//! equality class of any relevant expression is itself relevant, which in
//! turn covers transitivity, capability transfer over `=`, the `pi*`
//! substitution rule, and the intermediate endpoint of the `pi*` join
//! (whose potential graph is a subgraph of `=`-edges plus basic clubs).
//! Consequently the restricted engine derives exactly the full-closure
//! terms whose mentions lie inside `REL`, in the same order — witnesses
//! included.
//!
//! # Goals and early exit
//!
//! [`GoalTracker`] watches insertions for the exact queries
//! `check_against` will make. Closure growth is monotone, so the moment
//! every goal of an occurrence is derived, that occurrence is decided
//! *Violated* — no later derivation can retract it. Once every tracked
//! occurrence is decided the engine can stop saturating: the verdict and
//! all its witnesses are already fixed. `Satisfied` verdicts still require
//! draining the sliced worklist (absence of a term is only known at
//! fixpoint).

use crate::algorithm::occurrences;
use crate::fxhash::FxHashMap;
use crate::report::{Occurrence, OccurrenceKind};
use crate::term::Term;
use crate::unfold::{ExprId, NKind, NProgram};
use oodb_lang::requirement::{Cap, Requirement};
use oodb_model::Type;

/// One capability query the verdict check will make, attributed to the
/// tracked occurrence it belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TrackedGoal {
    expr: ExprId,
    cap: Cap,
    occ: u32,
}

/// The demand plan for one closure run: the relevance slice plus the goal
/// set of every requirement sharing the run.
#[derive(Clone, Debug)]
pub struct DemandPlan {
    /// In-slice flag per `ExprId` (index 0 unused).
    slice: Vec<bool>,
    slice_len: usize,
    goals: Vec<TrackedGoal>,
    /// Goals per tracked occurrence (occurrences that can never be violated
    /// — a failed static capability test or an arity mismatch — are not
    /// tracked at all).
    occ_goal_counts: Vec<u32>,
}

impl DemandPlan {
    /// Build a plan covering several requirements at once (a batch group):
    /// each requirement comes with its target occurrences in the shared
    /// unfolded program.
    pub fn build<'a, I>(prog: &NProgram, targets: I) -> DemandPlan
    where
        I: IntoIterator<Item = (&'a Requirement, &'a [Occurrence])>,
    {
        let mut goals = Vec::new();
        let mut occ_goal_counts = Vec::new();
        for (req, occs) in targets {
            for occ in occs {
                if let Some(pairs) = occurrence_goals(prog, req, occ) {
                    let oi = occ_goal_counts.len() as u32;
                    occ_goal_counts.push(pairs.len() as u32);
                    for (expr, cap) in pairs {
                        goals.push(TrackedGoal { expr, cap, occ: oi });
                    }
                }
            }
        }
        let (slice, slice_len) = compute_slice(prog, goals.iter().map(|g| g.expr));
        DemandPlan {
            slice,
            slice_len,
            goals,
            occ_goal_counts,
        }
    }

    /// Convenience: plan for a single requirement, enumerating its target
    /// occurrences internally.
    pub fn for_requirement(prog: &NProgram, req: &Requirement) -> DemandPlan {
        let occs = occurrences(prog, &req.target);
        DemandPlan::build(prog, [(req, occs.as_slice())])
    }

    /// Is the expression inside the relevance slice?
    pub fn covers_expr(&self, e: ExprId) -> bool {
        self.slice.get(e as usize).copied().unwrap_or(false)
    }

    /// Do all the expressions a term mentions lie inside the slice?
    pub fn covers(&self, t: &Term) -> bool {
        let (a, b) = t.mentions();
        self.covers_expr(a) && b.is_none_or(|b| self.covers_expr(b))
    }

    /// Number of program occurrences inside the slice.
    pub fn slice_len(&self) -> usize {
        self.slice_len
    }

    /// Number of capability goals across all tracked occurrences.
    pub fn goal_count(&self) -> usize {
        self.goals.len()
    }

    /// Number of tracked occurrences (those that could still be violated).
    pub fn tracked_occurrences(&self) -> usize {
        self.occ_goal_counts.len()
    }

    /// A fresh tracker for one engine run over this plan.
    pub fn tracker(&self) -> GoalTracker {
        let mut index: FxHashMap<(ExprId, Cap), Vec<u32>> = FxHashMap::default();
        for (gi, g) in self.goals.iter().enumerate() {
            index.entry((g.expr, g.cap)).or_default().push(gi as u32);
        }
        let remaining = self.occ_goal_counts.clone();
        let undecided = remaining.iter().filter(|&&n| n > 0).count();
        GoalTracker {
            index,
            goal_occ: self.goals.iter().map(|g| g.occ).collect(),
            satisfied: vec![false; self.goals.len()],
            remaining,
            undecided,
        }
    }
}

/// Watches term insertions and reports when every tracked occurrence has
/// all of its goals derived (at which point the verdict is fixed and the
/// engine may stop).
#[derive(Clone, Debug)]
pub struct GoalTracker {
    /// `(expr, cap)` → indexes of goals asking exactly that query.
    index: FxHashMap<(ExprId, Cap), Vec<u32>>,
    /// Goal index → tracked occurrence index.
    goal_occ: Vec<u32>,
    satisfied: Vec<bool>,
    /// Unsatisfied goals per tracked occurrence.
    remaining: Vec<u32>,
    /// Tracked occurrences with at least one unsatisfied goal. Occurrences
    /// with zero goals are decided (violated) from the start.
    undecided: usize,
}

impl GoalTracker {
    /// Record a newly inserted term; returns [`GoalTracker::all_decided`].
    ///
    /// `ti`/`pi` goals are satisfied by any origin; the capability tables
    /// answer `has_ti`/`has_pi` on membership, and the lattice rule inserts
    /// the `pa`/`pi` weakenings as separate terms, so matching the exact
    /// term kind is complete.
    pub fn on_insert(&mut self, t: &Term) -> bool {
        let key = match *t {
            Term::Ta(e) => (e, Cap::Ta),
            Term::Pa(e) => (e, Cap::Pa),
            Term::Ti(e, _) => (e, Cap::Ti),
            Term::Pi(e, _) => (e, Cap::Pi),
            Term::PiStar(..) | Term::Eq(..) => return self.undecided == 0,
        };
        if let Some(ids) = self.index.get(&key) {
            for &gi in ids {
                let gi = gi as usize;
                if !self.satisfied[gi] {
                    self.satisfied[gi] = true;
                    let occ = self.goal_occ[gi] as usize;
                    self.remaining[occ] -= 1;
                    if self.remaining[occ] == 0 {
                        self.undecided -= 1;
                    }
                }
            }
        }
        self.undecided == 0
    }

    /// Are all tracked occurrences decided (every goal derived)? True for
    /// an empty goal set — in that case the verdict needs no closure terms
    /// at all.
    pub fn all_decided(&self) -> bool {
        self.undecided == 0
    }
}

/// The capability queries `occurrence_violates` will make on this
/// occurrence, or `None` when the occurrence can never be violated (a
/// `ti`/`pi` capability demanded on a non-basic outer parameter, or more
/// capability positions than the occurrence has arguments).
fn occurrence_goals(
    prog: &NProgram,
    req: &Requirement,
    occ: &Occurrence,
) -> Option<Vec<(ExprId, Cap)>> {
    let mut goals = Vec::new();
    match occ.kind {
        OccurrenceKind::OuterAccess { outer } => {
            let o = &prog.outers[outer];
            for (i, caps) in req.arg_caps.iter().enumerate() {
                let ty = o
                    .params
                    .get(i)
                    .map(|(_, t)| t)
                    .cloned()
                    .unwrap_or(Type::Null);
                for cap in caps {
                    let achieved = match cap {
                        Cap::Ta | Cap::Pa => true,
                        Cap::Ti | Cap::Pi => ty.is_basic(),
                    };
                    if !achieved {
                        return None;
                    }
                }
            }
        }
        OccurrenceKind::Inner { .. } => {
            for (i, caps) in req.arg_caps.iter().enumerate() {
                let arg = *occ.args.get(i)?;
                for cap in caps {
                    goals.push((arg, *cap));
                }
            }
        }
    }
    for cap in &req.ret_caps {
        goals.push((occ.ret, *cap));
    }
    Some(goals)
}

fn mark(in_slice: &mut [bool], stack: &mut Vec<ExprId>, e: ExprId) {
    let i = e as usize;
    if i == 0 || i >= in_slice.len() || in_slice[i] {
        return;
    }
    in_slice[i] = true;
    stack.push(e);
}

/// The relevance fixpoint: grow the seed set along the club and pull edges
/// described in the module docs until stable.
fn compute_slice(prog: &NProgram, seeds: impl Iterator<Item = ExprId>) -> (Vec<bool>, usize) {
    let n = prog.len() + 1;
    // Static edge structure, one pass over the program.
    let mut undirected: Vec<Vec<ExprId>> = vec![Vec::new(); n];
    let mut read_recv: Vec<Option<ExprId>> = vec![None; n];
    let mut type_of: Vec<Option<usize>> = vec![None; n];
    let mut type_members: Vec<Vec<ExprId>> = Vec::new();
    let mut type_keys: Vec<Type> = Vec::new();
    for e in prog.iter() {
        match &e.kind {
            NKind::LetVar { binding, .. } => {
                undirected[e.id as usize].push(*binding);
                undirected[*binding as usize].push(e.id);
            }
            NKind::Let { body, .. } => {
                undirected[e.id as usize].push(*body);
                undirected[*body as usize].push(e.id);
            }
            NKind::Basic(_, args) => {
                for a in args {
                    undirected[e.id as usize].push(*a);
                    undirected[*a as usize].push(e.id);
                }
            }
            NKind::Read(_, recv) => {
                read_recv[e.id as usize] = Some(*recv);
            }
            NKind::ArgVar { .. } => {
                let ti = match type_keys.iter().position(|t| *t == e.ty) {
                    Some(i) => i,
                    None => {
                        type_keys.push(e.ty.clone());
                        type_members.push(Vec::new());
                        type_keys.len() - 1
                    }
                };
                type_of[e.id as usize] = Some(ti);
                type_members[ti].push(e.id);
            }
            _ => {}
        }
    }
    // Attribute hubs: reads, written values and constructor arguments are
    // the activating members; receivers and constructor nodes are support.
    let sites = prog.attr_sites();
    let mut hub_of: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (hi, (_, s)) in sites.iter().enumerate() {
        for &m in s.reads.iter().chain(&s.write_values).chain(&s.ctor_args) {
            hub_of[m as usize].push(hi);
        }
    }

    let mut in_slice = vec![false; n];
    let mut stack: Vec<ExprId> = Vec::new();
    let mut type_active = vec![false; type_members.len()];
    let mut hub_active = vec![false; sites.len()];
    for s in seeds {
        mark(&mut in_slice, &mut stack, s);
    }
    while let Some(e) = stack.pop() {
        let i = e as usize;
        for &m in &undirected[i] {
            mark(&mut in_slice, &mut stack, m);
        }
        if let Some(r) = read_recv[i] {
            mark(&mut in_slice, &mut stack, r);
        }
        if let Some(ti) = type_of[i] {
            if !type_active[ti] {
                type_active[ti] = true;
                for &m in &type_members[ti] {
                    mark(&mut in_slice, &mut stack, m);
                }
            }
        }
        for &hi in &hub_of[i] {
            if !hub_active[hi] {
                hub_active[hi] = true;
                let s = &sites[hi].1;
                for &m in s
                    .reads
                    .iter()
                    .chain(&s.write_values)
                    .chain(&s.ctor_args)
                    .chain(&s.write_receivers)
                    .chain(&s.ctor_nodes)
                {
                    mark(&mut in_slice, &mut stack, m);
                }
            }
        }
    }
    let slice_len = in_slice.iter().filter(|&&b| b).count();
    (in_slice, slice_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_lang::{parse_requirement, parse_schema, Schema};
    use oodb_model::FnRef;

    const STOCKBROKER: &str = r#"
        class Broker { name: string, salary: int, budget: int, profit: int }

        fn checkBudget(broker: Broker): bool {
          r_budget(broker) >= 10 * r_salary(broker)
        }

        user clerk { checkBudget, w_budget }
    "#;

    fn schema() -> Schema {
        let s = parse_schema(STOCKBROKER).unwrap();
        oodb_lang::check_schema(&s).unwrap();
        s
    }

    fn clerk_prog(s: &Schema) -> NProgram {
        NProgram::unfold(s, s.user_str("clerk").unwrap()).unwrap()
    }

    #[test]
    fn figure_one_slice_reaches_the_write_hub() {
        // 7>=(2r_budget(1broker), 6*(3:10, 5r_salary(4broker)))
        // 10w_budget(8a1, 9a2)
        let s = schema();
        let prog = clerk_prog(&s);
        let req = parse_requirement("(clerk, r_salary(x) : ti)").unwrap();
        let plan = DemandPlan::for_requirement(&prog, &req);
        // Goal 5 pulls its receiver 4, the basic clubs {7,2,6} and {6,3,5},
        // receivers 1, the budget hub {2,9} with support 8, and the
        // same-typed argument-variable club {1,4,8}: everything is sliced.
        for e in 1..=9u32 {
            assert!(plan.covers_expr(e), "expr {e} should be in the slice");
        }
        // The w_budget node itself (10) receives no conclusions the goal
        // needs: it stays outside the slice.
        assert!(!plan.covers_expr(10));
        assert_eq!(plan.slice_len(), 9);
        assert_eq!(plan.tracked_occurrences(), 1);
        assert_eq!(plan.goal_count(), 1);
    }

    #[test]
    fn unreachable_target_has_no_tracked_occurrences() {
        let s = schema();
        let prog = clerk_prog(&s);
        let req = parse_requirement("(clerk, r_name(x) : ti)").unwrap();
        let plan = DemandPlan::for_requirement(&prog, &req);
        assert_eq!(plan.tracked_occurrences(), 0);
        assert_eq!(plan.goal_count(), 0);
        assert_eq!(plan.slice_len(), 0);
        assert!(plan.tracker().all_decided());
    }

    #[test]
    fn outer_static_test_prunes_goals() {
        // ti demanded on an object-typed parameter of a directly granted
        // access function: the user can never fully infer an object they
        // supply, so the outer occurrence is untracked. The inner call of
        // the same function stays tracked with a goal on its binding.
        let s = parse_schema(
            r#"
            class B { v: int }
            fn f(b: B): int { r_v(b) }
            fn g(b: B): int { f(b) }
            user u { f, g }
            "#,
        )
        .unwrap();
        oodb_lang::check_schema(&s).unwrap();
        let prog = NProgram::unfold(&s, s.user_str("u").unwrap()).unwrap();
        let req = parse_requirement("(u, f(x : ti))").unwrap();
        assert_eq!(req.target, FnRef::access("f"));
        let occs = occurrences(&prog, &req.target);
        assert_eq!(occs.len(), 2, "one outer grant, one inner call");
        let plan = DemandPlan::build(&prog, [(&req, occs.as_slice())]);
        assert_eq!(plan.tracked_occurrences(), 1);
        assert_eq!(plan.goal_count(), 1);
        // The tracked goal sits on the inner call's argument binding.
        let inner = occs
            .iter()
            .find(|o| matches!(o.kind, OccurrenceKind::Inner { .. }))
            .unwrap();
        assert!(plan.covers_expr(inner.args[0]));
    }

    #[test]
    fn tracker_counts_down_per_occurrence() {
        let s = schema();
        let prog = clerk_prog(&s);
        let req = parse_requirement("(clerk, r_salary(x) : ti)").unwrap();
        let plan = DemandPlan::for_requirement(&prog, &req);
        let mut tr = plan.tracker();
        assert!(!tr.all_decided());
        // A pi term does not satisfy a ti goal.
        assert!(!tr.on_insert(&Term::Pi(5, crate::term::Origin::AXIOM)));
        // Any-origin ti on the goal expression decides the occurrence.
        assert!(tr.on_insert(&Term::Ti(5, crate::term::Origin::AXIOM)));
        assert!(tr.all_decided());
        // Re-inserting with a different origin is a no-op.
        assert!(tr.on_insert(&Term::Ti(
            5,
            crate::term::Origin::new(2, crate::term::Dir::Up)
        )));
    }

    #[test]
    fn plan_tracks_the_goal_of_each_occurrence() {
        let s = schema();
        let prog = clerk_prog(&s);
        let req = parse_requirement("(clerk, r_budget(x) : ti)").unwrap();
        let occs = occurrences(&prog, &req.target);
        // No outer occurrence (clerk holds no r_budget), one inner node 2:
        // a single goal, ti on 2, decides the plan.
        let plan = DemandPlan::build(&prog, [(&req, occs.as_slice())]);
        assert_eq!((plan.tracked_occurrences(), plan.goal_count()), (1, 1));
        let mut tr = plan.tracker();
        assert!(tr.on_insert(&Term::Ti(2, crate::term::Origin::AXIOM)));
    }
}

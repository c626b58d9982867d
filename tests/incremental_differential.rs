//! Differential testing of incremental grant/revoke maintenance against
//! from-scratch recomputation.
//!
//! The contract of [`IncrementalUser`] is *identity*: after any sequence of
//! edits, the maintained closure holds exactly the same term **set** as a
//! fresh full saturation of the edited capability list (insertion order
//! legitimately differs — retraction replays survivors before the frontier),
//! its recorded proofs pass the certifying checker, and verdicts — read
//! through [`CanonicalView`] on *both* sides, so witness selection is
//! order-independent — match byte-for-byte.

use proptest::prelude::*;
use secflow::algorithm::{check_with_occurrences, occurrences, AnalysisConfig};
use secflow::closure::{Closure, Goal, ProofMode};
use secflow::incremental::{CanonicalView, IncrementalUser};
use secflow::stats::NoopObserver;
use secflow::term::Term;
use secflow::unfold::NProgram;
use secflow_workloads::fixtures;
use secflow_workloads::scale::{self, EditOp};

/// Recompute the user's closure from scratch for the *current* capability
/// list and assert the incremental state matches: term set, certification,
/// and canonical verdict.
fn assert_matches_scratch_with(
    schema: &oodb_lang::Schema,
    inc: &IncrementalUser,
    config: &AnalysisConfig,
    req: &oodb_lang::requirement::Requirement,
    label: &str,
) {
    let prog = NProgram::unfold_with_limit(schema, inc.caps(), config.node_limit)
        .unwrap_or_else(|e| panic!("{label}: scratch unfold: {e}"));
    let opts = config.closure_options(Goal::Full(ProofMode::Full));
    let scratch = Closure::saturate(&prog, &opts, NoopObserver)
        .0
        .unwrap_or_else(|e| panic!("{label}: scratch closure: {e}"));

    // Term-set identity.
    let mut a: Vec<Term> = inc.closure().iter().collect();
    let mut b: Vec<Term> = scratch.iter().collect();
    a.sort();
    b.sort();
    assert_eq!(
        a.len(),
        b.len(),
        "{label}: incremental has {} terms, scratch {}",
        a.len(),
        b.len()
    );
    assert_eq!(a, b, "{label}: closures diverge as term sets");

    // The translated/absorbed proofs must still be valid rule instances of
    // the *edited* program.
    inc.closure()
        .certify(inc.program(), &config.rules)
        .unwrap_or_else(|e| panic!("{label}: incremental closure fails certification: {e}"));

    // Verdict identity through canonical witness selection on both sides.
    let occs = occurrences(&prog, &req.target);
    let want = check_with_occurrences(&prog, &CanonicalView(&scratch), req, &occs);
    let got = inc.check(req);
    assert_eq!(got, want, "{label}: verdicts diverge");
}

/// Replay an edit-trace case, checking identity after every single edit.
fn replay(case: &scale::EditTraceCase, label: &str) {
    let config = AnalysisConfig::default();
    let mut inc = IncrementalUser::new(&case.schema, &case.requirement.user, &config)
        .unwrap_or_else(|e| panic!("{label}: materialize: {e}"));
    assert_matches_scratch_with(&case.schema, &inc, &config, &case.requirement, label);
    for (i, op) in case.edits.iter().enumerate() {
        let step = format!("{label}, edit {i} ({op:?})");
        let outcome = match op {
            EditOp::Grant(f) => inc.grant(&case.schema, f),
            EditOp::Revoke(f) => inc.revoke(&case.schema, f),
        }
        .unwrap_or_else(|e| panic!("{step}: edit failed: {e}"));
        assert!(outcome.changed, "{step}: script ops always change the list");
        assert_matches_scratch_with(&case.schema, &inc, &config, &case.requirement, &step);
    }
}

#[test]
fn edit_trace_identity_chunked() {
    let case = scale::edit_trace(8, 24, 11);
    replay(&case, "edit_trace(8,24,11)");
}

/// The dense equality-clique family: a block of always-granted functions
/// whose bodies all read `a0` and compare against a shared `int` parameter,
/// so derived-equality chains cross outer boundaries. Retraction must hold
/// identity here too, not just on the sparse probe family.
#[test]
fn edit_trace_dense_identity_chunked() {
    for seed in 0..3u64 {
        let case = scale::edit_trace_dense(3, 4, 6, seed);
        replay(&case, &format!("edit_trace_dense(3,4,6,{seed})"));
    }
}

/// Grant/revoke against the paper's stockbroker fixture: special functions
/// (`r_`/`w_`) and access functions mixed, including revoking a function
/// whose terms feed the flagged verdict — the verdict must flip exactly as
/// a recompute says.
#[test]
fn stockbroker_grant_revoke_round_trip() {
    use oodb_model::FnRef;
    let schema = fixtures::stockbroker();
    let (user, req) = schema
        .requirements
        .first()
        .map(|r| (r.user.clone(), r.clone()))
        .expect("stockbroker declares requirements");
    let config = AnalysisConfig::default();
    let mut inc = IncrementalUser::new(&schema, &user, &config).expect("materialize");
    let base_caps = inc.caps().clone();
    let granted: Vec<FnRef> = base_caps.iter().cloned().collect();
    // Revoke everything one by one (closure shrinks to axioms of the
    // remainder), then grant it all back: the final closure must be
    // byte-identical to the starting one.
    let mut start: Vec<Term> = inc.closure().iter().collect();
    start.sort();
    for f in &granted {
        let out = inc.revoke(&schema, f).expect("revoke");
        assert!(out.changed);
        assert_matches_scratch_with(&schema, &inc, &config, &req, &format!("revoke {f}"));
    }
    assert!(inc.caps().is_empty());
    for f in &granted {
        let out = inc.grant(&schema, f).expect("grant");
        assert!(out.changed);
        assert_matches_scratch_with(&schema, &inc, &config, &req, &format!("grant {f}"));
    }
    let mut end: Vec<Term> = inc.closure().iter().collect();
    end.sort();
    assert_eq!(start, end, "round trip changed the closure");
    assert_eq!(inc.caps(), &base_caps);
}

/// No-op edits (granting a held function, revoking an absent one) must not
/// touch the closure.
#[test]
fn noop_edits_leave_closure_alone() {
    use oodb_model::FnRef;
    let case = scale::edit_trace(4, 0, 3);
    let config = AnalysisConfig::default();
    let mut inc =
        IncrementalUser::new(&case.schema, &case.requirement.user, &config).expect("materialize");
    let before: Vec<Term> = inc.closure().iter().collect();
    let held = FnRef::access("p0");
    let absent = FnRef::access("p5");
    let out = inc.grant(&case.schema, &held).expect("noop grant");
    assert!(!out.changed);
    let out = inc.revoke(&case.schema, &absent).expect("noop revoke");
    assert!(!out.changed);
    let after: Vec<Term> = inc.closure().iter().collect();
    assert_eq!(before, after);
}

/// A failed edit (unknown function) must leave the state untouched and
/// subsequent edits working.
#[test]
fn failed_edit_is_transactional() {
    use oodb_model::FnRef;
    let case = scale::edit_trace(4, 4, 9);
    let config = AnalysisConfig::default();
    let mut inc =
        IncrementalUser::new(&case.schema, &case.requirement.user, &config).expect("materialize");
    let before: Vec<Term> = inc.closure().iter().collect();
    let missing = FnRef::access("no_such_fn");
    assert!(inc.grant(&case.schema, &missing).is_err());
    let after: Vec<Term> = inc.closure().iter().collect();
    assert_eq!(before, after, "failed grant mutated state");
    // The trace still replays to identity afterwards.
    replay(&case, "post-failure replay");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random edit scripts over random widths and seeds, identity after
    /// every edit.
    #[test]
    fn random_edit_scripts_match_scratch(
        width in 2usize..7,
        edits in 1usize..10,
        seed in 0u64..1_000,
    ) {
        let case = scale::edit_trace(width, edits, seed);
        replay(&case, &format!("edit_trace({width},{edits},{seed})"));
    }
}

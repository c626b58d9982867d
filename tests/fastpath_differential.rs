//! Differential testing of the saturation engine against the retained
//! slow-path reference (`secflow::reference`), the one whole-closure
//! oracle.
//!
//! The engine interns terms, uses dense capability tables, exact bit
//! mirrors, diff-row prefilters and dirty masks, and skips proof recording
//! on `analyze`; the reference keeps the historical hash-map
//! representation with SipHash, always-on proofs and no skipped work. Both
//! run the *same* deterministic traversal, so on every workload the
//! closures must be identical in exact insertion order — with the same
//! rounds, witnesses, equality rows and proofs — and every `analyze`
//! verdict (including witness terms inside violations) must match exactly.

use proptest::prelude::*;
use secflow::algorithm::{analyze, AnalysisConfig};
use secflow::closure::{Closure, ClosureOptions, Goal, ProofMode};
use secflow::reference::{analyze_ref, RefClosure};
use secflow::rules::RuleConfig;
use secflow::stats::NoopObserver;
use secflow::term::Term;
use secflow::unfold::{ExprId, NProgram};
use secflow_workloads::random::{random_case, RandomSpec};
use secflow_workloads::scale;

/// The engine against the oracle on one unfolded program: identical
/// insertion order, rounds, witnesses, alterability, equality rows and
/// proofs, and a certificate covering every term. The membership-only
/// [`ProofMode::Off`] run must walk the same insertion order too.
fn assert_matches_oracle(prog: &NProgram, label: &str) {
    let cfg = RuleConfig::default();
    let engine = Closure::compute(prog).unwrap_or_else(|e| panic!("{label}: engine: {e}"));
    let oracle = RefClosure::compute(prog).unwrap_or_else(|e| panic!("{label}: reference: {e}"));
    assert_eq!(
        engine.iter().collect::<Vec<Term>>(),
        oracle.iter().collect::<Vec<Term>>(),
        "{label}: insertion order diverges from the oracle"
    );
    assert_eq!(engine.rounds(), oracle.rounds(), "{label}: rounds differ");
    for e in 1..=prog.len() as ExprId {
        assert_eq!(
            engine.ti_witness(e),
            oracle.ti_witness(e),
            "{label}: ti witness differs at {e}"
        );
        assert_eq!(
            engine.pi_witness(e),
            oracle.pi_witness(e),
            "{label}: pi witness differs at {e}"
        );
        assert_eq!(
            engine.has_ta(e),
            oracle.has_ta(e),
            "{label}: ta differs at {e}"
        );
        assert_eq!(
            engine.has_pa(e),
            oracle.has_pa(e),
            "{label}: pa differs at {e}"
        );
        assert_eq!(
            engine.equal_to(e),
            oracle.equal_to(e),
            "{label}: equality row differs at {e}"
        );
    }
    for t in oracle.iter() {
        assert_eq!(
            engine.proof(&t),
            oracle.proof(&t),
            "{label}: proof differs for {t}"
        );
    }
    // Every derivation re-validates against the Table-2 schemas
    // independently of the engine.
    let cert = engine
        .certify(prog, &cfg)
        .unwrap_or_else(|e| panic!("{label}: closure fails certification: {e}"));
    assert_eq!(
        cert.terms_checked,
        engine.len(),
        "{label}: certificate covers every term"
    );
    let opts = ClosureOptions {
        goal: Goal::Full(ProofMode::Off),
        ..ClosureOptions::default()
    };
    let off = Closure::saturate(prog, &opts, NoopObserver)
        .0
        .unwrap_or_else(|e| panic!("{label}: proof-free engine: {e}"));
    assert!(
        off.iter().eq(engine.iter()) && off.rounds() == engine.rounds(),
        "{label}: the proof mode changed the traversal"
    );
}

/// A schema whose probe bodies repeat one subexpression (`r_a0(c) + x`)
/// `reuse` times across `fns` functions: after unfolding, the same shape
/// occurs at many distinct `ExprId`s with cross-occurrence equalities —
/// the case where delta-frontier bookkeeping diverges from full re-firing
/// if a dirty mark is dropped or double-cleared.
fn shared_subexpr_case(fns: usize, reuse: usize, grant_write: bool) -> oodb_lang::Schema {
    use std::fmt::Write as _;
    let mut src = String::from("class C { a0: int, a1: int }\n");
    for i in 0..fns {
        let mut body = String::from("(r_a0(c) + x)");
        for _ in 1..reuse {
            body = format!("({body} + (r_a0(c) + x))");
        }
        writeln!(src, "fn f{i}(x: int, c: C): bool {{ {body} >= {i} }}").unwrap();
    }
    let grants: Vec<String> = (0..fns)
        .map(|i| format!("f{i}"))
        .chain(grant_write.then(|| "w_a0".to_owned()))
        .collect();
    writeln!(src, "user u {{ {} }}", grants.join(", ")).unwrap();
    let schema = oodb_lang::parse_schema(&src).expect("generated schema parses");
    oodb_lang::check_schema(&schema).expect("generated schema checks");
    schema
}

#[test]
fn scale_families_are_engine_identical() {
    let cases = [
        ("call_chain", scale::call_chain(8)),
        ("wide_grants", scale::wide_grants(16)),
        ("deep_expr", scale::deep_expr(4)),
        ("attr_fanout", scale::attr_fanout(8)),
    ];
    let config = AnalysisConfig::default();
    for (label, case) in cases {
        let caps = case.schema.user_str("u").unwrap();
        let prog = NProgram::unfold(&case.schema, caps).unwrap();
        assert_matches_oracle(&prog, label);
        // End-to-end verdicts agree, witnesses included (Verdict: PartialEq).
        let fast = analyze(&case.schema, &case.requirement);
        let slow = analyze_ref(&case.schema, &case.requirement, &config);
        assert_eq!(fast, slow, "{label}: verdicts differ");
    }
}

#[test]
fn refiring_heavy_families_are_mode_identical() {
    // The refiring-heavy families, at sizes past the smoke tier: wide
    // equality fan-out and dense `=`-cliques with multi-origin joint
    // constraints — the workloads the mirrors and prefilters skip the most
    // work on. Both proof modes walk the oracle's order.
    for (label, case) in [
        ("wide_grants", scale::wide_grants(24)),
        ("dense_equalities", scale::dense_equalities(6)),
    ] {
        let caps = case.schema.user_str("u").unwrap();
        let prog = NProgram::unfold(&case.schema, caps).unwrap();
        assert_matches_oracle(&prog, label);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random corpus: the engine and the reference oracle derive
    /// byte-identical closures (in insertion order) and verdicts.
    #[test]
    fn random_cases_are_engine_identical(seed in 0u64..2000) {
        let case = random_case(seed, &RandomSpec::default());
        let caps = case.schema.user_str(&case.user).unwrap();
        let prog = NProgram::unfold(&case.schema, caps).unwrap();
        let fast = Closure::compute(&prog).unwrap();
        let slow = RefClosure::compute(&prog).unwrap();
        let tf: Vec<Term> = fast.iter().collect();
        let ts: Vec<Term> = slow.iter().collect();
        prop_assert_eq!(tf, ts, "insertion orders differ for seed {}", seed);
        prop_assert_eq!(fast.rounds(), slow.rounds());
        let config = AnalysisConfig::default();
        for req in &case.requirements {
            let vf = analyze(&case.schema, req);
            let vs = analyze_ref(&case.schema, req, &config);
            prop_assert_eq!(&vf, &vs, "verdict differs for seed {} req {}", seed, req);
        }
    }

}

proptest! {
    // Each case saturates the engine in both proof modes and the oracle
    // over a shared-subexpression clique; the instances grow fast, so
    // fewer, smaller cases than the random corpus above.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Shared-subexpression corpus: one subexpression repeated across
    /// occurrences and functions, shrinkable over repetition count, fan-out
    /// and the write grant — the case where delta-frontier bookkeeping
    /// would diverge from the oracle's full re-firing if a dirty mark were
    /// dropped or double-cleared.
    #[test]
    fn shared_subexpr_cases_are_engine_and_mode_identical(
        fns in 1usize..3,
        reuse in 1usize..4,
        grant_write in any::<bool>(),
    ) {
        let schema = shared_subexpr_case(fns, reuse, grant_write);
        let caps = schema.user_str("u").unwrap();
        let prog = NProgram::unfold(&schema, caps).unwrap();
        let label = format!("fns={fns} reuse={reuse} grant={grant_write}");
        assert_matches_oracle(&prog, &label);
    }
}

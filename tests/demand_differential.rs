//! Differential testing of the demand-driven engine against full
//! saturation.
//!
//! The demand engine restricts axiom seeding and rule firing to a
//! conservative relevance slice of `S'(F)` and stops as soon as every
//! target occurrence's verdict is decided. Its contract is *exactness on
//! the slice*: the restricted run derives precisely the full closure's
//! terms whose mentioned expressions all lie inside the slice, in the same
//! worklist order — so verdicts, witness terms (first derivation origins)
//! and even `TermLimit` aborts must be byte-identical to full saturation.

use oodb_lang::requirement::Requirement;
use oodb_lang::Schema;
use proptest::prelude::*;
use secflow::algorithm::{
    analyze_batch, check_against, AnalysisConfig, AnalysisError, BatchOptions, ClosureCache,
};
use secflow::algorithm::{analyze_batch_cached, occurrences};
use secflow::closure::{Closure, ClosureOptions, Goal, ProofMode};
use secflow::demand::DemandPlan;
use secflow::report::Verdict;
use secflow::stats::NoopObserver;
use secflow::term::Term;
use secflow::unfold::{ExprId, NProgram};
use secflow_workloads::random::{random_case, RandomSpec};
use secflow_workloads::scale;

/// One requirement as a batch of one through the demand arm, so every
/// comparison below asks about exactly one requirement's demand slice.
fn demand(
    schema: &Schema,
    req: &Requirement,
    config: &AnalysisConfig,
) -> Result<Verdict, AnalysisError> {
    analyze_batch(
        schema,
        std::slice::from_ref(req),
        config,
        &BatchOptions::default(),
    )
    .verdicts
    .remove(0)
}

/// The same requirement on the engine without the driver: unfold the
/// user's `S'(F)`, saturate all of it under `config`'s rules and budget,
/// and check.
fn full(
    schema: &Schema,
    req: &Requirement,
    config: &AnalysisConfig,
) -> Result<Verdict, AnalysisError> {
    let caps = schema
        .user(&req.user)
        .ok_or_else(|| AnalysisError::UnknownUser(req.user.to_string()))?;
    let prog = NProgram::unfold_with_limit(schema, caps, config.node_limit)?;
    let opts = config.closure_options(Goal::Full(ProofMode::Off));
    let closure = Closure::saturate(&prog, &opts, NoopObserver).0?;
    Ok(check_against(&prog, &closure, req))
}

/// The demand engine on one plan vs. the full engine on the same program:
/// the demand closure must contain exactly the slice-restricted subset of
/// the full closure, with identical per-expression witnesses inside the
/// slice.
fn assert_demand_is_sliced_full(prog: &NProgram, plan: &DemandPlan, label: &str) {
    let full = Closure::compute(prog).unwrap_or_else(|e| panic!("{label}: full engine: {e}"));
    // The full run records proofs: certify them. The demand run below is
    // proof-free by design, so certification must refuse it (checked once
    // after it is computed).
    full.certify(prog, &secflow::rules::RuleConfig::default())
        .unwrap_or_else(|e| panic!("{label}: full closure fails certification: {e}"));
    let opts = ClosureOptions {
        goal: Goal::Demand(plan),
        ..ClosureOptions::default()
    };
    let demand = Closure::saturate(prog, &opts, NoopObserver)
        .0
        .unwrap_or_else(|e| panic!("{label}: demand engine: {e}"));
    assert_eq!(
        demand.certify(prog, &secflow::rules::RuleConfig::default()),
        Err(secflow::checker::CheckError::NoProofs),
        "{label}: proof-free demand closures must be uncertifiable"
    );
    if demand.early_exited() {
        // An early-exited run is a prefix of the sliced run; subset only.
        let mut td: Vec<Term> = demand.iter().collect();
        td.sort();
        for t in &td {
            assert!(plan.covers(t), "{label}: demand derived out-of-slice {t:?}");
        }
        return;
    }
    let mut td: Vec<Term> = demand.iter().collect();
    let mut tf: Vec<Term> = full.iter().filter(|t| plan.covers(t)).collect();
    td.sort();
    tf.sort();
    assert_eq!(td, tf, "{label}: demand closure ≠ slice-restricted full");
    for e in 1..=prog.len() as ExprId {
        if !plan.covers_expr(e) {
            continue;
        }
        assert_eq!(
            demand.ti_witness(e),
            full.ti_witness(e),
            "{label}: ti witness differs at {e}"
        );
        assert_eq!(
            demand.pi_witness(e),
            full.pi_witness(e),
            "{label}: pi witness differs at {e}"
        );
        assert_eq!(
            demand.has_ta(e),
            full.has_ta(e),
            "{label}: ta differs at {e}"
        );
        assert_eq!(
            demand.has_pa(e),
            full.has_pa(e),
            "{label}: pa differs at {e}"
        );
    }
}

#[test]
fn scale_families_verdicts_and_closures_identical() {
    let cases = [
        ("call_chain", scale::call_chain(8)),
        ("wide_grants", scale::wide_grants(16)),
        ("deep_expr", scale::deep_expr(4)),
        ("attr_fanout", scale::attr_fanout(8)),
        ("dense_equalities", scale::dense_equalities(5)),
    ];
    let config = AnalysisConfig::default();
    for (label, case) in cases {
        let d = demand(&case.schema, &case.requirement, &config);
        let f = full(&case.schema, &case.requirement, &config);
        assert_eq!(d, f, "{label}: verdicts differ");
        let caps = case.schema.user_str("u").unwrap();
        let prog = NProgram::unfold(&case.schema, caps).unwrap();
        let plan = DemandPlan::for_requirement(&prog, &case.requirement);
        assert_demand_is_sliced_full(&prog, &plan, label);
    }
}

#[test]
fn multi_user_batch_demand_matches_full_saturation() {
    let case = scale::multi_user(4, 8);
    let config = AnalysisConfig::default();
    let expected: Vec<_> = case
        .requirements
        .iter()
        .map(|r| full(&case.schema, r, &config))
        .collect();
    for jobs in [1, 4] {
        let batch = analyze_batch(
            &case.schema,
            &case.requirements,
            &config,
            &BatchOptions {
                jobs,
                ..BatchOptions::default()
            },
        );
        assert_eq!(batch.verdicts, expected, "jobs={jobs}");
    }
}

#[test]
fn cached_batches_stay_identical_across_calls() {
    let case = scale::multi_user(4, 8);
    let config = AnalysisConfig::default();
    let cache = ClosureCache::new(8);
    let opts = BatchOptions::default();
    let baseline: Vec<_> = case
        .requirements
        .iter()
        .map(|r| full(&case.schema, r, &config))
        .collect();
    for round in 0..3 {
        let out = analyze_batch_cached(
            &case.schema,
            &case.requirements,
            &config,
            &opts,
            Some(&cache),
        );
        assert_eq!(out.verdicts, baseline, "round {round}");
    }
    let stats = cache.stats();
    assert_eq!(stats.misses, 4, "one cold miss per user group");
    assert_eq!(stats.hits, 8, "rounds two and three fully cached");
}

/// `TermLimit` aborts identically: the demand engine's inserts are a
/// subsequence of the full engine's, so whenever demand hits the budget the
/// full engine (same budget) must as well — and the CLI's error surface
/// stays mode-independent for every policy that errors.
#[test]
fn term_limit_aborts_agree_on_the_paper_fixture() {
    let schema = oodb_lang::parse_schema(
        r#"
        class Broker { name: string, salary: int, budget: int, profit: int }
        fn checkBudget(broker: Broker): bool {
          r_budget(broker) >= 10 * r_salary(broker)
        }
        user clerk { checkBudget, w_budget }
        "#,
    )
    .unwrap();
    oodb_lang::check_schema(&schema).unwrap();
    let req = oodb_lang::parse_requirement("(clerk, r_salary(x) : ti)").unwrap();
    for limit in [1, 3, 5, 8, 1000] {
        let config = AnalysisConfig {
            term_limit: limit,
            ..AnalysisConfig::default()
        };
        let d = demand(&schema, &req, &config);
        let f = full(&schema, &req, &config);
        match (&d, &f) {
            // Demand hitting the budget implies full hits it (subsequence).
            (Err(AnalysisError::Closure(_)), f) => assert!(
                matches!(f, Err(AnalysisError::Closure(_))),
                "limit={limit}: demand aborted but full saturation did not"
            ),
            // Full aborting while demand fits is the optimisation working.
            (_, Err(AnalysisError::Closure(_))) => {}
            _ => assert_eq!(d, f, "limit={limit}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random corpus: demand verdicts — witness terms included — are
    /// byte-identical to full saturation for every requirement.
    #[test]
    fn random_cases_demand_matches_full(seed in 0u64..2000) {
        let case = random_case(seed, &RandomSpec::default());
        let config = AnalysisConfig::default();
        for req in &case.requirements {
            let d = demand(&case.schema, req, &config);
            let f = full(&case.schema, req, &config);
            prop_assert_eq!(&d, &f, "verdict differs for seed {} req {}", seed, req);
        }
    }

    /// Random corpus, engine level: the demand closure is exactly the
    /// slice-restricted subset of the full closure (same witnesses) when
    /// the worklist drains, and a subset of the slice when it exits early.
    #[test]
    fn random_cases_demand_closure_is_sliced_full(seed in 500u64..900) {
        let case = random_case(seed, &RandomSpec::default());
        let caps = case.schema.user_str(&case.user).unwrap();
        let prog = NProgram::unfold(&case.schema, caps).unwrap();
        for req in &case.requirements {
            let occs = occurrences(&prog, &req.target);
            let plan = DemandPlan::build(&prog, [(req, occs.as_slice())]);
            assert_demand_is_sliced_full(&prog, &plan, &format!("seed {seed} req {req}"));
        }
    }

    /// Random corpus with a tight term budget: demand aborting implies the
    /// full run aborts, and when neither aborts the verdicts agree.
    #[test]
    fn random_cases_term_limit_is_mode_independent(seed in 0u64..300) {
        let case = random_case(seed, &RandomSpec::default());
        let config = AnalysisConfig {
            term_limit: 40,
            ..AnalysisConfig::default()
        };
        for req in &case.requirements {
            let d = demand(&case.schema, req, &config);
            let f = full(&case.schema, req, &config);
            match (&d, &f) {
                // Demand aborting implies full aborts: demand's inserts are
                // a subsequence of full's, so it reaches any budget later.
                (Err(AnalysisError::Closure(_)), f) => prop_assert!(
                    matches!(f, Err(AnalysisError::Closure(_))),
                    "seed {}: demand aborted but full did not", seed
                ),
                // The converse is the optimisation working as intended: the
                // sliced run can fit a budget the full closure exceeds.
                (_, Err(AnalysisError::Closure(_))) => {}
                _ => prop_assert_eq!(&d, &f, "seed {} req {}", seed, req),
            }
        }
    }
}

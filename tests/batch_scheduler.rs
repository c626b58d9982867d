//! Differential testing of the work-stealing batch scheduler and the
//! streaming verdict path.
//!
//! The determinism contract of the population-scale pipeline: per-group
//! analysis is a pure function of the group, so the *non-streaming*
//! `analyze_batch` output must be byte-identical whatever the `jobs` count
//! or the order the pool runs groups in — and identical to running
//! `analyze` per requirement, which is the semantics the pre-pool driver
//! pinned. Streamed records may arrive in any completion order, but
//! reassembling them by `group_index` must reproduce the buffered verdict
//! vector exactly.

use proptest::prelude::*;
use secflow::algorithm::{
    analyze, analyze_batch, analyze_batch_streaming, AnalysisConfig, BatchOptions, GroupRecord,
};
use secflow::report::Verdict;
use secflow_workloads::fixtures;
use secflow_workloads::scale::{
    clustered_giants, multi_user, multi_user_deep, skewed_groups, zipf_population, BatchCase,
};
use std::sync::Mutex;

/// Canonical rendering of a batch verdict vector: the full `Debug` form,
/// witnesses included, so any drift in violation content — not just the
/// flag — fails the comparison.
fn render_verdicts(verdicts: &[Result<Verdict, secflow::algorithm::AnalysisError>]) -> String {
    format!("{verdicts:?}")
}

/// Every workload family the repo ships, at differential-test sizes.
fn families() -> Vec<(&'static str, BatchCase)> {
    let stock = fixtures::stockbroker();
    let stock_reqs = stock.requirements.clone();
    vec![
        ("multi_user", multi_user(6, 8)),
        ("multi_user_deep", multi_user_deep(5, 6)),
        ("zipf_population", zipf_population(300, 16, 0xBEEF)),
        ("skewed_groups", skewed_groups(17, 24, 4)),
        ("clustered_giants", clustered_giants(19, 4, 16, 3)),
        (
            "stockbroker",
            BatchCase {
                schema: stock,
                requirements: stock_reqs,
            },
        ),
    ]
}

/// The pre-pool anchor: `analyze` per requirement, in input order.
fn serial_reference(case: &BatchCase) -> String {
    let verdicts: Vec<_> = case
        .requirements
        .iter()
        .map(|r| analyze(&case.schema, r))
        .collect();
    render_verdicts(&verdicts)
}

/// Buffered batch output at an explicit jobs count.
fn batch_under(case: &BatchCase, jobs: usize) -> String {
    let opts = BatchOptions {
        jobs,
        ..BatchOptions::default()
    };
    let out = analyze_batch(
        &case.schema,
        &case.requirements,
        &AnalysisConfig::default(),
        &opts,
    );
    render_verdicts(&out.verdicts)
}

/// Streamed records reassembled into the buffered verdict order.
fn streamed_under(case: &BatchCase, jobs: usize) -> String {
    let opts = BatchOptions {
        jobs,
        ..BatchOptions::default()
    };
    let sink: Mutex<Vec<GroupRecord>> = Mutex::new(Vec::new());
    let summary = analyze_batch_streaming(
        &case.schema,
        &case.requirements,
        &AnalysisConfig::default(),
        &opts,
        None,
        &sink,
    );
    let records = sink.into_inner().expect("no panics hold the sink lock");
    assert_eq!(
        records.len(),
        summary.groups,
        "every group must emit exactly one record"
    );
    let mut verdicts: Vec<Option<Result<Verdict, secflow::algorithm::AnalysisError>>> =
        (0..case.requirements.len()).map(|_| None).collect();
    for record in records {
        for (i, v) in record.verdicts {
            assert!(verdicts[i].is_none(), "requirement {i} delivered twice");
            verdicts[i] = Some(v);
        }
    }
    let verdicts: Vec<_> = verdicts
        .into_iter()
        .map(|v| v.expect("every requirement delivered"))
        .collect();
    render_verdicts(&verdicts)
}

#[test]
fn batch_is_byte_identical_across_jobs_and_schedules() {
    for (name, case) in families() {
        let reference = serial_reference(&case);
        for jobs in [1usize, 2, 3, 8] {
            assert_eq!(
                batch_under(&case, jobs),
                reference,
                "{name}: batch output drifted at jobs={jobs}"
            );
        }
    }
}

#[test]
fn streaming_reassembles_to_the_buffered_output() {
    for (name, case) in families() {
        let reference = serial_reference(&case);
        for jobs in [1usize, 4] {
            assert_eq!(
                streamed_under(&case, jobs),
                reference,
                "{name}: streamed records drifted at jobs={jobs}"
            );
        }
    }
}

/// Aggregate closure stats must not depend on which worker ran which group:
/// totals and maxima are folded per-worker and merged at join, and the
/// merge contract
/// (sum vs max vs sticky, pinned field-by-field in the core suite) makes
/// the fold order invisible.
#[test]
fn streamed_stats_totals_are_schedule_invariant() {
    let case = skewed_groups(17, 24, 4);
    let totals = |jobs: usize| {
        let opts = BatchOptions {
            jobs,
            collect_stats: true,
            ..BatchOptions::default()
        };
        let sink: Mutex<Vec<GroupRecord>> = Mutex::new(Vec::new());
        let summary = analyze_batch_streaming(
            &case.schema,
            &case.requirements,
            &AnalysisConfig::default(),
            &opts,
            None,
            &sink,
        );
        (
            summary.stats.closure.total_terms(),
            summary.stats.closure.derive_calls,
            summary.stats.closure.rounds,
            summary.stats.closure.worklist_peak,
            summary.stats.occurrences_checked,
        )
    };
    let reference = totals(1);
    for jobs in [2usize, 8] {
        assert_eq!(
            totals(jobs),
            reference,
            "stats totals drifted at jobs={jobs}"
        );
    }
}

proptest! {
    /// Random batch shapes — including the pathological one-giant-group
    /// skew — agree across `jobs` ∈ {1, 2, 8} and streaming vs. buffered
    /// delivery.
    #[test]
    fn random_batches_agree_across_schedulers(
        family in 0usize..3,
        users in 1usize..10,
        a in 2usize..12,
        b in 1usize..6,
        seed in 0u64..1u64 << 48,
    ) {
        let case = match family {
            0 => multi_user(users, a),
            // One giant group (width a + tiny floor) among tiny ones.
            1 => skewed_groups(users, a + 8, b),
            _ => zipf_population(users * 20, a, seed),
        };
        let reference = serial_reference(&case);
        for jobs in [1usize, 2, 8] {
            prop_assert_eq!(
                &batch_under(&case, jobs),
                &reference,
                "family {} drifted buffered at jobs={}",
                family, jobs
            );
            prop_assert_eq!(
                &streamed_under(&case, jobs),
                &reference,
                "family {} drifted streamed at jobs={}",
                family, jobs
            );
        }
    }
}

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
//! vector exactly. The closure-cache LRU upgrade is pinned here too: on a
//! Zipf-skewed population with an undersized cache, touch-on-hit retention
//! must beat a FIFO replay of the same access sequence.

use proptest::prelude::*;
use secflow::algorithm::{
    analyze, analyze_batch, analyze_batch_streaming, AnalysisConfig, BatchOptions, ClosureCache,
    GroupRecord,
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
            summary.closure.total_terms(),
            summary.closure.derive_calls,
            summary.closure.rounds,
            summary.closure.worklist_peak,
            summary.occurrences,
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

/// FIFO replay of a keyed access sequence at a fixed capacity — the
/// eviction policy the cache had before the LRU upgrade.
fn fifo_hits(keys: &[usize], capacity: usize) -> u64 {
    let mut resident: Vec<usize> = Vec::new();
    let mut hits = 0u64;
    for &k in keys {
        if resident.contains(&k) {
            hits += 1;
            continue;
        }
        if resident.len() == capacity {
            resident.remove(0);
        }
        resident.push(k);
    }
    hits
}

/// The LRU upgrade earns its keep on exactly the population workload: with
/// fewer cache slots than fingerprints, touch-on-hit keeps the Zipf-hot
/// profiles resident while FIFO churns them out on schedule.
#[test]
fn lru_beats_fifo_on_the_zipf_population() {
    let users = 3_000;
    let fingerprints = 64;
    let capacity = 16;
    let case = zipf_population(users, fingerprints, 0x5EED);
    // Each user's requirement goal names its profile's probed attribute, so
    // the requirement list in group order doubles as the cache key
    // sequence (serial jobs=1 keeps the access order deterministic).
    let keys: Vec<usize> = case
        .requirements
        .iter()
        .map(|r| {
            let t = r.target.to_string();
            let digits: String = t.chars().filter(|c| c.is_ascii_digit()).collect();
            digits.parse().expect("profile index in the goal name")
        })
        .collect();
    assert_eq!(keys.len(), users);

    let cache = ClosureCache::with_shards(capacity, 1);
    let opts = BatchOptions {
        jobs: 1,
        ..BatchOptions::default()
    };
    analyze_batch_streaming(
        &case.schema,
        &case.requirements,
        &AnalysisConfig::default(),
        &opts,
        Some(&cache),
        &Mutex::new(Vec::new()),
    );
    let stats = cache.stats();
    assert_eq!(
        stats.hits + stats.misses,
        users as u64,
        "one lookup per group"
    );
    assert!(stats.evictions > 0, "undersized cache must evict");

    let fifo = fifo_hits(&keys, capacity);
    assert!(
        stats.hits > fifo,
        "LRU must beat FIFO on the Zipf population: lru={} fifo={fifo}",
        stats.hits
    );
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

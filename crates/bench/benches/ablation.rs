//! E7 timing — cost of each rule group: the full analysis on the
//! stockbroker fixture under every ablation variant. (The *detection*
//! effect of each variant is reported by the harness; this bench shows the
//! runtime each group costs or saves.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use oodb_lang::parse_requirement;
use secflow::algorithm::{analyze_batch, AnalysisConfig, BatchOptions};
use secflow_bench::ablation_variants;
use secflow_workloads::scale::wide_grants;
use secflow_workloads::stockbroker;

fn ablation(c: &mut Criterion) {
    let schema = stockbroker();
    let req = parse_requirement("(clerk, r_salary(x) : ti)").expect("parses");

    let mut group = c.benchmark_group("ablation/stockbroker");
    for (name, rules) in ablation_variants() {
        let config = AnalysisConfig {
            rules,
            ..AnalysisConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(name), &config, |b, config| {
            b.iter(|| {
                analyze_batch(
                    std::hint::black_box(&schema),
                    std::slice::from_ref(std::hint::black_box(&req)),
                    config,
                    &BatchOptions::default(),
                )
                .verdicts
                .remove(0)
                .expect("runs")
            })
        });
    }
    group.finish();

    // Rule-group cost on a larger instance.
    let case = wide_grants(32);
    let mut group = c.benchmark_group("ablation/wide_grants_32");
    for (name, rules) in ablation_variants() {
        let config = AnalysisConfig {
            rules,
            ..AnalysisConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(name), &config, |b, config| {
            b.iter(|| {
                analyze_batch(
                    std::hint::black_box(&case.schema),
                    std::slice::from_ref(std::hint::black_box(&case.requirement)),
                    config,
                    &BatchOptions::default(),
                )
                .verdicts
                .remove(0)
                .expect("runs")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, ablation);
criterion_main!(benches);

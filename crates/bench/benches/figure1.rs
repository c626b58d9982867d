//! E1 timing — the demand-driven `A(R)` pipeline on the paper's own
//! example, and the full closure's phases (unfold, closure, check)
//! separately.

use criterion::{criterion_group, criterion_main, Criterion};
use oodb_lang::parse_requirement;
use secflow::algorithm::{analyze, check_against};
use secflow::closure::Closure;
use secflow::unfold::NProgram;
use secflow_workloads::stockbroker;

fn figure1(c: &mut Criterion) {
    let schema = stockbroker();
    let req = parse_requirement("(clerk, r_salary(x) : ti)").expect("parses");
    let caps = schema.user_str("clerk").expect("clerk");

    c.bench_function("figure1/analyze", |b| {
        b.iter(|| analyze(std::hint::black_box(&schema), std::hint::black_box(&req)))
    });
    c.bench_function("figure1/unfold", |b| {
        b.iter(|| NProgram::unfold(std::hint::black_box(&schema), caps).expect("unfolds"))
    });
    let prog = NProgram::unfold(&schema, caps).expect("unfolds");
    c.bench_function("figure1/closure", |b| {
        b.iter(|| Closure::compute(std::hint::black_box(&prog)).expect("closure"))
    });
    let closure = Closure::compute(&prog).expect("closure");
    c.bench_function("figure1/check", |b| {
        b.iter(|| check_against(&prog, &closure, std::hint::black_box(&req)))
    });
}

criterion_group!(benches, figure1);
criterion_main!(benches);

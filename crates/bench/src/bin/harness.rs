//! The experiment harness: regenerates every artefact in EXPERIMENTS.md.
//!
//! ```text
//! cargo run -p secflow-bench --release --bin harness           # all
//! cargo run -p secflow-bench --release --bin harness -- e1 e3  # subset
//! cargo run -p secflow-bench --release --bin harness -- e3=500 # corpus size
//! cargo run -p secflow-bench --release --bin harness -- fastpath          # engine vs oracle
//! cargo run -p secflow-bench --release --bin harness -- fastpath --smoke  # CI-sized
//! ```
//!
//! The `fastpath` experiment additionally writes `BENCH_closure.json`: the
//! saturation engine timed against the `RefClosure` oracle (up to a
//! per-family cap, with an exact insertion-order identity assertion per
//! oracle row), terms/sec and per-rule attempt/insert counters per row,
//! and the batch-driver wall times per `--jobs` setting.
//!
//! The `demand` experiment (`-- demand [--smoke]`) writes
//! `BENCH_demand.json`: full-saturation vs demand-driven closure timings
//! and terms-derived counts per scale family, with a verdict-identity
//! assertion per row, plus the multi-requirement batch comparison.
//!
//! The `certify` experiment (`-- certify [--smoke]`) writes
//! `BENCH_certify.json`: proof-carrying analysis time vs the independent
//! proof checker's certification time per scale family, with a
//! certificate-completeness assertion and a `certify ≤ 2× analyze`
//! overhead bound per row.
//!
//! The `population` experiment (`-- population [--smoke]`) writes
//! `BENCH_population.json`: streamed Zipf-population throughput
//! (verdicts/sec, saturated capability lists, steal counts) up to a
//! million users, plus the work-stealing pool on the clustered-giants skew
//! workload, scored by critical path over the recorded worker assignment
//! against the static partition and the ideal makespan computed from the
//! measured group costs — full runs assert at most one saturation per
//! fingerprint and the ≥1.5× stealing speedup over the static partition.
//!
//! The `incremental` experiment (`-- incremental [--smoke]`) writes
//! `BENCH_incremental.json`: grant/revoke maintenance time vs from-scratch
//! recomputation on the `edit_trace` family (small edits against large
//! closures), per-edit term-set identity asserted — full runs additionally
//! assert the ≥1.5× maintenance speedup on the largest dense row.
//!
//! Every run also writes `BENCH_obs.json` next to the working directory: a
//! machine-readable metrics blob with per-experiment wall times plus the
//! closure counters for the canonical stockbroker analysis (see
//! `secflow_obs` for the format). Pass `--no-obs` to skip it.
//!
//! Arguments are experiment names (`e1`–`e8`, `tables`, `fastpath`,
//! `demand`, `certify`, `population`, `incremental`, each optionally
//! `=N`) and the flags `--smoke` and `--no-obs`; anything else exits 2
//! with the list of valid names.

use secflow::closure::{Closure, ClosureOptions};
use secflow::stats::ClosureStats;
use secflow::unfold::NProgram;
use secflow_bench::*;
use secflow_obs::{MetricsSink, Phases, Recorder};
use secflow_workloads::stockbroker;

/// Experiment names an argument may select, each optionally `=N`.
const EXPERIMENTS: &[&str] = &[
    "e1",
    "e2",
    "e3",
    "e4",
    "e5",
    "e6",
    "e7",
    "e8",
    "tables",
    "fastpath",
    "demand",
    "certify",
    "population",
    "incremental",
];

/// Flags the harness accepts.
const FLAGS: &[&str] = &["--smoke", "--no-obs"];

/// The experiment an argument names: the argument up to its `=N`.
fn name_of(arg: &str) -> &str {
    arg.split_once('=').map_or(arg, |(name, _)| name)
}

/// The first argument that is neither a flag nor an experiment name.
fn unknown_arg(args: &[String]) -> Option<&str> {
    args.iter().map(String::as_str).find(|a| {
        if a.starts_with("--") {
            !FLAGS.contains(a)
        } else {
            !EXPERIMENTS.contains(&name_of(a))
        }
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = unknown_arg(&args) {
        eprintln!(
            "harness: unknown argument `{bad}`; experiments: {} (each optionally =N); flags: {}",
            EXPERIMENTS.join(", "),
            FLAGS.join(", ")
        );
        std::process::exit(2);
    }
    let named = |name: &str| args.iter().any(|a| name_of(a) == name);
    let want = |name: &str| args.iter().all(|a| a.starts_with("--")) || named(name);
    let param = |name: &str, default: usize| {
        args.iter()
            .find_map(|a| a.strip_prefix(&format!("{name}=")))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };

    let mut phases = Phases::new();
    if want("e1") {
        phases.time("e1", run_e1);
    }
    if want("e2") {
        phases.time("e2", run_e2);
    }
    if want("e3") || want("e4") {
        phases.time("e3_e4", || run_e3_e4(param("e3", 500)));
    }
    if want("e5") {
        phases.time("e5", run_e5);
    }
    if want("e6") {
        phases.time("e6", run_e6);
    }
    if want("e7") {
        phases.time("e7", run_e7);
    }
    if want("e8") {
        phases.time("e8", || run_e8(param("e8", 60)));
    }
    if named("tables") {
        phases.time("tables", run_tables);
    }
    if want("fastpath") {
        let smoke = args.iter().any(|a| a == "--smoke");
        let write_json = !args.iter().any(|a| a == "--no-obs");
        phases.time("fastpath", || run_fastpath(smoke, write_json));
    }
    if want("demand") {
        let smoke = args.iter().any(|a| a == "--smoke");
        let write_json = !args.iter().any(|a| a == "--no-obs");
        phases.time("demand", || run_demand(smoke, write_json));
    }
    if want("certify") {
        let smoke = args.iter().any(|a| a == "--smoke");
        let write_json = !args.iter().any(|a| a == "--no-obs");
        phases.time("certify", || run_certify(smoke, write_json));
    }
    if want("population") {
        let smoke = args.iter().any(|a| a == "--smoke");
        let write_json = !args.iter().any(|a| a == "--no-obs");
        phases.time("population", || run_population(smoke, write_json));
    }
    if want("incremental") {
        let smoke = args.iter().any(|a| a == "--smoke");
        let write_json = !args.iter().any(|a| a == "--no-obs");
        phases.time("incremental", || run_incremental(smoke, write_json));
    }

    if !args.iter().any(|a| a == "--no-obs") {
        write_obs_blob(&phases);
    }
}

/// Emit `BENCH_obs.json`: the harness phase timings plus the closure
/// counters for the stockbroker fixture (the paper's running example), so
/// regressions in both wall time and rule behaviour are diffable across
/// runs without re-parsing the human-readable tables.
fn write_obs_blob(phases: &Phases) {
    let mut rec = Recorder::new();
    phases.record_to(&mut rec);

    let schema = stockbroker();
    if let Some(caps) = schema.user_str("clerk") {
        if let Ok(prog) = NProgram::unfold(&schema, caps) {
            let opts = ClosureOptions::default();
            let (_, stats) = Closure::saturate(&prog, &opts, ClosureStats::new(opts.term_limit));
            stats.record_to(&mut rec);
            rec.counter("fixture.program_nodes", prog.len() as u64);
        }
    }

    let report = rec.into_report();
    let path = "BENCH_obs.json";
    match std::fs::write(path, report.to_json().pretty()) {
        Ok(()) => eprintln!("metrics: wrote {path}"),
        Err(e) => eprintln!("metrics: could not write {path}: {e}"),
    }
}

fn banner(title: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("================================================================");
}

fn run_e1() {
    banner("E1 — Figure 1: derivation of the stockbroker flaw");
    let f = e1_figure1();
    println!("S'(F) for clerk = {{checkBudget, w_budget}}:");
    for u in &f.unfolded {
        println!("  {u}");
    }
    println!();
    println!("judgments of the paper's Figure 1:");
    for (j, ok) in &f.judgments {
        println!("  [{}] {}", if *ok { "ok" } else { "MISSING" }, j);
    }
    println!();
    println!("machine-checked derivation of the goal:");
    print!("{}", f.derivation);
}

fn run_e2() {
    banner("E2 — running examples (flawed policies flagged, repairs pass)");
    println!(
        "{:<12} {:<46} {:>8} {:>8} {:>6}",
        "scenario", "requirement", "expected", "got", "match"
    );
    for r in e2_running_examples() {
        println!(
            "{:<12} {:<46} {:>8} {:>8} {:>6}",
            r.scenario,
            r.requirement,
            if r.expected_flaw { "flaw" } else { "ok" },
            if r.got_flaw { "flaw" } else { "ok" },
            if r.expected_flaw == r.got_flaw {
                "yes"
            } else {
                "NO"
            },
        );
    }
}

fn run_e3_e4(cases: usize) {
    banner(&format!(
        "E3/E4 — differential soundness & pessimism ({cases} random policies, 2 requirements each)"
    ));
    let report = e3_e4_differential(cases);
    print!("{report}");
    println!(
        "soundness (Theorem 1): {}",
        if report.is_sound() {
            "HOLDS (0 dynamic-only cases)"
        } else {
            "VIOLATED — see cases below"
        }
    );
    for v in &report.violations {
        println!("  !! {} — {:?}", v.requirement, v.witness);
    }
}

fn run_e5() {
    banner("E5 — closure scaling (A(R) = unfold + closure + check)");
    println!(
        "{:<12} {:>6} {:>8} {:>10} {:>12}",
        "family", "param", "nodes", "terms", "time (us)"
    );
    for r in e5_scaling() {
        println!(
            "{:<12} {:>6} {:>8} {:>10} {:>12}",
            r.family, r.param, r.nodes, r.terms, r.micros
        );
    }
}

fn run_e6() {
    banner("E6 — engine probe-query throughput");
    println!(
        "{:>10} {:>10} {:>12} {:>14}",
        "objects", "rows", "time (us)", "objs/ms"
    );
    for r in e6_engine(&[10, 100, 1_000, 10_000]) {
        let per_ms = if r.micros == 0 {
            f64::INFINITY
        } else {
            r.objects as f64 * 1000.0 / r.micros as f64
        };
        println!(
            "{:>10} {:>10} {:>12} {:>14.1}",
            r.objects, r.rows, r.micros, per_ms
        );
    }
}

fn run_e8(cases: usize) {
    banner(&format!(
        "E8 — inferability deciders: idealized ⊆ finite-I(E), idealized ⊆ A(R) ({cases} cases)"
    ));
    let r = e8_containment(cases);
    println!("cases                : {}", r.cases);
    println!(
        "finite I(E) realises : {}  (bounded Table-1 engine)",
        r.finite_flags
    );
    println!(
        "idealized realises   : {}  (Z-valid deductions)",
        r.ideal_flags
    );
    println!("A(R) flags           : {}", r.static_flags);
    println!(
        "idealized \\ finite   : {}  (must be 0)",
        r.ideal_not_finite
    );
    println!(
        "idealized \\ A(R)     : {}  (must be 0 — Theorem 1)",
        r.ideal_not_static
    );
    println!(
        "finite \\ A(R)        : {}  (finite-domain truncation artefacts)",
        r.finite_artifacts
    );
}

fn run_tables() {
    banner("Table 2 (reconstructed) — the rules of F(F)");
    println!("structural axioms and rules (see secflow::rules for the");
    println!("reconstruction notes):");
    println!("  -> ta[x]                         x an outer argument variable");
    println!("  -> ti[c, l, +]                   basic-typed constants");
    println!("  -> ti[x, l, +]                   basic-typed outer arguments");
    println!("  -> ti[e, 0, -]                   observed results (outer body/read)");
    println!("  -> =[x1, x2]                     outer argument variables, same type");
    println!("  -> =[z, e]                       let-bound occurrence and binding");
    println!("  -> =[e, let ... in e end]");
    println!("  =[e1,e2], =[e2,e3] -> =[e1,e3]   (symmetry is structural)");
    println!("  =[e1,e2] -> =[r_att(e1), r_att(e2)]");
    println!("  =[e1,e2] -> =[e3, r_att(e2)]     when w_att(e1, e3) in S'(F)");
    println!("  =[n,e2]  -> =[a_j, r_att_j(e2)]  when n = new C(..., a_j, ...)");
    println!("  ta[e] -> pa[e]    ti[e,n,d] -> pi[e,n,d]");
    println!("  =[e1,e2] + any capability on e1 -> same capability on e2");
    println!("  ta/pa[recv] -> pa[r_att(recv)]   receiver alterability");
    println!("  pi[e,n1,d1], pi[e,n2,d2] -> ti[e,n2,d2]        (n1,d1) != (n2,d2)");
    println!("  pi*[(a,b),n1,d1], pi*[(b,c),n2,d2] -> pi*[(a,c),n1,d1]");
    println!("  =[e1,e2] -> pi*[(e1,e2), 0, +]");
    println!("  =[e1,e2], pi*[(e1,e2),n,d] -> pi[e1,n,d], pi[e2,n,d]   (n,d) != axiom");
    println!("  =[e1,e2], ti/pi[e1 (+|*|++) e2] -> ti/pi[e1], ti/pi[e2]  (diagonal)");
    println!();
    println!("per-basic-function rules (generated by the §4.1 metarules):");
    println!();
    for op in oodb_lang::BasicOp::ALL {
        print!("{}", secflow::basics::render_rules(op));
        println!();
    }
}

fn run_fastpath(smoke: bool, write_json: bool) {
    banner(&format!(
        "fastpath — saturation engine vs the RefClosure oracle{}",
        if smoke { " (smoke sizes)" } else { "" }
    ));
    println!(
        "{:<16} {:>6} {:>6} {:>9} {:>11} {:>10} {:>8} {:>12} {:>10}",
        "family",
        "param",
        "nodes",
        "terms",
        "ref (us)",
        "fast (us)",
        "speedup",
        "terms/s",
        "identical"
    );
    let rows = closure_fastpath(smoke);
    let dash = || "-".to_owned();
    for r in &rows {
        println!(
            "{:<16} {:>6} {:>6} {:>9} {:>11} {:>10} {:>8} {:>12.0} {:>10}",
            r.family,
            r.param,
            r.nodes,
            r.terms,
            r.ref_micros.map_or_else(dash, |us| us.to_string()),
            r.fast_micros,
            r.speedup().map_or_else(dash, |x| format!("{x:.2}x")),
            r.terms_per_sec(),
            match r.identical {
                Some(true) => "yes",
                Some(false) => "NO",
                None => "-",
            },
        );
        // Every oracle row pins the engine to the oracle's exact insertion
        // order, rounds and witnesses.
        assert_ne!(
            r.identical,
            Some(false),
            "{}/{}: engine diverged from the oracle",
            r.family,
            r.param
        );
    }
    if let Some(last) = rows.last() {
        println!();
        println!(
            "per-rule derive attempts, {}({}) — attempted vs derived-new:",
            last.family, last.param
        );
        println!("{:<44} {:>12} {:>10}", "rule", "attempts", "new");
        for rule in last.rules.iter().take(8) {
            println!(
                "{:<44} {:>12} {:>10}",
                rule.label, rule.attempts, rule.new_terms
            );
        }
    }

    let brows = batch_throughput(smoke);
    if let Some(first) = brows.first() {
        println!();
        println!(
            "batch driver: {} users x {} requirement(s), one unfold+closure per user",
            first.users,
            first.requirements / first.users.max(1)
        );
        println!(
            "host parallelism: {} core(s) — jobs beyond that cannot speed up",
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
        println!("{:>6} {:>12} {:>8}", "jobs", "time (us)", "speedup");
        let base = first.micros;
        for b in &brows {
            let speedup = if b.micros == 0 {
                f64::INFINITY
            } else {
                base as f64 / b.micros as f64
            };
            println!("{:>6} {:>12} {:>7.2}x", b.jobs, b.micros, speedup);
        }
    }

    if write_json {
        write_fastpath_blob(&rows, &brows);
    }
}

/// Emit `BENCH_closure.json`: per-case engine timings and terms/sec, the
/// oracle timing, speedup and identity bit where the oracle ran, per-rule
/// attempt/insert counters, plus batch-driver wall times per jobs setting.
fn write_fastpath_blob(rows: &[FastpathRow], brows: &[BatchRow]) {
    let mut rec = Recorder::new();
    for r in rows {
        let key = format!("fastpath.{}.{}", r.family, r.param);
        rec.counter(&format!("{key}.nodes"), r.nodes as u64);
        rec.counter(&format!("{key}.terms"), r.terms as u64);
        rec.counter(&format!("{key}.fast_micros"), r.fast_micros as u64);
        rec.counter(&format!("{key}.derives"), r.derives);
        rec.gauge(&format!("{key}.terms_per_sec"), r.terms_per_sec());
        if let Some(us) = r.ref_micros {
            rec.counter(&format!("{key}.ref_micros"), us as u64);
        }
        if let Some(same) = r.identical {
            rec.counter(&format!("{key}.identical"), u64::from(same));
        }
        if let Some(x) = r.speedup() {
            rec.gauge(&format!("{key}.speedup"), x);
        }
        for rule in &r.rules {
            let rk = format!("{key}.rule.{}", rule.label);
            rec.counter(&format!("{rk}.attempts"), rule.attempts);
            rec.counter(&format!("{rk}.new"), rule.new_terms);
        }
    }
    for b in brows {
        let key = format!("batch.jobs{}", b.jobs);
        rec.counter(&format!("{key}.users"), b.users as u64);
        rec.counter(&format!("{key}.requirements"), b.requirements as u64);
        rec.counter(&format!("{key}.micros"), b.micros as u64);
    }
    let report = rec.into_report();
    let path = "BENCH_closure.json";
    match std::fs::write(path, report.to_json().pretty()) {
        Ok(()) => eprintln!("metrics: wrote {path}"),
        Err(e) => eprintln!("metrics: could not write {path}: {e}"),
    }
}

fn run_demand(smoke: bool, write_json: bool) {
    banner(&format!(
        "demand — goal-directed slicing + early exit vs full saturation{}",
        if smoke { " (smoke sizes)" } else { "" }
    ));
    println!(
        "{:<12} {:>6} {:>8} {:>10} {:>12} {:>10} {:>12} {:>8} {:>6} {:>10}",
        "family",
        "param",
        "nodes",
        "full terms",
        "demand terms",
        "full (us)",
        "demand (us)",
        "speedup",
        "early",
        "identical"
    );
    let rows = demand_vs_full(smoke);
    for r in &rows {
        println!(
            "{:<12} {:>6} {:>8} {:>10} {:>12} {:>10} {:>12} {:>7.2}x {:>6} {:>10}",
            r.family,
            r.param,
            r.nodes,
            r.full_terms,
            r.demand_terms,
            r.full_micros,
            r.demand_micros,
            r.speedup(),
            if r.early_exit { "yes" } else { "no" },
            if r.identical { "yes" } else { "NO" },
        );
        assert!(r.identical, "{}/{}: verdicts diverged", r.family, r.param);
    }

    let b = demand_batch(smoke);
    println!();
    println!(
        "batch driver: {} user(s) x {} requirement(s), serial, full vs demand",
        b.users, b.requirements
    );
    println!(
        "  full saturation : {:>10} terms {:>12} us",
        b.full_terms, b.full_micros
    );
    println!(
        "  demand-driven   : {:>10} terms {:>12} us   ({:.2}x)",
        b.demand_terms,
        b.demand_micros,
        b.speedup()
    );
    assert!(b.identical, "batch: verdicts diverged");

    if write_json {
        write_demand_blob(&rows, &b);
    }
}

/// Emit `BENCH_demand.json`: per-family full-vs-demand closure timings and
/// terms-derived counts (with the verdict-identity bit), plus the batch
/// full-vs-demand measurement.
fn write_demand_blob(rows: &[DemandRow], b: &DemandBatchRow) {
    let mut rec = Recorder::new();
    for r in rows {
        let key = format!("demand.{}.{}", r.family, r.param);
        rec.counter(&format!("{key}.nodes"), r.nodes as u64);
        rec.counter(&format!("{key}.full_terms"), r.full_terms as u64);
        rec.counter(&format!("{key}.demand_terms"), r.demand_terms as u64);
        rec.counter(&format!("{key}.full_micros"), r.full_micros as u64);
        rec.counter(&format!("{key}.demand_micros"), r.demand_micros as u64);
        rec.counter(&format!("{key}.early_exit"), u64::from(r.early_exit));
        rec.counter(&format!("{key}.identical"), u64::from(r.identical));
        rec.gauge(&format!("{key}.speedup"), r.speedup());
    }
    let key = "demand.batch";
    rec.counter(&format!("{key}.users"), b.users as u64);
    rec.counter(&format!("{key}.requirements"), b.requirements as u64);
    rec.counter(&format!("{key}.full_terms"), b.full_terms);
    rec.counter(&format!("{key}.demand_terms"), b.demand_terms);
    rec.counter(&format!("{key}.full_micros"), b.full_micros as u64);
    rec.counter(&format!("{key}.demand_micros"), b.demand_micros as u64);
    rec.counter(&format!("{key}.identical"), u64::from(b.identical));
    rec.gauge(&format!("{key}.speedup"), b.speedup());
    let report = rec.into_report();
    let path = "BENCH_demand.json";
    match std::fs::write(path, report.to_json().pretty()) {
        Ok(()) => eprintln!("metrics: wrote {path}"),
        Err(e) => eprintln!("metrics: could not write {path}: {e}"),
    }
}

fn run_certify(smoke: bool, write_json: bool) {
    banner(&format!(
        "certify — independent proof checker vs proof-carrying analysis{}",
        if smoke { " (smoke sizes)" } else { "" }
    ));
    println!(
        "{:<16} {:>6} {:>8} {:>8} {:>8} {:>12} {:>12} {:>9} {:>9}",
        "family",
        "param",
        "nodes",
        "terms",
        "axioms",
        "analyze (us)",
        "certify (us)",
        "overhead",
        "complete"
    );
    let rows = certify_overhead(smoke);
    for r in &rows {
        println!(
            "{:<16} {:>6} {:>8} {:>8} {:>8} {:>12} {:>12} {:>8.2}x {:>9}",
            r.family,
            r.param,
            r.nodes,
            r.terms,
            r.axioms,
            r.analyze_micros,
            r.certify_micros,
            r.overhead(),
            if r.complete { "yes" } else { "NO" },
        );
        assert!(
            r.complete,
            "{}/{}: certificate does not cover the closure",
            r.family, r.param
        );
        // Acceptance bound: re-checking proofs must cost at most 2× the
        // proof-carrying analysis itself (small floor for timer noise on
        // sub-millisecond instances).
        assert!(
            r.certify_micros <= 2 * r.analyze_micros || r.certify_micros < 2_000,
            "{}/{}: certify {}us exceeds 2x analyze {}us",
            r.family,
            r.param,
            r.certify_micros,
            r.analyze_micros
        );
    }
    println!();
    println!("every closure re-validated by the checker; `complete` asserts the");
    println!("certificate accounts for every recorded term (axioms + derived).");

    if write_json {
        write_certify_blob(&rows);
    }
}

/// Emit `BENCH_certify.json`: per-family analysis-vs-certification timings
/// and certificate coverage counts (terms/axioms and the completeness bit),
/// plus the certify/analyze overhead ratio as a gauge.
fn write_certify_blob(rows: &[CertifyRow]) {
    let mut rec = Recorder::new();
    for r in rows {
        let key = format!("certify.{}.{}", r.family, r.param);
        rec.counter(&format!("{key}.nodes"), r.nodes as u64);
        rec.counter(&format!("{key}.terms"), r.terms as u64);
        rec.counter(&format!("{key}.axioms"), r.axioms as u64);
        rec.counter(&format!("{key}.analyze_micros"), r.analyze_micros as u64);
        rec.counter(&format!("{key}.certify_micros"), r.certify_micros as u64);
        rec.counter(&format!("{key}.complete"), u64::from(r.complete));
        rec.gauge(&format!("{key}.overhead"), r.overhead());
    }
    let report = rec.into_report();
    let path = "BENCH_certify.json";
    match std::fs::write(path, report.to_json().pretty()) {
        Ok(()) => eprintln!("metrics: wrote {path}"),
        Err(e) => eprintln!("metrics: could not write {path}: {e}"),
    }
}

fn run_population(smoke: bool, write_json: bool) {
    banner(&format!(
        "population — streamed Zipf batches and work stealing on a skewed batch{}",
        if smoke { " (smoke sizes)" } else { "" }
    ));
    println!(
        "{:<12} {:>12} {:>10} {:>6} {:>12} {:>14} {:>8} {:>8}",
        "users",
        "fingerprints",
        "peak group",
        "jobs",
        "wall (us)",
        "verdicts/sec",
        "lists",
        "steals"
    );
    let rows = population_throughput(smoke);
    for r in &rows {
        println!(
            "{:<12} {:>12} {:>10} {:>6} {:>12} {:>14.0} {:>8} {:>8}",
            r.users,
            r.fingerprints,
            r.peak_group,
            r.jobs,
            r.micros,
            r.verdicts_per_sec(),
            r.lists,
            r.steals,
        );
        if !smoke {
            // Acceptance: the million-user Zipf batch collapses onto its
            // fingerprints — one saturation per distinct list.
            assert!(
                r.lists <= r.fingerprints,
                "{} users: {} lists over {} fingerprints",
                r.users,
                r.lists,
                r.fingerprints
            );
        }
    }

    let skew = skew_schedule_comparison(smoke);
    println!();
    println!(
        "clustered giants ({} users, {} giants of width {} in worker 0's chunk, tiny width {}, jobs {}):",
        skew.users, skew.giants, skew.giant_width, skew.tiny_width, skew.jobs
    );
    println!(
        "  critical path: static partition {:>9} us   work-stealing {:>9} us   speedup {:.2}x   steals {}",
        skew.static_critical_micros,
        skew.stealing_critical_micros,
        skew.speedup(),
        skew.steals
    );
    println!(
        "  ideal makespan {:>9} us (max(total / jobs, largest group)); work-stealing at {:.2}x of it",
        skew.ideal_micros,
        skew.ideal_ratio()
    );
    println!(
        "  measured wall: work-stealing {:>9} us (degenerates to total work on a core-starved host)",
        skew.stealing_wall_micros
    );
    if !smoke {
        // Acceptance: stealing beats the static partition by >= 1.5x on
        // the clustered-giants skew at --jobs 8. Both are critical paths
        // priced by measured group costs (the wall time on one core per
        // worker): stealing's over the worker assignment it recorded, the
        // static partition's over the chunks it would run. Raw wall time
        // stops distinguishing schedules once the host timeshares the
        // workers. The ideal ratio is reported, not gated: with 8 workers
        // on a few cores it is too noisy.
        assert!(
            skew.speedup() >= 1.5,
            "work-stealing speedup {:.2}x below the 1.5x bar",
            skew.speedup()
        );
    }
    println!();
    println!("streamed verdicts buffer nothing per-group; each distinct capability");
    println!("list is unfolded and saturated once, for all of its users.");

    if write_json {
        write_population_blob(&rows, &skew);
    }
}

/// Emit `BENCH_population.json`: per-population streamed throughput
/// (verdicts/sec, saturated lists, steal counts, hottest fingerprint
/// group) plus, on the clustered-giants skew workload, the
/// static, ideal and work-stealing critical paths, the stealing wall, and
/// stealing's speedup over static and ratio to ideal.
fn write_population_blob(rows: &[PopulationRow], skew: &SkewRow) {
    let mut rec = Recorder::new();
    for r in rows {
        let key = format!("population.zipf.{}x{}", r.users, r.fingerprints);
        rec.counter(&format!("{key}.users"), r.users as u64);
        rec.counter(&format!("{key}.fingerprints"), r.fingerprints as u64);
        rec.counter(&format!("{key}.peak_group"), r.peak_group as u64);
        rec.counter(&format!("{key}.jobs"), r.jobs as u64);
        rec.counter(&format!("{key}.micros"), r.micros as u64);
        rec.counter(&format!("{key}.verdicts"), r.verdicts);
        rec.counter(&format!("{key}.violated"), r.violated);
        rec.counter(&format!("{key}.steals"), r.steals);
        rec.counter(&format!("{key}.lists"), r.lists as u64);
        rec.gauge(&format!("{key}.verdicts_per_sec"), r.verdicts_per_sec());
    }
    let key = format!(
        "population.skew.{}x{}g{}t{}",
        skew.users, skew.giants, skew.giant_width, skew.tiny_width
    );
    rec.counter(&format!("{key}.users"), skew.users as u64);
    rec.counter(&format!("{key}.giants"), skew.giants as u64);
    rec.counter(&format!("{key}.giant_width"), skew.giant_width as u64);
    rec.counter(&format!("{key}.tiny_width"), skew.tiny_width as u64);
    rec.counter(&format!("{key}.jobs"), skew.jobs as u64);
    rec.counter(
        &format!("{key}.static_critical_micros"),
        skew.static_critical_micros as u64,
    );
    rec.counter(&format!("{key}.ideal_micros"), skew.ideal_micros as u64);
    rec.counter(
        &format!("{key}.stealing_critical_micros"),
        skew.stealing_critical_micros as u64,
    );
    rec.counter(
        &format!("{key}.stealing_wall_micros"),
        skew.stealing_wall_micros as u64,
    );
    rec.counter(&format!("{key}.steals"), skew.steals);
    rec.gauge(&format!("{key}.speedup"), skew.speedup());
    rec.gauge(&format!("{key}.ideal_ratio"), skew.ideal_ratio());
    let report = rec.into_report();
    let path = "BENCH_population.json";
    match std::fs::write(path, report.to_json().pretty()) {
        Ok(()) => eprintln!("metrics: wrote {path}"),
        Err(e) => eprintln!("metrics: could not write {path}: {e}"),
    }
}

fn run_incremental(smoke: bool, write_json: bool) {
    banner(&format!(
        "incremental — grant/revoke maintenance vs from-scratch recompute{}",
        if smoke { " (smoke sizes)" } else { "" }
    ));
    println!(
        "{:<8} {:>6} {:>5} {:>6} {:>7} {:>9} {:>11} {:>12} {:>8} {:>9} {:>9} {:>10}",
        "family",
        "width",
        "core",
        "edits",
        "nodes",
        "terms",
        "incr (us)",
        "scratch (us)",
        "speedup",
        "deleted",
        "rederived",
        "identical"
    );
    let rows = incremental_maintenance(smoke);
    for r in &rows {
        println!(
            "{:<8} {:>6} {:>5} {:>6} {:>7} {:>9} {:>11} {:>12} {:>7.2}x {:>9} {:>9} {:>10}",
            r.family,
            r.width,
            r.core,
            r.edits,
            r.nodes,
            r.terms,
            r.incremental_micros,
            r.scratch_micros,
            r.speedup(),
            r.deleted,
            r.rederived,
            if r.identical { "yes" } else { "NO" },
        );
    }
    for r in &rows {
        // Per-row from-scratch identity: every edit's maintained closure
        // was compared term-for-term against a fresh saturation.
        assert!(
            r.identical,
            "{} edit_trace({},{}): maintained closure diverged from scratch",
            r.family, r.width, r.core
        );
        // Full runs pin the headline claim: small edits against a large
        // (rule-dense) closure are maintained at least 1.5× faster than
        // recomputing the same closure. The gate covers the largest dense
        // row (core >= 20), where recompute pays the most rule work the
        // maintenance path skips; the engine's derive prefilters already
        // skip most of the attempt storm from scratch, so the ratio settles
        // near 2–3× rather than growing without bound. Core 12–16 are
        // reported only, and the sparse family is the absorb-bound floor
        // where break-even is the honest result. Smoke sizes are too small
        // for stable ratios, so CI checks identity only.
        if !smoke && r.family == "dense" && r.core >= 20 {
            assert!(
                r.speedup() >= 1.5,
                "dense edit_trace({},{}): maintenance speedup {:.2}x fell below 1.5x",
                r.width,
                r.core,
                r.speedup()
            );
        }
    }
    if write_json {
        write_incremental_blob(&rows);
    }
}

/// Emit `BENCH_incremental.json`: per-row maintenance vs recompute timings,
/// the speedup and edit throughput, the cascade/restart term counters, and
/// the per-row identity bit.
fn write_incremental_blob(rows: &[IncrementalRow]) {
    let mut rec = Recorder::new();
    for r in rows {
        let key = format!("incremental.edit_trace.{}.{}x{}", r.family, r.width, r.core);
        rec.counter(&format!("{key}.width"), r.width as u64);
        rec.counter(&format!("{key}.core"), r.core as u64);
        rec.counter(&format!("{key}.edits"), r.edits as u64);
        rec.counter(&format!("{key}.nodes"), r.nodes as u64);
        rec.counter(&format!("{key}.terms"), r.terms as u64);
        rec.counter(
            &format!("{key}.incremental_micros"),
            r.incremental_micros as u64,
        );
        rec.counter(&format!("{key}.scratch_micros"), r.scratch_micros as u64);
        rec.counter(&format!("{key}.deleted"), r.deleted);
        rec.counter(&format!("{key}.rederived"), r.rederived);
        rec.counter(&format!("{key}.survivors"), r.survivors);
        rec.counter(&format!("{key}.identical"), u64::from(r.identical));
        rec.gauge(&format!("{key}.speedup"), r.speedup());
        rec.gauge(&format!("{key}.edits_per_sec"), r.edits_per_sec());
    }
    let report = rec.into_report();
    let path = "BENCH_incremental.json";
    match std::fs::write(path, report.to_json().pretty()) {
        Ok(()) => eprintln!("metrics: wrote {path}"),
        Err(e) => eprintln!("metrics: could not write {path}: {e}"),
    }
}

fn run_e7() {
    banner("E7 — rule-group ablation over the fixture requirements");
    println!(
        "{:<20} {:>10} {:>14}",
        "disabled group", "detected", "false alarms"
    );
    for r in e7_ablation() {
        println!(
            "{:<20} {:>6}/{:<3} {:>14}",
            r.disabled, r.detected, r.total, r.false_alarms
        );
    }
    println!();
    println!("every group except the feedback guard is load-bearing for");
    println!("detection; removing the guard instead adds false alarms.");
}

#[cfg(test)]
mod tests {
    use super::unknown_arg;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| (*a).to_owned()).collect()
    }

    #[test]
    fn known_names_and_flags_pass() {
        assert_eq!(unknown_arg(&args(&[])), None);
        assert_eq!(
            unknown_arg(&args(&["e1", "e3=500", "e8=60", "tables"])),
            None
        );
        assert_eq!(
            unknown_arg(&args(&["population", "--smoke", "--no-obs"])),
            None
        );
    }

    #[test]
    fn unknown_names_and_flags_are_named() {
        assert_eq!(unknown_arg(&args(&["nosuch"])), Some("nosuch"));
        assert_eq!(unknown_arg(&args(&["e1", "fastpat"])), Some("fastpat"));
        assert_eq!(unknown_arg(&args(&["audit", "--smoke"])), Some("audit"));
        assert_eq!(unknown_arg(&args(&["e9"])), Some("e9"));
        assert_eq!(unknown_arg(&args(&["demand", "--smok"])), Some("--smok"));
    }
}

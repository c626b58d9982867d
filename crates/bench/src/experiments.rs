//! The E1–E7 experiment implementations.
//!
//! The paper has no measurement tables; its reproducible artefacts are
//! Figure 1 (a derivation), the two running examples, and the claims of
//! soundness (Theorem 1), pessimism (§4 closing remark) and tractability
//! (§1 "reasonable amount of computation"). Each experiment regenerates one
//! of those; EXPERIMENTS.md records the outcomes.

use oodb_engine::exec::run_query;
use oodb_engine::Database;
use oodb_lang::{parse_query, parse_requirement};
use oodb_model::{UserName, Value};
use secflow::algorithm::{
    analyze, analyze_batch, analyze_batch_streaming, AnalysisConfig, AnalysisSink, BatchOptions,
    GroupRecord,
};
use secflow::closure::{Closure, ClosureOptions, Goal, ProofMode, DEFAULT_TERM_LIMIT};
use secflow::reference::RefClosure;
use secflow::report::render_derivation;
use secflow::rules::RuleConfig;
use secflow::stats::{ClosureStats, NoopObserver};
use secflow::term::Term;
use secflow::unfold::NProgram;
use secflow_dynamic::differential::{classify, DiffReport};
use secflow_dynamic::infer::{infer, Probe};
use secflow_dynamic::strategy::{assignments, shapes, ArgChoice, StrategySpec};
use secflow_dynamic::worlds::{enumerate_worlds, WorldSpec};
use secflow_dynamic::{attack_requirement, AttackerConfig};
use secflow_workloads::random::{random_case, RandomSpec};
use secflow_workloads::scale::{
    attr_fanout, call_chain, clustered_giants, deep_expr, dense_equalities, multi_user,
    multi_user_deep, wide_grants, zipf_population, ScaleCase,
};
use secflow_workloads::{fixtures, stockbroker};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

// --------------------------------------------------------------------- E1

/// E1 result: the regenerated Figure-1 derivation plus structural checks.
pub struct Figure1 {
    /// The unfolded program rendered in the paper's numbered notation.
    pub unfolded: Vec<String>,
    /// The derivation text.
    pub derivation: String,
    /// The judgments of the paper's Figure 1, with whether each was
    /// derived.
    pub judgments: Vec<(String, bool)>,
}

/// E1 — regenerate Figure 1: the derivation showing `ti` on
/// `5r_salary(4broker)` for the clerk.
pub fn e1_figure1() -> Figure1 {
    let schema = stockbroker();
    let caps = schema.user_str("clerk").expect("fixture has clerk");
    let prog = NProgram::unfold(&schema, caps).expect("fixture unfolds");
    let closure = Closure::compute(&prog).expect("closure within budget");

    let unfolded = prog
        .outers
        .iter()
        .map(|o| format!("{}: {}", o.fn_ref, prog.render(o.root)))
        .collect();

    // The paper's Figure 1 judgments, in its order. Node numbering for the
    // fixture (which also grants calcSalary-free checkBudget): verified by
    // the unfold tests: 1broker 2r_budget 3:10 4broker 5r_salary 6* 7>=,
    // then w_budget: 8a1 9a2 10w_budget.
    let judgments: Vec<(String, bool)> = [
        ("=[8o, 1broker]", closure.contains(&secflow::Term::Eq(1, 8))),
        (
            "=[9v, 2r_budget(1broker)]",
            closure.contains(&secflow::Term::Eq(2, 9)),
        ),
        ("ti[9v]", closure.has_ti(9)),
        ("ti[2r_budget(1broker)]", closure.has_ti(2)),
        ("pa[9v]", closure.has_pa(9)),
        ("pa[2r_budget(1broker)]", closure.has_pa(2)),
        ("ti[7>=(...)]", closure.has_ti(7)),
        ("ti[6*(10, 5r_salary(4broker))]", closure.has_ti(6)),
        ("ti[3:10]", closure.has_ti(3)),
        ("ti[5r_salary(4broker)]  <-- the flaw", closure.has_ti(5)),
    ]
    .into_iter()
    .map(|(s, b)| (s.to_owned(), b))
    .collect();

    let goal = closure.ti_witness(5).expect("figure 1 goal derivable");
    let derivation = render_derivation(&prog, &closure, &goal);
    Figure1 {
        unfolded,
        derivation,
        judgments,
    }
}

// --------------------------------------------------------------------- E2

/// One E2 row: a fixture requirement with expected and computed verdicts.
pub struct E2Row {
    /// Scenario name.
    pub scenario: &'static str,
    /// Requirement text.
    pub requirement: String,
    /// Paper-expected verdict (true = flaw).
    pub expected_flaw: bool,
    /// Verdict computed by `A(R)`.
    pub got_flaw: bool,
}

/// E2 — the running examples: flawed policies flagged, repaired policies
/// pass.
pub fn e2_running_examples() -> Vec<E2Row> {
    let mut rows = Vec::new();
    let stock = fixtures::stockbroker();
    let person = fixtures::person();
    let hospital = fixtures::hospital();
    let expectations: [(&str, &oodb_lang::Schema, &[bool]); 3] = [
        ("stockbroker", &stock, &[true, true, false, false]),
        ("person", &person, &[false]),
        ("hospital", &hospital, &[true, false, false]),
    ];
    for (name, schema, expected) in expectations {
        for (req, &expected_flaw) in schema.requirements.iter().zip(expected) {
            let verdict = analyze(schema, req).expect("fixture analyses run");
            rows.push(E2Row {
                scenario: name,
                requirement: req.to_string(),
                expected_flaw,
                got_flaw: verdict.is_violated(),
            });
        }
    }
    rows
}

// --------------------------------------------------------------- E3 / E4

/// E3/E4 — differential soundness and pessimism over a seeded corpus.
/// Returns the aggregate report; `dynamic_only == 0` is the soundness
/// check, `realised_alarm_rate` the pessimism measure.
pub fn e3_e4_differential(cases: usize) -> DiffReport {
    let spec = RandomSpec::default();
    let cfg = AttackerConfig {
        strategies: StrategySpec {
            max_steps: 2,
            max_assignments: 2048,
            max_shapes: 64,
            ..StrategySpec::default()
        },
        ..AttackerConfig::default()
    };
    let mut report = DiffReport::default();
    for seed in 0..cases as u64 {
        let case = random_case(seed, &spec);
        for req in &case.requirements {
            report.record(classify(&case.schema, req, &cfg));
        }
    }
    report
}

// --------------------------------------------------------------------- E5

/// Per-family E5 descriptor: name, generator, parameter list.
type ScaleFamily<'a> = (&'static str, fn(usize) -> ScaleCase, &'a [usize]);

/// One scaling measurement.
pub struct E5Row {
    /// Schema family.
    pub family: &'static str,
    /// Size parameter.
    pub param: usize,
    /// Unfolded program size (numbered occurrences).
    pub nodes: usize,
    /// Closure size (terms).
    pub terms: usize,
    /// Wall time of unfold + closure + check, microseconds.
    pub micros: u128,
}

/// E5 — closure scaling across the four schema families (full sweep; use
/// release mode — the biggest instances saturate large equality cliques).
pub fn e5_scaling() -> Vec<E5Row> {
    // The chain and deep-expression families grow superlinearly (origin
    // proliferation over long equality chains — see EXPERIMENTS.md E5);
    // the sweeps stop where a single run stays within ~10 s.
    e5_scaling_sized(
        &[1, 2, 4, 8, 16],
        &[1, 2, 4, 8, 16, 32, 64],
        &[1, 2, 3, 4, 5],
        &[1, 2, 4, 8, 16],
    )
}

/// E5 with explicit size lists per family (tests use small instances).
pub fn e5_scaling_sized(
    chain: &[usize],
    wide: &[usize],
    deep: &[usize],
    fanout: &[usize],
) -> Vec<E5Row> {
    let mut rows = Vec::new();
    let families: [ScaleFamily<'_>; 4] = [
        ("call_chain", call_chain, chain),
        ("wide_grants", wide_grants, wide),
        ("deep_expr", deep_expr, deep),
        ("attr_fanout", attr_fanout, fanout),
    ];
    for (family, gen, params) in families {
        for &param in params {
            let case = gen(param);
            let caps = case.schema.user_str("u").expect("scale user");
            let start = Instant::now();
            let prog = NProgram::unfold(&case.schema, caps).expect("scale unfolds");
            let closure = Closure::compute(&prog).expect("scale closure");
            let verdict = secflow::algorithm::check_against(&prog, &closure, &case.requirement);
            let micros = start.elapsed().as_micros();
            let _ = verdict;
            rows.push(E5Row {
                family,
                param,
                nodes: prog.len(),
                terms: closure.len(),
                micros,
            });
        }
    }
    rows
}

// --------------------------------------------------------------------- E6

/// One engine-throughput measurement.
pub struct E6Row {
    /// Number of brokers in the extent.
    pub objects: usize,
    /// Rows the query produced.
    pub rows: usize,
    /// Wall time, microseconds.
    pub micros: u128,
}

/// Build a stockbroker database with `n` brokers (deterministic values).
pub fn seeded_db(n: usize) -> Database {
    let mut db = Database::new(stockbroker()).expect("fixture checks");
    for i in 0..n {
        db.create(
            "Broker",
            vec![
                Value::str(format!("b{i}")),
                Value::Int((i as i64 % 200) + 1),
                Value::Int((i as i64 * 7) % 3000),
                Value::Int((i as i64 * 13) % 500 - 250),
            ],
        )
        .expect("seeding fits");
    }
    db
}

/// E6 — substrate sanity: probe-query throughput over growing extents.
pub fn e6_engine(sizes: &[usize]) -> Vec<E6Row> {
    let query =
        parse_query("select checkBudget(b), r_name(b) from b in Broker where r_salary(b) > 100")
            .expect("query parses");
    let admin = UserName::new("admin");
    sizes
        .iter()
        .map(|&n| {
            let mut db = seeded_db(n);
            let start = Instant::now();
            let out = run_query(&mut db, Some(&admin), &query).expect("query runs");
            E6Row {
                objects: n,
                rows: out.rows.len(),
                micros: start.elapsed().as_micros(),
            }
        })
        .collect()
}

// --------------------------------------------------------------------- E8

/// E8 aggregate: the three inferability deciders compared over a seeded
/// corpus — the finite Table-1 engine (bounded priors), the idealized
/// engine (ℤ-valid deductions) and the static `A(R)`.
///
/// Invariants: `ideal ⊆ finite` (less information can only deduce less)
/// and `ideal ⊆ static` (Theorem 1 against the honest attacker). The
/// finite engine may exceed both — exactly the finite-domain truncation
/// artefacts the idealized engine exists to filter; their count is the
/// measured size of that effect.
pub struct E8Report {
    /// Requirement checks performed.
    pub cases: usize,
    /// Cases the bounded Table-1 engine (`secflow_dynamic::infer`) realises.
    pub finite_flags: usize,
    /// Cases the idealized engine realises.
    pub ideal_flags: usize,
    /// Cases `A(R)` flags.
    pub static_flags: usize,
    /// Idealized successes the finite engine misses — must be 0.
    pub ideal_not_finite: usize,
    /// Idealized successes `A(R)` misses — must be 0 (Theorem 1).
    pub ideal_not_static: usize,
    /// Finite-engine successes `A(R)` does not flag: truncation artefacts.
    pub finite_artifacts: usize,
}

/// Does the bounded I(E) engine realise the requirement's inferability
/// capability at any occurrence, for any probe sequence within the bounds?
fn ie_achieves(
    schema: &oodb_lang::Schema,
    req: &oodb_lang::Requirement,
    spec: &StrategySpec,
    world_spec: &WorldSpec,
) -> bool {
    use secflow::algorithm::occurrences;
    use secflow::unfold::NProgram;
    let Some(caps) = schema.user(&req.user) else {
        return false;
    };
    let Ok(prog) = NProgram::unfold(schema, caps) else {
        return false;
    };
    let occs = occurrences(&prog, &req.target);
    if occs.is_empty() {
        return false;
    }
    let Ok(worlds) = enumerate_worlds(schema, world_spec) else {
        return false;
    };
    let want_total = req.ret_caps.contains(&oodb_lang::Cap::Ti);
    for shape in shapes(&prog, spec) {
        let Some(asgs) = assignments(&prog, &shape, spec) else {
            continue;
        };
        for asg in asgs {
            for world in &worlds {
                let probes: Vec<Probe> = shape
                    .iter()
                    .zip(&asg)
                    .map(|(&outer, choices)| Probe {
                        outer,
                        args: choices
                            .iter()
                            .map(|c| match c {
                                ArgChoice::Val(v) => v.clone(),
                                ArgChoice::Object(class, idx) => world
                                    .extent(class)
                                    .get(*idx)
                                    .copied()
                                    .map(Value::Obj)
                                    .unwrap_or(Value::Null),
                            })
                            .collect(),
                    })
                    .collect();
                let d = infer(&prog, &probes, world, &worlds);
                for occ in &occs {
                    let Some(outer_idx) = prog.outer_index_of(occ.ret) else {
                        continue;
                    };
                    for (t, &o) in shape.iter().enumerate() {
                        if o != outer_idx {
                            continue;
                        }
                        let site = (t, occ.ret);
                        let hit = if want_total {
                            d.is_total(site)
                        } else {
                            d.is_partial(site) || d.is_total(site)
                        };
                        if hit {
                            return true;
                        }
                    }
                }
            }
        }
    }
    false
}

/// E8 — run the three deciders over the inferability half of the corpus.
pub fn e8_containment(cases: usize) -> E8Report {
    let spec = RandomSpec::default();
    let strategy = StrategySpec {
        max_steps: 2,
        max_assignments: 512,
        max_shapes: 32,
        ..StrategySpec::default()
    };
    let world_spec = WorldSpec {
        objects_per_class: 1,
        int_domain: vec![0, 1, 2],
        max_worlds: 512,
    };
    // The idealized decider is the inferability arbiter inside
    // attack_requirement (the corpus requirement's caps are inferability
    // only, so the alterability arm never runs).
    let attacker = AttackerConfig {
        strategies: strategy.clone(),
        worlds: world_spec.clone(),
        ..AttackerConfig::default()
    };
    let mut report = E8Report {
        cases: 0,
        finite_flags: 0,
        ideal_flags: 0,
        static_flags: 0,
        ideal_not_finite: 0,
        ideal_not_static: 0,
        finite_artifacts: 0,
    };
    for seed in 0..cases as u64 {
        let case = random_case(seed, &spec);
        // Only the inferability requirement (the first one) — I(E) has no
        // alterability notion.
        let req = &case.requirements[0];
        let finite = ie_achieves(&case.schema, req, &strategy, &world_spec);
        let ideal = attack_requirement(&case.schema, req, &attacker)
            .map(|o| o.achieved)
            .unwrap_or(false);
        let st = analyze(&case.schema, req)
            .map(|v| v.is_violated())
            .unwrap_or(false);
        report.cases += 1;
        report.finite_flags += finite as usize;
        report.ideal_flags += ideal as usize;
        report.static_flags += st as usize;
        report.ideal_not_finite += (ideal && !finite) as usize;
        report.ideal_not_static += (ideal && !st) as usize;
        report.finite_artifacts += (finite && !st) as usize;
    }
    report
}

// --------------------------------------------------------------------- E7

/// One ablation row.
pub struct E7Row {
    /// Which rule group was disabled.
    pub disabled: &'static str,
    /// Of the E2 fixture flaws, how many were still detected.
    pub detected: usize,
    /// Total expected detections.
    pub total: usize,
    /// False alarms introduced on the repaired policies.
    pub false_alarms: usize,
}

/// The rule-config variants for E7.
pub fn ablation_variants() -> Vec<(&'static str, RuleConfig)> {
    let full = RuleConfig::default();
    vec![
        ("none (full rules)", full),
        (
            "eq_transfer",
            RuleConfig {
                eq_transfer: false,
                ..full
            },
        ),
        (
            "pi_join",
            RuleConfig {
                pi_join: false,
                ..full
            },
        ),
        (
            "pi_star",
            RuleConfig {
                pi_star: false,
                ..full
            },
        ),
        (
            "write_read",
            RuleConfig {
                write_read: false,
                ..full
            },
        ),
        (
            "basic_rules",
            RuleConfig {
                basic_rules: false,
                ..full
            },
        ),
        (
            "feedback_guard",
            RuleConfig {
                feedback_guard: false,
                ..full
            },
        ),
    ]
}

/// A policy whose flaw is only derivable through the pi-join rule: two
/// probes against *different constants* each halve the secret; two
/// different partial inferences join to a total one.
fn pi_join_case() -> oodb_lang::Schema {
    let s = oodb_lang::parse_schema(
        r#"
        class C { a: int }
        fn atLeastOne(c: C): bool { r_a(c) >= 1 }
        fn exactlyTwo(c: C): bool { r_a(c) == 2 }
        user probes { atLeastOne, exactlyTwo }
        require (probes, r_a(x) : ti)
        "#,
    )
    .expect("pi-join fixture parses");
    oodb_lang::check_schema(&s).expect("pi-join fixture checks");
    s
}

/// A policy whose flaw is only derivable through the pi* joint-constraint
/// machinery: the comparison's left side is `a1*a0 - (a1+a0)` with `a1`
/// readable. Partial inferability cannot flow *down* into the subtraction
/// (knowing one operand of `-` constrains nothing), so the only route to
/// `pi[a0]` is the chain of joint constraints
/// `(a0, +) ∘ (+, lhs) ∘ (lhs, a0')` collapsed on the equal pair
/// `(a0, a0')` — found by the differential experiment E3.
fn pi_star_case() -> oodb_lang::Schema {
    let s = oodb_lang::parse_schema(
        r#"
        class C { a0: int, a1: int }
        fn skew(c: C): bool {
          r_a1(c) * r_a0(c) - (r_a1(c) + r_a0(c)) >= r_a0(c)
        }
        user watcher { skew, r_a1 }
        require (watcher, r_a0(x) : pi)
        "#,
    )
    .expect("pi* fixture parses");
    oodb_lang::check_schema(&s).expect("pi* fixture checks");
    s
}

/// E7 — disable one rule group at a time and re-run the fixture
/// requirements: every group except the guard loses detections; disabling
/// the guard adds false alarms instead.
pub fn e7_ablation() -> Vec<E7Row> {
    // (schema, requirement, expected flaw) — the E2 set plus the pi-join
    // fixture.
    let stock = fixtures::stockbroker();
    let hospital = fixtures::hospital();
    let pijoin = pi_join_case();
    let mut cases: Vec<(&oodb_lang::Schema, String, bool)> = Vec::new();
    for (req, expect) in stock.requirements.iter().zip([true, true, false, false]) {
        cases.push((&stock, req.to_string(), expect));
    }
    for (req, expect) in hospital.requirements.iter().zip([true, false, false]) {
        cases.push((&hospital, req.to_string(), expect));
    }
    for req in &pijoin.requirements {
        cases.push((&pijoin, req.to_string(), true));
    }
    let pistar = pi_star_case();
    for req in &pistar.requirements {
        cases.push((&pistar, req.to_string(), true));
    }

    ablation_variants()
        .into_iter()
        .map(|(name, rules)| {
            let config = AnalysisConfig {
                rules,
                ..AnalysisConfig::default()
            };
            let mut detected = 0;
            let mut total = 0;
            let mut false_alarms = 0;
            for (schema, req_text, expect) in &cases {
                let req = parse_requirement(req_text).expect("round-trip");
                let verdict = analyze_batch(
                    schema,
                    std::slice::from_ref(&req),
                    &config,
                    &BatchOptions::default(),
                )
                .verdicts
                .remove(0)
                .expect("ablation analyses run");
                if *expect {
                    total += 1;
                    if verdict.is_violated() {
                        detected += 1;
                    }
                } else if verdict.is_violated() {
                    false_alarms += 1;
                }
            }
            E7Row {
                disabled: name,
                detected,
                total,
                false_alarms,
            }
        })
        .collect()
}

// --------------------------------------------------------------- fastpath

/// Per-rule derive counters for one [`FastpathRow`].
pub struct RuleRow {
    /// Table-2 rule label.
    pub label: &'static str,
    /// Derive attempts under the label — what survived the engine's
    /// mirror prefilters.
    pub attempts: u64,
    /// New terms the rule inserted.
    pub new_terms: u64,
}

/// One engine-vs-oracle closure measurement (`fastpath` experiment).
pub struct FastpathRow {
    /// Schema family.
    pub family: &'static str,
    /// Size parameter.
    pub param: usize,
    /// Unfolded program size (numbered occurrences).
    pub nodes: usize,
    /// Closure size (terms).
    pub terms: usize,
    /// Reference-oracle closure time, microseconds — `None` past the
    /// family's oracle cap, where only the engine runs.
    pub ref_micros: Option<u128>,
    /// Engine closure time (proofs off), microseconds, best of the row's
    /// repetitions.
    pub fast_micros: u128,
    /// Total derive attempts of the engine.
    pub derives: u64,
    /// Did the engine match the oracle exactly — insertion order, rounds
    /// and every per-expression witness? `None` on engine-only rows.
    pub identical: Option<bool>,
    /// Per-rule counters, sorted by attempts descending.
    pub rules: Vec<RuleRow>,
}

impl FastpathRow {
    /// Oracle time over engine time (oracle rows only).
    pub fn speedup(&self) -> Option<f64> {
        self.ref_micros
            .map(|r| r as f64 / self.fast_micros.max(1) as f64)
    }

    /// Closure terms per second under the engine.
    pub fn terms_per_sec(&self) -> f64 {
        self.terms as f64 * 1e6 / self.fast_micros.max(1) as f64
    }
}

/// Run `f` once, then — when the first run took under `repeat_below`
/// microseconds — `reps - 1` more times, returning the last result and the
/// best time in microseconds.
fn best_of<T>(reps: u32, repeat_below: u128, mut f: impl FnMut() -> T) -> (T, u128) {
    let mut timed = || {
        let start = Instant::now();
        let out = f();
        (out, start.elapsed().as_micros())
    };
    let (mut out, mut best) = timed();
    if best < repeat_below {
        for _ in 1..reps {
            let (o, t) = timed();
            out = o;
            best = best.min(t);
        }
    }
    (out, best)
}

/// `fastpath` — time the saturation engine (`ProofMode::Off`) against the
/// `RefClosure` oracle (SipHash maps, always-on proofs, no prefilters) on
/// the four E5 families plus the refiring-heavy `dense_equalities`,
/// verifying on every oracle row that the engine reproduces the oracle
/// exactly: insertion order, rounds and witnesses. Each row also records
/// the engine's terms/sec and per-rule attempt/insert counters (from a
/// separate stats-collecting run).
///
/// The oracle re-fires every rule on every pop, so it blows up
/// super-linearly; each family runs it only up to a per-family cap and
/// lets the engine alone carry the sweep into the thousands-of-nodes sizes
/// (`wide_grants(512)` unfolds to 2 051 numbered occurrences,
/// `dense_equalities(48)` saturates to 1.8 M terms).
///
/// `smoke` shrinks every family to CI-sized instances, all oracle rows.
pub fn closure_fastpath(smoke: bool) -> Vec<FastpathRow> {
    type Gen = fn(usize) -> ScaleCase;
    let families: [(&'static str, Gen, &'static [usize], usize); 5] = if smoke {
        [
            ("call_chain", call_chain, &[4], 4),
            ("wide_grants", wide_grants, &[8], 8),
            ("deep_expr", deep_expr, &[3], 3),
            ("attr_fanout", attr_fanout, &[4], 4),
            ("dense_equalities", dense_equalities, &[6], 6),
        ]
    } else {
        [
            ("call_chain", call_chain, &[8, 12], 12),
            ("wide_grants", wide_grants, &[32, 64, 128, 192, 512], 192),
            ("deep_expr", deep_expr, &[4, 5], 5),
            ("attr_fanout", attr_fanout, &[8, 16], 16),
            (
                "dense_equalities",
                dense_equalities,
                &[8, 12, 16, 32, 48],
                12,
            ),
        ]
    };
    let rules = RuleConfig::default();
    let mut rows = Vec::new();
    for (family, gen, params, oracle_cap) in families {
        for &param in params {
            let case = gen(param);
            let caps = case.schema.user_str("u").expect("scale user");
            let prog = NProgram::unfold(&case.schema, caps).expect("scale unfolds");
            // Small rows finish in ~1 ms, where a single descheduling event
            // swamps the measurement: the engine takes the best of several
            // runs everywhere, the oracle only where a run stays under
            // 100 ms (past that, its own noise is negligible).
            let reps = if prog.len() < 1000 { 5 } else { 3 };
            let opts = ClosureOptions {
                rules,
                term_limit: DEFAULT_TERM_LIMIT,
                goal: Goal::Full(ProofMode::Off),
            };
            let (fast, fast_micros) = best_of(reps, u128::MAX, || {
                Closure::saturate(&prog, &opts, NoopObserver)
                    .0
                    .expect("engine closure")
            });
            let (oracle, ref_micros) = (param <= oracle_cap)
                .then(|| {
                    best_of(reps, 100_000, || {
                        RefClosure::compute_with(&prog, &rules, DEFAULT_TERM_LIMIT)
                            .expect("reference closure")
                    })
                })
                .unzip();
            let identical = oracle.map(|slow| {
                fast.iter().eq(slow.iter())
                    && fast.rounds() == slow.rounds()
                    && (1..=prog.len() as secflow::unfold::ExprId).all(|e| {
                        fast.ti_witness(e) == slow.ti_witness(e)
                            && fast.pi_witness(e) == slow.pi_witness(e)
                    })
            });

            let stats = Closure::saturate(&prog, &opts, ClosureStats::new(DEFAULT_TERM_LIMIT)).1;
            let mut rule_rows: Vec<RuleRow> = stats
                .rule_attempts
                .iter()
                .map(|&(label, attempts)| RuleRow {
                    label,
                    attempts,
                    new_terms: stats.firings_of(label),
                })
                .collect();
            rule_rows.sort_by_key(|r| std::cmp::Reverse(r.attempts));

            rows.push(FastpathRow {
                family,
                param,
                nodes: prog.len(),
                terms: fast.len(),
                ref_micros,
                fast_micros,
                derives: stats.derive_calls,
                identical,
                rules: rule_rows,
            });
        }
    }
    rows
}

/// One batch-driver throughput measurement.
pub struct BatchRow {
    /// Users (= groups) in the workload.
    pub users: usize,
    /// Requirements checked.
    pub requirements: usize,
    /// Worker threads actually used.
    pub jobs: usize,
    /// Wall time for the whole batch, microseconds.
    pub micros: u128,
}

/// `fastpath` part 2 — the batch driver on a multi-user workload at
/// increasing `--jobs`, asserting the verdict vector never drifts.
pub fn batch_throughput(smoke: bool) -> Vec<BatchRow> {
    // Each group must be heavy enough (a few ms of closure) for the pool
    // to beat thread-spawn overhead; smoke just checks agreement.
    let (users, width) = if smoke { (4, 4) } else { (8, 64) };
    let case = multi_user(users, width);
    let config = AnalysisConfig::default();
    let mut baseline: Option<Vec<bool>> = None;
    let mut rows = Vec::new();
    for jobs in [1usize, 2, 4, 8] {
        if jobs > users {
            break;
        }
        let opts = BatchOptions {
            jobs,
            ..BatchOptions::default()
        };
        let start = Instant::now();
        let out = analyze_batch(&case.schema, &case.requirements, &config, &opts);
        let micros = start.elapsed().as_micros();
        let verdicts: Vec<bool> = out
            .verdicts
            .iter()
            .map(|v| v.as_ref().expect("batch verdict").is_violated())
            .collect();
        match &baseline {
            None => baseline = Some(verdicts),
            Some(b) => assert_eq!(b, &verdicts, "batch verdicts drift at jobs={jobs}"),
        }
        rows.push(BatchRow {
            users,
            requirements: case.requirements.len(),
            jobs: out.summary.jobs_used,
            micros,
        });
    }
    rows
}

// ----------------------------------------------------------------- demand

/// One demand-vs-full measurement on a scale family instance.
pub struct DemandRow {
    /// Schema family.
    pub family: &'static str,
    /// Size parameter.
    pub param: usize,
    /// Unfolded program size (numbered occurrences).
    pub nodes: usize,
    /// Terms derived by full saturation.
    pub full_terms: usize,
    /// Terms derived by the demand-driven run (slice + early exit).
    pub demand_terms: usize,
    /// Full-saturation closure + check time, microseconds.
    pub full_micros: u128,
    /// Demand time (occurrence scan + plan + closure + check), microseconds.
    pub demand_micros: u128,
    /// Did the demand run stop before draining its sliced worklist?
    pub early_exit: bool,
    /// Whether both modes produced the identical verdict (witnesses
    /// included).
    pub identical: bool,
}

impl DemandRow {
    /// Full time over demand time.
    pub fn speedup(&self) -> f64 {
        if self.demand_micros == 0 {
            f64::INFINITY
        } else {
            self.full_micros as f64 / self.demand_micros as f64
        }
    }
}

/// `demand` — time full saturation against the demand-driven engine
/// (relevance slice + goal-directed early exit) on the E5 schema families,
/// verifying the verdicts stay byte-identical. Both timings exclude the
/// shared unfolding; the demand side pays for its occurrence scan and plan
/// construction inside the measured region.
///
/// `smoke` shrinks every family to CI-sized instances.
pub fn demand_vs_full(smoke: bool) -> Vec<DemandRow> {
    use secflow::algorithm::{check_against, check_with_occurrences, occurrences};
    use secflow::demand::DemandPlan;
    type Gen = fn(usize) -> ScaleCase;
    let families: [(&'static str, Gen, &'static [usize]); 4] = if smoke {
        [
            ("call_chain", call_chain, &[4]),
            ("wide_grants", wide_grants, &[8]),
            ("deep_expr", deep_expr, &[3]),
            ("attr_fanout", attr_fanout, &[4]),
        ]
    } else {
        [
            ("call_chain", call_chain, &[8, 12]),
            ("wide_grants", wide_grants, &[32, 64]),
            ("deep_expr", deep_expr, &[4, 5]),
            ("attr_fanout", attr_fanout, &[8, 16]),
        ]
    };
    let rules = RuleConfig::default();
    let mut rows = Vec::new();
    for (family, gen, params) in families {
        for &param in params {
            let case = gen(param);
            let caps = case.schema.user_str("u").expect("scale user");
            let prog = NProgram::unfold(&case.schema, caps).expect("scale unfolds");

            let start = Instant::now();
            let full_opts = ClosureOptions {
                rules,
                term_limit: DEFAULT_TERM_LIMIT,
                goal: Goal::Full(ProofMode::Off),
            };
            let full = Closure::saturate(&prog, &full_opts, NoopObserver)
                .0
                .expect("full closure");
            let full_verdict = check_against(&prog, &full, &case.requirement);
            let full_micros = start.elapsed().as_micros();

            let start = Instant::now();
            let occs = occurrences(&prog, &case.requirement.target);
            let plan = DemandPlan::build(&prog, [(&case.requirement, occs.as_slice())]);
            let demand_opts = ClosureOptions {
                goal: Goal::Demand(&plan),
                ..full_opts
            };
            let demand = Closure::saturate(&prog, &demand_opts, NoopObserver)
                .0
                .expect("demand closure");
            let demand_verdict = check_with_occurrences(&prog, &demand, &case.requirement, &occs);
            let demand_micros = start.elapsed().as_micros();

            rows.push(DemandRow {
                family,
                param,
                nodes: prog.len(),
                full_terms: full.len(),
                demand_terms: demand.len(),
                full_micros,
                demand_micros,
                early_exit: demand.early_exited(),
                identical: full_verdict == demand_verdict,
            });
        }
    }
    rows
}

/// One proof-checker overhead measurement: analysis (proof-carrying
/// saturation) against the independent certification pass over the same
/// closure.
pub struct CertifyRow {
    /// Schema family.
    pub family: &'static str,
    /// Size parameter.
    pub param: usize,
    /// Unfolded program size (numbered occurrences).
    pub nodes: usize,
    /// Closure size = derivations certified.
    pub terms: usize,
    /// Terms justified by axiom schemas.
    pub axioms: usize,
    /// Proof-carrying saturation time, microseconds.
    pub analyze_micros: u128,
    /// Certification time over the recorded proofs, microseconds.
    pub certify_micros: u128,
    /// Whether the certificate covered every term of the closure.
    pub complete: bool,
}

impl CertifyRow {
    /// Certification time as a fraction of analysis time.
    pub fn overhead(&self) -> f64 {
        if self.analyze_micros == 0 {
            f64::INFINITY
        } else {
            self.certify_micros as f64 / self.analyze_micros as f64
        }
    }
}

/// `certify` — the cost of re-validating every recorded derivation with
/// the independent proof checker, against the cost of deriving them in the
/// first place, across the four scaling families. The analysis runs are
/// proof-carrying (`ProofMode::Full`) semi-naive saturation — the exact
/// configuration `secflow check --certify` uses.
///
/// `smoke` shrinks the sweep to CI-sized instances.
pub fn certify_overhead(smoke: bool) -> Vec<CertifyRow> {
    type Gen = fn(usize) -> ScaleCase;
    let families: [(&'static str, Gen, &'static [usize]); 4] = if smoke {
        [
            ("call_chain", call_chain, &[8]),
            ("wide_grants", wide_grants, &[8]),
            ("deep_expr", deep_expr, &[3]),
            ("attr_fanout", attr_fanout, &[8]),
        ]
    } else {
        [
            ("call_chain", call_chain, &[8, 12]),
            ("wide_grants", wide_grants, &[32, 64, 128]),
            ("deep_expr", deep_expr, &[4, 5]),
            ("attr_fanout", attr_fanout, &[8, 16]),
        ]
    };
    let rules = RuleConfig::default();
    let mut rows = Vec::new();
    for (family, gen, params) in families {
        for &param in params {
            let case = gen(param);
            let caps = case.schema.user_str("u").expect("scale user");
            let prog = NProgram::unfold(&case.schema, caps).expect("scale unfolds");

            // Best-of-three on both phases: single-shot micro timings on
            // the smoke sizes are dominated by allocator/cache warm-up,
            // which would make the overhead ratio flake under load.
            let mut analyze_micros = u128::MAX;
            let mut closure = None;
            for _ in 0..3 {
                let start = Instant::now();
                let c = Closure::compute(&prog).expect("proof-carrying closure");
                analyze_micros = analyze_micros.min(start.elapsed().as_micros());
                closure = Some(c);
            }
            let closure = closure.expect("at least one analysis run");

            let mut certify_micros = u128::MAX;
            let mut cert = None;
            for _ in 0..3 {
                let start = Instant::now();
                let c = closure
                    .certify(&prog, &rules)
                    .unwrap_or_else(|e| panic!("{family}({param}): certification failed: {e}"));
                certify_micros = certify_micros.min(start.elapsed().as_micros());
                cert = Some(c);
            }
            let cert = cert.expect("at least one certification run");

            rows.push(CertifyRow {
                family,
                param,
                nodes: prog.len(),
                terms: closure.len(),
                axioms: cert.axioms,
                analyze_micros,
                certify_micros,
                complete: cert.terms_checked == closure.len()
                    && cert.axioms + cert.derived == cert.terms_checked,
            });
        }
    }
    rows
}

/// The `demand` batch measurement: the multi-requirement workload, full
/// saturation per user vs. the batch driver's demand arm.
pub struct DemandBatchRow {
    /// Users (= groups) in the workload.
    pub users: usize,
    /// Requirements checked.
    pub requirements: usize,
    /// Terms derived across all groups, full saturation.
    pub full_terms: u64,
    /// Terms derived across all groups, demand-driven.
    pub demand_terms: u64,
    /// Full-saturation wall time over every group, microseconds.
    pub full_micros: u128,
    /// Demand-driven batch wall time, microseconds.
    pub demand_micros: u128,
    /// Whether both modes produced identical verdict vectors.
    pub identical: bool,
}

impl DemandBatchRow {
    /// Full time over demand time.
    pub fn speedup(&self) -> f64 {
        if self.demand_micros == 0 {
            f64::INFINITY
        } else {
            self.full_micros as f64 / self.demand_micros as f64
        }
    }
}

/// `demand` part 2 — the multi-requirement batch workload: the engine
/// saturating each user's whole `S'(F)` (unfold, full proof-free closure,
/// check, as the per-family rows run it) against the batch driver's
/// default demand arm, both serial, so the comparison measures the engines
/// and not the pool. The workload is [`multi_user_deep`]: each user's
/// closure is deep-expression sized, the regime the slice prunes. Demand
/// term counts come from a separate stats-collecting run so the timed run
/// stays uninstrumented.
pub fn demand_batch(smoke: bool) -> DemandBatchRow {
    use secflow::algorithm::check_against;
    let (users, depth) = if smoke { (4, 2) } else { (8, 4) };
    let case = multi_user_deep(users, depth);
    let config = AnalysisConfig::default();
    let mut groups: Vec<(&UserName, Vec<usize>)> = Vec::new();
    for (i, r) in case.requirements.iter().enumerate() {
        match groups.iter_mut().find(|(u, _)| **u == r.user) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((&r.user, vec![i])),
        }
    }

    let full_opts = config.closure_options(Goal::Full(ProofMode::Off));
    let start = Instant::now();
    let mut full_terms = 0u64;
    let mut full = vec![None; case.requirements.len()];
    for (user, idxs) in &groups {
        let caps = case.schema.user(user).expect("workload user");
        let prog = NProgram::unfold_with_limit(&case.schema, caps, config.node_limit)
            .expect("workload unfolds");
        let closure = Closure::saturate(&prog, &full_opts, NoopObserver)
            .0
            .expect("full closure");
        full_terms += closure.len() as u64;
        for &i in idxs {
            full[i] = Some(check_against(&prog, &closure, &case.requirements[i]));
        }
    }
    let full_micros = start.elapsed().as_micros();
    let start = Instant::now();
    let demand = analyze_batch(
        &case.schema,
        &case.requirements,
        &config,
        &BatchOptions::default(),
    );
    let demand_micros = start.elapsed().as_micros();

    let stats_opts = BatchOptions {
        collect_stats: true,
        ..BatchOptions::default()
    };
    let demand_terms = analyze_batch(&case.schema, &case.requirements, &config, &stats_opts)
        .groups
        .iter()
        .map(|g| g.stats.closure.total_terms())
        .sum();
    DemandBatchRow {
        users,
        requirements: case.requirements.len(),
        full_terms,
        demand_terms,
        full_micros,
        demand_micros,
        identical: demand
            .verdicts
            .iter()
            .zip(&full)
            .all(|(d, f)| d.as_ref().ok() == f.as_ref()),
    }
}

// ----------------------------------------------------------- population

/// One Zipf-population streaming throughput measurement: verdicts/sec is
/// the headline metric (the ROADMAP north-star is population-scale
/// serving), with the distinct capability lists the batch saturated and
/// the scheduler's steal count recorded alongside.
pub struct PopulationRow {
    /// Users in the population (= groups = verdicts, one requirement each).
    pub users: usize,
    /// Distinct capability fingerprints the Zipf draw collapses onto.
    pub fingerprints: usize,
    /// Users sharing the most popular fingerprint.
    pub peak_group: usize,
    /// Worker threads requested.
    pub jobs: usize,
    /// Wall time for the streamed batch, microseconds.
    pub micros: u128,
    /// Verdicts emitted through the sink.
    pub verdicts: u64,
    /// Verdicts that flagged a flaw.
    pub violated: u64,
    /// Steal operations performed by the work-stealing pool.
    pub steals: u64,
    /// Distinct capability lists the batch unfolded and saturated, once
    /// each (at most `fingerprints`: a profile the draw never picks holds
    /// no user).
    pub lists: usize,
}

impl PopulationRow {
    /// Verdicts delivered per second of wall time.
    pub fn verdicts_per_sec(&self) -> f64 {
        if self.micros == 0 {
            f64::INFINITY
        } else {
            self.verdicts as f64 * 1e6 / self.micros as f64
        }
    }
}

/// The work-stealing pool on the clustered-giants skew workload: the heavy
/// groups sit contiguously in worker 0's static chunk, so a static
/// partition would run them back to back while its neighbours idle.
///
/// Every schedule is scored by its *critical path*: every group is priced
/// at its measured serial cost, each worker's attributed work is summed
/// over the groups it ran, and the critical path is the most loaded
/// worker's total. That is exactly the batch's wall time on a machine with
/// one core per worker — and unlike raw wall time it stays meaningful on a
/// core-starved CI container, where the OS timeshares all eight workers
/// onto the same core and wall time degenerates to total work for *any*
/// schedule.
///
/// Only the work-stealing run is executed. Its two references are pure
/// functions of the per-group costs: a static partition never steals, so
/// worker `w` runs exactly groups `w·n/jobs .. (w+1)·n/jobs` (the chunks
/// the pool seeds its deques with), and no schedule can beat the ideal
/// makespan `max(Σ cost / jobs, max cost)`.
pub struct SkewRow {
    /// Groups in the workload.
    pub users: usize,
    /// Heavy groups, clustered at the front of group order.
    pub giants: usize,
    /// Probe width of each giant group (closure cost grows ~width²).
    pub giant_width: usize,
    /// Probe width of every other group.
    pub tiny_width: usize,
    /// Worker threads requested.
    pub jobs: usize,
    /// Critical path of a static contiguous partition, microseconds: max
    /// over workers of the summed serial cost of the worker's chunk.
    pub static_critical_micros: u128,
    /// Ideal makespan, microseconds: `max(Σ cost / jobs, max cost)`.
    pub ideal_micros: u128,
    /// Critical path of the work-stealing pool over the groups each worker
    /// actually ran, microseconds.
    pub stealing_critical_micros: u128,
    /// Measured wall time of the work-stealing run, microseconds.
    pub stealing_wall_micros: u128,
    /// Steals performed by the best work-stealing run.
    pub steals: u64,
}

impl SkewRow {
    /// Work-stealing speedup over the static partition, by critical path.
    pub fn speedup(&self) -> f64 {
        ratio(self.static_critical_micros, self.stealing_critical_micros)
    }

    /// Work-stealing critical path over the ideal makespan (1.0 is
    /// perfect balance).
    pub fn ideal_ratio(&self) -> f64 {
        ratio(self.stealing_critical_micros, self.ideal_micros)
    }
}

/// `num / den`, infinite on a zero denominator.
fn ratio(num: u128, den: u128) -> f64 {
    if den == 0 {
        f64::INFINITY
    } else {
        num as f64 / den as f64
    }
}

/// `population` part 1 — stream a Zipf-distributed population through
/// `analyze_batch_streaming`, which saturates each distinct capability
/// list once, and count verdicts without buffering anything per-group.
/// `smoke` is the CI size (10^4 users); the full run peaks at a million
/// users over 4000 fingerprints.
pub fn population_throughput(smoke: bool) -> Vec<PopulationRow> {
    let sizes: &[(usize, usize)] = if smoke {
        &[(10_000, 100)]
    } else {
        &[(100_000, 500), (1_000_000, 4_000)]
    };
    let config = AnalysisConfig::default();
    let mut rows = Vec::new();
    for &(users, fingerprints) in sizes {
        let case = zipf_population(users, fingerprints, 0xF1A7);
        // Popularity of the hottest fingerprint, from the per-user
        // requirement goals (each names its profile's probed attribute).
        let mut popularity: HashMap<String, usize> = HashMap::new();
        for r in &case.requirements {
            *popularity.entry(r.target.to_string()).or_default() += 1;
        }
        let peak_group = popularity.values().copied().max().unwrap_or(0);

        /// Counts verdicts as they stream past — the population run keeps
        /// nothing per-group, which is what lets memory stay flat.
        struct CountingSink {
            verdicts: AtomicU64,
            violated: AtomicU64,
        }
        impl AnalysisSink for CountingSink {
            fn emit(&self, record: GroupRecord) {
                for (_, verdict) in &record.verdicts {
                    let v = verdict.as_ref().expect("population verdict");
                    self.verdicts.fetch_add(1, Ordering::Relaxed);
                    if v.is_violated() {
                        self.violated.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }

        let jobs = 8usize;
        let opts = BatchOptions {
            jobs,
            ..BatchOptions::default()
        };
        let sink = CountingSink {
            verdicts: AtomicU64::new(0),
            violated: AtomicU64::new(0),
        };
        let start = Instant::now();
        let summary = analyze_batch_streaming(
            &case.schema,
            &case.requirements,
            &config,
            &opts,
            None,
            &sink,
        );
        let micros = start.elapsed().as_micros();
        let verdicts = sink.verdicts.load(Ordering::Relaxed);
        assert_eq!(verdicts as usize, users, "every user gets one verdict");
        assert_eq!(summary.groups, users, "one group per user");
        rows.push(PopulationRow {
            users,
            fingerprints,
            peak_group,
            jobs,
            micros,
            verdicts,
            violated: sink.violated.load(Ordering::Relaxed),
            steals: summary.steals,
            lists: summary.lists,
        });
    }
    rows
}

/// `population` part 2 — the skew the work-stealing pool exists for: a
/// cluster of giant groups seeded into one worker's static chunk, run
/// best-of-three at `--jobs 8` (uncached, so the cost model is real
/// closure work). Each run streams through [`analyze_batch_streaming`]
/// with a sink that records which worker executed each group; the score
/// is the critical path over that *actual* assignment, priced by per-group
/// serial cost measured up front, against the static-partition and ideal
/// critical paths computed from the same costs (see [`SkewRow`]). Every
/// run's verdicts must equal the serial `analyze` verdicts.
pub fn skew_schedule_comparison(smoke: bool) -> SkewRow {
    // `giants == users / jobs` puts the whole cluster in worker 0's chunk.
    let (users, giants, giant_width, tiny_width) = if smoke {
        (64, 8, 48, 6)
    } else {
        (128, 16, 96, 8)
    };
    let case = clustered_giants(users, giants, giant_width, tiny_width);
    let config = AnalysisConfig::default();
    let jobs = 8usize;

    // Price each group by its serial analysis cost (best of two), keeping
    // its verdict flags. Every user holds exactly one requirement, so
    // group i is requirement i.
    let (cost, serial_flags): (Vec<u128>, Vec<Vec<bool>>) = case
        .requirements
        .iter()
        .map(|r| {
            let mut best = u128::MAX;
            let mut violated = false;
            for _ in 0..2 {
                let start = Instant::now();
                violated = analyze(&case.schema, r)
                    .expect("skew verdict")
                    .is_violated();
                best = best.min(start.elapsed().as_micros());
            }
            (best, vec![violated])
        })
        .unzip();
    let static_critical = (0..jobs)
        .map(|w| cost[w * users / jobs..(w + 1) * users / jobs].iter().sum())
        .max()
        .unwrap_or(0);
    let total: u128 = cost.iter().sum();
    let largest = cost.iter().copied().max().unwrap_or(0);
    let ideal = total.div_ceil(jobs as u128).max(largest);

    /// One group's assignment trace: the worker that executed it and its
    /// violation flags.
    type Assignment = (usize, Vec<bool>);

    /// Records, per group, the worker that executed it and its violation
    /// flags — the assignment trace the critical path is computed from.
    struct AssignSink {
        slots: Mutex<Vec<Option<Assignment>>>,
    }
    impl AnalysisSink for AssignSink {
        fn emit(&self, record: GroupRecord) {
            let flags = record
                .verdicts
                .iter()
                .map(|(_, v)| v.as_ref().expect("skew verdict").is_violated())
                .collect();
            let mut slots = self.slots.lock().expect("sink lock");
            let slot = &mut slots[record.group_index];
            assert!(slot.is_none(), "group {} emitted twice", record.group_index);
            *slot = Some((record.worker, flags));
        }
    }

    // Best-of-three, scored by critical path.
    let opts = BatchOptions {
        jobs,
        ..BatchOptions::default()
    };
    let mut best_wall = u128::MAX;
    let mut best_critical = u128::MAX;
    let mut best_steals = 0u64;
    for _ in 0..3 {
        let sink = AssignSink {
            slots: Mutex::new((0..users).map(|_| None).collect()),
        };
        let start = Instant::now();
        let summary = analyze_batch_streaming(
            &case.schema,
            &case.requirements,
            &config,
            &opts,
            None,
            &sink,
        );
        let wall = start.elapsed().as_micros();
        let slots = sink.slots.into_inner().expect("sink lock");
        let mut per_worker = vec![0u128; jobs];
        let mut run_flags = Vec::with_capacity(users);
        for (gi, slot) in slots.into_iter().enumerate() {
            let (worker, group_flags) = slot.expect("every group emitted");
            per_worker[worker] += cost[gi];
            run_flags.push(group_flags);
        }
        assert_eq!(
            run_flags, serial_flags,
            "work stealing disagrees with serial analyze on the skewed workload"
        );
        let critical = per_worker.iter().copied().max().unwrap_or(0);
        best_wall = best_wall.min(wall);
        if critical < best_critical {
            best_critical = critical;
            best_steals = summary.steals;
        }
    }
    SkewRow {
        users,
        giants,
        giant_width,
        tiny_width,
        jobs,
        static_critical_micros: static_critical,
        ideal_micros: ideal,
        stealing_critical_micros: best_critical,
        stealing_wall_micros: best_wall,
        steals: best_steals,
    }
}

// --------------------------------------------------- incremental edits

/// One edit-trace measurement: a grant/revoke script replayed against a
/// maintained incremental closure ([`secflow::IncrementalUser`]) vs a
/// from-scratch recompute after every edit.
pub struct IncrementalRow {
    /// Family label: `sparse` ([`secflow_workloads::scale::edit_trace`]-only
    /// probes — absorb-bound, the honest worst case) or `dense` (an
    /// always-granted equality-clique core under the probes — the
    /// small-edit/large-closure regime the maintenance path is built for).
    pub family: &'static str,
    /// Probe-pool width of the `edit_trace` family.
    pub width: usize,
    /// Dense-core size (`0` for the sparse family).
    pub core: usize,
    /// Edits in the script.
    pub edits: usize,
    /// Unfolded program size (numbered occurrences) before the first edit.
    pub nodes: usize,
    /// Closure size (terms) before the first edit.
    pub terms: usize,
    /// Total incremental maintenance time across the script, microseconds.
    pub incremental_micros: u128,
    /// Total re-unfold + full-recompute time across the script,
    /// microseconds (proof-carrying, like the maintained closure).
    pub scratch_micros: u128,
    /// Did every edit leave the maintained closure identical (as a sorted
    /// term set) to the from-scratch recompute?
    pub identical: bool,
    /// Terms removed by deletion cascades, summed over the script.
    pub deleted: u64,
    /// Terms re-derived by warm restarts, summed over the script.
    pub rederived: u64,
    /// Terms carried over by absorption, summed over the script.
    pub survivors: u64,
}

impl IncrementalRow {
    /// From-scratch time over incremental time — the headline speedup of
    /// maintenance over recompute.
    pub fn speedup(&self) -> f64 {
        self.scratch_micros as f64 / self.incremental_micros.max(1) as f64
    }

    /// Edits maintained per second.
    pub fn edits_per_sec(&self) -> f64 {
        self.edits as f64 * 1e6 / self.incremental_micros.max(1) as f64
    }
}

/// `incremental` — time incremental grant/revoke maintenance against
/// from-scratch recomputation on the edit-trace families: scripts of
/// single-capability toggles against a standing closure. The `sparse`
/// family (probes only) is the absorb-bound floor — scratch saturation
/// there is mostly successful derives, which absorption merely replays, so
/// maintenance roughly breaks even. The `dense` family parks an
/// equality-clique core ([`secflow_workloads::scale::edit_trace_dense`])
/// under the probes: from-scratch saturation re-pays the `O(core²)`
/// equality/transfer attempt storm on every edit, the maintenance path
/// absorbs those terms without re-attempting a single rule, and the
/// speedup grows with the core — though the engine's derive prefilters
/// already skip most of that storm from scratch, so the recompute baseline
/// is cheap and the ratio stays modest. After every edit the maintained
/// closure is checked identical — as a sorted term set — to a fresh
/// proof-carrying saturation of the edited capability list, so the timing
/// rows can never drift from a correctness bug silently.
///
/// `smoke` shrinks both families to CI-sized instances.
pub fn incremental_maintenance(smoke: bool) -> Vec<IncrementalRow> {
    use secflow::incremental::IncrementalUser;
    use secflow_workloads::scale::{edit_trace_dense, EditOp};

    // (family, probe width, dense core, edits). The sparse rows measure the
    // absorb-bound floor; the dense rows are the headline regime, where
    // from-scratch saturation re-pays the equality-clique attempt storm on
    // every edit and maintenance does not.
    let fams: &[(&'static str, usize, usize, usize)] = if smoke {
        &[("sparse", 8, 0, 6), ("dense", 4, 6, 6)]
    } else {
        &[
            ("sparse", 64, 0, 12),
            ("dense", 8, 12, 12),
            ("dense", 8, 16, 12),
            ("dense", 8, 20, 12),
        ]
    };
    let mut rows = Vec::new();
    for &(family, width, core, edits) in fams {
        let case = edit_trace_dense(width, core, edits, 0xED17 + width as u64);
        let config = AnalysisConfig::default();
        let mut inc = IncrementalUser::new(&case.schema, &case.requirement.user, &config)
            .expect("edit_trace materializes");
        let nodes = inc.program().len();
        let terms = inc.closure().len();
        let mut caps = inc.caps().clone();

        let mut incremental_micros = 0u128;
        let mut scratch_micros = 0u128;
        let mut identical = true;
        let (mut deleted, mut rederived, mut survivors) = (0u64, 0u64, 0u64);
        for op in &case.edits {
            let start = Instant::now();
            let outcome = match op {
                EditOp::Grant(f) => inc.grant(&case.schema, f),
                EditOp::Revoke(f) => inc.revoke(&case.schema, f),
            }
            .expect("edit_trace edits apply");
            incremental_micros += start.elapsed().as_micros();
            deleted += outcome.deleted as u64;
            rederived += outcome.rederived as u64;
            survivors += outcome.survivors as u64;

            // The from-scratch contender re-does what maintenance avoided:
            // unfold the edited list and saturate with proofs.
            match op {
                EditOp::Grant(f) => caps.grant(f.clone()),
                EditOp::Revoke(f) => caps.revoke(f),
            };
            let start = Instant::now();
            let prog = NProgram::unfold(&case.schema, &caps).expect("edit_trace unfolds");
            let opts = config.closure_options(Goal::Full(ProofMode::Full));
            let scratch = Closure::saturate(&prog, &opts, NoopObserver)
                .0
                .expect("edit_trace saturates");
            scratch_micros += start.elapsed().as_micros();

            let mut a: Vec<Term> = inc.closure().iter().collect();
            let mut b: Vec<Term> = scratch.iter().collect();
            a.sort_unstable();
            b.sort_unstable();
            identical &= a == b;
        }
        rows.push(IncrementalRow {
            family,
            width,
            core,
            edits,
            nodes,
            terms,
            incremental_micros,
            scratch_micros,
            identical,
            deleted,
            rederived,
            survivors,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_smoke_stays_identical_to_scratch() {
        for r in incremental_maintenance(true) {
            assert!(
                r.identical,
                "edit_trace({}): maintained closure diverged from scratch",
                r.width
            );
            assert!(r.terms > 0, "edit_trace({}): empty closure", r.width);
            assert!(
                r.deleted + r.rederived > 0,
                "edit_trace({}): the script never exercised retraction or re-derivation",
                r.width
            );
            assert!(
                r.survivors > 0,
                "edit_trace({}): edits never carried terms over",
                r.width
            );
        }
    }

    #[test]
    fn population_smoke_saturates_each_list_once_and_steals() {
        let rows = population_throughput(true);
        for r in &rows {
            assert!(
                (1..=r.fingerprints).contains(&r.lists),
                "{} users / {} fingerprints: {} lists",
                r.users,
                r.fingerprints,
                r.lists
            );
            assert!(
                r.violated > 0 && r.violated < r.verdicts,
                "Zipf population must mix verdicts ({} / {} violated)",
                r.violated,
                r.verdicts
            );
        }
        // Uniform Zipf groups can drain without ever opening a steal
        // window, so the non-zero-steal guarantee comes from the skewed
        // batch: the giant cluster pins worker 0 while the other seven
        // drain their tiny chunks, and the pool must steal the pinned
        // worker's queued giants.
        let skew = skew_schedule_comparison(true);
        assert!(skew.steals > 0, "work-stealing idle on the skewed batch");
        assert!(
            skew.stealing_critical_micros <= skew.static_critical_micros,
            "stealing must not lengthen the critical path (static {} us, stealing {} us)",
            skew.static_critical_micros,
            skew.stealing_critical_micros
        );
        let total: u64 = rows.iter().map(|r| r.steals).sum::<u64>() + skew.steals;
        assert!(total > 0, "population smoke never engaged the stealer");
    }

    #[test]
    fn demand_smoke_verdicts_identical_and_sliced() {
        for r in demand_vs_full(true) {
            assert!(r.identical, "{} {} verdicts diverged", r.family, r.param);
            assert!(
                r.demand_terms > 0,
                "{} {} empty demand run",
                r.family,
                r.param
            );
            assert!(
                r.demand_terms <= r.full_terms,
                "{} {}: demand derived more than full",
                r.family,
                r.param
            );
        }
        let b = demand_batch(true);
        assert!(b.identical, "batch verdicts diverged");
        assert!(b.demand_terms <= b.full_terms);
    }

    #[test]
    fn certify_smoke_validates_every_closure_within_budget() {
        for r in certify_overhead(true) {
            assert!(
                r.complete,
                "{} {}: certificate incomplete",
                r.family, r.param
            );
            assert!(r.terms > 0, "{} {} empty closure", r.family, r.param);
            assert!(r.axioms > 0, "{} {}: no axioms?", r.family, r.param);
            // The release harness enforces the acceptance bound of 2×; the
            // unoptimised test profile skews against the checker's
            // index-heavy inner loop, so allow 3× here, with a floor so
            // millisecond-scale timer noise cannot flake the assertion.
            assert!(
                r.certify_micros <= 3 * r.analyze_micros || r.certify_micros < 5_000,
                "{} {}: certify {}us > 3x analyze {}us",
                r.family,
                r.param,
                r.certify_micros,
                r.analyze_micros
            );
        }
    }

    #[test]
    fn e1_reproduces_every_judgment() {
        let f = e1_figure1();
        for (j, ok) in &f.judgments {
            assert!(ok, "judgment not derived: {j}");
        }
        assert!(f.derivation.lines().count() >= 8);
        assert_eq!(f.unfolded.len(), 2);
    }

    #[test]
    fn e2_matches_paper_expectations() {
        for row in e2_running_examples() {
            assert_eq!(
                row.got_flaw, row.expected_flaw,
                "{}: {}",
                row.scenario, row.requirement
            );
        }
    }

    #[test]
    fn e3_small_corpus_is_sound() {
        let report = e3_e4_differential(10);
        assert!(report.is_sound(), "soundness violations: {report}");
        assert!(report.total() > 0);
    }

    #[test]
    fn e5_rows_monotone_nodes() {
        let rows = e5_scaling_sized(&[1, 2, 4], &[1, 2, 4], &[1, 2, 3], &[1, 2, 4]);
        assert!(!rows.is_empty());
        // Within each family, nodes grow with the parameter.
        for f in ["call_chain", "wide_grants", "deep_expr", "attr_fanout"] {
            let fam: Vec<&E5Row> = rows.iter().filter(|r| r.family == f).collect();
            for w in fam.windows(2) {
                assert!(w[0].nodes <= w[1].nodes, "{f} nodes not monotone");
            }
        }
    }

    #[test]
    fn e6_counts_rows() {
        let rows = e6_engine(&[10, 100]);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].rows <= 10);
        assert!(rows[1].rows <= 100);
    }

    #[test]
    fn e8_containment_chain_holds() {
        let r = e8_containment(15);
        assert_eq!(
            r.ideal_not_finite, 0,
            "the idealized engine must not out-deduce the finite one"
        );
        assert_eq!(r.ideal_not_static, 0, "Theorem 1 over the E8 corpus");
        assert!(r.static_flags >= r.ideal_flags);
    }

    #[test]
    fn fastpath_smoke_closures_identical() {
        for r in closure_fastpath(true) {
            assert_eq!(r.identical, Some(true), "{} {} diverged", r.family, r.param);
            assert!(r.terms > 0, "{} {} empty closure", r.family, r.param);
            let total: u64 = r.rules.iter().map(|x| x.attempts).sum();
            assert_eq!(total, r.derives, "per-rule rows partition attempts");
            let inserted: u64 = r.rules.iter().map(|x| x.new_terms).sum();
            assert_eq!(
                inserted as usize, r.terms,
                "per-rule rows partition insertions"
            );
            for rule in &r.rules {
                assert!(rule.new_terms <= rule.attempts, "{}", rule.label);
            }
        }
    }

    #[test]
    fn batch_throughput_smoke_covers_serial_and_parallel() {
        let rows = batch_throughput(true);
        assert!(rows.len() >= 2, "need jobs=1 and a parallel point");
        assert_eq!(rows[0].jobs, 1);
        for r in &rows {
            assert_eq!(r.requirements, r.users);
        }
    }

    #[test]
    fn e7_full_rules_detect_everything() {
        let rows = e7_ablation();
        let full = &rows[0];
        assert_eq!(full.detected, full.total);
        assert_eq!(full.false_alarms, 0);
        // Each non-guard ablation loses at least one detection.
        for row in &rows[1..] {
            if row.disabled != "feedback_guard" {
                assert!(
                    row.detected < row.total,
                    "disabling {} lost nothing — not load-bearing?",
                    row.disabled
                );
            }
        }
    }
}

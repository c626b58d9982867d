//! Parametric schema families for the closure-scaling experiment (E5).
//!
//! Each generator returns a type-checked schema with user `u` plus the
//! requirement the harness times `A(R)` against. The families stress
//! different cost drivers of the analysis:
//!
//! * [`call_chain`] — unfolding depth: `f_n` calls `f_{n-1}` calls …;
//! * [`wide_grants`] — capability-list width: `n` independent probes over
//!   `n` attributes (many outer functions, many equalities);
//! * [`deep_expr`] — expression size: one function whose body is a
//!   comparison over a big arithmetic tree;
//! * [`attr_fanout`] — write-read pairs: `n` attributes each written and
//!   read, quadratic equality propagation;
//! * [`dense_equalities`] — `=[e1,e2]` cross-joins: every probe shares the
//!   same `int` parameter and the same `r_a0` read, so the equality rules
//!   build cliques over the argument and read occurrences — the worst case
//!   for unoptimised re-firing and the refiring-heavy family of the
//!   `fastpath` experiment.
//!
//! [`multi_user`] builds a *batch* case — one schema, many users, one
//! requirement each — for the `analyze_batch` driver and the `--jobs`
//! throughput experiment. [`multi_user_deep`] is its deep-expression
//! sibling for the demand-vs-full comparison: per-user closures are big
//! enough that goal-directed slicing pays.
//!
//! Two population-scale batch families feed the `population` experiment:
//! [`zipf_population`] draws up to a million users over a few thousand
//! Zipf-popular grant profiles (identically granted users collapse onto
//! one saturated capability list each), and [`skewed_groups`] plants one
//! giant group in a sea of tiny ones — the skew the work-stealing batch
//! scheduler exists to absorb.

use oodb_lang::ast::{AccessFnDef, BasicOp, Expr};
use oodb_lang::requirement::{Cap, Requirement};
use oodb_lang::Schema;
use oodb_model::{CapabilityList, ClassDef, FnRef, Type, VarName};

/// A scaling case: schema + the requirement to time.
#[derive(Clone, Debug)]
pub struct ScaleCase {
    /// Type-checked schema with user `u`.
    pub schema: Schema,
    /// Requirement for the timing run.
    pub requirement: Requirement,
}

fn single_int_class(attrs: usize) -> ClassDef {
    ClassDef::new(
        "C",
        (0..attrs.max(1))
            .map(|i| (format!("a{i}").into(), Type::INT))
            .collect(),
    )
    .expect("distinct names")
}

fn finish(mut schema: Schema, caps: CapabilityList, requirement: Requirement) -> ScaleCase {
    schema.users.insert("u".into(), caps);
    oodb_lang::check_schema(&schema).expect("scale schema checks");
    ScaleCase {
        schema,
        requirement,
    }
}

/// `f0(x) = x + r_a0(c)…`, `f_i = f_{i-1}(c, x) + 1`: unfolding depth `n`.
pub fn call_chain(n: usize) -> ScaleCase {
    let mut schema = Schema::new();
    schema
        .classes
        .insert(single_int_class(1))
        .expect("one class");
    let params = vec![
        (VarName::new("c"), Type::class("C")),
        (VarName::new("x"), Type::INT),
    ];
    schema.functions.insert(
        "f0".into(),
        AccessFnDef {
            name: "f0".into(),
            params: params.clone(),
            ret: Type::INT,
            body: Expr::bin(
                BasicOp::Add,
                Expr::var("x"),
                Expr::read("a0", Expr::var("c")),
            ),
        },
    );
    for i in 1..n.max(1) {
        schema.functions.insert(
            format!("f{i}").into(),
            AccessFnDef {
                name: format!("f{i}").into(),
                params: params.clone(),
                ret: Type::INT,
                body: Expr::bin(
                    BasicOp::Add,
                    Expr::call(format!("f{}", i - 1), vec![Expr::var("c"), Expr::var("x")]),
                    Expr::int(1),
                ),
            },
        );
    }
    let caps: CapabilityList = [
        FnRef::access(format!("f{}", n.max(1) - 1)),
        FnRef::write("a0"),
    ]
    .into_iter()
    .collect();
    let req = Requirement::on_return("u", FnRef::read("a0"), 1, vec![Cap::Ti]);
    finish(schema, caps, req)
}

/// `n` probes `p_i(c) = r_a_i(c) >= i` over `n` attributes; the user holds
/// all of them plus `w_a0`.
pub fn wide_grants(n: usize) -> ScaleCase {
    let n = n.max(1);
    let mut schema = Schema::new();
    schema
        .classes
        .insert(single_int_class(n))
        .expect("one class");
    let mut caps = CapabilityList::new();
    for i in 0..n {
        schema.functions.insert(
            format!("p{i}").into(),
            AccessFnDef {
                name: format!("p{i}").into(),
                params: vec![(VarName::new("c"), Type::class("C"))],
                ret: Type::BOOL,
                body: Expr::bin(
                    BasicOp::Ge,
                    Expr::read(format!("a{i}"), Expr::var("c")),
                    Expr::int(i as i64),
                ),
            },
        );
        caps.grant(FnRef::access(format!("p{i}")));
    }
    caps.grant(FnRef::write("a0"));
    let req = Requirement::on_return("u", FnRef::read("a0"), 1, vec![Cap::Ti]);
    finish(schema, caps, req)
}

/// One probe whose body compares a full binary `+`-tree of `2^depth`
/// attribute reads against a constant.
pub fn deep_expr(depth: usize) -> ScaleCase {
    let mut schema = Schema::new();
    schema
        .classes
        .insert(single_int_class(1))
        .expect("one class");
    fn tree(d: usize) -> Expr {
        if d == 0 {
            Expr::read("a0", Expr::var("c"))
        } else {
            Expr::bin(BasicOp::Add, tree(d - 1), tree(d - 1))
        }
    }
    schema.functions.insert(
        "p".into(),
        AccessFnDef {
            name: "p".into(),
            params: vec![(VarName::new("c"), Type::class("C"))],
            ret: Type::BOOL,
            body: Expr::bin(BasicOp::Ge, tree(depth), Expr::int(100)),
        },
    );
    let caps: CapabilityList = [FnRef::access("p"), FnRef::write("a0")]
        .into_iter()
        .collect();
    let req = Requirement::on_return("u", FnRef::read("a0"), 1, vec![Cap::Ti]);
    finish(schema, caps, req)
}

/// A batched scaling case: one schema, many users, one requirement each.
///
/// Feeding the requirement list to `secflow::analyze_batch` exercises the
/// per-user grouping (each user is its own unfold + closure) and, with
/// `jobs > 1`, the thread pool.
#[derive(Clone, Debug)]
pub struct BatchCase {
    /// Type-checked schema with users `u0 … u{n-1}`.
    pub schema: Schema,
    /// One requirement per user, in user order.
    pub requirements: Vec<Requirement>,
}

/// `users` disjoint copies of the [`wide_grants`] workload over one shared
/// class: user `u{j}` holds `width` probes over its own attribute slice plus
/// a write on the slice head, and the requirement list probes every head.
pub fn multi_user(users: usize, width: usize) -> BatchCase {
    let users = users.max(1);
    let width = width.max(1);
    let mut schema = Schema::new();
    schema
        .classes
        .insert(single_int_class(users * width))
        .expect("one class");
    let mut requirements = Vec::new();
    for j in 0..users {
        let mut caps = CapabilityList::new();
        for i in 0..width {
            let a = j * width + i;
            schema.functions.insert(
                format!("p{a}").into(),
                AccessFnDef {
                    name: format!("p{a}").into(),
                    params: vec![(VarName::new("c"), Type::class("C"))],
                    ret: Type::BOOL,
                    body: Expr::bin(
                        BasicOp::Ge,
                        Expr::read(format!("a{a}"), Expr::var("c")),
                        Expr::int(a as i64),
                    ),
                },
            );
            caps.grant(FnRef::access(format!("p{a}")));
        }
        caps.grant(FnRef::write(format!("a{}", j * width)));
        schema.users.insert(format!("u{j}").into(), caps);
        requirements.push(Requirement::on_return(
            format!("u{j}"),
            FnRef::read(format!("a{}", j * width)),
            1,
            vec![Cap::Ti],
        ));
    }
    oodb_lang::check_schema(&schema).expect("batch schema checks");
    BatchCase {
        schema,
        requirements,
    }
}

/// `users` disjoint copies of the [`deep_expr`] workload: user `u{j}`
/// holds a probe whose body is a full binary `+`-tree of `2^depth` reads
/// of its own attribute `a{j}`, plus the write on it, and the requirement
/// list probes every attribute. Each group's closure is deep-expression
/// sized, so goal-directed slicing has something to discard — the batch
/// counterpart of [`deep_expr`], where [`multi_user`]'s wide flat probes
/// leave no slack.
pub fn multi_user_deep(users: usize, depth: usize) -> BatchCase {
    let users = users.max(1);
    let mut schema = Schema::new();
    schema
        .classes
        .insert(single_int_class(users))
        .expect("one class");
    fn tree(attr: usize, d: usize) -> Expr {
        if d == 0 {
            Expr::read(format!("a{attr}"), Expr::var("c"))
        } else {
            Expr::bin(BasicOp::Add, tree(attr, d - 1), tree(attr, d - 1))
        }
    }
    let mut requirements = Vec::new();
    for j in 0..users {
        schema.functions.insert(
            format!("p{j}").into(),
            AccessFnDef {
                name: format!("p{j}").into(),
                params: vec![(VarName::new("c"), Type::class("C"))],
                ret: Type::BOOL,
                body: Expr::bin(BasicOp::Ge, tree(j, depth), Expr::int(100)),
            },
        );
        let caps: CapabilityList = [
            FnRef::access(format!("p{j}")),
            FnRef::write(format!("a{j}")),
        ]
        .into_iter()
        .collect();
        schema.users.insert(format!("u{j}").into(), caps);
        requirements.push(Requirement::on_return(
            format!("u{j}"),
            FnRef::read(format!("a{j}")),
            1,
            vec![Cap::Ti],
        ));
    }
    oodb_lang::check_schema(&schema).expect("batch schema checks");
    BatchCase {
        schema,
        requirements,
    }
}

/// A population-scale batch case: `users` users drawn over `fingerprints`
/// distinct grant profiles with Zipf-distributed popularity.
///
/// Profile `k` grants one probe `p{k}(c) = r_a{k}(c) >= k`, plus the write
/// `w_a{k}` when `k` is even — so even-profile users violate their
/// requirement and odd-profile users do not, and verdict mixes are visible
/// at a glance. Every user of a profile holds a *clone* of the same
/// capability list, which is the point: the batch driver saturates each
/// distinct list once, whatever the user names, so a million users
/// collapse onto at most `fingerprints` closure computations. Popularity
/// follows a Zipf law with exponent ~1.07 (rank-1 profile most popular),
/// matching the skew real grant tables show.
///
/// The requirement for user `u{j}` of profile `k` probes `r_a{k}` for `ti`
/// on return — identical goals across a profile, so repeat groups are pure
/// cache hits.
pub fn zipf_population(users: usize, fingerprints: usize, seed: u64) -> BatchCase {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let users = users.max(1);
    let fingerprints = fingerprints.max(1);
    let mut schema = Schema::new();
    schema
        .classes
        .insert(single_int_class(fingerprints))
        .expect("one class");
    let mut profiles: Vec<CapabilityList> = Vec::with_capacity(fingerprints);
    for k in 0..fingerprints {
        schema.functions.insert(
            format!("p{k}").into(),
            AccessFnDef {
                name: format!("p{k}").into(),
                params: vec![(VarName::new("c"), Type::class("C"))],
                ret: Type::BOOL,
                body: Expr::bin(
                    BasicOp::Ge,
                    Expr::read(format!("a{k}"), Expr::var("c")),
                    Expr::int(k as i64),
                ),
            },
        );
        let mut caps = CapabilityList::new();
        caps.grant(FnRef::access(format!("p{k}")));
        if k % 2 == 0 {
            caps.grant(FnRef::write(format!("a{k}")));
        }
        profiles.push(caps);
    }
    // Zipf over profile ranks: weight(k) = 1 / (k+1)^s, sampled by
    // inverting the cumulative weight table with one 53-bit uniform draw.
    const ZIPF_S: f64 = 1.07;
    let mut cumulative = Vec::with_capacity(fingerprints);
    let mut total = 0.0_f64;
    for k in 0..fingerprints {
        total += 1.0 / ((k + 1) as f64).powf(ZIPF_S);
        cumulative.push(total);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut requirements = Vec::with_capacity(users);
    for j in 0..users {
        let u = rng.gen_range(0u64..(1 << 53)) as f64 / (1u64 << 53) as f64;
        let r = u * total;
        let k = cumulative.partition_point(|&c| c < r).min(fingerprints - 1);
        schema
            .users
            .insert(format!("u{j}").into(), profiles[k].clone());
        requirements.push(Requirement::on_return(
            format!("u{j}"),
            FnRef::read(format!("a{k}")),
            1,
            vec![Cap::Ti],
        ));
    }
    oodb_lang::check_schema(&schema).expect("population schema checks");
    BatchCase {
        schema,
        requirements,
    }
}

/// A pathologically skewed batch: user `u0` holds `giant_width` probes
/// (its group's closure carries the quadratic argument-equality clique of
/// [`wide_grants`] at that width) while every other user holds only
/// `tiny_width` — one giant group next to `users - 1` tiny ones.
///
/// Built for the batch pool: under static contiguous chunks the worker
/// that draws the giant group also owns a full chunk of tiny ones and
/// finishes last while its neighbours idle; work stealing drains the tiny
/// groups around the giant instead. Aim `giant_width²` at roughly
/// `(users · tiny_width²) / jobs` so the giant group sets the makespan
/// floor and the tiny tail is worth redistributing.
pub fn skewed_groups(users: usize, giant_width: usize, tiny_width: usize) -> BatchCase {
    let users = users.max(1);
    let giant_width = giant_width.max(1);
    let tiny_width = tiny_width.max(1);
    let attrs = giant_width + (users - 1) * tiny_width;
    let mut schema = Schema::new();
    schema
        .classes
        .insert(single_int_class(attrs))
        .expect("one class");
    let mut requirements = Vec::with_capacity(users);
    let mut base = 0;
    for j in 0..users {
        let width = if j == 0 { giant_width } else { tiny_width };
        let mut caps = CapabilityList::new();
        for i in 0..width {
            let a = base + i;
            schema.functions.insert(
                format!("p{a}").into(),
                AccessFnDef {
                    name: format!("p{a}").into(),
                    params: vec![(VarName::new("c"), Type::class("C"))],
                    ret: Type::BOOL,
                    body: Expr::bin(
                        BasicOp::Ge,
                        Expr::read(format!("a{a}"), Expr::var("c")),
                        Expr::int(a as i64),
                    ),
                },
            );
            caps.grant(FnRef::access(format!("p{a}")));
        }
        caps.grant(FnRef::write(format!("a{base}")));
        schema.users.insert(format!("u{j}").into(), caps);
        requirements.push(Requirement::on_return(
            format!("u{j}"),
            FnRef::read(format!("a{base}")),
            1,
            vec![Cap::Ti],
        ));
        base += width;
    }
    oodb_lang::check_schema(&schema).expect("skewed schema checks");
    BatchCase {
        schema,
        requirements,
    }
}

/// The static-chunking adversary: the first `giants` users each hold
/// `giant_width` probes while every later user holds only `tiny_width` —
/// all the heavy groups sit *contiguously at the front* of group order.
///
/// [`skewed_groups`] spreads the pain thin (one giant); this variant
/// concentrates it. A static contiguous partition at `jobs` workers hands
/// worker 0 the whole giant cluster (pick `giants ≤ users / jobs` so the
/// cluster fits one chunk) and its critical path is the *sum* of every
/// giant's closure cost, while the other workers' chunks drain almost
/// immediately. The work-stealing pool redistributes the queued giants the
/// moment the tiny chunks dry up, so its critical path drops toward
/// `giants / jobs` giant-costs — the gap between the two is what the
/// `population` bench experiment's skew row gates.
pub fn clustered_giants(
    users: usize,
    giants: usize,
    giant_width: usize,
    tiny_width: usize,
) -> BatchCase {
    let users = users.max(1);
    let giants = giants.clamp(1, users);
    let giant_width = giant_width.max(1);
    let tiny_width = tiny_width.max(1);
    let attrs = giants * giant_width + (users - giants) * tiny_width;
    let mut schema = Schema::new();
    schema
        .classes
        .insert(single_int_class(attrs))
        .expect("one class");
    let mut requirements = Vec::with_capacity(users);
    let mut base = 0;
    for j in 0..users {
        let width = if j < giants { giant_width } else { tiny_width };
        let mut caps = CapabilityList::new();
        for i in 0..width {
            let a = base + i;
            schema.functions.insert(
                format!("p{a}").into(),
                AccessFnDef {
                    name: format!("p{a}").into(),
                    params: vec![(VarName::new("c"), Type::class("C"))],
                    ret: Type::BOOL,
                    body: Expr::bin(
                        BasicOp::Ge,
                        Expr::read(format!("a{a}"), Expr::var("c")),
                        Expr::int(a as i64),
                    ),
                },
            );
            caps.grant(FnRef::access(format!("p{a}")));
        }
        caps.grant(FnRef::write(format!("a{base}")));
        schema.users.insert(format!("u{j}").into(), caps);
        requirements.push(Requirement::on_return(
            format!("u{j}"),
            FnRef::read(format!("a{base}")),
            1,
            vec![Cap::Ti],
        ));
        base += width;
    }
    oodb_lang::check_schema(&schema).expect("clustered schema checks");
    BatchCase {
        schema,
        requirements,
    }
}

/// `n` probes `q_i(x, c) = (x + r_a0(c)) >= i` over one shared attribute;
/// the user holds all of them plus `w_a0`.
///
/// Every probe reads the *same* attribute and takes the *same*-typed `int`
/// argument, so rule *S7* links all `x` occurrences and all `r_a0(c)` reads
/// into `=`-cliques, and transfer-by-equality then copies every capability
/// across each clique: `O(n²)` equality edges with `O(n²)` transfer work on
/// top. This is the densest `=[e1, e2]` cross-join the language produces —
/// the workload where unoptimised saturation re-derives hardest, and the
/// refiring-heavy family of the `fastpath` (engine-vs-oracle) experiment.
pub fn dense_equalities(n: usize) -> ScaleCase {
    let n = n.max(1);
    let mut schema = Schema::new();
    schema
        .classes
        .insert(single_int_class(1))
        .expect("one class");
    let mut caps = CapabilityList::new();
    for i in 0..n {
        schema.functions.insert(
            format!("q{i}").into(),
            AccessFnDef {
                name: format!("q{i}").into(),
                params: vec![
                    (VarName::new("x"), Type::INT),
                    (VarName::new("c"), Type::class("C")),
                ],
                ret: Type::BOOL,
                body: Expr::bin(
                    BasicOp::Ge,
                    Expr::bin(
                        BasicOp::Add,
                        Expr::var("x"),
                        Expr::read("a0", Expr::var("c")),
                    ),
                    Expr::int(i as i64),
                ),
            },
        );
        caps.grant(FnRef::access(format!("q{i}")));
    }
    caps.grant(FnRef::write("a0"));
    let req = Requirement::on_return("u", FnRef::read("a0"), 1, vec![Cap::Ti]);
    finish(schema, caps, req)
}

/// `n` attributes, each with a granted reader and writer pair: the
/// equality graph gets `O(n²)` argument-variable edges.
pub fn attr_fanout(n: usize) -> ScaleCase {
    let n = n.max(1);
    let mut schema = Schema::new();
    schema
        .classes
        .insert(single_int_class(n))
        .expect("one class");
    let mut caps = CapabilityList::new();
    for i in 0..n {
        caps.grant(FnRef::read(format!("a{i}")));
        caps.grant(FnRef::write(format!("a{i}")));
    }
    let req = Requirement::on_return("u", FnRef::read("a0"), 1, vec![Cap::Ti]);
    finish(schema, caps, req)
}

/// One capability-list edit against user `u`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditOp {
    /// Grant the function.
    Grant(FnRef),
    /// Revoke the function.
    Revoke(FnRef),
}

/// An edit-trace case for the incremental-maintenance experiment: a
/// [`wide_grants`]-shaped schema whose user `u` starts with `width` granted
/// probes out of a larger pool, plus a deterministic script of small
/// grant/revoke edits to replay against the closure.
#[derive(Clone, Debug)]
pub struct EditTraceCase {
    /// Type-checked schema with user `u` holding the base grant set.
    pub schema: Schema,
    /// The requirement to re-check after every edit (`r_a0 : ti`).
    pub requirement: Requirement,
    /// The edit script, in order. Every referenced function exists in the
    /// schema; whether an op is a grant or a revoke tracks the evolving
    /// list, so each edit actually changes it.
    pub edits: Vec<EditOp>,
}

/// `width` granted probes (plus `w_a0`) from a pool half again as large;
/// `edits` single-function toggles drawn uniformly over the pool, with an
/// occasional `w_a0` toggle (1 in 8) so verdicts flip mid-trace. Each edit
/// adds or removes one small probe against a closure that scales with
/// `width` — the regime where incremental maintenance should beat a
/// from-scratch recompute by a wide margin.
pub fn edit_trace(width: usize, edits: usize, seed: u64) -> EditTraceCase {
    edit_trace_with_core(width, 0, edits, seed)
}

/// [`edit_trace`] with a [`dense_equalities`]-style always-granted core:
/// `core` functions `q{j}` sharing the parameter name `x` and an `r_a0(c)`
/// read, so rule *S7* links every `x` occurrence and every `a0` read into
/// `=`-cliques with `O(core²)` equality edges and the transfer storm on
/// top. The edit script still only toggles the small probes — small edits
/// against a closure whose from-scratch saturation is dominated by rule
/// re-attempts the maintenance path never pays again. This is the headline
/// family of the `incremental` experiment.
pub fn edit_trace_dense(width: usize, core: usize, edits: usize, seed: u64) -> EditTraceCase {
    edit_trace_with_core(width, core, edits, seed)
}

fn edit_trace_with_core(width: usize, core: usize, edits: usize, seed: u64) -> EditTraceCase {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let width = width.max(2);
    let pool = width + width / 2 + 1;
    let mut schema = Schema::new();
    schema
        .classes
        .insert(single_int_class(pool))
        .expect("one class");
    let mut caps = CapabilityList::new();
    for i in 0..pool {
        schema.functions.insert(
            format!("p{i}").into(),
            AccessFnDef {
                name: format!("p{i}").into(),
                params: vec![(VarName::new("c"), Type::class("C"))],
                ret: Type::BOOL,
                body: Expr::bin(
                    BasicOp::Ge,
                    Expr::read(format!("a{i}"), Expr::var("c")),
                    Expr::int(i as i64),
                ),
            },
        );
        if i < width {
            caps.grant(FnRef::access(format!("p{i}")));
        }
    }
    if core > 0 {
        // The core lives on its own class `D`: outer-argument equality
        // axioms pair ArgVars by *type*, so `d: D` params clique with each
        // other but never with the probes' `c: C` params. A probe toggle
        // therefore touches only the probe's own block (plus the small
        // probe-side `c` clique), while a from-scratch recompute still
        // re-pays the core's O(core²) equality/transfer storm every time.
        schema
            .classes
            .insert(ClassDef::new("D", vec![("b0".into(), Type::INT)]).expect("one attr"))
            .expect("distinct class");
    }
    for j in 0..core {
        schema.functions.insert(
            format!("q{j}").into(),
            AccessFnDef {
                name: format!("q{j}").into(),
                params: vec![
                    (VarName::new("x"), Type::INT),
                    (VarName::new("d"), Type::class("D")),
                ],
                ret: Type::BOOL,
                body: Expr::bin(
                    BasicOp::Ge,
                    Expr::bin(
                        BasicOp::Add,
                        Expr::var("x"),
                        Expr::read("b0", Expr::var("d")),
                    ),
                    Expr::int(j as i64),
                ),
            },
        );
        caps.grant(FnRef::access(format!("q{j}")));
    }
    // `w_a0` is the sparse family's verdict flipper. The dense family
    // leaves it out entirely: the write function's int-typed value param
    // would clique (by type) with the core's `x` params and bridge every
    // probe into the core's equality storm — exactly the coupling the `D`
    // class exists to prevent.
    if core == 0 {
        caps.grant(FnRef::write("a0"));
    }
    let mut granted: Vec<bool> = (0..pool).map(|i| i < width).collect();
    let mut write_granted = true;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut script = Vec::with_capacity(edits);
    for _ in 0..edits {
        // With a dense core every `a0` read feeds the equality cliques, so
        // a `w_a0` toggle rewrites nearly the whole closure — not the
        // small-edit regime this family measures. Dense traces toggle
        // probes only; the sparse family keeps the occasional write flip.
        if core == 0 && rng.gen_range(0u32..8) == 0 {
            let f = FnRef::write("a0");
            script.push(if write_granted {
                EditOp::Revoke(f)
            } else {
                EditOp::Grant(f)
            });
            write_granted = !write_granted;
        } else {
            let i = rng.gen_range(0..pool as u64) as usize;
            let f = FnRef::access(format!("p{i}"));
            script.push(if granted[i] {
                EditOp::Revoke(f)
            } else {
                EditOp::Grant(f)
            });
            granted[i] = !granted[i];
        }
    }
    let requirement = Requirement::on_return("u", FnRef::read("a0"), 1, vec![Cap::Ti]);
    schema.users.insert("u".into(), caps);
    oodb_lang::check_schema(&schema).expect("edit-trace schema checks");
    EditTraceCase {
        schema,
        requirement,
        edits: script,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow::algorithm::analyze;

    #[test]
    fn chain_sizes_grow() {
        for n in [1, 4, 8] {
            let case = call_chain(n);
            assert_eq!(case.schema.functions.len(), n);
            let v = analyze(&case.schema, &case.requirement).unwrap();
            // The chain exposes a0 through the returned value; with w_a0 the
            // user probes it — always flagged.
            assert!(v.is_violated(), "chain {n}");
        }
    }

    #[test]
    fn wide_grants_flagged_only_via_written_attr() {
        let case = wide_grants(6);
        let v = analyze(&case.schema, &case.requirement).unwrap();
        assert!(v.is_violated());
        // A non-written attribute is only partially leaked.
        let req = Requirement::on_return("u", FnRef::read("a1"), 1, vec![Cap::Ti]);
        let v = analyze(&case.schema, &req).unwrap();
        assert!(!v.is_violated());
    }

    #[test]
    fn multi_user_deep_flags_every_user() {
        let case = multi_user_deep(3, 2);
        assert_eq!(case.requirements.len(), 3);
        for req in &case.requirements {
            let v = analyze(&case.schema, req).unwrap();
            // Each user writes its probed attribute — always flagged.
            assert!(v.is_violated(), "{req}");
        }
    }

    #[test]
    fn edit_trace_script_toggles_consistently() {
        let case = edit_trace(4, 24, 7);
        // Replay: every op must actually change the evolving list, and only
        // reference functions the schema defines.
        let mut caps = case.schema.user_str("u").unwrap().clone();
        for op in &case.edits {
            match op {
                EditOp::Grant(f) => assert!(caps.grant(f.clone()), "no-op grant {f}"),
                EditOp::Revoke(f) => assert!(caps.revoke(f), "no-op revoke {f}"),
            }
        }
        assert_eq!(case.edits.len(), 24);
    }

    #[test]
    fn deep_expr_scales_and_detects() {
        let case = deep_expr(4);
        let v = analyze(&case.schema, &case.requirement).unwrap();
        assert!(v.is_violated());
    }

    #[test]
    fn multi_user_groups_stay_disjoint() {
        use secflow::algorithm::{analyze_batch, AnalysisConfig, BatchOptions};
        let case = multi_user(3, 2);
        assert_eq!(case.requirements.len(), 3);
        let out = analyze_batch(
            &case.schema,
            &case.requirements,
            &AnalysisConfig::default(),
            &BatchOptions::default(),
        );
        // Every head attribute is granted read + write to its own user:
        // each per-user requirement is violated independently.
        for (i, v) in out.verdicts.iter().enumerate() {
            assert!(v.as_ref().unwrap().is_violated(), "user {i}");
        }
        assert_eq!(out.groups.len(), 3);
    }

    #[test]
    fn dense_equalities_detects_and_builds_cliques() {
        let case = dense_equalities(5);
        assert_eq!(case.schema.functions.len(), 5);
        let v = analyze(&case.schema, &case.requirement).unwrap();
        // a0 is written and every probe reads it — always flagged.
        assert!(v.is_violated());
        // The family earns its name: the closure carries an `=`-clique
        // quadratic in the probe count.
        use secflow::closure::Closure;
        use secflow::term::Term;
        use secflow::unfold::NProgram;
        let prog = NProgram::unfold(&case.schema, case.schema.user_str("u").unwrap()).unwrap();
        let c = Closure::compute(&prog).unwrap();
        let eqs = c.iter().filter(|t| matches!(t, Term::Eq(..))).count();
        assert!(eqs >= 5 * 5, "only {eqs} equalities");
    }

    #[test]
    fn scale_families_reach_thousands_of_nodes() {
        // The fastpath bench leans on these families at kernel-stressing
        // sizes; pin the unfolded program size so "thousands of numbered
        // occurrences" stays true if the generators change shape.
        use secflow::unfold::NProgram;
        let wide = wide_grants(512);
        let prog = NProgram::unfold(&wide.schema, wide.schema.user_str("u").unwrap()).unwrap();
        assert!(
            prog.len() >= 2_000,
            "wide_grants(512) shrank: {}",
            prog.len()
        );
        let dense = dense_equalities(48);
        let prog = NProgram::unfold(&dense.schema, dense.schema.user_str("u").unwrap()).unwrap();
        assert!(
            prog.len() >= 250,
            "dense_equalities(48) shrank: {}",
            prog.len()
        );
    }

    #[test]
    fn attr_fanout_detects_direct_grant() {
        let case = attr_fanout(4);
        let v = analyze(&case.schema, &case.requirement).unwrap();
        // r_a0 is granted directly: trivially violated.
        assert!(v.is_violated());
    }

    #[test]
    fn zipf_population_is_deterministic_and_skewed() {
        let a = zipf_population(500, 16, 9);
        let b = zipf_population(500, 16, 9);
        assert_eq!(a.schema.to_string(), b.schema.to_string());
        assert_eq!(a.requirements.len(), 500);
        assert_eq!(
            format!("{:?}", a.requirements),
            format!("{:?}", b.requirements),
            "same seed, same draws"
        );
        // Popularity is Zipf-skewed: the top profile holds far more users
        // than the uniform share (500 / 16 ≈ 31).
        let mut by_target: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        for r in &a.requirements {
            *by_target.entry(format!("{:?}", r.target)).or_default() += 1;
        }
        assert!(by_target.len() <= 16);
        let top = by_target.values().max().copied().unwrap();
        assert!(top > 90, "rank-1 profile only drew {top} of 500 users");
    }

    #[test]
    fn zipf_population_collapses_onto_fingerprint_cache() {
        use secflow::algorithm::{
            analyze, analyze_batch_cached, AnalysisConfig, BatchOptions, ClosureCache,
        };
        let case = zipf_population(300, 8, 42);
        let cache = ClosureCache::new(16);
        let out = analyze_batch_cached(
            &case.schema,
            &case.requirements,
            &AnalysisConfig::default(),
            &BatchOptions::default(),
            Some(&cache),
        );
        // One lookup per distinct list, each a miss on the fresh cache.
        let stats = cache.stats();
        let lists = out.summary.lists;
        assert_eq!((stats.hits, stats.misses), (0, lists as u64));
        assert!(lists <= 8, "at most one list per fingerprint, got {lists}");
        // Verdicts match per-requirement analysis, and both polarities
        // occur (even profiles write their probed attribute, odd do not).
        let mut violated = 0;
        for (req, v) in case.requirements.iter().zip(&out.verdicts) {
            let expect = analyze(&case.schema, req).unwrap();
            assert_eq!(v.as_ref().unwrap(), &expect, "{req}");
            violated += usize::from(expect.is_violated());
        }
        assert!(violated > 0 && violated < 300, "mixed verdicts: {violated}");
    }

    #[test]
    fn skewed_groups_flag_every_user() {
        use secflow::algorithm::{analyze_batch, AnalysisConfig, BatchOptions};
        let case = skewed_groups(9, 8, 2);
        assert_eq!(case.requirements.len(), 9);
        let out = analyze_batch(
            &case.schema,
            &case.requirements,
            &AnalysisConfig::default(),
            &BatchOptions {
                jobs: 4,
                ..BatchOptions::default()
            },
        );
        // Every user writes its slice head and probes it.
        for v in &out.verdicts {
            assert!(v.as_ref().unwrap().is_violated());
        }
    }

    #[test]
    fn clustered_giants_front_loads_the_heavy_groups() {
        use secflow::algorithm::{analyze_batch, AnalysisConfig, BatchOptions};
        let case = clustered_giants(12, 3, 8, 2);
        assert_eq!(case.requirements.len(), 12);
        // The first `giants` users hold the wide capability lists; probe
        // count is width + 1 (the write grant).
        for (j, req) in case.requirements.iter().enumerate() {
            let caps = case.schema.users.get(&req.user).unwrap();
            let expect = if j < 3 { 8 + 1 } else { 2 + 1 };
            assert_eq!(caps.len(), expect, "user u{j} capability count");
        }
        let out = analyze_batch(
            &case.schema,
            &case.requirements,
            &AnalysisConfig::default(),
            &BatchOptions {
                jobs: 4,
                ..BatchOptions::default()
            },
        );
        for v in &out.verdicts {
            assert!(v.as_ref().unwrap().is_violated());
        }
    }
}

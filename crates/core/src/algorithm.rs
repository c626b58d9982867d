//! Algorithm `A(R)` (§4.1, Definition 6).
//!
//! > *"Given `R = (u, f(x1:c…,…,xn:c…):c…)`, `A(R)` calculates the closure
//! > set of all inferable terms of `F(F)` where `F` is a set of all
//! > functions in the capability list of `u`. Then, if there exists some
//! > `let(f) x1=e1,…,xn=en in … end ∈ S'(F)` for which all terms
//! > corresponding to capabilities specified in `R` are included in the
//! > closure set, `A(R)` determines that `R` is not satisfied."*
//!
//! Occurrences of the target function are:
//!
//! * every `let(f) …` node produced by unfolding an inner invocation —
//!   argument position `i` maps to the binding expression `e_i`, the
//!   returned value to the `let` node itself;
//! * every `r_att` / `w_att` / `new C` node when the target is a special
//!   function — arguments are the node's children, the returned value the
//!   node itself (the paper: *"`let(f) … end` is replaced by
//!   `f(e1,…,en)`"*);
//! * the *outer-most* entry when the target is itself in the capability
//!   list: the user invokes it directly from a query, so capabilities on
//!   its arguments are achievable axiomatically (the user supplies them:
//!   `ta`/`pa` always, `ti`/`pi` exactly for basic-typed parameters) and
//!   capabilities on the returned value are read off the body root.

use crate::closure::{
    Closure, ClosureError, ClosureOptions, Goal, ProofMode, SaturationMode, DEFAULT_TERM_LIMIT,
};
use crate::demand::DemandPlan;
use crate::report::{Occurrence, OccurrenceKind, Verdict, Violation};
use crate::rules::RuleConfig;
use crate::stats::{ClosureStats, NoopObserver};
use crate::term::Term;
use crate::unfold::{ExprId, NKind, NProgram, UnfoldError, DEFAULT_NODE_LIMIT};
use oodb_lang::requirement::{Cap, Requirement};
use oodb_lang::Schema;
use oodb_model::{CapabilityList, FnRef, Type, UserName};
use secflow_obs::Phases;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Tunables for one analysis run.
#[derive(Clone, Copy, Debug)]
pub struct AnalysisConfig {
    /// Rule groups (ablation).
    pub rules: RuleConfig,
    /// Closure term budget.
    pub term_limit: usize,
    /// Unfolding node budget.
    pub node_limit: usize,
    /// Compatibility shim for the frozen `perfbench` benchmark crate,
    /// which passes this field to
    /// [`Closure::compute_demand_with_stats_saturation`]. It selects
    /// nothing — [`SaturationMode`] has one variant — and is excluded from
    /// the cache identity (`semantic_fingerprint`).
    pub saturation: SaturationMode,
}

impl AnalysisConfig {
    /// The closure options for one run towards `goal` under this
    /// configuration's rules and term budget.
    pub fn closure_options<'d>(&self, goal: Goal<'d>) -> ClosureOptions<'d> {
        ClosureOptions {
            rules: self.rules,
            term_limit: self.term_limit,
            goal,
        }
    }
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            rules: RuleConfig::default(),
            term_limit: DEFAULT_TERM_LIMIT,
            node_limit: DEFAULT_NODE_LIMIT,
            saturation: SaturationMode::default(),
        }
    }
}

/// Fingerprint of exactly the [`AnalysisConfig`] fields that can change
/// closure *contents*: the rule-group toggles and the two budgets. Spelled
/// out field by field — earlier revisions hashed `format!("{config:?}")`,
/// so any `Debug`-visible but semantically neutral field silently changed
/// cache identity and spuriously invalidated every entry.
fn semantic_fingerprint(config: &AnalysisConfig) -> (u64, u64) {
    let r = &config.rules;
    let text = format!(
        "eq_transfer={} pi_join={} pi_star={} write_read={} basic_rules={} \
         feedback_guard={} printable_oids={} term_limit={} node_limit={}",
        r.eq_transfer,
        r.pi_join,
        r.pi_star,
        r.write_read,
        r.basic_rules,
        r.feedback_guard,
        r.printable_oids,
        config.term_limit,
        config.node_limit,
    );
    fingerprint("config", &text)
}

/// Analysis failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalysisError {
    /// The requirement references an unknown user.
    UnknownUser(String),
    /// Unfolding failed.
    Unfold(UnfoldError),
    /// The closure exceeded its budget.
    Closure(ClosureError),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::UnknownUser(u) => write!(f, "unknown user `{u}`"),
            AnalysisError::Unfold(e) => write!(f, "{e}"),
            AnalysisError::Closure(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<UnfoldError> for AnalysisError {
    fn from(e: UnfoldError) -> Self {
        AnalysisError::Unfold(e)
    }
}

impl From<ClosureError> for AnalysisError {
    fn from(e: ClosureError) -> Self {
        AnalysisError::Closure(e)
    }
}

/// Run `A(R)` with default configuration: a batch of one requirement
/// through [`analyze_batch`]. The schema must already be type-checked (see
/// [`oodb_lang::check_schema`]).
///
/// ```
/// use oodb_lang::{check_schema, parse_requirement, parse_schema};
/// use secflow::algorithm::analyze;
///
/// let schema = parse_schema(r#"
///     class Broker { salary: int, budget: int }
///     fn checkBudget(b: Broker): bool { r_budget(b) >= 10 * r_salary(b) }
///     user clerk { checkBudget, w_budget }
/// "#).unwrap();
/// check_schema(&schema).unwrap();
///
/// let req = parse_requirement("(clerk, r_salary(x) : ti)").unwrap();
/// assert!(analyze(&schema, &req).unwrap().is_violated());
/// ```
pub fn analyze(schema: &Schema, req: &Requirement) -> Result<Verdict, AnalysisError> {
    analyze_batch(
        schema,
        std::slice::from_ref(req),
        &AnalysisConfig::default(),
        &BatchOptions::default(),
    )
    .verdicts
    .pop()
    .expect("a batch of one requirement yields one verdict")
}

/// Everything measured for one batch group when
/// [`BatchOptions::collect_stats`] is set: per-phase wall-clock
/// (unfold → closure → check) plus the closure's own counters.
#[derive(Clone, Debug, Default)]
pub struct AnalysisStats {
    /// Wall-clock per analysis phase, in execution order.
    pub phases: Phases,
    /// Closure counters (defaulted when unfolding failed before closure;
    /// zero under the term limit when the group was served a closure it
    /// did not compute, see [`BatchOptions::collect_stats`]).
    pub closure: ClosureStats,
    /// Unfolded program size in nodes (0 when unfolding failed).
    pub program_nodes: u64,
    /// Occurrences of the target function that were checked.
    pub occurrences_checked: u64,
}

impl AnalysisStats {
    /// Fold another group's stats into these: phases and occurrences add
    /// up, closure counters merge ([`ClosureStats::merge`]) and
    /// `program_nodes` keeps the largest program.
    pub fn merge(&mut self, other: &AnalysisStats) {
        for (name, d) in other.phases.iter() {
            self.phases.add(name, d);
        }
        self.closure.merge(&other.closure);
        self.program_nodes = self.program_nodes.max(other.program_nodes);
        self.occurrences_checked += other.occurrences_checked;
    }
}

/// The capability queries `A(R)`'s verdict check needs from a closure.
///
/// Both closure engines implement this — the fast dense engine
/// ([`Closure`]) and the retained slow-path oracle
/// ([`crate::reference::RefClosure`]) — so [`check_against`] produces
/// verdicts from either, which is what lets the differential tests compare
/// end-to-end `analyze` results rather than just term sets.
pub trait CapabilityView {
    /// Is `ta[e]` in the closure?
    fn has_ta(&self, e: ExprId) -> bool;
    /// Is `pa[e]` in the closure?
    fn has_pa(&self, e: ExprId) -> bool;
    /// A `ti` term on `e`, deterministic (first origin derived).
    fn ti_witness(&self, e: ExprId) -> Option<Term>;
    /// A `pi` term on `e`, deterministic.
    fn pi_witness(&self, e: ExprId) -> Option<Term>;
}

impl CapabilityView for Closure {
    fn has_ta(&self, e: ExprId) -> bool {
        Closure::has_ta(self, e)
    }
    fn has_pa(&self, e: ExprId) -> bool {
        Closure::has_pa(self, e)
    }
    fn ti_witness(&self, e: ExprId) -> Option<Term> {
        Closure::ti_witness(self, e)
    }
    fn pi_witness(&self, e: ExprId) -> Option<Term> {
        Closure::pi_witness(self, e)
    }
}

/// Check a requirement against an already-computed closure (used when many
/// requirements share one capability list — the common case in the bench
/// harness and the batch driver).
pub fn check_against<C: CapabilityView>(
    prog: &NProgram,
    closure: &C,
    req: &Requirement,
) -> Verdict {
    check_with_occurrences(prog, closure, req, &occurrences(prog, &req.target))
}

/// [`check_against`] when the target's occurrence list is already known —
/// the batch driver memoizes `occurrences(prog, target)` per group so that
/// many requirements on the same target enumerate the program once.
pub fn check_with_occurrences<C: CapabilityView>(
    prog: &NProgram,
    closure: &C,
    req: &Requirement,
    occs: &[Occurrence],
) -> Verdict {
    let mut violations = Vec::new();
    for occ in occs {
        if let Some(witnesses) = occurrence_violates(prog, closure, req, occ) {
            violations.push(Violation {
                occurrence: occ.clone(),
                witnesses,
            });
        }
    }
    if violations.is_empty() {
        Verdict::Satisfied
    } else {
        Verdict::Violated(violations)
    }
}

/// All occurrences of a target function in the unfolded program.
pub fn occurrences(prog: &NProgram, target: &FnRef) -> Vec<Occurrence> {
    let mut out = Vec::new();
    // Outer-most direct grants.
    for (idx, outer) in prog.outers.iter().enumerate() {
        // Outer special functions are plain nodes; the generic node scan
        // below picks them up with their ArgVar children.
        if &outer.fn_ref == target && outer.root != 0 {
            if let FnRef::Access(_) = target {
                out.push(Occurrence {
                    kind: OccurrenceKind::OuterAccess { outer: idx },
                    args: Vec::new(),
                    ret: outer.root,
                });
            }
        }
    }
    // Inner (and outer-special) occurrences: scan nodes.
    for e in prog.iter() {
        match (&e.kind, target) {
            (
                NKind::Let {
                    origin: Some(f),
                    bindings,
                    ..
                },
                FnRef::Access(name),
            ) if f == name => {
                out.push(Occurrence {
                    kind: OccurrenceKind::Inner { node: e.id },
                    args: bindings.iter().map(|(_, id)| *id).collect(),
                    ret: e.id,
                });
            }
            (NKind::Read(attr, recv), FnRef::Read(a)) if attr == a => {
                out.push(Occurrence {
                    kind: OccurrenceKind::Inner { node: e.id },
                    args: vec![*recv],
                    ret: e.id,
                });
            }
            (NKind::Write(attr, recv, val), FnRef::Write(a)) if attr == a => {
                out.push(Occurrence {
                    kind: OccurrenceKind::Inner { node: e.id },
                    args: vec![*recv, *val],
                    ret: e.id,
                });
            }
            (NKind::New(class, args), FnRef::New(c)) if class == c => {
                out.push(Occurrence {
                    kind: OccurrenceKind::Inner { node: e.id },
                    args: args.iter().map(|(_, id)| *id).collect(),
                    ret: e.id,
                });
            }
            _ => {}
        }
    }
    out
}

/// If the occurrence achieves every capability of the requirement, return
/// the witness terms (in requirement order).
fn occurrence_violates<C: CapabilityView>(
    prog: &NProgram,
    closure: &C,
    req: &Requirement,
    occ: &Occurrence,
) -> Option<Vec<Term>> {
    let mut witnesses = Vec::new();
    match occ.kind {
        OccurrenceKind::OuterAccess { outer } => {
            let o = &prog.outers[outer];
            for (i, caps) in req.arg_caps.iter().enumerate() {
                let ty = o
                    .params
                    .get(i)
                    .map(|(_, t)| t)
                    .cloned()
                    .unwrap_or(Type::Null);
                for cap in caps {
                    // The user supplies the argument directly: alterability
                    // is free; inferability is free exactly for basic types.
                    let achieved = match cap {
                        Cap::Ta | Cap::Pa => true,
                        Cap::Ti | Cap::Pi => ty.is_basic(),
                    };
                    if !achieved {
                        return None;
                    }
                    // No closure witness — mark with the body root's terms
                    // where possible; use a synthetic Ta/Ti on the root to
                    // keep the report non-empty.
                }
            }
            for cap in &req.ret_caps {
                let w = cap_witness(closure, occ.ret, *cap)?;
                witnesses.push(w);
            }
            Some(witnesses)
        }
        OccurrenceKind::Inner { .. } => {
            for (i, caps) in req.arg_caps.iter().enumerate() {
                let arg = *occ.args.get(i)?;
                for cap in caps {
                    let w = cap_witness(closure, arg, *cap)?;
                    witnesses.push(w);
                }
            }
            for cap in &req.ret_caps {
                let w = cap_witness(closure, occ.ret, *cap)?;
                witnesses.push(w);
            }
            Some(witnesses)
        }
    }
}

fn cap_witness<C: CapabilityView>(closure: &C, e: ExprId, cap: Cap) -> Option<Term> {
    match cap {
        Cap::Ta => closure.has_ta(e).then_some(Term::Ta(e)),
        Cap::Pa => closure.has_pa(e).then_some(Term::Pa(e)),
        Cap::Ti => closure.ti_witness(e),
        Cap::Pi => closure.pi_witness(e),
    }
}

/// Options for [`analyze_batch`].
#[derive(Clone, Copy, Debug)]
pub struct BatchOptions {
    /// Worker threads for the group fan-out. `0` auto-detects the machine
    /// parallelism ([`std::thread::available_parallelism`], falling back to
    /// 1 when the platform cannot say); `1` runs serially on the calling
    /// thread; larger values are clamped to the group count.
    pub jobs: usize,
    /// Keep each group's `(NProgram, Closure)` on [`BatchGroup::artifacts`]
    /// so callers can render explanations, certify and walk flaw paths
    /// without recomputing. Selects the full arm: an uncached,
    /// proof-carrying ([`ProofMode::Full`]) full saturation per group,
    /// because all three read derivations of arbitrary terms, which a
    /// partial or proof-free closure cannot back. Without it every group
    /// runs the demand arm, which saturates each distinct capability list
    /// once and is the only one that reads a [`ClosureCache`].
    pub keep_artifacts: bool,
    /// Collect [`ClosureStats`] and per-phase timings per group. In the
    /// demand arm the group that saturated its list (or missed the cache)
    /// reports the `unfold` and `closure` phases and the closure counters;
    /// a group served a closure it did not compute — its list's, or a
    /// cache hit — ran no saturation, so it reports zero closure counters
    /// (under the term limit) and no `unfold`/`closure` phase.
    pub collect_stats: bool,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        BatchOptions {
            jobs: 1,
            keep_artifacts: false,
            collect_stats: false,
        }
    }
}

/// One user's share of a batch run, the pool's unit of work: all
/// requirements naming the user. Users holding equal capability lists
/// share one unfolding and one closure.
#[derive(Debug)]
pub struct BatchGroup {
    /// The user whose capability list this group analyzed.
    pub user: UserName,
    /// Indexes into the input requirement slice, in input order.
    pub req_indexes: Vec<usize>,
    /// Phase timings and closure counters (zeroed unless
    /// [`BatchOptions::collect_stats`]; `occurrences_checked` sums over the
    /// group's requirements).
    pub stats: AnalysisStats,
    /// Wall-clock of each requirement's check phase, aligned with
    /// `req_indexes`.
    pub check_times: Vec<Duration>,
    /// The group's own unfolding and full closure, when
    /// [`BatchOptions::keep_artifacts`] and the shared phases succeeded.
    pub artifacts: Option<(NProgram, Closure)>,
}

/// The result of [`analyze_batch`]: the streamed records of
/// [`analyze_batch_streaming`], placed in input order.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-requirement verdicts, in input order. A failure in a group's
    /// shared phase (unknown user, unfold or closure budget) is reported on
    /// every requirement of that group — exactly what per-requirement
    /// [`analyze`] calls would have returned.
    pub verdicts: Vec<Result<Verdict, AnalysisError>>,
    /// Per-group bookkeeping, in first-seen order of the users.
    pub groups: Vec<BatchGroup>,
    /// The aggregate the streaming driver returned: lists, workers, steals,
    /// the folded group stats and the cache state after the batch.
    pub summary: StreamSummary,
}

/// A double-hash fingerprint of a canonical value: a pretty-printed text
/// or a structural one. Two 64-bit `DefaultHasher` runs with different
/// seeds: collisions would require both to collide simultaneously, which
/// is good enough for a cache key derived from exact inputs.
fn fingerprint<T: Hash + ?Sized>(tag: &str, value: &T) -> (u64, u64) {
    let mut h1 = DefaultHasher::new();
    tag.hash(&mut h1);
    value.hash(&mut h1);
    let mut h2 = DefaultHasher::new();
    0x9e37_79b9_7f4a_7c15_u64.hash(&mut h2);
    tag.hash(&mut h2);
    value.hash(&mut h2);
    (h1.finish(), h2.finish())
}

/// Fingerprint of exactly the part of a schema [`NProgram::unfold_with_limit`]
/// reads: the class and access-function definitions, printed in the order
/// `Schema`'s `Display` prints them. Users and requirements are left out:
/// `S'(F)` for one capability list never reads another user's grants or
/// any requirement, so a policy that only gains users or requirements keeps
/// every cached closure, and a key costs the program's text rather than
/// the whole policy's.
fn program_fingerprint(schema: &Schema) -> (u64, u64) {
    use std::fmt::Write;
    let mut text = String::new();
    for class in schema.classes.iter() {
        let _ = writeln!(text, "{class}");
    }
    for func in schema.functions.values() {
        let _ = writeln!(text, "{func}");
    }
    fingerprint("program", &text)
}

/// What the demand arm reads of a requirement: its target and the
/// capabilities it asks for. The user is left out: the capability list is
/// a key component of its own.
fn shape(r: &Requirement) -> (&FnRef, &[Vec<Cap>], &[Cap]) {
    (&r.target, &r.arg_caps, &r.ret_caps)
}

/// One requirement per distinct [`shape`], sorted by shape: the goal set a
/// demand closure is computed for, in an order that does not depend on the
/// order the group lists its requirements in.
fn distinct_shapes<'r>(reqs: &[&'r Requirement]) -> Vec<&'r Requirement> {
    let mut shapes = reqs.to_vec();
    shapes.sort_by(|a, b| shape(a).cmp(&shape(b)));
    shapes.dedup_by(|a, b| shape(a) == shape(b));
    shapes
}

/// Cache key: the whole input of a demand closure — program
/// ([`program_fingerprint`]), capability-list, configuration and
/// requirement-shape fingerprints. A hit means the keys are equal. The
/// user's *name* is deliberately excluded — two users granted identical
/// capability lists and asking the same questions unfold to the same
/// `S'(F)` and saturate to the same closure, so they share an entry — and
/// so are the other users and requirements.
#[derive(Clone, Debug, PartialEq, Eq)]
struct CacheKey {
    program_fp: (u64, u64),
    caps_fp: (u64, u64),
    config_fp: (u64, u64),
    shapes_fp: (u64, u64),
}

/// One cached demand closure: the unfolding, the slice-restricted closure
/// and the memoized `occurrences(prog, target)` of every target in the key.
#[derive(Clone)]
struct CacheEntry {
    prog: Arc<NProgram>,
    closure: Arc<Closure>,
    occs: OccMemo,
}

/// Lifetime counters of a [`ClosureCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served without any saturation.
    pub hits: u64,
    /// Lookups that found no entry under their key, whose caller unfolded
    /// and saturated.
    pub misses: u64,
    /// Entries dropped past the capacity, least-recently-touched first.
    pub evictions: u64,
}

/// A cross-call cache of demand-driven closures, keyed by
/// `(program, capability list, analysis config, requirement shapes)`
/// fingerprints, where the program is the schema's class and
/// access-function definitions and the shapes are the distinct
/// `(target, arg_caps, ret_caps)` triples a list's users ask.
///
/// A demand closure depends on exactly that input: `S'(F)` unfolds one
/// capability list against the definitions, and the slice and early exit
/// follow the goals of the requirement shapes. Other users and
/// requirements are not part of the key, since neither reads them, and
/// computing a key never prints the whole policy. A batch saturates each
/// distinct list once whether or not a cache is passed, and consults the
/// cache once per list, so the cache serves only repeated
/// [`analyze_batch_cached`] calls against the same program: a hit means an
/// earlier call saturated the same list for the same shapes under the same
/// configuration.
///
/// Bounded LRU behind one lock: past the capacity the least-recently-touched
/// entry goes, and a hit refreshes recency. Lookups hold the lock only
/// briefly and saturation runs outside it, so concurrent calls missing on
/// one key may both saturate (last writer wins).
pub struct ClosureCache {
    lru: Mutex<Lru>,
    capacity: usize,
}

/// A [`ClosureCache`]'s entries, each tagged with its last-touch tick, and
/// its counters.
#[derive(Default)]
struct Lru {
    entries: Vec<(CacheKey, CacheEntry, u64)>,
    tick: u64,
    stats: CacheStats,
}

impl Lru {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

impl ClosureCache {
    /// A cache holding at most `capacity` closures (minimum 1).
    pub fn new(capacity: usize) -> ClosureCache {
        ClosureCache {
            lru: Mutex::default(),
            capacity: capacity.max(1),
        }
    }

    /// Lifetime counters. A "hit" means a lookup was served without any
    /// unfolding or saturation.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Number of cached closures.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Maximum number of closures the cache retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.lru.lock().expect("no panics hold the cache lock")
    }

    /// The entry stored under `key`, touched; counts a hit or a miss.
    fn lookup(&self, key: &CacheKey) -> Option<CacheEntry> {
        let mut lru = self.lock();
        let tick = lru.touch();
        let found = lru
            .entries
            .iter_mut()
            .find(|(k, _, _)| k == key)
            .map(|(_, e, stamp)| {
                *stamp = tick;
                e.clone()
            });
        match found {
            Some(_) => lru.stats.hits += 1,
            None => lru.stats.misses += 1,
        }
        found
    }

    fn store(&self, key: CacheKey, entry: CacheEntry) {
        let mut lru = self.lock();
        let tick = lru.touch();
        if let Some(slot) = lru.entries.iter_mut().find(|(k, _, _)| *k == key) {
            slot.1 = entry;
            slot.2 = tick;
            return;
        }
        lru.entries.push((key, entry, tick));
        if lru.entries.len() > self.capacity {
            let oldest = lru
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, stamp))| *stamp)
                .map(|(i, _)| i)
                .expect("a full cache is non-empty");
            lru.entries.remove(oldest);
            lru.stats.evictions += 1;
        }
    }
}

impl Default for ClosureCache {
    fn default() -> ClosureCache {
        ClosureCache::new(64)
    }
}

impl fmt::Debug for ClosureCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("ClosureCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("evictions", &stats.evictions)
            .finish()
    }
}

/// Shared per-call cache context: the cache plus the fingerprints that are
/// constant across groups (program and config), computed once per call.
/// The capability-list and shape parts of a [`CacheKey`] vary per group.
struct CacheCtx<'a> {
    cache: &'a ClosureCache,
    program_fp: (u64, u64),
    config_fp: (u64, u64),
}

impl<'a> CacheCtx<'a> {
    /// The context for a call under `opts`: none without a cache, and none
    /// when the groups keep artifacts and so take the full arm, which never
    /// reads a key, so such a call prints no program.
    fn new(
        cache: Option<&'a ClosureCache>,
        schema: &Schema,
        config: &AnalysisConfig,
        opts: &BatchOptions,
    ) -> Option<CacheCtx<'a>> {
        let cache = cache.filter(|_| !opts.keep_artifacts)?;
        Some(CacheCtx {
            cache,
            program_fp: program_fingerprint(schema),
            config_fp: semantic_fingerprint(config),
        })
    }

    /// The key of a group asking `shapes` ([`distinct_shapes`]) under
    /// `caps`, the shapes hashed structurally.
    fn key(&self, caps: &CapabilityList, shapes: &[&Requirement]) -> CacheKey {
        let shapes: Vec<_> = shapes.iter().map(|r| shape(r)).collect();
        CacheKey {
            program_fp: self.program_fp,
            caps_fp: fingerprint("caps", &caps.to_string()),
            config_fp: self.config_fp,
            shapes_fp: fingerprint("shapes", &shapes),
        }
    }
}

/// What a group's checks read: the unfolded program, its closure and the
/// memoized occurrences of the targets asked so far.
type Shared = (Arc<NProgram>, Arc<Closure>, OccMemo);

/// The demand arm: unfold `S'(F)` for `caps`, slice it to the goals of
/// the distinct requirement shapes among `reqs` and saturate the slice,
/// through the cache when one is passed. A hit returns the entry stored
/// under the key; a miss computes the closure and stores it. `unfold` and
/// `closure` are timed on a miss; a hit records neither, because neither
/// ran.
fn demand_shared(
    schema: &Schema,
    caps: &CapabilityList,
    config: &AnalysisConfig,
    opts: &BatchOptions,
    reqs: &[&Requirement],
    cache: Option<&CacheCtx<'_>>,
    stats: &mut AnalysisStats,
) -> Result<Shared, AnalysisError> {
    let shapes = distinct_shapes(reqs);
    let keyed = cache.map(|ctx| (ctx, ctx.key(caps, &shapes)));
    if let Some((ctx, key)) = &keyed {
        if let Some(entry) = ctx.cache.lookup(key) {
            served(&entry.prog, config, opts, stats);
            return Ok((entry.prog, entry.closure, entry.occs));
        }
    }
    let prog = stats.phases.time("unfold", || {
        NProgram::unfold_with_limit(schema, caps, config.node_limit)
    })?;
    stats.program_nodes = prog.len() as u64;
    let mut memo = OccMemo::default();
    let closure = stats.phases.time("closure", || {
        let occs: Vec<Arc<Vec<Occurrence>>> =
            shapes.iter().map(|r| memo.get(&prog, &r.target)).collect();
        let plan = DemandPlan::build(
            &prog,
            shapes.iter().zip(&occs).map(|(r, o)| (*r, o.as_slice())),
        );
        let copts = config.closure_options(Goal::Demand(&plan));
        saturate(&prog, &copts, opts.collect_stats, &mut stats.closure)
    })?;
    let (prog, closure) = (Arc::new(prog), Arc::new(closure));
    if let Some((ctx, key)) = keyed {
        ctx.cache.store(
            key,
            CacheEntry {
                prog: Arc::clone(&prog),
                closure: Arc::clone(&closure),
                occs: memo.clone(),
            },
        );
    }
    Ok((prog, closure, memo))
}

/// The stats of a group served a closure it did not compute — a cache
/// hit, or its list's closure another user saturated: the program's size
/// and, when stats are collected, zero closure counters under the budget.
/// No `unfold` or `closure` phase, because neither ran.
fn served(
    prog: &NProgram,
    config: &AnalysisConfig,
    opts: &BatchOptions,
    stats: &mut AnalysisStats,
) {
    stats.program_nodes = prog.len() as u64;
    if opts.collect_stats {
        stats.closure = ClosureStats::new(config.term_limit);
    }
}

/// The full arm: unfold `S'(F)` for `caps` and saturate all of it with
/// proofs, for callers that keep the artifacts. The cache holds partial,
/// proof-free closures, so this arm never uses it.
fn full_shared(
    schema: &Schema,
    caps: &CapabilityList,
    config: &AnalysisConfig,
    opts: &BatchOptions,
    stats: &mut AnalysisStats,
) -> Result<Shared, AnalysisError> {
    let prog = stats.phases.time("unfold", || {
        NProgram::unfold_with_limit(schema, caps, config.node_limit)
    })?;
    stats.program_nodes = prog.len() as u64;
    let copts = config.closure_options(Goal::Full(ProofMode::Full));
    let closure = stats.phases.time("closure", || {
        saturate(&prog, &copts, opts.collect_stats, &mut stats.closure)
    })?;
    Ok((Arc::new(prog), Arc::new(closure), OccMemo::default()))
}

/// Saturate `prog`, leaving the run's counters in `stats` when `collect`
/// is set (also when it aborts on the term budget).
fn saturate(
    prog: &NProgram,
    copts: &ClosureOptions<'_>,
    collect: bool,
    stats: &mut ClosureStats,
) -> Result<Closure, ClosureError> {
    if !collect {
        return Closure::saturate(prog, copts, NoopObserver).0;
    }
    let (closure, observed) = Closure::saturate(prog, copts, ClosureStats::new(copts.term_limit));
    *stats = observed;
    closure
}

/// Per-group occurrence memo: `occurrences(prog, target)` depends only on
/// the program and the target, so requirements sharing a target share one
/// enumeration. Linear scan — a group rarely names more than a handful of
/// distinct targets.
#[derive(Clone, Default)]
struct OccMemo {
    entries: Vec<(FnRef, Arc<Vec<Occurrence>>)>,
}

impl OccMemo {
    fn get(&mut self, prog: &NProgram, target: &FnRef) -> Arc<Vec<Occurrence>> {
        if let Some((_, occs)) = self.entries.iter().find(|(t, _)| t == target) {
            return Arc::clone(occs);
        }
        let occs = Arc::new(occurrences(prog, target));
        self.entries.push((target.clone(), Arc::clone(&occs)));
        occs
    }
}

/// Analyze a batch of requirements, unfolding and saturating **once per
/// distinct capability list** instead of once per requirement.
///
/// `A(R)`'s expensive phases — unfolding `S'(F)` and the `F(F)` closure —
/// depend only on the requirement's capability list `F` and the analysis
/// configuration, which is shared by the whole call. Requirements are
/// therefore grouped by user in first-seen order, and users by list: each
/// list is unfolded and saturated once, for the union of its users'
/// requirement shapes, and each user group then runs the cheap
/// per-requirement verdict check. Groups fan out across a hand-rolled
/// `std::thread::scope` work-stealing pool ([`BatchOptions::jobs`] workers
/// over per-worker deques), so a policy file with many users saturates in
/// parallel even when group sizes are heavily skewed.
///
/// Verdicts come back in input order and are identical to analyzing each
/// requirement as a batch of one, regardless of `jobs`, with one exception
/// set by the term budget: a list's users share one closure and so one
/// budget, and a union slice can exceed it where one user's slice alone
/// fits. Then every requirement on the list reports the budget error, as
/// full saturation under the same budget would.
pub fn analyze_batch(
    schema: &Schema,
    reqs: &[Requirement],
    config: &AnalysisConfig,
    opts: &BatchOptions,
) -> BatchOutcome {
    analyze_batch_cached(schema, reqs, config, opts, None)
}

/// [`analyze_batch`] with an optional cross-call [`ClosureCache`]: the
/// records of [`analyze_batch_streaming`] collected and placed by group
/// index and requirement index, which keeps the pool's nondeterministic
/// group→worker assignment out of the output.
///
/// The cache is looked up once per distinct capability list by the demand
/// arm (`!keep_artifacts`); the full, proof-carrying closures of kept
/// artifacts bypass it. Passing `None` is exactly [`analyze_batch`].
pub fn analyze_batch_cached(
    schema: &Schema,
    reqs: &[Requirement],
    config: &AnalysisConfig,
    opts: &BatchOptions,
    cache: Option<&ClosureCache>,
) -> BatchOutcome {
    let sink = Mutex::new(Vec::new());
    let summary = analyze_batch_streaming(schema, reqs, config, opts, cache, &sink);
    let mut verdicts: Vec<Option<Result<Verdict, AnalysisError>>> =
        reqs.iter().map(|_| None).collect();
    let mut groups: Vec<Option<BatchGroup>> = (0..summary.groups).map(|_| None).collect();
    for record in sink.into_inner().expect("no panics hold the sink lock") {
        for (i, v) in record.verdicts {
            verdicts[i] = Some(v);
        }
        groups[record.group_index] = Some(record.group);
    }
    BatchOutcome {
        verdicts: verdicts
            .into_iter()
            .map(|v| v.expect("every requirement belongs to exactly one group"))
            .collect(),
        groups: groups
            .into_iter()
            .map(|g| g.expect("every group emits exactly one record"))
            .collect(),
        summary,
    }
}

/// Run `A(R)` for `reqs` under the capability list `caps`: one group
/// through the batch driver's demand path, in `reqs` order. The
/// requirements' user names are never read, so no user of `schema` need
/// hold `caps` (the guard passes a session's functions, the advisor a list
/// with grants revoked, `secflow serve` a never-edited user's own list).
/// Uncached: a [`ClosureCache`] key prints the program on every call, and
/// on these callers' inputs that print costs more than the closure it
/// guards.
pub fn analyze_caps(
    schema: &Schema,
    caps: &CapabilityList,
    reqs: &[Requirement],
    config: &AnalysisConfig,
) -> Vec<Result<Verdict, AnalysisError>> {
    // No user holds `caps`, so the group is unnamed; nothing reads its name.
    let group = (UserName::new(""), (0..reqs.len()).collect());
    let all: Vec<&Requirement> = reqs.iter().collect();
    let opts = BatchOptions::default();
    let (_, verdicts) = run_group(reqs, &group, false, |stats| {
        demand_shared(schema, caps, config, &opts, &all, None, stats)
    });
    verdicts.into_iter().map(|(_, v)| v).collect()
}

/// The capability list the schema grants `user`.
pub(crate) fn user_caps<'s>(
    schema: &'s Schema,
    user: &UserName,
) -> Result<&'s CapabilityList, AnalysisError> {
    schema
        .user(user)
        .ok_or_else(|| AnalysisError::UnknownUser(user.to_string()))
}

/// Group requirement indexes by user, first-seen order — the batch
/// driver's unit of work. There are at most `users` groups of known users,
/// and rarely more: both tables are sized for that up front. A group's
/// name is cloned once, when the group opens.
fn group_by_user(reqs: &[Requirement], users: usize) -> Vec<(UserName, Vec<usize>)> {
    let groups = reqs.len().min(users);
    let mut group_of: HashMap<&str, usize> = HashMap::with_capacity(groups);
    let mut grouped: Vec<(UserName, Vec<usize>)> = Vec::with_capacity(groups);
    for (i, r) in reqs.iter().enumerate() {
        let gi = *group_of.entry(r.user.as_str()).or_insert_with(|| {
            grouped.push((r.user.clone(), Vec::new()));
            grouped.len() - 1
        });
        grouped[gi].1.push(i);
    }
    grouped
}

/// One distinct capability list of a batch: the demand arm's unit of
/// shared work. The list is unfolded, sliced and saturated once, by the
/// first of its users to run, for every shape its users ask.
struct ListSlot<'a> {
    caps: &'a CapabilityList,
    /// One requirement per distinct [`shape`] the list's users ask, in
    /// first-seen order.
    shapes: Vec<&'a Requirement>,
    /// The list's user groups that have not completed.
    pending: AtomicUsize,
    /// The list's demand result once its first user computed it; freed
    /// when its last user completes.
    demand: Mutex<Option<Result<Shared, AnalysisError>>>,
}

impl ListSlot<'_> {
    /// The list's demand closure, for one of its user groups. The first to
    /// ask computes it holding the slot lock, so a second worker on the
    /// same list waits instead of saturating twice, and it is this list's
    /// only cache lookup; it carries the `unfold`/`closure` phases and the
    /// closure counters. Every later user is [`served`]. An error is stored
    /// like a closure and fails every user of the list.
    fn demand(
        &self,
        schema: &Schema,
        config: &AnalysisConfig,
        opts: &BatchOptions,
        cache: Option<&CacheCtx<'_>>,
        stats: &mut AnalysisStats,
    ) -> Result<Shared, AnalysisError> {
        let mut slot = self.demand.lock().expect("no panics hold a list slot");
        if let Some(done) = &*slot {
            if let Ok((prog, _, _)) = done {
                served(prog, config, opts, stats);
            }
            return done.clone();
        }
        let result = demand_shared(schema, self.caps, config, opts, &self.shapes, cache, stats);
        *slot = Some(result.clone());
        result
    }

    /// One of the list's user groups completed; the last frees the closure.
    /// Relaxed: the count publishes no data (each group holds its own
    /// `Arc`s, and the slot's mutex orders the free), and exactly one
    /// group reads it reach zero.
    fn complete(&self) {
        if self.pending.fetch_sub(1, Ordering::Relaxed) == 1 {
            *self.demand.lock().expect("no panics hold a list slot") = None;
        }
    }
}

/// The distinct capability lists of a batch, gathered in one sequential
/// pass before the pool starts.
struct ListTable<'a> {
    /// Each user group's slot index, or the error that fails the group (an
    /// unknown user).
    of_group: Vec<Result<usize, AnalysisError>>,
    slots: Vec<ListSlot<'a>>,
}

impl<'a> ListTable<'a> {
    fn new(
        schema: &'a Schema,
        reqs: &'a [Requirement],
        grouped: &[(UserName, Vec<usize>)],
    ) -> ListTable<'a> {
        // Users the parser gave one shared list are found by the list's
        // storage, which the borrowed schema keeps alive, without hashing
        // the list. Only a storage not seen before is looked up by content,
        // so equal lists in separate stores still get one slot.
        let mut by_storage: HashMap<usize, usize> = HashMap::new();
        let mut by_content: HashMap<&CapabilityList, usize> = HashMap::new();
        let mut slots: Vec<ListSlot<'a>> = Vec::new();
        let mut of_group = Vec::with_capacity(grouped.len());
        for (user, req_indexes) in grouped {
            let caps = match user_caps(schema, user) {
                Ok(caps) => caps,
                Err(e) => {
                    of_group.push(Err(e));
                    continue;
                }
            };
            let li = *by_storage.entry(caps.storage_id()).or_insert_with(|| {
                *by_content.entry(caps).or_insert_with(|| {
                    slots.push(ListSlot {
                        caps,
                        shapes: Vec::new(),
                        pending: AtomicUsize::new(0),
                        demand: Mutex::new(None),
                    });
                    slots.len() - 1
                })
            });
            let slot = &mut slots[li];
            *slot.pending.get_mut() += 1;
            for r in req_indexes.iter().map(|&i| &reqs[i]) {
                if !slot.shapes.iter().any(|s| shape(s) == shape(r)) {
                    slot.shapes.push(r);
                }
            }
            of_group.push(Ok(li));
        }
        ListTable { of_group, slots }
    }
}

/// Resolve a requested job count: `0` auto-detects the machine's
/// [`std::thread::available_parallelism`], falling back to 1 when the
/// platform cannot say. Any other value passes through unchanged.
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// The batch worker pool. Spawns `jobs` scoped workers over group indexes
/// `0..n_groups`, each seeded with a contiguous chunk of the index space in
/// a per-worker deque. A worker whose deque drains steals the back half of
/// the first non-empty victim deque it finds (scanning from its right
/// neighbour) instead of exiting — so one giant group does not strand the
/// rest of a skewed batch on a single worker.
///
/// Every group index is processed exactly once: indexes only ever move
/// between deques under a victim's lock, and a worker drains its own deque
/// before exiting. Each worker threads a private state value (`init` →
/// `work` → returned at join), which is how the driver folds per-worker
/// [`AnalysisStats`] without a shared lock. Returns the
/// worker states in worker-index order plus the number of steals performed.
/// With one job nothing is spawned: the calling thread runs every group in
/// index order as worker 0.
fn run_pool<S, I, W>(n_groups: usize, jobs: usize, init: I, work: W) -> (Vec<S>, u64)
where
    S: Send,
    I: Fn(usize) -> S + Sync,
    W: Fn(&mut S, usize) + Sync,
{
    if jobs <= 1 {
        let mut state = init(0);
        for gi in 0..n_groups {
            work(&mut state, gi);
        }
        return (vec![state], 0);
    }
    let steals = AtomicU64::new(0);
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..jobs)
        .map(|w| {
            let start = w * n_groups / jobs;
            let end = (w + 1) * n_groups / jobs;
            Mutex::new((start..end).collect())
        })
        .collect();
    let states = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|w| {
                let (queues, steals, init, work) = (&queues, &steals, &init, &work);
                scope.spawn(move || {
                    let lock = |v: usize| queues[v].lock().expect("no panics hold a queue lock");
                    let mut state = init(w);
                    loop {
                        if let Some(gi) = lock(w).pop_front() {
                            work(&mut state, gi);
                            continue;
                        }
                        let mut stolen = VecDeque::new();
                        for off in 1..jobs {
                            let mut q = lock((w + off) % jobs);
                            let len = q.len();
                            if len > 0 {
                                stolen = q.split_off(len - len.div_ceil(2));
                                break;
                            }
                        }
                        if stolen.is_empty() {
                            // Every deque was empty when scanned; any group
                            // still in flight is owned by the worker running
                            // it, so there is nothing left to take.
                            break;
                        }
                        steals.fetch_add(1, Ordering::Relaxed);
                        *lock(w) = stolen;
                    }
                    state
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("batch worker panicked"))
            .collect()
    });
    (states, steals.load(Ordering::Relaxed))
}

/// One completed group, as delivered to an [`AnalysisSink`]. Records may
/// arrive in any order under a parallel pool — `group_index` (the group's
/// position in first-seen user order) lets a consumer reassemble input
/// order, and each verdict is tagged with its requirement's index in the
/// caller's input slice.
#[derive(Debug)]
pub struct GroupRecord {
    /// Index of the group in first-seen user order.
    pub group_index: usize,
    /// Index of the pool worker that analyzed this group (0 on the serial
    /// path): the worker that *executed* the group, which may differ from
    /// the worker whose chunk it was seeded into — the trace of how the
    /// pool balanced the batch.
    pub worker: usize,
    /// The group's user, requirement indexes, stats, check times and kept
    /// artifacts.
    pub group: BatchGroup,
    /// `(requirement index, verdict)` pairs, input order within the group.
    pub verdicts: Vec<(usize, Result<Verdict, AnalysisError>)>,
}

/// A consumer of streamed batch results. Implementations must be
/// thread-safe: under a parallel pool, `emit` is called concurrently from
/// worker threads as groups complete.
pub trait AnalysisSink: Sync {
    /// Called exactly once per analysed group, the moment its verdicts are
    /// ready. Ordering is unspecified when `jobs > 1`.
    fn emit(&self, record: GroupRecord);

    /// Has the consumer stopped taking records (say, its writer failed)?
    /// Once it answers true the driver analyses no further group; groups
    /// already running still emit. A sink that never closes keeps this
    /// default.
    fn closed(&self) -> bool {
        false
    }
}

/// The simplest sink: buffer every record in completion order
/// ([`analyze_batch_cached`] reassembles input order from it).
impl AnalysisSink for Mutex<Vec<GroupRecord>> {
    fn emit(&self, record: GroupRecord) {
        self.lock()
            .expect("no panics hold the sink lock")
            .push(record);
    }
}

/// What [`analyze_batch_streaming`] returns once the last record has been
/// emitted: aggregate counters only — nothing per-requirement or per-group
/// is buffered, which is the point.
#[derive(Debug)]
pub struct StreamSummary {
    /// Groups in the batch (= records emitted, unless the sink closed).
    pub groups: usize,
    /// Distinct capability lists among the groups' users. The demand arm
    /// unfolds and saturates each once; the full arm
    /// ([`BatchOptions::keep_artifacts`]) still saturates per group.
    pub lists: usize,
    /// Requirements across all groups.
    pub requirements: usize,
    /// Worker threads actually used (after resolving `jobs == 0` and
    /// clamping to the group count).
    pub jobs_used: usize,
    /// Steal operations performed by the work-stealing pool: 0 for serial
    /// runs.
    pub steals: u64,
    /// Every group's stats folded by [`AnalysisStats::merge`] (closure
    /// counters zeroed unless [`BatchOptions::collect_stats`]). Each worker
    /// folds its own groups and the cross-worker fold happens once at join,
    /// in worker-index order — one merge per worker instead of one lock
    /// round-trip per group. Totals, maxima and sticky flags are identical
    /// to a serial fold; only the row order of the per-label tables and of
    /// the phases can differ.
    pub stats: AnalysisStats,
    /// Lifetime cache counters after this batch, when one was passed.
    /// Lifetime, not per-batch: the cache is shared across calls, so
    /// consumers report the running totals (monotone counters).
    pub cache_stats: Option<CacheStats>,
}

/// The batch driver: each group's record is handed to `sink.emit` the
/// moment the group completes, and nothing per-group is retained — memory
/// stays flat no matter how many users the batch holds. Each distinct
/// capability list's closure lives only until its last user completes.
/// [`analyze_batch_cached`] is this driver with a sink that collects every
/// record.
pub fn analyze_batch_streaming(
    schema: &Schema,
    reqs: &[Requirement],
    config: &AnalysisConfig,
    opts: &BatchOptions,
    cache: Option<&ClosureCache>,
    sink: &dyn AnalysisSink,
) -> StreamSummary {
    let ctx = CacheCtx::new(cache, schema, config, opts);
    let grouped = group_by_user(reqs, schema.users.len());
    let lists = ListTable::new(schema, reqs, &grouped);
    let n_groups = grouped.len();
    let jobs = effective_jobs(opts.jobs).min(n_groups.max(1));
    let (folds, steals) = run_pool(
        n_groups,
        jobs,
        |w| (w, AnalysisStats::default()),
        |(worker, stats), gi| {
            if sink.closed() {
                return;
            }
            let list = lists.of_group[gi].as_ref().map(|&li| &lists.slots[li]);
            let (group, verdicts) = run_group(reqs, &grouped[gi], opts.keep_artifacts, |stats| {
                let list = list.map_err(Clone::clone)?;
                // Demand-driven saturation answers exactly the goal
                // queries the checks will make; kept artifacts are
                // inspected beyond those queries (derivations of arbitrary
                // terms), so they need each user's full fixpoint.
                if opts.keep_artifacts {
                    full_shared(schema, list.caps, config, opts, stats)
                } else {
                    list.demand(schema, config, opts, ctx.as_ref(), stats)
                }
            });
            if let Ok(list) = list {
                list.complete();
            }
            stats.merge(&group.stats);
            sink.emit(GroupRecord {
                group_index: gi,
                worker: *worker,
                group,
                verdicts,
            });
        },
    );
    let mut stats = AnalysisStats::default();
    for (_, worker_stats) in &folds {
        stats.merge(worker_stats);
    }
    StreamSummary {
        groups: n_groups,
        lists: lists.slots.len(),
        requirements: reqs.len(),
        jobs_used: jobs,
        steals,
        stats,
        cache_stats: cache.map(|c| c.stats()),
    }
}

/// Per-requirement verdicts from one group run, tagged with each
/// requirement's index in the caller's input order.
type GroupVerdicts = Vec<(usize, Result<Verdict, AnalysisError>)>;

/// One group: `user`'s requirements at `req_indexes`, checked against what
/// `shared` computes or fetches into the group's stats (the program and
/// closure of the user's list). `A(R)` reads nothing of the user but the
/// list, so `shared` resolves it; its error fails every requirement of the
/// group.
fn run_group(
    reqs: &[Requirement],
    (user, req_indexes): &(UserName, Vec<usize>),
    keep_artifacts: bool,
    shared: impl FnOnce(&mut AnalysisStats) -> Result<Shared, AnalysisError>,
) -> (BatchGroup, GroupVerdicts) {
    let mut group = BatchGroup {
        user: user.clone(),
        req_indexes: req_indexes.clone(),
        stats: AnalysisStats::default(),
        check_times: Vec::with_capacity(req_indexes.len()),
        artifacts: None,
    };
    let mut verdicts = Vec::with_capacity(req_indexes.len());
    match shared(&mut group.stats) {
        Err(e) => {
            for &i in req_indexes {
                verdicts.push((i, Err(e.clone())));
            }
        }
        Ok((prog, closure, mut memo)) => {
            let mut check_total = Duration::ZERO;
            for &i in req_indexes {
                let req = &reqs[i];
                let start = Instant::now();
                let occs = memo.get(&prog, &req.target);
                group.stats.occurrences_checked += occs.len() as u64;
                let v = check_with_occurrences(&prog, &*closure, req, &occs);
                let elapsed = start.elapsed();
                check_total += elapsed;
                group.check_times.push(elapsed);
                verdicts.push((i, Ok(v)));
            }
            group.stats.phases.add("check", check_total);
            if keep_artifacts {
                // The full arm's `Arc`s are never shared.
                group.artifacts = Arc::into_inner(prog).zip(Arc::into_inner(closure));
            }
        }
    }
    (group, verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_lang::{parse_requirement, parse_schema};

    const STOCKBROKER: &str = r#"
        class Broker { name: string, salary: int, budget: int, profit: int }

        fn calcSalary(budget: int, profit: int): int {
          budget / 10 + profit / 2
        }

        fn checkBudget(broker: Broker): bool {
          r_budget(broker) >= 10 * r_salary(broker)
        }

        fn updateSalary(broker: Broker): null {
          w_salary(broker, calcSalary(r_budget(broker), r_profit(broker)))
        }

        user clerk { checkBudget, w_budget }
        user safe_clerk { checkBudget }
        user payroll { updateSalary, w_budget }
        user safe_payroll { updateSalary }
        user reader { r_salary }
    "#;

    fn schema() -> Schema {
        let s = parse_schema(STOCKBROKER).unwrap();
        oodb_lang::check_schema(&s).unwrap();
        s
    }

    #[test]
    fn clerk_salary_inference_flaw_detected() {
        // §4.2: (clerk, r_salary(x):ti) is NOT satisfied.
        let s = schema();
        let r = parse_requirement("(clerk, r_salary(x) : ti)").unwrap();
        let v = analyze(&s, &r).unwrap();
        assert!(v.is_violated(), "Figure 1 flaw must be detected");
    }

    #[test]
    fn safe_clerk_is_satisfied() {
        let s = schema();
        let r = parse_requirement("(safe_clerk, r_salary(x) : ti)").unwrap();
        let v = analyze(&s, &r).unwrap();
        assert!(!v.is_violated(), "checkBudget alone leaks nothing total");
    }

    #[test]
    fn payroll_alterability_flaw_detected() {
        // §3.1's second example: with w_budget the payroll user controls
        // the new salary — (payroll, w_salary(x, v:ta)) is violated.
        let s = schema();
        let r = parse_requirement("(payroll, w_salary(x, v: ta))").unwrap();
        let v = analyze(&s, &r).unwrap();
        assert!(v.is_violated());
    }

    #[test]
    fn safe_payroll_keeps_salary_uncontrolled() {
        let s = schema();
        let r = parse_requirement("(safe_payroll, w_salary(x, v: ta))").unwrap();
        let v = analyze(&s, &r).unwrap();
        assert!(!v.is_violated());
    }

    #[test]
    fn direct_grant_is_flagged_via_outer_occurrence() {
        // A user holding r_salary outright trivially violates ti-on-return.
        let s = schema();
        let r = parse_requirement("(reader, r_salary(x) : ti)").unwrap();
        let v = analyze(&s, &r).unwrap();
        assert!(v.is_violated());
    }

    #[test]
    fn unknown_user_is_an_error() {
        let s = schema();
        let r = parse_requirement("(ghost, r_salary(x) : ti)").unwrap();
        assert!(matches!(
            analyze(&s, &r),
            Err(AnalysisError::UnknownUser(_))
        ));
    }

    #[test]
    fn unreachable_target_is_satisfied() {
        // safe_payroll never touches `name`.
        let s = schema();
        let r = parse_requirement("(safe_payroll, r_name(x) : ti)").unwrap();
        let v = analyze(&s, &r).unwrap();
        assert!(!v.is_violated());
    }

    #[test]
    fn monotonicity_in_capabilities() {
        // Granting more functions can only add violations (P8).
        let s = schema();
        let weak = parse_requirement("(safe_clerk, r_salary(x) : pi)").unwrap();
        let strong = parse_requirement("(clerk, r_salary(x) : pi)").unwrap();
        let vw = analyze(&s, &weak).unwrap();
        let vs = analyze(&s, &strong).unwrap();
        if vw.is_violated() {
            assert!(vs.is_violated());
        }
    }

    /// One requirement through [`analyze_batch`] with stats collected: the
    /// verdict and the group's stats.
    fn one_with_stats(
        s: &Schema,
        req: &str,
        config: &AnalysisConfig,
    ) -> (Result<Verdict, AnalysisError>, AnalysisStats) {
        let r = parse_requirement(req).unwrap();
        let opts = BatchOptions {
            collect_stats: true,
            ..BatchOptions::default()
        };
        let mut out = analyze_batch(s, std::slice::from_ref(&r), config, &opts);
        (out.verdicts.remove(0), out.groups.remove(0).stats)
    }

    #[test]
    fn batch_of_one_reports_phases_and_counters() {
        let s = schema();
        let config = AnalysisConfig::default();
        let (v, stats) = one_with_stats(&s, "(clerk, r_salary(x) : ti)", &config);
        assert!(v.unwrap().is_violated(), "same verdict as analyze()");
        for phase in ["unfold", "closure", "check"] {
            assert!(stats.phases.get(phase).is_some(), "missing phase {phase}");
        }
        assert!(stats.program_nodes > 0);
        assert!(stats.occurrences_checked > 0);
        assert!(stats.closure.total_terms() > 0);
        assert!(!stats.closure.aborted);
    }

    #[test]
    fn batch_of_one_reports_stats_of_partial_runs() {
        // Unknown user: no phases ran, stats stay default but come back.
        let s = schema();
        let config = AnalysisConfig::default();
        let (v, stats) = one_with_stats(&s, "(ghost, r_salary(x) : ti)", &config);
        assert!(matches!(v, Err(AnalysisError::UnknownUser(_))));
        assert!(stats.phases.is_empty());
        // Closure budget abort: unfold + closure phases ran, check did not.
        let config = AnalysisConfig {
            term_limit: 5,
            ..AnalysisConfig::default()
        };
        let (v, stats) = one_with_stats(&s, "(clerk, r_salary(x) : ti)", &config);
        assert!(matches!(v, Err(AnalysisError::Closure(_))));
        assert!(stats.closure.aborted);
        assert!(stats.phases.get("closure").is_some());
        assert!(stats.phases.get("check").is_none());
    }

    #[test]
    fn occurrences_enumerated() {
        let s = schema();
        let caps = s.user_str("payroll").unwrap();
        let prog = NProgram::unfold(&s, caps).unwrap();
        // w_salary appears once (inside updateSalary); r_budget twice is a
        // read, not the target.
        let occ = occurrences(&prog, &FnRef::write("salary"));
        assert_eq!(occ.len(), 1);
        assert_eq!(occ[0].args.len(), 2);
        // calcSalary appears as one inner let(f).
        let occ = occurrences(&prog, &FnRef::access("calcSalary"));
        assert_eq!(occ.len(), 1);
        assert_eq!(occ[0].args.len(), 2);
        // updateSalary is an outer grant.
        let occ = occurrences(&prog, &FnRef::access("updateSalary"));
        assert_eq!(occ.len(), 1);
        assert!(matches!(occ[0].kind, OccurrenceKind::OuterAccess { .. }));
    }

    fn batch_reqs() -> Vec<Requirement> {
        [
            "(clerk, r_salary(x) : ti)",
            "(safe_clerk, r_salary(x) : ti)",
            "(payroll, w_salary(x, v: ta))",
            "(clerk, r_salary(x) : pi)",
            "(safe_payroll, w_salary(x, v: ta))",
        ]
        .iter()
        .map(|s| parse_requirement(s).unwrap())
        .collect()
    }

    #[test]
    fn batch_matches_per_requirement_analyze() {
        let s = schema();
        let reqs = batch_reqs();
        let expected: Vec<_> = reqs.iter().map(|r| analyze(&s, r)).collect();
        for jobs in [1, 2, 3, 4, 8] {
            let opts = BatchOptions {
                jobs,
                ..BatchOptions::default()
            };
            let out = analyze_batch(&s, &reqs, &AnalysisConfig::default(), &opts);
            assert_eq!(out.verdicts, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn batch_groups_by_user_in_first_seen_order() {
        let s = schema();
        let reqs = batch_reqs();
        let out = analyze_batch(
            &s,
            &reqs,
            &AnalysisConfig::default(),
            &BatchOptions::default(),
        );
        let users: Vec<&str> = out.groups.iter().map(|g| g.user.as_str()).collect();
        assert_eq!(users, ["clerk", "safe_clerk", "payroll", "safe_payroll"]);
        // clerk's two requirements share one group.
        assert_eq!(out.groups[0].req_indexes, [0, 3]);
        assert_eq!(out.summary.jobs_used, 1);
    }

    #[test]
    fn batch_reports_group_errors_per_requirement() {
        let s = schema();
        let reqs: Vec<_> = [
            "(ghost, r_salary(x) : ti)",
            "(clerk, r_salary(x) : ti)",
            "(ghost, r_budget(x) : ti)",
        ]
        .iter()
        .map(|r| parse_requirement(r).unwrap())
        .collect();
        let out = analyze_batch(
            &s,
            &reqs,
            &AnalysisConfig::default(),
            &BatchOptions::default(),
        );
        assert!(matches!(
            out.verdicts[0],
            Err(AnalysisError::UnknownUser(_))
        ));
        assert!(out.verdicts[1].as_ref().unwrap().is_violated());
        assert!(matches!(
            out.verdicts[2],
            Err(AnalysisError::UnknownUser(_))
        ));
    }

    #[test]
    fn batch_keeps_artifacts_and_stats_when_asked() {
        let s = schema();
        let reqs = batch_reqs();
        let opts = BatchOptions {
            jobs: 2,
            keep_artifacts: true,
            collect_stats: true,
        };
        let out = analyze_batch(&s, &reqs, &AnalysisConfig::default(), &opts);
        assert_eq!(out.summary.jobs_used, 2);
        for g in &out.groups {
            let (prog, closure) = g.artifacts.as_ref().expect("artifacts kept");
            assert!(!prog.is_empty());
            assert_eq!(closure.proof_mode(), ProofMode::Full);
            assert!(g.stats.phases.get("unfold").is_some());
            assert!(g.stats.phases.get("closure").is_some());
            assert!(g.stats.phases.get("check").is_some());
            assert!(g.stats.closure.total_terms() as usize == closure.len());
            assert_eq!(g.check_times.len(), g.req_indexes.len());
        }
        // Proof-carrying artifacts can render derivations (the --explain
        // path reuses them instead of recomputing).
        let (_, clerk_closure) = out.groups[0].artifacts.as_ref().unwrap();
        let witness = clerk_closure.ti_witness(5).expect("Figure 1 ti");
        assert!(clerk_closure.proof(&witness).is_some());
    }

    #[test]
    fn analyze_matches_the_oracle_on_the_fixture() {
        let s = schema();
        let config = AnalysisConfig::default();
        for req in [
            "(clerk, r_salary(x) : ti)",
            "(safe_clerk, r_salary(x) : ti)",
            "(payroll, w_salary(x, v: ta))",
            "(safe_payroll, w_salary(x, v: ta))",
            "(reader, r_salary(x) : ti)",
            "(safe_payroll, r_name(x) : ti)",
        ] {
            let r = parse_requirement(req).unwrap();
            let oracle = crate::reference::analyze_ref(&s, &r, &config).unwrap();
            assert_eq!(analyze(&s, &r).unwrap(), oracle, "{req}");
        }
    }

    #[test]
    fn batch_demand_matches_the_oracle() {
        let s = schema();
        let reqs = batch_reqs();
        let config = AnalysisConfig::default();
        let demand = analyze_batch(&s, &reqs, &config, &BatchOptions::default());
        let oracle: Vec<_> = reqs
            .iter()
            .map(|r| crate::reference::analyze_ref(&s, r, &config))
            .collect();
        assert_eq!(demand.verdicts, oracle);
    }

    #[test]
    fn cache_serves_repeat_batches_without_recomputing() {
        let s = schema();
        let reqs = batch_reqs();
        let cache = ClosureCache::new(8);
        let config = AnalysisConfig::default();
        let opts = BatchOptions::default();
        let first = analyze_batch_cached(&s, &reqs, &config, &opts, Some(&cache));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 4), "four users, all cold");
        assert_eq!(cache.len(), 4);
        let second = analyze_batch_cached(&s, &reqs, &config, &opts, Some(&cache));
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (4, 4),
            "identical batch fully served"
        );
        assert_eq!(first.verdicts, second.verdicts);
        let expected: Vec<_> = reqs.iter().map(|r| analyze(&s, r)).collect();
        assert_eq!(second.verdicts, expected);
    }

    #[test]
    fn cache_keys_are_exact_requirement_shape_sets() {
        // One capability list, three shape sets: each set is a key of its
        // own, and a hit means the group asked exactly a stored set.
        let s = schema();
        let config = AnalysisConfig::default();
        let opts = BatchOptions::default();
        let cache = ClosureCache::new(8);
        let reqs = |texts: &[&str]| -> Vec<Requirement> {
            texts
                .iter()
                .map(|r| parse_requirement(r).unwrap())
                .collect()
        };
        let a = reqs(&["(clerk, r_salary(x) : ti)"]);
        let b = reqs(&["(clerk, r_budget(x) : ta)"]);
        let both = reqs(&["(clerk, r_budget(x) : ta)", "(clerk, r_salary(x) : ti)"]);
        let run = |batch: &[Requirement]| {
            let before = cache.stats();
            let out = analyze_batch_cached(&s, batch, &config, &opts, Some(&cache));
            let expected: Vec<_> = batch.iter().map(|r| analyze(&s, r)).collect();
            assert_eq!(out.verdicts, expected);
            let after = cache.stats();
            (after.hits - before.hits, after.misses - before.misses)
        };
        assert_eq!(run(&a), (0, 1), "A is cold");
        assert_eq!(run(&b), (0, 1), "B is another key on the same list");
        assert_eq!(cache.len(), 2);
        assert_eq!(run(&a), (1, 0), "A is served from its own entry");
        assert_eq!(run(&b), (1, 0), "B is served from its own entry");
        assert_eq!(run(&both), (0, 1), "A+B is a third key");
        assert_eq!(cache.len(), 3);
        // Order and repeats within a group do not change the key.
        let again = reqs(&[
            "(clerk, r_salary(x) : ti)",
            "(clerk, r_budget(x) : ta)",
            "(clerk, r_salary(x) : ti)",
        ]);
        assert_eq!(run(&again), (1, 0), "the same shape set hits");
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn cache_shares_entries_between_identically_granted_users() {
        // The key fingerprints the capability list, not the user name:
        // payroll and a clone user with the same grants share one entry.
        let text = format!("{STOCKBROKER}\n user payroll_twin {{ updateSalary, w_budget }}");
        let s = parse_schema(&text).unwrap();
        oodb_lang::check_schema(&s).unwrap();
        let config = AnalysisConfig::default();
        let opts = BatchOptions::default();
        let cache = ClosureCache::new(8);
        let a = [parse_requirement("(payroll, w_salary(x, v: ta))").unwrap()];
        analyze_batch_cached(&s, &a, &config, &opts, Some(&cache));
        let b = [parse_requirement("(payroll_twin, w_salary(x, v: ta))").unwrap()];
        let out = analyze_batch_cached(&s, &b, &config, &opts, Some(&cache));
        assert_eq!(cache.stats().hits, 1, "twin user hits payroll's entry");
        assert_eq!(out.verdicts[0], analyze(&s, &b[0]));
    }

    #[test]
    fn cache_evicts_least_recently_used_past_capacity() {
        let s = schema();
        let config = AnalysisConfig::default();
        let opts = BatchOptions::default();
        let cache = ClosureCache::new(2);
        for user in ["clerk", "safe_clerk"] {
            let r = [parse_requirement(&format!("({user}, r_salary(x) : ti)")).unwrap()];
            analyze_batch_cached(&s, &r, &config, &opts, Some(&cache));
        }
        // Touch clerk so safe_clerk becomes least-recently-used; a FIFO
        // cache would evict clerk (the oldest insert) regardless.
        let r = [parse_requirement("(clerk, r_salary(x) : ti)").unwrap()];
        analyze_batch_cached(&s, &r, &config, &opts, Some(&cache));
        let r = [parse_requirement("(payroll, r_salary(x) : ti)").unwrap()];
        analyze_batch_cached(&s, &r, &config, &opts, Some(&cache));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        let before = cache.stats().hits;
        let r = [parse_requirement("(clerk, r_salary(x) : ti)").unwrap()];
        analyze_batch_cached(&s, &r, &config, &opts, Some(&cache));
        assert_eq!(cache.stats().hits, before + 1, "touched entry survived");
        let r = [parse_requirement("(safe_clerk, r_salary(x) : ti)").unwrap()];
        analyze_batch_cached(&s, &r, &config, &opts, Some(&cache));
        assert_eq!(cache.stats().hits, before + 1, "LRU entry was evicted");
    }

    #[test]
    fn cache_key_covers_the_program_but_not_other_users_or_requirements() {
        // Regression: the key once fingerprinted the whole printed schema,
        // so a policy that only gained an unrelated user or requirement
        // missed on every closure, and every key re-printed the policy.
        // `S'(F)` reads the class and function definitions and one
        // capability list, and nothing else.
        let cache = ClosureCache::new(16);
        let config = AnalysisConfig::default();
        let opts = BatchOptions::default();
        let reqs = batch_reqs();
        let groups = 4;
        let run = |text: &str| {
            let s = parse_schema(text).unwrap();
            oodb_lang::check_schema(&s).unwrap();
            let before = cache.stats();
            let out = analyze_batch_cached(&s, &reqs, &config, &opts, Some(&cache));
            assert_eq!(
                out.verdicts,
                analyze_batch(&s, &reqs, &config, &opts).verdicts
            );
            let after = cache.stats();
            (after.hits - before.hits, after.misses - before.misses)
        };
        assert_eq!(run(STOCKBROKER), (0, groups), "cold cache");
        let unrelated = format!(
            "{STOCKBROKER}\n user auditor {{ r_profit }}\n require (auditor, r_profit(x) : ti)"
        );
        assert_eq!(
            run(&unrelated),
            (groups, 0),
            "another user and requirement hit"
        );
        let budget = STOCKBROKER.replace("10 * r_salary", "20 * r_salary");
        assert_ne!(budget, STOCKBROKER);
        assert_eq!(run(&budget), (0, groups), "a changed function body misses");
        let class = STOCKBROKER.replace("profit: int }", "profit: int, bonus: int }");
        assert_ne!(class, STOCKBROKER);
        assert_eq!(run(&class), (0, groups), "a changed class misses");
    }

    #[test]
    fn jobs_zero_auto_detects_parallelism() {
        let s = schema();
        let reqs = batch_reqs();
        let expected: Vec<_> = reqs.iter().map(|r| analyze(&s, r)).collect();
        let out = analyze_batch(
            &s,
            &reqs,
            &AnalysisConfig::default(),
            &BatchOptions {
                jobs: 0,
                ..BatchOptions::default()
            },
        );
        assert_eq!(out.verdicts, expected);
        assert!(effective_jobs(0) >= 1);
        assert_eq!(
            out.summary.jobs_used,
            effective_jobs(0).min(out.groups.len())
        );
    }

    #[test]
    fn streaming_matches_buffered_and_covers_every_group() {
        let s = schema();
        let reqs = batch_reqs();
        let config = AnalysisConfig::default();
        for jobs in [1, 4] {
            let opts = BatchOptions {
                jobs,
                ..BatchOptions::default()
            };
            let buffered = analyze_batch(&s, &reqs, &config, &opts);
            let sink: Mutex<Vec<GroupRecord>> = Mutex::new(Vec::new());
            let summary = analyze_batch_streaming(&s, &reqs, &config, &opts, None, &sink);
            let mut records = sink.into_inner().unwrap();
            records.sort_by_key(|r| r.group_index);
            assert_eq!(summary.groups, buffered.groups.len());
            assert_eq!(summary.requirements, reqs.len());
            let users: Vec<_> = records.iter().map(|r| r.group.user.clone()).collect();
            let expected_users: Vec<_> = buffered.groups.iter().map(|g| g.user.clone()).collect();
            assert_eq!(users, expected_users, "records reassemble to group order");
            let mut verdicts: Vec<Option<Result<Verdict, AnalysisError>>> =
                reqs.iter().map(|_| None).collect();
            for r in records {
                for (i, v) in r.verdicts {
                    verdicts[i] = Some(v);
                }
            }
            let verdicts: Vec<_> = verdicts
                .into_iter()
                .map(|v| v.expect("every requirement streamed exactly once"))
                .collect();
            assert_eq!(verdicts, buffered.verdicts, "jobs={jobs}");
        }
    }

    #[test]
    fn streaming_folds_stats_per_worker() {
        let s = schema();
        let reqs = batch_reqs();
        let config = AnalysisConfig::default();
        let opts = BatchOptions {
            jobs: 2,
            collect_stats: true,
            ..BatchOptions::default()
        };
        let sink: Mutex<Vec<GroupRecord>> = Mutex::new(Vec::new());
        let summary = analyze_batch_streaming(&s, &reqs, &config, &opts, None, &sink);
        // Aggregate totals equal a serial per-group fold: the per-worker
        // batching changes merge order, which the contract says is
        // invisible on sums, maxima and sticky flags.
        let buffered = analyze_batch(
            &s,
            &reqs,
            &config,
            &BatchOptions {
                jobs: 1,
                collect_stats: true,
                ..BatchOptions::default()
            },
        );
        let mut expect = ClosureStats::default();
        for g in &buffered.groups {
            expect.merge(&g.stats.closure);
        }
        assert_eq!(summary.stats.closure.total_terms(), expect.total_terms());
        assert_eq!(summary.stats.closure.rounds, expect.rounds);
        assert_eq!(summary.stats.closure.derive_calls, expect.derive_calls);
        assert_eq!(summary.stats.closure.worklist_peak, expect.worklist_peak);
        assert_eq!(
            summary.stats.occurrences_checked,
            buffered
                .groups
                .iter()
                .map(|g| g.stats.occurrences_checked)
                .sum::<u64>()
        );
        assert_eq!(
            summary.stats.program_nodes,
            buffered
                .groups
                .iter()
                .map(|g| g.stats.program_nodes)
                .max()
                .unwrap()
        );
        assert!(summary.stats.phases.get("closure").is_some());
    }

    #[test]
    fn cache_is_bypassed_when_proofs_or_full_closures_requested() {
        let s = schema();
        let reqs = batch_reqs();
        let config = AnalysisConfig::default();
        let cache = ClosureCache::new(8);
        let opts = BatchOptions {
            keep_artifacts: true,
            ..BatchOptions::default()
        };
        let out = analyze_batch_cached(&s, &reqs, &config, &opts, Some(&cache));
        let expected: Vec<_> = reqs.iter().map(|r| analyze(&s, r)).collect();
        assert_eq!(out.verdicts, expected);
        assert!(cache.is_empty(), "ineligible runs never touch the cache");
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn stats_runs_share_the_cache_and_count_only_their_saturations() {
        let s = schema();
        let reqs = batch_reqs();
        let config = AnalysisConfig::default();
        let opts = BatchOptions {
            collect_stats: true,
            ..BatchOptions::default()
        };
        let expected: Vec<_> = reqs.iter().map(|r| analyze(&s, r)).collect();
        let uncached = analyze_batch(&s, &reqs, &config, &opts);
        let cache = ClosureCache::new(8);
        // Cold: one miss per group, each reporting its saturation's
        // counters exactly as an uncached stats run does.
        let cold = analyze_batch_cached(&s, &reqs, &config, &opts, Some(&cache));
        assert_eq!(cold.verdicts, expected);
        let groups = cold.groups.len() as u64;
        assert_eq!((cache.stats().hits, cache.stats().misses), (0, groups));
        for (g, u) in cold.groups.iter().zip(&uncached.groups) {
            assert!(g.stats.closure.total_terms() > 0, "{}", g.user);
            assert_eq!(g.stats.closure, u.stats.closure, "{}", g.user);
            assert!(g.stats.phases.get("unfold").is_some());
            assert!(g.stats.phases.get("closure").is_some());
        }
        // Warm: every group is a hit, which ran no unfolding and no
        // saturation, so it reports neither phase and zero closure counters.
        let warm = analyze_batch_cached(&s, &reqs, &config, &opts, Some(&cache));
        assert_eq!(warm.verdicts, expected);
        assert_eq!((cache.stats().hits, cache.stats().misses), (groups, groups));
        for g in &warm.groups {
            // Zero counters, but the budget is kept: a hit has full headroom.
            let limit = ClosureStats::new(config.term_limit);
            assert_eq!(g.stats.closure, limit, "{}", g.user);
            assert_eq!(g.stats.closure.budget_headroom(), 1.0, "{}", g.user);
            assert!(g.stats.phases.get("unfold").is_none());
            assert!(g.stats.phases.get("closure").is_none());
            assert!(g.stats.phases.get("check").is_some());
            assert!(g.stats.program_nodes > 0);
        }
    }

    #[test]
    fn analyze_caps_reads_the_list_not_the_user() {
        // The requirements name a user the schema lacks and another's
        // grants: only the list passed in decides the verdicts.
        let s = schema();
        let config = AnalysisConfig::default();
        let reqs: Vec<_> = [
            "(ghost, r_salary(x) : ti)",
            "(safe_clerk, r_salary(x) : ti)",
        ]
        .iter()
        .map(|r| parse_requirement(r).unwrap())
        .collect();
        let clerk = s.user_str("clerk").unwrap();
        let as_clerk: Vec<_> = reqs
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.user = "clerk".into();
                analyze(&s, &r)
            })
            .collect();
        assert_eq!(analyze_caps(&s, clerk, &reqs, &config), as_clerk);
        assert!(analyze_caps(&s, clerk, &[], &config).is_empty());
    }

    /// The stockbroker schema plus two users holding clerk's and payroll's
    /// lists, and requirements that ask the shared lists different shapes.
    fn shared_lists() -> (Schema, Vec<Requirement>) {
        let text = format!(
            "{STOCKBROKER}\n user clerk2 {{ checkBudget, w_budget }}\n \
             user payroll2 {{ updateSalary, w_budget }}"
        );
        let s = parse_schema(&text).unwrap();
        oodb_lang::check_schema(&s).unwrap();
        let reqs = [
            "(clerk, r_salary(x) : ti)",
            "(payroll2, r_salary(x) : ti)",
            "(clerk2, r_budget(x) : ta)",
            "(safe_clerk, r_salary(x) : ti)",
            "(ghost, r_salary(x) : ti)",
            "(clerk2, r_salary(x) : pi)",
            "(payroll, w_salary(x, v: ta))",
            "(clerk, r_salary(x) : ti)",
        ]
        .iter()
        .map(|r| parse_requirement(r).unwrap())
        .collect();
        (s, reqs)
    }

    #[test]
    fn users_sharing_a_list_share_one_closure_for_all_their_shapes() {
        let (s, reqs) = shared_lists();
        let config = AnalysisConfig::default();
        let expected: Vec<_> = reqs.iter().map(|r| analyze(&s, r)).collect();
        let oracle: Vec<_> = reqs
            .iter()
            .map(|r| crate::reference::analyze_ref(&s, r, &config))
            .collect();
        assert_eq!(expected, oracle);
        // Equal lists in separate stores still share one slot: the same
        // policy with clerk2's list rebuilt out of clerk's storage.
        let mut unshared = s.clone();
        let clerk2 = UserName::new("clerk2");
        let fresh: CapabilityList = unshared.users[&clerk2].iter().cloned().collect();
        assert!(!fresh.shares_storage(&unshared.users[&clerk2]));
        unshared.users.insert(clerk2, fresh);
        for (s, jobs) in [&s, &unshared]
            .into_iter()
            .flat_map(|s| [(s, 1), (s, 2), (s, 8)])
        {
            let opts = BatchOptions {
                jobs,
                collect_stats: true,
                ..BatchOptions::default()
            };
            let out = analyze_batch(s, &reqs, &config, &opts);
            // Witnesses included: the union slice derives the full
            // closure's terms inside it, in the same order.
            assert_eq!(out.verdicts, expected, "jobs={jobs}");
            // clerk + clerk2, payroll + payroll2, safe_clerk; ghost has none.
            assert_eq!(out.summary.lists, 3, "jobs={jobs}");
            let mut saturated: HashMap<String, usize> = HashMap::new();
            for g in &out.groups {
                let Some(caps) = s.user(&g.user) else {
                    assert!(g.stats.phases.is_empty(), "{}", g.user);
                    continue;
                };
                let closure = g.stats.phases.get("closure").is_some();
                assert_eq!(closure, g.stats.phases.get("unfold").is_some());
                assert!(g.stats.phases.get("check").is_some(), "{}", g.user);
                assert!(g.stats.program_nodes > 0, "{}", g.user);
                if !closure {
                    let limit = ClosureStats::new(config.term_limit);
                    assert_eq!(g.stats.closure, limit, "{} jobs={jobs}", g.user);
                }
                *saturated.entry(caps.to_string()).or_default() += usize::from(closure);
            }
            assert_eq!(saturated.len(), 3);
            assert!(saturated.values().all(|&n| n == 1), "{saturated:?}");
        }
    }

    #[test]
    fn a_lists_users_share_one_term_budget() {
        // Two users on one list: clerk's goal fits the budget alone, and
        // the union with clerk2's does not, so both fail as a user asking
        // both would, and as full saturation under that budget does.
        let (s, _) = shared_lists();
        let alone = [parse_requirement("(clerk, r_budget(x) : ta)").unwrap()];
        let both = [
            alone[0].clone(),
            parse_requirement("(clerk2, r_salary(x) : pi)").unwrap(),
        ];
        let terms = |reqs: &[Requirement], config: &AnalysisConfig| {
            let opts = BatchOptions {
                collect_stats: true,
                ..BatchOptions::default()
            };
            analyze_batch(&s, reqs, config, &opts).summary.stats.closure
        };
        let fits = terms(&alone, &AnalysisConfig::default()).total_terms() as usize;
        let config = AnalysisConfig {
            term_limit: fits,
            ..AnalysisConfig::default()
        };
        assert!(analyze_batch(&s, &alone, &config, &BatchOptions::default()).verdicts[0].is_ok());
        assert!(
            terms(&both, &config).aborted,
            "the union slice exceeds {fits}"
        );
        for jobs in [1, 2] {
            let opts = BatchOptions {
                jobs,
                ..BatchOptions::default()
            };
            for v in analyze_batch(&s, &both, &config, &opts).verdicts {
                assert_eq!(
                    v,
                    Err(AnalysisError::Closure(ClosureError::TermLimit {
                        limit: fits
                    })),
                    "jobs={jobs}"
                );
            }
        }
        let caps = s.user_str("clerk").unwrap();
        let prog = NProgram::unfold(&s, caps).unwrap();
        let full = config.closure_options(Goal::Full(ProofMode::Off));
        assert!(Closure::saturate(&prog, &full, NoopObserver).0.is_err());
    }

    #[test]
    fn a_closed_sink_stops_the_batch() {
        /// Takes one record, then reports itself closed.
        struct OneRecord(Mutex<Vec<usize>>);
        impl AnalysisSink for OneRecord {
            fn emit(&self, record: GroupRecord) {
                self.0.lock().unwrap().push(record.group_index);
            }
            fn closed(&self) -> bool {
                !self.0.lock().unwrap().is_empty()
            }
        }
        let s = schema();
        let reqs = batch_reqs();
        let sink = OneRecord(Mutex::default());
        let opts = BatchOptions::default();
        let summary =
            analyze_batch_streaming(&s, &reqs, &AnalysisConfig::default(), &opts, None, &sink);
        assert_eq!(summary.groups, 4);
        assert_eq!(sink.0.into_inner().unwrap(), [0]);
    }

    #[test]
    fn each_record_is_emitted_as_its_group_completes() {
        /// Reads the cache's miss count at the first record it receives.
        struct FirstEmit<'c> {
            cache: &'c ClosureCache,
            misses: Mutex<Option<u64>>,
        }
        impl AnalysisSink for FirstEmit<'_> {
            fn emit(&self, _: GroupRecord) {
                let mut misses = self.misses.lock().unwrap();
                misses.get_or_insert(self.cache.stats().misses);
            }
        }
        // Three users on three distinct lists: each list misses the fresh
        // cache once, so the miss count at the first record says how many
        // lists had been saturated when it left.
        let s = schema();
        let reqs: Vec<_> = [
            "(clerk, r_salary(x) : ti)",
            "(safe_clerk, r_salary(x) : ti)",
            "(payroll, r_salary(x) : ti)",
        ]
        .iter()
        .map(|r| parse_requirement(r).unwrap())
        .collect();
        let cache = ClosureCache::default();
        let sink = FirstEmit {
            cache: &cache,
            misses: Mutex::default(),
        };
        let opts = BatchOptions::default();
        let config = AnalysisConfig::default();
        let summary = analyze_batch_streaming(&s, &reqs, &config, &opts, Some(&cache), &sink);
        assert_eq!(sink.misses.into_inner().unwrap(), Some(1));
        assert_eq!(summary.cache_stats, Some(cache.stats()));
        assert_eq!((cache.stats().hits, cache.stats().misses), (0, 3));
    }

    #[test]
    fn batch_on_empty_input_is_empty() {
        let s = schema();
        let out = analyze_batch(
            &s,
            &[],
            &AnalysisConfig::default(),
            &BatchOptions::default(),
        );
        assert!(out.verdicts.is_empty());
        assert!(out.groups.is_empty());
    }
}

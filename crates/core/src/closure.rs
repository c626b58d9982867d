//! The closure engine: semi-naive saturation of `F(F)` with proof recording.
//!
//! Terms are interned as packed [`TermId`] keys kept in an insertion-order
//! log; dense per-expression capability tables (indexed by `ExprId` and
//! sized from the [`NProgram`]) replace hash-map indexes on the hot path. A
//! worklist drives propagation, so every rule fires once per new premise.
//!
//! The worklist is evaluated as a semi-naive delta fixpoint over
//! SIMD-width kernels: chunk-padded bit-grid mirrors of the capability
//! tables — the dense ones carved from one bump arena ([`crate::arena`]),
//! the sparse pi* pair grids allocated lazily on first touch — answer the
//! dedup probe with a mask test (no hashing at all: the mirrors are exact,
//! so the interned set degenerates to an append-only log), bulk row checks
//! run as branch-free 4×u64 lane loops ([`crate::kernels`]) that either
//! skip a whole scan or materialize its not-yet-mirrored difference row as
//! a per-entry prefilter, and per-node dirty kind-masks skip local-rule
//! evaluations whose premise tables have not changed since the node's
//! rules last ran. None of it may reorder what does run: the closure —
//! insertion order, rounds, witnesses and proofs — is exactly the one the
//! unoptimised traversal in [`crate::reference`] computes (see DESIGN.md
//! §12 and §16 for the exactness argument).
//!
//! Proof recording is a mode: under [`ProofMode::Full`] every derived term
//! records the rule label and the exact premise terms that produced it,
//! which is what lets [`crate::report`] print Figure-1 style derivations.
//! Under [`ProofMode::Off`] the engine keeps only membership — the
//! `analyze` fast path, where a derivation map would roughly double the
//! allocation volume for data nobody reads.
//!
//! Termination: the term universe is finite — origins range over
//! `{0..N} × {+,−}` for `N` numbered occurrences, so there are at most
//! `O(N²)` capability terms, `O(N²)` equalities and `O(N³)` pi* terms. A
//! configurable budget aborts pathological closures long before memory
//! pressure.
//!
//! Determinism: every iteration the engine performs is over `Vec`s in
//! insertion order or keyed lookups — never a full hash-map scan — so two
//! runs over the same program produce the same term set *and* the same
//! witness origins. [`crate::reference`] keeps a slow-path twin of this
//! traversal for differential testing.

use crate::arena::{Bump, Csr, Span};
use crate::basics::{kind, rules_for, LCap, LTerm, LocalRule, Slot};
use crate::demand::{DemandPlan, GoalTracker};
use crate::fxhash::FxHashMap;
use crate::kernels::{self, ExceptMask};
use crate::rules::{axioms_with, labels, RuleConfig};
use crate::stats::{ClosureObserver, ClosureStats, NoopObserver};
use crate::term::{Dir, Origin, Term, TermId};
use crate::unfold::{ExprId, NKind, NProgram};
use oodb_lang::BasicOp;
use oodb_model::AttrName;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;

/// How a term entered the closure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Derivation {
    /// Rule label (Figure-1 style).
    pub rule: &'static str,
    /// The premise terms, in rule order. Empty for axioms.
    pub premises: Vec<Term>,
}

/// Whether the engine records a [`Derivation`] per term.
///
/// `Full` is required by anything that prints proofs ([`crate::report`],
/// the CLI `--explain` path); `Off` answers membership queries only and
/// allocates nothing per derived term beyond the interned key.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProofMode {
    /// Record rule label + premises for every term.
    #[default]
    Full,
    /// Record membership only; [`Closure::proof`] always returns `None`.
    Off,
}

/// The saturation engine selector, kept only as a compatibility shim: the
/// frozen `perfbench` benchmark crate reads
/// [`AnalysisConfig::saturation`](crate::algorithm::AnalysisConfig) and
/// passes it to [`Closure::compute_demand_with_stats_saturation`]. There is
/// one engine, so the type has one variant and selects nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SaturationMode {
    /// The chunked semi-naive engine (the only one).
    #[default]
    Chunked,
}

/// What one saturation run derives.
#[derive(Clone, Copy, Debug)]
pub enum Goal<'d> {
    /// Every derivable term, recording proofs per the [`ProofMode`].
    Full(ProofMode),
    /// Demand-driven closure: derive only terms whose mentions lie inside
    /// the plan's relevance slice and stop as soon as the plan's goals are
    /// all decided (see [`crate::demand`]). On the sliced expressions the
    /// result is term- and witness-identical to full saturation (or a
    /// prefix of it when the run early-exits with every goal derived —
    /// which fixes the verdict either way). Proofs are never recorded:
    /// demand runs exist for the membership-only verdict path, and
    /// explanations stay on full saturation.
    Demand(&'d DemandPlan),
}

/// Everything one [`Closure::saturate`] run is parameterised by.
#[derive(Clone, Copy, Debug)]
pub struct ClosureOptions<'d> {
    /// Rule groups (ablation).
    pub rules: RuleConfig,
    /// Term budget; exceeding it aborts with [`ClosureError::TermLimit`].
    pub term_limit: usize,
    /// Full saturation (with or without proofs) or a demand slice.
    pub goal: Goal<'d>,
}

impl Default for ClosureOptions<'_> {
    /// Default rules and budget, full saturation with proofs.
    fn default() -> Self {
        ClosureOptions {
            rules: RuleConfig::default(),
            term_limit: DEFAULT_TERM_LIMIT,
            goal: Goal::Full(ProofMode::Full),
        }
    }
}

/// Closure failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClosureError {
    /// The term budget was exhausted.
    TermLimit {
        /// The configured budget.
        limit: usize,
    },
}

impl fmt::Display for ClosureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClosureError::TermLimit { limit } => {
                write!(f, "closure exceeded the budget of {limit} terms")
            }
        }
    }
}

impl std::error::Error for ClosureError {}

/// Default term budget.
pub const DEFAULT_TERM_LIMIT: usize = 2_000_000;

/// The computed closure of all derivable `F(F)` terms for one unfolded
/// program.
///
/// Capability lookups (`has_ta` … `equal_to`) are O(1) reads of dense
/// tables indexed by `ExprId`; `contains` reads the same tables. The
/// interned-term payload is a single bump slab: an insertion-ordered
/// [`TermId`] log, which is all the engine needs once the bit mirrors
/// answer membership (see DESIGN.md §16).
#[derive(Debug)]
pub struct Closure {
    log: Vec<TermId>,
    /// Positional proof store: aligned with `log` under
    /// [`ProofMode::Full`] (entry `i` proves `log[i]`), empty under
    /// [`ProofMode::Off`]. Appending is a plain push — no hashing on the
    /// insertion path, which warm restarts re-absorbing whole closures
    /// care about. By-term lookup goes through a lazily built index.
    proofs: Vec<Derivation>,
    /// Term → `log` position, built on first [`Closure::proof`] call (the
    /// cold provenance/report paths); never built by saturation itself.
    proof_index: std::sync::OnceLock<FxHashMap<TermId, u32>>,
    mode: ProofMode,
    ta: Vec<bool>,
    pa: Vec<bool>,
    ti: Vec<Vec<Origin>>,
    pi: Vec<Vec<Origin>>,
    pistar: Vec<Vec<(ExprId, Origin)>>,
    eq: Vec<Vec<ExprId>>,
    rounds: usize,
    early_exit: bool,
}

impl Closure {
    /// Compute the closure with default configuration and budget
    /// ([`ClosureOptions::default`]).
    pub fn compute(prog: &NProgram) -> Result<Closure, ClosureError> {
        Self::saturate(prog, &ClosureOptions::default(), NoopObserver).0
    }

    /// Saturate `prog` under `opts`, reporting into `obs` and handing it
    /// back — also when the run aborts on the term budget, so a
    /// [`ClosureStats`] observer can show how far the saturation got. Pass
    /// [`NoopObserver`] for an uninstrumented run: the observer is
    /// monomorphised, so its callbacks then compile to nothing.
    pub fn saturate<O: ClosureObserver>(
        prog: &NProgram,
        opts: &ClosureOptions<'_>,
        obs: O,
    ) -> (Result<Closure, ClosureError>, O) {
        Engine::new(prog, opts, obs).run()
    }

    /// Compatibility shim for the frozen `perfbench` benchmark crate, which
    /// calls exactly this signature: a demand run with [`ClosureStats`].
    /// `_sat` selects nothing (see [`SaturationMode`]). New code calls
    /// [`Closure::saturate`].
    pub fn compute_demand_with_stats_saturation(
        prog: &NProgram,
        config: &RuleConfig,
        limit: usize,
        plan: &DemandPlan,
        _sat: SaturationMode,
    ) -> (Result<Closure, ClosureError>, ClosureStats) {
        let opts = ClosureOptions {
            rules: *config,
            term_limit: limit,
            goal: Goal::Demand(plan),
        };
        Self::saturate(prog, &opts, ClosureStats::new(limit))
    }

    /// Warm-restart saturation for incremental maintenance
    /// (see [`crate::incremental`]): rebuild the fixpoint of `prog` from a
    /// set of already-proved `survivors` instead of from the axioms alone.
    ///
    /// Every survivor (with its translated [`Derivation`]) is *absorbed* —
    /// inserted into the log, proof store, tables and delta mirrors without
    /// being scheduled for propagation. The axioms are then re-seeded
    /// (survivor axioms dedup to no-ops; axioms new to `prog` enqueue), the
    /// caller's `frontier` terms are pushed onto the worklist, and the
    /// engine drains to fixpoint. Soundness needs only that the survivors
    /// are genuinely derivable in `prog`; completeness needs the frontier
    /// to contain every survivor that could feed a rule instance whose
    /// conclusion is missing — the retraction layer's frontier computation
    /// establishes exactly that.
    ///
    /// Proofs are always recorded ([`ProofMode::Full`]): the incremental
    /// layer's deletion cascade walks them on the next edit, and
    /// [`certify`](crate::checker) re-validates them. Absorb maintains the
    /// same mirrors and dirty masks `derive` would.
    pub fn saturate_from(
        prog: &NProgram,
        config: &RuleConfig,
        limit: usize,
        survivors: impl IntoIterator<Item = (Term, Derivation)>,
        frontier: &[Term],
    ) -> Result<Closure, ClosureError> {
        let opts = ClosureOptions {
            rules: *config,
            term_limit: limit,
            goal: Goal::Full(ProofMode::Full),
        };
        let mut engine = Engine::new(prog, &opts, NoopObserver);
        for (t, d) in survivors {
            engine.absorb(t, d)?;
        }
        engine.seed()?;
        for &t in frontier {
            engine.queue.push_back(t);
        }
        engine.drain()?;
        let mut out = engine.out;
        out.early_exit = false;
        Ok(out)
    }

    /// Number of terms in the closure.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// Is the closure empty (only possible for empty programs)?
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Number of worklist steps taken (for the scaling experiments).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The proof mode the closure was computed under.
    pub fn proof_mode(&self) -> ProofMode {
        self.mode
    }

    /// Did a demand-driven run stop before draining its worklist because
    /// every goal was already derived? Always `false` for full saturation.
    pub fn early_exited(&self) -> bool {
        self.early_exit
    }

    /// Allocated capacity of the interned term log (for occupancy stats).
    pub fn interner_capacity(&self) -> usize {
        self.log.capacity()
    }

    /// Does the closure contain this exact term?
    ///
    /// Pair terms (`pi*`, `=`) are stored normalised (`a < b`, the only
    /// shape [`Term::pi_star`]/[`Term::eq`] construct), so an
    /// un-normalised probe answers `false` — exactly as the interned-set
    /// probe it replaces did.
    pub fn contains(&self, t: &Term) -> bool {
        match *t {
            Term::Ta(e) => self.has_ta(e),
            Term::Pa(e) => self.has_pa(e),
            Term::Ti(e, o) => self.ti.get(e as usize).is_some_and(|os| os.contains(&o)),
            Term::Pi(e, o) => self.pi.get(e as usize).is_some_and(|os| os.contains(&o)),
            Term::PiStar(a, b, o) => {
                a < b
                    && self
                        .pistar
                        .get(a as usize)
                        .is_some_and(|ps| ps.contains(&(b, o)))
            }
            Term::Eq(a, b) => a < b && self.eq.get(a as usize).is_some_and(|es| es.contains(&b)),
        }
    }

    /// Total alterability may be achievable on the occurrence.
    pub fn has_ta(&self, e: ExprId) -> bool {
        self.ta.get(e as usize).copied().unwrap_or(false)
    }

    /// Partial alterability may be achievable.
    pub fn has_pa(&self, e: ExprId) -> bool {
        self.pa.get(e as usize).copied().unwrap_or(false)
    }

    /// Total inferability may be achievable (any origin).
    pub fn has_ti(&self, e: ExprId) -> bool {
        self.ti.get(e as usize).is_some_and(|os| !os.is_empty())
    }

    /// Partial inferability may be achievable (any origin).
    pub fn has_pi(&self, e: ExprId) -> bool {
        self.pi.get(e as usize).is_some_and(|os| !os.is_empty())
    }

    /// The occurrences the user may know to be equal to `e`.
    pub fn equal_to(&self, e: ExprId) -> &[ExprId] {
        self.eq.get(e as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The derivation of a term, if it is in the closure and proofs were
    /// recorded ([`ProofMode::Full`]).
    pub fn proof(&self, t: &Term) -> Option<&Derivation> {
        let i = *self.index().get(&TermId::new(*t))?;
        self.proofs.get(i as usize)
    }

    /// Iterate `(term, derivation)` pairs in insertion order without any
    /// per-term hashing. Empty under [`ProofMode::Off`].
    pub fn iter_proofs(&self) -> impl Iterator<Item = (Term, &Derivation)> {
        self.log.iter().map(|id| id.term()).zip(self.proofs.iter())
    }

    fn index(&self) -> &FxHashMap<TermId, u32> {
        self.proof_index.get_or_init(|| {
            self.log
                .iter()
                .enumerate()
                .map(|(i, id)| (*id, i as u32))
                .collect()
        })
    }

    /// Any `ti` term (with its origin) on the occurrence — the witness used
    /// in reports. Deterministic: the first origin derived.
    pub fn ti_witness(&self, e: ExprId) -> Option<Term> {
        self.ti
            .get(e as usize)
            .and_then(|os| os.first())
            .map(|o| Term::Ti(e, *o))
    }

    /// Any `pi` witness.
    pub fn pi_witness(&self, e: ExprId) -> Option<Term> {
        self.pi
            .get(e as usize)
            .and_then(|os| os.first())
            .map(|o| Term::Pi(e, *o))
    }

    /// Every `ti` origin recorded on the occurrence, in derivation order.
    /// The incremental layer needs the whole row — its canonical witness is
    /// the *minimum* origin, which is insertion-order independent, unlike
    /// [`Closure::ti_witness`]'s first-derived pick.
    pub fn ti_origins(&self, e: ExprId) -> &[Origin] {
        self.ti.get(e as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Every `pi` origin recorded on the occurrence, in derivation order.
    pub fn pi_origins(&self, e: ExprId) -> &[Origin] {
        self.pi.get(e as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterate over all terms in insertion order (decoded from the
    /// interned keys).
    pub fn iter(&self) -> impl Iterator<Item = Term> + '_ {
        self.log.iter().map(|id| id.term())
    }

    /// Test support: overwrite the recorded derivation of a term already in
    /// the closure, returning whether a proof was replaced. Exists so the
    /// soundness suite can corrupt proofs and assert that
    /// [`Closure::certify`](crate::checker) rejects them; the engine never
    /// calls this.
    #[doc(hidden)]
    pub fn replace_proof(&mut self, t: &Term, rule: &'static str, premises: Vec<Term>) -> bool {
        if !self.contains(t) {
            return false;
        }
        let Some(&i) = self.index().get(&TermId::new(*t)) else {
            return false;
        };
        self.proofs[i as usize] = Derivation { rule, premises };
        true
    }
}

/// Interned attribute name: the engine compares attributes by `u32` id in
/// the write-read and congruence loops instead of cloning `String`s.
type AttrId = u32;

/// Demand-mode state carried by the engine: the relevance slice to filter
/// derivations against, the live goal tracker, and the latched stop flag.
struct DemandState<'d> {
    plan: &'d DemandPlan,
    tracker: GoalTracker,
    done: bool,
}

impl<'d> DemandState<'d> {
    fn new(plan: &'d DemandPlan) -> DemandState<'d> {
        let tracker = plan.tracker();
        // Zero tracked goals (every occurrence statically decided or none
        // tracked at all): the verdict needs nothing from saturation.
        let done = tracker.all_decided();
        DemandState {
            plan,
            tracker,
            done,
        }
    }
}

/// A lazily allocated bit table for the sparse per-origin `pi*` pair
/// grids: `rows` rows of `bits_per_row` bits, padded to whole chunks so
/// the same branch-free kernels run on it as on the arena [`Grid`]s. Still
/// its own (lazily zero-mapped) allocation: most rows of a pair grid are
/// never touched, so carving it from the shared bump pool would
/// materialise pages that a fresh zeroed `Vec` leaves uncommitted (see
/// DESIGN.md §16 on which tables live where and why).
#[derive(Clone)]
struct BitGrid {
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BitGrid {
    fn new(rows: usize, bits_per_row: usize) -> BitGrid {
        let words_per_row = kernels::padded_words(bits_per_row);
        BitGrid {
            words_per_row,
            bits: vec![0u64; rows * words_per_row],
        }
    }

    #[inline]
    fn get(&self, row: usize, bit: usize) -> bool {
        let w = row * self.words_per_row + bit / 64;
        (self.bits[w] >> (bit % 64)) & 1 != 0
    }

    #[inline]
    fn set(&mut self, row: usize, bit: usize) {
        let w = row * self.words_per_row + bit / 64;
        self.bits[w] |= 1u64 << (bit % 64);
    }

    #[inline]
    fn row(&self, r: usize) -> &[u64] {
        &self.bits[r * self.words_per_row..(r + 1) * self.words_per_row]
    }
}

/// A chunk-padded bit grid carved out of a shared [`Bump<u64>`] pool. Rows
/// are padded to whole [`kernels::CHUNK_WORDS`]-word chunks, so every bulk
/// row check is a fixed-lane loop with no tail; padding bits can never be
/// set (every write targets a real bit index), so padded lanes read as
/// zero on both sides of a diff and never flip a verdict.
#[derive(Clone, Copy)]
struct Grid {
    span: Span,
    words_per_row: usize,
}

impl Grid {
    fn new(pool: &mut Bump<u64>, rows: usize, bits_per_row: usize) -> Grid {
        let words_per_row = kernels::padded_words(bits_per_row);
        Grid {
            span: pool.alloc(rows * words_per_row),
            words_per_row,
        }
    }

    #[inline]
    fn get(&self, pool: &Bump<u64>, row: usize, bit: usize) -> bool {
        let w = row * self.words_per_row + bit / 64;
        (pool.get(self.span)[w] >> (bit % 64)) & 1 != 0
    }

    #[inline]
    fn set(&self, pool: &mut Bump<u64>, row: usize, bit: usize) {
        let w = row * self.words_per_row + bit / 64;
        pool.get_mut(self.span)[w] |= 1u64 << (bit % 64);
    }

    #[inline]
    fn row<'a>(&self, pool: &'a Bump<u64>, r: usize) -> &'a [u64] {
        &pool.get(self.span)[r * self.words_per_row..(r + 1) * self.words_per_row]
    }
}

/// Bit index of an origin inside a grid row: origins range over
/// `{0..N} × {+,−}`, so `num * 2 + dir` enumerates them densely.
#[inline]
fn origin_bit(o: Origin) -> usize {
    (o.num as usize) * 2 + (o.dir == Dir::Up) as usize
}

/// Mutable delta state of a run: exact bit mirrors of the capability
/// tables plus the per-node dirty masks.
///
/// The grids mirror the `ti`/`pi`/`eq` tables exactly, and the `pistar`
/// table is mirrored per origin: `pi*` pairs can carry several origins, so
/// one pair grid per [`origin_bit`] (allocated lazily, on the first `pi*`
/// insert carrying that origin) keeps membership a single mask test.
/// The four always-present dense grids (`ti`/`pi`/`eq`/`star_any`) and the
/// single-row `ta`/`pa` mirrors — the rows every derive call and every
/// bulk pre-check reads — are [`Span`]s into **one** bump pool, back to
/// back in memory; the sparse pair grids deliberately stay out of it (see
/// [`BitGrid`]). `dirty[node]` accumulates the kinds of premise-shaped
/// terms inserted on the node's slot expressions since the node's local
/// rules last ran — a rule set is only re-evaluated when its premise-kind
/// mask intersects the accumulated mask (see `fire_local_rules`; DESIGN.md
/// §12 proves this skips only evaluations that would derive nothing new).
struct DeltaState {
    pool: Bump<u64>,
    ti: Grid,
    pi: Grid,
    eq: Grid,
    star_by: Vec<Option<BitGrid>>,
    star_any: Grid,
    /// Single-row `ta`/`pa` membership mirrors (bit `e` set ⇔ `ta[e]` /
    /// `pa[e]` is in the closure). The authoritative tables stay in the
    /// closure's dense vectors; these rows exist so the alterability
    /// equality-transfer scan can prefilter with the same row kernels as
    /// the pair grids.
    ta: Grid,
    pa: Grid,
    rows: usize,
    /// Does `pistar[e]` hold any entry with a non-axiom origin? Gates the
    /// non-axiom `pi*` scan in the `Eq` arm and the all-axiom transfer
    /// skip.
    star_mixed: Vec<bool>,
    /// node → kinds (see [`crate::basics::kind`]) inserted on its slot
    /// expressions since the node's local rules last ran.
    dirty: Vec<u8>,
}

impl DeltaState {
    fn new(n: usize) -> DeltaState {
        // The always-present grids, back to back; the capacity is exact,
        // so the pool never regrows.
        let mut pool = Bump::with_capacity(
            2 * n * kernels::padded_words(2 * n)
                + 2 * n * kernels::padded_words(n)
                + 2 * kernels::padded_words(n),
        );
        let ti = Grid::new(&mut pool, n, 2 * n);
        let pi = Grid::new(&mut pool, n, 2 * n);
        let eq = Grid::new(&mut pool, n, n);
        let star_any = Grid::new(&mut pool, n, n);
        let ta = Grid::new(&mut pool, 1, n);
        let pa = Grid::new(&mut pool, 1, n);
        DeltaState {
            pool,
            ti,
            pi,
            eq,
            star_by: vec![None; 2 * n],
            star_any,
            ta,
            pa,
            rows: n,
            star_mixed: vec![false; n],
            dirty: vec![0u8; n],
        }
    }

    #[inline]
    fn star(&self, ob: usize) -> Option<&BitGrid> {
        self.star_by[ob].as_ref()
    }

    #[inline]
    fn ti_get(&self, e: usize, ob: usize) -> bool {
        self.ti.get(&self.pool, e, ob)
    }

    #[inline]
    fn pi_get(&self, e: usize, ob: usize) -> bool {
        self.pi.get(&self.pool, e, ob)
    }

    #[inline]
    fn eq_get(&self, a: usize, b: usize) -> bool {
        self.eq.get(&self.pool, a, b)
    }

    #[inline]
    fn star_get(&self, ob: usize, a: usize, b: usize) -> bool {
        self.star(ob).is_some_and(|g| g.get(a, b))
    }

    #[inline]
    fn ti_set(&mut self, e: usize, ob: usize) {
        self.ti.set(&mut self.pool, e, ob);
    }

    #[inline]
    fn pi_set(&mut self, e: usize, ob: usize) {
        self.pi.set(&mut self.pool, e, ob);
    }

    #[inline]
    fn eq_set_sym(&mut self, a: usize, b: usize) {
        self.eq.set(&mut self.pool, a, b);
        self.eq.set(&mut self.pool, b, a);
    }

    #[inline]
    fn star_any_set_sym(&mut self, a: usize, b: usize) {
        self.star_any.set(&mut self.pool, a, b);
        self.star_any.set(&mut self.pool, b, a);
    }

    #[inline]
    fn star_set_sym(&mut self, ob: usize, a: usize, b: usize) {
        let rows = self.rows;
        let g = self.star_by[ob].get_or_insert_with(|| BitGrid::new(rows, rows));
        g.set(a, b);
        g.set(b, a);
    }

    /// Record a `ta`/`pa` insertion in the single-row mirrors.
    #[inline]
    fn alter_mark(&mut self, e: usize, total: bool) {
        let row = if total { self.ta } else { self.pa };
        row.set(&mut self.pool, 0, e);
    }

    /// Transitivity pre-check: is every eq-partner of `x` already adjacent
    /// to `y` (ignoring `y` itself)?
    #[inline]
    fn eq_trans_skip(&self, x: usize, y: usize) -> bool {
        kernels::row_diff_is_empty(
            self.eq.row(&self.pool, x),
            self.eq.row(&self.pool, y),
            ExceptMask::one(y),
        )
    }

    /// Scan prefilter for the alterability equality transfer: materialize
    /// into `out` the eq-partners of `e` not yet carrying `ta`/`pa`. Same
    /// contract as [`DeltaState::star_join_diff`].
    #[inline]
    fn alter_transfer_diff(&self, total: bool, e: usize, out: &mut Vec<u64>) -> bool {
        let caps = if total { self.ta } else { self.pa };
        kernels::row_diff_into(
            self.eq.row(&self.pool, e),
            caps.row(&self.pool, 0),
            ExceptMask::none(),
            out,
        )
    }

    /// Scan prefilter for the `pi*` composition: materialize into `out` the
    /// bit row of candidates `c` adjacent to `via` whose conclusion
    /// `pi*[(end, c), ob]` is *not* yet mirrored.
    ///
    /// `false` means the difference is empty and the whole scan would
    /// dedup — skip it; `true` means walk the adjacency list in its
    /// insertion order but only call derive where the candidate's bit is
    /// set in `out`. Clear bits are already mirrored and terms are never
    /// removed, so skipping them cannot change what gets inserted or in
    /// which order.
    #[inline]
    fn star_join_diff(&self, ob: usize, via: usize, end: usize, out: &mut Vec<u64>) -> bool {
        let a = self.star_any.row(&self.pool, via);
        let except = ExceptMask::two(end, via);
        match self.star(ob) {
            Some(g) => kernels::row_diff_into(a, g.row(end), except, out),
            None => kernels::row_copy_except_into(a, except, out),
        }
    }

    /// Scan prefilter for the `pi*` equality transfer: candidates `p`
    /// eq-adjacent to `e` whose `pi*[(p, other), ob]` is not yet mirrored.
    /// Same contract as [`DeltaState::star_join_diff`].
    #[inline]
    fn star_eq_transfer_diff(&self, ob: usize, e: usize, other: usize, out: &mut Vec<u64>) -> bool {
        let a = self.eq.row(&self.pool, e);
        let except = ExceptMask::one(other);
        match self.star(ob) {
            Some(g) => kernels::row_diff_into(a, g.row(other), except, out),
            None => kernels::row_copy_except_into(a, except, out),
        }
    }

    /// Capability-transfer pre-check: does `to` already mirror every `ti`
    /// origin `from` carries?
    #[inline]
    fn ti_transfer_skip(&self, from: usize, to: usize) -> bool {
        kernels::row_diff_is_empty(
            self.ti.row(&self.pool, from),
            self.ti.row(&self.pool, to),
            ExceptMask::none(),
        )
    }

    /// Capability-transfer pre-check for `pi`.
    #[inline]
    fn pi_transfer_skip(&self, from: usize, to: usize) -> bool {
        kernels::row_diff_is_empty(
            self.pi.row(&self.pool, from),
            self.pi.row(&self.pool, to),
            ExceptMask::none(),
        )
    }

    /// All-axiom `pi*` transfer pre-check (caller has already established
    /// `from` carries only axiom-origin entries): is every `pi*` partner
    /// of `from` already paired with `to` in the axiom grid `ob`?
    #[inline]
    fn star_axiom_transfer_skip(&self, ob: usize, from: usize, to: usize) -> bool {
        self.star(ob).is_some_and(|g| {
            kernels::row_diff_is_empty(
                self.star_any.row(&self.pool, from),
                g.row(to),
                ExceptMask::one(to),
            )
        })
    }
}

struct Engine<'p, O: ClosureObserver> {
    prog: &'p NProgram,
    config: RuleConfig,
    limit: usize,
    mode: ProofMode,
    obs: O,
    out: Closure,
    queue: VecDeque<Term>,
    // Dense structural indexes, all indexed by `ExprId as usize`, built
    // once from the program and flattened to CSR (one offsets array + one
    // contiguous data array per index — no per-row `Vec` scatter on the
    // hot path; `crate::arena::Csr` preserves build order exactly).
    /// e → basic nodes where e fills a slot (argument or the node itself).
    basic_nodes: Csr<ExprId>,
    /// node → operator and argument ids, inline (basic ops are unary or
    /// binary; 4 slots is structural headroom).
    basic_info: Vec<Option<(BasicOp, [ExprId; 4], u8)>>,
    /// Binary nodes whose diagonal (equal arguments) is informative:
    /// node → (arg0, arg1). See `try_diagonal`.
    diag_args: Vec<Option<(ExprId, ExprId)>>,
    /// Normalised argument pair → diagonal-candidate nodes, in program
    /// order. Keyed lookup (not a scan) keeps traversal deterministic.
    diag_by_pair: FxHashMap<(ExprId, ExprId), Vec<ExprId>>,
    read_by_recv: Csr<ExprId>,
    /// read node → interned attribute.
    read_attr: Vec<Option<AttrId>>,
    writes_by_recv: Csr<(AttrId, ExprId)>,
    /// `new C(…)` node → (interned attribute, argument) pairs.
    ctor_args: Csr<(AttrId, ExprId)>,
    /// Rules per operator, each paired with its premise-kind mask
    /// ([`LocalRule::premise_kinds`]) so a dirty-mask intersection can skip
    /// rules none of whose premise tables changed.
    op_rules: FxHashMap<BasicOp, Rc<[(u8, LocalRule)]>>,
    /// Bit mirrors and dirty masks. The mirrors answer membership exactly
    /// for every term kind, so the engine keeps no hash set at all.
    delta: DeltaState,
    /// Demand mode: slice filter + goal tracking (`None` = full saturation).
    demand: Option<DemandState<'p>>,
    /// Reusable row buffer for the scan prefilters
    /// ([`DeltaState::star_join_diff`] and friends); taken out of the
    /// engine for the duration of a scan so the borrow checker lets derive
    /// calls run against it.
    scratch: Vec<u64>,
}

impl<'p, O: ClosureObserver> Engine<'p, O> {
    fn new(prog: &'p NProgram, opts: &ClosureOptions<'p>, obs: O) -> Engine<'p, O> {
        let n = prog.len() + 1; // ExprIds are 1-based
        let mut basic_nodes: Vec<Vec<ExprId>> = vec![Vec::new(); n];
        let mut basic_info: Vec<Option<(BasicOp, [ExprId; 4], u8)>> = vec![None; n];
        let mut diag_args: Vec<Option<(ExprId, ExprId)>> = vec![None; n];
        let mut diag_by_pair: FxHashMap<(ExprId, ExprId), Vec<ExprId>> = FxHashMap::default();
        let mut read_by_recv: Vec<Vec<ExprId>> = vec![Vec::new(); n];
        let mut read_attr: Vec<Option<AttrId>> = vec![None; n];
        let mut writes_by_recv: Vec<Vec<(AttrId, ExprId)>> = vec![Vec::new(); n];
        let mut ctor_args: Vec<Vec<(AttrId, ExprId)>> = vec![Vec::new(); n];
        let mut op_rules: FxHashMap<BasicOp, Rc<[(u8, LocalRule)]>> = FxHashMap::default();
        let mut attr_ids: HashMap<AttrName, AttrId> = HashMap::new();

        for e in prog.iter() {
            let mut intern = |attr: &AttrName| -> AttrId {
                let next = attr_ids.len() as AttrId;
                *attr_ids.entry(attr.clone()).or_insert(next)
            };
            match &e.kind {
                NKind::Basic(op, args) => {
                    // Unfolding rejects larger arities (`UnfoldError::ArityOverflow`),
                    // so the `as u8` below can never truncate.
                    assert!(
                        args.len() <= crate::unfold::MAX_BASIC_ARITY,
                        "unfold admitted a basic application wider than MAX_BASIC_ARITY"
                    );
                    let mut buf = [0 as ExprId; 4];
                    for (i, a) in args.iter().enumerate() {
                        buf[i] = *a;
                        basic_nodes[*a as usize].push(e.id);
                    }
                    basic_nodes[e.id as usize].push(e.id);
                    basic_info[e.id as usize] = Some((*op, buf, args.len() as u8));
                    op_rules.entry(*op).or_insert_with(|| {
                        rules_for(*op)
                            .into_iter()
                            .map(|r| (r.premise_kinds(), r))
                            .collect::<Vec<_>>()
                            .into()
                    });
                    // Diagonal candidates: ops whose restriction to equal
                    // arguments is injective (x+x = 2x, x*x = x², s++s).
                    if matches!(op, BasicOp::Add | BasicOp::Mul | BasicOp::Concat)
                        && args.len() == 2
                        && args[0] != args[1]
                    {
                        diag_args[e.id as usize] = Some((args[0], args[1]));
                        let pair = (args[0].min(args[1]), args[0].max(args[1]));
                        diag_by_pair.entry(pair).or_default().push(e.id);
                    }
                }
                NKind::Read(attr, recv) => {
                    read_by_recv[*recv as usize].push(e.id);
                    read_attr[e.id as usize] = Some(intern(attr));
                }
                NKind::Write(attr, recv, val) => {
                    writes_by_recv[*recv as usize].push((intern(attr), *val));
                }
                NKind::New(_class, args) => {
                    ctor_args[e.id as usize] =
                        args.iter().map(|(a, id)| (intern(a), *id)).collect();
                }
                _ => {}
            }
        }

        let (mode, demand) = match opts.goal {
            Goal::Full(mode) => (mode, None),
            Goal::Demand(plan) => (ProofMode::Off, Some(DemandState::new(plan))),
        };
        Engine {
            prog,
            config: opts.rules,
            limit: opts.term_limit,
            mode,
            obs,
            out: Closure {
                log: Vec::new(),
                proofs: Vec::new(),
                proof_index: std::sync::OnceLock::new(),
                mode,
                ta: vec![false; n],
                pa: vec![false; n],
                ti: vec![Vec::new(); n],
                pi: vec![Vec::new(); n],
                pistar: vec![Vec::new(); n],
                eq: vec![Vec::new(); n],
                rounds: 0,
                early_exit: false,
            },
            queue: VecDeque::new(),
            basic_nodes: Csr::from_nested(basic_nodes),
            basic_info,
            diag_args,
            diag_by_pair,
            read_by_recv: Csr::from_nested(read_by_recv),
            read_attr,
            writes_by_recv: Csr::from_nested(writes_by_recv),
            ctor_args: Csr::from_nested(ctor_args),
            op_rules,
            delta: DeltaState::new(n),
            demand,
            scratch: Vec::new(),
        }
    }

    fn run(mut self) -> (Result<Closure, ClosureError>, O) {
        let result = self.saturate();
        if result.is_err() {
            self.obs.aborted();
        }
        self.obs
            .interner(self.out.log.capacity(), self.mode == ProofMode::Full);
        if let Some(d) = &self.demand {
            self.obs.demand(d.plan.slice_len(), self.out.early_exit);
        }
        (result.map(|_| self.out), self.obs)
    }

    /// Demand mode only: have all goals been derived? Closure growth is
    /// monotone, so once this latches the verdict (and every witness term,
    /// each fixed at its first insertion) can no longer change — saturating
    /// further would only add terms the verdict check never reads.
    #[inline]
    fn goals_decided(&self) -> bool {
        self.demand.as_ref().is_some_and(|d| d.done)
    }

    fn saturate(&mut self) -> Result<(), ClosureError> {
        if self.goals_decided() {
            self.out.early_exit = true;
            return Ok(());
        }
        self.seed()?;
        if self.out.early_exit {
            return Ok(());
        }
        self.drain()
    }

    /// Derive the program's premise-free facts: the Table-2 axioms plus the
    /// constructor-read direct equalities. Both are functions of program
    /// structure alone, which is what lets a warm restart
    /// ([`Closure::saturate_from`]) re-seed them against an absorbed term
    /// set — survivors dedup to no-ops, genuinely new facts enqueue.
    fn seed(&mut self) -> Result<(), ClosureError> {
        for (t, rule) in axioms_with(self.prog, self.config.printable_oids) {
            self.derive(t, rule, &[])?;
            if self.goals_decided() {
                self.out.early_exit = true;
                return Ok(());
            }
        }
        // Constructor-read on direct receivers: r_att(new C(…)) reads the
        // matching constructor argument without needing an equality step.
        if self.config.write_read {
            let mut direct: Vec<Term> = Vec::new();
            for e in self.prog.iter() {
                if let NKind::Read(_, recv) = &e.kind {
                    let attr = self.read_attr[e.id as usize].expect("read nodes have attributes");
                    if let Some(arg) = self.ctor_arg(*recv, attr) {
                        if let Some(t) = Term::eq(arg, e.id) {
                            direct.push(t);
                        }
                    }
                }
            }
            for t in direct {
                self.derive(t, labels::RULE_EQ, &[])?;
            }
        }
        Ok(())
    }

    /// Pop-and-propagate until the worklist is empty (or, in demand mode,
    /// until every goal is decided).
    fn drain(&mut self) -> Result<(), ClosureError> {
        if self.goals_decided() {
            self.out.early_exit = true;
            return Ok(());
        }
        while let Some(t) = self.queue.pop_front() {
            self.out.rounds += 1;
            self.obs.round();
            self.propagate(t)?;
            if self.goals_decided() {
                self.out.early_exit = true;
                return Ok(());
            }
        }
        Ok(())
    }

    /// Insert a term **without** scheduling it for propagation: the warm
    /// path of [`Closure::saturate_from`]. The term lands in the log, the
    /// proof store, the dense tables, the bit mirrors and the dirty
    /// kind-masks, exactly as [`Engine::derive`] would put it there, but
    /// the worklist is left alone. Re-marking the dirty
    /// masks for every absorbed term is deliberate: local rules only
    /// re-evaluate when a later *popped* term visits the node, so the cost
    /// stays proportional to what actually propagates while the masks never
    /// under-approximate what an absorbed premise could feed.
    fn absorb(&mut self, t: Term, deriv: Derivation) -> Result<(), ClosureError> {
        debug_assert!(self.demand.is_none(), "warm restarts are full-saturation");
        if self.mirror_contains(&t) {
            return Ok(());
        }
        if self.out.log.len() >= self.limit {
            return Err(ClosureError::TermLimit { limit: self.limit });
        }
        self.out.log.push(TermId::new(t));
        if self.mode == ProofMode::Full {
            self.out.proofs.push(deriv);
        }
        match t {
            Term::Ta(e) => self.out.ta[e as usize] = true,
            Term::Pa(e) => self.out.pa[e as usize] = true,
            Term::Ti(e, o) => self.out.ti[e as usize].push(o),
            Term::Pi(e, o) => self.out.pi[e as usize].push(o),
            Term::PiStar(a, b, o) => {
                self.out.pistar[a as usize].push((b, o));
                self.out.pistar[b as usize].push((a, o));
            }
            Term::Eq(a, b) => {
                self.out.eq[a as usize].push(b);
                self.out.eq[b as usize].push(a);
            }
        }
        self.note_delta(&t);
        Ok(())
    }

    /// The constructor argument feeding attribute `attr` when `e` is a
    /// `new C(…)` node (unfolding pairs each constructor argument with the
    /// attribute it initialises).
    fn ctor_arg(&self, e: ExprId, attr: AttrId) -> Option<ExprId> {
        self.ctor_args
            .row(e as usize)
            .iter()
            .find(|(a, _)| *a == attr)
            .map(|(_, id)| *id)
    }

    /// Membership probe: do the bit mirrors prove the term is already in
    /// the closure? Exact, never over-approximate: bits are set only when a
    /// term actually lands in the tables (after the budget check), which is
    /// why the engine needs no hash set at all.
    #[inline]
    fn mirror_contains(&self, t: &Term) -> bool {
        let d = &self.delta;
        match *t {
            Term::Ta(e) => self.out.ta[e as usize],
            Term::Pa(e) => self.out.pa[e as usize],
            Term::Ti(e, o) => d.ti_get(e as usize, origin_bit(o)),
            Term::Pi(e, o) => d.pi_get(e as usize, origin_bit(o)),
            Term::Eq(a, b) => d.eq_get(a as usize, b as usize),
            Term::PiStar(a, b, o) => d.star_get(origin_bit(o), a as usize, b as usize),
        }
    }

    /// Record an inserted term in the bit mirrors and mark the nodes whose
    /// local rules gained a premise-shaped fact as dirty. `Eq` marks no
    /// node: local rules have no equality premises (equalities reach them
    /// indirectly, through the capability terms `transfer_all_caps`
    /// derives, which mark on their own insertion).
    #[inline]
    fn note_delta(&mut self, t: &Term) {
        let delta = &mut self.delta;
        match *t {
            Term::Ta(e) => {
                delta.alter_mark(e as usize, true);
                for &node in self.basic_nodes.row(e as usize) {
                    delta.dirty[node as usize] |= kind::TA;
                }
            }
            Term::Pa(e) => {
                delta.alter_mark(e as usize, false);
                for &node in self.basic_nodes.row(e as usize) {
                    delta.dirty[node as usize] |= kind::PA;
                }
            }
            Term::Ti(e, o) => {
                delta.ti_set(e as usize, origin_bit(o));
                for &node in self.basic_nodes.row(e as usize) {
                    delta.dirty[node as usize] |= kind::TI;
                }
            }
            Term::Pi(e, o) => {
                delta.pi_set(e as usize, origin_bit(o));
                for &node in self.basic_nodes.row(e as usize) {
                    delta.dirty[node as usize] |= kind::PI;
                }
            }
            Term::PiStar(a, b, o) => {
                delta.star_any_set_sym(a as usize, b as usize);
                if o != Origin::AXIOM {
                    delta.star_mixed[a as usize] = true;
                    delta.star_mixed[b as usize] = true;
                }
                delta.star_set_sym(origin_bit(o), a as usize, b as usize);
                for e in [a, b] {
                    for &node in self.basic_nodes.row(e as usize) {
                        delta.dirty[node as usize] |= kind::PISTAR;
                    }
                }
            }
            Term::Eq(a, b) => {
                // Both directions: the mirror probe only needs the
                // normalised `(a, b)` bit, but the bulk transitivity test
                // reads rows as adjacency sets.
                delta.eq_set_sym(a as usize, b as usize);
            }
        }
    }

    /// Attempt one conclusion: dedup it against the mirrors or insert it
    /// and queue it for propagation.
    fn derive(
        &mut self,
        t: Term,
        rule: &'static str,
        premises: &[Term],
    ) -> Result<(), ClosureError> {
        // Demand filter, ahead of `derive_attempt` so the stats invariant
        // `derive_calls == dedup_hits + total_terms` holds in every mode.
        // Dropping the term is sound: the slice is closed under the rule
        // premise shapes, so nothing mentioning only sliced expressions is
        // ever derivable *through* an unsliced one.
        if let Some(d) = &self.demand {
            if !d.plan.covers(&t) {
                self.obs.sliced_out();
                return Ok(());
            }
        }
        self.obs.derive_attempt();
        self.obs.rule_fired(rule);
        // The bit mirrors prove membership without hashing — the dominant
        // outcome on equality-dense programs, where >99% of derive calls
        // are dedup-rejected re-derivations. The mirrors are exact, so this
        // is the *only* dedup check.
        if self.mirror_contains(&t) {
            self.obs.dedup_hit();
            return Ok(());
        }
        if self.out.log.len() >= self.limit {
            return Err(ClosureError::TermLimit { limit: self.limit });
        }
        self.out.log.push(TermId::new(t));
        self.obs.term_inserted(&t, rule);
        if self.mode == ProofMode::Full {
            self.out.proofs.push(Derivation {
                rule,
                premises: premises.to_vec(),
            });
        }
        match t {
            Term::Ta(e) => self.out.ta[e as usize] = true,
            Term::Pa(e) => self.out.pa[e as usize] = true,
            Term::Ti(e, o) => self.out.ti[e as usize].push(o),
            Term::Pi(e, o) => self.out.pi[e as usize].push(o),
            Term::PiStar(a, b, o) => {
                self.out.pistar[a as usize].push((b, o));
                self.out.pistar[b as usize].push((a, o));
            }
            Term::Eq(a, b) => {
                self.out.eq[a as usize].push(b);
                self.out.eq[b as usize].push(a);
            }
        }
        // After the budget check: an aborted insert must leave no trace in
        // the mirrors or the dirty masks.
        self.note_delta(&t);
        if let Some(d) = &mut self.demand {
            if d.tracker.on_insert(&t) {
                d.done = true;
            }
        }
        self.queue.push_back(t);
        self.obs.worklist_len(self.queue.len());
        Ok(())
    }

    fn propagate(&mut self, t: Term) -> Result<(), ClosureError> {
        match t {
            Term::Ta(e) => {
                // Lattice.
                self.derive(Term::Pa(e), labels::LATTICE, &[t])?;
                // Receiver alterability: steering the receiver over the
                // extent reaches at least the attribute values already
                // present — partial alterability (total comes only through
                // write-read equality).
                for k in 0..self.read_by_recv.row(e as usize).len() {
                    let n = self.read_by_recv.row(e as usize)[k];
                    self.derive(Term::Pa(n), labels::READ_RECEIVER, &[t])?;
                }
                self.transfer_by_eq(t, e)?;
                self.fire_local_rules(e)?;
            }
            Term::Pa(e) => {
                for k in 0..self.read_by_recv.row(e as usize).len() {
                    let n = self.read_by_recv.row(e as usize)[k];
                    self.derive(Term::Pa(n), labels::READ_RECEIVER, &[t])?;
                }
                self.transfer_by_eq(t, e)?;
                self.fire_local_rules(e)?;
            }
            Term::Ti(e, o) => {
                self.derive(Term::Pi(e, o), labels::LATTICE, &[t])?;
                self.transfer_by_eq(t, e)?;
                self.fire_local_rules(e)?;
                self.try_diagonal(e)?;
            }
            Term::Pi(e, o) => {
                // pi-join: another pi with a different origin → ti. The
                // join fires symmetrically — the partner origin may have
                // been popped before any second origin existed, so its own
                // ti would otherwise depend on queue order. Deriving both
                // sides keeps the closure a function of the term set alone,
                // which warm restarts (incremental maintenance) rely on.
                if self.config.pi_join {
                    let other = self.out.pi[e as usize].iter().find(|o2| **o2 != o).copied();
                    if let Some(o2) = other {
                        self.derive(Term::Ti(e, o), labels::PI_JOIN, &[Term::Pi(e, o2), t])?;
                        self.derive(Term::Ti(e, o2), labels::PI_JOIN, &[t, Term::Pi(e, o2)])?;
                    }
                }
                self.transfer_by_eq(t, e)?;
                self.fire_local_rules(e)?;
                self.try_diagonal(e)?;
            }
            Term::PiStar(a, b, o) => {
                if self.config.pi_star {
                    // Joint constraint on equals (see the Eq arm).
                    let eq = Term::Eq(a, b);
                    if o != Origin::AXIOM && self.mirror_contains(&eq) {
                        for x in [a, b] {
                            if !self.delta.pi_get(x as usize, origin_bit(o)) {
                                self.derive(Term::Pi(x, o), labels::PI_STAR_ON_EQUALS, &[eq, t])?;
                            }
                        }
                    }
                    // Compose pi* chains. The snapshot length bounds the
                    // loop: anything appended mid-loop is requeued anyway.
                    // The entries' own origins don't matter: the conclusion
                    // carries the popped origin `o`, so `star_any[via]`
                    // lists the candidate `c`s and the `o` pair grid proves
                    // presence (it exists — the popped term is mirrored).
                    //
                    // One `row_diff_into` materializes the not-yet-mirrored
                    // candidates; an empty diff skips the scan outright, a
                    // non-empty one prefilters each entry with a single bit
                    // test instead of a derive call (the adjacency walk
                    // order — hence insertion order and witnesses — is
                    // untouched).
                    let mut scratch = std::mem::take(&mut self.scratch);
                    for (end, via) in [(a, b), (b, a)] {
                        if !self.delta.star_join_diff(
                            origin_bit(o),
                            via as usize,
                            end as usize,
                            &mut scratch,
                        ) {
                            continue;
                        }
                        let len = self.out.pistar[via as usize].len();
                        for k in 0..len {
                            let (c, o2) = self.out.pistar[via as usize][k];
                            // The adjacency list repeats a candidate once
                            // per origin it was inserted under, but the
                            // conclusion depends only on `c`: after the
                            // first visit it is mirrored either way, so
                            // clear the bit and let the duplicates fall
                            // through the prefilter.
                            if !kernels::row_bit(&scratch, c as usize) {
                                continue;
                            }
                            kernels::row_clear_bit(&mut scratch, c as usize);
                            if c != end && c != via {
                                if let Some(nt) = Term::pi_star(end, c, o) {
                                    let other =
                                        Term::pi_star(via, c, o2).expect("stored pi* is proper");
                                    self.derive(nt, labels::PI_STAR_JOIN, &[t, other])?;
                                }
                            }
                        }
                    }
                    self.scratch = scratch;
                    // Transfer across equalities.
                    self.transfer_by_eq(t, a)?;
                    self.transfer_by_eq(t, b)?;
                    self.fire_local_rules(a)?;
                    self.fire_local_rules(b)?;
                }
            }
            Term::Eq(a, b) => {
                // Transitivity. Bulk pre-check: every partner of `x`
                // already adjacent to `y` means the whole scan would dedup
                // — one row test replaces O(clique) derive calls, which is
                // where saturated equality cliques spend their time.
                for (x, y) in [(a, b), (b, a)] {
                    if self.delta.eq_trans_skip(x as usize, y as usize) {
                        continue;
                    }
                    let len = self.out.eq[x as usize].len();
                    for k in 0..len {
                        let c = self.out.eq[x as usize][k];
                        if let Some(nt) = Term::eq(c, y) {
                            let prem = Term::eq(x, c).expect("adjacency implies distinct");
                            self.derive(nt, labels::RULE_EQ, &[t, prem])?;
                        }
                    }
                }
                // Attribute congruence: r_att(a) = r_att(b).
                for i in 0..self.read_by_recv.row(a as usize).len() {
                    let ra = self.read_by_recv.row(a as usize)[i];
                    for j in 0..self.read_by_recv.row(b as usize).len() {
                        let rb = self.read_by_recv.row(b as usize)[j];
                        if self.read_attr[ra as usize] == self.read_attr[rb as usize] {
                            if let Some(nt) = Term::eq(ra, rb) {
                                self.derive(nt, labels::RULE_EQ, &[t])?;
                            }
                        }
                    }
                }
                if self.config.write_read {
                    // Write-read: w_att(a, v) and r_att(b) ⇒ v = r_att(b).
                    for (wrecv, rrecv) in [(a, b), (b, a)] {
                        for i in 0..self.writes_by_recv.row(wrecv as usize).len() {
                            let (attr, val) = self.writes_by_recv.row(wrecv as usize)[i];
                            for j in 0..self.read_by_recv.row(rrecv as usize).len() {
                                let r = self.read_by_recv.row(rrecv as usize)[j];
                                if self.read_attr[r as usize] == Some(attr) {
                                    if let Some(nt) = Term::eq(val, r) {
                                        self.derive(nt, labels::RULE_EQ, &[t])?;
                                    }
                                }
                            }
                        }
                        // Constructor-read: new C(…,a_j,…) = wrecv side.
                        for j in 0..self.read_by_recv.row(rrecv as usize).len() {
                            let r = self.read_by_recv.row(rrecv as usize)[j];
                            if let Some(attr) = self.read_attr[r as usize] {
                                if let Some(arg) = self.ctor_arg(wrecv, attr) {
                                    if let Some(nt) = Term::eq(arg, r) {
                                        self.derive(nt, labels::RULE_EQ, &[t])?;
                                    }
                                }
                            }
                        }
                    }
                }
                // Joint constraint on equals: a (non-equality-derived)
                // pi* between two expressions the user knows to be equal
                // restricts the shared value itself — the diagonal of the
                // joint set may be a proper subset (I(E): join of rule 5
                // with the joint term).
                if self.config.pi_star
                    // The scan only looks for non-axiom entries; skip it
                    // when the mirror proves there are none.
                    && self.delta.star_mixed[a as usize]
                {
                    let len = self.out.pistar[a as usize].len();
                    for k in 0..len {
                        let (x, o) = self.out.pistar[a as usize][k];
                        if x == b && o != Origin::AXIOM {
                            let star = Term::pi_star(a, b, o).expect("stored pi* is proper");
                            for y in [a, b] {
                                if !self.delta.pi_get(y as usize, origin_bit(o)) {
                                    self.derive(
                                        Term::Pi(y, o),
                                        labels::PI_STAR_ON_EQUALS,
                                        &[t, star],
                                    )?;
                                }
                            }
                        }
                    }
                }
                // Diagonal: the equality may pair the two arguments of a
                // candidate node. Keyed lookup — `Term::eq` normalises, so
                // `(a, b)` is already the normalised pair.
                let n_hits = self.diag_by_pair.get(&(a, b)).map_or(0, |v| v.len());
                for k in 0..n_hits {
                    let node = self.diag_by_pair[&(a, b)][k];
                    self.try_diagonal(node)?;
                }
                // pi* from equality. On a large clique almost every pop
                // re-derives an existing axiom pair; the pair grid answers
                // that in one probe.
                if self.config.pi_star {
                    if let Some(nt) = Term::pi_star(a, b, Origin::AXIOM) {
                        if !self.mirror_contains(&nt) {
                            self.derive(nt, labels::PI_STAR_FROM_EQ, &[t])?;
                        }
                    }
                }
                // Capability transfer in both directions.
                if self.config.eq_transfer {
                    self.transfer_all_caps(a, b, t)?;
                    self.transfer_all_caps(b, a, t)?;
                }
            }
        }
        Ok(())
    }

    /// Diagonal inversion (reconstruction of the I(E) join of Table 1's
    /// rule 5 with a basic-function dependency): when the two arguments of
    /// `e1 ⊕ e2` are known equal, the node computes an injective function of
    /// that shared value (`x+x`, `x*x` up to the pessimistic reading,
    /// `s++s`), so inferability of the result transfers to the arguments:
    ///
    /// ```text
    /// =[e1,e2], ti[⊕(e1,e2), n, d] → ti[e1, l, −], ti[e2, l, −]   (n ≠ l)
    /// =[e1,e2], pi[⊕(e1,e2), n, d] → pi[e1, l, −], pi[e2, l, −]   (n ≠ l)
    /// ```
    ///
    /// Without this rule the analysis misses flaws like
    /// `w_a0(c, r_a1(c) + r_a1(c))` + granted `r_a0` — the user reads 2·a1
    /// and halves it (found by the differential experiment E3).
    fn try_diagonal(&mut self, node: ExprId) -> Result<(), ClosureError> {
        if !self.config.basic_rules {
            return Ok(());
        }
        let Some((a, b)) = self.diag_args[node as usize] else {
            return Ok(());
        };
        let eq = Term::eq(a, b).expect("diagonal args are distinct");
        if !self.mirror_contains(&eq) {
            return Ok(());
        }
        let origin = Origin::new(node, Dir::Up);
        let no_guard = !self.config.feedback_guard;
        let guard_ok = move |o: &Origin| no_guard || o.num != node;
        let ti_src = self.out.ti[node as usize]
            .iter()
            .copied()
            .find(|o| guard_ok(o));
        if let Some(o) = ti_src {
            let prem = Term::Ti(node, o);
            for arg in [a, b] {
                self.derive(
                    Term::Ti(arg, origin),
                    "basic function: diagonal inversion",
                    &[eq, prem],
                )?;
            }
        }
        let pi_src = self.out.pi[node as usize]
            .iter()
            .copied()
            .find(|o| guard_ok(o));
        if let Some(o) = pi_src {
            let prem = Term::Pi(node, o);
            for arg in [a, b] {
                self.derive(
                    Term::Pi(arg, origin),
                    "basic function: diagonal inversion",
                    &[eq, prem],
                )?;
            }
        }
        Ok(())
    }

    fn transfer_all_caps(
        &mut self,
        from: ExprId,
        to: ExprId,
        eq: Term,
    ) -> Result<(), ClosureError> {
        // `out.ta`/`out.pa` are the authoritative membership tables, so a
        // set bit at `to` means the conclusion already exists and derive
        // could only dedup; skip the whole ceremony for it.
        if self.out.ta[from as usize] && !self.out.ta[to as usize] {
            self.derive(Term::Ta(to), labels::ALTER_BY_EQ, &[eq, Term::Ta(from)])?;
        }
        if self.out.pa[from as usize] && !self.out.pa[to as usize] {
            self.derive(Term::Pa(to), labels::ALTER_BY_EQ, &[eq, Term::Pa(from)])?;
        }
        // Bulk pre-checks: when `to` already mirrors every origin `from`
        // carries, the whole per-origin loop would dedup. When the row test
        // fails, each individually-mirrored origin is still skipped.
        if !self.delta.ti_transfer_skip(from as usize, to as usize) {
            let n_ti = self.out.ti[from as usize].len();
            for k in 0..n_ti {
                let o = self.out.ti[from as usize][k];
                if self.delta.ti_get(to as usize, origin_bit(o)) {
                    continue;
                }
                self.derive(
                    Term::Ti(to, o),
                    labels::INFER_BY_EQ,
                    &[eq, Term::Ti(from, o)],
                )?;
            }
        }
        if !self.delta.pi_transfer_skip(from as usize, to as usize) {
            let n_pi = self.out.pi[from as usize].len();
            for k in 0..n_pi {
                let o = self.out.pi[from as usize][k];
                if self.delta.pi_get(to as usize, origin_bit(o)) {
                    continue;
                }
                self.derive(
                    Term::Pi(to, o),
                    labels::INFER_BY_EQ,
                    &[eq, Term::Pi(from, o)],
                )?;
            }
        }
        if self.config.pi_star {
            // The row pre-check is valid only when every entry is
            // axiom-origin (the axiom pair grid can then prove presence of
            // each conclusion).
            let skip_star = !self.delta.star_mixed[from as usize]
                && self.delta.star_axiom_transfer_skip(
                    origin_bit(Origin::AXIOM),
                    from as usize,
                    to as usize,
                );
            if !skip_star {
                // Mixed-origin rows can't use a single-row pre-check (each
                // entry's conclusion carries its own origin), but the
                // mirrors can still answer per entry: a mirrored conclusion
                // would dedup inside derive anyway, so test the one bit
                // here and skip the whole derive ceremony (term
                // normalization, premise construction, stats) for it.
                let n_star = self.out.pistar[from as usize].len();
                for k in 0..n_star {
                    let (other, o) = self.out.pistar[from as usize][k];
                    if other == to
                        || self
                            .delta
                            .star_get(origin_bit(o), to as usize, other as usize)
                    {
                        continue;
                    }
                    if let Some(nt) = Term::pi_star(to, other, o) {
                        let prem = Term::pi_star(from, other, o).expect("stored pi* is proper");
                        self.derive(nt, labels::INFER_BY_EQ, &[eq, prem])?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Transfer a single capability term across all known equalities of `e`.
    fn transfer_by_eq(&mut self, t: Term, e: ExprId) -> Result<(), ClosureError> {
        if !self.config.eq_transfer {
            return Ok(());
        }
        // Scan prefilter for `pi*` pops (the high-volume case on equality
        // cliques, where `pi*` terms mirror the full clique) and for
        // `ta`/`pa` pops (alterability rides the same cliques): materialize
        // the eq-partners whose conclusion is not yet mirrored. An empty
        // difference means the scan would dedup entirely; otherwise it
        // prefilters each partner (same order-preservation argument as the
        // `pi*` join in `propagate`).
        let mut scratch = std::mem::take(&mut self.scratch);
        let filtered = match t {
            Term::PiStar(x, y, o) => {
                let other = if x == e { y } else { x };
                Some(self.delta.star_eq_transfer_diff(
                    origin_bit(o),
                    e as usize,
                    other as usize,
                    &mut scratch,
                ))
            }
            Term::Ta(_) | Term::Pa(_) => Some(self.delta.alter_transfer_diff(
                matches!(t, Term::Ta(_)),
                e as usize,
                &mut scratch,
            )),
            _ => None,
        };
        if filtered == Some(false) {
            self.scratch = scratch;
            return Ok(());
        }
        let len = self.out.eq[e as usize].len();
        for k in 0..len {
            let b = self.out.eq[e as usize][k];
            if filtered.is_some() && !kernels::row_bit(&scratch, b as usize) {
                continue;
            }
            let (derived, label) = match t {
                Term::Ta(_) => (Some(Term::Ta(b)), labels::ALTER_BY_EQ),
                Term::Pa(_) => (Some(Term::Pa(b)), labels::ALTER_BY_EQ),
                // `ti`/`pi` pops derive a single-origin conclusion per
                // clique member, but the capability mirrors are
                // per-*expression* rows (origin bits as columns), so no row
                // diff applies — test the one mirror bit per entry instead.
                Term::Ti(_, o) if self.delta.ti_get(b as usize, origin_bit(o)) => continue,
                Term::Pi(_, o) if self.delta.pi_get(b as usize, origin_bit(o)) => continue,
                Term::Ti(_, o) => (Some(Term::Ti(b, o)), labels::INFER_BY_EQ),
                Term::Pi(_, o) => (Some(Term::Pi(b, o)), labels::INFER_BY_EQ),
                Term::PiStar(x, y, o) => {
                    let other = if x == e { y } else { x };
                    if other == b {
                        (None, labels::INFER_BY_EQ)
                    } else {
                        (Term::pi_star(b, other, o), labels::INFER_BY_EQ)
                    }
                }
                Term::Eq(..) => (None, labels::RULE_EQ),
            };
            if let Some(nt) = derived {
                let eq_term = Term::eq(e, b).expect("adjacency implies distinct");
                self.derive(nt, label, &[eq_term, t])?;
            }
        }
        self.scratch = scratch;
        Ok(())
    }

    /// Fire local (basic-function) rules at the nodes where `e` fills a
    /// slot.
    ///
    /// A node's rules are only evaluated when premise-shaped
    /// terms were inserted on its slot expressions since they last ran
    /// (`dirty[node] != 0`), and then only the rules whose premise-kind
    /// mask intersects the accumulated kinds. Skipped evaluations have
    /// bit-for-bit unchanged premise tables, so they would re-derive
    /// exactly what the last evaluation derived — all dedup, no inserts —
    /// and dropping them cannot change the insertion order (DESIGN.md §12).
    /// The mask is cleared *before* evaluating so a rule whose conclusion
    /// feeds its own node re-marks itself.
    fn fire_local_rules(&mut self, e: ExprId) -> Result<(), ClosureError> {
        if !self.config.basic_rules {
            return Ok(());
        }
        for k in 0..self.basic_nodes.row(e as usize).len() {
            let node = self.basic_nodes.row(e as usize)[k];
            let want = std::mem::take(&mut self.delta.dirty[node as usize]);
            if want != 0 {
                self.try_node(node, want)?;
            }
        }
        Ok(())
    }

    fn try_node(&mut self, node: ExprId, want: u8) -> Result<(), ClosureError> {
        let Some((op, buf, len)) = self.basic_info[node as usize] else {
            return Ok(());
        };
        let args = &buf[..len as usize];
        let rules = Rc::clone(self.op_rules.get(&op).expect("rules built for every op"));
        for (premise_mask, rule) in rules.iter() {
            if premise_mask & want == 0 {
                continue;
            }
            self.try_rule(node, args, rule)?;
        }
        Ok(())
    }

    fn slot_expr(&self, node: ExprId, args: &[ExprId], slot: Slot) -> ExprId {
        match slot {
            Slot::Arg(i) => args[i],
            Slot::Ret => node,
        }
    }

    /// Evaluate one local rule at `node`.
    fn try_rule(
        &mut self,
        node: ExprId,
        args: &[ExprId],
        rule: &LocalRule,
    ) -> Result<(), ClosureError> {
        // Direction of the conclusion decides the feedback guard.
        let conclusion_down = match rule.conclusion {
            LTerm::Cap(_, Slot::Ret) => true,
            LTerm::Cap(_, Slot::Arg(_)) => false,
            LTerm::PiStar(a, b) => matches!(a, Slot::Ret) || matches!(b, Slot::Ret),
        };
        let guard_ok = |o: Origin| -> bool {
            if !self.config.feedback_guard {
                return true;
            }
            if conclusion_down {
                !(o.num == node && o.dir == Dir::Up)
            } else {
                o.num != node
            }
        };

        debug_assert!(rule.premises.len() <= 4, "local rules have ≤ 4 premises");
        let mut pbuf = [Term::Ta(0); 4];
        let mut pn = 0usize;
        for p in &rule.premises {
            let found = match *p {
                LTerm::Cap(LCap::Ta, s) => {
                    let e = self.slot_expr(node, args, s);
                    self.out.ta[e as usize].then_some(Term::Ta(e))
                }
                LTerm::Cap(LCap::Pa, s) => {
                    let e = self.slot_expr(node, args, s);
                    self.out.pa[e as usize].then_some(Term::Pa(e))
                }
                LTerm::Cap(LCap::Ti, s) => {
                    let e = self.slot_expr(node, args, s);
                    self.out.ti[e as usize]
                        .iter()
                        .copied()
                        .find(|o| guard_ok(*o))
                        .map(|o| Term::Ti(e, o))
                }
                LTerm::Cap(LCap::Pi, s) => {
                    let e = self.slot_expr(node, args, s);
                    self.out.pi[e as usize]
                        .iter()
                        .copied()
                        .find(|o| guard_ok(*o))
                        .map(|o| Term::Pi(e, o))
                }
                LTerm::PiStar(s1, s2) => {
                    if !self.config.pi_star {
                        None
                    } else {
                        let a = self.slot_expr(node, args, s1);
                        let b = self.slot_expr(node, args, s2);
                        self.out.pistar[a as usize]
                            .iter()
                            .find(|(other, o)| *other == b && guard_ok(*o))
                            .map(|(_, o)| *o)
                            .and_then(|o| Term::pi_star(a, b, o))
                    }
                }
            };
            match found {
                Some(t) => {
                    pbuf[pn] = t;
                    pn += 1;
                }
                None => return Ok(()),
            }
        }

        let dir = if conclusion_down { Dir::Down } else { Dir::Up };
        let origin = Origin::new(node, dir);
        let conclusion = match rule.conclusion {
            LTerm::Cap(LCap::Ta, s) => Some(Term::Ta(self.slot_expr(node, args, s))),
            LTerm::Cap(LCap::Pa, s) => Some(Term::Pa(self.slot_expr(node, args, s))),
            LTerm::Cap(LCap::Ti, s) => Some(Term::Ti(self.slot_expr(node, args, s), origin)),
            LTerm::Cap(LCap::Pi, s) => Some(Term::Pi(self.slot_expr(node, args, s), origin)),
            LTerm::PiStar(s1, s2) => {
                if !self.config.pi_star {
                    None
                } else {
                    Term::pi_star(
                        self.slot_expr(node, args, s1),
                        self.slot_expr(node, args, s2),
                        origin,
                    )
                }
            }
        };
        if let Some(c) = conclusion {
            self.derive(c, rule.name, &pbuf[..pn])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::RefClosure;
    use oodb_lang::parse_schema;

    /// Full saturation with proofs under explicit rules and budget.
    fn compute_with(
        prog: &NProgram,
        rules: &RuleConfig,
        limit: usize,
    ) -> Result<Closure, ClosureError> {
        let opts = ClosureOptions {
            rules: *rules,
            term_limit: limit,
            ..ClosureOptions::default()
        };
        Closure::saturate(prog, &opts, NoopObserver).0
    }

    /// Full saturation under `mode` with a [`ClosureStats`] observer.
    fn with_stats(
        prog: &NProgram,
        limit: usize,
        mode: ProofMode,
    ) -> (Result<Closure, ClosureError>, ClosureStats) {
        let opts = ClosureOptions {
            term_limit: limit,
            goal: Goal::Full(mode),
            ..ClosureOptions::default()
        };
        Closure::saturate(prog, &opts, ClosureStats::new(limit))
    }

    fn closure_for(src: &str, user: &str) -> (NProgram, Closure) {
        let schema = parse_schema(src).unwrap();
        oodb_lang::check_schema(&schema).unwrap();
        let prog = NProgram::unfold(&schema, schema.user_str(user).unwrap()).unwrap();
        let c = Closure::compute(&prog).unwrap();
        (prog, c)
    }

    const STOCKBROKER: &str = r#"
        class Broker { name: string, salary: int, budget: int, profit: int }
        fn checkBudget(broker: Broker): bool {
          r_budget(broker) >= 10 * r_salary(broker)
        }
        user clerk { checkBudget, w_budget }
        user safe_clerk { checkBudget }
    "#;

    #[test]
    fn figure_one_flaw_is_derived() {
        // §4.2 / Figure 1: ti on 5r_salary(4broker) must be in the closure.
        let (_p, c) = closure_for(STOCKBROKER, "clerk");
        assert!(c.has_ti(5), "clerk can infer the salary read (Figure 1)");
        // The key intermediate judgments of Figure 1.
        assert!(c.contains(&Term::Eq(1, 8))); // =[8o, 1broker]
        assert!(c.contains(&Term::Eq(2, 9))); // =[9v, 2r_budget(1broker)]
        assert!(c.has_ti(2)); // ti[2r_budget(1broker)]
        assert!(c.has_pa(2)); // pa[2r_budget(1broker)]
        assert!(c.has_ti(6)); // ti[6*(10, 5r_salary(4broker))]
    }

    #[test]
    fn without_write_capability_no_flaw() {
        // A clerk with only checkBudget cannot infer the salary.
        let (_p, c) = closure_for(STOCKBROKER, "safe_clerk");
        assert!(!c.has_ti(5), "no ti on the salary read without w_budget");
        assert!(!c.has_pi(5), "no pi either");
    }

    #[test]
    fn proofs_recorded_for_every_term() {
        let (_p, c) = closure_for(STOCKBROKER, "clerk");
        assert_eq!(c.proof_mode(), ProofMode::Full);
        for t in c.iter() {
            assert!(c.proof(&t).is_some(), "no proof for {t}");
        }
        // Axioms have no premises; derived terms have in-closure premises.
        for t in c.iter() {
            let d = c.proof(&t).unwrap();
            for p in &d.premises {
                assert!(c.contains(p), "dangling premise {p} of {t}");
            }
        }
    }

    #[test]
    fn proof_mode_off_keeps_membership_drops_proofs() {
        let schema = parse_schema(STOCKBROKER).unwrap();
        let prog = NProgram::unfold(&schema, schema.user_str("clerk").unwrap()).unwrap();
        let full = Closure::compute(&prog).unwrap();
        let fast = with_stats(&prog, DEFAULT_TERM_LIMIT, ProofMode::Off)
            .0
            .unwrap();
        assert_eq!(fast.proof_mode(), ProofMode::Off);
        let mut t1: Vec<Term> = full.iter().collect();
        let mut t2: Vec<Term> = fast.iter().collect();
        t1.sort();
        t2.sort();
        assert_eq!(t1, t2, "proof mode must not change the fixpoint");
        assert_eq!(full.rounds(), fast.rounds());
        for t in fast.iter() {
            assert!(fast.proof(&t).is_none(), "Off mode records no proofs");
        }
        // Witnesses stay identical too (same traversal order).
        for e in 1..=prog.len() as ExprId {
            assert_eq!(full.ti_witness(e), fast.ti_witness(e));
            assert_eq!(full.pi_witness(e), fast.pi_witness(e));
        }
    }

    #[test]
    fn ablation_write_read_kills_figure_one() {
        let schema = parse_schema(STOCKBROKER).unwrap();
        let prog = NProgram::unfold(&schema, schema.user_str("clerk").unwrap()).unwrap();
        let cfg = RuleConfig {
            write_read: false,
            ..RuleConfig::default()
        };
        let c = compute_with(&prog, &cfg, DEFAULT_TERM_LIMIT).unwrap();
        assert!(
            !c.has_ti(5),
            "without write-read equality the attack is invisible (unsound!)"
        );
    }

    #[test]
    fn ablation_eq_transfer_kills_alterability_flow() {
        // Inferability has a redundant pi*-based route, but alterability
        // only flows through the =-transfer rules: disabling them loses the
        // payroll-style ta detection (the written value stops being ta).
        let schema = parse_schema(
            r#"
            class Broker { salary: int, budget: int, profit: int }
            fn calcSalary(budget: int, profit: int): int { budget / 10 + profit / 2 }
            fn updateSalary(broker: Broker): null {
              w_salary(broker, calcSalary(r_budget(broker), r_profit(broker)))
            }
            user payroll { updateSalary, w_budget }
            "#,
        )
        .unwrap();
        let prog = NProgram::unfold(&schema, schema.user_str("payroll").unwrap()).unwrap();
        let full = Closure::compute(&prog).unwrap();
        let cfg = RuleConfig {
            eq_transfer: false,
            ..RuleConfig::default()
        };
        let ablated = compute_with(&prog, &cfg, DEFAULT_TERM_LIMIT).unwrap();
        // The value argument of w_salary is the let(calcSalary) node — the
        // binding of the occurrence found by the algorithm.
        let w_salary_val = prog
            .iter()
            .find_map(|e| match &e.kind {
                crate::unfold::NKind::Write(attr, _, val) if attr.as_str() == "salary" => {
                    Some(*val)
                }
                _ => None,
            })
            .expect("w_salary occurs");
        assert!(full.has_ta(w_salary_val), "full rules detect the ta flow");
        assert!(!ablated.has_ta(w_salary_val), "no ta without =-transfer");
    }

    #[test]
    fn term_limit_aborts() {
        let schema = parse_schema(STOCKBROKER).unwrap();
        let prog = NProgram::unfold(&schema, schema.user_str("clerk").unwrap()).unwrap();
        assert!(matches!(
            compute_with(&prog, &RuleConfig::default(), 5),
            Err(ClosureError::TermLimit { limit: 5 })
        ));
    }

    #[test]
    fn stats_are_consistent_with_the_closure() {
        let schema = parse_schema(STOCKBROKER).unwrap();
        let prog = NProgram::unfold(&schema, schema.user_str("clerk").unwrap()).unwrap();
        let (result, stats) = with_stats(&prog, DEFAULT_TERM_LIMIT, ProofMode::Full);
        let c = result.unwrap();
        assert!(!stats.aborted);
        assert_eq!(stats.rounds as usize, c.rounds());
        assert_eq!(stats.total_terms() as usize, c.len());
        // Every derive attempt either deduplicated or inserted.
        assert_eq!(stats.derive_calls, stats.dedup_hits + stats.total_terms());
        // Per-rule attempt counters partition the derive calls, and no
        // label derives more new terms than it attempted.
        let attempted: u64 = stats.rule_attempts.iter().map(|(_, n)| *n).sum();
        assert_eq!(attempted, stats.derive_calls);
        for (label, new) in &stats.firings {
            assert!(
                stats.rule_attempts_of(label) >= *new,
                "{label}: fewer attempts than insertions"
            );
        }
        // Per-kind counters match the actual term population.
        let count = |pred: fn(&Term) -> bool| c.iter().filter(pred).count() as u64;
        assert_eq!(stats.terms_ta, count(|t| matches!(t, Term::Ta(_))));
        assert_eq!(stats.terms_pa, count(|t| matches!(t, Term::Pa(_))));
        assert_eq!(stats.terms_ti, count(|t| matches!(t, Term::Ti(..))));
        assert_eq!(stats.terms_pi, count(|t| matches!(t, Term::Pi(..))));
        assert_eq!(stats.terms_pistar, count(|t| matches!(t, Term::PiStar(..))));
        assert_eq!(stats.terms_eq, count(|t| matches!(t, Term::Eq(..))));
        // Rule firings partition the insertions, and each label has a proof.
        let fired: u64 = stats.firings.iter().map(|(_, n)| *n).sum();
        assert_eq!(fired, stats.total_terms());
        assert!(stats.firings_of(labels::INFER_BY_EQ) > 0, "Figure 1 uses =");
        assert!(stats.worklist_peak > 0);
        assert!(stats.dedup_hit_rate() > 0.0 && stats.dedup_hit_rate() < 1.0);
        assert!(stats.budget_headroom() > 0.0);
        // The interner gauge reflects the actual term set.
        assert!(stats.interner_capacity as usize >= c.len());
        assert!(stats.proofs_recorded);
    }

    #[test]
    fn stats_and_plain_compute_agree() {
        let schema = parse_schema(STOCKBROKER).unwrap();
        let prog = NProgram::unfold(&schema, schema.user_str("clerk").unwrap()).unwrap();
        let plain = Closure::compute(&prog).unwrap();
        let instrumented = with_stats(&prog, DEFAULT_TERM_LIMIT, ProofMode::Full)
            .0
            .unwrap();
        let mut t1: Vec<Term> = plain.iter().collect();
        let mut t2: Vec<Term> = instrumented.iter().collect();
        t1.sort();
        t2.sort();
        assert_eq!(t1, t2, "observer must not change the fixpoint");
        assert_eq!(plain.rounds(), instrumented.rounds());
    }

    #[test]
    fn stats_survive_a_term_limit_abort() {
        let schema = parse_schema(STOCKBROKER).unwrap();
        let prog = NProgram::unfold(&schema, schema.user_str("clerk").unwrap()).unwrap();
        let (result, stats) = with_stats(&prog, 5, ProofMode::Full);
        assert!(matches!(result, Err(ClosureError::TermLimit { limit: 5 })));
        assert!(stats.aborted);
        assert_eq!(stats.total_terms(), 5, "budget filled exactly");
        assert_eq!(stats.budget_headroom(), 0.0);
        assert_eq!(stats.limit, 5);
    }

    #[test]
    fn matches_the_oracle_byte_for_byte() {
        // The mirrors, prefilters and dirty masks only ever skip derive
        // calls that would dedup — never reorder what does run — so the
        // closure is the reference traversal's exactly: same insertion
        // order, rounds, witnesses, equality rows and proofs (each
        // derivation is recorded at the term's first insertion).
        let schema = parse_schema(STOCKBROKER).unwrap();
        let prog = NProgram::unfold(&schema, schema.user_str("clerk").unwrap()).unwrap();
        let engine = Closure::compute(&prog).unwrap();
        let oracle = RefClosure::compute(&prog).unwrap();
        assert_eq!(
            engine.iter().collect::<Vec<Term>>(),
            oracle.iter().collect::<Vec<Term>>(),
            "insertion order must match exactly"
        );
        assert_eq!(engine.rounds(), oracle.rounds());
        for e in 1..=prog.len() as ExprId {
            assert_eq!(engine.ti_witness(e), oracle.ti_witness(e));
            assert_eq!(engine.pi_witness(e), oracle.pi_witness(e));
            assert_eq!(engine.has_ta(e), oracle.has_ta(e));
            assert_eq!(engine.has_pa(e), oracle.has_pa(e));
            assert_eq!(engine.equal_to(e), oracle.equal_to(e));
        }
        for t in oracle.iter() {
            assert!(engine.contains(&t));
            assert_eq!(engine.proof(&t), oracle.proof(&t), "proof of {t} differs");
        }
        // Un-normalised pair probes answer false, as they always did.
        assert!(!engine.contains(&Term::Eq(8, 1)));
    }

    #[test]
    fn prefilters_skip_attempts_not_insertions() {
        // Skipped derive calls are all would-be dedups, so every rule
        // inserts exactly the terms the oracle records under its label.
        let schema = parse_schema(STOCKBROKER).unwrap();
        let prog = NProgram::unfold(&schema, schema.user_str("clerk").unwrap()).unwrap();
        let (engine, stats) = with_stats(&prog, DEFAULT_TERM_LIMIT, ProofMode::Off);
        let oracle = RefClosure::compute(&prog).unwrap();
        assert_eq!(engine.unwrap().len(), oracle.len());
        let mut by_label: Vec<(&'static str, u64)> = Vec::new();
        for t in oracle.iter() {
            let rule = oracle
                .proof(&t)
                .expect("the oracle records every proof")
                .rule;
            match by_label.iter_mut().find(|(l, _)| *l == rule) {
                Some((_, n)) => *n += 1,
                None => by_label.push((rule, 1)),
            }
        }
        assert_eq!(
            stats.firings, by_label,
            "per-rule insertions, in first-firing order"
        );
        assert_eq!(stats.derive_calls, stats.dedup_hits + stats.total_terms());
        let attempted: u64 = stats.rule_attempts.iter().map(|(_, n)| *n).sum();
        assert_eq!(attempted, stats.derive_calls);
        for (label, n) in &stats.firings {
            assert!(stats.rule_attempts_of(label) >= *n, "{label}");
        }
    }

    /// Records every inserted term in order.
    #[derive(Default)]
    struct InsertLog(Vec<Term>);

    impl ClosureObserver for InsertLog {
        fn term_inserted(&mut self, t: &Term, _rule: &'static str) {
            self.0.push(*t);
        }
    }

    #[test]
    fn term_limit_aborts_like_the_oracle() {
        // The abort point depends on the insertion sequence, so a matching
        // limit error over a matching inserted prefix is itself an
        // order-identity check.
        let schema = parse_schema(STOCKBROKER).unwrap();
        let prog = NProgram::unfold(&schema, schema.user_str("clerk").unwrap()).unwrap();
        let cfg = RuleConfig::default();
        let full_order: Vec<Term> = RefClosure::compute(&prog).unwrap().iter().collect();
        for limit in [5usize, 17, 40] {
            let opts = ClosureOptions {
                term_limit: limit,
                goal: Goal::Full(ProofMode::Off),
                ..ClosureOptions::default()
            };
            let (engine, log) = Closure::saturate(&prog, &opts, InsertLog::default());
            let oracle = RefClosure::compute_with(&prog, &cfg, limit);
            assert!(matches!(oracle, Err(ClosureError::TermLimit { .. })));
            assert_eq!(engine.unwrap_err(), oracle.unwrap_err(), "limit {limit}");
            assert_eq!(log.0, full_order[..limit], "limit {limit}");
        }
    }

    #[test]
    fn closure_is_deterministic() {
        let (_p, c1) = closure_for(STOCKBROKER, "clerk");
        let (_p, c2) = closure_for(STOCKBROKER, "clerk");
        let mut t1: Vec<Term> = c1.iter().collect();
        let mut t2: Vec<Term> = c2.iter().collect();
        t1.sort();
        t2.sort();
        assert_eq!(t1, t2);
    }

    #[test]
    fn feedback_guard_blocks_self_derivation() {
        // f(x:int) = x + 1 granted alone: the user knows x (ti axiom) and
        // the result (body axiom). Fine. But pi on the result must not loop
        // through the + node to create fresh "different ways" on x.
        let (_p, c) = closure_for("fn f(x: int): int { x + 1 } user u { f }", "u");
        // x (id 1) is ti — both by axiom and by inversion through +; the
        // guard only blocks re-derivation through the same node, not this.
        assert!(c.has_ti(1));
        // Every pi on the constant keeps its axiom origin or a distinct
        // node origin — no (2, Up)-style self-feedback on the constant's
        // own node (the constant is node 2, never a basic node).
        assert!(c.has_ti(2));
        assert!(c.has_ti(3)); // the + node: computable and observed
    }

    #[test]
    fn let_propagation_via_equalities() {
        // g(y) = y * 2 inside f: alterability of the outer argument flows
        // through the let binding into the body.
        let (p, c) = closure_for(
            r#"
            fn g(y: int): int { y * 2 }
            fn f(x: int): int { g(x) }
            user u { f }
            "#,
            "u",
        );
        // 1x, 2y, 3:2, 4*(2y,3), 5let(g)…
        assert!(c.has_ta(1), "outer arg");
        assert!(c.has_ta(2), "let-bound occurrence via =");
        assert!(c.has_ta(4), "through *");
        assert!(c.has_ta(5), "let node via body equality");
        assert_eq!(
            p.render(p.outers[0].root),
            "5let(g) y=1x in 4*(2y, 3:2) end"
        );
    }

    #[test]
    fn printable_oids_extend_inferability_to_objects() {
        // §3.2's "former case": with printable identifiers the user can
        // read the object arguments they pass, so object-typed argument
        // variables get ti axioms too. Default (opaque) regime: they don't.
        let schema = parse_schema(STOCKBROKER).unwrap();
        let prog = NProgram::unfold(&schema, schema.user_str("clerk").unwrap()).unwrap();
        let opaque = Closure::compute(&prog).unwrap();
        assert!(!opaque.has_ti(1), "opaque OIDs are not inferable");
        let cfg = RuleConfig {
            printable_oids: true,
            ..RuleConfig::default()
        };
        let printable = compute_with(&prog, &cfg, DEFAULT_TERM_LIMIT).unwrap();
        assert!(printable.has_ti(1), "printable OIDs are directly known");
        // The regime only adds terms (monotone).
        assert!(printable.len() >= opaque.len());
    }

    #[test]
    fn constructor_read_links_argument() {
        // mk(v) = r_x(new C(v)): reading the attribute of a fresh object
        // returns the constructor argument, so ta flows.
        let (_p, c) = closure_for(
            r#"
            class C { x: int }
            fn mk(v: int): int { r_x(new C(v)) }
            user u { mk }
            "#,
            "u",
        );
        // 1v, 2new C(1v), 3r_x(2new…): ta[1] ⇒ =[1,3] ⇒ ta[3].
        assert!(c.contains(&Term::Eq(1, 3)));
        assert!(c.has_ta(3));
    }

    #[test]
    fn out_of_range_ids_answer_false() {
        // Dense tables must bounds-guard public queries: callers may probe
        // ids the program does not contain.
        let (_p, c) = closure_for(STOCKBROKER, "clerk");
        assert!(!c.has_ta(9999));
        assert!(!c.has_ti(9999));
        assert!(c.equal_to(9999).is_empty());
        assert_eq!(c.ti_witness(9999), None);
    }
}

//! # secflow — the paper's contribution
//!
//! A faithful implementation of the static security-flaw detection of
//! *K. Tajima, “Static Detection of Security Flaws in Object-Oriented
//! Databases”, SIGMOD 1996*:
//!
//! * [`unfold`] — given a user's capability list `F`, build `S'(F)`: every
//!   granted function unfolded (inner access-function calls become
//!   `let(f) x1=e1,… in body end` forms) with every subexpression occurrence
//!   assigned a serial number in evaluation order (§4.1).
//! * [`term`] — the term language of the inference system `F(F)`:
//!   `ta[e] | pa[e] | ti[e,num,dir] | pi[e,num,dir] | pi*[(e,e),num,dir] |
//!   =[e1,e2]` (§4.1).
//! * [`rules`] — the structural axioms and rules of Table 2 (alterability,
//!   equality, inferability, capability lattice), reconstructed where the
//!   published table is ambiguous — see the module docs for the
//!   reconstruction notes.
//! * [`basics`] — the per-basic-function rule sets generated following the
//!   paper's §4.1 metarules, including the verbatim `>=` and `*` instances.
//! * [`closure`] — the saturation engine computing the closure of all
//!   derivable terms (or a requirement's demand slice of it): interned
//!   [`term::TermId`] keys, dense per-occurrence capability tables, and
//!   proof recording as a mode ([`closure::ProofMode`]).
//! * [`fxhash`] — the std-only deterministic hasher behind the interner.
//! * [`reference`](mod@reference) — the retained slow-path engine, kept
//!   traversal-equivalent to [`closure`] as a differential-testing oracle.
//! * [`algorithm`] — `A(R)` (§4.1 Definition 6): a requirement `R` is
//!   *not satisfied* iff some occurrence of its target function carries all
//!   the specified capability terms in the closure.
//! * [`incremental`] — incremental maintenance of one user's proof-carrying
//!   closure under grant/revoke edits (proof-guided retraction +
//!   warm-restart saturation). No command runs it: `secflow serve` edits
//!   through [`algorithm::analyze_caps`]. It stays for the repository
//!   benchmark's traced replay.
//! * [`demand`] — the demand-driven mode: a conservative relevance slice
//!   over `S'(F)` plus goal tracking, so the engine derives only what the
//!   verdict can observe and stops as soon as every occurrence is decided.
//! * [`checker`] — the certifying proof checker: [`Closure::certify`]
//!   independently re-validates every recorded derivation against the
//!   Table-2 schemas and metarule tables, sharing no code with the engine.
//! * [`report`] — verdicts and Figure-1-style derivation rendering.
//! * [`stats`] — closure instrumentation: [`ClosureStats`] collected through
//!   a zero-cost observer (the plain `compute` paths monomorphise a no-op),
//!   reportable into any `secflow_obs::MetricsSink`.
//!
//! The analysis is **sound** (paper Theorem 1): every flaw that a user could
//! actually realise is reported. It is deliberately **pessimistic**: it may
//! report flaws no concrete attack realises. `secflow-dynamic` quantifies
//! both properties experimentally (EXPERIMENTS.md, E3/E4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod algorithm;
pub mod arena;
pub mod basics;
pub mod checker;
pub mod closure;
pub mod demand;
pub mod fxhash;
pub mod incremental;
pub mod kernels;
pub mod provenance;
pub mod reference;
pub mod report;
pub mod rules;
pub mod stats;
pub mod term;
pub mod unfold;

pub use advisor::{advise, Advice, AdvisorConfig, Repair};
pub use algorithm::{
    analyze, analyze_batch, analyze_batch_cached, AnalysisConfig, AnalysisError, AnalysisStats,
    BatchGroup, BatchOptions, BatchOutcome, CacheStats, CapabilityView, ClosureCache,
};
pub use checker::{Certificate, CheckError};
pub use closure::{Closure, ClosureOptions, Goal, ProofMode};
pub use demand::{DemandPlan, GoalTracker};
pub use incremental::{CanonicalView, EditOutcome, IncrementalUser};
pub use provenance::{
    audit_witness, flaw_paths, FlawPath, PathStep, ProvenanceError, ProvenanceOptions, Severity,
    SourceKind, WalkMode, WitnessReport,
};
pub use reference::{analyze_ref, RefClosure};
pub use report::{Verdict, Violation};
pub use stats::ClosureStats;
pub use term::{Dir, Origin, Term, TermId};
pub use unfold::{ExprId, NExpr, NKind, NProgram, Outer};

//! Flaw-path provenance: walking proof DAGs from axioms to violations.
//!
//! A violated requirement comes with witness terms (one per required
//! capability), and under [`ProofMode::Full`] every term in the closure
//! carries its [`Derivation`](crate::closure::Derivation). This module
//! turns that recorded provenance into *flaw paths*: chains through the
//! proof DAG from an axiom — a capability the policy actually grants, an
//! observed constant, or a structural equality — down to the violating
//! witness. Sources are the axioms (where the information enters),
//! sinks are the witnesses (where the forbidden capability materialises).
//!
//! Three walk modes:
//!
//! * [`WalkMode::Backward`] — one path per distinct source axiom, steps
//!   listed sink-first (the direction the walk actually runs);
//! * [`WalkMode::Forward`] — the same paths, steps listed source-first
//!   (reads like the paper's Figure 1, information flowing downhill);
//! * [`WalkMode::Complete`] — every distinct chain in the DAG, up to the
//!   enumeration cap, steps source-first.
//!
//! Every path is scored: a base severity from the sink capability (total
//! alterability is worse than partial inferability), bonuses for the rule
//! mix (equality transfer and basic-function inference indicate active
//! information laundering, not a direct grant), and a length penalty
//! (long chains are more speculative under the paper's always-equal
//! approximation). The walker independently re-checks that every step is
//! backed by a recorded derivation and that the DAG is acyclic, so a
//! corrupted proof store fails loudly here even before the certifying
//! checker rejects it.

use std::fmt;

use crate::closure::{Closure, ProofMode};
use crate::report::render_term;
use crate::term::Term;
use crate::unfold::NProgram;

/// Direction and coverage of the path enumeration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WalkMode {
    /// One path per distinct source, steps sink → source.
    #[default]
    Backward,
    /// One path per distinct source, steps source → sink.
    Forward,
    /// Every distinct chain (capped), steps source → sink.
    Complete,
}

impl WalkMode {
    /// Parse a `--mode=` value.
    pub fn parse(s: &str) -> Option<WalkMode> {
        match s {
            "backward" => Some(WalkMode::Backward),
            "forward" => Some(WalkMode::Forward),
            "complete" => Some(WalkMode::Complete),
            _ => None,
        }
    }

    /// The flag spelling.
    pub fn name(&self) -> &'static str {
        match self {
            WalkMode::Backward => "backward",
            WalkMode::Forward => "forward",
            WalkMode::Complete => "complete",
        }
    }
}

/// Severity band of a flaw path (ordered: `Low < … < Critical`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Weak signal: partial capability through a long, speculative chain.
    Low,
    /// Partial capability or a heavily attenuated total one.
    Medium,
    /// Total capability through a non-trivial derivation.
    High,
    /// Total capability reached directly or through active laundering.
    Critical,
}

impl Severity {
    /// Parse a `--severity=` value.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "low" => Some(Severity::Low),
            "medium" => Some(Severity::Medium),
            "high" => Some(Severity::High),
            "critical" => Some(Severity::Critical),
            _ => None,
        }
    }

    /// The flag spelling.
    pub fn name(&self) -> &'static str {
        match self {
            Severity::Low => "low",
            Severity::Medium => "medium",
            Severity::High => "high",
            Severity::Critical => "critical",
        }
    }

    /// Band a 0–100 score.
    pub fn from_score(score: u32) -> Severity {
        match score {
            80.. => Severity::Critical,
            60..=79 => Severity::High,
            40..=59 => Severity::Medium,
            _ => Severity::Low,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What kind of axiom a path originates from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SourceKind {
    /// A granted write capability (`ta`/`pa` axiom).
    Grant,
    /// An observable value (`ti`/`pi` axiom: printable constant or oid).
    Observation,
    /// A structural equality (`=` axiom) or joint constraint.
    Structure,
}

impl SourceKind {
    /// Human-readable label used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            SourceKind::Grant => "grant",
            SourceKind::Observation => "observation",
            SourceKind::Structure => "structure",
        }
    }
}

/// Classify a source term by the capability kind it contributes.
pub fn classify_source(t: &Term) -> SourceKind {
    match t {
        Term::Ta(_) | Term::Pa(_) => SourceKind::Grant,
        Term::Ti(..) | Term::Pi(..) => SourceKind::Observation,
        Term::PiStar(..) | Term::Eq(..) => SourceKind::Structure,
    }
}

/// Knobs for the walk.
#[derive(Clone, Copy, Debug)]
pub struct ProvenanceOptions {
    /// Maximum chain length in edges; longer chains are cut and flagged
    /// [`FlawPath::truncated`].
    pub max_depth: usize,
    /// Enumeration cap per witness (paths, not DAG nodes).
    pub max_paths: usize,
    /// Direction and coverage.
    pub mode: WalkMode,
}

impl Default for ProvenanceOptions {
    fn default() -> ProvenanceOptions {
        ProvenanceOptions {
            max_depth: 64,
            max_paths: 16,
            mode: WalkMode::Backward,
        }
    }
}

/// Why a walk failed. Any of these means the proof store cannot back the
/// verdict and the report must not show paths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProvenanceError {
    /// The closure was computed with [`ProofMode::Off`].
    NoProofs,
    /// A reachable term has no recorded derivation.
    MissingProof(Term),
    /// A derivation chain revisits a term: the "DAG" has a cycle.
    CyclicProof(Term),
}

impl fmt::Display for ProvenanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProvenanceError::NoProofs => {
                write!(
                    f,
                    "closure was computed without derivations (ProofMode::Off)"
                )
            }
            ProvenanceError::MissingProof(t) => {
                write!(f, "term {t:?} is reachable but has no recorded derivation")
            }
            ProvenanceError::CyclicProof(t) => {
                write!(f, "derivation of {t:?} is cyclic; proof store is corrupt")
            }
        }
    }
}

impl std::error::Error for ProvenanceError {}

/// One term on a flaw path, annotated with the rule that derived it and
/// its distance from the sink (0 = the witness itself).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathStep {
    /// The closure term.
    pub term: Term,
    /// The rule that derived it (Figure-1 label; `"axiom"` family at the
    /// source end).
    pub rule: &'static str,
    /// Edges between this step and the sink.
    pub depth: usize,
}

/// One source-to-sink chain through the proof DAG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlawPath {
    /// The steps, ordered per the walk mode ([`WalkMode::Backward`]:
    /// sink first; otherwise source first).
    pub steps: Vec<PathStep>,
    /// The axiom end (or the deepest term reached, when truncated).
    pub source: Term,
    /// The violating witness.
    pub sink: Term,
    /// Classification of the source end.
    pub source_kind: SourceKind,
    /// Was the chain cut at `max_depth` before reaching an axiom?
    pub truncated: bool,
    /// 0–100 severity score.
    pub score: u32,
    /// The banded score.
    pub severity: Severity,
}

/// Everything the audit surface needs about one witness term.
#[derive(Clone, Debug, PartialEq)]
pub struct WitnessReport {
    /// The witness (sink).
    pub witness: Term,
    /// The enumerated paths, in discovery order.
    pub paths: Vec<FlawPath>,
    /// Highest path score (0 when no path was found).
    pub score: u32,
    /// Band of the highest score.
    pub severity: Severity,
    /// Did the enumeration stop at [`ProvenanceOptions::max_paths`]?
    pub paths_capped: bool,
}

/// Enumerate flaw paths ending at `sink`. The closure must have been
/// computed with [`ProofMode::Full`].
pub fn flaw_paths(
    closure: &Closure,
    sink: &Term,
    opts: &ProvenanceOptions,
) -> Result<Vec<FlawPath>, ProvenanceError> {
    walk(closure, sink, opts).map(|(paths, _)| paths)
}

/// Enumerate flaw paths and aggregate them into a [`WitnessReport`].
pub fn audit_witness(
    closure: &Closure,
    witness: &Term,
    opts: &ProvenanceOptions,
) -> Result<WitnessReport, ProvenanceError> {
    let (paths, paths_capped) = walk(closure, witness, opts)?;
    let score = paths.iter().map(|p| p.score).max().unwrap_or(0);
    Ok(WitnessReport {
        witness: *witness,
        severity: Severity::from_score(score),
        score,
        paths,
        paths_capped,
    })
}

/// Number of distinct terms in the proof DAG below `sink` (sink included).
/// A cheap size measure for reports and the bench harness.
pub fn reachable_terms(closure: &Closure, sink: &Term) -> Result<usize, ProvenanceError> {
    if closure.proof_mode() == ProofMode::Off {
        return Err(ProvenanceError::NoProofs);
    }
    let mut seen: Vec<Term> = Vec::new();
    let mut todo = vec![*sink];
    while let Some(t) = todo.pop() {
        if seen.contains(&t) {
            continue;
        }
        seen.push(t);
        let d = closure.proof(&t).ok_or(ProvenanceError::MissingProof(t))?;
        todo.extend(d.premises.iter().copied());
    }
    Ok(seen.len())
}

/// One DFS frame: a term, its derivation, and the next premise branch to
/// explore.
struct Frame<'c> {
    term: Term,
    rule: &'static str,
    premises: &'c [Term],
    next: usize,
}

fn walk(
    closure: &Closure,
    sink: &Term,
    opts: &ProvenanceOptions,
) -> Result<(Vec<FlawPath>, bool), ProvenanceError> {
    if closure.proof_mode() == ProofMode::Off {
        return Err(ProvenanceError::NoProofs);
    }
    let d0 = closure
        .proof(sink)
        .ok_or(ProvenanceError::MissingProof(*sink))?;
    let mut stack: Vec<Frame> = vec![Frame {
        term: *sink,
        rule: d0.rule,
        premises: &d0.premises,
        next: 0,
    }];
    let mut paths: Vec<FlawPath> = Vec::new();
    let mut seen_sources: Vec<Term> = Vec::new();
    let dedupe = !matches!(opts.mode, WalkMode::Complete);
    let mut capped = false;

    loop {
        let depth = stack.len().wrapping_sub(1);
        let Some(top) = stack.last_mut() else { break };
        let at_axiom = top.premises.is_empty();
        let at_limit = depth >= opts.max_depth;
        if (at_axiom || at_limit) && top.next == 0 {
            // Leaf of the branch tree: the current stack IS one chain.
            top.next = top.premises.len().max(1); // mark emitted/exhausted
            let source = top.term;
            if !dedupe || !seen_sources.contains(&source) {
                if dedupe {
                    seen_sources.push(source);
                }
                paths.push(make_path(&stack, !at_axiom, opts.mode));
                if paths.len() >= opts.max_paths {
                    capped = true;
                    break;
                }
            }
            stack.pop();
            continue;
        }
        if top.next >= top.premises.len() {
            stack.pop();
            continue;
        }
        let child = top.premises[top.next];
        top.next += 1;
        if stack.iter().any(|f| f.term == child) {
            return Err(ProvenanceError::CyclicProof(child));
        }
        let d = closure
            .proof(&child)
            .ok_or(ProvenanceError::MissingProof(child))?;
        stack.push(Frame {
            term: child,
            rule: d.rule,
            premises: &d.premises,
            next: 0,
        });
    }
    Ok((paths, capped))
}

fn make_path(stack: &[Frame], truncated: bool, mode: WalkMode) -> FlawPath {
    let mut steps: Vec<PathStep> = stack
        .iter()
        .enumerate()
        .map(|(depth, f)| PathStep {
            term: f.term,
            rule: f.rule,
            depth,
        })
        .collect();
    let sink = steps[0].term;
    let source = steps[steps.len() - 1].term;
    if !matches!(mode, WalkMode::Backward) {
        steps.reverse();
    }
    let score = score_path(&sink, &steps, truncated);
    FlawPath {
        source,
        sink,
        source_kind: classify_source(&source),
        truncated,
        score,
        severity: Severity::from_score(score),
        steps,
    }
}

/// Score a path 0–100: base by sink capability, bonuses for rule mix,
/// penalty by length. Deterministic in the path alone.
fn score_path(sink: &Term, steps: &[PathStep], truncated: bool) -> u32 {
    use crate::rules::labels;
    let base: i64 = match sink {
        Term::Ta(_) => 90,
        Term::Ti(..) => 80,
        Term::Pa(_) => 65,
        Term::Pi(..) => 55,
        Term::PiStar(..) => 45,
        Term::Eq(..) => 30,
    };
    let has = |pred: &dyn Fn(&'static str) -> bool| steps.iter().any(|s| pred(s.rule));
    let mut bonus: i64 = 0;
    // Information laundered through arithmetic: the paper's §3.2 quotient
    // trick and friends.
    if has(&|r| r.starts_with("basic function")) {
        bonus += 6;
    }
    // Capability transferred across an equality the attacker controls.
    if has(&|r| r == labels::ALTER_BY_EQ || r == labels::READ_RECEIVER) {
        bonus += 5;
    }
    if has(&|r| r == labels::INFER_BY_EQ) {
        bonus += 4;
    }
    // Joins mean several partial flows combined into a total one.
    if has(&|r| r == labels::PI_JOIN || r == labels::PI_STAR_JOIN) {
        bonus += 3;
    }
    let penalty = (2 * steps.len().saturating_sub(1) as i64).min(25);
    // A truncated chain never reached its axiom: discount the confidence.
    let cut = if truncated { 10 } else { 0 };
    (base + bonus - penalty - cut).clamp(1, 100) as u32
}

/// Render one path as aligned text lines (used by `secflow audit`'s text
/// format and the README example).
pub fn render_path(prog: &NProgram, path: &FlawPath) -> String {
    let rendered: Vec<String> = path
        .steps
        .iter()
        .map(|s| render_term(prog, &s.term))
        .collect();
    let width = rendered.iter().map(String::len).max().unwrap_or(0);
    let mut out = String::new();
    for (i, (step, text)) in path.steps.iter().zip(&rendered).enumerate() {
        let at_end = i == 0 || i + 1 == path.steps.len();
        let marker = match (at_end, step.term == path.sink, path.truncated) {
            (true, true, _) => "   <- sink",
            (true, false, false) => "   <- source",
            (true, false, true) => "   <- cut",
            _ => "",
        };
        out.push_str(&format!(
            "{text:width$}   ({rule}){marker}\n",
            rule = step.rule
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::Closure;
    use crate::unfold::NProgram;
    use oodb_lang::parse_schema;

    const STOCKBROKER: &str = r#"
        class Broker { salary: int, budget: int, profit: int }
        fn calcSalary(budget: int, profit: int): int { budget / 10 + profit / 2 }
        fn updateSalary(broker: Broker): null {
          w_salary(broker, calcSalary(r_budget(broker), r_profit(broker)))
        }
        fn chkSalary(broker: Broker): bool { r_budget(broker) >= 10 * r_salary(broker) }
        user clerk { chkSalary, w_budget }
        "#;

    fn clerk_closure() -> (NProgram, Closure) {
        let schema = parse_schema(STOCKBROKER).unwrap();
        oodb_lang::check_schema(&schema).unwrap();
        let prog = NProgram::unfold(&schema, schema.user_str("clerk").unwrap()).unwrap();
        let closure = Closure::compute(&prog).unwrap();
        (prog, closure)
    }

    fn clerk_witness(closure: &Closure) -> Term {
        // Node 5 is r_salary(broker) in the unfolded chkSalary (the
        // paper's Figure 1 flaw).
        closure.ti_witness(5).expect("the clerk flaw is derivable")
    }

    #[test]
    fn backward_paths_run_sink_to_axiom() {
        let (_prog, closure) = clerk_closure();
        let sink = clerk_witness(&closure);
        let paths = flaw_paths(&closure, &sink, &ProvenanceOptions::default()).unwrap();
        assert!(!paths.is_empty(), "the Figure-1 flaw must have provenance");
        for p in &paths {
            assert_eq!(p.sink, sink);
            assert_eq!(
                p.steps.first().unwrap().term,
                sink,
                "backward starts at sink"
            );
            assert_eq!(p.steps.last().unwrap().term, p.source);
            assert!(!p.truncated);
            // The source end is an axiom: empty premises.
            let d = closure.proof(&p.source).unwrap();
            assert!(d.premises.is_empty(), "source must be an axiom");
            // Depths are the distance from the sink, ascending.
            for (i, s) in p.steps.iter().enumerate() {
                assert_eq!(s.depth, i);
            }
            // Every step is backed by a recorded derivation, and each
            // consecutive pair is a real premise edge.
            for pair in p.steps.windows(2) {
                let d = closure.proof(&pair[0].term).unwrap();
                assert!(
                    d.premises.contains(&pair[1].term),
                    "step edges must follow recorded premises"
                );
            }
        }
        // Backward mode deduplicates by source.
        let sources: Vec<Term> = paths.iter().map(|p| p.source).collect();
        let mut sorted = sources.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sources.len(), sorted.len(), "one path per distinct source");
    }

    #[test]
    fn forward_reverses_backward() {
        let (_prog, closure) = clerk_closure();
        let sink = clerk_witness(&closure);
        let back = flaw_paths(&closure, &sink, &ProvenanceOptions::default()).unwrap();
        let fwd = flaw_paths(
            &closure,
            &sink,
            &ProvenanceOptions {
                mode: WalkMode::Forward,
                ..ProvenanceOptions::default()
            },
        )
        .unwrap();
        assert_eq!(back.len(), fwd.len());
        for (b, f) in back.iter().zip(&fwd) {
            let mut rev = f.steps.clone();
            rev.reverse();
            assert_eq!(b.steps, rev, "forward is backward reversed");
            assert_eq!(b.score, f.score, "ordering must not change the score");
        }
    }

    #[test]
    fn complete_mode_finds_at_least_the_deduped_paths() {
        let (_prog, closure) = clerk_closure();
        let sink = clerk_witness(&closure);
        let back = flaw_paths(&closure, &sink, &ProvenanceOptions::default()).unwrap();
        let all = flaw_paths(
            &closure,
            &sink,
            &ProvenanceOptions {
                mode: WalkMode::Complete,
                max_paths: 256,
                ..ProvenanceOptions::default()
            },
        )
        .unwrap();
        assert!(all.len() >= back.len());
    }

    #[test]
    fn max_depth_truncates_and_flags() {
        let (_prog, closure) = clerk_closure();
        let sink = clerk_witness(&closure);
        let paths = flaw_paths(
            &closure,
            &sink,
            &ProvenanceOptions {
                max_depth: 1,
                ..ProvenanceOptions::default()
            },
        )
        .unwrap();
        assert!(!paths.is_empty());
        for p in &paths {
            assert!(p.steps.len() <= 2, "depth 1 = at most one edge");
            if p.truncated {
                assert!(
                    !closure.proof(&p.source).unwrap().premises.is_empty(),
                    "a truncated chain ends below an interior term"
                );
            }
        }
        // The full walk reaches axioms that depth 1 cannot.
        let full = flaw_paths(&closure, &sink, &ProvenanceOptions::default()).unwrap();
        assert!(full.iter().all(|p| !p.truncated));
    }

    #[test]
    fn path_cap_is_honoured_and_reported() {
        let (_prog, closure) = clerk_closure();
        let sink = clerk_witness(&closure);
        let report = audit_witness(
            &closure,
            &sink,
            &ProvenanceOptions {
                mode: WalkMode::Complete,
                max_paths: 1,
                ..ProvenanceOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.paths.len(), 1);
        assert!(report.paths_capped);
    }

    #[test]
    fn severity_scoring_orders_sinks_and_penalises_length() {
        let short = [PathStep {
            term: Term::Ta(1),
            rule: "axiom",
            depth: 0,
        }];
        let ta = score_path(&Term::Ta(1), &short, false);
        let ti = score_path(&Term::Ti(1, crate::term::Origin::AXIOM), &short, false);
        let pi = score_path(&Term::Pi(1, crate::term::Origin::AXIOM), &short, false);
        assert!(ta > ti && ti > pi, "ta > ti > pi at equal length");
        let long: Vec<PathStep> = (0..10)
            .map(|i| PathStep {
                term: Term::Ta(i),
                rule: "rule for =",
                depth: i as usize,
            })
            .collect();
        assert!(
            score_path(&Term::Ta(1), &long, false) < ta,
            "longer chains score lower"
        );
        assert!(
            score_path(&Term::Ta(1), &long, true) < score_path(&Term::Ta(1), &long, false),
            "truncation discounts"
        );
        assert_eq!(Severity::from_score(85), Severity::Critical);
        assert_eq!(Severity::from_score(60), Severity::High);
        assert_eq!(Severity::from_score(45), Severity::Medium);
        assert_eq!(Severity::from_score(10), Severity::Low);
        assert!(Severity::Low < Severity::Critical);
    }

    #[test]
    fn witness_report_aggregates_max_score() {
        let (_prog, closure) = clerk_closure();
        let sink = clerk_witness(&closure);
        let report = audit_witness(&closure, &sink, &ProvenanceOptions::default()).unwrap();
        assert_eq!(report.witness, sink);
        assert_eq!(
            report.score,
            report.paths.iter().map(|p| p.score).max().unwrap()
        );
        assert_eq!(report.severity, Severity::from_score(report.score));
    }

    #[test]
    fn proofs_off_is_an_error() {
        let schema = parse_schema(STOCKBROKER).unwrap();
        oodb_lang::check_schema(&schema).unwrap();
        let prog = NProgram::unfold(&schema, schema.user_str("clerk").unwrap()).unwrap();
        let opts = crate::closure::ClosureOptions {
            goal: crate::closure::Goal::Full(ProofMode::Off),
            ..Default::default()
        };
        let closure = Closure::saturate(&prog, &opts, crate::stats::NoopObserver)
            .0
            .unwrap();
        let sink = closure.ti_witness(5).unwrap();
        assert_eq!(
            flaw_paths(&closure, &sink, &ProvenanceOptions::default()),
            Err(ProvenanceError::NoProofs)
        );
    }

    #[test]
    fn corrupted_proof_store_is_rejected_by_the_walk() {
        let (_prog, mut closure) = clerk_closure();
        let sink = clerk_witness(&closure);
        // Point the sink's derivation at itself: a cycle.
        assert!(closure.replace_proof(&sink, "rule for =", vec![sink]));
        assert_eq!(
            flaw_paths(&closure, &sink, &ProvenanceOptions::default()),
            Err(ProvenanceError::CyclicProof(sink))
        );
        // Point it at a term that is not in the closure: a dangling edge.
        let ghost = Term::Ta(9999);
        assert!(closure.replace_proof(&sink, "rule for =", vec![ghost]));
        assert_eq!(
            flaw_paths(&closure, &sink, &ProvenanceOptions::default()),
            Err(ProvenanceError::MissingProof(ghost))
        );
    }

    #[test]
    fn walks_are_deterministic() {
        let (_prog, c1) = clerk_closure();
        let (_prog2, c2) = clerk_closure();
        let s1 = clerk_witness(&c1);
        let s2 = clerk_witness(&c2);
        let o = ProvenanceOptions {
            mode: WalkMode::Complete,
            max_paths: 64,
            ..ProvenanceOptions::default()
        };
        assert_eq!(
            flaw_paths(&c1, &s1, &o).unwrap(),
            flaw_paths(&c2, &s2, &o).unwrap()
        );
    }

    #[test]
    fn reachable_terms_counts_the_dag() {
        let (_prog, closure) = clerk_closure();
        let sink = clerk_witness(&closure);
        let n = reachable_terms(&closure, &sink).unwrap();
        assert!(n >= 2, "the flaw derivation is not an axiom");
        assert!(n <= closure.len());
    }

    #[test]
    fn render_path_marks_both_ends() {
        let (prog, closure) = clerk_closure();
        let sink = clerk_witness(&closure);
        let paths = flaw_paths(&closure, &sink, &ProvenanceOptions::default()).unwrap();
        let text = render_path(&prog, &paths[0]);
        assert!(text.contains("<- sink"), "missing sink marker:\n{text}");
        assert!(text.contains("<- source"), "missing source marker:\n{text}");
        assert!(text.contains("(axiom"), "source line shows its axiom rule");
    }

    #[test]
    fn source_kinds_classify_by_capability() {
        assert_eq!(classify_source(&Term::Ta(1)), SourceKind::Grant);
        assert_eq!(
            classify_source(&Term::Ti(1, crate::term::Origin::AXIOM)),
            SourceKind::Observation
        );
        assert_eq!(classify_source(&Term::Eq(1, 2)), SourceKind::Structure);
        assert_eq!(SourceKind::Grant.name(), "grant");
    }

    #[test]
    fn mode_and_flag_parsers() {
        assert_eq!(WalkMode::parse("backward"), Some(WalkMode::Backward));
        assert_eq!(WalkMode::parse("forward"), Some(WalkMode::Forward));
        assert_eq!(WalkMode::parse("complete"), Some(WalkMode::Complete));
        assert_eq!(WalkMode::parse("sideways"), None);
        assert_eq!(Severity::parse("critical"), Some(Severity::Critical));
        assert_eq!(Severity::parse("none"), None);
        assert_eq!(WalkMode::Backward.name(), "backward");
    }
}

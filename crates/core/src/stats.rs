//! Closure instrumentation: the observer hook and [`ClosureStats`].
//!
//! The closure engine is generic over a [`ClosureObserver`]: its one entry
//! point, [`crate::closure::Closure::saturate`], takes the observer and
//! hands it back. The [`NoopObserver`] monomorphises every callback to
//! nothing, so an uninstrumented run compiles to the bare engine; a
//! [`ClosureStats`] run pays for what it counts and nothing else.

use crate::term::Term;
use secflow_obs::MetricsSink;

/// Callbacks the closure engine reports into. Every method has an empty
/// default so observers implement only what they care about.
pub trait ClosureObserver {
    /// `derive` was called (before dedup).
    #[inline]
    fn derive_attempt(&mut self) {}

    /// The attempted term was already in the closure.
    #[inline]
    fn dedup_hit(&mut self) {}

    /// A rule produced a conclusion attempt (fires alongside
    /// `derive_attempt`, but labelled). Together with `term_inserted` this
    /// measures per-rule dedup rejection: `fired - derived_new` attempts
    /// under a label were re-derivations.
    #[inline]
    fn rule_fired(&mut self, _rule: &'static str) {}

    /// A new term entered the closure via `rule`.
    #[inline]
    fn term_inserted(&mut self, _t: &Term, _rule: &'static str) {}

    /// One worklist item was taken.
    #[inline]
    fn round(&mut self) {}

    /// The worklist length after a push (for high-water tracking).
    #[inline]
    fn worklist_len(&mut self, _len: usize) {}

    /// End-of-run report: allocated capacity of the interned term set and
    /// whether derivations were recorded
    /// ([`crate::closure::ProofMode::Full`]).
    #[inline]
    fn interner(&mut self, _capacity: usize, _proofs_recorded: bool) {}

    /// A derivation was refused by the demand slice (before `derive_attempt`).
    #[inline]
    fn sliced_out(&mut self) {}

    /// End-of-run report for demand mode: the relevance slice size and
    /// whether the run stopped early with every goal derived.
    #[inline]
    fn demand(&mut self, _slice_nodes: usize, _early_exit: bool) {}

    /// The run hit its term budget and returns
    /// [`crate::closure::ClosureError::TermLimit`].
    #[inline]
    fn aborted(&mut self) {}
}

/// The observer that observes nothing: the optimiser deletes every
/// callback.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl ClosureObserver for NoopObserver {}

/// Counters describing one closure run: terms per capability kind, rule
/// firings per label, fixpoint rounds, worklist high-water mark, dedup hit
/// rate and budget headroom.
///
/// `ClosureStats` is itself the observer — the engine writes straight into
/// it — and is returned even when the run aborts on
/// [`crate::closure::ClosureError::TermLimit`], so a budget post-mortem can
/// see how far the saturation got.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClosureStats {
    /// `ta[e]` terms inserted.
    pub terms_ta: u64,
    /// `pa[e]` terms inserted.
    pub terms_pa: u64,
    /// `ti[e,n,d]` terms inserted.
    pub terms_ti: u64,
    /// `pi[e,n,d]` terms inserted.
    pub terms_pi: u64,
    /// `pi*[(e,e),n,d]` terms inserted.
    pub terms_pistar: u64,
    /// `=[e1,e2]` terms inserted.
    pub terms_eq: u64,
    /// Insertions per rule label, in first-firing order ("derived-new").
    pub firings: Vec<(&'static str, u64)>,
    /// Conclusion attempts per rule label, in first-attempt order
    /// ("fired", deduplicated or not). `fired - derived_new` per label is
    /// the re-derivation volume the engine's prefilters did not skip; the sum
    /// over labels equals [`ClosureStats::derive_calls`].
    pub rule_attempts: Vec<(&'static str, u64)>,
    /// Worklist items processed (equals [`crate::closure::Closure::rounds`]
    /// when the run completes).
    pub rounds: u64,
    /// Worklist length high-water mark.
    pub worklist_peak: u64,
    /// Total `derive` attempts, including deduplicated ones.
    pub derive_calls: u64,
    /// Attempts that found the term already present.
    pub dedup_hits: u64,
    /// The configured term budget.
    pub limit: u64,
    /// Did the run abort on the term budget?
    pub aborted: bool,
    /// Allocated capacity of the interned term set at end of run. Across a
    /// [`ClosureStats::merge`] this is the **peak** per-run capacity (the
    /// memory high-water mark of any one closure), not a sum.
    pub interner_capacity: u64,
    /// Summed interner capacity across merged runs — the denominator that
    /// keeps [`ClosureStats::interner_occupancy`] a terms-weighted load
    /// factor when one report covers several closures.
    pub interner_capacity_sum: u64,
    /// Were derivations recorded (`ProofMode::Full`)?
    pub proofs_recorded: bool,
    /// Derivations refused by the demand slice (0 under full saturation).
    pub sliced_out: u64,
    /// Relevance slice size in program occurrences (summed across merged
    /// demand runs; 0 under full saturation).
    pub slice_nodes: u64,
    /// Did any merged run stop early with every goal derived?
    pub early_exit: bool,
    /// Proof checks performed per rule label by the certifying checker
    /// ([`crate::checker`]); empty until a [`crate::checker::Certificate`]
    /// is absorbed. Monotone counters: merges sum per label.
    pub checker_checks: Vec<(&'static str, u64)>,
}

impl ClosureStats {
    /// Fresh stats for a run with the given term budget.
    pub fn new(limit: usize) -> ClosureStats {
        ClosureStats {
            limit: limit as u64,
            ..ClosureStats::default()
        }
    }

    /// Total terms inserted across all capability kinds.
    pub fn total_terms(&self) -> u64 {
        self.terms_ta
            + self.terms_pa
            + self.terms_ti
            + self.terms_pi
            + self.terms_pistar
            + self.terms_eq
    }

    /// Fraction of derive attempts that were duplicates (0 when none ran).
    pub fn dedup_hit_rate(&self) -> f64 {
        if self.derive_calls == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / self.derive_calls as f64
        }
    }

    /// Fraction of the term budget still unused (0 when aborted).
    pub fn budget_headroom(&self) -> f64 {
        if self.limit == 0 {
            0.0
        } else {
            1.0 - (self.total_terms() as f64 / self.limit as f64).min(1.0)
        }
    }

    /// Fraction of the interner's allocated slots actually holding a term
    /// (0 when nothing was allocated). A persistently low occupancy means
    /// the term set over-reserved — a memory regression signal. Uses the
    /// *summed* capacity across merged runs, so the aggregate stays a
    /// terms-weighted load factor instead of comparing a total term count
    /// against a single run's allocation.
    pub fn interner_occupancy(&self) -> f64 {
        if self.interner_capacity_sum == 0 {
            0.0
        } else {
            self.total_terms() as f64 / self.interner_capacity_sum as f64
        }
    }

    /// Insertions under one rule label (0 if it never fired).
    pub fn firings_of(&self, label: &str) -> u64 {
        self.firings
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// Conclusion attempts under one rule label (0 if it never fired).
    pub fn rule_attempts_of(&self, label: &str) -> u64 {
        self.rule_attempts
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// Proof checks under one rule label (0 if nothing was certified).
    pub fn checker_checks_of(&self, label: &str) -> u64 {
        self.checker_checks
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// Fold a certification's per-rule check counts into the stats (sums;
    /// a batch may certify several closures into one report).
    pub fn absorb_certificate(&mut self, cert: &crate::checker::Certificate) {
        for &(label, n) in &cert.rule_checks {
            if let Some((_, m)) = self.checker_checks.iter_mut().find(|(l, _)| *l == label) {
                *m += n;
            } else {
                self.checker_checks.push((label, n));
            }
        }
    }

    /// Fold another run's stats into this one (summing counts and firings;
    /// high-water marks and the budget take the maximum; `aborted` is
    /// sticky). Used when one report covers many closures — e.g. `check`
    /// over several requirements.
    pub fn merge(&mut self, other: &ClosureStats) {
        self.terms_ta += other.terms_ta;
        self.terms_pa += other.terms_pa;
        self.terms_ti += other.terms_ti;
        self.terms_pi += other.terms_pi;
        self.terms_pistar += other.terms_pistar;
        self.terms_eq += other.terms_eq;
        self.rounds += other.rounds;
        self.derive_calls += other.derive_calls;
        self.dedup_hits += other.dedup_hits;
        self.worklist_peak = self.worklist_peak.max(other.worklist_peak);
        self.limit = self.limit.max(other.limit);
        self.aborted |= other.aborted;
        // Peak capacity is a max (the memory high-water mark of any single
        // run); the occupancy denominator is the separate summed field —
        // summing the peak too would make the reported capacity of a batch
        // meaningless as a per-closure figure.
        self.interner_capacity = self.interner_capacity.max(other.interner_capacity);
        self.interner_capacity_sum += other.interner_capacity_sum;
        self.sliced_out += other.sliced_out;
        self.slice_nodes += other.slice_nodes;
        self.early_exit |= other.early_exit;
        self.proofs_recorded |= other.proofs_recorded;
        for &(label, n) in &other.firings {
            if let Some((_, m)) = self.firings.iter_mut().find(|(l, _)| *l == label) {
                *m += n;
            } else {
                self.firings.push((label, n));
            }
        }
        for &(label, n) in &other.rule_attempts {
            if let Some((_, m)) = self.rule_attempts.iter_mut().find(|(l, _)| *l == label) {
                *m += n;
            } else {
                self.rule_attempts.push((label, n));
            }
        }
        for &(label, n) in &other.checker_checks {
            if let Some((_, m)) = self.checker_checks.iter_mut().find(|(l, _)| *l == label) {
                *m += n;
            } else {
                self.checker_checks.push((label, n));
            }
        }
    }

    /// Report everything into a sink under the `closure.` namespace:
    /// per-kind and total term counters, `closure.rule.<label>` firing
    /// counters, round/worklist/dedup counters, and hit-rate/headroom
    /// gauges.
    pub fn record_to(&self, sink: &mut dyn MetricsSink) {
        sink.counter("closure.terms.ta", self.terms_ta);
        sink.counter("closure.terms.pa", self.terms_pa);
        sink.counter("closure.terms.ti", self.terms_ti);
        sink.counter("closure.terms.pi", self.terms_pi);
        sink.counter("closure.terms.pi_star", self.terms_pistar);
        sink.counter("closure.terms.eq", self.terms_eq);
        sink.counter("closure.terms.total", self.total_terms());
        sink.counter("closure.rounds", self.rounds);
        sink.counter("closure.worklist_peak", self.worklist_peak);
        sink.counter("closure.derive_calls", self.derive_calls);
        sink.counter("closure.dedup_hits", self.dedup_hits);
        sink.counter("closure.term_limit", self.limit);
        sink.counter("closure.aborted", u64::from(self.aborted));
        sink.counter("closure.interner_capacity", self.interner_capacity);
        sink.counter("closure.interner_capacity_sum", self.interner_capacity_sum);
        sink.counter("closure.proofs_recorded", u64::from(self.proofs_recorded));
        sink.counter("closure.sliced_out", self.sliced_out);
        sink.counter("closure.slice_nodes", self.slice_nodes);
        sink.counter("closure.early_exit", u64::from(self.early_exit));
        for (label, n) in &self.firings {
            let mut name = String::with_capacity(13 + label.len());
            name.push_str("closure.rule.");
            name.push_str(label);
            sink.counter(&name, *n);
        }
        for (label, n) in &self.rule_attempts {
            let mut name = String::with_capacity(19 + label.len());
            name.push_str("closure.rule_fired.");
            name.push_str(label);
            sink.counter(&name, *n);
        }
        for (label, n) in &self.checker_checks {
            let mut name = String::with_capacity(13 + label.len());
            name.push_str("checker.rule.");
            name.push_str(label);
            sink.counter(&name, *n);
        }
        sink.gauge("closure.dedup_hit_rate", self.dedup_hit_rate());
        sink.gauge("closure.budget_headroom", self.budget_headroom());
        sink.gauge("closure.interner_occupancy", self.interner_occupancy());
    }
}

impl ClosureObserver for ClosureStats {
    fn derive_attempt(&mut self) {
        self.derive_calls += 1;
    }

    fn dedup_hit(&mut self) {
        self.dedup_hits += 1;
    }

    fn rule_fired(&mut self, rule: &'static str) {
        if let Some((_, n)) = self.rule_attempts.iter_mut().find(|(l, _)| *l == rule) {
            *n += 1;
        } else {
            self.rule_attempts.push((rule, 1));
        }
    }

    fn term_inserted(&mut self, t: &Term, rule: &'static str) {
        match t {
            Term::Ta(_) => self.terms_ta += 1,
            Term::Pa(_) => self.terms_pa += 1,
            Term::Ti(..) => self.terms_ti += 1,
            Term::Pi(..) => self.terms_pi += 1,
            Term::PiStar(..) => self.terms_pistar += 1,
            Term::Eq(..) => self.terms_eq += 1,
        }
        if let Some((_, n)) = self.firings.iter_mut().find(|(l, _)| *l == rule) {
            *n += 1;
        } else {
            self.firings.push((rule, 1));
        }
    }

    fn round(&mut self) {
        self.rounds += 1;
    }

    fn worklist_len(&mut self, len: usize) {
        self.worklist_peak = self.worklist_peak.max(len as u64);
    }

    fn interner(&mut self, capacity: usize, proofs_recorded: bool) {
        self.interner_capacity = capacity as u64;
        self.interner_capacity_sum = capacity as u64;
        self.proofs_recorded = proofs_recorded;
    }

    fn sliced_out(&mut self) {
        self.sliced_out += 1;
    }

    fn demand(&mut self, slice_nodes: usize, early_exit: bool) {
        self.slice_nodes = slice_nodes as u64;
        self.early_exit = early_exit;
    }

    fn aborted(&mut self) {
        self.aborted = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_safe_on_empty_stats() {
        let s = ClosureStats::default();
        assert_eq!(s.dedup_hit_rate(), 0.0);
        assert_eq!(s.budget_headroom(), 0.0);
        assert_eq!(s.interner_occupancy(), 0.0);
        assert_eq!(s.total_terms(), 0);
        assert_eq!(s.firings_of("anything"), 0);
    }

    #[test]
    fn interner_callback_sets_capacity_and_mode() {
        let mut s = ClosureStats::new(100);
        s.term_inserted(&Term::Ta(1), "axiom");
        s.interner(8, true);
        assert_eq!(s.interner_capacity, 8);
        assert!(s.proofs_recorded);
        assert_eq!(s.interner_occupancy(), 1.0 / 8.0);
    }

    #[test]
    fn observer_callbacks_accumulate() {
        let mut s = ClosureStats::new(100);
        s.derive_attempt();
        s.term_inserted(&Term::Ta(1), "axiom");
        s.derive_attempt();
        s.dedup_hit();
        s.round();
        s.worklist_len(3);
        s.worklist_len(1);
        assert_eq!(s.terms_ta, 1);
        assert_eq!(s.firings_of("axiom"), 1);
        assert_eq!(s.dedup_hit_rate(), 0.5);
        assert_eq!(s.worklist_peak, 3);
        assert!(s.budget_headroom() > 0.98);
    }

    #[test]
    fn merge_sums_counts_and_keeps_marks() {
        let mut a = ClosureStats::new(100);
        a.term_inserted(&Term::Ta(1), "axiom");
        a.worklist_len(4);
        let mut b = ClosureStats::new(50);
        b.term_inserted(&Term::Ta(2), "axiom");
        b.term_inserted(&Term::Eq(1, 2), "rule for =");
        b.worklist_len(9);
        b.aborted = true;
        b.interner(16, true);
        a.merge(&b);
        assert_eq!(a.terms_ta, 2);
        assert_eq!(a.terms_eq, 1);
        assert_eq!(a.firings_of("axiom"), 2);
        assert_eq!(a.firings_of("rule for ="), 1);
        assert_eq!(a.worklist_peak, 9);
        assert_eq!(a.limit, 100);
        assert!(a.aborted);
        assert_eq!(a.interner_capacity, 16);
        assert!(a.proofs_recorded);
    }

    #[test]
    fn merge_keeps_peak_capacity_and_sums_for_occupancy() {
        // Two runs of 16-slot interners with one term each: the merged
        // report must show a 16-slot peak (not 32) and an occupancy of
        // 2/32, the terms-weighted load factor.
        let mut a = ClosureStats::new(100);
        a.term_inserted(&Term::Ta(1), "axiom");
        a.interner(16, false);
        let mut b = ClosureStats::new(100);
        b.term_inserted(&Term::Ta(2), "axiom");
        b.interner(16, false);
        a.merge(&b);
        assert_eq!(a.interner_capacity, 16, "peak, not a sum");
        assert_eq!(a.interner_capacity_sum, 32);
        assert_eq!(a.interner_occupancy(), 2.0 / 32.0);
    }

    #[test]
    fn demand_callbacks_accumulate_and_merge() {
        let mut a = ClosureStats::new(100);
        a.sliced_out();
        a.sliced_out();
        a.demand(7, false);
        assert_eq!(a.sliced_out, 2);
        assert_eq!(a.slice_nodes, 7);
        assert!(!a.early_exit);
        let mut b = ClosureStats::new(100);
        b.sliced_out();
        b.demand(5, true);
        a.merge(&b);
        assert_eq!(a.sliced_out, 3);
        assert_eq!(a.slice_nodes, 12);
        assert!(a.early_exit, "early exit is sticky across merges");
    }

    #[test]
    fn record_to_emits_demand_and_capacity_counters() {
        let mut s = ClosureStats::new(100);
        s.term_inserted(&Term::Ta(1), "axiom");
        s.interner(8, false);
        s.sliced_out();
        s.demand(4, true);
        let mut rec = secflow_obs::Recorder::new();
        s.record_to(&mut rec);
        let report = rec.into_report();
        assert_eq!(report.counter("closure.interner_capacity"), Some(8));
        assert_eq!(report.counter("closure.interner_capacity_sum"), Some(8));
        assert_eq!(report.counter("closure.sliced_out"), Some(1));
        assert_eq!(report.counter("closure.slice_nodes"), Some(4));
        assert_eq!(report.counter("closure.early_exit"), Some(1));
    }

    #[test]
    fn merge_contract_is_pinned_field_by_field() {
        // The full sum-vs-max contract over two hand-built values: monotone
        // counters add, high-water marks (worklist depth, peak interner
        // capacity) and the budget take the maximum, marks are sticky, and
        // the per-label tables add label-wise. A new field must be placed
        // into exactly one of these classes and asserted here.
        let mut a = ClosureStats {
            terms_ta: 1,
            terms_pa: 2,
            terms_ti: 3,
            terms_pi: 4,
            terms_pistar: 5,
            terms_eq: 6,
            firings: vec![("axiom", 7), ("implication", 1)],
            rule_attempts: vec![("axiom", 9)],
            rounds: 10,
            worklist_peak: 11,
            derive_calls: 12,
            dedup_hits: 13,
            limit: 100,
            aborted: false,
            interner_capacity: 64,
            interner_capacity_sum: 64,
            proofs_recorded: false,
            sliced_out: 14,
            slice_nodes: 15,
            early_exit: false,
            checker_checks: vec![("axiom", 2)],
        };
        let b = ClosureStats {
            terms_ta: 10,
            terms_pa: 20,
            terms_ti: 30,
            terms_pi: 40,
            terms_pistar: 50,
            terms_eq: 60,
            firings: vec![("axiom", 70), ("rule for =", 2)],
            rule_attempts: vec![("axiom", 90), ("implication", 3)],
            rounds: 100,
            worklist_peak: 5,
            derive_calls: 120,
            dedup_hits: 130,
            limit: 50,
            aborted: true,
            interner_capacity: 32,
            interner_capacity_sum: 32,
            proofs_recorded: true,
            sliced_out: 140,
            slice_nodes: 150,
            early_exit: true,
            checker_checks: vec![("axiom", 3), ("implication", 4)],
        };
        a.merge(&b);
        // Monotone counters: sums.
        assert_eq!(
            (a.terms_ta, a.terms_pa, a.terms_ti, a.terms_pi),
            (11, 22, 33, 44)
        );
        assert_eq!((a.terms_pistar, a.terms_eq), (55, 66));
        assert_eq!(a.rounds, 110);
        assert_eq!(a.derive_calls, 132);
        assert_eq!(a.dedup_hits, 143);
        assert_eq!(a.interner_capacity_sum, 96);
        assert_eq!(a.sliced_out, 154);
        assert_eq!(a.slice_nodes, 165);
        // High-water marks and the budget: maxima.
        assert_eq!(a.worklist_peak, 11, "worklist depth is a high-water mark");
        assert_eq!(a.limit, 100, "budget takes the larger of the two");
        assert_eq!(a.interner_capacity, 64, "peak capacity is a max, not a sum");
        // Sticky marks.
        assert!(a.aborted && a.proofs_recorded && a.early_exit);
        // Per-label tables: label-wise sums, unseen labels appended.
        assert_eq!(a.firings_of("axiom"), 77);
        assert_eq!(a.firings_of("implication"), 1);
        assert_eq!(a.firings_of("rule for ="), 2);
        assert_eq!(a.rule_attempts_of("axiom"), 99);
        assert_eq!(a.rule_attempts_of("implication"), 3);
        assert_eq!(a.checker_checks_of("axiom"), 5);
        assert_eq!(a.checker_checks_of("implication"), 4);
    }

    #[test]
    fn absorbed_certificates_merge_and_record() {
        let schema = oodb_lang::parse_schema(
            r#"
            class C { a: int }
            user u { r_a }
            "#,
        )
        .unwrap();
        oodb_lang::check_schema(&schema).unwrap();
        let prog = crate::unfold::NProgram::unfold(&schema, schema.user_str("u").unwrap()).unwrap();
        let c = crate::closure::Closure::compute(&prog).unwrap();
        let cert = c
            .certify(&prog, &crate::rules::RuleConfig::default())
            .unwrap();
        let mut s = ClosureStats::new(100);
        s.absorb_certificate(&cert);
        s.absorb_certificate(&cert);
        let total: u64 = s.checker_checks.iter().map(|(_, n)| n).sum();
        assert_eq!(total as usize, 2 * cert.terms_checked);
        let mut rec = secflow_obs::Recorder::new();
        s.record_to(&mut rec);
        let report = rec.into_report();
        assert!(s.checker_checks_of("axiom") > 0);
        assert_eq!(
            report.counter("checker.rule.axiom"),
            Some(s.checker_checks_of("axiom")),
            "checker namespace is emitted"
        );
    }

    #[test]
    fn record_to_emits_the_namespace() {
        let mut s = ClosureStats::new(1000);
        s.term_inserted(&Term::Eq(1, 2), "axiom for =");
        let mut rec = secflow_obs::Recorder::new();
        s.record_to(&mut rec);
        let report = rec.into_report();
        assert_eq!(report.counter("closure.terms.eq"), Some(1));
        assert_eq!(report.counter("closure.rule.axiom for ="), Some(1));
        assert_eq!(report.counter("closure.term_limit"), Some(1000));
        assert!(report.gauge("closure.budget_headroom").unwrap() > 0.99);
    }
}

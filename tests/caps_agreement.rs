//! The callers of `analyze_caps` against the `RefClosure` oracle.
//!
//! `analyze_caps` runs `A(R)` under a capability list that no user of the
//! schema need hold. Two components decide through it: the guard
//! (`secflow-guard`, the paper's §5 runtime alternative), which analyses a
//! session's exercised functions before each query, and the advisor
//! (`secflow fix`), which probes the user's list with grants revoked. On
//! random policies, every verdict, guard decision and repair must be what
//! unfolding the list and saturating it with the oracle says.

use oodb_engine::Database;
use oodb_lang::requirement::Requirement;
use oodb_lang::{parse_query, Schema};
use oodb_model::{CapabilityList, FnRef, Type};
use proptest::prelude::*;
use secflow::advisor::{advise, Advice, AdvisorConfig};
use secflow::algorithm::{analyze_caps, check_against, AnalysisConfig};
use secflow::reference::RefClosure;
use secflow::report::Verdict;
use secflow::unfold::NProgram;
use secflow_guard::{GuardError, GuardedSession};
use secflow_workloads::random::{random_case, RandomCase, RandomSpec};
use std::collections::HashMap;

/// `A(R)` by the oracle: unfold `caps`, saturate fully with `RefClosure`,
/// check.
fn oracle(schema: &Schema, caps: &CapabilityList, req: &Requirement) -> Verdict {
    let prog = NProgram::unfold(schema, caps).expect("random policies unfold");
    let closure = RefClosure::compute(&prog).expect("random policies saturate");
    check_against(&prog, &closure, req)
}

fn violated(schema: &Schema, caps: &CapabilityList, req: &Requirement) -> bool {
    oracle(schema, caps, req).is_violated()
}

/// The user's grants in list order.
fn grants(case: &RandomCase) -> Vec<FnRef> {
    let caps = case.schema.user_str(&case.user).expect("the case's user");
    caps.iter().cloned().collect()
}

/// The grants whose bit is set in `mask`.
fn subset(grants: &[FnRef], mask: u64) -> CapabilityList {
    grants
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, f)| f.clone())
        .collect()
}

/// An invocation of `f` on the from-variable `c` of class `C`, with a
/// literal for every `int` argument.
fn invocation(schema: &Schema, f: &FnRef) -> String {
    let arg = |ty: &Type| match ty {
        Type::Class(_) => "c",
        t if *t == Type::INT => "1",
        other => panic!("random policies take no {other} arguments"),
    };
    let args: Vec<&str> = match f {
        FnRef::Access(name) => schema.functions[name]
            .params
            .iter()
            .map(|(_, ty)| arg(ty))
            .collect(),
        FnRef::Read(_) => vec!["c"],
        FnRef::Write(_) => vec!["c", "1"],
        FnRef::New(_) => panic!("random policies grant no constructors"),
    };
    format!("{f}({})", args.join(", "))
}

/// The query `select … from c in C` that invokes exactly `caps`.
fn query_invoking(schema: &Schema, caps: &CapabilityList) -> String {
    let items: Vec<String> = caps.iter().map(|f| invocation(schema, f)).collect();
    let items = if items.is_empty() {
        "c".to_owned()
    } else {
        items.join(", ")
    };
    format!("select {items} from c in C")
}

/// The oracle's verdict on one requirement after revoking a subset of the
/// user's grants, memoized by the revoke set's bit mask over the grants.
struct RevokeOracle<'a> {
    case: &'a RandomCase,
    req: &'a Requirement,
    grants: Vec<FnRef>,
    memo: HashMap<u64, bool>,
}

impl<'a> RevokeOracle<'a> {
    fn new(case: &'a RandomCase, req: &'a Requirement) -> RevokeOracle<'a> {
        RevokeOracle {
            case,
            req,
            grants: grants(case),
            memo: HashMap::new(),
        }
    }

    fn mask(&self, revoke: &[FnRef]) -> u64 {
        revoke.iter().fold(0, |m, f| {
            let i = self
                .grants
                .iter()
                .position(|g| g == f)
                .expect("a granted function");
            m | 1 << i
        })
    }

    /// Is the requirement still violated after revoking `revoke`?
    fn violated_after(&mut self, revoke: u64) -> bool {
        if let Some(&v) = self.memo.get(&revoke) {
            return v;
        }
        let kept = subset(&self.grants, !revoke);
        let v = violated(&self.case.schema, &kept, self.req);
        self.memo.insert(revoke, v);
        v
    }

    /// Every inclusion-minimal revoke set of at most `max` grants, by size
    /// and then in lexicographic index order: the advisor's sweep done by
    /// brute force.
    fn minimal_repairs(&mut self, max: usize) -> Vec<Vec<FnRef>> {
        let n = self.grants.len();
        let indexes = |m: u64| -> Vec<usize> { (0..n).filter(|i| m & (1 << i) != 0).collect() };
        let mut masks: Vec<u64> = (1..1u64 << n)
            .filter(|m| m.count_ones() as usize <= max)
            .collect();
        masks.sort_by_key(|&m| (m.count_ones(), indexes(m)));
        let mut found: Vec<u64> = Vec::new();
        for m in masks {
            // Supersets of a found repair are not minimal.
            let superset = found.iter().any(|&f| f & !m == 0);
            if !superset && !self.violated_after(m) {
                found.push(m);
            }
        }
        found
            .into_iter()
            .map(|m| subset(&self.grants, m).iter().cloned().collect())
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `analyze_caps` on subsets of the granted functions gives the oracle's
    /// verdicts.
    #[test]
    fn analyze_caps_agrees_with_the_oracle(seed in 0u64..100_000, mask in 0u64..64) {
        let case = random_case(seed, &RandomSpec::default());
        let config = AnalysisConfig::default();
        let reqs = &case.requirements;
        for m in [mask, !mask, u64::MAX] {
            let caps = subset(&grants(&case), m);
            let expected: Vec<_> = reqs.iter().map(|r| Ok(oracle(&case.schema, &caps, r))).collect();
            prop_assert_eq!(analyze_caps(&case.schema, &caps, reqs, &config), expected);
        }
    }

    /// From a fresh session, the guard denies a query invoking exactly F if
    /// and only if the oracle finds a protected requirement violated
    /// under F, and repeats the decision from its verdict memo.
    #[test]
    fn guard_denies_exactly_the_flawed_function_sets(seed in 0u64..100_000, mask in 0u64..64) {
        let case = random_case(seed, &RandomSpec::default());
        let caps = subset(&grants(&case), mask);
        let flawed = case
            .requirements
            .iter()
            .any(|r| violated(&case.schema, &caps, r));
        let query = parse_query(&query_invoking(&case.schema, &caps)).expect("the query parses");
        let mut db = Database::new(case.schema.clone()).expect("random policies check");
        let session = GuardedSession::open(&mut db, case.user.as_str(), case.requirements.clone());
        let decision = session.would_allow(&query);
        let again = session.would_allow(&query);
        prop_assert_eq!(format!("{again:?}"), format!("{decision:?}"));
        match decision {
            Ok(()) => prop_assert!(!flawed, "allowed a flawed set {}", caps),
            Err(GuardError::FlawDenied { .. }) => prop_assert!(flawed, "denied a safe set {}", caps),
            Err(other) => prop_assert!(false, "guard failed on {}: {}", caps, other),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every repair satisfies the requirement under the oracle and no
    /// proper subset of it does; a sweep within its budget finds exactly
    /// the brute-force minimal revoke sets.
    #[test]
    fn advisor_repairs_are_the_oracles_minimal_revoke_sets(seed in 0u64..100_000) {
        let case = random_case(seed, &RandomSpec::default());
        let config = AdvisorConfig::default();
        for req in &case.requirements {
            let mut revokes = RevokeOracle::new(&case, req);
            let advice = advise(&case.schema, req, &config).expect("random policies analyse");
            let (repairs, exhausted) = match advice {
                Advice::AlreadySatisfied => {
                    prop_assert!(!revokes.violated_after(0));
                    continue;
                }
                Advice::Unrepairable => {
                    prop_assert!(revokes.violated_after(u64::MAX));
                    continue;
                }
                Advice::Repairs(repairs) => (repairs, false),
                Advice::BudgetExhausted(repairs) => (repairs, true),
            };
            prop_assert!(revokes.violated_after(0));
            let brute = revokes.minimal_repairs(config.max_revocations);
            let found: Vec<Vec<FnRef>> = repairs.into_iter().map(|r| r.revoke).collect();
            if !exhausted && brute.is_empty() {
                // Nothing within `max_revocations`: the advisor falls back
                // to revoking every grant.
                prop_assert_eq!(found, vec![revokes.grants.clone()]);
                continue;
            }
            for r in &found {
                let m = revokes.mask(r);
                prop_assert!(!revokes.violated_after(m), "{:?} repairs nothing", r);
                let mut smaller = m;
                while smaller != 0 {
                    // Every proper subset of `m`, largest mask first.
                    smaller = (smaller - 1) & m;
                    prop_assert!(revokes.violated_after(smaller), "{:?} is not minimal", r);
                }
            }
            if !exhausted {
                prop_assert_eq!(found, brute);
            }
        }
    }
}

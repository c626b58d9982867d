//! The term language of the static inference system `F(F)` (§4.1):
//!
//! ```text
//! term ::= ta[e] | pa[e]
//!        | ti[e, num, dir] | pi[e, num, dir]
//!        | pi*[(e1, e2), num, dir]
//!        | =[e1, e2]
//! ```
//!
//! `ta`/`pa`: there *may* exist a function sequence where the user achieves
//! total/partial alterability on a correspondent of the occurrence `e`.
//! `ti`/`pi`: likewise for total/partial inferability. `pi*` says the user
//! may infer a *joint* constraint on a pair of expressions that does not
//! constrain either projection alone. `=[e1,e2]` says there may be a
//! sequence where the user can deduce the two occurrences denote the same
//! value.
//!
//! ## `num`/`dir` — the origin fields
//!
//! Inferability terms carry an [`Origin`] recording *how* the inference was
//! obtained: `num` is the serial number of the basic-function node the
//! inference last flowed through (0 for axioms and equality-derived terms)
//! and `dir` is [`Dir::Down`] (`+`, from arguments to result) or
//! [`Dir::Up`] (`−`, from result/siblings to an argument). The paper needs
//! them for two things (§4.1):
//!
//! 1. two `pi` terms on the same expression with *different* origins count
//!    as "two different ways", and their intersection may be a singleton —
//!    so they join to `ti`;
//! 2. an inference must never *feed back* into its own cause — the rule
//!    guards `(n,d) ≠ (l,−)` / `(n,d) ≠ (l,+)` implemented in
//!    [`crate::basics`].

use crate::unfold::ExprId;
use std::fmt;

/// Direction a piece of inferability flowed through a basic-function node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dir {
    /// `+`: from the arguments to the result.
    Down,
    /// `−`: from the result (and sibling arguments) to an argument.
    Up,
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Dir::Down => "+",
            Dir::Up => "-",
        })
    }
}

/// Origin of an inferability term: `(num, dir)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Origin {
    /// Serial number of the basic-function node last flowed through;
    /// 0 for axioms and equality-derived inferability.
    pub num: ExprId,
    /// Flow direction at that node.
    pub dir: Dir,
}

impl Origin {
    /// Origin of axioms on directly observed values (constants, arguments
    /// the user supplies, returned values of outer-most functions).
    pub const AXIOM: Origin = Origin {
        num: 0,
        dir: Dir::Down,
    };

    /// Construct an origin.
    pub fn new(num: ExprId, dir: Dir) -> Origin {
        Origin { num, dir }
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}, {}", self.num, self.dir)
    }
}

/// A term of `F(F)`.
///
/// `Eq` and `PiStar` are stored with their operands normalised
/// (`min ≤ max`), making symmetry structural instead of a rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// Total alterability may be achievable on the occurrence.
    Ta(ExprId),
    /// Partial alterability may be achievable.
    Pa(ExprId),
    /// Total inferability may be achievable, with origin.
    Ti(ExprId, Origin),
    /// Partial inferability may be achievable, with origin.
    Pi(ExprId, Origin),
    /// A joint (pairwise) constraint may be inferable, with origin.
    PiStar(ExprId, ExprId, Origin),
    /// The two occurrences may be known to denote equal values.
    Eq(ExprId, ExprId),
}

impl Term {
    /// Build a normalised equality term. `a == b` is rejected (reflexive
    /// equalities carry no information and would bloat the closure).
    pub fn eq(a: ExprId, b: ExprId) -> Option<Term> {
        match a.cmp(&b) {
            std::cmp::Ordering::Less => Some(Term::Eq(a, b)),
            std::cmp::Ordering::Greater => Some(Term::Eq(b, a)),
            std::cmp::Ordering::Equal => None,
        }
    }

    /// Build a normalised `pi*` term; degenerate pairs are rejected.
    pub fn pi_star(a: ExprId, b: ExprId, origin: Origin) -> Option<Term> {
        match a.cmp(&b) {
            std::cmp::Ordering::Less => Some(Term::PiStar(a, b, origin)),
            std::cmp::Ordering::Greater => Some(Term::PiStar(b, a, origin)),
            std::cmp::Ordering::Equal => None,
        }
    }

    /// The expression(s) this term mentions.
    pub fn mentions(&self) -> (ExprId, Option<ExprId>) {
        match *self {
            Term::Ta(e) | Term::Pa(e) | Term::Ti(e, _) | Term::Pi(e, _) => (e, None),
            Term::PiStar(a, b, _) | Term::Eq(a, b) => (a, Some(b)),
        }
    }

    /// The origin, for inferability terms.
    pub fn origin(&self) -> Option<Origin> {
        match *self {
            Term::Ti(_, o) | Term::Pi(_, o) | Term::PiStar(_, _, o) => Some(o),
            _ => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Ta(e) => write!(f, "ta[{e}]"),
            Term::Pa(e) => write!(f, "pa[{e}]"),
            Term::Ti(e, o) => write!(f, "ti[{e}, {o}]"),
            Term::Pi(e, o) => write!(f, "pi[{e}, {o}]"),
            Term::PiStar(a, b, o) => write!(f, "pi*[({a}, {b}), {o}]"),
            Term::Eq(a, b) => write!(f, "=[{a}, {b}]"),
        }
    }
}

/// A [`Term`] packed into one 128-bit word — the interned key the fast-path
/// closure engine stores in its hash set instead of the enum.
///
/// Layout (low to high): `dir:1 | num:32 | b:32 | a:32 | tag:3`. Every field
/// of every variant is a small integer, so the packing is exact and
/// reversible ([`TermId::term`]); hashing and equality become single-word
/// operations instead of a derived walk over the enum.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(u128);

const TAG_TA: u128 = 0;
const TAG_PA: u128 = 1;
const TAG_TI: u128 = 2;
const TAG_PI: u128 = 3;
const TAG_PISTAR: u128 = 4;
const TAG_EQ: u128 = 5;

#[inline]
fn pack(tag: u128, a: ExprId, b: ExprId, o: Option<Origin>) -> u128 {
    let (num, dir) = match o {
        Some(o) => (o.num, matches!(o.dir, Dir::Up) as u128),
        None => (0, 0),
    };
    dir | (num as u128) << 1 | (b as u128) << 33 | (a as u128) << 65 | tag << 97
}

impl TermId {
    /// Pack a term.
    #[inline]
    pub fn new(t: Term) -> TermId {
        TermId(match t {
            Term::Ta(e) => pack(TAG_TA, e, 0, None),
            Term::Pa(e) => pack(TAG_PA, e, 0, None),
            Term::Ti(e, o) => pack(TAG_TI, e, 0, Some(o)),
            Term::Pi(e, o) => pack(TAG_PI, e, 0, Some(o)),
            Term::PiStar(a, b, o) => pack(TAG_PISTAR, a, b, Some(o)),
            Term::Eq(a, b) => pack(TAG_EQ, a, b, None),
        })
    }

    /// Unpack back into the enum.
    #[inline]
    pub fn term(self) -> Term {
        let v = self.0;
        let a = (v >> 65) as ExprId;
        let b = (v >> 33) as ExprId;
        let o = Origin {
            num: (v >> 1) as ExprId,
            dir: if v & 1 == 1 { Dir::Up } else { Dir::Down },
        };
        match v >> 97 {
            TAG_TA => Term::Ta(a),
            TAG_PA => Term::Pa(a),
            TAG_TI => Term::Ti(a, o),
            TAG_PI => Term::Pi(a, o),
            TAG_PISTAR => Term::PiStar(a, b, o),
            _ => Term::Eq(a, b),
        }
    }
}

impl From<Term> for TermId {
    fn from(t: Term) -> TermId {
        TermId::new(t)
    }
}

impl From<TermId> for Term {
    fn from(id: TermId) -> Term {
        id.term()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_normalises_and_rejects_reflexive() {
        assert_eq!(Term::eq(5, 2), Some(Term::Eq(2, 5)));
        assert_eq!(Term::eq(2, 5), Some(Term::Eq(2, 5)));
        assert_eq!(Term::eq(3, 3), None);
    }

    #[test]
    fn pi_star_normalises() {
        let o = Origin::AXIOM;
        assert_eq!(Term::pi_star(7, 3, o), Some(Term::PiStar(3, 7, o)));
        assert_eq!(Term::pi_star(3, 3, o), None);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Term::Ta(9).to_string(), "ta[9]");
        assert_eq!(
            Term::Ti(5, Origin::new(7, Dir::Up)).to_string(),
            "ti[5, 7, -]"
        );
        assert_eq!(
            Term::PiStar(1, 2, Origin::AXIOM).to_string(),
            "pi*[(1, 2), 0, +]"
        );
        assert_eq!(Term::Eq(1, 8).to_string(), "=[1, 8]");
    }

    #[test]
    fn mentions_and_origin() {
        assert_eq!(Term::Pa(4).mentions(), (4, None));
        assert_eq!(Term::Eq(1, 2).mentions(), (1, Some(2)));
        assert_eq!(Term::Ta(1).origin(), None);
        assert_eq!(
            Term::Pi(1, Origin::new(3, Dir::Down)).origin(),
            Some(Origin::new(3, Dir::Down))
        );
    }

    #[test]
    fn term_id_round_trips_every_shape() {
        let origins = [
            Origin::AXIOM,
            Origin::new(7, Dir::Up),
            Origin::new(u32::MAX, Dir::Down),
        ];
        let mut terms = vec![
            Term::Ta(0),
            Term::Ta(u32::MAX),
            Term::Pa(3),
            Term::Eq(1, 2),
            Term::Eq(0, u32::MAX),
        ];
        for o in origins {
            terms.push(Term::Ti(5, o));
            terms.push(Term::Pi(u32::MAX, o));
            terms.push(Term::PiStar(1, u32::MAX, o));
        }
        for t in terms {
            assert_eq!(TermId::new(t).term(), t, "round trip of {t}");
        }
    }

    #[test]
    fn term_id_is_injective_across_kinds() {
        use std::collections::HashSet;
        // Same payload, different tags must stay distinct.
        let ids: HashSet<TermId> = [
            Term::Ta(1),
            Term::Pa(1),
            Term::Ti(1, Origin::AXIOM),
            Term::Pi(1, Origin::AXIOM),
            Term::PiStar(1, 2, Origin::AXIOM),
            Term::Eq(1, 2),
        ]
        .into_iter()
        .map(TermId::new)
        .collect();
        assert_eq!(ids.len(), 6);
    }

    #[test]
    fn origins_distinguish_terms() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(Term::Pi(1, Origin::new(2, Dir::Down)));
        assert!(s.insert(Term::Pi(1, Origin::new(2, Dir::Up))));
        assert!(s.insert(Term::Pi(1, Origin::new(3, Dir::Down))));
        assert!(!s.insert(Term::Pi(1, Origin::new(2, Dir::Down))));
    }
}

//! Capability lists and invocable-function references.
//!
//! §2: *"A capability list is a set of all access function names (or names of
//! special functions) that the user is allowed to invoke in the query."*
//!
//! The invocable things are therefore:
//!
//! * access functions, by name;
//! * the special read function `r_att` for an attribute;
//! * the special write function `w_att` for an attribute;
//! * the special constructor `new C` for a class.
//!
//! [`FnRef`] is the shared vocabulary for "something a user can invoke"; the
//! analysis ([`secflow`]) takes a capability list, unfolds every member, and
//! reasons about the resulting expression set.
//!
//! [`secflow`]: ../../secflow/index.html

use crate::ident::{AttrName, ClassName, FnName, UserName};
use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// A reference to an invocable function: an access function or one of the
/// paper's special functions.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FnRef {
    /// A named access function.
    Access(FnName),
    /// `r_att`: read the attribute's current value.
    Read(AttrName),
    /// `w_att`: write a new value into the attribute (returns `null`).
    Write(AttrName),
    /// `new C`: create a fresh instance of class `C`.
    New(ClassName),
}

impl FnRef {
    /// Reference an access function.
    pub fn access(name: impl Into<FnName>) -> FnRef {
        FnRef::Access(name.into())
    }

    /// Reference the read special function for an attribute.
    pub fn read(attr: impl Into<AttrName>) -> FnRef {
        FnRef::Read(attr.into())
    }

    /// Reference the write special function for an attribute.
    pub fn write(attr: impl Into<AttrName>) -> FnRef {
        FnRef::Write(attr.into())
    }

    /// Reference the constructor for a class.
    pub fn new_class(class: impl Into<ClassName>) -> FnRef {
        FnRef::New(class.into())
    }

    /// Is this one of the special functions (`r_`, `w_`, `new`)?
    pub fn is_special(&self) -> bool {
        !matches!(self, FnRef::Access(_))
    }
}

impl fmt::Display for FnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FnRef::Access(n) => write!(f, "{n}"),
            FnRef::Read(a) => write!(f, "r_{a}"),
            FnRef::Write(a) => write!(f, "w_{a}"),
            FnRef::New(c) => write!(f, "new {c}"),
        }
    }
}

impl FromStr for FnRef {
    type Err = String;

    /// Parse the paper's naming convention: `r_salary`, `w_budget`,
    /// `new Broker`, anything else is an access-function name.
    fn from_str(s: &str) -> Result<FnRef, String> {
        let s = s.trim();
        if s.is_empty() {
            return Err("empty function reference".to_owned());
        }
        if s == "new" {
            return Err("`new` without class name".to_owned());
        }
        if let Some(rest) = s.strip_prefix("new ") {
            let c = rest.trim();
            if c.is_empty() {
                return Err("`new` without class name".to_owned());
            }
            return Ok(FnRef::new_class(c));
        }
        if let Some(rest) = s.strip_prefix("r_") {
            if !rest.is_empty() {
                return Ok(FnRef::read(rest));
            }
        }
        if let Some(rest) = s.strip_prefix("w_") {
            if !rest.is_empty() {
                return Ok(FnRef::write(rest));
            }
        }
        Ok(FnRef::access(s))
    }
}

/// A user's capability list: the set of [`FnRef`]s the user may invoke.
///
/// The set is shared copy-on-write: a clone shares its storage, so the many
/// users of a large policy who hold equal lists can hold one stored set
/// (the parser gives them that), and an edit through [`grant`] or
/// [`revoke`] copies the set first when it is shared, so it never reaches
/// another holder.
///
/// [`grant`]: CapabilityList::grant
/// [`revoke`]: CapabilityList::revoke
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct CapabilityList {
    entries: Arc<BTreeSet<FnRef>>,
}

impl CapabilityList {
    /// Empty list.
    pub fn new() -> CapabilityList {
        CapabilityList::default()
    }

    /// Grant a capability; returns whether it was newly added.
    pub fn grant(&mut self, f: FnRef) -> bool {
        !self.entries.contains(&f) && Arc::make_mut(&mut self.entries).insert(f)
    }

    /// Revoke a capability; returns whether it was present.
    pub fn revoke(&mut self, f: &FnRef) -> bool {
        self.entries.contains(f) && Arc::make_mut(&mut self.entries).remove(f)
    }

    /// Do `self` and `other` share one stored set? Shared lists are equal;
    /// equal lists need not be shared.
    pub fn shares_storage(&self, other: &CapabilityList) -> bool {
        Arc::ptr_eq(&self.entries, &other.entries)
    }

    /// The identity of the stored set: equal for two lists exactly when
    /// they [share storage](CapabilityList::shares_storage). It is the
    /// set's address, so it names one set only while a list holding that
    /// set is alive — a key for lists borrowed from one schema, say, which
    /// hashes in O(1) where the list itself hashes every entry.
    pub fn storage_id(&self) -> usize {
        Arc::as_ptr(&self.entries) as usize
    }

    /// Is the capability granted?
    pub fn allows(&self, f: &FnRef) -> bool {
        self.entries.contains(f)
    }

    /// Iterate in deterministic (ordered) fashion.
    pub fn iter(&self) -> impl Iterator<Item = &FnRef> {
        self.entries.iter()
    }

    /// Number of granted capabilities.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is anything granted?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Is `self` a subset of `other`? (Used by the A(R)-monotonicity
    /// property tests: growing a capability list can only add flaws.)
    pub fn is_subset(&self, other: &CapabilityList) -> bool {
        self.entries.is_subset(&other.entries)
    }
}

impl FromIterator<FnRef> for CapabilityList {
    fn from_iter<I: IntoIterator<Item = FnRef>>(iter: I) -> CapabilityList {
        CapabilityList {
            entries: Arc::new(iter.into_iter().collect()),
        }
    }
}

impl fmt::Display for CapabilityList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "}}")
    }
}

/// A database user: a name plus a capability list. §2 stores the pair
/// `(u_name, {f_name})` in the database; we keep users in the schema-level
/// catalog managed by `oodb-engine`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct User {
    /// User name.
    pub name: UserName,
    /// Functions this user may invoke.
    pub capabilities: CapabilityList,
}

impl User {
    /// Create a user with the given capabilities.
    pub fn new(name: impl Into<UserName>, capabilities: CapabilityList) -> User {
        User {
            name: name.into(),
            capabilities,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnref_parse_and_display_round_trip() {
        for s in ["checkBudget", "r_salary", "w_budget", "new Broker"] {
            let f: FnRef = s.parse().unwrap();
            assert_eq!(f.to_string(), s);
        }
    }

    #[test]
    fn fnref_parse_oddities() {
        // A bare `r_` / `w_` is an access-function name, not a special fn.
        assert_eq!("r_".parse::<FnRef>().unwrap(), FnRef::access("r_"));
        assert_eq!("w_".parse::<FnRef>().unwrap(), FnRef::access("w_"));
        assert!("".parse::<FnRef>().is_err());
        assert!("new ".parse::<FnRef>().is_err());
        assert_eq!(
            "  r_salary ".parse::<FnRef>().unwrap(),
            FnRef::read("salary")
        );
    }

    #[test]
    fn special_predicate() {
        assert!(!FnRef::access("f").is_special());
        assert!(FnRef::read("a").is_special());
        assert!(FnRef::write("a").is_special());
        assert!(FnRef::new_class("C").is_special());
    }

    #[test]
    fn capability_list_grant_revoke() {
        let mut caps = CapabilityList::new();
        assert!(caps.grant(FnRef::access("checkBudget")));
        assert!(!caps.grant(FnRef::access("checkBudget")));
        assert!(caps.allows(&FnRef::access("checkBudget")));
        assert!(!caps.allows(&FnRef::read("salary")));
        assert!(caps.revoke(&FnRef::access("checkBudget")));
        assert!(!caps.revoke(&FnRef::access("checkBudget")));
        assert!(caps.is_empty());
    }

    #[test]
    fn edits_copy_a_shared_list_first() {
        let mut a: CapabilityList = [FnRef::access("f")].into_iter().collect();
        let mut b = a.clone();
        assert!(a.shares_storage(&b));
        assert_eq!(a.storage_id(), b.storage_id());
        // A no-op edit keeps the storage shared.
        assert!(!b.grant(FnRef::access("f")));
        assert!(!b.revoke(&FnRef::access("g")));
        assert!(a.shares_storage(&b));
        assert!(b.grant(FnRef::access("g")));
        assert!(!a.shares_storage(&b));
        assert_ne!(a.storage_id(), b.storage_id());
        assert!(!a.allows(&FnRef::access("g")));
        assert!(a.revoke(&FnRef::access("f")));
        assert!(b.allows(&FnRef::access("f")));
        assert_eq!(a.len() + b.len(), 2);
    }

    #[test]
    fn capability_list_subset_and_display() {
        let small: CapabilityList = [FnRef::access("f")].into_iter().collect();
        let big: CapabilityList = [FnRef::access("f"), FnRef::write("budget")]
            .into_iter()
            .collect();
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert_eq!(big.to_string(), "{f, w_budget}");
        assert_eq!(big.len(), 2);
    }

    #[test]
    fn user_holds_caps() {
        let u = User::new(
            "clerk",
            [FnRef::access("checkBudget")].into_iter().collect(),
        );
        assert_eq!(u.name.as_str(), "clerk");
        assert!(u.capabilities.allows(&FnRef::access("checkBudget")));
    }
}

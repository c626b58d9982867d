//! Class definitions and the class table.
//!
//! A schema's class part (§2): `c_name : [att : t, …]` declares that
//! instances of `c_name` have mutable attributes `att` of type `t`.
//! Attribute names are unique within a class; the paper additionally treats
//! the pair (attribute name, receiver class) as determining the special
//! functions `r_att` / `w_att`.

use crate::error::ModelError;
use crate::ident::{AttrName, ClassName};
use crate::ty::Type;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// One attribute declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttrDef {
    /// Attribute name.
    pub name: AttrName,
    /// Declared type.
    pub ty: Type,
}

/// One class definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassDef {
    /// Class name.
    pub name: ClassName,
    /// Attribute declarations, in declaration order (order matters for the
    /// `new C(e, …)` constructor's positional arguments).
    pub attrs: Vec<AttrDef>,
}

impl ClassDef {
    /// Create a class definition, rejecting duplicate attribute names.
    pub fn new(
        name: impl Into<ClassName>,
        attrs: Vec<(AttrName, Type)>,
    ) -> Result<ClassDef, ModelError> {
        let name = name.into();
        let mut seen = std::collections::BTreeSet::new();
        for (a, _) in &attrs {
            if !seen.insert(a.clone()) {
                return Err(ModelError::DuplicateAttribute {
                    class: name,
                    attr: a.clone(),
                });
            }
        }
        Ok(ClassDef {
            name,
            attrs: attrs
                .into_iter()
                .map(|(name, ty)| AttrDef { name, ty })
                .collect(),
        })
    }

    /// Look up an attribute's declared type.
    pub fn attr_type(&self, attr: &AttrName) -> Option<&Type> {
        self.attrs.iter().find(|a| &a.name == attr).map(|a| &a.ty)
    }

    /// Index of an attribute in declaration order.
    pub fn attr_index(&self, attr: &AttrName) -> Option<usize> {
        self.attrs.iter().position(|a| &a.name == attr)
    }
}

impl fmt::Display for ClassDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class {} {{ ", self.name)?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", a.name, a.ty)?;
        }
        write!(f, " }}")
    }
}

/// All class definitions of a schema, with name-based lookup and an index
/// from each attribute name to the classes declaring it, so an attribute
/// lookup costs the same however wide the classes are. Equality, like the
/// `Debug` form, is a function of the classes alone.
#[derive(Clone, Default)]
pub struct ClassTable {
    classes: BTreeMap<ClassName, ClassDef>,
    /// Each attribute's declaring classes in name order, with the
    /// attribute's position in the class. [`ClassTable::insert`], the only
    /// way a class enters the table, keeps it.
    attrs: HashMap<AttrName, Vec<(ClassName, usize)>>,
}

impl PartialEq for ClassTable {
    fn eq(&self, other: &ClassTable) -> bool {
        self.classes == other.classes
    }
}

impl Eq for ClassTable {}

impl fmt::Debug for ClassTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClassTable")
            .field("classes", &self.classes)
            .finish()
    }
}

impl ClassTable {
    /// Empty table.
    pub fn new() -> ClassTable {
        ClassTable::default()
    }

    /// Insert a class, rejecting duplicates and attributes of undeclarable
    /// types (class-typed attributes may reference classes inserted later;
    /// call [`ClassTable::validate`] once the table is complete).
    pub fn insert(&mut self, def: ClassDef) -> Result<(), ModelError> {
        if self.classes.contains_key(&def.name) {
            return Err(ModelError::DuplicateClass { class: def.name });
        }
        for (pos, attr) in def.attrs.iter().enumerate() {
            let decls = self.attrs.entry(attr.name.clone()).or_default();
            let at = decls.partition_point(|(c, _)| *c < def.name);
            decls.insert(at, (def.name.clone(), pos));
        }
        self.classes.insert(def.name.clone(), def);
        Ok(())
    }

    /// Look up a class.
    pub fn get(&self, name: &ClassName) -> Option<&ClassDef> {
        self.classes.get(name)
    }

    /// Look up a class by bare string.
    pub fn get_str(&self, name: &str) -> Option<&ClassDef> {
        self.classes.get(name)
    }

    /// Iterate over classes in name order.
    pub fn iter(&self) -> impl Iterator<Item = &ClassDef> {
        self.classes.values()
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Check that every class type mentioned by an attribute exists.
    pub fn validate(&self) -> Result<(), ModelError> {
        for def in self.classes.values() {
            for attr in &def.attrs {
                self.validate_type(&attr.ty, def, attr)?;
            }
        }
        Ok(())
    }

    fn validate_type(&self, ty: &Type, def: &ClassDef, attr: &AttrDef) -> Result<(), ModelError> {
        match ty {
            Type::Basic(_) | Type::Null => Ok(()),
            Type::Class(c) => {
                if self.classes.contains_key(c) {
                    Ok(())
                } else {
                    Err(ModelError::UnknownClass {
                        class: c.clone(),
                        context: format!("attribute {}.{}", def.name, attr.name),
                    })
                }
            }
            Type::Set(inner) => self.validate_type(inner, def, attr),
        }
    }

    /// The classes that declare an attribute with this name, in name order,
    /// each with its declaration. The paper indexes `r_att` / `w_att` by
    /// attribute name; type checking uses this to resolve the receiver
    /// class.
    pub fn attr_decls<'a>(
        &'a self,
        attr: &str,
    ) -> impl ExactSizeIterator<Item = (&'a ClassDef, &'a AttrDef)> + 'a {
        self.attrs
            .get(attr)
            .map_or(&[][..], Vec::as_slice)
            .iter()
            .map(|(class, pos)| {
                let def = &self.classes[class];
                (def, &def.attrs[*pos])
            })
    }

    /// The declaration of `attr` in `class`, if the class declares it.
    pub fn attr(&self, class: &ClassName, attr: &str) -> Option<&AttrDef> {
        let (_, pos) = self.attrs.get(attr)?.iter().find(|(c, _)| c == class)?;
        Some(&self.classes[class].attrs[*pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn broker() -> ClassDef {
        ClassDef::new(
            "Broker",
            vec![
                (AttrName::new("name"), Type::STR),
                (AttrName::new("salary"), Type::INT),
                (AttrName::new("budget"), Type::INT),
                (AttrName::new("profit"), Type::INT),
            ],
        )
        .unwrap()
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = ClassDef::new(
            "C",
            vec![
                (AttrName::new("x"), Type::INT),
                (AttrName::new("x"), Type::BOOL),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::DuplicateAttribute { .. }));
    }

    #[test]
    fn attr_lookup() {
        let b = broker();
        assert_eq!(b.attr_type(&AttrName::new("salary")), Some(&Type::INT));
        assert_eq!(b.attr_index(&AttrName::new("budget")), Some(2));
        assert_eq!(b.attr_type(&AttrName::new("nope")), None);
    }

    #[test]
    fn table_insert_and_duplicate() {
        let mut t = ClassTable::new();
        t.insert(broker()).unwrap();
        let err = t.insert(broker()).unwrap_err();
        assert!(matches!(err, ModelError::DuplicateClass { .. }));
        assert_eq!(t.len(), 1);
        assert!(t.get_str("Broker").is_some());
    }

    #[test]
    fn validate_forward_references() {
        let mut t = ClassTable::new();
        t.insert(
            ClassDef::new(
                "Person",
                vec![(AttrName::new("child"), Type::set(Type::class("Person")))],
            )
            .unwrap(),
        )
        .unwrap();
        t.validate().unwrap();

        let mut bad = ClassTable::new();
        bad.insert(ClassDef::new("A", vec![(AttrName::new("b"), Type::class("Missing"))]).unwrap())
            .unwrap();
        assert!(matches!(
            bad.validate(),
            Err(ModelError::UnknownClass { .. })
        ));
    }

    #[test]
    fn attr_decls_finds_all() {
        let mut t = ClassTable::new();
        t.insert(broker()).unwrap();
        t.insert(ClassDef::new("Employee", vec![(AttrName::new("salary"), Type::INT)]).unwrap())
            .unwrap();
        // Class-name order, whatever the insertion order.
        let hits: Vec<&str> = t
            .attr_decls("salary")
            .map(|(c, a)| {
                assert_eq!(a.name.as_str(), "salary");
                c.name.as_str()
            })
            .collect();
        assert_eq!(hits, ["Broker", "Employee"]);
        let hits: Vec<_> = t.attr_decls("profit").collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0.name.as_str(), "Broker");
        assert_eq!(t.attr_decls("nope").len(), 0);
        let budget = t.attr(&"Broker".into(), "budget").unwrap();
        assert_eq!((budget.name.as_str(), &budget.ty), ("budget", &Type::INT));
        assert!(t.attr(&"Employee".into(), "budget").is_none());
        assert!(t.attr(&"Missing".into(), "salary").is_none());
    }

    #[test]
    fn table_equality_ignores_insertion_order() {
        let employee =
            ClassDef::new("Employee", vec![(AttrName::new("salary"), Type::INT)]).unwrap();
        let mut a = ClassTable::new();
        a.insert(broker()).unwrap();
        a.insert(employee.clone()).unwrap();
        let mut b = ClassTable::new();
        b.insert(employee).unwrap();
        b.insert(broker()).unwrap();
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(a, ClassTable::new());
    }

    #[test]
    fn display() {
        assert_eq!(
            broker().to_string(),
            "class Broker { name: string, salary: int, budget: int, profit: int }"
        );
    }
}

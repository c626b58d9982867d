//! AST of the function definition language and schema containers.

use oodb_model::{
    AttrName, CapabilityList, ClassName, ClassTable, FnName, Type, UserName, Value, VarName,
};
use std::collections::BTreeMap;
use std::fmt;

/// A literal constant in program code.
///
/// These are the `c` productions of the §2 grammar. Object identifiers are
/// deliberately *not* literals: the paper's non-printable-OID regime (§3.2)
/// means programs cannot mention specific objects.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Literal {
    /// Integer constant.
    Int(i64),
    /// Boolean constant.
    Bool(bool),
    /// String constant.
    Str(String),
    /// The `null` constant.
    Null,
}

impl Literal {
    /// The literal's type.
    pub fn ty(&self) -> Type {
        match self {
            Literal::Int(_) => Type::INT,
            Literal::Bool(_) => Type::BOOL,
            Literal::Str(_) => Type::STR,
            Literal::Null => Type::Null,
        }
    }

    /// Convert to a runtime value.
    pub fn to_value(&self) -> Value {
        match self {
            Literal::Int(i) => Value::Int(*i),
            Literal::Bool(b) => Value::Bool(*b),
            Literal::Str(s) => Value::Str(s.clone()),
            Literal::Null => Value::Null,
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(i) => write!(f, "{i}"),
            Literal::Bool(b) => write!(f, "{b}"),
            Literal::Str(s) => write!(f, "{s:?}"),
            Literal::Null => write!(f, "null"),
        }
    }
}

/// The built-in *basic functions* `fb` on basic types.
///
/// The paper treats these as primitive operations whose algebraic properties
/// drive the metarules of §4.1 (e.g. the `>=` and `*` rule sets listed
/// there). The set below covers every operator the paper mentions (integer
/// comparison, multiplication, addition, division, remainder) plus the
/// boolean connectives used by query conditions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BasicOp {
    /// Integer addition `+`.
    Add,
    /// Integer subtraction `-`.
    Sub,
    /// Integer multiplication `*`.
    Mul,
    /// Integer division `/` (truncating; division by zero is a runtime error).
    Div,
    /// Integer remainder `%`.
    Mod,
    /// Integer negation (unary `-`).
    Neg,
    /// `>=` on integers.
    Ge,
    /// `>` on integers.
    Gt,
    /// `<=` on integers.
    Le,
    /// `<` on integers.
    Lt,
    /// Equality on any basic type.
    EqOp,
    /// Disequality on any basic type.
    NeOp,
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
    /// Boolean negation.
    Not,
    /// String concatenation `++`.
    Concat,
}

impl BasicOp {
    /// Number of arguments.
    pub fn arity(self) -> usize {
        match self {
            BasicOp::Neg | BasicOp::Not => 1,
            _ => 2,
        }
    }

    /// Surface-syntax token.
    pub fn symbol(self) -> &'static str {
        match self {
            BasicOp::Add => "+",
            BasicOp::Sub => "-",
            BasicOp::Mul => "*",
            BasicOp::Div => "/",
            BasicOp::Mod => "%",
            BasicOp::Neg => "-",
            BasicOp::Ge => ">=",
            BasicOp::Gt => ">",
            BasicOp::Le => "<=",
            BasicOp::Lt => "<",
            BasicOp::EqOp => "==",
            BasicOp::NeOp => "!=",
            BasicOp::And => "and",
            BasicOp::Or => "or",
            BasicOp::Not => "not",
            BasicOp::Concat => "++",
        }
    }

    /// Is this one of the four order comparisons?
    pub fn is_order_cmp(self) -> bool {
        matches!(self, BasicOp::Ge | BasicOp::Gt | BasicOp::Le | BasicOp::Lt)
    }

    /// All operators (for exhaustive rule-coverage tests).
    pub const ALL: [BasicOp; 16] = [
        BasicOp::Add,
        BasicOp::Sub,
        BasicOp::Mul,
        BasicOp::Div,
        BasicOp::Mod,
        BasicOp::Neg,
        BasicOp::Ge,
        BasicOp::Gt,
        BasicOp::Le,
        BasicOp::Lt,
        BasicOp::EqOp,
        BasicOp::NeOp,
        BasicOp::And,
        BasicOp::Or,
        BasicOp::Not,
        BasicOp::Concat,
    ];
}

impl fmt::Display for BasicOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// An expression of the function definition language.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A literal constant `c`.
    Const(Literal),
    /// An occurrence of an argument variable or `let`-bound variable.
    Var(VarName),
    /// Invocation of a basic function `fb(e,…)`.
    Basic(BasicOp, Vec<Expr>),
    /// Invocation of another access function `fa(e,…)`.
    Call(FnName, Vec<Expr>),
    /// `r_att(e)`: read the attribute of the receiver.
    Read(AttrName, Box<Expr>),
    /// `w_att(e1, e2)`: write `e2` into the receiver's attribute; evaluates
    /// to `null`.
    Write(AttrName, Box<Expr>, Box<Expr>),
    /// `new C(e,…)`: create an instance with positional attribute values.
    New(ClassName, Vec<Expr>),
    /// `let x1 = e1, … in body end` — local variables. The unfolding in
    /// `secflow` also re-uses this form as the paper's `let(f) …` marker.
    Let {
        /// The bindings, evaluated left to right.
        bindings: Vec<(VarName, Expr)>,
        /// The body, evaluated with all bindings in scope.
        body: Box<Expr>,
    },
}

impl Expr {
    /// Integer literal shorthand.
    pub fn int(i: i64) -> Expr {
        Expr::Const(Literal::Int(i))
    }

    /// Variable shorthand.
    pub fn var(name: impl Into<VarName>) -> Expr {
        Expr::Var(name.into())
    }

    /// Binary basic-function shorthand.
    pub fn bin(op: BasicOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Basic(op, vec![lhs, rhs])
    }

    /// Attribute-read shorthand.
    pub fn read(attr: impl Into<AttrName>, recv: Expr) -> Expr {
        Expr::Read(attr.into(), Box::new(recv))
    }

    /// Attribute-write shorthand.
    pub fn write(attr: impl Into<AttrName>, recv: Expr, val: Expr) -> Expr {
        Expr::Write(attr.into(), Box::new(recv), Box::new(val))
    }

    /// Access-function call shorthand.
    pub fn call(name: impl Into<FnName>, args: Vec<Expr>) -> Expr {
        Expr::Call(name.into(), args)
    }

    /// Number of AST nodes (used by the workload generators and complexity
    /// guards).
    pub fn size(&self) -> usize {
        1 + match self {
            Expr::Const(_) | Expr::Var(_) => 0,
            Expr::Basic(_, args) | Expr::Call(_, args) | Expr::New(_, args) => {
                args.iter().map(Expr::size).sum()
            }
            Expr::Read(_, e) => e.size(),
            Expr::Write(_, a, b) => a.size() + b.size(),
            Expr::Let { bindings, body } => {
                bindings.iter().map(|(_, e)| e.size()).sum::<usize>() + body.size()
            }
        }
    }

    /// Names of all access functions invoked (transitively syntactic, not
    /// through the schema) by this expression.
    pub fn called_functions(&self) -> Vec<FnName> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Call(f, _) = e {
                out.push(f.clone());
            }
        });
        out
    }

    /// Pre-order walk over all subexpressions.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Const(_) | Expr::Var(_) => {}
            Expr::Basic(_, args) | Expr::Call(_, args) | Expr::New(_, args) => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Read(_, e) => e.walk(f),
            Expr::Write(_, a, b) => {
                a.walk(f);
                b.walk(f);
            }
            Expr::Let { bindings, body } => {
                for (_, e) in bindings {
                    e.walk(f);
                }
                body.walk(f);
            }
        }
    }
}

/// Definition of one access function: signature `f(a1:t1, …):t` plus body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessFnDef {
    /// Function name.
    pub name: FnName,
    /// Parameters in order.
    pub params: Vec<(VarName, Type)>,
    /// Declared return type.
    pub ret: Type,
    /// The body expression.
    pub body: Expr,
}

impl AccessFnDef {
    /// Arity.
    pub fn arity(&self) -> usize {
        self.params.len()
    }
}

/// A complete schema: class definitions, access-function definitions, and
/// the user catalog with capability lists (§2's `scm` + the user part of
/// `db`). Security requirements parsed from the same source are carried
/// alongside for convenience.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Schema {
    /// Class definitions.
    pub classes: ClassTable,
    /// Access functions by name.
    pub functions: BTreeMap<FnName, AccessFnDef>,
    /// Users and their capability lists.
    pub users: BTreeMap<UserName, CapabilityList>,
    /// Security requirements declared in the schema source.
    pub requirements: Vec<crate::requirement::Requirement>,
}

impl Schema {
    /// Empty schema.
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Look up an access function.
    pub fn function(&self, name: &FnName) -> Option<&AccessFnDef> {
        self.functions.get(name)
    }

    /// Look up an access function by bare string.
    pub fn function_str(&self, name: &str) -> Option<&AccessFnDef> {
        self.functions.get(name)
    }

    /// Look up a user's capability list.
    pub fn user(&self, name: &UserName) -> Option<&CapabilityList> {
        self.users.get(name)
    }

    /// Look up a user's capability list by bare string.
    pub fn user_str(&self, name: &str) -> Option<&CapabilityList> {
        self.users.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_types_and_values() {
        assert_eq!(Literal::Int(3).ty(), Type::INT);
        assert_eq!(Literal::Bool(true).to_value(), Value::Bool(true));
        assert_eq!(Literal::Null.ty(), Type::Null);
        assert_eq!(Literal::Str("x".into()).to_value(), Value::str("x"));
    }

    #[test]
    fn op_arity_and_symbols() {
        assert_eq!(BasicOp::Not.arity(), 1);
        assert_eq!(BasicOp::Neg.arity(), 1);
        assert_eq!(BasicOp::Mul.arity(), 2);
        assert_eq!(BasicOp::Ge.symbol(), ">=");
        assert!(BasicOp::Lt.is_order_cmp());
        assert!(!BasicOp::EqOp.is_order_cmp());
        assert_eq!(BasicOp::ALL.len(), 16);
    }

    #[test]
    fn expr_size_counts_nodes() {
        // >=(r_budget(broker), *(10, r_salary(broker))) — the checkBudget
        // body — has 7 nodes, matching the paper's numbering 1..7.
        let body = Expr::bin(
            BasicOp::Ge,
            Expr::read("budget", Expr::var("broker")),
            Expr::bin(
                BasicOp::Mul,
                Expr::int(10),
                Expr::read("salary", Expr::var("broker")),
            ),
        );
        assert_eq!(body.size(), 7);
    }

    #[test]
    fn called_functions_collects() {
        let e = Expr::call(
            "f",
            vec![
                Expr::call("g", vec![]),
                Expr::bin(BasicOp::Add, Expr::call("g", vec![]), Expr::int(1)),
            ],
        );
        let names: Vec<String> = e
            .called_functions()
            .iter()
            .map(|f| f.as_str().to_owned())
            .collect();
        assert_eq!(names, ["f", "g", "g"]);
    }

    #[test]
    fn let_size() {
        let e = Expr::Let {
            bindings: vec![(VarName::new("x"), Expr::int(1))],
            body: Box::new(Expr::var("x")),
        };
        assert_eq!(e.size(), 3);
    }
}

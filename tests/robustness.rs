//! Robustness properties: no public entry point may panic on arbitrary
//! input — parsers return errors, the evaluator returns `RuntimeError`s.

use oodb_engine::ops::eval_basic;
use oodb_lang::{parse_expr, parse_query, parse_requirement, parse_schema, BasicOp};
use oodb_model::Value;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The schema parser never panics, whatever the input.
    #[test]
    fn schema_parser_total(src in ".{0,200}") {
        let _ = parse_schema(&src);
    }

    /// Near-miss inputs built from the language's own token vocabulary.
    #[test]
    fn schema_parser_total_on_token_soup(
        tokens in proptest::collection::vec(
            prop_oneof![
                Just("class"), Just("fn"), Just("user"), Just("require"),
                Just("let"), Just("in"), Just("end"), Just("select"),
                Just("from"), Just("where"), Just("new"), Just("("),
                Just(")"), Just("{"), Just("}"), Just(","), Just(":"),
                Just("="), Just("=="), Just(">="), Just("+"), Just("*"),
                Just("x"), Just("C"), Just("f"), Just("r_a"), Just("w_a"),
                Just("int"), Just("bool"), Just("42"), Just("\"s\""),
            ],
            0..24,
        )
    ) {
        let src = tokens.join(" ");
        let _ = parse_schema(&src);
        let _ = parse_expr(&src);
        let _ = parse_query(&src);
        let _ = parse_requirement(&src);
    }

    /// Basic-function evaluation is total over arbitrary i64 arguments:
    /// division by zero and overflow come back as errors, never panics or
    /// silent wraps.
    #[test]
    fn eval_basic_total_on_ints(a in any::<i64>(), b in any::<i64>()) {
        for op in [
            BasicOp::Add, BasicOp::Sub, BasicOp::Mul, BasicOp::Div,
            BasicOp::Mod, BasicOp::Ge, BasicOp::Gt, BasicOp::Le,
            BasicOp::Lt, BasicOp::EqOp, BasicOp::NeOp,
        ] {
            let _ = eval_basic(op, &[Value::Int(a), Value::Int(b)]);
        }
        let _ = eval_basic(BasicOp::Neg, &[Value::Int(a)]);
    }

    /// Checked arithmetic agrees with i128 ground truth whenever it
    /// succeeds.
    #[test]
    fn eval_basic_matches_wide_arithmetic(a in any::<i64>(), b in any::<i64>()) {
        let cases = [
            (BasicOp::Add, (a as i128) + (b as i128)),
            (BasicOp::Sub, (a as i128) - (b as i128)),
            (BasicOp::Mul, (a as i128) * (b as i128)),
        ];
        for (op, wide) in cases {
            match eval_basic(op, &[Value::Int(a), Value::Int(b)]) {
                Ok(Value::Int(r)) => prop_assert_eq!(r as i128, wide),
                Ok(other) => prop_assert!(false, "non-int result {other}"),
                Err(_) => {
                    // Overflow: the wide result must indeed not fit.
                    prop_assert!(
                        wide > i64::MAX as i128 || wide < i64::MIN as i128,
                        "spurious overflow for {op:?}({a},{b})"
                    );
                }
            }
        }
    }

    /// Expression parsing of arbitrary operator soup never panics, and a
    /// successful parse always pretty-prints to something that re-parses.
    #[test]
    fn parse_print_parse_stability(src in "[a-c0-9+*()<>= ]{0,48}") {
        if let Ok(e) = parse_expr(&src) {
            let printed = e.to_string();
            let again = parse_expr(&printed);
            prop_assert!(again.is_ok(), "printed form failed: `{printed}`");
            prop_assert_eq!(again.unwrap(), e);
        }
    }
}

#[test]
fn deeply_nested_parens_do_not_overflow() {
    // 64 levels parse fine…
    let src = format!("{}1{}", "(".repeat(64), ")".repeat(64));
    assert!(parse_expr(&src).is_ok());
    // …thousands are rejected with a depth error instead of a stack
    // overflow (found by this very test; see parse::MAX_DEPTH).
    let src = format!("{}1{}", "(".repeat(2_000), ")".repeat(2_000));
    let err = parse_expr(&src).unwrap_err();
    assert!(err.message.contains("nesting"), "{err}");
    // Same guard for set types and let-chains.
    let src = format!(
        "class C {{ x: {}int{} }}",
        "{".repeat(3_000),
        "}".repeat(3_000)
    );
    assert!(parse_schema(&src).is_err());
    // Operator chains count as nesting too. Every unary prefix, every
    // nested select and every operator on a binary chain takes one level,
    // because the checker, the unfolder, the printer and `Drop` recurse
    // once per operator. `parse_expr` takes the first level itself, so a
    // chain of 199 operators is the longest that parses.
    let not_chain = |n: usize| format!("{}x", "not ".repeat(n));
    let neg_chain = |n: usize| format!("{}x", "-".repeat(n));
    let sum = |n: usize| vec!["x"; n + 1].join(" + ");
    let conj = |n: usize| vec!["x"; n + 1].join(" and ");
    let chains: [&dyn Fn(usize) -> String; 4] = [&not_chain, &neg_chain, &sum, &conj];
    for chain in chains {
        assert!(parse_expr(&chain(199)).is_ok(), "{}", chain(199));
        for n in [200, 2_000] {
            let err = parse_expr(&chain(n)).unwrap_err();
            assert_eq!(
                err.message, "nesting deeper than 200 levels",
                "{n} operators"
            );
        }
    }
    // A chain counts from the deepest point of what precedes it, so chains
    // nested in parentheses add up.
    assert!(parse_expr(&format!("({}) + {}", sum(100), sum(97))).is_ok());
    let err = parse_expr(&format!("({}) + {}", sum(150), sum(150))).unwrap_err();
    assert!(err.message.contains("nesting"), "{err}");
    // Nested selects, and chains of `and` in a where clause.
    let nested = |n: usize| {
        format!(
            "select {}r_a(p){} from p in C",
            "(select ".repeat(n),
            " from q in C)".repeat(n)
        )
    };
    assert!(parse_query(&nested(200)).is_ok());
    let err = parse_query(&nested(2_000)).unwrap_err();
    assert!(err.message.contains("nesting"), "{err}");
    let filter = |n: usize| {
        let conds = vec!["r_a(p) > 1"; n + 1].join(" and ");
        format!("select p from p in C where {conds}")
    };
    assert!(parse_query(&filter(199)).is_ok());
    let err = parse_query(&filter(2_000)).unwrap_err();
    assert!(err.message.contains("nesting"), "{err}");
}

#[test]
fn long_operator_chains_are_rejected_in_a_whole_policy() {
    // 30 000 `not`s overflowed the stack of every command, and 5 000 `+`s
    // the stack of a batch worker; both now stop the parse.
    for body in [
        format!("{}b", "not ".repeat(30_000)),
        vec!["b"; 5_000].join(" + "),
    ] {
        let err = parse_schema(&format!("fn f(b: bool): bool {{\n{body}\n}}\n")).unwrap_err();
        assert_eq!(
            err.to_string(),
            "parse error at line 2: nesting deeper than 200 levels"
        );
    }
}

#[test]
fn unicode_and_binary_input_is_rejected_cleanly() {
    for src in ["λx.x", "класс C {}", "\u{0}\u{1}\u{2}", "🦀🦀🦀"] {
        assert!(parse_schema(src).is_err(), "{src:?} should not parse");
    }
}

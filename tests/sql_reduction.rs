//! Property-based equivalence of the Figure-6 reduction: evaluating the
//! reduced SPJ query over the relational encoding must return exactly the
//! tree matcher's match set, for randomized trees and several pattern
//! shapes.

use proptest::prelude::*;
use treetoaster::ast::{Ast, NodeId, Value};
use treetoaster::pattern::dsl::any as wildcard;
use treetoaster::pattern::dsl::{add, attr, eq, gt, int, lt, node, str_, tru};
use treetoaster::pattern::{match_set, Pattern, SqlQuery};
use treetoaster::relational::{evaluate, Database};

fn build_tree(ast: &mut Ast, recipe: &[u8], idx: &mut usize, depth: usize) -> NodeId {
    let schema = ast.schema().clone();
    let byte = recipe.get(*idx).copied().unwrap_or(0);
    *idx += 1;
    if depth == 0 || byte % 3 == 0 {
        match byte % 6 {
            0 | 3 => ast.alloc(schema.expect_label("Const"), vec![Value::Int(0)], vec![]),
            1 | 4 => ast.alloc(
                schema.expect_label("Const"),
                vec![Value::Int((byte % 5) as i64)],
                vec![],
            ),
            _ => ast.alloc(schema.expect_label("Var"), vec![Value::str("v")], vec![]),
        }
    } else {
        let left = build_tree(ast, recipe, idx, depth - 1);
        let right = build_tree(ast, recipe, idx, depth - 1);
        let op = if byte % 2 == 0 { "+" } else { "*" };
        ast.alloc(
            schema.expect_label("Arith"),
            vec![Value::str(op)],
            vec![left, right],
        )
    }
}

fn patterns() -> Vec<Pattern> {
    let schema = treetoaster::ast::schema::arith_schema();
    vec![
        // Example 3.1's query.
        Pattern::compile(
            &schema,
            node(
                "Arith",
                "a",
                [
                    node("Const", "b", [], eq(attr("b", "val"), int(0))),
                    node("Var", "c", [], tru()),
                ],
                eq(attr("a", "op"), str_("+")),
            ),
        ),
        // Single-atom with constraint.
        Pattern::compile(
            &schema,
            node("Const", "k", [], gt(attr("k", "val"), int(1))),
        ),
        // Nested self-join: Arith over Arith.
        Pattern::compile(
            &schema,
            node(
                "Arith",
                "outer",
                [
                    node("Arith", "inner", [wildcard(), wildcard()], tru()),
                    wildcard(),
                ],
                tru(),
            ),
        ),
        // Cross-node constraint: parent op equals anything while child
        // value is bounded by arithmetic (b.val + 1 < 3).
        Pattern::compile(
            &schema,
            node(
                "Arith",
                "p",
                [
                    node("Const", "b", [], lt(add(attr("b", "val"), int(1)), int(3))),
                    wildcard(),
                ],
                tru(),
            ),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn relational_evaluation_equals_tree_matching(
        recipe in proptest::collection::vec(any::<u8>(), 5..120),
    ) {
        let schema = treetoaster::ast::schema::arith_schema();
        let mut ast = Ast::new(schema);
        let mut idx = 0;
        let root = build_tree(&mut ast, &recipe, &mut idx, 5);
        ast.set_root(root);
        let db = Database::from_ast(&ast, root);

        for pattern in patterns() {
            let query = SqlQuery::from_pattern(&pattern);
            let mut via_sql: Vec<NodeId> = evaluate(&db, &query)
                .iter()
                .map(|row| row[query.root_var().0 as usize])
                .collect();
            let mut via_tree = match_set(&ast, root, &pattern);
            via_sql.sort();
            via_tree.sort();
            prop_assert_eq!(via_sql, via_tree, "pattern {} diverged", pattern);
        }
    }

    #[test]
    fn multiset_algebra_laws(
        items_a in proptest::collection::vec((0u32..50, -3i64..3), 0..30),
        items_b in proptest::collection::vec((0u32..50, -3i64..3), 0..30),
    ) {
        use treetoaster::ast::ZSet;
        let a: ZSet = items_a.iter().map(|&(n, c)| (NodeId::from_index(n), c)).collect();
        let b: ZSet = items_b.iter().map(|&(n, c)| (NodeId::from_index(n), c)).collect();
        let sum = |x: &ZSet, y: &ZSet| {
            let mut s = x.clone();
            s += y;
            s
        };
        // Commutativity of ⊕.
        prop_assert_eq!(sum(&a, &b), sum(&b, &a));
        // a ⊕ b ⊖ b = a.
        let mut back = sum(&a, &b);
        back -= &b;
        prop_assert_eq!(back, a.clone());
        // a ⊖ a = ∅.
        let mut zero = a.clone();
        zero -= &a;
        prop_assert!(zero.is_empty());
        // Support never contains zero weights.
        for (_, c) in sum(&a, &b).iter() {
            prop_assert_ne!(c, 0);
        }
    }
}

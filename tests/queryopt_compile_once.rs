//! Compiling the optimizer's rules once changes no plan: the
//! process-wide `Optimizer` behind `optimize` ends every plan exactly
//! where one compiled from scratch does.

use std::sync::Arc;
use treetoaster::ast::sexpr::{parse_sexpr, to_sexpr};
use treetoaster::ast::{Ast, Schema};
use treetoaster::queryopt::antipattern::union_doubling;
use treetoaster::queryopt::catalyst::{optimize, Optimizer, SearchMode};
use treetoaster::queryopt::orca::optimize_orca;
use treetoaster::queryopt::{build_plan_schema, plan_schema, tpch};

/// The plan `text` parsed onto `schema`; plans parsed from the same text
/// get the same node ids, whatever their schema.
fn reparse(text: &str, schema: &Arc<Schema>) -> Ast {
    let mut ast = Ast::new(schema.clone());
    let root = parse_sexpr(&mut ast, text).unwrap();
    ast.set_root(root);
    ast
}

#[test]
fn compiling_once_changes_nothing() {
    // The process-wide optimizer behind `optimize` against one compiled
    // from scratch for a freshly built schema: every plan must end the
    // same, in the same number of rewrites and iterations, in both
    // search modes and under the Orca-style driver.
    let fresh_schema = build_plan_schema();
    assert!(!Arc::ptr_eq(&fresh_schema, &plan_schema()));
    let fresh = Optimizer::new(&fresh_schema);
    let plans = (1..=22)
        .flat_map(|q| [3, 17, 4242].map(|bait| tpch::build_query(q, bait)))
        .chain((3..=5).map(union_doubling));
    for plan in plans {
        let text = to_sexpr(&plan, plan.root());
        for mode in [SearchMode::TreeToasterViews, SearchMode::NaiveScan] {
            let mut shared_ast = reparse(&text, &plan_schema());
            let mut fresh_ast = reparse(&text, &fresh_schema);
            let shared = optimize(&mut shared_ast, mode, 60);
            let alone = fresh.optimize(&mut fresh_ast, mode, 60);
            let hash = shared_ast.structural_hash(shared_ast.root());
            assert_eq!(
                hash,
                fresh_ast.structural_hash(fresh_ast.root()),
                "{mode:?} {text}"
            );
            assert_eq!(
                shared.effective_count, alone.effective_count,
                "{mode:?} {text}"
            );
            assert_eq!(shared.iterations, alone.iterations, "{mode:?} {text}");

            // A plan on a schema of its own takes the per-call fallback.
            let mut fallback_ast = reparse(&text, &build_plan_schema());
            let fallback = optimize(&mut fallback_ast, mode, 60);
            assert_eq!(hash, fallback_ast.structural_hash(fallback_ast.root()));
            assert_eq!(shared.effective_count, fallback.effective_count);
        }
        let mut shared_ast = reparse(&text, &plan_schema());
        let mut fresh_ast = reparse(&text, &fresh_schema);
        let shared = optimize_orca(&mut shared_ast, u64::MAX);
        let alone = fresh.optimize_orca(&mut fresh_ast, u64::MAX);
        assert_eq!(
            shared_ast.structural_hash(shared_ast.root()),
            fresh_ast.structural_hash(fresh_ast.root())
        );
        assert_eq!(shared.effective_count, alone.effective_count);
        assert_eq!(shared.tasks, alone.tasks);
    }
}

#[test]
fn plans_on_plan_schema_share_one_compiled_rule_set() {
    let a = tpch::build_query(1, 1);
    let b = union_doubling(3);
    assert!(Arc::ptr_eq(a.schema(), b.schema()));
    let rules_a = Optimizer::with(a.schema(), |opt| opt.ruleset().clone());
    let rules_b = Optimizer::with(b.schema(), |opt| opt.ruleset().clone());
    assert!(Arc::ptr_eq(&rules_a, &rules_b));
    // Another schema compiles its own.
    let other = Optimizer::with(&build_plan_schema(), |opt| opt.ruleset().clone());
    assert!(!Arc::ptr_eq(&rules_a, &other));
}

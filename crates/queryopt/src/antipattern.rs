//! The UNION-ALL-doubling view-expansion antipattern (paper Appendix A).
//!
//! ```sql
//! CREATE VIEW TABLE_N AS
//! SELECT * FROM (SELECT * FROM TABLE_{N-1}
//!                UNION ALL SELECT * FROM TABLE_{N-1}) a,
//!               (SELECT * FROM TABLE_{N-1}
//!                UNION ALL SELECT * FROM TABLE_{N-1}) b
//! WHERE a.attr = b.attr
//! ```
//!
//! Each level references the previous view four times; after view
//! expansion the AST grows ~4× per level. The paper uses this to show
//! that search time scales linearly with AST size while its *share* of
//! optimization time stays high (Figures 14 and 15).

use crate::schema::{plan_schema, PlanBuilder};
use tt_ast::{Ast, NodeId};

const BASE_COLS: [u32; 3] = [1, 2, 3];

fn expand(b: &mut PlanBuilder<'_>, level: usize) -> NodeId {
    if level == 0 {
        return b.table(0, BASE_COLS);
    }
    // Four independent expansions of the previous level (view expansion
    // duplicates the subtree; there is no sharing).
    let a1 = expand(b, level - 1);
    let a2 = expand(b, level - 1);
    let b1 = expand(b, level - 1);
    let b2 = expand(b, level - 1);
    let left = b.union_all(a1, a2);
    let right = b.union_all(b1, b2);
    let join = b.join(level as i64, left, right);
    // The WHERE clause `a.attr = b.attr` references attribute instances
    // of *both* aliases — modeled as a column id outside either side's
    // output set, so PushFilterThroughJoin's weak guard matches every
    // pass but its precise check always rejects (an ineffective rewrite,
    // exactly the antipattern's behavior in Catalyst).
    let filter = b.filter(1000 + level as i64, [1, 900 + level as u32], join);
    // The SELECT * wrapper (a no-op projection).
    b.noop_project(filter)
}

/// Builds the expanded `TABLE_n` plan.
pub fn union_doubling(n: usize) -> Ast {
    let mut ast = Ast::new(plan_schema());
    let root = {
        let mut b = PlanBuilder::new(&mut ast);
        expand(&mut b, n)
    };
    ast.set_root(root);
    ast
}

/// Node count of the level-`n` expansion: `f(0)=1, f(n)=4f(n−1)+5`.
pub fn expected_size(n: usize) -> usize {
    if n == 0 {
        1
    } else {
        4 * expected_size(n - 1) + 5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalyst::{optimize, SearchMode};
    use crate::orca::optimize_orca;

    #[test]
    fn sizes_grow_four_fold() {
        for n in 0..6 {
            let ast = union_doubling(n);
            assert_eq!(ast.subtree_size(ast.root()), expected_size(n), "level {n}");
            ast.validate().unwrap();
        }
        assert_eq!(expected_size(0), 1);
        assert_eq!(expected_size(1), 9);
        assert_eq!(expected_size(2), 41);
    }

    #[test]
    fn catalyst_optimizes_the_antipattern() {
        let mut ast = union_doubling(3);
        let before = ast.subtree_size(ast.root());
        let bd = optimize(&mut ast, SearchMode::NaiveScan, 30);
        // No-op projects are removed; ineffective join-filter pushes are
        // attempted every pass.
        assert!(bd.effective_count > 0);
        assert!(bd.ineffective_count > 0);
        assert!(bd.final_size < before);
        ast.validate().unwrap();
    }

    #[test]
    fn orca_handles_the_antipattern() {
        let mut ast = union_doubling(3);
        let bd = optimize_orca(&mut ast, 10_000_000);
        assert!(bd.effective_count > 0);
        ast.validate().unwrap();
    }

    #[test]
    fn search_time_grows_with_ast_size() {
        // Across two sizes two levels apart (16× nodes) the naive scan's
        // search work must grow substantially. Counted in match
        // attempts, the work `search_ns` times, so host noise cannot
        // decide the outcome.
        let mut small = union_doubling(2);
        let mut large = union_doubling(4);
        let bd_small = optimize(&mut small, SearchMode::NaiveScan, 30);
        let bd_large = optimize(&mut large, SearchMode::NaiveScan, 30);
        assert!(
            bd_large.match_attempts > 4 * bd_small.match_attempts,
            "match attempts: small={} large={}",
            bd_small.match_attempts,
            bd_large.match_attempts
        );
    }
}

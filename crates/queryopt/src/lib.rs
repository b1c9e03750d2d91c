//! Catalyst- and Orca-style query optimizers over logical-plan ASTs.
//!
//! The paper's motivation (Figure 1) and appendix (Figures 14, 15)
//! measure where *real* SQL optimizers spend their time: searching the
//! AST for rewrite candidates, constructing replacements that are then
//! discarded (ineffective rewrites), constructing effective replacements,
//! and comparing plans in the outer fixpoint loop. This crate rebuilds
//! that experiment end to end (DESIGN.md §3 documents the substitution):
//!
//! - [`schema`] — a Spark-`LogicalPlan`-shaped node schema (Appendix C).
//! - [`rules`] — optimizer rules modeled on Appendix D's transforms
//!   (RemoveNoopOperators, CombineFilters, PushPredicateThroughNonJoin /
//!   Join, CollapseProject, ConvertToLocalRelation, …), each with the
//!   *weak* structural guard Catalyst pattern-matches on plus the precise
//!   semantic check its rule body performs (whose failure produces an
//!   ineffective rewrite).
//! - [`catalyst`] — a batch-fixpoint optimizer with instrumented
//!   search / effective / ineffective / fixpoint phases, runnable with a
//!   naive scan (the measured reality) or TreeToaster views (the paper's
//!   proposal, as an ablation).
//! - [`orca`] — a Cascades-style optimizer: promise-ordered (node, rule)
//!   task queue and memo bookkeeping, reproducing Orca's much lower
//!   search share (5–20%).
//! - [`orca_xforms`] — Appendix C/E: Orca's `CExpression` schemas and
//!   xforms (Get2TableScan, Select2Filter, InnerJoin2NL/HashJoin,
//!   JoinCommutativity, ImplementUnionAll) encoded as `⟨q, g⟩` rules.
//! - [`tpch`] — 22 TPC-H-shaped logical plans (Figure 1's workload).
//! - [`antipattern`] — the UNION-ALL-doubling view expansion of
//!   Appendix A (Figures 14/15's scaling workload).

pub mod antipattern;
pub mod catalyst;
pub mod orca;
pub mod orca_xforms;
pub mod rules;
pub mod schema;
pub mod tpch;

pub use catalyst::{optimize, Breakdown, Optimizer, SearchMode};
pub use rules::{catalyst_rules, OptRule};
pub use schema::{build_plan_schema, plan_schema, PlanLabels};

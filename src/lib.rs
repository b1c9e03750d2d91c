//! # TreeToaster
//!
//! A from-scratch Rust reproduction of *TreeToaster: Towards an
//! IVM-Optimized Compiler* (Balakrishnan, Nuessle, Kennedy, Ziarek;
//! SIGMOD 2021): incremental view maintenance specialized for compiler
//! abstract syntax trees.
//!
//! A compiler's optimizer repeatedly scans its AST for subtrees matching
//! rewrite rules. TreeToaster materializes, per rule, a view of all
//! currently eligible nodes and maintains it incrementally as the tree is
//! rewritten — making "find me a rewrite opportunity" an O(1) pop instead
//! of a tree walk, with memory measured in words per match rather than a
//! shadow copy of the AST.
//!
//! ## Crate map
//!
//! - [`ast`] — arena-based mutable ASTs, schemas, Z-sets.
//! - [`pattern`] — the pattern/constraint query grammars, their
//!   semantics, the naive matcher, and the SQL reduction.
//! - [`relational`] — the relational encoding bolt-on engines run on.
//! - [`labelindex`] — the §4.1 label-index baseline.
//! - [`ivm`] — bolt-on baselines: classic cascading IVM and a
//!   DBToaster-style higher-order engine.
//! - [`core`] — TreeToaster itself: views, maximal-search-set
//!   maintenance, declarative rewrite rules, Algorithm-3 inlining, and
//!   the five-strategy `MatchSource` abstraction.
//! - [`jitd`] — the JustInTimeData host compiler (§7's evaluation bed).
//! - [`ycsb`] — the YCSB workload generator driving it.
//! - [`queryopt`] — Catalyst/Orca-style optimizer simulators for the
//!   motivation and appendix experiments.
//! - [`metrics`] — timing/memory/statistics plumbing.
//! - [`service`] — the `tt-serve` plan-serving daemon: multi-tenant
//!   sessions over one shared fleet, a length-prefixed wire protocol,
//!   and the typed client (`examples/serve_demo.rs` drives it).
//!
//! ## Quickstart
//!
//! The paper's running example first: one rule, one tree, one
//! TreeToaster engine whose view holds every eligible node.
//!
//! ```
//! use std::sync::Arc;
//! use treetoaster::prelude::*;
//! use treetoaster::pattern::dsl;
//! use treetoaster::core::generator;
//! use treetoaster::jitd::{jitd_schema, paper_rules, CommitMode, StealConfig};
//!
//! // Eliminate additions of zero.
//! let schema = treetoaster::ast::schema::arith_schema();
//! let pattern = Pattern::compile(&schema, dsl::node(
//!     "Arith", "A",
//!     [dsl::node("Const", "B", [], dsl::eq(dsl::attr("B", "val"), dsl::int(0))),
//!      dsl::node("Var", "C", [], dsl::tru())],
//!     dsl::eq(dsl::attr("A", "op"), dsl::str_("+")),
//! ));
//! let rule = RewriteRule::new("AddZero", &schema, pattern, generator::reuse("C"));
//! let mut ast = Ast::new(schema.clone());
//! let root = treetoaster::ast::sexpr::parse_sexpr(
//!     &mut ast, r#"(Arith op="+" (Const val=0) (Var name="x"))"#).unwrap();
//! ast.set_root(root);
//! let mut engine = TreeToasterEngine::new(Arc::new(RuleSet::from_rules(vec![rule])));
//! engine.rebuild(&ast);
//! assert_eq!(engine.view(0).len(), 1);
//! assert_eq!(engine.find_one(&ast, 0), Some(root));
//!
//! // An optimizer never holds just one plan. A fleet is many runtimes
//! // over one compiled rule set — here the paper's JITD rules, one
//! // key/value index per plan, each with its own views and epochs.
//! let rules = Arc::new(paper_rules(&jitd_schema(), RuleConfig { crack_threshold: 8 }));
//! let plans: Vec<Jitd> = (0..3)
//!     .map(|t| {
//!         let records = (0..32).map(|k| Record::new(k, k * 10 + t)).collect();
//!         Jitd::with_rules(StrategyKind::TreeToaster, rules.clone(), records)
//!     })
//!     .collect();
//! // `workers: 0` starts no thread: the caller drains the fleet's work
//! // queue inline (a pool of `workers > 0` threads drains the same
//! // queue in the background).
//! let steal = StealConfig { workers: 0, heat_threshold: 1 };
//! let fleet = AsyncJitd::spawn(plans, steal, CommitMode::Sync);
//! assert_eq!(fleet.reorg_backlog(), 3, "freshly loaded plans want cracking");
//! assert!(fleet.reorganize_pending(u64::MAX) > 0);
//! // A write heats only its own plan, so only that plan is queued.
//! fleet.execute_on(1, &Op::Insert { key: 99, value: 7 });
//! assert_eq!(fleet.reorg_backlog(), 1);
//! fleet.reorganize_pending(u64::MAX);
//! assert_eq!(fleet.with_shard(1, |j| j.index().get(99)), Some(7));
//! assert_eq!(fleet.with_shard(0, |j| j.index().get(99)), None);
//! ```
//!
//! `jitd::AsyncJitd` is the one multi-tree runtime: drained inline as
//! above (the deterministic bed of the fleet benchmarks), or by a
//! work-stealing pool of background threads (`jitd::steal`) — the
//! deployment the `tt-serve` daemon runs.

pub use treetoaster_core as core;
pub use tt_ast as ast;
pub use tt_ivm as ivm;
pub use tt_jitd as jitd;
pub use tt_labelindex as labelindex;
pub use tt_metrics as metrics;
pub use tt_pattern as pattern;
pub use tt_queryopt as queryopt;
pub use tt_relational as relational;
pub use tt_service as service;
pub use tt_ycsb as ycsb;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use treetoaster_core::{
        EngineConfig, EpochOps, FleetConfig, MatchCore, MatchSource, MatchView, ReplaceCtx,
        RewriteRule, RuleFired, RuleSet, TreeToasterEngine,
    };
    pub use tt_ast::{Ast, NodeId, Record, Schema, Value, ZSet};
    pub use tt_ivm::{ClassicIvm, DbtIvm};
    pub use tt_jitd::{AsyncJitd, Jitd, JitdIndex, RuleConfig, StrategyKind};
    pub use tt_labelindex::LabelIndex;
    pub use tt_pattern::{match_node, match_set, Bindings, Pattern};
    pub use tt_service::{Client, Daemon, Server, ServiceError};
    pub use tt_ycsb::{Op, Workload, WorkloadSpec};
}

//! JustInTimeData: a just-in-time data-structure compiler (paper §7).
//!
//! "An index designed like a just-in-time compiler. JustInTimeData's
//! underlying data structure is modeled after an AST, allowing a JIT
//! runtime to incrementally and asynchronously rewrite it in the
//! background using pattern-replacement rules to support more efficient
//! reads."
//!
//! Five node types mimic the building blocks of index structures:
//!
//! ```text
//! (Array,           data:Seq<key,value>, size:Int,  ∅)
//! (Singleton,       key:Int, value:Int,             ∅)
//! (DeleteSingleton, key:Int,                        N₁)
//! (Concat,          ∅,                              N₁, N₂)
//! (BinTree,         sep:Int,                        N₁, N₂)
//! ```
//!
//! Inserts wrap the root in `Concat(root, Singleton)`, deletes in
//! `DeleteSingleton(key, root)`; the reorganizer then drives the paper's
//! five pattern-replacement rules (CrackArray and the four push-down
//! rules) to migrate the structure toward a cracked binary tree —
//! database cracking \[19\] reframed as AST rewriting.
//!
//! - [`schema`] — the node schema.
//! - [`index`] — the key/value operations (`get`, `scan`, wrap-insert,
//!   wrap-delete) with last-writer-wins shadowing semantics.
//! - [`rules`] — the paper's rules plus appendix extension rules.
//! - [`runtime`] — the instrumented optimizer loop over any
//!   [`treetoaster_core::MatchSource`] strategy, recording the search /
//!   rewrite / maintenance latencies the paper's figures report.
//! - [`steal`] — the shared work queue behind fleet reorganization:
//!   heat-gated admission, per-shard dedup, and the steal/contention
//!   ledger.
//! - [`concurrent`] — the multi-tree runtime ([`AsyncJitd`]): one
//!   [`Jitd`] per shard over a shared rule set, per-shard mutexes, and
//!   one work queue drained inline by the caller (`workers == 0`,
//!   workloads G/H's bed) or by a work-stealing pool of background
//!   threads (workload I's and the `tt-serve` daemon's).

pub mod concurrent;
pub mod index;
pub mod rules;
pub mod runtime;
pub mod schema;
pub mod steal;

pub use concurrent::AsyncJitd;
pub use index::{JitdIndex, JitdLabels};
pub use rules::{full_rules, paper_rules, pivot_rules, scaled_rules, RuleConfig};
pub use runtime::{Jitd, JitdStats, StepOutcome, StrategyKind};
pub use schema::jitd_schema;
pub use steal::{StealConfig, StealStats, WorkQueue};

//! TreeToaster: AST-specialized incremental view maintenance.
//!
//! The paper's contribution (§4–6). For a set of rewrite-rule patterns
//! `q₁…q_m` over an evolving AST, TreeToaster materializes one view per
//! pattern — the generalized multiset of nodes currently matching — and
//! maintains it incrementally as the tree is rewritten:
//!
//! - [`view::MatchView`] — the per-pattern view: a multiset of node
//!   references with O(1) "give me any eligible node" (§4's goal), built
//!   directly over the compiler's own AST (no shadow copy).
//! - [`engine::TreeToasterEngine`] — Algorithm 2 applied to the *maximal
//!   search set* of Definition 6: on `replace(R, R′)` only `Desc(R)`,
//!   `Desc(R′)`, and ancestors up to the pattern depth `D(q)` are
//!   re-checked.
//! - [`rules`] / [`generator`] — declaratively specified rewrite rules
//!   `⟨q, g⟩` with the generator grammar `G : Gen(ℓ, ā, ḡ) | Reuse(i)`
//!   and the Definition-7 safety discipline.
//! - [`inline`] — Algorithm 3 (`Inline_gen` / `Align`): compile-time
//!   elimination of impossible pattern matches, so a fired rule touches
//!   only label-aligned generated positions and ancestor heights.
//! - [`strategy`] — the `MatchSource` abstraction shared by every search
//!   strategy in the paper's evaluation (Naive, Index, Classic, DBT, TT),
//!   with the Naive and Label-Index baselines implemented here.
//! - [`batch`] — epoch/transactional maintenance: one [`Epochs`]
//!   pipeline stages ± deltas as one `tt_ast::ZSet` per view (or per
//!   label, for the Index baseline), cancels opposing entries before
//!   they touch the maintained structure, and commits by sealing the
//!   epoch and landing it (a synchronous commit is the pipeline with
//!   zero lag; single-rewrite maintenance is the degenerate one-delta
//!   epoch).
//! - [`config`] — the typed [`EngineConfig`]/[`FleetConfig`] builders;
//!   the one place `TT_*` environment knobs are parsed.

pub mod batch;
pub mod config;
pub mod engine;
pub mod generator;
pub mod inline;
pub mod rules;
pub mod strategy;
pub mod view;

pub use batch::{Epochs, Integral, Overlay};
pub use config::{env_u64, EngineConfig, FleetConfig};
pub use engine::TreeToasterEngine;
pub use generator::{AttrGen, GenCtx, GenNode, GenPath};
pub use inline::{CompiledRulePlan, InlineMatrix};
pub use rules::{AppliedRewrite, RewriteRule, RuleSet};
pub use strategy::{
    EpochOps, IndexStrategy, MatchCore, MatchSource, NaiveStrategy, ReplaceCtx, RuleFired, RuleId,
};
pub use view::{MatchView, OrderedMatchView};

//! Bolt-on incremental view maintenance baselines (paper §3).
//!
//! Both baselines operate on the relational encoding of the AST and consume
//! node-granularity insert/delete events — "DBToaster-generated view
//! structures register updates at the granularity of individual node
//! insertions/deletions" (§3.2) — which forces them to keep a **shadow
//! copy** of the pattern-relevant AST. That shadow copy, plus their
//! materialized intermediate state, is the memory overhead the paper's
//! Figures 11/13 charge them with.
//!
//! The two baselines differ in one decision only — which join results
//! they materialize — so there is one engine, [`bolt_on::BoltOnIvm`],
//! generic over a [`bolt_on::JoinPlan`]. It owns the shadow database,
//! the open and sealed epochs, the [`PreImage`], rebuild and replay, and
//! the one `MatchCore` + `EpochOps` implementation. The plans are the
//! paper's two baselines, kept exactly as published:
//!
//! - [`classic::ClassicIvm`] = `BoltOnIvm<PrefixPlan>` — Ross et al.'s
//!   cascading IVM: one left-deep join plan per pattern with every prefix
//!   join materialized (DBToaster's `--depth=1` analogue in the
//!   evaluation).
//! - [`dbtoaster::DbtIvm`] = `BoltOnIvm<SubsetPlan>` — DBToaster-style
//!   higher-order delta processing: a materialized map for *every
//!   connected sub-join* of the pattern (all possible plans), so each
//!   single-tuple delta is answered by joining the tuple against
//!   precomputed complements.
//!
//! An epoch records each touched node's latest image and lands as its
//! difference from the shadow copy, so a rewrite burst's overlapping
//! events reach the plans only as their net effect. Shared plumbing
//! lives in [`common`].

pub mod bolt_on;
pub mod classic;
pub mod common;
pub mod dbtoaster;

pub use bolt_on::{BoltOnIvm, JoinPlan};
pub use classic::ClassicIvm;
pub use common::{PreImage, ViewCore};
pub use dbtoaster::DbtIvm;

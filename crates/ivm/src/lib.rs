//! Bolt-on incremental view maintenance engines (paper §3).
//!
//! Both engines operate on the relational encoding of the AST and consume
//! node-granularity insert/delete events — "DBToaster-generated view
//! structures register updates at the granularity of individual node
//! insertions/deletions" (§3.2) — which forces them to keep a **shadow
//! copy** of the pattern-relevant AST. That shadow copy, plus their
//! materialized intermediate state, is the memory overhead the paper's
//! Figures 11/13 charge them with.
//!
//! - [`classic::ClassicIvm`] — Ross et al.'s cascading IVM: one left-deep
//!   join plan per pattern with every prefix join materialized
//!   (DBToaster's `--depth=1` analogue in the evaluation).
//! - [`dbtoaster::DbtIvm`] — DBToaster-style higher-order delta
//!   processing: a materialized map for *every connected sub-join* of the
//!   pattern (all possible plans), so each single-tuple delta is answered
//!   by joining the tuple against precomputed complements.
//!
//! Shared plumbing lives in [`common`]; [`batch`] adds the epoch-scoped
//! [`DeltaLog`] both engines use to coalesce overlapping deltas across a
//! rewrite burst before replaying only the net event stream.

pub mod batch;
pub mod classic;
pub mod common;
pub mod dbtoaster;

pub use batch::DeltaLog;
pub use classic::ClassicIvm;
pub use common::{PreImage, ViewCore};
pub use dbtoaster::DbtIvm;

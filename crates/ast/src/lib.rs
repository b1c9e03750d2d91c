//! Arena-based mutable abstract syntax trees.
//!
//! This crate implements the paper's Definition 1: an AST node is a 3-tuple
//! `(label, attributes, children)` where labels come from a schema that
//! fixes, per label, the attribute set and an upper bound on child count.
//!
//! Nodes live in a [`Ast`] arena and are addressed by compact [`NodeId`]s.
//! This gives the *mutable* tree model of §5.1 its literal meaning: a
//! rewrite is a single pointer swap in the parent's child slot
//! ([`Ast::replace`]), and every incremental-view-maintenance engine
//! navigates the very same tree the compiler owns — no shadow copies.
//!
//! The crate also provides:
//! - [`dense`] — the dense node-indexed storage layer ([`NodeMap`],
//!   [`NodeBitSet`]): page-backed direct-indexed maps that every
//!   maintenance-hot-path structure (views, posting lists, epochs) uses
//!   instead of hashing `NodeId` keys,
//! - [`zset::ZSet`] — the Z-set (Blizard's generalized multiset, §5):
//!   signed weights with ⊕ / ⊖ and cancellation, the container every
//!   TreeToaster and label-index epoch stages into,
//! - [`fxhash`] — a fast FxHash-style hasher for the remaining (cold or
//!   non-`NodeId`-keyed) maps; avoids SipHash in inner loops,
//! - [`sexpr`] — an s-expression printer/parser used by tests, examples,
//!   and debugging output.

pub mod arena;
pub mod dense;
pub mod fxhash;
pub mod schema;
pub mod sexpr;
pub mod value;
pub mod zset;

pub use arena::{Ast, Node, NodeId, NodeRow, SmallList};
pub use dense::{NodeBitSet, NodeMap};
pub use fxhash::{FxHashMap, FxHashSet};
pub use schema::{AttrName, Label, Schema, SchemaBuilder};
pub use value::{IntSet, Record, Value};
pub use zset::{Weight, ZSet};

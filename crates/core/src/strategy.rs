//! The search-strategy abstraction shared by the paper's five approaches.
//!
//! §7 compares: (i) **Naive** iteration, (ii) **Index**ing labels,
//! (iii) **Classic** incremental view maintenance, (iv) **DBT**oaster's
//! recursive IVM, and (v) **TreeToaster**. All five implement
//! [`MatchSource`]: the host compiler asks for one eligible node per rule
//! (`find_one`), and notifies the strategy around every rewrite
//! (`before_replace` / `after_replace`).
//!
//! The asymmetric notification interface *is* part of the paper's point:
//! bolt-on engines can only consume node-granularity insert/delete events
//! (`ReplaceCtx::removed` / `inserted` / `parent_update`), while
//! TreeToaster exploits the structural replace and — for declarative
//! rules — the compile-time inlined plan (`RuleFired`).

use crate::rules::{AppliedRewrite, RuleSet};
use std::sync::Arc;
use tt_ast::{Ast, Label, NodeId, NodeLabelMap, NodeRow};
use tt_labelindex::LabelIndex;
use tt_pattern::{AutomatonScratch, Bindings, PatternNode};

/// Index of a rewrite rule within the shared [`RuleSet`].
pub type RuleId = usize;

/// Everything a strategy may need to know about one applied rewrite.
pub struct ReplaceCtx<'a> {
    /// The (now freed) id of the replaced subtree root `R`.
    pub old_root: NodeId,
    /// The replacement subtree root `R′` (live, attached).
    pub new_root: NodeId,
    /// Snapshots of freed nodes — the compiler's `remove()` events.
    pub removed: &'a [(Label, NodeRow)],
    /// Newly allocated nodes — the compiler's `insert()` events.
    pub inserted: &'a [NodeId],
    /// The parent's child-pointer update (label, old image, new image),
    /// if the site was not the root.
    pub parent_update: Option<&'a (Label, NodeRow, NodeRow)>,
    /// Present when the mutation came from a declarative rule — enables
    /// the inlined maintenance path.
    pub rule: Option<RuleFired<'a>>,
}

/// Rule-application details for the inlined path.
#[derive(Clone, Copy)]
pub struct RuleFired<'a> {
    /// Which rule fired.
    pub rule: RuleId,
    /// The match bindings at application time.
    pub bindings: &'a Bindings,
    /// The application record (generated node ids by `Gen` index).
    pub applied: &'a AppliedRewrite,
}

/// The lean search/notification surface of a strategy — everything a
/// host compiler needs to *find and maintain matches*, with no epoch
/// machinery attached.
///
/// `Send` so a runtime can hand its strategy to a background
/// reorganization thread (the paper's asynchronous deployment).
///
/// This is one half of the [`MatchSource`] split (the other is
/// [`EpochOps`]): consumers that only search and notify — the service
/// layer's session router, the naive driver — can bound on `MatchCore`
/// alone and never see the epoch protocol.
pub trait MatchCore: Send {
    /// Strategy name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// (Re)builds all state from the current tree (initial load).
    fn rebuild(&mut self, ast: &Ast);

    /// One arbitrary node currently matching `rule`'s pattern — the §4
    /// goal. Bindings are re-derived by the caller via
    /// [`tt_pattern::match_node`] so all strategies are charged equally.
    fn find_one(&mut self, ast: &Ast, rule: RuleId) -> Option<NodeId>;

    /// Notification *before* the pointer swap: the subtree at `old_root`
    /// is still attached and pattern-evaluable. `rule` carries the firing
    /// rule and its bindings when the mutation is a declarative rewrite.
    fn before_replace(&mut self, ast: &Ast, old_root: NodeId, rule: Option<(RuleId, &Bindings)>);

    /// Notification *after* the swap and the freeing of the old subtree.
    fn after_replace(&mut self, ast: &Ast, ctx: &ReplaceCtx<'_>);

    /// Notification that `created` nodes were grafted **above** the old
    /// tree root (the JITD compiler wraps the root in
    /// `Concat(root, Singleton)` on insert and `DeleteSingleton` on
    /// delete). No node was removed and no pre-existing node's subtree
    /// changed, so only the created nodes can change match status.
    fn on_graft(&mut self, ast: &Ast, created: &[NodeId]);

    /// Test oracle: checks the strategy's structures against a
    /// from-scratch rebuild over `ast`. Only meaningful between epochs
    /// (an open batch with staged deltas reports an error rather than a
    /// false mismatch). Default: trivially consistent, for strategies
    /// that keep no state.
    fn check_consistent(&self, _ast: &Ast) -> Result<(), String> {
        Ok(())
    }

    /// Live bytes of all supplemental structures this strategy maintains
    /// (views, indexes, shadow copies) — the Figure 11/13 memory axis.
    fn memory_bytes(&self) -> usize;

    /// Cheap **heat** estimate: roughly how much reorganization work this
    /// strategy expects its tree to hold right now — known matches in its
    /// views plus deltas staged in an open epoch. Schedulers may use it
    /// as a priority key, so it must be O(views), never O(tree). It is a
    /// hint: over- or under-estimating only affects probe *order*, never
    /// correctness. Default 0, for strategies that keep no state and
    /// therefore cannot estimate without searching (Naive).
    fn match_heat(&self) -> usize {
        0
    }
}

/// The epoch (transactional maintenance) protocol — the other half of
/// the [`MatchSource`] split. Every method has a correct default for
/// strategies that stage nothing, so a stateless [`MatchCore`] impl
/// plus an empty `impl EpochOps for …` block is a complete strategy.
///
/// Consumers that *drive* epochs (the batched bench drivers, the commit
/// pipeline, the service daemon's tick path) bound on `EpochOps`;
/// consumers that only search bound on [`MatchCore`].
pub trait EpochOps {
    /// Opens a maintenance epoch: until [`commit_batch`], notifications
    /// (`before_replace`/`after_replace`/`on_graft`) may be *staged*
    /// instead of applied, so opposing deltas from overlapping rewrites
    /// cancel before ever touching the strategy's structures.
    ///
    /// Default: no-op, so single-rewrite maintenance is the degenerate
    /// K=1 case and stateless strategies need no change. Inside an open
    /// epoch, `find_one` must still answer correctly — either through an
    /// overlay over pending deltas (TreeToaster) or by reconciling on
    /// read (the bolt-on engines, which can only consume their flat
    /// node-event stream). Opening an already-open epoch is a no-op.
    ///
    /// [`commit_batch`]: EpochOps::commit_batch
    fn begin_batch(&mut self) {}

    /// Closes the current maintenance epoch, applying every surviving
    /// net delta. A commit with no open epoch is a no-op.
    fn commit_batch(&mut self) {}

    /// Seals the open epoch for **deferred** application: surviving net
    /// deltas move into a sealed slot, the epoch closes, and a later
    /// [`apply_submitted`] — typically on a background committer thread,
    /// under the same lock as every other access — applies them. Until
    /// then `find_one` must keep answering correctly with the sealed
    /// deltas in place: strategies with an overlay extend it to
    /// `structures ⊕ sealed ⊕ open batch`, while the bolt-on engines
    /// reconcile on read as always (a read may therefore apply the
    /// sealed epoch early, which is safe — application is idempotent
    /// per epoch and ordered per shard).
    ///
    /// At most one epoch may be sealed at a time; sealing while a
    /// previous seal awaits its committer applies the old seal inline
    /// first (bounded backpressure). Returns `true` when an epoch was
    /// sealed for deferred application; the default falls back to a
    /// synchronous [`commit_batch`] and returns `false`, so strategies
    /// without a deferred path (and stateless ones) stay correct under
    /// an asynchronous deployment.
    ///
    /// [`apply_submitted`]: EpochOps::apply_submitted
    /// [`commit_batch`]: EpochOps::commit_batch
    fn submit_commit(&mut self) -> bool {
        self.commit_batch();
        false
    }

    /// Applies the sealed epoch from [`submit_commit`], if one is
    /// pending — the committer's half of the pipeline. Returns whether
    /// anything was applied. Default: nothing is ever sealed.
    ///
    /// [`submit_commit`]: EpochOps::submit_commit
    fn apply_submitted(&mut self) -> bool {
        false
    }

    /// True while a sealed epoch awaits [`apply_submitted`]. Quiescence
    /// probes must treat this as pending work: the strategy's structures
    /// have not yet reached their post-commit state. Default: never.
    ///
    /// [`apply_submitted`]: EpochOps::apply_submitted
    fn has_submitted(&self) -> bool {
        false
    }

    /// `(staged, canceled)` delta counters of the open — or, after a
    /// commit, the most recently committed — maintenance epoch.
    /// `canceled` counts staged deltas that annihilated against an
    /// opposing entry before touching any structure — churn the views
    /// never see (the daemon's session stats report it). Default:
    /// `None`, for strategies that stage nothing.
    fn batch_cancellation(&self) -> Option<(u64, u64)> {
        None
    }
}

/// A source of pattern matches over an evolving AST — the full
/// five-strategy surface, as one name.
///
/// `MatchSource` is a pure facade over its two halves: [`MatchCore`]
/// (search + notification) and [`EpochOps`] (the epoch protocol). The
/// blanket impl below makes every `MatchCore + EpochOps` type a
/// `MatchSource` automatically, so strategies implement the two halves
/// and existing `S: MatchSource` bounds (and `Box<dyn MatchSource>`
/// fleets) keep working unchanged.
pub trait MatchSource: MatchCore + EpochOps {}

/// Implementing both halves *is* implementing the facade.
impl<T: MatchCore + EpochOps + ?Sized> MatchSource for T {}

/// Boxed strategies are strategies: lets heterogeneous deployments (the
/// runtime's `StrategyKind::build`, one per shard of a fleet)
/// pass `Box<dyn MatchSource>` wherever an `S: MatchSource` is expected.
/// (Forwarding the two halves is enough — the blanket impl closes the
/// facade over the box.)
impl<T: MatchCore + ?Sized> MatchCore for Box<T> {
    #[inline]
    fn name(&self) -> &'static str {
        (**self).name()
    }

    #[inline]
    fn rebuild(&mut self, ast: &Ast) {
        (**self).rebuild(ast)
    }

    #[inline]
    fn find_one(&mut self, ast: &Ast, rule: RuleId) -> Option<NodeId> {
        (**self).find_one(ast, rule)
    }

    #[inline]
    fn before_replace(&mut self, ast: &Ast, old_root: NodeId, rule: Option<(RuleId, &Bindings)>) {
        (**self).before_replace(ast, old_root, rule)
    }

    #[inline]
    fn after_replace(&mut self, ast: &Ast, ctx: &ReplaceCtx<'_>) {
        (**self).after_replace(ast, ctx)
    }

    #[inline]
    fn on_graft(&mut self, ast: &Ast, created: &[NodeId]) {
        (**self).on_graft(ast, created)
    }

    #[inline]
    fn check_consistent(&self, ast: &Ast) -> Result<(), String> {
        (**self).check_consistent(ast)
    }

    #[inline]
    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }

    #[inline]
    fn match_heat(&self) -> usize {
        (**self).match_heat()
    }
}

impl<T: EpochOps + ?Sized> EpochOps for Box<T> {
    #[inline]
    fn begin_batch(&mut self) {
        (**self).begin_batch()
    }

    #[inline]
    fn commit_batch(&mut self) {
        (**self).commit_batch()
    }

    #[inline]
    fn submit_commit(&mut self) -> bool {
        (**self).submit_commit()
    }

    #[inline]
    fn apply_submitted(&mut self) -> bool {
        (**self).apply_submitted()
    }

    #[inline]
    fn has_submitted(&self) -> bool {
        (**self).has_submitted()
    }

    #[inline]
    fn batch_cancellation(&self) -> Option<(u64, u64)> {
        (**self).batch_cancellation()
    }
}

// ---------------------------------------------------------------------------
// Naive
// ---------------------------------------------------------------------------

/// The paper's **Naive** baseline: a depth-first scan of the entire AST
/// per search, no state, no maintenance cost, no memory.
pub struct NaiveStrategy {
    rules: Arc<RuleSet>,
    /// Reusable DFS scratch for the compiled per-rule token program.
    scratch: AutomatonScratch,
}

impl NaiveStrategy {
    /// Creates the strategy over a rule set.
    pub fn new(rules: Arc<RuleSet>) -> Self {
        Self {
            rules,
            scratch: AutomatonScratch::default(),
        }
    }
}

impl MatchCore for NaiveStrategy {
    fn name(&self) -> &'static str {
        "Naive"
    }

    fn rebuild(&mut self, _ast: &Ast) {}

    fn find_one(&mut self, ast: &Ast, rule: RuleId) -> Option<NodeId> {
        let auto = self.rules.automaton();
        let scratch = &mut self.scratch;
        ast.descendants(ast.root())
            .find(|&n| auto.run_rule(ast, n, rule, scratch))
    }

    fn before_replace(&mut self, _: &Ast, _: NodeId, _: Option<(RuleId, &Bindings)>) {}

    fn after_replace(&mut self, _: &Ast, _: &ReplaceCtx<'_>) {}

    fn on_graft(&mut self, _: &Ast, _: &[NodeId]) {}

    fn memory_bytes(&self) -> usize {
        // The automaton scratch is transient search state, not a
        // maintained structure — Naive stays the zero-memory baseline.
        0
    }
}

/// Stateless: every epoch method's default (no-op staging, synchronous
/// fallback commit) is already correct.
impl EpochOps for NaiveStrategy {}

// ---------------------------------------------------------------------------
// Label index
// ---------------------------------------------------------------------------

/// The §4.1 **Index** baseline: one posting list per label, maintained by
/// per-node insert/remove; searches scan only the root label's list but
/// still re-check sub-patterns and constraints per candidate.
pub struct IndexStrategy {
    rules: Arc<RuleSet>,
    index: LabelIndex,
    /// Open-epoch staging: net ±1 per `(label, node)`, stored densely by
    /// node; entries that cancel to zero never touch a posting list.
    /// `None` = immediate.
    batch: Option<NodeLabelMap<i64>>,
    /// An epoch sealed by `submit_commit`, awaiting its background
    /// committer (`apply_submitted`). Reads overlay it exactly like the
    /// open batch; at most one epoch is ever sealed.
    sealed: Option<NodeLabelMap<i64>>,
    /// The previous epoch's drained staging map, kept so its dense pages
    /// are reused by the next `begin_batch`.
    spare: Option<NodeLabelMap<i64>>,
    /// Node events staged in the current/most recent epoch.
    staged: u64,
    /// Staged events that annihilated against an opposing entry.
    canceled: u64,
    /// Reusable DFS scratch for the compiled candidate re-checks.
    scratch: AutomatonScratch,
}

impl IndexStrategy {
    /// Creates the strategy over a rule set (index initially empty; call
    /// [`MatchCore::rebuild`] after loading the tree).
    pub fn new(rules: Arc<RuleSet>, ast: &Ast) -> Self {
        Self {
            rules,
            index: LabelIndex::new(ast.schema()),
            batch: None,
            sealed: None,
            spare: None,
            staged: 0,
            canceled: 0,
            scratch: AutomatonScratch::default(),
        }
    }

    /// One candidate found through the posting lists
    /// ([`LabelIndex::lookup_where`], restricted to `live` entries),
    /// re-checked with the searched rule's straight-line automaton
    /// program.
    fn lookup_where(
        rules: &RuleSet,
        index: &LabelIndex,
        scratch: &mut AutomatonScratch,
        ast: &Ast,
        rule: RuleId,
        live: impl Fn(Label, NodeId) -> bool,
    ) -> Option<NodeId> {
        let auto = rules.automaton();
        index.lookup_where(ast, rules.get(rule).pattern.root_label(), live, |n| {
            auto.run_rule(ast, n, rule, scratch)
        })
    }

    /// Drains one epoch's surviving net deltas into the posting lists
    /// and parks the emptied map for page reuse.
    fn apply_epoch(&mut self, mut pending: NodeLabelMap<i64>) {
        // Sorted for deterministic posting-list order; removals first so
        // a same-id label change never double-occupies a bucket slot.
        let mut entries: Vec<((Label, NodeId), i64)> = pending.drain().collect();
        entries.sort_unstable_by_key(|&((label, id), _)| (label.0, id));
        for &((label, id), d) in entries.iter().filter(|(_, d)| *d < 0) {
            debug_assert_eq!(d, -1, "net index delta beyond ±1");
            self.index.remove(label, id);
        }
        for &((label, id), d) in entries.iter().filter(|(_, d)| *d > 0) {
            debug_assert_eq!(d, 1, "net index delta beyond ±1");
            self.index.insert(label, id);
        }
        self.spare = Some(pending);
    }

    /// Routes one node event through the open epoch (or straight into
    /// the index when none is open).
    fn stage(&mut self, label: Label, id: NodeId, delta: i64) {
        match &mut self.batch {
            Some(pending) => {
                self.staged += 1;
                let entry = pending.get_or_insert_with(label, id, || 0);
                *entry += delta;
                if *entry == 0 {
                    pending.remove(label, id);
                    // This event and the one it annihilated.
                    self.canceled += 2;
                }
            }
            None if delta > 0 => self.index.insert(label, id),
            None => self.index.remove(label, id),
        }
    }
}

impl MatchCore for IndexStrategy {
    fn name(&self) -> &'static str {
        "Index"
    }

    fn rebuild(&mut self, ast: &Ast) {
        self.index = LabelIndex::build_from(ast, ast.root());
        if let Some(pending) = &mut self.batch {
            pending.clear();
        }
        self.sealed = None;
    }

    fn find_one(&mut self, ast: &Ast, rule: RuleId) -> Option<NodeId> {
        let Self {
            rules,
            index,
            batch,
            sealed,
            scratch,
            ..
        } = self;
        let (rules, index) = (&**rules, &*index);
        let sealed = sealed.as_ref().filter(|p| !p.is_empty());
        let open = batch.as_ref().filter(|p| !p.is_empty());
        // Overlay over `index ⊕ sealed ⊕ batch`: indexed nodes whose net
        // pending delta is negative are dead (their arena slots may
        // already be reused), and a positive net delta marks a node the
        // index has not absorbed yet — only net-zero nodes read straight
        // from the posting lists.
        let (first, second) = match (sealed, open) {
            (None, None) => {
                return Self::lookup_where(rules, index, scratch, ast, rule, |_, _| true)
            }
            // Single-buffer overlay — one probe per scanned posting-list
            // member. This is the hot shape (a synchronous commit cycle
            // never holds a sealed epoch), so it must not pay for the
            // composed case.
            (Some(p), None) | (None, Some(p)) => {
                if let Some(n) = Self::lookup_where(rules, index, scratch, ast, rule, |label, n| {
                    !p.contains(label, n)
                }) {
                    return Some(n);
                }
                let PatternNode::Match { label: root, .. } = rules.get(rule).pattern.root() else {
                    return None;
                };
                return p
                    .iter()
                    .filter(|&((label, _), &d)| d > 0 && label == *root)
                    .map(|((_, n), _)| n)
                    .find(|&n| rules.automaton().run_rule(ast, n, rule, scratch));
            }
            (Some(s), Some(o)) => (s, o),
        };
        let delta = |label: Label, n: NodeId| {
            first.get(label, n).copied().unwrap_or(0) + second.get(label, n).copied().unwrap_or(0)
        };
        if let Some(n) = Self::lookup_where(rules, index, scratch, ast, rule, |label, n| {
            delta(label, n) == 0
        }) {
            return Some(n);
        }
        // Nodes born inside the sealed or open epoch are not yet
        // indexed, so check the staged insertions carrying the pattern's
        // root label (net across both maps, so a node sealed as born but
        // staged as dying stays invisible).
        let PatternNode::Match { label: root, .. } = rules.get(rule).pattern.root() else {
            return None;
        };
        [first, second]
            .into_iter()
            .flat_map(|pending| pending.iter())
            .filter(|&((label, n), _)| label == *root && delta(label, n) > 0)
            .map(|((_, n), _)| n)
            .find(|&n| rules.automaton().run_rule(ast, n, rule, scratch))
    }

    fn before_replace(&mut self, _: &Ast, _: NodeId, _: Option<(RuleId, &Bindings)>) {
        // All bookkeeping happens on the post-state notification, where
        // the freed nodes' labels arrive as snapshots.
    }

    fn after_replace(&mut self, ast: &Ast, ctx: &ReplaceCtx<'_>) {
        for (label, row) in ctx.removed {
            self.stage(*label, row.id, -1);
        }
        for &n in ctx.inserted {
            self.stage(ast.label(n), n, 1);
        }
        // The parent's label did not change; no index update needed for
        // `parent_update`.
    }

    fn on_graft(&mut self, ast: &Ast, created: &[NodeId]) {
        for &n in created {
            self.stage(ast.label(n), n, 1);
        }
    }

    fn check_consistent(&self, ast: &Ast) -> Result<(), String> {
        if self.batch.as_ref().is_some_and(|p| !p.is_empty()) {
            return Err("label index has staged deltas in an open batch".into());
        }
        if self.sealed.as_ref().is_some_and(|p| !p.is_empty()) {
            return Err("label index has a sealed epoch awaiting its committer".into());
        }
        let fresh = LabelIndex::build_from(ast, ast.root());
        for label in ast.schema().labels() {
            let mut mine: Vec<NodeId> = self.index.nodes(label).to_vec();
            let mut want: Vec<NodeId> = fresh.nodes(label).to_vec();
            mine.sort_unstable();
            want.sort_unstable();
            if mine != want {
                return Err(format!(
                    "label {}: index holds {} nodes, rebuild {}",
                    ast.schema().label_name(label),
                    mine.len(),
                    want.len()
                ));
            }
        }
        Ok(())
    }

    fn memory_bytes(&self) -> usize {
        self.index.memory_bytes()
            + self.batch.as_ref().map_or(0, NodeLabelMap::memory_bytes)
            + self.sealed.as_ref().map_or(0, NodeLabelMap::memory_bytes)
            + self.spare.as_ref().map_or(0, NodeLabelMap::memory_bytes)
    }

    fn match_heat(&self) -> usize {
        // The index holds *candidates*, not matches: posting-list length
        // under each rule's root label is the work `find_one` may have
        // to wade through, plus whatever the open epoch staged.
        let candidates: usize = self
            .rules
            .iter()
            .map(|(_, rule)| {
                rule.pattern
                    .root_label()
                    .map_or(0, |label| self.index.len(label))
            })
            .sum();
        candidates
            + self.batch.as_ref().map_or(0, |b| b.len())
            + self.sealed.as_ref().map_or(0, |b| b.len())
    }
}

impl EpochOps for IndexStrategy {
    fn begin_batch(&mut self) {
        if self.batch.is_none() {
            // Reuse the drained map from the last epoch (empty, pages
            // allocated) rather than building a fresh one, and restart
            // the per-epoch cancellation counters.
            self.batch = Some(self.spare.take().unwrap_or_default());
            self.staged = 0;
            self.canceled = 0;
        }
    }

    fn commit_batch(&mut self) {
        // Epochs apply in submission order: a sealed epoch always
        // precedes the one being committed now.
        self.apply_submitted();
        let Some(pending) = self.batch.take() else {
            return;
        };
        self.apply_epoch(pending);
    }

    fn submit_commit(&mut self) -> bool {
        let Some(pending) = self.batch.take() else {
            return false;
        };
        // Bounded backpressure: at most one epoch in flight. A second
        // submit before the committer ran applies the old seal inline.
        self.apply_submitted();
        if pending.is_empty() {
            // Nothing staged: close the epoch without occupying the
            // sealed slot, so the committer is never fed a no-op.
            self.spare = Some(pending);
            return false;
        }
        self.sealed = Some(pending);
        true
    }

    fn apply_submitted(&mut self) -> bool {
        let Some(sealed) = self.sealed.take() else {
            return false;
        };
        self.apply_epoch(sealed);
        true
    }

    fn has_submitted(&self) -> bool {
        self.sealed.is_some()
    }

    fn batch_cancellation(&self) -> Option<(u64, u64)> {
        // Counters persist after a commit (until the next begin), so
        // callers can read the epoch just closed.
        (self.batch.is_some() || self.sealed.is_some() || self.spare.is_some())
            .then_some((self.staged, self.canceled))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::reuse;
    use crate::rules::RewriteRule;
    use tt_ast::schema::arith_schema;
    use tt_ast::sexpr::parse_sexpr;
    use tt_pattern::dsl as p;
    use tt_pattern::{find_first, match_node, matches, Pattern};

    fn add_zero_rules() -> Arc<RuleSet> {
        let s = arith_schema();
        let pattern = Pattern::compile(
            &s,
            p::node(
                "Arith",
                "A",
                [
                    p::node("Const", "B", [], p::eq(p::attr("B", "val"), p::int(0))),
                    p::node("Var", "C", [], p::tru()),
                ],
                p::eq(p::attr("A", "op"), p::str_("+")),
            ),
        );
        Arc::new(RuleSet::from_rules(vec![RewriteRule::new(
            "AddZero",
            &s,
            pattern,
            reuse("C"),
        )]))
    }

    fn tree(text: &str) -> (Ast, NodeId) {
        let mut ast = Ast::new(arith_schema());
        let id = parse_sexpr(&mut ast, text).unwrap();
        ast.set_root(id);
        (ast, id)
    }

    /// Drives one full rewrite through any strategy, checking the
    /// notification protocol; returns the strategy's post-state find.
    fn drive_one(strategy: &mut dyn MatchSource) -> Option<NodeId> {
        let rules = add_zero_rules();
        let (mut ast, root) =
            tree(r#"(Arith op="*" (Arith op="+" (Const val=0) (Var name="b")) (Var name="x"))"#);
        strategy.rebuild(&ast);
        let site = strategy
            .find_one(&ast, 0)
            .expect("should find the inner Arith");
        assert_eq!(site, ast.children(root)[0]);
        let rule = rules.get(0);
        let bindings = match_node(&ast, site, &rule.pattern).unwrap();
        strategy.before_replace(&ast, site, Some((0, &bindings)));
        let applied = rule.apply(&mut ast, site, &bindings, 0);
        let ctx = ReplaceCtx {
            old_root: applied.old_root,
            new_root: applied.new_root,
            removed: &applied.removed,
            inserted: applied.inserted(),
            parent_update: applied.parent_update.as_ref(),
            rule: Some(RuleFired {
                rule: 0,
                bindings: &bindings,
                applied: &applied,
            }),
        };
        strategy.after_replace(&ast, &ctx);
        strategy.find_one(&ast, 0)
    }

    #[test]
    fn naive_full_protocol() {
        let mut s = NaiveStrategy::new(add_zero_rules());
        assert_eq!(s.name(), "Naive");
        assert_eq!(s.memory_bytes(), 0);
        assert!(
            drive_one(&mut s).is_none(),
            "no match remains after rewriting"
        );
    }

    #[test]
    fn index_full_protocol() {
        let rules = add_zero_rules();
        let (ast, _) = tree(r#"(Const val=1)"#);
        let mut s = IndexStrategy::new(rules, &ast);
        assert_eq!(s.name(), "Index");
        assert!(drive_one(&mut s).is_none());
        assert!(s.memory_bytes() > 0);
    }

    #[test]
    fn index_batched_epoch_overlay_and_commit() {
        let rules = add_zero_rules();
        let (mut ast, root) = tree(
            r#"(Arith op="*" (Arith op="+" (Const val=0) (Var name="b")) (Arith op="+" (Const val=0) (Var name="c")))"#,
        );
        let mut s = IndexStrategy::new(rules.clone(), &ast);
        s.rebuild(&ast);
        s.begin_batch();
        let site = s.find_one(&ast, 0).unwrap();
        let rule = rules.get(0);
        let bindings = match_node(&ast, site, &rule.pattern).unwrap();
        s.before_replace(&ast, site, Some((0, &bindings)));
        let applied = rule.apply(&mut ast, site, &bindings, 0);
        let ctx = ReplaceCtx {
            old_root: applied.old_root,
            new_root: applied.new_root,
            removed: &applied.removed,
            inserted: applied.inserted(),
            parent_update: applied.parent_update.as_ref(),
            rule: None,
        };
        s.after_replace(&ast, &ctx);
        // Mid-epoch: the freed site must be invisible through the
        // overlay; the untouched second site must still surface.
        let next = s.find_one(&ast, 0).expect("second site visible");
        assert_ne!(next, site);
        assert!(
            s.check_consistent(&ast).is_err(),
            "dirty open batch is not a checkable state"
        );
        s.commit_batch();
        s.check_consistent(&ast).unwrap();
        assert_eq!(s.find_one(&ast, 0), Some(ast.children(root)[1]));
    }

    #[test]
    fn compiled_overlay_agrees_with_baseline_mid_epoch() {
        // The per-rule evaluator is the reference: every overlay read —
        // before and after the commit lands the surviving deltas — must
        // return a node it accepts, and `None` only when it finds none.
        let rules = add_zero_rules();
        let (mut ast, _) = tree(
            r#"(Arith op="*" (Arith op="+" (Const val=0) (Var name="b")) (Arith op="+" (Const val=0) (Var name="c")))"#,
        );
        let agrees = |s: &mut IndexStrategy, ast: &Ast| {
            let pattern = &rules.get(0).pattern;
            match s.find_one(ast, 0) {
                Some(n) => assert!(matches(ast, n, pattern), "{n:?} is no match"),
                None => assert!(find_first(ast, ast.root(), pattern).is_none()),
            }
        };
        let mut s = IndexStrategy::new(rules.clone(), &ast);
        s.rebuild(&ast);
        s.begin_batch();
        agrees(&mut s, &ast);
        let site = s.find_one(&ast, 0).unwrap();
        let rule = rules.get(0);
        let bindings = match_node(&ast, site, &rule.pattern).unwrap();
        let applied = rule.apply(&mut ast, site, &bindings, 0);
        let ctx = ReplaceCtx {
            old_root: applied.old_root,
            new_root: applied.new_root,
            removed: &applied.removed,
            inserted: applied.inserted(),
            parent_update: applied.parent_update.as_ref(),
            rule: None,
        };
        s.after_replace(&ast, &ctx);
        agrees(&mut s, &ast);
        s.commit_batch();
        agrees(&mut s, &ast);
        s.check_consistent(&ast).unwrap();
    }

    #[test]
    fn index_tracks_membership_across_rewrites() {
        let rules = add_zero_rules();
        let (mut ast, root) = tree(r#"(Arith op="+" (Const val=0) (Var name="b"))"#);
        let mut s = IndexStrategy::new(rules.clone(), &ast);
        s.rebuild(&ast);
        let site = s.find_one(&ast, 0).unwrap();
        assert_eq!(site, root);
        let rule = rules.get(0);
        let bindings = match_node(&ast, site, &rule.pattern).unwrap();
        s.before_replace(&ast, site, Some((0, &bindings)));
        let applied = rule.apply(&mut ast, site, &bindings, 0);
        let ctx = ReplaceCtx {
            old_root: applied.old_root,
            new_root: applied.new_root,
            removed: &applied.removed,
            inserted: applied.inserted(),
            parent_update: applied.parent_update.as_ref(),
            rule: None,
        };
        s.after_replace(&ast, &ctx);
        // Tree is now a bare Var; the index must agree.
        assert!(s.find_one(&ast, 0).is_none());
        ast.validate().unwrap();
    }
}

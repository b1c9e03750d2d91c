//! The instrumented JITD runtime (paper Figure 8's benchmark module).
//!
//! Drives a [`JitdIndex`] through YCSB operations and reorganization
//! steps with a pluggable search strategy — one of the five the paper
//! compares — measuring, per §7.2: (i) time spent finding a pattern
//! match, (ii) time spent maintaining support structures, and
//! (iii) memory allocated.
//!
//! A runtime always counts its work (steps, per-rule matches and
//! rewrites, events per stream) but reads the clock only if built
//! [`timed`](Jitd::timed): the figure harnesses ask for durations, while a
//! served or benchmarked runtime that nobody times pays for no clock
//! reads and keeps no latency samples.

use crate::index::JitdIndex;
use crate::rules::{paper_rules, RuleConfig};
use crate::schema::jitd_schema;
use std::sync::Arc;
use treetoaster_core::{
    IndexStrategy, MatchSource, NaiveStrategy, ReplaceCtx, RuleFired, RuleId, RuleSet,
    TreeToasterEngine,
};
use tt_ast::Record;
use tt_ivm::{ClassicIvm, DbtIvm};
use tt_metrics::{Clock, Latencies, SummaryBuilder};
use tt_pattern::AutomatonScratch;
use tt_ycsb::Op;

/// The five search strategies of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Full-tree scan per search.
    Naive,
    /// Label index (§4.1).
    Index,
    /// Classic cascading IVM (Ross; DBToaster `--depth=1`).
    Classic,
    /// DBToaster-style higher-order IVM.
    Dbt,
    /// TreeToaster.
    TreeToaster,
}

impl StrategyKind {
    /// All five, in the paper's figure order.
    pub fn all() -> [StrategyKind; 5] {
        [
            StrategyKind::Naive,
            StrategyKind::Index,
            StrategyKind::Classic,
            StrategyKind::Dbt,
            StrategyKind::TreeToaster,
        ]
    }

    /// The four maintained strategies (Figures 10, 12, 13 omit Naive).
    pub fn ivm_set() -> [StrategyKind; 4] {
        [
            StrategyKind::Index,
            StrategyKind::Classic,
            StrategyKind::Dbt,
            StrategyKind::TreeToaster,
        ]
    }

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::Naive => "Naive",
            StrategyKind::Index => "Index",
            StrategyKind::Classic => "Classic",
            StrategyKind::Dbt => "DBT",
            StrategyKind::TreeToaster => "TT",
        }
    }

    /// Instantiates the strategy for a rule set over `ast`.
    pub fn build(self, rules: Arc<RuleSet>, ast: &tt_ast::Ast) -> Box<dyn MatchSource> {
        match self {
            StrategyKind::Naive => Box::new(NaiveStrategy::new(rules)),
            StrategyKind::Index => Box::new(IndexStrategy::new(rules, ast)),
            StrategyKind::Classic => Box::new(ClassicIvm::new(rules, ast)),
            StrategyKind::Dbt => Box::new(DbtIvm::new(rules, ast)),
            StrategyKind::TreeToaster => Box::new(TreeToasterEngine::new(rules)),
        }
    }
}

/// Work counters and latency streams, per §7.2's three axes. Every
/// stream counts its events; only a [`timed`](Jitd::timed) runtime's
/// streams also keep latencies.
#[derive(Debug)]
pub struct JitdStats {
    /// Per rule: `find_one` calls (Figure 9's search latency).
    pub search_ns: Vec<Latencies>,
    /// Per rule: subtree construction + pointer swaps.
    pub rewrite_ns: Vec<Latencies>,
    /// Per rule: view/index maintenance around a rewrite.
    pub maintain_ns: Vec<Latencies>,
    /// Maintenance triggered by database operations (graft events).
    pub op_maintain_ns: Latencies,
    /// End-to-end database operations.
    pub op_ns: Latencies,
    /// Epoch commits and seals (`commit_batch`, `submit_commit`).
    pub commit_ns: Latencies,
    /// Per rule: how many `find_one` probes surfaced a match.
    pub rule_matches: Vec<u64>,
    /// Per rule: how many rewrites were actually applied.
    pub rule_rewrites: Vec<u64>,
    /// Rewrites applied.
    pub steps: u64,
}

impl JitdStats {
    fn new(rule_count: usize, clock: Clock) -> JitdStats {
        let streams = || (0..rule_count).map(|_| Latencies::new(clock)).collect();
        JitdStats {
            search_ns: streams(),
            rewrite_ns: streams(),
            maintain_ns: streams(),
            op_maintain_ns: Latencies::new(clock),
            op_ns: Latencies::new(clock),
            commit_ns: Latencies::new(clock),
            rule_matches: vec![0; rule_count],
            rule_rewrites: vec![0; rule_count],
            steps: 0,
        }
    }

    /// All maintenance samples pooled (rewrite-driven plus op-driven) —
    /// Figure 12's "IVM operational latency"; empty unless timed.
    pub fn all_maintenance_samples(&self) -> SummaryBuilder {
        let mut out = SummaryBuilder::new();
        for b in &self.maintain_ns {
            for s in b.samples() {
                out.push(*s);
            }
        }
        for s in self.op_maintain_ns.samples() {
            out.push(*s);
        }
        out
    }
}

/// Outcome of one reorganization step.
#[derive(Debug, Clone, Copy)]
pub struct StepOutcome {
    /// Whether a match was found and the rule applied.
    pub fired: bool,
}

/// The runtime: index + rules + one search strategy + instrumentation.
pub struct Jitd {
    index: JitdIndex,
    rules: Arc<RuleSet>,
    strategy: Box<dyn MatchSource>,
    kind: StrategyKind,
    tick: u64,
    /// Scratch for the per-rewrite binding re-derivation; the bindings
    /// it leaves are read in place, so a steady-state reorganization
    /// step allocates nothing outside the rewrite itself.
    scratch: AutomatonScratch,
    /// Reads the wall clock only for a [`timed`](Jitd::timed) runtime.
    clock: Clock,
    /// Collected measurements.
    pub stats: JitdStats,
}

impl Jitd {
    /// Builds a runtime with the paper's five rules, loads `records`,
    /// and initializes the strategy.
    pub fn new(kind: StrategyKind, config: RuleConfig, records: Vec<Record>) -> Jitd {
        let schema = jitd_schema();
        let rules = Arc::new(paper_rules(&schema, config));
        Self::with_rules(kind, rules, records)
    }

    /// Builds a runtime over an explicit rule set.
    pub fn with_rules(kind: StrategyKind, rules: Arc<RuleSet>, records: Vec<Record>) -> Jitd {
        let index = JitdIndex::load(records);
        let strategy = kind.build(rules.clone(), index.ast());
        Self::from_strategy(kind, rules, index, true, strategy)
    }

    /// Builds a runtime around a caller-constructed strategy (e.g. a
    /// generic-mode [`treetoaster_core::TreeToasterEngine`], which
    /// [`StrategyKind::build`] never produces, or a tracing wrapper) —
    /// the bench rule-scale driver measures the subtree-walk
    /// maintenance path through this. `kind` is only the reporting
    /// label.
    ///
    /// `compiled` must be `true`: the automaton is the only matcher. The
    /// parameter is kept only so the `perfbench` call site still
    /// compiles, and goes with the next change to that benchmark.
    pub fn from_strategy(
        kind: StrategyKind,
        rules: Arc<RuleSet>,
        index: JitdIndex,
        compiled: bool,
        mut strategy: Box<dyn MatchSource>,
    ) -> Jitd {
        assert!(
            compiled,
            "compiled must be true; kept for the benchmark's call site"
        );
        strategy.rebuild(index.ast());
        let stats = JitdStats::new(rules.len(), Clock::Off);
        Jitd {
            index,
            rules,
            strategy,
            kind,
            tick: 0,
            scratch: AutomatonScratch::default(),
            clock: Clock::Off,
            stats,
        }
    }

    /// The same fresh runtime, timed: every stream of
    /// [`stats`](Jitd::stats) keeps one latency per event, read from the
    /// wall clock. The figure harnesses build their runtimes this way; an
    /// untimed runtime counts the same events and reads no clock.
    pub fn timed(mut self) -> Jitd {
        assert!(
            self.stats.steps == 0 && self.stats.op_ns.is_empty(),
            "a runtime is timed before it runs"
        );
        self.clock = Clock::Wall;
        self.stats = JitdStats::new(self.rules.len(), Clock::Wall);
        self
    }

    /// The underlying index.
    pub fn index(&self) -> &JitdIndex {
        &self.index
    }

    /// The rules driving reorganization.
    pub fn rules(&self) -> &Arc<RuleSet> {
        &self.rules
    }

    /// Which strategy is plugged in.
    pub fn kind(&self) -> StrategyKind {
        self.kind
    }

    /// Executes one YCSB operation, wrapping writes into the AST and
    /// notifying the strategy (graft maintenance is its own stream).
    pub fn execute(&mut self, op: &Op) {
        let t0 = self.clock.now();
        match *op {
            Op::Read { key } => {
                std::hint::black_box(self.index.get(key));
            }
            Op::Scan { key, len } => {
                std::hint::black_box(self.index.scan(key, len));
            }
            Op::Update { key, value } => {
                // The paper pushes updates down as "Singleton and
                // DeleteSingleton respectively": an update retires the
                // old version (tombstone) and installs the new one —
                // which is why its Figure 10 notes workload D (inserts
                // only) has no delete operations while A/B/F do.
                let created = self.index.wrap_delete(key);
                self.graft(&created);
                let created = self.index.wrap_insert(key, value);
                self.graft(&created);
            }
            Op::Insert { key, value } => {
                let created = self.index.wrap_insert(key, value);
                self.graft(&created);
            }
            Op::ReadModifyWrite { key, value } => {
                // Read-modify-write = a read plus an update.
                let prior = self.index.get(key).unwrap_or(0);
                let created = self.index.wrap_delete(key);
                self.graft(&created);
                let created = self.index.wrap_insert(key, value ^ prior);
                self.graft(&created);
            }
        }
        self.stats.op_ns.record(self.clock.since(t0));
    }

    /// Notifies the strategy of a graft, into `op_maintain_ns`.
    fn graft(&mut self, created: &[tt_ast::NodeId]) {
        let m0 = self.clock.now();
        self.strategy.on_graft(self.index.ast(), created);
        self.stats.op_maintain_ns.record(self.clock.since(m0));
    }

    /// Deletes a key (used by drivers that extend the YCSB mixes).
    pub fn delete(&mut self, key: i64) {
        let t0 = self.clock.now();
        let created = self.index.wrap_delete(key);
        self.graft(&created);
        self.stats.op_ns.record(self.clock.since(t0));
    }

    /// One optimizer iteration for `rule`: search, apply, maintain.
    pub fn reorganize_step(&mut self, rule: RuleId) -> StepOutcome {
        let clock = self.clock;
        let s0 = clock.now();
        let site = self.strategy.find_one(self.index.ast(), rule);
        self.stats.search_ns[rule].record(clock.since(s0));
        let Some(site) = site else {
            return StepOutcome { fired: false };
        };

        self.stats.rule_matches[rule] += 1;
        let rule_def = self.rules.get(rule);
        // Re-derive bindings with the rule's straight-line automaton
        // program (strategies are charged equally for this step; see
        // `MatchSource::find_one`).
        let live = self
            .rules
            .automaton()
            .run_rule(self.index.ast(), site, rule, &mut self.scratch);
        assert!(
            live,
            "strategy returned a stale match — view maintenance bug"
        );
        let bindings = self.scratch.bindings();

        let m0 = clock.now();
        self.strategy
            .before_replace(self.index.ast(), site, Some((rule, bindings)));
        let pre_maintain = clock.since(m0);

        let r0 = clock.now();
        let applied = rule_def.apply(self.index.ast_mut(), site, bindings, self.tick);
        self.tick += 1;
        let rewrite_ns = clock.since(r0);

        let ctx = ReplaceCtx {
            old_root: applied.old_root,
            new_root: applied.new_root,
            removed: &applied.removed,
            inserted: applied.inserted(),
            parent_update: applied.parent_update.as_ref(),
            rule: Some(RuleFired {
                rule,
                bindings,
                applied: &applied,
            }),
        };
        let m1 = clock.now();
        self.strategy.after_replace(self.index.ast(), &ctx);
        let maintain_ns = pre_maintain + clock.since(m1);

        self.stats.rewrite_ns[rule].record(rewrite_ns);
        self.stats.maintain_ns[rule].record(maintain_ns);
        self.stats.rule_rewrites[rule] += 1;
        self.stats.steps += 1;
        StepOutcome { fired: true }
    }

    /// True while any rule still has a match — the runtime holds
    /// reorganization backlog. A search-only probe (nothing is applied,
    /// though bolt-on strategies may flush staged deltas, as on any
    /// read): pool drivers use it to detect fleet quiescence without
    /// doing the reorganization work themselves. A sealed epoch awaiting
    /// its committer counts as backlog too — quiescence must not be
    /// reported before the last generation publishes.
    pub fn has_pending_matches(&mut self) -> bool {
        self.strategy.has_submitted()
            || (0..self.rules.len())
                .any(|rid| self.strategy.find_one(self.index.ast(), rid).is_some())
    }

    /// Tries every rule once; returns how many fired.
    pub fn reorganize_round(&mut self) -> usize {
        (0..self.rules.len())
            .filter(|&rid| self.reorganize_step(rid).fired)
            .count()
    }

    /// Runs rounds until quiescent or `max_steps` rewrites applied.
    /// Returns the number of rewrites.
    pub fn reorganize_until_quiet(&mut self, max_steps: u64) -> u64 {
        let start = self.stats.steps;
        while self.stats.steps - start < max_steps {
            if self.reorganize_round() == 0 {
                break;
            }
        }
        self.stats.steps - start
    }

    /// Opens a maintenance epoch on the plugged-in strategy: until
    /// [`commit_batch`](Jitd::commit_batch), view/index deltas from
    /// operations and rewrites may be staged and coalesced instead of
    /// applied one by one.
    pub fn begin_batch(&mut self) {
        self.strategy.begin_batch();
    }

    /// Commits the open maintenance epoch, recording the flush in
    /// `stats.commit_ns` (kept separate from the staging-side
    /// maintenance streams so the two costs can be compared): the
    /// pipeline at lag 0, a seal landed at once. Returns `true` if an
    /// epoch landed.
    pub fn commit_batch(&mut self) -> bool {
        let t0 = self.clock.now();
        self.strategy.submit_commit();
        let landed = self.strategy.apply_submitted();
        self.stats.commit_ns.record(self.clock.since(t0));
        landed
    }

    /// Seals the open maintenance epoch for a background committer
    /// instead of applying it inline ([`treetoaster_core::EpochOps::submit_commit`]):
    /// only the seal itself goes into `stats.commit_ns`, which is the
    /// point — the apply cost moves to whoever later calls
    /// [`apply_submitted`](Jitd::apply_submitted). Returns `true` if an
    /// epoch was actually sealed.
    pub fn submit_commit(&mut self) -> bool {
        let t0 = self.clock.now();
        let sealed = self.strategy.submit_commit();
        self.stats.commit_ns.record(self.clock.since(t0));
        sealed
    }

    /// Applies a sealed epoch, if any — the committer half of the
    /// pipelined commit. Returns `true` if an epoch was applied.
    pub fn apply_submitted(&mut self) -> bool {
        self.strategy.apply_submitted()
    }

    /// True while a sealed epoch awaits its committer.
    pub fn has_submitted(&self) -> bool {
        self.strategy.has_submitted()
    }

    /// Per-epoch `(staged, canceled)` delta counters of the plugged-in
    /// strategy, `None` for strategies that stage nothing.
    pub fn batch_cancellation(&self) -> Option<(u64, u64)> {
        self.strategy.batch_cancellation()
    }

    /// Test oracle: the strategy's structures against a from-scratch
    /// rebuild over the live AST (stronger than
    /// [`agreement_with_naive`](Jitd::agreement_with_naive), which only
    /// compares match existence).
    pub fn check_strategy_consistent(&self) -> Result<(), String> {
        self.strategy.check_consistent(self.index.ast())
    }

    /// Strategy-held supplemental memory (Figure 11/13's axis).
    pub fn strategy_memory_bytes(&self) -> usize {
        self.strategy.memory_bytes()
    }

    /// The compiler's own AST memory (the baseline all strategies share).
    pub fn ast_memory_bytes(&self) -> usize {
        self.index.ast().memory_bytes()
    }

    /// Test oracle: for every rule, the strategy agrees with a fresh
    /// naive scan about whether a match exists.
    pub fn agreement_with_naive(&mut self) -> Result<(), String> {
        for (rid, rule) in self.rules.clone().iter() {
            let naive =
                tt_pattern::find_first(self.index.ast(), self.index.ast().root(), &rule.pattern)
                    .is_some();
            let mine = self.strategy.find_one(self.index.ast(), rid).is_some();
            if naive != mine {
                return Err(format!(
                    "strategy {} disagrees on rule {} ({}): naive={naive}, strategy={mine}",
                    self.kind.label(),
                    rid,
                    rule.name
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_pattern::{matches_with, Bindings};
    use tt_ycsb::{Workload, WorkloadSpec};

    fn records(n: i64) -> Vec<Record> {
        (0..n).map(|i| Record::new(i, i * 2)).collect()
    }

    fn run_mixed(kind: StrategyKind) -> Jitd {
        let mut jitd = Jitd::new(kind, RuleConfig { crack_threshold: 8 }, records(128));
        let mut workload = Workload::new(WorkloadSpec::standard('A'), 128, 99);
        for _ in 0..60 {
            let op = workload.next_op();
            jitd.execute(&op);
            jitd.reorganize_round();
            jitd.agreement_with_naive().unwrap();
        }
        jitd.index.check_structure().unwrap();
        jitd
    }

    #[test]
    fn naive_runtime_mixed_workload() {
        let jitd = run_mixed(StrategyKind::Naive);
        assert!(jitd.stats.steps > 0, "reorganization happened");
        assert_eq!(jitd.strategy_memory_bytes(), 0);
    }

    #[test]
    fn index_runtime_mixed_workload() {
        let jitd = run_mixed(StrategyKind::Index);
        assert!(jitd.strategy_memory_bytes() > 0);
    }

    #[test]
    fn classic_runtime_mixed_workload() {
        let jitd = run_mixed(StrategyKind::Classic);
        assert!(jitd.strategy_memory_bytes() > 0);
    }

    #[test]
    fn dbt_runtime_mixed_workload() {
        let jitd = run_mixed(StrategyKind::Dbt);
        assert!(jitd.strategy_memory_bytes() > 0);
    }

    #[test]
    fn treetoaster_runtime_mixed_workload() {
        let jitd = run_mixed(StrategyKind::TreeToaster);
        assert!(jitd.stats.steps > 0);
    }

    #[test]
    fn all_strategies_preserve_read_semantics() {
        // Same op stream against all five strategies; point reads must
        // agree with a model BTreeMap at the end.
        let spec = WorkloadSpec::standard('A');
        for kind in StrategyKind::all() {
            let mut jitd = Jitd::new(kind, RuleConfig { crack_threshold: 8 }, records(64));
            let mut model: std::collections::BTreeMap<i64, i64> =
                (0..64).map(|i| (i, i * 2)).collect();
            let mut workload = Workload::new(spec, 64, 1234);
            for _ in 0..50 {
                let op = workload.next_op();
                match op {
                    Op::Update { key, value } | Op::Insert { key, value } => {
                        model.insert(key, value);
                    }
                    Op::ReadModifyWrite { key, value } => {
                        let prior = model.get(&key).copied().unwrap_or(0);
                        model.insert(key, value ^ prior);
                    }
                    _ => {}
                }
                jitd.execute(&op);
                jitd.reorganize_round();
            }
            for key in 0..64 {
                assert_eq!(
                    jitd.index().get(key),
                    model.get(&key).copied(),
                    "strategy {} diverged at key {key}",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn batched_epochs_preserve_semantics_for_all_strategies() {
        // Chunks of ops + a reorganization burst per epoch: after every
        // commit each strategy must equal a from-scratch rebuild.
        for kind in StrategyKind::all() {
            let mut jitd = Jitd::new(kind, RuleConfig { crack_threshold: 8 }, records(96)).timed();
            let mut workload = Workload::new(WorkloadSpec::standard('A'), 96, 7);
            let mut done = 0;
            while done < 48 {
                jitd.begin_batch();
                for _ in 0..8 {
                    let op = workload.next_op();
                    jitd.execute(&op);
                    done += 1;
                }
                jitd.reorganize_until_quiet(u64::MAX);
                jitd.commit_batch();
                jitd.check_strategy_consistent()
                    .unwrap_or_else(|e| panic!("{} inconsistent: {e}", kind.label()));
                jitd.agreement_with_naive().unwrap();
            }
            assert_eq!(jitd.stats.commit_ns.samples().len(), 6, "one per epoch");
            jitd.index.check_structure().unwrap();
        }
    }

    #[test]
    fn baseline_matcher_runtime_agrees_with_compiled() {
        // The per-rule evaluator is the baseline: before every step, each
        // site a strategy surfaces must be a match it accepts, with the
        // bindings the automaton re-derives for the rewrite.
        // (Classic/DBT find matches relationally; the same check holds.)
        let ops: Vec<Op> = {
            let mut workload = Workload::new(WorkloadSpec::standard('A'), 96, 5);
            (0..40).map(|_| workload.next_op()).collect()
        };
        for kind in StrategyKind::all() {
            let mut jitd = Jitd::new(kind, RuleConfig { crack_threshold: 8 }, records(96));
            let mut checked = 0;
            for op in &ops {
                jitd.execute(op);
                for rid in 0..jitd.rules().len() {
                    let rules = jitd.rules().clone();
                    let ast = jitd.index.ast();
                    if let Some(site) = jitd.strategy.find_one(ast, rid) {
                        let mut oracle = Bindings::default();
                        assert!(
                            matches_with(ast, site, &rules.get(rid).pattern, &mut oracle),
                            "{} surfaced a non-match for rule {rid}",
                            kind.label()
                        );
                        assert!(rules
                            .automaton()
                            .run_rule(ast, site, rid, &mut jitd.scratch));
                        assert_eq!(jitd.scratch.bindings(), &oracle);
                        checked += 1;
                    }
                    jitd.reorganize_step(rid);
                }
            }
            assert!(checked > 0, "{} surfaced no site", kind.label());
            jitd.agreement_with_naive().unwrap();
        }
    }

    #[test]
    fn reorganize_until_quiet_reaches_paper_rule_fixpoint() {
        let mut jitd = Jitd::new(
            StrategyKind::TreeToaster,
            RuleConfig { crack_threshold: 4 },
            records(64),
        );
        let applied = jitd.reorganize_until_quiet(10_000);
        assert!(applied > 0);
        // At quiescence no rule matches (agreement check covers all).
        for rid in 0..jitd.rules().len() {
            assert!(!jitd.reorganize_step(rid).fired);
        }
        jitd.index.check_structure().unwrap();
    }

    #[test]
    fn delete_flows_through_tombstone_rules() {
        let mut jitd = Jitd::new(
            StrategyKind::TreeToaster,
            RuleConfig { crack_threshold: 4 },
            records(32),
        );
        jitd.reorganize_until_quiet(1000);
        jitd.delete(10);
        jitd.reorganize_until_quiet(1000);
        jitd.agreement_with_naive().unwrap();
        assert_eq!(jitd.index().get(10), None);
        assert_eq!(jitd.index().get(11), Some(22));
    }

    #[test]
    fn stats_are_recorded() {
        let mut jitd = Jitd::new(
            StrategyKind::TreeToaster,
            RuleConfig { crack_threshold: 8 },
            records(128),
        )
        .timed();
        let mut workload = Workload::new(WorkloadSpec::standard('A'), 128, 99);
        for _ in 0..60 {
            jitd.execute(&workload.next_op());
            jitd.reorganize_round();
        }
        let total_searches: usize = jitd.stats.search_ns.iter().map(|b| b.len()).sum();
        let timed_searches: usize = jitd.stats.search_ns.iter().map(|b| b.samples().len()).sum();
        assert!(total_searches > 0);
        assert_eq!(timed_searches, total_searches, "one latency per find");
        assert_eq!(jitd.stats.op_ns.samples().len(), 60);
        assert!(!jitd.stats.all_maintenance_samples().is_empty());
    }

    #[test]
    fn an_untimed_runtime_counts_without_samples() {
        let jitd = run_mixed(StrategyKind::TreeToaster);
        let total_searches: usize = jitd.stats.search_ns.iter().map(|b| b.len()).sum();
        assert!(total_searches > 0);
        assert_eq!(jitd.stats.op_ns.len(), 60);
        assert!(jitd.stats.search_ns.iter().all(|b| b.samples().is_empty()));
        assert!(jitd.stats.op_ns.samples().is_empty());
        assert!(jitd.stats.all_maintenance_samples().is_empty());
    }
}

//! `jitd_ycsb_a`: the paper's evaluation bed — a TreeToaster-maintained
//! JITD index under seeded YCSB-A, one reorganization round after every
//! op (the serialized module of the paper's Fig 8).

use crate::harness::{pct_or_zero, Pass, SplitMix, Workload};
use crate::trace::{self, Layer};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use treetoaster_core::{
    EngineConfig, EpochOps, MatchCore, MatchSource, ReplaceCtx, RuleId, RuleSet,
};
use tt_ast::{Ast, NodeId, Record};
use tt_jitd::{jitd_schema, paper_rules, Jitd, JitdIndex, RuleConfig, StrategyKind};
use tt_pattern::Bindings;
use tt_ycsb::{Op, Workload as Ycsb, WorkloadSpec};

const RECORDS: u64 = 100_000;
/// Ops per script. Reads walk the spine of writes the reorganizer has
/// not pushed down yet, so read cost grows with the ops run; a short
/// script keeps that walk, and its sensitivity to the host's cache
/// contention, small.
const OPS: usize = 1_000;
/// Op scripts per run. The tree's shape, and with it read cost, depends
/// on the key sequence; pooling several scripts per run keeps one
/// seed's luck from moving the numbers.
const SCRIPTS: usize = 16;

pub struct JitdYcsbA {
    rules: Arc<RuleSet>,
    scripts: Vec<Vec<Op>>,
}

impl JitdYcsbA {
    pub fn new(seed: u64) -> JitdYcsbA {
        // Explicit config: no TT_* variable can change a run.
        let engine = EngineConfig::default().records(RECORDS).ops(OPS);
        let rules = Arc::new(paper_rules(
            &jitd_schema(),
            RuleConfig {
                crack_threshold: engine.crack_threshold,
            },
        ));
        let mut seeds = SplitMix(seed);
        let scripts = (0..SCRIPTS)
            .map(|_| {
                Ycsb::new(
                    WorkloadSpec::standard('A'),
                    engine.records,
                    seeds.next_u64(),
                )
                .take_ops(engine.ops)
            })
            .collect();
        JitdYcsbA { rules, scripts }
    }

    /// Loads the records and reorganizes to quiescence.
    fn setup(&self, traced: bool) -> Jitd {
        let records: Vec<Record> = (0..RECORDS as i64).map(|k| Record::new(k, 7 * k)).collect();
        let index = JitdIndex::load(records);
        let inner = StrategyKind::TreeToaster.build(self.rules.clone(), index.ast());
        let strategy: Box<dyn MatchSource> = if traced {
            Box::new(Traced { inner })
        } else {
            inner
        };
        let mut j = Jitd::from_strategy(
            StrategyKind::TreeToaster,
            self.rules.clone(),
            index,
            true,
            strategy,
        );
        j.reorganize_until_quiet(u64::MAX);
        j
    }
}

impl Workload for JitdYcsbA {
    fn scripts(&self) -> usize {
        SCRIPTS
    }

    fn headline(&self) -> &'static str {
        "read"
    }

    fn deterministic(&self) -> bool {
        true
    }

    fn pass(&mut self, script: usize, traced: bool) -> Pass {
        let t0 = Instant::now();
        let mut j = self.setup(traced);
        let setup_s = t0.elapsed().as_secs_f64();
        // Set-up spans are not part of the op path.
        trace::take();
        let setup_rewrites = j.stats.steps;

        let mut shadow: Vec<i64> = (0..RECORDS as i64).map(|k| 7 * k).collect();
        let mut op_ns = Vec::with_capacity(OPS);
        let mut reads = Vec::with_capacity(OPS);
        let mut writes = Vec::with_capacity(OPS);
        let mut failed = 0u64;
        let rule_count = self.rules.len();
        let start = Instant::now();
        for (i, op) in self.scripts[script].iter().enumerate() {
            match *op {
                Op::Read { key } => {
                    let t = Instant::now();
                    let got = if traced {
                        trace::set_op(i as u32);
                        let root = trace::enter(Layer::Bench, "op.read");
                        let got = trace::span(Layer::Jitd, "jitd.get", || j.index().get(key));
                        traced_round(&mut j, rule_count);
                        trace::exit_as(root, None);
                        got
                    } else {
                        let got = j.index().get(key);
                        j.reorganize_round();
                        got
                    };
                    let ns = t.elapsed().as_nanos() as u64;
                    op_ns.push(ns);
                    reads.push(ns);
                    if got != Some(shadow[key as usize]) {
                        failed += 1;
                    }
                }
                Op::Update { key, value } => {
                    let t = Instant::now();
                    if traced {
                        trace::set_op(i as u32);
                        let root = trace::enter(Layer::Bench, "op.write");
                        trace::span(Layer::Jitd, "jitd.execute", || j.execute(op));
                        traced_round(&mut j, rule_count);
                        trace::exit_as(root, None);
                    } else {
                        j.execute(op);
                        j.reorganize_round();
                    }
                    let ns = t.elapsed().as_nanos() as u64;
                    op_ns.push(ns);
                    writes.push(ns);
                    shadow[key as usize] = value;
                }
                _ => unreachable!("YCSB-A issues only reads and updates"),
            }
        }
        let wall_s = start.elapsed().as_secs_f64();

        let find_calls: usize = j.stats.search_ns.iter().map(|s| s.len()).sum();
        let find_hits: u64 = j.stats.rule_matches.iter().sum();
        let depth = tree_depth(j.index().ast());
        let mut pass = Pass {
            script,
            setup_s,
            wall_s,
            op_ns,
            attempted: OPS as u64,
            failed,
            ..Pass::default()
        };
        pass.counts.insert("setup_rewrites", setup_rewrites);
        pass.counts.insert("rewrites", j.stats.steps);
        pass.counts.insert("find_one_calls", find_calls as u64);
        pass.counts.insert("find_one_hits", find_hits);
        pass.counts
            .insert("view_bytes", j.strategy_memory_bytes() as u64);
        pass.counts.insert("tree_depth", depth as u64);
        pass.counts.insert("reads", reads.len() as u64);
        pass.gauges
            .insert("view_mib", j.strategy_memory_bytes() as f64 / MIB);
        pass.lat.insert("read", reads);
        pass.lat.insert("write", writes);
        if traced {
            let spans = trace::take();
            pass.layers = layers(&spans, &pass, setup_rewrites);
            pass.spans = spans;
        }
        pass
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// `Jitd::reorganize_round`, one timed `reorganize_step` per rule.
fn traced_round(j: &mut Jitd, rule_count: usize) {
    for rid in 0..rule_count {
        let idx = trace::enter(Layer::Jitd, "jitd.step");
        let fired = j.reorganize_step(rid).fired;
        trace::exit_as(idx, fired.then_some("jitd.step_fired"));
    }
}

/// Longest root-to-leaf path, by an explicit-stack walk.
fn tree_depth(ast: &Ast) -> usize {
    let mut max = 0;
    let mut stack: Vec<(NodeId, usize)> = vec![(ast.root(), 1)];
    while let Some((n, d)) = stack.pop() {
        max = max.max(d);
        stack.extend(ast.children(n).iter().map(|&c| (c, d + 1)));
    }
    max
}

fn layers(spans: &[trace::Span], pass: &Pass, setup_rewrites: u64) -> BTreeMap<String, f64> {
    let selfs = trace::self_times(spans);
    let us = |v: &[u64], q: f64| pct_or_zero(v, q) / 1e3;
    let reads = trace::durations(spans, "jitd.get");
    let mut finds = trace::durations(spans, "core.find_one");
    let hits = trace::durations(spans, "core.find_one_hit");
    let hit_ratio = hits.len() as f64 / (finds.len() + hits.len()).max(1) as f64;
    finds.extend(hits);
    let maintain = trace::child_sums(
        spans,
        "jitd.step_fired",
        &["core.before_replace", "core.after_replace"],
    );
    let ops = pass.op_ns.len() as f64;
    [
        ("tt_jitd.read_us", us(&reads, 50.0)),
        ("tt_jitd.read_p99_us", us(&reads, 99.0)),
        (
            "tt_jitd.graft_us",
            us(&trace::self_durations(spans, &selfs, "jitd.execute"), 50.0),
        ),
        (
            "tt_jitd.step_us",
            us(
                &trace::self_durations(spans, &selfs, "jitd.step_fired"),
                50.0,
            ),
        ),
        (
            "tt_jitd.rewrites_per_op",
            (pass.counts["rewrites"] - setup_rewrites) as f64 / ops,
        ),
        ("tt_jitd.tree_depth", pass.counts["tree_depth"] as f64),
        ("tt_core.find_hit_ratio", hit_ratio),
        ("tt_core.find_one_ns", pct_or_zero(&finds, 50.0)),
        (
            "tt_core.on_graft_ns",
            pct_or_zero(&trace::durations(spans, "core.on_graft"), 50.0),
        ),
        ("tt_core.maintain_us", us(&maintain, 50.0)),
        ("tt_core.maintain_p99_us", us(&maintain, 99.0)),
        ("tt_core.view_bytes", pass.counts["view_bytes"] as f64),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// Times every strategy call into `treetoaster_core` and forwards it,
/// the defaulted trait methods included, so the traced runtime does
/// exactly the untraced runtime's work.
struct Traced {
    inner: Box<dyn MatchSource>,
}

impl MatchCore for Traced {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn rebuild(&mut self, ast: &Ast) {
        self.inner.rebuild(ast)
    }

    fn find_one(&mut self, ast: &Ast, rule: RuleId) -> Option<NodeId> {
        let idx = trace::enter(Layer::Core, "core.find_one");
        let site = self.inner.find_one(ast, rule);
        trace::exit_as(idx, site.is_some().then_some("core.find_one_hit"));
        site
    }

    fn before_replace(&mut self, ast: &Ast, old_root: NodeId, rule: Option<(RuleId, &Bindings)>) {
        trace::span(Layer::Core, "core.before_replace", || {
            self.inner.before_replace(ast, old_root, rule)
        })
    }

    fn after_replace(&mut self, ast: &Ast, ctx: &ReplaceCtx<'_>) {
        trace::span(Layer::Core, "core.after_replace", || {
            self.inner.after_replace(ast, ctx)
        })
    }

    fn on_graft(&mut self, ast: &Ast, created: &[NodeId]) {
        trace::span(Layer::Core, "core.on_graft", || {
            self.inner.on_graft(ast, created)
        })
    }

    fn check_consistent(&self, ast: &Ast) -> Result<(), String> {
        self.inner.check_consistent(ast)
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn match_heat(&self) -> usize {
        self.inner.match_heat()
    }
}

impl EpochOps for Traced {
    fn begin_batch(&mut self) {
        self.inner.begin_batch()
    }

    fn commit_batch(&mut self) {
        trace::span(Layer::Core, "core.commit_batch", || {
            self.inner.commit_batch()
        })
    }

    fn submit_commit(&mut self) -> bool {
        self.inner.submit_commit()
    }

    fn apply_submitted(&mut self) -> bool {
        self.inner.apply_submitted()
    }

    fn has_submitted(&self) -> bool {
        self.inner.has_submitted()
    }

    fn batch_cancellation(&self) -> Option<(u64, u64)> {
        self.inner.batch_cancellation()
    }
}

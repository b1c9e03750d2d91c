//! Criterion micro-benchmarks for the core operations every figure's
//! numbers are built from: pattern evaluation, view updates, Z-set
//! algebra, per-strategy `find_one`, and one full reorganization
//! step per strategy.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::sync::Arc;
use treetoaster_core::{MatchCore, TreeToasterEngine};
use tt_ast::{NodeId, Record, ZSet};
use tt_jitd::{jitd_schema, paper_rules, Jitd, JitdIndex, RuleConfig, StrategyKind};
use tt_pattern::matches;

fn cracked_index(records: i64, threshold: usize) -> JitdIndex {
    let data: Vec<Record> = (0..records).map(|k| Record::new(k, k)).collect();
    let mut idx = JitdIndex::load(data);
    // Crack it via a one-off naive loop.
    let schema = jitd_schema();
    let rules = Arc::new(paper_rules(
        &schema,
        RuleConfig {
            crack_threshold: threshold,
        },
    ));
    let mut engine = TreeToasterEngine::new(rules.clone());
    engine.rebuild(idx.ast());
    let mut tick = 0;
    while let Some(site) = engine.find_one(idx.ast(), 0) {
        let rule = rules.get(0);
        let bindings = tt_pattern::match_node(idx.ast(), site, &rule.pattern).unwrap();
        engine.before_replace(idx.ast(), site, Some((0, &bindings)));
        let applied = rule.apply(idx.ast_mut(), site, &bindings, tick);
        tick += 1;
        let ctx = treetoaster_core::ReplaceCtx {
            old_root: applied.old_root,
            new_root: applied.new_root,
            removed: &applied.removed,
            inserted: applied.inserted(),
            parent_update: applied.parent_update.as_ref(),
            rule: Some(treetoaster_core::RuleFired {
                rule: 0,
                bindings: &bindings,
                applied: &applied,
            }),
        };
        engine.after_replace(idx.ast(), &ctx);
    }
    idx
}

fn bench_pattern_eval(c: &mut Criterion) {
    let idx = cracked_index(4096, 64);
    let schema = jitd_schema();
    let rules = paper_rules(
        &schema,
        RuleConfig {
            crack_threshold: 64,
        },
    );
    let pattern = &rules.get(1).pattern; // PushDownSingletonBtreeLeft
    let nodes: Vec<NodeId> = idx.ast().descendants(idx.ast().root()).collect();
    c.bench_function("pattern_eval_per_node", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &n in &nodes {
                if matches(idx.ast(), n, pattern) {
                    hits += 1;
                }
            }
            hits
        })
    });
}

fn bench_multiset_ops(c: &mut Criterion) {
    c.bench_function("multiset_union_1k", |b| {
        let a: ZSet = (0..1000).map(|i| (NodeId::from_index(i), 1i64)).collect();
        let d: ZSet = (500..1500)
            .map(|i| (NodeId::from_index(i), -1i64))
            .collect();
        b.iter(|| {
            let mut u = a.clone();
            u += &d;
            u
        })
    });
}

fn bench_view_update(c: &mut Criterion) {
    use treetoaster_core::MatchView;
    c.bench_function("view_add_remove", |b| {
        let mut view = MatchView::new();
        for i in 0..10_000u32 {
            view.add(NodeId::from_index(i), 1);
        }
        let mut i = 0u32;
        b.iter(|| {
            let n = NodeId::from_index(i % 10_000);
            view.add(n, -1);
            view.add(n, 1);
            i = i.wrapping_add(1);
            view.any()
        })
    });
}

fn bench_find_one(c: &mut Criterion) {
    let mut group = c.benchmark_group("find_one_after_insert");
    for kind in StrategyKind::all() {
        group.bench_function(kind.label(), |b| {
            b.iter_batched(
                || {
                    let data: Vec<Record> = (0..2048).map(|k| Record::new(k, k)).collect();
                    let mut jitd = Jitd::new(
                        kind,
                        RuleConfig {
                            crack_threshold: 64,
                        },
                        data,
                    );
                    jitd.reorganize_until_quiet(u64::MAX);
                    jitd.execute(&tt_ycsb::Op::Insert {
                        key: 5000,
                        value: 1,
                    });
                    jitd
                },
                // One search for a push-down candidate: the quantity
                // Figure 9 plots.
                |mut jitd| {
                    let fired = jitd.reorganize_step(1).fired || jitd.reorganize_step(2).fired;
                    criterion::black_box(fired)
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_maintenance(c: &mut Criterion) {
    // One write (graft) + the push-down rewrites it enables: the
    // maintenance work Figure 12 reports, per strategy.
    let mut group = c.benchmark_group("maintenance_per_write");
    for kind in StrategyKind::ivm_set() {
        group.bench_function(kind.label(), |b| {
            b.iter_batched(
                || {
                    let data: Vec<Record> = (0..2048).map(|k| Record::new(k, k)).collect();
                    let mut jitd = Jitd::new(
                        kind,
                        RuleConfig {
                            crack_threshold: 64,
                        },
                        data,
                    );
                    jitd.reorganize_until_quiet(u64::MAX);
                    jitd
                },
                |mut jitd| {
                    jitd.execute(&tt_ycsb::Op::Update { key: 777, value: 1 });
                    jitd.reorganize_until_quiet(64);
                    criterion::black_box(jitd.stats.steps)
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_secs(1));
    targets = bench_pattern_eval, bench_multiset_ops, bench_view_update, bench_find_one, bench_maintenance
}
criterion_main!(benches);

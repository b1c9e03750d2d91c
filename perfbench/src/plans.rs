//! `optimize_plans`: the compiler use — Catalyst-style fixpoint
//! optimization with TreeToaster views over a seeded plan stream.

use crate::harness::{pct_or_zero, Pass, SplitMix, Workload};
use crate::trace::{self, Layer};
use std::collections::BTreeMap;
use std::time::Instant;
use treetoaster_core::{MatchCore, ReplaceCtx, RuleFired, TreeToasterEngine};
use tt_ast::Ast;
use tt_pattern::match_node;
use tt_queryopt::rules::catalyst_ruleset;
use tt_queryopt::{antipattern, optimize, tpch, SearchMode};

/// Plans per pass.
const PLANS: usize = 1_000;
/// Expanded `union_doubling` plans among them (2.5 %).
const EXPANDED: usize = 25;
/// Level of the expanded plans (2 729 nodes).
const EXPANDED_LEVEL: usize = 5;
/// `optimize`'s iteration cap.
const MAX_ITERATIONS: usize = 60;

/// One plan of the stream: a TPC-H query with its bait seed, or an
/// expanded plan.
#[derive(Clone, Copy)]
enum PlanSpec {
    Tpch { q: usize, bait: u64 },
    Expanded,
}

impl PlanSpec {
    fn build(self) -> Ast {
        match self {
            PlanSpec::Tpch { q, bait } => tpch::build_query(q, bait),
            PlanSpec::Expanded => antipattern::union_doubling(EXPANDED_LEVEL),
        }
    }
}

pub struct OptimizePlans {
    stream: Vec<PlanSpec>,
    /// `structural_hash` of each plan optimized by `SearchMode::NaiveScan`.
    reference: Vec<u64>,
    /// Largest TreeToaster view footprint over the stream's plans.
    view_bytes: usize,
    /// Per plan: (hash, rewrites) from the untraced `optimize`, which the
    /// traced mirror must reproduce.
    untraced: Option<Vec<(u64, u64)>>,
}

impl OptimizePlans {
    pub fn new(seed: u64) -> OptimizePlans {
        let mut rng = SplitMix(seed);
        let mut stream: Vec<PlanSpec> = (0..PLANS)
            .map(|_| PlanSpec::Tpch {
                q: 1 + rng.below(22) as usize,
                bait: rng.next_u64(),
            })
            .collect();
        let mut placed = 0;
        while placed < EXPANDED {
            let at = rng.below(PLANS as u64) as usize;
            if let PlanSpec::Tpch { .. } = stream[at] {
                stream[at] = PlanSpec::Expanded;
                placed += 1;
            }
        }
        // The reference answers and view footprints, computed once and
        // outside every timed phase; all expanded plans share one.
        let expanded = reference(PlanSpec::Expanded);
        let (reference, views): (Vec<u64>, Vec<usize>) = stream
            .iter()
            .map(|&s| match s {
                PlanSpec::Expanded => expanded,
                tpch => reference(tpch),
            })
            .unzip();
        OptimizePlans {
            stream,
            reference,
            view_bytes: views.into_iter().max().unwrap_or(0),
            untraced: None,
        }
    }
}

/// The plan's `structural_hash` after `SearchMode::NaiveScan`, and the
/// bytes of its TreeToaster views right after the initial rebuild.
fn reference(spec: PlanSpec) -> (u64, usize) {
    let ast = spec.build();
    let mut engine = TreeToasterEngine::new(catalyst_ruleset(ast.schema()));
    engine.rebuild(&ast);
    let mut naive = ast;
    optimize(&mut naive, SearchMode::NaiveScan, MAX_ITERATIONS);
    (naive.structural_hash(naive.root()), engine.memory_bytes())
}

impl Workload for OptimizePlans {
    fn headline(&self) -> &'static str {
        "plan"
    }

    fn deterministic(&self) -> bool {
        true
    }

    fn pass(&mut self, script: usize, traced: bool) -> Pass {
        let t0 = Instant::now();
        let mut plans: Vec<Ast> = if traced {
            self.stream
                .iter()
                .map(|&s| trace::span(Layer::Ast, "ast.build", || s.build()))
                .collect()
        } else {
            self.stream.iter().map(|&s| s.build()).collect()
        };
        let setup_s = t0.elapsed().as_secs_f64();
        let build_spans = trace::take();

        let mut lat = Vec::with_capacity(PLANS);
        let mut results = Vec::with_capacity(PLANS);
        let mut mirror = MirrorStats::default();
        let start = Instant::now();
        for (i, ast) in plans.iter_mut().enumerate() {
            let t = Instant::now();
            let (rewrites, iterations, final_size) = if traced {
                trace::set_op(i as u32);
                mirror_optimize(ast, &mut mirror)
            } else {
                let bd = optimize(ast, SearchMode::TreeToasterViews, MAX_ITERATIONS);
                (bd.effective_count, bd.iterations, bd.final_size)
            };
            lat.push(t.elapsed().as_nanos() as u64);
            results.push((rewrites, iterations, final_size));
        }
        let wall_s = start.elapsed().as_secs_f64();

        let mut failed = 0u64;
        let mut outcome = Vec::with_capacity(PLANS);
        for ((ast, want), &(rewrites, _, _)) in plans.iter().zip(&self.reference).zip(&results) {
            let hash = ast.structural_hash(ast.root());
            if hash != *want {
                failed += 1;
            }
            outcome.push((hash, rewrites));
        }
        match (&self.untraced, traced) {
            (None, false) => self.untraced = Some(outcome),
            (Some(expect), true) => assert!(
                *expect == outcome,
                "the traced mirror must end on optimize's plans and rewrite counts"
            ),
            _ => {}
        }

        let mut pass = Pass {
            script,
            setup_s,
            wall_s,
            op_ns: lat.clone(),
            attempted: PLANS as u64,
            failed,
            ..Pass::default()
        };
        let sum = |f: fn(&(u64, u64, usize)) -> u64| results.iter().map(f).sum::<u64>();
        pass.counts.insert("rewrites", sum(|r| r.0));
        pass.counts.insert("iterations", sum(|r| r.1));
        pass.counts.insert("plan_nodes_out", sum(|r| r.2 as u64));
        pass.gauges
            .insert("plan_nodes_out", sum(|r| r.2 as u64) as f64);
        pass.gauges
            .insert("view_mib", self.view_bytes as f64 / (1024.0 * 1024.0));
        pass.lat.insert("plan", lat);
        if traced {
            pass.counts.insert("find_one_calls", mirror.find_calls);
            pass.counts.insert("find_one_hits", mirror.find_hits);
            pass.counts.insert("view_bytes", mirror.peak_view_bytes);
            let spans = trace::take();
            pass.layers = layers(&spans, &build_spans, &pass, &mirror);
            pass.spans = spans;
        }
        pass
    }
}

#[derive(Default)]
struct MirrorStats {
    find_calls: u64,
    find_hits: u64,
    /// Largest view footprint right after a plan's rebuild.
    peak_view_bytes: u64,
}

/// `catalyst::optimize(.., SearchMode::TreeToasterViews, ..)`, rebuilt
/// from the same public calls with a span around each. Returns
/// (rewrites, iterations, final plan size).
fn mirror_optimize(ast: &mut Ast, stats: &mut MirrorStats) -> (u64, u64, usize) {
    let root = trace::enter(Layer::QueryOpt, "queryopt.optimize");
    let schema = ast.schema().clone();
    let rules = trace::span(Layer::Pattern, "pattern.compile", || {
        catalyst_ruleset(&schema)
    });
    std::hint::black_box(ast.subtree_size(ast.root()));
    let mut engine = trace::span(Layer::Core, "core.rebuild", || {
        let mut engine = TreeToasterEngine::new(rules.clone());
        engine.rebuild(ast);
        engine
    });
    stats.peak_view_bytes = stats.peak_view_bytes.max(engine.memory_bytes() as u64);

    let mut tick = 0u64;
    let mut rewrites = 0u64;
    let mut iterations = 0u64;
    for _ in 0..MAX_ITERATIONS {
        iterations += 1;
        let mut changed = false;
        for (rid, rule) in rules.iter() {
            loop {
                stats.find_calls += 1;
                let site = trace::span(Layer::Core, "core.find_one", || engine.find_one(ast, rid));
                let Some(site) = site else { break };
                stats.find_hits += 1;
                let rw = trace::enter(Layer::QueryOpt, "queryopt.rewrite");
                let bindings = trace::span(Layer::Pattern, "pattern.match_node", || {
                    match_node(ast, site, &rule.pattern).expect("view returned a stale match")
                });
                trace::span(Layer::Core, "core.before_replace", || {
                    engine.before_replace(ast, site, Some((rid, &bindings)))
                });
                let applied = trace::span(Layer::Ast, "ast.apply", || {
                    rule.apply(ast, site, &bindings, tick)
                });
                tick += 1;
                rewrites += 1;
                let ctx = ReplaceCtx {
                    old_root: applied.old_root,
                    new_root: applied.new_root,
                    removed: &applied.removed,
                    inserted: applied.inserted(),
                    parent_update: applied.parent_update.as_ref(),
                    rule: Some(RuleFired {
                        rule: rid,
                        bindings: &bindings,
                        applied: &applied,
                    }),
                };
                trace::span(Layer::Core, "core.after_replace", || {
                    engine.after_replace(ast, &ctx)
                });
                trace::exit_as(rw, None);
                changed = true;
            }
        }
        let quiescent = trace::span(Layer::QueryOpt, "queryopt.fixpoint", || {
            (0..rules.len()).all(|rid| engine.view(rid).is_empty())
        });
        if quiescent || !changed {
            break;
        }
    }
    let final_size = ast.subtree_size(ast.root());
    trace::exit_as(root, None);
    (rewrites, iterations, final_size)
}

fn layers(
    spans: &[trace::Span],
    build_spans: &[trace::Span],
    pass: &Pass,
    mirror: &MirrorStats,
) -> BTreeMap<String, f64> {
    let selfs = trace::self_times(spans);
    let us = |v: &[u64], q: f64| pct_or_zero(v, q) / 1e3;
    let p50_us = |name: &str| us(&trace::durations(spans, name), 50.0);
    let maintain = trace::child_sums(
        spans,
        "queryopt.rewrite",
        &["core.before_replace", "core.after_replace"],
    );
    let plans = pass.op_ns.len() as f64;
    [
        ("tt_pattern.compile_us", p50_us("pattern.compile")),
        ("tt_pattern.match_node_us", p50_us("pattern.match_node")),
        ("tt_core.rebuild_us", p50_us("core.rebuild")),
        (
            "tt_core.find_one_ns",
            pct_or_zero(&trace::durations(spans, "core.find_one"), 50.0),
        ),
        (
            "tt_core.find_hit_ratio",
            mirror.find_hits as f64 / mirror.find_calls.max(1) as f64,
        ),
        ("tt_core.maintain_us", us(&maintain, 50.0)),
        ("tt_core.maintain_p99_us", us(&maintain, 99.0)),
        ("tt_core.view_bytes", mirror.peak_view_bytes as f64),
        (
            "tt_ast.build_us",
            us(&trace::durations(build_spans, "ast.build"), 50.0),
        ),
        ("tt_ast.apply_us", p50_us("ast.apply")),
        ("tt_queryopt.fixpoint_us", p50_us("queryopt.fixpoint")),
        (
            "tt_queryopt.optimize_self_us",
            us(
                &trace::self_durations(spans, &selfs, "queryopt.optimize"),
                50.0,
            ),
        ),
        (
            "tt_queryopt.rewrites_per_plan",
            pass.counts["rewrites"] as f64 / plans,
        ),
        (
            "tt_queryopt.iterations_per_plan",
            pass.counts["iterations"] as f64 / plans,
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

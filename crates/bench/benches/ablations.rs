//! Ablations beyond the paper's headline figures (docs/benching.md,
//! "Where time is measured", says how each is timed):
//!
//! 1. **Inlining (§6.1)** — TreeToaster with the Algorithm-3 inlined
//!    plans vs. the Definition-6 maximal-search-set path only.
//! 2. **Catalyst + TreeToaster** — what IVM buys a query optimizer: the
//!    Figure-1 breakdown under naive scanning vs. TreeToaster views.
//! 3. **View structure** — the O(1) swap-remove view against an ordered
//!    BTree view (§4's "arbitrary element as fast as possible" design
//!    point).
//! 4. **Ancestor depth** — generic maintenance cost as pattern depth
//!    `D(q)` grows (the Definition-6 search set widens with depth).

use std::sync::Arc;
use treetoaster_core::engine::MaintenanceMode;
use treetoaster_core::{MatchCore, ReplaceCtx, RuleFired, TreeToasterEngine};
use tt_ast::Record;
use tt_bench::{env_u64, ExperimentConfig};
use tt_jitd::{jitd_schema, paper_rules, JitdIndex, RuleConfig};
use tt_metrics::{now_ns, Csv, Table};
use tt_pattern::match_node;
use tt_queryopt::catalyst::{optimize_timed, SearchMode};
use tt_queryopt::tpch;

/// Runs a cracking session with a TreeToaster engine in the given mode,
/// returning (total maintenance ns, rewrites applied).
fn run_tt_mode(mode: MaintenanceMode, records: u64, threshold: usize) -> (u64, u64) {
    let schema = jitd_schema();
    let rules = Arc::new(paper_rules(
        &schema,
        RuleConfig {
            crack_threshold: threshold,
        },
    ));
    let data: Vec<Record> = (0..records as i64).map(|k| Record::new(k, k)).collect();
    let mut index = JitdIndex::load(data);
    let mut engine = TreeToasterEngine::with_mode(rules.clone(), mode);
    engine.rebuild(index.ast());
    let mut maintain_ns = 0u64;
    let mut applied = 0u64;
    let mut tick = 0u64;
    let mut rounds = 0u32;
    // Crack to quiescence, then a write burst with push-downs.
    loop {
        rounds += 1;
        let mut fired = false;
        for (rid, rule) in rules.iter() {
            while let Some(site) = engine.find_one(index.ast(), rid) {
                let bindings = match_node(index.ast(), site, &rule.pattern).unwrap();
                let m0 = now_ns();
                engine.before_replace(index.ast(), site, Some((rid, &bindings)));
                maintain_ns += now_ns() - m0;
                let result = rule.apply(index.ast_mut(), site, &bindings, tick);
                tick += 1;
                let ctx = ReplaceCtx {
                    old_root: result.old_root,
                    new_root: result.new_root,
                    removed: &result.removed,
                    inserted: result.inserted(),
                    parent_update: result.parent_update.as_ref(),
                    rule: Some(RuleFired {
                        rule: rid,
                        bindings: &bindings,
                        applied: &result,
                    }),
                };
                let m1 = now_ns();
                engine.after_replace(index.ast(), &ctx);
                maintain_ns += now_ns() - m1;
                applied += 1;
                fired = true;
            }
        }
        if !fired && rounds > 50 {
            break;
        }
        // Write bursts for the first 50 rounds keep push-downs flowing.
        if rounds <= 50 {
            for i in 0..32 {
                let created = index.wrap_insert(records as i64 + applied as i64 * 37 + i, i);
                let m0 = now_ns();
                engine.on_graft(index.ast(), &created);
                maintain_ns += now_ns() - m0;
            }
        }
        if applied > 200_000 {
            break;
        }
    }
    (maintain_ns, applied)
}

fn main() {
    let cfg = ExperimentConfig::from_env();
    println!("Ablation 1 — TreeToaster maintenance: inlined (Alg. 3) vs. maximal search set\n");
    let mut table = Table::new(["mode", "maintenance_ms", "rewrites", "ns_per_rewrite"]);
    let mut csv = Csv::new(["mode", "maintain_ns", "rewrites"]);
    for (name, mode) in [
        ("inlined", MaintenanceMode::Inlined),
        ("generic", MaintenanceMode::Generic),
    ] {
        let (ns_total, applied) = run_tt_mode(mode, cfg.records, cfg.crack_threshold);
        table.row([
            name.to_string(),
            format!("{:.2}", ns_total as f64 / 1e6),
            applied.to_string(),
            format!("{:.0}", ns_total as f64 / applied.max(1) as f64),
        ]);
        csv.row([name.to_string(), ns_total.to_string(), applied.to_string()]);
    }
    table.print();
    let _ = csv.write_to_figures_dir("ablation_inlining");

    println!("\nAblation 2 — Catalyst breakdown: naive scan vs. TreeToaster views (TPC-H mix)\n");
    let mut table = Table::new([
        "mode",
        "search_ms",
        "ineffective_ms",
        "effective_ms",
        "fixpoint_ms",
        "maintain_ms",
        "total_ms",
    ]);
    let mut csv = Csv::new([
        "mode",
        "search_ns",
        "ineffective_ns",
        "effective_ns",
        "fixpoint_ns",
        "maintain_ns",
    ]);
    let reps = env_u64("TT_FIG1_REPS", 3);
    for (name, mode) in [
        ("naive", SearchMode::NaiveScan),
        ("treetoaster", SearchMode::TreeToasterViews),
    ] {
        let (mut s, mut i, mut e, mut f, mut m) = (0u64, 0u64, 0u64, 0u64, 0u64);
        for q in 1..=22 {
            for rep in 0..reps {
                let mut ast = tpch::build_query(q, cfg.seed + rep);
                let bd = optimize_timed(&mut ast, mode, 100);
                s += bd.search_ns;
                i += bd.ineffective_ns;
                e += bd.effective_ns;
                f += bd.fixpoint_ns;
                m += bd.maintain_ns;
            }
        }
        let ms = |x: u64| format!("{:.2}", x as f64 / 1e6);
        table.row([
            name.to_string(),
            ms(s),
            ms(i),
            ms(e),
            ms(f),
            ms(m),
            ms(s + i + e + f + m),
        ]);
        csv.row([
            name.to_string(),
            s.to_string(),
            i.to_string(),
            e.to_string(),
            f.to_string(),
            m.to_string(),
        ]);
    }
    table.print();
    match csv.write_to_figures_dir("ablation_catalyst_tt") {
        Ok(path) => println!("\nCSVs written next to {}", path.display()),
        Err(e) => eprintln!("CSV write failed: {e}"),
    }

    ablation_view_structure();
    ablation_ancestor_depth(cfg.records.min(8192));
}

/// Ablation 3: 100k membership churn + pops against both view layouts.
fn ablation_view_structure() {
    use treetoaster_core::{MatchView, OrderedMatchView};
    use tt_ast::NodeId;
    println!("\nAblation 3 — view structure: swap-remove (O(1)) vs. BTree-ordered (O(log n))\n");
    let churn = 200_000u32;
    let mut table = Table::new(["structure", "churn_ops", "total_ms", "ns_per_op"]);
    {
        let mut view = MatchView::new();
        let t0 = now_ns();
        for i in 0..churn {
            view.add(NodeId::from_index(i % 4096), 1);
            let _ = view.any();
            view.add(NodeId::from_index(i % 4096), -1);
        }
        let dt = now_ns() - t0;
        table.row([
            "swap-remove".to_string(),
            churn.to_string(),
            format!("{:.2}", dt as f64 / 1e6),
            format!("{:.1}", dt as f64 / churn as f64),
        ]);
    }
    {
        let mut view = OrderedMatchView::new();
        let t0 = now_ns();
        for i in 0..churn {
            view.add(NodeId::from_index(i % 4096), 1);
            let _ = view.any();
            view.add(NodeId::from_index(i % 4096), -1);
        }
        let dt = now_ns() - t0;
        table.row([
            "btree-ordered".to_string(),
            churn.to_string(),
            format!("{:.2}", dt as f64 / 1e6),
            format!("{:.1}", dt as f64 / churn as f64),
        ]);
    }
    table.print();
}

/// Ablation 4: generic-path maintenance cost vs. pattern depth. A family
/// of chain patterns `DeleteSingleton(DeleteSingleton(…(Any)))` of depth
/// 1..=5 is registered as views while tombstone chains are built and
/// collapsed; deeper patterns force wider Definition-6 search sets.
fn ablation_ancestor_depth(records: u64) {
    use treetoaster_core::generator::{acopy, gen, reuse};
    use treetoaster_core::{RewriteRule, RuleSet, TreeToasterEngine};
    use tt_ast::Record;
    use tt_jitd::JitdIndex;
    use tt_pattern::dsl as p;
    use tt_pattern::{match_node, Pattern};

    println!("\nAblation 4 — maintenance cost vs. pattern depth D(q) (generic path)\n");
    let mut table = Table::new(["depth", "maintain_ms", "rewrites", "ns_per_rewrite"]);
    for depth in 1..=5usize {
        let schema = tt_jitd::jitd_schema();
        // A depth-`depth` chain of DeleteSingleton wrappers; the rewrite
        // collapses the outermost pair into one (dedupe-style), so the
        // chain shrinks and the run terminates.
        let mut spec = p::any_as("x");
        for level in 0..depth {
            spec = p::node("DeleteSingleton", &format!("d{level}"), [spec], p::tru());
        }
        let pattern = Pattern::compile(&schema, spec);
        assert_eq!(pattern.depth(), depth);
        // Collapse: keep the innermost wrapper only.
        let innermost = format!("d{}", 0);
        let generator = if depth == 1 {
            reuse("x")
        } else {
            gen(
                "DeleteSingleton",
                [("key", acopy(&innermost, "key"))],
                [reuse("x")],
            )
        };
        let rule = RewriteRule::new("CollapseTombstones", &schema, pattern, generator);
        let rules = Arc::new(RuleSet::from_rules(vec![rule]));
        // Force the generic path: the rule drops tombstone wrappers whose
        // keys differ, which is fine for this cost measurement.
        let mut engine = TreeToasterEngine::with_mode(rules.clone(), MaintenanceMode::Generic);

        let data: Vec<Record> = (0..records as i64).map(|k| Record::new(k, k)).collect();
        let mut index = JitdIndex::load(data);
        // Stack tombstone chains.
        for k in 0..200 {
            for _ in 0..=depth {
                index.wrap_delete(k);
            }
        }
        engine.rebuild(index.ast());
        let mut maintain_ns = 0u64;
        let mut applied = 0u64;
        let mut tick = 0u64;
        while let Some(site) = engine.find_one(index.ast(), 0) {
            let rule = rules.get(0);
            let bindings = match_node(index.ast(), site, &rule.pattern).unwrap();
            let m0 = now_ns();
            engine.before_replace(index.ast(), site, Some((0, &bindings)));
            maintain_ns += now_ns() - m0;
            let result = rule.apply(index.ast_mut(), site, &bindings, tick);
            tick += 1;
            let ctx = ReplaceCtx {
                old_root: result.old_root,
                new_root: result.new_root,
                removed: &result.removed,
                inserted: result.inserted(),
                parent_update: result.parent_update.as_ref(),
                rule: Some(RuleFired {
                    rule: 0,
                    bindings: &bindings,
                    applied: &result,
                }),
            };
            let m1 = now_ns();
            engine.after_replace(index.ast(), &ctx);
            maintain_ns += now_ns() - m1;
            applied += 1;
            if applied > 100_000 {
                break;
            }
        }
        table.row([
            depth.to_string(),
            format!("{:.2}", maintain_ns as f64 / 1e6),
            applied.to_string(),
            format!("{:.0}", maintain_ns as f64 / applied.max(1) as f64),
        ]);
    }
    table.print();
    println!("\nDeeper patterns re-check more ancestors per rewrite (Definition 6), so the");
    println!("per-rewrite maintenance cost grows with D(q).");
}

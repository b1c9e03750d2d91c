//! Figure 1: time breakdown of the Catalyst-style optimizer on the 22
//! TPC-H-shaped queries — Search / Ineffective Rewrites / Effective
//! Rewrites / Fixpoint Loop per query, plus the aggregate share of time
//! spent searching (the paper reports 33–45%).

use tt_bench::env_u64;
use tt_metrics::{Csv, Table};
use tt_queryopt::catalyst::{optimize_timed, SearchMode};
use tt_queryopt::tpch;

fn main() {
    let seed = env_u64("TT_SEED", 42);
    let reps = env_u64("TT_FIG1_REPS", 3);
    println!("Figure 1 — Catalyst-style optimizer time breakdown on TPC-H-shaped queries");
    println!("(seed={seed}, best of {reps} reps; times in microseconds)\n");

    let mut table = Table::new([
        "query",
        "search_us",
        "ineffective_us",
        "effective_us",
        "fixpoint_us",
        "total_us",
        "search_%",
    ]);
    let mut csv = Csv::new([
        "query",
        "search_ns",
        "ineffective_ns",
        "effective_ns",
        "fixpoint_ns",
        "total_ns",
        "search_fraction",
    ]);
    let (mut sum_search, mut sum_total) = (0u64, 0u64);
    for q in 1..=22 {
        // Best-of-N on total time damps descheduling spikes (a single
        // stalled rep otherwise dominates the sum-based aggregate).
        let mut best: Option<(u64, u64, u64, u64)> = None;
        for _rep in 0..reps {
            let mut ast = tpch::build_query(q, seed);
            let bd = optimize_timed(&mut ast, SearchMode::NaiveScan, 100);
            let cand = (
                bd.search_ns,
                bd.ineffective_ns,
                bd.effective_ns,
                bd.fixpoint_ns,
            );
            let total = |x: &(u64, u64, u64, u64)| x.0 + x.1 + x.2 + x.3;
            if best.is_none_or(|b| total(&cand) < total(&b)) {
                best = Some(cand);
            }
        }
        let (s, i, e, f) = best.expect("at least one rep");
        let total = s + i + e + f;
        sum_search += s;
        sum_total += total;
        table.row([
            format!("Q{q}"),
            format!("{:.1}", s as f64 / 1e3),
            format!("{:.1}", i as f64 / 1e3),
            format!("{:.1}", e as f64 / 1e3),
            format!("{:.1}", f as f64 / 1e3),
            format!("{:.1}", total as f64 / 1e3),
            format!("{:.0}%", 100.0 * s as f64 / total.max(1) as f64),
        ]);
        csv.row([
            format!("{q}"),
            s.to_string(),
            i.to_string(),
            e.to_string(),
            f.to_string(),
            total.to_string(),
            format!("{:.4}", s as f64 / total.max(1) as f64),
        ]);
    }
    table.print();
    println!(
        "\nAggregate search share: {:.0}% (paper: 33-45% of optimizer time in search)",
        100.0 * sum_search as f64 / sum_total.max(1) as f64
    );
    match csv.write_to_figures_dir("fig01_catalyst_breakdown") {
        Ok(path) => println!("CSV written to {}", path.display()),
        Err(e) => eprintln!("CSV write failed: {e}"),
    }
}

//! Figure 14: Catalyst-style rewrite and search times vs. AST size on
//! the UNION-ALL-doubling antipattern (paper Appendix A).
//!
//! (a) total optimization time and total search time grow with AST size;
//! (b) the percentage of time in search stays high (paper: 50–60%,
//! asymptoting near 50% as the AST grows).

use tt_bench::env_u64;
use tt_metrics::{Csv, Table};
use tt_queryopt::antipattern::{expected_size, union_doubling};
use tt_queryopt::catalyst::{optimize_timed, SearchMode};

fn main() {
    let max_level = env_u64("TT_ANTIPATTERN_MAX", 6) as usize;
    println!("Figure 14 — Catalyst-style optimizer on the UNION-doubling antipattern");
    println!("(levels 1..={max_level}; sizes grow ~4x per level)\n");

    let mut table = Table::new([
        "level",
        "ast_size",
        "log10_size",
        "total_ms",
        "search_ms",
        "search_%",
    ]);
    let mut csv = Csv::new([
        "level",
        "ast_size",
        "total_ns",
        "search_ns",
        "effective_ns",
        "ineffective_ns",
        "fixpoint_ns",
        "search_fraction",
    ]);
    // Warm-up pass so the first measured level doesn't absorb first-touch
    // costs (allocator growth, instruction cache).
    {
        let mut warm = union_doubling(2);
        let _ = optimize_timed(&mut warm, SearchMode::NaiveScan, 60);
    }
    let reps = env_u64("TT_SCALING_REPS", 3);
    for level in 1..=max_level {
        // Best-of-N damps scheduler noise on the larger levels.
        let mut best: Option<tt_queryopt::catalyst::Breakdown> = None;
        let mut size = 0;
        for _ in 0..reps {
            let mut ast = union_doubling(level);
            size = ast.subtree_size(ast.root());
            assert_eq!(size, expected_size(level));
            let candidate = optimize_timed(&mut ast, SearchMode::NaiveScan, 60);
            if best.is_none_or(|b| candidate.total_ns() < b.total_ns()) {
                best = Some(candidate);
            }
        }
        let bd = best.expect("at least one rep");
        table.row([
            level.to_string(),
            size.to_string(),
            format!("{:.2}", (size as f64).log10()),
            format!("{:.2}", bd.total_ns() as f64 / 1e6),
            format!("{:.2}", bd.search_ns as f64 / 1e6),
            format!("{:.0}%", 100.0 * bd.search_fraction()),
        ]);
        csv.row([
            level.to_string(),
            size.to_string(),
            bd.total_ns().to_string(),
            bd.search_ns.to_string(),
            bd.effective_ns.to_string(),
            bd.ineffective_ns.to_string(),
            bd.fixpoint_ns.to_string(),
            format!("{:.4}", bd.search_fraction()),
        ]);
    }
    table.print();
    println!("\nPaper: search takes 50-60% at small sizes, dropping toward ~50% asymptotically,");
    println!("while absolute search time continues scaling linearly with the AST.");
    match csv.write_to_figures_dir("fig14_spark_scaling") {
        Ok(path) => println!("CSV written to {}", path.display()),
        Err(e) => eprintln!("CSV write failed: {e}"),
    }
}

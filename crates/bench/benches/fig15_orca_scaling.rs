//! Figure 15: Orca-style rewrite and search times vs. AST size on the
//! UNION-ALL-doubling antipattern.
//!
//! Orca's task-queue scheduling and promise-before-build discipline keep
//! its search *share* far lower than Catalyst's (paper: 5–20%, dropping
//! toward ~5%), though absolute search time still scales with the AST.

use tt_bench::env_u64;
use tt_metrics::{Csv, Table};
use tt_queryopt::antipattern::union_doubling;
use tt_queryopt::orca::optimize_orca_timed;

fn main() {
    let max_level = env_u64("TT_ORCA_MAX", 5) as usize;
    println!("Figure 15 — Orca-style optimizer on the UNION-doubling antipattern");
    println!("(levels 1..={max_level})\n");

    let mut table = Table::new([
        "level",
        "ast_size",
        "log10_size",
        "total_ms",
        "search_ms",
        "search_%",
        "tasks",
    ]);
    let mut csv = Csv::new([
        "level",
        "ast_size",
        "total_ns",
        "search_ns",
        "effective_ns",
        "memo_ns",
        "search_fraction",
        "tasks",
    ]);
    {
        let mut warm = union_doubling(2);
        let _ = optimize_orca_timed(&mut warm, u64::MAX);
    }
    let reps = env_u64("TT_SCALING_REPS", 3);
    for level in 1..=max_level {
        let mut best: Option<tt_queryopt::orca::OrcaBreakdown> = None;
        let mut size = 0;
        for _ in 0..reps {
            let mut ast = union_doubling(level);
            size = ast.subtree_size(ast.root());
            let candidate = optimize_orca_timed(&mut ast, u64::MAX);
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
            bd.tasks.to_string(),
        ]);
        csv.row([
            level.to_string(),
            size.to_string(),
            bd.total_ns().to_string(),
            bd.search_ns.to_string(),
            bd.effective_ns.to_string(),
            bd.memo_ns.to_string(),
            format!("{:.4}", bd.search_fraction()),
            bd.tasks.to_string(),
        ]);
    }
    table.print();
    println!("\nPaper: Orca spends 5-20% of its time in search, dropping toward ~5%");
    println!("as the AST grows — lower than Catalyst, but still scaling with size.");
    match csv.write_to_figures_dir("fig15_orca_scaling") {
        Ok(path) => println!("CSV written to {}", path.display()),
        Err(e) => eprintln!("CSV write failed: {e}"),
    }
}

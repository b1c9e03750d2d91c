//! `tt-bench-check` — CI gate for `BENCH_*.json` trajectories.
//!
//! Two modes:
//!
//! ```text
//! tt-bench-check [FILE]
//! tt-bench-check --compare OLD NEW [--threshold 0.15] [--sync-only]
//! ```
//!
//! The first parses one file, verifies the schema (version, required
//! fields, finite positive latencies), and enforces the coverage
//! contract: all five strategies and the acceptance batch sizes
//! {1, 8, 64}. The second additionally pairs every baseline cell with
//! the candidate's and fails if any cell's ns/op regressed beyond the
//! threshold (default 15%), or if the candidate lost coverage the
//! baseline had. `--sync-only` still requires every baseline cell to
//! exist in the candidate but applies the ratio threshold only to
//! fully synchronous cells (`scheduler` *and* `commit` both `"sync"`):
//! the threaded scheduler cells' wall time scales with core count and
//! thread oversubscription, and the async-commit cells' with the
//! committer thread's scheduling, so cross-machine ratios on them
//! measure the machine, not the code (each report's *internal*
//! stealing and commit gates still cover them, same-machine). Exits
//! non-zero with a diagnostic on any violation, so the CI job fails
//! instead of archiving a malformed (or slower) artifact.

use std::process::ExitCode;
use tt_bench::report::{
    compare_reports, validate_report, BENCH_FILE, DEFAULT_REGRESSION_THRESHOLD,
};

fn usage() -> ! {
    eprintln!(
        "usage: tt-bench-check [FILE]\n       \
         tt-bench-check --compare OLD NEW [--threshold {DEFAULT_REGRESSION_THRESHOLD}] \
         [--sync-only]"
    );
    std::process::exit(2);
}

fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("tt-bench-check: cannot read {path}: {e}");
        ExitCode::FAILURE
    })
}

fn validate_one(path: &str) -> ExitCode {
    let text = match read(path) {
        Ok(text) => text,
        Err(code) => return code,
    };
    match validate_report(&text) {
        Ok(summary) => {
            println!(
                "tt-bench-check: {path} OK — {} results, strategies {:?}, \
                 workloads {:?}, batch sizes {:?}, tree counts {:?}, schedulers {:?}, \
                 commit modes {:?}, service sessions {:?}",
                summary.results,
                summary.strategies,
                summary.workloads,
                summary.batch_sizes,
                summary.tree_counts,
                summary.schedulers,
                summary.commits,
                summary.session_counts
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tt-bench-check: {path} INVALID — {e}");
            ExitCode::FAILURE
        }
    }
}

fn compare(old_path: &str, new_path: &str, threshold: f64, sync_only: bool) -> ExitCode {
    let (old_text, new_text) = match (read(old_path), read(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let mut cmp = match compare_reports(&old_text, &new_text, threshold) {
        Ok(cmp) => cmp,
        Err(e) => {
            eprintln!("tt-bench-check: compare failed — {e}");
            return ExitCode::FAILURE;
        }
    };
    if sync_only {
        // Coverage was already enforced over every cell by
        // compare_reports; only the ratio gate narrows to sync cells.
        let before = cmp.cells.len();
        cmp.cells
            .retain(|c| c.scheduler == "sync" && c.commit == "sync");
        eprintln!(
            "tt-bench-check: --sync-only gating {} of {before} cells \
             (threaded scheduler and async-commit cells excluded from \
             the ratio gate)",
            cmp.cells.len()
        );
    }
    let mut improved = 0usize;
    let mut worst: f64 = 0.0;
    for cell in &cmp.cells {
        if cell.ratio() < 1.0 {
            improved += 1;
        }
        worst = worst.max(cell.ratio());
        let mut deploy = if cell.scheduler == "sync" {
            String::new()
        } else {
            format!("{}:{}", cell.scheduler, cell.workers)
        };
        if cell.commit == "async" {
            deploy.push_str("+async");
        }
        if cell.mode == "service" {
            deploy = format!("svc:{}", cell.sessions);
        }
        println!(
            "  {}/{} K={:<4} T={:<3} {:>9} {:>10.0} → {:>10.0} ns/op  ({:+.1}%)",
            cell.workload,
            cell.strategy,
            cell.batch_size,
            cell.trees,
            deploy,
            cell.old_ns,
            cell.new_ns,
            (cell.ratio() - 1.0) * 100.0
        );
    }
    if cmp.passed() {
        println!(
            "tt-bench-check: {new_path} vs {old_path} OK — {} cells, {} improved, \
             worst ratio {:.2} (threshold {:.2})",
            cmp.cells.len(),
            improved,
            worst,
            1.0 + threshold
        );
        ExitCode::SUCCESS
    } else {
        for cell in cmp.regressions() {
            eprintln!(
                "tt-bench-check: REGRESSION {}/{} K={} T={} {}/W={}/{}/{}/S={} — {:.0} → {:.0} \
                 ns/op ({:+.1}%, threshold {:+.1}%)",
                cell.workload,
                cell.strategy,
                cell.batch_size,
                cell.trees,
                cell.scheduler,
                cell.workers,
                cell.commit,
                cell.mode,
                cell.sessions,
                cell.old_ns,
                cell.new_ns,
                (cell.ratio() - 1.0) * 100.0,
                threshold * 100.0
            );
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    if args.first().is_some_and(|a| a == "--compare") {
        let (Some(old_path), Some(new_path)) = (args.get(1), args.get(2)) else {
            usage();
        };
        let mut threshold = DEFAULT_REGRESSION_THRESHOLD;
        let mut sync_only = false;
        // Strict flag parsing: a typo'd extra flag must fail loudly
        // rather than silently degrade the gate.
        let mut i = 3;
        while i < args.len() {
            match args[i].as_str() {
                "--threshold" => {
                    threshold = match args.get(i + 1).and_then(|v| v.parse().ok()) {
                        Some(t) => t,
                        None => usage(),
                    };
                    i += 2;
                }
                "--sync-only" => {
                    sync_only = true;
                    i += 1;
                }
                _ => usage(),
            }
        }
        return compare(old_path, new_path, threshold, sync_only);
    }
    if args.len() > 1 {
        usage();
    }
    let path = args
        .first()
        .cloned()
        .unwrap_or_else(|| BENCH_FILE.to_string());
    validate_one(&path)
}

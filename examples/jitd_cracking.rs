//! Database cracking as AST rewriting: the paper's §7 evaluation bed as
//! a runnable demo.
//!
//! Loads a JustInTimeData index with one big sorted array, then runs a
//! YCSB-A stream while the reorganizer cracks the array into a binary
//! tree and pushes updates down — comparing all five search strategies
//! on the same workload and printing the paper's three measurement axes
//! (search latency, maintenance latency, memory).
//!
//! Run with: `cargo run --release --example jitd_cracking`

use treetoaster::ast::Record;
use treetoaster::metrics::{bytes_to_pages, now_ns};
use treetoaster::prelude::*;

fn main() {
    let records: i64 = 100_000;
    let ops = 500usize;
    println!("JITD database cracking: {records} records, {ops} YCSB-A operations\n");

    // Show reads getting faster as cracking proceeds (TT strategy).
    {
        let data: Vec<Record> = (0..records).map(|k| Record::new(k, k * 3)).collect();
        let mut jitd = Jitd::new(
            StrategyKind::TreeToaster,
            RuleConfig {
                crack_threshold: 128,
            },
            data,
        );
        println!("phase 1 — reads during cracking:");
        let probe_keys: Vec<i64> = (0..200).map(|i| i * (records / 200)).collect();
        for phase in 0..5 {
            let t0 = now_ns();
            for &k in &probe_keys {
                assert_eq!(jitd.index().get(k), Some(k * 3));
            }
            let read_ns = (now_ns() - t0) / probe_keys.len() as u64;
            let applied = jitd.reorganize_until_quiet(400);
            println!(
                "  phase {phase}: {read_ns:>7} ns/read, then applied {applied:>4} rewrites \
                 (tree now {} nodes)",
                jitd.index().ast().live_count()
            );
            if applied == 0 {
                break;
            }
        }
        jitd.index().check_structure().expect("structure intact");
    }

    // Strategy comparison on the same op stream.
    println!("\nphase 2 — the five search strategies on the same YCSB-A stream:");
    println!(
        "{:<8} {:>14} {:>16} {:>14} {:>10}",
        "strategy", "search ns/op", "maintain ns/op", "memory pages", "rewrites"
    );
    for kind in StrategyKind::all() {
        let data: Vec<Record> = (0..records / 10).map(|k| Record::new(k, k)).collect();
        let mut jitd = Jitd::new(
            kind,
            RuleConfig {
                crack_threshold: 128,
            },
            data,
        )
        .timed();
        let mut workload = Workload::new(WorkloadSpec::standard('A'), (records / 10) as u64, 7);
        jitd.reorganize_until_quiet(u64::MAX);
        for _ in 0..ops {
            let op = workload.next_op();
            jitd.execute(&op);
            jitd.reorganize_round();
        }
        let search_mean: f64 = {
            let all: Vec<f64> = jitd
                .stats
                .search_ns
                .iter()
                .flat_map(|b| b.samples().iter().copied())
                .collect();
            all.iter().sum::<f64>() / all.len().max(1) as f64
        };
        let maintain = jitd.stats.all_maintenance_samples();
        let maintain_mean = maintain.samples().iter().sum::<f64>() / maintain.len().max(1) as f64;
        println!(
            "{:<8} {:>14.0} {:>16.0} {:>14} {:>10}",
            kind.label(),
            search_mean,
            maintain_mean,
            bytes_to_pages(jitd.strategy_memory_bytes()),
            jitd.stats.steps,
        );
        jitd.agreement_with_naive().expect("strategy views exact");
    }
    println!("\nExpect: Naive slowest search with zero memory; DBT/Classic fast search but");
    println!("heavy memory; TT fast search at near-Index memory (the paper's Figure 2).");
}

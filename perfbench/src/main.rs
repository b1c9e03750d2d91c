//! The repository benchmark: one command per workload.
//!
//! ```text
//! perfbench --workload <jitd_ycsb_a|optimize_plans|serve_tcp>
//!           [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; the last stdout line is the result object, the line before it a
//! detail object with every named metric and its sample count. See
//! `README.md` beside this crate for the workloads and metrics.

mod harness;
mod jitd;
mod plans;
mod serve;
mod trace;

use harness::{Pass, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use trace::Layer;

/// Seed used when `--seed` is absent (README §Seeds names the held-out
/// seed kept for confirming claims).
const DEFAULT_SEED: u64 = 1;
/// Passes of every script each measured phase runs at least.
const MIN_ROUNDS: usize = 2;

/// Per-layer metrics printed by `--trace 1`, in order. A layer a
/// workload never calls reads 0.
const PER_LAYER: [&str; 23] = [
    "tt_service.self_frac",
    "tt_jitd.self_frac",
    "tt_core.self_frac",
    "tt_pattern.self_frac",
    "tt_ast.self_frac",
    "tt_queryopt.self_frac",
    "trace.attributed_frac",
    "trace.overhead_frac",
    "tt_jitd.rewrites_per_op",
    "tt_jitd.tree_depth",
    "tt_core.find_hit_ratio",
    "tt_core.view_bytes",
    "tt_queryopt.rewrites_per_plan",
    "tt_queryopt.iterations_per_plan",
    "tt_service.session.staged",
    "tt_service.session.canceled",
    "tt_service.session.rewrites",
    "tt_jitd.pool.steals",
    "tt_jitd.pool.contended",
    "tt_jitd.pool.parked",
    "tt_jitd.pool.woken",
    "tt_jitd.pool.commits_applied",
    "tt_jitd.pool.reorg_backlog",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            args.seconds
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <jitd_ycsb_a|optimize_plans|serve_tcp> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "jitd_ycsb_a" => Box::new(jitd::JitdYcsbA::new(args.seed)),
        "optimize_plans" => Box::new(plans::OptimizePlans::new(args.seed)),
        "serve_tcp" => Box::new(serve::ServeTcp::new(args.seed)),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };

    // The traced run measures untraced passes too, interleaved with the
    // traced ones: their counts must match, and the pair gives the
    // tracing overhead.
    let (untraced, traced, rss_mib) =
        harness::run_passes(workload.as_mut(), args.trace, args.seconds, MIN_ROUNDS);

    let mut problems = Vec::new();
    if workload.deterministic() {
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        for p in untraced.iter().chain(&traced) {
            for (k, v) in &p.counts {
                let key = format!("script{}.{k}", p.script);
                match counts.get(&key) {
                    Some(first) if first != v => {
                        problems.push(format!(
                            "pass-to-pass: work count {key} is {v}, was {first}"
                        ));
                    }
                    Some(_) => {}
                    None => {
                        counts.insert(key, *v);
                    }
                }
            }
        }
        if let Err(e) = check_run_counts(&args, counts) {
            problems.push(format!("run-to-run: {e}"));
        }
    }
    let attempted: u64 = untraced.iter().chain(&traced).map(|p| p.attempted).sum();
    let failed: u64 = untraced.iter().chain(&traced).map(|p| p.failed).sum();
    if failed > 0 {
        problems.push(format!(
            "{failed} of {attempted} ops failed or read wrong values"
        ));
    }

    let best = harness::best(workload.as_ref(), &untraced);
    let mut detail = detail(
        workload.as_ref(),
        &best,
        &untraced,
        &traced,
        attempted,
        failed,
    );
    detail.insert("rss_mib".into(), num(rss_mib));
    let metrics = if args.trace {
        let spans = &harness::fastest(&traced).spans;
        let path = out_dir().join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        if let Err(e) = trace::write_tsv(&path, spans) {
            problems.push(format!("could not write spans: {e}"));
        }
        per_layer(workload.as_ref(), &best, &traced)
    } else {
        end_to_end(workload.as_ref(), &best, &untraced)
    };
    for p in &problems {
        eprintln!("perfbench: FAILED: {p}");
    }
    println!("{}", json_object(&detail, "detail"));
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        problems.is_empty()
    );
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    line.push_str("}}");
    println!("{line}");
    if !problems.is_empty() {
        std::process::exit(1);
    }
}

type Metrics = Vec<(String, (f64, &'static str))>;

fn end_to_end(w: &dyn Workload, best: &harness::Best, passes: &[Pass]) -> Metrics {
    let lat = &best.lat[w.headline()];
    let tail = harness::tail_pct(lat.len()).expect("headline class has at least 100 samples");
    vec![
        ("setup_s".into(), (best.setup_s, "s")),
        ("ops_per_s".into(), (best.ops_per_s, "1/s")),
        (
            "lat_p50_us".into(),
            (harness::percentile(lat, 50.0) / 1e3, "us"),
        ),
        (
            "lat_tail_us".into(),
            (harness::percentile(lat, tail) / 1e3, "us"),
        ),
        ("view_mib".into(), (peak_view_mib(passes), "MiB")),
    ]
}

/// Largest strategy view footprint any pass ended with, in MiB.
fn peak_view_mib(passes: &[Pass]) -> f64 {
    passes
        .iter()
        .map(|p| p.gauges["view_mib"])
        .fold(0.0, f64::max)
}

/// Per-layer metrics from the fastest traced pass, plus how well the
/// layers reconcile with its wall time and what tracing cost.
fn per_layer(w: &dyn Workload, untraced: &harness::Best, passes: &[Pass]) -> Metrics {
    let traced = harness::best(w, passes);
    let pass = harness::fastest(passes);
    let self_ns = trace::layer_self_ns(&pass.spans);
    // Closed-loop clients overlap: the time available to attribute is
    // the wall time of each.
    let wall_ns = pass.wall_s * 1e9 * w.concurrency() as f64;
    let mut values: BTreeMap<String, f64> = pass.layers.clone();
    let mut attributed = 0.0;
    for layer in Layer::MEASURED {
        let frac = self_ns.get(&layer).copied().unwrap_or(0) as f64 / wall_ns;
        attributed += frac;
        values.insert(format!("{}.self_frac", layer.prefix()), frac);
    }
    values.insert("trace.attributed_frac".into(), attributed);
    values.insert(
        "trace.overhead_frac".into(),
        untraced.ops_per_s / traced.ops_per_s - 1.0,
    );
    PER_LAYER
        .iter()
        .map(|&name| {
            let unit = if name.ends_with("_frac") || name.ends_with("_ratio") {
                "ratio"
            } else if name.ends_with("_bytes") {
                "bytes"
            } else {
                "count"
            };
            (
                name.to_string(),
                (values.get(name).copied().unwrap_or(0.0), unit),
            )
        })
        .collect()
}

/// Every named metric, with its unit and sample count where it has one.
fn detail(
    w: &dyn Workload,
    best: &harness::Best,
    untraced: &[Pass],
    traced: &[Pass],
    attempted: u64,
    failed: u64,
) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut put = |k: String, v: String| {
        out.insert(k, v);
    };
    put("headline_class".into(), format!("\"{}\"", w.headline()));
    put("scripts".into(), w.scripts().to_string());
    put("passes".into(), untraced.len().to_string());
    put("traced_passes".into(), traced.len().to_string());
    put("fail_frac".into(), num(failed as f64 / attempted as f64));
    for (class, lat) in &best.lat {
        for p in std::iter::once(50.0).chain(harness::tail_pct(lat.len())) {
            put(
                format!("{class}_{}_us", harness::pct_name(p)),
                format!(
                    "{{\"value\": {}, \"unit\": \"us\", \"samples\": {}}}",
                    num(harness::percentile(lat, p) / 1e3),
                    lat.len()
                ),
            );
        }
    }
    for (k, v) in &harness::fastest(untraced).gauges {
        put((*k).to_string(), num(*v));
    }
    if !traced.is_empty() {
        for (k, v) in &harness::fastest(traced).layers {
            put(k.clone(), num(*v));
        }
    }
    out
}

fn json_object(fields: &BTreeMap<String, String>, key: &str) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{\"{key}\": {{{}}}}}", body.join(", "))
}

/// A JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Where spans and work-count records go: inside this crate's directory.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Compares this run's work counts with an earlier run of the same build
/// at the same seed (if any), then records them.
fn check_run_counts(args: &Args, mut merged: BTreeMap<String, u64>) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let meta = std::fs::metadata(&exe).map_err(|e| e.to_string())?;
    let modified = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let build = format!("build {modified} {}", meta.len());
    let path = out_dir().join(format!("counts-{}-seed{}.txt", args.workload, args.seed));
    if let Ok(text) = std::fs::read_to_string(&path) {
        let mut lines = text.lines();
        if lines.next() == Some(build.as_str()) {
            for line in lines {
                let Some((k, v)) = line.split_once(' ') else {
                    continue;
                };
                let Ok(v) = v.parse::<u64>() else { continue };
                match merged.get(k) {
                    Some(&mine) if mine != v => {
                        return Err(format!("work count {k} is {mine}, an earlier run had {v}"))
                    }
                    Some(_) => {}
                    None => {
                        merged.insert(k.to_string(), v);
                    }
                }
            }
        }
    }
    let mut text = build + "\n";
    for (k, v) in &merged {
        let _ = writeln!(text, "{k} {v}");
    }
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("could not record work counts: {e}"))
}

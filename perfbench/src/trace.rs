//! Span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark's own code around calls into each
//! crate's public functions (and by the strategy decorator in
//! `jitd.rs`), kept in a thread-local buffer, and taken out once per
//! pass. Nothing inside the measured crates is instrumented.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// The crates on the production path, plus the benchmark itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Bench,
    Service,
    Jitd,
    Core,
    Pattern,
    Ast,
    QueryOpt,
}

impl Layer {
    /// Every measured layer, in per-layer metric order.
    pub const MEASURED: [Layer; 6] = [
        Layer::Service,
        Layer::Jitd,
        Layer::Core,
        Layer::Pattern,
        Layer::Ast,
        Layer::QueryOpt,
    ];

    /// Metric prefix: the crate's name as imported.
    pub fn prefix(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Service => "tt_service",
            Layer::Jitd => "tt_jitd",
            Layer::Core => "tt_core",
            Layer::Pattern => "tt_pattern",
            Layer::Ast => "tt_ast",
            Layer::QueryOpt => "tt_queryopt",
        }
    }
}

/// No parent: the span is a root.
pub const ROOT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer, or [`ROOT`].
    pub parent: u32,
    /// The op (YCSB op, plan, round trip) the span belongs to.
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Nanoseconds since the first call in this process (all threads share
/// the origin, so spans from connection threads line up).
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Tags the spans that follow on this thread with op id `op`.
pub fn set_op(op: u32) {
    REC.with(|r| r.borrow_mut().op = op);
}

/// Opens a span; returns its index for [`exit_as`].
pub fn enter(layer: Layer, name: &'static str) -> u32 {
    let start_ns = now_ns();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let idx = r.spans.len() as u32;
        let parent = r.open.last().copied().unwrap_or(ROOT);
        let op = r.op;
        r.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        r.open.push(idx);
        idx
    })
}

/// Closes span `idx`, optionally renaming it (e.g. a step that fired).
pub fn exit_as(idx: u32, name: Option<&'static str>) {
    let end_ns = now_ns();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let top = r.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        let span = &mut r.spans[idx as usize];
        span.end_ns = end_ns;
        if let Some(name) = name {
            span.name = name;
        }
    })
}

/// Times `f` as one span.
pub fn span<R>(layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = enter(layer, name);
    let out = f();
    exit_as(idx, None);
    out
}

/// Takes this thread's spans, leaving the buffer empty.
pub fn take() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.open.is_empty(), "a span was left open");
        std::mem::take(&mut r.spans)
    })
}

/// Self time of every span: its duration minus what its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child[s.parent as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Total self time per layer, in ns.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<Layer, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_insert(0) += t;
    }
    out
}

/// Durations (ns) of the spans called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

/// Self times (ns) of the spans called `name`.
pub fn self_durations(spans: &[Span], selfs: &[u64], name: &str) -> Vec<u64> {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, t)| *t)
        .collect()
}

/// For every span called `parent_name`, the summed duration of its
/// direct children whose names are in `children`.
pub fn child_sums(spans: &[Span], parent_name: &str, children: &[&str]) -> Vec<u64> {
    let mut sums: BTreeMap<u32, u64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == parent_name)
        .map(|(i, _)| (i as u32, 0))
        .collect();
    for s in spans {
        if children.contains(&s.name) {
            if let Some(sum) = sums.get_mut(&s.parent) {
                *sum += s.dur_ns();
            }
        }
    }
    sums.into_values().collect()
}

/// Writes spans as tab-separated `name layer start_ns end_ns parent op`.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "name\tlayer\tstart_ns\tend_ns\tparent\top")?;
    for s in spans {
        let parent = if s.parent == ROOT {
            -1
        } else {
            s.parent as i64
        };
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.name,
            s.layer.prefix(),
            s.start_ns,
            s.end_ns,
            parent,
            s.op
        )?;
    }
    w.flush()
}

/// Appends `src` (one thread's buffer) to `dst`, rebasing parent indices.
pub fn append(dst: &mut Vec<Span>, src: Vec<Span>) {
    let base = dst.len() as u32;
    dst.extend(src.into_iter().map(|mut s| {
        if s.parent != ROOT {
            s.parent += base;
        }
        s
    }));
}

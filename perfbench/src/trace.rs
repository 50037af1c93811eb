//! Wall-clock spans recorded by the benchmark around each call it makes
//! into a layer, plus the per-layer arithmetic derived from them.
//!
//! Every replayed operation is one root span; each public layer function
//! the replay calls is a child span of that root. Spans live in memory
//! and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::{median, ratio};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One replayed operation; its duration is the operation's wall time.
    Root,
    /// A call into a layer made inside an operation.
    Layer,
    /// A call made after an operation, on the same store state, to time
    /// a step that runs inside a layer call the benchmark cannot split.
    Probe,
    /// A child span whose duration comes from an identical call timed
    /// elsewhere in the same operation (see `Tracer::estimate_child`).
    Estimated,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub op: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub kind: SpanKind,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    /// The open root span, if an operation is being replayed.
    root: Option<usize>,
    op: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            // Reserved up front: growing the vector inside an operation
            // would charge the copy to the operation as unexplained time.
            spans: Vec::with_capacity(1 << 16),
            root: None,
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, parent: Option<usize>, kind: SpanKind) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op: self.op,
            name,
            start_ns,
            end_ns: start_ns,
            kind,
        });
        id
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Attribute later probe spans to operation `op`.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    /// Replay operation `op` under a root span named `name`.
    pub fn op<T>(&mut self, op: usize, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.op = op;
        let id = self.push(name, None, SpanKind::Root);
        self.root = Some(id);
        let out = f(self);
        self.close(id);
        self.root = None;
        out
    }

    /// Time one layer call. Inside an operation it is a child of the
    /// operation's root; outside one it is a probe of the last operation.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let kind = if self.root.is_some() {
            SpanKind::Layer
        } else {
            SpanKind::Probe
        };
        let id = self.push(name, self.root, kind);
        let out = f();
        self.close(id);
        out
    }

    /// Add an estimated child `name` at the start of span `parent`, as
    /// long as span `model` (clamped to the parent's duration).
    pub fn estimate_child(&mut self, parent: usize, model: usize, name: &'static str) {
        let start_ns = self.spans[parent].start_ns;
        let dur = self.spans[model].dur_ns().min(self.spans[parent].dur_ns());
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: Some(parent),
            op: self.spans[parent].op,
            name,
            start_ns,
            end_ns: start_ns + dur,
            kind: SpanKind::Estimated,
        });
    }

    /// Wall time of operation `op`, in ms.
    pub fn op_wall_ms(&self, op: usize) -> f64 {
        self.spans_of(op)
            .find(|s| s.kind == SpanKind::Root)
            .map_or(0.0, |s| s.dur_ns() as f64 / 1e6)
    }

    /// Spans of operation `op`.
    pub fn spans_of(&self, op: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.op == op)
    }

    /// Write every span as one JSON object per line.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"kind\":\"{:?}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.op, s.name, s.kind, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self times and per-operation coverage of a finished trace.
pub struct Analysis<'a> {
    spans: &'a [Span],
    self_ns: Vec<u64>,
    /// Total wall time of all root spans.
    wall_ns: u64,
    /// Root wall time not covered by any layer span, per operation.
    unexplained_ns: Vec<u64>,
    /// Wall time per operation.
    pub op_wall_ms: Vec<f64>,
}

impl<'a> Analysis<'a> {
    pub fn new(spans: &'a [Span]) -> Self {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let self_ns: Vec<u64> = spans
            .iter()
            .map(|s| s.dur_ns().saturating_sub(child_ns[s.id]))
            .collect();
        let roots: Vec<&Span> = spans.iter().filter(|s| s.kind == SpanKind::Root).collect();
        Analysis {
            wall_ns: roots.iter().map(|s| s.dur_ns()).sum(),
            unexplained_ns: roots.iter().map(|s| self_ns[s.id]).collect(),
            op_wall_ms: roots.iter().map(|s| s.dur_ns() as f64 / 1e6).collect(),
            self_ns,
            spans,
        }
    }

    fn named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s Span> + 's {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Number of spans called `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Median duration of spans called `name`, in ms (0 if none).
    pub fn dur_p50_ms(&self, name: &str) -> f64 {
        let d: Vec<f64> = self.named(name).map(|s| s.dur_ns() as f64 / 1e6).collect();
        median(&d)
    }

    /// Median self time of spans called `name`, in ms (0 if none).
    pub fn self_p50_ms(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .named(name)
            .map(|s| self.self_ns[s.id] as f64 / 1e6)
            .collect();
        median(&d)
    }

    /// Total self time of spans called `name`, in ns.
    pub fn self_total_ns(&self, name: &str) -> u64 {
        self.named(name).map(|s| self.self_ns[s.id]).sum()
    }

    /// Total duration of spans called `name`, in ns.
    pub fn dur_total_ns(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.dur_ns()).sum()
    }

    /// Self time of layer `name` as a share of all replayed wall time.
    pub fn share(&self, name: &str) -> f64 {
        ratio(self.self_total_ns(name) as f64, self.wall_ns as f64)
    }

    /// Lowest share of an operation's wall time its layer spans explain.
    pub fn min_explained(&self) -> f64 {
        self.unexplained_ns
            .iter()
            .zip(&self.op_wall_ms)
            .map(|(&u, &w)| 1.0 - ratio(u as f64 / 1e6, w))
            .fold(1.0, f64::min)
    }

    /// Share of all replayed wall time not explained by layer spans.
    pub fn unexplained_share(&self) -> f64 {
        ratio(
            self.unexplained_ns.iter().sum::<u64>() as f64,
            self.wall_ns as f64,
        )
    }
}

/// Counters drained from an `obs::Registry` after each replayed
/// operation, so probe calls made between operations are left out.
#[derive(Default)]
pub struct Counters {
    counts: BTreeMap<String, u64>,
}

impl Counters {
    /// Add the registry's counters and clear it; returns what was added.
    pub fn absorb(&mut self, reg: &obs::Registry) -> BTreeMap<String, u64> {
        let added = reg.snapshot().counters;
        for (k, v) in &added {
            *self.counts.entry(k.clone()).or_insert(0) += v;
        }
        reg.reset();
        added
    }

    pub fn get(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0) as f64
    }
}

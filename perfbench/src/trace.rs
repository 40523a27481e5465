//! Spans and registry deltas recorded from the benchmark's own code.
//!
//! A span wraps one call into a layer crate's public API: name, start,
//! end, parent, and the id of the op (or probe) it belongs to. At both
//! boundaries of every span the tracer reads a fixed list of
//! `hcft_telemetry` quantities and keeps the difference, so counts are
//! attributed to the same calls as time. Spans stay in memory and are
//! written out once, when the run ends.
//!
//! Roots come in two kinds: an *op* root is one timed operation of the
//! workload (its wall time is a latency sample); a *probe* root re-runs
//! pieces of an op's work in isolation — sequential per-scheme scoring,
//! an in-process memo lookup — and is never counted as an op.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use hcft_telemetry::{Counter, Histogram, Registry};

/// Counters read at every span boundary (process-global registry).
pub const COUNTERS: [&str; 23] = [
    "simmpi.sched.busy_nanos",
    "simmpi.sched.idle_nanos",
    "simmpi.mailbox.messages",
    "simmpi.mailbox.bytes",
    "simmpi.mailbox.send_contended",
    "runtime.pool.hits",
    "runtime.pool.misses",
    "partition.fm.moves",
    "partition.cnm.heap_pops",
    "service.cache.hits",
    "service.cache.misses",
    "service.memo.hits",
    "service.memo.misses",
    "checkpoint.bytes_written.local",
    "checkpoint.bytes_written.parity",
    "checkpoint.bytes_written.partner",
    "checkpoint.bytes_written.xor",
    "checkpoint.bytes_written.pfs",
    "checkpoint.decode_cache.hits",
    "checkpoint.decode_cache.misses",
    "msglog.logged_bytes",
    "replay.messages_replayed",
    "replay.catchup_steps",
];

/// Histograms whose observation sum and count are read at every span
/// boundary; they follow the counters in a delta vector.
pub const HISTOGRAMS: [&str; 1] = ["checkpoint.encode_group_ns"];

/// Position of a watched quantity in a delta vector. Histogram sums
/// and counts are named `<histogram>.sum` and `<histogram>.count`.
pub fn slot(name: &str) -> usize {
    if let Some(i) = COUNTERS.iter().position(|&c| c == name) {
        return i;
    }
    for (j, h) in HISTOGRAMS.iter().enumerate() {
        if name.strip_prefix(h) == Some(".sum") {
            return COUNTERS.len() + 2 * j;
        }
        if name.strip_prefix(h) == Some(".count") {
            return COUNTERS.len() + 2 * j + 1;
        }
    }
    panic!("{name} is not a watched registry quantity");
}

const WATCHED: usize = COUNTERS.len() + 2 * HISTOGRAMS.len();

struct Watch {
    counters: Vec<Arc<Counter>>,
    histograms: Vec<Arc<Histogram>>,
}

impl Watch {
    fn new() -> Self {
        let reg = Registry::global();
        Watch {
            counters: COUNTERS.iter().map(|n| reg.counter(n)).collect(),
            histograms: HISTOGRAMS.iter().map(|n| reg.histogram(n)).collect(),
        }
    }

    fn read(&self) -> [u64; WATCHED] {
        let mut out = [0u64; WATCHED];
        for (o, c) in out.iter_mut().zip(&self.counters) {
            *o = c.get();
        }
        for (j, h) in self.histograms.iter().enumerate() {
            let s = h.snapshot();
            out[COUNTERS.len() + 2 * j] = s.sum;
            out[COUNTERS.len() + 2 * j + 1] = s.count;
        }
        out
    }
}

/// One finished span.
pub struct Span {
    /// Index of the parent span, `None` for a root.
    pub parent: Option<usize>,
    /// Id shared by every span of one op or probe.
    pub op: u64,
    /// Is this the root of a timed op (not a probe)?
    pub is_op: bool,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Registry deltas over the span, indexed by [`slot`].
    pub deltas: [u64; WATCHED],
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Time and counts of every span of one name, summed over a run.
#[derive(Default, Clone, Copy)]
pub struct NameTotals {
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// The span recorder. A disabled tracer runs the wrapped closures and
/// records nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    watch: Option<Watch>,
    spans: Vec<Span>,
    /// Open spans: index into `spans` and the registry reading at begin.
    open: Vec<(usize, [u64; WATCHED])>,
    next_op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            watch: enabled.then(Watch::new),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    fn begin(&mut self, name: &'static str, is_op: bool) -> usize {
        let parent = self.open.last().map(|&(i, _)| i);
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.next_op += 1;
                self.next_op
            }
        };
        let reading = self.watch.as_ref().expect("enabled").read();
        let idx = self.spans.len();
        self.spans.push(Span {
            parent,
            op,
            is_op,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            deltas: [0; WATCHED],
        });
        self.open.push((idx, reading));
        idx
    }

    fn end(&mut self, idx: usize) {
        let end_ns = self.now_ns();
        let (top, before) = self.open.pop().expect("balanced spans");
        assert_eq!(top, idx, "spans close in LIFO order");
        let after = self.watch.as_ref().expect("enabled").read();
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        for ((d, a), b) in span.deltas.iter_mut().zip(after).zip(before) {
            *d = a.saturating_sub(b);
        }
    }

    fn wrap<R>(&mut self, name: &'static str, is_op: bool, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.begin(name, is_op);
        let r = f(self);
        self.end(idx);
        r
    }

    /// Record `f` as a child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.wrap(name, false, f)
    }

    /// Record `f` as the root of one timed op.
    pub fn op<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        assert!(self.open.is_empty(), "ops are roots");
        self.wrap(name, true, f)
    }

    /// Record `f` as the root of a probe (re-measured work, not an op).
    pub fn probe<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        assert!(self.open.is_empty(), "probes are roots");
        self.wrap(name, false, f)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of op roots recorded.
    pub fn ops(&self) -> u64 {
        self.spans.iter().filter(|s| s.is_op).count() as u64
    }

    /// Summed duration of each span's direct children.
    fn child_secs(&self) -> Vec<f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        child
    }

    /// Assert that every child lies inside its parent's interval and
    /// that the children of a span never add up to more than it.
    pub fn check_nesting(&self) {
        let child = self.child_secs();
        for (i, s) in self.spans.iter().enumerate() {
            assert!(
                s.end_ns >= s.start_ns,
                "span {} ends before it starts",
                s.name
            );
            if let Some(p) = s.parent {
                let ps = &self.spans[p];
                assert!(
                    s.start_ns >= ps.start_ns && s.end_ns <= ps.end_ns,
                    "span {} escapes its parent {}",
                    s.name,
                    ps.name
                );
            }
            assert!(
                child[i] <= s.secs() + 1e-9,
                "children of {} sum to {:.6} s > its {:.6} s",
                s.name,
                child[i],
                s.secs()
            );
        }
    }

    /// Per span name: calls, total time and self time (duration minus
    /// the part its direct children cover).
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let child = self.child_secs();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_s += s.secs();
            e.self_s += s.secs() - child[i];
        }
        out
    }

    /// Summed self time of the op roots: op wall time no child span
    /// accounts for.
    pub fn unattributed_s(&self) -> f64 {
        let child = self.child_secs();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_op)
            .map(|(i, s)| s.secs() - child[i])
            .sum()
    }

    /// Registry delta of `name` summed over the op roots.
    pub fn op_delta(&self, name: &str) -> u64 {
        let k = slot(name);
        self.spans
            .iter()
            .filter(|s| s.is_op)
            .map(|s| s.deltas[k])
            .sum()
    }

    /// Registry delta of `name` summed over every span called `span`.
    pub fn span_delta(&self, span: &str, name: &str) -> u64 {
        let k = slot(name);
        self.spans
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.deltas[k])
            .sum()
    }

    /// Write every span as one JSON document; `header` is a JSON object
    /// describing the run.
    pub fn write_json(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(128 * self.spans.len() + header.len() + 64);
        let _ = write!(out, "{{\"run\": {header},\n\"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\": {i}, \"parent\": {parent}, \"op\": {}, \"root\": \"{}\", \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"deltas\": {{",
                s.op,
                if s.parent.is_some() {
                    "-"
                } else if s.is_op {
                    "op"
                } else {
                    "probe"
                },
                s.name,
                s.start_ns,
                s.end_ns
            );
            let mut first = true;
            let names = COUNTERS.iter().map(|c| c.to_string()).chain(
                HISTOGRAMS
                    .iter()
                    .flat_map(|h| [format!("{h}.sum"), format!("{h}.count")]),
            );
            for (name, &d) in names.zip(&s.deltas) {
                if d != 0 {
                    let _ = write!(out, "{}\"{name}\": {d}", if first { "" } else { ", " });
                    first = false;
                }
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_nesting_holds() {
        let mut t = Tracer::new(true);
        t.op("op", |t| {
            t.span("a", |t| {
                t.span("b", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
            t.span("c", |_| ());
        });
        t.probe("probe", |t| t.span("a", |_| ()));
        t.check_nesting();
        assert_eq!(t.ops(), 1);
        let totals = t.totals();
        assert_eq!(totals["a"].calls, 2);
        assert!(totals["a"].self_s < totals["b"].total_s);
        assert!(t.unattributed_s() >= 0.0);
        // Spans of one op share its id; the probe gets its own.
        let ops: Vec<u64> = t.spans().iter().map(|s| s.op).collect();
        assert_eq!(ops, vec![1, 1, 1, 1, 2, 2]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.op("op", |t| t.span("a", |_| 7)), 7);
        assert!(t.spans().is_empty());
    }
}

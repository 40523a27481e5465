//! Message tracing — the stand-in for the paper's modified MPICH2.
//!
//! Two views are recorded:
//! * a **byte matrix** over world ranks — this becomes Fig. 5a/5b and
//!   feeds every clustering metric;
//! * an optional **ordered event log per sender** carrying the
//!   application-defined *phase* (iteration / checkpoint epoch), which the
//!   message-logging replay simulation consumes.
//!
//! Both live in one locked row per sender: the cells it has sent to, as
//! `(dst, bytes, msgs)` sorted by `dst`, and its event log. A rank only
//! ever locks its own row while it runs, so recording is uncontended,
//! and storage grows with the non-zero cells (stencil + encoder ring +
//! O(log n) collective partners per rank) rather than with n² — the
//! full-TSUBAME2 machine (23 936 ranks) traces in megabytes. Cells are
//! visited in `(src, dst)` order at every world size.

use std::sync::atomic::{AtomicBool, Ordering};

use hcft_graph::CommMatrix;
use parking_lot::Mutex;

/// One traced point-to-point message (collective steps decompose into
/// these too, exactly as a PMPI tracer would see them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MessageEvent {
    /// Sender world rank.
    pub src: u32,
    /// Receiver world rank.
    pub dst: u32,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Message tag (collective-internal tags have the top bits set).
    pub tag: u32,
    /// Application phase at send time (see [`crate::Comm::set_phase`]).
    pub phase: u64,
}

/// Everything one sender has recorded.
#[derive(Default)]
struct SenderRow {
    /// `(dst, bytes, msgs)`, strictly ascending by `dst`.
    cells: Vec<(u32, u64, u64)>,
    /// Ordered event log (stays empty unless events are recorded).
    events: Vec<MessageEvent>,
}

/// Concurrent trace sink shared by all ranks of a [`crate::World`].
pub struct TraceRecorder {
    rows: Vec<Mutex<SenderRow>>,
    with_events: bool,
    enabled: AtomicBool,
}

impl TraceRecorder {
    /// A recorder over `n` world ranks. `with_events` additionally keeps
    /// the per-sender ordered event log (costs memory proportional to the
    /// message count).
    pub fn new(n: usize, with_events: bool) -> Self {
        TraceRecorder {
            rows: (0..n).map(|_| Mutex::default()).collect(),
            with_events,
            enabled: AtomicBool::new(true),
        }
    }

    /// Number of world ranks covered.
    pub fn n(&self) -> usize {
        self.rows.len()
    }

    /// Pause/resume recording (e.g. to exclude a warm-up phase).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Release);
    }

    /// Record one message. Called by the runtime on every send.
    pub fn record(&self, ev: MessageEvent) {
        if !self.enabled.load(Ordering::Acquire) {
            return;
        }
        let row = &mut *self.rows[ev.src as usize].lock();
        match row.cells.binary_search_by_key(&ev.dst, |c| c.0) {
            Ok(i) => {
                row.cells[i].1 += ev.bytes;
                row.cells[i].2 += 1;
            }
            Err(i) => row.cells.insert(i, (ev.dst, ev.bytes, 1)),
        }
        if self.with_events {
            row.events.push(ev);
        }
    }

    /// Visit every non-zero cell as `(src, dst, bytes, msgs)`, in
    /// ascending `(src, dst)` order.
    pub fn for_each_cell(&self, mut f: impl FnMut(usize, usize, u64, u64)) {
        for (s, row) in self.rows.iter().enumerate() {
            for &(d, b, c) in &row.lock().cells {
                f(s, d as usize, b, c);
            }
        }
    }

    /// Snapshot the byte matrix.
    pub fn byte_matrix(&self) -> CommMatrix {
        let mut m = CommMatrix::new(self.n());
        self.for_each_cell(|s, d, b, _| m.add(s, d, b));
        m
    }

    /// Snapshot the message-count matrix.
    pub fn count_matrix(&self) -> CommMatrix {
        let mut m = CommMatrix::new(self.n());
        self.for_each_cell(|s, d, _, c| m.add(s, d, c));
        m
    }

    /// Total traced bytes.
    pub fn total_bytes(&self) -> u64 {
        let mut t = 0;
        self.for_each_cell(|_, _, b, _| t += b);
        t
    }

    /// Total traced messages.
    pub fn total_messages(&self) -> u64 {
        let mut t = 0;
        self.for_each_cell(|_, _, _, c| t += c);
        t
    }

    /// Drain the ordered event logs (sender-major). Empty if the recorder
    /// was built without event logging.
    pub fn take_events(&self) -> Vec<Vec<MessageEvent>> {
        if !self.with_events {
            return Vec::new();
        }
        self.rows
            .iter()
            .map(|row| std::mem::take(&mut row.lock().events))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(src: u32, dst: u32, bytes: u64) -> MessageEvent {
        MessageEvent {
            src,
            dst,
            bytes,
            tag: 0,
            phase: 0,
        }
    }

    #[test]
    fn records_bytes_and_counts() {
        let t = TraceRecorder::new(3, false);
        t.record(ev(0, 1, 10));
        t.record(ev(0, 1, 5));
        t.record(ev(2, 0, 7));
        // A zero-byte message counts but leaves no byte cell.
        t.record(ev(1, 2, 0));
        let b = t.byte_matrix();
        assert_eq!(b.get(0, 1), 15);
        assert_eq!(b.get(2, 0), 7);
        assert_eq!(b.edge_count(), 2);
        assert_eq!(t.count_matrix().get(0, 1), 2);
        assert_eq!(t.count_matrix().get(1, 2), 1);
        assert_eq!(t.total_bytes(), 22);
        assert_eq!(t.total_messages(), 4);
    }

    #[test]
    fn sparse_recorder_matches_dense_semantics() {
        // A world past the old dense/sparse switch (4096 ranks): the
        // observable API is the same at every size.
        let t = TraceRecorder::new(4097, false);
        t.record(ev(0, 1, 10));
        t.record(ev(0, 1, 5));
        t.record(ev(4096, 0, 7));
        let b = t.byte_matrix();
        assert_eq!(b.get(0, 1), 15);
        assert_eq!(b.get(4096, 0), 7);
        assert_eq!(t.count_matrix().get(0, 1), 2);
        assert_eq!(t.total_bytes(), 22);
        assert_eq!(t.total_messages(), 3);
        let mut cells = Vec::new();
        t.for_each_cell(|s, d, bytes, msgs| cells.push((s, d, bytes, msgs)));
        // No sort: cells arrive in ascending (src, dst) order.
        assert_eq!(cells, vec![(0, 1, 15, 2), (4096, 0, 7, 1)]);
    }

    #[test]
    fn for_each_cell_is_src_dst_ascending() {
        let t = TraceRecorder::new(6, false);
        for (s, d) in [(3, 5), (3, 0), (0, 4), (5, 1), (3, 2), (0, 1), (3, 0)] {
            t.record(ev(s, d, 1));
        }
        let mut cells = Vec::new();
        t.for_each_cell(|s, d, _, _| cells.push((s, d)));
        assert!(cells.windows(2).all(|w| w[0] < w[1]), "{cells:?}");
        assert_eq!(cells.len(), 6);
    }

    /// The full TSUBAME2 machine (1408 nodes × 16 app ranks + 1 encoder
    /// each): a stencil on a 11264×2 app grid, app → own-encoder pushes
    /// and the encoder parity ring, recorded without running a world.
    /// Dense storage would need 23 936² cells (~4.6 GB per matrix).
    #[test]
    fn machine_scale_trace_stays_sparse() {
        let layout = hcft_topology::JobLayout::with_encoders(1408, 16);
        let n = layout.total_ranks();
        assert_eq!(n, 23_936);
        let t = TraceRecorder::new(n, false);
        let global = |a: usize| layout.app_to_global(a).idx() as u32;
        let rpn = layout.ranks_per_node();
        let (px, py) = (layout.app_ranks() / 2, 2);
        for y in 0..py {
            for x in 0..px {
                let me = global(y * px + x);
                let nbrs = [
                    (x > 0).then(|| y * px + x - 1),
                    (x + 1 < px).then(|| y * px + x + 1),
                    (y > 0).then(|| (y - 1) * px + x),
                    (y + 1 < py).then(|| (y + 1) * px + x),
                ];
                for a in nbrs.into_iter().flatten() {
                    t.record(ev(me, global(a), 4096));
                }
                t.record(ev(me, (me as usize / rpn * rpn) as u32, 8));
            }
        }
        for node in 0..layout.nodes() {
            let next = (node + 1) % layout.nodes();
            t.record(ev((node * rpn) as u32, (next * rpn) as u32, 1 << 20));
        }
        let stencil = 2 * py * (px - 1) + 2 * px * (py - 1);
        let full = t.byte_matrix();
        assert_eq!(
            full.edge_count(),
            stencil + layout.app_ranks() + layout.nodes()
        );
        let app = full.project(&layout.application_ranks());
        assert_eq!(app.n(), 22_528);
        assert_eq!(app.edge_count(), stencil);
        const LIMIT: usize = 32 << 20;
        assert!(full.heap_bytes() < LIMIT, "{}", full.heap_bytes());
        assert!(app.heap_bytes() < LIMIT, "{}", app.heap_bytes());
    }

    #[test]
    fn disable_suppresses_recording() {
        let t = TraceRecorder::new(2, false);
        t.record(ev(0, 1, 1));
        t.set_enabled(false);
        t.record(ev(0, 1, 100));
        t.set_enabled(true);
        t.record(ev(0, 1, 2));
        assert_eq!(t.total_bytes(), 3);
    }

    #[test]
    fn event_log_preserves_sender_order() {
        let t = TraceRecorder::new(2, true);
        t.record(MessageEvent {
            src: 0,
            dst: 1,
            bytes: 1,
            tag: 9,
            phase: 3,
        });
        t.record(ev(0, 1, 2));
        let logs = t.take_events();
        assert_eq!(logs[0].len(), 2);
        assert_eq!(logs[0][0].tag, 9);
        assert_eq!(logs[0][0].phase, 3);
        assert_eq!(logs[0][1].bytes, 2);
        assert!(logs[1].is_empty());
        // Drained.
        assert!(t.take_events()[0].is_empty());
    }

    #[test]
    fn no_event_log_when_disabled_at_construction() {
        let t = TraceRecorder::new(2, false);
        t.record(ev(0, 1, 1));
        assert!(t.take_events().is_empty());
    }
}

//! The per-layer metrics of the traced run and where each comes from.
//!
//! Every workload reports every metric; a layer a workload never calls
//! reads 0 there, which is the "no change" side of the prediction table
//! in `README.md`.

use std::collections::BTreeMap;

use crate::trace::Tracer;
use crate::Metric;

/// Values a workload measures or computes itself (baselines, computed
/// counts), by metric name.
pub type Extra = BTreeMap<&'static str, f64>;

enum Src {
    /// Summed duration of the spans with these names, per op.
    Spans(&'static [&'static str]),
    /// Op-root registry delta of these quantities, times a scale, per op.
    Delta(&'static [&'static str], f64),
    /// `hits / (hits + misses)` of op-root deltas; 0 when never used.
    Ratio(&'static str, &'static str),
    /// Set by the workload in [`Extra`]; 0 when it sets nothing.
    Extra,
    /// Op wall time no child span accounts for, per op.
    Unattributed,
}

const NS: f64 = 1e-9;

const PER_LAYER: &[(&str, &str, Src)] = &[
    (
        "core.traced_world_s",
        "s",
        Src::Spans(&["core.run_traced_world"]),
    ),
    (
        "simmpi.busy_s",
        "s",
        Src::Delta(&["simmpi.sched.busy_nanos"], NS),
    ),
    (
        "simmpi.idle_s",
        "s",
        Src::Delta(&["simmpi.sched.idle_nanos"], NS),
    ),
    (
        "simmpi.messages",
        "count",
        Src::Delta(&["simmpi.mailbox.messages"], 1.0),
    ),
    (
        "simmpi.bytes",
        "bytes",
        Src::Delta(&["simmpi.mailbox.bytes"], 1.0),
    ),
    (
        "simmpi.send_contended",
        "count",
        Src::Delta(&["simmpi.mailbox.send_contended"], 1.0),
    ),
    (
        "simmpi.pool_hit_ratio",
        "ratio",
        Src::Ratio("runtime.pool.hits", "runtime.pool.misses"),
    ),
    ("tsunami.sequential_s", "s", Src::Extra),
    ("tsunami.cell_updates", "count", Src::Extra),
    (
        "graph.matrix_s",
        "s",
        Src::Spans(&["graph.byte_matrix", "graph.project"]),
    ),
    ("graph.matrix_bytes", "bytes", Src::Extra),
    ("graph.aggregate_s", "s", Src::Spans(&["graph.aggregate"])),
    ("cluster.build_s", "s", Src::Spans(&["cluster.build"])),
    (
        "partition.fm_moves",
        "count",
        Src::Delta(&["partition.fm.moves"], 1.0),
    ),
    (
        "partition.cnm_heap_pops",
        "count",
        Src::Delta(&["partition.cnm.heap_pops"], 1.0),
    ),
    (
        "msglog.log_stats_s",
        "s",
        Src::Spans(&["msglog.stats_from_matrix"]),
    ),
    (
        "reliability.p_catastrophic_s",
        "s",
        Src::Spans(&["reliability.p_catastrophic"]),
    ),
    (
        "core.score_schemes_s",
        "s",
        Src::Spans(&["core.evaluate_paper_schemes"]),
    ),
    (
        "core.family_sweep_s",
        "s",
        Src::Spans(&["core.evaluate_family_sweep"]),
    ),
    (
        "core.trace_cache_hit_ratio",
        "ratio",
        Src::Ratio("service.cache.hits", "service.cache.misses"),
    ),
    (
        "service.memo_hit_ratio",
        "ratio",
        Src::Ratio("service.memo.hits", "service.memo.misses"),
    ),
    ("service.http_overhead_ms", "ms", Src::Extra),
    (
        "core.replay_run_node_loss_s",
        "s",
        Src::Spans(&["core.replay_run.node_loss"]),
    ),
    (
        "core.replay_run_cluster_kill_s",
        "s",
        Src::Spans(&["core.replay_run.cluster_kill"]),
    ),
    (
        "core.replay_run_cascade_s",
        "s",
        Src::Spans(&["core.replay_run.cascade"]),
    ),
    (
        "core.replay_run_corrupt_s",
        "s",
        Src::Spans(&["core.replay_run.corrupt"]),
    ),
    (
        "checkpoint.encode_group_s",
        "s",
        Src::Delta(&["checkpoint.encode_group_ns.sum"], NS),
    ),
    (
        "checkpoint.bytes_written",
        "bytes",
        Src::Delta(
            &[
                "checkpoint.bytes_written.local",
                "checkpoint.bytes_written.parity",
                "checkpoint.bytes_written.partner",
                "checkpoint.bytes_written.xor",
                "checkpoint.bytes_written.pfs",
            ],
            1.0,
        ),
    ),
    (
        "checkpoint.decode_cache_hit_ratio",
        "ratio",
        Src::Ratio(
            "checkpoint.decode_cache.hits",
            "checkpoint.decode_cache.misses",
        ),
    ),
    (
        "msglog.logged_bytes",
        "bytes",
        Src::Delta(&["msglog.logged_bytes"], 1.0),
    ),
    (
        "replay.messages_replayed",
        "count",
        Src::Delta(&["replay.messages_replayed"], 1.0),
    ),
    (
        "replay.catchup_steps",
        "count",
        Src::Delta(&["replay.catchup_steps"], 1.0),
    ),
    ("erasure.encode_s", "s", Src::Extra),
    ("erasure.parity_bytes", "bytes", Src::Extra),
    ("campaign.events_per_s", "1/s", Src::Extra),
    (
        "cluster.scheme_index_s",
        "s",
        Src::Spans(&["cluster.scheme_index"]),
    ),
    ("unattributed_s", "s", Src::Unattributed),
    ("tracing_overhead_s", "s", Src::Extra),
];

/// Every per-layer metric of a traced run, per op.
pub fn per_layer(t: &Tracer, extra: &Extra) -> Vec<Metric> {
    let ops = t.ops().max(1) as f64;
    let totals = t.totals();
    for name in extra.keys() {
        assert!(
            PER_LAYER
                .iter()
                .any(|(n, _, src)| n == name && matches!(src, Src::Extra)),
            "{name} is not a workload-set per-layer metric"
        );
    }
    PER_LAYER
        .iter()
        .map(|(name, unit, src)| {
            let (value, note) = match src {
                Src::Spans(names) => (
                    names
                        .iter()
                        .map(|n| totals.get(n).map_or(0.0, |x| x.total_s))
                        .sum::<f64>()
                        / ops,
                    format!("span {}", names.join(" + ")),
                ),
                Src::Delta(names, scale) => (
                    names.iter().map(|n| t.op_delta(n) as f64).sum::<f64>() * scale / ops,
                    format!("registry delta {}", names.join(" + ")),
                ),
                Src::Ratio(hits, misses) => {
                    let (h, m) = (t.op_delta(hits) as f64, t.op_delta(misses) as f64);
                    let r = if h + m > 0.0 { h / (h + m) } else { 0.0 };
                    (
                        r,
                        format!("{hits} / ({hits} + {misses}) over {} uses", h + m),
                    )
                }
                Src::Extra => (
                    extra.get(name).copied().unwrap_or(0.0),
                    "measured by the workload".into(),
                ),
                Src::Unattributed => (
                    t.unattributed_s() / ops,
                    "op wall minus its child spans".into(),
                ),
            };
            Metric::new(*name, value, unit, note)
        })
        .collect()
}

/// Print per-span-name calls, total and self time per op, and the top
/// three layers by self time.
pub fn print_tree(t: &Tracer) {
    let ops = t.ops().max(1) as f64;
    let totals = t.totals();
    println!("span totals per op (calls, total s, self s):");
    for (name, x) in &totals {
        println!(
            "  {:<34} {:>8.2} {:>12.6} {:>12.6}",
            name,
            x.calls as f64 / ops,
            x.total_s / ops,
            x.self_s / ops
        );
    }
    let mut layers: Vec<(&str, f64)> = totals
        .iter()
        .filter(|(n, _)| n.contains('.'))
        .map(|(n, x)| (*n, x.self_s / ops))
        .collect();
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));
    let top: Vec<String> = layers
        .iter()
        .take(3)
        .map(|(n, s)| format!("{n} {s:.6} s"))
        .collect();
    println!("top layers by self time per op: {}", top.join(", "));
}

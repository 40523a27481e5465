//! `paper_table2`: the paper's traced 1088-rank tsunami job, cold,
//! scored into Table II and checked against the pinned CSV.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use hcft_cluster::{registry_with, ClusteringStrategy, HierarchicalConfig, StrategyContext};
use hcft_core::experiment::{
    evaluate_paper_schemes, run_traced_job, run_traced_world, TraceResult, TracedJobConfig,
};
use hcft_graph::WeightedGraph;
use hcft_msglog::HybridProtocol;
use hcft_reliability::model::fti_tolerance;
use hcft_reliability::{EventDistribution, ReliabilityModel};

use crate::layers::Extra;
use crate::stats::OpLog;
use crate::trace::Tracer;
use crate::{p50, tail_of, Metric, Workload};

/// The Table II rows the repository pins.
const PINNED: &str = include_str!("../../results/table2_clustering_comparison.csv");

pub struct PaperTable2 {
    cfg: TracedJobConfig,
    pinned: Vec<String>,
}

/// Render the scores as the pinned CSV renders them.
fn csv_rows(scores: &[hcft_cluster::FourDScore]) -> Vec<String> {
    scores
        .iter()
        .map(|s| {
            format!(
                "{},{:.4},{:.4},{:.1},{:e}",
                s.name, s.logging_fraction, s.restart_fraction, s.encode_s_per_gb, s.p_catastrophic
            )
        })
        .collect()
}

/// Run the traced job call by call, as `run_traced_job` does for a job
/// without event recording, with a span around each layer call.
fn traced_job(t: &mut Tracer, cfg: &TracedJobConfig) -> TraceResult {
    assert!(!cfg.record_events, "the span path skips event translation");
    let world = t.span("core.run_traced_world", |_| run_traced_world(cfg));
    let full = t.span("graph.byte_matrix", |_| world.trace.byte_matrix());
    let app = t.span("graph.project", |_| {
        full.project(&world.layout.application_ranks())
    });
    TraceResult {
        layout: world.layout,
        process_grid: world.process_grid,
        full,
        app,
        app_events: Vec::new(),
    }
}

/// Time every per-scheme layer call of a scoring pass once,
/// sequentially, on `trace`: the node graph, each strategy's build and
/// each scheme's logging, restart and reliability scores.
pub fn score_breakdown<'a>(
    t: &mut Tracer,
    trace: &TraceResult,
    strategies: impl IntoIterator<Item = &'a dyn ClusteringStrategy>,
) -> Result<(), String> {
    t.probe("probe_breakdown", |t| {
        let placement = trace.layout.app_placement();
        let node_graph = t.span("graph.aggregate", |_| {
            WeightedGraph::from_comm_matrix(&trace.app.aggregate_by_node(&placement))
        });
        let ctx = StrategyContext {
            placement: &placement,
            node_graph: &node_graph,
        };
        let reliability =
            ReliabilityModel::new(placement.nodes(), EventDistribution::fti_calibrated());
        for s in strategies {
            let scheme = t
                .span("cluster.build", |_| s.build(&ctx))
                .map_err(|e| format!("strategy {} rejected the trace: {e}", s.name()))?;
            let protocol = HybridProtocol::new(scheme.l1.clone());
            t.span("msglog.stats_from_matrix", |_| {
                black_box(protocol.stats_from_matrix(&trace.app))
            });
            t.span("msglog.expected_restart_fraction", |_| {
                black_box(protocol.expected_restart_fraction(&placement))
            });
            t.span("reliability.p_catastrophic", |_| {
                black_box(reliability.p_catastrophic(&scheme.l2, &placement, &fti_tolerance))
            });
        }
        Ok(())
    })
}

impl Workload for PaperTable2 {
    const HEADLINE: &'static str = "table2";

    fn setup(_seed: u64, _dir: &Path) -> Result<Self, String> {
        let pinned: Vec<String> = PINNED.lines().skip(1).map(str::to_string).collect();
        if pinned.len() != 4 {
            return Err(format!("pinned Table II has {} rows, not 4", pinned.len()));
        }
        // Warm the simmpi worker pool and rank stacks on a small job.
        black_box(run_traced_job(&TracedJobConfig::small(8, 4)));
        Ok(PaperTable2 {
            cfg: TracedJobConfig::paper_1024(),
            pinned,
        })
    }

    fn round(&mut self, t: &mut Tracer, log: &mut OpLog) {
        let start = Instant::now();
        let (trace, ev) = t.op("op", |t| {
            let trace = if t.enabled() {
                traced_job(t, &self.cfg)
            } else {
                run_traced_job(&self.cfg)
            };
            let ev = t.span("core.evaluate_paper_schemes", |_| {
                evaluate_paper_schemes(&trace)
            });
            (trace, ev)
        });
        log.sample("table2", start.elapsed().as_secs_f64());
        let rows = csv_rows(&ev.scores);
        log.check(rows == self.pinned, || {
            format!(
                "Table II rows {rows:?} differ from the pinned CSV {:?}",
                self.pinned
            )
        });
        if t.enabled() {
            let strategies = registry_with(32, 8, 16, HierarchicalConfig::default());
            if let Err(e) = score_breakdown(t, &trace, strategies.iter().map(|s| s.as_ref())) {
                log.fail(e);
            }
        }
    }

    fn report(&self, log: &OpLog) -> Vec<Metric> {
        vec![
            p50(log, "table2", "table2_s", "s"),
            tail_of(log, "table2", "table2_tail_s", "s"),
        ]
    }

    fn layers(&mut self, _t: &mut Tracer, _log: &OpLog, extra: &mut Extra) {
        let params = self.cfg.tsunami_params();
        let iterations = self.cfg.iterations;
        // A baseline, not an op: the same job solved on one thread.
        let start = Instant::now();
        black_box(hcft_tsunami::sequential::solve_sequential(
            params, iterations,
        ));
        extra.insert("tsunami.sequential_s", start.elapsed().as_secs_f64());
        let (nx, ny) = self.cfg.grid;
        extra.insert("tsunami.cell_updates", (nx * ny) as f64 * iterations as f64);
        let full = self.cfg.layout().total_ranks() as f64;
        let app = (self.cfg.nodes * self.cfg.app_per_node) as f64;
        extra.insert("graph.matrix_bytes", (full * full + app * app) * 8.0);
    }

    fn ranks() -> usize {
        TracedJobConfig::paper_1024().layout().total_ranks()
    }
}

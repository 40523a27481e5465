//! `campaign_grid`: the Monte-Carlo campaign grid on the
//! `repro --scale paper campaign-grid` axes, at a fixed trial count per
//! cell with no early stop. The seed is the grid's base seed; every pass
//! reruns the same grid, so every pass must return the same cells.

use std::path::Path;
use std::time::Instant;

use hcft_cluster::SchemeIndex;
use hcft_core::campaign::{
    run_trial_reference, simulate_campaign_reference, simulate_campaign_stats, CampaignConfig,
    CampaignGrid, CampaignKernel, CampaignOutcome, GridCell, GridStrategy, StopRule,
};
use hcft_msglog::HybridProtocol;
use hcft_reliability::FailureArrivals;
use hcft_topology::Placement;

use crate::layers::Extra;
use crate::stats::{median, OpLog};
use crate::trace::Tracer;
use crate::{p50, tail_of, Metric, SplitMix, Workload};

const STRATEGIES: [GridStrategy; 3] = [
    GridStrategy::Naive,
    GridStrategy::Distributed,
    GridStrategy::Striped,
];
const MTBFS_H: [f64; 3] = [2.0, 6.0, 24.0];
const CLUSTER_SIZES: [usize; 2] = [8, 32];
const MACHINE_NODES: [usize; 2] = [64, 128];
const PPN: usize = 16;
/// Trials per cell, per pass.
const TRIALS: u64 = 4_096;
/// Trials of the per-strategy check against the scalar reference.
const REFERENCE_TRIALS: u64 = 128;

/// What must repeat exactly between passes of one grid.
type Digest = (u64, u64, u64, u64, u64);

fn digest(c: &GridCell) -> Digest {
    let s = &c.stats;
    (
        s.trials,
        s.total_failures,
        s.total_catastrophic,
        s.total_transient,
        s.availability.mean().to_bits(),
    )
}

pub struct CampaignGridBench {
    grid: CampaignGrid,
    seed: u64,
    first: Option<Vec<Digest>>,
    /// Failure events per second of each traced pass.
    events_per_s: Vec<f64>,
}

fn grid(seed: u64, trials: u64) -> CampaignGrid {
    CampaignGrid {
        strategies: STRATEGIES.to_vec(),
        mtbfs_h: MTBFS_H.to_vec(),
        cluster_sizes: CLUSTER_SIZES.to_vec(),
        machine_nodes: MACHINE_NODES.to_vec(),
        ppn: PPN,
        base: CampaignConfig {
            duration_h: 30.0 * 24.0,
            seed,
            ..Default::default()
        },
        stop: StopRule::fixed(trials),
    }
}

impl Workload for CampaignGridBench {
    const HEADLINE: &'static str = "grid";

    fn setup(seed: u64, _dir: &Path) -> Result<Self, String> {
        // Warm the trial workers on a one-cell grid.
        let mut warm = grid(seed, 256);
        warm.mtbfs_h.truncate(1);
        warm.cluster_sizes.truncate(1);
        warm.machine_nodes.truncate(1);
        warm.run().map_err(|e| format!("warm-up grid: {e}"))?;
        Ok(CampaignGridBench {
            grid: grid(seed, TRIALS),
            seed,
            first: None,
            events_per_s: Vec::new(),
        })
    }

    fn round(&mut self, t: &mut Tracer, log: &mut OpLog) {
        let start = Instant::now();
        let cells = t.op("op", |t| {
            t.span("core.campaign_grid_run", |_| self.grid.run())
        });
        let secs = start.elapsed().as_secs_f64();
        let cells = match cells {
            Ok(c) => c,
            Err(e) => return log.fail(format!("grid run: {e}")),
        };
        let digests: Vec<Digest> = cells.iter().map(digest).collect();
        let first = self.first.get_or_insert_with(|| digests.clone());
        let whole = cells.len() == self.grid.cells()
            && cells
                .iter()
                .all(|c| c.stats.trials == TRIALS && !c.stats.early_stopped);
        let ok = whole && *first == digests;
        log.check(ok, || {
            format!(
                "grid pass: {} cells, complete {whole}, same as the first pass {}",
                cells.len(),
                *first == digests
            )
        });
        if !ok {
            return;
        }
        log.sample("grid", secs);
        if t.enabled() {
            let events: u64 = cells.iter().map(|c| c.stats.total_failures).sum();
            self.events_per_s.push(events as f64 / secs);
            // The per-cell scheme set-up the grid does, timed alone.
            t.probe("probe_scheme_index", |t| {
                for c in &cells {
                    let placement = Placement::block(c.nodes, c.ppn);
                    let strategy = STRATEGIES
                        .into_iter()
                        .find(|s| s.name() == c.strategy)
                        .expect("grid strategies");
                    let scheme = t
                        .span("core.grid_strategy_build", |_| {
                            strategy.build(&placement, c.cluster_size)
                        })
                        .expect("grid cells are valid");
                    t.span("cluster.scheme_index", |_| {
                        SchemeIndex::new(&scheme, &placement)
                    });
                }
            });
        }
    }

    fn finish(&mut self, log: &mut OpLog) {
        // One cell per strategy re-run at a small trial count through the
        // batched engine and through the scalar reference. The engine
        // promises trial-for-trial equivalence: every trial must be
        // bit-identical, and so must the outcome's event counts.
        //
        // The outcome's availability is not compared: the engine averages
        // per-trial availabilities, each clamped at 0, while the reference
        // clamps the average. The two differ in the last bits on most
        // cells and by more on cells where trials lose more time than the
        // campaign lasts; the gap is printed, not hidden.
        let mut rng = SplitMix(self.seed ^ 0xCA3A);
        for strategy in STRATEGIES {
            let mtbf_h = MTBFS_H[rng.below(MTBFS_H.len() as u64) as usize];
            let size = CLUSTER_SIZES[rng.below(CLUSTER_SIZES.len() as u64) as usize];
            let nodes = MACHINE_NODES[rng.below(MACHINE_NODES.len() as u64) as usize];
            let placement = Placement::block(nodes, PPN);
            let cfg = CampaignConfig {
                arrivals: FailureArrivals::exponential(mtbf_h),
                trials: REFERENCE_TRIALS as usize,
                seed: rng.next_u64(),
                ..self.grid.base.clone()
            };
            let what = format!(
                "{} mtbf {mtbf_h} h size {size} on {nodes} nodes",
                strategy.name()
            );
            let scheme = match strategy.build(&placement, size) {
                Ok(s) => s,
                Err(e) => return log.fail(format!("{what}: {e}")),
            };
            let protocol = HybridProtocol::new(scheme.l1.clone());
            let sampler = cfg.events.sampler();
            let index = SchemeIndex::new(&scheme, &placement);
            let mut kernel = CampaignKernel::new(&index, &sampler, &cfg, placement.nprocs());
            let diverged = (0..REFERENCE_TRIALS).find(|&trial| {
                kernel.run_trial(trial)
                    != run_trial_reference(trial, &scheme, &protocol, &placement, &cfg, &sampler)
            });
            log.check(diverged.is_none(), || {
                format!("{what}: trial {diverged:?} diverged")
            });
            let stop = StopRule::fixed(REFERENCE_TRIALS);
            let engine = simulate_campaign_stats(&scheme, &placement, &cfg, &stop).outcome();
            let reference = simulate_campaign_reference(&scheme, &placement, &cfg);
            let counts = |o: &CampaignOutcome| (o.failures, o.catastrophic, o.transient);
            log.check(counts(&engine) == counts(&reference), || {
                format!("{what}: engine {engine:?} != reference {reference:?}")
            });
            println!(
                "reference check {what}: {REFERENCE_TRIALS} trials identical; availability \
                 engine {} reference {} (gap {:e})",
                engine.availability,
                reference.availability,
                engine.availability - reference.availability
            );
        }
    }

    fn report(&self, log: &OpLog) -> Vec<Metric> {
        let trials = (self.grid.cells() as u64 * TRIALS) as f64;
        let grid = log.samples("grid");
        let per_s = if grid.is_empty() {
            0.0
        } else {
            trials / median(grid)
        };
        vec![
            Metric::new(
                "campaign_trials_per_s",
                per_s,
                "1/s",
                format!("{trials} trials over the p50 of {} passes", grid.len()),
            ),
            p50(log, "grid", "campaign_grid_s", "s"),
            tail_of(log, "grid", "campaign_grid_tail_s", "s"),
        ]
    }

    fn layers(&mut self, _t: &mut Tracer, _log: &OpLog, extra: &mut Extra) {
        if !self.events_per_s.is_empty() {
            extra.insert("campaign.events_per_s", median(&self.events_per_s));
        }
    }

    fn ranks() -> usize {
        1
    }
}

//! `cluster_replay`: live cluster kills replayed to a bit-identical
//! state, at the `repro --scale paper replay` shape.
//!
//! One round runs four scenarios, each checked against the
//! uninterrupted reference: node loss, L1 cluster kill, cluster kill
//! with a cascading second failure, and node loss with a silently
//! corrupted surviving checkpoint. The seed draws each scenario's
//! victim and failure step (always after the first complete epoch).
//!
//! The first three run on the repro scheme: striped, L1 blocks of 4
//! nodes, L2 groups of 16 ranks. With 8 ranks per node those L2 groups
//! touch every node, so no surviving node can hold a corrupted shard
//! without sharing a group with the victim; the corruption scenario runs
//! on the same machine with L2 groups of 8 ranks, which touch every
//! other node.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hcft_cluster::striped;
use hcft_core::replay::{ReplayConfig, ReplayEngine, ReplayWorkload, TsunamiWorkload};
use hcft_core::scenario::FaultScenario;
use hcft_erasure::ReedSolomon;
use hcft_topology::{NodeId, Placement};
use hcft_tsunami::TsunamiParams;

use crate::layers::Extra;
use crate::stats::OpLog;
use crate::trace::Tracer;
use crate::{p50, tail_of, Metric, SplitMix, Workload};

const NODES: usize = 16;
const PPN: usize = 8;
const L1_NODES: usize = 4;
const L2_SIZE: usize = 16;
const L2_SIZE_CORRUPT: usize = 8;
const GRID: (usize, usize) = (96, 96);
const TOTAL_STEPS: u64 = 18;
/// Failure steps 2 to 4 iterations past a checkpoint (every 5), after
/// the first complete epoch.
const FAIL_AT: [u64; 6] = [7, 8, 9, 12, 13, 14];

/// Scenario kinds in round order: sample class and span name.
const KINDS: [(&str, &str); 4] = [
    ("node_loss", "core.replay_run.node_loss"),
    ("cluster_kill", "core.replay_run.cluster_kill"),
    ("cascade", "core.replay_run.cascade"),
    ("corrupt", "core.replay_run.corrupt"),
];

pub struct ClusterReplay {
    engine: ReplayEngine<TsunamiWorkload>,
    corrupt_engine: ReplayEngine<TsunamiWorkload>,
    reference: Vec<Vec<u8>>,
    store: PathBuf,
    rng: SplitMix,
}

fn engine(store: &Path, l2_size: usize) -> ReplayEngine<TsunamiWorkload> {
    let placement = Placement::block(NODES, PPN);
    let scheme = striped(&placement, L1_NODES, l2_size);
    ReplayEngine::new(
        TsunamiWorkload::new(TsunamiParams::stable(GRID.0, GRID.1)),
        placement,
        scheme,
        ReplayConfig::new(store),
    )
}

impl ClusterReplay {
    /// This round's four scenarios, drawn from the seeded generator.
    fn draw(&mut self) -> [FaultScenario; 4] {
        let rng = &mut self.rng;
        let mut at = || FAIL_AT[rng.below(FAIL_AT.len() as u64) as usize];
        let (f0, f1, f2, f3) = (at(), at(), at(), at());
        let clusters = (NODES / L1_NODES) as u64;
        let victim = self.rng.below(NODES as u64) as u32;
        let kill = self.rng.below(clusters) as usize;
        let cascade_cluster = self.rng.below(clusters) as usize;
        // A cascade victim on any node outside the killed block.
        let outside = NODES - L1_NODES;
        let cascade_node =
            ((cascade_cluster + 1) * L1_NODES + self.rng.below(outside as u64) as usize) % NODES;
        // Corruption: a surviving node of the victim's block with the
        // other parity, so it shares no L2 group of 8 with the victim.
        let lost = self.rng.below(NODES as u64) as usize;
        let block = lost / L1_NODES * L1_NODES;
        let other_parity: Vec<usize> = (block..block + L1_NODES)
            .filter(|n| n % 2 != lost % 2)
            .collect();
        let corrupt = other_parity[self.rng.below(other_parity.len() as u64) as usize];
        [
            FaultScenario::node_loss(NodeId(victim), f0),
            FaultScenario::at(f1).l1_cluster(kill).build(),
            FaultScenario::at(f2)
                .l1_cluster(cascade_cluster)
                .cascade(NodeId(cascade_node as u32), 1)
                .build(),
            FaultScenario::at(f3)
                .node(NodeId(lost as u32))
                .corrupt_checkpoint(NodeId(corrupt as u32))
                .build(),
        ]
    }
}

impl Workload for ClusterReplay {
    const HEADLINE: &'static str = "round";

    fn setup(seed: u64, dir: &Path) -> Result<Self, String> {
        let store = dir.join("store");
        let engine = engine(&store, L2_SIZE);
        let reference = engine.reference(TOTAL_STEPS);
        Ok(ClusterReplay {
            corrupt_engine: self::engine(&store, L2_SIZE_CORRUPT),
            engine,
            reference,
            store,
            rng: SplitMix(seed ^ 0x4E91),
        })
    }

    fn round(&mut self, t: &mut Tracer, log: &mut OpLog) {
        let scenarios = self.draw();
        let start = Instant::now();
        t.op("op", |t| {
            for (i, scenario) in scenarios.iter().enumerate() {
                let (class, span) = KINDS[i];
                let engine = if class == "corrupt" {
                    &self.corrupt_engine
                } else {
                    &self.engine
                };
                // Every run needs a fresh store: the engine owns its epochs.
                t.span("bench.store_reset", |_| {
                    let _ = std::fs::remove_dir_all(&self.store);
                });
                let run_start = Instant::now();
                let outcome = t.span(span, |_| engine.run(scenario, TOTAL_STEPS));
                let secs = run_start.elapsed().as_secs_f64();
                match outcome {
                    Ok(out) => {
                        let same = t.span("core.outcome_matches", |_| out.matches(&self.reference));
                        log.check(same, || {
                            format!("{class} {scenario:?}: state differs from the reference")
                        });
                        if same {
                            log.sample(class, secs);
                        }
                    }
                    Err(e) => log.fail(format!("{class} {scenario:?}: {e}")),
                }
            }
        });
        log.sample("round", start.elapsed().as_secs_f64());
    }

    fn report(&self, log: &OpLog) -> Vec<Metric> {
        let mut out = vec![
            p50(log, "round", "recovery_s", "s"),
            tail_of(log, "round", "recovery_tail_s", "s"),
        ];
        for (class, _) in KINDS {
            out.push(p50(log, class, &format!("recovery_{class}_s"), "s"));
        }
        out
    }

    fn layers(&mut self, t: &mut Tracer, _log: &OpLog, extra: &mut Extra) {
        // The largest per-rank checkpoint payload is the shard length.
        let workload = TsunamiWorkload::new(TsunamiParams::stable(GRID.0, GRID.1));
        let nprocs = NODES * PPN;
        let shard_len = (0..nprocs)
            .map(|r| {
                let mut buf = Vec::new();
                workload.save_into(&workload.init(nprocs, r), &mut buf);
                buf.len()
            })
            .max()
            .expect("ranks");
        // RS-encode each group geometry alone: the kernel without the
        // checkpoint store's I/O.
        const REPS: u32 = 200;
        let ops = t.ops().max(1) as f64;
        let (mut encode_s, mut parity_bytes) = (0.0, 0.0);
        for (group, spans) in [(L2_SIZE, &KINDS[..3]), (L2_SIZE_CORRUPT, &KINDS[3..])] {
            let rs = ReedSolomon::fti_for_group(group);
            let data: Vec<Vec<u8>> = (0..rs.data_shards())
                .map(|s| (0..shard_len).map(|b| (s * 31 + b * 7) as u8).collect())
                .collect();
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let start = Instant::now();
            for _ in 0..REPS {
                black_box(rs.encode(black_box(&refs)));
            }
            let per_encode = start.elapsed().as_secs_f64() / f64::from(REPS);
            let encodes: u64 = spans
                .iter()
                .map(|(_, span)| t.span_delta(span, "checkpoint.encode_group_ns.count"))
                .sum();
            encode_s += per_encode * encodes as f64 / ops;
            parity_bytes += (encodes * (rs.parity_shards() * shard_len) as u64) as f64 / ops;
        }
        extra.insert("erasure.encode_s", encode_s);
        extra.insert("erasure.parity_bytes", parity_bytes);
    }

    fn ranks() -> usize {
        NODES * PPN
    }
}

impl Drop for ClusterReplay {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

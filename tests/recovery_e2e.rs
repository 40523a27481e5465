//! End-to-end recovery scenarios across the whole stack: checkpointing,
//! erasure coding, message logging, rollback and replay, under different
//! clustering schemes and failure patterns. Every scenario runs through
//! the live [`ReplayEngine`] and must finish bit-identical to the
//! engine's uninterrupted reference run.

use hcft::prelude::*;
use hcft::tsunami::sequential::SequentialSim;
use hcft::tsunami::RankState;

struct TempDir(std::path::PathBuf);
impl TempDir {
    fn new() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "hcft-e2e-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&p).expect("temp dir");
        TempDir(p)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn chain_graph(nodes: usize) -> WeightedGraph {
    let mut m = CommMatrix::new(nodes);
    for a in 0..nodes - 1 {
        m.add(a, a + 1, 100);
        m.add(a + 1, a, 100);
    }
    WeightedGraph::from_comm_matrix(&m)
}

/// L1 clusters of 4 consecutive nodes (chain partition), L2 groups of 4
/// nodes inside them.
fn hier_scheme(placement: &Placement) -> ClusteringScheme {
    hierarchical(
        placement,
        &chain_graph(placement.nodes()),
        &HierarchicalConfig {
            min_nodes_per_l1: 4,
            max_nodes_per_l1: 4,
            l2_group_nodes: 4,
            ..Default::default()
        },
    )
}

/// A tsunami engine on `grid` with encoded checkpoints every `cadence`
/// iterations, reporting into its own registry.
fn engine(
    dir: &TempDir,
    placement: Placement,
    scheme: ClusteringScheme,
    grid: (usize, usize),
    cadence: u64,
) -> ReplayEngine<TsunamiWorkload> {
    let mut cfg = ReplayConfig::new(dir.0.clone());
    cfg.checkpoint_every = cadence;
    ReplayEngine::with_telemetry(
        TsunamiWorkload::new(TsunamiParams::stable(grid.0, grid.1)),
        placement,
        scheme,
        cfg,
        Registry::new(),
    )
}

/// The hierarchical 16 nodes × 4 ranks engine most scenarios use.
fn hier_engine(dir: &TempDir, grid: (usize, usize), cadence: u64) -> ReplayEngine<TsunamiWorkload> {
    let placement = Placement::block(16, 4);
    let scheme = hier_scheme(&placement);
    engine(dir, placement, scheme, grid, cadence)
}

/// Assemble the global η field from per-rank tsunami payloads: restore
/// each into a [`RankState`] and place its local block by its
/// decomposition.
fn global_eta(grid: (usize, usize), payloads: &[Vec<u8>]) -> Vec<f64> {
    let params = TsunamiParams::stable(grid.0, grid.1);
    let mut global = vec![0.0f64; grid.0 * grid.1];
    for (r, payload) in payloads.iter().enumerate() {
        let mut st = RankState::new(&params, payloads.len(), r);
        st.restore_state(payload).expect("valid payload");
        let d = st.decomp();
        let local = st.local_eta();
        for j in 0..d.lny {
            for i in 0..d.lnx {
                global[(d.y0 + j) * grid.0 + d.x0 + i] = local[j * d.lnx + i];
            }
        }
    }
    global
}

#[test]
fn repeated_failures_across_epochs() {
    // One failure per checkpoint epoch, each in its own run against the
    // same uninterrupted reference: the rollback point moves with the
    // failure while the finished run stays bit-identical.
    let dir = TempDir::new();
    let eng = hier_engine(&dir, (48, 48), 6);
    let reference = eng.reference(40);
    for (node, at, rollback) in [(3u32, 8u64, 6u64), (9, 20, 18), (14, 29, 24)] {
        let run_dir = TempDir::new();
        let eng = hier_engine(&run_dir, (48, 48), 6);
        let out = eng
            .run(&FaultScenario::node_loss(NodeId(node), at), 40)
            .expect("recover");
        assert_eq!(out.recovered_phase, rollback, "node {node} at {at}");
        assert_eq!(out.restart_set.len(), 16, "one L1 cluster restarts");
        assert!(
            out.matches(&reference),
            "divergence after failure of node {node} at iteration {at}"
        );
    }
}

#[test]
fn node_failure_restarts_one_hierarchical_l1_cluster() {
    let dir = TempDir::new();
    let eng = hier_engine(&dir, (32, 32), 5);
    let reference = eng.reference(20);
    for at in [7u64, 13] {
        let run_dir = TempDir::new();
        let eng = hier_engine(&run_dir, (32, 32), 5);
        let out = eng
            .run(&FaultScenario::node_loss(NodeId(5), at), 20)
            .expect("recover");
        assert_eq!(out.failed_ranks.len(), 4, "one node of 4 ranks dies");
        // Hierarchical: exactly one L1 cluster (4 nodes × 4 ranks).
        assert_eq!(out.restart_set.len(), 16);
        assert!(out.matches(&reference), "divergence after a kill at {at}");
    }
}

#[test]
fn failure_on_a_checkpoint_phase_replays_nothing() {
    let dir = TempDir::new();
    let eng = hier_engine(&dir, (32, 32), 5);
    let reference = eng.reference(12);
    // A checkpoint lands at exactly 10, the failure phase.
    let out = eng
        .run(&FaultScenario::node_loss(NodeId(0), 10), 12)
        .expect("recover");
    assert_eq!(out.recovered_phase, 10);
    assert_eq!(out.catchup_steps, 0);
    assert_eq!(out.messages_replayed, 0);
    assert!(out.matches(&reference));
}

#[test]
fn two_node_failure_in_one_l1_cluster_restarts_that_cluster() {
    let dir = TempDir::new();
    let eng = hier_engine(&dir, (32, 32), 5);
    let reference = eng.reference(10);
    // Nodes 4 and 5 are in the same L1 cluster (chain partition into
    // consecutive quads) and the same L2 groups — RS(4,4) tolerates two
    // lost nodes.
    let out = eng
        .run(
            &FaultScenario::at(8).nodes(&[NodeId(4), NodeId(5)]).build(),
            10,
        )
        .expect("recover");
    assert_eq!(out.restart_set.len(), 16, "one L1 cluster restarts");
    assert!(out.matches(&reference));
}

#[test]
fn simultaneous_failures_in_different_l1_clusters() {
    let dir = TempDir::new();
    let eng = hier_engine(&dir, (32, 32), 5);
    let reference = eng.reference(12);
    // Nodes 1 and 13 live in different L1 clusters: both clusters roll
    // back, everything else stays.
    let out = eng
        .run(
            &FaultScenario::at(9).nodes(&[NodeId(1), NodeId(13)]).build(),
            12,
        )
        .expect("recover");
    assert_eq!(
        out.restart_set.len(),
        32,
        "two L1 clusters of 16 ranks each"
    );
    assert!(out.matches(&reference));
}

#[test]
fn distributed_scheme_amplifies_the_restart_set() {
    let dir = TempDir::new();
    let placement = Placement::block(8, 2);
    let scheme = distributed(&placement, 4);
    let eng = engine(&dir, placement, scheme, (16, 16), 4);
    let reference = eng.reference(8);
    let out = eng
        .run(&FaultScenario::node_loss(NodeId(3), 6), 8)
        .expect("recover");
    // Node 3's 2 ranks belong to 2 different distributed clusters of 4,
    // which together span 8 ranks of 16 — the paper's restart
    // amplification, live.
    assert_eq!(out.restart_set.len(), 8);
    assert!(out.matches(&reference));
}

#[test]
fn l1_cluster_target_kills_all_its_nodes() {
    // Needs L2 groups that stride across L1 clusters: with the
    // hierarchical scheme (L2 inside L1), a whole-cluster kill is
    // catastrophic by construction.
    let dir = TempDir::new();
    let placement = Placement::block(16, 4);
    let scheme = striped(&placement, 4, 8);
    let eng = engine(&dir, placement, scheme, (32, 32), 5);
    let reference = eng.reference(15);
    let out = eng
        .run(&FaultScenario::at(13).l1_cluster_of(Rank(20)).build(), 15)
        .expect("recover");
    assert_eq!(
        out.failed_ranks.len(),
        16,
        "whole L1 cluster (4 nodes x 4 ranks)"
    );
    assert_eq!(out.restart_set.len(), 16);
    assert!(out.matches(&reference));
}

#[test]
fn same_node_encoding_clusters_hit_the_catastrophic_path() {
    // The size-guided pathology, end to end: encoding clusters equal to
    // nodes mean a node failure destroys data + parity together.
    let dir = TempDir::new();
    let placement = Placement::block(8, 4);
    let scheme = size_guided(32, 4); // 4 consecutive ranks = exactly one node
    let scenario = FaultScenario::node_loss(NodeId(2), 6);
    assert!(
        scenario
            .is_catastrophic(&placement, &scheme, None)
            .expect("in range"),
        "same-node encoding clusters are defeated by one node loss"
    );
    let eng = engine(&dir, placement, scheme, (32, 32), 4);
    match eng.run(&scenario, 8) {
        Err(HcftError::Erasure { needed, available }) => {
            assert!(
                available < needed,
                "catastrophic means fewer surviving shards ({available}) \
                 than the decoder needs ({needed})"
            );
        }
        other => panic!("expected catastrophic failure, got {other:?}"),
    }
}

#[test]
fn telemetry_journal_narrates_a_kill_rebuild_drill() {
    // The observability cross-checks: one injected failure must produce
    // exactly one event of each recovery stage, the rebuilt checkpoint
    // bytes must equal the bytes the dead node lost, and the
    // decode-matrix cache must not miss more often than there are
    // distinct erasure patterns.
    let dir = TempDir::new();
    let eng = hier_engine(&dir, (32, 32), 5);
    let reg = eng.telemetry().clone();
    let reference = eng.reference(15);
    let out = eng
        .run(&FaultScenario::node_loss(NodeId(5), 13), 15)
        .expect("recover");
    assert!(out.matches(&reference));
    reg.event(
        EventKind::Verified,
        out.scenario_phase,
        "bit-identical to uninterrupted reference",
    );

    // Exactly one failure/recovery narrative, in causal order.
    let journal = reg.journal();
    let stages = [
        EventKind::NodeFailure,
        EventKind::DeadRanks,
        EventKind::RebuildComplete,
        EventKind::ReplayComplete,
        EventKind::RecoveryComplete,
        EventKind::Verified,
    ];
    let mut last_wall = 0;
    for kind in stages {
        let events = journal.events_of(kind);
        assert_eq!(events.len(), 1, "exactly one {kind:?} event");
        assert!(events[0].wall_ns >= last_wall, "{kind:?} out of order");
        last_wall = events[0].wall_ns;
    }
    assert_eq!(
        journal.events_of(EventKind::NodeFailure)[0].virt,
        13,
        "failure injected at phase 13"
    );

    // The rebuilt checkpoint payloads equal what the dead node lost. A
    // rank's payload size does not change over the run, so the lost
    // bytes are the reference payload sizes of the failed ranks.
    let lost: u64 = out
        .failed_ranks
        .iter()
        .map(|r| reference[r.idx()].len() as u64)
        .sum();
    let rebuilt = reg.counter("checkpoint.rebuilt_payload_bytes").get();
    assert!(lost > 0, "the dead node held checkpointed state");
    assert_eq!(rebuilt, lost, "rebuilt bytes == lost checkpoint bytes");

    // Decode matrices are cached per erasure pattern: one node failure
    // is one pattern per L2 group, and every group in the failed L1
    // cluster shares the same member-index pattern.
    let misses = reg.counter("checkpoint.decode_cache.misses").get();
    assert!(misses >= 1, "at least one decode matrix was built");
    assert!(
        misses <= 1,
        "one erasure pattern must build at most one decode matrix \
         per distinct (pattern, code) pair, got {misses} misses"
    );
}

#[test]
fn pfs_level_checkpoint_rescues_the_catastrophic_case() {
    // Same pathology, but with a manual PFS-level checkpoint taken — the
    // multi-level hierarchy's last line of defence.
    let dir = TempDir::new();
    let placement = Placement::block(8, 4);
    let store = CheckpointStore::create(&dir.0, 8).expect("store");
    let groups = size_guided(32, 4).l2;
    let ml = MultilevelCheckpointer::new(store, groups, placement.clone());
    let payloads: Vec<Vec<u8>> = (0..32).map(|r| vec![r as u8; 64]).collect();
    ml.checkpoint(1, Level::Pfs, &payloads).expect("ckpt");
    ml.store().fail_node(NodeId(2)).expect("kill");
    let recovered = ml.recover(1).expect("PFS fallback");
    assert_eq!(recovered, payloads);
}

#[test]
fn engine_reference_and_sequential_solver_agree_bit_for_bit() {
    // The engine's uninterrupted reference runs the message-passing
    // solver kernel rank by rank; its assembled field must equal the
    // single-process sequential solver's exactly.
    let dir = TempDir::new();
    let placement = Placement::block(4, 4);
    let grid = (32, 32);
    let eng = engine(&dir, placement, naive(16, 4), grid, 5);
    let mut seq = SequentialSim::new(TsunamiParams::stable(grid.0, grid.1));
    seq.run(20);
    assert_eq!(global_eta(grid, &eng.reference(20)), seq.eta);
}

mod recovery_fuzz {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    const GRID: (usize, usize) = (32, 32);
    const STEPS: u64 = 35;

    /// 16 nodes × 2 ranks, hierarchical L1 clusters of 4 nodes.
    fn fuzz_engine(dir: &TempDir, cadence: u64) -> ReplayEngine<TsunamiWorkload> {
        let placement = Placement::block(16, 2);
        let scheme = hier_scheme(&placement);
        engine(dir, placement, scheme, GRID, cadence)
    }

    /// One ground truth for every case: the uninterrupted trajectory
    /// does not depend on the cadence or the failure drawn.
    fn reference() -> &'static Vec<Vec<u8>> {
        static REF: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
        REF.get_or_init(|| {
            let dir = TempDir::new();
            fuzz_engine(&dir, 5).reference(STEPS)
        })
    }

    #[test]
    fn failure_before_first_cadence_point_recovers_from_phase_zero() {
        // Cadence 6, node 0 killed at phase 5: no periodic checkpoint has
        // landed yet, so recovery must use the initial (phase-0) epoch.
        let dir = TempDir::new();
        let out = fuzz_engine(&dir, 6)
            .run(&FaultScenario::node_loss(NodeId(0), 5), STEPS)
            .expect("recover");
        assert_eq!(out.recovered_phase, 0);
        assert!(out.matches(reference()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Random single failures: arbitrary checkpoint cadence, kill
        /// time and victim node — the finished run must always equal
        /// the uninterrupted reference, bit for bit.
        #[test]
        fn random_failure_scenarios_recover_exactly(
            cadence in 3u64..8,
            at in 5u64..30,
            node in 0u32..16,
        ) {
            let dir = TempDir::new();
            let out = fuzz_engine(&dir, cadence)
                .run(&FaultScenario::node_loss(NodeId(node), at), STEPS)
                .expect("recover");
            prop_assert_eq!(out.recovered_phase, at / cadence * cadence);
            prop_assert!(
                out.matches(reference()),
                "divergence after killing node {} at {} (cadence {})",
                node,
                at,
                cadence
            );
        }
    }
}

//! Failure drill: run the tsunami workload with the full FT stack live,
//! kill a node mid-run, and watch the hierarchical clustering recover —
//! Reed–Solomon rebuild, single-L1-cluster rollback, log-served replay —
//! ending with a field bit-identical to an uninterrupted run.
//!
//! ```text
//! cargo run --release --example failure_drill
//! ```

use hcft::prelude::*;
use hcft::tsunami::sequential::SequentialSim;
use hcft::tsunami::RankState;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nodes = 16;
    let ppn = 4;
    let placement = Placement::block(nodes, ppn);
    let grid = (64, 64);
    let (fail_at, total) = (25, 40);

    // Hierarchical clustering over a synthetic chain node-graph (in a
    // real deployment this comes from a traced run — see `quickstart`).
    let mut m = CommMatrix::new(nodes);
    for a in 0..nodes - 1 {
        m.add(a, a + 1, 1_000);
        m.add(a + 1, a, 1_000);
    }
    let node_graph = WeightedGraph::from_comm_matrix(&m);
    let scheme = hierarchical(
        &placement,
        &node_graph,
        &HierarchicalConfig {
            min_nodes_per_l1: 4,
            max_nodes_per_l1: 4,
            l2_group_nodes: 4,
            ..Default::default()
        },
    );
    println!(
        "clustering: {} L1 clusters (containment), {} L2 clusters (encoding)",
        scheme.l1.len(),
        scheme.l2.len()
    );

    let store = std::env::temp_dir().join(format!("hcft-drill-example-{}", std::process::id()));
    let mut cfg = ReplayConfig::new(&store);
    cfg.checkpoint_every = 10;
    let params = TsunamiParams::stable(grid.0, grid.1);
    let engine = ReplayEngine::new(TsunamiWorkload::new(params.clone()), placement, scheme, cfg);

    println!(
        "running {total} iterations with encoded checkpoints every 10; \
         killing node 7 (in-memory state + on-disk checkpoints) at iteration {fail_at}…"
    );
    let out = engine.run(&FaultScenario::node_loss(NodeId(7), fail_at), total)?;
    let _ = std::fs::remove_dir_all(&store);
    println!("  dead ranks: {:?}", out.failed_ranks);
    println!(
        "recovered: {} ranks rolled back to iteration {} (one L1 cluster of 4 nodes), \
         {} logged halos ({} bytes) replayed",
        out.restart_set.len(),
        out.recovered_phase,
        out.messages_replayed,
        out.bytes_replayed
    );

    // Verify against an uninterrupted run — bit for bit, both the
    // engine's own reference and the sequential solver's field.
    assert!(out.matches(&engine.reference(total)));
    let mut reference = SequentialSim::new(params.clone());
    reference.run(total);
    let mut eta = vec![0.0f64; grid.0 * grid.1];
    for (r, payload) in out.final_state.iter().enumerate() {
        let mut st = RankState::new(&params, out.final_state.len(), r);
        st.restore_state(payload)?;
        let d = st.decomp();
        let local = st.local_eta();
        for j in 0..d.lny {
            for i in 0..d.lnx {
                eta[(d.y0 + j) * grid.0 + d.x0 + i] = local[j * d.lnx + i];
            }
        }
    }
    assert_eq!(eta, reference.eta);
    println!(
        "verification: field at iteration {total} is BIT-IDENTICAL to an uninterrupted run. \
         Drill complete."
    );
    Ok(())
}

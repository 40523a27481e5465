//! P(catastrophic failure) for a clustering + placement.
//!
//! An encoding cluster of size `s` protected by FTI-style Reed–Solomon
//! tolerates up to `t = ⌈s/2⌉` missing members (see
//! `hcft_erasure::ReedSolomon::fti_for_group`). A failure event that takes
//! down a set `F` of nodes destroys, in each cluster, the members placed
//! on `F`; the event is catastrophic iff some cluster loses more than `t`
//! members.
//!
//! Computation per event cardinality `j`:
//! * `j = 1` and `j = 2` — exact enumeration;
//! * `j ≥ 3` — exact per-cluster probability via a knapsack DP over the
//!   cluster's occupied nodes combined with hypergeometric weights, then
//!   a union bound across clusters (tight for the small probabilities
//!   where it is used; replaced by Monte Carlo when the bound is loose).
//!
//! The Monte-Carlo estimator is an allocation-free kernel: a persistent
//! partial Fisher–Yates pool per chunk (restored by undoing its swaps)
//! feeds a node → cluster incidence, so one sample costs `O(j)` draws
//! plus the failed nodes' incidence rows. It consumes each chunk's RNG
//! exactly like `rand::seq::index::sample`, so its estimates are
//! bit-identical to sampling a fresh index set per draw.

use hcft_graph::Clustering;
use hcft_topology::Placement;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rayon::prelude::*;

use crate::combinatorics::choose;
use crate::events::EventDistribution;

/// FTI's Reed–Solomon tolerance for an encoding cluster of `s` members:
/// half the cluster (rounded up) may vanish.
pub fn fti_tolerance(s: usize) -> usize {
    s.div_ceil(2)
}

/// Per-cluster placement digest: which nodes hold how many members.
struct ClusterNodes {
    /// (node, member count), nodes distinct.
    counts: Vec<(usize, u32)>,
    /// Erasure tolerance of this cluster.
    tolerance: u32,
}

/// Seed offset of the Monte-Carlo fallback inside `p_catastrophic`.
const MC_SEED: u64 = 0x9e3779b97f4a7c15;
/// Samples per Monte-Carlo fallback inside `p_catastrophic`.
const MC_SAMPLES: usize = 16_000;
/// Independent RNG streams per Monte-Carlo estimate; chunk `c` is
/// seeded `seed + c`.
const MC_CHUNKS: usize = 8;

/// Samples drawn by chunk `c`: an even split, with the first
/// `samples % MC_CHUNKS` chunks drawing one extra so every requested
/// sample is drawn.
fn chunk_len(samples: usize, c: usize) -> usize {
    samples / MC_CHUNKS + usize::from(c < samples % MC_CHUNKS)
}

/// Node → (cluster, member count) incidence in CSR form. Row `n` lists
/// every cluster with members on node `n`, so a sample's test walks
/// only its failed nodes' rows instead of every cluster's node list.
struct Incidence {
    /// Row `n` is `entries[offsets[n]..offsets[n + 1]]`.
    offsets: Vec<u32>,
    /// (cluster index, members on the node).
    entries: Vec<(u32, u32)>,
    /// Erasure tolerance per cluster index.
    tolerance: Vec<u32>,
}

impl Incidence {
    fn new<'a>(nodes: usize, digests: impl Iterator<Item = &'a ClusterNodes> + Clone) -> Self {
        let mut offsets = vec![0u32; nodes + 1];
        for d in digests.clone() {
            for &(node, _) in &d.counts {
                offsets[node + 1] += 1;
            }
        }
        for n in 0..nodes {
            offsets[n + 1] += offsets[n];
        }
        let mut fill = offsets.clone();
        let mut entries = vec![(0u32, 0u32); offsets[nodes] as usize];
        let mut tolerance = Vec::new();
        for (c, d) in digests.enumerate() {
            for &(node, cnt) in &d.counts {
                entries[fill[node] as usize] = (c as u32, cnt);
                fill[node] += 1;
            }
            tolerance.push(d.tolerance);
        }
        Incidence {
            offsets,
            entries,
            tolerance,
        }
    }

    fn nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn row(&self, node: u32) -> &[(u32, u32)] {
        let n = node as usize;
        &self.entries[self.offsets[n] as usize..self.offsets[n + 1] as usize]
    }
}

/// One Monte-Carlo chunk's reusable state. Every buffer returns to its
/// resting state after each sample, so a chunk allocates once however
/// many samples it draws.
struct McScratch {
    /// Identity permutation of `0..nodes` between samples; during a
    /// sample, `pool[..j]` is the failed set.
    pool: Vec<u32>,
    /// Swap targets of the current draw, for the undo pass.
    swaps: Vec<u32>,
    /// Members lost per cluster; all zero between samples.
    lost: Vec<u32>,
    /// Clusters charged by the current sample, for the reset. Distinct
    /// failed nodes touch each incidence entry at most once, so one slot
    /// per entry always suffices.
    touched: Vec<u32>,
}

impl McScratch {
    fn new(inc: &Incidence, j: usize) -> Self {
        McScratch {
            pool: (0..inc.nodes() as u32).collect(),
            swaps: vec![0; j],
            lost: vec![0; inc.tolerance.len()],
            touched: vec![0; inc.entries.len()],
        }
    }

    /// Draw `j` distinct nodes into `pool[..j]`, consuming `rng` exactly
    /// like `rand::seq::index::sample(rng, nodes, j)`: a partial
    /// Fisher–Yates whose step `i` swaps `i` with `i + next_u64() %
    /// (nodes − i)`. Call [`McScratch::undo`] before the next draw.
    #[inline]
    fn draw<R: RngCore>(&mut self, rng: &mut R, j: usize) {
        let n = self.pool.len();
        for (i, swap) in self.swaps[..j].iter_mut().enumerate() {
            let k = i + (rng.next_u64() % (n - i) as u64) as usize;
            self.pool.swap(i, k);
            *swap = k as u32;
        }
    }

    /// Undo the last draw's swaps in reverse: `pool` is the identity
    /// permutation again.
    #[inline]
    fn undo(&mut self, j: usize) {
        for (i, &k) in self.swaps[..j].iter().enumerate().rev() {
            self.pool.swap(i, k as usize);
        }
    }

    /// Does the current draw's failed set `pool[..j]` take more than its
    /// tolerance from some cluster of `inc`? Adds each failed node's
    /// incidence row into `lost`, then zeroes only the counters it
    /// touched.
    #[inline]
    fn catastrophic(&mut self, inc: &Incidence, j: usize) -> bool {
        let mut dead = false;
        let mut touched = 0;
        for &f in &self.pool[..j] {
            for &(c, cnt) in inc.row(f) {
                let lost = &mut self.lost[c as usize];
                *lost += cnt;
                dead |= *lost > inc.tolerance[c as usize];
                self.touched[touched] = c;
                touched += 1;
            }
        }
        for &c in &self.touched[..touched] {
            self.lost[c as usize] = 0;
        }
        dead
    }
}

/// Catastrophic draws among chunk `c`'s share of `samples` `j`-node
/// events (`1 ≤ j ≤ nodes`), drawn from the stream seeded `seed + c`.
fn chunk_hits(inc: &Incidence, j: usize, samples: usize, seed: u64, c: usize) -> usize {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(c as u64));
    let mut scratch = McScratch::new(inc, j);
    let mut hits = 0usize;
    for _ in 0..chunk_len(samples, c) {
        scratch.draw(&mut rng, j);
        hits += usize::from(scratch.catastrophic(inc, j));
        scratch.undo(j);
    }
    hits
}

/// Monte-Carlo estimates of q(j) over `inc`'s clusters for every event
/// class in `js` (parallel, deterministic per seed): the fraction of
/// `samples` uniform `j`-node events that are catastrophic, `0.0` when
/// `j == 0`, `j > nodes` or `samples == 0`. Every class's chunks share
/// one parallel region; a class's estimate does not depend on the
/// other classes in `js`.
fn monte_carlo_qs(inc: &Incidence, js: &[usize], samples: usize, seed: u64) -> Vec<f64> {
    let sampled = |j: usize| j > 0 && j <= inc.nodes() && samples > 0;
    // Chunk-major order: a contiguous split of the region hands each
    // worker the same chunks of every class, so larger-j classes do not
    // pile onto one worker.
    let hits: Vec<usize> = (0..MC_CHUNKS * js.len())
        .into_par_iter()
        .map(|item| {
            let j = js[item % js.len()];
            if sampled(j) {
                chunk_hits(inc, j, samples, seed, item / js.len())
            } else {
                0
            }
        })
        .collect();
    js.iter()
        .enumerate()
        .map(|(class, &j)| {
            if sampled(j) {
                let class_hits: usize = hits.iter().skip(class).step_by(js.len()).sum();
                class_hits as f64 / samples as f64
            } else {
                0.0
            }
        })
        .collect()
}

/// The j-invariant facts every event class of one `p_catastrophic`
/// shares, computed once per clustering instead of once per class.
struct DigestSet {
    digests: Vec<ClusterNodes>,
    /// `bad[n]` = does losing node `n` alone kill some cluster?
    bad: Vec<bool>,
    /// Number of singly-bad nodes.
    bad_count: usize,
    /// Indices of the digests touching no singly-bad node.
    residual: Vec<usize>,
    /// Incidence over the residual digests: the Monte-Carlo fallback's
    /// cluster set (all digests when no node is singly bad).
    residual_incidence: Incidence,
}

impl DigestSet {
    fn new(nodes: usize, digests: Vec<ClusterNodes>) -> Self {
        let mut bad = vec![false; nodes];
        for d in &digests {
            for &(node, cnt) in &d.counts {
                if cnt > d.tolerance {
                    bad[node] = true;
                }
            }
        }
        let bad_count = bad.iter().filter(|&&b| b).count();
        let residual: Vec<usize> = (0..digests.len())
            .filter(|&i| digests[i].counts.iter().all(|&(node, _)| !bad[node]))
            .collect();
        let residual_incidence = Incidence::new(nodes, residual.iter().map(|&i| &digests[i]));
        DigestSet {
            digests,
            bad,
            bad_count,
            residual,
            residual_incidence,
        }
    }
}

/// Where one event class's q(j) comes from.
enum ClassQ {
    /// Settled analytically.
    Exact(f64),
    /// The union bound is loose: q(j) is [`mix`] of the exact probability
    /// (carried here) of hitting a singly-bad node and a Monte-Carlo
    /// estimate over the residual clusters.
    Sampled(f64),
}

/// q(j) from the probability `p_hit_bad` that the event hits a
/// singly-bad node and the probability `q_rest` that it otherwise kills
/// a residual cluster.
fn mix(p_hit_bad: f64, q_rest: f64) -> f64 {
    (p_hit_bad + (1.0 - p_hit_bad) * q_rest).min(1.0)
}

/// Reliability model for one machine size and event distribution.
pub struct ReliabilityModel {
    nodes: usize,
    dist: EventDistribution,
}

impl ReliabilityModel {
    /// A model over `nodes` physical nodes.
    pub fn new(nodes: usize, dist: EventDistribution) -> Self {
        assert!(nodes > 0);
        ReliabilityModel { nodes, dist }
    }

    /// Number of nodes modelled.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    fn digest(
        &self,
        clustering: &Clustering,
        placement: &Placement,
        tolerance: &dyn Fn(usize) -> usize,
    ) -> Vec<ClusterNodes> {
        let mut seen = std::collections::HashSet::new();
        clustering
            .iter()
            .filter_map(|(_, members)| {
                let mut counts: Vec<(usize, u32)> = Vec::new();
                for &r in members {
                    let n = placement.node_of(r).idx();
                    match counts.iter_mut().find(|(node, _)| *node == n) {
                        Some((_, c)) => *c += 1,
                        None => counts.push((n, 1)),
                    }
                }
                counts.sort_unstable();
                let tol = tolerance(members.len()) as u32;
                // Clusters with identical placement signatures live and die
                // together (e.g. the per-slot L2 clusters of one node
                // group); keeping one representative keeps the j≥3 union
                // bound tight instead of over-counting perfectly
                // correlated clusters.
                seen.insert((counts.clone(), tol)).then_some(ClusterNodes {
                    counts,
                    tolerance: tol,
                })
            })
            .collect()
    }

    /// Probability that a uniformly random `j`-node failure event is
    /// catastrophic for this clustering.
    pub fn q_given_j(
        &self,
        j: usize,
        clustering: &Clustering,
        placement: &Placement,
        tolerance: &dyn Fn(usize) -> usize,
    ) -> f64 {
        let set = DigestSet::new(self.nodes, self.digest(clustering, placement, tolerance));
        self.q_classes(&[j], &set)[0]
    }

    /// q(j) for every class in `js`. The classes the union bound cannot
    /// settle share one parallel Monte-Carlo region instead of spawning
    /// one each.
    fn q_classes(&self, js: &[usize], set: &DigestSet) -> Vec<f64> {
        let classes: Vec<ClassQ> = js.iter().map(|&j| self.q_class(j, set)).collect();
        let sampled: Vec<usize> = js
            .iter()
            .zip(&classes)
            .filter(|(_, class)| matches!(class, ClassQ::Sampled(_)))
            .map(|(&j, _)| j)
            .collect();
        let mut q_rest =
            monte_carlo_qs(&set.residual_incidence, &sampled, MC_SAMPLES, MC_SEED).into_iter();
        classes
            .into_iter()
            .map(|class| match class {
                ClassQ::Exact(q) => q,
                ClassQ::Sampled(p_hit_bad) => {
                    let q_rest = q_rest.next().expect("one estimate per sampled class");
                    mix(p_hit_bad, q_rest.min(1.0))
                }
            })
            .collect()
    }

    fn q_class(&self, j: usize, set: &DigestSet) -> ClassQ {
        let n = self.nodes;
        if j == 0 || j > n {
            return ClassQ::Exact(0.0);
        }
        let bad = &set.bad;
        let b = set.bad_count;
        ClassQ::Exact(match j {
            1 => b as f64 / n as f64,
            2 => {
                // Pairs touching a singly-bad node are bad outright.
                let pairs_with_bad = choose(n, 2) - choose(n - b, 2);
                // Plus pairs of individually-safe nodes that jointly
                // overwhelm some cluster.
                let mut joint: std::collections::HashSet<(usize, usize)> =
                    std::collections::HashSet::new();
                for d in &set.digests {
                    for a in 0..d.counts.len() {
                        for c in (a + 1)..d.counts.len() {
                            let (na, ca) = d.counts[a];
                            let (nc, cc) = d.counts[c];
                            if bad[na] || bad[nc] {
                                continue;
                            }
                            if ca + cc > d.tolerance {
                                joint.insert((na.min(nc), na.max(nc)));
                            }
                        }
                    }
                }
                (pairs_with_bad + joint.len() as f64) / choose(n, 2)
            }
            _ => {
                // Split off the nodes whose loss is *alone* catastrophic:
                // any j-subset touching one of them is catastrophic, a
                // hypergeometric term we can compute exactly. The rest of
                // the probability comes from clusters that need multiple
                // correlated losses, where the per-cluster union bound is
                // tight (and Monte Carlo covers the loose remainder).
                let p_hit_bad = 1.0 - choose(n - b, j) / choose(n, j);
                let union: f64 = set
                    .residual
                    .iter()
                    .map(|&i| self.q_cluster_exact(j, &set.digests[i]))
                    .sum();
                if union > 0.1 {
                    // Large multi-node-driven probability: sample the
                    // residual structure (every cluster when b == 0, where
                    // p_hit_bad is exactly 0).
                    return ClassQ::Sampled(p_hit_bad);
                }
                mix(p_hit_bad, union)
            }
        })
    }

    /// Exact P(cluster dies | j uniformly-random node failures):
    /// Σ_r D_r · C(N−m, j−r) / C(N, j) with D_r counted by knapsack DP.
    fn q_cluster_exact(&self, j: usize, d: &ClusterNodes) -> f64 {
        let m = d.counts.len();
        let t = d.tolerance as usize;
        // ways[r][s] = number of r-subsets of the occupied nodes whose
        // member sum is s (sums capped at t+1: "already dead").
        let cap = t + 1;
        let mut ways = vec![vec![0.0f64; cap + 1]; m + 1];
        ways[0][0] = 1.0;
        for &(_, cnt) in &d.counts {
            let cnt = cnt as usize;
            for r in (0..m).rev() {
                for s in 0..=cap {
                    let w = ways[r][s];
                    if w == 0.0 {
                        continue;
                    }
                    let ns = (s + cnt).min(cap);
                    ways[r + 1][ns] += w;
                }
            }
        }
        let n = self.nodes;
        let mut q = 0.0;
        let denom = choose(n, j);
        for (r, row) in ways.iter().enumerate() {
            let dead = row[cap]; // sum > t
            if dead > 0.0 && r <= j {
                q += dead * choose(n - m, j - r) / denom;
            }
        }
        q
    }

    /// Public Monte-Carlo estimator (for cross-validating the analytic
    /// path in tests and benches). Draws exactly `samples` `j`-node
    /// events; returns `0.0` when `j == 0`, `j > nodes` or
    /// `samples == 0`.
    pub fn q_given_j_monte_carlo(
        &self,
        j: usize,
        clustering: &Clustering,
        placement: &Placement,
        tolerance: &dyn Fn(usize) -> usize,
        samples: usize,
        seed: u64,
    ) -> f64 {
        let digests = self.digest(clustering, placement, tolerance);
        monte_carlo_qs(
            &Incidence::new(self.nodes, digests.iter()),
            &[j],
            samples,
            seed,
        )[0]
    }

    /// Probability that a random failure event (drawn from the event
    /// distribution) is catastrophic — the paper's reliability metric
    /// (Fig. 4a, Table II last column).
    pub fn p_catastrophic(
        &self,
        clustering: &Clustering,
        placement: &Placement,
        tolerance: &dyn Fn(usize) -> usize,
    ) -> f64 {
        let set = DigestSet::new(self.nodes, self.digest(clustering, placement, tolerance));
        let p_nodes = &self.dist.p_nodes;
        let js: Vec<usize> = (1..=p_nodes.len())
            .filter(|&j| p_nodes[j - 1] != 0.0)
            .collect();
        let mut qs = self.q_classes(&js, &set).into_iter();
        p_nodes
            .iter()
            .map(|&p| {
                if p == 0.0 {
                    0.0
                } else {
                    p * qs.next().expect("one q per weighted class")
                }
            })
            .sum()
    }
}

/// Convenience: P(catastrophic) with the FTI half-cluster tolerance and
/// the FTI-calibrated event distribution.
pub fn p_catastrophic_fti(nodes: usize, clustering: &Clustering, placement: &Placement) -> f64 {
    ReliabilityModel::new(nodes, EventDistribution::fti_calibrated()).p_catastrophic(
        clustering,
        placement,
        &fti_tolerance,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcft_graph::Clustering;
    use hcft_topology::{NodeId, Placement};
    use proptest::prelude::*;
    use rand::seq::index::sample;
    use rand::Rng;

    /// The estimator the kernel replaced, kept as its oracle: a fresh
    /// `index::sample` set and `nodes`-sized mask per draw, then a scan
    /// of every digest's node list. Returns the hit count. Chunks split
    /// the samples like [`chunk_len`]; for multiples of [`MC_CHUNKS`]
    /// that is the old even split.
    fn monte_carlo_hits_reference(
        nodes: usize,
        j: usize,
        digests: &[ClusterNodes],
        samples: usize,
        seed: u64,
    ) -> usize {
        (0..MC_CHUNKS)
            .into_par_iter()
            .map(|c| {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(c as u64));
                let mut local = 0usize;
                for _ in 0..chunk_len(samples, c) {
                    let failed = sample(&mut rng, nodes, j);
                    let mut failed_mask = vec![false; nodes];
                    for f in failed.iter() {
                        failed_mask[f] = true;
                    }
                    let dead = digests.iter().any(|d| {
                        let lost: u32 = d
                            .counts
                            .iter()
                            .filter(|&&(node, _)| failed_mask[node])
                            .map(|&(_, c)| c)
                            .sum();
                        lost > d.tolerance
                    });
                    if dead {
                        local += 1;
                    }
                }
                local
            })
            .sum()
    }

    /// A random placement of `ranks` ranks over `nodes` nodes and a
    /// random clustering of them into at most `clusters` clusters.
    fn random_layout(
        nodes: usize,
        ranks: usize,
        clusters: usize,
        seed: u64,
    ) -> (Clustering, Placement) {
        let mut rng = StdRng::seed_from_u64(seed);
        let node_of: Vec<NodeId> = (0..ranks)
            .map(|_| NodeId::from(rng.random_range(0..nodes)))
            .collect();
        let assignment: Vec<usize> = (0..ranks).map(|_| rng.random_range(0..clusters)).collect();
        (
            Clustering::from_assignment(&assignment),
            Placement::from_assignment(node_of, nodes),
        )
    }

    /// Distributed clustering over a block placement: cluster (g, slot)
    /// takes the slot-th rank of each node in node-group g.
    fn distributed(nodes: usize, ppn: usize, size: usize) -> Clustering {
        let groups = nodes / size;
        let assignment: Vec<usize> = (0..nodes * ppn)
            .map(|r| {
                let node = r / ppn;
                let slot = r % ppn;
                let g = node / size;
                g * ppn + slot
            })
            .collect();
        let _ = groups;
        Clustering::from_assignment(&assignment)
    }

    #[test]
    fn same_node_cluster_dies_on_any_node_failure() {
        // 8 nodes × 8 ppn, clusters of 8 consecutive = whole nodes.
        let p = Placement::block(8, 8);
        let c = Clustering::consecutive(64, 8);
        let m = ReliabilityModel::new(8, EventDistribution::single_node_only());
        let q = m.q_given_j(1, &c, &p, &fti_tolerance);
        assert_eq!(q, 1.0);
        assert_eq!(m.p_catastrophic(&c, &p, &fti_tolerance), 1.0);
    }

    #[test]
    fn two_node_cluster_survives_one_node() {
        // Clusters of 16 consecutive over nodes of 8: span 2 nodes, lose
        // 8 of 16, tolerance 8 → survive.
        let p = Placement::block(8, 8);
        let c = Clustering::consecutive(64, 16);
        let m = ReliabilityModel::new(8, EventDistribution::single_node_only());
        assert_eq!(m.q_given_j(1, &c, &p, &fti_tolerance), 0.0);
        // But any same-cluster pair dies: bad pairs = 4 of C(8,2)=28.
        let q2 = m.q_given_j(2, &c, &p, &fti_tolerance);
        assert!((q2 - 4.0 / 28.0).abs() < 1e-12);
    }

    #[test]
    fn fully_distributed_cluster_needs_majority_loss() {
        // 16 nodes × 4 ppn, distributed clusters of 4 (one rank per node
        // in groups of 4 nodes): tolerance 2, dies only if ≥3 of its 4
        // nodes fail.
        let p = Placement::block(16, 4);
        let c = distributed(16, 4, 4);
        let m = ReliabilityModel::new(16, EventDistribution::single_node_only());
        assert_eq!(m.q_given_j(1, &c, &p, &fti_tolerance), 0.0);
        assert_eq!(m.q_given_j(2, &c, &p, &fti_tolerance), 0.0);
        let q3 = m.q_given_j(3, &c, &p, &fti_tolerance);
        // Bad triples: per node-group C(4,3)=4, 4 groups → 16 of C(16,3)=560.
        // (After signature dedup the union bound is exact here: the four
        // slot clusters of a node group share one signature, and distinct
        // groups cannot both lose 3 nodes within a 3-node event.)
        assert!((q3 - 16.0 / 560.0).abs() < 1e-9, "q3 = {q3}");
    }

    #[test]
    fn analytic_matches_monte_carlo() {
        let p = Placement::block(16, 4);
        let c = distributed(16, 4, 4);
        let m = ReliabilityModel::new(16, EventDistribution::single_node_only());
        for j in [3usize, 4, 5] {
            let analytic = m.q_given_j(j, &c, &p, &fti_tolerance);
            let mc = m.q_given_j_monte_carlo(j, &c, &p, &fti_tolerance, 200_000, 42);
            assert!(
                (analytic - mc).abs() < 0.01 + 0.2 * analytic,
                "j={j}: analytic {analytic} vs MC {mc}"
            );
        }
    }

    #[test]
    fn paper_ordering_of_clusterings() {
        // 64 nodes × 16 ppn (the paper's §V layout, Table II).
        let nodes = 64;
        let ppn = 16;
        let p = Placement::block(nodes, ppn);
        let m = ReliabilityModel::new(nodes, EventDistribution::fti_calibrated());
        // Size-guided: 8 consecutive (half a node) — dies on any node loss.
        let size_guided = Clustering::consecutive(1024, 8);
        // Naïve: 32 consecutive (2 nodes).
        let naive = Clustering::consecutive(1024, 32);
        // Distributed 16: slot clusters over groups of 16 nodes.
        let dist16 = distributed(nodes, ppn, 16);
        // Hierarchical L2: clusters of 4, one rank per node in groups of 4.
        let hier = distributed(nodes, ppn, 4);
        let p_sg = m.p_catastrophic(&size_guided, &p, &fti_tolerance);
        let p_nv = m.p_catastrophic(&naive, &p, &fti_tolerance);
        let p_hi = m.p_catastrophic(&hier, &p, &fti_tolerance);
        let p_ds = m.p_catastrophic(&dist16, &p, &fti_tolerance);
        // Table II: 0.95 / ~1e-4 / ~1e-6 / ~1e-15.
        assert!((p_sg - 0.95).abs() < 1e-9, "size-guided {p_sg}");
        assert!(p_nv > 1e-5 && p_nv < 1e-3, "naive {p_nv}");
        assert!(p_hi > 1e-7 && p_hi < 1e-5, "hierarchical {p_hi}");
        assert!(p_ds < 1e-12, "distributed {p_ds}");
        assert!(p_ds < p_hi && p_hi < p_nv && p_nv < p_sg);
    }

    #[test]
    fn q_is_monotone_in_j() {
        let p = Placement::block(16, 4);
        let c = distributed(16, 4, 4);
        let m = ReliabilityModel::new(16, EventDistribution::single_node_only());
        let mut prev = 0.0;
        for j in 1..=8 {
            let q = m.q_given_j(j, &c, &p, &fti_tolerance);
            assert!(q + 1e-12 >= prev, "q({j}) = {q} < q({}) = {prev}", j - 1);
            prev = q;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn kernel_hit_count_matches_reference(
            nodes in 1usize..=24,
            ranks in 1usize..=64,
            clusters in 1usize..=12,
            layout_seed: u64,
            tol in 0usize..3,
            j_pick: usize,
            seed: u64,
            samples in 0usize..600,
        ) {
            let (c, p) = random_layout(nodes, ranks, clusters, layout_seed);
            let m = ReliabilityModel::new(nodes, EventDistribution::single_node_only());
            let tolerance: &dyn Fn(usize) -> usize = match tol {
                0 => &fti_tolerance,
                1 => &|_| 0,
                _ => &|s| s,
            };
            let j = 1 + j_pick % nodes;
            let digests = m.digest(&c, &p, tolerance);
            let inc = Incidence::new(nodes, digests.iter());
            let reference = monte_carlo_hits_reference(nodes, j, &digests, samples, seed);
            let kernel = monte_carlo_qs(&inc, &[j], samples, seed)[0];
            let expected = if samples == 0 { 0.0 } else { reference as f64 / samples as f64 };
            prop_assert_eq!(kernel.to_bits(), expected.to_bits());
            let public = m.q_given_j_monte_carlo(j, &c, &p, tolerance, samples, seed);
            prop_assert_eq!(public.to_bits(), expected.to_bits());
            // Sharing a parallel region with other classes (including
            // ones outside 1..=nodes) leaves each class's estimate alone.
            let other = 1 + j_pick / nodes % nodes;
            let batch = monte_carlo_qs(&inc, &[0, other, j, nodes + 1], samples, seed);
            let single = monte_carlo_qs(&inc, &[other], samples, seed)[0];
            prop_assert_eq!(batch[1].to_bits(), single.to_bits());
            prop_assert_eq!(batch[2].to_bits(), expected.to_bits());
            prop_assert_eq!((batch[0], batch[3]), (0.0, 0.0));
        }
    }

    #[test]
    fn p_catastrophic_is_the_per_class_sum() {
        // p_catastrophic samples all loose classes in one region; it must
        // equal weighting each class's own q_given_j, bit for bit.
        let mut sampled_any = false;
        for seed in 0..6u64 {
            let (c, p) = random_layout(12, 48, 6, seed);
            let m = ReliabilityModel::new(12, EventDistribution::fti_calibrated());
            let set = DigestSet::new(12, m.digest(&c, &p, &fti_tolerance));
            let per_class: f64 = m
                .dist
                .p_nodes
                .iter()
                .enumerate()
                .map(|(i, &pj)| {
                    sampled_any |= matches!(m.q_class(i + 1, &set), ClassQ::Sampled(_));
                    if pj == 0.0 {
                        0.0
                    } else {
                        pj * m.q_given_j(i + 1, &c, &p, &fti_tolerance)
                    }
                })
                .sum();
            let batched = m.p_catastrophic(&c, &p, &fti_tolerance);
            assert_eq!(batched.to_bits(), per_class.to_bits(), "layout seed {seed}");
        }
        assert!(sampled_any, "no layout reached the Monte-Carlo fallback");
    }

    #[test]
    fn kernel_draws_index_sample_failed_sets() {
        for nodes in [1usize, 2, 7, 32, 129] {
            let inc = Incidence::new(nodes, std::iter::empty());
            for j in [1, 2, nodes / 2, nodes.saturating_sub(1), nodes] {
                if j == 0 || j > nodes {
                    continue;
                }
                let seed = (nodes * 1000 + j) as u64;
                let mut kernel_rng = StdRng::seed_from_u64(seed);
                let mut sample_rng = StdRng::seed_from_u64(seed);
                let mut scratch = McScratch::new(&inc, j);
                for _ in 0..200 {
                    scratch.draw(&mut kernel_rng, j);
                    let drawn: Vec<usize> = scratch.pool[..j].iter().map(|&f| f as usize).collect();
                    assert_eq!(drawn, sample(&mut sample_rng, nodes, j).into_vec());
                    scratch.undo(j);
                    assert!(scratch
                        .pool
                        .iter()
                        .enumerate()
                        .all(|(i, &f)| f as usize == i));
                }
                assert_eq!(kernel_rng.next_u64(), sample_rng.next_u64());
            }
        }
    }

    #[test]
    fn monte_carlo_draws_every_sample_below_chunk_count() {
        // Used to divide by `samples / 8 * 8`: NaN below 8 samples and up
        // to 7 samples silently dropped otherwise.
        let p = Placement::block(8, 8);
        let c = Clustering::consecutive(64, 8);
        let m = ReliabilityModel::new(8, EventDistribution::single_node_only());
        for samples in [1usize, 3, 7, 13] {
            // Whole-node clusters die on any node loss: every draw hits.
            let q = m.q_given_j_monte_carlo(1, &c, &p, &fti_tolerance, samples, 5);
            assert_eq!(q, 1.0, "{samples} samples");
        }
        assert_eq!(
            m.q_given_j_monte_carlo(1, &c, &p, &fti_tolerance, 0, 5),
            0.0
        );
        let total: usize = (0..MC_CHUNKS).map(|c| chunk_len(13, c)).sum();
        assert_eq!(total, 13);
    }

    #[test]
    fn monte_carlo_outside_event_range_is_zero() {
        // j > nodes used to panic inside a rayon worker
        // ("cannot sample 9 indices from 0..8").
        let p = Placement::block(8, 8);
        let c = Clustering::consecutive(64, 8);
        let m = ReliabilityModel::new(8, EventDistribution::single_node_only());
        for j in [0usize, 9, 64] {
            assert_eq!(
                m.q_given_j_monte_carlo(j, &c, &p, &fti_tolerance, 800, 1),
                0.0
            );
            assert_eq!(m.q_given_j(j, &c, &p, &fti_tolerance), 0.0);
        }
    }
}

//! Sparse communication matrix.
//!
//! Cell `(s, d)` holds the number of bytes sent from rank `s` to rank `d`
//! over the traced execution — exactly what the paper extracts from its
//! modified MPICH2. The matrix is overwhelmingly zeros (stencil halos,
//! the encoder ring and O(log n) collective partners per rank: ~1.25 %
//! of cells at the paper's 1088 ranks), so it is stored as one row per
//! sender holding `(receiver, bytes)` pairs sorted by receiver. Memory
//! is proportional to the non-zero cells, which lets the full-TSUBAME2
//! machine (23 936 ranks) be scored without an n² allocation, and every
//! iteration is row-major in `(src, dst)` order.

use hcft_topology::{Placement, Rank};

/// A sparse bytes-communicated matrix over `n` ranks.
///
/// Rows never hold zero cells, so two matrices with the same non-zero
/// cells compare equal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommMatrix {
    /// `rows[src]` = `(dst, bytes)` pairs, strictly ascending by `dst`,
    /// `bytes > 0`.
    rows: Vec<Vec<(u32, u64)>>,
}

impl CommMatrix {
    /// An all-zero matrix over `n` ranks.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "empty communication matrix");
        CommMatrix {
            rows: vec![Vec::new(); n],
        }
    }

    /// Number of ranks.
    #[inline]
    pub fn n(&self) -> usize {
        self.rows.len()
    }

    /// Bytes sent `src → dst`.
    pub fn get(&self, src: usize, dst: usize) -> u64 {
        let row = &self.rows[src];
        match row.binary_search_by_key(&(dst as u32), |&(d, _)| d) {
            Ok(i) => row[i].1,
            Err(_) => 0,
        }
    }

    /// Add `bytes` to the `src → dst` cell.
    pub fn add(&mut self, src: usize, dst: usize, bytes: u64) {
        assert!(dst < self.n(), "destination out of range");
        if bytes == 0 {
            return;
        }
        let row = &mut self.rows[src];
        match row.binary_search_by_key(&(dst as u32), |&(d, _)| d) {
            Ok(i) => row[i].1 += bytes,
            Err(i) => row.insert(i, (dst as u32, bytes)),
        }
    }

    /// Total bytes communicated (sum of all cells).
    pub fn total_bytes(&self) -> u64 {
        self.entries().map(|(_, _, b)| b).sum()
    }

    /// Number of non-zero (directed) edges.
    pub fn edge_count(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Heap memory held by the matrix: the row table plus every row's
    /// allocated capacity.
    pub fn heap_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<Vec<(u32, u64)>>()
            + self
                .rows
                .iter()
                .map(|r| r.capacity() * std::mem::size_of::<(u32, u64)>())
                .sum::<usize>()
    }

    /// Iterate over non-zero `(src, dst, bytes)` entries in row-major
    /// order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(s, row)| row.iter().map(move |&(d, b)| (s, d as usize, b)))
    }

    /// Symmetric volume between `a` and `b` (both directions).
    #[inline]
    pub fn between(&self, a: usize, b: usize) -> u64 {
        self.get(a, b) + self.get(b, a)
    }

    /// Aggregate to a node-level matrix using a placement: cell `(u, v)` of
    /// the result is the sum of bytes from ranks on node `u` to ranks on
    /// node `v`. This is the "node-based communication graph" of §IV-B.
    pub fn aggregate_by_node(&self, placement: &Placement) -> CommMatrix {
        assert_eq!(placement.nprocs(), self.n(), "placement covers all ranks");
        let nn = placement.nodes();
        let mut out = CommMatrix::new(nn);
        for (s, d, b) in self.entries() {
            let sn = placement.node_of(Rank::from(s)).idx();
            let dn = placement.node_of(Rank::from(d)).idx();
            out.add(sn, dn, b);
        }
        out
    }

    /// Project onto a subset of ranks, renumbered densely in the order
    /// given. Traffic to/from ranks outside the subset is dropped. Used to
    /// extract the application-only matrix from a full job trace.
    pub fn project(&self, subset: &[Rank]) -> CommMatrix {
        let mut index = vec![usize::MAX; self.n()];
        for (new, r) in subset.iter().enumerate() {
            index[r.idx()] = new;
        }
        let mut out = CommMatrix::new(subset.len());
        for (s, d, b) in self.entries() {
            let (ns, nd) = (index[s], index[d]);
            if ns != usize::MAX && nd != usize::MAX {
                out.add(ns, nd, b);
            }
        }
        out
    }

    /// The top-left `k × k` corner — the paper's Fig. 5b "zoom on the first
    /// 68 processes".
    pub fn zoom(&self, k: usize) -> CommMatrix {
        assert!(k <= self.n());
        let mut out = CommMatrix::new(k);
        for (s, d, b) in self.entries().filter(|&(s, d, _)| s < k && d < k) {
            out.add(s, d, b);
        }
        out
    }

    /// Bytes crossing between `set` and its complement (both directions) —
    /// the quantity message logging must capture for one cluster.
    pub fn cut_bytes(&self, set: &[Rank]) -> u64 {
        let mut inside = vec![false; self.n()];
        for r in set {
            inside[r.idx()] = true;
        }
        self.entries()
            .filter(|&(s, d, _)| inside[s] != inside[d])
            .map(|(_, _, b)| b)
            .sum()
    }

    /// Render as CSV (`src,dst,bytes` for non-zero entries).
    pub fn to_csv(&self) -> String {
        let mut s = String::from("src,dst,bytes\n");
        for (src, dst, b) in self.entries() {
            s.push_str(&format!("{src},{dst},{b}\n"));
        }
        s
    }

    /// Parse the CSV format produced by [`CommMatrix::to_csv`].
    pub fn from_csv(n: usize, csv: &str) -> Result<CommMatrix, String> {
        let mut m = CommMatrix::new(n);
        for (lineno, line) in csv.lines().enumerate() {
            if lineno == 0 && line.starts_with("src") {
                continue;
            }
            if line.trim().is_empty() {
                continue;
            }
            let mut it = line.split(',');
            let parse = |tok: Option<&str>| -> Result<u64, String> {
                tok.ok_or_else(|| format!("line {lineno}: missing field"))?
                    .trim()
                    .parse::<u64>()
                    .map_err(|e| format!("line {lineno}: {e}"))
            };
            let src = parse(it.next())? as usize;
            let dst = parse(it.next())? as usize;
            let bytes = parse(it.next())?;
            if src >= n || dst >= n {
                return Err(format!("line {lineno}: rank out of range"));
            }
            m.add(src, dst, bytes);
        }
        Ok(m)
    }

    /// ASCII heat map with log-scale density characters, coarsened to at
    /// most `max_cells` cells per side. Good enough to eyeball the Fig. 5
    /// diagonals in a terminal.
    pub fn render_ascii(&self, max_cells: usize) -> String {
        const SHADES: &[u8] = b" .:-=+*#%@";
        let cells = self.n().min(max_cells.max(1));
        let bucket = self.n().div_ceil(cells);
        let mut grid = vec![0u64; cells * cells];
        for (s, d, b) in self.entries() {
            grid[(s / bucket).min(cells - 1) * cells + (d / bucket).min(cells - 1)] += b;
        }
        let max = grid.iter().copied().max().unwrap_or(0).max(1);
        let lmax = (max as f64).ln().max(1.0);
        let mut out = String::with_capacity(cells * (cells + 1));
        for row in 0..cells {
            for col in 0..cells {
                let v = grid[row * cells + col];
                let c = if v == 0 {
                    b' '
                } else {
                    let t = (v as f64).ln().max(0.0) / lmax;
                    SHADES[((t * (SHADES.len() - 1) as f64).round() as usize).min(SHADES.len() - 1)]
                };
                out.push(c as char);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcft_topology::Placement;

    fn sample() -> CommMatrix {
        let mut m = CommMatrix::new(4);
        m.add(0, 1, 100);
        m.add(1, 0, 50);
        m.add(2, 3, 10);
        m.add(0, 3, 1);
        m
    }

    #[test]
    fn totals_and_edges() {
        let m = sample();
        assert_eq!(m.total_bytes(), 161);
        assert_eq!(m.edge_count(), 4);
        assert_eq!(m.between(0, 1), 150);
    }

    #[test]
    fn aggregate_by_node_sums_rank_traffic() {
        let m = sample();
        let p = Placement::block(2, 2); // ranks 0,1 on node 0; 2,3 on node 1
        let nm = m.aggregate_by_node(&p);
        assert_eq!(nm.n(), 2);
        assert_eq!(nm.get(0, 0), 150); // 0<->1 intra-node
        assert_eq!(nm.get(1, 1), 10); // 2->3 intra-node
        assert_eq!(nm.get(0, 1), 1); // 0->3
    }

    #[test]
    fn project_renumbers_subset() {
        let m = sample();
        let sub = m.project(&[Rank(1), Rank(3)]);
        assert_eq!(sub.n(), 2);
        assert_eq!(sub.total_bytes(), 0); // 1 and 3 never talk directly
        let sub2 = m.project(&[Rank(0), Rank(1)]);
        assert_eq!(sub2.get(0, 1), 100);
        assert_eq!(sub2.get(1, 0), 50);
    }

    #[test]
    fn cut_bytes_counts_both_directions() {
        let m = sample();
        // set {0,1}: cut edges are 2->3? no (both outside), 0->3 yes.
        assert_eq!(m.cut_bytes(&[Rank(0), Rank(1)]), 1);
        // set {0}: 0->1 (100), 1->0 (50), 0->3 (1).
        assert_eq!(m.cut_bytes(&[Rank(0)]), 151);
    }

    #[test]
    fn csv_roundtrip() {
        let m = sample();
        let csv = m.to_csv();
        let back = CommMatrix::from_csv(4, &csv).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn csv_rejects_out_of_range() {
        assert!(CommMatrix::from_csv(2, "src,dst,bytes\n5,0,1\n").is_err());
    }

    #[test]
    fn zoom_takes_corner() {
        let m = sample();
        let z = m.zoom(2);
        assert_eq!(z.n(), 2);
        assert_eq!(z.get(0, 1), 100);
        assert_eq!(z.total_bytes(), 150);
    }

    #[test]
    fn ascii_render_has_expected_shape() {
        let m = sample();
        let art = m.render_ascii(4);
        assert_eq!(art.lines().count(), 4);
        assert!(art.lines().all(|l| l.len() == 4));
        // Heaviest cell (0,1) must be the darkest shade.
        assert_eq!(art.lines().next().unwrap().as_bytes()[1], b'@');
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_matrix() -> impl Strategy<Value = CommMatrix> {
        (2usize..12).prop_flat_map(|n| {
            proptest::collection::vec((0usize..n, 0usize..n, 1u64..1_000_000), 0..40).prop_map(
                move |edges| {
                    let mut m = CommMatrix::new(n);
                    for (s, d, b) in edges {
                        m.add(s, d, b);
                    }
                    m
                },
            )
        })
    }

    proptest! {
        #[test]
        fn csv_roundtrip_is_identity(m in arb_matrix()) {
            let back = CommMatrix::from_csv(m.n(), &m.to_csv()).expect("parse");
            prop_assert_eq!(&m, &back);
        }

        #[test]
        fn aggregate_preserves_total_bytes(m in arb_matrix(), per_node in 1usize..4) {
            let nodes = m.n().div_ceil(per_node);
            let placement = hcft_topology::Placement::new(
                hcft_topology::PlacementStrategy::Block,
                m.n(),
                nodes,
                per_node,
            );
            let nm = m.aggregate_by_node(&placement);
            prop_assert_eq!(nm.total_bytes(), m.total_bytes());
        }

        #[test]
        fn project_of_everything_is_identity(m in arb_matrix()) {
            let all: Vec<Rank> = (0..m.n()).map(Rank::from).collect();
            prop_assert_eq!(&m.project(&all), &m);
        }

        #[test]
        fn add_get_entries_match_a_btreemap_model(
            n in 1usize..12,
            ops in proptest::collection::vec((0usize..12, 0usize..12, 0u64..1_000), 0..60),
        ) {
            let mut m = CommMatrix::new(n);
            let mut model = std::collections::BTreeMap::new();
            for (s, d, b) in ops {
                let (s, d) = (s % n, d % n);
                m.add(s, d, b);
                if b > 0 {
                    *model.entry((s, d)).or_insert(0u64) += b;
                }
            }
            for s in 0..n {
                for d in 0..n {
                    prop_assert_eq!(m.get(s, d), model.get(&(s, d)).copied().unwrap_or(0));
                }
            }
            let want: Vec<_> = model.iter().map(|(&(s, d), &b)| (s, d, b)).collect();
            prop_assert_eq!(m.entries().collect::<Vec<_>>(), want);
            prop_assert_eq!(m.edge_count(), model.len());
        }

        #[test]
        fn zoom_keeps_exactly_the_corner(m in arb_matrix(), k in 1usize..12) {
            let k = k.min(m.n());
            let z = m.zoom(k);
            let want: Vec<_> = m.entries().filter(|&(s, d, _)| s < k && d < k).collect();
            prop_assert_eq!(z.entries().collect::<Vec<_>>(), want);
        }

        #[test]
        fn cut_of_complement_is_equal(m in arb_matrix()) {
            let half: Vec<Rank> = (0..m.n() / 2).map(Rank::from).collect();
            let other: Vec<Rank> = (m.n() / 2..m.n()).map(Rank::from).collect();
            prop_assert_eq!(m.cut_bytes(&half), m.cut_bytes(&other));
        }
    }
}

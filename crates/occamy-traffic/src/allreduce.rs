//! All-reduce traffic from double binary trees (Sanders et al. \[69\]).

use crate::FlowSpec;

/// The two complementary binary trees used by double-binary-tree
/// all-reduce (the "prevailing" algorithm the paper cites, also used by
/// NCCL).
///
/// Construction: tree 1 is the in-order binary tree over 1-indexed nodes
/// `1..=n` in which node `r`'s depth is given by the trailing zeros of
/// `r` — all interior nodes are even, all leaves odd. Tree 2 is tree 1
/// relabeled by a cyclic shift of one, which maps the even interior set
/// onto odd ranks, so **every rank is an interior node in at most one
/// tree** for any `n`. Each tree carries half the data: a reduce phase
/// sends child→parent along the edges, a broadcast phase parent→child.
/// For the paper's workload all flows have identical size (§6.4, Fig. 19).
#[derive(Debug, Clone)]
pub struct DoubleBinaryTree {
    n: usize,
    /// `parent[t][r]` = parent of rank `r` in tree `t`, `None` for roots.
    parents: [Vec<Option<usize>>; 2],
}

impl DoubleBinaryTree {
    /// Builds the double tree over `n` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "all-reduce needs at least two ranks");
        let tree1 = in_order_parents(n);
        // Tree 2: relabel every node by a cyclic +1 shift. Tree 1's
        // interior ranks are odd (0-indexed), and the shift maps odd onto
        // even ranks for every n, so the interiors cannot overlap.
        let shift = move |r: usize| (r + 1) % n;
        let mut tree2 = vec![None; n];
        for (r, &p) in tree1.iter().enumerate() {
            tree2[shift(r)] = p.map(shift);
        }
        DoubleBinaryTree {
            n,
            parents: [tree1, tree2],
        }
    }

    /// Parent of `rank` in `tree` (0 or 1); `None` for the root.
    ///
    /// # Panics
    ///
    /// Panics if `tree > 1` or `rank >= n`.
    pub fn parent(&self, tree: usize, rank: usize) -> Option<usize> {
        self.parents[tree][rank]
    }

    /// Ranks that are interior (have at least one child) in `tree`.
    pub fn interior(&self, tree: usize) -> Vec<usize> {
        let mut is_parent = vec![false; self.n];
        for &p in self.parents[tree].iter().flatten() {
            is_parent[p] = true;
        }
        (0..self.n).filter(|&r| is_parent[r]).collect()
    }

    /// Validates the double-tree property: each rank is interior in at
    /// most one tree, each tree is a single connected *binary* tree.
    pub fn check_valid(&self) -> bool {
        let i1 = self.interior(0);
        let i2 = self.interior(1);
        let overlap = i1.iter().any(|r| i2.contains(r));
        !overlap && self.is_tree(0) && self.is_tree(1) && self.is_binary(0) && self.is_binary(1)
    }

    fn is_binary(&self, t: usize) -> bool {
        let mut children = vec![0usize; self.n];
        for &p in self.parents[t].iter().flatten() {
            children[p] += 1;
        }
        children.iter().all(|&c| c <= 2)
    }

    fn is_tree(&self, t: usize) -> bool {
        // Exactly one root, and every node reaches it without cycles.
        let roots = self.parents[t].iter().filter(|p| p.is_none()).count();
        if roots != 1 {
            return false;
        }
        for start in 0..self.n {
            let mut hops = 0;
            let mut cur = start;
            while let Some(p) = self.parents[t][cur] {
                cur = p;
                hops += 1;
                if hops > self.n {
                    return false; // cycle
                }
            }
        }
        true
    }

    /// Emits the all-reduce flow set: for both trees, a reduce flow
    /// (child→parent) starting at `start_ps` and a broadcast flow
    /// (parent→child) starting at `start_ps + broadcast_offset_ps`, all of
    /// `bytes` bytes.
    pub fn flows(&self, bytes: u64, start_ps: u64, broadcast_offset_ps: u64) -> Vec<FlowSpec> {
        let mut out = Vec::new();
        for t in 0..2 {
            for (child, &p) in self.parents[t].iter().enumerate() {
                if let Some(parent) = p {
                    out.push(FlowSpec::background(child, parent, bytes, start_ps));
                    out.push(FlowSpec::background(
                        parent,
                        child,
                        bytes,
                        start_ps + broadcast_offset_ps,
                    ));
                }
            }
        }
        out
    }
}

/// Parent array (0-indexed) of the trailing-zeros in-order binary tree.
///
/// Working 1-indexed: node `r` with `t` trailing zero bits sits at height
/// `t`; its parent is `r − 2^t` when bit `t+1` of `r` is set, otherwise
/// `r + 2^t` — unless that exceeds `n` (a truncated right spine), in
/// which case the parent folds back to `r − 2^t`. The root is the largest
/// power of two `≤ n`. All interior nodes are even (1-indexed), so leaves
/// are exactly the odd nodes.
fn in_order_parents(n: usize) -> Vec<Option<usize>> {
    (1..=n as u64)
        .map(|r| parent_1idx(r, n as u64).map(|p| (p - 1) as usize))
        .collect()
}

/// Parent of 1-indexed node `r` in the tz in-order tree over `1..=n`.
fn parent_1idx(r: u64, n: u64) -> Option<u64> {
    let t = r.trailing_zeros();
    let step = 1u64 << t;
    let parent = if (r >> (t + 1)) & 1 == 1 {
        r - step
    } else {
        let cand = r + step;
        if cand <= n {
            cand
        } else {
            r - step
        }
    };
    if parent == 0 {
        None // `r` is the largest power of two ≤ n: the root
    } else {
        Some(parent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_tree_shape() {
        // n = 7 in-order tree: root 3, interior {1, 3, 5}, leaves even.
        let t = in_order_parents(7);
        assert_eq!(t[3], None);
        assert_eq!(t[1], Some(3));
        assert_eq!(t[5], Some(3));
        assert_eq!(t[0], Some(1));
        assert_eq!(t[2], Some(1));
        assert_eq!(t[4], Some(5));
        assert_eq!(t[6], Some(5));
    }

    #[test]
    fn double_tree_valid_for_many_sizes() {
        for n in [2, 3, 4, 5, 7, 8, 15, 16, 31, 64, 100, 128] {
            let dbt = DoubleBinaryTree::new(n);
            assert!(dbt.check_valid(), "invalid double tree for n = {n}");
        }
    }

    #[test]
    fn interiors_are_disjoint_at_128() {
        let dbt = DoubleBinaryTree::new(128);
        let i1 = dbt.interior(0);
        let i2 = dbt.interior(1);
        assert!(i1.iter().all(|r| !i2.contains(r)));
        // Together the interiors cover almost all ranks (n−1 edges each).
        assert!(i1.len() + i2.len() >= 126);
    }

    #[test]
    fn flow_set_covers_every_edge_twice() {
        let dbt = DoubleBinaryTree::new(8);
        let flows = dbt.flows(1_000, 0, 500);
        // Each tree has n−1 = 7 edges, ×2 trees ×2 directions = 28 flows.
        assert_eq!(flows.len(), 28);
        assert!(flows.iter().all(|f| f.bytes == 1_000));
        let reduce = flows.iter().filter(|f| f.start_ps == 0).count();
        let bcast = flows.iter().filter(|f| f.start_ps == 500).count();
        assert_eq!(reduce, 14);
        assert_eq!(bcast, 14);
    }

    #[test]
    fn broadcast_reverses_reduce() {
        let dbt = DoubleBinaryTree::new(6);
        let flows = dbt.flows(10, 0, 1);
        let reduce: Vec<_> = flows.iter().filter(|f| f.start_ps == 0).collect();
        let bcast: Vec<_> = flows.iter().filter(|f| f.start_ps == 1).collect();
        for r in &reduce {
            assert!(
                bcast.iter().any(|b| b.src == r.dst && b.dst == r.src),
                "missing reverse of {} → {}",
                r.src,
                r.dst
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least two ranks")]
    fn tiny_allreduce_rejected() {
        DoubleBinaryTree::new(1);
    }
}

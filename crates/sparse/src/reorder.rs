//! Row/column orderings that localize communication.
//!
//! §IV-B of the paper: "we can reorder the rows and columns in R to minimize
//! the number of items that have to be exchanged, if we split and distribute
//! U and V according to consecutive regions in R." Two orderings are
//! provided: a simple degree sort (pairs heavy items together so the
//! weighted partitioner can isolate them) and reverse Cuthill–McKee on the
//! bipartite rating graph (clusters each item near its counterparts, which
//! is what actually shrinks cross-rank traffic).

use crate::csr::Csr;

/// A permutation of `0..n` with both directions materialized.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation {
    /// `forward[old] = new`
    forward: Vec<u32>,
    /// `inverse[new] = old`
    inverse: Vec<u32>,
}

impl Permutation {
    /// Identity permutation on `0..n`.
    pub fn identity(n: usize) -> Self {
        let forward: Vec<u32> = (0..n as u32).collect();
        Permutation {
            inverse: forward.clone(),
            forward,
        }
    }

    /// Build from a forward map (`forward[old] = new`). Panics if the map is
    /// not a bijection on `0..n`.
    pub fn from_forward(forward: Vec<u32>) -> Self {
        let n = forward.len();
        let mut inverse = vec![u32::MAX; n];
        for (old, &new) in forward.iter().enumerate() {
            assert!((new as usize) < n, "target {new} out of range");
            assert!(inverse[new as usize] == u32::MAX, "duplicate target {new}");
            inverse[new as usize] = old as u32;
        }
        Permutation { forward, inverse }
    }

    /// Build from an ordering list (`order[new] = old`), i.e. the sequence
    /// in which old indices should appear.
    pub fn from_order(order: Vec<u32>) -> Self {
        let n = order.len();
        let mut forward = vec![u32::MAX; n];
        for (new, &old) in order.iter().enumerate() {
            assert!((old as usize) < n, "source {old} out of range");
            assert!(forward[old as usize] == u32::MAX, "duplicate source {old}");
            forward[old as usize] = new as u32;
        }
        Permutation {
            forward,
            inverse: order,
        }
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// True if the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// New position of old index `i`.
    #[inline]
    pub fn new_of(&self, old: usize) -> usize {
        self.forward[old] as usize
    }

    /// Old index at new position `i`.
    #[inline]
    pub fn old_of(&self, new: usize) -> usize {
        self.inverse[new] as usize
    }

    /// The inverse permutation.
    pub fn inverted(&self) -> Permutation {
        Permutation {
            forward: self.inverse.clone(),
            inverse: self.forward.clone(),
        }
    }
}

/// Order rows by descending degree (rating count). Heavy items end up
/// adjacent, which lets the weighted contiguous partitioner give them
/// dedicated space.
pub fn degree_sort_permutation(m: &Csr) -> Permutation {
    let mut order: Vec<u32> = (0..m.nrows() as u32).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(m.row_nnz(i as usize)));
    Permutation::from_order(order)
}

/// Reverse Cuthill–McKee on the bipartite graph of `R`: returns a row
/// permutation and a column permutation that cluster connected items into
/// consecutive regions.
///
/// The graph has `nrows + ncols` vertices (rows first); every rating is an
/// edge. Standard RCM: BFS from a minimum-degree vertex, visiting neighbors
/// in ascending degree order, then reverse the order; repeated per connected
/// component.
pub fn rcm_bipartite(m: &Csr) -> (Permutation, Permutation) {
    let t = m.transpose();
    let nr = m.nrows();
    let nc = m.ncols();
    let n = nr + nc;

    let degree = |v: usize| -> usize {
        if v < nr {
            m.row_nnz(v)
        } else {
            t.row_nnz(v - nr)
        }
    };

    let mut visited = vec![false; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let mut neighbors: Vec<usize> = Vec::new();

    // Vertices sorted by degree once: cheap way to pick min-degree seeds.
    let mut seeds: Vec<usize> = (0..n).collect();
    seeds.sort_by_key(|&v| degree(v));

    for &seed in &seeds {
        if visited[seed] {
            continue;
        }
        visited[seed] = true;
        queue.push_back(seed);
        while let Some(v) = queue.pop_front() {
            order.push(v as u32);
            neighbors.clear();
            if v < nr {
                neighbors.extend(m.row(v).0.iter().map(|&c| nr + c as usize));
            } else {
                neighbors.extend(t.row(v - nr).0.iter().map(|&r| r as usize));
            }
            neighbors.sort_by_key(|&u| degree(u));
            for &u in &neighbors {
                if !visited[u] {
                    visited[u] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    order.reverse();

    // Split the combined ordering back into per-side orderings.
    let mut row_order = Vec::with_capacity(nr);
    let mut col_order = Vec::with_capacity(nc);
    for &v in &order {
        let v = v as usize;
        if v < nr {
            row_order.push(v as u32);
        } else {
            col_order.push((v - nr) as u32);
        }
    }
    (
        Permutation::from_order(row_order),
        Permutation::from_order(col_order),
    )
}

/// Bandwidth of the bipartite adjacency under current orderings: the largest
/// `|i - j·nrows/ncols|`-style spread is less meaningful for rectangular R,
/// so we measure the max column spread per row (used to verify RCM helps).
pub fn max_row_span(m: &Csr) -> usize {
    (0..m.nrows())
        .filter_map(|r| {
            let (cols, _) = m.row(r);
            match (cols.first(), cols.last()) {
                (Some(&a), Some(&b)) => Some((b - a) as usize),
                _ => None,
            }
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    #[test]
    fn permutation_roundtrip() {
        let p = Permutation::from_forward(vec![2, 0, 1, 3]);
        for old in 0..4 {
            assert_eq!(p.old_of(p.new_of(old)), old);
        }
        let inv = p.inverted();
        for old in 0..4 {
            assert_eq!(inv.new_of(p.new_of(old)), old);
        }
    }

    #[test]
    fn from_order_matches_from_forward() {
        // order [2,0,1]: old 2 first → forward[2] = 0
        let p = Permutation::from_order(vec![2, 0, 1]);
        assert_eq!(p.new_of(2), 0);
        assert_eq!(p.new_of(0), 1);
        assert_eq!(p.new_of(1), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate target")]
    fn non_bijection_rejected() {
        let _ = Permutation::from_forward(vec![0, 0, 1]);
    }

    #[test]
    fn degree_sort_puts_heavy_rows_first() {
        let mut coo = Coo::new(3, 5);
        coo.push(1, 0, 1.0); // row 1: degree 1
        for j in 0..5 {
            coo.push(2, j, 1.0); // row 2: degree 5
        }
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 1.0); // row 0: degree 2
        let m = Csr::from_coo(&coo);
        let p = degree_sort_permutation(&m);
        assert_eq!(p.new_of(2), 0);
        assert_eq!(p.new_of(0), 1);
        assert_eq!(p.new_of(1), 2);
    }

    #[test]
    fn rcm_reduces_span_on_shuffled_band_matrix() {
        // A band matrix whose rows/cols were scrambled: RCM should recover
        // locality (much smaller max row span than the scrambled one).
        let n = 60;
        let scramble = |i: usize| (i * 37 + 11) % n;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            for d in 0..3usize {
                let j = (i + d) % n;
                coo.push(scramble(i), scramble(j), 1.0);
            }
        }
        let m = Csr::from_coo(&coo);
        let before = max_row_span(&m);
        let (pr, pc) = rcm_bipartite(&m);
        let after = max_row_span(&m.permute(&pr, &pc));
        assert!(
            after * 2 < before,
            "RCM should at least halve the span: before={before}, after={after}"
        );
    }

    #[test]
    fn rcm_handles_disconnected_components_and_empty_items() {
        let mut coo = Coo::new(6, 6);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0); // separate component
                             // rows 2..6 and cols 2..6 have no ratings at all
        let m = Csr::from_coo(&coo);
        let (pr, pc) = rcm_bipartite(&m);
        assert_eq!(pr.len(), 6);
        assert_eq!(pc.len(), 6);
        // Must still be bijections (from_order asserts), and permuting works.
        let _ = m.permute(&pr, &pc);
    }
}

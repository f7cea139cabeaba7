//! The canonical bottom-up BFS order over cuboid masks.
//!
//! The SP-Cube mapper traverses each tuple's lattice "bottom up, in BFS
//! order" (Algorithm 3, line 5): level 0 is the apex `(*, …, *)`, level `l`
//! contains the masks of arity `l`. Within a level the paper leaves the
//! order unspecified; we fix it to ascending mask value so that mappers and
//! reducers — which never communicate beyond the shuffle — agree exactly on
//! anchor assignment.

use spcube_common::Mask;

/// Precomputed BFS order for a fixed dimensionality `d`.
///
/// `order()[i]` is the i-th mask visited; `rank(mask)` inverts it. Building
/// the order is `O(2^d log 2^d)` once; lookups are `O(1)`.
#[derive(Debug, Clone)]
pub struct BfsOrder {
    d: usize,
    order: Vec<Mask>,
    rank: Vec<u32>,
}

impl BfsOrder {
    /// Build the BFS order for `d` dimensions.
    pub fn new(d: usize) -> BfsOrder {
        assert!(d <= Mask::MAX_DIMS);
        let n = 1usize << d;
        let mut order: Vec<Mask> = (0..n as u32).map(Mask).collect();
        order.sort_by_key(|m| (m.arity(), m.0));
        let mut rank = vec![0u32; n];
        for (i, m) in order.iter().enumerate() {
            rank[m.0 as usize] = i as u32;
        }
        BfsOrder { d, order, rank }
    }

    /// Dimensionality this order was built for.
    pub fn dims(&self) -> usize {
        self.d
    }

    /// All masks in BFS (bottom-up) order.
    pub fn order(&self) -> &[Mask] {
        &self.order
    }

    /// Position of `mask` in the BFS order.
    #[inline]
    pub fn rank(&self, mask: Mask) -> u32 {
        self.rank[mask.0 as usize]
    }

    /// Compare two masks by BFS position.
    #[inline]
    pub fn cmp(&self, a: Mask, b: Mask) -> std::cmp::Ordering {
        self.rank(a).cmp(&self.rank(b))
    }
}

/// Standalone BFS comparison key for a mask — `(arity, mask)` ascending.
/// Equivalent to [`BfsOrder::rank`] ordering without the precomputed table;
/// useful when `d` is small or the order object is not at hand.
#[inline]
pub fn bfs_key(mask: Mask) -> (u32, u32) {
    (mask.arity(), mask.0)
}

/// The subsets of `mask` (descendants-or-self) in BFS order: ascending by
/// [`bfs_key`]. Each subset is generated directly, so taking the first few
/// costs only those few, whatever `mask`'s arity.
pub(crate) fn bfs_subsets(mask: Mask) -> BfsSubsets {
    BfsSubsets {
        mask: mask.0,
        arity: mask.arity(),
        k: 0,
        picks: 0,
    }
}

/// Iterator behind [`bfs_subsets`]. A subset of arity `k` is held as
/// `picks`, a `k`-bit selection over `mask`'s set bits (bit `i` picks the
/// `i`-th lowest). Spreading the picks onto those bits keeps numeric
/// order, so counting through the `k`-bit selections in ascending order
/// visits the arity-`k` subsets in ascending mask order.
#[derive(Debug, Clone)]
pub(crate) struct BfsSubsets {
    mask: u32,
    arity: u32,
    /// Arity of the next subset; past `arity` when exhausted.
    k: u32,
    picks: u64,
}

impl Iterator for BfsSubsets {
    type Item = Mask;

    fn next(&mut self) -> Option<Mask> {
        if self.k > self.arity {
            return None;
        }
        let mut sub = 0;
        let mut rest = self.picks;
        for dim in Mask(self.mask).dims() {
            if rest & 1 == 1 {
                sub |= 1 << dim;
            }
            rest >>= 1;
        }
        // The next larger selection with the same number of picks
        // (Gosper's hack); the empty selection is the only one of arity 0.
        let end = 1u64 << self.arity;
        let low = self.picks & self.picks.wrapping_neg();
        let next = if low == 0 {
            end
        } else {
            let ripple = self.picks + low;
            (((ripple ^ self.picks) >> 2) / low) | ripple
        };
        if next < end {
            self.picks = next;
        } else {
            self.k += 1;
            self.picks = (1u64 << self.k) - 1;
        }
        Some(Mask(sub))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_by_arity_then_value() {
        let o = BfsOrder::new(3);
        let masks: Vec<u32> = o.order().iter().map(|m| m.0).collect();
        assert_eq!(
            masks,
            vec![0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111]
        );
    }

    #[test]
    fn rank_inverts_order() {
        let o = BfsOrder::new(4);
        for (i, m) in o.order().iter().enumerate() {
            assert_eq!(o.rank(*m) as usize, i);
        }
    }

    #[test]
    fn apex_is_first_full_is_last() {
        let o = BfsOrder::new(5);
        assert_eq!(o.order()[0], Mask::EMPTY);
        assert_eq!(*o.order().last().unwrap(), Mask::full(5));
    }

    #[test]
    fn bfs_key_agrees_with_rank() {
        let o = BfsOrder::new(4);
        for &a in o.order() {
            for &b in o.order() {
                assert_eq!(o.cmp(a, b), bfs_key(a).cmp(&bfs_key(b)));
            }
        }
    }

    #[test]
    fn descendants_precede_ancestors() {
        // Strict subsets always come earlier in BFS order (fewer bits).
        let o = BfsOrder::new(4);
        for &m in o.order() {
            for sub in m.subsets() {
                if sub != m {
                    assert!(o.rank(sub) < o.rank(m));
                }
            }
        }
    }

    #[test]
    fn bfs_subsets_are_the_sorted_subsets() {
        for m in [0u32, 0b1, 0b1011, 0b1101_0110, 0xff_ffff, 0xffff_ffff] {
            let mask = Mask(m);
            let walked: Vec<Mask> = bfs_subsets(mask).take(5000).collect();
            let mut expect: Vec<Mask> = if mask.arity() <= 12 {
                mask.subsets().collect()
            } else {
                // Too many to list: the first three levels suffice.
                let dims: Vec<usize> = mask.dims().collect();
                let mut low = vec![Mask::EMPTY];
                for (i, &a) in dims.iter().enumerate() {
                    low.push(Mask::single(a));
                    low.extend(dims[i + 1..].iter().map(|&b| Mask::single(a).with(b)));
                }
                low
            };
            expect.sort_by_key(|&s| bfs_key(s));
            expect.truncate(walked.len());
            assert_eq!(walked[..expect.len()], expect[..], "mask {m:#b}");
        }
        assert_eq!(bfs_subsets(Mask(0b1011)).count(), 8);
        assert_eq!(bfs_subsets(Mask::EMPTY).collect::<Vec<_>>(), [Mask::EMPTY]);
    }

    #[test]
    fn zero_dims() {
        let o = BfsOrder::new(0);
        assert_eq!(o.order(), &[Mask::EMPTY]);
    }
}

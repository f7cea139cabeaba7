//! Anchor assignment for SP-Cube (Section 5.1 of the paper).
//!
//! During the map phase, the first *non-skewed, unmarked* node of a tuple's
//! lattice in BFS order becomes an **anchor**: the tuple is shipped to the
//! reducer owning that anchor's range, and the anchor plus all its ancestors
//! are marked. A node `g` ends up being an anchor iff `g` is non-skewed and
//! *every strict descendant of `g` is skewed* (proved in the tests below by
//! simulating the marking process).
//!
//! Dually, each c-group `h` is **assigned** to exactly one anchor — the
//! BFS-first non-skewed node among `h`'s descendants-or-self. The reducer
//! holding anchor `a` computes `h` iff `anchor_mask(h) == a`, which avoids
//! computing shared ancestors twice ("assign the computation of each c-group
//! to its smallest non-skewed descendant", §5.1).
//!
//! Both mappers and reducers evaluate these predicates independently from
//! the SP-Sketch alone, so the assignment needs no coordination. Skewness is
//! abstracted as a closure over masks: for a fixed tuple (or group), the
//! caller checks whether that tuple's projection at the mask is skewed.
//!
//! [`anchor_mask`] walks `h`'s subsets in BFS order and stops at the first
//! non-skewed one. Skews are rare (a sketch holds a handful), so it
//! usually asks the oracle once or twice, not `2^|h|` times.

use spcube_common::Mask;

use crate::bfs::bfs_subsets;

/// The BFS-first non-skewed mask among `h`'s subsets (descendants-or-self),
/// or `None` if every subset — including `h` itself — is skewed (then `h` is
/// aggregated map-side and never assigned to a range reducer).
///
/// `is_skewed(m)` must report whether the *projection of the group/tuple at
/// mask `m`* is skewed. It is asked about subsets in BFS order, up to and
/// including the answer.
pub fn anchor_mask(h: Mask, is_skewed: impl Fn(Mask) -> bool) -> Option<Mask> {
    bfs_subsets(h).find(|&sub| !is_skewed(sub))
}

/// Whether `g` would become an anchor for a tuple whose skewness profile is
/// `is_skewed`: `g` is non-skewed and all strict descendants are skewed.
pub fn is_anchor(g: Mask, is_skewed: impl Fn(Mask) -> bool) -> bool {
    if is_skewed(g) {
        return false;
    }
    g.subsets().all(|s| s == g || is_skewed(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::BfsOrder;
    use std::collections::HashSet;

    /// Simulate the mapper's marking walk of Algorithm 3 and return the set
    /// of anchors it selects.
    fn simulate_mapper_anchors(d: usize, skewed: &HashSet<u32>) -> Vec<Mask> {
        let bfs = BfsOrder::new(d);
        let mut marked = HashSet::new();
        let mut anchors = Vec::new();
        for &m in bfs.order() {
            if marked.contains(&m.0) {
                continue;
            }
            if skewed.contains(&m.0) {
                marked.insert(m.0); // aggregated map-side
            } else {
                anchors.push(m);
                for sup in m.supersets(d) {
                    marked.insert(sup.0);
                }
            }
        }
        anchors
    }

    #[test]
    fn is_anchor_matches_mapper_simulation() {
        let d = 4;
        // Try a spread of skew profiles (downward-closed and not).
        let profiles: Vec<HashSet<u32>> = vec![
            HashSet::new(),
            [0b0000u32].into_iter().collect(),
            [0b0000, 0b0001, 0b0010].into_iter().collect(),
            [0b0000, 0b0001, 0b0010, 0b0100, 0b1000]
                .into_iter()
                .collect(),
            [0b0000, 0b0011, 0b0001].into_iter().collect(),
        ];
        for skewed in profiles {
            let sim = simulate_mapper_anchors(d, &skewed);
            let pred: Vec<Mask> = BfsOrder::new(d)
                .order()
                .iter()
                .copied()
                .filter(|&m| is_anchor(m, |x| skewed.contains(&x.0)))
                .collect();
            assert_eq!(sim, pred, "skew profile {skewed:?}");
        }
    }

    #[test]
    fn anchor_mask_picks_bfs_first_non_skewed_subset() {
        // Skewed: apex and first two singletons -> anchor of 0b011 is 0b011
        // itself? Its subsets: 000(skewed) 001(skewed) 010(skewed) 011.
        let skewed: HashSet<u32> = [0b000u32, 0b001, 0b010].into_iter().collect();
        let a = anchor_mask(Mask(0b011), |m| skewed.contains(&m.0)).unwrap();
        assert_eq!(a, Mask(0b011));
        // Anchor of 0b111: first non-skewed subset in BFS order is 0b100.
        let a = anchor_mask(Mask(0b111), |m| skewed.contains(&m.0)).unwrap();
        assert_eq!(a, Mask(0b100));
    }

    #[test]
    fn no_skew_means_every_group_anchors_at_apex() {
        let a = anchor_mask(Mask(0b1101), |_| false).unwrap();
        assert_eq!(a, Mask::EMPTY);
    }

    #[test]
    fn all_skewed_returns_none() {
        assert!(anchor_mask(Mask(0b11), |_| true).is_none());
    }

    #[test]
    fn anchor_mask_stops_at_the_answer() {
        // A full 24-dimension group whose apex alone is skewed: the walk
        // asks about the apex and the first singleton, nothing more.
        let asked = std::cell::Cell::new(0);
        let a = anchor_mask(Mask::full(Mask::MAX_DIMS), |m| {
            asked.set(asked.get() + 1);
            m == Mask::EMPTY
        });
        assert_eq!(a, Some(Mask(0b1)));
        assert_eq!(asked.get(), 2);
    }

    #[test]
    fn anchor_of_group_is_an_anchor() {
        // Whatever anchor_mask returns must satisfy is_anchor.
        let skewed: HashSet<u32> = [0b0000u32, 0b0001, 0b0100, 0b0101].into_iter().collect();
        let oracle = |m: Mask| skewed.contains(&m.0);
        for h in (0u32..16).map(Mask) {
            if let Some(a) = anchor_mask(h, oracle) {
                assert!(is_anchor(a, oracle), "h={h:?} a={a:?}");
                assert!(a.is_subset_of(h));
            }
        }
    }

    #[test]
    fn each_group_assigned_to_exactly_one_mapper_anchor() {
        // For a fixed skew profile, every non-skewed group's assigned anchor
        // is among the anchors the mapper actually emits.
        let d = 4;
        let skewed: HashSet<u32> = [0b0000u32, 0b0010, 0b1000, 0b1010].into_iter().collect();
        let oracle = |m: Mask| skewed.contains(&m.0);
        let anchors: HashSet<u32> = simulate_mapper_anchors(d, &skewed)
            .into_iter()
            .map(|m| m.0)
            .collect();
        for h in (0u32..16).map(Mask) {
            if !oracle(h) {
                let a = anchor_mask(h, oracle).unwrap();
                assert!(
                    anchors.contains(&a.0),
                    "group {h:?} assigned to non-anchor {a:?}"
                );
            }
        }
    }
}

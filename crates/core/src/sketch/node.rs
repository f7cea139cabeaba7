//! Per-cuboid sketch nodes.

use std::collections::BTreeSet;

use spcube_common::{Mask, Value};

/// One cuboid's entry in the SP-Sketch: its skewed group keys (the paper
/// describes a hash table; we use an ordered set so the serialized sketch
/// is byte-deterministic, and lookups on the small per-cuboid skew sets
/// are just as fast) and its `k-1` sorted partition elements.
#[derive(Debug, Clone)]
pub struct SketchNode {
    mask: Mask,
    skews: BTreeSet<Box<[Value]>>,
    /// Sorted ascending; `partition_of` is a binary search over them.
    partition_elements: Vec<Box<[Value]>>,
}

impl SketchNode {
    /// Empty node for a cuboid.
    pub fn new(mask: Mask) -> SketchNode {
        SketchNode {
            mask,
            skews: BTreeSet::new(),
            partition_elements: Vec::new(),
        }
    }

    /// The cuboid this node describes.
    pub fn mask(&self) -> Mask {
        self.mask
    }

    /// Record a skewed group key.
    pub fn add_skew(&mut self, key: Box<[Value]>) {
        debug_assert_eq!(key.len(), self.mask.arity() as usize);
        self.skews.insert(key);
    }

    /// Install the partition elements (must be sorted ascending).
    pub fn set_partition_elements(&mut self, elements: Vec<Box<[Value]>>) {
        debug_assert!(
            elements.windows(2).all(|w| w[0] <= w[1]),
            "elements must be sorted"
        );
        self.partition_elements = elements;
    }

    /// Install partition elements without the sortedness debug-check. Used
    /// by the deserializer, whose input is untrusted by definition;
    /// [`SpSketch::validate`](super::SpSketch::validate) re-checks order.
    pub(crate) fn set_partition_elements_unchecked(&mut self, elements: Vec<Box<[Value]>>) {
        self.partition_elements = elements;
    }

    /// Whether `key` is a recorded skewed group.
    #[inline]
    pub fn is_skewed(&self, key: &[Value]) -> bool {
        !self.skews.is_empty() && self.skews.contains(key)
    }

    /// Whether the projection onto this cuboid of `key`, a group of cuboid
    /// `of` (a superset of this node's mask), is a recorded skew. The
    /// group's own key slots are compared against each skew key in place,
    /// so no projected key is built; a node with no skews answers at once.
    #[inline]
    pub fn is_skewed_projection(&self, of: Mask, key: &[Value]) -> bool {
        !self.skews.is_empty()
            && self.skews.iter().any(|skew| {
                let mut slots = of
                    .dims()
                    .zip(key)
                    .filter(|&(dim, _)| self.mask.contains(dim))
                    .map(|(_, v)| v);
                skew.iter().all(|s| slots.next() == Some(s)) && slots.next().is_none()
            })
    }

    /// Range index of `key` among the partition elements: the number of
    /// elements strictly smaller than `key`. With elements `t_1 <= … <=
    /// t_{k-1}` this sends `key <= t_1` to range 0 and `t_i < key <=
    /// t_{i+1}` to range `i` — Definition 4.1's split. Equal projected keys
    /// (i.e. one c-group) always share a range.
    #[inline]
    pub fn partition_of(&self, key: &[Value]) -> usize {
        self.partition_elements
            .partition_point(|e| e.as_ref() < key)
    }

    /// Number of skewed groups recorded.
    pub fn skew_count(&self) -> usize {
        self.skews.len()
    }

    /// Iterate the recorded skew keys (unordered).
    pub fn skews(&self) -> impl Iterator<Item = &[Value]> {
        self.skews.iter().map(|k| k.as_ref())
    }

    /// The partition elements.
    pub fn partition_elements(&self) -> &[Box<[Value]>] {
        &self.partition_elements
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(vals: &[i64]) -> Box<[Value]> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn skew_set_membership() {
        let mut n = SketchNode::new(Mask(0b11));
        n.add_skew(key(&[1, 2]));
        assert!(n.is_skewed(&key(&[1, 2])));
        assert!(!n.is_skewed(&key(&[2, 1])));
        assert_eq!(n.skew_count(), 1);
        // Duplicate insertion is idempotent.
        n.add_skew(key(&[1, 2]));
        assert_eq!(n.skew_count(), 1);
    }

    #[test]
    fn partition_of_with_duplicate_elements() {
        // A heavy key may occupy several partition positions; equal keys
        // still go to one range (the first with that boundary).
        let mut n = SketchNode::new(Mask(0b1));
        n.set_partition_elements(vec![key(&[5]), key(&[5]), key(&[9])]);
        assert_eq!(n.partition_of(&key(&[4])), 0);
        assert_eq!(n.partition_of(&key(&[5])), 0);
        assert_eq!(n.partition_of(&key(&[6])), 2);
        assert_eq!(n.partition_of(&key(&[9])), 2);
        assert_eq!(n.partition_of(&key(&[10])), 3);
    }

    #[test]
    fn empty_node_everything_in_range_zero() {
        let n = SketchNode::new(Mask(0b1));
        assert_eq!(n.partition_of(&key(&[123])), 0);
        assert!(!n.is_skewed(&key(&[123])));
    }

    #[test]
    fn apex_node_empty_key() {
        let mut n = SketchNode::new(Mask::EMPTY);
        n.add_skew(Box::new([]));
        assert!(n.is_skewed(&[]));
        assert_eq!(n.partition_of(&[]), 0);
    }
}

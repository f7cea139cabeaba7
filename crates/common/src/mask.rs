//! Cuboid bitmasks.

use std::fmt;

/// Identifies a cuboid of a `d`-dimensional cube: bit `i` is set iff
/// dimension `i` is a group-by attribute of the cuboid (the unset dimensions
/// are `*` in the paper's notation).
///
/// The full cuboid `(A_1, …, A_d)` is `Mask::full(d)`; the apex cuboid
/// `(*, …, *)` is `Mask::EMPTY`. Masks support subset/superset tests and
/// enumeration, which drive both lattices of Section 2.2.
///
/// `d` is limited to [`Mask::MAX_DIMS`] (enough for any practical cube — the
/// paper experiments with up to 15 dimension attributes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Mask(pub u32);

impl Mask {
    /// The apex cuboid `(*, …, *)`.
    pub const EMPTY: Mask = Mask(0);

    /// Maximum supported number of cube dimensions.
    pub const MAX_DIMS: usize = 24;

    /// Bits in a mask: a dimension index at or past this is grouped in
    /// no mask.
    const BITS: usize = u32::BITS as usize;

    /// The full cuboid over `d` dimensions (all bits set).
    #[inline]
    pub fn full(d: usize) -> Mask {
        assert!(d <= Self::MAX_DIMS, "at most {} dimensions", Self::MAX_DIMS);
        if d == 0 {
            Mask(0)
        } else {
            Mask((1u32 << d) - 1)
        }
    }

    /// Mask with only dimension `i` grouped.
    #[inline]
    pub fn single(i: usize) -> Mask {
        Mask(1 << i)
    }

    /// Number of grouped dimensions (the cuboid's level in the lattice).
    #[inline]
    pub fn arity(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether dimension `i` is grouped; `false` for any `i` past the
    /// mask's 32 bits.
    #[inline]
    pub fn contains(self, i: usize) -> bool {
        i < Self::BITS && self.0 & (1 << i) != 0
    }

    /// Whether `self` is a (non-strict) subset of `other`, i.e. `self` is a
    /// descendant-or-equal of `other` in the cube lattice.
    #[inline]
    pub fn is_subset_of(self, other: Mask) -> bool {
        self.0 & !other.0 == 0
    }

    /// Whether `self` is a strict subset of `other`.
    #[inline]
    pub fn is_strict_subset_of(self, other: Mask) -> bool {
        self != other && self.is_subset_of(other)
    }

    /// Set dimension `i`.
    #[inline]
    pub fn with(self, i: usize) -> Mask {
        Mask(self.0 | (1 << i))
    }

    /// Clear dimension `i`; the identity for any `i` past the mask's 32
    /// bits, which no mask groups.
    #[inline]
    pub fn without(self, i: usize) -> Mask {
        if i < Self::BITS {
            Mask(self.0 & !(1 << i))
        } else {
            self
        }
    }

    /// Iterate over the indices of the grouped dimensions, ascending.
    #[inline]
    pub fn dims(self) -> BitIter {
        BitIter(self.0)
    }

    /// Iterate over all subsets of this mask (including itself and the empty
    /// mask) in ascending numeric order. There are `2^arity` of them; these
    /// are exactly the descendants-or-self in the cube lattice.
    pub fn subsets(self) -> SubsetIter {
        SubsetIter {
            mask: self.0,
            next: 0,
            done: false,
        }
    }

    /// Iterate over all supersets of this mask within `d` dimensions
    /// (including itself) — the ancestors-or-self in the cube lattice.
    pub fn supersets(self, d: usize) -> SupersetIter {
        let free = Mask::full(d).0 & !self.0;
        SupersetIter {
            base: self.0,
            free,
            next_free_subset: 0,
            done: false,
        }
    }

    /// The immediate descendants in the cube lattice: masks obtained by
    /// clearing exactly one set bit.
    pub fn children(self) -> impl Iterator<Item = Mask> {
        self.dims().map(move |i| self.without(i))
    }

    /// The immediate ancestors in the cube lattice within `d` dimensions:
    /// masks obtained by setting exactly one unset bit.
    pub fn parents(self, d: usize) -> impl Iterator<Item = Mask> {
        (0..d)
            .filter(move |&i| !self.contains(i))
            .map(move |i| self.with(i))
    }
}

impl fmt::Display for Mask {
    /// Renders like the paper: `(A0,*,A2)` becomes `110` read LSB-first;
    /// we print a `d`-agnostic compact binary form `m{bits}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{:b}", self.0)
    }
}

/// Iterator over set-bit indices of a mask.
#[derive(Debug, Clone)]
pub struct BitIter(u32);

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let i = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(i)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for BitIter {}

/// Iterator over all subsets of a mask, ascending; uses the standard
/// `(next - mask) & mask` enumeration trick.
#[derive(Debug, Clone)]
pub struct SubsetIter {
    mask: u32,
    next: u32,
    done: bool,
}

impl Iterator for SubsetIter {
    type Item = Mask;

    fn next(&mut self) -> Option<Mask> {
        if self.done {
            return None;
        }
        let cur = self.next;
        if cur == self.mask {
            self.done = true;
        } else {
            // Standard subset enumeration: (cur - mask) & mask steps to the
            // next subset in ascending order.
            self.next = (cur.wrapping_sub(self.mask)) & self.mask;
        }
        Some(Mask(cur))
    }
}

/// Iterator over all supersets of a mask within `d` dimensions.
#[derive(Debug, Clone)]
pub struct SupersetIter {
    base: u32,
    free: u32,
    next_free_subset: u32,
    done: bool,
}

impl Iterator for SupersetIter {
    type Item = Mask;

    fn next(&mut self) -> Option<Mask> {
        if self.done {
            return None;
        }
        let cur = self.next_free_subset;
        if cur == self.free {
            self.done = true;
        } else {
            self.next_free_subset = (cur.wrapping_sub(self.free)) & self.free;
        }
        Some(Mask(self.base | cur))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_and_empty() {
        assert_eq!(Mask::full(0), Mask::EMPTY);
        assert_eq!(Mask::full(3), Mask(0b111));
        assert_eq!(Mask::full(3).arity(), 3);
        assert_eq!(Mask::EMPTY.arity(), 0);
    }

    #[test]
    fn subset_relations() {
        let a = Mask(0b101);
        let b = Mask(0b111);
        assert!(a.is_subset_of(b));
        assert!(a.is_strict_subset_of(b));
        assert!(!b.is_subset_of(a));
        assert!(a.is_subset_of(a));
        assert!(!a.is_strict_subset_of(a));
    }

    #[test]
    fn dims_iterates_set_bits_ascending() {
        let m = Mask(0b1011);
        assert_eq!(m.dims().collect::<Vec<_>>(), vec![0, 1, 3]);
        assert_eq!(Mask::EMPTY.dims().count(), 0);
    }

    #[test]
    fn subsets_enumerates_all() {
        let m = Mask(0b101);
        let subs: Vec<u32> = m.subsets().map(|m| m.0).collect();
        assert_eq!(subs, vec![0b000, 0b001, 0b100, 0b101]);
    }

    #[test]
    fn subsets_of_empty_is_just_empty() {
        let subs: Vec<Mask> = Mask::EMPTY.subsets().collect();
        assert_eq!(subs, vec![Mask::EMPTY]);
    }

    #[test]
    fn supersets_enumerates_all_within_d() {
        let m = Mask(0b001);
        let sups: Vec<u32> = m.supersets(3).map(|m| m.0).collect();
        assert_eq!(sups, vec![0b001, 0b011, 0b101, 0b111]);
        // Superset count: 2^(d - arity).
        assert_eq!(Mask(0b11).supersets(4).count(), 4);
        assert_eq!(Mask::EMPTY.supersets(4).count(), 16);
    }

    #[test]
    fn children_and_parents() {
        let m = Mask(0b110);
        let kids: Vec<u32> = m.children().map(|m| m.0).collect();
        assert_eq!(kids, vec![0b100, 0b010]);
        let pars: Vec<u32> = m.parents(3).map(|m| m.0).collect();
        assert_eq!(pars, vec![0b111]);
        assert_eq!(Mask::full(3).parents(3).count(), 0);
        assert_eq!(Mask::EMPTY.parents(3).count(), 3);
    }

    #[test]
    fn with_without_contains() {
        let m = Mask::EMPTY.with(2).with(0);
        assert!(m.contains(0) && m.contains(2) && !m.contains(1));
        assert_eq!(m.without(0), Mask(0b100));
        // Bit 31 is the last; no mask groups a dimension past it.
        let top = Mask(1 << 31);
        assert!(top.contains(31));
        assert_eq!(top.without(31), Mask::EMPTY);
        let all = Mask(u32::MAX);
        for i in [32, 40] {
            assert!(!all.contains(i), "dimension {i}");
            assert_eq!(all.without(i), all, "dimension {i}");
        }
    }
}

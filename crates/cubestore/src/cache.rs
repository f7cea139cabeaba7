//! LRU cache of decoded hot-cuboid segments.
//!
//! Fetching and decoding a segment is the expensive part of answering
//! from the store: a decoded segment answers a query from its columns
//! (top-k is one pass over the values column), while a miss pays the
//! checksum over the whole blob plus the dictionary, code and row-order
//! validation — on a served workload, that decode is the latency tail. So
//! the store keeps the most recently used decoded segments pinned.
//! Capacity is counted in segments: skewed workloads hit a few hot
//! cuboids over and over (exactly the access pattern the Zipf workload
//! generator produces), so a small cache captures most traffic.
//!
//! Eviction scans for the stale entry on insert — O(capacity), fine for
//! the tens-of-segments capacities used here and free of any external
//! linked-list dependency.

use std::collections::HashMap;
use std::sync::Arc;

use spcube_common::Mask;

use crate::segment::Segment;

/// A fixed-capacity LRU map from cuboid mask to decoded segment.
#[derive(Debug)]
pub struct SegmentCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<Mask, (Arc<Segment>, u64)>,
}

impl SegmentCache {
    /// Cache holding at most `capacity` decoded segments (at least 1).
    pub fn new(capacity: usize) -> SegmentCache {
        SegmentCache {
            capacity: capacity.max(1),
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// The segment for `mask`, refreshing its recency on hit.
    pub fn get(&mut self, mask: Mask) -> Option<Arc<Segment>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&mask).map(|(seg, used)| {
            *used = tick;
            Arc::clone(seg)
        })
    }

    /// Insert `segment` for `mask`, evicting the least recently used entry
    /// if the cache is full.
    pub fn put(&mut self, mask: Mask, segment: Arc<Segment>) {
        self.tick += 1;
        if !self.entries.contains_key(&mask) && self.entries.len() >= self.capacity {
            if let Some(&stale) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(m, _)| m)
            {
                self.entries.remove(&stale);
            }
        }
        self.entries.insert(mask, (segment, self.tick));
    }

    /// Number of cached segments.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every cached segment.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Drop the cached segment for `mask`, if any. Used to invalidate a
    /// cuboid whose backing blob changed underneath the cache.
    pub fn remove(&mut self, mask: Mask) -> bool {
        self.entries.remove(&mask).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(mask: Mask) -> Arc<Segment> {
        Arc::new(Segment::build(4, mask, Vec::new()))
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = SegmentCache::new(2);
        cache.put(Mask(0b01), seg(Mask(0b01)));
        cache.put(Mask(0b10), seg(Mask(0b10)));
        assert!(cache.get(Mask(0b01)).is_some()); // refresh 0b01
        cache.put(Mask(0b11), seg(Mask(0b11))); // evicts 0b10
        assert!(cache.get(Mask(0b01)).is_some());
        assert!(cache.get(Mask(0b10)).is_none());
        assert!(cache.get(Mask(0b11)).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinserting_does_not_evict() {
        let mut cache = SegmentCache::new(2);
        cache.put(Mask(0b01), seg(Mask(0b01)));
        cache.put(Mask(0b10), seg(Mask(0b10)));
        cache.put(Mask(0b01), seg(Mask(0b01)));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(Mask(0b10)).is_some());
    }

    #[test]
    fn remove_drops_one_entry() {
        let mut cache = SegmentCache::new(2);
        cache.put(Mask(0b01), seg(Mask(0b01)));
        cache.put(Mask(0b10), seg(Mask(0b10)));
        assert!(cache.remove(Mask(0b01)));
        assert!(!cache.remove(Mask(0b01))); // already gone
        assert!(cache.get(Mask(0b01)).is_none());
        assert!(cache.get(Mask(0b10)).is_some());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut cache = SegmentCache::new(0);
        cache.put(Mask(0b1), seg(Mask(0b1)));
        assert!(cache.get(Mask(0b1)).is_some());
        cache.put(Mask(0b10), seg(Mask(0b10)));
        assert!(cache.get(Mask(0b1)).is_none());
        assert_eq!(cache.len(), 1);
    }
}

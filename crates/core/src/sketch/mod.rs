//! The Skews-and-Partitions Sketch (Section 4).
//!
//! For every cuboid `C` the sketch records:
//!
//! * `skews(C)` — the skewed c-groups of `C` (groups with more than `m`
//!   tuples, Definition 2.7), and
//! * `partition_elements(C)` — `k-1` projected keys splitting
//!   `sorted(R, C)` into `k` ranges of equal size (Definition 4.1).
//!
//! Proposition 4.2 gives the two properties SP-Cube relies on: all tuples
//! of a non-skewed group land in one partition (their projections compare
//! identically against every element), and — skewed members excluded —
//! every partition holds `O(m)` tuples.
//!
//! The sketch is independent of the aggregate function, so one sketch can
//! serve many cube computations over the same relation.
//!
//! # Wire format
//!
//! The sketch travels through the DFS to every machine, so it is encoded
//! in a compact self-checking binary format: the magic `SPSK1`, `d` and
//! `k` as little-endian `u32`, each cuboid's skew keys and partition
//! elements (values tagged `0` = 8-byte integer, `1` = length-prefixed
//! UTF-8), and a trailing 64-bit XXH64 checksum of everything before it.
//! [`SpSketch::from_bytes`] rejects any blob whose checksum does not match
//! — a single flipped bit on the DFS is detected, letting the SP-Cube
//! driver fall back instead of partitioning with garbage. On top of the
//! checksum, [`SpSketch::validate`] checks the *semantic* invariants a
//! correct builder guarantees (sorted partition elements, upward-closed
//! skew sets), guarding against a buggy or stale sketch that is
//! bytes-clean.

mod build;
mod node;

pub use build::{
    build_exact_sketch, build_sampled_sketch, build_sketch_from, build_sketch_with,
    PartitionStrategy, SketchConfig,
};
pub use node::SketchNode;

use spcube_common::codec::{checked_body, put_len, put_value, seal, Reader};
use spcube_common::{Error, Group, Mask, Result, Value};

/// The SP-Sketch: one [`SketchNode`] per cuboid, indexed by mask.
#[derive(Debug, Clone)]
pub struct SpSketch {
    d: usize,
    k: usize,
    nodes: Vec<SketchNode>,
}

/// Leading magic of a serialized sketch (version 1 of the wire format).
const MAGIC: &[u8; 5] = b"SPSK1";

impl SpSketch {
    /// Assemble a sketch from per-cuboid nodes. `nodes[mask.0]` must be the
    /// node for `mask`.
    pub fn new(d: usize, k: usize, nodes: Vec<SketchNode>) -> SpSketch {
        assert_eq!(nodes.len(), 1usize << d, "need one node per cuboid");
        SpSketch { d, k, nodes }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.d
    }

    /// Number of machines the partitioning targets.
    pub fn machines(&self) -> usize {
        self.k
    }

    /// The node for one cuboid.
    pub fn node(&self, mask: Mask) -> &SketchNode {
        &self.nodes[mask.0 as usize]
    }

    /// Whether the c-group with `key` in cuboid `mask` is recorded as
    /// skewed. This is the mapper's skew test (Algorithm 3, line 6),
    /// implemented as a hash lookup as described in Section 5.
    #[inline]
    pub fn is_skewed(&self, mask: Mask, key: &[Value]) -> bool {
        self.nodes[mask.0 as usize].is_skewed(key)
    }

    /// [`SpSketch::is_skewed`] for a [`Group`].
    #[inline]
    pub fn is_skewed_group(&self, g: &Group) -> bool {
        self.is_skewed(g.mask, &g.key)
    }

    /// Which of the `k` ranges of cuboid `mask` the key belongs to
    /// (0-based). All keys of one c-group map to the same range regardless
    /// of sample quality, because they are equal as projected keys.
    #[inline]
    pub fn partition_of(&self, mask: Mask, key: &[Value]) -> usize {
        self.nodes[mask.0 as usize].partition_of(key)
    }

    /// Total number of skewed groups recorded across all cuboids.
    pub fn skew_count(&self) -> usize {
        self.nodes.iter().map(SketchNode::skew_count).sum()
    }

    /// Serialized size in bytes — the measure reported in Figures 5c/6c of
    /// the paper. Computed from the encoding actually shipped through the
    /// DFS.
    pub fn serialized_bytes(&self) -> u64 {
        self.to_bytes().map_or(0, |b| b.len() as u64)
    }
}

// The SPSK1 codec: no silently narrowing cast, no untyped error
// (DESIGN.md §8). Scoped to these two items; `build` may narrow a float.
#[warn(clippy::cast_possible_truncation, clippy::disallowed_types)]
impl SpSketch {
    /// Serialize for DFS distribution (see the wire format in the module
    /// docs). Deterministic: equal sketches produce equal bytes. Fails
    /// only when a collection exceeds the format's 32-bit length fields.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_len(&mut out, self.d)?;
        put_len(&mut out, self.k)?;
        for node in &self.nodes {
            put_len(&mut out, node.skew_count())?;
            for key in node.skews() {
                for v in key {
                    put_value(&mut out, v)?;
                }
            }
            let elements = node.partition_elements();
            put_len(&mut out, elements.len())?;
            for e in elements {
                for v in e.iter() {
                    put_value(&mut out, v)?;
                }
            }
        }
        seal(&mut out);
        Ok(out)
    }

    /// Deserialize from DFS bytes, verifying the trailing checksum before
    /// anything else — corrupted blobs fail with a typed [`Error::Corrupt`]
    /// rather than silently mis-partitioning the cube round. Safe on
    /// arbitrary bytes: every read is bounds-checked and every declared
    /// count is validated against the bytes actually present.
    pub fn from_bytes(bytes: &[u8]) -> Result<SpSketch> {
        let body = checked_body(bytes, "sketch")?;
        let mut r = Reader::labeled(body, "sketch");
        let magic = r.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err(r.corrupt("bad sketch magic"));
        }
        let d = r.u32()? as usize;
        let k = r.u32()? as usize;
        if d > Mask::MAX_DIMS {
            return Err(r.corrupt(format!(
                "declares {d} dimensions, max is {}",
                Mask::MAX_DIMS
            )));
        }
        let mut nodes = Vec::with_capacity(1usize << d);
        for m in 0..(1u32 << d) {
            let mask = Mask(m);
            let arity = mask.arity() as usize;
            let mut node = SketchNode::new(mask);
            let n_skews = r.u32()? as usize;
            // A key needs at least one tagged value per arity slot (or is
            // empty for the apex); bound the declared count by the bytes
            // left so a forged header cannot drive a huge allocation.
            r.check_count(n_skews, arity.saturating_mul(5), "skew keys")?;
            for _ in 0..n_skews {
                let mut key = Vec::with_capacity(arity);
                for _ in 0..arity {
                    key.push(r.value()?);
                }
                node.add_skew(key.into_boxed_slice());
            }
            let n_elements = r.u32()? as usize;
            r.check_count(n_elements, arity.saturating_mul(5), "partition elements")?;
            let mut elements = Vec::with_capacity(n_elements);
            for _ in 0..n_elements {
                let mut e = Vec::with_capacity(arity);
                for _ in 0..arity {
                    e.push(r.value()?);
                }
                elements.push(e.into_boxed_slice());
            }
            // Order is an untrusted input here; `validate` re-checks it.
            node.set_partition_elements_unchecked(elements);
            nodes.push(node);
        }
        if !r.is_exhausted() {
            return Err(r.corrupt("trailing bytes after sketch"));
        }
        Ok(SpSketch { d, k, nodes })
    }
}

impl SpSketch {
    /// Check the semantic invariants every correctly-built sketch holds:
    ///
    /// 1. each cuboid's partition elements are sorted ascending (otherwise
    ///    [`SpSketch::partition_of`]'s binary search routes one c-group to
    ///    several reducers and the cube output is wrong), and
    /// 2. skew sets are *upward-closed*: a group skewed at cuboid `C`
    ///    projects to a group with at least as many tuples in every
    ///    coarser cuboid, so its projection must be recorded as skewed
    ///    there too (otherwise the mapper's anchor walk can anchor a
    ///    skewed group and flood one reducer — the failure SP-Cube exists
    ///    to prevent).
    ///
    /// The SP-Cube driver runs this on the sketch read back from the DFS
    /// and falls back to hash partitioning when it fails.
    pub fn validate(&self) -> Result<()> {
        for node in &self.nodes {
            let mask = node.mask();
            let arity = mask.arity() as usize;
            let elements = node.partition_elements();
            for e in elements {
                if e.len() != arity {
                    return Err(Error::Parse(format!(
                        "sketch node {mask}: partition element of arity {}, expected {arity}",
                        e.len()
                    )));
                }
            }
            if let Some(w) = elements.windows(2).find(|w| w[0] > w[1]) {
                return Err(Error::Parse(format!(
                    "sketch node {mask}: partition elements out of order ({:?} > {:?})",
                    w[0], w[1]
                )));
            }
            for key in node.skews() {
                if key.len() != arity {
                    return Err(Error::Parse(format!(
                        "sketch node {mask}: skew key of arity {}, expected {arity}",
                        key.len()
                    )));
                }
                for child in mask.children() {
                    let proj: Vec<Value> = mask
                        .dims()
                        .zip(key)
                        .filter(|(dim, _)| child.contains(*dim))
                        .map(|(_, v)| v.clone())
                        .collect();
                    if !self.nodes[child.0 as usize].is_skewed(&proj) {
                        return Err(Error::Parse(format!(
                            "sketch skews not upward-closed: {key:?} is skewed at {mask} \
                             but its projection {proj:?} is not skewed at {child}"
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sketch() -> SpSketch {
        let mut nodes: Vec<SketchNode> = (0..4u32).map(|m| SketchNode::new(Mask(m))).collect();
        // Upward-closed: the skewed group at m01 projects to the apex.
        nodes[0b00].add_skew(Box::new([]));
        nodes[0b01].add_skew(vec![Value::Int(7)].into_boxed_slice());
        nodes[0b01].set_partition_elements(vec![
            vec![Value::Int(3)].into_boxed_slice(),
            vec![Value::Int(9)].into_boxed_slice(),
        ]);
        nodes[0b10].set_partition_elements(vec![
            vec![Value::str("cam")].into_boxed_slice(),
            vec![Value::str("tv")].into_boxed_slice(),
        ]);
        SpSketch::new(2, 3, nodes)
    }

    #[test]
    fn skew_lookup() {
        let s = tiny_sketch();
        assert!(s.is_skewed(Mask(0b01), &[Value::Int(7)]));
        assert!(!s.is_skewed(Mask(0b01), &[Value::Int(8)]));
        assert!(!s.is_skewed(Mask(0b10), &[Value::Int(7)]));
        assert_eq!(s.skew_count(), 2);
    }

    #[test]
    fn partition_lookup_ranges() {
        let s = tiny_sketch();
        // elements: [3], [9] -> ranges (-inf,3], (3,9], (9,inf)
        assert_eq!(s.partition_of(Mask(0b01), &[Value::Int(1)]), 0);
        assert_eq!(s.partition_of(Mask(0b01), &[Value::Int(3)]), 0);
        assert_eq!(s.partition_of(Mask(0b01), &[Value::Int(4)]), 1);
        assert_eq!(s.partition_of(Mask(0b01), &[Value::Int(9)]), 1);
        assert_eq!(s.partition_of(Mask(0b01), &[Value::Int(10)]), 2);
        // Cuboid without elements: everything range 0.
        assert_eq!(
            s.partition_of(Mask(0b11), &[Value::Int(10), Value::Int(1)]),
            0
        );
    }

    #[test]
    fn binary_round_trip() {
        let s = tiny_sketch();
        let bytes = s.to_bytes().expect("encode");
        assert_eq!(&bytes[..5], MAGIC);
        assert_eq!(bytes.len() as u64, s.serialized_bytes());
        let back = SpSketch::from_bytes(&bytes).expect("decode");
        assert_eq!(back.dims(), 2);
        assert_eq!(back.machines(), 3);
        assert!(back.is_skewed(Mask(0b01), &[Value::Int(7)]));
        assert_eq!(back.partition_of(Mask(0b01), &[Value::Int(4)]), 1);
        assert_eq!(back.partition_of(Mask(0b10), &[Value::str("dvd")]), 1);
        // Deterministic encoding.
        assert_eq!(back.to_bytes().expect("re-encode"), bytes);
        assert!(back.validate().is_ok());
    }

    #[test]
    fn bad_bytes_rejected() {
        assert!(SpSketch::from_bytes(b"not a sketch").is_err());
        assert!(SpSketch::from_bytes(b"").is_err());
        let good = tiny_sketch().to_bytes().expect("encode");
        // Truncation, wrong magic, trailing garbage: all rejected.
        assert!(SpSketch::from_bytes(&good[..good.len() - 1]).is_err());
        let mut wrong_magic = good.clone();
        wrong_magic[0] = b'X';
        assert!(SpSketch::from_bytes(&wrong_magic).is_err());
        let mut padded = good.clone();
        padded.push(0);
        assert!(SpSketch::from_bytes(&padded).is_err());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // The checksum (or, for flips inside the checksum itself, the
        // comparison) catches any one-bit corruption anywhere in the blob.
        let good = tiny_sketch().to_bytes().expect("encode");
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            assert!(
                SpSketch::from_bytes(&bad).is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn validate_rejects_unsorted_partition_elements() {
        let mut s = tiny_sketch();
        s.nodes[0b01].set_partition_elements_unchecked(vec![
            vec![Value::Int(9)].into_boxed_slice(),
            vec![Value::Int(3)].into_boxed_slice(),
        ]);
        let err = s.validate().expect_err("invalid sketch");
        assert!(err.to_string().contains("out of order"), "{err}");
    }

    #[test]
    fn validate_rejects_non_upward_closed_skews() {
        let mut nodes: Vec<SketchNode> = (0..4u32).map(|m| SketchNode::new(Mask(m))).collect();
        // Skewed at m11 but its projections are recorded nowhere.
        nodes[0b11].add_skew(vec![Value::Int(1), Value::Int(2)].into_boxed_slice());
        let s = SpSketch::new(2, 3, nodes);
        let err = s.validate().expect_err("invalid sketch");
        assert!(err.to_string().contains("upward-closed"), "{err}");
    }

    #[test]
    fn validate_accepts_built_sketches() {
        // The real builder's output must always pass its own validation.
        use spcube_common::{Relation, Schema};
        let mut rel = Relation::empty(Schema::synthetic(2));
        for i in 0..400 {
            let a = if i < 200 { 1 } else { i as i64 };
            rel.push_row(vec![Value::Int(a), Value::Int(i as i64 % 7)], 1.0);
        }
        let refs: Vec<&spcube_common::Tuple> = rel.tuples().iter().collect();
        let s = build_sketch_from(&refs, 2, 4, 50.0);
        assert!(s.skew_count() > 0, "test needs a non-trivial sketch");
        assert!(s.validate().is_ok());
        // And it survives a DFS round trip.
        assert!(SpSketch::from_bytes(&s.to_bytes().expect("encode"))
            .expect("decode")
            .validate()
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "one node per cuboid")]
    fn wrong_node_count_panics() {
        SpSketch::new(3, 2, vec![SketchNode::new(Mask(0))]);
    }
}

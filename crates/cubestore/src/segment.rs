//! Columnar cuboid segments — the store's unit of persistence.
//!
//! One segment holds one cuboid, mirroring the paper's one-file-per-cuboid
//! output layout (Section 3.1). Inside, the cuboid is stored *columnar*:
//! every grouped dimension becomes a dictionary-encoded column (a sorted
//! dictionary of distinct values plus one `u32` code per row), and the
//! aggregate outputs form a final values column. Rows are sorted by group
//! key, so point lookups and range reasoning work on codes alone.
//!
//! On top of the columns the segment carries per-block metadata, computed
//! at build time and persisted with the data:
//!
//! * a **sparse first-key index** — blocks have a fixed row stride, so the
//!   first key of each block (derivable from its start row) splits the
//!   sorted row space; a point probe binary-searches the block firsts and
//!   scans at most one block;
//! * **zone maps** — per block, the min/max code of every column; a slice
//!   on `dim = value` skips every block whose code range excludes the
//!   value.
//!
//! Two constructors share one column builder, so a cuboid encodes to the
//! same bytes whichever built it. [`Segment::from_sorted`] borrows rows
//! already sorted by key — the store's write path hands it a cube's
//! cuboids as they are — and checks that order instead of trusting it.
//! [`Segment::build`] sorts owned rows first (recovery, delta reads and the
//! scrubber's repairs).
//!
//! Since dictionaries are sorted, code order is key order, and so row
//! order is key order. The store's query kernels (`CubeRead` for
//! `Segment`, in the store module) answer from these columns and
//! materialize only the rows they return: top-k is one pass over
//! [`Segment::values`].
//!
//! # Wire format (`CSEG1`)
//!
//! ```text
//! "CSEG1" | u32 d | u32 mask | u32 rows | u32 block_size
//! per column (ascending dimension order):
//!     u32 dict_len | dict values (sorted, tagged) | rows × u32 codes
//! rows × tagged aggregate outputs
//! u32 n_blocks | per block, per column: u32 min_code | u32 max_code
//! u64 XXH64 checksum of everything above
//! ```
//!
//! [`Segment::decode`] verifies the checksum first and then the structural
//! invariants (sorted dictionaries, in-range codes, zone maps equal to
//! each block's code ranges, sorted rows), so a corrupt or hand-forged
//! blob is rejected rather than served.
// Codec: no silently narrowing cast, no untyped error (DESIGN.md §8).
#![warn(clippy::cast_possible_truncation, clippy::disallowed_types)]
#![expect(
    clippy::indexing_slicing,
    clippy::panic,
    reason = "the columnar layout: the builder asserts, and the row accessors index columns whose lengths decode has checked; the query kernels over it live in store.rs"
)]

use std::cmp::Ordering;

use spcube_agg::AggOutput;
use spcube_common::{Error, Group, Mask, Result, Value};

use crate::codec::{
    checked_body, put_agg_output, put_len, put_u32, put_value, seal, AggRead, Reader,
};

/// Magic prefix of a serialized segment (format version 1).
pub const SEGMENT_MAGIC: &[u8; 5] = b"CSEG1";

/// Default rows per block for the sparse index / zone maps.
pub const DEFAULT_BLOCK_SIZE: usize = 64;

/// Most columns a segment can have: one per bit of a [`Mask`].
const MAX_ARITY: usize = 32;

/// One dictionary-encoded dimension column.
#[derive(Debug, Clone)]
struct Column {
    /// Distinct values, sorted ascending; codes index into this.
    dict: Vec<Value>,
    /// One code per row.
    codes: Vec<u32>,
}

impl Column {
    /// The dictionary column of key slot `slot` over `keys`, one row per
    /// key: the distinct values sorted ascending, and each row's index into
    /// them. One sort of borrowed values, then one pass that clones each
    /// distinct value once; no per-row lookup. Every key must have the slot.
    fn build(keys: &[&[Value]], slot: usize) -> Column {
        let mut order: Vec<(&Value, usize)> = keys
            .iter()
            .enumerate()
            .map(|(row, k)| (&k[slot], row))
            .collect();
        // Stable, so the already sorted runs of a sorted segment's columns
        // (all of the first one) merge rather than re-sort.
        order.sort_by(|a, b| a.0.cmp(b.0));
        let mut dict: Vec<Value> = Vec::new();
        let mut codes = vec![0; keys.len()];
        let mut code = 0;
        for (v, row) in order {
            if dict.last() != Some(v) {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "encode-side cast; dict len <= row count, which put_len caps at u32::MAX at write time"
                )]
                let next = dict.len() as u32;
                code = next;
                dict.push(v.clone());
            }
            codes[row] = code;
        }
        Column { dict, codes }
    }

    /// The dictionary code of `v`, if present.
    fn code_of(&self, v: &Value) -> Option<u32> {
        self.dict
            .binary_search(v)
            .ok()
            .and_then(|i| u32::try_from(i).ok())
    }
}

/// Per-block metadata: the zone map (min/max code per column). The block's
/// first row — the sparse-index key — is `block_index * block_size`.
#[derive(Debug, Clone)]
struct BlockMeta {
    /// `(min_code, max_code)` per column, in column order.
    ranges: Vec<(u32, u32)>,
}

/// A decoded, query-ready cuboid segment.
#[derive(Debug, Clone)]
pub struct Segment {
    d: usize,
    mask: Mask,
    block_size: usize,
    columns: Vec<Column>,
    values: Vec<AggOutput>,
    blocks: Vec<BlockMeta>,
}

impl Segment {
    /// Build a segment from the rows of one cuboid, in any order: sorts
    /// them by key and hands them to [`Segment::from_sorted`]. Panics on
    /// a key of the wrong arity or a key given twice (programming errors,
    /// like [`Group::new`]'s arity check).
    pub fn build(d: usize, mask: Mask, mut rows: Vec<(Box<[Value]>, AggOutput)>) -> Segment {
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        match Segment::from_sorted(d, mask, rows.iter().map(|(k, v)| (k.as_ref(), v))) {
            Ok(seg) => seg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Build a segment from borrowed rows of one cuboid that are already
    /// sorted strictly ascending by key, as a [`Cube`]'s cuboids are: no
    /// sort, and only each column's distinct values and the aggregates are
    /// copied. The order is checked, not trusted: a key of the wrong arity,
    /// or rows out of order or repeated, fail with [`Error::Internal`].
    ///
    /// [`Cube`]: spcube_cubealg::Cube
    pub fn from_sorted<'a>(
        d: usize,
        mask: Mask,
        rows: impl IntoIterator<Item = (&'a [Value], &'a AggOutput)>,
    ) -> Result<Segment> {
        let arity = mask.arity() as usize;
        let mut keys: Vec<&[Value]> = Vec::new();
        let mut values = Vec::new();
        for (key, value) in rows {
            if key.len() != arity {
                return Err(Error::Internal(format!(
                    "segment row arity mismatch for cuboid {mask}"
                )));
            }
            if keys.last().is_some_and(|&prev| prev >= key) {
                return Err(Error::Internal(format!(
                    "cuboid {mask}: segment rows not strictly ascending at row {}",
                    keys.len()
                )));
            }
            keys.push(key);
            values.push(value.clone());
        }
        let columns: Vec<Column> = (0..arity).map(|slot| Column::build(&keys, slot)).collect();
        let blocks = build_blocks(&columns, values.len(), DEFAULT_BLOCK_SIZE);
        Ok(Segment {
            d,
            mask,
            block_size: DEFAULT_BLOCK_SIZE,
            columns,
            values,
            blocks,
        })
    }

    /// Total dimensions of the cube this segment belongs to.
    pub fn dims(&self) -> usize {
        self.d
    }

    /// The cuboid this segment holds.
    pub fn mask(&self) -> Mask {
        self.mask
    }

    /// Number of rows (groups).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the cuboid is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Approximate decoded footprint in bytes, used for cache accounting.
    pub fn heap_bytes(&self) -> u64 {
        let dict: u64 = self
            .columns
            .iter()
            .flat_map(|c| c.dict.iter())
            .map(Value::wire_bytes)
            .sum();
        let codes: u64 = self.columns.iter().map(|c| 4 * c.codes.len() as u64).sum();
        let values = 16 * self.values.len() as u64;
        dict + codes + values
    }

    /// Materialize the key of row `i`.
    pub fn key(&self, i: usize) -> Vec<Value> {
        self.columns
            .iter()
            .map(|c| c.dict[c.codes[i] as usize].clone())
            .collect()
    }

    /// Materialize row `i` as a [`Group`].
    pub fn group(&self, i: usize) -> Group {
        Group::new(self.mask, self.key(i))
    }

    /// The aggregate of row `i`.
    pub fn value(&self, i: usize) -> &AggOutput {
        &self.values[i]
    }

    /// The values column: every row's aggregate, in key order.
    pub fn values(&self) -> &[AggOutput] {
        &self.values
    }

    /// Iterate over all rows in key order.
    pub fn iter(&self) -> impl Iterator<Item = (Group, &AggOutput)> + '_ {
        (0..self.len()).map(|i| (self.group(i), &self.values[i]))
    }

    /// Compare row `i` against needle codes, column by column.
    fn cmp_row(&self, i: usize, needle: &[u32]) -> Ordering {
        for (col, &code) in self.columns.iter().zip(needle) {
            match col.codes[i].cmp(&code) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    }

    /// Compare rows `a` and `b` by key, column by column, in place.
    fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        for col in &self.columns {
            match col.codes[a].cmp(&col.codes[b]) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    }

    /// Point lookup via the sparse first-key index: binary-search the block
    /// firsts for the last block whose first key is `<=` the needle, then
    /// scan only that block. Allocation-free: the needle's codes live on
    /// the stack and the search runs over block numbers directly.
    pub fn point(&self, key: &[Value]) -> Option<&AggOutput> {
        if key.len() != self.columns.len() {
            return None;
        }
        let mut codes = [0u32; MAX_ARITY];
        let needle = &mut codes[..key.len()];
        for ((code, col), v) in needle.iter_mut().zip(&self.columns).zip(key) {
            // A value absent from its dictionary cannot be in the segment.
            *code = col.code_of(v)?;
        }
        // The blocks whose first key is <= the needle form a prefix.
        let (mut lo, mut hi) = (0, self.blocks.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.cmp_row(mid * self.block_size, needle) == Ordering::Greater {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let start = lo.checked_sub(1)? * self.block_size;
        let end = (start + self.block_size).min(self.len());
        (start..end)
            .find(|&i| self.cmp_row(i, needle) == Ordering::Equal)
            .map(|i| &self.values[i])
    }

    /// Row indices whose value on column `slot` equals `value`, pruned by
    /// the per-block zone maps.
    pub fn slice_rows(&self, slot: usize, value: &Value) -> Vec<usize> {
        let Some(code) = self.columns.get(slot).and_then(|c| c.code_of(value)) else {
            return Vec::new();
        };
        let mut rows = Vec::new();
        for (b, meta) in self.blocks.iter().enumerate() {
            let (lo, hi) = meta.ranges[slot];
            if code < lo || code > hi {
                continue; // zone map excludes this block
            }
            let start = b * self.block_size;
            let end = (start + self.block_size).min(self.len());
            for i in start..end {
                if self.columns[slot].codes[i] == code {
                    rows.push(i);
                }
            }
        }
        rows
    }

    /// Serialize (see the module-level wire format). Fails only when a
    /// collection exceeds the format's 32-bit length fields.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        out.extend_from_slice(SEGMENT_MAGIC);
        put_len(&mut out, self.d)?;
        put_u32(&mut out, self.mask.0);
        put_len(&mut out, self.len())?;
        put_len(&mut out, self.block_size)?;
        for col in &self.columns {
            put_len(&mut out, col.dict.len())?;
            for v in &col.dict {
                put_value(&mut out, v)?;
            }
            for &code in &col.codes {
                put_u32(&mut out, code);
            }
        }
        for v in &self.values {
            put_agg_output(&mut out, v)?;
        }
        put_len(&mut out, self.blocks.len())?;
        for meta in &self.blocks {
            for &(lo, hi) in &meta.ranges {
                put_u32(&mut out, lo);
                put_u32(&mut out, hi);
            }
        }
        seal(&mut out);
        Ok(out)
    }

    /// Deserialize, verifying the checksum before any field is trusted and
    /// then the structural invariants a correct builder guarantees.
    pub fn decode(bytes: &[u8]) -> Result<Segment> {
        let body = checked_body(bytes, "segment")?;
        let mut r = Reader::labeled(body, "segment");
        if r.take(SEGMENT_MAGIC.len())? != SEGMENT_MAGIC {
            return Err(r.corrupt("bad segment magic"));
        }
        let d = r.u32()? as usize;
        if d > Mask::MAX_DIMS {
            return Err(r.corrupt(format!(
                "declares {d} dimensions, max is {}",
                Mask::MAX_DIMS
            )));
        }
        let mask = Mask(r.u32()?);
        if !mask.is_subset_of(Mask::full(d)) {
            return Err(r.corrupt(format!("cuboid {mask} has bits beyond d={d}")));
        }
        let rows = r.u32()? as usize;
        let block_size = r.u32()? as usize;
        if block_size == 0 {
            return Err(r.corrupt("block size must be positive"));
        }
        let arity = mask.arity() as usize;
        let mut columns = Vec::with_capacity(arity);
        for slot in 0..arity {
            let dict_len = r.u32()? as usize;
            // A value is at least 5 wire bytes (tag + shortest payload);
            // reject a forged dictionary length before allocating for it.
            r.check_count(dict_len, 5, "dictionary values")?;
            let mut dict = Vec::with_capacity(dict_len);
            for _ in 0..dict_len {
                dict.push(r.value()?);
            }
            if dict.windows(2).any(|w| w[0] >= w[1]) {
                return Err(r.corrupt(format!(
                    "cuboid {mask}: column {slot} dictionary not sorted/distinct"
                )));
            }
            // The whole code column as one slice: one bounds check, then
            // the range check over the decoded codes.
            r.check_count(rows, 4, "row codes")?;
            let codes: Vec<u32> = r
                .take(rows * 4)?
                .as_chunks::<4>()
                .0
                .iter()
                .map(|&c| u32::from_le_bytes(c))
                .collect();
            if let Some(code) = codes.iter().find(|&&c| c as usize >= dict_len) {
                return Err(r.corrupt(format!(
                    "cuboid {mask}: column {slot} code {code} beyond dictionary"
                )));
            }
            columns.push(Column { dict, codes });
        }
        let values = r.agg_outputs(rows)?;
        let n_blocks = r.u32()? as usize;
        if n_blocks != rows.div_ceil(block_size) {
            return Err(r.corrupt(format!(
                "cuboid {mask}: {n_blocks} blocks for {rows} rows at stride {block_size}"
            )));
        }
        // Slices skip blocks by their zone maps, so a narrowed range would
        // drop rows: each persisted range must be its block's code range.
        let blocks = build_blocks(&columns, rows, block_size);
        for (b, meta) in blocks.iter().enumerate() {
            for (slot, &range) in meta.ranges.iter().enumerate() {
                let stored = (r.u32()?, r.u32()?);
                if stored != range {
                    return Err(r.corrupt(format!(
                        "cuboid {mask}: block {b} column {slot} zone map {stored:?} \
                         is not its code range {range:?}"
                    )));
                }
            }
        }
        if !r.is_exhausted() {
            return Err(r.corrupt("trailing bytes after segment"));
        }
        let seg = Segment {
            d,
            mask,
            block_size,
            columns,
            values,
            blocks,
        };
        // Rows must be sorted strictly ascending (groups are unique).
        if let Some(i) = (1..seg.len()).find(|&i| seg.cmp_rows(i - 1, i) != Ordering::Less) {
            return Err(Error::corrupt(
                "segment",
                format!("cuboid {mask}: rows not sorted at {i}"),
            ));
        }
        Ok(seg)
    }
}

/// Compute the per-block zone maps for `columns` over `rows` rows: what
/// [`Segment::build`] persists and what decode requires the persisted ones
/// to be.
fn build_blocks(columns: &[Column], rows: usize, block_size: usize) -> Vec<BlockMeta> {
    let n_blocks = rows.div_ceil(block_size);
    (0..n_blocks)
        .map(|b| {
            let start = b * block_size;
            // Saturating: decode passes the stride read from the blob.
            let end = start.saturating_add(block_size).min(rows);
            let ranges = columns
                .iter()
                .map(|c| {
                    // One pass for both ends: decode recomputes these on
                    // every cache miss.
                    c.codes[start..end]
                        .iter()
                        .fold((u32::MAX, u32::MIN), |(lo, hi), &code| {
                            (lo.min(code), hi.max(code))
                        })
                })
                .collect();
            BlockMeta { ranges }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(vals: &[i64]) -> Box<[Value]> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    fn sample_segment(rows: usize) -> Segment {
        let data: Vec<(Box<[Value]>, AggOutput)> = (0..rows)
            .map(|i| {
                (
                    k(&[(i / 7) as i64, (i % 7) as i64]),
                    AggOutput::Number(i as f64),
                )
            })
            .collect();
        Segment::build(3, Mask(0b011), data)
    }

    #[test]
    fn build_sorts_rows_and_round_trips() {
        let rows = vec![
            (k(&[2, 1]), AggOutput::Number(3.0)),
            (k(&[1, 5]), AggOutput::Number(1.0)),
            (k(&[1, 2]), AggOutput::Number(2.0)),
        ];
        let seg = Segment::build(3, Mask(0b011), rows);
        assert_eq!(seg.len(), 3);
        assert_eq!(seg.key(0), vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(seg.key(2), vec![Value::Int(2), Value::Int(1)]);
        let bytes = seg.encode().expect("encode");
        assert_eq!(&bytes[..5], SEGMENT_MAGIC);
        let back = Segment::decode(&bytes).expect("decode");
        assert_eq!(back.len(), 3);
        for i in 0..3 {
            assert_eq!(back.key(i), seg.key(i));
            assert_eq!(back.value(i), seg.value(i));
        }
        // Deterministic encoding.
        assert_eq!(back.encode().expect("re-encode"), bytes);
    }

    #[test]
    fn point_probes_through_the_sparse_index() {
        let seg = sample_segment(500); // multiple blocks at stride 64
        assert_eq!(
            seg.point(&[Value::Int(3), Value::Int(4)]),
            Some(&AggOutput::Number(25.0))
        );
        assert_eq!(
            seg.point(&[Value::Int(0), Value::Int(0)]),
            Some(&AggOutput::Number(0.0))
        );
        let last = seg.len() - 1;
        let last_key = seg.key(last);
        assert_eq!(seg.point(&last_key), Some(seg.value(last)));
        // Every row, across every block boundary.
        for i in 0..seg.len() {
            assert_eq!(seg.point(&seg.key(i)), Some(seg.value(i)), "row {i}");
        }
        // Both values are in their dictionaries, but the last row is
        // (71, 2): the probe lands past the end of the last block.
        assert_eq!(seg.point(&[Value::Int(71), Value::Int(3)]), None);
        // Absent values (not even in the dictionary) miss cheaply.
        assert_eq!(seg.point(&[Value::Int(999), Value::Int(0)]), None);
        // Wrong arity misses rather than panicking.
        assert_eq!(seg.point(&[Value::Int(1)]), None);
    }

    #[test]
    fn slice_rows_match_a_full_scan() {
        let seg = sample_segment(500);
        for v in [0i64, 3, 6] {
            let got = seg.slice_rows(1, &Value::Int(v));
            let expect: Vec<usize> = (0..seg.len())
                .filter(|&i| seg.key(i)[1] == Value::Int(v))
                .collect();
            assert_eq!(got, expect, "value {v}");
        }
        assert!(seg.slice_rows(1, &Value::Int(42)).is_empty());
        assert!(
            seg.slice_rows(9, &Value::Int(0)).is_empty(),
            "bad slot is empty, not a panic"
        );
    }

    #[test]
    fn apex_segment_has_no_columns() {
        let seg = Segment::build(3, Mask::EMPTY, vec![(Box::new([]), AggOutput::Number(7.0))]);
        assert_eq!(seg.len(), 1);
        assert_eq!(seg.point(&[]), Some(&AggOutput::Number(7.0)));
        let back = Segment::decode(&seg.encode().expect("encode")).expect("decode");
        assert_eq!(back.point(&[]), Some(&AggOutput::Number(7.0)));
    }

    #[test]
    fn empty_segment_round_trips() {
        let seg = Segment::build(2, Mask(0b01), Vec::new());
        assert!(seg.is_empty());
        let back = Segment::decode(&seg.encode().expect("encode")).expect("decode");
        assert!(back.is_empty());
        assert_eq!(back.point(&[Value::Int(1)]), None);
    }

    #[test]
    fn topk_values_survive_the_round_trip() {
        let rows = vec![(k(&[1]), AggOutput::TopK(vec![(2.0, 9), (1.0, 3)]))];
        let seg = Segment::build(1, Mask(0b1), rows);
        let back = Segment::decode(&seg.encode().expect("encode")).expect("decode");
        assert_eq!(back.value(0), &AggOutput::TopK(vec![(2.0, 9), (1.0, 3)]));
    }

    #[test]
    fn string_dimensions_round_trip() {
        let rows = vec![
            (
                vec![Value::str("Rome")].into_boxed_slice(),
                AggOutput::Number(1.0),
            ),
            (
                vec![Value::str("Paris")].into_boxed_slice(),
                AggOutput::Number(2.0),
            ),
        ];
        let seg = Segment::build(1, Mask(0b1), rows);
        let back = Segment::decode(&seg.encode().expect("encode")).expect("decode");
        assert_eq!(
            back.point(&[Value::str("Paris")]),
            Some(&AggOutput::Number(2.0))
        );
        assert_eq!(back.point(&[Value::str("Berlin")]), None);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample_segment(40).encode().expect("encode");
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                Segment::decode(&bad).is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn forged_blobs_are_rejected() {
        assert!(Segment::decode(b"").is_err());
        assert!(Segment::decode(b"CSEG1").is_err());
        let good = sample_segment(10).encode().expect("encode");
        assert!(Segment::decode(&good[..good.len() - 1]).is_err());
        let mut padded = good.clone();
        padded.insert(padded.len() - 8, 0);
        assert!(Segment::decode(&padded).is_err());
    }

    /// Distinct rows of cuboid `0b101` sorted by key: an integer slot and
    /// a string slot, and every tenth row a top-k aggregate.
    fn mixed_rows(n: usize) -> Vec<(Box<[Value]>, AggOutput)> {
        let mut rows: Vec<(Box<[Value]>, AggOutput)> = (0..n)
            .map(|i| {
                // (i mod 101, i mod 5) is distinct for i < 505.
                let key = vec![
                    Value::Int((i * 37 % 101) as i64 - 50),
                    Value::str(["rome", "paris", "oslo", "bern", "kyiv"][i * 7 % 5]),
                ];
                let out = if i % 10 == 0 {
                    AggOutput::TopK(vec![(i as f64, 3), (1.0, 1)])
                } else {
                    AggOutput::Number(i as f64 - 7.5)
                };
                (key.into_boxed_slice(), out)
            })
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    fn presorted(mask: Mask, rows: &[(Box<[Value]>, AggOutput)]) -> Result<Segment> {
        Segment::from_sorted(3, mask, rows.iter().map(|(k, v)| (k.as_ref(), v)))
    }

    #[test]
    fn from_sorted_encodes_exactly_what_build_does() {
        let cuboids = [
            (Mask(0b101), mixed_rows(300)),
            (Mask::EMPTY, vec![(k(&[]), AggOutput::Number(7.0))]),
            (Mask(0b010), Vec::new()),
        ];
        for (mask, rows) in cuboids {
            let n = rows.len();
            // 7919 is prime, so i -> 7919 i mod n permutes the rows.
            let shuffled = (0..n).map(|i| rows[i * 7919 % n].clone()).collect();
            let built = Segment::build(3, mask, shuffled).encode().expect("encode");
            let seg = presorted(mask, &rows).expect("sorted rows");
            assert_eq!(seg.encode().expect("encode"), built, "cuboid {mask}");
        }
    }

    #[test]
    fn from_sorted_rejects_unsorted_duplicate_and_misshapen_rows() {
        let rows = mixed_rows(20);
        let mut swapped = rows.clone();
        swapped.swap(3, 4);
        let mut repeated = rows.clone();
        repeated.insert(5, rows[4].clone());
        for (what, bad) in [("unsorted", swapped), ("duplicate", repeated)] {
            let err = presorted(Mask(0b101), &bad).expect_err(what);
            assert!(matches!(err, Error::Internal(_)), "{what}: {err}");
            assert!(err.to_string().contains("not strictly ascending"), "{err}");
        }
        let err = presorted(Mask(0b111), &rows).expect_err("arity");
        assert!(matches!(err, Error::Internal(_)), "{err}");
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn build_panics_on_a_repeated_key() {
        Segment::build(
            2,
            Mask(0b01),
            vec![
                (k(&[1]), AggOutput::Number(1.0)),
                (k(&[1]), AggOutput::Number(2.0)),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_rows_panic() {
        Segment::build(2, Mask(0b11), vec![(k(&[1]), AggOutput::Number(1.0))]);
    }
}

//! Aggregate-aware binary primitives for the store's on-disk formats.
//!
//! The segment format (`CSEG1`) and the manifest format (`CMAN1`) follow
//! the workspace-wide codec conventions defined once in
//! [`spcube_common::codec`]: a 5-byte magic, little-endian fixed-width
//! integers, tagged values, and a trailing 64-bit XXH64 checksum over
//! everything before it. This module re-exports those primitives and adds
//! the aggregate-specific encodings ([`AggOutput`], [`AggSpec`]) the store
//! persists. All decoding is panic-free: arbitrary corrupt bytes come
//! back as [`Error::Corrupt`](spcube_common::Error::Corrupt), never a
//! crash, so the recover path can kick in.
// Codec: no silently narrowing cast, no untyped error (DESIGN.md §8).
#![warn(clippy::cast_possible_truncation, clippy::disallowed_types)]

use spcube_agg::{AggOutput, AggSpec, AggState};
use spcube_common::Result;

pub use spcube_common::codec::{
    checked_body, put_f64, put_len, put_u32, put_u64, put_value, seal, Reader, TAG_INT, TAG_STR,
};

/// Aggregate-output tag: scalar.
pub const TAG_NUMBER: u8 = 0;
/// Aggregate-output tag: ranked `(value, frequency)` list.
pub const TAG_TOPK: u8 = 1;

/// Wire bytes of one scalar output record: [`TAG_NUMBER`], then the
/// `f64` bit pattern.
const SCALAR_BYTES: usize = 9;

/// The value of `rec` if it is a scalar output record, `None` if it
/// starts with another tag. The one reader of the scalar layout:
/// [`AggRead::agg_output`] and the bulk [`AggRead::agg_outputs`] both
/// parse through it.
fn scalar(rec: &[u8; SCALAR_BYTES]) -> Option<f64> {
    match rec {
        [TAG_NUMBER, bits @ ..] => Some(f64::from_bits(u64::from_le_bytes(*bits))),
        _ => None,
    }
}

/// Append a tagged [`AggOutput`].
pub fn put_agg_output(out: &mut Vec<u8>, v: &AggOutput) -> Result<()> {
    match v {
        AggOutput::Number(x) => {
            out.push(TAG_NUMBER);
            put_f64(out, *x);
        }
        AggOutput::TopK(entries) => {
            out.push(TAG_TOPK);
            put_len(out, entries.len())?;
            for (value, freq) in entries {
                put_f64(out, *value);
                put_u64(out, *freq);
            }
        }
    }
    Ok(())
}

/// Append an [`AggSpec`] (stored in the manifest so degraded recompute
/// reproduces the same aggregate).
pub fn put_agg_spec(out: &mut Vec<u8>, spec: AggSpec) -> Result<()> {
    let (tag, k) = match spec {
        AggSpec::Count => (0u8, 0usize),
        AggSpec::Sum => (1, 0),
        AggSpec::Min => (2, 0),
        AggSpec::Max => (3, 0),
        AggSpec::Avg => (4, 0),
        AggSpec::TopKFrequent(k) => (5, k),
        AggSpec::CountDistinct => (6, 0),
    };
    out.push(tag);
    put_len(out, k)?;
    Ok(())
}

/// Aggregate-state tags, one per [`AggState`] variant. Unlike
/// [`AggOutput`], a state is lossless for algebraic/holistic aggregates
/// (AVG keeps its sum and count, COUNT-DISTINCT its value set), which is
/// what makes layered delta segments mergeable bit-exactly.
const TAG_STATE_COUNT: u8 = 0;
const TAG_STATE_SUM: u8 = 1;
const TAG_STATE_MIN: u8 = 2;
const TAG_STATE_MAX: u8 = 3;
const TAG_STATE_AVG: u8 = 4;
const TAG_STATE_TOPK: u8 = 5;
const TAG_STATE_DISTINCT: u8 = 6;

/// Append a tagged [`AggState`] (the mergeable partial, not the finalized
/// output — delta layers must stay mergeable).
pub fn put_agg_state(out: &mut Vec<u8>, v: &AggState) -> Result<()> {
    match v {
        AggState::Count(n) => {
            out.push(TAG_STATE_COUNT);
            put_u64(out, *n);
        }
        AggState::Sum(x) => {
            out.push(TAG_STATE_SUM);
            put_f64(out, *x);
        }
        AggState::Min(x) => {
            out.push(TAG_STATE_MIN);
            put_f64(out, *x);
        }
        AggState::Max(x) => {
            out.push(TAG_STATE_MAX);
            put_f64(out, *x);
        }
        AggState::Avg { sum, count } => {
            out.push(TAG_STATE_AVG);
            put_f64(out, *sum);
            put_u64(out, *count);
        }
        AggState::TopK { k, counts } => {
            out.push(TAG_STATE_TOPK);
            put_len(out, *k)?;
            put_len(out, counts.len())?;
            for (bits, n) in counts {
                put_u64(out, *bits);
                put_u64(out, *n);
            }
        }
        AggState::Distinct(values) => {
            out.push(TAG_STATE_DISTINCT);
            put_len(out, values.len())?;
            for bits in values {
                put_u64(out, *bits);
            }
        }
    }
    Ok(())
}

/// Store-specific reads layered on the shared [`Reader`].
pub trait AggRead {
    /// Read a tagged [`AggOutput`].
    fn agg_output(&mut self) -> Result<AggOutput>;
    /// Read `n` tagged [`AggOutput`]s — the same as `n` calls of
    /// [`agg_output`](AggRead::agg_output), but each run of scalar
    /// records is parsed straight from the remaining bytes.
    fn agg_outputs(&mut self, n: usize) -> Result<Vec<AggOutput>>;
    /// Read an [`AggSpec`].
    fn agg_spec(&mut self) -> Result<AggSpec>;
    /// Read a tagged [`AggState`].
    fn agg_state(&mut self) -> Result<AggState>;
}

impl AggRead for Reader<'_> {
    fn agg_output(&mut self) -> Result<AggOutput> {
        if let Some(x) = self.rest().first_chunk().and_then(scalar) {
            self.take(SCALAR_BYTES)?;
            return Ok(AggOutput::Number(x));
        }
        let tag = self.u8()?;
        match tag {
            TAG_NUMBER => Ok(AggOutput::Number(self.f64()?)),
            TAG_TOPK => {
                let len = self.u32()? as usize;
                // Each entry is 16 bytes; reject a forged count up front.
                self.check_count(len, 16, "top-k entries")?;
                let mut entries = Vec::with_capacity(len);
                for _ in 0..len {
                    let value = self.f64()?;
                    let freq = self.u64()?;
                    entries.push((value, freq));
                }
                Ok(AggOutput::TopK(entries))
            }
            other => Err(self.corrupt(format!("bad aggregate tag {other}"))),
        }
    }

    fn agg_outputs(&mut self, n: usize) -> Result<Vec<AggOutput>> {
        // An aggregate output is at least 5 wire bytes (tag + u32).
        self.check_count(n, 5, "aggregate values")?;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let run = out.len();
            let (records, _) = self.rest().as_chunks::<SCALAR_BYTES>();
            out.extend(
                records
                    .iter()
                    .take(n - run)
                    .map_while(scalar)
                    .map(AggOutput::Number),
            );
            self.take((out.len() - run) * SCALAR_BYTES)?;
            // The run ended short of `n`: a top-k output, a bad tag or a
            // cut-off record, which the one-at-a-time reader owns.
            if out.len() < n {
                out.push(self.agg_output()?);
            }
        }
        Ok(out)
    }

    fn agg_spec(&mut self) -> Result<AggSpec> {
        let tag = self.u8()?;
        let k = self.u32()? as usize;
        Ok(match tag {
            0 => AggSpec::Count,
            1 => AggSpec::Sum,
            2 => AggSpec::Min,
            3 => AggSpec::Max,
            4 => AggSpec::Avg,
            5 => AggSpec::TopKFrequent(k),
            6 => AggSpec::CountDistinct,
            other => return Err(self.corrupt(format!("bad aggregate spec tag {other}"))),
        })
    }

    fn agg_state(&mut self) -> Result<AggState> {
        let tag = self.u8()?;
        match tag {
            TAG_STATE_COUNT => Ok(AggState::Count(self.u64()?)),
            TAG_STATE_SUM => Ok(AggState::Sum(self.f64()?)),
            TAG_STATE_MIN => Ok(AggState::Min(self.f64()?)),
            TAG_STATE_MAX => Ok(AggState::Max(self.f64()?)),
            TAG_STATE_AVG => Ok(AggState::Avg {
                sum: self.f64()?,
                count: self.u64()?,
            }),
            TAG_STATE_TOPK => {
                let k = self.u32()? as usize;
                let len = self.u32()? as usize;
                // Each entry is 16 bytes; reject a forged count up front.
                self.check_count(len, 16, "top-k state entries")?;
                let mut counts = std::collections::BTreeMap::new();
                let mut prev: Option<u64> = None;
                for _ in 0..len {
                    let bits = self.u64()?;
                    // Canonical form: strictly ascending keys, matching how
                    // the ordered map serialized them.
                    if prev.is_some_and(|p| p >= bits) {
                        return Err(self.corrupt("top-k state entries out of order"));
                    }
                    prev = Some(bits);
                    counts.insert(bits, self.u64()?);
                }
                Ok(AggState::TopK { k, counts })
            }
            TAG_STATE_DISTINCT => {
                let len = self.u32()? as usize;
                self.check_count(len, 8, "distinct state values")?;
                let mut values = std::collections::BTreeSet::new();
                let mut prev: Option<u64> = None;
                for _ in 0..len {
                    let bits = self.u64()?;
                    if prev.is_some_and(|p| p >= bits) {
                        return Err(self.corrupt("distinct state values out of order"));
                    }
                    prev = Some(bits);
                    values.insert(bits);
                }
                Ok(AggState::Distinct(values))
            }
            other => Err(self.corrupt(format!("bad aggregate state tag {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcube_common::{Error, Value};

    #[test]
    fn value_and_output_round_trip() {
        let mut out = Vec::new();
        put_value(&mut out, &Value::Int(-5)).expect("encode int");
        put_value(&mut out, &Value::str("Rome")).expect("encode str");
        put_agg_output(&mut out, &AggOutput::Number(2.5)).expect("encode number");
        put_agg_output(&mut out, &AggOutput::TopK(vec![(1.0, 3), (2.0, 1)])).expect("encode topk");
        let mut r = Reader::new(&out);
        assert_eq!(r.value().expect("int"), Value::Int(-5));
        assert_eq!(r.value().expect("str"), Value::str("Rome"));
        assert_eq!(r.agg_output().expect("number"), AggOutput::Number(2.5));
        assert_eq!(
            r.agg_output().expect("topk"),
            AggOutput::TopK(vec![(1.0, 3), (2.0, 1)])
        );
        assert!(r.is_exhausted());
    }

    #[test]
    fn agg_spec_round_trip() {
        for spec in [
            AggSpec::Count,
            AggSpec::Sum,
            AggSpec::Min,
            AggSpec::Max,
            AggSpec::Avg,
            AggSpec::TopKFrequent(7),
            AggSpec::CountDistinct,
        ] {
            let mut out = Vec::new();
            put_agg_spec(&mut out, spec).expect("encode spec");
            assert_eq!(Reader::new(&out).agg_spec().expect("decode spec"), spec);
        }
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for x in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, 1e-300] {
            let mut out = Vec::new();
            put_f64(&mut out, x);
            let back = Reader::new(&out).f64().expect("f64");
            assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn truncated_aggregate_reads_error() {
        let mut r = Reader::new(&[TAG_NUMBER, 1, 2]);
        assert!(r.agg_output().is_err());
        let mut r = Reader::new(&[TAG_TOPK]);
        assert!(r.agg_output().is_err());
        let mut r = Reader::new(&[9]);
        assert!(r.agg_output().is_err(), "unknown tag must error");
    }

    #[test]
    fn agg_state_round_trip() {
        let mut topk = AggSpec::TopKFrequent(2).init();
        let mut distinct = AggSpec::CountDistinct.init();
        for m in [3.0, 1.0, 3.0, 7.0] {
            topk.update(m);
            distinct.update(m);
        }
        let states = [
            AggState::Count(9),
            AggState::Sum(-2.5),
            AggState::Min(0.5),
            AggState::Max(11.0),
            AggState::Avg {
                sum: 12.5,
                count: 5,
            },
            topk,
            distinct,
        ];
        for state in &states {
            let mut out = Vec::new();
            put_agg_state(&mut out, state).expect("encode state");
            let mut r = Reader::new(&out);
            assert_eq!(&r.agg_state().expect("decode state"), state);
            assert!(r.is_exhausted());
        }
    }

    #[test]
    fn truncated_or_forged_state_reads_error() {
        // Truncated scalar payload.
        let mut r = Reader::new(&[TAG_STATE_AVG, 1, 2, 3]);
        assert!(r.agg_state().is_err());
        // Unknown tag.
        let mut r = Reader::new(&[42]);
        assert!(r.agg_state().is_err());
        // Forged element count with no bytes behind it.
        let mut blob = vec![TAG_STATE_DISTINCT];
        put_u32(&mut blob, 1_000_000);
        let err = Reader::new(&blob).agg_state().expect_err("forged count");
        assert!(matches!(err, Error::Corrupt { .. }), "got {err}");
    }

    #[test]
    fn out_of_order_state_entries_are_rejected() {
        // Distinct values serialized descending: not the canonical ordered
        // form, so the decoder must refuse rather than silently reorder.
        let mut blob = vec![TAG_STATE_DISTINCT];
        put_u32(&mut blob, 2);
        put_u64(&mut blob, 9);
        put_u64(&mut blob, 3);
        assert!(Reader::new(&blob).agg_state().is_err());
    }

    /// Outputs as their wire bytes, so NaN payloads and signed zeros
    /// compare bit-exactly.
    fn wire(outputs: &[AggOutput]) -> Vec<u8> {
        let mut out = Vec::new();
        for v in outputs {
            put_agg_output(&mut out, v).expect("encode output");
        }
        out
    }

    #[test]
    fn bulk_outputs_equal_one_at_a_time_reads() {
        let outputs = [
            AggOutput::Number(1.5),
            AggOutput::Number(-0.0),
            AggOutput::Number(f64::from_bits(0x7ff8_0000_0000_0001)),
            AggOutput::Number(f64::from_bits(0xfff0_0000_0000_0002)),
            AggOutput::TopK(vec![(2.0, 9), (-0.0, 3)]),
            AggOutput::TopK(Vec::new()),
            AggOutput::Number(0.0),
            AggOutput::Number(f64::NEG_INFINITY),
            AggOutput::TopK(vec![(f64::NAN, 1)]),
            AggOutput::Number(f64::MAX),
        ];
        let blob = wire(&outputs);
        for n in 0..=outputs.len() {
            let mut bulk = Reader::new(&blob);
            let got = bulk.agg_outputs(n).expect("bulk read");
            let mut single = Reader::new(&blob);
            let want: Vec<AggOutput> = (0..n)
                .map(|_| single.agg_output().expect("single read"))
                .collect();
            assert_eq!(wire(&got), wire(&want), "n = {n}");
            assert_eq!(wire(&got), wire(&outputs[..n]), "n = {n}");
            assert_eq!(bulk.pos(), single.pos(), "n = {n}");
        }
    }

    #[test]
    fn bulk_outputs_fail_typed() {
        let corrupt = |blob: &[u8], n: usize, want: &str| match Reader::new(blob).agg_outputs(n) {
            Err(Error::Corrupt { detail, .. }) => {
                assert!(detail.contains(want), "want `{want}`, got `{detail}`")
            }
            other => panic!("want `{want}`, got {other:?}"),
        };
        let scalars = wire(&[1.0, 2.0, 3.0].map(AggOutput::Number));

        // A bad tag in the middle of a scalar run.
        let mut bad_tag = scalars.clone();
        bad_tag[SCALAR_BYTES] = 7;
        corrupt(&bad_tag, 3, "bad aggregate tag 7");

        // The last record cut short, scalar and top-k alike.
        corrupt(&scalars[..scalars.len() - 3], 3, "truncated");
        let mut topk = scalars.clone();
        topk.extend(wire(&[AggOutput::TopK(vec![(1.0, 2)])]));
        corrupt(&topk[..topk.len() - 1], 4, "top-k entries");

        // More outputs declared than the bytes can hold.
        corrupt(&scalars, 1000, "declared 1000 aggregate values");
        corrupt(&scalars, 4, "truncated");
    }

    #[test]
    fn forged_topk_count_is_rejected() {
        // TAG_TOPK + count 1000 with no entry bytes behind it: the count
        // check must refuse before trying to allocate or loop.
        let mut blob = vec![TAG_TOPK];
        put_u32(&mut blob, 1000);
        let err = Reader::new(&blob).agg_output().expect_err("forged count");
        assert!(matches!(err, Error::Corrupt { .. }), "got {err}");
    }
}

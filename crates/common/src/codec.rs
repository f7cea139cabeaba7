//! Single-source binary primitives shared by every on-disk format.
//!
//! The SP-Sketch blob (`SPSK1`), the columnar segment (`CSEG1`) and the
//! store manifest (`CMAN1`) all follow the same conventions: a 5-byte
//! magic, little-endian fixed-width integers, tagged values (`0` = 8-byte
//! integer, `1` = length-prefixed UTF-8), and a trailing 64-bit XXH64
//! checksum (seed 0) over everything before it. This module is the one
//! place those conventions — and in particular the XXH64 primes — are
//! defined; the tier-1 test `tests/format_constants.rs` rejects any
//! second literal occurrence elsewhere.
//!
//! Decoding is fully defensive: every read is bounds-checked, every
//! declared element count is validated against the bytes actually left,
//! and failures surface as [`Error::Corrupt`] — never a panic — so a
//! serving path handed arbitrary bytes can degrade instead of crash.
// Codec: no silently narrowing cast, no untyped error (DESIGN.md §8).
#![warn(clippy::cast_possible_truncation, clippy::disallowed_types)]

use crate::error::{Error, Result};
use crate::value::Value;

// The five XXH64 primes (the only literal occurrences in the tree).
const PRIME64_1: u64 = 0x9e37_79b1_85eb_ca87;
const PRIME64_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const PRIME64_3: u64 = 0x1656_67b1_9e37_79f9;
const PRIME64_4: u64 = 0x85eb_ca77_c2b2_ae63;
const PRIME64_5: u64 = 0x27d4_eb2f_1656_67c5;

/// Value tag: 64-bit integer payload.
pub const TAG_INT: u8 = 0;
/// Value tag: length-prefixed UTF-8 payload.
pub const TAG_STR: u8 = 1;

/// One XXH64 lane step: fold the 8-byte word `input` into `acc`.
fn xxh64_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

/// Fold lane `v` into the converged hash `h`.
fn xxh64_merge(h: u64, v: u64) -> u64 {
    (h ^ xxh64_round(0, v))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

/// XXH64 with seed 0 over `bytes` — the checksum sealing every store
/// blob. Inputs of 32 bytes or more run four independent lanes over
/// 32-byte stripes, so the hash is not one dependent multiply per byte.
fn xxh64(bytes: &[u8]) -> u64 {
    let (stripes, tail) = bytes.as_chunks::<32>();
    let mut h = if stripes.is_empty() {
        PRIME64_5
    } else {
        let mut v = [
            PRIME64_1.wrapping_add(PRIME64_2),
            PRIME64_2,
            0,
            0u64.wrapping_sub(PRIME64_1),
        ];
        for stripe in stripes {
            for (lane, word) in v.iter_mut().zip(stripe.as_chunks::<8>().0) {
                *lane = xxh64_round(*lane, u64::from_le_bytes(*word));
            }
        }
        let [v1, v2, v3, v4] = v;
        let h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        v.into_iter().fold(h, xxh64_merge)
    };
    h = h.wrapping_add(bytes.len() as u64);

    let (words, mut rest) = tail.as_chunks::<8>();
    for word in words {
        h = (h ^ xxh64_round(0, u64::from_le_bytes(*word)))
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
    }
    if let Some((half, after)) = rest.split_first_chunk::<4>() {
        h = (h ^ u64::from(u32::from_le_bytes(*half)).wrapping_mul(PRIME64_1))
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        rest = after;
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(PRIME64_5))
            .rotate_left(11)
            .wrapping_mul(PRIME64_1);
    }

    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^ (h >> 32)
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Append an `f64` as its IEEE-754 bit pattern (lossless round trip).
pub fn put_f64(out: &mut Vec<u8>, x: f64) {
    out.extend_from_slice(&x.to_bits().to_le_bytes());
}

/// Append a collection length as a `u32`, failing (instead of silently
/// wrapping via `as u32`) if it does not fit the format's 32-bit field.
pub fn put_len(out: &mut Vec<u8>, n: usize) -> Result<()> {
    let n = u32::try_from(n)
        .map_err(|_| Error::Internal(format!("length {n} exceeds the format's u32 field")))?;
    put_u32(out, n);
    Ok(())
}

/// Append a tagged [`Value`].
pub fn put_value(out: &mut Vec<u8>, v: &Value) -> Result<()> {
    match v {
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_len(out, s.len())?;
            out.extend_from_slice(s.as_bytes());
        }
    }
    Ok(())
}

/// Bounds-checked cursor over an immutable byte slice. Every failure is a
/// typed [`Error::Corrupt`] naming the artifact being decoded.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// Cursor at the start of `bytes`, reporting errors against a generic
    /// "blob" artifact name.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader::labeled(bytes, "blob")
    }

    /// Cursor whose errors name the artifact being decoded, e.g.
    /// `Reader::labeled(body, "segment")`.
    pub fn labeled(bytes: &'a [u8], what: &'static str) -> Reader<'a> {
        Reader {
            bytes,
            pos: 0,
            what,
        }
    }

    /// Current offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The bytes not yet consumed, without consuming them: lets a caller
    /// parse a run of fixed-width records in bulk, then [`take`] them.
    ///
    /// [`take`]: Reader::take
    pub fn rest(&self) -> &'a [u8] {
        self.bytes.get(self.pos..).unwrap_or_default()
    }

    /// Whether the cursor consumed every byte.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// A [`Error::Corrupt`] naming this reader's artifact.
    pub fn corrupt(&self, detail: impl Into<String>) -> Error {
        Error::corrupt(self.what, detail)
    }

    /// Validate a declared element count against the bytes actually left:
    /// each element needs at least `min_bytes` more bytes, so a forged
    /// count cannot drive a huge allocation or a long decode loop.
    pub fn check_count(&self, n: usize, min_bytes: usize, items: &str) -> Result<()> {
        if n.saturating_mul(min_bytes.max(1)) > self.remaining() {
            return Err(self.corrupt(format!(
                "declared {n} {items} but only {} bytes remain",
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(self.corrupt(format!(
                "truncated: wanted {n} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Take exactly `N` bytes as a fixed-size array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let s = self.take(N)?;
        <[u8; N]>::try_from(s).map_err(|_| self.corrupt("fixed-width field misread"))
    }

    /// Read one byte (a tag).
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array::<4>()?))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array::<8>()?))
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a tagged [`Value`].
    pub fn value(&mut self) -> Result<Value> {
        let tag = self.u8()?;
        match tag {
            TAG_INT => Ok(Value::Int(i64::from_le_bytes(self.array::<8>()?))),
            TAG_STR => {
                let len = self.u32()? as usize;
                let raw = self.take(len)?;
                let s = std::str::from_utf8(raw)
                    .map_err(|_| self.corrupt("string field is not UTF-8"))?;
                Ok(Value::str(s))
            }
            other => Err(self.corrupt(format!("bad value tag {other}"))),
        }
    }
}

/// Split `bytes` into the checked body and verify the trailing XXH64
/// checksum; returns the body on success. The common prologue of every
/// store reader.
pub fn checked_body<'a>(bytes: &'a [u8], what: &str) -> Result<&'a [u8]> {
    if bytes.len() < 8 {
        return Err(Error::corrupt(
            what,
            format!(
                "blob of {} bytes is too short to carry a checksum",
                bytes.len()
            ),
        ));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let tail: [u8; 8] = tail
        .try_into()
        .map_err(|_| Error::corrupt(what, "checksum tail misread"))?;
    let stored = u64::from_le_bytes(tail);
    let computed = xxh64(body);
    if stored != computed {
        return Err(Error::corrupt(
            what,
            format!("checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"),
        ));
    }
    Ok(body)
}

/// Append the XXH64 checksum of everything currently in `out`.
pub fn seal(out: &mut Vec<u8>) {
    let sum = xxh64(out);
    out.extend_from_slice(&sum.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xxh64_known_vectors() {
        // Published XXH64 seed-0 test vectors. The 39-byte input runs one
        // 32-byte stripe, then the 4-byte and the single-byte tails.
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
    }

    #[test]
    fn value_round_trip() {
        let mut out = Vec::new();
        put_value(&mut out, &Value::Int(-5)).expect("encode int");
        put_value(&mut out, &Value::str("Rome")).expect("encode str");
        let mut r = Reader::new(&out);
        assert_eq!(r.value().expect("int back"), Value::Int(-5));
        assert_eq!(r.value().expect("str back"), Value::str("Rome"));
        assert!(r.is_exhausted());
    }

    #[test]
    fn seal_and_check_detect_every_bit_flip() {
        let mut blob = b"some payload".to_vec();
        seal(&mut blob);
        assert!(checked_body(&blob, "test").is_ok());
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x01;
            assert!(
                checked_body(&bad, "test").is_err(),
                "flip at {i} undetected"
            );
        }
    }

    #[test]
    fn seal_and_check_detect_every_two_bit_flip() {
        let mut blob: Vec<u8> = (0u8..64).map(|b| b.wrapping_mul(37)).collect();
        seal(&mut blob);
        assert!(checked_body(&blob, "test").is_ok());
        let bits = blob.len() * 8;
        for i in 0..bits {
            for j in i + 1..bits {
                let mut bad = blob.clone();
                bad[i / 8] ^= 1 << (i % 8);
                bad[j / 8] ^= 1 << (j % 8);
                assert!(
                    checked_body(&bad, "test").is_err(),
                    "flips at bits {i} and {j} undetected"
                );
            }
        }
    }

    #[test]
    fn truncated_reads_are_typed_corruption() {
        let mut r = Reader::labeled(&[TAG_INT, 1, 2], "thing");
        let err = r.value().expect_err("short int must fail");
        assert!(matches!(err, Error::Corrupt { .. }), "got {err}");
        assert!(err.to_string().contains("thing"));
        assert!(checked_body(&[1, 2, 3], "tiny").is_err());
    }

    #[test]
    fn forged_count_is_rejected_before_allocation() {
        let r = Reader::new(&[0u8; 16]);
        assert!(r.check_count(2, 8, "entries").is_ok());
        let err = r.check_count(usize::MAX, 8, "entries").expect_err("huge");
        assert!(matches!(err, Error::Corrupt { .. }));
        // Zero-byte floor still bounds the loop count.
        assert!(r.check_count(17, 0, "entries").is_err());
    }

    #[test]
    fn put_len_rejects_oversize() {
        let mut out = Vec::new();
        assert!(put_len(&mut out, 7).is_ok());
        assert_eq!(out, 7u32.to_le_bytes());
        if usize::BITS > 32 {
            assert!(put_len(&mut out, u32::MAX as usize + 1).is_err());
        }
    }

    #[test]
    fn reader_positions_and_remaining() {
        let mut r = Reader::new(&[1, 0, 0, 0, 9]);
        assert_eq!(r.remaining(), 5);
        assert_eq!(r.u32().expect("u32"), 1);
        assert_eq!(r.pos(), 4);
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.u8().expect("u8"), 9);
        assert!(r.is_exhausted());
        assert!(r.u8().is_err());
    }
}

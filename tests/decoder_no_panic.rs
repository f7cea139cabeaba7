//! Adversarial-input guarantees of the three binary decoders.
//!
//! The contract under test: `SpSketch::from_bytes`, `Segment::decode`,
//! and `Manifest::decode` accept *arbitrary* bytes without panicking —
//! truncations at every length, every single-bit flip, and resealed
//! mutants whose checksum is valid but whose interior was forged. The
//! recover path (`CubeStore::with_recovery`) depends on this: a corrupt
//! blob must surface as a typed `Error` it can catch, never as a crash
//! of the serving process.
//!
//! Everything here is deterministic — mutation positions and bit choices
//! are derived from byte offsets, not a RNG — so a failure reproduces
//! exactly.

use sp_cube_repro::agg::{AggOutput, AggSpec};
use sp_cube_repro::common::codec::seal;
use sp_cube_repro::common::{Error, Mask, Value};
use sp_cube_repro::core::{build_exact_sketch, SpSketch};
use sp_cube_repro::cubestore::{segment_path, Manifest, ManifestEntry, Segment};
use sp_cube_repro::datagen;
use sp_cube_repro::mapreduce::ClusterConfig;

/// A decoder under test: name + closure so one harness drives all three.
type Decoder = (&'static str, fn(&[u8]) -> bool);

fn decode_sketch(bytes: &[u8]) -> bool {
    SpSketch::from_bytes(bytes).is_ok()
}

fn decode_segment(bytes: &[u8]) -> bool {
    Segment::decode(bytes).is_ok()
}

fn decode_manifest(bytes: &[u8]) -> bool {
    Manifest::decode(bytes).is_ok()
}

const DECODERS: [Decoder; 3] = [
    ("sketch", decode_sketch),
    ("segment", decode_segment),
    ("manifest", decode_manifest),
];

/// A genuine blob for each format, built from real data structures.
fn genuine_blobs() -> Vec<(&'static str, Vec<u8>)> {
    let rel = datagen::gen_zipf(200, 3, 0x77);
    let cluster = ClusterConfig::new(4, 64);
    let sketch = build_exact_sketch(&rel, &cluster)
        .to_bytes()
        .expect("encode sketch");

    let rows: Vec<(Box<[Value]>, AggOutput)> = (0..40)
        .map(|i| {
            let key: Box<[Value]> = vec![Value::Int(i), Value::str("x")].into();
            (key, AggOutput::Number(i as f64))
        })
        .collect();
    let mask = Mask(0b011);
    let segment = Segment::build(3, mask, rows)
        .encode()
        .expect("encode segment");

    let manifest = Manifest {
        d: 3,
        spec: AggSpec::Sum,
        min_support: 2,
        generation: 1,
        kind: Default::default(),
        layers: Vec::new(),
        batch_ids: Vec::new(),
        entries: vec![ManifestEntry {
            mask,
            rows: 40,
            bytes: segment.len() as u64,
            path: segment_path("t", 1, 3, mask),
        }],
    }
    .encode()
    .expect("encode manifest");

    vec![
        ("sketch", sketch),
        ("segment", segment),
        ("manifest", manifest),
    ]
}

fn decoder_for(name: &str) -> fn(&[u8]) -> bool {
    DECODERS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, f)| *f)
        .expect("decoder")
}

/// Every prefix of a genuine blob — from empty to one-byte-short — must
/// decode to a typed error, not a panic and not a bogus success.
#[test]
fn truncation_at_every_length_errors_cleanly() {
    for (name, blob) in genuine_blobs() {
        let decode = decoder_for(name);
        assert!(decode(&blob), "{name}: genuine blob must decode");
        for len in 0..blob.len() {
            let truncated = &blob[..len];
            assert!(
                !decode(truncated),
                "{name}: truncation to {len} of {} bytes decoded successfully",
                blob.len()
            );
        }
    }
}

/// Every single-bit flip lands inside the checksummed region, so every
/// one must be rejected — and none may panic.
#[test]
fn every_single_bit_flip_is_rejected() {
    for (name, blob) in genuine_blobs() {
        let decode = decoder_for(name);
        for pos in 0..blob.len() {
            let mut mutant = blob.clone();
            mutant[pos] ^= 1 << (pos % 8);
            assert!(
                !decode(&mutant),
                "{name}: bit flip at byte {pos} went undetected"
            );
        }
    }
}

/// Forged blobs with a *valid* checksum: mutate interior bytes, then
/// reseal. The checksum no longer protects the decoder, so its own
/// bounds/tag/count checks must hold the line. Success is acceptable
/// (some mutations are semantically harmless); panicking is not.
#[test]
fn resealed_mutants_never_panic() {
    for (name, blob) in genuine_blobs() {
        let decode = decoder_for(name);
        let body_len = blob.len() - 8;
        for pos in 0..body_len {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut body = blob[..body_len].to_vec();
                body[pos] ^= flip;
                seal(&mut body);
                // Outcome free; absence of panic is the assertion.
                let _ = decode(&body);
            }
        }
    }
}

/// Rows of the fixed-width segment [`pinned_segment`] builds.
const PINNED_ROWS: usize = 40;

/// A genuine segment whose every field has a fixed width — two integer
/// key columns and scalar outputs, all tagged 9-byte values — so a test
/// can address any field of its body. Row `i` has key `(i / 7, i % 7)`.
/// Returns the body (the blob without its checksum) and the offsets of
/// each column's dictionary and codes and of the block count.
fn pinned_segment() -> (Vec<u8>, [(usize, usize); 2], usize) {
    const HEADER: usize = 5 + 4 * 4; // magic, d, mask, rows, block size
    const VALUE: usize = 9; // tag + 8-byte payload
    let rows: Vec<(Box<[Value]>, AggOutput)> = (0..PINNED_ROWS as i64)
        .map(|i| {
            let key: Box<[Value]> = vec![Value::Int(i / 7), Value::Int(i % 7)].into();
            (key, AggOutput::Number(i as f64))
        })
        .collect();
    let blob = Segment::build(3, Mask(0b011), rows)
        .encode()
        .expect("encode segment");
    let body = blob[..blob.len() - 8].to_vec();
    let dict_lens = [PINNED_ROWS.div_ceil(7), 7];
    let mut at = HEADER;
    let columns = dict_lens.map(|len| {
        let dict = at + 4;
        let codes = dict + len * VALUE;
        at = codes + PINNED_ROWS * 4;
        (dict, codes)
    });
    let n_blocks = at + PINNED_ROWS * VALUE;
    // One block of two (min, max) code pairs follows the count.
    assert_eq!(body.len(), n_blocks + 4 + 2 * 8, "layout drifted");
    (body, columns, n_blocks)
}

/// An in-place edit of a segment body.
type Mutation<'a> = &'a dyn Fn(&mut Vec<u8>);

fn put_u32_at(body: &mut [u8], at: usize, x: u32) {
    body[at..at + 4].copy_from_slice(&x.to_le_bytes());
}

/// Resealed mutants that break one structural invariant each must be
/// rejected by the decoder check that owns that invariant — not merely
/// without a panic, but as `Error::Corrupt` naming the broken rule.
#[test]
fn resealed_mutants_fail_their_own_check() {
    let (body, [(dict0, codes0), (dict1, codes1)], n_blocks) = pinned_segment();
    let mut genuine = body.clone();
    seal(&mut genuine);
    assert!(decode_segment(&genuine), "genuine segment must decode");

    let code = |col: usize, row: usize| [codes0, codes1][col] + 4 * row;
    let swap = |b: &mut Vec<u8>, x: usize, y: usize, width: usize| {
        let tmp = b[x..x + width].to_vec();
        b.copy_within(y..y + width, x);
        b[y..y + width].copy_from_slice(&tmp);
    };
    let swap_rows = |b: &mut Vec<u8>| {
        for col in 0..2 {
            swap(b, code(col, 10), code(col, 11), 4);
        }
    };
    let duplicate_row = |b: &mut Vec<u8>| {
        for col in 0..2 {
            b.copy_within(code(col, 10)..code(col, 10) + 4, code(col, 11));
        }
    };
    let zone = |col: usize| n_blocks + 4 + 8 * col; // block 0's (min, max)
    let mutants: [(&str, Mutation); 9] = [
        ("column 0 code 6 beyond dictionary", &|b| {
            put_u32_at(b, code(0, 39), 6)
        }),
        ("rows not sorted at 11", &swap_rows),
        ("rows not sorted at 11", &duplicate_row),
        ("column 0 dictionary not sorted/distinct", &|b| {
            swap(b, dict0, dict0 + 9, 9)
        }),
        ("column 1 dictionary not sorted/distinct", &|b| {
            swap(b, dict1 + 9, dict1 + 18, 9)
        }),
        ("2 blocks for 40 rows", &|b| put_u32_at(b, n_blocks, 2)),
        // A narrowed range would let a slice on code 5 skip the block.
        ("block 0 column 0 zone map (0, 4)", &|b| {
            put_u32_at(b, zone(0) + 4, 4)
        }),
        ("block 0 column 1 zone map (6, 0)", &|b| {
            put_u32_at(b, zone(1), 6);
            put_u32_at(b, zone(1) + 4, 0);
        }),
        ("trailing bytes", &|b| b.push(0)),
    ];
    for (check, mutate) in &mutants {
        let mut mutant = body.clone();
        mutate(&mut mutant);
        seal(&mut mutant);
        match Segment::decode(&mutant) {
            Err(Error::Corrupt { detail, .. }) => {
                assert!(detail.contains(check), "want `{check}`, got `{detail}`")
            }
            other => panic!("want `{check}`, got {other:?}"),
        }
    }
}

/// Forged length/count fields larger than the blob itself must be caught
/// by the decoders' count checks, not by an allocator death or a hang.
#[test]
fn forged_giant_counts_are_rejected() {
    for (name, blob) in genuine_blobs() {
        let decode = decoder_for(name);
        let body_len = blob.len() - 8;
        // Overwrite each aligned u32 window with u32::MAX and reseal.
        for pos in (5..body_len.saturating_sub(4)).step_by(4) {
            let mut body = blob[..body_len].to_vec();
            body[pos..pos + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            seal(&mut body);
            let _ = decode(&body);
        }
        let _ = name;
    }
}

/// Feeding each decoder the *other* formats' genuine blobs must fail on
/// the magic check — cheap cross-wiring protection for the recover path.
#[test]
fn cross_format_blobs_are_rejected() {
    let blobs = genuine_blobs();
    for (dec_name, decode) in DECODERS {
        for (blob_name, blob) in &blobs {
            if dec_name == *blob_name {
                continue;
            }
            assert!(
                !decode(blob),
                "{dec_name} decoder accepted a {blob_name} blob"
            );
        }
    }
}

/// Degenerate inputs: empty, all-zero, all-ones, magic-only.
#[test]
fn degenerate_inputs_error_cleanly() {
    let cases: Vec<Vec<u8>> = vec![
        Vec::new(),
        vec![0u8; 64],
        vec![0xffu8; 64],
        b"SPSK1".to_vec(),
        b"CSEG1".to_vec(),
        b"CMAN1".to_vec(),
    ];
    for (name, decode) in DECODERS {
        for case in &cases {
            assert!(
                !decode(case),
                "{name}: degenerate {}-byte input decoded successfully",
                case.len()
            );
        }
    }
}

//! The store manifest — the root of a persisted cube.
//!
//! A store is one manifest plus one segment blob per non-empty cuboid.
//! The manifest records the cube's shape (`d`, aggregate spec, minimum
//! support), the **generation** it belongs to, and, per materialized
//! cuboid, its row count, encoded size, and blob path. A cuboid absent
//! from the manifest is empty — the writer skips empty cuboids, the
//! reader answers from an implicit empty segment.
//!
//! The aggregate spec and minimum support are stored so that a reader that
//! finds a *corrupt* segment can recompute exactly the same cuboid from
//! the raw relation (the degraded path in [`crate::store`]).
//!
//! # Generational layout
//!
//! Every commit writes under its own generation directory and the same
//! manifest bytes appear twice (see `DESIGN.md`, "Crash-consistent
//! generational commits"):
//!
//! ```text
//! prefix/manifest.cman              root pointer — the COMMIT POINT
//! prefix/gen-00000002/manifest.cman generation seal (written after all
//! prefix/gen-00000002/cuboid-*.cseg   segments of that generation)
//! prefix/gen-00000001/...           previous generation, kept until the
//!                                     next commit so readers survive one
//!                                     in-flight rewrite
//! prefix/quarantine/...             torn blobs moved aside by recovery
//! ```
//!
//! The generation number in the manifest body is authoritative; a
//! manifest stored under `gen-N/` whose body says any other generation is
//! treated as torn.
//!
//! # Layered (incremental) stores
//!
//! A store is either a classic full-rebuild store ([`StoreKind::Output`],
//! `CSEG1` segments of finalized outputs) or an incremental store
//! ([`StoreKind::State`], `DSEG1` segments of mergeable partial states
//! written by [`crate::delta`]). An incremental manifest additionally
//! carries its **layer chain**: the ascending list of live generations
//! whose state segments must be merged to answer a query. The chain always
//! ends with the manifest's own generation (each delta commit layers
//! itself on top; each compaction replaces its victims with itself).
//!
//! It also carries the **batch-ID set**: the sorted IDs of every delta
//! batch ever committed into the chain. An ingest whose batch ID is
//! already in the set is a replay and must be refused as a typed
//! `AlreadyApplied` no-op — this is what makes retrying `ingest_batch`
//! after a crash exactly-once (see [`crate::delta`]). Compactions carry
//! the set forward unchanged; [`StoreKind::Output`] manifests carry none
//! (mirroring the layer-chain invariant).
//!
//! # Wire format (`CMAN1`)
//!
//! ```text
//! "CMAN1" | u32 d | u64 generation | tagged agg_spec | u32 min_support
//! u8 kind (0 = output, 1 = state)
//! u32 n_layers | per layer: u64 generation   (empty for output stores)
//! u32 n_batch_ids | per id: u64              (empty for output stores,
//!                                             strictly ascending)
//! u32 n_entries
//! per entry: u32 mask | u32 rows | u64 bytes | u32 path_len | path bytes
//! u64 XXH64 checksum of everything above
//! ```
// Codec: no silently narrowing cast, no untyped error (DESIGN.md §8).
#![warn(clippy::cast_possible_truncation, clippy::disallowed_types)]

use spcube_agg::AggSpec;
use spcube_common::{Error, Mask, Result};

use crate::codec::{checked_body, put_agg_spec, put_len, put_u32, put_u64, seal, AggRead, Reader};

/// Magic prefix of a serialized manifest (format version 1).
pub const MANIFEST_MAGIC: &[u8; 5] = b"CMAN1";

/// File name of the manifest blob: at the store root it is the commit
/// pointer, under a generation directory it is that generation's seal.
pub const MANIFEST_FILE: &str = "manifest.cman";

/// Directory (under the store prefix) where the recovery scan moves
/// orphaned or torn blobs instead of deleting them.
pub const QUARANTINE_DIR: &str = "quarantine";

/// What a store's segments hold: finalized outputs (classic full-rebuild
/// store) or mergeable partial states (incremental, layered store).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreKind {
    /// `CSEG1` segments of finalized [`AggOutput`](spcube_agg::AggOutput)s;
    /// one live generation, rebuilt from scratch on every commit.
    #[default]
    Output,
    /// `DSEG1` segments of mergeable [`AggState`](spcube_agg::AggState)s;
    /// reads merge every generation in the layer chain.
    State,
}

/// One materialized cuboid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Which cuboid.
    pub mask: Mask,
    /// Number of groups in the segment.
    pub rows: u32,
    /// Encoded segment size in bytes.
    pub bytes: u64,
    /// Blob path of the segment, relative to the blob store root.
    pub path: String,
}

/// The decoded manifest of one persisted cube.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Cube dimensionality.
    pub d: usize,
    /// Monotonically increasing commit generation (1 for a fresh store).
    pub generation: u64,
    /// Aggregate the cube was built with.
    pub spec: AggSpec,
    /// Iceberg minimum support the cube was built with.
    pub min_support: usize,
    /// Whether segments hold finalized outputs or mergeable states.
    pub kind: StoreKind,
    /// Live layer chain for [`StoreKind::State`] stores: ascending
    /// generations to merge at read time, ending with this manifest's own
    /// generation. Always empty for [`StoreKind::Output`].
    pub layers: Vec<u64>,
    /// IDs of every delta batch committed into the chain, sorted
    /// ascending. Always empty for [`StoreKind::Output`]. The ingest
    /// path refuses a batch whose ID is already here (exactly-once).
    pub batch_ids: Vec<u64>,
    /// Materialized cuboids, sorted by mask.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// The entry for `mask`, if that cuboid was materialized (non-empty).
    pub fn entry(&self, mask: Mask) -> Option<&ManifestEntry> {
        self.entries
            .binary_search_by_key(&mask, |e| e.mask)
            .ok()
            .and_then(|i| self.entries.get(i))
    }

    /// Was a batch with this ID already committed into the chain?
    pub fn contains_batch(&self, batch_id: u64) -> bool {
        self.batch_ids.binary_search(&batch_id).is_ok()
    }

    /// Total encoded bytes across all segments.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    /// Total rows (groups) across all segments.
    pub fn total_rows(&self) -> u64 {
        self.entries.iter().map(|e| e.rows as u64).sum()
    }

    /// Serialize (see the module-level wire format). Entries are sorted by
    /// mask so encoding is deterministic and `entry` can binary-search.
    /// Fails only when a collection exceeds the format's 32-bit fields.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut entries: Vec<&ManifestEntry> = self.entries.iter().collect();
        entries.sort_by_key(|e| e.mask);
        let mut out = Vec::new();
        out.extend_from_slice(MANIFEST_MAGIC);
        put_len(&mut out, self.d)?;
        put_u64(&mut out, self.generation);
        put_agg_spec(&mut out, self.spec)?;
        put_len(&mut out, self.min_support)?;
        out.push(match self.kind {
            StoreKind::Output => 0,
            StoreKind::State => 1,
        });
        put_len(&mut out, self.layers.len())?;
        for g in &self.layers {
            put_u64(&mut out, *g);
        }
        put_len(&mut out, self.batch_ids.len())?;
        for id in &self.batch_ids {
            put_u64(&mut out, *id);
        }
        put_len(&mut out, entries.len())?;
        for e in entries {
            put_u32(&mut out, e.mask.0);
            put_u32(&mut out, e.rows);
            put_u64(&mut out, e.bytes);
            put_len(&mut out, e.path.len())?;
            out.extend_from_slice(e.path.as_bytes());
        }
        seal(&mut out);
        Ok(out)
    }

    /// Deserialize, verifying the checksum and structural invariants.
    pub fn decode(bytes: &[u8]) -> Result<Manifest> {
        let body = checked_body(bytes, "manifest")?;
        let mut r = Reader::labeled(body, "manifest");
        if r.take(MANIFEST_MAGIC.len())? != MANIFEST_MAGIC {
            return Err(r.corrupt("bad manifest magic"));
        }
        let d = r.u32()? as usize;
        if d > Mask::MAX_DIMS {
            return Err(r.corrupt(format!(
                "declares {d} dimensions, max is {}",
                Mask::MAX_DIMS
            )));
        }
        let generation = r.u64()?;
        if generation == 0 {
            return Err(r.corrupt("generation 0 is reserved (fresh stores start at 1)"));
        }
        let spec = r.agg_spec()?;
        let min_support = r.u32()? as usize;
        let kind = match r.u8()? {
            0 => StoreKind::Output,
            1 => StoreKind::State,
            other => return Err(r.corrupt(format!("bad store kind tag {other}"))),
        };
        let n_layers = r.u32()? as usize;
        r.check_count(n_layers, 8, "layer chain")?;
        let mut layers = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            let g = r.u64()?;
            if g == 0 {
                return Err(r.corrupt("layer chain names generation 0"));
            }
            if layers.last().is_some_and(|&prev| prev >= g) {
                return Err(r.corrupt("layer chain is not strictly ascending"));
            }
            layers.push(g);
        }
        match kind {
            StoreKind::Output if !layers.is_empty() => {
                return Err(r.corrupt("output store carries a layer chain"));
            }
            StoreKind::State if layers.last() != Some(&generation) => {
                return Err(r.corrupt("state store's layer chain must end with its own generation"));
            }
            _ => {}
        }
        let n_batches = r.u32()? as usize;
        r.check_count(n_batches, 8, "batch-id set")?;
        let mut batch_ids = Vec::with_capacity(n_batches);
        for _ in 0..n_batches {
            let id = r.u64()?;
            if batch_ids.last().is_some_and(|&prev| prev >= id) {
                return Err(r.corrupt("batch-id set is not strictly ascending"));
            }
            batch_ids.push(id);
        }
        if kind == StoreKind::Output && !batch_ids.is_empty() {
            return Err(r.corrupt("output store carries batch IDs"));
        }
        let n = r.u32()? as usize;
        // An entry is at least 16 bytes (mask, rows, bytes, path length);
        // reject a forged count before allocating for it.
        r.check_count(n, 16, "manifest entries")?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let mask = Mask(r.u32()?);
            if !mask.is_subset_of(Mask::full(d)) {
                return Err(r.corrupt(format!("cuboid {mask} has bits beyond d={d}")));
            }
            let rows = r.u32()?;
            let bytes = r.u64()?;
            let path_len = r.u32()? as usize;
            let raw = r.take(path_len)?;
            let path = std::str::from_utf8(raw)
                .map_err(|_| Error::corrupt("manifest", "path is not UTF-8"))?
                .to_string();
            entries.push(ManifestEntry {
                mask,
                rows,
                bytes,
                path,
            });
        }
        if !r.is_exhausted() {
            return Err(r.corrupt("trailing bytes after manifest"));
        }
        if entries
            .iter()
            .zip(entries.iter().skip(1))
            .any(|(a, b)| a.mask >= b.mask)
        {
            return Err(r.corrupt("entries not sorted by mask"));
        }
        Ok(Manifest {
            d,
            generation,
            spec,
            min_support,
            kind,
            layers,
            batch_ids,
            entries,
        })
    }
}

/// Blob-path prefix of one generation's directory, zero-padded so
/// lexicographic listing order matches numeric order up to 10^8 commits.
pub fn gen_prefix(prefix: &str, generation: u64) -> String {
    format!("{prefix}/gen-{generation:08}")
}

/// Blob path of the segment for `mask` in `generation` under `prefix`,
/// zero-padded binary (e.g. `store/gen-00000001/cuboid-0101.cseg` for
/// mask `m101` of a 4-d cube).
pub fn segment_path(prefix: &str, generation: u64, d: usize, mask: Mask) -> String {
    format!(
        "{}/cuboid-{:0>width$b}.cseg",
        gen_prefix(prefix, generation),
        mask.0,
        width = d.max(1)
    )
}

/// Blob path of the *state* segment for `mask` in `generation` under
/// `prefix` — the `DSEG1` counterpart of [`segment_path`], used by the
/// incremental store's delta layers.
pub fn state_segment_path(prefix: &str, generation: u64, d: usize, mask: Mask) -> String {
    format!(
        "{}/cuboid-{:0>width$b}.dseg",
        gen_prefix(prefix, generation),
        mask.0,
        width = d.max(1)
    )
}

/// Blob path of a generation's seal manifest.
pub fn gen_manifest_path(prefix: &str, generation: u64) -> String {
    format!("{}/{MANIFEST_FILE}", gen_prefix(prefix, generation))
}

/// Blob path of the root (commit-pointer) manifest under `prefix`.
pub fn manifest_path(prefix: &str) -> String {
    format!("{prefix}/{MANIFEST_FILE}")
}

/// Where the recovery scan moves an orphaned blob: the blob's path below
/// the store prefix, re-rooted under `prefix/quarantine/`.
pub fn quarantine_path(prefix: &str, blob_path: &str) -> String {
    let rest = blob_path
        .strip_prefix(prefix)
        .map(|r| r.trim_start_matches('/'))
        .filter(|r| !r.is_empty())
        .map_or_else(|| blob_path.replace('/', "_"), str::to_string);
    format!("{prefix}/{QUARANTINE_DIR}/{rest}")
}

/// The generation number a blob path belongs to, if it sits under a
/// `prefix/gen-<n>/` directory.
pub fn parse_generation(prefix: &str, path: &str) -> Option<u64> {
    let rest = path.strip_prefix(prefix)?.strip_prefix('/')?;
    let dir = rest.split('/').next()?;
    dir.strip_prefix("gen-")?.parse().ok()
}

/// The generation a new commit under `prefix` takes: one past anything
/// `listing` shows ever written there, sealed or not, so an aborted
/// commit never gets its dirty directory reused.
pub(crate) fn next_generation(prefix: &str, listing: &[(String, u64)]) -> u64 {
    listing
        .iter()
        .filter_map(|(p, _)| parse_generation(prefix, p))
        .max()
        .unwrap_or(0)
        + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            d: 3,
            generation: 7,
            spec: AggSpec::TopKFrequent(4),
            min_support: 2,
            kind: StoreKind::Output,
            layers: Vec::new(),
            batch_ids: Vec::new(),
            entries: vec![
                ManifestEntry {
                    mask: Mask(0b000),
                    rows: 1,
                    bytes: 40,
                    path: "p/a".into(),
                },
                ManifestEntry {
                    mask: Mask(0b011),
                    rows: 10,
                    bytes: 400,
                    path: "p/b".into(),
                },
                ManifestEntry {
                    mask: Mask(0b111),
                    rows: 50,
                    bytes: 2000,
                    path: "p/c".into(),
                },
            ],
        }
    }

    #[test]
    fn round_trip_and_lookup() {
        let m = sample();
        let back = Manifest::decode(&m.encode().expect("encode")).expect("decode");
        assert_eq!(back, m);
        assert_eq!(back.generation, 7);
        assert_eq!(back.entry(Mask(0b011)).expect("entry").rows, 10);
        assert!(back.entry(Mask(0b101)).is_none());
        assert_eq!(back.total_bytes(), 2440);
        assert_eq!(back.total_rows(), 61);
    }

    fn state_sample() -> Manifest {
        let mut m = sample();
        m.kind = StoreKind::State;
        m.layers = vec![2, 5, 7];
        m.batch_ids = vec![11, 42, 0xDEAD_BEEF];
        for e in &mut m.entries {
            e.path = e.path.replace("p/", "q/");
        }
        m
    }

    #[test]
    fn state_manifest_round_trips_with_layer_chain() {
        let m = state_sample();
        let back = Manifest::decode(&m.encode().expect("encode")).expect("decode");
        assert_eq!(back, m);
        assert_eq!(back.layers, vec![2, 5, 7]);
        assert_eq!(back.batch_ids, vec![11, 42, 0xDEAD_BEEF]);
        assert_eq!(back.kind, StoreKind::State);
        assert!(back.contains_batch(42));
        assert!(!back.contains_batch(43));
    }

    #[test]
    fn invalid_batch_id_sets_are_rejected() {
        // Not strictly ascending.
        let mut m = state_sample();
        m.batch_ids = vec![42, 11];
        assert!(Manifest::decode(&m.encode().expect("encode")).is_err());
        // Duplicate IDs.
        let mut m = state_sample();
        m.batch_ids = vec![11, 11];
        assert!(Manifest::decode(&m.encode().expect("encode")).is_err());
        // Output store carrying batch IDs.
        let mut m = sample();
        m.batch_ids = vec![1];
        assert!(Manifest::decode(&m.encode().expect("encode")).is_err());
        // An empty set on a state store is fine (chain seeded without IDs).
        let mut m = state_sample();
        m.batch_ids = Vec::new();
        assert!(Manifest::decode(&m.encode().expect("encode")).is_ok());
    }

    #[test]
    fn invalid_layer_chains_are_rejected() {
        // Chain not ending with the manifest's own generation.
        let mut m = state_sample();
        m.layers = vec![2, 5];
        assert!(Manifest::decode(&m.encode().expect("encode")).is_err());
        // Chain not strictly ascending.
        let mut m = state_sample();
        m.layers = vec![5, 2, 7];
        assert!(Manifest::decode(&m.encode().expect("encode")).is_err());
        // Chain naming generation 0.
        let mut m = state_sample();
        m.layers = vec![0, 7];
        assert!(Manifest::decode(&m.encode().expect("encode")).is_err());
        // Empty chain on a state store.
        let mut m = state_sample();
        m.layers = Vec::new();
        assert!(Manifest::decode(&m.encode().expect("encode")).is_err());
        // Output store carrying a chain.
        let mut m = sample();
        m.layers = vec![7];
        assert!(Manifest::decode(&m.encode().expect("encode")).is_err());
    }

    #[test]
    fn generation_zero_is_rejected() {
        let mut m = sample();
        m.generation = 0;
        assert!(Manifest::decode(&m.encode().expect("encode")).is_err());
    }

    #[test]
    fn encode_sorts_entries() {
        let mut m = sample();
        m.entries.reverse();
        let back = Manifest::decode(&m.encode().expect("encode")).expect("decode");
        assert_eq!(back.entries[0].mask, Mask(0b000));
        assert_eq!(back.entries[2].mask, Mask(0b111));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample().encode().expect("encode");
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                Manifest::decode(&bad).is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn paths_are_stable() {
        assert_eq!(
            segment_path("store", 1, 4, Mask(0b101)),
            "store/gen-00000001/cuboid-0101.cseg"
        );
        assert_eq!(
            segment_path("store", 12, 1, Mask(0b0)),
            "store/gen-00000012/cuboid-0.cseg"
        );
        assert_eq!(
            state_segment_path("store", 2, 4, Mask(0b101)),
            "store/gen-00000002/cuboid-0101.dseg"
        );
        assert_eq!(manifest_path("store"), "store/manifest.cman");
        assert_eq!(
            gen_manifest_path("store", 3),
            "store/gen-00000003/manifest.cman"
        );
        assert_eq!(gen_prefix("s", 2), "s/gen-00000002");
    }

    #[test]
    fn quarantine_paths_stay_under_the_prefix() {
        assert_eq!(
            quarantine_path("store", "store/gen-00000002/cuboid-01.cseg"),
            "store/quarantine/gen-00000002/cuboid-01.cseg"
        );
        // A path not under the prefix is flattened rather than escaping.
        assert_eq!(
            quarantine_path("store", "elsewhere/blob"),
            "store/quarantine/elsewhere_blob"
        );
    }

    #[test]
    fn generation_parsing() {
        assert_eq!(
            parse_generation("store", "store/gen-00000002/cuboid-01.cseg"),
            Some(2)
        );
        assert_eq!(
            parse_generation("store", "store/gen-00000002/manifest.cman"),
            Some(2)
        );
        assert_eq!(parse_generation("store", "store/manifest.cman"), None);
        assert_eq!(parse_generation("store", "store/quarantine/x"), None);
        assert_eq!(parse_generation("store", "other/gen-00000001/x"), None);
        assert_eq!(parse_generation("store", "store/gen-abc/x"), None);
    }
}

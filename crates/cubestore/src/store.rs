//! The persistent cube store: write path and query-ready read path.
//!
//! **Write path** — [`write_store`] takes a materialized [`Cube`] and
//! encodes each of its non-empty cuboids, already sorted by key, as one
//! columnar [`Segment`] (the paper's one-file-per-cuboid layout, Section
//! 3.1) with no regrouping or re-sort, then commits them under a fresh
//! **generation** through a [`BlobStore`]. The commit protocol is
//! crash-atomic (see `DESIGN.md`, "Crash-consistent generational
//! commits"): segments land under `prefix/gen-N/`, the generation is
//! *sealed* by writing its own manifest after every segment, and the
//! commit point is a single write of the root manifest — atomic
//! temp+rename on a directory store, publish-last on the DFS. The
//! previous generation is kept so readers opened against it survive one
//! in-flight rewrite; anything older is garbage-collected after the
//! commit.
//!
//! **Read path** — [`CubeStore::open`] runs a recovery scan
//! ([`crate::recover::scan_store`]): it serves the committed generation
//! when the root pointer is intact, falls back to the newest fully sealed
//! generation when the commit was torn (repairing the root pointer,
//! counted in [`StoreStats::torn_commits`]), and moves blobs of aborted
//! commits into `prefix/quarantine/`
//! ([`StoreStats::quarantined_blobs`]). Open never panics on torn state —
//! it either finds a complete generation or returns a typed error. Opened
//! stores answer the [`CubeRead`] OLAP operations directly from segments:
//! point lookups go through the sparse first-key index, slices through
//! the zone maps, top-k through one pass over the values column, and
//! decoded segments are held in an LRU hot-cuboid cache with hit/miss
//! counters.
//!
//! **Corruption** — every blob is checksummed. If a segment fails its
//! checksum (or has gone missing), the store does not fail the query:
//! when a recovery relation is attached it recomputes just that cuboid
//! BUC-style ([`crate::recover`]), caches the recomputed segment like any
//! other, and counts a degraded recompute in [`StoreStats`]. Without a
//! recovery relation the error propagates. The store never rewrites a
//! blob on the read path: repairing the damage is the
//! [`crate::scrub::Scrubber`]'s job.
// Output path: nothing here may iterate in hash order (DESIGN.md §8).
#![warn(clippy::disallowed_types)]

use std::cmp;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use spcube_agg::{AggOutput, AggSpec};
use spcube_common::sync::lock_or_recover;
use spcube_common::{Error, Group, Mask, Relation, Result, Value};
use spcube_cubealg::{check_cuboid, slice_slot, Cube, CubeRead};
use spcube_obs::{flight_timed, names, Counter, FlightLabel, FlightName, ObsHandle};

use crate::blob::BlobStore;
use crate::cache::SegmentCache;
use crate::delta::merged_cuboid_obs;
use crate::manifest::{
    gen_manifest_path, manifest_path, next_generation, parse_generation, quarantine_path,
    segment_path, Manifest, ManifestEntry, StoreKind,
};
use crate::recover::{recompute_cuboid, scan_store};
use crate::segment::Segment;

/// Default capacity (in decoded segments) of the hot-cuboid cache.
pub const DEFAULT_CACHE_SEGMENTS: usize = 8;

/// What one generation commit wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreWriteReport {
    /// Segments written (non-empty cuboids).
    pub segments: usize,
    /// Total bytes of all blobs, both manifest copies included.
    pub bytes: u64,
    /// Total rows (groups) across all segments.
    pub rows: u64,
    /// The generation this write committed.
    pub generation: u64,
}

/// Persist `cube` under `prefix` as a new generation: one segment per
/// non-empty cuboid, committed by `commit_generation`. `d` is the
/// source dimensionality; `spec` / `min_support` are recorded so a
/// degraded reader can recompute a corrupt cuboid exactly as it was
/// built.
///
/// After the commit, generations older than the immediately previous one
/// are garbage-collected (the previous one is kept so already-open
/// readers keep answering through one rewrite).
pub fn write_store(
    blobs: &dyn BlobStore,
    prefix: &str,
    cube: &Cube,
    d: usize,
    spec: AggSpec,
    min_support: usize,
) -> Result<StoreWriteReport> {
    let listing = blobs.list(prefix)?;
    // A full rebuild must not land on an incremental store: this GC keeps
    // only the previous generation, which would delete live delta layers
    // out from under the chain. Layered prefixes are append-only through
    // `crate::delta`.
    if listing.iter().any(|(p, _)| p.ends_with(".dseg")) {
        return Err(Error::Config(format!(
            "`{prefix}` holds an incremental (layered) store; use delta ingest/compaction, \
             or write the rebuild under a fresh prefix"
        )));
    }
    let generation = next_generation(prefix, &listing);
    let header = Manifest {
        d,
        generation,
        spec,
        min_support,
        kind: StoreKind::Output,
        layers: Vec::new(),
        batch_ids: Vec::new(),
        entries: Vec::new(),
    };
    // The cube's cuboids come in ascending mask order, each sorted by key,
    // so the output (blob sequence, manifest) is byte-identical across
    // runs and every segment is built from the cube's rows in place.
    let segments = cube.cuboids().map(|(mask, rows)| {
        let segment = Segment::from_sorted(d, mask, rows.iter().map(|(g, v)| (g.key.as_ref(), v)))?;
        let path = segment_path(prefix, generation, d, mask);
        Ok((mask, segment.len(), path, segment.encode()?))
    });
    commit_generation(blobs, prefix, &listing, header, segments, |g| {
        g + 1 >= generation
    })
}

/// Commit one generation — a full rebuild or a delta layer alike (see
/// `DESIGN.md`, "Crash-consistent generational commits"):
///
/// 1. put `segments` — each a cuboid's mask, row count, blob path and
///    encoded bytes — in the order given;
/// 2. put the generation's seal: `header` with one entry per segment;
/// 3. put the root manifest — the single commit point;
/// 4. delete each blob of `listing`, the pre-commit listing, whose
///    generation `keep` rejects.
///
/// A crash anywhere before the root write leaves the previous commit
/// authoritative; a crash after it leaves this one. An error after the
/// root write (e.g. during GC) does *not* undo the commit.
pub(crate) fn commit_generation(
    blobs: &dyn BlobStore,
    prefix: &str,
    listing: &[(String, u64)],
    mut header: Manifest,
    segments: impl IntoIterator<Item = Result<(Mask, usize, String, Vec<u8>)>>,
    keep: impl Fn(u64) -> bool,
) -> Result<StoreWriteReport> {
    let mut bytes = 0u64;
    let mut rows = 0u64;
    for segment in segments {
        let (mask, n, path, encoded) = segment?;
        bytes += encoded.len() as u64;
        rows += n as u64;
        header.entries.push(ManifestEntry {
            mask,
            rows: u32::try_from(n).map_err(|_| {
                Error::Internal(format!(
                    "cuboid {mask} row count exceeds the manifest field"
                ))
            })?,
            bytes: encoded.len() as u64,
            path: path.clone(),
        });
        blobs.put(&path, encoded)?;
    }
    let encoded = header.encode()?;
    bytes += 2 * encoded.len() as u64;
    // Seal: the generation's own manifest, written after every segment.
    blobs.put(
        &gen_manifest_path(prefix, header.generation),
        encoded.clone(),
    )?;
    // COMMIT POINT: one root-manifest write flips readers to the new
    // generation. Everything before this line is invisible to recovery;
    // everything after is cleanup.
    blobs.put(&manifest_path(prefix), encoded)?;
    // GC: the listing predates this commit, so only old blobs qualify.
    // Listing order puts each generation's segments before its manifest,
    // so a crash mid-GC leaves the victim unsealed (then quarantined),
    // never half-sealed.
    for (path, _) in listing {
        if parse_generation(prefix, path).is_some_and(|g| !keep(g)) {
            blobs.delete(path)?;
        }
    }
    Ok(StoreWriteReport {
        segments: header.entries.len(),
        bytes,
        rows,
        generation: header.generation,
    })
}

/// Cache, recovery, and degradation counters of a [`CubeStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Queries answered from a cached decoded segment.
    pub cache_hits: u64,
    /// Queries that had to fetch and decode (or recompute) a segment.
    pub cache_misses: u64,
    /// Segments served via the degraded BUC-recompute path.
    pub degraded_recomputes: u64,
    /// Orphan blobs of aborted commits moved to quarantine at open.
    pub quarantined_blobs: u64,
    /// Torn commits repaired at open (root pointer rewritten to the
    /// newest fully sealed generation).
    pub torn_commits: u64,
}

/// A queryable, persisted cube: one sealed generation's manifest plus
/// lazily fetched segments.
///
/// All methods take `&self`; the segment cache sits behind a mutex and the
/// counters are atomic, so one store can be shared across the serving
/// worker pool behind an `Arc`. A store stays pinned to the generation it
/// opened: a concurrent [`write_store`] commits a *new* generation and
/// keeps this one's blobs, so serving continues undisturbed through one
/// rewrite (re-open to pick up the new data).
pub struct CubeStore {
    blobs: Arc<dyn BlobStore>,
    manifest: Manifest,
    /// Seal manifests of every live layer, ascending by generation — one
    /// entry per chain member for an incremental ([`StoreKind::State`])
    /// store, empty for a classic output store. Reads of a layered store
    /// merge `AggState`s across these and finalize once.
    layer_manifests: Vec<Manifest>,
    cache: Mutex<SegmentCache>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    degraded_recomputes: AtomicU64,
    quarantined_blobs: AtomicU64,
    torn_commits: AtomicU64,
    /// Raw relation for degraded recompute of corrupt segments.
    recovery: Option<Relation>,
    /// Observability session (attach via [`CubeStore::with_obs`]).
    obs: ObsHandle,
    /// Cache hit/miss counters pre-grabbed from the registry so the
    /// serving hot path pays one relaxed atomic, not a registry lookup.
    obs_cache_hit: Option<Arc<Counter>>,
    obs_cache_miss: Option<Arc<Counter>>,
}

impl CubeStore {
    /// Open the store persisted under `prefix`, recovering from any torn
    /// commit: a recovery scan picks the committed generation (or the
    /// newest fully sealed one when the root pointer is torn, repairing
    /// the pointer), and blobs left behind by aborted commits are moved
    /// to `prefix/quarantine/`. Opening is read-only apart from those two
    /// best-effort repairs; it never panics on torn state and fails with
    /// a typed error only when no complete generation exists at all.
    pub fn open(blobs: Arc<dyn BlobStore>, prefix: &str) -> Result<CubeStore> {
        let scan = scan_store(blobs.as_ref(), prefix)?;
        let Some(manifest) = scan.chosen_manifest().cloned() else {
            return Err(Error::corrupt(
                "store",
                format!("no fully sealed generation under `{prefix}`"),
            ));
        };
        let mut torn_commits = 0;
        if scan.torn_root {
            torn_commits = 1;
            // Repair the commit pointer. Re-writing identical manifest
            // bytes is idempotent, so concurrent re-opens cannot fight.
            // Best-effort: a read-only medium still gets a working store.
            let _ = manifest
                .encode()
                .and_then(|bytes| blobs.put(&manifest_path(prefix), bytes));
        }
        // A layered store needs every chain member's seal manifest; the
        // scan already decoded each one and guaranteed it is sealed (a
        // chain with torn ancestors is never chosen).
        let mut layer_manifests = Vec::with_capacity(manifest.layers.len());
        if manifest.kind == StoreKind::State {
            for &g in &manifest.layers {
                let layer = scan.sealed_manifest(g).cloned().ok_or_else(|| {
                    Error::Internal(format!("scan chose a chain whose layer {g} is not sealed"))
                })?;
                if layer.d != manifest.d || layer.spec != manifest.spec {
                    return Err(Error::corrupt(
                        "store",
                        format!("layer {g} disagrees with the root manifest's shape"),
                    ));
                }
                layer_manifests.push(layer);
            }
        }
        let mut quarantined = 0;
        for orphan in &scan.orphans {
            // Move, don't delete: torn blobs are forensic evidence of an
            // aborted commit. Best-effort — a failed move leaves the
            // orphan for the next open, and serving proceeds either way.
            let moved = blobs.get(orphan).and_then(|bytes| {
                blobs.put(&quarantine_path(prefix, orphan), bytes)?;
                blobs.delete(orphan)
            });
            if moved.is_ok() {
                quarantined += 1;
            }
        }
        Ok(CubeStore {
            blobs,
            manifest,
            layer_manifests,
            cache: Mutex::new(SegmentCache::new(DEFAULT_CACHE_SEGMENTS)),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            degraded_recomputes: AtomicU64::new(0),
            quarantined_blobs: AtomicU64::new(quarantined),
            torn_commits: AtomicU64::new(torn_commits),
            recovery: None,
            obs: ObsHandle::default(),
            obs_cache_hit: None,
            obs_cache_miss: None,
        })
    }

    /// Attach the raw relation so corrupt segments degrade to a BUC
    /// recompute instead of an error.
    pub fn with_recovery(mut self, rel: Relation) -> CubeStore {
        self.recovery = Some(rel);
        self
    }

    /// Attach an observability session. Recovery work [`CubeStore::open`]
    /// already performed (torn-commit repair, quarantined orphans) is
    /// reported retroactively as counters, so a snapshot always reflects
    /// what this open recovered from.
    pub fn with_obs(mut self, obs: ObsHandle) -> CubeStore {
        self.obs_cache_hit = obs.counter(names::STORE_CACHE_HIT, &[]);
        self.obs_cache_miss = obs.counter(names::STORE_CACHE_MISS, &[]);
        let torn = self.torn_commits.load(Ordering::Relaxed);
        if torn > 0 {
            obs.add(names::STORE_COMMIT_TORN, &[], torn);
        }
        let quarantined = self.quarantined_blobs.load(Ordering::Relaxed);
        if quarantined > 0 {
            obs.add(names::STORE_BLOB_QUARANTINED, &[], quarantined);
        }
        if self.manifest.kind == StoreKind::State {
            obs.gauge_set(
                names::STORE_LAYER_COUNT,
                &[],
                self.layer_manifests.len() as f64,
            );
        }
        self.obs = obs;
        self
    }

    /// The attached observability session (disabled unless
    /// [`CubeStore::with_obs`] was called).
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// Resize the hot-cuboid cache to hold `segments` decoded segments.
    pub fn with_cache_capacity(self, segments: usize) -> CubeStore {
        *lock_or_recover(&self.cache) = SegmentCache::new(segments);
        self
    }

    /// The store's manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The generation this store serves.
    pub fn generation(&self) -> u64 {
        self.manifest.generation
    }

    /// Live delta layers this store merges at read time: the chain length
    /// for an incremental store, `0` for a classic output store.
    pub fn layer_count(&self) -> usize {
        self.layer_manifests.len()
    }

    /// The live chain's generations, ascending (empty for an output
    /// store).
    pub fn layers(&self) -> Vec<u64> {
        self.layer_manifests.iter().map(|m| m.generation).collect()
    }

    /// Snapshot of the cache/recovery/degradation counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            degraded_recomputes: self.degraded_recomputes.load(Ordering::Relaxed),
            quarantined_blobs: self.quarantined_blobs.load(Ordering::Relaxed),
            torn_commits: self.torn_commits.load(Ordering::Relaxed),
        }
    }

    /// The decoded segment for `mask`: cached, fetched, or — for a corrupt
    /// or missing blob with a recovery relation attached — recomputed. A
    /// mask outside the store's dimensions is refused before the cache,
    /// so it counts no hit or miss.
    pub fn segment(&self, mask: Mask) -> Result<Arc<Segment>> {
        check_cuboid(mask, self.manifest.d)?;
        // Hoisted out of the scrutinee so the cache guard drops before
        // the hit path runs (clippy::significant_drop_in_scrutinee).
        let cached = lock_or_recover(&self.cache).get(mask);
        if let Some(seg) = cached {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            if let Some(c) = &self.obs_cache_hit {
                c.inc();
            }
            return Ok(seg);
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = &self.obs_cache_miss {
            c.inc();
        }
        let seg = Arc::new(self.load_segment(mask)?);
        lock_or_recover(&self.cache).put(mask, Arc::clone(&seg));
        Ok(seg)
    }

    /// Fetch + decode outside the cache, falling back to recompute.
    fn load_segment(&self, mask: Mask) -> Result<Segment> {
        if self.manifest.kind == StoreKind::State {
            return self.load_layered(mask);
        }
        let Some(entry) = self.manifest.entry(mask) else {
            // Not materialized: the cuboid is empty (the writer skips
            // empty cuboids).
            return Ok(Segment::build(self.manifest.d, mask, Vec::new()));
        };
        // Fetch and decode are timed separately against the flight
        // recorder when a profiled query's context is active on this
        // thread (a no-op branch otherwise).
        let cuboid = Some((FlightLabel::Cuboid, u64::from(mask.0)));
        let fetched = flight_timed(&self.obs, FlightName::BlobIo, cuboid, || {
            self.blobs.get(&entry.path)
        })
        .and_then(|bytes| {
            flight_timed(&self.obs, FlightName::Decode, cuboid, || {
                Segment::decode(&bytes)
            })
        });
        match fetched {
            Ok(seg) if seg.mask() == mask && seg.dims() == self.manifest.d => Ok(seg),
            Ok(_) => self.degrade(
                mask,
                Error::corrupt("segment", "segment/manifest cuboid mismatch"),
            ),
            // Only data loss (corruption, bad parse, missing blob) is
            // recoverable by recompute; I/O or config errors propagate.
            Err(e) if e.is_data_loss() => self.degrade(mask, e),
            Err(e) => Err(e),
        }
    }

    /// The layered read: merge the cuboid's `AggState`s across every live
    /// layer, finalize once, and serve the result as an ordinary segment
    /// (so the cache, server, and client all work unchanged). Data loss in
    /// any layer degrades to the BUC recompute, which is bit-exact over
    /// the full recovery relation.
    fn load_layered(&self, mask: Mask) -> Result<Segment> {
        match merged_cuboid_obs(
            self.blobs.as_ref(),
            &self.layer_manifests,
            self.manifest.d,
            mask,
            self.manifest.spec,
            &self.obs,
        ) {
            Ok(rows) => Ok(Segment::build(self.manifest.d, mask, rows)),
            Err(e) if e.is_data_loss() => self.degrade(mask, e),
            Err(e) => Err(e),
        }
    }

    /// The degraded path: recompute the cuboid from the raw relation.
    /// [`CubeStore::segment`] caches the result, so a damaged cuboid costs
    /// one recompute per cache residency; the blob itself stays as it is
    /// until a [`crate::scrub::Scrubber`] pass repairs it.
    fn degrade(&self, mask: Mask, cause: Error) -> Result<Segment> {
        let Some(rel) = &self.recovery else {
            return Err(cause);
        };
        self.degraded_recomputes.fetch_add(1, Ordering::Relaxed);
        self.obs.inc(names::STORE_DEGRADE_RECOMPUTE, &[]);
        let rows = recompute_cuboid(rel, mask, self.manifest.spec, self.manifest.min_support);
        Ok(Segment::build(self.manifest.d, mask, rows))
    }
}

/// A decoded segment answers the [`CubeRead`] queries about its own cuboid
/// from its columns, building [`Group`]s only for the rows it returns.
/// Asking it about any other cuboid is an internal error: every query
/// reads exactly one cuboid, so the caller fetched the wrong segment.
impl CubeRead for Segment {
    fn dims(&self) -> usize {
        Segment::dims(self)
    }

    fn cuboid_rows(&self, mask: Mask) -> Result<Vec<(Group, AggOutput)>> {
        holds(self, mask)?;
        Ok(self.iter().map(|(g, v)| (g, v.clone())).collect())
    }

    fn point(&self, mask: Mask, key: &[Value]) -> Result<Option<AggOutput>> {
        holds(self, mask)?;
        Ok(Segment::point(self, key).cloned())
    }

    fn cuboid_len(&self, mask: Mask) -> Result<usize> {
        holds(self, mask)?;
        Ok(self.len())
    }

    /// Zone-map-pruned slice (overrides the scan-everything default).
    fn slice(&self, mask: Mask, dim: usize, value: &Value) -> Result<Vec<(Group, AggOutput)>> {
        let slot = slice_slot(mask, dim)?;
        holds(self, mask)?;
        Ok(self
            .slice_rows(slot, value)
            .into_iter()
            .map(|i| (self.group(i), self.value(i).clone()))
            .collect())
    }

    /// The top-k kernel (overrides the sort-every-row default): one pass
    /// over the values column keeps the best `n` rows in a heap, and only
    /// they become [`Group`]s. The order is value by IEEE-754 total order
    /// descending, then row ascending — which is key ascending, since rows
    /// are sorted by key — exactly the default's. The heap never reserves
    /// more than the row count, whatever `n` is.
    fn top(&self, mask: Mask, n: usize) -> Result<Vec<(Group, f64)>> {
        holds(self, mask)?;
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut heap = BinaryHeap::with_capacity(n.min(self.len()));
        for (row, v) in self.values().iter().enumerate() {
            let &AggOutput::Number(x) = v else { continue };
            let cand = Ranked { x, row };
            if heap.len() < n {
                heap.push(cand);
            } else if let Some(mut weakest) = heap.peek_mut() {
                if cand < *weakest {
                    *weakest = cand;
                }
            }
        }
        Ok(heap
            .into_sorted_vec()
            .into_iter()
            .map(|r| (self.group(r.row), r.x))
            .collect())
    }
}

/// `Ok` when `seg` holds cuboid `mask`.
fn holds(seg: &Segment, mask: Mask) -> Result<()> {
    if seg.mask() == mask {
        Ok(())
    } else {
        Err(Error::Internal(format!(
            "segment of cuboid {} asked about cuboid {mask}",
            seg.mask()
        )))
    }
}

/// One row's scalar aggregate in a top-k ranking, ordered worst first: a
/// lower value (IEEE-754 total order) is greater, and so is a later row
/// among equal values. A max-heap of them keeps the weakest winner on top.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    x: f64,
    row: usize,
}

impl Ord for Ranked {
    fn cmp(&self, other: &Ranked) -> cmp::Ordering {
        other.x.total_cmp(&self.x).then(self.row.cmp(&other.row))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Ranked) -> Option<cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Ranked) -> bool {
        self.cmp(other) == cmp::Ordering::Equal
    }
}

impl Eq for Ranked {}

/// Every read fetches the cuboid's segment (one cache access) and lets the
/// segment answer, so zone-map-pruned slices and the one-pass top-k kernel
/// override the trait's scan-everything defaults here too.
impl CubeRead for CubeStore {
    fn dims(&self) -> usize {
        self.manifest.d
    }

    fn cuboid_rows(&self, mask: Mask) -> Result<Vec<(Group, AggOutput)>> {
        self.segment(mask)?.cuboid_rows(mask)
    }

    fn point(&self, mask: Mask, key: &[Value]) -> Result<Option<AggOutput>> {
        CubeRead::point(self.segment(mask)?.as_ref(), mask, key)
    }

    fn cuboid_len(&self, mask: Mask) -> Result<usize> {
        self.segment(mask)?.cuboid_len(mask)
    }

    fn slice(&self, mask: Mask, dim: usize, value: &Value) -> Result<Vec<(Group, AggOutput)>> {
        // A slice on an ungrouped dimension fails before the fetch, so it
        // costs no cache access and no degraded recompute.
        slice_slot(mask, dim)?;
        self.segment(mask)?.slice(mask, dim, value)
    }

    fn top(&self, mask: Mask, n: usize) -> Result<Vec<(Group, f64)>> {
        self.segment(mask)?.top(mask, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcube_common::Schema;
    use spcube_cubealg::naive_cube;
    use spcube_mapreduce::Dfs;

    fn sample_rel() -> Relation {
        let mut r = Relation::empty(Schema::synthetic(3));
        for (dims, m) in [
            ([1i64, 1, 2], 1.0),
            ([1, 2, 2], 2.0),
            ([1, 1, 3], 3.0),
            ([2, 1, 2], 4.0),
            ([2, 2, 3], 5.0),
        ] {
            r.push_row(dims.iter().map(|&v| Value::Int(v)).collect(), m);
        }
        r
    }

    fn built(dfs: &Arc<Dfs>) -> (Relation, Cube, StoreWriteReport) {
        let rel = sample_rel();
        let cube = naive_cube(&rel, AggSpec::Sum);
        let report = write_store(dfs.as_ref(), "store", &cube, 3, AggSpec::Sum, 1).expect("write");
        (rel, cube, report)
    }

    #[test]
    fn write_then_open_round_trips_every_cuboid() {
        let dfs = Arc::new(Dfs::new());
        let (rel, cube, report) = built(&dfs);
        assert_eq!(report.segments, 8); // all cuboids non-empty at min_support 1
        assert_eq!(report.rows as usize, cube.len());
        assert_eq!(report.generation, 1);
        let store = CubeStore::open(dfs, "store").expect("open");
        assert_eq!(store.generation(), 1);
        let q = spcube_cubealg::CubeQuery::new(&cube, rel.arity());
        for mask in Mask::full(3).subsets() {
            let rows = store.cuboid_rows(mask).expect("cuboid rows");
            assert_eq!(rows.len(), q.cuboid_len(mask));
            for (g, v) in &rows {
                assert_eq!(q.group(mask, &g.key), Some(v));
            }
        }
    }

    #[test]
    fn rewrites_advance_the_generation_and_gc_keeps_the_previous_one() {
        let dfs = Arc::new(Dfs::new());
        let (rel, _, _) = built(&dfs);
        let cube2 = naive_cube(&rel, AggSpec::Count);
        let r2 = write_store(dfs.as_ref(), "store", &cube2, 3, AggSpec::Count, 1).expect("gen 2");
        assert_eq!(r2.generation, 2);
        let r3 = write_store(dfs.as_ref(), "store", &cube2, 3, AggSpec::Count, 1).expect("gen 3");
        assert_eq!(r3.generation, 3);
        // Generation 2 (the previous) survives GC; generation 1 is gone.
        let listed = dfs.list_prefix("store");
        assert!(listed
            .iter()
            .any(|(p, _)| p.starts_with("store/gen-00000002/")));
        assert!(!listed
            .iter()
            .any(|(p, _)| p.starts_with("store/gen-00000001/")));
        let store = CubeStore::open(dfs, "store").expect("open");
        assert_eq!(store.generation(), 3);
    }

    #[test]
    fn open_reader_survives_a_concurrent_rewrite() {
        let dfs = Arc::new(Dfs::new());
        let (rel, cube, _) = built(&dfs);
        let store = CubeStore::open(Arc::clone(&dfs) as Arc<dyn BlobStore>, "store").expect("open");
        // A rewrite commits generation 2; the open store is pinned to 1
        // and its blobs survive GC, so answers are unchanged.
        let cube2 = naive_cube(&rel, AggSpec::Count);
        write_store(dfs.as_ref(), "store", &cube2, 3, AggSpec::Count, 1).expect("rewrite");
        let q = spcube_cubealg::CubeQuery::new(&cube, rel.arity());
        for mask in Mask::full(3).subsets() {
            let rows = store.cuboid_rows(mask).expect("old-generation rows");
            assert_eq!(rows.len(), q.cuboid_len(mask), "cuboid {mask}");
        }
        assert_eq!(store.generation(), 1);
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let dfs = Arc::new(Dfs::new());
        built(&dfs);
        let store = CubeStore::open(dfs, "store")
            .expect("open")
            .with_cache_capacity(2);
        let mask = Mask(0b011);
        store.cuboid_len(mask).expect("len"); // miss
        store.cuboid_len(mask).expect("len"); // hit
        store
            .point(mask, &[Value::Int(1), Value::Int(1)])
            .expect("point"); // hit
        let stats = store.stats();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 2);
    }

    #[test]
    fn slice_on_an_ungrouped_dimension_fails_before_the_fetch() {
        let dfs = Arc::new(Dfs::new());
        built(&dfs);
        let store = CubeStore::open(dfs, "store").expect("open");
        let err = store
            .slice(Mask(0b011), 2, &Value::Int(2))
            .expect_err("dimension 2 is not grouped");
        assert!(matches!(err, Error::Config(_)), "{err}");
        let stats = store.stats();
        assert_eq!((stats.cache_misses, stats.cache_hits), (0, 0));
    }

    #[test]
    fn corrupt_segment_degrades_to_recompute_with_identical_answers() {
        let dfs = Arc::new(Dfs::new());
        let (rel, cube, _) = built(&dfs);
        let victim = Mask(0b101);
        let victim_path = segment_path("store", 1, 3, victim);
        dfs.corrupt_byte(&victim_path, 20).expect("corrupt");
        let corrupt = dfs.get(&victim_path).expect("corrupt blob");
        let store = CubeStore::open(Arc::clone(&dfs) as Arc<dyn crate::BlobStore>, "store")
            .expect("open")
            .with_recovery(rel.clone());
        let q = spcube_cubealg::CubeQuery::new(&cube, rel.arity());
        let rows = store.cuboid_rows(victim).expect("degraded rows");
        assert_eq!(rows.len(), q.cuboid_len(victim));
        for (g, v) in &rows {
            assert_eq!(q.group(victim, &g.key), Some(v));
        }
        assert_eq!(store.stats().degraded_recomputes, 1);
        // Recomputed segment is cached: next access is a hit, no new recompute.
        store.cuboid_len(victim).expect("cached len");
        assert_eq!(store.stats().degraded_recomputes, 1);
        // Degrading never writes: the blob stays for the scrubber to repair.
        assert_eq!(dfs.get(&victim_path).expect("victim blob"), corrupt);
    }

    #[test]
    fn corrupt_segment_without_recovery_errors() {
        let dfs = Arc::new(Dfs::new());
        built(&dfs);
        let victim = Mask(0b001);
        dfs.corrupt_byte(&segment_path("store", 1, 3, victim), 10)
            .expect("corrupt");
        let store = CubeStore::open(dfs, "store").expect("open");
        assert!(store.cuboid_rows(victim).is_err());
        // Other cuboids still answer.
        assert!(store.cuboid_rows(Mask(0b010)).is_ok());
    }

    #[test]
    fn corrupt_root_manifest_recovers_from_the_sealed_generation() {
        let dfs = Arc::new(Dfs::new());
        let (_, cube, _) = built(&dfs);
        dfs.corrupt_byte(&manifest_path("store"), 7)
            .expect("corrupt");
        // The torn root is repaired from the generation seal.
        let store = CubeStore::open(Arc::clone(&dfs) as Arc<dyn BlobStore>, "store")
            .expect("recovering open");
        assert_eq!(store.stats().torn_commits, 1);
        assert_eq!(
            store.cuboid_len(Mask(0b111)).expect("len"),
            cube.iter().filter(|(g, _)| g.mask == Mask(0b111)).count()
        );
        // The repair is durable: the next open is clean.
        let again = CubeStore::open(dfs, "store").expect("clean open");
        assert_eq!(again.stats().torn_commits, 0);
    }

    #[test]
    fn store_with_no_sealed_generation_fails_open_typed() {
        let dfs = Arc::new(Dfs::new());
        built(&dfs);
        dfs.corrupt_byte(&manifest_path("store"), 7).expect("root");
        dfs.corrupt_byte(&gen_manifest_path("store", 1), 7)
            .expect("seal");
        let err = match CubeStore::open(dfs, "store") {
            Ok(_) => panic!("open must fail with no sealed generation"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("no fully sealed generation"));
        // An entirely empty prefix is the same typed error.
        let empty = Arc::new(Dfs::new());
        assert!(CubeStore::open(empty, "void").is_err());
    }

    #[test]
    fn orphans_of_an_aborted_commit_are_quarantined_at_open() {
        let dfs = Arc::new(Dfs::new());
        built(&dfs);
        // A later commit died after two segment writes, before sealing.
        dfs.put(&segment_path("store", 2, 3, Mask(0b001)), vec![1; 10]);
        dfs.put(&segment_path("store", 2, 3, Mask(0b010)), vec![2; 20]);
        let store = CubeStore::open(Arc::clone(&dfs) as Arc<dyn BlobStore>, "store").expect("open");
        assert_eq!(store.stats().quarantined_blobs, 2);
        assert_eq!(store.generation(), 1);
        // Moved, not deleted — and out of the next scan's way.
        assert!(dfs
            .get(&quarantine_path(
                "store",
                &segment_path("store", 2, 3, Mask(0b001))
            ))
            .is_ok());
        assert!(dfs.get(&segment_path("store", 2, 3, Mask(0b001))).is_err());
        let again = CubeStore::open(dfs, "store").expect("reopen");
        assert_eq!(again.stats().quarantined_blobs, 0);
    }

    #[test]
    fn unmaterialized_cuboid_answers_empty() {
        let dfs = Arc::new(Dfs::new());
        let rel = sample_rel();
        // min_support high enough to prune most cuboids entirely.
        let cube = spcube_cubealg::buc(
            &rel,
            AggSpec::Count,
            &spcube_cubealg::BucConfig { min_support: 5 },
        );
        write_store(dfs.as_ref(), "iceberg", &cube, 3, AggSpec::Count, 5).expect("write");
        let store = CubeStore::open(dfs, "iceberg").expect("open");
        assert_eq!(store.cuboid_len(Mask(0b111)).expect("len"), 0);
        assert!(store.cuboid_rows(Mask(0b111)).expect("rows").is_empty());
        let key = vec![Value::Int(1), Value::Int(1), Value::Int(1)];
        assert_eq!(store.point(Mask(0b111), &key).expect("point"), None);
    }

    fn ints(vals: &[i64]) -> Box<[Value]> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    /// A segment seen through the trait's provided methods only, so its
    /// `top` is the default that sorts every row.
    struct Defaults<'a>(&'a Segment);

    impl CubeRead for Defaults<'_> {
        fn dims(&self) -> usize {
            self.0.dims()
        }
        fn cuboid_rows(&self, mask: Mask) -> Result<Vec<(Group, AggOutput)>> {
            self.0.cuboid_rows(mask)
        }
        fn point(&self, mask: Mask, key: &[Value]) -> Result<Option<AggOutput>> {
            CubeRead::point(self.0, mask, key)
        }
    }

    #[test]
    fn top_kernel_matches_the_sorting_default_at_every_n() {
        // Ties, both zeros, both infinities, both NaN signs, and top-k
        // outputs the ranking must skip.
        let scores = [
            1.0,
            -0.0,
            f64::NAN,
            1.0,
            0.0,
            f64::INFINITY,
            -f64::NAN,
            f64::NEG_INFINITY,
            1.0,
            -2.5,
        ];
        let rows: Vec<(Box<[Value]>, AggOutput)> = (0..150)
            .map(|i| {
                let v = if i % 11 == 3 {
                    AggOutput::TopK(vec![(1.0, 2)])
                } else {
                    AggOutput::Number(scores[i % scores.len()])
                };
                (ints(&[(i % 13) as i64, (i / 13) as i64]), v)
            })
            .collect();
        let mask = Mask(0b011);
        let seg = Segment::build(2, mask, rows);
        let len = seg.len();
        for n in [0, 1, 2, 10, len - 1, len, len + 1, usize::MAX] {
            let bits = |ranked: Vec<(Group, f64)>| -> Vec<(Group, u64)> {
                ranked.into_iter().map(|(g, x)| (g, x.to_bits())).collect()
            };
            let got = seg.top(mask, n).expect("kernel");
            assert!(got.capacity() <= len, "top-{n} reserved past the rows");
            assert_eq!(
                bits(got),
                bits(Defaults(&seg).top(mask, n).expect("default")),
                "top-{n}"
            );
        }
    }

    #[test]
    fn segment_reads_of_another_cuboid_are_internal_errors() {
        let rows = (0..10)
            .map(|i| (ints(&[i / 7, i % 7]), AggOutput::Number(i as f64)))
            .collect();
        let seg = Segment::build(3, Mask(0b011), rows);
        let other = Mask(0b101);
        assert!(matches!(seg.top(other, 3), Err(Error::Internal(_))));
        assert!(matches!(seg.cuboid_len(other), Err(Error::Internal(_))));
        assert!(matches!(
            CubeRead::point(&seg, other, &[Value::Int(0), Value::Int(0)]),
            Err(Error::Internal(_))
        ));
        assert_eq!(seg.cuboid_len(seg.mask()).expect("own cuboid"), 10);
    }
}

//! Incremental cube maintenance: LSM-style delta layers over the
//! generational commit protocol.
//!
//! A classic store ([`crate::store::write_store`]) rebuilds the whole cube
//! on every commit. This module instead grows a cube by **layers**: each
//! appended batch is cubed on its own — cheap, because a batch is small —
//! and published as a new generation holding `DSEG1` *state* segments:
//! mergeable [`AggState`] partials rather than finalized outputs. The
//! manifest of every layer carries the live **chain** (ascending
//! generations); a read merges the per-key states across every chain
//! member and finalizes once, which by the merge laws of
//! [`spcube_agg`] is bit-exact versus cubing base + batches from scratch.
//!
//! # Lifecycle
//!
//! ```text
//! ingest_batch   cube the batch in-process, commit gen N with
//!                chain = old chain + [N]        (first ingest: chain=[1])
//! layered read   CubeStore merges AggStates across the chain, finalizes
//! compaction     fold the smallest layers into one new generation when
//!                the chain exceeds the policy's max_layers
//! GC             a commit deletes generations in neither its own chain
//!                nor the previous chain, so readers opened against the
//!                previous chain survive exactly one commit (the same
//!                guarantee write_store gives its previous generation)
//! ```
//!
//! Every commit goes through the same routine as a full rebuild
//! (`store::commit_generation`): segments first, the
//! generation's seal manifest second, one root-manifest write as the
//! commit point, cleanup after; only the GC keep-rule differs. A crash
//! anywhere leaves either the old
//! chain or the new chain authoritative — never a torn merge — because
//! recovery ([`crate::recover::scan_store`]) only chooses a generation
//! whose whole chain is sealed.
//!
//! Delta stores are pinned to `min_support == 1`: iceberg pruning applied
//! per batch would drop groups that clear the support threshold only
//! across batches, silently breaking the bit-exactness contract.
//!
//! # Exactly-once ingest
//!
//! A client that crashes mid-ingest and retries must not double-apply the
//! batch: SUM/COUNT answers would silently drift. [`ingest_batch_with_id`]
//! therefore tags each batch with a `u64` **batch ID** — client-supplied,
//! or hashed from the batch content via [`batch_content_id`] — and the
//! manifest chain carries the cumulative, sorted set of every ID it has
//! absorbed. Replaying a committed ID returns a typed
//! [`IngestOutcome::AlreadyApplied`] no-op before any blob is written.
//! Because the ID set rides the same single root-manifest commit point as
//! the data, a crash at any blob-op boundary leaves the ID and its layer
//! either both committed or both absent — so retry-until-success
//! ([`IngestSession`]) converges to exactly one committed layer, never
//! zero, never two. The ID-less [`ingest_batch`] stays at-least-once for
//! callers that manage their own dedup; it carries the chain's ID set
//! forward untouched.
//!
//! # Wire format (`DSEG1`)
//!
//! ```text
//! "DSEG1" | u32 d | u32 mask | u32 n_rows
//! per row: tagged key values (one per set mask bit, ascending dimension
//!          order) | tagged agg_state
//! u64 XXH64 checksum of everything above
//! ```
//!
//! Rows are strictly sorted by key, so encoding is deterministic and
//! mergers stream in order.
// Codec and output path: no silently narrowing cast, no untyped error,
// no hash order in persisted bytes (DESIGN.md §8).
#![warn(clippy::cast_possible_truncation, clippy::disallowed_types)]

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use spcube_agg::{AggOutput, AggSpec, AggState};
use spcube_common::retry::Backoff;
use spcube_common::sync::lock_or_recover;
use spcube_common::{Error, Mask, Relation, Result, Value};
use spcube_obs::{flight_timed, names, FlightLabel, FlightName, ObsHandle, Stopwatch};

use crate::blob::BlobStore;
use crate::codec::{
    checked_body, put_agg_state, put_len, put_u32, put_value, seal, AggRead, Reader,
};
use crate::manifest::{next_generation, state_segment_path, Manifest, StoreKind};
use crate::recover::{scan_store, ScanReport};
use crate::store::commit_generation;

/// Magic prefix of a serialized state segment (format version 1).
pub const STATE_SEGMENT_MAGIC: &[u8; 5] = b"DSEG1";

/// One cuboid's worth of mergeable per-group aggregate states — the delta
/// counterpart of [`crate::segment::Segment`], which holds finalized
/// outputs. Layers persist states because finalized outputs are lossy for
/// algebraic/holistic aggregates (AVG drops its count, COUNT-DISTINCT its
/// value set) and could not be merged bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct StateSegment {
    d: usize,
    mask: Mask,
    rows: Vec<(Box<[Value]>, AggState)>,
}

impl StateSegment {
    /// Assemble a state segment, sorting rows by key. Fails (typed, never
    /// a panic — this runs on the ingest path) when a key's arity does not
    /// match the mask or two rows share a key.
    pub fn build(
        d: usize,
        mask: Mask,
        mut rows: Vec<(Box<[Value]>, AggState)>,
    ) -> Result<StateSegment> {
        let arity = mask.arity() as usize;
        if rows.iter().any(|(key, _)| key.len() != arity) {
            return Err(Error::Internal(format!(
                "state segment for cuboid {mask} given a key of the wrong arity"
            )));
        }
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        if rows
            .iter()
            .zip(rows.iter().skip(1))
            .any(|(a, b)| a.0 == b.0)
        {
            return Err(Error::Internal(format!(
                "state segment for cuboid {mask} given duplicate keys"
            )));
        }
        Ok(StateSegment { d, mask, rows })
    }

    /// Source dimensionality.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Which cuboid.
    pub fn mask(&self) -> Mask {
        self.mask
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the segment holds no groups.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows: `(key, state)` ascending by key.
    pub fn rows(&self) -> &[(Box<[Value]>, AggState)] {
        &self.rows
    }

    /// Serialize (see the module-level wire format).
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        out.extend_from_slice(STATE_SEGMENT_MAGIC);
        put_len(&mut out, self.d)?;
        put_u32(&mut out, self.mask.0);
        put_len(&mut out, self.rows.len())?;
        for (key, state) in &self.rows {
            for v in key.iter() {
                put_value(&mut out, v)?;
            }
            put_agg_state(&mut out, state)?;
        }
        seal(&mut out);
        Ok(out)
    }

    /// Deserialize, verifying the checksum and structural invariants.
    pub fn decode(bytes: &[u8]) -> Result<StateSegment> {
        let body = checked_body(bytes, "state segment")?;
        let mut r = Reader::labeled(body, "state segment");
        if r.take(STATE_SEGMENT_MAGIC.len())? != STATE_SEGMENT_MAGIC {
            return Err(r.corrupt("bad state segment magic"));
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
        let arity = mask.arity() as usize;
        let n = r.u32()? as usize;
        // A row is at least `arity` tagged values (5 bytes each at the
        // smallest) plus a 9-byte state; reject a forged count up front.
        r.check_count(n, arity * 5 + 9, "state rows")?;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let mut key = Vec::with_capacity(arity);
            for _ in 0..arity {
                key.push(r.value()?);
            }
            let state = r.agg_state()?;
            rows.push((key.into_boxed_slice(), state));
        }
        if !r.is_exhausted() {
            return Err(r.corrupt("trailing bytes after state segment"));
        }
        if rows
            .iter()
            .zip(rows.iter().skip(1))
            .any(|(a, b)| a.0 >= b.0)
        {
            return Err(r.corrupt("state rows not strictly sorted by key"));
        }
        Ok(StateSegment { d, mask, rows })
    }
}

/// Per-cuboid mergeable states of one batch or one merged layer, keyed by
/// group. The unit a commit persists.
pub type StateCube = BTreeMap<Mask, Vec<(Box<[Value]>, AggState)>>;

/// Cube `batch` in one in-process pass: every tuple updates its group in
/// all `2^d` cuboids. For the small batches delta ingest is built for this
/// is the "single cheap round" — no shuffle, no sketch; the SP-Sketch
/// MapReduce path stays worthwhile only for large batches (the driver in
/// `spcube_core` picks).
pub fn state_cube(batch: &Relation, spec: AggSpec) -> Result<StateCube> {
    let d = batch.arity();
    if d > Mask::MAX_DIMS {
        return Err(Error::Config(format!(
            "batch declares {d} dimensions, max is {}",
            Mask::MAX_DIMS
        )));
    }
    let mut acc: BTreeMap<Mask, BTreeMap<Box<[Value]>, AggState>> = BTreeMap::new();
    for t in batch.tuples() {
        for mask in Mask::full(d).subsets() {
            acc.entry(mask)
                .or_default()
                .entry(t.project(mask).into_boxed_slice())
                .or_insert_with(|| spec.init())
                .update(t.measure);
        }
    }
    Ok(acc
        .into_iter()
        .filter(|(_, groups)| !groups.is_empty())
        .map(|(mask, groups)| (mask, groups.into_iter().collect()))
        .collect())
}

/// What one delta commit (ingest or compaction) wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaWriteReport {
    /// The generation this commit created.
    pub generation: u64,
    /// The live layer chain after the commit, ascending.
    pub layers: Vec<u64>,
    /// State segments written (non-empty cuboids).
    pub segments: usize,
    /// Total bytes of all blobs, both manifest copies included.
    pub bytes: u64,
    /// Total rows (groups) across all written segments.
    pub rows: u64,
}

/// How an ID-tagged ingest ended: a fresh commit, or a typed no-op
/// because the chain already absorbed this batch ID.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The batch was cubed and committed as a new layer.
    Applied(DeltaWriteReport),
    /// The chosen manifest already carries this batch ID — nothing was
    /// written, nothing needs to be. Replaying a committed batch (the
    /// common retry-after-crash case) lands here.
    AlreadyApplied {
        /// The ID the caller presented.
        batch_id: u64,
        /// The committed generation whose manifest proved the duplicate.
        generation: u64,
    },
}

impl IngestOutcome {
    /// The write report, when this outcome committed one.
    pub fn report(&self) -> Option<&DeltaWriteReport> {
        match self {
            IngestOutcome::Applied(r) => Some(r),
            IngestOutcome::AlreadyApplied { .. } => None,
        }
    }

    /// Whether the outcome was a dedup no-op.
    pub fn is_duplicate(&self) -> bool {
        matches!(self, IngestOutcome::AlreadyApplied { .. })
    }
}

/// Derive a batch ID from the batch content: a stable hash over the
/// arity, every tuple's key values, and every measure's exact bit
/// pattern. Two bit-identical batches collide by construction — which is
/// precisely the retry-the-same-payload case exactly-once dedup exists
/// for. Callers with a real idempotency token (an upstream offset, a
/// request UUID) should prefer supplying it to [`ingest_batch_with_id`]
/// directly.
pub fn batch_content_id(batch: &Relation) -> u64 {
    let mut h = DefaultHasher::new();
    b"spcube-batch-id-v1".hash(&mut h);
    let d = batch.arity();
    d.hash(&mut h);
    let full = Mask::full(d);
    for t in batch.tuples() {
        t.project(full).hash(&mut h);
        t.measure.to_bits().hash(&mut h);
    }
    h.finish()
}

/// Cube `batch` and publish it as a new delta layer under `prefix`. The
/// first ingest on a fresh prefix creates the base layer (generation 1,
/// chain `[1]`); later ingests append. Fails with a typed
/// [`Error::Config`] when the prefix holds a classic full-rebuild store
/// or a store of a different shape (`d`, aggregate spec) — delta layers
/// only stack on their own kind.
///
/// This entry point is **at-least-once**: it carries the chain's batch-ID
/// set forward but neither checks nor extends it. Retry-safe callers want
/// [`ingest_batch_with_id`] (or an [`IngestSession`]).
pub fn ingest_batch(
    blobs: &dyn BlobStore,
    prefix: &str,
    batch: &Relation,
    spec: AggSpec,
) -> Result<DeltaWriteReport> {
    let states = state_cube(batch, spec)?;
    ingest_states(blobs, prefix, batch.arity(), spec, states)
}

/// [`ingest_batch`] with exactly-once semantics: `batch_id` is checked
/// against — and on success recorded into — the manifest chain's
/// cumulative ID set. Replaying a committed ID returns
/// [`IngestOutcome::AlreadyApplied`] without writing a single blob.
pub fn ingest_batch_with_id(
    blobs: &dyn BlobStore,
    prefix: &str,
    batch: &Relation,
    spec: AggSpec,
    batch_id: u64,
) -> Result<IngestOutcome> {
    let states = state_cube(batch, spec)?;
    ingest_states_with_id(blobs, prefix, batch.arity(), spec, states, batch_id)
}

/// Publish pre-cubed states as a new delta layer — the entry point for a
/// driver that already cubed the batch (e.g. through the SP-Sketch
/// MapReduce path) and converted the results to states. At-least-once,
/// like [`ingest_batch`].
pub fn ingest_states(
    blobs: &dyn BlobStore,
    prefix: &str,
    d: usize,
    spec: AggSpec,
    states: StateCube,
) -> Result<DeltaWriteReport> {
    match ingest_states_inner(blobs, prefix, d, spec, states, None)? {
        IngestOutcome::Applied(report) => Ok(report),
        IngestOutcome::AlreadyApplied { .. } => Err(Error::Internal(
            "ID-less ingest produced a dedup outcome".to_string(),
        )),
    }
}

/// [`ingest_states`] with exactly-once semantics (see
/// [`ingest_batch_with_id`]).
pub fn ingest_states_with_id(
    blobs: &dyn BlobStore,
    prefix: &str,
    d: usize,
    spec: AggSpec,
    states: StateCube,
    batch_id: u64,
) -> Result<IngestOutcome> {
    ingest_states_inner(blobs, prefix, d, spec, states, Some(batch_id))
}

fn ingest_states_inner(
    blobs: &dyn BlobStore,
    prefix: &str,
    d: usize,
    spec: AggSpec,
    states: StateCube,
    batch_id: Option<u64>,
) -> Result<IngestOutcome> {
    let scan = scan_store(blobs, prefix)?;
    let current = current_state_manifest(&scan, prefix)?;
    if let Some(m) = &current {
        if m.d != d {
            return Err(Error::Config(format!(
                "delta batch has d={d} but the store under `{prefix}` has d={}",
                m.d
            )));
        }
        if m.spec != spec {
            return Err(Error::Config(format!(
                "delta batch aggregates with {spec:?} but the store under `{prefix}` was built with {:?}",
                m.spec
            )));
        }
        // The dedup check happens before any blob is touched: a replay is
        // pure reads, so it cannot tear anything however often it races.
        if let Some(id) = batch_id {
            if m.contains_batch(id) {
                return Ok(IngestOutcome::AlreadyApplied {
                    batch_id: id,
                    generation: m.generation,
                });
            }
        }
    }
    let (old_chain, mut batch_ids): (Vec<u64>, Vec<u64>) =
        current.map(|m| (m.layers, m.batch_ids)).unwrap_or_default();
    if let Some(id) = batch_id {
        // Insertion keeps the set strictly ascending; the dedup check
        // above already ruled out an exact duplicate.
        if let Err(pos) = batch_ids.binary_search(&id) {
            batch_ids.insert(pos, id);
        }
    }
    commit_layer(
        blobs,
        prefix,
        d,
        spec,
        states,
        old_chain.clone(),
        batch_ids,
        &old_chain,
    )
    .map(IngestOutcome::Applied)
}

/// When to fold delta layers back together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Compact when the live chain holds more than this many layers; a
    /// run folds the smallest layers (size-tiered) down to exactly this
    /// count. Must be at least 1.
    pub max_layers: usize,
}

impl Default for CompactionPolicy {
    fn default() -> CompactionPolicy {
        CompactionPolicy { max_layers: 4 }
    }
}

/// What one compaction run folded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactReport {
    /// The generation holding the merged layer.
    pub generation: u64,
    /// The layers that were folded away, ascending.
    pub folded: Vec<u64>,
    /// The live layer chain after the commit, ascending.
    pub layers: Vec<u64>,
    /// State segments written for the merged layer.
    pub segments: usize,
    /// Total bytes written, both manifest copies included.
    pub bytes: u64,
    /// Total rows (groups) across the merged layer's segments.
    pub rows: u64,
}

/// The background compactor: folds small delta generations together under
/// a size-tiered policy. Safe to run beside open readers — a compaction
/// is an ordinary chain commit, so the previous chain's blobs survive it
/// (see the module-level lifecycle) and the degraded read path of
/// [`crate::store::CubeStore`] is untouched.
pub struct Compactor {
    policy: CompactionPolicy,
    obs: ObsHandle,
}

impl Compactor {
    /// A compactor with the given policy and no observability attached.
    pub fn new(policy: CompactionPolicy) -> Compactor {
        Compactor {
            policy,
            obs: ObsHandle::default(),
        }
    }

    /// Attach an observability session (compaction counters + duration
    /// histogram).
    pub fn with_obs(mut self, obs: ObsHandle) -> Compactor {
        self.obs = obs;
        self
    }

    /// Compact `prefix` if its chain exceeds the policy: merge the
    /// smallest layers (by sealed byte size) into one new generation and
    /// commit the shortened chain. Returns `Ok(None)` when the store is
    /// empty or already within policy.
    pub fn run(&self, blobs: &dyn BlobStore, prefix: &str) -> Result<Option<CompactReport>> {
        if self.policy.max_layers == 0 {
            return Err(Error::Config(
                "compaction policy needs max_layers >= 1".to_string(),
            ));
        }
        let t0 = Stopwatch::start();
        let scan = scan_store(blobs, prefix)?;
        let Some(current) = current_state_manifest(&scan, prefix)? else {
            return Ok(None);
        };
        let chain = current.layers.clone();
        if chain.len() <= self.policy.max_layers {
            return Ok(None);
        }
        // Size-tiered victim selection: fold the smallest layers so the
        // big base is not rewritten for every little delta. Folding
        // `len - max + 1` layers brings the chain back to exactly `max`.
        let fold = chain.len() - self.policy.max_layers + 1;
        let mut sized = Vec::with_capacity(chain.len());
        for &g in &chain {
            sized.push((layer_manifest(&scan, g)?.total_bytes(), g));
        }
        sized.sort_unstable();
        let victims: BTreeSet<u64> = sized.iter().take(fold).map(|&(_, g)| g).collect();
        // Merge the victims' states per (cuboid, key), walking layers in
        // ascending generation order so the merge order — and with it
        // every non-commutative float rounding — is deterministic.
        let template = current.spec.init();
        let mut merged: BTreeMap<Mask, BTreeMap<Box<[Value]>, AggState>> = BTreeMap::new();
        for &g in &chain {
            if !victims.contains(&g) {
                continue;
            }
            let m = layer_manifest(&scan, g)?;
            for entry in &m.entries {
                let bytes = blobs.get(&entry.path)?;
                let seg = StateSegment::decode(&bytes)?;
                if seg.mask() != entry.mask || seg.d() != current.d {
                    return Err(Error::corrupt(
                        "state segment",
                        format!("layer {g} cuboid {}: segment/manifest mismatch", entry.mask),
                    ));
                }
                let slot = merged.entry(entry.mask).or_default();
                for (key, state) in seg.rows() {
                    merge_into(slot, key, state, &template)?;
                }
            }
        }
        let survivors: Vec<u64> = chain
            .iter()
            .copied()
            .filter(|g| !victims.contains(g))
            .collect();
        let states: StateCube = merged
            .into_iter()
            .map(|(mask, groups)| (mask, groups.into_iter().collect()))
            .collect();
        let report = commit_layer(
            blobs,
            prefix,
            current.d,
            current.spec,
            states,
            survivors,
            // Compaction folds layers, not history: the exactly-once ID
            // set rides along unchanged so replays stay deduplicated
            // across folds.
            current.batch_ids.clone(),
            &chain,
        )?;
        let folded: Vec<u64> = victims.into_iter().collect();
        self.obs.inc(names::STORE_COMPACT_RUN, &[]);
        self.obs
            .add(names::STORE_COMPACT_FOLDED, &[], folded.len() as u64);
        self.obs
            .hist_record(names::STORE_COMPACT_US, &[], t0.seconds() * 1e6);
        self.obs
            .gauge_set(names::STORE_LAYER_COUNT, &[], report.layers.len() as f64);
        Ok(Some(CompactReport {
            generation: report.generation,
            folded,
            layers: report.layers,
            segments: report.segments,
            bytes: report.bytes,
            rows: report.rows,
        }))
    }
}

/// One-shot compaction with a throwaway [`Compactor`].
pub fn compact(
    blobs: &dyn BlobStore,
    prefix: &str,
    policy: &CompactionPolicy,
) -> Result<Option<CompactReport>> {
    Compactor::new(policy.clone()).run(blobs, prefix)
}

/// Retry policy for an [`IngestSession`].
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Attempts per operation (1 = no retries).
    pub max_attempts: u32,
    /// Delay schedule between retries, in seconds.
    pub backoff: Backoff,
    /// Seed for deterministic retry jitter.
    pub retry_seed: u64,
}

impl Default for IngestConfig {
    fn default() -> IngestConfig {
        IngestConfig {
            max_attempts: 5,
            backoff: Backoff::Exponential {
                base_s: 0.0005,
                factor: 2.0,
            },
            retry_seed: 0,
        }
    }
}

impl IngestConfig {
    /// Reject nonsensical policies.
    pub fn validate(&self) -> Result<()> {
        if self.max_attempts == 0 {
            return Err(Error::Config(
                "ingest session needs at least one attempt".to_string(),
            ));
        }
        self.backoff.validate()
    }
}

/// What an [`IngestSession`] has done so far. Mirrored one-for-one by the
/// `store.ingest.*` obs counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Batches committed as new layers.
    pub applied: u64,
    /// Batches answered with a typed [`IngestOutcome::AlreadyApplied`].
    pub deduped: u64,
    /// Retries after a retryable failure (injected fault or I/O error),
    /// summed across ingest and compaction.
    pub retries: u64,
    /// Compaction runs that folded layers.
    pub compactions: u64,
}

/// The write-path sibling of [`crate::client::ResilientClient`]: wraps
/// delta ingest and compaction in bounded, deterministically jittered
/// [`Backoff`] retries. Combined with batch-ID dedup this turns a flaky
/// blob store into an exactly-once pipe — a crash or injected write fault
/// at any blob-op boundary, followed by a retry, converges to exactly one
/// committed layer: never zero (retries keep going until a commit or the
/// attempt budget runs out), never two (a replayed ID is a typed no-op).
///
/// Only [`Error::Injected`] and [`Error::Io`] are retried. Typed refusals
/// (`Config`, shape mismatches) and data-loss errors are returned
/// immediately: retrying a misconfigured ingest cannot fix it, and
/// corruption is the scrubber's job, not the writer's.
pub struct IngestSession {
    blobs: Arc<dyn BlobStore>,
    prefix: String,
    spec: AggSpec,
    config: IngestConfig,
    stats: Mutex<IngestStats>,
    obs: ObsHandle,
}

impl std::fmt::Debug for IngestSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestSession")
            .field("prefix", &self.prefix)
            .field("spec", &self.spec)
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl IngestSession {
    /// A session writing to `prefix` with the given retry policy.
    pub fn new(
        blobs: Arc<dyn BlobStore>,
        prefix: &str,
        spec: AggSpec,
        config: IngestConfig,
    ) -> Result<IngestSession> {
        config.validate()?;
        Ok(IngestSession {
            blobs,
            prefix: prefix.to_string(),
            spec,
            config,
            stats: Mutex::new(IngestStats::default()),
            obs: ObsHandle::default(),
        })
    }

    /// Attach an observability session (`store.ingest.*` counters).
    pub fn with_obs(mut self, obs: ObsHandle) -> IngestSession {
        self.obs = obs;
        self
    }

    /// Ingest `batch` exactly once, deriving its ID from the content
    /// (see [`batch_content_id`]).
    pub fn ingest(&self, batch: &Relation) -> Result<IngestOutcome> {
        self.ingest_with_id(batch, batch_content_id(batch))
    }

    /// Ingest `batch` exactly once under a caller-supplied ID, retrying
    /// retryable failures with backoff. On success the outcome is either
    /// a fresh commit or a typed duplicate.
    pub fn ingest_with_id(&self, batch: &Relation, batch_id: u64) -> Result<IngestOutcome> {
        let outcome = self.with_retries(|| {
            ingest_batch_with_id(
                self.blobs.as_ref(),
                &self.prefix,
                batch,
                self.spec,
                batch_id,
            )
        })?;
        let mut stats = lock_or_recover(&self.stats);
        match &outcome {
            IngestOutcome::Applied(_) => stats.applied += 1,
            IngestOutcome::AlreadyApplied { .. } => {
                stats.deduped += 1;
                drop(stats);
                self.obs.inc(names::STORE_INGEST_DEDUP, &[]);
            }
        }
        Ok(outcome)
    }

    /// Run one compaction pass under the session's retry policy.
    pub fn compact(&self, policy: &CompactionPolicy) -> Result<Option<CompactReport>> {
        let compactor = Compactor::new(policy.clone()).with_obs(self.obs.clone());
        let report = self.with_retries(|| compactor.run(self.blobs.as_ref(), &self.prefix))?;
        if report.is_some() {
            lock_or_recover(&self.stats).compactions += 1;
        }
        Ok(report)
    }

    /// A snapshot of the session's counters.
    pub fn stats(&self) -> IngestStats {
        *lock_or_recover(&self.stats)
    }

    /// Run `op` up to the configured attempt budget, retrying only
    /// retryable errors and sleeping out the jittered backoff between
    /// attempts (skipped under a mock obs clock so chaos tests stay
    /// instant).
    fn with_retries<T>(&self, mut op: impl FnMut() -> Result<T>) -> Result<T> {
        let mut last: Option<Error> = None;
        for attempt in 1..=self.config.max_attempts {
            if attempt > 1 {
                lock_or_recover(&self.stats).retries += 1;
                self.obs.inc(names::STORE_INGEST_RETRY, &[]);
                self.backoff_sleep(attempt - 1);
            }
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if is_retryable(&e) => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| Error::Internal("retry loop made no attempt".to_string())))
    }

    /// Sleep out the jittered backoff before retry `failed_attempt + 1`.
    fn backoff_sleep(&self, failed_attempt: u32) {
        if self.obs.is_mock() {
            return;
        }
        let delay_s = self
            .config
            .backoff
            .delay_after_jittered(failed_attempt, self.config.retry_seed);
        if delay_s > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(delay_s));
        }
    }
}

/// Which failures a retry can plausibly outlive: injected write faults
/// (transient by construction) and real I/O errors. Everything else is
/// either a caller bug (`Config`) or data loss (the scrubber's domain).
fn is_retryable(e: &Error) -> bool {
    matches!(e, Error::Injected(_) | Error::Io(_, _))
}

/// Merge the cuboid `mask` across `layers` (ascending chain order) and
/// finalize: the layered read behind [`crate::store::CubeStore`]. Rows
/// come back sorted by key. Errors are typed; data-loss errors (missing
/// or corrupt layer blobs) let the store's degraded recompute take over.
pub fn merged_cuboid(
    blobs: &dyn BlobStore,
    layers: &[Manifest],
    d: usize,
    mask: Mask,
    spec: AggSpec,
) -> Result<Vec<(Box<[Value]>, AggOutput)>> {
    merged_cuboid_obs(blobs, layers, d, mask, spec, &ObsHandle::default())
}

/// [`merged_cuboid`] with flight-recorder instrumentation: when a
/// profiled query's context is scoped on this thread, each layer's blob
/// fetch, decode, and merge are timed as separate flight spans (labeled
/// with the layer generation) and charged to the query's phase totals.
pub fn merged_cuboid_obs(
    blobs: &dyn BlobStore,
    layers: &[Manifest],
    d: usize,
    mask: Mask,
    spec: AggSpec,
    obs: &ObsHandle,
) -> Result<Vec<(Box<[Value]>, AggOutput)>> {
    let template = spec.init();
    let mut acc: BTreeMap<Box<[Value]>, AggState> = BTreeMap::new();
    for m in layers {
        let Some(entry) = m.entry(mask) else {
            continue;
        };
        let layer = Some((FlightLabel::Layer, m.generation));
        let bytes = flight_timed(obs, FlightName::BlobIo, layer, || blobs.get(&entry.path))?;
        let seg = flight_timed(obs, FlightName::Decode, layer, || {
            StateSegment::decode(&bytes)
        })?;
        if seg.mask() != mask || seg.d() != d {
            return Err(Error::corrupt(
                "state segment",
                format!(
                    "layer {} cuboid {mask}: segment/manifest mismatch",
                    m.generation
                ),
            ));
        }
        flight_timed(obs, FlightName::Merge, layer, || {
            for (key, state) in seg.rows() {
                merge_into(&mut acc, key, state, &template)?;
            }
            Ok(())
        })?;
    }
    Ok(acc
        .into_iter()
        .map(|(key, state)| (key, state.finalize()))
        .collect())
}

/// Merge `state` into `acc` under `key`, refusing (typed — merge itself
/// would panic, and this runs on the serving path) any state whose
/// variant does not match the store's aggregate spec. Crate-visible: the
/// scrubber's rollup repair merges states the same way.
pub(crate) fn merge_into(
    acc: &mut BTreeMap<Box<[Value]>, AggState>,
    key: &[Value],
    state: &AggState,
    template: &AggState,
) -> Result<()> {
    if std::mem::discriminant(state) != std::mem::discriminant(template) {
        return Err(Error::corrupt(
            "state segment",
            "aggregate state variant does not match the store's spec",
        ));
    }
    match acc.get_mut(key) {
        Some(existing) => existing.merge(state),
        None => {
            acc.insert(Box::from(key), state.clone());
        }
    }
    Ok(())
}

/// The chosen manifest of an incremental store, `Ok(None)` for a prefix
/// with no committed generation at all (fresh, or only aborted commits —
/// both start a new chain), and a typed error when the prefix holds a
/// classic full-rebuild store. A prefix that was committed once (its root
/// pointer exists) but has no fully sealed generation left fails with the
/// same `Corrupt` as [`crate::store::CubeStore::open`]: starting a new
/// chain there would serve the batch alone and orphan every older blob.
fn current_state_manifest(scan: &ScanReport, prefix: &str) -> Result<Option<Manifest>> {
    let Some(manifest) = scan.chosen_manifest() else {
        if scan.root_present {
            return Err(Error::corrupt(
                "store",
                format!("no fully sealed generation under `{prefix}`"),
            ));
        }
        return Ok(None);
    };
    if manifest.kind != StoreKind::State {
        return Err(Error::Config(format!(
            "`{prefix}` holds a full-rebuild store; delta ingest and compaction need an incremental store"
        )));
    }
    Ok(Some(manifest.clone()))
}

/// The sealed manifest of chain member `g`.
fn layer_manifest(scan: &ScanReport, g: u64) -> Result<&Manifest> {
    scan.sealed_manifest(g)
        .ok_or_else(|| Error::corrupt("store", format!("chain layer {g} is not sealed")))
}

/// Commit `states` as a new generation through `commit_generation`,
/// layered on top of `kept`, the chain members that stay live. `old_chain`
/// is the chain the previous root named: the GC keeps every generation
/// either chain names, so readers opened against the previous chain keep
/// answering through this commit — the same one-rewrite guarantee
/// `write_store` gives — and aborted generations are swept at once.
/// `batch_ids` is the cumulative exactly-once ID set the new manifest
/// will carry (strictly ascending).
#[expect(
    clippy::too_many_arguments,
    reason = "the commit protocol's inputs, each consumed once; a struct would only be unpacked here"
)]
fn commit_layer(
    blobs: &dyn BlobStore,
    prefix: &str,
    d: usize,
    spec: AggSpec,
    states: StateCube,
    kept: Vec<u64>,
    batch_ids: Vec<u64>,
    old_chain: &[u64],
) -> Result<DeltaWriteReport> {
    let listing = blobs.list(prefix)?;
    let generation = next_generation(prefix, &listing);
    let mut layers = kept;
    layers.push(generation);
    let live: BTreeSet<u64> = layers.iter().chain(old_chain).copied().collect();
    let header = Manifest {
        d,
        generation,
        spec,
        // Pinned: per-batch iceberg pruning would break layered
        // bit-exactness (see the module docs).
        min_support: 1,
        kind: StoreKind::State,
        layers: layers.clone(),
        batch_ids,
        entries: Vec::new(),
    };
    // BTreeMap iteration: segments land in ascending mask order, so the
    // blob sequence and manifest are byte-identical across runs.
    let segments = states
        .into_iter()
        .filter(|(_, rows)| !rows.is_empty())
        .map(|(mask, rows)| {
            let segment = StateSegment::build(d, mask, rows)?;
            let path = state_segment_path(prefix, generation, d, mask);
            Ok((mask, segment.len(), path, segment.encode()?))
        });
    let report = commit_generation(blobs, prefix, &listing, header, segments, |g| {
        live.contains(&g)
    })?;
    Ok(DeltaWriteReport {
        generation,
        layers,
        segments: report.segments,
        bytes: report.bytes,
        rows: report.rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use spcube_common::Schema;
    use spcube_cubealg::{naive_cube, CubeQuery, CubeRead};
    use spcube_mapreduce::Dfs;

    use crate::manifest::{gen_manifest_path, manifest_path};
    use crate::store::{write_store, CubeStore};

    /// 12 rows, 3 dims, integer measures (exact in f64 whatever the merge
    /// order).
    fn sample_rel() -> Relation {
        let mut r = Relation::empty(Schema::synthetic(3));
        for i in 0..12i64 {
            r.push_row(
                vec![Value::Int(i % 3), Value::Int(i % 2), Value::Int(i % 4)],
                (i % 7) as f64,
            );
        }
        r
    }

    fn split(rel: &Relation, at: &[usize]) -> Vec<Relation> {
        let mut parts = Vec::new();
        let mut start = 0;
        for &end in at.iter().chain(std::iter::once(&rel.len())) {
            let mut part = Relation::empty(rel.schema().clone());
            for t in &rel.tuples()[start..end] {
                part.push(t.clone()).expect("push");
            }
            parts.push(part);
            start = end;
        }
        parts
    }

    fn assert_equals_rebuild(dfs: &Arc<Dfs>, prefix: &str, full: &Relation, spec: AggSpec) {
        let store =
            CubeStore::open(Arc::clone(dfs) as Arc<dyn BlobStore>, prefix).expect("open store");
        let cube = naive_cube(full, spec);
        let q = CubeQuery::new(&cube, full.arity());
        for mask in Mask::full(full.arity()).subsets() {
            let rows = store.cuboid_rows(mask).expect("cuboid rows");
            assert_eq!(rows.len(), q.cuboid_len(mask), "cuboid {mask}");
            for (g, v) in &rows {
                assert_eq!(
                    q.group(mask, &g.key),
                    Some(v),
                    "cuboid {mask} key {:?}",
                    g.key
                );
            }
        }
        assert_eq!(store.stats().degraded_recomputes, 0);
    }

    #[test]
    fn state_segment_round_trips_and_rejects_corruption() {
        let states = state_cube(&sample_rel(), AggSpec::Avg).expect("state cube");
        let rows = states.get(&Mask(0b101)).expect("cuboid present").clone();
        let seg = StateSegment::build(3, Mask(0b101), rows).expect("build");
        let bytes = seg.encode().expect("encode");
        let back = StateSegment::decode(&bytes).expect("decode");
        assert_eq!(back, seg);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                StateSegment::decode(&bad).is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn state_segment_build_rejects_bad_rows() {
        let wrong_arity = vec![(vec![Value::Int(1)].into_boxed_slice(), AggState::Count(1))];
        assert!(StateSegment::build(3, Mask(0b011), wrong_arity).is_err());
        let dup = vec![
            (vec![Value::Int(1)].into_boxed_slice(), AggState::Count(1)),
            (vec![Value::Int(1)].into_boxed_slice(), AggState::Count(2)),
        ];
        assert!(StateSegment::build(3, Mask(0b001), dup).is_err());
    }

    #[test]
    fn state_cube_counts_match_the_naive_cube() {
        let rel = sample_rel();
        let states = state_cube(&rel, AggSpec::Count).expect("state cube");
        let cube = naive_cube(&rel, AggSpec::Count);
        let q = CubeQuery::new(&cube, rel.arity());
        assert_eq!(states.len(), 8, "all 2^3 cuboids non-empty");
        for (mask, rows) in &states {
            assert_eq!(rows.len(), q.cuboid_len(*mask));
            for (key, state) in rows {
                assert_eq!(
                    Some(&state.clone().finalize()),
                    q.group(*mask, key),
                    "cuboid {mask}"
                );
            }
        }
    }

    #[test]
    fn first_ingest_creates_the_base_layer() {
        let dfs = Arc::new(Dfs::new());
        let rel = sample_rel();
        let report = ingest_batch(dfs.as_ref(), "inc", &rel, AggSpec::Sum).expect("ingest");
        assert_eq!(report.generation, 1);
        assert_eq!(report.layers, vec![1]);
        assert!(report.segments > 0);
        let store = CubeStore::open(Arc::clone(&dfs) as Arc<dyn BlobStore>, "inc").expect("open");
        assert_eq!(store.layer_count(), 1);
        assert_eq!(store.manifest().min_support, 1);
        assert_eq!(store.manifest().kind, StoreKind::State);
        assert_equals_rebuild(&dfs, "inc", &rel, AggSpec::Sum);
    }

    #[test]
    fn layered_reads_equal_a_monolithic_rebuild() {
        // AVG is the aggregate a lossy layering would break first: its
        // output drops the count, so only true state merging can pass.
        let dfs = Arc::new(Dfs::new());
        let rel = sample_rel();
        for batch in split(&rel, &[4, 7, 9]) {
            ingest_batch(dfs.as_ref(), "inc", &batch, AggSpec::Avg).expect("ingest");
        }
        let store = CubeStore::open(Arc::clone(&dfs) as Arc<dyn BlobStore>, "inc").expect("open");
        assert_eq!(store.layers(), vec![1, 2, 3, 4]);
        assert_equals_rebuild(&dfs, "inc", &rel, AggSpec::Avg);
    }

    #[test]
    fn compaction_folds_the_smallest_layers_and_keeps_answers() {
        let dfs = Arc::new(Dfs::new());
        let rel = sample_rel();
        for batch in split(&rel, &[6, 8, 10, 11]) {
            ingest_batch(dfs.as_ref(), "inc", &batch, AggSpec::Avg).expect("ingest");
        }
        let policy = CompactionPolicy { max_layers: 2 };
        let report = compact(dfs.as_ref(), "inc", &policy)
            .expect("compact")
            .expect("store exceeded policy");
        assert_eq!(report.generation, 6);
        assert_eq!(report.folded.len(), 4);
        assert_eq!(report.layers.len(), 2);
        assert_eq!(*report.layers.last().expect("chain tail"), 6);
        let store = CubeStore::open(Arc::clone(&dfs) as Arc<dyn BlobStore>, "inc").expect("open");
        assert_eq!(store.layer_count(), 2);
        assert_equals_rebuild(&dfs, "inc", &rel, AggSpec::Avg);
        // Within policy now: another run is a no-op.
        assert!(compact(dfs.as_ref(), "inc", &policy)
            .expect("compact again")
            .is_none());
    }

    #[test]
    fn compaction_victims_survive_one_commit_then_are_collected() {
        let dfs = Arc::new(Dfs::new());
        let rel = sample_rel();
        let parts = split(&rel, &[3, 6, 9]);
        let (last, first) = parts.split_last().expect("parts");
        for batch in first {
            ingest_batch(dfs.as_ref(), "inc", batch, AggSpec::Sum).expect("ingest");
        }
        // A reader opened against the pre-compaction chain…
        let pinned =
            CubeStore::open(Arc::clone(&dfs) as Arc<dyn BlobStore>, "inc").expect("open pinned");
        assert_eq!(pinned.layers(), vec![1, 2, 3]);
        compact(dfs.as_ref(), "inc", &CompactionPolicy { max_layers: 1 })
            .expect("compact")
            .expect("folded");
        // …keeps answering: victims outlive exactly one commit.
        let pre: Relation = {
            let mut r = Relation::empty(rel.schema().clone());
            for t in &rel.tuples()[..9] {
                r.push(t.clone()).expect("push");
            }
            r
        };
        let cube = naive_cube(&pre, AggSpec::Sum);
        let q = CubeQuery::new(&cube, 3);
        for mask in Mask::full(3).subsets() {
            let rows = pinned.cuboid_rows(mask).expect("pinned rows");
            assert_eq!(rows.len(), q.cuboid_len(mask));
        }
        // The next commit sweeps them.
        ingest_batch(dfs.as_ref(), "inc", last, AggSpec::Sum).expect("ingest last");
        let listed = dfs.list_prefix("inc");
        for g in 1..=3u64 {
            assert!(
                !listed
                    .iter()
                    .any(|(p, _)| p.starts_with(&format!("inc/gen-0000000{g}/"))),
                "victim generation {g} should be collected"
            );
        }
        assert_equals_rebuild(&dfs, "inc", &rel, AggSpec::Sum);
    }

    #[test]
    fn full_rebuild_and_delta_ingest_refuse_each_other() {
        let dfs = Arc::new(Dfs::new());
        let rel = sample_rel();
        // Output store first: ingest must refuse it.
        let cube = naive_cube(&rel, AggSpec::Sum);
        write_store(dfs.as_ref(), "out", &cube, 3, AggSpec::Sum, 1).expect("write");
        let err = ingest_batch(dfs.as_ref(), "out", &rel, AggSpec::Sum).expect_err("refuse");
        assert!(matches!(err, Error::Config(_)), "got {err}");
        // Layered store first: write_store must refuse it.
        ingest_batch(dfs.as_ref(), "inc", &rel, AggSpec::Sum).expect("ingest");
        let err = write_store(dfs.as_ref(), "inc", &cube, 3, AggSpec::Sum, 1).expect_err("refuse");
        assert!(matches!(err, Error::Config(_)), "got {err}");
    }

    /// Every blob under `prefix` with its bytes.
    fn snapshot(dfs: &Dfs, prefix: &str) -> Vec<(String, Vec<u8>)> {
        dfs.list_prefix(prefix)
            .into_iter()
            .map(|(p, _)| {
                let bytes = dfs.get(&p).expect("listed blob");
                (p, bytes)
            })
            .collect()
    }

    #[test]
    fn a_committed_store_whose_seals_fail_refuses_ingest_and_compaction() {
        // A manifest with a wrong trailer is what a blob sealed by an older
        // build (or rotted in place) looks like to this one.
        let dfs = Dfs::new();
        for batch in split(&sample_rel(), &[6]) {
            ingest_batch(&dfs, "inc", &batch, AggSpec::Sum).expect("ingest");
        }
        for path in [
            manifest_path("inc"),
            gen_manifest_path("inc", 1),
            gen_manifest_path("inc", 2),
        ] {
            let mut bytes = dfs.get(&path).expect("manifest");
            *bytes.last_mut().expect("sealed manifest") ^= 0x01;
            dfs.put(&path, bytes);
        }
        let before = snapshot(&dfs, "inc");

        let no_chain = |err: Error| match err {
            Error::Corrupt { detail, .. } => {
                assert!(detail.contains("no fully sealed generation"), "{detail}")
            }
            other => panic!("want a typed Corrupt, got {other}"),
        };
        no_chain(ingest_batch(&dfs, "inc", &sample_rel(), AggSpec::Sum).expect_err("ingest"));
        no_chain(
            compact(&dfs, "inc", &CompactionPolicy { max_layers: 1 }).expect_err("compaction"),
        );
        assert!(
            snapshot(&dfs, "inc") == before,
            "a refused write touched the store"
        );
    }

    #[test]
    fn a_torn_first_commit_still_starts_a_new_chain() {
        // A crash mid-seal on a medium without atomic replace leaves an
        // unreadable seal and no root: nothing was ever committed.
        let dfs = Arc::new(Dfs::new());
        dfs.put(&gen_manifest_path("inc", 1), b"CMAN1 torn".to_vec());
        let rel = sample_rel();
        let report = ingest_batch(dfs.as_ref(), "inc", &rel, AggSpec::Sum).expect("ingest");
        assert_eq!(report.layers, vec![2]);
        assert_equals_rebuild(&dfs, "inc", &rel, AggSpec::Sum);
    }

    #[test]
    fn mismatched_shape_or_spec_is_refused() {
        let dfs = Arc::new(Dfs::new());
        let rel = sample_rel();
        ingest_batch(dfs.as_ref(), "inc", &rel, AggSpec::Sum).expect("ingest");
        let err = ingest_batch(dfs.as_ref(), "inc", &rel, AggSpec::Count).expect_err("spec");
        assert!(matches!(err, Error::Config(_)), "got {err}");
        let mut narrow = Relation::empty(Schema::synthetic(2));
        narrow.push_row(vec![Value::Int(1), Value::Int(2)], 1.0);
        let err = ingest_batch(dfs.as_ref(), "inc", &narrow, AggSpec::Sum).expect_err("shape");
        assert!(matches!(err, Error::Config(_)), "got {err}");
    }

    #[test]
    fn empty_batch_still_commits_a_layer() {
        let dfs = Arc::new(Dfs::new());
        let rel = sample_rel();
        ingest_batch(dfs.as_ref(), "inc", &rel, AggSpec::Sum).expect("ingest");
        let empty = Relation::empty(rel.schema().clone());
        let report = ingest_batch(dfs.as_ref(), "inc", &empty, AggSpec::Sum).expect("empty");
        assert_eq!(report.generation, 2);
        assert_eq!(report.segments, 0);
        assert_equals_rebuild(&dfs, "inc", &rel, AggSpec::Sum);
    }

    #[test]
    fn compactor_policy_zero_is_a_config_error() {
        let dfs = Dfs::new();
        let err = compact(&dfs, "inc", &CompactionPolicy { max_layers: 0 }).expect_err("zero");
        assert!(matches!(err, Error::Config(_)), "got {err}");
    }

    #[test]
    fn replaying_a_batch_id_is_a_typed_no_op() {
        let dfs = Arc::new(Dfs::new());
        let rel = sample_rel();
        let first = ingest_batch_with_id(dfs.as_ref(), "inc", &rel, AggSpec::Sum, 77)
            .expect("first ingest");
        let report = first.report().expect("applied").clone();
        assert_eq!(report.generation, 1);
        let blobs_before = dfs.list_prefix("inc");
        let replay = ingest_batch_with_id(dfs.as_ref(), "inc", &rel, AggSpec::Sum, 77)
            .expect("replay ingest");
        assert_eq!(
            replay,
            IngestOutcome::AlreadyApplied {
                batch_id: 77,
                generation: 1
            }
        );
        assert!(replay.is_duplicate());
        // A replay is pure reads: not one blob changed.
        assert_eq!(dfs.list_prefix("inc"), blobs_before);
        assert_equals_rebuild(&dfs, "inc", &rel, AggSpec::Sum);
    }

    #[test]
    fn batch_ids_survive_compaction_and_legacy_ingest() {
        let dfs = Arc::new(Dfs::new());
        let rel = sample_rel();
        let parts = split(&rel, &[3, 6, 9]);
        for (i, batch) in parts.iter().enumerate() {
            let out = ingest_batch_with_id(dfs.as_ref(), "inc", batch, AggSpec::Avg, i as u64 + 1)
                .expect("ingest");
            assert!(!out.is_duplicate(), "batch {i} must be fresh");
        }
        compact(dfs.as_ref(), "inc", &CompactionPolicy { max_layers: 1 })
            .expect("compact")
            .expect("folded");
        // The fold carried the ID set: replays still dedup.
        let replay =
            ingest_batch_with_id(dfs.as_ref(), "inc", &parts[1], AggSpec::Avg, 2).expect("replay");
        assert!(replay.is_duplicate(), "compaction dropped the ID set");
        // A legacy ID-less ingest carries the set forward untouched.
        let empty = Relation::empty(rel.schema().clone());
        ingest_batch(dfs.as_ref(), "inc", &empty, AggSpec::Avg).expect("legacy ingest");
        let replay = ingest_batch_with_id(dfs.as_ref(), "inc", &parts[0], AggSpec::Avg, 1)
            .expect("replay after legacy");
        assert!(replay.is_duplicate(), "legacy ingest dropped the ID set");
        assert_equals_rebuild(&dfs, "inc", &rel, AggSpec::Avg);
    }

    #[test]
    fn content_ids_are_stable_and_content_sensitive() {
        let rel = sample_rel();
        assert_eq!(batch_content_id(&rel), batch_content_id(&rel.clone()));
        let mut other = Relation::empty(rel.schema().clone());
        for t in rel.tuples() {
            let mut t = t.clone();
            t.measure += 1.0;
            other.push(t).expect("push");
        }
        assert_ne!(batch_content_id(&rel), batch_content_id(&other));
        let empty = Relation::empty(rel.schema().clone());
        assert_ne!(batch_content_id(&rel), batch_content_id(&empty));
    }

    #[test]
    fn ingest_session_retries_through_write_faults() {
        use crate::faults::{FaultSchedule, FaultyBlobs};
        let obs = spcube_obs::ObsHandle::mock();
        let faulty: Arc<dyn BlobStore> = Arc::new(
            FaultyBlobs::new(
                Arc::new(Dfs::new()),
                FaultSchedule {
                    seed: 42,
                    put_transient_fail_prob: 0.15,
                    torn_write_prob: 0.05,
                    ..FaultSchedule::default()
                },
            )
            .with_obs(obs.clone()),
        );
        let session = IngestSession::new(
            Arc::clone(&faulty),
            "inc",
            AggSpec::Avg,
            IngestConfig {
                max_attempts: 60,
                ..IngestConfig::default()
            },
        )
        .expect("session")
        .with_obs(obs.clone());
        let rel = sample_rel();
        for batch in split(&rel, &[4, 8]) {
            // Either outcome is a durable commit: `AlreadyApplied` here
            // means an earlier attempt sealed the layer and only the
            // root-flip was injected — torn-root recovery still chooses
            // it, so the retry correctly refuses to apply it again.
            session.ingest(&batch).expect("ingest through faults");
        }
        let stats = session.stats();
        assert_eq!(stats.applied + stats.deduped, 3);
        assert!(stats.retries > 0, "schedule never fired — weak test");
        assert_eq!(
            obs.counter_value(names::STORE_INGEST_RETRY, &[]),
            Some(stats.retries)
        );
        // Convergence: however many attempts it took, the store holds
        // each batch exactly once. Read through the *clean* inner store
        // so read faults (none here) cannot confound the check.
        let store = CubeStore::open(Arc::clone(&faulty), "inc").expect("open");
        assert_eq!(store.layer_count(), 3);
        let cube = naive_cube(&rel, AggSpec::Avg);
        let q = CubeQuery::new(&cube, 3);
        for mask in Mask::full(3).subsets() {
            let rows = store.cuboid_rows(mask).expect("rows");
            assert_eq!(rows.len(), q.cuboid_len(mask), "cuboid {mask}");
            for (g, v) in &rows {
                assert_eq!(q.group(mask, &g.key), Some(v), "cuboid {mask}");
            }
        }
    }

    #[test]
    fn ingest_session_counts_dedups_and_compactions() {
        let obs = spcube_obs::ObsHandle::mock();
        let dfs = Arc::new(Dfs::new());
        let session = IngestSession::new(
            Arc::clone(&dfs) as Arc<dyn BlobStore>,
            "inc",
            AggSpec::Sum,
            IngestConfig::default(),
        )
        .expect("session")
        .with_obs(obs.clone());
        let rel = sample_rel();
        for batch in split(&rel, &[4, 8]) {
            session.ingest(&batch).expect("ingest");
        }
        // Same content, same derived ID: a dedup, not a fourth layer.
        let replay = {
            let parts = split(&rel, &[4, 8]);
            session.ingest(&parts[0]).expect("replay")
        };
        assert!(replay.is_duplicate());
        session
            .compact(&CompactionPolicy { max_layers: 1 })
            .expect("compact")
            .expect("folded");
        let stats = session.stats();
        assert_eq!(stats.applied, 3);
        assert_eq!(stats.deduped, 1);
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.retries, 0);
        assert_eq!(
            obs.counter_value(names::STORE_INGEST_DEDUP, &[]),
            Some(stats.deduped)
        );
        assert_equals_rebuild(&dfs, "inc", &rel, AggSpec::Sum);
    }

    #[test]
    fn ingest_config_zero_attempts_is_a_config_error() {
        let err = IngestSession::new(
            Arc::new(Dfs::new()),
            "inc",
            AggSpec::Sum,
            IngestConfig {
                max_attempts: 0,
                ..IngestConfig::default()
            },
        )
        .expect_err("zero attempts");
        assert!(matches!(err, Error::Config(_)), "got {err}");
    }
}

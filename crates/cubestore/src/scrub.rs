//! The background integrity scrubber: proactive bit-rot detection and
//! in-place repair for a committed store.
//!
//! Every blob in this crate carries a trailing XXH64 checksum, but until
//! a query touches a segment nothing ever re-verifies it — bit-rot on a
//! cold cuboid is discovered at the worst possible time, on the serving
//! path. A [`Scrubber`] closes that gap: it walks the **live generation
//! chain** (the chosen root manifest and, for layered state stores, every
//! chain member), re-reads every named blob, and re-verifies checksums
//! and structural invariants — magic, declared shape versus the manifest
//! entry, row counts, byte sizes, sorted keys and zone maps (all enforced
//! by the decoders).
//!
//! For each corrupt blob a repairing scrubber (the default; a
//! [`ScrubConfig::read_only`] pass only reports):
//!
//! 1. **Quarantines** — copies the corrupt bytes to
//!    [`quarantine_path`](crate::manifest::quarantine_path) for
//!    post-mortem. A *copy*, never a move: deleting a live blob would
//!    unseal its generation and turn localized rot into a lost chain.
//! 2. **Repairs in place** — rewrites the blob from redundant
//!    information, reusing the store's existing degraded-path machinery:
//!    * *Output* segments are recomputed BUC-style from the recovery
//!      relation ([`recompute_cuboid`], the same recompute the store's
//!      degraded read path serves from) — available when the caller
//!      attached one via [`Scrubber::with_recovery`].
//!    * *State* segments are **rolled up** from the same layer's
//!      full-mask segment: the groups of cuboid `m` are exactly the
//!      full-mask groups merged under their projection onto `m`, and the
//!      merge laws of [`spcube_agg`] make that reconstruction exact. The
//!      full-mask segment itself has no finer source and is unrepairable
//!      (quarantine + reopen-with-recovery is the remaining path).
//!
//!    A repair must reproduce the manifest-recorded byte size — the seal
//!    judges completeness by listed sizes — so a rewrite that would
//!    change the size is refused and counted unrepairable instead.
//!
//! The scrubber is the only component that rewrites a corrupt segment
//! in place: a [`crate::store::CubeStore`] degrades around the damage
//! and the serving client sheds load, but neither writes. It is
//! read-only apart from quarantine copies and repairs, both of which are
//! idempotent; it can run beside open readers and the compactor.
//! Corruption *outside* the live chain (a bit-flipped seal of an
//! unchosen generation, aborted-commit debris) is the recovery scan's
//! domain: [`crate::store::CubeStore::open`] quarantines orphans and
//! repairs torn roots.
// Codec and output path: no silently narrowing cast, no untyped error,
// no hash order in reported output (DESIGN.md §8).
#![warn(clippy::cast_possible_truncation, clippy::disallowed_types)]

use std::collections::BTreeMap;

use spcube_agg::AggState;
use spcube_common::{Error, Mask, Relation, Result, Value};
use spcube_obs::{names, ObsHandle, Stopwatch};

use crate::blob::BlobStore;
use crate::delta::{merge_into, StateSegment};
use crate::manifest::{manifest_path, quarantine_path, Manifest, ManifestEntry, StoreKind};
use crate::recover::{recompute_cuboid, scan_store};
use crate::segment::Segment;

/// What a scrub pass is allowed to do about corruption it finds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubConfig {
    /// Copy corrupt bytes aside to the quarantine directory and rewrite
    /// corrupt blobs in place from redundant information; `false` is a
    /// detect-only pass.
    pub repair: bool,
}

impl Default for ScrubConfig {
    fn default() -> ScrubConfig {
        ScrubConfig { repair: true }
    }
}

impl ScrubConfig {
    /// A detect-only pass: report findings, touch nothing. What
    /// `inspect -- scrub` runs.
    pub fn read_only() -> ScrubConfig {
        ScrubConfig { repair: false }
    }
}

/// One corrupt blob the scrubber found, and what became of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubFinding {
    /// The corrupt blob.
    pub path: String,
    /// The chain layer (generation) the blob belongs to.
    pub generation: u64,
    /// The cuboid, for segment blobs; `None` for manifests.
    pub mask: Option<Mask>,
    /// What the verification tripped on.
    pub what: String,
    /// Whether the corrupt bytes were copied to quarantine.
    pub quarantined: bool,
    /// Whether the blob was rewritten in place.
    pub repaired: bool,
}

/// What one scrub pass found and did. Mirrored one-for-one by the
/// `store.scrub.*` obs counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScrubReport {
    /// The chosen generation whose chain was walked; `None` for a store
    /// with no committed generation (nothing to scrub).
    pub generation: Option<u64>,
    /// Segment blobs re-verified.
    pub segments_checked: u64,
    /// Manifest blobs re-verified (root + one seal per chain layer).
    pub manifests_checked: u64,
    /// Blobs that passed every check.
    pub clean: u64,
    /// Blobs that failed verification.
    pub corrupt: u64,
    /// Corrupt blobs copied to quarantine.
    pub quarantined: u64,
    /// Corrupt blobs rewritten in place.
    pub repaired: u64,
    /// Corrupt blobs with no repair source (full-mask state segments,
    /// output segments without a recovery relation, size-changing
    /// rewrites).
    pub unrepairable: u64,
    /// Every corrupt blob, in walk order.
    pub findings: Vec<ScrubFinding>,
}

/// The scrubber: walks the live chain of a store prefix and verifies,
/// quarantines, and repairs (see the module docs).
pub struct Scrubber {
    config: ScrubConfig,
    recovery: Option<Relation>,
    obs: ObsHandle,
}

impl Scrubber {
    /// A scrubber with the given powers and no repair relation attached.
    pub fn new(config: ScrubConfig) -> Scrubber {
        Scrubber {
            config,
            recovery: None,
            obs: ObsHandle::default(),
        }
    }

    /// Attach the raw relation output-store repairs recompute from.
    pub fn with_recovery(mut self, rel: Relation) -> Scrubber {
        self.recovery = Some(rel);
        self
    }

    /// Attach an observability session (`store.scrub.*` counters).
    pub fn with_obs(mut self, obs: ObsHandle) -> Scrubber {
        self.obs = obs;
        self
    }

    /// Scrub the store under `prefix`: walk the live chain, verify every
    /// blob, and quarantine/repair per the config. Errors only when the
    /// store cannot be walked at all (listing failure, no readable
    /// chain manifest) — a corrupt blob is a *finding*, not an error.
    pub fn run(&self, blobs: &dyn BlobStore, prefix: &str) -> Result<ScrubReport> {
        let t0 = Stopwatch::start();
        let scan = scan_store(blobs, prefix)?;
        let mut report = ScrubReport::default();
        let Some(chain_manifest) = scan.chosen_manifest() else {
            self.emit_run(&report, t0);
            return Ok(report);
        };
        let chosen = chain_manifest.generation;
        report.generation = Some(chosen);

        // Root commit pointer: must decode and name the chosen chain.
        // Repair = rewrite from the chosen seal (idempotent; the same
        // repair `CubeStore::open` applies to a torn root).
        self.check_root(blobs, prefix, chain_manifest, &mut report);

        // The layers to walk: the chain for a state store, the single
        // chosen generation for an output store.
        let chain: Vec<u64> = match chain_manifest.kind {
            StoreKind::State => chain_manifest.layers.clone(),
            StoreKind::Output => vec![chosen],
        };
        for g in chain {
            let Some(layer) = scan.sealed_manifest(g) else {
                // A chosen chain only names sealed layers; reaching this
                // means the store changed under us mid-walk. Typed, not
                // a panic: the next pass sees the new chain.
                return Err(Error::corrupt(
                    "store",
                    format!("chain layer {g} vanished during the scrub"),
                ));
            };
            report.manifests_checked += 1;
            report.clean += 1;
            for entry in &layer.entries {
                self.check_segment(blobs, prefix, layer, entry, &mut report);
            }
        }
        self.emit_run(&report, t0);
        Ok(report)
    }

    /// Verify the root commit pointer against the chosen seal.
    fn check_root(
        &self,
        blobs: &dyn BlobStore,
        prefix: &str,
        chain_manifest: &Manifest,
        report: &mut ScrubReport,
    ) {
        let chosen = chain_manifest.generation;
        report.manifests_checked += 1;
        let root = manifest_path(prefix);
        let verdict = blobs.get(&root).and_then(|bytes| {
            let m = Manifest::decode(&bytes)?;
            if m.generation != chosen {
                return Err(Error::corrupt(
                    "manifest",
                    format!("root names generation {}, chosen is {chosen}", m.generation),
                ));
            }
            Ok(bytes)
        });
        match verdict {
            Ok(_) => report.clean += 1,
            Err(e) => {
                let mut finding = self.found(blobs, prefix, &root, chosen, None, &e, report);
                if self.config.repair {
                    // The seal is the root's redundant copy.
                    if let Ok(encoded) = chain_manifest.encode() {
                        if blobs.put(&root, encoded).is_ok() {
                            finding.repaired = true;
                            report.repaired += 1;
                            self.obs.inc(names::STORE_SCRUB_REPAIRED, &[]);
                        }
                    }
                }
                if !finding.repaired {
                    report.unrepairable += 1;
                    self.obs.inc(names::STORE_SCRUB_UNREPAIRABLE, &[]);
                }
                report.findings.push(finding);
            }
        }
    }

    /// Verify one segment blob against its manifest entry; quarantine and
    /// repair on failure.
    fn check_segment(
        &self,
        blobs: &dyn BlobStore,
        prefix: &str,
        layer: &Manifest,
        entry: &ManifestEntry,
        report: &mut ScrubReport,
    ) {
        report.segments_checked += 1;
        match verify_segment(blobs, layer, entry) {
            Ok(()) => report.clean += 1,
            Err(e) => {
                let mut finding = self.found(
                    blobs,
                    prefix,
                    &entry.path,
                    layer.generation,
                    Some(entry.mask),
                    &e,
                    report,
                );
                if self.config.repair {
                    match self.repair_segment(blobs, layer, entry) {
                        Ok(()) => {
                            finding.repaired = true;
                            report.repaired += 1;
                            self.obs.inc(names::STORE_SCRUB_REPAIRED, &[]);
                        }
                        Err(why) => finding.what = format!("{}; unrepaired: {why}", finding.what),
                    }
                }
                if !finding.repaired {
                    report.unrepairable += 1;
                    self.obs.inc(names::STORE_SCRUB_UNREPAIRABLE, &[]);
                }
                report.findings.push(finding);
            }
        }
    }

    /// Record a corrupt blob: bump counters, emit obs, copy the bytes to
    /// quarantine on a repairing pass (best effort — the bytes may be
    /// gone).
    #[expect(
        clippy::too_many_arguments,
        reason = "one finding's full context: where the blob lives, what it holds, and the report it lands in"
    )]
    fn found(
        &self,
        blobs: &dyn BlobStore,
        prefix: &str,
        path: &str,
        generation: u64,
        mask: Option<Mask>,
        error: &Error,
        report: &mut ScrubReport,
    ) -> ScrubFinding {
        report.corrupt += 1;
        self.obs.inc(names::STORE_SCRUB_CORRUPT, &[]);
        let mut quarantined = false;
        if self.config.repair {
            if let Ok(bytes) = blobs.get(path) {
                if blobs.put(&quarantine_path(prefix, path), bytes).is_ok() {
                    quarantined = true;
                    report.quarantined += 1;
                    self.obs.inc(names::STORE_SCRUB_QUARANTINED, &[]);
                }
            }
        }
        ScrubFinding {
            path: path.to_string(),
            generation,
            mask,
            what: error.to_string(),
            quarantined,
            repaired: false,
        }
    }

    /// Rewrite a corrupt segment from its redundant source. The rewrite
    /// must land at exactly the manifest-recorded size, or the seal's
    /// size check would unseal the generation.
    fn repair_segment(
        &self,
        blobs: &dyn BlobStore,
        layer: &Manifest,
        entry: &ManifestEntry,
    ) -> Result<()> {
        let encoded = match layer.kind {
            StoreKind::Output => {
                let Some(rel) = &self.recovery else {
                    return Err(Error::Config(
                        "output-segment repair needs a recovery relation".to_string(),
                    ));
                };
                let rows = recompute_cuboid(rel, entry.mask, layer.spec, layer.min_support);
                Segment::build(layer.d, entry.mask, rows).encode()?
            }
            StoreKind::State => rollup_state_segment(blobs, layer, entry)?,
        };
        if encoded.len() as u64 != entry.bytes {
            return Err(Error::corrupt(
                "segment",
                format!(
                    "rewrite of {} is {} bytes, manifest records {}",
                    entry.path,
                    encoded.len(),
                    entry.bytes
                ),
            ));
        }
        blobs.put(&entry.path, encoded)
    }

    fn emit_run(&self, report: &ScrubReport, t0: Stopwatch) {
        self.obs.inc(names::STORE_SCRUB_RUN, &[]);
        self.obs.add(
            names::STORE_SCRUB_CHECKED,
            &[],
            report.segments_checked + report.manifests_checked,
        );
        self.obs
            .hist_record(names::STORE_SCRUB_US, &[], t0.seconds() * 1e6);
    }
}

/// One-shot scrub with a throwaway default-config [`Scrubber`].
pub fn scrub(blobs: &dyn BlobStore, prefix: &str) -> Result<ScrubReport> {
    Scrubber::new(ScrubConfig::default()).run(blobs, prefix)
}

/// Re-verify one segment blob: fetch, checksum + structural decode, and
/// cross-check the decoded shape against the manifest entry.
fn verify_segment(blobs: &dyn BlobStore, layer: &Manifest, entry: &ManifestEntry) -> Result<()> {
    let bytes = blobs.get(&entry.path)?;
    if bytes.len() as u64 != entry.bytes {
        return Err(Error::corrupt(
            "segment",
            format!(
                "{} is {} bytes, manifest records {}",
                entry.path,
                bytes.len(),
                entry.bytes
            ),
        ));
    }
    let (mask, d, rows) = match layer.kind {
        StoreKind::Output => {
            let seg = Segment::decode(&bytes)?;
            (seg.mask(), seg.dims(), seg.len())
        }
        StoreKind::State => {
            let seg = StateSegment::decode(&bytes)?;
            (seg.mask(), seg.d(), seg.len())
        }
    };
    if mask != entry.mask || d != layer.d || rows != entry.rows as usize {
        return Err(Error::corrupt(
            "segment",
            format!("{}: decoded shape disagrees with the manifest", entry.path),
        ));
    }
    Ok(())
}

/// Reconstruct the state segment for `entry.mask` from the same layer's
/// full-mask segment: group the finest states by their projection onto
/// the cuboid and merge. Exact by the merge laws of [`spcube_agg`]; the
/// full-mask segment itself has no finer source.
fn rollup_state_segment(
    blobs: &dyn BlobStore,
    layer: &Manifest,
    entry: &ManifestEntry,
) -> Result<Vec<u8>> {
    let full = Mask::full(layer.d);
    if entry.mask == full {
        return Err(Error::corrupt(
            "segment",
            "the full-mask state segment has no finer repair source",
        ));
    }
    let source = layer.entry(full).ok_or_else(|| {
        Error::corrupt(
            "segment",
            format!(
                "layer {} has no full-mask segment to roll up from",
                layer.generation
            ),
        )
    })?;
    let seg = StateSegment::decode(&blobs.get(&source.path)?)?;
    if seg.mask() != full || seg.d() != layer.d {
        return Err(Error::corrupt(
            "state segment",
            format!(
                "layer {} full-mask segment/manifest mismatch",
                layer.generation
            ),
        ));
    }
    let dims: Vec<usize> = entry.mask.dims().collect();
    let template = layer.spec.init();
    let mut acc: BTreeMap<Box<[Value]>, AggState> = BTreeMap::new();
    for (key, state) in seg.rows() {
        let sub: Box<[Value]> = dims.iter().filter_map(|&i| key.get(i).cloned()).collect();
        merge_into(&mut acc, &sub, state, &template)?;
    }
    StateSegment::build(layer.d, entry.mask, acc.into_iter().collect())?.encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use spcube_agg::AggSpec;
    use spcube_common::Schema;
    use spcube_cubealg::{naive_cube, CubeRead};
    use spcube_mapreduce::Dfs;

    use crate::delta::ingest_batch;
    use crate::store::{write_store, CubeStore};

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

    /// Flip one byte of the blob at `path`.
    fn flip(dfs: &Dfs, path: &str, at: usize) {
        let mut bytes = dfs.get(path).expect("blob to flip");
        let at = at % bytes.len();
        bytes[at] ^= 0x40;
        dfs.put(path, bytes);
    }

    /// The first path under `prefix` matching `pat`, skipping manifests.
    fn segment_named(dfs: &Dfs, prefix: &str, pat: &str) -> String {
        dfs.list_prefix(prefix)
            .into_iter()
            .map(|(p, _)| p)
            .find(|p| p.contains(pat))
            .expect("segment present")
    }

    fn assert_counters_match(obs: &ObsHandle, report: &ScrubReport) {
        assert_eq!(
            obs.counter_value(names::STORE_SCRUB_CHECKED, &[]),
            Some(report.segments_checked + report.manifests_checked)
        );
        for (name, want) in [
            (names::STORE_SCRUB_CORRUPT, report.corrupt),
            (names::STORE_SCRUB_QUARANTINED, report.quarantined),
            (names::STORE_SCRUB_REPAIRED, report.repaired),
            (names::STORE_SCRUB_UNREPAIRABLE, report.unrepairable),
        ] {
            assert_eq!(
                obs.counter_value(name, &[]).unwrap_or(0),
                want,
                "counter {name} drifted from the report"
            );
        }
    }

    #[test]
    fn clean_stores_scrub_clean() {
        let dfs = Dfs::new();
        let rel = sample_rel();
        ingest_batch(&dfs, "inc", &rel, AggSpec::Avg).expect("ingest");
        let report = scrub(&dfs, "inc").expect("scrub");
        assert_eq!(report.generation, Some(1));
        assert_eq!(report.corrupt, 0);
        assert_eq!(report.findings, Vec::new());
        assert_eq!(
            report.clean,
            report.segments_checked + report.manifests_checked
        );
        let cube = naive_cube(&rel, AggSpec::Avg);
        write_store(&dfs, "out", &cube, 3, AggSpec::Avg, 1).expect("write");
        let report = scrub(&dfs, "out").expect("scrub output");
        assert_eq!(report.corrupt, 0);
        assert!(report.segments_checked > 0);
    }

    #[test]
    fn empty_prefix_scrubs_to_an_empty_report() {
        let dfs = Dfs::new();
        let report = scrub(&dfs, "nothing").expect("scrub");
        assert_eq!(report.generation, None);
        assert_eq!(report.segments_checked, 0);
        assert_eq!(report.corrupt, 0);
    }

    #[test]
    fn bit_rot_in_a_state_segment_is_quarantined_and_repaired() {
        let obs = ObsHandle::mock();
        let dfs = Arc::new(Dfs::new());
        let rel = sample_rel();
        ingest_batch(dfs.as_ref(), "inc", &rel, AggSpec::Avg).expect("ingest");
        // Rot a non-full-mask cuboid (full mask of d=3 is 111).
        let victim = segment_named(&dfs, "inc", "cuboid-011.dseg");
        let before = dfs.get(&victim).expect("victim bytes");
        flip(&dfs, &victim, 9);
        let report = Scrubber::new(ScrubConfig::default())
            .with_obs(obs.clone())
            .run(dfs.as_ref(), "inc")
            .expect("scrub");
        assert_eq!(report.corrupt, 1);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.repaired, 1);
        assert_eq!(report.unrepairable, 0);
        let finding = &report.findings[0];
        assert_eq!(finding.path, victim);
        assert_eq!(finding.mask, Some(Mask(0b011)));
        assert!(finding.quarantined && finding.repaired);
        assert_counters_match(&obs, &report);
        // The rollup repair reproduced the original bytes exactly.
        assert_eq!(dfs.get(&victim).expect("repaired"), before);
        // The corrupt bytes survive in quarantine for post-mortem.
        assert!(dfs.get(&quarantine_path("inc", &victim)).is_ok());
        // The store serves bit-exact without touching the degraded path.
        let store = CubeStore::open(Arc::clone(&dfs) as Arc<dyn BlobStore>, "inc").expect("open");
        for mask in Mask::full(3).subsets() {
            store.cuboid_rows(mask).expect("rows");
        }
        assert_eq!(store.stats().degraded_recomputes, 0);
        // A second pass finds nothing.
        let again = scrub(dfs.as_ref(), "inc").expect("rescrub");
        assert_eq!(again.corrupt, 0);
    }

    #[test]
    fn output_segments_repair_via_the_recovery_relation() {
        let obs = ObsHandle::mock();
        let dfs = Arc::new(Dfs::new());
        let rel = sample_rel();
        let cube = naive_cube(&rel, AggSpec::Sum);
        write_store(dfs.as_ref(), "out", &cube, 3, AggSpec::Sum, 1).expect("write");
        let victim = segment_named(&dfs, "out", "cuboid-101.cseg");
        let before = dfs.get(&victim).expect("victim bytes");
        flip(&dfs, &victim, 17);
        // Without a recovery relation the rot is quarantined but stays.
        let stuck = Scrubber::new(ScrubConfig::default())
            .run(dfs.as_ref(), "out")
            .expect("scrub");
        assert_eq!(stuck.corrupt, 1);
        assert_eq!(stuck.repaired, 0);
        assert_eq!(stuck.unrepairable, 1);
        // With it, the BUC recompute rewrites the exact bytes.
        let report = Scrubber::new(ScrubConfig::default())
            .with_recovery(rel.clone())
            .with_obs(obs.clone())
            .run(dfs.as_ref(), "out")
            .expect("scrub with recovery");
        assert_eq!(report.repaired, 1);
        assert_eq!(report.unrepairable, 0);
        assert_counters_match(&obs, &report);
        assert_eq!(dfs.get(&victim).expect("repaired"), before);
        // A fresh store reads the repaired cuboid cleanly: with recovery
        // armed, a still-corrupt blob would show as a degraded recompute.
        let mask = Mask(0b101);
        let fresh = CubeStore::open(dfs, "out")
            .expect("reopen")
            .with_recovery(rel);
        assert_eq!(
            fresh.cuboid_len(mask).expect("clean read"),
            cube.iter().filter(|(g, _)| g.mask == mask).count()
        );
        assert_eq!(fresh.stats().degraded_recomputes, 0);
    }

    #[test]
    fn the_full_mask_state_segment_is_unrepairable() {
        let dfs = Dfs::new();
        ingest_batch(&dfs, "inc", &sample_rel(), AggSpec::Sum).expect("ingest");
        let victim = segment_named(&dfs, "inc", "cuboid-111.dseg");
        flip(&dfs, &victim, 3);
        let report = scrub(&dfs, "inc").expect("scrub");
        assert_eq!(report.corrupt, 1);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.repaired, 0);
        assert_eq!(report.unrepairable, 1);
        assert!(report.findings[0].what.contains("no finer repair source"));
    }

    #[test]
    fn read_only_scrub_detects_but_mutates_nothing() {
        let dfs = Dfs::new();
        ingest_batch(&dfs, "inc", &sample_rel(), AggSpec::Sum).expect("ingest");
        let victim = segment_named(&dfs, "inc", "cuboid-001.dseg");
        flip(&dfs, &victim, 5);
        let before = dfs.list_prefix("inc");
        let report = Scrubber::new(ScrubConfig::read_only())
            .run(&dfs, "inc")
            .expect("scrub");
        assert_eq!(report.corrupt, 1);
        assert_eq!(report.quarantined, 0);
        assert_eq!(report.repaired, 0);
        assert_eq!(dfs.list_prefix("inc"), before, "read-only pass wrote");
    }

    #[test]
    fn a_corrupt_root_pointer_is_rewritten_from_the_seal() {
        let dfs = Dfs::new();
        ingest_batch(&dfs, "inc", &sample_rel(), AggSpec::Sum).expect("ingest");
        let root = manifest_path("inc");
        flip(&dfs, &root, 11);
        let report = scrub(&dfs, "inc").expect("scrub");
        assert_eq!(report.corrupt, 1);
        assert_eq!(report.repaired, 1);
        assert_eq!(report.findings[0].mask, None);
        // Repaired root decodes and names the chosen generation again.
        let m = Manifest::decode(&dfs.get(&root).expect("root")).expect("decode");
        assert_eq!(m.generation, 1);
        let again = scrub(&dfs, "inc").expect("rescrub");
        assert_eq!(again.corrupt, 0);
    }

    #[test]
    fn scrub_repairs_every_possible_single_bit_flip() {
        // The acceptance bar behind the whole module: whatever single
        // byte of a repairable segment rots, the scrubber detects and
        // restores the exact original bytes.
        let dfs = Dfs::new();
        let rel = sample_rel();
        ingest_batch(&dfs, "inc", &rel, AggSpec::Avg).expect("ingest");
        let victim = segment_named(&dfs, "inc", "cuboid-110.dseg");
        let before = dfs.get(&victim).expect("victim bytes");
        for at in (0..before.len()).step_by(7) {
            flip(&dfs, &victim, at);
            let report = scrub(&dfs, "inc").expect("scrub");
            assert_eq!(report.corrupt, 1, "flip at byte {at} went undetected");
            assert_eq!(report.repaired, 1, "flip at byte {at} went unrepaired");
            assert_eq!(
                dfs.get(&victim).expect("repaired"),
                before,
                "flip at byte {at}: repair not byte-exact"
            );
        }
    }
}

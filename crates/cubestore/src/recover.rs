//! Recovery: the generation scan behind [`crate::store::CubeStore::open`]
//! and the degraded-path recompute of a single cuboid.
//!
//! **Generation scan** — [`scan_store`] lists everything under a store
//! prefix and classifies it: which generations exist, which are *sealed*
//! (their seal manifest decodes and every segment blob it names is
//! present with exactly the recorded size), where the root commit pointer
//! points, and which blobs are orphans of aborted commits. The scan only
//! reads manifests — segment completeness is judged from listed sizes, so
//! recovery cost is independent of cube size. It never panics and never
//! mutates; acting on the report (root repair, quarantine) is the
//! caller's decision.
//!
//! **Degraded recompute** — when a segment fails its checksum the store
//! does not fail the query: it recomputes just the affected cuboid from
//! the raw relation, BUC-style (Beyer & Ramakrishnan's recursive
//! partitioning, restricted to the cuboid's own dimensions), and serves
//! from the recomputed rows. This is the same graceful-degradation stance
//! the SP-Cube driver takes when its sketch is lost: worse performance,
//! same answers.
//!
//! The recursion partitions the relation by each grouped dimension in
//! ascending order, pruning partitions below the iceberg minimum support
//! and emitting a group only at full depth. Because every intermediate
//! partition is a superset of the final one, the emitted groups are
//! exactly those BUC itself would emit for this cuboid: the groups whose
//! support reaches `min_support`.

use std::collections::{BTreeMap, BTreeSet};

use spcube_agg::{AggOutput, AggSpec};
use spcube_common::{Group, Mask, Relation, Result, Tuple, Value};

use crate::blob::BlobStore;
use crate::manifest::{
    gen_manifest_path, manifest_path, parse_generation, Manifest, QUARANTINE_DIR,
};

/// What the scan learned about one generation directory.
#[derive(Debug, Clone)]
pub struct GenerationInfo {
    /// The generation number (from the directory name).
    pub generation: u64,
    /// Whether the generation is fully sealed: its seal manifest decodes,
    /// agrees on the generation number, and every segment it names is
    /// present with exactly the recorded size.
    pub sealed: bool,
    /// Segments the seal manifest names (0 when the seal is torn).
    pub segments: usize,
    /// Listed bytes under the generation directory, seal included.
    pub bytes: u64,
    /// Named segments that are missing or size-mismatched.
    pub missing: usize,
    /// The decoded seal manifest, when it decodes cleanly.
    pub manifest: Option<Manifest>,
}

/// Everything [`scan_store`] found under one store prefix.
#[derive(Debug, Clone)]
pub struct ScanReport {
    /// Per-generation findings, ascending by generation.
    pub generations: Vec<GenerationInfo>,
    /// Generation the root commit pointer names, when it decodes.
    pub committed: Option<u64>,
    /// The generation a reader should serve: the committed one when it is
    /// sealed, otherwise the newest sealed generation. `None` means the
    /// store has no complete generation at all.
    pub chosen: Option<u64>,
    /// True when the root pointer does not cleanly name the chosen
    /// generation (missing, torn, or pointing at an unsealed generation)
    /// — i.e. the commit itself was interrupted and the root needs repair.
    pub torn_root: bool,
    /// True when a root commit pointer blob is listed, whether or not it
    /// decodes. A commit writes the root only after its generation is
    /// sealed, so a root with no `chosen` generation means a committed
    /// store whose seals no longer verify (bit rot, or blobs sealed by an
    /// older build), not an interrupted first commit.
    pub root_present: bool,
    /// Listed blobs belonging to no sealed generation and not already in
    /// quarantine: leftovers of aborted commits, to be quarantined.
    pub orphans: Vec<String>,
}

impl ScanReport {
    /// The seal manifest of generation `g`, when `g` is fully sealed.
    pub fn sealed_manifest(&self, g: u64) -> Option<&Manifest> {
        self.generations
            .iter()
            .find(|i| i.generation == g && i.sealed)
            .and_then(|i| i.manifest.as_ref())
    }

    /// The manifest a reader should serve: the chosen generation's seal,
    /// `None` when the store has no complete generation.
    pub fn chosen_manifest(&self) -> Option<&Manifest> {
        self.chosen.and_then(|g| self.sealed_manifest(g))
    }
}

/// Classify everything under `prefix`: generations, seal status, commit
/// pointer, and orphans. Read-only; errors only when the listing itself
/// fails (a torn or missing manifest is a *finding*, not an error).
pub fn scan_store(blobs: &dyn BlobStore, prefix: &str) -> Result<ScanReport> {
    let listing = blobs.list(prefix)?;
    let sizes: BTreeMap<&str, u64> = listing.iter().map(|(p, s)| (p.as_str(), *s)).collect();
    let gen_numbers: BTreeSet<u64> = listing
        .iter()
        .filter_map(|(p, _)| parse_generation(prefix, p))
        .collect();

    let mut generations = Vec::with_capacity(gen_numbers.len());
    let mut sealed_blobs: BTreeSet<String> = BTreeSet::new();
    for &generation in &gen_numbers {
        let seal_path = gen_manifest_path(prefix, generation);
        let manifest = blobs
            .get(&seal_path)
            .and_then(|bytes| Manifest::decode(&bytes))
            .ok()
            .filter(|m| m.generation == generation);
        let bytes = listing
            .iter()
            .filter(|(p, _)| parse_generation(prefix, p) == Some(generation))
            .map(|(_, s)| *s)
            .sum();
        let (sealed, segments, missing) = match &manifest {
            Some(m) => {
                let missing = m
                    .entries
                    .iter()
                    .filter(|e| sizes.get(e.path.as_str()) != Some(&e.bytes))
                    .count();
                (missing == 0, m.entries.len(), missing)
            }
            None => (false, 0, 0),
        };
        if sealed {
            if let Some(m) = &manifest {
                sealed_blobs.extend(m.entries.iter().map(|e| e.path.clone()));
            }
            sealed_blobs.insert(seal_path);
        }
        generations.push(GenerationInfo {
            generation,
            sealed,
            segments,
            bytes,
            missing,
            manifest,
        });
    }

    let root = manifest_path(prefix);
    let committed = blobs
        .get(&root)
        .and_then(|bytes| Manifest::decode(&bytes))
        .ok()
        .map(|m| m.generation);
    let root_present = sizes.contains_key(root.as_str());
    let quarantine = format!("{prefix}/{QUARANTINE_DIR}/");
    let orphans = listing
        .into_iter()
        .map(|(p, _)| p)
        .filter(|p| *p != root && !p.starts_with(&quarantine) && !sealed_blobs.contains(p))
        .collect();

    let mut report = ScanReport {
        generations,
        committed,
        chosen: None,
        torn_root: false,
        root_present,
        orphans,
    };
    // A generation is *choosable* when it is sealed and — for layered
    // state stores — every generation its layer chain names is also
    // sealed: a chain head whose ancestors are torn cannot answer reads.
    let choosable = |g: u64| {
        report.sealed_manifest(g).is_some_and(|m| {
            m.layers
                .iter()
                .all(|&l| l == g || report.sealed_manifest(l).is_some())
        })
    };
    let chosen = committed.filter(|&g| choosable(g)).or_else(|| {
        report
            .generations
            .iter()
            .rev()
            .find(|i| choosable(i.generation))
            .map(|i| i.generation)
    });
    report.chosen = chosen;
    report.torn_root = chosen.is_some() && committed != chosen;
    Ok(report)
}

/// Recompute the cuboid `mask` of `rel` under `spec`, keeping only groups
/// with at least `min_support` supporting tuples. Rows come back in no
/// particular order.
pub fn recompute_cuboid(
    rel: &Relation,
    mask: Mask,
    spec: AggSpec,
    min_support: usize,
) -> Vec<(Box<[Value]>, AggOutput)> {
    let min_support = min_support.max(1);
    let mut refs: Vec<&Tuple> = rel.tuples().iter().collect();
    let dims: Vec<usize> = mask.dims().collect();
    let mut out = Vec::new();
    if refs.len() >= min_support {
        partition(&mut refs, &dims, mask, spec, min_support, &mut out);
    }
    out
}

fn partition(
    tuples: &mut [&Tuple],
    dims: &[usize],
    mask: Mask,
    spec: AggSpec,
    min_support: usize,
    out: &mut Vec<(Box<[Value]>, AggOutput)>,
) {
    let Some((&dim, rest)) = dims.split_first() else {
        // Full depth: this partition is one group of the target cuboid.
        let Some(first) = tuples.first() else {
            return; // callers never recurse into an empty partition
        };
        let group = Group::of_tuple(first, mask);
        let mut state = spec.init();
        for t in tuples.iter() {
            state.update(t.measure);
        }
        out.push((group.key, state.finalize()));
        return;
    };
    // `get` rather than indexing: a tuple narrower than the mask cannot
    // happen for a well-formed relation, but must not crash the serving
    // path either (DESIGN.md §8) — such tuples just sort together.
    tuples.sort_unstable_by(|a, b| a.dims.get(dim).cmp(&b.dims.get(dim)));
    for run in tuples.chunk_by_mut(|a, b| a.dims.get(dim) == b.dims.get(dim)) {
        if run.len() >= min_support {
            partition(run, rest, mask, spec, min_support, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcube_common::Schema;

    fn rel(rows: &[(&[i64], f64)]) -> Relation {
        let d = rows[0].0.len();
        let mut r = Relation::empty(Schema::synthetic(d));
        for (dims, m) in rows {
            r.push_row(dims.iter().map(|&v| Value::Int(v)).collect(), *m);
        }
        r
    }

    #[test]
    fn matches_buc_on_every_cuboid() {
        let r = rel(&[
            (&[1, 1, 2], 1.0),
            (&[1, 2, 2], 2.0),
            (&[1, 1, 3], 3.0),
            (&[2, 1, 2], 4.0),
            (&[2, 2, 2], 5.0),
        ]);
        for min_support in [1usize, 2, 3] {
            let cfg = spcube_cubealg::BucConfig { min_support };
            let full = spcube_cubealg::buc(&r, AggSpec::Sum, &cfg);
            for mask in Mask::full(3).subsets() {
                let mut got = recompute_cuboid(&r, mask, AggSpec::Sum, min_support);
                got.sort_by(|a, b| a.0.cmp(&b.0));
                let mut expect: Vec<(Box<[Value]>, AggOutput)> = full
                    .iter()
                    .filter(|(g, _)| g.mask == mask)
                    .map(|(g, v)| (g.key.clone(), v.clone()))
                    .collect();
                expect.sort_by(|a, b| a.0.cmp(&b.0));
                assert_eq!(got, expect, "cuboid {mask}, min_support {min_support}");
            }
        }
    }

    #[test]
    fn apex_recompute() {
        let r = rel(&[(&[1], 1.0), (&[2], 2.0)]);
        let got = recompute_cuboid(&r, Mask::EMPTY, AggSpec::Count, 1);
        assert_eq!(
            got,
            vec![(Box::from([]) as Box<[Value]>, AggOutput::Number(2.0))]
        );
    }

    #[test]
    fn iceberg_prunes_thin_groups() {
        let r = rel(&[(&[1], 1.0), (&[1], 2.0), (&[2], 3.0)]);
        let got = recompute_cuboid(&r, Mask(0b1), AggSpec::Count, 2);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0.as_ref(), &[Value::Int(1)]);
    }

    mod scan {
        use super::*;
        use crate::manifest::{segment_path, ManifestEntry};
        use spcube_mapreduce::Dfs;

        /// A hand-built sealed generation: the scan judges completeness
        /// from the manifest + listed sizes, so segment bytes can be
        /// arbitrary here.
        fn seal_generation(dfs: &Dfs, prefix: &str, generation: u64, publish: bool) {
            let path = segment_path(prefix, generation, 1, Mask(0b1));
            dfs.put(&path, vec![generation as u8; 3]);
            let manifest = Manifest {
                d: 1,
                generation,
                spec: AggSpec::Count,
                min_support: 1,
                kind: Default::default(),
                layers: Vec::new(),
                batch_ids: Vec::new(),
                entries: vec![ManifestEntry {
                    mask: Mask(0b1),
                    rows: 1,
                    bytes: 3,
                    path,
                }],
            };
            let bytes = manifest.encode().expect("encode");
            dfs.put(&gen_manifest_path(prefix, generation), bytes.clone());
            if publish {
                dfs.put(&manifest_path(prefix), bytes);
            }
        }

        #[test]
        fn clean_store_scans_clean() {
            let dfs = Dfs::new();
            seal_generation(&dfs, "s", 1, true);
            let scan = scan_store(&dfs, "s").expect("scan");
            assert_eq!(scan.committed, Some(1));
            assert_eq!(scan.chosen, Some(1));
            assert!(!scan.torn_root);
            assert!(scan.orphans.is_empty());
            assert_eq!(scan.generations.len(), 1);
            assert!(scan.generations[0].sealed);
            assert_eq!(scan.generations[0].segments, 1);
        }

        #[test]
        fn missing_or_torn_root_falls_back_to_newest_sealed() {
            let dfs = Dfs::new();
            seal_generation(&dfs, "s", 1, true);
            seal_generation(&dfs, "s", 2, false); // sealed but never published
            dfs.delete(&manifest_path("s"));
            let scan = scan_store(&dfs, "s").expect("scan");
            assert_eq!(scan.committed, None);
            assert_eq!(scan.chosen, Some(2), "newest sealed generation wins");
            assert!(scan.torn_root);
            assert!(scan.orphans.is_empty());
        }

        #[test]
        fn partial_generation_is_unsealed_and_its_blobs_are_orphans() {
            let dfs = Dfs::new();
            seal_generation(&dfs, "s", 1, true);
            // Generation 2 crashed mid-write: one segment, no seal.
            let partial = segment_path("s", 2, 1, Mask(0b1));
            dfs.put(&partial, vec![9; 2]);
            let scan = scan_store(&dfs, "s").expect("scan");
            assert_eq!(scan.chosen, Some(1));
            assert!(!scan.torn_root, "root still names the sealed gen");
            assert_eq!(scan.orphans, vec![partial]);
            let gen2 = scan
                .generations
                .iter()
                .find(|g| g.generation == 2)
                .expect("gen 2 seen");
            assert!(!gen2.sealed);
            assert!(gen2.manifest.is_none());
        }

        #[test]
        fn size_mismatch_unseals_a_generation() {
            let dfs = Dfs::new();
            seal_generation(&dfs, "s", 1, true);
            // Truncate the segment under the seal's nose.
            dfs.put(&segment_path("s", 1, 1, Mask(0b1)), vec![1]);
            let scan = scan_store(&dfs, "s").expect("scan");
            assert_eq!(scan.chosen, None);
            assert_eq!(scan.generations[0].missing, 1);
            assert!(!scan.generations[0].sealed);
        }

        #[test]
        fn quarantined_blobs_are_not_orphans() {
            let dfs = Dfs::new();
            seal_generation(&dfs, "s", 1, true);
            dfs.put("s/quarantine/gen-00000000/junk", vec![1]);
            let scan = scan_store(&dfs, "s").expect("scan");
            assert!(scan.orphans.is_empty());
        }

        #[test]
        fn empty_prefix_has_no_chosen_generation() {
            let dfs = Dfs::new();
            let scan = scan_store(&dfs, "nothing").expect("scan");
            assert_eq!(scan.chosen, None);
            assert!(!scan.torn_root);
            assert!(scan.generations.is_empty());
        }
    }
}

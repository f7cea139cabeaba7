//! The measured part both workloads share.
//!
//! Rounds run until `--seconds` have passed. A round runs one timed build
//! of the workload's relation, then serves the workload's query stream
//! through one closed-loop client. The machine's speed wanders over
//! seconds; rounds let builds and queries each sample the whole run
//! instead of one stretch each.
//! Every round serves the same queries from the same cache state, so a run
//! that fits one more round in gathers more samples of the same
//! distribution, never a different mix. Every build is checked as it
//! finishes, every answer after the last round, both outside the timed
//! sections.

use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::Instant;

use spcube_agg::AggSpec;
use spcube_common::{Mask, Relation};
use spcube_core::{SpCube, SpCubeConfig};
use spcube_cubealg::{Cube, CubeQuery, CubeRead};
use spcube_cubestore::{write_store, BlobStore, CubeStore};
use spcube_mapreduce::{ClusterConfig, Dfs};

use crate::serve::{check_answers, serve, Query, ServeConfig, Window};
use crate::workload::Pass;

/// Where every build commits its store.
pub const PREFIX: &str = "cube";

/// One build: `SpCube::run` with SUM, then `write_store` into a fresh
/// in-memory store. Returns the cube, the store and the bytes written.
pub fn build(
    rel: &Relation,
    cluster: &ClusterConfig,
) -> Result<(Cube, Arc<dyn BlobStore>, u64), String> {
    let dfs = Arc::new(Dfs::new());
    let run = SpCube::run(rel, cluster, &SpCubeConfig::new(AggSpec::Sum))
        .map_err(|e| format!("SpCube::run: {e}"))?;
    let report = write_store(dfs.as_ref(), PREFIX, &run.cube, rel.arity(), AggSpec::Sum, 1)
        .map_err(|e| format!("write_store: {e}"))?;
    Ok((run.cube, dfs, report.bytes))
}

/// The built cube equals the reference, and the committed store reports
/// the reference's size for every cuboid of the `d` dimensions.
fn build_is_correct(
    cube: &Cube,
    reference: &Cube,
    index: &CubeQuery<'_>,
    store: &CubeStore,
    d: usize,
) -> bool {
    if !cube.approx_eq(reference, 1e-9) {
        eprintln!("build: SP-Cube cube differs from the BUC reference");
        return false;
    }
    Mask::full(d).subsets().all(|mask| {
        let ok = store.cuboid_len(mask).ok() == Some(index.cuboid_len(mask));
        if !ok {
            eprintln!("build: stored cuboid {mask} has the wrong size");
        }
        ok
    })
}

/// What the rounds of one pass work on.
pub struct Rounds<'a> {
    pub rel: &'a Relation,
    /// The cube of `rel`: the reference of every check.
    pub reference: &'a Cube,
    pub cluster: &'a ClusterConfig,
    /// The store the rounds serve, opened once so its cache carries over
    /// from round to round. An untimed pass over the stream before the
    /// first round leaves the cache as every later round leaves it.
    pub store: &'a Arc<CubeStore>,
    /// The query stream, served whole by every round.
    pub queries: &'a [Query],
    pub serve: ServeConfig,
}

impl Rounds<'_> {
    /// Serve the whole stream once.
    fn serve_all(&self) -> Window {
        let end = self.queries.len();
        serve(self.store, self.queries, &AtomicUsize::new(0), self.serve, &|idx| idx >= end)
    }

    /// Run rounds into `pass` until `seconds` have passed, at least one.
    /// Returns the rounds run.
    pub fn run(&self, seconds: f64, pass: &mut Pass) -> Result<usize, String> {
        let d = self.rel.arity();
        let index = CubeQuery::new(self.reference, d);
        // The untimed warm-up pass; see `store`.
        self.serve_all();
        let t_run = Instant::now();
        while pass.build_s.len() == 0 || t_run.elapsed().as_secs_f64() < seconds {
            let t = Instant::now();
            let (cube, built, bytes) = build(self.rel, self.cluster)?;
            pass.build_s.push(t.elapsed().as_secs_f64());
            pass.store_bytes = bytes;
            let fresh = CubeStore::open(built, PREFIX).map_err(|e| format!("open: {e}"))?;
            pass.attempted += 1;
            if !build_is_correct(&cube, self.reference, &index, &fresh, d) {
                pass.failed += 1;
            }
            drop((cube, fresh));

            let w = self.serve_all();
            pass.window_qps.push(w.qps());
            pass.serving.absorb(w);
        }
        let w = &pass.serving;
        let mismatched = check_answers(&w.answered, self.queries, self.reference, d);
        pass.attempted += w.attempted();
        pass.failed += w.errored.len() as u64 + mismatched;
        Ok(pass.build_s.len())
    }
}

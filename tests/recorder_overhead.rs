//! Recorder-overhead guard. The flight recorder is always on, so a
//! profiled query must keep at least 95% of an unprofiled query's
//! throughput.
//!
//! One SUM store of `gen_zipf(50k, d = 4)` is written once and its blobs
//! are opened twice: plain, and with a wall-clock `ObsHandle`. Each store
//! sits behind its own `CubeServer` and `ResilientClient`, and both are
//! warmed with the whole query stream. One closed-loop client then sends
//! the stream through both sides in fixed blocks, `query` on the plain
//! side and `query_profiled` on the recorded one, swapping which side
//! goes first every block and every pass. Interleaving spreads the
//! shared machine's drift over both sides alike, so the guard compares
//! their summed times. Blocks are short (about 10 ms of work each):
//! with blocks five times longer, single readings on a busy 2-core
//! machine spread from 0.90 to 1.05 instead of 0.96 to 1.00.
//!
//! Timing-sensitive, so it is ignored by default and meant for release
//! builds: `cargo test --release --test recorder_overhead -- --ignored`.

use std::sync::Arc;

use sp_cube_repro::agg::AggSpec;
use sp_cube_repro::core::{SpCube, SpCubeConfig};
use sp_cube_repro::cubestore::{
    BlobStore, ClientConfig, CubeServer, CubeStore, Request, ResilientClient, Response,
    ServerConfig,
};
use sp_cube_repro::datagen::{gen_query_workload, gen_zipf};
use sp_cube_repro::mapreduce::{ClusterConfig, Dfs};
use sp_cube_repro::obs::{ObsHandle, Stopwatch};
use sp_cube_repro::request_of;

/// Input rows and dimensions of the store.
const N: usize = 50_000;
const D: usize = 4;
/// Machines of the simulated build cluster.
const MACHINES: usize = 20;
/// The query stream: `RUNS` runs of `RUN_LEN` generated queries, run `r`
/// drawn with generator seed `r`, so each run has its own cuboid ranking.
const RUNS: u64 = 4;
const RUN_LEN: usize = 500;
/// Queries a side sends per block.
const BLOCK: usize = 50;
/// Times the stream goes through each side.
const PASSES: usize = 3;
/// Profiled throughput over unprofiled throughput must reach this.
const BAR: f64 = 0.95;

/// One side of the comparison: a client over its own server and store.
struct Side {
    client: ResilientClient,
    profiled: bool,
}

impl Side {
    fn open(blobs: &Arc<dyn BlobStore>, obs: ObsHandle, profiled: bool) -> Side {
        let store = CubeStore::open(Arc::clone(blobs), "overhead")
            .expect("open")
            .with_obs(obs);
        let server = Arc::new(CubeServer::start(Arc::new(store), ServerConfig::default()));
        let client = ResilientClient::new(server, ClientConfig::default()).expect("client");
        Side { client, profiled }
    }

    /// Send `queries` one at a time; the seconds they took.
    fn send(&self, queries: &[Request]) -> f64 {
        let t0 = Stopwatch::start();
        for req in queries {
            let result = if self.profiled {
                self.client.query_profiled(req.clone(), None).result
            } else {
                self.client.query(req.clone(), None)
            };
            match result {
                Ok(Response::Failed(msg)) => panic!("{req:?} failed: {msg}"),
                Ok(_) => {}
                Err(e) => panic!("{req:?} refused: {e}"),
            }
        }
        t0.seconds()
    }
}

#[test]
#[ignore = "timing guard; run in release with --ignored"]
fn profiled_serving_keeps_95_percent_of_throughput() {
    let rel = gen_zipf(N, D, 7);
    let dfs = Arc::new(Dfs::new());
    SpCube::run_and_store(
        &rel,
        &ClusterConfig::for_input(MACHINES, N),
        &SpCubeConfig::new(AggSpec::Sum),
        &dfs,
        "overhead",
    )
    .expect("build and store");
    let blobs: Arc<dyn BlobStore> = dfs;
    let stream: Vec<Request> = (0..RUNS)
        .flat_map(|r| gen_query_workload(&rel, RUN_LEN, 1.0, r))
        .map(|spec| request_of(&spec))
        .collect();

    let sides = [
        Side::open(&blobs, ObsHandle::default(), false),
        Side::open(&blobs, ObsHandle::wall(), true),
    ];
    for side in &sides {
        side.send(&stream);
    }
    let mut seconds = [0.0f64; 2];
    for pass in 0..PASSES {
        for (b, block) in stream.chunks(BLOCK).enumerate() {
            let first = (pass + b) % 2;
            for side in [first, 1 - first] {
                seconds[side] += sides[side].send(block);
            }
        }
    }

    let [plain, profiled] = seconds;
    let ratio = plain / profiled;
    println!(
        "recorder overhead: {} queries a side, plain {plain:.3} s, profiled {profiled:.3} s, \
         throughput ratio {ratio:.4} (bar {BAR})",
        PASSES * stream.len()
    );
    assert!(
        ratio >= BAR,
        "profiled throughput is {ratio:.4} of unprofiled, below the bar of {BAR}"
    );
}

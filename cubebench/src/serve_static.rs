//! `serve-static`: read-only serving over a closed loop.
//!
//! Set-up generates `gen_zipf(50k, d = 4)`, builds it with SP-Cube and
//! SUM, and commits it with `write_store` into an in-memory `Dfs` (about
//! 444k groups in 16 segments, 9 MB). The store keeps the default
//! 8-segment cache, so the working set is bigger than the cache. In every
//! round (see `rounds.rs`) one closed-loop client sends the same 2,000
//! queries of `gen_query_workload(skew = 1.0)`, four blocks with four
//! cuboid rankings, through `ResilientClient` to a `CubeServer` with
//! `nproc` workers: query kernels, cache misses, blob fetches and segment
//! decodes do all the work of a serving window, and no build or delta
//! code runs while one is open. The cache stays warm from one round's
//! window to the next.

use std::sync::Arc;
use std::time::Instant;

use spcube_agg::AggSpec;
use spcube_common::Relation;
use spcube_cubealg::{buc, BucConfig};
use spcube_cubestore::{CubeStore, DEFAULT_CACHE_SEGMENTS};
use spcube_datagen::gen_zipf;
use spcube_obs::ObsHandle;

use crate::rounds::{build, Rounds, PREFIX};
use crate::serve::{query_stream, Query, ServeConfig, CLIENTS};
use crate::workload::{Params, Pass, PassOut};

pub const D: usize = 4;

struct Sizes {
    n: usize,
    machines: usize,
    /// Query-stream runs, each with its own cuboid ranking.
    blocks: usize,
    per_block: usize,
    setup_reps: usize,
}

fn sizes(tiny: bool) -> Sizes {
    if tiny {
        Sizes {
            n: 3_000,
            machines: 4,
            blocks: 5,
            per_block: 100,
            setup_reps: 2,
        }
    } else {
        Sizes {
            n: 50_000,
            machines: 20,
            blocks: 4,
            per_block: 500,
            setup_reps: 5,
        }
    }
}

/// The workload's input relation.
pub fn relation(p: &Params) -> Relation {
    gen_zipf(sizes(p.tiny).n, D, p.seed_for(1))
}

pub fn pass(p: &Params, traced: bool) -> Result<PassOut, String> {
    let s = sizes(p.tiny);
    let mut pass = Pass::default();
    let obs = ObsHandle::wall();
    let mut cluster = p.cluster(s.machines, s.n);
    if traced {
        cluster = cluster.with_obs(obs.clone());
    }
    let mut built = None;
    for _ in 0..s.setup_reps {
        // Each repetition starts from nothing, as the first one does.
        drop(built.take());
        let t = Instant::now();
        let rel = relation(p);
        pass.gen_s.push(t.elapsed().as_secs_f64());
        let blobs = build(&rel, &cluster)?.1;
        let store =
            CubeStore::open(Arc::clone(&blobs), PREFIX).map_err(|e| format!("open: {e}"))?;
        pass.setup_s.push(t.elapsed().as_secs_f64());
        built = Some((rel, blobs, store));
    }
    let (rel, blobs, mut store) = built.ok_or("no set-up repetition ran")?;
    let reference = buc(&rel, AggSpec::Sum, &BucConfig { min_support: 1 });
    if traced {
        store = store.with_obs(obs.clone());
    }
    let store = Arc::new(store);
    let queries: Vec<Query> = query_stream(&rel, s.blocks, s.per_block);
    let rounds = Rounds {
        rel: &rel,
        reference: &reference,
        cluster: &cluster,
        store: &store,
        queries: &queries,
        serve: ServeConfig {
            clients: CLIENTS,
            workers: p.threads,
            profiled: traced,
        },
    }
    .run(p.seconds, &mut pass)?;

    Ok(PassOut {
        pass,
        rel,
        cluster: p.cluster(s.machines, s.n),
        queries,
        blobs,
        prefix: PREFIX.to_string(),
        record: vec![
            ("n".to_string(), s.n.to_string()),
            ("machines".to_string(), s.machines.to_string()),
            (
                "cache_segments".to_string(),
                DEFAULT_CACHE_SEGMENTS.to_string(),
            ),
            (
                "query_stream".to_string(),
                format!("{} x {}", s.blocks, s.per_block),
            ),
            ("rounds".to_string(), rounds.to_string()),
        ],
    })
}

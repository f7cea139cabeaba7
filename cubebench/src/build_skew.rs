//! `build-skew`: the SP-Cube build on the paper's headline skewed input.
//!
//! Input: `gen_binomial(n, d = 4, p = 0.5)`, so half the tuples fall into
//! 20 planted all-equal patterns of n/40 tuples each (against m = n/k, the
//! sketch marks the groups above m, the apex among them, for map-side
//! aggregation and reducer 0), while the uniform half drives range
//! partitioning and the reducers' BUC. One operation is `SpCube::run` on
//! `k = 20` machines with `m = n / k`, then `write_store` into a fresh
//! in-memory `Dfs`, timed from relation in memory to committed store.
//!
//! Set-up generates the relation and runs one untimed build per
//! repetition. Every round (see `rounds.rs`) also serves the same 1,000
//! queries from the store the last set-up build committed, through the
//! default 8-segment cache, so the serving metrics on this workload
//! describe a store of mostly singleton groups.

use std::sync::Arc;
use std::time::Instant;

use spcube_agg::AggSpec;
use spcube_common::Relation;
use spcube_cubealg::{buc, BucConfig};
use spcube_cubestore::{CubeStore, DEFAULT_CACHE_SEGMENTS};
use spcube_datagen::gen_binomial;
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
            n: 4_000,
            machines: 4,
            blocks: 5,
            per_block: 100,
            setup_reps: 2,
        }
    } else {
        Sizes {
            n: 50_000,
            machines: 20,
            blocks: 2,
            per_block: 500,
            setup_reps: 5,
        }
    }
}

/// The workload's input relation.
pub fn relation(p: &Params) -> Relation {
    gen_binomial(sizes(p.tiny).n, D, 0.5, p.seed_for(1))
}

pub fn pass(p: &Params, traced: bool) -> Result<PassOut, String> {
    let s = sizes(p.tiny);
    let mut pass = Pass::default();
    let obs = ObsHandle::wall();
    let mut cluster = p.cluster(s.machines, s.n);
    if traced {
        cluster = cluster.with_obs(obs.clone());
    }
    // Set-up: generate the relation and run one untimed build, so the
    // timed builds start with the engine's threads and the heap warm.
    let mut rel = Relation::empty(spcube_common::Schema::synthetic(D));
    let mut fresh = None;
    for _ in 0..s.setup_reps {
        // Each repetition starts from nothing, as the first one does.
        drop(fresh.take());
        let t = Instant::now();
        rel = relation(p);
        pass.gen_s.push(t.elapsed().as_secs_f64());
        fresh = Some(build(&rel, &cluster)?.1);
        pass.setup_s.push(t.elapsed().as_secs_f64());
    }
    let blobs = fresh.ok_or("no set-up repetition ran")?;
    let reference = buc(&rel, AggSpec::Sum, &BucConfig { min_support: 1 });
    let mut store =
        CubeStore::open(Arc::clone(&blobs), PREFIX).map_err(|e| format!("open: {e}"))?;
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

//! The closed-loop serving harness and its answer check.
//!
//! Client threads each keep one query in flight through a
//! [`ResilientClient`] over a [`CubeServer`], taking the next query from a
//! shared cursor into a generated stream. Every answered query leaves a
//! raw latency sample and a 64-bit fingerprint of its answer; after the
//! timed window, [`check_answers`] replays the stream against a reference
//! cube and compares fingerprints, so the check never runs inside the
//! timed section and no answer has to be kept whole.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use spcube_agg::AggOutput;
use spcube_common::Relation;
use spcube_cubealg::{Cube, CubeQuery};
use spcube_cubestore::{
    answer, ClientConfig, ClientStats, CubeServer, CubeStore, Request, ResilientClient, Response,
    ServeError, ServerConfig,
};
use spcube_datagen::{gen_query_workload, QuerySpec};

use crate::stats::Samples;

/// Closed-loop client threads of every serving window. One client keeps
/// one query in flight, so the serving path never competes with a second
/// query for the machine's cores: with two clients on a 2-core machine,
/// p99 and QPS spread by 15-30% between runs of the same code, with one
/// by under 15%.
pub const CLIENTS: usize = 1;

/// The query kinds of the generated mix, in report order.
pub const KINDS: [&str; 5] = ["point", "slice", "topk", "rollup", "len"];

/// One query of the stream, with its kind (an index into [`KINDS`]) and
/// a content key that identifies repeats of the same request.
#[derive(Debug, Clone)]
pub struct Query {
    pub req: Request,
    pub kind: usize,
    pub key: u64,
}

impl Query {
    pub fn new(spec: &QuerySpec) -> Query {
        let (req, kind) = match spec {
            QuerySpec::Point { mask, key } => (
                Request::Point {
                    mask: *mask,
                    key: key.clone(),
                },
                0,
            ),
            QuerySpec::Slice { mask, dim, value } => (
                Request::Slice {
                    mask: *mask,
                    dim: *dim,
                    value: value.clone(),
                },
                1,
            ),
            QuerySpec::TopK { mask, n } => (Request::TopK { mask: *mask, n: *n }, 2),
            QuerySpec::RollUp { group, dim } => (
                Request::RollUp {
                    group: group.clone(),
                    dim: *dim,
                },
                3,
            ),
            QuerySpec::CuboidLen { mask } => (Request::CuboidLen { mask: *mask }, 4),
        };
        let mut h = DefaultHasher::new();
        kind.hash(&mut h);
        match &req {
            Request::Point { mask, key } => (mask, key).hash(&mut h),
            Request::Slice { mask, dim, value } => (mask, dim, value).hash(&mut h),
            Request::TopK { mask, n } => (mask, n).hash(&mut h),
            Request::RollUp { group, dim } => (group, dim).hash(&mut h),
            Request::CuboidLen { mask } => mask.hash(&mut h),
        }
        Query {
            req,
            kind,
            key: h.finish(),
        }
    }
}

/// The query stream of a workload: `blocks` runs of `per_block` queries
/// from `gen_query_workload(skew = 1.0)` over `rel`. Run `b` uses
/// generator seed `b`, which fixes its cuboid popularity ranking and the
/// mix of kinds; the keys come from `rel`, which the workload seed
/// generated. The rankings are part of the workload's definition: the
/// hot set moves from run to run in the same way on every seed, so a
/// window's figures do not ride on whichever cuboid one seed made
/// hottest.
pub fn query_stream(rel: &Relation, blocks: usize, per_block: usize) -> Vec<Query> {
    (0..blocks as u64)
        .flat_map(|b| gen_query_workload(rel, per_block, 1.0, b))
        .map(|spec| Query::new(&spec))
        .collect()
}

/// A 64-bit fingerprint of an answer: equal answers hash equal, and
/// aggregates are hashed by their exact bit patterns.
pub fn fingerprint(resp: &Response) -> u64 {
    fn output(o: &AggOutput, h: &mut DefaultHasher) {
        match o {
            AggOutput::Number(x) => x.to_bits().hash(h),
            AggOutput::TopK(pairs) => {
                for (x, c) in pairs {
                    (x.to_bits(), c).hash(h);
                }
            }
        }
    }
    let mut h = DefaultHasher::new();
    match resp {
        Response::Value(v) => {
            0u8.hash(&mut h);
            if let Some(v) = v {
                output(v, &mut h);
            }
        }
        Response::Rolled(r) => {
            1u8.hash(&mut h);
            if let Some((g, v)) = r {
                g.hash(&mut h);
                output(v, &mut h);
            }
        }
        Response::Rows(rows) => {
            2u8.hash(&mut h);
            rows.len().hash(&mut h);
            for (g, v) in rows {
                g.hash(&mut h);
                output(v, &mut h);
            }
        }
        Response::Ranked(rows) => {
            3u8.hash(&mut h);
            rows.len().hash(&mut h);
            for (g, x) in rows {
                g.hash(&mut h);
                x.to_bits().hash(&mut h);
            }
        }
        Response::Len(n) => (4u8, n).hash(&mut h),
        Response::Failed(msg) => (5u8, msg).hash(&mut h),
    }
    h.finish()
}

/// One answered query: its position in the stream, its client-observed
/// latency, the server queue wait (profiled runs only), and its answer's
/// fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Answered {
    pub idx: usize,
    pub lat_us: f64,
    pub queue_us: f64,
    pub fp: u64,
}

/// Sizing of one serving window.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    pub clients: usize,
    pub workers: usize,
    /// Send queries through the flight-recorder path (the traced run).
    pub profiled: bool,
}

/// Everything one serving window observed.
#[derive(Debug, Default)]
pub struct Window {
    pub answered: Vec<Answered>,
    /// Stream positions of queries that ended without an answer.
    pub errored: Vec<usize>,
    pub overload_rejections: u64,
    pub wall_s: f64,
    pub client: ClientStats,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Window {
    pub fn attempted(&self) -> u64 {
        (self.answered.len() + self.errored.len()) as u64
    }

    /// Fold another window's observations into this one.
    pub fn absorb(&mut self, other: Window) {
        self.answered.extend(other.answered);
        self.errored.extend(other.errored);
        self.overload_rejections += other.overload_rejections;
        self.wall_s += other.wall_s;
        self.client.retries += other.client.retries;
        self.client.hedges_fired += other.client.hedges_fired;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }

    pub fn qps(&self) -> f64 {
        self.answered.len() as f64 / self.wall_s.max(1e-9)
    }

    /// Raw latency samples, all kinds together.
    pub fn latencies(&self) -> Samples {
        self.answered.iter().map(|a| a.lat_us).collect()
    }

    /// Raw latency samples of one kind.
    pub fn latencies_of(&self, queries: &[Query], kind: usize) -> Samples {
        self.answered
            .iter()
            .filter(|a| queries[a.idx % queries.len()].kind == kind)
            .map(|a| a.lat_us)
            .collect()
    }

    pub fn queue_waits(&self) -> Samples {
        self.answered.iter().map(|a| a.queue_us).collect()
    }

    pub fn hit_rate(&self) -> f64 {
        self.cache_hits as f64 / (self.cache_hits + self.cache_misses).max(1) as f64
    }
}

/// Serve `queries` (cycled from the shared `cursor`) against `store` from
/// `cfg.clients` closed-loop client threads, until `stop` rejects the next
/// stream position a client draws.
pub fn serve(
    store: &Arc<CubeStore>,
    queries: &[Query],
    cursor: &AtomicUsize,
    cfg: ServeConfig,
    stop: &(dyn Fn(usize) -> bool + Sync),
) -> Window {
    let before = store.stats();
    let server = Arc::new(CubeServer::start(
        Arc::clone(store),
        ServerConfig {
            workers: cfg.workers,
            queue_capacity: 64,
            ..ServerConfig::default()
        },
    ));
    let client = ResilientClient::new(Arc::clone(&server), ClientConfig::default())
        .expect("default client config is valid");
    let t0 = Instant::now();
    let per_client: Vec<Window> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients.max(1))
            .map(|_| scope.spawn(|| client_loop(&client, queries, cursor, cfg.profiled, stop)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut window = Window {
        wall_s: t0.elapsed().as_secs_f64(),
        client: client.stats(),
        ..Window::default()
    };
    for w in per_client {
        window.absorb(w);
    }
    drop(client);
    Arc::try_unwrap(server)
        .unwrap_or_else(|_| panic!("server still shared after the window"))
        .shutdown();
    let after = store.stats();
    window.cache_hits = after.cache_hits - before.cache_hits;
    window.cache_misses = after.cache_misses - before.cache_misses;
    window
}

fn client_loop(
    client: &ResilientClient,
    queries: &[Query],
    cursor: &AtomicUsize,
    profiled: bool,
    stop: &(dyn Fn(usize) -> bool + Sync),
) -> Window {
    let mut w = Window::default();
    loop {
        let idx = cursor.fetch_add(1, Ordering::Relaxed);
        if stop(idx) {
            break;
        }
        let req = &queries[idx % queries.len()].req;
        let t0 = Instant::now();
        let (result, queue_us) = loop {
            let (result, queue_us) = if profiled {
                let p = client.query_profiled(req.clone(), None);
                (p.result, p.phases.queue_us as f64)
            } else {
                (client.query(req.clone(), None), 0.0)
            };
            if let Err(ServeError::Overloaded { .. }) = result {
                w.overload_rejections += 1;
                std::thread::yield_now();
                continue;
            }
            break (result, queue_us);
        };
        let lat_us = t0.elapsed().as_secs_f64() * 1e6;
        match result {
            Ok(resp) if !matches!(resp, Response::Failed(_)) => w.answered.push(Answered {
                idx,
                lat_us,
                queue_us,
                fp: fingerprint(&resp),
            }),
            _ => w.errored.push(idx),
        }
    }
    w
}

/// The reference answer: [`answer`] over the in-memory index, except that
/// slices filter the index in place instead of copying the whole cuboid
/// first (same rows, same order).
fn reference_answer(index: &CubeQuery<'_>, req: &Request) -> Response {
    match req {
        Request::Slice { mask, dim, value } => match index.slice(*mask, *dim, value) {
            Ok(rows) => Response::Rows(
                rows.into_iter()
                    .map(|(g, v)| (g.clone(), v.clone()))
                    .collect(),
            ),
            Err(e) => Response::Failed(e.to_string()),
        },
        _ => answer(index, req),
    }
}

/// Replay the answered queries against `reference` (a cube over `d`
/// dimensions), compare fingerprints, and return how many differ: each is
/// a failed operation. Repeated requests are answered by the reference
/// once.
pub fn check_answers<'a>(
    answered: impl IntoIterator<Item = &'a Answered>,
    queries: &[Query],
    reference: &Cube,
    d: usize,
) -> u64 {
    let index = CubeQuery::new(reference, d);
    let mut memo: BTreeMap<u64, u64> = BTreeMap::new();
    let mut mismatched = 0;
    for a in answered {
        let q = &queries[a.idx % queries.len()];
        let expect = *memo
            .entry(q.key)
            .or_insert_with(|| fingerprint(&reference_answer(&index, &q.req)));
        if expect != a.fp {
            mismatched += 1;
            if mismatched <= 3 {
                eprintln!("answer mismatch on query {}: {:?}", a.idx, q.req);
            }
        }
    }
    mismatched
}

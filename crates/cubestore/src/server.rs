//! Concurrent query-serving front-end over a [`CubeStore`].
//!
//! The ROADMAP's north star is a cube that "serves heavy traffic", so the
//! read path gets a real serving shape: a fixed pool of worker threads
//! drains a bounded request queue; when the queue is full, submission
//! fails *immediately* with a typed [`ServeError::Overloaded`] instead of
//! blocking the caller — load shedding at the front door, like any
//! production thread-pool server.
//!
//! Each request carries a one-shot response channel and an optional
//! [`Deadline`] against the server's [`Clock`]. The deadline is checked
//! at three points — admission, dequeue, and after the segment fetch but
//! before the scan — so a query that cannot finish in budget costs as
//! little worker time as possible and always yields the typed
//! [`ServeError::DeadlineExceeded`], never a silently dropped channel.
//! Shutdown is graceful but bounded: queued work gets a grace period to
//! drain, and anything still queued when it expires receives a typed
//! [`ServeError::ShuttingDown`]. A worker that panics shuts the server
//! down the same way, so no submitter waits on an answer that cannot
//! come.
//!
//! Workers read through the shared store (one `Arc<CubeStore>`; its
//! segment cache and counters are already thread-safe), so concurrent
//! queries against hot cuboids hit the same cached segments. Each query
//! fetches its cuboid's segment once and is answered from it, so it
//! counts one cache hit or miss, deadline or not.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use spcube_agg::AggOutput;
use spcube_common::sync::{assert_unlocked, lock_or_recover, wait_or_recover};
use spcube_common::{Error, Group, Mask, Value};
use spcube_cubealg::{check_cuboid, roll_up_cuboid, slice_slot, CubeRead};
use spcube_obs::ctx as flightctx;
use spcube_obs::{names, Clock, FlightName, FlightRec, ObsHandle, QueryCtx, Stopwatch};

use crate::store::CubeStore;

/// One OLAP query, self-contained (owned values).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A single group's aggregate.
    Point { mask: Mask, key: Vec<Value> },
    /// All groups of `mask` with `dim = value`.
    Slice {
        mask: Mask,
        dim: usize,
        value: Value,
    },
    /// The `n` largest groups of `mask` by scalar aggregate.
    TopK { mask: Mask, n: usize },
    /// The coarser group obtained by dropping `dim` from `group`.
    RollUp { group: Group, dim: usize },
    /// Number of groups in `mask`.
    CuboidLen { mask: Mask },
}

impl Request {
    /// The cuboid this request reads — the segment a worker must fetch
    /// before it can answer. Roll-ups read the *coarse* cuboid (the
    /// default [`CubeRead::roll_up`] projects and then points into it).
    pub fn cuboid(&self) -> Mask {
        match self {
            Request::Point { mask, .. } => *mask,
            Request::Slice { mask, .. } => *mask,
            Request::TopK { mask, .. } => *mask,
            Request::RollUp { group, dim } => group.mask.without(*dim),
            Request::CuboidLen { mask } => *mask,
        }
    }

    /// A caller's mistake the request shows on its face, as the error
    /// the read path gives for it: a cuboid outside the store's `dims`
    /// dimensions, a point key whose arity is not its cuboid's, or a
    /// slice or roll-up on a dimension its cuboid does not group. Workers
    /// check this before the fetch, so a bad request never costs a cache
    /// access or evicts a segment; it comes back as the typed
    /// [`ServeError::BadRequest`], which no client retries.
    fn misuse(&self, dims: usize) -> Option<Error> {
        let mask = match self {
            Request::RollUp { group, .. } => group.mask,
            _ => self.cuboid(),
        };
        if let Err(e) = check_cuboid(mask, dims) {
            return Some(e);
        }
        match self {
            Request::Point { mask, key } if key.len() != mask.arity() as usize => {
                Some(Error::Config(format!(
                    "point key has {} values but cuboid {mask} groups {}",
                    key.len(),
                    mask.arity()
                )))
            }
            Request::Slice { mask, dim, .. } => slice_slot(*mask, *dim).err(),
            Request::RollUp { group, dim } => roll_up_cuboid(group, *dim).err(),
            Request::Point { .. } | Request::TopK { .. } | Request::CuboidLen { .. } => None,
        }
    }
}

/// The answer to one [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Point / roll-up result (`None`: no such group).
    Value(Option<AggOutput>),
    /// Roll-up result with the coarse group attached.
    Rolled(Option<(Group, AggOutput)>),
    /// Slice result rows.
    Rows(Vec<(Group, AggOutput)>),
    /// Top-k ranking.
    Ranked(Vec<(Group, f64)>),
    /// Cuboid size.
    Len(usize),
    /// The query itself failed: a storage fault the store could not
    /// recover from (e.g. a corrupt segment with no recovery relation
    /// attached), or, from [`answer`] over an in-memory cube, a caller's
    /// mistake. The server refuses the latter up front with
    /// [`ServeError::BadRequest`].
    Failed(String),
}

/// A point on the server's clock by which a request must be answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Deadline {
    /// Absolute reading, in microseconds on the server's [`Clock`].
    pub at_us: u64,
}

/// Why a request was refused or abandoned, typed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded queue is full — shed load and retry later.
    Overloaded {
        /// The configured queue capacity that was exceeded.
        capacity: usize,
    },
    /// The server is shutting down and accepts no new work (or shed this
    /// already-queued request when the shutdown grace expired).
    ShuttingDown,
    /// The request's deadline passed before an answer was produced.
    DeadlineExceeded,
    /// The request is a caller's mistake (a cuboid outside the store, a
    /// point key of the wrong arity, a dimension its cuboid does not
    /// group): retrying it cannot help, and no storage failed.
    BadRequest(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { capacity } => {
                write!(f, "server overloaded: request queue at capacity {capacity}")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            ServeError::BadRequest(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ServeError {}

/// Grace [`CubeServer::shutdown`] gives queued work before shedding it.
pub const DEFAULT_SHUTDOWN_GRACE_US: u64 = 5_000_000;

/// Worker-pool and queue sizing.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Fixed number of worker threads.
    pub workers: usize,
    /// Maximum queued (not yet picked up) requests.
    pub queue_capacity: usize,
    /// The clock deadlines are checked against. Defaults to host time;
    /// tests pass [`Clock::mock`] for deterministic deadline behavior.
    pub clock: Arc<Clock>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            clock: Arc::new(Clock::wall()),
        }
    }
}

/// Serving counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Requests answered (including `Failed` answers).
    pub served: u64,
    /// Submissions rejected with [`ServeError::Overloaded`].
    pub rejected: u64,
    /// Requests refused or abandoned with
    /// [`ServeError::DeadlineExceeded`], at any check point.
    pub deadline_exceeded: u64,
}

/// Which copy of a request an answer belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attempt {
    /// The request as first submitted.
    Primary,
    /// A hedged duplicate of a slow primary.
    Hedge,
}

/// A worker's answer to one submission, tagged with the attempt it
/// answers.
pub type Answer = (Attempt, Result<Response, ServeError>);

/// A reply channel for submissions — the serving path's one unbounded
/// channel, holding at most one answer per submission made on it. The
/// attempt tag on every answer lets both attempts of a hedged query share
/// one channel, so its client blocks in one `recv` for whichever lands
/// first.
#[expect(
    clippy::disallowed_methods,
    reason = "one answer per submission bounds it; the admission gate bounds submissions"
)]
pub(crate) fn reply_channel() -> (mpsc::Sender<Answer>, mpsc::Receiver<Answer>) {
    mpsc::channel()
}

/// Block for the next answer on a reply channel. A closed channel means
/// every sender is gone: the server shut down.
pub(crate) fn recv_answer(rx: &mpsc::Receiver<Answer>) -> Result<Answer, ServeError> {
    assert_unlocked();
    rx.recv().map_err(|_| ServeError::ShuttingDown)
}

/// Where a worker sends one request's answer.
struct ReplyTo {
    tx: mpsc::Sender<Answer>,
    attempt: Attempt,
}

impl ReplyTo {
    /// Send the tagged answer. The submitter may have given up (or
    /// already taken the other attempt's answer); a dead receiver is fine.
    fn deliver(self, outcome: Result<Response, ServeError>) {
        assert_unlocked();
        let _ = self.tx.send((self.attempt, outcome));
    }
}

/// Flight-recorder context riding one queued request: the query's
/// [`QueryCtx`] plus its admission timestamp on the obs clock, so the
/// worker can close the queue-wait span from the other side of the
/// thread hop.
#[derive(Debug, Clone)]
pub struct Flight {
    /// The query's flight context (trace id, root span, phase totals).
    pub ctx: QueryCtx,
    /// Admission timestamp, µs on the obs (flight-recorder) clock.
    pub admit_us: u64,
}

struct Queue {
    jobs: VecDeque<(Request, Option<Deadline>, Option<Flight>, ReplyTo)>,
    shutting_down: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    wake: Condvar,
    capacity: usize,
    clock: Arc<Clock>,
    served: AtomicU64,
    rejected: AtomicU64,
    deadline_exceeded: AtomicU64,
}

impl Shared {
    /// Close admission and answer everything still queued with a typed
    /// [`ServeError::ShuttingDown`] (never a dropped channel). Drains
    /// under the lock and replies after releasing it: a reply is channel
    /// IO and must not run under the queue guard.
    fn shed_queued(&self) {
        let shed: Vec<ReplyTo> = {
            let mut q = lock_or_recover(&self.queue);
            q.shutting_down = true;
            q.jobs
                .drain(..)
                .map(|(_req, _dl, _fl, reply)| reply)
                .collect()
        };
        self.wake.notify_all();
        for reply in shed {
            reply.deliver(Err(ServeError::ShuttingDown));
        }
    }
}

/// Armed for a worker's whole life, so queries pay nothing for it. A
/// worker that unwinds takes the server down typed: admission closes and
/// every queued request is answered [`ServeError::ShuttingDown`] instead
/// of waiting forever on a sender no worker will use. The unwind drops
/// the sender of the request the worker held, which its submitter reads
/// as `ShuttingDown` too.
struct WorkerExit<'a>(&'a Shared);

impl Drop for WorkerExit<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.shed_queued();
        }
    }
}

/// Count one deadline miss: stat and obs counter, at the exact check
/// point that fired.
fn note_deadline_miss(shared: &Shared, obs: &ObsHandle) {
    shared.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    obs.inc(names::SERVE_DEADLINE_EXCEEDED, &[]);
}

/// A running worker-pool server over one shared store.
pub struct CubeServer {
    store: Arc<CubeStore>,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl CubeServer {
    /// Start `cfg.workers` workers serving from `store`.
    pub fn start(store: Arc<CubeStore>, cfg: ServerConfig) -> CubeServer {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutting_down: false,
            }),
            wake: Condvar::new(),
            capacity: cfg.queue_capacity.max(1),
            clock: cfg.clock,
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let store = Arc::clone(&store);
                std::thread::spawn(move || worker_loop(&shared, &store))
            })
            .collect();
        CubeServer {
            store,
            shared,
            workers,
        }
    }

    /// Enqueue a request with no deadline; the response arrives on the
    /// returned channel. Fails fast with [`ServeError::Overloaded`] when
    /// the queue is full.
    pub fn submit(&self, req: Request) -> Result<mpsc::Receiver<Answer>, ServeError> {
        self.submit_at(req, None)
    }

    /// Enqueue a request with an optional deadline. An already-expired
    /// deadline is refused at admission without queueing.
    pub fn submit_at(
        &self,
        req: Request,
        deadline: Option<Deadline>,
    ) -> Result<mpsc::Receiver<Answer>, ServeError> {
        let (tx, rx) = reply_channel();
        self.submit_traced(req, deadline, None, tx, Attempt::Primary)?;
        Ok(rx)
    }

    /// Enqueue a request carrying a flight-recorder context, to be
    /// answered on `reply` under the tag `attempt`, so both attempts of a
    /// hedged query can share one channel. The admission timestamp is
    /// read on the obs clock (not the server's deadline clock) so
    /// profiled runs never perturb mock-clock deadline arithmetic.
    pub fn submit_traced(
        &self,
        req: Request,
        deadline: Option<Deadline>,
        ctx: Option<QueryCtx>,
        reply: mpsc::Sender<Answer>,
        attempt: Attempt,
    ) -> Result<(), ServeError> {
        if let Some(dl) = deadline {
            if self.shared.clock.now_us() >= dl.at_us {
                note_deadline_miss(&self.shared, self.store.obs());
                return Err(ServeError::DeadlineExceeded);
            }
        }
        let flight = ctx.map(|ctx| Flight {
            admit_us: self.store.obs().flight_now_us(),
            ctx,
        });
        let mut q = lock_or_recover(&self.shared.queue);
        if q.shutting_down {
            return Err(ServeError::ShuttingDown);
        }
        if q.jobs.len() >= self.shared.capacity {
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded {
                capacity: self.shared.capacity,
            });
        }
        q.jobs
            .push_back((req, deadline, flight, ReplyTo { tx: reply, attempt }));
        drop(q);
        self.shared.wake.notify_one();
        Ok(())
    }

    /// Submit and block for the answer — the simple synchronous client.
    pub fn query(&self, req: Request) -> Result<Response, ServeError> {
        self.query_at(req, None)
    }

    /// Submit with a deadline and block for the answer.
    pub fn query_at(
        &self,
        req: Request,
        deadline: Option<Deadline>,
    ) -> Result<Response, ServeError> {
        let rx = self.submit_at(req, deadline)?;
        recv_answer(&rx)?.1
    }

    /// Current reading of the server's deadline clock, in microseconds.
    pub fn now_us(&self) -> u64 {
        self.shared.clock.now_us()
    }

    /// A deadline `budget_us` from now on the server's clock.
    pub fn deadline_in(&self, budget_us: u64) -> Deadline {
        Deadline {
            at_us: self.now_us().saturating_add(budget_us),
        }
    }

    /// The clock deadlines are checked against.
    pub fn clock(&self) -> &Arc<Clock> {
        &self.shared.clock
    }

    /// The serve-latency histogram, if the store has observability
    /// attached. Clients derive hedging delays from its quantiles.
    pub fn latency_histogram(&self) -> Option<Arc<spcube_obs::Histogram>> {
        self.store.obs().histogram(names::SERVE_QUERY_US, &[])
    }

    /// Serving counters so far.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            served: self.shared.served.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            deadline_exceeded: self.shared.deadline_exceeded.load(Ordering::Relaxed),
        }
    }

    /// The store this server answers from.
    pub fn store(&self) -> &Arc<CubeStore> {
        &self.store
    }

    /// Graceful shutdown with the default grace
    /// ([`DEFAULT_SHUTDOWN_GRACE_US`]): queued work drains, then workers
    /// stop and join.
    pub fn shutdown(self) -> ServerStats {
        self.shutdown_with_grace(DEFAULT_SHUTDOWN_GRACE_US)
    }

    /// Stop accepting work, give queued requests `grace_us` host
    /// microseconds to drain, shed whatever is still queued after that
    /// with a typed [`ServeError::ShuttingDown`] reply (never a dropped
    /// channel), then join the workers.
    pub fn shutdown_with_grace(mut self, grace_us: u64) -> ServerStats {
        {
            let mut q = lock_or_recover(&self.shared.queue);
            q.shutting_down = true;
        }
        self.shared.wake.notify_all();
        let t0 = Stopwatch::start();
        loop {
            if lock_or_recover(&self.shared.queue).jobs.is_empty() {
                break;
            }
            if (t0.seconds() * 1e6) as u64 >= grace_us {
                self.shared.shed_queued();
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        self.join_workers();
        self.stats()
    }

    /// Join every worker; the caller has already set `shutting_down`.
    fn join_workers(&mut self) {
        assert_unlocked();
        for w in self.workers.drain(..) {
            // A worker that panicked already shed the queue on its way
            // out (`WorkerExit`), so a failed join is not a second crash.
            let _ = w.join();
        }
    }
}

impl Drop for CubeServer {
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return; // already shut down
        }
        {
            let mut q = lock_or_recover(&self.shared.queue);
            q.shutting_down = true;
        }
        self.shared.wake.notify_all();
        self.join_workers();
    }
}

fn worker_loop(shared: &Shared, store: &CubeStore) {
    let _exit = WorkerExit(shared);
    // One registry lookup per worker; recording is then lock-free.
    let latency_us = store.obs().histogram(names::SERVE_QUERY_US, &[]);
    loop {
        let job = {
            let mut q = lock_or_recover(&shared.queue);
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break Some(job);
                }
                if q.shutting_down {
                    break None;
                }
                q = wait_or_recover(&shared.wake, q);
            }
        };
        let Some((req, deadline, flight, reply)) = job else {
            return;
        };
        // Flight context crossed the queue: close the queue-wait span
        // from this side of the thread hop (obs clock, not the deadline
        // clock, so profiled runs never perturb mock-clock deadlines).
        if let Some(fl) = &flight {
            let dequeue_us = store.obs().flight_now_us();
            let wait_us = dequeue_us.saturating_sub(fl.admit_us);
            fl.ctx.phases.set_queue(wait_us);
            store.obs().flight_emit(FlightRec::span(
                &fl.ctx,
                store.obs().flight_span_id(),
                FlightName::QueueWait,
                fl.admit_us,
                wait_us,
            ));
        }
        // Check 2 of 3: a request that expired while queued is shed
        // before any store work.
        if let Some(dl) = deadline {
            if shared.clock.now_us() >= dl.at_us {
                note_deadline_miss(shared, store.obs());
                reply.deliver(Err(ServeError::DeadlineExceeded));
                continue;
            }
        }
        let t0 = Stopwatch::start();
        // Fetch the query's segment once — on a cache miss the blob fetch
        // and decode are the expensive, faultable step — and answer from
        // it, so the query counts exactly one cache hit or miss. A
        // misused request is refused before the fetch and counts none.
        // Check 3 of 3 re-checks the budget between the fetch and the scan.
        let exec = || {
            if let Some(e) = req.misuse(store.dims()) {
                return Err(ServeError::BadRequest(e.to_string()));
            }
            match store.segment(req.cuboid()) {
                Err(e) => Ok(Response::Failed(e.to_string())),
                Ok(_) if deadline.is_some_and(|dl| shared.clock.now_us() >= dl.at_us) => {
                    note_deadline_miss(shared, store.obs());
                    Err(ServeError::DeadlineExceeded)
                }
                Ok(seg) => Ok(answer(seg.as_ref(), &req)),
            }
        };
        // The scope hands the flight context to the storage layer, which
        // sits behind `CubeRead` and cannot take a context parameter.
        let outcome = match &flight {
            Some(fl) => flightctx::scope(&fl.ctx, exec),
            None => exec(),
        };
        if outcome.is_ok() {
            if let Some(h) = &latency_us {
                h.record(t0.seconds() * 1e6);
            }
            shared.served.fetch_add(1, Ordering::Relaxed);
        }
        reply.deliver(outcome);
    }
}

/// Answer one request through the [`CubeRead`] interface. Generic so an
/// in-memory reference cube answers with the exact same dispatch
/// (bit-exact with store-served answers).
pub fn answer<R: CubeRead + ?Sized>(read: &R, req: &Request) -> Response {
    let result = match req {
        Request::Point { mask, key } => read.point(*mask, key).map(Response::Value),
        Request::Slice { mask, dim, value } => read.slice(*mask, *dim, value).map(Response::Rows),
        Request::TopK { mask, n } => read.top(*mask, *n).map(Response::Ranked),
        Request::RollUp { group, dim } => read.roll_up(group, *dim).map(Response::Rolled),
        Request::CuboidLen { mask } => read.cuboid_len(*mask).map(Response::Len),
    };
    result.unwrap_or_else(|e| Response::Failed(e.to_string()))
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "a raw gate wedges a worker while the test blocks in `query`, which the flat lock rule would refuse"
)]
mod tests {
    use super::*;
    use crate::store::{write_store, StoreStats};
    use spcube_agg::AggSpec;
    use spcube_common::{Relation, Schema};
    use spcube_cubealg::naive_cube;
    use spcube_mapreduce::Dfs;

    fn store_rel() -> Relation {
        let mut rel = Relation::empty(Schema::synthetic(2));
        for (dims, m) in [([1i64, 1], 1.0), ([1, 2], 2.0), ([2, 1], 3.0)] {
            rel.push_row(dims.iter().map(|&v| Value::Int(v)).collect(), m);
        }
        rel
    }

    fn serving_store() -> Arc<CubeStore> {
        let cube = naive_cube(&store_rel(), AggSpec::Sum);
        let dfs = Arc::new(Dfs::new());
        write_store(dfs.as_ref(), "s", &cube, 2, AggSpec::Sum, 1).expect("write");
        Arc::new(CubeStore::open(dfs, "s").expect("open"))
    }

    fn mock_config(workers: usize, queue_capacity: usize) -> ServerConfig {
        ServerConfig {
            workers,
            queue_capacity,
            clock: Arc::new(Clock::mock()),
        }
    }

    #[test]
    fn serves_all_request_kinds() {
        let server = CubeServer::start(serving_store(), ServerConfig::default());
        let point = server
            .query(Request::Point {
                mask: Mask(0b01),
                key: vec![Value::Int(1)],
            })
            .expect("point query");
        assert_eq!(point, Response::Value(Some(AggOutput::Number(3.0))));
        let len = server
            .query(Request::CuboidLen { mask: Mask(0b11) })
            .expect("len query");
        assert_eq!(len, Response::Len(3));
        let sliced = server
            .query(Request::Slice {
                mask: Mask(0b11),
                dim: 0,
                value: Value::Int(1),
            })
            .expect("slice query");
        match sliced {
            Response::Rows(rows) => assert_eq!(rows.len(), 2),
            other => panic!("unexpected response {other:?}"),
        }
        let ranked = server
            .query(Request::TopK {
                mask: Mask(0b01),
                n: 1,
            })
            .expect("topk query");
        match ranked {
            Response::Ranked(rows) => {
                assert_eq!(rows.len(), 1);
                assert_eq!(rows[0].1, 3.0);
            }
            other => panic!("unexpected response {other:?}"),
        }
        let rolled = server
            .query(Request::RollUp {
                group: Group::new(Mask(0b11), vec![Value::Int(1), Value::Int(1)]),
                dim: 1,
            })
            .expect("rollup query");
        match rolled {
            Response::Rolled(Some((g, v))) => {
                assert_eq!(g.mask, Mask(0b01));
                assert_eq!(v, AggOutput::Number(3.0));
            }
            other => panic!("unexpected response {other:?}"),
        }
        let stats = server.shutdown();
        assert_eq!(stats.served, 5);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.deadline_exceeded, 0);
    }

    #[test]
    fn request_cuboid_names_the_segment_each_kind_reads() {
        assert_eq!(
            Request::Point {
                mask: Mask(0b101),
                key: vec![]
            }
            .cuboid(),
            Mask(0b101)
        );
        assert_eq!(
            Request::RollUp {
                group: Group::new(Mask(0b11), vec![Value::Int(1), Value::Int(1)]),
                dim: 1,
            }
            .cuboid(),
            Mask(0b01),
            "roll-up reads the coarse cuboid"
        );
    }

    #[test]
    fn server_keeps_answering_while_a_rewrite_commits() {
        let mut rel = Relation::empty(Schema::synthetic(2));
        for (dims, m) in [([1i64, 1], 1.0), ([1, 2], 2.0), ([2, 1], 3.0)] {
            rel.push_row(dims.iter().map(|&v| Value::Int(v)).collect(), m);
        }
        let cube = naive_cube(&rel, AggSpec::Sum);
        let dfs = Arc::new(Dfs::new());
        write_store(dfs.as_ref(), "s", &cube, 2, AggSpec::Sum, 1).expect("write");
        let store = Arc::new(
            CubeStore::open(Arc::clone(&dfs) as Arc<dyn crate::BlobStore>, "s").expect("open"),
        );
        let server = CubeServer::start(Arc::clone(&store), ServerConfig::default());
        let probe = Request::Point {
            mask: Mask(0b01),
            key: vec![Value::Int(1)],
        };
        let before = server.query(probe.clone()).expect("pre-rewrite query");
        // A writer commits generation 2 (different aggregate — different
        // answers) while the server keeps serving the generation it
        // opened. GC keeps that generation's blobs alive.
        let cube2 = naive_cube(&rel, AggSpec::Count);
        write_store(dfs.as_ref(), "s", &cube2, 2, AggSpec::Count, 1).expect("rewrite");
        let after = server.query(probe).expect("mid-rewrite query");
        assert_eq!(before, after);
        assert_eq!(before, Response::Value(Some(AggOutput::Number(3.0))));
        assert_eq!(store.generation(), 1);
        let stats = server.shutdown();
        assert_eq!(stats.served, 2);
        // A fresh open sees the committed rewrite.
        let fresh = CubeStore::open(dfs, "s").expect("reopen");
        assert_eq!(fresh.generation(), 2);
    }

    #[test]
    fn bad_queries_fail_typed_not_crash() {
        let server = CubeServer::start(serving_store(), ServerConfig::default());
        // Slice on an ungrouped dimension is a typed refusal, not a panic.
        let err = server
            .query(Request::Slice {
                mask: Mask(0b01),
                dim: 1,
                value: Value::Int(1),
            })
            .expect_err("typed refusal");
        assert!(matches!(err, ServeError::BadRequest(_)), "{err:?}");
        server.shutdown();
    }

    #[test]
    fn expired_deadline_is_refused_at_admission() {
        let server = CubeServer::start(serving_store(), mock_config(1, 8));
        // Mock clock: deadline_in(0) reads t, the admission check reads
        // t + 1000 >= t — always expired.
        let dl = server.deadline_in(0);
        let err = server
            .query_at(Request::CuboidLen { mask: Mask(0b11) }, Some(dl))
            .expect_err("expired deadline");
        assert_eq!(err, ServeError::DeadlineExceeded);
        let stats = server.shutdown();
        assert_eq!(stats.served, 0);
        assert_eq!(stats.deadline_exceeded, 1);
    }

    #[test]
    fn deadline_expires_between_fetch_and_scan() {
        // Mock-clock arithmetic: readings advance 1000 µs each. With a
        // 3000 µs budget the admission (t+1000) and dequeue (t+2000)
        // checks pass, and the post-fetch check (t+3000) fires — the
        // "scan" stage miss.
        let server = CubeServer::start(serving_store(), mock_config(1, 8));
        let dl = server.deadline_in(3000);
        let err = server
            .query_at(Request::CuboidLen { mask: Mask(0b11) }, Some(dl))
            .expect_err("scan-stage miss");
        assert_eq!(err, ServeError::DeadlineExceeded);
        let stats = server.shutdown();
        assert_eq!(stats.deadline_exceeded, 1);
        assert_eq!(stats.served, 0);
    }

    #[test]
    fn each_query_counts_one_cache_access() {
        let store = serving_store();
        let server = CubeServer::start(Arc::clone(&store), mock_config(1, 8));
        // A deadline query on a cold cuboid: the fetch before the budget
        // re-check is its only cache access.
        let dl = server.deadline_in(1_000_000);
        let resp = server
            .query_at(Request::CuboidLen { mask: Mask(0b11) }, Some(dl))
            .expect("in-budget answer");
        assert_eq!(resp, Response::Len(3));
        let stats = store.stats();
        assert_eq!((stats.cache_misses, stats.cache_hits), (1, 0));
        // Without a deadline the count is the same.
        let resp = server
            .query(Request::CuboidLen { mask: Mask(0b01) })
            .expect("answer");
        assert_eq!(resp, Response::Len(2));
        let stats = store.stats();
        assert_eq!((stats.cache_misses, stats.cache_hits), (2, 0));
        server.shutdown();
    }

    #[test]
    fn a_misused_dimension_fails_before_the_fetch() {
        let store = serving_store();
        let server = CubeServer::start(Arc::clone(&store), mock_config(1, 8));
        let reference = naive_cube(&store_rel(), AggSpec::Sum);
        let reference = spcube_cubealg::CubeQuery::new(&reference, 2);
        let misused = [
            Request::Slice {
                mask: Mask(0b01),
                dim: 1,
                value: Value::Int(1),
            },
            Request::RollUp {
                group: Group::new(Mask(0b01), vec![Value::Int(1)]),
                dim: 1,
            },
        ];
        for req in misused {
            let err = server.query(req.clone()).expect_err("typed refusal");
            // The same text the read path gives.
            let Response::Failed(msg) = answer(&reference, &req) else {
                panic!("the read path accepts {req:?}");
            };
            assert_eq!(err, ServeError::BadRequest(msg));
        }
        let stats = store.stats();
        assert_eq!((stats.cache_misses, stats.cache_hits), (0, 0));
        server.shutdown();
    }

    #[test]
    fn out_of_range_cuboids_and_wrong_arity_keys_are_refused_typed() {
        // A 2-d store: masks with bit 2 or 3 set name no cuboid of it.
        let store = serving_store();
        let server = CubeServer::start(Arc::clone(&store), mock_config(1, 8));
        let reference = naive_cube(&store_rel(), AggSpec::Sum);
        let reference = spcube_cubealg::CubeQuery::new(&reference, 2);
        let one = || vec![Value::Int(1)];
        let out_of_range = [
            Request::CuboidLen { mask: Mask(0b100) },
            Request::Point {
                mask: Mask(0b1000),
                key: vec![],
            },
            Request::TopK {
                mask: Mask(0b1000),
                n: 3,
            },
            Request::Slice {
                mask: Mask(0b101),
                dim: 0,
                value: Value::Int(1),
            },
            Request::RollUp {
                group: Group::new(Mask(0b101), vec![Value::Int(1), Value::Int(1)]),
                dim: 2,
            },
        ];
        let misused = [
            // A dimension past the mask's 32 bits is grouped nowhere.
            Request::RollUp {
                group: Group::new(Mask(0b01), one()),
                dim: 40,
            },
            Request::Point {
                mask: Mask(0b11),
                key: one(),
            },
            Request::Point {
                mask: Mask(0b01),
                key: vec![Value::Int(1), Value::Int(2)],
            },
        ];
        for req in out_of_range.iter().chain(&misused) {
            let err = server.query(req.clone()).expect_err("typed refusal");
            let ServeError::BadRequest(msg) = err else {
                panic!("{req:?}: {err:?}");
            };
            // The store's own read path, before its cache, and the
            // in-memory reference refuse a cuboid outside them alike.
            if out_of_range.contains(req) {
                let refused = Response::Failed(msg);
                assert_eq!(answer(&*store, req), refused, "{req:?}");
                assert_eq!(answer(&reference, req), refused, "{req:?}");
            }
        }
        assert_eq!(
            server.query(Request::CuboidLen { mask: Mask(0b100) }),
            Err(ServeError::BadRequest(
                "configuration error: cuboid m100 is outside the store's 2 dimensions".into()
            ))
        );
        assert_eq!(
            server.query(Request::Point {
                mask: Mask(0b11),
                key: one(),
            }),
            Err(ServeError::BadRequest(
                "configuration error: point key has 1 values but cuboid m11 groups 2".into()
            ))
        );
        // Refused before the fetch, by the server and the store alike: no
        // cache access, nothing served.
        assert_eq!(store.stats(), StoreStats::default());
        assert_eq!(server.shutdown().served, 0);
    }

    #[test]
    fn generous_deadline_answers_normally() {
        let server = CubeServer::start(serving_store(), mock_config(2, 8));
        let dl = server.deadline_in(1_000_000);
        let resp = server
            .query_at(Request::CuboidLen { mask: Mask(0b11) }, Some(dl))
            .expect("in-budget answer");
        assert_eq!(resp, Response::Len(3));
        let stats = server.shutdown();
        assert_eq!(stats.served, 1);
        assert_eq!(stats.deadline_exceeded, 0);
    }

    /// A blob store whose reads block while the test holds the gate,
    /// wedging the worker mid-query so queue overflow is deterministic.
    /// With `panics`, a segment read panics once the gate opens.
    struct GatedBlobs {
        inner: Arc<Dfs>,
        gate: Arc<Mutex<()>>,
        panics: bool,
    }

    impl crate::blob::BlobStore for GatedBlobs {
        fn put(&self, path: &str, data: Vec<u8>) -> spcube_common::Result<()> {
            crate::blob::BlobStore::put(self.inner.as_ref(), path, data)
        }

        fn get(&self, path: &str) -> spcube_common::Result<Vec<u8>> {
            let _open = self.gate.lock().expect("gate");
            assert!(
                !(self.panics && path.ends_with(".cseg")),
                "injected panic reading {path}"
            );
            crate::blob::BlobStore::get(self.inner.as_ref(), path)
        }

        fn list(&self, prefix: &str) -> spcube_common::Result<Vec<(String, u64)>> {
            crate::blob::BlobStore::list(self.inner.as_ref(), prefix)
        }

        fn delete(&self, path: &str) -> spcube_common::Result<()> {
            crate::blob::BlobStore::delete(self.inner.as_ref(), path)
        }
    }

    /// A one-row store whose segment reads block on `gate`.
    fn gated_store(gate: &Arc<Mutex<()>>, panics: bool) -> Arc<CubeStore> {
        let mut rel = Relation::empty(Schema::synthetic(2));
        rel.push_row(vec![Value::Int(1), Value::Int(1)], 1.0);
        let cube = naive_cube(&rel, AggSpec::Sum);
        let dfs = Arc::new(Dfs::new());
        write_store(dfs.as_ref(), "s", &cube, 2, AggSpec::Sum, 1).expect("write");
        let blobs = Arc::new(GatedBlobs {
            inner: dfs,
            gate: Arc::clone(gate),
            panics,
        });
        // Opening reads the manifest while the gate is still open.
        Arc::new(CubeStore::open(blobs, "s").expect("open"))
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        let gate = Arc::new(Mutex::new(()));
        let store = gated_store(&gate, false);
        let server = CubeServer::start(
            store,
            ServerConfig {
                workers: 1,
                queue_capacity: 1,
                ..ServerConfig::default()
            },
        );

        // Close the gate: the single worker wedges inside its first fetch,
        // the queue holds one more request, and the next must be shed.
        let closed = gate.lock().expect("gate");
        let req = || Request::CuboidLen { mask: Mask(0b11) };
        let mut receivers = Vec::new();
        let rejection = loop {
            match server.submit(req()) {
                Ok(rx) => receivers.push(rx), // at most worker-held + queued = 2
                Err(e) => break e,
            }
            assert!(
                receivers.len() <= 2,
                "queue of capacity 1 accepted too much"
            );
        };
        assert_eq!(rejection, ServeError::Overloaded { capacity: 1 });
        assert!(server.stats().rejected >= 1);

        // Reopen the gate: everything accepted still gets answered.
        drop(closed);
        for rx in receivers {
            assert_eq!(rx.recv().expect("answer").1, Ok(Response::Len(1)));
        }
        server.shutdown();
    }

    #[test]
    fn queue_sheds_expired_requests_at_dequeue() {
        let gate = Arc::new(Mutex::new(()));
        let store = gated_store(&gate, false);
        let server = CubeServer::start(
            store,
            ServerConfig {
                workers: 1,
                queue_capacity: 4,
                clock: Arc::new(Clock::mock()),
            },
        );
        // Wedge the worker on a no-deadline request, then queue one whose
        // deadline will expire while it waits.
        let closed = gate.lock().expect("gate");
        let wedged = server
            .submit(Request::CuboidLen { mask: Mask(0b11) })
            .expect("wedge");
        std::thread::sleep(std::time::Duration::from_millis(20)); // worker picks it up
        let dl = server.deadline_in(2000); // reading t → expires at t+2000
        let queued = server
            .submit_at(Request::CuboidLen { mask: Mask(0b11) }, Some(dl))
            .expect("queued before expiry"); // admission reads t+1000 < t+2000
                                             // Advance the mock clock past the deadline while the request waits.
        server.now_us(); // t+2000
        server.now_us(); // t+3000
        drop(closed);
        assert_eq!(
            queued.recv().expect("typed reply").1,
            Err(ServeError::DeadlineExceeded),
            "expired request must be shed at dequeue, not answered"
        );
        assert_eq!(
            wedged.recv().expect("wedged answer").1,
            Ok(Response::Len(1))
        );
        let stats = server.shutdown();
        assert_eq!(stats.deadline_exceeded, 1);
        assert_eq!(stats.served, 1);
    }

    #[test]
    fn shutdown_drains_pending_requests() {
        let server = CubeServer::start(
            serving_store(),
            ServerConfig {
                workers: 2,
                queue_capacity: 32,
                ..ServerConfig::default()
            },
        );
        let receivers: Vec<_> = (0..20)
            .map(|_| {
                server
                    .submit(Request::CuboidLen { mask: Mask(0b11) })
                    .expect("submit")
            })
            .collect();
        let stats = server.shutdown();
        for rx in receivers {
            assert_eq!(rx.recv().expect("answer").1, Ok(Response::Len(3)));
        }
        assert_eq!(stats.served, 20);
    }

    #[test]
    fn zero_grace_shutdown_sheds_queued_work_typed() {
        let gate = Arc::new(Mutex::new(()));
        let store = gated_store(&gate, false);
        let server = CubeServer::start(
            store,
            ServerConfig {
                workers: 1,
                queue_capacity: 4,
                ..ServerConfig::default()
            },
        );
        let closed = gate.lock().expect("gate");
        let req = || Request::CuboidLen { mask: Mask(0b11) };
        let wedged = server.submit(req()).expect("wedge");
        std::thread::sleep(std::time::Duration::from_millis(20)); // worker picks it up
        let queued_a = server.submit(req()).expect("queued a");
        let queued_b = server.submit(req()).expect("queued b");

        // Shut down with zero grace from another thread (joining blocks
        // until the gate opens); the queued-but-unstarted requests must
        // get typed ShuttingDown replies immediately.
        let shutdown = std::thread::spawn(move || server.shutdown_with_grace(0));
        assert_eq!(
            queued_a.recv().expect("typed reply").1,
            Err(ServeError::ShuttingDown)
        );
        assert_eq!(
            queued_b.recv().expect("typed reply").1,
            Err(ServeError::ShuttingDown)
        );
        // The in-flight request still completes once the store unblocks.
        drop(closed);
        assert_eq!(wedged.recv().expect("answer").1, Ok(Response::Len(1)));
        let stats = shutdown.join().expect("shutdown join");
        assert_eq!(stats.served, 1);
    }

    #[test]
    fn a_panicking_worker_sheds_its_queue_typed() {
        // One worker, three requests: the first is in the worker when its
        // segment read panics, two wait in the queue. Every wait is
        // bounded, so a stranded submitter fails the test, not the suite.
        let gate = Arc::new(Mutex::new(()));
        let server = CubeServer::start(gated_store(&gate, true), mock_config(1, 4));
        let closed = gate.lock().expect("gate");
        let req = || Request::CuboidLen { mask: Mask(0b11) };
        let in_worker = server.submit(req()).expect("first");
        std::thread::sleep(std::time::Duration::from_millis(20)); // worker picks it up
        let queued = [
            server.submit(req()).expect("queued a"),
            server.submit(req()).expect("queued b"),
        ];
        drop(closed);
        let wait = std::time::Duration::from_secs(10);
        assert_eq!(
            in_worker.recv_timeout(wait).map(|(_, outcome)| outcome),
            Err(mpsc::RecvTimeoutError::Disconnected),
            "the panicking worker's own request"
        );
        for rx in queued {
            let (_, outcome) = rx.recv_timeout(wait).expect("a typed reply, not a hang");
            assert_eq!(outcome, Err(ServeError::ShuttingDown));
        }
        assert_eq!(
            server.submit(req()).expect_err("admission closed"),
            ServeError::ShuttingDown
        );
        assert_eq!(server.shutdown().served, 0);
    }

    /// The message of the panic `call` raises while this thread holds a
    /// checked lock.
    #[cfg(debug_assertions)]
    fn panic_under_lock(call: impl FnOnce()) -> String {
        let m = Mutex::new(());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = lock_or_recover(&m);
            call();
        }));
        let err = caught.expect_err("a blocking call under a held lock panics");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    /// Each blocking call of the serving path — a worker's reply `send`,
    /// a submitter's `recv`, the shutdown `join` — panics under a held
    /// lock before it blocks, naming its own site and the lock's.
    #[cfg(debug_assertions)]
    #[test]
    fn blocking_under_a_held_lock_panics() {
        let mut server = CubeServer::start(serving_store(), ServerConfig::default());
        let rx = server
            .submit(Request::CuboidLen { mask: Mask(0b11) })
            .expect("submit");
        let (tx, _open) = reply_channel();
        let reply = ReplyTo {
            tx,
            attempt: Attempt::Primary,
        };
        for msg in [
            panic_under_lock(|| reply.deliver(Ok(Response::Len(0)))),
            panic_under_lock(|| drop(recv_answer(&rx))),
            panic_under_lock(|| server.join_workers()),
        ] {
            assert!(
                msg.starts_with("flat lock rule: blocking call at "),
                "{msg}"
            );
            assert_eq!(msg.matches("server.rs:").count(), 2, "{msg}");
        }
        // Nothing blocked: the answer is still there, the workers still run.
        assert_eq!(recv_answer(&rx).expect("answer").1, Ok(Response::Len(3)));
        assert_eq!(server.shutdown().served, 1);
    }

    #[test]
    fn submitting_after_shutdown_is_typed() {
        let server = CubeServer::start(serving_store(), ServerConfig::default());
        {
            let mut q = server.shared.queue.lock().expect("queue lock");
            q.shutting_down = true;
        }
        assert_eq!(
            server
                .submit(Request::CuboidLen { mask: Mask(0b01) })
                .expect_err("typed shutdown error"),
            ServeError::ShuttingDown
        );
    }
}

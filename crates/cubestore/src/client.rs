//! A resilient serving client: bounded retries, hedged attempts, and a
//! per-cuboid circuit breaker over [`CubeServer`].
//!
//! The server answers or fails each request exactly once; making the
//! query path *survive* storage faults is the client's job, mirroring how
//! Dremel/BigQuery-style serving tiers wrap their storage RPCs:
//!
//! * **Bounded retries** — a `Failed` answer (e.g. an injected blob-read
//!   fault) is retried up to [`ClientConfig::max_attempts`] times with
//!   the shared [`Backoff`] schedule from `spcube_common::retry`,
//!   deterministically jittered. Typed refusals (overload, shutdown,
//!   deadline, bad request) are returned immediately — retrying an
//!   overloaded server amplifies the overload, a blown deadline is
//!   already final, and a caller's mistake fails the same way every time
//!   and says nothing about the cuboid's storage, so it never counts
//!   toward a breaker.
//! * **Hedging** — after a p99-derived delay (from the server's live
//!   [`names::SERVE_QUERY_US`] histogram, clamped to a fixed band), a
//!   second copy of a slow request is submitted and whichever answer
//!   lands first wins. Hedging turns a latency-spiked blob read into a
//!   near-median read at the cost of one duplicate request.
//! * **Circuit breaker** — repeated failures against one cuboid trip a
//!   per-cuboid breaker: while open, queries skip the server entirely and
//!   fail typed (`Response::Failed`), shedding load from a cuboid the
//!   store cannot serve. After a cooldown on the server's clock the
//!   breaker half-opens: one trial request goes through; success closes
//!   the breaker, failure re-opens it.
//!
//! The client never computes an answer itself. Recomputing a damaged
//! cuboid is the store's degraded read path, and rewriting it is the
//! scrubber's job.
//!
//! Every decision is observable: `serve.hedge.fired`, `serve.hedge.won`,
//! `serve.breaker.open`, and `serve.breaker.shed` counters match
//! [`ClientStats`] exactly, and each is a flight event in the trace of
//! a profiled query it happens to.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use spcube_common::retry::Backoff;
use spcube_common::sync::{assert_unlocked, lock_or_recover};
use spcube_common::{Error, Mask, Result};
use spcube_obs::{
    names, FlightLabel, FlightName, FlightRec, Histogram, ObsHandle, PhaseBreakdown, QueryCtx,
};

use crate::server::{
    recv_answer, reply_channel, Answer, Attempt, CubeServer, Deadline, Request, Response,
    ServeError,
};

/// Delay schedule between retries, in seconds.
const BACKOFF: Backoff = Backoff::Exponential {
    base_s: 0.0005,
    factor: 2.0,
};
/// Seed for the deterministic retry jitter.
const RETRY_SEED: u64 = 0;
/// Latency quantile the hedge delay is derived from.
const HEDGE_QUANTILE: f64 = 0.99;
/// Lower clamp on the hedge delay (also the cold-start delay while the
/// latency histogram is still empty), microseconds.
const MIN_HEDGE_DELAY_US: u64 = 200;
/// Upper clamp on the hedge delay, microseconds. The cap is what keeps
/// hedging useful under heavy-tailed latency: p99 of a spiky distribution
/// converges to the spike itself.
const MAX_HEDGE_DELAY_US: u64 = 10_000;
/// Consecutive `Failed` answers for one cuboid that trip its breaker.
const BREAKER_THRESHOLD: u32 = 3;
/// How long a tripped breaker stays open before half-opening,
/// microseconds on the server's clock.
const BREAKER_COOLDOWN_US: u64 = 50_000;

/// Outcome of a resilient query: the server's answer (or the open
/// breaker's typed `Failed`), or a typed refusal that the client
/// deliberately does not retry.
pub type ServeResult = std::result::Result<Response, ServeError>;

/// Outcome of one [`ResilientClient::query_profiled`] call: the answer
/// plus the query's flight-trace identity and phase decomposition.
#[derive(Debug)]
pub struct ProfiledResult {
    /// The resilient query's outcome.
    pub result: ServeResult,
    /// Trace id of the query's flight trace (0 when obs is disabled).
    pub trace_id: u64,
    /// End-to-end latency decomposed into serving phases.
    pub phases: PhaseBreakdown,
    /// Whether the tail sampler persisted the trace.
    pub kept: bool,
}

/// Retry and hedging policy. The backoff schedule, the hedge-delay band
/// and the breaker's threshold and cooldown are fixed in this module.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Attempts per query (1 = no retries).
    pub max_attempts: u32,
    /// Launch a hedged second attempt for slow requests.
    pub hedge: bool,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            max_attempts: 3,
            hedge: false,
        }
    }
}

impl ClientConfig {
    /// Reject nonsensical policies.
    pub fn validate(&self) -> Result<()> {
        if self.max_attempts == 0 {
            return Err(Error::Config("client needs at least one attempt".into()));
        }
        Ok(())
    }
}

/// Client-side resilience counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientStats {
    /// Requests submitted (primary attempts, not hedges).
    pub attempts: u64,
    /// Retries after a `Failed` answer.
    pub retries: u64,
    /// Hedged second attempts launched.
    pub hedges_fired: u64,
    /// Hedged attempts that answered before their primary.
    pub hedges_won: u64,
    /// Breaker transitions into the open state.
    pub breaker_opens: u64,
    /// Queries an open breaker refused with a typed `Failed` without
    /// reaching the server.
    pub shed: u64,
}

/// Per-cuboid breaker state: consecutive failures, and the clock reading
/// until which the breaker holds open (None = closed).
#[derive(Debug, Default, Clone, Copy)]
struct Breaker {
    fails: u32,
    open_until_us: Option<u64>,
}

/// A retrying, hedging, breaker-guarded client over one [`CubeServer`].
pub struct ResilientClient {
    server: Arc<CubeServer>,
    cfg: ClientConfig,
    breakers: Mutex<BTreeMap<Mask, Breaker>>,
    attempts: AtomicU64,
    retries: AtomicU64,
    hedges_fired: AtomicU64,
    hedges_won: AtomicU64,
    breaker_opens: AtomicU64,
    shed: AtomicU64,
    /// Client-observed attempt latencies (includes queue wait); the
    /// hedge delay falls back to this when the server's store has no
    /// observability handle and thus no serve-latency histogram.
    observed_us: Histogram,
    obs: ObsHandle,
}

impl std::fmt::Debug for ResilientClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientClient")
            .field("cfg", &self.cfg)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl ResilientClient {
    /// Wrap `server` with the given policy.
    pub fn new(server: Arc<CubeServer>, cfg: ClientConfig) -> Result<ResilientClient> {
        cfg.validate()?;
        Ok(ResilientClient {
            server,
            cfg,
            breakers: Mutex::new(BTreeMap::new()),
            attempts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            hedges_fired: AtomicU64::new(0),
            hedges_won: AtomicU64::new(0),
            breaker_opens: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            observed_us: Histogram::new(),
            obs: ObsHandle::default(),
        })
    }

    /// Attach an observability handle for hedge/breaker/shed counters
    /// and events.
    pub fn with_obs(mut self, obs: ObsHandle) -> ResilientClient {
        self.obs = obs;
        self
    }

    /// The wrapped server.
    pub fn server(&self) -> &Arc<CubeServer> {
        &self.server
    }

    /// Client counters so far.
    pub fn stats(&self) -> ClientStats {
        ClientStats {
            attempts: self.attempts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            hedges_fired: self.hedges_fired.load(Ordering::Relaxed),
            hedges_won: self.hedges_won.load(Ordering::Relaxed),
            breaker_opens: self.breaker_opens.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }

    /// Query with the full resilience stack. Returns the server's answer
    /// (possibly `Response::Failed` after exhausted retries or when the
    /// cuboid's breaker is open), or the typed [`ServeError`] refusals,
    /// which are never retried.
    pub fn query(&self, req: Request, deadline: Option<Deadline>) -> ServeResult {
        self.query_ctx(req, deadline, None)
    }

    /// Query under the flight recorder: opens a [`QueryCtx`] on the
    /// store's obs handle, threads it through every attempt (retries,
    /// hedges, breaker decisions, the server queue, and the storage
    /// read path), then tail-samples the finished trace and returns the
    /// answer with its phase decomposition attached.
    pub fn query_profiled(&self, req: Request, deadline: Option<Deadline>) -> ProfiledResult {
        let obs = self.server.store().obs().clone();
        let Some(ctx) = obs.flight_begin() else {
            // No observability attached: plain query, empty profile.
            return ProfiledResult {
                result: self.query(req, deadline),
                trace_id: 0,
                phases: PhaseBreakdown::default(),
                kept: false,
            };
        };
        let start_us = obs.flight_now_us();
        let result = self.query_ctx(req, deadline, Some(&ctx));
        let total_us = obs.flight_now_us().saturating_sub(start_us);
        let missed = matches!(result, Err(ServeError::DeadlineExceeded));
        let errored = missed || matches!(&result, Err(_) | Ok(Response::Failed(_)));
        if missed {
            obs.flight_emit(FlightRec::event(
                &ctx,
                FlightName::DeadlineMiss,
                start_us + total_us,
            ));
        } else if errored {
            obs.flight_emit(FlightRec::event(
                &ctx,
                FlightName::Error,
                start_us + total_us,
            ));
        }
        let kept = obs.flight_finish(&ctx, start_us, total_us, errored, missed);
        ProfiledResult {
            result,
            trace_id: ctx.trace_id,
            phases: ctx.phases.breakdown(total_us),
            kept,
        }
    }

    fn query_ctx(
        &self,
        req: Request,
        deadline: Option<Deadline>,
        ctx: Option<&QueryCtx>,
    ) -> ServeResult {
        let mask = req.cuboid();
        let cuboid = Some((FlightLabel::Cuboid, u64::from(mask.0)));
        if self.breaker_open(mask) {
            self.flight_event(ctx, FlightName::Shed, cuboid);
            return Ok(self.shed(mask));
        }
        let mut last = Response::Failed("no attempt made".to_string());
        for attempt in 1..=self.cfg.max_attempts {
            if attempt > 1 {
                self.retries.fetch_add(1, Ordering::Relaxed);
                let label = Some((FlightLabel::Attempt, u64::from(attempt)));
                self.flight_event(ctx, FlightName::Retry, label);
                self.backoff_sleep(attempt - 1);
            }
            self.attempts.fetch_add(1, Ordering::Relaxed);
            match self.attempt_once(&req, deadline, ctx)? {
                Response::Failed(msg) => {
                    if self.note_failure(mask) {
                        // Breaker (re)opened: retrying a cuboid just
                        // declared unservable only adds load.
                        self.flight_event(ctx, FlightName::BreakerOpen, cuboid);
                        return Ok(Response::Failed(msg));
                    }
                    last = Response::Failed(msg);
                }
                resp => {
                    self.note_success(mask);
                    return Ok(resp);
                }
            }
        }
        Ok(last)
    }

    /// One server round-trip, hedged when configured. Records the
    /// client-observed attempt latency into [`Self::observed_us`].
    fn attempt_once(
        &self,
        req: &Request,
        deadline: Option<Deadline>,
        ctx: Option<&QueryCtx>,
    ) -> ServeResult {
        let t0 = self.server.now_us();
        let out = self.attempt_inner(req, deadline, ctx);
        self.observed_us
            .record(self.server.now_us().saturating_sub(t0) as f64);
        out
    }

    fn attempt_inner(
        &self,
        req: &Request,
        deadline: Option<Deadline>,
        ctx: Option<&QueryCtx>,
    ) -> ServeResult {
        // A hedge answers on the primary's channel, so the client blocks
        // in one `recv` for whichever attempt lands first.
        let (tx, rx) = reply_channel();
        let spare = self.cfg.hedge.then(|| tx.clone());
        self.server
            .submit_traced(req.clone(), deadline, ctx.cloned(), tx, Attempt::Primary)?;
        if let Some(spare) = spare {
            assert_unlocked();
            match rx.recv_timeout(Duration::from_micros(self.hedge_delay_us())) {
                Ok((_, outcome)) => return outcome,
                // The primary is slow: fire a duplicate and race the two.
                Err(_) => self.hedge(req, deadline, ctx, spare),
            }
        }
        let (attempt, outcome) = recv_answer(&rx)?;
        if attempt == Attempt::Hedge {
            self.hedges_won.fetch_add(1, Ordering::Relaxed);
            self.obs.inc(names::SERVE_HEDGE_WON, &[]);
            self.flight_event(ctx, FlightName::HedgeWon, None);
        }
        outcome
    }

    /// Submit a hedged duplicate of a slow primary, answering on `reply`.
    /// A refused hedge (queue full, shutting down) drops its sender with
    /// it, and the client waits out the primary alone.
    fn hedge(
        &self,
        req: &Request,
        deadline: Option<Deadline>,
        ctx: Option<&QueryCtx>,
        reply: mpsc::Sender<Answer>,
    ) {
        if self
            .server
            .submit_traced(req.clone(), deadline, ctx.cloned(), reply, Attempt::Hedge)
            .is_err()
        {
            return;
        }
        self.hedges_fired.fetch_add(1, Ordering::Relaxed);
        self.obs.inc(names::SERVE_HEDGE_FIRED, &[]);
        self.flight_event(ctx, FlightName::HedgeFired, None);
    }

    /// Record `name`, with an optional label, in the query's flight
    /// trace when it has one.
    fn flight_event(
        &self,
        ctx: Option<&QueryCtx>,
        name: FlightName,
        label: Option<(FlightLabel, u64)>,
    ) {
        let Some(c) = ctx else { return };
        let flight = self.server.store().obs();
        let rec = FlightRec::event(c, name, flight.flight_now_us());
        flight.flight_emit(match label {
            Some((l, v)) => rec.with_label(l, v),
            None => rec,
        });
    }

    /// The hedge delay: the [`HEDGE_QUANTILE`] of the server's live
    /// latency histogram — or, when the store has no observability
    /// attached, of this client's own observed attempt latencies —
    /// clamped to the fixed band.
    fn hedge_delay_us(&self) -> u64 {
        let p = self
            .server
            .latency_histogram()
            .filter(|h| h.count() > 0)
            .map(|h| h.quantile(HEDGE_QUANTILE))
            .or_else(|| {
                (self.observed_us.count() > 0).then(|| self.observed_us.quantile(HEDGE_QUANTILE))
            })
            .unwrap_or(0.0);
        (p as u64).clamp(MIN_HEDGE_DELAY_US, MAX_HEDGE_DELAY_US)
    }

    /// Sleep out the jittered backoff before retry `attempt + 1`. Skipped
    /// under a mock clock (deterministic tests stay instant).
    fn backoff_sleep(&self, failed_attempt: u32) {
        if self.server.clock().is_mock() || self.obs.is_mock() {
            return;
        }
        let delay_s = BACKOFF.delay_after_jittered(failed_attempt, RETRY_SEED);
        if delay_s > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(delay_s));
        }
    }

    /// Is this cuboid's breaker open and still cooling down? Once the
    /// cooldown is over the breaker is half-open: queries go through,
    /// and the next answer closes or re-opens it.
    fn breaker_open(&self, mask: Mask) -> bool {
        let until = lock_or_recover(&self.breakers)
            .get(&mask)
            .and_then(|br| br.open_until_us);
        until.is_some_and(|until| self.server.now_us() < until)
    }

    /// Record a `Failed` answer against `mask`; returns `true` when the
    /// breaker transitions (back) into the open state.
    fn note_failure(&self, mask: Mask) -> bool {
        let opened = {
            let mut breakers = lock_or_recover(&self.breakers);
            let br = breakers.entry(mask).or_default();
            br.fails = br.fails.saturating_add(1);
            // A failure while open_until is set is a failed half-open
            // trial: re-open unconditionally. Otherwise open on the
            // threshold.
            let open = br.open_until_us.is_some() || br.fails >= BREAKER_THRESHOLD;
            if open {
                br.fails = 0;
                br.open_until_us = Some(self.server.now_us().saturating_add(BREAKER_COOLDOWN_US));
            }
            open
        };
        if opened {
            self.breaker_opens.fetch_add(1, Ordering::Relaxed);
            self.obs.inc(names::SERVE_BREAKER_OPEN, &[]);
        }
        opened
    }

    /// A clean answer closes the cuboid's breaker and clears its strikes.
    fn note_success(&self, mask: Mask) {
        lock_or_recover(&self.breakers).remove(&mask);
    }

    /// Refuse a query while its cuboid's breaker is open: a typed
    /// failure that never reaches the server.
    fn shed(&self, mask: Mask) -> Response {
        self.shed.fetch_add(1, Ordering::Relaxed);
        self.obs.inc(names::SERVE_BREAKER_SHED, &[]);
        Response::Failed(format!("circuit breaker open for cuboid {mask}"))
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "a raw gate wedges a worker while the test blocks in `query`, which the flat lock rule would refuse"
)]
mod tests {
    use super::*;
    use crate::faults::{FaultSchedule, FaultyBlobs};
    use crate::server::{CubeServer, ServerConfig};
    use crate::store::{write_store, CubeStore};
    use spcube_agg::{AggOutput, AggSpec};
    use spcube_common::{Group, Relation, Schema, Value};
    use spcube_cubealg::naive_cube;
    use spcube_mapreduce::Dfs;
    use spcube_obs::Clock;

    fn sample_rel() -> Relation {
        let mut rel = Relation::empty(Schema::synthetic(2));
        for (dims, m) in [([1i64, 1], 1.0), ([1, 2], 2.0), ([2, 1], 3.0)] {
            rel.push_row(dims.iter().map(|&v| Value::Int(v)).collect(), m);
        }
        rel
    }

    /// Server over a store on a faulty blob layer.
    fn faulty_server(schedule: FaultSchedule, cache: usize) -> Arc<CubeServer> {
        let cube = naive_cube(&sample_rel(), AggSpec::Sum);
        let dfs = Arc::new(Dfs::new());
        write_store(dfs.as_ref(), "s", &cube, 2, AggSpec::Sum, 1).expect("write");
        let faulty = Arc::new(FaultyBlobs::new(dfs, schedule).with_obs(ObsHandle::mock()));
        let store = Arc::new(
            CubeStore::open(faulty, "s")
                .expect("open")
                .with_cache_capacity(cache),
        );
        Arc::new(CubeServer::start(
            store,
            ServerConfig {
                workers: 2,
                queue_capacity: 16,
                clock: Arc::new(Clock::mock()),
            },
        ))
    }

    /// Every segment read fails until `heals_after` failures (0 = never).
    fn sticky_outage(heals_after: u32) -> FaultSchedule {
        FaultSchedule {
            seed: 2,
            sticky_outage_prob: 1.0,
            outage_heals_after: heals_after,
            only_matching: Some(".cseg".to_string()),
            ..FaultSchedule::default()
        }
    }

    /// Read the mock clock (one tick per reading) past a breaker cooldown.
    fn cool_down(server: &CubeServer) {
        let until = server.now_us() + BREAKER_COOLDOWN_US;
        while server.now_us() < until {}
    }

    fn point_req() -> Request {
        Request::Point {
            mask: Mask(0b01),
            key: vec![Value::Int(1)],
        }
    }

    #[test]
    fn clean_store_answers_without_retries() {
        let server = faulty_server(FaultSchedule::default(), 4);
        let client = ResilientClient::new(server, ClientConfig::default()).expect("client");
        let resp = client.query(point_req(), None).expect("query");
        assert_eq!(resp, Response::Value(Some(AggOutput::Number(3.0))));
        let stats = client.stats();
        assert_eq!(stats.attempts, 1);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.breaker_opens, 0);
    }

    #[test]
    fn hedge_delay_falls_back_to_client_observed_latencies() {
        // The store behind `faulty_server` has no observability handle,
        // so the server exposes no latency histogram. The hedge delay
        // must then come from the client's own observed latencies — on
        // the mock clock every attempt measures at least one tick
        // (1000us), well above the cold-start floor.
        let server = faulty_server(FaultSchedule::default(), 4);
        assert!(server.latency_histogram().is_none());
        let client = ResilientClient::new(server, ClientConfig::default()).expect("client");
        assert_eq!(
            client.hedge_delay_us(),
            MIN_HEDGE_DELAY_US,
            "cold start pins the delay to the floor"
        );
        for _ in 0..8 {
            client.query(point_req(), None).expect("query");
        }
        assert!(
            client.hedge_delay_us() > MIN_HEDGE_DELAY_US,
            "observed latencies should lift the delay off the floor"
        );
    }

    #[test]
    fn transient_fault_is_retried_away() {
        // Fail roughly every other read; cache capacity 1 forces a fresh
        // fetch per query, and 3 attempts ride out a transient.
        let server = faulty_server(
            FaultSchedule {
                seed: 11,
                transient_fail_prob: 0.5,
                only_matching: Some(".cseg".to_string()),
                ..FaultSchedule::default()
            },
            1,
        );
        let client =
            ResilientClient::new(Arc::clone(&server), ClientConfig::default()).expect("client");
        let mut clean = 0;
        for _ in 0..12 {
            match client.query(point_req(), None).expect("query") {
                Response::Value(v) => {
                    assert_eq!(v, Some(AggOutput::Number(3.0)));
                    clean += 1;
                }
                // 3 transients in a row trip the breaker: let it
                // half-open so the next query reaches the server again.
                Response::Failed(_) => cool_down(&server),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(clean > 0, "retries should recover some queries");
        assert!(client.stats().retries > 0, "p=0.5 must have retried");
    }

    #[test]
    fn sticky_outage_trips_breaker_and_sheds_typed() {
        let server = faulty_server(sticky_outage(0), 1);
        let obs = ObsHandle::mock();
        let client = ResilientClient::new(Arc::clone(&server), ClientConfig::default())
            .expect("client")
            .with_obs(obs.clone());
        // Every read of every segment fails: 3 attempts trip the breaker
        // (threshold 3), and the query returns the server's failure.
        let resp = client.query(point_req(), None).expect("query");
        assert!(
            matches!(&resp, Response::Failed(msg) if !msg.contains("circuit breaker")),
            "server failure, got {resp:?}"
        );
        let stats = client.stats();
        assert_eq!((stats.attempts, stats.breaker_opens, stats.shed), (3, 1, 0));
        // While open, queries fail typed without reaching the server.
        let served_before = server.stats().served;
        let resp = client.query(point_req(), None).expect("query");
        assert!(
            matches!(&resp, Response::Failed(msg) if msg.contains("circuit breaker open")),
            "shed failure, got {resp:?}"
        );
        assert_eq!(server.stats().served, served_before);
        assert_eq!(client.stats().shed, 1);
        // Obs counters match client stats exactly.
        assert_eq!(
            obs.counter_value(names::SERVE_BREAKER_OPEN, &[]),
            Some(client.stats().breaker_opens)
        );
        assert_eq!(
            obs.counter_value(names::SERVE_BREAKER_SHED, &[]),
            Some(client.stats().shed)
        );
    }

    #[test]
    fn breaker_half_opens_after_cooldown_and_closes_on_success() {
        // Outage heals after 3 failed reads; breaker trips on those 3,
        // then the half-open trial succeeds and closes the breaker.
        let server = faulty_server(sticky_outage(3), 1);
        let client =
            ResilientClient::new(Arc::clone(&server), ClientConfig::default()).expect("client");
        let first = client.query(point_req(), None).expect("query");
        assert!(matches!(first, Response::Failed(_)), "{first:?}");
        assert_eq!(client.stats().breaker_opens, 1);
        cool_down(&server);
        // Half-open trial goes to the server; the outage healed, so it
        // succeeds and the breaker closes.
        let served_before = server.stats().served;
        let resp = client.query(point_req(), None).expect("trial");
        assert_eq!(resp, Response::Value(Some(AggOutput::Number(3.0))));
        assert!(
            server.stats().served > served_before,
            "trial hit the server"
        );
        assert_eq!(client.stats().shed, 0, "nothing was shed");
        // And stays closed.
        let resp = client.query(point_req(), None).expect("closed");
        assert_eq!(resp, Response::Value(Some(AggOutput::Number(3.0))));
        assert_eq!(client.stats().breaker_opens, 1);
    }

    #[test]
    fn failed_half_open_trial_reopens_the_breaker() {
        // Outage never heals: the trial fails and re-opens the breaker.
        let server = faulty_server(sticky_outage(0), 1);
        let client =
            ResilientClient::new(Arc::clone(&server), ClientConfig::default()).expect("client");
        let first = client.query(point_req(), None).expect("query");
        assert!(matches!(first, Response::Failed(_)), "{first:?}");
        assert_eq!(client.stats().breaker_opens, 1);
        cool_down(&server);
        let attempts_before = client.stats().attempts;
        let resp = client.query(point_req(), None).expect("failed trial");
        assert!(matches!(resp, Response::Failed(_)), "{resp:?}");
        let stats = client.stats();
        assert_eq!(stats.breaker_opens, 2, "trial failure re-opens");
        assert_eq!(
            stats.attempts - attempts_before,
            1,
            "a re-opened breaker stops the retries"
        );
    }

    #[test]
    fn deadline_refusals_are_not_retried() {
        let server = faulty_server(FaultSchedule::default(), 4);
        let client =
            ResilientClient::new(Arc::clone(&server), ClientConfig::default()).expect("client");
        let dl = server.deadline_in(0); // expired by the admission check
        let err = client
            .query(point_req(), Some(dl))
            .expect_err("deadline refusal");
        assert_eq!(err, ServeError::DeadlineExceeded);
        assert_eq!(client.stats().attempts, 1, "no retry on deadline");
        assert_eq!(client.stats().retries, 0);
    }

    #[test]
    fn a_callers_mistake_is_refused_once_and_spares_the_breaker() {
        let server = faulty_server(FaultSchedule::default(), 4);
        let client = ResilientClient::new(server, ClientConfig::default()).expect("client");
        // Dimension 1 is not grouped in cuboid m1.
        let misused = Request::Slice {
            mask: Mask(0b01),
            dim: 1,
            value: Value::Int(1),
        };
        let err = client.query(misused, None).expect_err("typed refusal");
        assert!(matches!(err, ServeError::BadRequest(_)), "{err:?}");
        let stats = client.stats();
        assert_eq!(
            (stats.attempts, stats.retries, stats.breaker_opens),
            (1, 0, 0),
            "a caller's mistake is neither retried nor blamed on the cuboid"
        );
        // m1 stays healthy: the next valid query on it answers.
        let resp = client.query(point_req(), None).expect("query");
        assert_eq!(resp, Response::Value(Some(AggOutput::Number(3.0))));
        // A cuboid outside the 2-d store, and a roll-up on a dimension
        // past the mask's 32 bits, are refused the same way.
        for req in [
            Request::CuboidLen { mask: Mask(0b100) },
            Request::RollUp {
                group: Group::new(Mask(0b01), vec![Value::Int(1)]),
                dim: 40,
            },
        ] {
            let err = client.query(req, None).expect_err("typed refusal");
            assert!(matches!(err, ServeError::BadRequest(_)), "{err:?}");
        }
        assert_eq!(client.stats().breaker_opens, 0);
    }

    #[test]
    fn hedged_attempt_wins_when_the_primary_wedges() {
        use std::sync::Mutex as StdMutex;

        /// Blobs whose *first* read of each path blocks on a gate the
        /// test holds; later reads pass. The primary attempt wedges, the
        /// hedge hits the (still-locked) gate... so gate per-path once:
        /// first get blocks until gate opens, others pass immediately.
        struct SlowFirstRead {
            inner: Arc<Dfs>,
            gate: Arc<StdMutex<()>>,
            seen: StdMutex<std::collections::BTreeSet<String>>,
        }

        impl crate::blob::BlobStore for SlowFirstRead {
            fn put(&self, path: &str, data: Vec<u8>) -> spcube_common::Result<()> {
                crate::blob::BlobStore::put(self.inner.as_ref(), path, data)
            }

            fn get(&self, path: &str) -> spcube_common::Result<Vec<u8>> {
                let first = self.seen.lock().expect("seen").insert(path.to_string());
                if first {
                    let _block = self.gate.lock().expect("gate");
                }
                crate::blob::BlobStore::get(self.inner.as_ref(), path)
            }

            fn list(&self, prefix: &str) -> spcube_common::Result<Vec<(String, u64)>> {
                crate::blob::BlobStore::list(self.inner.as_ref(), prefix)
            }

            fn delete(&self, path: &str) -> spcube_common::Result<()> {
                crate::blob::BlobStore::delete(self.inner.as_ref(), path)
            }
        }

        let rel = sample_rel();
        let cube = naive_cube(&rel, AggSpec::Sum);
        let dfs = Arc::new(Dfs::new());
        write_store(dfs.as_ref(), "s", &cube, 2, AggSpec::Sum, 1).expect("write");
        let gate = Arc::new(StdMutex::new(()));
        let blobs = Arc::new(SlowFirstRead {
            inner: dfs,
            gate: Arc::clone(&gate),
            seen: StdMutex::new(std::collections::BTreeSet::new()),
        });
        // Open before closing the gate: manifest reads count as firsts.
        let store = Arc::new(
            CubeStore::open(blobs, "s")
                .expect("open")
                .with_cache_capacity(1),
        );
        let server = Arc::new(CubeServer::start(
            store,
            ServerConfig {
                workers: 2,
                queue_capacity: 16,
                ..ServerConfig::default()
            },
        ));
        let obs = ObsHandle::mock();
        let client = ResilientClient::new(
            Arc::clone(&server),
            ClientConfig {
                hedge: true,
                ..ClientConfig::default()
            },
        )
        .expect("client")
        .with_obs(obs.clone());

        // Hold the gate: the primary's segment read (a first) wedges; the
        // hedge's read of the same path is no longer "first" and passes.
        let closed = gate.lock().expect("gate");
        let resp = client.query(point_req(), None).expect("hedged query");
        assert_eq!(resp, Response::Value(Some(AggOutput::Number(3.0))));
        drop(closed);
        let stats = client.stats();
        assert_eq!(stats.hedges_fired, 1);
        assert_eq!(stats.hedges_won, 1);
        assert_eq!(
            obs.counter_value(names::SERVE_HEDGE_FIRED, &[]),
            Some(stats.hedges_fired)
        );
        assert_eq!(
            obs.counter_value(names::SERVE_HEDGE_WON, &[]),
            Some(stats.hedges_won)
        );
    }

    /// Like `faulty_server` but with one shared observability handle on
    /// the faulty blobs *and* the store, so profiled queries record
    /// flight spans across admission, queue, IO and decode.
    fn profiled_server(schedule: FaultSchedule, cache: usize) -> (Arc<CubeServer>, ObsHandle) {
        let rel = sample_rel();
        let cube = naive_cube(&rel, AggSpec::Sum);
        let dfs = Arc::new(Dfs::new());
        write_store(dfs.as_ref(), "s", &cube, 2, AggSpec::Sum, 1).expect("write");
        let obs = ObsHandle::mock();
        let faulty = Arc::new(FaultyBlobs::new(dfs, schedule).with_obs(obs.clone()));
        let store = Arc::new(
            CubeStore::open(faulty, "s")
                .expect("open")
                .with_cache_capacity(cache)
                .with_obs(obs.clone()),
        );
        let server = Arc::new(CubeServer::start(
            store,
            ServerConfig {
                workers: 2,
                queue_capacity: 16,
                clock: Arc::new(Clock::mock()),
            },
        ));
        (server, obs)
    }

    #[test]
    fn profiled_query_phases_sum_exactly_to_total() {
        let (server, obs) = profiled_server(FaultSchedule::default(), 1);
        let client = ResilientClient::new(server, ClientConfig::default()).expect("client");
        // Alternate two cuboids: the single-slot cache evicts the other
        // one each time, so every query pays a real blob fetch + decode.
        let mut io_us = 0;
        for i in 0..6 {
            let req = Request::Point {
                mask: Mask(0b01 << (i % 2)),
                key: vec![Value::Int(1)],
            };
            let prof = client.query_profiled(req, None);
            assert!(
                matches!(prof.result, Ok(Response::Value(Some(_)))),
                "query {i}: {:?}",
                prof.result
            );
            assert!(prof.trace_id > 0, "flight recorder assigned a trace id");
            assert_eq!(
                prof.phases.phase_sum_us(),
                prof.phases.total_us,
                "residual finalize must close the phase ledger exactly"
            );
            io_us += prof.phases.io_us;
        }
        assert!(io_us > 0, "cache thrash must charge blob-IO time");
        assert!(
            obs.flight_latency_quantile(0.5) > 0.0,
            "every profiled query lands in the latency histogram"
        );
    }

    #[test]
    fn errored_profiled_query_is_kept_with_a_complete_trace_and_exemplar() {
        // Every segment read fails, so the query surfaces as
        // Response::Failed — an errored outcome the tail sampler must
        // keep even during warmup.
        let (server, obs) = profiled_server(
            FaultSchedule {
                seed: 2,
                sticky_outage_prob: 1.0,
                only_matching: Some(".cseg".to_string()),
                ..FaultSchedule::default()
            },
            1,
        );
        let client = ResilientClient::new(server, ClientConfig::default()).expect("client");
        let prof = client.query_profiled(point_req(), None);
        assert!(
            matches!(prof.result, Ok(Response::Failed(_))),
            "an outage must fail typed: {:?}",
            prof.result
        );
        assert!(prof.kept, "errored queries are always tail-sampled in");
        assert!(obs.flight_kept().contains(&prof.trace_id));
        assert!(
            obs.flight_exemplars()
                .iter()
                .any(|e| e.trace_id == prof.trace_id),
            "kept trace ids must appear in the histogram exemplar set"
        );
        let jsonl = obs.flight_jsonl();
        let tree = spcube_obs::SpanTree::parse_jsonl(&jsonl).expect("flight trace parses");
        tree.validate().expect("flight trace is structurally sound");
        for needle in [
            names::SERVE_PHASE_TOTAL,
            names::SERVE_PHASE_QUEUE_WAIT,
            names::SERVE_PHASE_FINALIZE,
            names::SERVE_PHASE_RETRY,
            names::SERVE_PHASE_ERROR,
            names::STORE_FAULT_INJECTED,
        ] {
            assert!(
                jsonl.contains(needle.as_str()),
                "persisted trace missing {needle}"
            );
        }
        assert_eq!(
            obs.counter_value(names::STORE_FLIGHT_KEPT, &[]),
            Some(1),
            "exactly one trace kept"
        );
    }

    #[test]
    fn clean_warmup_queries_are_dropped_by_the_tail_sampler() {
        let (server, obs) = profiled_server(FaultSchedule::default(), 4);
        let client = ResilientClient::new(server, ClientConfig::default()).expect("client");
        for _ in 0..8 {
            let prof = client.query_profiled(point_req(), None);
            prof.result.expect("query");
            assert!(!prof.kept, "clean warmup queries must not be persisted");
        }
        assert!(obs.flight_kept().is_empty());
        assert_eq!(obs.flight_jsonl(), "");
        assert_eq!(obs.counter_value(names::STORE_FLIGHT_DROPPED, &[]), Some(8));
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(ClientConfig {
            max_attempts: 0,
            ..ClientConfig::default()
        }
        .validate()
        .is_err());
        assert!(ClientConfig::default().validate().is_ok());
    }
}

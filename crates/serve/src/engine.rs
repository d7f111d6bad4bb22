//! The deterministic batched serve loop.
//!
//! The engine is a discrete-event simulation of a spatial map server: many
//! closed-loop sessions each keep one request outstanding (window, k-NN or
//! join, from [`asb_workload::session_requests`]), and the server answers
//! them in *rounds*. The engine walks no tree itself: every request is an
//! [`asb_rtree::Search`] — the traversal `RTree::execute` runs a page at a
//! time — and a round asks each active search for its next slice of pages
//! (at most [`FRONTIER_LIMIT`]), dedupes them, groups them by buffer-pool
//! shard ([`BufferPool::shard_of`]), fetches each shard's group as one
//! batch ([`BufferPool::fetch_batch`]) and feeds the searches what
//! arrived. Shards are modelled as parallel I/O channels: the round
//! costs the *maximum* shard service time, where a shard's time is the
//! store's simulated clock advance ([`BufferPool::io_stats`]) plus a fixed
//! in-memory cost per page served.
//! A request's latency is its completion tick minus its arrival tick, so
//! queueing delay — arriving while a long round is in flight — is part of
//! the measurement, exactly as a client would see it.
//!
//! Everything (session trajectories, think times, batch composition,
//! store latency) derives from seeds and the simulated clock; no wall
//! time is read anywhere. Equal inputs produce bit-for-bit equal
//! [`ServeOutcome`]s, which `tests/serve.rs` pins down.

use crate::degrade::{CircuitBreaker, Outcome, Quarantine};
use crate::percentile::percentile;
use asb_core::BufferPool;
use asb_geom::Query;
use asb_rtree::{NodeView, Search, TreeSnapshot};
use asb_storage::{AccessContext, Page, PageId, QueryId, Result};
use asb_workload::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::BTreeMap;

/// Simulated in-memory service cost per page delivered from the buffer,
/// in ticks (1 tick = 1 simulated microsecond).
pub const HIT_TICKS: u64 = 20;

/// Fixed per-round dispatch overhead (batch assembly, response fan-out).
pub const ROUND_OVERHEAD_TICKS: u64 = 50;

/// Maximum pages one request may ask for per round (the `limit` of
/// [`Search::wants`]).
pub const FRONTIER_LIMIT: usize = 8;

/// Converts the store's simulated milliseconds into engine ticks (µs).
fn ms_to_ticks(ms: f64) -> u64 {
    (ms * 1000.0).round() as u64
}

/// Tunables of a serve run (the workload itself — sessions and their
/// request streams — is passed to [`serve`] separately).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ServeConfig {
    /// Seed for think times and arrival staggering.
    pub seed: u64,
    /// Mean think time between a session's requests, in ticks; each gap
    /// is drawn uniformly from `[think/2, 3·think/2]`.
    pub think_ticks: u64,
    /// Per-request tick budget. A request still incomplete when a round
    /// ends past `arrival + deadline_ticks` is force-completed as
    /// [`Outcome::DeadlineExceeded`] with its partial answer. Deadline
    /// enforcement is at round granularity: a request that finishes
    /// within the same round delivers its full answer. The default
    /// (2,000,000 ticks = 2 simulated seconds) sits far above fault-free
    /// tail latencies, so healthy runs never see it fire.
    pub deadline_ticks: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            seed: 42,
            think_ticks: 20_000,
            deadline_ticks: 2_000_000,
        }
    }
}

/// One completed request, as the client observed it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Response {
    /// Index of the issuing session.
    pub session: usize,
    /// Position of the request in its session's stream.
    pub seq: usize,
    /// Request kind label (`"window"` / `"nearest"` / `"join"`).
    pub kind: &'static str,
    /// Tick the client issued the request.
    pub arrival: u64,
    /// Tick the response was delivered.
    pub completion: u64,
    /// `completion - arrival`: service time plus queueing delay.
    pub latency: u64,
    /// Pages served to this request from the buffer.
    pub hits: u64,
    /// Pages that had to read the store.
    pub misses: u64,
    /// How the answer relates to the exact one: [`Outcome::Exact`] when
    /// every wanted page was served, [`Outcome::Degraded`] when pruning
    /// occurred, [`Outcome::DeadlineExceeded`] when the tick budget
    /// force-completed the request.
    pub outcome: Outcome,
    /// Result payload: matching object ids (window, sorted; k-NN, by
    /// ascending distance) or the single pair count (join). For degraded
    /// and deadline-exceeded responses this is a *subset* of the exact
    /// answer (join: a lower bound on the pair count) — never a
    /// fabricated result.
    pub results: Vec<u64>,
}

/// Aggregate result of a serve run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeReport {
    /// Requests completed across all sessions.
    pub requests: u64,
    /// Batched rounds executed.
    pub rounds: u64,
    /// Pages fetched through batches (hits and misses).
    pub batched_pages: u64,
    /// Simulated duration of the whole run, in ticks.
    pub duration_ticks: u64,
    /// Median request latency in ticks, rounded up to the top of its
    /// log bucket like every percentile here ([`percentile()`]).
    pub p50_ticks: u64,
    /// 99th-percentile request latency in ticks.
    pub p99_ticks: u64,
    /// 99.9th-percentile request latency in ticks.
    pub p999_ticks: u64,
    /// Completed requests per simulated second.
    pub throughput_rps: f64,
    /// Pool-wide hit rate of the run's page accesses, in `[0, 1]`.
    pub hit_rate: f64,
    /// Requests that completed [`Outcome::Degraded`] (some subtree was
    /// pruned by a failed slot, an open breaker or a quarantine).
    pub degraded_requests: u64,
    /// Requests force-completed as [`Outcome::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Circuit-breaker `→ Open` transitions, summed over shards.
    pub breaker_opens: u64,
    /// Distinct pages quarantined at least once during the run.
    pub quarantined_pages: u64,
}

/// Everything a serve run produced: the aggregate report plus every
/// response in completion order.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeOutcome {
    /// Aggregate latency/throughput/hit-rate report.
    pub report: ServeReport,
    /// All responses, in completion order.
    pub responses: Vec<Response>,
}

/// One in-flight request: the client-side bookkeeping around its
/// [`Search`], which owns the whole traversal.
struct Active {
    session: usize,
    seq: usize,
    kind: &'static str,
    arrival: u64,
    /// Tick past which the request is force-completed
    /// ([`Outcome::DeadlineExceeded`]).
    deadline: u64,
    ctx: AccessContext,
    hits: u64,
    misses: u64,
    search: Search,
}

impl Active {
    fn new(
        session: usize,
        seq: usize,
        arrival: u64,
        deadline_ticks: u64,
        qid: u64,
        request: &Request,
        snapshot: &TreeSnapshot,
    ) -> Active {
        let root = snapshot.root();
        let search = match *request {
            Request::Window(region) => Search::window(root, Query::Window(region)),
            Request::Nearest(point, k) => Search::nearest(root, point, k.max(1)),
            Request::Join(region) => Search::join(root, region),
        };
        Active {
            session,
            seq,
            kind: request.kind(),
            arrival,
            deadline: arrival.saturating_add(deadline_ticks.max(1)),
            ctx: AccessContext::query(QueryId::new(qid)),
            hits: 0,
            misses: 0,
            search,
        }
    }

    /// The response payload: window matches sorted, k-NN neighbours by
    /// ascending distance, the join's single pair count.
    fn into_results(self) -> Vec<u64> {
        let mut results = self.search.into_results();
        if self.kind == "window" {
            results.sort_unstable();
        }
        results
    }
}

/// Runs the batched serve loop until every session's request stream is
/// exhausted. `sessions[i]` is session `i`'s request stream (generate one
/// with [`asb_workload::session_requests`]); each session is closed-loop —
/// it issues its next request a think-time after its previous response.
///
/// The pool's buffer statistics accumulate across the run (callers that
/// want a clean measurement should pass a fresh pool or `clear` it);
/// request latency is measured purely in simulated ticks, so equal inputs
/// give bit-for-bit equal outcomes on any machine.
pub fn serve(
    pool: &dyn BufferPool,
    snapshot: &TreeSnapshot,
    sessions: &[Vec<Request>],
    cfg: &ServeConfig,
) -> Result<ServeOutcome> {
    let mut rngs: Vec<StdRng> = (0..sessions.len())
        .map(|i| {
            StdRng::seed_from_u64(
                cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5E7E_11F0,
            )
        })
        .collect();
    // Per session: the arrival tick and stream position of its next
    // request; `None` while a request is in flight or the stream is done.
    let mut pending: Vec<Option<(u64, usize)>> = rngs
        .iter_mut()
        .enumerate()
        .map(|(i, rng)| {
            if sessions[i].is_empty() {
                None
            } else {
                Some((rng.gen_range(0..=cfg.think_ticks), 0))
            }
        })
        .collect();

    let mut now = 0u64;
    let mut next_qid = 1u64;
    let mut active: Vec<Active> = Vec::new();
    let mut responses = Vec::new();
    let mut rounds = 0u64;
    let mut batched_pages = 0u64;
    let mut breakers: Vec<CircuitBreaker> = (0..pool.shard_count().max(1))
        .map(|_| CircuitBreaker::default())
        .collect();
    let mut quarantine = Quarantine::default();

    loop {
        // Admit every request that has arrived by now, in session order.
        for s in 0..sessions.len() {
            if let Some((t, seq)) = pending[s] {
                if t <= now {
                    pending[s] = None;
                    active.push(Active::new(
                        s,
                        seq,
                        t,
                        cfg.deadline_ticks,
                        next_qid,
                        &sessions[s][seq],
                        snapshot,
                    ));
                    next_qid += 1;
                }
            }
        }
        if active.is_empty() {
            // Idle: jump the clock to the next arrival, or finish.
            match pending.iter().flatten().map(|&(t, _)| t).min() {
                Some(t) => {
                    now = now.max(t);
                    continue;
                }
                None => break,
            }
        }

        // One batched round: gather every active request's frontier,
        // dedupe, group by shard, fetch shard groups as batches.
        rounds += 1;
        let mut wanted: BTreeMap<PageId, Vec<usize>> = BTreeMap::new();
        for (idx, a) in active.iter_mut().enumerate() {
            for &id in a.search.wants(FRONTIER_LIMIT) {
                wanted.entry(id).or_default().push(idx);
            }
        }
        let mut by_shard: Vec<Vec<PageId>> = vec![Vec::new(); pool.shard_count().max(1)];
        for &id in wanted.keys() {
            by_shard[pool.shard_of(id)].push(id);
        }
        // The whole round is stamped with the oldest active request's
        // query id (group-commit semantics).
        let ctx = active
            .iter()
            .min_by_key(|a| (a.arrival, a.session, a.seq))
            .expect("active round")
            .ctx;

        // Shards are parallel I/O channels: the round costs the slowest
        // shard's service time plus the fixed dispatch overhead. A shard
        // whose breaker is open never touches the store: its pages are
        // answered from buffer-resident state only, and whatever is not
        // resident simply goes undelivered (the wanting searches prune
        // it when fed). A page's failed slot feeds its shard's breaker;
        // a *give-up* failure additionally quarantines the page so later
        // rounds stop asking for it until its heal probe is due.
        let mut round_cost = 0u64;
        // Delivered pages are kept whole (a clone is one reference-count
        // bump) and read through a `NodeView` when fed.
        let mut delivered: BTreeMap<PageId, Page> = BTreeMap::new();
        for (shard, pages) in by_shard.iter().enumerate() {
            if pages.is_empty() {
                continue;
            }
            let shard_cost = if breakers[shard].allows(now) {
                let askable: Vec<PageId> = pages
                    .iter()
                    .copied()
                    .filter(|&id| quarantine.allows(id, now))
                    .collect();
                let before = pool.io_stats().simulated_ms;
                let outcomes = pool.fetch_batch(&askable, ctx);
                let store_ms = pool.io_stats().simulated_ms - before;
                let mut any_failed = false;
                for (slot, &id) in outcomes.iter().zip(&askable) {
                    match slot {
                        Ok(outcome) if NodeView::parse(outcome.guard.page()).is_ok() => {
                            for &idx in &wanted[&id] {
                                if outcome.hit {
                                    active[idx].hits += 1;
                                } else {
                                    active[idx].misses += 1;
                                }
                            }
                            quarantine.release(id);
                            delivered.insert(id, outcome.guard.page().clone());
                            batched_pages += 1;
                        }
                        // A page that fetched but will not parse is as
                        // unusable as a failed slot: undelivered.
                        Ok(_) => any_failed = true,
                        Err(err) => {
                            any_failed = true;
                            if err.is_give_up() {
                                quarantine.put(id, now);
                            }
                        }
                    }
                }
                // Only batches that actually reached the store are
                // breaker evidence; an all-quarantined batch is neither
                // a success nor a failure.
                if !askable.is_empty() {
                    if any_failed {
                        breakers[shard].on_failure(now);
                    } else {
                        breakers[shard].on_success();
                    }
                }
                ms_to_ticks(store_ms) + HIT_TICKS * askable.len() as u64
            } else {
                // Open breaker: degraded resident-only reads. Every page
                // costs its in-memory probe; nothing touches the store,
                // so no retry budget burns while the shard is down.
                for &id in pages.iter() {
                    let Some(guard) = pool.fetch_resident(id, ctx) else {
                        continue;
                    };
                    if NodeView::parse(guard.page()).is_err() {
                        continue;
                    }
                    for &idx in &wanted[&id] {
                        active[idx].hits += 1;
                    }
                    delivered.insert(id, guard.page().clone());
                    batched_pages += 1;
                }
                HIT_TICKS * pages.len() as u64
            };
            round_cost = round_cost.max(shard_cost);
        }
        now += round_cost + ROUND_OVERHEAD_TICKS;

        // Feed every active request its round; completed ones respond and
        // their session starts thinking about its next request. An asked
        // page that went undelivered (failed slot, open breaker,
        // quarantine) prunes its subtree: the traversal keeps making
        // progress and the answer stays a subset of the exact one, never a
        // fabrication. A request still incomplete past its deadline is
        // force-completed with its partial answer (round-granularity
        // deadline enforcement).
        let mut still = Vec::new();
        for mut a in std::mem::take(&mut active) {
            a.search
                .feed(|id| NodeView::parse(delivered.get(&id)?).ok());
            let timed_out = !a.search.done() && now >= a.deadline;
            if !a.search.done() && !timed_out {
                still.push(a);
                continue;
            }
            let outcome = if timed_out {
                Outcome::DeadlineExceeded
            } else if a.search.pruned() {
                Outcome::Degraded
            } else {
                Outcome::Exact
            };
            if a.seq + 1 < sessions[a.session].len() {
                let think = cfg.think_ticks / 2 + rngs[a.session].gen_range(0..=cfg.think_ticks);
                pending[a.session] = Some((now + think, a.seq + 1));
            }
            responses.push(Response {
                session: a.session,
                seq: a.seq,
                kind: a.kind,
                arrival: a.arrival,
                completion: now,
                latency: now - a.arrival,
                hits: a.hits,
                misses: a.misses,
                outcome,
                results: a.into_results(),
            });
        }
        active = still;
    }

    // The report is a fold over the responses; only the round count,
    // the clock and the degradation machinery live outside them.
    let duration_ticks = now.max(1);
    let requests = responses.len() as u64;
    let hits: u64 = responses.iter().map(|r| r.hits).sum();
    let misses: u64 = responses.iter().map(|r| r.misses).sum();
    let count = |o: Outcome| responses.iter().filter(|r| r.outcome == o).count() as u64;
    let mut latencies: Vec<u64> = responses.iter().map(|r| r.latency).collect();
    latencies.sort_unstable();
    let report = ServeReport {
        requests,
        rounds,
        batched_pages,
        duration_ticks,
        p50_ticks: percentile(&latencies, 0.50),
        p99_ticks: percentile(&latencies, 0.99),
        p999_ticks: percentile(&latencies, 0.999),
        throughput_rps: requests as f64 * 1_000_000.0 / duration_ticks as f64,
        hit_rate: if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
        degraded_requests: count(Outcome::Degraded),
        deadline_exceeded: count(Outcome::DeadlineExceeded),
        breaker_opens: breakers.iter().map(CircuitBreaker::opens).sum(),
        quarantined_pages: quarantine.ever_quarantined(),
    };
    Ok(ServeOutcome { report, responses })
}

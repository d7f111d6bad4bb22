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

use crate::degrade::{Outcome, Quarantine};
use crate::percentile::percentile;
use asb_core::BufferPool;
use asb_geom::Query;
use asb_rtree::{NodeView, Search, TreeSnapshot};
use asb_storage::{AccessContext, Page, PageId, QueryId, Result};
use asb_workload::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

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
    /// pruned by a failed slot or a quarantine).
    pub degraded_requests: u64,
    /// Requests force-completed as [`Outcome::DeadlineExceeded`].
    pub deadline_exceeded: u64,
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

/// Empties `buf` for the views of another round's pages, keeping its
/// allocation.
fn recycle<'b>(mut buf: Vec<Option<NodeView<'_>>>) -> Vec<Option<NodeView<'b>>> {
    buf.clear();
    buf.into_iter().map(|_| None).collect()
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
    let mut pending: Vec<Option<(u64, usize)>> = (rngs.iter_mut().zip(sessions))
        .map(|(rng, stream)| (!stream.is_empty()).then(|| (rng.gen_range(0..=cfg.think_ticks), 0)))
        .collect();

    let mut now = 0u64;
    let mut next_qid = 1u64;
    let mut active: Vec<Active> = Vec::new();
    let mut responses = Vec::new();
    let mut rounds = 0u64;
    let mut batched_pages = 0u64;
    let shards = pool.shard_count().max(1);
    let mut quarantine = Quarantine::default();
    // Round buffers, cleared and refilled every round, so that a round
    // allocates only what `fetch_batch` returns. `pages` holds the round's
    // distinct pages in ascending order, and `views` their parsed nodes.
    let mut wants: Vec<(PageId, usize)> = Vec::new();
    let mut pages: Vec<PageId> = Vec::new();
    let mut by_shard: Vec<Vec<PageId>> = vec![Vec::new(); shards];
    let mut askable: Vec<PageId> = Vec::new();
    // Per shard, the pages it delivered this round and whether each hit.
    let mut delivered: Vec<Vec<(PageId, Page, bool)>> = vec![Vec::new(); shards];
    let mut views_buf: Vec<Option<NodeView>> = Vec::new();

    loop {
        // Admit every request that has arrived by now, in session order.
        for (session, next) in pending.iter_mut().enumerate() {
            let Some((arrival, seq)) = next.take_if(|&mut (t, _)| t <= now) else {
                continue;
            };
            let (request, root) = (&sessions[session][seq], snapshot.root());
            active.push(Active {
                session,
                seq,
                kind: request.kind(),
                arrival,
                deadline: arrival.saturating_add(cfg.deadline_ticks.max(1)),
                ctx: AccessContext::query(QueryId::new(next_qid)),
                hits: 0,
                misses: 0,
                search: match *request {
                    Request::Window(region) => Search::window(root, Query::Window(region)),
                    Request::Nearest(point, k) => Search::nearest(root, point, k.max(1)),
                    Request::Join(region) => Search::join(root, region),
                },
            });
            next_qid += 1;
        }
        if active.is_empty() {
            // Idle: jump the clock to the next arrival, or finish.
            let Some(t) = pending.iter().flatten().map(|&(t, _)| t).min() else {
                break;
            };
            now = now.max(t);
            continue;
        }

        // One batched round: gather every active request's frontier,
        // dedupe, group by shard, fetch shard groups as batches.
        rounds += 1;
        wants.clear();
        for (idx, a) in active.iter_mut().enumerate() {
            wants.extend(a.search.wants(FRONTIER_LIMIT).iter().map(|&id| (id, idx)));
        }
        // Pages go out in ascending id order, each page's wanters in
        // ascending request order.
        wants.sort_unstable();
        pages.clear();
        pages.extend(wants.chunk_by(|x, y| x.0 == y.0).map(|same| same[0].0));
        by_shard.iter_mut().for_each(Vec::clear);
        for &id in &pages {
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
        // shard's service time plus the fixed dispatch overhead. Each
        // shard's batch asks the store for its pages that are not in
        // quarantine. A slot that fails goes undelivered (the wanting
        // searches prune it when fed); a *give-up* failure also
        // quarantines the page, so later rounds stop asking for it until
        // its heal probe is due, and a delivered page leaves quarantine.
        let mut round_cost = 0u64;
        // The store's clock, read when the round first reaches the store
        // and again only after a batch that was not all hits: a hit never
        // touches the store, and nothing else runs on this thread between
        // two batches, so every batch's difference is exact.
        let mut clock: Option<f64> = None;
        let mut views = recycle(std::mem::take(&mut views_buf));
        views.resize(pages.len(), None);
        for (ids, got) in by_shard.iter().zip(delivered.iter_mut()) {
            got.clear();
            if ids.is_empty() {
                continue;
            }
            askable.clear();
            askable.extend(ids.iter().filter(|&&id| quarantine.allows(id, now)));
            let before = *clock.get_or_insert_with(|| pool.io_stats().simulated_ms);
            let mut any_failed = false;
            for (slot, &id) in pool.fetch_batch(&askable, ctx).into_iter().zip(&askable) {
                match slot {
                    Ok(outcome) => got.push((id, outcome.guard.into_page(), outcome.hit)),
                    Err(err) => {
                        any_failed = true;
                        if err.is_give_up() {
                            quarantine.put(id, now);
                        }
                    }
                }
            }
            let store_ms = if !any_failed && got.iter().all(|&(.., hit)| hit) {
                0.0
            } else {
                let after = pool.io_stats().simulated_ms;
                clock = Some(after);
                after - before
            };
            let shard_cost = ms_to_ticks(store_ms) + HIT_TICKS * askable.len() as u64;
            round_cost = round_cost.max(shard_cost);
            // Each delivered page is parsed once, into the view every
            // request that wants it is fed (the views borrow the shard's
            // pages for the rest of the round), and is a hit or a miss for
            // each of them. One that will not parse is as unusable as a
            // failed slot: undelivered.
            let got: &Vec<_> = got;
            for (id, page, hit) in got {
                let Ok(view) = NodeView::parse(page) else {
                    continue;
                };
                quarantine.release(*id);
                let from = wants.partition_point(|&(p, _)| p < *id);
                for &(_, idx) in wants[from..].iter().take_while(|&&(p, _)| p == *id) {
                    active[idx].hits += u64::from(*hit);
                    active[idx].misses += u64::from(!*hit);
                }
                views[pages.partition_point(|&p| p < *id)] = Some(view);
                batched_pages += 1;
            }
        }
        now += round_cost + ROUND_OVERHEAD_TICKS;
        let view = |id| views[pages.binary_search(&id).ok()?];

        // Feed every active request its round; completed ones respond and
        // their session starts thinking about its next request. An asked
        // page that went undelivered (failed slot, quarantine) prunes its
        // subtree: the traversal keeps making progress and the answer stays
        // a subset of the exact one, never a fabrication. A request still incomplete past its deadline is
        // force-completed with its partial answer (round-granularity
        // deadline enforcement).
        // A finished request leaves the list; the others stay, unmoved.
        let mut i = 0;
        while i < active.len() {
            let a = &mut active[i];
            a.search.feed(view);
            let timed_out = !a.search.done() && now >= a.deadline;
            if !a.search.done() && !timed_out {
                i += 1;
                continue;
            }
            let a = active.remove(i);
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
        views_buf = recycle(views);
    }

    // The report is a fold over the responses; only the round count,
    // the clock and the quarantine live outside them.
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
        quarantined_pages: quarantine.ever_quarantined(),
    };
    Ok(ServeOutcome { report, responses })
}

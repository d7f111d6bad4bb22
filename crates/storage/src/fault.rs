//! Deterministic fault injection for page stores.
//!
//! [`FaultyStore`] wraps any [`PageStore`] (or [`ConcurrentPageStore`]) and
//! injects a seed-scheduled mix of failures: transient read/write errors,
//! permanent device failures for marked pages, latency spikes, and payload
//! corruption that preserves the page's recorded checksum (so the damage is
//! silent on delivery but detectable by
//! [`Page::verify_checksum`](crate::Page::verify_checksum)).
//!
//! Every fault decision is a pure function of `(seed, operation index,
//! fault kind)`, so a given configuration produces the *same* fault schedule
//! on every run — the property the regression harness in `asb-exp` relies on
//! to replay a failing schedule bit-for-bit.

use std::collections::HashSet;

use bytes::Bytes;

use crate::page::{Page, PageId};
use crate::store::{AccessContext, ConcurrentPageStore, PageStore};
use crate::sync::Mutex;
use crate::{IoStats, PageMeta, StorageError};

/// Salts mixed into the per-operation hash so each fault kind draws an
/// independent coin from the same operation index.
const SALT_READ: u64 = 1;
const SALT_WRITE: u64 = 2;
const SALT_CORRUPT: u64 = 3;
const SALT_SPIKE: u64 = 4;

/// SplitMix64 finalizer: a fast, well-mixing, stateless 64-bit hash.
///
/// The workspace's one deterministic mixer (never a seeded `RandomState`):
/// it draws the fault schedule here, routes page ids to shards in
/// `asb-core`, and picks the crash workload's updates in `asb-exp`, so all
/// three are reproducible across runs and platforms.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Map a 64-bit hash onto a float in `[0, 1)`.
fn unit_float(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Probability schedule of a [`FaultyStore`].
///
/// All rates are probabilities in `[0, 1]`, drawn independently per physical
/// operation from the deterministic stream derived from `seed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the deterministic fault schedule.
    pub seed: u64,
    /// Probability that a read fails with [`StorageError::TransientRead`].
    pub read_transient: f64,
    /// Probability that a write fails with [`StorageError::TransientWrite`].
    pub write_transient: f64,
    /// Probability that a successful read delivers a corrupted payload
    /// (checksum preserved, payload damaged).
    pub corrupt: f64,
    /// Probability that an operation incurs a latency spike.
    pub latency_spike: f64,
    /// Simulated duration of one latency spike, in milliseconds.
    pub spike_ms: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            read_transient: 0.0,
            write_transient: 0.0,
            corrupt: 0.0,
            latency_spike: 0.0,
            spike_ms: 25.0,
        }
    }
}

impl FaultConfig {
    /// A schedule injecting only transient read/write faults, each at `rate`.
    pub fn transient(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            read_transient: rate,
            write_transient: rate,
            ..FaultConfig::default()
        }
    }

    /// A schedule injecting only payload corruption at `rate`.
    pub fn corrupting(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            corrupt: rate,
            ..FaultConfig::default()
        }
    }

    /// Everything at once: transient faults, corruption and latency spikes,
    /// each at `rate`.
    pub fn chaos(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            read_transient: rate,
            write_transient: rate,
            corrupt: rate,
            latency_spike: rate,
            ..FaultConfig::default()
        }
    }

    /// A brown-out: the device stays up but goes slow-tailed — latency
    /// spikes at `rate` with a spike an order of magnitude above the
    /// simulated disk's ~10 ms random access, plus a trickle of transient
    /// read faults at a tenth of `rate` (slow devices time out
    /// occasionally). The regime a remote or disaggregated memory tier
    /// degrades into, where a serving layer must shed latency rather than
    /// fail.
    pub fn brownout(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            read_transient: rate / 10.0,
            latency_spike: rate,
            spike_ms: 120.0,
            ..FaultConfig::default()
        }
    }

    /// A schedule that never faults (the default).
    pub fn reliable() -> Self {
        FaultConfig::default()
    }
}

/// Counters of every fault a [`FaultyStore`] has injected.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Transient read faults injected.
    pub read_faults: u64,
    /// Transient write faults injected.
    pub write_faults: u64,
    /// Reads that delivered a corrupted payload.
    pub corruptions: u64,
    /// Latency spikes injected.
    pub latency_spikes: u64,
    /// Operations denied because the page is marked permanently failed.
    pub permanent_denials: u64,
    /// Total simulated latency injected by spikes, in milliseconds.
    pub injected_ms: f64,
}

struct FaultState {
    /// Per-store operation counter; each read/write claims one index.
    ops: u64,
    stats: FaultStats,
    /// Raw ids of pages marked permanently failed. Behind the same mutex
    /// as the counters so chaos harnesses can poison and heal pages
    /// mid-run through a `&self` handle shared with a buffer pool.
    permanent: HashSet<u64>,
    /// `stats.injected_ms` as of the last `reset_io_stats`, so the I/O
    /// clock window exposed through `io_stats` resets with the inner
    /// store's counters while the lifetime fault statistics keep accruing.
    injected_baseline_ms: f64,
}

/// A [`PageStore`] decorator injecting deterministic, seed-scheduled faults.
///
/// The wrapper is transparent for `allocate`/`free`/`page_count`; only reads
/// and writes fault. Interior mutability keeps the shared read path
/// (`ConcurrentPageStore::read_shared`) usable from `&self`.
pub struct FaultyStore<S> {
    inner: S,
    config: FaultConfig,
    state: Mutex<FaultState>,
}

impl<S> FaultyStore<S> {
    /// Wrap `inner` with the fault schedule in `config`.
    pub fn new(inner: S, config: FaultConfig) -> Self {
        FaultyStore {
            inner,
            config,
            state: Mutex::new(FaultState {
                ops: 0,
                stats: FaultStats::default(),
                permanent: HashSet::new(),
                injected_baseline_ms: 0.0,
            }),
        }
    }

    /// Mark a page as permanently failed: every read or write of it returns
    /// [`StorageError::DeviceFailed`] without consulting the schedule.
    /// Takes `&self` (the set lives behind the store's interior mutex, like
    /// the fault counters) so chaos scenarios can poison pages mid-run on a
    /// store already shared with a buffer pool.
    pub fn mark_permanent(&self, id: PageId) {
        self.state.lock().permanent.insert(id.raw());
    }

    /// Clear a permanent failure mark (also `&self`; see
    /// [`mark_permanent`](FaultyStore::mark_permanent)).
    pub fn heal(&self, id: PageId) {
        self.state.lock().permanent.remove(&id.raw());
    }

    /// Whether `id` is currently marked permanently failed.
    pub fn is_permanent(&self, id: PageId) -> bool {
        self.state.lock().permanent.contains(&id.raw())
    }

    /// Replace the fault schedule (the operation counter keeps running).
    pub fn set_config(&mut self, config: FaultConfig) {
        self.config = config;
    }

    /// Counters of all faults injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.state.lock().stats
    }

    /// Shared access to the wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwrap, discarding the fault layer.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Draw the fault coin `salt` for operation `op`: true with
    /// probability `rate`.
    fn draw(&self, op: u64, salt: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let h = splitmix64(
            self.config.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ op.wrapping_mul(0xff51_afd7_ed55_8ccd)
                ^ salt.wrapping_mul(0xc4ce_b9fe_1a85_ec53),
        );
        unit_float(h) < rate
    }

    /// Pre-access checks shared by reads and writes: permanent failure,
    /// latency spike, transient fault. Returns the claimed operation index
    /// on success so the read path can draw its corruption coin from it.
    fn gate(&self, id: PageId, write: bool) -> crate::Result<u64> {
        let op = {
            let mut st = self.state.lock();
            if st.permanent.contains(&id.raw()) {
                st.stats.permanent_denials += 1;
                return Err(StorageError::DeviceFailed(id));
            }
            let op = st.ops;
            st.ops += 1;
            op
        };
        if self.draw(op, SALT_SPIKE, self.config.latency_spike) {
            let mut st = self.state.lock();
            st.stats.latency_spikes += 1;
            st.stats.injected_ms += self.config.spike_ms;
        }
        let (salt, rate) = if write {
            (SALT_WRITE, self.config.write_transient)
        } else {
            (SALT_READ, self.config.read_transient)
        };
        if self.draw(op, salt, rate) {
            let mut st = self.state.lock();
            if write {
                st.stats.write_faults += 1;
                return Err(StorageError::TransientWrite(id));
            }
            st.stats.read_faults += 1;
            return Err(StorageError::TransientRead(id));
        }
        Ok(op)
    }

    /// Post-read step: possibly replace the delivered page with a corrupted
    /// copy, using the corruption coin of operation `op`.
    fn deliver(&self, op: u64, page: Page) -> Page {
        if self.draw(op, SALT_CORRUPT, self.config.corrupt) {
            let mut st = self.state.lock();
            st.stats.corruptions += 1;
            page.damaged()
        } else {
            page
        }
    }
}

impl<S: PageStore> PageStore for FaultyStore<S> {
    fn read(&mut self, id: PageId, ctx: AccessContext) -> crate::Result<Page> {
        let op = self.gate(id, false)?;
        let page = self.inner.read(id, ctx)?;
        Ok(self.deliver(op, page))
    }

    fn write(&mut self, page: Page) -> crate::Result<()> {
        self.gate(page.id, true)?;
        self.inner.write(page)
    }

    fn allocate(&mut self, meta: PageMeta, payload: Bytes) -> crate::Result<PageId> {
        self.inner.allocate(meta, payload)
    }

    fn free(&mut self, id: PageId) -> crate::Result<()> {
        self.inner.free(id)
    }

    fn page_count(&self) -> usize {
        self.inner.page_count()
    }
}

impl<S: ConcurrentPageStore> ConcurrentPageStore for FaultyStore<S> {
    fn read_shared(&self, id: PageId, ctx: AccessContext) -> crate::Result<Page> {
        let op = self.gate(id, false)?;
        let page = self.inner.read_shared(id, ctx)?;
        Ok(self.deliver(op, page))
    }

    /// The inner store's statistics with the latency injected by spikes
    /// since the last reset added onto the simulated clock — a latency
    /// harness differencing `simulated_ms` around a batch therefore sees
    /// fault-profile service time, not just the disk model's.
    fn io_stats(&self) -> IoStats {
        let mut io = self.inner.io_stats();
        let st = self.state.lock();
        io.simulated_ms += st.stats.injected_ms - st.injected_baseline_ms;
        io
    }

    fn reset_io_stats(&self) {
        self.inner.reset_io_stats();
        let mut st = self.state.lock();
        st.injected_baseline_ms = st.stats.injected_ms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::disk_with_pages;
    use crate::DiskManager;

    #[test]
    fn reliable_schedule_is_transparent() {
        let (disk, ids) = disk_with_pages(4);
        let mut store = FaultyStore::new(disk, FaultConfig::reliable());
        for &id in &ids {
            let page = store.read(id, AccessContext::default()).expect("read");
            assert!(page.verify_checksum());
        }
        assert_eq!(store.fault_stats(), FaultStats::default());
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let run = |seed| {
            let (disk, ids) = disk_with_pages(8);
            let mut store = FaultyStore::new(disk, FaultConfig::chaos(seed, 0.3));
            let mut outcomes = Vec::new();
            for round in 0..16 {
                let id = ids[round % ids.len()];
                match store.read(id, AccessContext::default()) {
                    Ok(p) => outcomes.push((round, p.verify_checksum())),
                    Err(e) => outcomes.push((round, matches!(e, StorageError::DeviceFailed(_)))),
                }
            }
            (outcomes, store.fault_stats())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).1, run(8).1, "different seeds, different schedules");
    }

    #[test]
    fn corruption_preserves_checksum_field() {
        let (disk, ids) = disk_with_pages(1);
        let mut store = FaultyStore::new(disk, FaultConfig::corrupting(3, 1.0));
        let page = store.read(ids[0], AccessContext::default()).expect("read");
        assert!(!page.verify_checksum(), "payload damage must be detectable");
        let clean = store.inner().peek(ids[0]).expect("peek");
        assert_eq!(page.checksum(), clean.checksum());
        assert_ne!(page.payload, clean.payload);
        assert_eq!(store.fault_stats().corruptions, 1);
    }

    #[test]
    fn transient_rate_one_always_fails() {
        let (disk, ids) = disk_with_pages(1);
        let mut store = FaultyStore::new(disk, FaultConfig::transient(5, 1.0));
        for _ in 0..4 {
            assert_eq!(
                store.read(ids[0], AccessContext::default()),
                Err(StorageError::TransientRead(ids[0]))
            );
        }
        assert_eq!(store.fault_stats().read_faults, 4);
    }

    #[test]
    fn permanent_failure_wins_over_schedule() {
        let (disk, ids) = disk_with_pages(2);
        let mut store = FaultyStore::new(disk, FaultConfig::reliable());
        store.mark_permanent(ids[0]);
        assert_eq!(
            store.read(ids[0], AccessContext::default()),
            Err(StorageError::DeviceFailed(ids[0]))
        );
        assert!(store.read(ids[1], AccessContext::default()).is_ok());
        store.heal(ids[0]);
        assert!(store.read(ids[0], AccessContext::default()).is_ok());
        assert_eq!(store.fault_stats().permanent_denials, 1);
    }

    #[test]
    fn poison_and_heal_work_through_a_shared_reference() {
        // The chaos harness poisons pages mid-run on a store that a buffer
        // pool already owns — only `&self` access exists at that point.
        let (disk, ids) = disk_with_pages(2);
        let store = FaultyStore::new(disk, FaultConfig::reliable());
        let shared: &FaultyStore<DiskManager> = &store;
        shared.mark_permanent(ids[0]);
        assert!(shared.is_permanent(ids[0]));
        assert_eq!(
            shared.read_shared(ids[0], AccessContext::default()),
            Err(StorageError::DeviceFailed(ids[0]))
        );
        assert!(shared.read_shared(ids[1], AccessContext::default()).is_ok());
        shared.heal(ids[0]);
        assert!(!shared.is_permanent(ids[0]));
        assert!(shared.read_shared(ids[0], AccessContext::default()).is_ok());
        assert_eq!(store.fault_stats().permanent_denials, 1);
    }

    #[test]
    fn brownout_is_slow_tailed_but_mostly_up() {
        let (disk, ids) = disk_with_pages(4);
        let store = FaultyStore::new(disk, FaultConfig::brownout(9, 1.0));
        // Spike rate 1.0: every operation pays the brown-out latency.
        for &id in &ids {
            let _ = store.read_shared(id, AccessContext::default());
        }
        let stats = store.fault_stats();
        assert_eq!(stats.latency_spikes, 4);
        assert!(stats.injected_ms >= 4.0 * 100.0);
        // The transient trickle is a tenth of the spike rate.
        assert!(FaultConfig::brownout(9, 0.2).read_transient < 0.021);
        assert_eq!(FaultConfig::brownout(9, 0.2).corrupt, 0.0);
    }

    #[test]
    fn shared_and_exclusive_reads_share_one_schedule() {
        let (disk, ids) = disk_with_pages(1);
        let store = FaultyStore::new(disk, FaultConfig::transient(11, 0.5));
        let mut shared_outcomes = Vec::new();
        for _ in 0..12 {
            shared_outcomes.push(store.read_shared(ids[0], AccessContext::default()).is_ok());
        }
        let (disk2, ids2) = disk_with_pages(1);
        let mut store2 = FaultyStore::new(disk2, FaultConfig::transient(11, 0.5));
        let mut excl_outcomes = Vec::new();
        for _ in 0..12 {
            excl_outcomes.push(store2.read(ids2[0], AccessContext::default()).is_ok());
        }
        assert_eq!(shared_outcomes, excl_outcomes);
    }

    #[test]
    fn latency_spikes_accrue_simulated_time() {
        let (disk, ids) = disk_with_pages(1);
        let mut store = FaultyStore::new(
            disk,
            FaultConfig {
                seed: 2,
                latency_spike: 1.0,
                spike_ms: 5.0,
                ..FaultConfig::default()
            },
        );
        for _ in 0..3 {
            store.read(ids[0], AccessContext::default()).expect("read");
        }
        let stats = store.fault_stats();
        assert_eq!(stats.latency_spikes, 3);
        assert!((stats.injected_ms - 15.0).abs() < 1e-9);
    }

    #[test]
    fn injected_spike_time_flows_into_io_stats_and_resets_with_them() {
        let (disk, ids) = disk_with_pages(1);
        let store = FaultyStore::new(
            disk,
            FaultConfig {
                seed: 2,
                latency_spike: 1.0,
                spike_ms: 5.0,
                ..FaultConfig::default()
            },
        );
        for _ in 0..3 {
            store
                .read_shared(ids[0], AccessContext::default())
                .expect("read");
        }
        let inner_only = store.inner().io_stats().simulated_ms;
        let io = ConcurrentPageStore::io_stats(&store);
        assert!((io.simulated_ms - (inner_only + 15.0)).abs() < 1e-9);

        // A reset opens a fresh measurement window on the combined clock
        // without clearing the lifetime fault statistics.
        store.reset_io_stats();
        assert!(ConcurrentPageStore::io_stats(&store).simulated_ms.abs() < 1e-9);
        assert!((store.fault_stats().injected_ms - 15.0).abs() < 1e-9);
        store
            .read_shared(ids[0], AccessContext::default())
            .expect("read");
        assert!(ConcurrentPageStore::io_stats(&store).simulated_ms > 0.0);
    }
}

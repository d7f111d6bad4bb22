//! Deterministic crash injection: simulated process kills at arbitrary
//! durable-I/O points.
//!
//! The fault layer ([`FaultyStore`](crate::FaultyStore)) models a disk that
//! misbehaves while the process keeps running. This module models the
//! complementary failure: the *process* dies mid-operation while the disk
//! and the write-ahead log survive exactly as far as they got.
//!
//! The crash-point model: a crash is only observable through the durable
//! state it leaves behind, and durable state changes only at *mutation*
//! events — store page writes and WAL record appends. A [`CrashClock`]
//! therefore assigns a global index to every such event; killing "at event
//! `i`" means events `0..i` completed, event `i` either never happened
//! ([`CrashMode::Clean`]) or was half-applied ([`CrashMode::Torn`]: a torn
//! page write, or a truncated partial WAL record), and nothing after `i`
//! exists. Crashing between two reads is indistinguishable from crashing
//! before the next mutation, so sweeping every event index (in both modes)
//! exhaustively covers every distinguishable crash of a deterministic run.
//!
//! After the injected kill, every operation on the [`CrashableStore`] (and
//! on a WAL sharing the same clock) fails with
//! [`StorageError::Crashed`] — the process is gone; only
//! [`CrashableStore::into_inner`] (the surviving disk image) and the WAL
//! bytes remain for recovery.

use std::sync::Arc;

use bytes::Bytes;

use crate::page::{Page, PageId};
use crate::store::{AccessContext, ConcurrentPageStore, PageStore};
use crate::sync::Mutex;
use crate::{IoStats, PageMeta, StorageError};

/// What a crash leaves at the event it interrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// The process dies *before* the event: the targeted write or append
    /// never reaches durable state.
    Clean,
    /// The process dies *during* the event: a store write leaves a torn
    /// page (truncated payload under the new checksum), a WAL append leaves
    /// a truncated partial record. Recovery must detect and repair both.
    Torn,
}

/// A scheduled kill: die at durable event `kill_at` in the given mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Global index of the durable event to interrupt.
    pub kill_at: u64,
    /// Whether the interrupted event is dropped or half-applied.
    pub mode: CrashMode,
}

/// The durable mutation a crash event interrupted (or, in a recording run,
/// observed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashOp {
    /// A record append to the write-ahead log. `page` names the page of a
    /// page-image record; `None` marks a checkpoint record.
    WalAppend {
        /// Page of a page-image record, `None` for checkpoints.
        page: Option<PageId>,
    },
    /// A page write reaching the backing store (write-through, write-back
    /// or flush).
    StoreWrite {
        /// The page being written.
        page: PageId,
    },
}

/// One observed durable event of a recording run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// Global event index (the crash-point id).
    pub index: u64,
    /// What the event was.
    pub op: CrashOp,
}

/// Fate the clock assigns to a durable mutation that is allowed to touch
/// durable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFate {
    /// The mutation completes normally.
    Intact,
    /// The mutation is half-applied and the process dies immediately after:
    /// the caller must apply a torn variant and then surface
    /// [`StorageError::Crashed`].
    Torn,
}

struct ClockState {
    next: u64,
    dead: bool,
    log: Option<Vec<CrashEvent>>,
}

/// Shared event counter that schedules (or records) crash points.
///
/// One clock is shared — via `Arc` — by a [`CrashableStore`] and a
/// [`Wal`](crate::Wal), so store writes and WAL appends draw indices from a
/// single global sequence. A *recording* clock (no plan) logs every event;
/// the crash harness replays the same deterministic workload against a
/// clock armed with a [`CrashPlan`] for each recorded index.
pub struct CrashClock {
    plan: Option<CrashPlan>,
    state: Mutex<ClockState>,
}

impl CrashClock {
    /// A clock that never kills and logs every durable event.
    pub fn recording() -> Arc<Self> {
        Arc::new(CrashClock {
            plan: None,
            state: Mutex::new(ClockState {
                next: 0,
                dead: false,
                log: Some(Vec::new()),
            }),
        })
    }

    /// A clock armed to kill at `plan` (no event logging).
    pub fn with_plan(plan: CrashPlan) -> Arc<Self> {
        Arc::new(CrashClock {
            plan: Some(plan),
            state: Mutex::new(ClockState {
                next: 0,
                dead: false,
                log: None,
            }),
        })
    }

    /// Whether the simulated process has been killed.
    pub fn is_dead(&self) -> bool {
        self.state.lock().dead
    }

    /// The events a recording clock has logged (empty for armed clocks).
    pub fn events(&self) -> Vec<CrashEvent> {
        self.state.lock().log.clone().unwrap_or_default()
    }

    /// Fails with [`StorageError::Crashed`] once the process is dead; used
    /// by non-mutating operations (reads) that consume no event index.
    pub fn check_alive(&self) -> crate::Result<()> {
        if self.state.lock().dead {
            return Err(StorageError::Crashed);
        }
        Ok(())
    }

    /// Claims the next durable-event index for `op` and decides its fate.
    ///
    /// Returns [`WriteFate::Intact`] (proceed normally),
    /// [`WriteFate::Torn`] (half-apply, then die), or
    /// [`StorageError::Crashed`] (the event — and everything after it —
    /// never happens).
    pub fn observe(&self, op: CrashOp) -> crate::Result<WriteFate> {
        let mut st = self.state.lock();
        if st.dead {
            return Err(StorageError::Crashed);
        }
        let index = st.next;
        st.next += 1;
        if let Some(log) = st.log.as_mut() {
            log.push(CrashEvent { index, op });
        }
        if let Some(plan) = self.plan {
            if index == plan.kill_at {
                st.dead = true;
                return match plan.mode {
                    CrashMode::Clean => Err(StorageError::Crashed),
                    CrashMode::Torn => Ok(WriteFate::Torn),
                };
            }
        }
        Ok(WriteFate::Intact)
    }
}

/// Builds the torn variant of a page write: the payload is cut to its first
/// half while the page keeps the checksum of the *complete* payload, so the
/// damage fails [`Page::verify_checksum`] and recovery can detect it. (A
/// torn write of an empty payload is indistinguishable from the complete
/// write — there were no bytes to lose.)
pub fn torn_page(page: &Page) -> Page {
    let half = page.payload.len() / 2;
    // invariant: the torn payload is a prefix of one that already fit in a
    // page, so the size check cannot fail.
    #[allow(clippy::expect_used)]
    Page::with_checksum(
        page.id,
        page.meta,
        page.payload.slice(0..half),
        page.checksum(),
    )
    .expect("a truncated payload never exceeds the page size")
}

/// A [`PageStore`] decorator that kills the simulated process at a
/// scheduled durable event.
///
/// Writes claim an event index from the shared [`CrashClock`]; reads,
/// allocations and frees only check that the process is still alive
/// (they are either non-durable or setup-phase operations — the crash
/// harness sweeps workloads whose durable mutations are page writes and
/// WAL appends). After the kill, every operation fails with
/// [`StorageError::Crashed`] and the inner store holds exactly the state
/// that became durable before the crash.
pub struct CrashableStore<S> {
    inner: S,
    clock: Arc<CrashClock>,
}

impl<S> CrashableStore<S> {
    /// Wraps `inner`, drawing crash decisions from `clock`.
    pub fn new(inner: S, clock: Arc<CrashClock>) -> Self {
        CrashableStore { inner, clock }
    }

    /// The shared crash clock.
    pub fn clock(&self) -> &Arc<CrashClock> {
        &self.clock
    }

    /// Shared access to the wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps into the surviving store image (what recovery operates on).
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: PageStore> PageStore for CrashableStore<S> {
    fn read(&mut self, id: PageId, ctx: AccessContext) -> crate::Result<Page> {
        self.clock.check_alive()?;
        self.inner.read(id, ctx)
    }

    fn write(&mut self, page: Page) -> crate::Result<()> {
        match self.clock.observe(CrashOp::StoreWrite { page: page.id })? {
            WriteFate::Intact => self.inner.write(page),
            WriteFate::Torn => {
                self.inner.write(torn_page(&page))?;
                Err(StorageError::Crashed)
            }
        }
    }

    fn allocate(&mut self, meta: PageMeta, payload: Bytes) -> crate::Result<PageId> {
        self.clock.check_alive()?;
        self.inner.allocate(meta, payload)
    }

    fn free(&mut self, id: PageId) -> crate::Result<()> {
        self.clock.check_alive()?;
        self.inner.free(id)
    }

    fn page_count(&self) -> usize {
        self.inner.page_count()
    }
}

impl<S: ConcurrentPageStore> ConcurrentPageStore for CrashableStore<S> {
    fn read_shared(&self, id: PageId, ctx: AccessContext) -> crate::Result<Page> {
        self.clock.check_alive()?;
        self.inner.read_shared(id, ctx)
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }

    fn reset_io_stats(&self) {
        self.inner.reset_io_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{disk_with_pages, meta, page};

    #[test]
    fn recording_clock_logs_events_in_order() {
        let (disk, ids) = disk_with_pages(2);
        let clock = CrashClock::recording();
        let mut store = CrashableStore::new(disk, clock.clone());
        store.write(page(ids[0], 1)).expect("write");
        store.write(page(ids[1], 2)).expect("write");
        store.read(ids[0], AccessContext::default()).expect("read");
        let events = clock.events();
        assert_eq!(events.len(), 2, "reads claim no event index");
        assert_eq!(events[0].index, 0);
        assert_eq!(events[0].op, CrashOp::StoreWrite { page: ids[0] });
        assert_eq!(events[1].op, CrashOp::StoreWrite { page: ids[1] });
        assert!(!clock.is_dead());
    }

    #[test]
    fn clean_kill_drops_the_targeted_write_and_everything_after() {
        let (disk, ids) = disk_with_pages(2);
        let clock = CrashClock::with_plan(CrashPlan {
            kill_at: 1,
            mode: CrashMode::Clean,
        });
        let mut store = CrashableStore::new(disk, clock.clone());
        store.write(page(ids[0], 0xaa)).expect("event 0 completes");
        assert_eq!(store.write(page(ids[1], 0xbb)), Err(StorageError::Crashed));
        assert!(clock.is_dead());
        // Dead process: every further operation fails.
        assert_eq!(
            store.read(ids[0], AccessContext::default()),
            Err(StorageError::Crashed)
        );
        assert_eq!(store.write(page(ids[0], 0xcc)), Err(StorageError::Crashed));
        let disk = store.into_inner();
        assert_eq!(
            disk.peek(ids[0]).expect("peek").payload.as_ref(),
            &[0xaa; 16]
        );
        assert_eq!(
            disk.peek(ids[1]).expect("peek").payload.as_ref(),
            &[1u8; 16],
            "the killed write must not reach the disk"
        );
    }

    #[test]
    fn torn_kill_leaves_a_checksum_detectable_half_write() {
        let (disk, ids) = disk_with_pages(1);
        let clock = CrashClock::with_plan(CrashPlan {
            kill_at: 0,
            mode: CrashMode::Torn,
        });
        let mut store = CrashableStore::new(disk, clock);
        assert_eq!(store.write(page(ids[0], 0xdd)), Err(StorageError::Crashed));
        let disk = store.into_inner();
        let torn = disk.peek(ids[0]).expect("peek");
        assert_eq!(torn.payload.len(), 8, "half the 16-byte payload landed");
        assert_eq!(torn.payload.as_ref(), &[0xdd; 8]);
        assert!(
            !torn.verify_checksum(),
            "a torn write must fail checksum verification"
        );
    }

    #[test]
    fn torn_page_of_empty_payload_equals_the_complete_write() {
        let p = Page::new(PageId::new(0), meta(), Bytes::new()).expect("page");
        let t = torn_page(&p);
        assert_eq!(t, p);
        assert!(t.verify_checksum());
    }

    #[test]
    fn armed_clock_is_deterministic_across_runs() {
        let run = || {
            let (disk, ids) = disk_with_pages(4);
            let clock = CrashClock::with_plan(CrashPlan {
                kill_at: 2,
                mode: CrashMode::Clean,
            });
            let mut store = CrashableStore::new(disk, clock);
            let mut outcomes = Vec::new();
            for round in 0..6 {
                outcomes.push(store.write(page(ids[round % 4], round as u8)).is_ok());
            }
            outcomes
        };
        assert_eq!(run(), run());
        assert_eq!(run(), vec![true, true, false, false, false, false]);
    }
}

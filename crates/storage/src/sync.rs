//! Synchronization facade for the whole workspace.
//!
//! Every lock and atomic in `asb-storage`, `asb-core`, and `asb-exp` comes
//! from this module (re-exported as `asb_core::sync`), never from
//! `parking_lot` or `std::sync` directly — the `asb-analyze` sync-facade
//! lint enforces this. Routing all synchronization through one choke point
//! buys two things:
//!
//! * **Normal builds** compile to the `parking_lot` shim (no-poison locks)
//!   and the plain std atomics — zero overhead, identical semantics.
//! * **Model-checking builds** (`RUSTFLAGS="--cfg asb_schedule"`) compile
//!   to the cooperative scheduler in `shims/schedule`, where every lock
//!   acquisition and atomic operation becomes a deterministic scheduling
//!   point. `tests/interleave.rs` uses this to enumerate bounded thread
//!   interleavings of the sharded buffer and model-check its invariants.
//!
//! The facade intentionally exposes only the surface the workspace uses:
//! `Mutex`, `RwLock`, their guards, `AtomicBool`/`AtomicU64`/`AtomicUsize`,
//! and `Ordering`. Widen it here (and mirror in `shims/schedule`) before
//! reaching for a primitive directly.

#[cfg(not(asb_schedule))]
pub use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(not(asb_schedule))]
pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

#[cfg(asb_schedule)]
pub use schedule::sync::{
    AtomicBool, AtomicU64, AtomicUsize, Mutex, MutexGuard, Ordering, RwLock, RwLockReadGuard,
    RwLockWriteGuard,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_primitives_behave() {
        let m = Mutex::new(0u64);
        *m.lock() += 5;
        assert_eq!(m.into_inner(), 5);

        let l = RwLock::new(1u64);
        *l.write() += 1;
        assert_eq!(*l.read(), 2);

        let a = AtomicU64::new(0);
        a.fetch_add(3, Ordering::SeqCst);
        assert_eq!(a.load(Ordering::SeqCst), 3);

        let b = AtomicBool::new(false);
        b.store(true, Ordering::SeqCst);
        assert!(b.load(Ordering::SeqCst));
    }
}

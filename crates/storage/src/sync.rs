//! Synchronization facade for the whole workspace.
//!
//! Every lock and atomic in `asb-storage`, `asb-core`, and `asb-exp` comes
//! from this module (re-exported as `asb_core::sync`), never from
//! `parking_lot` or `std::sync` directly: the root `clippy.toml` lists
//! their lock and atomic types under `disallowed-types`, and this module is
//! the one place in the workspace allowed to name them. Routing all
//! synchronization through one choke point buys two things:
//!
//! * **Normal builds** compile to the `parking_lot` shim (no-poison locks)
//!   and the plain std atomics — zero overhead, identical semantics.
//! * **Model-checking builds** (`RUSTFLAGS="--cfg asb_schedule"`) compile
//!   to the cooperative scheduler in `shims/schedule`, where every lock
//!   acquisition and atomic operation becomes a deterministic scheduling
//!   point. `tests/interleave.rs` uses this to enumerate bounded thread
//!   interleavings of the sharded buffer and model-check its invariants.
//!
//! The facade exposes exactly what the workspace uses: [`Mutex`] and
//! [`RwLock`] as type aliases (clippy flags a banned type where an alias
//! names it, here, but not where the alias is used), and two atomics with
//! no ordering parameter, [`Counter`] and [`Flag`]. Widen it here (and
//! mirror in `shims/schedule`) before reaching for a primitive directly.

// The facade is the one sanctioned spelling of the banned types.
#![allow(clippy::disallowed_types)]

#[cfg(asb_schedule)]
use schedule::sync::{AtomicBool, AtomicU64};
use std::sync::atomic::Ordering::SeqCst;
#[cfg(not(asb_schedule))]
use std::sync::atomic::{AtomicBool, AtomicU64};

/// A mutual-exclusion lock; `lock()` returns the guard (no poisoning).
#[cfg(not(asb_schedule))]
pub type Mutex<T> = parking_lot::Mutex<T>;
/// A reader-writer lock; `read()` / `write()` return guards (no poisoning).
#[cfg(not(asb_schedule))]
pub type RwLock<T> = parking_lot::RwLock<T>;
/// A mutual-exclusion lock; each `lock()` is a scheduling point.
#[cfg(asb_schedule)]
pub type Mutex<T> = schedule::sync::Mutex<T>;
/// A reader-writer lock; each `read()` / `write()` is a scheduling point.
#[cfg(asb_schedule)]
pub type RwLock<T> = schedule::sync::RwLock<T>;

/// A shared `u64` counter: pin and live-guard counts, failure tallies, job
/// cursors.
///
/// Every operation is `SeqCst`, the one ordering in the workspace, so no
/// caller has to argue that its counter publishes no other memory. It
/// costs nothing on x86-64, where a `SeqCst` load or read-modify-write is
/// the same instruction as a `Relaxed` one.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one, returning the previous value.
    pub fn incr(&self) -> u64 {
        self.0.fetch_add(1, SeqCst)
    }

    /// Subtracts one.
    pub fn decr(&self) {
        self.0.fetch_sub(1, SeqCst);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(SeqCst)
    }
}

/// A shared on/off switch, e.g. the recording toggle.
///
/// `SeqCst` for the same reason as [`Counter`]: a load costs a plain `mov`
/// on x86-64, and the flag's users never have to reason about ordering.
#[derive(Debug)]
pub struct Flag(AtomicBool);

impl Flag {
    /// A flag starting at `on`.
    pub fn new(on: bool) -> Self {
        Flag(AtomicBool::new(on))
    }

    /// Turns the flag on or off.
    pub fn set(&self, on: bool) {
        self.0.store(on, SeqCst);
    }

    /// Whether the flag is on.
    pub fn get(&self) -> bool {
        self.0.load(SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_flag_behave() {
        let c = Counter::default();
        assert_eq!(c.incr(), 0);
        assert_eq!(c.incr(), 1);
        c.decr();
        assert_eq!(c.get(), 1);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 401, "a concurrent increment was lost");

        let f = Flag::new(true);
        assert!(f.get());
        f.set(false);
        assert!(!f.get());
        f.set(true);
        assert!(f.get());
    }
}

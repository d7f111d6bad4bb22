//! Every rule catches a seeded mutation of the real code it guards.
//!
//! Each fixture lints a workspace source file as committed (which must be
//! clean), then again with one textual mutation that breaks exactly the
//! invariant its rule exists for, at the file's real path. The mutated
//! text must produce exactly one violation, from that rule. A mutation
//! whose anchor no longer matches fails loudly rather than passing on
//! unchanged text.

use std::path::Path;

use asb_analyze::check_source;

/// Lints `source` at `path` unmutated (no findings), then with `from`
/// replaced by `to` (exactly one finding, from `rule`).
fn assert_rule_catches(rule: &str, path: &str, source: &str, from: &str, to: &str) {
    let clean = check_source(Path::new(path), source);
    assert!(clean.is_empty(), "{path} as committed: {clean:?}");
    let mutated = source.replacen(from, to, 1);
    assert_ne!(
        mutated, source,
        "{path}: mutation anchor not found: {from:?}"
    );
    let found = check_source(Path::new(path), &mutated);
    assert_eq!(found.len(), 1, "{path}, mutated: {found:?}");
    assert_eq!(found[0].rule, rule, "{}", found[0]);
}

#[test]
fn wal_order_catches_store_before_append_in_write_through() {
    assert_rule_catches(
        "wal-order",
        "crates/core/src/manager.rs",
        include_str!("../../core/src/manager.rs"),
        "        self.wal_append(&page)?;\n        self.store_with_retry(io, &page)?;\n",
        "        self.store_with_retry(io, &page)?;\n        self.wal_append(&page)?;\n",
    );
}

#[test]
fn lock_order_catches_a_descending_checkpoint_sweep() {
    assert_rule_catches(
        "lock-order",
        "crates/core/src/sharded.rs",
        include_str!("../../core/src/sharded.rs"),
        "let mut guards: Vec<_> = self.inner.shards.iter().map(",
        "let mut guards: Vec<_> = self.inner.shards.iter().rev().map(",
    );
}

#[test]
fn relaxed_ok_catches_a_dropped_justification() {
    assert_rule_catches(
        "relaxed-ok",
        "crates/storage/src/recording.rs",
        include_str!("../../storage/src/recording.rs"),
        "        // relaxed-ok: see `set_recording` — independent flag, no ordering.\n        if ",
        "        if ",
    );
}

#[test]
fn sync_facade_catches_a_mutex_imported_around_the_facade() {
    assert_rule_catches(
        "sync-facade",
        "crates/core/src/sharded.rs",
        include_str!("../../core/src/sharded.rs"),
        "use crate::sync::{AtomicU64, Mutex, Ordering, RwLock};\n",
        "use crate::sync::{AtomicU64, Ordering, RwLock};\nuse parking_lot::Mutex;\n",
    );
}

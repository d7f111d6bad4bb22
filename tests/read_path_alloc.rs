//! A warm read allocates nothing per page.
//!
//! Queries read R\*-tree nodes in place on the buffered page
//! (`NodeView`), so a window query repeated over a warm `BufferManager`
//! allocates only as its answer and its traversal stack grow, never once
//! per page it reads. A thread-local counting allocator checks this; the
//! bound is loose (fewer allocations than pages), so it catches a per-visit
//! allocation coming back, not a change in `Vec` growth.

use asb::buffer::{BufferManager, PolicyKind};
use asb::rtree::RTree;
use asb::storage::DiskManager;
use asb::workload::{Dataset, DatasetKind, Scale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) this thread has made.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every request on the way.
struct Counting;

fn count() {
    // A thread that is shutting down has nothing left to measure.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `count` only reads and writes a `Cell<u64>`
// thread-local with a const initialiser and no destructor, so it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `alloc` is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn a_warm_window_query_allocates_less_than_once_per_page() {
    let dataset = Dataset::generate(DatasetKind::Mainland, Scale::Tiny, 42);
    let mut tree = RTree::bulk_load(DiskManager::new(), dataset.items()).expect("bulk load");
    // The whole data space: every page is read, every object answers.
    let window = dataset.bounds();
    for policy in [PolicyKind::Lru, PolicyKind::Asb] {
        tree.set_buffer(BufferManager::with_policy(policy, tree.page_count()));
        let cold = tree.window_query(window).expect("cold query");

        let before = tree.buffer_stats().expect("buffered");
        let allocations_before = ALLOCATIONS.get();
        let warm = tree.window_query(window).expect("warm query");
        let allocations = ALLOCATIONS.get() - allocations_before;
        let after = tree.buffer_stats().expect("buffered");

        let pages = after.logical_reads - before.logical_reads;
        assert_eq!(warm, cold);
        assert_eq!(
            after.hits - before.hits,
            pages,
            "{policy:?}: the pool is warm"
        );
        assert!(
            pages > 10,
            "{policy:?}: a query over {pages} pages proves little"
        );
        assert!(
            allocations < pages,
            "{policy:?}: {allocations} allocations for {pages} page reads"
        );
    }
}

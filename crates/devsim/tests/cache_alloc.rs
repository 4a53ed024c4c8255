//! A cache lookup allocates nothing once warm, hit or miss.
//!
//! A binary of its own: it installs a counting global allocator, which counts
//! per thread so that the test harness's own threads do not show.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eagle_devsim::{DeviceId, Placement, PlacementCache};

thread_local! {
    /// Bytes this thread has asked the allocator for.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting the bytes each thread asks for.
struct Counting;

// SAFETY: every method hands its arguments to `System` unchanged and returns
// what `System` returns; the only other work is a const-initialized
// thread-local `Cell` update, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|n| n.set(n.get() + layout.size()));
        // SAFETY: the caller upholds `alloc`'s contract, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocated_by(f: impl FnOnce()) -> usize {
    let before = ALLOCATED.with(Cell::get);
    f();
    ALLOCATED.with(Cell::get) - before
}

#[test]
fn lookup_allocates_nothing_after_one_warm_up() {
    // BERT-Base's op count: the size of the assignment the trainer caches.
    let ops = 2_275;
    let cached = Placement::new((0..ops).map(|i| DeviceId((i % 5) as u8)).collect());
    let mut other = cached.devices().to_vec();
    other[ops - 1] = DeviceId(0);
    let absent = Placement::new(other);
    let mut cache = PlacementCache::new(8);
    cache.insert(&cached, Some(1.5));
    assert_eq!(cache.lookup(&cached), Some(Some(1.5)), "warm-up");

    let hit = allocated_by(|| assert_eq!(cache.lookup(&cached), Some(Some(1.5))));
    let miss = allocated_by(|| assert_eq!(cache.lookup(&absent), None));
    assert_eq!((hit, miss), (0, 0), "bytes allocated by a (hit, miss) lookup");
}

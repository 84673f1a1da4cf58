//! Proves the planner's zero-allocation claim with a counting allocator:
//! once a network's plan is compiled and a [`RouteBuf`] is warmed, any
//! number of `route_into` calls touch the heap exactly zero times.
//!
//! This file holds a single test because the counting `#[global_allocator]`
//! is process-wide; the counter additionally only ticks on the armed test
//! thread, so libtest's own helper threads cannot perturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use supercayley::core::{route_plan, CayleyNetwork, SuperCayleyGraph};
use supercayley::perm::{Perm, XorShift64};

/// Passes through to [`System`], counting every allocation and
/// reallocation made by the armed test thread (frees are not counted —
/// the claim is about acquiring heap memory on the steady-state path).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Only the test thread counts while armed: libtest's own helper
    /// threads (the slow-test monitor, output capture) may allocate at
    /// any moment and must not perturb the measurement window.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// Const-initialized `Cell<bool>` TLS never allocates or runs
/// destructors, so reading it inside the allocator cannot recurse;
/// `try_with` covers access during thread teardown.
fn armed() -> bool {
    ARMED.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_route_into_performs_zero_heap_allocations() {
    // Warm everything that is allowed to allocate: the compiled plan, the
    // route buffer, and the sample pairs.
    // MS(6,2) (k = 13) exercises the packed u64 kernel near its widest
    // in-repo use.
    let nets = [
        SuperCayleyGraph::macro_star(3, 2).unwrap(),
        SuperCayleyGraph::insertion_selection(7).unwrap(),
        SuperCayleyGraph::complete_rotation_rotator(3, 2).unwrap(),
        SuperCayleyGraph::macro_star(6, 2).unwrap(),
    ];
    let mut rng = XorShift64::new(0xA110C);
    for net in &nets {
        let plan = route_plan(net).unwrap();
        let mut buf = plan.new_buf();
        let k = net.degree_k();
        let pairs: Vec<(Perm, Perm)> = (0..256)
            .map(|_| (Perm::random(k, &mut rng), Perm::random(k, &mut rng)))
            .collect();
        // One warm-up pass, then the counted passes.
        let mut total_hops = 0usize;
        plan.route_into(&pairs[0].0, &pairs[0].1, &mut buf).unwrap();

        let before = ALLOCATIONS.load(Ordering::SeqCst);
        ARMED.with(|a| a.set(true));
        for (from, to) in &pairs {
            plan.route_into(from, to, &mut buf).unwrap();
            total_hops += buf.len();
        }
        ARMED.with(|a| a.set(false));
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert_eq!(
            after - before,
            0,
            "{}: routing {} pairs ({total_hops} hops) touched the allocator",
            net.name(),
            pairs.len()
        );
        assert!(total_hops > 0, "sample routed no hops");
    }
}

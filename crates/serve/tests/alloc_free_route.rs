//! Proves the daemon's clean ROUTE path allocation-free with a counting
//! allocator: once a [`ShardCore`] has seen a network and its reply
//! buffer is warmed, answering any number of ROUTE frames on that
//! fault-free network touches the heap exactly zero times.
//!
//! This file holds a single test because the counting `#[global_allocator]`
//! is process-wide; the counter additionally only ticks on the armed test
//! thread, so libtest's own helper threads cannot perturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use scg_core::{CayleyNetwork, ScgClass};
use scg_perm::{Perm, XorShift64};
use scg_serve::wire::{encode_request, peek_frame, FrameStatus, FrameType};
use scg_serve::{FaultJournal, NetId, Request, ServeMetrics, ShardCore};

/// Passes through to [`System`], counting every allocation and
/// reallocation made by the armed test thread.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Only the test thread counts while armed.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// Const-initialized `Cell<bool>` TLS never allocates, so reading it
/// inside the allocator cannot recurse; `try_with` covers thread
/// teardown.
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

/// Answers one framed request into `out` (cleared first) and returns the
/// reply's frame type.
fn answer(shard: &mut ShardCore, frame: &[u8], out: &mut Vec<u8>) -> u8 {
    let FrameStatus::Frame {
        ver,
        ftype,
        start,
        end,
    } = peek_frame(frame)
    else {
        panic!("request did not frame");
    };
    out.clear();
    let _fx = shard.handle_frame(ver, ftype, &frame[start..end], out);
    out[5]
}

#[test]
fn warmed_shard_answers_clean_route_frames_without_allocating() {
    let nets = [
        (ScgClass::MacroStar, 2, 2),
        (ScgClass::MacroStar, 4, 2),
        (ScgClass::InsertionSelection, 1, 15),
    ];
    let mut rng = XorShift64::new(0x00A1_10C8);
    let mut shard = ShardCore::new(Arc::new(ServeMetrics::new()), Arc::new(FaultJournal::new()));
    let mut out = Vec::with_capacity(1 << 16);
    for (class, levels, box_size) in nets {
        let net = NetId {
            class,
            levels,
            box_size,
        };
        let k = net.to_net().expect("network constructs").degree_k();
        let frames: Vec<Vec<u8>> = (0..256)
            .map(|_| {
                encode_request(&Request::Route {
                    net,
                    from: Perm::random(k, &mut rng),
                    to: Perm::random(k, &mut rng),
                })
            })
            .collect();
        // The first frame resolves the network; that may allocate.
        assert_eq!(
            answer(&mut shard, &frames[0], &mut out),
            FrameType::RouteOk as u8
        );

        let mut reply_bytes = 0;
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        ARMED.with(|a| a.set(true));
        for frame in &frames {
            let ftype = answer(&mut shard, frame, &mut out);
            reply_bytes += out.len();
            assert_eq!(ftype, FrameType::RouteOk as u8);
        }
        ARMED.with(|a| a.set(false));
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert_eq!(
            after - before,
            0,
            "{net:?}: {} ROUTE frames ({reply_bytes} reply bytes) touched the allocator",
            frames.len()
        );
    }
}

//! The prefetcher layer's hot paths allocate nothing once warm.
//!
//! The CBWS hardware is a fixed sub-1 KB structure and the GHB a fixed
//! 256-entry buffer, so their models size every buffer at construction.
//! This test counts heap allocations with a global allocator while it
//! drives warmed-up `CBWS`, `CBWS+SMS`, `GHB-G/DC` and `GHB-PC/DC`
//! prefetchers through thousands of further block cycles and training
//! misses, and requires the count to be exactly zero.
//!
//! The counter is per thread, so allocations made by the test harness's
//! other threads cannot blur it; the probe still lives in its own
//! integration-test binary because a global allocator is process-wide.

use cbws_core::{CbwsPrefetcher, CbwsSmsPrefetcher};
use cbws_prefetchers::{GhbConfig, GhbPrefetcher, PrefetchContext, Prefetcher};
use cbws_trace::{Addr, BlockId, LineAddr, Pc};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] with a per-thread allocation count.
struct CountingAlloc;

fn count() {
    ALLOCS.with(|a| a.set(a.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Accesses that missed both cache levels, so every prefetcher trains.
fn miss(pc: u64, line: u64) -> PrefetchContext {
    PrefetchContext {
        in_block: true,
        ..PrefetchContext::demand_miss(Pc(pc), Addr(line * 64))
    }
}

/// `cycles` iterations of a loop whose working set strides across arrays
/// (so CBWS predicts) and whose lines step by a repeating delta pattern
/// (so both GHBs correlate), with a data-dependent second block now and
/// then. Returns the
/// number of candidates emitted.
fn drive(pf: &mut dyn Prefetcher, from: u64, cycles: u64, out: &mut Vec<LineAddr>) -> usize {
    let mut x = 0x2545_F491u64 ^ from;
    let mut emitted = 0;
    for i in from..from + cycles {
        let block = BlockId((i % 50 == 49) as u32);
        pf.on_block_begin(block);
        for k in 0..12u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // The second block's PCs outnumber the PC/DC key index, so
            // it evicts streams too.
            let (pc, line) = if block.0 == 0 {
                (
                    0x400 + k,
                    0x10_0000 + i * 1024 + k * 4099 + [0, 3, 1][k as usize % 3],
                )
            } else {
                (0x800 + (x >> 12) % 300, x >> 40)
            };
            out.clear();
            pf.on_access(&miss(pc, line), out);
            emitted += out.len();
        }
        out.clear();
        pf.on_block_end(block, out);
        emitted += out.len();
    }
    emitted
}

#[test]
fn warm_prefetchers_never_allocate() {
    let prefetchers: Vec<(&str, Box<dyn Prefetcher>)> = vec![
        ("CBWS", Box::new(CbwsPrefetcher::default())),
        ("CBWS+SMS", Box::new(CbwsSmsPrefetcher::default())),
        ("GHB-G/DC", Box::new(GhbPrefetcher::new(GhbConfig::gdc()))),
        ("GHB-PC/DC", Box::new(GhbPrefetcher::new(GhbConfig::pcdc()))),
    ];
    for (name, mut pf) in prefetchers {
        let mut out = Vec::with_capacity(4096);
        drive(pf.as_mut(), 0, 2_000, &mut out);
        let before = allocs();
        let emitted = drive(pf.as_mut(), 2_000, 10_000, &mut out);
        let made = allocs() - before;
        assert!(emitted > 0, "{name} never predicted, so nothing was probed");
        assert_eq!(made, 0, "{name} allocated {made} times once warm");
    }
}

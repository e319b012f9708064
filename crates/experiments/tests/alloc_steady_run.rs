//! A simulation allocates nothing per request once it runs: beyond what
//! building it takes, a whole vips × Tetris run at the paper's 8 M
//! instructions per core allocates only to grow its buffers (the line
//! table, the event heap, the lanes' queues), a count that rises with the
//! logarithm of the run's length — about a hundred for ~130 k requests.
//! That holds under the default scheduling policy, under bank steering
//! and under all three adaptive policies.
//!
//! The counting allocator is process-global, so this check is its own
//! test binary with a single test.

use pcm_memsim::SystemConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tetris_experiments::{run_one, RunConfig, SchemeKind};

/// Counts every allocation and reallocation; `System` does the work.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the same; the counter touches no memory it hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s requirements.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator (so from `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made while running `f`, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn vips_tetris_run_allocates_only_to_grow_buffers() {
    let vips = pcm_workloads::WorkloadProfile::by_name("vips").expect("vips profile exists");
    // The default policy, and least-utilized-first steering alone and
    // with the other adaptive policies.
    let policies = [
        ("default", SystemConfig::builder()),
        ("bank_steering", SystemConfig::builder().bank_steering(true)),
        (
            "adaptive_scheduling",
            SystemConfig::builder().adaptive_scheduling(),
        ),
    ];
    for (policy, system) in policies {
        let system = system.build().expect("policy configuration is valid");
        let run = |instructions: u64| {
            let cfg = RunConfig::builder()
                .system(system)
                .instructions_per_core(instructions)
                .build()
                .expect("default configuration is valid");
            allocations(|| run_one(vips, SchemeKind::Tetris, &cfg))
        };
        // A run of no instructions is the set-up alone: generator,
        // content model and system.
        let (set_up, _) = run(0);
        let (total, result) = run(8_000_000);
        let requests = result.mem_reads + result.mem_writes;
        let per_request = (total - set_up) as f64 / requests as f64;
        assert!(
            per_request < 0.01,
            "{policy}: {} allocations beyond the set-up's {set_up} over {requests} requests \
             ({per_request:.4} per request)",
            total - set_up
        );
    }
}

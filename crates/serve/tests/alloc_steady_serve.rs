//! A warmed serving engine allocates nothing per request: after 200 k
//! submits of the benchmark's serve load (4 ranks, Tetris, 22 ns mean gap,
//! 30% writes), the next 200 k allocate less than once per hundred.
//!
//! The counting allocator is process-global, so this check is its own
//! test binary with a single test.

use pcm_memsim::{SchemeSelect, SystemConfig};
use pcm_serve::{OpenLoop, OpenLoopConfig, ServeConfig, ServeEngine};
use pcm_telemetry::NullSink;
use pcm_types::Ps;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

#[test]
fn warmed_engine_submits_without_allocating() {
    const WARM_UP: usize = 200_000;
    const MEASURED: usize = 200_000;
    let system = SystemConfig::builder()
        .ranks(4)
        .scheme(SchemeSelect::Tetris)
        .build()
        .expect("4-rank Tetris configuration is valid");
    let mut engine = ServeEngine::new(
        ServeConfig {
            system,
            ..ServeConfig::default()
        },
        Box::new(NullSink),
    )
    .expect("engine builds");
    let mut load = OpenLoop::new(OpenLoopConfig {
        requests: (WARM_UP + MEASURED) as u64,
        tenants: 4,
        mean_gap_ns: 22,
        burstiness: 0.1,
        write_frac: 0.3,
        ..OpenLoopConfig::default()
    });
    let mut submit = |engine: &mut ServeEngine, n: usize| {
        for r in load.by_ref().take(n) {
            engine
                .submit(r.tenant, r.kind, r.addr, Ps::from_ns(r.at_ns))
                .expect("in-range request");
            engine.take_completions().for_each(drop);
        }
    };
    submit(&mut engine, WARM_UP);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    submit(&mut engine, MEASURED);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let per_submit = allocations as f64 / MEASURED as f64;
    assert!(
        per_submit < 0.01,
        "{allocations} allocations over {MEASURED} warmed submits ({per_submit:.4} each)"
    );
    assert!(engine.stats().served > 0);
}

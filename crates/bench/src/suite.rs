//! The canonical perf suite behind the `BENCH_<n>.json` trajectory.
//!
//! A deliberately small, stable subset of the full bench targets — one
//! representative per subsystem the paper's performance story depends on —
//! so snapshots stay comparable across PRs:
//!
//! * `canonical/analysis/*` — the bit utilities and the Tetris
//!   analysis/packing hot path (the ROADMAP's bit-parallel rewrite must
//!   show up here).
//! * `canonical/schemes/*` — per-write plan construction for the encoding
//!   schemes with real planning work (PALP's slot packing, WIRE's coset
//!   row search, Tetris's read and analysis stages); the controller calls
//!   these on every serviced write.
//! * `canonical/workloads/*` — write-content synthesis: the vips content
//!   model generating one line per iteration, the simulator's largest
//!   host-time layer.
//! * `canonical/memsim/*` — the backing store: DCW `write_line` over a warm
//!   store of 16,384 resident lines. DCW's plan is small, so the store's
//!   probe, old-line read and in-place update dominate.
//! * `canonical/telemetry/*` — per-event sink dispatch cost (the "tracing
//!   off costs nothing" claim).
//! * `canonical/writecache/*` — the DRAM write-cache tier's per-store
//!   coalesce hit and background drain cycle.
//! * `canonical/lint/*` — the pcm-lint static analyzer over the real
//!   workspace: a cold parse (lex + item parse + every rule) against a
//!   warm cached scan (fingerprint hits + graph rules only), pinning the
//!   incremental-scan speedup the CI static-analysis job relies on.
//! * `canonical/system/*` — a quick end-to-end vips × Tetris run under the
//!   fixed and adaptive scheduling policies (the sched-ablation surface),
//!   and a read-heavy canneal × DCW run bound by the controller's issue
//!   path.
//!
//! Bench ids are part of the snapshot schema: renaming one orphans its
//! baseline row (reported as `added`/`missing` by `bench-compare`), so
//! treat ids as API.

use crate::{Criterion, Throughput};
use pcm_memsim::SchedConfig;
use pcm_telemetry::{MemorySink, NullSink, OpKind, Telemetry, TelemetryEvent};
use pcm_types::{flip_encode, transitions, LineDemand, Ps, UnitDemand};
use pcm_workloads::WorkloadProfile;
use std::hint::black_box;
use tetris_experiments::{run_one, RunConfig, SchemeKind};
use tetris_write::{analyze, TetrisConfig};

/// Instructions per core for the system-level benches.
fn system_instructions(quick: bool) -> u64 {
    if quick {
        50_000
    } else {
        200_000
    }
}

/// Register the canonical suite on `c`. `quick` shrinks the system-run
/// size and sample counts for CI; micro benches are cheap either way.
pub fn canonical_suite(c: &mut Criterion, quick: bool) {
    let micro_samples = if quick { 10 } else { 20 };

    // --- analysis / packing hot path -----------------------------------
    let mut g = c.benchmark_group("canonical/analysis");
    g.sample_size(micro_samples);
    g.bench_function("transitions", |b| {
        b.iter(|| black_box(transitions(black_box(0xDEAD_BEEF), black_box(0xFEED_FACE))))
    });
    g.bench_function("flip_encode", |b| {
        b.iter(|| {
            black_box(flip_encode(
                black_box(0xAAAA),
                false,
                black_box(0x5555_5555),
            ))
        })
    });
    let cfg = TetrisConfig::paper_baseline();
    let demand = LineDemand::from_units(&[UnitDemand::new(7, 3); 8]);
    g.throughput(Throughput::Elements(8));
    g.bench_function("analyze_line", |b| {
        b.iter(|| black_box(analyze(black_box(&demand), &cfg).unwrap()))
    });
    g.finish();

    // --- scheme write planning -----------------------------------------
    {
        use pcm_schemes::{PalpWrite, SchemeConfig, WireWrite, WriteCtx, WriteScheme};
        use pcm_types::LineData;
        let scheme_cfg = SchemeConfig::paper_baseline();
        let old = LineData::from_units(&[0xDEAD_BEEF_0123_4567; 8]);
        let new = LineData::from_units(&[0xFEED_FACE_89AB_CDEF; 8]);
        let ctx = WriteCtx {
            old_stored: &old,
            old_flips: 0,
            new_logical: &new,
            cfg: &scheme_cfg,
        };
        let mut g = c.benchmark_group("canonical/schemes");
        g.sample_size(micro_samples);
        g.bench_function("palp_plan", |b| {
            b.iter(|| black_box(PalpWrite.plan(black_box(&ctx))))
        });
        g.bench_function("wire_plan", |b| {
            b.iter(|| black_box(WireWrite.plan(black_box(&ctx))))
        });
        let tetris = tetris_write::TetrisWrite::paper_baseline();
        g.bench_function("tetris_plan", |b| {
            b.iter(|| black_box(tetris.plan(black_box(&ctx))))
        });
        g.finish();
    }

    // --- write-content synthesis ---------------------------------------
    {
        use pcm_memsim::WriteContent;
        use pcm_types::LineData;
        use pcm_workloads::ProfileContent;
        let vips = WorkloadProfile::by_name("vips").expect("vips profile exists");
        let mut g = c.benchmark_group("canonical/workloads");
        g.sample_size(micro_samples);
        g.throughput(Throughput::Elements(1));
        // One write-back per iteration, cycling through a fixed 64-line
        // working set. The state persists across batches and starts warm
        // (every line past its first touch), so each batch times the same
        // steady fresh/in-place mix whatever its size.
        let mut content = ProfileContent::new(vips, 0xC0FFEE);
        let mut lines = [LineData::zeroed(64); 64];
        for _ in 0..16 {
            for line in &mut lines {
                *line = content.generate(0, line);
            }
        }
        let mut i = 0;
        g.bench_function("content_generate", |b| {
            b.iter(|| {
                i = (i + 1) % lines.len();
                lines[i] = content.generate(0, black_box(&lines[i]));
            })
        });
        g.finish();
    }

    // --- backing store ---------------------------------------------------
    {
        use pcm_memsim::{PcmMainMemory, WriteContent};
        use pcm_schemes::{DcwWrite, SchemeConfig};
        use pcm_types::LineData;
        use pcm_workloads::ProfileContent;
        const LINES: u64 = 16_384;
        const WRITES: u64 = 4_096;
        let vips = WorkloadProfile::by_name("vips").expect("vips profile exists");
        let mut content = ProfileContent::new(vips, 0xC0FFEE);
        let mut mem = PcmMainMemory::new(SchemeConfig::paper_baseline(), Box::new(DcwWrite))
            .expect("the Table II configuration is valid");
        let zero = LineData::zeroed(64);
        for line in 0..LINES {
            let first = content.generate(0, &zero);
            mem.write_line(line * 64, &first)
                .expect("bench line is in range");
        }
        // Vips write-backs scattered over the resident set, recorded once
        // so the timed loop runs the store alone, not content synthesis.
        let writes: Vec<(u64, LineData)> = (0..WRITES)
            .map(|i| {
                let addr = (i * 7_919 % LINES) * 64;
                let old = mem.peek_line(addr).expect("bench line is in range");
                (addr, content.generate(0, &old))
            })
            .collect();
        let mut g = c.benchmark_group("canonical/memsim");
        g.sample_size(micro_samples);
        g.throughput(Throughput::Elements(1));
        let mut i = 0;
        g.bench_function("write_line", |b| {
            b.iter(|| {
                i = (i + 1) % writes.len();
                let (addr, new) = &writes[i];
                black_box(mem.write_line(*addr, black_box(new)))
            })
        });
        g.finish();
    }

    // --- telemetry per-event dispatch ----------------------------------
    let ev = TelemetryEvent::BankBusy {
        at: Ps(1_000),
        bank: 3,
        kind: OpKind::Write,
        until: Ps(501_000),
        lines: 4,
    };
    let mut g = c.benchmark_group("canonical/telemetry");
    g.sample_size(micro_samples);
    g.bench_function("null_sink_event", |b| {
        let mut sink: Box<dyn Telemetry> = Box::new(NullSink);
        b.iter(|| sink.record(black_box(&ev)))
    });
    g.bench_function("memory_sink_event", |b| {
        let mut sink: Box<dyn Telemetry> = Box::new(MemorySink::new());
        b.iter(|| sink.record(black_box(&ev)))
    });
    g.finish();

    // --- write-cache tier hot paths ------------------------------------
    {
        use pcm_memsim::{PolicySelect, WriteCache, WriteCacheConfig};
        let mut g = c.benchmark_group("canonical/writecache");
        g.sample_size(micro_samples);
        g.bench_function("write_cache_hit", |b| {
            // Steady-state coalescing: every write lands on a resident
            // dirty line, the tier's best case and the controller's
            // per-store fast path.
            let mut wc = WriteCache::new(WriteCacheConfig::with_frames(64, PolicySelect::Lru), 64)
                .expect("bench write-cache configuration is valid");
            for i in 0..64u64 {
                wc.write(i * 64);
            }
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 1) % 64;
                black_box(wc.write(black_box(i * 64)))
            })
        });
        g.bench_function("write_cache_drain", |b| {
            // Steady-state churn: admit one cold line, drain one victim —
            // the background-drain cycle under a full tier.
            let mut wc = WriteCache::new(WriteCacheConfig::with_frames(64, PolicySelect::Lru), 64)
                .expect("bench write-cache configuration is valid");
            let mut next = 0u64;
            b.iter(|| {
                next += 64;
                wc.write(next);
                black_box(wc.drain_one())
            })
        });
        g.finish();
    }

    // --- static-analysis scan: cold parse vs warm cached scan ----------
    {
        use pcm_lint::cache::Cache;
        use pcm_lint::workspace::{find_root, source_paths};
        let root = find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("bench runs inside the workspace");
        let sources: Vec<(String, String)> = source_paths(&root)
            .expect("workspace sources enumerate")
            .into_iter()
            .map(|(rel, abs)| (rel, std::fs::read_to_string(&abs).expect("source readable")))
            .collect();
        let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).ok();
        let warm_cache = pcm_lint::scan(&sources, ci.clone(), &Cache::empty(), 0).cache;
        let mut g = c.benchmark_group("canonical/lint");
        g.sample_size(if quick { 5 } else { 10 });
        g.throughput(Throughput::Elements(sources.len() as u64));
        g.bench_function("cold_parse", |b| {
            b.iter(|| {
                black_box(pcm_lint::scan(
                    black_box(&sources),
                    ci.clone(),
                    &Cache::empty(),
                    0,
                ))
                .diags
                .len()
            })
        });
        g.bench_function("warm_scan", |b| {
            b.iter(|| {
                black_box(pcm_lint::scan(
                    black_box(&sources),
                    ci.clone(),
                    &warm_cache,
                    0,
                ))
                .diags
                .len()
            })
        });
        g.finish();
    }

    // --- end-to-end system runs ----------------------------------------
    let run_cfg = RunConfig::builder()
        .instructions_per_core(system_instructions(quick))
        .build()
        .expect("canonical suite configuration is valid");
    let mut g = c.benchmark_group("canonical/system");
    g.sample_size(if quick { 5 } else { 10 });
    // vips × Tetris under both scheduling policies, and read-heavy
    // canneal × DCW, whose trivial plan leaves the controller's issue
    // path and the event queue as the bulk of the run.
    for (label, workload, scheme, sched) in [
        (
            "vips_tetris_fixed",
            "vips",
            SchemeKind::Tetris,
            SchedConfig::fixed(),
        ),
        (
            "vips_tetris_adaptive",
            "vips",
            SchemeKind::Tetris,
            SchedConfig::adaptive(),
        ),
        (
            "canneal_dcw_fixed",
            "canneal",
            SchemeKind::Dcw,
            SchedConfig::fixed(),
        ),
    ] {
        let mut cfg = run_cfg;
        cfg.system.controller.sched = sched;
        let p = WorkloadProfile::by_name(workload).expect("profile exists");
        g.bench_function(label, |b| b.iter(|| black_box(run_one(p, scheme, &cfg))));
    }
    g.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The suite must register cleanly, produce no structural failures,
    /// and contain every id the committed baseline pins. Filters keep the
    /// test to the cheap micro benches.
    #[test]
    fn canonical_micro_benches_run_clean() {
        let mut c = Criterion::with_filters(vec![
            "canonical/analysis".into(),
            "canonical/workloads".into(),
            "canonical/memsim".into(),
        ]);
        canonical_suite(&mut c, true);
        assert!(!c.has_failures(), "{:?}", c.failures());
        let ids: Vec<&str> = c.results().iter().map(|r| r.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "canonical/analysis/transitions",
                "canonical/analysis/flip_encode",
                "canonical/analysis/analyze_line",
                "canonical/workloads/content_generate",
                "canonical/memsim/write_line",
            ]
        );
        let throughput = |id: &str| {
            c.results()
                .iter()
                .find(|r| r.id == id)
                .and_then(|r| r.throughput)
        };
        assert!(
            matches!(
                throughput("canonical/analysis/analyze_line"),
                Some(Throughput::Elements(8))
            ),
            "analyze_line carries its throughput annotation"
        );
        assert!(
            matches!(
                throughput("canonical/workloads/content_generate"),
                Some(Throughput::Elements(1))
            ),
            "content_generate counts one line per iteration"
        );
        assert!(
            matches!(
                throughput("canonical/memsim/write_line"),
                Some(Throughput::Elements(1))
            ),
            "write_line counts one line write per iteration"
        );
    }
}

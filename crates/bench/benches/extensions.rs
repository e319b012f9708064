//! Beyond-paper extensions: print the batching / pausing / subarray tables
//! once, then measure the batch packer and the P&V loop.

use pcm_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pcm_device::verify::{program_row_verified, VerifyParams};
use pcm_device::CellBlock;
use pcm_types::rng::SmallRng;
use pcm_types::PcmTimings;
use pcm_workloads::WorkloadProfile;
use std::hint::black_box;
use tetris_experiments::ablation::{self, sample_demands};
use tetris_write::{analyze_batch, TetrisConfig};

fn bench(c: &mut Criterion) {
    eprintln!("{}", ablation::batching_study(200, 21));
    let quick = pcm_bench::quick_run_config();
    eprintln!("{}", ablation::system_batching_study(&quick));
    eprintln!("{}", ablation::write_pausing_study(&quick));
    eprintln!("{}", ablation::subarray_sweep(&quick));

    // Batch packer scaling.
    let p = WorkloadProfile::by_name("ferret").unwrap();
    let demands = sample_demands(p, 16, 5);
    let cfg = TetrisConfig::paper_baseline();
    let mut g = c.benchmark_group("ext_analyze_batch");
    for n in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(analyze_batch(&demands[..n], &cfg).unwrap()))
        });
    }
    g.finish();

    c.bench_function("ext/pv_program_5pct_failures", |b| {
        let t = PcmTimings::paper_baseline();
        let params = VerifyParams {
            failure_ppm: 50_000,
            max_rounds: 16,
            ..Default::default()
        };
        let mut rng = SmallRng::seed_from_u64(3);
        b.iter(|| {
            let mut block = CellBlock::new(1, 64).unwrap();
            black_box(
                program_row_verified(&mut block, 0, 0xFFFF_FFFF, 0, &t, &params, &mut rng).unwrap(),
            )
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);

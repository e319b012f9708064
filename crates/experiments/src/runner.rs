//! Full-system experiment runs.

use crate::pool;
use crate::schemes::SchemeKind;
use pcm_memsim::shard::RANK_SEED_STRIDE;
use pcm_memsim::{Rank, ShardedSystem, SimResult, System, SystemConfig};
use pcm_telemetry::{AsyncTraceWriter, NullSink, Telemetry, TraceDetail};
use pcm_types::PcmError;
use pcm_workloads::{GeneratorConfig, ProfileContent, SyntheticParsec, WorkloadProfile};
use tetris_write::TetrisConfig;

/// Sizing/seeding for one experiment run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Instructions each core retires.
    pub instructions_per_core: u64,
    /// System configuration (cores, caches, controller, PCM, Tetris
    /// tuning, rank count).
    pub system: SystemConfig,
    /// RNG seed shared by trace generation and content synthesis.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            instructions_per_core: 8_000_000,
            system: SystemConfig::paper_baseline(),
            seed: 0xC0FFEE,
        }
    }
}

impl RunConfig {
    /// Start a fluent builder from the full-length defaults.
    pub fn builder() -> RunConfigBuilder {
        RunConfigBuilder {
            cfg: Self::default(),
        }
    }
}

/// Fluent construction of a [`RunConfig`];
/// [`RunConfigBuilder::build`] validates the system and Tetris
/// configurations, so an invalid combination never escapes.
///
/// ```
/// use tetris_experiments::RunConfig;
/// let cfg = RunConfig::builder()
///     .quick()
///     .instructions_per_core(100_000)
///     .seed(42)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.instructions_per_core, 100_000);
/// ```
#[derive(Clone, Copy, Debug)]
#[must_use = "call .build() to obtain the validated RunConfig"]
pub struct RunConfigBuilder {
    cfg: RunConfig,
}

impl RunConfigBuilder {
    /// Instructions each core retires.
    pub fn instructions_per_core(mut self, n: u64) -> Self {
        self.cfg.instructions_per_core = n;
        self
    }

    /// System configuration (cores, caches, controller, PCM).
    pub fn system(mut self, s: SystemConfig) -> Self {
        self.cfg.system = s;
        self
    }

    /// RNG seed shared by trace generation and content synthesis.
    pub fn seed(mut self, s: u64) -> Self {
        self.cfg.seed = s;
        self
    }

    /// Tetris configuration (ignored by other schemes).
    pub fn tetris(mut self, t: TetrisConfig) -> Self {
        self.cfg.system.tetris = t;
        self
    }

    /// Number of PCM ranks; above 1 the runner shards the trace across
    /// per-rank controllers ([`run_sharded`]).
    pub fn ranks(mut self, n: u32) -> Self {
        self.cfg.system.mem.org.ranks = n;
        self
    }

    /// Fast preset for tests and `--quick` runs (500 k instructions/core).
    pub fn quick(mut self) -> Self {
        self.cfg.instructions_per_core = 500_000;
        self
    }

    /// Validate and return the finished configuration.
    pub fn build(self) -> Result<RunConfig, PcmError> {
        self.cfg.system.validate()?;
        Ok(self.cfg)
    }
}

/// Generator settings for a (workload, run-config) pair.
fn gen_cfg(profile: &WorkloadProfile, cfg: &RunConfig) -> GeneratorConfig {
    GeneratorConfig {
        instructions_per_core: cfg.instructions_per_core,
        cores: cfg.system.cores,
        line_bytes: cfg.system.mem.org.cache_line_bytes as u64,
        seed: cfg.seed ^ fxhash(profile.name),
    }
}

/// The scheme-selected system configuration for one run.
fn sys_cfg(scheme: SchemeKind, cfg: &RunConfig) -> SystemConfig {
    let mut sys = cfg.system;
    sys.mem.select = scheme.select();
    sys
}

/// Run one workload under one scheme. Shards across ranks automatically
/// when `cfg.system.mem.org.ranks > 1` (see [`run_sharded`]).
pub fn run_one(profile: &WorkloadProfile, scheme: SchemeKind, cfg: &RunConfig) -> SimResult {
    if cfg.system.mem.org.ranks > 1 {
        run_sharded(profile, scheme, cfg, pool::default_threads(), |_| {
            Box::new(NullSink)
        })
    } else {
        run_one_traced(profile, scheme, cfg, Box::new(NullSink))
    }
}

/// Single-controller run with a telemetry sink observing the memory
/// hierarchy — pass a [`pcm_telemetry::JsonlSink`] to record the run to
/// disk, or a [`pcm_telemetry::MemorySink`] to inspect events in-process.
/// Telemetry adds nothing to the result; the sink sees bank occupancy,
/// queue depths, drain episodes, pause/resume decisions and batch-packing
/// outcomes. For multi-rank configurations use [`run_sharded`] (one sink
/// per rank) or [`run_one_to_file`] (async rank-tagged JSONL).
pub fn run_one_traced(
    profile: &WorkloadProfile,
    scheme: SchemeKind,
    cfg: &RunConfig,
    tel: Box<dyn Telemetry>,
) -> SimResult {
    let gen_cfg = gen_cfg(profile, cfg);
    let trace = SyntheticParsec::new(profile, gen_cfg);
    let content = ProfileContent::new(profile, gen_cfg.seed ^ 0x51);
    let mut sys = System::build(sys_cfg(scheme, cfg))
        .expect("valid system configuration")
        .with_trace(Box::new(trace))
        .with_content(Box::new(content));
    sys.set_workload_name(profile.name);
    sys.set_telemetry(tel);
    sys.run()
}

/// Shard one run across per-rank controllers, executing the ranks on the
/// in-repo work-stealing pool.
///
/// The workload stream is pulled op-by-op straight from the generator,
/// partitioned by decoded rank bits (gap-folded so every rank sees the
/// full instruction timeline — the unsharded stream is never held), and
/// each rank runs its own [`System`] — controller, bank set, scheduler —
/// on a pool worker. `rank_sink` builds the telemetry sink each rank
/// records into (called on the worker thread; use
/// [`pcm_telemetry::AsyncTraceWriter::rank_sink`] for rank-tagged JSONL,
/// or `|_| Box::new(NullSink)` for none). Per-rank results are merged into
/// one whole-system [`SimResult`]; with one rank this is bit-for-bit the
/// [`run_one_traced`] result.
pub fn run_sharded<F>(
    profile: &WorkloadProfile,
    scheme: SchemeKind,
    cfg: &RunConfig,
    threads: usize,
    rank_sink: F,
) -> SimResult
where
    F: Fn(u32) -> Box<dyn Telemetry> + Sync,
{
    let gen_cfg = gen_cfg(profile, cfg);
    let mut trace = SyntheticParsec::new(profile, gen_cfg);
    let sharded = ShardedSystem::build(sys_cfg(scheme, cfg), &mut trace)
        .expect("valid sharded configuration");
    let parts = pool::parallel_map(sharded.plans(), threads, |plan| {
        let seed = (gen_cfg.seed ^ 0x51) ^ (plan.index as u64).wrapping_mul(RANK_SEED_STRIDE);
        let mut rank = Rank::build(plan).expect("valid rank configuration");
        rank.sys
            .set_content(Box::new(ProfileContent::new(profile, seed)));
        rank.sys.set_workload_name(profile.name);
        rank.sys.set_telemetry(rank_sink(plan.index));
        rank.run()
    });
    sharded.merge(&parts)
}

/// Run one workload under one scheme while streaming rank-tagged JSONL
/// telemetry to `path` through a bounded channel drained by a background
/// writer thread. Works for both single- and multi-rank configurations;
/// returns the merged result and the number of events written.
pub fn run_one_to_file(
    profile: &WorkloadProfile,
    scheme: SchemeKind,
    cfg: &RunConfig,
    path: &std::path::Path,
    level: TraceDetail,
) -> std::io::Result<(SimResult, u64)> {
    let writer = AsyncTraceWriter::create(path, level)?;
    let result = if cfg.system.mem.org.ranks > 1 {
        run_sharded(profile, scheme, cfg, pool::default_threads(), |r| {
            Box::new(writer.rank_sink(r))
        })
    } else {
        run_one_traced(profile, scheme, cfg, Box::new(writer.rank_sink(0)))
    };
    let (_file, written) = writer.finish()?;
    Ok((result, written))
}

/// Run the full workload × scheme matrix in parallel on the in-repo
/// work-stealing pool ([`crate::pool`]), one worker per core.
///
/// Results are ordered `profiles × schemes` (workload-major), identical to
/// the sequential order — each run is independently seeded, so the output
/// is byte-identical whatever the thread count.
pub fn run_matrix(
    profiles: &[WorkloadProfile],
    schemes: &[SchemeKind],
    cfg: &RunConfig,
) -> Vec<SimResult> {
    run_matrix_threads(profiles, schemes, cfg, pool::default_threads())
}

/// [`run_matrix`] with an explicit worker count (`1` = fully sequential,
/// no threads spawned).
pub fn run_matrix_threads(
    profiles: &[WorkloadProfile],
    schemes: &[SchemeKind],
    cfg: &RunConfig,
    threads: usize,
) -> Vec<SimResult> {
    let jobs: Vec<(usize, usize)> = (0..profiles.len())
        .flat_map(|p| (0..schemes.len()).map(move |s| (p, s)))
        .collect();
    pool::parallel_map(&jobs, threads, |&(p, s)| {
        run_one(&profiles[p], schemes[s], cfg)
    })
}

/// Tiny deterministic string hash for seed derivation.
fn fxhash(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_workloads::ALL_PROFILES;

    #[test]
    fn single_run_produces_traffic() {
        let p = &ALL_PROFILES[7]; // vips, heaviest
        let cfg = RunConfig::builder().quick().build().unwrap();
        let r = run_one(p, SchemeKind::Dcw, &cfg);
        assert!(r.mem_writes > 100, "writes: {}", r.mem_writes);
        assert!(r.mem_reads > 100);
        assert_eq!(r.workload, "vips");
        // Measured RPKI within 25% of Table III.
        assert!(
            (r.rpki() - p.rpki).abs() / p.rpki < 0.25,
            "rpki {}",
            r.rpki()
        );
    }

    #[test]
    fn matrix_order_is_workload_major() {
        let cfg = RunConfig::builder()
            .instructions_per_core(100_000)
            .build()
            .unwrap();
        let profiles = [ALL_PROFILES[0], ALL_PROFILES[7]];
        let schemes = [SchemeKind::Dcw, SchemeKind::Tetris];
        let m = run_matrix(&profiles, &schemes, &cfg);
        assert_eq!(m.len(), 4);
        assert_eq!(m[0].workload, "blackscholes");
        assert_eq!(m[1].workload, "blackscholes");
        assert_eq!(m[2].workload, "vips");
        assert_eq!(m[3].scheme, "Tetris Write");
    }

    #[test]
    fn tetris_beats_baseline_on_write_heavy_workload() {
        let p = &ALL_PROFILES[7]; // vips
        let cfg = RunConfig::builder().quick().build().unwrap();
        let dcw = run_one(p, SchemeKind::Dcw, &cfg);
        let tetris = run_one(p, SchemeKind::Tetris, &cfg);
        assert!(tetris.runtime < dcw.runtime);
        assert!(tetris.ipc() > dcw.ipc());
        assert!(
            tetris.avg_write_units < 2.0,
            "tetris units {}",
            tetris.avg_write_units
        );
        assert_eq!(dcw.avg_write_units, 8.0);
    }

    #[test]
    fn parallel_matrix_matches_sequential_bit_for_bit() {
        let cfg = RunConfig::builder()
            .instructions_per_core(100_000)
            .build()
            .unwrap();
        let profiles = [ALL_PROFILES[0], ALL_PROFILES[2]];
        let schemes = [SchemeKind::Dcw, SchemeKind::Tetris];
        let seq = run_matrix_threads(&profiles, &schemes, &cfg, 1);
        let par = run_matrix_threads(&profiles, &schemes, &cfg, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(a.runtime, b.runtime);
            assert_eq!(a.energy, b.energy);
            assert_eq!(a.instructions, b.instructions);
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.read_latency.sum_ps, b.read_latency.sum_ps);
            assert_eq!(a.write_latency.sum_ps, b.write_latency.sum_ps);
            assert_eq!(a.cell_sets, b.cell_sets);
            assert_eq!(a.cell_resets, b.cell_resets);
        }
    }

    /// Wall-clock acceptance check: the pooled matrix must beat the
    /// sequential path on a multicore host. Timing-sensitive, so ignored
    /// by default — run with `cargo test --release -- --ignored`.
    #[test]
    #[ignore = "timing-sensitive; run explicitly in release mode"]
    fn parallel_matrix_is_faster_on_multicore() {
        if pool::default_threads() < 4 {
            return; // too few cores for a meaningful comparison
        }
        let cfg = RunConfig::builder()
            .instructions_per_core(200_000)
            .build()
            .unwrap();
        let profiles = [
            ALL_PROFILES[0],
            ALL_PROFILES[2],
            ALL_PROFILES[4],
            ALL_PROFILES[7],
        ];
        let schemes = [SchemeKind::Dcw, SchemeKind::Tetris];
        let t0 = std::time::Instant::now();
        let seq = run_matrix_threads(&profiles, &schemes, &cfg, 1);
        let t_seq = t0.elapsed();
        let t1 = std::time::Instant::now();
        let par = run_matrix_threads(&profiles, &schemes, &cfg, 4);
        let t_par = t1.elapsed();
        assert_eq!(seq.len(), par.len());
        eprintln!("sequential {t_seq:?} vs 4 threads {t_par:?}");
        assert!(
            t_par < t_seq,
            "4-thread matrix ({t_par:?}) not faster than sequential ({t_seq:?})"
        );
    }

    #[test]
    fn sharded_one_rank_matches_single_controller_bit_for_bit() {
        let p = &ALL_PROFILES[7]; // vips, heaviest
        let cfg = RunConfig::builder()
            .instructions_per_core(100_000)
            .build()
            .unwrap();
        for scheme in [SchemeKind::Dcw, SchemeKind::Tetris] {
            let direct = run_one_traced(p, scheme, &cfg, Box::new(NullSink));
            let sharded = run_sharded(p, scheme, &cfg, 1, |_| Box::new(NullSink));
            assert_eq!(direct.runtime, sharded.runtime);
            assert_eq!(direct.energy, sharded.energy);
            assert_eq!(direct.instructions, sharded.instructions);
            assert_eq!(direct.cycles, sharded.cycles);
            assert_eq!(direct.read_latency.sum_ps, sharded.read_latency.sum_ps);
            assert_eq!(direct.write_latency.sum_ps, sharded.write_latency.sum_ps);
            assert_eq!(direct.mem_writes, sharded.mem_writes);
            assert_eq!(direct.mem_reads, sharded.mem_reads);
            assert_eq!(direct.avg_write_units, sharded.avg_write_units);
            assert_eq!(direct.cell_sets, sharded.cell_sets);
            assert_eq!(direct.cell_resets, sharded.cell_resets);
        }
    }

    /// The streaming pull path (generator fed straight into
    /// `ShardedSystem::build`) must be bit-for-bit identical to running the
    /// same stream through the sanctioned eager materialization point
    /// (`VecTrace::capture`) — the compatibility pin for the
    /// `RequestSource` redesign that replaced the old `record_trace` path.
    #[test]
    fn streaming_source_matches_materialized_trace_bit_for_bit() {
        use pcm_memsim::VecTrace;
        use pcm_workloads::SyntheticParsec;
        let p = &ALL_PROFILES[7]; // vips, heaviest
        let cfg = RunConfig::builder()
            .instructions_per_core(100_000)
            .ranks(2)
            .build()
            .unwrap();
        let streamed = run_sharded(p, SchemeKind::Tetris, &cfg, 1, |_| Box::new(NullSink));

        // Re-derive the identical stream, but materialize it first.
        let gen_cfg = super::gen_cfg(p, &cfg);
        let mut gen = SyntheticParsec::new(p, gen_cfg);
        let mut captured = VecTrace::capture(&mut gen, gen_cfg.cores);
        let sharded =
            ShardedSystem::build(super::sys_cfg(SchemeKind::Tetris, &cfg), &mut captured).unwrap();
        let parts: Vec<SimResult> = sharded
            .plans()
            .iter()
            .map(|plan| {
                let seed =
                    (gen_cfg.seed ^ 0x51) ^ (plan.index as u64).wrapping_mul(RANK_SEED_STRIDE);
                let mut rank = Rank::build(plan).unwrap();
                rank.sys.set_content(Box::new(ProfileContent::new(p, seed)));
                rank.sys.set_workload_name(p.name);
                rank.run()
            })
            .collect();
        let materialized = sharded.merge(&parts);

        assert_eq!(streamed.runtime, materialized.runtime);
        assert_eq!(streamed.energy, materialized.energy);
        assert_eq!(streamed.instructions, materialized.instructions);
        assert_eq!(streamed.cycles, materialized.cycles);
        assert_eq!(
            streamed.read_latency.sum_ps,
            materialized.read_latency.sum_ps
        );
        assert_eq!(
            streamed.write_latency.sum_ps,
            materialized.write_latency.sum_ps
        );
        assert_eq!(streamed.mem_reads, materialized.mem_reads);
        assert_eq!(streamed.mem_writes, materialized.mem_writes);
        assert_eq!(streamed.cell_sets, materialized.cell_sets);
        assert_eq!(streamed.cell_resets, materialized.cell_resets);
    }

    #[test]
    fn four_rank_run_conserves_traffic_and_instructions() {
        let p = &ALL_PROFILES[7];
        let one_cfg = RunConfig::builder()
            .instructions_per_core(100_000)
            .build()
            .unwrap();
        let four_cfg = RunConfig::builder()
            .instructions_per_core(100_000)
            .ranks(4)
            .build()
            .unwrap();
        let one = run_one(p, SchemeKind::Tetris, &one_cfg);
        let four = run_one(p, SchemeKind::Tetris, &four_cfg);
        assert_eq!(four.instructions, one.instructions);
        assert_eq!(four.mem_writes, one.mem_writes);
        assert_eq!(four.mem_reads, one.mem_reads);
        assert!(four.runtime <= one.runtime, "more ranks, no slower");
    }

    #[test]
    fn sharded_runs_are_deterministic_across_thread_counts() {
        let p = &ALL_PROFILES[2];
        let cfg = RunConfig::builder()
            .instructions_per_core(100_000)
            .ranks(2)
            .build()
            .unwrap();
        let a = run_sharded(p, SchemeKind::Tetris, &cfg, 1, |_| Box::new(NullSink));
        let b = run_sharded(p, SchemeKind::Tetris, &cfg, 4, |_| Box::new(NullSink));
        assert_eq!(a.runtime, b.runtime);
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.read_latency.sum_ps, b.read_latency.sum_ps);
    }

    #[test]
    fn traced_file_run_tags_every_rank() {
        use pcm_telemetry::read_tagged_events;
        let p = &ALL_PROFILES[7];
        let cfg = RunConfig::builder()
            .instructions_per_core(100_000)
            .ranks(2)
            .build()
            .unwrap();
        let path = std::env::temp_dir().join("tetris-runner-tagged-trace.jsonl");
        let (r, written) =
            run_one_to_file(p, SchemeKind::Tetris, &cfg, &path, TraceDetail::Coarse).unwrap();
        assert!(r.mem_writes > 0);
        assert!(written > 0);
        let tagged =
            read_tagged_events(std::io::BufReader::new(std::fs::File::open(&path).unwrap()))
                .unwrap();
        assert_eq!(tagged.len() as u64, written);
        let ranks: std::collections::BTreeSet<u32> = tagged.iter().map(|(r, _)| *r).collect();
        assert_eq!(ranks.into_iter().collect::<Vec<_>>(), vec![0, 1]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn deterministic_across_runs() {
        let p = &ALL_PROFILES[2];
        let cfg = RunConfig::builder()
            .instructions_per_core(200_000)
            .build()
            .unwrap();
        let a = run_one(p, SchemeKind::ThreeStage, &cfg);
        let b = run_one(p, SchemeKind::ThreeStage, &cfg);
        assert_eq!(a.runtime, b.runtime);
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.read_latency.sum_ps, b.read_latency.sum_ps);
    }
}

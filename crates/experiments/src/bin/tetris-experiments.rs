//! `tetris-experiments` — regenerate the paper's tables and figures.
//!
//! `tetris-experiments --help` prints the synopsis of the figure mode and
//! of every subcommand.
//!
//! `run` simulates one (workload, scheme) cell and prints a one-line
//! summary — the CI `scheme-matrix` job runs every registered scheme tag
//! through it (`--list-schemes` prints the tags, one per line).
//! `run --trace` records a telemetry trace of that run to a JSONL file;
//! `report` renders such a file into per-bank utilization and
//! queue-depth percentile tables.
//! `run --write-cache FRAMES --policy TAG` puts the DRAM write-cache tier
//! in front of the controller; `cache-sweep` tables the tier's hit rate,
//! coalesce ratio and drain behaviour per (frame budget × policy ×
//! workload) cell, recording one trace per cell (the CI `cache-sweep`
//! job runs the quick matrix).
//! `sched-ablation` runs the same workload under the fixed and the
//! adaptive controller scheduling policy and prints the delta table;
//! `--assert` exits nonzero if the adaptive policy regresses (the CI
//! `sched-regression` job runs exactly this). `bench-compare` diffs two
//! `BENCH_<n>.json` perf snapshots (produced by `pcm-bench snapshot`) and
//! exits nonzero when a bench regresses beyond `max(tolerance%, k·MAD)`
//! or goes missing.

use pcm_memsim::SystemConfig;
/// Print to stdout, exiting quietly if the consumer closed the pipe
/// (`tetris-experiments fig3 | head` must not panic).
fn out(text: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let mut stdout = std::io::stdout().lock();
    if writeln!(stdout, "{text}").is_err() {
        std::process::exit(0);
    }
}

macro_rules! outln {
    ($($arg:tt)*) => { out(format_args!($($arg)*)) };
}

use pcm_schemes::SchemeConfig;
use pcm_types::{LineDemand, PowerParams, UnitDemand};
use pcm_workloads::{WorkloadProfile, ALL_PROFILES};
use tetris_experiments::figures::{self, MatrixView};
use tetris_experiments::report::Table;
use tetris_experiments::{ablation, run_matrix, RunConfig, SchemeKind};
use tetris_write::{analyze, render_gantt, TetrisConfig};

const USAGE: &str = "\
usage: tetris-experiments [all|fig1|fig3|fig4|fig10|fig11|fig12|fig13|fig14|table1|table2|table3|energy|ablation]... [--quick] [--instructions N] [--ranks R] [--json FILE] [--csv DIR]
       tetris-experiments run --scheme TAG [--workload W] [--quick] [--instructions N] [--ranks R] [--write-cache FRAMES] [--policy lru|clock|2q] [--trace OUT.jsonl] [--trace-level coarse|fine] [--json FILE]
       tetris-experiments run --list-schemes
       tetris-experiments trace WORKLOAD OUT.jsonl [--instructions N]
       tetris-experiments replay TRACE.jsonl SCHEME
       tetris-experiments report TRACE.jsonl [--csv DIR]
       tetris-experiments sched-ablation [--quick] [--workload W] [--instructions N] [--ranks R] [--trace-dir DIR] [--csv DIR] [--assert]
       tetris-experiments cache-sweep [--quick] [--workload W]... [--frames LIST] [--policy TAG]... [--instructions N] [--trace-dir DIR] [--csv DIR]
       tetris-experiments bench-compare BASE.json FRESH.json [--tolerance PCT] [--k N] [--md OUT.md] [--json OUT.json]";

const TARGETS: [&str; 14] = [
    "all", "fig1", "fig3", "fig4", "fig10", "fig11", "fig12", "fig13", "fig14", "table1", "table2",
    "table3", "energy", "ablation",
];

/// Cursor over one mode's arguments: flags, their values and positionals,
/// in any order. `-h`/`--help` anywhere prints the usage and exits 0.
struct Args {
    cmd: &'static str,
    rest: std::vec::IntoIter<String>,
    /// The last flag `next` returned; value errors name it.
    flag: String,
}

impl Args {
    fn new(cmd: &'static str, args: Vec<String>) -> Self {
        Args {
            cmd,
            rest: args.into_iter(),
            flag: String::new(),
        }
    }

    /// The next flag or positional argument.
    fn next(&mut self) -> Option<String> {
        let arg = self.rest.next()?;
        if arg == "-h" || arg == "--help" {
            outln!("{USAGE}");
            std::process::exit(0);
        }
        if arg.starts_with('-') {
            self.flag.clone_from(&arg);
        }
        Some(arg)
    }

    /// The current flag's value, or a usage error saying it needs `what`.
    fn value(&mut self, what: &str) -> String {
        self.parse_with(what, |v| Some(v.to_string()))
    }

    /// The current flag's value parsed as `T`.
    fn parse<T: std::str::FromStr>(&mut self, what: &str) -> T {
        self.parse_with(what, |v| v.parse().ok())
    }

    /// The current flag's value run through `parse`; a missing value or a
    /// `None` is a usage error naming the flag and `what` it needs.
    fn parse_with<T>(&mut self, what: &str, parse: impl FnOnce(&str) -> Option<T>) -> T {
        let flag = &self.flag;
        self.rest
            .next()
            .and_then(|v| parse(&v))
            .unwrap_or_else(|| usage_error(&format!("{flag} needs {what}")))
    }

    /// Reject an argument this mode does not take.
    fn reject(&self, arg: &str) -> ! {
        usage_error(&format!("unknown {} argument '{arg}'", self.cmd))
    }

    /// Exactly `N` positionals, or a usage error listing `names`.
    fn exact<const N: usize>(&self, pos: Vec<String>, names: &str) -> [String; N] {
        pos.try_into()
            .unwrap_or_else(|_| usage_error(&format!("{} needs {names}", self.cmd)))
    }
}

/// The flags every simulating mode shares, folded into one `RunConfig`.
#[derive(Default)]
struct RunArgs {
    quick: bool,
    instructions: Option<u64>,
    ranks: Option<u32>,
}

impl RunArgs {
    /// Take `flag` (and its value) if it is a shared run flag.
    fn take(&mut self, flag: &str, args: &mut Args) -> bool {
        match flag {
            "--quick" => self.quick = true,
            "--instructions" => self.instructions = Some(args.parse("a number")),
            "--ranks" => {
                self.ranks = Some(args.parse_with("a power-of-two number", |v| {
                    v.parse().ok().filter(|r: &u32| r.is_power_of_two())
                }))
            }
            _ => return false,
        }
        true
    }

    fn config(&self) -> RunConfig {
        let mut builder = RunConfig::builder();
        if self.quick {
            builder = builder.quick();
        }
        if let Some(n) = self.instructions {
            builder = builder.instructions_per_core(n);
        }
        if let Some(r) = self.ranks {
            builder = builder.ranks(r);
        }
        builder
            .build()
            .unwrap_or_else(|e| usage_error(&e.to_string()))
    }
}

/// Look up a workload profile, exiting 1 on an unknown name.
fn profile_named(name: &str) -> &'static WorkloadProfile {
    WorkloadProfile::by_name(name).unwrap_or_else(|| {
        eprintln!("unknown workload {name}");
        std::process::exit(1);
    })
}

/// Look up a scheme, exiting 1 with the registered tags on an unknown one.
fn scheme_named(tag: &str) -> SchemeKind {
    SchemeKind::parse(tag).unwrap_or_else(|| {
        let tags: Vec<&str> = pcm_schemes::SchemeSelect::ALL
            .iter()
            .map(|s| s.tag())
            .collect();
        eprintln!("unknown scheme {tag}; try {}", tags.join("/"));
        std::process::exit(1);
    })
}

/// Write `contents` to `path`, exiting 1 with the path on failure.
fn write_file(path: &str, contents: impl AsRef<[u8]>) {
    std::fs::write(path, contents).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
}

fn print_fig4_gantt() {
    // The paper's worked example: budget 32 per chip, write-1 loads
    // 8,7,7,6,6,6,5,3 and write-0 loads 0,1,1,2,3,2,2,5.
    let mut cfg = TetrisConfig::paper_baseline();
    cfg.scheme.power = PowerParams {
        l_ratio: 2,
        budget_per_bank: 32,
        chips_per_bank: 4,
    };
    let demand = LineDemand::from_units(&[
        UnitDemand::new(8, 0),
        UnitDemand::new(7, 1),
        UnitDemand::new(7, 1),
        UnitDemand::new(6, 2),
        UnitDemand::new(6, 3),
        UnitDemand::new(6, 2),
        UnitDemand::new(5, 2),
        UnitDemand::new(3, 5),
    ]);
    let a = analyze(&demand, &cfg).expect("fig4 demand packs");
    outln!("== Fig. 4 — chip-level schedule of the paper's worked example ==");
    outln!("{}", render_gantt(&a, 8));
}

/// Print a table and, when `--csv DIR` was given, also write it as CSV.
fn emit(t: &Table, csv_dir: &Option<String>) {
    outln!("{t}");
    if let Some(dir) = csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            std::process::exit(1);
        }
        write_file(&format!("{dir}/{}.csv", t.slug()), t.to_csv());
    }
}

/// `trace WORKLOAD OUT.jsonl`: record a synthetic trace to disk.
fn cmd_trace(mut args: Args) {
    use pcm_memsim::VecTrace;
    use pcm_workloads::generator::{GeneratorConfig, SyntheticParsec};
    use pcm_workloads::trace::write_trace;
    let mut instructions = 1_000_000;
    let mut pos = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--instructions" => instructions = args.parse("a number"),
            f if f.starts_with('-') => args.reject(f),
            _ => pos.push(arg),
        }
    }
    let [workload, out] = args.exact(pos, "WORKLOAD and OUT.jsonl");
    let p = profile_named(&workload);
    let cfg = GeneratorConfig {
        instructions_per_core: instructions,
        ..Default::default()
    };
    let mut gen = SyntheticParsec::new(p, cfg);
    let trace = VecTrace::capture(&mut gen, cfg.cores);
    let mut file = std::io::BufWriter::new(std::fs::File::create(&out).unwrap_or_else(|e| {
        eprintln!("cannot create {out}: {e}");
        std::process::exit(1);
    }));
    write_trace(&mut file, trace.ops()).expect("write trace");
    let ops: usize = trace.ops().iter().map(Vec::len).sum();
    eprintln!("wrote {ops} ops for {} cores to {out}", trace.ops().len());
}

/// `run --scheme TAG`: simulate one (workload, scheme) cell and print a
/// one-line summary. This is the CI scheme-matrix entry point: one
/// invocation per registered tag, optionally recording a telemetry trace
/// for `report` to render.
fn cmd_run(mut args: Args) {
    let mut run = RunArgs::default();
    let mut scheme: Option<String> = None;
    let mut workload = "vips".to_string();
    let mut trace_path: Option<String> = None;
    let mut trace_level = pcm_telemetry::TraceDetail::Fine;
    let mut json_path: Option<String> = None;
    let mut write_cache: Option<usize> = None;
    let mut policy = pcm_memsim::PolicySelect::Lru;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list-schemes" => {
                for s in pcm_schemes::SchemeSelect::ALL {
                    outln!("{}", s.tag());
                }
                return;
            }
            "--scheme" => scheme = Some(args.value("a tag")),
            "--workload" => workload = args.value("a name"),
            "--trace" => trace_path = Some(args.value("a path")),
            "--trace-level" => {
                trace_level =
                    args.parse_with("'coarse' or 'fine'", pcm_telemetry::TraceDetail::parse)
            }
            "--json" => json_path = Some(args.value("a path")),
            "--write-cache" => write_cache = Some(args.parse("a frame count")),
            "--policy" => policy = args.parse("lru, clock or 2q"),
            f if run.take(f, &mut args) => {}
            _ => args.reject(&arg),
        }
    }
    let scheme =
        scheme.unwrap_or_else(|| usage_error("run needs --scheme TAG (or --list-schemes)"));
    let kind = scheme_named(&scheme);
    let profile = profile_named(&workload);
    let mut cfg = run.config();
    if let Some(frames) = write_cache {
        cfg.system.write_cache = if frames == 0 {
            pcm_memsim::WriteCacheConfig::disabled()
        } else {
            pcm_memsim::WriteCacheConfig::with_frames(frames, policy)
        };
        cfg.system
            .validate()
            .unwrap_or_else(|e| usage_error(&e.to_string()));
    }
    eprintln!(
        "run: {} × {}, {} instructions/core, {} rank(s)…",
        profile.name,
        kind.name(),
        cfg.instructions_per_core,
        cfg.system.mem.org.ranks
    );
    if cfg.system.write_cache.enabled() {
        eprintln!(
            "write cache: {} frames, {} policy, drain watermark {}",
            cfg.system.write_cache.frames,
            cfg.system.write_cache.policy,
            cfg.system.write_cache.drain_watermark
        );
    }
    let r = if let Some(out) = &trace_path {
        let (r, written) = tetris_experiments::run_one_to_file(
            profile,
            kind,
            &cfg,
            std::path::Path::new(out),
            trace_level,
        )
        .unwrap_or_else(|e| {
            eprintln!("cannot trace to {out}: {e}");
            std::process::exit(1);
        });
        eprintln!("{written} telemetry events → {out}");
        r
    } else {
        tetris_experiments::run_one(profile, kind, &cfg)
    };
    outln!(
        "{} × {}: runtime {:.1} µs, IPC {:.3}, read {:.1} ns, write {:.1} ns, {} reads / {} writes, {} sets / {} resets",
        profile.name,
        kind.name(),
        r.runtime.as_ns_f64() / 1000.0,
        r.ipc(),
        r.read_latency.mean_ns(),
        r.write_latency.mean_ns(),
        r.mem_reads,
        r.mem_writes,
        r.cell_sets,
        r.cell_resets
    );
    if let Some(path) = &json_path {
        write_file(
            path,
            tetris_experiments::report::results_to_json(std::slice::from_ref(&r)),
        );
        eprintln!("wrote {path}");
    }
}

/// `cache-sweep`: table the DRAM write-cache tier per (frame budget ×
/// replacement policy × workload) cell — the CI `cache-sweep` job runs
/// the quick 3-policy × 2-workload matrix through this.
fn cmd_cache_sweep(mut args: Args) {
    use pcm_memsim::PolicySelect;
    let mut run = RunArgs::default();
    let mut workloads: Vec<String> = Vec::new();
    let mut frames: Vec<usize> = Vec::new();
    let mut policies: Vec<PolicySelect> = Vec::new();
    let mut trace_dir = "target/cache-sweep".to_string();
    let mut csv_dir: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => workloads.push(args.value("a name")),
            // The `off` baseline row is always swept, so a 0 budget is
            // never a cell of its own.
            "--frames" => frames.extend(args.parse_with(
                "a comma-separated list of positive numbers",
                |v| {
                    v.split(',')
                        .map(|f| f.trim().parse().ok().filter(|&f: &usize| f > 0))
                        .collect::<Option<Vec<usize>>>()
                },
            )),
            "--policy" => policies.push(args.parse("lru, clock or 2q")),
            "--trace-dir" => trace_dir = args.value("a directory"),
            "--csv" => csv_dir = Some(args.value("a directory")),
            // A shared run flag that cache-sweep does not take.
            "--ranks" => args.reject(&arg),
            f if run.take(f, &mut args) => {}
            _ => args.reject(&arg),
        }
    }
    if workloads.is_empty() {
        workloads = vec!["vips".to_string(), "ferret".to_string()];
    }
    if frames.is_empty() {
        frames = if run.quick {
            vec![64]
        } else {
            vec![64, 256, 1024]
        };
    }
    if policies.is_empty() {
        policies = PolicySelect::ALL.to_vec();
    }
    let profiles: Vec<WorkloadProfile> = workloads.iter().map(|w| *profile_named(w)).collect();
    let cfg = run.config();
    eprintln!(
        "cache-sweep: {} workload(s) × {} frame budget(s) × {} policy(ies), {} instructions/core…",
        profiles.len(),
        frames.len(),
        policies.len(),
        cfg.instructions_per_core
    );
    let cells = tetris_experiments::run_cache_sweep(
        &profiles,
        &frames,
        &policies,
        &cfg,
        std::path::Path::new(&trace_dir),
    )
    .unwrap_or_else(|e| {
        eprintln!("cache-sweep failed: {e}");
        std::process::exit(1);
    });
    eprintln!("{} cell(s), traces under {trace_dir}", cells.len());
    emit(&tetris_experiments::cache_sweep_table(&cells), &csv_dir);
}

/// `replay TRACE.jsonl SCHEME`: run a recorded trace through the system.
fn cmd_replay(mut args: Args) {
    use pcm_memsim::cpu::VecTrace;
    use pcm_memsim::{System, SystemConfig, UniformRandomContent};
    use pcm_workloads::trace::read_trace;
    let mut pos = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            f if f.starts_with('-') => args.reject(f),
            _ => pos.push(arg),
        }
    }
    let [path, scheme] = args.exact(pos, "TRACE.jsonl and SCHEME");
    let kind = scheme_named(&scheme);
    let file = std::io::BufReader::new(std::fs::File::open(&path).unwrap_or_else(|e| {
        eprintln!("cannot open trace {path}: {e}");
        std::process::exit(1);
    }));
    let trace = read_trace(file).unwrap_or_else(|e| {
        eprintln!("cannot parse trace {path}: {e}");
        std::process::exit(1);
    });
    if trace.is_empty() {
        eprintln!("trace {path} contains no cores");
        std::process::exit(1);
    }
    let mut cfg = SystemConfig::paper_baseline();
    cfg.cores = trace.len();
    cfg.mem.select = kind.select();
    let capacity = cfg.mem.org.capacity_bytes;
    if let Some(op) = trace.iter().flatten().find(|op| op.addr >= capacity) {
        eprintln!(
            "trace {path}: address {} is beyond the {capacity}-byte memory",
            op.addr
        );
        std::process::exit(1);
    }
    let mut sys = System::build(cfg)
        .expect("valid config")
        .with_trace(Box::new(VecTrace::new(trace)))
        .with_content(Box::new(UniformRandomContent::new(7)));
    sys.set_workload_name(&path);
    let r = sys.run();
    outln!(
        "{}: runtime {:.1} µs, IPC {:.3}, read {:.1} ns, write {:.1} ns, {} reads / {} writes",
        kind.name(),
        r.runtime.as_ns_f64() / 1000.0,
        r.ipc(),
        r.read_latency.mean_ns(),
        r.write_latency.mean_ns(),
        r.mem_reads,
        r.mem_writes
    );
}

/// `report TRACE.jsonl`: summarize a recorded telemetry trace. Ranked
/// (tagged) traces additionally render a per-rank rollup and per-rank
/// tables; plain single-rank traces render exactly as before.
fn cmd_report(mut args: Args) {
    use pcm_telemetry::{read_tagged_events, TraceSummary};
    let mut csv_dir: Option<String> = None;
    let mut pos = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--csv" => csv_dir = Some(args.value("a directory")),
            f if f.starts_with('-') => args.reject(f),
            _ => pos.push(arg),
        }
    }
    let [path] = args.exact(pos, "TRACE.jsonl");
    let csv_dir = &csv_dir;
    let file = std::io::BufReader::new(std::fs::File::open(&path).unwrap_or_else(|e| {
        eprintln!("cannot open trace {path}: {e}");
        std::process::exit(1);
    }));
    let tagged = read_tagged_events(file).unwrap_or_else(|e| {
        eprintln!("cannot parse trace {path}: {e}");
        std::process::exit(1);
    });
    if tagged.is_empty() {
        eprintln!("trace {path} contains no events");
        std::process::exit(1);
    }
    let ranks = TraceSummary::by_rank(&tagged);
    if ranks.len() == 1 {
        emit(
            &tetris_experiments::report::trace_bank_table(&ranks[0]),
            csv_dir,
        );
        emit(
            &tetris_experiments::report::trace_queue_table(&ranks[0]),
            csv_dir,
        );
        return;
    }
    emit(
        &tetris_experiments::report::rank_util_table(&ranks),
        csv_dir,
    );
    let merged = TraceSummary::merged(&ranks);
    emit(
        &tetris_experiments::report::trace_bank_table(&merged),
        csv_dir,
    );
    emit(
        &tetris_experiments::report::trace_queue_table(&merged),
        csv_dir,
    );
    for (i, s) in ranks.iter().enumerate() {
        emit(
            &tetris_experiments::report::trace_bank_table_for_rank(s, i as u32),
            csv_dir,
        );
        emit(
            &tetris_experiments::report::trace_queue_table_for_rank(s, i as u32),
            csv_dir,
        );
    }
}

/// `sched-ablation`: fixed vs adaptive scheduling head-to-head.
fn cmd_sched_ablation(mut args: Args) {
    let mut run = RunArgs::default();
    let mut workload = "vips".to_string();
    let mut trace_dir = "sched-traces".to_string();
    let mut csv_dir: Option<String> = None;
    let mut assert_no_regression = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--assert" => assert_no_regression = true,
            "--workload" => workload = args.value("a name"),
            "--trace-dir" => trace_dir = args.value("a directory"),
            "--csv" => csv_dir = Some(args.value("a directory")),
            f if run.take(f, &mut args) => {}
            _ => args.reject(&arg),
        }
    }
    let profile = profile_named(&workload);
    let cfg = run.config();
    eprintln!(
        "sched-ablation: {} × Tetris, {} instructions/core, {} rank(s), fixed vs adaptive…",
        profile.name, cfg.instructions_per_core, cfg.system.mem.org.ranks
    );
    let out =
        tetris_experiments::run_sched_ablation(profile, &cfg, std::path::Path::new(&trace_dir))
            .unwrap_or_else(|e| {
                eprintln!("sched-ablation failed: {e}");
                std::process::exit(1);
            });
    eprintln!(
        "traces: {} and {}",
        out.base_trace.display(),
        out.adaptive_trace.display()
    );
    emit(
        &tetris_experiments::delta_table(&out.base, &out.adaptive),
        &csv_dir,
    );
    if out.adaptive_ranks.len() > 1 {
        emit(
            &tetris_experiments::report::rank_util_table(&out.adaptive_ranks),
            &csv_dir,
        );
    }
    let violations = tetris_experiments::regression_check(&out.base, &out.adaptive);
    if violations.is_empty() {
        outln!("regression check: OK — adaptive is no worse than fixed");
    } else {
        for v in &violations {
            outln!("regression check: FAIL — {v}");
        }
        if assert_no_regression {
            std::process::exit(1);
        }
    }
}

/// `bench-compare BASE.json FRESH.json`: diff two perf snapshots and gate.
fn cmd_bench_compare(mut args: Args) {
    use pcm_types::perf::{BenchSnapshot, GatePolicy};
    use pcm_types::JsonCodec;

    let non_negative = |v: &str| v.parse().ok().filter(|x: &f64| x.is_finite() && *x >= 0.0);
    let mut pos = Vec::new();
    let mut policy = GatePolicy::default();
    let mut md_out: Option<String> = None;
    let mut json_out: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tolerance" => policy.tolerance_pct = args.parse_with("a percentage", non_negative),
            "--k" => policy.k_mad = args.parse_with("a multiplier", non_negative),
            "--md" => md_out = Some(args.value("a path")),
            "--json" => json_out = Some(args.value("a path")),
            f if f.starts_with('-') => args.reject(f),
            _ => pos.push(arg),
        }
    }
    let [base_path, fresh_path] = args.exact(pos, "BASE.json and FRESH.json");
    let load = |path: &str| -> BenchSnapshot {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read snapshot {path}: {e}");
            std::process::exit(1);
        });
        let snap = BenchSnapshot::from_json_str(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse snapshot {path}: {e}");
            std::process::exit(1);
        });
        if let Err(e) = snap.validate() {
            eprintln!("invalid snapshot {path}: {e}");
            std::process::exit(1);
        }
        snap
    };
    let base = load(&base_path);
    let fresh = load(&fresh_path);
    let report = tetris_experiments::compare(&base, &fresh, policy);
    outln!("{}", report.markdown());
    if let Some(path) = md_out {
        write_file(&path, report.markdown());
    }
    if let Some(path) = json_out {
        write_file(&path, report.to_json().to_string_pretty() + "\n");
    }
    if report.has_failures() {
        std::process::exit(1);
    }
}

/// Exit with a clean usage error instead of a panic backtrace.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg} (see --help)");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sub = |cmd| Args::new(cmd, args[1..].to_vec());
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(sub("run")),
        Some("trace") => cmd_trace(sub("trace")),
        Some("replay") => cmd_replay(sub("replay")),
        Some("report") => cmd_report(sub("report")),
        Some("sched-ablation") => cmd_sched_ablation(sub("sched-ablation")),
        Some("cache-sweep") => cmd_cache_sweep(sub("cache-sweep")),
        Some("bench-compare") => cmd_bench_compare(sub("bench-compare")),
        _ => cmd_figures(Args::new("tetris-experiments", args)),
    }
}

/// The figure mode: regenerate the named tables and figures (all of them
/// when none is named).
fn cmd_figures(mut args: Args) {
    let mut run = RunArgs::default();
    let mut targets: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut csv_dir: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_path = Some(args.value("a path")),
            "--csv" => csv_dir = Some(args.value("a directory")),
            f if run.take(f, &mut args) => {}
            f if f.starts_with('-') => args.reject(f),
            t if !TARGETS.contains(&t) => usage_error(&format!("unknown target '{t}'")),
            _ => targets.push(arg),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    let all = targets.iter().any(|t| t == "all");
    let want = |t: &str| all || targets.iter().any(|x| x == t);

    let cfg = run.config();
    let scheme_cfg = SchemeConfig::paper_baseline();
    let sample_writes = if run.quick { 500 } else { 3_000 };

    // Static artifacts first (no simulation needed).
    if want("fig1") {
        emit(&figures::fig1(&scheme_cfg), &csv_dir);
    }
    if want("table2") {
        emit(&figures::table2(&SystemConfig::paper_baseline()), &csv_dir);
    }
    if want("fig3") {
        emit(&figures::fig3(sample_writes, 7), &csv_dir);
    }
    if want("fig4") {
        print_fig4_gantt();
    }

    // System-level figures share one run matrix.
    let needs_matrix = [
        "fig10", "fig11", "fig12", "fig13", "fig14", "table1", "table3", "energy",
    ]
    .iter()
    .any(|t| want(t));
    if needs_matrix {
        eprintln!(
            "running {} simulations ({} instructions/core)…",
            ALL_PROFILES.len() * SchemeKind::COMPARED.len(),
            cfg.instructions_per_core
        );
        let results = run_matrix(&ALL_PROFILES, &SchemeKind::COMPARED, &cfg);
        let m = MatrixView::new(&results, &ALL_PROFILES, &SchemeKind::COMPARED);
        if want("table1") {
            emit(&figures::table1(&m), &csv_dir);
        }
        if want("table3") {
            emit(&figures::table3(Some(&m)), &csv_dir);
        }
        if want("fig10") {
            emit(&figures::fig10(&m, &scheme_cfg), &csv_dir);
        }
        if want("fig11") {
            emit(&figures::fig11(&m), &csv_dir);
        }
        if want("fig12") {
            emit(&figures::fig12(&m), &csv_dir);
        }
        if want("fig13") {
            emit(&figures::fig13(&m), &csv_dir);
        }
        if want("fig14") {
            emit(&figures::fig14(&m), &csv_dir);
        }
        if want("energy") {
            emit(&figures::energy_figure(&m), &csv_dir);
            emit(&figures::tail_latency_figure(&m, "ferret"), &csv_dir);
            emit(
                &ablation::wear_comparison(&results, &ALL_PROFILES, &SchemeKind::COMPARED),
                &csv_dir,
            );
        }
        if let Some(path) = &json_path {
            write_file(path, tetris_experiments::report::results_to_json(&results));
            eprintln!("wrote {path}");
        }
    }

    if want("ablation") {
        emit(
            &ablation::packing_ablation(sample_writes as usize, 3),
            &csv_dir,
        );
        emit(&ablation::write_pausing_study(&cfg), &csv_dir);
        emit(
            &ablation::batching_study(sample_writes as usize, 21),
            &csv_dir,
        );
        emit(&ablation::system_batching_study(&cfg), &csv_dir);
        emit(&ablation::bank_parallelism_sweep(&cfg), &csv_dir);
        emit(&ablation::subarray_sweep(&cfg), &csv_dir);
        emit(&ablation::budget_sweep(sample_writes as usize, 4), &csv_dir);
        emit(
            &ablation::line_size_sweep(sample_writes as usize / 2, 5),
            &csv_dir,
        );
        emit(
            &ablation::asymmetry_sensitivity(sample_writes as usize / 2, 8),
            &csv_dir,
        );
        emit(
            &ablation::utilization_study(sample_writes as usize, 6),
            &csv_dir,
        );
    }
}

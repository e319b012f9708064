//! End-to-end tests of the `tetris-experiments` binary. Each test runs the
//! built executable in its own scratch directory and pins its stdout
//! against `tests/golden/`, the FNV-1a hashes of the files it writes, and
//! the exit codes of its errors: 2 for a usage error, 1 for bad input,
//! never a panic.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_tetris-experiments");

/// The vips × Tetris telemetry trace at 20 000 instructions/core. The
/// figure mode's `--trace` flag, before `run --trace` replaced it, wrote
/// exactly these bytes for the same run.
const VIPS_TETRIS_TRACE: u64 = 0x0f5d_7ec9_e747_9fd0;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A fresh working directory per test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("tetris-cli-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }

    fn run(&self, args: &[&str]) -> Output {
        Command::new(BIN)
            .args(args)
            .current_dir(&self.0)
            .output()
            .expect("spawn tetris-experiments")
    }

    /// Run `args` to success and return stdout.
    fn stdout(&self, args: &[&str]) -> String {
        let o = self.run(args);
        assert!(
            o.status.success(),
            "{args:?} exited {:?}: {}",
            o.status.code(),
            String::from_utf8_lossy(&o.stderr)
        );
        String::from_utf8(o.stdout).expect("utf-8 stdout")
    }

    /// Run `args` to failure and return the exit code and stderr.
    fn fails(&self, args: &[&str]) -> (i32, String) {
        let o = self.run(args);
        let code = o.status.code().expect("exited, not killed");
        assert_ne!(code, 0, "{args:?} should fail");
        (code, String::from_utf8_lossy(&o.stderr).into_owned())
    }

    fn hash(&self, file: &str) -> u64 {
        fnv1a(&std::fs::read(self.path(file)).unwrap_or_else(|e| panic!("read {file}: {e}")))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn static_artifacts_match_golden() {
    let s = Scratch::new("static");
    assert_eq!(s.stdout(&["fig1"]), include_str!("golden/fig1.txt"));
    assert_eq!(s.stdout(&["fig4"]), include_str!("golden/fig4.txt"));
    assert_eq!(s.stdout(&["table2"]), include_str!("golden/table2.txt"));
    assert_eq!(
        s.stdout(&["run", "--list-schemes"]),
        include_str!("golden/run_list_schemes.txt")
    );
}

#[test]
fn run_cells_match_golden() {
    let s = Scratch::new("run");
    let run = |extra: &[&str]| {
        let mut args = vec!["run", "--instructions", "20000"];
        args.extend_from_slice(extra);
        s.stdout(&args)
    };
    assert_eq!(
        run(&["--scheme", "tetris"]),
        include_str!("golden/run_tetris.txt")
    );
    assert_eq!(
        run(&["--scheme", "wire", "--write-cache", "64", "--policy", "2q"]),
        include_str!("golden/run_wire.txt")
    );
    assert_eq!(
        run(&["--scheme", "dcw", "--ranks", "2"]),
        include_str!("golden/run_dcw.txt")
    );
}

#[test]
fn run_trace_is_the_traced_run_and_feeds_report() {
    let s = Scratch::new("run-trace");
    let args = [
        "run",
        "--scheme",
        "tetris",
        "--instructions",
        "20000",
        "--trace",
        "t.jsonl",
    ];
    assert_eq!(s.stdout(&args), include_str!("golden/run_tetris.txt"));
    assert_eq!(s.hash("t.jsonl"), VIPS_TETRIS_TRACE);
    assert_eq!(
        s.stdout(&["report", "t.jsonl"]),
        include_str!("golden/report.txt")
    );
    // Flags may come before the positional.
    assert_eq!(
        s.stdout(&["report", "--csv", "csv", "t.jsonl"]),
        include_str!("golden/report.txt")
    );
    assert!(s.path("csv/trace_queue_depth_percentiles.csv").is_file());
    // The figure mode no longer records traces.
    for flag in ["--trace", "--trace-level"] {
        assert_eq!(s.fails(&[flag, "fine", "--instructions", "20000"]).0, 2);
    }
    assert!(!s.path("fine").exists());
}

#[test]
fn sched_ablation_matches_golden() {
    let s = Scratch::new("sched");
    let args = [
        "sched-ablation",
        "--instructions",
        "20000",
        "--trace-dir",
        "traces",
        "--csv",
        "csv",
    ];
    assert_eq!(s.stdout(&args), include_str!("golden/sched_ablation.txt"));
    assert_eq!(s.hash("traces/vips_fixed.jsonl"), VIPS_TETRIS_TRACE);
    assert_eq!(s.hash("traces/vips_adaptive.jsonl"), 0xead3_e785_8a1b_c79c);
    assert_eq!(
        s.hash("csv/scheduler_ablation_fixed_vs_adaptive.csv"),
        0xaf50_cf9c_c99e_96b9
    );
}

#[test]
fn cache_sweep_matches_golden() {
    let s = Scratch::new("cache");
    let args = [
        "cache-sweep",
        "--instructions",
        "20000",
        "--workload",
        "vips",
        "--frames",
        "64",
        "--policy",
        "lru",
        "--trace-dir",
        "traces",
    ];
    assert_eq!(s.stdout(&args), include_str!("golden/cache_sweep.txt"));
    assert_eq!(s.hash("traces/cache-vips-off.jsonl"), VIPS_TETRIS_TRACE);
    assert_eq!(
        s.hash("traces/cache-vips-64-lru.jsonl"),
        0xc6c0_5020_9cd9_3237
    );
    // The `off` row is always swept; a 0 budget would repeat it.
    let mut zero = args;
    zero[6] = "64,0";
    zero[10] = "zero";
    let (code, err) = s.fails(&zero);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("--frames"), "{err}");
    assert!(!s.path("zero").exists());
}

#[test]
fn trace_replay_round_trip() {
    let s = Scratch::new("replay");
    s.stdout(&["trace", "vips", "m.jsonl", "--instructions", "20000"]);
    assert_eq!(s.hash("m.jsonl"), 0x8f2b_442a_b0cd_da00);
    assert_eq!(
        s.stdout(&["replay", "m.jsonl", "tetris"]),
        include_str!("golden/replay.txt")
    );
}

#[test]
fn trace_rejects_bad_instruction_flags() {
    let s = Scratch::new("trace-flags");
    for flags in [["--instructions", "abc"], ["--instructons", "5000"]] {
        let (code, err) = s.fails(&["trace", "vips", "t.jsonl", flags[0], flags[1]]);
        assert_eq!(code, 2, "{flags:?}: {err}");
        assert!(err.contains(flags[0]), "{err}");
    }
    assert!(!s.path("t.jsonl").exists());
}

#[test]
fn bench_compare_self_diff_passes() {
    let s = Scratch::new("bench");
    let snap = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_13.json");
    assert_eq!(
        s.stdout(&["bench-compare", snap, snap]),
        include_str!("golden/bench_compare_self.txt")
    );
}

#[test]
fn replay_rejects_addresses_beyond_capacity() {
    let s = Scratch::new("replay-range");
    std::fs::write(
        s.path("far.jsonl"),
        "[{\"gap\":1,\"w\":true,\"addr\":64},{\"gap\":1,\"w\":false,\"addr\":8589934592}]\n",
    )
    .expect("write trace");
    let (code, err) = s.fails(&["replay", "far.jsonl", "tetris"]);
    assert_eq!(code, 1, "{err}");
    assert!(err.contains("8589934592"), "{err}");
}

#[test]
fn unwritable_outputs_exit_1_naming_the_path() {
    let s = Scratch::new("unwritable");
    std::fs::write(s.path("file"), "").expect("write file");
    let (code, err) = s.fails(&["fig1", "--csv", "file/csv"]);
    assert_eq!(code, 1, "{err}");
    assert!(err.contains("file/csv"), "{err}");
    let (code, err) = s.fails(&["fig10", "--instructions", "2000", "--json", "file/r.json"]);
    assert_eq!(code, 1, "{err}");
    assert!(err.contains("file/r.json"), "{err}");
}

#[test]
fn help_prints_usage_in_every_mode() {
    let s = Scratch::new("help");
    for mode in [
        "",
        "run",
        "trace",
        "replay",
        "report",
        "sched-ablation",
        "cache-sweep",
        "bench-compare",
    ] {
        for help in ["--help", "-h"] {
            let args: Vec<&str> = [mode, help].into_iter().filter(|a| !a.is_empty()).collect();
            let usage = s.stdout(&args);
            assert!(usage.starts_with("usage: tetris-experiments"), "{args:?}");
            assert!(
                usage.contains("tetris-experiments bench-compare BASE.json FRESH.json"),
                "{args:?}"
            );
        }
    }
}

/// The error paths the verify recipe probes, plus a flag outside each
/// mode's set and the arguments the old parsers silently accepted.
#[test]
fn usage_and_input_errors_exit_cleanly() {
    let s = Scratch::new("errors");
    let cases: &[(&[&str], i32)] = &[
        (&["nosuchfigure"], 2),
        (&["gantt"], 2),
        (&["fig4", "--instructions", "abc"], 2),
        (&["fig1", "--scheme", "tetris"], 2),
        (&["replay", "missing.jsonl", "tetris"], 1),
        (&["replay", "missing.jsonl", "tetris", "--quick"], 2),
        (&["replay", "missing.jsonl"], 2),
        (&["report", "missing.jsonl"], 1),
        (&["report", "missing.jsonl", "--trace", "x"], 2),
        (&["trace", "vips"], 2),
        (&["trace", "vips", "a.jsonl", "b.jsonl"], 2),
        (&["trace", "vips", "a.jsonl", "--quick"], 2),
        (&["trace", "nosuch", "a.jsonl"], 1),
        (&["run", "--quick"], 2),
        (&["run", "--scheme", "tetris", "--trace-level", "bogus"], 2),
        (&["run", "--scheme", "bogus", "--quick"], 1),
        (&["run", "--scheme", "tetris", "--workload", "nosuch"], 1),
        (&["run", "--scheme", "tetris", "--policy", "bogus"], 2),
        (&["run", "--scheme", "tetris", "--write-cache", "abc"], 2),
        (&["run", "--scheme", "tetris", "--ranks", "3"], 2),
        (&["run", "--scheme", "tetris", "--trace-dir", "d"], 2),
        (&["sched-ablation", "--ranks", "0"], 2),
        (&["sched-ablation", "--policy", "lru"], 2),
        (&["cache-sweep", "--ranks", "2"], 2),
        (&["cache-sweep", "--frames", "a"], 2),
        (&["bench-compare"], 2),
        (&["bench-compare", "a.json"], 2),
        (&["bench-compare", "a.json", "b.json", "--bogus"], 2),
        (
            &["bench-compare", "a.json", "b.json", "--tolerance", "-1"],
            2,
        ),
        (&["bench-compare", "missing.json", "missing.json"], 1),
    ];
    for (args, want) in cases {
        let (code, err) = s.fails(args);
        assert_eq!(code, *want, "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
    assert!(!s.path("a.jsonl").exists());
}

/// `tetris-experiments fig1 | head` must not panic when the reader goes.
#[test]
fn closed_stdout_exits_quietly() {
    let mut child = Command::new(BIN)
        .arg("fig1")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tetris-experiments");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait");
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stderr.is_empty());
}

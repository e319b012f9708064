//! Golden-fixture tests: each rule runs against a small source file with
//! known violations (and known non-violations), and the diagnostics must
//! land on exact `(line, col)` positions. The fixtures live under
//! `tests/fixtures/`, which the workspace loader deliberately skips, so
//! the lint's own test material never gates the real tree.

use pcm_lint::diag::{to_json_report, Diagnostic};
use pcm_lint::rules::{all_rules, Rule};
use pcm_lint::workspace::{SourceFile, Workspace};
use pcm_types::{Json, JsonCodec};
use std::path::PathBuf;

/// Build a synthetic workspace from `(repo-relative path, source)` pairs.
fn ws(files: &[(&str, &str)], ci_yml: Option<&str>) -> Workspace {
    Workspace {
        root: PathBuf::from("."),
        files: files
            .iter()
            .map(|(p, s)| SourceFile::new(p, (*s).to_string()))
            .collect(),
        ci_yml: ci_yml.map(str::to_string),
    }
}

fn rule(id: &str) -> Box<dyn Rule> {
    all_rules()
        .into_iter()
        .find(|r| r.id() == id)
        .unwrap_or_else(|| panic!("unknown rule {id}"))
}

/// Run one rule and return sorted `(line, col)` positions of its findings.
fn locs(id: &str, ws: &Workspace) -> Vec<(u32, u32)> {
    let diags = rule(id).check(ws);
    for d in &diags {
        assert_eq!(d.rule, id);
        assert!(!d.snippet.is_empty(), "snippet attached: {d:?}");
    }
    let mut out: Vec<(u32, u32)> = diags.iter().map(|d| (d.line, d.col)).collect();
    out.sort_unstable();
    out
}

#[test]
fn wall_clock_fixture() {
    let src = include_str!("fixtures/wall_clock.rs");
    let w = ws(&[("crates/memsim/src/fixture.rs", src)], None);
    // `Instant` in the import and in `timed()`; `SystemTime` under
    // `#[cfg(test)]` is exempt.
    assert_eq!(locs("no-wall-clock", &w), vec![(1, 16), (4, 13)]);
}

#[test]
fn unordered_iter_fixture() {
    let src = include_str!("fixtures/unordered_iter.rs");
    let w = ws(&[("crates/memsim/src/fixture.rs", src)], None);
    // The `for … in &self.counters` header and `.values()` call; `.get()`
    // probes and test-module iteration are exempt.
    assert_eq!(locs("no-unordered-iteration", &w), vec![(10, 30), (17, 14)]);
}

#[test]
fn unordered_iter_ignores_non_deterministic_crates() {
    let src = include_str!("fixtures/unordered_iter.rs");
    let w = ws(&[("crates/experiments/src/fixture.rs", src)], None);
    assert_eq!(locs("no-unordered-iteration", &w), vec![]);
}

#[test]
fn typed_units_fixture() {
    let src = include_str!("fixtures/typed_units.rs");
    let w = ws(&[("crates/schemes/src/fixture.rs", src)], None);
    // `430` and `53` in live code; the test module's literals are exempt.
    assert_eq!(locs("typed-units", &w), vec![(2, 17), (3, 19)]);
}

#[test]
fn typed_units_allows_pcm_types_itself() {
    let src = include_str!("fixtures/typed_units.rs");
    let w = ws(&[("crates/pcm-types/src/fixture.rs", src)], None);
    assert_eq!(locs("typed-units", &w), vec![]);
}

#[test]
fn lossy_casts_fixture() {
    let src = include_str!("fixtures/lossy_casts.rs");
    let w = ws(&[("crates/core/src/fixture.rs", src)], None);
    // `busy as u32`, `t_ps as usize`, `self.as_ps() as u32`; the
    // non-time-valued `width as u32` is exempt.
    assert_eq!(
        locs("no-lossy-cycle-casts", &w),
        vec![(3, 11), (7, 10), (18, 22)]
    );
}

#[test]
fn panic_policy_fixture() {
    let src = include_str!("fixtures/panic_policy.rs");
    let w = ws(&[("crates/memsim/src/fixture.rs", src)], None);
    // `.unwrap()` and `.expect("…")`; the parser-style `expect(b'[')`
    // (non-string argument) and the test module are exempt.
    assert_eq!(locs("panic-policy", &w), vec![(2, 22), (3, 21)]);
}

#[test]
fn telemetry_emit_count_parity_fixture() {
    let event = include_str!("fixtures/telemetry_event.rs");
    let summary = include_str!("fixtures/telemetry_summary.rs");
    let emit = include_str!("fixtures/telemetry_emit.rs");
    let w = ws(
        &[
            ("crates/telemetry/src/event.rs", event),
            ("crates/telemetry/src/summary.rs", summary),
            ("crates/core/src/emit.rs", emit),
        ],
        None,
    );
    // `WritePause` is emitted but never counted by the summary fixture.
    let diags = rule("telemetry-emit-count-parity").check(&w);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!((diags[0].line, diags[0].col), (8, 5));
    assert_eq!(diags[0].path, "crates/telemetry/src/event.rs");
    assert!(diags[0].msg.contains("WritePause"));
    assert!(diags[0].msg.contains("dropped from `report`"));
}

#[test]
fn telemetry_dead_variant_is_a_finding() {
    let event = include_str!("fixtures/telemetry_event.rs");
    let summary = include_str!("fixtures/telemetry_summary.rs");
    // No emitter file at all: every variant is dead telemetry.
    let w = ws(
        &[
            ("crates/telemetry/src/event.rs", event),
            ("crates/telemetry/src/summary.rs", summary),
        ],
        None,
    );
    let diags = rule("telemetry-emit-count-parity").check(&w);
    assert_eq!(diags.len(), 3, "{diags:?}");
    assert!(diags.iter().all(|d| d.msg.contains("never constructed")));
}

#[test]
fn telemetry_stale_summary_arm_is_a_finding() {
    let event = include_str!("fixtures/telemetry_event.rs");
    let emit = include_str!("fixtures/telemetry_emit.rs");
    // The summary aggregates a variant that no longer exists.
    let summary = "pub struct TraceSummary { pub n: u64 }\n\
                   impl TraceSummary {\n\
                       pub fn absorb(&mut self, e: &TelemetryEvent) {\n\
                           match e {\n\
                               TelemetryEvent::BankBusy { .. } => self.n += 1,\n\
                               TelemetryEvent::DrainStart => self.n += 1,\n\
                               TelemetryEvent::WritePause { .. } => self.n += 1,\n\
                               TelemetryEvent::Departed => self.n += 1,\n\
                           }\n\
                       }\n\
                   }\n";
    let w = ws(
        &[
            ("crates/telemetry/src/event.rs", event),
            ("crates/telemetry/src/summary.rs", summary),
            ("crates/core/src/emit.rs", emit),
        ],
        None,
    );
    let diags = rule("telemetry-emit-count-parity").check(&w);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].path, "crates/telemetry/src/summary.rs");
    assert!(diags[0].msg.contains("Departed"));
    assert!(diags[0].msg.contains("stale arm"));
}

#[test]
fn resurrected_api_fixture() {
    let src = include_str!("fixtures/resurrected_api.rs");
    let w = ws(&[("crates/memsim/src/fixture.rs", src)], None);
    assert_eq!(
        locs("no-resurrected-apis", &w),
        vec![(2, 16), (2, 28), (3, 15)]
    );
}

#[test]
fn ci_parity_fixture() {
    let src = include_str!("fixtures/ci_parity.rs");
    let ci = "jobs:\n  smoke:\n    run: cargo run -p tetris-experiments -- run --quick\n";
    let w = ws(
        &[("crates/experiments/src/bin/tetris-experiments.rs", src)],
        Some(ci),
    );
    // `run` appears as a word in ci.yml; `orphan` does not.
    let diags = rule("ci-phase-parity").check(&w);
    assert_eq!(diags.len(), 1);
    assert_eq!((diags[0].line, diags[0].col), (5, 14));
    assert!(diags[0].msg.contains("`orphan`"));
}

#[test]
fn scheme_registry_fixture() {
    let src = include_str!("fixtures/scheme_registry.rs");
    let w = ws(&[("crates/schemes/src/preset.rs", src)], None);
    let diags = rule("registry-parity-generic").check(&w);
    let msgs: Vec<&str> = diags.iter().map(|d| d.msg.as_str()).collect();
    assert_eq!(diags.len(), 3, "findings: {msgs:?}");
    // ALL declares 2 entries for a 3-variant enum…
    assert!(msgs.iter().any(|m| m.contains("declares 2 entries")));
    // …and omits Gamma entirely…
    assert!(msgs
        .iter()
        .any(|m| m.contains("SchemeSelect::Gamma is missing from SchemeSelect::ALL")));
    // …while the canonical tag "beta" no longer parses back.
    assert!(msgs
        .iter()
        .any(|m| m.contains("canonical tag \"beta\"") && m.contains("round-trips")));
}

#[test]
fn scheme_registry_accepts_complete_registry() {
    // The real preset.rs is a complete registry; lifted wholesale so the
    // fixture tracks reality.
    let src = include_str!("../../schemes/src/preset.rs");
    let w = ws(&[("crates/schemes/src/preset.rs", src)], None);
    assert_eq!(locs("registry-parity-generic", &w), vec![]);
}

#[test]
fn policy_registry_fixture() {
    let src = include_str!("fixtures/policy_registry.rs");
    let w = ws(&[("crates/memsim/src/replacement.rs", src)], None);
    let diags = rule("registry-parity-generic").check(&w);
    let msgs: Vec<&str> = diags.iter().map(|d| d.msg.as_str()).collect();
    assert_eq!(diags.len(), 3, "findings: {msgs:?}");
    // ALL declares 2 entries for a 3-variant enum…
    assert!(msgs.iter().any(|m| m.contains("declares 2 entries")));
    // …and omits Fifo entirely…
    assert!(msgs
        .iter()
        .any(|m| m.contains("PolicySelect::Fifo is missing from PolicySelect::ALL")));
    // …while the canonical tag "clock" no longer parses back.
    assert!(msgs
        .iter()
        .any(|m| m.contains("canonical tag \"clock\"") && m.contains("round-trips")));
}

#[test]
fn policy_registry_accepts_complete_registry() {
    // The real replacement.rs is a complete registry; lifted wholesale so
    // the fixture tracks reality.
    let src = include_str!("../../memsim/src/replacement.rs");
    let w = ws(&[("crates/memsim/src/replacement.rs", src)], None);
    assert_eq!(locs("registry-parity-generic", &w), vec![]);
}

#[test]
fn registry_without_all_array_is_a_finding() {
    // tag + from_str make it a registry enum; the missing ALL array is
    // itself the finding.
    let src = "pub enum Mode { A, B }\n\
               impl Mode {\n\
                   pub fn tag(&self) -> &'static str {\n\
                       match self { Mode::A => \"a\", Mode::B => \"b\" }\n\
                   }\n\
               }\n\
               impl FromStr for Mode {\n\
                   type Err = ();\n\
                   fn from_str(s: &str) -> Result<Self, ()> {\n\
                       match s { \"a\" => Ok(Mode::A), \"b\" => Ok(Mode::B), _ => Err(()) }\n\
                   }\n\
               }\n";
    let w = ws(&[("crates/core/src/mode.rs", src)], None);
    let diags = rule("registry-parity-generic").check(&w);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!((diags[0].line, diags[0].col), (1, 10));
    assert!(diags[0]
        .msg
        .contains("has no `ALL: [Mode; N]` registry array"));
}

#[test]
fn lone_tag_accessor_is_not_a_registry() {
    // TelemetryEvent-style: a tag() accessor with no FromStr and no ALL
    // array is not sweep machinery; the rule must stay silent.
    let src = "pub enum Label { X, Y }\n\
               impl Label {\n\
                   pub fn tag(&self) -> &'static str {\n\
                       match self { Label::X => \"x\", Label::Y => \"y\" }\n\
                   }\n\
               }\n";
    let w = ws(&[("crates/core/src/label.rs", src)], None);
    assert_eq!(locs("registry-parity-generic", &w), vec![]);
}

#[test]
fn units_flow_fixture() {
    let src = include_str!("fixtures/units_flow.rs");
    let w = ws(&[("crates/core/src/fixture.rs", src)], None);
    let mut diags = rule("units-flow").check(&w);
    diags.sort_by_key(|d| (d.line, d.col));
    let got: Vec<(u32, u32, &str)> = diags
        .iter()
        .map(|d| (d.line, d.col, d.msg.as_str()))
        .collect();
    // 14: ns-named argument into the cycles-typed `schedule` parameter;
    // 15: cycles-named let bound to an as_ns() initializer;
    // 16: struct-literal init of `width_cycles` from as_ns();
    // 17: field assignment of `width_cycles` from as_ns().
    assert_eq!(diags.len(), 4, "{got:#?}");
    assert_eq!(
        diags.iter().map(|d| d.line).collect::<Vec<_>>(),
        vec![14, 15, 16, 17]
    );
    assert!(diags[0]
        .msg
        .contains("parameter `deadline_cycles` of `schedule`"));
    assert!(diags[1].msg.contains("`let width_cycles`"));
    assert!(diags[2].msg.contains("field `width_cycles`"));
    assert!(diags[3].msg.contains("field `width_cycles`"));
}

#[test]
fn units_flow_ignores_agreeing_and_neutral_flows() {
    // Same shapes, units consistent: no findings.
    let src = "pub struct Window { pub width_cycles: u64 }\n\
               pub fn schedule(deadline_cycles: u64) -> u64 { deadline_cycles }\n\
               pub fn plan(t: &PcmTimings, freq: ClockFreq) -> u64 {\n\
                   let budget_cycles = t.t_set.cycles_at(freq);\n\
                   let ok = schedule(budget_cycles);\n\
                   let mut w = Window { width_cycles: budget_cycles };\n\
                   w.width_cycles = t.t_read.cycles_at(freq);\n\
                   ok + w.width_cycles\n\
               }\n";
    let w = ws(&[("crates/core/src/fixture.rs", src)], None);
    assert_eq!(locs("units-flow", &w), vec![]);
}

#[test]
fn dead_config_fixture() {
    let src = include_str!("fixtures/dead_config.rs");
    let w = ws(&[("crates/memsim/src/fixture.rs", src)], None);
    let diags = rule("dead-config-knob").check(&w);
    // `orphan_knob` is only touched by the builder and validate();
    // `capacity_lines` is read by model_step and stays clean.
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!((diags[0].line, diags[0].col), (5, 9));
    assert!(diags[0].msg.contains("`WriteCacheConfig::orphan_knob`"));
}

#[test]
fn dead_config_sees_reads_in_other_files() {
    let src = include_str!("fixtures/dead_config.rs");
    let reader = "pub fn drain(cfg: &WriteCacheConfig) -> u64 { cfg.orphan_knob }\n";
    let w = ws(
        &[
            ("crates/memsim/src/fixture.rs", src),
            ("crates/core/src/reader.rs", reader),
        ],
        None,
    );
    assert_eq!(locs("dead-config-knob", &w), vec![]);
}

#[test]
fn render_golden() {
    let src = include_str!("fixtures/typed_units.rs");
    let w = ws(&[("crates/schemes/src/fixture.rs", src)], None);
    let diags = rule("typed-units").check(&w);
    let r = diags[0].render();
    let mut lines = r.lines();
    assert!(lines
        .next()
        .unwrap()
        .starts_with("crates/schemes/src/fixture.rs:2:17: [typed-units]"));
    assert_eq!(lines.next().unwrap(), "    2 |     let t_set = 430;");
    assert_eq!(lines.next().unwrap(), "      |                 ^^^");
}

#[test]
fn json_report_round_trips_fixture_findings() {
    let src = include_str!("fixtures/panic_policy.rs");
    let w = ws(&[("crates/memsim/src/fixture.rs", src)], None);
    let diags = rule("panic-policy").check(&w);
    let report = to_json_report(&diags);
    let v = Json::parse(&report).expect("valid JSON");
    assert_eq!(
        v.get("count").and_then(Json::as_u64),
        Some(diags.len() as u64)
    );
    let Some(Json::Arr(arr)) = v.get("findings") else {
        panic!("findings array missing");
    };
    for (j, d) in arr.iter().zip(&diags) {
        assert_eq!(&Diagnostic::from_json(j).expect("decodes"), d);
    }
}

/// The graph rules' clean pass on the real tree is only meaningful if the
/// item parser actually recovers the structures they check. Pin that the
/// real registries, telemetry enum and config structs are all visible.
#[test]
fn real_tree_feeds_the_graph_rules() {
    use pcm_lint::items::ItemKind;
    let root = pcm_lint::workspace::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let w = pcm_lint::workspace::load(&root).expect("load workspace");

    let event = w.file("crates/telemetry/src/event.rs").expect("event.rs");
    let ev = event
        .facts
        .named(ItemKind::Enum, "TelemetryEvent")
        .expect("TelemetryEvent parsed");
    assert!(ev.fields.len() >= 15, "variants: {}", ev.fields.len());

    let preset = w.file("crates/schemes/src/preset.rs").expect("preset.rs");
    let all = preset
        .facts
        .items
        .iter()
        .find(|it| it.kind == ItemKind::Const && it.name == "ALL")
        .expect("SchemeSelect::ALL parsed");
    assert_eq!(all.ty, "[ SchemeSelect ; 9 ]");

    let graph = pcm_lint::graph::ItemGraph::build(&w);
    for target in ["SystemConfig", "SchemeConfig", "WriteCacheConfig"] {
        let decls = graph
            .structs
            .get(target)
            .unwrap_or_else(|| panic!("{target} indexed"));
        assert!(
            decls.iter().any(|d| !d.item.fields.is_empty()),
            "{target} has parsed fields"
        );
    }
    assert!(
        graph.fns.len() > 100,
        "workspace fn index populated ({} names)",
        graph.fns.len()
    );
}

/// `ci-phase-parity` finds subcommands through the `Some("…") =>` arms of
/// the binary's dispatch; a refactor that hid them would pass the rule
/// vacuously. Pin that the real tree still yields every subcommand.
#[test]
fn real_tree_feeds_ci_phase_parity() {
    let root = pcm_lint::workspace::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let mut w = pcm_lint::workspace::load(&root).expect("load workspace");
    let bin = w
        .file("crates/experiments/src/bin/tetris-experiments.rs")
        .expect("tetris-experiments.rs");
    let arms: Vec<&str> = bin
        .facts
        .subcommand_arms
        .iter()
        .map(|arm| arm.text.as_str())
        .collect();
    let subcommands = [
        "run",
        "trace",
        "replay",
        "report",
        "sched-ablation",
        "cache-sweep",
        "bench-compare",
    ];
    assert_eq!(arms, subcommands);
    // Against a workflow that runs nothing, the rule flags each of them.
    w.ci_yml = Some(String::new());
    let diags = rule("ci-phase-parity").check(&w);
    assert_eq!(diags.len(), subcommands.len());
    for (d, name) in diags.iter().zip(subcommands) {
        assert!(d.msg.contains(&format!("`{name}`")), "{}", d.msg);
    }
}

/// The real tree must lint clean with the real allowlist — the same gate
/// the `static-analysis` CI job enforces, kept honest under `cargo test`.
#[test]
fn workspace_is_clean() {
    let root = pcm_lint::workspace::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let report = pcm_lint::run(&root, &[]).expect("lint runs");
    let rendered: Vec<String> = report.findings.iter().map(Diagnostic::render).collect();
    assert!(
        report.findings.is_empty(),
        "workspace has lint findings:\n{}",
        rendered.join("\n")
    );
    assert!(report.files_scanned > 100, "whole tree scanned");
}

//! Workspace discovery: find the crates, load and lex their sources, and
//! classify each file so rules know which invariants apply where.

use crate::items::{self, FileFacts};
use crate::lexer::{self, Tok};
use std::path::{Path, PathBuf};

/// Crates whose behaviour must be bit-for-bit reproducible: simulation
/// logic, schemes, device models, types, telemetry, synthetic-workload
/// generation and the request-serving front end. Wall-clock reads and
/// unordered-container iteration are forbidden here.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "pcm-types",
    "pcm-device",
    "schemes",
    "core",
    "memsim",
    "telemetry",
    "workloads",
    "serve",
];

/// Library crates where panics are API: `unwrap()`/`expect()` outside
/// `#[cfg(test)]` must be replaced by typed errors or carry a waiver with a
/// written justification. (Binaries — `experiments`, `bench`, `lint` — may
/// exit on startup errors.)
pub const LIBRARY_CRATES: &[&str] = DETERMINISTIC_CRATES;

/// One lexed source file plus everything rules need to reason about it.
pub struct SourceFile {
    /// Repo-relative path with `/` separators (stable across platforms).
    pub path: String,
    /// The crate directory name (`memsim` for `crates/memsim/src/...`),
    /// empty for root-level `tests/` and `examples/`.
    pub crate_name: String,
    /// Full file contents.
    pub src: String,
    /// Complete token cover of `src` — **empty for cache-restored files**,
    /// which skip lexing entirely (their per-file diagnostics were cached
    /// alongside [`SourceFile::facts`], so no rule needs their tokens).
    pub toks: Vec<Tok>,
    /// Byte offsets where each line starts (line 1 at `starts[0]`).
    line_starts: Vec<usize>,
    /// Byte ranges covered by `#[cfg(test)]` / `#[test]` items (empty for
    /// cache-restored files; the facts carry per-item `in_test` flags).
    pub test_regions: Vec<(usize, usize)>,
    /// Parsed item structure and cross-file facts (see [`crate::items`]).
    pub facts: FileFacts,
}

impl SourceFile {
    /// Lex and parse `src` and attach path metadata. `path` must be
    /// repo-relative.
    pub fn new(path: &str, src: String) -> SourceFile {
        let toks = lexer::lex(&src);
        let test_regions = lexer::test_regions(&src, &toks);
        let facts = items::parse(&src, &toks, &test_regions);
        let crate_name = crate_of(path);
        SourceFile {
            path: path.to_string(),
            crate_name,
            line_starts: line_starts(&src),
            src,
            toks,
            test_regions,
            facts,
        }
    }

    /// Rebuild a file from the warm cache: the source text (needed for
    /// diagnostic snippets) plus previously parsed facts, with no lexing.
    pub fn restored(path: &str, src: String, facts: FileFacts) -> SourceFile {
        SourceFile {
            path: path.to_string(),
            crate_name: crate_of(path),
            line_starts: line_starts(&src),
            src,
            toks: Vec::new(),
            test_regions: Vec::new(),
            facts,
        }
    }

    /// Indices (into `toks`) of the significant tokens, in order.
    pub fn sig_indices(&self) -> Vec<usize> {
        self.toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.significant())
            .map(|(i, _)| i)
            .collect()
    }

    /// 1-based (line, column) of a byte offset.
    pub fn line_col(&self, offset: usize) -> (u32, u32) {
        let line = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (
            line as u32 + 1,
            (offset - self.line_starts[line]) as u32 + 1,
        )
    }

    /// The text of the 1-based `line`, without its newline.
    pub fn line_text(&self, line: u32) -> &str {
        let i = (line as usize).saturating_sub(1);
        let lo = self.line_starts.get(i).copied().unwrap_or(self.src.len());
        let hi = self
            .line_starts
            .get(i + 1)
            .map(|&h| h - 1)
            .unwrap_or(self.src.len());
        self.src[lo..hi].trim_end_matches('\r')
    }

    /// True when `offset` is inside a test-gated item.
    pub fn in_test(&self, offset: usize) -> bool {
        lexer::in_regions(&self.test_regions, offset)
    }

    /// Build a [`crate::diag::Diagnostic`] for the token span starting at
    /// byte `lo`, `len` bytes wide.
    pub fn diag(
        &self,
        rule: &'static str,
        lo: usize,
        len: usize,
        msg: String,
    ) -> crate::diag::Diagnostic {
        let (line, col) = self.line_col(lo);
        crate::diag::Diagnostic {
            rule,
            path: self.path.clone(),
            line,
            col,
            len: len as u32,
            msg,
            snippet: self.line_text(line).to_string(),
        }
    }
}

fn crate_of(path: &str) -> String {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
        .to_string()
}

fn line_starts(src: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, b) in src.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// The lexed workspace: all scanned sources plus the CI workflow text.
pub struct Workspace {
    /// Repo root.
    pub root: PathBuf,
    /// Every scanned `.rs` file.
    pub files: Vec<SourceFile>,
    /// `.github/workflows/ci.yml` contents, when present.
    pub ci_yml: Option<String>,
}

impl Workspace {
    /// The file at `path`, if scanned.
    pub fn file(&self, path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path == path)
    }
}

/// Recursively collect `.rs` files under `dir`, skipping anything under a
/// `fixtures` or `target` directory.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if p.is_dir() {
            if name == "fixtures" || name == "target" {
                continue;
            }
            collect_rs(&p, out)?;
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Every scannable `.rs` path under `root` as `(repo-relative, absolute)`
/// pairs, in deterministic order: every crate's `src/`, `tests/`,
/// `benches/` and `examples/`, plus the root `tests/` and `examples/`
/// directories. Paths under `fixtures/` are skipped so the lint's own
/// golden violations don't gate the build.
pub fn source_paths(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for c in crate_dirs {
            for sub in ["src", "tests", "benches", "examples"] {
                collect_rs(&c.join(sub), &mut paths)?;
            }
        }
    }
    collect_rs(&root.join("tests"), &mut paths)?;
    collect_rs(&root.join("examples"), &mut paths)?;
    Ok(paths
        .into_iter()
        .map(|p| {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            (rel, p)
        })
        .collect())
}

/// Load the whole workspace rooted at `root` (see [`source_paths`]) plus
/// the CI workflow, lexing and parsing every file (no cache).
pub fn load(root: &Path) -> std::io::Result<Workspace> {
    let mut files = Vec::new();
    for (rel, p) in source_paths(root)? {
        let src = std::fs::read_to_string(&p)?;
        files.push(SourceFile::new(&rel, src));
    }
    let ci_yml = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).ok();
    Ok(Workspace {
        root: root.to_path_buf(),
        files,
        ci_yml,
    })
}

/// Walk upward from `start` to the directory containing the workspace
/// `Cargo.toml` (the one declaring `[workspace]`).
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(d) = cur {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        cur = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_and_snippets() {
        let f = SourceFile::new("crates/memsim/src/x.rs", "ab\ncd\nef".into());
        assert_eq!(f.line_col(0), (1, 1));
        assert_eq!(f.line_col(3), (2, 1));
        assert_eq!(f.line_col(4), (2, 2));
        assert_eq!(f.line_text(2), "cd");
        assert_eq!(f.crate_name, "memsim");
    }

    #[test]
    fn root_files_have_no_crate() {
        let f = SourceFile::new("tests/integration.rs", String::new());
        assert_eq!(f.crate_name, "");
    }

    #[test]
    fn loads_this_workspace() {
        let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
        let ws = load(&root).expect("load workspace");
        assert!(ws
            .files
            .iter()
            .any(|f| f.path == "crates/memsim/src/system.rs"));
        assert!(
            !ws.files.iter().any(|f| f.path.contains("/fixtures/")),
            "fixtures are never scanned"
        );
        assert!(ws.ci_yml.is_some(), "ci.yml found");
    }
}

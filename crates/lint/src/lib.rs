//! # mc-lint — repo-specific static analysis for the MULTI-CLOCK workspace
//!
//! A dependency-free (std-only) source analyzer that enforces the
//! structural rules the reproduction's correctness argument leans on.
//! It runs both as a binary (`cargo run -p mc-lint`) and as `#[test]`s
//! (`crates/lint/tests/workspace_clean.rs`), so `cargo test -q` fails on
//! any violation.
//!
//! The nine lint classes (see [`lints`]) plus the suppression audit:
//!
//! 1. **state-machine** — every `match` over `PageState`/`WhichList` in
//!    `crates/core` and `crates/clock` must be exhaustive with no wildcard
//!    arm, and the Fig. 4 transition sites (marked `// fig4: N`) must cover
//!    all 13 edges of the canonical table in [`fig4`], which DESIGN.md
//!    must reproduce verbatim;
//! 2. **layering** — the crate DAG
//!    `mem ← clock ← core ← {policies, trace} ← {workloads} ← sim ← bench`
//!    is enforced over both `Cargo.toml` dependencies and `use` paths;
//! 3. **boundary** — the `inactive`/`active`/`promote` lists may only be
//!    mutated by the core list machinery and `crates/clock`;
//! 4. **panic** — no `unwrap`/`expect`/`panic!` in non-test library code of
//!    `fault`/`mem`/`clock`/`core` outside the justified allowlist;
//! 5. **docs** — every `pub` item in `mem`/`clock`/`core` is documented;
//! 6. **determinism** — no hash-order iteration or ambient entropy in
//!    engine-reachable library code (`mem`/`clock`/`core`/`sim`), and no
//!    host threads or shared-mutable primitives
//!    (`Mutex`/`RwLock`/`Atomic*`/`RefCell`/`Cell<`/`static mut`/`unsafe`)
//!    in the policy crate;
//! 7. **wallclock** — host clocks (`Instant`/`SystemTime`) only inside
//!    the sanctioned boundary: `mc_obs::perf` (the `PerfHooks` layer) and
//!    the `crates/bench` harness; flagged in all other library code;
//! 8. **panic-reach** — no panic source (including explicit indexing) in
//!    any function transitively reachable from the engine hot loop, walked
//!    over the approximate call graph in [`callgraph`];
//! 9. **result** — no `let _ =` / `.ok();` discard of a `Result` in
//!    `mem`/`core`/`sim` library code;
//! 10. **suppression** — `lint: allow(...)` markers and
//!     `panic_allowlist.txt` entries that no longer suppress anything are
//!     themselves violations.
//!
//! Analysis is lexical (comment/string-blanked text, brace matching) with
//! a lightweight semantic layer on top (the [`index`] item indexer and the
//! [`callgraph`] reachability walk), not a full parse: precise enough for
//! this codebase's rustfmt-formatted style, and honest about it — each
//! check is written so that a miss is a false negative, not a false
//! positive.

pub mod callgraph;
pub mod fig4;
pub mod index;
pub mod lints;
pub mod source;
pub mod suppress;

use source::SourceFile;
use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation, printable as `file:line: [lint] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number (0 when the finding is file-level).
    pub line: usize,
    /// Short lint-class name (`state-machine`, `layering`, ...).
    pub lint: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// The loaded workspace: every source file plus the non-Rust inputs the
/// lints cross-check (manifests, DESIGN.md, the panic allowlist).
#[derive(Debug, Default)]
pub struct Workspace {
    /// All workspace `.rs` files (vendored stubs and build output excluded).
    pub files: Vec<SourceFile>,
    /// `(relative path, contents)` of each `Cargo.toml` under `crates/`.
    pub manifests: Vec<(String, String)>,
    /// Contents of `DESIGN.md`, if present.
    pub design_md: Option<String>,
    /// Contents of `crates/lint/panic_allowlist.txt`, if present.
    pub panic_allowlist: Option<String>,
}

impl Workspace {
    /// Loads the workspace rooted at `root` from disk.
    ///
    /// `vendor/` (offline dependency stand-ins), `target/` and dot-dirs are
    /// skipped: the lints govern this repository's code, not its vendored
    /// externals.
    pub fn load(root: &Path) -> std::io::Result<Self> {
        let mut ws = Workspace::default();
        let mut rs_paths = Vec::new();
        collect_rs(root, root, &mut rs_paths)?;
        rs_paths.sort();
        for rel in rs_paths {
            let raw = std::fs::read_to_string(root.join(&rel))?;
            ws.files.push(SourceFile::from_source(&rel, &raw));
        }
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut entries: Vec<_> = std::fs::read_dir(&crates_dir)?
                .filter_map(Result::ok)
                .map(|e| e.path())
                .collect();
            entries.sort();
            for dir in entries {
                let manifest = dir.join("Cargo.toml");
                if manifest.is_file() {
                    let rel = format!(
                        "crates/{}/Cargo.toml",
                        dir.file_name().unwrap_or_default().to_string_lossy()
                    );
                    ws.manifests
                        .push((rel, std::fs::read_to_string(&manifest)?));
                }
            }
        }
        ws.design_md = std::fs::read_to_string(root.join("DESIGN.md")).ok();
        ws.panic_allowlist =
            std::fs::read_to_string(root.join("crates/lint/panic_allowlist.txt")).ok();
        Ok(ws)
    }

    /// Files whose workspace-relative path starts with `prefix`.
    pub fn files_under<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a SourceFile> {
        self.files.iter().filter(move |f| f.rel.starts_with(prefix))
    }
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name.starts_with('.') {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .expect("walked paths stay under root") // lint: allow(panic) - walk starts at root, prefix always present
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Locates the workspace root: walks up from `start` to the first directory
/// whose `Cargo.toml` contains a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Every pass name, in execution order, as accepted by `--only`/`--skip`.
pub const PASS_NAMES: [&str; 10] = [
    "state-machine",
    "layering",
    "boundary",
    "panic",
    "docs",
    "determinism",
    "wallclock",
    "panic-reach",
    "result",
    "suppression",
];

/// Runs every lint class over the workspace, in a stable order.
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    run_passes(ws, |_| true)
}

/// Runs the passes selected by `enabled`, sharing one item index and one
/// suppression registry across them. The suppression audit judges only the
/// marker classes whose consuming passes actually ran.
pub fn run_passes(ws: &Workspace, enabled: impl Fn(&str) -> bool) -> Vec<Diagnostic> {
    let idx = index::ItemIndex::build(ws);
    let mut sup = suppress::Suppressions::collect(ws);
    let mut diags = Vec::new();
    if enabled("state-machine") {
        diags.extend(lints::state_machine::check(ws));
    }
    if enabled("layering") {
        diags.extend(lints::layering::check(ws));
    }
    if enabled("boundary") {
        diags.extend(lints::boundary::check(ws));
    }
    if enabled("panic") {
        diags.extend(lints::panics::check_with(ws, &mut sup));
    }
    if enabled("docs") {
        diags.extend(lints::docs::check(ws));
    }
    if enabled("determinism") {
        diags.extend(lints::determinism::check_with(ws, &mut sup));
    }
    if enabled("wallclock") {
        diags.extend(lints::wallclock::check_with(ws, &mut sup));
    }
    if enabled("panic-reach") {
        diags.extend(lints::panic_reach::check_with(ws, &idx, &mut sup));
    }
    if enabled("result") {
        diags.extend(lints::results::check_with(ws, &idx, &mut sup));
    }
    if enabled("suppression") {
        diags.extend(suppress::audit(ws, &sup));
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    diags
}

/// Serialises diagnostics as a JSON array of
/// `{"file", "line", "lint", "message"}` objects (hand-rolled: mc-lint is
/// dependency-free).
pub fn to_json(diags: &[Diagnostic]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\": \"{}\", \"line\": {}, \"lint\": \"{}\", \"message\": \"{}\"}}",
            esc(&d.file),
            d.line,
            esc(d.lint),
            esc(&d.message)
        ));
    }
    out.push_str(if diags.is_empty() { "]" } else { "\n]" });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_escapes_and_validates() {
        assert_eq!(to_json(&[]), "[]");
        let diags = [Diagnostic {
            file: "crates/mem/src/a.rs".into(),
            line: 7,
            lint: "panic-reach",
            message: "a \"quoted\" path\\with\nnewline".into(),
        }];
        let json = to_json(&diags);
        assert!(json.contains(r#""line": 7"#), "{json}");
        assert!(
            json.contains(r#"a \"quoted\" path\\with\nnewline"#),
            "{json}"
        );
        // No raw control characters survive escaping.
        assert!(json.chars().all(|c| c == '\n' || (c as u32) >= 0x20));
    }
}

//! `cumf-check`: the workspace's source-level concurrency lint.
//!
//! A deliberately small, dependency-free line-based analyzer that enforces
//! the concurrency hygiene rules the model checker (`vendor/loom`) and the
//! sanitizer lanes cannot: justification comments on atomic orderings, the
//! `crate::sync` facade discipline, panic-free serving code, shard-lock
//! ordering in the result cache, and drift detection for the public
//! surface of the vendored dependency shims and the workspace crates.
//!
//! # Rules
//!
//! | rule | scope | requirement |
//! |------|-------|-------------|
//! | `relaxed-ordering` | `crates/*/src`, non-test | every `Ordering::Relaxed` carries a `// relaxed-ok: <why>` justification |
//! | `atomic-ordering` | `crates/*/src`, non-test | every `Acquire`/`Release`/`AcqRel`/`SeqCst` carries `// ordering-ok: <why>` |
//! | `sync-facade` | `crates/{obs,serve}/src`, non-test | no `std::sync` reference bypassing the `crate::sync` facade |
//! | `serve-unwrap` | `crates/serve/src`, non-test | no `.unwrap()` / `.expect(` on the serving tier's request path |
//! | `lock-order` | `crates/serve/src/cache.rs` | shard guards stay statement-temporaries; shards iterate in ascending order; never two shard locks in one statement |
//! | `quant-cast` | `crates/*/src/*quant*.rs`, non-test | every `as f32` / `as i8` narrowing in a codec module carries `// quant-ok: <why>` |
//! | `shim-drift` | `vendor/*`, `crates/*` | the shim's or crate's `pub` surface matches its checked-in `SURFACE.txt` |
//! | `baseline-stale` | `crates/check/baseline.txt` | every baseline entry still matches a real finding |
//!
//! # Suppressions
//!
//! * `// relaxed-ok: <why>` / `// ordering-ok: <why>` — on the same line as
//!   the atomic op or up to three lines above it.  `ordering-ok:` is the
//!   stronger claim and also satisfies `relaxed-ordering`.
//! * `// quant-ok: <why>` — same window; justifies a lossy-looking numeric
//!   cast in a quantization codec module (the casts are where codec error
//!   bounds are either honored or silently broken, so each one must say why
//!   it is exact or how its error is accounted for).
//! * `// lint-ok: <rule> <why>` — same window, suppresses one rule.
//! * `// lint-ok-file: <rule> <why>` — anywhere in a file, suppresses the
//!   rule for the whole file (used by the sync facade modules themselves).
//! * `crates/check/baseline.txt` — tab-separated `rule<TAB>path<TAB>source`
//!   entries for grandfathered findings.  The tree's target state — and its
//!   state at every merge — is an **empty** baseline; entries that stop
//!   matching become `baseline-stale` findings so the allowlist can only
//!   shrink.
//!
//! All justifications must be non-empty: a bare marker is itself unheeded.
//!
//! # Heuristics
//!
//! The scanner is line-based by design (no rustc dependency, so it runs in
//! the `analysis` CI lane in milliseconds).  String literals are blanked
//! before matching, `//` comments are split off with an in-string guard,
//! and `#[cfg(test)]` / `#[cfg(all(test, ...))]` inline modules are skipped
//! by brace tracking.  Multi-line string literals and `mod tests;` in a
//! separate file inside `src/` are not modeled; the workspace uses neither
//! on lint-scanned paths.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub const RULE_RELAXED: &str = "relaxed-ordering";
pub const RULE_ORDERING: &str = "atomic-ordering";
pub const RULE_FACADE: &str = "sync-facade";
pub const RULE_UNWRAP: &str = "serve-unwrap";
pub const RULE_LOCK_ORDER: &str = "lock-order";
pub const RULE_QUANT_CAST: &str = "quant-cast";
pub const RULE_SHIM_DRIFT: &str = "shim-drift";
pub const RULE_BASELINE_STALE: &str = "baseline-stale";

/// How many lines above a flagged line a justification comment may sit.
const ANNOTATION_WINDOW: usize = 3;

/// Crates whose concurrency primitives must come from the `crate::sync`
/// facade so they can run under the model checker unchanged.
const FACADE_CRATES: &[&str] = &["obs", "serve"];

const STRONG_ORDERINGS: &[&str] = &["Acquire", "Release", "AcqRel", "SeqCst"];

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub rule: &'static str,
    /// Path relative to the workspace root, `/`-separated.
    pub path: String,
    /// 1-based; 0 for whole-file findings (missing `SURFACE.txt`).
    pub line: usize,
    /// The offending source line, trimmed (empty for file-level findings).
    pub source: String,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}:{}: {}",
            self.rule, self.path, self.line, self.message
        )?;
        if !self.source.is_empty() {
            write!(f, "\n    {}", self.source)?;
        }
        Ok(())
    }
}

/// One source line, pre-split for the rule matchers.
struct Line {
    /// Code with string-literal contents blanked and comments removed.
    code: String,
    /// Comment text (everything after a non-string `//`).
    comment: String,
    /// Inside an inline `#[cfg(test)]`-style module.
    is_test: bool,
}

/// Splits a raw line into (code-with-blanked-strings, comment-text).
fn split_line(raw: &str) -> (String, String) {
    let mut code = String::with_capacity(raw.len());
    let mut in_string = false;
    let mut chars = raw.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        if in_string {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => {
                    in_string = false;
                    code.push('"');
                }
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                code.push('"');
            }
            '/' if matches!(chars.peek(), Some((_, '/'))) => {
                return (code, raw[i + 2..].trim().to_string());
            }
            _ => code.push(c),
        }
    }
    (code, String::new())
}

/// Parses a file into classified lines, marking inline test modules.
fn parse_file(text: &str) -> Vec<Line> {
    let mut lines = Vec::new();
    let mut depth: i64 = 0;
    let mut pending_test_attr = false;
    // Depth *outside* the innermost test module; `None` when not in one.
    let mut test_until_depth: Option<i64> = None;

    for raw in text.lines() {
        let (code, comment) = split_line(raw);
        let trimmed = code.trim();

        if trimmed.starts_with("#[cfg(test)") || trimmed.starts_with("#[cfg(all(test") {
            pending_test_attr = true;
        }
        let opens_test_mod = pending_test_attr
            && trimmed.contains("mod ")
            && trimmed.contains('{')
            && test_until_depth.is_none();
        if opens_test_mod {
            test_until_depth = Some(depth);
            pending_test_attr = false;
        } else if pending_test_attr && !trimmed.is_empty() && !trimmed.starts_with("#[") {
            // The attribute guarded something other than an inline mod
            // (e.g. a `use`), so it does not open a region.
            pending_test_attr = false;
        }

        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }

        let is_test = test_until_depth.is_some();
        if let Some(outer) = test_until_depth {
            if depth <= outer {
                test_until_depth = None;
            }
        }
        lines.push(Line {
            code,
            comment,
            is_test,
        });
    }
    lines
}

/// True if `comment` carries `marker` followed by a non-empty justification.
fn justified(comment: &str, marker: &str) -> bool {
    comment
        .find(marker)
        .is_some_and(|at| !comment[at + marker.len()..].trim().is_empty())
}

/// True if line `idx` (or up to [`ANNOTATION_WINDOW`] lines above) carries
/// any of `markers` with a justification.
fn annotated(lines: &[Line], idx: usize, markers: &[&str]) -> bool {
    let lo = idx.saturating_sub(ANNOTATION_WINDOW);
    lines[lo..=idx]
        .iter()
        .any(|l| markers.iter().any(|m| justified(&l.comment, m)))
}

fn file_suppressed(lines: &[Line], rule: &str) -> bool {
    let marker = format!("lint-ok-file: {rule}");
    lines.iter().any(|l| justified(&l.comment, &marker))
}

fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.filter_map(Result::ok) {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Scans every workspace crate under `root/crates` plus the vendored shims
/// and returns all findings (before baseline filtering), sorted.
fn check_workspace(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    scan_crates(root, &mut findings);
    scan_surfaces(root, &mut findings);
    findings.sort();
    findings
}

fn scan_crates(root: &Path, findings: &mut Vec<Finding>) {
    let crates_dir = root.join("crates");
    let Ok(entries) = fs::read_dir(&crates_dir) else {
        return;
    };
    let mut crate_dirs: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let crate_name = crate_dir
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .to_string();
        for file in rs_files(&src) {
            let Ok(text) = fs::read_to_string(&file) else {
                continue;
            };
            let path = rel(root, &file);
            let lines = parse_file(&text);
            scan_file(&crate_name, &path, &text, &lines, findings);
        }
    }
}

fn scan_file(
    crate_name: &str,
    path: &str,
    text: &str,
    lines: &[Line],
    findings: &mut Vec<Finding>,
) {
    let raw_lines: Vec<&str> = text.lines().collect();
    let is_cache = crate_name == "serve" && path.ends_with("/cache.rs");
    let is_quant = path
        .rsplit('/')
        .next()
        .is_some_and(|file| file.contains("quant"));
    let mut push = |rule: &'static str, idx: usize, message: String| {
        findings.push(Finding {
            rule,
            path: path.to_string(),
            line: idx + 1,
            source: raw_lines[idx].trim().to_string(),
            message,
        });
    };

    for (idx, line) in lines.iter().enumerate() {
        if line.is_test {
            continue;
        }
        let code = line.code.as_str();
        let generic = |rule: &str| format!("lint-ok: {rule}");

        // relaxed-ordering / atomic-ordering: every atomic memory ordering
        // must carry a justification comment.
        if code.contains("Ordering::Relaxed")
            && !annotated(
                lines,
                idx,
                &["relaxed-ok:", "ordering-ok:", &generic(RULE_RELAXED)],
            )
            && !file_suppressed(lines, RULE_RELAXED)
        {
            push(
                RULE_RELAXED,
                idx,
                "Ordering::Relaxed without a `// relaxed-ok:` justification".to_string(),
            );
        }
        if STRONG_ORDERINGS
            .iter()
            .any(|o| code.contains(&format!("Ordering::{o}")))
            && !annotated(lines, idx, &["ordering-ok:", &generic(RULE_ORDERING)])
            && !file_suppressed(lines, RULE_ORDERING)
        {
            push(
                RULE_ORDERING,
                idx,
                "atomic ordering without an `// ordering-ok:` justification".to_string(),
            );
        }

        // sync-facade: facade-covered crates must not reach std::sync
        // directly, or the model checker silently loses instrumentation.
        if FACADE_CRATES.contains(&crate_name)
            && code.contains("std::sync")
            && !annotated(lines, idx, &[&generic(RULE_FACADE)])
            && !file_suppressed(lines, RULE_FACADE)
        {
            push(
                RULE_FACADE,
                idx,
                "std::sync bypasses the crate::sync model-check facade".to_string(),
            );
        }

        // serve-unwrap: the request path must degrade, not abort.
        if crate_name == "serve"
            && (code.contains(".unwrap()") || code.contains(".expect("))
            && !annotated(lines, idx, &[&generic(RULE_UNWRAP)])
            && !file_suppressed(lines, RULE_UNWRAP)
        {
            push(
                RULE_UNWRAP,
                idx,
                "unwrap/expect on the serving path; return an error or justify with `// lint-ok: serve-unwrap`"
                    .to_string(),
            );
        }

        // quant-cast: in codec modules, a numeric narrowing is exactly
        // where a documented error bound is honored or silently broken, so
        // each `as f32` / `as i8` must explain itself.
        if is_quant
            && (code.contains(" as f32") || code.contains(" as i8"))
            && !annotated(lines, idx, &["quant-ok:", &generic(RULE_QUANT_CAST)])
            && !file_suppressed(lines, RULE_QUANT_CAST)
        {
            push(
                RULE_QUANT_CAST,
                idx,
                "numeric cast in a quantization codec without a `// quant-ok:` justification"
                    .to_string(),
            );
        }

        // lock-order: the sharded cache takes one shard lock at a time, as
        // a statement-temporary, iterating shards in ascending order.
        if is_cache && !file_suppressed(lines, RULE_LOCK_ORDER) {
            let suppressed = annotated(lines, idx, &[&generic(RULE_LOCK_ORDER)]);
            let lock_hits: Vec<usize> = code.match_indices("Self::lock(").map(|(i, _)| i).collect();
            if !suppressed {
                if lock_hits.len() >= 2 {
                    push(
                        RULE_LOCK_ORDER,
                        idx,
                        "two shard locks in one statement can deadlock against the reverse order"
                            .to_string(),
                    );
                } else if let Some(&at) = lock_hits.first() {
                    let prefix = &code[..at];
                    if prefix.contains("let ") && prefix.contains('=') {
                        push(
                            RULE_LOCK_ORDER,
                            idx,
                            "shard guard bound to a `let` outlives its statement; keep guards temporary"
                                .to_string(),
                        );
                    }
                }
                if code.contains(".rev()") && code.contains("shards") {
                    push(
                        RULE_LOCK_ORDER,
                        idx,
                        "shards must be traversed in ascending index order".to_string(),
                    );
                }
            }
        }
    }
}

/// Extracts the normalized public surface of a `src/` tree: one entry per
/// `pub` item declaration, whitespace-collapsed, bodies truncated.
/// `pub(crate)`/`pub(super)` items are internal and excluded.
fn pub_surface(src: &Path) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for file in rs_files(src) {
        let Ok(text) = fs::read_to_string(&file) else {
            continue;
        };
        for line in parse_file(&text) {
            if line.is_test {
                continue;
            }
            let trimmed = line.code.trim();
            if !trimmed.starts_with("pub ") {
                continue;
            }
            let keyword = trimmed.split_whitespace().nth(1).unwrap_or("");
            let is_item = matches!(
                keyword,
                "fn" | "struct"
                    | "enum"
                    | "trait"
                    | "mod"
                    | "type"
                    | "const"
                    | "static"
                    | "use"
                    | "unsafe"
                    | "async"
            );
            if !is_item {
                continue;
            }
            let cut = if keyword == "use" {
                trimmed.len()
            } else {
                trimmed.find('{').unwrap_or(trimmed.len())
            };
            let normalized = trimmed[..cut]
                .trim_end_matches(|c: char| c.is_whitespace() || c == ';' || c == '{')
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" ");
            if !normalized.is_empty() {
                out.insert(normalized);
            }
        }
    }
    out
}

/// Every directory whose `pub` surface is frozen: the vendored shims and
/// the workspace crates, as `(root-relative name, directory)` pairs.
fn surface_dirs(root: &Path) -> Vec<(String, PathBuf)> {
    let mut dirs = Vec::new();
    for parent in ["crates", "vendor"] {
        let Ok(entries) = fs::read_dir(root.join(parent)) else {
            continue;
        };
        let mut found: Vec<_> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.join("src").is_dir())
            .collect();
        found.sort();
        dirs.extend(found.into_iter().map(|p| {
            let name = p.file_name().unwrap_or_default().to_string_lossy();
            (format!("{parent}/{name}"), p)
        }));
    }
    dirs
}

fn scan_surfaces(root: &Path, findings: &mut Vec<Finding>) {
    for (_, dir) in surface_dirs(root) {
        let actual = pub_surface(&dir.join("src"));
        let surface_path = dir.join("SURFACE.txt");
        let surface_rel = rel(root, &surface_path);
        let Ok(recorded_text) = fs::read_to_string(&surface_path) else {
            findings.push(Finding {
                rule: RULE_SHIM_DRIFT,
                path: surface_rel,
                line: 0,
                source: String::new(),
                message:
                    "missing SURFACE.txt; run `cargo run -p cumf-check --bin lint -- --update-surface`"
                        .to_string(),
            });
            continue;
        };
        let recorded: BTreeSet<String> = recorded_text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect();
        for item in actual.difference(&recorded) {
            findings.push(Finding {
                rule: RULE_SHIM_DRIFT,
                path: surface_rel.clone(),
                line: 0,
                source: item.clone(),
                message: "public item not recorded in SURFACE.txt".to_string(),
            });
        }
        for item in recorded.difference(&actual) {
            findings.push(Finding {
                rule: RULE_SHIM_DRIFT,
                path: surface_rel.clone(),
                line: 0,
                source: item.clone(),
                message: "SURFACE.txt entry no longer exists in the source".to_string(),
            });
        }
    }
}

/// Regenerates every shim's and crate's `SURFACE.txt`; returns the paths
/// written.
pub fn update_surfaces(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut written = Vec::new();
    for (name, dir) in surface_dirs(root) {
        let mut text = format!(
            "# Public surface of {name}, one normalized declaration per line.\n\
             # Checked by `cumf-check` (rule: shim-drift); regenerate with\n\
             # `cargo run -p cumf-check --bin lint -- --update-surface`.\n"
        );
        for item in &pub_surface(&dir.join("src")) {
            text.push_str(item);
            text.push('\n');
        }
        let path = dir.join("SURFACE.txt");
        fs::write(&path, text)?;
        written.push(path);
    }
    Ok(written)
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    pub rule: String,
    pub path: String,
    pub source: String,
}

/// Loads `crates/check/baseline.txt` (missing file = empty baseline).
fn load_baseline(root: &Path) -> Vec<BaselineEntry> {
    let Ok(text) = fs::read_to_string(root.join("crates/check/baseline.txt")) else {
        return Vec::new();
    };
    text.lines()
        .map(str::trim_end)
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.splitn(3, '\t');
            Some(BaselineEntry {
                rule: parts.next()?.to_string(),
                path: parts.next()?.to_string(),
                source: parts.next()?.trim().to_string(),
            })
        })
        .collect()
}

#[derive(Debug, Default)]
pub struct LintReport {
    /// Findings not covered by the baseline — these fail the build.
    pub unbaselined: Vec<Finding>,
    /// Count of findings suppressed by baseline entries.
    pub baselined: usize,
    /// Baseline entries that no longer match anything — these also fail the
    /// build, so the allowlist can only shrink.
    pub stale: Vec<Finding>,
    /// Total findings before baseline filtering.
    pub total: usize,
}

impl LintReport {
    pub fn is_clean(&self) -> bool {
        self.unbaselined.is_empty() && self.stale.is_empty()
    }
}

fn apply_baseline(findings: Vec<Finding>, entries: &[BaselineEntry]) -> LintReport {
    let mut used = vec![false; entries.len()];
    let mut report = LintReport {
        total: findings.len(),
        ..Default::default()
    };
    for f in findings {
        let hit = entries
            .iter()
            .position(|e| e.rule == f.rule && e.path == f.path && e.source == f.source.trim());
        match hit {
            Some(i) => {
                used[i] = true;
                report.baselined += 1;
            }
            None => report.unbaselined.push(f),
        }
    }
    for (entry, used) in entries.iter().zip(used) {
        if !used {
            report.stale.push(Finding {
                rule: RULE_BASELINE_STALE,
                path: "crates/check/baseline.txt".to_string(),
                line: 0,
                source: format!("{}\t{}\t{}", entry.rule, entry.path, entry.source),
                message: "baseline entry no longer matches any finding; delete it".to_string(),
            });
        }
    }
    report
}

/// Full lint run: scan the workspace at `root`, apply its baseline.
pub fn run(root: &Path) -> LintReport {
    let findings = check_workspace(root);
    let baseline = load_baseline(root);
    apply_baseline(findings, &baseline)
}

/// The workspace root when building in-tree (manifest dir is
/// `crates/check`).
pub fn default_root() -> PathBuf {
    let guess = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    guess.canonicalize().unwrap_or(guess)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(name: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(name)
    }

    #[test]
    fn clean_fixture_is_quiet() {
        let findings = check_workspace(&fixture("clean"));
        assert!(findings.is_empty(), "clean fixture flagged: {findings:#?}");
        let report = apply_baseline(findings, &[]);
        assert!(report.is_clean());
    }

    #[test]
    fn seeded_fixture_trips_every_rule() {
        let findings = check_workspace(&fixture("seeded"));
        let rules: BTreeSet<&str> = findings.iter().map(|f| f.rule).collect();
        for rule in [
            RULE_RELAXED,
            RULE_ORDERING,
            RULE_FACADE,
            RULE_UNWRAP,
            RULE_LOCK_ORDER,
            RULE_QUANT_CAST,
            RULE_SHIM_DRIFT,
        ] {
            assert!(
                rules.contains(rule),
                "seeded fixture missed rule {rule}: {findings:#?}"
            );
        }
        // The drift rule covers the workspace crates as well as the shims.
        assert!(
            findings.iter().any(|f| f.rule == RULE_SHIM_DRIFT
                && f.path == "crates/obs/SURFACE.txt"
                && f.source == "pub fn unrecorded_entry_point() -> u64"),
            "seeded crate's unrecorded entry point missed: {findings:#?}"
        );
        let report = apply_baseline(findings, &[]);
        assert!(!report.is_clean(), "seeded fixture must fail the lint");
    }

    #[test]
    fn test_modules_are_exempt() {
        // The seeded fixture hides identical violations inside a
        // #[cfg(test)] mod; none of its findings may point there.
        let findings = check_workspace(&fixture("seeded"));
        for f in &findings {
            assert!(
                !f.source.contains("IN_TEST_MOD"),
                "flagged test-only code: {f}"
            );
        }
    }

    #[test]
    fn quant_cast_rule_is_scoped_to_codec_modules() {
        let findings = check_workspace(&fixture("seeded"));
        let quant: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == RULE_QUANT_CAST)
            .collect();
        assert_eq!(
            quant.len(),
            2,
            "both unjustified casts must be flagged: {quant:#?}"
        );
        assert!(
            quant.iter().all(|f| f.path.contains("quant")),
            "quant-cast fired outside a codec module: {quant:#?}"
        );
        // The clean fixture's codec module carries justifications on both
        // cast shapes (same-line and line-above) and must stay quiet.
        let clean = check_workspace(&fixture("clean"));
        assert!(
            clean.iter().all(|f| f.rule != RULE_QUANT_CAST),
            "justified casts flagged: {clean:#?}"
        );
    }

    #[test]
    fn empty_justifications_do_not_count() {
        let text = "fn f(a: &A) {\n    a.load(Ordering::Relaxed); // relaxed-ok:\n}\n";
        let lines = parse_file(text);
        assert!(
            !annotated(&lines, 1, &["relaxed-ok:"]),
            "bare marker must not count"
        );
    }

    #[test]
    fn annotation_window_is_three_lines() {
        let text = "// relaxed-ok: counter is monotonic and only read for reporting\n\
                    //\n\
                    //\n\
                    a.load(Ordering::Relaxed);\n\
                    //\n\
                    b.load(Ordering::Relaxed);\n";
        let lines = parse_file(text);
        assert!(annotated(&lines, 3, &["relaxed-ok:"]));
        assert!(
            !annotated(&lines, 5, &["relaxed-ok:"]),
            "window must close after 3 lines"
        );
    }

    #[test]
    fn strings_and_comments_do_not_trip_rules() {
        let (code, comment) =
            split_line(r#"let s = "Ordering::Relaxed .unwrap()"; // Ordering::SeqCst"#);
        assert!(
            !code.contains("Ordering::"),
            "string content leaked: {code}"
        );
        assert!(comment.contains("Ordering::SeqCst"));
        let (code, _) = split_line(r#"let url = "https://example.com";"#);
        assert!(
            code.ends_with(';'),
            "// inside a string must not start a comment"
        );
    }

    #[test]
    fn baseline_suppresses_then_goes_stale() {
        let finding = Finding {
            rule: RULE_UNWRAP,
            path: "crates/serve/src/x.rs".to_string(),
            line: 10,
            source: "foo.unwrap();".to_string(),
            message: String::new(),
        };
        let entry = BaselineEntry {
            rule: RULE_UNWRAP.to_string(),
            path: "crates/serve/src/x.rs".to_string(),
            source: "foo.unwrap();".to_string(),
        };
        let report = apply_baseline(vec![finding], std::slice::from_ref(&entry));
        assert_eq!(report.baselined, 1);
        assert!(report.is_clean());

        let report = apply_baseline(Vec::new(), &[entry]);
        assert_eq!(
            report.stale.len(),
            1,
            "unused entries must surface as stale"
        );
        assert!(!report.is_clean());
    }

    #[test]
    fn surface_extraction_normalizes_declarations() {
        let shim_src = fixture("seeded").join("vendor/fakeshim/src");
        let surface = pub_surface(&shim_src);
        assert!(surface.contains("pub fn stable()"), "surface: {surface:?}");
        assert!(surface.contains("pub fn sneaky()"), "surface: {surface:?}");
        assert!(
            !surface.iter().any(|s| s.contains("hidden")),
            "pub(crate)/test items leaked into the surface: {surface:?}"
        );
    }

    /// The acceptance bar: the real tree lints clean with an empty
    /// baseline.  This runs in tier-1, so any unjustified atomic or facade
    /// bypass fails `cargo test` before it ever reaches CI's lint lane.
    #[test]
    fn workspace_tree_is_clean() {
        let report = run(&default_root());
        assert!(
            report.is_clean(),
            "workspace lint failed:\n{}\n{} stale baseline entries",
            report
                .unbaselined
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n"),
            report.stale.len()
        );
    }
}

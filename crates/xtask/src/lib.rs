//! `cargo xtask` — repo-specific static analysis for the AIMQ
//! workspace.
//!
//! The headline command, `cargo xtask lint`, enforces invariants that
//! neither type-checking nor clippy can (see DESIGN.md, "Static
//! analysis & invariants"). L1 panic-freedom, L3 hash-container
//! determinism and L4 wall-clock independence are clippy's: the library
//! crate roots deny the panic lints and `clippy::disallowed_{methods,
//! types}` against the workspace `clippy.toml`. L6 atomics and L10
//! counter arithmetic are types: `aimq_storage::{Counter, Flag,
//! StatsCell}` fix the memory orderings, `clippy.toml` bans the raw
//! atomic types, and tallies are `std::num::Saturating`. L9 result
//! discipline is rustc's `unused_must_use` plus clippy's
//! `let_underscore_must_use`, `unused_result_ok` and
//! `wildcard_enum_match_arm`, denied in `[workspace.lints]`. What stays
//! here:
//!
//! - **L2 float-ordering safety**: similarity/importance scores are
//!   compared with `f64::total_cmp`/`OrderedScore`, never the
//!   NaN-unsafe `partial_cmp`, plus warn-level direct `expr[...]`
//!   indexing (clippy's `indexing_slicing` misses `BTreeMap[&k]`).
//!
//! With the concurrent runtime (worker pool, striped cache, shared
//! stats), two structure-aware families joined (see the `structure`
//! module for the analysis engine):
//!
//! - **L5 lock-discipline**: every owned `Mutex` belongs to a named
//!   lock family (`// aimq-lock: family(..) -- why`); acquisitions are
//!   tracked guard-by-guard, and the workspace-wide family graph must
//!   stay acyclic — plus no guard may be held across a blocking call
//!   (`try_query`, `Condvar::wait`, channel `recv`).
//! - **L7 layering**: cross-crate imports and `Cargo.toml` dependencies
//!   must follow the crate DAG
//!   (catalog → storage → {afd, sim} → rock → core → serve → http →
//!   bins).
//!
//! The effect-system family rides on a shared call-graph fixpoint
//! (`callgraph` module) and the directive grammar (see the `effects`
//! module):
//!
//! - **L8 probe-effect**: a workspace may-call fixpoint computes every
//!   function that can transitively reach `WebDatabase::try_query` or
//!   `try_query_plan`;
//!   probing paths are banned in the probe-free crates (`afd`, `sim`,
//!   `rock`, `catalog`), banned under a live lock guard, and direct
//!   boundary callers must be annotated
//!   `// aimq-probe: entry -- <why>` (stale annotations are errors).
//!
//! Three wire-contract families guard what clients of the HTTP front
//! door actually see (the `wire` and `dataflow` modules):
//!
//! - **L11 wire-drift**: the JSON shape every `to_json()` produces is
//!   extracted statically (keys from object literals, `Json::Obj`
//!   construction marking dynamic shapes) into an inventory pinned at
//!   `results/WIRE_SCHEMA.json` (`cargo xtask wire --write`); stale
//!   pins, duplicate keys, and keys emitted under conditionals without
//!   `// aimq-wire: optional -- <why>` are errors.
//! - **L12 error-surface**: every watched fault-enum variant the
//!   `http` crate handles must be *named* there as `Enum::Variant`,
//!   and every `Response::error` machine code must be a string literal
//!   that appears — with a matching status — in the DESIGN.md
//!   `| machine code | status |` table (stale rows are errors too).
//! - **L13 degradation-flow**: intra-procedural def-use tracking over
//!   the token stream taints every constructed fault-enum value and
//!   errors unless it reaches a sink (return/`?`/match-arm/tail, a
//!   call or recorder argument, a tracked `let` whose use sinks, or
//!   `// aimq-fault: sink -- <where accounting lives>`).
//!
//! Diagnostics are rustc-style with file:line:col spans; per-line
//! suppressions use `// aimq-lint: allow(<rule>) -- <justification>`
//! and the justification is mandatory. `--json` emits the same
//! findings machine-readably (see the `json` module), and
//! `--explain <rule>` prints the registry entry. The pass is a
//! hand-rolled lexical scan (`source` module) because the offline
//! build environment cannot fetch `syn`.

pub mod callgraph;
pub mod concurrency;
pub mod dataflow;
pub mod effects;
pub mod json;
pub mod layering;
pub mod rules;
pub mod source;
pub mod structure;
pub mod wire;

pub use rules::{rule_info, Finding, RuleInfo, Severity, KNOWN_RULES, RULES};

use std::path::{Path, PathBuf};

/// Library crates under the float-ordering, indexing and concurrency
/// rules — the same eight whose roots deny clippy's panic lints. `http`
/// joined with the network front door: a malformed request or a dying
/// socket must become a typed 400/transport error, never a panic in a
/// connection thread.
pub const PANIC_CRATES: &[&str] = &[
    "catalog", "storage", "afd", "sim", "rock", "core", "serve", "http",
];

/// A rendered-ready diagnostic bound to a file.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule id (`indexing`, `float-ordering`, `lock-discipline`, …,
    /// `lint-allow`; see [`RULES`]).
    pub rule: String,
    /// Error or warning.
    pub severity: Severity,
    /// Path relative to the lint root.
    pub path: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Description of the violation.
    pub message: String,
    /// The offending source line, for the span rendering.
    pub snippet: String,
    /// Remedy note (empty when not applicable).
    pub help: String,
}

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All diagnostics, in file-then-line order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of error-severity diagnostics.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warnings(&self) -> usize {
        self.diagnostics.len() - self.errors()
    }

    /// `true` when the run should exit nonzero.
    pub fn failed(&self, deny_warnings: bool) -> bool {
        self.errors() > 0 || (deny_warnings && self.warnings() > 0)
    }
}

/// Lint a workspace-shaped tree rooted at `root`.
///
/// Pass 1 walks every `.rs` file under `crates/<name>/src/` (except
/// `xtask` itself, whose docs quote directive syntax verbatim), runs
/// the per-file rules over the [`PANIC_CRATES`], and retains the
/// structural facts. Pass 2 runs the workspace-wide checks over those
/// facts: the cross-file lock-ordering graph (L5) and the crate DAG
/// (L7), with pass-2 findings filtered through each file's own
/// suppressions.
pub fn lint_root(root: &Path) -> std::io::Result<LintReport> {
    let mut report = LintReport::default();
    let (names, entries) = scan_workspace(root)?;

    for entry in &entries {
        if PANIC_CRATES.contains(&entry.crate_name.as_str()) {
            lint_scanned(
                &entry.scanned,
                &entry.analysis,
                &entry.lines,
                &entry.rel,
                &mut report,
            );
        }
    }

    // Pass 2a: workspace lock-ordering graph over the concurrency-scoped
    // crates.
    let conc: Vec<(usize, &structure::FileAnalysis)> = entries
        .iter()
        .enumerate()
        .filter(|(_, e)| PANIC_CRATES.contains(&e.crate_name.as_str()))
        .map(|(i, e)| (i, &e.analysis))
        .collect();
    let mut late: Vec<(usize, Finding)> = concurrency::check_workspace(&conc);

    // Pass 2b: crate DAG from manifests + imports, over every aimq
    // crate (bins and data included).
    let manifests = layering::scan_manifests(root, &names)?;
    for mf in manifests.findings {
        report.diagnostics.push(Diagnostic {
            rule: mf.rule.to_string(),
            severity: Severity::Error,
            path: mf.path,
            line: mf.line,
            col: 1,
            message: mf.message,
            snippet: mf.snippet,
            help: mf.help.to_string(),
        });
    }
    let imports: Vec<(usize, &str, &structure::FileAnalysis)> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| (i, e.crate_name.as_str(), &e.analysis))
        .collect();
    late.extend(layering::check_imports(&imports, &manifests.declared));

    // Pass 2c: L8 probe-effect over the shared call graph, every crate
    // — bins and eval included, which the per-file rules skip.
    let eff_files: Vec<effects::EffectsFile> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| effects::EffectsFile {
            idx: i,
            crate_name: e.crate_name.as_str(),
            scanned: &e.scanned,
            analysis: &e.analysis,
        })
        .collect();
    late.extend(effects::check_workspace(&eff_files).findings);

    // Pass 2d: wire-contract rules (L11 wire-drift shape extraction,
    // L12 error-surface) over every crate, plus the doc-anchored
    // checks against DESIGN.md and the pinned schema inventory.
    let wire_files: Vec<wire::WireFile> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| wire::WireFile {
            idx: i,
            crate_name: e.crate_name.as_str(),
            rel: e.rel.display().to_string(),
            scanned: &e.scanned,
        })
        .collect();
    let design_text = std::fs::read_to_string(root.join("DESIGN.md")).ok();
    let wire_report = wire::check_workspace(&wire_files, design_text.as_deref());
    late.extend(wire_report.findings);
    for df in &wire_report.design_findings {
        let design_lines: Vec<&str> = design_text.as_deref().unwrap_or("").lines().collect();
        report.diagnostics.push(Diagnostic {
            rule: "error-surface".to_string(),
            severity: Severity::Error,
            path: PathBuf::from("DESIGN.md"),
            line: df.line,
            col: 1,
            message: df.message.clone(),
            snippet: design_lines
                .get(df.line.saturating_sub(1))
                .map(|l| l.trim_end().to_string())
                .unwrap_or_default(),
            help: df.help.to_string(),
        });
    }
    // Pin freshness: the checked-in inventory must match what the
    // extractor sees. Trees with no `to_json` surface and no pin file
    // (most lint fixtures) carry no obligation.
    let pin_path = root.join("results").join("WIRE_SCHEMA.json");
    let pinned = std::fs::read_to_string(&pin_path).ok();
    if !wire_report.shapes.is_empty() || pinned.is_some() {
        let rendered = wire::render_inventory(&wire_report.shapes);
        let (stale, message) = match &pinned {
            None => (
                true,
                format!(
                    "results/WIRE_SCHEMA.json is missing but {} JSON shape(s) exist",
                    wire_report.shapes.len()
                ),
            ),
            Some(text) if *text != rendered => (
                true,
                "results/WIRE_SCHEMA.json is stale: the pinned JSON schema inventory does \
                 not match the shapes the `to_json` impls produce"
                    .to_string(),
            ),
            Some(_) => (false, String::new()),
        };
        if stale {
            report.diagnostics.push(Diagnostic {
                rule: "wire-drift".to_string(),
                severity: Severity::Error,
                path: PathBuf::from("results/WIRE_SCHEMA.json"),
                line: 1,
                col: 1,
                message,
                snippet: String::new(),
                help: "regenerate with `cargo xtask pin --write` (or `wire --write`) and \
                       review the diff like any other contract change"
                    .to_string(),
            });
        }
    }

    // Pass 2e: L13 degradation-flow def-use tracking, every crate.
    let flow_files: Vec<dataflow::DataflowFile> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| dataflow::DataflowFile {
            idx: i,
            scanned: &e.scanned,
        })
        .collect();
    late.extend(dataflow::check_workspace(&flow_files));

    for (idx, finding) in late {
        let entry = &entries[idx];
        if entry.scanned.is_allowed(finding.rule, finding.line) {
            continue;
        }
        report.diagnostics.push(Diagnostic {
            rule: finding.rule.to_string(),
            severity: finding.severity,
            path: entry.rel.clone(),
            line: finding.line,
            col: finding.col,
            message: finding.message,
            snippet: entry
                .lines
                .get(finding.line.saturating_sub(1))
                .cloned()
                .unwrap_or_default(),
            help: finding.help.to_string(),
        });
    }

    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.col, &a.rule).cmp(&(&b.path, b.line, b.col, &b.rule)));
    Ok(report)
}

/// One scanned workspace file retained for the cross-file passes.
struct Entry {
    rel: PathBuf,
    crate_name: String,
    scanned: source::ScannedFile,
    analysis: structure::FileAnalysis,
    lines: Vec<String>,
}

/// Scan every `.rs` file under `crates/<name>/src/` (except `xtask`
/// itself, whose docs quote directive syntax verbatim) into retained
/// lexical + structural facts. Returns the sorted crate names and the
/// file entries in (crate, path) order.
fn scan_workspace(root: &Path) -> std::io::Result<(Vec<String>, Vec<Entry>)> {
    let crates_dir = root.join("crates");
    let mut names: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(&crates_dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    names.sort();
    names.retain(|n| n != "xtask");

    let mut entries: Vec<Entry> = Vec::new();
    for name in &names {
        let src_dir = crates_dir.join(name).join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files)?;
        files.sort();
        for file in files {
            let text = std::fs::read_to_string(&file)?;
            let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            let scanned = source::scan(&text);
            let analysis = structure::analyze(&scanned);
            let lines: Vec<String> = text.lines().map(|l| l.trim_end().to_string()).collect();
            entries.push(Entry {
                rel,
                crate_name: name.clone(),
                scanned,
                analysis,
                lines,
            });
        }
    }
    Ok((names, entries))
}

/// One sanctioned probing entry point, for `cargo xtask probes` and
/// the checked-in `results/PROBE_ENTRYPOINTS.txt` audit.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ProbeEntryPoint {
    /// Path relative to the workspace root.
    pub path: PathBuf,
    /// Function name.
    pub fn_name: String,
}

/// Workspace probe-effect summary: the direct `try_query` /
/// `try_query_plan` callers and the per-crate probing sets the L8
/// fixpoint inferred.
#[derive(Debug, Default)]
pub struct ProbeSummary {
    /// Direct boundary callers outside the probe-free crates, sorted.
    pub entries: Vec<ProbeEntryPoint>,
    /// Probing (merged) function names per crate. The probe-free
    /// crates (`afd`, `sim`, `rock`, `catalog`) must map to empty sets.
    pub probing_by_crate: std::collections::BTreeMap<String, std::collections::BTreeSet<String>>,
}

/// Compute the L8 probe-effect summary for the workspace at `root`.
pub fn probe_summary(root: &Path) -> std::io::Result<ProbeSummary> {
    let (_, entries) = scan_workspace(root)?;
    let eff_files: Vec<effects::EffectsFile> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| effects::EffectsFile {
            idx: i,
            crate_name: e.crate_name.as_str(),
            scanned: &e.scanned,
            analysis: &e.analysis,
        })
        .collect();
    let report = effects::check_workspace(&eff_files);
    let mut out = ProbeSummary {
        probing_by_crate: report.probing_by_crate,
        ..ProbeSummary::default()
    };
    for entry in report.entries {
        out.entries.push(ProbeEntryPoint {
            path: entries[entry.idx].rel.clone(),
            fn_name: entry.fn_name,
        });
    }
    out.entries.sort();
    out.entries.dedup();
    Ok(out)
}

/// Render the wire-schema inventory for the workspace at `root` —
/// the exact text pinned at `results/WIRE_SCHEMA.json`.
pub fn wire_inventory(root: &Path) -> std::io::Result<String> {
    let (_, entries) = scan_workspace(root)?;
    let wire_files: Vec<wire::WireFile> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| wire::WireFile {
            idx: i,
            crate_name: e.crate_name.as_str(),
            rel: e.rel.display().to_string(),
            scanned: &e.scanned,
        })
        .collect();
    let report = wire::check_workspace(&wire_files, None);
    Ok(wire::render_inventory(&report.shapes))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint one file's text with the per-file rules, appending to `report`.
/// Standalone entry point (tests, single-file use); [`lint_root`]
/// drives the shared implementation directly so it can retain the
/// structural facts for the workspace passes.
pub fn lint_file(text: &str, rel_path: &Path, report: &mut LintReport) {
    let scanned = source::scan(text);
    let analysis = structure::analyze(&scanned);
    let lines: Vec<String> = text.lines().map(|l| l.trim_end().to_string()).collect();
    lint_scanned(&scanned, &analysis, &lines, rel_path, report);
}

/// Per-file pass over pre-scanned facts: directive hygiene, the
/// token-level rules (L2 and indexing), and the file-local half of
/// L5.
fn lint_scanned(
    scanned: &source::ScannedFile,
    analysis: &structure::FileAnalysis,
    lines: &[String],
    rel_path: &Path,
    report: &mut LintReport,
) {
    let snippet = |line: usize| -> String {
        lines
            .get(line.saturating_sub(1))
            .cloned()
            .unwrap_or_default()
    };

    // Malformed suppressions are themselves errors: an allow without a
    // justification is indistinguishable from a shrug.
    for (line, msg) in &scanned.bad_directives {
        report.diagnostics.push(Diagnostic {
            rule: "lint-allow".to_string(),
            severity: Severity::Error,
            path: rel_path.to_path_buf(),
            line: *line,
            col: 1,
            message: msg.clone(),
            snippet: snippet(*line),
            help: String::new(),
        });
    }
    // So are directives naming rules that do not exist: they silently
    // suppress nothing and rot.
    for allow in &scanned.allows {
        for rule in &allow.rules {
            if !KNOWN_RULES.contains(&rule.as_str()) {
                report.diagnostics.push(Diagnostic {
                    rule: "lint-allow".to_string(),
                    severity: Severity::Error,
                    path: rel_path.to_path_buf(),
                    line: allow.line,
                    col: 1,
                    message: format!(
                        "unknown rule `{rule}` in allow directive (known: {})",
                        KNOWN_RULES.join(", ")
                    ),
                    snippet: snippet(allow.line),
                    help: String::new(),
                });
            }
        }
    }

    let mut findings = rules::check(scanned);
    findings.extend(concurrency::check_file(analysis));
    for finding in findings {
        if scanned.is_allowed(finding.rule, finding.line) {
            continue;
        }
        report.diagnostics.push(Diagnostic {
            rule: finding.rule.to_string(),
            severity: finding.severity,
            path: rel_path.to_path_buf(),
            line: finding.line,
            col: finding.col,
            message: finding.message,
            snippet: snippet(finding.line),
            help: finding.help.to_string(),
        });
    }
}

/// Render one diagnostic rustc-style.
pub fn render(diag: &Diagnostic) -> String {
    let label = match diag.severity {
        Severity::Error => "error",
        Severity::Warning => "warning",
    };
    let gutter = diag.line.to_string();
    let pad = " ".repeat(gutter.len());
    let caret_pad = " ".repeat(diag.col.saturating_sub(1));
    let mut out = format!(
        "{label}[aimq::{}]: {}\n  --> {}:{}:{}\n{pad} |\n{gutter} | {}\n{pad} | {caret_pad}^\n",
        diag.rule,
        diag.message,
        diag.path.display(),
        diag.line,
        diag.col,
        diag.snippet
    );
    if !diag.help.is_empty() {
        out.push_str(&format!("{pad} = help: {}\n", diag.help));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_file_reports_and_suppresses() {
        let src = "\
fn risky(a: f64, b: f64) -> bool {
    a.partial_cmp(&b).is_some()
}
fn excused(a: f64, b: f64) -> bool {
    // aimq-lint: allow(float-ordering) -- the caller guarantees finite input
    a.partial_cmp(&b).is_some()
}
";
        let mut report = LintReport::default();
        lint_file(src, Path::new("crates/afd/src/x.rs"), &mut report);
        assert_eq!(report.errors(), 1, "{:#?}", report.diagnostics);
        assert_eq!(report.diagnostics[0].line, 2);
    }

    #[test]
    fn render_is_rustc_shaped() {
        let diag = Diagnostic {
            rule: "float-ordering".into(),
            severity: Severity::Error,
            path: PathBuf::from("crates/afd/src/x.rs"),
            line: 2,
            col: 15,
            message: "`.partial_cmp()` on scores is NaN-unsafe and breaks total ranking".into(),
            snippet: "    let o = a.partial_cmp(&b);".into(),
            help: "use `f64::total_cmp` instead".into(),
        };
        let text = render(&diag);
        assert!(text.contains("error[aimq::float-ordering]"));
        assert!(text.contains("--> crates/afd/src/x.rs:2:15"));
        assert!(text.contains("= help:"));
    }
}

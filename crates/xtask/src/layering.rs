//! L7 `layering`: enforce the crate DAG from `Cargo.toml` dependency
//! declarations and `use aimq_*` imports.
//!
//! The workspace layers as
//! `catalog → storage → {afd, sim} → rock → core → {serve, cli, eval,
//! bench}` (with `data` a leaf over catalog/storage). Each crate may
//! depend only on crates strictly below it; anything else — an upward
//! dependency in `Cargo.toml`, or a source import the manifest never
//! declared — is an architecture violation, caught here before it
//! ossifies.
//!
//! Manifest findings support a trailing
//! `# aimq-lint: allow(layering) -- <why>` comment on the dependency
//! line; source-import findings use the ordinary `// aimq-lint:`
//! suppression, applied by the caller.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use crate::rules::{Finding, Severity};
use crate::structure::FileAnalysis;

const LAYER_HELP: &str = "the crate DAG is catalog → storage → {afd, sim} → rock → core → \
                          serve → {http, cli, eval, bench}; depend only downward, or justify \
                          with `aimq-lint: allow(layering) -- <why>` on the offending line";

/// Crate directories and the directories each may depend on. Crates
/// absent from this table (e.g. lint fixtures with unknown names) are
/// exempt from the DAG; `xtask` is excluded from linting entirely.
pub const ALLOWED_DEPS: &[(&str, &[&str])] = &[
    ("catalog", &[]),
    ("storage", &["catalog"]),
    ("data", &["catalog", "storage"]),
    ("afd", &["catalog", "storage"]),
    ("sim", &["catalog", "storage", "afd"]),
    ("rock", &["catalog", "storage", "afd", "sim"]),
    ("core", &["catalog", "storage", "afd", "sim", "rock"]),
    (
        "serve",
        &["catalog", "storage", "afd", "sim", "rock", "core"],
    ),
    (
        "http",
        &["catalog", "storage", "afd", "sim", "rock", "core", "serve"],
    ),
    (
        "eval",
        &[
            "catalog", "storage", "data", "afd", "sim", "rock", "core", "serve",
        ],
    ),
    (
        "cli",
        &[
            "catalog", "storage", "data", "afd", "sim", "rock", "core", "serve", "http", "eval",
        ],
    ),
    (
        "bench",
        &[
            "catalog", "storage", "data", "afd", "sim", "rock", "core", "serve", "http", "eval",
        ],
    ),
];

fn allowed_for(dir: &str) -> Option<&'static [&'static str]> {
    ALLOWED_DEPS
        .iter()
        .find(|(name, _)| *name == dir)
        .map(|(_, deps)| *deps)
}

/// Crate directory for a package/lib identifier: the `core` directory
/// ships the `aimq` package (lib ident `aimq`); every other crate is
/// `aimq-<dir>` (lib ident `aimq_<dir>`).
fn dir_of(ident: &str) -> Option<String> {
    if ident == "aimq" {
        return Some("core".to_string());
    }
    ident
        .strip_prefix("aimq-")
        .or_else(|| ident.strip_prefix("aimq_"))
        .map(|rest| rest.replace('-', "_"))
}

/// A finding against a `Cargo.toml` (which has no token stream, so
/// suppression is resolved here rather than by the caller).
#[derive(Debug)]
pub struct ManifestFinding {
    /// Path relative to the lint root.
    pub path: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Description.
    pub message: String,
    /// The offending manifest line, for span rendering.
    pub snippet: String,
    /// Remedy note.
    pub help: &'static str,
    /// `lint-allow` (malformed directive) vs `layering`.
    pub rule: &'static str,
}

/// Result of scanning every crate manifest under `root/crates/`.
#[derive(Debug, Default)]
pub struct ManifestInfo {
    /// Crate dir → dirs its `[dependencies]` declare (aimq crates only).
    pub declared: BTreeMap<String, BTreeSet<String>>,
    /// Unsuppressed manifest findings.
    pub findings: Vec<ManifestFinding>,
}

/// Parse a trailing `# aimq-lint: allow(layering) -- why` comment.
/// `None`: no directive. `Some(Ok(()))`: valid layering allow.
/// `Some(Err(msg))`: malformed or mismatched directive.
fn toml_allow(line: &str) -> Option<Result<(), String>> {
    let idx = line.find("aimq-lint:")?;
    let rest = line[idx + "aimq-lint:".len()..].trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return Some(Err(
            "malformed `aimq-lint:` directive: expected `allow(<rules>) -- <justification>`"
                .to_string(),
        ));
    };
    let Some(close) = rest.find(')') else {
        return Some(Err("unclosed `allow(` in lint directive".to_string()));
    };
    let rules: Vec<&str> = rest[..close]
        .split(',')
        .map(str::trim)
        .filter(|r| !r.is_empty())
        .collect();
    let tail = rest[close + 1..].trim_start();
    let justified = tail
        .strip_prefix("--")
        .is_some_and(|j| !j.trim().is_empty());
    if !justified {
        return Some(Err(
            "allow directive is missing its `-- <justification>`".to_string()
        ));
    }
    if rules.contains(&"layering") {
        Some(Ok(()))
    } else {
        Some(Err(format!(
            "allow directive on a dependency line names {:?}, not `layering`",
            rules
        )))
    }
}

/// Scan `crates/<name>/Cargo.toml` for each crate: record declared
/// aimq dependencies and flag declarations the DAG forbids.
pub fn scan_manifests(root: &Path, crate_names: &[String]) -> std::io::Result<ManifestInfo> {
    let mut info = ManifestInfo::default();
    for name in crate_names {
        let manifest = root.join("crates").join(name).join("Cargo.toml");
        let declared = info.declared.entry(name.clone()).or_default();
        let Ok(text) = std::fs::read_to_string(&manifest) else {
            continue; // fixture crates may have no manifest
        };
        let rel = manifest
            .strip_prefix(root)
            .unwrap_or(&manifest)
            .to_path_buf();
        let allowed = allowed_for(name);
        let mut in_deps = false;
        for (lineno, line) in text.lines().enumerate() {
            let trimmed = line.trim();
            if trimmed.starts_with('[') {
                in_deps = trimmed == "[dependencies]";
                continue;
            }
            if !in_deps {
                continue;
            }
            // `aimq-catalog = { workspace = true }` and the dotted form
            // `aimq-catalog.workspace = true` both key on the package.
            let Some(key) = trimmed
                .split('=')
                .next()
                .and_then(|k| k.split('.').next())
                .map(str::trim)
            else {
                continue;
            };
            let Some(dep_dir) = dir_of(key) else {
                continue; // not an aimq crate (std-only workspace anyway)
            };
            declared.insert(dep_dir.clone());
            let Some(allowed) = allowed else { continue };
            if allowed.contains(&dep_dir.as_str()) {
                continue;
            }
            match toml_allow(line) {
                Some(Ok(())) => {}
                Some(Err(msg)) => info.findings.push(ManifestFinding {
                    path: rel.clone(),
                    line: lineno + 1,
                    message: msg,
                    snippet: line.trim_end().to_string(),
                    help: "",
                    rule: "lint-allow",
                }),
                None => info.findings.push(ManifestFinding {
                    path: rel.clone(),
                    line: lineno + 1,
                    message: format!(
                        "crate `{name}` declares a dependency on `{key}`, above it in the \
                         crate DAG"
                    ),
                    snippet: line.trim_end().to_string(),
                    help: LAYER_HELP,
                    rule: "layering",
                }),
            }
        }
    }
    Ok(info)
}

/// Check source imports against the DAG and the declared dependency
/// sets. `files` pairs (file index, owning crate dir, facts); findings
/// come back with the file index so the caller can apply that file's
/// line suppressions.
pub fn check_imports(
    files: &[(usize, &str, &FileAnalysis)],
    declared: &BTreeMap<String, BTreeSet<String>>,
) -> Vec<(usize, Finding)> {
    let mut findings = Vec::new();
    for (idx, crate_dir, analysis) in files {
        let Some(allowed) = allowed_for(crate_dir) else {
            continue;
        };
        for import in &analysis.imports {
            let Some(dep_dir) = dir_of(&import.lib) else {
                continue;
            };
            if dep_dir == *crate_dir {
                continue;
            }
            let is_declared = declared
                .get(*crate_dir)
                .is_some_and(|d| d.contains(&dep_dir));
            if !allowed.contains(&dep_dir.as_str()) {
                findings.push((
                    *idx,
                    Finding {
                        rule: "layering",
                        severity: Severity::Error,
                        line: import.line,
                        col: import.col,
                        message: format!(
                            "crate `{crate_dir}` imports `{}`, above it in the crate DAG",
                            import.lib
                        ),
                        help: LAYER_HELP,
                    },
                ));
            } else if !is_declared {
                findings.push((
                    *idx,
                    Finding {
                        rule: "layering",
                        severity: Severity::Error,
                        line: import.line,
                        col: import.col,
                        message: format!(
                            "crate `{crate_dir}` imports `{}` but its Cargo.toml does not \
                             declare that dependency",
                            import.lib
                        ),
                        help: LAYER_HELP,
                    },
                ));
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan;
    use crate::structure::analyze;

    #[test]
    fn dir_mapping_handles_the_core_alias() {
        assert_eq!(dir_of("aimq").as_deref(), Some("core"));
        assert_eq!(dir_of("aimq-storage").as_deref(), Some("storage"));
        assert_eq!(dir_of("aimq_storage").as_deref(), Some("storage"));
        assert_eq!(dir_of("serde"), None);
    }

    #[test]
    fn toml_allow_requires_layering_and_justification() {
        assert!(toml_allow("aimq-serve = {} # aimq-lint: allow(layering) -- test-only").is_some());
        assert_eq!(
            toml_allow("aimq-serve = {} # aimq-lint: allow(layering) -- test-only"),
            Some(Ok(()))
        );
        assert!(matches!(
            toml_allow("aimq-serve = {} # aimq-lint: allow(layering)"),
            Some(Err(_))
        ));
        assert!(matches!(
            toml_allow("aimq-serve = {} # aimq-lint: allow(indexing) -- nope"),
            Some(Err(_))
        ));
        assert_eq!(toml_allow("aimq-serve = { path = \"../serve\" }"), None);
    }

    #[test]
    fn upward_import_is_flagged_and_downward_is_clean() {
        let up = analyze(&scan("use aimq_serve::QueryServer;\n"));
        let down = analyze(&scan("use aimq_catalog::Attribute;\n"));
        let mut declared = BTreeMap::new();
        declared.insert(
            "storage".to_string(),
            ["catalog".to_string(), "serve".to_string()]
                .into_iter()
                .collect::<BTreeSet<_>>(),
        );
        let files = vec![(0usize, "storage", &up), (1usize, "storage", &down)];
        let findings = check_imports(&files, &declared);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].0, 0);
        assert!(findings[0].1.message.contains("above it in the crate DAG"));
    }

    #[test]
    fn undeclared_lateral_import_is_flagged() {
        let lateral = analyze(&scan("use aimq_catalog::Attribute;\n"));
        let declared = BTreeMap::new(); // nothing declared
        let files = vec![(0usize, "storage", &lateral)];
        let findings = check_imports(&files, &declared);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].1.message.contains("does not declare"));
    }
}

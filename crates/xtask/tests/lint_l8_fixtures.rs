//! End-to-end runs of the L8 probe-effect rule over workspace-shaped
//! fixture trees under `tests/fixtures/lint/`. Each violation fixture
//! has a passing twin in which every finding is either fixed outright
//! or suppressed with a justified `aimq-lint: allow(...)`.

use std::path::{Path, PathBuf};

use xtask::{lint_root, LintReport, Severity};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/lint")
        .join(name)
}

fn lint(name: &str) -> LintReport {
    lint_root(&fixture(name)).unwrap_or_else(|e| panic!("linting fixture `{name}`: {e}"))
}

fn errors(report: &LintReport) -> Vec<(&str, &str)> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| (d.rule.as_str(), d.message.as_str()))
        .collect()
}

fn assert_clean(name: &str) {
    let report = lint(name);
    assert_eq!(
        report.errors(),
        0,
        "suppressed twin `{name}` must be clean: {:#?}",
        report.diagnostics
    );
}

#[test]
fn l8_transitive_probe_in_probe_free_crate_is_detected() {
    let report = lint("l8_probe_in_sim");
    let errs = errors(&report);
    assert_eq!(errs.len(), 2, "{:#?}", report.diagnostics);
    assert!(errs.iter().all(|(rule, _)| *rule == "probe-effect"));
    // The transitive case must carry the witness chain, not just a verdict.
    assert!(
        errs.iter()
            .any(|(_, msg)| msg.contains("`estimate` → `refresh` → `try_query`")),
        "{:#?}",
        report.diagnostics
    );
    assert!(errs
        .iter()
        .all(|(_, msg)| msg.contains("probe-free crate `sim`")));
}

#[test]
fn l8_probe_in_sim_suppressed_twin_is_clean() {
    assert_clean("l8_probe_in_sim_allow");
}

#[test]
fn l8_indirect_probe_under_live_guard_is_detected() {
    let report = lint("l8_guard");
    let errs = errors(&report);
    assert_eq!(errs.len(), 1, "{:#?}", report.diagnostics);
    assert_eq!(errs[0].0, "probe-effect");
    assert!(
        errs[0].1.contains("may probe the source") && errs[0].1.contains("`memo-state`"),
        "{:#?}",
        report.diagnostics
    );
}

#[test]
fn l8_guard_suppressed_twin_is_clean() {
    assert_clean("l8_guard_allow");
}

#[test]
fn l8_unannotated_entry_and_stale_annotation_are_detected() {
    let report = lint("l8_entry");
    let errs = errors(&report);
    assert_eq!(errs.len(), 3, "{:#?}", report.diagnostics);
    assert!(errs.iter().all(|(rule, _)| *rule == "probe-effect"));
    for callee in ["try_query", "try_query_plan"] {
        let message = format!("calls `{callee}` directly but is not annotated");
        assert!(
            errs.iter().any(|(_, msg)| msg.contains(&message)),
            "{:#?}",
            report.diagnostics
        );
    }
    assert!(errs
        .iter()
        .any(|(_, msg)| msg.contains("stale `aimq-probe: entry` annotation")));
}

#[test]
fn l8_entry_annotated_twin_is_clean() {
    assert_clean("l8_entry_allow");
}

#[test]
fn explain_covers_the_effect_rule() {
    let info = xtask::rule_info("probe-effect").expect("`--explain probe-effect` must resolve");
    assert_eq!(info.id, "probe-effect");
    assert!(!info.summary.is_empty() && !info.rationale.is_empty() && !info.remedy.is_empty());
}

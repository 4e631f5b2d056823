//! Drives `cargo xtask lint` (via the `xtask` library) against the
//! fixture trees under `tests/fixtures/lint/`. Each seeded tree plants
//! exactly one kind of violation; the clean tree must pass outright.
//!
//! The fixtures are workspace-shaped (`<root>/crates/<name>/src/*.rs`)
//! so `lint_root` applies the same crate-scoped rule selection it uses
//! on the real repo: `catalog` and `afd` get the float-ordering and
//! indexing rules.
//!
//! Panic-freedom, the hash-container ban and the wall-clock ban are
//! clippy's. Their cases live in the compilable fixture at
//! `tests/fixtures/clippy/` (run by CI's `check` job); the tests here
//! pin their scope: which crate roots deny which lints, and what the
//! root `clippy.toml` bans.

use std::path::{Path, PathBuf};

use xtask::{lint_file, lint_root, LintReport, Severity, PANIC_CRATES};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/lint")
        .join(name)
}

fn lint(name: &str) -> LintReport {
    lint_root(&fixture(name)).unwrap_or_else(|e| panic!("linting fixture `{name}`: {e}"))
}

fn rules_of(report: &LintReport, severity: Severity) -> Vec<&str> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.severity == severity)
        .map(|d| d.rule.as_str())
        .collect()
}

#[test]
fn clean_fixture_passes() {
    let report = lint("clean");
    assert_eq!(
        report.errors(),
        0,
        "clean tree must produce no errors: {:#?}",
        report.diagnostics
    );
    assert_eq!(
        report.warnings(),
        0,
        "clean tree must produce no warnings: {:#?}",
        report.diagnostics
    );
    assert!(!report.failed(false));
    assert!(!report.failed(true), "clean even under --deny-warnings");
}

#[test]
fn float_ordering_fixture_fails_with_float_rule() {
    let report = lint("float_ordering");
    assert!(report.failed(false));
    assert_eq!(rules_of(&report, Severity::Error), vec!["float-ordering"]);
    // The `.unwrap_or(...)` on the same expression trips nothing else:
    // the NaN-unsafe comparison is the one error.
    assert_eq!(report.errors(), 1, "{:#?}", report.diagnostics);
}

/// The six clippy lints behind panic-freedom, denied at every library
/// crate root.
const PANIC_LINTS: [&str; 6] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
];

/// The two lints that enforce the root `clippy.toml` bans.
const DETERMINISM_LINTS: [&str; 2] = ["clippy::disallowed_methods", "clippy::disallowed_types"];

/// Crates whose outputs feed sorted or replayed results. `catalog`
/// (`Schema::by_name` is a `HashMap`) and `http` (sockets and load
/// pacing run on real time) stay outside.
const DETERMINISM_SCOPE: [&str; 6] = ["afd", "sim", "rock", "core", "serve", "storage"];

fn read_repo_file(rel: &str) -> String {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(rel))
        .unwrap_or_else(|e| panic!("reading `{rel}`: {e}"))
}

/// Every lint named in a `#![deny(...)]` at the crate root.
fn root_denies(crate_name: &str) -> Vec<String> {
    let text = read_repo_file(&format!("crates/{crate_name}/src/lib.rs"));
    text.split("#![deny(")
        .skip(1)
        .filter_map(|chunk| chunk.split(")]").next())
        .flat_map(|body| body.split(','))
        .map(|lint| lint.trim().to_string())
        .filter(|lint| !lint.is_empty())
        .collect()
}

#[test]
fn library_crate_roots_deny_the_panic_and_determinism_lints() {
    assert_eq!(PANIC_CRATES.len(), 8, "{PANIC_CRATES:?}");
    for crate_name in DETERMINISM_SCOPE {
        assert!(
            PANIC_CRATES.contains(&crate_name),
            "`{crate_name}` is determinism-scoped but not a library crate"
        );
    }
    for crate_name in PANIC_CRATES {
        let denies = root_denies(crate_name);
        for lint in PANIC_LINTS {
            assert!(
                denies.iter().any(|d| d == lint),
                "crates/{crate_name}/src/lib.rs must deny `{lint}`: {denies:?}"
            );
        }
        let in_scope = DETERMINISM_SCOPE.contains(crate_name);
        for lint in DETERMINISM_LINTS {
            assert_eq!(
                denies.iter().any(|d| d == lint),
                in_scope,
                "crates/{crate_name}/src/lib.rs: `{lint}` must be denied exactly in the \
                 determinism crates {DETERMINISM_SCOPE:?}: {denies:?}"
            );
        }
    }
}

#[test]
fn clippy_toml_bans_the_wall_clock_and_hash_containers() {
    let toml = read_repo_file("clippy.toml");
    let list = |key: &str| -> String {
        let start = toml
            .find(&format!("{key} = ["))
            .unwrap_or_else(|| panic!("clippy.toml has no `{key}` list"));
        let rest = &toml[start..];
        rest[..rest.find("\n]").unwrap_or(rest.len())].to_string()
    };
    let methods = list("disallowed-methods");
    for path in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::time::Instant::elapsed",
        "std::time::SystemTime::elapsed",
        "std::thread::sleep",
    ] {
        assert!(
            methods.contains(&format!("path = \"{path}\"")),
            "clippy.toml must ban `{path}`: {methods}"
        );
    }
    let types = list("disallowed-types");
    for path in ["std::collections::HashMap", "std::collections::HashSet"] {
        assert!(
            types.contains(&format!("path = \"{path}\"")),
            "clippy.toml must ban `{path}`: {types}"
        );
    }
    for key in [
        "allow-unwrap-in-tests",
        "allow-expect-in-tests",
        "allow-panic-in-tests",
    ] {
        assert!(
            toml.lines().any(|l| l.trim() == format!("{key} = true")),
            "clippy.toml must set `{key} = true`"
        );
    }
}

#[test]
fn retired_rule_allows_are_rejected_as_unknown() {
    // `panic`, `hashmap` and `wallclock` moved to clippy. A leftover
    // directive naming them suppresses nothing, so it must fail the run
    // rather than pass for a working suppression.
    let retired = ["panic", "hashmap", "wallclock"];
    let src: String = retired
        .iter()
        .map(|rule| format!("// aimq-lint: allow({rule}) -- leftover\nfn {rule}_site() {{}}\n"))
        .collect();
    let mut report = LintReport::default();
    lint_file(&src, Path::new("crates/afd/src/x.rs"), &mut report);
    assert_eq!(report.errors(), retired.len(), "{:#?}", report.diagnostics);
    for rule in retired {
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.rule == "lint-allow"
                    && d.message.contains(&format!("unknown rule `{rule}`"))),
            "`allow({rule})` must be an unknown-rule error: {:#?}",
            report.diagnostics
        );
        assert!(
            xtask::rule_info(rule).is_none(),
            "`--explain {rule}` must fail"
        );
    }
}

#[test]
fn bad_allow_fixture_rejects_malformed_directives() {
    let report = lint("bad_allow");
    assert!(report.failed(false));
    let errors = rules_of(&report, Severity::Error);
    // One unjustified allow + one unknown-rule allow, and since neither
    // directive is well-formed-and-matching, both indexings still fire.
    assert_eq!(errors, vec!["lint-allow"; 2], "{:#?}", report.diagnostics);
    assert_eq!(
        rules_of(&report, Severity::Warning),
        vec!["indexing"; 2],
        "malformed allows must not suppress the violation they sit on: {:#?}",
        report.diagnostics
    );
    let messages: Vec<&str> = report
        .diagnostics
        .iter()
        .map(|d| d.message.as_str())
        .collect();
    assert!(
        messages.iter().any(|m| m.contains("justification")),
        "{messages:#?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("unknown rule `indexng`")),
        "{messages:#?}"
    );
}

#[test]
fn real_workspace_is_lint_clean() {
    // The repo itself must satisfy its own invariants with zero
    // unsuppressed findings — CI runs `--deny-warnings`, so warn-level
    // `indexing` sites must each carry a justified allow.
    let report = lint_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("lint workspace");
    assert!(
        report.diagnostics.is_empty(),
        "workspace lint findings: {:#?}",
        report.diagnostics
    );
    assert!(!report.failed(true));
}

#[test]
fn checked_in_wire_schema_inventory_is_current() {
    // `results/WIRE_SCHEMA.json` is the reviewed wire contract; a new
    // or renamed JSON key must show up in the diff of that file, never
    // slide onto the wire silently. Regenerate with
    // `cargo xtask pin --write` (or `wire --write`).
    let rendered =
        xtask::wire_inventory(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("scan workspace");
    let checked_in = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("results/WIRE_SCHEMA.json"),
    )
    .expect("results/WIRE_SCHEMA.json exists");
    assert_eq!(
        checked_in, rendered,
        "wire schema drifted; regenerate with `cargo xtask pin --write` \
         and review the diff"
    );
}

#[test]
fn probe_free_crates_have_empty_probing_sets() {
    // The L8 fixpoint is the proof: `afd`, `sim`, `rock` and `catalog`
    // are pure in-memory layers, and no function in them may reach
    // `WebDatabase::try_query` — not even transitively through storage
    // helpers. An empty set here is a workspace invariant, not luck.
    let summary =
        xtask::probe_summary(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("scan workspace");
    for crate_name in ["afd", "catalog", "rock", "sim"] {
        let probing = summary
            .probing_by_crate
            .get(crate_name)
            .map(|fns| fns.iter().cloned().collect::<Vec<_>>())
            .unwrap_or_default();
        assert!(
            probing.is_empty(),
            "crate `{crate_name}` must stay probe-free, but these functions \
             can reach `try_query`: {probing:?}"
        );
    }
}

#[test]
fn checked_in_probe_entrypoint_list_is_current() {
    // `results/PROBE_ENTRYPOINTS.txt` is the reviewed probing surface;
    // a new probe path must show up in the diff of that file, never
    // slide in silently. Regenerate with `cargo xtask probes`.
    let summary =
        xtask::probe_summary(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("scan workspace");
    let rendered: String = summary
        .entries
        .iter()
        .map(|e| format!("{} {}\n", e.path.display(), e.fn_name))
        .collect();
    let checked_in = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("results/PROBE_ENTRYPOINTS.txt"),
    )
    .expect("results/PROBE_ENTRYPOINTS.txt exists");
    assert_eq!(
        checked_in, rendered,
        "probing surface drifted; regenerate with `cargo xtask probes > \
         results/PROBE_ENTRYPOINTS.txt` and review the diff"
    );
}

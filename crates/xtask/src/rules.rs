//! The AIMQ lint rules, matched over a [`ScannedFile`].
//!
//! | id | severity | scope | what it catches |
//! |---|---|---|---|
//! | `indexing` | warning | eight library crates | direct `expr[...]` indexing/slicing |
//! | `float-ordering` | error | eight library crates | `.partial_cmp(` calls on scores |
//! | `lock-discipline` | error | eight library crates | unannotated lock fields, unresolvable/nested acquisitions that close ordering cycles, guards held across blocking calls |
//! | `layering` | error | all aimq crates | upward or undeclared cross-crate dependencies and imports |
//! | `probe-effect` | error | all aimq crates | inferred probing paths in probe-free crates, probes under a live guard, unannotated or stale probing entry points |
//! | `wire-drift` | error | all aimq crates | stale `results/WIRE_SCHEMA.json`, duplicate JSON keys, unannotated conditional keys in `to_json` bodies |
//! | `error-surface` | error | all aimq crates | fault-enum variants never named at the HTTP boundary, machine codes missing from (or drifted against) the DESIGN.md status-code table |
//! | `degradation-flow` | error | all aimq crates | constructed fault-enum values that never reach a sink (return, `?`, call/recorder, tail position) |
//! | `lint-allow` | error | everywhere linted | malformed, unjustified, or unknown-rule suppression directives |
//!
//! Panic-freedom (L1), the hash-container ban (L3) and the wall-clock
//! ban (L4) are clippy's: the library crate roots deny the panic lints
//! and `clippy::disallowed_{methods,types}` against the workspace
//! `clippy.toml`, and exceptions carry `#[expect(…, reason = "…")]`.
//! Atomics (L6) and counter arithmetic (L10) are types:
//! `aimq_storage::{Counter, Flag, StatsCell}` fix the memory orderings,
//! `clippy.toml` bans the raw atomic types, and tallies are
//! `std::num::Saturating`. Result discipline (L9) is rustc's
//! `unused_must_use` plus clippy's `let_underscore_must_use`,
//! `unused_result_ok` and `wildcard_enum_match_arm`, denied in
//! `[workspace.lints]`. Two rules stay lexical here because clippy does
//! not cover them:
//! `clippy::indexing_slicing` skips `BTreeMap[&k]`, which panics on a
//! missing key, and banning `PartialOrd::partial_cmp` through
//! `disallowed-methods` fires inside every `#[derive(PartialOrd)]`.
//!
//! `indexing` is warn-level by default — mirroring clippy's
//! allow-by-default `indexing_slicing` — because invariant-backed
//! indexing is pervasive in the hot paths; `--deny-warnings` promotes
//! it for audits.
//!
//! The structure-aware L5 `lock-discipline` lives in
//! [`crate::concurrency`] (facts from [`crate::structure`]); L7
//! `layering` lives in [`crate::layering`].
//! They are listed here so suppression, `--explain`, and the doc table
//! stay in one registry.

use crate::source::ScannedFile;

/// Lint severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the run.
    Error,
    /// Reported; fails only under `--deny-warnings`.
    Warning,
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier as used in `aimq-lint: allow(...)`.
    pub rule: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable description.
    pub message: String,
    /// Suggested remedy, rendered as a `help:` note.
    pub help: &'static str,
}

/// Keywords that can legitimately precede `[` without it being an
/// indexing expression (slice patterns, `for x in [..]`, etc.).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "match", "if", "while", "return", "mut", "ref", "move", "else", "static", "const",
    "as", "dyn", "impl", "where", "for", "loop", "break", "use", "pub", "fn", "enum", "struct",
    "type", "trait", "unsafe", "extern", "box", "await", "yield",
];

/// Run the per-file token rules over `file`, honoring test regions and
/// suppressions. Suppressed findings are dropped; malformed directives
/// surface as `lint-allow` errors from [`crate::lint_file`].
pub fn check(file: &ScannedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let toks = &file.tokens;
    for k in 0..toks.len() {
        if file.in_test_region(toks[k].offset) {
            continue;
        }
        let t = &toks[k];
        let prev = k.checked_sub(1).map(|p| &toks[p]);
        let next = toks.get(k + 1);

        // `.partial_cmp(` — NaN-unsafe comparison on similarity /
        // importance scores.
        if t.text == "partial_cmp"
            && prev.is_some_and(|p| p.text == ".")
            && next.is_some_and(|n| n.text == "(")
        {
            findings.push(Finding {
                rule: "float-ordering",
                severity: Severity::Error,
                line: t.line,
                col: t.col,
                message: "`.partial_cmp()` on scores is NaN-unsafe and breaks total ranking"
                    .to_string(),
                help: "use `f64::total_cmp`, `aimq_catalog::OrderedScore`, or justify with \
                       `// aimq-lint: allow(float-ordering) -- <why NaN cannot occur>`",
            });
        }
        // Direct indexing `expr[...]` (warn-level). A lifetime ident
        // before the bracket (`&'a [u8]`) is a slice type, not an
        // indexing expression.
        if t.text == "["
            && prev.is_some_and(|p| {
                (p.is_ident && !NON_INDEX_KEYWORDS.contains(&p.text.as_str()))
                    || p.text == ")"
                    || p.text == "]"
            })
            && !(prev.is_some_and(|p| p.is_ident)
                && k.checked_sub(2).is_some_and(|p2| toks[p2].text == "'"))
        {
            findings.push(Finding {
                rule: "indexing",
                severity: Severity::Warning,
                line: t.line,
                col: t.col,
                message: "direct indexing can panic on out-of-range input".to_string(),
                help: "prefer `.get()`/`.get_mut()` with error propagation where the index \
                       is not invariant-backed",
            });
        }
    }
    findings
}

/// Every rule id accepted inside `aimq-lint: allow(...)`.
pub const KNOWN_RULES: &[&str] = &[
    "indexing",
    "float-ordering",
    "lock-discipline",
    "layering",
    "probe-effect",
    "wire-drift",
    "error-surface",
    "degradation-flow",
];

/// One registry entry backing `cargo xtask lint --explain <rule>` and
/// the doc-drift self-test over the module-doc table above.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule id as it appears in findings and `allow(...)` lists.
    pub id: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line description (what it catches).
    pub summary: &'static str,
    /// Why the rule exists in this workspace.
    pub rationale: &'static str,
    /// How to fix or justify a finding.
    pub remedy: &'static str,
}

/// The full rule registry: every id that can appear in a diagnostic,
/// including the `lint-allow` meta-rule for malformed suppressions.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "indexing",
        severity: Severity::Warning,
        summary: "direct `expr[...]` indexing or slicing",
        rationale: "out-of-range indexing panics; most AIMQ hot paths index by invariant \
                    (attribute counts fixed at catalog build), so this stays warn-level, but \
                    audits promote it with --deny-warnings.",
        remedy: "prefer `.get()`/`.get_mut()` with error propagation where the index is not \
                 invariant-backed.",
    },
    RuleInfo {
        id: "float-ordering",
        severity: Severity::Error,
        summary: "`.partial_cmp(` on similarity/importance scores",
        rationale: "NaN makes `partial_cmp` return None, and `unwrap_or(Equal)` silently \
                    reshuffles rankings — the paper's whole output is a ranked list, so \
                    ordering must be total.",
        remedy: "use `f64::total_cmp` or `aimq_catalog::OrderedScore`; justify exceptions \
                 with `// aimq-lint: allow(float-ordering) -- <why NaN cannot occur>`.",
    },
    RuleInfo {
        id: "lock-discipline",
        severity: Severity::Error,
        summary: "lock fields without a family, unresolvable or cycle-closing acquisitions, \
                  and guards held across blocking calls",
        rationale: "the concurrent runtime shares striped caches, admission queues, and \
                    breaker state across workers; deadlocks from inconsistent acquisition \
                    order or probes under a guard only surface under load, so the ordering \
                    graph is checked statically across the whole workspace.",
        remedy: "declare `// aimq-lock: family(<name>) -- <why>` on each owned Mutex, mark \
                 indirect acquisitions with `// aimq-lock: use(<name>)`, keep one global \
                 acquisition order, and scope guards so they drop before blocking calls.",
    },
    RuleInfo {
        id: "layering",
        severity: Severity::Error,
        summary: "cross-crate dependencies or imports that go up the crate DAG, or that \
                  Cargo.toml never declared",
        rationale: "the workspace layers catalog → storage → {afd, sim} → rock → core → \
                    serve → {http, cli, eval, bench}; an upward import (storage reaching \
                    into serve, or serve reaching into http) couples probe plumbing to \
                    policy and blocks reuse of the lower layers.",
        remedy: "move the shared type down (usually into catalog or storage), or justify \
                 with `# aimq-lint: allow(layering) -- <why>` on the Cargo.toml line / \
                 `// aimq-lint: allow(layering) -- <why>` on the import.",
    },
    RuleInfo {
        id: "probe-effect",
        severity: Severity::Error,
        summary: "inferred probing paths in probe-free crates, probes made under a live lock \
                  guard, and unannotated or stale probing entry points",
        rationale: "every probe to an autonomous source must flow through the budgeted, \
                    degradation-aware `WebDatabase::try_query` / `try_query_plan` boundary; \
                    the mining and statistics crates assume a consistent source snapshot, so \
                    a call chain \
                    from `afd`/`sim`/`rock`/`catalog` to the boundary — inferred by a \
                    workspace may-call fixpoint — breaks the paper's sampling model, and a \
                    probe under a lock guard serializes every worker behind source latency.",
        remedy: "route source I/O through the storage layer; annotate each direct boundary \
                 caller with `// aimq-probe: entry -- <where budget accounting lives>`; drop \
                 guards before probing; justify residues with \
                 `// aimq-lint: allow(probe-effect) -- <why>`.",
    },
    RuleInfo {
        id: "wire-drift",
        severity: Severity::Error,
        summary: "stale `results/WIRE_SCHEMA.json`, duplicate keys in one JSON object \
                  literal, and keys emitted under conditionals without an \
                  `aimq-wire: optional` annotation",
        rationale: "clients of the HTTP front door parse the JSON the `to_json()` impls \
                    emit; a renamed key, a duplicated key whose survivor is an accident of \
                    construction order, or a key that silently disappears in one match arm \
                    all compile clean — the pinned schema inventory turns each into a lint \
                    failure with a reviewable diff.",
        remedy: "regenerate the inventory with `cargo xtask pin --write` (or `wire \
                 --write`) and commit the diff; rename/remove duplicate keys; annotate \
                 intentionally conditional keys with `// aimq-wire: optional -- <when \
                 clients see the key absent>`.",
    },
    RuleInfo {
        id: "error-surface",
        severity: Severity::Error,
        summary: "fault-enum variants never named at the HTTP mapping boundary, and \
                  `Response::error` machine codes that drift from the DESIGN.md \
                  status-code table",
        rationale: "the fault taxonomy is only explainable if every variant has a decided \
                    wire mapping and every machine code clients can see is documented with \
                    its status; a rewritten match that absorbs a variant, or an ad-hoc \
                    code invented at one call site, silently changes the public error \
                    surface.",
        remedy: "name every watched variant as `Enum::Variant` in the http crate's \
                 mapping code, pass machine codes as string literals, and keep the \
                 DESIGN.md `| machine code | status |` table in sync (add new codes, \
                 delete stale rows).",
    },
    RuleInfo {
        id: "degradation-flow",
        severity: Severity::Error,
        summary: "constructed fault-enum values (`QueryError`, `ProbeError`, \
                  `ServeError`) that never reach a sink",
        rationale: "the paper's degradation accounting treats the explanation as part of \
                    the answer; a fault value built and then dropped is a probe failure \
                    the `DegradationReport` never hears about, and it compiles clean \
                    because dropping a value is not an error in Rust.",
        remedy: "return or `?`-raise the value, pass it into a recorder \
                 (`AccessStats`, `DegradationReport`) or any call, or annotate \
                 `// aimq-fault: sink -- <where the accounting lives>` when the sink is \
                 real but invisible to the lexical pass.",
    },
    RuleInfo {
        id: "lint-allow",
        severity: Severity::Error,
        summary: "malformed, unjustified, or unknown-rule suppression directives",
        rationale: "an allow without a justification is indistinguishable from a shrug, and \
                    an allow naming a rule that does not exist suppresses nothing while \
                    looking load-bearing.",
        remedy: "write `// aimq-lint: allow(<known-rule>) -- <justification>` with a \
                 non-empty justification after the `--`.",
    },
];

/// Look up a rule by id (for `--explain`).
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan;

    fn rules_hit(src: &str) -> Vec<&'static str> {
        check(&scan(src)).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn partial_cmp_call_is_flagged_but_definition_is_not() {
        assert_eq!(
            rules_hit("fn f() { a.partial_cmp(&b); }"),
            vec!["float-ordering"]
        );
        assert!(rules_hit("fn partial_cmp(a: f64) {}").is_empty());
    }

    #[test]
    fn indexing_is_a_warning() {
        let f = check(&scan("fn f() { let y = xs[0]; }"));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "indexing");
        assert_eq!(f[0].severity, Severity::Warning);
    }

    #[test]
    fn slice_patterns_and_array_types_are_not_indexing() {
        assert!(rules_hit("fn f(xs: [f64; 3]) { let [a, b, c] = xs; }").is_empty());
        assert!(rules_hit("fn f() { for x in [1, 2] {} }").is_empty());
        assert!(rules_hit("fn f() { let v = vec![1, 2]; }").is_empty());
        // Slice types behind a lifetime are types, not indexing.
        assert!(rules_hit("fn f<'a>(buf: &'a [u8]) -> &'a [u8] { buf }").is_empty());
    }

    #[test]
    fn registry_covers_known_rules_and_doc_table() {
        // Every suppressible rule has a registry entry, and the
        // registry's extra ids are exactly the non-suppressible
        // meta-rules.
        for id in KNOWN_RULES {
            assert!(
                rule_info(id).is_some(),
                "KNOWN_RULES id `{id}` not in RULES"
            );
        }
        let extra: Vec<&str> = RULES
            .iter()
            .map(|r| r.id)
            .filter(|id| !KNOWN_RULES.contains(id))
            .collect();
        assert_eq!(extra, vec!["lint-allow"], "unexpected registry-only rules");
        // Doc-drift guard: the module-doc table lists every registered
        // rule id as a `| `id` |` row.
        let doc = include_str!("rules.rs");
        for rule in RULES {
            let row = format!("//! | `{}` |", rule.id);
            assert!(
                doc.contains(&row),
                "rules.rs module-doc table is missing a row for `{}`",
                rule.id
            );
        }
    }

    #[test]
    fn test_module_code_is_exempt() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let y = xs[0]; }\n}";
        assert!(rules_hit(src).is_empty());
    }
}

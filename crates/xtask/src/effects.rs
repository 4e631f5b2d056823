//! L8 `probe-effect`, L9 `result-discipline` and L10 `counter-arith`.
//!
//! **L8** infers, via a boolean reachability fixpoint over the shared
//! [`crate::callgraph`], the set of functions that can transitively
//! reach the `WebDatabase::try_query` / `try_query_plan` boundary
//! ("probing" functions). Three findings follow: a probing path
//! anywhere in the probe-free crates ([`PROBE_FREE_CRATES`]), a probing
//! call made while a lock guard is live (composing with the L5 scope
//! tracker; direct blocking calls stay L5's), and a function that calls
//! `try_query` or `try_query_plan` directly without an
//! `// aimq-probe: entry -- <why>` annotation. Stale annotations —
//! pointing at a function that no longer probes — are errors too, so
//! the annotated entry-point list stays exact.
//!
//! **L9** bans silently discarded fallible results in non-test code:
//! `let _ = ...;` and terminal `.ok();` unconditionally (both erase an
//! error no matter its type), bare call statements whose callee's
//! signature carries one of the workspace fault enums
//! ([`FAULT_ERRORS`]), and wildcard `_ =>` arms inside matches that
//! mention those enums (a new fault variant must force a decision, not
//! be absorbed).
//!
//! **L10** audits arithmetic on budget/counter/statistic integers: any
//! field annotated `aimq-atomic: counter` or `aimq-arith: counter`
//! becomes *tracked in its declaring file*, and a plain `+`/`-`/`*`
//! (or `+=`/`-=`/`*=`) in a statement touching a tracked name is an
//! error — wrap-around in a release build corrupts budgets silently.
//! The escape is `// aimq-arith: allow -- <invariant>` on the site.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CallGraph, CALLEE_BLOCKLIST};
use crate::rules::{Finding, Severity};
use crate::source::{ArithAnnotation, AtomicRole, ScannedFile, Token};
use crate::structure::{FileAnalysis, BLOCKING_CALLS};

/// Crates that must never reach the probing boundary: mining and
/// statistics passes assume a consistent snapshot of the source, so
/// all source I/O flows through `storage` (sampling, caching, budget
/// accounting) before they see it.
pub const PROBE_FREE_CRATES: &[&str] = &["afd", "catalog", "rock", "sim"];

/// Error enums whose silent disposal L9 forbids.
pub const FAULT_ERRORS: &[&str] = &["QueryError", "ProbeError", "ServeError"];

/// The probing boundary callees: a single probe and a whole plan.
const PROBE_TARGETS: &[&str] = &["try_query", "try_query_plan"];

const PROBE_FREE_HELP: &str =
    "mining/similarity crates must stay probe-free: route source I/O through the storage \
     boundary (sampler/cache) instead, or justify with \
     `// aimq-lint: allow(probe-effect) -- <why>` on the `fn` line";

const GUARD_HELP: &str =
    "a probe can spend unbounded retry/deadline time; drop (or scope) the guard before the \
     probing call, or justify with `// aimq-lint: allow(probe-effect) -- <why the wait is \
     bounded>`";

const ENTRY_HELP: &str =
    "annotate with `// aimq-probe: entry -- <where budget/degradation accounting lives>` on \
     the `fn` line, or route the probe through an existing annotated entry point";

const STALE_HELP: &str =
    "remove the stale annotation, or re-point it at the `fn` line that calls `try_query` \
     directly";

const RESULT_HELP: &str =
    "handle or propagate the error (`?`, `match`, `if let Err`), or justify with \
     `// aimq-lint: allow(result-discipline) -- <why ignoring this error is sound>`";

const WILDCARD_HELP: &str =
    "name every variant (or bind `other` and handle it) so a new fault variant forces a \
     decision here; justify with `// aimq-lint: allow(result-discipline) -- <why>` if \
     absorption is intended";

const ARITH_HELP: &str = "use `saturating_*`/`checked_*` arithmetic, or justify with \
     `// aimq-arith: allow -- <invariant bounding the operands>` on the site";

/// One file's inputs to the workspace effects pass.
pub struct EffectsFile<'a> {
    /// Index the caller uses to map findings back to the file.
    pub idx: usize,
    /// Owning crate (directory name under `crates/`).
    pub crate_name: &'a str,
    /// Lexical scan (tokens, test regions, directives).
    pub scanned: &'a ScannedFile,
    /// Structural facts (functions, fields, held calls).
    pub analysis: &'a FileAnalysis,
}

/// A sanctioned (or to-be-sanctioned) probing entry point: a non-test
/// function that calls `try_query` directly.
#[derive(Debug, Clone)]
pub struct ProbeEntry {
    /// File index (same space as [`EffectsFile::idx`]).
    pub idx: usize,
    /// Function name.
    pub fn_name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether an `aimq-probe: entry` annotation covers it.
    pub annotated: bool,
}

/// Output of [`check_workspace`].
#[derive(Debug, Default)]
pub struct EffectsReport {
    /// Findings, tagged with the file index they occur in.
    pub findings: Vec<(usize, Finding)>,
    /// Direct probing entry points outside the probe-free crates.
    pub entries: Vec<ProbeEntry>,
    /// Probing (merged) function names per crate — empty sets for the
    /// probe-free crates is the workspace invariant.
    pub probing_by_crate: BTreeMap<String, BTreeSet<String>>,
}

/// Run L8–L10 over the whole workspace.
pub fn check_workspace(files: &[EffectsFile]) -> EffectsReport {
    let mut report = EffectsReport::default();

    // ---- L8: probe-effect ----
    let graph = CallGraph::build(files.iter().map(|f| f.analysis));
    let targets: BTreeSet<&str> = PROBE_TARGETS.iter().copied().collect();
    let probing = graph.reaches_callee(&targets);
    let chain_of = |name: &str| -> String {
        match graph.witness(name, &targets) {
            Some(chain) => format!("`{}`", chain.join("` → `")),
            None => format!("`{name}`"),
        }
    };

    for file in files {
        let probe_free = PROBE_FREE_CRATES.contains(&file.crate_name);
        let line_starts = line_offsets(&file.scanned.text);
        let mut direct_lines: BTreeSet<usize> = BTreeSet::new();
        for f in &file.analysis.functions {
            let direct = f.calls.iter().find(|c| PROBE_TARGETS.contains(&c.as_str()));
            if direct.is_some() {
                direct_lines.insert(f.line);
            }
            // Taint is judged per *definition*, not per merged name:
            // this definition probes iff one of its own callees reaches
            // the boundary. (Judging by merged name would taint an
            // innocent `rock::answer` because `core::answer` probes.)
            let taint = f.calls.iter().find(|c| {
                !CALLEE_BLOCKLIST.contains(&c.as_str())
                    && (PROBE_TARGETS.contains(&c.as_str()) || probing.contains(c.as_str()))
            });
            report
                .probing_by_crate
                .entry(file.crate_name.to_string())
                .or_default()
                .extend(taint.is_some().then(|| f.name.clone()));
            if probe_free {
                if let Some(callee) = taint {
                    report.findings.push((
                        file.idx,
                        Finding {
                            rule: "probe-effect",
                            severity: Severity::Error,
                            line: f.line,
                            col: 1,
                            message: format!(
                                "`{}` in probe-free crate `{}` can reach the source \
                                 boundary: `{}` → {}",
                                f.name,
                                file.crate_name,
                                f.name,
                                chain_of(callee)
                            ),
                            help: PROBE_FREE_HELP,
                        },
                    ));
                }
            }
            // Probing call while a guard is live. Direct blocking calls
            // (`try_query` itself, `query`, ...) are already L5 findings;
            // this catches probes hidden behind a helper.
            for call in &f.held_calls {
                let callee = call.callee.as_str();
                if BLOCKING_CALLS.contains(&callee)
                    || CALLEE_BLOCKLIST.contains(&callee)
                    || !probing.contains(callee)
                {
                    continue;
                }
                report.findings.push((
                    file.idx,
                    Finding {
                        rule: "probe-effect",
                        severity: Severity::Error,
                        line: call.line,
                        col: call.col,
                        message: format!(
                            "call to `{callee}` may probe the source ({}) while holding \
                             guard(s) of family {} in `{}`",
                            chain_of(callee),
                            call.held
                                .iter()
                                .map(|h| format!("`{h}`"))
                                .collect::<Vec<_>>()
                                .join(", "),
                            f.name
                        ),
                        help: GUARD_HELP,
                    },
                ));
            }
            // Entry-point discipline: a direct boundary call must carry
            // an annotation (pointless in probe-free crates, where the
            // call itself is the error).
            if let (Some(callee), false) = (direct, probe_free) {
                let annotated = file
                    .scanned
                    .probe_directives
                    .iter()
                    .any(|d| d.target_line == f.line);
                if !annotated {
                    report.findings.push((
                        file.idx,
                        Finding {
                            rule: "probe-effect",
                            severity: Severity::Error,
                            line: f.line,
                            col: 1,
                            message: format!(
                                "`{}` calls `{callee}` directly but is not annotated as a \
                                 probing entry point",
                                f.name
                            ),
                            help: ENTRY_HELP,
                        },
                    ));
                }
                report.entries.push(ProbeEntry {
                    idx: file.idx,
                    fn_name: f.name.clone(),
                    line: f.line,
                    annotated,
                });
            }
        }
        report
            .probing_by_crate
            .entry(file.crate_name.to_string())
            .or_default();
        // Stale annotations: every `aimq-probe: entry` must target a
        // non-test `fn` line with a direct boundary call.
        for d in &file.scanned.probe_directives {
            let target_offset = line_starts
                .get(d.target_line.saturating_sub(1))
                .copied()
                .unwrap_or(usize::MAX);
            if file.scanned.in_test_region(target_offset) {
                continue;
            }
            if !direct_lines.contains(&d.target_line) {
                report.findings.push((
                    file.idx,
                    Finding {
                        rule: "probe-effect",
                        severity: Severity::Error,
                        line: d.line,
                        col: 1,
                        message: format!(
                            "stale `aimq-probe: entry` annotation: no function on line {} \
                             calls `try_query` or `try_query_plan` directly",
                            d.target_line
                        ),
                        help: STALE_HELP,
                    },
                ));
            }
        }
    }

    // ---- L9: result-discipline ----
    let faulty = fault_fns(files);
    for file in files {
        check_result_discipline(file, &faulty, &mut report.findings);
    }

    // ---- L10: counter-arith ----
    for file in files {
        check_counter_arith(file, &mut report.findings);
    }

    report
}

/// Byte offset of the start of each 1-based line.
fn line_offsets(text: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// Function names whose signature returns a `Result` carrying one of
/// the workspace fault enums, merged across the whole workspace (trait
/// declarations included — a bodiless `fn try_query(..) -> Result<_,
/// QueryError>;` registers the name).
fn fault_fns(files: &[EffectsFile]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for file in files {
        let toks = &file.scanned.tokens;
        let mut i = 0;
        while i < toks.len() {
            if toks[i].text != "fn" || !toks.get(i + 1).is_some_and(|t| t.is_ident) {
                i += 1;
                continue;
            }
            let name = toks[i + 1].text.clone();
            let mut has_result = false;
            let mut has_fault = false;
            let mut bracket_depth = 0i32;
            let mut j = i + 2;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "[" => bracket_depth += 1,
                    "]" => bracket_depth -= 1,
                    "{" => break,
                    // `;` ends a bodiless trait declaration; inside
                    // `[u8; N]` it is part of an array type.
                    ";" if bracket_depth == 0 => break,
                    "Result" => has_result = true,
                    t if FAULT_ERRORS.contains(&t) => has_fault = true,
                    _ => {}
                }
                j += 1;
            }
            if has_result && has_fault {
                out.insert(name);
            }
            i = j.max(i + 2);
        }
    }
    out
}

/// Tokens that, appearing before a call in its statement, mean the
/// call's result is consumed rather than discarded.
fn consumes_result(text: &str) -> bool {
    matches!(
        text,
        "let" | "=" | "return" | "match" | "if" | "while" | "for" | "?" | "=>" | "&" | "!"
    )
}

fn check_result_discipline(
    file: &EffectsFile,
    faulty: &BTreeSet<String>,
    findings: &mut Vec<(usize, Finding)>,
) {
    let toks = &file.scanned.tokens;
    let in_test = |i: usize| file.scanned.in_test_region(toks[i].offset);
    let mut push = |line: usize, col: usize, message: String, help: &'static str| {
        findings.push((
            file.idx,
            Finding {
                rule: "result-discipline",
                severity: Severity::Error,
                line,
                col,
                message,
                help,
            },
        ));
    };

    for i in 0..toks.len() {
        if in_test(i) {
            continue;
        }
        let t = &toks[i];
        // Form 1: `let _ = ...;` — erases any error, typed or not.
        if t.text == "let"
            && toks.get(i + 1).is_some_and(|n| n.text == "_")
            && toks.get(i + 2).is_some_and(|n| n.text == "=")
        {
            push(
                t.line,
                t.col,
                "`let _ =` silently discards the result — a swallowed error vanishes \
                 without a trace"
                    .to_string(),
                RESULT_HELP,
            );
        }
        // Form 2: terminal `.ok();` — converts the error to `None` and
        // drops it in one move.
        if t.text == "ok"
            && i > 0
            && toks[i - 1].text == "."
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
            && toks.get(i + 2).is_some_and(|n| n.text == ")")
            && toks.get(i + 3).is_some_and(|n| n.text == ";")
        {
            push(
                t.line,
                t.col,
                "terminal `.ok();` silently swallows the error".to_string(),
                RESULT_HELP,
            );
        }
        // Form 3: a bare call statement to a fault-returning function.
        if t.is_ident
            && faulty.contains(&t.text)
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
            && !(i > 0 && toks[i - 1].text == "fn")
        {
            // Close the argument list; the call is a statement only if
            // `;` follows immediately.
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut end = None;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            end = Some(j);
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if let Some(end) = end {
                if toks.get(end + 1).is_some_and(|n| n.text == ";") {
                    // Backward to the statement floor: any consuming
                    // token means the result is used.
                    let mut k = i;
                    let mut discarded = true;
                    while k > 0 {
                        let prev = &toks[k - 1].text;
                        if matches!(prev.as_str(), ";" | "{" | "}") {
                            break;
                        }
                        if consumes_result(prev) {
                            discarded = false;
                            break;
                        }
                        k -= 1;
                    }
                    if discarded {
                        push(
                            t.line,
                            t.col,
                            format!(
                                "result of `{}` (returns a fault-carrying `Result`) is \
                                 discarded by this bare call statement",
                                t.text
                            ),
                            RESULT_HELP,
                        );
                    }
                }
            }
        }
        // Form 4: wildcard `_ =>` arm in a match that mentions a fault
        // enum.
        if t.text == "match" && t.is_ident {
            check_match_wildcard(file, toks, i, &mut push);
        }
    }
}

fn check_match_wildcard(
    file: &EffectsFile,
    toks: &[Token],
    match_idx: usize,
    push: &mut impl FnMut(usize, usize, String, &'static str),
) {
    // Find the body `{` of this match (skip over parens/brackets in
    // the scrutinee expression).
    let mut depth = 0i32;
    let mut open = None;
    let mut j = match_idx + 1;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => {
                open = Some(j);
                break;
            }
            ";" if depth == 0 => return,
            _ => {}
        }
        j += 1;
    }
    let Some(open) = open else { return };
    let mut brace = 0i32;
    let mut close = None;
    for (k, tok) in toks.iter().enumerate().skip(open) {
        match tok.text.as_str() {
            "{" => brace += 1,
            "}" => {
                brace -= 1;
                if brace == 0 {
                    close = Some(k);
                    break;
                }
            }
            _ => {}
        }
    }
    let Some(close) = close else { return };
    let mentions_fault = toks[match_idx..=close]
        .iter()
        .any(|t| FAULT_ERRORS.contains(&t.text.as_str()));
    if !mentions_fault {
        return;
    }
    // Wildcard arms at this match's own arm level (depth 1): `_` as the
    // entire pattern, not `Err(_)` or `(_, x)`.
    let mut level = 1i32;
    for k in open + 1..close {
        match toks[k].text.as_str() {
            "{" | "(" | "[" => level += 1,
            "}" | ")" | "]" => level -= 1,
            "_" if level == 1
                && matches!(toks[k - 1].text.as_str(), "{" | "," | "}" | "|")
                && toks.get(k + 1).is_some_and(|n| n.text == "=")
                && toks.get(k + 2).is_some_and(|n| n.text == ">") =>
            {
                if !file.scanned.in_test_region(toks[k].offset) {
                    push(
                        toks[k].line,
                        toks[k].col,
                        "wildcard `_ =>` arm in a match over a fault enum: a newly added \
                         fault variant would be silently absorbed"
                            .to_string(),
                        WILDCARD_HELP,
                    );
                }
            }
            _ => {}
        }
    }
}

/// Keywords that can directly precede a `+`/`-`/`*` token without
/// making it a binary arithmetic operator (`as *const u8`,
/// `return -x`, ...).
const NON_BINARY_PREV: &[&str] = &[
    "as", "return", "in", "break", "if", "while", "match", "else",
];

fn check_counter_arith(file: &EffectsFile, findings: &mut Vec<(usize, Finding)>) {
    let toks = &file.scanned.tokens;

    // Tracked names: atomic counter fields plus `aimq-arith: counter`
    // annotated integer fields, scoped to this (declaring) file.
    let mut tracked: BTreeSet<String> = file
        .analysis
        .atomic_fields
        .iter()
        .filter(|f| f.role == Some(AtomicRole::Counter))
        .map(|f| f.name.clone())
        .collect();
    for d in &file.scanned.arith_directives {
        if d.annotation != ArithAnnotation::Counter {
            continue;
        }
        let field = toks.iter().enumerate().find_map(|(i, t)| {
            (t.line == d.target_line
                && t.is_ident
                && toks.get(i + 1).is_some_and(|n| n.text == ":"))
            .then(|| t.text.clone())
        });
        match field {
            Some(name) => {
                tracked.insert(name);
            }
            None => findings.push((
                file.idx,
                Finding {
                    rule: "counter-arith",
                    severity: Severity::Error,
                    line: d.line,
                    col: 1,
                    message: format!(
                        "`aimq-arith: counter` targets line {}, which declares no field",
                        d.target_line
                    ),
                    help: "place the annotation on (or directly above) the integer field \
                           declaration it tracks",
                },
            )),
        }
    }
    if tracked.is_empty() {
        return;
    }
    let allowed_lines: BTreeSet<usize> = file
        .scanned
        .arith_directives
        .iter()
        .filter(|d| d.annotation == ArithAnnotation::Allow)
        .map(|d| d.target_line)
        .collect();

    // `,` bounds the span too: in struct literals and argument lists
    // the operator's operands never cross a comma, and without the
    // bound a tracked field elsewhere in the literal would taint
    // unrelated arithmetic.
    let boundary = |text: &str| matches!(text, ";" | "{" | "}" | ",");
    for i in 0..toks.len() {
        let t = &toks[i];
        if !matches!(t.text.as_str(), "+" | "-" | "*") || file.scanned.in_test_region(t.offset) {
            continue;
        }
        // `->` arrow.
        if t.text == "-" && toks.get(i + 1).is_some_and(|n| n.text == ">") {
            continue;
        }
        // Binary position: the previous token must be an operand end
        // (identifier, number, `)`, `]`) and not a keyword that forces
        // a unary/typing reading. Covers both `a + b` and `a += b`.
        let Some(prev) = (i > 0).then(|| &toks[i - 1]) else {
            continue;
        };
        let operand_end = prev.text == ")"
            || prev.text == "]"
            || prev
                .text
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        if !operand_end || NON_BINARY_PREV.contains(&prev.text.as_str()) {
            continue;
        }
        // Statement span around the operator.
        let mut start = i;
        while start > 0 && !boundary(&toks[start - 1].text) {
            start -= 1;
        }
        let mut end = i;
        while end + 1 < toks.len() && !boundary(&toks[end + 1].text) {
            end += 1;
        }
        let span = &toks[start..=end];
        // Signatures and generic bounds (`T: Add + Copy`) are not
        // value arithmetic.
        if span
            .iter()
            .any(|s| matches!(s.text.as_str(), "fn" | "impl" | "where" | "dyn"))
        {
            continue;
        }
        let Some(name) = span
            .iter()
            .find(|s| s.is_ident && tracked.contains(&s.text))
        else {
            continue;
        };
        if allowed_lines.contains(&t.line) {
            continue;
        }
        let op = if toks.get(i + 1).is_some_and(|n| n.text == "=") {
            format!("{}=", t.text)
        } else {
            t.text.clone()
        };
        findings.push((
            file.idx,
            Finding {
                rule: "counter-arith",
                severity: Severity::Error,
                line: t.line,
                col: t.col,
                message: format!(
                    "unchecked `{op}` in a statement touching tracked counter `{}` can wrap \
                     in release builds",
                    name.text
                ),
                help: ARITH_HELP,
            },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan;
    use crate::structure::analyze;

    fn run(srcs: &[(&str, &str)]) -> EffectsReport {
        let scanned: Vec<_> = srcs.iter().map(|(_, s)| scan(s)).collect();
        let analyses: Vec<_> = scanned.iter().map(analyze).collect();
        let files: Vec<EffectsFile> = srcs
            .iter()
            .enumerate()
            .map(|(i, (krate, _))| EffectsFile {
                idx: i,
                crate_name: krate,
                scanned: &scanned[i],
                analysis: &analyses[i],
            })
            .collect();
        check_workspace(&files)
    }

    fn messages(report: &EffectsReport) -> Vec<&str> {
        report
            .findings
            .iter()
            .map(|(_, f)| f.message.as_str())
            .collect()
    }

    #[test]
    fn transitive_probe_in_probe_free_crate_is_flagged_with_chain() {
        let report = run(&[(
            "sim",
            "pub fn estimate(db: &D) -> f64 { refresh(db) }\n\
             fn refresh(db: &D) -> f64 { db.try_query(q); 0.0 }\n",
        )]);
        let msgs = messages(&report);
        assert!(
            msgs.iter()
                .any(|m| m.contains("`estimate` in probe-free crate `sim`")
                    && m.contains("`estimate` → `refresh` → `try_query`")),
            "{msgs:#?}"
        );
        assert!(!report.probing_by_crate["sim"].is_empty());
    }

    #[test]
    fn annotated_entry_point_is_clean_and_listed() {
        let report = run(&[(
            "storage",
            "// aimq-probe: entry -- budget accounted by the resilience report\n\
             fn probe_once(db: &D) -> Result<Page, QueryError> { db.try_query(q) }\n",
        )]);
        let probe_findings: Vec<_> = report
            .findings
            .iter()
            .filter(|(_, f)| f.rule == "probe-effect")
            .collect();
        assert!(probe_findings.is_empty(), "{probe_findings:#?}");
        assert_eq!(report.entries.len(), 1);
        assert!(report.entries[0].annotated);
    }

    #[test]
    fn unannotated_entry_and_stale_annotation_are_flagged() {
        let report = run(&[(
            "storage",
            "fn probe_once(db: &D) -> u32 { db.try_query(q) }\n\
             // aimq-probe: entry -- stale, probes nothing\n\
             fn local(x: u64) -> u64 { x.saturating_add(1) }\n",
        )]);
        let msgs = messages(&report);
        assert!(
            msgs.iter().any(|m| m.contains("not annotated")),
            "{msgs:#?}"
        );
        assert!(msgs.iter().any(|m| m.contains("stale")), "{msgs:#?}");
    }

    #[test]
    fn probing_helper_call_under_guard_is_flagged() {
        let report = run(&[(
            "storage",
            "struct S {\n\
             // aimq-lock: family(memo) -- guards the memo\n\
             state: Mutex<u32>,\n\
             }\n\
             impl S {\n\
             // aimq-probe: entry -- forwards to the boundary\n\
             fn refresh(&self, q: &Q) -> u32 { self.inner.try_query(q) }\n\
             fn locked(&self, q: &Q) -> u32 { let g = lock(&self.state); self.refresh(q) }\n\
             }\n",
        )]);
        let msgs = messages(&report);
        assert!(
            msgs.iter()
                .any(|m| m.contains("`refresh` may probe the source")
                    && m.contains("while holding guard(s) of family `memo`")),
            "{msgs:#?}"
        );
    }

    #[test]
    fn discarded_results_are_flagged_in_all_three_forms() {
        let report = run(&[(
            "storage",
            "trait D { fn try_query(&self, q: &Q) -> Result<Page, QueryError>; }\n\
             fn a(db: &dyn D, q: &Q) { let _ = db.try_query(q); }\n\
             fn b(db: &dyn D, q: &Q) { db.try_query(q).ok(); }\n\
             fn c(db: &dyn D, q: &Q) { db.try_query(q); }\n",
        )]);
        let msgs: Vec<&str> = report
            .findings
            .iter()
            .filter(|(_, f)| f.rule == "result-discipline")
            .map(|(_, f)| f.message.as_str())
            .collect();
        assert!(msgs.iter().any(|m| m.contains("`let _ =`")), "{msgs:#?}");
        assert!(msgs.iter().any(|m| m.contains("`.ok();`")), "{msgs:#?}");
        assert!(
            msgs.iter().any(|m| m.contains("bare call statement")),
            "{msgs:#?}"
        );
    }

    #[test]
    fn used_results_are_not_flagged() {
        let report = run(&[(
            "storage",
            "trait D { fn try_query(&self, q: &Q) -> Result<Page, QueryError>; }\n\
             // aimq-probe: entry -- test shape\n\
             fn a(db: &dyn D, q: &Q) -> Result<Page, QueryError> { db.try_query(q) }\n\
             // aimq-probe: entry -- test shape\n\
             fn b(db: &dyn D, q: &Q) -> Result<u32, QueryError> {\n\
             let page = db.try_query(q)?;\n\
             Ok(page.total)\n\
             }\n",
        )]);
        let bad: Vec<_> = report
            .findings
            .iter()
            .filter(|(_, f)| f.rule == "result-discipline")
            .collect();
        assert!(bad.is_empty(), "{bad:#?}");
    }

    #[test]
    fn wildcard_arm_over_fault_enum_is_flagged_but_named_arms_are_not() {
        let report = run(&[(
            "storage",
            "fn classify(e: QueryError) -> u32 {\n\
             match e {\n\
             QueryError::Timeout => 1,\n\
             _ => 0,\n\
             }\n\
             }\n\
             fn named(e: QueryError) -> u32 {\n\
             match e {\n\
             QueryError::Timeout => 1,\n\
             other => cost(other),\n\
             }\n\
             }\n\
             fn unrelated(x: u32) -> u32 { match x { 1 => 2, _ => 0 } }\n",
        )]);
        let bad: Vec<_> = report
            .findings
            .iter()
            .filter(|(_, f)| f.rule == "result-discipline")
            .collect();
        assert_eq!(bad.len(), 1, "{bad:#?}");
        assert_eq!(bad[0].1.line, 4);
    }

    #[test]
    fn tracked_counter_arithmetic_is_flagged_and_saturating_is_not() {
        let report = run(&[(
            "serve",
            "struct Budget {\n\
             // aimq-arith: counter -- probe budget accounting\n\
             attempts: u64,\n\
             }\n\
             impl Budget {\n\
             fn bump(&mut self) { self.attempts += 1; }\n\
             fn project(&self, extra: u64) -> u64 { self.attempts + extra }\n\
             fn safe(&mut self) { self.attempts = self.attempts.saturating_add(1); }\n\
             }\n",
        )]);
        let bad: Vec<_> = report
            .findings
            .iter()
            .filter(|(_, f)| f.rule == "counter-arith")
            .collect();
        assert_eq!(bad.len(), 2, "{bad:#?}");
        assert!(bad[0].1.message.contains("`+=`"), "{bad:#?}");
        assert!(bad[1].1.message.contains("`+`"), "{bad:#?}");
    }

    #[test]
    fn arith_allow_escape_and_atomic_counter_tracking_work() {
        let report = run(&[(
            "serve",
            "struct Stats {\n\
             // aimq-atomic: counter -- monotone tally\n\
             hits: AtomicU64,\n\
             }\n\
             fn delta(a: u64, hits: u64) -> u64 {\n\
             a + hits // aimq-arith: allow -- both operands are snapshot-bounded\n\
             }\n\
             fn wraps(a: u64, hits: u64) -> u64 { a * hits }\n",
        )]);
        let bad: Vec<_> = report
            .findings
            .iter()
            .filter(|(_, f)| f.rule == "counter-arith")
            .collect();
        assert_eq!(bad.len(), 1, "{bad:#?}");
        assert!(bad[0].1.message.contains("`*`"), "{bad:#?}");
    }

    #[test]
    fn test_code_is_exempt_from_l9_and_l10() {
        let report = run(&[(
            "serve",
            "struct Stats {\n\
             // aimq-atomic: counter -- monotone tally\n\
             hits: u64,\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             fn t(db: &D, hits: u64) {\n\
             let _ = db.try_query(q);\n\
             let x = hits + 1;\n\
             }\n\
             }\n",
        )]);
        let bad: Vec<_> = report
            .findings
            .iter()
            .filter(|(_, f)| f.rule != "probe-effect")
            .collect();
        assert!(bad.is_empty(), "{bad:#?}");
    }
}

//! L13 `degradation-flow`: intra-procedural def-use tracking over the
//! token stream that taints every *constructed* fault-enum value and
//! errors unless it reaches a sink.
//!
//! The paper's degradation accounting only works if every fault the
//! system manufactures is either propagated (returned, `?`-raised,
//! produced by a match arm) or recorded (passed into a call — the
//! `AccessStats` / `DegradationReport` recorders are call sites like
//! any other). A `QueryError::Timeout` built and then dropped on the
//! floor is a silent hole in the degradation report, and it compiles
//! clean. This pass walks each function body (via
//! [`find_functions`](crate::structure)), finds `Enum::Variant`
//! *value* constructions for the fault enums, and demands a sink:
//!
//! - the construction's statement propagates (`return`, `?`, `=>`) or
//!   is the function's tail expression;
//! - the construction is an argument — inside an unclosed `(` whose
//!   head is an identifier (a call, method call, or `Err(..)`-style
//!   wrap) or inside a macro's `!(..)` / `![..]`;
//! - the value is bound by `let` and *some* later use of the binding
//!   in the same body propagates or participates in a call;
//! - the line carries `// aimq-fault: sink -- <where accounting
//!   lives>`, vouching that the accounting happens somewhere this
//!   lexical pass cannot see.
//!
//! Pattern positions (`match` arms, `if let`, `matches!`) are
//! destructuring, not construction, and are skipped. Stale
//! `aimq-fault:` annotations — ones whose target line constructs
//! nothing — are errors, so the escape hatch cannot outlive the code
//! it excused.

use std::collections::BTreeSet;

use crate::rules::{Finding, Severity};
use crate::source::{line_offsets, ScannedFile, Token};
use crate::structure::find_functions;

/// Fault enums whose constructions are tainted. `JsonError` is a
/// struct (parser-internal, always returned at its construction
/// sites), so the degradation pipeline tracks only these three.
pub const TRACKED_FAULT_ENUMS: &[&str] = &["QueryError", "ProbeError", "ServeError"];

const DROP_HELP: &str =
    "propagate the fault (`return`/`?`) or record it into the degradation accounting \
     (`AccessStats`, `DegradationReport`); if the accounting is real but invisible to this \
     lexical pass, annotate `// aimq-fault: sink -- <where accounting lives>`";

const STALE_HELP: &str =
    "remove the stale annotation, or re-point it at the line that constructs the fault value";

/// One file's input to the dataflow pass.
pub struct DataflowFile<'a> {
    /// Index the caller uses to map findings back to the file.
    pub idx: usize,
    /// Lexical scan (tokens, directives, test regions).
    pub scanned: &'a ScannedFile,
}

/// Run L13 over every non-test function body in the given files.
pub fn check_workspace(files: &[DataflowFile]) -> Vec<(usize, Finding)> {
    let mut findings = Vec::new();
    for file in files {
        check_file(file, &mut findings);
    }
    findings
}

fn check_file(file: &DataflowFile, findings: &mut Vec<(usize, Finding)>) {
    let toks = &file.scanned.tokens;
    let mut construction_lines: BTreeSet<usize> = BTreeSet::new();

    for span in find_functions(toks) {
        if file.scanned.in_test_region(toks[span.body_start].offset) {
            continue;
        }
        for k in span.body_start..span.body_end {
            let t = &toks[k];
            if !TRACKED_FAULT_ENUMS.contains(&t.text.as_str()) {
                continue;
            }
            let qualified = toks.get(k + 1).is_some_and(|n| n.text == ":")
                && toks.get(k + 2).is_some_and(|n| n.text == ":")
                && toks.get(k + 3).is_some_and(|n| n.is_ident);
            if !qualified {
                continue;
            }
            // Skip the path-qualifier case `storage::QueryError::..`
            // being double-counted: anchor on the enum ident only.
            if k >= 2 && toks[k - 1].text == ":" && toks[k - 2].text == ":" {
                continue;
            }
            // Consume a struct/tuple payload directly after the
            // variant so pattern probing starts past it.
            let mut end = k + 3;
            if let Some(next) = toks.get(end + 1) {
                if next.text == "{" {
                    end = balanced(toks, end + 1, "{", "}");
                } else if next.text == "(" {
                    end = balanced(toks, end + 1, "(", ")");
                }
            }
            if is_pattern(toks, end, span.body_end) {
                continue;
            }
            let stmt = statement_span(toks, span.body_start, span.body_end, k, end);
            if stmt_contains(toks, &stmt, "matches") {
                continue; // `matches!(e, QueryError::..)` is a predicate, not a build
            }
            construction_lines.insert(t.line);
            if file
                .scanned
                .fault_directives
                .iter()
                .any(|d| d.target_line == t.line)
            {
                continue; // vouched sink
            }
            let variant = &toks[k + 3].text;
            if reaches_sink(toks, span.body_start, span.body_end, k, &stmt) {
                continue;
            }
            findings.push((
                file.idx,
                Finding {
                    rule: "degradation-flow",
                    severity: Severity::Error,
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "`{}::{variant}` is constructed here but never reaches a sink: not \
                         returned, not raised, and not passed into any call or recorder",
                        t.text
                    ),
                    help: DROP_HELP,
                },
            ));
        }
    }

    // Stale `aimq-fault:` annotations: the target line must construct
    // a tracked fault value (patterns and empty lines don't count).
    let starts = line_offsets(&file.scanned.text);
    for d in &file.scanned.fault_directives {
        let target_offset = starts
            .get(d.target_line.saturating_sub(1))
            .copied()
            .unwrap_or(usize::MAX);
        if file.scanned.in_test_region(target_offset) {
            continue;
        }
        if !construction_lines.contains(&d.target_line) {
            findings.push((
                file.idx,
                Finding {
                    rule: "degradation-flow",
                    severity: Severity::Error,
                    line: d.line,
                    col: 1,
                    message: format!(
                        "stale `aimq-fault: sink` annotation: line {} constructs no tracked \
                         fault value",
                        d.target_line
                    ),
                    help: STALE_HELP,
                },
            ));
        }
    }
}

/// Index of the delimiter matching `toks[open]`.
fn balanced(toks: &[Token], open: usize, open_text: &str, close_text: &str) -> usize {
    let mut depth = 0i32;
    for (m, t) in toks.iter().enumerate().skip(open) {
        if t.text == open_text {
            depth += 1;
        } else if t.text == close_text {
            depth -= 1;
            if depth == 0 {
                return m;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// A construction is in *pattern* position when, skipping the closers
/// of enclosing destructures (`Err(QueryError::Timeout)`), the next
/// token is a match arm arrow, an or-pattern bar, or a (`let`/`if
/// let`) binding `=`.
fn is_pattern(toks: &[Token], end: usize, body_end: usize) -> bool {
    let mut j = end + 1;
    while j < body_end && matches!(toks[j].text.as_str(), ")" | "]") {
        j += 1;
    }
    match toks.get(j).map(|t| t.text.as_str()) {
        Some("|") => true,
        Some("=") => {
            // `=>` is two tokens; a bare `=` after closers means the
            // construction sat on the left of a binding — a pattern.
            true
        }
        _ => false,
    }
}

/// Statement token span `[start, end)` around the construction, plus
/// whether it terminates with `;` (false ⇒ tail expression).
struct Stmt {
    start: usize,
    end: usize,
    terminated: bool,
}

fn statement_span(
    toks: &[Token],
    body_start: usize,
    body_end: usize,
    at: usize,
    payload_end: usize,
) -> Stmt {
    let mut depth = 0i32;
    let mut start = body_start + 1;
    let mut j = at;
    while j > body_start {
        j -= 1;
        match toks[j].text.as_str() {
            "}" => depth += 1,
            "{" => {
                if depth == 0 {
                    start = j + 1;
                    break;
                }
                depth -= 1;
            }
            ";" if depth == 0 => {
                start = j + 1;
                break;
            }
            _ => {}
        }
    }
    let mut depth = 0i32;
    let mut end = body_end;
    let mut terminated = false;
    let mut j = payload_end;
    while j + 1 < body_end {
        j += 1;
        match toks[j].text.as_str() {
            "{" => depth += 1,
            "}" => {
                if depth == 0 {
                    end = j;
                    break;
                }
                depth -= 1;
            }
            ";" if depth == 0 => {
                end = j + 1;
                terminated = true;
                break;
            }
            "," if depth == 0 => {
                // Arm/argument boundary: the value's expression ends
                // here, but a comma is not a tail position — the
                // surrounding construct (tuple, array, arm) decides.
                end = j;
                terminated = true;
                break;
            }
            _ => {}
        }
    }
    Stmt {
        start,
        end,
        terminated,
    }
}

fn stmt_contains(toks: &[Token], stmt: &Stmt, needle: &str) -> bool {
    toks[stmt.start..stmt.end].iter().any(|t| t.text == needle)
}

/// Does the tainted construction at `at` (statement `stmt`) reach a
/// sink inside `[body_start, body_end)`?
fn reaches_sink(
    toks: &[Token],
    body_start: usize,
    body_end: usize,
    at: usize,
    stmt: &Stmt,
) -> bool {
    // 1. The statement itself propagates.
    if !stmt.terminated {
        return true; // tail expression — the value IS the result
    }
    if toks[stmt.start..stmt.end]
        .iter()
        .any(|t| matches!(t.text.as_str(), "return" | "?"))
    {
        return true;
    }
    if stmt_has_arrow(toks, stmt) {
        return true; // match-arm result: the arm's value flows to the match
    }
    // 2. Construction sits in argument position of a call or macro.
    if in_call_args(toks, stmt.start, at) {
        return true;
    }
    // 3. `let NAME = <construction>;` — track uses of NAME.
    if let Some(name) = let_binding(toks, stmt, at) {
        for u in stmt.end..body_end {
            if !(toks[u].is_ident && toks[u].text == name) {
                continue;
            }
            let use_stmt = statement_span(toks, body_start, body_end, u, u);
            if !use_stmt.terminated
                || toks[use_stmt.start..use_stmt.end]
                    .iter()
                    .any(|t| matches!(t.text.as_str(), "return" | "?" | "(" | "!"))
                || stmt_has_arrow(toks, &use_stmt)
            {
                return true;
            }
        }
    }
    false
}

/// `=>` anywhere in the statement (tokenized as `=` `>`).
fn stmt_has_arrow(toks: &[Token], stmt: &Stmt) -> bool {
    (stmt.start..stmt.end.saturating_sub(1)).any(|j| toks[j].text == "=" && toks[j + 1].text == ">")
}

/// Walking backward from the construction to the statement start: an
/// unclosed `(` headed by an identifier or `!` means the value is an
/// argument (call, `Err(..)` wrap, method, or macro); an unclosed `[`
/// headed by `!` is a `vec![..]`-style macro.
fn in_call_args(toks: &[Token], stmt_start: usize, at: usize) -> bool {
    let mut paren = 0i32;
    let mut square = 0i32;
    let mut j = at;
    while j > stmt_start {
        j -= 1;
        match toks[j].text.as_str() {
            ")" => paren += 1,
            "]" => square += 1,
            "(" => {
                if paren == 0 {
                    if j > 0 && (toks[j - 1].is_ident || toks[j - 1].text == "!") {
                        return true;
                    }
                    continue; // grouping parens — keep walking out
                }
                paren -= 1;
            }
            "[" => {
                if square == 0 {
                    if j > 0 && toks[j - 1].text == "!" {
                        return true;
                    }
                    continue;
                }
                square -= 1;
            }
            _ => {}
        }
    }
    false
}

/// If the statement is `let NAME = ...` (with the construction on the
/// right of the `=`), return NAME.
fn let_binding(toks: &[Token], stmt: &Stmt, at: usize) -> Option<String> {
    if toks.get(stmt.start).map(|t| t.text.as_str()) != Some("let") {
        return None;
    }
    let mut j = stmt.start + 1;
    if toks.get(j).map(|t| t.text.as_str()) == Some("mut") {
        j += 1;
    }
    let name = toks.get(j).filter(|t| t.is_ident)?.text.clone();
    let eq = (j + 1..at).find(|&m| toks[m].text == "=" && toks[m + 1].text != "=")?;
    (eq < at).then_some(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan;

    fn run(src: &str) -> Vec<String> {
        let scanned = scan(src);
        let files = [DataflowFile {
            idx: 0,
            scanned: &scanned,
        }];
        check_workspace(&files)
            .into_iter()
            .map(|(_, f)| f.message)
            .collect()
    }

    #[test]
    fn dropped_construction_is_flagged() {
        let msgs = run("fn f() {\n\
             let _e = QueryError::Timeout;\n\
             }\n");
        assert_eq!(msgs.len(), 1, "{msgs:#?}");
        assert!(msgs[0].contains("`QueryError::Timeout` is constructed here"));
    }

    #[test]
    fn returned_raised_and_tail_constructions_sink() {
        let msgs = run(
            "fn a() -> Result<(), QueryError> { return Err(QueryError::Timeout); }\n\
             fn b() -> Result<(), QueryError> { source().map_err(|_| QueryError::Transient)?; Ok(()) }\n\
             fn c() -> QueryError { QueryError::Timeout }\n",
        );
        assert!(msgs.is_empty(), "{msgs:#?}");
    }

    #[test]
    fn call_and_macro_arguments_sink() {
        let msgs = run("fn f(stats: &mut AccessStats) {\n\
             stats.record(ProbeError::Source { probe_index: 0, value: v(), error: e() });\n\
             let faults = vec![QueryError::Timeout, QueryError::Transient];\n\
             consume(faults);\n\
             }\n");
        assert!(msgs.is_empty(), "{msgs:#?}");
    }

    #[test]
    fn match_arm_results_and_patterns_are_not_flagged() {
        let msgs = run(
            "fn f(kind: u8) -> QueryError {\n\
             match kind {\n\
             0 => QueryError::Timeout,\n\
             _ => QueryError::Transient,\n\
             }\n\
             }\n\
             fn g(e: &QueryError) -> bool {\n\
             matches!(e, QueryError::Timeout | QueryError::Transient)\n\
             }\n\
             fn h(r: Result<(), QueryError>) -> bool {\n\
             match r { Err(QueryError::Timeout) | Err(QueryError::Transient) => true, _ => false }\n\
             }\n",
        );
        assert!(msgs.is_empty(), "{msgs:#?}");
    }

    #[test]
    fn let_binding_tracks_to_a_later_sink() {
        let sunk = run("fn f() -> Result<(), QueryError> {\n\
             let e = QueryError::RateLimited { retry_after: 2 };\n\
             log(&e);\n\
             Err(e)\n\
             }\n");
        assert!(sunk.is_empty(), "{sunk:#?}");
        let dropped = run("fn f() {\n\
             let e = QueryError::Timeout;\n\
             let _alias = e;\n\
             }\n");
        assert_eq!(dropped.len(), 1, "{dropped:#?}");
    }

    #[test]
    fn fault_sink_annotation_excuses_and_goes_stale() {
        let excused = run("fn f(slot: &mut Option<QueryError>) {\n\
             // aimq-fault: sink -- stored into the retry slot, drained by tick()\n\
             *slot = Some(QueryError::Timeout);\n\
             }\n");
        assert!(excused.is_empty(), "{excused:#?}");
        let stale = run("fn f() -> u32 {\n\
             // aimq-fault: sink -- nothing here\n\
             41 + 1\n\
             }\n");
        assert_eq!(stale.len(), 1, "{stale:#?}");
        assert!(stale[0].contains("stale `aimq-fault: sink`"));
    }

    #[test]
    fn test_regions_are_skipped() {
        let msgs = run("#[cfg(test)]\n\
             mod tests {\n\
             fn f() { let _e = QueryError::Timeout; }\n\
             }\n");
        assert!(msgs.is_empty(), "{msgs:#?}");
    }
}

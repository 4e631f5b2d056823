//! L11 `wire-drift` and L12 `error-surface`: static guards over the
//! JSON wire contract.
//!
//! **L11** extracts the JSON shape every `to_json()` body produces,
//! straight from the token stream: each `Json::obj(vec![("key", ..)])`
//! literal contributes its keys (read from the raw text, since string
//! contents are masked out of the token stream), a direct `Json::Obj(`
//! construction marks the shape *dynamic* (keys computed at runtime,
//! as in `Tuple::to_json`), and a body with neither is *opaque* (a
//! scalar encoder, as in `Value::to_json`). The per-type inventory is
//! pinned at `results/WIRE_SCHEMA.json` — regenerated with `cargo
//! xtask wire --write` (or `pin --write`) and diffed in CI — so
//! renaming or dropping a key is a lint failure before it is a
//! client-visible break. Two per-site findings ride along: a key
//! emitted twice in one object literal, and a key emitted under a
//! conditional (a `match` arm or `if` branch) without an
//! `// aimq-wire: optional -- <why>` annotation saying when clients
//! see it absent. Stale `aimq-wire:` annotations are errors too.
//!
//! **L12** guards the fault→status mapping at the HTTP boundary. Every
//! watched fault enum ([`WATCHED_FAULT_ENUMS`]) that the boundary
//! crate mentions must have *every* variant named there as
//! `Enum::Variant` — deleting a match arm (or absorbing a variant into
//! a rewritten match) un-names it and fails the lint, complementing
//! clippy's `wildcard_enum_match_arm`. And every `Response::error(status, "code", ..)`
//! call site must carry a string-literal machine code that appears,
//! with the same status, in the DESIGN.md status-code table (anchored
//! at the `| machine code | status |` header); table rows no call
//! site uses are doc drift and equally fatal.

use std::collections::{BTreeMap, BTreeSet};

use crate::rules::{Finding, Severity};
use crate::source::{line_offsets, ByteClass, ScannedFile, Token};
use crate::structure::find_functions;

/// Fault enums whose variant coverage L12 audits at the HTTP boundary.
/// `JsonError` is carried for completeness: it is a struct today, so
/// no enum definition is found and it imposes no obligation — but the
/// day it grows variants, the audit starts without a lint change.
pub const WATCHED_FAULT_ENUMS: &[&str] = &["ServeError", "QueryError", "ProbeError", "JsonError"];

/// The crate that maps fault enums onto wire responses.
pub const BOUNDARY_CRATE: &str = "http";

const DUPLICATE_HELP: &str =
    "remove or rename one of the duplicate keys: the JSON object keeps only one, and which \
     one clients see is an accident of construction order";

const OPTIONAL_HELP: &str =
    "annotate with `// aimq-wire: optional -- <when clients see the key absent>` on the \
     key's line, or hoist the key out of the conditional so it is always emitted";

const STALE_WIRE_HELP: &str =
    "remove the stale annotation, or re-point it at the line of a key emitted under a \
     conditional";

const VARIANT_HELP: &str =
    "name the variant in an HTTP mapping match (and decide its status code), or remove it \
     from the enum; a variant the boundary never names is a fault clients cannot see";

const CODE_HELP: &str =
    "add the machine code to the DESIGN.md status-code table (the `| machine code | \
     status |` table) with this status, or reuse a documented code";

const LITERAL_HELP: &str =
    "pass the machine code as a string literal so clients (and this lint) can rely on the \
     published set of codes";

/// One file's inputs to the wire-contract pass.
pub struct WireFile<'a> {
    /// Index the caller uses to map findings back to the file.
    pub idx: usize,
    /// Owning crate (directory name under `crates/`).
    pub crate_name: &'a str,
    /// Path relative to the lint root, as rendered in the inventory.
    pub rel: String,
    /// Lexical scan (tokens, classes, directives).
    pub scanned: &'a ScannedFile,
}

/// How a `to_json` body builds its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeKind {
    /// Object literal(s) with statically known keys.
    Keyed,
    /// Direct `Json::Obj(..)` construction — keys computed at runtime.
    Dynamic,
    /// No object construction at all (scalar/array encoder).
    Opaque,
}

impl ShapeKind {
    fn as_str(self) -> &'static str {
        match self {
            ShapeKind::Keyed => "keyed",
            ShapeKind::Dynamic => "dynamic",
            ShapeKind::Opaque => "opaque",
        }
    }
}

/// One key in a keyed shape (deduplicated across match arms).
#[derive(Debug, Clone)]
pub struct WireKey {
    /// Key name as it appears on the wire.
    pub name: String,
    /// Lexically classified value kind (`num`, `str`, `bool`, `null`,
    /// `arr`, `obj`, `nested`, `expr`).
    pub value: &'static str,
    /// Every emission site sits under a conditional.
    pub optional: bool,
}

/// The extracted JSON shape of one `to_json` implementation.
#[derive(Debug, Clone)]
pub struct WireShape {
    /// File index (same space as [`WireFile::idx`]).
    pub idx: usize,
    /// Path relative to the lint root.
    pub file: String,
    /// Type the `impl` block attributes the function to.
    pub type_name: String,
    /// Construction style.
    pub kind: ShapeKind,
    /// Keys sorted by name (empty unless [`ShapeKind::Keyed`]).
    pub keys: Vec<WireKey>,
}

/// A finding anchored in DESIGN.md rather than a scanned source file.
#[derive(Debug, Clone)]
pub struct DesignFinding {
    /// 1-based line in DESIGN.md.
    pub line: usize,
    /// Description of the drift.
    pub message: String,
    /// Remedy note.
    pub help: &'static str,
}

/// Output of [`check_workspace`].
#[derive(Debug, Default)]
pub struct WireReport {
    /// Findings, tagged with the file index they occur in.
    pub findings: Vec<(usize, Finding)>,
    /// Extracted shapes, sorted by (file, type) — the inventory input.
    pub shapes: Vec<WireShape>,
    /// Doc-drift findings anchored in DESIGN.md.
    pub design_findings: Vec<DesignFinding>,
}

/// Run L11 shape extraction and L12 error-surface checks. `design`
/// is the DESIGN.md text when present (the status-code table source).
pub fn check_workspace(files: &[WireFile], design: Option<&str>) -> WireReport {
    let mut report = WireReport::default();
    for file in files {
        extract_file_shapes(file, &mut report);
    }
    report
        .shapes
        .sort_by(|a, b| (&a.file, &a.type_name).cmp(&(&b.file, &b.type_name)));
    check_error_surface(files, design, &mut report);
    report
}

/// Render the pinned inventory (`results/WIRE_SCHEMA.json`) for the
/// extracted shapes: stable field order, one key per line, sorted by
/// (file, type) — byte-identical run over run.
pub fn render_inventory(shapes: &[WireShape]) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"shapes\": [\n");
    for (i, shape) in shapes.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"file\": \"{}\",\n", shape.file));
        out.push_str(&format!("      \"type\": \"{}\",\n", shape.type_name));
        out.push_str(&format!("      \"kind\": \"{}\",\n", shape.kind.as_str()));
        if shape.keys.is_empty() {
            out.push_str("      \"keys\": []\n");
        } else {
            out.push_str("      \"keys\": [\n");
            for (k, key) in shape.keys.iter().enumerate() {
                out.push_str(&format!(
                    "        {{\"name\": \"{}\", \"value\": \"{}\", \"optional\": {}}}{}\n",
                    key.name,
                    key.value,
                    key.optional,
                    if k + 1 < shape.keys.len() { "," } else { "" }
                ));
            }
            out.push_str("      ]\n");
        }
        out.push_str(if i + 1 < shapes.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

// ---- L11: shape extraction ----

fn line_col_at(starts: &[usize], offset: usize) -> (usize, usize) {
    let line = starts.partition_point(|&s| s <= offset);
    let col = offset - starts.get(line.saturating_sub(1)).copied().unwrap_or(0) + 1;
    (line.max(1), col)
}

/// `impl` block body spans with the type each attributes methods to:
/// the last path ident before the body `{` (after `for`, when present).
fn impl_targets(toks: &[Token]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let mut k = 0;
    while k < toks.len() {
        if toks[k].text != "impl" {
            k += 1;
            continue;
        }
        let mut angle = 0i32;
        let mut name: Option<String> = None;
        let mut j = k + 1;
        let mut open = None;
        while j < toks.len() {
            let t = &toks[j];
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "{" if angle <= 0 => {
                    open = Some(j);
                    break;
                }
                ";" if angle <= 0 => break,
                "for" if angle <= 0 => name = None,
                "where" if angle <= 0 => {
                    // `where` clauses carry bounds, not the target.
                    while j < toks.len() && toks[j].text != "{" {
                        j += 1;
                    }
                    open = (j < toks.len()).then_some(j);
                    break;
                }
                _ if angle <= 0 && t.is_ident => name = Some(t.text.clone()),
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else {
            k = j + 1;
            continue;
        };
        let mut depth = 0i32;
        let mut close = toks.len();
        for (m, t) in toks.iter().enumerate().skip(open) {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        close = m;
                        break;
                    }
                }
                _ => {}
            }
        }
        if let Some(name) = name {
            out.push((open, close, name));
        }
        k = open + 1; // nested impls (rare) still resolve innermost-first
    }
    out
}

/// Token spans of `match`/`if`/`else` bodies within `[start, end)` —
/// a `Json::obj` call inside one emits its keys conditionally.
fn conditional_spans(toks: &[Token], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for k in start..end {
        let t = &toks[k];
        if !t.is_ident || !matches!(t.text.as_str(), "match" | "if" | "else") {
            continue;
        }
        let mut depth = 0i32;
        let mut j = k + 1;
        let mut open = None;
        while j < end {
            match toks[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    open = Some(j);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else { continue };
        let mut brace = 0i32;
        for (m, tok) in toks.iter().enumerate().take(end).skip(open) {
            match tok.text.as_str() {
                "{" => brace += 1,
                "}" => {
                    brace -= 1;
                    if brace == 0 {
                        out.push((open, m));
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// One `Json::obj(` / `Json::Obj(` construction site inside a body.
struct ObjCall {
    /// Token index of the opening `(`.
    open: usize,
    /// Token index of the matching `)`.
    close: usize,
    /// Direct variant construction (`Obj`) — dynamic keys.
    dynamic: bool,
    /// The call sits inside a `match`/`if`/`else` body.
    conditional: bool,
}

fn balanced_close(toks: &[Token], open: usize, open_text: &str, close_text: &str) -> usize {
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

/// Extract every non-test `to_json` shape in `file`, pushing L11
/// findings (duplicate keys, unannotated conditional keys, stale
/// `aimq-wire:` annotations) as it goes.
fn extract_file_shapes(file: &WireFile, report: &mut WireReport) {
    let toks = &file.scanned.tokens;
    let text = &file.scanned.text;
    let starts = line_offsets(text);
    let impls = impl_targets(toks);
    let mut used_wire_lines: BTreeSet<usize> = BTreeSet::new();

    for span in find_functions(toks) {
        if span.name != "to_json" || file.scanned.in_test_region(toks[span.body_start].offset) {
            continue;
        }
        let type_name = impls
            .iter()
            .filter(|(open, close, _)| *open < span.body_start && span.body_end <= close + 1)
            .min_by_key(|(open, close, _)| close - open)
            .map(|(_, _, name)| name.clone())
            .unwrap_or_else(|| "(free)".to_string());
        let cond = conditional_spans(toks, span.body_start, span.body_end);
        let mut calls: Vec<ObjCall> = Vec::new();
        for k in span.body_start..span.body_end {
            let t = &toks[k];
            let qualified = matches!(t.text.as_str(), "obj" | "Obj")
                && k >= 3
                && toks[k - 1].text == ":"
                && toks[k - 2].text == ":"
                && toks[k - 3].text == "Json"
                && toks.get(k + 1).is_some_and(|n| n.text == "(");
            if qualified {
                calls.push(ObjCall {
                    open: k + 1,
                    close: balanced_close(toks, k + 1, "(", ")"),
                    dynamic: t.text == "Obj",
                    conditional: cond.iter().any(|&(s, e)| s < k && k < e),
                });
            }
        }

        // Keys: string literals inside an obj call's argument bytes,
        // shaped `("name", ...` — attributed to the innermost call.
        let mut per_call_seen: Vec<BTreeMap<String, usize>> =
            calls.iter().map(|_| BTreeMap::new()).collect();
        let mut keys: BTreeMap<String, (&'static str, bool, bool)> = BTreeMap::new();
        let fn_lo = toks[span.body_start].offset;
        let fn_hi = toks
            .get(span.body_end.saturating_sub(1))
            .map_or(text.len(), |t| t.offset);
        let bytes = text.as_bytes();
        let classes = &file.scanned.classes;
        let mut p = fn_lo;
        while p < fn_hi {
            let is_start = classes[p] == ByteClass::Literal
                && (p == 0 || classes[p - 1] != ByteClass::Literal);
            if !is_start {
                p += 1;
                continue;
            }
            let mut q = p;
            while q < bytes.len() && classes[q] == ByteClass::Literal {
                q += 1;
            }
            let run = (p, q);
            p = q;
            if bytes[run.0] != b'"' || run.1 - run.0 < 2 {
                continue; // raw/byte string or char — never a JSON key
            }
            // `("name",` shape: `(` immediately before, `,` after.
            let before = (0..run.0)
                .rev()
                .find(|&b| classes[b] == ByteClass::Code && !bytes[b].is_ascii_whitespace());
            let after = (run.1..fn_hi)
                .find(|&b| classes[b] == ByteClass::Code && !bytes[b].is_ascii_whitespace());
            let (Some(before), Some(after)) = (before, after) else {
                continue;
            };
            if bytes[before] != b'(' || bytes[after] != b',' {
                continue;
            }
            let Some(call_idx) = calls
                .iter()
                .enumerate()
                .filter(|(_, c)| toks[c.open].offset < run.0 && run.1 <= toks[c.close].offset)
                .min_by_key(|(_, c)| toks[c.close].offset - toks[c.open].offset)
                .map(|(i, _)| i)
            else {
                continue;
            };
            let name = text[run.0 + 1..run.1 - 1].to_string();
            let (line, col) = line_col_at(&starts, run.0);
            if per_call_seen[call_idx].insert(name.clone(), line).is_some() {
                report.findings.push((
                    file.idx,
                    Finding {
                        rule: "wire-drift",
                        severity: Severity::Error,
                        line,
                        col,
                        message: format!(
                            "duplicate key `{name}` in the `{type_name}` JSON object literal"
                        ),
                        help: DUPLICATE_HELP,
                    },
                ));
            }
            let conditional = calls[call_idx].conditional;
            if conditional {
                let annotated = file
                    .scanned
                    .wire_directives
                    .iter()
                    .any(|d| d.target_line == line);
                if annotated {
                    used_wire_lines.insert(line);
                } else {
                    report.findings.push((
                        file.idx,
                        Finding {
                            rule: "wire-drift",
                            severity: Severity::Error,
                            line,
                            col,
                            message: format!(
                                "key `{name}` of `{type_name}` is emitted under a conditional \
                                 without an `aimq-wire: optional` annotation"
                            ),
                            help: OPTIONAL_HELP,
                        },
                    ));
                }
            }
            let value = classify_value(toks, &calls[call_idx], run.1);
            keys.entry(name)
                .and_modify(|(_, opt, _)| *opt = *opt && conditional)
                .or_insert((value, conditional, true));
        }

        let kind = if calls.iter().any(|c| c.dynamic) {
            ShapeKind::Dynamic
        } else if calls.is_empty() {
            ShapeKind::Opaque
        } else {
            ShapeKind::Keyed
        };
        report.shapes.push(WireShape {
            idx: file.idx,
            file: file.rel.clone(),
            type_name,
            kind,
            keys: keys
                .into_iter()
                .map(|(name, (value, optional, _))| WireKey {
                    name,
                    value,
                    optional,
                })
                .collect(),
        });
    }

    // Stale annotations: every `aimq-wire: optional` must cover a
    // conditional key; an annotation anywhere else is stale by
    // definition.
    for d in &file.scanned.wire_directives {
        let target_offset = line_offsets(text)
            .get(d.target_line.saturating_sub(1))
            .copied()
            .unwrap_or(usize::MAX);
        if file.scanned.in_test_region(target_offset) {
            continue;
        }
        if !used_wire_lines.contains(&d.target_line) {
            report.findings.push((
                file.idx,
                Finding {
                    rule: "wire-drift",
                    severity: Severity::Error,
                    line: d.line,
                    col: 1,
                    message: format!(
                        "stale `aimq-wire: optional` annotation: line {} emits no key under \
                         a conditional",
                        d.target_line
                    ),
                    help: STALE_WIRE_HELP,
                },
            ));
        }
    }
}

/// Lexical classification of a key's value expression: the tokens
/// between the key's trailing comma and the tuple's closing paren.
fn classify_value(toks: &[Token], call: &ObjCall, key_end: usize) -> &'static str {
    // Tuple open: the innermost `(` before the key literal.
    let tuple_open = (call.open..=call.close)
        .filter(|&i| toks[i].text == "(" && toks[i].offset < key_end)
        .max_by_key(|&i| toks[i].offset);
    let Some(tuple_open) = tuple_open else {
        return "expr";
    };
    let tuple_close = balanced_close(toks, tuple_open, "(", ")");
    let value: Vec<&Token> = toks[tuple_open + 1..tuple_close]
        .iter()
        .skip_while(|t| t.offset < key_end || t.text == ",")
        .collect();
    if value.len() >= 4 && value[0].text == "Json" && value[1].text == ":" && value[2].text == ":" {
        return match value[3].text.as_str() {
            "Num" => "num",
            "Str" => "str",
            "Bool" => "bool",
            "Null" => "null",
            "Arr" => "arr",
            "obj" | "Obj" => "obj",
            _ => "expr",
        };
    }
    if value.iter().any(|t| t.text == "to_json") {
        "nested"
    } else {
        "expr"
    }
}

// ---- L12: error surface ----

/// Variant names of the watched enums, from their (non-test)
/// definitions anywhere in the workspace.
fn enum_definitions(files: &[WireFile]) -> BTreeMap<&'static str, Vec<String>> {
    let mut out = BTreeMap::new();
    for &name in WATCHED_FAULT_ENUMS {
        'files: for file in files {
            let toks = &file.scanned.tokens;
            for k in 0..toks.len() {
                if toks[k].text != "enum"
                    || toks.get(k + 1).is_none_or(|t| t.text != name)
                    || file.scanned.in_test_region(toks[k].offset)
                {
                    continue;
                }
                let Some(open) = (k + 2..toks.len()).find(|&j| toks[j].text == "{") else {
                    continue;
                };
                let close = balanced_close(toks, open, "{", "}");
                let mut variants = Vec::new();
                let (mut brace, mut paren, mut square) = (0i32, 0i32, 0i32);
                for j in open..close {
                    match toks[j].text.as_str() {
                        "{" => brace += 1,
                        "}" => brace -= 1,
                        "(" => paren += 1,
                        ")" => paren -= 1,
                        "[" => square += 1,
                        "]" => square -= 1,
                        _ if brace == 1
                            && paren == 0
                            && square == 0
                            && toks[j].is_ident
                            && matches!(toks[j - 1].text.as_str(), "{" | ",") =>
                        {
                            variants.push(toks[j].text.clone());
                        }
                        _ => {}
                    }
                }
                if !variants.is_empty() {
                    out.insert(name, variants);
                    break 'files;
                }
            }
        }
    }
    out
}

/// One `Response::error(status, "code", ..)` call site.
struct ErrorSite {
    idx: usize,
    line: usize,
    col: usize,
    status: Option<u16>,
    code: Option<String>,
}

fn error_sites(files: &[WireFile], report: &mut WireReport) -> Vec<ErrorSite> {
    let mut sites = Vec::new();
    for file in files {
        let toks = &file.scanned.tokens;
        let text = &file.scanned.text;
        let bytes = text.as_bytes();
        let classes = &file.scanned.classes;
        for k in 0..toks.len() {
            let is_site = toks[k].text == "error"
                && k >= 3
                && toks[k - 1].text == ":"
                && toks[k - 2].text == ":"
                && toks[k - 3].text == "Response"
                && toks.get(k + 1).is_some_and(|n| n.text == "(")
                && !file.scanned.in_test_region(toks[k].offset);
            if !is_site {
                continue;
            }
            let open = k + 1;
            let close = balanced_close(toks, open, "(", ")");
            let status = toks
                .get(open + 1)
                .filter(|t| !t.is_ident && t.text.chars().all(|c| c.is_ascii_digit()))
                .and_then(|t| t.text.parse::<u16>().ok());
            // First `,` at depth 1, then the raw text after it: the
            // code literal is masked out of the token stream.
            let mut depth = 0i32;
            let mut comma = None;
            for (j, t) in toks.iter().enumerate().take(close).skip(open) {
                match t.text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    "," if depth == 1 => {
                        comma = Some(j);
                        break;
                    }
                    _ => {}
                }
            }
            let code = comma.and_then(|j| {
                let from = toks[j].offset + 1;
                let at = (from..toks[close].offset).find(|&b| {
                    !bytes[b].is_ascii_whitespace() && classes[b] != ByteClass::Comment
                })?;
                if classes[at] != ByteClass::Literal || bytes[at] != b'"' {
                    return None;
                }
                let mut q = at + 1;
                while q < bytes.len() && classes[q] == ByteClass::Literal {
                    q += 1;
                }
                Some(text[at + 1..q - 1].to_string())
            });
            if code.is_none() {
                report.findings.push((
                    file.idx,
                    Finding {
                        rule: "error-surface",
                        severity: Severity::Error,
                        line: toks[k].line,
                        col: toks[k].col,
                        message: "`Response::error` machine code is not a string literal — \
                                  clients cannot rely on the published code set"
                            .to_string(),
                        help: LITERAL_HELP,
                    },
                ));
            }
            sites.push(ErrorSite {
                idx: file.idx,
                line: toks[k].line,
                col: toks[k].col,
                status,
                code,
            });
        }
    }
    sites
}

/// Parse the DESIGN.md status-code table: rows following the
/// `| machine code | status |` header, mapping code → (status, line).
fn parse_code_table(design: &str) -> Option<BTreeMap<String, (u16, usize)>> {
    let mut lines = design.lines().enumerate();
    let _header = lines.find(|(_, l)| l.trim_start().starts_with("| machine code |"))?;
    let mut rows = BTreeMap::new();
    for (n, line) in lines {
        let trimmed = line.trim();
        if !trimmed.starts_with('|') {
            break;
        }
        let cells: Vec<&str> = trimmed.split('|').map(str::trim).collect();
        let (Some(code_cell), Some(status_cell)) = (cells.get(1), cells.get(2)) else {
            continue;
        };
        if code_cell.starts_with('-') {
            continue; // the `|---|` separator row
        }
        let code = code_cell.trim_matches('`').to_string();
        let Ok(status) = status_cell.parse::<u16>() else {
            continue;
        };
        rows.entry(code).or_insert((status, n + 1));
    }
    Some(rows)
}

fn check_error_surface(files: &[WireFile], design: Option<&str>, report: &mut WireReport) {
    // Variant coverage at the boundary.
    let defs = enum_definitions(files);
    let boundary: Vec<&WireFile> = files
        .iter()
        .filter(|f| f.crate_name == BOUNDARY_CRATE)
        .collect();
    for (name, variants) in &defs {
        let mention = boundary.iter().find_map(|f| {
            f.scanned
                .tokens
                .iter()
                .find(|t| t.text == *name && !f.scanned.in_test_region(t.offset))
                .map(|t| (f.idx, t.line, t.col))
        });
        let Some((idx, line, col)) = mention else {
            continue; // the boundary never names this enum: no mapping to audit
        };
        for variant in variants {
            let named = boundary.iter().any(|f| {
                let toks = &f.scanned.tokens;
                (0..toks.len()).any(|k| {
                    toks[k].text == *name
                        && toks.get(k + 1).is_some_and(|t| t.text == ":")
                        && toks.get(k + 2).is_some_and(|t| t.text == ":")
                        && toks.get(k + 3).is_some_and(|t| t.text == *variant)
                        && !f.scanned.in_test_region(toks[k].offset)
                })
            });
            if !named {
                report.findings.push((
                    idx,
                    Finding {
                        rule: "error-surface",
                        severity: Severity::Error,
                        line,
                        col,
                        message: format!(
                            "`{name}::{variant}` is never named at the HTTP mapping boundary: \
                             the crate handles `{name}` but this variant has no explicit arm"
                        ),
                        help: VARIANT_HELP,
                    },
                ));
            }
        }
    }

    // Machine codes vs the DESIGN.md table.
    let sites = error_sites(files, report);
    if sites.is_empty() {
        return;
    }
    let Some(table) = design.and_then(parse_code_table) else {
        report.design_findings.push(DesignFinding {
            line: 1,
            message: format!(
                "{} `Response::error` call site(s) exist but DESIGN.md has no \
                 `| machine code | status |` table to check them against",
                sites.len()
            ),
            help: CODE_HELP,
        });
        return;
    };
    let mut used: BTreeSet<&str> = BTreeSet::new();
    for site in &sites {
        let Some(code) = &site.code else { continue };
        match table.get(code.as_str()) {
            None => report.findings.push((
                site.idx,
                Finding {
                    rule: "error-surface",
                    severity: Severity::Error,
                    line: site.line,
                    col: site.col,
                    message: format!(
                        "machine code `{code}` is not in the DESIGN.md status-code table"
                    ),
                    help: CODE_HELP,
                },
            )),
            Some((status, _)) => {
                used.insert(code.as_str());
                if site.status.is_some_and(|s| s != *status) {
                    report.findings.push((
                        site.idx,
                        Finding {
                            rule: "error-surface",
                            severity: Severity::Error,
                            line: site.line,
                            col: site.col,
                            message: format!(
                                "machine code `{code}` is documented as status {status} in \
                                 DESIGN.md but this call sends {}",
                                site.status.unwrap_or(0)
                            ),
                            help: CODE_HELP,
                        },
                    ));
                }
            }
        }
    }
    for (code, (status, line)) in &table {
        if !used.contains(code.as_str()) {
            report.design_findings.push(DesignFinding {
                line: *line,
                message: format!(
                    "stale status-code table row: machine code `{code}` (status {status}) \
                     has no `Response::error` call site"
                ),
                help: "remove the row, or wire the code back into an error mapping",
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan;

    fn run(srcs: &[(&str, &str)], design: Option<&str>) -> WireReport {
        let scanned: Vec<_> = srcs.iter().map(|(_, s)| scan(s)).collect();
        let files: Vec<WireFile> = srcs
            .iter()
            .enumerate()
            .map(|(i, (krate, _))| WireFile {
                idx: i,
                crate_name: krate,
                rel: format!("crates/{krate}/src/lib.rs"),
                scanned: &scanned[i],
            })
            .collect();
        check_workspace(&files, design)
    }

    fn rules(report: &WireReport) -> Vec<&str> {
        report.findings.iter().map(|(_, f)| f.rule).collect()
    }

    #[test]
    fn keyed_shape_extracts_names_and_value_kinds() {
        let report = run(
            &[(
                "core",
                "impl WorkStats {\n\
                 pub fn to_json(&self) -> Json {\n\
                 Json::obj(vec![\n\
                 (\"ticks\", Json::Num(self.ticks as f64)),\n\
                 (\"label\", Json::Str(self.label.clone())),\n\
                 (\"done\", Json::Bool(self.done)),\n\
                 (\"inner\", self.inner.to_json()),\n\
                 ])\n\
                 }\n\
                 }\n",
            )],
            None,
        );
        assert!(report.findings.is_empty(), "{:#?}", report.findings);
        assert_eq!(report.shapes.len(), 1);
        let shape = &report.shapes[0];
        assert_eq!(shape.type_name, "WorkStats");
        assert_eq!(shape.kind, ShapeKind::Keyed);
        let keys: Vec<(&str, &str)> = shape
            .keys
            .iter()
            .map(|k| (k.name.as_str(), k.value))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("done", "bool"),
                ("inner", "nested"),
                ("label", "str"),
                ("ticks", "num"),
            ]
        );
    }

    #[test]
    fn dynamic_and_opaque_shapes_are_classified() {
        let report = run(
            &[(
                "catalog",
                "impl Tuple {\n\
                 pub fn to_json(&self) -> Json {\n\
                 Json::Obj(self.values.iter().map(|v| (name(v), v.to_json())).collect())\n\
                 }\n\
                 }\n\
                 impl Value {\n\
                 pub fn to_json(&self) -> Json {\n\
                 match self { Value::Num(n) => Json::Num(*n), _ => Json::Null }\n\
                 }\n\
                 }\n",
            )],
            None,
        );
        assert_eq!(report.shapes.len(), 2);
        assert_eq!(report.shapes[0].type_name, "Tuple");
        assert_eq!(report.shapes[0].kind, ShapeKind::Dynamic);
        assert_eq!(report.shapes[1].type_name, "Value");
        assert_eq!(report.shapes[1].kind, ShapeKind::Opaque);
    }

    #[test]
    fn duplicate_key_is_flagged() {
        let report = run(
            &[(
                "core",
                "impl S {\n\
                 pub fn to_json(&self) -> Json {\n\
                 Json::obj(vec![(\"k\", Json::Null), (\"k\", Json::Num(1.0))])\n\
                 }\n\
                 }\n",
            )],
            None,
        );
        assert_eq!(rules(&report), vec!["wire-drift"]);
        assert!(report.findings[0].1.message.contains("duplicate key `k`"));
    }

    #[test]
    fn conditional_key_requires_annotation_and_stale_is_flagged() {
        let bare = run(
            &[(
                "core",
                "impl P {\n\
                 pub fn to_json(&self) -> Json {\n\
                 match self {\n\
                 P::A => Json::obj(vec![(\"kind\", Json::Null)]),\n\
                 P::B => Json::Null,\n\
                 }\n\
                 }\n\
                 }\n",
            )],
            None,
        );
        assert_eq!(rules(&bare), vec!["wire-drift"]);
        assert!(bare.findings[0].1.message.contains("under a conditional"));
        assert!(bare.shapes[0].keys[0].optional);

        let annotated = run(
            &[(
                "core",
                "impl P {\n\
                 pub fn to_json(&self) -> Json {\n\
                 match self {\n\
                 // aimq-wire: optional -- only the A arm emits it\n\
                 P::A => Json::obj(vec![(\"kind\", Json::Null)]),\n\
                 P::B => Json::Null,\n\
                 }\n\
                 }\n\
                 }\n",
            )],
            None,
        );
        assert!(annotated.findings.is_empty(), "{:#?}", annotated.findings);

        let stale = run(
            &[(
                "core",
                "impl P {\n\
                 pub fn to_json(&self) -> Json {\n\
                 // aimq-wire: optional -- nothing conditional here\n\
                 Json::obj(vec![(\"kind\", Json::Null)])\n\
                 }\n\
                 }\n",
            )],
            None,
        );
        assert_eq!(rules(&stale), vec!["wire-drift"]);
        assert!(stale.findings[0].1.message.contains("stale"));
    }

    #[test]
    fn inventory_rendering_is_stable_json() {
        let report = run(
            &[(
                "core",
                "impl S {\n\
                 pub fn to_json(&self) -> Json {\n\
                 Json::obj(vec![(\"b\", Json::Num(1.0)), (\"a\", Json::Null)])\n\
                 }\n\
                 }\n",
            )],
            None,
        );
        let text = render_inventory(&report.shapes);
        assert!(text.contains("\"type\": \"S\""));
        // Keys are name-sorted regardless of source order.
        let a = text.find("\"name\": \"a\"").expect("a");
        let b = text.find("\"name\": \"b\"").expect("b");
        assert!(a < b);
    }

    #[test]
    fn missing_variant_at_boundary_is_flagged() {
        let serve = "pub enum ServeError { Overloaded, ShuttingDown }\n";
        let full = "fn map(e: &ServeError) -> u16 {\n\
                    match e { ServeError::Overloaded => 429, ServeError::ShuttingDown => 503 }\n\
                    }\n";
        let partial = "fn map(e: &ServeError) -> u16 {\n\
                       match e { ServeError::Overloaded => 429, other => 500 }\n\
                       }\n";
        let clean = run(&[("serve", serve), ("http", full)], None);
        assert!(clean.findings.is_empty(), "{:#?}", clean.findings);
        let broken = run(&[("serve", serve), ("http", partial)], None);
        assert_eq!(rules(&broken), vec!["error-surface"]);
        assert!(broken.findings[0]
            .1
            .message
            .contains("`ServeError::ShuttingDown` is never named"));
    }

    #[test]
    fn unwatched_enum_and_unmentioned_enum_impose_nothing() {
        // QueryError defined but never mentioned in http: no findings.
        let report = run(
            &[
                ("storage", "pub enum QueryError { Timeout, Transient }\n"),
                ("http", "fn route() -> u16 { 200 }\n"),
            ],
            None,
        );
        assert!(report.findings.is_empty(), "{:#?}", report.findings);
    }

    #[test]
    fn machine_codes_check_against_the_design_table() {
        let design = "\
# Design\n\
\n\
| machine code | status | meaning |\n\
|---|---|---|\n\
| `bad_request` | 400 | malformed body |\n\
| `overloaded` | 429 | queue full |\n";
        let good = "fn f() -> Response { Response::error(400, \"bad_request\", \"nope\") }\n\
                    fn g() -> Response { Response::error(429, \"overloaded\", \"later\") }\n";
        let clean = run(&[("http", good)], Some(design));
        assert!(clean.findings.is_empty(), "{:#?}", clean.findings);
        assert!(
            clean.design_findings.is_empty(),
            "{:#?}",
            clean.design_findings
        );

        let unknown = run(
            &[(
                "http",
                "fn f() -> Response { Response::error(400, \"mystery\", \"m\") }\n",
            )],
            Some(design),
        );
        assert!(unknown
            .findings
            .iter()
            .any(|(_, f)| f.message.contains("`mystery` is not in the DESIGN.md")));
        // Both documented rows are now stale.
        assert_eq!(unknown.design_findings.len(), 2);

        let mismatch = run(
            &[(
                "http",
                "fn f() -> Response { Response::error(500, \"bad_request\", \"m\") }\n\
                 fn g() -> Response { Response::error(429, \"overloaded\", \"later\") }\n",
            )],
            Some(design),
        );
        assert!(mismatch
            .findings
            .iter()
            .any(|(_, f)| f.message.contains("documented as status 400")
                && f.message.contains("sends 500")));
    }

    #[test]
    fn non_literal_code_and_missing_table_are_flagged() {
        let src = "fn f(code: &str) -> Response { Response::error(400, code, \"m\") }\n";
        let report = run(&[("http", src)], Some("# Design\nno table here\n"));
        assert!(report
            .findings
            .iter()
            .any(|(_, f)| f.message.contains("not a string literal")));
        assert_eq!(report.design_findings.len(), 1);
        assert!(report.design_findings[0]
            .message
            .contains("no `| machine code | status |` table"));
    }
}

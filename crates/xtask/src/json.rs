//! Machine-readable lint output: the `--json` report for `lint`, and
//! GitHub Actions workflow-command generation (`::error file=…`) from
//! it for `annotate`, so findings render inline on pull requests.
//!
//! Encoding and parsing go through [`aimq_catalog::Json`], the
//! workspace's one JSON codec.

use aimq_catalog::Json;

use crate::{LintReport, Severity};

/// The report as JSON: `{"errors": N, "warnings": N,
/// "findings": [{rule, severity, file, line, col, message, help}]}`.
pub fn to_json(report: &LintReport) -> Json {
    let findings = report
        .diagnostics
        .iter()
        .map(|d| {
            let severity = match d.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
            };
            Json::obj(vec![
                ("rule", Json::Str(d.rule.clone())),
                ("severity", Json::Str(severity.into())),
                ("file", Json::Str(d.path.display().to_string())),
                ("line", Json::Num(d.line as f64)),
                ("col", Json::Num(d.col as f64)),
                ("message", Json::Str(d.message.clone())),
                ("help", Json::Str(d.help.clone())),
            ])
        })
        .collect();
    Json::obj(vec![
        ("errors", Json::Num(report.errors() as f64)),
        ("warnings", Json::Num(report.warnings() as f64)),
        ("findings", Json::Arr(findings)),
    ])
}

/// Escape a workflow-command *value* (the message after `::…::`).
fn esc_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escape a workflow-command *property* (file=, title=).
fn esc_prop(s: &str) -> String {
    esc_data(s).replace(':', "%3A").replace(',', "%2C")
}

/// Render parsed `--json` output as GitHub Actions annotations, one
/// `::error`/`::warning` workflow command per finding.
pub fn annotations(doc: &Json) -> Result<String, String> {
    let findings = doc
        .get("findings")
        .and_then(Json::as_array)
        .ok_or("lint JSON has no `findings` array")?;
    let mut out = String::new();
    for f in findings {
        let field = |k: &str| {
            f.get(k)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("finding missing string field `{k}`"))
        };
        let num = |k: &str| {
            f.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("finding missing numeric field `{k}`"))
        };
        let command = match field("severity")? {
            "warning" => "warning",
            _ => "error",
        };
        out.push_str(&format!(
            "::{command} file={},line={},col={},title=aimq::{}::{}\n",
            esc_prop(field("file")?),
            num("line")?,
            num("col")?,
            esc_prop(field("rule")?),
            esc_data(field("message")?),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Diagnostic;
    use std::path::PathBuf;

    fn sample_report() -> LintReport {
        LintReport {
            diagnostics: vec![
                Diagnostic {
                    rule: "lock-discipline".into(),
                    severity: Severity::Error,
                    path: PathBuf::from("crates/serve/src/queue.rs"),
                    line: 40,
                    col: 12,
                    message: "guard held across `recv`, \"quoted\"".into(),
                    snippet: "    let s = lock(&self.state);".into(),
                    help: "drop the guard first".into(),
                },
                Diagnostic {
                    rule: "indexing".into(),
                    severity: Severity::Warning,
                    path: PathBuf::from("crates/core/src/engine.rs"),
                    line: 7,
                    col: 3,
                    message: "direct indexing".into(),
                    snippet: String::new(),
                    help: String::new(),
                },
            ],
        }
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let report = sample_report();
        let doc = Json::parse(&to_json(&report).to_string()).expect("parse own output");
        assert_eq!(doc.get("errors").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("warnings").and_then(Json::as_u64), Some(1));
        let findings = doc
            .get("findings")
            .and_then(Json::as_array)
            .expect("findings array");
        assert_eq!(findings.len(), 2);
        assert_eq!(
            findings[0].get("rule").and_then(Json::as_str),
            Some("lock-discipline")
        );
        assert_eq!(
            findings[0].get("message").and_then(Json::as_str),
            Some("guard held across `recv`, \"quoted\"")
        );
        assert_eq!(findings[1].get("line").and_then(Json::as_u64), Some(7));
    }

    #[test]
    fn annotations_escape_workflow_metacharacters() {
        let report = sample_report();
        let doc = Json::parse(&to_json(&report).to_string()).expect("parse");
        let ann = annotations(&doc).expect("annotate");
        let lines: Vec<&str> = ann.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].starts_with("::error file=crates/serve/src/queue.rs,line=40,col=12,"),
            "{ann}"
        );
        assert!(lines[1].starts_with("::warning "), "{ann}");
        // Message text rides after the `::` separator unescaped except
        // for %, CR, LF.
        assert!(lines[0].contains("guard held across `recv`"), "{ann}");
    }
}

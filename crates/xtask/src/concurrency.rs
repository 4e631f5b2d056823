//! L5 `lock-discipline` checks over the structural facts produced by
//! [`crate::structure::analyze`].
//!
//! Per-file pass ([`check_file`]): unannotated lock fields,
//! unresolvable acquisitions, same-family re-acquisition, and guards
//! held across blocking calls.
//!
//! Workspace pass ([`check_workspace`]): a may-acquire fixpoint over
//! the shared [`crate::callgraph`] module computes which lock families
//! each function may transitively acquire; every nested acquisition —
//! direct or through a call made with a guard live — becomes an
//! ordering edge between families, and any edge that closes a cycle
//! (including self-loops through helper calls) is a deadlock-potential
//! finding at the site that closes it.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CallGraph, CALLEE_BLOCKLIST};
use crate::rules::{Finding, Severity};
use crate::structure::FileAnalysis;

const LOCK_HELP: &str = "declare a family with `// aimq-lock: family(<name>) -- <why>` on the \
                         field, mark indirect acquisitions with `// aimq-lock: use(<name>)`, or \
                         justify with `// aimq-lint: allow(lock-discipline) -- <why>`";

const ORDER_HELP: &str = "pick one global acquisition order for these families and release the \
                          outer guard first, or justify with \
                          `// aimq-lint: allow(lock-discipline) -- <why this cannot deadlock>`";

const BLOCKING_HELP: &str = "drop (or scope) the guard before the blocking call — clone what you \
                             need out of the critical section — or justify with \
                             `// aimq-lint: allow(lock-discipline) -- <why the wait is bounded>`";

/// Per-file L5 findings.
pub fn check_file(analysis: &FileAnalysis) -> Vec<Finding> {
    let mut findings = Vec::new();

    // L5: every owned lock must belong to a named family.
    for field in &analysis.lock_fields {
        if field.family.is_none() {
            findings.push(Finding {
                rule: "lock-discipline",
                severity: Severity::Error,
                line: field.line,
                col: field.col,
                message: format!("lock field `{}` has no lock-family annotation", field.name),
                help: LOCK_HELP,
            });
        }
    }
    for f in &analysis.functions {
        for acq in &f.acquisitions {
            match &acq.family {
                None => findings.push(Finding {
                    rule: "lock-discipline",
                    severity: Severity::Error,
                    line: acq.line,
                    col: acq.col,
                    message: format!(
                        "cannot attribute this lock acquisition{} to a declared family",
                        if acq.receiver.is_empty() {
                            String::new()
                        } else {
                            format!(" (receiver `{}`)", acq.receiver)
                        }
                    ),
                    help: LOCK_HELP,
                }),
                Some(fam) if acq.held.iter().any(|h| h == fam) => findings.push(Finding {
                    rule: "lock-discipline",
                    severity: Severity::Error,
                    line: acq.line,
                    col: acq.col,
                    message: format!(
                        "re-acquiring lock family `{fam}` while a `{fam}` guard is already live \
                         in `{}` deadlocks (std Mutex is not reentrant)",
                        f.name
                    ),
                    help: ORDER_HELP,
                }),
                Some(_) => {}
            }
        }
        for b in &f.blocking {
            findings.push(Finding {
                rule: "lock-discipline",
                severity: Severity::Error,
                line: b.line,
                col: b.col,
                message: format!(
                    "`{}` guard (acquired on line {}) is held across blocking call `{}` in `{}`",
                    b.family, b.acquired_line, b.callee, f.name
                ),
                help: BLOCKING_HELP,
            });
        }
    }

    findings
}

/// One lock-ordering edge: family `from` is held while `to` is
/// acquired, at `(file_idx, line, col)`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Edge {
    from: String,
    to: String,
    file_idx: usize,
    line: usize,
    col: usize,
    /// Callee the nested acquisition routes through, when indirect.
    via: Option<String>,
}

/// Workspace-wide L5 pass. `analyses` pairs each file's index with its
/// facts; returned findings carry the index of the file they occur in
/// so the caller can apply that file's suppressions.
pub fn check_workspace(analyses: &[(usize, &FileAnalysis)]) -> Vec<(usize, Finding)> {
    // Seeds: families each (name-merged) function directly acquires;
    // the shared call-graph fixpoint closes them into the families a
    // call may transitively acquire.
    let mut seeds: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (_, analysis) in analyses {
        for f in &analysis.functions {
            seeds
                .entry(f.name.clone())
                .or_default()
                .extend(f.acquisitions.iter().filter_map(|a| a.family.clone()));
        }
    }
    let graph = CallGraph::build(analyses.iter().map(|(_, a)| *a));
    let may = graph.reach_facts(&seeds);

    // Collect ordering edges: direct nested acquisitions and calls that
    // may acquire while a guard is live.
    let mut edges: Vec<Edge> = Vec::new();
    let mut push_edge = |e: Edge| {
        if !edges.contains(&e) {
            edges.push(e);
        }
    };
    for (idx, analysis) in analyses {
        for f in &analysis.functions {
            for acq in &f.acquisitions {
                let Some(to) = &acq.family else { continue };
                for from in &acq.held {
                    // Same-family re-acquisition is a per-file finding;
                    // cross-family nesting is an ordering edge.
                    if from != to {
                        push_edge(Edge {
                            from: from.clone(),
                            to: to.clone(),
                            file_idx: *idx,
                            line: acq.line,
                            col: acq.col,
                            via: None,
                        });
                    }
                }
            }
            for call in &f.held_calls {
                if CALLEE_BLOCKLIST.contains(&call.callee.as_str()) {
                    continue;
                }
                let Some(fams) = may.get(call.callee.as_str()) else {
                    continue;
                };
                for to in fams {
                    for from in &call.held {
                        push_edge(Edge {
                            from: from.clone(),
                            to: to.clone(),
                            file_idx: *idx,
                            line: call.line,
                            col: call.col,
                            via: Some(call.callee.clone()),
                        });
                    }
                }
            }
        }
    }

    // An edge A→B is a deadlock hazard when B already reaches A (a
    // cycle, including A==B through a call). Report the edge that
    // closes the cycle, at its site, so each participant can be fixed
    // or justified where it occurs.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &edges {
        adj.entry(e.from.as_str())
            .or_default()
            .insert(e.to.as_str());
    }
    let reaches = |start: &str, target: &str| -> bool {
        if start == target {
            return true;
        }
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![start];
        while let Some(node) = stack.pop() {
            if !seen.insert(node) {
                continue;
            }
            if let Some(nexts) = adj.get(node) {
                for n in nexts {
                    if *n == target {
                        return true;
                    }
                    stack.push(n);
                }
            }
        }
        false
    };
    let mut findings = Vec::new();
    for e in &edges {
        if !reaches(&e.to, &e.from) {
            continue;
        }
        let via = e
            .via
            .as_deref()
            .map(|c| format!(" (via call to `{c}`)"))
            .unwrap_or_default();
        findings.push((
            e.file_idx,
            Finding {
                rule: "lock-discipline",
                severity: Severity::Error,
                line: e.line,
                col: e.col,
                message: format!(
                    "acquiring lock family `{}`{via} while holding `{}` closes an \
                     acquisition-order cycle (deadlock potential)",
                    e.to, e.from
                ),
                help: ORDER_HELP,
            },
        ));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan;
    use crate::structure::analyze;

    fn rules_hit(src: &str) -> Vec<String> {
        check_file(&analyze(&scan(src)))
            .into_iter()
            .map(|f| f.message)
            .collect()
    }

    #[test]
    fn unannotated_lock_field_is_flagged() {
        let msgs = rules_hit("struct S { state: Mutex<u32>, hits: Counter }");
        assert_eq!(msgs.len(), 1, "{msgs:#?}");
        assert!(msgs[0].contains("`state` has no lock-family"));
    }

    #[test]
    fn same_family_reacquisition_is_flagged() {
        let src = "\
struct S {\n\
    // aimq-lock: family(meta) -- guards metadata\n\
    state: Mutex<u32>,\n\
}\n\
impl S {\n\
    fn f(&self) {\n\
        let a = lock(&self.state);\n\
        let b = lock(&self.state);\n\
    }\n\
}\n";
        let msgs = rules_hit(src);
        assert_eq!(msgs.len(), 1, "{msgs:#?}");
        assert!(msgs[0].contains("re-acquiring lock family `meta`"));
    }

    fn analyses(srcs: &[&str]) -> Vec<FileAnalysis> {
        srcs.iter().map(|s| analyze(&scan(s))).collect()
    }

    #[test]
    fn cross_file_acquisition_order_cycle_is_detected() {
        // File 0 takes a then b; file 1 takes b then a.
        let a_then_b = "\
struct S {\n\
    // aimq-lock: family(a) -- left\n\
    left: Mutex<u32>,\n\
    // aimq-lock: family(b) -- right\n\
    right: Mutex<u32>,\n\
}\n\
impl S {\n\
    fn fwd(&self) { let l = lock(&self.left); let r = lock(&self.right); }\n\
}\n";
        let b_then_a = "\
struct T {\n\
    // aimq-lock: family(b) -- right\n\
    right: Mutex<u32>,\n\
    // aimq-lock: family(a) -- left\n\
    left: Mutex<u32>,\n\
}\n\
impl T {\n\
    fn rev(&self) { let r = lock(&self.right); let l = lock(&self.left); }\n\
}\n";
        let files = analyses(&[a_then_b, b_then_a]);
        let refs: Vec<(usize, &FileAnalysis)> = files.iter().enumerate().collect();
        let found = check_workspace(&refs);
        assert_eq!(found.len(), 2, "{found:#?}");
        assert!(found.iter().any(|(i, _)| *i == 0));
        assert!(found.iter().any(|(i, _)| *i == 1));
        assert!(found[0].1.message.contains("acquisition-order cycle"));
    }

    #[test]
    fn consistent_order_is_clean_and_indirect_cycles_are_caught() {
        let consistent = "\
struct S {\n\
    // aimq-lock: family(a) -- left\n\
    left: Mutex<u32>,\n\
    // aimq-lock: family(b) -- right\n\
    right: Mutex<u32>,\n\
}\n\
impl S {\n\
    fn one(&self) { let l = lock(&self.left); let r = lock(&self.right); }\n\
    fn two(&self) { let l = lock(&self.left); let r = lock(&self.right); }\n\
}\n";
        let files = analyses(&[consistent]);
        let refs: Vec<(usize, &FileAnalysis)> = files.iter().enumerate().collect();
        assert!(check_workspace(&refs).is_empty());

        // Indirect: `helper` acquires b; `outer` calls it holding a,
        // while `other` acquires a holding b.
        let indirect = "\
struct S {\n\
    // aimq-lock: family(a) -- left\n\
    left: Mutex<u32>,\n\
    // aimq-lock: family(b) -- right\n\
    right: Mutex<u32>,\n\
}\n\
impl S {\n\
    fn helper(&self) { let r = lock(&self.right); }\n\
    fn outer(&self) { let l = lock(&self.left); self.helper(); }\n\
    fn other(&self) { let r = lock(&self.right); let l = lock(&self.left); }\n\
}\n";
        let files = analyses(&[indirect]);
        let refs: Vec<(usize, &FileAnalysis)> = files.iter().enumerate().collect();
        let found = check_workspace(&refs);
        assert!(
            found
                .iter()
                .any(|(_, f)| f.message.contains("via call to `helper`")),
            "{found:#?}"
        );
    }

    #[test]
    fn blocking_call_under_guard_is_flagged() {
        let src = "\
struct S {\n\
    // aimq-lock: family(meta) -- guards metadata\n\
    state: Mutex<u32>,\n\
}\n\
impl S {\n\
    fn f(&self) {\n\
        let s = lock(&self.state);\n\
        self.inner.try_query(q);\n\
    }\n\
}\n";
        let msgs = rules_hit(src);
        assert_eq!(msgs.len(), 1, "{msgs:#?}");
        assert!(msgs[0].contains("held across blocking call `try_query`"));
    }
}

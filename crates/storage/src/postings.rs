//! Posting-list selection and the shared relaxation-plan executor.
//!
//! Algorithm 1 compiles one imprecise query into dozens of heavily
//! overlapping relaxed selections: every relaxed query of a base tuple's
//! plan is the tuple query minus a few predicates, so consecutive plan
//! entries share almost all of their conjuncts. Evaluating each query
//! independently re-pays the shared work on every probe.
//!
//! This module evaluates a selection as a *smallest-term-first fold*:
//!
//! * every attribute's predicate group resolves to a lazy **term** whose
//!   exact row count is known without building its row list — a
//!   categorical equality keeps its dictionary code and borrows its
//!   inverted-index posting list; a numeric group keeps its
//!   `partition_point` position range over the value-sorted index and
//!   the values at the range's two ends;
//! * the terms fold in ascending `(cardinality, AttrId)` order; only the
//!   first (the *driver*) is materialized — a borrowed posting, or the
//!   attribute's [`crate::FacetTree`] for a numeric range;
//! * every later term is a row filter over the running list, reading
//!   the column's codes or numbers with the IEEE comparisons of
//!   [`Predicate::matches`].
//!
//! Every predicate class resolves to an *exact* term (type-mismatched,
//! non-equality-on-categorical, contradictory and null/NaN-valued groups
//! are provably empty), so no verification pass remains and results are
//! byte-identical to a full scan, in ascending row order.
//!
//! [`PlanExecutor`] adds the sharing layer: terms and every fold
//! *prefix* (in the cardinality order) are memoized across the queries
//! of one plan, so the base query's conjunction is evaluated exactly
//! once and each relaxed query only pays its delta. [`ExecStats`]
//! meters the sharing for tests and benchmarks.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::num::Saturating;

use aimq_catalog::{AttrId, Domain, Predicate, PredicateOp, SelectionQuery};

use crate::{FacetTree, Relation, RowId};

/// K-way merge union of ascending row-id lists into one ascending,
/// duplicate-free list.
pub fn union_kway(lists: &[&[RowId]]) -> Vec<RowId> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut cursors = vec![0usize; lists.len()];
    let mut heap: BinaryHeap<Reverse<(RowId, usize)>> = lists
        .iter()
        .enumerate()
        .filter_map(|(i, list)| list.first().map(|&row| Reverse((row, i))))
        .collect();
    let mut out = Vec::with_capacity(lists.iter().map(|l| l.len()).sum());
    while let Some(Reverse((row, i))) = heap.pop() {
        if out.last() != Some(&row) {
            out.push(row);
        }
        let next = cursors.get(i).map_or(0, |&c| c + 1);
        if let Some(cursor) = cursors.get_mut(i) {
            *cursor = next;
        }
        if let Some(&row) = lists.get(i).and_then(|list| list.get(next)) {
            heap.push(Reverse((row, i)));
        }
    }
    out
}

/// Sharing meters of a [`PlanExecutor`]. Every fold prefix a query
/// walks is either a memo hit or exactly one driver materialization
/// (length-1 prefix) or one row filter (longer prefix), so
/// `drivers_materialized + filters_applied` counts the distinct ordered
/// prefixes of the plan, and a query whose every prefix was already
/// folded — a re-probed base query — moves `prefix_memo_hits` alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Queries evaluated through [`PlanExecutor::execute`].
    pub queries_executed: Saturating<u64>,
    /// Per-attribute terms resolved to lazy handles (term-memo misses);
    /// resolving builds no row list.
    pub terms_evaluated: Saturating<u64>,
    /// Terms answered by the term memo without re-resolution.
    pub term_memo_hits: Saturating<u64>,
    /// First terms materialized into a row list (length-1 prefix-memo
    /// misses): a borrowed posting or a facet-tree range.
    pub drivers_materialized: Saturating<u64>,
    /// Row filters run over a running list (longer prefix-memo misses).
    pub filters_applied: Saturating<u64>,
    /// Fold prefixes answered by the prefix memo — subexpressions
    /// (including whole queries) this plan did *not* re-evaluate.
    pub prefix_memo_hits: Saturating<u64>,
}

/// One attribute's predicate group, resolved to a handle whose exact row
/// count is known without building its row list.
#[derive(Debug, Clone, Copy)]
enum Term<'a> {
    /// Provably matches no row.
    Empty,
    /// Categorical equality: the code's posting list, and the column's
    /// codes to filter against.
    Code {
        code: u32,
        postings: &'a [RowId],
        codes: &'a [u32],
    },
    /// Numeric group: the non-empty position range `[start, end)` of the
    /// value-sorted index, the values at its two ends, the attribute's
    /// facet tree to materialize it and its column to filter against.
    Range {
        start: usize,
        end: usize,
        low: f64,
        high: f64,
        tree: &'a FacetTree,
        numbers: &'a [f64],
    },
}

impl<'a> Term<'a> {
    /// Exact number of matching rows.
    fn len(&self) -> usize {
        match *self {
            Term::Empty => 0,
            Term::Code { postings, .. } => postings.len(),
            Term::Range { start, end, .. } => end - start,
        }
    }

    /// The term's ascending row list — borrowed where the relation
    /// already stores it.
    fn materialize(&self) -> Cow<'a, [RowId]> {
        match *self {
            Term::Empty => Cow::Borrowed(&[]),
            Term::Code { postings, .. } => Cow::Borrowed(postings),
            Term::Range {
                start, end, tree, ..
            } => Cow::Owned(tree.rows_in_positions(start, end)),
        }
    }

    /// Whether `row` matches the term. A range term keeps exactly the
    /// rows whose value `x` has `low <= x <= high`: `partition_point`
    /// over IEEE comparisons never splits an IEEE-equal run (`-0.0`,
    /// `0.0`) of the `total_cmp`-sorted index, so this is membership in
    /// `[start, end)`, and a NaN (null) value fails both comparisons.
    fn keeps(&self, row: RowId) -> bool {
        let row = row as usize;
        match *self {
            Term::Empty => false,
            Term::Code { code, codes, .. } => codes.get(row) == Some(&code),
            Term::Range {
                low, high, numbers, ..
            } => numbers.get(row).is_some_and(|&x| low <= x && x <= high),
        }
    }
}

/// Evaluates the queries of one relaxation plan over a shared
/// subexpression DAG.
///
/// Each query canonicalizes into per-attribute predicate groups
/// ("terms") folded smallest first: in ascending `(cardinality,
/// AttrId)` order, the first term materialized and every later one a
/// row filter. Two memo layers make the plan's overlap free:
///
/// 1. **Term memo** — a term (one attribute's full predicate group)
///    resolves once, however many queries contain it.
/// 2. **Prefix memo** — every fold prefix `t₁, t₂, …, tᵢ` is memoized
///    under its ordered term-id sequence. The order depends only on the
///    query's set of terms, so queries sharing their smallest terms
///    (every relaxed query keeps most of the base query's) reuse the
///    stored list and only filter their delta; a query whose full term
///    sequence was already folded — the base query re-probed, or a
///    duplicate plan entry — costs only memo lookups.
///
/// Lists live in an arena; memo values are arena indexes, so sharing a
/// subexpression never copies it. The executor borrows its relation and
/// is scoped to one plan — cross-plan caching belongs to
/// [`crate::CachedWebDb`] at the source boundary.
#[derive(Debug)]
pub struct PlanExecutor<'a> {
    relation: &'a Relation,
    /// Arena of fold results: borrowed postings and owned row lists.
    arena: Vec<Cow<'a, [RowId]>>,
    /// Term memo: canonical per-attribute predicate group → term id
    /// (its insertion ordinal) and resolved term.
    terms: BTreeMap<Vec<Predicate>, (usize, Term<'a>)>,
    /// Prefix memo: term-id sequence in fold order → arena index.
    prefixes: BTreeMap<Vec<usize>, usize>,
    stats: ExecStats,
}

impl<'a> PlanExecutor<'a> {
    /// An executor over `relation` with empty memos.
    pub fn new(relation: &'a Relation) -> Self {
        PlanExecutor {
            relation,
            arena: Vec::new(),
            terms: BTreeMap::new(),
            prefixes: BTreeMap::new(),
            stats: ExecStats::default(),
        }
    }

    /// The sharing meters accumulated so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Evaluate one selection, returning matching row ids in ascending
    /// order — byte-identical to a full scan with
    /// [`SelectionQuery::matches`].
    pub fn execute(&mut self, query: &SelectionQuery) -> Vec<RowId> {
        self.stats.queries_executed += 1;

        let mut groups: BTreeMap<AttrId, Vec<Predicate>> = BTreeMap::new();
        for p in query.canonicalize().predicates() {
            groups.entry(p.attr).or_default().push(p.clone());
        }
        if groups.is_empty() {
            // No predicates: every row matches.
            return self.relation.rows().collect();
        }
        let mut order: Vec<(usize, Term<'a>)> =
            groups.into_values().map(|g| self.term(g)).collect();
        // Stable: equal cardinalities keep ascending attribute order.
        order.sort_by_key(|(_, term)| term.len());

        let mut prefix: Vec<usize> = Vec::with_capacity(order.len());
        let mut current: Option<usize> = None;
        for (id, term) in order {
            prefix.push(id);
            if let Some(&idx) = self.prefixes.get(&prefix) {
                self.stats.prefix_memo_hits += 1;
                current = Some(idx);
                continue;
            }
            let rows = match current.and_then(|idx| self.arena.get(idx)) {
                None => {
                    self.stats.drivers_materialized += 1;
                    term.materialize()
                }
                Some(running) => {
                    self.stats.filters_applied += 1;
                    Cow::Owned(running.iter().copied().filter(|&r| term.keeps(r)).collect())
                }
            };
            self.arena.push(rows);
            let idx = self.arena.len() - 1;
            self.prefixes.insert(prefix.clone(), idx);
            current = Some(idx);
        }
        current
            .and_then(|idx| self.arena.get(idx))
            .map(|rows| rows.to_vec())
            .unwrap_or_default()
    }

    /// Id and resolved term of one attribute's canonical predicate
    /// group, via the term memo.
    fn term(&mut self, group: Vec<Predicate>) -> (usize, Term<'a>) {
        if let Some(&entry) = self.terms.get(&group) {
            self.stats.term_memo_hits += 1;
            return entry;
        }
        self.stats.terms_evaluated += 1;
        let entry = (self.terms.len(), resolve_term(self.relation, &group));
        self.terms.insert(group, entry);
        entry
    }
}

/// One-shot evaluation of a single selection through the postings path
/// (a throwaway [`PlanExecutor`]; plans should share one executor).
pub fn execute_query(relation: &Relation, query: &SelectionQuery) -> Vec<RowId> {
    PlanExecutor::new(relation).execute(query)
}

/// Resolve one attribute's predicate group to its exact term.
///
/// Exactness case analysis against [`Predicate::matches`]:
///
/// * attribute out of schema range → no tuple value → empty;
/// * null-valued predicate → null tuple values never satisfy anything
///   and non-null values never equal null → empty;
/// * **categorical attribute**: only `Eq` with a categorical value can
///   match (range operators and numeric constants fall to the `matches`
///   catch-all `false`); nulls are excluded from postings at build time,
///   two different equality constants are contradictory → empty;
/// * **numeric attribute**: only numeric constants can match; `NaN`
///   constants satisfy no IEEE comparison and equal no non-null decoded
///   value → empty; finite/infinite constants map to a position range
///   over the value-sorted (NaN-free) index via `partition_point`, with
///   `Eq v` the band `[first ≥ v, first > v)` — exact for `±0.0`
///   (IEEE comparisons are monotone over the `total_cmp` order and
///   collapse the zero pair exactly as `Value`'s equality does) and for
///   `±∞` (no `next_up` widening of a half-open bound); an empty range
///   (contradictory bounds included) → empty.
fn resolve_term<'a>(relation: &'a Relation, group: &[Predicate]) -> Term<'a> {
    let attr = group.first().map_or(AttrId(usize::MAX), |p| p.attr);
    let Some(attribute) = relation.schema().attributes().get(attr.index()) else {
        return Term::Empty;
    };
    if group.iter().any(|p| p.value.is_null()) {
        return Term::Empty;
    }
    match attribute.domain() {
        Domain::Categorical => {
            let mut value: Option<&str> = None;
            for p in group {
                let (PredicateOp::Eq, Some(cat)) = (p.op, p.value.as_cat()) else {
                    return Term::Empty;
                };
                match value {
                    Some(v) if v != cat => return Term::Empty,
                    _ => value = Some(cat),
                }
            }
            let column = relation.column(attr);
            let code = value.and_then(|v| column.dictionary().and_then(|d| d.code_of(v)));
            match (code, column.codes()) {
                (Some(code), Some(codes)) => Term::Code {
                    code,
                    postings: relation.rows_with_code(attr, code),
                    codes,
                },
                _ => Term::Empty,
            }
        }
        Domain::Numeric => {
            let index = relation.numeric_sorted(attr);
            let mut start = 0usize;
            let mut end = index.len();
            for p in group {
                let Some(v) = p.value.as_num() else {
                    return Term::Empty;
                };
                if v.is_nan() {
                    return Term::Empty;
                }
                // `partition_point` with IEEE comparisons: monotone over
                // the NaN-free `total_cmp` order, exact at ±0.0 and ±∞.
                match p.op {
                    PredicateOp::Ge => start = start.max(index.partition_point(|&(x, _)| x < v)),
                    PredicateOp::Gt => start = start.max(index.partition_point(|&(x, _)| x <= v)),
                    PredicateOp::Lt => end = end.min(index.partition_point(|&(x, _)| x < v)),
                    PredicateOp::Le => end = end.min(index.partition_point(|&(x, _)| x <= v)),
                    PredicateOp::Eq => {
                        start = start.max(index.partition_point(|&(x, _)| x < v));
                        end = end.min(index.partition_point(|&(x, _)| x <= v));
                    }
                }
            }
            if start >= end {
                return Term::Empty;
            }
            // `Relation::build` gives every numeric column a tree.
            match (
                index.get(start),
                index.get(end - 1),
                relation.facet_tree(attr),
                relation.column(attr).numbers(),
            ) {
                (Some(&(low, _)), Some(&(high, _)), Some(tree), Some(numbers)) => Term::Range {
                    start,
                    end,
                    low,
                    high,
                    tree,
                    numbers,
                },
                _ => Term::Empty,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimq_catalog::{Schema, Tuple, Value};
    use proptest::prelude::*;

    #[test]
    fn union_kway_basics() {
        assert_eq!(union_kway(&[]), Vec::<RowId>::new());
        assert_eq!(union_kway(&[&[], &[]]), Vec::<RowId>::new());
        assert_eq!(union_kway(&[&[1, 3], &[2, 4]]), vec![1, 2, 3, 4]);
        assert_eq!(
            union_kway(&[&[1, 2, 3], &[2, 3, 4], &[0, 4]]),
            vec![0, 1, 2, 3, 4]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn union_matches_reference_union(
            lists in prop::collection::vec(prop::collection::vec(0u32..100, 0..30), 0..6),
        ) {
            let sorted: Vec<Vec<RowId>> = lists
                .iter()
                .map(|l| { let mut l = l.clone(); l.sort_unstable(); l.dedup(); l })
                .collect();
            let slices: Vec<&[RowId]> = sorted.iter().map(Vec::as_slice).collect();
            let mut expect: Vec<RowId> = sorted.iter().flatten().copied().collect();
            expect.sort_unstable();
            expect.dedup();
            prop_assert_eq!(union_kway(&slices), expect);
        }
    }

    fn relation() -> Relation {
        let schema = Schema::builder("CarDB")
            .categorical("Make")
            .categorical("Model")
            .numeric("Year")
            .numeric("Price")
            .build()
            .unwrap();
        let rows = [
            ("Toyota", "Camry", 2000.0, 10000.0),
            ("Toyota", "Camry", 1998.0, 7000.0),
            ("Honda", "Accord", 2001.0, 11000.0),
            ("Toyota", "Corolla", 2000.0, 8500.0),
            ("Ford", "Focus", 2002.0, 9000.0),
            ("Honda", "Civic", 1999.0, 6500.0),
        ];
        let tuples: Vec<Tuple> = rows
            .iter()
            .map(|&(mk, md, y, p)| {
                Tuple::new(
                    &schema,
                    vec![Value::cat(mk), Value::cat(md), Value::num(y), Value::num(p)],
                )
                .unwrap()
            })
            .collect();
        Relation::from_tuples(schema, &tuples).unwrap()
    }

    fn scan(r: &Relation, q: &SelectionQuery) -> Vec<RowId> {
        r.rows().filter(|&i| q.matches(&r.tuple(i))).collect()
    }

    #[test]
    fn executor_matches_scan_on_mixed_queries() {
        let r = relation();
        let queries = [
            SelectionQuery::all(),
            SelectionQuery::new(vec![Predicate::eq(AttrId(0), Value::cat("Toyota"))]),
            SelectionQuery::new(vec![
                Predicate::eq(AttrId(0), Value::cat("Toyota")),
                Predicate::eq(AttrId(1), Value::cat("Camry")),
            ]),
            SelectionQuery::new(vec![
                Predicate::eq(AttrId(0), Value::cat("Honda")),
                Predicate {
                    attr: AttrId(3),
                    op: PredicateOp::Ge,
                    value: Value::num(7000.0),
                },
                Predicate {
                    attr: AttrId(3),
                    op: PredicateOp::Lt,
                    value: Value::num(11000.0),
                },
            ]),
            // Contradictions and type mismatches are exactly empty.
            SelectionQuery::new(vec![
                Predicate::eq(AttrId(0), Value::cat("Toyota")),
                Predicate::eq(AttrId(0), Value::cat("Honda")),
            ]),
            SelectionQuery::new(vec![Predicate::eq(AttrId(2), Value::cat("2000"))]),
            SelectionQuery::new(vec![Predicate::eq(AttrId(0), Value::num(1.0))]),
            SelectionQuery::new(vec![Predicate::eq(AttrId(99), Value::cat("x"))]),
            SelectionQuery::new(vec![Predicate {
                attr: AttrId(3),
                op: PredicateOp::Lt,
                value: Value::num(f64::NAN),
            }]),
            SelectionQuery::new(vec![Predicate::eq(AttrId(3), Value::Null)]),
        ];
        let mut exec = PlanExecutor::new(&r);
        for q in &queries {
            // Out-of-schema attributes would panic the scan; they are
            // exactly empty by the executor's contract.
            let expect = if q.predicates().iter().all(|p| p.attr.index() < 4) {
                scan(&r, q)
            } else {
                Vec::new()
            };
            assert_eq!(exec.execute(q), expect, "query {q:?}");
            assert_eq!(execute_query(&r, q), expect, "one-shot {q:?}");
        }
    }

    #[test]
    fn shared_plan_folds_each_ordered_prefix_exactly_once() {
        let r = relation();
        // Make=Toyota matches 3 rows, Model=Camry 2 and Year=2000 2, so
        // the base query folds Model, Year (the tie goes to the lower
        // attribute), then Make.
        let base = SelectionQuery::new(vec![
            Predicate::eq(AttrId(0), Value::cat("Toyota")),
            Predicate::eq(AttrId(1), Value::cat("Camry")),
            Predicate::eq(AttrId(2), Value::num(2000.0)),
        ]);
        // Algorithm 1's plan shape: the base query, then relaxations
        // dropping one attribute each, then the base query again (a
        // re-probe after relaxation — the redundancy the DAG absorbs).
        let plan = [
            base.clone(),
            base.relax(&[AttrId(2)]),
            base.relax(&[AttrId(1)]),
            base.relax(&[AttrId(0)]),
            base.clone(),
        ];
        let mut exec = PlanExecutor::new(&r);
        let results: Vec<Vec<RowId>> = plan.iter().map(|q| exec.execute(q)).collect();
        for (q, rows) in plan.iter().zip(&results) {
            assert_eq!(rows, &scan(&r, q));
        }
        assert_eq!(results[0], results[4], "re-probed base identical");

        // Distinct ordered prefixes: [Model], [Model, Year],
        // [Model, Year, Make] (base); [Model, Make] (relax Year);
        // [Year], [Year, Make] (relax Model). Relax Make is
        // [Model, Year], two hits; the re-probed base is three.
        assert_eq!(
            exec.stats(),
            ExecStats {
                queries_executed: Saturating(5),
                terms_evaluated: Saturating(3),
                term_memo_hits: Saturating(9),
                drivers_materialized: Saturating(2),
                filters_applied: Saturating(4),
                prefix_memo_hits: Saturating(6),
            }
        );

        // One more re-probe of the base query moves the memo-hit
        // counters alone.
        let before = exec.stats();
        assert_eq!(exec.execute(&base), results[0]);
        assert_eq!(
            exec.stats(),
            ExecStats {
                queries_executed: before.queries_executed + Saturating(1),
                term_memo_hits: before.term_memo_hits + Saturating(3),
                prefix_memo_hits: before.prefix_memo_hits + Saturating(3),
                ..before
            }
        );
    }

    #[test]
    fn numeric_driver_filters_categorical_terms() {
        let r = relation();
        // Price in [8000, 9500) matches 2 rows, fewer than Make=Toyota's
        // 3, so the facet tree drives and Make filters.
        let q = SelectionQuery::new(vec![
            Predicate::eq(AttrId(0), Value::cat("Toyota")),
            Predicate {
                attr: AttrId(3),
                op: PredicateOp::Ge,
                value: Value::num(8000.0),
            },
            Predicate {
                attr: AttrId(3),
                op: PredicateOp::Lt,
                value: Value::num(9500.0),
            },
        ]);
        let mut exec = PlanExecutor::new(&r);
        assert_eq!(exec.execute(&q), vec![3]);
        assert_eq!(exec.execute(&q.relax(&[AttrId(0)])), vec![3, 4]);
        let stats = exec.stats();
        assert_eq!(stats.drivers_materialized.0, 1, "the range drove both");
        assert_eq!(stats.filters_applied.0, 1);
        assert_eq!(stats.prefix_memo_hits.0, 1);
    }

    #[test]
    fn permuted_and_duplicated_predicates_share_terms() {
        let r = relation();
        let a = Predicate::eq(AttrId(0), Value::cat("Toyota"));
        let b = Predicate {
            attr: AttrId(3),
            op: PredicateOp::Lt,
            value: Value::num(9000.0),
        };
        let q1 = SelectionQuery::new(vec![a.clone(), b.clone()]);
        let q2 = SelectionQuery::new(vec![b.clone(), a.clone(), a.clone()]);
        let mut exec = PlanExecutor::new(&r);
        let r1 = exec.execute(&q1);
        let r2 = exec.execute(&q2);
        assert_eq!(r1, r2);
        assert_eq!(r1, scan(&r, &q1));
        let stats = exec.stats();
        assert_eq!(stats.terms_evaluated.0, 2, "permutation shares both terms");
        assert_eq!(stats.drivers_materialized.0, 1);
        assert_eq!(stats.filters_applied.0, 1);
        assert_eq!(stats.prefix_memo_hits.0, 2, "q2 is a whole-prefix replay");
    }

    #[test]
    fn numeric_edge_values_are_exact() {
        let schema = Schema::builder("R").numeric("X").build().unwrap();
        let values = [f64::NEG_INFINITY, -1.0, -0.0, 0.0, 1.0, f64::INFINITY];
        let tuples: Vec<Tuple> = values
            .iter()
            .map(|&v| Tuple::new(&schema, vec![Value::num(v)]).unwrap())
            .collect();
        let r = Relation::from_tuples(schema, &tuples).unwrap();
        for op in [
            PredicateOp::Eq,
            PredicateOp::Lt,
            PredicateOp::Le,
            PredicateOp::Gt,
            PredicateOp::Ge,
        ] {
            for &v in &values {
                let q = SelectionQuery::new(vec![Predicate {
                    attr: AttrId(0),
                    op,
                    value: Value::num(v),
                }]);
                assert_eq!(
                    execute_query(&r, &q),
                    scan(&r, &q),
                    "op {op:?} constant {v}"
                );
            }
        }
    }
}

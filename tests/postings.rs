//! End-to-end guarantees of the posting-list executor and shared-plan
//! evaluation:
//!
//! 1. **executor identity** — over generated relations (categorical +
//!    numeric columns, nulls, NaN, `±0.0` and `±∞` rows, mirrored
//!    columns that tie term cardinalities) and generated selection
//!    queries (duplicate predicates on one attribute included), the
//!    posting-list executor and a naive full scan return byte-identical
//!    row sets, and a shared [`PlanExecutor`] answers every plan member
//!    like the scan while its meters match a reference model of the
//!    smallest-term-first fold exactly; a replay of both generators
//!    proves they reach every fold shape the executor distinguishes;
//! 2. **decorator transparency** — `try_query_plan` through the
//!    `Cached(Resilient(FaultInjecting(InMemory)))` stack returns
//!    exactly what the sequential `try_query` loop returns (pages,
//!    errors, early termination *and* meter state), for every fault
//!    profile and seed — also at every cache capacity, on a pre-warmed
//!    memo and over a source that clips pages, where the cache forwards
//!    runs of misses as sub-plans and its memo must end up identical;
//! 3. **federation transparency** — a replicated federation answers
//!    plans exactly like its per-query loop, and (benign members) like
//!    the single-source union relation, for every replication factor;
//! 4. **engine identity** — handing each base tuple's plan to the
//!    source in one `try_query_plan` call is invisible end to end:
//!    ranked answers, `DegradationReport` and source meters are
//!    byte-identical to query-at-a-time issuance through the full
//!    decorator stack under every fault profile.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use aimq_suite::catalog::{
    AttrId, ImpreciseQuery, Predicate, PredicateOp, Schema, SelectionQuery, Tuple, Value,
};
use aimq_suite::data::CarDb;
use aimq_suite::engine::{AimqSystem, AnswerSet, EngineConfig, TrainConfig};
use aimq_suite::storage::{
    execute_rows, CachedWebDb, ExecStats, FaultInjectingWebDb, FaultProfile, FederatedWebDb,
    FederationPolicy, InMemoryWebDb, PlanExecutor, QueryError, QueryPage, Relation, ResilientWebDb,
    RetryPolicy, RowId, SourceSpec, WebDatabase, DEFAULT_CACHE_CAPACITY,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

// ---------------------------------------------------------------------
// Guarantee 1: executor identity on generated relations and queries.
// ---------------------------------------------------------------------

fn gen_schema() -> &'static Schema {
    static S: OnceLock<Schema> = OnceLock::new();
    S.get_or_init(|| {
        Schema::builder("postings-prop")
            .categorical("make")
            .categorical("color")
            .numeric("price")
            .numeric("miles")
            .build()
            .expect("static schema is well formed")
    })
}

/// Categorical pool: a few clashing values, plus `Null`.
fn cat_value(code: u8) -> Value {
    match code % 5 {
        0 => Value::cat("a"),
        1 => Value::cat("b"),
        2 => Value::cat("c"),
        3 => Value::cat("d"),
        _ => Value::Null,
    }
}

/// Numeric *data* pool: signed zeros, repeats, `±∞` and `Null`/NaN
/// rows — NaN rows are excluded from the sorted index at build time and
/// decode to `Null`, so the executor must agree with the scan that they
/// match nothing.
fn num_data_value(code: u8) -> Value {
    match code % 11 {
        0 => Value::num(-1e9),
        1 => Value::num(-3.0),
        2 => Value::num(-0.0),
        3 => Value::num(0.0),
        4 => Value::num(1.5),
        5 => Value::num(1.5),
        6 => Value::num(42.0),
        7 => Value::Null,
        8 => Value::num(f64::INFINITY),
        9 => Value::num(f64::NEG_INFINITY),
        _ => Value::num(f64::NAN),
    }
}

/// Numeric *predicate* pool: includes non-finite constants and values
/// off the data grid.
fn num_query_value(code: u8) -> Value {
    match code % 9 {
        0 => Value::num(-1e9),
        1 => Value::num(-0.0),
        2 => Value::num(0.0),
        3 => Value::num(1.5),
        4 => Value::num(2.0),
        5 => Value::num(f64::NEG_INFINITY),
        6 => Value::num(f64::INFINITY),
        7 => Value::num(f64::NAN),
        _ => Value::num(42.0),
    }
}

fn op_of(code: u8) -> PredicateOp {
    match code % 5 {
        0 => PredicateOp::Eq,
        1 => PredicateOp::Lt,
        2 => PredicateOp::Le,
        3 => PredicateOp::Gt,
        _ => PredicateOp::Ge,
    }
}

/// A predicate from three bytes: attribute, operator, value code. The
/// value pool deliberately ignores the attribute's domain sometimes
/// (categorical constant on a numeric column and vice versa), which
/// every executor must resolve to the empty set identically. Categorical
/// attributes mostly get `Eq`, the one operator that can match them, so
/// their terms are non-empty often enough to drive, filter and tie.
fn gen_predicate(attr: u8, op: u8, value: u8) -> Predicate {
    let attr = AttrId(attr as usize % 4);
    let op = if attr.index() < 2 && !op.is_multiple_of(4) {
        PredicateOp::Eq
    } else {
        op_of(op)
    };
    let value = if value % 11 == 10 {
        // occasional cross-domain constant
        if attr.index() < 2 {
            num_query_value(value)
        } else {
            cat_value(value)
        }
    } else if attr.index() < 2 {
        match value % 6 {
            5 => Value::cat("unseen"),
            v => cat_value(v),
        }
    } else {
        num_query_value(value)
    };
    Predicate { attr, op, value }
}

/// One generated row: a value code per column.
type RowCodes = (u8, u8, u8, u8);
/// One generated predicate: attribute, operator and value codes.
type PredCodes = (u8, u8, u8);
/// Generated rows plus the mirror flag (see [`gen_relation`]).
type RelationCodes = (Vec<RowCodes>, u8);
/// Generated predicates plus the twin flag (see [`gen_query`]).
type QueryCodes = (Vec<PredCodes>, u8);

/// Up to 160 rows, so a numeric driver spans several 64-position facet
/// tree buckets, and a coin for mirrored columns.
fn relation_codes() -> impl Strategy<Value = RelationCodes> {
    (
        proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255), 0..160),
        0u8..2,
    )
}

fn query_codes(len: std::ops::Range<usize>) -> impl Strategy<Value = QueryCodes> {
    (
        proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255), len),
        0u8..2,
    )
}

/// With `mirror` set, `color` copies `make` and `miles` copies `price`
/// row by row, so equal constants on the twin columns tie in
/// cardinality and the fold order falls to the attribute tie-break.
fn gen_relation((row_codes, mirror): &RelationCodes) -> Relation {
    let schema = gen_schema();
    let tuples: Vec<Tuple> = row_codes
        .iter()
        .map(|&(a, b, c, d)| {
            let (b, d) = if *mirror == 1 { (a, c) } else { (b, d) };
            Tuple::new(
                schema,
                vec![
                    cat_value(a),
                    cat_value(b),
                    num_data_value(c),
                    num_data_value(d),
                ],
            )
            .expect("arity matches the static schema")
        })
        .collect();
    Relation::from_tuples(schema.clone(), &tuples).expect("generated tuples fit the schema")
}

/// With `twin` set, every predicate is repeated on its twin column
/// (`make`/`color`, `price`/`miles`): over a mirrored relation each
/// term then ties in cardinality with its twin.
fn gen_query((codes, twin): &QueryCodes) -> SelectionQuery {
    let mut predicates: Vec<Predicate> = codes
        .iter()
        .map(|&(a, o, v)| gen_predicate(a, o, v))
        .collect();
    if *twin == 1 {
        let twins: Vec<Predicate> = predicates
            .iter()
            .map(|p| Predicate {
                attr: AttrId(p.attr.index() ^ 1),
                ..p.clone()
            })
            .collect();
        predicates.extend(twins);
    }
    SelectionQuery::new(predicates)
}

/// The naive reference: decode every row and apply the query AST.
fn scan(relation: &Relation, query: &SelectionQuery) -> Vec<RowId> {
    relation
        .rows()
        .filter(|&row| query.matches(&relation.tuple(row)))
        .collect()
}

/// The reference fold order: a query's canonical per-attribute groups
/// with their full-scan cardinalities, ascending by `(cardinality,
/// AttrId)`.
fn fold_order(relation: &Relation, query: &SelectionQuery) -> Vec<(Vec<Predicate>, usize)> {
    let mut groups: BTreeMap<AttrId, Vec<Predicate>> = BTreeMap::new();
    for p in query.canonicalize().predicates() {
        groups.entry(p.attr).or_default().push(p.clone());
    }
    let mut order: Vec<(Vec<Predicate>, usize)> = groups
        .into_values()
        .map(|group| {
            let n = scan(relation, &SelectionQuery::new(group.clone())).len();
            (group, n)
        })
        .collect();
    order.sort_by_key(|(group, n)| (*n, group.first().map(|p| p.attr)));
    order
}

/// The meters a shared executor must report for `plan`: every term and
/// every ordered fold prefix is evaluated the first time it occurs and
/// a memo hit afterwards; a length-1 prefix is a driver, a longer one a
/// filter.
fn expected_stats(relation: &Relation, plan: &[SelectionQuery]) -> ExecStats {
    let mut terms = BTreeSet::new();
    let mut prefixes = BTreeSet::new();
    let mut stats = ExecStats::default();
    for query in plan {
        stats.queries_executed += 1;
        let order: Vec<Vec<Predicate>> = fold_order(relation, query)
            .into_iter()
            .map(|(group, _)| group)
            .collect();
        for group in &order {
            if terms.insert(group.clone()) {
                stats.terms_evaluated += 1;
            } else {
                stats.term_memo_hits += 1;
            }
        }
        for len in 1..=order.len() {
            if !prefixes.insert(order[..len].to_vec()) {
                stats.prefix_memo_hits += 1;
            } else if len == 1 {
                stats.drivers_materialized += 1;
            } else {
                stats.filters_applied += 1;
            }
        }
    }
    stats
}

/// Which fold shapes one query exercises, read off the reference order.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct FoldShapes {
    /// A non-empty numeric range drives a fold of two or more terms
    /// (the facet-tree driver).
    numeric_driver: bool,
    /// Two terms match the same non-zero number of rows.
    cardinality_tie: bool,
    /// A filtered (non-driver) term meets a running row whose value in
    /// its column is `Null`/NaN, `±0.0` or `±∞`.
    special_value_filtered: bool,
    /// A contradictory group — each predicate matches some row, the
    /// group none — is a filter, not the driver.
    contradiction_filtered: bool,
}

impl FoldShapes {
    const ALL: FoldShapes = FoldShapes {
        numeric_driver: true,
        cardinality_tie: true,
        special_value_filtered: true,
        contradiction_filtered: true,
    };

    fn of(relation: &Relation, query: &SelectionQuery) -> FoldShapes {
        let order = fold_order(relation, query);
        let matches = |predicates: &[Predicate], row: RowId| {
            let tuple = relation.tuple(row);
            predicates.iter().all(|p| p.matches(&tuple))
        };
        let mut shapes = FoldShapes {
            cardinality_tie: order.windows(2).any(|w| w[0].1 > 0 && w[0].1 == w[1].1),
            ..FoldShapes::default()
        };
        let Some(((driver, driver_rows), filters)) = order.split_first() else {
            return shapes;
        };
        shapes.numeric_driver =
            !filters.is_empty() && *driver_rows > 0 && driver[0].attr.index() >= 2;
        let mut running = scan(relation, &SelectionQuery::new(driver.clone()));
        for (group, rows) in filters {
            let attr = group[0].attr;
            shapes.special_value_filtered |=
                running.iter().any(|&row| match relation.value(row, attr) {
                    Value::Null => true,
                    Value::Num(x) => x == 0.0 || x.is_infinite(),
                    Value::Cat(_) => false,
                });
            shapes.contradiction_filtered |= *rows == 0
                && group.len() >= 2
                && group.iter().all(|p| {
                    relation
                        .rows()
                        .any(|row| matches(std::slice::from_ref(p), row))
                });
            running.retain(|&row| matches(group, row));
        }
        shapes
    }

    fn or(self, other: FoldShapes) -> FoldShapes {
        FoldShapes {
            numeric_driver: self.numeric_driver || other.numeric_driver,
            cardinality_tie: self.cardinality_tie || other.cardinality_tie,
            special_value_filtered: self.special_value_filtered || other.special_value_filtered,
            contradiction_filtered: self.contradiction_filtered || other.contradiction_filtered,
        }
    }
}

const IDENTITY_CASES: u32 = 96;
const SHARED_PLAN_CASES: u32 = 64;

fn identity_case() -> impl Strategy<Value = (RelationCodes, QueryCodes)> {
    (relation_codes(), query_codes(0..7))
}

/// A base query, each of its single-attribute relaxations, the base
/// again (Algorithm 1's plan shape), then a few unrelated queries.
fn shared_plan_case() -> impl Strategy<Value = (RelationCodes, QueryCodes, Vec<QueryCodes>)> {
    (
        relation_codes(),
        query_codes(0..7),
        proptest::collection::vec(query_codes(0..4), 0..4),
    )
}

fn relaxation_plan(base: &QueryCodes, extra: &[QueryCodes]) -> Vec<SelectionQuery> {
    let base = gen_query(base);
    let attrs: BTreeSet<AttrId> = base.predicates().iter().map(|p| p.attr).collect();
    let mut plan = vec![base.clone()];
    plan.extend(attrs.iter().map(|&attr| base.relax(&[attr])));
    plan.push(base);
    plan.extend(extra.iter().map(gen_query));
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(IDENTITY_CASES))]

    /// Posting-list executor == naive scan, and the answer is invariant
    /// under predicate duplication and permutation.
    #[test]
    fn three_way_executor_identity(case in identity_case()) {
        let (relation_codes, preds) = case;
        let relation = gen_relation(&relation_codes);
        let query = gen_query(&preds);

        let expected = scan(&relation, &query);
        prop_assert_eq!(&execute_rows(&relation, &query), &expected);

        // Duplicating the whole predicate list (duplicate predicates on
        // one attribute, by construction) must change nothing.
        let doubled = SelectionQuery::new(
            query.predicates().iter().chain(query.predicates()).cloned().collect(),
        );
        prop_assert_eq!(&execute_rows(&relation, &doubled), &expected);

        // Reversing predicate order must change nothing either.
        let reversed =
            SelectionQuery::new(query.predicates().iter().rev().cloned().collect());
        prop_assert_eq!(&execute_rows(&relation, &reversed), &expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(SHARED_PLAN_CASES))]

    /// A shared `PlanExecutor` answers every member of a relaxation plan
    /// like the naive scan and the one-shot executor, and its meters
    /// equal the reference model's: each distinct term resolved once,
    /// each distinct ordered prefix materialized or filtered once, and
    /// everything else — the repeated base query above all — answered
    /// by memo hits.
    #[test]
    fn shared_plan_matches_one_shot_execution(case in shared_plan_case()) {
        let (relation_codes, base, extra) = case;
        let relation = gen_relation(&relation_codes);
        let plan = relaxation_plan(&base, &extra);

        let mut exec = PlanExecutor::new(&relation);
        for query in &plan {
            let rows = exec.execute(query);
            prop_assert_eq!(&rows, &scan(&relation, query));
            prop_assert_eq!(&rows, &execute_rows(&relation, query));
        }
        prop_assert_eq!(exec.stats(), expected_stats(&relation, &plan));
    }
}

/// Both differential proptests reach every fold shape. The vendored
/// runner draws each test's cases from an RNG seeded by the test's
/// path, so replaying the same strategies under the same names
/// regenerates exactly the cases the proptests ran.
#[test]
fn differential_generators_reach_every_fold_shape() {
    let mut rng = TestRng::for_test(concat!(module_path!(), "::three_way_executor_identity"));
    let mut reached = FoldShapes::default();
    for _ in 0..IDENTITY_CASES {
        let (relation_codes, preds) = identity_case().generate(&mut rng);
        let relation = gen_relation(&relation_codes);
        reached = reached.or(FoldShapes::of(&relation, &gen_query(&preds)));
    }
    assert_eq!(reached, FoldShapes::ALL, "three_way_executor_identity");

    let mut rng = TestRng::for_test(concat!(
        module_path!(),
        "::shared_plan_matches_one_shot_execution"
    ));
    let mut reached = FoldShapes::default();
    for _ in 0..SHARED_PLAN_CASES {
        let (relation_codes, base, extra) = shared_plan_case().generate(&mut rng);
        let relation = gen_relation(&relation_codes);
        for query in relaxation_plan(&base, &extra) {
            reached = reached.or(FoldShapes::of(&relation, &query));
        }
    }
    assert_eq!(
        reached,
        FoldShapes::ALL,
        "shared_plan_matches_one_shot_execution"
    );
}

// ---------------------------------------------------------------------
// Guarantees 2-4 run over a shared CarDB harness.
// ---------------------------------------------------------------------

struct Harness {
    relation: Relation,
    system: AimqSystem,
    queries: Vec<ImpreciseQuery>,
    /// Selection-query plans with deliberate duplicates, derived from
    /// relation tuples (so they are non-trivially satisfiable).
    plans: Vec<Vec<SelectionQuery>>,
}

fn harness() -> &'static Harness {
    static H: OnceLock<Harness> = OnceLock::new();
    H.get_or_init(|| {
        let relation = CarDb::generate(900, 23);
        let sample = relation.random_sample(400, 5);
        let system = AimqSystem::train(&sample, &TrainConfig::default())
            .expect("training on a CarDB sample succeeds");
        let step = (relation.len() / 4).max(1) as u32;
        let queries: Vec<ImpreciseQuery> = (0..4u32)
            .map(|i| {
                ImpreciseQuery::from_tuple(&relation.tuple(i * step))
                    .expect("CarDB tuples bind every attribute")
            })
            .collect();
        let plans = (0..4u32)
            .map(|i| plan_for_tuple(&relation, i * step))
            .collect();
        Harness {
            relation,
            system,
            queries,
            plans,
        }
    })
}

/// A relaxation-shaped plan for one base tuple: the fully bound query,
/// each single-attribute relaxation, then the fully bound query again
/// (a deliberate duplicate, as produced by overlapping per-tuple plans).
fn plan_for_tuple(relation: &Relation, row: RowId) -> Vec<SelectionQuery> {
    let tuple = relation.tuple(row);
    let full: Vec<Predicate> = tuple
        .values()
        .iter()
        .enumerate()
        .filter(|(_, v)| !v.is_null())
        .map(|(i, v)| Predicate::eq(AttrId(i), v.clone()))
        .collect();
    let base = SelectionQuery::new(full.clone()).canonicalize();
    let mut plan = vec![base.clone()];
    for drop in 0..full.len() {
        let kept: Vec<Predicate> = full
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != drop)
            .map(|(_, p)| p.clone())
            .collect();
        plan.push(SelectionQuery::new(kept).canonicalize());
    }
    plan.push(base);
    plan
}

fn config() -> EngineConfig {
    EngineConfig {
        t_sim: 0.5,
        top_k: 10,
        ..EngineConfig::default()
    }
}

fn profile_at(idx: usize) -> FaultProfile {
    [
        FaultProfile::none(),
        FaultProfile::flaky(),
        FaultProfile::hostile(),
    ][idx % 3]
}

type FullStack = CachedWebDb<ResilientWebDb<FaultInjectingWebDb<InMemoryWebDb>>>;

/// A fresh `Cached(Resilient(FaultInjecting(InMemory)))` stack; the
/// fault schedule restarts at ordinal zero, so two stacks built with the
/// same profile and seed see identical fates for identical query
/// sequences.
fn full_stack(profile: FaultProfile, fault_seed: u64) -> FullStack {
    CachedWebDb::with_default_capacity(ResilientWebDb::new(
        FaultInjectingWebDb::new(
            InMemoryWebDb::new(harness().relation.clone()),
            profile,
            fault_seed,
        ),
        RetryPolicy::default(),
    ))
}

/// The sequential reference for `try_query_plan`: query at a time,
/// stopping after the first terminal (non-retryable) error.
fn sequential_plan(
    db: &dyn WebDatabase,
    plan: &[SelectionQuery],
) -> Vec<Result<QueryPage, QueryError>> {
    let mut out = Vec::with_capacity(plan.len());
    for query in plan {
        let result = db.try_query(query);
        let terminal = matches!(&result, Err(e) if !e.is_retryable());
        out.push(result);
        if terminal {
            break;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Guarantee 2: through the full decorator stack, `try_query_plan`
    /// is byte-identical to the sequential loop — same pages, same
    /// errors, same early termination, and the same cache/probe meters
    /// afterwards — for every fault profile and seed.
    #[test]
    fn plan_is_transparent_through_the_decorator_stack(
        fault_seed in 0u64..=u64::MAX,
        profile_idx in 0usize..3,
        plan_idx in 0usize..4,
    ) {
        let h = harness();
        let plan = &h.plans[plan_idx];

        let plan_db = full_stack(profile_at(profile_idx), fault_seed);
        let batched = plan_db.try_query_plan(plan);

        let loop_db = full_stack(profile_at(profile_idx), fault_seed);
        let sequential = sequential_plan(&loop_db, plan);

        prop_assert_eq!(&batched, &sequential);
        prop_assert_eq!(
            format!("{:?}", plan_db.stats()),
            format!("{:?}", loop_db.stats()),
            "plan path left different meter state"
        );
    }

    /// Guarantee 4: plan issuance is invisible end to end — ranked
    /// answers, degradation reports and source meters are byte-identical
    /// to query-at-a-time issuance, through the full stack, under every
    /// fault profile. An early-stop target that can never fire forces
    /// the engine onto its sequential path.
    #[test]
    fn batched_engine_is_byte_identical_through_the_stack(
        fault_seed in 0u64..=u64::MAX,
        profile_idx in 0usize..3,
        query_idx in 0usize..4,
    ) {
        let h = harness();
        let q = &h.queries[query_idx];
        let run = |target_relevant: Option<usize>| -> (String, String) {
            let db = full_stack(profile_at(profile_idx), fault_seed);
            let cfg = EngineConfig {
                target_relevant,
                ..config()
            };
            let answer = h.system.answer(&db, q, &cfg);
            (fingerprint(&answer), format!("{:?}", db.stats()))
        };
        prop_assert_eq!(run(None), run(Some(usize::MAX)));
    }
}

proptest! {
    // Every axis combination (216) is cheap; draw well past them.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Guarantee 2, cache axes: the cache forwards each run of
    /// consecutive misses as one sub-plan, and that stays invisible at
    /// every capacity (none; three pages in one stripe, so FIFO eviction
    /// happens inside a plan; the default), on a cache pre-warmed with a
    /// different plan that shares every other entry (hits and misses
    /// interleave), and over a source
    /// that clips pages (a truncated page is not memoized, so the plan's
    /// duplicate base entry is forwarded again). A follow-up plan then
    /// reads the memo, so its contents and FIFO order must agree too.
    #[test]
    fn plan_is_transparent_through_the_cache(
        fault_seed in 0u64..=u64::MAX,
        profile_idx in 0usize..3,
        plan_idx in 0usize..4,
        capacity_idx in 0usize..3,
        prewarm in 0u8..2,
        limit_idx in 0usize..3,
    ) {
        let h = harness();
        let plan = &h.plans[plan_idx];
        let capacity = [0, 3, DEFAULT_CACHE_CAPACITY][capacity_idx];
        let limit = [None, Some(0), Some(3)][limit_idx];
        let build = || {
            let source = InMemoryWebDb::new(h.relation.clone());
            let source = match limit {
                Some(n) => source.with_result_limit(n),
                None => source,
            };
            let db = CachedWebDb::with_stripes(
                ResilientWebDb::new(
                    FaultInjectingWebDb::new(source, profile_at(profile_idx), fault_seed),
                    RetryPolicy::default(),
                ),
                capacity,
                1,
            );
            if prewarm == 1 {
                // Another tuple's plan plus every other entry of this
                // one, so the plan under test alternates hits and misses.
                let other = &h.plans[(plan_idx + 1) % h.plans.len()];
                let warm: Vec<SelectionQuery> =
                    other.iter().chain(plan.iter().step_by(2)).cloned().collect();
                sequential_plan(&db, &warm);
            }
            db
        };

        let plan_db = build();
        let batched = plan_db.try_query_plan(plan);
        let loop_db = build();
        let sequential = sequential_plan(&loop_db, plan);

        prop_assert_eq!(&batched, &sequential);
        prop_assert_eq!(
            format!("{:?}", plan_db.stats()),
            format!("{:?}", loop_db.stats()),
            "plan path left different meter state"
        );
        prop_assert_eq!(plan_db.len(), loop_db.len());

        let follow_up = &h.plans[(plan_idx + 2) % h.plans.len()];
        let follow_up: Vec<SelectionQuery> = follow_up.iter().chain(plan).cloned().collect();
        prop_assert_eq!(
            sequential_plan(&plan_db, &follow_up),
            sequential_plan(&loop_db, &follow_up),
            "plan path left a different memo"
        );
        prop_assert_eq!(
            format!("{:?}", plan_db.stats()),
            format!("{:?}", loop_db.stats())
        );
    }
}

/// Everything observable about a run, byte-exact (`f64` via `to_bits`).
fn fingerprint(result: &AnswerSet) -> String {
    let answers: Vec<String> = result
        .answers
        .iter()
        .map(|a| format!("{:?}@{:016x}", a.tuple, a.similarity.to_bits()))
        .collect();
    format!("{:?} | {}", result.degradation, answers.join(";"))
}

/// Guarantee 3: a replicated federation answers plans exactly like its
/// own per-query loop, and — with benign members — exactly like the
/// single-source union relation, for every replication factor.
#[test]
fn replicated_federation_answers_plans_like_its_query_loop() {
    let h = harness();
    // The federator merges pages in canonical value order after dedup,
    // so the single-source baseline must present the same order and
    // multiplicity: a value-sorted, deduplicated union relation.
    let mut by_values: std::collections::BTreeMap<Vec<Value>, Tuple> =
        std::collections::BTreeMap::new();
    for row in h.relation.rows() {
        let tuple = h.relation.tuple(row);
        by_values.entry(tuple.values().to_vec()).or_insert(tuple);
    }
    let tuples: Vec<Tuple> = by_values.into_values().collect();
    let union = Relation::from_tuples(h.relation.schema().clone(), &tuples)
        .expect("deduplicated CarDB rows still fit the schema");
    let single = InMemoryWebDb::new(union.clone());
    let plans: Vec<Vec<SelectionQuery>> = (0..3u32)
        .map(|i| plan_for_tuple(&union, i * (union.len() as u32 / 3).max(1)))
        .collect();

    for replication in 1usize..=3 {
        let specs: Vec<SourceSpec> = (0..4)
            .map(|i| SourceSpec::benign(format!("s{i}")))
            .collect();
        let fed = FederatedWebDb::shard(&union, &specs, replication, FederationPolicy::default())
            .expect("4 benign members shard cleanly");
        for plan in &plans {
            let batched = fed.try_query_plan(plan);
            assert_eq!(
                batched,
                sequential_plan(&fed, plan),
                "replication={replication}: plan diverged from the query loop"
            );
            // Benign federation == single source, member count and
            // replication notwithstanding.
            assert_eq!(
                batched,
                sequential_plan(&single, plan),
                "replication={replication}: federation diverged from the union relation"
            );
        }
    }
}

/// Faulty replicated federations stay plan-transparent too: whatever a
/// hostile member does to individual probes, handing the whole plan over
/// changes nothing (same pages, same errors, same truncation).
#[test]
fn faulty_federation_is_plan_transparent() {
    let h = harness();
    for (hostile, fault_seed) in [(0usize, 3u64), (1, 7), (2, 19)] {
        let specs: Vec<SourceSpec> = (0..4)
            .map(|i| SourceSpec {
                profile: if i == hostile {
                    FaultProfile::hostile()
                } else {
                    FaultProfile::none()
                },
                fault_seed: fault_seed.wrapping_add(i as u64),
                ..SourceSpec::benign(format!("s{i}"))
            })
            .collect();
        for plan in &h.plans {
            let plan_fed =
                FederatedWebDb::shard(&h.relation, &specs, 2, FederationPolicy::default())
                    .expect("4 members shard cleanly");
            let batched = plan_fed.try_query_plan(plan);
            let loop_fed =
                FederatedWebDb::shard(&h.relation, &specs, 2, FederationPolicy::default())
                    .expect("4 members shard cleanly");
            assert_eq!(
                batched,
                sequential_plan(&loop_fed, plan),
                "hostile member {hostile}: plan diverged from the query loop"
            );
        }
    }
}

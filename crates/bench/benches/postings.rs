//! Criterion benchmarks for the posting-list executor: the wall-clock
//! side of the shared-plan story. The eval runner
//! (`cargo run -p aimq-bench --release --bin postings`) counts the
//! terms, drivers and row filters the plan memo eliminates; this bench
//! measures what selection and plan execution cost end to end on CarDB
//! at the Figure 3/4 sample sizes — (a) one-shot selection through the
//! posting path, and (b) a whole
//! relaxation plan executed query-at-a-time vs through one shared
//! [`PlanExecutor`]. Measured numbers are recorded in
//! `results/BENCH_postings.json`.

use aimq_catalog::{AttrId, Predicate, SelectionQuery};
use aimq_data::CarDb;
use aimq_storage::{execute_rows, PlanExecutor, Relation, RowId};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// The Figure 3/4 sample ladder, trimmed to keep the bench short.
const SIZES: [usize; 2] = [15_000, 50_000];

/// The relaxation plan for one base tuple: fully bound query, every
/// single-attribute relaxation, then the base again (the duplicate that
/// overlapping per-tuple plans produce). Mirrors the eval runner.
fn relaxation_plan(relation: &Relation, row: RowId) -> Vec<SelectionQuery> {
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

fn workload(n: usize) -> (Relation, Vec<SelectionQuery>) {
    let relation = CarDb::generate(n, 7);
    let step = (relation.len() / 8).max(1) as RowId;
    let queries: Vec<SelectionQuery> = (0..8)
        .flat_map(|i| relaxation_plan(&relation, i * step))
        .collect();
    (relation, queries)
}

/// One-shot selection through the posting path over a mixed query set
/// (fully bound conjunctions and their single-attribute relaxations).
fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection_executor");
    group.sample_size(10);
    for n in SIZES {
        let (relation, queries) = workload(n);
        group.bench_with_input(BenchmarkId::new("postings", n), &n, |b, _| {
            b.iter(|| {
                for q in &queries {
                    black_box(execute_rows(&relation, black_box(q)));
                }
            });
        });
    }
    group.finish();
}

/// Whole relaxation plans: query-at-a-time one-shot execution vs one
/// shared `PlanExecutor` per plan (what a source's `try_query_plan`
/// builds) — the memo turns repeated terms and shared conjunction
/// prefixes into lookups.
fn bench_shared_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("shared_plan");
    group.sample_size(10);
    for n in SIZES {
        let relation = CarDb::generate(n, 7);
        let step = (relation.len() / 8).max(1) as RowId;
        let plans: Vec<Vec<SelectionQuery>> = (0..8)
            .map(|i| relaxation_plan(&relation, i * step))
            .collect();
        group.bench_with_input(BenchmarkId::new("one_shot", n), &n, |b, _| {
            b.iter(|| {
                for plan in &plans {
                    for q in plan {
                        black_box(execute_rows(&relation, black_box(q)));
                    }
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("plan_executor", n), &n, |b, _| {
            b.iter(|| {
                for plan in &plans {
                    let mut exec = PlanExecutor::new(&relation);
                    for q in plan {
                        black_box(exec.execute(black_box(q)));
                    }
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_selection, bench_shared_plan);
criterion_main!(benches);

//! Inputs shared by the workloads: rows, the trained system, the query
//! pool, and the reference answers every timed answer is checked against.

use std::time::Instant;

use aimq::{AimqSystem, AnswerSet, EngineConfig};
use aimq_catalog::{ImpreciseQuery, Json, Schema, Tuple, Value};
use aimq_data::CarDb;
use aimq_eval::experiments::common::train_cardb;
use aimq_storage::{InMemoryWebDb, Relation};

use crate::util::Rng;

/// Rows in the training sample drawn from the relation. At 5,000 rows
/// the mined relaxation order of CarDB's two weakest attributes flips
/// between seeds, which changes every query's probes; from 20,000 rows
/// on it is the same for every seed.
pub const SAMPLE_ROWS: usize = 20_000;

/// Engine knobs of every workload: the CarDB query-log setting used by
/// the serving and HTTP benches (`t_sim` 0.5, top-10).
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        t_sim: 0.5,
        top_k: 10,
        ..EngineConfig::default()
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `CarDb::generate`, timed.
pub fn generate(rows: usize, seed: u64) -> (Relation, f64) {
    let t = Instant::now();
    let relation = CarDb::generate(rows, seed);
    (relation, secs(t))
}

/// Train on a sample of the relation; returns the system and its
/// `TrainTimings` (dependency mining, similarity estimation) in seconds.
pub fn train(relation: &Relation, seed: u64) -> (AimqSystem, f64, f64) {
    let sample = relation.random_sample(SAMPLE_ROWS, seed.wrapping_add(1));
    let system = train_cardb(&sample);
    let t = system.timings();
    (
        system,
        t.dependency_mining.as_secs_f64(),
        t.similarity_estimation.as_secs_f64(),
    )
}

/// `n` distinct query tuples drawn from the relation's rows.
pub fn query_pool(relation: &Relation, n: usize, seed: u64) -> Vec<Tuple> {
    let mut rng = Rng::new(seed.wrapping_add(2));
    let mut rows: Vec<u32> = relation.rows().collect();
    let mut out: Vec<Tuple> = Vec::with_capacity(n);
    let mut seen = std::collections::BTreeSet::new();
    let mut i = 0;
    while out.len() < n && i < rows.len() {
        let j = i + rng.below(rows.len() - i);
        rows.swap(i, j);
        let tuple = relation.tuple(rows[i]);
        if seen.insert(tuple.values().to_vec()) {
            out.push(tuple);
        }
        i += 1;
    }
    out
}

/// The imprecise query "like this tuple" (every non-null attribute).
pub fn imprecise(tuple: &Tuple) -> ImpreciseQuery {
    ImpreciseQuery::from_tuple(tuple).expect("generated tuples bind at least one attribute")
}

/// The same query as a `POST /indexes/:name/search` body: every non-null
/// attribute in schema order, as `ImpreciseQuery::from_tuple` binds it.
pub fn http_body(schema: &Schema, tuple: &Tuple) -> String {
    let pairs = schema
        .attributes()
        .iter()
        .zip(tuple.values())
        .filter(|(_, v)| !matches!(v, Value::Null))
        .map(|(a, v)| (a.name().to_string(), v.to_json()))
        .collect();
    Json::Obj(vec![("query".to_string(), Json::Obj(pairs))]).to_string_compact()
}

/// The ranked answers of a result, rendered exactly as the HTTP body's
/// `result.answers` is.
pub fn answers_bytes(set: &AnswerSet, schema: &Schema) -> String {
    set.to_json(schema)
        .get("answers")
        .map(Json::to_string_compact)
        .unwrap_or_default()
}

/// Reference answers: the single-source bare engine (no cache, no
/// federation, no serving runtime) on its own copy of the rows, computed
/// on `nproc` threads.
pub fn references(system: &AimqSystem, relation: &Relation, queries: &[Tuple]) -> Vec<String> {
    let bare = InMemoryWebDb::new(relation.clone());
    let config = engine_config();
    let chunk = queries.len().div_ceil(crate::util::nproc()).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|part| {
                let bare = &bare;
                scope.spawn(move || {
                    part.iter()
                        .map(|t| {
                            answers_bytes(
                                &system.answer(bare, &imprecise(t), &config),
                                relation.schema(),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    })
}

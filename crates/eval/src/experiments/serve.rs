//! **Serve bench — concurrent query serving on a CarDB query log.**
//!
//! Not a figure of the paper, but its deployment premise made
//! measurable: AIMQ fronts *autonomous Web databases*, so online query
//! answering is latency-bound — every probe is a network round-trip to
//! a source the system does not own, and the engine spends most of a
//! query's wall time waiting, not computing. A serving runtime should
//! therefore scale throughput with workers by overlapping those waits,
//! even on a single core.
//!
//! The workload replays a CarDB query log through
//! [`aimq_serve::QueryServer`] at increasing worker counts
//! ([`WORKERS`]). The source stack is the production shape — a shared
//! lock-striped [`CachedWebDb`] over the source — with one addition:
//! a [`SimulatedRttDb`] between cache and source charging a fixed
//! round-trip sleep per probe that *misses* the cache (hits are local
//! memory, as they would be in deployment). Each rung gets a cold
//! stack so all rungs pay the same miss population.
//!
//! Two claims per rung:
//!
//! 1. **identity** — every query's ranked top-k (tuples, similarity
//!    bits, provenance) is byte-identical to the single-threaded
//!    engine's answer on an undecorated source. Worker count and
//!    interleaving must never change an answer.
//! 2. **throughput** — wall-clock throughput scales with workers;
//!    the headline acceptance gate is ≥ 3× at 8 workers vs 1
//!    (recorded in `results/BENCH_serve.json` at full scale).
//!
//! Latency/interleaving note: the engine's per-answer meter deltas
//! (`stats`, `degradation.retries`) aggregate *cross-worker* activity
//! under concurrency, so the identity fingerprint deliberately covers
//! answers only — see the `aimq-serve` crate docs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aimq::{AnswerSet, EngineConfig};
use aimq_catalog::{ImpreciseQuery, Json, Schema, SelectionQuery};
use aimq_data::CarDb;
use aimq_serve::{QueryServer, ServeConfig, ServeStatsSnapshot, Ticket};
use aimq_storage::{AccessStats, CachedWebDb, InMemoryWebDb, QueryError, QueryPage, WebDatabase};

use crate::experiments::common::{pick_query_rows, train_cardb};
use crate::{Scale, TextTable};

/// Worker-pool sizes of the scaling ladder.
pub const WORKERS: &[usize] = &[1, 2, 4, 8];

/// Simulated source round-trip per cache-missing probe, in microseconds
/// (≈ a fast same-region HTTP hop). Large against the engine's per-probe
/// CPU cost so the workload is latency-bound, as deployment is.
pub const RTT_MICROS: u64 = 3_000;

/// A [`WebDatabase`] decorator charging a fixed wall-clock round-trip
/// per probe, standing in for the network hop to an autonomous source.
/// Sits *under* the cache: hits stay local, misses travel.
struct SimulatedRttDb<D> {
    inner: D,
    rtt: Duration,
}

impl<D: WebDatabase> WebDatabase for SimulatedRttDb<D> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    // aimq-probe: entry -- experiment harness wrapper; adds fixed RTT, accounting stays on the inner db's AccessStats
    fn try_query(&self, query: &SelectionQuery) -> Result<QueryPage, QueryError> {
        std::thread::sleep(self.rtt);
        self.inner.try_query(query)
    }

    fn stats(&self) -> AccessStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

/// One rung of the scaling ladder.
#[derive(Debug, Clone)]
pub struct ServeRung {
    /// Worker threads serving this rung.
    pub workers: usize,
    /// Wall-clock time to serve the whole log, milliseconds.
    pub wall_ms: f64,
    /// Queries served per wall-clock second.
    pub throughput_qps: f64,
    /// Every query's ranked answers matched the single-threaded
    /// engine's, byte for byte.
    pub identical: bool,
    /// Serving counters (admissions, latency histogram, utilization).
    pub stats: ServeStatsSnapshot,
    /// Source-stack access meter for this rung (cache hits/misses,
    /// breaker trips), so degraded runs are visible without parsing the
    /// JSON artifact.
    pub source: AccessStats,
}

/// Result of the serve bench.
#[derive(Debug, Clone)]
pub struct ServeBenchResult {
    /// Distinct imprecise queries in the log.
    pub n_queries: usize,
    /// Simulated per-miss round trip, in microseconds.
    pub rtt_micros: u64,
    /// One rung per entry of [`WORKERS`].
    pub rungs: Vec<ServeRung>,
}

impl ServeBenchResult {
    /// The rung serving with `workers` threads.
    pub fn rung(&self, workers: usize) -> Option<&ServeRung> {
        self.rungs.iter().find(|r| r.workers == workers)
    }

    /// Throughput of the `workers` rung relative to the 1-worker rung.
    pub fn speedup(&self, workers: usize) -> f64 {
        match (self.rung(1), self.rung(workers)) {
            (Some(base), Some(r)) if base.throughput_qps > 0.0 => {
                r.throughput_qps / base.throughput_qps
            }
            _ => 0.0,
        }
    }

    /// `true` when every rung answered every query identically to the
    /// single-threaded engine.
    pub fn all_identical(&self) -> bool {
        self.rungs.iter().all(|r| r.identical)
    }

    /// The ladder's counters as shared JSON: one entry per rung, each
    /// serialized with the *same* `ServeStatsSnapshot::to_json()` /
    /// `AccessStats::to_json()` path the HTTP front door's `GET /stats`
    /// uses — the bench artifact and the wire agree on names and shapes
    /// by construction.
    pub fn counters_json(&self) -> Json {
        Json::obj(vec![(
            "rungs",
            Json::Arr(
                self.rungs
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("workers", Json::Num(r.workers as f64)),
                            ("serve", r.stats.to_json()),
                            ("source", r.source.to_json()),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    /// One-line counter digest across all rungs — dropped replies,
    /// breaker trips and cache traffic — derived from
    /// [`Self::counters_json`] rather than re-summed by hand, so the
    /// terminal line can never disagree with the serialized counters.
    /// Printed by `aimq serve-bench`.
    pub fn counters_line(&self) -> String {
        let json = self.counters_json();
        let sum = |section: &str, field: &str| -> u64 {
            json.get("rungs")
                .and_then(Json::as_array)
                .map(|rungs| {
                    rungs
                        .iter()
                        .filter_map(|r| {
                            r.get(section)
                                .and_then(|s| s.get(field))
                                .and_then(Json::as_u64)
                        })
                        .sum()
                })
                .unwrap_or(0)
        };
        format!(
            "counters: {} replies dropped, {} breaker trips, cache {} hits / {} misses",
            sum("serve", "replies_dropped"),
            sum("source", "breaker_trips"),
            sum("source", "cache_hits"),
            sum("source", "cache_misses"),
        )
    }

    /// Render the ladder.
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(
            format!(
                "Serve bench: {} queries, {}us simulated source RTT per cache miss",
                self.n_queries, self.rtt_micros
            ),
            &[
                "workers",
                "wall ms",
                "qps",
                "speedup",
                "identical",
                "max depth",
                "avg ticks",
            ],
        );
        for r in &self.rungs {
            let avg_ticks = if r.stats.completed > 0 {
                r.stats.latency_ticks_total as f64 / r.stats.completed as f64
            } else {
                0.0
            };
            t.row(vec![
                r.workers.to_string(),
                format!("{:.1}", r.wall_ms),
                format!("{:.1}", r.throughput_qps),
                format!("{:.2}x", self.speedup(r.workers)),
                r.identical.to_string(),
                r.stats.max_queue_depth.to_string(),
                format!("{avg_ticks:.1}"),
            ]);
        }
        t
    }
}

/// Byte-comparable fingerprint of one answer set: ranked tuples with
/// similarity bit patterns and provenance. Meter-derived fields are
/// excluded on purpose (cross-worker aggregates; see module docs).
fn fingerprint(result: &AnswerSet) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "base={:?} |Abs|={}",
        result.base_query, result.base_set_size
    );
    for a in &result.answers {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "fmt::Write to a String is infallible"
        )]
        let _ = write!(
            out,
            " | {:?}@{:016x}:{:?}",
            a.tuple,
            a.similarity.to_bits(),
            a.provenance
        );
    }
    out
}

/// Run the serve bench: reference answers single-threaded, then the
/// ladder, each rung on a cold shared stack.
pub fn run(scale: Scale, seed: u64) -> ServeBenchResult {
    // A modest relation keeps per-probe CPU far below the simulated
    // RTT: the experiment measures wait-overlap, not executor speed.
    let relation = CarDb::generate(scale.size(10_000), seed);
    let sample = relation.random_sample(scale.size(5_000), seed.wrapping_add(1));
    let system = Arc::new(train_cardb(&sample));

    let n_queries = scale.count(40);
    let query_rows = pick_query_rows(&relation, n_queries, seed.wrapping_add(2));
    let queries: Vec<ImpreciseQuery> = query_rows
        .iter()
        .map(|&row| ImpreciseQuery::from_tuple(&relation.tuple(row)).expect("non-null tuple"))
        .collect();

    let engine = EngineConfig {
        t_sim: 0.5,
        top_k: 10,
        ..EngineConfig::default()
    };

    // Reference: the single-threaded engine on an undecorated source.
    let reference: Vec<String> = {
        let db = InMemoryWebDb::new(relation.clone());
        queries
            .iter()
            .map(|q| fingerprint(&system.answer(&db, q, &engine)))
            .collect()
    };

    let rtt = Duration::from_micros(RTT_MICROS);
    let mut rungs = Vec::new();
    for &workers in WORKERS {
        // Cold production-shaped stack per rung: striped shared cache
        // over the simulated network hop over the source.
        let stack: Arc<dyn WebDatabase> = Arc::new(CachedWebDb::with_stripes(
            SimulatedRttDb {
                inner: InMemoryWebDb::new(relation.clone()),
                rtt,
            },
            4096,
            8,
        ));
        let source_view = Arc::clone(&stack);
        let server = QueryServer::start(
            Arc::clone(&system),
            stack,
            ServeConfig {
                workers,
                queue_capacity: queries.len().max(1),
                deadline_ticks: 0,
                ticks_per_probe: 1,
                engine,
            },
        );

        let started = Instant::now();
        let tickets: Vec<Ticket> = queries
            .iter()
            .map(|q| {
                server
                    .submit(q.clone())
                    .unwrap_or_else(|e| panic!("log fits the queue by construction: {e}"))
            })
            .collect();
        let answers: Vec<String> = tickets
            .into_iter()
            .map(|t| match t.wait() {
                Ok(outcome) => fingerprint(&outcome.answer),
                Err(e) => format!("<error: {e}>"),
            })
            .collect();
        let wall = started.elapsed();
        let stats = server.shutdown();

        let identical = answers == reference;
        let wall_ms = wall.as_secs_f64() * 1_000.0;
        rungs.push(ServeRung {
            workers,
            wall_ms,
            throughput_qps: if wall_ms > 0.0 {
                queries.len() as f64 / wall.as_secs_f64()
            } else {
                0.0
            },
            identical,
            stats,
            source: source_view.stats(),
        });
    }

    ServeBenchResult {
        n_queries,
        rtt_micros: RTT_MICROS,
        rungs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> ServeBenchResult {
        run(Scale::quick(), 31)
    }

    #[test]
    fn every_rung_matches_the_single_threaded_engine() {
        let r = result();
        assert!(
            r.all_identical(),
            "concurrent answers diverged: {:#?}",
            r.rungs
                .iter()
                .map(|x| (x.workers, x.identical))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn every_query_is_admitted_and_served() {
        let r = result();
        for rung in &r.rungs {
            assert_eq!(rung.stats.admitted, r.n_queries as u64, "{rung:#?}");
            assert_eq!(rung.stats.completed, r.n_queries as u64, "{rung:#?}");
            assert_eq!(rung.stats.rejected, 0, "{rung:#?}");
            assert_eq!(
                rung.stats.worker_processed.iter().sum::<u64>(),
                r.n_queries as u64
            );
        }
    }

    #[test]
    fn counters_line_surfaces_cache_traffic_and_drops() {
        let r = result();
        let line = r.counters_line();
        assert!(line.contains("replies dropped"), "{line}");
        assert!(line.contains("breaker trips"), "{line}");
        assert!(line.contains("cache"), "{line}");
        // Every rung probes a cold cache at least once, so the digest
        // can never claim an idle source.
        let misses: u64 = r.rungs.iter().map(|x| x.source.cache_misses).sum();
        assert!(misses > 0);
    }

    #[test]
    fn counters_json_uses_the_shared_stats_serializers() {
        let r = result();
        let json = r.counters_json();
        let rungs = json.get("rungs").and_then(Json::as_array).expect("rungs");
        assert_eq!(rungs.len(), r.rungs.len());
        for (entry, rung) in rungs.iter().zip(&r.rungs) {
            // Field names must match what the HTTP `/stats` route
            // serves, because both go through the same to_json() path.
            let serve = entry.get("serve").expect("serve section");
            assert_eq!(
                serve.get("replies_dropped").and_then(Json::as_u64),
                Some(rung.stats.replies_dropped)
            );
            assert_eq!(
                serve.get("completed").and_then(Json::as_u64),
                Some(rung.stats.completed)
            );
            let source = entry.get("source").expect("source section");
            assert_eq!(
                source.get("cache_misses").and_then(Json::as_u64),
                Some(rung.source.cache_misses)
            );
        }
        // The digest line is a projection of the same JSON.
        let line = r.counters_line();
        let misses: u64 = r.rungs.iter().map(|x| x.source.cache_misses).sum();
        assert!(line.contains(&format!("{misses} misses")), "{line}");
    }

    #[test]
    fn ladder_covers_the_advertised_worker_counts() {
        let r = result();
        let workers: Vec<usize> = r.rungs.iter().map(|x| x.workers).collect();
        assert_eq!(workers, WORKERS.to_vec());
        assert_eq!(r.render().len(), WORKERS.len());
    }

    #[test]
    fn multi_worker_rungs_overlap_source_waits() {
        // Identity is asserted exactly; timing only directionally (CI
        // machines vary): 8 workers must beat 1 worker outright on a
        // latency-bound log, even if the exact ratio wobbles.
        let r = result();
        assert!(
            r.speedup(8) > 1.0,
            "8 workers no faster than 1: {:#?}",
            r.rungs
                .iter()
                .map(|x| (x.workers, x.wall_ms))
                .collect::<Vec<_>>()
        );
    }
}

//! `federated_churn_100k`: two closed-loop callers (at most `nproc`)
//! submit to the serving runtime (`QueryServer::submit` → `Ticket::wait`)
//! with 2 workers. The stack is a benign `FederatedWebDb::shard` over
//! 100k rows (4 members, replication 2, per-member caches below the
//! working set); the callers take turns drawing from one Zipf(s=1)
//! stream over a 2,000-query pool. Hits, misses, inserts and evictions
//! mix under two concurrent workers, and every query scatter-gathers
//! over the federation.
//!
//! This workload runs on demand (`--workload federated_churn_100k`) but
//! is not in `BENCHMARK.json`: with two workers and two callers on a
//! 2-core host its median moved with the host's load (spread 0.19 over
//! ten seeds, against 0.09 for p99). An open loop at a fixed rate fared
//! worse (34–55 q/s: the same seed's p99 read 47 or 70 ms from one run
//! to the next, and slow spells of the host pushed the queue towards
//! saturation).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use aimq::AimqSystem;
use aimq_catalog::{ImpreciseQuery, Json, Schema, Tuple};
use aimq_serve::{QueryServer, ServeConfig, Ticket};
use aimq_storage::{
    AccessStats, FederatedWebDb, FederationPolicy, Relation, SourceHealth, SourceSpec, WebDatabase,
};

use crate::layers::{CallCounts, Timed};
use crate::ledger::{assign, match_episodes, Breakdown, Ledger, Served, SpanIndex, Window};
use crate::report::{
    imbalance, insert_cache, insert_core_counts, overhead_pct, Completion, Outcome, Phase,
    SetupTimes,
};
use crate::setup::{self, answers_bytes, engine_config, imprecise, secs};
use crate::trace::{self, names};
use crate::util::{now_ns, nproc, quantile, Rng, Zipf};
use crate::Options;

pub const ROWS: usize = 100_000;
pub const POOL: usize = 2_000;
pub const ZIPF_S: f64 = 1.0;
pub const MEMBERS: usize = 4;
pub const REPLICATION: usize = 2;
/// Pages per member cache: well below the stream's working set (about
/// 30% of member probes hit). At 4,096 pages about half hit, and the
/// median request then sits on the edge between the hit and miss modes
/// of the latency distribution, where it swings with the seed (11.8 to
/// 17.1 ms over three seeds).
pub const MEMBER_CACHE: usize = 1_024;
pub const WORKERS: usize = 2;
/// Closed-loop callers, capped at `nproc`.
pub const CALLERS: usize = 2;
/// Length of the drawn stream; callers wrap around it if they get to
/// its end.
const STREAM_LEN: usize = 20_000;
const QUEUE_CAPACITY: usize = 256;
/// Warm-up queries, submitted with at most `WORKERS` outstanding.
const WARMUP_QUERIES: usize = 150;
const SETUPS: usize = 3;

type Stack = Timed<FederatedWebDb>;

struct World {
    system: Arc<AimqSystem>,
    relation: Relation,
    stack: Arc<Stack>,
    server: QueryServer,
    pool: Vec<Tuple>,
    queries: Vec<ImpreciseQuery>,
}

fn stream(seed: u64, n: usize) -> Vec<usize> {
    let zipf = Zipf::new(POOL, ZIPF_S);
    let mut rng = Rng::new(seed);
    (0..n).map(|_| zipf.sample(&mut rng)).collect()
}

fn set_up(seed: u64) -> (World, SetupTimes) {
    let t = Instant::now();
    let (relation, generate_s) = setup::generate(ROWS, seed);
    let (system, mine_s, sim_build_s) = setup::train(&relation, seed);
    let system = Arc::new(system);
    let pool = setup::query_pool(&relation, POOL, seed);
    let queries: Vec<ImpreciseQuery> = pool.iter().map(imprecise).collect();
    let b = Instant::now();
    let federation = FederatedWebDb::shard(
        &relation,
        &SourceSpec::benign_fleet(MEMBERS),
        REPLICATION,
        FederationPolicy {
            cache_capacity: MEMBER_CACHE,
            ..FederationPolicy::default()
        },
    )
    .expect("a benign fleet shards");
    let stack = Arc::new(Timed::boundary(federation));
    let storage_build_s = secs(b);
    let db: Arc<dyn WebDatabase> = stack.clone();
    let server = QueryServer::start(
        Arc::clone(&system),
        db,
        ServeConfig {
            workers: WORKERS,
            queue_capacity: QUEUE_CAPACITY,
            deadline_ticks: 0,
            ticks_per_probe: 1,
            engine: engine_config(),
        },
    );
    let w = Instant::now();
    let mut outstanding: VecDeque<Ticket> = VecDeque::new();
    for idx in stream(seed.wrapping_add(4), WARMUP_QUERIES) {
        if outstanding.len() >= WORKERS {
            if let Some(t) = outstanding.pop_front() {
                t.wait().expect("warm-up query served");
            }
        }
        outstanding.push_back(
            server
                .submit(queries[idx].clone())
                .expect("warm-up admitted"),
        );
    }
    for t in outstanding {
        t.wait().expect("warm-up query served");
    }
    let times = SetupTimes {
        generate_s,
        mine_s,
        sim_build_s,
        storage_build_s,
        warmup_s: secs(w),
        total_s: secs(t),
    };
    (
        World {
            system,
            relation,
            stack,
            server,
            pool,
            queries,
        },
        times,
    )
}

/// One request, as its caller saw it.
#[derive(Debug, Clone)]
struct Arrival {
    submitted: u64,
    done: u64,
    worker: Option<usize>,
    ok: bool,
    mismatch: bool,
    /// `DegradationReport::probes_attempted` of the answer.
    probes: u64,
    set: Option<aimq::AnswerSet>,
}

fn callers() -> usize {
    CALLERS.min(nproc()).max(1)
}

/// Run the callers over `stream` for `seconds`.
fn closed_loop(
    world: &World,
    refs: &[String],
    stream: &[usize],
    seconds: f64,
    keep_sets: bool,
) -> (Phase, Vec<Arrival>) {
    let schema: &Schema = world.relation.schema();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let start_ns = now_ns();
    let mut collected: Vec<Arrival> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers())
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while secs(start) < seconds {
                        let idx = stream[next.fetch_add(1, Ordering::Relaxed) % stream.len()];
                        let submitted = now_ns();
                        let result = world
                            .server
                            .submit(world.queries[idx].clone())
                            .and_then(Ticket::wait);
                        let done = now_ns();
                        trace::record(names::SOJOURN, submitted, done);
                        let mut a = Arrival {
                            submitted,
                            done,
                            worker: None,
                            ok: false,
                            mismatch: false,
                            probes: 0,
                            set: None,
                        };
                        if let Ok(outcome) = result {
                            a.worker = Some(outcome.worker);
                            a.probes = outcome.answer.degradation.probes_attempted;
                            let same = answers_bytes(&outcome.answer, schema) == refs[idx];
                            a.ok = same;
                            a.mismatch = !same;
                            if keep_sets {
                                a.set = Some(outcome.answer);
                            }
                        }
                        out.push(a);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("caller thread"))
            .collect()
    });
    collected.sort_by_key(|a| a.submitted);
    let mut phase = Phase {
        wall_s: secs(start),
        ..Phase::default()
    };
    for a in &collected {
        phase.attempted += 1;
        if a.worker.is_some() {
            phase.completions.push(Completion {
                at_s: a.done.saturating_sub(start_ns) as f64 / 1e9,
                ms: (a.done - a.submitted) as f64 / 1e6,
                ok: a.ok,
            });
        }
        phase.probes += a.probes;
        if a.ok {
            phase.correct += 1;
        } else {
            phase.failed += 1;
        }
        if a.mismatch {
            phase.mismatches += 1;
        }
    }
    (phase, collected)
}

fn health_totals(health: &[SourceHealth]) -> [u64; 3] {
    health.iter().fold([0; 3], |acc, h| {
        [
            acc[0] + h.probes_attempted,
            acc[1] + h.tuples_contributed,
            acc[2] + h.hedges_fired,
        ]
    })
}

pub fn run(opts: &Options) -> Outcome {
    let mut all = Vec::new();
    let mut world = None;
    for _ in 0..SETUPS {
        if let Some(previous) = world.take() {
            let World { server, .. } = previous;
            server.shutdown();
        }
        let (w, t) = set_up(opts.seed);
        all.push(t);
        world = Some(w);
    }
    let world = world.expect("at least one set-up");
    let setup = SetupTimes::median_of(&all);
    let draws = STREAM_LEN;
    let stream_seed = opts.seed.wrapping_add(3);
    let refs = setup::references(&world.system, &world.relation, &world.pool);

    let mut out = Outcome::default();
    // Counters read around the traced phase, through the handle kept here.
    let probe_stats = |w: &World| -> (AccessStats, [u64; 3], CallCounts, Vec<u64>) {
        (
            w.stack.inner().stats(),
            health_totals(&w.stack.inner().federation_report()),
            w.stack.counts(),
            w.server.stats().worker_processed,
        )
    };
    if !opts.trace {
        let (phase, _) = closed_loop(
            &world,
            &refs,
            &stream(stream_seed, draws),
            opts.seconds,
            false,
        );
        phase.end_to_end(setup.total_s, &mut out.values);
        out.measured = phase;
        world.server.shutdown();
        return out;
    }
    let half = opts.seconds / 2.0;
    let (untraced, _) = closed_loop(&world, &refs, &stream(stream_seed, draws), half, false);
    let before = probe_stats(&world);
    trace::set_enabled(true);
    let (phase, arrivals) = closed_loop(&world, &refs, &stream(stream_seed ^ 1, draws), half, true);
    trace::set_enabled(false);
    let after = probe_stats(&world);
    let spans = trace::drain();

    let index = SpanIndex::new(&spans);
    let served: Vec<Served> = arrivals
        .iter()
        .map(|a| Served {
            worker: a.worker.unwrap_or(usize::MAX),
            submit_ns: a.submitted,
            done_ns: a.done,
        })
        .collect();
    let episodes = match_episodes(&index.named(names::ENGINE), &served);
    let mut rows = Vec::with_capacity(arrivals.len());
    let mut windows = Vec::new();
    for (i, (a, ep)) in arrivals.iter().zip(&episodes).enumerate() {
        let Some(e) = ep else { continue };
        windows.push(Window {
            req: i as i64,
            thread: Some(e.thread),
            start: e.start,
            end: e.end,
        });
        let service = e.dur() as f64 / 1e3;
        let storage = index.busy_us(e.thread, e.start, e.end, names::STORAGE);
        let sojourn = (a.done - a.submitted) as f64 / 1e3;
        rows.push(Breakdown {
            total_us: sojourn,
            parts: vec![
                ("serve.wait_us", sojourn - service),
                ("core.self_us", service - storage),
                ("federation.busy_us", storage),
            ],
            extras: vec![
                ("serve.sojourn_us", sojourn),
                ("serve.service_us", service),
                ("core.answer_us", service),
                ("storage.busy_us", storage),
            ],
        });
    }
    // Hand-off from the end of the engine call to the caller's wake-up.
    let delays: Vec<f64> = arrivals
        .iter()
        .zip(&episodes)
        .filter_map(|(a, e)| Some(a.done.saturating_sub(e.as_ref()?.end) as f64 / 1e3))
        .collect();
    out.detail.push((
        "reply_delay_us".into(),
        Json::obj(vec![
            ("p50", Json::Num(quantile(&delays, 0.5))),
            ("p90", Json::Num(quantile(&delays, 0.9))),
            ("p99", Json::Num(quantile(&delays, 0.99))),
            (
                "over_1ms",
                Json::Num(delays.iter().filter(|&&d| d > 1000.0).count() as f64),
            ),
        ]),
    ));
    let ledger = Ledger::build(&rows);
    let n = phase.attempted.max(1) as f64;
    let v = &mut out.values;
    setup.record(v);
    ledger.record(v);
    let sets: Vec<aimq::AnswerSet> = arrivals.iter().filter_map(|a| a.set.clone()).collect();
    insert_core_counts(v, &sets);
    let access = after.0.since(&before.0);
    insert_cache(v, &access, n);
    v.insert("source.query_calls", access.queries_issued as f64 / n);
    v.insert("source.tuples_returned", access.tuples_returned as f64 / n);
    let fed: Vec<u64> = (0..3).map(|i| after.1[i] - before.1[i]).collect();
    v.insert("federation.member_probes", fed[0] as f64 / n);
    v.insert("federation.tuples_contributed", fed[1] as f64 / n);
    v.insert("federation.hedges_fired", fed[2] as f64 / n);
    let storage = after.2.since(before.2);
    v.insert("storage.query_calls", storage.query_calls as f64 / n);
    v.insert("storage.plan_calls", storage.plan_calls as f64 / n);
    let per_worker: Vec<u64> = after.3.iter().zip(&before.3).map(|(a, b)| a - b).collect();
    v.insert("serve.worker_imbalance", imbalance(&per_worker));
    let serve = world.server.stats();
    v.insert("serve.max_queue_depth", serve.max_queue_depth as f64);
    v.insert("serve.rejected", serve.rejected as f64);
    v.insert("loadgen.error_rate", phase.failed as f64 / n);
    v.insert(
        "trace.overhead_pct",
        overhead_pct(phase.p50_ms(), untraced.p50_ms()),
    );
    out.detail
        .push(("untraced_phase".into(), untraced.samples_json()));
    out.detail
        .push(("episodes_matched".into(), Json::Num(windows.len() as f64)));
    out.detail
        .push(("access_stats_traced_phase".into(), access.to_json()));
    let sojourns: std::collections::BTreeMap<(u64, u64), i64> = arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| ((a.submitted, a.done), i as i64))
        .collect();
    out.spans = assign(&spans, &windows);
    for (span, req) in &mut out.spans {
        if span.name == names::SOJOURN {
            *req = sojourns.get(&(span.start, span.end)).copied().unwrap_or(-1);
        }
    }
    out.ledger = Some(ledger);
    out.measured = phase;
    world.server.shutdown();
    out
}

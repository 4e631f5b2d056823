//! `warm_http_keepalive_10k`: closed loop over real sockets to an
//! in-process `AimqHttpServer` with 2 workers on 10k rows. Each of (at
//! most `nproc`) persistent keep-alive connections is a caller that
//! waits for its reply. Before timing, one serial replay warms the cache
//! so every probe hits: the work is HTTP framing, JSON, the serving
//! hand-off and the engine itself, not the source.
//!
//! The traced run replays each timed request's bytes through
//! `Decoder::try_decode`, `dispatch` on an `AppState` the benchmark
//! builds, `Response::write_to` into a buffer, and the in-process
//! `submit` → `wait` path; socket latency minus the replayed work is
//! `http.transport_us`.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use aimq::AimqSystem;
use aimq_catalog::{Json, Schema, Tuple};
use aimq_http::{dispatch, AimqHttpServer, AppState, Decoder, HttpConfig, HttpStats};
use aimq_serve::{QueryServer, ServeConfig};
use aimq_storage::{CachedWebDb, InMemoryWebDb, WebDatabase};

use crate::client::{number_after, request_bytes, slice_between, Conn};
use crate::layers::Timed;
use crate::ledger::{assign, match_episodes, Breakdown, Ledger, Served, SpanIndex, Window};
use crate::report::{
    imbalance, insert_cache, insert_core_counts, overhead_pct, Completion, Outcome, Phase,
    SetupTimes,
};
use crate::setup::{self, engine_config, imprecise, secs};
use crate::trace::{self, names, Span};
use crate::util::{now_ns, nproc, Rng};
use crate::Options;

pub const ROWS: usize = 10_000;
/// Distinct queries the connections draw from.
pub const POOL: usize = 200;
/// Large enough that the pool's whole probe working set stays cached.
pub const CACHE_CAPACITY: usize = 65_536;
const STRIPES: usize = 8;
pub const WORKERS: usize = 2;
/// Keep-alive connections (each one closed-loop caller), capped at
/// `nproc`.
pub const CONNECTIONS: usize = 2;
const QUEUE_CAPACITY: usize = 64;
const SETUPS: usize = 5;
const INDEX: &str = "cardb";
const SEARCH_PATH: &str = "/indexes/cardb/search";

type Stack = Timed<CachedWebDb<Timed<InMemoryWebDb>>>;

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        queue_capacity: QUEUE_CAPACITY,
        deadline_ticks: 0,
        ticks_per_probe: 1,
        engine: engine_config(),
    }
}

fn connections() -> usize {
    CONNECTIONS.min(nproc()).max(1)
}

struct World {
    system: Arc<AimqSystem>,
    schema: Schema,
    source: InMemoryWebDb,
    stack: Arc<Stack>,
    pool: Vec<Tuple>,
    requests: Vec<Vec<u8>>,
    server: AimqHttpServer,
    conns: Vec<Conn>,
}

fn set_up(seed: u64) -> (World, SetupTimes) {
    let t = Instant::now();
    let (relation, generate_s) = setup::generate(ROWS, seed);
    let (system, mine_s, sim_build_s) = setup::train(&relation, seed);
    let system = Arc::new(system);
    let schema = relation.schema().clone();
    let pool = setup::query_pool(&relation, POOL, seed);
    let requests = pool
        .iter()
        .map(|q| request_bytes("POST", SEARCH_PATH, &setup::http_body(&schema, q)))
        .collect();
    let b = Instant::now();
    let source = InMemoryWebDb::new(relation);
    let stack = Arc::new(Timed::boundary(CachedWebDb::with_stripes(
        Timed::layer(source.clone(), names::SOURCE),
        CACHE_CAPACITY,
        STRIPES,
    )));
    let storage_build_s = secs(b);
    let db: Arc<dyn WebDatabase> = stack.clone();
    let server = AimqHttpServer::start(
        Arc::clone(&system),
        db,
        HttpConfig {
            addr: "127.0.0.1:0".into(),
            index: INDEX.into(),
            serve: serve_config(),
        },
    )
    .expect("bind a loopback port");
    let w = Instant::now();
    for q in &pool {
        system.answer(&*stack, &imprecise(q), &engine_config());
    }
    let mut world = World {
        system,
        schema,
        source,
        stack,
        pool,
        requests,
        server,
        conns: Vec::new(),
    };
    for c in 0..connections() {
        let mut conn = Conn::connect(world.server.addr()).expect("connect to the front door");
        let reply = conn
            .exchange(&world.requests[c % POOL])
            .expect("first exchange");
        assert_eq!(reply.status, 200, "warm-up request failed");
        world.conns.push(conn);
    }
    let times = SetupTimes {
        generate_s,
        mine_s,
        sim_build_s,
        storage_build_s,
        warmup_s: secs(w),
        total_s: secs(t),
    };
    (world, times)
}

/// One timed exchange.
#[derive(Debug, Clone)]
struct Sample {
    idx: usize,
    start: u64,
    end: u64,
    ok: bool,
    mismatch: bool,
    wire_bytes: usize,
    probes: u64,
    worker: Option<usize>,
    /// The client-side `http.request` span, when tracing.
    span: Option<u64>,
}

fn check(reply: &crate::client::Reply, reference: &str) -> (bool, bool) {
    if reply.status != 200 || !reply.body.ends_with(br#""deadline_exceeded":false}"#) {
        return (false, false);
    }
    let answers = slice_between(&reply.body, br#""result":{"answers":"#, br#","stats":{"#);
    let same = answers == Some(reference.as_bytes());
    (same, !same)
}

/// Closed loop on every connection for `seconds`.
fn socket_phase(
    world: &mut World,
    refs: &[String],
    seconds: f64,
    stream_seed: u64,
) -> (Phase, Vec<Sample>) {
    let requests = &world.requests;
    let start = Instant::now();
    let start_ns = now_ns();
    let per_conn: Vec<(Vec<Sample>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = world
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    let mut rng = Rng::new(stream_seed ^ ((c as u64 + 1) << 32));
                    let mut samples = Vec::new();
                    let mut errors = 0u64;
                    while secs(start) < seconds {
                        let idx = rng.below(requests.len());
                        let span = trace::open(names::REQUEST);
                        let t0 = now_ns();
                        let reply = conn.exchange(&requests[idx]);
                        let t1 = now_ns();
                        let span = span.map(|s| s.close().id);
                        let Ok(reply) = reply else {
                            errors += 1;
                            break;
                        };
                        let (ok, mismatch) = check(&reply, &refs[idx]);
                        samples.push(Sample {
                            idx,
                            start: t0,
                            end: t1,
                            ok,
                            mismatch,
                            wire_bytes: reply.wire_bytes,
                            probes: number_after(&reply.body, br#""probes_attempted":"#)
                                .unwrap_or(0),
                            worker: number_after(&reply.body, br#""worker":"#).map(|w| w as usize),
                            span,
                        });
                    }
                    (samples, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = secs(start);
    let mut phase = Phase {
        wall_s,
        ..Phase::default()
    };
    let mut samples: Vec<Sample> = Vec::new();
    for (s, errors) in per_conn {
        phase.attempted += errors;
        phase.failed += errors;
        samples.extend(s);
    }
    samples.sort_by_key(|s| s.start);
    for s in &samples {
        phase.attempted += 1;
        phase.completions.push(Completion {
            at_s: s.end.saturating_sub(start_ns) as f64 / 1e9,
            ms: (s.end - s.start) as f64 / 1e6,
            ok: s.ok,
        });
        phase.probes += s.probes;
        if s.ok {
            phase.correct += 1;
        } else {
            phase.failed += 1;
        }
        if s.mismatch {
            phase.mismatches += 1;
        }
    }
    (phase, samples)
}

/// In-process replay of one timed request.
struct Replayed {
    root: Span,
    decode_us: f64,
    parse_us: f64,
    dispatch: Span,
    encode_us: f64,
    sojourn: Span,
    render_us: f64,
    set: aimq::AnswerSet,
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn replay(world: &World, app: &AppState, samples: &[Sample]) -> Vec<Replayed> {
    samples
        .iter()
        .map(|s| {
            let root = trace::open(names::REPLAY).expect("tracing is on");
            let t = Instant::now();
            let mut decoder = Decoder::new();
            decoder.extend(&world.requests[s.idx]);
            let request = decoder
                .try_decode()
                .ok()
                .flatten()
                .expect("the benchmark's own request frames");
            let decode_us = us_since(t);
            let t = Instant::now();
            let parsed = Json::parse(request.body_str().unwrap_or_default());
            let parse_us = us_since(t);
            assert!(parsed.is_ok(), "request body parses");
            let span = trace::open(names::DISPATCH).expect("tracing is on");
            let response = dispatch(app, &request);
            let dispatch = span.close();
            assert_eq!(response.status, 200, "replayed request failed");
            let t = Instant::now();
            let mut wire = Vec::with_capacity(response.body.len() + 256);
            response
                .write_to(&mut wire, false)
                .expect("write into a buffer");
            let encode_us = us_since(t);
            let span = trace::open(names::SOJOURN).expect("tracing is on");
            let outcome = app
                .server
                .submit(imprecise(&world.pool[s.idx]))
                .and_then(aimq_serve::Ticket::wait)
                .expect("in-process submit on an idle server");
            let sojourn = span.close();
            let t = Instant::now();
            let rendered = outcome.answer.to_json(&world.schema).to_string_compact();
            let render_us = us_since(t);
            assert!(!rendered.is_empty());
            Replayed {
                root: root.close(),
                decode_us,
                parse_us,
                dispatch,
                encode_us,
                sojourn,
                render_us,
                set: outcome.answer,
            }
        })
        .collect()
}

fn stop(world: World) {
    drop(world.conns);
    world.server.shutdown();
}

/// `GET /stats` on a fresh connection.
fn http_stats(addr: SocketAddr) -> Option<Json> {
    let mut conn = Conn::connect(addr).ok()?;
    let reply = conn.exchange(&request_bytes("GET", "/stats", "")).ok()?;
    Json::parse(std::str::from_utf8(&reply.body).ok()?).ok()
}

pub fn run(opts: &Options) -> Outcome {
    let mut all = Vec::new();
    let mut world = None;
    for _ in 0..SETUPS {
        if let Some(previous) = world.take() {
            stop(previous);
        }
        let (w, t) = set_up(opts.seed);
        all.push(t);
        world = Some(w);
    }
    let mut world = world.expect("at least one set-up");
    let setup = SetupTimes::median_of(&all);
    let relation = world.source.relation().clone();
    let refs = setup::references(&world.system, &relation, &world.pool);
    let stream_seed = opts.seed.wrapping_add(3);

    let mut out = Outcome::default();
    if !opts.trace {
        let (phase, _) = socket_phase(&mut world, &refs, opts.seconds, stream_seed);
        phase.end_to_end(setup.total_s, &mut out.values);
        out.measured = phase;
        stop(world);
        return out;
    }

    let third = opts.seconds / 3.0;
    let (untraced, _) = socket_phase(&mut world, &refs, third, stream_seed);
    let cache_before = world.stack.inner().stats();
    let counts_before = [world.stack.counts(), world.stack.inner().inner().counts()];
    trace::set_enabled(true);
    let (phase, samples) = socket_phase(&mut world, &refs, third, stream_seed ^ 1);
    let counts_after = [world.stack.counts(), world.stack.inner().inner().counts()];
    let cache = world.stack.inner().stats().since(&cache_before);
    let socket_spans = trace::drain();

    // Replay on an AppState of the benchmark's own, sharing the warm
    // stack and the trained system.
    let app = AppState {
        server: QueryServer::start(
            Arc::clone(&world.system),
            world.stack.clone(),
            serve_config(),
        ),
        db: world.stack.clone(),
        index: INDEX.into(),
        http_stats: HttpStats::default(),
    };
    let replays = replay(&world, &app, &samples);
    trace::set_enabled(false);
    app.server.shutdown();
    let replay_spans = trace::drain();

    let stats = http_stats(world.server.addr());
    let serve = world.server.stats();

    // Ledger: one breakdown per timed request.
    let index = SpanIndex::new(&replay_spans);
    let engines = index.named(names::ENGINE);
    let mut rows = Vec::with_capacity(samples.len());
    for (s, r) in samples.iter().zip(&replays) {
        let episode = engines
            .values()
            .flatten()
            .find(|e| e.start >= r.sojourn.start && e.end <= r.sojourn.end)
            .copied();
        let (service, storage, source) = episode.map_or((0.0, 0.0, 0.0), |e| {
            (
                e.dur() as f64 / 1e3,
                index.busy_us(e.thread, e.start, e.end, names::STORAGE),
                index.busy_us(e.thread, e.start, e.end, names::SOURCE),
            )
        });
        let total = (s.end - s.start) as f64 / 1e3;
        let dispatch = r.dispatch.dur() as f64 / 1e3;
        let sojourn = r.sojourn.dur() as f64 / 1e3;
        rows.push(Breakdown {
            total_us: total,
            parts: vec![
                (
                    "http.transport_us",
                    total - r.decode_us - dispatch - r.encode_us,
                ),
                ("http.decode_us", r.decode_us),
                ("http.encode_us", r.encode_us),
                ("http.route_self_us", dispatch - sojourn),
                ("serve.wait_us", sojourn - service),
                ("core.self_us", service - storage),
                ("cache.self_us", storage - source),
                ("source.busy_us", source),
            ],
            extras: vec![
                ("http.dispatch_us", dispatch),
                ("serve.sojourn_us", sojourn),
                ("serve.service_us", service),
                ("core.answer_us", service),
                ("storage.busy_us", storage),
                ("catalog.json_parse_us", r.parse_us),
                ("catalog.json_render_us", r.render_us),
            ],
        });
    }
    let ledger = Ledger::build(&rows);
    let n = phase.attempted.max(1) as f64;
    let v = &mut out.values;
    setup.record(v);
    ledger.record(v);
    let sets: Vec<aimq::AnswerSet> = replays.iter().map(|r| r.set.clone()).collect();
    insert_core_counts(v, &sets);
    let storage = counts_after[0].since(counts_before[0]);
    let source = counts_after[1].since(counts_before[1]);
    v.insert("storage.query_calls", storage.query_calls as f64 / n);
    v.insert("storage.plan_calls", storage.plan_calls as f64 / n);
    v.insert("source.query_calls", source.query_calls as f64 / n);
    v.insert("source.plan_calls", source.plan_calls as f64 / n);
    v.insert("source.tuples_returned", source.tuples_returned as f64 / n);
    insert_cache(v, &cache, n);
    v.insert(
        "http.response_bytes",
        samples.iter().map(|s| s.wire_bytes as f64).sum::<f64>() / samples.len().max(1) as f64,
    );
    let http = stats.as_ref().and_then(|s| s.get("http"));
    let counter = |name: &str| {
        http.and_then(|h| h.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(-1.0)
    };
    v.insert("http.connections_accepted", counter("connections_accepted"));
    v.insert("http.responses_5xx", counter("responses_5xx"));
    v.insert("serve.max_queue_depth", serve.max_queue_depth as f64);
    v.insert("serve.rejected", serve.rejected as f64);
    v.insert("serve.worker_imbalance", imbalance(&serve.worker_processed));
    v.insert("loadgen.error_rate", phase.failed as f64 / n);
    v.insert(
        "trace.overhead_pct",
        overhead_pct(phase.p50_ms(), untraced.p50_ms()),
    );
    out.detail
        .push(("untraced_phase".into(), untraced.samples_json()));
    out.detail
        .push(("access_stats_traced_phase".into(), cache.to_json()));

    // Span ownership: socket-phase episodes pair with the responses'
    // worker ids; replay spans fall inside their request's replay.
    let served: Vec<Served> = samples
        .iter()
        .map(|s| Served {
            worker: s.worker.unwrap_or(usize::MAX),
            submit_ns: s.start,
            done_ns: s.end,
        })
        .collect();
    let socket_index = SpanIndex::new(&socket_spans);
    let mut windows: Vec<Window> = Vec::new();
    for (i, ep) in match_episodes(&socket_index.named(names::ENGINE), &served)
        .iter()
        .enumerate()
    {
        if let Some(e) = ep {
            windows.push(Window {
                req: i as i64,
                thread: Some(e.thread),
                start: e.start,
                end: e.end,
            });
        }
    }
    let by_span: std::collections::BTreeMap<u64, i64> = samples
        .iter()
        .enumerate()
        .filter_map(|(i, s)| Some((s.span?, i as i64)))
        .collect();
    let mut spans = assign(&socket_spans, &windows);
    for (span, req) in &mut spans {
        if let Some(&i) = by_span.get(&span.id) {
            *req = i;
        }
    }
    let replay_windows: Vec<Window> = replays
        .iter()
        .enumerate()
        .map(|(i, r)| Window {
            req: i as i64,
            thread: None,
            start: r.root.start,
            end: r.root.end,
        })
        .collect();
    spans.extend(assign(&replay_spans, &replay_windows));
    out.spans = spans;
    out.ledger = Some(ledger);
    out.measured = phase;
    stop(world);
    out
}

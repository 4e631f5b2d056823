//! `cold_inprocess_100k`: closed loop, one caller, `AimqSystem::answer`
//! over `CachedWebDb::with_stripes(InMemoryWebDb)` on 100k CarDB rows.
//! Each pass replays a log of distinct queries through a freshly built
//! cache, so every probe misses and the source does almost all the work.
//! `http` and `serve` are bypassed.

use std::time::Instant;

use aimq::AimqSystem;
use aimq_catalog::Tuple;
use aimq_storage::{AccessStats, CachedWebDb, InMemoryWebDb, WebDatabase, DEFAULT_CACHE_CAPACITY};

use crate::layers::{CallCounts, Timed};
use crate::ledger::{assign, Breakdown, Ledger, SpanIndex, Window};
use crate::report::{
    insert_cache, insert_core_counts, overhead_pct, Completion, Outcome, Phase, SetupTimes, Values,
};
use crate::setup::{self, answers_bytes, engine_config, imprecise, secs};
use crate::trace::{self, names};
use crate::Options;

pub const ROWS: usize = 100_000;
/// Distinct queries per pass: enough that the p99 of a run rests on a
/// dozen distinct queries rather than on the log's few heaviest.
pub const LOG_QUERIES: usize = 1_500;
/// Cache stripes, as the serving CLI builds the stack.
pub const STRIPES: usize = 8;
/// Queries of the warm-up pass (on a throwaway cache).
const WARMUP_QUERIES: usize = 20;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

type Stack = Timed<CachedWebDb<Timed<InMemoryWebDb>>>;

fn fresh_stack(source: &InMemoryWebDb) -> Stack {
    Timed::boundary(CachedWebDb::with_stripes(
        Timed::layer(source.clone(), names::SOURCE),
        DEFAULT_CACHE_CAPACITY,
        STRIPES,
    ))
}

struct World {
    system: AimqSystem,
    source: InMemoryWebDb,
    log: Vec<Tuple>,
}

fn set_up(seed: u64) -> (World, SetupTimes) {
    let t = Instant::now();
    let (relation, generate_s) = setup::generate(ROWS, seed);
    let (system, mine_s, sim_build_s) = setup::train(&relation, seed);
    let log = setup::query_pool(&relation, LOG_QUERIES, seed);
    let b = Instant::now();
    let source = InMemoryWebDb::new(relation);
    let storage_build_s = secs(b);
    let w = Instant::now();
    let warm = fresh_stack(&source);
    for q in log.iter().take(WARMUP_QUERIES) {
        system.answer(&warm, &imprecise(q), &engine_config());
    }
    let warmup_s = secs(w);
    let times = SetupTimes {
        generate_s,
        mine_s,
        sim_build_s,
        storage_build_s,
        warmup_s,
        total_s: secs(t),
    };
    (
        World {
            system,
            source,
            log,
        },
        times,
    )
}

/// Replay the log in passes through fresh caches for `seconds`.
fn measure(
    world: &World,
    refs: &[String],
    seconds: f64,
    traced: Option<&mut Vec<trace::Span>>,
) -> (Phase, AccessStats, [CallCounts; 2], Vec<aimq::AnswerSet>) {
    let schema = world.source.schema().clone();
    let config = engine_config();
    let queries: Vec<_> = world.log.iter().map(imprecise).collect();
    let mut phase = Phase::default();
    let mut cache = AccessStats::default();
    let mut counts = [CallCounts::default(); 2];
    let mut sets = Vec::new();
    let mut traced = traced;
    trace::set_enabled(traced.is_some());
    let start = Instant::now();
    'passes: loop {
        let stack = fresh_stack(&world.source);
        for (i, q) in queries.iter().enumerate() {
            phase.attempted += 1;
            let span = trace::open(names::ANSWER);
            let t0 = Instant::now();
            let set = world.system.answer(&stack, q, &config);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let ok = answers_bytes(&set, &schema) == refs[i];
            phase.completions.push(Completion {
                at_s: secs(start),
                ms,
                ok,
            });
            phase.probes += set.degradation.probes_attempted;
            if ok {
                phase.correct += 1;
            } else {
                phase.mismatches += 1;
                phase.failed += 1;
            }
            if let (Some(span), Some(out)) = (span, traced.as_deref_mut()) {
                out.push(span.close());
                sets.push(set);
            }
            if secs(start) >= seconds {
                fold(&mut cache, &mut counts, &stack);
                break 'passes;
            }
        }
        fold(&mut cache, &mut counts, &stack);
    }
    phase.wall_s = secs(start);
    trace::set_enabled(false);
    (phase, cache, counts, sets)
}

fn fold(cache: &mut AccessStats, counts: &mut [CallCounts; 2], stack: &Stack) {
    *cache = cache.merge(&stack.inner().stats());
    counts[0] = counts[0].plus(stack.counts());
    counts[1] = counts[1].plus(stack.inner().inner().counts());
}

pub fn run(opts: &Options) -> Outcome {
    let mut all = Vec::new();
    let mut world = None;
    for _ in 0..SETUPS {
        let (w, t) = set_up(opts.seed);
        all.push(t);
        world = Some(w);
    }
    let world = world.expect("at least one set-up");
    let setup = SetupTimes::median_of(&all);
    let refs = setup::references(&world.system, world.source.relation(), &world.log);

    let mut out = Outcome::default();
    if !opts.trace {
        let (phase, ..) = measure(&world, &refs, opts.seconds, None);
        phase.end_to_end(setup.total_s, &mut out.values);
        out.measured = phase;
        return out;
    }
    let (untraced, ..) = measure(&world, &refs, opts.seconds / 2.0, None);
    let mut traced = Vec::new();
    let (phase, cache, counts, sets) =
        measure(&world, &refs, opts.seconds / 2.0, Some(&mut traced));
    let spans = trace::drain();
    let index = SpanIndex::new(&spans);
    let mut rows = Vec::with_capacity(traced.len());
    for a in &traced {
        let storage = index.busy_us(a.thread, a.start, a.end, names::STORAGE);
        let source = index.busy_us(a.thread, a.start, a.end, names::SOURCE);
        let answer = a.dur() as f64 / 1e3;
        rows.push(Breakdown {
            total_us: answer,
            parts: vec![
                ("core.self_us", answer - storage),
                ("cache.self_us", storage - source),
                ("source.busy_us", source),
            ],
            extras: vec![("core.answer_us", answer), ("storage.busy_us", storage)],
        });
    }
    let ledger = Ledger::build(&rows);
    let n = phase.attempted.max(1) as f64;
    let v: &mut Values = &mut out.values;
    setup.record(v);
    ledger.record(v);
    insert_core_counts(v, &sets);
    let [storage, source] = counts;
    v.insert("storage.query_calls", storage.query_calls as f64 / n);
    v.insert("storage.plan_calls", storage.plan_calls as f64 / n);
    v.insert("source.query_calls", source.query_calls as f64 / n);
    v.insert("source.plan_calls", source.plan_calls as f64 / n);
    v.insert("source.tuples_returned", source.tuples_returned as f64 / n);
    insert_cache(v, &cache, n);
    v.insert("loadgen.error_rate", phase.failed as f64 / n);
    v.insert(
        "trace.overhead_pct",
        overhead_pct(phase.p50_ms(), untraced.p50_ms()),
    );
    out.detail
        .push(("untraced_phase".into(), untraced.samples_json()));
    let windows: Vec<Window> = traced
        .iter()
        .enumerate()
        .map(|(i, a)| Window {
            req: i as i64,
            thread: None,
            start: a.start,
            end: a.end,
        })
        .collect();
    out.spans = assign(&spans, &windows);
    out.ledger = Some(ledger);
    out.measured = phase;
    out
}

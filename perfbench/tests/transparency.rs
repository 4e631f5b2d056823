//! The benchmark's wrappers and client must not change what they
//! measure: wrapped stacks answer byte-identically with identical meters,
//! engine episodes are delimited one per `answer` call, and the answers
//! sliced out of an HTTP reply are the in-process answers.

use std::sync::Arc;

use aimq::{AimqSystem, AnswerSet};
use aimq_catalog::{ImpreciseQuery, Tuple};
use aimq_http::{AimqHttpServer, HttpConfig};
use aimq_perfbench::client::{request_bytes, slice_between, Conn};
use aimq_perfbench::layers::Timed;
use aimq_perfbench::setup::{self, answers_bytes, engine_config, imprecise};
use aimq_perfbench::trace::{self, names};
use aimq_serve::ServeConfig;
use aimq_storage::{
    CachedWebDb, FederatedWebDb, FederationPolicy, InMemoryWebDb, Relation, SourceSpec, WebDatabase,
};

fn world() -> (Relation, AimqSystem, Vec<Tuple>) {
    let (relation, _) = setup::generate(3_000, 5);
    let (system, _, _) = setup::train(&relation, 5);
    let pool = setup::query_pool(&relation, 12, 5);
    (relation, system, pool)
}

/// Full results (answers, stats, degradation) of the pool, answered
/// twice so the second round exercises cache hits.
fn replay(system: &AimqSystem, db: &dyn WebDatabase, pool: &[Tuple]) -> Vec<String> {
    let schema = db.schema().clone();
    let queries: Vec<ImpreciseQuery> = pool.iter().map(imprecise).collect();
    queries
        .iter()
        .chain(&queries)
        .map(|q| {
            system
                .answer(db, q, &engine_config())
                .to_json(&schema)
                .to_string_compact()
        })
        .collect()
}

fn federation(relation: &Relation) -> FederatedWebDb {
    FederatedWebDb::shard(
        relation,
        &SourceSpec::benign_fleet(4),
        2,
        FederationPolicy {
            cache_capacity: 256,
            ..FederationPolicy::default()
        },
    )
    .unwrap()
}

// One test: tracing is process-wide state.
#[test]
fn wrappers_are_transparent_and_episodes_are_delimited() {
    let (relation, system, pool) = world();
    for traced in [false, true] {
        trace::set_enabled(traced);

        // Cached stack, wrapped at both boundaries.
        let plain = CachedWebDb::with_stripes(InMemoryWebDb::new(relation.clone()), 512, 8);
        let wrapped = Timed::boundary(CachedWebDb::with_stripes(
            Timed::layer(InMemoryWebDb::new(relation.clone()), names::SOURCE),
            512,
            8,
        ));
        assert_eq!(
            replay(&system, &plain, &pool),
            replay(&system, &wrapped, &pool)
        );
        assert_eq!(plain.stats(), wrapped.stats());

        // Bare source straight under the engine: the shared-plan path.
        let bare = InMemoryWebDb::new(relation.clone());
        let timed_bare = Timed::layer(InMemoryWebDb::new(relation.clone()), names::SOURCE);
        assert_eq!(
            replay(&system, &bare, &pool),
            replay(&system, &timed_bare, &pool)
        );
        assert_eq!(bare.stats(), timed_bare.stats());
        if traced {
            assert!(
                timed_bare.counts().plan_calls > 0,
                "try_query_plan must be forwarded"
            );
        }

        // Federation: `source_health` must survive the wrapper.
        let fed = federation(&relation);
        let timed_fed = Timed::boundary(federation(&relation));
        let (a, b) = (
            replay(&system, &fed, &pool),
            replay(&system, &timed_fed, &pool),
        );
        assert_eq!(a, b);
        assert!(b[0].contains(r#""sources":[{"name":"s0""#), "{}", b[0]);
        assert_eq!(fed.stats(), timed_fed.stats());
        assert_eq!(fed.source_health(), timed_fed.source_health());
    }

    // Episodes: one per engine call on the calling thread, containing
    // that call's storage spans.
    trace::set_enabled(false);
    trace::drain();
    let stack = Timed::boundary(CachedWebDb::with_stripes(
        InMemoryWebDb::new(relation.clone()),
        512,
        8,
    ));
    trace::set_enabled(true);
    for q in pool.iter().map(imprecise) {
        let span = trace::open(names::ANSWER).unwrap();
        system.answer(&stack, &q, &engine_config());
        span.close();
    }
    trace::set_enabled(false);
    let spans = trace::drain();
    let answers: Vec<_> = spans.iter().filter(|s| s.name == names::ANSWER).collect();
    let engines: Vec<_> = spans.iter().filter(|s| s.name == names::ENGINE).collect();
    assert_eq!(answers.len(), pool.len());
    assert_eq!(engines.len(), pool.len());
    for (a, e) in answers.iter().zip(&engines) {
        assert!(a.start <= e.start && e.end <= a.end);
        assert_eq!(e.parent, a.id);
    }
    for s in spans.iter().filter(|s| s.name == names::STORAGE) {
        assert!(
            engines.iter().any(|e| e.id == s.parent),
            "storage span outside an episode"
        );
    }
}

#[test]
fn reply_answers_are_the_in_process_answers() {
    let (relation, system, pool) = world();
    let schema = relation.schema().clone();
    let system = Arc::new(system);
    let db: Arc<dyn WebDatabase> = Arc::new(InMemoryWebDb::new(relation.clone()));
    let server = AimqHttpServer::start(
        Arc::clone(&system),
        Arc::clone(&db),
        HttpConfig {
            addr: "127.0.0.1:0".into(),
            index: "cardb".into(),
            serve: ServeConfig {
                workers: 2,
                engine: engine_config(),
                ..ServeConfig::default()
            },
        },
    )
    .unwrap();
    let mut conn = Conn::connect(server.addr()).unwrap();
    for t in &pool {
        let body = setup::http_body(&schema, t);
        let reply = conn
            .exchange(&request_bytes("POST", "/indexes/cardb/search", &body))
            .unwrap();
        assert_eq!(reply.status, 200);
        let expected: AnswerSet = system.answer(&*db, &imprecise(t), &engine_config());
        let answers = slice_between(&reply.body, br#""result":{"answers":"#, br#","stats":{"#);
        assert_eq!(answers, Some(answers_bytes(&expected, &schema).as_bytes()));
    }
    drop(conn);
    server.shutdown();
}

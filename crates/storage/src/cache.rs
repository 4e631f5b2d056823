use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::num::Saturating;
use std::sync::{Arc, Mutex};

use aimq_catalog::{Schema, SelectionQuery};

use crate::web::{lock_stats, AccessStats, QueryError, QueryPage, WebDatabase};

/// Default number of memoized pages ([`CachedWebDb::new`] callers that have
/// no better number; the CLI default).
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Default stripe count for [`CachedWebDb::new`]: one stripe, i.e. the
/// exact single-lock semantics the decorator shipped with. The serving
/// runtime raises this via [`CachedWebDb::with_stripes`] so its worker
/// pool does not serialize on one memo lock.
pub const DEFAULT_CACHE_STRIPES: usize = 1;

/// Everything one cache stripe protects under its lock: a shard of the
/// memo, that shard's FIFO admission order, and its hit/miss/eviction
/// counters (so a stats overlay is internally consistent per stripe).
#[derive(Debug, Default)]
struct CacheState {
    /// Memoized pages, keyed on the *canonical* query form. `BTreeMap`
    /// keeps every walk of the cache deterministic (xtask L3 bans the
    /// randomized `HashMap` in this codebase's deterministic layers).
    pages: BTreeMap<SelectionQuery, QueryPage>,
    /// Insertion order of the keys in `pages`; the front is next to be
    /// evicted. FIFO rather than LRU: eviction order then depends only on
    /// the sequence of *misses*, never on hit timing, which keeps replayed
    /// runs byte-identical even if an observer probes the cache.
    order: VecDeque<SelectionQuery>,
    /// Event tallies, summed across stripes by `stats()`.
    hits: Saturating<u64>,
    misses: Saturating<u64>,
    evictions: Saturating<u64>,
}

/// What a stripe lookup found (see [`CachedWebDb::lookup`]).
enum Lookup {
    /// A memoized page, served and counted as a hit.
    Hit(QueryPage),
    /// Nothing memoized; counted as a miss that must be forwarded.
    Miss,
    /// Pending misses must reach the inner database first.
    Flush,
}

/// A pending miss of a plan: its canonical key and the stripe it
/// belongs to.
type RunEntry<'a> = (Cow<'a, SelectionQuery>, Option<&'a Mutex<CacheState>>);

/// The canonical cache key of `query`. Borrows the query when it is
/// already canonical — the engine's probe plan stores canonical probes,
/// so the common path neither sorts nor clones here.
fn cache_key(query: &SelectionQuery) -> Cow<'_, SelectionQuery> {
    if query.is_canonical() {
        Cow::Borrowed(query)
    } else {
        Cow::Owned(query.canonicalize())
    }
}

/// A memoizing decorator for any [`WebDatabase`]: repeated semantically
/// identical probes are answered from memory instead of re-querying the
/// autonomous source.
///
/// Algorithm 1 re-issues many byte-identical relaxation queries — base-set
/// tuples that agree on their non-relaxed attributes produce the *same*
/// `SelectionQuery`, and overlapping workload queries repeat probes across
/// engine calls. Each repeat costs a round trip, a
/// [`AccessStats::queries_issued`] tick, and (behind a
/// [`crate::ResilientWebDb`]) a probe-budget charge. This decorator
/// eliminates the repeats at the source boundary.
///
/// Semantics:
///
/// - Keys are [`SelectionQuery::canonicalize`]d, so predicate order and
///   duplicate conjuncts do not defeat the cache.
/// - Only *successful, complete* pages are memoized. Errors always
///   propagate and are retried on the next probe (negative caching would
///   turn a transient fault into a permanent one), and truncated pages are
///   forwarded but not stored (a clipped page is not the query's answer;
///   replaying it would freeze one page-limit draw into the session).
/// - The memo is bounded: at most `capacity` pages, evicted FIFO. A
///   `capacity` of zero stores nothing (every probe forwards), which is how
///   `--no-cache` is implemented without changing the decorator stack.
/// - Plans ([`WebDatabase::try_query_plan`]) are walked in order. Each
///   run of consecutive misses goes to the inner database as one
///   sub-plan, so a source that shares work across a plan still gets
///   to; the run is flushed at the end of the plan and before a hit or
///   a repeat of a pending key is looked up, so one caller sees exactly
///   the hits, misses, evictions, inner traffic and memo of the
///   query-at-a-time loop. A terminal error ends the plan; the run
///   entries the inner database never reached are not counted.
/// - Admission is first insertion wins: a page memoized by a concurrent
///   miss for the same key is kept, so `order` never holds a key twice.
/// - Cache hits never touch the inner database: no probe budget is
///   charged, no circuit breaker state advances, no fault-schedule ordinal
///   is consumed, and [`AccessStats::queries_issued`] does not move. The
///   supported composition is therefore cache *outermost*:
///   `CachedWebDb<ResilientWebDb<FaultInjectingWebDb<_>>>`. Stacking the
///   cache inside the resilience layer would charge budget for hits
///   (`ResilientWebDb` meters before delegating) — see the stacking-order
///   test below and DESIGN.md, "Probe caching & dedup semantics".
///
/// [`WebDatabase::stats`] overlays [`AccessStats::cache_hits`] /
/// [`AccessStats::cache_misses`] / [`AccessStats::cache_evictions`] on the
/// inner meter; [`WebDatabase::reset_stats`] clears the counters but keeps
/// the memo (use [`CachedWebDb::clear`] to drop memoized pages).
///
/// The memo is *lock-striped*: keys are sharded over `stripes`
/// independent locks by [`SelectionQuery::stable_hash`] (a deterministic
/// FNV over the canonical form — `std`'s per-process-seeded `RandomState`
/// would make shard assignment unreproducible), so concurrent workers
/// probing different queries rarely contend. [`CachedWebDb::new`] keeps
/// the historical single-stripe behaviour; the serving runtime uses
/// [`CachedWebDb::with_stripes`]. With `s` stripes the capacity bound is
/// enforced per stripe at `ceil(capacity / s)` pages, so the total held
/// never exceeds `capacity + s - 1`.
///
/// Cloning shares the memo and the counters.
#[derive(Debug, Clone)]
pub struct CachedWebDb<D> {
    inner: D,
    capacity: usize,
    /// Capacity bound each stripe enforces locally.
    stripe_capacity: usize,
    /// At least one stripe, always.
    // aimq-lock: family(cache-stripe) -- each stripe guards one shard of the
    // page memo; stripes are peers, never nested, and no guard outlives the
    // hit/miss bookkeeping around a probe
    stripes: Arc<Vec<Mutex<CacheState>>>,
}

impl<D: WebDatabase> CachedWebDb<D> {
    /// Wrap `inner` with a memo of at most `capacity` pages behind a
    /// single lock (see [`DEFAULT_CACHE_STRIPES`]).
    pub fn new(inner: D, capacity: usize) -> Self {
        Self::with_stripes(inner, capacity, DEFAULT_CACHE_STRIPES)
    }

    /// Wrap `inner` with the default capacity
    /// ([`DEFAULT_CACHE_CAPACITY`]).
    pub fn with_default_capacity(inner: D) -> Self {
        Self::new(inner, DEFAULT_CACHE_CAPACITY)
    }

    /// Wrap `inner` with `capacity` total pages sharded over `stripes`
    /// locks (`stripes` is clamped to at least one).
    pub fn with_stripes(inner: D, capacity: usize, stripes: usize) -> Self {
        let stripes = stripes.max(1);
        let stripe_capacity = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(stripes)
        };
        CachedWebDb {
            inner,
            capacity,
            stripe_capacity,
            stripes: Arc::new(
                (0..stripes)
                    .map(|_| Mutex::new(CacheState::default()))
                    .collect(),
            ),
        }
    }

    /// The wrapped database.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The capacity bound this cache was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lock stripes sharding the memo.
    pub fn stripes(&self) -> usize {
        self.stripes.len()
    }

    /// The stripe responsible for a canonical `key`. Returns `None` only
    /// if the stripe vector were empty, which construction forbids;
    /// callers treat that as "cache disabled" rather than panicking.
    fn stripe_for(&self, key: &SelectionQuery) -> Option<&Mutex<CacheState>> {
        let n = self.stripes.len() as u64;
        let idx = (key.stable_hash() % n.max(1)) as usize;
        self.stripes.get(idx).or_else(|| self.stripes.first())
    }

    /// Number of pages currently memoized, summed over stripes.
    pub fn len(&self) -> usize {
        // aimq-lock: use(cache-stripe)
        self.stripes.iter().map(|s| lock_stats(s).pages.len()).sum()
    }

    /// `true` when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every memoized page (counters are untouched; eviction is not
    /// counted — nothing was displaced by an admission).
    pub fn clear(&self) {
        for stripe in self.stripes.iter() {
            let mut state = lock_stats(stripe);
            state.pages.clear();
            state.order.clear();
        }
    }

    /// Look `key` up in its stripe and count the outcome. With
    /// `defer_hits`, a memoized key is neither served nor counted
    /// ([`Lookup::Flush`]): the caller forwards its pending misses, then
    /// looks the key up again.
    fn lookup(&self, stripe: &Mutex<CacheState>, key: &SelectionQuery, defer_hits: bool) -> Lookup {
        let mut state = lock_stats(stripe); // aimq-lock: use(cache-stripe)
        match state.pages.get(key) {
            Some(_) if defer_hits => Lookup::Flush,
            Some(page) => {
                let page = page.clone();
                state.hits += 1;
                Lookup::Hit(page)
            }
            None => {
                state.misses += 1;
                Lookup::Miss
            }
        }
    }

    /// Memoize `page` under `key`, evicting FIFO down to the stripe
    /// bound — the one admission path of both probe entry points.
    /// Truncated pages and a zero capacity store nothing.
    fn admit(&self, stripe: &Mutex<CacheState>, key: &SelectionQuery, page: &QueryPage) {
        if page.truncated || self.stripe_capacity == 0 {
            return;
        }
        // aimq-lock: use(cache-stripe)
        let mut state = lock_stats(stripe);
        // A concurrent miss for the same query may have raced us here;
        // first insertion wins so `order` never holds a duplicate key.
        if state.pages.contains_key(key) {
            return;
        }
        state.order.push_back(key.clone());
        state.pages.insert(key.clone(), page.clone());
        while state.pages.len() > self.stripe_capacity {
            match state.order.pop_front() {
                Some(oldest) => {
                    state.pages.remove(&oldest);
                    state.evictions += 1;
                }
                None => break,
            }
        }
    }

    /// Append the inner database's `results` for the pending misses
    /// `run` to `out`, admitting pages in plan order; `run` is left
    /// empty. Returns `false` when the plan ends here: the inner database
    /// stopped on a terminal error, and the entries it never reached are
    /// taken back off the miss counters.
    fn settle(
        &self,
        run: &mut Vec<RunEntry<'_>>,
        results: Vec<Result<QueryPage, QueryError>>,
        out: &mut Vec<Result<QueryPage, QueryError>>,
    ) -> bool {
        let mut results = results.into_iter();
        let mut ended = false;
        for (key, stripe) in run.drain(..) {
            match results.next() {
                Some(result) if !ended => {
                    ended = matches!(&result, Err(e) if !e.is_retryable());
                    if let (Ok(page), Some(stripe)) = (&result, stripe) {
                        self.admit(stripe, &key, page);
                    }
                    out.push(result);
                }
                _ => {
                    ended = true;
                    if let Some(stripe) = stripe {
                        let mut state = lock_stats(stripe); // aimq-lock: use(cache-stripe)
                        state.misses -= 1;
                    }
                }
            }
        }
        !ended
    }
}

impl<D: WebDatabase> WebDatabase for CachedWebDb<D> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    // aimq-probe: entry -- memoizing wrapper; misses forward inward and hits/misses are metered in CacheStats
    fn try_query(&self, query: &SelectionQuery) -> Result<QueryPage, QueryError> {
        let key = cache_key(query);
        let Some(stripe) = self.stripe_for(&key) else {
            return self.inner.try_query(query);
        };
        if let Lookup::Hit(page) = self.lookup(stripe, &key, false) {
            return Ok(page);
        }
        // Forward without holding the lock: the inner stack may spend
        // virtual time retrying/backing off, and concurrent probes for
        // *other* queries must not serialize behind it.
        let page = self.inner.try_query(query)?;
        self.admit(stripe, &key, &page);
        Ok(page)
    }

    // aimq-probe: entry -- memoizing plan wrapper; each run of consecutive misses forwards inward as one sub-plan, metered per entry in CacheStats
    fn try_query_plan(&self, plan: &[SelectionQuery]) -> Vec<Result<QueryPage, QueryError>> {
        let mut out = Vec::with_capacity(plan.len());
        // The pending misses are always the contiguous plan slice that
        // starts at `run_start`; `run` holds their keys and stripes.
        let mut run: Vec<RunEntry<'_>> = Vec::new();
        let mut run_start = 0;
        let mut entries = plan.iter().enumerate().map(|(i, query)| {
            let key = cache_key(query);
            let stripe = self.stripe_for(&key);
            (i, key, stripe)
        });
        let mut entry = entries.next();
        loop {
            // Pending misses reach the inner database at the end of the
            // plan, and before a repeat of a pending key or a hit is
            // served: the sequential loop looks those up only after the
            // misses' admissions (and evictions).
            let lookup = match &entry {
                None if run.is_empty() => return out,
                None => Lookup::Flush,
                Some((_, key, _)) if run.iter().any(|(k, _)| k == key) => Lookup::Flush,
                Some((_, key, Some(stripe))) => self.lookup(stripe, key, !run.is_empty()),
                Some((_, _, None)) => Lookup::Miss,
            };
            match lookup {
                Lookup::Hit(page) => out.push(Ok(page)),
                Lookup::Miss => {
                    if let Some((i, key, stripe)) = entry {
                        if run.is_empty() {
                            run_start = i;
                        }
                        run.push((key, stripe));
                    }
                }
                Lookup::Flush => {
                    let pending = plan
                        .get(run_start..)
                        .and_then(|rest| rest.get(..run.len()))
                        .unwrap_or_default();
                    let results = self.inner.try_query_plan(pending);
                    if !self.settle(&mut run, results, &mut out) {
                        return out;
                    }
                    // Look the same entry up again.
                    continue;
                }
            }
            entry = entries.next();
        }
    }

    fn stats(&self) -> AccessStats {
        // Read the inner meter first: every source issue was preceded by
        // a counted miss, so summing stripe counters afterwards keeps the
        // `queries_issued <= cache_misses` invariant in every snapshot.
        let inner = self.inner.stats();
        let mut hits = Saturating(inner.cache_hits);
        let mut misses = Saturating(inner.cache_misses);
        let mut evictions = Saturating(inner.cache_evictions);
        for stripe in self.stripes.iter() {
            let state = lock_stats(stripe);
            hits += state.hits;
            misses += state.misses;
            evictions += state.evictions;
        }
        AccessStats {
            cache_hits: hits.0,
            cache_misses: misses.0,
            cache_evictions: evictions.0,
            ..inner
        }
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
        for stripe in self.stripes.iter() {
            let mut state = lock_stats(stripe);
            state.hits = Saturating(0);
            state.misses = Saturating(0);
            state.evictions = Saturating(0);
        }
    }

    fn source_health(&self) -> Option<Vec<crate::SourceHealth>> {
        self.inner.source_health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        FaultInjectingWebDb, FaultProfile, InMemoryWebDb, Relation, ResilientWebDb, RetryPolicy,
    };
    use aimq_catalog::{AttrId, Predicate, Schema, Tuple, Value};

    fn relation() -> Relation {
        let schema = Schema::builder("R")
            .categorical("Make")
            .numeric("Price")
            .build()
            .unwrap();
        let tuples: Vec<Tuple> = [("Toyota", 10000.0), ("Honda", 9000.0), ("Toyota", 7000.0)]
            .iter()
            .map(|&(m, p)| Tuple::new(&schema, vec![Value::cat(m), Value::num(p)]).unwrap())
            .collect();
        Relation::from_tuples(schema, &tuples).unwrap()
    }

    fn make_eq(make: &str) -> Predicate {
        Predicate::eq(AttrId(0), Value::cat(make))
    }

    fn price_ge(p: f64) -> Predicate {
        Predicate {
            attr: AttrId(1),
            op: aimq_catalog::PredicateOp::Ge,
            value: Value::num(p),
        }
    }

    #[test]
    fn repeat_probe_is_served_from_memory() {
        let db = CachedWebDb::new(InMemoryWebDb::new(relation()), 16);
        let q = SelectionQuery::new(vec![make_eq("Toyota")]);
        let first = db.try_query(&q).unwrap();
        let second = db.try_query(&q).unwrap();
        assert_eq!(first, second);
        let s = db.stats();
        assert_eq!(s.queries_issued, 1, "the source saw the probe once");
        assert_eq!((s.cache_hits, s.cache_misses), (1, 1));
        assert_eq!(db.inner().stats().queries_issued, 1);
    }

    #[test]
    fn stripe_tallies_saturate_instead_of_wrapping() {
        let db = CachedWebDb::new(InMemoryWebDb::new(relation()), 16);
        let q = SelectionQuery::new(vec![make_eq("Toyota")]);
        db.try_query(&q).unwrap();
        for stripe in db.stripes.iter() {
            lock_stats(stripe).hits = Saturating(u64::MAX - 1);
        }
        db.try_query(&q).unwrap();
        db.try_query(&q).unwrap();
        assert_eq!(db.stats().cache_hits, u64::MAX, "a full tally stays full");
    }

    #[test]
    fn keying_is_canonical_not_syntactic() {
        let db = CachedWebDb::new(InMemoryWebDb::new(relation()), 16);
        let a = SelectionQuery::new(vec![make_eq("Toyota"), price_ge(8000.0)]);
        let b = SelectionQuery::new(vec![price_ge(8000.0), make_eq("Toyota"), make_eq("Toyota")]);
        let pa = db.try_query(&a).unwrap();
        let pb = db.try_query(&b).unwrap();
        assert_eq!(pa, pb);
        assert_eq!(db.stats().cache_hits, 1, "permuted conjuncts must hit");
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn capacity_bound_evicts_fifo() {
        let db = CachedWebDb::new(InMemoryWebDb::new(relation()), 2);
        let qs: Vec<SelectionQuery> = [6500.0, 8500.0, 9500.0]
            .iter()
            .map(|&p| SelectionQuery::new(vec![price_ge(p)]))
            .collect();
        for q in &qs {
            db.try_query(q).unwrap();
        }
        assert_eq!(db.len(), 2);
        assert_eq!(db.stats().cache_evictions, 1);
        // FIFO: the first-admitted key is gone, the later two still hit.
        db.try_query(&qs[1]).unwrap();
        db.try_query(&qs[2]).unwrap();
        assert_eq!(db.stats().cache_hits, 2);
        db.try_query(&qs[0]).unwrap();
        assert_eq!(db.stats().cache_hits, 2, "evicted key must miss");
    }

    #[test]
    fn zero_capacity_disables_memoization() {
        let db = CachedWebDb::new(InMemoryWebDb::new(relation()), 0);
        let q = SelectionQuery::new(vec![make_eq("Toyota")]);
        db.try_query(&q).unwrap();
        db.try_query(&q).unwrap();
        let s = db.stats();
        assert_eq!(s.queries_issued, 2);
        assert_eq!((s.cache_hits, s.cache_misses, s.cache_evictions), (0, 2, 0));
        assert!(db.is_empty());
    }

    #[test]
    fn truncated_pages_are_forwarded_but_not_memoized() {
        let db = CachedWebDb::new(InMemoryWebDb::new(relation()).with_result_limit(1), 16);
        let all = SelectionQuery::all();
        let page = db.try_query(&all).unwrap();
        assert!(page.truncated);
        db.try_query(&all).unwrap();
        let s = db.stats();
        assert_eq!(s.cache_hits, 0, "clipped pages must not be replayed");
        assert_eq!(s.queries_issued, 2);
        // A complete page for a different query still caches.
        let q = SelectionQuery::new(vec![make_eq("Honda")]);
        db.try_query(&q).unwrap();
        db.try_query(&q).unwrap();
        assert_eq!(db.stats().cache_hits, 1);
    }

    #[test]
    fn errors_propagate_and_are_not_cached() {
        // A dead source: every probe must reach it (and fail) — the cache
        // never memoizes a failure as if it were an answer.
        let dead = FaultProfile {
            unavailable_probability: 1.0,
            ..FaultProfile::none()
        };
        let db = CachedWebDb::new(
            FaultInjectingWebDb::new(InMemoryWebDb::new(relation()), dead, 7),
            16,
        );
        let q = SelectionQuery::new(vec![make_eq("Toyota")]);
        assert_eq!(db.try_query(&q), Err(QueryError::Unavailable));
        assert_eq!(db.try_query(&q), Err(QueryError::Unavailable));
        let s = db.stats();
        assert_eq!(s.cache_misses, 2);
        assert_eq!(s.failures, 2);
        assert!(db.is_empty());
    }

    #[test]
    fn reset_stats_keeps_the_memo_and_clear_drops_it() {
        let db = CachedWebDb::new(InMemoryWebDb::new(relation()), 16);
        let q = SelectionQuery::new(vec![make_eq("Toyota")]);
        db.try_query(&q).unwrap();
        db.reset_stats();
        assert_eq!(db.stats(), AccessStats::default());
        assert_eq!(db.len(), 1, "reset_stats must not flush pages");
        db.try_query(&q).unwrap();
        assert_eq!(db.stats().cache_hits, 1);
        db.clear();
        assert!(db.is_empty());
        db.try_query(&q).unwrap();
        assert_eq!(db.stats().cache_hits, 1, "cleared page misses again");
    }

    /// Satellite: the supported stacking order. Cache *outside* the
    /// resilience layer means hits consume no probe budget; cache *inside*
    /// it means every hit is still charged. The probe budget below admits
    /// exactly two attempts, so the supported order answers three probes
    /// (one miss + two hits) while the unsupported order fast-fails.
    #[test]
    fn stacking_order_cache_outside_resilience_spares_the_budget() {
        let q = SelectionQuery::new(vec![make_eq("Toyota")]);
        let policy = RetryPolicy {
            probe_budget: Some(2),
            ..RetryPolicy::default()
        };

        // Supported: Cached(Resilient(Fault(db))).
        let supported = CachedWebDb::new(
            ResilientWebDb::new(
                FaultInjectingWebDb::new(InMemoryWebDb::new(relation()), FaultProfile::none(), 1),
                policy,
            ),
            16,
        );
        for _ in 0..3 {
            assert!(supported.try_query(&q).is_ok(), "hits are budget-free");
        }
        assert_eq!(supported.stats().cache_hits, 2);

        // Unsupported: Resilient(Cached(Fault(db))) — the budget meter
        // sits above the cache, so even hits are charged and the third
        // probe dies on an exhausted budget.
        let unsupported = ResilientWebDb::new(
            CachedWebDb::new(
                FaultInjectingWebDb::new(InMemoryWebDb::new(relation()), FaultProfile::none(), 1),
                16,
            ),
            policy,
        );
        assert!(unsupported.try_query(&q).is_ok());
        assert!(unsupported.try_query(&q).is_ok());
        assert_eq!(
            unsupported.try_query(&q),
            Err(QueryError::Unavailable),
            "inner cache cannot protect the probe budget"
        );
    }

    /// Satellite: cache hits must not advance the deterministic fault
    /// schedule. With the cache outermost, a workload with repeats sees
    /// exactly the fate sequence of its deduplicated probe sequence.
    #[test]
    fn hits_do_not_consume_fault_schedule_ordinals() {
        let profile = FaultProfile::flaky();
        let seed = 42;
        let queries: Vec<SelectionQuery> = [6500.0, 8500.0, 9500.0, 10500.0]
            .iter()
            .map(|&p| SelectionQuery::new(vec![price_ge(p)]))
            .collect();

        // Reference: the distinct queries, each issued once, bare.
        let bare = FaultInjectingWebDb::new(InMemoryWebDb::new(relation()), profile, seed);
        let reference: Vec<Result<QueryPage, QueryError>> =
            queries.iter().map(|q| bare.try_query(q)).collect();

        // Cached run: each query issued twice; the repeats hit the memo
        // (successful complete pages) or re-probe (failures), but the
        // *first* outcomes replay the reference schedule positions only
        // when hits consume no ordinals.
        let cached = CachedWebDb::new(
            FaultInjectingWebDb::new(InMemoryWebDb::new(relation()), profile, seed),
            16,
        );
        let mut outcomes = Vec::new();
        for q in &queries {
            let first = cached.try_query(q);
            if first.is_ok() {
                assert_eq!(cached.try_query(q), first, "repeat must replay the page");
            }
            outcomes.push(first);
        }
        // flaky(seed=42) over four probes is fault-free here, so every
        // repeat was a hit and the fate sequences line up exactly.
        assert_eq!(outcomes, reference);
        assert_eq!(cached.stats().cache_hits, 4);
    }

    #[test]
    fn concurrent_misses_keep_the_meter_coherent() {
        // Distinct queries from several threads: every probe is a miss,
        // and a miss is counted before the source issue, so any stats
        // snapshot (inner meter read first) obeys
        // `queries_issued <= cache_misses`.
        let db = CachedWebDb::new(InMemoryWebDb::new(relation()), 1024);
        let mut handles = Vec::new();
        for worker_id in 0..4u32 {
            let worker = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250u32 {
                    let p = f64::from(worker_id * 1000 + i) / 10.0;
                    worker
                        .try_query(&SelectionQuery::new(vec![price_ge(p)]))
                        .unwrap();
                }
            }));
        }
        let reader = db.clone();
        let checker = std::thread::spawn(move || {
            for _ in 0..200 {
                let s = reader.stats();
                assert!(
                    s.queries_issued <= s.cache_misses,
                    "issue without a counted miss: {s:?}"
                );
            }
        });
        for h in handles {
            h.join().unwrap();
        }
        checker.join().unwrap();
        let s = db.stats();
        assert_eq!(s.cache_misses, 1000);
        assert_eq!(s.queries_issued, 1000);
        assert_eq!(s.cache_hits, 0);
    }

    #[test]
    fn default_constructor_keeps_single_stripe_semantics() {
        let db = CachedWebDb::new(InMemoryWebDb::new(relation()), 16);
        assert_eq!(db.stripes(), DEFAULT_CACHE_STRIPES);
        assert_eq!(db.stripes(), 1);
    }

    #[test]
    fn striped_cache_keys_canonically_and_replays_pages() {
        let db = CachedWebDb::with_stripes(InMemoryWebDb::new(relation()), 64, 8);
        assert_eq!(db.stripes(), 8);
        let a = SelectionQuery::new(vec![make_eq("Toyota"), price_ge(8000.0)]);
        let b = SelectionQuery::new(vec![price_ge(8000.0), make_eq("Toyota"), make_eq("Toyota")]);
        let pa = db.try_query(&a).unwrap();
        let pb = db.try_query(&b).unwrap();
        assert_eq!(pa, pb);
        assert_eq!(db.stats().cache_hits, 1, "stripe choice must be canonical");
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn striped_concurrent_replay_hits_across_threads() {
        // Fill from one thread, then replay the same workload from many:
        // every stripe must serve its keys to every worker.
        let db = CachedWebDb::with_stripes(InMemoryWebDb::new(relation()), 1024, 8);
        let queries: Vec<SelectionQuery> = (0..40)
            .map(|i| SelectionQuery::new(vec![price_ge(f64::from(i) * 250.0)]))
            .collect();
        for q in &queries {
            db.try_query(q).unwrap();
        }
        let issued_after_fill = db.stats().queries_issued;
        assert_eq!(issued_after_fill, 40);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let worker = db.clone();
            let queries = queries.clone();
            handles.push(std::thread::spawn(move || {
                for q in &queries {
                    worker.try_query(q).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = db.stats();
        assert_eq!(s.queries_issued, 40, "replays must all hit the memo");
        assert_eq!(s.cache_hits, 4 * 40);
    }

    #[test]
    fn striped_capacity_is_enforced_per_stripe() {
        // 8 keys through 4 stripes with a total capacity of 4: each
        // stripe holds at most ceil(4/4) = 1 page, so the cache holds at
        // most one page per stripe regardless of key skew.
        let db = CachedWebDb::with_stripes(InMemoryWebDb::new(relation()), 4, 4);
        for i in 0..8 {
            db.try_query(&SelectionQuery::new(vec![price_ge(f64::from(i) * 500.0)]))
                .unwrap();
        }
        assert!(db.len() <= 4, "len {} exceeds stripe bound", db.len());
        let s = db.stats();
        assert_eq!(s.cache_misses, 8);
        assert_eq!(s.cache_evictions as usize + db.len(), 8);
    }

    /// Every stripe's FIFO admission order, front (next evicted) first.
    fn orders<D: WebDatabase>(db: &CachedWebDb<D>) -> Vec<Vec<SelectionQuery>> {
        db.stripes
            .iter()
            .map(|s| lock_stats(s).order.iter().cloned().collect())
            .collect()
    }

    /// The sequential reference for `try_query_plan`: the trait's
    /// default loop, spelled out.
    fn query_loop(
        db: &dyn WebDatabase,
        plan: &[SelectionQuery],
    ) -> Vec<Result<QueryPage, QueryError>> {
        let mut out = Vec::new();
        for q in plan {
            let result = db.try_query(q);
            let terminal = matches!(&result, Err(e) if !e.is_retryable());
            out.push(result);
            if terminal {
                break;
            }
        }
        out
    }

    /// Every plan of up to four entries over four queries (one of them
    /// non-canonical), at capacities that evict inside a plan, cold and
    /// pre-warmed, with and without truncated pages: the plan path
    /// leaves the same pages, meters, memo contents and FIFO order as
    /// the query loop.
    #[test]
    fn plan_path_matches_the_query_loop_exhaustively() {
        let pool = [
            SelectionQuery::new(vec![make_eq("Toyota")]),
            SelectionQuery::new(vec![price_ge(8000.0), make_eq("Toyota")]),
            SelectionQuery::new(vec![price_ge(6500.0)]),
            SelectionQuery::new(vec![make_eq("Honda")]),
        ];
        let mut plans: Vec<Vec<SelectionQuery>> = vec![Vec::new()];
        for _ in 0..4 {
            let longer: Vec<Vec<SelectionQuery>> = plans
                .iter()
                .filter(|p| p.len() == plans.last().map_or(0, Vec::len))
                .flat_map(|p| {
                    pool.iter().map(move |q| {
                        let mut p = p.clone();
                        p.push(q.clone());
                        p
                    })
                })
                .collect();
            plans.extend(longer);
        }
        assert_eq!(plans.len(), 1 + 4 + 16 + 64 + 256);
        for capacity in 0..=3 {
            for limit in [None, Some(1)] {
                for warm in [false, true] {
                    let build = || {
                        let source = InMemoryWebDb::new(relation());
                        let source = match limit {
                            Some(n) => source.with_result_limit(n),
                            None => source,
                        };
                        let db = CachedWebDb::new(source, capacity);
                        if warm {
                            query_loop(&db, &[pool[2].clone(), pool[3].clone()]);
                        }
                        db
                    };
                    for plan in &plans {
                        let (batched, sequential) = (build(), build());
                        let case = format!("capacity {capacity}, limit {limit:?}, warm {warm}");
                        assert_eq!(
                            batched.try_query_plan(plan),
                            query_loop(&sequential, plan),
                            "{case}: pages"
                        );
                        assert_eq!(batched.stats(), sequential.stats(), "{case}: meters");
                        assert_eq!(orders(&batched), orders(&sequential), "{case}: memo");
                    }
                }
            }
        }
    }

    #[test]
    fn plan_stops_at_a_terminal_error_and_uncounts_the_unreached_tail() {
        let dead = FaultProfile {
            unavailable_probability: 1.0,
            ..FaultProfile::none()
        };
        let build = || {
            CachedWebDb::new(
                FaultInjectingWebDb::new(InMemoryWebDb::new(relation()), dead, 7),
                16,
            )
        };
        let plan: Vec<SelectionQuery> = [6500.0, 8500.0, 9500.0]
            .iter()
            .map(|&p| SelectionQuery::new(vec![price_ge(p)]))
            .collect();
        let (batched, sequential) = (build(), build());
        let results = batched.try_query_plan(&plan);
        assert_eq!(results, vec![Err(QueryError::Unavailable)]);
        assert_eq!(results, query_loop(&sequential, &plan));
        assert_eq!(batched.stats(), sequential.stats());
        assert_eq!(batched.stats().cache_misses, 1, "only the reached entry");
    }

    /// Overlapping plans from several threads through one striped cache
    /// small enough to evict: pages stay the bare source's, each stripe's
    /// FIFO holds a key at most once, the stripe bound holds, and no
    /// source issue goes without a counted miss.
    #[test]
    fn concurrent_plans_keep_pages_memo_and_meter_coherent() {
        const STRIPES: usize = 4;
        const CAPACITY: usize = 6;
        let bare = InMemoryWebDb::new(relation());
        let db = CachedWebDb::with_stripes(InMemoryWebDb::new(relation()), CAPACITY, STRIPES);
        let pool: Vec<SelectionQuery> = (0..24)
            .map(|i| SelectionQuery::new(vec![price_ge(f64::from(i) * 500.0)]))
            .collect();
        std::thread::scope(|scope| {
            for worker in 0..3usize {
                let (db, bare, pool) = (&db, &bare, &pool);
                scope.spawn(move || {
                    for round in 0..40usize {
                        let plan: Vec<SelectionQuery> = (0..6)
                            .filter_map(|j| pool.get((worker * 5 + round * 7 + j * 3) % pool.len()))
                            .cloned()
                            .collect();
                        let pages = db.try_query_plan(&plan);
                        assert_eq!(pages.len(), plan.len());
                        for (q, page) in plan.iter().zip(pages) {
                            assert_eq!(page, bare.try_query(q), "page differs from the source");
                        }
                        let s = db.stats();
                        assert!(s.queries_issued <= s.cache_misses, "uncounted issue: {s:?}");
                    }
                });
            }
        });
        for order in orders(&db) {
            let distinct: std::collections::BTreeSet<&SelectionQuery> = order.iter().collect();
            assert_eq!(
                distinct.len(),
                order.len(),
                "duplicate key in a stripe's order"
            );
        }
        assert!(db.len() < CAPACITY + STRIPES, "len {}", db.len());
        let s = db.stats();
        assert!(s.queries_issued <= s.cache_misses);
        assert_eq!(s.cache_hits + s.cache_misses, 3 * 40 * 6);
    }

    #[test]
    fn clones_share_memo_and_counters() {
        let db = CachedWebDb::new(InMemoryWebDb::new(relation()), 16);
        let q = SelectionQuery::new(vec![make_eq("Toyota")]);
        db.clone().try_query(&q).unwrap();
        db.try_query(&q).unwrap();
        assert_eq!(db.stats().cache_hits, 1);
        assert_eq!(db.capacity(), 16);
    }
}

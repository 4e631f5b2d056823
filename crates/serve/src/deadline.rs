//! Per-query deadlines over virtual time.
//!
//! Real deadlines (wall-clock timers) would make serving behavior
//! depend on machine load and scheduling — the same query could
//! complete on one run and miss on the next. Instead each in-flight
//! query gets its own [`DeadlineWebDb`]: a decorator holding a private
//! [`VirtualClock`] that charges a fixed number of ticks per probe.
//! When the accumulated cost reaches the deadline, further probes fail
//! with the *terminal* [`QueryError::Unavailable`], which the engine
//! already knows how to degrade on — it abandons remaining work and
//! returns a partial answer with a populated `DegradationReport`.
//!
//! A relaxation plan ([`WebDatabase::try_query_plan`]) is cut the same
//! way: the prefix the remaining budget covers goes to the inner
//! database as one plan, each entry it returns costs one probe's
//! ticks, and a plan cut short by the budget ends in the terminal
//! `Unavailable` — exactly what the query-at-a-time loop returns, so
//! shared plan evaluation below reaches the source unchanged.
//!
//! Because the clock is per-query and every probe costs the same
//! whether it is served from cache, source, or fails, deadline behavior
//! is a pure function of the query's own probe count: independent of
//! worker interleaving, machine speed, and concurrency level. The same
//! query with the same budget misses (or not) identically at 1 worker
//! and at 64.

use aimq_catalog::{Schema, SelectionQuery};
use aimq_storage::{AccessStats, Flag, QueryError, QueryPage, VirtualClock, WebDatabase};

/// Decorator enforcing a probe-tick budget on one query's probes.
pub struct DeadlineWebDb<'a> {
    inner: &'a dyn WebDatabase,
    clock: VirtualClock,
    /// Total tick budget; 0 disables the deadline.
    deadline_ticks: u64,
    /// Cost charged per probe, cache hit or not.
    ticks_per_probe: u64,
    /// Raised on the first refusal.
    missed: Flag,
}

impl<'a> DeadlineWebDb<'a> {
    /// Wrap `inner` with a budget of `deadline_ticks`, charging
    /// `ticks_per_probe` per probe. `deadline_ticks == 0` disables the
    /// deadline (probes are still metered on the clock).
    pub fn new(inner: &'a dyn WebDatabase, deadline_ticks: u64, ticks_per_probe: u64) -> Self {
        DeadlineWebDb {
            inner,
            clock: VirtualClock::new(),
            deadline_ticks,
            ticks_per_probe: ticks_per_probe.max(1),
            missed: Flag::new(),
        }
    }

    /// Virtual ticks consumed so far (the query's probe cost).
    pub fn elapsed_ticks(&self) -> u64 {
        self.clock.now()
    }

    /// `true` once any probe was refused for exceeding the deadline.
    pub fn deadline_missed(&self) -> bool {
        self.missed.get()
    }
}

impl WebDatabase for DeadlineWebDb<'_> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    // aimq-probe: entry -- deadline wrapper; overruns convert to terminal Unavailable and are recorded on the `missed` flag
    fn try_query(&self, query: &SelectionQuery) -> Result<QueryPage, QueryError> {
        if self.deadline_ticks > 0 && self.clock.now() >= self.deadline_ticks {
            // Terminal by design: the engine treats `Unavailable` as
            // "stop probing, degrade gracefully", which is exactly the
            // deadline semantics — salvage what is already ranked.
            self.missed.set();
            return Err(QueryError::Unavailable);
        }
        self.clock.advance(self.ticks_per_probe);
        self.inner.try_query(query)
    }

    // aimq-probe: entry -- deadline plan wrapper; the budget-covered prefix forwards inward as one plan, a cut converts to terminal Unavailable on the `missed` flag
    fn try_query_plan(&self, plan: &[SelectionQuery]) -> Vec<Result<QueryPage, QueryError>> {
        // Entry `k` of the prefix would start at tick `now + k * cost`;
        // `try_query` refuses it once that reaches the deadline.
        let admitted = if self.deadline_ticks == 0 {
            plan.len()
        } else {
            let remaining = self.deadline_ticks.saturating_sub(self.clock.now());
            let covered = remaining.div_ceil(self.ticks_per_probe);
            usize::try_from(covered).map_or(plan.len(), |n| n.min(plan.len()))
        };
        let prefix = plan.get(..admitted).unwrap_or_default();
        let mut out = if prefix.is_empty() {
            Vec::new()
        } else {
            self.inner.try_query_plan(prefix)
        };
        // Every entry the inner database returned was issued, so each
        // costs one probe — as in the sequential loop, where the clock
        // advances before the probe resolves.
        let issued = u64::try_from(out.len()).unwrap_or(u64::MAX);
        self.clock
            .advance(self.ticks_per_probe.saturating_mul(issued));
        let inner_ended =
            out.len() < prefix.len() || matches!(out.last(), Some(Err(e)) if !e.is_retryable());
        if admitted < plan.len() && !inner_ended {
            self.missed.set();
            out.push(Err(QueryError::Unavailable));
        }
        out
    }

    fn stats(&self) -> AccessStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }

    fn source_health(&self) -> Option<Vec<aimq_storage::SourceHealth>> {
        self.inner.source_health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimq_catalog::{AttrId, Predicate, PredicateOp, Tuple, Value};
    use aimq_storage::{FaultInjectingWebDb, FaultProfile, InMemoryWebDb, Relation};
    use proptest::prelude::*;

    fn db() -> InMemoryWebDb {
        let schema = Schema::builder("R")
            .categorical("Make")
            .numeric("Price")
            .build()
            .unwrap();
        let tuples = [("Toyota", 10_000.0), ("Honda", 9_000.0)]
            .iter()
            .map(|&(m, p)| Tuple::new(&schema, vec![Value::cat(m), Value::num(p)]).unwrap())
            .collect::<Vec<_>>();
        InMemoryWebDb::new(Relation::from_tuples(schema, &tuples).unwrap())
    }

    fn probe() -> SelectionQuery {
        SelectionQuery::new(vec![Predicate::eq(AttrId(0), Value::cat("Toyota"))])
    }

    #[test]
    fn probes_succeed_until_the_budget_is_spent() {
        let inner = db();
        let ddb = DeadlineWebDb::new(&inner, 30, 10);
        for _ in 0..3 {
            assert!(ddb.try_query(&probe()).is_ok());
        }
        assert!(!ddb.deadline_missed());
        assert_eq!(ddb.elapsed_ticks(), 30);
        // Fourth probe would start at tick 30 == deadline: refused.
        assert_eq!(ddb.try_query(&probe()), Err(QueryError::Unavailable));
        assert!(ddb.deadline_missed());
        // The refusal never reached the source.
        assert_eq!(inner.stats().queries_issued, 3);
    }

    #[test]
    fn zero_deadline_disables_enforcement_but_still_meters() {
        let inner = db();
        let ddb = DeadlineWebDb::new(&inner, 0, 7);
        for _ in 0..100 {
            assert!(ddb.try_query(&probe()).is_ok());
        }
        assert!(!ddb.deadline_missed());
        assert_eq!(ddb.elapsed_ticks(), 700);
    }

    /// Fault profiles the plan proptest draws from: none, hostile, and
    /// hostile plus a chance of the terminal `Unavailable`, so an inner
    /// error as well as the budget can end a plan.
    fn profile(idx: usize) -> FaultProfile {
        match idx % 3 {
            0 => FaultProfile::none(),
            1 => FaultProfile::hostile(),
            _ => FaultProfile {
                unavailable_probability: 0.1,
                ..FaultProfile::hostile()
            },
        }
    }

    /// A small query pool: hits, an empty match, and price ranges.
    fn query(code: u8) -> SelectionQuery {
        match code % 4 {
            0 => probe(),
            1 => SelectionQuery::new(vec![Predicate::eq(AttrId(0), Value::cat("Honda"))]),
            2 => SelectionQuery::new(vec![Predicate::eq(AttrId(0), Value::cat("DeLorean"))]),
            _ => SelectionQuery::new(vec![Predicate {
                attr: AttrId(1),
                op: PredicateOp::Ge,
                value: Value::num(f64::from(code) * 50.0),
            }]),
        }
    }

    /// The sequential reference: the trait's default loop, spelled out.
    fn sequential(
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The plan path is the sequential loop: same results, same
        /// ticks charged, same miss flag and the same inner traffic,
        /// whether the budget, an inner terminal error or neither ends
        /// the plan — also when earlier probes already spent part of
        /// the budget.
        #[test]
        fn plan_matches_the_sequential_loop(
            deadline_ticks in 0u64..40,
            ticks_per_probe in 1u64..7,
            warmup in proptest::collection::vec(0u8..=255, 0..4),
            plan in proptest::collection::vec(0u8..=255, 0..16),
            profile_idx in 0usize..3,
            fault_seed in 0u64..=u64::MAX,
        ) {
            let warmup: Vec<SelectionQuery> = warmup.into_iter().map(query).collect();
            let plan: Vec<SelectionQuery> = plan.into_iter().map(query).collect();
            let run = |batched: bool| {
                let inner = FaultInjectingWebDb::new(db(), profile(profile_idx), fault_seed);
                let ddb = DeadlineWebDb::new(&inner, deadline_ticks, ticks_per_probe);
                let mut results = sequential(&ddb, &warmup);
                results.extend(if batched {
                    ddb.try_query_plan(&plan)
                } else {
                    sequential(&ddb, &plan)
                });
                (
                    results,
                    ddb.elapsed_ticks(),
                    ddb.deadline_missed(),
                    format!("{:?}", inner.stats()),
                )
            };
            prop_assert_eq!(run(true), run(false));
        }
    }

    #[test]
    fn plan_cut_by_the_budget_ends_in_unavailable() {
        let inner = db();
        let ddb = DeadlineWebDb::new(&inner, 25, 10);
        let results = ddb.try_query_plan(&[probe(), probe(), probe(), probe()]);
        assert_eq!(results.len(), 4, "three admitted entries and the refusal");
        assert!(results.iter().take(3).all(Result::is_ok));
        assert_eq!(results.last(), Some(&Err(QueryError::Unavailable)));
        assert!(ddb.deadline_missed());
        assert_eq!(ddb.elapsed_ticks(), 30);
        assert_eq!(inner.stats().queries_issued, 3);
    }

    #[test]
    fn probe_cost_is_charged_identically_for_misses() {
        // A probe that matches nothing costs the same ticks as one that
        // returns tuples: deadline behavior must depend on probe count
        // only, never on result contents.
        let inner = db();
        let ddb = DeadlineWebDb::new(&inner, 0, 5);
        let empty = SelectionQuery::new(vec![Predicate::eq(AttrId(0), Value::cat("DeLorean"))]);
        ddb.try_query(&probe()).unwrap();
        ddb.try_query(&empty).unwrap();
        assert_eq!(ddb.elapsed_ticks(), 10);
    }
}

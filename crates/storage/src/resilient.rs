//! Client-side resilience policy for fallible autonomous sources.
//!
//! [`ResilientWebDb`] wraps any [`WebDatabase`] with bounded retry +
//! exponential backoff (deterministic jitter), a consecutive-failure
//! circuit breaker and a per-session probe budget. All waiting happens on
//! a [`VirtualClock`] — a monotone tick counter, never the wall clock —
//! so retry schedules are exactly replayable and tests need no sleeping.
//!
//! Time model: one *tick* is an abstract probe interval. Backoff advances
//! the clock by the wait it would impose; while the breaker is open, each
//! rejected probe advances the clock by one tick, so the breaker
//! half-opens after `breaker_cooldown` rejected probes (or earlier, if
//! backoff elsewhere moved the clock forward).

use std::num::Saturating;
use std::sync::{Arc, Mutex};

use aimq_catalog::{Schema, SelectionQuery};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::web::lock_stats;
use crate::{AccessStats, Counter, QueryError, QueryPage, WebDatabase};

/// A monotone virtual clock counting abstract ticks.
///
/// Shared by reference; advancing is wait-free.
#[derive(Debug, Default)]
pub struct VirtualClock {
    ticks: Counter,
}

impl VirtualClock {
    /// A clock at tick zero.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Current tick.
    pub fn now(&self) -> u64 {
        self.ticks.get()
    }

    /// Advance by `ticks`.
    pub fn advance(&self, ticks: u64) {
        self.ticks.add(ticks);
    }
}

/// Retry, backoff, breaker and budget knobs of [`ResilientWebDb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum re-issues of one failed query (0 = fail on first error).
    pub max_retries: u32,
    /// Backoff before the first retry, in ticks; doubles per attempt.
    pub base_backoff: u64,
    /// Ceiling on the exponential backoff, in ticks.
    pub max_backoff: u64,
    /// Maximum deterministic jitter added to each backoff, in ticks
    /// (drawn from the seeded policy RNG; 0 disables jitter).
    pub max_jitter: u64,
    /// Seed of the jitter stream (replayable runs fix this).
    pub jitter_seed: u64,
    /// Consecutive failed attempts that open the circuit breaker.
    pub breaker_threshold: u32,
    /// Ticks the breaker stays open before half-opening.
    pub breaker_cooldown: u64,
    /// Cap on total attempts against the source per session (`None` =
    /// unlimited). Exhaustion fails fast with
    /// [`QueryError::Unavailable`].
    pub probe_budget: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: 1,
            max_backoff: 16,
            max_jitter: 1,
            jitter_seed: 0,
            breaker_threshold: 8,
            breaker_cooldown: 32,
            probe_budget: None,
        }
    }
}

/// Resilience outcome counters, separate from the raw access meter.
/// Every counter saturates by type, so `+= 1` can never wrap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Failed attempts that were re-issued.
    pub retries: Saturating<u64>,
    /// Closed → open breaker transitions.
    pub breaker_trips: Saturating<u64>,
    /// Half-open trial probes that succeeded and closed the breaker.
    pub breaker_recoveries: Saturating<u64>,
    /// Probes rejected without touching the source (open breaker or
    /// exhausted budget).
    pub fast_failures: Saturating<u64>,
    /// Total attempts issued against the inner source.
    pub attempts: Saturating<u64>,
}

#[derive(Debug)]
struct ResilientState {
    rng: StdRng,
    /// Failure streak. With `breaker_threshold == 0` nothing resets it,
    /// so it must saturate rather than wrap.
    consecutive_failures: Saturating<u32>,
    /// `Some(tick)` while the breaker is open; half-opens at `tick`.
    open_until: Option<u64>,
    /// `true` between a half-open admission and the trial probe's verdict:
    /// the next success counts as a recovery, the next failure re-opens
    /// the breaker immediately with a fresh cooldown.
    half_open: bool,
    report: ResilienceReport,
}

/// A [`WebDatabase`] decorator implementing the client half of the fault
/// model: retry with backoff and jitter over a [`VirtualClock`], a
/// consecutive-failure circuit breaker, and a per-session probe budget.
///
/// Cloning shares the inner database, the clock and all policy state.
#[derive(Debug, Clone)]
pub struct ResilientWebDb<D> {
    inner: D,
    policy: RetryPolicy,
    clock: Arc<VirtualClock>,
    // aimq-lock: family(resilient-state) -- guards breaker/budget/report
    // bookkeeping; released before every probe of the inner database
    state: Arc<Mutex<ResilientState>>,
}

impl<D: WebDatabase> ResilientWebDb<D> {
    /// Wrap `inner` under `policy` with a fresh clock at tick zero.
    pub fn new(inner: D, policy: RetryPolicy) -> Self {
        Self::with_clock(inner, policy, Arc::new(VirtualClock::new()))
    }

    /// Wrap `inner` sharing an existing clock (several wrappers can ride
    /// one session timeline).
    pub fn with_clock(inner: D, policy: RetryPolicy, clock: Arc<VirtualClock>) -> Self {
        ResilientWebDb {
            inner,
            policy,
            clock,
            state: Arc::new(Mutex::new(ResilientState {
                rng: StdRng::seed_from_u64(policy.jitter_seed),
                consecutive_failures: Saturating(0),
                open_until: None,
                half_open: false,
                report: ResilienceReport::default(),
            })),
        }
    }

    /// The session clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The active policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Borrow the wrapped database.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Snapshot of the resilience counters.
    pub fn report(&self) -> ResilienceReport {
        lock_stats(&self.state).report
    }

    /// `true` while the breaker is open (cooldown not yet elapsed).
    pub fn breaker_open(&self) -> bool {
        let state = lock_stats(&self.state);
        state
            .open_until
            .is_some_and(|until| self.clock.now() < until)
    }

    /// Backoff + jitter before retry number `attempt` (1-based), honoring
    /// a rate-limit hint when present.
    fn wait_for(&self, state: &mut ResilientState, attempt: u32, error: QueryError) -> u64 {
        let base = if let QueryError::RateLimited { retry_after } = error {
            retry_after.max(1)
        } else {
            let exp = self
                .policy
                .base_backoff
                .saturating_mul(1u64 << attempt.saturating_sub(1).min(62));
            exp.clamp(1, self.policy.max_backoff.max(1))
        };
        let jitter = if self.policy.max_jitter > 0 {
            state.rng.random_range(0..=self.policy.max_jitter)
        } else {
            0
        };
        base + jitter
    }

    /// Record a failed attempt; trips the breaker at the threshold. A
    /// failed half-open trial re-opens the breaker immediately with a
    /// fresh cooldown — the source has not proven itself healthy, so it
    /// does not get `breaker_threshold` fresh failures of grace.
    fn note_failure(&self, state: &mut ResilientState) {
        state.consecutive_failures += 1;
        if self.policy.breaker_threshold == 0 {
            return;
        }
        let failed_trial = std::mem::take(&mut state.half_open);
        if (failed_trial || state.consecutive_failures.0 >= self.policy.breaker_threshold)
            && state.open_until.is_none()
        {
            state.open_until = Some(self.clock.now() + self.policy.breaker_cooldown);
            state.report.breaker_trips += 1;
        }
    }
}

impl<D: WebDatabase> WebDatabase for ResilientWebDb<D> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    // aimq-probe: entry -- retry/breaker wrapper; every attempt and rejection is metered in ResilienceReport
    fn try_query(&self, query: &SelectionQuery) -> Result<QueryPage, QueryError> {
        let mut attempt: u32 = 0;
        loop {
            {
                let mut state = lock_stats(&self.state);
                // Fast-fail while the breaker is open; each rejection
                // advances virtual time one tick (see module docs).
                if let Some(until) = state.open_until {
                    if self.clock.now() < until {
                        state.report.fast_failures += 1;
                        drop(state);
                        self.clock.advance(1);
                        return Err(QueryError::Unavailable);
                    }
                    // Cooldown elapsed: half-open, admit one trial.
                    state.open_until = None;
                    state.consecutive_failures = Saturating(0);
                    state.half_open = true;
                }
                // Probe budget is spent per attempt, retries included.
                if let Some(budget) = self.policy.probe_budget {
                    if state.report.attempts.0 >= budget {
                        state.report.fast_failures += 1;
                        return Err(QueryError::Unavailable);
                    }
                }
                state.report.attempts += 1;
            }

            match self.inner.try_query(query) {
                Ok(page) => {
                    let mut state = lock_stats(&self.state);
                    state.consecutive_failures = Saturating(0);
                    if std::mem::take(&mut state.half_open) {
                        state.report.breaker_recoveries += 1;
                    }
                    return Ok(page);
                }
                Err(error) => {
                    let mut state = lock_stats(&self.state);
                    self.note_failure(&mut state);
                    let breaker_opened = state.open_until.is_some();
                    if !error.is_retryable() || attempt >= self.policy.max_retries || breaker_opened
                    {
                        return Err(error);
                    }
                    attempt += 1;
                    state.report.retries += 1;
                    let wait = self.wait_for(&mut state, attempt, error);
                    drop(state);
                    self.clock.advance(wait);
                }
            }
        }
    }

    fn stats(&self) -> AccessStats {
        let inner = self.inner.stats();
        let state = lock_stats(&self.state);
        AccessStats {
            retries: inner.retries.saturating_add(state.report.retries.0),
            failures: inner.failures.saturating_add(state.report.fast_failures.0),
            breaker_trips: inner
                .breaker_trips
                .saturating_add(state.report.breaker_trips.0),
            breaker_recoveries: inner
                .breaker_recoveries
                .saturating_add(state.report.breaker_recoveries.0),
            ..inner
        }
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
        lock_stats(&self.state).report = ResilienceReport::default();
    }

    fn source_health(&self) -> Option<Vec<crate::SourceHealth>> {
        self.inner.source_health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultInjectingWebDb, FaultProfile, InMemoryWebDb, RateLimitWindow, Relation};
    use aimq_catalog::{Schema, Tuple, Value};

    fn base_db() -> InMemoryWebDb {
        let schema = Schema::builder("R")
            .categorical("Make")
            .numeric("Price")
            .build()
            .unwrap();
        let tuples: Vec<Tuple> = (0..6)
            .map(|i| {
                Tuple::new(
                    &schema,
                    vec![Value::cat("Toyota"), Value::num(1000.0 * f64::from(i))],
                )
                .unwrap()
            })
            .collect();
        InMemoryWebDb::new(Relation::from_tuples(schema, &tuples).unwrap())
    }

    fn flaky_db(seed: u64) -> FaultInjectingWebDb<InMemoryWebDb> {
        FaultInjectingWebDb::new(base_db(), FaultProfile::flaky(), seed)
    }

    #[test]
    fn retries_absorb_transient_failures() {
        let db = ResilientWebDb::new(flaky_db(42), RetryPolicy::default());
        let mut failures = 0usize;
        for _ in 0..300 {
            if db.try_query(&SelectionQuery::all()).is_err() {
                failures += 1;
            }
        }
        // P(4 consecutive 10% failures) = 1e-4; over 300 queries the
        // expected number of surfaced failures is ~0.03.
        assert_eq!(failures, 0, "retries should absorb a 10% flaky source");
        let r = db.report();
        assert!(r.retries.0 > 0, "some retries must have happened");
        assert_eq!(db.stats().retries, r.retries.0);
    }

    #[test]
    fn backoff_advances_virtual_clock_only() {
        let db = ResilientWebDb::new(flaky_db(7), RetryPolicy::default());
        for _ in 0..200 {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "the test reads the report, not each outcome"
            )]
            let _ = db.try_query(&SelectionQuery::all());
        }
        let r = db.report();
        assert!(r.retries.0 > 0);
        assert!(
            db.clock().now() >= r.retries.0,
            "each retry waits at least one tick"
        );
    }

    #[test]
    fn rate_limit_hint_drives_backoff() {
        let profile = FaultProfile {
            rate_limit: Some(RateLimitWindow {
                period: 1,
                burst: 1,
                retry_after: 10,
            }),
            ..FaultProfile::none()
        };
        let inner = FaultInjectingWebDb::new(base_db(), profile, 1);
        let policy = RetryPolicy {
            max_jitter: 0,
            ..RetryPolicy::default()
        };
        let db = ResilientWebDb::new(inner, policy);
        // Query 0 succeeds; query 1 hits the burst, waits ≥ 10 ticks,
        // then the retry (ordinal 2) succeeds.
        assert!(db.try_query(&SelectionQuery::all()).is_ok());
        let before = db.clock().now();
        assert!(db.try_query(&SelectionQuery::all()).is_ok());
        assert!(db.clock().now() - before >= 10);
    }

    #[test]
    fn failure_streak_saturates_without_a_breaker() {
        // With `breaker_threshold == 0` nothing resets the streak, so it
        // must stop at the top instead of wrapping back to zero.
        let policy = RetryPolicy {
            breaker_threshold: 0,
            ..RetryPolicy::default()
        };
        let db = ResilientWebDb::new(flaky_db(7), policy);
        let mut state = lock_stats(&db.state);
        state.consecutive_failures = Saturating(u32::MAX - 1);
        db.note_failure(&mut state);
        db.note_failure(&mut state);
        assert_eq!(state.consecutive_failures.0, u32::MAX);
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_half_opens() {
        let dead = FaultInjectingWebDb::new(
            base_db(),
            FaultProfile {
                transient_probability: 1.0,
                ..FaultProfile::none()
            },
            1,
        );
        let policy = RetryPolicy {
            max_retries: 10,
            breaker_threshold: 3,
            breaker_cooldown: 4,
            ..RetryPolicy::default()
        };
        let db = ResilientWebDb::new(dead, policy);
        // First query: 3 consecutive failures trip the breaker mid-retry.
        assert!(db.try_query(&SelectionQuery::all()).is_err());
        assert!(db.breaker_open());
        assert_eq!(db.report().breaker_trips.0, 1);
        // While open: fast Unavailable without touching the source.
        let attempts_before = db.report().attempts;
        for _ in 0..4 {
            assert_eq!(
                db.try_query(&SelectionQuery::all()),
                Err(QueryError::Unavailable)
            );
        }
        assert_eq!(db.report().attempts, attempts_before);
        // Rejections advanced the clock past the cooldown: half-open
        // admits a trial again (which fails and re-trips eventually).
        assert!(!db.breaker_open());
        #[expect(
            clippy::let_underscore_must_use,
            reason = "the trial's outcome is random; the test reads the attempt count"
        )]
        let _ = db.try_query(&SelectionQuery::all());
        assert!(db.report().attempts > attempts_before);
    }

    #[test]
    fn breaker_recovers_when_source_heals() {
        // A 50% source with no retries trips a threshold-2 breaker over
        // and over; half-opening must keep admitting trials, so successes
        // keep flowing.
        let flaky = FaultInjectingWebDb::new(
            base_db(),
            FaultProfile {
                transient_probability: 0.5,
                ..FaultProfile::none()
            },
            9,
        );
        let policy = RetryPolicy {
            max_retries: 0,
            breaker_threshold: 2,
            breaker_cooldown: 2,
            ..RetryPolicy::default()
        };
        let db = ResilientWebDb::new(flaky, policy);
        let mut successes = 0usize;
        for _ in 0..200 {
            if db.try_query(&SelectionQuery::all()).is_ok() {
                successes += 1;
            }
        }
        assert!(successes > 0, "breaker must keep half-opening");
        assert!(db.report().breaker_trips.0 > 0);
    }

    /// An inner source that plays a fixed fail/succeed script, front
    /// first; once the script runs dry every probe succeeds. Gives the
    /// half-open tests fully deterministic fault timing.
    struct ScriptedDb {
        inner: InMemoryWebDb,
        script: Mutex<std::collections::VecDeque<bool>>,
    }

    impl ScriptedDb {
        fn failing_first(failures: &[bool]) -> Self {
            ScriptedDb {
                inner: base_db(),
                script: Mutex::new(failures.iter().copied().collect()),
            }
        }
    }

    impl WebDatabase for ScriptedDb {
        fn schema(&self) -> &Schema {
            self.inner.schema()
        }

        fn try_query(&self, query: &SelectionQuery) -> Result<QueryPage, QueryError> {
            let fail = lock_stats(&self.script).pop_front().unwrap_or(false);
            if fail {
                Err(QueryError::Transient)
            } else {
                self.inner.try_query(query)
            }
        }

        fn stats(&self) -> AccessStats {
            self.inner.stats()
        }

        fn reset_stats(&self) {
            self.inner.reset_stats();
        }
    }

    fn half_open_policy() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            max_jitter: 0,
            breaker_threshold: 2,
            breaker_cooldown: 3,
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn half_open_success_closes_breaker_and_counts_recovery() {
        // Two failures trip the threshold-2 breaker; the half-open trial
        // succeeds, which must close the breaker and count one recovery.
        let db = ResilientWebDb::new(ScriptedDb::failing_first(&[true, true]), half_open_policy());
        assert!(db.try_query(&SelectionQuery::all()).is_err());
        assert!(db.try_query(&SelectionQuery::all()).is_err());
        assert!(db.breaker_open());
        assert_eq!(db.report().breaker_trips.0, 1);
        // Three fast-fails walk the clock through the cooldown.
        for _ in 0..3 {
            assert_eq!(
                db.try_query(&SelectionQuery::all()),
                Err(QueryError::Unavailable)
            );
        }
        assert!(!db.breaker_open());
        // Half-open trial: succeeds, breaker closes, recovery counted.
        assert!(db.try_query(&SelectionQuery::all()).is_ok());
        assert!(!db.breaker_open());
        assert_eq!(db.report().breaker_recoveries.0, 1);
        assert_eq!(db.stats().breaker_recoveries, 1);
        // Steady state: subsequent probes flow without fast-fails.
        let fast_failures = db.report().fast_failures;
        assert!(db.try_query(&SelectionQuery::all()).is_ok());
        assert_eq!(db.report().fast_failures, fast_failures);
        // A recovery is not a second trip.
        assert_eq!(db.report().breaker_trips.0, 1);
    }

    #[test]
    fn half_open_failure_reopens_with_fresh_cooldown() {
        // Two failures trip the breaker; the half-open trial fails too,
        // which must re-open the breaker *immediately* (no threshold-2
        // grace) with a fresh cooldown, and count no recovery.
        let db = ResilientWebDb::new(
            ScriptedDb::failing_first(&[true, true, true]),
            half_open_policy(),
        );
        assert!(db.try_query(&SelectionQuery::all()).is_err());
        assert!(db.try_query(&SelectionQuery::all()).is_err());
        assert_eq!(db.report().breaker_trips.0, 1);
        for _ in 0..3 {
            assert_eq!(
                db.try_query(&SelectionQuery::all()),
                Err(QueryError::Unavailable)
            );
        }
        assert!(!db.breaker_open());
        // Half-open trial fails: single failure re-trips the breaker.
        assert_eq!(
            db.try_query(&SelectionQuery::all()),
            Err(QueryError::Transient)
        );
        assert!(db.breaker_open(), "failed trial must re-open the breaker");
        assert_eq!(db.report().breaker_trips.0, 2);
        assert_eq!(db.report().breaker_recoveries.0, 0);
        // Fresh cooldown: three more rejections before the next trial,
        // which succeeds (script exhausted) and finally recovers.
        for _ in 0..3 {
            assert_eq!(
                db.try_query(&SelectionQuery::all()),
                Err(QueryError::Unavailable)
            );
        }
        assert!(db.try_query(&SelectionQuery::all()).is_ok());
        assert_eq!(db.report().breaker_recoveries.0, 1);
        assert!(!db.breaker_open());
    }

    #[test]
    fn probe_budget_exhaustion_fails_fast() {
        let db = ResilientWebDb::new(
            base_db(),
            RetryPolicy {
                probe_budget: Some(3),
                ..RetryPolicy::default()
            },
        );
        for _ in 0..3 {
            assert!(db.try_query(&SelectionQuery::all()).is_ok());
        }
        assert_eq!(
            db.try_query(&SelectionQuery::all()),
            Err(QueryError::Unavailable)
        );
        // The inner source never saw the 4th query.
        assert_eq!(db.inner().stats().queries_issued, 3);
        assert_eq!(db.stats().failures, 1);
    }

    #[test]
    fn same_seeds_replay_identical_sessions() {
        let run = || {
            let db = ResilientWebDb::new(
                FaultInjectingWebDb::new(base_db(), FaultProfile::hostile(), 42),
                RetryPolicy {
                    jitter_seed: 5,
                    ..RetryPolicy::default()
                },
            );
            let mut log = Vec::new();
            for _ in 0..150 {
                log.push(format!("{:?}", db.try_query(&SelectionQuery::all())));
            }
            log.push(format!("{:?} clock={}", db.report(), db.clock().now()));
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unavailable_is_not_retried() {
        let dead = FaultInjectingWebDb::new(
            base_db(),
            FaultProfile {
                unavailable_probability: 1.0,
                ..FaultProfile::none()
            },
            1,
        );
        let db = ResilientWebDb::new(dead, RetryPolicy::default());
        assert_eq!(
            db.try_query(&SelectionQuery::all()),
            Err(QueryError::Unavailable)
        );
        assert_eq!(db.report().retries.0, 0);
        assert_eq!(db.report().attempts.0, 1);
    }
}

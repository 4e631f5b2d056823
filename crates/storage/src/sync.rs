//! The workspace's shared-memory primitives. Every atomic in the
//! library crates sits behind one of three types, and each type fixes
//! the memory orderings of its role, so a call site cannot pick a wrong
//! one:
//!
//! - [`Counter`]: a statistic, tally or occupancy count. Every access is
//!   `Relaxed`: readers need an eventually-current value, and no other
//!   memory is published through a counter.
//! - [`Flag`]: a one-way latch that publishes a decision. [`Flag::set`]
//!   is a `Release` store and [`Flag::get`] an `Acquire` load, so a
//!   thread that sees the flag raised also sees everything written
//!   before it was raised.
//! - [`StatsCell`]: the seqlock behind the source access meter, which
//!   owns its version word and its fences.
//!
//! The workspace `clippy.toml` bans the raw atomic types, and the
//! determinism crates and `http` deny that ban, so this module is the
//! one place they are named.
#![expect(
    clippy::disallowed_types,
    reason = "the one module that wraps the raw atomic types"
)]

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};

use crate::AccessStats;

/// A `u64` statistic shared between threads. All operations are
/// `Relaxed`; additions wrap only after 2^64 events.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    #[inline]
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add `n`, returning the value before the addition.
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed)
    }

    /// Subtract `n`, returning the value before the subtraction.
    #[inline]
    pub fn sub(&self, n: u64) -> u64 {
        self.0.fetch_sub(n, Ordering::Relaxed)
    }

    /// Raise the counter to `n` if it is lower (a high-water mark).
    #[inline]
    pub fn max(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A latch that is raised once and never lowered. Raising it is a
/// `Release` store and reading it an `Acquire` load, so it publishes
/// whatever the raising thread wrote before [`Flag::set`].
#[derive(Debug, Default)]
pub struct Flag(AtomicBool);

impl Flag {
    /// A lowered flag.
    #[inline]
    pub const fn new() -> Self {
        Flag(AtomicBool::new(false))
    }

    /// Raise the flag.
    #[inline]
    pub fn set(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether the flag has been raised.
    #[inline]
    pub fn get(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Number of counters in [`AccessStats`], and the order they occupy in a
/// [`StatsCell`]'s slot array.
const STAT_SLOTS: usize = 10;

impl AccessStats {
    fn to_slots(self) -> [u64; STAT_SLOTS] {
        [
            self.queries_issued,
            self.tuples_returned,
            self.failures,
            self.retries,
            self.truncated_queries,
            self.breaker_trips,
            self.breaker_recoveries,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
        ]
    }

    fn from_slots(s: [u64; STAT_SLOTS]) -> AccessStats {
        let [queries_issued, tuples_returned, failures, retries, truncated_queries, breaker_trips, breaker_recoveries, cache_hits, cache_misses, cache_evictions] =
            s;
        AccessStats {
            queries_issued,
            tuples_returned,
            failures,
            retries,
            truncated_queries,
            breaker_trips,
            breaker_recoveries,
            cache_hits,
            cache_misses,
            cache_evictions,
        }
    }
}

/// A shared access meter for hot probe paths: one `AtomicU64` per
/// [`AccessStats`] counter guarded by a seqlock version word, so writers
/// never park on a mutex (the single-lock `Mutex<AccessStats>` design
/// serialized every probe of every worker through one cache line's lock)
/// while [`StatsCell::snapshot`] still returns a *torn-free* stats block —
/// cross-counter invariants such as `tuples_returned` being consistent
/// with `queries_issued` hold in every snapshot, which per-counter
/// relaxed loads alone would not guarantee.
///
/// Protocol: a writer CASes the version from even to odd (spinning out
/// competing writers), applies its relaxed counter updates, and releases
/// with `version + 2`. A reader loads an even version, reads the slots,
/// and retries unless the version is unchanged afterwards. Writer
/// critical sections are a handful of uncontended atomic adds, so reader
/// retries are rare and writers spin for nanoseconds, not syscalls.
/// Every access is an atomic operation — the cell is ThreadSanitizer
/// clean by construction.
#[derive(Debug)]
pub struct StatsCell {
    /// Seqlock word: odd while a write is in progress. Its Acquire and
    /// Release transitions order the relaxed slot accesses between them.
    version: AtomicU64,
    /// One slot per `AccessStats` field, in `to_slots` order.
    slots: [AtomicU64; STAT_SLOTS],
}

impl Default for StatsCell {
    fn default() -> Self {
        StatsCell {
            version: AtomicU64::new(0),
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl StatsCell {
    /// An all-zero meter.
    pub fn new() -> Self {
        StatsCell::default()
    }

    /// Enter the write section: flip the version to odd, excluding both
    /// competing writers and in-flight readers. Returns the even version
    /// observed on entry.
    fn begin_write(&self) -> u64 {
        let mut v = self.version.load(Ordering::Relaxed);
        loop {
            if v % 2 == 1 {
                // The writer holding the odd version may have been
                // preempted; yielding beats burning the timeslice,
                // especially on single-core hosts.
                std::thread::yield_now();
                v = self.version.load(Ordering::Relaxed);
                continue;
            }
            match self
                .version
                .compare_exchange_weak(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) => return v,
                Err(seen) => v = seen,
            }
        }
    }

    /// Add every nonzero counter of `delta` to the meter, atomically with
    /// respect to [`StatsCell::snapshot`].
    pub fn record(&self, delta: AccessStats) {
        let v = self.begin_write();
        for (slot, d) in self.slots.iter().zip(delta.to_slots()) {
            if d != 0 {
                slot.fetch_add(d, Ordering::Relaxed);
            }
        }
        self.version.store(v + 2, Ordering::Release);
    }

    /// Zero every counter (used between experiment runs).
    pub fn reset(&self) {
        let v = self.begin_write();
        for slot in &self.slots {
            slot.store(0, Ordering::Relaxed);
        }
        self.version.store(v + 2, Ordering::Release);
    }

    /// A coherent snapshot of all counters: retries until it reads a
    /// quiescent version, so no write is ever observed half-applied.
    pub fn snapshot(&self) -> AccessStats {
        loop {
            let before = self.version.load(Ordering::Acquire);
            if before % 2 == 1 {
                std::thread::yield_now();
                continue;
            }
            let mut slots = [0u64; STAT_SLOTS];
            for (out, slot) in slots.iter_mut().zip(&self.slots) {
                *out = slot.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if self.version.load(Ordering::Relaxed) == before {
                return AccessStats::from_slots(slots);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_adds_subtracts_and_keeps_a_high_water_mark() {
        let c = Counter::new();
        assert_eq!(c.add(3), 0);
        assert_eq!(c.sub(1), 3);
        c.max(1);
        assert_eq!(c.get(), 2);
        c.max(9);
        assert_eq!(c.get(), 9);
    }

    #[test]
    fn flag_publishes_what_was_written_before_it() {
        let flag = Arc::new(Flag::new());
        let data = Arc::new(Counter::new());
        let writer = {
            let (flag, data) = (Arc::clone(&flag), Arc::clone(&data));
            std::thread::spawn(move || {
                data.add(42);
                flag.set();
            })
        };
        while !flag.get() {
            std::thread::yield_now();
        }
        assert_eq!(data.get(), 42);
        writer.join().unwrap();
    }

    #[test]
    fn stats_cell_snapshots_never_tear_across_fields() {
        // Direct cell hammering with a multi-field delta: every snapshot
        // must see `tuples_returned == 7 * queries_issued` and
        // `failures == queries_issued` exactly, or the seqlock tore.
        let cell = Arc::new(StatsCell::new());
        let delta = AccessStats {
            queries_issued: 1,
            tuples_returned: 7,
            failures: 1,
            ..AccessStats::default()
        };
        let mut writers = Vec::new();
        for _ in 0..4 {
            let cell = Arc::clone(&cell);
            writers.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    cell.record(delta);
                }
            }));
        }
        let reader = Arc::clone(&cell);
        let checker = std::thread::spawn(move || {
            for _ in 0..500 {
                let s = reader.snapshot();
                assert_eq!(s.tuples_returned, 7 * s.queries_issued, "tore: {s:?}");
                assert_eq!(s.failures, s.queries_issued, "tore: {s:?}");
            }
        });
        for w in writers {
            w.join().unwrap();
        }
        checker.join().unwrap();
        let s = cell.snapshot();
        assert_eq!(s.queries_issued, 4000);
        assert_eq!(s.tuples_returned, 28_000);
    }

    #[test]
    fn stats_cell_reset_and_since_semantics() {
        // `since()` over StatsCell snapshots behaves exactly as it did
        // over mutex-guarded stats: deltas across a marker snapshot
        // reflect only the traffic in between.
        let cell = StatsCell::new();
        cell.record(AccessStats {
            queries_issued: 2,
            tuples_returned: 6,
            ..AccessStats::default()
        });
        let marker = cell.snapshot();
        cell.record(AccessStats {
            queries_issued: 1,
            tuples_returned: 3,
            cache_hits: 4,
            ..AccessStats::default()
        });
        let delta = cell.snapshot().since(&marker);
        assert_eq!(delta.queries_issued, 1);
        assert_eq!(delta.tuples_returned, 3);
        assert_eq!(delta.cache_hits, 4);
        cell.reset();
        assert_eq!(cell.snapshot(), AccessStats::default());
    }
}

//! Transparent timing wrappers at `WebDatabase` decorator boundaries.
//!
//! A [`Timed`] forwards every trait method — `try_query`,
//! `try_query_plan`, `stats`, `reset_stats` and `source_health` — to the
//! database it wraps, so the stack below sees exactly the calls it would
//! see unwrapped: dropping `try_query_plan` would silently turn the
//! shared-plan source into query-at-a-time probing, and dropping
//! `source_health` would empty `DegradationReport::sources`. When
//! tracing is on, probe calls are recorded as spans and counted.

use std::sync::atomic::{AtomicU64, Ordering};

use aimq_catalog::{Schema, SelectionQuery};
use aimq_storage::{AccessStats, QueryError, QueryPage, SourceHealth, WebDatabase};

use crate::trace;

/// Call counts one wrapper observed while tracing was on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallCounts {
    pub query_calls: u64,
    pub plan_calls: u64,
    pub tuples_returned: u64,
}

impl CallCounts {
    /// Field-wise `self - earlier`.
    #[must_use]
    pub fn since(self, earlier: CallCounts) -> CallCounts {
        CallCounts {
            query_calls: self.query_calls - earlier.query_calls,
            plan_calls: self.plan_calls - earlier.plan_calls,
            tuples_returned: self.tuples_returned - earlier.tuples_returned,
        }
    }

    /// Field-wise sum.
    #[must_use]
    pub fn plus(self, other: CallCounts) -> CallCounts {
        CallCounts {
            query_calls: self.query_calls + other.query_calls,
            plan_calls: self.plan_calls + other.plan_calls,
            tuples_returned: self.tuples_returned + other.tuples_returned,
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    query_calls: AtomicU64,
    plan_calls: AtomicU64,
    tuples_returned: AtomicU64,
}

/// A timing wrapper named after the layer boundary it sits on.
#[derive(Debug)]
pub struct Timed<D> {
    inner: D,
    span: &'static str,
    /// Whether this wrapper delimits engine episodes (the outermost
    /// wrapper, the one the engine calls directly).
    marks_episodes: bool,
    counters: Counters,
}

impl<D: WebDatabase> Timed<D> {
    /// The engine → stack boundary: spans named `storage`, and the
    /// engine's own episodes delimited from its meter reads.
    pub fn boundary(inner: D) -> Timed<D> {
        Timed {
            inner,
            span: trace::names::STORAGE,
            marks_episodes: true,
            counters: Counters::default(),
        }
    }

    /// An inner boundary (e.g. just above `InMemoryWebDb`).
    pub fn layer(inner: D, span: &'static str) -> Timed<D> {
        Timed {
            inner,
            span,
            marks_episodes: false,
            counters: Counters::default(),
        }
    }

    pub fn inner(&self) -> &D {
        &self.inner
    }

    pub fn counts(&self) -> CallCounts {
        CallCounts {
            query_calls: self.counters.query_calls.load(Ordering::Relaxed),
            plan_calls: self.counters.plan_calls.load(Ordering::Relaxed),
            tuples_returned: self.counters.tuples_returned.load(Ordering::Relaxed),
        }
    }

    fn note_tuples(&self, result: &Result<QueryPage, QueryError>) {
        if let Ok(page) = result {
            self.counters
                .tuples_returned
                .fetch_add(page.tuples.len() as u64, Ordering::Relaxed);
        }
    }
}

impl<D: WebDatabase> WebDatabase for Timed<D> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn try_query(&self, query: &SelectionQuery) -> Result<QueryPage, QueryError> {
        let Some(span) = trace::open(self.span) else {
            return self.inner.try_query(query);
        };
        let result = self.inner.try_query(query);
        span.close();
        self.counters.query_calls.fetch_add(1, Ordering::Relaxed);
        self.note_tuples(&result);
        result
    }

    fn try_query_plan(&self, plan: &[SelectionQuery]) -> Vec<Result<QueryPage, QueryError>> {
        let Some(span) = trace::open(self.span) else {
            return self.inner.try_query_plan(plan);
        };
        let results = self.inner.try_query_plan(plan);
        span.close();
        self.counters.plan_calls.fetch_add(1, Ordering::Relaxed);
        for result in &results {
            self.note_tuples(result);
        }
        results
    }

    fn stats(&self) -> AccessStats {
        if self.marks_episodes {
            trace::note_stats_call();
        }
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }

    fn source_health(&self) -> Option<Vec<SourceHealth>> {
        let health = self.inner.source_health();
        if self.marks_episodes {
            trace::note_health_return();
        }
        health
    }
}

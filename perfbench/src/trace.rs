//! In-memory span recorder for the traced run.
//!
//! A span is `(id, parent, thread, name, start, end)` on the process-wide
//! [`now_ns`] timeline. Parents come from a per-thread stack of open
//! spans; request ids are assigned afterwards by [`crate::ledger`],
//! because spans recorded on the serving runtime's worker threads cannot
//! know which request they belong to. Recording is off unless
//! [`set_enabled`] turned it on, and the spans are written out once, at
//! the end of the run.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::util::now_ns;

/// Span names: the layer boundaries the benchmark times.
pub mod names {
    /// One `AimqSystem::answer` call, timed around the call.
    pub const ANSWER: &str = "core.answer";
    /// One engine episode on a thread: from the engine's first call into
    /// the source stack to its last (see [`super::EpisodeMarker`]).
    pub const ENGINE: &str = "core.engine";
    /// A probe crossing the engine → source-stack boundary.
    pub const STORAGE: &str = "storage";
    /// A probe crossing into the bottom `InMemoryWebDb`.
    pub const SOURCE: &str = "source";
    /// One keep-alive exchange, client side: send to last response byte.
    pub const REQUEST: &str = "http.request";
    /// One replayed request, end to end (replays run one at a time).
    pub const REPLAY: &str = "replay";
    /// `routes::dispatch` on a replayed request.
    pub const DISPATCH: &str = "http.dispatch";
    /// `QueryServer::submit` → `Ticket::wait`.
    pub const SOJOURN: &str = "serve.sojourn";
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// Innermost span open on the same thread when this one started
    /// (0 = none).
    pub parent: u64,
    pub thread: u32,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static EPISODE: RefCell<EpisodeMarker> = const { RefCell::new(EpisodeMarker::idle()) };
}

/// Turn recording on or off. Toggle only while no request is in flight,
/// so no episode straddles the switch.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Small dense id of the calling thread.
pub fn thread_index() -> u32 {
    THREAD.with(|t| *t)
}

/// An open span; [`Open::close`] records it.
#[must_use]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start: u64,
}

/// Start a span on this thread, or `None` when recording is off.
pub fn open(name: &'static str) -> Option<Open> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Some(Open {
        id,
        parent,
        name,
        start: now_ns(),
    })
}

impl Open {
    /// Record the span and return it.
    pub fn close(self) -> Span {
        let end = now_ns();
        OPEN.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&i| i == self.id) {
                s.truncate(pos);
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            thread: thread_index(),
            name: self.name,
            start: self.start,
            end,
        };
        push(span);
        span
    }
}

fn push(span: Span) {
    SPANS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push(span);
}

/// Record a span whose ends the caller measured itself.
pub fn record(name: &'static str, start: u64, end: u64) {
    if !enabled() {
        return;
    }
    push(Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: 0,
        thread: thread_index(),
        name,
        start,
        end,
    });
}

/// Take every recorded span, leaving the recorder empty.
pub fn drain() -> Vec<Span> {
    let mut spans = std::mem::take(
        &mut *SPANS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    spans.sort_by_key(|s| (s.start, s.id));
    spans
}

/// Delimits engine episodes from outside the engine.
///
/// `answer_imprecise_query` reads the source stack's `stats()` and
/// `source_health()` before its first probe and again after its last
/// one. The outermost wrapper feeds those calls here: a `stats()` call
/// with no episode open starts one; the first `source_health()` that
/// follows a second `stats()` call ends it. A worker thread runs one
/// engine call at a time, so per thread the episodes are exactly the
/// engine calls, in order.
#[derive(Debug, Clone, Copy)]
pub struct EpisodeMarker {
    open: Option<(u64, u64, u64)>,
    stats_calls: u32,
}

impl EpisodeMarker {
    const fn idle() -> EpisodeMarker {
        EpisodeMarker {
            open: None,
            stats_calls: 0,
        }
    }
}

/// The outermost wrapper saw a `stats()` call on this thread.
pub fn note_stats_call() {
    if !enabled() {
        return;
    }
    EPISODE.with(|e| {
        let mut e = e.borrow_mut();
        if e.open.is_none() {
            let span = open(names::ENGINE);
            if let Some(span) = span {
                e.open = Some((span.id, span.parent, span.start));
                e.stats_calls = 1;
            }
        } else {
            e.stats_calls += 1;
        }
    });
}

/// The outermost wrapper's `source_health()` call returned on this
/// thread.
pub fn note_health_return() {
    EPISODE.with(|e| {
        let mut e = e.borrow_mut();
        if e.stats_calls < 2 {
            return;
        }
        if let Some((id, parent, start)) = e.open.take() {
            let _episode = Open {
                id,
                parent,
                name: names::ENGINE,
                start,
            }
            .close();
        }
        *e = EpisodeMarker::idle();
    });
}

/// Write spans, each with the request it belongs to (`-1` = none), as
/// tab-separated lines with a header.
pub fn write_spans(path: &Path, spans: &[(Span, i64)]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\treq\tthread\tname\tstart_ns\tend_ns")?;
    for (s, req) in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, req, s.thread, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

//! Outside-in attribution: pair spans with requests, split each request
//! into layer self times, and check that the layers account for the
//! traced end-to-end median.
//!
//! A layer's self time is its span minus the spans of its children. The
//! per-layer times the benchmark reports are means over the *median
//! band* — the requests whose traced end-to-end latency lies between the
//! 40th and 60th percentiles — so they decompose the typical request,
//! and their sum is checked against the traced median.

use std::collections::BTreeMap;

use aimq_catalog::Json;

use crate::trace::Span;
use crate::util::{mean, quantile};

/// Lower and upper percentile of the median band.
pub const BAND: (f64, f64) = (0.40, 0.60);

/// Largest gap, in percent of the traced median, the ledger may leave
/// unaccounted before it is flagged.
pub const RESIDUAL_LIMIT_PCT: f64 = 10.0;

/// One request split into layer self times (µs), in ledger order.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// The request's traced end-to-end latency, µs.
    pub total_us: f64,
    /// Self times; they sum to `total_us`.
    pub parts: Vec<(&'static str, f64)>,
    /// Inclusive spans reported beside the ledger (not summed).
    pub extras: Vec<(&'static str, f64)>,
}

/// Spans grouped per thread, sorted by start.
#[derive(Debug, Default)]
pub struct SpanIndex {
    by_thread: BTreeMap<u32, Vec<Span>>,
}

impl SpanIndex {
    pub fn new(spans: &[Span]) -> SpanIndex {
        let mut by_thread: BTreeMap<u32, Vec<Span>> = BTreeMap::new();
        for s in spans {
            by_thread.entry(s.thread).or_default().push(*s);
        }
        for v in by_thread.values_mut() {
            v.sort_by_key(|s| (s.start, s.id));
        }
        SpanIndex { by_thread }
    }

    /// Spans called `name` on `thread` that start inside `[start, end]`.
    pub fn within<'a>(
        &'a self,
        thread: u32,
        start: u64,
        end: u64,
        name: &'a str,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        let spans = self.by_thread.get(&thread).map_or(&[][..], Vec::as_slice);
        let from = spans.partition_point(|s| s.start < start);
        spans[from..]
            .iter()
            .take_while(move |s| s.start <= end)
            .filter(move |s| s.name == name)
    }

    /// Summed duration (µs) of the spans [`SpanIndex::within`] yields.
    pub fn busy_us(&self, thread: u32, start: u64, end: u64, name: &str) -> f64 {
        self.within(thread, start, end, name)
            .map(|s| s.dur() as f64 / 1e3)
            .sum()
    }

    /// Every span called `name`, per thread, in start order.
    pub fn named(&self, name: &str) -> BTreeMap<u32, Vec<Span>> {
        self.by_thread
            .iter()
            .map(|(t, v)| {
                (
                    *t,
                    v.iter()
                        .filter(|s| s.name == name)
                        .copied()
                        .collect::<Vec<_>>(),
                )
            })
            .filter(|(_, v)| !v.is_empty())
            .collect()
    }
}

/// A window of one request: spans inside it (on `thread`, when given)
/// belong to request `req`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub req: i64,
    pub thread: Option<u32>,
    pub start: u64,
    pub end: u64,
}

/// Request id of every span: the first window that contains it, `-1`
/// for none.
pub fn assign(spans: &[Span], windows: &[Window]) -> Vec<(Span, i64)> {
    let mut sorted = windows.to_vec();
    sorted.sort_by_key(|w| w.start);
    spans
        .iter()
        .map(|s| {
            let upto = sorted.partition_point(|w| w.start <= s.start);
            let req = sorted[..upto]
                .iter()
                .rev()
                .take(64)
                .find(|w| s.end <= w.end && w.thread.is_none_or(|t| t == s.thread))
                .map_or(-1, |w| w.req);
            (*s, req)
        })
        .collect()
}

/// A request the worker pool served: which worker, and the window in
/// which it was inside the system as seen from the caller.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub worker: usize,
    pub submit_ns: u64,
    pub done_ns: u64,
}

/// Pair each served request with the engine episode that answered it.
///
/// An episode belongs to a request whose window (submit → reply seen)
/// contains it and that the episode's worker served. A worker thread's
/// worker id is learned from the episodes only one request's window
/// contains; the worker ids the replies carry, and the order in which a
/// worker serves its queue, then settle the episodes that lie in several
/// windows. Requests left unpaired get `None`.
pub fn match_episodes(episodes: &BTreeMap<u32, Vec<Span>>, served: &[Served]) -> Vec<Option<Span>> {
    let candidates = |e: &Span| -> Vec<usize> {
        (0..served.len())
            .filter(|&r| served[r].submit_ns <= e.start && e.end <= served[r].done_ns)
            .collect()
    };
    let mut out = vec![None; served.len()];
    for eps in episodes.values() {
        let mut votes: BTreeMap<usize, usize> = BTreeMap::new();
        let cands: Vec<Vec<usize>> = eps.iter().map(|e| candidates(e)).collect();
        for c in &cands {
            if let [only] = c.as_slice() {
                *votes.entry(served[*only].worker).or_default() += 1;
            }
        }
        let Some(worker) = votes.iter().max_by_key(|(_, n)| **n).map(|(w, _)| *w) else {
            continue;
        };
        // A worker serves its queue in order, so of the still-unpaired
        // requests it served whose windows hold the episode, the one
        // submitted first is the one this episode answered.
        for (e, c) in eps.iter().zip(&cands) {
            let first = c
                .iter()
                .copied()
                .filter(|&r| served[r].worker == worker && out[r].is_none())
                .min_by_key(|&r| served[r].submit_ns);
            if let Some(r) = first {
                out[r] = Some(*e);
            }
        }
    }
    out
}

/// The ledger over a set of per-request breakdowns.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Mean self time per layer over the median band, in ledger order.
    pub band_means: Vec<(&'static str, f64)>,
    /// Mean self time per layer over every request.
    pub all_means: Vec<(&'static str, f64)>,
    /// Mean of each inclusive extra over the median band.
    pub band_extras: Vec<(&'static str, f64)>,
    pub band_requests: usize,
    pub requests: usize,
    pub traced_p50_us: f64,
    pub sum_us: f64,
    /// `100 * (sum − traced median) / traced median`.
    pub residual_pct: f64,
}

impl Ledger {
    pub fn build(rows: &[Breakdown]) -> Ledger {
        let totals: Vec<f64> = rows.iter().map(|r| r.total_us).collect();
        let traced_p50_us = quantile(&totals, 0.5);
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| totals[a].total_cmp(&totals[b]));
        let lo = (BAND.0 * rows.len() as f64).floor() as usize;
        let hi = ((BAND.1 * rows.len() as f64).ceil() as usize).clamp(lo + 1, rows.len().max(1));
        let band: Vec<&Breakdown> = order
            .get(lo..hi.min(order.len()))
            .unwrap_or(&[])
            .iter()
            .map(|&i| &rows[i])
            .collect();
        let means = |set: &[&Breakdown], field: fn(&Breakdown) -> &Vec<(&'static str, f64)>| {
            let names: Vec<&'static str> = rows
                .first()
                .map(|r| field(r).iter().map(|p| p.0).collect())
                .unwrap_or_default();
            names
                .iter()
                .enumerate()
                .map(|(i, &n)| {
                    let v: Vec<f64> = set
                        .iter()
                        .map(|r| field(r).get(i).map_or(0.0, |p| p.1))
                        .collect();
                    (n, mean(&v))
                })
                .collect::<Vec<_>>()
        };
        let band_means = means(&band, |r| &r.parts);
        let all: Vec<&Breakdown> = rows.iter().collect();
        let sum_us: f64 = band_means.iter().map(|p| p.1).sum();
        Ledger {
            all_means: means(&all, |r| &r.parts),
            band_extras: means(&band, |r| &r.extras),
            band_means,
            band_requests: band.len(),
            requests: rows.len(),
            traced_p50_us,
            sum_us,
            residual_pct: if traced_p50_us > 0.0 {
                100.0 * (sum_us - traced_p50_us) / traced_p50_us
            } else {
                0.0
            },
        }
    }

    /// Band mean of a self time or an extra.
    pub fn band_mean(&self, layer: &str) -> f64 {
        self.band_means
            .iter()
            .chain(&self.band_extras)
            .find(|p| p.0 == layer)
            .map_or(0.0, |p| p.1)
    }

    /// Every band mean (self times and extras) into `values`.
    pub fn record(&self, values: &mut crate::report::Values) {
        for (name, v) in self.band_means.iter().chain(&self.band_extras) {
            values.insert(name, *v);
        }
        values.insert("ledger.traced_p50_ms", self.traced_p50_us / 1e3);
        values.insert("ledger.residual_pct", self.residual_pct);
    }

    pub fn within_limit(&self) -> bool {
        self.residual_pct.abs() <= RESIDUAL_LIMIT_PCT
    }

    pub fn to_json(&self) -> Json {
        let layers = |means: &[(&'static str, f64)]| {
            Json::Arr(
                means
                    .iter()
                    .map(|(n, v)| {
                        Json::obj(vec![
                            ("layer", Json::Str((*n).to_string())),
                            ("self_us", Json::Num(*v)),
                            (
                                "share",
                                Json::Num(if self.sum_us > 0.0 {
                                    v / self.sum_us
                                } else {
                                    0.0
                                }),
                            ),
                        ])
                    })
                    .collect(),
            )
        };
        Json::obj(vec![
            (
                "band_percentiles",
                Json::Arr(vec![Json::Num(BAND.0 * 100.0), Json::Num(BAND.1 * 100.0)]),
            ),
            ("band_requests", Json::Num(self.band_requests as f64)),
            ("requests", Json::Num(self.requests as f64)),
            ("layers", layers(&self.band_means)),
            ("all_requests_mean", layers(&self.all_means)),
            (
                "inclusive",
                Json::Obj(
                    self.band_extras
                        .iter()
                        .map(|(n, v)| ((*n).to_string(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("sum_us", Json::Num(self.sum_us)),
            ("traced_p50_us", Json::Num(self.traced_p50_us)),
            ("residual_pct", Json::Num(self.residual_pct)),
            ("within_limit", Json::Bool(self.within_limit())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(thread: u32, start: u64, end: u64) -> Span {
        Span {
            id: start,
            parent: 0,
            thread,
            name: crate::trace::names::ENGINE,
            start,
            end,
        }
    }

    #[test]
    fn episodes_pair_with_the_requests_their_worker_served() {
        // Worker 1 served requests 0 and 2; worker 0 served 1 and 3.
        // Threads 9 and 7 are workers 1 and 0 by their episodes that lie
        // in one window only (110..290, 410..490); episode 5..90 lies in
        // the windows of requests 0 and 2, and worker 1 took 0 first.
        let served = [
            Served {
                worker: 1,
                submit_ns: 0,
                done_ns: 100,
            },
            Served {
                worker: 0,
                submit_ns: 10,
                done_ns: 60,
            },
            Served {
                worker: 1,
                submit_ns: 3,
                done_ns: 300,
            },
            Served {
                worker: 0,
                submit_ns: 400,
                done_ns: 500,
            },
        ];
        let mut eps = BTreeMap::new();
        eps.insert(7, vec![span(7, 15, 50), span(7, 410, 490)]);
        eps.insert(9, vec![span(9, 5, 90), span(9, 110, 290)]);
        let m = match_episodes(&eps, &served);
        assert_eq!(m[0].map(|s| s.start), Some(5));
        assert_eq!(m[1].map(|s| s.start), Some(15));
        assert_eq!(m[2].map(|s| s.start), Some(110));
        assert_eq!(m[3].map(|s| s.start), Some(410));
    }

    #[test]
    fn band_means_decompose_the_median_request() {
        let rows: Vec<Breakdown> = (1..=100)
            .map(|i| Breakdown {
                total_us: f64::from(i),
                parts: vec![("a", f64::from(i) * 0.75), ("b", f64::from(i) * 0.25)],
                extras: vec![],
            })
            .collect();
        let l = Ledger::build(&rows);
        assert_eq!(l.band_requests, 20);
        assert!(l.within_limit(), "{}", l.residual_pct);
        assert!((l.band_mean("a") / l.sum_us - 0.75).abs() < 1e-9);
    }
}

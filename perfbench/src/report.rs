//! Metric registry and the run's output: the one-line result a harness
//! reads, and the report file with the ledger and sample counts.

use std::collections::BTreeMap;

use aimq_catalog::Json;

use crate::util::{median, quantile};

/// End-to-end metrics: every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("success_rate", "ratio"),
    ("probes_per_query", "count"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. Times are per query, averaged
/// over the median band of requests (see [`crate::ledger`]); counts are
/// per query over the whole traced phase. A layer a workload bypasses
/// reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("http.decode_us", "us"),
    ("http.dispatch_us", "us"),
    ("http.encode_us", "us"),
    ("http.transport_us", "us"),
    ("http.route_self_us", "us"),
    ("http.response_bytes", "bytes"),
    ("http.connections_accepted", "count"),
    ("http.responses_5xx", "count"),
    ("catalog.json_parse_us", "us"),
    ("catalog.json_render_us", "us"),
    ("serve.sojourn_us", "us"),
    ("serve.service_us", "us"),
    ("serve.wait_us", "us"),
    ("serve.max_queue_depth", "count"),
    ("serve.rejected", "count"),
    ("serve.worker_imbalance", "ratio"),
    ("core.answer_us", "us"),
    ("core.self_us", "us"),
    ("core.probes_attempted", "count"),
    ("core.probes_deduped", "count"),
    ("core.tuples_examined", "count"),
    ("core.relevant_found", "count"),
    ("storage.busy_us", "us"),
    ("storage.query_calls", "count"),
    ("storage.plan_calls", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.self_us", "us"),
    ("source.busy_us", "us"),
    ("source.query_calls", "count"),
    ("source.plan_calls", "count"),
    ("source.tuples_returned", "count"),
    ("federation.busy_us", "us"),
    ("federation.member_probes", "count"),
    ("federation.tuples_contributed", "count"),
    ("federation.hedges_fired", "count"),
    ("data.generate_s", "s"),
    ("afd.mine_s", "s"),
    ("sim.build_s", "s"),
    ("storage.build_s", "s"),
    ("setup.warmup_s", "s"),
    ("loadgen.error_rate", "ratio"),
    ("trace.overhead_pct", "pct"),
    ("ledger.traced_p50_ms", "ms"),
    ("ledger.residual_pct", "pct"),
];

/// Metric values by name; names outside the registries are rejected
/// when the result is rendered.
pub type Values = BTreeMap<&'static str, f64>;

/// Wall-clock pieces of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub mine_s: f64,
    pub sim_build_s: f64,
    pub storage_build_s: f64,
    pub warmup_s: f64,
    pub total_s: f64,
}

impl SetupTimes {
    pub fn record(&self, v: &mut Values) {
        v.insert("data.generate_s", self.generate_s);
        v.insert("afd.mine_s", self.mine_s);
        v.insert("sim.build_s", self.sim_build_s);
        v.insert("storage.build_s", self.storage_build_s);
        v.insert("setup.warmup_s", self.warmup_s);
    }

    /// The repetition with the median total (what `setup_s` reports).
    pub fn median_of(all: &[SetupTimes]) -> SetupTimes {
        let mut sorted = all.to_vec();
        sorted.sort_by(|a, b| a.total_s.total_cmp(&b.total_s));
        sorted.get(sorted.len() / 2).copied().unwrap_or_default()
    }
}

/// Windows a phase is cut into for its median latency and throughput.
pub const WINDOWS: usize = 6;

/// One completed query: when it completed (seconds since its phase
/// began), its latency, and whether its answer was correct.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    pub at_s: f64,
    pub ms: f64,
    pub ok: bool,
}

/// What one measured phase observed from the outside.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub completions: Vec<Completion>,
    pub attempted: u64,
    /// Errors of every kind, mismatching answers included.
    pub failed: u64,
    /// Completed answers that differ from the reference.
    pub mismatches: u64,
    /// Correct answers completed.
    pub correct: u64,
    /// Probes the engine sent into the source stack (summed
    /// `DegradationReport::probes_attempted`).
    pub probes: u64,
    pub wall_s: f64,
}

impl Phase {
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.completions.iter().map(|c| c.ms).collect()
    }

    /// The phase cut into [`WINDOWS`] equal spans of wall time.
    fn windows(&self) -> Vec<Vec<Completion>> {
        let width = self.wall_s.max(1e-9) / WINDOWS as f64;
        let mut out = vec![Vec::new(); WINDOWS];
        for c in &self.completions {
            let w = ((c.at_s / width) as usize).min(WINDOWS - 1);
            out[w].push(*c);
        }
        out
    }

    /// Median over the windows of each window's median latency: a slow
    /// or fast spell of the host that covers less than half the run
    /// does not move it.
    pub fn p50_ms(&self) -> f64 {
        let per_window: Vec<f64> = self
            .windows()
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| quantile(&w.iter().map(|c| c.ms).collect::<Vec<_>>(), 0.5))
            .collect();
        median(&per_window)
    }

    /// Median over the windows of correct answers per second.
    pub fn throughput_qps(&self) -> f64 {
        let width = self.wall_s.max(1e-9) / WINDOWS as f64;
        let per_window: Vec<f64> = self
            .windows()
            .iter()
            .map(|w| w.iter().filter(|c| c.ok).count() as f64 / width)
            .collect();
        median(&per_window)
    }

    /// The end-to-end metrics of this phase. The p99 is over the whole
    /// phase (a window holds too few samples for it).
    pub fn end_to_end(&self, setup_s: f64, v: &mut Values) {
        let completed = self.completions.len().max(1) as f64;
        v.insert("latency_p50_ms", self.p50_ms());
        v.insert("latency_p99_ms", quantile(&self.latencies_ms(), 0.99));
        v.insert("throughput_qps", self.throughput_qps());
        v.insert(
            "success_rate",
            1.0 - self.failed as f64 / self.attempted.max(1) as f64,
        );
        v.insert("probes_per_query", self.probes as f64 / completed);
        v.insert("setup_s", setup_s);
    }

    /// Sample counts behind the percentiles, for the report.
    pub fn samples_json(&self) -> Json {
        let latencies = self.latencies_ms();
        let n = latencies.len();
        Json::obj(vec![
            ("completed", Json::Num(n as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("mismatches", Json::Num(self.mismatches as f64)),
            ("windows", Json::Num(WINDOWS as f64)),
            (
                "per_window",
                Json::Arr(
                    self.windows()
                        .iter()
                        .map(|w| Json::Num(w.len() as f64))
                        .collect(),
                ),
            ),
            (
                "beyond_p99",
                Json::Num((n - ((0.99 * n as f64).ceil() as usize).min(n)) as f64),
            ),
            ("wall_s", Json::Num(self.wall_s)),
            ("p50_ms", Json::Num(self.p50_ms())),
            ("p50_all_ms", Json::Num(quantile(&latencies, 0.5))),
            ("p99_ms", Json::Num(quantile(&latencies, 0.99))),
            (
                "deciles_ms",
                Json::Arr(
                    (1..10)
                        .map(|d| Json::Num(quantile(&latencies, f64::from(d) / 10.0)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Everything a workload hands back to `main`.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The phase whose figures are the run's end-to-end metrics.
    pub measured: Phase,
    pub values: Values,
    /// Free-form detail for the report file (ledger, phases, checks).
    pub detail: Vec<(String, Json)>,
    /// Spans of the traced phase, with the request each belongs to
    /// (`-1` = none).
    pub spans: Vec<(crate::trace::Span, i64)>,
    /// The self-time ledger of the traced phase.
    pub ledger: Option<crate::ledger::Ledger>,
}

/// Render the registry's metrics as the result's `metrics` object.
/// Fails on a missing or non-finite value.
pub fn metrics_json(registry: &[(&str, &str)], values: &Values) -> Result<Json, String> {
    let mut pairs = Vec::with_capacity(registry.len());
    for &(name, unit) in registry {
        let value = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        pairs.push((
            name.to_string(),
            Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ]),
        ));
    }
    Ok(Json::Obj(pairs))
}

/// Fill every registered per-layer metric the workload left unset with
/// 0 (the layer was bypassed).
pub fn default_bypassed(values: &mut Values) {
    for &(name, _) in PER_LAYER {
        values.entry(name).or_insert(0.0);
    }
}

/// Work counts from the returned answer sets, per query.
pub fn insert_core_counts(v: &mut Values, sets: &[aimq::AnswerSet]) {
    let n = sets.len().max(1) as f64;
    let sum = |f: &dyn Fn(&aimq::AnswerSet) -> f64| sets.iter().map(f).sum::<f64>() / n;
    v.insert(
        "core.probes_attempted",
        sum(&|s| s.degradation.probes_attempted as f64),
    );
    v.insert(
        "core.probes_deduped",
        sum(&|s| s.degradation.probes_deduped as f64),
    );
    v.insert(
        "core.tuples_examined",
        sum(&|s| s.stats.tuples_examined as f64),
    );
    v.insert(
        "core.relevant_found",
        sum(&|s| s.stats.relevant_found as f64),
    );
}

/// Cache counters per query from an `AccessStats` delta.
pub fn insert_cache(v: &mut Values, cache: &aimq_storage::AccessStats, n: f64) {
    v.insert("cache.hits", cache.cache_hits as f64 / n);
    v.insert("cache.misses", cache.cache_misses as f64 / n);
    v.insert("cache.evictions", cache.cache_evictions as f64 / n);
    let probes = cache.cache_hits + cache.cache_misses;
    v.insert(
        "cache.hit_ratio",
        if probes == 0 {
            0.0
        } else {
            cache.cache_hits as f64 / probes as f64
        },
    );
}

/// `trace.overhead_pct`: how much slower the traced median ran than the
/// untraced one, in percent.
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    if untraced > 0.0 {
        100.0 * (traced - untraced) / untraced
    } else {
        0.0
    }
}

/// `max / mean − 1` of the per-worker counts (0 = perfectly even).
pub fn imbalance(per_worker: &[u64]) -> f64 {
    let total: u64 = per_worker.iter().sum();
    if per_worker.is_empty() || total == 0 {
        return 0.0;
    }
    let mean = total as f64 / per_worker.len() as f64;
    per_worker.iter().copied().max().unwrap_or(0) as f64 / mean - 1.0
}

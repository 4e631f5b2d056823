//! Federated scatter-gather over several autonomous sources.
//!
//! The paper's setting is plural — autonomous web data*bases* — and this
//! module makes the reproduction match it: [`FederatedWebDb`] presents N
//! heterogeneous member sources (disjoint or overlapping fragments,
//! per-source result limits, per-source fault profiles and seeds,
//! optional attribute renames via a [`SchemaMapping`]) as one
//! [`WebDatabase`]. Every selection probe is *scattered* to all members,
//! the returned pages are *gathered*, deduplicated by full tuple
//! identity, and merged into one deterministic page (canonical value
//! order), so Algorithm 1 runs over the federation unchanged.
//!
//! Fault isolation is per member: each source carries its own resilience
//! stack ([`crate::FaultInjectingWebDb`] → [`crate::ResilientWebDb`] →
//! [`crate::CachedWebDb`], unchanged), so one member's open circuit
//! breaker or exhausted probe budget never poisons the others. All member
//! stacks ride one shared [`VirtualClock`], which also drives *hedged
//! probes*: when a member's probe fails — or straggles past the
//! configured hedge delay — the federator re-issues the probe to that
//! member's overlapping *mirror* source after waiting out the delay.
//!
//! Partial-failure semantics form a small lattice (see DESIGN.md,
//! "Federation & partial-failure semantics"):
//!
//! * every member answered untruncated → a complete page;
//! * a member failed (and its hedge did not recover a page) or any page
//!   was clipped → a `truncated` page, which Algorithm 1 reports as
//!   [`Completeness::Partial`](https://docs.rs) degradation;
//! * fewer than [`FederationPolicy::quorum`] members answered → the
//!   scatter fails as a whole, with [`QueryError::Unavailable`] only
//!   when every member error was terminal.
//!
//! Per-member outcomes (probes, failures, contributed tuples, hedges,
//! breaker state) are recorded in a [`SourceHealth`] table surfaced
//! through [`WebDatabase::source_health`], which the engine snapshots
//! around each call into `DegradationReport::sources`.

use std::collections::BTreeSet;
use std::fmt;
use std::num::Saturating;
use std::sync::{Arc, Mutex};

use aimq_catalog::{AttrId, Domain, Json, Predicate, Schema, SelectionQuery, Tuple, Value};
use serde::{Deserialize, Serialize};

use crate::web::lock_stats;
use crate::{
    AccessStats, CachedWebDb, FaultInjectingWebDb, FaultProfile, InMemoryWebDb, QueryError,
    QueryPage, Relation, ResilientWebDb, RetryPolicy, VirtualClock, WebDatabase,
    DEFAULT_CACHE_CAPACITY,
};

/// Maps the federation schema onto one member's local schema: an
/// autonomous member may rename attributes and present them in a
/// different order. Queries are rewritten on the way out
/// ([`SchemaMapping::map_query`]) and tuples on the way back
/// ([`SchemaMapping::map_tuple_back`]), so the rest of the federation
/// never sees the member's attribute space.
#[derive(Debug, Clone)]
pub struct SchemaMapping {
    source_schema: Schema,
    /// `to_source[f]` = member-side position of federation attribute `f`.
    to_source: Vec<usize>,
}

impl SchemaMapping {
    /// A mapping onto `source_schema` where `to_source[f]` gives the
    /// member-side position of federation attribute `f`. Returns `None`
    /// unless `to_source` is a permutation of the member schema's
    /// positions.
    pub fn new(source_schema: Schema, to_source: Vec<usize>) -> Option<SchemaMapping> {
        let arity = source_schema.arity();
        if to_source.len() != arity {
            return None;
        }
        let mut seen = vec![false; arity];
        for &pos in &to_source {
            match seen.get_mut(pos) {
                Some(slot) if !*slot => *slot = true,
                Some(_) | None => return None,
            }
        }
        Some(SchemaMapping {
            source_schema,
            to_source,
        })
    }

    /// A rename-only mapping: the member keeps the federation's attribute
    /// order and domains but suffixes every attribute name (e.g. `Make`
    /// → `Make_src3`). `relation_name` names the member-side relation.
    pub fn renamed_with_suffix(
        federation: &Schema,
        relation_name: &str,
        suffix: &str,
    ) -> Option<SchemaMapping> {
        let mut builder = Schema::builder(relation_name);
        for attr in federation.attributes() {
            let name = format!("{}{}", attr.name(), suffix);
            builder = match attr.domain() {
                Domain::Categorical => builder.categorical(name),
                Domain::Numeric => builder.numeric(name),
            };
        }
        let schema = builder.build().ok()?;
        SchemaMapping::new(schema, (0..federation.arity()).collect())
    }

    /// The member-side schema.
    pub fn source_schema(&self) -> &Schema {
        &self.source_schema
    }

    /// Rewrite a federation-side query into the member's attribute space.
    pub fn map_query(&self, query: &SelectionQuery) -> SelectionQuery {
        let predicates = query
            .predicates()
            .iter()
            .map(|p| Predicate {
                attr: AttrId(
                    self.to_source
                        .get(p.attr.index())
                        .copied()
                        .unwrap_or(p.attr.index()),
                ),
                op: p.op,
                value: p.value.clone(),
            })
            .collect();
        SelectionQuery::new(predicates)
    }

    /// Rewrite a member-side tuple back into federation attribute order.
    /// A malformed member tuple (wrong arity) passes through unchanged —
    /// unreachable for mappings built by [`SchemaMapping::new`] over the
    /// member's own relation.
    pub fn map_tuple_back(&self, tuple: &Tuple) -> Tuple {
        let source_values = tuple.values();
        let mut values = Vec::with_capacity(self.to_source.len());
        for &pos in &self.to_source {
            match source_values.get(pos) {
                Some(v) => values.push(v.clone()),
                None => return tuple.clone(),
            }
        }
        Tuple::from_values_unchecked(values)
    }
}

/// Configuration of one simulated member source for
/// [`FederatedWebDb::shard`].
#[derive(Debug, Clone)]
pub struct SourceSpec {
    /// Display name used in per-source health reports.
    pub name: String,
    /// Fault profile injected underneath the member's resilience stack.
    pub profile: FaultProfile,
    /// Seed of the member's fault schedule.
    pub fault_seed: u64,
    /// Per-query result-page cap (`None` = unlimited), simulating a form
    /// interface that serves only the first page of matches.
    pub result_limit: Option<usize>,
    /// Attribute-name suffix this member uses (schema heterogeneity);
    /// `None` keeps the federation schema verbatim.
    pub rename_suffix: Option<String>,
}

impl SourceSpec {
    /// A benign, unlimited source named `name` with the federation's
    /// schema verbatim.
    pub fn benign(name: impl Into<String>) -> SourceSpec {
        SourceSpec {
            name: name.into(),
            profile: FaultProfile::none(),
            fault_seed: 0,
            result_limit: None,
            rename_suffix: None,
        }
    }

    /// `n` benign sources named `s0..s{n-1}` with distinct fault seeds.
    pub fn benign_fleet(n: usize) -> Vec<SourceSpec> {
        (0..n)
            .map(|i| SourceSpec {
                fault_seed: i as u64,
                ..SourceSpec::benign(format!("s{i}"))
            })
            .collect()
    }
}

/// Scatter-gather knobs of a [`FederatedWebDb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FederationPolicy {
    /// Virtual-clock ticks a member probe may take before it counts as a
    /// straggler; a straggling or failed probe is re-issued to the
    /// member's mirror after this delay (`None` disables hedging).
    pub hedge_delay: Option<u64>,
    /// Minimum successful member probes for a scatter to produce a page;
    /// below the quorum the whole scatter fails.
    pub quorum: usize,
    /// Retry/breaker policy applied to every member (jitter seeds are
    /// decorrelated per member).
    pub retry: RetryPolicy,
    /// Per-member probe-cache capacity, in pages.
    pub cache_capacity: usize,
}

impl Default for FederationPolicy {
    fn default() -> Self {
        FederationPolicy {
            hedge_delay: Some(4),
            quorum: 1,
            retry: RetryPolicy::default(),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
        }
    }
}

/// Health and contribution counters of one federation member, as recorded
/// by the federator (post-resilience: a probe a member's retry layer
/// absorbed is a success here).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceHealth {
    /// Member name (stable across snapshots).
    pub name: String,
    /// Scatter probes issued to this member (hedge re-probes excluded).
    pub probes_attempted: u64,
    /// Scatter probes that surfaced a failure after the member's own
    /// retries and breaker.
    pub probes_failed: u64,
    /// Distinct merged tuples this member was the first to return.
    pub tuples_contributed: u64,
    /// Hedge probes fired because this member straggled or failed.
    pub hedges_fired: u64,
    /// Hedge probes fired for this member whose mirror returned a page.
    pub hedges_won: u64,
    /// Whether the member's circuit breaker was open at snapshot time.
    pub breaker_open: bool,
}

impl SourceHealth {
    /// Per-counter difference `self - earlier`, saturating at zero;
    /// `breaker_open` keeps the later (current) state. The engine uses
    /// this to scope the per-source breakdown to one call.
    #[must_use]
    pub fn since(&self, earlier: &SourceHealth) -> SourceHealth {
        SourceHealth {
            name: self.name.clone(),
            probes_attempted: self
                .probes_attempted
                .saturating_sub(earlier.probes_attempted),
            probes_failed: self.probes_failed.saturating_sub(earlier.probes_failed),
            tuples_contributed: self
                .tuples_contributed
                .saturating_sub(earlier.tuples_contributed),
            hedges_fired: self.hedges_fired.saturating_sub(earlier.hedges_fired),
            hedges_won: self.hedges_won.saturating_sub(earlier.hedges_won),
            breaker_open: self.breaker_open,
        }
    }

    /// The member's health counters as a deterministic [`Json`] object,
    /// embedded by `DegradationReport::to_json` and the HTTP `/stats`
    /// route.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("probes_attempted", Json::Num(self.probes_attempted as f64)),
            ("probes_failed", Json::Num(self.probes_failed as f64)),
            (
                "tuples_contributed",
                Json::Num(self.tuples_contributed as f64),
            ),
            ("hedges_fired", Json::Num(self.hedges_fired as f64)),
            ("hedges_won", Json::Num(self.hedges_won as f64)),
            ("breaker_open", Json::Bool(self.breaker_open)),
        ])
    }
}

impl fmt::Display for SourceHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: probes={} failed={} contributed={} hedges={}/{}{}",
            self.name,
            self.probes_attempted,
            self.probes_failed,
            self.tuples_contributed,
            self.hedges_won,
            self.hedges_fired,
            if self.breaker_open {
                " breaker-open"
            } else {
                ""
            }
        )
    }
}

/// One pre-built federation member: a named stack plus its optional
/// schema mapping and breaker view. Built by [`FederatedWebDb::shard`],
/// or by hand for custom stacks.
pub struct FederatedSource {
    /// Display name used in health reports.
    pub name: String,
    /// The member's (already decorated) database stack.
    pub db: Arc<dyn WebDatabase>,
    /// Rewrites queries/tuples when the member's schema differs.
    pub mapping: Option<SchemaMapping>,
    /// Reads the member's breaker state, when its stack exposes one.
    pub breaker_probe: Option<Box<dyn Fn() -> bool + Send + Sync>>,
}

impl fmt::Debug for FederatedSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FederatedSource")
            .field("name", &self.name)
            .field("mapped", &self.mapping.is_some())
            .finish()
    }
}

/// A federation of autonomous member sources behind one [`WebDatabase`].
///
/// Cloning shares the members, the clock and the health table. The type
/// is `Send + Sync` (members behind `Arc`, health behind a mutex), so it
/// serves unchanged behind `aimq-serve`'s shared `Arc<dyn WebDatabase>`.
#[derive(Clone)]
pub struct FederatedWebDb {
    schema: Schema,
    members: Arc<Vec<FederatedSource>>,
    /// `mirrors[i]` = index of the member holding a replica of member
    /// `i`'s primary fragment (the hedge target); `None` = no mirror.
    mirrors: Arc<Vec<Option<usize>>>,
    policy: FederationPolicy,
    clock: Arc<VirtualClock>,
    // aimq-lock: family(federation-state) -- guards the per-member health
    // counters; released before every member probe
    health: Arc<Mutex<Vec<Tally>>>,
}

/// One member's health counters as the federator updates them. They
/// saturate by type; [`FederatedWebDb::federation_report`] copies them
/// out as plain [`SourceHealth`] numbers.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    probes_attempted: Saturating<u64>,
    probes_failed: Saturating<u64>,
    tuples_contributed: Saturating<u64>,
    hedges_fired: Saturating<u64>,
    hedges_won: Saturating<u64>,
}

impl fmt::Debug for FederatedWebDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FederatedWebDb")
            .field("members", &self.members)
            .field("policy", &self.policy)
            .finish()
    }
}

impl FederatedWebDb {
    /// Federate pre-built member stacks. `mirrors[i]` names the member
    /// holding a replica of member `i`'s primary fragment (its hedge
    /// target); pass all-`None` to disable hedging structurally. Returns
    /// `None` for an empty federation.
    pub fn new(
        schema: Schema,
        sources: Vec<FederatedSource>,
        mirrors: Vec<Option<usize>>,
        policy: FederationPolicy,
        clock: Arc<VirtualClock>,
    ) -> Option<FederatedWebDb> {
        if sources.is_empty() {
            return None;
        }
        let health = vec![Tally::default(); sources.len()];
        let mut mirrors = mirrors;
        mirrors.resize(sources.len(), None);
        Some(FederatedWebDb {
            schema,
            members: Arc::new(sources),
            mirrors: Arc::new(mirrors),
            policy,
            clock,
            health: Arc::new(Mutex::new(health)),
        })
    }

    /// Shard `relation` into `specs.len()` simulated member sources with
    /// `replication`-way overlapping fragments, each behind the standard
    /// resilience stack (fault injection → retry/breaker → cache), all
    /// riding one shared [`VirtualClock`].
    ///
    /// Row `r` belongs to fragment `r mod n`; member `i` serves fragments
    /// `{i, i+1, …, i+replication-1} (mod n)`. With `replication ≥ 2`
    /// member `i`'s primary fragment is also held by member `i-1`, which
    /// becomes its hedge mirror. Returns `None` for an empty spec list or
    /// a member whose renamed schema cannot be built.
    pub fn shard(
        relation: &Relation,
        specs: &[SourceSpec],
        replication: usize,
        policy: FederationPolicy,
    ) -> Option<FederatedWebDb> {
        let n = specs.len();
        if n == 0 {
            return None;
        }
        let replication = replication.clamp(1, n);
        let clock = Arc::new(VirtualClock::new());
        let schema = relation.schema().clone();
        let mut sources = Vec::with_capacity(n);
        let mut mirrors = Vec::with_capacity(n);
        for (i, spec) in specs.iter().enumerate() {
            // Member i's rows: fragment ids within `replication` wrapping
            // steps of i.
            let tuples: Vec<Tuple> = relation
                .rows()
                .filter(|&r| (r as usize % n + n - i) % n < replication)
                .map(|r| relation.tuple(r))
                .collect();
            let mapping = match &spec.rename_suffix {
                Some(suffix) => Some(SchemaMapping::renamed_with_suffix(
                    &schema,
                    &format!("{}@{}", schema.name(), spec.name),
                    suffix,
                )?),
                None => None,
            };
            let member_schema = match &mapping {
                Some(m) => m.source_schema().clone(),
                None => schema.clone(),
            };
            let fragment = Relation::from_tuples(member_schema, &tuples).ok()?;
            let mut base = InMemoryWebDb::new(fragment);
            if let Some(limit) = spec.result_limit {
                base = base.with_result_limit(limit);
            }
            let faulty = FaultInjectingWebDb::new(base, spec.profile, spec.fault_seed);
            // Decorrelate the members' jitter streams deterministically.
            let retry = RetryPolicy {
                jitter_seed: policy
                    .retry
                    .jitter_seed
                    .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                ..policy.retry
            };
            let resilient = ResilientWebDb::with_clock(faulty, retry, Arc::clone(&clock));
            let breaker_view = resilient.clone();
            let cached = CachedWebDb::new(resilient, policy.cache_capacity);
            sources.push(FederatedSource {
                name: spec.name.clone(),
                db: Arc::new(cached),
                mapping,
                breaker_probe: Some(Box::new(move || breaker_view.breaker_open())),
            });
            mirrors.push((replication >= 2 && n >= 2).then(|| (i + n - 1) % n));
        }
        FederatedWebDb::new(schema, sources, mirrors, policy, clock)
    }

    /// The shared session clock (hedge delays and member backoffs all
    /// advance it).
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// The scatter-gather policy.
    pub fn policy(&self) -> &FederationPolicy {
        &self.policy
    }

    /// Number of member sources.
    pub fn source_count(&self) -> usize {
        self.members.len()
    }

    /// Per-member health snapshot: scatter outcomes plus current breaker
    /// state. Counter order matches member order and is stable.
    pub fn federation_report(&self) -> Vec<SourceHealth> {
        let tallies = {
            // aimq-lock: use(federation-state)
            lock_stats(&self.health).clone()
        };
        self.members
            .iter()
            .zip(tallies)
            .map(|(m, t)| SourceHealth {
                name: m.name.clone(),
                probes_attempted: t.probes_attempted.0,
                probes_failed: t.probes_failed.0,
                tuples_contributed: t.tuples_contributed.0,
                hedges_fired: t.hedges_fired.0,
                hedges_won: t.hedges_won.0,
                breaker_open: m.breaker_probe.as_ref().is_some_and(|probe| probe()),
            })
            .collect()
    }

    /// Run `mutate` over member `i`'s health counters under the state
    /// lock (never held across a probe).
    fn with_health(&self, i: usize, mutate: impl FnOnce(&mut Tally)) {
        // aimq-lock: use(federation-state)
        let mut health = lock_stats(&self.health);
        if let Some(h) = health.get_mut(i) {
            mutate(h);
        }
    }

    /// Issue one (schema-mapped) probe against a member's stack and map
    /// the resulting page back into the federation's attribute space.
    // aimq-probe: entry -- per-member scatter probe; raw access is metered in the member stack's AccessStats, outcomes in the federation-state health table
    fn probe_member(
        &self,
        member: &FederatedSource,
        query: &SelectionQuery,
    ) -> Result<QueryPage, QueryError> {
        match &member.mapping {
            Some(mapping) => {
                let mapped = mapping.map_query(query);
                let page = member.db.try_query(&mapped)?;
                Ok(QueryPage {
                    tuples: page
                        .tuples
                        .iter()
                        .map(|t| mapping.map_tuple_back(t))
                        .collect(),
                    truncated: page.truncated,
                })
            }
            None => member.db.try_query(query),
        }
    }

    /// Fold one member page into the merged answer: dedup by full tuple
    /// identity (the value vector), crediting each distinct tuple to the
    /// first member that returned it.
    fn merge_page(
        &self,
        contributor: usize,
        page: QueryPage,
        seen: &mut BTreeSet<Vec<Value>>,
        merged: &mut Vec<Tuple>,
    ) {
        let mut fresh: u64 = 0;
        for tuple in page.tuples {
            if seen.insert(tuple.values().to_vec()) {
                merged.push(tuple);
                fresh = fresh.saturating_add(1);
            }
        }
        if fresh > 0 {
            self.with_health(contributor, |h| {
                h.tuples_contributed += fresh;
            });
        }
    }

    /// Re-issue `query` to member `i`'s mirror. `wait_out_delay` pays the
    /// hedge delay on the clock first (a failed original fires after the
    /// delay; a straggler already consumed it). Returns `true` when the
    /// mirror returned a page — the hedge *won* and member `i`'s primary
    /// fragment is covered through the replica.
    fn hedge(
        &self,
        i: usize,
        query: &SelectionQuery,
        seen: &mut BTreeSet<Vec<Value>>,
        merged: &mut Vec<Tuple>,
        truncated: &mut bool,
        wait_out_delay: bool,
    ) -> bool {
        let Some(delay) = self.policy.hedge_delay else {
            return false;
        };
        let Some(mirror_ix) = self.mirrors.get(i).copied().flatten() else {
            return false;
        };
        let Some(mirror) = self.members.get(mirror_ix) else {
            return false;
        };
        if mirror_ix == i {
            return false;
        }
        if wait_out_delay {
            self.clock.advance(delay);
        }
        self.with_health(i, |h| {
            h.hedges_fired += 1;
        });
        match self.probe_member(mirror, query) {
            Ok(page) => {
                self.with_health(i, |h| {
                    h.hedges_won += 1;
                });
                *truncated |= page.truncated;
                self.merge_page(mirror_ix, page, seen, merged);
                true
            }
            Err(QueryError::Timeout)
            | Err(QueryError::Transient)
            | Err(QueryError::RateLimited { .. })
            | Err(QueryError::Unavailable) => false,
        }
    }
}

impl WebDatabase for FederatedWebDb {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Scatter `query` to every member, gather and dedup the pages, and
    /// merge them in canonical value order (a total, deterministic order:
    /// dedup leaves no equal value vectors).
    fn try_query(&self, query: &SelectionQuery) -> Result<QueryPage, QueryError> {
        let mut merged: Vec<Tuple> = Vec::new();
        let mut seen: BTreeSet<Vec<Value>> = BTreeSet::new();
        let mut successes: usize = 0;
        let mut truncated = false;
        let mut last_retryable: Option<QueryError> = None;

        for i in 0..self.members.len() {
            let Some(member) = self.members.get(i) else {
                break;
            };
            let before = self.clock.now();
            let outcome = self.probe_member(member, query);
            let elapsed = self.clock.now().saturating_sub(before);
            let failed = outcome.is_err();
            self.with_health(i, |h| {
                h.probes_attempted += 1;
                if failed {
                    h.probes_failed += 1;
                }
            });
            match outcome {
                Ok(page) => {
                    successes += 1;
                    truncated |= page.truncated;
                    self.merge_page(i, page, &mut seen, &mut merged);
                    // Straggler hedge: the member answered, but only
                    // after backoffs pushed virtual time past the hedge
                    // delay — a real hedged request would have fired, so
                    // fire it (the merge dedups any overlap).
                    let straggled = self.policy.hedge_delay.is_some_and(|delay| elapsed > delay);
                    if straggled {
                        self.hedge(i, query, &mut seen, &mut merged, &mut truncated, false);
                    }
                }
                Err(error) => {
                    if error.is_retryable() {
                        last_retryable = Some(error);
                    }
                    let rescued =
                        self.hedge(i, query, &mut seen, &mut merged, &mut truncated, true);
                    if rescued {
                        // The mirror covered member i's primary fragment;
                        // the scatter still counts it toward the quorum.
                        successes += 1;
                    } else {
                        // Fragment potentially missing from the merge.
                        truncated = true;
                    }
                }
            }
        }

        // Quorum gate: below it the scatter fails as a whole. The error
        // is terminal only when every member error was — a single
        // retryable failure means a later identical scatter may succeed.
        if successes < self.policy.quorum.max(1) {
            return Err(last_retryable.unwrap_or(QueryError::Unavailable));
        }
        merged.sort_by(|a, b| a.values().cmp(b.values()));
        Ok(QueryPage {
            tuples: merged,
            truncated,
        })
    }

    /// Aggregate access meter: the per-field saturating sum of every
    /// member stack's stats.
    fn stats(&self) -> AccessStats {
        let mut total = AccessStats::default();
        for member in self.members.iter() {
            total = total.merge(&member.db.stats());
        }
        total
    }

    fn reset_stats(&self) {
        for member in self.members.iter() {
            member.db.reset_stats();
        }
        // aimq-lock: use(federation-state)
        let mut health = lock_stats(&self.health);
        health.fill(Tally::default());
    }

    fn source_health(&self) -> Option<Vec<SourceHealth>> {
        Some(self.federation_report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimq_catalog::PredicateOp;

    fn schema() -> Schema {
        Schema::builder("R")
            .categorical("Make")
            .categorical("Model")
            .numeric("Price")
            .build()
            .unwrap()
    }

    /// 24 distinct tuples in sorted value order (so the single-source
    /// baseline returns pages in the federator's canonical merge order).
    fn relation() -> Relation {
        let s = schema();
        let mut tuples: Vec<Tuple> = Vec::new();
        for (mi, make) in ["Ford", "Honda", "Toyota"].iter().enumerate() {
            for (di, model) in ["A", "B"].iter().enumerate() {
                for k in 0..4 {
                    tuples.push(
                        Tuple::new(
                            &s,
                            vec![
                                Value::cat(*make),
                                Value::cat(*model),
                                Value::num(1000.0 * (1 + mi * 8 + di * 4 + k) as f64),
                            ],
                        )
                        .unwrap(),
                    );
                }
            }
        }
        tuples.sort_by(|a, b| a.values().cmp(b.values()));
        Relation::from_tuples(s, &tuples).unwrap()
    }

    fn make_query(make: &str) -> SelectionQuery {
        SelectionQuery::new(vec![Predicate::eq(AttrId(0), Value::cat(make))])
    }

    #[test]
    fn schema_mapping_rejects_non_permutations() {
        let s = schema();
        assert!(SchemaMapping::new(s.clone(), vec![0, 1]).is_none());
        assert!(SchemaMapping::new(s.clone(), vec![0, 1, 1]).is_none());
        assert!(SchemaMapping::new(s.clone(), vec![0, 1, 3]).is_none());
        assert!(SchemaMapping::new(s, vec![2, 0, 1]).is_some());
    }

    #[test]
    fn schema_mapping_roundtrips_queries_and_tuples() {
        let fed = schema();
        // Member stores (Price', Make', Model') — renamed AND permuted.
        let member = Schema::builder("M")
            .numeric("Price_m")
            .categorical("Make_m")
            .categorical("Model_m")
            .build()
            .unwrap();
        // Federation attrs (Make, Model, Price) live at member positions
        // (1, 2, 0).
        let mapping = SchemaMapping::new(member.clone(), vec![1, 2, 0]).unwrap();
        let q = SelectionQuery::new(vec![
            Predicate::eq(AttrId(0), Value::cat("Toyota")),
            Predicate {
                attr: AttrId(2),
                op: PredicateOp::Lt,
                value: Value::num(9000.0),
            },
        ]);
        let mapped = mapping.map_query(&q);
        assert_eq!(mapped.predicates()[0].attr, AttrId(1));
        assert_eq!(mapped.predicates()[1].attr, AttrId(0));

        let member_tuple = Tuple::new(
            &member,
            vec![Value::num(8000.0), Value::cat("Toyota"), Value::cat("A")],
        )
        .unwrap();
        let back = mapping.map_tuple_back(&member_tuple);
        assert_eq!(
            back.values(),
            Tuple::new(
                &fed,
                vec![Value::cat("Toyota"), Value::cat("A"), Value::num(8000.0)]
            )
            .unwrap()
            .values()
        );
        assert!(q.matches(&back));
    }

    #[test]
    fn renamed_suffix_mapping_preserves_order_and_domains() {
        let fed = schema();
        let mapping = SchemaMapping::renamed_with_suffix(&fed, "R@s1", "_s1").unwrap();
        let m = mapping.source_schema();
        assert_eq!(m.arity(), fed.arity());
        assert_eq!(m.attributes()[0].name(), "Make_s1");
        assert_eq!(m.attributes()[2].name(), "Price_s1");
        assert_eq!(m.attributes()[2].domain(), Domain::Numeric);
    }

    #[test]
    fn fault_free_scatter_equals_single_source_in_canonical_order() {
        let relation = relation();
        let baseline = InMemoryWebDb::new(relation.clone());
        for sources in [1usize, 2, 3, 5] {
            let fed = FederatedWebDb::shard(
                &relation,
                &SourceSpec::benign_fleet(sources),
                2,
                FederationPolicy::default(),
            )
            .unwrap();
            for q in [
                SelectionQuery::all(),
                make_query("Toyota"),
                make_query("Honda"),
                make_query("None"),
            ] {
                let merged = fed.try_query(&q).unwrap();
                let single = baseline.try_query(&q).unwrap();
                assert_eq!(
                    merged.tuples, single.tuples,
                    "sources={sources} query={q:?}"
                );
                assert!(!merged.truncated);
            }
        }
    }

    #[test]
    fn renamed_members_are_transparent_to_the_federation() {
        let relation = relation();
        let baseline = InMemoryWebDb::new(relation.clone());
        let specs: Vec<SourceSpec> = (0..3)
            .map(|i| SourceSpec {
                rename_suffix: Some(format!("_s{i}")),
                ..SourceSpec::benign(format!("s{i}"))
            })
            .collect();
        let fed = FederatedWebDb::shard(&relation, &specs, 2, FederationPolicy::default()).unwrap();
        assert_eq!(fed.schema(), relation.schema());
        let q = make_query("Toyota");
        assert_eq!(
            fed.try_query(&q).unwrap().tuples,
            baseline.try_query(&q).unwrap().tuples
        );
    }

    #[test]
    fn scatter_dedups_overlapping_fragments() {
        let relation = relation();
        // Full replication: every member holds every row.
        let fed = FederatedWebDb::shard(
            &relation,
            &SourceSpec::benign_fleet(4),
            4,
            FederationPolicy::default(),
        )
        .unwrap();
        let page = fed.try_query(&SelectionQuery::all()).unwrap();
        assert_eq!(page.tuples.len(), relation.len(), "dedup by tuple identity");
        let report = fed.federation_report();
        let contributed: u64 = report.iter().map(|h| h.tuples_contributed).sum();
        assert_eq!(contributed, relation.len() as u64);
        // First member in scatter order gets the credit under full
        // replication.
        assert_eq!(report[0].tuples_contributed, relation.len() as u64);
    }

    #[test]
    fn one_dead_member_degrades_to_truncated_not_error() {
        let relation = relation();
        let mut specs = SourceSpec::benign_fleet(4);
        specs[1].profile = FaultProfile {
            unavailable_probability: 1.0,
            ..FaultProfile::none()
        };
        // Disjoint fragments and no hedging: member 1's fragment is
        // simply missing.
        let fed = FederatedWebDb::shard(
            &relation,
            &specs,
            1,
            FederationPolicy {
                hedge_delay: None,
                ..FederationPolicy::default()
            },
        )
        .unwrap();
        let page = fed.try_query(&SelectionQuery::all()).unwrap();
        assert!(page.truncated, "missing fragment must be reported");
        assert!(page.tuples.len() < relation.len());
        let report = fed.federation_report();
        assert_eq!(report[1].probes_failed, 1);
        assert_eq!(report[1].tuples_contributed, 0);
        assert!(report.iter().all(|h| h.probes_attempted == 1));
    }

    #[test]
    fn hedge_to_mirror_recovers_a_dead_members_fragment() {
        let relation = relation();
        let mut specs = SourceSpec::benign_fleet(3);
        specs[2].profile = FaultProfile {
            unavailable_probability: 1.0,
            ..FaultProfile::none()
        };
        // replication 2: member 2's primary fragment is mirrored on
        // member 1, so the hedge recovers it and the merge is complete.
        let fed = FederatedWebDb::shard(
            &relation,
            &specs,
            2,
            FederationPolicy {
                hedge_delay: Some(2),
                ..FederationPolicy::default()
            },
        )
        .unwrap();
        let clock_before = fed.clock().now();
        let page = fed.try_query(&SelectionQuery::all()).unwrap();
        assert_eq!(page.tuples.len(), relation.len(), "hedge covers the gap");
        assert!(!page.truncated, "rescued fragment is not a truncation");
        let report = fed.federation_report();
        assert_eq!(report[2].probes_failed, 1);
        assert_eq!(report[2].hedges_fired, 1);
        assert_eq!(report[2].hedges_won, 1);
        assert!(
            fed.clock().now() >= clock_before + 2,
            "the hedge waits out its delay on the virtual clock"
        );
    }

    #[test]
    fn quorum_failure_fails_the_scatter_with_honest_error() {
        let relation = relation();
        let mut specs = SourceSpec::benign_fleet(2);
        for spec in &mut specs {
            spec.profile = FaultProfile {
                unavailable_probability: 1.0,
                ..FaultProfile::none()
            };
        }
        let fed = FederatedWebDb::shard(
            &relation,
            &specs,
            1,
            FederationPolicy {
                hedge_delay: None,
                ..FederationPolicy::default()
            },
        )
        .unwrap();
        // All members terminally dead → Unavailable.
        assert_eq!(
            fed.try_query(&SelectionQuery::all()),
            Err(QueryError::Unavailable)
        );

        // A transiently-failing fleet surfaces a retryable error instead.
        let mut specs = SourceSpec::benign_fleet(2);
        for spec in &mut specs {
            spec.profile = FaultProfile {
                transient_probability: 1.0,
                ..FaultProfile::none()
            };
        }
        let fed = FederatedWebDb::shard(
            &relation,
            &specs,
            1,
            FederationPolicy {
                hedge_delay: None,
                retry: RetryPolicy {
                    max_retries: 0,
                    breaker_threshold: 0,
                    ..RetryPolicy::default()
                },
                ..FederationPolicy::default()
            },
        )
        .unwrap();
        assert_eq!(
            fed.try_query(&SelectionQuery::all()),
            Err(QueryError::Transient)
        );
    }

    #[test]
    fn member_isolation_one_open_breaker_never_poisons_others() {
        let relation = relation();
        let mut specs = SourceSpec::benign_fleet(3);
        specs[0].profile = FaultProfile {
            transient_probability: 1.0,
            ..FaultProfile::none()
        };
        let fed = FederatedWebDb::shard(
            &relation,
            &specs,
            1,
            FederationPolicy {
                hedge_delay: None,
                retry: RetryPolicy {
                    max_retries: 0,
                    breaker_threshold: 2,
                    breaker_cooldown: 1_000_000,
                    ..RetryPolicy::default()
                },
                ..FederationPolicy::default()
            },
        )
        .unwrap();
        for _ in 0..5 {
            let page = fed.try_query(&SelectionQuery::all()).unwrap();
            assert!(page.truncated);
        }
        let report = fed.federation_report();
        assert!(report[0].breaker_open, "dead member's breaker opens");
        assert!(!report[1].breaker_open && !report[2].breaker_open);
        assert_eq!(report[1].probes_failed, 0);
        assert_eq!(report[2].probes_failed, 0);
        // Healthy members answered every scatter.
        assert_eq!(report[1].probes_attempted, 5);
    }

    #[test]
    fn reset_stats_zeroes_health_but_keeps_names() {
        let relation = relation();
        let fed = FederatedWebDb::shard(
            &relation,
            &SourceSpec::benign_fleet(2),
            1,
            FederationPolicy::default(),
        )
        .unwrap();
        fed.try_query(&SelectionQuery::all()).unwrap();
        assert!(fed.stats().queries_issued > 0);
        fed.reset_stats();
        assert_eq!(fed.stats(), AccessStats::default());
        let report = fed.federation_report();
        assert_eq!(report[0].name, "s0");
        assert_eq!(report[0].probes_attempted, 0);
    }

    #[test]
    fn result_limited_members_mark_the_merge_truncated() {
        let relation = relation();
        let mut specs = SourceSpec::benign_fleet(2);
        specs[0].result_limit = Some(2);
        specs[1].result_limit = Some(2);
        let fed = FederatedWebDb::shard(
            &relation,
            &specs,
            1,
            FederationPolicy {
                hedge_delay: None,
                ..FederationPolicy::default()
            },
        )
        .unwrap();
        let page = fed.try_query(&SelectionQuery::all()).unwrap();
        assert!(page.truncated);
        assert_eq!(page.tuples.len(), 4);
    }

    #[test]
    fn source_health_since_is_a_saturating_delta() {
        let earlier = SourceHealth {
            name: "s0".into(),
            probes_attempted: 5,
            probes_failed: 1,
            tuples_contributed: 100,
            hedges_fired: 2,
            hedges_won: 2,
            breaker_open: true,
        };
        let later = SourceHealth {
            name: "s0".into(),
            probes_attempted: 9,
            probes_failed: 1,
            tuples_contributed: 150,
            hedges_fired: 3,
            hedges_won: 2,
            breaker_open: false,
        };
        let d = later.since(&earlier);
        assert_eq!(d.probes_attempted, 4);
        assert_eq!(d.probes_failed, 0);
        assert_eq!(d.tuples_contributed, 50);
        assert_eq!(d.hedges_fired, 1);
        assert!(!d.breaker_open, "breaker state is the later snapshot's");
        // Reversed order saturates at zero instead of wrapping.
        assert_eq!(earlier.since(&later).probes_attempted, 0);
    }

    #[test]
    fn concurrent_scatters_agree_with_serial_and_never_tear() {
        // TSan smoke target: many threads scattering through one shared
        // federation must produce byte-identical pages (benign members,
        // so fault ordinals don't matter) and a coherent health table.
        let relation = relation();
        let fed = FederatedWebDb::shard(
            &relation,
            &SourceSpec::benign_fleet(4),
            2,
            FederationPolicy::default(),
        )
        .unwrap();
        let queries = [
            SelectionQuery::all(),
            make_query("Toyota"),
            make_query("Honda"),
            make_query("Ford"),
        ];
        let serial: Vec<QueryPage> = queries.iter().map(|q| fed.try_query(q).unwrap()).collect();
        fed.reset_stats();
        let mut handles = Vec::new();
        for w in 0..4 {
            let fed = fed.clone();
            let queries = queries.clone();
            let serial = serial.clone();
            handles.push(std::thread::spawn(move || {
                for r in 0..25 {
                    let i = (w + r) % queries.len();
                    assert_eq!(fed.try_query(&queries[i]).unwrap(), serial[i]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let report = fed.federation_report();
        let scatters: u64 = report.iter().map(|h| h.probes_attempted).sum();
        assert_eq!(scatters, 4 * 25 * 4, "every scatter hits every member");
        assert_eq!(report.iter().map(|h| h.probes_failed).sum::<u64>(), 0);
    }

    #[test]
    fn federation_is_send_sync_behind_arc_dyn() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FederatedWebDb>();
        let relation = relation();
        let fed: Arc<dyn WebDatabase> = Arc::new(
            FederatedWebDb::shard(
                &relation,
                &SourceSpec::benign_fleet(2),
                2,
                FederationPolicy::default(),
            )
            .unwrap(),
        );
        assert!(fed.source_health().is_some());
        assert!(fed.try_query(&SelectionQuery::all()).is_ok());
    }
}

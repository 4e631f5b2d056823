use std::fmt;

use aimq_catalog::{AttrId, CatalogError, Predicate, SelectionQuery};
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::{QueryError, Relation, WebDatabase};

/// Why a spanning-probe sampling pass failed.
///
/// A probe error is *typed and loud*: a sampling pass that loses probes
/// mid-run must not pass off a short sample as a representative one —
/// AIMQ's mined statistics would silently skew. Callers that want to ride
/// through transient faults wrap the source in
/// [`crate::ResilientWebDb`] before sampling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeError {
    /// The spanning attribute does not exist in the source schema.
    Catalog(CatalogError),
    /// A probe query failed at the source after any client-side retries.
    Source {
        /// Index of the failing probe within the shuffled probe order.
        probe_index: usize,
        /// The spanning value whose probe failed.
        value: String,
        /// The underlying source failure.
        error: QueryError,
    },
}

impl fmt::Display for ProbeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbeError::Catalog(e) => write!(f, "{e}"),
            ProbeError::Source {
                probe_index,
                value,
                error,
            } => write!(f, "probe #{probe_index} (value `{value}`) failed: {error}"),
        }
    }
}

impl std::error::Error for ProbeError {}

impl From<CatalogError> for ProbeError {
    fn from(e: CatalogError) -> Self {
        ProbeError::Catalog(e)
    }
}

/// Draw a sample of about `target` tuples from an autonomous source using
/// *spanning probe queries* — the paper's Data Collector (Section 6.2: "we
/// select the probing queries from a set of spanning queries, i.e. queries
/// which together cover all the tuples stored in the data sources").
///
/// The prober enumerates the value domain of `spanning_attr` by probing the
/// source one equality query per value (the attribute's Web-form select-box
/// options, in the real deployment the paper describes), shuffles the probe
/// order with `seed`, and keeps issuing probes until `target` tuples have
/// been collected. Because each tuple binds exactly one value of the
/// spanning attribute, the union of all probes covers the relation and no
/// tuple is collected twice.
///
/// The prober talks to the source through the fallible
/// [`WebDatabase::try_query`] interface and does **no retrying of its
/// own**: any [`QueryError`] aborts the pass with a typed
/// [`ProbeError::Source`] rather than returning a silently short sample.
/// Truncated pages are tolerated — their tuples are genuine, coverage is
/// merely reduced — and show up in the source's
/// [`crate::AccessStats::truncated_queries`] meter.
///
/// Returns a [`Relation`] built from the probed tuples (at most `target`,
/// fewer when the source is smaller).
// aimq-probe: entry -- offline sampling walk (Section 3.1); caller bounds work via `target`, failures surface as ProbeError::Source
pub fn probe_by_spanning_queries(
    db: &dyn WebDatabase,
    spanning_attr: AttrId,
    spanning_values: &[String],
    target: usize,
    seed: u64,
) -> Result<Relation, ProbeError> {
    let schema = db.schema().clone();
    schema.attribute(spanning_attr)?;

    let mut order: Vec<&String> = spanning_values.iter().collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);

    let mut builder = Relation::builder(schema);
    'probe: for (probe_index, value) in order.into_iter().enumerate() {
        let q = SelectionQuery::new(vec![Predicate::eq(
            spanning_attr,
            aimq_catalog::Value::cat(value.clone()),
        )]);
        let page = db.try_query(&q).map_err(|error| ProbeError::Source {
            probe_index,
            value: value.clone(),
            error,
        })?;
        for tuple in page.tuples {
            builder.push(&tuple).map_err(ProbeError::Catalog)?;
            if builder.len() >= target {
                break 'probe;
            }
        }
    }
    Ok(builder.build())
}

/// Uniform random sample without replacement from an owned relation —
/// the sampling protocol of the robustness experiments (Section 6.2).
///
/// Thin re-export of [`Relation::random_sample`] so callers depending only
/// on this module see both sampling modes side by side.
pub fn random_sample(relation: &Relation, n: usize, seed: u64) -> Relation {
    relation.random_sample(n, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        FaultInjectingWebDb, FaultProfile, InMemoryWebDb, ResilientWebDb, RetryPolicy, WebDatabase,
    };
    use aimq_catalog::{Schema, Tuple, Value};

    fn make_db() -> InMemoryWebDb {
        let schema = Schema::builder("CarDB")
            .categorical("Make")
            .numeric("Price")
            .build()
            .unwrap();
        let mut tuples = Vec::new();
        for (make, count) in [("Toyota", 5), ("Honda", 3), ("Ford", 4)] {
            for i in 0..count {
                tuples.push(
                    Tuple::new(
                        &schema,
                        vec![Value::cat(make), Value::num(1000.0 * f64::from(i))],
                    )
                    .unwrap(),
                );
            }
        }
        InMemoryWebDb::new(Relation::from_tuples(schema, &tuples).unwrap())
    }

    fn makes() -> Vec<String> {
        ["Toyota", "Honda", "Ford"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect()
    }

    #[test]
    fn spanning_probe_covers_whole_source() {
        let db = make_db();
        let sample = probe_by_spanning_queries(&db, AttrId(0), &makes(), 100, 1).unwrap();
        assert_eq!(sample.len(), 12); // everything, no duplicates
    }

    #[test]
    fn spanning_probe_respects_target() {
        let db = make_db();
        let sample = probe_by_spanning_queries(&db, AttrId(0), &makes(), 7, 1).unwrap();
        assert_eq!(sample.len(), 7);
    }

    #[test]
    fn spanning_probe_goes_through_metered_interface() {
        let db = make_db();
        let _ = probe_by_spanning_queries(&db, AttrId(0), &makes(), 100, 1).unwrap();
        use crate::WebDatabase as _;
        let stats = db.stats();
        assert_eq!(stats.queries_issued, 3); // one probe per make
        assert_eq!(stats.tuples_returned, 12);
    }

    #[test]
    fn probe_order_depends_on_seed_but_coverage_does_not() {
        let db = make_db();
        let s1 = probe_by_spanning_queries(&db, AttrId(0), &makes(), 100, 1).unwrap();
        let s2 = probe_by_spanning_queries(&db, AttrId(0), &makes(), 100, 2).unwrap();
        let mut a: Vec<String> = s1.tuples().map(|t| format!("{t:?}")).collect();
        let mut b: Vec<String> = s2.tuples().map(|t| format!("{t:?}")).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_spanning_attr_is_error() {
        let db = make_db();
        assert!(matches!(
            probe_by_spanning_queries(&db, AttrId(9), &makes(), 10, 1),
            Err(ProbeError::Catalog(_))
        ));
    }

    #[test]
    fn flaky_source_with_retries_still_covers_spanning_domain() {
        // 10% transient failures behind a retrying wrapper: the probes
        // all eventually succeed, so the sample covers the full domain —
        // bit-identical to the fault-free sample.
        let faulty = FaultInjectingWebDb::new(make_db(), FaultProfile::flaky(), 11);
        let resilient = ResilientWebDb::new(faulty, RetryPolicy::default());
        let sample = probe_by_spanning_queries(&resilient, AttrId(0), &makes(), 100, 1).unwrap();
        assert_eq!(sample.len(), 12, "retried probes must restore coverage");

        let clean = probe_by_spanning_queries(&make_db(), AttrId(0), &makes(), 100, 1).unwrap();
        let fp = |r: &Relation| {
            let mut v: Vec<String> = r.tuples().map(|t| format!("{t:?}")).collect();
            v.sort();
            v
        };
        assert_eq!(fp(&sample), fp(&clean));
    }

    #[test]
    fn bare_flaky_source_fails_loudly_not_short() {
        // Without a resilience wrapper, the first injected failure must
        // surface as a typed error — never a silently short sample.
        let mut saw_error = false;
        for seed in 0..20 {
            let faulty = FaultInjectingWebDb::new(make_db(), FaultProfile::flaky(), seed);
            match probe_by_spanning_queries(&faulty, AttrId(0), &makes(), 100, 1) {
                Ok(sample) => assert_eq!(sample.len(), 12, "short sample returned silently"),
                Err(ProbeError::Source { error, .. }) => {
                    saw_error = true;
                    assert!(error.is_retryable());
                }
                Err(other) => panic!("unexpected error kind: {other:?}"),
            }
        }
        assert!(saw_error, "20 flaky passes should hit at least one fault");
    }

    #[test]
    fn open_breaker_mid_probe_is_a_typed_error() {
        // A source that dies hard mid-pass: the breaker opens and the
        // sampler reports Unavailable instead of a clipped sample.
        let dead = FaultInjectingWebDb::new(
            make_db(),
            FaultProfile {
                transient_probability: 1.0,
                ..FaultProfile::none()
            },
            3,
        );
        let resilient = ResilientWebDb::new(
            dead,
            RetryPolicy {
                max_retries: 2,
                breaker_threshold: 2,
                ..RetryPolicy::default()
            },
        );
        let err = probe_by_spanning_queries(&resilient, AttrId(0), &makes(), 100, 1).unwrap_err();
        match err {
            ProbeError::Source { error, .. } => {
                assert!(
                    !error.is_retryable() || error == QueryError::Transient,
                    "breaker-open pass must surface the terminal failure: {error:?}"
                );
            }
            other @ ProbeError::Catalog(_) => panic!("unexpected error kind: {other:?}"),
        }
        assert!(resilient.report().breaker_trips.0 >= 1);
    }

    #[test]
    fn truncated_pages_are_tolerated_and_metered() {
        let db = make_db().with_result_limit(2);
        let sample = probe_by_spanning_queries(&db, AttrId(0), &makes(), 100, 1).unwrap();
        // 3 probes × 2-tuple pages.
        assert_eq!(sample.len(), 6);
        let stats = db.stats();
        assert_eq!(stats.truncated_queries, 3);
    }
}

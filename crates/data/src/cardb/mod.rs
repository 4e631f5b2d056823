mod oracle;
mod specs;

pub use oracle::car_oracle_similarity;
pub use specs::Segment;

use aimq_catalog::{Schema, Tuple, Value};
use aimq_storage::Relation;
use rand::{RngExt, SeedableRng};

use specs::{ModelSpec, COLORS, LOCATIONS, MODEL_CATALOG};

/// Generator for the synthetic Yahoo-Autos stand-in.
///
/// The marginal and joint distributions are controlled by a latent model
/// (see the private `specs` catalog and the crate docs); everything is a pure function of
/// the seed, so every experiment in the harness is reproducible.
pub struct CarDb;

impl CarDb {
    /// The paper's relation: `CarDB(Make, Model, Year, Price, Mileage,
    /// Location, Color)`. As in the paper (Section 6.1), `Make`, `Model`,
    /// `Year`, `Location` and `Color` are categorical; `Price` and
    /// `Mileage` are numeric.
    pub fn schema() -> Schema {
        Schema::builder("CarDB")
            .categorical("Make")
            .categorical("Model")
            .categorical("Year")
            .numeric("Price")
            .numeric("Mileage")
            .categorical("Location")
            .categorical("Color")
            .build()
            .expect("static schema is valid")
    }

    /// Generate `n` tuples with the given seed.
    pub fn generate(n: usize, seed: u64) -> Relation {
        let schema = Self::schema();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let picker = WeightedPicker::new(MODEL_CATALOG.iter().map(|m| m.popularity));
        let location_picker = WeightedPicker::new(LOCATIONS.iter().map(|&(_, w)| w));

        let mut builder = Relation::builder(schema.clone());
        for _ in 0..n {
            let spec = &MODEL_CATALOG[picker.pick(&mut rng)];
            let tuple = Self::generate_tuple(&schema, spec, &location_picker, &mut rng);
            builder
                .push(&tuple)
                .expect("generated tuple matches schema");
        }
        builder.build()
    }

    fn generate_tuple(
        schema: &Schema,
        spec: &ModelSpec,
        location_picker: &WeightedPicker,
        rng: &mut rand::rngs::StdRng,
    ) -> Tuple {
        // Year skews recent: quadratic weight over 1984..=2005.
        let year_offset = {
            let u: f64 = rng.random();
            (u.sqrt() * 22.0).floor() as i32 // 0..=21, denser near 21
        };
        let year = 1984 + year_offset.min(21);
        let age = (2006 - year).max(1) as f64;

        // Mileage grows with age: ~12k miles/year with spread, floor 0.
        let miles_per_year = 9_000.0 + 6_000.0 * rng.random::<f64>();
        let mileage = (age * miles_per_year * (0.85 + 0.3 * rng.random::<f64>()))
            .max(500.0)
            .round()
            / 100.0;
        let mileage = mileage.round() * 100.0;

        // Price: segment base, exponential depreciation with age, mileage
        // penalty, multiplicative noise.
        let depreciation = 0.88f64.powf(age);
        let mileage_factor = (1.0 - mileage / 400_000.0).max(0.55);
        let noise = 0.9 + 0.2 * rng.random::<f64>();
        let price = (spec.base_price * depreciation * mileage_factor * noise)
            .max(400.0)
            .round()
            / 50.0;
        let price = price.round() * 50.0;

        let location = LOCATIONS[location_picker.pick(rng)].0;
        let color = pick_color(spec.segment, rng);

        Tuple::new(
            schema,
            vec![
                Value::cat(spec.make),
                Value::cat(spec.model),
                Value::cat(year.to_string()),
                Value::num(price),
                Value::num(mileage),
                Value::cat(location),
                Value::cat(color),
            ],
        )
        .expect("generator respects schema domains")
    }

    /// All makes in the catalog — the spanning-query values for the
    /// probing Data Collector (`Make` is the natural Web-form select box).
    pub fn spanning_makes() -> Vec<String> {
        let mut makes: Vec<String> = MODEL_CATALOG.iter().map(|m| m.make.to_owned()).collect();
        makes.sort();
        makes.dedup();
        makes
    }

    /// The latent segment of a model, if the model is in the catalog.
    /// Only the evaluation oracle uses this — AIMQ never sees it.
    pub fn segment_of(model: &str) -> Option<Segment> {
        MODEL_CATALOG
            .iter()
            .find(|m| m.model == model)
            .map(|m| m.segment)
    }

    /// The catalog's (make, model) pairs, for tests and workload builders.
    pub fn catalog() -> impl Iterator<Item = (&'static str, &'static str, Segment)> {
        MODEL_CATALOG.iter().map(|m| (m.make, m.model, m.segment))
    }
}

/// Segment-conditioned color choice: sports cars skew red/yellow, luxury
/// skews black/silver, everything else follows a common palette.
fn pick_color(segment: Segment, rng: &mut rand::rngs::StdRng) -> &'static str {
    let boost: &[(&str, f64)] = match segment {
        Segment::Sports => &[("Red", 3.0), ("Yellow", 2.0), ("Black", 1.5)],
        Segment::Luxury => &[("Black", 3.0), ("Silver", 2.5)],
        Segment::Truck => &[("White", 2.0), ("Black", 1.5)],
        Segment::Economy | Segment::Sedan | Segment::Suv | Segment::Van => &[],
    };
    let weights: Vec<f64> = COLORS
        .iter()
        .map(|&(color, w)| {
            let extra = boost
                .iter()
                .find(|&&(c, _)| c == color)
                .map_or(1.0, |&(_, b)| b);
            w * extra
        })
        .collect();
    let picker = WeightedPicker::new(weights);
    COLORS[picker.pick(rng)].0
}

/// Cumulative-weight sampler (binary search over prefix sums).
struct WeightedPicker {
    cumulative: Vec<f64>,
}

impl WeightedPicker {
    fn new(weights: impl IntoIterator<Item = f64>) -> Self {
        let mut cumulative = Vec::new();
        let mut acc = 0.0;
        for w in weights {
            debug_assert!(w >= 0.0);
            acc += w;
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "weights must not all be zero");
        WeightedPicker { cumulative }
    }

    fn pick(&self, rng: &mut impl RngExt) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let x: f64 = rng.random::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimq_catalog::AttrId;
    use std::collections::HashMap;

    #[test]
    fn schema_matches_paper() {
        let s = CarDb::schema();
        assert_eq!(s.arity(), 7);
        assert_eq!(s.attr_name(AttrId(0)), "Make");
        assert_eq!(s.attr_name(AttrId(3)), "Price");
        assert_eq!(s.categorical_attrs().len(), 5);
        assert_eq!(s.numeric_attrs().len(), 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = CarDb::generate(200, 11);
        let b = CarDb::generate(200, 11);
        let c = CarDb::generate(200, 12);
        assert_eq!(
            a.tuples().collect::<Vec<_>>(),
            b.tuples().collect::<Vec<_>>()
        );
        assert_ne!(
            a.tuples().collect::<Vec<_>>(),
            c.tuples().collect::<Vec<_>>()
        );
    }

    #[test]
    fn model_functionally_determines_make() {
        let r = CarDb::generate(3000, 5);
        let mut seen: HashMap<String, String> = HashMap::new();
        for t in r.tuples() {
            let make = t.value(AttrId(0)).as_cat().unwrap().to_owned();
            let model = t.value(AttrId(1)).as_cat().unwrap().to_owned();
            if let Some(prev) = seen.insert(model.clone(), make.clone()) {
                assert_eq!(prev, make, "model {model} maps to two makes");
            }
        }
    }

    #[test]
    fn prices_and_mileage_are_plausible() {
        let r = CarDb::generate(2000, 5);
        for t in r.tuples() {
            let price = t.value(AttrId(3)).as_num().unwrap();
            let mileage = t.value(AttrId(4)).as_num().unwrap();
            let year: i32 = t.value(AttrId(2)).as_cat().unwrap().parse().unwrap();
            assert!((400.0..=120_000.0).contains(&price), "price {price}");
            assert!((0.0..=500_000.0).contains(&mileage), "mileage {mileage}");
            assert!((1984..=2005).contains(&year), "year {year}");
        }
    }

    #[test]
    fn old_cars_are_cheaper_on_average_per_model() {
        let r = CarDb::generate(20_000, 5);
        // Average Camry price for 1986-1990 vs 2001-2005.
        let mut old = (0.0, 0);
        let mut new = (0.0, 0);
        for t in r.tuples() {
            if t.value(AttrId(1)).as_cat() != Some("Camry") {
                continue;
            }
            let year: i32 = t.value(AttrId(2)).as_cat().unwrap().parse().unwrap();
            let price = t.value(AttrId(3)).as_num().unwrap();
            if (1986..=1992).contains(&year) {
                old = (old.0 + price, old.1 + 1);
            } else if (2000..=2005).contains(&year) {
                new = (new.0 + price, new.1 + 1);
            }
        }
        assert!(old.1 > 0 && new.1 > 0, "need both eras in sample");
        assert!(old.0 / old.1 as f64 * 1.5 < new.0 / new.1 as f64);
    }

    #[test]
    fn paper_values_exist_in_catalog() {
        // Table 3 / Figure 5 reference these values; the generator must be
        // able to produce them.
        let catalog: Vec<(&str, &str)> = CarDb::catalog().map(|(mk, md, _)| (mk, md)).collect();
        for make in [
            "Ford",
            "Chevrolet",
            "Toyota",
            "Honda",
            "Dodge",
            "Nissan",
            "BMW",
            "Kia",
            "Hyundai",
            "Isuzu",
            "Subaru",
        ] {
            assert!(
                catalog.iter().any(|&(mk, _)| mk == make),
                "missing make {make}"
            );
        }
        for model in [
            "Bronco",
            "Aerostar",
            "F-350",
            "Econoline Van",
            "Camry",
            "Accord",
            "Focus",
            "ZX2",
            "F150",
        ] {
            assert!(
                catalog.iter().any(|&(_, md)| md == model),
                "missing model {model}"
            );
        }
    }

    #[test]
    fn spanning_makes_cover_generated_data() {
        let r = CarDb::generate(5000, 9);
        let makes = CarDb::spanning_makes();
        for t in r.tuples() {
            let mk = t.value(AttrId(0)).as_cat().unwrap();
            assert!(makes.iter().any(|m| m == mk));
        }
    }

    #[test]
    fn years_skew_recent() {
        let r = CarDb::generate(20_000, 3);
        let recent = r
            .tuples()
            .filter(|t| t.value(AttrId(2)).as_cat().unwrap().parse::<i32>().unwrap() >= 1999)
            .count();
        // Quadratic skew: more than a uniform share in the last 7 of 22 years.
        assert!(recent as f64 > 0.4 * 20_000.0, "recent={recent}");
    }

    #[test]
    fn weighted_picker_respects_weights() {
        let picker = WeightedPicker::new([1.0, 0.0, 9.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut counts = [0usize; 3];
        for _ in 0..5000 {
            counts[picker.pick(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 5);
    }

    #[test]
    fn segment_lookup() {
        assert_eq!(CarDb::segment_of("Camry"), Some(Segment::Sedan));
        assert_eq!(CarDb::segment_of("F150"), Some(Segment::Truck));
        assert_eq!(CarDb::segment_of("NotACar"), None);
    }
}

//! Run AIMQ on your own data: export a relation to CSV, reload it, and
//! train the full pipeline on the loaded copy. Swap the generated file
//! for any CSV matching your schema (header row of attribute names;
//! empty fields are NULL) to query a real dataset imprecisely.
//!
//! ```text
//! cargo run --release --example import_csv
//! ```

use aimq_suite::catalog::{ImpreciseQuery, Schema, Value};
use aimq_suite::data::CarDb;
use aimq_suite::engine::{AimqSystem, EngineConfig, TrainConfig};
use aimq_suite::storage::{read_csv, write_csv, InMemoryWebDb};
use std::io::BufReader;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Export: any relation serializes to plain CSV.
    let original = CarDb::generate(5_000, 3);
    let path = std::env::temp_dir().join("aimq_cars.csv");
    let mut file = std::fs::File::create(&path)?;
    write_csv(&original, &mut file)?;
    println!("wrote {} tuples to {}", original.len(), path.display());

    // 2. Import: declare the schema (attribute names + domains), load.
    let schema = Schema::builder("CarDB")
        .categorical("Make")
        .categorical("Model")
        .categorical("Year")
        .numeric("Price")
        .numeric("Mileage")
        .categorical("Location")
        .categorical("Color")
        .build()?;
    let loaded = read_csv(&schema, BufReader::new(std::fs::File::open(&path)?))?;
    println!("loaded {} tuples back", loaded.len());
    assert_eq!(original.len(), loaded.len());

    // 3. Train and query — the pipeline neither knows nor cares that the
    //    data came through a file.
    let db = InMemoryWebDb::new(loaded);
    let sample = db.relation().random_sample(2_000, 1);
    let system = AimqSystem::train(&sample, &TrainConfig::default())?;

    let query = ImpreciseQuery::builder(&schema)
        .like("Model", Value::cat("Civic"))
        .unwrap()
        .like("Price", Value::num(7_000.0))
        .unwrap()
        .build()?;
    let result = system.answer(
        &db,
        &query,
        &EngineConfig {
            t_sim: 0.5,
            top_k: 5,
            ..EngineConfig::default()
        },
    );
    println!("\n{} →", query.display_with(&schema));
    for a in &result.answers {
        println!(
            "  sim={:.3} {}",
            a.similarity,
            a.tuple.display_with(&schema)
        );
    }

    std::fs::remove_file(&path)?;
    Ok(())
}

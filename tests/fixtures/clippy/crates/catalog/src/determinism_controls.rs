//! Controls: the same hash-container and wall-clock code that
//! `clippy-fixture-afd` must flag. This crate's root does not deny
//! `clippy::disallowed_types`/`disallowed_methods`, so the workspace
//! `allow` holds and nothing here is flagged. An `#[expect]` here would
//! switch the allowed lint back on for its item and be fulfilled, so
//! these controls are checked by the run passing without one.

use std::collections::{HashMap, HashSet};
use std::thread;
use std::time::{Duration, Instant, SystemTime};

/// Hash containers outside the determinism scope.
pub fn index(names: &[String]) -> (HashMap<&str, usize>, HashSet<&str>) {
    let map = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let set = names.iter().map(String::as_str).collect();
    (map, set)
}

/// Wall-clock reads, readouts and sleeps outside the determinism scope.
pub fn timed(d: Duration) -> (Duration, SystemTime) {
    let t0 = Instant::now();
    thread::sleep(d);
    std::thread::sleep(d);
    let _ = std::time::Instant::now();
    (t0.elapsed(), SystemTime::now())
}

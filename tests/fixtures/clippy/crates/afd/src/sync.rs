//! Stands in for `aimq_storage`'s `sync` module: the one place that
//! names the raw atomic types, so its one module-level `#[expect]`
//! covers every site inside.
#![expect(
    clippy::disallowed_types,
    reason = "fixture: the module that wraps the raw atomics"
)]

use std::sync::atomic::{AtomicBool, Ordering};

/// A latch whose type fixes the orderings: `Release` set, `Acquire`
/// get. A `Relaxed` flag operation cannot be written through it.
#[derive(Debug, Default)]
pub struct Flag(AtomicBool);

impl Flag {
    /// Raise the flag.
    pub fn set(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether the flag has been raised.
    pub fn get(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

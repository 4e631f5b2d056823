//! Raw-atomic cases (`disallowed-types` in `clippy.toml`): outside the
//! `sync` module every shared counter or flag must go through a type
//! that fixes its orderings.

#[expect(clippy::disallowed_types, reason = "fixture: raw atomics in a use")]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A tally on a raw atomic, with no role to say which orderings fit.
#[expect(clippy::disallowed_types, reason = "fixture: AtomicU64 field")]
pub struct Meter {
    hits: AtomicU64,
}

impl Meter {
    /// Count one hit.
    pub fn bump(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
}

/// A flag stored `Relaxed`: the `Acquire` load has no `Release` store
/// to pair with, so the flag publishes nothing.
#[expect(clippy::disallowed_types, reason = "fixture: AtomicBool field")]
pub struct Shutdown {
    stop: AtomicBool,
}

impl Shutdown {
    /// Ask for a stop.
    pub fn request(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Whether a stop was asked for.
    pub fn observed(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// Fully qualified `AtomicUsize` and `AtomicU32` in statics.
#[expect(clippy::disallowed_types, reason = "fixture: AtomicUsize in a static")]
pub static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// See [`NEXT`].
#[expect(clippy::disallowed_types, reason = "fixture: AtomicU32 in a static")]
pub static STREAK: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

/// Control: the wrapper type is not banned, only what it wraps.
pub struct Latch {
    /// Raised once.
    pub done: crate::sync::Flag,
}

impl Latch {
    /// Raise and read back.
    pub fn close(&self) -> bool {
        self.done.set();
        self.done.get()
    }
}

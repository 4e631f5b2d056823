//! Stands in for `aimq-afd`: inside both the panic-freedom and the
//! determinism scope. Its root carries the same `deny`s as the real
//! determinism crates.

#![deny(unfulfilled_lint_expectations)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod atomics;
pub mod hashmap;
pub mod sync;
pub mod wallclock;

/// `.unwrap()` is flagged here too: the panic lints are denied in every
/// library crate, determinism-scoped or not.
pub fn head(xs: &[u32]) -> u32 {
    #[expect(clippy::unwrap_used, reason = "fixture: bare unwrap")]
    let v = *xs.first().unwrap();
    v
}

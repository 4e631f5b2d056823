//! Stands in for `aimq-catalog`: inside the panic-freedom scope, outside
//! the determinism scope. Its root denies the panic lints only, so the
//! hash-container and wall-clock code below is the control for the same
//! code in `clippy-fixture-afd`.

#![deny(unfulfilled_lint_expectations)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod determinism_controls;
pub mod panics;
pub mod results;

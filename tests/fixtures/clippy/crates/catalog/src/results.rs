//! Result-discipline cases: rustc's `unused_must_use` and clippy's
//! `let_underscore_must_use`, `unused_result_ok` and
//! `wildcard_enum_match_arm`, denied in `[workspace.lints]` in every
//! crate.

/// Stand-in fault enum.
#[derive(Debug, Clone, Copy)]
pub enum QueryError {
    /// The source is gone.
    Unavailable,
    /// Try again later.
    RateLimited,
}

/// A fallible probe.
pub fn risky(fail: bool) -> Result<u32, QueryError> {
    if fail {
        Err(QueryError::Unavailable)
    } else {
        Ok(1)
    }
}

/// The three ways to drop a fallible result on the floor.
pub fn discards() {
    #[expect(clippy::let_underscore_must_use, reason = "fixture: `let _ =`")]
    let _ = risky(true);
    #[expect(clippy::unused_result_ok, reason = "fixture: terminal `.ok();`")]
    risky(true).ok();
    #[expect(unused_must_use, reason = "fixture: bare call statement")]
    risky(true);
}

/// A wildcard arm: a fault variant added later falls into `_` instead
/// of forcing a decision here. With one variant left for the wildcard
/// today, the lint is `match_wildcard_for_single_variants`.
#[expect(
    clippy::match_wildcard_for_single_variants,
    reason = "fixture: `_ =>` arm over one variant"
)]
pub fn classify(error: QueryError) -> u32 {
    match error {
        QueryError::Unavailable => 1,
        _ => 0,
    }
}

/// The same over any enum, not only the fault enums, with two or more
/// variants behind the wildcard.
#[expect(clippy::wildcard_enum_match_arm, reason = "fixture: `_ =>` arm")]
pub fn sign(a: u32, b: u32) -> i8 {
    match a.cmp(&b) {
        std::cmp::Ordering::Less => -1,
        _ => 1,
    }
}

/// Controls: a propagated result, a handled result and named arms.
pub fn handled() -> Result<u32, QueryError> {
    let n = risky(false)?;
    match risky(true) {
        Ok(v) => Ok(v + n),
        Err(QueryError::Unavailable | QueryError::RateLimited) => Ok(n),
    }
}

/// Control: a wildcard over integers is not an enum match.
pub fn bucket(x: u32) -> u32 {
    match x {
        0 => 0,
        _ => 1,
    }
}

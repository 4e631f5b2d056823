//! Panic-freedom cases: each flagged site sits alone in the smallest
//! item or statement that can carry its `#[expect]`.

/// `.unwrap()` on an `Option`.
pub fn first(xs: &[f64]) -> f64 {
    #[expect(clippy::unwrap_used, reason = "fixture: bare unwrap")]
    let v = xs.first().unwrap();
    *v
}

/// `.expect(` on a `Result`.
pub fn parse(s: &str) -> u32 {
    #[expect(clippy::expect_used, reason = "fixture: bare expect")]
    let n = s.parse().expect("numeric input");
    n
}

// Rustc ignores lint attributes on macro statements, so each panicking
// macro is expected at its enclosing fn.

/// `panic!`.
#[expect(clippy::panic, reason = "fixture: panic macro")]
pub fn boom() {
    panic!("boom");
}

/// `unreachable!`.
#[expect(clippy::unreachable, reason = "fixture: unreachable macro")]
pub fn never(x: u8) -> u8 {
    match x {
        0 => 1,
        _ => unreachable!(),
    }
}

/// `todo!`.
#[expect(clippy::todo, reason = "fixture: todo macro")]
pub fn later() -> u8 {
    todo!()
}

/// `unimplemented!`.
#[expect(clippy::unimplemented, reason = "fixture: unimplemented macro")]
pub fn missing() -> u8 {
    unimplemented!()
}

/// Control: the non-panicking `unwrap_or` family is never flagged.
pub fn defaults(x: Option<u32>, f: fn() -> u32) -> u32 {
    x.unwrap_or(0) + x.unwrap_or_else(f) + x.unwrap_or_default()
}

/// A user type with methods named like the panicking ones.
pub struct Cell(pub u32);

impl Cell {
    /// Returns the payload; cannot panic.
    pub fn unwrap(self) -> u32 {
        self.0
    }

    /// Returns the payload; cannot panic.
    pub fn expect(self, _msg: &str) -> u32 {
        self.0
    }
}

/// Control, and an accepted divergence from the lexical rule it
/// replaced: `unwrap_used`/`expect_used` resolve the receiver and count
/// only `Option` and `Result`, so these calls are not flagged.
pub fn payload(a: Cell, b: Cell) -> u32 {
    a.unwrap() + b.expect("never panics")
}

#[cfg(test)]
mod tests {
    // Control: `allow-unwrap-in-tests`, `allow-expect-in-tests` and
    // `allow-panic-in-tests` in `clippy.toml` exempt test code.
    #[test]
    fn test_code_may_unwrap_expect_and_panic() {
        let x = "1".parse::<u32>();
        assert_eq!(x.clone().unwrap(), 1);
        assert_eq!(x.clone().expect("numeric"), 1);
        if x.is_err() {
            panic!("not numeric");
        }
    }
}

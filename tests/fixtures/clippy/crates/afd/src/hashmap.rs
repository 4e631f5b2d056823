//! Hash-container cases (`disallowed-types` in `clippy.toml`).

#[expect(clippy::disallowed_types, reason = "fixture: HashMap in a use")]
use std::collections::HashMap;

/// `HashMap` in a type.
#[expect(clippy::disallowed_types, reason = "fixture: HashMap in a type")]
pub type Counts = HashMap<u32, u32>;

/// Fully qualified `HashSet` in a type.
#[expect(clippy::disallowed_types, reason = "fixture: HashSet in a type")]
pub type Seen = std::collections::HashSet<u32>;

/// Control: the ordered containers are the sanctioned replacements.
pub fn histogram(codes: &[u32]) -> std::collections::BTreeMap<u32, u32> {
    let mut counts = std::collections::BTreeMap::new();
    for &c in codes {
        *counts.entry(c).or_insert(0) += 1;
    }
    counts
}

// Clippy has no in-tests switch for the disallowed lints, so a hash map
// in a test module needs its own `#[expect]`. This is the one place
// clippy is broader than the lexical rule it replaced, which skipped
// test regions.
#[cfg(test)]
#[expect(clippy::disallowed_types, reason = "fixture: HashMap in test code")]
mod tests {
    #[test]
    fn test_code_is_not_exempt() {
        let m: std::collections::HashMap<u32, u32> = [(1, 2)].into_iter().collect();
        assert_eq!(m.len(), 1);
    }
}

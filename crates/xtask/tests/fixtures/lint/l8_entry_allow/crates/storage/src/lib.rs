//! Passing twin of `l8_entry`: the direct caller carries a current
//! probe-entry annotation and no stale claims remain.

// aimq-probe: entry -- fixture: accounting lives in the caller's meter
pub fn fetch(db: &Db, q: &Query) -> u32 {
    db.try_query(q)
}

// aimq-probe: entry -- fixture: accounting lives in the caller's meter
pub fn fetch_plan(db: &Db, plan: &[Query]) -> u32 {
    db.try_query_plan(plan)
}

pub fn summarize(db: &Db) -> u32 {
    db.len()
}

//! L8 fixture: unannotated direct `try_query` and `try_query_plan`
//! callers, plus a stale probe-entry annotation pointing at a function
//! that no longer probes (the probe moved out from under the comment).

pub fn fetch(db: &Db, q: &Query) -> u32 {
    db.try_query(q)
}

pub fn fetch_plan(db: &Db, plan: &[Query]) -> u32 {
    db.try_query_plan(plan)
}

// aimq-probe: entry -- fixture: this claim is stale, `summarize` no longer probes
pub fn summarize(db: &Db) -> u32 {
    db.len()
}

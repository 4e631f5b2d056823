//! The repository benchmark: three workloads over the AIMQ stack, each
//! run once untraced for the end-to-end metrics and once traced for an
//! outside-in per-layer ledger.
//!
//! Every layer is measured from outside the workspace crates, by timing
//! calls into their public functions: [`layers::Timed`] wraps
//! `WebDatabase` stacks at decorator boundaries, and the workloads time
//! `AimqSystem::answer`, `QueryServer::submit` → `Ticket::wait`, and the
//! HTTP framing functions around them. Nothing here is compiled into the
//! root workspace, so the lint scan and the pinned probe-entry list never
//! see these wrappers.

pub mod churn;
pub mod client;
pub mod cold;
pub mod layers;
pub mod ledger;
pub mod report;
pub mod setup;
pub mod trace;
pub mod util;
pub mod warm_http;

/// Command-line options shared by every workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed for rows, the query log and the request stream.
    pub seed: u64,
    /// Wall time one run measures.
    pub seconds: f64,
    /// `true` for the traced run that yields per-layer metrics.
    pub trace: bool,
    /// Directory the run writes its report and spans into.
    pub out_dir: std::path::PathBuf,
}

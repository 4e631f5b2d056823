//! Runs the **posting-list executor** extension: CarDB relaxation plans
//! at the Figure 3/4 sample ladder, executed by the shared
//! `PlanExecutor` and the one-shot posting path, checked against a naive
//! full scan — reporting byte-identity and the posting work the plan
//! memo shared.
use aimq_eval::{experiments::postings, Scale};

fn main() {
    let scale = Scale::from_env();
    aimq_bench::preamble("Posting-list executor: shared-plan work vs one-shot", scale);
    let result = postings::run(scale, 42);
    println!("{}", result.render());
}

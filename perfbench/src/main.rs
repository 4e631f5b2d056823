//! `aimq-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
//! untraced, per-layer metrics traced). A report with the ledger, the
//! sample counts and the run metadata, plus the traced spans, go to
//! `--out-dir`. Exits 1 when any answer differs from the reference.

use std::path::PathBuf;
use std::process::ExitCode;

use aimq_catalog::Json;
use aimq_perfbench::report::{self, metrics_json, Outcome, END_TO_END, PER_LAYER};
use aimq_perfbench::{churn, cold, trace, util, warm_http, Options};

const WORKLOADS: &[&str] = &[
    "cold_inprocess_100k",
    "warm_http_keepalive_10k",
    "federated_churn_100k",
];

fn parse() -> Result<(String, Options), String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from("perfbench/out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => opts.trace = value != "0",
            "--out-dir" => opts.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(opts.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("aimq-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    util::now_ns();
    let mut outcome: Outcome = match workload.as_str() {
        "cold_inprocess_100k" => cold::run(&opts),
        "warm_http_keepalive_10k" => warm_http::run(&opts),
        _ => churn::run(&opts),
    };
    let rss = util::peak_rss_mb();
    let (registry, values) = if opts.trace {
        report::default_bypassed(&mut outcome.values);
        (PER_LAYER, &outcome.values)
    } else {
        outcome.values.insert("peak_rss_mb", rss);
        (END_TO_END, &outcome.values)
    };
    let metrics = match metrics_json(registry, values) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("aimq-perfbench: {e}");
            return ExitCode::from(3);
        }
    };
    if let Some(ledger) = outcome.ledger.as_ref().filter(|l| !l.within_limit()) {
        eprintln!(
            "aimq-perfbench: layer self times sum to {:.0} us against a traced median of {:.0} us ({:+.1}%)",
            ledger.sum_us, ledger.traced_p50_us, ledger.residual_pct
        );
    }
    let phase = &outcome.measured;
    let correct = phase.mismatches == 0;
    if let Err(e) = write_report(&workload, &opts, &outcome, &metrics, rss) {
        eprintln!("aimq-perfbench: cannot write the report: {e}");
        return ExitCode::from(3);
    }
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(phase.attempted as f64)),
        ("failed", Json::Num(phase.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.to_string_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "aimq-perfbench: {} answers differ from the reference",
            phase.mismatches
        );
        ExitCode::from(1)
    }
}

fn write_report(
    workload: &str,
    opts: &Options,
    outcome: &Outcome,
    metrics: &Json,
    rss: f64,
) -> std::io::Result<()> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let stem = format!("{workload}.seed{}.trace{}", opts.seed, u8::from(opts.trace));
    // Run metadata the wrapper script gathered (host, toolchain, commit).
    let meta = std::env::var("PERFBENCH_META")
        .ok()
        .and_then(|m| Json::parse(&m).ok())
        .unwrap_or(Json::Null);
    let mut pairs = vec![
        ("workload".to_string(), Json::Str(workload.into())),
        ("seed".to_string(), Json::Num(opts.seed as f64)),
        ("seconds".to_string(), Json::Num(opts.seconds)),
        ("trace".to_string(), Json::Bool(opts.trace)),
        ("nproc".to_string(), Json::Num(util::nproc() as f64)),
        ("meta".to_string(), meta),
        ("samples".to_string(), outcome.measured.samples_json()),
        ("peak_rss_mb".to_string(), Json::Num(rss)),
        ("metrics".to_string(), metrics.clone()),
    ];
    if let Some(ledger) = &outcome.ledger {
        pairs.push(("ledger".to_string(), ledger.to_json()));
    }
    pairs.extend(outcome.detail.iter().cloned());
    let path = opts.out_dir.join(format!("{stem}.report.json"));
    std::fs::write(&path, Json::Obj(pairs).to_string_compact() + "\n")?;
    if opts.trace {
        trace::write_spans(
            &opts.out_dir.join(format!("{stem}.spans.tsv")),
            &outcome.spans,
        )?;
    }
    Ok(())
}

//! `e2ebench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload from the root of a checkout: set-up with reference
//! reports, then either the timed phase (`--trace 0`, end-to-end
//! metrics) or the traced run (`--trace 1`, per-layer metrics). Prints a
//! stamp line, a human-readable metric table and, as the last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. A run
//! with any failed operation reports no metrics.

#![forbid(unsafe_code)]

use e2ebench::measure::Metric;
use e2ebench::workloads::{self, Ctx, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: e2ebench --workload cpa_live|cpa_replay|serve_small_mixed \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// The checkout's commit, read from `.git` without running git; a
/// checkout without `.git` reports `unknown`.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tune = psc_core::TuneConfig::default();
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "stamp {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"cpus\": {cpus}, \
         \"simd_backend\": {}, \"obs_chunk\": {}, \"bus_capacity\": {}, \"commit\": {}}}",
        json_string(args.workload.name()),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        json_string(pulp::backend_name()),
        tune.obs_chunk,
        tune.bus_capacity,
        json_string(&git_commit()),
    );
    let work_dir = format!("{}-{}", args.workload.name(), std::process::id());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        work_dir: PathBuf::from(".bench_work").join(work_dir),
    };
    let outcome = workloads::run(args.workload, &ctx, args.trace);
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    // Only succeeds once no other run is using the work-directory root.
    let _ = std::fs::remove_dir(".bench_work");
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let tally = &report.tally;
    for m in &report.metrics {
        println!("  {:<30} {:>18.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<30} {:>18.4} ({} of {} operations failed)",
        "error_rate",
        tally.error_rate(),
        tally.failed,
        tally.attempted
    );
    for note in &report.notes {
        println!("  note: {note}");
    }
    for failure in &tally.failures {
        println!("  failure: {failure}");
    }
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("e2ebench: metric {} is not a finite number", m.name);
        return ExitCode::FAILURE;
    }
    if tally.attempted == 0 {
        eprintln!("e2ebench: {}: no operation was attempted", args.workload.name());
        return ExitCode::FAILURE;
    }
    let correct = tally.failed == 0 && !report.metrics.is_empty();
    let metrics: &[Metric] = if correct { &report.metrics } else { &[] };
    println!("{}", result_line(correct, tally.attempted, tally.failed, metrics));
    ExitCode::SUCCESS
}

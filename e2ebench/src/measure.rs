//! Shared measurement plumbing: the op tally, named metrics, the
//! sequential timed phase and the end-to-end metric set.

use crate::stats::{median, percentile};
use crate::sys;
use crate::validate::Failure;
use std::time::Instant;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// One named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit token.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// Attempted and failed operations of a run, with the first few
/// failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (campaigns and served jobs).
    pub attempted: u64,
    /// Operations that failed validation or the protocol.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one operation; `Some` on success.
    pub fn record<T>(&mut self, result: Result<T, Failure>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(failure) => {
                self.failed += 1;
                if self.failures.len() < 8 {
                    self.failures.push(failure.to_string());
                }
                None
            }
        }
    }

    /// Fold another tally (a client thread's) into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }

    /// Failed over attempted operations.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        crate::ledger::hit_ratio(self.failed, self.attempted)
    }
}

/// One successful operation of a timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpSample {
    /// Wall seconds from start to validated result.
    pub latency_s: f64,
    /// Observations the operation delivered to analysis.
    pub observations: u64,
}

/// What a timed phase measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Every successful operation.
    pub ops: Vec<OpSample>,
    /// Wall time of the phase, seconds.
    pub elapsed_s: f64,
    /// Process CPU time (user + system, all threads) over the phase.
    pub cpu_s: f64,
}

/// Run `op` back to back until `seconds` have passed, timing each call.
/// `op` returns the observations it delivered.
pub fn timed_sequential(
    seconds: f64,
    tally: &mut Tally,
    mut op: impl FnMut() -> Result<u64, Failure>,
) -> Timed {
    let mut timed = Timed::default();
    let cpu0 = sys::cpu_time();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let (result, latency_s) = time(&mut op);
        if let Some(observations) = tally.record(result) {
            timed.ops.push(OpSample { latency_s, observations });
        }
    }
    timed.elapsed_s = start.elapsed().as_secs_f64();
    timed.cpu_s = (sys::cpu_time() - cpu0).as_secs_f64();
    timed
}

/// Time `f` once, returning its result and the wall seconds it took.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The end-to-end metrics of a timed phase, in `BENCHMARK.json` order,
/// plus the report-latency lines only the human report carries: each
/// percentile with its sample count, or why it was refused.
///
/// # Errors
///
/// When the phase completed no operation.
pub fn end_to_end(timed: &Timed, setup_s: &[f64]) -> Result<(Vec<Metric>, Vec<String>), String> {
    let observations: u64 = timed.ops.iter().map(|o| o.observations).sum();
    if observations == 0 {
        return Err("the timed phase completed no operation".into());
    }
    let traces_per_s = observations as f64 / timed.elapsed_s;
    let cpu_us_per_trace = timed.cpu_s * 1e6 / observations as f64;
    let campaigns_per_s = timed.ops.len() as f64 / timed.elapsed_s;
    let metrics = vec![
        Metric::new("traces_per_s", traces_per_s, "1/s"),
        Metric::new("cpu_us_per_trace", cpu_us_per_trace, "us"),
        Metric::new("setup_s", median(setup_s), "s"),
        Metric::new("peak_rss_mb", sys::peak_rss_mb(), "MiB"),
        Metric::new("campaigns_per_s", campaigns_per_s, "1/s"),
    ];
    let latencies: Vec<f64> = timed.ops.iter().map(|o| o.latency_s).collect();
    let notes: Vec<String> = [("report_latency_p50_ms", 0.5), ("report_latency_p90_ms", 0.9)]
        .into_iter()
        .map(|(name, q)| match percentile(&latencies, q) {
            Ok(p) => format!("{name} {:.4} ms over {} samples", p.value * 1e3, p.samples),
            Err(e) => format!("{name} not reported: {e}"),
        })
        .collect();
    Ok((metrics, notes))
}

//! # psc-bench — reproduction harness
//!
//! Two kinds of targets live in this crate:
//!
//! * **`repro_*` binaries** (`src/bin/`) — one per table/figure of the
//!   paper; each regenerates its artifact at the configured scale and
//!   prints the same rows/series the paper reports. Scale with
//!   `PSC_TRACES` / `PSC_TVLA_TRACES` / `PSC_SHARDS` / `PSC_SEED`.
//! * **benches** (`benches/`) — kernel throughput benches (AES,
//!   TVLA/CPA accumulation, SMC window simulation) plus scaled end-to-end
//!   experiment benches and the `ablation_*` studies. Every bench is a
//!   plain `fn main()` timing its kernels with [`measure::measure_ns`]
//!   (an estimation pass, then [`measure::SAMPLES`] timed samples,
//!   reporting the median), scaled by `PSC_BENCH_BUDGET_MS`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod measure;

use psc_core::experiments::ExperimentConfig;

/// The configuration repro binaries run with: environment-scaled defaults.
#[must_use]
pub fn repro_config() -> ExperimentConfig {
    ExperimentConfig::from_env()
}

/// A reduced configuration for the experiment benches (keeps
/// `cargo bench` minutes, not hours).
#[must_use]
pub fn bench_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick();
    cfg.tvla_traces_per_class = 300;
    cfg.cpa_traces_m2 = 6_000;
    cfg.cpa_traces_m1 = 2_000;
    cfg.cpa_traces_kernel = 6_000;
    cfg.timing_traces_per_class = 30;
    cfg
}

/// Standard banner printed by every repro binary.
#[must_use]
pub fn banner(artifact: &str) -> String {
    format!(
        "=== apple-power-sca reproduction: {artifact} ===\n\
         (simulated M1/M2 substrate; shapes — not absolute values — are the\n\
         reproduction target)\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_config_smaller_than_repro_defaults() {
        let bench = bench_config();
        let repro = ExperimentConfig::default();
        assert!(bench.cpa_traces_m2 <= repro.cpa_traces_m2);
        assert!(bench.tvla_traces_per_class <= repro.tvla_traces_per_class);
    }

    #[test]
    fn banner_mentions_artifact() {
        assert!(banner("Table 4").contains("Table 4"));
    }
}

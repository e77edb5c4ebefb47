//! Workload inputs, made from the benchmark seed alone: the same seed
//! gives the same campaign specs, secret keys and simulation seeds.

use psc_core::spec::{AnalysisMode, CampaignSpec};
use psc_core::{Device, ExperimentConfig};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Traces per `cpa_live` campaign: enough for the kernel-victim attack
/// to recover every PHPC key byte, and enough that per-campaign fixed
/// costs are amortised.
pub const LIVE_TRACES: usize = 600_000;

/// Shards per `cpa_live` campaign (one per core of the 2-CPU target).
pub const LIVE_SHARDS: usize = 2;

/// Per-class budget of a small served TVLA job (6 observations each),
/// the TVLA job of the repository's CI serve smoke test.
pub const JOB_TVLA_TRACES: usize = 96;

/// Trace budget of a small served CPA job, the CPA job of the
/// repository's CI serve smoke test.
pub const JOB_CPA_TRACES: usize = 300;

/// Distinct small jobs the served workload cycles through; each has its
/// own seed and key.
pub const JOB_POOL: usize = 128;

/// The channel whose full key recovery `cpa_live` must show.
pub const KEY_CHANNEL: &str = "PHPC";

fn rng(seed: u64, stream: u64) -> ChaCha12Rng {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    rng.set_word_offset(stream.wrapping_mul(1 << 20));
    rng
}

fn spec(mode: AnalysisMode, device: Device, rng: &mut ChaCha12Rng) -> CampaignSpec {
    let mut spec = CampaignSpec::new(mode, device, &ExperimentConfig::default());
    spec.seed = rng.next_u64();
    rng.fill(&mut spec.key);
    spec
}

/// The paper's headline attack: streaming CPA on the M2 kernel-module
/// victim, reading the four CPA keys over [`LIVE_SHARDS`] shards.
#[must_use]
pub fn live_spec(seed: u64) -> CampaignSpec {
    let mut spec = spec(AnalysisMode::Cpa, Device::MacbookAirM2, &mut rng(seed, 0));
    spec.kernel = true;
    spec.traces = LIVE_TRACES;
    spec.shards = LIVE_SHARDS;
    spec
}

/// Small served job `index`: single shard, alternating TVLA/CPA and
/// M1/M2 (the four combinations cycle every four jobs), with its own
/// seed and key.
#[must_use]
pub fn job_spec(seed: u64, index: usize) -> CampaignSpec {
    let mode = if index.is_multiple_of(2) { AnalysisMode::Tvla } else { AnalysisMode::Cpa };
    let device =
        if (index / 2).is_multiple_of(2) { Device::MacbookAirM2 } else { Device::MacMiniM1 };
    let mut spec = spec(mode, device, &mut rng(seed, 1 + index as u64));
    spec.traces = match mode {
        AnalysisMode::Cpa => JOB_CPA_TRACES,
        AnalysisMode::Tvla | AnalysisMode::Adaptive => JOB_TVLA_TRACES,
    };
    spec.shards = 1;
    spec
}

/// Observations a spec's campaign delivers to analysis: TVLA collects
/// two passes of three classes per budgeted trace.
#[must_use]
pub fn observations(spec: &CampaignSpec) -> u64 {
    let per_trace = match spec.mode {
        AnalysisMode::Cpa => 1,
        AnalysisMode::Tvla | AnalysisMode::Adaptive => 6,
    };
    (spec.traces * per_trace) as u64
}

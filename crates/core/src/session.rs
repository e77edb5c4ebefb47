//! The unified campaign driver: one builder, every analysis × source.
//!
//! The paper's evaluation is a matrix of campaigns — {TVLA,
//! known-plaintext CPA, adaptive TVLA} × {devices, victims, mitigations,
//! shard counts} — and this module is its single entry point. A
//! [`Campaign`] describes *what* to run (keys, trace budget, shard count,
//! mitigation, early-stop policy, optional recording) over a pluggable
//! [`TraceSource`] (*where* observations come from: live rigs, a borrowed
//! rig, recorded shards, a device fleet); [`Campaign::session`] freezes
//! the description into a [`Session`] whose typed run methods execute it:
//!
//! ```
//! use psc_core::session::Campaign;
//! use psc_core::{Device, VictimKind};
//! use psc_smc::key::key;
//!
//! let report = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, [0x3C; 16], 7)
//!     .keys(&[key("PHPC")])
//!     .traces(16)
//!     .shards(2)
//!     .session()
//!     .tvla();
//! assert!(report.matrix(key("PHPC")).is_some());
//! ```
//!
//! Every shard runs as producer thread (the source) + consumer thread
//! (online processors over a bounded bus of columnar
//! [`EventBlock`]s with `Block` backpressure — one synchronization and
//! one dispatch per block of observations, not per event), and shard
//! accumulators are sum-merged — O(1) memory in trace count on the
//! streaming paths, with results bit-identical to the historical
//! per-event pipeline (see `tests/block_equivalence.rs` and
//! `tests/campaign_builder.rs`).

use crate::campaign::{TvlaCampaign, TvlaDatasets};
use crate::checkpoint::{
    self, CheckpointConfig, ShardResume, ShardSnapshot, KIND_ADAPTIVE, KIND_CPA, KIND_TVLA,
};
use crate::rig::{Device, Rig};
use crate::source::{
    Fleet, LiveRig, RigSource, Schedule, ShardLog, ShardPlan, ShardReplay, TraceSource,
};
use crate::tune::TuneConfig;
use crate::victim::VictimKind;
use psc_sca::checkpoint::{CheckpointError, PayloadReader, PayloadWriter};
use psc_sca::cpa::HypTable;
use psc_sca::model::PowerModel;
use psc_sca::trace::TraceSet;
use psc_sca::tvla::TvlaMatrix;
use psc_smc::{MitigationConfig, SmcKey};
use psc_telemetry::block::EventBlock;
use psc_telemetry::event::ChannelId;
use psc_telemetry::faults::{FaultPlan, FaultState, RetryPolicy};
use psc_telemetry::metrics::{
    names, Counter, Gauge, Histogram, MetricsHub, MetricsRegistry, MetricsReport, MetricsSnapshot,
};
use psc_telemetry::processor::{Processor, Pump};
use psc_telemetry::processors::{
    CadenceCheckpoint, DatasetCollector, RecorderState, ShardRecorder, StreamingCpa, StreamingTvla,
    ThrottleMonitor, TraceCollector,
};
use psc_telemetry::ring::{channel, ChannelStats, OverflowPolicy, Receiver, Sender};
use psc_telemetry::spans::SpanTracer;
use psc_telemetry::{panic_message, run_sharded_caught, split_counts};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default bounded capacity of each shard's bus, in [`EventBlock`]s
/// (override per campaign via [`Campaign::tune`]). With `Block` overflow
/// this is pure backpressure: a slow consumer throttles its producer
/// instead of growing a queue. At the sources'
/// [`crate::source::OBS_CHUNK`] block size this buffers the same ~4096
/// in-flight observations the historical per-event bus did — but with
/// one ring synchronization per block instead of per event.
pub const BUS_CAPACITY: usize = 128;

/// Capacity of the per-shard recycle lane returning processed blocks to
/// the producer (overflow just deallocates — `DropNewest`).
const RECYCLE_CAPACITY: usize = 4;

/// Minimum samples per fixed class (per shard) before the adaptive
/// early-stop check may fire — guards against a spurious low-count
/// threshold crossing ending a campaign after a handful of traces.
pub const ADAPTIVE_MIN_TRACES: u64 = 24;

/// Traces buffered per recorder shard file when
/// [`Campaign::record_to`] is active.
pub const RECORD_SHARD_CAPACITY: usize = 4096;

/// Default cadence-monitor poll interval (simulated seconds); override
/// with [`Campaign::monitor`].
pub const MONITOR_INTERVAL_S: f64 = 64.0;
/// Cadence-monitor retention (checkpoints).
const MONITOR_DEPTH: usize = 64;

/// Adaptive early-stop policy: watch one channel's fixed-class separation
/// and halt the fleet at the TVLA threshold crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EarlyStop {
    /// The SMC key whose online tracker arms the stop flag.
    pub watch: SmcKey,
    /// Minimum samples per fixed class before the check may fire.
    pub min_per_side: u64,
}

/// The declarative description of one campaign (what [`Campaign`]
/// accumulates and [`Session`] executes).
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// SMC keys to read per observation, in request order.
    pub keys: Vec<SmcKey>,
    /// Trace budget: per class per shard-sum for TVLA analyses, total
    /// known-plaintext traces for CPA/collection.
    pub traces: usize,
    /// Requested worker count (sources with inherent structure override
    /// it — a fleet runs one shard per member, a replay one per recorded
    /// shard group).
    pub shards: usize,
    /// Countermeasure to install on every shard's SMC stack. `None`
    /// leaves each source's existing state alone (live sources default to
    /// no mitigation; a borrowed rig keeps whatever the caller
    /// installed). [`ShardReplay`] cannot honor it — replay reproduces
    /// the recorded condition.
    pub mitigation: Option<MitigationConfig>,
    /// Early-stop policy for [`Session::adaptive_tvla`].
    pub early_stop: Option<EarlyStop>,
    /// When set, every streaming analysis also records each channel's
    /// traces (with TVLA labels) as `.psct` shards under this directory,
    /// ready for [`ShardReplay`].
    pub record_dir: Option<PathBuf>,
    /// Traces per recorder shard file.
    pub record_shard_capacity: usize,
    /// Collect pipeline metrics (one [`MetricsRegistry`] per shard,
    /// merged into the report's [`MetricsReport`]). Off by default: the
    /// uninstrumented path allocates no registry and reads no clock.
    pub metrics: bool,
    /// Cadence-monitor poll interval, simulated seconds.
    pub monitor_interval_s: f64,
    /// When set, a progress line (obs/sec, drop rate, ETA) is printed to
    /// stderr roughly every this many wall-clock seconds.
    pub progress_interval_s: Option<f64>,
    /// When set, campaign→shard→stage spans are recorded into this
    /// tracer (see [`SpanTracer::to_chrome_json`]).
    pub tracer: Option<Arc<SpanTracer>>,
    /// Periodic checkpointing: where and how often (see
    /// [`Campaign::checkpoint_to`]).
    pub checkpoint: Option<CheckpointConfig>,
    /// Resume from the per-shard frames under this directory (see
    /// [`Campaign::resume_from`]).
    pub resume_dir: Option<PathBuf>,
    /// Deterministic interrupt: cooperatively stop the campaign after
    /// any shard has written this many checkpoints (see
    /// [`Campaign::halt_after`]).
    pub halt_after: Option<u64>,
    /// Deterministic fault injection (see [`Campaign::faults`]); `None`
    /// costs nothing on the hot paths.
    pub faults: Option<FaultPlan>,
    /// Retry policy for transient source-fill and recorder-write
    /// failures.
    pub retry: RetryPolicy,
    /// Tuned pipeline constants (block sizes, bus depth, CPA unroll);
    /// defaults to the shipped baseline. See [`crate::tune`].
    pub tune: TuneConfig,
    /// External cooperative stop flag: producers halt at the next block
    /// boundary once it reads `true`, the pipeline drains, and the run
    /// returns a partial (checkpointable) report. `None` allocates a
    /// private flag per run — the historical behavior.
    pub stop: Option<Arc<AtomicBool>>,
    /// When set, every per-shard [`MetricsRegistry`] this run allocates
    /// is also attached to the hub for its duration, so an external
    /// observer (the `psc serve` admission controller) can live-merge
    /// this campaign's snapshot with its neighbors'. Implies metric
    /// collection.
    pub metrics_hub: Option<Arc<MetricsHub>>,
}

impl Default for SessionSpec {
    fn default() -> Self {
        Self {
            keys: Vec::new(),
            traces: 0,
            shards: 1,
            mitigation: None,
            early_stop: None,
            record_dir: None,
            record_shard_capacity: RECORD_SHARD_CAPACITY,
            metrics: false,
            monitor_interval_s: MONITOR_INTERVAL_S,
            progress_interval_s: None,
            tracer: None,
            checkpoint: None,
            resume_dir: None,
            halt_after: None,
            faults: None,
            retry: RetryPolicy::default(),
            tune: TuneConfig::default(),
            stop: None,
            metrics_hub: None,
        }
    }
}

/// Builder for a campaign over a pluggable [`TraceSource`].
///
/// Construct with one of [`Campaign::live`], [`Campaign::over_rig`],
/// [`Campaign::replay`], [`Campaign::fleet`] or [`Campaign::from_source`],
/// chain the spec methods, then [`Campaign::session`] to run.
pub struct Campaign<'s> {
    spec: SessionSpec,
    source: Box<dyn TraceSource + 's>,
}

impl Campaign<'static> {
    /// A campaign over fresh live rigs: shard `i` simulates `device` with
    /// a victim of `kind` holding `secret_key`, seeded `seed + i`.
    #[must_use]
    pub fn live(device: Device, kind: VictimKind, secret_key: [u8; 16], seed: u64) -> Self {
        Self::from_source(LiveRig::new(device, kind, secret_key, seed))
    }

    /// A campaign replaying recorded `.psct` shards (one worker per
    /// recorded shard group; trace budget and mitigation are ignored —
    /// replay reproduces what was recorded).
    #[must_use]
    pub fn replay(replay: ShardReplay) -> Self {
        Self::from_source(replay)
    }

    /// A campaign fanned across a heterogeneous device fleet (one shard
    /// per member; the trace budget splits across members and per-device
    /// reports are sum-merged).
    #[must_use]
    pub fn fleet(fleet: Fleet) -> Self {
        Self::from_source(fleet)
    }
}

impl<'s> Campaign<'s> {
    /// A campaign over any custom source.
    #[must_use]
    pub fn from_source(source: impl TraceSource + 's) -> Campaign<'s> {
        Campaign { spec: SessionSpec::default(), source: Box::new(source) }
    }

    /// A single-shard campaign over a borrowed caller-owned rig,
    /// continuing its RNG and mitigation state (the legacy
    /// `run_tvla_campaign(&mut rig, …)` shape).
    #[must_use]
    pub fn over_rig(rig: &'s mut Rig) -> Campaign<'s> {
        Campaign::from_source(RigSource::new(rig))
    }

    /// SMC keys to read per observation.
    #[must_use]
    pub fn keys(mut self, keys: &[SmcKey]) -> Self {
        self.spec.keys = keys.to_vec();
        self
    }

    /// Trace budget (per class for TVLA analyses, total for CPA).
    #[must_use]
    pub fn traces(mut self, traces: usize) -> Self {
        self.spec.traces = traces;
        self
    }

    /// Requested worker count (sources with inherent shard structure
    /// override it).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.spec.shards = shards;
        self
    }

    /// Install a countermeasure on every shard's SMC stack. Honored by
    /// every rig-backed source, including a borrowed
    /// [`Campaign::over_rig`] rig (which otherwise keeps the caller's
    /// state); [`ShardReplay`] cannot honor it — replay reproduces the
    /// recorded condition.
    #[must_use]
    pub fn mitigation(mut self, mitigation: MitigationConfig) -> Self {
        self.spec.mitigation = Some(mitigation);
        self
    }

    /// Arm adaptive early stopping on `watch` with the default
    /// [`ADAPTIVE_MIN_TRACES`] minimum.
    #[must_use]
    pub fn early_stop(self, watch: SmcKey) -> Self {
        self.early_stop_min(watch, ADAPTIVE_MIN_TRACES)
    }

    /// Arm adaptive early stopping on `watch`, requiring `min_per_side`
    /// samples per fixed class before the tracker may fire.
    #[must_use]
    pub fn early_stop_min(mut self, watch: SmcKey, min_per_side: u64) -> Self {
        self.spec.early_stop = Some(EarlyStop { watch, min_per_side });
        self
    }

    /// Record every channel's traces (with TVLA labels) as `.psct` shards
    /// under `dir` while the streaming analyses run.
    #[must_use]
    pub fn record_to(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spec.record_dir = Some(dir.into());
        self
    }

    /// Collect pipeline metrics: bus blocks/observations and drops,
    /// ring high-water marks, recycle hit/miss, source-fill and
    /// per-block dispatch latency histograms, denied reads, recorder
    /// I/O errors. One registry per shard, merged into the report's
    /// [`MetricsReport`] exactly like the analysis accumulators.
    #[must_use]
    pub fn metrics(mut self) -> Self {
        self.spec.metrics = true;
        self
    }

    /// Poll the cadence monitor every `interval_s` simulated seconds
    /// (default [`MONITOR_INTERVAL_S`]). The per-shard
    /// [`CadenceCheckpoint`]s land in the report's `shard_cadence`.
    ///
    /// # Panics
    ///
    /// Panics if `interval_s <= 0`.
    #[must_use]
    pub fn monitor(mut self, interval_s: f64) -> Self {
        assert!(interval_s > 0.0, "monitor interval must be positive");
        self.spec.monitor_interval_s = interval_s;
        self
    }

    /// Print a progress line (observations, obs/sec, drop rate, ETA) to
    /// stderr roughly every `interval_s` wall-clock seconds. Implies
    /// metric collection.
    ///
    /// # Panics
    ///
    /// Panics if `interval_s <= 0`.
    #[must_use]
    pub fn progress(mut self, interval_s: f64) -> Self {
        assert!(interval_s > 0.0, "progress interval must be positive");
        self.spec.progress_interval_s = Some(interval_s);
        self
    }

    /// Record campaign→shard→stage spans into `tracer`; serialize with
    /// [`SpanTracer::to_chrome_json`] after the run.
    #[must_use]
    pub fn tracer(mut self, tracer: Arc<SpanTracer>) -> Self {
        self.spec.tracer = Some(tracer);
        self
    }

    /// Periodically snapshot every shard's full analysis state into
    /// `dir`: one atomic `shard-{i:03}.ckpt` frame per shard, rewritten
    /// every `every_blocks` consumed blocks (analysis accumulators,
    /// cadence monitor, recorder progress, RNG stream position and
    /// consumed-prefix counters). An interrupted campaign then resumes
    /// **bit-identically** with [`Campaign::resume_from`].
    ///
    /// # Panics
    ///
    /// Panics if `every_blocks == 0`.
    #[must_use]
    pub fn checkpoint_to(mut self, dir: impl Into<PathBuf>, every_blocks: u64) -> Self {
        assert!(every_blocks > 0, "checkpoint cadence must be positive");
        self.spec.checkpoint = Some(CheckpointConfig { dir: dir.into(), every_blocks });
        self
    }

    /// Resume an interrupted campaign from the checkpoint frames under
    /// `dir`: consumers restore their accumulators and sources
    /// fast-forward past the consumed prefix (re-simulating it without
    /// emission), so the completed run's report is bit-identical to an
    /// uninterrupted one. Shards without a frame start fresh. Combine
    /// with [`Campaign::checkpoint_to`] to keep checkpointing across
    /// resumes. The streaming analyses honour this; the retaining batch
    /// collectors ([`Session::collect`], [`Session::tvla_datasets`]) do
    /// not checkpoint.
    #[must_use]
    pub fn resume_from(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spec.resume_dir = Some(dir.into());
        self
    }

    /// Deterministic interrupt: cooperatively stop the campaign after
    /// any shard has written `n` checkpoints — the "interrupt" half of
    /// the interrupt/resume cycle (used by the CI resume smoke test).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn halt_after(mut self, n: u64) -> Self {
        assert!(n > 0, "halt_after needs at least one checkpoint");
        self.spec.halt_after = Some(n);
        self
    }

    /// Arm deterministic fault injection: transient source errors,
    /// recorder write failures, an injected consumer panic. Costs
    /// nothing when unset; see [`FaultPlan`].
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.spec.faults = Some(plan);
        self
    }

    /// Retry policy for transient source-fill and recorder-write
    /// failures (default: 3 attempts, exponential backoff with
    /// deterministic jitter).
    #[must_use]
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.spec.retry = policy;
        self
    }

    /// Install tuned pipeline constants (from [`crate::tune::calibrate`]
    /// or a cached [`TuneConfig`] file). Only throughput changes: every
    /// analysis result is bit-identical under any valid config, but a
    /// checkpointed campaign must resume with the `obs_chunk` it was
    /// recorded with (the campaign fingerprint enforces this).
    ///
    /// # Panics
    ///
    /// Panics when the config fails [`TuneConfig::validate`].
    #[must_use]
    pub fn tune(mut self, tune: TuneConfig) -> Self {
        tune.validate().unwrap_or_else(|e| panic!("invalid tune config: {e}"));
        self.spec.tune = tune;
        self
    }

    /// Share a cooperative stop flag with the run: setting it `true`
    /// halts producers at the next block boundary, the pipeline drains,
    /// and the run returns a partial report (checkpointed state, if
    /// [`Campaign::checkpoint_to`] is armed, stays resumable — the
    /// graceful-drain half of `psc serve`'s shutdown).
    #[must_use]
    pub fn stop_flag(mut self, stop: Arc<AtomicBool>) -> Self {
        self.spec.stop = Some(stop);
        self
    }

    /// Attach this run's per-shard metric registries to `hub` for the
    /// campaign's duration, letting an external observer live-merge its
    /// snapshot with other concurrent campaigns (the `psc serve`
    /// admission signal). Implies metric collection.
    #[must_use]
    pub fn metrics_hub(mut self, hub: Arc<MetricsHub>) -> Self {
        self.spec.metrics_hub = Some(hub);
        self
    }

    /// Freeze the description into a runnable [`Session`].
    #[must_use]
    pub fn session(self) -> Session<'s> {
        let shards = self.source.shard_count(self.spec.shards);
        Session { spec: self.spec, source: self.source, shards }
    }
}

/// A frozen, runnable campaign. Each `run` method consumes the session
/// and executes the full producer/consumer fan-out for one analysis.
pub struct Session<'s> {
    spec: SessionSpec,
    source: Box<dyn TraceSource + 's>,
    shards: usize,
}

/// Health of one campaign shard after the run — the graceful-degradation
/// contract: a fault on one shard never discards the statistics the
/// surviving shards already paid for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardHealth {
    /// Produced and consumed its full schedule.
    Ok,
    /// Completed with losses (retries exhausted, replay read failures,
    /// a producer death, a failed checkpoint write); the statistics it
    /// did accumulate are kept and merged.
    Degraded {
        /// What went wrong, one note per event.
        reason: String,
    },
    /// The consumer died (panic) — its accumulator state is lost and
    /// nothing from this shard is merged.
    Failed {
        /// The panic message, plus any degradation notes.
        reason: String,
    },
}

impl ShardHealth {
    /// Whether the shard completed cleanly.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, ShardHealth::Ok)
    }
}

/// Merged result of a sharded streaming TVLA campaign.
#[derive(Debug)]
pub struct StreamingTvlaReport {
    /// Merged online accumulators (one [`psc_sca::tvla::TvlaAccumulator`]
    /// per channel).
    pub tvla: StreamingTvla,
    /// Merged cadence totals (per-shard checkpoints are not merged —
    /// shard timelines are independent).
    pub monitor: ThrottleMonitor,
    /// Bus counters summed over shards (`high_water` is the max), counted
    /// in [`EventBlock`]s.
    pub bus: ChannelStats,
    /// The requested SMC keys, in request order.
    pub keys: Vec<SmcKey>,
    /// Worker count the campaign ran with.
    pub shards: usize,
    /// Recorder write failures summed over shards (0 when not
    /// recording). Nonzero also warns on stderr at merge time.
    pub io_errors: u64,
    /// The most recent recorder write failure, if any.
    pub recorder_error: Option<String>,
    /// Each shard's retained [`CadenceCheckpoint`]s, in shard order
    /// (empty per shard unless observations flowed; see
    /// [`Campaign::monitor`] for the poll interval).
    pub shard_cadence: Vec<Vec<CadenceCheckpoint>>,
    /// Merged pipeline metrics (`None` unless [`Campaign::metrics`] or
    /// [`Campaign::progress`] was set).
    pub metrics: Option<MetricsReport>,
    /// Per-shard health, in shard order. [`ShardHealth::Failed`] shards
    /// contributed nothing to the merged accumulators.
    pub health: Vec<ShardHealth>,
    /// Human-readable degradation warnings (shard health, bus drops,
    /// recorder failures) — each also printed to stderr at merge time.
    pub warnings: Vec<String>,
    /// Transient recorder write failures that succeeded on retry,
    /// summed over shards (recovered, not lost — contrast `io_errors`).
    pub io_retries: u64,
}

impl StreamingTvlaReport {
    /// The report of a merged TVLA campaign over `keys`. Every shard
    /// failing leaves empty accumulators.
    #[must_use]
    pub fn from_merged(
        merged: Merged<StreamingTvla>,
        keys: Vec<SmcKey>,
        metrics: Option<MetricsReport>,
    ) -> Self {
        Self {
            tvla: merged.analysis.unwrap_or_default(),
            monitor: merged.monitor,
            bus: merged.bus,
            keys,
            shards: merged.health.len(),
            io_errors: merged.recorder.io_errors,
            recorder_error: merged.recorder.last_error,
            shard_cadence: merged.shard_cadence,
            metrics,
            health: merged.health,
            warnings: merged.warnings,
            io_retries: merged.recorder.io_retries,
        }
    }

    /// The 3×3 matrix for one requested SMC key (`None` if every read on
    /// it was denied).
    #[must_use]
    pub fn matrix(&self, key: SmcKey) -> Option<TvlaMatrix> {
        self.tvla.matrix(ChannelId::Smc(key), key.to_string())
    }

    /// The 3×3 matrix for the IOReport `PCPU` channel.
    #[must_use]
    pub fn pcpu_matrix(&self) -> Option<TvlaMatrix> {
        self.tvla.matrix(ChannelId::Pcpu, "PCPU")
    }
}

/// Result of an adaptive (early-stopping) streaming TVLA campaign.
#[derive(Debug)]
pub struct AdaptiveTvlaReport {
    /// The merged campaign report (same layout as [`Session::tvla`]'s).
    pub report: StreamingTvlaReport,
    /// Whether a shard crossed the TVLA threshold and stopped the fleet
    /// before the trace budget ran out.
    pub stopped_early: bool,
    /// Trace rounds actually collected, summed over shards. One round is
    /// one trace per plaintext class per pass, so this is the effective
    /// `traces_per_class` of the merged report.
    pub rounds_collected: usize,
}

/// Merged result of a sharded streaming known-plaintext CPA campaign.
#[derive(Debug)]
pub struct StreamingCpaReport {
    /// Merged incremental CPA accumulators, one per requested SMC key.
    pub cpa: StreamingCpa,
    /// Merged cadence totals.
    pub monitor: ThrottleMonitor,
    /// Bus counters summed over shards (`high_water` is the max), counted
    /// in [`EventBlock`]s.
    pub bus: ChannelStats,
    /// The requested SMC keys, in request order.
    pub keys: Vec<SmcKey>,
    /// Worker count the campaign ran with.
    pub shards: usize,
    /// Recorder write failures summed over shards (0 when not
    /// recording). Nonzero also warns on stderr at merge time.
    pub io_errors: u64,
    /// The most recent recorder write failure, if any.
    pub recorder_error: Option<String>,
    /// Each shard's retained [`CadenceCheckpoint`]s, in shard order.
    pub shard_cadence: Vec<Vec<CadenceCheckpoint>>,
    /// Merged pipeline metrics (`None` unless [`Campaign::metrics`] or
    /// [`Campaign::progress`] was set).
    pub metrics: Option<MetricsReport>,
    /// Per-shard health, in shard order. [`ShardHealth::Failed`] shards
    /// contributed nothing to the merged accumulators.
    pub health: Vec<ShardHealth>,
    /// Human-readable degradation warnings (shard health, bus drops,
    /// recorder failures) — each also printed to stderr at merge time.
    pub warnings: Vec<String>,
    /// Transient recorder write failures that succeeded on retry,
    /// summed over shards (recovered, not lost — contrast `io_errors`).
    pub io_retries: u64,
}

impl StreamingCpaReport {
    /// The report of a merged CPA campaign over `keys`.
    ///
    /// # Panics
    ///
    /// Panics when every shard failed — there is no accumulator to rank.
    #[must_use]
    pub fn from_merged(
        merged: Merged<StreamingCpa>,
        keys: Vec<SmcKey>,
        metrics: Option<MetricsReport>,
    ) -> Self {
        let warnings = merged.warnings;
        Self {
            cpa: merged
                .analysis
                .unwrap_or_else(|| panic!("every shard failed — nothing to merge: {warnings:?}")),
            monitor: merged.monitor,
            bus: merged.bus,
            keys,
            shards: merged.health.len(),
            io_errors: merged.recorder.io_errors,
            recorder_error: merged.recorder.last_error,
            shard_cadence: merged.shard_cadence,
            metrics,
            health: merged.health,
            warnings,
            io_retries: merged.recorder.io_retries,
        }
    }

    /// Key-byte ranks for `key`'s channel against `true_round_key`.
    #[must_use]
    pub fn ranks(&self, key: SmcKey, true_round_key: &[u8; 16]) -> Option<[usize; 16]> {
        self.cpa.cpa(ChannelId::Smc(key)).map(|c| c.ranks(true_round_key))
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Degradation must never be silent: every warning collected on a report
/// is also echoed to stderr at merge time.
fn emit_warnings(warnings: &[String]) {
    for w in warnings {
        eprintln!("[psc] warning: {w}");
    }
}

/// Fold one shard's end-of-run condition into the campaign warnings:
/// non-`Ok` health and event blocks shed on the bus (data loss). Blocks
/// shed on the recycle lane are allocation churn, not loss — they only
/// count in the `recycle.dropped` metric.
fn shard_warnings(
    warnings: &mut Vec<String>,
    shard: usize,
    health: &ShardHealth,
    bus: &ChannelStats,
) {
    match health {
        ShardHealth::Ok => {}
        ShardHealth::Degraded { reason } => {
            warnings.push(format!("shard {shard} degraded: {reason}"));
        }
        ShardHealth::Failed { reason } => {
            warnings
                .push(format!("shard {shard} failed and was excluded from the merge: {reason}"));
        }
    }
    if bus.dropped > 0 {
        warnings.push(format!("shard {shard}: {} event block(s) dropped on the bus", bus.dropped));
    }
}

/// A full disk must not masquerade as a successful campaign: recorder
/// write failures that exhausted their retries join the warnings.
fn recorder_warning(warnings: &mut Vec<String>, tally: &RecorderTally) {
    if tally.io_errors > 0 {
        warnings.push(format!(
            "{} recorder I/O error(s) — recorded output is incomplete{}",
            tally.io_errors,
            tally.last_error.as_deref().map(|e| format!(" (last: {e})")).unwrap_or_default()
        ));
    }
}

/// Pre-resolved metric handles for one shard's hot paths: producers and
/// consumers touch these atomics directly, never the registry lock.
/// Every instrumentation point in the driver is gated on
/// `Option<&ShardInstruments>` — with observability off no clock is read
/// and no atomic is touched, so the uninstrumented pipeline is
/// bit-identical to the pre-observability one.
pub(crate) struct ShardInstruments {
    fill_ns: Arc<Histogram>,
    consume_ns: Arc<Histogram>,
    blocks: Arc<Counter>,
    obs: Arc<Counter>,
    recycle_hits: Arc<Counter>,
    recycle_misses: Arc<Counter>,
    denied_reads: Arc<Counter>,
    recorder_io_errors: Arc<Counter>,
    recorder_traces: Arc<Counter>,
    bus_dropped: Arc<Counter>,
    bus_high_water: Arc<Gauge>,
    recycle_dropped: Arc<Counter>,
    units: Arc<Counter>,
}

impl ShardInstruments {
    fn new(registry: &MetricsRegistry) -> Self {
        Self {
            fill_ns: registry.histogram(names::SOURCE_FILL_NS),
            consume_ns: registry.histogram(names::CONSUME_BLOCK_NS),
            blocks: registry.counter(names::BUS_BLOCKS),
            obs: registry.counter(names::BUS_OBS),
            recycle_hits: registry.counter(names::RECYCLE_HITS),
            recycle_misses: registry.counter(names::RECYCLE_MISSES),
            denied_reads: registry.counter(names::DENIED_READS),
            recorder_io_errors: registry.counter(names::RECORDER_IO_ERRORS),
            recorder_traces: registry.counter(names::RECORDER_TRACES),
            bus_dropped: registry.counter(names::BUS_DROPPED),
            bus_high_water: registry.gauge(names::BUS_HIGH_WATER),
            recycle_dropped: registry.counter(names::RECYCLE_DROPPED),
            units: registry.counter(names::SOURCE_UNITS),
        }
    }

    /// Fold the shard's end-of-run channel stats into the registry
    /// (drops and high-water live in the ring until the bus is drained).
    fn finish(&self, bus: ChannelStats, recycle: ChannelStats, produced: usize) {
        self.bus_dropped.add(bus.dropped);
        self.bus_high_water.set_max(bus.high_water);
        self.recycle_dropped.add(recycle.dropped);
        self.units.add(produced as u64);
    }
}

/// Per-campaign observability state: one registry per shard (merged at
/// the end, and live-merged by the progress thread), plus the campaign
/// start instant for wall-clock rates.
struct Observability {
    registries: Vec<Arc<MetricsRegistry>>,
    started: Instant,
    tune: TuneConfig,
    /// Keeps the registries attached to the spec's [`MetricsHub`] for
    /// exactly the campaign's lifetime (detaches on drop).
    _hub: Option<psc_telemetry::metrics::HubAttachment>,
}

impl Observability {
    fn merged_snapshot(registries: &[Arc<MetricsRegistry>]) -> MetricsSnapshot {
        registries.iter().map(|r| r.snapshot()).fold(MetricsSnapshot::default(), |a, b| a.merged(b))
    }

    fn report(&self, shards: usize) -> MetricsReport {
        MetricsReport {
            wall_s: self.started.elapsed().as_secs_f64(),
            shards,
            simd_backend: pulp::backend_name(),
            obs_chunk: self.tune.obs_chunk,
            bus_capacity: self.tune.bus_capacity,
            snapshot: Self::merged_snapshot(&self.registries),
        }
    }
}

/// What the shard recorders left behind (recorders live and die inside
/// the consume closure; their failure accounting must escape it).
#[derive(Debug, Clone, Default)]
pub struct RecorderTally {
    /// Write failures that exhausted their retries (lost batches).
    pub io_errors: u64,
    /// Transient write failures that succeeded on retry.
    pub io_retries: u64,
    /// Traces recorded.
    pub traces: u64,
    /// The most recent write failure, if any.
    pub last_error: Option<String>,
}

impl RecorderTally {
    fn of(recorders: &[ShardRecorder]) -> Self {
        let mut tally = Self::default();
        for r in recorders {
            tally.io_errors += r.io_errors();
            tally.io_retries += r.io_retries();
            tally.traces += r.traces_recorded();
            if let Some(e) = r.last_error() {
                tally.last_error = Some(e.to_owned());
            }
        }
        tally
    }

    fn absorb(&mut self, other: Self) {
        self.io_errors += other.io_errors;
        self.io_retries += other.io_retries;
        self.traces += other.traces;
        if let Some(e) = other.last_error {
            self.last_error = Some(e);
        }
    }
}

/// One shard's outcome as it leaves the fan-out. `out` is `None` exactly
/// when the shard's consumer (or whole worker) panicked — its accumulator
/// state is unrecoverable, but the bus accounting and health survive.
struct ShardRun<T> {
    out: Option<T>,
    stats: ChannelStats,
    produced: usize,
    health: ShardHealth,
}

/// An analysis accumulator that a shard can checkpoint and [`merge`] can
/// fold: the streaming TVLA and CPA processors.
pub trait ShardAnalysis: Processor + Send + Sized {
    /// Sum-merge another shard's accumulator into this one.
    #[must_use]
    fn merge(self, other: Self) -> Self;

    /// Serialize the accumulator state into a checkpoint payload.
    fn encode_state(&self, w: &mut PayloadWriter);

    /// Restore state written by [`ShardAnalysis::encode_state`] into an
    /// accumulator built from the same campaign configuration.
    ///
    /// # Errors
    ///
    /// Truncated or mismatched state comes back as [`CheckpointError`].
    fn restore_state(&mut self, r: &mut PayloadReader<'_>) -> Result<(), CheckpointError>;

    /// The encoded state as one standalone payload.
    fn state_payload(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        self.encode_state(&mut w);
        w.into_payload()
    }

    /// Restore from one standalone payload, which must be consumed
    /// exactly.
    ///
    /// # Errors
    ///
    /// As [`ShardAnalysis::restore_state`], plus trailing bytes.
    fn restore_payload(&mut self, payload: &[u8]) -> Result<(), CheckpointError> {
        let mut r = PayloadReader::new(payload);
        self.restore_state(&mut r)?;
        r.finish()
    }
}

impl ShardAnalysis for StreamingTvla {
    fn merge(self, other: Self) -> Self {
        self.merged(other)
    }

    fn encode_state(&self, w: &mut PayloadWriter) {
        StreamingTvla::encode_state(self, w);
    }

    fn restore_state(&mut self, r: &mut PayloadReader<'_>) -> Result<(), CheckpointError> {
        StreamingTvla::restore_state(self, r)
    }
}

impl ShardAnalysis for StreamingCpa {
    fn merge(self, other: Self) -> Self {
        self.merged(other).expect("shards share one model factory")
    }

    fn encode_state(&self, w: &mut PayloadWriter) {
        StreamingCpa::encode_state(self, w);
    }

    fn restore_state(&mut self, r: &mut PayloadReader<'_>) -> Result<(), CheckpointError> {
        StreamingCpa::restore_state(self, r)
    }
}

/// One shard's final outcome, whether it ran on a local thread or in a
/// fleet worker process: what [`merge`] folds.
#[derive(Debug)]
pub struct ShardFinal<A> {
    /// The shard's accumulator; `None` when its consumer panicked (the
    /// state is lost and nothing of it merges).
    pub analysis: Option<A>,
    /// The shard's cadence monitor.
    pub monitor: ThrottleMonitor,
    /// The shard's bus counters, in [`EventBlock`]s.
    pub bus: ChannelStats,
    /// The shard's recorder accounting.
    pub recorder: RecorderTally,
    /// Units the shard's source produced (adaptive: trace rounds).
    pub produced: usize,
    /// The shard's health.
    pub health: ShardHealth,
}

impl<A> ShardFinal<A> {
    /// A shard whose analysis state is lost: it keeps its bus accounting
    /// and health, and contributes nothing else to the merge.
    #[must_use]
    pub fn failed(monitor_interval_s: f64, bus: ChannelStats, health: ShardHealth) -> Self {
        Self {
            analysis: None,
            monitor: ThrottleMonitor::new(monitor_interval_s, MONITOR_DEPTH),
            bus,
            recorder: RecorderTally::default(),
            produced: 0,
            health,
        }
    }
}

/// Every shard's [`ShardFinal`] folded into one by [`merge`].
#[derive(Debug)]
pub struct Merged<A> {
    /// The sum-merged accumulators; `None` when every shard failed.
    pub analysis: Option<A>,
    /// Merged cadence totals (checkpoints stay per shard — shard
    /// timelines are independent).
    pub monitor: ThrottleMonitor,
    /// Bus counters merged with [`ChannelStats::merged`].
    pub bus: ChannelStats,
    /// Recorder accounting summed over shards.
    pub recorder: RecorderTally,
    /// Units produced, summed over the shards that merged.
    pub produced: usize,
    /// Each shard's retained [`CadenceCheckpoint`]s, in shard order.
    pub shard_cadence: Vec<Vec<CadenceCheckpoint>>,
    /// Per-shard health, in shard order.
    pub health: Vec<ShardHealth>,
    /// Degradation warnings (shard health, bus drops, recorder
    /// failures), not yet printed.
    pub warnings: Vec<String>,
}

/// The one merge fold: combine shard outcomes in shard order. Every
/// campaign report — in-process TVLA, adaptive and CPA, and the
/// distributed fleet aggregator's — is built from its result, so a
/// fault-free fleet merge is byte-identical to the in-process run and a
/// degraded one equals the fault-free run restricted to the survivors.
#[must_use]
pub fn merge<A: ShardAnalysis>(shards: Vec<ShardFinal<A>>, monitor_interval_s: f64) -> Merged<A> {
    let mut merged: Merged<A> = Merged {
        analysis: None,
        monitor: ThrottleMonitor::new(monitor_interval_s, MONITOR_DEPTH),
        bus: ChannelStats::default(),
        recorder: RecorderTally::default(),
        produced: 0,
        shard_cadence: Vec::with_capacity(shards.len()),
        health: Vec::with_capacity(shards.len()),
        warnings: Vec::new(),
    };
    for (i, shard) in shards.into_iter().enumerate() {
        shard_warnings(&mut merged.warnings, i, &shard.health, &shard.bus);
        merged.analysis = match (merged.analysis.take(), shard.analysis) {
            (Some(acc), Some(analysis)) => Some(acc.merge(analysis)),
            (acc, analysis) => acc.or(analysis),
        };
        merged.shard_cadence.push(shard.monitor.checkpoints().copied().collect());
        merged.monitor = merged.monitor.merged_totals(&shard.monitor);
        merged.bus = merged.bus.merged(shard.bus);
        merged.recorder.absorb(shard.recorder);
        merged.produced += shard.produced;
        merged.health.push(shard.health);
    }
    recorder_warning(&mut merged.warnings, &merged.recorder);
    merged
}

/// The one monitor-restore decoder: a campaign-shaped cadence monitor
/// rebuilt from the rest of `r` (`ThrottleMonitor::encode_state` bytes).
///
/// # Errors
///
/// Truncated, oversized or trailing state comes back as
/// [`CheckpointError`].
pub fn restore_monitor(
    interval_s: f64,
    r: &mut PayloadReader<'_>,
) -> Result<ThrottleMonitor, CheckpointError> {
    let mut monitor = ThrottleMonitor::new(interval_s, MONITOR_DEPTH);
    monitor.restore_state(r)?;
    r.finish()?;
    Ok(monitor)
}

/// Everything a consume closure may consult beyond the bus itself: the
/// shard's metric instruments, its degradation/offset journal, the armed
/// fault plan, the campaign stop flag and the shard's carried checkpoint.
/// All `None`/absent on the zero-cost default paths.
pub(crate) struct ConsumeCtx<'a> {
    ins: Option<&'a ShardInstruments>,
    log: Option<&'a ShardLog>,
    faults: Option<&'a Arc<FaultState>>,
    stop: &'a AtomicBool,
    carried: Option<&'a ShardResume>,
}

/// Dispatch one block to a fixed-interval monitor exactly as
/// [`Pump::dispatch_block`] would: per event, fire any poll ticks due at
/// or before the event's timestamp, then deliver the event. The poll
/// clock lives in `next_poll_s` so it can be checkpointed and restored
/// without shifting the grid.
fn dispatch_with_poll(
    monitor: &mut ThrottleMonitor,
    next_poll_s: &mut Option<f64>,
    interval_s: f64,
    block: &EventBlock,
) {
    block.for_each_event(&mut |event| {
        let now_s = event.time_s();
        let next = next_poll_s.get_or_insert(now_s + interval_s);
        while *next <= now_s {
            Processor::on_poll(monitor, *next);
            *next += interval_s;
        }
        Processor::on_event(monitor, event);
    });
}

/// The checkpointed monitor payload: the consumer's poll-grid clock (so
/// a resume never shifts the cadence grid) followed by the monitor's own
/// state.
fn monitor_payload(monitor: &ThrottleMonitor, next_poll_s: Option<f64>) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    match next_poll_s {
        Some(t) => {
            w.put_u8(1);
            w.put_f64(t);
        }
        None => w.put_u8(0),
    }
    monitor.encode_state(&mut w);
    w.into_payload()
}

/// Restore a consumer's analysis/monitor/recorder state from a carried
/// checkpoint (no-op for a fresh shard). Returns the `(consumed_obs,
/// blocks)` base counters of the restored prefix.
///
/// Panics on corrupt state: the frame already passed the container CRC
/// and the campaign fingerprint, so a decode failure here means the file
/// was written by incompatible code — resuming silently would poison the
/// statistics.
fn restore_consumer(
    carried: Option<&ShardResume>,
    analysis: &mut impl ShardAnalysis,
    monitor: &mut ThrottleMonitor,
    next_poll_s: &mut Option<f64>,
    recorders: &mut [ShardRecorder],
    monitor_interval_s: f64,
) -> (u64, u64) {
    let Some(c) = carried else { return (0, 0) };
    if let Some(bytes) = &c.analysis {
        analysis
            .restore_payload(bytes)
            .unwrap_or_else(|e| panic!("corrupt checkpoint analysis state: {e}"));
    }
    if let Some(bytes) = &c.monitor {
        let mut r = PayloadReader::new(bytes);
        let mut inner = || -> Result<(), CheckpointError> {
            *next_poll_s = match r.get_u8()? {
                0 => None,
                _ => Some(r.get_f64()?),
            };
            *monitor = restore_monitor(monitor_interval_s, &mut r)?;
            Ok(())
        };
        inner().unwrap_or_else(|e| panic!("corrupt checkpoint monitor state: {e}"));
    }
    if let Some(bytes) = &c.recorders {
        let states = checkpoint::decode_recorders(bytes)
            .unwrap_or_else(|e| panic!("corrupt checkpoint recorder state: {e}"));
        assert_eq!(
            states.len(),
            recorders.len(),
            "checkpointed recorder set differs from the campaign spec"
        );
        for (recorder, state) in recorders.iter_mut().zip(&states) {
            recorder.restore_state(state);
        }
    }
    (c.consumed_obs, c.blocks)
}

/// One shard's periodic snapshot writer (present only when the campaign
/// checkpoints).
struct CheckpointWriter<'a> {
    cfg: &'a CheckpointConfig,
    kind: u8,
    fingerprint: u64,
    shard: usize,
    shard_count: usize,
    writes: u64,
}

impl CheckpointWriter<'_> {
    /// Is a snapshot due after `local_blocks` consumed blocks?
    fn due(&self, local_blocks: u64) -> bool {
        local_blocks.is_multiple_of(self.cfg.every_blocks)
    }

    /// Flush the recorders (so the snapshot's file counts cover every
    /// recorded trace) and atomically rewrite this shard's frame. A
    /// failed write degrades the shard instead of killing it — the
    /// previous frame on disk stays valid.
    #[allow(clippy::too_many_arguments)]
    fn write(
        &mut self,
        consumed_obs: u64,
        blocks: u64,
        rng_offset: Option<u64>,
        analysis: Vec<u8>,
        monitor: Vec<u8>,
        recorders: &mut [ShardRecorder],
        log: Option<&ShardLog>,
    ) {
        for recorder in recorders.iter_mut() {
            recorder.flush();
        }
        let recorder_states: Vec<RecorderState> =
            recorders.iter().map(ShardRecorder::checkpoint_state).collect();
        let snapshot = ShardSnapshot {
            kind: self.kind,
            fingerprint: self.fingerprint,
            shard: self.shard,
            shard_count: self.shard_count,
            consumed_obs,
            blocks,
            rng_offset,
            analysis,
            monitor,
            recorders: (!recorder_states.is_empty())
                .then(|| checkpoint::encode_recorders(&recorder_states)),
        };
        if let Err(e) = checkpoint::write_shard(
            &self.cfg.dir,
            self.shard,
            &checkpoint::encode_snapshot(&snapshot),
        ) {
            if let Some(log) = log {
                log.push_note(format!("checkpoint write failed: {e}"));
            }
        }
        self.writes += 1;
    }
}

/// The periodic stderr progress line: a detached thread live-merging the
/// per-shard registries. Joined (via [`ProgressHandle::finish`]) before
/// the campaign report is assembled.
struct ProgressHandle {
    done: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressHandle {
    fn spawn(
        registries: Vec<Arc<MetricsRegistry>>,
        started: Instant,
        interval_s: f64,
        expected_obs: u64,
        tune: TuneConfig,
    ) -> Self {
        let done = Arc::new(AtomicBool::new(false));
        let done_flag = Arc::clone(&done);
        let shards = registries.len();
        let handle = std::thread::spawn(move || {
            let mut next_s = interval_s;
            while !done_flag.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(25));
                let elapsed_s = started.elapsed().as_secs_f64();
                if elapsed_s < next_s {
                    continue;
                }
                next_s = elapsed_s + interval_s;
                let report = MetricsReport {
                    wall_s: elapsed_s,
                    shards,
                    simd_backend: pulp::backend_name(),
                    obs_chunk: tune.obs_chunk,
                    bus_capacity: tune.bus_capacity,
                    snapshot: Observability::merged_snapshot(&registries),
                };
                let observations = report.observations();
                let rate = report.obs_per_s();
                let eta = if expected_obs > observations && rate > 0.0 {
                    format!(", eta {:.0}s", (expected_obs - observations) as f64 / rate)
                } else {
                    String::new()
                };
                eprintln!(
                    "[psc] progress: {observations} obs, {rate:.0} obs/s, drop {:.2}%{eta}",
                    report.drop_rate() * 100.0
                );
            }
        });
        Self { done, handle: Some(handle) }
    }

    fn finish(mut self) {
        self.done.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Session<'_> {
    /// The frozen campaign description.
    #[must_use]
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// The resolved worker count (after the source's say).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Per-shard recorders for the requested channels plus PCPU (empty
    /// unless [`Campaign::record_to`] was set), wired to the spec's retry
    /// policy and the armed fault plan.
    fn recorders(&self, shard: usize, faults: Option<&Arc<FaultState>>) -> Vec<ShardRecorder> {
        let Some(dir) = &self.spec.record_dir else { return Vec::new() };
        self.spec
            .keys
            .iter()
            .map(|&k| ChannelId::Smc(k))
            .chain([ChannelId::Pcpu])
            .map(|c| {
                let recorder = ShardRecorder::new(
                    dir,
                    c.to_string(),
                    c,
                    shard,
                    self.spec.record_shard_capacity,
                )
                .with_retry_policy(self.spec.retry);
                match faults {
                    Some(f) => recorder.with_faults(Arc::clone(f)),
                    None => recorder,
                }
            })
            .collect()
    }

    /// The spec's checkpoint writer for one shard, when checkpointing.
    fn checkpoint_writer(
        &self,
        kind: u8,
        fingerprint: u64,
        shard: usize,
    ) -> Option<CheckpointWriter<'_>> {
        self.spec.checkpoint.as_ref().map(|cfg| CheckpointWriter {
            cfg,
            kind,
            fingerprint,
            shard,
            shard_count: self.shards,
            writes: 0,
        })
    }

    /// Load every shard's resume frame when [`Campaign::resume_from`] was
    /// set (`None` otherwise). Shards without a frame resume fresh.
    ///
    /// # Panics
    ///
    /// Panics when a frame exists but is corrupt or belongs to a
    /// different campaign — resuming over foreign state would silently
    /// poison the statistics.
    fn load_resume(&self, kind: u8, fingerprint: u64) -> Option<Vec<ShardResume>> {
        let dir = self.spec.resume_dir.as_ref()?;
        Some(
            (0..self.shards)
                .map(|i| {
                    checkpoint::load_shard(dir, i, kind, fingerprint, self.shards)
                        .unwrap_or_else(|e| {
                            panic!("cannot resume shard {i} from {}: {e}", dir.display())
                        })
                        .unwrap_or_default()
                })
                .collect(),
        )
    }

    /// Per-shard metric registries when observability is on (`None`
    /// otherwise — the off path allocates nothing and reads no clock).
    fn observability(&self) -> Option<Observability> {
        let on = self.spec.metrics
            || self.spec.progress_interval_s.is_some()
            || self.spec.metrics_hub.is_some();
        on.then(|| {
            let registries: Vec<_> =
                (0..self.shards).map(|_| Arc::new(MetricsRegistry::new())).collect();
            let _hub = self.spec.metrics_hub.as_ref().map(|hub| hub.attach(registries.clone()));
            Observability { registries, started: Instant::now(), tune: self.spec.tune, _hub }
        })
    }

    /// The campaign-level span (lane 0 of the trace), when tracing.
    fn campaign_span(&self, name: &'static str) -> Option<psc_telemetry::spans::SpanGuard<'_>> {
        self.spec.tracer.as_deref().map(|t| {
            t.name_thread(0, "campaign");
            t.span(name, "campaign", 0)
        })
    }

    /// Start the stderr progress thread when requested.
    fn progress(&self, obs: Option<&Observability>, expected_obs: u64) -> Option<ProgressHandle> {
        let interval_s = self.spec.progress_interval_s?;
        let obs = obs?;
        Some(ProgressHandle::spawn(
            obs.registries.clone(),
            obs.started,
            interval_s,
            expected_obs,
            self.spec.tune,
        ))
    }

    /// The generic producer/consumer fan-out: one bounded block bus per
    /// shard, the source producing on a scoped thread, `consume` draining
    /// on the shard's worker thread. A small recycle lane hands processed
    /// blocks back to the producer, so the steady state moves columnar
    /// batches back and forth without allocating. When observability is
    /// on, the producer side records source-fill latency, block/obs
    /// throughput and recycle hit/miss into the shard's registry, and
    /// stage spans land in the spec's tracer (under a campaign span named
    /// `span_name`); the progress thread, when requested, runs for the
    /// fan-out's duration. The observability state comes back with the
    /// shard runs so the caller can report metrics after its merge.
    ///
    /// This is also the campaign's fault boundary. A panic anywhere in a
    /// shard — producer, consumer, or the worker scaffolding itself — is
    /// caught here and folded into that shard's [`ShardHealth`] instead
    /// of tearing down the fleet; after a consumer death the bus keeps
    /// draining so the (backpressured) producer can still finish. When
    /// `resume` carries a consumed prefix, producers fast-forward past it
    /// and the shard's bus stats are credited with the prefix blocks (the
    /// re-simulated prefix never touches the bus), so a resumed run's
    /// totals match the uninterrupted run's.
    fn fan_out<T, FS, FC>(
        &self,
        span_name: &'static str,
        expected_obs: u64,
        resume: Option<&[ShardResume]>,
        schedule_for: FS,
        consume: FC,
    ) -> (Vec<ShardRun<T>>, Option<Observability>)
    where
        T: Send,
        FS: Fn(usize) -> Schedule + Sync,
        FC: Fn(usize, &Receiver<EventBlock>, &Sender<EventBlock>, &ConsumeCtx<'_>) -> T + Sync,
    {
        let faults = self.spec.faults.map(FaultPlan::armed);
        let obs = self.observability();
        let progress = self.progress(obs.as_ref(), expected_obs);
        let span = self.campaign_span(span_name);
        let stop = self.spec.stop.clone().unwrap_or_else(|| Arc::new(AtomicBool::new(false)));
        let (obs_ref, faults, stop) = (obs.as_ref(), faults.as_ref(), stop.as_ref());
        let source = self.source.as_ref();
        let spec = &self.spec;
        let tracer = self.spec.tracer.as_deref();
        let track_offsets = spec.checkpoint.is_some();
        let plan_faults: Option<&FaultState> = faults.map(Arc::as_ref);
        let runs = run_sharded_caught(self.shards, |i| {
            let (tx, rx) = channel(spec.tune.bus_capacity, OverflowPolicy::Block);
            let (recycle_tx, recycle_rx) = channel(RECYCLE_CAPACITY, OverflowPolicy::DropNewest);
            let schedule = schedule_for(i);
            let carried = resume.map(|r| &r[i]);
            let ins = obs_ref.map(|o| ShardInstruments::new(&o.registries[i]));
            let log = ShardLog::new(track_offsets);
            let log_ref = &log;
            let produce_tid = 1 + 2 * i as u64;
            let consume_tid = 2 + 2 * i as u64;
            if let Some(t) = tracer {
                t.name_thread(produce_tid, format!("shard{i} producer"));
                t.name_thread(consume_tid, format!("shard{i} consumer"));
            }
            std::thread::scope(|scope| {
                let ins_ref = ins.as_ref();
                let producer = scope.spawn(move || {
                    let _span =
                        tracer.map(|t| t.span(format!("shard{i}/produce"), "stage", produce_tid));
                    let plan = ShardPlan {
                        shard: i,
                        keys: &spec.keys,
                        mitigation: spec.mitigation,
                        schedule,
                        skip_obs: carried.map_or(0, |c| c.consumed_obs),
                        resume_rng_offset: carried.and_then(|c| c.rng_offset),
                        retry: spec.retry,
                        faults: plan_faults,
                        log: Some(log_ref),
                        obs_chunk: spec.tune.obs_chunk,
                        replay_chunk: spec.tune.replay_chunk,
                    };
                    // Fill latency is timed sink-to-sink on the producer
                    // thread (send/backpressure wait excluded), so every
                    // TraceSource is covered without per-source hooks.
                    let mut fill_start = ins_ref.map(|_| Instant::now());
                    source.run_shard(
                        &plan,
                        &mut |block| {
                            if let (Some(ins), Some(t0)) = (ins_ref, fill_start) {
                                ins.fill_ns.record(elapsed_ns(t0));
                                ins.blocks.inc();
                                ins.obs.add(block.len() as u64);
                            }
                            // Swap the source's filled block for a
                            // recycled (or fresh) empty one and ship it.
                            let fresh = match recycle_rx.try_recv() {
                                Some(recycled) => {
                                    if let Some(ins) = ins_ref {
                                        ins.recycle_hits.inc();
                                    }
                                    recycled
                                }
                                None => {
                                    if let Some(ins) = ins_ref {
                                        ins.recycle_misses.inc();
                                    }
                                    EventBlock::default()
                                }
                            };
                            let filled = std::mem::replace(block, fresh);
                            tx.send(filled).expect("consumer alive");
                            if fill_start.is_some() {
                                fill_start = Some(Instant::now());
                            }
                        },
                        stop,
                    )
                });
                let ctx = ConsumeCtx { ins: ins_ref, log: Some(log_ref), faults, stop, carried };
                let caught = {
                    let _span =
                        tracer.map(|t| t.span(format!("shard{i}/consume"), "stage", consume_tid));
                    catch_unwind(AssertUnwindSafe(|| consume(i, &rx, &recycle_tx, &ctx)))
                };
                if caught.is_err() {
                    // Keep draining so the Block-backpressured producer
                    // can finish its schedule (and be joined) even though
                    // this consumer is gone.
                    while rx.recv().is_some() {}
                }
                let mut stats = rx.stats();
                if let Some(c) = carried {
                    // Credit the resumed prefix: those blocks were
                    // consumed before the interrupt and never cross this
                    // run's bus.
                    stats.accepted += c.blocks;
                    stats.delivered += c.blocks;
                }
                let produced = match producer.join() {
                    Ok(produced) => produced,
                    Err(payload) => {
                        log.push_note(format!("producer panicked: {}", panic_message(&*payload)));
                        0
                    }
                };
                if let Some(ins) = ins_ref {
                    ins.finish(stats, recycle_tx.stats(), produced);
                }
                let notes = log.take_notes();
                let (out, health) = match caught {
                    Ok(out) => {
                        let health = if notes.is_empty() {
                            ShardHealth::Ok
                        } else {
                            ShardHealth::Degraded { reason: notes.join("; ") }
                        };
                        (Some(out), health)
                    }
                    Err(payload) => {
                        let mut reason = format!("consumer panicked: {}", panic_message(&*payload));
                        if !notes.is_empty() {
                            reason.push_str("; ");
                            reason.push_str(&notes.join("; "));
                        }
                        (None, ShardHealth::Failed { reason })
                    }
                };
                ShardRun { out, stats, produced, health }
            })
        });
        drop(span);
        if let Some(progress) = progress {
            progress.finish();
        }
        let runs = runs
            .into_iter()
            .enumerate()
            .map(|(i, run)| {
                run.unwrap_or_else(|message| ShardRun {
                    out: None,
                    stats: ChannelStats::default(),
                    produced: 0,
                    health: ShardHealth::Failed {
                        reason: format!("shard {i} worker panicked: {message}"),
                    },
                })
            })
            .collect();
        (runs, obs)
    }

    /// Drain a shard's block bus through `pump`, returning each processed
    /// block to the producer's recycle lane. With instruments on, each
    /// block's full dispatch is timed into the `consume.on_block_ns`
    /// histogram.
    fn pump_blocks(
        pump: &mut Pump<'_>,
        rx: &Receiver<EventBlock>,
        recycle: &Sender<EventBlock>,
        ins: Option<&ShardInstruments>,
    ) {
        while let Some(block) = rx.recv() {
            match ins {
                Some(ins) => {
                    let t0 = Instant::now();
                    pump.dispatch_block(&block);
                    ins.consume_ns.record(elapsed_ns(t0));
                }
                None => pump.dispatch_block(&block),
            }
            let _ = recycle.send(block);
        }
        pump.finish();
    }

    /// The shared streaming-consumer loop behind every streaming
    /// analysis: restore from a carried checkpoint, drain the bus through
    /// the analysis + poll-grid monitor + recorders (the same dispatch
    /// order and poll semantics as [`Pump::dispatch_block`]), inject
    /// consumer panics when armed, raise the stop flag when `early_stop`
    /// says so after a block, and snapshot the full consumer state through
    /// `writer` when checkpointing.
    #[allow(clippy::too_many_arguments)]
    fn consume_streaming<A: ShardAnalysis>(
        &self,
        shard: usize,
        rx: &Receiver<EventBlock>,
        recycle: &Sender<EventBlock>,
        ctx: &ConsumeCtx<'_>,
        mut writer: Option<CheckpointWriter<'_>>,
        mut analysis: A,
        early_stop: &impl Fn(&A) -> bool,
    ) -> (A, ThrottleMonitor, RecorderTally) {
        let interval_s = self.spec.monitor_interval_s;
        let mut monitor = ThrottleMonitor::new(interval_s, MONITOR_DEPTH);
        let mut recorders = self.recorders(shard, ctx.faults);
        let mut next_poll_s = None;
        let (base_obs, base_blocks) = restore_consumer(
            ctx.carried,
            &mut analysis,
            &mut monitor,
            &mut next_poll_s,
            &mut recorders,
            interval_s,
        );
        let mut local_blocks = 0u64;
        let mut local_obs = 0u64;
        while let Some(block) = rx.recv() {
            if let Some(f) = ctx.faults {
                if f.take_consumer_panic(shard, local_blocks) {
                    panic!("injected consumer panic at shard {shard}, block {local_blocks}");
                }
            }
            let t0 = ctx.ins.map(|_| Instant::now());
            analysis.on_block(&block);
            dispatch_with_poll(&mut monitor, &mut next_poll_s, interval_s, &block);
            for recorder in &mut recorders {
                recorder.on_block(&block);
            }
            if let (Some(ins), Some(t0)) = (ctx.ins, t0) {
                ins.consume_ns.record(elapsed_ns(t0));
            }
            if early_stop(&analysis) {
                ctx.stop.store(true, Ordering::Relaxed);
            }
            local_blocks += 1;
            local_obs += block.len() as u64;
            let _ = recycle.send(block);
            if let Some(w) = writer.as_mut() {
                if w.due(local_blocks) {
                    w.write(
                        base_obs + local_obs,
                        base_blocks + local_blocks,
                        ctx.log.and_then(|l| l.offset_after(local_blocks - 1)),
                        analysis.state_payload(),
                        monitor_payload(&monitor, next_poll_s),
                        &mut recorders,
                        ctx.log,
                    );
                    if self.spec.halt_after == Some(w.writes) {
                        ctx.stop.store(true, Ordering::Relaxed);
                    }
                }
            }
        }
        analysis.on_finish();
        Processor::on_finish(&mut monitor);
        for recorder in &mut recorders {
            recorder.on_finish();
        }
        let tally = RecorderTally::of(&recorders);
        if let Some(ins) = ctx.ins {
            ins.denied_reads.add(monitor.denied_reads());
            ins.recorder_io_errors.add(tally.io_errors);
            ins.recorder_traces.add(tally.traces);
        }
        (analysis, monitor, tally)
    }

    /// The streaming campaign behind [`Session::tvla`],
    /// [`Session::adaptive_tvla`] and [`Session::cpa`]: fan `schedule_for`
    /// out over the shards, drain each into a fresh `new_analysis()`
    /// through [`Self::consume_streaming`], and [`merge`] the shard
    /// outcomes (echoing the warnings to stderr). `early_stop` is checked
    /// after every consumed block; `true` stops the campaign.
    fn stream<A: ShardAnalysis>(
        &self,
        kind: u8,
        span_name: &'static str,
        expected_obs: u64,
        schedule_for: impl Fn(usize) -> Schedule + Sync,
        new_analysis: impl Fn() -> A + Sync,
        early_stop: impl Fn(&A) -> bool + Sync,
    ) -> (Merged<A>, Option<MetricsReport>) {
        let fingerprint =
            checkpoint::fingerprint(&self.spec, kind, self.source.fingerprint_tag(), self.shards);
        let resume = self.load_resume(kind, fingerprint);
        let (runs, obs) = self.fan_out(
            span_name,
            expected_obs,
            resume.as_deref(),
            schedule_for,
            |i, rx, recycle, ctx| {
                let writer = self.checkpoint_writer(kind, fingerprint, i);
                self.consume_streaming(i, rx, recycle, ctx, writer, new_analysis(), &early_stop)
            },
        );
        let interval_s = self.spec.monitor_interval_s;
        let shards = runs
            .into_iter()
            .map(|run| match run.out {
                Some((analysis, monitor, recorder)) => ShardFinal {
                    analysis: Some(analysis),
                    monitor,
                    bus: run.stats,
                    recorder,
                    produced: run.produced,
                    health: run.health,
                },
                None => ShardFinal::failed(interval_s, run.stats, run.health),
            })
            .collect();
        let merged = merge(shards, interval_s);
        emit_warnings(&merged.warnings);
        (merged, obs.map(|o| o.report(self.shards)))
    }

    /// Run a streaming TVLA campaign: each shard collects its slice of
    /// the per-class trace budget, online-accumulated (Welford) and
    /// sum-merged.
    ///
    /// # Panics
    ///
    /// Panics if the resolved shard count is zero.
    #[must_use]
    pub fn tvla(self) -> StreamingTvlaReport {
        let counts = split_counts(self.spec.traces, self.shards);
        let (merged, metrics) = self.stream(
            KIND_TVLA,
            "campaign/tvla",
            // One TVLA trace is 2 passes × 3 classes observations.
            self.spec.traces as u64 * 6,
            |i| Schedule::Tvla { traces_per_class: counts[i] },
            StreamingTvla::new,
            |_| false,
        );
        StreamingTvlaReport::from_merged(merged, self.spec.keys.clone(), metrics)
    }

    /// Run a TVLA campaign that **stops at the threshold crossing**:
    /// shards stream trace-major rounds while each consumer wires the
    /// early-stop tracker of the spec's [`EarlyStop`] channel into a
    /// shared stop flag; producers poll the flag between rounds, so the
    /// whole fleet halts within one round of any shard detecting leakage.
    /// The trace budget bounds the campaign on channels that never leak.
    ///
    /// # Panics
    ///
    /// Panics if no early-stop policy was configured (see
    /// [`Campaign::early_stop`]) or the resolved shard count is zero.
    #[must_use]
    pub fn adaptive_tvla(self) -> AdaptiveTvlaReport {
        let early =
            self.spec.early_stop.expect("adaptive campaigns need Campaign::early_stop(watch)");
        let counts = split_counts(self.spec.traces, self.shards);
        // Leakage detection and a halt_after interrupt both raise the stop
        // flag, but only the former is an *early stop* in the report's
        // sense.
        let leaked = AtomicBool::new(false);
        let (merged, metrics) = self.stream(
            KIND_ADAPTIVE,
            "campaign/adaptive_tvla",
            // Rounds-to-stop is bounded by the budget: one round is 6 obs.
            self.spec.traces as u64 * 6,
            |i| Schedule::AdaptiveRounds { max_rounds: counts[i] },
            || {
                let mut tvla = StreamingTvla::new();
                tvla.watch(ChannelId::Smc(early.watch), early.min_per_side);
                tvla
            },
            // Checked at every block boundary — blocks end on whole
            // observations (one adaptive round per block), so the check
            // granularity matches the producers' between-round stop
            // polling. The first shard to cross raises the flag.
            |tvla| {
                !leaked.load(Ordering::Relaxed)
                    && tvla.leakage_detected()
                    && !leaked.swap(true, Ordering::Relaxed)
            },
        );
        AdaptiveTvlaReport {
            rounds_collected: merged.produced,
            report: StreamingTvlaReport::from_merged(merged, self.spec.keys.clone(), metrics),
            stopped_early: leaked.into_inner(),
        }
    }

    /// Run a streaming known-plaintext CPA campaign: each shard
    /// correlates its slice of the trace budget into incremental
    /// accumulators under a model from `model_factory` (one shared
    /// guess-major hypothesis table for the whole campaign), sum-merged.
    ///
    /// # Panics
    ///
    /// Panics if the resolved shard count is zero, every shard fails, or
    /// `model_factory` yields inconsistent models across calls.
    #[must_use]
    pub fn cpa(
        self,
        model_factory: impl Fn() -> Box<dyn PowerModel> + Send + Sync,
    ) -> StreamingCpaReport {
        let counts = split_counts(self.spec.traces, self.shards);
        // One guess-major hypothesis table for the whole campaign: shards
        // (and channels within a shard) clone the Arc instead of
        // recomputing the 512 KB table per accumulator.
        let hyp_table = Arc::new(HypTable::for_model(model_factory().as_ref()));
        let (merged, metrics) = self.stream(
            KIND_CPA,
            "campaign/cpa",
            self.spec.traces as u64,
            |i| Schedule::KnownPlaintext { traces: counts[i] },
            || {
                let channels = self.spec.keys.iter().map(|&k| ChannelId::Smc(k));
                let mut cpa =
                    StreamingCpa::with_table(channels, &model_factory, Arc::clone(&hyp_table));
                cpa.set_unroll(self.spec.tune.cpa_unroll);
                cpa
            },
            |_| false,
        );
        StreamingCpaReport::from_merged(merged, self.spec.keys.clone(), metrics)
    }

    /// Collect full known-plaintext trace sets per requested key (the
    /// retaining batch shape of the legacy `collect_known_plaintext*`
    /// family), concatenated in shard order.
    ///
    /// # Panics
    ///
    /// Panics if the resolved shard count is zero.
    #[must_use]
    pub fn collect(self) -> BTreeMap<SmcKey, TraceSet> {
        let counts = split_counts(self.spec.traces, self.shards);
        let (results, _obs) = self.fan_out(
            "campaign/collect",
            self.spec.traces as u64,
            None,
            |i| Schedule::KnownPlaintext { traces: counts[i] },
            |i, rx, recycle, ctx| {
                let mut collector = TraceCollector::with_capacity_hint(counts[i]);
                let mut pump = Pump::new();
                pump.attach(&mut collector);
                Self::pump_blocks(&mut pump, rx, recycle, ctx.ins);
                collector
            },
        );
        let mut merged: BTreeMap<SmcKey, TraceSet> = self
            .spec
            .keys
            .iter()
            .map(|&k| (k, TraceSet::with_capacity(k.to_string(), self.spec.traces)))
            .collect();
        for run in results {
            let Some(mut collector) = run.out else { continue };
            for &k in &self.spec.keys {
                if let Some(set) = collector.take(ChannelId::Smc(k)) {
                    if let Some(target) = merged.get_mut(&k) {
                        target.extend(set.iter().copied());
                    }
                }
            }
        }
        merged
    }

    /// Collect retained TVLA datasets per requested key plus PCPU (the
    /// legacy `run_tvla_campaign` shape), concatenated in shard order.
    ///
    /// # Panics
    ///
    /// Panics if the resolved shard count is zero.
    #[must_use]
    pub fn tvla_datasets(self) -> TvlaCampaign {
        let counts = split_counts(self.spec.traces, self.shards);
        let (results, _obs) = self.fan_out(
            "campaign/tvla_datasets",
            self.spec.traces as u64 * 6,
            None,
            |i| Schedule::Tvla { traces_per_class: counts[i] },
            |_i, rx, recycle, ctx| {
                let mut collector = DatasetCollector::new();
                let mut monitor = ThrottleMonitor::new(self.spec.monitor_interval_s, MONITOR_DEPTH);
                let mut pump = Pump::new();
                pump.attach(&mut collector);
                pump.attach(&mut monitor);
                Self::pump_blocks(&mut pump, rx, recycle, ctx.ins);
                (collector, monitor)
            },
        );
        let mut campaign = TvlaCampaign::default();
        for &k in &self.spec.keys {
            campaign.per_key.insert(k, TvlaDatasets::default());
        }
        let mut dropped = 0u64;
        for run in results {
            let Some((mut collector, monitor)) = run.out else { continue };
            for &k in &self.spec.keys {
                if let Some([first, second]) = collector.take(ChannelId::Smc(k)) {
                    let target = campaign.per_key.get_mut(&k).expect("inserted above");
                    for (acc, shard_values) in target.first.iter_mut().zip(first) {
                        acc.extend(shard_values);
                    }
                    for (acc, shard_values) in target.second.iter_mut().zip(second) {
                        acc.extend(shard_values);
                    }
                }
            }
            if let Some([first, second]) = collector.take(ChannelId::Pcpu) {
                for (acc, shard_values) in campaign.pcpu.first.iter_mut().zip(first) {
                    acc.extend(shard_values);
                }
                for (acc, shard_values) in campaign.pcpu.second.iter_mut().zip(second) {
                    acc.extend(shard_values);
                }
            }
            dropped +=
                monitor.denied_reads() + collector.orphan_samples() + collector.residual_samples();
        }
        campaign.dropped_samples = dropped;
        campaign
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_sca::model::Rd0Hw;
    use psc_sca::tvla::PlaintextClass;
    use psc_smc::key::key;

    #[test]
    fn sharded_tvla_report_has_full_counts() {
        let report = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, [0x3C; 16], 21)
            .keys(&[key("PHPC")])
            .traces(40)
            .shards(4)
            .session()
            .tvla();
        let acc = report.tvla.accumulator(ChannelId::Smc(key("PHPC"))).expect("collected");
        for pass in 0..2 {
            for class in PlaintextClass::ALL {
                assert_eq!(acc.count(pass, class), 40, "split shards must sum to the request");
            }
        }
        assert!(report.matrix(key("PHPC")).is_some());
        assert_eq!(report.pcpu_matrix().expect("pcpu collected").cells.len(), 9);
        assert_eq!(report.bus.dropped, 0, "Block policy never sheds");
        assert_eq!(report.monitor.observations(), 240);
        assert_eq!(report.shards, 4);
    }

    #[test]
    fn sharded_cpa_report_counts_and_ranks_shape() {
        let report = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, [0x3C; 16], 5)
            .keys(&[key("PHPC")])
            .traces(120)
            .shards(4)
            .session()
            .cpa(|| Box::new(Rd0Hw));
        let cpa = report.cpa.cpa(ChannelId::Smc(key("PHPC"))).expect("registered");
        assert_eq!(cpa.trace_count(), 120);
        let ranks = report.ranks(key("PHPC"), &[0x3C; 16]).expect("registered");
        for r in ranks {
            assert!((1..=256).contains(&r));
        }
    }

    #[test]
    fn adaptive_campaign_stops_early_on_leaky_channel() {
        let out = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, [0x3C; 16], 9)
            .keys(&[key("PHPC")])
            .traces(400)
            .shards(2)
            .early_stop(key("PHPC"))
            .session()
            .adaptive_tvla();
        assert!(out.stopped_early, "PHPC leaks — the tracker must cross 4.5");
        assert!(
            out.rounds_collected < 400,
            "collection must halt before the budget: {} rounds",
            out.rounds_collected
        );
        assert!(out.rounds_collected >= ADAPTIVE_MIN_TRACES as usize / 2, "not spuriously early");
        let matrix = out.report.matrix(key("PHPC")).expect("collected");
        assert_eq!(matrix.cells.len(), 9);
        assert_eq!(out.report.bus.dropped, 0);
    }

    #[test]
    fn adaptive_campaign_exhausts_budget_on_flat_channel() {
        // PHPS publishes the data-blind estimator: never distinguishable.
        let out = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, [0x3C; 16], 11)
            .keys(&[key("PHPS")])
            .traces(30)
            .shards(2)
            .early_stop(key("PHPS"))
            .session()
            .adaptive_tvla();
        assert!(!out.stopped_early, "estimator channel must not trip the tracker");
        assert_eq!(out.rounds_collected, 30, "budget fully consumed");
    }

    #[test]
    fn tuned_campaign_is_bit_identical_to_default_constants() {
        // Chunk sizes, bus depth and the CPA unroll width only change
        // throughput: every accumulator still consumes its observations
        // in row order, so a campaign run under any valid TuneConfig must
        // reproduce the default-constant run bit for bit.
        let tuned = crate::tune::TuneConfig {
            cpa_unroll: 2,
            obs_chunk: 16,
            replay_chunk: 512,
            bus_capacity: 32,
        };
        let build = || {
            Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, [0x3C; 16], 13)
                .keys(&[key("PHPC")])
                .traces(24)
                .shards(2)
        };
        let base = build().session().tvla();
        let tuned_report = build().tune(tuned).session().tvla();
        let a = base.matrix(key("PHPC")).expect("collected");
        let b = tuned_report.matrix(key("PHPC")).expect("collected");
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.t_score.to_bits(), cb.t_score.to_bits(), "TVLA cells must match");
        }

        let cpa_build = || {
            Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, [0x3C; 16], 17)
                .keys(&[key("PHPC")])
                .traces(60)
                .shards(2)
        };
        let base = cpa_build().session().cpa(|| Box::new(Rd0Hw));
        let tuned_report = cpa_build().tune(tuned).session().cpa(|| Box::new(Rd0Hw));
        let a = base.cpa.cpa(ChannelId::Smc(key("PHPC"))).expect("registered");
        let b = tuned_report.cpa.cpa(ChannelId::Smc(key("PHPC"))).expect("registered");
        let mut corr_a = [[0.0f64; 256]; 16];
        let mut corr_b = [[0.0f64; 256]; 16];
        a.correlations_all_into(&mut corr_a);
        b.correlations_all_into(&mut corr_b);
        for (row_a, row_b) in corr_a.iter().zip(&corr_b) {
            for (va, vb) in row_a.iter().zip(row_b) {
                assert_eq!(va.to_bits(), vb.to_bits(), "CPA correlations must match");
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid tune config")]
    fn invalid_tune_config_is_rejected_at_the_builder() {
        let bad = crate::tune::TuneConfig { cpa_unroll: 3, ..crate::tune::TuneConfig::default() };
        let _ =
            Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, [0x3C; 16], 1).tune(bad);
    }

    #[test]
    fn mitigated_streaming_campaign_counts_denials() {
        let report = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, [0x3C; 16], 7)
            .keys(&[key("PHPC")])
            .traces(6)
            .shards(2)
            .mitigation(MitigationConfig::restrict_access())
            .session()
            .tvla();
        assert!(report.tvla.accumulator(ChannelId::Smc(key("PHPC"))).is_none());
        assert_eq!(report.monitor.denied_reads(), 36, "2 passes x 3 classes x 6 traces");
        assert!(report.pcpu_matrix().is_some(), "PCPU unaffected by SMC access control");
    }
}

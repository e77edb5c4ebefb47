//! # psc-core — end-to-end software power side-channel attacks
//!
//! The paper's attacks, wired end to end over the simulation substrates:
//!
//! * [`victim`] — the user-space and kernel-module AES victims (§3.1's
//!   threat model: the attacker may call the encryption service but never
//!   read the key);
//! * [`rig`] — one simulated device with SMC, IOKit client, IOReport and a
//!   victim installed;
//! * [`session`] — the unified campaign driver: a [`Campaign`] builder
//!   describing {TVLA, CPA, adaptive TVLA} × {keys, budget, shards,
//!   mitigation, recording}, executed by a [`Session`] over any
//!   [`source::TraceSource`];
//! * [`source`] — the pluggable trace sources: live rigs, a borrowed
//!   rig, recorded-shard replay ([`ShardReplay`]) and heterogeneous
//!   device fleets ([`Fleet`]);
//! * [`campaign`] — the retained-dataset shapes ([`TvlaDatasets`],
//!   [`TvlaCampaign`]) returned by the batch collection runs;
//! * [`checkpoint`] — campaign checkpoint frames: atomic per-shard
//!   snapshots behind [`Campaign::checkpoint_to`] /
//!   [`Campaign::resume_from`];
//! * [`tune`] — the self-calibrating autotuner: sweeps the CPA unroll
//!   width and block/chunk sizes with the real kernels and returns the
//!   winning [`TuneConfig`] for [`Campaign::tune`];
//! * [`experiments`] — a runner per table/figure of the paper, with
//!   paper-format rendering.
//!
//! ## Quickstart
//!
//! ```
//! use psc_core::experiments::{screening, ExperimentConfig};
//!
//! // Table 1 is pure configuration:
//! let table1 = screening::run_table1();
//! assert_eq!(table1.rows.len(), 2);
//!
//! // Table 2 runs the idle-vs-busy fuzzer screening:
//! let cfg = ExperimentConfig::quick();
//! let table2 = screening::run_table2(&cfg);
//! assert!(table2.rows[1].varying_keys.iter().any(|k| k.to_string() == "PHPC"));
//! ```
//!
//! ## Migrating from the removed legacy driver functions
//!
//! The nine historical free-function drivers spent one release as
//! deprecated shims over the builder and have now been removed; each
//! produced results identical to its builder equivalent, so migration is
//! purely mechanical. The mapping:
//!
//! | Legacy call | Builder equivalent |
//! |---|---|
//! | `run_tvla_campaign(&mut rig, keys, n)` | `Campaign::over_rig(&mut rig).keys(keys).traces(n).session().tvla_datasets()` |
//! | `collect_known_plaintext(&mut rig, keys, n)` | `Campaign::over_rig(&mut rig).keys(keys).traces(n).session().collect()` |
//! | `collect_known_plaintext_parallel(dev, kind, key, seed, keys, n, s)` | `Campaign::live(dev, kind, key, seed).keys(keys).traces(n).shards(s).session().collect()` |
//! | `collect_known_plaintext_parallel_with(…, m)` | `Campaign::live(…).mitigation(m)….session().collect()` |
//! | `stream_tvla_campaign(dev, kind, key, seed, keys, n, s)` | `Campaign::live(dev, kind, key, seed).keys(keys).traces(n).shards(s).session().tvla()` |
//! | `stream_tvla_campaign_with(…, m)` | `Campaign::live(…).mitigation(m)….session().tvla()` |
//! | `stream_tvla_adaptive(…, watch, max, s, m)` | `Campaign::live(…).traces(max).shards(s).mitigation(m).early_stop(watch).session().adaptive_tvla()` |
//! | `stream_known_plaintext(…, factory)` | `Campaign::live(…)….session().cpa(factory)` |
//! | `stream_known_plaintext_with(…, m, factory)` | `Campaign::live(…).mitigation(m)….session().cpa(factory)` |
//!
//! What the legacy matrix could **not** express now composes for free:
//! swap `Campaign::live(…)` for [`Campaign::replay`] (offline re-analysis
//! of recorded shards) or [`Campaign::fleet`] (multi-device campaigns),
//! add `.record_to(dir)` to persist any streaming campaign, and
//! `.early_stop(watch)` works with every source.
//!
//! ## Failure semantics & recovery
//!
//! Long campaigns treat faults in three escalating tiers:
//!
//! * **Retried** — transient source-fill errors and recorder batch-write
//!   failures are retried under the spec's
//!   [`psc_telemetry::faults::RetryPolicy`] (default: 3 attempts,
//!   exponential backoff with deterministic jitter). A fault that
//!   recovers on retry costs nothing but latency: results stay
//!   bit-identical, and recorder recoveries are counted in the report's
//!   `io_retries` (distinct from `io_errors`, which are lost batches).
//! * **Degraded** — a fault that exhausts its retries (or a replay shard
//!   that cannot be read, a producer death, a failed checkpoint write)
//!   stops that shard early but keeps everything it accumulated: the
//!   shard merges into the campaign result and its
//!   [`session::ShardHealth::Degraded`] entry plus a `warnings` line say
//!   exactly what was lost.
//! * **Failed** — a consumer panic destroys that shard's accumulator
//!   state. The panic is caught at the fan-out join boundary
//!   ([`session::ShardHealth::Failed`]); the surviving shards still merge
//!   and the campaign completes instead of aborting.
//!
//! Orthogonally, [`Campaign::checkpoint_to`] snapshots every shard's full
//! consumer state (analysis accumulators, cadence monitor + poll clock,
//! recorder progress, attacker-RNG position, consumed-prefix counters)
//! into one atomic `shard-{i:03}.ckpt` frame per shard every N consumed
//! blocks — codec-v3 framed, CRC-checked and fingerprinted against the
//! campaign identity. [`Campaign::resume_from`] restores the consumers
//! and fast-forwards the sources past the consumed prefix
//! (re-simulating it without emission), so an interrupted TVLA/CPA/
//! adaptive campaign completes **bit-identically** to an uninterrupted
//! one on live-rig, fleet and replay sources. Injected faults for testing
//! all of this live in [`psc_telemetry::faults`] (see
//! [`Campaign::faults`]).
//!
//! ## SIMD dispatch & autotuning
//!
//! The analysis kernels the campaign drivers feed (CPA correlation
//! sweep, TVLA column ingestion, SMC columnar publish) dispatch at
//! runtime to AVX2/NEON through the vendored `pulp` shim, with a
//! bit-identical scalar fallback (`PSC_SIMD=off` pins it). The [`tune`]
//! module calibrates the throughput-only constants on the running
//! machine — CPA unroll width, rows per emitted block (`OBS_CHUNK`),
//! replay read chunk and bus depth — and [`Campaign::tune`] threads the
//! winning [`TuneConfig`] through the fan-out. Chunking never changes
//! what the accumulators consume, only how it is batched, so a tuned
//! campaign's report is bit-identical to a default-constant run; the
//! one resume-safety caveat is that checkpoint frames are taken at
//! block boundaries, which is why `obs_chunk` is part of the campaign
//! fingerprint.
//!
//! [`Campaign::checkpoint_to`]: session::Campaign::checkpoint_to
//! [`Campaign::resume_from`]: session::Campaign::resume_from
//! [`Campaign::faults`]: session::Campaign::faults
//! [`Campaign::tune`]: session::Campaign::tune

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod checkpoint;
pub mod experiments;
pub mod pmset;
pub mod report;
pub mod rig;
pub mod session;
pub mod source;
pub mod spec;
pub mod tune;
pub mod victim;

pub use campaign::{TvlaCampaign, TvlaDatasets};
pub use checkpoint::CheckpointConfig;
pub use experiments::ExperimentConfig;
pub use report::CampaignOutcome;
pub use rig::{Device, Observation, Rig};
pub use session::{
    AdaptiveTvlaReport, Campaign, EarlyStop, Session, SessionSpec, ShardHealth, StreamingCpaReport,
    StreamingTvlaReport,
};
pub use source::{
    Fleet, FleetMember, FleetShard, LiveRig, ReplayShard, RigSource, ShardLog, ShardReplay,
    TraceSource,
};
pub use spec::{AnalysisMode, CampaignSpec, MitigationSetting};
pub use tune::TuneConfig;
pub use victim::{AesVictim, VictimKind};

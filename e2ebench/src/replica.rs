//! The traced substrate replica: the steps of `Rig::observe_one_into`
//! and the producer's block build, re-run from outside the program with
//! a timer around each call into a layer's public functions.
//!
//! The replica drives shard 0 of a live CPA spec exactly as the live
//! source does (same rig seed, plaintext chunks, keys and block layout),
//! and its observations must be bit-identical to the untraced
//! `Rig::observe_windows_with` loop over a rig with the same seed.

use crate::ledger::{LayerClock, SpanCost};
use psc_core::spec::{CampaignSpec, MitigationSetting};
use psc_core::{Observation, Rig};
use psc_smc::SmcKey;
use psc_soc::WindowBatch;
use psc_telemetry::{ChannelId, EventBlock, SchedEvent, WindowEvent};
use std::time::Instant;

/// The replica's layers, in call order.
pub const LAYERS: [&str; 8] = [
    "rig.plaintext_ns",
    "aes.request_encrypt_ns",
    "smc.windows_until_publish_ns",
    "soc.run_windows_ns",
    "ioreport.observe_ns",
    "smc.observe_ns",
    "smc.read_key_ns",
    "telemetry.block_build_ns",
];

const PLAINTEXT: usize = 0;
const ENCRYPT: usize = 1;
const UNTIL_PUBLISH: usize = 2;
const RUN_WINDOWS: usize = 3;
const IOREPORT: usize = 4;
const SMC_OBSERVE: usize = 5;
const READ_KEY: usize = 6;
const BLOCK_BUILD: usize = 7;

/// Empty timed calls per traced pass that measure the timer's cost.
const CALIBRATION_CALLS: u32 = 20_000;

/// One observation reduced to comparable bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    plaintext: [u8; 16],
    ciphertext: [u8; 16],
    windows: u32,
    time_bits: u64,
    pcpu_bits: u64,
    smc_bits: Vec<Option<u64>>,
}

impl Fingerprint {
    fn of(obs: &Observation) -> Self {
        Self {
            plaintext: obs.plaintext,
            ciphertext: obs.ciphertext,
            windows: obs.windows,
            time_bits: obs.time_s.to_bits(),
            pcpu_bits: obs.pcpu_delta_mj.to_bits(),
            smc_bits: obs.smc.iter().map(|(_, v)| v.map(f64::to_bits)).collect(),
        }
    }
}

/// One traced pass, per observation.
#[derive(Debug, Clone)]
pub struct TracedPass {
    /// Nanoseconds per observation in each of [`LAYERS`], less the
    /// timer's own share of each timed call.
    pub layer_ns: [f64; 8],
    /// Wall time of the whole traced loop per observation.
    pub total_ns: f64,
    /// The part of `total_ns` the timer itself added.
    pub timer_ns: f64,
    /// SoC windows per observation.
    pub windows_per_obs: f64,
    /// SMC key reads per observation.
    pub reads_per_obs: f64,
}

/// The shard-0 rig of a live spec, as `LiveRig` builds it.
#[must_use]
pub fn shard0_rig(spec: &CampaignSpec) -> Rig {
    let mut rig = Rig::new(spec.device, spec.victim_kind(), spec.key, spec.seed);
    rig.set_mitigation(spec.mitigation.unwrap_or(MitigationSetting::None).to_config());
    rig
}

fn channels(keys: &[SmcKey]) -> Vec<ChannelId> {
    keys.iter().map(|&k| ChannelId::Smc(k)).chain([ChannelId::Pcpu]).collect()
}

/// Append one observation as a block row, laid out as the live source
/// lays it out (window record, readable SMC samples, PCPU, sched record).
fn push_row(block: &mut EventBlock, seq: u64, obs: &Observation, window_s: f64) {
    block.begin(WindowEvent {
        seq,
        time_s: obs.time_s,
        pass: 0,
        class: None,
        plaintext: obs.plaintext,
        ciphertext: obs.ciphertext,
    });
    let mut denied = 0u32;
    for (col, (_, value)) in obs.smc.iter().enumerate() {
        match value {
            Some(v) => block.sample(col, *v),
            None => denied += 1,
        }
    }
    block.sample(obs.smc.len(), obs.pcpu_delta_mj);
    block.commit(SchedEvent {
        time_s: obs.time_s,
        windows_consumed: obs.windows.max(1),
        window_s,
        denied_reads: denied,
    });
}

fn staging(keys: &[SmcKey]) -> Observation {
    Observation {
        plaintext: [0; 16],
        ciphertext: [0; 16],
        smc: Vec::with_capacity(keys.len()),
        pcpu_delta_mj: 0.0,
        time_s: 0.0,
        windows: 0,
    }
}

/// The untraced producer loop over `rig`: plaintext chunks, block
/// resets and `Rig::observe_windows_with` with the block build in its
/// visitor. Returns nanoseconds per observation; with `prints`, also
/// the observations' fingerprints.
pub fn untraced(
    rig: &mut Rig,
    keys: &[SmcKey],
    chunk: usize,
    n_obs: usize,
    mut prints: Option<&mut Vec<Fingerprint>>,
) -> f64 {
    let channels = channels(keys);
    let window_s = rig.window_s();
    let mut block = EventBlock::new();
    let mut pts: Vec<[u8; 16]> = Vec::with_capacity(chunk);
    let mut seq = 0u64;
    let start = Instant::now();
    let mut remaining = n_obs;
    while remaining > 0 {
        let take = remaining.min(chunk);
        pts.clear();
        pts.extend((0..take).map(|_| rig.random_plaintext()));
        block.reset(&channels);
        rig.observe_windows_with(&pts, keys, |obs| {
            push_row(&mut block, seq, obs, window_s);
            if let Some(p) = prints.as_deref_mut() {
                p.push(Fingerprint::of(obs));
            }
            seq += 1;
        });
        std::hint::black_box(&block);
        remaining -= take;
    }
    start.elapsed().as_nanos() as f64 / n_obs as f64
}

/// The traced replica over `rig`: the same work as [`untraced`], with
/// each layer call timed by its own start and stop, so loop control and
/// the assembly of the observation between calls are charged to no
/// layer.
pub fn traced(
    rig: &mut Rig,
    keys: &[SmcKey],
    chunk: usize,
    n_obs: usize,
    mut prints: Option<&mut Vec<Fingerprint>>,
) -> TracedPass {
    let channels = channels(keys);
    let window_s = rig.window_s();
    let mut batch = WindowBatch::new();
    let mut block = EventBlock::new();
    let mut obs = staging(keys);
    let mut pts: Vec<[u8; 16]> = Vec::with_capacity(chunk);
    let cost = SpanCost::calibrate(CALIBRATION_CALLS);
    let mut clock = LayerClock::<8>::default();
    let mut windows_total = 0u64;
    let mut reads_total = 0u64;
    let mut seq = 0u64;
    let start = Instant::now();
    let mut remaining = n_obs;
    while remaining > 0 {
        let take = remaining.min(chunk);
        clock.time(PLAINTEXT, || {
            pts.clear();
            pts.extend((0..take).map(|_| rig.random_plaintext()));
        });
        clock.time(BLOCK_BUILD, || block.reset(&channels));
        for &pt in &pts {
            let ciphertext = clock.time(ENCRYPT, || rig.victim.request_encrypt(pt));
            let before_pcpu_mj = clock.time(IOREPORT, || rig.ioreport.pcpu_total_mj());
            let mut windows = 0u32;
            loop {
                let n =
                    clock.time(UNTIL_PUBLISH, || rig.smc.read().windows_until_publish(window_s));
                clock.time(RUN_WINDOWS, || rig.soc.run_windows_into(n, window_s, &mut batch));
                clock.time(IOREPORT, || rig.ioreport.observe_windows(&batch));
                let published =
                    clock.time(SMC_OBSERVE, || !rig.smc.write().observe_windows(&batch).is_empty());
                windows += u32::try_from(n).unwrap_or(u32::MAX);
                if published {
                    break;
                }
            }
            obs.pcpu_delta_mj =
                clock.time(IOREPORT, || rig.ioreport.pcpu_total_mj()) - before_pcpu_mj;
            clock.time(READ_KEY, || {
                obs.smc.clear();
                obs.smc.extend(
                    keys.iter().map(|&k| (k, rig.client.read_key(k).ok().map(|v| v.value))),
                );
            });
            obs.plaintext = pt;
            obs.ciphertext = ciphertext;
            obs.time_s = rig.soc.time_s();
            obs.windows = windows;
            clock.time(BLOCK_BUILD, || push_row(&mut block, seq, &obs, window_s));
            if let Some(p) = prints.as_deref_mut() {
                p.push(Fingerprint::of(&obs));
            }
            windows_total += u64::from(windows);
            reads_total += keys.len() as u64;
            seq += 1;
        }
        std::hint::black_box(&block);
        remaining -= take;
    }
    let n = n_obs as f64;
    TracedPass {
        layer_ns: clock.layer_ns(cost).map(|ns| ns / n),
        total_ns: start.elapsed().as_nanos() as f64 / n,
        timer_ns: clock.timer_ns(cost) / n,
        windows_per_obs: windows_total as f64 / n,
        reads_per_obs: reads_total as f64 / n,
    }
}

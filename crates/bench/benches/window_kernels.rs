//! Window-simulation hot-loop bench: the PR-3 batched-engine trajectory.
//!
//! Compares the scalar window loop (`Soc::run_window` per window — now a
//! thin n=1 view over the engine, so it pays the segment setup every
//! window) against `Soc::run_windows` at several batch sizes, plus the
//! rig-level per-observation cost of `observe_window` vs the batched
//! `observe_windows` campaign path. All variants are bit-identical in
//! output (pinned by `crates/soc/tests/batch_equivalence.rs`), so the
//! numbers measure pure engine overhead.
//!
//! Expected shape on the 1-CPU dev container: the engine-level sweep wins
//! clearly (segment setup amortized over the batch). The rig-level
//! per-observation number is dominated by the SMC *publish* — originally a
//! per-sensor `BTreeMap` walk that cloned every sensor definition per
//! publish (~19 µs/observation, recorded as
//! [`RIG_OBS_NS_BEFORE_SMC_FLATTEN`]); the dense index-keyed sensor
//! runtime resolved once at `Smc::new` is what the current number
//! measures, and the JSON artifact keeps both so the before/after stays
//! visible.
//!
//! Besides the printed lines, the run records its numbers in
//! `BENCH_windows.json` at the workspace root (override with
//! `PSC_BENCH_OUT`). Runtime scales with `PSC_BENCH_BUDGET_MS` (default
//! 300 ms per kernel) so CI can smoke it in quick mode.

use psc_aes::leakage::LeakageModel;
use psc_bench::measure::{json_field, json_header, measure_ns, write_artifact};
use psc_core::rig::{Device, Rig};
use psc_core::victim::VictimKind;
use psc_smc::key::key;
use psc_soc::sched::SchedAttrs;
use psc_soc::workload::{shared_plaintext, AesWorkload};
use psc_soc::{Soc, SocSpec, WindowBatch};
use std::hint::black_box;
use std::sync::Arc;

const BENCH: &str = "window_kernels";
const BATCH_SIZES: [usize; 3] = [8, 64, 256];
/// Rig-level per-observation cost measured on this 1-CPU container before
/// the SMC publish pipeline was flattened (BTreeMap-walking publish, PR 3's
/// closing number) — kept as the comparison baseline for the artifact.
const RIG_OBS_NS_BEFORE_SMC_FLATTEN: f64 = 18_543.0;

fn victim_soc() -> Soc {
    let mut soc = Soc::new(SocSpec::macbook_air_m2(), 42);
    let model = Arc::new(LeakageModel::new(&[0x2Bu8; 16]).unwrap());
    let pt = shared_plaintext([0xA5u8; 16]);
    let workload = AesWorkload::new(model, pt);
    for i in 0..3 {
        soc.spawn(format!("aes{i}"), SchedAttrs::realtime_p_core(), Box::new(workload.clone()));
    }
    soc
}

fn main() {
    // --- SoC engine: scalar loop vs batched sweeps ------------------------
    let mut soc = victim_soc();
    let scalar = measure_ns(BENCH, "soc/run_window_scalar", || {
        black_box(soc.run_window(black_box(1.0)));
    });

    let mut batched_ns = Vec::new();
    for &n in &BATCH_SIZES {
        let mut soc = victim_soc();
        let mut batch = WindowBatch::new();
        let total = measure_ns(BENCH, &format!("soc/run_windows_{n}"), || {
            soc.run_windows_into(black_box(n), black_box(1.0), &mut batch);
            black_box(batch.len());
        });
        let per_window = total / n as f64;
        println!("{BENCH}/soc/run_windows_{n:<26} per window: {per_window:>10.1} ns");
        batched_ns.push(per_window);
    }
    let best_batched = batched_ns.iter().copied().fold(f64::INFINITY, f64::min);

    // --- Rig pipeline: per-observation cost -------------------------------
    let keys = [key("PHPC")];
    let mut rig = Rig::new(Device::MacbookAirM2, VictimKind::UserSpace, [0x2Bu8; 16], 7);
    let rig_scalar = measure_ns(BENCH, "rig/observe_window", || {
        let pt = rig.random_plaintext();
        black_box(rig.observe_window(black_box(pt), &keys));
    });

    const RIG_CHUNK: usize = 32;
    let mut rig = Rig::new(Device::MacbookAirM2, VictimKind::UserSpace, [0x2Bu8; 16], 7);
    let rig_batched_total = measure_ns(BENCH, "rig/observe_windows_32", || {
        let pts: Vec<[u8; 16]> = (0..RIG_CHUNK).map(|_| rig.random_plaintext()).collect();
        black_box(rig.observe_windows(black_box(&pts), &keys));
    });
    let rig_batched = rig_batched_total / RIG_CHUNK as f64;
    println!("{BENCH}/rig/observe_windows_32{:<9} per obs:    {rig_batched:>10.1} ns", "");

    // The streaming form the block-building campaign drivers actually
    // use: one reused Observation staging buffer, no output Vec. This is
    // what closed the `rig_batched_speedup < 1` regression the
    // Vec-returning form showed at chunk 32 (its two allocations per
    // observation outweighed the batching win on this container).
    let mut rig = Rig::new(Device::MacbookAirM2, VictimKind::UserSpace, [0x2Bu8; 16], 7);
    let mut pts: Vec<[u8; 16]> = Vec::with_capacity(RIG_CHUNK);
    let rig_stream_total = measure_ns(BENCH, "rig/observe_windows_stream_32", || {
        pts.clear();
        for _ in 0..RIG_CHUNK {
            pts.push(rig.random_plaintext());
        }
        rig.observe_windows_with(black_box(&pts), &keys, |obs| {
            black_box(obs.windows);
        });
    });
    let rig_stream = rig_stream_total / RIG_CHUNK as f64;
    println!("{BENCH}/rig/observe_windows_stream_32{:<2} per obs:    {rig_stream:>10.1} ns", "");

    // The same streaming loop as a CPA campaign runs it: the M2
    // kernel-module victim with all four CPA keys read per observation
    // (the single-key variants above read one).
    let cpa_keys = Device::MacbookAirM2.cpa_keys();
    let mut rig = Rig::new(Device::MacbookAirM2, VictimKind::KernelModule, [0x2Bu8; 16], 7);
    let rig_cpa4_total = measure_ns(BENCH, "rig/observe_windows_stream_32_cpa4", || {
        pts.clear();
        for _ in 0..RIG_CHUNK {
            pts.push(rig.random_plaintext());
        }
        rig.observe_windows_with(black_box(&pts), &cpa_keys, |obs| {
            black_box(obs.windows);
        });
    });
    let rig_cpa4 = rig_cpa4_total / RIG_CHUNK as f64;
    println!("{BENCH}/rig/observe_windows_stream_32_cpa4 per obs:  {rig_cpa4:>10.1} ns");

    let engine_speedup = scalar / best_batched;
    let rig_speedup = rig_scalar / rig_stream;
    let smc_flatten_speedup = RIG_OBS_NS_BEFORE_SMC_FLATTEN / rig_stream;
    println!();
    println!("batched engine vs scalar loop:   {engine_speedup:.2}x");
    println!("streaming rig vs per-observation: {rig_speedup:.2}x");
    println!(
        "rig obs vs pre-flatten SMC publish ({:.0} ns): {smc_flatten_speedup:.2}x",
        RIG_OBS_NS_BEFORE_SMC_FLATTEN
    );

    // --- BENCH_windows.json ----------------------------------------------
    let mut json = json_header(BENCH);
    json_field(&mut json, "scalar_window_ns", scalar);
    for (&n, &per_window) in BATCH_SIZES.iter().zip(&batched_ns) {
        json_field(&mut json, &format!("batched_window_ns_b{n}"), per_window);
    }
    json_field(&mut json, "batched_engine_speedup", engine_speedup);
    json_field(&mut json, "rig_observe_window_ns", rig_scalar);
    json_field(&mut json, "rig_observe_windows32_per_obs_ns", rig_batched);
    json_field(&mut json, "rig_observe_windows_stream32_per_obs_ns", rig_stream);
    json_field(&mut json, "rig_observe_windows_stream32_cpa4_per_obs_ns", rig_cpa4);
    json_field(&mut json, "rig_batched_speedup", rig_speedup);
    json_field(&mut json, "rig_obs_ns_before_smc_flatten", RIG_OBS_NS_BEFORE_SMC_FLATTEN);
    json_field(&mut json, "smc_flatten_speedup", smc_flatten_speedup);
    let out =
        write_artifact(json, &format!("{}/../../BENCH_windows.json", env!("CARGO_MANIFEST_DIR")));
    println!("\nwrote {out}");
}

//! Telemetry-bus kernel bench: the PR-5 columnar-pipeline trajectory.
//!
//! Compares the two transports end to end — scalar events (one bounded
//! ring push/pop and one `Processor` dispatch per event, ~(2 + C) events
//! per observation) versus columnar [`EventBlock`]s (one synchronization
//! and one dispatch per `OBS_CHUNK`-row block, processors updating per
//! column) — over the same observation stream into the same streaming
//! TVLA consumer. Both paths produce bit-identical accumulators
//! (`tests/block_equivalence.rs`), so the numbers measure pure pipeline
//! overhead. The block path here clones each block into the bus; the
//! real campaign drivers recycle processed blocks back to the producer,
//! so live pipelines do strictly better than the benched figure.
//!
//! Also measures the observability tax: the same per-block pipeline
//! with the campaign drivers' consume-side instrumentation (two clock
//! reads and a histogram/counter update per block) against the
//! uninstrumented loop — the `metrics_overhead_pct` datapoint backing
//! the "zero-cost when off, a few percent when on" contract (when off,
//! no instrumentation code runs at all, so the off path IS the
//! uninstrumented number).
//!
//! Also tracks the branch-free `Cpa::correlations_into` sweep against
//! the pre-rewrite number (the skip-empty-bin loop over the 16-byte
//! `Bin` array, recorded from `BENCH_leakage.json` on this container).
//!
//! The PR-8 additions measure the masked 4-lane TVLA ingestion kernel
//! against its pinned-scalar twin (`tvla_*_simd_ns` / `tvla_simd_speedup`)
//! and sweep the block size over the autotuner's `OBS_CHUNK` candidate
//! grid, recording the winner as `autotune_obs_chunk`.
//!
//! Besides the printed lines, the run records its numbers in
//! `BENCH_bus.json` at the workspace root (override with
//! `PSC_BENCH_OUT`). Runtime scales with `PSC_BENCH_BUDGET_MS` (default
//! 300 ms per kernel) so CI can smoke it in quick mode.

use psc_bench::measure::{
    json_field, json_header, json_string_field, measure_ns, write_artifact,
    CPA_CORRELATIONS_BEFORE_BRANCHFREE_NS,
};
use psc_sca::cpa::{Cpa, HypTable};
use psc_sca::model::Rd0Hw;
use psc_sca::stats::{MomentsQuad, RunningMoments};
use psc_sca::trace::Trace;
use psc_sca::tvla::PlaintextClass;
use psc_smc::key::key;
use psc_telemetry::block::EventBlock;
use psc_telemetry::event::{ChannelId, Event, SampleEvent, SchedEvent, WindowEvent};
use psc_telemetry::metrics::{names, MetricsRegistry};
use psc_telemetry::processor::Pump;
use psc_telemetry::processors::StreamingTvla;
use psc_telemetry::ring::{channel, OverflowPolicy};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const BENCH: &str = "bus_kernels";
/// Observations per measured pipeline iteration.
const OBS: usize = 512;
/// Rows per block — the campaign drivers' default `OBS_CHUNK`.
const BLOCK_ROWS: usize = 32;
/// Block sizes swept by the in-bench autotune pass (the autotuner's
/// `OBS_CHUNK_CANDIDATES`).
const BLOCK_ROWS_CANDIDATES: [usize; 4] = [16, 32, 64, 128];

fn channels() -> [ChannelId; 3] {
    [ChannelId::Smc(key("PHPC")), ChannelId::Smc(key("PSTR")), ChannelId::Pcpu]
}

/// One synthetic campaign stream: `OBS` observations, three channels,
/// TVLA labels cycling through passes and classes.
fn observation(i: usize) -> (WindowEvent, [f64; 3], SchedEvent) {
    let time_s = i as f64;
    let window = WindowEvent {
        seq: i as u64,
        time_s,
        pass: (i % 2) as u8,
        class: Some(PlaintextClass::ALL[i % 3]),
        plaintext: [i as u8; 16],
        ciphertext: [(i * 7) as u8; 16],
    };
    let values = [5.0 + (i % 11) as f64 * 0.01, 1.2 + (i % 5) as f64 * 0.02, 900.0 + i as f64];
    let sched = SchedEvent { time_s, windows_consumed: 1, window_s: 1.0, denied_reads: 0 };
    (window, values, sched)
}

fn scalar_events() -> Vec<Event> {
    let chans = channels();
    let mut events = Vec::with_capacity(OBS * (2 + chans.len()));
    for i in 0..OBS {
        let (window, values, sched) = observation(i);
        events.push(Event::Window(window));
        for (&channel, &value) in chans.iter().zip(&values) {
            events.push(Event::Sample(SampleEvent { time_s: window.time_s, channel, value }));
        }
        events.push(Event::Sched(sched));
    }
    events
}

fn blocks_of(rows: usize) -> Vec<EventBlock> {
    let chans = channels();
    (0..OBS / rows)
        .map(|b| {
            let mut block = EventBlock::new();
            block.reset(&chans);
            for r in 0..rows {
                let (window, values, sched) = observation(b * rows + r);
                block.begin(window);
                for (col, &value) in values.iter().enumerate() {
                    block.sample(col, value);
                }
                block.commit(sched);
            }
            block
        })
        .collect()
}

fn blocks() -> Vec<EventBlock> {
    blocks_of(BLOCK_ROWS)
}

/// Per-observation pipeline cost for one block size: publish every
/// prebuilt block, then drain them into the TVLA consumer.
fn per_obs_ns(name: &str, prebuilt: &[EventBlock]) -> f64 {
    let (tx, rx) = channel(prebuilt.len(), OverflowPolicy::Block);
    let mut tvla = StreamingTvla::new();
    let mut pump = Pump::new();
    pump.attach(&mut tvla);
    let total = measure_ns(BENCH, name, || {
        for block in prebuilt {
            tx.send(block.clone()).expect("receiver alive");
        }
        while let Some(block) = rx.try_recv() {
            pump.dispatch_block(&block);
        }
    });
    total / OBS as f64
}

fn main() {
    // --- Pipeline: scalar events vs columnar blocks ------------------------
    let events = scalar_events();
    let (tx, rx) = channel(events.len(), OverflowPolicy::Block);
    let mut tvla = StreamingTvla::new();
    let mut pump = Pump::new();
    pump.attach(&mut tvla);
    let per_event_total = measure_ns(BENCH, "pipeline/per_event_512obs", || {
        for event in &events {
            tx.send(*event).expect("receiver alive");
        }
        while let Some(event) = rx.try_recv() {
            pump.dispatch(&event);
        }
    });
    let per_event = per_event_total / OBS as f64;
    println!("{BENCH}/pipeline/per_event{:<16} per obs:    {per_event:>10.1} ns", "");

    let prebuilt = blocks();
    let per_block = per_obs_ns("pipeline/per_block_512obs", &prebuilt);
    println!("{BENCH}/pipeline/per_block{:<16} per obs:    {per_block:>10.1} ns", "");

    // Same per-block loop with the campaign drivers' consume-side
    // instrumentation: a block/observation counter bump and a timed
    // dispatch recorded into the `consume.on_block_ns` histogram —
    // exactly what `Session::pump_blocks` does when metrics are on.
    let registry = MetricsRegistry::new();
    let blocks_ctr = registry.counter(names::BUS_BLOCKS);
    let obs_ctr = registry.counter(names::BUS_OBS);
    let consume_ns = registry.histogram(names::CONSUME_BLOCK_NS);
    let (tx, rx) = channel(prebuilt.len(), OverflowPolicy::Block);
    let mut tvla = StreamingTvla::new();
    let mut pump = Pump::new();
    pump.attach(&mut tvla);
    let per_block_metrics_total = measure_ns(BENCH, "pipeline/per_block_metrics_512obs", || {
        for block in &prebuilt {
            tx.send(block.clone()).expect("receiver alive");
        }
        while let Some(block) = rx.try_recv() {
            blocks_ctr.inc();
            obs_ctr.add(block.len() as u64);
            let started = Instant::now();
            pump.dispatch_block(&block);
            consume_ns.record(started.elapsed().as_nanos() as u64);
        }
    });
    let per_block_metrics = per_block_metrics_total / OBS as f64;
    let metrics_overhead_pct = (per_block_metrics / per_block - 1.0) * 100.0;
    println!(
        "{BENCH}/pipeline/per_block_metrics{:<8} per obs:    {per_block_metrics:>10.1} ns",
        ""
    );

    // --- TVLA column ingestion: SIMD quad vs pinned scalar ----------------
    // The masked 4-lane Welford kernel behind `StreamingTvla::on_block`,
    // fed the same present/denied column pattern both ways.
    let quad_rows = 4096;
    let quad_cols: [Vec<Option<f64>>; 4] = core::array::from_fn(|lane| {
        (0..quad_rows)
            .map(|r| (r % 7 != lane).then_some(5.0 + (r % 11) as f64 * 0.01 + lane as f64))
            .collect()
    });
    let quad_refs: [&[Option<f64>]; 4] = core::array::from_fn(|i| quad_cols[i].as_slice());
    let fresh_quad = || MomentsQuad::load(core::array::from_fn(|_| RunningMoments::new()));
    let tvla_ingest_simd = measure_ns(BENCH, "tvla/quad_ingest_simd", || {
        let mut quad = fresh_quad();
        quad.extend_columns(quad_refs);
        black_box(quad.store()[0].raw().1);
    });
    let tvla_ingest_scalar = measure_ns(BENCH, "tvla/quad_ingest_scalar", || {
        let mut quad = fresh_quad();
        quad.extend_columns_scalar(quad_refs);
        black_box(quad.store()[0].raw().1);
    });

    // --- Autotune: block-size sweep over the real pipeline ----------------
    // The same candidate grid the `psc_core::tune` calibrator sweeps for
    // `OBS_CHUNK`; records every candidate plus the winner.
    let mut sweep = Vec::new();
    for rows in BLOCK_ROWS_CANDIDATES {
        let candidate = blocks_of(rows);
        sweep.push((rows, per_obs_ns(&format!("pipeline/per_block_rows{rows}"), &candidate)));
    }
    let (autotune_rows, autotune_ns) =
        sweep.iter().copied().min_by(|a, b| a.1.total_cmp(&b.1)).expect("non-empty sweep");

    // --- Correlations: branch-free sweep vs recorded baseline -------------
    let table = Arc::new(HypTable::for_model(&Rd0Hw));
    let mut cpa = Cpa::with_table(Box::new(Rd0Hw), Arc::clone(&table));
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    for _ in 0..4096 {
        let mut pt = [0u8; 16];
        for b in pt.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *b = (state >> 32) as u8;
        }
        let value = f64::from(pt.iter().map(|&x| x.count_ones()).sum::<u32>());
        cpa.add_trace(&Trace { value, plaintext: pt, ciphertext: pt });
    }
    let mut corr = [0.0f64; 256];
    let correlations = measure_ns(BENCH, "cpa/correlations_into_one_byte", || {
        cpa.correlations_into(black_box(0), &mut corr);
        black_box(corr[0]);
    });

    let pipeline_speedup = per_event / per_block;
    let correlations_speedup = CPA_CORRELATIONS_BEFORE_BRANCHFREE_NS / correlations;
    let tvla_simd_speedup = tvla_ingest_scalar / tvla_ingest_simd;
    println!();
    println!("per-block vs per-event pipeline: {pipeline_speedup:.2}x");
    println!("metrics-on per-block overhead:   {metrics_overhead_pct:+.1}%");
    println!("tvla quad ingest simd ({}) vs scalar: {tvla_simd_speedup:.2}x", pulp::backend_name());
    println!("autotuned block rows:            {autotune_rows} ({autotune_ns:.1} ns/obs)");
    println!(
        "branch-free correlations vs pre-rewrite ({CPA_CORRELATIONS_BEFORE_BRANCHFREE_NS:.0} ns): \
         {correlations_speedup:.2}x"
    );

    // --- BENCH_bus.json ----------------------------------------------------
    let mut json = json_header(BENCH);
    json_field(&mut json, "per_event_pipeline_ns_per_obs", per_event);
    json_field(&mut json, "per_block_pipeline_ns_per_obs", per_block);
    json_field(&mut json, "per_block_pipeline_metrics_ns_per_obs", per_block_metrics);
    json_field(&mut json, "metrics_overhead_pct", metrics_overhead_pct);
    json_field(&mut json, "block_pipeline_speedup", pipeline_speedup);
    json_field(&mut json, "cpa_correlations_one_byte_ns", correlations);
    json_field(
        &mut json,
        "cpa_correlations_before_branchfree_ns",
        CPA_CORRELATIONS_BEFORE_BRANCHFREE_NS,
    );
    json_field(&mut json, "correlations_branchfree_speedup", correlations_speedup);
    json_string_field(&mut json, "simd_backend", pulp::backend_name());
    json_field(&mut json, "tvla_quad_ingest_simd_ns", tvla_ingest_simd);
    json_field(&mut json, "tvla_quad_ingest_scalar_ns", tvla_ingest_scalar);
    json_field(&mut json, "tvla_simd_speedup", tvla_simd_speedup);
    for (rows, ns) in &sweep {
        json_field(&mut json, &format!("per_block_rows{rows}_ns_per_obs"), *ns);
    }
    json_field(&mut json, "autotune_obs_chunk", autotune_rows as f64);
    json_field(&mut json, "autotune_obs_chunk_ns_per_obs", autotune_ns);
    let out = write_artifact(json, &format!("{}/../../BENCH_bus.json", env!("CARGO_MANIFEST_DIR")));
    println!("\nwrote {out}");
}

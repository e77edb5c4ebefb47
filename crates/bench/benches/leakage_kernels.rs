//! Leakage/CPA hot-kernel bench: the PR-2 optimisation trajectory.
//!
//! Compares the three generations of the per-trace activity evaluation —
//! traced (`encrypt_traced` + trace scan), fused (observer kernel,
//! allocation-free), memoized (`AesWorkload` per-plaintext cache) — and the
//! two CPA table strategies (rebuild the 512 KB hypothesis table per
//! accumulator vs `Arc`-share one guess-major table), plus the
//! `correlations()` sweep that the guess-major layout accelerates. The
//! PR-8 additions measure the runtime-dispatched SIMD correlation sweep
//! against its pinned-scalar twin (`*_simd_ns` / `simd_speedup`) and run
//! the `psc_core::tune` calibrator once, recording the winning constants
//! as `autotune_*` fields (`PSC_TUNE_REPS` trims the calibration cost in
//! CI).
//!
//! Besides the printed `median` lines, the run records its numbers
//! in `BENCH_leakage.json` at the workspace root (override the path with
//! `PSC_BENCH_OUT`) — the first datapoint of the BENCH trajectory. Runtime
//! scales with `PSC_BENCH_BUDGET_MS` (default 300 ms per kernel), so CI can
//! smoke it in quick mode.

use psc_aes::leakage::LeakageModel;
use psc_bench::measure::{
    json_field, json_header, json_string_field, measure_ns, write_artifact,
    CPA_CORRELATIONS_BEFORE_BRANCHFREE_NS,
};
use psc_sca::cpa::{Cpa, HypTable};
use psc_sca::model::Rd0Hw;
use psc_sca::trace::Trace;
use psc_soc::workload::{shared_plaintext, AesWorkload};
use std::hint::black_box;
use std::sync::Arc;

const BENCH: &str = "leakage_kernels";

fn main() {
    let key = [0x2Bu8; 16];
    let model = LeakageModel::new(&key).expect("valid key");
    let pt = [0xA5u8; 16];

    // --- Activity kernels -------------------------------------------------
    let traced = measure_ns(BENCH, "activity/traced", || {
        black_box(model.activity_traced(black_box(&pt)).0);
    });
    let fused = measure_ns(BENCH, "activity/fused", || {
        black_box(model.activity(black_box(&pt)));
    });
    let shared_pt = shared_plaintext(pt);
    let workload = AesWorkload::new(Arc::new(model), Arc::clone(&shared_pt));
    let memoized = measure_ns(BENCH, "activity/memoized_workload", || {
        black_box(workload.deterministic_signal_w());
    });

    // --- CPA table construction ------------------------------------------
    let table_rebuild = measure_ns(BENCH, "cpa/accumulator_rebuilt_table", || {
        black_box(Cpa::new(Box::new(Rd0Hw)));
    });
    let table = Arc::new(HypTable::for_model(&Rd0Hw));
    let table_shared = measure_ns(BENCH, "cpa/accumulator_shared_table", || {
        black_box(Cpa::with_table(Box::new(Rd0Hw), Arc::clone(&table)));
    });

    // --- Correlation sweep over the guess-major table ---------------------
    let mut cpa = Cpa::with_table(Box::new(Rd0Hw), Arc::clone(&table));
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    for _ in 0..4096 {
        let mut trace_pt = [0u8; 16];
        for b in trace_pt.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *b = (state >> 32) as u8;
        }
        let value = f64::from(trace_pt.iter().map(|&x| x.count_ones()).sum::<u32>());
        cpa.add_trace(&Trace { value, plaintext: trace_pt, ciphertext: trace_pt });
    }
    let correlations = measure_ns(BENCH, "cpa/correlations_one_byte", || {
        black_box(cpa.correlations(black_box(0)));
    });
    let mut corr_buf = [0.0f64; 256];
    let correlations_into = measure_ns(BENCH, "cpa/correlations_into_one_byte", || {
        cpa.correlations_into(black_box(0), &mut corr_buf);
        black_box(corr_buf[0]);
    });

    // --- SIMD dispatch vs pinned-scalar sweep -----------------------------
    // `correlations_into` above runs whatever backend the dispatcher picked
    // (AVX2 on this container); the `_scalar` twin runs the identical
    // algorithm on the scalar backend, so the ratio is the pure vector win.
    let correlations_scalar = measure_ns(BENCH, "cpa/correlations_into_scalar", || {
        cpa.correlations_into_scalar(black_box(0), &mut corr_buf);
        black_box(corr_buf[0]);
    });
    let mut corr_all = [[0.0f64; 256]; 16];
    let all_simd = measure_ns(BENCH, "cpa/correlations_all_bytes_simd", || {
        cpa.correlations_all_into(&mut corr_all);
        black_box(corr_all[0][0]);
    });
    let all_scalar = measure_ns(BENCH, "cpa/correlations_all_bytes_scalar", || {
        cpa.correlations_all_into_scalar(&mut corr_all);
        black_box(corr_all[0][0]);
    });

    // --- Autotuner: one-shot calibration ----------------------------------
    let tuned = psc_core::tune::calibrate();
    println!(
        "{BENCH}/autotune: unroll={} obs_chunk={} replay_chunk={} bus_capacity={}",
        tuned.cpa_unroll, tuned.obs_chunk, tuned.replay_chunk, tuned.bus_capacity
    );

    let fused_speedup = traced / fused;
    let memo_speedup = traced / memoized;
    let table_speedup = table_rebuild / table_shared;
    let correlations_speedup = CPA_CORRELATIONS_BEFORE_BRANCHFREE_NS / correlations;
    let simd_speedup = correlations_scalar / correlations_into;
    let all_simd_speedup = all_scalar / all_simd;
    println!();
    println!("fused vs traced activity:        {fused_speedup:.2}x");
    println!("memoized workload vs traced:     {memo_speedup:.2}x");
    println!("shared vs rebuilt CPA table:     {table_speedup:.2}x");
    println!("branch-free correlations vs pre-rewrite: {correlations_speedup:.2}x");
    println!("simd ({}) vs scalar correlations:   {simd_speedup:.2}x", pulp::backend_name());
    println!("simd vs scalar all-bytes sweep:  {all_simd_speedup:.2}x");

    // --- BENCH_leakage.json ----------------------------------------------
    let mut json = json_header(BENCH);
    json_field(&mut json, "traced_activity_ns", traced);
    json_field(&mut json, "fused_activity_ns", fused);
    json_field(&mut json, "memoized_workload_signal_ns", memoized);
    json_field(&mut json, "fused_speedup_vs_traced", fused_speedup);
    json_field(&mut json, "memoized_speedup_vs_traced", memo_speedup);
    json_field(&mut json, "cpa_accumulator_rebuilt_table_ns", table_rebuild);
    json_field(&mut json, "cpa_accumulator_shared_table_ns", table_shared);
    json_field(&mut json, "shared_table_speedup", table_speedup);
    json_field(&mut json, "cpa_correlations_one_byte_ns", correlations);
    json_field(&mut json, "cpa_correlations_into_one_byte_ns", correlations_into);
    json_field(
        &mut json,
        "cpa_correlations_before_branchfree_ns",
        CPA_CORRELATIONS_BEFORE_BRANCHFREE_NS,
    );
    json_field(&mut json, "correlations_branchfree_speedup", correlations_speedup);
    json_string_field(&mut json, "simd_backend", pulp::backend_name());
    json_field(&mut json, "cpa_correlations_simd_ns", correlations_into);
    json_field(&mut json, "cpa_correlations_scalar_ns", correlations_scalar);
    json_field(&mut json, "simd_speedup", simd_speedup);
    json_field(&mut json, "cpa_correlations_all_bytes_simd_ns", all_simd);
    json_field(&mut json, "cpa_correlations_all_bytes_scalar_ns", all_scalar);
    json_field(&mut json, "all_bytes_simd_speedup", all_simd_speedup);
    json_field(&mut json, "autotune_cpa_unroll", tuned.cpa_unroll as f64);
    json_field(&mut json, "autotune_obs_chunk", tuned.obs_chunk as f64);
    json_field(&mut json, "autotune_replay_chunk", tuned.replay_chunk as f64);
    json_field(&mut json, "autotune_bus_capacity", tuned.bus_capacity as f64);
    let out =
        write_artifact(json, &format!("{}/../../BENCH_leakage.json", env!("CARGO_MANIFEST_DIR")));
    println!("\nwrote {out}");
}

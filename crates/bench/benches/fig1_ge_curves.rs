//! End-to-end bench: Figure 1 (GE-curve computation for both victims).

use psc_bench::bench_config;
use psc_bench::measure::measure_ns;
use psc_core::experiments::cpa::collect_m2_user_traces;
use psc_core::experiments::fig1::{curves_for, run_fig1b};
use psc_smc::key::key;

fn main() {
    let cfg = bench_config();
    let traces = collect_m2_user_traces(&cfg);
    let phpc = &traces[&key("PHPC")];
    measure_ns("fig1", "curves_three_models_user", || {
        curves_for(phpc, &cfg.secret_key, "PHPC (M2 user)")
    });
    measure_ns("fig1", "fig1b_kernel_end_to_end", || run_fig1b(&cfg));
}

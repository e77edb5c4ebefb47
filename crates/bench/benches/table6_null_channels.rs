//! End-to-end bench: Table 6 (the PCPU and throttling-timing null
//! channels).

use psc_bench::bench_config;
use psc_bench::measure::measure_ns;
use psc_core::experiments::table6::run_table6;
use psc_core::experiments::throttling::timing_tvla_datasets;

fn main() {
    let mut cfg = bench_config();
    cfg.tvla_traces_per_class = 100;
    cfg.timing_traces_per_class = 15;
    measure_ns("table6", "full_table6", || run_table6(&cfg));
    measure_ns("table6", "timing_campaign_only", || timing_tvla_datasets(&cfg));
}

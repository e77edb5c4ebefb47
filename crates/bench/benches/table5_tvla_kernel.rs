//! End-to-end bench: Table 5 (TVLA against the kernel-module victim).

use psc_bench::bench_config;
use psc_bench::measure::measure_ns;
use psc_core::experiments::tvla::run_table5;

fn main() {
    let mut cfg = bench_config();
    cfg.tvla_traces_per_class = 150;
    measure_ns("table5", "tvla_kernel_150_per_class", || run_table5(&cfg));
}

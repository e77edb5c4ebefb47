//! End-to-end bench: the §4 throttling study (governor + thermal dynamics).

use psc_bench::bench_config;
use psc_bench::measure::measure_ns;
use psc_core::experiments::throttling::run_throttling_study;

fn main() {
    let cfg = bench_config();
    measure_ns("throttling", "section4_study", || run_throttling_study(&cfg));
}

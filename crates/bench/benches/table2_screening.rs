//! End-to-end bench: Table 2 (idle-vs-busy SMC key screening).

use psc_bench::bench_config;
use psc_bench::measure::measure_ns;
use psc_core::experiments::screening::screen_device;
use psc_core::Device;

fn main() {
    let cfg = bench_config();
    measure_ns("table2", "screen_m2", || screen_device(Device::MacbookAirM2, &cfg));
    measure_ns("table2", "screen_m1", || screen_device(Device::MacMiniM1, &cfg));
}

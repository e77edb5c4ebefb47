//! End-to-end bench: Table 3 (TVLA campaign against the user-space victim)
//! at a reduced trace count.

use psc_bench::bench_config;
use psc_bench::measure::measure_ns;
use psc_core::experiments::tvla::run_table3;
use psc_core::Campaign;
use psc_core::{Device, VictimKind};

fn main() {
    let mut cfg = bench_config();
    cfg.tvla_traces_per_class = 150;
    measure_ns("table3", "tvla_user_150_per_class", || run_table3(&cfg));
    // Sharded streaming variant of the same campaign (PHPC-grade keys,
    // merged online accumulators instead of retained datasets).
    let keys = Device::MacbookAirM2.table2_keys();
    measure_ns("table3", "tvla_user_150_per_class_streaming_x4", || {
        Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, cfg.secret_key, cfg.seed)
            .keys(&keys)
            .traces(cfg.tvla_traces_per_class)
            .shards(4)
            .session()
            .tvla()
    });
}

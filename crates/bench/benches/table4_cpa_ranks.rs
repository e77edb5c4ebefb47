//! End-to-end bench: Table 4 (trace collection + Rd0-HW CPA ranking) at a
//! reduced trace count, split into its two phases.

use psc_bench::bench_config;
use psc_bench::measure::measure_ns;
use psc_core::experiments::cpa::{collect_m2_user_traces, rd0_ranks, run_table4};
use psc_core::{Campaign, Device, VictimKind};
use psc_sca::model::Rd0Hw;
use psc_smc::key::key;

fn main() {
    let cfg = bench_config();
    measure_ns("table4", "collect_m2_user_traces", || collect_m2_user_traces(&cfg));

    let traces = collect_m2_user_traces(&cfg);
    let phpc = &traces[&key("PHPC")];
    measure_ns("table4", "rd0_cpa_ranks_phpc", || rd0_ranks(phpc, &cfg.secret_key));

    measure_ns("table4", "full_table4", || run_table4(&cfg));

    // Sharded streaming variant: collection and incremental CPA fused in
    // one pipeline, no trace vectors retained.
    measure_ns("table4", "m2_user_cpa_streaming_x4", || {
        Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, cfg.secret_key, cfg.seed)
            .keys(&[key("PHPC")])
            .traces(cfg.cpa_traces_m2)
            .shards(4)
            .session()
            .cpa(|| Box::new(Rd0Hw))
            .ranks(key("PHPC"), &cfg.secret_key)
    });
}

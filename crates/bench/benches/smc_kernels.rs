//! Kernel benches: the simulation substrate (SoC window evaluation, SMC
//! publish pipeline, IOKit read path, fuzzer dump).

use psc_bench::measure::measure_ns;
use psc_core::{Device, Rig, VictimKind};
use psc_smc::fuzzer::dump_keys;
use psc_smc::key::key;
use std::hint::black_box;

const BENCH: &str = "substrate";

fn rig() -> Rig {
    Rig::new(Device::MacbookAirM2, VictimKind::UserSpace, [1u8; 16], 9)
}

/// A fresh rig whose SMC has published one window, so keys are readable.
fn published_rig() -> Rig {
    let mut rig = rig();
    let report = rig.soc.run_window(1.0);
    rig.smc.write().observe_window(&report);
    rig
}

fn main() {
    let mut soc_rig = rig();
    measure_ns(BENCH, "soc_run_window", || soc_rig.soc.run_window(1.0));

    let mut step_rig = rig();
    measure_ns(BENCH, "soc_step", || step_rig.soc.step(0.05));

    let mut smc_rig = rig();
    let report = smc_rig.soc.run_window(1.0);
    measure_ns(BENCH, "smc_observe_window", || {
        smc_rig.smc.write().observe_window(black_box(&report))
    });

    let read_rig = published_rig();
    let phpc = key("PHPC");
    measure_ns(BENCH, "iokit_read_key", || {
        read_rig.client.read_key(black_box(phpc)).expect("readable")
    });

    let dump_rig = published_rig();
    measure_ns(BENCH, "fuzzer_dump_p_keys", || {
        dump_keys(&dump_rig.client, Some('P')).expect("enumeration")
    });

    let mut e2e_rig = rig();
    let keys = [key("PHPC"), key("PDTR"), key("PMVC"), key("PSTR")];
    measure_ns(BENCH, "end_to_end_observation", || {
        let pt = e2e_rig.random_plaintext();
        e2e_rig.observe_window(pt, &keys)
    });
}

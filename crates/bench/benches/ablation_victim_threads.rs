//! Ablation: victim thread count (§3.3 amplification).
//!
//! The paper replicates the victim across three P-cores with identical
//! input "therefore the data-dependent power consumption is amplified".
//! This bench installs 1/2/3-thread victims and runs the same CPA budget
//! against each, printing the resulting guessing entropy.

use psc_bench::measure::measure_ns;
use psc_core::experiments::cpa::rd0_ranks;
use psc_core::rig::Device;
use psc_core::victim::{AesVictim, VictimKind};
use psc_sca::rank::guessing_entropy;
use psc_sca::trace::{Trace, TraceSet};
use psc_smc::iokit::{share, SmcUserClient};
use psc_smc::key::key;
use psc_smc::Smc;
use psc_soc::Soc;
use std::sync::Arc;

const KEY: [u8; 16] = [
    0xB7, 0x6F, 0xEB, 0x3E, 0xD5, 0x9D, 0x77, 0xFA, 0xCE, 0xBB, 0x67, 0xF3, 0x5E, 0xAD, 0xD9, 0x7C,
];

/// Collect PHPC traces with an explicit victim thread count (the `Rig`
/// type pins the paper's 3/1 counts, so this assembles the stack by hand).
fn collect_with_threads(threads: usize, n: usize) -> TraceSet {
    let device = Device::MacbookAirM2;
    let mut soc = Soc::new(device.soc_spec(), 37);
    let victim = AesVictim::install_with_threads(
        &mut soc,
        VictimKind::UserSpace,
        KEY,
        device.aes_signal(),
        threads,
    );
    let smc = share(Smc::new(device.sensor_set(), 38));
    let client = SmcUserClient::new(Arc::clone(&smc));
    let phpc = key("PHPC");

    let mut rng = rand::rngs::mock::StepRng::new(0, 0xDEAD_BEEF_DEAD_BEEF);
    let mut set = TraceSet::with_capacity("PHPC", n);
    use rand::Rng;
    for _ in 0..n {
        let mut pt = [0u8; 16];
        rng.fill(&mut pt);
        let ct = victim.request_encrypt(pt);
        let report = soc.run_window(1.0);
        smc.write().observe_window(&report);
        let value = client.read_key(phpc).expect("readable").value;
        set.push(Trace { value, plaintext: pt, ciphertext: ct });
    }
    set
}

fn main() {
    let n = 4_000;
    for threads in [1usize, 2, 3] {
        let set = collect_with_threads(threads, n);
        let ge = guessing_entropy(&rd0_ranks(&set, &KEY));
        eprintln!("[ablation_victim_threads] {threads} thread(s): GE = {ge:.1} bits at {n} traces");
        measure_ns("ablation_victim_threads", &format!("collect_{threads}_threads"), || {
            collect_with_threads(threads, 500)
        });
    }
}

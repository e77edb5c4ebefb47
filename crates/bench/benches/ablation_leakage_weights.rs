//! Ablation: the default leakage-weight calibration of `psc_aes::leakage`.
//!
//! Generates synthetic noisy channels under three weight profiles and runs
//! Rd0-HW CPA on each. Alongside the timing numbers, the bench prints the
//! resulting guessing entropy once per profile so the quality effect of
//! the calibration is visible:
//!
//! * `paper-calibrated` — round-0 dominant (the default): Rd0-HW recovers;
//! * `uniform` — all rounds equal: round-0 share of the signal shrinks,
//!   recovery degrades;
//! * `hd-enabled` — register-overwrite leakage added: Rd10-HD would start
//!   to work (counterfactual to the paper's datapath).

use psc_aes::leakage::{LeakageModel, LeakageWeights};
use psc_bench::measure::measure_ns;
use psc_sca::cpa::Cpa;
use psc_sca::model::Rd0Hw;
use psc_sca::rank::guessing_entropy;
use psc_sca::trace::{Trace, TraceSet};
use psc_soc::noise::gaussian;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

const KEY: [u8; 16] = [
    0xB7, 0x6F, 0xEB, 0x3E, 0xD5, 0x9D, 0x77, 0xFA, 0xCE, 0xBB, 0x67, 0xF3, 0x5E, 0xAD, 0xD9, 0x7C,
];

fn synthetic_channel(weights: LeakageWeights, n: usize, noise_sigma: f64) -> TraceSet {
    let model = LeakageModel::with_weights(&KEY, weights).expect("valid key");
    let mut rng = ChaCha12Rng::seed_from_u64(4242);
    let mut set = TraceSet::with_capacity("ablation", n);
    for _ in 0..n {
        let mut pt = [0u8; 16];
        rng.fill(&mut pt);
        let (activity, trace) = model.activity_traced(&pt);
        set.push(Trace {
            value: gaussian(&mut rng, activity, noise_sigma),
            plaintext: pt,
            ciphertext: trace.ciphertext,
        });
    }
    set
}

fn ge_of(set: &TraceSet) -> f64 {
    let mut cpa = Cpa::new(Box::new(Rd0Hw));
    cpa.add_set(set);
    guessing_entropy(&cpa.ranks(&KEY))
}

fn main() {
    let n = 5_000;
    let noise = 25.0; // activity units
    let profiles: [(&str, LeakageWeights); 3] = [
        ("paper-calibrated", LeakageWeights::default()),
        ("uniform", LeakageWeights::uniform(0.3)),
        ("hd-enabled", LeakageWeights::default().with_hd(0.3)),
    ];

    for (name, weights) in profiles {
        let set = synthetic_channel(weights, n, noise);
        eprintln!(
            "[ablation_leakage_weights] {name}: Rd0-HW GE = {:.1} bits at {n} traces",
            ge_of(&set)
        );
        measure_ns("ablation_leakage_weights", name, || ge_of(&set));
    }
}

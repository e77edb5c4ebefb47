//! Property-based tests for the SoC substrate.

use proptest::prelude::*;
use psc_aes::leakage::LeakageModel;
use psc_soc::config::SocSpec;
use psc_soc::dvfs::ladder;
use psc_soc::limits::{LimitGovernor, PowerEstimator, PowerMode};
use psc_soc::power::{core_dynamic_power_w, PowerRails};
use psc_soc::sched::{place, SchedAttrs, SchedPolicy, ThreadId};
use psc_soc::thermal::ThermalModel;
use psc_soc::workload::{shared_plaintext, AesSignal, AesWorkload, MatrixStressor, Workload};
use psc_soc::Soc;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// The batched fill of `workload` must consume the RNG exactly as `n`
/// sequential scalar calls would and yield bit-identical signals.
fn assert_fill_matches_scalar(workload: &mut impl Workload, reps: f64, n: usize, seed: u64) {
    let mut scalar_rng = ChaCha8Rng::seed_from_u64(seed);
    let mut batch_rng = ChaCha8Rng::seed_from_u64(seed);
    let scalar: Vec<f64> =
        (0..n).map(|_| workload.window_signal_w(reps, &mut scalar_rng)).collect();
    let mut filled = vec![0.0f64; n];
    workload.fill_window_signals(reps, &mut filled, &mut batch_rng);
    for (i, (s, f)) in scalar.iter().zip(&filled).enumerate() {
        assert_eq!(s.to_bits(), f.to_bits(), "slot {i}: {s} vs {f}");
    }
    // Both streams must end at the same point.
    assert_eq!(
        rand::Rng::gen::<u64>(&mut scalar_rng),
        rand::Rng::gen::<u64>(&mut batch_rng),
        "RNG streams diverged after the fill"
    );
}

proptest! {
    #[test]
    fn rails_always_physical(p in 0.0f64..50.0, e in 0.0f64..10.0, d in 0.0f64..5.0, u in 0.0f64..5.0) {
        let rails = PowerRails::assemble(p, e, d, u, 0.88, 1.5);
        prop_assert!(rails.is_physical());
        prop_assert!(rails.dc_in_w >= rails.package_w);
        prop_assert!(rails.system_w >= rails.dc_in_w);
    }

    #[test]
    fn dynamic_power_nonnegative_and_monotone_in_freq(
        coeff in 0.01f64..2.0,
        util in 0.0f64..1.0,
        f1 in 0.1f64..4.0,
        df in 0.0f64..2.0,
        v in 0.5f64..1.3,
    ) {
        let p1 = core_dynamic_power_w(coeff, util, f1, v);
        let p2 = core_dynamic_power_w(coeff, util, f1 + df, v);
        prop_assert!(p1 >= 0.0);
        prop_assert!(p2 >= p1);
    }

    #[test]
    fn thermal_never_exceeds_hotter_of_start_and_steady(
        power in 0.0f64..30.0,
        steps in 1usize..200,
        dt in 0.01f64..2.0,
    ) {
        let spec = SocSpec::macbook_air_m2().thermal;
        let mut t = ThermalModel::new(spec);
        let bound = t.temperature_c().max(t.steady_state_c(power)) + 1e-9;
        for _ in 0..steps {
            t.step(power, dt);
            prop_assert!(t.temperature_c() <= bound);
            prop_assert!(t.temperature_c() >= spec.ambient_c - 1e-9);
        }
    }

    #[test]
    fn estimator_stays_within_input_hull(inputs in proptest::collection::vec(0.0f64..40.0, 1..50)) {
        let mut est = PowerEstimator::new(0.4);
        let lo = inputs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = inputs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for &x in &inputs {
            let v = est.update(x);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    #[test]
    fn governor_frequency_always_a_valid_opp(
        powers in proptest::collection::vec(0.0f64..30.0, 1..100),
        low_power in any::<bool>(),
    ) {
        let spec = SocSpec::macbook_air_m2();
        let mut g = LimitGovernor::new(&spec);
        if low_power {
            g.set_mode(&spec, PowerMode::LowPower);
        }
        for &p in &powers {
            g.evaluate(&spec, p, 40.0);
            let f = g.p_freq_ghz(&spec);
            prop_assert!(spec.p_cluster.opp.points().iter().any(|op| (op.freq_ghz - f).abs() < 1e-9));
        }
    }

    #[test]
    fn placement_never_oversubscribes(
        n in 0usize..16,
        p_cores in 0usize..6,
        e_cores in 0usize..6,
        prios in proptest::collection::vec(0u8..48, 16),
    ) {
        let threads: Vec<(ThreadId, SchedAttrs)> = (0..n)
            .map(|i| {
                (
                    ThreadId(i as u64),
                    SchedAttrs {
                        priority: prios[i],
                        policy: if prios[i] % 2 == 0 { SchedPolicy::TimeShare } else { SchedPolicy::RoundRobin },
                        ..Default::default()
                    },
                )
            })
            .collect();
        let placements = place(&threads, p_cores, e_cores);
        prop_assert!(placements.len() <= (p_cores + e_cores).min(n));
        let mut seen = std::collections::HashSet::new();
        for pl in &placements {
            prop_assert!(seen.insert((pl.cluster, pl.core_index)));
        }
    }

    #[test]
    fn ladder_voltage_within_bounds(
        v_min in 0.5f64..0.9,
        dv in 0.01f64..0.4,
    ) {
        let table = ladder(&[0.6, 1.2, 2.4, 3.2], v_min, v_min + dv);
        for p in table.points() {
            prop_assert!(p.voltage_v >= v_min - 1e-12);
            prop_assert!(p.voltage_v <= v_min + dv + 1e-12);
        }
    }

    #[test]
    fn aes_workload_fill_matches_scalar(
        seed in any::<u64>(),
        pt_byte in any::<u8>(),
        reps in 1.0e3f64..1.0e9,
        n in 1usize..40,
        w_per_unit in 1.0e-6f64..1.0e-3,
        residual in 0.0f64..1.0e-2,
    ) {
        let model = Arc::new(LeakageModel::new(&[0x42u8; 16]).unwrap());
        let pt = shared_plaintext([pt_byte; 16]);
        let signal = AesSignal { w_per_unit, residual_sigma_w: residual };
        let mut workload = AesWorkload::with_signal(model, pt, signal);
        assert_fill_matches_scalar(&mut workload, reps, n, seed);
    }

    #[test]
    fn stressor_fill_matches_scalar(
        seed in any::<u64>(),
        n in 1usize..40,
        jitter in 0.0f64..0.1,
    ) {
        let mut workload = MatrixStressor { jitter_w: jitter };
        assert_fill_matches_scalar(&mut workload, 1.0e7, n, seed);
    }

    #[test]
    fn batched_windows_match_sequential_for_any_seed(
        seed in any::<u64>(),
        n in 1usize..24,
        threads in 1usize..4,
    ) {
        let build = |seed: u64, threads: usize| {
            let mut soc = Soc::new(SocSpec::macbook_air_m2(), seed);
            let model = Arc::new(LeakageModel::new(&[0x42u8; 16]).unwrap());
            let pt = shared_plaintext([0x5Au8; 16]);
            let w = AesWorkload::new(model, pt);
            for i in 0..threads {
                soc.spawn(format!("aes{i}"), SchedAttrs::realtime_p_core(), Box::new(w.clone()));
            }
            soc
        };
        let mut batched = build(seed, threads);
        let mut sequential = build(seed, threads);
        let batch = batched.run_windows(n, 1.0);
        for i in 0..n {
            let expected = sequential.run_window(1.0);
            let got = batch.report(i);
            prop_assert_eq!(got.rails.p_cluster_w.to_bits(), expected.rails.p_cluster_w.to_bits());
            prop_assert_eq!(
                got.estimated_cpu_power_w.to_bits(),
                expected.estimated_cpu_power_w.to_bits()
            );
            prop_assert_eq!(got.temperature_c.to_bits(), expected.temperature_c.to_bits());
        }
    }

    #[test]
    fn soc_window_reports_physical_rails(seed in any::<u64>(), n_threads in 0usize..4) {
        let mut soc = Soc::new(SocSpec::mac_mini_m1(), seed);
        for i in 0..n_threads {
            soc.spawn(format!("m{i}"), SchedAttrs::default(), Box::new(MatrixStressor::default()));
        }
        for _ in 0..5 {
            let report = soc.run_window(1.0);
            prop_assert!(report.rails.is_physical());
            prop_assert!(report.p_core_reps > 0.0);
            prop_assert!(report.estimated_cpu_power_w >= 0.0);
        }
    }
}

//! Equivalence suite for the batched window engine: `run_windows(n)` must
//! be **bit-identical** to `n` sequential `run_window` calls — same RNG
//! stream, same report fields down to the last mantissa bit — across
//! devices, power modes, governor feeds and workload mixes, including
//! batches where the governor moves the operating point mid-flight.

use psc_aes::leakage::LeakageModel;
use psc_soc::config::SocSpec;
use psc_soc::limits::PowerMode;
use psc_soc::sched::SchedAttrs;
use psc_soc::soc::{GovernorFeed, Soc, WindowReport};
use psc_soc::workload::{shared_plaintext, AesWorkload, FmulStressor, Idle, MatrixStressor};
use psc_soc::WindowBatch;
use std::sync::Arc;

/// Compare every field of two reports bitwise.
fn assert_report_bits(a: &WindowReport, b: &WindowReport, context: &str) {
    let pairs = [
        ("duration_s", a.duration_s, b.duration_s),
        ("rails.p_cluster_w", a.rails.p_cluster_w, b.rails.p_cluster_w),
        ("rails.e_cluster_w", a.rails.e_cluster_w, b.rails.e_cluster_w),
        ("rails.dram_w", a.rails.dram_w, b.rails.dram_w),
        ("rails.uncore_w", a.rails.uncore_w, b.rails.uncore_w),
        ("rails.package_w", a.rails.package_w, b.rails.package_w),
        ("rails.dc_in_w", a.rails.dc_in_w, b.rails.dc_in_w),
        ("rails.system_w", a.rails.system_w, b.rails.system_w),
        ("estimated_cpu_power_w", a.estimated_cpu_power_w, b.estimated_cpu_power_w),
        ("estimated_p_cluster_w", a.estimated_p_cluster_w, b.estimated_p_cluster_w),
        ("estimated_e_cluster_w", a.estimated_e_cluster_w, b.estimated_e_cluster_w),
        ("p_freq_ghz", a.p_freq_ghz, b.p_freq_ghz),
        ("e_freq_ghz", a.e_freq_ghz, b.e_freq_ghz),
        ("temperature_c", a.temperature_c, b.temperature_c),
        ("p_core_reps", a.p_core_reps, b.p_core_reps),
    ];
    for (name, x, y) in pairs {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}: {name} diverged: {x} vs {y}");
    }
    for i in 0..4 {
        assert_eq!(
            a.p_core_util[i].to_bits(),
            b.p_core_util[i].to_bits(),
            "{context}: p_core_util[{i}]"
        );
        assert_eq!(
            a.e_core_util[i].to_bits(),
            b.e_core_util[i].to_bits(),
            "{context}: e_core_util[{i}]"
        );
    }
}

/// Run the scenario both ways and compare window by window.
fn assert_batch_equals_sequential(label: &str, build: impl Fn() -> Soc, n: usize, duration_s: f64) {
    let mut batched = build();
    let mut sequential = build();
    let batch = batched.run_windows(n, duration_s);
    assert_eq!(batch.len(), n, "{label}: batch length");
    for i in 0..n {
        let expected = sequential.run_window(duration_s);
        let got = batch.report(i);
        assert_report_bits(&got, &expected, &format!("{label}, window {i}"));
    }
    assert_eq!(
        batched.time_s().to_bits(),
        sequential.time_s().to_bits(),
        "{label}: simulated clocks diverged"
    );
    // Both SoCs must resume on the same RNG stream afterwards.
    let next_a = batched.run_window(duration_s);
    let next_b = sequential.run_window(duration_s);
    assert_report_bits(&next_a, &next_b, &format!("{label}, post-batch window"));
}

fn aes_soc(spec: SocSpec, seed: u64, threads: usize, pt_byte: u8) -> Soc {
    let mut soc = Soc::new(spec, seed);
    let model = Arc::new(LeakageModel::new(&[0x11u8; 16]).unwrap());
    let pt = shared_plaintext([pt_byte; 16]);
    let workload = AesWorkload::new(Arc::clone(&model), Arc::clone(&pt));
    for i in 0..threads {
        soc.spawn(format!("aes{i}"), SchedAttrs::realtime_p_core(), Box::new(workload.clone()));
    }
    soc
}

#[test]
fn aes_victims_on_both_devices() {
    for (name, spec) in [("m1", SocSpec::mac_mini_m1()), ("m2", SocSpec::macbook_air_m2())] {
        assert_batch_equals_sequential(
            &format!("3 AES victims on {name}"),
            || aes_soc(spec.clone(), 77, 3, 0xA5),
            48,
            1.0,
        );
    }
}

#[test]
fn mixed_workloads_with_stressors() {
    let build = || {
        let mut soc = aes_soc(SocSpec::macbook_air_m2(), 123, 2, 0x3C);
        soc.spawn("matrix", SchedAttrs::realtime_p_core(), Box::new(MatrixStressor::default()));
        soc.spawn("fmul", SchedAttrs::background_e_core(), Box::new(FmulStressor));
        soc.spawn("idle", SchedAttrs::background_e_core(), Box::new(Idle));
        soc
    };
    assert_batch_equals_sequential("AES + matrix + fmul + idle", build, 32, 1.0);
}

#[test]
fn governor_throttles_mid_batch() {
    // LowPower + heavy load: the estimator crosses the 4 W cap a few
    // windows in and the governor walks the OPP ladder down — the batched
    // engine must refresh its segment and keep matching bit-for-bit.
    let build = || {
        let mut soc = aes_soc(SocSpec::macbook_air_m2(), 31, 4, 0xFF);
        soc.set_power_mode(PowerMode::LowPower);
        for i in 0..4 {
            soc.spawn(format!("fmul{i}"), SchedAttrs::background_e_core(), Box::new(FmulStressor));
        }
        soc
    };
    // Sanity: the scenario really does throttle within the batch.
    let mut probe = build();
    let batch = probe.run_windows(24, 1.0);
    let freqs = batch.p_freq_ghz();
    assert!(
        freqs.iter().any(|&f| f != freqs[0]),
        "scenario must move the operating point mid-batch: {freqs:?}"
    );
    assert_batch_equals_sequential("mid-batch power throttling", build, 24, 1.0);
}

#[test]
fn sensed_power_counterfactual_feed() {
    let build = || {
        let mut soc = aes_soc(SocSpec::macbook_air_m2(), 55, 3, 0x0F);
        soc.set_governor_feed(GovernorFeed::SensedPower);
        soc
    };
    assert_batch_equals_sequential("sensed-power governor feed", build, 24, 1.0);
}

#[test]
fn low_power_mode_and_short_windows() {
    let build = || {
        let mut soc = aes_soc(SocSpec::mac_mini_m1(), 2024, 3, 0x77);
        soc.set_power_mode(PowerMode::LowPower);
        soc
    };
    assert_batch_equals_sequential("lowpower M1, 0.25 s windows", build, 40, 0.25);
}

#[test]
fn idle_soc_batch() {
    assert_batch_equals_sequential(
        "no threads at all",
        || Soc::new(SocSpec::macbook_air_m2(), 4),
        16,
        1.0,
    );
}

#[test]
fn split_batches_equal_one_batch() {
    // Engine state (segment, estimator, thermal, RNG) must carry across
    // run_windows calls: 10 + 6 windows == one 16-window batch.
    let mut split = aes_soc(SocSpec::macbook_air_m2(), 88, 3, 0x5A);
    let mut whole = aes_soc(SocSpec::macbook_air_m2(), 88, 3, 0x5A);
    let first = split.run_windows(10, 1.0);
    let second = split.run_windows(6, 1.0);
    let full = whole.run_windows(16, 1.0);
    for i in 0..10 {
        assert_report_bits(&first.report(i), &full.report(i), &format!("split window {i}"));
    }
    for i in 0..6 {
        assert_report_bits(
            &second.report(i),
            &full.report(10 + i),
            &format!("split window {}", 10 + i),
        );
    }
}

#[test]
fn reused_buffer_matches_fresh_allocation() {
    let mut a = aes_soc(SocSpec::macbook_air_m2(), 5, 3, 0xAA);
    let mut b = aes_soc(SocSpec::macbook_air_m2(), 5, 3, 0xAA);
    let mut reused = WindowBatch::new();
    for round in 0..4 {
        a.run_windows_into(12, 1.0, &mut reused);
        let fresh = b.run_windows(12, 1.0);
        assert_eq!(reused.len(), fresh.len());
        for i in 0..12 {
            assert_report_bits(
                &reused.report(i),
                &fresh.report(i),
                &format!("round {round}, window {i}"),
            );
        }
    }
}

#[test]
fn empty_batch_leaves_state_untouched() {
    let mut soc = aes_soc(SocSpec::macbook_air_m2(), 6, 3, 0x00);
    let before = soc.time_s();
    let batch = soc.run_windows(0, 1.0);
    assert!(batch.is_empty());
    assert_eq!(soc.time_s(), before);
}

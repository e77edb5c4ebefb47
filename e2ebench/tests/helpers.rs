//! The benchmark's own arithmetic and validation, checked on small
//! inputs: percentiles refuse thin tails, the layer ledger adds up, and
//! validation rejects a corrupted report or a run that lost a block.

use e2ebench::ledger::{
    closes, closure_ratio, hit_ratio, overhead_pct, per_unit, LayerClock, SpanCost,
    CLOSURE_TOLERANCE,
};
use e2ebench::stats::{median, percentile, PercentileError, MIN_BEYOND};
use e2ebench::validate::{
    accounting, analysis_lines, check_clean, check_identical, check_recovered, Failure,
};
use psc_core::report;
use psc_core::spec::{AnalysisMode, CampaignSpec};
use psc_core::{Device, ExperimentConfig};
use std::time::{Duration, Instant};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn percentile_reports_its_sample_count() {
    let p = percentile(&ramp(100), 0.9).expect("100 samples leave 10 beyond p90");
    assert_eq!(p.samples, 100);
    assert_eq!(p.value, 90.0);
    let p = percentile(&ramp(20), 0.5).expect("20 samples leave 10 beyond the median");
    assert_eq!((p.value, p.samples), (10.0, 20));
}

#[test]
fn percentile_refuses_fewer_than_ten_samples_beyond() {
    assert_eq!(
        percentile(&ramp(99), 0.9),
        Err(PercentileError::TooFewSamples { q: 0.9, samples: 99, beyond: 9 })
    );
    assert!(matches!(
        percentile(&ramp(19), 0.5),
        Err(PercentileError::TooFewSamples { beyond, .. }) if beyond < MIN_BEYOND
    ));
    assert!(percentile(&[], 0.5).is_err());
    assert_eq!(percentile(&ramp(50), 1.0), Err(PercentileError::BadQuantile(1.0)));
}

#[test]
fn percentile_ignores_sample_order() {
    let mut shuffled = ramp(200);
    shuffled.reverse();
    assert_eq!(percentile(&shuffled, 0.9), percentile(&ramp(200), 0.9));
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}

#[test]
fn closure_and_ratio_arithmetic() {
    assert_eq!(closure_ratio(&[100.0, 250.0, 650.0], 1000.0), 1.0);
    assert_eq!(closure_ratio(&[450.0, 450.0], 1000.0), 0.9);
    assert!(closes(1.0));
    assert!(closes(1.0 - CLOSURE_TOLERANCE / 2.0));
    assert!(!closes(1.0 - 2.0 * CLOSURE_TOLERANCE));
    assert!(!closes(1.0 + 2.0 * CLOSURE_TOLERANCE));
    assert!((overhead_pct(1150.0, 1000.0) - 15.0).abs() < 1e-9);
    assert!(overhead_pct(900.0, 1000.0) < 0.0);
    assert_eq!(hit_ratio(9, 12), 0.75);
    assert_eq!(hit_ratio(0, 0), 0.0);
    assert_eq!(per_unit(3000.0, 4), 750.0);
    assert_eq!(per_unit(3000.0, 0), 0.0);
}

/// Busy-wait for `d`, so the work cannot be slept through or elided.
fn spin(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::black_box(());
    }
}

/// The closure of a traced loop whose iterations spend `inside` in two
/// timed layers and `outside` in untimed glue.
fn loop_closure(inside: Duration, outside: Duration) -> f64 {
    let cost = SpanCost::calibrate(10_000);
    let mut clock = LayerClock::<2>::default();
    let start = Instant::now();
    for i in 0..40 {
        clock.time(i % 2, || spin(inside));
        spin(outside);
    }
    let total = start.elapsed().as_nanos() as f64;
    closure_ratio(&clock.layer_ns(cost), total - clock.timer_ns(cost))
}

#[test]
fn closure_gate_rejects_a_loop_with_unattributed_work() {
    let covered = loop_closure(Duration::from_micros(500), Duration::ZERO);
    assert!(closes(covered), "a fully timed loop closes, got {covered}");
    let half = loop_closure(Duration::from_micros(500), Duration::from_micros(500));
    assert!(!closes(half), "half the loop is glue, got {half}");
    assert!((0.3..0.7).contains(&half), "about half is attributed, got {half}");
}

#[test]
fn span_cost_is_charged_in_part() {
    let cost = SpanCost::calibrate(10_000);
    assert!(cost.charged_ns >= 0.0 && cost.wall_ns > 0.0);
    assert!(cost.charged_ns <= cost.wall_ns, "{cost:?}");
}

/// A real CPA report body from a small campaign.
fn small_cpa_body() -> String {
    let mut spec =
        CampaignSpec::new(AnalysisMode::Cpa, Device::MacbookAirM2, &ExperimentConfig::default());
    spec.traces = 512;
    spec.shards = 2;
    report::run_spec(&spec).body
}

#[test]
fn validation_accepts_a_clean_report() {
    let body = small_cpa_body();
    let acct = check_clean(&body).expect("a fault-free campaign is clean");
    assert_eq!(acct, accounting(&body).unwrap());
    assert!(acct.accepted > 0);
    assert_eq!(check_identical("body", body.as_bytes(), body.as_bytes()), Ok(()));
    assert!(!analysis_lines(&body).contains("bus:"));
    assert_eq!(analysis_lines(&body).lines().count(), body.lines().count() - 1);
}

#[test]
fn validation_rejects_one_flipped_byte() {
    let body = small_cpa_body();
    for offset in [0, body.len() / 2, body.len() - 1] {
        let mut flipped = body.clone().into_bytes();
        flipped[offset] ^= 0x01;
        assert_eq!(
            check_identical("report body", &flipped, body.as_bytes()),
            Err(Failure::Mismatch { what: "report body", offset })
        );
    }
    let truncated = &body.as_bytes()[..body.len() - 1];
    assert!(check_identical("report body", truncated, body.as_bytes()).is_err());
}

#[test]
fn validation_rejects_a_dropped_block() {
    let body = small_cpa_body();
    let acct = accounting(&body).unwrap();
    let lossy = body.replace(
        &format!("{} accepted, 0 dropped", acct.accepted),
        &format!("{} accepted, 1 dropped", acct.accepted),
    );
    assert_ne!(lossy, body);
    assert_eq!(check_clean(&lossy), Err(Failure::DroppedBlocks(1)));
}

#[test]
fn validation_rejects_denied_reads_unhealthy_shards_and_missing_accounting() {
    let body = small_cpa_body();
    let denied = body.replace("denied reads: 0", "denied reads: 3");
    assert_eq!(check_clean(&denied), Err(Failure::DeniedReads(3)));
    let unhealthy =
        format!("{body}shard health: 1/2 shard(s) degraded or failed (details on stderr)\n");
    assert_eq!(check_clean(&unhealthy), Err(Failure::Unhealthy));
    assert_eq!(check_clean(&analysis_lines(&body)), Err(Failure::NoAccounting));
}

#[test]
fn key_recovery_check_reads_the_channel_line() {
    let full = "PHPC: GE 0.0 bits, 16/16 recovered, 0/16 nearly\nbus: 4 accepted, 0 dropped; denied reads: 0\n";
    assert_eq!(check_recovered(full, "PHPC"), Ok(()));
    let partial = full.replace("16/16 recovered, 0/16", "15/16 recovered, 1/16");
    assert!(matches!(check_recovered(&partial, "PHPC"), Err(Failure::KeyNotRecovered { .. })));
    assert!(matches!(check_recovered(full, "PSTR"), Err(Failure::KeyNotRecovered { .. })));
}

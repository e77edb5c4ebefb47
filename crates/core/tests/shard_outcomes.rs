//! What the single shard merge reports for clean campaigns:
//!
//! * a fault-free TVLA or CPA campaign carries no warnings — recycle-lane
//!   drops are allocation churn, not data loss, and only count in the
//!   `recycle.dropped` metric;
//! * adaptive campaigns run the cadence monitor on the same poll grid as
//!   TVLA/CPA, so [`psc_core::Campaign::monitor`]'s interval is honoured.

use psc_core::{Campaign, Device, VictimKind};
use psc_sca::model::Rd0Hw;
use psc_smc::key::key;

const SECRET: [u8; 16] = [0x3C; 16];

fn live(seed: u64) -> Campaign<'static> {
    Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, seed)
        .keys(&[key("PHPC")])
        .shards(2)
}

#[test]
fn fault_free_tvla_and_cpa_emit_no_warnings() {
    let tvla = live(31).traces(400).metrics().session().tvla();
    assert!(tvla.health.iter().all(|h| h.is_ok()));
    assert!(tvla.warnings.is_empty(), "fault-free TVLA warned: {:?}", tvla.warnings);

    let cpa = live(37).traces(20_000).metrics().session().cpa(|| Box::new(Rd0Hw));
    assert!(cpa.health.iter().all(|h| h.is_ok()));
    assert!(cpa.warnings.is_empty(), "fault-free CPA warned: {:?}", cpa.warnings);
}

#[test]
fn adaptive_monitor_polls_on_the_campaign_interval() {
    // PHPS never leaks, so the campaign runs its whole budget: 15 rounds of
    // 6 observations per shard, far longer than one 4 s poll interval.
    let interval_s = 4.0;
    let out = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, 11)
        .keys(&[key("PHPS")])
        .traces(30)
        .shards(2)
        .early_stop(key("PHPS"))
        .monitor(interval_s)
        .session()
        .adaptive_tvla();
    assert!(!out.stopped_early);
    assert_eq!(out.report.shard_cadence.len(), 2);
    for (shard, cadence) in out.report.shard_cadence.iter().enumerate() {
        assert!(
            cadence.len() > 1,
            "shard {shard}: {} checkpoint(s), want one per poll",
            cadence.len()
        );
        // Every checkpoint but the end-of-stream flush is a poll tick, one
        // interval after the previous one.
        for pair in cadence[..cadence.len() - 1].windows(2) {
            let step = pair[1].time_s - pair[0].time_s;
            assert!((step - interval_s).abs() < 1e-9, "shard {shard}: ticks {step} s apart");
        }
    }
}

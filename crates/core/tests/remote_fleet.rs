//! The distributed-fleet source contracts:
//!
//! * [`FleetShard`] — member `i` run as a standalone single-shard
//!   campaign is bit-identical to shard `i` of the in-process
//!   [`Fleet`] run (the worker half of distributed aggregation);
//! * a fleet source whose member-1 producer panics demotes only that
//!   member, and the survivors merge bit-identically to member 0 alone.

use psc_core::source::{ShardPlan, TraceSource};
use psc_core::{Campaign, Device, Fleet, FleetMember, FleetShard, ShardHealth, VictimKind};
use psc_smc::key::key;
use psc_telemetry::event::ChannelId;
use psc_telemetry::processors::StreamingTvla;
use psc_telemetry::{split_counts, EventBlock};
use std::sync::atomic::AtomicBool;

const SECRET: [u8; 16] = *b"remote-fleet-key";
const SEED: u64 = 0x00D5_C0DE;

fn members() -> Vec<FleetMember> {
    vec![
        FleetMember { device: Device::MacbookAirM2, kind: VictimKind::UserSpace },
        FleetMember { device: Device::MacMiniM1, kind: VictimKind::UserSpace },
    ]
}

fn assert_tvla_bit_identical(a: &StreamingTvla, b: &StreamingTvla, keys: &[ChannelId]) {
    for &channel in keys {
        let label = channel.to_string();
        let am = a.matrix(channel, label.clone()).expect("channel in left report");
        let bm = b.matrix(channel, label).expect("channel in right report");
        for (ac, bc) in am.cells.iter().zip(&bm.cells) {
            assert_eq!(
                ac.t_score.to_bits(),
                bc.t_score.to_bits(),
                "{channel} cell ({:?}, {:?}): {} vs {}",
                ac.row,
                ac.column,
                ac.t_score,
                bc.t_score
            );
        }
    }
}

/// Per-member `FleetShard` campaigns, merged in member order, are
/// bit-identical to the in-process fleet run — the identity the worker
/// protocol's partial-state streaming rests on.
#[test]
fn fleet_shards_merge_bit_identically_to_the_fleet() {
    let keys = [key("PHPC")];
    let traces = 40;
    let baseline = Campaign::fleet(Fleet::new(members(), SECRET, SEED))
        .keys(&keys)
        .traces(traces)
        .session()
        .tvla();

    let counts = split_counts(traces, members().len());
    let mut merged = StreamingTvla::new();
    for (member, &count) in counts.iter().enumerate() {
        let shard =
            Campaign::from_source(FleetShard::new(Fleet::new(members(), SECRET, SEED), member))
                .keys(&keys)
                .traces(count)
                .shards(1)
                .session()
                .tvla();
        assert_eq!(shard.shards, 1, "a fleet shard is a single-shard source");
        merged = merged.merged(shard.tvla);
    }
    assert_tvla_bit_identical(&baseline.tvla, &merged, &[ChannelId::Smc(keys[0])]);
}

/// A two-member fleet whose member 1 producer dies on its first call;
/// member 0 delegates to the in-process fleet.
struct HalfDeadFleet(Fleet);

impl TraceSource for HalfDeadFleet {
    fn shard_count(&self, _requested: usize) -> usize {
        2
    }

    fn run_shard(
        &self,
        plan: &ShardPlan<'_>,
        sink: &mut dyn FnMut(&mut EventBlock),
        stop: &AtomicBool,
    ) -> usize {
        if plan.shard == 1 {
            panic!("member 1 lost");
        }
        self.0.run_shard(plan, sink, stop)
    }
}

/// A producer that dies demotes only its member: the fleet completes with
/// the survivor's data and a demoted health slot instead of aborting.
/// A producer death is the *Degraded* tier (everything it accumulated
/// — here nothing — is kept); `Failed` is reserved for consumer-side
/// accumulator loss.
#[test]
fn a_panicking_feed_fails_its_member_and_survivors_merge() {
    let keys = [key("PHPC")];
    let traces = 40;
    let counts = split_counts(traces, 2);

    let source = HalfDeadFleet(Fleet::new(members(), SECRET, SEED));
    let report = Campaign::from_source(source).keys(&keys).traces(traces).session().tvla();

    assert!(report.health[0].is_ok(), "member 0 survives: {:?}", report.health[0]);
    assert!(
        matches!(report.health[1], ShardHealth::Degraded { .. }),
        "member 1 demoted: {:?}",
        report.health[1]
    );

    // The merged result equals member 0's single-shard run alone.
    let survivor = Campaign::from_source(FleetShard::new(Fleet::new(members(), SECRET, SEED), 0))
        .keys(&keys)
        .traces(counts[0])
        .shards(1)
        .session()
        .tvla();
    assert_tvla_bit_identical(&survivor.tvla, &report.tvla, &[ChannelId::Smc(keys[0])]);
}

//! IOReport-style group/channel registry.
//!
//! macOS's `IOReport` framework (the backend of tools like `socpowerbud`,
//! which the paper uses in §3.6) organizes telemetry into *groups*, each
//! containing *channels*; clients subscribe and take snapshot deltas. We
//! reproduce that access pattern: [`IoReport::snapshot`] captures all
//! channel values, and [`Snapshot::delta`] computes per-channel deltas the
//! way `IOReportCreateSamplesDelta` does.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifies a channel within a group.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ChannelId {
    /// Group name, e.g. `"Energy Model"`.
    pub group: String,
    /// Channel name, e.g. `"PCPU"`.
    pub channel: String,
}

impl ChannelId {
    /// Construct an id.
    #[must_use]
    pub fn new(group: impl Into<String>, channel: impl Into<String>) -> Self {
        Self { group: group.into(), channel: channel.into() }
    }
}

impl core::fmt::Display for ChannelId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}/{}", self.group, self.channel)
    }
}

/// Unit of a channel's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChannelUnit {
    /// Millijoules (cumulative energy).
    Millijoules,
    /// Nanoseconds of residency (cumulative).
    Nanoseconds,
    /// Dimensionless count.
    Count,
}

/// One channel's current (cumulative) reading.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelValue {
    /// Cumulative value since boot, in `unit`s.
    pub value: f64,
    /// Unit of measure.
    pub unit: ChannelUnit,
}

/// A point-in-time capture of every channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Capture time (simulation seconds).
    pub time_s: f64,
    /// All channel values at capture time.
    pub channels: BTreeMap<ChannelId, ChannelValue>,
}

impl Snapshot {
    /// Per-channel difference `self − earlier` (the
    /// `IOReportCreateSamplesDelta` pattern). Channels missing from either
    /// snapshot are omitted.
    #[must_use]
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let channels =
            self.channels
                .iter()
                .filter_map(|(id, v)| {
                    earlier.channels.get(id).map(|e| {
                        (id.clone(), ChannelValue { value: v.value - e.value, unit: v.unit })
                    })
                })
                .collect();
        Snapshot { time_s: self.time_s - earlier.time_s, channels }
    }

    /// Value of one channel, if present.
    #[must_use]
    pub fn get(&self, id: &ChannelId) -> Option<ChannelValue> {
        self.channels.get(id).copied()
    }
}

/// A registered channel's position in its [`IoReport`]'s dense value
/// table, returned by [`IoReport::register`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelSlot(usize);

/// The registry of cumulative channels.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IoReport {
    time_s: f64,
    /// Name → slot, sorted: the cold enumeration and name-keyed reads.
    slots: BTreeMap<ChannelId, ChannelSlot>,
    /// Channel values in registration order, indexed by slot.
    values: Vec<ChannelValue>,
}

impl IoReport {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a channel starting at zero and return its slot.
    ///
    /// Slot contract: a slot indexes this registry's dense value table, so
    /// [`IoReport::value_at`] and [`IoReport::accumulate_at`] through it
    /// cost one bounds-checked index instead of a `String`-keyed map
    /// lookup. A slot stays valid for the registry's lifetime (channels are
    /// never removed), registering an existing id returns its slot with its
    /// value untouched, and a slot means nothing to any other registry.
    pub fn register(&mut self, id: ChannelId, unit: ChannelUnit) -> ChannelSlot {
        let next = ChannelSlot(self.values.len());
        let slot = *self.slots.entry(id).or_insert(next);
        if slot == next {
            self.values.push(ChannelValue { value: 0.0, unit });
        }
        slot
    }

    fn slot(&self, id: &ChannelId) -> Option<ChannelSlot> {
        self.slots.get(id).copied()
    }

    /// Add to a channel's cumulative value.
    ///
    /// # Panics
    ///
    /// Panics if the channel was never registered (an integration bug).
    pub fn accumulate(&mut self, id: &ChannelId, amount: f64) {
        let slot = self.slot(id).unwrap_or_else(|| panic!("channel {id} not registered"));
        self.accumulate_at(slot, amount);
    }

    /// Add to the cumulative value of the channel at `slot`.
    pub fn accumulate_at(&mut self, slot: ChannelSlot, amount: f64) {
        self.values[slot.0].value += amount;
    }

    /// Current cumulative value of the channel at `slot` (the
    /// allocation-free read the hot observation loop uses).
    #[must_use]
    pub fn value_at(&self, slot: ChannelSlot) -> f64 {
        self.values[slot.0].value
    }

    /// Advance the registry clock.
    pub fn advance_time(&mut self, dt_s: f64) {
        self.time_s += dt_s;
    }

    /// Channel ids, sorted.
    #[must_use]
    pub fn channel_ids(&self) -> Vec<ChannelId> {
        self.slots.keys().cloned().collect()
    }

    /// Group names, sorted and deduplicated.
    #[must_use]
    pub fn groups(&self) -> Vec<String> {
        let mut groups: Vec<String> = self.slots.keys().map(|id| id.group.clone()).collect();
        groups.sort();
        groups.dedup();
        groups
    }

    /// Current cumulative value of one channel, looked up by name.
    #[must_use]
    pub fn get(&self, id: &ChannelId) -> Option<ChannelValue> {
        self.slot(id).map(|slot| self.values[slot.0])
    }

    /// Capture all channels.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let channels =
            self.slots.iter().map(|(id, slot)| (id.clone(), self.values[slot.0])).collect();
        Snapshot { time_s: self.time_s, channels }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(g: &str, c: &str) -> ChannelId {
        ChannelId::new(g, c)
    }

    #[test]
    fn register_and_accumulate() {
        let mut r = IoReport::new();
        r.register(id("Energy Model", "PCPU"), ChannelUnit::Millijoules);
        r.accumulate(&id("Energy Model", "PCPU"), 125.0);
        r.accumulate(&id("Energy Model", "PCPU"), 75.0);
        let snap = r.snapshot();
        assert_eq!(snap.get(&id("Energy Model", "PCPU")).unwrap().value, 200.0);
    }

    #[test]
    fn register_is_idempotent() {
        let mut r = IoReport::new();
        r.register(id("g", "c"), ChannelUnit::Count);
        r.accumulate(&id("g", "c"), 5.0);
        r.register(id("g", "c"), ChannelUnit::Count);
        assert_eq!(r.snapshot().get(&id("g", "c")).unwrap().value, 5.0);
    }

    #[test]
    fn slots_are_dense_and_stable() {
        let mut r = IoReport::new();
        let b = r.register(id("g", "b"), ChannelUnit::Count);
        let a = r.register(id("g", "a"), ChannelUnit::Count);
        assert_ne!(a, b);
        r.accumulate_at(a, 3.0);
        assert_eq!(r.register(id("g", "a"), ChannelUnit::Count), a);
        assert_eq!(r.slot(&id("g", "a")), Some(a));
        assert_eq!(r.value_at(a), 3.0);
        assert_eq!(r.get(&id("g", "a")).unwrap().value, 3.0);
        assert_eq!(r.value_at(b), 0.0);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn accumulate_unregistered_panics() {
        let mut r = IoReport::new();
        r.accumulate(&id("g", "c"), 1.0);
    }

    #[test]
    fn snapshot_delta_subtracts() {
        let mut r = IoReport::new();
        r.register(id("Energy Model", "PCPU"), ChannelUnit::Millijoules);
        r.accumulate(&id("Energy Model", "PCPU"), 100.0);
        r.advance_time(1.0);
        let first = r.snapshot();
        r.accumulate(&id("Energy Model", "PCPU"), 40.0);
        r.advance_time(1.0);
        let second = r.snapshot();
        let delta = second.delta(&first);
        assert_eq!(delta.get(&id("Energy Model", "PCPU")).unwrap().value, 40.0);
        assert!((delta.time_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn groups_sorted_unique() {
        let mut r = IoReport::new();
        r.register(id("Energy Model", "PCPU"), ChannelUnit::Millijoules);
        r.register(id("Energy Model", "ECPU"), ChannelUnit::Millijoules);
        r.register(id("CPU Stats", "P-Core 0 residency"), ChannelUnit::Nanoseconds);
        assert_eq!(r.groups(), vec!["CPU Stats".to_owned(), "Energy Model".to_owned()]);
    }

    #[test]
    fn delta_omits_missing_channels() {
        let mut r = IoReport::new();
        r.register(id("g", "a"), ChannelUnit::Count);
        let first = r.snapshot();
        r.register(id("g", "b"), ChannelUnit::Count);
        let second = r.snapshot();
        let delta = second.delta(&first);
        assert!(delta.get(&id("g", "b")).is_none());
        assert!(delta.get(&id("g", "a")).is_some());
    }

    #[test]
    fn display_format() {
        assert_eq!(id("Energy Model", "PCPU").to_string(), "Energy Model/PCPU");
    }
}

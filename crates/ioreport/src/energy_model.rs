//! The "Energy Model" group and CPU statistics.
//!
//! §3.6 of the paper: the `PCPU` channel of the "Energy Model" group
//! reports P-core energy, and TVLA shows **no** data dependence. The paper
//! attributes this to (a) millijoule resolution, much coarser than the µW
//! SMC keys, and (b) the suspicion that the group publishes an *estimated*
//! energy model computed from core utilization rather than a sensor
//! reading. Both properties hold here by construction: the accumulator
//! integrates the SoC's data-blind power **estimator** and quantizes to mJ.

use crate::channel::{ChannelId, ChannelSlot, ChannelUnit, IoReport, Snapshot};
use psc_soc::{WindowBatch, WindowReport};

/// Millijoule quantization of the energy channels.
pub const ENERGY_QUANTUM_MJ: f64 = 1.0;

/// The reporter's channel slots, registered once at
/// [`EnergyModelReporter::new`].
#[derive(Debug, Clone, PartialEq)]
struct ChannelSlots {
    pcpu: ChannelSlot,
    ecpu: ChannelSlot,
    dram: ChannelSlot,
    p_residency: ChannelSlot,
    e_residency: ChannelSlot,
    p_cores: [ChannelSlot; 4],
    e_cores: [ChannelSlot; 4],
}

/// Integrates SoC activity into IOReport channels.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModelReporter {
    report: IoReport,
    slots: ChannelSlots,
    // Unquantized running energies, mJ.
    pcpu_mj: f64,
    ecpu_mj: f64,
    dram_mj: f64,
    p_busy_ns: f64,
    e_busy_ns: f64,
    p_core_busy_ns: [f64; 4],
    e_core_busy_ns: [f64; 4],
}

impl Default for EnergyModelReporter {
    fn default() -> Self {
        Self::new()
    }
}

impl EnergyModelReporter {
    /// New reporter with the standard channel layout.
    #[must_use]
    pub fn new() -> Self {
        use ChannelUnit::{Millijoules, Nanoseconds};
        let mut report = IoReport::new();
        let slots = ChannelSlots {
            pcpu: report.register(Self::pcpu(), Millijoules),
            ecpu: report.register(Self::ecpu(), Millijoules),
            dram: report.register(Self::dram(), Millijoules),
            p_residency: report.register(Self::p_residency(), Nanoseconds),
            e_residency: report.register(Self::e_residency(), Nanoseconds),
            p_cores: core::array::from_fn(|c| {
                report.register(Self::p_core_residency(c), Nanoseconds)
            }),
            e_cores: core::array::from_fn(|c| {
                report.register(Self::e_core_residency(c), Nanoseconds)
            }),
        };
        Self {
            report,
            slots,
            pcpu_mj: 0.0,
            ecpu_mj: 0.0,
            dram_mj: 0.0,
            p_busy_ns: 0.0,
            e_busy_ns: 0.0,
            p_core_busy_ns: [0.0; 4],
            e_core_busy_ns: [0.0; 4],
        }
    }

    /// `CPU Stats/P-Core N busy residency` (per-core view, as shown by
    /// `socpowerbud`).
    #[must_use]
    pub fn p_core_residency(core: usize) -> ChannelId {
        ChannelId::new("CPU Stats", format!("P-Core {core} busy residency"))
    }

    /// `CPU Stats/E-Core N busy residency`.
    #[must_use]
    pub fn e_core_residency(core: usize) -> ChannelId {
        ChannelId::new("CPU Stats", format!("E-Core {core} busy residency"))
    }

    /// `Energy Model/PCPU` — the channel the paper probes.
    #[must_use]
    pub fn pcpu() -> ChannelId {
        ChannelId::new("Energy Model", "PCPU")
    }

    /// `Energy Model/ECPU`.
    #[must_use]
    pub fn ecpu() -> ChannelId {
        ChannelId::new("Energy Model", "ECPU")
    }

    /// `Energy Model/DRAM`.
    #[must_use]
    pub fn dram() -> ChannelId {
        ChannelId::new("Energy Model", "DRAM")
    }

    /// `CPU Stats/P-Cluster busy residency`.
    #[must_use]
    pub fn p_residency() -> ChannelId {
        ChannelId::new("CPU Stats", "P-Cluster busy residency")
    }

    /// `CPU Stats/E-Cluster busy residency`.
    #[must_use]
    pub fn e_residency() -> ChannelId {
        ChannelId::new("CPU Stats", "E-Cluster busy residency")
    }

    /// Integrate one SoC window. Energies come from the *estimator* fields
    /// of the report (data-independent), never from the sensed rails.
    pub fn observe_window(&mut self, window: &WindowReport) {
        let dt = window.duration_s;
        self.pcpu_mj += window.estimated_p_cluster_w * dt * 1.0e3;
        self.ecpu_mj += window.estimated_e_cluster_w * dt * 1.0e3;
        // DRAM energy estimate: a fixed fraction of CPU activity (the real
        // energy model uses counters; the rail is NOT consulted).
        self.dram_mj += 0.15 * window.estimated_cpu_power_w * dt * 1.0e3;
        self.p_busy_ns += dt * 1.0e9;
        self.e_busy_ns += dt * 1.0e9;
        for core in 0..4 {
            self.p_core_busy_ns[core] += window.p_core_util[core] * dt * 1.0e9;
            self.e_core_busy_ns[core] += window.e_core_util[core] * dt * 1.0e9;
        }

        self.sync();
        self.report.advance_time(dt);
    }

    /// Integrate a whole [`WindowBatch`] in one pass: the unquantized
    /// running energies/residencies accumulate by the same per-window
    /// additions the sequential path applies (as unit-stride column
    /// sweeps), and the quantized channels are synced once at the end of
    /// the batch. Published energy values are bit-identical to feeding
    /// every report through [`EnergyModelReporter::observe_window`] —
    /// energy quantization floors the same running total either way.
    /// (Residency channels, which publish unquantized cumulative sums, may
    /// differ from the sequential path by sub-nanosecond rounding residue;
    /// snapshots taken *between* observe calls see identical integrals.)
    pub fn observe_windows(&mut self, batch: &WindowBatch) {
        let dt = batch.duration_s();
        for v in batch.estimated_p_cluster_w() {
            self.pcpu_mj += v * dt * 1.0e3;
        }
        for v in batch.estimated_e_cluster_w() {
            self.ecpu_mj += v * dt * 1.0e3;
        }
        for v in batch.estimated_cpu_power_w() {
            self.dram_mj += 0.15 * v * dt * 1.0e3;
        }
        for _ in 0..batch.len() {
            self.p_busy_ns += dt * 1.0e9;
            self.e_busy_ns += dt * 1.0e9;
        }
        for util in batch.p_core_util() {
            for (busy, u) in self.p_core_busy_ns.iter_mut().zip(util) {
                *busy += u * dt * 1.0e9;
            }
        }
        for util in batch.e_core_util() {
            for (busy, u) in self.e_core_busy_ns.iter_mut().zip(util) {
                *busy += u * dt * 1.0e9;
            }
        }
        if batch.is_empty() {
            return;
        }
        self.sync();
        for _ in 0..batch.len() {
            self.report.advance_time(dt);
        }
    }

    fn sync(&mut self) {
        // Publish quantized cumulative values (mJ resolution). Each channel
        // moves to its target as `value += target - value`, not a plain
        // store: published totals are pinned bit for bit to that arithmetic.
        let report = &mut self.report;
        let mut set = |slot: ChannelSlot, target: f64| {
            let current = report.value_at(slot);
            report.accumulate_at(slot, target - current);
        };
        let quantize = |mj: f64| (mj / ENERGY_QUANTUM_MJ).floor() * ENERGY_QUANTUM_MJ;
        let slots = &self.slots;
        set(slots.pcpu, quantize(self.pcpu_mj));
        set(slots.ecpu, quantize(self.ecpu_mj));
        set(slots.dram, quantize(self.dram_mj));
        set(slots.p_residency, self.p_busy_ns);
        set(slots.e_residency, self.e_busy_ns);
        for core in 0..4 {
            set(slots.p_cores[core], self.p_core_busy_ns[core]);
            set(slots.e_cores[core], self.e_core_busy_ns[core]);
        }
    }

    /// The published (quantized) cumulative `Energy Model/PCPU` total in
    /// millijoules — the allocation-free read the per-observation loop
    /// uses in place of a full snapshot/delta pair. Differences of this
    /// total are bit-identical to [`Snapshot::delta`] on the `PCPU`
    /// channel.
    #[must_use]
    pub fn pcpu_total_mj(&self) -> f64 {
        self.report.value_at(self.slots.pcpu)
    }

    /// Take a snapshot (the `socpowerbud` read pattern).
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        self.report.snapshot()
    }

    /// The underlying registry (group/channel enumeration).
    #[must_use]
    pub fn registry(&self) -> &IoReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_soc::PowerRails;

    fn window(p_rail: f64, est_p: f64) -> WindowReport {
        WindowReport {
            duration_s: 1.0,
            rails: PowerRails::assemble(p_rail, 0.3, 0.4, 0.5, 0.88, 1.5),
            estimated_cpu_power_w: est_p + 0.3,
            estimated_p_cluster_w: est_p,
            estimated_e_cluster_w: 0.3,
            p_freq_ghz: 3.5,
            e_freq_ghz: 2.4,
            temperature_c: 40.0,
            p_core_reps: 1.0e7,
            ..WindowReport::default()
        }
    }

    #[test]
    fn pcpu_integrates_estimator_energy() {
        let mut rep = EnergyModelReporter::new();
        for _ in 0..10 {
            rep.observe_window(&window(2.5, 2.0));
        }
        let snap = rep.snapshot();
        let pcpu = snap.get(&EnergyModelReporter::pcpu()).unwrap().value;
        // 2.0 W × 10 s = 20 J = 20_000 mJ.
        assert!((pcpu - 20_000.0).abs() <= 2.0, "pcpu {pcpu} mJ");
    }

    #[test]
    fn pcpu_ignores_sensed_rail() {
        // Same estimator value, wildly different rails → identical energy.
        let run = |p_rail: f64| {
            let mut rep = EnergyModelReporter::new();
            for _ in 0..5 {
                rep.observe_window(&window(p_rail, 2.0));
            }
            rep.snapshot().get(&EnergyModelReporter::pcpu()).unwrap().value
        };
        assert_eq!(run(1.0), run(9.0), "PCPU must be blind to the rail");
    }

    #[test]
    fn energy_is_mj_quantized() {
        let mut rep = EnergyModelReporter::new();
        rep.observe_window(&WindowReport { duration_s: 0.0107, ..window(2.5, 2.0) });
        let pcpu = rep.snapshot().get(&EnergyModelReporter::pcpu()).unwrap().value;
        assert_eq!(pcpu.fract(), 0.0, "mJ quantization leaves integers");
    }

    #[test]
    fn snapshot_delta_gives_window_energy() {
        let mut rep = EnergyModelReporter::new();
        rep.observe_window(&window(2.5, 2.0));
        let first = rep.snapshot();
        rep.observe_window(&window(2.5, 2.0));
        let delta = rep.snapshot().delta(&first);
        let pcpu = delta.get(&EnergyModelReporter::pcpu()).unwrap().value;
        assert!((pcpu - 2000.0).abs() <= 2.0, "≈2 J per 1 s window, got {pcpu} mJ");
    }

    #[test]
    fn channels_enumerate_like_socpowerbud() {
        let rep = EnergyModelReporter::new();
        let groups = rep.registry().groups();
        assert!(groups.contains(&"Energy Model".to_owned()));
        assert!(groups.contains(&"CPU Stats".to_owned()));
        // 3 energy + 2 cluster residency + 8 per-core residency channels.
        assert_eq!(rep.registry().channel_ids().len(), 13);
    }

    #[test]
    fn per_core_residency_follows_utilization() {
        let mut rep = EnergyModelReporter::new();
        let mut w = window(2.5, 2.0);
        w.p_core_util = [1.0, 1.0, 0.5, 0.0];
        w.e_core_util = [0.0; 4];
        for _ in 0..4 {
            rep.observe_window(&w);
        }
        let snap = rep.snapshot();
        let res = |id| snap.get(&id).unwrap().value;
        assert!((res(EnergyModelReporter::p_core_residency(0)) - 4.0e9).abs() < 1.0);
        assert!((res(EnergyModelReporter::p_core_residency(2)) - 2.0e9).abs() < 1.0);
        assert_eq!(res(EnergyModelReporter::p_core_residency(3)), 0.0);
        assert_eq!(res(EnergyModelReporter::e_core_residency(1)), 0.0);
    }

    #[test]
    fn batch_integration_matches_sequential_energy_bitwise() {
        let reports: Vec<WindowReport> = (0..7)
            .map(|i| {
                let mut w = window(2.5 + f64::from(i) * 0.4, 2.0 + f64::from(i) * 0.17);
                w.p_core_util = [1.0, 0.75, 0.0, 0.0];
                w
            })
            .collect();
        let batch = psc_soc::WindowBatch::from_reports(&reports);

        let mut seq = EnergyModelReporter::new();
        for r in &reports {
            seq.observe_window(r);
        }
        let mut batched = EnergyModelReporter::new();
        batched.observe_windows(&batch);

        let s = seq.snapshot();
        let b = batched.snapshot();
        assert_eq!(s.time_s.to_bits(), b.time_s.to_bits());
        for id in
            [EnergyModelReporter::pcpu(), EnergyModelReporter::ecpu(), EnergyModelReporter::dram()]
        {
            let sv = s.get(&id).unwrap().value;
            let bv = b.get(&id).unwrap().value;
            assert_eq!(sv.to_bits(), bv.to_bits(), "{id}: {sv} vs {bv}");
        }
        // Residencies publish unquantized sums; batch sync is allowed
        // sub-nanosecond rounding slack.
        for core in 0..4 {
            let id = EnergyModelReporter::p_core_residency(core);
            let sv = s.get(&id).unwrap().value;
            let bv = b.get(&id).unwrap().value;
            assert!((sv - bv).abs() < 1e-3, "{id}: {sv} vs {bv}");
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut rep = EnergyModelReporter::new();
        let before = rep.snapshot();
        let mut batch = psc_soc::WindowBatch::new();
        batch.clear(1.0);
        rep.observe_windows(&batch);
        assert_eq!(rep.snapshot(), before);
    }

    #[test]
    fn residency_accumulates_nanoseconds() {
        let mut rep = EnergyModelReporter::new();
        rep.observe_window(&window(2.5, 2.0));
        let res = rep.snapshot().get(&EnergyModelReporter::p_residency()).unwrap();
        assert_eq!(res.unit, ChannelUnit::Nanoseconds);
        assert!((res.value - 1.0e9).abs() < 1.0);
    }
}

//! The experiment rig: one simulated device with SMC, IOReport, a victim
//! and an unprivileged attacker client, wired together.

use crate::victim::{AesVictim, VictimKind};
use psc_ioreport::EnergyModelReporter;
use psc_smc::iokit::{share, SharedSmc, SmcUserClient};
use psc_smc::key::key;
use psc_smc::{MitigationConfig, SensorSet, Smc, SmcKey};
use psc_soc::workload::AesSignal;
use psc_soc::{Soc, SocSpec, WindowBatch};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::sync::Arc;

/// The two devices of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Device {
    /// Apple Mac Mini M1 (macOS 12.5).
    MacMiniM1,
    /// Apple MacBook Air M2 (macOS 13.0).
    MacbookAirM2,
}

impl Device {
    /// Both devices, M1 first (the paper's table order).
    pub const ALL: [Device; 2] = [Device::MacMiniM1, Device::MacbookAirM2];

    /// The SoC specification.
    #[must_use]
    pub fn soc_spec(self) -> SocSpec {
        match self {
            Device::MacMiniM1 => SocSpec::mac_mini_m1(),
            Device::MacbookAirM2 => SocSpec::macbook_air_m2(),
        }
    }

    /// The SMC sensor population.
    #[must_use]
    pub fn sensor_set(self) -> SensorSet {
        match self {
            Device::MacMiniM1 => SensorSet::mac_mini_m1(),
            Device::MacbookAirM2 => SensorSet::macbook_air_m2(),
        }
    }

    /// Electrical signature calibration of the AES victim on this device.
    /// The M1's coarser telemetry path couples less signal per activity
    /// unit, which is why Table 4's M1 column recovers fewer bytes.
    #[must_use]
    pub fn aes_signal(self) -> AesSignal {
        match self {
            Device::MacMiniM1 => AesSignal { w_per_unit: 4.2e-5, residual_sigma_w: 4.0e-4 },
            Device::MacbookAirM2 => AesSignal::default(),
        }
    }

    /// Display name matching Table 1.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Device::MacMiniM1 => "Mac Mini M1",
            Device::MacbookAirM2 => "Mac Air M2",
        }
    }

    /// The workload-dependent SMC keys of this device (the paper's
    /// Table 2), in the paper's listing order.
    #[must_use]
    pub fn table2_keys(self) -> Vec<SmcKey> {
        match self {
            Device::MacMiniM1 => {
                vec![key("PDTR"), key("PHPC"), key("PHPS"), key("PMVR"), key("PPMR"), key("PSTR")]
            }
            Device::MacbookAirM2 => {
                vec![key("PDTR"), key("PHPC"), key("PHPS"), key("PMVC"), key("PSTR")]
            }
        }
    }

    /// The CPA-candidate keys (Table 4's columns for this device): the
    /// Table 2 keys minus `PHPS`, which TVLA already rejected.
    #[must_use]
    pub fn cpa_keys(self) -> Vec<SmcKey> {
        self.table2_keys().into_iter().filter(|k| *k != key("PHPS")).collect()
    }
}

/// One attacker observation for one measurement window.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Plaintext the attacker submitted.
    pub plaintext: [u8; 16],
    /// Ciphertext the service returned.
    pub ciphertext: [u8; 16],
    /// SMC key readings right after the window (absent if access denied).
    pub smc: Vec<(SmcKey, Option<f64>)>,
    /// IOReport `PCPU` energy delta over the window, mJ.
    pub pcpu_delta_mj: f64,
    /// Simulated time at the end of the observation's final window, s.
    pub time_s: f64,
    /// SoC windows consumed before the SMC published (>1 under the
    /// interval-stretching mitigation).
    pub windows: u32,
}

/// A fully wired experiment rig.
#[derive(Debug)]
pub struct Rig {
    /// The simulated device.
    pub soc: Soc,
    /// Shared SMC firmware handle.
    pub smc: SharedSmc,
    /// The attacker's unprivileged IOKit connection.
    pub client: SmcUserClient,
    /// IOReport energy-model channels.
    pub ioreport: EnergyModelReporter,
    /// The installed victim.
    pub victim: AesVictim,
    /// Attacker-side RNG (plaintext choices).
    pub attacker_rng: ChaCha12Rng,
    window_s: f64,
    /// Reusable window batch: the steady-state collection loop runs the
    /// whole SoC→IOReport→SMC pipeline through these columns without
    /// allocating.
    batch: WindowBatch,
}

impl Rig {
    /// Build a rig for `device` with a victim of `kind` holding
    /// `secret_key`. All simulation randomness derives from `seed`.
    #[must_use]
    pub fn new(device: Device, kind: VictimKind, secret_key: [u8; 16], seed: u64) -> Self {
        let mut soc = Soc::new(device.soc_spec(), seed);
        let victim = AesVictim::install(&mut soc, kind, secret_key, device.aes_signal());
        let smc = share(Smc::new(device.sensor_set(), seed.wrapping_add(1)));
        let client = SmcUserClient::new(Arc::clone(&smc));
        Self {
            soc,
            smc,
            client,
            ioreport: EnergyModelReporter::new(),
            victim,
            attacker_rng: ChaCha12Rng::seed_from_u64(seed ^ 0xA77A_CCE5),
            window_s: 1.0,
            batch: WindowBatch::new(),
        }
    }

    /// The measurement window / SMC update interval in seconds.
    #[must_use]
    pub fn window_s(&self) -> f64 {
        self.window_s
    }

    /// Apply a countermeasure to the SMC stack.
    pub fn set_mitigation(&mut self, mitigation: MitigationConfig) {
        self.smc.write().set_mitigation(mitigation);
    }

    /// A fresh attacker-chosen random plaintext.
    pub fn random_plaintext(&mut self) -> [u8; 16] {
        let mut pt = [0u8; 16];
        self.attacker_rng.fill(&mut pt);
        pt
    }

    /// Run one measurement window with `plaintext` loaded into the victim,
    /// reading `keys` through the unprivileged client afterwards — the
    /// paper's per-trace collection loop. A single-plaintext view over the
    /// batched pipeline of [`Rig::observe_windows`].
    pub fn observe_window(&mut self, plaintext: [u8; 16], keys: &[SmcKey]) -> Observation {
        let mut batch = std::mem::take(&mut self.batch);
        let obs = self.observe_one(plaintext, keys, &mut batch);
        self.batch = batch;
        obs
    }

    /// Run one observation per plaintext, amortizing the whole layer stack:
    /// each plaintext's windows run as **one** [`Soc::run_windows_into`]
    /// batch sized by [`psc_smc::Smc::windows_until_publish`] (so the SMC
    /// publishes exactly at the batch's last window, interval-stretching
    /// mitigation included), IOReport and SMC integrate the batch in one
    /// columnar pass each, and the batch buffers are reused across
    /// plaintexts. Observations are **bit-identical** to calling
    /// [`Rig::observe_window`] once per plaintext.
    pub fn observe_windows(
        &mut self,
        plaintexts: &[[u8; 16]],
        keys: &[SmcKey],
    ) -> Vec<Observation> {
        let mut batch = std::mem::take(&mut self.batch);
        let out = plaintexts.iter().map(|&pt| self.observe_one(pt, keys, &mut batch)).collect();
        self.batch = batch;
        out
    }

    /// Stream one observation per plaintext through `visit`, reusing a
    /// single [`Observation`] buffer across the whole call — the
    /// allocation-free form of [`Rig::observe_windows`] behind the
    /// block-building campaign drivers (no output `Vec<Observation>`, no
    /// per-observation `smc` vector). Each visited observation is
    /// **bit-identical** to the one [`Rig::observe_windows`] would return
    /// at the same position.
    pub fn observe_windows_with(
        &mut self,
        plaintexts: &[[u8; 16]],
        keys: &[SmcKey],
        mut visit: impl FnMut(&Observation),
    ) {
        let mut batch = std::mem::take(&mut self.batch);
        let mut obs = Observation {
            plaintext: [0; 16],
            ciphertext: [0; 16],
            smc: Vec::with_capacity(keys.len()),
            pcpu_delta_mj: 0.0,
            time_s: 0.0,
            windows: 0,
        };
        for &pt in plaintexts {
            self.observe_one_into(pt, keys, &mut batch, &mut obs);
            visit(&obs);
        }
        self.batch = batch;
    }

    fn observe_one(
        &mut self,
        plaintext: [u8; 16],
        keys: &[SmcKey],
        batch: &mut WindowBatch,
    ) -> Observation {
        let mut obs = Observation {
            plaintext: [0; 16],
            ciphertext: [0; 16],
            smc: Vec::with_capacity(keys.len()),
            pcpu_delta_mj: 0.0,
            time_s: 0.0,
            windows: 0,
        };
        self.observe_one_into(plaintext, keys, batch, &mut obs);
        obs
    }

    fn observe_one_into(
        &mut self,
        plaintext: [u8; 16],
        keys: &[SmcKey],
        batch: &mut WindowBatch,
        out: &mut Observation,
    ) {
        let ciphertext = self.victim.request_encrypt(plaintext);
        let before_pcpu_mj = self.ioreport.pcpu_total_mj();
        let mut windows = 0u32;
        // The SMC may need several windows per publish under the
        // interval-stretching mitigation; `windows_until_publish` sizes
        // the batch so its last window publishes (the loop is a safety
        // net — one iteration in practice).
        loop {
            let n = self.smc.read().windows_until_publish(self.window_s);
            self.soc.run_windows_into(n, self.window_s, batch);
            self.ioreport.observe_windows(batch);
            let published = !self.smc.write().observe_windows(batch).is_empty();
            windows += u32::try_from(n).unwrap_or(u32::MAX);
            if published {
                break;
            }
        }
        out.plaintext = plaintext;
        out.ciphertext = ciphertext;
        out.pcpu_delta_mj = self.ioreport.pcpu_total_mj() - before_pcpu_mj;
        out.smc.clear();
        out.smc.extend(keys.iter().map(|&k| (k, self.client.read_key(k).ok().map(|v| v.value))));
        out.time_s = self.soc.time_s();
        out.windows = windows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_presets_consistent() {
        assert_eq!(Device::MacMiniM1.label(), "Mac Mini M1");
        assert_eq!(Device::MacbookAirM2.soc_spec().name, "Mac Air M2");
        assert_eq!(Device::MacMiniM1.table2_keys().len(), 6);
        assert_eq!(Device::MacbookAirM2.table2_keys().len(), 5);
        assert!(!Device::MacbookAirM2.cpa_keys().contains(&key("PHPS")));
        assert_eq!(Device::MacbookAirM2.cpa_keys().len(), 4);
    }

    #[test]
    fn rig_observation_roundtrip() {
        let mut rig = Rig::new(Device::MacbookAirM2, VictimKind::UserSpace, [9u8; 16], 3);
        let pt = rig.random_plaintext();
        let obs = rig.observe_window(pt, &[key("PHPC"), key("PSTR")]);
        assert_eq!(obs.plaintext, pt);
        assert_eq!(obs.smc.len(), 2);
        let phpc = obs.smc[0].1.expect("PHPC readable");
        // 3 AES threads at the full 3.504 GHz operating point ≈ 5.3 W.
        assert!(phpc > 2.0 && phpc < 8.0, "PHPC {phpc} W plausible for 3 AES threads");
        assert!(obs.pcpu_delta_mj > 100.0, "PCPU {} mJ over 1 s", obs.pcpu_delta_mj);
    }

    #[test]
    fn observation_ciphertext_is_correct() {
        let keybytes = [0x42u8; 16];
        let mut rig = Rig::new(Device::MacbookAirM2, VictimKind::UserSpace, keybytes, 3);
        let pt = [0x13u8; 16];
        let obs = rig.observe_window(pt, &[]);
        let aes = psc_aes::Aes::new(&keybytes).unwrap();
        assert_eq!(obs.ciphertext, aes.encrypt_block(&pt));
    }

    #[test]
    fn mitigation_denies_reads_through_rig() {
        let mut rig = Rig::new(Device::MacbookAirM2, VictimKind::UserSpace, [9u8; 16], 3);
        rig.set_mitigation(MitigationConfig::restrict_access());
        let pt = rig.random_plaintext();
        let obs = rig.observe_window(pt, &[key("PHPC")]);
        assert_eq!(obs.smc[0].1, None, "restricted key read must fail");
    }

    #[test]
    fn interval_mitigation_still_publishes() {
        let mut rig = Rig::new(Device::MacbookAirM2, VictimKind::UserSpace, [9u8; 16], 3);
        rig.set_mitigation(MitigationConfig::slow_updates(3.0));
        let pt = rig.random_plaintext();
        let obs = rig.observe_window(pt, &[key("PHPC")]);
        assert!(obs.smc[0].1.is_some(), "observe_window loops until a publish");
        // Attacker wall-clock: 3 windows consumed for one sample.
        assert!((rig.soc.time_s() - 3.0).abs() < 1e-9);
        assert_eq!(obs.windows, 3);
        assert_eq!(obs.time_s, rig.soc.time_s());
    }

    #[test]
    fn batched_observations_match_sequential_bitwise() {
        let keys = [key("PHPC"), key("PSTR")];
        let mut seq = Rig::new(Device::MacbookAirM2, VictimKind::UserSpace, [9u8; 16], 3);
        let mut bat = Rig::new(Device::MacbookAirM2, VictimKind::UserSpace, [9u8; 16], 3);
        let pts: Vec<[u8; 16]> = (0..6).map(|_| seq.random_plaintext()).collect();
        let batched = bat.observe_windows(&pts, &keys);
        assert_eq!(batched.len(), pts.len());
        for (pt, b) in pts.iter().zip(&batched) {
            let s = seq.observe_window(*pt, &keys);
            assert_eq!(s.plaintext, b.plaintext);
            assert_eq!(s.ciphertext, b.ciphertext);
            assert_eq!(s.windows, b.windows);
            assert_eq!(s.time_s.to_bits(), b.time_s.to_bits());
            assert_eq!(s.pcpu_delta_mj.to_bits(), b.pcpu_delta_mj.to_bits());
            for ((ka, va), (kb, vb)) in s.smc.iter().zip(&b.smc) {
                assert_eq!(ka, kb);
                assert_eq!(va.map(f64::to_bits), vb.map(f64::to_bits));
            }
        }
    }

    #[test]
    fn streaming_observe_matches_vec_returning_form_bitwise() {
        let keys = [key("PHPC"), key("PSTR")];
        let mut vec_rig = Rig::new(Device::MacbookAirM2, VictimKind::UserSpace, [9u8; 16], 5);
        let mut stream_rig = Rig::new(Device::MacbookAirM2, VictimKind::UserSpace, [9u8; 16], 5);
        let pts: Vec<[u8; 16]> = (0..8).map(|_| vec_rig.random_plaintext()).collect();
        for _ in 0..8 {
            stream_rig.random_plaintext(); // keep RNG streams aligned
        }
        let expected = vec_rig.observe_windows(&pts, &keys);
        let mut i = 0;
        stream_rig.observe_windows_with(&pts, &keys, |obs| {
            let e = &expected[i];
            assert_eq!(obs.plaintext, e.plaintext);
            assert_eq!(obs.ciphertext, e.ciphertext);
            assert_eq!(obs.windows, e.windows);
            assert_eq!(obs.time_s.to_bits(), e.time_s.to_bits());
            assert_eq!(obs.pcpu_delta_mj.to_bits(), e.pcpu_delta_mj.to_bits());
            for ((ka, va), (kb, vb)) in obs.smc.iter().zip(&e.smc) {
                assert_eq!(ka, kb);
                assert_eq!(va.map(f64::to_bits), vb.map(f64::to_bits));
            }
            i += 1;
        });
        assert_eq!(i, 8);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let run = |seed: u64| {
            let mut rig = Rig::new(Device::MacbookAirM2, VictimKind::UserSpace, [5u8; 16], seed);
            let pt = rig.random_plaintext();
            let obs = rig.observe_window(pt, &[key("PHPC")]);
            (pt, obs.smc[0].1)
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}

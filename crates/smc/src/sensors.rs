//! Sensor definitions: what each SMC key measures and how faithfully.
//!
//! Every key is a pipeline `quantize(gain · source + drift + noise)`.
//! The per-key parameters are what make the paper's Table 2
//! (which keys vary with workload), Table 3/5 (which keys show data
//! dependence under TVLA) and Table 4 (which keys support CPA) come out:
//!
//! * `PHPC` — P-cluster rail, fine quantization, small noise → cleanest;
//! * `PDTR` / `PMVC` / `PMVR` / `PPMR` — other rails / partial views →
//!   moderate leakage;
//! * `PSTR` — system rail with slow drift → TVLA false positives between
//!   same-plaintext sets, CPA failure;
//! * `PHPS` — the model-based estimator, no data dependence at all.

use crate::key::{key, SmcKey};
use crate::types::SmcDataType;
use psc_soc::WindowReport;
use serde::{Deserialize, Serialize};

/// What physical (or model) quantity a key samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SensorSource {
    /// P-cluster power rail, watts.
    PClusterPower,
    /// E-cluster power rail, watts.
    EClusterPower,
    /// DRAM rail plus a fraction of package power (memory/voltage-converter
    /// telemetry aggregates several loads), watts.
    MemoryConverterPower {
        /// Fraction of package power folded in.
        package_fraction: f64,
    },
    /// Total package power, watts.
    PackagePower,
    /// DC-in rail, watts.
    DcInPower,
    /// Whole-system rail, watts.
    SystemPower,
    /// The governor's model-based CPU power estimate (data-independent).
    EstimatorCpuPower,
    /// Junction temperature, °C.
    Temperature,
    /// Fan speed derived from temperature, RPM.
    FanRpm,
    /// A constant (static configuration keys, battery full-charge, …).
    Constant(f64),
}

impl SensorSource {
    /// Extract the source value from a window report.
    #[must_use]
    pub fn sample(&self, report: &WindowReport) -> f64 {
        match *self {
            SensorSource::PClusterPower => report.rails.p_cluster_w,
            SensorSource::EClusterPower => report.rails.e_cluster_w,
            SensorSource::MemoryConverterPower { package_fraction } => {
                report.rails.dram_w + package_fraction * report.rails.package_w
            }
            SensorSource::PackagePower => report.rails.package_w,
            SensorSource::DcInPower => report.rails.dc_in_w,
            SensorSource::SystemPower => report.rails.system_w,
            SensorSource::EstimatorCpuPower => report.estimated_cpu_power_w,
            SensorSource::Temperature => report.temperature_c,
            SensorSource::FanRpm => {
                // Fan curve: off below 45 °C, then ~90 RPM/°C.
                (report.temperature_c - 45.0).max(0.0) * 90.0
            }
            SensorSource::Constant(v) => v,
        }
    }
}

/// Full definition of one SMC key's sensor pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorDef {
    /// The SMC key.
    pub key: SmcKey,
    /// Human-readable description.
    pub description: String,
    /// Measured quantity.
    pub source: SensorSource,
    /// Multiplicative gain applied to the source.
    pub gain: f64,
    /// Quantization step of the published value (same unit as the source
    /// after gain). `PHPC`-class power keys quantize at µW; IOReport-class
    /// estimates at mJ/mW.
    pub quant_step: f64,
    /// Gaussian measurement noise σ added before quantization.
    pub noise_sigma: f64,
    /// Random-walk drift: per-update step σ (0 disables drift).
    pub drift_step_sigma: f64,
    /// Random-walk mean-reversion factor.
    pub drift_reversion: f64,
    /// Declared SMC data type.
    pub data_type: SmcDataType,
    /// Whether this key is power-related (subject to the access-restriction
    /// countermeasure of §5).
    pub power_related: bool,
    /// Whether user space may write this key (fan targets and similar
    /// tunables). §4's negative finding holds here by construction: no
    /// writable key configures a reactive power limit.
    pub writable: bool,
}

impl SensorDef {
    fn power(
        key_name: &str,
        description: &str,
        source: SensorSource,
        gain: f64,
        noise_sigma: f64,
    ) -> Self {
        Self {
            key: key(key_name),
            description: description.to_owned(),
            source,
            gain,
            quant_step: 1.0e-6, // µW resolution (§3.6: SMC power ~µW)
            noise_sigma,
            drift_step_sigma: 0.0,
            drift_reversion: 0.0,
            data_type: SmcDataType::Flt,
            power_related: true,
            writable: false,
        }
    }

    fn constant(key_name: &str, description: &str, value: f64, data_type: SmcDataType) -> Self {
        Self {
            key: key(key_name),
            description: description.to_owned(),
            source: SensorSource::Constant(value),
            gain: 1.0,
            quant_step: 0.0,
            noise_sigma: 0.0,
            drift_step_sigma: 0.0,
            drift_reversion: 0.0,
            data_type,
            power_related: key_name.starts_with('P'),
            writable: false,
        }
    }

    fn environmental(
        key_name: &str,
        description: &str,
        source: SensorSource,
        data_type: SmcDataType,
    ) -> Self {
        Self {
            key: key(key_name),
            description: description.to_owned(),
            source,
            gain: 1.0,
            quant_step: 1.0 / 256.0,
            noise_sigma: 0.05,
            drift_step_sigma: 0.0,
            drift_reversion: 0.0,
            data_type,
            power_related: false,
            writable: false,
        }
    }

    /// Mark the key user-writable (builder style).
    #[must_use]
    pub fn into_writable(mut self) -> Self {
        self.writable = true;
        self
    }
}

/// The sensor population of one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorSet {
    sensors: Vec<SensorDef>,
}

impl SensorSet {
    /// Build from definitions.
    ///
    /// # Panics
    ///
    /// Panics on duplicate keys (a preset bug).
    #[must_use]
    pub fn new(sensors: Vec<SensorDef>) -> Self {
        let mut seen = std::collections::HashSet::new();
        for s in &sensors {
            assert!(seen.insert(s.key), "duplicate sensor key {}", s.key);
        }
        Self { sensors }
    }

    /// All sensor definitions.
    #[must_use]
    pub fn sensors(&self) -> &[SensorDef] {
        &self.sensors
    }

    /// Look up a key's definition.
    #[must_use]
    pub fn get(&self, k: SmcKey) -> Option<&SensorDef> {
        self.sensors.iter().find(|s| s.key == k)
    }

    /// Number of keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sensors.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sensors.is_empty()
    }

    /// Shared (non-device-specific) keys: temperatures, fans, battery,
    /// static `P…` configuration keys that do *not* vary with workload.
    fn common() -> Vec<SensorDef> {
        vec![
            SensorDef::environmental(
                "TC0P",
                "CPU proximity temperature",
                SensorSource::Temperature,
                SmcDataType::Sp78,
            ),
            SensorDef::environmental(
                "TC1P",
                "CPU die temperature",
                SensorSource::Temperature,
                SmcDataType::Sp78,
            ),
            SensorDef::environmental(
                "TG0P",
                "GPU proximity temperature",
                SensorSource::Temperature,
                SmcDataType::Sp78,
            ),
            SensorDef::environmental(
                "F0Ac",
                "Fan 0 actual speed",
                SensorSource::FanRpm,
                SmcDataType::Fpe2,
            ),
            SensorDef::constant(
                "B0FC",
                "Battery full charge capacity (mAh)",
                4382.0,
                SmcDataType::Ui16,
            ),
            SensorDef::constant("BCLM", "Battery charge level max (%)", 100.0, SmcDataType::Ui8),
            SensorDef::constant("BNCB", "Battery connected flag", 1.0, SmcDataType::Flag),
            // Static power-configuration keys: start with `P` so they enter
            // the paper's candidate pool, but never vary with workload —
            // the Table 2 screening must reject them.
            SensorDef::constant("P0IR", "Rail 0 current limit (A)", 6.0, SmcDataType::Flt),
            SensorDef::constant("P1IR", "Rail 1 current limit (A)", 3.5, SmcDataType::Flt),
            SensorDef::constant("PBLC", "Battery charge power limit (W)", 0.0, SmcDataType::Flt),
            SensorDef::constant("PCLC", "Charger power limit (W)", 30.0, SmcDataType::Flt),
            SensorDef::constant("PDBR", "Debug rail setpoint (W)", 0.5, SmcDataType::Flt),
            SensorDef::constant("PMAX", "Maximum package power (W)", 22.0, SmcDataType::Flt),
            SensorDef::constant("PLIM", "Active power limit index", 0.0, SmcDataType::Ui8),
            SensorDef::constant("PHPM", "P-cluster power mode", 0.0, SmcDataType::Ui8),
            // User-writable tunables: none of them is limit-related, which
            // is the §4 finding the writable-key probe reproduces.
            SensorDef::constant("F0Tg", "Fan 0 target speed (RPM)", 0.0, SmcDataType::Fpe2)
                .into_writable(),
            SensorDef::constant("LSOF", "Display backlight off flag", 0.0, SmcDataType::Flag)
                .into_writable(),
            SensorDef::constant("KPPW", "Keyboard backlight power", 0.0, SmcDataType::Ui16)
                .into_writable(),
        ]
    }

    /// The Mac Mini M1 sensor population (Table 2, left column): the
    /// workload-dependent power keys are `PDTR PHPC PHPS PMVR PPMR PSTR`.
    #[must_use]
    pub fn mac_mini_m1() -> Self {
        let mut sensors = Self::common();
        sensors.extend([
            // M1 telemetry is a little coarser/noisier than M2's, which is
            // why Table 4 recovers fewer bytes on the Mini at 350 k traces.
            SensorDef::power("PHPC", "P-cluster power", SensorSource::PClusterPower, 0.92, 6.0e-3),
            SensorDef::power(
                "PDTR",
                "DC-in total rail power",
                SensorSource::DcInPower,
                1.0,
                9.0e-3,
            ),
            SensorDef::power(
                "PMVR",
                "Memory/voltage-regulator rail power",
                SensorSource::MemoryConverterPower { package_fraction: 0.55 },
                1.0,
                5.0e-3,
            ),
            SensorDef::power(
                "PPMR",
                "Package main rail power",
                SensorSource::PackagePower,
                1.0,
                1.1e-2,
            ),
            {
                let mut pstr = SensorDef::power(
                    "PSTR",
                    "System total power",
                    SensorSource::SystemPower,
                    1.0,
                    6.0e-3,
                );
                pstr.drift_step_sigma = 9.0e-3;
                pstr.drift_reversion = 0.02;
                pstr
            },
            {
                let mut phps = SensorDef::power(
                    "PHPS",
                    "P-cluster power setpoint (estimator)",
                    SensorSource::EstimatorCpuPower,
                    1.0,
                    8.0e-4,
                );
                phps.quant_step = 1.0e-3;
                phps
            },
        ]);
        let count = sensors.len() as f64 + 1.0;
        sensors.push(SensorDef::constant("#KEY", "Number of SMC keys", count, SmcDataType::Ui32));
        Self::new(sensors)
    }

    /// The MacBook Air M2 sensor population (Table 2, right column): the
    /// workload-dependent power keys are `PDTR PHPC PHPS PMVC PSTR`.
    #[must_use]
    pub fn macbook_air_m2() -> Self {
        let mut sensors = Self::common();
        sensors.extend([
            SensorDef::power("PHPC", "P-cluster power", SensorSource::PClusterPower, 1.0, 4.0e-3),
            SensorDef::power(
                "PDTR",
                "DC-in total rail power",
                SensorSource::DcInPower,
                1.0,
                8.0e-3,
            ),
            SensorDef::power(
                "PMVC",
                "Memory/voltage-converter rail power",
                SensorSource::MemoryConverterPower { package_fraction: 0.55 },
                1.0,
                4.5e-3,
            ),
            {
                let mut pstr = SensorDef::power(
                    "PSTR",
                    "System total power",
                    SensorSource::SystemPower,
                    1.0,
                    5.0e-3,
                );
                pstr.drift_step_sigma = 8.0e-3;
                pstr.drift_reversion = 0.02;
                pstr
            },
            {
                let mut phps = SensorDef::power(
                    "PHPS",
                    "P-cluster power setpoint (estimator)",
                    SensorSource::EstimatorCpuPower,
                    1.0,
                    8.0e-4,
                );
                phps.quant_step = 1.0e-3;
                phps
            },
        ]);
        let count = sensors.len() as f64 + 1.0;
        sensors.push(SensorDef::constant("#KEY", "Number of SMC keys", count, SmcDataType::Ui32));
        Self::new(sensors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_soc::PowerRails;

    fn report(p: f64, est: f64, temp: f64) -> WindowReport {
        WindowReport {
            duration_s: 1.0,
            rails: PowerRails::assemble(p, 0.3, 0.4, 0.5, 0.88, 1.5),
            estimated_cpu_power_w: est,
            estimated_p_cluster_w: est * 0.8,
            estimated_e_cluster_w: est * 0.2,
            p_freq_ghz: 3.5,
            e_freq_ghz: 2.4,
            temperature_c: temp,
            p_core_reps: 1.0e7,
            ..WindowReport::default()
        }
    }

    #[test]
    fn m2_has_table2_power_keys() {
        let set = SensorSet::macbook_air_m2();
        for name in ["PDTR", "PHPC", "PHPS", "PMVC", "PSTR"] {
            assert!(set.get(key(name)).is_some(), "missing {name}");
        }
        assert!(set.get(key("PMVR")).is_none(), "PMVR is M1-only");
        assert!(set.get(key("PPMR")).is_none(), "PPMR is M1-only");
    }

    #[test]
    fn m1_has_table2_power_keys() {
        let set = SensorSet::mac_mini_m1();
        for name in ["PDTR", "PHPC", "PHPS", "PMVR", "PPMR", "PSTR"] {
            assert!(set.get(key(name)).is_some(), "missing {name}");
        }
        assert!(set.get(key("PMVC")).is_none(), "PMVC is M2-only");
    }

    #[test]
    fn candidate_pool_is_realistically_large() {
        // §3.2: "approximately 30" P-keys pool; we model a smaller but
        // non-trivial population with both varying and static P-keys.
        let set = SensorSet::macbook_air_m2();
        let p_keys = set.sensors().iter().filter(|s| s.key.is_power_key()).count();
        assert!(p_keys >= 10, "need a meaningful screening pool, got {p_keys}");
        assert!(set.len() > p_keys, "non-P keys must exist too");
    }

    #[test]
    fn phpc_samples_p_cluster_rail() {
        let set = SensorSet::macbook_air_m2();
        let def = set.get(key("PHPC")).unwrap();
        let r = report(2.5, 3.0, 40.0);
        assert!((def.source.sample(&r) - 2.5).abs() < 1e-12);
        assert!(def.power_related);
        assert_eq!(def.quant_step, 1.0e-6, "µW quantization");
    }

    #[test]
    fn phps_samples_estimator_not_rails() {
        let set = SensorSet::macbook_air_m2();
        let def = set.get(key("PHPS")).unwrap();
        let a = report(2.5, 3.0, 40.0);
        let b = report(9.9, 3.0, 40.0); // rails change, estimator fixed
        assert_eq!(def.source.sample(&a), def.source.sample(&b));
    }

    #[test]
    fn pstr_is_the_only_drifting_key() {
        let set = SensorSet::macbook_air_m2();
        for s in set.sensors() {
            if s.key == key("PSTR") {
                assert!(s.drift_step_sigma > 0.0);
            } else {
                assert_eq!(s.drift_step_sigma, 0.0, "{} must not drift", s.key);
            }
        }
    }

    #[test]
    fn static_p_keys_do_not_vary() {
        let set = SensorSet::macbook_air_m2();
        let def = set.get(key("PMAX")).unwrap();
        let a = report(1.0, 1.0, 30.0);
        let b = report(20.0, 15.0, 90.0);
        assert_eq!(def.source.sample(&a), def.source.sample(&b));
        assert_eq!(def.noise_sigma, 0.0);
    }

    #[test]
    fn fan_curve_off_when_cool() {
        let set = SensorSet::mac_mini_m1();
        let def = set.get(key("F0Ac")).unwrap();
        assert_eq!(def.source.sample(&report(1.0, 1.0, 30.0)), 0.0);
        assert!(def.source.sample(&report(1.0, 1.0, 80.0)) > 1000.0);
    }

    #[test]
    fn memory_converter_mixes_package() {
        let src = SensorSource::MemoryConverterPower { package_fraction: 0.5 };
        let r = report(2.0, 1.0, 40.0);
        let expected = r.rails.dram_w + 0.5 * r.rails.package_w;
        assert!((src.sample(&r) - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "duplicate sensor key")]
    fn duplicate_keys_rejected() {
        let dup = SensorDef::constant("PMAX", "dup", 1.0, SmcDataType::Flt);
        let dup2 = SensorDef::constant("PMAX", "dup2", 2.0, SmcDataType::Flt);
        let _ = SensorSet::new(vec![dup, dup2]);
    }
}

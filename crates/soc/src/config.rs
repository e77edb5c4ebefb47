//! Device specifications: the two systems of the paper's Table 1.

use crate::dvfs::{ladder, OppTable};
use serde::{Deserialize, Serialize};

/// Core cluster type on Apple silicon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ClusterKind {
    /// "Firestorm"/"Avalanche"-class performance cores.
    Performance,
    /// "Icestorm"/"Blizzard"-class efficiency cores.
    Efficiency,
}

impl core::fmt::Display for ClusterKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClusterKind::Performance => write!(f, "P"),
            ClusterKind::Efficiency => write!(f, "E"),
        }
    }
}

/// Specification of one core cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Performance or efficiency cluster.
    pub kind: ClusterKind,
    /// Number of cores.
    pub core_count: usize,
    /// DVFS operating points of this cluster.
    pub opp: OppTable,
    /// Static (leakage) power of the powered-on cluster in watts.
    pub static_power_w: f64,
    /// Dynamic-power coefficient: watts per (GHz · V² · utilization · core).
    pub dyn_coeff_w: f64,
}

impl ClusterSpec {
    /// Maximum frequency of this cluster in GHz.
    #[must_use]
    pub fn max_freq_ghz(&self) -> f64 {
        self.opp.max().freq_ghz
    }
}

/// Thermal parameters of the lumped RC package model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalSpec {
    /// Ambient temperature in °C.
    pub ambient_c: f64,
    /// Junction-to-ambient thermal resistance in °C/W.
    pub r_th_c_per_w: f64,
    /// Thermal time constant in seconds.
    pub tau_s: f64,
    /// Junction temperature limit that triggers thermal throttling, °C.
    pub limit_c: f64,
}

/// Platform power-delivery parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlatformSpec {
    /// Package power not attributable to CPU clusters or DRAM (fabric,
    /// display engine, SSD controller…), watts.
    pub uncore_w: f64,
    /// Baseline DRAM power, watts.
    pub dram_base_w: f64,
    /// Additional DRAM watts per unit of total core utilization.
    pub dram_util_coeff_w: f64,
    /// Voltage-regulator efficiency (package → DC-in conversion).
    pub vr_efficiency: f64,
    /// Always-on platform power outside the package (Wi-Fi, I/O), watts.
    pub platform_base_w: f64,
    /// Default package power limit in watts (normal mode).
    pub power_limit_w: f64,
    /// Package power limit in `lowpowermode`, watts (the 4 W the paper
    /// discovered in §4).
    pub low_power_limit_w: f64,
    /// P-cluster frequency cap applied in `lowpowermode`, GHz (the
    /// 1.968 GHz plateau of §4).
    pub low_power_p_freq_cap_ghz: f64,
}

/// Full device specification (Table 1 of the paper plus the simulation
/// parameters the paper's hardware provides implicitly).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SocSpec {
    /// Marketing name, e.g. "Mac Mini M1".
    pub name: String,
    /// Reported OS version (Table 1).
    pub os_version: String,
    /// Performance cluster.
    pub p_cluster: ClusterSpec,
    /// Efficiency cluster.
    pub e_cluster: ClusterSpec,
    /// Thermal model parameters.
    pub thermal: ThermalSpec,
    /// Platform power-delivery parameters.
    pub platform: PlatformSpec,
    /// Cycles one AES block encryption takes on the victim implementation
    /// (constant-cycle per the paper's threat model).
    pub aes_cycles_per_block: f64,
}

impl SocSpec {
    /// The cluster spec for `kind`.
    #[must_use]
    pub fn cluster(&self, kind: ClusterKind) -> &ClusterSpec {
        match kind {
            ClusterKind::Performance => &self.p_cluster,
            ClusterKind::Efficiency => &self.e_cluster,
        }
    }

    /// Total number of cores.
    #[must_use]
    pub fn core_count(&self) -> usize {
        self.p_cluster.core_count + self.e_cluster.core_count
    }

    /// The Apple Mac Mini M1 of the paper's Table 1.
    ///
    /// Note: the paper's Table 1 prints the E-core maxima of the two devices
    /// as M1 = 2.4 GHz / M2 = 2.06 GHz, but §4 reports M2 E-cores running at
    /// 2.424 GHz — consistent with the actual silicon (M1 E-max 2.064 GHz,
    /// M2 E-max 2.424 GHz). We follow the silicon values.
    #[must_use]
    pub fn mac_mini_m1() -> Self {
        Self {
            name: "Mac Mini M1".to_owned(),
            os_version: "macOS 12.5".to_owned(),
            p_cluster: ClusterSpec {
                kind: ClusterKind::Performance,
                core_count: 4,
                opp: ladder(
                    &[0.600, 0.972, 1.332, 1.704, 1.968, 2.064, 2.424, 2.772, 3.096, 3.204],
                    0.781,
                    1.050,
                ),
                static_power_w: 0.18,
                dyn_coeff_w: 0.62,
            },
            e_cluster: ClusterSpec {
                kind: ClusterKind::Efficiency,
                core_count: 4,
                opp: ladder(&[0.600, 0.972, 1.332, 1.704, 2.064], 0.700, 0.920),
                static_power_w: 0.05,
                dyn_coeff_w: 0.145,
            },
            thermal: ThermalSpec { ambient_c: 24.0, r_th_c_per_w: 4.4, tau_s: 35.0, limit_c: 99.0 },
            platform: PlatformSpec {
                uncore_w: 0.55,
                dram_base_w: 0.35,
                dram_util_coeff_w: 0.18,
                vr_efficiency: 0.88,
                platform_base_w: 1.9,
                power_limit_w: 22.0,
                low_power_limit_w: 4.0,
                low_power_p_freq_cap_ghz: 1.968,
            },
            aes_cycles_per_block: 96.0,
        }
    }

    /// The Apple MacBook Air M2 of the paper's Table 1.
    #[must_use]
    pub fn macbook_air_m2() -> Self {
        Self {
            name: "Mac Air M2".to_owned(),
            os_version: "macOS 13.0".to_owned(),
            p_cluster: ClusterSpec {
                kind: ClusterKind::Performance,
                core_count: 4,
                opp: ladder(
                    &[0.660, 1.020, 1.332, 1.704, 1.968, 2.208, 2.448, 2.676, 2.904, 3.204, 3.504],
                    0.790,
                    1.070,
                ),
                static_power_w: 0.20,
                dyn_coeff_w: 0.58,
            },
            e_cluster: ClusterSpec {
                kind: ClusterKind::Efficiency,
                core_count: 4,
                opp: ladder(&[0.660, 1.020, 1.419, 1.752, 2.004, 2.256, 2.424], 0.700, 0.940),
                static_power_w: 0.05,
                dyn_coeff_w: 0.135,
            },
            // Fanless Air throttles thermally sooner than the actively
            // cooled Mini.
            thermal: ThermalSpec { ambient_c: 24.0, r_th_c_per_w: 5.4, tau_s: 30.0, limit_c: 99.0 },
            platform: PlatformSpec {
                uncore_w: 0.50,
                dram_base_w: 0.32,
                dram_util_coeff_w: 0.18,
                vr_efficiency: 0.88,
                platform_base_w: 1.4,
                power_limit_w: 20.0,
                low_power_limit_w: 4.0,
                low_power_p_freq_cap_ghz: 1.968,
            },
            aes_cycles_per_block: 92.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_p_core_specs() {
        let m1 = SocSpec::mac_mini_m1();
        let m2 = SocSpec::macbook_air_m2();
        assert_eq!(m1.p_cluster.core_count, 4);
        assert_eq!(m2.p_cluster.core_count, 4);
        assert!((m1.p_cluster.max_freq_ghz() - 3.204).abs() < 1e-9);
        assert!((m2.p_cluster.max_freq_ghz() - 3.504).abs() < 1e-9);
    }

    #[test]
    fn e_cluster_maxima_follow_silicon() {
        let m1 = SocSpec::mac_mini_m1();
        let m2 = SocSpec::macbook_air_m2();
        assert!((m1.e_cluster.max_freq_ghz() - 2.064).abs() < 1e-9);
        // §4: M2 E-cores run steadily at 2.424 GHz.
        assert!((m2.e_cluster.max_freq_ghz() - 2.424).abs() < 1e-9);
    }

    #[test]
    fn lowpowermode_parameters_match_section4() {
        for spec in [SocSpec::mac_mini_m1(), SocSpec::macbook_air_m2()] {
            assert_eq!(spec.platform.low_power_limit_w, 4.0);
            assert_eq!(spec.platform.low_power_p_freq_cap_ghz, 1.968);
            // 1.968 GHz must be an actual operating point.
            let opp = spec.p_cluster.opp.highest_at_most(1.968);
            assert!((opp.freq_ghz - 1.968).abs() < 1e-9, "{}", spec.name);
        }
    }

    #[test]
    fn cluster_lookup() {
        let m1 = SocSpec::mac_mini_m1();
        assert_eq!(m1.cluster(ClusterKind::Performance).core_count, 4);
        assert_eq!(m1.cluster(ClusterKind::Efficiency).kind, ClusterKind::Efficiency);
        assert_eq!(m1.core_count(), 8);
    }

    #[test]
    fn os_versions_match_table1() {
        assert_eq!(SocSpec::mac_mini_m1().os_version, "macOS 12.5");
        assert_eq!(SocSpec::macbook_air_m2().os_version, "macOS 13.0");
    }

    #[test]
    fn cluster_kind_display() {
        assert_eq!(ClusterKind::Performance.to_string(), "P");
        assert_eq!(ClusterKind::Efficiency.to_string(), "E");
    }
}

//! # psc-smc — System Management Controller simulation
//!
//! The SMC is the co-processor through which the paper's unprivileged
//! attacker observes power: a key/value store of sensor readings served to
//! user space over IOKit. This crate models the full path:
//!
//! * [`key`] / [`types`] — 4-character keys and SMC wire types
//!   (`flt `, `sp78`, …) with byte-exact codecs;
//! * [`sensors`] — per-device sensor populations with the gain /
//!   quantization / noise / drift pipeline that decides which keys leak;
//! * [`firmware`] — the co-processor: integrates SoC windows, publishes at
//!   the ≈1 s update interval;
//! * [`iokit`] — the `IOConnectCallStructMethod`-shaped user client with a
//!   privilege model;
//! * [`fuzzer`] — an `smc-fuzzer` equivalent for the §3.2 key screening;
//! * [`mitigation`] — the §5 countermeasures (access restriction, noise
//!   blending, slower updates).
//!
//! ## Example
//!
//! ```
//! use psc_smc::{Smc, SensorSet};
//! use psc_smc::iokit::{share, SmcUserClient};
//! use psc_smc::key::key;
//!
//! let smc = share(Smc::new(SensorSet::macbook_air_m2(), 1));
//! let client = SmcUserClient::new(smc);
//! // Unprivileged user space enumerates and reads keys.
//! assert!(client.all_keys().unwrap().contains(&key("PHPC")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod firmware;
pub mod fuzzer;
pub mod iokit;
pub mod key;
pub mod mitigation;
pub mod sensors;
pub mod types;

pub use firmware::Smc;
pub use iokit::{IoKitError, SmcUserClient};
pub use key::SmcKey;
pub use mitigation::MitigationConfig;
pub use sensors::{SensorDef, SensorSet, SensorSource};
pub use types::{SmcDataType, SmcValue};

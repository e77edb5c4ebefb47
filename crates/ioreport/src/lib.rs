//! # psc-ioreport — IOReport-style telemetry simulation
//!
//! The alternative power interface the paper examines in §3.6: macOS's
//! `IOReport` framework, read through tools like `socpowerbud`. Telemetry
//! is organized as groups → channels with cumulative counters sampled via
//! snapshot deltas.
//!
//! The headline behaviour reproduced here is the paper's **negative**
//! result: the "Energy Model" `PCPU` channel shows *no* data-dependent
//! leakage, because (a) it quantizes at millijoules and (b) it publishes a
//! utilization-based energy *estimate*, not a sensor reading. See
//! [`energy_model::EnergyModelReporter`].
//!
//! ## Example
//!
//! ```
//! use psc_ioreport::energy_model::EnergyModelReporter;
//!
//! let reporter = EnergyModelReporter::new();
//! let before = reporter.snapshot();
//! // ... SoC windows are fed via observe_window ...
//! let delta = reporter.snapshot().delta(&before);
//! assert!(delta.channels.len() >= 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod energy_model;

pub use channel::{ChannelId, ChannelSlot, ChannelUnit, ChannelValue, IoReport, Snapshot};
pub use energy_model::EnergyModelReporter;

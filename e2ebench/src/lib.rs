//! End-to-end campaign benchmark for the Apple M1/M2 power side-channel
//! reproduction: live CPA, replayed CPA and served small jobs, each
//! validated before it is timed, plus a traced per-layer ledger.
//!
//! The `e2ebench` binary is the entry point; see `README.md` beside
//! this crate for the workloads, the layers they stress and the metric
//! predictions.

#![forbid(unsafe_code)]

pub mod inputs;
pub mod ledger;
pub mod measure;
pub mod pipeline;
pub mod replica;
pub mod stats;
pub mod sys;
pub mod validate;
pub mod workloads;

//! # psc-aes — AES with round-state tracing and leakage modelling
//!
//! A from-scratch AES implementation (128/192/256) built for power
//! side-channel research in simulation:
//!
//! * [`Aes`] — the reference FIPS-197 cipher with
//!   [`Aes::encrypt_traced`] recording every intermediate round state;
//! * [`armv8`] — the `AESE`/`AESMC`/`AESD`/`AESIMC` instruction-level path
//!   matching the AES-Intrinsics victim the paper attacks;
//! * [`leakage`] — a CMOS Hamming-weight leakage model over traced
//!   encryptions, calibrated so the paper's CPA power models
//!   (`Rd0-HW`, `Rd10-HW`, `Rd10-HD`) behave as published;
//! * [`hamming`], [`gf`], [`sbox`] — the supporting primitives, exposed
//!   because the analysis crates reuse them for hypothesis computation.
//!
//! This code is a *simulation substrate*, not a hardened production cipher:
//! it intentionally leaks (that is its job) and must never be used to
//! protect real data.
//!
//! ## Example
//!
//! ```
//! use psc_aes::{Aes, leakage::LeakageModel};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let key = [0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
//!            0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c];
//! let aes = Aes::new(&key)?;
//! let trace = aes.encrypt_traced(&[0u8; 16]);
//! let model = LeakageModel::new(&key)?;
//! let activity = model.activity_of_trace(&trace);
//! assert!(activity > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod armv8;
pub mod cipher;
pub mod gf;
pub mod hamming;
pub mod key_schedule;
pub mod leakage;
pub mod sbox;
pub mod state;

pub use cipher::{Aes, AesOp, EncryptionTrace, RoundState};
pub use key_schedule::{InvalidKeyLength, KeySchedule, KeySize};
pub use leakage::{LeakageModel, LeakageWeights};
pub use state::State;

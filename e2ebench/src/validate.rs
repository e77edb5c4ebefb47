//! Validation before numbers: a run whose output is wrong records a
//! failure, never a timing.
//!
//! Every check reads the report body the program printed (the same text
//! `psc campaign` and `psc serve` emit), so in-process and served runs
//! are held to one standard.

use std::fmt;

/// Why one operation (a campaign or a served job) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The output differs from its reference at this byte offset.
    Mismatch {
        /// Which output was compared.
        what: &'static str,
        /// First differing byte (or the shorter length).
        offset: usize,
    },
    /// The key channel did not recover all 16 key bytes.
    KeyNotRecovered {
        /// The channel's report line, or the channel name if absent.
        line: String,
    },
    /// The body carries no `bus:` accounting line.
    NoAccounting,
    /// A shard finished degraded or failed.
    Unhealthy,
    /// Event blocks were dropped on the bus.
    DroppedBlocks(u64),
    /// SMC reads were denied.
    DeniedReads(u64),
    /// The recorder lost writes.
    RecorderErrors,
    /// The server refused the submission.
    Rejected(String),
    /// The wire exchange failed or answered out of protocol.
    Protocol(String),
    /// A recording could not be written or read.
    Io(String),
    /// The traced layers do not add up to the traced total.
    LedgerOpen(String),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Mismatch { what, offset } => {
                write!(f, "{what} differs from its reference at byte {offset}")
            }
            Self::KeyNotRecovered { line } => write!(f, "key not fully recovered: {line}"),
            Self::NoAccounting => write!(f, "report has no bus accounting line"),
            Self::Unhealthy => write!(f, "a shard finished degraded or failed"),
            Self::DroppedBlocks(n) => write!(f, "{n} event block(s) dropped on the bus"),
            Self::DeniedReads(n) => write!(f, "{n} SMC read(s) denied"),
            Self::RecorderErrors => write!(f, "recorder I/O errors"),
            Self::Rejected(reason) => write!(f, "submission rejected: {reason}"),
            Self::Protocol(msg) => write!(f, "protocol error: {msg}"),
            Self::Io(msg) => write!(f, "recording I/O error: {msg}"),
            Self::LedgerOpen(msg) => write!(f, "layer ledger does not close: {msg}"),
        }
    }
}

/// The bus accounting line of a report body, in event blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Accounting {
    /// Blocks the bus accepted.
    pub accepted: u64,
    /// Blocks the bus dropped.
    pub dropped: u64,
    /// SMC reads the client was denied.
    pub denied: u64,
}

const BUS_PREFIX: &str = "bus: ";

/// Parse the `bus: A accepted, D dropped; denied reads: R` line.
#[must_use]
pub fn accounting(body: &str) -> Option<Accounting> {
    let line = body.lines().find_map(|l| l.strip_prefix(BUS_PREFIX))?;
    let (accepted, rest) = line.split_once(" accepted, ")?;
    let (dropped, rest) = rest.split_once(" dropped; denied reads: ")?;
    Some(Accounting {
        accepted: accepted.parse().ok()?,
        dropped: dropped.parse().ok()?,
        denied: rest.trim().parse().ok()?,
    })
}

/// The checks every report must pass on its own: accounting present, no
/// dropped block, no denied read, no recorder loss, every shard healthy.
///
/// # Errors
///
/// The first [`Failure`] found.
pub fn check_clean(body: &str) -> Result<Accounting, Failure> {
    let acct = accounting(body).ok_or(Failure::NoAccounting)?;
    if body.lines().any(|l| l.starts_with("shard health:")) {
        return Err(Failure::Unhealthy);
    }
    if body.lines().any(|l| l.starts_with("recorder I/O errors:")) {
        return Err(Failure::RecorderErrors);
    }
    if acct.dropped > 0 {
        return Err(Failure::DroppedBlocks(acct.dropped));
    }
    if acct.denied > 0 {
        return Err(Failure::DeniedReads(acct.denied));
    }
    Ok(acct)
}

/// Byte-identity against a reference.
///
/// # Errors
///
/// [`Failure::Mismatch`] at the first differing byte.
pub fn check_identical(what: &'static str, actual: &[u8], reference: &[u8]) -> Result<(), Failure> {
    if actual == reference {
        return Ok(());
    }
    let offset = actual
        .iter()
        .zip(reference)
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| actual.len().min(reference.len()));
    Err(Failure::Mismatch { what, offset })
}

/// The analysis part of a CPA body: every line except the bus
/// accounting line, whose block counts depend on how the source chunks
/// its stream (a replay emits one block per recorded channel).
#[must_use]
pub fn analysis_lines(body: &str) -> String {
    body.lines().filter(|l| !l.starts_with(BUS_PREFIX)).flat_map(|l| [l, "\n"]).collect()
}

/// The CPA body line for `channel` must report `16/16 recovered`.
///
/// # Errors
///
/// [`Failure::KeyNotRecovered`] with the offending line.
pub fn check_recovered(body: &str, channel: &str) -> Result<(), Failure> {
    let prefix = format!("{channel}: ");
    match body.lines().find(|l| l.starts_with(&prefix)) {
        Some(line) if line.contains(", 16/16 recovered,") => Ok(()),
        Some(line) => Err(Failure::KeyNotRecovered { line: line.to_owned() }),
        None => Err(Failure::KeyNotRecovered { line: channel.to_owned() }),
    }
}

//! Order statistics over timing samples.

use std::fmt;

/// A percentile is reported only when at least this many samples lie
/// beyond it, so a tail figure is never one unlucky sample.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the sample count it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The quantile asked for, in `(0, 1)`.
    pub q: f64,
    /// The nearest-rank sample value.
    pub value: f64,
    /// How many samples the value was read from.
    pub samples: usize,
}

/// Why a percentile was refused.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PercentileError {
    /// `q` is not strictly between 0 and 1.
    BadQuantile(f64),
    /// Fewer than [`MIN_BEYOND`] samples lie beyond the percentile.
    TooFewSamples {
        /// The quantile asked for.
        q: f64,
        /// Samples available.
        samples: usize,
        /// Samples beyond the nearest rank.
        beyond: usize,
    },
}

impl fmt::Display for PercentileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadQuantile(q) => write!(f, "quantile {q} is not in (0, 1)"),
            Self::TooFewSamples { q, samples, beyond } => write!(
                f,
                "p{} needs {MIN_BEYOND} samples beyond it, {samples} samples leave {beyond}",
                q * 100.0
            ),
        }
    }
}

/// The nearest-rank `q` percentile of `samples`: the value at 1-based
/// rank `ceil(q * n)` of the sorted samples. Refused when fewer than
/// [`MIN_BEYOND`] samples rank above it.
///
/// # Errors
///
/// [`PercentileError`] for a quantile outside `(0, 1)` or too few
/// samples beyond the rank.
pub fn percentile(samples: &[f64], q: f64) -> Result<Percentile, PercentileError> {
    if !(q > 0.0 && q < 1.0) {
        return Err(PercentileError::BadQuantile(q));
    }
    let n = samples.len();
    // `q * n` is exact enough for the sample counts a run produces; the
    // ceiling gives the nearest rank, at least 1.
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(PercentileError::TooFewSamples { q, samples: n, beyond });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile { q, value: sorted[rank - 1], samples: n })
}

/// The median of `values` (mean of the middle pair for an even count),
/// for aggregating repeated measurements inside one run. `NaN` when
/// `values` is empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

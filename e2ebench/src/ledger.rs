//! Layer-ledger arithmetic: closure of the per-layer sum against the
//! traced total, tracing overhead, useful-outcome ratios, and the
//! clock that times each layer call.

use std::time::Instant;

/// Per-layer wall-time totals, each layer call timed by its own start
/// and stop. Work between calls (loop control, glue, bookkeeping) falls
/// outside every layer, so [`closure_ratio`] over these totals measures
/// how much of a traced loop the layers really cover.
#[derive(Debug, Clone)]
pub struct LayerClock<const N: usize> {
    ns: [u128; N],
    calls: [u64; N],
}

impl<const N: usize> Default for LayerClock<N> {
    fn default() -> Self {
        Self { ns: [0; N], calls: [0; N] }
    }
}

impl<const N: usize> LayerClock<N> {
    /// Run `f` and charge its wall time to `layer`.
    pub fn time<T>(&mut self, layer: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.ns[layer] += start.elapsed().as_nanos();
        self.calls[layer] += 1;
        out
    }

    /// Nanoseconds charged to each layer, less the timer's own share
    /// of each call ([`SpanCost::charged_ns`]).
    #[must_use]
    pub fn layer_ns(&self, cost: SpanCost) -> [f64; N] {
        std::array::from_fn(|i| self.ns[i] as f64 - self.calls[i] as f64 * cost.charged_ns)
    }

    /// Wall nanoseconds the timer itself added to the loop around it.
    #[must_use]
    pub fn timer_ns(&self, cost: SpanCost) -> f64 {
        self.calls.iter().sum::<u64>() as f64 * cost.wall_ns
    }
}

/// What timing one call costs, measured on empty calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanCost {
    /// Nanoseconds an empty call charges to its layer.
    pub charged_ns: f64,
    /// Wall nanoseconds an empty call takes, charged part included.
    pub wall_ns: f64,
}

impl SpanCost {
    /// Time `calls` empty calls.
    #[must_use]
    pub fn calibrate(calls: u32) -> Self {
        let mut clock = LayerClock::<1>::default();
        let start = Instant::now();
        for _ in 0..calls {
            clock.time(0, || std::hint::black_box(()));
        }
        let wall = start.elapsed().as_nanos() as f64;
        let calls = f64::from(calls.max(1));
        Self { charged_ns: clock.ns[0] as f64 / calls, wall_ns: wall / calls }
    }
}

/// The traced layers must account for the traced total within this
/// band: `closure_ratio` in `[1 - CLOSURE_TOLERANCE, 1 + CLOSURE_TOLERANCE]`.
pub const CLOSURE_TOLERANCE: f64 = 0.10;

/// The sum of the per-layer times divided by the traced total, both
/// without the timer's own cost ([`LayerClock::layer_ns`],
/// [`LayerClock::timer_ns`]). 1.0 means every nanosecond of the traced
/// loop is attributed to a layer; below 1.0 is glue time no span covers,
/// above 1.0 is double counting.
#[must_use]
pub fn closure_ratio(layer_ns: &[f64], traced_total_ns: f64) -> f64 {
    layer_ns.iter().sum::<f64>() / traced_total_ns
}

/// Whether a closure ratio lies inside [`CLOSURE_TOLERANCE`].
#[must_use]
pub fn closes(ratio: f64) -> bool {
    (ratio - 1.0).abs() <= CLOSURE_TOLERANCE
}

/// The traced run's extra cost over the untraced run, in percent of
/// the untraced run.
#[must_use]
pub fn overhead_pct(traced_ns: f64, untraced_ns: f64) -> f64 {
    (traced_ns / untraced_ns - 1.0) * 100.0
}

/// Useful outcomes over attempts (e.g. recycle hits over recycle
/// attempts); 0 when nothing was attempted.
#[must_use]
pub fn hit_ratio(hits: u64, attempts: u64) -> f64 {
    if attempts == 0 {
        0.0
    } else {
        hits as f64 / attempts as f64
    }
}

/// A total in nanoseconds spread over `count` units (observations,
/// traces), as nanoseconds per unit; 0 when `count` is 0.
#[must_use]
pub fn per_unit(total_ns: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total_ns / count as f64
    }
}

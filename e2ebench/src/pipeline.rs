//! The traced pipeline: a [`TraceSource`] wrapper that times each
//! shard's `run_shard` fill against the time spent inside the session's
//! sink (the bus send, backpressure included), from outside the program.

use psc_core::source::{ShardPlan, TraceSource};
use psc_telemetry::block::EventBlock;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shard 0 keeps a copy of one block in this many, for replaying the
/// stream into an analysis accumulator afterwards. Copies are made
/// between the fill and sink timers, so they are charged to neither.
pub const CAPTURE_EVERY: u64 = 4;

/// What the wrapped source did, summed over shards.
#[derive(Debug, Default)]
pub struct PipelineTally {
    /// Time inside the wrapped `run_shard`, outside the sink.
    pub fill: Duration,
    /// Time inside the sink.
    pub send: Duration,
    /// Rows (block observations) handed to the sink.
    pub rows: u64,
    /// Blocks handed to the sink.
    pub blocks: u64,
    /// The first `run_shard` entry of any shard.
    pub first_fill: Option<Instant>,
    /// The last sink return of any shard.
    pub last_return: Option<Instant>,
    /// Every [`CAPTURE_EVERY`]-th block of shard 0.
    pub captured: Vec<EventBlock>,
}

/// A [`TraceSource`] that delegates to `inner` and keeps a
/// [`PipelineTally`].
pub struct TimedSource<S> {
    inner: S,
    tally: Arc<Mutex<PipelineTally>>,
}

impl<S: TraceSource> TimedSource<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Self {
        Self { inner, tally: Arc::default() }
    }

    /// A handle on the tally that outlives the source, which the
    /// campaign takes ownership of.
    pub fn tally(&self) -> Arc<Mutex<PipelineTally>> {
        Arc::clone(&self.tally)
    }
}

impl<S: TraceSource> TraceSource for TimedSource<S> {
    fn shard_count(&self, requested: usize) -> usize {
        self.inner.shard_count(requested)
    }

    fn run_shard(
        &self,
        plan: &ShardPlan<'_>,
        sink: &mut dyn FnMut(&mut EventBlock),
        stop: &AtomicBool,
    ) -> usize {
        let entered = Instant::now();
        let mut local = PipelineTally::default();
        let mut prev = entered;
        let produced = self.inner.run_shard(
            plan,
            &mut |block| {
                let filled = Instant::now();
                local.fill += filled - prev;
                if plan.shard == 0 && local.blocks % CAPTURE_EVERY == 0 {
                    local.captured.push(block.clone());
                }
                local.rows += block.len() as u64;
                local.blocks += 1;
                let sent = Instant::now();
                sink(block);
                prev = Instant::now();
                local.send += prev - sent;
            },
            stop,
        );
        local.fill += prev.elapsed();
        local.last_return = Some(prev);
        let mut tally = self.tally.lock().expect("tally lock poisoned by a shard panic");
        tally.fill += local.fill;
        tally.send += local.send;
        tally.rows += local.rows;
        tally.blocks += local.blocks;
        tally.first_fill = Some(tally.first_fill.map_or(entered, |t| t.min(entered)));
        tally.last_return = tally.last_return.max(local.last_return);
        tally.captured.append(&mut local.captured);
        produced
    }

    fn fingerprint_tag(&self) -> &'static str {
        self.inner.fingerprint_tag()
    }
}

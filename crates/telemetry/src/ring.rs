//! Bounded ring buffer and the blocking MPSC channel built on it.
//!
//! Trace collection must never be silently unbounded: a real attacker's
//! poll loop outruns analysis all the time, and the paper's campaigns run
//! for tens of thousands of windows. Every queue in the telemetry pipeline
//! is therefore a fixed-capacity ring with an explicit overflow policy and
//! exact drop accounting — `Block` applies backpressure to the producer,
//! the `Drop*` policies shed load but count every shed event.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// What to do when a push meets a full buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Producer waits until space frees up (channel) / push is refused
    /// (raw buffer). No data loss.
    #[default]
    Block,
    /// The incoming item is discarded and counted.
    DropNewest,
    /// The oldest queued item is evicted (and counted) to make room.
    DropOldest,
}

/// Fixed-capacity FIFO with drop accounting.
#[derive(Debug, Clone)]
pub struct RingBuffer<T> {
    buf: VecDeque<T>,
    capacity: usize,
    policy: OverflowPolicy,
    dropped: u64,
    accepted: u64,
    high_water: u64,
}

impl<T> RingBuffer<T> {
    /// New buffer holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize, policy: OverflowPolicy) -> Self {
        assert!(capacity > 0, "ring buffer needs capacity >= 1");
        Self {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            policy,
            dropped: 0,
            accepted: 0,
            high_water: 0,
        }
    }

    /// Queued item count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer holds no items.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Whether the buffer is at capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.buf.len() >= self.capacity
    }

    /// The fixed capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items dropped so far (shed pushes under `DropNewest`, evictions
    /// under `DropOldest`, refused pushes under `Block`).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Items accepted into the buffer so far.
    #[must_use]
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Peak queued occupancy ever reached, in items. Tracked under the
    /// same push path that owns the buffer, so it is exact, not sampled.
    #[must_use]
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Push under the configured policy. Returns `true` when `item` was
    /// accepted. Under `Block` a full buffer refuses the push (the caller
    /// — e.g. the channel sender — is responsible for waiting and
    /// retrying) and the refusal is counted as a drop.
    pub fn push(&mut self, item: T) -> bool {
        if self.is_full() {
            match self.policy {
                OverflowPolicy::Block | OverflowPolicy::DropNewest => {
                    self.dropped += 1;
                    return false;
                }
                OverflowPolicy::DropOldest => {
                    self.buf.pop_front();
                    self.dropped += 1;
                }
            }
        }
        self.buf.push_back(item);
        self.accepted += 1;
        self.high_water = self.high_water.max(self.buf.len() as u64);
        true
    }

    /// Push that never counts a refusal: used by the blocking channel,
    /// which waits for space instead of shedding. Returns `false` (without
    /// touching counters) when full.
    pub fn try_push(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            return Err(item);
        }
        self.buf.push_back(item);
        self.accepted += 1;
        self.high_water = self.high_water.max(self.buf.len() as u64);
        Ok(())
    }

    /// Pop the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.buf.pop_front()
    }
}

/// Counters snapshot for one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Items accepted into the queue.
    pub accepted: u64,
    /// Items shed (policy drops).
    pub dropped: u64,
    /// Items handed to the receiver.
    pub delivered: u64,
    /// Peak queued occupancy, in items (exact, tracked on every push).
    pub high_water: u64,
}

impl ChannelStats {
    /// Combine two independent channels' counters (e.g. two shards'
    /// buses): the flow counters sum.
    #[must_use]
    pub fn merged(self, other: Self) -> Self {
        Self {
            accepted: self.accepted + other.accepted,
            dropped: self.dropped + other.dropped,
            delivered: self.delivered + other.delivered,
            // Peak occupancy merges like a gauge: the fleet's peak is the
            // worst shard's peak, not a sum over independent buses.
            high_water: self.high_water.max(other.high_water),
        }
    }
}

struct ChannelState<T> {
    ring: RingBuffer<T>,
    senders: usize,
    receiver_alive: bool,
    delivered: u64,
    /// Senders currently parked on `not_full` (Block policy).
    waiting_senders: usize,
    /// Whether the receiver is parked on `not_empty`.
    receiver_waiting: bool,
}

struct Shared<T> {
    state: Mutex<ChannelState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Sending half of a bounded event channel. Clone for multiple producers.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Receiving half of a bounded event channel.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// The error returned when sending into a channel whose receiver is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

impl core::fmt::Display for Disconnected {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("telemetry channel receiver dropped")
    }
}

impl std::error::Error for Disconnected {}

/// Create a bounded channel of `capacity` items with `policy` overflow
/// behavior. `Block` gives lossless backpressure; the `Drop*` policies
/// shed load and account for it in [`ChannelStats::dropped`].
#[must_use]
pub fn channel<T>(capacity: usize, policy: OverflowPolicy) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(ChannelState {
            ring: RingBuffer::new(capacity, policy),
            senders: 1,
            receiver_alive: true,
            delivered: 0,
            waiting_senders: 0,
            receiver_waiting: false,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
}

impl<T> Sender<T> {
    /// Send `item` under the channel's policy.
    ///
    /// # Errors
    ///
    /// Returns [`Disconnected`] when the receiver has been dropped.
    pub fn send(&self, item: T) -> Result<(), Disconnected> {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !state.receiver_alive {
                return Err(Disconnected);
            }
            match state.ring.policy {
                OverflowPolicy::Block => {
                    if state.ring.is_full() {
                        state.waiting_senders += 1;
                        state = self.shared.not_full.wait(state).unwrap_or_else(|e| e.into_inner());
                        state.waiting_senders -= 1;
                        continue;
                    }
                    let _ = state.ring.try_push(item);
                }
                OverflowPolicy::DropNewest | OverflowPolicy::DropOldest => {
                    state.ring.push(item);
                }
            }
            // Syscall-free hot path: wake the receiver only if it is
            // actually parked (tracked under the same lock).
            if state.receiver_waiting {
                self.shared.not_empty.notify_one();
            }
            return Ok(());
        }
    }

    /// Counters snapshot.
    #[must_use]
    pub fn stats(&self) -> ChannelStats {
        let state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        ChannelStats {
            accepted: state.ring.accepted(),
            dropped: state.ring.dropped(),
            delivered: state.delivered,
            high_water: state.ring.high_water(),
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.senders += 1;
        drop(state);
        Self { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.senders -= 1;
        if state.senders == 0 {
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Receive the next event, blocking while producers are alive.
    /// `None` means the channel is drained and every sender is gone.
    pub fn recv(&self) -> Option<T> {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = state.ring.pop() {
                state.delivered += 1;
                // Syscall-free hot path: wake a sender only if one is
                // actually parked (tracked under the same lock).
                if state.waiting_senders > 0 {
                    self.shared.not_full.notify_one();
                }
                return Some(item);
            }
            if state.senders == 0 {
                return None;
            }
            state.receiver_waiting = true;
            state = self.shared.not_empty.wait(state).unwrap_or_else(|e| e.into_inner());
            state.receiver_waiting = false;
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        let item = state.ring.pop();
        if item.is_some() {
            state.delivered += 1;
            if state.waiting_senders > 0 {
                self.shared.not_full.notify_one();
            }
        }
        item
    }

    /// Counters snapshot.
    #[must_use]
    pub fn stats(&self) -> ChannelStats {
        let state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        ChannelStats {
            accepted: state.ring.accepted(),
            dropped: state.ring.dropped(),
            delivered: state.delivered,
            high_water: state.ring.high_water(),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.receiver_alive = false;
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let mut ring = RingBuffer::new(4, OverflowPolicy::Block);
        for i in 0..4 {
            assert!(ring.push(i));
        }
        assert!(!ring.push(99), "full buffer refuses under Block");
        assert_eq!(ring.dropped(), 1);
        let drained: Vec<i32> = std::iter::from_fn(|| ring.pop()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3]);
    }

    #[test]
    fn high_water_tracks_peak_occupancy() {
        let mut ring = RingBuffer::new(8, OverflowPolicy::Block);
        for i in 0..5 {
            ring.push(i);
        }
        ring.pop();
        ring.pop();
        ring.push(9);
        assert_eq!(ring.high_water(), 5, "peak was 5, current occupancy is 4");
        let (tx, rx) = channel::<u8>(4, OverflowPolicy::DropNewest);
        for i in 0..3 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.stats().high_water, 3);
    }

    #[test]
    fn merged_stats_sum_flows_and_keep_the_peak() {
        let a = ChannelStats { accepted: 10, dropped: 1, delivered: 9, high_water: 7 };
        let b = ChannelStats { accepted: 5, dropped: 2, delivered: 5, high_water: 3 };
        let m = a.merged(b);
        assert_eq!(m, ChannelStats { accepted: 15, dropped: 3, delivered: 14, high_water: 7 });
        assert_eq!(m, b.merged(a), "merge order does not matter");
        assert_eq!(a.merged(ChannelStats::default()), a, "empty stats are the identity");
    }

    #[test]
    fn drop_oldest_evicts_front() {
        let mut ring = RingBuffer::new(2, OverflowPolicy::DropOldest);
        ring.push(1);
        ring.push(2);
        ring.push(3);
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.pop(), Some(3));
    }

    #[test]
    fn drop_newest_sheds_incoming() {
        let mut ring = RingBuffer::new(2, OverflowPolicy::DropNewest);
        ring.push(1);
        ring.push(2);
        assert!(!ring.push(3));
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.accepted(), 2);
        assert_eq!(ring.pop(), Some(1));
    }

    #[test]
    fn channel_backpressure_roundtrip() {
        let (tx, rx) = channel::<u64>(8, OverflowPolicy::Block);
        let producer = std::thread::spawn(move || {
            for i in 0..1000 {
                tx.send(i).expect("receiver alive");
            }
        });
        let mut got = Vec::new();
        while let Some(v) = rx.recv() {
            got.push(v);
        }
        producer.join().expect("producer ok");
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
        let stats = rx.stats();
        assert_eq!(stats.accepted, 1000);
        assert_eq!(stats.delivered, 1000);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn channel_send_fails_after_receiver_drop() {
        let (tx, rx) = channel::<u8>(2, OverflowPolicy::Block);
        drop(rx);
        assert_eq!(tx.send(1), Err(Disconnected));
    }

    #[test]
    fn lossy_channel_counts_drops() {
        let (tx, rx) = channel::<u32>(2, OverflowPolicy::DropNewest);
        for i in 0..10 {
            tx.send(i).expect("receiver alive");
        }
        assert_eq!(rx.stats().dropped, 8);
        assert_eq!(rx.recv(), Some(0));
        assert_eq!(rx.recv(), Some(1));
        drop(tx);
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn multiple_producers_all_delivered() {
        let (tx, rx) = channel::<u64>(16, OverflowPolicy::Block);
        let txs: Vec<_> = (0..4).map(|_| tx.clone()).collect();
        drop(tx);
        let handles: Vec<_> = txs
            .into_iter()
            .enumerate()
            .map(|(p, tx)| {
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        tx.send(p as u64 * 1000 + i).expect("receiver alive");
                    }
                })
            })
            .collect();
        let mut got = Vec::new();
        while let Some(v) = rx.recv() {
            got.push(v);
        }
        for h in handles {
            h.join().expect("producer ok");
        }
        got.sort_unstable();
        let mut expect: Vec<u64> =
            (0..4).flat_map(|p| (0..100).map(move |i| p * 1000 + i)).collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }
}

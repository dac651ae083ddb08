//! Streaming rating ingestion: the data-side half of the online loop.
//!
//! Batch training consumes a frozen `R`; a deployed recommender keeps
//! receiving ratings after the model ships.  This module models that feed:
//!
//! * [`RatingStream`] — a pull-based source of time-ordered rating
//!   mutations over a fixed item catalog;
//! * [`SyntheticMutationStream`] — a synthetic source that continues a
//!   generated [`crate::synth::SyntheticDataset`]: events
//!   are drawn from the same Zipf popularity/activity alias tables and
//!   valued by the same ground-truth low-rank model (plus noise), so
//!   incremental training on the stream is statistically consistent with
//!   the batch that preceded it.  A configurable slice of events comes from
//!   *new* users the batch never saw — the fold-in workload;
//! * [`ReplayStream`] — replays recorded ratings (a triplet file or an
//!   in-memory list) in order;
//! * [`StreamBatcher`] — a bounded-channel producer/consumer bridge that
//!   stamps each event's **ingest instant** and hands the training side
//!   time-ordered [`MiniBatch`]es.  The bound is the backpressure knob: a
//!   slow trainer stalls the producer instead of buffering unboundedly.
//!
//! The ingest instants survive all the way to the serving tier, where the
//! freshness histogram (`serve_freshness_*`) measures ingest → first
//! visible snapshot per event.

use crate::synth::{gaussian, AliasTable, SyntheticDataset};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, TryRecvError, TrySendError};
use cumf_linalg::blas::dot;
use cumf_linalg::FactorMatrix;
use cumf_sparse::Entry;
use rand::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A pull-based source of time-ordered rating mutations.
///
/// Implementations must emit item ids below [`RatingStream::n_items`]; user
/// ids are unbounded (ids beyond the trained matrix are *new* users the
/// online loop folds in or SGD-absorbs).
pub trait RatingStream {
    /// The item-catalog width every event's item id falls under.
    fn n_items(&self) -> u32;

    /// Pulls the next rating mutation, or `None` once the stream is
    /// exhausted.
    fn next_rating(&mut self) -> Option<Entry>;
}

/// Configuration of a [`SyntheticMutationStream`].
#[derive(Debug, Clone, PartialEq)]
pub struct MutationStreamConfig {
    /// Total number of events the stream emits before reporting exhaustion.
    pub events: usize,
    /// Size of the pool of brand-new users (ids `m..m + new_users`) that may
    /// appear in the stream.
    pub new_users: u32,
    /// Probability that an event comes from the new-user pool.
    pub new_user_fraction: f64,
    /// Standard deviation of the additive noise on streamed ratings.
    pub noise_std: f32,
    /// RNG seed; the same seed replays the identical event sequence.
    pub seed: u64,
}

impl Default for MutationStreamConfig {
    fn default() -> Self {
        Self {
            events: 1000,
            new_users: 0,
            new_user_fraction: 0.0,
            noise_std: 0.1,
            seed: 42,
        }
    }
}

/// A synthetic mutation stream continuing a generated data set (see the
/// module docs).
pub struct SyntheticMutationStream {
    config: MutationStreamConfig,
    n_items: u32,
    trained_users: u32,
    rating_min: f32,
    rating_max: f32,
    rating_mid: f32,
    true_x: FactorMatrix,
    extra_x: FactorMatrix,
    true_theta: FactorMatrix,
    user_dist: AliasTable,
    item_dist: AliasTable,
    rng: StdRng,
    emitted: usize,
}

impl SyntheticMutationStream {
    /// Builds the stream from the data set the batch model was trained on.
    pub fn new(dataset: &SyntheticDataset, config: MutationStreamConfig) -> Self {
        let base = &dataset.config;
        assert!(
            config.new_user_fraction == 0.0 || config.new_users > 0,
            "a non-zero new-user fraction needs a new-user pool"
        );
        let extra_x = FactorMatrix::random_centered(
            config.new_users as usize,
            base.rank,
            base.factor_half_width(),
            config.seed ^ 0x5EED_CAFE,
        );
        Self {
            n_items: base.n,
            trained_users: base.m,
            rating_min: base.rating_min,
            rating_max: base.rating_max,
            rating_mid: (base.rating_min + base.rating_max) / 2.0,
            true_x: dataset.true_x.clone(),
            extra_x,
            true_theta: dataset.true_theta.clone(),
            user_dist: AliasTable::from_zipf(base.m as usize, base.user_zipf),
            item_dist: AliasTable::from_zipf(base.n as usize, base.item_zipf),
            rng: StdRng::seed_from_u64(config.seed),
            config,
            emitted: 0,
        }
    }
}

impl RatingStream for SyntheticMutationStream {
    fn n_items(&self) -> u32 {
        self.n_items
    }

    fn next_rating(&mut self) -> Option<Entry> {
        if self.emitted >= self.config.events {
            return None;
        }
        self.emitted += 1;
        let from_new_pool =
            self.config.new_users > 0 && self.rng.random::<f64>() < self.config.new_user_fraction;
        let (user, x_row) = if from_new_pool {
            let k = self.rng.random_range(0..self.config.new_users);
            (self.trained_users + k, self.extra_x.vector(k as usize))
        } else {
            let u = self.user_dist.sample(&mut self.rng);
            (u, self.true_x.vector(u as usize))
        };
        let item = self.item_dist.sample(&mut self.rng);
        let mean = self.rating_mid + dot(x_row, self.true_theta.vector(item as usize));
        let noise = gaussian(&mut self.rng) * self.config.noise_std;
        Some(Entry {
            row: user,
            col: item,
            val: (mean + noise).clamp(self.rating_min, self.rating_max),
        })
    }
}

/// Replays recorded ratings in order.
pub struct ReplayStream {
    entries: std::vec::IntoIter<Entry>,
    n_items: u32,
}

impl ReplayStream {
    /// Replays an in-memory list over a catalog of `n_items` items.
    ///
    /// # Panics
    /// Panics if an entry's item id is outside the catalog.
    pub fn from_entries(entries: Vec<Entry>, n_items: u32) -> Self {
        assert!(
            entries.iter().all(|e| e.col < n_items),
            "replayed rating item id out of range"
        );
        Self {
            entries: entries.into_iter(),
            n_items,
        }
    }
}

impl RatingStream for ReplayStream {
    fn n_items(&self) -> u32 {
        self.n_items
    }

    fn next_rating(&mut self) -> Option<Entry> {
        self.entries.next()
    }
}

/// One rating mutation as ingested: the entry plus the instant the batcher
/// accepted it (the zero point of the freshness measurement).
#[derive(Debug, Clone, Copy)]
pub struct RatingEvent {
    /// The rating mutation.
    pub entry: Entry,
    /// When the batcher ingested the event.
    pub ingested_at: Instant,
}

/// A time-ordered slice of the stream, as handed to the training side.
#[derive(Debug, Clone)]
pub struct MiniBatch {
    /// Events in ingest order.
    pub events: Vec<RatingEvent>,
}

impl MiniBatch {
    /// Number of events in the batch.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The bare rating entries, in ingest order.
    pub fn entries(&self) -> Vec<Entry> {
        self.events.iter().map(|e| e.entry).collect()
    }
}

/// What the producer does when the bounded channel is full — the
/// backpressure policy of a [`StreamBatcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Block the producer until the consumer drains (the original, and
    /// default, behaviour): no event is ever lost, at the price of stalling
    /// ingestion behind a slow trainer.
    #[default]
    Block,
    /// Shed load instead of stalling: drop the **oldest** queued event to
    /// make room for the new one, so the window the trainer sees stays
    /// fresh.  Every shed event increments
    /// [`StreamBatcher::dropped_events`].
    DropOldest,
}

/// Bridges a [`RatingStream`] to the training side through a bounded
/// channel: a producer thread pulls the stream and stamps ingest instants;
/// [`StreamBatcher::next_batch`] drains time-ordered mini-batches.
pub struct StreamBatcher {
    rx: Receiver<RatingEvent>,
    producer: Option<JoinHandle<()>>,
    dropped: Arc<AtomicU64>,
    closed: Arc<AtomicBool>,
}

impl StreamBatcher {
    /// Spawns the producer over `stream` with a channel bound of
    /// `capacity` events (the backpressure knob), blocking the producer
    /// when the channel fills ([`BackpressurePolicy::Block`]).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn spawn<S>(stream: S, capacity: usize) -> Self
    where
        S: RatingStream + Send + 'static,
    {
        Self::spawn_with_policy(stream, capacity, BackpressurePolicy::default())
    }

    /// [`StreamBatcher::spawn`] under an explicit [`BackpressurePolicy`].
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn spawn_with_policy<S>(mut stream: S, capacity: usize, policy: BackpressurePolicy) -> Self
    where
        S: RatingStream + Send + 'static,
    {
        assert!(capacity > 0, "stream batcher needs a positive capacity");
        let (tx, rx) = bounded::<RatingEvent>(capacity);
        let dropped = Arc::new(AtomicU64::new(0));
        let closed = Arc::new(AtomicBool::new(false));
        // DropOldest needs its own receiver handle to pop the head of the
        // queue.  Block must NOT hold one: a blocked `send` unblocks on
        // receiver disconnect, which a producer-held clone would prevent.
        let drain = matches!(policy, BackpressurePolicy::DropOldest).then(|| rx.clone());
        let producer = std::thread::spawn({
            let dropped = Arc::clone(&dropped);
            let closed = Arc::clone(&closed);
            move || {
                while let Some(entry) = stream.next_rating() {
                    // ordering-ok: the flag is a plain stop signal; Acquire
                    // pairs with Drop's Release store
                    if closed.load(Ordering::Acquire) {
                        return;
                    }
                    let mut event = RatingEvent {
                        entry,
                        ingested_at: Instant::now(),
                    };
                    match (policy, &drain) {
                        (BackpressurePolicy::Block, _) => {
                            // A send fails only when the consumer dropped
                            // the batcher; the producer just winds down.
                            if tx.send(event).is_err() {
                                return;
                            }
                        }
                        (BackpressurePolicy::DropOldest, Some(drain)) => loop {
                            match tx.try_send(event) {
                                Ok(()) => break,
                                Err(TrySendError::Full(e)) => {
                                    event = e;
                                    // ordering-ok: same stop signal as above
                                    if closed.load(Ordering::Acquire) {
                                        return;
                                    }
                                    // Shed the head; a consumer racing us to
                                    // it simply leaves room and no drop.
                                    if drain.try_recv().is_ok() {
                                        // ordering-ok: monotonic counter
                                        dropped.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                Err(TrySendError::Disconnected(_)) => return,
                            }
                        },
                        (BackpressurePolicy::DropOldest, None) => unreachable!(),
                    }
                }
            }
        });
        Self {
            rx,
            producer: Some(producer),
            dropped,
            closed,
        }
    }

    /// Events the producer shed under [`BackpressurePolicy::DropOldest`]
    /// (always 0 under [`BackpressurePolicy::Block`]).
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed) // ordering-ok: monotonic counter read
    }

    /// Blocks up to `max_wait` for the first event, then drains whatever
    /// else is already queued (up to `max_events`).  Returns an empty batch
    /// when `max_wait` passes with nothing queued (the stream is live but
    /// quiet), and `None` once the stream is exhausted and fully drained.
    /// A `max_wait` of `Duration::MAX` waits for the first event or the
    /// stream's end.
    pub fn next_batch(&self, max_events: usize, max_wait: Duration) -> Option<MiniBatch> {
        assert!(
            max_events > 0,
            "mini-batches need room for at least one event"
        );
        let first = match self.rx.recv_timeout(max_wait) {
            Ok(event) => event,
            Err(RecvTimeoutError::Timeout) => return Some(MiniBatch { events: Vec::new() }),
            Err(RecvTimeoutError::Disconnected) => return None,
        };
        let mut events = vec![first];
        while events.len() < max_events {
            match self.rx.try_recv() {
                Ok(event) => events.push(event),
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
        Some(MiniBatch { events })
    }
}

impl Drop for StreamBatcher {
    fn drop(&mut self) {
        // Raise the stop flag (a DropOldest producer holds its own receiver
        // clone, so channel disconnect alone cannot reach it), then close
        // the channel so a Block producer stuck in `send` unblocks, then
        // join.
        self.closed.store(true, Ordering::Release); // ordering-ok: Release pairs with the producer's Acquire loads
        let (tx, rx) = bounded(1);
        drop(tx);
        self.rx = rx;
        if let Some(handle) = self.producer.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SyntheticConfig;

    fn dataset() -> SyntheticDataset {
        SyntheticConfig {
            m: 120,
            n: 60,
            nnz: 3000,
            rank: 4,
            noise_std: 0.05,
            ..Default::default()
        }
        .generate()
    }

    #[test]
    fn synthetic_stream_is_deterministic_and_bounded() {
        let d = dataset();
        let cfg = MutationStreamConfig {
            events: 500,
            ..Default::default()
        };
        let collect = |mut s: SyntheticMutationStream| {
            let mut out = Vec::new();
            while let Some(e) = s.next_rating() {
                out.push(e);
            }
            out
        };
        let a = collect(SyntheticMutationStream::new(&d, cfg.clone()));
        let b = collect(SyntheticMutationStream::new(&d, cfg.clone()));
        assert_eq!(a.len(), 500);
        assert_eq!(a, b, "same seed must replay the same stream");
        for e in &a {
            assert!(e.col < d.config.n);
            assert!(e.row < d.config.m, "no new-user pool was configured");
            assert!(e.val >= d.config.rating_min && e.val <= d.config.rating_max);
        }
    }

    #[test]
    fn new_user_pool_mixes_unseen_users_in() {
        let d = dataset();
        let mut s = SyntheticMutationStream::new(
            &d,
            MutationStreamConfig {
                events: 2000,
                new_users: 10,
                new_user_fraction: 0.3,
                ..Default::default()
            },
        );
        let mut new_events = 0usize;
        let mut total = 0usize;
        while let Some(e) = s.next_rating() {
            total += 1;
            if e.row >= d.config.m {
                assert!(e.row < d.config.m + 10);
                new_events += 1;
            }
        }
        let frac = new_events as f64 / total as f64;
        assert!(
            (0.2..0.4).contains(&frac),
            "~30% of events should be new users, got {frac}"
        );
    }

    #[test]
    fn streamed_values_are_consistent_with_the_ground_truth() {
        // The stream prices ratings with the same model that generated the
        // batch, so the ground-truth prediction error on streamed events is
        // near the configured noise level — that's what makes incremental
        // training on the stream meaningful.
        let d = dataset();
        let mut s = SyntheticMutationStream::new(
            &d,
            MutationStreamConfig {
                events: 2000,
                noise_std: 0.05,
                ..Default::default()
            },
        );
        let mut se = 0.0f64;
        let mut count = 0usize;
        while let Some(e) = s.next_rating() {
            let pred = d.config.mean_rating(dot(
                d.true_x.vector(e.row as usize),
                d.true_theta.vector(e.col as usize),
            ));
            let pred = pred.clamp(d.config.rating_min, d.config.rating_max);
            se += ((e.val - pred) as f64).powi(2);
            count += 1;
        }
        let rmse = (se / count as f64).sqrt();
        assert!(rmse < 0.1, "stream noise floor should be tight, got {rmse}");
    }

    #[test]
    fn replay_stream_preserves_order() {
        let entries = vec![
            Entry {
                row: 0,
                col: 2,
                val: 1.0,
            },
            Entry {
                row: 5,
                col: 0,
                val: 3.0,
            },
        ];
        let mut s = ReplayStream::from_entries(entries.clone(), 3);
        assert_eq!(s.n_items(), 3);
        assert_eq!(s.next_rating(), Some(entries[0]));
        assert_eq!(s.next_rating(), Some(entries[1]));
        assert_eq!(s.next_rating(), None);
    }

    #[test]
    #[should_panic(expected = "item id out of range")]
    fn replay_stream_validates_the_catalog() {
        ReplayStream::from_entries(
            vec![Entry {
                row: 0,
                col: 9,
                val: 1.0,
            }],
            3,
        );
    }

    #[test]
    fn batcher_delivers_every_event_in_ingest_order() {
        let d = dataset();
        let cfg = MutationStreamConfig {
            events: 300,
            ..Default::default()
        };
        let mut expect = Vec::new();
        let mut reference = SyntheticMutationStream::new(&d, cfg.clone());
        while let Some(e) = reference.next_rating() {
            expect.push(e);
        }

        // A small capacity forces the producer through backpressure stalls.
        let batcher = StreamBatcher::spawn(SyntheticMutationStream::new(&d, cfg), 16);
        let mut got = Vec::new();
        let mut last_stamp: Option<Instant> = None;
        while let Some(batch) = batcher.next_batch(50, Duration::from_secs(5)) {
            for ev in &batch.events {
                if let Some(prev) = last_stamp {
                    assert!(ev.ingested_at >= prev, "ingest instants must be ordered");
                }
                last_stamp = Some(ev.ingested_at);
            }
            got.extend(batch.entries());
        }
        assert_eq!(got, expect, "the batcher must not drop or reorder events");
        assert_eq!(batcher.dropped_events(), 0, "Block never sheds events");
    }

    #[test]
    fn drop_oldest_sheds_the_head_and_counts_it() {
        // 100 instant events into a capacity-4 channel with no consumer
        // draining: under Block the producer would stall forever; under
        // DropOldest it must run to completion on its own, shedding the 96
        // oldest events and leaving the 4 newest queued.
        let entries: Vec<Entry> = (0..100u32)
            .map(|i| Entry {
                row: i,
                col: 0,
                val: i as f32,
            })
            .collect();
        let batcher = StreamBatcher::spawn_with_policy(
            ReplayStream::from_entries(entries, 1),
            4,
            BackpressurePolicy::DropOldest,
        );
        // No consumer races the producer here, so the end state is exact;
        // poll until the producer has worked through the stream.
        let deadline = Instant::now() + Duration::from_secs(10);
        while batcher.dropped_events() < 96 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(batcher.dropped_events(), 96);
        let batch = batcher
            .next_batch(100, Duration::from_secs(5))
            .expect("the freshest window must survive");
        let rows: Vec<u32> = batch.entries().iter().map(|e| e.row).collect();
        assert_eq!(rows, vec![96, 97, 98, 99], "oldest-first shedding");
        assert!(
            batcher.next_batch(100, Duration::from_secs(5)).is_none(),
            "stream exhausted after the retained window"
        );
    }

    #[test]
    fn dropping_a_drop_oldest_batcher_joins_cleanly() {
        // The DropOldest producer holds its own receiver clone, so Drop's
        // channel-disconnect trick alone cannot stop it — the stop flag
        // must.  A long stream + tiny capacity would otherwise keep the
        // producer shedding forever.
        let d = dataset();
        let batcher = StreamBatcher::spawn_with_policy(
            SyntheticMutationStream::new(
                &d,
                MutationStreamConfig {
                    events: 10_000_000,
                    ..Default::default()
                },
            ),
            2,
            BackpressurePolicy::DropOldest,
        );
        let _ = batcher.next_batch(10, Duration::from_millis(50));
        drop(batcher);
    }

    #[test]
    fn empty_wait_yields_an_empty_batch_not_exhaustion() {
        // A live-but-quiet stream: nothing arrives within the wait, but the
        // producer is still up, so the loop should keep polling.
        struct Quiet;
        impl RatingStream for Quiet {
            fn n_items(&self) -> u32 {
                1
            }
            fn next_rating(&mut self) -> Option<Entry> {
                std::thread::sleep(Duration::from_millis(200));
                None
            }
        }
        let batcher = StreamBatcher::spawn(Quiet, 4);
        let batch = batcher
            .next_batch(10, Duration::from_millis(1))
            .expect("stream is not exhausted yet");
        assert!(batch.is_empty());
    }

    #[test]
    fn dropping_the_batcher_unblocks_the_producer() {
        let d = dataset();
        let batcher = StreamBatcher::spawn(
            SyntheticMutationStream::new(
                &d,
                MutationStreamConfig {
                    events: 100_000,
                    ..Default::default()
                },
            ),
            2,
        );
        // Consume a little, then drop while the producer is blocked on the
        // full channel; Drop must join without hanging.
        let _ = batcher.next_batch(10, Duration::from_secs(1));
        drop(batcher);
    }
}

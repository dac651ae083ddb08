//! The closed online loop: streaming ingestion → incremental training →
//! delta publication under serving traffic.
//!
//! This module is where the PR-long arc of incremental machinery finally
//! meets: a [`cumf_data::stream::StreamBatcher`] hands the loop time-ordered
//! rating mini-batches, an incremental engine (any
//! [`cumf_core::IncrementalEngine`] fold-in, or a streaming
//! [`cumf_core::sgd::SgdEngine`]) turns each batch into updated user
//! factors, and a [`SnapshotDelta`] publishes exactly the touched rows
//! through [`SnapshotStore::publish_delta`] — `O(u·f)` bytes for `u`
//! touched users, never a full-catalog Θ copy.
//!
//! ## Freshness
//!
//! Every published batch records, per rating, the wall time from the
//! instant the [`StreamBatcher`] producer stamped it
//! ([`cumf_data::stream::RatingEvent::ingested_at`]) to the instant the
//! first snapshot generation reflecting it was published.  That histogram —
//! exported as `serve_freshness_*` — is the loop's end-to-end staleness
//! bound: serving traffic admitted after the publish sees the rating.
//! Publishing through a [`TopKService`] also re-scores the changed users'
//! cached replies before [`DeltaPublisher::publish_delta`] returns, so that
//! call's latency includes those scans; freshness is still stamped after it
//! returns, when the first read of a changed user is already a cache hit.
//!
//! ## Fold-in versus streaming SGD
//!
//! * [`OnlineLoop::fold_in`] re-solves each touched user's normal equations
//!   against the **serving snapshot's own item segments**
//!   ([`cumf_core::foldin::fold_in_users_segmented`] over
//!   [`crate::itemstore::ItemStore::views`]) — the item factors are read in
//!   place, so the loop moves `O(nnz_u·f²)` flops and `O(u·f)` bytes and
//!   the published [`DeltaStats::item_factor_bytes_copied`] is asserted to
//!   stay **zero**.  The solve reads nothing of the engine but its λ, its
//!   rank and its metrics sink, so the loop keeps those three and drops
//!   the engine with its own factors and training matrices.  Fold-in needs
//!   each user's full rating history (a re-solve from scratch), so the
//!   loop keeps one, seeded from the training matrix and updated per event
//!   with last-write-wins semantics: one item-sorted `(item, rating)` list
//!   per user id.
//! * [`OnlineLoop::sgd`] feeds each batch to
//!   [`cumf_core::sgd::SgdEngine::absorb`] — a few gradient steps per
//!   rating, no history needed — and publishes the touched rows of the
//!   engine's user snapshot.  Item factors drift inside the engine and
//!   reach serving only at the next full republish; the user-side effect of
//!   every rating is live immediately.
//!
//! Both modes append brand-new users (ids at or past the snapshot's user
//! count) through [`SnapshotDelta::append_users`]; id gaps between the
//! snapshot edge and the highest streamed user are filled with zero vectors
//! (fold-in: a user with no ratings solves to the zero vector) or the SGD
//! engine's initialization rows, so ids stay dense and stable.

use crate::batcher::TopKService;
use crate::metrics::{Latency, ServeMetrics};
use crate::snapshot::{DeltaError, DeltaStats, FactorSnapshot, SnapshotDelta, SnapshotStore};
use crate::sync::Arc;
use cumf_core::foldin::fold_in_users_segmented;
use cumf_core::sgd::SgdEngine;
use cumf_core::{Engine, IncrementalEngine, TrainMetrics};
use cumf_data::stream::StreamBatcher;
use cumf_linalg::FactorMatrix;
use cumf_sparse::Csr;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Anything the loop can publish deltas through: the raw [`SnapshotStore`]
/// (tests, benches) or a live [`TopKService`] (which also refreshes the
/// changed users' cached replies and records publish metrics).
pub trait DeltaPublisher {
    /// The currently-published snapshot (what the next delta chains from).
    fn current(&self) -> Arc<FactorSnapshot>;

    /// Applies and publishes `delta`; see [`SnapshotStore::publish_delta`].
    fn publish_delta(&self, delta: &SnapshotDelta) -> Result<(u64, DeltaStats), DeltaError>;
}

impl DeltaPublisher for SnapshotStore {
    fn current(&self) -> Arc<FactorSnapshot> {
        self.load()
    }

    fn publish_delta(&self, delta: &SnapshotDelta) -> Result<(u64, DeltaStats), DeltaError> {
        SnapshotStore::publish_delta(self, delta)
    }
}

impl DeltaPublisher for TopKService {
    fn current(&self) -> Arc<FactorSnapshot> {
        self.snapshot()
    }

    fn publish_delta(&self, delta: &SnapshotDelta) -> Result<(u64, DeltaStats), DeltaError> {
        TopKService::publish_delta(self, delta)
    }
}

/// Knobs of the online loop.
#[derive(Debug, Clone)]
pub struct OnlineLoopConfig {
    /// Most rating events drained into one mini-batch (and therefore one
    /// solve + one delta publish).
    pub max_batch_events: usize,
    /// Longest a step waits for the first event before yielding an empty
    /// batch (the stream is live but quiet).
    pub max_batch_wait: Duration,
    /// How many times a step rebuilds its delta when a concurrent publisher
    /// wins the generation race ([`DeltaError::StaleBase`]).
    pub max_publish_retries: usize,
}

impl Default for OnlineLoopConfig {
    fn default() -> Self {
        Self {
            max_batch_events: 256,
            max_batch_wait: Duration::from_millis(50),
            max_publish_retries: 3,
        }
    }
}

/// Cumulative accounting of one loop's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnlineReport {
    /// Mini-batches drained (empty ones included).
    pub batches: u64,
    /// Batches that timed out with no events (stream quiet).
    pub empty_batches: u64,
    /// Rating events ingested and reflected in a publish.
    pub events: u64,
    /// Delta generations published.
    pub publishes: u64,
    /// Existing-user rows republished across all deltas.
    pub users_updated: u64,
    /// Brand-new users appended across all deltas (gap fillers included).
    pub users_appended: u64,
    /// The last generation this loop published (0 before the first).
    pub last_generation: u64,
}

/// What one [`OnlineLoop::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// Rating events in the drained mini-batch (0: quiet stream).
    pub events: usize,
    /// Generation published for this batch (`None` for an empty batch).
    pub generation: Option<u64>,
    /// Byte accounting of the publish (`None` for an empty batch).
    pub stats: Option<DeltaStats>,
}

/// Every user's known ratings, indexed by user id: each row sorted by item
/// id and holding the latest rating per item (last write wins on
/// re-rates).  Grows on demand as users past the end stream in.
#[derive(Debug, Default)]
struct History {
    rows: Vec<Vec<(u32, f32)>>,
}

impl History {
    /// Seeds the history from `training`, each row's entries applied in CSR
    /// order — so duplicate columns resolve like re-rates.
    fn from_training(training: &Csr) -> Self {
        let mut history = History::default();
        for u in 0..training.n_rows() {
            let (cols, vals) = training.row(u);
            history.rows.push(Vec::with_capacity(cols.len()));
            for (&v, &rating) in cols.iter().zip(vals) {
                history.rate(u, v, rating);
            }
        }
        history
    }

    /// Records `user`'s latest rating of `item`.
    fn rate(&mut self, user: u32, item: u32, rating: f32) {
        let u = user as usize;
        if u >= self.rows.len() {
            self.rows.resize_with(u + 1, Vec::new);
        }
        let row = &mut self.rows[u];
        match row.binary_search_by_key(&item, |&(v, _)| v) {
            Ok(i) => row[i].1 = rating,
            Err(i) => row.insert(i, (item, rating)),
        }
    }

    /// The fold-in ratings matrix of `users`: row `i` holds `users[i]`'s
    /// history over an `n_items`-column catalog.
    fn ratings_of(&self, users: &[u32], n_items: u32) -> Csr {
        let mut row_ptr = Vec::with_capacity(users.len() + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for &u in users {
            for &(v, rating) in self.rows.get(u as usize).map_or(&[][..], Vec::as_slice) {
                col_idx.push(v);
                values.push(rating);
            }
            row_ptr.push(col_idx.len());
        }
        Csr::from_raw(users.len() as u32, n_items, row_ptr, col_idx, values)
            // lint-ok: serve-unwrap row_ptr/col_idx/values are built consistently just above
            .expect("per-user history CSR is consistent by construction")
    }
}

/// How a batch of ratings becomes updated user factors.
enum Updater {
    /// Re-solve each touched user against the serving snapshot's item
    /// segments, from the user's full accumulated rating history.  Keeps
    /// only what that solve reads from the engine.
    FoldIn {
        /// The engine's fold-in regularization.
        lambda: f32,
        /// The engine's latent rank.
        rank: usize,
        /// The engine's attached metrics sink, which keeps recording
        /// fold-ins after the engine is gone.  A `cumf-core` handle, so
        /// it is a plain `std` `Arc` rather than a sync-facade one.
        // lint-ok: sync-facade the sink is shared with cumf-core, which is outside the facade
        metrics: Option<std::sync::Arc<TrainMetrics>>,
        history: History,
    },
    /// Absorb each batch as Hogwild gradient steps; publish the touched
    /// rows of the engine's user snapshot.  Boxed to keep the two
    /// variants' sizes comparable.
    Sgd { engine: Box<SgdEngine> },
}

/// Bytes of the block [`OnlineLoop::fold_in`] allocates and frees, never
/// written, once the engine is gone.
///
/// glibc maps every request at or above its mmap threshold afresh and
/// raises that threshold to the largest mapped block freed so far.  A
/// process that re-allocates buffers of a few MB around it — `perf/`'s
/// per-round latency copies on `serve_online`, 3–4 MB at ~100k reads/s —
/// then takes each from the heap or from a new mapping depending on the
/// order of their sizes, and a mapping made while the heap still holds a
/// freed copy costs one more copy of peak RSS, so the same run reads ~4 MB
/// apart from one time to the next.  Freeing this block lifts the
/// threshold above such buffers, so they all come from the heap.  It is
/// never resident; under other allocators it is one map and unmap.
const MMAP_THRESHOLD_LIFT: usize = 8 << 20;

/// The driver that closes the loop: drain a mini-batch, update factors
/// incrementally, publish the delta, record freshness — repeat until the
/// stream is exhausted.
pub struct OnlineLoop<'a> {
    publisher: &'a dyn DeltaPublisher,
    metrics: Arc<ServeMetrics>,
    batcher: StreamBatcher,
    updater: Updater,
    config: OnlineLoopConfig,
    report: OnlineReport,
}

impl<'a> OnlineLoop<'a> {
    /// A fold-in loop: each touched user is re-solved against the published
    /// snapshot's item segments with the engine's λ through
    /// [`cumf_core::foldin::fold_in_users_segmented`] — bit-identical to
    /// [`IncrementalEngine::fold_in_users`] over a contiguous `Θ` — so the
    /// item factors are never materialized or copied.  The engine itself is
    /// dropped here: the loop keeps its λ, rank and metrics sink (fold-ins
    /// keep recording into the sink).  `training` seeds the per-user rating
    /// history (fold-in re-solves from *all* of a user's known ratings, not
    /// just the streamed ones).
    ///
    /// # Panics
    /// Panics if the engine's latent rank disagrees with the published
    /// snapshot's.
    pub fn fold_in(
        engine: Box<dyn IncrementalEngine>,
        training: &Csr,
        batcher: StreamBatcher,
        publisher: &'a dyn DeltaPublisher,
        metrics: Arc<ServeMetrics>,
        config: OnlineLoopConfig,
    ) -> Self {
        let rank = engine.theta().rank();
        assert_eq!(
            rank,
            publisher.current().rank(),
            "fold-in engine rank must match the published snapshot"
        );
        let lambda = engine.fold_in_lambda();
        let fold_in_metrics = engine.metrics().cloned();
        // Freed before the history is built, so the two never coexist.
        drop(engine);
        // `black_box` keeps the optimiser from eliding the pair.
        drop(std::hint::black_box(Vec::<u8>::with_capacity(
            MMAP_THRESHOLD_LIFT,
        )));
        Self {
            publisher,
            metrics,
            batcher,
            updater: Updater::FoldIn {
                lambda,
                rank,
                metrics: fold_in_metrics,
                history: History::from_training(training),
            },
            config,
            report: OnlineReport::default(),
        }
    }

    /// A streaming-SGD loop: batches are absorbed as gradient steps by
    /// `engine` ([`SgdEngine::absorb`]) and the touched user rows of its
    /// snapshot are published.
    ///
    /// # Panics
    /// Panics if the engine's latent rank disagrees with the published
    /// snapshot's.
    pub fn sgd(
        engine: SgdEngine,
        batcher: StreamBatcher,
        publisher: &'a dyn DeltaPublisher,
        metrics: Arc<ServeMetrics>,
        config: OnlineLoopConfig,
    ) -> Self {
        assert_eq!(
            engine.theta().rank(),
            publisher.current().rank(),
            "SGD engine rank must match the published snapshot"
        );
        Self {
            publisher,
            metrics,
            batcher,
            updater: Updater::Sgd {
                engine: Box::new(engine),
            },
            config,
            report: OnlineReport::default(),
        }
    }

    /// Cumulative accounting so far.
    pub fn report(&self) -> OnlineReport {
        self.report
    }

    /// The streaming-SGD engine, when this is an SGD loop (for convergence
    /// checks against its live factors).
    pub fn sgd_engine(&self) -> Option<&SgdEngine> {
        match &self.updater {
            Updater::Sgd { engine } => Some(engine.as_ref()),
            Updater::FoldIn { .. } => None,
        }
    }

    /// Drains one mini-batch, updates factors, publishes the delta and
    /// records each rating's freshness.  Returns `Ok(None)` when the stream
    /// is exhausted, `Ok(Some(..))` otherwise (an empty outcome for a quiet
    /// stream).  A [`DeltaError`] other than a retried-away stale base is
    /// propagated — the loop never publishes over a newer generation.
    pub fn step(&mut self) -> Result<Option<StepOutcome>, DeltaError> {
        let Some(batch) = self
            .batcher
            .next_batch(self.config.max_batch_events, self.config.max_batch_wait)
        else {
            return Ok(None);
        };
        self.report.batches += 1;
        if batch.is_empty() {
            self.report.empty_batches += 1;
            return Ok(Some(StepOutcome {
                events: 0,
                generation: None,
                stats: None,
            }));
        }

        // Fold the batch into the updater's state exactly once (retries
        // below rebuild the delta, not the update).
        let entries = batch.entries();
        let touched: Vec<u32> = match &mut self.updater {
            Updater::FoldIn { history, .. } => {
                let mut touched = BTreeSet::new();
                for e in &entries {
                    history.rate(e.row, e.col, e.val);
                    touched.insert(e.row);
                }
                touched.into_iter().collect()
            }
            Updater::Sgd { engine } => engine.absorb(&entries),
        };

        let mut attempt = 0;
        let (generation, stats) = loop {
            let snap = self.publisher.current();
            let delta = self.build_delta(&snap, &touched);
            match self.publisher.publish_delta(&delta) {
                Ok(ok) => break ok,
                Err(DeltaError::StaleBase { .. }) if attempt < self.config.max_publish_retries => {
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        };
        // The loop never appends items, so the acceptance invariant of the
        // incremental path — zero full-catalog Θ bytes moved — must hold on
        // every publish.
        assert_eq!(
            stats.item_factor_bytes_copied, 0,
            "online delta publish copied item factors"
        );

        let published_at = Instant::now();
        for event in &batch.events {
            let age = published_at.saturating_duration_since(event.ingested_at);
            self.metrics.record(Latency::Freshness, age);
        }

        self.report.events += entries.len() as u64;
        self.report.publishes += 1;
        self.report.users_updated += stats.changed_users as u64;
        self.report.users_appended += stats.appended_users as u64;
        self.report.last_generation = generation;
        Ok(Some(StepOutcome {
            events: entries.len(),
            generation: Some(generation),
            stats: Some(stats),
        }))
    }

    /// Drives [`OnlineLoop::step`] until the stream is exhausted; returns
    /// the lifetime report.
    pub fn run(&mut self) -> Result<OnlineReport, DeltaError> {
        while self.step()?.is_some() {}
        Ok(self.report)
    }

    /// Builds the delta for `touched` users against `snap`: existing users
    /// become row updates, users past the snapshot edge become appends
    /// (with id gaps filled so ids stay dense).
    fn build_delta(&self, snap: &FactorSnapshot, touched: &[u32]) -> SnapshotDelta {
        let n_base = snap.n_users() as u32;
        let f = snap.rank();
        let mut delta = snap.delta();
        match &self.updater {
            Updater::FoldIn {
                lambda,
                rank,
                metrics,
                history,
            } => {
                // One CSR row per touched user, over the full history.
                let ratings = history.ratings_of(touched, snap.n_items() as u32);
                // The solve reads the serving snapshot's segments in place:
                // no Θ materialization, no catalog copy.
                let folded = fold_in_users_segmented(
                    &ratings,
                    &snap.items().views(),
                    *rank,
                    *lambda,
                    metrics.as_deref(),
                );
                let mut appended = Vec::new();
                let mut next_append = n_base;
                for (i, &u) in touched.iter().enumerate() {
                    if u < n_base {
                        delta.update_user(u, folded.vector(i));
                    } else {
                        // Fill the id gap with zero rows: a user with no
                        // ratings folds in to the zero vector anyway.
                        while next_append < u {
                            appended.extend(std::iter::repeat_n(0.0, f));
                            next_append += 1;
                        }
                        appended.extend_from_slice(folded.vector(i));
                        next_append += 1;
                    }
                }
                if !appended.is_empty() {
                    delta.append_users(&FactorMatrix::from_vec(appended.len() / f, f, appended));
                }
            }
            Updater::Sgd { engine } => {
                // `absorb` grew the engine's user set to cover every
                // touched id, so gap rows exist too (their initialization
                // vectors keep ids dense).
                let x = engine.x();
                for &u in touched.iter().filter(|&&u| u < n_base) {
                    delta.update_user(u, x.vector(u as usize));
                }
                let max_touched = touched.iter().copied().max().unwrap_or(0);
                if max_touched >= n_base {
                    let mut appended = Vec::new();
                    for u in n_base..=max_touched {
                        appended.extend_from_slice(x.vector(u as usize));
                    }
                    delta.append_users(&FactorMatrix::from_vec(appended.len() / f, f, appended));
                }
            }
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_core::als::AlsEngine;
    use cumf_core::config::AlsConfig;
    use cumf_core::sgd::SgdConfig;
    use cumf_core::Phase;
    use cumf_data::stream::{MutationStreamConfig, ReplayStream, SyntheticMutationStream};
    use cumf_data::synth::SyntheticConfig;
    use cumf_sparse::Entry;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, Ordering};

    const F: usize = 8;

    fn trained() -> (Csr, AlsEngine) {
        let data = SyntheticConfig {
            m: 60,
            n: 40,
            nnz: 1500,
            rank: 4,
            noise_std: 0.05,
            ..Default::default()
        }
        .generate();
        let r = data.to_csr();
        let config = AlsConfig {
            f: F,
            lambda: 0.05,
            ..Default::default()
        };
        let mut engine = AlsEngine::new(config, r.clone());
        for _ in 0..4 {
            engine.iterate();
        }
        (r, engine)
    }

    fn replay_batcher(entries: Vec<Entry>, n_items: u32) -> StreamBatcher {
        StreamBatcher::spawn(ReplayStream::from_entries(entries, n_items), 64)
    }

    #[test]
    fn fold_in_loop_publishes_deltas_and_matches_the_direct_solve() {
        let (r, engine) = trained();
        let store = SnapshotStore::new(FactorSnapshot::from_factors(
            engine.x().clone(),
            engine.theta().clone(),
        ));
        let metrics = Arc::new(ServeMetrics::new());

        // Re-rate two existing users' items and rate one unseen pair.
        let events = vec![
            Entry {
                row: 3,
                col: 7,
                val: 5.0,
            },
            Entry {
                row: 11,
                col: 2,
                val: 1.0,
            },
            Entry {
                row: 3,
                col: 9,
                val: 4.0,
            },
        ];
        let before = store.load();
        let mut driver = OnlineLoop::fold_in(
            Box::new(engine),
            &r,
            replay_batcher(events.clone(), r.n_cols()),
            &store,
            Arc::clone(&metrics),
            OnlineLoopConfig::default(),
        );
        let report = driver.run().unwrap();
        assert!(report.publishes >= 1);
        assert_eq!(report.events, 3);
        assert_eq!(report.users_appended, 0);

        let after = store.load();
        assert!(after.generation() > before.generation());
        // Touched users moved; untouched users are bit-identical (their COW
        // blocks are shared, not recomputed).
        assert_ne!(after.user_vector(3), before.user_vector(3));
        assert_ne!(after.user_vector(11), before.user_vector(11));
        assert_eq!(after.user_vector(40), before.user_vector(40));
        // Every rating's freshness was recorded once.
        assert_eq!(metrics.report()[Latency::Freshness].count(), 3);

        // The published row equals a direct fold-in over the merged history
        // (training ratings + streamed updates, last write wins).
        let mut merged: BTreeMap<u32, f32> = {
            let (cols, vals) = r.row(3);
            cols.iter().copied().zip(vals.iter().copied()).collect()
        };
        merged.insert(7, 5.0);
        merged.insert(9, 4.0);
        let cols: Vec<u32> = merged.keys().copied().collect();
        let vals: Vec<f32> = merged.values().copied().collect();
        let one = Csr::from_raw(1, r.n_cols(), vec![0, cols.len()], cols, vals).unwrap();
        let expect = cumf_core::foldin::fold_in_users(&one, &after.items().to_matrix(), 0.05, None);
        assert_eq!(after.user_vector(3).unwrap(), expect.vector(0));
    }

    #[test]
    fn fold_in_loop_appends_new_users_past_the_snapshot_edge() {
        let (r, engine) = trained();
        let n_base = r.n_rows();
        let store = SnapshotStore::new(FactorSnapshot::from_factors(
            engine.x().clone(),
            engine.theta().clone(),
        ));
        let metrics = Arc::new(ServeMetrics::new());
        // User n_base+2 arrives first: the gap users get zero vectors.
        let events = vec![
            Entry {
                row: n_base + 2,
                col: 1,
                val: 4.5,
            },
            Entry {
                row: n_base,
                col: 3,
                val: 2.0,
            },
        ];
        let mut driver = OnlineLoop::fold_in(
            Box::new(engine),
            &r,
            replay_batcher(events, r.n_cols()),
            &store,
            Arc::clone(&metrics),
            OnlineLoopConfig::default(),
        );
        let report = driver.run().unwrap();
        assert_eq!(report.users_appended, 3);

        let snap = store.load();
        assert_eq!(snap.n_users() as u32, n_base + 3);
        // The rated new users have non-zero vectors; the gap user is zero.
        assert!(snap
            .user_vector(n_base + 2)
            .unwrap()
            .iter()
            .any(|&x| x != 0.0));
        assert!(snap
            .user_vector(n_base + 1)
            .unwrap()
            .iter()
            .all(|&x| x == 0.0));
        // New users are servable immediately.
        assert_eq!(snap.recommend_one(n_base + 2, 5, &[]).len(), 5);
    }

    #[test]
    fn sgd_loop_publishes_absorbed_updates() {
        let (r, als) = trained();
        let store = SnapshotStore::new(FactorSnapshot::from_factors(
            als.x().clone(),
            als.theta().clone(),
        ));
        let metrics = Arc::new(ServeMetrics::new());
        let sgd = SgdEngine::new(
            SgdConfig {
                f: F,
                ..Default::default()
            },
            r.clone(),
        );
        let events = vec![
            Entry {
                row: 5,
                col: 1,
                val: 5.0,
            },
            Entry {
                row: r.n_rows() + 1,
                col: 2,
                val: 3.0,
            },
        ];
        let before = store.load();
        let mut driver = OnlineLoop::sgd(
            sgd,
            replay_batcher(events, r.n_cols()),
            &store,
            Arc::clone(&metrics),
            OnlineLoopConfig::default(),
        );
        let report = driver.run().unwrap();
        assert!(report.publishes >= 1);

        let after = store.load();
        assert_ne!(after.user_vector(5), before.user_vector(5));
        assert_eq!(after.n_users(), before.n_users() + 2);
        // The published row is exactly the engine's current snapshot row.
        let engine = driver.sgd_engine().unwrap();
        assert_eq!(after.user_vector(5).unwrap(), engine.x().vector(5));
        assert_eq!(metrics.report()[Latency::Freshness].count(), 2);
    }

    #[test]
    fn quiet_streams_yield_empty_steps_then_exhaustion() {
        let (r, engine) = trained();
        let store = SnapshotStore::new(FactorSnapshot::from_factors(
            engine.x().clone(),
            engine.theta().clone(),
        ));
        let metrics = Arc::new(ServeMetrics::new());
        let mut driver = OnlineLoop::fold_in(
            Box::new(engine),
            &r,
            replay_batcher(Vec::new(), r.n_cols()),
            &store,
            Arc::clone(&metrics),
            OnlineLoopConfig {
                max_batch_wait: Duration::from_millis(5),
                ..Default::default()
            },
        );
        // An exhausted replay stream disconnects; the loop may observe a
        // quiet window first but must terminate with no publishes.
        let report = driver.run().unwrap();
        assert_eq!(report.publishes, 0);
        assert_eq!(report.events, 0);
        assert_eq!(store.load().generation(), 1);
        assert_eq!(metrics.report()[Latency::Freshness].count(), 0);
    }

    /// An `AlsEngine` that raises `dropped` when it is dropped.
    struct DropFlagged {
        inner: AlsEngine,
        dropped: std::sync::Arc<AtomicBool>,
    }

    impl Drop for DropFlagged {
        fn drop(&mut self) {
            self.dropped.store(true, Ordering::SeqCst);
        }
    }

    impl Engine for DropFlagged {
        fn name(&self) -> &'static str {
            "drop-flagged"
        }
        fn train_sweep(&mut self) -> f64 {
            self.inner.train_sweep()
        }
        fn x(&self) -> &FactorMatrix {
            Engine::x(&self.inner)
        }
        fn theta(&self) -> &FactorMatrix {
            Engine::theta(&self.inner)
        }
        fn set_factors(&mut self, x: FactorMatrix, theta: FactorMatrix) {
            Engine::set_factors(&mut self.inner, x, theta);
        }
        fn attach_metrics(&mut self, metrics: std::sync::Arc<TrainMetrics>) {
            Engine::attach_metrics(&mut self.inner, metrics);
        }
        fn metrics(&self) -> Option<&std::sync::Arc<TrainMetrics>> {
            Engine::metrics(&self.inner)
        }
        fn train_rmse(&self) -> f64 {
            self.inner.train_rmse()
        }
    }

    impl IncrementalEngine for DropFlagged {
        fn fold_in_lambda(&self) -> f32 {
            self.inner.fold_in_lambda()
        }
    }

    #[test]
    fn fold_in_loop_drops_its_engine_and_keeps_its_metrics_sink() {
        let (r, als) = trained();
        let store = SnapshotStore::new(FactorSnapshot::from_factors(
            als.x().clone(),
            als.theta().clone(),
        ));
        let dropped = std::sync::Arc::new(AtomicBool::new(false));
        let mut engine = DropFlagged {
            inner: als,
            dropped: std::sync::Arc::clone(&dropped),
        };
        let fold_ins = std::sync::Arc::new(TrainMetrics::new());
        engine.attach_metrics(std::sync::Arc::clone(&fold_ins));
        let events = vec![
            Entry {
                row: 2,
                col: 5,
                val: 4.0,
            },
            Entry {
                row: 9,
                col: 1,
                val: 2.0,
            },
        ];
        let mut driver = OnlineLoop::fold_in(
            Box::new(engine),
            &r,
            replay_batcher(events, r.n_cols()),
            &store,
            Arc::new(ServeMetrics::new()),
            OnlineLoopConfig::default(),
        );
        assert!(
            dropped.load(Ordering::SeqCst),
            "the loop must not keep the engine"
        );
        let report = driver.run().unwrap();
        assert!(report.publishes >= 1);
        let recorded = fold_ins.report();
        assert_eq!(recorded[Phase::FoldIn].count(), report.publishes);
        assert_eq!(recorded.rows_solved(), report.users_updated);
    }

    #[test]
    fn a_batch_wait_of_duration_max_still_steps() {
        // `Instant + Duration::MAX` overflows; the wait must mean "until an
        // event or the stream's end", not a panic.
        let (r, engine) = trained();
        let store = SnapshotStore::new(FactorSnapshot::from_factors(
            engine.x().clone(),
            engine.theta().clone(),
        ));
        let events = vec![Entry {
            row: 4,
            col: 3,
            val: 3.5,
        }];
        let mut driver = OnlineLoop::fold_in(
            Box::new(engine),
            &r,
            replay_batcher(events, r.n_cols()),
            &store,
            Arc::new(ServeMetrics::new()),
            OnlineLoopConfig {
                max_batch_wait: Duration::MAX,
                ..Default::default()
            },
        );
        let step = driver.step().unwrap().expect("one event is queued");
        assert_eq!(step.events, 1);
        assert!(step.generation.is_some());
        assert_eq!(driver.step().unwrap(), None, "then the stream ends");
    }

    /// The history representation the loop used before [`History`]: per
    /// user, item → latest rating.
    type TreeHistory = BTreeMap<u32, BTreeMap<u32, f32>>;

    /// The fold-in matrix the loop built from a [`TreeHistory`].
    fn tree_ratings_of(history: &TreeHistory, users: &[u32], n_items: u32) -> Csr {
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for u in users {
            if let Some(ratings) = history.get(u) {
                for (&v, &val) in ratings {
                    col_idx.push(v);
                    values.push(val);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Csr::from_raw(users.len() as u32, n_items, row_ptr, col_idx, values).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Over random streams — re-rates, new items, users past the
        /// snapshot edge and id gaps, training rows with duplicate
        /// columns — the loop's history equals the old nested
        /// tree map, builds the same fold-in matrix, and every published
        /// user row is the fold of that user's tree-map history.
        #[test]
        fn history_matches_the_tree_map_reference(
            training in proptest::collection::vec((0u32..10, 0u32..16, 1u8..=9), 0..80),
            events in proptest::collection::vec((0u32..30, 0u32..16, 1u8..=9), 1..60),
            max_batch_events in 1usize..8,
            seed in 0u64..1_000,
        ) {
            const USERS: u32 = 10;
            const ITEMS: u32 = 16;
            let rating = |r: u8| f32::from(r) * 0.5;
            // Rows sorted by column (a CSR invariant), duplicates kept in
            // generation order.
            let mut by_row: Vec<Vec<(u32, f32)>> = vec![Vec::new(); USERS as usize];
            for &(u, v, r) in &training {
                by_row[u as usize].push((v, rating(r)));
            }
            for row in &mut by_row {
                row.sort_by_key(|&(v, _)| v);
            }
            let mut row_ptr = vec![0usize];
            for row in &by_row {
                row_ptr.push(row_ptr.last().unwrap() + row.len());
            }
            let flat = by_row.concat();
            let r = Csr::from_raw(
                USERS,
                ITEMS,
                row_ptr,
                flat.iter().map(|p| p.0).collect(),
                flat.iter().map(|p| p.1).collect(),
            )
            .unwrap();

            let mut reference = TreeHistory::new();
            for u in 0..USERS {
                let (cols, vals) = r.row(u);
                if !cols.is_empty() {
                    reference.insert(u, cols.iter().copied().zip(vals.iter().copied()).collect());
                }
            }
            let entries: Vec<Entry> = events
                .iter()
                .map(|&(row, col, v)| Entry { row, col, val: rating(v) })
                .collect();
            for e in &entries {
                reference.entry(e.row).or_default().insert(e.col, e.val);
            }

            let store = SnapshotStore::new(FactorSnapshot::from_factors(
                FactorMatrix::random(USERS as usize, F, 1.0, seed),
                FactorMatrix::random(ITEMS as usize, F, 1.0, seed + 1),
            ));
            let engine = AlsEngine::new(
                AlsConfig { f: F, lambda: 0.05, ..Default::default() },
                r.clone(),
            );
            let mut driver = OnlineLoop::fold_in(
                Box::new(engine),
                &r,
                replay_batcher(entries.clone(), ITEMS),
                &store,
                Arc::new(ServeMetrics::new()),
                OnlineLoopConfig { max_batch_events, ..Default::default() },
            );
            driver.run().unwrap();

            let Updater::FoldIn { history, .. } = &driver.updater else {
                unreachable!("a fold-in loop");
            };
            let max_user = entries.iter().map(|e| e.row).max().unwrap().max(USERS - 1);
            let all: Vec<u32> = (0..=max_user).collect();
            for &u in &all {
                let expect: Vec<(u32, f32)> = reference
                    .get(&u)
                    .map(|m| m.iter().map(|(&v, &x)| (v, x)).collect())
                    .unwrap_or_default();
                let row = history.rows.get(u as usize).map_or(&[][..], Vec::as_slice);
                prop_assert_eq!(row, &expect[..], "user {}", u);
            }
            prop_assert_eq!(history.ratings_of(&all, ITEMS), tree_ratings_of(&reference, &all, ITEMS));

            let snap = store.load();
            prop_assert_eq!(snap.n_users() as u32, max_user + 1);
            let theta = snap.items().to_matrix();
            let touched: BTreeSet<u32> = entries.iter().map(|e| e.row).collect();
            for &u in &all {
                let got = snap.user_vector(u).unwrap();
                if touched.contains(&u) {
                    let one = tree_ratings_of(&reference, &[u], ITEMS);
                    let expect = cumf_core::foldin::fold_in_users(&one, &theta, 0.05, None);
                    prop_assert_eq!(got, expect.vector(0), "user {}", u);
                } else if u >= USERS {
                    prop_assert!(got.iter().all(|&x| x == 0.0), "gap user {} is not zero", u);
                }
            }
        }
    }

    #[test]
    fn mutation_stream_drives_the_loop_end_to_end() {
        let data = SyntheticConfig {
            m: 50,
            n: 30,
            nnz: 1200,
            rank: 4,
            noise_std: 0.05,
            ..Default::default()
        }
        .generate();
        let r = data.to_csr();
        let mut engine = AlsEngine::new(
            AlsConfig {
                f: F,
                lambda: 0.05,
                ..Default::default()
            },
            r.clone(),
        );
        for _ in 0..3 {
            engine.iterate();
        }
        let store = SnapshotStore::new(FactorSnapshot::from_factors(
            engine.x().clone(),
            engine.theta().clone(),
        ));
        let metrics = Arc::new(ServeMetrics::new());
        let stream = SyntheticMutationStream::new(
            &data,
            MutationStreamConfig {
                events: 120,
                new_users: 4,
                new_user_fraction: 0.2,
                ..Default::default()
            },
        );
        let mut driver = OnlineLoop::fold_in(
            Box::new(engine),
            &r,
            StreamBatcher::spawn(stream, 32),
            &store,
            Arc::clone(&metrics),
            OnlineLoopConfig {
                max_batch_events: 32,
                ..Default::default()
            },
        );
        let report = driver.run().unwrap();
        assert_eq!(report.events, 120);
        assert!(report.publishes >= 120 / 32);
        let recorded = metrics.report();
        let freshness = &recorded[Latency::Freshness];
        assert_eq!(freshness.count(), 120);
        assert!(freshness.quantile(0.99) >= freshness.quantile(0.5));
        // New-pool users were appended and are servable.
        let snap = store.load();
        assert!(snap.n_users() > 50);
        assert!(!snap.recommend_one(50, 3, &[]).is_empty());
    }
}

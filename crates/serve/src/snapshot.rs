//! Immutable factor snapshots, the atomically hot-swappable store, and the
//! incremental delta-publication path.
//!
//! A [`FactorSnapshot`] freezes the trained factors at one point in time:
//! user factors `X`, item factors `Θ` (row-major, so every `θ_v` is
//! contiguous for the blocked scorer), the precomputed item L2 norms, and a
//! `generation` number.  Snapshots are immutable by construction — the
//! serving path never mutates one, so any number of in-flight batches can
//! share it behind an [`Arc`].
//!
//! Internally the user factors are stored as fixed-size **copy-on-write
//! blocks** ([`USER_COW_ROWS`] rows each, `Arc`-shared between snapshots).
//! A full snapshot owns all of its blocks; a snapshot built by
//! [`FactorSnapshot::apply_delta`] shares every block the delta did not
//! touch with its base, so folding in `u` users copies `O(u·f)` factor
//! bytes instead of the `O(m·f)` a full republication moves.  The item side
//! is a segmented [`ItemStore`] (see [`crate::itemstore`]): a delta that
//! leaves the catalog untouched shares every segment via `Arc`, and a delta
//! that **appends** `a` items pushes one new `a`-row segment — `O(a·f)`
//! bytes, norms computed only for the appended rows — instead of copying Θ
//! whole.  [`FactorSnapshot::compacted`] merges accumulated tail segments
//! back into one base so segment count stays bounded under sustained
//! appends; [`SnapshotStore::compact_items`] republishes the result through
//! the ordinary swap.
//!
//! [`SnapshotStore`] is the publication point: a retrain (or a checkpoint
//! restore) builds a fresh snapshot and [`SnapshotStore::publish`]es it,
//! while an incremental fold-in goes through
//! [`SnapshotStore::publish_delta`].  Either way the swap is an `Arc`
//! pointer replacement under a briefly-held lock — readers clone the `Arc`
//! and then score against an immutable object, so a publish never stalls
//! in-flight batches and a batch can never observe two generations.

use crate::batcher::ServeConfig;
use crate::itemstore::{ItemLayout, ItemStore};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, RwLock};
use crate::topk::{Query, ScanPlan};
use cumf_linalg::{FactorMatrix, Precision};
use std::collections::HashMap;

/// Rows per copy-on-write user-factor block.  Small enough that updating one
/// user copies at most `USER_COW_ROWS · f` floats (the `O(u·f)` bound of a
/// delta publish), large enough that a million-user snapshot is ~16k `Arc`s,
/// not a pointer per row.
pub const USER_COW_ROWS: usize = 64;

/// User factors as `Arc`-shared fixed-size row blocks: the structural-
/// sharing half of delta publication.  Logically identical to a row-major
/// `FactorMatrix`; physically, consecutive snapshots share every block that
/// no delta between them touched.
#[derive(Debug, Clone, PartialEq)]
struct UserFactors {
    n: usize,
    f: usize,
    /// `ceil(n / USER_COW_ROWS)` blocks of `USER_COW_ROWS · f` floats (the
    /// last one possibly partial).
    blocks: Vec<Arc<Vec<f32>>>,
}

impl UserFactors {
    /// Splits `m` into blocks, consuming it so it is freed once copied.
    fn from_matrix(m: FactorMatrix) -> Self {
        let f = m.rank();
        let blocks = m
            .data()
            .chunks(USER_COW_ROWS * f.max(1))
            .map(|b| Arc::new(b.to_vec()))
            .collect();
        Self {
            n: m.len(),
            f,
            blocks,
        }
    }

    #[inline]
    fn vector(&self, u: usize) -> &[f32] {
        let block = &self.blocks[u / USER_COW_ROWS];
        let r = u % USER_COW_ROWS;
        &block[r * self.f..(r + 1) * self.f]
    }

    /// Copy-on-write update: returns a new `UserFactors` where blocks
    /// containing a changed user are copied (and overwritten) and every
    /// other block is `Arc`-shared with `self`; `appended` rows extend the
    /// matrix (copying the partial last block once, if any).  Also returns
    /// the factor bytes that were physically copied.
    fn apply(
        &self,
        changed: &[(u32, &[f32])],
        appended: Option<&FactorMatrix>,
    ) -> (UserFactors, usize) {
        let f = self.f;
        let mut blocks = self.blocks.clone();
        let mut copied: HashMap<usize, Vec<f32>> = HashMap::new();
        for &(user, row) in changed {
            let b = user as usize / USER_COW_ROWS;
            let staged = copied
                .entry(b)
                .or_insert_with(|| blocks[b].as_ref().clone());
            let r = user as usize % USER_COW_ROWS;
            staged[r * f..(r + 1) * f].copy_from_slice(row);
        }
        let mut bytes = copied.len() * USER_COW_ROWS * f * 4;
        // The partial tail block (if the user count is not block-aligned)
        // is smaller; correct the accounting for it.
        if let Some(staged) = copied.get(&(self.blocks.len().saturating_sub(1))) {
            if !self.blocks.is_empty() {
                bytes -= (USER_COW_ROWS * f - staged.len().min(USER_COW_ROWS * f)) * 4;
            }
        }
        let mut n = self.n;
        if let Some(app) = appended {
            bytes += app.data().len() * 4;
            let mut tail: Vec<f32> = if !n.is_multiple_of(USER_COW_ROWS) {
                // Copy the partial last block once to extend it in place.
                // lint-ok: serve-unwrap n % USER_COW_ROWS != 0 guarantees a block
                let last = blocks.pop().expect("partial tail implies a block");
                let staged = copied.remove(&blocks.len());
                let tail = staged.unwrap_or_else(|| {
                    bytes += last.len() * 4;
                    last.as_ref().clone()
                });
                tail
            } else {
                Vec::new()
            };
            for row in app.data().chunks(f.max(1)) {
                tail.extend_from_slice(row);
                if tail.len() == USER_COW_ROWS * f {
                    blocks.push(Arc::new(std::mem::take(&mut tail)));
                }
            }
            if !tail.is_empty() {
                blocks.push(Arc::new(tail));
            }
            n += app.len();
        }
        for (b, staged) in copied {
            blocks[b] = Arc::new(staged);
        }
        (UserFactors { n, f, blocks }, bytes)
    }

    /// True when row block `b` is physically the same allocation in both —
    /// the structural-sharing invariant the tests pin.
    #[cfg(test)]
    fn shares_block_with(&self, other: &UserFactors, b: usize) -> bool {
        Arc::ptr_eq(&self.blocks[b], &other.blocks[b])
    }
}

/// A generation-chained incremental update: changed user rows, optional
/// appended user rows (fold-in of brand-new users) and optional appended
/// item rows.  Built against the generation it is based on
/// ([`SnapshotDelta::base_generation`]); applying it to any other
/// generation fails with [`DeltaError::StaleBase`], so a delta can never
/// silently clobber a concurrent publish.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotDelta {
    base_generation: u64,
    f: usize,
    changed_ids: Vec<u32>,
    changed_rows: Vec<f32>,
    index: HashMap<u32, usize>,
    appended_users: Option<FactorMatrix>,
    appended_items: Option<FactorMatrix>,
}

impl SnapshotDelta {
    /// An empty delta chained onto `base_generation`, carrying rank-`f`
    /// factor rows.
    pub fn new(base_generation: u64, f: usize) -> Self {
        assert!(f > 0, "latent rank must be positive");
        Self {
            base_generation,
            f,
            changed_ids: Vec::new(),
            changed_rows: Vec::new(),
            index: HashMap::new(),
            appended_users: None,
            appended_items: None,
        }
    }

    /// The generation this delta chains from.
    pub fn base_generation(&self) -> u64 {
        self.base_generation
    }

    /// Latent rank of the carried rows.
    pub fn rank(&self) -> usize {
        self.f
    }

    /// Replaces user `user`'s factor vector (last update per user wins).
    ///
    /// # Panics
    /// Panics if `row.len() != rank()`.
    pub fn update_user(&mut self, user: u32, row: &[f32]) -> &mut Self {
        assert_eq!(row.len(), self.f, "user row has the wrong rank");
        match self.index.get(&user) {
            Some(&i) => self.changed_rows[i * self.f..(i + 1) * self.f].copy_from_slice(row),
            None => {
                self.index.insert(user, self.changed_ids.len());
                self.changed_ids.push(user);
                self.changed_rows.extend_from_slice(row);
            }
        }
        self
    }

    /// Appends brand-new users (they get the next ids after the base
    /// snapshot's user count, in row order).
    ///
    /// # Panics
    /// Panics if `rows.rank() != rank()`.
    pub fn append_users(&mut self, rows: &FactorMatrix) -> &mut Self {
        assert_eq!(rows.rank(), self.f, "appended users have the wrong rank");
        match &mut self.appended_users {
            Some(existing) => existing.append_rows(rows),
            None => self.appended_users = Some(rows.clone()),
        }
        self
    }

    /// Appends new catalog items (they get the next ids after the base
    /// snapshot's item count, in row order).  Note that appending items
    /// invalidates every cached ranking — a new item may enter anyone's
    /// top-k — so the service's targeted cache refresh does not apply.
    ///
    /// # Panics
    /// Panics if `rows.rank() != rank()`.
    pub fn append_items(&mut self, rows: &FactorMatrix) -> &mut Self {
        assert_eq!(rows.rank(), self.f, "appended items have the wrong rank");
        match &mut self.appended_items {
            Some(existing) => existing.append_rows(rows),
            None => self.appended_items = Some(rows.clone()),
        }
        self
    }

    /// Ids of the users whose rows this delta replaces.
    pub fn changed_users(&self) -> &[u32] {
        &self.changed_ids
    }

    /// Number of appended (brand-new) users.
    fn appended_user_count(&self) -> usize {
        self.appended_users.as_ref().map_or(0, FactorMatrix::len)
    }

    /// Number of appended catalog items.
    fn appended_item_count(&self) -> usize {
        self.appended_items.as_ref().map_or(0, FactorMatrix::len)
    }

    /// True when the delta touches the item catalog (cached rankings of
    /// *all* users become stale).
    pub(crate) fn touches_items(&self) -> bool {
        self.appended_items.is_some()
    }

    /// True when the delta carries no changes at all.
    pub fn is_empty(&self) -> bool {
        self.changed_ids.is_empty()
            && self.appended_users.is_none()
            && self.appended_items.is_none()
    }
}

/// Byte accounting of one [`FactorSnapshot::apply_delta`]: what was
/// physically copied versus structurally shared.  The acceptance invariant
/// of the delta path is `user_factor_bytes_copied = O(u·f)` for `u` changed
/// users — asserted by tests, reported by the benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaStats {
    /// Users whose rows were replaced.
    pub changed_users: usize,
    /// Brand-new users appended.
    pub appended_users: usize,
    /// Catalog items appended.
    pub appended_items: usize,
    /// User count of the base snapshot (appended users got ids starting
    /// here).
    pub user_base: usize,
    /// User-factor bytes physically copied (touched COW blocks + appended
    /// rows); every other user block is shared with the base snapshot.
    pub user_factor_bytes_copied: usize,
    /// User COW blocks shared untouched with the base snapshot.
    pub user_blocks_shared: usize,
    /// Item-factor bytes physically copied — `O(a·f)` for `a` appended
    /// items (the new tail segment); every pre-existing segment is shared
    /// by `Arc`, never copied.
    pub item_factor_bytes_copied: usize,
    /// Item norms recomputed (appended items only; existing norms are
    /// reused).
    pub norms_recomputed: usize,
}

/// Why a delta could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta chains from a generation that is no longer current — a
    /// full or delta publish intervened.  Rebuild the delta against the
    /// current snapshot and retry.
    StaleBase {
        /// Generation the delta was built against.
        delta: u64,
        /// Generation actually published.
        current: u64,
    },
    /// The delta's rows have a different latent rank than the snapshot.
    RankMismatch {
        /// The snapshot's rank.
        snapshot: usize,
        /// The delta's rank.
        delta: usize,
    },
    /// A changed-user id is outside the base snapshot (use
    /// [`SnapshotDelta::append_users`] for new users).
    UserOutOfRange {
        /// The offending user id.
        user: u32,
        /// User count of the base snapshot.
        n_users: usize,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::StaleBase { delta, current } => write!(
                f,
                "delta chains from generation {delta} but generation {current} is published"
            ),
            DeltaError::RankMismatch { snapshot, delta } => {
                write!(f, "delta rank {delta} != snapshot rank {snapshot}")
            }
            DeltaError::UserOutOfRange { user, n_users } => write!(
                f,
                "changed user {user} outside the base snapshot ({n_users} users); \
                 append new users instead"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// An immutable, generation-stamped view of trained factors.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorSnapshot {
    generation: u64,
    x: UserFactors,
    /// The segmented (optionally norm-ordered) item catalog; each segment
    /// carries its own precomputed norms and block maxima so the
    /// threshold-pruned retrieval paths never rescan norms per request or
    /// per micro-batch.
    items: ItemStore,
}

impl FactorSnapshot {
    /// Builds a snapshot from factor matrices (generation 0 until
    /// published): a fitted trainer's `x().clone()` and `theta().clone()`,
    /// or a checkpoint's `x` and `theta` — restoring the last checkpoint is
    /// how serving survives a retrain crash (the paper's §4.4).  The catalog
    /// is stored in the default serving layout —
    /// [`ItemLayout::NormDescending`] since the approximate-retrieval PR.
    /// Exact results are bit-identical across layouts (pinned by the
    /// segment proptests); callers that need catalog-row storage pass
    /// [`ItemLayout::CatalogOrder`] to
    /// [`FactorSnapshot::from_factors_with_layout`] explicitly.
    ///
    /// # Panics
    /// Panics if the two matrices disagree on the latent rank.
    pub fn from_factors(x: FactorMatrix, theta: FactorMatrix) -> Self {
        Self::from_factors_with_layout(x, theta, ItemLayout::default())
    }

    /// [`FactorSnapshot::from_factors`] with an explicit item layout.
    /// [`ItemLayout::NormDescending`] stores each catalog segment sorted by
    /// item norm (id-remapped on output) so block threshold pruning fires
    /// systematically; results are bit-identical to catalog order.
    ///
    /// # Panics
    /// Panics if the two matrices disagree on the latent rank.
    pub fn from_factors_with_layout(
        x: FactorMatrix,
        theta: FactorMatrix,
        layout: ItemLayout,
    ) -> Self {
        assert_eq!(x.rank(), theta.rank(), "factor rank mismatch");
        // `x` is consumed (and freed) before the item store is built, so
        // the build's peak holds one copy of each factor matrix.
        let x = UserFactors::from_matrix(x);
        Self {
            generation: 0,
            x,
            items: ItemStore::new(theta, layout, Precision::F32),
        }
    }

    /// The publication generation (0 for never-published snapshots).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.x.n
    }

    /// Number of items in the catalog.
    pub fn n_items(&self) -> usize {
        self.items.n_items()
    }

    /// Latent rank `f`.
    pub fn rank(&self) -> usize {
        self.items.rank()
    }

    /// User factor vector `x_u`, or `None` for out-of-range users.
    pub fn user_vector(&self, user: u32) -> Option<&[f32]> {
        ((user as usize) < self.x.n).then(|| self.x.vector(user as usize))
    }

    /// The segmented item store backing this snapshot.
    pub fn items(&self) -> &ItemStore {
        &self.items
    }

    /// Factor vector `θ_v` of catalog item `v` (segment lookup + id remap),
    /// or `None` for out-of-range items.
    pub fn item_vector(&self, item: u32) -> Option<&[f32]> {
        ((item as usize) < self.items.n_items()).then(|| self.items.vector(item as usize))
    }

    /// Precomputed L2 norm `‖θ_v‖` of catalog item `v`, or `None` for
    /// out-of-range items.
    pub fn item_norm(&self, item: u32) -> Option<f32> {
        ((item as usize) < self.items.n_items()).then(|| self.items.norm(item as usize))
    }

    /// A snapshot whose item segments are re-encoded at `precision`
    /// ([`ItemStore::reencode`]): every segment keeps its exact f32 rows
    /// (point lookups, fold-in, and the serving rerank still read full
    /// precision) and gains — or drops — the compressed slab the blocked
    /// scan streams.  User blocks are shared with `self`; segments already
    /// at `precision` are `Arc`-shared, not rebuilt.
    pub fn reencoded(&self, precision: Precision) -> FactorSnapshot {
        Self {
            generation: self.generation,
            x: self.x.clone(),
            items: self.items.reencode(precision),
        }
    }

    /// [`FactorSnapshot::reencoded`] with a per-segment precision choice —
    /// the hot-head-f32 / cold-tail-i8 split: `choose` sees each segment's
    /// index and contents and returns the precision it should scan at.
    /// Segments whose choice matches their current precision are shared.
    pub(crate) fn reencoded_with(
        &self,
        choose: impl FnMut(usize, &crate::itemstore::ItemSegment) -> Precision,
    ) -> FactorSnapshot {
        Self {
            generation: self.generation,
            x: self.x.clone(),
            items: self.items.reencode_with(choose),
        }
    }

    /// A snapshot whose item segments are merged back into one base segment
    /// ([`ItemStore::compact`]); user blocks are shared with `self`, and
    /// retrieval is bit-identical.  Publish the result through
    /// [`SnapshotStore::compact_items`] (or `publish`) to bound segment
    /// count under sustained item appends.
    pub fn compacted(&self) -> FactorSnapshot {
        Self {
            generation: self.generation,
            x: self.x.clone(),
            items: self.items.compact(),
        }
    }

    /// An empty [`SnapshotDelta`] chained onto this snapshot's generation
    /// and rank.
    pub fn delta(&self) -> SnapshotDelta {
        SnapshotDelta::new(self.generation, self.rank())
    }

    /// Builds the next snapshot from this one plus a delta, sharing every
    /// untouched user block and (when no items are appended) the whole item
    /// side.  The result carries this snapshot's generation until a store
    /// publishes it; byte accounting comes back in [`DeltaStats`].
    ///
    /// Retrieval against the result is bit-identical to a full rebuild
    /// ([`FactorSnapshot::from_factors`]) with the same post-delta factors —
    /// pinned by the delta proptests.
    pub fn apply_delta(
        &self,
        delta: &SnapshotDelta,
    ) -> Result<(FactorSnapshot, DeltaStats), DeltaError> {
        if delta.base_generation != self.generation {
            return Err(DeltaError::StaleBase {
                delta: delta.base_generation,
                current: self.generation,
            });
        }
        if delta.f != self.rank() {
            return Err(DeltaError::RankMismatch {
                snapshot: self.rank(),
                delta: delta.f,
            });
        }
        if let Some(&user) = delta
            .changed_ids
            .iter()
            .find(|&&u| (u as usize) >= self.x.n)
        {
            return Err(DeltaError::UserOutOfRange {
                user,
                n_users: self.x.n,
            });
        }

        let f = delta.f;
        let changed: Vec<(u32, &[f32])> = delta
            .changed_ids
            .iter()
            .enumerate()
            .map(|(i, &u)| (u, &delta.changed_rows[i * f..(i + 1) * f]))
            .collect();
        let (x, user_bytes) = self.x.apply(&changed, delta.appended_users.as_ref());

        let mut stats = DeltaStats {
            changed_users: delta.changed_ids.len(),
            appended_users: delta.appended_user_count(),
            appended_items: delta.appended_item_count(),
            user_base: self.x.n,
            user_factor_bytes_copied: user_bytes,
            user_blocks_shared: 0,
            item_factor_bytes_copied: 0,
            norms_recomputed: 0,
        };
        stats.user_blocks_shared = self
            .x
            .blocks
            .iter()
            .zip(x.blocks.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();

        // The item side: untouched catalogs share every segment by `Arc`;
        // an append pushes one new O(a·f) tail segment — never a full Θ
        // copy — with norms and block maxima computed only for the appended
        // rows.
        let items = match &delta.appended_items {
            None => self.items.clone(),
            Some(app) => {
                let (items, bytes) = self.items.append(app);
                stats.item_factor_bytes_copied = bytes;
                stats.norms_recomputed = app.len();
                items
            }
        };

        Ok((
            FactorSnapshot {
                generation: self.generation,
                x,
                items,
            },
            stats,
        ))
    }

    /// Predicted rating `x_u · θ_v`; `None` for out-of-range ids.
    pub fn predict(&self, user: u32, item: u32) -> Option<f32> {
        let x_u = self.user_vector(user)?;
        Some(cumf_linalg::blas::dot(x_u, self.item_vector(item)?))
    }

    /// Single-request top-`k` retrieval: a batch of one through
    /// [`crate::TopKIndex`]'s own scan and exact rerank at
    /// [`ServeConfig`]'s defaults (exact, Dot, default blocking), so
    /// the reply is by construction the one the service gives — on
    /// quantized catalogs too.  Out-of-range users get an empty result (a
    /// serving layer must not panic on bad requests).
    pub fn recommend_one(&self, user: u32, k: usize, exclude: &[u32]) -> Vec<(u32, f32)> {
        let query = Query {
            user,
            k,
            exclude: exclude.to_vec(),
        };
        let plan = ScanPlan::new(self, &ServeConfig::default(), None);
        let (mut results, _) = plan.query_batch_stats(self, std::slice::from_ref(&query));
        results.pop().unwrap_or_default()
    }
}

/// The hot-swappable publication point for [`FactorSnapshot`]s.
///
/// `load()` is a read-lock `Arc` clone; `publish()` stamps the next
/// generation and swaps the pointer under a write lock held for the
/// duration of one pointer assignment.  In-flight batches keep serving from
/// the `Arc` they already cloned.  [`SnapshotStore::publish_delta`] applies
/// a [`SnapshotDelta`] *outside* the lock (the copy is `O(u·f)` but still
/// work) and swaps only if the base generation is still current.
#[derive(Debug)]
pub struct SnapshotStore {
    current: RwLock<Arc<FactorSnapshot>>,
    generation: AtomicU64,
}

impl SnapshotStore {
    /// Creates a store serving `initial` as generation 1.
    pub fn new(mut initial: FactorSnapshot) -> Self {
        initial.generation = 1;
        Self {
            current: RwLock::new(Arc::new(initial)),
            generation: AtomicU64::new(1),
        }
    }

    /// The snapshot to serve the next batch from.
    pub fn load(&self) -> Arc<FactorSnapshot> {
        // lint-ok: serve-unwrap poisoning means a publisher panicked mid-swap;
        // serving a possibly half-installed snapshot would be worse than dying
        Arc::clone(&self.current.read().expect("snapshot lock poisoned"))
    }

    /// Generation of the currently-published snapshot.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire) // ordering-ok: Acquire pairs with the AcqRel bump under the publishers' write lock
    }

    /// Publishes a new snapshot, returning its generation.  Queries that
    /// already captured the previous `Arc` finish on the old factors; every
    /// later `load()` observes the new ones.  The generation bump and the
    /// pointer swap happen under one write lock, so concurrent publishers
    /// serialize and generations can never be installed out of order.
    pub fn publish(&self, mut snapshot: FactorSnapshot) -> u64 {
        // lint-ok: serve-unwrap propagate a poisoned store rather than publish over it
        let mut current = self.current.write().expect("snapshot lock poisoned");
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1; // ordering-ok: AcqRel under the write lock; lock-free generation() readers see bumps in publish order
        snapshot.generation = generation;
        *current = Arc::new(snapshot);
        generation
    }

    /// Applies `delta` to the currently-published snapshot and publishes the
    /// result, returning the new generation and the copy accounting.  The
    /// `O(u·f)` copy-on-write happens outside the lock; the swap then only
    /// goes through if the published generation is still the delta's base —
    /// a concurrent publish in the window makes the delta
    /// [`DeltaError::StaleBase`] instead of silently overwriting it.
    pub fn publish_delta(&self, delta: &SnapshotDelta) -> Result<(u64, DeltaStats), DeltaError> {
        let base = self.load();
        let (next, stats) = base.apply_delta(delta)?;
        let generation = self.publish_if_current(next, base.generation)?;
        Ok((generation, stats))
    }

    /// Publishes `snapshot` only if `base_generation` is still the
    /// published generation — the compare-and-swap every derived publish
    /// (delta apply, item compaction) funnels through so a concurrent
    /// publish can never be silently overwritten.
    pub fn publish_if_current(
        &self,
        mut snapshot: FactorSnapshot,
        base_generation: u64,
    ) -> Result<u64, DeltaError> {
        // lint-ok: serve-unwrap propagate a poisoned store rather than publish over it
        let mut current = self.current.write().expect("snapshot lock poisoned");
        if current.generation != base_generation {
            return Err(DeltaError::StaleBase {
                delta: base_generation,
                current: current.generation,
            });
        }
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1; // ordering-ok: AcqRel under the write lock; lock-free generation() readers see bumps in publish order
        snapshot.generation = generation;
        *current = Arc::new(snapshot);
        Ok(generation)
    }

    /// Merges the published snapshot's item tail segments back into one
    /// base ([`FactorSnapshot::compacted`]) and republishes, bounding
    /// segment count under sustained item-appending deltas.  The `O(n·f)`
    /// merge runs outside the lock; the swap only goes through if no other
    /// publish intervened (otherwise the compaction is simply dropped —
    /// the intervening publisher owns the newer state).  Returns `Ok(None)`
    /// when the catalog is already a single segment, and
    /// `Ok(Some((base_generation, new_generation)))` on success — the base
    /// generation is what a cache-retention layer must re-stamp *from*.
    pub fn compact_items(&self) -> Result<Option<(u64, u64)>, DeltaError> {
        let base = self.load();
        if base.items().segment_count() <= 1 {
            return Ok(None);
        }
        let compacted = base.compacted();
        let generation = self.publish_if_current(compacted, base.generation)?;
        Ok(Some((base.generation, generation)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_linalg::blas::dot;

    fn snapshot(seed: u64) -> FactorSnapshot {
        FactorSnapshot::from_factors(
            FactorMatrix::random(20, 6, 1.0, seed),
            FactorMatrix::random(50, 6, 1.0, seed + 1),
        )
    }

    /// A snapshot big enough to span several COW blocks.
    fn blocky_snapshot(seed: u64) -> FactorSnapshot {
        FactorSnapshot::from_factors(
            FactorMatrix::random(USER_COW_ROWS * 5 + 13, 8, 1.0, seed),
            FactorMatrix::random(700, 8, 1.0, seed + 1),
        )
    }

    #[test]
    fn norms_match_theta_rows() {
        let s = snapshot(1);
        for v in 0..s.n_items() as u32 {
            let theta_v = s.item_vector(v).unwrap();
            let expect = dot(theta_v, theta_v).sqrt();
            assert!((s.item_norm(v).unwrap() - expect).abs() < 1e-6);
        }
        assert_eq!(s.item_norm(s.n_items() as u32), None);
    }

    #[test]
    fn recommend_one_excludes_and_sorts() {
        let s = snapshot(2);
        let exclude = vec![0, 1, 2, 3];
        let recs = s.recommend_one(5, 10, &exclude);
        assert_eq!(recs.len(), 10);
        assert!(recs.iter().all(|(v, _)| !exclude.contains(v)));
        assert!(recs.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn quantized_recommend_one_keeps_an_exact_winner_its_decoded_block_hides() {
        // Item 513 = b wins exactly (score ‖b‖ ≈ 127.36), but i8 decodes it
        // to [126, 10, 10] (norm 126.8) beside item 512 = [127, 0, 0], which
        // sets block 1's scale: the decoded block maximum 127.0 alone would
        // prune the block behind item 0 (127.2).  Only the codec's error
        // bound keeps it in the scan.
        let b = [126.49f32, 10.49, 10.49];
        let norm = cumf_linalg::blas::norm_sq(&b).sqrt();
        let user: Vec<f32> = b.iter().map(|x| x / norm).collect();
        let mut theta = FactorMatrix::zeros(600, 3);
        let item_0: Vec<f32> = user.iter().map(|x| x * 127.2).collect();
        theta.vector_mut(0).copy_from_slice(&item_0);
        theta.vector_mut(512).copy_from_slice(&[127.0, 0.0, 0.0]);
        theta.vector_mut(513).copy_from_slice(&b);
        let x = FactorMatrix::from_vec(1, 3, user);
        let snap = FactorSnapshot::from_factors_with_layout(x, theta, ItemLayout::CatalogOrder);
        let exact = snap.recommend_one(0, 1, &[]);
        assert_eq!(exact, vec![(513, 127.35697)]);
        for precision in [cumf_linalg::Precision::I8, cumf_linalg::Precision::F16] {
            let quantized = snap.reencoded(precision);
            assert_eq!(quantized.recommend_one(0, 1, &[]), exact, "{precision}");
        }
    }

    #[test]
    fn out_of_range_requests_are_empty_not_panics() {
        let s = snapshot(3);
        assert!(s.recommend_one(10_000, 5, &[]).is_empty());
        assert_eq!(s.predict(10_000, 0), None);
        assert_eq!(s.predict(0, 10_000), None);
        assert!(s.predict(0, 0).is_some());
    }

    #[test]
    fn store_publish_bumps_generation_and_swaps() {
        let store = SnapshotStore::new(snapshot(4));
        let first = store.load();
        assert_eq!(first.generation(), 1);
        let g2 = store.publish(snapshot(5));
        assert_eq!(g2, 2);
        assert_eq!(store.generation(), 2);
        let second = store.load();
        assert_eq!(second.generation(), 2);
        // The old Arc is still intact for in-flight readers.
        assert_eq!(first.generation(), 1);
    }

    #[test]
    #[should_panic(expected = "factor rank mismatch")]
    fn mismatched_ranks_panic() {
        FactorSnapshot::from_factors(FactorMatrix::zeros(2, 3), FactorMatrix::zeros(2, 4));
    }

    #[test]
    fn cow_user_vectors_round_trip() {
        let m = FactorMatrix::random(USER_COW_ROWS * 3 + 7, 5, 1.0, 9);
        let s = FactorSnapshot::from_factors(m.clone(), FactorMatrix::random(10, 5, 1.0, 10));
        for u in 0..m.len() {
            assert_eq!(s.user_vector(u as u32).unwrap(), m.vector(u), "user {u}");
        }
        assert_eq!(s.user_vector(m.len() as u32), None);
    }

    #[test]
    fn delta_updates_users_and_shares_untouched_blocks() {
        let base = blocky_snapshot(11);
        let f = base.rank();
        let row = vec![9.0f32; f];
        let mut delta = base.delta();
        // Two users in block 0, one in block 2.
        delta
            .update_user(1, &row)
            .update_user(3, &row)
            .update_user((2 * USER_COW_ROWS + 5) as u32, &row);
        let (next, stats) = base.apply_delta(&delta).unwrap();

        assert_eq!(next.user_vector(1).unwrap(), &row[..]);
        assert_eq!(next.user_vector(3).unwrap(), &row[..]);
        assert_eq!(
            next.user_vector((2 * USER_COW_ROWS + 5) as u32).unwrap(),
            &row[..]
        );
        // Untouched users keep their rows...
        assert_eq!(next.user_vector(0), base.user_vector(0));
        // ...and untouched blocks are the same allocation, not a copy.
        assert!(next.x.shares_block_with(&base.x, 1));
        assert!(next.x.shares_block_with(&base.x, 3));
        assert!(!next.x.shares_block_with(&base.x, 0));
        assert!(!next.x.shares_block_with(&base.x, 2));
        assert_eq!(stats.changed_users, 3);
        assert_eq!(stats.user_blocks_shared, 4);
        // 2 blocks copied: exactly 2 · USER_COW_ROWS · f · 4 bytes.
        assert_eq!(stats.user_factor_bytes_copied, 2 * USER_COW_ROWS * f * 4);
        // The item side is shared whole: same segment allocation.
        assert_eq!(stats.item_factor_bytes_copied, 0);
        assert!(next.items.shares_segment_with(&base.items, 0));
    }

    #[test]
    fn delta_appends_users_and_items() {
        let base = blocky_snapshot(13);
        let f = base.rank();
        let new_users = FactorMatrix::random(10, f, 1.0, 77);
        let new_items = FactorMatrix::random(9, f, 1.0, 78);
        let mut delta = base.delta();
        delta.append_users(&new_users).append_items(&new_items);
        let (next, stats) = base.apply_delta(&delta).unwrap();

        assert_eq!(next.n_users(), base.n_users() + 10);
        assert_eq!(next.n_items(), base.n_items() + 9);
        for i in 0..10 {
            assert_eq!(
                next.user_vector((base.n_users() + i) as u32).unwrap(),
                new_users.vector(i)
            );
        }
        for i in 0..9 {
            assert_eq!(
                next.item_vector((base.n_items() + i) as u32).unwrap(),
                new_items.vector(i)
            );
        }
        // Norms cover the appended items and match a full recompute.
        let full = FactorSnapshot::from_factors(
            FactorMatrix::from_vec(next.n_users(), f, {
                let mut d = Vec::new();
                for u in 0..next.n_users() {
                    d.extend_from_slice(next.user_vector(u as u32).unwrap());
                }
                d
            }),
            next.items().to_matrix(),
        );
        for v in 0..next.n_items() as u32 {
            assert_eq!(next.item_norm(v), full.item_norm(v), "item {v}");
        }
        assert_eq!(stats.appended_users, 10);
        assert_eq!(stats.appended_items, 9);
        assert_eq!(stats.norms_recomputed, 9, "only appended norms computed");
        // The append is a new tail segment: exactly O(a·f) bytes, while the
        // base segment is shared untouched.
        assert_eq!(stats.item_factor_bytes_copied, 9 * f * 4);
        assert_eq!(next.items().segment_count(), 2);
        assert!(next.items.shares_segment_with(&base.items, 0));
        // Compaction folds the tail back in and changes nothing observable.
        let compacted = next.compacted();
        assert_eq!(compacted.items().segment_count(), 1);
        assert_eq!(
            compacted.recommend_one(0, 7, &[]),
            next.recommend_one(0, 7, &[])
        );
    }

    #[test]
    fn delta_update_user_last_write_wins() {
        let base = snapshot(21);
        let f = base.rank();
        let mut delta = base.delta();
        delta
            .update_user(2, &vec![1.0; f])
            .update_user(2, &vec![5.0; f]);
        assert_eq!(delta.changed_users(), &[2]);
        let (next, stats) = base.apply_delta(&delta).unwrap();
        assert_eq!(next.user_vector(2).unwrap(), &vec![5.0f32; f][..]);
        assert_eq!(stats.changed_users, 1);
    }

    #[test]
    fn delta_rejects_stale_base_rank_mismatch_and_bad_users() {
        let base = snapshot(22);
        let stale = SnapshotDelta::new(base.generation() + 7, base.rank());
        assert_eq!(
            base.apply_delta(&stale),
            Err(DeltaError::StaleBase {
                delta: base.generation() + 7,
                current: base.generation()
            })
        );
        let wrong_rank = SnapshotDelta::new(base.generation(), base.rank() + 1);
        assert!(matches!(
            base.apply_delta(&wrong_rank),
            Err(DeltaError::RankMismatch { .. })
        ));
        let mut bad_user = base.delta();
        bad_user.update_user(10_000, &vec![0.0; base.rank()]);
        assert_eq!(
            base.apply_delta(&bad_user),
            Err(DeltaError::UserOutOfRange {
                user: 10_000,
                n_users: base.n_users()
            })
        );
    }

    #[test]
    fn store_publish_delta_chains_generations() {
        let store = SnapshotStore::new(blocky_snapshot(31));
        let base = store.load();
        let f = base.rank();
        let mut delta = base.delta();
        delta.update_user(5, &vec![2.5; f]);
        let (generation, stats) = store.publish_delta(&delta).unwrap();
        assert_eq!(generation, 2);
        assert_eq!(stats.changed_users, 1);
        let next = store.load();
        assert_eq!(next.generation(), 2);
        assert_eq!(next.user_vector(5).unwrap(), &vec![2.5f32; f][..]);
        // The base snapshot is untouched for in-flight readers.
        assert_ne!(base.user_vector(5).unwrap(), &vec![2.5f32; f][..]);

        // A delta rebuilt on the old generation is now stale.
        let mut stale = base.delta();
        stale.update_user(6, &vec![1.0; f]);
        assert_eq!(
            store.publish_delta(&stale),
            Err(DeltaError::StaleBase {
                delta: 1,
                current: 2
            })
        );
    }

    #[test]
    fn delta_on_partial_tail_block_appends_correctly() {
        // 13 users with USER_COW_ROWS = 64: one partial block.  Updating a
        // user and appending users must extend the tail without losing rows.
        let f = 4;
        let base = FactorSnapshot::from_factors(
            FactorMatrix::random(13, f, 1.0, 41),
            FactorMatrix::random(30, f, 1.0, 42),
        );
        let mut delta = base.delta();
        delta.update_user(12, &vec![7.0; f]);
        delta.append_users(&FactorMatrix::random(3, f, 1.0, 43));
        let (next, stats) = base.apply_delta(&delta).unwrap();
        assert_eq!(next.n_users(), 16);
        assert_eq!(next.user_vector(12).unwrap(), &vec![7.0f32; f][..]);
        for u in 0..12u32 {
            assert_eq!(next.user_vector(u), base.user_vector(u));
        }
        // Partial tail (13 rows) copied once + 3 appended rows.
        assert_eq!(stats.user_factor_bytes_copied, (13 + 3) * f * 4);
    }

    #[test]
    fn store_compact_items_republishes_identical_results() {
        let store = SnapshotStore::new(snapshot(61));
        // No tails yet: compaction is a no-op.
        assert_eq!(store.compact_items(), Ok(None));

        let base = store.load();
        let f = base.rank();
        let mut delta = base.delta();
        delta.append_items(&FactorMatrix::random(12, f, 1.0, 62));
        store.publish_delta(&delta).unwrap();
        let mut delta = store.load().delta();
        delta.append_items(&FactorMatrix::random(5, f, 1.0, 63));
        store.publish_delta(&delta).unwrap();

        let before = store.load();
        assert_eq!(before.items().segment_count(), 3);
        let expect: Vec<_> = (0..5u32).map(|u| before.recommend_one(u, 9, &[])).collect();

        let (base_gen, generation) = store.compact_items().unwrap().expect("tails to merge");
        assert_eq!((base_gen, generation), (3, 4));
        let after = store.load();
        assert_eq!(after.items().segment_count(), 1);
        assert_eq!(after.n_items(), before.n_items());
        for (u, e) in expect.iter().enumerate() {
            assert_eq!(&after.recommend_one(u as u32, 9, &[]), e, "user {u}");
        }

        // A compaction racing a publish loses cleanly: rebuild on a stale
        // base is rejected, not silently swapped in.
        let stale = before.compacted();
        assert!(matches!(
            store.publish_if_current(stale, before.generation()),
            Err(DeltaError::StaleBase { .. })
        ));
    }

    #[test]
    fn empty_delta_is_a_cheap_generation_bump() {
        let store = SnapshotStore::new(blocky_snapshot(51));
        let base = store.load();
        let delta = base.delta();
        assert!(delta.is_empty());
        let (generation, stats) = store.publish_delta(&delta).unwrap();
        assert_eq!(generation, 2);
        assert_eq!(stats.user_factor_bytes_copied, 0);
        assert_eq!(stats.item_factor_bytes_copied, 0);
        let next = store.load();
        assert_eq!(next.recommend_one(0, 5, &[]), base.recommend_one(0, 5, &[]));
    }
}

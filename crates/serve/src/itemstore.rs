//! Segmented, optionally norm-ordered storage of the serving-side item
//! factors Θ.
//!
//! The paper's core trick is a blocked, memory-aware layout of the factor
//! matrices; this module applies it to the serving catalog.  An
//! [`ItemStore`] owns Θ as a sequence of block-aligned, `Arc`-shared
//! **segments**: one base slab plus a tail segment per item-appending delta.
//! Appending `a` items builds one new `a`-row segment — `O(a·f)` bytes — and
//! clones the `Arc` list; every existing segment (factors, norms, block
//! maxima) is shared untouched with the previous snapshot, making catalog
//! growth as cheap as the user side's copy-on-write blocks.
//!
//! Each segment covers a **contiguous global id range** (`start ..
//! start + len`), because appended items always take the next catalog ids.
//! Within a segment the stored row order is a layout choice
//! ([`ItemLayout`]):
//!
//! * [`ItemLayout::CatalogOrder`] — rows stored by catalog id (the PR 2–4
//!   layout).
//! * [`ItemLayout::NormDescending`] — rows sorted by `‖θ_v‖` descending.
//!   High-norm items cluster into the first blocks, so the top-k heap
//!   threshold rises early and Cauchy–Schwarz block pruning skips the long
//!   low-norm tail **systematically** instead of data-dependently (the
//!   layout the approximate-computing follow-up paper motivates).  A
//!   per-segment id remap (`stored row → global id`) restores catalog ids
//!   on result output, and the inverse map serves point lookups; results
//!   are bit-identical to catalog order.
//!
//! Sustained appends would otherwise grow the segment list without bound;
//! [`ItemStore::compact`] merges every tail back into one base segment
//! (re-deriving the layout), and the serving tier republishes the compacted
//! snapshot through the ordinary hot-swap path.

use crate::sync::Arc;
use cumf_linalg::topk::DEFAULT_ITEM_BLOCK;
use cumf_linalg::{block_max_norms, item_norms, EncodedSlab, FactorMatrix, Precision, SegmentView};

/// Stored row order of each [`ItemStore`] segment.
///
/// `NormDescending` is the default: it is bit-identical to `CatalogOrder`
/// under exact retrieval (results depend only on vectors and the total-order
/// tie-break, never on stored order) and is the precondition for
/// approximate early termination ([`cumf_linalg::ApproxPolicy`]) to fire
/// systematically rather than data-dependently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ItemLayout {
    /// Rows stored by catalog id — no remap, no reordering (the PR 2–4
    /// layout; still used by tests pinning layout invariance).
    CatalogOrder,
    /// Rows stored by item norm, descending (ties by catalog id ascending,
    /// so the layout is deterministic), with an id remap applied on result
    /// output.  Makes block threshold pruning systematic.
    #[default]
    NormDescending,
}

/// One immutable, block-aligned segment of the item catalog: a contiguous
/// global id range `[start, start + len)` stored as its own row-major slab
/// with precomputed norms and block maxima, plus the id remap when the
/// layout permutes rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemSegment {
    start: u32,
    /// Item factors in stored order.
    theta: FactorMatrix,
    /// `‖θ_v‖` per stored row.
    norms: Vec<f32>,
    /// Block maxima of `norms` at [`ItemSegment::default_block`]
    /// granularity.
    block_max: Vec<f32>,
    /// Stored row → global id (`None` = identity off `start`).
    ids: Option<Vec<u32>>,
    /// Global offset (`id - start`) → stored row; inverse of `ids`.
    pos: Option<Vec<u32>>,
    /// Storage precision of the scan operand.  `F32` means the scan reads
    /// `theta` directly and everything behaves exactly as before
    /// quantization existed.
    precision: Precision,
    /// Compressed copy of `theta` in stored order when
    /// `precision != F32`.  The blocked scan streams this; `theta` is
    /// retained as the exact f32 copy the rerank pass (and every point
    /// lookup and fold-in) reads.
    encoded: Option<EncodedSlab>,
}

impl ItemSegment {
    /// Builds a segment over `theta` (rows in catalog order) **in place**:
    /// the norm-descending layout permutes the owned rows rather than
    /// gathering them into a second `n·f` buffer, so a build holds one copy
    /// of the catalog.
    fn build_with_precision(
        mut theta: FactorMatrix,
        start: u32,
        layout: ItemLayout,
        precision: Precision,
    ) -> Self {
        let f = theta.rank().max(1);
        let norms = item_norms(theta.data(), f);
        let base = match layout {
            ItemLayout::CatalogOrder => {
                let block_max = block_max_norms(&norms, DEFAULT_ITEM_BLOCK.min(theta.len().max(1)));
                Self {
                    start,
                    theta,
                    norms,
                    block_max,
                    ids: None,
                    pos: None,
                    precision: Precision::F32,
                    encoded: None,
                }
            }
            ItemLayout::NormDescending => {
                let n = theta.len();
                let mut order: Vec<u32> = (0..n as u32).collect();
                order.sort_by(|&a, &b| {
                    norms[b as usize]
                        .total_cmp(&norms[a as usize])
                        .then(a.cmp(&b))
                });
                let mut sorted_norms = Vec::with_capacity(n);
                let mut pos = vec![0u32; n];
                for (row, &orig) in order.iter().enumerate() {
                    sorted_norms.push(norms[orig as usize]);
                    pos[orig as usize] = row as u32;
                }
                let rank = theta.rank();
                permute_rows(theta.data_mut(), rank, &order);
                let ids: Vec<u32> = order.into_iter().map(|orig| start + orig).collect();
                let block_max = block_max_norms(&sorted_norms, DEFAULT_ITEM_BLOCK.min(n.max(1)));
                Self {
                    start,
                    theta,
                    norms: sorted_norms,
                    block_max,
                    ids: Some(ids),
                    pos: Some(pos),
                    precision: Precision::F32,
                    encoded: None,
                }
            }
        };
        base.encode_at(precision)
    }

    /// Attaches (or removes) the compressed scan slab.  The pruning tables
    /// must describe what the scan actually streams, so `norms` and
    /// `block_max` are recomputed from the **decoded** values; `theta`
    /// stays the exact copy.  At `F32` the segment is returned to its
    /// pre-quantization state bit-for-bit.
    fn encode_at(mut self, precision: Precision) -> Self {
        let f = self.theta.rank().max(1);
        if self.precision != Precision::F32 {
            // Rebuild the exact tables before (re-)encoding.
            self.norms = item_norms(self.theta.data(), f);
            self.block_max = block_max_norms(&self.norms, self.default_block());
            self.precision = Precision::F32;
            self.encoded = None;
        }
        if precision == Precision::F32 {
            return self;
        }
        if let Some(slab) =
            EncodedSlab::encode(self.theta.data(), f, self.default_block(), precision)
        {
            self.norms = decoded_norms(&slab, self.default_block());
            self.block_max = block_max_norms(&self.norms, self.default_block());
            self.encoded = Some(slab);
            self.precision = precision;
        }
        self
    }

    /// Re-encodes this segment at a different precision from its retained
    /// exact rows (identity when the precision already matches).
    pub fn reencode(&self, precision: Precision) -> ItemSegment {
        if precision == self.precision {
            return self.clone();
        }
        self.clone().encode_at(precision)
    }

    /// Storage precision of the scan operand.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The compressed scan slab (`None` at [`Precision::F32`]).
    pub fn encoded(&self) -> Option<&EncodedSlab> {
        self.encoded.as_ref()
    }

    /// First global item id covered by this segment.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Number of items in the segment.
    pub fn len(&self) -> usize {
        self.theta.len()
    }

    /// True when the segment holds no items.
    pub fn is_empty(&self) -> bool {
        self.theta.is_empty()
    }

    /// The stored-order factor slab.
    pub fn theta(&self) -> &FactorMatrix {
        &self.theta
    }

    /// Per-stored-row norms.
    pub fn norms(&self) -> &[f32] {
        &self.norms
    }

    /// Precomputed block maxima at [`ItemSegment::default_block`]
    /// granularity.
    pub fn block_max(&self) -> &[f32] {
        &self.block_max
    }

    /// Block size the precomputed [`ItemSegment::block_max`] is aligned to:
    /// [`DEFAULT_ITEM_BLOCK`] clamped to the segment size.
    pub fn default_block(&self) -> usize {
        DEFAULT_ITEM_BLOCK.min(self.len().max(1))
    }

    /// Global item id of stored row `row`.
    #[inline]
    pub(crate) fn global_id(&self, row: usize) -> u32 {
        match &self.ids {
            Some(ids) => ids[row],
            None => self.start + row as u32,
        }
    }

    /// Stored row holding global offset `offset` (`id - start`).
    #[inline]
    fn stored_row(&self, offset: usize) -> usize {
        match &self.pos {
            Some(pos) => pos[offset] as usize,
            None => offset,
        }
    }

    /// Factor vector of the item at global offset `offset` into this
    /// segment.
    fn vector_at(&self, offset: usize) -> &[f32] {
        self.theta.vector(self.stored_row(offset))
    }

    /// Norm of the item at global offset `offset` into this segment.
    fn norm_at(&self, offset: usize) -> f32 {
        self.norms[self.stored_row(offset)]
    }

    /// A scoring view of the whole segment at its default blocking.
    pub fn view(&self) -> SegmentView<'_> {
        self.view_with(self.default_block(), &self.block_max)
    }

    /// A scoring view at a caller-chosen blocking, with a matching
    /// `block_max` table (`block_max_norms(self.norms(), item_block)`).
    pub(crate) fn view_with<'a>(
        &'a self,
        item_block: usize,
        block_max: &'a [f32],
    ) -> SegmentView<'a> {
        SegmentView {
            items: self.theta.data(),
            norms: &self.norms,
            block_max,
            item_block,
            first_id: self.start,
            ids: self.ids.as_deref(),
            pos: self.pos.as_deref(),
            encoded: self.encoded.as_ref(),
        }
    }
}

/// Permutes the `f`-float rows of `data` in place so that row `r` becomes
/// the row that was at `order[r]`.  Follows the cycles of `order` with one
/// row of scratch and a visited mark per row: `O(n·f)` moves, `O(f + n)`
/// extra memory, never a second slab.
fn permute_rows(data: &mut [f32], f: usize, order: &[u32]) {
    let mut visited = vec![false; order.len()];
    let mut held = vec![0.0f32; f];
    for first in 0..order.len() {
        if visited[first] || order[first] as usize == first {
            continue;
        }
        held.copy_from_slice(&data[first * f..(first + 1) * f]);
        let mut row = first;
        loop {
            visited[row] = true;
            let src = order[row] as usize;
            if src == first {
                data[row * f..(row + 1) * f].copy_from_slice(&held);
                break;
            }
            data.copy_within(src * f..(src + 1) * f, row * f);
            row = src;
        }
    }
}

/// `item_norms` of `slab`'s decoded rows, decoding one `tile` of rows at a
/// time so the full decoded slab is never materialized.  Bit-identical to
/// `item_norms(&slab.decode_all(), f)`: each norm depends on its row alone.
fn decoded_norms(slab: &EncodedSlab, tile: usize) -> Vec<f32> {
    let f = slab.rank();
    let mut norms = Vec::with_capacity(slab.rows());
    let mut scratch = vec![0.0f32; tile * f];
    for start in (0..slab.rows()).step_by(tile) {
        let end = (start + tile).min(slab.rows());
        let rows = &mut scratch[..(end - start) * f];
        slab.decode_rows(start, end, rows);
        norms.extend(item_norms(rows, f));
    }
    norms
}

/// The serving-side item factors as block-aligned, `Arc`-shared segments.
///
/// Cloning a store clones the `Arc` list, not the factors; two snapshots
/// chained by an item-appending delta share every pre-existing segment
/// allocation.  See the module docs for the layout story.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemStore {
    f: usize,
    n_items: usize,
    layout: ItemLayout,
    /// Default precision newly built segments (appends, compaction) are
    /// encoded at.  Individual segments may override it
    /// ([`ItemStore::reencode_with`]).
    precision: Precision,
    segments: Vec<Arc<ItemSegment>>,
}

impl ItemStore {
    /// Builds a single-segment store over `theta` (rows in catalog order)
    /// with the given layout and the scan slab stored at `precision`.  The
    /// exact f32 rows are always retained alongside — point lookups,
    /// [`ItemStore::to_matrix`], and fold-in stay exact; only the blocked
    /// scan reads compressed bytes.
    pub fn new(theta: FactorMatrix, layout: ItemLayout, precision: Precision) -> Self {
        let f = theta.rank();
        let n_items = theta.len();
        let segments = vec![Arc::new(ItemSegment::build_with_precision(
            theta, 0, layout, precision,
        ))];
        Self {
            f,
            n_items,
            layout,
            precision,
            segments,
        }
    }

    /// Latent rank `f`.
    pub fn rank(&self) -> usize {
        self.f
    }

    /// Default precision for newly built segments.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Re-encodes every segment at `precision` and makes it the store
    /// default.  Segments already at the target precision are `Arc`-shared,
    /// not copied.  At `F32` this restores the exact pre-quantization
    /// store.
    pub fn reencode(&self, precision: Precision) -> ItemStore {
        let mut out = self.reencode_with(|_, _| precision);
        out.precision = precision;
        out
    }

    /// Per-segment precision overrides: `choose(i, segment)` picks each
    /// segment's target, so mixed catalogs (hot head segment at f32, cold
    /// tails at i8) are one call.  Unchanged segments stay `Arc`-shared;
    /// the store default is untouched.
    pub fn reencode_with(
        &self,
        mut choose: impl FnMut(usize, &ItemSegment) -> Precision,
    ) -> ItemStore {
        let segments = self
            .segments
            .iter()
            .enumerate()
            .map(|(i, seg)| {
                let target = choose(i, seg);
                if target == seg.precision() {
                    Arc::clone(seg)
                } else {
                    Arc::new(seg.reencode(target))
                }
            })
            .collect();
        Self {
            f: self.f,
            n_items: self.n_items,
            layout: self.layout,
            precision: self.precision,
            segments,
        }
    }

    /// Total items across all segments.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// The stored row order of every segment.
    pub fn layout(&self) -> ItemLayout {
        self.layout
    }

    /// Number of segments (1 after a full build or [`ItemStore::compact`]).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The segments, base first, tails in append order.
    pub fn segments(&self) -> &[Arc<ItemSegment>] {
        &self.segments
    }

    /// Appends `rows` as a new tail segment taking the next catalog ids,
    /// encoded at the store's default precision (the fold-in/append path
    /// re-encodes automatically — a quantized catalog never silently grows
    /// full-precision tails).  Returns the new store and the factor bytes
    /// physically copied — `rows.len() · f · 4` for the retained exact copy
    /// (`O(a·f)`; plus the encoded slab when the store is quantized): every
    /// existing segment is shared by `Arc`, never copied.
    ///
    /// # Panics
    /// Panics if `rows` has a different rank.
    pub fn append(&self, rows: &FactorMatrix) -> (ItemStore, usize) {
        assert_eq!(rows.rank(), self.f, "appended items have the wrong rank");
        let tail = ItemSegment::build_with_precision(
            rows.clone(),
            self.n_items as u32,
            self.layout,
            self.precision,
        );
        let bytes = rows.data().len() * 4
            + tail
                .encoded()
                .map_or(0, |slab| slab.scan_bytes(0, slab.rows()) as usize);
        let mut segments = self.segments.clone();
        segments.push(Arc::new(tail));
        (
            Self {
                f: self.f,
                n_items: self.n_items + rows.len(),
                layout: self.layout,
                precision: self.precision,
                segments,
            },
            bytes,
        )
    }

    /// Merges every segment back into one base segment, re-deriving the
    /// layout over the whole catalog and re-encoding at the store's default
    /// precision (per-segment overrides do not survive a compaction — the
    /// merged base is one slab).  Costs one `O(n·f)` materialization — the
    /// price an append-heavy store pays once per compaction instead of on
    /// every delta.  Retrieval against the compacted store is bit-identical
    /// when every segment already carried the default precision.
    pub fn compact(&self) -> ItemStore {
        ItemStore::new(self.to_matrix(), self.layout, self.precision)
    }

    /// Materializes the catalog in global id order — the contiguous Θ a
    /// fold-in solve or an external consumer wants.  `O(n·f)`.
    pub fn to_matrix(&self) -> FactorMatrix {
        let f = self.f;
        let mut data = vec![0.0f32; self.n_items * f];
        for seg in &self.segments {
            for row in 0..seg.len() {
                let g = seg.global_id(row) as usize;
                data[g * f..(g + 1) * f].copy_from_slice(seg.theta.vector(row));
            }
        }
        FactorMatrix::from_vec(self.n_items, f, data)
    }

    /// The segment covering global item id `v`.
    ///
    /// # Panics
    /// Panics if `v >= n_items()`.
    fn segment_for(&self, v: usize) -> &ItemSegment {
        assert!(v < self.n_items, "item {v} out of range");
        let i = self
            .segments
            .partition_point(|s| (s.start as usize) <= v)
            .saturating_sub(1);
        &self.segments[i]
    }

    /// Factor vector of catalog item `v` (id-remap applied).
    ///
    /// # Panics
    /// Panics if `v >= n_items()`.
    pub fn vector(&self, v: usize) -> &[f32] {
        let seg = self.segment_for(v);
        seg.vector_at(v - seg.start as usize)
    }

    /// Norm of catalog item `v`.
    ///
    /// # Panics
    /// Panics if `v >= n_items()`.
    pub fn norm(&self, v: usize) -> f32 {
        let seg = self.segment_for(v);
        seg.norm_at(v - seg.start as usize)
    }

    /// Scoring views of every segment at their default blocking.
    pub fn views(&self) -> Vec<SegmentView<'_>> {
        self.segments.iter().map(|s| s.view()).collect()
    }

    /// True when segment `i` is physically the same allocation in both
    /// stores — the structural-sharing invariant the tests pin.
    #[cfg(test)]
    pub(crate) fn shares_segment_with(&self, other: &ItemStore, i: usize) -> bool {
        Arc::ptr_eq(&self.segments[i], &other.segments[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn theta(n: usize, f: usize, seed: u64) -> FactorMatrix {
        FactorMatrix::random(n, f, 1.0, seed)
    }

    #[test]
    fn catalog_order_store_round_trips_vectors_and_norms() {
        let t = theta(37, 5, 1);
        let store = ItemStore::new(t.clone(), ItemLayout::CatalogOrder, Precision::F32);
        assert_eq!(store.n_items(), 37);
        assert_eq!(store.segment_count(), 1);
        for v in 0..37 {
            assert_eq!(store.vector(v), t.vector(v), "item {v}");
            let expect = cumf_linalg::blas::norm_sq(t.vector(v)).sqrt();
            assert_eq!(store.norm(v), expect);
        }
        assert_eq!(store.to_matrix(), t);
    }

    #[test]
    fn norm_descending_store_permutes_rows_but_remaps_ids() {
        let t = theta(100, 6, 2);
        let store = ItemStore::new(t.clone(), ItemLayout::NormDescending, Precision::F32);
        let seg = &store.segments()[0];
        assert!(seg.ids.is_some());
        // Stored norms are non-increasing.
        assert!(seg.norms().windows(2).all(|w| w[0] >= w[1]));
        // Global lookups are id-remapped back to catalog order.
        for v in 0..100 {
            assert_eq!(store.vector(v), t.vector(v), "item {v}");
        }
        assert_eq!(store.to_matrix(), t);
        // Stored rows carry their true global ids.
        for row in 0..seg.len() {
            let g = seg.global_id(row) as usize;
            assert_eq!(seg.theta().vector(row), t.vector(g));
        }
    }

    #[test]
    fn norm_permutation_is_deterministic_under_ties() {
        // All-equal norms: the permutation must fall back to id order.
        let t = FactorMatrix::from_vec(
            6,
            2,
            vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0],
        );
        let store = ItemStore::new(t, ItemLayout::NormDescending, Precision::F32);
        let seg = &store.segments()[0];
        let ids: Vec<u32> = (0..seg.len()).map(|r| seg.global_id(r)).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn append_pushes_a_tail_segment_and_shares_the_base() {
        for layout in [ItemLayout::CatalogOrder, ItemLayout::NormDescending] {
            let base_theta = theta(90, 4, 3);
            let store = ItemStore::new(base_theta.clone(), layout, Precision::F32);
            let tail = theta(15, 4, 4);
            let (grown, bytes) = store.append(&tail);
            assert_eq!(bytes, 15 * 4 * 4, "O(a·f) bytes for {layout:?}");
            assert_eq!(grown.n_items(), 105);
            assert_eq!(grown.segment_count(), 2);
            assert!(grown.shares_segment_with(&store, 0), "base Arc-shared");
            for v in 0..90 {
                assert_eq!(grown.vector(v), base_theta.vector(v));
            }
            for i in 0..15 {
                assert_eq!(grown.vector(90 + i), tail.vector(i), "{layout:?}");
            }
            // A second append shares both existing segments.
            let (grown2, _) = grown.append(&theta(7, 4, 5));
            assert_eq!(grown2.segment_count(), 3);
            assert!(grown2.shares_segment_with(&grown, 0));
            assert!(grown2.shares_segment_with(&grown, 1));
        }
    }

    #[test]
    fn compact_merges_tails_into_one_identical_base() {
        for layout in [ItemLayout::CatalogOrder, ItemLayout::NormDescending] {
            let store = ItemStore::new(theta(60, 5, 6), layout, Precision::F32);
            let (store, _) = store.append(&theta(20, 5, 7));
            let (store, _) = store.append(&theta(3, 5, 8));
            assert_eq!(store.segment_count(), 3);
            let compacted = store.compact();
            assert_eq!(compacted.segment_count(), 1);
            assert_eq!(compacted.n_items(), store.n_items());
            assert_eq!(compacted.to_matrix(), store.to_matrix(), "{layout:?}");
            for v in 0..store.n_items() {
                assert_eq!(compacted.vector(v), store.vector(v));
                assert_eq!(compacted.norm(v), store.norm(v));
            }
        }
    }

    #[test]
    fn views_cover_every_item_exactly_once() {
        let store = ItemStore::new(theta(50, 4, 9), ItemLayout::NormDescending, Precision::F32);
        let (store, _) = store.append(&theta(11, 4, 10));
        let views = store.views();
        assert_eq!(views.len(), 2);
        let mut seen: Vec<u32> = views
            .iter()
            .flat_map(|v| (0..v.n_items()).map(move |r| v.global_id(r)))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..61u32).collect::<Vec<_>>());
        for v in &views {
            v.validate(4);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_vector_panics() {
        ItemStore::new(theta(3, 2, 11), ItemLayout::CatalogOrder, Precision::F32).vector(3);
    }

    #[test]
    #[should_panic(expected = "wrong rank")]
    fn append_rejects_rank_mismatch() {
        ItemStore::new(theta(3, 2, 12), ItemLayout::CatalogOrder, Precision::F32)
            .append(&theta(1, 3, 13));
    }

    #[test]
    fn quantized_store_retains_exact_rows_and_encodes_the_scan_slab() {
        for precision in [Precision::F16, Precision::I8] {
            let t = theta(200, 8, 21);
            let store = ItemStore::new(t.clone(), ItemLayout::NormDescending, precision);
            assert_eq!(store.precision(), precision);
            let seg = &store.segments()[0];
            assert_eq!(seg.precision(), precision);
            let slab = seg.encoded().expect("scan slab present");
            assert_eq!(slab.rows(), 200);
            // Point lookups and materialization stay exact: theta is the
            // retained f32 copy, only the scan slab is compressed.
            for v in 0..200 {
                assert_eq!(store.vector(v), t.vector(v), "{precision}: item {v}");
            }
            assert_eq!(store.to_matrix(), t);
            // The pruning tables describe the decoded values the scan
            // actually streams.
            let decoded = slab.decode_all();
            for (row, &n) in seg.norms().iter().enumerate() {
                let expect = cumf_linalg::blas::norm_sq(&decoded[row * 8..(row + 1) * 8]).sqrt();
                assert_eq!(n, expect, "{precision}: row {row}");
            }
            // Round-tripping back to f32 restores the exact store.
            let restored = store.reencode(Precision::F32);
            assert_eq!(
                restored,
                ItemStore::new(t.clone(), ItemLayout::NormDescending, Precision::F32)
            );
        }
    }

    #[test]
    fn quantized_append_and_compact_reencode_tails() {
        let store = ItemStore::new(theta(90, 4, 3), ItemLayout::NormDescending, Precision::I8);
        let (grown, _) = store.append(&theta(15, 4, 4));
        assert_eq!(grown.segments()[1].precision(), Precision::I8);
        assert!(grown.segments()[1].encoded().is_some(), "tail re-encoded");
        assert!(grown.shares_segment_with(&store, 0), "base Arc-shared");
        let compacted = grown.compact();
        assert_eq!(compacted.segment_count(), 1);
        assert_eq!(compacted.segments()[0].precision(), Precision::I8);
        assert_eq!(compacted.to_matrix(), grown.to_matrix());
    }

    #[test]
    fn mixed_precision_overrides_share_unchanged_segments() {
        let store = ItemStore::new(theta(60, 5, 6), ItemLayout::NormDescending, Precision::F32);
        let (store, _) = store.append(&theta(20, 5, 7));
        let mixed = store.reencode_with(|i, _| {
            if i == 0 {
                Precision::F32
            } else {
                Precision::I8
            }
        });
        assert!(mixed.shares_segment_with(&store, 0), "hot head untouched");
        assert_eq!(mixed.segments()[1].precision(), Precision::I8);
        assert_eq!(mixed.precision(), Precision::F32, "store default unchanged");
        for v in 0..80 {
            assert_eq!(
                mixed.vector(v),
                store.vector(v),
                "exact lookups survive the mix"
            );
        }
    }

    #[test]
    fn empty_catalog_is_representable() {
        let store = ItemStore::new(
            FactorMatrix::zeros(0, 4),
            ItemLayout::NormDescending,
            Precision::F32,
        );
        assert_eq!(store.n_items(), 0);
        assert_eq!(store.views().len(), 1);
        assert!(store.segments()[0].is_empty());
        let (grown, bytes) = store.append(&theta(5, 4, 14));
        assert_eq!(grown.n_items(), 5);
        assert_eq!(bytes, 5 * 4 * 4);
    }

    #[test]
    fn quantized_norm_tables_match_the_fully_decoded_slab() {
        // Row counts off the decode tile (and one under it), ranks off a
        // multiple of four.
        for precision in [Precision::F16, Precision::I8] {
            for (n, f) in [(1_037, 7), (513, 5), (200, 13)] {
                let seg = ItemSegment::build_with_precision(
                    theta(n, f, 31),
                    0,
                    ItemLayout::NormDescending,
                    precision,
                );
                let slab = seg.encoded().expect("scan slab present");
                let norms = item_norms(&slab.decode_all(), f);
                let block_max = block_max_norms(&norms, seg.default_block());
                let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(seg.norms()), bits(&norms), "{precision} n={n} f={f}");
                assert_eq!(bits(seg.block_max()), bits(&block_max), "{precision}");
            }
        }
    }

    /// The segment build as it was before rows were permuted in place: the
    /// norm-sorted rows gathered into a fresh slab, and quantized norm
    /// tables taken from a fully decoded copy.  The oracle the in-place
    /// build is diffed against.
    fn gather_build(
        theta: &FactorMatrix,
        start: u32,
        layout: ItemLayout,
        precision: Precision,
    ) -> ItemSegment {
        let (n, rank) = (theta.len(), theta.rank());
        let f = rank.max(1);
        let block = DEFAULT_ITEM_BLOCK.min(n.max(1));
        let norms = item_norms(theta.data(), f);
        let (data, norms, ids, pos) = match layout {
            ItemLayout::CatalogOrder => (theta.data().to_vec(), norms, None, None),
            ItemLayout::NormDescending => {
                let mut order: Vec<u32> = (0..n as u32).collect();
                order.sort_by(|&a, &b| {
                    norms[b as usize]
                        .total_cmp(&norms[a as usize])
                        .then(a.cmp(&b))
                });
                let mut data = Vec::with_capacity(n * rank);
                let mut sorted_norms = Vec::with_capacity(n);
                let mut pos = vec![0u32; n];
                for (row, &orig) in order.iter().enumerate() {
                    data.extend_from_slice(theta.vector(orig as usize));
                    sorted_norms.push(norms[orig as usize]);
                    pos[orig as usize] = row as u32;
                }
                let ids = order.iter().map(|&orig| start + orig).collect();
                (data, sorted_norms, Some(ids), Some(pos))
            }
        };
        let encoded = EncodedSlab::encode(&data, f, block, precision);
        let norms = match &encoded {
            Some(slab) => item_norms(&slab.decode_all(), f),
            None => norms,
        };
        ItemSegment {
            start,
            theta: FactorMatrix::from_vec(n, rank, data),
            block_max: block_max_norms(&norms, block),
            norms,
            ids,
            pos,
            precision: if encoded.is_some() {
                precision
            } else {
                Precision::F32
            },
            encoded,
        }
    }

    /// `n × f` factors mixing random rows, all-zero rows, and sign-flipped
    /// copies of three template rows (equal norms, distinct vectors), so
    /// the norm sort meets ties and zeros.
    fn tied_theta(n: usize, f: usize, seed: u64) -> FactorMatrix {
        let random = FactorMatrix::random(n, f, 1.0, seed);
        let templates = FactorMatrix::random(3, f, 1.0, seed ^ 0x5eed);
        let mut t = FactorMatrix::zeros(n, f);
        for v in 0..n {
            let h = v.wrapping_mul(2_654_435_761) ^ seed as usize;
            match h % 4 {
                0 => {}
                1 => {
                    let template = templates.vector(h / 4 % 3);
                    for (j, (dst, &x)) in t.vector_mut(v).iter_mut().zip(template).enumerate() {
                        *dst = if (h >> (j % 32)) & 1 == 1 { -x } else { x };
                    }
                }
                _ => t.vector_mut(v).copy_from_slice(random.vector(v)),
            }
        }
        t
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A segment built in place is `==` the gather build — stored order,
        /// norms, block maxima, id maps and scan slab — for both layouts and
        /// every precision, on a full build, an appended tail and a
        /// compaction.  One case in four draws a tiny (possibly empty)
        /// catalog.
        #[test]
        fn in_place_segments_equal_the_gather_build(
            (n, tail) in (0u8..4, 0usize..=1500, 0usize..=300)
                .prop_map(|(tiny, n, tail)| if tiny == 0 { (n % 8, tail % 8) } else { (n, tail) }),
            f in 1usize..=70,
            seed in 0u64..1_000,
            precision in 0usize..3,
        ) {
            let precision = [Precision::F32, Precision::F16, Precision::I8][precision];
            let base = tied_theta(n, f, seed);
            let rows = tied_theta(tail, f, seed + 1);
            for layout in [ItemLayout::CatalogOrder, ItemLayout::NormDescending] {
                let store = ItemStore::new(base.clone(), layout, precision);
                prop_assert_eq!(&*store.segments()[0], &gather_build(&base, 0, layout, precision));
                let (grown, _) = store.append(&rows);
                prop_assert_eq!(
                    &*grown.segments()[1],
                    &gather_build(&rows, n as u32, layout, precision)
                );
                let compacted = grown.compact();
                prop_assert_eq!(
                    &*compacted.segments()[0],
                    &gather_build(&grown.to_matrix(), 0, layout, precision)
                );
            }
        }
    }
}

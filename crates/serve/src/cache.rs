//! Per-user LRU result cache with snapshot-generation invalidation and
//! byte-budgeted eviction.
//!
//! Recommendation traffic is heavily skewed (the same Zipf skew the data
//! generator models), so a small cache in front of the scorer absorbs the
//! hottest users.  Entries are stamped with the snapshot generation they
//! were computed against, and each cache knows two generations: the
//! **current** one (the newest publish it has been told about) and a
//! **floor** (the last publish that was not a user-only delta).  An entry
//! computed at `e` answers a lookup at `g` iff `floor ≤ e ≤ g ≤ current`:
//!
//! * a full publish (or an item-appending delta) raises the floor, so the
//!   whole cache goes stale *lazily* — stale entries are dropped on first
//!   touch, with no stop-the-world purge on the publish path;
//! * a user-only delta moves only the current generation and takes the
//!   changed users' entries out through a per-user slot index, so it costs
//!   `O(changed users)`, not `O(cache)`; everyone else's entries keep
//!   answering, since their results are bit-identical under the new
//!   snapshot.  The taken keys go back to the caller, which re-scores them
//!   (`TopKService::publish_delta` refreshes them on the publishing thread
//!   before it returns, so its latency includes that scan);
//! * a lookup ahead of `current` misses without evicting (the cache has not
//!   yet processed that publish), and an insert computed at a generation
//!   older than `current` is dropped — so no interleaving of a publish and
//!   an in-flight batch can serve a changed user's old reply at the new
//!   generation.
//!
//! Capacity is bounded twice: by entry count and by **bytes** — each entry
//! is charged `k · 8` result bytes plus `4` per excluded item, so heavy-`k`
//! or heavy-exclusion traffic evicts proportionally more entries instead of
//! growing memory without bound.
//!
//! The implementation is a classic intrusive doubly-linked LRU over a slab,
//! so `get`/`insert` are O(1) and eviction is exact (oldest-touched first);
//! a second intrusive list per user chains that user's slots.
//! [`ShardedResultCache`] wraps `N` independently-locked instances behind a
//! key hash so a scorer worker pool shares one logical cache without
//! serializing on a single mutex.

use crate::sync::Mutex;
use crate::topk::Query;
use cumf_linalg::ApproxPolicy;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

/// Cache key: the full identity of a request, exclusion list included —
/// two requests for the same user with different exclusions must never
/// share a result, so the list is stored verbatim rather than hashed down
/// to a collidable digest.  Equality is order-sensitive; callers pass the
/// seen-item list as stored (CSR order), which is stable for a given user,
/// so a permuted list merely misses and rescores.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    user: u32,
    k: usize,
    exclude: Box<[u32]>,
    /// Approximate-retrieval discriminator: `(epsilon.to_bits(), max_blocks)`
    /// of the effective [`cumf_linalg::ApproxPolicy`], `None` for exact.
    /// An approximate result must never be served to an exact request (or to
    /// a request with a different epsilon) from the cache — the policies
    /// produce different lists by design.  `target_recall` is advisory and
    /// deliberately excluded: it cannot change a result.
    approx: Option<(u32, usize)>,
    /// Storage-precision discriminator ([`cumf_linalg::Precision::code`] of
    /// the snapshot's item store).  A list scored against a quantized
    /// catalog is exact-ranked only within its over-fetched candidate set,
    /// so it must never answer a request served at a different precision —
    /// generation stamping alone does not cover this because a re-encoded
    /// snapshot keeps its generation.
    precision: u8,
}

impl CacheKey {
    /// Builds the key for an **exact** `(user, k, exclude)` request.
    pub fn new(user: u32, k: usize, exclude: &[u32]) -> Self {
        Self {
            user,
            k,
            exclude: exclude.into(),
            approx: None,
            precision: 0,
        }
    }

    /// Builds the key for a request scored under an approximate policy.
    /// `epsilon` and `max_blocks` are the result-affecting knobs; two
    /// requests agreeing on them (and on user/k/exclusions) may share a
    /// cached list.
    pub fn new_approx(
        user: u32,
        k: usize,
        exclude: &[u32],
        epsilon: f32,
        max_blocks: usize,
    ) -> Self {
        Self {
            user,
            k,
            exclude: exclude.into(),
            approx: Some((epsilon.to_bits(), max_blocks)),
            precision: 0,
        }
    }

    /// Stamps the storage precision the request will be scored against
    /// ([`cumf_linalg::Precision::code`]); keys built by [`CacheKey::new`] /
    /// [`CacheKey::new_approx`] default to exact f32 (code 0).
    pub(crate) fn with_precision(mut self, code: u8) -> Self {
        self.precision = code;
        self
    }

    /// The request this key caches the reply of.
    pub(crate) fn query(&self) -> Query {
        Query {
            user: self.user,
            k: self.k,
            exclude: self.exclude.to_vec(),
        }
    }

    /// The approximate policy the reply was scored under (`None`: exact).
    /// `target_recall` is advisory and not part of the key, so it comes
    /// back as 0.
    pub(crate) fn policy(&self) -> Option<ApproxPolicy> {
        self.approx.map(|(epsilon, max_blocks)| ApproxPolicy {
            epsilon: f32::from_bits(epsilon),
            max_blocks,
            target_recall: 0.0,
        })
    }

    /// The storage precision code the reply was scored at.
    pub(crate) fn precision(&self) -> u8 {
        self.precision
    }

    /// Placeholder left in a slab slot after its entry is removed, so the
    /// real key (and its boxed exclusion list) is freed immediately rather
    /// than lingering until the slot is reused.  The empty box does not
    /// allocate.
    fn tombstone() -> Self {
        Self {
            user: u32::MAX,
            k: 0,
            exclude: Box::new([]),
            approx: None,
            precision: 0,
        }
    }

    /// Bytes this key charges against a cache budget (its exclusion list).
    fn cost(&self) -> usize {
        self.exclude.len() * std::mem::size_of::<u32>()
    }
}

const NIL: usize = usize::MAX;

/// Bytes a cached result list charges against the budget.
fn value_cost(value: &[(u32, f32)]) -> usize {
    std::mem::size_of_val(value)
}

#[derive(Debug)]
struct Node {
    key: CacheKey,
    generation: u64,
    value: Vec<(u32, f32)>,
    prev: usize,
    next: usize,
    /// Neighbours in the chain of slots caching the same user.
    user_prev: usize,
    user_next: usize,
}

/// Bounded LRU of ranked result lists.  `capacity == 0` disables caching
/// (every `get` misses, every `insert` is dropped); `budget_bytes` bounds
/// the summed entry costs (`usize::MAX` = entry-count bound only).
///
/// A new cache stands at generation 0: lookups miss until
/// [`ResultCache::publish`] moves it to the generation they ask for.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    budget_bytes: usize,
    bytes: usize,
    map: HashMap<CacheKey, usize>,
    /// First slot of each cached user's chain.
    users: HashMap<u32, usize>,
    slab: Vec<Node>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    /// Entries computed before this generation are stale: the last publish
    /// that was not a user-only delta.
    floor: u64,
    /// The newest publish this cache has processed.
    current: u64,
    /// Slots a user-only delta publish has walked, for the test that pins
    /// its cost to the changed users' entries.
    #[cfg(test)]
    slots_visited: usize,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` results with no byte
    /// budget.
    pub fn new(capacity: usize) -> Self {
        Self::with_budget(capacity, usize::MAX)
    }

    /// Creates a cache bounded by `capacity` entries **and** `budget_bytes`
    /// total entry cost (`k·8` result bytes + `4` per excluded item each).
    /// A `budget_bytes` of 0 disables caching, like a zero capacity.
    fn with_budget(capacity: usize, budget_bytes: usize) -> Self {
        Self {
            capacity,
            budget_bytes,
            bytes: 0,
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            users: HashMap::new(),
            slab: Vec::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            floor: 0,
            current: 0,
            #[cfg(test)]
            slots_visited: 0,
        }
    }

    /// Number of live entries (stale ones included until touched).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently charged against the budget.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Looks up `key` for a batch scoring against `generation`.  An entry
    /// computed before the floor is stale — it is removed and the lookup
    /// misses.  A lookup ahead of the current generation (a publish this
    /// cache has not processed yet) misses, and so does one behind the
    /// entry (an in-flight batch still scoring against a pre-publish
    /// snapshot); neither evicts anything.
    pub fn get(&mut self, key: &CacheKey, generation: u64) -> Option<&Vec<(u32, f32)>> {
        let &idx = self.map.get(key)?;
        let computed = self.slab[idx].generation;
        if computed < self.floor {
            self.remove_slot(idx);
            return None;
        }
        if generation > self.current || computed > generation {
            return None;
        }
        self.touch(idx);
        Some(&self.slab[idx].value)
    }

    /// Inserts (or refreshes) a result computed against `generation`,
    /// evicting least-recently-used entries while either bound is exceeded.
    /// An entry whose cost alone exceeds the budget is not cached, and
    /// neither is one computed on a snapshot older than the current
    /// generation: a changed user's entry may already have been taken out
    /// (or refreshed) by that publish.
    pub fn insert(&mut self, key: CacheKey, generation: u64, value: Vec<(u32, f32)>) {
        if self.capacity == 0 || self.budget_bytes == 0 || generation < self.current {
            return;
        }
        let cost = key.cost() + value_cost(&value);
        if let Some(&idx) = self.map.get(&key) {
            if self.slab[idx].generation > generation {
                // A worker finishing a batch against an older snapshot must
                // not clobber an entry computed on a newer one.
                return;
            }
            if cost > self.budget_bytes {
                // The refreshed entry alone exceeds the budget; drop it
                // rather than keep serving the outdated value.
                self.remove_slot(idx);
                return;
            }
            let old = value_cost(&self.slab[idx].value);
            self.bytes = self.bytes - old + value_cost(&value);
            self.slab[idx].generation = generation;
            self.slab[idx].value = value;
            // MRU first, so a refresh that outgrew the budget evicts cold
            // tail entries — never the (hot, just-refreshed) entry itself.
            self.touch(idx);
            while self.bytes > self.budget_bytes {
                debug_assert_ne!(self.tail, idx);
                self.remove_slot(self.tail);
            }
            return;
        }
        if cost > self.budget_bytes {
            return;
        }
        while self.map.len() >= self.capacity || self.bytes + cost > self.budget_bytes {
            debug_assert_ne!(self.tail, NIL);
            self.remove_slot(self.tail);
        }
        self.bytes += cost;
        let user_next = self.users.get(&key.user).copied().unwrap_or(NIL);
        let node = Node {
            key: key.clone(),
            generation,
            value,
            prev: NIL,
            next: self.head,
            user_prev: NIL,
            user_next,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = node;
                i
            }
            None => {
                self.slab.push(node);
                self.slab.len() - 1
            }
        };
        if user_next != NIL {
            self.slab[user_next].user_prev = idx;
        }
        self.users.insert(key.user, idx);
        self.attach_front(idx);
        self.map.insert(key, idx);
    }

    /// A publish that may change any reply (a full snapshot, an
    /// item-appending delta): every entry computed before `generation`
    /// goes stale, lazily.  A publish older than the current one is
    /// ignored — the floor can only rise.
    pub fn publish(&mut self, generation: u64) {
        if generation > self.current {
            self.floor = generation;
            self.current = generation;
        }
    }

    /// A user-only delta publish from `base` to `generation`: moves the
    /// current generation and takes every live entry of `users` out of the
    /// cache, appending its key to `taken`.  Only those users' slots are
    /// visited.  If this cache has not processed `base` (racing publishers
    /// notified it out of order), it cannot tell which entries the missed
    /// publish changed, so it falls back to [`ResultCache::publish`]; a
    /// notification it has already passed is ignored.
    fn publish_users(
        &mut self,
        base: u64,
        generation: u64,
        users: &[u32],
        taken: &mut Vec<CacheKey>,
    ) {
        if generation <= self.current {
            return;
        }
        if base != self.current {
            self.publish(generation);
            return;
        }
        self.current = generation;
        for user in users {
            while let Some(&idx) = self.users.get(user) {
                #[cfg(test)]
                {
                    self.slots_visited += 1;
                }
                let live = self.slab[idx].generation >= self.floor;
                let key = self.remove_slot(idx);
                if live {
                    taken.push(key);
                }
            }
        }
    }

    /// Removes one entry; returns whether it existed.
    pub fn remove(&mut self, key: &CacheKey) -> bool {
        let Some(&idx) = self.map.get(key) else {
            return false;
        };
        self.remove_slot(idx);
        true
    }

    /// Frees slot `idx`: unlinks it from the LRU and its user's chain,
    /// takes the key out of the node (freeing its value now, not when the
    /// slot is reused), removes the map entry through that owned key — no
    /// clone — returns the slot to the free list and the key to the caller.
    fn remove_slot(&mut self, idx: usize) -> CacheKey {
        self.detach(idx);
        let (user_prev, user_next) = (self.slab[idx].user_prev, self.slab[idx].user_next);
        if user_next != NIL {
            self.slab[user_next].user_prev = user_prev;
        }
        if user_prev != NIL {
            self.slab[user_prev].user_next = user_next;
        } else if user_next != NIL {
            self.users.insert(self.slab[idx].key.user, user_next);
        } else {
            self.users.remove(&self.slab[idx].key.user);
        }
        let key = std::mem::replace(&mut self.slab[idx].key, CacheKey::tombstone());
        let value = std::mem::take(&mut self.slab[idx].value);
        self.bytes -= key.cost() + value_cost(&value);
        self.map.remove(&key);
        self.free.push(idx);
        key
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.users.clear();
        self.slab.clear();
        self.free.clear();
        self.bytes = 0;
        self.head = NIL;
        self.tail = NIL;
    }

    fn touch(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.detach(idx);
        self.attach_front(idx);
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// `N` independently-locked [`ResultCache`]s behind a key hash: the shared
/// result cache of a scorer worker pool.  Capacity and budget are split
/// evenly across shards, so the configured totals hold globally while two
/// workers touching different keys almost never contend on the same lock.
#[derive(Debug)]
pub struct ShardedResultCache {
    shards: Vec<Mutex<ResultCache>>,
}

impl ShardedResultCache {
    /// Creates `shards` cache shards sharing `capacity` entries and
    /// `budget_bytes` (`usize::MAX` = unbudgeted) between them.
    pub fn new(shards: usize, capacity: usize, budget_bytes: usize) -> Self {
        let n = shards.max(1);
        let per_capacity = capacity.div_ceil(n);
        let per_budget = if budget_bytes == usize::MAX {
            usize::MAX
        } else {
            budget_bytes.div_ceil(n)
        };
        Self {
            shards: (0..n)
                .map(|_| Mutex::new(ResultCache::with_budget(per_capacity, per_budget)))
                .collect(),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<ResultCache> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    /// Locks one shard; a shard poisoned by a panicking worker keeps
    /// serving — every cache operation leaves the LRU structure consistent,
    /// so the contents are still valid.
    fn lock(shard: &Mutex<ResultCache>) -> crate::sync::MutexGuard<'_, ResultCache> {
        shard
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Generation-checked lookup; clones the hit out, bounding the lock to
    /// the map probe plus one `k`-element copy (no caller-side borrow keeps
    /// the shard locked).
    pub fn get(&self, key: &CacheKey, generation: u64) -> Option<Vec<(u32, f32)>> {
        Self::lock(self.shard(key)).get(key, generation).cloned()
    }

    /// Inserts a result into the owning shard.
    pub fn insert(&self, key: CacheKey, generation: u64, value: Vec<(u32, f32)>) {
        let shard = self.shard(&key);
        Self::lock(shard).insert(key, generation, value);
    }

    /// Records a publish that may change any reply (a full snapshot, an
    /// item-appending delta) at `generation`: every entry computed before
    /// it goes stale, lazily.  Each shard is locked in turn — a publish
    /// never stops the world.
    pub fn publish(&self, generation: u64) {
        for shard in &self.shards {
            Self::lock(shard).publish(generation);
        }
    }

    /// Records a user-only delta publish from `base` to `generation` that
    /// changed (or appended) `users`: their entries are taken out and their
    /// keys returned — for the caller to re-score at `generation` and
    /// insert again — while every other entry keeps answering.  Costs
    /// `O(shards · |users|)` lookups plus the taken entries, never a walk
    /// of the cache.  A shard that missed `base` falls back to
    /// [`ShardedResultCache::publish`] and returns nothing.
    pub fn publish_users(&self, base: u64, generation: u64, users: &[u32]) -> Vec<CacheKey> {
        let mut taken = Vec::new();
        for shard in &self.shards {
            Self::lock(shard).publish_users(base, generation, users, &mut taken);
        }
        taken
    }

    /// Live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock(s).len()).sum()
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes charged across all shards.
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| Self::lock(s).bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(user: u32) -> CacheKey {
        CacheKey::new(user, 10, &[])
    }

    fn val(v: u32) -> Vec<(u32, f32)> {
        vec![(v, 1.0)]
    }

    /// A cache that has processed generation 1, the generation a service
    /// starts at.
    fn cache(capacity: usize) -> ResultCache {
        budgeted(capacity, usize::MAX)
    }

    fn budgeted(capacity: usize, budget_bytes: usize) -> ResultCache {
        let mut c = ResultCache::with_budget(capacity, budget_bytes);
        c.publish(1);
        c
    }

    fn sharded(shards: usize, capacity: usize, budget_bytes: usize) -> ShardedResultCache {
        let c = ShardedResultCache::new(shards, capacity, budget_bytes);
        c.publish(1);
        c
    }

    fn users(c: &ResultCache) -> Vec<u32> {
        let mut users: Vec<u32> = c.map.keys().map(|k| k.user).collect();
        users.sort_unstable();
        users
    }

    #[test]
    fn get_after_insert_hits_same_generation_only() {
        let mut c = cache(4);
        c.insert(key(1), 1, val(7));
        assert_eq!(c.get(&key(1), 1), Some(&val(7)));
        // A lookup ahead of the processed generation misses and keeps the
        // entry; a full publish then invalidates it lazily.
        assert_eq!(c.get(&key(1), 2), None);
        assert_eq!(c.len(), 1, "a lookup ahead of the head evicts nothing");
        c.publish(2);
        assert_eq!(c.get(&key(1), 2), None);
        assert!(c.is_empty(), "stale entry is dropped on touch");
        assert_eq!(c.bytes(), 0, "stale entry refunds its bytes");
    }

    #[test]
    fn a_new_cache_misses_until_it_is_told_the_generation() {
        let mut c = ResultCache::new(4);
        c.insert(key(1), 1, val(7));
        assert_eq!(c.get(&key(1), 1), None);
        c.publish(1);
        assert_eq!(c.get(&key(1), 1), Some(&val(7)));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = cache(3);
        for u in 0..3 {
            c.insert(key(u), 1, val(u));
        }
        // Touch 0 so 1 becomes the LRU.
        assert!(c.get(&key(0), 1).is_some());
        c.insert(key(3), 1, val(3));
        assert_eq!(c.len(), 3);
        assert!(c.get(&key(1), 1).is_none(), "LRU entry evicted");
        assert!(c.get(&key(0), 1).is_some());
        assert!(c.get(&key(2), 1).is_some());
        assert!(c.get(&key(3), 1).is_some());
    }

    #[test]
    fn approx_and_exact_keys_do_not_collide() {
        // Same user/k/exclusions, different retrieval policy: three distinct
        // cache identities — exact, epsilon 0.1, epsilon 0.2 — plus a
        // budget-only variant.  A cached approximate list must never answer
        // an exact request and vice versa.
        let exact = CacheKey::new(1, 10, &[2, 3]);
        let eps1 = CacheKey::new_approx(1, 10, &[2, 3], 0.1, 0);
        let eps2 = CacheKey::new_approx(1, 10, &[2, 3], 0.2, 0);
        let budget = CacheKey::new_approx(1, 10, &[2, 3], 0.1, 16);
        assert_ne!(exact, eps1);
        assert_ne!(eps1, eps2);
        assert_ne!(eps1, budget);
        let mut cache = cache(8);
        cache.insert(eps1.clone(), 1, val(7));
        assert!(
            cache.get(&exact, 1).is_none(),
            "approx result leaked to exact"
        );
        assert!(cache.get(&eps2, 1).is_none());
        assert_eq!(cache.get(&eps1, 1), Some(&val(7)));
        // Same policy parameters rebuild an equal key.
        assert_eq!(eps1, CacheKey::new_approx(1, 10, &[2, 3], 0.1, 0));
    }

    #[test]
    fn keys_give_back_the_request_they_cache() {
        let approx = CacheKey::new_approx(3, 7, &[4, 1], 0.25, 9).with_precision(2);
        let q = approx.query();
        assert_eq!((q.user, q.k, q.exclude), (3, 7, vec![4, 1]));
        let p = approx.policy().expect("approx key");
        assert_eq!((p.epsilon, p.max_blocks), (0.25, 9));
        assert_eq!(approx.precision(), 2);
        assert_eq!(CacheKey::new(3, 7, &[]).policy(), None);
    }

    #[test]
    fn precision_stamped_keys_do_not_collide() {
        // Same request at f32 (code 0), f16 (1), and i8 (2): three cache
        // identities.  A list ranked within a quantized scan's over-fetched
        // candidates must never answer full-precision traffic, and the
        // precision axis composes with the approx discriminator.
        let f32_key = CacheKey::new(4, 6, &[9]);
        let f16_key = CacheKey::new(4, 6, &[9]).with_precision(1);
        let i8_key = CacheKey::new(4, 6, &[9]).with_precision(2);
        assert_ne!(f32_key, f16_key);
        assert_ne!(f16_key, i8_key);
        assert_eq!(f32_key, CacheKey::new(4, 6, &[9]).with_precision(0));
        let approx_f16 = CacheKey::new_approx(4, 6, &[9], 0.1, 0).with_precision(1);
        assert_ne!(approx_f16, f16_key);
        let mut cache = cache(8);
        cache.insert(f16_key.clone(), 1, val(3));
        assert!(
            cache.get(&f32_key, 1).is_none(),
            "quantized result leaked to exact-precision traffic"
        );
        assert!(cache.get(&i8_key, 1).is_none());
        assert_eq!(cache.get(&f16_key, 1), Some(&val(3)));
    }

    #[test]
    fn different_exclusions_do_not_collide() {
        let a = CacheKey::new(1, 10, &[1, 2, 3]);
        let b = CacheKey::new(1, 10, &[1, 2, 4]);
        let c = CacheKey::new(1, 10, &[]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        let mut cache = cache(4);
        cache.insert(a, 1, val(1));
        assert!(cache.get(&b, 1).is_none());
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let mut c = cache(2);
        c.insert(key(1), 1, val(1));
        c.insert(key(2), 1, val(2));
        c.insert(key(1), 1, val(9)); // refresh → key 2 is now LRU
        c.insert(key(3), 1, val(3));
        assert_eq!(c.get(&key(1), 1), Some(&val(9)));
        assert!(c.get(&key(2), 1).is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = cache(0);
        c.insert(key(1), 1, val(1));
        assert!(c.get(&key(1), 1).is_none());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let mut c = budgeted(100, 0);
        c.insert(key(1), 1, val(1));
        assert!(c.get(&key(1), 1).is_none());
    }

    #[test]
    fn slab_slots_are_reused_after_eviction() {
        let mut c = cache(2);
        for round in 0..100u32 {
            c.insert(key(round), 1, val(round));
        }
        assert_eq!(c.len(), 2);
        assert!(c.slab.len() <= 3, "slab grew: {}", c.slab.len());
        assert_eq!(c.users.len(), 2, "evicted users leave the index");
    }

    #[test]
    fn removed_slots_drop_their_key_exclusions() {
        // A heavy exclusion list must be charged while cached and refunded
        // (key freed, not parked in the slab) the moment it is removed.
        let heavy = CacheKey::new(1, 10, &(0..1000).collect::<Vec<u32>>());
        let mut c = cache(4);
        c.insert(heavy.clone(), 1, val(1));
        assert_eq!(c.bytes(), 1000 * 4 + 8);
        assert!(c.remove(&heavy));
        assert_eq!(c.bytes(), 0);
        assert!(c.slab[0].key.exclude.is_empty(), "evicted key still boxed");
        assert!(c.slab[0].value.is_empty(), "evicted value still alive");
        // The tombstoned slot is reusable.
        c.insert(key(2), 1, val(2));
        assert_eq!(c.get(&key(2), 1), Some(&val(2)));
    }

    #[test]
    fn byte_budget_evicts_oldest_entries() {
        // Each entry: k=10 key with empty exclusions, value of 3 pairs →
        // 24 bytes.  Budget of 80 holds 3 entries, not 4.
        let entry = |u: u32| (key(u), vec![(u, 1.0f32), (u + 1, 1.0), (u + 2, 1.0)]);
        let mut c = budgeted(100, 80);
        for u in 0..4 {
            let (k, v) = entry(u);
            c.insert(k, 1, v);
        }
        assert_eq!(c.len(), 3);
        assert!(c.bytes() <= 80);
        assert!(c.get(&key(0), 1).is_none(), "oldest entry evicted first");
        assert!(c.get(&key(3), 1).is_some());
    }

    #[test]
    fn heavy_exclusion_entries_charge_their_keys() {
        // One entry whose exclusion list dominates its cost: a 60-byte
        // budget fits the 8-byte value plus a 48-byte exclusion list once,
        // so a second such entry evicts the first.
        let heavy = |u: u32| CacheKey::new(u, 1, &[0; 12]);
        let mut c = budgeted(100, 60);
        c.insert(heavy(1), 1, val(1));
        assert_eq!(c.bytes(), 48 + 8);
        c.insert(heavy(2), 1, val(2));
        assert_eq!(c.len(), 1, "budget holds one heavy entry");
        assert!(c.get(&heavy(2), 1).is_some());
        assert!(c.get(&heavy(1), 1).is_none());
    }

    #[test]
    fn oversized_entry_is_not_cached() {
        let mut c = budgeted(100, 16);
        c.insert(key(1), 1, vec![(0, 1.0); 10]); // 80 bytes > 16
        assert!(c.is_empty());
        // A fitting entry still caches fine afterwards.
        c.insert(key(2), 1, val(2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn refresh_that_alone_exceeds_the_budget_drops_the_entry() {
        let mut c = budgeted(100, 24);
        c.insert(key(1), 1, val(1));
        assert_eq!(c.len(), 1);
        c.insert(key(1), 2, vec![(0, 1.0); 10]); // 80 bytes > 24
        assert!(c.is_empty(), "stale small value must not survive");
        assert_eq!(c.bytes(), 0);
        assert!(c.users.is_empty());
    }

    #[test]
    fn refresh_that_outgrows_the_budget_evicts_cold_entries_not_itself() {
        // Three 8-byte entries under a 40-byte budget; refreshing the
        // oldest to 32 bytes must evict the now-coldest entry (key 2), not
        // the refreshed hot one.
        let mut c = budgeted(100, 40);
        for u in 1..=3 {
            c.insert(key(u), 1, val(u));
        }
        let fat = vec![(9, 1.0f32); 4]; // 32 bytes
        c.insert(key(1), 1, fat.clone());
        assert!(c.bytes() <= 40);
        assert_eq!(c.get(&key(1), 1), Some(&fat), "hot entry survives");
        assert!(c.get(&key(2), 1).is_none(), "coldest entry evicted");
        assert!(c.get(&key(3), 1).is_some());
    }

    #[test]
    fn publish_users_takes_changed_and_keeps_the_rest() {
        let mut c = cache(8);
        for u in 0..4 {
            c.insert(key(u), 1, val(u));
        }
        // User 1 has a second key, with an exclusion list.
        let other = CacheKey::new(1, 5, &[2]);
        c.insert(other.clone(), 1, val(11));
        let mut taken = Vec::new();
        c.publish_users(1, 2, &[1, 3], &mut taken);
        taken.sort_by_key(|k| (k.user, k.k));
        assert_eq!(taken, vec![other, key(1), key(3)]);
        assert_eq!(users(&c), vec![0, 2]);
        // Changed users miss at the new generation; unchanged users hit at
        // both the old and the new one.
        assert!(c.get(&key(1), 2).is_none());
        assert!(c.get(&key(3), 2).is_none());
        assert_eq!(c.get(&key(0), 2), Some(&val(0)));
        assert_eq!(c.get(&key(2), 2), Some(&val(2)));
        assert_eq!(c.get(&key(0), 1), Some(&val(0)));
        // A refresh at the new generation answers it, and only it.
        c.insert(key(1), 2, val(21));
        assert_eq!(c.get(&key(1), 2), Some(&val(21)));
        assert_eq!(c.get(&key(1), 1), None, "newer entry for an older batch");
    }

    #[test]
    fn publish_users_leaves_stale_entries_stale() {
        // An entry from before the floor is not carried forward — it was
        // computed against factors a full publish replaced — and a changed
        // user's stale entry is not handed back for a refresh.
        let mut c = cache(8);
        c.insert(key(0), 1, val(0));
        c.insert(key(1), 1, val(1));
        c.publish(2);
        c.insert(key(2), 2, val(2));
        let mut taken = Vec::new();
        c.publish_users(2, 3, &[1], &mut taken);
        assert!(taken.is_empty(), "stale entry handed back: {taken:?}");
        assert_eq!(c.get(&key(2), 3), Some(&val(2)));
        assert!(c.get(&key(0), 3).is_none(), "gen-1 entry stays stale");
        assert_eq!(users(&c), vec![2], "the stale entries are gone");
    }

    #[test]
    fn out_of_order_publishes_fall_back_to_invalidating_everything() {
        // Two racing publishers: generation 3's notification reaches the
        // cache before generation 2's.  The cache cannot know what 2
        // changed, so 3 invalidates everything; 2 then changes nothing.
        let mut c = cache(8);
        c.insert(key(0), 1, val(0));
        c.insert(key(1), 1, val(1));
        let mut taken = Vec::new();
        c.publish_users(2, 3, &[0], &mut taken);
        assert!(taken.is_empty());
        assert!(c.get(&key(1), 3).is_none(), "user 1 may have changed at 2");
        c.insert(key(1), 3, val(31));
        c.publish_users(1, 2, &[1], &mut taken);
        assert!(taken.is_empty(), "a passed notification takes nothing");
        assert_eq!(c.get(&key(1), 3), Some(&val(31)));
        // A late full publish cannot lower the floor either.
        c.publish(2);
        assert_eq!(c.get(&key(1), 3), Some(&val(31)));
    }

    #[test]
    fn a_delta_publish_visits_only_the_changed_users_slots() {
        // 1000 users, two keys each; a delta changing 3 of them walks their
        // 6 slots and nothing else, however full the cache is.
        let mut c = cache(4096);
        for u in 0..1000 {
            c.insert(key(u), 1, val(u));
            c.insert(CacheKey::new(u, 3, &[u]), 1, val(u));
        }
        let mut taken = Vec::new();
        c.publish_users(1, 2, &[7, 500, 999], &mut taken);
        assert_eq!(taken.len(), 6);
        assert_eq!(c.slots_visited, 6);
        assert_eq!(c.len(), 1994);
        // A user with nothing cached, and a compaction (no users at all),
        // visit nothing.
        c.publish_users(2, 3, &[5000], &mut taken);
        c.publish_users(3, 4, &[], &mut taken);
        assert_eq!(c.slots_visited, 6);
        assert_eq!(c.get(&key(0), 4), Some(&val(0)));
    }

    #[test]
    fn user_index_survives_eviction_and_slot_reuse() {
        // Slots are evicted and reused under a tight capacity while users
        // keep several keys each; the index must always name exactly the
        // live slots of each user.
        let mut c = cache(5);
        for round in 0..40u32 {
            let user = round % 3;
            c.insert(CacheKey::new(user, round as usize, &[]), 1, val(round));
            for (&u, &first) in &c.users {
                let mut idx = first;
                let mut prev = NIL;
                let mut chained = 0;
                while idx != NIL {
                    assert_eq!(c.slab[idx].key.user, u);
                    assert_eq!(c.slab[idx].user_prev, prev);
                    prev = idx;
                    idx = c.slab[idx].user_next;
                    chained += 1;
                }
                let mapped = c.map.keys().filter(|k| k.user == u).count();
                assert_eq!(chained, mapped, "user {u} in round {round}");
            }
        }
    }

    #[test]
    fn stragglers_from_older_generations_cannot_evict_or_clobber_newer_entries() {
        // An in-flight batch that captured its snapshot before a delta
        // publish races the publish's refresh: its lookups and inserts
        // carry the old generation.  They must neither evict nor overwrite
        // the refreshed (newer-generation) entry.
        let mut c = cache(4);
        let mut taken = Vec::new();
        c.publish_users(1, 2, &[1], &mut taken);
        c.insert(key(1), 2, val(9)); // refreshed at the current generation
        assert_eq!(c.get(&key(1), 1), None, "old-gen lookup misses");
        assert_eq!(c.len(), 1, "newer entry survives the old-gen lookup");
        c.insert(key(1), 1, val(3)); // straggler insert with the old result
        assert_eq!(
            c.get(&key(1), 2),
            Some(&val(9)),
            "newer entry not clobbered"
        );
        // Nor may the straggler land after the refresh took the entry out.
        c.publish_users(2, 3, &[1], &mut taken);
        c.insert(key(1), 2, val(3));
        assert_eq!(c.get(&key(1), 3), None, "old reply served at the new head");
    }

    #[test]
    fn sharded_publish_users_spans_all_shards() {
        let c = sharded(4, 64, usize::MAX);
        for u in 0..32 {
            c.insert(key(u), 1, val(u));
        }
        let changed: Vec<u32> = (0..8).collect();
        let mut taken = c.publish_users(1, 2, &changed);
        taken.sort_by_key(|k| k.user);
        assert_eq!(taken, changed.iter().map(|&u| key(u)).collect::<Vec<_>>());
        for u in 0..8 {
            assert_eq!(c.get(&key(u), 2), None, "changed user {u}");
        }
        for u in 8..32 {
            assert_eq!(c.get(&key(u), 2), Some(val(u)), "retained user {u}");
        }
    }

    #[test]
    fn sharded_cache_totals_and_isolation() {
        let c = sharded(4, 64, 1 << 20);
        assert_eq!(c.shards.len(), 4);
        for u in 0..32 {
            c.insert(key(u), 1, val(u));
        }
        assert_eq!(c.len(), 32);
        assert!(c.bytes() > 0);
        for u in 0..32 {
            assert_eq!(c.get(&key(u), 1), Some(val(u)), "user {u}");
        }
        // A full publish invalidates lazily through the shards too.
        c.publish(2);
        assert_eq!(c.get(&key(0), 2), None);
        assert_eq!(c.len(), 31);
    }

    #[test]
    fn sharded_cache_is_shared_across_threads() {
        let c = std::sync::Arc::new(sharded(8, 1024, usize::MAX));
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..64 {
                        c.insert(key(t * 64 + i), 1, val(i));
                    }
                });
            }
        });
        assert_eq!(c.len(), 256);
    }
}

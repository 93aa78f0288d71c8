//! Topology-aware sharded parameter storage.
//!
//! Nothing in the paper's analysis requires the shared iterate `X` to live
//! in one flat allocation: the adversary model only needs per-entry atomic
//! reads and non-lost `fetch&add`s. At `d = 10M+` a single `Vec<AtomicF64>`
//! leaves locality on the table — every NUMA node and cache slice hammers
//! one arena. This module splits the iterate into contiguous index ranges
//! (*shards*), each backed by its own arena allocation:
//!
//! * [`ShardTopology`] — detected core count and coherency-line size (with
//!   explicit overrides) from which a default shard count is derived;
//! * [`ShardRouter`] — the index→(shard, offset) map: power-of-two chunk
//!   sizes make routing a shift and a mask, with a ragged final shard when
//!   `d` is not a chunk multiple;
//! * [`ShardedVec`] — a generic routed arena container (the sharded twin of
//!   a `Vec<T>`), reused by [`GuardedModel`](crate::GuardedModel) for its
//!   epoch-tagged words;
//! * [`ShardedModel`] — the `AtomicF64` store behind the router, plus one
//!   cache-line-padded update counter per shard. Every applied `fetch&add`
//!   bumps its shard's counter, so the counters are a *measured* per-range
//!   update rate — the per-shard τ a delay-adaptive backend can consume —
//!   and [`ShardedModel::coherent_update_counts`] reads them as an
//!   instantaneous cross-shard vector via double-collect validation. The
//!   serving tier's stats-scrape mirrors these counters into the
//!   process-wide telemetry registry (`asgd-telemetry`) as
//!   `asgd_shard_updates_total{model=…,shard=…}` counters plus a derived
//!   `asgd_shard_update_rate` gauge, and the registry's snapshot uses this
//!   same double-collect protocol;
//! * [`ParamStore`] — the executor-facing enum over the flat
//!   [`SharedModel`] and the sharded store. Enum dispatch costs one
//!   predictable branch next to the atomic op it guards, and spares every
//!   claim loop a generics explosion.
//!
//! Values are bit-identical across stores by construction: routing never
//! changes *which* `AtomicF64` cell an index denotes, only where the cell
//! lives, so a 1-shard `ShardedModel` and a `SharedModel` perform the exact
//! same reads and CAS loops in the exact same order.

use crate::atomic::{AtomicF64, CacheAligned};
use crate::claim::{Apply, Scan};
use crate::model::{SharedModel, UpdateOrder};
use crate::tuning::{ExecTuning, ShardPolicy};
use asgd_oracle::ModelView;
use std::sync::atomic::{AtomicU64, Ordering};

/// Detected (or overridden) machine topology the default shard count is
/// derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTopology {
    /// Available cores (≥ 1).
    pub cores: usize,
    /// Coherency line size in bytes (≥ 8).
    pub cache_line: usize,
}

impl ShardTopology {
    /// Detects the topology: cores from `available_parallelism`, line size
    /// from sysfs on Linux (64 bytes when unreadable — correct for every
    /// current x86-64 part).
    #[must_use]
    pub fn detect() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let cache_line = std::fs::read_to_string(
            "/sys/devices/system/cpu/cpu0/cache/index0/coherency_line_size",
        )
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&b| b >= 8)
        .unwrap_or(64);
        Self { cores, cache_line }
    }

    /// Explicit override of both parameters (clamped to their minima).
    #[must_use]
    pub fn with(cores: usize, cache_line: usize) -> Self {
        Self {
            cores: cores.max(1),
            cache_line: cache_line.max(8),
        }
    }

    /// The default shard count for a `d`-dimensional model: one shard per
    /// core rounded up to a power of two (shift-and-mask routing), but never
    /// so many that a shard would span less than one coherency line of
    /// entries — at tiny `d` sharding cannot beat the padded flat layout and
    /// collapses to a single shard.
    #[must_use]
    pub fn auto_shards(&self, d: usize) -> usize {
        let per_line = (self.cache_line / std::mem::size_of::<f64>()).max(1);
        let max_shards = (d / per_line).max(1);
        // Round the cap *down* to a power of two so every shard keeps at
        // least a line of entries.
        let cap = if max_shards.is_power_of_two() {
            max_shards
        } else {
            max_shards.next_power_of_two() / 2
        };
        self.cores.next_power_of_two().min(cap)
    }
}

/// The index→(shard, offset) map.
///
/// Chunk sizes are powers of two, so routing entry `j` is `j >> shift` and
/// `j & mask` — no table, no branch, no search — with the final shard
/// allowed to be ragged (shorter than the chunk) when `d` is not a multiple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRouter {
    /// `log2` of the chunk size.
    shift: u32,
    /// `chunk − 1`, the offset mask.
    mask: usize,
    /// Shard count (= `ceil(d / chunk)`).
    shards: usize,
    /// Total dimension.
    d: usize,
}

impl ShardRouter {
    /// A router splitting `d` entries into at most `shards` chunks (clamped
    /// to `1..=d`). The chunk is `ceil(d / shards)` rounded up to a power of
    /// two, so the realised shard count can be lower than requested when
    /// rounding swallows a chunk; the last shard is ragged when `d` is not a
    /// chunk multiple.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[must_use]
    pub fn pow2(d: usize, shards: usize) -> Self {
        assert!(d > 0, "cannot route an empty model");
        let shards = shards.clamp(1, d);
        let chunk = d.div_ceil(shards).next_power_of_two();
        Self {
            shift: chunk.trailing_zeros(),
            mask: chunk - 1,
            shards: d.div_ceil(chunk),
            d,
        }
    }

    /// Total dimension routed.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.d
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Routes entry `j` to `(shard, offset)`.
    ///
    /// # Panics
    ///
    /// May return an out-of-range shard if `j ≥ d`; arena lookups
    /// bounds-check downstream.
    #[inline]
    #[must_use]
    pub fn route(&self, j: usize) -> (usize, usize) {
        (j >> self.shift, j & self.mask)
    }

    /// The index range shard `s` covers.
    ///
    /// # Panics
    ///
    /// Panics if `s ≥ shard_count()`.
    #[must_use]
    pub fn range(&self, s: usize) -> std::ops::Range<usize> {
        assert!(s < self.shards, "shard {s} out of range");
        (s << self.shift)..(((s + 1) << self.shift).min(self.d))
    }
}

/// A `Vec<T>` split into per-shard arena allocations behind a
/// [`ShardRouter`]. Indexing cost is one route plus one bounds-checked
/// arena access; iteration walks the shards in index order.
#[derive(Debug)]
pub struct ShardedVec<T> {
    router: ShardRouter,
    arenas: Vec<Box<[T]>>,
}

impl<T> ShardedVec<T> {
    /// Builds the container, initialising entry `j` with `init(j)` (arenas
    /// are filled shard by shard, i.e. in index order).
    #[must_use]
    pub fn from_fn(router: ShardRouter, mut init: impl FnMut(usize) -> T) -> Self {
        let arenas = (0..router.shard_count())
            .map(|s| router.range(s).map(&mut init).collect())
            .collect();
        Self { router, arenas }
    }

    /// Total element count.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.router.dimension()
    }

    /// The routing map.
    #[must_use]
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Routed access to entry `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j ≥ dimension()`.
    #[inline]
    #[must_use]
    pub fn get(&self, j: usize) -> &T {
        let (s, off) = self.router.route(j);
        &self.arenas[s][off]
    }

    /// One shard's contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn shard(&self, s: usize) -> &[T] {
        &self.arenas[s]
    }

    /// All entries in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.arenas.iter().flat_map(|a| a.iter())
    }
}

/// How many times [`ShardedModel::coherent_update_counts`] re-collects
/// before settling for the (still per-entry-atomic) last collect.
const COHERENT_RETRIES: usize = 16;

/// The sharded `AtomicF64` parameter store: per-shard arenas behind a
/// [`ShardRouter`], plus one cache-line-padded update counter per shard.
///
/// Access semantics are identical to [`SharedModel`] — per-entry atomic
/// reads, CAS-loop `fetch&add` — with one addition: every applied
/// `fetch&add` bumps its shard's counter (relaxed; the counter is a
/// monotone progress observation, not a synchronisation edge). The counters
/// are the measured per-range update rate τ.
#[derive(Debug)]
pub struct ShardedModel {
    entries: ShardedVec<AtomicF64>,
    counters: Vec<CacheAligned<AtomicU64>>,
    order: UpdateOrder,
}

impl ShardedModel {
    /// Creates a store initialised to `x0` with at most `shards` power-of-two
    /// chunked ranges, routed shift-and-mask (see [`ShardRouter::pow2`]).
    /// Chunk rounding can realise fewer shards than requested;
    /// [`ShardedModel::shard_count`] reports the realised count.
    ///
    /// # Panics
    ///
    /// Panics if `x0` is empty.
    #[must_use]
    pub fn with_options(x0: &[f64], shards: usize, order: UpdateOrder) -> Self {
        Self::from_router(ShardRouter::pow2(x0.len(), shards), order, |j| x0[j])
    }

    /// A zero store of dimension `d` (power-of-two chunked, like
    /// [`ShardedModel::with_options`]), without materialising a temporary
    /// `vec![0.0; d]`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[must_use]
    pub fn zeros_with(d: usize, shards: usize, order: UpdateOrder) -> Self {
        Self::from_router(ShardRouter::pow2(d, shards), order, |_| 0.0)
    }

    fn from_router(router: ShardRouter, order: UpdateOrder, init: impl Fn(usize) -> f64) -> Self {
        let entries = ShardedVec::from_fn(router, |j| AtomicF64::new(init(j)));
        let counters = (0..entries.router().shard_count())
            .map(|_| CacheAligned(AtomicU64::new(0)))
            .collect();
        Self {
            entries,
            counters,
            order,
        }
    }

    /// Model dimension `d`.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.entries.dimension()
    }

    /// The routing map.
    #[must_use]
    pub fn router(&self) -> &ShardRouter {
        self.entries.router()
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.counters.len()
    }

    /// The update ordering this store was built with.
    #[must_use]
    pub fn order(&self) -> UpdateOrder {
        self.order
    }

    /// Atomically reads entry `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    #[inline]
    #[must_use]
    pub fn read(&self, j: usize) -> f64 {
        let e = self.entries.get(j);
        match self.order {
            UpdateOrder::SeqCst => e.load(),
            UpdateOrder::Relaxed => e.load_relaxed(),
        }
    }

    /// Entry-by-entry inconsistent view scan, walking the shards in index
    /// order (identical read order to the flat store's scan).
    ///
    /// # Panics
    ///
    /// Panics if `view.len() != d`.
    pub fn read_view(&self, view: &mut [f64]) {
        assert_eq!(view.len(), self.dimension(), "view dimension mismatch");
        let mut at = 0;
        for s in 0..self.shard_count() {
            for e in self.entries.shard(s) {
                view[at] = match self.order {
                    UpdateOrder::SeqCst => e.load(),
                    UpdateOrder::Relaxed => e.load_relaxed(),
                };
                at += 1;
            }
        }
    }

    /// Atomic `fetch&add` on entry `j`, returning the prior value and
    /// bumping the owning shard's update counter.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    #[inline]
    pub fn fetch_add(&self, j: usize, delta: f64) -> f64 {
        let (s, prev) = self.fetch_add_uncounted(j, delta);
        self.counters[s].0.fetch_add(1, Ordering::Relaxed);
        prev
    }

    /// Atomic `fetch&add` on entry `j` *without* bumping the shard counter,
    /// returning the owning shard and the prior value.
    ///
    /// The building block for [`StoreWriter`]'s batched accounting: the
    /// counter bump is a second lock-prefixed RMW next to the entry CAS and
    /// roughly doubles the cost of a cache-hot sparse update, so hot claim
    /// loops count locally and credit shards in bulk. Callers take on the
    /// obligation to [`credit_updates`](ShardedModel::credit_updates) the
    /// returned shard, or the counters undercount forever.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    #[inline]
    pub fn fetch_add_uncounted(&self, j: usize, delta: f64) -> (usize, f64) {
        let (s, off) = self.entries.router().route(j);
        let e = &self.entries.shard(s)[off];
        let prev = match self.order {
            UpdateOrder::SeqCst => e.fetch_add(delta),
            UpdateOrder::Relaxed => e.fetch_add_relaxed(delta),
        };
        (s, prev)
    }

    /// Credits `n` applied updates to shard `s`'s counter in one atomic add
    /// — the flush half of [`StoreWriter`]'s batched accounting.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn credit_updates(&self, s: usize, n: u64) {
        self.counters[s].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Atomically overwrites entry `j` (epoch initialisation only — not an
    /// SGD update, so the shard counter is untouched).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn write(&self, j: usize, value: f64) {
        self.entries.get(j).store(value);
    }

    /// Snapshots the store into a fresh vector (see
    /// [`SharedModel::snapshot`] for the consistency caveat).
    #[must_use]
    pub fn snapshot(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.dimension()];
        self.read_view(&mut out);
        out
    }

    /// Updates applied to shard `s` so far (monotone, relaxed read).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn shard_updates(&self, s: usize) -> u64 {
        self.counters[s].0.load(Ordering::Relaxed)
    }

    /// Total updates applied across all shards (sum of per-shard counters;
    /// each counter read is atomic, the sum is not an instantaneous state —
    /// use [`ShardedModel::coherent_update_counts`] for that).
    #[must_use]
    pub fn total_updates(&self) -> u64 {
        self.counters
            .iter()
            .map(|c| c.0.load(Ordering::Acquire))
            .sum()
    }

    /// Reads the per-shard update counters as an *instantaneous* vector via
    /// double-collect validation: collect all counters, collect again — if
    /// the two collects are equal, no counter moved between its two reads,
    /// so (counters being monotone) the vector is a state the store actually
    /// passed through. Retries a bounded number of times under churn and
    /// then returns `false` with the last collect (each entry still
    /// individually atomic, the cross-shard cut possibly torn).
    ///
    /// This is the read side snapshot tagging needs: summing a torn collect
    /// can attribute updates to a progress tag that never existed. The
    /// protocol (and a seeded split-read twin) is model-checked in
    /// `asgd-chaos` (`ShardedCounterModel`).
    pub fn coherent_update_counts(&self, out: &mut Vec<u64>) -> bool {
        let n = self.shard_count();
        out.clear();
        out.extend((0..n).map(|s| self.counters[s].0.load(Ordering::Acquire)));
        for _ in 0..COHERENT_RETRIES {
            let mut stable = true;
            for (seen, counter) in out.iter_mut().zip(&self.counters) {
                let again = counter.0.load(Ordering::Acquire);
                if again != *seen {
                    *seen = again;
                    stable = false;
                }
            }
            if stable {
                return true;
            }
        }
        false
    }
}

/// Per-entry reads for sparse oracles — one atomic load per call, routed.
impl ModelView for ShardedModel {
    fn dimension(&self) -> usize {
        self.dimension()
    }

    fn entry(&self, j: usize) -> f64 {
        self.read(j)
    }
}

/// The executor-facing parameter store: flat or sharded, one type.
///
/// Native claim loops hold a `ParamStore` and stay oblivious to the storage
/// topology; the enum dispatch is a predictable branch next to an atomic
/// operation that costs an order of magnitude more. Constructed from
/// [`ExecTuning`] so every executor resolves the shard policy identically.
#[derive(Debug)]
pub enum ParamStore {
    /// The flat store (compact or padded layout).
    Flat(SharedModel),
    /// The sharded store.
    Sharded(ShardedModel),
}

impl ParamStore {
    /// Builds the store `tuning` asks for, initialised to `x0`.
    ///
    /// # Panics
    ///
    /// Panics if `x0` is empty and sharding was requested.
    #[must_use]
    pub fn with_tuning(x0: &[f64], tuning: &ExecTuning) -> Self {
        match tuning.shards.resolve(x0.len()) {
            None => Self::Flat(SharedModel::with_options(x0, tuning.layout, tuning.order)),
            Some(shards) => Self::Sharded(ShardedModel::with_options(x0, shards, tuning.order)),
        }
    }

    /// A zero store of dimension `d` per `tuning`, without a temporary
    /// `vec![0.0; d]`.
    #[must_use]
    pub fn zeros_with_tuning(d: usize, tuning: &ExecTuning) -> Self {
        match tuning.shards.resolve(d) {
            None => Self::Flat(SharedModel::zeros_with(d, tuning.layout, tuning.order)),
            Some(shards) => Self::Sharded(ShardedModel::zeros_with(d, shards, tuning.order)),
        }
    }

    /// Model dimension `d`.
    #[must_use]
    pub fn dimension(&self) -> usize {
        match self {
            Self::Flat(m) => m.dimension(),
            Self::Sharded(m) => m.dimension(),
        }
    }

    /// Shard count (1 for the flat store).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        match self {
            Self::Flat(_) => 1,
            Self::Sharded(m) => m.shard_count(),
        }
    }

    /// The sharded store, when this is one.
    #[must_use]
    pub fn sharded(&self) -> Option<&ShardedModel> {
        match self {
            Self::Flat(_) => None,
            Self::Sharded(m) => Some(m),
        }
    }

    /// Atomically reads entry `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    #[inline]
    #[must_use]
    pub fn read(&self, j: usize) -> f64 {
        match self {
            Self::Flat(m) => m.read(j),
            Self::Sharded(m) => m.read(j),
        }
    }

    /// Entry-by-entry inconsistent view scan (Algorithm 1 line 4).
    ///
    /// # Panics
    ///
    /// Panics if `view.len() != d`.
    pub fn read_view(&self, view: &mut [f64]) {
        match self {
            Self::Flat(m) => m.read_view(view),
            Self::Sharded(m) => m.read_view(view),
        }
    }

    /// Atomic `fetch&add` on entry `j`, returning the prior value.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    #[inline]
    pub fn fetch_add(&self, j: usize, delta: f64) -> f64 {
        match self {
            Self::Flat(m) => m.fetch_add(j, delta),
            Self::Sharded(m) => m.fetch_add(j, delta),
        }
    }

    /// Atomically overwrites entry `j` (epoch initialisation only).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn write(&self, j: usize, value: f64) {
        match self {
            Self::Flat(m) => m.write(j, value),
            Self::Sharded(m) => m.write(j, value),
        }
    }

    /// Snapshots the store into a fresh vector.
    #[must_use]
    pub fn snapshot(&self) -> Vec<f64> {
        match self {
            Self::Flat(m) => m.snapshot(),
            Self::Sharded(m) => m.snapshot(),
        }
    }
}

/// Per-entry reads for sparse oracles — one atomic load per call.
impl ModelView for ParamStore {
    fn dimension(&self) -> usize {
        self.dimension()
    }

    fn entry(&self, j: usize) -> f64 {
        self.read(j)
    }
}

/// The store's own view scan walks arenas in index order without routing
/// each entry.
impl Scan for ParamStore {
    fn read_view(&self, view: &mut [f64]) {
        ParamStore::read_view(self, view);
    }
}

/// Updates a [`StoreWriter`] buffers before crediting shard counters in
/// bulk. Mid-run counter observations therefore lag the applied updates by
/// at most `COUNTER_FLUSH − 1` per worker — a bounded, monotone skew that
/// observability reads (`ModelReader::shard_updates`, snapshot progress
/// tags) absorb by design; quiescent totals are exact because every writer
/// flushes on drop.
const COUNTER_FLUSH: u32 = 64;

/// A per-worker write handle over a [`ParamStore`] that batches shard
/// counter bumps.
///
/// [`ShardedModel::fetch_add`] pays a second lock-prefixed RMW (the shard
/// counter) next to every entry CAS — measurable against the flat store on
/// the O(Δ) sparse path, where the entry CAS is the whole iteration. Claim
/// loops instead route updates through a `StoreWriter`: entries update
/// atomically as always, while counts accumulate in a plain local table
/// credited to the shared counters every `COUNTER_FLUSH` (64) updates and on
/// drop. Values are untouched — bit-identity across stores is unaffected —
/// and counters stay monotone with bounded lag, exact at quiescence.
///
/// For a flat store the writer is a zero-cost passthrough.
#[derive(Debug)]
pub struct StoreWriter<'a> {
    store: &'a ParamStore,
    /// Locally accumulated per-shard bump counts (empty for flat stores).
    pending: Vec<u32>,
    /// Total buffered bumps since the last flush.
    buffered: u32,
}

impl<'a> StoreWriter<'a> {
    /// A writer over `store`.
    #[must_use]
    pub fn new(store: &'a ParamStore) -> Self {
        let shards = match store {
            ParamStore::Flat(_) => 0,
            ParamStore::Sharded(m) => m.shard_count(),
        };
        Self {
            store,
            pending: vec![0; shards],
            buffered: 0,
        }
    }

    /// Atomic `fetch&add` on entry `j`, returning the prior value; the
    /// shard counter credit is buffered.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    #[inline]
    pub fn fetch_add(&mut self, j: usize, delta: f64) -> f64 {
        match self.store {
            ParamStore::Flat(m) => m.fetch_add(j, delta),
            ParamStore::Sharded(m) => {
                let (s, prev) = m.fetch_add_uncounted(j, delta);
                self.pending[s] += 1;
                self.buffered += 1;
                if self.buffered >= COUNTER_FLUSH {
                    self.flush();
                }
                prev
            }
        }
    }

    /// Credits every buffered bump to its shard's counter now.
    pub fn flush(&mut self) {
        if self.buffered == 0 {
            return;
        }
        if let ParamStore::Sharded(m) = self.store {
            for (s, n) in self.pending.iter_mut().enumerate() {
                if *n > 0 {
                    m.credit_updates(s, u64::from(*n));
                    *n = 0;
                }
            }
        }
        self.buffered = 0;
    }
}

impl Drop for StoreWriter<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// The lock-free apply policy: one `fetch&add` per entry, shard credits
/// batched.
impl Apply for StoreWriter<'_> {
    type Model = ParamStore;

    fn model(&self) -> &ParamStore {
        self.store
    }

    #[inline]
    fn add(&mut self, j: usize, delta: f64) {
        self.fetch_add(j, delta);
    }
}

impl ShardPolicy {
    /// Resolves the policy to a *requested* shard count for a
    /// `d`-dimensional model: `None` keeps the flat store, `Some(n)` builds
    /// a sharded one with at most `n` power-of-two chunks (clamped to
    /// `1..=d`; chunk rounding can realise fewer — see
    /// [`ShardRouter::pow2`]).
    #[must_use]
    pub fn resolve(self, d: usize) -> Option<usize> {
        match self {
            Self::Flat => None,
            Self::Auto => Some(ShardTopology::detect().auto_shards(d)),
            Self::Fixed(n) => Some(n.clamp(1, d.max(1))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelLayout;

    #[test]
    fn topology_detection_and_overrides() {
        let t = ShardTopology::detect();
        assert!(t.cores >= 1);
        assert!(t.cache_line >= 8);
        let o = ShardTopology::with(0, 0);
        assert_eq!((o.cores, o.cache_line), (1, 8));
    }

    #[test]
    fn auto_shards_respects_dimension_and_cores() {
        let t = ShardTopology::with(8, 64);
        assert_eq!(t.auto_shards(1 << 20), 8, "plenty of entries: one/core");
        assert_eq!(t.auto_shards(4), 1, "d below one line: single shard");
        assert_eq!(t.auto_shards(17), 2, "17 entries = 2 full lines");
        let many = ShardTopology::with(6, 64);
        assert_eq!(many.auto_shards(1 << 20), 8, "cores round up to pow2");
    }

    #[test]
    fn pow2_router_routes_every_index_to_its_range() {
        for (d, shards) in [(16, 4), (100, 4), (1, 1), (10, 3), (1 << 20, 8)] {
            let r = ShardRouter::pow2(d, shards);
            assert_eq!(r.dimension(), d);
            let n = r.shard_count();
            assert!(n >= 1 && n <= shards, "d={d} requested={shards} got={n}");
            let mut covered = 0;
            for s in 0..n {
                let range = r.range(s);
                assert_eq!(range.start, covered, "ranges contiguous");
                assert!(!range.is_empty(), "shard {s} empty at d={d}");
                for j in range.clone() {
                    assert_eq!(r.route(j), (s, j - range.start), "d={d} j={j}");
                }
                covered = range.end;
            }
            assert_eq!(covered, d, "ranges cover the dimension");
        }
    }

    #[test]
    fn sharded_vec_orders_entries_like_a_flat_vec() {
        let r = ShardRouter::pow2(11, 3);
        assert_eq!(r.range(2), 8..11, "last shard ragged");
        let v = ShardedVec::from_fn(r, |j| j * 10);
        assert_eq!(v.dimension(), 11);
        for j in 0..11 {
            assert_eq!(*v.get(j), j * 10);
        }
        let flat: Vec<usize> = v.iter().copied().collect();
        assert_eq!(flat, (0..11).map(|j| j * 10).collect::<Vec<_>>());
    }

    #[test]
    fn sharded_model_matches_flat_semantics() {
        let x0: Vec<f64> = (0..37).map(|j| f64::from(j as u32) - 18.0).collect();
        for shards in [1, 2, 3, 8] {
            for order in [UpdateOrder::SeqCst, UpdateOrder::Relaxed] {
                let flat = SharedModel::with_options(&x0, ModelLayout::Compact, order);
                let sharded = ShardedModel::with_options(&x0, shards, order);
                assert_eq!(sharded.order(), order);
                for j in 0..x0.len() {
                    assert_eq!(
                        flat.fetch_add(j, 0.25).to_bits(),
                        sharded.fetch_add(j, 0.25).to_bits()
                    );
                }
                flat.write(5, -1.0);
                sharded.write(5, -1.0);
                let (a, b) = (flat.snapshot(), sharded.snapshot());
                for (j, (x, y)) in a.iter().zip(&b).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "entry {j} ({shards} shards)");
                }
                let mut view = vec![0.0; x0.len()];
                sharded.read_view(&mut view);
                assert_eq!(view, b);
            }
        }
    }

    #[test]
    fn per_shard_counters_track_applied_updates() {
        let m = ShardedModel::zeros_with(16, 4, UpdateOrder::SeqCst);
        assert_eq!(m.shard_count(), 4);
        m.fetch_add(0, 1.0);
        m.fetch_add(3, 1.0);
        m.fetch_add(4, 1.0);
        m.fetch_add(15, 1.0);
        m.write(8, 9.0); // writes are init, not updates
        assert_eq!(m.shard_updates(0), 2);
        assert_eq!(m.shard_updates(1), 1);
        assert_eq!(m.shard_updates(2), 0);
        assert_eq!(m.shard_updates(3), 1);
        assert_eq!(m.total_updates(), 4);
        let mut counts = Vec::new();
        assert!(m.coherent_update_counts(&mut counts), "quiescent: coherent");
        assert_eq!(counts, vec![2, 1, 0, 1]);
    }

    #[test]
    fn coherent_counts_are_instantaneous_under_churn() {
        use std::sync::atomic::AtomicBool;
        let m = ShardedModel::zeros_with(64, 4, UpdateOrder::SeqCst);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut j = 0;
                while !stop.load(Ordering::Relaxed) {
                    m.fetch_add(j % 64, 1.0);
                    j += 1;
                }
            });
            let mut counts = Vec::new();
            for _ in 0..200 {
                let coherent = m.coherent_update_counts(&mut counts);
                assert_eq!(counts.len(), 4);
                // A validated collect's total can never exceed a later total
                // (monotonicity of an instantaneous state).
                if coherent {
                    let total: u64 = counts.iter().sum();
                    assert!(total <= m.total_updates());
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn store_writer_batches_counter_credits_and_flushes_on_drop() {
        let x0 = vec![0.0; 16];
        let tuning = ExecTuning {
            shards: ShardPolicy::Fixed(4),
            ..ExecTuning::default()
        };
        let store = ParamStore::with_tuning(&x0, &tuning);
        let sharded = store.sharded().expect("sharded store");
        {
            let mut w = StoreWriter::new(&store);
            // Values land immediately; counter credits are buffered.
            assert_eq!(w.fetch_add(0, 1.0), 0.0);
            assert_eq!(w.fetch_add(0, 1.0), 1.0);
            assert_eq!(w.fetch_add(15, 2.0), 0.0);
            assert_eq!(store.read(0), 2.0);
            assert_eq!(store.read(15), 2.0);
            assert_eq!(sharded.total_updates(), 0, "credits still buffered");
            w.flush();
            assert_eq!(sharded.shard_updates(0), 2);
            assert_eq!(sharded.shard_updates(3), 1);
            w.fetch_add(4, 1.0);
            // Dropped without an explicit flush: the drop flushes.
        }
        assert_eq!(sharded.shard_updates(1), 1);
        assert_eq!(sharded.total_updates(), 4);
    }

    #[test]
    fn store_writer_crosses_the_flush_threshold_mid_stream() {
        let store = ParamStore::Sharded(ShardedModel::zeros_with(8, 2, UpdateOrder::SeqCst));
        let sharded = store.sharded().unwrap();
        let mut w = StoreWriter::new(&store);
        for i in 0..200 {
            w.fetch_add(i % 8, 1.0);
        }
        // 200 = 3 × 64 + 8: three threshold flushes have happened, the tail
        // is still buffered — mid-run observations lag by less than one
        // flush window.
        assert_eq!(sharded.total_updates(), 192);
        drop(w);
        assert_eq!(sharded.total_updates(), 200);
        assert_eq!(sharded.shard_updates(0), 100);
        assert_eq!(sharded.shard_updates(1), 100);
    }

    #[test]
    fn store_writer_is_a_passthrough_for_flat_stores() {
        let store = ParamStore::Flat(SharedModel::zeros(4));
        let mut w = StoreWriter::new(&store);
        assert_eq!(w.fetch_add(2, 3.0), 0.0);
        w.flush();
        assert_eq!(store.read(2), 3.0);
    }

    #[test]
    fn param_store_dispatches_both_variants() {
        let x0 = [1.0, 2.0, 3.0, 4.0];
        let tuning = ExecTuning::default();
        let flat = ParamStore::with_tuning(&x0, &tuning);
        assert!(flat.sharded().is_none());
        assert_eq!(flat.shard_count(), 1);
        let sharded = ParamStore::with_tuning(
            &x0,
            &ExecTuning {
                shards: ShardPolicy::Fixed(2),
                ..tuning
            },
        );
        assert_eq!(sharded.shard_count(), 2);
        assert!(sharded.sharded().is_some());
        for store in [&flat, &sharded] {
            assert_eq!(store.dimension(), 4);
            assert_eq!(store.read(2), 3.0);
            assert_eq!(store.fetch_add(2, 1.0), 3.0);
            store.write(0, 0.5);
            let mut view = vec![0.0; 4];
            store.read_view(&mut view);
            assert_eq!(view, store.snapshot());
            let view_ref: &dyn ModelView = store;
            assert_eq!(view_ref.entry(1), 2.0);
        }
        let zeros = ParamStore::zeros_with_tuning(
            6,
            &ExecTuning {
                shards: ShardPolicy::Fixed(3),
                ..tuning
            },
        );
        assert_eq!(zeros.snapshot(), vec![0.0; 6]);
    }

    #[test]
    fn dist_sq_streams_bit_identically_to_the_dense_scan() {
        let x0: Vec<f64> = (0..23).map(|j| (f64::from(j as u32)).sin()).collect();
        let y: Vec<f64> = (0..23).map(|j| (f64::from(j as u32)).cos()).collect();
        let store = ParamStore::with_tuning(
            &x0,
            &ExecTuning {
                shards: ShardPolicy::Fixed(5),
                ..ExecTuning::default()
            },
        );
        let mut view = vec![0.0; 23];
        store.read_view(&mut view);
        let dense = asgd_math::vec::l2_dist_sq(&view, &y);
        assert_eq!(store.dist_sq_to(&y).to_bits(), dense.to_bits());
    }

    #[test]
    fn shard_policy_resolution() {
        assert_eq!(ShardPolicy::Flat.resolve(1 << 20), None);
        assert_eq!(ShardPolicy::Fixed(4).resolve(1 << 20), Some(4));
        assert_eq!(ShardPolicy::Fixed(0).resolve(8), Some(1), "clamps up");
        assert_eq!(ShardPolicy::Fixed(64).resolve(8), Some(8), "clamps to d");
        let auto = ShardPolicy::Auto.resolve(1 << 20).expect("auto shards");
        assert!(auto >= 1 && auto.is_power_of_two());
    }

    #[test]
    fn one_shard_store_is_bit_identical_to_flat_under_concurrency() {
        // Same claim schedule isn't needed: with powers of two every
        // interleaving produces the same exact sum per entry.
        let flat = SharedModel::zeros(8);
        let sharded = ShardedModel::zeros_with(8, 1, UpdateOrder::SeqCst);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (flat, sharded) = (&flat, &sharded);
                s.spawn(move || {
                    let delta = 2.0_f64.powi(t);
                    for j in 0..8 {
                        for _ in 0..1000 {
                            flat.fetch_add(j, delta);
                            sharded.fetch_add(j, delta);
                        }
                    }
                });
            }
        });
        for j in 0..8 {
            assert_eq!(flat.read(j).to_bits(), sharded.read(j).to_bits());
        }
        assert_eq!(sharded.total_updates(), 4 * 8 * 1000);
    }
}

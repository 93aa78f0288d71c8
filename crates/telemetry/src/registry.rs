//! The lock-free [`MetricsRegistry`]: monotone counters, gauges, and
//! [`Histogram`]s, all with cache-line-padded per-thread cells.
//!
//! Hot-path updates never take a lock: every thread is assigned a stripe
//! once (a process-wide monotone id, folded modulo [`STRIPES`]) and bumps
//! its own cache-line-padded `AtomicU64` cell with relaxed ordering, so
//! concurrent writers on different cores never bounce a line — the same
//! layout discipline as `ShardedModel`'s per-shard update counters.
//! Registration (the first `counter("name")` call for a name) takes a short
//! mutex; the returned handles are `Arc`s callers keep, so steady state is
//! lock-free.
//!
//! Collection is *validated*: [`MetricsRegistry::snapshot`] double-collects
//! every monotone cell (counter stripes and every histogram cell) and
//! only flags the snapshot `coherent` when two consecutive collects agree —
//! the registry-wide generalisation of
//! `ShardedModel::coherent_update_counts`, model-checked in `asgd-chaos`
//! (`TelemetryCellModel`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use asgd_metrics::histogram::{bucket_of, Histogram, BUCKETS};

/// Number of padded cells each counter/histogram stripes its updates over.
/// Threads beyond this many share cells (correctness is unaffected — cells
/// are atomic — only isolation degrades).
pub const STRIPES: usize = 16;

/// How many times a validated collect re-reads before settling for the
/// (possibly torn) last collect — mirrors `ShardedModel`'s retry bound.
const COHERENT_RETRIES: usize = 16;

/// One cache line of its own for every stripe cell: concurrent writers on
/// different stripes never share a coherency line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedCell(AtomicU64);

/// Process-wide monotone thread ids, folded into stripe indices.
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// The calling thread's stripe index (assigned once per thread, stable for
/// the thread's lifetime).
#[must_use]
pub fn thread_stripe() -> usize {
    STRIPE.with(|s| *s)
}

/// A monotone counter striped over [`STRIPES`] padded cells. `add` is one
/// relaxed `fetch_add` on the caller's own cell; `value` sums the stripes
/// (each read atomic, the sum monotone but not an instantaneous cut — use
/// [`MetricsRegistry::snapshot`] for a validated cut).
#[derive(Debug, Default)]
pub struct Counter {
    cells: [PaddedCell; STRIPES],
}

impl Counter {
    /// Adds `n` to the calling thread's stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[thread_stripe()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the calling thread's stripe.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across all stripes (monotone; relaxed per-cell reads).
    #[must_use]
    pub fn value(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Acquire)).sum()
    }

    /// Overwrites the total: the calling thread's stripe absorbs the
    /// difference to `v` when `v` is ahead of the current sum (a *set* that
    /// would run the counter backwards is ignored — counters are monotone).
    /// Used to mirror externally-maintained monotone counters (e.g. shedder
    /// totals) into the registry at scrape time.
    pub fn record_total(&self, v: u64) {
        let now = self.value();
        if v > now {
            self.add(v - now);
        }
    }
}

/// A last-write-wins gauge holding one `f64` (stored as IEEE-754 bits in an
/// `AtomicU64`). Gauges move both ways, so they carry no stripes and take
/// no part in coherence validation. All-zero bits are `0.0`.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// One stripe of a [`StripedHistogram`]: the sum, min and max on a cache
/// line of their own, then one counter per [`Histogram`] bucket.
#[repr(align(64))]
#[derive(Debug)]
struct HistStripe {
    head: StripeHead,
    buckets: [AtomicU64; BUCKETS],
}

#[repr(align(64))]
#[derive(Debug)]
struct StripeHead {
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A lock-free [`Histogram`] over `u64` observations (latencies in
/// nanoseconds, staleness in iterations): the same log-linear buckets
/// (see its [precision](asgd_metrics::histogram#precision) notes), striped
/// over [`STRIPES`] padded per-thread cells. `record` is two atomic adds
/// on the caller's stripe, plus a min/max update when the value extends
/// the stripe's range.
#[derive(Debug)]
pub struct StripedHistogram {
    stripes: Box<[HistStripe]>,
}

impl Default for StripedHistogram {
    fn default() -> Self {
        let stripe = || HistStripe {
            head: StripeHead {
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            },
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        };
        Self {
            stripes: (0..STRIPES).map(|_| stripe()).collect(),
        }
    }
}

impl StripedHistogram {
    /// Records one observation on the calling thread's stripe.
    ///
    /// The min and max move before the bucket count, and the count is a
    /// release: a reader that sees the count also sees a min and max that
    /// cover the value.
    #[inline]
    pub fn record(&self, v: u64) {
        let s = &self.stripes[thread_stripe()];
        if v < s.head.min.load(Ordering::Relaxed) {
            s.head.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > s.head.max.load(Ordering::Relaxed) {
            s.head.max.fetch_max(v, Ordering::Relaxed);
        }
        s.buckets[bucket_of(v)].fetch_add(1, Ordering::Release);
        s.head.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total observations across all stripes (the bucket counts summed).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.stripes
            .iter()
            .flat_map(|s| &s.buckets)
            .map(|c| c.load(Ordering::Acquire))
            .sum()
    }

    /// Sum of all observations across all stripes (wrapping, like the
    /// underlying atomic adds).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.head.sum.load(Ordering::Acquire))
            .fold(0, u64::wrapping_add)
    }

    /// A point-in-time [`Histogram`] (per-cell atomic reads, not
    /// validated). Each stripe's buckets are read before its min and max,
    /// so the min and max bound every counted value. A stripe whose min is
    /// still above its max has counted nothing yet, and is skipped.
    #[must_use]
    pub fn snapshot(&self) -> Histogram {
        let mut counts = vec![0u64; BUCKETS];
        let (mut sum, mut min, mut max) = (0u128, u64::MAX, 0u64);
        for s in self.stripes.iter() {
            if s.head.min.load(Ordering::Acquire) > s.head.max.load(Ordering::Acquire) {
                continue;
            }
            for (acc, cell) in counts.iter_mut().zip(&s.buckets) {
                *acc += cell.load(Ordering::Acquire);
            }
            sum += u128::from(s.head.sum.load(Ordering::Acquire));
            min = min.min(s.head.min.load(Ordering::Acquire));
            max = max.max(s.head.max.load(Ordering::Acquire));
        }
        Histogram::from_parts(counts, sum, min, max)
    }
}

/// A validated point-in-time view of every registered metric, renderable to
/// (and parseable back from) the Prometheus text exposition format.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// True when the double-collect validated: no monotone cell moved
    /// between the two collects, so the counters and histograms are an
    /// instantaneous cross-metric state. Gauges are always last-write.
    pub coherent: bool,
    /// `(name, total)` per counter, in name order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge, in name order.
    pub gauges: Vec<(String, f64)>,
    /// `(name, state)` per histogram, in name order.
    pub histograms: Vec<(String, Histogram)>,
}

/// The metric maps behind one registration mutex. Updates never touch the
/// mutex — handles are `Arc`s handed out at registration.
#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<StripedHistogram>>,
}

/// A registry of named metrics with lock-free updates and validated
/// coherent collection.
///
/// Metric names may carry a Prometheus label block
/// (`asgd_shard_updates{model="m",shard="3"}`); the registry treats the
/// whole string as the key and the exposition renderer emits it verbatim.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

/// Recovers a poisoned registration lock (metric maps are always valid —
/// a panicking registrant leaves them registered, never torn).
fn lock_inner(m: &Mutex<Inner>) -> std::sync::MutexGuard<'_, Inner> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The metric named `name` in `map`, created on first use.
fn entry<T: Default>(map: &mut BTreeMap<String, Arc<T>>, name: &str) -> Arc<T> {
    Arc::clone(map.entry(name.to_string()).or_default())
}

/// Every `(name, handle)` in `map`, cloned.
fn handles<T>(map: &BTreeMap<String, Arc<T>>) -> Vec<(String, Arc<T>)> {
    map.iter()
        .map(|(k, v)| (k.clone(), Arc::clone(v)))
        .collect()
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        entry(&mut lock_inner(&self.inner).counters, name)
    }

    /// The gauge named `name`, created on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        entry(&mut lock_inner(&self.inner).gauges, name)
    }

    /// The histogram named `name`, created on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<StripedHistogram> {
        entry(&mut lock_inner(&self.inner).histograms, name)
    }

    /// A validated snapshot of every registered metric.
    ///
    /// Collects every monotone cell (counter stripes, histogram buckets,
    /// sums, mins and maxes), then re-collects: equal collects mean no
    /// metric moved between the two passes, so the snapshot is an
    /// instantaneous state the registry actually passed through
    /// (`coherent = true`). Under churn the
    /// collect retries a bounded number of times and then returns the last
    /// (per-cell-atomic, possibly torn) collect flagged `coherent = false`.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        // Handles cloned under the lock; the collects below are lock-free.
        let (counters, gauges, histograms) = {
            let inner = lock_inner(&self.inner);
            (
                handles(&inner.counters),
                handles(&inner.gauges),
                handles(&inner.histograms),
            )
        };
        // A collect is every counter cell plus every histogram merged
        // across its stripes. Histogram cells are monotone (counts and sums
        // grow, mins fall, maxes rise), so two equal merged collects mean no
        // cell a published value depends on moved in between.
        let collect = || {
            let mut cells = Vec::new();
            for (_, c) in &counters {
                cells.extend(c.cells.iter().map(|c| c.0.load(Ordering::Acquire)));
            }
            let hists: Vec<Histogram> = histograms.iter().map(|(_, h)| h.snapshot()).collect();
            (cells, hists)
        };
        let mut seen = collect();
        let mut coherent = false;
        for _ in 0..COHERENT_RETRIES {
            let again = collect();
            if again == seen {
                coherent = true;
                break;
            }
            seen = again;
        }
        // Everything published comes from the *validated* collect, never a
        // re-read: re-reading after validation would let movement slip
        // between the validated instant and the published values, silently
        // un-pinning a coherent-flagged snapshot (the torn-read twin
        // `asgd-chaos` catches).
        let (cells, hists) = seen;
        let counters = counters
            .iter()
            .zip(cells.chunks_exact(STRIPES))
            .map(|((k, _), c)| (k.clone(), c.iter().sum()))
            .collect();
        let histograms = histograms
            .iter()
            .zip(hists)
            .map(|((k, _), h)| (k.clone(), h))
            .collect();
        MetricsSnapshot {
            coherent,
            counters,
            gauges: gauges.iter().map(|(k, g)| (k.clone(), g.value())).collect(),
            histograms,
        }
    }
}

/// The process-wide registry every instrumented tier records into; scrapes
/// render this one.
#[must_use]
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: std::sync::OnceLock<MetricsRegistry> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_stripe_and_sum() {
        let c = Counter::default();
        c.add(3);
        c.inc();
        assert_eq!(c.value(), 4);
        c.record_total(10);
        assert_eq!(c.value(), 10);
        c.record_total(5); // backwards set ignored: counters are monotone
        assert_eq!(c.value(), 10);
    }

    #[test]
    fn counters_accumulate_across_threads() {
        let c = std::sync::Arc::new(Counter::default());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 8000);
    }

    #[test]
    fn gauges_hold_the_last_write() {
        let g = Gauge::default();
        assert_eq!(g.value(), 0.0);
        g.set(2.5);
        assert_eq!(g.value(), 2.5);
        g.set(-1.0);
        assert_eq!(g.value(), -1.0);
    }

    #[test]
    fn striped_histogram_records_the_plain_layout() {
        let values = [1, 2, 3, 1000, 1000, 1 << 50];
        let h = StripedHistogram::default();
        for v in values {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 2006 + (1 << 50));
        assert_eq!(h.snapshot(), Histogram::from_iter(values.iter().copied()));
        assert_eq!(StripedHistogram::default().snapshot(), Histogram::new());
    }

    #[test]
    fn stripe_heads_sit_on_lines_of_their_own() {
        assert_eq!(std::mem::size_of::<StripeHead>(), 64);
        assert_eq!(std::mem::align_of::<HistStripe>(), 64);
    }

    #[test]
    fn snapshots_racing_a_recorder_are_never_torn() {
        // Whatever the coherence flag says, every rendered histogram's
        // cumulative buckets must rise monotonically to its `_count`.
        let r = MetricsRegistry::new();
        let h = r.histogram("asgd_race_ns");
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut v = 0_u64;
                while !stop.load(Ordering::Relaxed) {
                    h.record(v % 5_000);
                    v += 7;
                }
            });
            while h.count() == 0 {
                std::thread::yield_now();
            }
            for _ in 0..200 {
                let text = crate::render(&r.snapshot());
                let (mut cum, mut count) = (0, None);
                for line in text.lines().filter(|l| l.starts_with("asgd_race_ns_")) {
                    let (series, value) = line.rsplit_once(' ').expect("sample line");
                    let value: u64 = value.parse().expect("integer sample");
                    if series.starts_with("asgd_race_ns_bucket") {
                        assert!(value >= cum, "cumulative buckets fell: {text}");
                        cum = value;
                    } else if series == "asgd_race_ns_count" {
                        count = Some(value);
                    }
                }
                assert_eq!(Some(cum), count, "buckets disagree with _count: {text}");
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn registry_returns_shared_handles() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        assert_eq!(b.value(), 1);
        r.gauge("g").set(7.0);
        r.histogram("h").record(42);
        let snap = r.snapshot();
        assert!(snap.coherent, "quiescent registry collects coherently");
        assert_eq!(snap.counters, vec![("x".to_string(), 1)]);
        assert_eq!(snap.gauges, vec![("g".to_string(), 7.0)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].1.total(), 1);
    }

    #[test]
    fn snapshot_stays_sane_under_churn() {
        let r = MetricsRegistry::new();
        let c = r.counter("churn");
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    c.inc();
                }
            });
            for _ in 0..100 {
                let snap = r.snapshot();
                // Coherent or not, the per-metric totals are monotone.
                assert!(snap.counters[0].1 <= c.value());
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn global_registry_is_a_singleton() {
        global().counter("asgd_test_global_total").add(2);
        let snap = global().snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|(k, v)| k == "asgd_test_global_total" && *v >= 2));
    }
}

//! The one histogram over `u64` observations (contention, the delay τ,
//! staleness, step and request latencies), shared by the bench reports, the
//! load shedder's window and the live scrape (striped over atomic cells by
//! `asgd-telemetry`), so a quantile means the same thing in all three.
//!
//! # Precision
//!
//! Every value below 64 has a bucket of its own. From 64 up to 2^48 each
//! power of two `[2^e, 2^(e+1))` splits into 32 equal sub-buckets, so no
//! bucket is wider than 1/32 of its lower bound; everything at or above
//! 2^48 (≈ 78 hours in ns) shares one overflow bucket: [`BUCKETS`] = 1,409
//! in all. Count, sum, min and max are exact.
//!
//! [`Histogram::quantile`] applies the rank rule of a sorted sample
//! (`h = q · (n − 1)`, interpolate between the neighbouring order
//! statistics, round to nearest) to estimated order statistics: the
//! smallest and largest are the exact min and max, any other is its
//! bucket's midpoint clamped into `[min, max]` (within 1/64 of the true
//! value; the overflow bucket reads as the max). So every quantile lies in
//! `[min, max]`; is exact where the order statistics around it are below 64;
//! and lies within 1/32 (3.125%) of the exact quantile below 2^48, or within
//! one unit where that is below 32 and the two roundings split. At or above
//! 2^48 it may read high, but never lower than that.

/// Number of buckets: 64 exact values, 42 powers of two × 32 sub-buckets,
/// and the overflow bucket.
pub const BUCKETS: usize = 1409;

/// The bucket `v` is recorded in.
#[inline]
#[must_use]
pub fn bucket_of(v: u64) -> usize {
    if v < 32 {
        return v as usize;
    }
    // Sub-buckets 2^shift wide: the top six bits of v pick the bucket.
    let shift = 58 - v.leading_zeros();
    (((shift as usize) << 5) + (v >> shift) as usize).min(BUCKETS - 1)
}

/// The inclusive value range `(low, high)` of bucket `i < BUCKETS`.
#[must_use]
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    let low = |i: usize| match i {
        0..32 => i as u64,
        _ => (32 + i as u64 % 32) << (i / 32 - 1),
    };
    let high = (i + 1 < BUCKETS).then(|| low(i + 1) - 1);
    (low(i), high.unwrap_or(u64::MAX))
}

/// The tail percentiles serving benchmarks report, each a
/// [`Histogram::quantile`] (see the [precision](self#precision) notes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentiles {
    /// Median (p50).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Largest observation (p100).
    pub max: u64,
}

/// A log-linear histogram over `u64` observations with exact count, sum,
/// min and max (see the [precision](self#precision) notes). An empty one
/// has no order statistics: quantiles, percentiles, min, max and mean are
/// all `None`, never a sentinel value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `BUCKETS` per-bucket counts.
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    /// `u64::MAX` and `0` while empty, so recording is a plain min/max.
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::from_parts(vec![0; BUCKETS], 0, u64::MAX, 0)
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A histogram from `BUCKETS` per-bucket counts kept elsewhere (the
    /// telemetry registry's cells, a parsed scrape) and the sum, min and max
    /// of the same observations; `min` and `max` must bound every counted
    /// value. With no count, the result is [`Histogram::new`].
    ///
    /// # Panics
    ///
    /// Panics unless `counts` holds `BUCKETS` entries.
    #[must_use]
    pub fn from_parts(counts: Vec<u64>, sum: u128, min: u64, max: u64) -> Self {
        assert_eq!(counts.len(), BUCKETS, "one count per bucket");
        let total = counts.iter().sum();
        let (sum, min, max) = if total == 0 {
            (0, u64::MAX, 0)
        } else {
            (sum, min, max)
        };
        Self {
            counts,
            total,
            sum,
            min,
            max,
        }
    }

    /// Records one observation.
    pub fn push(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
        self.total += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Exact sum of the observations.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest observed value.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest observed value.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Mean of the observations (`None` when empty).
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) by rank, linearly interpolated (see
    /// the [precision](self#precision) notes). At tiny sample counts this
    /// keeps tail percentiles between order statistics instead of
    /// collapsing them onto the maximum: the p90 of `{10, 20}` is 19.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.total == 0 {
            return None;
        }
        let h = q * (self.total - 1) as f64;
        let lo_rank = h.floor() as u64;
        let frac = h - h.floor();
        let lo = self.order_stat(lo_rank);
        if frac == 0.0 {
            return Some(lo);
        }
        let hi = self.order_stat(lo_rank + 1).max(lo);
        // Interpolate in f64 and round half away from zero, staying inside
        // [lo, hi] and so inside the observed range.
        Some(((lo as f64 + (hi - lo) as f64 * frac).round() as u64).min(hi))
    }

    /// The 0-based `rank`-th smallest observation: exact at the two ends,
    /// elsewhere its bucket's midpoint (the max for the overflow bucket)
    /// clamped into `[min, max]`.
    fn order_stat(&self, rank: u64) -> u64 {
        if rank == 0 || rank + 1 >= self.total {
            return if rank == 0 { self.min } else { self.max };
        }
        let mut below = 0;
        let i = (bucket_of(self.min)..BUCKETS)
            .find(|&i| {
                below += self.counts[i];
                below > rank
            })
            .unwrap_or(BUCKETS - 1);
        let (low, high) = bucket_bounds(i);
        let mid = if i == BUCKETS - 1 {
            high
        } else {
            low + (high - low) / 2
        };
        mid.max(self.min).min(self.max)
    }

    /// The serving-telemetry percentile set (p50/p90/p99/p999/max), each
    /// via [`Histogram::quantile`]; `max` is always the exact largest
    /// observation. `None` when empty: inventing a `0` would let an idle
    /// window masquerade as a fast one.
    #[must_use]
    pub fn percentiles(&self) -> Option<Percentiles> {
        Some(Percentiles {
            p50: self.quantile(0.50)?,
            p90: self.quantile(0.90)?,
            p99: self.quantile(0.99)?,
            p999: self.quantile(0.999)?,
            max: self.max()?,
        })
    }

    /// Folds another histogram into this one. Merging is how per-client
    /// serving telemetry becomes one report: `merge` over the client
    /// histograms is exactly the histogram of the concatenated
    /// observations.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Iterates `(bucket, count)` over the non-empty buckets in increasing
    /// value order; [`bucket_bounds`] gives each bucket's value range.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| (c > 0).then_some((i, c)))
    }

    /// Renders a compact ASCII bar chart (one row per non-empty bucket,
    /// labelled with its value or value range, bars scaled to `width`
    /// characters).
    #[must_use]
    pub fn render(&self, width: usize) -> String {
        let mut out = String::new();
        let max_count = self.counts.iter().copied().max().unwrap_or(0);
        for (i, c) in self.iter() {
            let bar_len = ((c as f64 / max_count as f64) * width as f64).round() as usize;
            let label = match bucket_bounds(i) {
                (low, high) if low == high => low.to_string(),
                (low, high) => format!("{low}-{high}"),
            };
            out.push_str(&format!(
                "{label:>8} | {:<width$} {c}\n",
                "#".repeat(bar_len.max(1))
            ));
        }
        out
    }
}

impl FromIterator<u64> for Histogram {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut h = Self::new();
        for v in iter {
            h.push(v);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_value_range() {
        // Consecutive buckets meet with no gap or overlap, every bound maps
        // back to its own bucket, and no finite bucket above the exact
        // range is wider than 1/32 of its lower bound.
        let mut next = 0;
        for i in 0..BUCKETS {
            let (low, high) = bucket_bounds(i);
            assert_eq!(low, next, "bucket {i} starts where {} ended", i.max(1) - 1);
            assert_eq!((bucket_of(low), bucket_of(high)), (i, i));
            if i < BUCKETS - 1 {
                assert!((high - low + 1) * 32 <= low.max(32), "bucket {i} too wide");
                next = high + 1;
            }
        }
        assert_eq!(bucket_bounds(BUCKETS - 1), (1 << 48, u64::MAX));
        assert_eq!(bucket_of(63), 63);
        assert_eq!(bucket_bounds(64), (64, 65));
    }

    #[test]
    fn counts_and_total() {
        let h = Histogram::from_iter([1, 1, 2, 5]);
        assert_eq!(h.total(), 4);
        assert_eq!(h.sum(), 9);
        assert_eq!(h.iter().collect::<Vec<_>>(), vec![(1, 2), (2, 1), (5, 1)]);
        assert_eq!(h.max(), Some(5));
    }

    #[test]
    fn quantiles() {
        let h: Histogram = (1..=100).collect();
        assert_eq!(h.quantile(0.0), Some(1));
        // h = 0.5·99 = 49.5: midway between the 50th and 51st observations
        // (50.5), rounded half away from zero.
        assert_eq!(h.quantile(0.5), Some(51));
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn quantile_range_checked() {
        let _ = Histogram::from_iter([1]).quantile(1.5);
    }

    #[test]
    fn render_shows_bars() {
        let h = Histogram::from_iter([0, 0, 0, 7]);
        let s = h.render(10);
        assert!(s.contains('#'));
        assert!(s.contains('7'));
        assert!(s.lines().count() == 2);
    }

    #[test]
    fn min_and_mean() {
        let h = Histogram::from_iter([2, 4, 6]);
        assert_eq!(h.min(), Some(2));
        assert_eq!(h.mean(), Some(4.0));
        assert_eq!(Histogram::new().min(), None);
        assert_eq!(Histogram::new().mean(), None);
    }

    #[test]
    fn percentiles_interpolate_by_rank() {
        // 1000 observations 1..=1000: h = q·999, interpolated then rounded.
        // Exactly that is p50 = 501, p90 = 900, p99 = 990, p999 = 999;
        // each estimate is within 1/32 of it.
        let h: Histogram = (1..=1000).collect();
        let p = h.percentiles().expect("non-empty");
        for (got, exact) in [(p.p50, 501), (p.p90, 900), (p.p99, 990), (p.p999, 999)] {
            assert!(got.abs_diff(exact) * 32 <= exact, "{got} vs {exact}");
        }
        assert_eq!(p.max, 1000);
        assert_eq!(Histogram::new().percentiles(), None);
        // A single observation is every percentile.
        let one = Histogram::from_iter([7]);
        let p = one.percentiles().unwrap();
        assert_eq!((p.p50, p.p999, p.max), (7, 7, 7));
    }

    #[test]
    fn tiny_sample_counts_do_not_collapse_to_max() {
        // n = 2: h = q·1, so every percentile interpolates between the two
        // observations instead of jumping to the max.
        let two = Histogram::from_iter([10, 20]);
        let p = two.percentiles().unwrap();
        assert_eq!(p.p50, 15);
        assert_eq!(p.p90, 19);
        assert_eq!(p.max, 20);
        assert!(p.p90 < p.max, "p90 must not collapse onto the max at n=2");
        // n = 3: the median is the exact middle observation; p90 sits
        // between the 2nd and 3rd.
        let three = Histogram::from_iter([10, 20, 30]);
        let p = three.percentiles().unwrap();
        assert_eq!(p.p50, 20);
        assert_eq!(p.p90, 28);
        assert!(p.p90 < p.max);
        // Duplicated values interpolate between equal order statistics
        // (a flat segment), so ties stay exact.
        let ties = Histogram::from_iter([5, 5, 5, 40]);
        assert_eq!(ties.quantile(0.5), Some(5));
        assert_eq!(ties.quantile(0.25), Some(5));
    }

    #[test]
    fn percentiles_on_empty_are_defined() {
        // The empty outcome is part of the API contract: every order
        // statistic is None, and stays None regardless of how the empty
        // histogram was produced.
        let fresh = Histogram::new();
        assert_eq!(fresh.percentiles(), None);
        assert_eq!(fresh.quantile(0.99), None);
        assert_eq!(fresh.min(), None);
        assert_eq!(fresh.max(), None);
        assert_eq!(fresh.mean(), None);
        let mut merged_empty = Histogram::new();
        merged_empty.merge(&Histogram::new());
        assert_eq!(merged_empty.percentiles(), None);
        let from_nothing = Histogram::from_iter([]);
        assert_eq!(from_nothing.percentiles(), None);
        assert_eq!(from_nothing.total(), 0);
        let from_parts = Histogram::from_parts(vec![0; BUCKETS], 5, 1, 2);
        assert_eq!(from_parts, fresh);
    }

    #[test]
    fn merge_equals_concatenation() {
        let mut a = Histogram::from_iter([1, 1, 5]);
        let b = Histogram::from_iter([1, 2, 9]);
        a.merge(&b);
        let concat = Histogram::from_iter([1, 1, 5, 1, 2, 9]);
        assert_eq!(a, concat);
        assert_eq!(a.total(), 6);
        // Merging an empty histogram is a no-op; merging into one copies.
        let mut empty = Histogram::new();
        empty.merge(&concat);
        assert_eq!(empty, concat);
        a.merge(&Histogram::new());
        assert_eq!(a, concat);
    }

    #[test]
    fn iterator_construction() {
        let h: Histogram = vec![3u64, 3, 9].into_iter().collect();
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, vec![(3, 2), (9, 1)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The smallest value recorded in the overflow bucket.
    const OVERFLOW_FLOOR: u64 = 1 << 48;

    /// The exact quantile rule on a sorted sample: `h = q·(n−1)`,
    /// interpolate between the neighbouring order statistics, round half
    /// away from zero. Returns the result and the two order statistics.
    fn reference(sorted: &[u64], q: f64) -> (u64, u64, u64) {
        let h = q * (sorted.len() - 1) as f64;
        let lo_rank = h.floor() as usize;
        let frac = h - h.floor();
        let lo = sorted[lo_rank];
        if frac == 0.0 {
            return (lo, lo, lo);
        }
        let hi = sorted[lo_rank + 1];
        let exact = (lo as f64 + (hi - lo) as f64 * frac).round() as u64;
        (exact, lo, hi)
    }

    /// A heavy-tailed draw: log-uniform over `[1, 2^48)`.
    fn log_uniform(r: u64) -> u64 {
        let e = r % 48;
        (1 << e) + (r >> 6) % (1 << e)
    }

    /// A sample of one shape: all below 64, uniform below a random scale,
    /// Pareto (α = 1.2, scale 100), or log-uniform with one draw in eight
    /// at or above 2^48.
    fn sample() -> impl Strategy<Value = Vec<u64>> {
        (
            0_u64..4,
            0_usize..4,
            proptest::collection::vec(any::<u64>(), 1..400),
        )
            .prop_map(|(shape, scale, raw)| {
                raw.into_iter()
                    .map(|r| match shape {
                        0 => r % 64,
                        1 => r % [100, 5_000, 1 << 20, 1 << 40][scale],
                        2 => {
                            let u = ((r >> 11) + 1) as f64 / (1_u64 << 53) as f64;
                            ((100.0 / u.powf(1.0 / 1.2)) as u64).min(OVERFLOW_FLOOR - 1)
                        }
                        _ if r % 8 == 0 => OVERFLOW_FLOOR + (r >> 3) % (u64::MAX - OVERFLOW_FLOOR),
                        _ => log_uniform(r),
                    })
                    .collect()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The log-linear histogram against an exact sorted reference.
        #[test]
        fn histogram_matches_the_exact_reference(
            values in sample(),
            split in 0_usize..400,
            q in 0.0_f64..1.0,
        ) {
            let h = Histogram::from_iter(values.iter().copied());
            let mut sorted = values.clone();
            sorted.sort_unstable();
            prop_assert_eq!(h.total(), values.len() as u64);
            prop_assert_eq!(h.sum(), values.iter().map(|&v| u128::from(v)).sum::<u128>());
            prop_assert_eq!(h.min(), sorted.first().copied());
            prop_assert_eq!(h.max(), sorted.last().copied());
            for q in [0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0, q] {
                let got = h.quantile(q).expect("non-empty");
                let (exact, lo, hi) = reference(&sorted, q);
                let slack = (exact / 32).max(1);
                if hi < 64 {
                    prop_assert_eq!(got, exact, "q={}: values below 64 are exact", q);
                } else if hi < OVERFLOW_FLOOR {
                    prop_assert!(got.abs_diff(exact) <= slack, "q={q}: {got} vs exact {exact}");
                } else {
                    prop_assert!(
                        got >= exact.saturating_sub(slack) && got <= sorted[sorted.len() - 1],
                        "q={q}: {got} vs exact {exact} between {lo} and {hi}"
                    );
                }
            }
            let (a, b) = values.split_at(split.min(values.len()));
            let mut merged = Histogram::from_iter(a.iter().copied());
            merged.merge(&Histogram::from_iter(b.iter().copied()));
            prop_assert_eq!(merged, h);
        }
    }
}

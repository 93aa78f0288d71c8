//! Order statistics over measured samples.

/// The median of `xs` (mean of the middle pair for even lengths); NaN for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between closest ranks;
/// NaN for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Latency samples of one request class: 10 ns buckets up to 1 ms and
/// exact values beyond, so memory stays fixed however many requests a
/// run completes (and peak RSS does not follow throughput).
#[derive(Debug)]
pub struct Latencies {
    buckets: Vec<u64>,
    over: Vec<u64>,
    count: usize,
}

const BUCKET_NS: u64 = 10;
const BUCKETS: usize = 100_000;

impl Default for Latencies {
    fn default() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
            over: Vec::new(),
            count: 0,
        }
    }
}

impl Latencies {
    pub fn push(&mut self, ns: u64) {
        match self.buckets.get_mut((ns / BUCKET_NS) as usize) {
            Some(b) => *b += 1,
            None => self.over.push(ns),
        }
        self.count += 1;
    }

    pub fn len(&self) -> usize {
        self.count
    }

    pub fn extend(&mut self, other: &Latencies) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.over.extend_from_slice(&other.over);
        self.count += other.count;
    }

    /// The `q`-quantile in microseconds (nearest rank; a bucket reads as
    /// its midpoint), NaN when empty.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count as u64);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return (i as f64 + 0.5) * BUCKET_NS as f64 / 1e3;
            }
        }
        let mut over = self.over.clone();
        over.sort_unstable();
        over[(rank - seen - 1) as usize] as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn latency_quantiles_use_nearest_rank() {
        let mut l = Latencies::default();
        for ns in (1..=1000).rev() {
            l.push(ns * 1000);
        }
        l.push(5_000_000);
        assert_eq!(l.len(), 1001);
        assert_eq!(l.quantile_us(0.5), 501.005);
        assert_eq!(l.quantile_us(0.99), 991.005);
        assert_eq!(l.quantile_us(1.0), 5000.0);
    }
}

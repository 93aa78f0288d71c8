//! SLO-based load shedding.
//!
//! The server tracks the rolling p99 of *executed* request latencies in a
//! count-rotated window of [`Histogram`] slots (so old overload decays as
//! fresh traffic arrives; see the histogram's
//! [precision](asgd_metrics::histogram#precision) notes) and compares
//! it against a latency objective. Tiers are evaluated at the *shed
//! trigger* — the SLO scaled by [`SloPolicy::trigger_ratio`] — so an
//! operator can shed early enough that the declared objective itself
//! still holds (a threshold controller with no headroom regulates the
//! p99 *to* its threshold, which would leave it hovering at the SLO):
//!
//! * p99 ≤ trigger — healthy; every priority is admitted;
//! * trigger < p99 ≤ 2×trigger — degraded; [`Priority::Low`] is shed;
//! * p99 > 2×trigger — overloaded; only [`Priority::High`] is admitted.
//!
//! Tier changes are **hysteretic**: a tier engages at its trigger
//! threshold but only releases once the p99 falls below
//! [`SloPolicy::release_ratio`] × that threshold. Without the gap, a p99
//! hovering at the trigger flaps the shedder every refresh — each flap
//! admits a burst of traffic that re-degrades the p99, re-engaging the
//! tier it just left. The engaged/held/released tier is recomputed at
//! every p99 refresh and cached, so the verdict hot path stays one atomic
//! load.
//!
//! Shed requests get an explicit [`Response::Shed`](crate::Response::Shed)
//! frame carrying the observed p99 and the objective — never a silent
//! drop — and skip the request's compute entirely, which is what frees
//! capacity for the admitted traffic. Shed requests are *not* recorded in
//! the window (they complete in ~µs; recording them would drag the p99
//! down and oscillate the shedder), so recovery is driven by the rotation
//! of the window as admitted requests complete.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use asgd_metrics::Histogram;

use crate::protocol::Priority;

/// Recovers a poisoned mutex: every critical section here leaves the
/// window structurally valid, so the data is safe to keep using.
fn lock_recovered<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The shedder's latency objective and window geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// Target p99, as a duration. `None` disables shedding entirely.
    pub slo: Option<Duration>,
    /// Fraction of the SLO at which shedding engages (the *shed
    /// trigger*). `1.0` sheds only once the objective is already
    /// violated; values below 1 buy headroom so the executed-request
    /// p99 settles *inside* the objective instead of hovering at it.
    /// Values outside `(0, 1]` are treated as `1.0`.
    pub trigger_ratio: f64,
    /// Hysteresis: an engaged tier releases only once the p99 falls below
    /// `release_ratio` × its engage threshold. `1.0` means no hysteresis
    /// (engage and release at the same point); values outside `(0, 1]`
    /// are treated as `1.0`.
    pub release_ratio: f64,
    /// Number of rotation slots in the rolling window.
    pub window_buckets: usize,
    /// Executed requests per slot before the window rotates.
    pub bucket_capacity: u64,
    /// Minimum executed requests in the window before the shedder trusts
    /// its p99 estimate (cold-start guard: a handful of slow warm-up
    /// requests must not shed the whole warm-up).
    pub min_samples: u64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        Self {
            slo: None,
            trigger_ratio: 1.0,
            release_ratio: 0.85,
            window_buckets: 8,
            bucket_capacity: 256,
            min_samples: 64,
        }
    }
}

impl SloPolicy {
    /// A policy with the given p99 objective and default window geometry.
    #[must_use]
    pub fn with_slo(slo: Duration) -> Self {
        Self {
            slo: Some(slo),
            ..Self::default()
        }
    }
}

/// The verdict for one arriving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Execute the request.
    Admit,
    /// Refuse it with a `Shed` frame.
    Shed {
        /// The rolling p99 that triggered shedding, ns.
        p99_ns: u64,
        /// The objective, ns.
        slo_ns: u64,
    },
}

/// The rolling window: a ring of [`Histogram`] slots rotated by
/// observation count (not wall time, which keeps it deterministic and
/// unit-testable), plus their running total. After `slot_capacity` pushes
/// to one slot the oldest slot is evicted wholesale, so the window always
/// covers the last `(slots−1)·slot_capacity + 1 ..= slots·slot_capacity`
/// observations.
#[derive(Debug)]
struct Window {
    slots: Vec<Histogram>,
    current: usize,
    slot_capacity: u64,
    /// The merge of every slot: what the p99 is read from.
    total: Histogram,
}

impl Window {
    /// Both geometry arguments are clamped to at least 1 (a zero-capacity
    /// window could never hold an observation).
    fn new(slots: usize, slot_capacity: u64) -> Self {
        Self {
            slots: vec![Histogram::new(); slots.max(1)],
            current: 0,
            slot_capacity: slot_capacity.max(1),
            total: Histogram::new(),
        }
    }

    /// Records one observation, evicting the oldest slot first if the
    /// current one is full. Eviction re-merges the live slots, which keeps
    /// the total's min and max exact.
    fn push(&mut self, value: u64) {
        if self.slots[self.current].total() >= self.slot_capacity {
            self.current = (self.current + 1) % self.slots.len();
            self.slots[self.current] = Histogram::new();
            self.total = Histogram::new();
            for slot in &self.slots {
                self.total.merge(slot);
            }
        }
        self.slots[self.current].push(value);
        self.total.push(value);
    }
}

/// Rolling-p99 load shedder shared by every connection thread.
///
/// The hot path ([`LoadShedder::verdict`]) is a single relaxed atomic
/// load of the cached p99 — the window mutex is only taken when recording
/// a completed request, and the p99 is re-derived at most once every
/// `bucket_capacity / 8` recordings (see [`SloPolicy::bucket_capacity`]).
#[derive(Debug)]
pub struct LoadShedder {
    policy: SloPolicy,
    window: Mutex<Window>,
    /// Cached rolling p99 in ns; 0 = "no estimate yet".
    p99_ns: AtomicU64,
    /// Refresh the cached p99 every this many recordings.
    refresh_stride: u64,
    /// Cached shedding tier: 0 healthy, 1 degraded (shed Low), 2
    /// overloaded (shed Low and Normal). Recomputed hysteretically at
    /// every p99 refresh.
    tier: AtomicU8,
    /// Tier changes since construction (flap detector).
    transitions: AtomicU64,
    shed_total: AtomicU64,
    executed_total: AtomicU64,
}

impl LoadShedder {
    /// A shedder with the given policy.
    #[must_use]
    pub fn new(policy: SloPolicy) -> Self {
        let window = Window::new(policy.window_buckets, policy.bucket_capacity);
        // Re-deriving the p99 walks the window total's buckets up from its
        // min; a stride of 1/8 of a slot keeps the estimate fresh
        // (sub-slot granularity) while amortising the walk.
        let refresh_stride = (policy.bucket_capacity / 8).max(1);
        Self {
            policy,
            window: Mutex::new(window),
            p99_ns: AtomicU64::new(0),
            refresh_stride,
            tier: AtomicU8::new(0),
            transitions: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
            executed_total: AtomicU64::new(0),
        }
    }

    /// The policy this shedder enforces.
    #[must_use]
    pub fn policy(&self) -> &SloPolicy {
        &self.policy
    }

    /// The shed trigger in ns: the SLO scaled by the (validated)
    /// trigger ratio. `None` when shedding is off.
    fn trigger_ns(&self) -> Option<u64> {
        let slo_ns = self.slo_ns()?;
        let ratio = self.policy.trigger_ratio;
        Some(if ratio.is_finite() && ratio > 0.0 && ratio < 1.0 {
            ((slo_ns as f64 * ratio) as u64).max(1)
        } else {
            slo_ns
        })
    }

    fn slo_ns(&self) -> Option<u64> {
        self.policy
            .slo
            .map(|slo| slo.as_nanos().min(u128::from(u64::MAX)) as u64)
    }

    /// The validated release ratio (out-of-range values mean no
    /// hysteresis).
    fn release_ratio(&self) -> f64 {
        let r = self.policy.release_ratio;
        if r.is_finite() && r > 0.0 && r < 1.0 {
            r
        } else {
            1.0
        }
    }

    /// The hysteretic tier update, run at every p99 refresh:
    /// `engage` is the tier the fresh p99 demands outright; `hold` is the
    /// highest tier whose *release* threshold (release_ratio × its engage
    /// threshold) the p99 still exceeds. The new tier engages upward
    /// immediately but releases downward only past the hold thresholds —
    /// `max(engage, min(current, hold))`.
    fn retier(&self, p99_ns: u64) {
        let Some(trigger_ns) = self.trigger_ns() else {
            return;
        };
        let tier_from = |p99: u64, low: u64, high: u64| -> u8 {
            if p99 > high {
                2
            } else if p99 > low {
                1
            } else {
                0
            }
        };
        let new = if p99_ns == 0 {
            0 // estimate lost (window below min_samples): start over
        } else {
            let high_ns = trigger_ns.saturating_mul(2);
            let engage = tier_from(p99_ns, trigger_ns, high_ns);
            let release = self.release_ratio();
            let hold = tier_from(
                p99_ns,
                ((trigger_ns as f64 * release) as u64).max(1),
                ((high_ns as f64 * release) as u64).max(1),
            );
            let current = self.tier.load(Ordering::Relaxed);
            engage.max(current.min(hold))
        };
        if self.tier.swap(new, Ordering::Relaxed) != new {
            self.transitions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Decides whether a request at `priority` is admitted right now.
    pub fn verdict(&self, priority: Priority) -> Verdict {
        let Some(slo_ns) = self.slo_ns() else {
            return Verdict::Admit;
        };
        let p99_ns = self.p99_ns.load(Ordering::Relaxed);
        if p99_ns == 0 {
            return Verdict::Admit; // no estimate yet
        }
        let floor = match self.tier.load(Ordering::Relaxed) {
            0 => return Verdict::Admit,
            1 => Priority::Normal, // degraded: shed Low
            _ => Priority::High,   // overloaded: only High survives
        };
        if priority >= floor {
            Verdict::Admit
        } else {
            self.shed_total.fetch_add(1, Ordering::Relaxed);
            Verdict::Shed { p99_ns, slo_ns }
        }
    }

    /// Records the latency of one *executed* request and periodically
    /// refreshes the cached p99. Shed requests must not be recorded.
    pub fn record(&self, latency: Duration) {
        let n = self.executed_total.fetch_add(1, Ordering::Relaxed) + 1;
        let ns = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        let mut window = lock_recovered(&self.window);
        window.push(ns);
        if n.is_multiple_of(self.refresh_stride) {
            let p99 = if window.total.total() >= self.policy.min_samples {
                window.total.quantile(0.99).unwrap_or(0)
            } else {
                0
            };
            self.p99_ns.store(p99, Ordering::Relaxed);
            self.retier(p99);
        }
    }

    /// The current shedding tier: 0 healthy, 1 degraded, 2 overloaded.
    #[must_use]
    pub fn tier(&self) -> u8 {
        self.tier.load(Ordering::Relaxed)
    }

    /// Tier changes since construction — the flap detector hysteresis
    /// exists to keep small.
    #[must_use]
    pub fn transitions(&self) -> u64 {
        self.transitions.load(Ordering::Relaxed)
    }

    /// The cached rolling p99 in ns (`None` before enough samples).
    #[must_use]
    pub fn rolling_p99_ns(&self) -> Option<u64> {
        match self.p99_ns.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(ns),
        }
    }

    /// Requests shed since construction.
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.shed_total.load(Ordering::Relaxed)
    }

    /// Requests executed (recorded) since construction.
    #[must_use]
    pub fn executed_total(&self) -> u64 {
        self.executed_total.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn capacity(w: &Window) -> u64 {
        w.slots.len() as u64 * w.slot_capacity
    }

    #[test]
    fn window_geometry_is_clamped() {
        let w = Window::new(0, 0);
        assert_eq!(capacity(&w), 1);
        let w = Window::new(4, 128);
        assert_eq!(capacity(&w), 512);
        assert_eq!(w.total.total(), 0);
        assert_eq!(w.total.percentiles(), None);
        assert_eq!(w.total.quantile(0.99), None);
    }

    #[test]
    fn window_without_eviction_matches_a_plain_histogram() {
        let mut w = Window::new(4, 100);
        let mut h = Histogram::new();
        for v in 0..300 {
            w.push(v);
            h.push(v);
        }
        assert_eq!(w.total.total(), 300);
        assert_eq!(w.total, h);
    }

    #[test]
    fn old_observations_are_evicted_by_count() {
        // Fill the whole ring with slow observations, then push fast ones:
        // after `capacity` fast pushes every slow sample has been evicted
        // and the p99 recovers. A cumulative histogram never would.
        let mut w = Window::new(4, 50);
        for _ in 0..capacity(&w) {
            w.push(1_000_000);
        }
        assert_eq!(w.total.quantile(0.99), Some(1_000_000));
        for _ in 0..capacity(&w) {
            w.push(10);
        }
        assert_eq!(w.total.quantile(0.99), Some(10), "spike fully forgotten");
        assert!(w.total.total() <= capacity(&w));
    }

    #[test]
    fn eviction_is_wholesale_per_slot() {
        // 2 slots × 2: the 5th push evicts observations 1 and 2 together.
        let mut w = Window::new(2, 2);
        for v in [1, 2, 3, 4] {
            w.push(v);
        }
        assert_eq!(w.total.min(), Some(1));
        w.push(5);
        assert_eq!(w.total.min(), Some(3), "oldest slot evicted wholesale");
        assert_eq!(w.total.total(), 3);
        assert_eq!(w.total, Histogram::from_iter([3, 4, 5]));
    }

    fn saturate(shedder: &LoadShedder, latency: Duration, n: u64) {
        for _ in 0..n {
            shedder.record(latency);
        }
    }

    #[test]
    fn no_slo_admits_everything() {
        let shedder = LoadShedder::new(SloPolicy::default());
        saturate(&shedder, ms(1_000), 500);
        for &p in Priority::all() {
            assert_eq!(shedder.verdict(p), Verdict::Admit);
        }
        assert_eq!(shedder.shed_total(), 0);
    }

    #[test]
    fn healthy_latencies_admit_everything() {
        let shedder = LoadShedder::new(SloPolicy::with_slo(ms(10)));
        saturate(&shedder, ms(1), 500);
        for &p in Priority::all() {
            assert_eq!(shedder.verdict(p), Verdict::Admit);
        }
    }

    #[test]
    fn degraded_sheds_low_only() {
        let shedder = LoadShedder::new(SloPolicy::with_slo(ms(10)));
        // p99 lands between SLO and 2×SLO.
        saturate(&shedder, ms(15), 500);
        assert!(matches!(
            shedder.verdict(Priority::Low),
            Verdict::Shed { .. }
        ));
        assert_eq!(shedder.verdict(Priority::Normal), Verdict::Admit);
        assert_eq!(shedder.verdict(Priority::High), Verdict::Admit);
        assert!(shedder.shed_total() > 0);
    }

    #[test]
    fn overloaded_admits_only_high() {
        let shedder = LoadShedder::new(SloPolicy::with_slo(ms(10)));
        saturate(&shedder, ms(100), 500);
        let v = shedder.verdict(Priority::Low);
        let Verdict::Shed { p99_ns, slo_ns } = v else {
            panic!("low must be shed, got {v:?}");
        };
        assert!(p99_ns > slo_ns * 2);
        assert!(matches!(
            shedder.verdict(Priority::Normal),
            Verdict::Shed { .. }
        ));
        assert_eq!(shedder.verdict(Priority::High), Verdict::Admit);
    }

    #[test]
    fn trigger_ratio_sheds_before_the_objective_is_violated() {
        let shedder = LoadShedder::new(SloPolicy {
            trigger_ratio: 0.5, // trigger at 5 ms against a 10 ms SLO
            ..SloPolicy::with_slo(ms(10))
        });
        // p99 ~7 ms: inside the SLO, past the trigger — Low is shed with
        // the frame still reporting the declared objective.
        saturate(&shedder, ms(7), 500);
        let v = shedder.verdict(Priority::Low);
        let Verdict::Shed { p99_ns, slo_ns } = v else {
            panic!("low must be shed at the trigger, got {v:?}");
        };
        assert!(p99_ns <= slo_ns, "shed engaged while still inside the SLO");
        assert_eq!(shedder.verdict(Priority::Normal), Verdict::Admit);
        // p99 ~12 ms: past 2×trigger — only High survives.
        saturate(&shedder, ms(12), 2_000);
        assert!(matches!(
            shedder.verdict(Priority::Normal),
            Verdict::Shed { .. }
        ));
        assert_eq!(shedder.verdict(Priority::High), Verdict::Admit);
    }

    #[test]
    fn out_of_range_trigger_ratio_falls_back_to_the_objective() {
        for ratio in [0.0, -1.0, 2.0, f64::NAN] {
            let shedder = LoadShedder::new(SloPolicy {
                trigger_ratio: ratio,
                ..SloPolicy::with_slo(ms(10))
            });
            saturate(&shedder, ms(8), 500); // inside the SLO
            assert_eq!(shedder.verdict(Priority::Low), Verdict::Admit);
        }
    }

    #[test]
    fn cold_start_never_sheds() {
        let policy = SloPolicy {
            slo: Some(ms(10)),
            min_samples: 64,
            ..SloPolicy::default()
        };
        let shedder = LoadShedder::new(policy);
        // Fewer than min_samples slow requests: estimate not trusted yet.
        saturate(&shedder, ms(500), 40);
        assert_eq!(shedder.verdict(Priority::Low), Verdict::Admit);
    }

    #[test]
    fn hysteresis_holds_the_tier_through_an_oscillating_p99() {
        // Trigger 10 ms, release at 0.8 × 10 = 8 ms. A p99 ramping
        // 11 → 9 → 11 → … crosses the engage threshold every burst but
        // never the release threshold, so the tier must engage once and
        // hold.
        let shedder = LoadShedder::new(SloPolicy {
            release_ratio: 0.8,
            window_buckets: 4,
            bucket_capacity: 64,
            min_samples: 32,
            ..SloPolicy::with_slo(ms(10))
        });
        saturate(&shedder, ms(11), 256);
        assert_eq!(shedder.tier(), 1, "degraded engages past the trigger");
        let engaged = shedder.transitions();
        assert!(engaged >= 1);
        for _ in 0..6 {
            saturate(&shedder, ms(9), 256); // below trigger, above release
            assert_eq!(shedder.tier(), 1, "held: 9 ms is above the 8 ms release");
            assert!(matches!(
                shedder.verdict(Priority::Low),
                Verdict::Shed { .. }
            ));
            saturate(&shedder, ms(11), 256);
            assert_eq!(shedder.tier(), 1);
        }
        assert_eq!(
            shedder.transitions(),
            engaged,
            "no flapping across the whole ramp"
        );
        // A real recovery (clearly below release) still releases the tier.
        saturate(&shedder, ms(1), 256);
        assert_eq!(shedder.tier(), 0);
        assert_eq!(shedder.verdict(Priority::Low), Verdict::Admit);
        assert_eq!(shedder.transitions(), engaged + 1);
    }

    #[test]
    fn without_hysteresis_the_same_ramp_flaps() {
        // Control experiment: release_ratio 1.0 turns hysteresis off, and
        // the identical 11/9 ms ramp now toggles the tier every burst.
        let shedder = LoadShedder::new(SloPolicy {
            release_ratio: 1.0,
            window_buckets: 4,
            bucket_capacity: 64,
            min_samples: 32,
            ..SloPolicy::with_slo(ms(10))
        });
        saturate(&shedder, ms(11), 256);
        let engaged = shedder.transitions();
        for _ in 0..6 {
            saturate(&shedder, ms(9), 256);
            saturate(&shedder, ms(11), 256);
        }
        assert!(
            shedder.transitions() >= engaged + 12,
            "expected a flap per burst, saw {} transitions",
            shedder.transitions()
        );
    }

    #[test]
    fn out_of_range_release_ratios_mean_no_hysteresis() {
        for ratio in [0.0, -0.5, 1.5, f64::NAN] {
            let shedder = LoadShedder::new(SloPolicy {
                release_ratio: ratio,
                window_buckets: 4,
                bucket_capacity: 64,
                min_samples: 32,
                ..SloPolicy::with_slo(ms(10))
            });
            saturate(&shedder, ms(11), 256);
            assert_eq!(shedder.tier(), 1);
            saturate(&shedder, ms(9), 256); // below the trigger releases
            assert_eq!(shedder.tier(), 0, "ratio {ratio} must disable the hold");
        }
    }

    #[test]
    fn recovery_after_overload_passes() {
        let shedder = LoadShedder::new(SloPolicy {
            slo: Some(ms(10)),
            window_buckets: 4,
            bucket_capacity: 64,
            min_samples: 32,
            ..SloPolicy::default()
        });
        saturate(&shedder, ms(100), 256);
        assert!(matches!(
            shedder.verdict(Priority::Normal),
            Verdict::Shed { .. }
        ));
        // Healthy traffic rotates the overload out of the window.
        saturate(&shedder, ms(1), 256);
        assert_eq!(shedder.verdict(Priority::Low), Verdict::Admit);
        assert!(shedder.executed_total() >= 512);
    }
}

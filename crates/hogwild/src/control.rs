//! Cross-thread run control shared by all native executors.
//!
//! Native runs are *jobs* from the driver's point of view: they must be
//! cancellable while in flight and observable at a bounded cost. One
//! [`RunControl`] carries the hooks, and the claim-loop kernel
//! ([`crate::claim`]) fires them identically for all four executors: every
//! worker checks the stop flag and feeds the step-timing sink whenever its
//! global claim index is a multiple of [`crate::claim::STRIDE`], and
//! samples metrics at the sink's own stride. Cancellation latency and
//! observation overhead are therefore bounded by the stride regardless of
//! the model dimension.

use crate::snapshot::ServeHook;
use std::sync::atomic::{AtomicBool, Ordering};

/// Strided metrics sink function: called from worker threads with
/// `(claim index, ‖view − x*‖²)`, where the view is the freshly read shared
/// model at the moment the claim was taken (i.e. with `claim` updates
/// logically issued before it, modulo in-flight writes).
pub type MetricsFn<'a> = &'a (dyn Fn(u64, f64) + Sync);

/// A metrics callback with its own firing stride: the sink fires on every
/// claim index that is a multiple of `stride`, independent of the kernel's
/// stride, so callers get samples exactly where they asked for them (and
/// single-threaded runs sample at identical indices across executors).
#[derive(Clone, Copy)]
pub struct MetricsSink<'a> {
    /// Claim-index stride between samples (clamped to ≥ 1).
    pub stride: u64,
    /// The sink.
    pub f: MetricsFn<'a>,
}

impl MetricsSink<'_> {
    /// True if `claim` is a sample point.
    #[must_use]
    pub fn fires_at(&self, claim: u64) -> bool {
        claim.is_multiple_of(self.stride.max(1))
    }
}

impl std::fmt::Debug for MetricsSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsSink")
            .field("stride", &self.stride)
            .finish_non_exhaustive()
    }
}

/// Strided step-timing sink function: called from worker threads with
/// `(claim index, elapsed_ns, steps)` — the wall time and the number of
/// updates this worker applied since its previous firing. `elapsed_ns /
/// steps` is the worker's amortised per-step latency over the interval.
/// Besides the strided claims, a worker fires at the claim that finds its
/// budget (an epoch's, for the epoch executors) exhausted, so the `steps`
/// of all firings sum to the steps the run applied.
pub type TimingFn<'a> = &'a (dyn Fn(u64, u64, u64) + Sync);

/// A step-timing callback riding the kernel's [`STRIDE`](crate::claim::STRIDE):
/// each worker reads one `Instant` per stride window (never per claim) and
/// one when its budget runs out, so the hot path stays O(Δ) and the cost is
/// bounded by the stride exactly like cancellation. Used by the driver to
/// feed the `asgd_hogwild_step_ns` telemetry histogram for every native
/// executor.
#[derive(Clone, Copy)]
pub struct TimingSink<'a> {
    /// The sink.
    pub f: TimingFn<'a>,
}

impl std::fmt::Debug for TimingSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingSink").finish_non_exhaustive()
    }
}

/// Per-run control handles threaded into a native executor's claim loops.
///
/// The default is inert: no stop flag, no metrics — executors behave exactly
/// as their plain `run` entry points always have. Both hooks are pure
/// observation/termination: they never consume RNG state, so attaching them
/// cannot perturb a run's trajectory.
#[derive(Clone, Copy, Default, Debug)]
pub struct RunControl<'a> {
    /// Cooperative stop flag. Checked every [`STRIDE`](crate::claim::STRIDE)
    /// claims; once it reads `true`, workers stop claiming and the run
    /// returns early with its report marked cancelled.
    pub stop: Option<&'a AtomicBool>,
    /// Strided metrics callback.
    pub metrics: Option<MetricsSink<'a>>,
    /// Strided step-timing callback (fires every
    /// [`STRIDE`](crate::claim::STRIDE) claims and when a budget runs out).
    pub timing: Option<TimingSink<'a>>,
    /// Serving attachment: the executor exposes a
    /// [`ModelReader`](crate::snapshot::ModelReader) through the hook before
    /// its workers start and publishes coherent snapshots every
    /// [`ServeHook::publish_stride`] claims (plus a final one after the
    /// join). Currently implemented by the lock-free [`crate::Hogwild`]
    /// executor; the other native executors accept and ignore it.
    pub serve: Option<&'a ServeHook>,
}

impl RunControl<'_> {
    /// True once the stop flag has been raised.
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.stop.is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    /// True if the metrics sink is installed and fires at `claim`.
    #[must_use]
    pub fn metrics_at(&self, claim: u64) -> bool {
        self.metrics.is_some_and(|m| m.fires_at(claim))
    }

    /// Invokes the metrics sink (no-op when none is installed).
    pub fn emit_metrics(&self, claim: u64, dist_sq: f64) {
        if let Some(m) = self.metrics {
            (m.f)(claim, dist_sq);
        }
    }

    /// Invokes the timing sink (no-op when none is installed).
    pub fn emit_timing(&self, claim: u64, elapsed_ns: u64, steps: u64) {
        if let Some(t) = self.timing {
            (t.f)(claim, elapsed_ns, steps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_control_is_inert() {
        let ctrl = RunControl::default();
        assert!(!ctrl.is_stopped());
        assert!(!ctrl.metrics_at(0));
        ctrl.emit_metrics(0, 1.0); // no sink: no-op
        assert!(format!("{ctrl:?}").contains("stop: None"));
    }

    #[test]
    fn stop_flag_is_observed() {
        let flag = AtomicBool::new(false);
        let ctrl = RunControl {
            stop: Some(&flag),
            ..RunControl::default()
        };
        assert!(!ctrl.is_stopped());
        flag.store(true, Ordering::Relaxed);
        assert!(ctrl.is_stopped());
    }

    #[test]
    fn metrics_sink_fires_at_its_own_stride() {
        let noop: &(dyn Fn(u64, f64) + Sync) = &|_, _| {};
        let sink = MetricsSink {
            stride: 50,
            f: noop,
        };
        assert!(sink.fires_at(0));
        assert!(sink.fires_at(100));
        assert!(!sink.fires_at(16));
        let zero = MetricsSink { stride: 0, f: noop };
        assert!(zero.fires_at(7), "zero stride clamps to every claim");
        assert!(format!("{sink:?}").contains("stride: 50"));
    }

    #[test]
    fn timing_sink_receives_interval_observations() {
        use std::sync::atomic::AtomicU64;
        let total_ns = AtomicU64::new(0);
        let total_steps = AtomicU64::new(0);
        let record: &(dyn Fn(u64, u64, u64) + Sync) = &|_claim, ns, steps| {
            total_ns.fetch_add(ns, Ordering::Relaxed);
            total_steps.fetch_add(steps, Ordering::Relaxed);
        };
        let ctrl = RunControl {
            timing: Some(TimingSink { f: record }),
            ..RunControl::default()
        };
        ctrl.emit_timing(128, 64_000, 128);
        ctrl.emit_timing(256, 60_000, 128);
        assert_eq!(total_ns.load(Ordering::Relaxed), 124_000);
        assert_eq!(total_steps.load(Ordering::Relaxed), 256);
        // And the default is inert.
        RunControl::default().emit_timing(0, 1, 1);
        assert!(format!("{:?}", ctrl.timing).contains("TimingSink"));
    }
}

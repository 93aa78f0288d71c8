//! The coarse-grained-locking baseline.
//!
//! Early parallel SGD systems (Langford et al., cited as \[16\] in the
//! paper's introduction) kept the process "consistent to a sequential
//! execution" via coarse-grained locking — and paid for it in scalability.
//! This executor holds one mutex across a whole iteration (view read +
//! gradient application), serialising all model access. It exists as the
//! comparison point for the `speedup` experiment and the
//! `hogwild_scaling` bench.

use crate::claim::{Budget, Dense, Kernel, Sparse, Step};
use crate::control::RunControl;
use crate::snapshot::lock_recovered;
use crate::tuning::ExecTuning;
use asgd_oracle::GradientOracle;
use rand::rngs::StdRng;
use std::sync::atomic::AtomicU64;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Outcome of a locked-baseline run.
#[derive(Debug, Clone, PartialEq)]
pub struct LockedSgdReport {
    /// Final model.
    pub final_model: Vec<f64>,
    /// `‖X_final − x*‖²`.
    pub final_dist_sq: f64,
    /// Iterations executed (= configured `T`, or fewer if cancelled).
    pub iterations: u64,
    /// Wall-clock duration of the parallel section.
    pub elapsed: Duration,
    /// Whether the run took the O(Δ) sparse gradient path.
    pub used_sparse: bool,
    /// Whether the run was ended early by [`RunControl::stop`].
    pub cancelled: bool,
}

impl LockedSgdReport {
    /// Iteration throughput in iterations per second.
    #[must_use]
    pub fn iterations_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            f64::INFINITY
        } else {
            self.iterations as f64 / self.elapsed.as_secs_f64()
        }
    }
}

/// Coarse-grained-locking SGD: `n` threads contend on one model mutex.
#[derive(Debug)]
pub struct LockedSgd<O> {
    oracle: O,
    threads: usize,
    iterations: u64,
    alpha: f64,
    seed: u64,
    tuning: ExecTuning,
}

impl<O: GradientOracle> LockedSgd<O> {
    /// Creates the executor with default [`ExecTuning`] (only the sparse
    /// and pin knobs apply — the model lives under one mutex, so layout,
    /// ordering and sharding are moot).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `alpha` is not finite and positive.
    #[must_use]
    pub fn new(oracle: O, threads: usize, iterations: u64, alpha: f64, seed: u64) -> Self {
        assert!(threads >= 1, "at least one thread required");
        assert!(alpha.is_finite() && alpha > 0.0, "alpha must be positive");
        Self {
            oracle,
            threads,
            iterations,
            alpha,
            seed,
            tuning: ExecTuning::default(),
        }
    }

    /// Overrides the execution tuning.
    #[must_use]
    pub fn tuning(mut self, tuning: ExecTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Runs to completion.
    ///
    /// # Panics
    ///
    /// Panics if `x0`'s dimension differs from the oracle's.
    #[must_use]
    pub fn run(&self, x0: &[f64]) -> LockedSgdReport {
        self.run_controlled(x0, RunControl::default())
    }

    /// Like [`LockedSgd::run`], with a [`RunControl`] for cancellation,
    /// strided metrics (dist² computed under a brief model lock) and step
    /// timing.
    ///
    /// # Panics
    ///
    /// Panics if `x0`'s dimension differs from the oracle's.
    #[must_use]
    pub fn run_controlled(&self, x0: &[f64], ctrl: RunControl<'_>) -> LockedSgdReport {
        assert_eq!(x0.len(), self.oracle.dimension(), "x0 dimension mismatch");
        let model = Mutex::new(x0.to_vec());
        let counter = AtomicU64::new(0);
        let budget = Budget {
            counter: &counter,
            limit: self.iterations,
            offset: 0,
        };
        let kernel = Kernel::new(&self.oracle, &self.tuning, ctrl);
        let joined = kernel.spawn(self.threads, self.seed, |worker| {
            worker.claims(&budget, self.alpha, Locked(&model));
        });

        let final_model = model.into_inner().unwrap_or_else(PoisonError::into_inner);
        let final_dist_sq = asgd_math::vec::l2_dist_sq(&final_model, self.oracle.minimizer());
        LockedSgdReport {
            final_model,
            final_dist_sq,
            iterations: joined.per_thread.iter().sum(),
            elapsed: joined.elapsed,
            used_sparse: kernel.use_sparse(),
            cancelled: joined.cancelled,
        }
    }
}

/// The coarse-lock apply policy: one mutex around the whole model, held
/// across each step's read and apply, so iterations are fully serial.
struct Locked<'m>(&'m Mutex<Vec<f64>>);

/// Even under the lock, a Δ-sparse step need not copy or scan the full
/// model: it samples through the locked slice and updates only the support.
impl<O: GradientOracle> Step for Sparse<'_, O, Locked<'_>> {
    const DENSE: bool = false;

    fn dist_sq(&self, minimizer: &[f64]) -> f64 {
        // Hold the lock only for the distance read: the observer pipeline
        // runs outside the critical section, or it would stall every worker.
        asgd_math::vec::l2_dist_sq(&lock_recovered(self.policy.0), minimizer)
    }

    fn apply(&mut self, rng: &mut StdRng) {
        let mut x = lock_recovered(self.policy.0);
        self.oracle.sample_gradient_sparse(&*x, rng, self.grad);
        for &(j, gj) in self.grad.entries() {
            if gj != 0.0 {
                x[j] -= self.alpha * gj;
            }
        }
    }
}

impl<O: GradientOracle> Step for Dense<'_, O, Locked<'_>> {
    // The view is read under the step's own lock, in `apply`.
    const DENSE: bool = true;

    fn dist_sq(&self, minimizer: &[f64]) -> f64 {
        asgd_math::vec::l2_dist_sq(&lock_recovered(self.policy.0), minimizer)
    }

    fn apply(&mut self, rng: &mut StdRng) {
        // The whole iteration holds the lock: fully serial semantics (and
        // fully serial performance).
        let mut x = lock_recovered(self.policy.0);
        self.view.copy_from_slice(&x);
        self.oracle.sample_gradient(self.view, rng, self.grad);
        asgd_math::vec::axpy(&mut x, -self.alpha, self.grad);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgd_oracle::NoisyQuadratic;
    use std::sync::Arc;

    #[test]
    fn converges_like_sequential() {
        let oracle = Arc::new(NoisyQuadratic::new(2, 0.1).unwrap());
        let report = LockedSgd::new(Arc::clone(&oracle), 4, 10_000, 0.02, 5).run(&[2.0, -2.0]);
        assert!(
            report.final_dist_sq < 0.05,
            "final dist² {}",
            report.final_dist_sq
        );
        assert_eq!(report.iterations, 10_000);
        assert!(report.iterations_per_sec() > 0.0);
    }

    #[test]
    fn noiseless_run_is_exactly_sequential() {
        // Locked iterations are serialisable: the noiseless quadratic
        // contracts deterministically regardless of which thread runs when.
        let oracle = Arc::new(NoisyQuadratic::new(1, 0.0).unwrap());
        let report = LockedSgd::new(oracle, 4, 100, 0.1, 1).run(&[1.0]);
        assert!((report.final_model[0] - 0.9_f64.powi(100)).abs() < 1e-12);
    }

    #[test]
    fn sparse_path_matches_dense_bitwise_single_threaded() {
        let oracle = Arc::new(asgd_oracle::SparseQuadratic::uniform(8, 1.0, 0.5).unwrap());
        let run = |sparse| {
            LockedSgd::new(Arc::clone(&oracle), 1, 2_000, 0.02, 3)
                .tuning(crate::tuning::ExecTuning {
                    sparse,
                    ..crate::tuning::ExecTuning::default()
                })
                .run(&[1.0; 8])
        };
        let dense = run(crate::tuning::SparsePolicy::ForceDense);
        let sparse = run(crate::tuning::SparsePolicy::ForceSparse);
        assert!(!dense.used_sparse);
        assert!(sparse.used_sparse);
        for (j, (a, b)) in dense
            .final_model
            .iter()
            .zip(&sparse.final_model)
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "entry {j}");
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn rejects_bad_alpha() {
        let oracle = Arc::new(NoisyQuadratic::new(1, 0.0).unwrap());
        let _ = LockedSgd::new(oracle, 1, 1, f64::NAN, 0);
    }
}

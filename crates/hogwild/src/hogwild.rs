//! The native lock-free executor — Algorithm 1 on OS threads.

use crate::claim::{Budget, Kernel};
use crate::control::RunControl;
use crate::shard::{ParamStore, StoreWriter};
use crate::snapshot::{ModelReader, SnapshotCell};
use crate::tuning::ExecTuning;
use asgd_oracle::GradientOracle;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of a native Hogwild run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HogwildConfig {
    /// Worker thread count `n ≥ 1`.
    pub threads: usize,
    /// Total iteration budget `T` (shared claim counter).
    pub iterations: u64,
    /// Constant learning rate `α > 0`.
    pub alpha: f64,
    /// Master seed; thread `i` derives coin stream `i`.
    pub seed: u64,
    /// Optional `ε`: threads record the first claim index at which a freshly
    /// read view satisfied `‖v − x*‖² ≤ ε` (a native proxy for the hitting
    /// time; exact accumulator-order tracking is a simulator-only facility).
    pub success_radius_sq: Option<f64>,
}

/// Outcome of a native Hogwild run.
#[derive(Debug, Clone, PartialEq)]
pub struct HogwildReport {
    /// Final shared model (read after all threads joined — consistent).
    pub final_model: Vec<f64>,
    /// `‖X_final − x*‖²`.
    pub final_dist_sq: f64,
    /// Iterations actually executed (= `T`, or fewer if cancelled).
    pub iterations: u64,
    /// Per-thread completed iteration counts (sums to `iterations`).
    pub per_thread_iterations: Vec<u64>,
    /// Smallest claim index whose view was inside the success region, if
    /// tracking was enabled and any view qualified. On the sparse path the
    /// check is *sampled* (every [`STRIDE`](crate::claim::STRIDE) claims),
    /// so this is an upper bound on the first qualifying claim.
    pub first_success_claim: Option<u64>,
    /// Wall-clock duration of the parallel section.
    pub elapsed: Duration,
    /// Whether the run took the O(Δ) sparse gradient path.
    pub used_sparse: bool,
    /// Whether the run was ended early by [`RunControl::stop`] (workers stop
    /// within one [`STRIDE`](crate::claim::STRIDE) of the flag being
    /// raised).
    pub cancelled: bool,
}

impl HogwildReport {
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

/// The lock-free executor.
///
/// Shares one [`GradientOracle`] and one [`ParamStore`] across `n` threads;
/// each thread loops: claim a slot via `fetch&add` on the iteration counter,
/// read an (inconsistent) view, sample a gradient, apply nonzero entries via
/// per-entry `fetch&add`. No locks, no barriers.
///
/// For Δ-sparse oracles ([`GradientOracle::max_support`]) the hot loop takes
/// the O(Δ) path: no full view scan, per-entry atomic reads of just the
/// gradient's support, Δ `fetch&add`s — the d/Δ cost factor the paper's
/// sparsity parameterisation promises. [`Hogwild::tuning`] selects the path
/// and the shared model's layout/ordering.
#[derive(Debug)]
pub struct Hogwild<O> {
    oracle: O,
    cfg: HogwildConfig,
    tuning: ExecTuning,
}

impl<O: GradientOracle> Hogwild<O> {
    /// Creates the executor with default [`ExecTuning`] (paper-faithful
    /// ordering, compact layout, automatic sparse-path selection).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `alpha` is not finite and positive.
    #[must_use]
    pub fn new(oracle: O, cfg: HogwildConfig) -> Self {
        assert!(cfg.threads >= 1, "at least one thread required");
        assert!(
            cfg.alpha.is_finite() && cfg.alpha > 0.0,
            "alpha must be positive"
        );
        Self {
            oracle,
            cfg,
            tuning: ExecTuning::default(),
        }
    }

    /// Overrides the execution tuning (layout, ordering, sparse policy).
    #[must_use]
    pub fn tuning(mut self, tuning: ExecTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Runs Algorithm 1 to completion and reports.
    ///
    /// # Panics
    ///
    /// Panics if `x0`'s dimension differs from the oracle's.
    #[must_use]
    pub fn run(&self, x0: &[f64]) -> HogwildReport {
        self.run_controlled(x0, RunControl::default())
    }

    /// Like [`Hogwild::run`], with a [`RunControl`] for cancellation,
    /// strided metrics and step timing. The stop check and the timing sink
    /// fire every [`STRIDE`](crate::claim::STRIDE) claims, so their cost and
    /// the cancellation latency are bounded regardless of `d`.
    ///
    /// # Panics
    ///
    /// Panics if `x0`'s dimension differs from the oracle's.
    #[must_use]
    pub fn run_controlled(&self, x0: &[f64], ctrl: RunControl<'_>) -> HogwildReport {
        let d = self.oracle.dimension();
        assert_eq!(x0.len(), d, "x0 dimension mismatch");
        // The store and claim counter live in `Arc`s so a serving attachment
        // can keep reading them after this call returns (one allocation per
        // run — irrelevant next to the model itself). The store is flat or
        // sharded per `ExecTuning::shards`; the claim loop is oblivious.
        let model = Arc::new(ParamStore::with_tuning(x0, &self.tuning));
        let counter = Arc::new(AtomicU64::new(0));
        // Snapshot storage, only when a serving hook is attached.
        let cell = ctrl.serve.map(|_| Arc::new(SnapshotCell::new(d)));
        let mut kernel = Kernel::new(&self.oracle, &self.tuning, ctrl);
        kernel.success_radius_sq = self.cfg.success_radius_sq;
        if let (Some(hook), Some(cell)) = (ctrl.serve, &cell) {
            hook.attach(ModelReader::new(
                Arc::clone(&model),
                Arc::clone(cell),
                Arc::clone(&counter),
                self.cfg.iterations,
            ));
            kernel.publish = Some((hook, cell, &model));
        }
        let budget = Budget {
            counter: &counter,
            limit: self.cfg.iterations,
            offset: 0,
        };
        let joined = kernel.spawn(self.cfg.threads, self.cfg.seed, |worker| {
            // Batched shard-counter accounting: one RMW per COUNTER_FLUSH
            // updates instead of one per entry.
            worker.claims(&budget, self.cfg.alpha, StoreWriter::new(&model));
        });

        let executed: u64 = joined.per_thread.iter().sum();
        // Publish the quiescent final state (also on cancellation): the last
        // snapshot a reader sees always reflects the reported final model.
        // The cell keeps tags monotone, so a cancelled run whose last
        // strided tag counted aborted claims reports that (≤ executed + n)
        // tag rather than regressing.
        if let (Some(hook), Some(cell)) = (ctrl.serve, &cell) {
            let _ = cell.try_publish_notify(&model, executed, |version, tag| {
                hook.notify_published(version, tag);
            });
        }
        let final_model = model.snapshot();
        let final_dist_sq = asgd_math::vec::l2_dist_sq(&final_model, self.oracle.minimizer());
        HogwildReport {
            final_model,
            final_dist_sq,
            iterations: executed,
            per_thread_iterations: joined.per_thread,
            first_success_claim: joined.first_success,
            elapsed: joined.elapsed,
            used_sparse: kernel.use_sparse(),
            cancelled: joined.cancelled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgd_oracle::{LinearRegression, NoisyQuadratic, SparseQuadratic};
    use std::sync::Arc;

    #[test]
    fn iterations_partition_exactly() {
        let oracle = Arc::new(NoisyQuadratic::new(2, 0.5).unwrap());
        let report = Hogwild::new(
            oracle,
            HogwildConfig {
                threads: 4,
                iterations: 1_000,
                alpha: 0.01,
                seed: 1,
                success_radius_sq: None,
            },
        )
        .run(&[1.0, 1.0]);
        assert_eq!(report.per_thread_iterations.iter().sum::<u64>(), 1_000);
        assert_eq!(report.iterations, 1_000);
        assert!(report.iterations_per_sec() > 0.0);
    }

    #[test]
    fn converges_on_quadratic_multithreaded() {
        let oracle = Arc::new(NoisyQuadratic::new(4, 0.1).unwrap());
        let report = Hogwild::new(
            oracle,
            HogwildConfig {
                threads: 4,
                iterations: 20_000,
                alpha: 0.02,
                seed: 3,
                success_radius_sq: Some(0.05),
            },
        )
        .run(&[2.0, -2.0, 1.0, -1.0]);
        assert!(
            report.final_dist_sq < 0.05,
            "final dist² {}",
            report.final_dist_sq
        );
        assert!(report.first_success_claim.is_some());
    }

    #[test]
    fn converges_on_linear_regression() {
        let oracle = Arc::new(LinearRegression::synthetic(200, 6, 0.05, 5).unwrap());
        let report = Hogwild::new(
            Arc::clone(&oracle),
            HogwildConfig {
                threads: 3,
                iterations: 40_000,
                alpha: 0.01,
                seed: 9,
                success_radius_sq: None,
            },
        )
        .run(&[0.0; 6]);
        assert!(
            report.final_dist_sq < 0.05,
            "final dist² {}",
            report.final_dist_sq
        );
    }

    #[test]
    fn sparse_gradients_native() {
        let oracle = Arc::new(SparseQuadratic::uniform(8, 1.0, 0.0).unwrap());
        let report = Hogwild::new(
            oracle,
            HogwildConfig {
                threads: 4,
                iterations: 30_000,
                alpha: 0.02,
                seed: 4,
                success_radius_sq: None,
            },
        )
        .run(&[1.0; 8]);
        assert!(
            report.used_sparse,
            "Auto selects the sparse path at Δ=1,d=8"
        );
        assert!(
            report.final_dist_sq < 0.01,
            "final dist² {}",
            report.final_dist_sq
        );
    }

    #[test]
    fn sparse_and_dense_paths_agree_bitwise_single_threaded() {
        use crate::tuning::{ExecTuning, SparsePolicy};
        let oracle = Arc::new(SparseQuadratic::uniform(16, 1.0, 0.4).unwrap());
        let cfg = HogwildConfig {
            threads: 1,
            iterations: 2_000,
            alpha: 0.01,
            seed: 77,
            success_radius_sq: None,
        };
        let x0 = vec![1.0; 16];
        let dense = Hogwild::new(Arc::clone(&oracle), cfg)
            .tuning(ExecTuning {
                sparse: SparsePolicy::ForceDense,
                ..ExecTuning::default()
            })
            .run(&x0);
        let sparse = Hogwild::new(Arc::clone(&oracle), cfg)
            .tuning(ExecTuning {
                sparse: SparsePolicy::ForceSparse,
                ..ExecTuning::default()
            })
            .run(&x0);
        assert!(!dense.used_sparse);
        assert!(sparse.used_sparse);
        for (j, (a, b)) in dense
            .final_model
            .iter()
            .zip(&sparse.final_model)
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "entry {j}: dense {a} sparse {b}");
        }
    }

    #[test]
    fn tuned_variants_converge_multithreaded() {
        use crate::model::{ModelLayout, UpdateOrder};
        use crate::tuning::ExecTuning;
        let oracle = Arc::new(NoisyQuadratic::new(4, 0.1).unwrap());
        for layout in [ModelLayout::Compact, ModelLayout::Padded] {
            for order in [UpdateOrder::SeqCst, UpdateOrder::Relaxed] {
                let report = Hogwild::new(
                    Arc::clone(&oracle),
                    HogwildConfig {
                        threads: 4,
                        iterations: 20_000,
                        alpha: 0.02,
                        seed: 3,
                        success_radius_sq: None,
                    },
                )
                .tuning(ExecTuning {
                    layout,
                    order,
                    ..ExecTuning::default()
                })
                .run(&[2.0, -2.0, 1.0, -1.0]);
                assert!(
                    report.final_dist_sq < 0.05,
                    "{layout:?}/{order:?}: dist² {}",
                    report.final_dist_sq
                );
            }
        }
    }

    #[test]
    fn single_thread_matches_iteration_count() {
        let oracle = Arc::new(NoisyQuadratic::new(1, 0.0).unwrap());
        let report = Hogwild::new(
            oracle,
            HogwildConfig {
                threads: 1,
                iterations: 64,
                alpha: 0.1,
                seed: 0,
                success_radius_sq: None,
            },
        )
        .run(&[1.0]);
        assert_eq!(report.per_thread_iterations, vec![64]);
        // Single-threaded noiseless run is exactly (1−α)^T.
        assert!((report.final_model[0] - 0.9_f64.powi(64)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn rejects_zero_threads() {
        let oracle = Arc::new(NoisyQuadratic::new(1, 0.0).unwrap());
        let _ = Hogwild::new(
            oracle,
            HogwildConfig {
                threads: 0,
                iterations: 1,
                alpha: 0.1,
                seed: 0,
                success_radius_sq: None,
            },
        );
    }
}

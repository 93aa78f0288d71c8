//! Native Algorithm 2 — `FullSGD` on OS threads.
//!
//! Same structure as the simulated version in `asgd-core`: per-epoch model
//! arrays (the paper's own alternative to DCAS), an init race per epoch won
//! by CAS with losers spinning until the winner marks the epoch ready, a
//! snapshot of the final epoch's start state, and a shared `Acc` region the
//! final epoch's threads publish their locally accumulated updates into.
//! The result is `r = snapshot + Σᵢ Acc[i]` (Algorithm 2, line 9).

use crate::claim::{Apply, Budget, EpochGate, Kernel};
use crate::control::RunControl;
use crate::shard::{ParamStore, StoreWriter};
use crate::tuning::ExecTuning;
use asgd_oracle::GradientOracle;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::time::Duration;

/// Configuration of a native Algorithm-2 run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NativeFullSgdConfig {
    /// Initial learning rate `α₀ > 0`.
    pub alpha0: f64,
    /// Iterations per epoch `T`.
    pub epoch_iterations: u64,
    /// Halving epochs before the final accumulating epoch.
    pub halving_epochs: usize,
    /// Worker thread count `n ≥ 1`.
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
}

/// Outcome of a native Algorithm-2 run.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeFullSgdReport {
    /// The collected result `r`.
    pub r: Vec<f64>,
    /// Final model of the last epoch (≈ `r` up to f64 summation order).
    pub final_model: Vec<f64>,
    /// `‖r − x*‖` (the Corollary 7.1 quantity).
    pub dist_to_opt: f64,
    /// Wall-clock duration of the parallel section.
    pub elapsed: Duration,
    /// Total epochs executed.
    pub epochs: usize,
    /// Iterations actually executed (= `epoch_iterations ×` total epochs, or
    /// fewer if cancelled).
    pub iterations: u64,
    /// Whether the run took the O(Δ) sparse gradient path.
    pub used_sparse: bool,
    /// Whether the run was ended early by [`RunControl::stop`]. The final
    /// epoch's local accumulators are still published, so `r` remains the
    /// snapshot-plus-sum of every applied final-epoch update.
    pub cancelled: bool,
}

/// The native Algorithm-2 executor.
#[derive(Debug)]
pub struct NativeFullSgd<O> {
    oracle: O,
    cfg: NativeFullSgdConfig,
    tuning: ExecTuning,
}

impl<O: GradientOracle> NativeFullSgd<O> {
    /// Creates the executor with default [`ExecTuning`].
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `alpha0` is not finite and positive.
    #[must_use]
    pub fn new(oracle: O, cfg: NativeFullSgdConfig) -> Self {
        assert!(cfg.threads >= 1, "at least one thread required");
        assert!(
            cfg.alpha0.is_finite() && cfg.alpha0 > 0.0,
            "alpha0 must be positive"
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

    /// Runs Algorithm 2 to completion.
    ///
    /// # Panics
    ///
    /// Panics if `x0`'s dimension differs from the oracle's.
    #[must_use]
    pub fn run(&self, x0: &[f64]) -> NativeFullSgdReport {
        self.run_controlled(x0, RunControl::default())
    }

    /// Like [`NativeFullSgd::run`], with a [`RunControl`] for cancellation,
    /// strided metrics and step timing (claim indices in the callbacks are
    /// global across epochs; dist² is measured on the current epoch's model).
    ///
    /// # Panics
    ///
    /// Panics if `x0`'s dimension differs from the oracle's.
    #[must_use]
    pub fn run_controlled(&self, x0: &[f64], ctrl: RunControl<'_>) -> NativeFullSgdReport {
        let d = self.oracle.dimension();
        assert_eq!(x0.len(), d, "x0 dimension mismatch");
        let total_epochs = self.cfg.halving_epochs + 1;

        // Per-epoch stores (flat or sharded per the tuning); epoch 0 seeded
        // with x₀, later epochs zeroed until their init winner copies the
        // predecessor in.
        let models: Vec<ParamStore> = (0..total_epochs)
            .map(|e| {
                if e == 0 {
                    ParamStore::with_tuning(x0, &self.tuning)
                } else {
                    ParamStore::zeros_with_tuning(d, &self.tuning)
                }
            })
            .collect();
        let snapshot = ParamStore::zeros_with_tuning(d, &self.tuning);
        let acc = ParamStore::zeros_with_tuning(d, &self.tuning);
        let counters: Vec<AtomicU64> = (0..total_epochs).map(|_| AtomicU64::new(0)).collect();
        let gates = EpochGate::chain(total_epochs);
        // Epoch 0 of a single-epoch run starts from x₀; pre-fill the
        // snapshot accordingly (no init race writes it in that case).
        if total_epochs == 1 {
            for (j, &v) in x0.iter().enumerate() {
                snapshot.write(j, v);
            }
        }
        let kernel = Kernel::new(&self.oracle, &self.tuning, ctrl);
        let use_sparse = kernel.use_sparse();
        let joined = kernel.spawn(self.cfg.threads, self.cfg.seed, |worker| {
            for (epoch, model) in models.iter().enumerate() {
                let is_final = epoch + 1 == total_epochs;
                gates[epoch].pass(|| {
                    // Winner: copy the predecessor (late epoch-(e−1) writes
                    // after this copy are dropped — the guard semantics).
                    for j in 0..d {
                        let v = models[epoch - 1].read(j);
                        model.write(j, v);
                        if is_final {
                            snapshot.write(j, v);
                        }
                    }
                });
                // EpochSGD on this epoch's model; the final epoch also sums
                // this worker's updates for `Acc`.
                let mut local = is_final.then(|| LocalAcc::new(use_sparse, d));
                let budget = Budget {
                    counter: &counters[epoch],
                    limit: self.cfg.epoch_iterations,
                    offset: epoch as u64 * self.cfg.epoch_iterations,
                };
                let alpha = self.cfg.alpha0 / (1u64 << epoch.min(63)) as f64;
                let policy = EpochApply {
                    writer: StoreWriter::new(model),
                    local: local.as_mut(),
                };
                let finished = worker.claims(&budget, alpha, policy);
                if let Some(local) = &local {
                    local.publish(&acc);
                }
                if !finished {
                    break;
                }
            }
        });

        // A run cancelled before the final epoch was initialised has an
        // untouched (all-zero) snapshot/Acc/final-model; report the deepest
        // *live* epoch's model instead, so cancelled reports always describe
        // real partial progress.
        let live_epoch = (0..total_epochs)
            .rev()
            .find(|&e| gates[e].is_ready())
            .unwrap_or(0);
        let (r, final_model) = if joined.cancelled && live_epoch + 1 < total_epochs {
            let live = models[live_epoch].snapshot();
            (live.clone(), live)
        } else {
            let snap = snapshot.snapshot();
            let acc_final = acc.snapshot();
            let r: Vec<f64> = snap.iter().zip(&acc_final).map(|(s, a)| s + a).collect();
            (r, models[total_epochs - 1].snapshot())
        };
        let dist_to_opt = asgd_math::vec::l2_dist(&r, self.oracle.minimizer());
        NativeFullSgdReport {
            r,
            final_model,
            dist_to_opt,
            elapsed: joined.elapsed,
            epochs: total_epochs,
            iterations: joined.per_thread.iter().sum(),
            used_sparse: use_sparse,
            cancelled: joined.cancelled,
        }
    }
}

/// A worker's final-epoch update sum: dense on the dense path, keyed by
/// index on the O(Δ) path, which materialises no O(d) vector.
enum LocalAcc {
    Dense(Vec<f64>),
    Sparse(BTreeMap<usize, f64>),
}

impl LocalAcc {
    fn new(use_sparse: bool, d: usize) -> Self {
        if use_sparse {
            Self::Sparse(BTreeMap::new())
        } else {
            Self::Dense(vec![0.0; d])
        }
    }

    fn add(&mut self, j: usize, delta: f64) {
        match self {
            Self::Dense(sum) => sum[j] += delta,
            Self::Sparse(sum) => *sum.entry(j).or_insert(0.0) += delta,
        }
    }

    /// Adds the sum into `acc` in ascending index order, skipping entries
    /// that net to zero — identical `Acc` arithmetic on either path
    /// (`BTreeMap` iterates keys ascending).
    fn publish(&self, acc: &ParamStore) {
        let add = |j: usize, a: f64| {
            if a != 0.0 {
                acc.fetch_add(j, a);
            }
        };
        match self {
            Self::Dense(sum) => sum.iter().enumerate().for_each(|(j, &a)| add(j, a)),
            Self::Sparse(sum) => sum.iter().for_each(|(&j, &a)| add(j, a)),
        }
    }
}

/// The epoch-store apply policy: `fetch&add` into the epoch's store and, in
/// the final epoch, into the worker's local sum as well.
struct EpochApply<'a> {
    writer: StoreWriter<'a>,
    local: Option<&'a mut LocalAcc>,
}

impl Apply for EpochApply<'_> {
    type Model = ParamStore;

    fn model(&self) -> &ParamStore {
        self.writer.model()
    }

    fn add(&mut self, j: usize, delta: f64) {
        self.writer.add(j, delta);
        if let Some(local) = &mut self.local {
            local.add(j, delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgd_oracle::NoisyQuadratic;
    use std::sync::Arc;

    #[test]
    fn r_reconstructs_final_model() {
        let oracle = Arc::new(NoisyQuadratic::new(3, 0.3).unwrap());
        let report = NativeFullSgd::new(
            Arc::clone(&oracle),
            NativeFullSgdConfig {
                alpha0: 0.2,
                epoch_iterations: 500,
                halving_epochs: 2,
                threads: 4,
                seed: 3,
            },
        )
        .run(&[1.0, -1.0, 0.5]);
        assert_eq!(report.epochs, 3);
        for j in 0..3 {
            assert!(
                (report.r[j] - report.final_model[j]).abs() < 1e-9,
                "entry {j}: r={} model={}",
                report.r[j],
                report.final_model[j]
            );
        }
    }

    #[test]
    fn halving_beats_fixed_alpha_noise_floor() {
        let oracle = Arc::new(NoisyQuadratic::new(1, 1.0).unwrap());
        let single = NativeFullSgd::new(
            Arc::clone(&oracle),
            NativeFullSgdConfig {
                alpha0: 0.5,
                epoch_iterations: 1_000,
                halving_epochs: 0,
                threads: 2,
                seed: 5,
            },
        )
        .run(&[4.0]);
        let halved = NativeFullSgd::new(
            Arc::clone(&oracle),
            NativeFullSgdConfig {
                alpha0: 0.5,
                epoch_iterations: 1_000,
                halving_epochs: 6,
                threads: 2,
                seed: 5,
            },
        )
        .run(&[4.0]);
        assert!(
            halved.dist_to_opt < single.dist_to_opt,
            "halving {} vs fixed {}",
            halved.dist_to_opt,
            single.dist_to_opt
        );
        assert!(halved.dist_to_opt < 0.25, "dist {}", halved.dist_to_opt);
    }

    #[test]
    fn single_epoch_uses_x0_snapshot() {
        let oracle = Arc::new(NoisyQuadratic::new(2, 0.0).unwrap());
        let report = NativeFullSgd::new(
            oracle,
            NativeFullSgdConfig {
                alpha0: 0.1,
                epoch_iterations: 200,
                halving_epochs: 0,
                threads: 2,
                seed: 1,
            },
        )
        .run(&[1.0, 1.0]);
        for j in 0..2 {
            assert!(
                (report.r[j] - report.final_model[j]).abs() < 1e-9,
                "entry {j} mismatch in single-epoch mode"
            );
        }
    }

    #[test]
    fn converges_with_many_threads() {
        let oracle = Arc::new(NoisyQuadratic::new(4, 0.5).unwrap());
        let report = NativeFullSgd::new(
            oracle,
            NativeFullSgdConfig {
                alpha0: 0.25,
                epoch_iterations: 2_000,
                halving_epochs: 5,
                threads: 8,
                seed: 11,
            },
        )
        .run(&[2.0, -2.0, 2.0, -2.0]);
        assert!(report.dist_to_opt < 0.5, "dist {}", report.dist_to_opt);
        assert!(report.elapsed > Duration::ZERO);
    }

    #[test]
    fn sparse_path_still_reconstructs_r() {
        // The r = snapshot + ΣAcc identity must hold on the O(Δ) path too:
        // local accumulation sees exactly the applied deltas either way.
        let oracle = Arc::new(asgd_oracle::SparseQuadratic::uniform(8, 1.0, 0.2).unwrap());
        let report = NativeFullSgd::new(
            oracle,
            NativeFullSgdConfig {
                alpha0: 0.05,
                epoch_iterations: 800,
                halving_epochs: 2,
                threads: 4,
                seed: 9,
            },
        )
        .run(&[1.0; 8]);
        assert!(report.used_sparse, "Auto selects sparse at Δ=1,d=8");
        for j in 0..8 {
            assert!(
                (report.r[j] - report.final_model[j]).abs() < 1e-9,
                "entry {j}: r={} model={}",
                report.r[j],
                report.final_model[j]
            );
        }
    }

    #[test]
    fn completed_runs_report_their_full_budget() {
        let oracle = Arc::new(NoisyQuadratic::new(2, 0.1).unwrap());
        let report = NativeFullSgd::new(
            oracle,
            NativeFullSgdConfig {
                alpha0: 0.1,
                epoch_iterations: 300,
                halving_epochs: 2,
                threads: 3,
                seed: 4,
            },
        )
        .run(&[1.0, -1.0]);
        assert_eq!(report.iterations, 900);
        assert!(!report.cancelled);
    }

    #[test]
    fn stop_flag_cancels_and_r_still_reconstructs_applied_updates() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let oracle = Arc::new(NoisyQuadratic::new(2, 0.1).unwrap());
        let flag = AtomicBool::new(false);
        // Single epoch so every applied update is accumulator-tracked; raise
        // the flag from the metrics callback after a few strides.
        let sink = |claim: u64, _d: f64| {
            if claim >= 64 {
                flag.store(true, Ordering::SeqCst);
            }
        };
        let report = NativeFullSgd::new(
            oracle,
            NativeFullSgdConfig {
                alpha0: 0.01,
                epoch_iterations: u64::MAX / 4,
                halving_epochs: 0,
                threads: 2,
                seed: 6,
            },
        )
        .run_controlled(
            &[1.0, -1.0],
            RunControl {
                stop: Some(&flag),
                metrics: Some(crate::control::MetricsSink {
                    stride: 16,
                    f: &sink,
                }),
                ..RunControl::default()
            },
        );
        assert!(report.cancelled);
        assert!(report.iterations < 100_000, "{}", report.iterations);
        // r = snapshot + ΣAcc must still reconstruct the final model.
        for j in 0..2 {
            assert!(
                (report.r[j] - report.final_model[j]).abs() < 1e-9,
                "entry {j}: r={} model={}",
                report.r[j],
                report.final_model[j]
            );
        }
    }

    #[test]
    #[should_panic(expected = "alpha0 must be positive")]
    fn rejects_bad_alpha() {
        let oracle = Arc::new(NoisyQuadratic::new(1, 0.0).unwrap());
        let _ = NativeFullSgd::new(
            oracle,
            NativeFullSgdConfig {
                alpha0: -1.0,
                epoch_iterations: 1,
                halving_epochs: 0,
                threads: 1,
                seed: 0,
            },
        );
    }
}

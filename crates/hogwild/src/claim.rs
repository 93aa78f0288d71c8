//! The claim-loop kernel every native executor runs.
//!
//! Algorithm 1 is one loop: claim an iteration with `fetch&add`, read an
//! inconsistent view, sample a gradient, apply it entry by entry with
//! `fetch&add`. Algorithm 2 runs the same loop once per epoch. This module
//! owns that loop and the threads that run it, so an executor only builds
//! its store, picks an apply policy and assembles its report.
//!
//! Worker `i` draws coin stream `i` of the run's seed and is pinned to core
//! `i` when the tuning asks for it. It claims against a budget whose claim
//! 0 has a global index, so epochs number their claims globally. Every
//! [`STRIDE`] claims it feeds the step-timing sink; the claim that finds
//! the budget exhausted feeds the sink the remaining steps, so it sees
//! every step. It checks the stop flag (every claim on the dense path,
//! every [`STRIDE`] claims on the sparse one), publishes a serving
//! snapshot when one is attached and due, checks the success region at the
//! same cadence as the stop flag, samples metrics at their own stride, and
//! takes one gradient step.
//!
//! A step pairs the gradient path (sparse or dense) with the executor's
//! apply policy: `StoreWriter` `fetch&add`, the model mutex, the guarded
//! epoch word, or the epoch store plus the final-epoch accumulator. The
//! loop is monomorphised per step, so the sparse hot path pays no dynamic
//! dispatch beyond the oracle's own.

use crate::control::RunControl;
use crate::shard::ParamStore;
use crate::snapshot::{ServeHook, SnapshotCell};
use crate::tuning::ExecTuning;
use asgd_math::rng::SeedSequence;
use asgd_oracle::{apply_dense_chunk, GradientOracle, ModelView, SparseGrad};
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Claims between two strided hook points. A worker feeds the step-timing
/// sink whenever its global claim index is a multiple of this, and the
/// sparse path checks the stop flag and samples the success region there.
/// Sparse-path cancellation latency is therefore at most one stride per
/// worker (dense claims, O(d) each, check every claim), and the O(d)
/// success check costs the sparse path O(d / 16) per claim.
pub const STRIDE: u64 = 16;

/// One claim counter and the part of the global claim index it covers.
pub(crate) struct Budget<'c> {
    /// The shared claim counter: `fetch&add` hands out `0, 1, 2, …`.
    pub counter: &'c AtomicU64,
    /// Claims granted before the budget is exhausted.
    pub limit: u64,
    /// Global claim index of this counter's claim 0.
    pub offset: u64,
}

/// Whole-model reads a claim needs besides the oracle's per-entry ones.
pub(crate) trait Scan: ModelView {
    /// Entry-by-entry inconsistent view scan (Algorithm 1 line 4).
    fn read_view(&self, view: &mut [f64]) {
        for (j, v) in view.iter_mut().enumerate() {
            *v = self.entry(j);
        }
    }

    /// `‖X − y‖²` streamed entry by entry: the reads and arithmetic of a
    /// view scan followed by `l2_dist_sq`, with no O(d) scratch. The sparse
    /// path's success and metrics samples use it.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != d`.
    fn dist_sq_to(&self, y: &[f64]) -> f64 {
        assert_eq!(y.len(), self.dimension(), "dist_sq_to dimension mismatch");
        y.iter()
            .enumerate()
            .map(|(j, &b)| {
                let a = self.entry(j);
                (a - b) * (a - b)
            })
            .sum()
    }
}

/// How a step's updates reach the shared model, one entry at a time.
pub(crate) trait Apply {
    /// The store the policy writes to.
    type Model: Scan;
    /// The model the step reads.
    fn model(&self) -> &Self::Model;
    /// Applies `delta` to entry `j`.
    fn add(&mut self, j: usize, delta: f64);
}

/// One claim's model access and gradient step.
pub(crate) trait Step {
    /// Whether the step reads a full view every claim; the stop and success
    /// checks then run every claim instead of every [`STRIDE`] claims.
    const DENSE: bool;
    /// Reads what this claim's hooks and gradient see.
    fn read(&mut self) {}
    /// `‖x − x*‖²` of what [`Step::read`] saw, or of the live model.
    fn dist_sq(&self, minimizer: &[f64]) -> f64;
    /// Samples one stochastic gradient and applies it.
    fn apply(&mut self, rng: &mut StdRng);
}

/// The O(Δ) gradient path: the oracle samples through per-entry reads of
/// the live model, and only the gradient's support is applied.
pub(crate) struct Sparse<'s, O, P> {
    pub oracle: &'s O,
    pub alpha: f64,
    pub grad: &'s mut SparseGrad,
    pub policy: P,
}

/// The dense gradient path: a full view scan per claim, a dense gradient,
/// and a chunked apply of its nonzero entries.
pub(crate) struct Dense<'s, O, P> {
    pub oracle: &'s O,
    pub alpha: f64,
    pub view: &'s mut [f64],
    pub grad: &'s mut [f64],
    pub policy: P,
}

impl<O: GradientOracle, P: Apply> Step for Sparse<'_, O, P> {
    const DENSE: bool = false;

    fn dist_sq(&self, minimizer: &[f64]) -> f64 {
        self.policy.model().dist_sq_to(minimizer)
    }

    fn apply(&mut self, rng: &mut StdRng) {
        self.oracle
            .sample_gradient_sparse(self.policy.model(), rng, self.grad);
        for &(j, gj) in self.grad.entries() {
            if gj != 0.0 {
                self.policy.add(j, -self.alpha * gj);
            }
        }
    }
}

impl<O: GradientOracle, P: Apply> Step for Dense<'_, O, P> {
    const DENSE: bool = true;

    fn read(&mut self) {
        self.policy.model().read_view(self.view);
    }

    fn dist_sq(&self, minimizer: &[f64]) -> f64 {
        asgd_math::vec::l2_dist_sq(self.view, minimizer)
    }

    fn apply(&mut self, rng: &mut StdRng) {
        self.oracle.sample_gradient(self.view, rng, self.grad);
        // Chunked delta computation: the same products in the same order,
        // skipping zero entries, as a scalar loop would apply.
        let policy = &mut self.policy;
        apply_dense_chunk(self.grad, -self.alpha, |j, delta| {
            add_cold(policy, j, delta)
        });
    }
}

/// [`Apply::add`] kept out of line for the dense path's d-entry zero scan:
/// inlined, the `fetch&add` and its shard routing bloat the scan so that it
/// no longer unrolls, which cut dense throughput at d = 1024 by ~30%.
#[inline(never)]
fn add_cold<P: Apply>(policy: &mut P, j: usize, delta: f64) {
    policy.add(j, delta);
}

/// A worker's gradient scratch, allocated once on the worker's own thread:
/// the sparse path never materialises an O(d) vector.
enum Scratch {
    Sparse(SparseGrad),
    Dense { view: Vec<f64>, grad: Vec<f64> },
}

/// The parts of a worker the claim loop advances.
struct Cursor {
    rng: StdRng,
    done: u64,
    last_tick: Instant,
    last_done: u64,
}

impl Cursor {
    /// Feeds the timing sink the steps applied since its last firing and
    /// the wall time they took: one `Instant` read per stride, plus one
    /// when the worker finds its budget exhausted.
    fn tick(&mut self, ctrl: &RunControl<'_>, claim: u64) {
        if ctrl.timing.is_some() && self.done > self.last_done {
            let now = Instant::now();
            let ns = now.duration_since(self.last_tick).as_nanos();
            ctrl.emit_timing(
                claim,
                ns.min(u128::from(u64::MAX)) as u64,
                self.done - self.last_done,
            );
            self.last_tick = now;
            self.last_done = self.done;
        }
    }
}

/// The run-wide state the workers share.
pub(crate) struct Kernel<'a, O> {
    oracle: &'a O,
    ctrl: RunControl<'a>,
    use_sparse: bool,
    pin: bool,
    /// Record the first global claim whose view lies within this `ε` of the
    /// minimizer (`None` checks nothing).
    pub success_radius_sq: Option<f64>,
    /// Publish the store into the cell at the hook's stride.
    pub publish: Option<(&'a ServeHook, &'a SnapshotCell, &'a ParamStore)>,
    first_success: AtomicU64,
    interrupted: AtomicBool,
}

/// What the joined workers report.
pub(crate) struct Joined {
    /// Steps each worker applied, by worker index.
    pub per_thread: Vec<u64>,
    /// Wall time from spawning the first worker to joining the last.
    pub elapsed: Duration,
    /// Smallest global claim index whose success check passed.
    pub first_success: Option<u64>,
    /// Whether a worker stopped on the stop flag.
    pub cancelled: bool,
}

impl<'a, O: GradientOracle> Kernel<'a, O> {
    /// A kernel over `oracle` that takes the gradient path `tuning` selects.
    pub fn new(oracle: &'a O, tuning: &ExecTuning, ctrl: RunControl<'a>) -> Self {
        Self {
            oracle,
            ctrl,
            use_sparse: tuning
                .sparse
                .use_sparse(oracle.dimension(), oracle.max_support()),
            pin: tuning.pin,
            success_radius_sq: None,
            publish: None,
            first_success: AtomicU64::new(u64::MAX),
            interrupted: AtomicBool::new(false),
        }
    }

    /// Whether the workers take the O(Δ) sparse path.
    pub fn use_sparse(&self) -> bool {
        self.use_sparse
    }

    /// Runs `work` on `threads` workers and joins them.
    ///
    /// # Panics
    ///
    /// Panics if a worker panicked.
    pub fn spawn(
        &self,
        threads: usize,
        seed: u64,
        work: impl Fn(&mut Worker<'_, 'a, O>) + Sync,
    ) -> Joined {
        let seeds = SeedSequence::new(seed);
        let d = self.oracle.dimension();
        let grad_cap = self.oracle.max_support().unwrap_or(1);
        let work = &work;
        let start = Instant::now();
        let per_thread = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|tid| {
                    let rng = seeds.child_rng(tid as u64);
                    scope.spawn(move || {
                        if self.pin {
                            let _ = crate::pin::pin_current_thread(tid);
                        }
                        let scratch = if self.use_sparse {
                            Scratch::Sparse(SparseGrad::with_capacity(grad_cap))
                        } else {
                            Scratch::Dense {
                                view: vec![0.0; d],
                                grad: vec![0.0; d],
                            }
                        };
                        let mut worker = Worker {
                            kernel: self,
                            scratch,
                            cursor: Cursor {
                                rng,
                                done: 0,
                                last_tick: Instant::now(),
                                last_done: 0,
                            },
                        };
                        work(&mut worker);
                        worker.cursor.done
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        });
        let hit = self.first_success.load(Ordering::SeqCst);
        Joined {
            per_thread,
            elapsed: start.elapsed(),
            first_success: (hit != u64::MAX).then_some(hit),
            cancelled: self.interrupted.load(Ordering::SeqCst),
        }
    }

    /// The claim loop. Returns `true` once `budget` is exhausted and `false`
    /// when the stop flag ended it.
    fn run<S: Step>(&self, cur: &mut Cursor, budget: &Budget<'_>, step: &mut S) -> bool {
        // Copied out once: the kernel holds atomics, so the compiler cannot
        // keep its fields in registers across the loop's opaque calls.
        let (ctrl, eps, publish) = (self.ctrl, self.success_radius_sq, self.publish);
        let minimizer = self.oracle.minimizer();
        loop {
            let claim = budget.counter.fetch_add(1, Ordering::SeqCst);
            if claim >= budget.limit {
                // Time the steps since the last strided claim too, so the
                // sink sees every step the worker applied.
                cur.tick(&ctrl, budget.offset + claim);
                return true;
            }
            let global = budget.offset + claim;
            let strided = global.is_multiple_of(STRIDE);
            if strided {
                cur.tick(&ctrl, global);
            }
            if (S::DENSE || strided) && ctrl.is_stopped() {
                self.interrupted.store(true, Ordering::SeqCst);
                return false;
            }
            if let Some((hook, cell, model)) = publish {
                if hook.publishes_at(global) {
                    // Tag with the claim counter at copy start, not this
                    // worker's claim, which can be arbitrarily stale if the
                    // worker was descheduled after claiming. With one worker
                    // the two coincide: x_claim exactly.
                    let progress = (budget.counter.load(Ordering::SeqCst) - 1).min(budget.limit);
                    // Notify inside the publish critical section, so
                    // versions reach the listener in increasing order.
                    let _ = cell.try_publish_notify(model, progress, |version, tag| {
                        hook.notify_published(version, tag);
                    });
                }
            }
            step.read();
            let at_success = eps.is_some() && (S::DENSE || strided);
            let at_metrics = ctrl.metrics_at(global);
            if at_success || at_metrics {
                let dist_sq = step.dist_sq(minimizer);
                if at_success && eps.is_some_and(|eps| dist_sq <= eps) {
                    self.first_success.fetch_min(global, Ordering::SeqCst);
                }
                if at_metrics {
                    ctrl.emit_metrics(global, dist_sq);
                }
            }
            step.apply(&mut cur.rng);
            cur.done += 1;
        }
    }
}

/// One worker thread: its coin stream, gradient scratch and step count.
pub(crate) struct Worker<'k, 'a, O> {
    kernel: &'k Kernel<'a, O>,
    scratch: Scratch,
    cursor: Cursor,
}

impl<O: GradientOracle> Worker<'_, '_, O> {
    /// Claims against `budget` at step size `alpha`, applying through
    /// `policy` on the kernel's gradient path. Returns `true` once the budget
    /// is exhausted and `false` when the stop flag ended the loop.
    pub fn claims<P>(&mut self, budget: &Budget<'_>, alpha: f64, policy: P) -> bool
    where
        for<'s> Sparse<'s, O, P>: Step,
        for<'s> Dense<'s, O, P>: Step,
    {
        let kernel = self.kernel;
        let oracle = kernel.oracle;
        match &mut self.scratch {
            Scratch::Sparse(grad) => kernel.run(
                &mut self.cursor,
                budget,
                &mut Sparse {
                    oracle,
                    alpha,
                    grad,
                    policy,
                },
            ),
            Scratch::Dense { view, grad } => kernel.run(
                &mut self.cursor,
                budget,
                &mut Dense {
                    oracle,
                    alpha,
                    view,
                    grad,
                    policy,
                },
            ),
        }
    }
}

const GATE_PENDING: u64 = 0;
const GATE_BUSY: u64 = 1;
const GATE_READY: u64 = 2;

/// The gate in front of an Algorithm-2 epoch: the worker that wins the CAS
/// initialises the epoch, and the others spin until it is ready.
pub(crate) struct EpochGate(AtomicU64);

impl EpochGate {
    /// One gate per epoch; epoch 0 needs no initialisation and starts ready.
    pub fn chain(epochs: usize) -> Vec<Self> {
        let state = |e| if e == 0 { GATE_READY } else { GATE_PENDING };
        (0..epochs)
            .map(|e| Self(AtomicU64::new(state(e))))
            .collect()
    }

    /// Runs `init` on the first worker to arrive; every worker returns once
    /// the epoch is ready.
    pub fn pass(&self, init: impl FnOnce()) {
        let seq = Ordering::SeqCst;
        let won = self.0.compare_exchange(GATE_PENDING, GATE_BUSY, seq, seq);
        if won.is_ok() {
            init();
            self.0.store(GATE_READY, seq);
        } else {
            while !self.is_ready() {
                std::hint::spin_loop();
            }
        }
    }

    /// Whether the epoch has been initialised.
    pub fn is_ready(&self) -> bool {
        self.0.load(Ordering::SeqCst) == GATE_READY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{MetricsSink, TimingSink};
    use crate::tuning::SparsePolicy;
    use crate::{
        GuardedEpochSgd, GuardedEpochSgdConfig, Hogwild, HogwildConfig, LockedSgd, NativeFullSgd,
        NativeFullSgdConfig,
    };
    use asgd_oracle::SparseQuadratic;
    use std::sync::{Arc, Mutex};

    /// The four native executors, as one test input.
    #[derive(Debug, Clone, Copy)]
    enum Exec {
        Hogwild,
        Locked,
        Guarded,
        FullSgd,
    }

    const EXECS: [Exec; 4] = [Exec::Hogwild, Exec::Locked, Exec::Guarded, Exec::FullSgd];
    const PATHS: [SparsePolicy; 2] = [SparsePolicy::ForceDense, SparsePolicy::ForceSparse];

    /// What the hook tests read back from a report.
    struct Ran {
        iterations: u64,
        used_sparse: bool,
        cancelled: bool,
    }

    /// Runs `exec` on a Δ = 1 quadratic at d = 16 for `iterations` claims.
    /// The epoch executors split them evenly over `epochs` epochs, so their
    /// hooks see global claim indices across epoch boundaries.
    fn run(
        exec: Exec,
        sparse: SparsePolicy,
        threads: usize,
        iterations: u64,
        epochs: usize,
        ctrl: RunControl<'_>,
    ) -> Ran {
        let oracle = Arc::new(SparseQuadratic::uniform(16, 1.0, 0.0).unwrap());
        let x0 = [1.0; 16];
        let tuning = ExecTuning {
            sparse,
            ..ExecTuning::default()
        };
        let (alpha, seed) = (0.01, 5);
        match exec {
            Exec::Hogwild => {
                let cfg = HogwildConfig {
                    threads,
                    iterations,
                    alpha,
                    seed,
                    success_radius_sq: None,
                };
                let r = Hogwild::new(oracle, cfg)
                    .tuning(tuning)
                    .run_controlled(&x0, ctrl);
                Ran {
                    iterations: r.iterations,
                    used_sparse: r.used_sparse,
                    cancelled: r.cancelled,
                }
            }
            Exec::Locked => {
                let r = LockedSgd::new(oracle, threads, iterations, alpha, seed)
                    .tuning(tuning)
                    .run_controlled(&x0, ctrl);
                Ran {
                    iterations: r.iterations,
                    used_sparse: r.used_sparse,
                    cancelled: r.cancelled,
                }
            }
            Exec::Guarded => {
                let cfg = GuardedEpochSgdConfig {
                    threads,
                    iterations,
                    alpha0: alpha,
                    halving_epochs: epochs - 1,
                    seed,
                    success_radius_sq: None,
                };
                let r = GuardedEpochSgd::new(oracle, cfg)
                    .tuning(tuning)
                    .run_controlled(&x0, ctrl);
                assert_eq!(r.epochs, epochs);
                Ran {
                    iterations: r.iterations,
                    used_sparse: r.used_sparse,
                    cancelled: r.cancelled,
                }
            }
            Exec::FullSgd => {
                assert_eq!(iterations % epochs as u64, 0, "even epoch split");
                let cfg = NativeFullSgdConfig {
                    alpha0: alpha,
                    epoch_iterations: iterations / epochs as u64,
                    halving_epochs: epochs - 1,
                    threads,
                    seed,
                };
                let r = NativeFullSgd::new(oracle, cfg)
                    .tuning(tuning)
                    .run_controlled(&x0, ctrl);
                assert_eq!(r.epochs, epochs);
                Ran {
                    iterations: r.iterations,
                    used_sparse: r.used_sparse,
                    cancelled: r.cancelled,
                }
            }
        }
    }

    #[test]
    fn metrics_sink_fires_at_exact_stride_multiples() {
        // 3 epochs of 70 claims: the sink's stride of 50 falls inside the
        // later epochs, so only global claim indices sample 100, 150, 200.
        for exec in EXECS {
            for sparse in PATHS {
                let samples: Mutex<Vec<(u64, f64)>> = Mutex::new(Vec::new());
                let sink = |claim: u64, dist_sq: f64| {
                    samples.lock().unwrap().push((claim, dist_sq));
                };
                let ctrl = RunControl {
                    metrics: Some(MetricsSink {
                        stride: 50,
                        f: &sink,
                    }),
                    ..RunControl::default()
                };
                let ran = run(exec, sparse, 2, 210, 3, ctrl);
                assert!(!ran.cancelled, "{exec:?}/{sparse:?}");
                assert_eq!(ran.iterations, 210, "{exec:?}/{sparse:?}");
                assert_eq!(ran.used_sparse, sparse == SparsePolicy::ForceSparse);
                let got = samples.into_inner().unwrap();
                let mut claims: Vec<u64> = got.iter().map(|&(c, _)| c).collect();
                claims.sort_unstable();
                assert_eq!(claims, [0, 50, 100, 150, 200], "{exec:?}/{sparse:?}");
                assert!(got.iter().all(|&(_, d)| d.is_finite() && d >= 0.0));
            }
        }
    }

    #[test]
    fn timing_sink_accounts_for_every_step() {
        // Each worker fires at its strided claims and at every claim that
        // finds a budget exhausted, so the sink sees every step whatever the
        // worker count. The epoch executors run 2 epochs of 5,000 claims.
        let (iterations, epochs) = (10_000, 2);
        for threads in [1, 2] {
            for exec in EXECS {
                for sparse in PATHS {
                    let observed_steps = AtomicU64::new(0);
                    let observed_ns = AtomicU64::new(0);
                    let unstrided = Mutex::new(Vec::new());
                    let sink = |claim: u64, ns: u64, steps: u64| {
                        if !claim.is_multiple_of(STRIDE) {
                            unstrided.lock().unwrap().push(claim);
                        }
                        observed_ns.fetch_add(ns, Ordering::Relaxed);
                        observed_steps.fetch_add(steps, Ordering::Relaxed);
                    };
                    let ctrl = RunControl {
                        timing: Some(TimingSink { f: &sink }),
                        ..RunControl::default()
                    };
                    let ran = run(exec, sparse, threads, iterations, epochs, ctrl);
                    let case = format!("{exec:?}/{sparse:?}/{threads} workers");
                    assert_eq!(ran.iterations, iterations, "{case}");
                    assert_eq!(observed_steps.into_inner(), iterations, "{case}");
                    assert!(observed_ns.into_inner() > 0, "{case}");
                    // Off the stride the sink fires only where a budget ran
                    // out: at most once per worker and epoch, never before
                    // the first epoch's end.
                    let unstrided = unstrided.into_inner().unwrap();
                    assert!(unstrided.len() <= threads * epochs, "{case}: {unstrided:?}");
                    assert!(
                        unstrided.iter().all(|&c| c >= iterations / epochs as u64),
                        "{case}: {unstrided:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pre_raised_stop_flag_ends_each_worker_within_one_stride() {
        // 4 epochs of 24 claims: workers that miss the early strided claims
        // cross epoch boundaries before their own strided claim stops them.
        let flag = AtomicBool::new(true);
        for exec in EXECS {
            for sparse in PATHS {
                let ctrl = RunControl {
                    stop: Some(&flag),
                    ..RunControl::default()
                };
                let threads = 4;
                let ran = run(exec, sparse, threads, 96, 4, ctrl);
                assert!(ran.cancelled, "{exec:?}/{sparse:?}");
                assert!(
                    ran.iterations <= threads as u64 * STRIDE,
                    "{exec:?}/{sparse:?}: {} claims",
                    ran.iterations
                );
            }
        }
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn spawn_pins_worker_zero_to_core_zero_when_asked() {
        // Pinning is best effort: nothing to check where this host cannot
        // pin a thread to core 0 at all.
        if !std::thread::spawn(|| crate::pin::pin_current_thread(0))
            .join()
            .unwrap()
        {
            return;
        }
        let oracle = SparseQuadratic::uniform(16, 1.0, 0.0).unwrap();
        let tuning = ExecTuning {
            pin: true,
            ..ExecTuning::default()
        };
        let allowed = Mutex::new(String::new());
        Kernel::new(&oracle, &tuning, RunControl::default()).spawn(1, 0, |_| {
            let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
            *allowed.lock().unwrap() = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .expect("procfs reports the affinity list")
                .trim()
                .to_string();
        });
        assert_eq!(allowed.into_inner().unwrap(), "0");
    }

    #[test]
    fn epoch_gate_runs_init_once_and_releases_every_worker() {
        let gates = EpochGate::chain(2);
        assert!(gates[0].is_ready() && !gates[1].is_ready());
        gates[0].pass(|| panic!("epoch 0 needs no initialisation"));
        let inits = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    gates[1].pass(|| {
                        inits.fetch_add(1, Ordering::SeqCst);
                    });
                    assert!(gates[1].is_ready(), "returned before the epoch was ready");
                });
            }
        });
        assert_eq!(inits.load(Ordering::SeqCst), 1);
    }
}

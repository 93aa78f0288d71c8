//! `train-cache` and `train-dram`: one pinned Hogwild worker on the
//! Δ = 1 sparse quadratic, through `run_spec`, at a model size that stays
//! in L2 and at one four times the L3.
//!
//! Each job is a fresh `run_spec` call on a seeded spec; its set-up is
//! building the spec (the all-ones `x0`) plus the driver's time outside
//! the executor's own clock. The traced run also times the layer calls the
//! claim loop makes, by making them itself on a store built the same way:
//! batches of gradient samples alone, and batches of sample-then-apply.

use crate::stats::median;
use crate::trace::Tracer;
use crate::{Args, Outcome};
use asgd_driver::{run_spec, BackendKind, PinSpec, RunSpec};
use asgd_hogwild::{ExecTuning, ParamStore, StoreWriter};
use asgd_math::rng::SeedSequence;
use asgd_oracle::{OracleSpec, SparseGrad};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One training workload's size and schedule.
#[derive(Debug)]
pub struct TrainWorkload {
    /// Model dimension `d`.
    dim: usize,
    /// Iterations per `run_spec` job.
    iters_per_job: u64,
    /// `α·d`: the per-touch contraction of the chosen coordinate. With
    /// `T/d` touches per coordinate, `final_dist_ratio ≈ exp(−T/d·(2αd − (αd)²))`.
    alpha_d: f64,
    /// Iterations of the bit-identity check against the sequential backend
    /// (which costs O(d) per iteration).
    prefix: u64,
    /// Untimed jobs run before measuring.
    warmup_jobs: usize,
    /// Sample/apply batches per traced probe pass.
    probe_batches: usize,
}

/// d = 65,536: a 512 KiB model that stays in a 1 MiB L2.
pub const CACHE: TrainWorkload = TrainWorkload {
    dim: 1 << 16,
    iters_per_job: 64 << 16,
    alpha_d: 1.0 / 128.0,
    prefix: 4096,
    warmup_jobs: 1,
    probe_batches: 64,
};

/// d = 16,777,216: a 128 MiB model, four times a 32 MiB L3.
pub const DRAM: TrainWorkload = TrainWorkload {
    dim: 1 << 24,
    iters_per_job: 1 << 24,
    alpha_d: 0.5,
    prefix: 16,
    warmup_jobs: 0,
    probe_batches: 48,
};

/// Calls per traced sample or sample-then-apply batch.
const PROBE_BATCH: u64 = 1 << 16;

/// Gradient noise σ of the sparse quadratic.
const SIGMA: f64 = 0.1;

impl TrainWorkload {
    fn spec(&self, seed: u64, x0: Vec<f64>) -> RunSpec {
        RunSpec::new(
            OracleSpec::new("sparse-quadratic", self.dim).sigma(SIGMA),
            BackendKind::Hogwild,
        )
        .threads(1)
        .pin(PinSpec::On)
        .iterations(self.iters_per_job)
        .learning_rate(self.alpha_d / self.dim as f64)
        .x0(x0)
        .seed(seed)
    }
}

/// One measured front-door job. The final model itself is not kept: at
/// d = 2^24 each one is 128 MiB.
struct Job {
    iterations: u64,
    stop: Option<String>,
    model_len: usize,
    final_dist_sq: f64,
    /// The executor's own clock, s.
    wall_time_secs: f64,
    /// Building the spec (its `x0`), s.
    build_s: f64,
    /// `run_spec` wall time, s.
    run_s: f64,
}

impl Job {
    fn iters_per_s(&self) -> f64 {
        self.iterations as f64 / self.wall_time_secs
    }

    fn overhead_s(&self) -> f64 {
        self.run_s - self.wall_time_secs
    }

    fn setup_s(&self) -> f64 {
        self.build_s + self.overhead_s()
    }
}

/// Builds a spec and runs it through the front door. With a tracer, the
/// `run_spec` call gets a `driver.run_spec` span whose child is the
/// executor's own clock, so the span's self time is the driver overhead.
fn job(
    w: &TrainWorkload,
    spec_of: impl FnOnce(Vec<f64>) -> RunSpec,
    tracer: Option<&mut Tracer>,
) -> Result<Job, String> {
    let t0 = Instant::now();
    let spec = spec_of(vec![1.0; w.dim]);
    let t1 = Instant::now();
    let (report, t2) = match tracer {
        None => (run_spec(&spec), Instant::now()),
        Some(tracer) => {
            let root = tracer.open("driver.run_spec", None, None);
            let report = run_spec(&spec);
            let t2 = Instant::now();
            if let Ok(r) = &report {
                let busy = Duration::from_secs_f64(r.wall_time_secs);
                tracer.record_busy(
                    "hogwild.run",
                    Some(root),
                    (t1, t2),
                    busy,
                    r.iterations,
                    None,
                );
            }
            tracer.close(root, 1);
            (report, t2)
        }
    };
    let report = report.map_err(|e| e.to_string())?;
    Ok(Job {
        iterations: report.iterations,
        stop: report.stop,
        model_len: report.final_model.len(),
        final_dist_sq: report.final_dist_sq,
        wall_time_secs: report.wall_time_secs,
        build_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
    })
}

/// Checks one job ran its whole budget and left a finite model.
fn check_job(out: &mut Outcome, w: &TrainWorkload, budget: u64, job: &Result<Job, String>) {
    out.check(
        job.as_ref().is_ok_and(|j| {
            j.iterations == budget
                && j.stop.is_none()
                && j.model_len == w.dim
                && j.final_dist_sq.is_finite()
        }),
        || match job {
            Ok(j) => format!(
                "job ran {} of {budget} iterations (stop {:?}, dist² {})",
                j.iterations, j.stop, j.final_dist_sq
            ),
            Err(e) => format!("run_spec failed: {e}"),
        },
    );
}

pub fn run(w: &TrainWorkload, args: &Args, tracer: Option<&mut Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let seeds = SeedSequence::new(args.seed);
    for i in 0..w.warmup_jobs {
        let warm = job(
            w,
            |x0| w.spec(seeds.child_seed(u64::MAX - i as u64), x0),
            None,
        );
        check_job(&mut out, w, w.iters_per_job, &warm);
    }
    match tracer {
        None => measure(w, args, &seeds, &mut out),
        Some(tracer) => traced(w, args, &seeds, tracer, &mut out),
    }
    check_prefix(w, args.seed, &mut out);
    out
}

/// Runs seeded jobs until the window closes; reports medians over jobs.
fn measure(w: &TrainWorkload, args: &Args, seeds: &SeedSequence, out: &mut Outcome) {
    let deadline = Instant::now() + args.window();
    let mut jobs = Vec::new();
    let mut index = 0;
    while jobs.is_empty() || Instant::now() < deadline {
        let j = job(w, |x0| w.spec(seeds.child_seed(index), x0), None);
        check_job(out, w, w.iters_per_job, &j);
        index += 1;
        match j {
            Ok(j) => jobs.push(j),
            Err(_) => break,
        }
    }
    let rate = median(&jobs.iter().map(Job::iters_per_s).collect::<Vec<_>>());
    // x* = 0 and x0 = 1, so ‖x0 − x*‖² = d.
    let ratio = median(
        &jobs
            .iter()
            .map(|j| j.final_dist_sq / w.dim as f64)
            .collect::<Vec<_>>(),
    );
    out.e2e.insert("ops_per_s", rate);
    out.e2e.insert("dist_ratio", ratio);
    out.e2e.insert(
        "setup_s",
        median(&jobs.iter().map(Job::setup_s).collect::<Vec<_>>()),
    );
    out.figure("train_iters_per_s", rate);
    out.figure("final_dist_ratio", ratio);
    out.figure("jobs", jobs.len() as f64);
    out.figure(
        "driver_overhead_s",
        median(&jobs.iter().map(Job::overhead_s).collect::<Vec<_>>()),
    );
}

/// The traced run: front-door jobs with spans around `run_spec` (every
/// other job without, for the tracing overhead), then the layer calls of
/// the claim loop made directly, then one two-worker job for information.
fn traced(
    w: &TrainWorkload,
    args: &Args,
    seeds: &SeedSequence,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let start = Instant::now();
    let front_door_until = start + args.window().mul_f64(0.5);
    let step_hist = asgd_telemetry::global().histogram("asgd_hogwild_step_ns");
    let (count0, sum0) = (step_hist.count(), step_hist.sum());
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let (mut iterations, mut wall_s) = (0, 0.0);
    let mut index = 0;
    while plain.is_empty() || spanned.is_empty() || Instant::now() < front_door_until {
        let traced_job = index % 2 == 1;
        let spec_of = |x0| w.spec(seeds.child_seed(index), x0);
        let j = job(w, spec_of, traced_job.then_some(&mut *tracer));
        check_job(out, w, w.iters_per_job, &j);
        index += 1;
        let Ok(j) = j else { break };
        iterations += j.iterations;
        wall_s += j.wall_time_secs;
        if traced_job {
            spanned.push(j.iters_per_s());
        } else {
            plain.push(j.iters_per_s());
        }
    }
    let (count1, sum1) = (step_hist.count(), step_hist.sum());
    let step_mean_ns = (sum1 - sum0) as f64 / (count1 - count0).max(1) as f64;
    // The histogram saw every job of this phase: compare it with the same
    // jobs' time per iteration.
    let phase_ns = wall_s * 1e9 / iterations as f64;
    out.check((step_mean_ns / phase_ns - 1.0).abs() <= 0.15, || {
        format!(
            "asgd_hogwild_step_ns mean {step_mean_ns} ns disagrees with {phase_ns} ns/iteration"
        )
    });
    let untraced_ns = 1e9 / median(&plain);

    let probe_until = start + args.window().mul_f64(0.85);
    let mut pass = 0;
    while pass == 0 || Instant::now() < probe_until {
        probe_claim_loop(w, seeds.child_seed(1 << 32 | pass), tracer);
        pass += 1;
    }

    let two = job(
        w,
        |x0| w.spec(seeds.child_seed(1 << 33), x0).threads(2),
        None,
    );
    check_job(out, w, w.iters_per_job, &two);

    let sample = tracer.total("oracle.sample").self_per_call_ns();
    let apply = tracer.total("hogwild.step_body").self_per_call_ns() - sample;
    let mean_s = |name: &str| tracer.total(name).self_per_call_ns() / 1e9;
    out.layers
        .insert("driver.overhead_s", mean_s("driver.run_spec"));
    out.layers.insert("oracle.build_s", mean_s("oracle.build"));
    out.layers
        .insert("hogwild.store_init_s", mean_s("hogwild.store_init"));
    out.layers
        .insert("hogwild.final_copy_s", mean_s("hogwild.final_copy"));
    out.layers.insert("oracle.sample_ns", sample);
    out.layers.insert("hogwild.apply_ns", apply);
    out.layers
        .insert("hogwild.unattributed_ns", untraced_ns - sample - apply);
    out.layers.insert("telemetry.step_mean_ns", step_mean_ns);
    out.layers.insert(
        "hogwild.two_worker_iters_per_s",
        two.as_ref().map_or(0.0, Job::iters_per_s),
    );
    out.layers.insert(
        "trace.overhead_pct",
        (median(&plain) / median(&spanned) - 1.0) * 100.0,
    );
    out.figure("train_iters_per_s", median(&plain));
    out.figure("probe_passes", pass as f64);
}

/// Makes the claim loop's layer calls directly: builds the oracle and the
/// store as the driver and executor do, runs alternating batches of
/// `sample_gradient_sparse` alone and of sample-then-`fetch_add`, and
/// takes the final copy. Worker 0's coin stream, as in the real run.
fn probe_claim_loop(w: &TrainWorkload, seed: u64, tracer: &mut Tracer) {
    let spec = w.spec(seed, vec![1.0; w.dim]);
    let alpha = w.alpha_d / w.dim as f64;
    let t = Instant::now();
    let oracle = spec
        .oracle
        .build()
        .expect("the workload's oracle spec is valid");
    tracer.record("oracle.build", None, t, Instant::now(), 1, None);
    let tuning = ExecTuning {
        pin: true,
        ..ExecTuning::default()
    };
    let x0 = spec.x0.as_deref().expect("the workload sets x0");
    let t = Instant::now();
    let store = ParamStore::with_tuning(x0, &tuning);
    tracer.record("hogwild.store_init", None, t, Instant::now(), 1, None);
    let mut rng = SeedSequence::new(seed).child_rng(0);
    let mut grad = SparseGrad::with_capacity(1);
    let mut writer = StoreWriter::new(&store);
    for _ in 0..w.probe_batches {
        let t = Instant::now();
        for _ in 0..PROBE_BATCH {
            oracle.sample_gradient_sparse(&store, &mut rng, &mut grad);
            black_box(&grad);
        }
        tracer.record("oracle.sample", None, t, Instant::now(), PROBE_BATCH, None);
        let t = Instant::now();
        for _ in 0..PROBE_BATCH {
            oracle.sample_gradient_sparse(&store, &mut rng, &mut grad);
            for &(j, gj) in grad.entries() {
                if gj != 0.0 {
                    writer.fetch_add(j, -alpha * gj);
                }
            }
        }
        tracer.record(
            "hogwild.step_body",
            None,
            t,
            Instant::now(),
            PROBE_BATCH,
            None,
        );
    }
    drop(writer);
    let t = Instant::now();
    let copy = store.snapshot();
    tracer.record("hogwild.final_copy", None, t, Instant::now(), 1, None);
    black_box(copy);
}

/// The repository's invariant, on a prefix: one-worker Hogwild is
/// bit-identical to the sequential backend on the same spec.
fn check_prefix(w: &TrainWorkload, seed: u64, out: &mut Outcome) {
    let spec = w
        .spec(SeedSequence::new(seed).child_seed(0), vec![1.0; w.dim])
        .iterations(w.prefix);
    let hogwild = run_spec(&spec);
    // Moving the spec, not cloning it: at d = 2^24 a copy of x0 would
    // raise the peak RSS the run reports above the training job's.
    let sequential = run_spec(&spec.backend(BackendKind::Sequential));
    out.check(
        match (&hogwild, &sequential) {
            (Ok(h), Ok(s)) => {
                h.iterations == w.prefix
                    && s.iterations == w.prefix
                    && h.final_model.len() == s.final_model.len()
                    && h.final_model
                        .iter()
                        .zip(&s.final_model)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }
            _ => false,
        },
        || {
            format!(
                "one-worker hogwild differs from sequential on a {}-iteration prefix",
                w.prefix
            )
        },
    );
}

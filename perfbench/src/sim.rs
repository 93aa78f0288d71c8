//! `sim-adversary`: the simulated lock-free machine through `run_spec` —
//! noisy quadratic, d = 16, 8 simulated threads, the `delay:8`
//! bounded-delay adversary, x0 = all ones, ε = 0.01. Single-threaded and
//! deterministic: the path every validation cell and paper table takes.
//!
//! Each job is one seeded `run_spec` call; set-up is building its spec
//! plus the driver's time outside the simulation's own clock. The traced
//! run also assembles the same engine from `EngineBuilder` with a timing
//! wrapper around the scheduler and around each `EpochSgdProcess`, and
//! checks it reproduces the front door's fingerprint.

use crate::stats::median;
use crate::trace::Tracer;
use crate::{Args, Outcome};
use asgd_core::{EpochSgdConfig, EpochSgdProcess, HittingMonitor};
use asgd_driver::{run_spec, BackendKind, RunSpec, SchedulerSpec};
use asgd_math::rng::SeedSequence;
use asgd_oracle::OracleSpec;
use asgd_shmem::{Action, Decision, Engine, Memory, Process, ProcessCtx, SchedView, Scheduler};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIM: usize = 16;
const THREADS: usize = 8;
/// The adversary's contention budget τ.
const DELAY: u64 = 8;
const EPS: f64 = 0.01;
const ALPHA: f64 = 0.05;
const SIGMA: f64 = 0.1;
/// Iterations per job: the run continues well past the hitting time.
const ITERS: u64 = 2000;

fn spec(seed: u64) -> RunSpec {
    RunSpec::new(
        OracleSpec::new("noisy-quadratic", DIM).sigma(SIGMA),
        BackendKind::SimulatedLockFree,
    )
    .threads(THREADS)
    .iterations(ITERS)
    .learning_rate(ALPHA)
    .x0(vec![1.0; DIM])
    .success_radius_sq(EPS)
    .scheduler(SchedulerSpec::BoundedDelay { budget: DELAY })
    .seed(seed)
}

/// One front-door job, kept as the few numbers the run reports (a run
/// holds thousands; keeping whole reports would make peak RSS follow
/// throughput).
struct Job {
    iterations: u64,
    wall_time_secs: f64,
    /// The report's stop label was `all-done`.
    all_done: bool,
    fingerprint: Option<u64>,
    hit_iteration: Option<u64>,
    final_dist_sq: f64,
    steps: Option<u64>,
    tau_max: f64,
    tau_avg: f64,
    /// Spec build plus driver time outside the simulation's clock, s.
    setup_s: f64,
}

impl Job {
    fn iters_per_s(&self) -> f64 {
        self.iterations as f64 / self.wall_time_secs
    }
}

fn job(seed: u64, tracer: Option<&mut Tracer>) -> Result<Job, String> {
    let t0 = Instant::now();
    let spec = spec(seed);
    let t1 = Instant::now();
    let root = tracer.map(|t| (t.open("driver.run_spec", None, None), t));
    let report = run_spec(&spec).map_err(|e| e.to_string());
    let t2 = Instant::now();
    if let Some((root, tracer)) = root {
        if let Ok(r) = &report {
            let busy = Duration::from_secs_f64(r.wall_time_secs);
            tracer.record_busy(
                "core.engine_run",
                Some(root),
                (t1, t2),
                busy,
                r.iterations,
                None,
            );
        }
        tracer.close(root, 1);
    }
    let r = report?;
    Ok(Job {
        iterations: r.iterations,
        wall_time_secs: r.wall_time_secs,
        all_done: r.stop.as_deref() == Some("all-done"),
        fingerprint: r.fingerprint,
        hit_iteration: r.hit_iteration,
        final_dist_sq: r.final_dist_sq,
        steps: r.steps,
        tau_max: r.contention.as_ref().map_or(f64::NAN, |c| c.tau_max as f64),
        tau_avg: r.contention.as_ref().map_or(f64::NAN, |c| c.tau_avg),
        setup_s: (t1 - t0).as_secs_f64() + (t2 - t1).as_secs_f64() - r.wall_time_secs,
    })
}

fn check_job(out: &mut Outcome, job: &Result<Job, String>) {
    out.check(
        job.as_ref().is_ok_and(|j| {
            j.iterations == ITERS
                && j.all_done
                && j.fingerprint.is_some()
                && j.hit_iteration.is_some()
                && j.final_dist_sq.is_finite()
        }),
        || match job {
            Ok(j) => format!(
                "simulated job: {} of {ITERS} iterations, all-done {}, hit {:?}",
                j.iterations, j.all_done, j.hit_iteration
            ),
            Err(e) => format!("run_spec failed: {e}"),
        },
    );
}

/// Runs seeded jobs until `until`; the first is always run.
fn jobs_until(
    seeds: &SeedSequence,
    until: Instant,
    out: &mut Outcome,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Job> {
    let mut jobs = Vec::new();
    let mut index = 0;
    while jobs.is_empty() || Instant::now() < until {
        let j = job(seeds.child_seed(index), tracer.as_deref_mut());
        check_job(out, &j);
        index += 1;
        match j {
            Ok(j) => jobs.push(j),
            Err(_) => break,
        }
    }
    jobs
}

fn medians(jobs: &[Job], f: impl Fn(&Job) -> f64) -> f64 {
    median(&jobs.iter().map(f).collect::<Vec<_>>())
}

pub fn run(args: &Args, tracer: Option<&mut Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let seeds = SeedSequence::new(args.seed);
    let start = Instant::now();
    let share = if tracer.is_some() { 0.4 } else { 1.0 };
    let jobs = jobs_until(&seeds, start + args.window().mul_f64(share), &mut out, None);
    // Determinism: the first job's spec reproduces fingerprint and hit.
    let again = job(seeds.child_seed(0), None);
    out.check(
        again.as_ref().is_ok_and(|a| {
            a.fingerprint == jobs[0].fingerprint && a.hit_iteration == jobs[0].hit_iteration
        }),
        || "the same seed did not reproduce fingerprint and hitting iteration".to_string(),
    );
    let rate = medians(&jobs, Job::iters_per_s);
    let hit = medians(&jobs, |j| j.hit_iteration.map_or(f64::NAN, |h| h as f64));
    let ratio = medians(&jobs, |j| j.final_dist_sq / DIM as f64);
    let steps = medians(&jobs, |j| {
        j.steps.map_or(f64::NAN, |s| s as f64) / j.iterations as f64
    });
    let tau_max = medians(&jobs, |j| j.tau_max);
    let tau_avg = medians(&jobs, |j| j.tau_avg);
    out.e2e.insert("ops_per_s", rate);
    out.e2e.insert("dist_ratio", ratio);
    out.e2e.insert("setup_s", medians(&jobs, |j| j.setup_s));
    out.figure("sim_iters_per_s", rate);
    out.figure("sim_iters_to_eps", hit);
    out.figure("final_dist_ratio", ratio);
    out.figure("steps_per_iter", steps);
    out.figure("jobs", jobs.len() as f64);
    out.layers.insert("shmem.steps_per_iter", steps);
    out.layers.insert("shmem.tau_max", tau_max);
    out.layers.insert("shmem.tau_avg", tau_avg);
    out.layers.insert("core.iters_to_eps", hit);
    if let Some(tracer) = tracer {
        traced(args, &seeds, &jobs, rate, tracer, &mut out);
    }
    out
}

/// Accumulated busy time and calls of a timing wrapper.
#[derive(Default)]
struct Busy {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl Busy {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns.set(self.ns.get() + t.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        r
    }
}

/// Times every `Scheduler::decide` call of the wrapped adversary.
struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    busy: Rc<Busy>,
}

impl Scheduler for TimedScheduler {
    fn decide(&mut self, view: &SchedView<'_>) -> Decision {
        let inner = &mut self.inner;
        self.busy.time(|| inner.decide(view))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Times every poll of the wrapped process.
struct TimedProcess<P> {
    inner: P,
    busy: Rc<Busy>,
}

impl<P: Process> Process for TimedProcess<P> {
    fn poll(&mut self, ctx: &mut ProcessCtx<'_>) -> Action {
        let inner = &mut self.inner;
        self.busy.time(|| inner.poll(ctx))
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// The traced run's second half: front-door jobs with spans around
/// `run_spec`, then the same jobs assembled from `EngineBuilder` with
/// per-call timing of the scheduler and the processes.
fn traced(
    args: &Args,
    seeds: &SeedSequence,
    plain: &[Job],
    untraced_rate: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let empty_ns = crate::env::empty_span_ns();
    let until = Instant::now() + args.window().mul_f64(0.2);
    jobs_until(seeds, until, out, Some(tracer));
    let until = Instant::now() + args.window().mul_f64(0.3);
    let (mut iterations, mut engine_ns) = (0u64, 0u64);
    let mut index = 0;
    while index == 0 || (Instant::now() < until && index < plain.len()) {
        let front = &plain[index];
        let spec = spec(seeds.child_seed(index as u64));
        let t = Instant::now();
        let oracle = spec
            .oracle
            .build()
            .expect("the workload's oracle spec is valid");
        tracer.record("oracle.build", None, t, Instant::now(), 1, None);
        let x0 = spec.x0.clone().expect("the workload sets x0");
        let (sched, process) = (Rc::new(Busy::default()), Rc::new(Busy::default()));
        let mut builder = Engine::builder()
            .memory(Memory::with_model(&x0, 1))
            .scheduler(TimedScheduler {
                inner: spec.scheduler.build(),
                busy: Rc::clone(&sched),
            })
            .seed(spec.seed);
        for _ in 0..THREADS {
            builder = builder.process(TimedProcess {
                inner: EpochSgdProcess::new(
                    Arc::clone(&oracle),
                    EpochSgdConfig::simple(ALPHA, ITERS),
                ),
                busy: Rc::clone(&process),
            });
        }
        let monitor = HittingMonitor::new(THREADS, x0, oracle.minimizer().to_vec(), EPS).shared();
        let observer = Rc::clone(&monitor);
        builder = builder.observer(move |ev| observer.borrow_mut().observe(ev));
        let root = tracer.open("shmem.engine", None, None);
        let t = Instant::now();
        let execution = builder.build().run();
        let end = Instant::now();
        for (name, busy) in [("shmem.decide", &sched), ("core.poll", &process)] {
            let ns = Duration::from_nanos(busy.ns.get());
            tracer.record_busy(name, Some(root), (t, end), ns, busy.calls.get(), None);
        }
        tracer.close(root, 1);
        engine_ns += (end - t).as_nanos() as u64;
        iterations += execution.contention.iterations();
        out.check(
            Some(execution.fingerprint) == front.fingerprint
                && monitor.borrow().hit_iteration() == front.hit_iteration,
            || format!("engine assembled from EngineBuilder diverged from run_spec on job {index}"),
        );
        index += 1;
    }
    let per_iter = |name: &str| {
        let t = tracer.total(name);
        (t.busy_ns as f64 - t.calls as f64 * empty_ns) / iterations as f64
    };
    let sched_ns = per_iter("shmem.decide");
    let process_ns = per_iter("core.poll");
    let untraced_ns = 1e9 / untraced_rate;
    out.layers.insert("shmem.sched_ns", sched_ns);
    out.layers.insert("core.process_ns", process_ns);
    out.layers
        .insert("shmem.unattributed_ns", untraced_ns - sched_ns - process_ns);
    out.layers.insert(
        "driver.overhead_s",
        tracer.total("driver.run_spec").self_per_call_ns() / 1e9,
    );
    out.layers.insert(
        "oracle.build_s",
        tracer.total("oracle.build").self_per_call_ns() / 1e9,
    );
    out.layers.insert(
        "trace.overhead_pct",
        (engine_ns as f64 / iterations as f64 / untraced_ns - 1.0) * 100.0,
    );
    out.figure("traced_engine_jobs", index as f64);
}

//! `serve-mixed`: a streaming model (`ModelRegistry::create_streaming`,
//! prior `flat`, d = 1,024, snapshot reads, one pinned trainer) behind
//! `NetServer` on loopback, driven by one closed-loop connection from a
//! benchmark thread pinned to the other core. The loop sends three
//! `dot_score` reads (16-entry probes) per `submit_observe` write (8
//! features, labelled by the benchmark's seeded ground truth), and times
//! every request.
//!
//! Set-up is standing the stack up (registry, model, server, connection)
//! until the first reply; it is repeated and torn down to take a median.
//! Once measuring ends, the queue drains, training is cancelled, and the
//! quiescent model is checked bit for bit against `fetch_range`.
//!
//! The traced run first repeats the untraced loop (the baseline the layer
//! parts must add up to), then runs the same traffic through a client
//! that spans `RequestFrame::encode`, the socket exchange and
//! `Response::decode`, with rounds of the server's own layer calls made
//! directly between requests.

use crate::stats::{median, Latencies};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use asgd_driver::{BackendKind, PinSpec, RunSpec};
use asgd_math::gaussian::standard_normal;
use asgd_math::rng::SeedSequence;
use asgd_net::{
    read_frame, write_frame, LoadShedder, NetClient, NetConfig, NetServer, Priority, Request,
    RequestFrame, Response, SloPolicy, MAX_FRAME_LEN,
};
use asgd_oracle::{BackpressurePolicy, IngressQueue, Observation, OracleSpec};
use asgd_serve::{ModelEntry, ModelId, ModelRegistry, ReadMode};
use rand::Rng;
use std::hint::black_box;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Model dimension `d`.
const DIM: usize = 1024;
/// Coordinates per `dot_score` probe.
const PROBE_LEN: usize = 16;
/// Features per observation.
const FEATURES: usize = 8;
/// Distinct probes generated from the seed, then cycled.
const PROBES: usize = 4096;
/// Distinct observations generated from the seed, then cycled. With
/// n = 2^16 labelled rows the least-squares error of the finite sample
/// (about σ²·d²/n) stays well under the SGD noise floor, so `dist_ratio`
/// barely depends on which rows a seed drew.
const OBSERVATIONS: usize = 1 << 16;
/// Every fourth request is a write.
const WRITE_EVERY: usize = 4;
/// The trainer publishes a snapshot every this many claims.
const PUBLISH_STRIDE: u64 = 4096;
const QUEUE_CAPACITY: usize = 4096;
/// Least-squares step size of the trainer.
const ALPHA: f64 = 0.25;
/// Label noise σ of the observations.
const LABEL_NOISE: f64 = 0.1;
/// Stack set-ups per run (the last one is measured on).
const SETUP_REPS: usize = 41;
/// Untimed closed-loop warm-up.
const WARMUP: Duration = Duration::from_millis(250);
/// The served model's distance to the ground truth is sampled every this
/// many requests.
const DIST_EVERY: usize = 4096;
/// Traced run: a round of direct layer calls every this many requests.
const PROBE_EVERY: usize = 64;
/// Traced run: a telemetry scrape every this many requests.
const SCRAPE_EVERY: usize = 4096;
/// Calls per timed batch in a probe round.
const PROBE_CALLS: u32 = 8;
/// The model's name in the registry.
const MODEL: &str = "perfbench";

/// Everything the program receives, generated from the seed.
struct Inputs {
    /// Ground-truth weights the labels come from.
    truth: Vec<f64>,
    probes: Vec<Vec<(u32, f64)>>,
    observations: Vec<(Vec<(u32, f64)>, f64)>,
}

/// `n` distinct coordinates of `0..DIM`.
fn support(rng: &mut impl Rng, n: usize) -> Vec<u32> {
    let mut idx: Vec<u32> = Vec::with_capacity(n);
    while idx.len() < n {
        let j = rng.gen_range(0..DIM as u32);
        if !idx.contains(&j) {
            idx.push(j);
        }
    }
    idx
}

fn inputs(seed: u64) -> Inputs {
    let seeds = SeedSequence::new(seed);
    let mut rng = seeds.child_rng(0);
    // Normalised to ‖w*‖² = d, so `dist_ratio` does not carry the seed's
    // chi-square draw of the norm.
    let mut truth: Vec<f64> = (0..DIM).map(|_| standard_normal(&mut rng)).collect();
    let scale_to_d = (DIM as f64 / truth.iter().map(|w| w * w).sum::<f64>()).sqrt();
    truth.iter_mut().for_each(|w| *w *= scale_to_d);
    let probes = (0..PROBES)
        .map(|_| {
            support(&mut rng, PROBE_LEN)
                .into_iter()
                .map(|j| (j, standard_normal(&mut rng)))
                .collect()
        })
        .collect();
    let scale = (FEATURES as f64).sqrt().recip();
    let observations = (0..OBSERVATIONS)
        .map(|_| {
            let features: Vec<(u32, f64)> = support(&mut rng, FEATURES)
                .into_iter()
                .map(|j| (j, scale * standard_normal(&mut rng)))
                .collect();
            let label = features
                .iter()
                .map(|&(j, a)| a * truth[j as usize])
                .sum::<f64>()
                + LABEL_NOISE * standard_normal(&mut rng);
            (features, label)
        })
        .collect();
    Inputs {
        truth,
        probes,
        observations,
    }
}

impl Inputs {
    fn probe(&self, request: usize) -> &[(u32, f64)] {
        &self.probes[request % PROBES]
    }

    fn observation(&self, request: usize) -> &(Vec<(u32, f64)>, f64) {
        &self.observations[(request / WRITE_EVERY) % OBSERVATIONS]
    }
}

fn is_write(request: usize) -> bool {
    request % WRITE_EVERY == WRITE_EVERY - 1
}

/// A running stack: registry with the streaming model, and the server.
struct Stack {
    registry: Arc<ModelRegistry>,
    server: NetServer,
    id: u32,
    entry: Arc<ModelEntry>,
}

impl Stack {
    fn queue(&self) -> &IngressQueue {
        self.entry
            .ingress()
            .expect("a streaming model has an ingress queue")
    }

    /// Stops the server, then every training run.
    fn tear_down(self) -> Result<(), String> {
        self.server.stop();
        for (name, outcome) in self.registry.shutdown() {
            outcome.map_err(|e| format!("model {name}: {e}"))?;
        }
        Ok(())
    }
}

fn train_spec(seed: u64) -> RunSpec {
    RunSpec::new(OracleSpec::new("flat", DIM), BackendKind::Hogwild)
        .threads(1)
        .pin(PinSpec::On)
        // Runs until cancelled: far more claims than a run can make.
        .iterations(1 << 40)
        .learning_rate(ALPHA)
        .seed(seed)
}

/// Stands the stack up and connects, until the first reply.
fn stand_up(seed: u64, tracer: Option<&mut Tracer>) -> Result<(Stack, NetClient), String> {
    let mut tracer = tracer;
    let mut span = |name: &'static str, t: Instant| {
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.record(name, None, t, Instant::now(), 1, None);
        }
    };
    let t = Instant::now();
    let registry = Arc::new(ModelRegistry::new());
    let id = registry
        .create_streaming(
            MODEL,
            &train_spec(seed),
            ReadMode::Snapshot,
            PUBLISH_STRIDE,
            QUEUE_CAPACITY,
            BackpressurePolicy::Reject,
        )
        .map_err(|e| format!("create_streaming: {e}"))?;
    span("serve.create_streaming", t);
    let entry = registry.lookup(id).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let server = NetServer::serve(Arc::clone(&registry), NetConfig::default())
        .map_err(|e| format!("NetServer::serve: {e}"))?;
    span("net.serve", t);
    let t = Instant::now();
    let mut client = NetClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
    client
        .dot_score(id.0, &[(0, 1.0)], Priority::Normal)
        .map_err(|e| format!("first reply: {e}"))?;
    span("net.connect_first_reply", t);
    Ok((
        Stack {
            registry,
            server,
            id: id.0,
            entry,
        },
        client,
    ))
}

/// One closed-loop window's observations.
#[derive(Default)]
struct Window {
    reads: Latencies,
    writes: Latencies,
    failed: u64,
    elapsed: Duration,
    /// The next request index (the pool position to continue from).
    next: usize,
    /// `‖x − w*‖² / ‖w*‖²` of the served snapshot, sampled through the
    /// window.
    dist_ratios: Vec<f64>,
}

impl Window {
    fn completed(&self) -> usize {
        self.reads.len() + self.writes.len()
    }

    fn rps(&self) -> f64 {
        self.completed() as f64 / self.elapsed.as_secs_f64()
    }

    fn all(&self) -> Latencies {
        let mut all = Latencies::default();
        all.extend(&self.reads);
        all.extend(&self.writes);
        all
    }
}

/// `‖x − w*‖² / ‖w*‖²`.
fn dist_ratio(x: &[f64], truth: &[f64]) -> f64 {
    let dist: f64 = x.iter().zip(truth).map(|(a, b)| (a - b) * (a - b)).sum();
    dist / truth.iter().map(|b| b * b).sum::<f64>()
}

/// The closed loop through `NetClient`: each request waits for the
/// previous reply. Only well-formed typed replies count as successes.
/// Every [`DIST_EVERY`] requests the loop also copies the served snapshot
/// (as the server does) and records its distance to the ground truth.
fn closed_loop(
    client: &mut NetClient,
    stack: &Stack,
    inputs: &Inputs,
    first: usize,
    until: Instant,
) -> Window {
    let id = stack.id;
    let reader = stack.entry.service().reader();
    let mut snap = Vec::new();
    let mut w = Window::default();
    let begin = Instant::now();
    let mut now = begin;
    let mut request = first;
    while now < until {
        let t0 = Instant::now();
        let ok = if is_write(request) {
            let (features, label) = inputs.observation(request);
            client
                .submit_observe(id, features, *label, Priority::Normal)
                .is_ok()
        } else {
            client
                .dot_score(id, inputs.probe(request), Priority::Normal)
                .is_ok_and(|(value, _)| value.is_finite())
        };
        now = Instant::now();
        let ns = (now - t0).as_nanos() as u64;
        match (ok, is_write(request)) {
            (false, _) => w.failed += 1,
            (true, true) => w.writes.push(ns),
            (true, false) => w.reads.push(ns),
        }
        request += 1;
        if request.is_multiple_of(DIST_EVERY) && reader.snapshot_into(&mut snap).is_some() {
            w.dist_ratios.push(dist_ratio(&snap, &inputs.truth));
        }
    }
    w.elapsed = now - begin;
    w.next = request;
    w
}

/// Program-side counters read around a window.
#[derive(Clone, Copy)]
struct Counters {
    at: Instant,
    iterations: u64,
    popped: u64,
    starved: u64,
    lag_sum: u64,
    serve_count: u64,
    serve_sum: u64,
}

fn counters(stack: &Stack) -> Counters {
    let q = stack.queue().counters().snapshot();
    let h = asgd_telemetry::global().histogram("asgd_net_serve_latency_ns");
    Counters {
        at: Instant::now(),
        iterations: stack.entry.service().reader().iterations(),
        popped: q.popped,
        starved: q.starved,
        lag_sum: q.lag_sum,
        serve_count: h.count(),
        serve_sum: h.sum(),
    }
}

pub fn run(args: &Args, tracer: Option<&mut Tracer>) -> Outcome {
    let mut out = Outcome::default();
    // The client runs on core 1. Threads inherit the affinity of the
    // thread that spawns them, so the server's accept and connection
    // threads share core 1 with the client, while the trainer pins itself
    // to core 0: each request is a same-core hand-off whatever cores the
    // host gives the two vCPUs.
    let pinned = asgd_hogwild::pin::pin_current_thread(1);
    out.figure("serving_side_pinned", f64::from(u8::from(pinned)));
    let inputs = inputs(args.seed);
    let model_seed = SeedSequence::new(args.seed).child_seed(1);
    let mut tracer = tracer;
    let mut setups = Vec::new();
    let mut stood = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let up = stand_up(model_seed, tracer.as_deref_mut());
        setups.push(t.elapsed().as_secs_f64());
        match up {
            Ok(up) if rep + 1 == SETUP_REPS => stood = Some(up),
            Ok((stack, client)) => {
                drop(client);
                let down = stack.tear_down();
                out.check(down.is_ok(), || format!("tear-down: {down:?}"));
            }
            Err(e) => {
                out.check(false, || format!("standing the stack up: {e}"));
                return out;
            }
        }
    }
    let (stack, client) = stood.expect("the last set-up is kept");
    out.e2e.insert("setup_s", median(&setups));

    let mut client = client;
    let warm = closed_loop(&mut client, &stack, &inputs, 0, Instant::now() + WARMUP);
    let window = if tracer.is_some() {
        args.window().mul_f64(0.45)
    } else {
        args.window()
    };
    let before = counters(&stack);
    let w = closed_loop(
        &mut client,
        &stack,
        &inputs,
        warm.next,
        Instant::now() + window,
    );
    let after = counters(&stack);
    let traced =
        tracer.map(|tracer| traced_loop(&stack, &mut client, &inputs, w.next, window, tracer));
    out.ops(
        (warm.completed() + w.completed()) as u64 + warm.failed + w.failed,
        warm.failed + w.failed,
    );

    let probe_pushes = traced.as_ref().map_or(0, |t| t.probe_pushes);
    let acked = (warm.writes.len() + w.writes.len()) as u64
        + traced.as_ref().map_or(0, |t| t.window.writes.len() as u64);
    let quiet = quiesce(&stack);
    out.check(quiet.is_ok(), || format!("quiescing the model: {quiet:?}"));
    let final_ratio = check_quiescent(&stack, &mut client, &inputs, &mut out);
    let ratio = w.dist_ratios.iter().sum::<f64>() / w.dist_ratios.len() as f64;
    check_accounting(&stack, acked + probe_pushes, &mut out);

    let read_p50 = w.reads.quantile_us(0.5);
    let write_p50 = w.writes.quantile_us(0.5);
    let read_p99 = w.reads.quantile_us(0.99);
    let write_p99 = w.writes.quantile_us(0.99);
    let window_s = (after.at - before.at).as_secs_f64();
    out.e2e.insert("ops_per_s", w.rps());
    out.e2e.insert("dist_ratio", ratio);
    out.figure("serve_rps", w.rps());
    out.figure("read_p50_us", read_p50);
    out.figure("write_p50_us", write_p50);
    out.figure("read_p99_us", read_p99);
    out.figure("write_p99_us", write_p99);
    out.figure("reads", w.reads.len() as f64);
    out.figure("writes", w.writes.len() as f64);
    out.figure(
        "serve_fail_ratio",
        w.failed as f64 / (w.completed() as u64 + w.failed).max(1) as f64,
    );
    out.figure("dist_ratio", ratio);
    out.figure("final_dist_ratio", final_ratio);
    out.figure(
        "trainer_iters_per_s",
        (after.iterations - before.iterations) as f64 / window_s,
    );

    let popped = after.popped - before.popped;
    let starved = after.starved - before.starved;
    out.layers.insert("net.read_p50_us", read_p50);
    out.layers.insert("net.write_p50_us", write_p50);
    out.layers.insert("net.read_p99_us", read_p99);
    out.layers.insert("net.read_samples", w.reads.len() as f64);
    out.layers.insert("net.write_p99_us", write_p99);
    out.layers
        .insert("net.write_samples", w.writes.len() as f64);
    out.layers.insert(
        "oracle.ingress_starved_ratio",
        starved as f64 / (starved + popped).max(1) as f64,
    );
    out.layers.insert(
        "oracle.ingress_lag_mean",
        (after.lag_sum - before.lag_sum) as f64 / popped.max(1) as f64,
    );
    if let Some(t) = traced {
        let untraced_ns = w.all().quantile_us(0.5) * 1e3;
        let server_exec = (after.serve_sum - before.serve_sum) as f64
            / (after.serve_count - before.serve_count).max(1) as f64;
        out.ops(
            t.window.completed() as u64 + t.window.failed,
            t.window.failed,
        );
        out.layers.insert("net.encode_ns", t.encode_ns);
        out.layers.insert("net.decode_ns", t.decode_ns);
        out.layers.insert("net.server_exec_ns", server_exec);
        out.layers.insert(
            "net.outside_server_us",
            (untraced_ns - t.encode_ns - t.decode_ns - server_exec) / 1e3,
        );
        for (name, value) in t.probes {
            out.layers.insert(name, value);
        }
        out.layers.insert(
            "trace.overhead_pct",
            (t.window.all().quantile_us(0.5) * 1e3 / untraced_ns - 1.0) * 100.0,
        );
        out.figure("traced_read_p50_us", t.window.reads.quantile_us(0.5));
        out.figure("traced_write_p50_us", t.window.writes.quantile_us(0.5));
    }
    drop(client);
    let down = stack.tear_down();
    out.check(down.is_ok(), || format!("tear-down: {down:?}"));
    out
}

/// Waits for the trainer to consume every queued observation, then
/// cancels training and waits for it to finish: the final state is
/// published and nothing changes the model any more.
fn quiesce(stack: &Stack) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    let q = stack.queue().counters();
    while q.popped() + q.dropped() < q.pushed() {
        if Instant::now() > deadline {
            return Err(format!(
                "{} observations never consumed",
                q.pushed() - q.popped()
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    stack.entry.service().cancel();
    while !stack.entry.service().is_finished() {
        if Instant::now() > deadline {
            return Err("training did not stop after cancel".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

/// Checks the quiescent model: `fetch_range` returns exactly the store,
/// and `dot_score` answers are bit-exact against sums computed locally
/// from it, in the server's order. Returns `‖x − w*‖² / ‖x0 − w*‖²`
/// (x0 = 0).
fn check_quiescent(
    stack: &Stack,
    client: &mut NetClient,
    inputs: &Inputs,
    out: &mut Outcome,
) -> f64 {
    let fetched = client.fetch_range(stack.id, 0, DIM as u32, Priority::Normal);
    let x = match fetched {
        Ok((x, _)) if x.len() == DIM => x,
        other => {
            out.check(false, || {
                format!("fetch_range on the quiescent model: {other:?}")
            });
            return f64::NAN;
        }
    };
    let reader = stack.entry.service().reader();
    out.check(
        x.iter()
            .enumerate()
            .all(|(j, v)| v.to_bits() == reader.read_entry(j).to_bits()),
        || "fetch_range differs from the quiescent store".to_string(),
    );
    for request in 0..16 {
        let probe = inputs.probe(request);
        let local = probe
            .iter()
            .fold(0.0, |acc, &(j, w)| acc + w * x[j as usize]);
        let served = client.dot_score(stack.id, probe, Priority::Normal);
        out.check(
            served
                .as_ref()
                .is_ok_and(|(v, _)| v.to_bits() == local.to_bits()),
            || format!("dot_score {served:?} differs from the local sum {local}"),
        );
    }
    dist_ratio(&x, &inputs.truth)
}

/// Queue accounting is exact: every acknowledged write (and traced probe
/// push) was pushed once and popped once; nothing dropped or refused.
fn check_accounting(stack: &Stack, expected_pushes: u64, out: &mut Outcome) {
    let q = stack.queue().counters().snapshot();
    out.check(
        q.pushed == expected_pushes
            && q.popped == q.pushed
            && q.dropped == 0
            && q.rejected == 0
            && stack.queue().is_empty(),
        || {
            format!(
                "queue accounting: pushed {} (expected {expected_pushes}), popped {}, dropped {}, \
                 rejected {}, depth {}",
                q.pushed,
                q.popped,
                q.dropped,
                q.rejected,
                stack.queue().len()
            )
        },
    );
}

/// What the traced window measured.
struct Traced {
    window: Window,
    encode_ns: f64,
    decode_ns: f64,
    /// Observations the probe rounds pushed straight into the queue.
    probe_pushes: u64,
    probes: Vec<(&'static str, f64)>,
}

/// The same closed loop through a client that spans each step of a
/// request, with rounds of the server's layer calls made directly.
fn traced_loop(
    stack: &Stack,
    scraper: &mut NetClient,
    inputs: &Inputs,
    first: usize,
    window: Duration,
    tracer: &mut Tracer,
) -> Traced {
    let empty_ns = crate::env::empty_span_ns();
    let mut stream = TcpStream::connect(stack.server.local_addr()).expect("loopback connect");
    stream.set_nodelay(true).expect("setting TCP_NODELAY");
    let reader = stack.entry.service().reader();
    let shedder = LoadShedder::new(SloPolicy::default());
    let mut snap = Vec::new();
    let mut buf = Vec::new();
    let mut w = Window::default();
    let mut probe_pushes = 0;
    let (mut reads_seen, mut refreshes, mut last_version) = (0u64, 0u64, reader.snapshot_version());
    let until = Instant::now() + window;
    let mut request = first;
    let mut n = 0usize;
    while Instant::now() < until {
        let write = is_write(request);
        if !write {
            reads_seen += 1;
            let v = reader.snapshot_version();
            if v != last_version {
                refreshes += 1;
                last_version = v;
            }
        }
        let id = request as u64;
        let t0 = Instant::now();
        let root = tracer.open("net.request", None, Some(id));
        let frame = RequestFrame::new(if write {
            let (features, label) = inputs.observation(request);
            Request::SubmitObserve {
                model: stack.id,
                features: features.clone(),
                label: *label,
            }
        } else {
            Request::DotScore {
                model: stack.id,
                probe: inputs.probe(request).to_vec(),
            }
        });
        let a = Instant::now();
        let body = frame.encode();
        let b = Instant::now();
        tracer.record("net.encode", Some(root), a, b, 1, Some(id));
        let exchanged = body.map_err(|e| e.to_string()).and_then(|body| {
            write_frame(&mut stream, &body)
                .and_then(|()| read_frame(&mut stream, &mut buf, MAX_FRAME_LEN))
                .map_err(|e| e.to_string())
        });
        let c = Instant::now();
        tracer.record("net.exchange", Some(root), b, c, 1, Some(id));
        let response = exchanged.and_then(|()| Response::decode(&buf).map_err(|e| e.to_string()));
        let d = Instant::now();
        tracer.record("net.decode", Some(root), c, d, 1, Some(id));
        tracer.close(root, 1);
        let ok = match response {
            Ok(Response::Ingested { .. }) => write,
            Ok(Response::Score { value, .. }) => !write && value.is_finite(),
            _ => false,
        };
        let last_ns = (d - t0).as_nanos() as u64;
        match (ok, write) {
            (false, _) => w.failed += 1,
            (true, true) => w.writes.push(last_ns),
            (true, false) => w.reads.push(last_ns),
        }
        request += 1;
        n += 1;
        if n.is_multiple_of(PROBE_EVERY) {
            timed(tracer, "serve.lookup", PROBE_CALLS, || {
                black_box(stack.registry.lookup(ModelId(stack.id)).is_ok());
            });
            let s = Instant::now();
            black_box(reader.snapshot_into(&mut snap));
            tracer.record("serve.snapshot_copy", None, s, Instant::now(), 1, None);
            let latency = Duration::from_nanos(last_ns);
            timed(tracer, "net.shed_record", PROBE_CALLS, || {
                shedder.record(latency)
            });
            timed(tracer, "telemetry.record", PROBE_CALLS, || {
                asgd_telemetry::global()
                    .histogram("asgd_perfbench_probe_ns")
                    .record(last_ns);
            });
            let (features, label) = inputs.observation(request);
            let obs = Observation::new(features.clone(), *label);
            let s = Instant::now();
            let pushed = stack.queue().push(obs);
            tracer.record("oracle.ingress_push", None, s, Instant::now(), 1, None);
            probe_pushes += 1;
            if pushed.is_err() {
                w.failed += 1;
            }
        }
        if n.is_multiple_of(SCRAPE_EVERY) {
            let s = Instant::now();
            let scraped = scraper.stats_scrape();
            tracer.record("telemetry.scrape", None, s, Instant::now(), 1, None);
            if scraped.is_err() {
                w.failed += 1;
            }
        }
    }
    let per_call = |name: &str| tracer.total(name).self_per_call_ns();
    let batch = f64::from(PROBE_CALLS);
    let probes = vec![
        (
            "serve.lookup_ns",
            per_call("serve.lookup") - empty_ns / batch,
        ),
        (
            "serve.snapshot_copy_us",
            (per_call("serve.snapshot_copy") - empty_ns) / 1e3,
        ),
        (
            "net.shed_record_ns",
            per_call("net.shed_record") - empty_ns / batch,
        ),
        (
            "telemetry.record_ns",
            per_call("telemetry.record") - empty_ns / batch,
        ),
        (
            "oracle.ingress_push_ns",
            per_call("oracle.ingress_push") - empty_ns,
        ),
        (
            "telemetry.scrape_us",
            (per_call("telemetry.scrape") - empty_ns) / 1e3,
        ),
        (
            "serve.refresh_share",
            refreshes as f64 / reads_seen.max(1) as f64,
        ),
    ];
    Traced {
        window: w,
        encode_ns: per_call("net.encode") - empty_ns,
        decode_ns: per_call("net.decode") - empty_ns,
        probe_pushes,
        probes,
    }
}

/// Times `calls` back-to-back calls of `f` as one span.
fn timed(tracer: &mut Tracer, name: &'static str, calls: u32, mut f: impl FnMut()) {
    let s = Instant::now();
    for _ in 0..calls {
        f();
    }
    tracer.record(name, None, s, Instant::now(), u64::from(calls), None);
}

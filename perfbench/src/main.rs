//! End-to-end and per-layer benchmark of the asyncsgd workspace.
//!
//! ```text
//! asgd-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload. It generates every input from the seed,
//! drives the program through its public entry points for the given
//! number of seconds, checks the outputs, and prints two JSON lines: the
//! environment and workload-specific figures, then the result
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run records spans
//! around its calls into each layer, writes them to
//! `.bench_out/trace-<workload>-seed<n>.jsonl`, and the metrics are the
//! per-layer ones. The exit code is 0 only when every check passed.
//! `perfbench/README.md` documents the workloads and metrics.

mod env;
mod json;
mod serve;
mod sim;
mod stats;
mod trace;
mod train;

use json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("dist_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every traced run. A layer the workload
/// does not call reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("driver.overhead_s", "s"),
    ("oracle.build_s", "s"),
    ("hogwild.store_init_s", "s"),
    ("hogwild.final_copy_s", "s"),
    ("oracle.sample_ns", "ns"),
    ("hogwild.apply_ns", "ns"),
    ("hogwild.unattributed_ns", "ns"),
    ("telemetry.step_mean_ns", "ns"),
    ("hogwild.two_worker_iters_per_s", "1/s"),
    ("net.read_p50_us", "us"),
    ("net.write_p50_us", "us"),
    ("net.encode_ns", "ns"),
    ("net.decode_ns", "ns"),
    ("net.server_exec_ns", "ns"),
    ("net.outside_server_us", "us"),
    ("net.shed_record_ns", "ns"),
    ("telemetry.record_ns", "ns"),
    ("serve.lookup_ns", "ns"),
    ("serve.snapshot_copy_us", "us"),
    ("serve.refresh_share", "ratio"),
    ("oracle.ingress_push_ns", "ns"),
    ("oracle.ingress_starved_ratio", "ratio"),
    ("oracle.ingress_lag_mean", "count"),
    ("net.read_p99_us", "us"),
    ("net.read_samples", "count"),
    ("net.write_p99_us", "us"),
    ("net.write_samples", "count"),
    ("telemetry.scrape_us", "us"),
    ("shmem.sched_ns", "ns"),
    ("core.process_ns", "ns"),
    ("shmem.unattributed_ns", "ns"),
    ("shmem.steps_per_iter", "count"),
    ("shmem.tau_max", "count"),
    ("shmem.tau_avg", "count"),
    ("core.iters_to_eps", "count"),
    ("env.xcore_rtt_ns", "ns"),
    ("trace.overhead_pct", "%"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainCache,
    TrainDram,
    ServeMixed,
    SimAdversary,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("train-cache", Self::TrainCache),
        ("train-dram", Self::TrainDram),
        ("serve-mixed", Self::ServeMixed),
        ("sim-adversary", Self::SimAdversary),
    ];

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("every workload is listed")
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    /// The measurement window.
    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

const USAGE: &str =
    "usage: asgd-perfbench --workload <train-cache|train-dram|serve-mixed|sim-adversary> \
                     --seed <n> --seconds <1..=60> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .iter()
                        .find(|(n, _)| *n == value)
                        .map(|(_, w)| *w)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=60).contains(s))
                        .ok_or_else(|| format!("seconds must be 1..=60, got `{value}`"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got `{value}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Workload-specific figures for the information line.
    pub figures: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// Counts one check; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn figure(&mut self, name: &'static str, value: f64) {
        self.figures.push((name, Json::Num(value)));
    }
}

/// Ends the process if a run hangs, well inside the 180-second limit.
fn spawn_watchdog(limit: Duration) {
    std::thread::Builder::new()
        .name("perfbench-watchdog".to_string())
        .spawn(move || {
            std::thread::sleep(limit);
            eprintln!("perfbench: run exceeded {limit:?}, aborting");
            std::process::exit(3);
        })
        .expect("spawning the watchdog thread");
}

fn metrics_json(catalogue: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> Json {
    Json::obj(catalogue.iter().map(|&(name, unit)| {
        let value = values.get(name).copied().unwrap_or(0.0);
        (
            name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.to_string())),
            ]),
        )
    }))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    spawn_watchdog(Duration::from_secs(170));
    let started = Instant::now();
    let environment = env::record();
    let xcore_rtt_ns = env::xcore_rtt_ns();
    let mut tracer = args.trace.then(Tracer::new);
    let mut outcome = match args.workload {
        Workload::TrainCache => train::run(&train::CACHE, &args, tracer.as_mut()),
        Workload::TrainDram => train::run(&train::DRAM, &args, tracer.as_mut()),
        Workload::ServeMixed => serve::run(&args, tracer.as_mut()),
        Workload::SimAdversary => sim::run(&args, tracer.as_mut()),
    };
    outcome.e2e.insert("peak_rss_mib", env::peak_rss_mib());
    outcome
        .layers
        .insert("env.xcore_rtt_ns", xcore_rtt_ns.unwrap_or(0.0));
    outcome.figure("env.xcore_rtt_ns", xcore_rtt_ns.unwrap_or(f64::NAN));
    if args.trace {
        let measured: Vec<_> = outcome.layers.iter().map(|(n, v)| (*n, *v)).collect();
        for (name, value) in measured {
            outcome.check(value.is_finite(), || {
                format!("per-layer metric {name} is {value}")
            });
        }
    } else {
        for &(name, _) in END_TO_END {
            let value = outcome.e2e.get(name).copied().unwrap_or(f64::NAN);
            outcome.check(value.is_finite() && value > 0.0, || {
                format!("end-to-end metric {name} is {value}, not a positive number")
            });
        }
    }
    let mut info = vec![
        ("workload", Json::Str(args.workload.name().to_string())),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Int(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("env", environment),
    ];
    if let Some(tracer) = &tracer {
        let path = std::path::PathBuf::from(format!(
            ".bench_out/trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let written = tracer.write_jsonl(&path);
        outcome.check(written.is_ok(), || {
            format!("writing {}: {written:?}", path.display())
        });
        info.push(("trace_file", Json::Str(path.display().to_string())));
    }
    info.push(("elapsed_s", Json::Num(started.elapsed().as_secs_f64())));
    info.push(("figures", Json::obj(outcome.figures.clone())));
    println!("{}", Json::obj(info).render());
    let metrics = if args.trace {
        metrics_json(PER_LAYER, &outcome.layers)
    } else {
        metrics_json(END_TO_END, &outcome.e2e)
    };
    let result = Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Int(outcome.attempted.max(1))),
        ("failed", Json::Int(outcome.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload serve-mixed --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ServeMixed);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert_eq!(a.workload.name(), "serve-mixed");
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload train-cache --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload train-cache --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload train-cache --seed 1 --seconds 1").is_err());
        assert!(args("--workload").is_err());
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let text = include_str!("../../BENCHMARK.json");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for (name, _) in Workload::ALL {
            assert!(text.contains(&format!("{{\"name\": \"{name}\"")));
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<_> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}

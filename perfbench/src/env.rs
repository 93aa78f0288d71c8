//! The host a result was measured on, and probes of it: peak memory, the
//! cost of reading the clock, and the cross-core cache-line round trip.

use crate::json::Json;
use crate::stats::median;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Core count, CPU model, cache sizes, THP mode, clock source and kernel:
/// what a figure from this run depends on besides the code.
pub fn record() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    // The bracketed entry is the active mode: "always [madvise] never".
    let thp = read_trimmed("/sys/kernel/mm/transparent_hugepage/enabled");
    let thp = thp
        .split_once('[')
        .and_then(|(_, rest)| rest.split_once(']'))
        .map_or(thp.clone(), |(mode, _)| mode.to_string());
    let cache = |index: u32| {
        read_trimmed(&format!(
            "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
        ))
    };
    Json::obj([
        ("nproc", Json::Int(asgd_hogwild::pin::core_count() as u64)),
        ("cpu_model", Json::Str(cpu_model)),
        ("l2_per_core", Json::Str(cache(2))),
        ("l3", Json::Str(cache(3))),
        ("thp", Json::Str(thp)),
        (
            "clocksource",
            Json::Str(read_trimmed(
                "/sys/devices/system/clocksource/clocksource0/current_clocksource",
            )),
        ),
        (
            "kernel",
            Json::Str(read_trimmed("/proc/sys/kernel/osrelease")),
        ),
    ])
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What an empty span reads: the mean of `Instant::now().elapsed()` with
/// nothing in between, in ns. A span timed around each call overstates
/// the call by about this much.
pub fn empty_span_ns() -> f64 {
    const READS: u32 = 2_000;
    let batches: Vec<f64> = (0..16)
        .map(|_| {
            let total: u128 = (0..READS)
                .map(|_| black_box(Instant::now()).elapsed().as_nanos())
                .sum();
            total as f64 / f64::from(READS)
        })
        .collect();
    median(&batches)
}

/// Cross-core cache-line round trip: two benchmark threads pinned to
/// cores 0 and 1 bounce one atomic between them. Returns the median
/// round-trip time in ns over batches, or `None` on a single-core host,
/// when pinning fails, or when the partner stops answering (a core that is
/// not really there). Both sides are spawned threads, so no pin outlives
/// the probe.
pub fn xcore_rtt_ns() -> Option<f64> {
    const ROUNDS: u64 = 2_000;
    const BATCHES: usize = 16;
    const LAST: u64 = 2 * ROUNDS * BATCHES as u64;
    if asgd_hogwild::pin::core_count() < 2 {
        return None;
    }
    let line = AtomicU64::new(0);
    let pinned = [AtomicBool::new(false), AtomicBool::new(false)];
    let ready = Barrier::new(2);
    let start = Instant::now();
    // Waits until `line` holds `value`; false once the probe overran.
    let wait_for = |value: u64| {
        let mut spins = 0u32;
        while line.load(Ordering::Acquire) != value {
            spins = spins.wrapping_add(1);
            if spins == 0 && start.elapsed() > Duration::from_millis(500) {
                return false;
            }
            std::hint::spin_loop();
        }
        true
    };
    let setup = |core: usize| {
        pinned[core].store(
            asgd_hogwild::pin::pin_current_thread(core),
            Ordering::SeqCst,
        );
        ready.wait();
        pinned.iter().all(|p| p.load(Ordering::SeqCst))
    };
    std::thread::scope(|scope| {
        let partner = scope.spawn(|| {
            if !setup(1) {
                return;
            }
            let mut expect = 1;
            while expect < LAST && wait_for(expect) {
                line.store(expect + 1, Ordering::Release);
                expect += 2;
            }
        });
        let initiator = scope.spawn(|| {
            if !setup(0) {
                return None;
            }
            let mut batches = Vec::with_capacity(BATCHES);
            let mut next = 1;
            for _ in 0..BATCHES {
                let batch = Instant::now();
                for _ in 0..ROUNDS {
                    line.store(next, Ordering::Release);
                    if !wait_for(next + 1) {
                        return None;
                    }
                    next += 2;
                }
                batches.push(batch.elapsed().as_nanos() as f64 / ROUNDS as f64);
            }
            Some(median(&batches))
        });
        partner.join().expect("ping-pong partner panicked");
        initiator.join().expect("ping-pong initiator panicked")
    })
}

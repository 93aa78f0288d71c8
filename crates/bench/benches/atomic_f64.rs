//! Primitive cost of the paper's update operation: `fetch&add` on a shared
//! float, versus the alternatives it displaces.
//!
//! Columns of interest: CAS-loop `AtomicF64::fetch_add` (what Algorithm 1
//! uses), native integer `AtomicU64::fetch_add` (the hardware ceiling), and
//! a `Mutex<f64>` add (what coarse-grained designs pay *per entry*).

use asgd_hogwild::snapshot::lock_recovered;
use asgd_hogwild::AtomicF64;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

fn bench_uncontended(c: &mut Criterion) {
    let mut group = c.benchmark_group("faa_uncontended");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));

    let f = AtomicF64::new(0.0);
    group.bench_function("atomic_f64_cas_loop", |b| {
        b.iter(|| f.fetch_add(black_box(1.0)))
    });

    let u = AtomicU64::new(0);
    group.bench_function("atomic_u64_native", |b| {
        b.iter(|| u.fetch_add(black_box(1), Ordering::SeqCst))
    });

    let m = Mutex::new(0.0_f64);
    group.bench_function("mutex_f64", |b| {
        b.iter(|| {
            let mut g = lock_recovered(&m);
            *g += black_box(1.0);
            *g
        })
    });
    group.finish();
}

fn bench_contended(c: &mut Criterion) {
    let mut group = c.benchmark_group("faa_contended_4_threads");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    let adds_per_thread = 50_000_u64;

    group.bench_function("atomic_f64_cas_loop", |b| {
        b.iter_batched(
            || Arc::new(AtomicF64::new(0.0)),
            |x| {
                std::thread::scope(|s| {
                    for _ in 0..4 {
                        let x = Arc::clone(&x);
                        s.spawn(move || {
                            for _ in 0..adds_per_thread {
                                x.fetch_add(1.0);
                            }
                        });
                    }
                });
                x.load()
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("mutex_f64", |b| {
        b.iter_batched(
            || Arc::new(Mutex::new(0.0_f64)),
            |x| {
                std::thread::scope(|s| {
                    for _ in 0..4 {
                        let x = Arc::clone(&x);
                        s.spawn(move || {
                            for _ in 0..adds_per_thread {
                                *lock_recovered(&x) += 1.0;
                            }
                        });
                    }
                });
                *lock_recovered(&x)
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_uncontended, bench_contended);
criterion_main!(benches);

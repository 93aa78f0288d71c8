//! The sharded parameter store's correctness contract:
//!
//! 1. Routing — every boundary index (first and last entry of every shard,
//!    ragged tails included) routes to the shard whose range contains it,
//!    and the shard ranges are a contiguous partition of `0..d`.
//! 2. Store equivalence — a `ShardedModel` (one shard or many) performs the
//!    exact same per-entry atomic operations as the flat `SharedModel`, so
//!    disjoint deterministic update streams land *bit-identically* at every
//!    thread count.
//! 3. The PR-1 cross-backend invariant (sequential ≡ simulated-serial ≡
//!    1-thread hogwild) holds with the sharded store underneath the native
//!    backend, on the dense and the sparse path, and a 1-thread run is
//!    bit-identical flat vs sharded (identical claim schedule).
//! 4. Property: for random dimensions and shard counts (ragged last shards
//!    included), a serial op stream through the sharded store matches the
//!    flat store bit for bit, and the per-shard update counters account for
//!    exactly the ops routed into each range.

use asyncsgd::prelude::*;
use proptest::prelude::*;

#[test]
fn routing_covers_every_boundary_index() {
    // Pow2-eligible, ragged, prime, shards > d (clamped), single-shard.
    for (d, shards) in [
        (64, 4),
        (65, 4),
        (10, 3),
        (97, 8),
        (7, 16),
        (1, 1),
        (1024, 6),
    ] {
        let router = ShardRouter::pow2(d, shards);
        let n = router.shard_count();
        assert!(n >= 1 && n <= d.min(shards), "pow2({d},{shards}) -> {n}");
        // The ranges are a contiguous partition of 0..d.
        let mut at = 0;
        for s in 0..n {
            let range = router.range(s);
            assert_eq!(range.start, at, "d={d} shards={shards} shard {s}");
            assert!(!range.is_empty(), "empty shard {s} (d={d} shards={shards})");
            at = range.end;
            // First and last index of the shard route back to (s, offset).
            assert_eq!(router.route(range.start), (s, 0));
            assert_eq!(router.route(range.end - 1), (s, range.len() - 1));
            // The entry just past the boundary belongs to the next shard.
            if range.end < d {
                assert_eq!(router.route(range.end), (s + 1, 0));
            }
        }
        assert_eq!(at, d, "ranges must cover the full dimension");
    }
}

/// Applies a deterministic per-thread update stream (thread `t` owns the
/// indices `j ≡ t (mod threads)`) so each entry sees a fixed sequence of
/// `fetch&add`s regardless of interleaving — the final state is then a
/// function of the streams alone, and must be bitwise equal across stores.
fn run_disjoint_streams(store: &(dyn Fn(usize, f64) -> f64 + Sync), d: usize, threads: usize) {
    std::thread::scope(|scope| {
        for t in 0..threads {
            let store = &store;
            scope.spawn(move || {
                for step in 0..50 {
                    let mut j = t;
                    while j < d {
                        store(j, 0.5 + (j as f64) * 0.125 + (step as f64) * 0.0625);
                        j += threads;
                    }
                }
            });
        }
    });
}

#[test]
fn one_shard_and_many_shard_stores_match_flat_bit_for_bit_at_every_thread_count() {
    let d = 96;
    let x0: Vec<f64> = (0..d).map(|j| (j as f64) * 0.25 - 8.0).collect();
    for threads in [1, 2, 4, 8] {
        let flat = SharedModel::new(&x0);
        let one = ShardedModel::with_options(&x0, 1, UpdateOrder::SeqCst);
        let many = ShardedModel::with_options(&x0, 6, UpdateOrder::SeqCst);
        run_disjoint_streams(&|j, delta| flat.fetch_add(j, delta), d, threads);
        run_disjoint_streams(&|j, delta| one.fetch_add(j, delta), d, threads);
        run_disjoint_streams(&|j, delta| many.fetch_add(j, delta), d, threads);
        let reference = flat.snapshot();
        for (name, store) in [("one-shard", &one), ("six-shard", &many)] {
            assert_eq!(store.snapshot().len(), d);
            for (j, (a, b)) in reference.iter().zip(store.snapshot()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "threads={threads} {name}: entry {j}: flat {a} vs {b}"
                );
            }
        }
        assert_eq!(one.shard_count(), 1);
        assert_eq!(many.shard_count(), 6, "d = 96 chunks into 6 × 16");
        assert_eq!(one.total_updates(), 50 * d as u64);
        assert_eq!(many.total_updates(), 50 * d as u64);
    }
}

fn sharded_spec(sparse: SparsePathSpec, shards: ShardsSpec) -> RunSpec {
    RunSpec::new(
        OracleSpec::new("sparse-quadratic", 32).sigma(0.3),
        BackendKind::Hogwild,
    )
    .threads(1)
    .iterations(3_000)
    .learning_rate(0.01)
    .x0(vec![1.0; 32])
    .scheduler(SchedulerSpec::Serial)
    .seed(1234)
    .sparse(sparse)
    .shards(shards)
}

#[test]
fn cross_backend_invariant_holds_on_the_sharded_store() {
    // sequential ≡ simulated-serial ≡ 1-thread hogwild, bit for bit, with
    // the native backend routing through a multi-shard store — on both the
    // dense and the sparse path. The simulated and sequential backends have
    // no arenas (their reports say so); a 1-thread serial claim schedule
    // makes the comparison exact. Fixed(3) at d = 32 rounds the chunk
    // ceil(32/3) = 11 up to 16, so the report carries the realised 2.
    for path in [SparsePathSpec::Dense, SparsePathSpec::Sparse] {
        let spec = sharded_spec(path, ShardsSpec::Fixed(3));
        let sequential = run_spec(&spec.clone().backend(BackendKind::Sequential)).unwrap();
        let simulated = run_spec(&spec.clone().backend(BackendKind::SimulatedLockFree)).unwrap();
        let hogwild = run_spec(&spec).unwrap();
        assert_eq!(sequential.shards, None, "no arenas under sequential");
        assert_eq!(simulated.shards, None, "no arenas under the simulator");
        assert_eq!(hogwild.shards, Some(2), "the realized shard count");
        for (name, other) in [("simulated-serial", &simulated), ("hogwild-1", &hogwild)] {
            for (j, (a, b)) in sequential
                .final_model
                .iter()
                .zip(&other.final_model)
                .enumerate()
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{path:?}/{name}: entry {j}: sequential {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn one_thread_sharded_run_is_bit_identical_to_flat() {
    // Same spec, same serial claim schedule — only the store differs. The
    // refactor's regression oracle: routing must never change which cell an
    // index denotes or the order its updates apply in.
    for path in [SparsePathSpec::Dense, SparsePathSpec::Sparse] {
        let flat = run_spec(&sharded_spec(path, ShardsSpec::Flat)).unwrap();
        let sharded = run_spec(&sharded_spec(path, ShardsSpec::Fixed(4))).unwrap();
        assert_eq!(flat.shards, None);
        assert_eq!(sharded.shards, Some(4));
        for (j, (a, b)) in flat
            .final_model
            .iter()
            .zip(&sharded.final_model)
            .enumerate()
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{path:?}: entry {j}: flat {a} vs sharded {b}"
            );
        }
        assert_eq!(
            flat.final_dist_sq.to_bits(),
            sharded.final_dist_sq.to_bits()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A serial op stream through a sharded store at a random shard count
    /// lands bit for bit where the flat store puts it, with the per-shard
    /// counters accounting for exactly the ops routed into each range.
    #[test]
    fn sharded_stores_apply_op_streams_bit_identically_to_flat(
        d in 1_usize..300,
        shards in 1_usize..40,
        raw_ops in proptest::collection::vec((any::<u32>(), -1.0_f64..1.0), 0..64),
    ) {
        let x0: Vec<f64> = (0..d).map(|j| (j as f64) * 0.1 - 3.0).collect();
        let ops: Vec<(usize, f64)> = raw_ops
            .iter()
            .map(|&(raw, delta)| (raw as usize % d, delta))
            .collect();

        let flat = SharedModel::new(&x0);
        let store = ShardedModel::with_options(&x0, shards, UpdateOrder::SeqCst);
        for &(j, delta) in &ops {
            let a = flat.fetch_add(j, delta);
            let b = store.fetch_add(j, delta);
            prop_assert_eq!(a.to_bits(), b.to_bits(), "prior value at {}", j);
        }
        let reference = flat.snapshot();
        for (j, (a, b)) in reference.iter().zip(store.snapshot()).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "entry {}", j);
        }
        // Counter accounting: each shard's counter is the number of ops
        // whose index its range contains; quiescent double-collect
        // validates and returns the same vector.
        prop_assert_eq!(store.total_updates(), ops.len() as u64);
        let mut counts = Vec::new();
        prop_assert!(store.coherent_update_counts(&mut counts), "quiescent");
        for (s, &count) in counts.iter().enumerate() {
            let range = store.router().range(s);
            let expected = ops.iter().filter(|&&(j, _)| range.contains(&j)).count();
            prop_assert_eq!(count, expected as u64, "shard {}", s);
            prop_assert_eq!(store.shard_updates(s), expected as u64);
        }
    }

    /// Routing is a bijection onto arena slots: every index of a random
    /// dimension routes into the range that claims it, at the offset the
    /// range implies.
    #[test]
    fn every_index_routes_into_its_claimed_range(
        d in 1_usize..2_000,
        shards in 1_usize..64,
    ) {
        let router = ShardRouter::pow2(d, shards);
        for j in 0..d {
            let (s, off) = router.route(j);
            let range = router.range(s);
            prop_assert!(range.contains(&j), "index {} vs shard {} range {:?}", j, s, range);
            prop_assert_eq!(off, j - range.start);
        }
    }
}

//! Property suite for the parallel-GC determinism contract: `gc_workers` is
//! a pure performance knob — for any allocation/root schedule, every worker
//! count must drive a heap trajectory bit-identical to the single-worker
//! baseline, for all three collectors. The comparison covers everything
//! observable: object placement (id, region, offset, size, age), page
//! dirty/no-need flags, the free pool, and the per-collection `GcWork`
//! accounting the cost model prices pauses from.
//!
//! `proptest` shrinking is not useful here (the schedule must replay
//! bit-for-bit), so the generator is a hand-rolled deterministic xorshift:
//! each seed yields one reproducible workload, checked across a spread of
//! seeds, the same scheme as `crates/core/tests/analyzer_differential.rs`.

use polm2_gc::{
    AllocRequest, C4Collector, Collector, G1Collector, GcConfig, GcWork, Ng2cCollector,
    SafepointRoots, ThreadId,
};
use polm2_heap::{BackendKind, Heap, HeapConfig, ParallelTuning, SiteId, VerifyMode};

/// Heap-verification mode for every drive in this suite, from the
/// `POLM2_VERIFY_HEAP` environment variable (`scripts/check.sh` re-runs the
/// suite with `gc` set): at `gc` or `full` every collection is followed by a
/// full integrity pass. Verification is read-only, so the fingerprints and
/// `GcWork` accounting must stay bit-identical to an unverified drive.
fn env_verify_mode() -> VerifyMode {
    match std::env::var("POLM2_VERIFY_HEAP").as_deref() {
        Ok("gc") => VerifyMode::Gc,
        Ok("full") => VerifyMode::Full,
        _ => VerifyMode::Off,
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn fnv_mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Everything observable about the heap, folded to one hash.
fn heap_fingerprint(heap: &Heap) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for space in heap.spaces() {
        for id in heap.objects_in_space(space.id()).expect("space exists") {
            let rec = heap.object(id).expect("listed object exists");
            h = fnv_mix(h, id.raw());
            h = fnv_mix(h, u64::from(rec.addr().region.raw()));
            h = fnv_mix(h, u64::from(rec.addr().offset));
            h = fnv_mix(h, u64::from(rec.size()));
            h = fnv_mix(h, u64::from(rec.age()));
        }
    }
    for flags in heap.page_table().iter() {
        h = fnv_mix(h, u64::from(flags.dirty) | u64::from(flags.no_need) << 1);
    }
    fnv_mix(h, u64::from(heap.free_region_count()))
}

/// Drives one seeded allocation/root/collection schedule through a fresh
/// heap and collector. Returns the final fingerprint plus every collection's
/// merged work — both must be invariant across worker counts.
fn drive<C: Collector>(
    make: impl Fn(GcConfig) -> C,
    seed: u64,
    workers: usize,
    backend: BackendKind,
) -> (u64, Vec<GcWork>) {
    let verify = env_verify_mode();
    let mut heap = Heap::new(HeapConfig::small().with_backend(backend));
    // The small test heap never crosses the production break-even
    // thresholds; force them to zero so multi-worker runs actually take the
    // parallel paths this suite exists to check.
    heap.set_parallel_tuning(ParallelTuning::force());
    let mut gc = make(GcConfig {
        gc_workers: workers,
        ..GcConfig::default()
    });
    gc.attach(&mut heap);
    let class = heap.classes_mut().intern("T");
    let keep = heap.roots_mut().create_slot("keep");
    let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut works = Vec::new();
    let mut last = None;
    for step in 0..2_500u64 {
        let size = 256 + (xorshift(&mut rng) % 3_840) as u32;
        let out = gc
            .alloc(
                &mut heap,
                AllocRequest {
                    class,
                    size,
                    site: SiteId::new((xorshift(&mut rng) % 6) as u32),
                    pretenure: false,
                    thread: ThreadId::new(0),
                },
                &SafepointRoots::none(),
            )
            .expect("allocation");
        for p in out.pauses {
            works.push(p.work);
        }
        // Root churn: keep a sliding window live, link a chain so the mark
        // chases pointers, drop everything now and then.
        match xorshift(&mut rng) % 10 {
            0..=3 => {
                heap.roots_mut().push(keep, out.object);
                if let Some(prev) = last {
                    let _ = heap.add_ref(out.object, prev);
                }
                last = Some(out.object);
            }
            4 if step % 400 == 399 => {
                heap.roots_mut().clear_slot(keep);
                last = None;
            }
            _ => {}
        }
        if step % 500 == 499 {
            for p in gc.collect(&mut heap, &SafepointRoots::none()) {
                works.push(p.work);
            }
            if verify != VerifyMode::Off {
                heap.verify_integrity().expect("post-collection verify");
            }
        }
    }
    heap.check_invariants();
    if verify != VerifyMode::Off {
        heap.verify_integrity().expect("final verify");
    }
    (heap_fingerprint(&heap), works)
}

fn assert_worker_invariant<C: Collector>(make: impl Fn(GcConfig) -> C + Copy, name: &str) {
    for seed in [1u64, 7, 42, 0xdead_beef] {
        let baseline = drive(make, seed, 1, BackendKind::Sim);
        for workers in [2usize, 4, 8] {
            let got = drive(make, seed, workers, BackendKind::Sim);
            assert_eq!(
                got.0, baseline.0,
                "{name} seed {seed}: heap diverged at gc_workers={workers}"
            );
            assert_eq!(
                got.1, baseline.1,
                "{name} seed {seed}: GcWork accounting diverged at gc_workers={workers}"
            );
        }
        // The real-memory backend must drive the same trajectory too, at
        // any worker count: backing regions with actual pages and memcpying
        // payloads is invisible to everything this fingerprint folds in.
        for workers in [1usize, 2, 4] {
            let got = drive(make, seed, workers, BackendKind::Real);
            assert_eq!(
                got.0, baseline.0,
                "{name} seed {seed}: real backend diverged at gc_workers={workers}"
            );
            assert_eq!(
                got.1, baseline.1,
                "{name} seed {seed}: real backend GcWork diverged at gc_workers={workers}"
            );
        }
    }
}

#[test]
fn g1_trajectories_are_worker_count_invariant() {
    assert_worker_invariant(G1Collector::new, "G1");
}

#[test]
fn ng2c_trajectories_are_worker_count_invariant() {
    assert_worker_invariant(Ng2cCollector::new, "NG2C");
}

#[test]
fn c4_trajectories_are_worker_count_invariant() {
    assert_worker_invariant(C4Collector::new, "C4");
}

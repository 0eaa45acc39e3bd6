//! Perf gates for the optimized paths: Analyzer replay, the online
//! GC+snapshot pipeline, the allocation recorder, the GC, and the heap
//! backend.
//!
//! **Analyzer gate** — times the Analyzer (columnar survival table) against
//! a bench-side transcription of the seed replay (one hash-map probe per
//! object and snapshot) on three synthetic workload sizes, verifies that
//! every trace's survival histogram, typical survivals and object count
//! match the oracle's, and writes the medians to `BENCH_analyzer.json`.
//!
//! **Pipeline gate** — times full GC+snapshot cycles on a churn workload
//! (a large stable old generation plus a young garbage wave per cycle)
//! two ways: a seed-equivalent emulation (fresh hash-set trace plus
//! hash-set no-need walk per snapshot, the pre-slab online path) and the
//! Dumper's capture path (fresh epoch-mark trace per snapshot, the path
//! every real profile takes). Both runs drive bit-identical heap
//! trajectories; the produced snapshot sequences are compared field by
//! field. Medians land in `BENCH_pipeline.json`.
//!
//! **Recorder gate** — replays one deterministic call/return/alloc tape
//! two ways: a bench-side transcription of the seed stack walk (clone the
//! frame stack per allocation, validate and intern every frame at drain)
//! and the Recorder's trace trie (context node maintained at push/pop,
//! columnar buffers, memoized node ingest). Both variants share the
//! frame-stack bookkeeping, drain on the same schedule, and must produce
//! identical [`AllocationRecords`]; medians land in `BENCH_recorder.json`.
//! A real-runtime session over a deep call chain is also checked against
//! the chain's statically known traces and folded into the equality gate.
//!
//! **GC gate** — drives identical collection trajectories (stable old
//! generation, churn waves with rotating survivor roots) through full
//! mark+evacuate cycles four ways: a seed-equivalent emulation (hash-set
//! BFS mark plus the per-object evacuation bookkeeping of the pre-slab
//! layout, timed against a mirrored table) and the real engine at 1, 2,
//! and 4 GC workers. Per-cycle heap fingerprints and `GcWork` accounting
//! must be bit-identical across all variants (the hard equality gate).
//! Wall-clock medians gate single-worker throughput against the serial
//! baseline; the 4-vs-1-worker pause speedup comes from the cost model's
//! Amdahl split over the measured work (per-byte and per-object charges
//! divide across workers; safepoint and region frees stay serial), since
//! wall-clock parallel speedups are not measurable on a single-CPU CI
//! host. Medians land in `BENCH_gc.json`.
//!
//! **Heap gate** — drives the GC-gate churn workload on the real-memory
//! heap backend (page-aligned regions, bump-allocated young, free-list
//! tenured, payloads actually written and memcpy'd) and on the simulated
//! backend. Measures real allocation cost (ns/object, header + payload
//! stores included) and copy/compact bandwidth (payload bytes memcpy'd per
//! second of the serial evacuation copy phase). The real backend runs at 1,
//! 2, and 4 GC workers with the break-even tuning forced so the sharded
//! mark genuinely runs. The hard gate: per-cycle heap fingerprints,
//! `GcWork` accounting, and streamed snapshot sequences must be
//! bit-identical between sim and real at every worker count. Medians land
//! in `BENCH_heap.json`.
//!
//! Every `BENCH_*.json` records the host's core count (`host_cpus`, from
//! `available_parallelism`) so wall-clock figures can be read against the
//! hardware that produced them.
//!
//! ```text
//! perfgate [--quick]
//!          [--min-pipeline-speedup <x>] [--min-recorder-speedup <x>]
//!          [--min-gc-speedup <x>] [--min-heap-gbps <x>] [--out <path>]
//!          [--pipeline-out <path>] [--recorder-out <path>] [--gc-out <path>]
//!          [--heap-out <path>]
//! ```
//!
//! * `--quick` — fewer timed runs/cycles (CI smoke; equality gates still run).
//! * `--min-pipeline-speedup <x>` — exit non-zero unless the fresh-trace
//!   cycle beats the seed-equivalent cycle by `x` on the largest workload.
//! * `--min-recorder-speedup <x>` — exit non-zero unless the trie recorder
//!   beats the stack walk by `x` ns/allocation on the largest workload
//!   (default 3.0; this gate is always on).
//! * `--min-gc-speedup <x>` — exit non-zero unless the modeled 4-worker
//!   pause beats the 1-worker pause by `x` on the largest workload
//!   (default 2.0; this gate is always on, as is the single-worker
//!   throughput floor at 95% of the serial baseline).
//! * `--min-heap-gbps <x>` — exit non-zero unless the real backend's
//!   copy/compact bandwidth on the largest workload reaches `x` GB/s
//!   (default 0.05; this gate is always on, as is the sim/real equality
//!   hard gate).
//! * `--out <path>` — analyzer JSON path (default `BENCH_analyzer.json`).
//! * `--pipeline-out <path>` — pipeline JSON path (default
//!   `BENCH_pipeline.json`).
//! * `--recorder-out <path>` — recorder JSON path (default
//!   `BENCH_recorder.json`).
//! * `--gc-out <path>` — GC JSON path (default `BENCH_gc.json`).
//! * `--heap-out <path>` — heap-backend JSON path (default
//!   `BENCH_heap.json`).
//!
//! Exits non-zero if any variant's outputs differ from its baseline, a
//! speedup gate fails, or any committed default-path `BENCH_*.json` carries
//! a schema version older than [`SCHEMA_VERSION`] (stale results must be
//! regenerated in the same change that bumps the schema).

use std::collections::{HashSet, VecDeque};
use std::time::Instant;

use polm2_core::{AllocationRecords, Analyzer, AnalyzerConfig, Recorder};
use polm2_gc::{Collector, G1Collector, GcConfig, GcWork, SafepointRoots};
use polm2_heap::{
    BackendKind, BuildIdHasher, Heap, HeapConfig, IdHashMap, IdHashSet, IdentityHash, ObjectId,
    ParallelTuning, RegionId, SiteId,
};
use polm2_metrics::{SimDuration, SimTime};
use polm2_runtime::{
    AllocEventBuffer, ClassDef, Instr, Jvm, LoadedProgram, Loader, MethodDef, Program,
    RuntimeConfig, SizeSpec, TraceFrame, TraceNodeId, TraceTrie,
};
use polm2_snapshot::{CriuDumper, HeapDumper, Snapshot, SnapshotSeries};

/// Version of the emitted JSON schema. Bump when fields are added, removed,
/// or change meaning; the staleness check at the end of `main` fails the
/// gate until every committed default-path `BENCH_*.json` is regenerated at
/// this version.
const SCHEMA_VERSION: u32 = 3;

struct Workload {
    name: &'static str,
    records: u64,
    snapshots: u32,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "small",
        records: 10_000,
        snapshots: 8,
    },
    Workload {
        name: "medium",
        records: 50_000,
        snapshots: 16,
    },
    Workload {
        name: "large",
        records: 120_000,
        snapshots: 32,
    },
];

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Class/method grid shared by the analyzer and recorder gates: every
/// `TraceFrame` with `class_idx < CLASSES`, `method_idx < METHODS` resolves.
const CLASSES: usize = 32;
const METHODS: usize = 8;

fn grid_loaded() -> LoadedProgram {
    let mut program = Program::new();
    for c in 0..CLASSES {
        let mut class = ClassDef::new(format!("Class{c}"));
        for m in 0..METHODS {
            class = class.with_method(MethodDef::new(format!("method{m}")).push(Instr::alloc(
                "Obj",
                SizeSpec::Fixed(32),
                1,
            )));
        }
        program.add_class(class);
    }
    let mut heap = Heap::new(HeapConfig::small());
    Loader::load(program, &mut [], &mut heap).expect("load")
}

/// Builds a deterministic synthetic profiling run: `records` allocations
/// spread over a few hundred distinct traces, `snapshots` heap snapshots
/// with per-trace lifespan bias so survival histograms are non-trivial.
fn build_inputs(w: &Workload) -> (AllocationRecords, SnapshotSeries, LoadedProgram) {
    let mut rng = 0x5eed_0000_0000_0001u64 ^ (w.records << 8) ^ u64::from(w.snapshots);
    let loaded = grid_loaded();

    let traces: Vec<Vec<TraceFrame>> = (0..512)
        .map(|_| {
            let depth = 1 + (xorshift(&mut rng) % 5) as usize;
            (0..depth)
                .map(|_| TraceFrame {
                    class_idx: (xorshift(&mut rng) % CLASSES as u64) as u16,
                    method_idx: (xorshift(&mut rng) % METHODS as u64) as u16,
                    line: 1 + (xorshift(&mut rng) % 60) as u32,
                })
                .collect()
        })
        .collect();
    let biases: Vec<u64> = (0..traces.len())
        .map(|_| xorshift(&mut rng) % (u64::from(w.snapshots) + 1))
        .collect();

    let mut records = AllocationRecords::default();
    let mut live: Vec<Vec<IdentityHash>> = vec![Vec::new(); w.snapshots as usize];
    for object in 0..w.records {
        let t = (xorshift(&mut rng) % traces.len() as u64) as usize;
        let hash = IdentityHash::of(ObjectId::new(object + 1));
        records.record(&traces[t], hash);
        let jitter = xorshift(&mut rng) % 4;
        let lifespan = (biases[t] + jitter).min(u64::from(w.snapshots));
        for snap in live.iter_mut().take(lifespan as usize) {
            snap.push(hash);
        }
    }
    let series: SnapshotSeries = live
        .into_iter()
        .enumerate()
        .map(|(seq, hashes)| {
            Snapshot::new(
                seq as u32,
                SimTime::from_secs(seq as u64),
                hashes.iter().copied().collect(),
                4096,
                SimDuration::from_millis(1),
            )
        })
        .collect();
    (records, series, loaded)
}

fn analyzer_config() -> AnalyzerConfig {
    AnalyzerConfig {
        min_survivals: 1,
        ..AnalyzerConfig::default()
    }
}

/// One trace's survival statistics: the fields of a `TraceLifetime` the
/// replay computes (histogram, typical survivals, object count).
type TraceStats = (Vec<(u32, u64)>, u32, u64);

/// The seed replay, transcribed as the analyzer gate's oracle: one hash-map
/// entry probe per (object, snapshot) membership to count survivals, then
/// per trace the survival histogram and its weighted median.
fn hashprobe_oracle(records: &AllocationRecords, series: &SnapshotSeries) -> Vec<TraceStats> {
    let mut survivals: IdHashMap<IdentityHash, u32> = IdHashMap::default();
    for snapshot in series.snapshots() {
        for &hash in snapshot.hashes() {
            *survivals.entry(hash).or_insert(0) += 1;
        }
    }
    records
        .trace_ids()
        .map(|trace| {
            let stream = records.stream(trace);
            let mut histogram: std::collections::BTreeMap<u32, u64> = Default::default();
            for hash in stream {
                *histogram
                    .entry(survivals.get(hash).copied().unwrap_or(0))
                    .or_insert(0) += 1;
            }
            let objects = stream.len() as u64;
            let mut remaining = objects.div_ceil(2);
            let mut typical = 0;
            for (&s, &count) in &histogram {
                if count >= remaining {
                    typical = s;
                    break;
                }
                remaining -= count;
            }
            (histogram.into_iter().collect(), typical, objects)
        })
        .collect()
}

/// Median ns/record of `f` over `runs` timed runs (after one warmup), plus
/// the last run's result for the equality gate.
fn measure<T>(records: u64, runs: usize, mut f: impl FnMut() -> T) -> (u64, T) {
    let mut out = f(); // warmup
    let mut samples: Vec<u64> = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = Instant::now();
        out = f();
        samples.push(start.elapsed().as_nanos() as u64 / records.max(1));
    }
    samples.sort_unstable();
    (samples[samples.len() / 2], out)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

// ---------------------------------------------------------------------------
// Online pipeline gate
// ---------------------------------------------------------------------------

struct PipelineWorkload {
    name: &'static str,
    /// Rooted old-generation objects, all live for the whole run.
    stable_objects: u32,
    /// Unrooted young allocations per cycle, all dead by the next GC.
    churn_per_cycle: u32,
    /// Timed GC+snapshot cycles (one extra warmup cycle is untimed).
    cycles: usize,
}

const PIPELINE_WORKLOADS: &[PipelineWorkload] = &[
    PipelineWorkload {
        name: "small",
        stable_objects: 4_000,
        churn_per_cycle: 500,
        cycles: 6,
    },
    PipelineWorkload {
        name: "large",
        stable_objects: 30_000,
        churn_per_cycle: 3_000,
        cycles: 10,
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum PipelineVariant {
    /// Timed: GC + the seed's snapshot path, emulated (see
    /// [`seed_snapshot_cost`]). The real dumper advances heap state untimed.
    SeedEquivalent,
    /// Timed: GC + real snapshot (fresh epoch-mark trace per snapshot).
    FreshTrace,
}

/// The seed's object table, mirrored: the pre-slab heap kept every record
/// behind an `IdHashMap` probe. Rebuilt (untimed) after each GC so the timed
/// emulation runs the seed's algorithms over the seed's data layout.
struct SeedRecord {
    size: u32,
    region: RegionId,
    first_page: u32,
    last_page: u32,
    hash: IdentityHash,
    refs: Vec<ObjectId>,
}

fn build_seed_mirror(heap: &Heap) -> IdHashMap<ObjectId, SeedRecord> {
    let mut mirror: IdHashMap<ObjectId, SeedRecord> = IdHashMap::default();
    for space in heap.spaces() {
        for id in heap.objects_in_space(space.id()).expect("space exists") {
            let rec = heap.object(id).expect("listed object exists");
            let (first_page, last_page) = heap.page_table().pages_of(rec.addr(), rec.size());
            mirror.insert(
                id,
                SeedRecord {
                    size: rec.size(),
                    region: rec.addr().region,
                    first_page,
                    last_page,
                    hash: rec.identity_hash(),
                    refs: rec.refs().to_vec(),
                },
            );
        }
    }
    mirror
}

/// The seed's per-snapshot work, transcribed from the pre-optimization
/// sources: `mark_live` (BFS with a fresh visited hash-set, a hash-map probe
/// per edge, and hash-map region accounting), the Dumper's hash collection
/// (no pre-sizing), `mark_no_need_pages` (live pages accumulated into a
/// `HashSet`, then a per-page `contains` sweep over every assigned region),
/// the captured-page count, and `Snapshot::new`'s eager column sort.
///
/// Runs against the mirror, read-only; returns a checksum so the optimizer
/// cannot discard the work.
fn seed_snapshot_cost(heap: &Heap, mirror: &IdHashMap<ObjectId, SeedRecord>) -> u64 {
    // -- seed mark_live --
    let mut queue: VecDeque<ObjectId> = VecDeque::new();
    let mut order: Vec<ObjectId> = Vec::new();
    let mut live: IdHashSet<ObjectId> = IdHashSet::default();
    let mut live_bytes: u64 = 0;
    let mut region_live: IdHashMap<RegionId, u32> = IdHashMap::default();
    for id in heap.roots().iter() {
        if let Some(rec) = mirror.get(&id) {
            if live.insert(id) {
                order.push(id);
                live_bytes += u64::from(rec.size);
                *region_live.entry(rec.region).or_insert(0) += rec.size;
                queue.push_back(id);
            }
        }
    }
    let mut scratch: Vec<ObjectId> = Vec::new();
    while let Some(id) = queue.pop_front() {
        let rec = mirror.get(&id).expect("queued objects are live");
        scratch.clear();
        scratch.extend_from_slice(&rec.refs);
        for &child in &scratch {
            if let Some(child_rec) = mirror.get(&child) {
                if live.insert(child) {
                    order.push(child);
                    live_bytes += u64::from(child_rec.size);
                    *region_live.entry(child_rec.region).or_insert(0) += child_rec.size;
                    queue.push_back(child);
                }
            }
        }
    }
    // -- seed Dumper hash collection --
    let hashes: IdHashSet<IdentityHash> = live
        .iter()
        .filter_map(|id| mirror.get(id).map(|r| r.hash))
        .collect();
    // -- seed mark_no_need_pages --
    let mut live_pages: HashSet<u32, BuildIdHasher> = Default::default();
    for id in live.iter() {
        if let Some(rec) = mirror.get(id) {
            for p in rec.first_page..=rec.last_page {
                live_pages.insert(p);
            }
        }
    }
    let mut no_need = vec![false; heap.page_table().page_count() as usize];
    let mut marked = 0u64;
    for region in heap.regions() {
        if region.space().is_none() {
            continue;
        }
        let first = region.first_page().raw();
        for p in first..first + heap.config().pages_per_region() {
            let should = !live_pages.contains(&p);
            if should {
                marked += 1;
            }
            no_need[p as usize] = should;
        }
    }
    // -- seed captured-page count --
    let mut captured = 0u64;
    for (page, flags) in heap.page_table().iter().enumerate() {
        if flags.dirty && !no_need[page] {
            captured += 1;
        }
    }
    // -- seed Snapshot::new: eager sorted column --
    let mut sorted: Vec<u64> = hashes.iter().map(|h| u64::from(h.raw())).collect();
    sorted.sort_unstable();
    live_bytes.rotate_left(17)
        ^ order.len() as u64
        ^ region_live.len() as u64
        ^ marked.rotate_left(7)
        ^ captured
        ^ sorted.last().copied().unwrap_or(0)
}

/// One full pipeline run: identical heap trajectory for every variant, so
/// the snapshot sequences must come out bit-identical. Returns the per-cycle
/// timings (warmup excluded) and the snapshots for the equality gate.
fn run_pipeline(w: &PipelineWorkload, variant: PipelineVariant) -> (Vec<u64>, Vec<Snapshot>) {
    let mut heap = Heap::new(HeapConfig::paper_scaled());
    let mut gc = G1Collector::new(GcConfig::default());
    gc.attach(&mut heap);
    let old = heap
        .spaces()
        .iter()
        .map(|s| s.id())
        .find(|&id| id != Heap::YOUNG_SPACE)
        .expect("collector old space");

    // Stable old generation: star groups of 16 hanging off rooted hubs,
    // hubs chained together — the trace does real pointer chasing.
    let class = heap.classes_mut().intern("Stable");
    let keep = heap.roots_mut().create_slot("stable");
    let mut hub: Option<ObjectId> = None;
    for i in 0..w.stable_objects {
        let id = heap
            .allocate(class, 2_048, SiteId::new(i % 7), old)
            .expect("stable allocation");
        if i % 16 == 0 {
            heap.roots_mut().push(keep, id);
            if let Some(prev) = hub {
                heap.add_ref(prev, id).expect("hub chain");
            }
            hub = Some(id);
        } else {
            heap.add_ref(hub.expect("hub allocated first"), id)
                .expect("star edge");
        }
    }

    let churn_class = heap.classes_mut().intern("Churn");
    let mut dumper = CriuDumper::new();
    let mut samples = Vec::with_capacity(w.cycles);
    let mut snaps = Vec::with_capacity(w.cycles);
    let mut sink = 0u64;
    for cycle in 0..w.cycles + 1 {
        for i in 0..w.churn_per_cycle {
            heap.allocate(
                churn_class,
                4_096,
                SiteId::new(8 + i % 5),
                Heap::YOUNG_SPACE,
            )
            .expect("churn allocation");
        }
        let (elapsed, snap) = match variant {
            PipelineVariant::SeedEquivalent => {
                let start = Instant::now();
                gc.collect(&mut heap, &SafepointRoots::none());
                let gc_time = start.elapsed();
                // The mirror rebuild stands in for the bookkeeping the seed
                // heap did throughout the cycle; it is not timed.
                let mirror = build_seed_mirror(&heap);
                let start = Instant::now();
                sink ^= seed_snapshot_cost(&heap, &mirror);
                let snap_time = start.elapsed();
                // Advance dirty/no-need state exactly like the other runs,
                // outside the timed window.
                let snap = dumper
                    .snapshot(&mut heap, SimTime::from_secs(cycle as u64))
                    .expect("snapshot");
                (gc_time + snap_time, snap)
            }
            PipelineVariant::FreshTrace => {
                let start = Instant::now();
                gc.collect(&mut heap, &SafepointRoots::none());
                let snap = dumper
                    .snapshot(&mut heap, SimTime::from_secs(cycle as u64))
                    .expect("snapshot");
                (start.elapsed(), snap)
            }
        };
        if cycle > 0 {
            samples.push(elapsed.as_nanos() as u64);
            snaps.push(snap);
        }
    }
    std::hint::black_box(sink);
    (samples, snaps)
}

fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn snapshots_equal(a: &Snapshot, b: &Snapshot) -> bool {
    a.seq == b.seq
        && a.at == b.at
        && a.live_objects == b.live_objects
        && a.size_bytes == b.size_bytes
        && a.capture_time == b.capture_time
        && a.sorted_hashes() == b.sorted_hashes()
}

// ---------------------------------------------------------------------------
// Recorder gate
// ---------------------------------------------------------------------------

struct RecorderWorkload {
    name: &'static str,
    /// Recorded allocations on the tape.
    allocs: u64,
    /// The stack depth the tape's push/pop walk hovers around.
    mean_depth: usize,
}

const RECORDER_WORKLOADS: &[RecorderWorkload] = &[
    RecorderWorkload {
        name: "small",
        allocs: 20_000,
        mean_depth: 8,
    },
    RecorderWorkload {
        name: "medium",
        allocs: 80_000,
        mean_depth: 16,
    },
    RecorderWorkload {
        name: "large",
        allocs: 200_000,
        mean_depth: 32,
    },
];

/// One step of a deterministic call/return/alloc tape. Both recorder
/// variants replay the same tape, so they observe the same frame stacks in
/// the same order and must produce identical records.
enum TapeOp {
    Push(TraceFrame),
    Pop,
    Alloc(IdentityHash),
}

/// Generates a tape that replays a *fixed pool* of call paths — the shape
/// real hotspot applications have (ROLP's premise: a bounded set of
/// allocation contexts visited over and over). Paths are grown from shared
/// prefixes (a call tree), each visit walks from the current stack to the
/// target path (popping to the common ancestor, pushing the rest) and
/// records a small burst of allocations at the leaf, like an allocation
/// loop in a method body. Frames resolve in [`grid_loaded`]'s program.
fn build_tape(w: &RecorderWorkload) -> Vec<TapeOp> {
    let mut rng = 0x7ec0_4dee_0000_0001u64 ^ (w.allocs << 8) ^ w.mean_depth as u64;
    let frame = |rng: &mut u64| TraceFrame {
        class_idx: (xorshift(rng) % CLASSES as u64) as u16,
        method_idx: (xorshift(rng) % METHODS as u64) as u16,
        line: 1 + (xorshift(rng) % 60) as u32,
    };
    // The path pool: each new path keeps a random-length prefix of an
    // existing one and descends with fresh frames to ~mean_depth.
    let mut paths: Vec<Vec<TraceFrame>> = vec![vec![frame(&mut rng)]];
    while paths.len() < 512 {
        let base = &paths[(xorshift(&mut rng) as usize) % paths.len()];
        let keep = 1 + (xorshift(&mut rng) as usize) % base.len();
        let mut path: Vec<TraceFrame> = base[..keep].to_vec();
        let depth = 1 + w.mean_depth / 2 + (xorshift(&mut rng) as usize) % w.mean_depth;
        while path.len() < depth {
            path.push(frame(&mut rng));
        }
        paths.push(path);
    }

    let mut tape = Vec::new();
    let mut current: Vec<TraceFrame> = Vec::new();
    let mut recorded = 0u64;
    let mut at = 0usize;
    while recorded < w.allocs {
        // Visit locality: drivers repeat an operation many times before
        // moving on, so most bursts happen in an unchanged context.
        if xorshift(&mut rng) % 10 >= 6 {
            at = (xorshift(&mut rng) as usize) % paths.len();
        }
        let target = &paths[at];
        let common = current
            .iter()
            .zip(target.iter())
            .take_while(|(a, b)| a == b)
            .count();
        for _ in common..current.len() {
            tape.push(TapeOp::Pop);
        }
        current.truncate(common);
        for &f in &target[common..] {
            tape.push(TapeOp::Push(f));
            current.push(f);
        }
        let burst = 1 + xorshift(&mut rng) % 8;
        for _ in 0..burst {
            if recorded >= w.allocs {
                break;
            }
            recorded += 1;
            tape.push(TapeOp::Alloc(IdentityHash::of(ObjectId::new(recorded))));
        }
    }
    for _ in 0..current.len() {
        tape.push(TapeOp::Pop);
    }
    tape
}

/// The seed recorder path, transcribed as the recorder gate's baseline:
/// maintain the frame stack, clone it into a fresh `Vec<TraceFrame>` per
/// allocation, and at each drain validate every frame against the program
/// and intern the trace frame by frame into the records.
fn run_recorder_stackwalk(
    program: &LoadedProgram,
    tape: &[TapeOp],
    drain_every: usize,
) -> (u64, AllocationRecords) {
    fn drain(
        records: &mut AllocationRecords,
        pending: &mut Vec<(Vec<TraceFrame>, IdentityHash)>,
        program: &LoadedProgram,
    ) {
        for (trace, hash) in pending.drain(..) {
            if !trace.is_empty() && trace.iter().all(|&f| program.frame_is_valid(f)) {
                records.record(&trace, hash);
            }
        }
    }
    let mut records = AllocationRecords::default();
    let mut stack: Vec<TraceFrame> = Vec::new();
    let mut pending: Vec<(Vec<TraceFrame>, IdentityHash)> = Vec::new();
    let start = Instant::now();
    for op in tape {
        match op {
            TapeOp::Push(f) => stack.push(*f),
            TapeOp::Pop => {
                stack.pop();
            }
            TapeOp::Alloc(hash) => {
                pending.push((stack.clone(), *hash));
                if pending.len() >= drain_every {
                    drain(&mut records, &mut pending, program);
                }
            }
        }
    }
    drain(&mut records, &mut pending, program);
    let elapsed = start.elapsed().as_nanos() as u64;
    (elapsed, records)
}

/// The trie recorder path: the same frame-stack bookkeeping, plus the
/// context node maintained at push/pop; each allocation is one child-edge
/// lookup and a columnar push, drained through the memoized node ingest.
fn run_recorder_trie(
    program: &LoadedProgram,
    tape: &[TapeOp],
    drain_every: usize,
) -> (u64, AllocationRecords) {
    let mut recorder = Recorder::new();
    let mut trie = TraceTrie::new();
    let mut stack: Vec<TraceFrame> = Vec::new();
    let mut context = TraceNodeId::ROOT;
    let mut buffer = AllocEventBuffer::new();
    let start = Instant::now();
    for op in tape {
        match op {
            TapeOp::Push(f) => {
                if let Some(&caller) = stack.last() {
                    context = trie.child(context, caller);
                }
                stack.push(*f);
            }
            TapeOp::Pop => {
                stack.pop();
                context = trie.parent(context);
            }
            TapeOp::Alloc(hash) => {
                let top = *stack.last().expect("alloc executes in a frame");
                let node = trie.child(context, top);
                buffer.push(node, *hash);
                if buffer.len() >= drain_every {
                    recorder.ingest_nodes_checked(&trie, program, &buffer);
                    buffer.clear();
                }
            }
        }
    }
    recorder.ingest_nodes_checked(&trie, program, &buffer);
    let elapsed = start.elapsed().as_nanos() as u64;
    (elapsed, recorder.into_records().expect("sole owner"))
}

/// Everything observable about an `AllocationRecords`, for the equality gate.
type RecordsFingerprint = (u64, Vec<(Vec<TraceFrame>, Vec<IdentityHash>)>);

fn records_fingerprint(r: &AllocationRecords) -> RecordsFingerprint {
    let per_trace = r
        .trace_ids()
        .map(|id| (r.trace(id), r.stream(id).to_vec()))
        .collect();
    (r.total_records(), per_trace)
}

/// Runs a real interpreter session over a 24-deep call chain and returns the
/// Recorder's records alongside records built from the chain's statically
/// known traces (fed the same hashes in event order): the end-to-end
/// cross-check that the tape emulation cannot drift away from the actual
/// runtime.
fn run_real_session() -> (AllocationRecords, AllocationRecords) {
    const DEPTH: usize = 24;
    let mut program = Program::new();
    let mut chain = ClassDef::new("Deep");
    for i in 0..DEPTH {
        let mut method = MethodDef::new(format!("m{i}"));
        if i + 1 < DEPTH {
            method = method.push(Instr::call("Deep", format!("m{}", i + 1), i as u32 + 1));
        }
        method = method.push(Instr::alloc("Obj", SizeSpec::Fixed(32), 40 + i as u32));
        chain = chain.with_method(method);
    }
    program.add_class(chain);
    // `m{i}` allocates after its callee returns, so one invocation records
    // the innermost method first: frames m0..m{i-1} at their call lines,
    // then m{i} at its allocation line.
    let frame = |method: usize, line: usize| TraceFrame {
        class_idx: 0,
        method_idx: method as u16,
        line: line as u32,
    };
    let expected_traces: Vec<Vec<TraceFrame>> = (0..DEPTH)
        .rev()
        .map(|i| {
            (0..i)
                .map(|j| frame(j, j + 1))
                .chain([frame(i, 40 + i)])
                .collect()
        })
        .collect();

    let mut recorder = Recorder::new();
    let mut expected = AllocationRecords::default();
    let mut jvm = Jvm::builder(RuntimeConfig::small())
        .transformer(recorder.agent())
        .build(program)
        .expect("boot");
    let t = jvm.spawn_thread();
    for _ in 0..200 {
        jvm.invoke(t, "Deep", "m0").expect("invoke");
        jvm.drain_alloc_batches(|trie, program, batch| {
            recorder.ingest_nodes_checked(trie, program, batch);
            for (k, &hash) in batch.hashes().iter().enumerate() {
                expected.record(&expected_traces[k % DEPTH], hash);
            }
        });
    }
    (recorder.into_records().expect("sole owner"), expected)
}

// ---------------------------------------------------------------------------
// GC mark+evacuate gate
// ---------------------------------------------------------------------------

struct GcGateWorkload {
    name: &'static str,
    /// Rooted old-generation objects, live for the whole run.
    stable_objects: u32,
    /// Young allocations per cycle; every 8th is rooted for roughly two
    /// cycles by a rotating slot, so each collection copies survivors,
    /// promotes, and later compacts the regions the dead wave leaves behind.
    churn_per_cycle: u32,
    /// Timed collection cycles (one extra warmup cycle is untimed).
    cycles: usize,
}

const GC_GATE_WORKLOADS: &[GcGateWorkload] = &[
    GcGateWorkload {
        name: "small",
        stable_objects: 4_000,
        churn_per_cycle: 1_500,
        cycles: 6,
    },
    GcGateWorkload {
        name: "large",
        stable_objects: 30_000,
        churn_per_cycle: 3_000,
        cycles: 10,
    },
];

/// One timed collection cycle's observables.
struct GcCycle {
    wall_ns: u64,
    work: GcWork,
    fingerprint: u64,
}

fn fnv_mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Everything observable about the heap after a cycle, folded to one hash:
/// per-space object placement (id, region, offset, size, age), every page's
/// dirty/no-need bits, and the free pool size. Bit-identical trajectories
/// across worker counts must produce identical fingerprints.
fn gc_heap_fingerprint(heap: &Heap) -> u64 {
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

/// The seed's per-pause mark+evacuate work, transcribed from the
/// pre-optimization sources: `mark_live` as a hash-set BFS (a map probe per
/// edge, hash-map region accounting — the pre-slab layout), then the young
/// evacuation loop's per-object bookkeeping: a map probe, a liveness probe,
/// survivor accounting, the vacated/destination page walks, and the
/// promotion buffer's ref clone. Runs against the mirror, read-only;
/// returns a checksum so the optimizer cannot discard the work.
fn seed_mark_evacuate_cost(heap: &Heap, mirror: &IdHashMap<ObjectId, SeedRecord>) -> u64 {
    // -- seed mark_live --
    let mut queue: VecDeque<ObjectId> = VecDeque::new();
    let mut live: IdHashSet<ObjectId> = IdHashSet::default();
    let mut live_bytes: u64 = 0;
    let mut region_live: IdHashMap<RegionId, u32> = IdHashMap::default();
    for id in heap.roots().iter() {
        if let Some(rec) = mirror.get(&id) {
            if live.insert(id) {
                live_bytes += u64::from(rec.size);
                *region_live.entry(rec.region).or_insert(0) += rec.size;
                queue.push_back(id);
            }
        }
    }
    let mut scratch: Vec<ObjectId> = Vec::new();
    while let Some(id) = queue.pop_front() {
        let rec = mirror.get(&id).expect("queued objects are live");
        scratch.clear();
        scratch.extend_from_slice(&rec.refs);
        for &child in &scratch {
            if let Some(child_rec) = mirror.get(&child) {
                if live.insert(child) {
                    live_bytes += u64::from(child_rec.size);
                    *region_live.entry(child_rec.region).or_insert(0) += child_rec.size;
                    queue.push_back(child);
                }
            }
        }
    }
    // -- seed evacuate_young --
    let mut checksum = live_bytes ^ live.len() as u64;
    let mut survivor_bytes = 0u64;
    let mut promoted: Vec<ObjectId> = Vec::new();
    for id in heap
        .objects_in_space(Heap::YOUNG_SPACE)
        .expect("young space")
    {
        let rec = mirror.get(&id).expect("young object mirrored");
        if !live.contains(&id) {
            // Dead: the vacated page range is walked for occupancy updates.
            for p in rec.first_page..=rec.last_page {
                checksum = checksum.rotate_left(1) ^ u64::from(p);
            }
            continue;
        }
        survivor_bytes += u64::from(rec.size);
        // Survivor: destination page walk (dirty, no-need, occupancy) plus
        // the vacated range.
        for p in rec.first_page..=rec.last_page {
            checksum = checksum.rotate_left(3) ^ u64::from(p);
        }
        checksum ^= u64::from(region_live.get(&rec.region).copied().unwrap_or(0));
        promoted.push(id);
    }
    // The promotion buffer: the seed cloned each promoted object's refs to
    // rebuild the remembered set after the move.
    let mut remembered: Vec<ObjectId> = Vec::new();
    for id in &promoted {
        remembered.extend_from_slice(&mirror.get(id).expect("promoted object").refs);
    }
    checksum ^ survivor_bytes.rotate_left(13) ^ remembered.len() as u64
}

/// One full GC-gate run: the heap trajectory is a pure function of the
/// workload, so every worker count (and the seed emulation, which advances
/// state with the real collector untimed) must produce identical per-cycle
/// fingerprints and work accounting.
fn run_gc_gate(w: &GcGateWorkload, workers: usize, seed_equivalent: bool) -> Vec<GcCycle> {
    let mut heap = Heap::new(HeapConfig::paper_scaled());
    let mut gc = G1Collector::new(GcConfig {
        gc_workers: workers,
        ..GcConfig::default()
    });
    gc.attach(&mut heap);
    let old = heap
        .spaces()
        .iter()
        .map(|s| s.id())
        .find(|&id| id != Heap::YOUNG_SPACE)
        .expect("collector old space");

    // Stable old generation: star groups of 16 hanging off rooted hubs,
    // hubs chained together — the mark does real pointer chasing.
    let class = heap.classes_mut().intern("Stable");
    let keep = heap.roots_mut().create_slot("stable");
    let mut hub: Option<ObjectId> = None;
    for i in 0..w.stable_objects {
        let id = heap
            .allocate(class, 2_048, SiteId::new(i % 7), old)
            .expect("stable allocation");
        if i % 16 == 0 {
            heap.roots_mut().push(keep, id);
            if let Some(prev) = hub {
                heap.add_ref(prev, id).expect("hub chain");
            }
            hub = Some(id);
        } else {
            heap.add_ref(hub.expect("hub allocated first"), id)
                .expect("star edge");
        }
    }

    let churn_class = heap.classes_mut().intern("Churn");
    let waves = [
        heap.roots_mut().create_slot("wave-a"),
        heap.roots_mut().create_slot("wave-b"),
    ];
    let mut out = Vec::with_capacity(w.cycles);
    let mut sink = 0u64;
    for cycle in 0..w.cycles + 1 {
        // Rotate the survivor roots: last cycle's wave dies, this cycle's
        // survives the collection and is promoted.
        heap.roots_mut().clear_slot(waves[cycle % 2]);
        for i in 0..w.churn_per_cycle {
            let id = heap
                .allocate(
                    churn_class,
                    4_096,
                    SiteId::new(8 + i % 5),
                    Heap::YOUNG_SPACE,
                )
                .expect("churn allocation");
            if i % 8 == 0 {
                heap.roots_mut().push(waves[cycle % 2], id);
            }
        }
        let (wall_ns, pauses) = if seed_equivalent {
            // The mirror rebuild stands in for the bookkeeping the seed heap
            // did throughout the cycle; it is not timed. The real collector
            // advances the trajectory outside the timed window.
            let mirror = build_seed_mirror(&heap);
            let start = Instant::now();
            sink ^= seed_mark_evacuate_cost(&heap, &mirror);
            let ns = start.elapsed().as_nanos() as u64;
            (ns, gc.collect(&mut heap, &SafepointRoots::none()))
        } else {
            let start = Instant::now();
            let pauses = gc.collect(&mut heap, &SafepointRoots::none());
            (start.elapsed().as_nanos() as u64, pauses)
        };
        if cycle > 0 {
            let work = pauses
                .iter()
                .fold(GcWork::default(), |acc, p| acc.merged(p.work));
            out.push(GcCycle {
                wall_ns,
                work,
                fingerprint: gc_heap_fingerprint(&heap),
            });
        }
    }
    std::hint::black_box(sink);
    out
}

// ---------------------------------------------------------------------------
// Real-memory heap backend gate
// ---------------------------------------------------------------------------

/// One heap-gate run's observables: the per-cycle trajectory (heap
/// fingerprint + merged `GcWork`), the streamed snapshot sequence, and the
/// raw material for the allocation-cost and copy-bandwidth figures.
struct HeapGateRun {
    /// Per timed cycle: heap fingerprint and merged collection work.
    cycles: Vec<(u64, GcWork)>,
    /// Streamed snapshots, one per timed cycle.
    snaps: Vec<Snapshot>,
    /// Wall-clock spent inside `Heap::allocate` calls, and how many.
    alloc_ns: u64,
    allocs: u64,
    /// Payload bytes the backend memcpy'd across the run (0 on sim).
    copied_bytes: u64,
    /// Wall-clock of the collections that did the copying.
    collect_ns: u64,
    /// Wall-clock spent inside the evacuation copy phases alone — the
    /// phase-accurate denominator for copy bandwidth (collection wall-clock
    /// also pays mark, planning, and fix-up).
    copy_phase_ns: u64,
    /// TLAB window refills on the allocation path.
    tlab_refills: u64,
}

/// Drives the GC-gate churn workload on the given backend and worker count,
/// with the break-even tuning forced so multi-worker runs take the sharded
/// mark even on a single-CPU host; evacuation, and with it the timed copy
/// phase, is serial at every worker count. Each cycle also streams a
/// snapshot off the heap — on the real backend the hash column comes out of
/// the object headers the backend wrote, so snapshot equality checks the
/// payload stores and copies end to end.
fn run_heap_gate(w: &GcGateWorkload, workers: usize, backend: BackendKind) -> HeapGateRun {
    let mut heap = Heap::new(HeapConfig::paper_scaled().with_backend(backend));
    heap.set_parallel_tuning(ParallelTuning::force());
    let mut gc = G1Collector::new(GcConfig {
        gc_workers: workers,
        ..GcConfig::default()
    });
    gc.attach(&mut heap);
    let old = heap
        .spaces()
        .iter()
        .map(|s| s.id())
        .find(|&id| id != Heap::YOUNG_SPACE)
        .expect("collector old space");

    let mut alloc_ns = 0u64;
    let mut allocs = 0u64;

    // Stable old generation, identical to the GC gate's; the allocation
    // loop is timed (header + payload stores are the real backend's cost).
    let class = heap.classes_mut().intern("Stable");
    let keep = heap.roots_mut().create_slot("stable");
    let mut hub: Option<ObjectId> = None;
    for i in 0..w.stable_objects {
        let start = Instant::now();
        let id = heap
            .allocate(class, 2_048, SiteId::new(i % 7), old)
            .expect("stable allocation");
        alloc_ns += start.elapsed().as_nanos() as u64;
        allocs += 1;
        if i % 16 == 0 {
            heap.roots_mut().push(keep, id);
            if let Some(prev) = hub {
                heap.add_ref(prev, id).expect("hub chain");
            }
            hub = Some(id);
        } else {
            heap.add_ref(hub.expect("hub allocated first"), id)
                .expect("star edge");
        }
    }

    let churn_class = heap.classes_mut().intern("Churn");
    let waves = [
        heap.roots_mut().create_slot("wave-a"),
        heap.roots_mut().create_slot("wave-b"),
    ];
    let mut dumper = CriuDumper::new();
    let mut cycles = Vec::with_capacity(w.cycles);
    let mut snaps = Vec::with_capacity(w.cycles);
    let mut copied_bytes = 0u64;
    let mut collect_ns = 0u64;
    let mut copy_phase_ns = 0u64;
    for cycle in 0..w.cycles + 1 {
        heap.roots_mut().clear_slot(waves[cycle % 2]);
        for i in 0..w.churn_per_cycle {
            let start = Instant::now();
            let id = heap
                .allocate(
                    churn_class,
                    4_096,
                    SiteId::new(8 + i % 5),
                    Heap::YOUNG_SPACE,
                )
                .expect("churn allocation");
            alloc_ns += start.elapsed().as_nanos() as u64;
            allocs += 1;
            if i % 8 == 0 {
                heap.roots_mut().push(waves[cycle % 2], id);
            }
        }
        let before = heap.backend_stats();
        let start = Instant::now();
        let pauses = gc.collect(&mut heap, &SafepointRoots::none());
        let ns = start.elapsed().as_nanos() as u64;
        let after = heap.backend_stats();
        let snap = dumper
            .snapshot(&mut heap, SimTime::from_secs(cycle as u64))
            .expect("snapshot");
        if cycle > 0 {
            let work = pauses
                .iter()
                .fold(GcWork::default(), |acc, p| acc.merged(p.work));
            cycles.push((gc_heap_fingerprint(&heap), work));
            snaps.push(snap);
            copied_bytes += after.bytes_copied - before.bytes_copied;
            collect_ns += ns;
            copy_phase_ns += after.copy_phase_ns - before.copy_phase_ns;
        }
    }
    let tlab_refills = heap.backend_stats().tlab_refills;
    HeapGateRun {
        cycles,
        snaps,
        alloc_ns,
        allocs,
        copied_bytes,
        collect_ns,
        copy_phase_ns,
        tlab_refills,
    }
}

/// Fails the gate when a committed default-path bench JSON is missing,
/// carries an older schema version, or lacks a field the current gate
/// emits (`required` substrings): stale numbers alongside new code are
/// worse than no numbers.
fn check_committed_bench(path: &str, required: &[&str]) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{path}: not readable ({e}); regenerate with `perfgate`"))?;
    let tail = text
        .split("\"schema_version\":")
        .nth(1)
        .ok_or_else(|| format!("{path}: no schema_version field (pre-v{SCHEMA_VERSION} output)"))?;
    let version: u32 = tail
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .map_err(|_| format!("{path}: unparsable schema_version"))?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "{path}: schema_version {version} != gate version {SCHEMA_VERSION}; regenerate with `perfgate`"
        ));
    }
    for field in required {
        if !text.contains(field) {
            return Err(format!(
                "{path}: missing field \"{field}\" the current gate emits; regenerate with `perfgate`"
            ));
        }
    }
    Ok(())
}

fn main() {
    let mut quick = false;
    let mut min_pipeline_speedup: Option<f64> = None;
    let mut min_recorder_speedup = 3.0f64;
    let mut min_gc_speedup = 2.0f64;
    let mut min_heap_gbps = 0.05f64;
    let mut out_path = String::from("BENCH_analyzer.json");
    let mut pipeline_out_path = String::from("BENCH_pipeline.json");
    let mut recorder_out_path = String::from("BENCH_recorder.json");
    let mut gc_out_path = String::from("BENCH_gc.json");
    let mut heap_out_path = String::from("BENCH_heap.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--min-pipeline-speedup" => {
                let v = args.next().expect("--min-pipeline-speedup needs a value");
                min_pipeline_speedup =
                    Some(v.parse().expect("--min-pipeline-speedup needs a number"));
            }
            "--min-recorder-speedup" => {
                let v = args.next().expect("--min-recorder-speedup needs a value");
                min_recorder_speedup = v.parse().expect("--min-recorder-speedup needs a number");
            }
            "--min-gc-speedup" => {
                let v = args.next().expect("--min-gc-speedup needs a value");
                min_gc_speedup = v.parse().expect("--min-gc-speedup needs a number");
            }
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--pipeline-out" => {
                pipeline_out_path = args.next().expect("--pipeline-out needs a path");
            }
            "--recorder-out" => {
                recorder_out_path = args.next().expect("--recorder-out needs a path");
            }
            "--gc-out" => gc_out_path = args.next().expect("--gc-out needs a path"),
            "--heap-out" => heap_out_path = args.next().expect("--heap-out needs a path"),
            "--min-heap-gbps" => {
                let v = args.next().expect("--min-heap-gbps needs a value");
                min_heap_gbps = v.parse().expect("--min-heap-gbps needs a number");
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    let runs = if quick { 3 } else { 7 };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!("perfgate: analyzer replay, {runs} runs/variant");
    println!(
        "{:<8} {:>9} {:>5} | {:>14} {:>14}",
        "size", "records", "snaps", "probe-oracle", "analyzer"
    );

    let mut rows = Vec::new();
    let mut diverged = false;
    let analyzer = Analyzer::new(analyzer_config());
    for w in WORKLOADS {
        let (records, series, program) = build_inputs(w);
        let (oracle_ns, oracle) = measure(w.records, runs, || hashprobe_oracle(&records, &series));
        let (analyzer_ns, outcome) = measure(w.records, runs, || {
            analyzer.analyze(&records, &series, &program)
        });
        let replayed: Vec<TraceStats> = outcome
            .lifetimes
            .traces()
            .iter()
            .map(|t| {
                let histogram = t.histogram.iter().map(|(&s, &n)| (s, n)).collect();
                (histogram, t.typical_survivals, t.objects)
            })
            .collect();
        let identical = replayed == oracle;
        if !identical {
            diverged = true;
            eprintln!(
                "FAIL: {} analyzer survivals diverge from the hash-probe oracle",
                w.name
            );
        }
        println!(
            "{:<8} {:>9} {:>5} | {:>11} ns {:>11} ns",
            w.name, w.records, w.snapshots, oracle_ns, analyzer_ns
        );
        rows.push(format!(
            concat!(
                "    {{\"name\": \"{}\", \"records\": {}, \"snapshots\": {}, ",
                "\"hashprobe_oracle_ns_per_record\": {}, ",
                "\"analyzer_ns_per_record\": {}, ",
                "\"outputs_identical\": {}}}"
            ),
            json_escape(w.name),
            w.records,
            w.snapshots,
            oracle_ns,
            analyzer_ns,
            identical
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"analyzer_replay\",\n  \"schema_version\": {},\n  \"host_cpus\": {},\n  \"units\": \"median ns/record, {} runs; the oracle times the survival replay only, the analyzer the whole analysis\",\n  \"workloads\": [\n{}\n  ]\n}}\n",
        SCHEMA_VERSION,
        host_cpus,
        runs,
        rows.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");

    // ---- online pipeline gate -------------------------------------------
    println!();
    println!("perfgate: online GC+snapshot pipeline, median over timed cycles");
    println!(
        "{:<8} {:>8} {:>7} {:>6} | {:>14} {:>14} | {:>8}",
        "size", "stable", "churn", "cycles", "seed-equiv", "fresh-trace", "speedup"
    );
    let mut pipeline_rows = Vec::new();
    let mut large_pipeline_speedup = 0.0f64;
    for w in PIPELINE_WORKLOADS {
        let cycles = if quick { w.cycles.min(4) } else { w.cycles };
        let w = PipelineWorkload { cycles, ..*w };
        let (seed_samples, seed_snaps) = run_pipeline(&w, PipelineVariant::SeedEquivalent);
        let (fresh_samples, fresh_snaps) = run_pipeline(&w, PipelineVariant::FreshTrace);

        let identical = seed_snaps.len() == fresh_snaps.len()
            && fresh_snaps
                .iter()
                .zip(&seed_snaps)
                .all(|(fresh, seed)| snapshots_equal(fresh, seed));
        if !identical {
            diverged = true;
            eprintln!(
                "FAIL: {} snapshot sequences diverge between pipeline variants",
                w.name
            );
        }
        let seed_ns = median(seed_samples);
        let fresh_ns = median(fresh_samples);
        let speedup = seed_ns as f64 / fresh_ns.max(1) as f64;
        if w.name == "large" {
            large_pipeline_speedup = speedup;
        }
        println!(
            "{:<8} {:>8} {:>7} {:>6} | {:>11} ns {:>11} ns | {:>7.2}x",
            w.name, w.stable_objects, w.churn_per_cycle, w.cycles, seed_ns, fresh_ns, speedup
        );
        pipeline_rows.push(format!(
            concat!(
                "    {{\"name\": \"{}\", \"stable_objects\": {}, ",
                "\"churn_per_cycle\": {}, \"cycles\": {}, ",
                "\"seed_equivalent_ns_per_cycle\": {}, ",
                "\"fresh_trace_ns_per_cycle\": {}, ",
                "\"speedup_fresh_vs_seed\": {:.2}, ",
                "\"outputs_identical\": {}}}"
            ),
            json_escape(w.name),
            w.stable_objects,
            w.churn_per_cycle,
            w.cycles,
            seed_ns,
            fresh_ns,
            speedup,
            identical
        ));
    }
    let pipeline_json = format!(
        "{{\n  \"bench\": \"online_pipeline\",\n  \"schema_version\": {},\n  \"host_cpus\": {},\n  \"units\": \"median ns per GC+snapshot cycle\",\n  \"workloads\": [\n{}\n  ]\n}}\n",
        SCHEMA_VERSION,
        host_cpus,
        pipeline_rows.join(",\n")
    );
    std::fs::write(&pipeline_out_path, &pipeline_json).expect("write pipeline bench json");
    println!("wrote {pipeline_out_path}");

    // ---- recorder gate ---------------------------------------------------
    println!();
    println!("perfgate: allocation recorder, {runs} runs/variant, median ns/allocation");
    println!(
        "{:<8} {:>9} {:>6} | {:>14} {:>14} | {:>8}",
        "size", "allocs", "depth", "stack-walk", "trace-trie", "speedup"
    );
    let program = grid_loaded();
    let drain_every = AllocEventBuffer::DEFAULT_CAPACITY;
    let mut recorder_rows = Vec::new();
    let mut large_recorder_speedup = 0.0f64;
    for w in RECORDER_WORKLOADS {
        let tape = build_tape(w);
        // Warmup + timed runs per variant; the cold trie/memos are rebuilt
        // every run, so their construction cost is inside the measurement.
        let mut walk_samples = Vec::with_capacity(runs);
        let mut trie_samples = Vec::with_capacity(runs);
        let (_, mut walk_records) = run_recorder_stackwalk(&program, &tape, drain_every);
        let (_, mut trie_records) = run_recorder_trie(&program, &tape, drain_every);
        for _ in 0..runs {
            let (ns, r) = run_recorder_stackwalk(&program, &tape, drain_every);
            walk_samples.push(ns / w.allocs.max(1));
            walk_records = r;
            let (ns, r) = run_recorder_trie(&program, &tape, drain_every);
            trie_samples.push(ns / w.allocs.max(1));
            trie_records = r;
        }
        let identical = records_fingerprint(&walk_records) == records_fingerprint(&trie_records);
        if !identical {
            diverged = true;
            eprintln!("FAIL: {} recorder paths produced different records", w.name);
        }
        let walk_ns = median(walk_samples);
        let trie_ns = median(trie_samples);
        let speedup = walk_ns as f64 / trie_ns.max(1) as f64;
        if w.name == "large" {
            large_recorder_speedup = speedup;
        }
        println!(
            "{:<8} {:>9} {:>6} | {:>11} ns {:>11} ns | {:>7.2}x",
            w.name, w.allocs, w.mean_depth, walk_ns, trie_ns, speedup
        );
        recorder_rows.push(format!(
            concat!(
                "    {{\"name\": \"{}\", \"allocs\": {}, \"mean_depth\": {}, ",
                "\"stackwalk_ns_per_alloc\": {}, ",
                "\"trie_ns_per_alloc\": {}, ",
                "\"speedup_trie_vs_stackwalk\": {:.2}, ",
                "\"outputs_identical\": {}}}"
            ),
            json_escape(w.name),
            w.allocs,
            w.mean_depth,
            walk_ns,
            trie_ns,
            speedup,
            identical
        ));
    }
    // End-to-end cross-check on the real interpreter against the chain's
    // statically known traces.
    let (real_trie, real_expected) = run_real_session();
    let real_identical = records_fingerprint(&real_trie) == records_fingerprint(&real_expected);
    if !real_identical {
        diverged = true;
        eprintln!("FAIL: real-runtime recorder traces differ from the chain's known traces");
    }
    println!(
        "real-runtime cross-check: {} records, identical = {real_identical}",
        real_trie.total_records()
    );
    let recorder_json = format!(
        concat!(
            "{{\n  \"bench\": \"allocation_recorder\",\n",
            "  \"schema_version\": {},\n",
            "  \"host_cpus\": {},\n",
            "  \"units\": \"median ns/allocation, {} runs\",\n",
            "  \"drain_every\": {},\n",
            "  \"real_runtime_outputs_identical\": {},\n",
            "  \"workloads\": [\n{}\n  ]\n}}\n"
        ),
        SCHEMA_VERSION,
        host_cpus,
        runs,
        drain_every,
        real_identical,
        recorder_rows.join(",\n")
    );
    std::fs::write(&recorder_out_path, &recorder_json).expect("write recorder bench json");
    println!("wrote {recorder_out_path}");

    // ---- GC mark+evacuate gate -------------------------------------------
    println!();
    println!("perfgate: GC mark+evacuate, median over timed cycles");
    println!(
        "{:<8} {:>8} {:>7} {:>6} | {:>13} {:>13} | {:>8} {:>9}",
        "size", "stable", "churn", "cycles", "seed-equiv", "engine-1w", "vs-seed", "4w/1w-mod"
    );
    let cost = GcConfig::default().cost;
    let mut gc_rows = Vec::new();
    let mut large_gc_speedup = 0.0f64;
    let mut gc_single_worker_ok = true;
    for w in GC_GATE_WORKLOADS {
        let cycles = if quick { w.cycles.min(4) } else { w.cycles };
        let w = GcGateWorkload { cycles, ..*w };
        let seed = run_gc_gate(&w, 1, true);
        let engine1 = run_gc_gate(&w, 1, false);
        let engine2 = run_gc_gate(&w, 2, false);
        let engine4 = run_gc_gate(&w, 4, false);

        let identical = [&engine1, &engine2, &engine4].iter().all(|run| {
            run.len() == seed.len()
                && run
                    .iter()
                    .zip(seed.iter())
                    .all(|(a, b)| a.fingerprint == b.fingerprint && a.work == b.work)
        });
        if !identical {
            diverged = true;
            eprintln!(
                "FAIL: {} heap trajectories diverge across GC worker counts",
                w.name
            );
        }

        let seed_ns = median(seed.iter().map(|c| c.wall_ns).collect());
        let engine1_ns = median(engine1.iter().map(|c| c.wall_ns).collect());
        let engine2_ns = median(engine2.iter().map(|c| c.wall_ns).collect());
        let engine4_ns = median(engine4.iter().map(|c| c.wall_ns).collect());
        let vs_seed = seed_ns as f64 / engine1_ns.max(1) as f64;
        // The single-CPU host cannot show wall-clock parallel gains; the
        // 4-vs-1 number is the cost model's Amdahl split over measured work.
        let pause1_us = median(
            engine1
                .iter()
                .map(|c| cost.pause_with_workers(&c.work, 1).as_micros())
                .collect(),
        );
        let pause4_us = median(
            engine1
                .iter()
                .map(|c| cost.pause_with_workers(&c.work, 4).as_micros())
                .collect(),
        );
        let modeled = pause1_us as f64 / pause4_us.max(1) as f64;
        if w.name == "large" {
            large_gc_speedup = modeled;
        }
        // The parallel claim/steal machinery must not tax the 1-worker path:
        // the engine must stay within 5% of the seed-equivalent serial cost.
        let single_ok = vs_seed >= 0.95;
        if !single_ok {
            gc_single_worker_ok = false;
            eprintln!(
                "FAIL: {} single-worker engine at {:.2}x of the serial baseline (floor 0.95x)",
                w.name, vs_seed
            );
        }
        println!(
            "{:<8} {:>8} {:>7} {:>6} | {:>10} ns {:>10} ns | {:>7.2}x {:>8.2}x",
            w.name,
            w.stable_objects,
            w.churn_per_cycle,
            w.cycles,
            seed_ns,
            engine1_ns,
            vs_seed,
            modeled
        );
        gc_rows.push(format!(
            concat!(
                "    {{\"name\": \"{}\", \"stable_objects\": {}, ",
                "\"churn_per_cycle\": {}, \"cycles\": {}, ",
                "\"seed_equivalent_ns_per_cycle\": {}, ",
                "\"engine_1w_ns_per_cycle\": {}, ",
                "\"engine_2w_ns_per_cycle\": {}, ",
                "\"engine_4w_ns_per_cycle\": {}, ",
                "\"speedup_engine_vs_seed\": {:.2}, ",
                "\"modeled_pause_1w_us\": {}, ",
                "\"modeled_pause_4w_us\": {}, ",
                "\"speedup_modeled_4w_vs_1w\": {:.2}, ",
                "\"single_worker_within_5pct_of_serial\": {}, ",
                "\"outputs_identical\": {}}}"
            ),
            json_escape(w.name),
            w.stable_objects,
            w.churn_per_cycle,
            w.cycles,
            seed_ns,
            engine1_ns,
            engine2_ns,
            engine4_ns,
            vs_seed,
            pause1_us,
            pause4_us,
            modeled,
            single_ok,
            identical
        ));
    }
    let gc_json = format!(
        "{{\n  \"bench\": \"gc_mark_evacuate\",\n  \"schema_version\": {},\n  \"host_cpus\": {},\n  \"units\": \"median ns per collection cycle; pauses in modeled us\",\n  \"workloads\": [\n{}\n  ]\n}}\n",
        SCHEMA_VERSION,
        host_cpus,
        gc_rows.join(",\n")
    );
    std::fs::write(&gc_out_path, &gc_json).expect("write gc bench json");
    println!("wrote {gc_out_path}");

    // ---- real-memory heap backend gate -----------------------------------
    println!();
    println!("perfgate: heap backend, real alloc + copy bandwidth, sim/real equality");
    println!(
        "{:<8} {:>6} | {:>11} {:>11} | {:>9} | {:>9}",
        "size", "cycles", "alloc-sim", "alloc-real", "copy-gbps", "identical"
    );
    let mut heap_rows = Vec::new();
    let mut large_heap_gbps = 0.0f64;
    for w in GC_GATE_WORKLOADS {
        let cycles = if quick { w.cycles.min(4) } else { w.cycles };
        let w = GcGateWorkload { cycles, ..*w };
        let sim = run_heap_gate(&w, 1, BackendKind::Sim);
        // Two more sim runs feed the alloc baseline only (the first run's
        // snapshots anchor the equality gate): the real alloc figure below
        // is the fastest of three repetitions, so the sim side must use
        // the same estimator or host noise in a single sim run skews the
        // real/sim ratio either way.
        let sim_alloc_reruns = [
            run_heap_gate(&w, 1, BackendKind::Sim),
            run_heap_gate(&w, 1, BackendKind::Sim),
        ];
        let real1 = run_heap_gate(&w, 1, BackendKind::Real);
        let real2 = run_heap_gate(&w, 2, BackendKind::Real);
        let real4 = run_heap_gate(&w, 4, BackendKind::Real);

        // The hard gate: identical trajectories (placement fingerprints +
        // GcWork) and identical streamed snapshot sequences, sim vs real at
        // every worker count. On the real backend the snapshot columns are
        // read back out of object headers, so this also proves every payload
        // store and memcpy landed where the logical layout says it did.
        let identical = [&real1, &real2, &real4].iter().all(|r| {
            r.cycles == sim.cycles
                && r.snaps.len() == sim.snaps.len()
                && r.snaps
                    .iter()
                    .zip(sim.snaps.iter())
                    .all(|(a, b)| snapshots_equal(a, b))
        });
        if !identical {
            diverged = true;
            eprintln!("FAIL: {} sim and real backends diverged", w.name);
        }
        if real1.copied_bytes == 0 || sim.copied_bytes != 0 {
            diverged = true;
            eprintln!(
                "FAIL: {} backend byte accounting wrong (real copied {} bytes, sim {})",
                w.name, real1.copied_bytes, sim.copied_bytes
            );
        }

        let alloc_sim_ns = [&sim, &sim_alloc_reruns[0], &sim_alloc_reruns[1]]
            .iter()
            .map(|r| r.alloc_ns / r.allocs.max(1))
            .min()
            .expect("three sim runs");
        // The allocation loop is identical across the three real runs (the
        // worker count only changes the mark), so they are three
        // repetitions of one alloc benchmark; report the fastest, the
        // steady-state figure. The first run's arena is freshly prefaulted
        // and still pays one-time host-side page-materialization debt that
        // the recycled arenas of the later runs do not.
        let alloc_real_ns = [&real1, &real2, &real4]
            .iter()
            .map(|r| r.alloc_ns / r.allocs.max(1))
            .min()
            .expect("three real runs");
        // Phase-accurate copy bandwidth: bytes/ns == GB/s over the serial
        // copy phase's wall-clock only.
        let gbps = real1.copied_bytes as f64 / real1.copy_phase_ns.max(1) as f64;
        if w.name == "large" {
            large_heap_gbps = gbps;
        }
        println!(
            "{:<8} {:>6} | {:>8} ns {:>8} ns | {:>9.2} | {:>9}",
            w.name, w.cycles, alloc_sim_ns, alloc_real_ns, gbps, identical
        );
        heap_rows.push(format!(
            concat!(
                "    {{\"name\": \"{}\", \"cycles\": {}, ",
                "\"alloc_ns_per_object_sim\": {}, ",
                "\"alloc_ns_per_object_real\": {}, ",
                "\"alloc_real_over_sim\": {:.2}, ",
                "\"tlab_refills\": {}, ",
                "\"real_copied_bytes_per_run\": {}, ",
                "\"copy_phase_ns_1w\": {}, ",
                "\"copy_gbps_1w\": {:.3}, ",
                "\"copy_gbps_wallclock_1w\": {:.3}, ",
                "\"outputs_identical\": {}}}"
            ),
            json_escape(w.name),
            w.cycles,
            alloc_sim_ns,
            alloc_real_ns,
            alloc_real_ns as f64 / alloc_sim_ns.max(1) as f64,
            real1.tlab_refills,
            real1.copied_bytes,
            real1.copy_phase_ns,
            gbps,
            // Payload bytes over *collection* wall-clock, kept in the row so
            // the phase-accurate figure's gain over it stays visible
            // (collection wall-clock also pays mark, planning, and fix-up).
            real1.copied_bytes as f64 / real1.collect_ns.max(1) as f64,
            identical
        ));
    }
    let heap_json = format!(
        concat!(
            "{{\n  \"bench\": \"heap_backend\",\n",
            "  \"schema_version\": {},\n",
            "  \"host_cpus\": {},\n",
            "  \"units\": \"alloc in ns/object; copy bandwidth in GB/s of payload memcpy over the serial copy phase's wall-clock (copy_gbps_1w) or the whole collection's (copy_gbps_wallclock_1w), measured at 1 worker; the 2- and 4-worker runs feed the equality gate only\",\n",
            "  \"workloads\": [\n{}\n  ]\n}}\n"
        ),
        SCHEMA_VERSION,
        host_cpus,
        heap_rows.join(",\n")
    );
    std::fs::write(&heap_out_path, &heap_json).expect("write heap bench json");
    println!("wrote {heap_out_path}");

    if diverged {
        std::process::exit(1);
    }
    if let Some(min) = min_pipeline_speedup {
        if large_pipeline_speedup < min {
            eprintln!(
                "FAIL: large-workload pipeline speedup {large_pipeline_speedup:.2}x below required {min:.2}x"
            );
            std::process::exit(1);
        }
        println!("pipeline speedup gate passed: {large_pipeline_speedup:.2}x >= {min:.2}x");
    }
    if large_recorder_speedup < min_recorder_speedup {
        eprintln!(
            "FAIL: large-workload recorder speedup {large_recorder_speedup:.2}x below required {min_recorder_speedup:.2}x"
        );
        std::process::exit(1);
    }
    println!(
        "recorder speedup gate passed: {large_recorder_speedup:.2}x >= {min_recorder_speedup:.2}x"
    );
    if large_gc_speedup < min_gc_speedup {
        eprintln!(
            "FAIL: large-workload modeled 4-worker GC speedup {large_gc_speedup:.2}x below required {min_gc_speedup:.2}x"
        );
        std::process::exit(1);
    }
    println!("gc speedup gate passed: {large_gc_speedup:.2}x >= {min_gc_speedup:.2}x");
    if !gc_single_worker_ok {
        eprintln!("FAIL: single-worker GC throughput fell below 95% of the serial baseline");
        std::process::exit(1);
    }
    println!("gc single-worker throughput gate passed");
    if large_heap_gbps < min_heap_gbps {
        eprintln!(
            "FAIL: large-workload real copy bandwidth {large_heap_gbps:.3} GB/s below required {min_heap_gbps:.3} GB/s"
        );
        std::process::exit(1);
    }
    println!(
        "heap copy-bandwidth gate passed: {large_heap_gbps:.3} GB/s >= {min_heap_gbps:.3} GB/s"
    );

    // ---- committed-results staleness check -------------------------------
    // Checked at the default paths regardless of --out overrides: CI runs
    // write throwaway files but the repo's committed numbers must match the
    // gate's schema.
    let mut stale = false;
    for (path, required) in [
        (
            "BENCH_analyzer.json",
            &[
                "host_cpus",
                "hashprobe_oracle_ns_per_record",
                "analyzer_ns_per_record",
            ][..],
        ),
        (
            "BENCH_pipeline.json",
            &["host_cpus", "speedup_fresh_vs_seed"],
        ),
        (
            "BENCH_recorder.json",
            &["host_cpus", "real_runtime_outputs_identical"],
        ),
        ("BENCH_gc.json", &["host_cpus"]),
        (
            "BENCH_heap.json",
            &[
                "host_cpus",
                "copy_phase_ns_1w",
                "copy_gbps_1w",
                "copy_gbps_wallclock_1w",
                "tlab_refills",
                "alloc_real_over_sim",
            ],
        ),
    ] {
        if let Err(reason) = check_committed_bench(path, required) {
            eprintln!("FAIL: stale committed bench results — {reason}");
            stale = true;
        }
    }
    if stale {
        std::process::exit(1);
    }
    println!("committed bench results are at schema version {SCHEMA_VERSION}");
}

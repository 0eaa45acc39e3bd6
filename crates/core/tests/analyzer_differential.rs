//! Differential suite for the Analyzer's survival replay: on any input, the
//! per-trace statistics it derives from the columnar survival table —
//! `histogram`, `typical_survivals` and `objects` of every trace, in trace-id
//! order — must equal a plain hash-map fold over the same records and
//! snapshots (one probe per object, counting its snapshot appearances). The
//! fold reads the snapshots' input hash sets, never the series under test.
//! Checked on seeded random workloads, on degenerate inputs, and on whole
//! profiling sessions under seeded fault injection.
//!
//! `proptest` is not available offline, so the generator is a hand-rolled
//! deterministic xorshift: each seed yields one reproducible random workload
//! (program shape, trace depths, object counts, lifespans), and the property
//! is checked across a spread of seeds.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;

use polm2_core::journal::{replay, KIND_COMMIT};
use polm2_core::{
    AllocationRecords, AnalysisOutcome, Analyzer, AnalyzerConfig, FaultConfig, JournalRetryPolicy,
    ProfilingSession, SessionJournal, SessionMeta, SnapshotPolicy,
};
use polm2_heap::{Heap, HeapConfig, IdentityHash, ObjectId};
use polm2_metrics::{SimDuration, SimTime};
use polm2_runtime::{
    ClassDef, HookAction, HookRegistry, Instr, Jvm, LoadedProgram, Loader, MethodDef, Program,
    RuntimeConfig, SizeSpec, TraceFrame,
};
use polm2_snapshot::journal::{recover, DEFAULT_SEGMENT_BYTES};
use polm2_snapshot::{FsMedia, JournalWriter, Snapshot, SnapshotSeries};

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Each snapshot's content as a hash set: the fold's input.
type Columns = Vec<HashSet<IdentityHash>>;

/// A series of snapshots holding `columns`, in order.
fn series_of(columns: &Columns) -> SnapshotSeries {
    columns
        .iter()
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
        .collect()
}

/// Rebuilds each snapshot's content from a series' deltas (for a series
/// that only exists as a replayed journal).
fn columns_of(series: &SnapshotSeries) -> Columns {
    let mut column = HashSet::new();
    let mut out = Vec::new();
    for delta in series.snapshots() {
        for raw in delta.removed() {
            column.remove(&IdentityHash::from_raw(raw));
        }
        column.extend(delta.added().iter().map(|&raw| IdentityHash::from_raw(raw)));
        out.push(column.clone());
    }
    out
}

/// One seeded random workload: a loaded program plus records and snapshots
/// generated directly (no JVM run needed — the Analyzer only sees these).
fn random_workload(seed: u64) -> (AllocationRecords, SnapshotSeries, Columns, LoadedProgram) {
    let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let classes = 3 + (xorshift(&mut rng) % 4) as usize;
    let methods = 2 + (xorshift(&mut rng) % 4) as usize;
    let mut program = Program::new();
    for c in 0..classes {
        let mut class = ClassDef::new(format!("Class{c}"));
        for m in 0..methods {
            class = class.with_method(MethodDef::new(format!("method{m}")).push(Instr::alloc(
                "Obj",
                SizeSpec::Fixed(32),
                1,
            )));
        }
        program.add_class(class);
    }
    let mut heap = Heap::new(HeapConfig::small());
    let loaded = Loader::load(program, &mut [], &mut heap).expect("load");

    let snapshot_count = 2 + (xorshift(&mut rng) % 15) as u32;
    let traces = 8 + (xorshift(&mut rng) % 40) as usize;
    let mut records = AllocationRecords::default();
    let mut live: Vec<Vec<IdentityHash>> = vec![Vec::new(); snapshot_count as usize];
    let mut next_object = 0u64;
    for _ in 0..traces {
        let depth = 1 + (xorshift(&mut rng) % 4) as usize;
        let trace: Vec<TraceFrame> = (0..depth)
            .map(|_| TraceFrame {
                class_idx: (xorshift(&mut rng) % classes as u64) as u16,
                method_idx: (xorshift(&mut rng) % methods as u64) as u16,
                line: 1 + (xorshift(&mut rng) % 50) as u32,
            })
            .collect();
        let objects = 1 + (xorshift(&mut rng) % 48);
        // A per-trace lifespan bias so traces differ in typical survivals;
        // per-object jitter keeps histograms multi-bucket.
        let bias = xorshift(&mut rng) % (u64::from(snapshot_count) + 1);
        for _ in 0..objects {
            next_object += 1;
            let hash = IdentityHash::of(ObjectId::new(next_object));
            records.record(&trace, hash);
            let jitter = xorshift(&mut rng) % 3;
            let lifespan = (bias + jitter).min(u64::from(snapshot_count));
            for snap in live.iter_mut().take(lifespan as usize) {
                snap.push(hash);
            }
        }
    }
    let columns: Columns = live
        .into_iter()
        .map(|hashes| hashes.into_iter().collect())
        .collect();
    (records, series_of(&columns), columns, loaded)
}

/// One trace's replayed statistics: histogram, typical survivals, objects.
type TraceStats = (BTreeMap<u32, u64>, u32, u64);

/// The oracle: survivals per hash by a hash-map fold over every snapshot,
/// then per trace the survival histogram and its weighted median (the
/// smallest bucket at which half the objects, rounded up, are covered).
fn hashmap_fold(records: &AllocationRecords, snapshots: &Columns) -> Vec<TraceStats> {
    let mut survivals: HashMap<IdentityHash, u32> = HashMap::new();
    for snapshot in snapshots {
        for &hash in snapshot {
            *survivals.entry(hash).or_insert(0) += 1;
        }
    }
    records
        .trace_ids()
        .map(|trace| {
            let stream = records.stream(trace);
            let mut histogram = BTreeMap::new();
            for hash in stream {
                *histogram
                    .entry(survivals.get(hash).copied().unwrap_or(0))
                    .or_insert(0u64) += 1;
            }
            let objects = stream.len() as u64;
            let half = objects.div_ceil(2);
            let mut covered = 0;
            let typical = histogram
                .iter()
                .find(|&(_, &count)| {
                    covered += count;
                    covered >= half
                })
                .map_or(0, |(&s, _)| s);
            (histogram, typical, objects)
        })
        .collect()
}

fn replayed(outcome: &AnalysisOutcome) -> Vec<TraceStats> {
    outcome
        .lifetimes
        .traces()
        .iter()
        .map(|t| (t.histogram.clone(), t.typical_survivals, t.objects))
        .collect()
}

fn analyze(
    records: &AllocationRecords,
    series: &SnapshotSeries,
    program: &LoadedProgram,
) -> AnalysisOutcome {
    Analyzer::new(AnalyzerConfig {
        min_survivals: 1,
        ..AnalyzerConfig::default()
    })
    .analyze(records, series, program)
}

fn assert_matches_fold(
    records: &AllocationRecords,
    series: &SnapshotSeries,
    columns: &Columns,
    program: &LoadedProgram,
    what: &str,
) {
    let outcome = analyze(records, series, program);
    assert_eq!(
        replayed(&outcome),
        hashmap_fold(records, columns),
        "{what}: survival replay diverged from the hash-map fold"
    );
}

#[test]
fn seeded_random_workloads_match_the_hashmap_fold() {
    for seed in [1u64, 7, 42, 1234, 0xdead_beef] {
        let (records, series, columns, program) = random_workload(seed);
        let outcome = analyze(&records, &series, &program);
        assert!(
            !outcome.lifetimes.traces().is_empty(),
            "seed {seed}: generator produced a trivial workload"
        );
        assert!(
            outcome
                .lifetimes
                .traces()
                .iter()
                .any(|t| t.histogram.len() > 1),
            "seed {seed}: no multi-bucket histogram"
        );
        assert_matches_fold(
            &records,
            &series,
            &columns,
            &program,
            &format!("seed {seed}"),
        );
    }
}

#[test]
fn degenerate_inputs_match_the_hashmap_fold() {
    let (records, series, columns, program) = random_workload(3);
    // Empty snapshot series: every object survives zero snapshots.
    let empty = Columns::new();
    assert_matches_fold(
        &records,
        &series_of(&empty),
        &empty,
        &program,
        "no snapshots",
    );
    // A single snapshot.
    let first = columns[..1].to_vec();
    assert_matches_fold(
        &records,
        &series_of(&first),
        &first,
        &program,
        "one snapshot",
    );
    // Snapshots holding hashes no record carries.
    let strangers: Columns = (0..3)
        .map(|_| {
            (1u64 << 40..(1u64 << 40) + 64)
                .map(|i| IdentityHash::of(ObjectId::new(i)))
                .collect()
        })
        .collect();
    assert_matches_fold(
        &records,
        &series_of(&strangers),
        &strangers,
        &program,
        "foreign hashes",
    );
    // Empty records.
    let none = AllocationRecords::default();
    assert_matches_fold(&none, &series, &columns, &program, "no records");
    assert!(analyze(&none, &series, &program).profile.is_empty());
}

// ---------------------------------------------------------------------------
// The same contract end-to-end: a journaled profiling session under seeded
// fault injection. The journal replays the session's records and snapshots
// id for id, so the fold sees exactly the evidence the session analyzed.
// ---------------------------------------------------------------------------

fn workload_program() -> Program {
    let mut p = Program::new();
    p.add_class(
        ClassDef::new("Store")
            .with_method(
                MethodDef::new("put")
                    .push(Instr::call("Cell", "create", 10))
                    .push(Instr::native("insert", 11)),
            )
            .with_method(MethodDef::new("scratch").push(Instr::alloc(
                "Tmp",
                SizeSpec::Fixed(512),
                20,
            )))
            .with_method(MethodDef::new("flush").push(Instr::native("flush", 30))),
    );
    p.add_class(
        ClassDef::new("Cell").with_method(MethodDef::new("create").push(Instr::alloc(
            "Cell",
            SizeSpec::Fixed(1024),
            5,
        ))),
    );
    p
}

fn workload_hooks() -> HookRegistry {
    let mut h = HookRegistry::new();
    h.register_action("insert", |ctx| {
        let obj = ctx.acc.expect("cell before insert");
        let slot = ctx.heap.roots_mut().create_slot("memtable");
        ctx.heap.roots_mut().push(slot, obj);
        HookAction::default()
    });
    h.register_action("flush", |ctx| {
        if let Some(slot) = ctx.heap.roots().find_slot("memtable") {
            ctx.heap.roots_mut().clear_slot(slot);
        }
        HookAction::default()
    });
    h
}

fn chaos_session_matches_the_fold(fault_seed: u64) {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "polm2-analyzer-diff-{fault_seed}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut session = ProfilingSession::with_faults(
        SnapshotPolicy::default(),
        FaultConfig::all_at(0.10, fault_seed),
    );
    let writer = JournalWriter::create_clean(Box::new(FsMedia), &dir, DEFAULT_SEGMENT_BYTES)
        .expect("journal");
    let meta = SessionMeta {
        workload: "store".to_string(),
        seed: fault_seed,
        duration: SimDuration::from_secs(1),
        every_n_cycles: 1,
    };
    let journal = SessionJournal::create(writer, &meta, JournalRetryPolicy::default(), &mut |_| {})
        .expect("journal header");
    session.attach_journal(journal);
    let mut jvm = Jvm::builder(RuntimeConfig::small())
        .hooks(workload_hooks())
        .transformer(session.recorder_agent())
        .build(workload_program())
        .expect("boot");
    let t = jvm.spawn_thread();
    for batch in 0..6 {
        for _ in 0..200 {
            jvm.invoke(t, "Store", "put").expect("put");
            for _ in 0..4 {
                jvm.invoke(t, "Store", "scratch").expect("scratch");
            }
            session.after_op(&mut jvm).expect("after_op absorbs faults");
        }
        if batch % 3 == 2 {
            jvm.invoke(t, "Store", "flush").expect("flush");
        }
    }
    let report = session
        .finish(&mut jvm, &AnalyzerConfig::default())
        .expect("finish");
    assert!(
        report.counters.records_dropped_corrupt > 0,
        "faults reached ingest"
    );

    let recovered = recover(&mut FsMedia, &dir, KIND_COMMIT).expect("recover");
    let session = replay(&recovered.frames).expect("replay");
    assert!(session.committed());
    assert_eq!(
        replayed(&report.outcome),
        hashmap_fold(&session.records, &columns_of(&session.snapshots)),
        "fault seed {fault_seed}: survival replay diverged from the hash-map fold"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_sessions_match_the_hashmap_fold() {
    for fault_seed in [11u64, 23] {
        chaos_session_matches_the_fold(fault_seed);
    }
}

//! Chaos equivalence: fault injection on the columnar recorder ingest must
//! reproduce, bit for bit, what the materialized route produced before it —
//! the same `AnalysisOutcome`, the same `FaultCounters` ledger and the same
//! `InjectedFaults` ground truth — for the same fault seed.
//!
//! The reference session below is a self-contained copy of that earlier
//! route: drained events are materialized into owned traces
//! (`TraceTrie::path`), record faults are applied to them by the event-level
//! mutator, and ingest validates every frame before interning the trace. The
//! reference carries its own copy of the injector's splitmix64 stream and of
//! the faulty Dumper, so the whole fault schedule is re-derived independently
//! of `polm2_core::faults`.

use polm2_core::{
    AllocationRecords, AnalysisOutcome, Analyzer, AnalyzerConfig, FaultConfig, InjectedFaults,
    ProfilingSession, Recorder, RecoveryPolicy, SnapshotPolicy,
};
use polm2_heap::{IdHashSet, IdentityHash};
use polm2_metrics::FaultCounters;
use polm2_runtime::{
    ClassDef, HookAction, HookRegistry, Instr, Jvm, LoadedProgram, MethodDef, Program,
    RuntimeConfig, SizeSpec, TraceFrame,
};
use polm2_snapshot::{CriuDumper, HeapDumper, Snapshot, SnapshotSeries};

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

/// Drives the workload on two threads, calling `after_op` after every
/// operation. Two threads make each drain hand over two per-thread batches.
fn drive(jvm: &mut Jvm, mut after_op: impl FnMut(&mut Jvm)) {
    let threads = [jvm.spawn_thread(), jvm.spawn_thread()];
    for batch in 0..9 {
        for op in 0..300 {
            let t = threads[op % 2];
            jvm.invoke(t, "Store", "put").expect("put");
            for _ in 0..8 {
                jvm.invoke(threads[(op + 1) % 2], "Store", "scratch")
                    .expect("scratch");
            }
            after_op(jvm);
        }
        if batch % 3 == 2 {
            jvm.invoke(threads[0], "Store", "flush").expect("flush");
        }
    }
}

fn boot(agent: Box<dyn polm2_runtime::ClassTransformer>) -> Jvm {
    Jvm::builder(RuntimeConfig::small())
        .hooks(workload_hooks())
        .transformer(agent)
        .build(workload_program())
        .expect("boot")
}

type Observed = (AnalysisOutcome, FaultCounters, InjectedFaults);

/// The production session: `ProfilingSession` over the columnar ingest.
fn run_session(faults: Option<FaultConfig>) -> Observed {
    let mut session = match faults {
        Some(f) => ProfilingSession::with_faults(SnapshotPolicy::default(), f),
        None => ProfilingSession::new(SnapshotPolicy::default()),
    };
    let injector = session.fault_injector();
    let mut jvm = boot(session.recorder_agent());
    drive(&mut jvm, |jvm| session.after_op(jvm).expect("after_op"));
    let report = session
        .finish(&mut jvm, &AnalyzerConfig::default())
        .expect("finish");
    let injected = injector.map_or_else(InjectedFaults::default, |i| i.borrow().injected());
    (report.outcome, report.counters, injected)
}

/// The injector's PRNG and tallies, re-derived: splitmix64 from the same
/// seed offset.
struct RefInjector {
    config: FaultConfig,
    state: u64,
    injected: InjectedFaults,
}

impl RefInjector {
    fn new(config: FaultConfig) -> Self {
        RefInjector {
            config,
            state: config.seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
            injected: InjectedFaults::default(),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn roll(&mut self, rate: f64) -> bool {
        rate > 0.0 && (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < rate
    }

    /// The event-level record mutator: drop, corrupt (one of three kinds),
    /// or duplicate each materialized event.
    fn mutate_events(&mut self, events: &mut Vec<(Vec<TraceFrame>, IdentityHash)>) {
        let c = self.config;
        if c.record_drop_rate == 0.0
            && c.record_duplicate_rate == 0.0
            && c.record_corrupt_rate == 0.0
        {
            return;
        }
        let mut out = Vec::with_capacity(events.len());
        for (mut trace, hash) in events.drain(..) {
            if self.roll(c.record_drop_rate) {
                self.injected.records_dropped += 1;
                continue;
            }
            if self.roll(c.record_corrupt_rate) {
                let bad = |class_idx, method_idx| TraceFrame {
                    class_idx,
                    method_idx,
                    line: 0,
                };
                match self.next_u64() % 3 {
                    0 => trace.clear(),
                    1 => match trace.first_mut() {
                        Some(frame) => frame.class_idx = u16::MAX,
                        None => trace.push(bad(u16::MAX, 0)),
                    },
                    _ => match trace.last_mut() {
                        Some(frame) => frame.method_idx = u16::MAX,
                        None => trace.push(bad(0, u16::MAX)),
                    },
                }
                self.injected.records_corrupted += 1;
            } else if self.roll(c.record_duplicate_rate) {
                self.injected.records_duplicated += 1;
                out.push((trace.clone(), hash));
            }
            out.push((trace, hash));
        }
        *events = out;
    }

    /// The faulty Dumper: a capture failure is decided before delegating,
    /// truncation drops each captured hash with the configured fraction.
    fn snapshot(&mut self, inner: &mut CriuDumper, jvm: &mut Jvm) -> Option<Snapshot> {
        if self.roll(self.config.snapshot_failure_rate) {
            self.injected.snapshot_failures += 1;
            return None;
        }
        let now = jvm.now();
        let snap = inner.snapshot(jvm.heap_mut(), now).ok()?;
        if !self.roll(self.config.snapshot_truncation_rate) {
            return Some(snap);
        }
        self.injected.snapshots_truncated += 1;
        let keep_rate = 1.0 - self.config.truncated_fraction;
        let mut kept: IdHashSet<IdentityHash> = IdHashSet::default();
        // The production injector's roll order: hash-set order.
        let captured: IdHashSet<IdentityHash> = snap
            .sorted_hashes()
            .iter()
            .map(|&raw| IdentityHash::from_raw(raw))
            .collect();
        for &hash in &captured {
            if self.roll(keep_rate) {
                kept.insert(hash);
            } else {
                self.injected.hashes_lost += 1;
            }
        }
        Some(Snapshot::new(
            snap.seq,
            snap.at,
            kept,
            snap.size_bytes,
            snap.capture_time,
        ))
    }
}

/// The reference profiling session: materialized drain, event-level faults,
/// frame-validating ingest, and the session's snapshot retry policy.
struct ReferenceSession {
    injector: RefInjector,
    dumper: CriuDumper,
    records: AllocationRecords,
    snapshots: SnapshotSeries,
    counters: FaultCounters,
    recovery: RecoveryPolicy,
    cycles_at_last_snapshot: usize,
}

impl ReferenceSession {
    fn new(faults: FaultConfig) -> Self {
        assert!(
            !faults.corrupts_heap(),
            "the reference has no heap-fault arm"
        );
        ReferenceSession {
            injector: RefInjector::new(faults),
            dumper: CriuDumper::new(),
            records: AllocationRecords::default(),
            snapshots: SnapshotSeries::new(),
            counters: FaultCounters::new(),
            recovery: RecoveryPolicy::default(),
            cycles_at_last_snapshot: 0,
        }
    }

    fn drain(&mut self, jvm: &mut Jvm) {
        let mut events = Vec::new();
        jvm.drain_alloc_batches(|trie, _, batch| {
            for (&node, &hash) in batch.nodes().iter().zip(batch.hashes()) {
                events.push((trie.path(node), hash));
            }
        });
        self.injector.mutate_events(&mut events);
        self.counters.records_dropped_corrupt +=
            ingest_checked(&mut self.records, events, jvm.program());
    }

    fn take_snapshot(&mut self, jvm: &mut Jvm) {
        let mut backoff = self.recovery.retry_backoff;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            if let Some(snap) = self.injector.snapshot(&mut self.dumper, jvm) {
                self.snapshots.push(snap);
                self.cycles_at_last_snapshot = jvm.gc_log().cycle_count();
                return;
            }
            self.counters.snapshots_failed += 1;
            if attempts > self.recovery.max_snapshot_retries {
                self.counters.snapshots_lost += 1;
                self.cycles_at_last_snapshot = jvm.gc_log().cycle_count();
                return;
            }
            self.counters.snapshot_retries += 1;
            jvm.advance_mutator(backoff);
            backoff = backoff * 2;
        }
    }

    fn after_op(&mut self, jvm: &mut Jvm) {
        self.drain(jvm);
        if jvm.gc_log().cycle_count() > self.cycles_at_last_snapshot {
            self.take_snapshot(jvm);
        }
    }

    fn finish(mut self, jvm: &mut Jvm, config: &AnalyzerConfig) -> Observed {
        self.drain(jvm);
        if self.snapshots.is_empty() || jvm.gc_log().cycle_count() > self.cycles_at_last_snapshot {
            self.take_snapshot(jvm);
        }
        let outcome = Analyzer::new(*config).analyze(&self.records, &self.snapshots, jvm.program());
        self.counters.traces_demoted += outcome.demoted_traces;
        (outcome, self.counters, self.injector.injected)
    }
}

/// The frame-validating ingest: an event with an empty trace or a frame
/// that does not resolve in `program` is dropped and counted.
fn ingest_checked(
    records: &mut AllocationRecords,
    events: Vec<(Vec<TraceFrame>, IdentityHash)>,
    program: &LoadedProgram,
) -> u64 {
    let mut dropped = 0;
    for (trace, hash) in events {
        if trace.is_empty() || trace.iter().any(|&f| !program.frame_is_valid(f)) {
            dropped += 1;
            continue;
        }
        records.record(&trace, hash);
    }
    dropped
}

fn run_reference(faults: FaultConfig) -> Observed {
    let mut session = ReferenceSession::new(faults);
    let mut jvm = boot(Recorder::new().agent());
    drive(&mut jvm, |jvm| session.after_op(jvm));
    session.finish(&mut jvm, &AnalyzerConfig::default())
}

#[test]
fn clean_sessions_match_the_reference() {
    let (outcome, counters, injected) = run_session(None);
    assert!(
        !outcome.profile.is_empty(),
        "workload produces a real profile"
    );
    assert!(counters.is_clean());
    assert_eq!(
        (outcome, counters, injected),
        run_reference(FaultConfig::default())
    );
}

#[test]
fn chaos_sessions_match_the_materialized_reference() {
    for seed in [11u64, 23] {
        let faults = FaultConfig::all_at(0.10, seed);
        let observed = run_session(Some(faults));
        let (_, counters, injected) = &observed;
        // Every record-fault kind fired and corrupt records reached ingest.
        assert!(injected.records_dropped > 0, "seed {seed}: {injected:?}");
        assert!(injected.records_duplicated > 0, "seed {seed}: {injected:?}");
        assert!(injected.records_corrupted > 0, "seed {seed}: {injected:?}");
        assert_eq!(
            counters.records_dropped_corrupt, injected.records_corrupted,
            "seed {seed}: every corrupt record is caught at ingest"
        );
        assert_eq!(
            observed,
            run_reference(faults),
            "seed {seed}: columnar chaos diverged from the materialized route"
        );
    }
}

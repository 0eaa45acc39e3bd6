//! Criterion benches: the profiling-phase components (Recorder ingestion,
//! STTree conflict machinery, the Analyzer pipeline) — the paper's concern
//! that profiling must not disrupt the application, measured in host time.

use criterion::{criterion_group, criterion_main, Criterion};

use polm2_core::{AllocationRecords, Analyzer, AnalyzerConfig, Recorder, SttTree};
use polm2_heap::{GenId, Heap, HeapConfig, IdentityHash, ObjectId};
use polm2_metrics::{SimDuration, SimTime};
use polm2_runtime::{
    AllocEventBuffer, ClassDef, CodeLoc, Instr, Loader, MethodDef, Program, SizeSpec, TraceFrame,
    TraceNodeId, TraceTrie,
};
use polm2_snapshot::{Snapshot, SnapshotSeries};

fn recorder_ingest(c: &mut Criterion) {
    // Seven two-frame paths (A.m<k>@1 -> B.make@5), as a profiling JVM's
    // trie would hold them; the batch cycles through them.
    let mut program = Program::new();
    let mut a = ClassDef::new("A");
    for k in 0..7 {
        a = a.with_method(MethodDef::new(format!("m{k}")).push(Instr::call("B", "make", 1)));
    }
    program.add_class(a);
    program.add_class(
        ClassDef::new("B").with_method(MethodDef::new("make").push(Instr::alloc(
            "X",
            SizeSpec::Fixed(8),
            5,
        ))),
    );
    let mut heap = Heap::new(HeapConfig::small());
    let loaded = Loader::load(program, &mut [], &mut heap).expect("load");
    let mut trie = TraceTrie::new();
    let leaves: Vec<TraceNodeId> = (0..7u16)
        .map(|k| {
            let caller = TraceFrame {
                class_idx: 0,
                method_idx: k,
                line: 1,
            };
            let site = TraceFrame {
                class_idx: 1,
                method_idx: 0,
                line: 5,
            };
            let mid = trie.child(TraceNodeId::ROOT, caller);
            trie.child(mid, site)
        })
        .collect();
    let mut batch = AllocEventBuffer::with_capacity(10_000);
    for i in 0..10_000u64 {
        batch.push(leaves[(i % 7) as usize], IdentityHash::of(ObjectId::new(i)));
    }
    c.bench_function("recorder_ingest_10k_events", |b| {
        b.iter(|| {
            let mut recorder = Recorder::new();
            recorder.ingest_nodes_checked(&trie, &loaded, &batch);
            let total = recorder.records().total_records();
            total
        })
    });
}

fn sttree_conflicts(c: &mut Criterion) {
    c.bench_function("sttree_build_detect_solve_200_paths", |b| {
        b.iter(|| {
            let mut tree = SttTree::new();
            let shared = CodeLoc::new("Helper", "alloc", 9);
            for i in 0..200u32 {
                tree.insert_path(
                    &[
                        CodeLoc::new("App", "op", i),
                        CodeLoc::new("Mid", "call", 5),
                        shared.clone(),
                    ],
                    GenId::new(i % 3),
                );
            }
            let conflicts = tree.detect_conflicts();
            tree.solve_conflicts(&conflicts).len()
        })
    });
}

fn analyzer_pipeline(c: &mut Criterion) {
    let mut program = Program::new();
    program.add_class(
        ClassDef::new("A")
            .with_method(MethodDef::new("m").push(Instr::alloc("X", SizeSpec::Fixed(8), 1)))
            .with_method(MethodDef::new("n").push(Instr::call("A", "m", 2))),
    );
    let mut heap = Heap::new(HeapConfig::small());
    let loaded = Loader::load(program, &mut [], &mut heap).expect("load");

    let trace = [
        TraceFrame {
            class_idx: 0,
            method_idx: 1,
            line: 2,
        },
        TraceFrame {
            class_idx: 0,
            method_idx: 0,
            line: 1,
        },
    ];
    let mut records = AllocationRecords::default();
    for i in 0..50_000u64 {
        records.record(&trace, IdentityHash::of(ObjectId::new(i)));
    }

    let mut series = SnapshotSeries::new();
    for s in 0..30u32 {
        let hashes = (0..50_000u64)
            .filter(|i| i % 5 >= (s % 5) as u64)
            .map(|i| IdentityHash::of(ObjectId::new(i)))
            .collect();
        series.push(Snapshot::new(
            s,
            SimTime::from_secs(u64::from(s)),
            hashes,
            4096,
            SimDuration::from_millis(1),
        ));
    }

    c.bench_function("analyzer_50k_records_30_snapshots", |b| {
        b.iter(|| {
            Analyzer::new(AnalyzerConfig::default())
                .analyze(&records, &series, &loaded)
                .profile
                .sites()
                .len()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = recorder_ingest, sttree_conflicts, analyzer_pipeline
}
criterion_main!(benches);

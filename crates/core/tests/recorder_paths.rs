//! Determinism suite for the recorder's trace trie: for any workload and
//! drain schedule, the traces the trie hands the Recorder must be exactly
//! the ones a stack walk would capture — event for event — and the
//! Recorder's `AllocationRecords` must equal records built from those
//! walked traces (same trace ids, same frames, same identity-hash streams
//! in the same order).
//!
//! The reference is a small stack walker in this file. It interprets the
//! generated programs, which hold only `Call` and `Alloc` instructions:
//! keep the frame stack, and on every allocation copy it with the innermost
//! frame at the allocation line.

use polm2_core::{AllocationRecords, Recorder};
use polm2_heap::IdentityHash;
use polm2_runtime::{
    ClassDef, Instr, Jvm, LoadedProgram, MethodDef, Program, RuntimeConfig, SizeSpec, TraceFrame,
};

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Everything observable about an `AllocationRecords`: per trace id, the
/// materialized frames and the identity-hash stream, in id order.
type Fingerprint = (u64, Vec<(Vec<TraceFrame>, Vec<IdentityHash>)>);

fn fingerprint(records: &AllocationRecords) -> Fingerprint {
    let per_trace = records
        .trace_ids()
        .map(|id| (records.trace(id), records.stream(id).to_vec()))
        .collect();
    (records.total_records(), per_trace)
}

/// The stack-walking reference: runs `class.method` of a Call/Alloc-only
/// program symbolically and appends the trace of every allocation, in
/// execution order, to `out`.
fn walk(
    program: &Program,
    loaded: &LoadedProgram,
    (class, method): (&str, &str),
    stack: &mut Vec<TraceFrame>,
    out: &mut Vec<Vec<TraceFrame>>,
) {
    let (class_idx, method_idx) = loaded.resolve(class, method).expect("resolves");
    stack.push(TraceFrame {
        class_idx,
        method_idx,
        line: 0,
    });
    let body = &program
        .class(class)
        .and_then(|c| c.method(method))
        .expect("defined")
        .body;
    for instr in body {
        match instr {
            Instr::Alloc { line, .. } => {
                stack.last_mut().expect("in a frame").line = *line;
                out.push(stack.clone());
            }
            Instr::Call {
                class,
                method,
                line,
            } => {
                stack.last_mut().expect("in a frame").line = *line;
                walk(program, loaded, (class, method), stack, out);
            }
            other => panic!("the reference walks Call/Alloc-only programs, not {other:?}"),
        }
    }
    stack.pop();
}

/// A seeded random call graph: methods allocate and call strictly-later
/// methods (a DAG, so depth is bounded), with lines drawn from the rng.
fn random_program(seed: u64) -> Program {
    let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let classes = 2 + (xorshift(&mut rng) % 3) as usize;
    let methods = 3 + (xorshift(&mut rng) % 3) as usize;
    let total = classes * methods;
    let mut program = Program::new();
    for c in 0..classes {
        let mut class = ClassDef::new(format!("Class{c}"));
        for m in 0..methods {
            let idx = c * methods + m;
            let mut method = MethodDef::new(format!("method{m}"));
            let allocs = 1 + (xorshift(&mut rng) % 2);
            for _ in 0..allocs {
                method = method.push(Instr::alloc(
                    "Obj",
                    SizeSpec::Fixed(16 + (xorshift(&mut rng) % 48) as u32),
                    1 + (xorshift(&mut rng) % 30) as u32,
                ));
            }
            // Up to two calls, each to a method strictly later in the
            // flattened order — no recursion, bounded depth.
            for _ in 0..(xorshift(&mut rng) % 3) {
                if idx + 1 >= total {
                    break;
                }
                let target = idx + 1 + (xorshift(&mut rng) as usize % (total - idx - 1));
                method = method.push(Instr::call(
                    format!("Class{}", target / methods),
                    format!("method{}", target % methods),
                    1 + (xorshift(&mut rng) % 30) as u32,
                ));
            }
            class = class.with_method(method);
        }
        program.add_class(class);
    }
    program
}

/// A chain of `depth` methods, each calling the next; the innermost
/// allocates. Exercises deep stacks near `max_stack_depth`.
fn deep_program(depth: usize) -> Program {
    let mut class = ClassDef::new("Deep");
    for i in 0..depth {
        let mut method = MethodDef::new(format!("m{i}"));
        if i + 1 < depth {
            method = method.push(Instr::call("Deep", format!("m{}", i + 1), i as u32 + 1));
        } else {
            method = method.push(Instr::alloc("Leaf", SizeSpec::Fixed(32), 999));
        }
        class = class.with_method(method);
    }
    let mut program = Program::new();
    program.add_class(class);
    program
}

/// Runs `program` on two threads, draining every `stride` operations (and
/// once at the end). Each drain checks the trie's per-event traces against
/// the reference's walked traces for the same operations (per-thread
/// buffers, concatenated in thread order) and feeds the walked traces, with
/// the drained hashes, into reference records. Returns the Recorder's
/// records and the reference records. The op sequence is a pure function
/// of `seed`.
fn run_records(
    program: Program,
    entries: &[(String, String)],
    seed: u64,
    ops: usize,
    stride: usize,
) -> (AllocationRecords, AllocationRecords) {
    let mut recorder = Recorder::new();
    let mut reference = AllocationRecords::default();
    let mut jvm = Jvm::builder(RuntimeConfig::small())
        .transformer(recorder.agent())
        .build(program.clone())
        .expect("boot");
    let threads = [jvm.spawn_thread(), jvm.spawn_thread()];
    let mut walked: [Vec<Vec<TraceFrame>>; 2] = Default::default();
    let mut drain = |jvm: &mut Jvm, walked: &mut [Vec<Vec<TraceFrame>>; 2]| {
        let expected: Vec<Vec<TraceFrame>> = walked.iter_mut().flat_map(std::mem::take).collect();
        let mut traced = Vec::new();
        let mut dropped = 0;
        jvm.drain_alloc_batches(|trie, loaded, batch| {
            dropped += recorder.ingest_nodes_checked(trie, loaded, batch);
            for (&node, &hash) in batch.nodes().iter().zip(batch.hashes()) {
                let trace = trie.path(node);
                reference.record(&expected[traced.len()], hash);
                traced.push(trace);
            }
        });
        assert_eq!(dropped, 0, "no corrupt events");
        assert_eq!(traced, expected, "trie traces diverged from the stack walk");
    };
    let mut rng = seed | 1;
    for op in 0..ops {
        let t = (xorshift(&mut rng) % 2) as usize;
        let (class, method) = &entries[xorshift(&mut rng) as usize % entries.len()];
        jvm.invoke(threads[t], class, method).expect("invoke");
        walk(
            &program,
            jvm.program(),
            (class, method),
            &mut Vec::new(),
            &mut walked[t],
        );
        if (op + 1) % stride == 0 {
            drain(&mut jvm, &mut walked);
        }
    }
    drain(&mut jvm, &mut walked);
    (recorder.into_records().expect("sole owner"), reference)
}

#[test]
fn seeded_random_sessions_match_the_stack_walk_at_every_drain_stride() {
    for seed in [1u64, 42, 0xdead_beef] {
        let program = random_program(seed);
        let entries: Vec<(String, String)> = program
            .classes()
            .iter()
            .map(|c| (c.name.clone(), c.methods[0].name.clone()))
            .collect();
        // Every-op, ragged, and finish-only (stride > ops) drains.
        for stride in [1usize, 7, usize::MAX] {
            let (trie, walk) = run_records(program.clone(), &entries, seed, 120, stride);
            assert!(trie.total_records() > 0, "seed {seed}: trivial workload");
            assert_eq!(
                fingerprint(&trie),
                fingerprint(&walk),
                "seed {seed} stride {stride}: records diverged"
            );
        }
    }
}

#[test]
fn deep_recursion_matches_the_stack_walk() {
    // A 200-deep chain under the default max_stack_depth of 256.
    let program = deep_program(200);
    let entries = vec![("Deep".to_string(), "m0".to_string())];
    let (trie, walk) = run_records(program, &entries, 9, 40, 3);
    assert_eq!(trie.total_records(), 40);
    assert_eq!(trie.trace_count(), 1, "one unique 200-frame trace");
    assert_eq!(trie.trace(trie.trace_ids().next().unwrap()).len(), 200);
    assert_eq!(fingerprint(&trie), fingerprint(&walk));
}

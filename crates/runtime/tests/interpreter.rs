//! End-to-end interpreter tests: programs with calls, branches, loops,
//! hooks, agents, and collections.

use polm2_gc::{GcConfig, Ng2cCollector};
use polm2_heap::ObjectId;
use polm2_metrics::SimDuration;
use polm2_runtime::{
    ClassDef, ClassTransformer, CodeLoc, CountSpec, HookAction, HookRegistry, Instr, Jvm,
    MethodDef, Program, RuntimeConfig, RuntimeError, SizeSpec,
};

/// Workload state for these tests.
#[derive(Debug, Default)]
struct TestState {
    inserts: u64,
    flag: bool,
}

fn kv_program() -> Program {
    // Store.put -> Cell.create (alloc) -> insert hook roots the cell.
    // Store.scratch allocates garbage.
    let mut p = Program::new();
    p.add_class(
        ClassDef::new("Store")
            .with_method(
                MethodDef::new("put")
                    .push(Instr::call("Cell", "create", 10))
                    .push(Instr::native("insert", 11)),
            )
            .with_method(MethodDef::new("scratch").push(Instr::alloc(
                "Temp",
                SizeSpec::Fixed(512),
                20,
            )))
            .with_method(MethodDef::new("mixed").push(Instr::Branch {
                cond: "flag".into(),
                then_block: vec![Instr::call("Store", "put", 31)],
                else_block: vec![Instr::call("Store", "scratch", 33)],
                line: 30,
            }))
            .with_method(MethodDef::new("batch").push(Instr::Repeat {
                count: CountSpec::Fixed(10),
                body: vec![Instr::call("Store", "scratch", 41)],
                line: 40,
            })),
    );
    p.add_class(
        ClassDef::new("Cell").with_method(MethodDef::new("create").push(Instr::alloc(
            "Cell",
            SizeSpec::Hook("cell_size".into()),
            5,
        ))),
    );
    p
}

fn hooks() -> HookRegistry {
    let mut h = HookRegistry::new();
    h.register_action("insert", |ctx| {
        let obj = ctx.acc.expect("cell allocated before insert");
        let slot = ctx.heap.roots_mut().create_slot("store");
        ctx.heap.roots_mut().push(slot, obj);
        ctx.state::<TestState>().inserts += 1;
        HookAction {
            cost: Some(SimDuration::from_micros(2)),
        }
    });
    h.register_cond("flag", |ctx| ctx.state::<TestState>().flag);
    h.register_size("cell_size", |_| 256);
    h
}

fn jvm() -> Jvm {
    Jvm::builder(RuntimeConfig::small())
        .hooks(hooks())
        .state(Box::new(TestState::default()))
        .build(kv_program())
        .expect("program loads")
}

#[test]
fn put_roots_object_and_scratch_dies() {
    let mut vm = jvm();
    let t = vm.spawn_thread();
    vm.invoke(t, "Store", "put").unwrap();
    vm.invoke(t, "Store", "scratch").unwrap();
    assert_eq!(vm.state_mut::<TestState>().inserts, 1);
    assert_eq!(vm.heap().stats().allocated_objects, 2);
    vm.force_collect().unwrap();
    // The inserted cell survives; the scratch buffer does not.
    assert_eq!(vm.heap().object_count(), 1);
}

#[test]
fn branch_follows_condition_hook() {
    let mut vm = jvm();
    let t = vm.spawn_thread();
    vm.state_mut::<TestState>().flag = true;
    vm.invoke(t, "Store", "mixed").unwrap();
    assert_eq!(vm.state_mut::<TestState>().inserts, 1);
    vm.state_mut::<TestState>().flag = false;
    vm.invoke(t, "Store", "mixed").unwrap();
    assert_eq!(
        vm.state_mut::<TestState>().inserts,
        1,
        "else branch allocates scratch only"
    );
    assert_eq!(vm.heap().stats().allocated_objects, 2);
}

#[test]
fn repeat_runs_body_n_times_and_scopes_locals() {
    let mut vm = jvm();
    let t = vm.spawn_thread();
    vm.invoke(t, "Store", "batch").unwrap();
    assert_eq!(vm.heap().stats().allocated_objects, 10);
    // Loop locals must not accumulate as stack roots: after the invoke
    // everything is garbage.
    vm.force_collect().unwrap();
    assert_eq!(vm.heap().object_count(), 0);
}

#[test]
fn clock_advances_with_work() {
    let mut vm = jvm();
    let t = vm.spawn_thread();
    let before = vm.now();
    for _ in 0..100 {
        vm.invoke(t, "Store", "put").unwrap();
    }
    assert!(vm.now() > before, "interpretation and hooks must cost time");
    assert!(vm.clock().mutator_time() > SimDuration::ZERO);
}

#[test]
fn gc_cycles_are_logged_under_churn() {
    let mut vm = jvm();
    let t = vm.spawn_thread();
    for _ in 0..5_000 {
        vm.invoke(t, "Store", "scratch").unwrap();
    }
    assert!(
        vm.gc_log().cycle_count() > 0,
        "churn must trigger collections"
    );
    assert!(vm.clock().pause_time() > SimDuration::ZERO);
    vm.heap().check_invariants();
}

#[test]
fn in_flight_objects_survive_collection_via_stack_roots() {
    // Cell.create allocates, then Store.put's frame holds the cell while
    // `insert` runs; a collection in between must not reclaim it. Force the
    // situation with a tiny young generation via mass allocation in a loop
    // of puts.
    let mut vm = jvm();
    let t = vm.spawn_thread();
    for _ in 0..3_000 {
        vm.invoke(t, "Store", "put").unwrap();
    }
    let inserts = vm.state_mut::<TestState>().inserts;
    assert_eq!(inserts, 3_000);
    vm.force_collect().unwrap();
    assert_eq!(
        vm.heap().object_count() as u64,
        inserts,
        "all inserted cells live"
    );
}

#[test]
fn recorder_style_transformer_sees_allocation_events() {
    struct RecorderAgent;
    impl ClassTransformer for RecorderAgent {
        fn name(&self) -> &str {
            "recorder"
        }
        fn transform(&mut self, class: &mut ClassDef) {
            for method in &mut class.methods {
                let mut body = Vec::new();
                for instr in method.body.drain(..) {
                    let line = instr.line();
                    let is_alloc = matches!(instr, Instr::Alloc { .. });
                    body.push(instr);
                    if is_alloc {
                        body.push(Instr::RecordAlloc { line });
                    }
                }
                method.body = body;
            }
        }
    }
    let mut vm = Jvm::builder(RuntimeConfig::small())
        .hooks(hooks())
        .state(Box::new(TestState::default()))
        .transformer(Box::new(RecorderAgent))
        .build(kv_program())
        .unwrap();
    let t = vm.spawn_thread();
    vm.invoke(t, "Store", "put").unwrap();
    vm.invoke(t, "Store", "scratch").unwrap();
    let mut events = Vec::new();
    vm.drain_alloc_batches(|trie, program, batch| {
        for (&node, &hash) in batch.nodes().iter().zip(batch.hashes()) {
            let trace: Vec<CodeLoc> = trie
                .path(node)
                .into_iter()
                .map(|f| program.code_loc(f))
                .collect();
            events.push((trace, hash));
        }
    });
    assert_eq!(events.len(), 2);
    // The put's trace is Store.put -> Cell.create with the alloc line last.
    let trace = &events[0].0;
    assert_eq!(trace.len(), 2);
    assert_eq!(trace[0], CodeLoc::new("Store", "put", 10));
    assert_eq!(trace[1], CodeLoc::new("Cell", "create", 5));
    // The event's hash matches the header of the cell `insert` rooted.
    let slot = vm.heap().roots().find_slot("store").unwrap();
    let cell = vm.heap().roots().slot(slot)[0];
    assert_eq!(vm.heap().object(cell).unwrap().identity_hash(), events[0].1);
    // Draining empties the buffers.
    let mut left = 0;
    vm.drain_alloc_batches(|_, _, batch| left += batch.len());
    assert_eq!(left, 0);
}

#[test]
fn set_gen_instructions_drive_ng2c_pretenuring() {
    // Build a program where the allocation site is @Gen-annotated and the
    // caller sets the target generation — what the Instrumenter emits.
    let mut p = Program::new();
    p.add_class(
        ClassDef::new("App")
            .with_method(
                MethodDef::new("main")
                    .push(Instr::SetGen {
                        gen: polm2_heap::GenId::new(2),
                        line: 1,
                    })
                    .push(Instr::call("App", "make", 2))
                    .push(Instr::RestoreGen { line: 3 }),
            )
            .with_method(MethodDef::new("make").push(Instr::Alloc {
                class_name: "Block".into(),
                size: SizeSpec::Fixed(128),
                line: 9,
                pretenure: true,
            })),
    );
    let mut vm = Jvm::builder(RuntimeConfig::small())
        .collector(Box::new(Ng2cCollector::new(GcConfig::default())))
        .build(p)
        .unwrap();
    let gen = vm.new_generation();
    assert_eq!(gen, polm2_heap::GenId::new(2));
    let t = vm.spawn_thread();
    vm.invoke(t, "App", "main").unwrap();
    let obj = ObjectId::new(0);
    let rec = vm.heap().object(obj).expect("allocated");
    assert_eq!(
        rec.allocated_gen(),
        gen,
        "@Gen allocation must land in the target generation"
    );
}

#[test]
fn unbalanced_restore_gen_errors() {
    let mut p = Program::new();
    p.add_class(
        ClassDef::new("App")
            .with_method(MethodDef::new("main").push(Instr::RestoreGen { line: 1 })),
    );
    let mut vm = Jvm::builder(RuntimeConfig::small()).build(p).unwrap();
    let t = vm.spawn_thread();
    assert_eq!(
        vm.invoke(t, "App", "main"),
        Err(RuntimeError::UnbalancedRestoreGen)
    );
}

#[test]
fn recursion_hits_stack_limit() {
    let mut p = Program::new();
    p.add_class(
        ClassDef::new("App")
            .with_method(MethodDef::new("spin").push(Instr::call("App", "spin", 1))),
    );
    let mut vm = Jvm::builder(RuntimeConfig::small()).build(p).unwrap();
    let t = vm.spawn_thread();
    assert!(matches!(
        vm.invoke(t, "App", "spin"),
        Err(RuntimeError::StackOverflow { .. })
    ));
}

#[test]
fn unknown_entry_points_error() {
    let mut vm = jvm();
    let t = vm.spawn_thread();
    assert!(matches!(
        vm.invoke(t, "Nope", "x"),
        Err(RuntimeError::UnknownClass { .. })
    ));
    assert!(matches!(
        vm.invoke(t, "Store", "nope"),
        Err(RuntimeError::UnknownMethod { .. })
    ));
}

#[test]
fn hook_cost_advances_clock() {
    let mut vm = jvm();
    let t = vm.spawn_thread();
    let before = vm.clock().mutator_time();
    vm.invoke(t, "Store", "put").unwrap(); // insert hook costs 2us
    let spent = vm.clock().mutator_time() - before;
    assert!(spent >= SimDuration::from_micros(2));
}

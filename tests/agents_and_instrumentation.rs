//! Integration tests for the agent (load-time transformer) machinery: the
//! Recorder and Instrumenter rewriting real workload programs, and the
//! interplay between manual and generated profiles.

use polm2::core::{Instrumenter, ProductionSetup, Recorder};
use polm2::gc::{GcConfig, Ng2cCollector};
use polm2::runtime::{CodeLoc, Instr, Jvm, RuntimeConfig};
use polm2::workloads::cassandra::{self, CassandraConfig, CassandraState};
use polm2::workloads::graphchi;
use polm2::workloads::lucene;
use polm2::workloads::{paper_workloads, OpMix, Workload};

#[test]
fn recorder_agent_instruments_every_site_of_every_workload() {
    for workload in paper_workloads() {
        let recorder = Recorder::new();
        let mut program = workload.program();
        let expected = program.alloc_site_count() as u64;
        let mut agent = recorder.agent();
        for class in program.classes_mut() {
            agent.transform(class);
        }
        assert_eq!(
            recorder.instrumented_sites(),
            expected,
            "{}: every allocation site gets a logging callback",
            workload.name()
        );
        // Each Alloc is now followed by a RecordAlloc.
        let mut allocs = 0;
        let mut records = 0;
        program.visit_instrs(|_, _, i| match i {
            Instr::Alloc { .. } => allocs += 1,
            Instr::RecordAlloc { .. } => records += 1,
            _ => {}
        });
        assert_eq!(allocs, records, "{}", workload.name());
    }
}

#[test]
fn instrumenter_applies_manual_profiles_to_their_programs() {
    for workload in paper_workloads() {
        let profile = workload.manual_profile();
        let expected_sites = profile.sites().len() as u64;
        let inst = Instrumenter::new(profile);
        let mut program = workload.program();
        let mut agent = inst.agent();
        for class in program.classes_mut() {
            agent.transform(class);
        }
        assert_eq!(
            inst.stats().annotated_sites,
            expected_sites,
            "{}: every manual annotation matches a real site",
            workload.name()
        );
    }
}

#[test]
fn stacked_agents_compose_like_stacked_java_agents() {
    // Recorder then Instrumenter on the same load: profiling a production
    // setup is legal (re-profiling an already instrumented app).
    let recorder = Recorder::new();
    let setup = ProductionSetup::new(
        polm2::workloads::cassandra::CassandraWorkload::write_intensive().manual_profile(),
    );
    let config = CassandraConfig::small(OpMix::WRITE_INTENSIVE);
    let mut jvm = Jvm::builder(RuntimeConfig::small())
        .collector(Box::new(Ng2cCollector::new(GcConfig::default())))
        .hooks(cassandra::hooks())
        .state(Box::new(CassandraState::new(config, 3)))
        .transformer(setup.agent())
        .transformer(recorder.agent())
        .build(cassandra::program())
        .expect("both agents load");
    setup.prepare_generations(&mut jvm);
    let t = jvm.spawn_thread();
    for _ in 0..500 {
        jvm.invoke(t, "Cassandra", "handleOp").expect("op");
    }
    let mut events = 0;
    jvm.drain_alloc_batches(|_, _, batch| events += batch.len());
    assert!(
        events > 0,
        "recorder still sees allocations under instrumentation"
    );
    jvm.heap().check_invariants();
}

#[test]
fn lucene_misplaced_manual_annotations_pretenure_search_scratch() {
    // The §5.4 story, mechanically: under the manual profile, search scratch
    // is pretenured (the expert's mistake); the site is path-blind.
    let w = polm2::workloads::lucene::LuceneWorkload::new(lucene::LuceneConfig::small());
    let setup = ProductionSetup::new(w.manual_profile());
    let mut jvm = Jvm::builder(RuntimeConfig::small())
        .collector(Box::new(Ng2cCollector::new(GcConfig::default())))
        .hooks(w.hooks())
        .state(w.new_state(5))
        .transformer(setup.agent())
        .build(w.program())
        .expect("loads");
    setup.prepare_generations(&mut jvm);
    let t = jvm.spawn_thread();
    for _ in 0..300 {
        jvm.invoke(t, "Lucene", "handleOp").expect("op");
    }
    // Find a live ByteBlock allocated via the search path: under the
    // misplaced profile, ALL ByteBlocks are pretenured, including scratch.
    let block_class = jvm.heap().classes().lookup("ByteBlock").unwrap();
    let pretenured_blocks = jvm.heap().stats().allocated_objects;
    assert!(pretenured_blocks > 0);
    // Check via allocation accounting on a fresh sample object.
    jvm.invoke(t, "Lucene", "handleOp").expect("op");
    let any_pretenured = (0..jvm.heap().stats().allocated_objects)
        .rev()
        .take(200)
        .filter_map(|i| jvm.heap().object(polm2::heap::ObjectId::new(i)))
        .any(|rec| rec.class() == block_class && !rec.allocated_gen().is_young());
    assert!(
        any_pretenured,
        "misplaced manual profile pretenures byte blocks"
    );
}

#[test]
fn graphchi_programs_share_structure_across_algorithms() {
    // PR and CC run the same program; only hooks/state differ — like the
    // real GraphChi binary running different vertex programs.
    let pr = graphchi::GraphchiWorkload::pagerank().program();
    let cc = graphchi::GraphchiWorkload::connected_components().program();
    assert_eq!(pr, cc);
}

#[test]
fn instrumenting_a_missing_site_is_harmless() {
    // Profiles survive program evolution: entries pointing at code that no
    // longer exists simply do not match (the paper's load-time rewriting has
    // the same property).
    let mut profile = polm2::core::AllocationProfile::new();
    profile.add_site(polm2::core::PretenuredSite {
        loc: CodeLoc::new("Gone", "method", 1),
        gen: polm2::heap::GenId::new(2),
        local: true,
    });
    let inst = Instrumenter::new(profile);
    let mut program = cassandra::program();
    let mut agent = inst.agent();
    for class in program.classes_mut() {
        agent.transform(class);
    }
    assert_eq!(inst.stats().annotated_sites, 0);
    assert_eq!(inst.stats().gen_call_pairs, 0);
}

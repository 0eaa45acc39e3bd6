//! Reachability oracle for the CRIU Dumper's captures.
//!
//! Every capture traces the heap afresh. This suite drives G1, NG2C and C4
//! through allocation churn, a collection and then one heap or root-table
//! mutation, and demands that the next capture hold exactly the identity
//! hashes of the objects a test-side BFS reaches from the root table —
//! whatever the mutation did, on both heap backends. Back-to-back captures
//! over an untouched heap must agree with each other.

use std::collections::{HashSet, VecDeque};

use polm2_gc::{
    AllocRequest, C4Collector, Collector, G1Collector, GcConfig, Ng2cCollector, SafepointRoots,
    ThreadId,
};
use polm2_heap::{BackendKind, Heap, HeapConfig, ObjectId, SiteId};
use polm2_metrics::SimTime;
use polm2_snapshot::{CriuDumper, HeapDumper, Snapshot};

fn request(heap: &mut Heap, size: u32, site: u32) -> AllocRequest {
    AllocRequest {
        class: heap.classes_mut().intern("T"),
        size,
        site: SiteId::new(site),
        pretenure: false,
        thread: ThreadId::new(0),
    }
}

/// Churns allocations through the collector: every fourth object is rooted
/// (survivors that tenure), the rest die young.
fn churn(heap: &mut Heap, gc: &mut dyn Collector, objects: u32) -> Vec<ObjectId> {
    let slot = heap.roots_mut().create_slot("survivors");
    let mut kept = Vec::new();
    for i in 0..objects {
        let req = request(heap, 2_048 + (i % 7) * 512, i % 4);
        let out = gc
            .alloc(heap, req, &SafepointRoots::none())
            .expect("allocation");
        if i % 4 == 0 {
            heap.roots_mut().push(slot, out.object);
            kept.push(out.object);
        }
    }
    kept
}

/// The expected capture content: identity hashes of every object reachable
/// from the root table (BFS over `refs`), sorted and deduplicated.
fn reachable_hashes(heap: &Heap) -> Vec<u32> {
    let mut seen: HashSet<ObjectId> = HashSet::new();
    let mut queue: VecDeque<ObjectId> = heap.roots().iter().collect();
    let mut hashes = Vec::new();
    while let Some(id) = queue.pop_front() {
        if !seen.insert(id) {
            continue;
        }
        let rec = heap.object(id).expect("reachable object is allocated");
        hashes.push(rec.identity_hash().raw());
        queue.extend(rec.refs().iter().copied());
    }
    hashes.sort_unstable();
    hashes.dedup();
    hashes
}

fn assert_matches_oracle(heap: &Heap, snap: &Snapshot, context: &str) {
    let want = reachable_hashes(heap);
    assert_eq!(snap.sorted_hashes(), &want[..], "{context}: contents");
    assert_eq!(
        snap.live_objects,
        want.len() as u64,
        "{context}: live count"
    );
}

/// Objects a mutation may touch, all set up before the collection.
struct Fixture {
    kept: Vec<ObjectId>,
    /// Reachable only through `kept[0]`.
    child: ObjectId,
}

type Mutation = fn(&mut Heap, &Fixture);

fn fresh_object(heap: &mut Heap) -> ObjectId {
    let class = heap.classes_mut().intern("T");
    heap.allocate(class, 256, SiteId::new(9), Heap::YOUNG_SPACE)
        .expect("allocation")
}

const MUTATIONS: &[(&str, Mutation)] = &[
    ("allocate", |heap, _| {
        fresh_object(heap);
    }),
    ("add_ref", |heap, f| {
        let obj = fresh_object(heap);
        heap.add_ref(f.kept[1], obj).expect("edge");
    }),
    ("remove_ref", |heap, f| {
        assert!(heap.remove_ref(f.kept[0], f.child).expect("edge removed"));
    }),
    ("root push", |heap, _| {
        let obj = fresh_object(heap);
        let slot = heap.roots_mut().create_slot("extra");
        heap.roots_mut().push(slot, obj);
    }),
    ("root remove", |heap, f| {
        let slot = heap.roots_mut().find_slot("survivors").expect("slot");
        assert!(heap.roots_mut().remove(slot, f.kept[0]));
    }),
    ("drop_object", |heap, f| {
        let slot = heap.roots_mut().find_slot("survivors").expect("slot");
        assert!(heap.roots_mut().remove(slot, f.kept[1]));
        heap.drop_object(f.kept[1]).expect("dropped");
    }),
    ("set_keyed", |heap, _| {
        let obj = fresh_object(heap);
        let slot = heap.roots_mut().create_slot("keyed");
        heap.roots_mut().set_keyed(slot, 7, obj);
    }),
    ("clear_slot", |heap, _| {
        let slot = heap.roots_mut().find_slot("survivors").expect("slot");
        heap.roots_mut().clear_slot(slot);
    }),
    ("write_field", |heap, f| {
        heap.write_field(f.kept[2]).expect("write");
    }),
];

/// For every mutation: churn, capture, churn more, collect, mutate, capture
/// — and check the second capture against the BFS oracle. The churn between
/// the captures changes the reachable set, so a capture that skipped its
/// trace would be caught even where the mutation itself changes nothing.
fn captures_match_reachability(make: &dyn Fn() -> Box<dyn Collector>) {
    for backend in [BackendKind::Sim, BackendKind::Real] {
        for (name, mutate) in MUTATIONS {
            let context = format!("{backend:?}/{name}");
            let mut heap = Heap::new(HeapConfig::small().with_backend(backend));
            let mut gc = make();
            gc.attach(&mut heap);
            let mut dumper = CriuDumper::new();

            let kept = churn(&mut heap, gc.as_mut(), 200);
            let req = request(&mut heap, 1_024, 5);
            let child = gc
                .alloc(&mut heap, req, &SafepointRoots::none())
                .expect("allocation")
                .object;
            heap.add_ref(kept[0], child).expect("edge");
            let first = dumper.snapshot(&mut heap, SimTime::ZERO).expect("snapshot");
            assert_matches_oracle(&heap, &first, &format!("{context}: first"));

            churn(&mut heap, gc.as_mut(), 120);
            gc.collect(&mut heap, &SafepointRoots::none());
            mutate(&mut heap, &Fixture { kept, child });
            let snap = dumper
                .snapshot(&mut heap, SimTime::from_secs(1))
                .expect("snapshot");
            assert_matches_oracle(&heap, &snap, &context);
            heap.check_invariants();
        }
    }
}

#[test]
fn g1_captures_match_reachability() {
    captures_match_reachability(&|| Box::new(G1Collector::new(GcConfig::default())));
}

#[test]
fn ng2c_captures_match_reachability() {
    captures_match_reachability(&|| Box::new(Ng2cCollector::new(GcConfig::default())));
}

#[test]
fn c4_captures_match_reachability() {
    captures_match_reachability(&|| Box::new(C4Collector::new(GcConfig::default())));
}

/// Back-to-back captures over an untouched heap see the same objects; a
/// field write in between changes no content but its page is captured.
#[test]
fn back_to_back_captures_agree() {
    let mut heap = Heap::new(HeapConfig::small());
    let mut gc = G1Collector::new(GcConfig::default());
    gc.attach(&mut heap);
    let kept = churn(&mut heap, &mut gc, 200);
    gc.collect(&mut heap, &SafepointRoots::none());

    let mut dumper = CriuDumper::new();
    let first = dumper.snapshot(&mut heap, SimTime::ZERO).expect("snapshot");
    let second = dumper
        .snapshot(&mut heap, SimTime::from_secs(1))
        .expect("snapshot");
    assert_matches_oracle(&heap, &first, "first");
    assert_eq!(first.sorted_hashes(), second.sorted_hashes());
    assert_eq!(first.live_objects, second.live_objects);

    heap.write_field(kept[0]).expect("write");
    let third = dumper
        .snapshot(&mut heap, SimTime::from_secs(2))
        .expect("snapshot");
    assert_eq!(first.sorted_hashes(), third.sorted_hashes());
    assert!(
        third.size_bytes >= u64::from(heap.page_table().page_bytes()),
        "the dirtied page must be captured"
    );
}

//! Differential suite for the mark.
//!
//! Three marks run over identically built heaps: the serial tracer, the
//! sharded mark forced on ([`ParallelTuning::force`]) at 2 and 4 workers,
//! and a reference BFS in this file over a `HashSet`. They must agree on
//! membership, the canonical ascending-id `order`, `live_bytes` and every
//! marked region's live bytes, for whole-heap marks and for young-only
//! marks rooted through the remembered set. Whole-heap marks also pin the
//! no-need walk: its fast path (the live-page bitmap the mark rebuilt) and
//! its fallback (recomputed from the set) must set the same pages.
//!
//! Graph shapes: random, leaf-heavy, cyclic, and a deep chain that pins
//! that the work stack never recurses. The chain is 100 000 objects long in
//! release builds (`scripts/check.sh` runs this suite with `--release`) and
//! shorter in the debug `--workspace` pass.

use std::collections::{BTreeSet, HashSet, VecDeque};

use proptest::prelude::*;

use polm2_heap::{GenId, Heap, HeapConfig, LiveSet, ObjectId, ParallelTuning, SiteId, SpaceId};

const DEEP_CHAIN: usize = if cfg!(debug_assertions) {
    10_000
} else {
    100_000
};

/// One object of a generated graph.
#[derive(Debug, Clone)]
struct Obj {
    size: u32,
    old: bool,
    refs: Vec<usize>,
    /// Dropped before the second allocation phase: its slot is recycled and
    /// no edge to or from it is ever added.
    drop_early: bool,
    /// Dropped after every edge is in place, leaving dangling refs.
    drop_late: bool,
}

#[derive(Debug, Clone)]
struct Graph {
    objs: Vec<Obj>,
    /// Root-table members.
    roots: Vec<usize>,
    /// Extra (stack) roots passed to the mark.
    stack: Vec<usize>,
}

/// splitmix64: the graph generator's seeded stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Random,
    LeafHeavy,
    Cyclic,
}

fn generate(seed: u64, shape: Shape, n: usize) -> Graph {
    let mut rng = Rng(seed);
    let mut objs: Vec<Obj> = (0..n)
        .map(|_| Obj {
            size: 16 + 8 * rng.below(60) as u32,
            old: rng.chance(25),
            refs: Vec::new(),
            drop_early: rng.chance(4),
            drop_late: rng.chance(4),
        })
        .collect();
    for (i, obj) in objs.iter_mut().enumerate() {
        let fanout = match shape {
            Shape::Random => rng.below(5),
            Shape::LeafHeavy => {
                if rng.chance(80) {
                    0
                } else {
                    1 + rng.below(8)
                }
            }
            Shape::Cyclic => rng.below(3),
        };
        for _ in 0..fanout {
            obj.refs.push(rng.below(n));
        }
        if let Shape::Cyclic = shape {
            obj.refs.push((i + 1) % n);
            if rng.chance(10) {
                obj.refs.push(i);
            }
        }
    }
    let roots = (0..1 + rng.below(6)).map(|_| rng.below(n)).collect();
    let stack = (0..rng.below(4)).map(|_| rng.below(n)).collect();
    Graph { objs, roots, stack }
}

fn chain(n: usize) -> Graph {
    let objs = (0..n)
        .map(|i| Obj {
            size: 16,
            old: false,
            refs: if i + 1 < n { vec![i + 1] } else { Vec::new() },
            drop_early: false,
            drop_late: false,
        })
        .collect();
    Graph {
        objs,
        roots: vec![0],
        stack: Vec::new(),
    }
}

/// A heap holding `graph`, plus each object's id and the edges actually
/// added (edges touching an early-dropped object are skipped).
struct Built {
    heap: Heap,
    ids: Vec<ObjectId>,
    edges: Vec<(usize, usize)>,
}

fn build(graph: &Graph, workers: usize) -> Built {
    let mut heap = Heap::new(HeapConfig::paper_scaled());
    if workers > 1 {
        heap.set_parallel_tuning(ParallelTuning::force());
        heap.set_gc_workers(workers);
    }
    let class = heap.classes_mut().intern("Node");
    let old = heap.create_space(GenId::new(1), None);
    let space = |o: &Obj| if o.old { old } else { Heap::YOUNG_SPACE };
    let half = graph.objs.len() / 2;
    let mut ids = Vec::with_capacity(graph.objs.len());
    for o in &graph.objs[..half] {
        ids.push(
            heap.allocate(class, o.size, SiteId::new(0), space(o))
                .unwrap(),
        );
    }
    for (o, &id) in graph.objs.iter().zip(&ids) {
        if o.drop_early {
            heap.drop_object(id).unwrap();
        }
    }
    // The second half reuses the early-dropped objects' record slots.
    for o in &graph.objs[half..] {
        ids.push(
            heap.allocate(class, o.size, SiteId::new(0), space(o))
                .unwrap(),
        );
    }
    let early = |i: usize| i < half && graph.objs[i].drop_early;
    let mut edges = Vec::new();
    for (from, o) in graph.objs.iter().enumerate() {
        for &to in &o.refs {
            if !early(from) && !early(to) {
                heap.add_ref(ids[from], ids[to]).unwrap();
                edges.push((from, to));
            }
        }
    }
    for (i, (o, &id)) in graph.objs.iter().zip(&ids).enumerate() {
        if o.drop_late && !early(i) {
            heap.drop_object(id).unwrap();
        }
    }
    let slot = heap.roots_mut().create_slot("diff");
    for &r in &graph.roots {
        if !early(r) && !graph.objs[r].drop_late {
            heap.roots_mut().push(slot, ids[r]);
        }
    }
    Built { heap, ids, edges }
}

fn stack_roots(graph: &Graph, ids: &[ObjectId]) -> Vec<ObjectId> {
    graph.stack.iter().map(|&i| ids[i]).collect()
}

/// The reference mark: a BFS over the added edges with a `HashSet`.
/// Young-only marks stay inside young and add the remembered set — every
/// young child of an old parent, as the `add_ref` barrier recorded it.
fn reference(graph: &Graph, built: &Built, young_only: bool) -> BTreeSet<usize> {
    let n = graph.objs.len();
    let half = n / 2;
    let present = |i: usize| {
        let o = &graph.objs[i];
        !(o.drop_late || i < half && o.drop_early)
    };
    let in_scope = |i: usize| present(i) && !(young_only && graph.objs[i].old);
    let mut adj = vec![Vec::new(); n];
    for &(from, to) in &built.edges {
        adj[from].push(to);
    }
    let mut roots: Vec<usize> = graph
        .roots
        .iter()
        .chain(&graph.stack)
        .copied()
        .filter(|&r| present(r))
        .collect();
    if young_only {
        roots.extend(
            built
                .edges
                .iter()
                .filter(|&&(from, to)| graph.objs[from].old && !graph.objs[to].old)
                .map(|&(_, to)| to),
        );
    }
    let mut seen: HashSet<usize> = HashSet::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for r in roots {
        if in_scope(r) && seen.insert(r) {
            queue.push_back(r);
        }
    }
    while let Some(i) = queue.pop_front() {
        for &c in &adj[i] {
            if in_scope(c) && seen.insert(c) {
                queue.push_back(c);
            }
        }
    }
    seen.into_iter().collect()
}

fn mark(built: &mut Built, graph: &Graph, young_only: bool) -> LiveSet {
    let stack = stack_roots(graph, &built.ids);
    if young_only {
        built.heap.mark_live_young(&stack)
    } else {
        built.heap.mark_live(&stack)
    }
}

/// Pages whose no-need bit is set.
fn no_need_pages(heap: &Heap) -> Vec<u32> {
    let table = heap.page_table();
    (0..table.page_count())
        .filter(|&p| table.flags_of(p).no_need)
        .collect()
}

/// Runs every mark over `graph` and checks them against the reference.
fn check(graph: &Graph) {
    for young_only in [false, true] {
        let probe = build(graph, 1);
        let want = reference(graph, &probe, young_only);
        let want_order: Vec<ObjectId> = want.iter().map(|&i| probe.ids[i]).collect();
        let want_bytes: u64 = want.iter().map(|&i| u64::from(graph.objs[i].size)).sum();
        let mut want_regions = vec![0u32; probe.heap.regions().len()];
        for &i in &want {
            let rec = probe
                .heap
                .object(probe.ids[i])
                .expect("reference member is allocated");
            want_regions[rec.addr().region.index()] += rec.size();
        }
        let marked_space = |space: Option<SpaceId>| {
            if young_only {
                space == Some(Heap::YOUNG_SPACE)
            } else {
                space.is_some()
            }
        };

        let mut no_need: Option<Vec<u32>> = None;
        for workers in [1, 2, 4] {
            let ctx = format!("workers {workers}, young_only {young_only}");
            let mut built = build(graph, workers);
            let live = mark(&mut built, graph, young_only);
            let order: Vec<ObjectId> = live.iter().collect();
            assert_eq!(order, want_order, "canonical order, {ctx}");
            for (i, &id) in built.ids.iter().enumerate() {
                assert_eq!(
                    live.contains(id),
                    want.contains(&i),
                    "membership of #{i}, {ctx}"
                );
            }
            assert_eq!(live.live_bytes(), want_bytes, "live bytes, {ctx}");
            assert_eq!(live.traced_objects(), want.len() as u64, "traced, {ctx}");
            for region in built.heap.regions() {
                if marked_space(region.space()) {
                    assert_eq!(
                        region.live_bytes(),
                        want_regions[region.id().index()],
                        "live bytes of region {}, {ctx}",
                        region.id()
                    );
                }
            }
            if young_only {
                continue;
            }

            // The no-need walk's fast path reads the bitmap this mark built.
            built.heap.mark_no_need_pages(&live);
            let fast = no_need_pages(&built.heap);
            // An identical heap whose mutation counter moved on (an edge
            // added and removed again) takes the exact fallback.
            let mut again = build(graph, workers);
            let live_again = mark(&mut again, graph, false);
            if let Some(&first) = want.first() {
                let id = again.ids[first];
                again.heap.add_ref(id, id).unwrap();
                assert!(again.heap.remove_ref(id, id).unwrap());
            }
            again.heap.mark_no_need_pages(&live_again);
            assert_eq!(no_need_pages(&again.heap), fast, "fast vs fallback, {ctx}");
            match &no_need {
                Some(pages) => assert_eq!(&fast, pages, "no-need pages, {ctx}"),
                None => no_need = Some(fast),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn marks_agree_on_random_graphs(seed in any::<u64>(), n in 1usize..1500) {
        check(&generate(seed, Shape::Random, n));
    }

    #[test]
    fn marks_agree_on_leaf_heavy_graphs(seed in any::<u64>(), n in 1usize..3000) {
        check(&generate(seed, Shape::LeafHeavy, n));
    }

    #[test]
    fn marks_agree_on_cyclic_graphs(seed in any::<u64>(), n in 1usize..1500) {
        check(&generate(seed, Shape::Cyclic, n));
    }
}

#[test]
fn marks_agree_on_a_deep_chain() {
    check(&chain(DEEP_CHAIN));
}

#[test]
fn marks_agree_on_degenerate_graphs() {
    // One object with a self-loop, rooted and unrooted; a fully dropped
    // graph; a root that is also every object's child.
    let lone = Obj {
        size: 24,
        old: false,
        refs: vec![0],
        drop_early: false,
        drop_late: false,
    };
    check(&Graph {
        objs: vec![lone.clone()],
        roots: vec![0],
        stack: Vec::new(),
    });
    check(&Graph {
        objs: vec![lone.clone()],
        roots: Vec::new(),
        stack: Vec::new(),
    });
    let dropped = Obj {
        drop_late: true,
        ..lone.clone()
    };
    check(&Graph {
        objs: vec![dropped; 8],
        roots: vec![0, 3],
        stack: vec![5],
    });
    let star = (0..64)
        .map(|i| Obj {
            refs: vec![0],
            old: i % 2 == 1,
            ..lone.clone()
        })
        .collect();
    check(&Graph {
        objs: star,
        roots: vec![0],
        stack: vec![63],
    });
}

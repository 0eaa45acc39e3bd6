//! The G1-like baseline collector.

use polm2_heap::{GenId, Heap, HeapError, SpaceId};

use crate::collector::{
    ensure_mark, evacuate_young, oom_if_exhausted, over_mixed_trigger, pool_pressure,
    reclaim_spaces, survivor_cap, AllocOutcome, AllocRequest, Collector, MarkCycle, SafepointRoots,
};
use crate::{GcConfig, GcError, GcKind, GcWork, PauseEvent};

/// The OpenJDK-default collector the paper compares against.
///
/// Two generations. Every object is born young; survivors are copied within
/// the young generation until they reach the tenuring threshold and are then
/// promoted. Old regions are reclaimed by incremental *mixed* collections
/// that compact the sparsest regions first, and by *full* collections under
/// pressure. Middle-lived Big-Data objects are therefore copied repeatedly,
/// promoted en masse, and compacted after they die — the paper's motivating
/// pathology.
///
/// See the [crate documentation](crate) for a usage example.
#[derive(Debug)]
pub struct G1Collector {
    config: GcConfig,
    old: Option<SpaceId>,
    /// The current (conceptually concurrent) marking cycle.
    mark: Option<MarkCycle>,
    /// Last-resort full collections forced by a failed allocation.
    emergency_collections: u64,
}

impl G1Collector {
    /// Creates a G1 collector with the given tuning.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`GcConfig::validate`].
    pub fn new(config: GcConfig) -> Self {
        config.validate().expect("invalid GC configuration");
        G1Collector {
            config,
            old: None,
            mark: None,
            emergency_collections: 0,
        }
    }

    /// The collector's tuning parameters.
    pub fn config(&self) -> &GcConfig {
        &self.config
    }

    fn old_space(&self) -> SpaceId {
        self.old.expect("collector not attached")
    }

    fn minor(
        &mut self,
        heap: &mut Heap,
        roots: &SafepointRoots<'_>,
    ) -> Result<PauseEvent, GcError> {
        // Minor collections trace only the young generation (remembered set
        // + roots); the old spaces are assumed live.
        let live = heap.mark_live_young(roots.stack_roots());
        let work = evacuate_young(
            heap,
            &live,
            self.config.tenure_threshold,
            self.old_space(),
            survivor_cap(heap, self.config.survivor_ratio),
        )?;
        heap.retire_live_set(live);
        Ok(PauseEvent {
            kind: GcKind::Minor,
            pause: self.config.cost.pause(&work),
            work,
        })
    }

    fn mixed(
        &mut self,
        heap: &mut Heap,
        roots: &SafepointRoots<'_>,
    ) -> Result<PauseEvent, GcError> {
        let young_live = heap.mark_live_young(roots.stack_roots());
        let young = evacuate_young(
            heap,
            &young_live,
            self.config.tenure_threshold,
            self.old_space(),
            survivor_cap(heap, self.config.survivor_ratio),
        )?;
        heap.retire_live_set(young_live);
        ensure_mark(&mut self.mark, heap, roots, self.config.mark_cycle_uses);
        let mark = self.mark.as_ref().expect("ensured above");
        let old = reclaim_spaces(
            heap,
            mark,
            &[self.old_space()],
            self.config.compact_live_fraction,
            self.config.max_compact_regions_per_pause,
        )?;
        let work = young.merged(old);
        Ok(PauseEvent {
            kind: GcKind::Mixed,
            pause: self.config.cost.pause(&work),
            work,
        })
    }

    fn full(&mut self, heap: &mut Heap, roots: &SafepointRoots<'_>) -> Result<PauseEvent, GcError> {
        // Full collections mark afresh, promote every survivor (threshold
        // 0), and compact every old region that is not completely full.
        let cycle = MarkCycle::run(heap, roots);
        let young = evacuate_young(
            heap,
            &cycle.live,
            0,
            self.old_space(),
            survivor_cap(heap, self.config.survivor_ratio),
        )?;
        let old = reclaim_spaces(heap, &cycle, &[self.old_space()], 1.0, u32::MAX)?;
        // The heap changed wholesale; the next mixed pause re-marks.
        if let Some(stale) = self.mark.take() {
            heap.retire_live_set(stale.live);
        }
        heap.retire_live_set(cycle.live);
        let work = young.merged(old);
        // Cycle boundary: let the backend run deferred allocator
        // maintenance (tenured free-list coalescing).
        heap.note_gc_cycle_finished();
        Ok(PauseEvent {
            kind: GcKind::Full,
            pause: self.config.cost.pause(&work),
            work,
        })
    }
}

impl Collector for G1Collector {
    fn name(&self) -> &'static str {
        "G1"
    }

    fn attach(&mut self, heap: &mut Heap) {
        assert!(self.old.is_none(), "collector already attached");
        self.old = Some(heap.create_space(GenId::new(1), None));
        heap.set_gc_workers(self.config.gc_workers);
    }

    fn alloc(
        &mut self,
        heap: &mut Heap,
        req: AllocRequest,
        roots: &SafepointRoots<'_>,
    ) -> Result<AllocOutcome, GcError> {
        let mut pauses = Vec::new();
        // Old-space growth (promotion, pretenuring) drains the shared pool
        // without ever failing a young allocation; collect pre-emptively so
        // evacuation always has to-space available.
        if pool_pressure(heap) {
            // Under pool pressure the floating garbage of the current mark
            // cycle is what is squeezing us: refresh the mark, then reclaim
            // incrementally; a full collection is the last resort.
            if let Some(stale) = self.mark.take() {
                heap.retire_live_set(stale.live);
            }
            pauses.push(
                self.mixed(heap, roots)
                    .map_err(|e| oom_if_exhausted(e, u64::from(req.size)))?,
            );
            if pool_pressure(heap) {
                pauses.push(
                    self.full(heap, roots)
                        .map_err(|e| oom_if_exhausted(e, u64::from(req.size)))?,
                );
            }
        }
        // Fast path. A hard heap-limit miss (`OutOfMemory`) is retried the
        // same way pool exhaustion is: collection frees budget too.
        match heap.allocate(req.class, req.size, req.site, Heap::YOUNG_SPACE) {
            Ok(object) => return Ok(AllocOutcome { object, pauses }),
            Err(HeapError::SpaceFull { .. })
            | Err(HeapError::OutOfRegions { .. })
            | Err(HeapError::OutOfMemory { .. }) => {}
            Err(e) => return Err(e.into()),
        }
        // Young full: make sure old space pressure will not sink the
        // evacuation, then run the young collection.
        if pool_pressure(heap) {
            pauses.push(
                self.full(heap, roots)
                    .map_err(|e| oom_if_exhausted(e, u64::from(req.size)))?,
            );
        } else if over_mixed_trigger(heap, self.config.mixed_trigger_fraction) {
            pauses.push(
                self.mixed(heap, roots)
                    .map_err(|e| oom_if_exhausted(e, u64::from(req.size)))?,
            );
        } else {
            pauses.push(
                self.minor(heap, roots)
                    .map_err(|e| oom_if_exhausted(e, u64::from(req.size)))?,
            );
        }
        match heap.allocate(req.class, req.size, req.site, Heap::YOUNG_SPACE) {
            Ok(object) => return Ok(AllocOutcome { object, pauses }),
            Err(HeapError::SpaceFull { .. })
            | Err(HeapError::OutOfRegions { .. })
            | Err(HeapError::OutOfMemory { .. }) => {}
            Err(e) => return Err(e.into()),
        }
        // Last resort: one emergency full collection, then the verdict.
        self.emergency_collections += 1;
        pauses.push(
            self.full(heap, roots)
                .map_err(|e| oom_if_exhausted(e, u64::from(req.size)))?,
        );
        match heap.allocate(req.class, req.size, req.site, Heap::YOUNG_SPACE) {
            Ok(object) => Ok(AllocOutcome { object, pauses }),
            Err(_) => Err(GcError::OutOfMemory {
                requested: u64::from(req.size),
            }),
        }
    }

    fn collect(&mut self, heap: &mut Heap, roots: &SafepointRoots<'_>) -> Vec<PauseEvent> {
        match self.full(heap, roots) {
            Ok(p) => vec![p],
            Err(_) => vec![PauseEvent {
                kind: GcKind::Full,
                pause: self.config.cost.pause(&GcWork::default()),
                work: GcWork::default(),
            }],
        }
    }

    fn emergency_collections(&self) -> u64 {
        self.emergency_collections
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polm2_heap::{HeapConfig, ObjectId, SiteId};

    use crate::ThreadId;

    fn setup() -> (Heap, G1Collector) {
        let mut heap = Heap::new(HeapConfig::small());
        let mut gc = G1Collector::new(GcConfig::default());
        gc.attach(&mut heap);
        (heap, gc)
    }

    fn req(heap: &mut Heap, size: u32) -> AllocRequest {
        AllocRequest {
            class: heap.classes_mut().intern("T"),
            size,
            site: SiteId::new(0),
            pretenure: false,
            thread: ThreadId::new(0),
        }
    }

    #[test]
    fn fast_path_allocates_without_pauses() {
        let (mut heap, mut gc) = setup();
        let r = req(&mut heap, 128);
        let out = gc.alloc(&mut heap, r, &SafepointRoots::none()).unwrap();
        assert!(out.pauses.is_empty());
        assert!(heap.object(out.object).is_some());
    }

    #[test]
    fn young_exhaustion_triggers_minor_collection() {
        let (mut heap, mut gc) = setup();
        let r = req(&mut heap, 4096);
        let mut total_pauses = 0;
        for _ in 0..1000 {
            // No roots: everything dies young, so minor GCs keep the heap flat.
            let out = gc.alloc(&mut heap, r, &SafepointRoots::none()).unwrap();
            total_pauses += out.pauses.len();
        }
        assert!(total_pauses >= 3, "expected several minor collections");
        heap.check_invariants();
        // Everything was garbage, nothing should have been promoted.
        assert_eq!(heap.used_bytes(gc.old_space()).unwrap(), 0);
    }

    #[test]
    fn surviving_objects_get_promoted_eventually() {
        let (mut heap, mut gc) = setup();
        let r = req(&mut heap, 4096);
        let slot = heap.roots_mut().create_slot("keep");
        // Root a handful of objects, then churn garbage through young.
        let mut kept = Vec::new();
        for i in 0..2000 {
            let out = gc.alloc(&mut heap, r, &SafepointRoots::none()).unwrap();
            if i < 8 {
                heap.roots_mut().push(slot, out.object);
                kept.push(out.object);
            }
        }
        for obj in kept {
            assert_eq!(
                heap.object(obj).map(|o| o.space()),
                Some(gc.old_space()),
                "rooted object should be tenured after enough collections"
            );
        }
    }

    #[test]
    fn full_collection_reclaims_dead_old_objects() {
        let (mut heap, mut gc) = setup();
        let r = req(&mut heap, 4096);
        let slot = heap.roots_mut().create_slot("keep");
        let mut kept: Vec<ObjectId> = Vec::new();
        for _ in 0..600 {
            let out = gc.alloc(&mut heap, r, &SafepointRoots::none()).unwrap();
            heap.roots_mut().push(slot, out.object);
            kept.push(out.object);
        }
        // Everything is rooted and much of it promoted; now drop all roots.
        heap.roots_mut().clear_slot(slot);
        let pauses = gc.collect(&mut heap, &SafepointRoots::none());
        assert_eq!(pauses.len(), 1);
        assert_eq!(pauses[0].kind, GcKind::Full);
        assert_eq!(heap.object_count(), 0);
        heap.check_invariants();
    }

    #[test]
    fn out_of_memory_when_everything_is_live() {
        let mut heap = Heap::new(HeapConfig::small());
        let mut gc = G1Collector::new(GcConfig::default());
        gc.attach(&mut heap);
        let r = req(&mut heap, 4096);
        let slot = heap.roots_mut().create_slot("keep");
        let mut last_err = None;
        for _ in 0..2000 {
            match gc.alloc(&mut heap, r, &SafepointRoots::none()) {
                Ok(out) => heap.roots_mut().push(slot, out.object),
                Err(e) => {
                    last_err = Some(e);
                    break;
                }
            }
        }
        assert!(
            matches!(last_err, Some(GcError::OutOfMemory { .. })),
            "rooting everything must eventually exhaust the heap: {last_err:?}"
        );
    }

    #[test]
    fn stack_roots_survive_collections() {
        let (mut heap, mut gc) = setup();
        let r = req(&mut heap, 4096);
        let pinned = gc
            .alloc(&mut heap, r, &SafepointRoots::none())
            .unwrap()
            .object;
        let stack = [pinned];
        let roots = SafepointRoots::new(&stack);
        for _ in 0..500 {
            gc.alloc(&mut heap, r, &roots).unwrap();
        }
        assert!(
            heap.object(pinned).is_some(),
            "stack-rooted object must survive"
        );
    }

    #[test]
    fn pretenure_flag_is_ignored_by_g1() {
        let (mut heap, mut gc) = setup();
        let mut r = req(&mut heap, 128);
        r.pretenure = true;
        let out = gc.alloc(&mut heap, r, &SafepointRoots::none()).unwrap();
        assert_eq!(heap.object(out.object).unwrap().space(), Heap::YOUNG_SPACE);
    }
}

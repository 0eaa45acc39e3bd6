//! The NG2C pretenuring collector.

use std::collections::HashMap;

use polm2_heap::{GenId, Heap, HeapError, SpaceId};

use crate::collector::{
    ensure_mark, evacuate_young, oom_if_exhausted, over_mixed_trigger, pool_pressure,
    reclaim_spaces, survivor_cap, AllocOutcome, AllocRequest, Collector, MarkCycle, SafepointRoots,
    ThreadId,
};
use crate::{GcConfig, GcError, GcKind, GcWork, PauseEvent};

/// NG2C: an N-generational pretenuring collector (Bruno et al., ISMM '17).
///
/// Extends the 2-generation design with dynamically created generations and
/// the API POLM2's Instrumenter targets:
///
/// * [`new_generation`](Collector::new_generation) — create a generation at
///   runtime;
/// * [`set_target_gen`](Collector::set_target_gen) /
///   [`target_gen`](Collector::target_gen) — the thread-local *target
///   generation*;
/// * `@Gen`-annotated allocation — an [`AllocRequest`] with
///   `pretenure: true` is placed directly in the thread's target generation.
///
/// Because objects with similar lifetimes are co-located, whole regions die
/// together and are released without copying — the mechanism behind the
/// paper's pause-time reductions.
#[derive(Debug)]
pub struct Ng2cCollector {
    config: GcConfig,
    /// `gen_spaces[g]` is the space for logical generation `g`;
    /// index 0 is the young space.
    gen_spaces: Vec<SpaceId>,
    /// Thread-local target generations (NG2C keeps these in the JVM thread).
    targets: HashMap<ThreadId, GenId>,
    /// The current (conceptually concurrent) marking cycle.
    mark: Option<MarkCycle>,
    /// Last-resort full collections forced by a failed allocation.
    emergency_collections: u64,
}

impl Ng2cCollector {
    /// Creates an NG2C collector with the given tuning.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`GcConfig::validate`].
    pub fn new(config: GcConfig) -> Self {
        config.validate().expect("invalid GC configuration");
        Ng2cCollector {
            config,
            gen_spaces: Vec::new(),
            targets: HashMap::new(),
            mark: None,
            emergency_collections: 0,
        }
    }

    /// The collector's tuning parameters.
    pub fn config(&self) -> &GcConfig {
        &self.config
    }

    /// Number of generations currently in existence (young included).
    pub fn generation_count(&self) -> usize {
        self.gen_spaces.len()
    }

    /// The space backing logical generation `gen`.
    ///
    /// # Errors
    ///
    /// [`GcError::UnknownGeneration`] if the generation was never created.
    pub fn space_of(&self, gen: GenId) -> Result<SpaceId, GcError> {
        self.gen_spaces
            .get(gen.raw() as usize)
            .copied()
            .ok_or(GcError::UnknownGeneration { gen: gen.raw() })
    }

    fn old_space(&self) -> SpaceId {
        self.gen_spaces[1]
    }

    fn old_spaces(&self) -> Vec<SpaceId> {
        self.gen_spaces[1..].to_vec()
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
        let olds = reclaim_spaces(
            heap,
            mark,
            &self.old_spaces(),
            self.config.compact_live_fraction,
            self.config.max_compact_regions_per_pause,
        )?;
        let work = young.merged(olds);
        Ok(PauseEvent {
            kind: GcKind::Mixed,
            pause: self.config.cost.pause(&work),
            work,
        })
    }

    fn full(&mut self, heap: &mut Heap, roots: &SafepointRoots<'_>) -> Result<PauseEvent, GcError> {
        let cycle = MarkCycle::run(heap, roots);
        let young = evacuate_young(
            heap,
            &cycle.live,
            0,
            self.old_space(),
            survivor_cap(heap, self.config.survivor_ratio),
        )?;
        let olds = reclaim_spaces(heap, &cycle, &self.old_spaces(), 1.0, u32::MAX)?;
        if let Some(stale) = self.mark.take() {
            heap.retire_live_set(stale.live);
        }
        heap.retire_live_set(cycle.live);
        let work = young.merged(olds);
        // Cycle boundary: let the backend run deferred allocator
        // maintenance (tenured free-list coalescing).
        heap.note_gc_cycle_finished();
        Ok(PauseEvent {
            kind: GcKind::Full,
            pause: self.config.cost.pause(&work),
            work,
        })
    }

    fn alloc_space(&self, req: &AllocRequest) -> Result<SpaceId, GcError> {
        if req.pretenure {
            self.space_of(self.target_gen(req.thread))
        } else {
            Ok(Heap::YOUNG_SPACE)
        }
    }
}

impl Collector for Ng2cCollector {
    fn name(&self) -> &'static str {
        "NG2C"
    }

    fn attach(&mut self, heap: &mut Heap) {
        assert!(self.gen_spaces.is_empty(), "collector already attached");
        self.gen_spaces.push(Heap::YOUNG_SPACE);
        // Generation 1 is the classic old generation (age-out target).
        self.gen_spaces.push(heap.create_space(GenId::new(1), None));
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
        let space = self.alloc_space(&req)?;
        // A hard heap-limit miss (`OutOfMemory`) is retried the same way
        // pool exhaustion is: collection frees budget too.
        match heap.allocate(req.class, req.size, req.site, space) {
            Ok(object) => return Ok(AllocOutcome { object, pauses }),
            Err(HeapError::SpaceFull { .. })
            | Err(HeapError::OutOfRegions { .. })
            | Err(HeapError::OutOfMemory { .. }) => {}
            Err(e) => return Err(e.into()),
        }
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
        match heap.allocate(req.class, req.size, req.site, space) {
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
        match heap.allocate(req.class, req.size, req.site, space) {
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

    fn new_generation(&mut self, heap: &mut Heap) -> GenId {
        let gen = GenId::new(self.gen_spaces.len() as u32);
        let space = heap.create_space(gen, None);
        self.gen_spaces.push(space);
        gen
    }

    fn set_target_gen(&mut self, thread: ThreadId, gen: GenId) -> Result<GenId, GcError> {
        if gen.raw() as usize >= self.gen_spaces.len() {
            return Err(GcError::UnknownGeneration { gen: gen.raw() });
        }
        Ok(self.targets.insert(thread, gen).unwrap_or(GenId::YOUNG))
    }

    fn target_gen(&self, thread: ThreadId) -> GenId {
        self.targets.get(&thread).copied().unwrap_or(GenId::YOUNG)
    }

    fn emergency_collections(&self) -> u64 {
        self.emergency_collections
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polm2_heap::{HeapConfig, SiteId};

    fn setup() -> (Heap, Ng2cCollector) {
        let mut heap = Heap::new(HeapConfig::small());
        let mut gc = Ng2cCollector::new(GcConfig::default());
        gc.attach(&mut heap);
        (heap, gc)
    }

    fn req(heap: &mut Heap, size: u32, pretenure: bool) -> AllocRequest {
        AllocRequest {
            class: heap.classes_mut().intern("T"),
            size,
            site: SiteId::new(0),
            pretenure,
            thread: ThreadId::new(0),
        }
    }

    #[test]
    fn attach_creates_young_and_old() {
        let (_, gc) = setup();
        assert_eq!(gc.generation_count(), 2);
        assert_eq!(gc.space_of(GenId::YOUNG).unwrap(), Heap::YOUNG_SPACE);
        assert!(gc.space_of(GenId::new(2)).is_err());
    }

    #[test]
    fn target_generation_api_round_trips() {
        let (mut heap, mut gc) = setup();
        let t = ThreadId::new(7);
        assert_eq!(gc.target_gen(t), GenId::YOUNG);
        let g2 = gc.new_generation(&mut heap);
        assert_eq!(g2, GenId::new(2));
        let prev = gc.set_target_gen(t, g2).unwrap();
        assert_eq!(prev, GenId::YOUNG);
        assert_eq!(gc.target_gen(t), g2);
        let prev = gc.set_target_gen(t, GenId::YOUNG).unwrap();
        assert_eq!(prev, g2);
        assert!(gc.set_target_gen(t, GenId::new(9)).is_err());
    }

    #[test]
    fn pretenured_allocation_lands_in_target_generation() {
        let (mut heap, mut gc) = setup();
        let t = ThreadId::new(0);
        let gen = gc.new_generation(&mut heap);
        gc.set_target_gen(t, gen).unwrap();
        let r = req(&mut heap, 256, true);
        let out = gc.alloc(&mut heap, r, &SafepointRoots::none()).unwrap();
        assert_eq!(
            heap.object(out.object).unwrap().space(),
            gc.space_of(gen).unwrap()
        );
        assert_eq!(heap.object(out.object).unwrap().allocated_gen(), gen);
        // Non-pretenured allocation still goes young.
        let r = req(&mut heap, 256, false);
        let out = gc.alloc(&mut heap, r, &SafepointRoots::none()).unwrap();
        assert_eq!(heap.object(out.object).unwrap().space(), Heap::YOUNG_SPACE);
    }

    #[test]
    fn pretenuring_reduces_copying_for_cohort_lifetimes() {
        // A memtable-style cohort: N objects live together, then die together.
        // Compare collector work with and without pretenuring.
        let run = |pretenure: bool| -> (u64, u64) {
            let (mut heap, mut gc) = setup();
            let t = ThreadId::new(0);
            if pretenure {
                let gen = gc.new_generation(&mut heap);
                gc.set_target_gen(t, gen).unwrap();
            }
            let slot = heap.roots_mut().create_slot("memtable");
            let mut moved = 0u64;
            let mut freed_whole = 0u64;
            for _batch in 0..6 {
                let mut cohort = Vec::new();
                // Allocate a cohort that outlives several young collections.
                for _ in 0..512 {
                    let r = req(&mut heap, 2048, pretenure);
                    let out = gc.alloc(&mut heap, r, &SafepointRoots::none()).unwrap();
                    for p in &out.pauses {
                        moved += p.work.moved_bytes();
                        freed_whole += p.work.freed_regions;
                    }
                    heap.roots_mut().push(slot, out.object);
                    cohort.push(out.object);
                }
                // Churn young garbage so collections happen while the cohort lives.
                for _ in 0..512 {
                    let r = req(&mut heap, 2048, false);
                    let out = gc.alloc(&mut heap, r, &SafepointRoots::none()).unwrap();
                    for p in &out.pauses {
                        moved += p.work.moved_bytes();
                        freed_whole += p.work.freed_regions;
                    }
                }
                // Flush: the whole cohort dies at once.
                heap.roots_mut().clear_slot(slot);
            }
            (moved, freed_whole)
        };
        let (moved_plain, _) = run(false);
        let (moved_pretenured, freed_pretenured) = run(true);
        assert!(
            moved_pretenured * 2 < moved_plain,
            "pretenuring should at least halve moved bytes: {moved_pretenured} vs {moved_plain}"
        );
        assert!(freed_pretenured > 0, "cohort regions should be freed whole");
    }

    #[test]
    fn generation_spaces_are_reclaimed_when_cohorts_die() {
        let (mut heap, mut gc) = setup();
        let t = ThreadId::new(0);
        let gen = gc.new_generation(&mut heap);
        gc.set_target_gen(t, gen).unwrap();
        let slot = heap.roots_mut().create_slot("cohort");
        for _ in 0..256 {
            let r = req(&mut heap, 4096, true);
            let out = gc.alloc(&mut heap, r, &SafepointRoots::none()).unwrap();
            heap.roots_mut().push(slot, out.object);
        }
        let space = gc.space_of(gen).unwrap();
        assert!(heap.used_bytes(space).unwrap() > 0);
        heap.roots_mut().clear_slot(slot);
        gc.collect(&mut heap, &SafepointRoots::none());
        assert_eq!(
            heap.used_bytes(space).unwrap(),
            0,
            "dead cohort space must drain"
        );
        heap.check_invariants();
    }

    #[test]
    fn distinct_threads_have_distinct_targets() {
        let (mut heap, mut gc) = setup();
        let g2 = gc.new_generation(&mut heap);
        let g3 = gc.new_generation(&mut heap);
        gc.set_target_gen(ThreadId::new(1), g2).unwrap();
        gc.set_target_gen(ThreadId::new(2), g3).unwrap();
        assert_eq!(gc.target_gen(ThreadId::new(1)), g2);
        assert_eq!(gc.target_gen(ThreadId::new(2)), g3);
        assert_eq!(gc.target_gen(ThreadId::new(3)), GenId::YOUNG);
    }
}

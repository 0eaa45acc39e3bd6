//! The Recorder: allocation logging agent and record store.

use std::cell::RefCell;
use std::rc::Rc;

use polm2_heap::IdentityHash;
use polm2_runtime::{
    AllocEventBuffer, ClassDef, ClassTransformer, CodeLoc, Instr, LoadedProgram, TraceFrame,
    TraceTrie,
};

use crate::error::PipelineError;
use crate::symbols::{FrameInterner, SymbolId};

/// Identifies one unique allocation stack trace.
///
/// The paper's Recorder keeps a table of stack traces in memory and streams
/// object ids per trace (§3.2) so each trace is written once; `TraceId`
/// indexes that table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(u32);

impl TraceId {
    /// The raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Rewraps a raw index (journal replay; ids are only meaningful against
    /// the [`AllocationRecords`] that assigned them).
    pub(crate) const fn from_raw(raw: u32) -> Self {
        TraceId(raw)
    }
}

/// The Recorder's output: interned stack traces plus, per trace, the stream
/// of identity hashes of objects allocated through it.
///
/// Frames are interned into dense [`SymbolId`]s at record time, so traces are
/// stored (and compared) as small integer vectors and everything downstream
/// works on symbol ids; see [`crate::FrameInterner`].
#[derive(Debug, Default)]
pub struct AllocationRecords {
    /// Per-frame symbol table, populated at record time.
    symbols: FrameInterner,
    /// Interned traces, as frame-symbol paths (outermost first).
    traces: Vec<Vec<SymbolId>>,
    /// Trace intern map; hashed with the heap's fast id hasher — this map
    /// is hit once per recorded allocation.
    by_trace: std::collections::HashMap<Vec<SymbolId>, TraceId, polm2_heap::BuildIdHasher>,
    /// Per-trace object-id streams (identity hashes, §4.3). The Recorder
    /// deliberately does NOT index by hash: the paper's Recorder streams ids
    /// to disk precisely to avoid per-object memory overhead (§3.2).
    streams: Vec<Vec<IdentityHash>>,
    total_records: u64,
    /// Reused per record to avoid an allocation per event.
    scratch: Vec<SymbolId>,
}

impl AllocationRecords {
    /// Records one allocation.
    pub fn record(&mut self, trace: &[TraceFrame], hash: IdentityHash) {
        let id = self.trace_id_for(trace);
        self.record_traced(id, hash);
    }

    /// Interns `trace` (outermost first), assigning the next dense
    /// [`TraceId`] on first sight. Symbol and trace ids depend only on
    /// first-seen order, so anything that feeds traces in event order — the
    /// Recorder's trie-node memo or a journal replay — produces identical
    /// ids.
    pub fn trace_id_for(&mut self, trace: &[TraceFrame]) -> TraceId {
        self.scratch.clear();
        for &frame in trace {
            self.scratch.push(self.symbols.intern(frame));
        }
        match self.by_trace.get(&self.scratch) {
            Some(&id) => id,
            None => {
                let id = TraceId(self.traces.len() as u32);
                self.by_trace.insert(self.scratch.clone(), id);
                self.traces.push(self.scratch.clone());
                self.streams.push(Vec::new());
                id
            }
        }
    }

    /// Records one allocation against an already-interned trace: one stream
    /// push — the steady state of [`Recorder::ingest_nodes_checked`].
    #[inline]
    pub fn record_traced(&mut self, id: TraceId, hash: IdentityHash) {
        self.streams[id.0 as usize].push(hash);
        self.total_records += 1;
    }

    /// Number of distinct stack traces observed.
    pub fn trace_count(&self) -> usize {
        self.traces.len()
    }

    /// Total allocations recorded.
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// The compact frames of a trace (materialized from the symbol table).
    pub fn trace(&self, id: TraceId) -> Vec<TraceFrame> {
        self.traces[id.0 as usize]
            .iter()
            .map(|&s| self.symbols.resolve(s))
            .collect()
    }

    /// The frame-symbol path of a trace (the hot-path view; resolve symbols
    /// through [`symbols`](AllocationRecords::symbols)).
    pub fn trace_symbols(&self, id: TraceId) -> &[SymbolId] {
        &self.traces[id.0 as usize]
    }

    /// The frame symbol table populated at record time.
    pub fn symbols(&self) -> &FrameInterner {
        &self.symbols
    }

    /// The identity-hash stream of a trace.
    pub fn stream(&self, id: TraceId) -> &[IdentityHash] {
        &self.streams[id.0 as usize]
    }

    /// Iterates over all trace ids.
    pub fn trace_ids(&self) -> impl Iterator<Item = TraceId> {
        (0..self.traces.len() as u32).map(TraceId)
    }

    /// Resolves a trace to human-readable locations ("flushing the stack
    /// traces to disk", done once per trace at the end of profiling).
    pub fn resolve_trace(&self, id: TraceId, program: &LoadedProgram) -> Vec<CodeLoc> {
        self.traces[id.0 as usize]
            .iter()
            .map(|&s| self.symbols.code_loc(s, program))
            .collect()
    }
}

/// `node_trace` memo: node not yet seen by the Recorder.
const NODE_UNSEEN: u32 = u32::MAX;
/// `node_trace` memo: node failed validation; every event through it drops.
const NODE_CORRUPT: u32 = u32::MAX - 1;

/// The Recorder component.
///
/// Owns the [`AllocationRecords`] store and hands out the load-time agent
/// that makes the runtime report every allocation
/// ([`Recorder::agent`]).
#[derive(Debug, Default)]
pub struct Recorder {
    records: Rc<RefCell<AllocationRecords>>,
    instrumented_sites: Rc<RefCell<u64>>,
    /// Memoized `trie node → TraceId` side table for
    /// [`ingest_nodes_checked`](Recorder::ingest_nodes_checked): index is the
    /// node id (valid because the runtime never renumbers trie nodes), value
    /// is a raw [`TraceId`] or a [`NODE_UNSEEN`]/[`NODE_CORRUPT`] sentinel.
    /// Steady-state ingest cost is one memo read plus one stream push.
    node_trace: Vec<u32>,
    /// Reused trace-materialization buffer for first-seen nodes.
    path_scratch: Vec<TraceFrame>,
}

impl Recorder {
    /// Creates an idle recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// The load-time agent: inserts a logging callback after every
    /// allocation instruction, exactly as the paper's Recorder rewrites
    /// bytecode with ASM (§4.1).
    pub fn agent(&self) -> Box<dyn ClassTransformer> {
        Box::new(RecorderAgent {
            instrumented_sites: Rc::clone(&self.instrumented_sites),
        })
    }

    /// Ingests a columnar batch of `(trace node, identity hash)` pairs
    /// straight from the runtime's per-thread buffers — the Recorder's only
    /// ingest, used by clean and fault-injected sessions alike.
    ///
    /// Events that cannot be attributed to an allocation path are dropped
    /// and counted, never recorded: a node id outside `trie`, and a node
    /// whose path is empty (the root) or holds a frame that does not
    /// resolve in `program`. The first event through a valid node
    /// materializes its path and memoizes the resulting [`TraceId`]; every
    /// later event through that node is a memo read plus a stream push.
    /// Returns the number of events dropped.
    ///
    /// The memo is keyed by node id, so a `Recorder` must only ever see
    /// batches from one runtime's trie (the pipeline pairs them 1:1).
    pub fn ingest_nodes_checked(
        &mut self,
        trie: &TraceTrie,
        program: &LoadedProgram,
        batch: &AllocEventBuffer,
    ) -> u64 {
        if self.node_trace.len() < trie.len() {
            self.node_trace.resize(trie.len(), NODE_UNSEEN);
        }
        let mut records = self.records.borrow_mut();
        let mut dropped = 0;
        for (&node, &hash) in batch.nodes().iter().zip(batch.hashes()) {
            let Some(&memo) = self.node_trace.get(node.index()) else {
                dropped += 1;
                continue;
            };
            let id = match memo {
                NODE_CORRUPT => {
                    dropped += 1;
                    continue;
                }
                NODE_UNSEEN => {
                    self.path_scratch.clear();
                    trie.path_into(node, &mut self.path_scratch);
                    let corrupt = self.path_scratch.is_empty()
                        || self
                            .path_scratch
                            .iter()
                            .any(|&f| !program.frame_is_valid(f));
                    if corrupt {
                        self.node_trace[node.index()] = NODE_CORRUPT;
                        dropped += 1;
                        continue;
                    }
                    let id = records.trace_id_for(&self.path_scratch);
                    self.node_trace[node.index()] = id.raw();
                    id
                }
                raw => TraceId(raw),
            };
            records.record_traced(id, hash);
        }
        dropped
    }

    /// Number of allocation sites the agent instrumented at load time.
    pub fn instrumented_sites(&self) -> u64 {
        *self.instrumented_sites.borrow()
    }

    /// Read access to the records.
    pub fn records(&self) -> std::cell::Ref<'_, AllocationRecords> {
        self.records.borrow()
    }

    /// Extracts the records, consuming the recorder ("flush at the end of
    /// the profiling run", §3.2).
    ///
    /// # Errors
    ///
    /// [`PipelineError::RecorderBusy`] if the recorder's agent is still
    /// installed in a live runtime holding a second reference.
    pub fn into_records(self) -> Result<AllocationRecords, PipelineError> {
        Rc::try_unwrap(self.records)
            .map(RefCell::into_inner)
            .map_err(|_| PipelineError::RecorderBusy)
    }
}

struct RecorderAgent {
    instrumented_sites: Rc<RefCell<u64>>,
}

impl ClassTransformer for RecorderAgent {
    fn name(&self) -> &str {
        "polm2-recorder"
    }

    fn transform(&mut self, class: &mut ClassDef) {
        let mut count = 0;
        for method in &mut class.methods {
            instrument_block(&mut method.body, &mut count);
        }
        *self.instrumented_sites.borrow_mut() += count;
    }
}

fn instrument_block(block: &mut Vec<Instr>, count: &mut u64) {
    let mut out = Vec::with_capacity(block.len());
    for mut instr in block.drain(..) {
        match &mut instr {
            Instr::Branch {
                then_block,
                else_block,
                ..
            } => {
                instrument_block(then_block, count);
                instrument_block(else_block, count);
                out.push(instr);
            }
            Instr::Repeat { body, .. } => {
                instrument_block(body, count);
                out.push(instr);
            }
            Instr::Alloc { line, .. } => {
                let line = *line;
                *count += 1;
                out.push(instr);
                out.push(Instr::RecordAlloc { line });
            }
            _ => out.push(instr),
        }
    }
    *block = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use polm2_heap::ObjectId;
    use polm2_runtime::{MethodDef, Program, SizeSpec, TraceNodeId};

    fn frame(line: u32) -> TraceFrame {
        TraceFrame {
            class_idx: 0,
            method_idx: 0,
            line,
        }
    }

    #[test]
    fn records_intern_traces_and_stream_hashes() {
        let mut r = AllocationRecords::default();
        let t1 = vec![frame(1), frame(5)];
        let t2 = vec![frame(2), frame(5)];
        r.record(&t1, IdentityHash::of(ObjectId::new(1)));
        r.record(&t1, IdentityHash::of(ObjectId::new(2)));
        r.record(&t2, IdentityHash::of(ObjectId::new(3)));
        assert_eq!(r.trace_count(), 2);
        assert_eq!(r.total_records(), 3);
        let id = r.trace_ids().next().unwrap();
        assert_eq!(r.trace(id), &t1[..]);
        assert_eq!(r.stream(id).len(), 2);
    }

    #[test]
    fn duplicate_hashes_are_tolerated() {
        // Identity-hash collisions are possible, as in the JVM; recording
        // just streams both.
        let mut r = AllocationRecords::default();
        let h = IdentityHash::of(ObjectId::new(1));
        r.record(&[frame(1)], h);
        r.record(&[frame(2)], h);
        assert_eq!(r.total_records(), 2);
        assert_eq!(r.trace_count(), 2);
    }

    #[test]
    fn agent_inserts_record_after_every_alloc_including_nested() {
        let mut program = Program::new();
        program.add_class(
            ClassDef::new("A").with_method(
                MethodDef::new("m")
                    .push(Instr::alloc("X", SizeSpec::Fixed(8), 1))
                    .push(Instr::Branch {
                        cond: "c".into(),
                        then_block: vec![Instr::alloc("Y", SizeSpec::Fixed(8), 3)],
                        else_block: vec![],
                        line: 2,
                    }),
            ),
        );
        let recorder = Recorder::new();
        let mut agent = recorder.agent();
        agent.transform(&mut program.classes_mut()[0]);
        assert_eq!(recorder.instrumented_sites(), 2);
        let body = &program.class("A").unwrap().method("m").unwrap().body;
        assert!(matches!(body[1], Instr::RecordAlloc { line: 1 }));
        if let Instr::Branch { then_block, .. } = &body[2] {
            assert!(matches!(then_block[1], Instr::RecordAlloc { line: 3 }));
        } else {
            panic!("branch preserved");
        }
    }

    #[test]
    fn into_records_reports_busy_instead_of_panicking() {
        let recorder = Recorder::new();
        let second_ref = Rc::clone(&recorder.records);
        assert!(matches!(
            recorder.into_records(),
            Err(PipelineError::RecorderBusy)
        ));
        drop(second_ref);
    }

    fn one_method_program() -> LoadedProgram {
        use polm2_heap::{Heap, HeapConfig};
        use polm2_runtime::Loader;
        let mut program = Program::new();
        program.add_class(
            ClassDef::new("A").with_method(MethodDef::new("m").push(Instr::alloc(
                "X",
                SizeSpec::Fixed(8),
                1,
            ))),
        );
        let mut heap = Heap::new(HeapConfig::small());
        Loader::load(program, &mut [], &mut heap).unwrap()
    }

    fn batch(events: &[(TraceNodeId, u64)]) -> AllocEventBuffer {
        let mut buf = AllocEventBuffer::new();
        for &(node, i) in events {
            buf.push(node, IdentityHash::of(ObjectId::new(i)));
        }
        buf
    }

    #[test]
    fn into_records_round_trips() {
        let program = one_method_program();
        let mut trie = TraceTrie::new();
        let node = trie.child(TraceNodeId::ROOT, frame(1));
        let mut recorder = Recorder::new();
        assert_eq!(
            recorder.ingest_nodes_checked(&trie, &program, &batch(&[(node, 7)])),
            0
        );
        let records = recorder.into_records().unwrap();
        assert_eq!(records.total_records(), 1);
        assert_eq!(records.trace_count(), 1);
    }

    #[test]
    fn node_ingest_drops_root_unknown_and_unresolvable_nodes_without_poisoning_the_memo() {
        let program = one_method_program();
        let mut trie = TraceTrie::new();
        let valid = trie.child(TraceNodeId::ROOT, frame(1));
        let bad_class = trie.child(
            TraceNodeId::ROOT,
            TraceFrame {
                class_idx: u16::MAX,
                method_idx: 0,
                line: 1,
            },
        );
        let bad_method = trie.child(
            valid,
            TraceFrame {
                class_idx: 0,
                method_idx: u16::MAX,
                line: 1,
            },
        );
        // The next node the trie will assign, and the far end of the range.
        let not_yet = TraceNodeId::from_raw(trie.len() as u32);
        let far = TraceNodeId::from_raw(u32::MAX);

        let mut recorder = Recorder::new();
        let dropped = recorder.ingest_nodes_checked(
            &trie,
            &program,
            &batch(&[
                (valid, 1),
                (TraceNodeId::ROOT, 2),
                (not_yet, 3),
                (bad_class, 4),
                (far, 5),
                (valid, 6),
                (bad_method, 7),
            ]),
        );
        assert_eq!(dropped, 5, "root, two unknown ids, two unresolvable paths");
        assert_eq!(recorder.records().total_records(), 2);

        // The trie grows past the id that was unknown a batch ago; it now
        // names a real node and records like any other, while the memoized
        // verdicts for earlier nodes still hold.
        let grown = trie.child(valid, frame(2));
        assert_eq!(grown, not_yet);
        let dropped = recorder.ingest_nodes_checked(
            &trie,
            &program,
            &batch(&[
                (grown, 8),
                (TraceNodeId::ROOT, 9),
                (valid, 10),
                (bad_class, 11),
                (far, 12),
            ]),
        );
        assert_eq!(dropped, 3);
        let records = recorder.into_records().unwrap();
        assert_eq!(records.total_records(), 4);
        let ids: Vec<TraceId> = records.trace_ids().collect();
        assert_eq!(records.trace(ids[0]), vec![frame(1)]);
        assert_eq!(records.trace(ids[1]), vec![frame(1), frame(2)]);
        let hashes = |is: &[u64]| -> Vec<IdentityHash> {
            is.iter()
                .map(|&i| IdentityHash::of(ObjectId::new(i)))
                .collect()
        };
        assert_eq!(records.stream(ids[0]), &hashes(&[1, 6, 10])[..]);
        assert_eq!(records.stream(ids[1]), &hashes(&[8])[..]);
    }
}

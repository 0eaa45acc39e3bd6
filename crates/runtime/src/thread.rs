//! Mutator threads and call frames.

use polm2_gc::ThreadId;
use polm2_heap::{GenId, ObjectId, SiteId};

use crate::events::{AllocEventBuffer, TraceFrame};
use crate::trie::TraceNodeId;

/// One call frame.
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    /// Class index in the loaded program.
    pub(crate) class_idx: u16,
    /// Method index within the class.
    pub(crate) method_idx: u16,
    /// The line currently executing (call line, alloc line, ...).
    pub(crate) line: u32,
    /// The frame accumulator: most recent allocation or callee result.
    pub(crate) acc: Option<ObjectId>,
    /// Objects this frame holds references to (its locals); GC roots while
    /// the frame is on the stack.
    pub(crate) roots: Vec<ObjectId>,
    /// The site of the most recent allocation in this frame (for
    /// `RecordAlloc`).
    pub(crate) last_site: Option<SiteId>,
    /// Target generations saved by `SetGen`, restored by `RestoreGen` or at
    /// frame pop.
    pub(crate) saved_gens: Vec<GenId>,
}

impl Frame {
    pub(crate) fn new(class_idx: u16, method_idx: u16) -> Self {
        Frame {
            class_idx,
            method_idx,
            line: 0,
            acc: None,
            roots: Vec::new(),
            last_site: None,
            saved_gens: Vec::new(),
        }
    }

    /// The frame as the Recorder sees it right now.
    pub(crate) fn as_trace_frame(&self) -> TraceFrame {
        TraceFrame {
            class_idx: self.class_idx,
            method_idx: self.method_idx,
            line: self.line,
        }
    }
}

/// One mutator thread: an id and a call stack.
///
/// Threads are scheduled cooperatively by the driver — one
/// [`Jvm::invoke`](crate::Jvm::invoke) at a time — which keeps the simulation
/// deterministic. Frame roots model Java locals: every object a frame
/// allocates or receives stays reachable until the frame pops.
#[derive(Debug)]
pub struct MutatorThread {
    id: ThreadId,
    pub(crate) frames: Vec<Frame>,
    /// Trie node encoding the frames *below* the topmost one, each frozen at
    /// its call line; maintained on frame push/pop by the interpreter (see
    /// [`crate::TraceTrie`]).
    pub(crate) context_node: TraceNodeId,
    /// Buffered allocation events, trie form.
    pub(crate) events: AllocEventBuffer,
    /// Scratch for [`stack_roots`](MutatorThread::stack_roots), reused
    /// across GC safepoints.
    roots_scratch: Vec<ObjectId>,
    /// Root count of the previous safepoint; pre-sizes the next collection.
    last_root_count: usize,
}

impl MutatorThread {
    pub(crate) fn new(id: ThreadId) -> Self {
        MutatorThread {
            id,
            frames: Vec::new(),
            context_node: TraceNodeId::ROOT,
            events: AllocEventBuffer::new(),
            roots_scratch: Vec::new(),
            last_root_count: 0,
        }
    }

    /// The thread id.
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// Current call depth.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// All objects rooted by this thread's stack (locals + accumulators).
    ///
    /// The returned slice borrows a per-thread scratch buffer that is reused
    /// (and pre-sized from the previous safepoint's root count) instead of
    /// allocating a fresh `Vec` at every GC safepoint.
    pub fn stack_roots(&mut self) -> &[ObjectId] {
        let mut scratch = std::mem::take(&mut self.roots_scratch);
        scratch.clear();
        scratch.reserve(self.last_root_count);
        self.stack_roots_into(&mut scratch);
        self.last_root_count = scratch.len();
        self.roots_scratch = scratch;
        &self.roots_scratch
    }

    /// Appends this thread's stack roots to `out` (shared safepoint-root
    /// collection; the buffer is the caller's to reuse).
    pub fn stack_roots_into(&self, out: &mut Vec<ObjectId>) {
        for f in &self.frames {
            out.extend_from_slice(&f.roots);
            out.extend(f.acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_roots_include_locals_and_acc() {
        let mut t = MutatorThread::new(ThreadId::new(1));
        let mut f = Frame::new(0, 0);
        f.roots.push(ObjectId::new(10));
        f.acc = Some(ObjectId::new(20));
        t.frames.push(f);
        let roots = t.stack_roots();
        assert!(roots.contains(&ObjectId::new(10)));
        assert!(roots.contains(&ObjectId::new(20)));
    }

    #[test]
    fn stack_roots_reuses_its_scratch_buffer() {
        let mut t = MutatorThread::new(ThreadId::new(1));
        let mut f = Frame::new(0, 0);
        f.roots.extend((0..64).map(ObjectId::new));
        t.frames.push(f);
        assert_eq!(t.stack_roots().len(), 64);
        let cap = t.roots_scratch.capacity();
        let ptr = t.stack_roots().as_ptr();
        assert_eq!(t.stack_roots().len(), 64);
        assert_eq!(t.roots_scratch.capacity(), cap, "no reallocation");
        assert_eq!(t.stack_roots().as_ptr(), ptr, "same storage reused");
    }
}

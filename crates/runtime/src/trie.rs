//! The incremental trace trie: O(1) allocation-context tracking.
//!
//! The seed Recorder paid O(depth) per allocation: every `RecordAlloc`
//! walked the thread's frame stack and heap-allocated a fresh
//! `Vec<TraceFrame>`. ROLP's observation (carried over here) is that the
//! allocation context only changes at *call* and *return*, so it can be
//! maintained incrementally: the runtime keeps one shared trie of call
//! edges, each thread carries the id of the trie node encoding its current
//! caller path, and recording an allocation reduces to a single child-edge
//! lookup — no stack walk, no per-event allocation.
//!
//! Structure: node 0 is the root (the empty path). Every other node is
//! reached from its parent over an edge labelled with one [`TraceFrame`];
//! the path of frames from the root to a node *is* the stack trace the node
//! stands for, outermost frame first. A thread's *context node* encodes the
//! frames **below** its topmost frame (each frozen at the line of the call
//! it made); the topmost frame's line still moves per instruction, so
//! `RecordAlloc` appends it with one [`child`](TraceTrie::child) lookup at
//! the allocation line.
//!
//! Invariants (relied on by the Recorder's node → trace memo, see
//! DESIGN.md §12):
//!
//! * Node ids are dense, allocated in first-visit order, and **stable for
//!   the lifetime of the trie** — nodes are never removed or renumbered, so
//!   ids remain valid across event drains.
//! * The trie stores only program locations (class/method indices and
//!   lines), never object references — GC safepoints, relocation, and
//!   collection cycles cannot invalidate it.

use polm2_heap::IdHashMap;

use crate::events::TraceFrame;

/// Identifies one node of a [`TraceTrie`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceNodeId(u32);

impl TraceNodeId {
    /// The root node: the empty call path.
    pub const ROOT: TraceNodeId = TraceNodeId(0);

    /// Rewraps a raw index. Ids are only meaningful against the trie that
    /// assigned them; one at or past [`TraceTrie::len`] names no node.
    pub const fn from_raw(raw: u32) -> Self {
        TraceNodeId(raw)
    }

    /// The raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The raw index widened for table addressing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// True for the root (empty-path) node.
    pub const fn is_root(self) -> bool {
        self.0 == 0
    }
}

/// A frame packed into one integer (16 bits class, 16 bits method, 32 bits
/// line) — lossless, so key equality is frame equality.
const fn pack(frame: TraceFrame) -> u64 {
    (frame.class_idx as u64) << 48 | (frame.method_idx as u64) << 32 | frame.line as u64
}

/// The shared trie of call edges.
///
/// Columnar node storage (`parents`/`frames`/`depths` indexed by
/// [`TraceNodeId`]) plus one edge map keyed by `(parent, packed frame)`.
/// [`child`](TraceTrie::child) is the only mutating operation; everything
/// else is an array index.
#[derive(Debug)]
pub struct TraceTrie {
    /// Parent of each node; the root is its own parent.
    parents: Vec<TraceNodeId>,
    /// The frame labelling the edge from `parents[n]` to `n`. Entry 0 is a
    /// sentinel (the root has no incoming edge).
    frames: Vec<TraceFrame>,
    /// Path length from the root (root = 0).
    depths: Vec<u32>,
    /// `(parent, packed frame) → child`; hit once per call and once per
    /// allocation, so it uses the heap's fast id hasher.
    children: IdHashMap<(u32, u64), TraceNodeId>,
}

impl TraceTrie {
    /// Creates a trie holding only the root.
    pub fn new() -> Self {
        TraceTrie {
            parents: vec![TraceNodeId::ROOT],
            frames: vec![TraceFrame {
                class_idx: 0,
                method_idx: 0,
                line: 0,
            }],
            depths: vec![0],
            children: IdHashMap::default(),
        }
    }

    /// The child of `parent` over `frame`, creating it on first visit.
    ///
    /// This is the per-call (and per-allocation) hot operation: one hash
    /// probe in steady state.
    pub fn child(&mut self, parent: TraceNodeId, frame: TraceFrame) -> TraceNodeId {
        let key = (parent.raw(), pack(frame));
        if let Some(&node) = self.children.get(&key) {
            return node;
        }
        let node = TraceNodeId(self.parents.len() as u32);
        self.parents.push(parent);
        self.frames.push(frame);
        self.depths.push(self.depths[parent.index()] + 1);
        self.children.insert(key, node);
        node
    }

    /// The parent of `node` (the root's parent is the root).
    pub fn parent(&self, node: TraceNodeId) -> TraceNodeId {
        self.parents[node.index()]
    }

    /// The frame labelling the edge into `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is the root, which has no incoming edge.
    pub fn frame(&self, node: TraceNodeId) -> TraceFrame {
        assert!(!node.is_root(), "the root node has no frame");
        self.frames[node.index()]
    }

    /// Path length from the root to `node`.
    pub fn depth(&self, node: TraceNodeId) -> u32 {
        self.depths[node.index()]
    }

    /// Number of nodes, including the root.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// True if the trie holds only the root.
    pub fn is_empty(&self) -> bool {
        self.parents.len() == 1
    }

    /// Materializes the stack trace `node` stands for, outermost frame
    /// first (the root materializes to an empty trace).
    pub fn path(&self, node: TraceNodeId) -> Vec<TraceFrame> {
        let mut out = Vec::with_capacity(self.depth(node) as usize);
        self.path_into(node, &mut out);
        out
    }

    /// Appends the trace of `node` to `out`, outermost frame first.
    pub fn path_into(&self, node: TraceNodeId, out: &mut Vec<TraceFrame>) {
        let start = out.len();
        let mut cur = node;
        while !cur.is_root() {
            out.push(self.frames[cur.index()]);
            cur = self.parents[cur.index()];
        }
        out[start..].reverse();
    }
}

impl Default for TraceTrie {
    fn default() -> Self {
        TraceTrie::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(class_idx: u16, method_idx: u16, line: u32) -> TraceFrame {
        TraceFrame {
            class_idx,
            method_idx,
            line,
        }
    }

    #[test]
    fn children_are_interned_and_stable() {
        let mut trie = TraceTrie::new();
        let a = trie.child(TraceNodeId::ROOT, frame(0, 0, 1));
        let b = trie.child(a, frame(0, 1, 2));
        let a2 = trie.child(TraceNodeId::ROOT, frame(0, 0, 1));
        assert_eq!(a, a2, "same edge, same node");
        assert_ne!(a, b);
        assert_eq!(trie.len(), 3);
        assert_eq!(trie.parent(b), a);
        assert_eq!(trie.parent(a), TraceNodeId::ROOT);
        assert_eq!(trie.depth(b), 2);
    }

    #[test]
    fn sibling_edges_differ_by_any_frame_field() {
        let mut trie = TraceTrie::new();
        let nodes = [
            trie.child(TraceNodeId::ROOT, frame(1, 0, 7)),
            trie.child(TraceNodeId::ROOT, frame(0, 1, 7)),
            trie.child(TraceNodeId::ROOT, frame(0, 0, 7)),
            trie.child(TraceNodeId::ROOT, frame(0, 0, 8)),
        ];
        let distinct: std::collections::HashSet<_> = nodes.iter().collect();
        assert_eq!(distinct.len(), nodes.len());
    }

    #[test]
    fn path_materializes_outermost_first() {
        let mut trie = TraceTrie::new();
        let a = trie.child(TraceNodeId::ROOT, frame(0, 0, 10));
        let b = trie.child(a, frame(0, 2, 5));
        assert_eq!(trie.path(b), vec![frame(0, 0, 10), frame(0, 2, 5)]);
        assert_eq!(trie.path(TraceNodeId::ROOT), Vec::<TraceFrame>::new());

        let mut out = vec![frame(9, 9, 9)];
        trie.path_into(b, &mut out);
        assert_eq!(out, vec![frame(9, 9, 9), frame(0, 0, 10), frame(0, 2, 5)]);
    }

    #[test]
    fn root_parent_is_root() {
        let trie = TraceTrie::new();
        assert_eq!(trie.parent(TraceNodeId::ROOT), TraceNodeId::ROOT);
        assert!(trie.is_empty());
        assert_eq!(trie.depth(TraceNodeId::ROOT), 0);
    }
}

//! Batched evacuation: the decision type and the planned-move entry.
//!
//! [`Heap::evacuate_batch`] runs serially in three phases. The *planning*
//! phase walks the ops in order, takes dead records, bump-allocates every
//! destination address, and updates region lists and live-byte accounting
//! — everything whose outcome depends on order. The *copy* phase (a no-op
//! on the simulated backend) memcpys the planned payloads through
//! [`HeapBackend::copy_object`] and is timed on its own, so bandwidth
//! figures measure the copy rather than the whole collection. The *fix-up*
//! phase rewrites each moved record's address and age and adjusts page
//! occupancy and dirty/no-need bits. Copying bytes never alters logical
//! state, so the batch leaves the heap exactly as the equivalent sequence
//! of `relocate`/`drop_object` calls would.
//!
//! [`Heap::evacuate_batch`]: crate::Heap::evacuate_batch
//! [`HeapBackend::copy_object`]: crate::HeapBackend::copy_object

use crate::{Addr, SpaceId};

/// What a collector decided to do with one object during an evacuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvacDecision {
    /// The object is dead: take its record and free its pages.
    Drop,
    /// The object survives: copy it into `dest`.
    Move {
        /// Destination space (same space for survivor copying, an older
        /// space for promotion or compaction).
        dest: SpaceId,
        /// Bump the object's young-generation age as part of the move
        /// (survivor copying and promotion do; compaction does not).
        bump_age: bool,
    },
}

/// A planned move: what the copy and fix-up phases need once planning has
/// fixed the destination.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MoveEntry {
    /// Record slot of the moved object.
    pub slot: u32,
    pub dest: SpaceId,
    /// Address the object is copied from (the payload source).
    pub old_addr: Addr,
    pub new_addr: Addr,
    pub size: u32,
    pub bump_age: bool,
}

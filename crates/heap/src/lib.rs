//! Simulated managed heap for the POLM2 reproduction.
//!
//! The paper instruments the HotSpot JVM heap; Rust has no moving,
//! generational runtime to instrument, so this crate provides the substitute:
//! a page/region-structured heap holding explicit objects with headers
//! (class, allocation site, identity hash, age), reference edges, and a root
//! table. Reachability is defined by graph traversal from roots, exactly the
//! property both the collectors ([`polm2-gc`]) and the POLM2 Analyzer
//! measure.
//!
//! Layout model:
//!
//! * The heap owns a fixed pool of **regions** (default 1 MiB), each a run of
//!   **pages** (default 4 KiB). Pages carry the kernel-style *dirty* and
//!   *no-need* bits that the CRIU-like Dumper consumes.
//! * **Spaces** are generations: space 0 is the young generation; collectors
//!   create older spaces on demand (G1 uses one, NG2C arbitrarily many).
//!   Each space bump-allocates into regions acquired from the shared pool.
//! * **Objects** live in a slab table; an object knows its address (region +
//!   offset), so relocation (promotion/compaction) is an address update plus
//!   page-accounting, as in a real copying collector.
//!
//! [`polm2-gc`]: ../polm2_gc/index.html
//!
//! # Examples
//!
//! ```
//! use polm2_heap::{Heap, HeapConfig};
//!
//! let mut heap = Heap::new(HeapConfig::small());
//! let class = heap.classes_mut().intern("Example");
//! let site = polm2_heap::SiteId::new(0);
//! let young = Heap::YOUNG_SPACE;
//! let parent = heap.allocate(class, 64, site, young)?;
//! let child = heap.allocate(class, 32, site, young)?;
//! heap.add_ref(parent, child)?;
//! let root = heap.roots_mut().create_slot("static-table");
//! heap.roots_mut().push(root, parent);
//! let live = heap.mark_live(&[]);
//! assert!(live.contains(child));
//! # Ok::<(), polm2_heap::HeapError>(())
//! ```

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
#![deny(unsafe_op_in_unsafe_fn)]

mod backend;
mod bump;
mod class;
mod config;
mod error;
mod evac;
mod fasthash;
mod free_list;
mod heap;
mod ids;
mod mark;
mod object;
mod radix;
mod region;
mod roots;
mod space;
mod stats;
mod tlab;

pub use backend::{
    BackendKind, BackendStats, HeapBackend, RealBackend, SimBackend, OBJECT_HEADER_BYTES,
};
pub use bump::{BumpArena, BumpBlock};
pub use class::{ClassInfo, ClassRegistry};
pub use config::{HeapConfig, VerifyMode};
pub use error::HeapError;
pub use evac::EvacDecision;
pub use fasthash::{BuildIdHasher, IdHashMap, IdHashSet, IdHasher};
pub use free_list::{FreeBlock, FreeList};
pub use heap::{CorruptionKind, Heap, LiveSet, ParallelTuning, PlantedCorruption};
pub use ids::{ClassId, GenId, IdentityHash, ObjectId, PageId, RegionId, SiteId, SpaceId};
pub use object::ObjectRecord;
pub use region::{Addr, PageFlags, PageTable, Region};
pub use roots::{RootSlotId, RootTable};
pub use space::Space;
pub use stats::HeapStats;
pub use tlab::TlabWindow;

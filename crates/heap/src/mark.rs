//! The sharded mark: scoped worker threads tracing the object graph behind
//! a safepoint, bit-identical to the serial tracer at any worker count.
//!
//! Discipline:
//!
//! * **Claim at discovery.** A worker owns an object iff it wins the atomic
//!   swap of the record's claim stamp to the current epoch — one `AtomicU32`
//!   RMW per record, the CAS the slab table + epoch bits were built for.
//!   The winner reads the record once: it accounts the object (membership
//!   bit, bytes, region bytes, live pages) into its private buffers and
//!   queues its *slot* for ref expansion only if it has outgoing refs;
//!   losers skip. Claims make every accounting effect exactly-once, so the
//!   merged result is independent of which worker got there first.
//! * **Per-worker overflow + stealing.** Each worker drains a private stack;
//!   when it grows past a threshold the worker donates half to a shared
//!   overflow queue, and idle workers steal batches from it. Termination:
//!   queue and active-count live under one mutex, so "queue empty and no
//!   worker active" is checked atomically — no missed-wakeup race.
//! * **Deterministic merge.** Private bitmaps OR together, byte counters
//!   add, and the published [`LiveSet::order`] is re-derived from the merged
//!   bitmap in ascending-id order — sort-free and schedule-independent.
//!
//! [`LiveSet::order`]: crate::LiveSet

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use crate::heap::{bit_set, DEAD_SLOT};
use crate::{Heap, ObjectId, ObjectRecord, PageTable};

/// Donate half the private stack once it grows past this many entries.
const DONATE_THRESHOLD: usize = 512;
/// Re-check the donation condition every this many processed nodes.
const DONATE_CHECK_EVERY: usize = 64;
/// Keep the shared overflow queue below this many entries.
const QUEUE_CAP: usize = 8192;
/// Steal at most this many slots per visit to the shared queue.
const STEAL_BATCH: usize = 256;

/// Immutable inputs shared by every mark worker.
pub(crate) struct MarkShards<'a> {
    pub workers: usize,
    pub epoch: u32,
    pub slots: &'a [u32],
    pub records: &'a [Option<ObjectRecord>],
    /// Per-slot claim stamps; a slot whose stamp already equals `epoch` is
    /// claimed. Stale values are from past epochs and can never collide.
    pub stamps: &'a [AtomicU32],
    pub page_table: &'a PageTable,
    pub young_only: bool,
}

/// One worker's private accounting, merged serially after the join.
struct WorkerState {
    bits: Vec<u64>,
    region_live: Vec<u32>,
    live_pages: Option<Vec<u64>>,
    live_bytes: u64,
    /// Slots of claimed objects with refs, awaiting expansion.
    local: Vec<u32>,
}

/// Shared overflow queue plus the count of workers still holding work; both
/// under one lock so termination ("empty and nobody active") is atomic.
struct SharedQueue {
    queue: Vec<u32>,
    active: usize,
}

impl MarkShards<'_> {
    /// Attempts to claim `id` for this epoch. Returns the record's slot and
    /// the record iff this caller won the claim *and* the object is in scope
    /// (young-only marks discard non-young objects after claiming —
    /// harmless, since stamps are scratch and the object is simply never
    /// accounted).
    fn try_claim(&self, id: ObjectId) -> Option<(u32, &ObjectRecord)> {
        let slot = self.slots.get(id.index()).copied()?;
        if slot == DEAD_SLOT {
            return None;
        }
        if self.stamps[slot as usize].swap(self.epoch, Ordering::Relaxed) == self.epoch {
            return None;
        }
        let rec = self.records[slot as usize]
            .as_ref()
            .expect("live slot has a record");
        if self.young_only && rec.space() != Heap::YOUNG_SPACE {
            return None;
        }
        Some((slot, rec))
    }
}

/// Accounts a freshly claimed object into the worker's private buffers and
/// queues its slot if it has refs to expand.
fn account(
    shards: &MarkShards<'_>,
    state: &mut WorkerState,
    id: ObjectId,
    slot: u32,
    rec: &ObjectRecord,
) {
    bit_set(&mut state.bits, id.index());
    state.live_bytes += u64::from(rec.size());
    state.region_live[rec.addr().region.index()] += rec.size();
    if let Some(pages) = state.live_pages.as_deref_mut() {
        let (first, last) = shards.page_table.pages_of(rec.addr(), rec.size());
        for p in first..=last {
            bit_set(pages, p as usize);
        }
    }
    if !rec.refs().is_empty() {
        state.local.push(slot);
    }
}

fn worker_loop(
    shards: &MarkShards<'_>,
    shared: &Mutex<SharedQueue>,
    mut state: WorkerState,
) -> WorkerState {
    let mut since_check = 0usize;
    loop {
        while let Some(slot) = state.local.pop() {
            let rec = shards.records[slot as usize]
                .as_ref()
                .expect("claimed record");
            for &child in rec.refs() {
                if let Some((cslot, crec)) = shards.try_claim(child) {
                    account(shards, &mut state, child, cslot, crec);
                }
            }
            since_check += 1;
            if since_check >= DONATE_CHECK_EVERY {
                since_check = 0;
                if state.local.len() >= DONATE_THRESHOLD {
                    let mut sq = shared.lock().expect("mark queue poisoned");
                    if sq.queue.len() < QUEUE_CAP {
                        let keep = state.local.len() / 2;
                        sq.queue.extend(state.local.drain(keep..));
                    }
                }
            }
        }
        // Local stack dry: steal or retire. `active` counts workers that may
        // still produce donations; the last one out confirms the queue is
        // empty under the same lock, so no work can be stranded.
        let mut sq = shared.lock().expect("mark queue poisoned");
        if !sq.queue.is_empty() {
            let n = sq.queue.len().saturating_sub(STEAL_BATCH);
            state.local.extend(sq.queue.drain(n..));
            continue;
        }
        sq.active -= 1;
        if sq.active == 0 {
            return state;
        }
        drop(sq);
        loop {
            std::thread::yield_now();
            let mut sq = shared.lock().expect("mark queue poisoned");
            if !sq.queue.is_empty() {
                sq.active += 1;
                let n = sq.queue.len().saturating_sub(STEAL_BATCH);
                state.local.extend(sq.queue.drain(n..));
                break;
            }
            if sq.active == 0 {
                return state;
            }
        }
    }
}

/// Runs a sharded mark from `roots` and merges per-worker results into the
/// caller's buffers (`bits`, `region_live`, and optionally `live_pages`,
/// all pre-zeroed). Returns the total live bytes.
///
/// The caller rebuilds the canonical order from the merged `bits`.
pub(crate) fn parallel_mark(
    shards: &MarkShards<'_>,
    roots: &[ObjectId],
    bits: &mut [u64],
    region_live: &mut [u32],
    mut live_pages: Option<&mut [u64]>,
) -> u64 {
    let workers = shards.workers.max(1);
    let want_pages = live_pages.is_some();
    let page_words = live_pages.as_deref().map(|p| p.len()).unwrap_or_default();
    let bit_words = bits.len();
    let region_count = region_live.len();
    let shared = Mutex::new(SharedQueue {
        queue: Vec::new(),
        active: workers,
    });
    let states = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let shared = &shared;
                s.spawn(move || {
                    let mut state = WorkerState {
                        bits: vec![0u64; bit_words],
                        region_live: vec![0u32; region_count],
                        live_pages: want_pages.then(|| vec![0u64; page_words]),
                        live_bytes: 0,
                        local: Vec::new(),
                    };
                    // Round-robin root partition; claims dedupe overlaps.
                    for id in roots.iter().skip(w).step_by(workers).copied() {
                        if let Some((slot, rec)) = shards.try_claim(id) {
                            account(shards, &mut state, id, slot, rec);
                        }
                    }
                    worker_loop(shards, shared, state)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mark worker panicked"))
            .collect::<Vec<_>>()
    });

    let mut live_bytes = 0u64;
    for state in states {
        for (dst, src) in bits.iter_mut().zip(state.bits.iter()) {
            *dst |= src;
        }
        for (dst, src) in region_live.iter_mut().zip(state.region_live.iter()) {
            *dst += src;
        }
        if let (Some(dst), Some(src)) = (live_pages.as_deref_mut(), state.live_pages.as_deref()) {
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d |= s;
            }
        }
        live_bytes += state.live_bytes;
    }
    live_bytes
}

//! Regions, addresses, and the kernel-style page table.

use crate::{ObjectId, PageId, RegionId, SpaceId};

/// The address of an object: a region and a byte offset inside it.
///
/// Relocation (promotion, compaction) rewrites an object's `Addr`; the
/// [`ObjectId`] stays stable, like the identity hash in a JVM header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Addr {
    /// Region containing the object.
    pub region: RegionId,
    /// Byte offset of the object's first byte within the region.
    pub offset: u32,
}

/// One fixed-size region of the heap pool.
///
/// A region is either free or assigned to exactly one space (generation).
/// Allocation bumps `cursor`; the GC maintains `live_bytes` during marking so
/// compaction policies and the Dumper's no-need walk can reason about
/// occupancy without re-tracing.
#[derive(Debug, Clone)]
pub struct Region {
    id: RegionId,
    first_page: PageId,
    /// Owning space, or `None` while in the free pool.
    space: Option<SpaceId>,
    /// Bump-allocation cursor (bytes used from the start of the region).
    cursor: u32,
    /// Bytes of live objects, as of the most recent mark.
    live_bytes: u32,
    /// Objects allocated into this region. Dead entries are purged when the
    /// owning collector sweeps.
    objects: Vec<ObjectId>,
}

impl Region {
    pub(crate) fn new(id: RegionId, first_page: PageId) -> Self {
        Region {
            id,
            first_page,
            space: None,
            cursor: 0,
            live_bytes: 0,
            objects: Vec::new(),
        }
    }

    /// This region's id.
    pub fn id(&self) -> RegionId {
        self.id
    }

    /// The global id of the region's first page.
    pub fn first_page(&self) -> PageId {
        self.first_page
    }

    /// The owning space, or `None` if the region is in the free pool.
    pub fn space(&self) -> Option<SpaceId> {
        self.space
    }

    /// Bytes consumed by the bump allocator.
    pub fn used_bytes(&self) -> u32 {
        self.cursor
    }

    /// Bytes of live objects as of the last mark.
    pub fn live_bytes(&self) -> u32 {
        self.live_bytes
    }

    /// Objects allocated into this region (may include dead ids between a
    /// mark and the owning collector's sweep).
    pub fn objects(&self) -> &[ObjectId] {
        &self.objects
    }

    /// Live fraction relative to allocated bytes (0.0 for an empty region).
    pub fn live_fraction(&self) -> f64 {
        if self.cursor == 0 {
            0.0
        } else {
            self.live_bytes as f64 / self.cursor as f64
        }
    }

    pub(crate) fn assign(&mut self, space: SpaceId) {
        debug_assert!(self.space.is_none(), "region already assigned");
        self.space = Some(space);
        self.cursor = 0;
        self.live_bytes = 0;
        self.objects.clear();
    }

    pub(crate) fn release(&mut self) {
        self.space = None;
        self.cursor = 0;
        self.live_bytes = 0;
        self.objects.clear();
    }

    /// Attempts to bump-allocate `size` bytes; returns the offset on success.
    pub(crate) fn try_bump(&mut self, size: u32, capacity: u32) -> Option<u32> {
        if self.cursor.checked_add(size)? <= capacity {
            let offset = self.cursor;
            self.cursor += size;
            Some(offset)
        } else {
            None
        }
    }

    pub(crate) fn push_object(&mut self, obj: ObjectId) {
        self.objects.push(obj);
    }

    pub(crate) fn set_live_bytes(&mut self, bytes: u32) {
        self.live_bytes = bytes;
    }

    pub(crate) fn retain_objects(&mut self, mut keep: impl FnMut(ObjectId) -> bool) {
        self.objects.retain(|&o| keep(o));
    }
}

/// Per-page flags mirroring the two kernel bits CRIU relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageFlags {
    /// Set when the page is written; cleared by the Dumper after each
    /// snapshot (the kernel soft-dirty bit).
    pub dirty: bool,
    /// Set by the Recorder's pre-snapshot heap walk (`madvise`) for pages
    /// containing no live object; the Dumper skips such pages.
    pub no_need: bool,
}

/// The simulated kernel page table: dirty and no-need bits for every heap
/// page.
///
/// # Examples
///
/// ```
/// use polm2_heap::{Addr, PageTable, RegionId};
///
/// let mut pt = PageTable::new(64, 16, 4096);
/// let addr = Addr { region: RegionId::new(1), offset: 5000 };
/// pt.mark_dirty_range(addr, 8192);
/// // offset 5000..13192 touches pages 1..=3 of region 1 => global 17..=19.
/// assert!(pt.flags_of(17).dirty);
/// assert!(pt.flags_of(19).dirty);
/// assert!(!pt.flags_of(16).dirty);
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    /// Bit-packed dirty flags, one bit per page, 32 pages per word.
    dirty: Vec<u32>,
    /// Bit-packed no-need flags, same layout as `dirty`.
    no_need: Vec<u32>,
    page_count: u32,
    pages_per_region: u32,
    page_bytes: u32,
}

fn bit_words(page_count: u32) -> Vec<u32> {
    vec![0u32; (page_count as usize).div_ceil(32)]
}

impl PageTable {
    /// Creates a page table for `page_count` pages with the given geometry.
    pub fn new(page_count: u32, pages_per_region: u32, page_bytes: u32) -> Self {
        PageTable {
            dirty: bit_words(page_count),
            no_need: bit_words(page_count),
            page_count,
            pages_per_region,
            page_bytes,
        }
    }

    /// Number of pages tracked.
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u32 {
        self.page_bytes
    }

    fn bit_get(words: &[u32], page: u32) -> bool {
        words[page as usize / 32] >> (page % 32) & 1 == 1
    }

    fn bit_put(words: &mut [u32], page: u32, value: bool) {
        let (word, bit) = (page as usize / 32, page % 32);
        if value {
            words[word] |= 1 << bit;
        } else {
            words[word] &= !(1 << bit);
        }
    }

    /// The flags of a page by global index.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn flags_of(&self, page: u32) -> PageFlags {
        assert!(page < self.page_count, "page {page} out of range");
        PageFlags {
            dirty: Self::bit_get(&self.dirty, page),
            no_need: Self::bit_get(&self.no_need, page),
        }
    }

    /// The global page range `[first, last]` covered by `size` bytes at
    /// `addr`.
    pub fn pages_of(&self, addr: Addr, size: u32) -> (u32, u32) {
        let base = addr.region.raw() * self.pages_per_region;
        let first = base + addr.offset / self.page_bytes;
        let last_byte = addr.offset + size.saturating_sub(1);
        let last = base + last_byte / self.page_bytes;
        (first, last)
    }

    /// Marks every page covered by `size` bytes at `addr` dirty (a mutator or
    /// collector wrote the bytes).
    pub fn mark_dirty_range(&mut self, addr: Addr, size: u32) {
        let (first, last) = self.pages_of(addr, size);
        for p in first..=last {
            Self::bit_put(&mut self.dirty, p, true);
        }
    }

    /// Clears every dirty bit (CRIU does this when completing a snapshot).
    pub fn clear_dirty(&mut self) {
        self.dirty.fill(0);
    }

    /// Sets or clears the no-need bit of one page.
    pub fn set_no_need(&mut self, page: u32, no_need: bool) {
        assert!(page < self.page_count, "page {page} out of range");
        Self::bit_put(&mut self.no_need, page, no_need);
    }

    /// Clears the no-need bit of every page covered by `size` bytes at
    /// `addr` (the bytes are in use again).
    pub fn clear_no_need_range(&mut self, addr: Addr, size: u32) {
        let (first, last) = self.pages_of(addr, size);
        for p in first..=last {
            Self::bit_put(&mut self.no_need, p, false);
        }
    }

    /// Iterates over all page flags in global page order.
    pub fn iter(&self) -> impl Iterator<Item = PageFlags> + '_ {
        (0..self.page_count).map(|p| PageFlags {
            dirty: Self::bit_get(&self.dirty, p),
            no_need: Self::bit_get(&self.no_need, p),
        })
    }

    /// Number of pages currently marked dirty.
    pub fn dirty_count(&self) -> u32 {
        self.dirty.iter().map(|w| w.count_ones()).sum()
    }

    /// Number of pages currently marked no-need.
    pub fn no_need_count(&self) -> u32 {
        self.no_need.iter().map(|w| w.count_ones()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(region: u32, offset: u32) -> Addr {
        Addr {
            region: RegionId::new(region),
            offset,
        }
    }

    #[test]
    fn bump_allocation_respects_capacity() {
        let mut r = Region::new(RegionId::new(0), PageId::new(0));
        r.assign(SpaceId::new(0));
        assert_eq!(r.try_bump(100, 256), Some(0));
        assert_eq!(r.try_bump(100, 256), Some(100));
        assert_eq!(r.try_bump(100, 256), None);
        assert_eq!(r.used_bytes(), 200);
    }

    #[test]
    fn release_resets_region() {
        let mut r = Region::new(RegionId::new(3), PageId::new(48));
        r.assign(SpaceId::new(1));
        r.try_bump(64, 1024).unwrap();
        r.push_object(ObjectId::new(1));
        r.set_live_bytes(64);
        r.release();
        assert_eq!(r.space(), None);
        assert_eq!(r.used_bytes(), 0);
        assert_eq!(r.live_bytes(), 0);
        assert!(r.objects().is_empty());
    }

    #[test]
    fn live_fraction() {
        let mut r = Region::new(RegionId::new(0), PageId::new(0));
        r.assign(SpaceId::new(0));
        assert_eq!(r.live_fraction(), 0.0);
        r.try_bump(200, 1024).unwrap();
        r.set_live_bytes(50);
        assert_eq!(r.live_fraction(), 0.25);
    }

    #[test]
    fn page_range_math() {
        let pt = PageTable::new(64, 16, 4096);
        // Object spanning exactly one page.
        assert_eq!(pt.pages_of(addr(0, 0), 4096), (0, 0));
        // Object crossing a page boundary.
        assert_eq!(pt.pages_of(addr(0, 4000), 200), (0, 1));
        // Region 2 starts at page 32.
        assert_eq!(pt.pages_of(addr(2, 0), 1), (32, 32));
    }

    #[test]
    fn dirty_bits_set_and_clear() {
        let mut pt = PageTable::new(64, 16, 4096);
        pt.mark_dirty_range(addr(1, 0), 4096 * 3);
        assert_eq!(pt.dirty_count(), 3);
        pt.clear_dirty();
        assert_eq!(pt.dirty_count(), 0);
    }

    #[test]
    fn no_need_bits() {
        let mut pt = PageTable::new(16, 16, 4096);
        pt.set_no_need(5, true);
        pt.set_no_need(6, true);
        assert_eq!(pt.no_need_count(), 2);
        pt.clear_no_need_range(addr(0, 5 * 4096), 4096 * 2);
        assert_eq!(pt.no_need_count(), 0);
    }

    #[test]
    fn zero_sized_write_touches_one_page() {
        let pt = PageTable::new(16, 16, 4096);
        assert_eq!(pt.pages_of(addr(0, 100), 0), (0, 0));
    }

    #[test]
    fn bit_packing_crosses_word_boundaries() {
        let mut pt = PageTable::new(70, 16, 4096);
        pt.set_no_need(31, true);
        pt.set_no_need(32, true);
        pt.set_no_need(69, true);
        assert_eq!(pt.no_need_count(), 3);
        assert!(pt.flags_of(32).no_need);
        assert!(!pt.flags_of(33).no_need);
        assert_eq!(pt.iter().filter(|f| f.no_need).count(), 3);
    }
}

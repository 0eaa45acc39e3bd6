//! The root table: named GC root slots.
//!
//! Workload hooks park long-lived structures (memtables, caches, vertex
//! state) in root slots; mutator stacks are handled separately by the
//! runtime, which passes frame-rooted objects to [`Heap::mark_live`] as extra
//! roots.
//!
//! [`Heap::mark_live`]: crate::Heap::mark_live

use std::collections::HashMap;

use crate::ObjectId;

/// Identifies one named root slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RootSlotId(u32);

impl RootSlotId {
    /// The raw slot index.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

/// Named root slots, each holding a set of root object ids.
///
/// # Examples
///
/// ```
/// use polm2_heap::{ObjectId, RootTable};
///
/// let mut roots = RootTable::new();
/// let slot = roots.create_slot("memtable");
/// roots.push(slot, ObjectId::new(1));
/// roots.push(slot, ObjectId::new(2));
/// assert_eq!(roots.slot(slot).len(), 2);
/// roots.clear_slot(slot);
/// assert!(roots.slot(slot).is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct RootTable {
    slots: Vec<Vec<ObjectId>>,
    /// Keyed roots per slot: `set_keyed` replaces in O(1), the pattern for
    /// map-shaped application structures (document tables, key indexes).
    keyed: Vec<HashMap<u64, ObjectId>>,
    names: Vec<String>,
    by_name: HashMap<String, RootSlotId>,
}

impl RootTable {
    /// Creates an empty root table.
    pub fn new() -> Self {
        RootTable::default()
    }

    /// Creates (or finds) the slot named `name`.
    pub fn create_slot(&mut self, name: &str) -> RootSlotId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = RootSlotId(self.slots.len() as u32);
        self.slots.push(Vec::new());
        self.keyed.push(HashMap::new());
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Finds a slot by name.
    pub fn find_slot(&self, name: &str) -> Option<RootSlotId> {
        self.by_name.get(name).copied()
    }

    /// The slot's name.
    ///
    /// # Panics
    ///
    /// Panics if `slot` does not exist.
    pub fn name(&self, slot: RootSlotId) -> &str {
        &self.names[slot.0 as usize]
    }

    /// The roots currently held by `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` does not exist.
    pub fn slot(&self, slot: RootSlotId) -> &[ObjectId] {
        &self.slots[slot.0 as usize]
    }

    /// Adds a root to `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` does not exist.
    pub fn push(&mut self, slot: RootSlotId, obj: ObjectId) {
        self.slots[slot.0 as usize].push(obj);
    }

    /// Removes one occurrence of `obj` from `slot`; returns whether it was
    /// present.
    ///
    /// # Panics
    ///
    /// Panics if `slot` does not exist.
    pub fn remove(&mut self, slot: RootSlotId, obj: ObjectId) -> bool {
        let v = &mut self.slots[slot.0 as usize];
        if let Some(pos) = v.iter().position(|&o| o == obj) {
            v.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Empties `slot` (both plain and keyed roots) and returns the plain
    /// ids it held.
    ///
    /// # Panics
    ///
    /// Panics if `slot` does not exist.
    pub fn clear_slot(&mut self, slot: RootSlotId) -> Vec<ObjectId> {
        self.keyed[slot.0 as usize].clear();
        std::mem::take(&mut self.slots[slot.0 as usize])
    }

    /// Sets the keyed root `key` in `slot`, returning the object it
    /// replaced (which, if otherwise unreferenced, is now garbage). O(1) —
    /// the pattern for map-shaped structures like document tables.
    ///
    /// # Panics
    ///
    /// Panics if `slot` does not exist.
    pub fn set_keyed(&mut self, slot: RootSlotId, key: u64, obj: ObjectId) -> Option<ObjectId> {
        self.keyed[slot.0 as usize].insert(key, obj)
    }

    /// Removes the keyed root `key` from `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` does not exist.
    pub fn remove_keyed(&mut self, slot: RootSlotId, key: u64) -> Option<ObjectId> {
        self.keyed[slot.0 as usize].remove(&key)
    }

    /// The keyed root at `key` in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` does not exist.
    pub fn keyed(&self, slot: RootSlotId, key: u64) -> Option<ObjectId> {
        self.keyed[slot.0 as usize].get(&key).copied()
    }

    /// Number of slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Total number of root references across all slots (plain + keyed).
    pub fn root_count(&self) -> usize {
        self.slots.iter().map(Vec::len).sum::<usize>()
            + self.keyed.iter().map(HashMap::len).sum::<usize>()
    }

    /// Iterates over every root id in every slot (plain + keyed).
    pub fn iter(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.slots
            .iter()
            .flatten()
            .copied()
            .chain(self.keyed.iter().flat_map(|m| m.values().copied()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_slot_is_idempotent() {
        let mut r = RootTable::new();
        let a = r.create_slot("x");
        let b = r.create_slot("x");
        assert_eq!(a, b);
        assert_eq!(r.slot_count(), 1);
        assert_eq!(r.name(a), "x");
        assert_eq!(r.find_slot("x"), Some(a));
        assert_eq!(r.find_slot("y"), None);
    }

    #[test]
    fn push_remove_clear() {
        let mut r = RootTable::new();
        let s = r.create_slot("cache");
        r.push(s, ObjectId::new(1));
        r.push(s, ObjectId::new(2));
        assert_eq!(r.root_count(), 2);
        assert!(r.remove(s, ObjectId::new(1)));
        assert!(!r.remove(s, ObjectId::new(1)));
        let drained = r.clear_slot(s);
        assert_eq!(drained, vec![ObjectId::new(2)]);
        assert_eq!(r.root_count(), 0);
    }

    #[test]
    fn keyed_roots_replace_in_place() {
        let mut r = RootTable::new();
        let s = r.create_slot("docs");
        assert_eq!(r.set_keyed(s, 7, ObjectId::new(1)), None);
        assert_eq!(r.set_keyed(s, 7, ObjectId::new(2)), Some(ObjectId::new(1)));
        assert_eq!(r.keyed(s, 7), Some(ObjectId::new(2)));
        assert_eq!(r.root_count(), 1);
        assert!(r.iter().any(|o| o == ObjectId::new(2)));
        assert_eq!(r.remove_keyed(s, 7), Some(ObjectId::new(2)));
        assert_eq!(r.keyed(s, 7), None);
        assert_eq!(r.root_count(), 0);
    }

    #[test]
    fn clear_slot_drops_keyed_roots_too() {
        let mut r = RootTable::new();
        let s = r.create_slot("docs");
        r.push(s, ObjectId::new(1));
        r.set_keyed(s, 9, ObjectId::new(2));
        let plain = r.clear_slot(s);
        assert_eq!(plain, vec![ObjectId::new(1)]);
        assert_eq!(r.root_count(), 0);
    }

    #[test]
    fn iter_spans_slots() {
        let mut r = RootTable::new();
        let a = r.create_slot("a");
        let b = r.create_slot("b");
        r.push(a, ObjectId::new(10));
        r.push(b, ObjectId::new(20));
        let mut all: Vec<u64> = r.iter().map(|o| o.raw()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![10, 20]);
    }
}

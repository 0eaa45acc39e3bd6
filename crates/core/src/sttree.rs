//! The stack-trace tree (STTree) — paper §3.3, Figure 2, Algorithm 1.
//!
//! Nodes carry the paper's 4-tuple: (class, method, line) — a [`CodeLoc`] —
//! plus a target generation. Interior nodes are call sites; leaves are
//! allocation sites. One allocation site reached through call paths with
//! *different* estimated generations is a **conflict**; it is resolved by
//! pushing each path's generation up to the first ancestor whose location
//! distinguishes the paths — that call site gets a `setGeneration` wrapper.
//!
//! Locations are interned into dense `u32` ids on first sight, so every
//! traversal (insertion, conflict detection, conflict resolution, hoisting)
//! compares integers; [`CodeLoc`] strings are cloned only at the public
//! output boundary ([`Conflict`], [`Resolution`], [`LeafView`]).

use std::collections::HashMap;

use polm2_heap::{GenId, IdHashMap, IdHashSet};
use polm2_runtime::CodeLoc;

/// Dense id of a location interned in one tree.
type LocId = u32;

#[derive(Debug)]
struct Node {
    loc: LocId,
    parent: Option<u32>,
    children: Vec<u32>,
    /// `Some` for allocation-site leaves: the estimated target generation.
    leaf_gen: Option<GenId>,
}

/// One conflict: an allocation-site location reached through paths with
/// different target generations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// The shared allocation-site location.
    pub loc: CodeLoc,
    /// The conflicting leaf nodes (indices into the tree).
    members: Vec<usize>,
}

impl Conflict {
    /// Number of distinct paths involved.
    pub fn path_count(&self) -> usize {
        self.members.len()
    }
}

/// One resolved conflict member: wrap the call at `at` with
/// `setGeneration(gen)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    /// The conflicted allocation site.
    pub leaf: CodeLoc,
    /// The generation this path's objects should go to.
    pub gen: GenId,
    /// The distinguishing ancestor call site to wrap.
    pub at: CodeLoc,
}

/// A leaf of the tree (an allocation site reached through one call path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafView {
    /// Node index (stable for this tree).
    pub idx: usize,
    /// The allocation-site location.
    pub loc: CodeLoc,
    /// The estimated target generation.
    pub gen: GenId,
    /// The interned location id (crate-internal fast path).
    pub(crate) sym: LocId,
}

/// The stack-trace tree.
///
/// # Examples
///
/// ```
/// use polm2_core::SttTree;
/// use polm2_heap::GenId;
/// use polm2_runtime::CodeLoc;
///
/// let mut tree = SttTree::new();
/// // Two different callers reach the same allocation site with different
/// // lifetimes — the paper's Listing 1 situation.
/// let site = CodeLoc::new("Class1", "methodD", 4);
/// tree.insert_path(
///     &[CodeLoc::new("Class1", "methodB", 21), site.clone()],
///     GenId::new(2),
/// );
/// tree.insert_path(
///     &[CodeLoc::new("Class1", "methodB", 26), site.clone()],
///     GenId::new(3),
/// );
/// let conflicts = tree.detect_conflicts();
/// assert_eq!(conflicts.len(), 1);
/// let resolutions = tree.solve_conflicts(&conflicts);
/// // Each path resolves at its (distinct) methodB call site.
/// assert_eq!(resolutions.len(), 2);
/// assert_ne!(resolutions[0].at, resolutions[1].at);
/// ```
#[derive(Debug, Default)]
pub struct SttTree {
    nodes: Vec<Node>,
    /// Interned locations (id → location).
    locs: Vec<CodeLoc>,
    /// Location intern map (location → id).
    by_loc: HashMap<CodeLoc, LocId>,
    /// Children of the synthetic root, by interned location.
    roots: IdHashMap<LocId, u32>,
}

impl SttTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        SttTree::default()
    }

    /// Interns `loc`, cloning it only on first sight.
    fn intern_loc(&mut self, loc: &CodeLoc) -> LocId {
        match self.by_loc.get(loc) {
            Some(&id) => id,
            None => {
                let id = self.locs.len() as LocId;
                self.locs.push(loc.clone());
                self.by_loc.insert(loc.clone(), id);
                id
            }
        }
    }

    /// The interned id of `loc`, if any path mentions it.
    pub(crate) fn loc_id(&self, loc: &CodeLoc) -> Option<LocId> {
        self.by_loc.get(loc).copied()
    }

    /// The location an interned id stands for.
    pub(crate) fn loc_at(&self, id: LocId) -> &CodeLoc {
        &self.locs[id as usize]
    }

    /// Inserts one allocation path (outermost frame first; the last element
    /// is the allocation site) with its estimated target generation.
    ///
    /// Re-inserting an identical path keeps the older (higher) generation.
    ///
    /// # Panics
    ///
    /// Panics if `path` is empty.
    pub fn insert_path(&mut self, path: &[CodeLoc], gen: GenId) {
        assert!(!path.is_empty(), "allocation path cannot be empty");
        let mut current: Option<u32> = None;
        for loc in path {
            let loc = self.intern_loc(loc);
            let next = match current {
                None => match self.roots.get(&loc) {
                    Some(&idx) => idx,
                    None => {
                        let idx = self.push_node(loc, None);
                        self.roots.insert(loc, idx);
                        idx
                    }
                },
                Some(parent) => {
                    match self.nodes[parent as usize]
                        .children
                        .iter()
                        .copied()
                        .find(|&c| self.nodes[c as usize].loc == loc)
                    {
                        Some(idx) => idx,
                        None => {
                            let idx = self.push_node(loc, Some(parent));
                            self.nodes[parent as usize].children.push(idx);
                            idx
                        }
                    }
                }
            };
            current = Some(next);
        }
        let leaf = current.expect("non-empty path");
        let slot = &mut self.nodes[leaf as usize].leaf_gen;
        *slot = Some(match *slot {
            Some(existing) => existing.max(gen),
            None => gen,
        });
    }

    fn push_node(&mut self, loc: LocId, parent: Option<u32>) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node {
            loc,
            parent,
            children: Vec::new(),
            leaf_gen: None,
        });
        idx
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no path has been inserted.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All allocation-site leaves.
    pub fn leaves(&self) -> Vec<LeafView> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(idx, n)| {
                n.leaf_gen.map(|gen| LeafView {
                    idx,
                    loc: self.locs[n.loc as usize].clone(),
                    gen,
                    sym: n.loc,
                })
            })
            .collect()
    }

    /// Algorithm 1, `Detect Conflicts`: leaves sharing a location but not a
    /// target generation.
    pub fn detect_conflicts(&self) -> Vec<Conflict> {
        let mut groups: IdHashMap<LocId, Vec<usize>> = IdHashMap::default();
        for (idx, node) in self.nodes.iter().enumerate() {
            if node.leaf_gen.is_some() {
                groups.entry(node.loc).or_default().push(idx);
            }
        }
        let mut conflicts: Vec<Conflict> = groups
            .into_iter()
            .filter(|(_, members)| {
                let mut gens: Vec<GenId> = members
                    .iter()
                    .map(|&m| self.nodes[m].leaf_gen.expect("leaf"))
                    .collect();
                gens.sort_unstable();
                gens.dedup();
                members.len() > 1 && gens.len() > 1
            })
            .map(|(loc, members)| Conflict {
                loc: self.locs[loc as usize].clone(),
                members,
            })
            .collect();
        conflicts.sort_by(|a, b| a.loc.cmp(&b.loc));
        conflicts
    }

    /// Algorithm 1, `Solve Conflicts`: each conflicting leaf pushes its
    /// target generation up its allocation path until the paths' current
    /// nodes all point at distinct code locations.
    ///
    /// Conflicts are independent of each other, so a slice of conflicts can
    /// be solved shard-by-shard and the outputs concatenated.
    pub fn solve_conflicts(&self, conflicts: &[Conflict]) -> Vec<Resolution> {
        let mut out = Vec::new();
        for conflict in conflicts {
            // One cursor per conflicting path.
            let mut cursors: Vec<usize> = conflict.members.clone();
            loop {
                let mut counts: IdHashMap<LocId, usize> = IdHashMap::default();
                for &c in &cursors {
                    *counts.entry(self.nodes[c].loc).or_insert(0) += 1;
                }
                let mut moved = false;
                for cursor in &mut cursors {
                    if counts[&self.nodes[*cursor].loc] > 1 {
                        if let Some(parent) = self.nodes[*cursor].parent {
                            *cursor = parent as usize;
                            moved = true;
                        }
                        // A cursor at a top-level frame with a still-shared
                        // location cannot move further; it resolves where it
                        // stands (distinct entry points make this rare).
                    }
                }
                if !moved {
                    break;
                }
            }
            for (member, cursor) in conflict.members.iter().zip(cursors) {
                out.push(Resolution {
                    leaf: conflict.loc.clone(),
                    gen: self.nodes[*member]
                        .leaf_gen
                        .expect("conflict member is a leaf"),
                    at: self.locs[self.nodes[cursor].loc as usize].clone(),
                });
            }
        }
        out
    }

    /// The §4.4 optimization: the highest ancestor whose subtree's leaf
    /// generations are exactly `{gen(leaf)}` — the cheapest place to set the
    /// target generation once for a whole subtree. Returns the chosen
    /// location and whether it is the leaf itself.
    ///
    /// Ordinary young leaves do not block hoisting (they carry no `@Gen`
    /// annotation, so the ambient target generation cannot affect them) —
    /// but leaves whose location is in `blocking_locs` (sites that *are*
    /// `@Gen`-annotated because some other path conflicts) do: hoisting over
    /// them would silently retarget their allocations.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_idx` is not a leaf of this tree.
    pub fn hoist_point(
        &self,
        leaf_idx: usize,
        blocking_locs: &std::collections::HashSet<CodeLoc>,
    ) -> (CodeLoc, bool) {
        let blocking: IdHashSet<LocId> = blocking_locs
            .iter()
            .filter_map(|loc| self.loc_id(loc))
            .collect();
        let (at, is_leaf) = self.hoist_point_sym(leaf_idx, &blocking);
        (self.locs[at as usize].clone(), is_leaf)
    }

    /// [`hoist_point`](SttTree::hoist_point) on interned ids (the Analyzer's
    /// hot path): blocking locations and the result are dense loc ids.
    pub(crate) fn hoist_point_sym(
        &self,
        leaf_idx: usize,
        blocking: &IdHashSet<LocId>,
    ) -> (LocId, bool) {
        let gen = self.nodes[leaf_idx]
            .leaf_gen
            .expect("hoist_point needs a leaf");
        let mut best = leaf_idx;
        let mut cursor = leaf_idx;
        while let Some(parent) = self.nodes[cursor].parent {
            let gens = self.subtree_gens(parent as usize, blocking);
            if gens.len() == 1 && gens[0] == gen {
                best = parent as usize;
                cursor = parent as usize;
            } else {
                break;
            }
        }
        (self.nodes[best].loc, best == leaf_idx)
    }

    /// Distinct effective leaf generations under `node` (inclusive), sorted.
    /// Young leaves count only when their location is `@Gen`-annotated
    /// elsewhere (`blocking`).
    fn subtree_gens(&self, node: usize, blocking: &IdHashSet<LocId>) -> Vec<GenId> {
        let mut gens = Vec::new();
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            if let Some(g) = self.nodes[n].leaf_gen {
                if !g.is_young() || blocking.contains(&self.nodes[n].loc) {
                    gens.push(g);
                }
            }
            stack.extend(self.nodes[n].children.iter().map(|&c| c as usize));
        }
        gens.sort_unstable();
        gens.dedup();
        gens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(m: &str, line: u32) -> CodeLoc {
        CodeLoc::new("C", m, line)
    }

    /// The paper's Listing 1 / Figure 2 shape: methodA -> methodB branches
    /// to two methodC call sites, both reaching methodD's allocation, with
    /// an extra in-methodC temporary allocation.
    fn paper_tree() -> SttTree {
        let mut t = SttTree::new();
        let d = loc("methodD", 4);
        // methodB line 21 path (gen 2).
        t.insert_path(
            &[
                loc("methodA", 34),
                loc("methodB", 21),
                loc("methodC", 8),
                d.clone(),
            ],
            GenId::new(2),
        );
        // methodB line 26 path (gen 3).
        t.insert_path(
            &[
                loc("methodA", 34),
                loc("methodB", 26),
                loc("methodC", 8),
                d.clone(),
            ],
            GenId::new(3),
        );
        // The tmp allocation inside methodC's if (gen 1), via line 21 only.
        t.insert_path(
            &[
                loc("methodA", 34),
                loc("methodB", 21),
                loc("methodC", 10),
                d.clone(),
            ],
            GenId::new(1),
        );
        t
    }

    #[test]
    fn insert_shares_prefixes() {
        let t = paper_tree();
        // methodA:34 is shared; methodB:21 shared by two paths.
        // Nodes: A34, B21, C8, D4, B26, C8', D4', C10, D4'' = 9.
        assert_eq!(t.len(), 9);
        assert_eq!(t.leaves().len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn interning_is_shared_across_paths() {
        let t = paper_tree();
        // 9 nodes but only 6 distinct locations: A34, B21, B26, C8, C10, D4.
        assert_eq!(t.locs.len(), 6);
        assert!(t.loc_id(&loc("methodD", 4)).is_some());
        assert!(t.loc_id(&loc("methodD", 99)).is_none());
    }

    #[test]
    fn detects_the_methodd_conflict() {
        let t = paper_tree();
        let conflicts = t.detect_conflicts();
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].loc, loc("methodD", 4));
        assert_eq!(conflicts[0].path_count(), 3);
    }

    #[test]
    fn resolution_finds_distinguishing_ancestors() {
        let t = paper_tree();
        let resolutions = t.solve_conflicts(&t.detect_conflicts());
        assert_eq!(resolutions.len(), 3);
        // The gen1 path diverges immediately at methodC line 10; the gen2
        // and gen3 paths share the methodC:8 location, so they walk past it
        // up to the two distinct methodB call lines — the paper's Listing 2
        // places the setGeneration calls exactly there (lines 20 and 25).
        let find = |g: u32| resolutions.iter().find(|r| r.gen == GenId::new(g)).unwrap();
        assert_eq!(find(1).at, loc("methodC", 10));
        assert_eq!(find(2).at, loc("methodB", 21));
        assert_eq!(find(3).at, loc("methodB", 26));
    }

    #[test]
    fn sharded_solving_matches_whole_slice_solving() {
        let mut t = paper_tree();
        // A second, unrelated conflict.
        let e = loc("methodE", 7);
        t.insert_path(&[loc("methodX", 1), e.clone()], GenId::new(2));
        t.insert_path(&[loc("methodY", 2), e.clone()], GenId::new(4));
        let conflicts = t.detect_conflicts();
        assert_eq!(conflicts.len(), 2);
        let whole = t.solve_conflicts(&conflicts);
        let mut sharded = t.solve_conflicts(&conflicts[..1]);
        sharded.extend(t.solve_conflicts(&conflicts[1..]));
        assert_eq!(whole, sharded);
    }

    #[test]
    fn identical_generations_are_not_conflicts() {
        let mut t = SttTree::new();
        let d = loc("make", 4);
        t.insert_path(&[loc("x", 1), d.clone()], GenId::new(2));
        t.insert_path(&[loc("y", 1), d.clone()], GenId::new(2));
        assert!(t.detect_conflicts().is_empty());
    }

    #[test]
    fn single_path_site_has_no_conflict() {
        let mut t = SttTree::new();
        t.insert_path(&[loc("x", 1), loc("make", 4)], GenId::new(2));
        assert!(t.detect_conflicts().is_empty());
    }

    #[test]
    fn reinsert_keeps_older_generation() {
        let mut t = SttTree::new();
        let path = [loc("x", 1), loc("make", 4)];
        t.insert_path(&path, GenId::new(2));
        t.insert_path(&path, GenId::new(1));
        assert_eq!(t.leaves()[0].gen, GenId::new(2));
        assert_eq!(t.leaves().len(), 1);
    }

    #[test]
    fn hoisting_stops_at_mixed_subtrees() {
        let mut t = SttTree::new();
        // Two sites under the same caller, same gen -> hoist to the caller.
        t.insert_path(&[loc("run", 1), loc("makeA", 4)], GenId::new(2));
        t.insert_path(&[loc("run", 1), loc("makeB", 9)], GenId::new(2));
        let none = std::collections::HashSet::new();
        let leaves = t.leaves();
        for leaf in &leaves {
            let (at, is_leaf) = t.hoist_point(leaf.idx, &none);
            assert_eq!(at, loc("run", 1));
            assert!(!is_leaf);
        }
        // Add a different-gen site under the same caller -> no more hoisting.
        t.insert_path(&[loc("run", 1), loc("makeC", 12)], GenId::new(3));
        for leaf in t.leaves() {
            let (at, is_leaf) = t.hoist_point(leaf.idx, &none);
            assert_eq!(at, leaf.loc, "mixed subtree forces site-local set");
            assert!(is_leaf);
        }
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn empty_path_panics() {
        SttTree::new().insert_path(&[], GenId::YOUNG);
    }
}

//! The survival-count table the Analyzer replays against, derived from a
//! delta-encoded snapshot series.
//!
//! The paper's Analyzer counts, for every recorded object, the number of
//! snapshots its identity hash appears in (§3.3). A hash's presence in a
//! series is a set of disjoint intervals of consecutive snapshots, so its
//! count is the sum of its interval lengths. [`SnapshotSeries::push`]
//! closes an interval in the same diff walk that finds the hash gone, and
//! stores `hash << 32 | length` in that snapshot's removed list; intervals
//! still open at the end are closed at the series length. The removed lists
//! are sorted runs; together with the open intervals they hold one entry
//! per interval, which is usually one per hash. A hash that leaves and
//! comes back — a 32-bit collision, or a chaos-truncated snapshot — has
//! several intervals, and their lengths add up to exactly its appearance
//! count.
//!
//! [`SurvivalCounts::from_intervals`] turns those runs into the lookup
//! table in O(entries): one counting pass and one scatter on the hash's
//! high 16 bits put every entry straight into its directory bucket, and
//! each bucket (a few dozen entries) is then sorted and its repeated
//! hashes summed in place. No work is spent on this at capture time, and
//! nothing is kept next to the deltas.
//!
//! Everything here is deterministic: same series in, byte-identical counts
//! out.
//!
//! [`SnapshotSeries::push`]: crate::SnapshotSeries::push

/// Number of high hash bits the [`SurvivalCounts`] lookup directory indexes.
const DIR_BITS: u32 = 16;
/// Directory bucket count; bucket `b` spans hashes with bits \[16..32) == `b`.
const DIR_BUCKETS: usize = 1 << DIR_BITS;

/// Sorted `(hash, appearances)` table: for every hash that appeared in at
/// least one snapshot, the number of snapshots containing it.
///
/// Entries are packed `hash << 32 | count` words sorted by hash. Identity
/// hashes are 32-bit values spread by a finalizer, so a directory over their
/// high 16 bits lands [`get`](SurvivalCounts::get) on a run of
/// ~`len / 65536` candidates — effectively constant-time lookups, one cache
/// line per candidate, no hashing.
///
/// # Examples
///
/// ```
/// use polm2_heap::{IdentityHash, ObjectId};
/// use polm2_metrics::{SimDuration, SimTime};
/// use polm2_snapshot::{Snapshot, SnapshotSeries};
///
/// let snap = |seq: u32, ids: &[u64]| {
///     Snapshot::new(
///         seq,
///         SimTime::from_secs(seq as u64),
///         ids.iter().map(|&i| IdentityHash::of(ObjectId::new(i))).collect(),
///         4096,
///         SimDuration::from_millis(1),
///     )
/// };
/// let series: SnapshotSeries = vec![snap(0, &[1, 2, 3]), snap(1, &[2, 3])].into_iter().collect();
/// let counts = series.survival_counts();
/// assert_eq!(counts.get(IdentityHash::of(ObjectId::new(2)).raw()), 2);
/// assert_eq!(counts.get(IdentityHash::of(ObjectId::new(1)).raw()), 1);
/// assert_eq!(counts.get(0xdead_beef), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SurvivalCounts {
    /// Sorted packed entries: hash in the high 32 bits, count in the low 32.
    table: Vec<u64>,
    /// `dir[b]` = first table index whose hash's high 16 bits are ≥ `b`.
    dir: Vec<u32>,
}

impl SurvivalCounts {
    /// Builds the table from runs of packed `hash << 32 | length` interval
    /// entries. Entries for the same hash, in any runs, are summed.
    pub(crate) fn from_intervals(runs: &[&[u64]]) -> Self {
        let bucket = |e: u64| (e >> (32 + DIR_BITS)) as usize;
        // Count per bucket, shifted one slot so the prefix sum below leaves
        // `dir[b]` at bucket `b`'s first index.
        let mut dir = vec![0u32; DIR_BUCKETS + 1];
        for &e in runs.iter().flat_map(|r| r.iter()) {
            dir[bucket(e) + 1] += 1;
        }
        for b in 1..=DIR_BUCKETS {
            dir[b] += dir[b - 1];
        }
        let mut table = vec![0u64; dir[DIR_BUCKETS] as usize];
        let mut fill = dir.clone();
        for &e in runs.iter().flat_map(|r| r.iter()) {
            let slot = &mut fill[bucket(e)];
            table[*slot as usize] = e;
            *slot += 1;
        }
        // Sort each bucket and sum repeated hashes, compacting in place:
        // the write cursor never passes the bucket being read.
        let mut w = 0usize;
        for b in 0..DIR_BUCKETS {
            let (lo, hi) = (dir[b] as usize, dir[b + 1] as usize);
            dir[b] = w as u32;
            table[lo..hi].sort_unstable();
            for r in lo..hi {
                let e = table[r];
                if w > 0 && table[w - 1] >> 32 == e >> 32 {
                    // Lengths live in the low 32 bits and sum to at most
                    // the series length, so the add never carries.
                    table[w - 1] += e & u64::from(u32::MAX);
                } else {
                    table[w] = e;
                    w += 1;
                }
            }
        }
        dir[DIR_BUCKETS] = w as u32;
        table.truncate(w);
        SurvivalCounts { table, dir }
    }

    /// Appearances of `hash` across the series (0 if never captured). A
    /// directory fetch plus a short scan — replaces one hash probe per
    /// snapshot.
    #[inline]
    pub fn get(&self, hash: u32) -> u32 {
        if self.table.is_empty() {
            return 0;
        }
        let b = (hash >> DIR_BITS) as usize;
        let (lo, hi) = (self.dir[b] as usize, self.dir[b + 1] as usize);
        for &entry in &self.table[lo..hi] {
            let h = (entry >> 32) as u32;
            if h >= hash {
                return if h == hash { entry as u32 } else { 0 };
            }
        }
        0
    }

    /// Number of distinct hashes observed across the series.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if no snapshot contributed any hash.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use crate::record::{Snapshot, SnapshotSeries};
    use polm2_metrics::{SimDuration, SimTime};
    use std::collections::BTreeMap;

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    fn series_of(columns: &[Vec<u32>]) -> SnapshotSeries {
        columns
            .iter()
            .enumerate()
            .map(|(seq, col)| {
                Snapshot::from_sorted_column(
                    seq as u32,
                    SimTime::from_secs(seq as u64),
                    col.clone(),
                    4096,
                    SimDuration::from_millis(1),
                )
            })
            .collect()
    }

    /// The oracle: per hash, the number of input columns that contain it.
    fn appearances(columns: &[Vec<u32>]) -> BTreeMap<u32, u32> {
        let mut counts = BTreeMap::new();
        for col in columns {
            for &h in col {
                *counts.entry(h).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Checks every hash's count, the table size, and misses next to hits.
    fn assert_matches_oracle(columns: &[Vec<u32>], what: &str) {
        let counts = series_of(columns).survival_counts();
        let oracle = appearances(columns);
        assert_eq!(counts.len(), oracle.len(), "{what}: distinct hashes");
        for (&h, &n) in &oracle {
            assert_eq!(counts.get(h), n, "{what}: hash {h:#x}");
            for probe in [h.wrapping_add(1), h.wrapping_sub(1), h ^ 0x5a5a_5a5a] {
                assert_eq!(
                    counts.get(probe),
                    oracle.get(&probe).copied().unwrap_or(0),
                    "{what}: probe {probe:#x}"
                );
            }
        }
    }

    /// A seeded random series over a small hash universe, so hashes leave
    /// and return. Hashes cluster in a few directory buckets (several
    /// intervals sort and sum within one bucket) and spread over the whole
    /// range. Some snapshots are empty, some hashes are present throughout,
    /// some only in the last snapshot.
    fn random_columns(seed: u64) -> Vec<Vec<u32>> {
        let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let snapshots = (xorshift(&mut rng) % 12) as usize;
        let universe: Vec<u32> = (0..300)
            .map(|i| {
                if i % 3 == 0 {
                    0x0042_0000 | (xorshift(&mut rng) as u32 & 0xff)
                } else {
                    xorshift(&mut rng) as u32
                }
            })
            .collect();
        let always: Vec<u32> = universe[..5].to_vec();
        let last_only = 0xffff_fff0 | (seed as u32 & 0xf);
        (0..snapshots)
            .map(|s| {
                let mut col: Vec<u32> = if xorshift(&mut rng).is_multiple_of(7) {
                    Vec::new()
                } else {
                    let density = 1 + xorshift(&mut rng) % 4;
                    let mut col = always.clone();
                    col.extend(
                        universe
                            .iter()
                            .copied()
                            .filter(|_| xorshift(&mut rng) % 4 < density),
                    );
                    col
                };
                if s + 1 == snapshots {
                    col.push(last_only);
                }
                col.sort_unstable();
                col.dedup();
                col
            })
            .collect()
    }

    #[test]
    fn seeded_random_series_match_the_appearance_oracle() {
        let mut shapes = (0usize, 0usize);
        for seed in 0..64u64 {
            let columns = random_columns(seed);
            shapes.0 += usize::from(columns.iter().any(Vec::is_empty));
            shapes.1 += usize::from(columns.len() == 1);
            assert_matches_oracle(&columns, &format!("seed {seed}"));
        }
        assert!(shapes.0 > 0 && shapes.1 > 0, "generator shapes {shapes:?}");
    }

    #[test]
    fn departures_and_returns_count_exactly() {
        // Present at snapshots {0, 1, 3, 4} — two intervals — and a second
        // hash with three one-snapshot intervals.
        let columns = vec![vec![7, 9], vec![7], vec![9], vec![7], vec![7, 9]];
        let counts = series_of(&columns).survival_counts();
        assert_eq!(counts.get(7), 4);
        assert_eq!(counts.get(9), 3);
        assert_matches_oracle(&columns, "returns");
    }

    #[test]
    fn degenerate_series() {
        assert_matches_oracle(&[], "no snapshots");
        assert_matches_oracle(&[vec![]], "one empty snapshot");
        assert_matches_oracle(&[vec![], vec![], vec![3]], "hash only in the last");
        assert_matches_oracle(&[vec![0, 5, u32::MAX]], "one snapshot, range ends");
        assert_matches_oracle(&[vec![1, 2], vec![3, 4]], "disjoint snapshots");
        let counts = SnapshotSeries::new().survival_counts();
        assert!(counts.is_empty());
        assert_eq!(counts.get(1), 0);
    }

    #[test]
    fn dense_and_sparse_hashes_look_up_across_the_value_range() {
        // A dense cluster fills a few buckets; powers of two leave most empty.
        let mut all: Vec<u32> = (0..2000u32).collect();
        all.extend((0..32).map(|i| 1u32 << i));
        all.sort_unstable();
        all.dedup();
        let half = all[..all.len() / 2].to_vec();
        assert_matches_oracle(&[all, half], "dense and sparse");
    }
}

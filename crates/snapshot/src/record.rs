//! Snapshot records and series.
//!
//! A [`Snapshot`] is what one capture returns: metadata plus the full,
//! sorted column of live identity hashes. A [`SnapshotSeries`] does not keep
//! those columns. Per snapshot it keeps the metadata and the delta against
//! the previous snapshot ([`SnapshotDelta`]); it holds the full column of
//! the latest snapshot only, for the next diff. Beside that column it
//! carries each hash's birth — the seq at which its current presence
//! interval opened — so the diff that finds a hash gone closes the interval
//! and stores its length in the removed list. Each push costs one linear
//! walk of the latest column; nothing it does grows with the hashes seen
//! so far. The Analyzer's survival table is derived from the closed and
//! open intervals when [`SnapshotSeries::survival_counts`] is called (see
//! [`SurvivalCounts`]).

use polm2_heap::{IdHashSet, IdentityHash};
use polm2_metrics::{SimDuration, SimTime};

use crate::index::SurvivalCounts;

/// One captured heap snapshot.
///
/// Content is the set of live-object identity hashes (what the Analyzer
/// consumes); cost is the number of bytes captured and the stop time the
/// capture imposed (what Figures 3–4 compare).
///
/// The content is a **sorted, duplicate-free column** of raw 32-bit hash
/// values — the shape the Dumper streams directly off the heap and the
/// shape [`SnapshotSeries::push`] diffs.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Sequence number within its series (0-based).
    pub seq: u32,
    /// When the capture happened.
    pub at: SimTime,
    /// Sorted, duplicate-free raw identity-hash column.
    sorted: Vec<u32>,
    /// Number of live objects captured.
    pub live_objects: u64,
    /// Bytes written by the capture.
    pub size_bytes: u64,
    /// How long the application was stopped for the capture.
    pub capture_time: SimDuration,
}

impl Snapshot {
    /// Creates a snapshot record from a hash set (sorts the column eagerly).
    pub fn new(
        seq: u32,
        at: SimTime,
        hashes: IdHashSet<IdentityHash>,
        size_bytes: u64,
        capture_time: SimDuration,
    ) -> Self {
        let mut sorted: Vec<u32> = hashes.iter().map(|h| h.raw()).collect();
        sorted.sort_unstable();
        Self::from_sorted_column(seq, at, sorted, size_bytes, capture_time)
    }

    /// Creates a snapshot record directly from a sorted, duplicate-free
    /// column of raw hash values — the Dumper's streaming capture path
    /// ([`Heap::live_hash_column`] produces exactly this shape).
    ///
    /// [`Heap::live_hash_column`]: polm2_heap::Heap::live_hash_column
    ///
    /// # Panics
    ///
    /// Debug builds assert the column is strictly ascending.
    pub fn from_sorted_column(
        seq: u32,
        at: SimTime,
        sorted: Vec<u32>,
        size_bytes: u64,
        capture_time: SimDuration,
    ) -> Self {
        debug_assert!(
            sorted.windows(2).all(|w| w[0] < w[1]),
            "snapshot column must be sorted and duplicate-free"
        );
        let live_objects = sorted.len() as u64;
        Snapshot {
            seq,
            at,
            sorted,
            live_objects,
            size_bytes,
            capture_time,
        }
    }

    /// True if an object with this identity hash was live at capture time.
    pub fn contains(&self, hash: IdentityHash) -> bool {
        self.sorted.binary_search(&hash.raw()).is_ok()
    }

    /// The captured identity hashes as a sorted column of raw values.
    pub fn sorted_hashes(&self) -> &[u32] {
        &self.sorted
    }
}

/// One snapshot as a [`SnapshotSeries`] keeps it: its metadata and its
/// delta against the previous snapshot (the first snapshot's delta against
/// the empty heap is its whole column).
#[derive(Debug, Clone)]
pub struct SnapshotDelta {
    /// Sequence number within its series (0-based).
    pub seq: u32,
    /// When the capture happened.
    pub at: SimTime,
    /// Number of live objects captured.
    pub live_objects: u64,
    /// Bytes written by the capture.
    pub size_bytes: u64,
    /// How long the application was stopped for the capture.
    pub capture_time: SimDuration,
    /// Hashes present in this snapshot but not the previous one, sorted.
    added: Vec<u32>,
    /// Hashes present in the previous snapshot but not this one, sorted,
    /// each packed with the length of the presence interval this snapshot
    /// closes: `hash << 32 | snapshots`. These are sorted runs in exactly
    /// the layout [`SurvivalCounts`] scatters from.
    removed: Vec<u64>,
}

impl SnapshotDelta {
    /// Hashes that appeared in this snapshot, sorted ascending.
    pub fn added(&self) -> &[u32] {
        &self.added
    }

    /// Hashes that disappeared in this snapshot, sorted ascending.
    pub fn removed(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.removed.iter().map(|&e| (e >> 32) as u32)
    }
}

/// A sequence of snapshots from one profiling run, delta encoded (see the
/// [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct SnapshotSeries {
    deltas: Vec<SnapshotDelta>,
    /// The latest snapshot's column, for the next diff.
    latest: Vec<u32>,
    /// `births[i]`: the seq at which `latest[i]`'s current presence
    /// interval opened.
    births: Vec<u32>,
    /// Worst-case-sized buffers the push walk writes into before the delta
    /// is copied out at its exact size, kept across pushes.
    scratch: (Vec<u32>, Vec<u64>),
}

impl SnapshotSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        SnapshotSeries::default()
    }

    /// Appends a snapshot: one walk of the latest column against the new
    /// one records the delta, closes the interval of every departed hash
    /// and carries every survivor's birth forward.
    pub fn push(&mut self, snapshot: Snapshot) {
        let seq = self.deltas.len() as u32;
        let (prev, cur) = (&self.latest, &snapshot.sorted);
        let (added, removed) = &mut self.scratch;
        added.resize(cur.len(), 0);
        removed.resize(prev.len(), 0);
        let mut births = vec![seq; cur.len()];
        let (mut i, mut j, mut a, mut r) = (0, 0, 0, 0);
        // Branch-free merge step: write every candidate output, then move
        // each cursor by the comparison's outcome. Churn makes the outcome
        // unpredictable, so a branch per step would mostly mispredict.
        // `r <= i` and `a <= j` keep the speculative writes in bounds.
        while i < prev.len() && j < cur.len() {
            let (p, c, birth) = (prev[i], cur[j], self.births[i]);
            removed[r] = u64::from(p) << 32 | u64::from(seq - birth);
            added[a] = c;
            births[j] = if p == c { birth } else { seq };
            r += usize::from(p < c);
            a += usize::from(p > c);
            i += usize::from(p <= c);
            j += usize::from(p >= c);
        }
        for (&p, &birth) in prev[i..].iter().zip(&self.births[i..]) {
            removed[r] = u64::from(p) << 32 | u64::from(seq - birth);
            r += 1;
        }
        let tail = cur.len() - j;
        added[a..a + tail].copy_from_slice(&cur[j..]);
        let (added, removed) = (added[..a + tail].to_vec(), removed[..r].to_vec());
        self.deltas.push(SnapshotDelta {
            seq: snapshot.seq,
            at: snapshot.at,
            live_objects: snapshot.live_objects,
            size_bytes: snapshot.size_bytes,
            capture_time: snapshot.capture_time,
            added,
            removed,
        });
        self.latest = snapshot.sorted;
        self.births = births;
    }

    /// The snapshots' metadata and deltas, capture order.
    pub fn snapshots(&self) -> &[SnapshotDelta] {
        &self.deltas
    }

    /// The survival table: for every hash any snapshot held, the number of
    /// snapshots holding it. Derived here, in one pass over the closed
    /// intervals the pushes recorded plus the intervals still open.
    pub fn survival_counts(&self) -> SurvivalCounts {
        let len = self.deltas.len() as u32;
        let open: Vec<u64> = self
            .latest
            .iter()
            .zip(&self.births)
            .map(|(&h, &birth)| u64::from(h) << 32 | u64::from(len - birth))
            .collect();
        let mut runs: Vec<&[u64]> = self.deltas.iter().map(|d| d.removed.as_slice()).collect();
        runs.push(&open);
        SurvivalCounts::from_intervals(&runs)
    }

    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Total bytes across the series.
    pub fn total_size_bytes(&self) -> u64 {
        self.deltas.iter().map(|s| s.size_bytes).sum()
    }

    /// Total stop time across the series.
    pub fn total_capture_time(&self) -> SimDuration {
        self.deltas.iter().map(|s| s.capture_time).sum()
    }

    /// Mean snapshot size (0 for an empty series).
    pub fn mean_size_bytes(&self) -> u64 {
        if self.deltas.is_empty() {
            0
        } else {
            self.total_size_bytes() / self.deltas.len() as u64
        }
    }
}

impl FromIterator<Snapshot> for SnapshotSeries {
    fn from_iter<T: IntoIterator<Item = Snapshot>>(iter: T) -> Self {
        let mut series = SnapshotSeries::new();
        for snapshot in iter {
            series.push(snapshot);
        }
        series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polm2_heap::ObjectId;

    fn snap(seq: u32, ids: &[u64], size: u64, ms: u64) -> Snapshot {
        Snapshot::new(
            seq,
            SimTime::from_secs(seq as u64),
            ids.iter()
                .map(|&i| IdentityHash::of(ObjectId::new(i)))
                .collect(),
            size,
            SimDuration::from_millis(ms),
        )
    }

    fn raw(id: u64) -> u32 {
        IdentityHash::of(ObjectId::new(id)).raw()
    }

    #[test]
    fn snapshot_content_queries() {
        let s = snap(0, &[1, 2], 4096, 3);
        assert!(s.contains(IdentityHash::of(ObjectId::new(1))));
        assert!(!s.contains(IdentityHash::of(ObjectId::new(9))));
        assert_eq!(s.live_objects, 2);
    }

    #[test]
    fn sorted_hashes_are_sorted_and_complete() {
        let s = snap(0, &[9, 1, 5, 3], 4096, 1);
        let col = s.sorted_hashes();
        assert_eq!(col.len(), 4);
        assert!(col.windows(2).all(|w| w[0] < w[1]));
        for id in [9u64, 1, 5, 3] {
            assert!(col.binary_search(&raw(id)).is_ok());
        }
    }

    #[test]
    fn series_accumulates_costs() {
        let series: SnapshotSeries = vec![snap(0, &[1], 100, 5), snap(1, &[1, 2], 300, 10)]
            .into_iter()
            .collect();
        assert_eq!(series.len(), 2);
        assert_eq!(series.total_size_bytes(), 400);
        assert_eq!(series.mean_size_bytes(), 200);
        assert_eq!(series.total_capture_time(), SimDuration::from_millis(15));
        let counts = series.survival_counts();
        assert_eq!(counts.get(raw(1)), 2);
        assert_eq!(counts.get(raw(2)), 1);
        assert!(!series.is_empty());
    }

    #[test]
    fn empty_series_defaults() {
        let series = SnapshotSeries::new();
        assert!(series.is_empty());
        assert_eq!(series.mean_size_bytes(), 0);
        assert_eq!(series.total_size_bytes(), 0);
    }

    #[test]
    fn deltas_record_arrivals_and_departures_with_lifetimes() {
        let series: SnapshotSeries = vec![
            snap(0, &[1, 2, 3], 4096, 1),
            snap(1, &[2, 3, 4], 4096, 1),
            snap(2, &[4], 4096, 1),
        ]
        .into_iter()
        .collect();
        let d = series.snapshots();
        assert_eq!(d[0].added().len(), 3);
        assert_eq!(d[0].removed().len(), 0);
        assert_eq!(d[1].added(), &[raw(4)]);
        assert_eq!(d[1].removed().collect::<Vec<_>>(), vec![raw(1)]);
        assert_eq!(d[1].removed, vec![u64::from(raw(1)) << 32 | 1]);
        let mut gone = vec![raw(2), raw(3)];
        gone.sort_unstable();
        assert_eq!(d[2].removed().collect::<Vec<_>>(), gone);
        assert!(d[2].removed.iter().all(|&e| e as u32 == 2));
        assert_eq!(d[2].live_objects, 1);
    }

    #[test]
    fn stable_heaps_store_small_deltas() {
        // 100 long-lived objects, one churn object per snapshot: every delta
        // after the first holds one arrival and one departure.
        let series: SnapshotSeries = (0..10u32)
            .map(|s| {
                let mut ids: Vec<u64> = (0..100).collect();
                ids.push(1000 + u64::from(s));
                snap(s, &ids, 4096, 1)
            })
            .collect();
        let stored: Vec<usize> = series
            .snapshots()
            .iter()
            .map(|d| d.added().len() + d.removed().len())
            .collect();
        assert_eq!(stored[0], 101);
        assert!(stored[1..].iter().all(|&n| n == 2));
        let counts = series.survival_counts();
        assert_eq!(counts.get(raw(0)), 10);
        assert_eq!(counts.get(raw(1005)), 1);
    }
}

//! The two-entry cache history table of §2.3.1.
//!
//! PREDATOR's key observation: *if a thread writes a cache line after other
//! threads have accessed the same line, that write most likely causes at
//! least one cache invalidation.* To count such invalidations precisely the
//! runtime keeps, per (physical or virtual) cache line, a history table with
//! at most two entries, each a `(thread, access kind)` pair.
//!
//! The transition rules are implemented verbatim from the paper:
//!
//! * **Read `R` by thread `t`:**
//!   * table full → nothing to record;
//!   * table not full and an existing entry has a *different* thread id →
//!     record `(t, Read)` as the second entry;
//!   * table empty → record `(t, Read)`.
//! * **Write `W` by thread `t`:**
//!   * table full → the write invalidates at least one remote copy (the two
//!     entries are guaranteed to have distinct thread ids); count an
//!     invalidation and reset the table to the single entry `(t, Write)`;
//!   * table not full, existing entry has the same thread id → update the
//!     entry in place to `(t, Write)`, no invalidation;
//!   * table not full, existing entry has a different thread id →
//!     invalidation; reset to `(t, Write)`;
//!   * table empty → record `(t, Write)`.
//!
//! There is no distinct "empty after invalidation" state: every invalidation
//! replaces the table with the invalidating write (the paper's "no empty
//! status" remark).

use serde::{Deserialize, Serialize};

use crate::access::{AccessKind, ThreadId};

/// One slot of the history table: which thread last touched the line and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistoryEntry {
    /// Issuing thread.
    pub tid: ThreadId,
    /// Read or write.
    pub kind: AccessKind,
}

/// The two-entry cache history table for a single (virtual) cache line.
///
/// The table is deliberately tiny — 2 × (tid, kind) — because the detector
/// keeps one per tracked line and, during prediction, one per candidate
/// *virtual* line as well.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistoryTable {
    entries: [Option<HistoryEntry>; 2],
}

impl HistoryTable {
    /// A fresh, empty table.
    pub const fn new() -> Self {
        HistoryTable {
            entries: [None, None],
        }
    }

    /// True when both slots are occupied. Invariant: a full table always
    /// holds entries from two *different* threads (a second entry is only
    /// ever admitted when its thread differs from the first).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.entries[1].is_some()
    }

    /// True when no access has been recorded since creation.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries[0].is_none()
    }

    /// Number of occupied slots (0, 1 or 2).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Returns the occupied entries.
    pub fn entries(&self) -> impl Iterator<Item = HistoryEntry> + '_ {
        self.entries.iter().flatten().copied()
    }

    /// Records one access and reports whether it caused a cache invalidation
    /// under the paper's rules (see module docs).
    pub fn record(&mut self, tid: ThreadId, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => {
                if self.is_full() {
                    // Full table: the read cannot add information.
                    return false;
                }
                match self.entries[0] {
                    None => {
                        self.entries[0] = Some(HistoryEntry { tid, kind });
                    }
                    Some(e0) if e0.tid != tid => {
                        self.entries[1] = Some(HistoryEntry { tid, kind });
                    }
                    Some(_) => {
                        // Same thread already present: redundant.
                    }
                }
                false
            }
            AccessKind::Write => {
                if self.is_full() {
                    // Two entries from distinct threads: this write must
                    // invalidate at least one remote copy.
                    self.reset_to(tid);
                    return true;
                }
                match self.entries[0] {
                    None => {
                        self.entries[0] = Some(HistoryEntry { tid, kind });
                        false
                    }
                    Some(e0) if e0.tid == tid => {
                        // Upgrade/refresh the thread's own entry; a thread
                        // writing a line it already owns invalidates nothing.
                        self.entries[0] = Some(HistoryEntry { tid, kind });
                        false
                    }
                    Some(_) => {
                        // A different thread held the line: invalidation.
                        self.reset_to(tid);
                        true
                    }
                }
            }
        }
    }

    /// Post-invalidation state: a single write entry from the invalidating
    /// thread.
    #[inline]
    fn reset_to(&mut self, tid: ThreadId) {
        self.entries = [
            Some(HistoryEntry {
                tid,
                kind: AccessKind::Write,
            }),
            None,
        ];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessKind::{Read, Write};
    use proptest::prelude::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const T2: ThreadId = ThreadId(2);

    /// Feed a script, return total invalidations.
    fn run(script: &[(ThreadId, AccessKind)]) -> u64 {
        let mut t = HistoryTable::new();
        script.iter().map(|&(tid, k)| t.record(tid, k) as u64).sum()
    }

    #[test]
    fn starts_empty() {
        let t = HistoryTable::new();
        assert!(t.is_empty());
        assert!(!t.is_full());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn single_thread_never_invalidates() {
        let script: Vec<_> = (0..100)
            .map(|i| (T0, if i % 3 == 0 { Write } else { Read }))
            .collect();
        assert_eq!(run(&script), 0);
    }

    #[test]
    fn read_read_from_two_threads_fills_table_without_invalidation() {
        let mut t = HistoryTable::new();
        assert!(!t.record(T0, Read));
        assert!(!t.record(T1, Read));
        assert!(t.is_full());
    }

    #[test]
    fn write_after_remote_read_invalidates() {
        // T0 reads, T1 writes: T1's write invalidates T0's copy.
        assert_eq!(run(&[(T0, Read), (T1, Write)]), 1);
    }

    #[test]
    fn write_after_remote_write_invalidates() {
        assert_eq!(run(&[(T0, Write), (T1, Write)]), 1);
    }

    #[test]
    fn write_ping_pong_invalidates_every_time() {
        // Classic false-sharing ping-pong: every write after the first hits.
        let script: Vec<_> = (0..10).map(|i| (ThreadId(i % 2), Write)).collect();
        assert_eq!(run(&script), 9);
    }

    #[test]
    fn read_to_full_table_is_ignored() {
        let mut t = HistoryTable::new();
        t.record(T0, Read);
        t.record(T1, Read);
        let before = t;
        assert!(!t.record(T2, Read));
        assert_eq!(t, before);
    }

    #[test]
    fn write_to_full_table_resets_to_single_write_entry() {
        let mut t = HistoryTable::new();
        t.record(T0, Read);
        t.record(T1, Read);
        assert!(t.record(T2, Write));
        assert_eq!(t.len(), 1);
        let e: Vec<_> = t.entries().collect();
        assert_eq!(
            e,
            vec![HistoryEntry {
                tid: T2,
                kind: Write
            }]
        );
    }

    #[test]
    fn own_write_after_own_read_upgrades_in_place() {
        let mut t = HistoryTable::new();
        t.record(T0, Read);
        assert!(!t.record(T0, Write));
        assert_eq!(t.len(), 1);
        assert_eq!(t.entries().next().unwrap().kind, Write);
    }

    #[test]
    fn same_thread_repeat_read_not_duplicated() {
        let mut t = HistoryTable::new();
        t.record(T0, Read);
        t.record(T0, Read);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn invalidating_write_then_remote_write_invalidates_again() {
        // After a reset, the table holds only the last writer; a subsequent
        // remote write must count again.
        assert_eq!(run(&[(T0, Read), (T1, Write), (T0, Write)]), 2);
    }

    #[test]
    fn reader_between_writers_still_one_invalidation_per_write() {
        // W0, R1 (fills table), W0 — W0 hits a full table: invalidation.
        assert_eq!(run(&[(T0, Write), (T1, Read), (T0, Write)]), 1);
    }

    #[test]
    fn true_sharing_counter_pattern_counts_heavily() {
        // Three threads hammering the same line with writes.
        let script: Vec<_> = (0..30).map(|i| (ThreadId(i % 3), Write)).collect();
        assert_eq!(run(&script), 29);
    }

    proptest! {
        /// A full table always contains two distinct thread ids.
        #[test]
        fn prop_full_table_has_distinct_tids(
            script in proptest::collection::vec((0u16..4, prop::bool::ANY), 0..64)
        ) {
            let mut t = HistoryTable::new();
            for (tid, w) in script {
                let kind = if w { Write } else { Read };
                t.record(ThreadId(tid), kind);
                if t.is_full() {
                    let e: Vec<_> = t.entries().collect();
                    prop_assert_ne!(e[0].tid, e[1].tid);
                }
            }
        }

        /// Invalidations never exceed the number of writes, and a
        /// single-thread prefix contributes none.
        #[test]
        fn prop_invalidations_bounded_by_writes(
            script in proptest::collection::vec((0u16..4, prop::bool::ANY), 0..256)
        ) {
            let mut t = HistoryTable::new();
            let mut inv = 0u64;
            let mut writes = 0u64;
            for (tid, w) in &script {
                let kind = if *w { Write } else { Read };
                writes += *w as u64;
                inv += t.record(ThreadId(*tid), kind) as u64;
            }
            prop_assert!(inv <= writes);
        }

        /// Recording is insensitive to reads once the table is full:
        /// inserting extra reads from any thread between two events never
        /// *decreases* the invalidation count... but it can increase it
        /// (a read can fill the table). Here we check the weaker, exact
        /// invariant actually used by the detector: an invalidation is
        /// reported only for writes.
        #[test]
        fn prop_only_writes_invalidate(
            script in proptest::collection::vec((0u16..4, prop::bool::ANY), 0..256)
        ) {
            let mut t = HistoryTable::new();
            for (tid, w) in script {
                let kind = if w { Write } else { Read };
                let inv = t.record(ThreadId(tid), kind);
                if inv {
                    prop_assert_eq!(kind, Write);
                }
            }
        }
    }
}

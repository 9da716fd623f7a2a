//! The mirrored lock table for mutual-exclusion verification
//! (§V-B, Theorem 3 of the paper).
//!
//! Under 2PL every write (and locking read) acquires an exclusive lock
//! inside the operation's trace interval and releases it inside the
//! commit/abort trace interval. Two conflicting locks must have disjoint
//! hold periods; `resolve_exclusive_pair` decides, from the four intervals
//! alone, whether that is certainly violated, or in which order the locks
//! were held (from which a ww dependency follows).

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::interval::{resolve_exclusive_pair, Interval, PairOrder};
use crate::types::{Key, Timestamp, TxnId};
use serde::{Deserialize, Serialize};

/// One mirrored lock on one record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LockEntry {
    /// The holder.
    pub txn: TxnId,
    /// Lock acquiring time interval (Definition 3): the trace interval of
    /// the operation that took the lock.
    pub acquire: Interval,
    /// Lock releasing time interval: the terminal operation's trace
    /// interval, once seen.
    pub release: Option<Interval>,
}

/// Outcome of checking a freshly released lock against one earlier lock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockCheck {
    /// Every feasible order of the lock operations has both locks held at
    /// once: an ME violation (Fig. 7(a)).
    Violation {
        /// Acquire interval of the lock being released (the caller's).
        own_acquire: Interval,
        /// The conflicting holder with its acquire and release intervals.
        other: (TxnId, Interval, Interval),
    },
    /// Exactly one order is feasible: the hold order is deduced and a ww
    /// dependency `first → second` follows (Fig. 7(b)).
    Order {
        /// Transaction whose lock was certainly held first.
        first: TxnId,
        /// Transaction whose lock was certainly held second.
        second: TxnId,
        /// `true` when the two acquire intervals did not overlap, i.e. the
        /// order was already certain without the mutual-exclusion argument.
        certain: bool,
    },
}

/// Plain-data image of one record's mirrored locks, used by checkpointing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KeyLocks {
    /// The record.
    pub key: Key,
    /// Its lock entries, in acquisition order.
    pub entries: Vec<LockEntry>,
}

/// The lock table: per-record lists of lock time intervals.
#[derive(Debug, Default)]
pub struct LockTable {
    locks: FxHashMap<Key, Vec<LockEntry>>,
    /// Total live entries, maintained incrementally (O(1) footprint).
    total: usize,
    /// Keys touched since the last prune; GC revisits only these.
    dirty: FxHashSet<Key>,
    /// Lists `prune` emptied, kept with their capacity for the next
    /// records `acquire` meets: records are pruned and locked again all
    /// the time, and each round trip was a free and an allocation.
    spare: Vec<Vec<LockEntry>>,
}

/// How many emptied lists the table keeps, and the capacity (in entries)
/// above which one is let go instead: a hot record's list can be long, and
/// a shelf of those is memory nobody counts.
const SPARE_LISTS: usize = 256;
const SPARE_LIST_ENTRIES: usize = 8;

impl LockTable {
    /// Mirrors a lock acquisition by `txn` on `key` within `acquire`.
    ///
    /// Re-acquisition by the same transaction (lock already held) keeps the
    /// earliest acquire interval.
    pub fn acquire(&mut self, key: Key, txn: TxnId, acquire: Interval) {
        self.dirty.insert(key);
        let spare = &mut self.spare;
        let entries = self
            .locks
            .entry(key)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        if entries.iter().any(|e| e.txn == txn && e.release.is_none()) {
            return;
        }
        entries.push(LockEntry {
            txn,
            acquire,
            release: None,
        });
        self.total += 1;
    }

    /// Mirrors the release of every lock `txn` holds on `keys` (at commit
    /// or abort), checking each released lock against every conflicting
    /// lock already released (Alg. 2, `MutualExclusion`).
    ///
    /// Pairs where the other lock is still held are checked later, when
    /// that lock releases — by then both release intervals are known and
    /// the check is exact. Results are appended to `out` as
    /// `(key, check)`.
    pub fn release_txn(
        &mut self,
        txn: TxnId,
        keys: &[Key],
        release: Interval,
        out: &mut Vec<(Key, LockCheck)>,
    ) {
        for &key in keys {
            self.dirty.insert(key);
            let Some(entries) = self.locks.get_mut(&key) else {
                continue;
            };
            let Some(self_idx) = entries
                .iter()
                .position(|e| e.txn == txn && e.release.is_none())
            else {
                continue;
            };
            entries[self_idx].release = Some(release);
            let (own_acquire, own_release) = (entries[self_idx].acquire, release);
            for (i, other) in entries.iter().enumerate() {
                if i == self_idx || other.txn == txn {
                    continue;
                }
                let Some(other_release) = other.release else {
                    continue; // checked when the other lock releases
                };
                let check = match resolve_exclusive_pair(
                    &own_acquire,
                    &own_release,
                    &other.acquire,
                    &other_release,
                ) {
                    PairOrder::CertainlyConcurrent => LockCheck::Violation {
                        own_acquire,
                        other: (other.txn, other.acquire, other_release),
                    },
                    PairOrder::FirstThenSecond => LockCheck::Order {
                        first: txn,
                        second: other.txn,
                        certain: !own_acquire.overlaps(&other.acquire),
                    },
                    PairOrder::SecondThenFirst => LockCheck::Order {
                        first: other.txn,
                        second: txn,
                        certain: !own_acquire.overlaps(&other.acquire),
                    },
                };
                out.push((key, check));
            }
        }
    }

    /// Drops released locks whose release interval ended before `low`,
    /// keeping still-held locks. Records left without locks are removed.
    /// Returns the number of entries dropped.
    pub fn prune(&mut self, low: Timestamp) -> usize {
        let mut removed = 0;
        for key in self.dirty.drain() {
            let Some(entries) = self.locks.get_mut(&key) else {
                continue;
            };
            let before = entries.len();
            entries.retain(|e| match e.release {
                Some(r) => r.hi >= low,
                None => true,
            });
            removed += before - entries.len();
            if entries.is_empty() {
                if let Some(list) = self.locks.remove(&key) {
                    if self.spare.len() < SPARE_LISTS && list.capacity() <= SPARE_LIST_ENTRIES {
                        self.spare.push(list);
                    }
                }
            }
        }
        self.total -= removed;
        removed
    }

    /// Total mirrored lock entries (footprint metric), O(1).
    #[must_use]
    pub fn lock_count(&self) -> usize {
        self.total
    }

    /// Number of records with at least one mirrored lock.
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.locks.len()
    }

    /// Cheap estimate of the table's live memory: every lock entry at
    /// its inline size, plus map-slot overhead per locked record.
    #[must_use]
    pub fn mem_usage(&self) -> crate::budget::MemUsage {
        let per_record = std::mem::size_of::<Key>() + 48;
        crate::budget::MemUsage::per_entry(self.total, std::mem::size_of::<LockEntry>() + 8)
            + crate::budget::MemUsage {
                bytes: (self.locks.len() * per_record) as u64,
                entries: 0,
            }
    }

    /// Flattens the table into plain-data snapshots, sorted by key.
    /// Per-key entry order (acquisition order) is preserved.
    #[must_use]
    pub fn snapshot(&self) -> Vec<KeyLocks> {
        let mut snaps: Vec<KeyLocks> = self
            .locks
            .iter()
            .map(|(&key, entries)| KeyLocks {
                key,
                entries: entries.clone(),
            })
            .collect();
        snaps.sort_unstable_by_key(|s| s.key);
        snaps
    }

    /// Rebuilds a table from [`KeyLocks`] produced by
    /// [`LockTable::snapshot`]. Every restored key is marked dirty so the
    /// next prune revisits it; `total` is recomputed.
    #[must_use]
    pub fn restore(snaps: &[KeyLocks]) -> LockTable {
        let mut locks: FxHashMap<Key, Vec<LockEntry>> = FxHashMap::default();
        let mut dirty = FxHashSet::default();
        let mut total = 0;
        for snap in snaps {
            total += snap.entries.len();
            dirty.insert(snap.key);
            locks.insert(snap.key, snap.entries.clone());
        }
        LockTable {
            locks,
            total,
            dirty,
            spare: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: u64, hi: u64) -> Interval {
        Interval::new(Timestamp(lo), Timestamp(hi))
    }

    #[test]
    fn serial_locks_deduce_order() {
        let mut lt = LockTable::default();
        lt.acquire(Key(1), TxnId(1), iv(0, 4));
        let mut out = Vec::new();
        lt.release_txn(TxnId(1), &[Key(1)], iv(5, 8), &mut out);
        assert!(out.is_empty(), "only one lock: nothing to check");
        lt.acquire(Key(1), TxnId(2), iv(10, 12));
        lt.release_txn(TxnId(2), &[Key(1)], iv(13, 15), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].1,
            LockCheck::Order {
                first: TxnId(1),
                second: TxnId(2),
                certain: true,
            }
        );
    }

    #[test]
    fn overlapping_acquires_still_deduce_single_order() {
        // Fig. 7(b): acquires overlap but only one serialization is feasible.
        let mut lt = LockTable::default();
        lt.acquire(Key(1), TxnId(1), iv(0, 6));
        lt.acquire(Key(1), TxnId(2), iv(5, 12));
        let mut out = Vec::new();
        lt.release_txn(TxnId(1), &[Key(1)], iv(7, 8), &mut out);
        assert!(out.is_empty(), "other lock still held: deferred");
        lt.release_txn(TxnId(2), &[Key(1)], iv(13, 15), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].1,
            LockCheck::Order {
                first: TxnId(1),
                second: TxnId(2),
                certain: false,
            }
        );
    }

    #[test]
    fn certainly_concurrent_holds_are_violations() {
        // Fig. 7(a): both acquires certainly precede both releases.
        let mut lt = LockTable::default();
        lt.acquire(Key(1), TxnId(1), iv(0, 10));
        lt.acquire(Key(1), TxnId(2), iv(1, 9));
        let mut out = Vec::new();
        lt.release_txn(TxnId(1), &[Key(1)], iv(11, 20), &mut out);
        lt.release_txn(TxnId(2), &[Key(1)], iv(12, 21), &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, LockCheck::Violation { .. }));
    }

    #[test]
    fn reacquire_by_same_txn_is_idempotent() {
        let mut lt = LockTable::default();
        lt.acquire(Key(1), TxnId(1), iv(0, 2));
        lt.acquire(Key(1), TxnId(1), iv(3, 4));
        assert_eq!(lt.lock_count(), 1);
        let mut out = Vec::new();
        lt.release_txn(TxnId(1), &[Key(1)], iv(5, 6), &mut out);
        // After release a new acquire by the same txn creates a new entry.
        lt.acquire(Key(1), TxnId(1), iv(10, 11));
        assert_eq!(lt.lock_count(), 2);
    }

    #[test]
    fn locks_on_different_keys_never_conflict() {
        let mut lt = LockTable::default();
        lt.acquire(Key(1), TxnId(1), iv(0, 10));
        lt.acquire(Key(2), TxnId(2), iv(1, 9));
        let mut out = Vec::new();
        lt.release_txn(TxnId(1), &[Key(1)], iv(11, 20), &mut out);
        lt.release_txn(TxnId(2), &[Key(2)], iv(12, 21), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn prune_drops_only_old_released() {
        let mut lt = LockTable::default();
        lt.acquire(Key(1), TxnId(1), iv(0, 2));
        let mut out = Vec::new();
        lt.release_txn(TxnId(1), &[Key(1)], iv(3, 4), &mut out);
        lt.acquire(Key(1), TxnId(2), iv(10, 12)); // still held
        lt.acquire(Key(2), TxnId(3), iv(0, 1));
        lt.release_txn(TxnId(3), &[Key(2)], iv(2, 3), &mut out);
        let removed = lt.prune(Timestamp(8));
        assert_eq!(removed, 2);
        assert_eq!(lt.lock_count(), 1);
        assert_eq!(lt.record_count(), 1);
    }

    #[test]
    fn three_way_conflicts_check_all_released_pairs() {
        let mut lt = LockTable::default();
        lt.acquire(Key(1), TxnId(1), iv(0, 2));
        lt.acquire(Key(1), TxnId(2), iv(10, 12));
        lt.acquire(Key(1), TxnId(3), iv(20, 22));
        let mut out = Vec::new();
        lt.release_txn(TxnId(1), &[Key(1)], iv(3, 4), &mut out);
        lt.release_txn(TxnId(2), &[Key(1)], iv(13, 14), &mut out);
        lt.release_txn(TxnId(3), &[Key(1)], iv(23, 24), &mut out);
        // Pairs: (2 vs 1), (3 vs 1), (3 vs 2).
        assert_eq!(out.len(), 3);
        assert!(out
            .iter()
            .all(|(_, c)| matches!(c, LockCheck::Order { .. })));
    }
}

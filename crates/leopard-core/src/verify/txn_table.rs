//! Per-transaction bookkeeping used by all four mechanism verifiers.

use super::version_store::VersionUid;
use crate::fxhash::FxHashMap;
use crate::interval::Interval;
use crate::types::{ClientId, Key, TxnId, Value};
use serde::{Deserialize, Serialize};

/// A read-set element uniquely matched to a version (§V-A): the source of
/// a wr dependency, buffered until the reading transaction commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatchedRead {
    /// The record that was read.
    pub key: Key,
    /// Stable id of the matched version.
    pub uid: VersionUid,
    /// The transaction that installed the matched version.
    pub writer: TxnId,
    /// The read operation's trace interval.
    pub read_op: Interval,
    /// `true` when the candidate set had size one, i.e. the match was
    /// already certain from non-overlapping intervals alone.
    pub interval_certain: bool,
}

/// Terminal state of a transaction as observed from its trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxnOutcome {
    /// Commit trace seen; the interval is the commit operation's.
    Committed(Interval),
    /// Abort trace seen; the interval is the abort operation's.
    Aborted(Interval),
}

/// Everything the verifier remembers about one transaction.
#[derive(Debug, Clone)]
pub struct TxnInfo {
    /// The client that ran the transaction.
    pub client: ClientId,
    /// Interval of the transaction's first operation: the snapshot
    /// generation interval for transaction-level consistent reads and the
    /// FUW concurrency check (Definition 2).
    pub first_op: Interval,
    /// Keys the transaction wrote (its lock set under ME).
    pub write_keys: Vec<Key>,
    /// Keys the transaction read-locked (SELECT ... FOR UPDATE).
    pub locked_read_keys: Vec<Key>,
    /// Last value written per key, for read-own-writes checks.
    pub own_writes: FxHashMap<Key, crate::types::Value>,
    /// Uniquely matched reads, flushed into wr/rw dependencies at commit.
    pub matched_reads: Vec<MatchedRead>,
    /// Terminal state, once the commit/abort trace arrives.
    pub outcome: Option<TxnOutcome>,
}

impl TxnInfo {
    /// `true` once the commit trace has been processed.
    #[must_use]
    pub fn is_committed(&self) -> bool {
        matches!(self.outcome, Some(TxnOutcome::Committed(_)))
    }

    /// The commit interval, if committed.
    #[must_use]
    pub fn commit_interval(&self) -> Option<Interval> {
        match self.outcome {
            Some(TxnOutcome::Committed(iv)) => Some(iv),
            _ => None,
        }
    }

    /// Interval of the terminal operation (commit or abort), if any.
    #[must_use]
    pub fn terminal_interval(&self) -> Option<Interval> {
        match self.outcome {
            Some(TxnOutcome::Committed(iv)) | Some(TxnOutcome::Aborted(iv)) => Some(iv),
            None => None,
        }
    }
}

/// Plain-data image of one [`TxnInfo`] entry, used by checkpointing.
///
/// Maps are flattened to sorted vectors so the offline-capable serde stub
/// (no `HashMap` impls, no generic derives) can round-trip it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TxnSnap {
    /// The transaction id.
    pub id: TxnId,
    /// The client that ran the transaction.
    pub client: ClientId,
    /// Snapshot-generation interval (first operation).
    pub first_op: Interval,
    /// Keys the transaction wrote.
    pub write_keys: Vec<Key>,
    /// Keys the transaction read-locked.
    pub locked_read_keys: Vec<Key>,
    /// Last value written per key, sorted by key.
    pub own_writes: Vec<(Key, Value)>,
    /// Uniquely matched reads, in match order.
    pub matched_reads: Vec<MatchedRead>,
    /// Terminal state, if the terminal trace has been seen.
    pub outcome: Option<TxnOutcome>,
}

/// The table of transactions currently relevant to verification.
///
/// Entries are created lazily at a transaction's first trace and removed by
/// garbage collection once the transaction is terminated and certainly
/// outside every unverified snapshot window.
#[derive(Debug, Default)]
pub struct TxnTable {
    txns: FxHashMap<TxnId, TxnInfo>,
}

impl TxnTable {
    /// Returns the entry for `txn`, creating it on first contact.
    ///
    /// `first_interval` is the interval of the trace that caused the
    /// contact; for a new entry it becomes the snapshot-generation
    /// interval.
    pub fn observe(
        &mut self,
        txn: TxnId,
        client: ClientId,
        first_interval: Interval,
    ) -> &mut TxnInfo {
        self.txns.entry(txn).or_insert_with(|| TxnInfo {
            client,
            first_op: first_interval,
            write_keys: Vec::new(),
            locked_read_keys: Vec::new(),
            own_writes: FxHashMap::default(),
            matched_reads: Vec::new(),
            outcome: None,
        })
    }

    /// Immutable lookup.
    #[must_use]
    pub fn get(&self, txn: TxnId) -> Option<&TxnInfo> {
        self.txns.get(&txn)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, txn: TxnId) -> Option<&mut TxnInfo> {
        self.txns.get_mut(&txn)
    }

    /// Number of tracked transactions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// `true` when no transaction is tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Cheap estimate of the table's live memory: every tracked
    /// transaction at its inline size plus a flat allowance for its key
    /// sets and own-write map.
    #[must_use]
    pub fn mem_usage(&self) -> crate::budget::MemUsage {
        crate::budget::MemUsage::per_entry(self.txns.len(), std::mem::size_of::<TxnInfo>() + 192)
    }

    /// The earliest snapshot-generation `ts_bef` among transactions that
    /// have not terminated yet — the verifier's GC low watermark. `None`
    /// when no transaction is active.
    #[must_use]
    pub fn earliest_active_snapshot(&self) -> Option<crate::types::Timestamp> {
        self.txns
            .values()
            .filter(|t| t.outcome.is_none())
            .map(|t| t.first_op.lo)
            .min()
    }

    /// Drops terminated transactions whose terminal interval ended before
    /// `low`, returning how many were removed.
    pub fn prune(&mut self, low: crate::types::Timestamp) -> usize {
        let before = self.txns.len();
        self.txns.retain(|_, info| match info.terminal_interval() {
            Some(iv) => iv.hi >= low,
            None => true,
        });
        before - self.txns.len()
    }

    /// The keys a transaction with no terminal trace yet is certain to
    /// touch again when it ends: its writes (committed or discarded
    /// there) and its matched reads (their dependencies are emitted
    /// there).
    pub fn open_keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.txns
            .values()
            .filter(|info| info.outcome.is_none())
            .flat_map(|info| {
                info.write_keys
                    .iter()
                    .copied()
                    .chain(info.matched_reads.iter().map(|m| m.key))
            })
    }

    /// Transactions with no terminal trace yet, sorted by id — the
    /// indeterminate set reported under degraded coverage.
    #[must_use]
    pub fn active_txns(&self) -> Vec<TxnId> {
        let mut ids: Vec<TxnId> = self
            .txns
            .iter()
            .filter(|(_, info)| info.outcome.is_none())
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Flattens the table into plain-data snapshots, sorted by id.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TxnSnap> {
        let mut snaps: Vec<TxnSnap> = self
            .txns
            .iter()
            .map(|(&id, info)| {
                let mut own_writes: Vec<(Key, Value)> =
                    info.own_writes.iter().map(|(&k, &v)| (k, v)).collect();
                own_writes.sort_unstable_by_key(|&(k, _)| k);
                TxnSnap {
                    id,
                    client: info.client,
                    first_op: info.first_op,
                    write_keys: info.write_keys.clone(),
                    locked_read_keys: info.locked_read_keys.clone(),
                    own_writes,
                    matched_reads: info.matched_reads.clone(),
                    outcome: info.outcome,
                }
            })
            .collect();
        snaps.sort_unstable_by_key(|s| s.id);
        snaps
    }

    /// Rebuilds a table from [`TxnSnap`]s produced by [`TxnTable::snapshot`].
    #[must_use]
    pub fn restore(snaps: &[TxnSnap]) -> TxnTable {
        let mut txns = FxHashMap::default();
        for snap in snaps {
            txns.insert(
                snap.id,
                TxnInfo {
                    client: snap.client,
                    first_op: snap.first_op,
                    write_keys: snap.write_keys.clone(),
                    locked_read_keys: snap.locked_read_keys.clone(),
                    own_writes: snap.own_writes.iter().copied().collect(),
                    matched_reads: snap.matched_reads.clone(),
                    outcome: snap.outcome,
                },
            );
        }
        TxnTable { txns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Timestamp, Value};

    fn iv(lo: u64, hi: u64) -> Interval {
        Interval::new(Timestamp(lo), Timestamp(hi))
    }

    #[test]
    fn observe_creates_once_and_keeps_first_interval() {
        let mut table = TxnTable::default();
        table.observe(TxnId(1), ClientId(0), iv(5, 6));
        table.observe(TxnId(1), ClientId(0), iv(9, 10));
        assert_eq!(table.get(TxnId(1)).unwrap().first_op, iv(5, 6));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn outcome_accessors() {
        let mut table = TxnTable::default();
        let info = table.observe(TxnId(1), ClientId(0), iv(0, 1));
        assert!(!info.is_committed());
        info.outcome = Some(TxnOutcome::Committed(iv(8, 9)));
        assert!(info.is_committed());
        assert_eq!(info.commit_interval(), Some(iv(8, 9)));
        assert_eq!(info.terminal_interval(), Some(iv(8, 9)));

        let info2 = table.observe(TxnId(2), ClientId(0), iv(0, 1));
        info2.outcome = Some(TxnOutcome::Aborted(iv(3, 4)));
        assert!(!info2.is_committed());
        assert_eq!(info2.commit_interval(), None);
        assert_eq!(info2.terminal_interval(), Some(iv(3, 4)));
    }

    #[test]
    fn earliest_active_snapshot_ignores_terminated() {
        let mut table = TxnTable::default();
        table.observe(TxnId(1), ClientId(0), iv(10, 11));
        table.observe(TxnId(2), ClientId(1), iv(4, 5));
        table.get_mut(TxnId(2)).unwrap().outcome = Some(TxnOutcome::Committed(iv(20, 21)));
        assert_eq!(table.earliest_active_snapshot(), Some(Timestamp(10)));
        table.get_mut(TxnId(1)).unwrap().outcome = Some(TxnOutcome::Aborted(iv(12, 13)));
        assert_eq!(table.earliest_active_snapshot(), None);
    }

    #[test]
    fn prune_drops_only_old_terminated() {
        let mut table = TxnTable::default();
        table.observe(TxnId(1), ClientId(0), iv(0, 1)).outcome =
            Some(TxnOutcome::Committed(iv(2, 3)));
        table.observe(TxnId(2), ClientId(0), iv(0, 1)); // active
        table.observe(TxnId(3), ClientId(0), iv(5, 6)).outcome =
            Some(TxnOutcome::Committed(iv(90, 91)));
        let removed = table.prune(Timestamp(50));
        assert_eq!(removed, 1);
        assert!(table.get(TxnId(1)).is_none());
        assert!(table.get(TxnId(2)).is_some());
        assert!(table.get(TxnId(3)).is_some());
    }

    #[test]
    fn own_writes_track_last_value() {
        let mut table = TxnTable::default();
        let info = table.observe(TxnId(1), ClientId(0), iv(0, 1));
        info.own_writes.insert(Key(1), Value(10));
        info.own_writes.insert(Key(1), Value(20));
        assert_eq!(info.own_writes.get(&Key(1)), Some(&Value(20)));
    }
}

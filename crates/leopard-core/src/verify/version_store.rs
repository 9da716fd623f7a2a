//! Ordered version lists and the candidate-version-set computation at the
//! core of consistent-read verification (§V-A, Theorem 2).
//!
//! For every record the verifier mirrors the version chain the DBMS must
//! have maintained. Versions are ordered by the after-timestamp of their
//! *installation* interval (the write operation's trace interval), exactly
//! as the paper prescribes. Visibility, however, is governed by the
//! *commit* interval of the installing transaction: a version can only
//! become visible to snapshots at the instant its transaction commits.
//! Using the commit interval for the five-way classification keeps the
//! check sound for long transactions whose writes happen far before their
//! commit (a refinement the paper leaves implicit — its Fig. 6 examples
//! have write and commit adjacent).

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::interval::Interval;
use crate::store::{RecordAddr, SpillTier, StoreResult};
use crate::types::{Key, Timestamp, TxnId, Value};
use serde::{Deserialize, Serialize};

/// Stable identity of a version, immune to list reshuffling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VersionUid(pub u64);

/// One mirrored record version.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VersionEntry {
    /// Stable id.
    pub uid: VersionUid,
    /// Value the version carries (the black-box identity of the version).
    pub value: Value,
    /// The transaction that installed it.
    pub txn: TxnId,
    /// Version installation time interval (Definition 1): the write
    /// operation's trace interval.
    pub install: Interval,
    /// Commit interval of the installing transaction once known; `None`
    /// while the transaction is still pending. A pending version is
    /// invisible to every snapshot.
    pub visibility: Option<Interval>,
    /// Snapshot-generation interval of the installing transaction (its
    /// first operation), kept here so FUW checks survive transaction-table
    /// garbage collection.
    pub writer_snapshot: Interval,
    /// Committed transactions whose reads were uniquely matched to this
    /// version, with each read operation's interval — the sources of
    /// future rw antidependencies.
    pub readers: Vec<(TxnId, Interval)>,
}

/// The paper's five-way classification of a version against a snapshot
/// generation interval (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionClass {
    /// Installed (committed) certainly after the snapshot: invisible.
    Future,
    /// Commit interval overlaps the snapshot interval: possibly visible.
    Overlap,
    /// The latest version certainly committed before the snapshot:
    /// possibly visible (it is what an exact snapshot "should" see).
    Pivot,
    /// Certainly before the snapshot but with a commit interval
    /// overlapping the pivot's: the order against the pivot is unknown, so
    /// possibly visible.
    PivotOverlap,
    /// Certainly overwritten before the snapshot: invisible.
    Garbage,
    /// Not yet committed: invisible to other transactions.
    Pending,
}

/// Versions of one record, ordered by `install.hi`.
#[derive(Debug, Default)]
pub struct RecordVersions {
    entries: Vec<VersionEntry>,
}

impl RecordVersions {
    /// All entries in installation order.
    #[must_use]
    pub fn entries(&self) -> &[VersionEntry] {
        &self.entries
    }

    /// The latest trace time the chain records: an install, a commit or
    /// a matched read of any version. The spill pass takes its victims in
    /// this order, oldest first; it is a function of the chain alone —
    /// trace time, never wall clock, no side table of access stamps — so
    /// the order is reproducible from a checkpoint image.
    fn last_touch(&self) -> Timestamp {
        self.entries
            .iter()
            .map(|e| {
                let written = e
                    .visibility
                    .map_or(e.install.hi, |v| v.hi.max(e.install.hi));
                e.readers.last().map_or(written, |(_, r)| written.max(r.hi))
            })
            .max()
            .unwrap_or(Timestamp::ZERO)
    }

    fn insert_sorted(&mut self, entry: VersionEntry) {
        // The stream is dispatched in ts_bef order, so installs almost
        // always append; fall back to insertion sort for stragglers.
        let pos = self
            .entries
            .iter()
            .rposition(|e| e.install.hi <= entry.install.hi)
            .map_or(0, |p| p + 1);
        self.entries.insert(pos, entry);
    }

    /// Classifies every committed entry against `snapshot`.
    ///
    /// Returns `(class per entry index)`, parallel to `entries`.
    #[must_use]
    pub fn classify(&self, snapshot: &Interval) -> Vec<VersionClass> {
        self.classified(snapshot).map(|(_, class)| class).collect()
    }

    /// The classification rule: every entry, in chain order, with its
    /// class against `snapshot`. [`RecordVersions::classify`] collects
    /// it; [`VersionStore::check_read`] folds it without a vector.
    fn classified<'a>(
        &'a self,
        snapshot: &'a Interval,
    ) -> impl Iterator<Item = (&'a VersionEntry, VersionClass)> + 'a {
        // The pivot is the past version with the latest commit
        // after-timestamp (the later entry on a tie); past versions
        // overlapping it are pivot-overlaps, the rest garbage.
        let pivot = self
            .entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match Rough::of(e, snapshot) {
                Rough::Past(vis) => Some((i, vis)),
                _ => None,
            })
            .max_by_key(|&(_, vis)| (vis.hi, vis.lo));
        self.entries.iter().enumerate().map(move |(i, e)| {
            let class = match Rough::of(e, snapshot) {
                Rough::Pending => VersionClass::Pending,
                Rough::Future => VersionClass::Future,
                Rough::Overlap => VersionClass::Overlap,
                Rough::Past(vis) => match pivot {
                    Some((p, _)) if i == p => VersionClass::Pivot,
                    Some((_, pivot_vis)) if vis.overlaps(&pivot_vis) => VersionClass::PivotOverlap,
                    Some(_) => VersionClass::Garbage,
                    // A past version exists, so a pivot was found above;
                    // degrade to possibly-visible rather than panic.
                    None => VersionClass::PivotOverlap,
                },
            };
            (e, class)
        })
    }
}

/// Where a version's commit interval lies against a snapshot interval,
/// before the pivot is known.
#[derive(Clone, Copy)]
enum Rough {
    Pending,
    Future,
    Overlap,
    /// Past version, carrying its (necessarily present) commit interval.
    Past(Interval),
}

impl Rough {
    fn of(e: &VersionEntry, snapshot: &Interval) -> Rough {
        match e.visibility {
            None => Rough::Pending,
            Some(vis) if snapshot.certainly_before(&vis) => Rough::Future,
            Some(vis) if vis.certainly_before(snapshot) => Rough::Past(vis),
            Some(_) => Rough::Overlap,
        }
    }
}

/// Result of checking one `(key, observed value)` element of a read set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadMatch {
    /// The read observed the transaction's own pending write.
    OwnWrite,
    /// Exactly one candidate version carries the observed value: a wr
    /// dependency on `writer` is deduced (§V-A, Alg. 2 lines 8–9).
    Unique {
        /// Installing transaction of the matched version.
        writer: TxnId,
        /// Stable id of the matched version.
        uid: VersionUid,
        /// `true` when the match was already unambiguous from
        /// non-overlapping intervals alone (candidate set of size one).
        interval_certain: bool,
    },
    /// Multiple candidates carry the observed value (duplicate writes):
    /// the dependency stays uncertain.
    Ambiguous {
        /// Number of candidates with the observed value.
        matches: usize,
    },
    /// No candidate version carries the observed value: a CR violation.
    Violation {
        /// Values the read was allowed to observe.
        candidates: Vec<Value>,
    },
}

/// One spilled record in a checkpoint's spill index: where its version
/// chain lives on disk and how many versions it holds (so footprint
/// accounting restores without reading the record).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpillIndexEntry {
    /// The spilled record.
    pub key: Key,
    /// Version count of the spilled chain.
    pub versions: u64,
    /// Durable address of the serialized chain.
    pub addr: RecordAddr,
}

/// Plain-data image of one record's version chain, used by checkpointing.
/// Entry order is the (resolved) installation order and must be preserved
/// exactly across a round-trip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KeyVersions {
    /// The record.
    pub key: Key,
    /// Its version chain, in installation order.
    pub entries: Vec<VersionEntry>,
}

/// What one [`VersionStore::prune`] pass removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneBreakdown {
    /// Version entries dropped from surviving records (certainly-dead
    /// versions below the pivot).
    pub versions: usize,
    /// Whole records removed from the store because no version remained
    /// (every version they ever held was aborted).
    pub records: usize,
}

impl PruneBreakdown {
    /// Total removals, versions and records combined.
    #[must_use]
    pub fn total(&self) -> usize {
        self.versions + self.records
    }
}

/// The mirrored multi-version store for all records.
#[derive(Debug, Default)]
pub struct VersionStore {
    records: FxHashMap<Key, RecordVersions>,
    next_uid: u64,
    /// Pending (uncommitted) version count, for footprint accounting.
    pending: usize,
    /// Total stored versions, maintained incrementally so footprint
    /// queries are O(1).
    total: usize,
    /// Keys touched since the last prune: garbage collection only needs
    /// to revisit these (a long-running workload may accumulate millions
    /// of quiescent records).
    dirty: FxHashSet<Key>,
    /// Disk-backed tier for cold records; `None` = everything resident.
    spill: Option<SpillTier>,
    /// Records paged out: where each chain lives, and how many versions
    /// it holds so that `total` (which includes spilled versions — the
    /// verification footprint is unchanged by *where* a version lives)
    /// stays exact without disk reads.
    spilled: FxHashMap<Key, Spilled>,
    /// Sum of the spilled version counts, maintained incrementally.
    spilled_total: usize,
}

/// One paged-out chain.
#[derive(Debug, Clone, Copy)]
struct Spilled {
    addr: RecordAddr,
    versions: usize,
}

/// Estimated memory of one resident version and one resident record
/// (inline size plus a flat allowance for the reader list and the map
/// slot), and of one spilled record's slot in the residency map.
const VERSION_BYTES: usize = std::mem::size_of::<VersionEntry>() + 32;
const RECORD_BYTES: usize = std::mem::size_of::<RecordVersions>() + 48;
const SPILLED_BYTES: usize = std::mem::size_of::<(Key, Spilled)>() + 16;

/// Resident bytes a spill pass hands the tier per append: bounds the
/// tier's write buffer (the encoding is smaller than the chain it
/// encodes unless reader lists are long) and what a pass holds outside
/// the map while an append is verified. A typical pass is one append;
/// at four times this the process's peak RSS was measurably higher.
const SPILL_BATCH_BYTES: usize = 16 * 1024;

impl VersionStore {
    /// Installs the initial (pre-workload) version of `key`.
    pub fn preload(&mut self, key: Key, value: Value) {
        let uid = self.fresh_uid();
        self.total += 1;
        self.records
            .entry(key)
            .or_default()
            .insert_sorted(VersionEntry {
                uid,
                value,
                txn: TxnId::INITIAL,
                install: Interval::GENESIS,
                visibility: Some(Interval::GENESIS),
                writer_snapshot: Interval::GENESIS,
                readers: Vec::new(),
            });
    }

    /// Mirrors a write: a pending version of `key` installed by `txn`
    /// within `install`. `writer_snapshot` is the installing transaction's
    /// snapshot-generation interval (needed later for FUW checks).
    pub fn install(
        &mut self,
        key: Key,
        value: Value,
        txn: TxnId,
        install: Interval,
        writer_snapshot: Interval,
    ) -> VersionUid {
        let uid = self.fresh_uid();
        self.total += 1;
        self.dirty.insert(key);
        self.records
            .entry(key)
            .or_default()
            .insert_sorted(VersionEntry {
                uid,
                value,
                txn,
                install,
                visibility: None,
                writer_snapshot,
                readers: Vec::new(),
            });
        self.pending += 1;
        uid
    }

    /// Marks every pending version of `txn` on `keys` as committed with
    /// `commit` as its visibility interval.
    pub fn commit(&mut self, txn: TxnId, keys: &[Key], commit: Interval) {
        for key in keys {
            self.dirty.insert(*key);
            if let Some(rec) = self.records.get_mut(key) {
                for e in &mut rec.entries {
                    if e.txn == txn && e.visibility.is_none() {
                        e.visibility = Some(commit);
                        self.pending -= 1;
                    }
                }
            }
        }
    }

    /// Discards every pending version of `txn` on `keys`.
    pub fn abort(&mut self, txn: TxnId, keys: &[Key]) {
        for key in keys {
            if let Some(rec) = self.records.get_mut(key) {
                let before = rec.entries.len();
                rec.entries
                    .retain(|e| !(e.txn == txn && e.visibility.is_none()));
                let removed = before - rec.entries.len();
                self.pending -= removed;
                self.total -= removed;
                if removed > 0 {
                    // The record may now be an empty husk (every version
                    // aborted); mark it so the next prune can drop it.
                    self.dirty.insert(*key);
                }
            }
        }
    }

    /// The version list of `key`, if any version was ever seen.
    #[must_use]
    pub fn record(&self, key: Key) -> Option<&RecordVersions> {
        self.assert_resident(key);
        self.records.get(&key)
    }

    /// Checks one read-set element against the candidate version set of
    /// `snapshot` (Alg. 2, `ConsistentRead`).
    ///
    /// `minimal` selects the Theorem-2 minimal candidate set; with it off
    /// (ablation) every non-future committed version is a candidate.
    #[must_use]
    pub fn check_read(
        &self,
        key: Key,
        observed: Value,
        snapshot: &Interval,
        minimal: bool,
    ) -> ReadMatch {
        let Some(rec) = self.records.get(&key) else {
            // Never-written key: only an unobserved initial state could
            // match, and the verifier preloads all initial state, so this
            // read invented a value.
            return ReadMatch::Violation { candidates: vec![] };
        };
        let candidate = |class: VersionClass| -> bool {
            match class {
                VersionClass::Overlap | VersionClass::Pivot | VersionClass::PivotOverlap => true,
                VersionClass::Garbage => !minimal,
                VersionClass::Future | VersionClass::Pending => false,
            }
        };
        let mut first_match: Option<&VersionEntry> = None;
        let mut n_matches = 0usize;
        let mut n_candidates = 0usize;
        for (e, class) in rec.classified(snapshot) {
            if candidate(class) {
                n_candidates += 1;
                if e.value == observed {
                    n_matches += 1;
                    first_match.get_or_insert(e);
                }
            }
        }
        match first_match {
            None => ReadMatch::Violation {
                candidates: rec
                    .classified(snapshot)
                    .filter(|&(_, class)| candidate(class))
                    .map(|(e, _)| e.value)
                    .collect(),
            },
            Some(e) if n_matches == 1 => ReadMatch::Unique {
                writer: e.txn,
                uid: e.uid,
                interval_certain: n_candidates == 1,
            },
            Some(_) => ReadMatch::Ambiguous { matches: n_matches },
        }
    }

    /// Registers `reader` (with its read-operation interval) on the
    /// version `uid` of `key`, for later rw derivation. No-op if the
    /// version has been pruned.
    pub fn add_reader(&mut self, key: Key, uid: VersionUid, reader: TxnId, read_op: Interval) {
        self.assert_resident(key);
        if let Some(rec) = self.records.get_mut(&key) {
            if let Some(e) = rec.entries.iter_mut().find(|e| e.uid == uid) {
                e.readers.push((reader, read_op));
            }
        }
    }

    /// The committed predecessor of `txn`'s committed version on `key` in
    /// installation order, together with the version itself:
    /// `(predecessor, successor)`.
    #[must_use]
    pub fn committed_adjacency(
        &self,
        key: Key,
        txn: TxnId,
    ) -> Option<(&VersionEntry, &VersionEntry)> {
        self.assert_resident(key);
        let rec = self.records.get(&key)?;
        let pos = rec
            .entries
            .iter()
            .position(|e| e.txn == txn && e.visibility.is_some())?;
        let pred = rec.entries[..pos]
            .iter()
            .rev()
            .find(|e| e.visibility.is_some())?;
        Some((pred, &rec.entries[pos]))
    }

    /// The committed neighbours of `txn`'s committed version on `key`:
    /// `(predecessor, self, successor)` in installation order.
    #[must_use]
    pub fn committed_neighbors(
        &self,
        key: Key,
        txn: TxnId,
    ) -> Option<(Option<&VersionEntry>, &VersionEntry, Option<&VersionEntry>)> {
        self.assert_resident(key);
        let rec = self.records.get(&key)?;
        let pos = rec
            .entries
            .iter()
            .position(|e| e.txn == txn && e.visibility.is_some())?;
        let pred = rec.entries[..pos]
            .iter()
            .rev()
            .find(|e| e.visibility.is_some());
        let succ = rec.entries[pos + 1..]
            .iter()
            .find(|e| e.visibility.is_some());
        Some((pred, &rec.entries[pos], succ))
    }

    /// The committed version directly following version `uid` of `key` in
    /// installation order, if any.
    #[must_use]
    pub fn committed_successor(&self, key: Key, uid: VersionUid) -> Option<&VersionEntry> {
        self.assert_resident(key);
        let rec = self.records.get(&key)?;
        let pos = rec.entries.iter().position(|e| e.uid == uid)?;
        rec.entries[pos + 1..]
            .iter()
            .find(|e| e.visibility.is_some())
    }

    /// Swaps the positions of two versions of `key` in the chain.
    ///
    /// Used when a mechanism (ME/FUW) proves the raw install-interval
    /// order wrong for an overlapping pair: the chain must reflect the
    /// resolved order, or rw derivation would point backwards.
    pub fn swap_entries(&mut self, key: Key, a: VersionUid, b: VersionUid) -> bool {
        self.assert_resident(key);
        let Some(rec) = self.records.get_mut(&key) else {
            return false;
        };
        let (Some(ia), Some(ib)) = (
            rec.entries.iter().position(|e| e.uid == a),
            rec.entries.iter().position(|e| e.uid == b),
        ) else {
            return false;
        };
        rec.entries.swap(ia, ib);
        true
    }

    /// All committed versions of `key` except those installed by `txn`
    /// (the FUW conflict candidates for a committing writer).
    pub fn committed_others(&self, key: Key, txn: TxnId) -> impl Iterator<Item = &VersionEntry> {
        self.assert_resident(key);
        self.records
            .get(&key)
            .map(|r| r.entries.as_slice())
            .unwrap_or(&[])
            .iter()
            .filter(move |e| e.txn != txn && e.txn != TxnId::INITIAL && e.visibility.is_some())
    }

    /// Drops versions certainly dead before `low`: committed versions whose
    /// visibility ended before `low` and which are *certainly overwritten*.
    ///
    /// For any snapshot taken after `low`, every such version is "past"
    /// (Fig. 6), so the candidate set will consist of the pivot plus the
    /// versions whose visibility interval overlaps the pivot's. Those must
    /// survive pruning — dropping a pivot-overlap version would turn a
    /// legal read of it into a false CR violation (the exact-commit order
    /// inside overlapping commit intervals is unknowable, so either
    /// version may be the one the DBMS actually serves). Only versions
    /// certainly before the pivot (garbage) are removed.
    ///
    /// Reader lists follow the reader, not the version: an entry on a
    /// surviving old version is dropped only when `live(reader)` is false
    /// — the reader's transaction ended before `low`, so no transaction
    /// still to commit can be concurrent with it. The age of the version
    /// says nothing: the pivot is still the head of its chain, and the rw
    /// edge from its readers to the *next* writer is derived only when
    /// that writer commits.
    ///
    /// Returns a [`PruneBreakdown`] of what was removed.
    pub fn prune(&mut self, low: Timestamp, live: impl Fn(TxnId) -> bool) -> PruneBreakdown {
        let mut out = PruneBreakdown::default();
        for key in self.dirty.drain() {
            let Some(rec) = self.records.get_mut(&key) else {
                continue;
            };
            if rec.entries.is_empty() {
                // An empty husk: every version it ever held was aborted.
                self.records.remove(&key);
                out.records += 1;
                continue;
            }
            // The pivot: latest old version by visibility after-timestamp.
            let Some(pivot_vis) = rec
                .entries
                .iter()
                .filter_map(|e| e.visibility.filter(|v| v.hi < low))
                .max_by_key(|v| (v.hi, v.lo))
            else {
                continue;
            };
            let before = rec.entries.len();
            rec.entries.retain(|e| {
                let Some(vis) = e.visibility else {
                    return true; // pending versions always survive
                };
                if vis.hi >= low {
                    return true; // recent versions always survive
                }
                // Old: survive iff pivot or pivot-overlap. The equality
                // test matters for degenerate (instant) intervals such as
                // the preloaded initial state, which would otherwise count
                // as "certainly before" themselves.
                vis == pivot_vis || !vis.certainly_before(&pivot_vis)
            });
            out.versions += before - rec.entries.len();
            for e in &mut rec.entries {
                if e.visibility.is_some_and(|v| v.hi < low) && !e.readers.is_empty() {
                    e.readers.retain(|&(reader, _)| live(reader));
                    if e.readers.is_empty() {
                        // Dead list: give the allocation back. One with
                        // live readers keeps its capacity — the next
                        // reader would only grow it again.
                        e.readers = Vec::new();
                    }
                }
            }
        }
        self.total -= out.versions;
        out
    }

    /// Cheap estimate of the store's live memory: every version entry at
    /// its inline size plus a flat allowance for its reader list, and
    /// every record at its map-slot overhead.
    #[must_use]
    pub fn mem_usage(&self) -> crate::budget::MemUsage {
        // Spilled versions cost disk, not memory: count residents only,
        // plus what remembering where the others went costs.
        let resident = self.total - self.spilled_total;
        crate::budget::MemUsage::per_entry(resident, VERSION_BYTES)
            + crate::budget::MemUsage {
                bytes: (self.records.len() * RECORD_BYTES + self.spilled.len() * SPILLED_BYTES)
                    as u64,
                entries: 0,
            }
    }

    /// Total number of mirrored versions (footprint metric), O(1).
    #[must_use]
    pub fn version_count(&self) -> usize {
        self.total
    }

    /// Number of records with at least one version, resident or spilled
    /// (the verification footprint is independent of where a chain
    /// lives).
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.records.len() + self.spilled.len()
    }

    fn fresh_uid(&mut self) -> VersionUid {
        self.next_uid += 1;
        VersionUid(self.next_uid)
    }

    /// The highest uid handed out so far (the checkpoint cursor for
    /// [`VersionStore::restore`]).
    #[must_use]
    pub fn next_uid(&self) -> u64 {
        self.next_uid
    }

    /// Flattens the store into plain-data snapshots, sorted by key.
    /// Per-key entry order (installation order) is preserved.
    #[must_use]
    pub fn snapshot(&self) -> Vec<KeyVersions> {
        let mut snaps: Vec<KeyVersions> = self
            .records
            .iter()
            .map(|(&key, rec)| KeyVersions {
                key,
                entries: rec.entries.clone(),
            })
            .collect();
        snaps.sort_unstable_by_key(|s| s.key);
        snaps
    }

    /// Rebuilds a store from [`KeyVersions`] produced by
    /// [`VersionStore::snapshot`]. `next_uid` must be the value reported by
    /// [`VersionStore::next_uid`] at snapshot time. The pending count and
    /// total are recomputed; every restored key is marked dirty so the next
    /// prune revisits it.
    #[must_use]
    pub fn restore(snaps: &[KeyVersions], next_uid: u64) -> VersionStore {
        let mut records: FxHashMap<Key, RecordVersions> = FxHashMap::default();
        let mut dirty = FxHashSet::default();
        let mut pending = 0;
        let mut total = 0;
        for snap in snaps {
            total += snap.entries.len();
            pending += snap
                .entries
                .iter()
                .filter(|e| e.visibility.is_none())
                .count();
            dirty.insert(snap.key);
            records.insert(
                snap.key,
                RecordVersions {
                    entries: snap.entries.clone(),
                },
            );
        }
        VersionStore {
            records,
            next_uid,
            pending,
            total,
            dirty,
            spill: None,
            spilled: FxHashMap::default(),
            spilled_total: 0,
        }
    }

    /// Attaches a disk-spilling tier. Until one is attached every record
    /// stays resident and the store behaves exactly as before.
    pub fn attach_spill(&mut self, tier: SpillTier) {
        self.spill = Some(tier);
    }

    /// `true` when a spill tier is attached.
    #[must_use]
    pub fn spill_attached(&self) -> bool {
        self.spill.is_some()
    }

    /// The attached tier, if any (stats and sync access).
    #[must_use]
    pub fn spill_tier(&self) -> Option<&SpillTier> {
        self.spill.as_ref()
    }

    /// `true` when `key`'s chain is currently paged out.
    #[must_use]
    pub fn is_spilled(&self, key: Key) -> bool {
        self.spilled.contains_key(&key)
    }

    /// Debug-build safety net: key-access methods must only see resident
    /// chains — a spilled chain would silently look like "no record",
    /// which is exactly the silent-wrong-verdict class the store module
    /// exists to kill. Callers fault records in first
    /// ([`VersionStore::ensure_resident`]).
    fn assert_resident(&self, key: Key) {
        debug_assert!(
            !self.is_spilled(key),
            "access to spilled record {key:?} without ensure_resident"
        );
    }

    /// Faults `key`'s chain back into memory if it is spilled. Returns
    /// `true` when a disk read actually happened. Fault-in does **not**
    /// mark the key dirty: residency is invisible to prune, so the GC
    /// trajectory (and therefore the verdict) is byte-identical to an
    /// unconstrained in-memory run.
    pub fn ensure_resident(&mut self, key: Key) -> StoreResult<bool> {
        let Some(spilled) = self.spilled.get(&key) else {
            return Ok(false);
        };
        #[expect(
            clippy::expect_used,
            reason = "`spilled` is non-empty only while a tier is attached"
        )]
        let tier = self.spill.as_ref().expect("spilled keys imply a tier");
        let snap = tier.take(key, &spilled.addr)?;
        self.spilled_total -= spilled.versions;
        self.spilled.remove(&key);
        self.records.insert(
            key,
            RecordVersions {
                entries: snap.entries,
            },
        );
        Ok(true)
    }

    /// Pages cold records out, coldest first (by the latest trace time
    /// the chain records, ties by key), until the store's
    /// own estimated usage drops to `target_bytes` or no candidate
    /// remains. A candidate is fully committed (no pending version), not
    /// touched since the last prune (not dirty) and not in `pinned` — the
    /// keys some open transaction is certain to come back to. Returns
    /// the number of records spilled.
    ///
    /// The victims go to the tier a batch at a time. On a tier write
    /// error the pass stops and the error is returned next to the count;
    /// the batch that failed stays resident (the in-memory copy is always
    /// authoritative until a verified write succeeds), so the caller can
    /// count the fallback and keep verifying.
    pub fn spill_cold(
        &mut self,
        target_bytes: u64,
        pinned: &FxHashSet<Key>,
    ) -> (usize, StoreResult<()>) {
        if self.spill.is_none() {
            return (0, Ok(()));
        }
        let mut usage = self.mem_usage().bytes;
        let mut victims: Vec<(Timestamp, Key)> = self
            .records
            .iter()
            .filter(|(k, rec)| {
                !self.dirty.contains(*k)
                    && !pinned.contains(*k)
                    && !rec.entries.is_empty()
                    && rec.entries.iter().all(|e| e.visibility.is_some())
            })
            .map(|(&k, rec)| (rec.last_touch(), k))
            .collect();
        victims.sort_unstable();
        let mut spilled = 0usize;
        let mut batch: Vec<KeyVersions> = Vec::new();
        let mut batch_bytes = 0usize;
        for (_, key) in victims {
            if usage <= target_bytes {
                break;
            }
            let Some(rec) = self.records.remove(&key) else {
                continue;
            };
            let resident = rec.entries.len() * VERSION_BYTES + RECORD_BYTES;
            usage = usage.saturating_sub(resident.saturating_sub(SPILLED_BYTES) as u64);
            batch_bytes += resident;
            batch.push(KeyVersions {
                key,
                entries: rec.entries,
            });
            if batch_bytes >= SPILL_BATCH_BYTES {
                if let Err(e) = self.spill_batch(&mut batch) {
                    return (spilled, Err(e));
                }
                spilled += batch.len();
                batch.clear();
                batch_bytes = 0;
            }
        }
        let last = self.spill_batch(&mut batch);
        (spilled + batch.len(), last)
    }

    /// Hands `batch` (records already taken out of `records`) to the
    /// tier and files their addresses; on failure puts them back and
    /// leaves the batch empty.
    fn spill_batch(&mut self, batch: &mut Vec<KeyVersions>) -> StoreResult<()> {
        let Some(tier) = self.spill.as_ref().filter(|_| !batch.is_empty()) else {
            return Ok(());
        };
        match tier.put_batch(batch) {
            Ok(addrs) => {
                for (snap, addr) in batch.iter().zip(addrs) {
                    let versions = snap.entries.len();
                    self.spilled.insert(snap.key, Spilled { addr, versions });
                    self.spilled_total += versions;
                }
                Ok(())
            }
            Err(e) => {
                for snap in batch.drain(..) {
                    self.records.insert(
                        snap.key,
                        RecordVersions {
                            entries: snap.entries,
                        },
                    );
                }
                Err(e)
            }
        }
    }

    /// The spill index as plain data for the incremental checkpoint:
    /// every paged-out record with its durable address and version count.
    /// Sorted by key (byte-stable).
    #[must_use]
    pub fn spill_index(&self) -> Vec<SpillIndexEntry> {
        let mut index: Vec<SpillIndexEntry> = self
            .spilled
            .iter()
            .map(|(&key, s)| SpillIndexEntry {
                key,
                versions: s.versions as u64,
                addr: s.addr,
            })
            .collect();
        index.sort_unstable_by_key(|e| e.key);
        index
    }

    /// Resume path: attaches `tier` and adopts a checkpointed spill
    /// index. The spilled versions are added back into the footprint
    /// totals without reading the records.
    pub fn adopt_spill(&mut self, tier: SpillTier, index: &[SpillIndexEntry]) {
        tier.adopt_live(index.iter().map(|e| e.addr));
        self.spilled = index
            .iter()
            .map(|e| {
                let versions = e.versions as usize;
                (
                    e.key,
                    Spilled {
                        addr: e.addr,
                        versions,
                    },
                )
            })
            .collect();
        self.spilled_total = self.spilled.values().map(|s| s.versions).sum();
        self.total += self.spilled_total;
        self.spill = Some(tier);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: u64, hi: u64) -> Interval {
        Interval::new(Timestamp(lo), Timestamp(hi))
    }

    /// Installs a committed version in one step (writer snapshot taken to
    /// be the write interval itself, which suffices for these tests).
    fn put(store: &mut VersionStore, key: u64, value: u64, txn: u64, w: (u64, u64), c: (u64, u64)) {
        store.install(
            Key(key),
            Value(value),
            TxnId(txn),
            iv(w.0, w.1),
            iv(w.0, w.1),
        );
        store.commit(TxnId(txn), &[Key(key)], iv(c.0, c.1));
    }

    #[test]
    fn classification_matches_figure_6() {
        let mut store = VersionStore::default();
        // Snapshot interval (100, 110). Versions around it:
        put(&mut store, 1, 10, 1, (10, 11), (20, 30)); // garbage
        put(&mut store, 1, 20, 2, (31, 32), (40, 60)); // pivot-overlap (overlaps pivot)
        put(&mut store, 1, 30, 3, (33, 34), (50, 70)); // pivot (latest past)
        put(&mut store, 1, 40, 4, (90, 95), (95, 105)); // overlap
        put(&mut store, 1, 50, 5, (115, 116), (120, 130)); // future
        let rec = store.record(Key(1)).unwrap();
        let classes = rec.classify(&iv(100, 110));
        assert_eq!(
            classes,
            vec![
                VersionClass::Garbage,
                VersionClass::PivotOverlap,
                VersionClass::Pivot,
                VersionClass::Overlap,
                VersionClass::Future,
            ]
        );
    }

    #[test]
    fn pending_versions_are_invisible() {
        let mut store = VersionStore::default();
        store.preload(Key(1), Value(0));
        store.install(Key(1), Value(9), TxnId(5), iv(10, 12), iv(10, 12));
        // Reader with snapshot after the pending install must still see the
        // initial value, not the uncommitted 9.
        match store.check_read(Key(1), Value(0), &iv(20, 21), true) {
            ReadMatch::Unique { writer, .. } => assert_eq!(writer, TxnId::INITIAL),
            other => panic!("expected unique initial match, got {other:?}"),
        }
        // Observing the pending value is a dirty read -> violation.
        assert!(matches!(
            store.check_read(Key(1), Value(9), &iv(20, 21), true),
            ReadMatch::Violation { .. }
        ));
    }

    #[test]
    fn future_versions_are_invisible() {
        let mut store = VersionStore::default();
        store.preload(Key(1), Value(0));
        put(&mut store, 1, 7, 2, (50, 51), (60, 61));
        // Snapshot (10, 20) precedes the commit: reading 7 is a violation.
        assert!(matches!(
            store.check_read(Key(1), Value(7), &iv(10, 20), true),
            ReadMatch::Violation { .. }
        ));
        assert!(matches!(
            store.check_read(Key(1), Value(0), &iv(10, 20), true),
            ReadMatch::Unique { .. }
        ));
    }

    #[test]
    fn garbage_versions_are_invisible_in_minimal_mode() {
        let mut store = VersionStore::default();
        store.preload(Key(1), Value(0)); // garbage once overwritten
        put(&mut store, 1, 5, 2, (10, 11), (12, 13)); // pivot for late snapshots
                                                      // Snapshot far later: initial value must not be visible.
        assert!(matches!(
            store.check_read(Key(1), Value(0), &iv(100, 101), true),
            ReadMatch::Violation { .. }
        ));
        // Non-minimal (ablation) candidate set admits stale reads.
        assert!(matches!(
            store.check_read(Key(1), Value(0), &iv(100, 101), false),
            ReadMatch::Unique { .. }
        ));
    }

    #[test]
    fn overlap_version_possibly_visible() {
        let mut store = VersionStore::default();
        store.preload(Key(1), Value(0));
        put(&mut store, 1, 5, 2, (95, 105), (95, 105)); // overlaps snapshot
        for value in [0u64, 5] {
            assert!(
                matches!(
                    store.check_read(Key(1), Value(value), &iv(100, 110), true),
                    ReadMatch::Unique { .. }
                ),
                "value {value} should be possibly visible"
            );
        }
    }

    #[test]
    fn duplicate_values_are_ambiguous() {
        let mut store = VersionStore::default();
        put(&mut store, 1, 42, 2, (10, 11), (12, 13));
        put(&mut store, 1, 42, 3, (95, 96), (99, 104)); // overlap with snapshot
        match store.check_read(Key(1), Value(42), &iv(100, 110), true) {
            ReadMatch::Ambiguous { matches } => assert_eq!(matches, 2),
            other => panic!("expected ambiguity, got {other:?}"),
        }
    }

    #[test]
    fn interval_certain_only_with_single_candidate() {
        let mut store = VersionStore::default();
        put(&mut store, 1, 1, 2, (10, 11), (12, 13)); // pivot, only candidate
        match store.check_read(Key(1), Value(1), &iv(100, 110), true) {
            ReadMatch::Unique {
                interval_certain, ..
            } => assert!(interval_certain),
            other => panic!("{other:?}"),
        }
        put(&mut store, 1, 2, 3, (95, 96), (99, 104)); // adds an overlap candidate
        match store.check_read(Key(1), Value(1), &iv(100, 110), true) {
            ReadMatch::Unique {
                interval_certain, ..
            } => assert!(!interval_certain),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn abort_discards_pending_versions() {
        let mut store = VersionStore::default();
        store.preload(Key(1), Value(0));
        store.install(Key(1), Value(9), TxnId(5), iv(10, 12), iv(10, 12));
        store.abort(TxnId(5), &[Key(1)]);
        assert_eq!(store.record(Key(1)).unwrap().entries().len(), 1);
        assert_eq!(store.version_count(), 1);
    }

    #[test]
    fn committed_adjacency_finds_direct_predecessor() {
        let mut store = VersionStore::default();
        store.preload(Key(1), Value(0));
        put(&mut store, 1, 5, 2, (10, 11), (12, 13));
        store.install(Key(1), Value(7), TxnId(3), iv(20, 21), iv(20, 21)); // pending: skipped
        put(&mut store, 1, 9, 4, (30, 31), (32, 33));
        let (pred, succ) = store.committed_adjacency(Key(1), TxnId(4)).unwrap();
        assert_eq!(pred.txn, TxnId(2));
        assert_eq!(succ.txn, TxnId(4));
    }

    #[test]
    fn prune_keeps_latest_old_version_as_pivot() {
        let mut store = VersionStore::default();
        store.preload(Key(1), Value(0));
        put(&mut store, 1, 1, 2, (10, 11), (12, 13));
        put(&mut store, 1, 2, 3, (20, 21), (22, 23));
        put(&mut store, 1, 3, 4, (90, 91), (92, 93));
        let removed = store.prune(Timestamp(50), |_| false);
        assert_eq!(removed.versions, 2); // initial + value 1 dropped
        assert_eq!(removed.records, 0);
        let rec = store.record(Key(1)).unwrap();
        assert_eq!(rec.entries().len(), 2);
        assert_eq!(rec.entries()[0].value, Value(2)); // surviving pivot
                                                      // Reads with recent snapshots still verify correctly.
        assert!(matches!(
            store.check_read(Key(1), Value(3), &iv(100, 110), true),
            ReadMatch::Unique { .. }
        ));
        assert!(matches!(
            store.check_read(Key(1), Value(0), &iv(100, 110), true),
            ReadMatch::Violation { .. }
        ));
    }

    #[test]
    fn out_of_order_install_keeps_list_sorted() {
        let mut store = VersionStore::default();
        put(&mut store, 1, 2, 3, (20, 25), (26, 27));
        put(&mut store, 1, 1, 2, (10, 12), (13, 14)); // arrives late
        let rec = store.record(Key(1)).unwrap();
        let values: Vec<Value> = rec.entries().iter().map(|e| e.value).collect();
        assert_eq!(values, vec![Value(1), Value(2)]);
    }

    #[test]
    fn never_written_key_is_violation() {
        let store = VersionStore::default();
        assert!(matches!(
            store.check_read(Key(99), Value(1), &iv(0, 1), true),
            ReadMatch::Violation { .. }
        ));
    }

    #[test]
    fn prune_exactly_at_watermark_boundary_keeps_boundary_version() {
        let mut store = VersionStore::default();
        store.preload(Key(1), Value(0));
        put(&mut store, 1, 1, 2, (10, 11), (12, 13));
        put(&mut store, 1, 2, 3, (20, 21), (22, 23));
        // low == vis.hi of value 2's version (23): `hi < low` is false, so
        // the boundary version is "recent" and must survive; value 1
        // (hi = 13 < 23) becomes the pivot and survives; only the initial
        // version is certainly before the pivot.
        let removed = store.prune(Timestamp(23), |_| false);
        assert_eq!(
            removed,
            PruneBreakdown {
                versions: 1,
                records: 0
            }
        );
        let values: Vec<Value> = store
            .record(Key(1))
            .unwrap()
            .entries()
            .iter()
            .map(|e| e.value)
            .collect();
        assert_eq!(values, vec![Value(1), Value(2)]);
        // One past the boundary: now value 2 is old, becomes the pivot,
        // and value 1 is certainly before it.
        store.install(Key(1), Value(3), TxnId(9), iv(100, 101), iv(100, 101));
        store.commit(TxnId(9), &[Key(1)], iv(102, 103));
        let removed = store.prune(Timestamp(24), |_| false);
        assert_eq!(removed.versions, 1);
        assert_eq!(store.record(Key(1)).unwrap().entries()[0].value, Value(2));
    }

    #[test]
    fn prune_is_idempotent_and_only_revisits_dirty_keys() {
        let mut store = VersionStore::default();
        store.preload(Key(1), Value(0));
        put(&mut store, 1, 1, 2, (10, 11), (12, 13));
        put(&mut store, 1, 2, 3, (20, 21), (22, 23));
        assert_eq!(store.prune(Timestamp(50), |_| false).versions, 2);
        // Nothing is dirty any more: a second pass with a higher horizon
        // must be a no-op until the key is touched again.
        assert_eq!(store.prune(Timestamp(500), |_| false).total(), 0);
        assert_eq!(store.version_count(), 1);
    }

    #[test]
    fn prune_keeps_live_readers_on_an_old_chain_head() {
        let mut store = VersionStore::default();
        put(&mut store, 1, 1, 2, (10, 11), (12, 13));
        let head = store.record(Key(1)).unwrap().entries()[0].uid;
        // Both read the head long ago; only txn 8 is still live at `low`
        // (it committed after it), so only its rw edge to the next writer
        // can still matter.
        store.add_reader(Key(1), head, TxnId(7), iv(20, 21));
        store.add_reader(Key(1), head, TxnId(8), iv(22, 23));
        assert_eq!(store.prune(Timestamp(50), |t| t == TxnId(8)).total(), 0);
        let readers = &store.record(Key(1)).unwrap().entries()[0].readers;
        assert_eq!(readers, &[(TxnId(8), iv(22, 23))]);
    }

    #[test]
    fn prune_drops_record_emptied_by_aborts() {
        let mut store = VersionStore::default();
        store.install(Key(7), Value(1), TxnId(2), iv(10, 11), iv(10, 11));
        store.abort(TxnId(2), &[Key(7)]);
        assert_eq!(store.record_count(), 1, "empty husk still in the map");
        let removed = store.prune(Timestamp(0), |_| false);
        assert_eq!(
            removed,
            PruneBreakdown {
                versions: 0,
                records: 1
            }
        );
        assert_eq!(store.record_count(), 0);
        assert_eq!(store.version_count(), 0);
    }

    #[test]
    fn committed_adjacency_and_successor_survive_pruning() {
        let mut store = VersionStore::default();
        store.preload(Key(1), Value(0));
        put(&mut store, 1, 1, 2, (10, 11), (12, 13));
        put(&mut store, 1, 2, 3, (20, 21), (22, 23));
        put(&mut store, 1, 3, 4, (90, 91), (92, 93));
        let pivot_uid = store
            .record(Key(1))
            .unwrap()
            .entries()
            .iter()
            .find(|e| e.value == Value(2))
            .unwrap()
            .uid;
        assert_eq!(store.prune(Timestamp(50), |_| false).versions, 2);
        // The pivot chain is intact: value 2 -> value 3 adjacency still
        // resolves for the surviving suffix of the version order.
        let succ = store.committed_successor(Key(1), pivot_uid).unwrap();
        assert_eq!(succ.value, Value(3));
        let (pred, succ) = store.committed_adjacency(Key(1), TxnId(4)).unwrap();
        assert_eq!(pred.txn, TxnId(3));
        assert_eq!(succ.txn, TxnId(4));
    }

    #[test]
    fn mem_usage_shrinks_after_prune() {
        let mut store = VersionStore::default();
        store.preload(Key(1), Value(0));
        for i in 0..20u64 {
            put(
                &mut store,
                1,
                i + 1,
                i + 2,
                (10 * i, 10 * i + 1),
                (10 * i + 2, 10 * i + 3),
            );
        }
        let before = store.mem_usage();
        assert_eq!(before.entries, 21);
        store.prune(Timestamp(1_000), |_| false);
        let after = store.mem_usage();
        assert!(after.bytes < before.bytes);
        assert_eq!(after.entries as usize, store.version_count());
    }
}

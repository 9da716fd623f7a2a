//! The four mechanism checks over the mirrored state, and nothing else
//! (§V, Fig. 11): consistent read, mutual exclusion, first updater wins
//! and the serialization certifier, fed one dispatched trace at a time.
//!
//! [`MechanismCore`] knows no resource policy. Its owner — the
//! [`super::Verifier`] — promises that every version chain a call will
//! look up is in memory beforehand ([`MechanismCore::touched_keys`] names
//! them) and decides when garbage is collected; the core promises the same
//! report, statistics and state for the same traces whatever the owner
//! does in between.

use super::{
    DepGraph, Footprint, LockCheck, LockTable, MatchedRead, ReadMatch, TxnOutcome, TxnTable,
    VerifierConfig, VersionEntry, VersionStore,
};
use crate::catalog::SnapshotLevel;
use crate::checkpoint::{Checkpoint, PendingReadSnap as PendingRead};
use crate::interval::{resolve_exclusive_pair, Interval, PairOrder};
use crate::obs;
use crate::report::{BugReport, Violation};
use crate::stats::{DeductionStats, DepKind};
use crate::trace::{OpKind, Trace};
use crate::types::{Key, Timestamp, TxnId, Value};
use crate::MemUsage;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One step `MechanismCore::link_version_adjacency` planned while it had
/// the version store borrowed: a dependency to count and, unless
/// unresolved, to add.
#[derive(Debug)]
struct Planned {
    from: TxnId,
    to: TxnId,
    kind: DepKind,
    bucket: u8, // 0 certain, 1 deduced, 2 uncertain (no edge)
}

/// The mirrored mechanism state and the checks over it.
#[derive(Debug)]
pub(super) struct MechanismCore {
    pub(super) cfg: VerifierConfig,
    pub(super) txns: TxnTable,
    pub(super) versions: VersionStore,
    pub(super) locks: LockTable,
    pub(super) graph: DepGraph,
    pub(super) report: BugReport,
    pub(super) stats: DeductionStats,
    /// Consistent-read checks deferred until the stream passes their
    /// snapshot (`due`), earliest first, ties in the order they were
    /// deferred.
    pending_reads: BinaryHeap<Reverse<PendingRead>>,
    pub(super) stream_pos: Timestamp,
    /// Traces applied.
    pub(super) traces: u64,
    pub(super) committed: u64,
    pub(super) aborted: u64,
    /// Peak [`Footprint::total`] seen at collections and at the end.
    pub(super) peak_footprint: usize,
    /// Consistent-read mismatches degraded mode declined to report since
    /// the owner last took them, one note each.
    pub(super) demoted: Vec<String>,
    // Scratch buffers reused across traces to avoid per-trace allocation.
    scratch_lock_checks: Vec<(Key, LockCheck)>,
    scratch_planned: Vec<Planned>,
}

impl MechanismCore {
    pub(super) fn new(cfg: VerifierConfig) -> MechanismCore {
        MechanismCore {
            cfg,
            txns: TxnTable::default(),
            versions: VersionStore::default(),
            locks: LockTable::default(),
            graph: DepGraph::default(),
            report: BugReport::default(),
            stats: DeductionStats::default(),
            pending_reads: BinaryHeap::new(),
            stream_pos: Timestamp::ZERO,
            traces: 0,
            committed: 0,
            aborted: 0,
            peak_footprint: 0,
            demoted: Vec::new(),
            scratch_lock_checks: Vec::new(),
            scratch_planned: Vec::new(),
        }
    }

    /// The core's half of [`super::Verifier::from_checkpoint`].
    pub(super) fn restore(ckpt: &Checkpoint) -> MechanismCore {
        MechanismCore {
            txns: TxnTable::restore(&ckpt.txns),
            versions: VersionStore::restore(&ckpt.versions, ckpt.next_uid),
            locks: LockTable::restore(&ckpt.locks),
            graph: DepGraph::restore(&ckpt.graph),
            report: ckpt.report.clone(),
            stats: ckpt.stats,
            pending_reads: ckpt.pending_reads.iter().copied().map(Reverse).collect(),
            stream_pos: ckpt.stream_pos,
            traces: ckpt.counters.traces,
            committed: ckpt.counters.committed,
            aborted: ckpt.counters.aborted,
            peak_footprint: ckpt.counters.peak_footprint,
            ..MechanismCore::new(ckpt.config)
        }
    }

    /// The deferred checks as an image carries them: sorted, so that equal
    /// states give equal bytes.
    pub(super) fn pending_snapshot(&self) -> Vec<PendingRead> {
        let mut pending: Vec<PendingRead> = self.pending_reads.iter().map(|r| r.0).collect();
        pending.sort_unstable();
        pending
    }

    /// Installs the initial database state: reads may observe these values
    /// before the first traced write commits.
    pub(super) fn preload(&mut self, key: Key, value: Value) {
        self.versions.preload(key, value);
    }

    /// Clock-skew tolerance: the interval widened so bounded
    /// synchronisation error cannot fabricate a "certain" order.
    fn widen(&self, interval: Interval) -> Interval {
        match self.cfg.clock_skew_bound {
            0 => interval,
            eps => Interval::new(
                Timestamp(interval.lo.0.saturating_sub(eps)),
                interval.hi.saturating_add(eps),
            ),
        }
    }

    /// Appends to `keys` every key whose version chain
    /// [`MechanismCore::apply`] will look up for `trace`: the ones its
    /// read or write set names, for a terminal the transaction's written
    /// keys and the keys of its matched reads (replayed at commit), and
    /// the keys of the deferred checks that come due at `trace`.
    pub(super) fn touched_keys(&self, trace: &Trace, keys: &mut Vec<Key>) {
        match &trace.op {
            OpKind::Read(set) | OpKind::LockedRead(set) | OpKind::Write(set) => {
                keys.extend(set.iter().map(|&(key, _)| key));
            }
            OpKind::Commit | OpKind::Abort => {
                if let Some(info) = self.txns.get(trace.txn) {
                    keys.extend(&info.write_keys);
                    keys.extend(info.matched_reads.iter().map(|m| m.key));
                }
            }
        }
        keys.extend(self.pending_keys(self.stream_pos.max(self.widen(trace.interval).lo)));
    }

    /// The key of every deferred check due at `up_to` ([`Timestamp::MAX`]:
    /// of every one).
    pub(super) fn pending_keys(&self, up_to: Timestamp) -> impl Iterator<Item = Key> + '_ {
        // Nothing due is the common case, and the front of the heap says so.
        let any_due = self.pending_reads.peek().is_some_and(|r| r.0.due <= up_to);
        let scanned = if any_due { self.pending_reads.len() } else { 0 };
        let due = self.pending_reads.iter().take(scanned);
        due.filter(move |r| r.0.due <= up_to).map(|r| r.0.key)
    }

    /// Applies one dispatched trace. Traces must arrive in non-decreasing
    /// `ts_bef` order (the pipeline guarantees this).
    pub(super) fn apply(&mut self, trace: &Trace) {
        // Only the interval is adjusted; the operation payload is borrowed.
        let interval = self.widen(trace.interval);
        self.stream_pos = self.stream_pos.max(interval.lo);
        self.flush_pending_reads(self.stream_pos);
        let me = self.cfg.mechanisms.mutual_exclusion;
        let cr = self.cfg.mechanisms.consistent_read;

        match &trace.op {
            OpKind::Read(set) => {
                self.txns.observe(trace.txn, trace.client, interval);
                for (ei, &(key, value)) in set.iter().enumerate() {
                    self.handle_read_element(trace.txn, interval, key, value, cr, false, ei as u64);
                }
            }
            OpKind::LockedRead(set) => {
                self.txns.observe(trace.txn, trace.client, interval);
                for (ei, &(key, value)) in set.iter().enumerate() {
                    if me {
                        self.locks.acquire(key, trace.txn, interval);
                        let info = self.txns.observe(trace.txn, trace.client, interval);
                        if !info.locked_read_keys.contains(&key) {
                            info.locked_read_keys.push(key);
                        }
                    }
                    // A locking read always observes the latest committed
                    // state: statement-level snapshot semantics.
                    self.handle_read_element(trace.txn, interval, key, value, cr, true, ei as u64);
                }
            }
            OpKind::Write(set) => {
                let snapshot = self
                    .txns
                    .observe(trace.txn, trace.client, interval)
                    .first_op;
                for &(key, value) in set {
                    self.versions
                        .install(key, value, trace.txn, interval, snapshot);
                    if me {
                        self.locks.acquire(key, trace.txn, interval);
                    }
                    let info = self.txns.observe(trace.txn, trace.client, interval);
                    if info.own_writes.insert(key, value).is_none() {
                        info.write_keys.push(key);
                    }
                }
            }
            OpKind::Commit => {
                self.txns.observe(trace.txn, trace.client, interval);
                self.handle_commit(trace.txn, interval);
            }
            OpKind::Abort => {
                self.txns.observe(trace.txn, trace.client, interval);
                self.handle_abort(trace.txn, interval);
            }
        }
        self.traces += 1;
        obs::ctr(obs::Counter::OpsIngested, 1);
    }

    /// Runs every check still deferred and returns the transactions that
    /// never got a terminal trace.
    pub(super) fn finish(&mut self) -> Vec<TxnId> {
        self.flush_pending_reads(Timestamp::MAX);
        self.peak_footprint = self.peak_footprint.max(self.footprint().total());
        self.txns.active_txns()
    }

    /// Cheap estimate of the live memory across the four mirrored
    /// mechanism structures and the deferred read checks.
    pub(super) fn mem_usage(&self) -> MemUsage {
        self.versions.mem_usage()
            + self.locks.mem_usage()
            + self.graph.mem_usage()
            + self.txns.mem_usage()
            + MemUsage::per_entry(self.pending_reads.len(), 96)
    }

    /// Current footprint of the mirrored structures, in entries.
    pub(super) fn footprint(&self) -> Footprint {
        Footprint {
            versions: self.versions.version_count(),
            locks: self.locks.lock_count(),
            graph_nodes: self.graph.node_count(),
            graph_edges: self.graph.edge_count(),
            txns: self.txns.len(),
            pending_checks: self.pending_reads.len(),
        }
    }

    // ----- consistent read ------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn handle_read_element(
        &mut self,
        txn: TxnId,
        op_interval: Interval,
        key: Key,
        observed: Value,
        cr: Option<SnapshotLevel>,
        force_statement: bool,
        elem: u64,
    ) {
        let Some(level) = cr else { return };
        let Some(info) = self.txns.get(txn) else {
            return;
        };

        // Case 1 (§V-A): the operation sees changes made by earlier
        // operations within the same transaction.
        if let Some(&own) = info.own_writes.get(&key) {
            if own != observed {
                if self.cfg.degraded {
                    // A dropped write delivery of the same transaction can
                    // make the last *observed* own-write stale: demote.
                    self.demoted.push(format!(
                        "demoted: {txn} read {observed} of {key} over own write {own} \
                         (possible missing write delivery)"
                    ));
                } else {
                    self.report.violations.push(Violation::ConsistentRead {
                        reader: txn,
                        key,
                        observed,
                        snapshot: op_interval,
                        candidates: vec![own],
                    });
                }
            }
            return;
        }

        let snapshot = match (level, force_statement) {
            (SnapshotLevel::Transaction, false) => info.first_op,
            _ => op_interval,
        };
        // Defer until the stream position passes the snapshot's after
        // timestamp: beyond that point every commit that could possibly
        // overlap the snapshot interval has been dispatched.
        let check = PendingRead {
            due: snapshot.hi,
            born_seq: self.traces,
            born_elem: elem,
            reader: txn,
            key,
            observed,
            snapshot,
            read_op: op_interval,
        };
        if check.due <= self.stream_pos {
            self.run_read_check(&check);
        } else {
            self.pending_reads.push(Reverse(check));
        }
    }

    fn flush_pending_reads(&mut self, up_to: Timestamp) {
        while self
            .pending_reads
            .peek()
            .is_some_and(|Reverse(front)| front.due <= up_to)
        {
            if let Some(Reverse(check)) = self.pending_reads.pop() {
                self.run_read_check(&check);
            }
        }
    }

    fn run_read_check(&mut self, check: &PendingRead) {
        match self.versions.check_read(
            check.key,
            check.observed,
            &check.snapshot,
            self.cfg.minimal_candidate_set,
        ) {
            ReadMatch::OwnWrite => {}
            ReadMatch::Unique {
                writer,
                uid,
                interval_certain,
            } => {
                if interval_certain {
                    self.stats.wr.certain += 1;
                } else {
                    self.stats.wr.deduced += 1;
                }
                if let Some(info) = self.txns.get_mut(check.reader) {
                    let matched = MatchedRead {
                        key: check.key,
                        uid,
                        writer,
                        read_op: check.read_op,
                        interval_certain,
                    };
                    match info.outcome {
                        // Reader still running: buffer until its commit.
                        None => info.matched_reads.push(matched),
                        // Commit already processed (possible only with
                        // degenerate zero-width intervals): emit directly.
                        Some(TxnOutcome::Committed(_)) => {
                            self.emit_matched_read(check.reader, &matched)
                        }
                        Some(TxnOutcome::Aborted(_)) => {}
                    }
                }
            }
            ReadMatch::Ambiguous { .. } => {
                self.stats.wr.uncertain += 1;
            }
            ReadMatch::Violation { candidates } => {
                // Degraded mode: every unmatched read is demoted to a
                // coverage note. This is deliberate and total — with the
                // stream known to be incomplete, *no* consistent-read
                // mismatch is trustworthy evidence of a DBMS bug:
                //
                // * observed value absent from the version store → its
                //   write delivery may simply have been dropped (a
                //   fabricated value is indistinguishable from a dropped
                //   write);
                // * observed value present but pending → the writer's
                //   commit delivery may have been dropped;
                // * observed value committed but outside the candidate
                //   window → dropped deliveries cannot move commit
                //   intervals, but a dropped intermediate write splices
                //   the overwrite chain, which shrinks the candidate set
                //   until a genuinely current read looks stale.
                //
                // Zero false positives under chaos therefore costs the
                // consistent-read check its entire degraded-mode power;
                // each demotion is counted and noted so an operator can
                // re-verify an intact capture of the same run. Mutual
                // exclusion, first-updater-wins and the serialization
                // certifier keep full power — their evidence is commit
                // intervals, which mangling cannot move.
                if self.cfg.degraded {
                    self.demoted.push(format!(
                        "demoted: {} read {} of {} matched no candidate \
                         (explainable by a missing delivery)",
                        check.reader, check.observed, check.key
                    ));
                    return;
                }
                self.report.violations.push(Violation::ConsistentRead {
                    reader: check.reader,
                    key: check.key,
                    observed: check.observed,
                    snapshot: check.snapshot,
                    candidates,
                });
            }
        }
    }

    /// Installs the wr edge and (with dependency transfer on) derives the
    /// rw edge to the already-committed direct successor, for a committed
    /// reader.
    fn emit_matched_read(&mut self, reader: TxnId, m: &MatchedRead) {
        self.versions.add_reader(m.key, m.uid, reader, m.read_op);
        if m.writer != TxnId::INITIAL {
            self.add_dep(m.writer, reader, DepKind::Wr);
        }
        if self.cfg.dep_transfer {
            if let Some(succ) = self.versions.committed_successor(m.key, m.uid) {
                let succ_txn = succ.txn;
                let certain = m.read_op.certainly_before(&succ.install);
                if certain {
                    self.stats.rw.certain += 1;
                } else {
                    self.stats.rw.deduced += 1;
                }
                self.add_dep(reader, succ_txn, DepKind::Rw);
            }
        }
    }

    // ----- commit / abort ---------------------------------------------------

    fn handle_commit(&mut self, txn: TxnId, commit: Interval) {
        let Some(info) = self.txns.get_mut(txn) else {
            return;
        };
        if info.outcome.is_some() {
            return; // duplicate terminal trace: ignore
        }
        info.outcome = Some(TxnOutcome::Committed(commit));
        let snapshot = info.first_op;
        // Taken, not cloned: nothing below reads this transaction's entry,
        // and both lists go back when the commit is through.
        let write_keys = std::mem::take(&mut info.write_keys);
        let locked_read_keys = std::mem::take(&mut info.locked_read_keys);
        let matched_reads = std::mem::take(&mut info.matched_reads);
        self.committed += 1;

        // Mutual exclusion: release all locks, checking pairs (§V-B).
        // Orders are re-derived during version adjacency below.
        self.release_locks(txn, &write_keys, &locked_read_keys, commit);

        // Install versions: they become visible within the commit interval.
        self.versions.commit(txn, &write_keys, commit);

        // Serialization certifier: node plus the dependencies this commit
        // completes.
        self.graph.add_node(txn, snapshot, commit);

        // wr edges (and derived rw edges) from this transaction's reads.
        for m in &matched_reads {
            self.emit_matched_read(txn, m);
        }

        // FUW + ww adjacency per written key.
        for &key in &write_keys {
            if self.cfg.mechanisms.first_updater_wins {
                self.check_fuw(txn, key, snapshot, commit);
            }
            self.settle_version_order(txn, key);
            self.link_version_adjacency(txn, key);
        }
        self.restore_key_lists(txn, write_keys, locked_read_keys);
    }

    /// Hands back the key lists a terminal took out of `txn`'s entry.
    fn restore_key_lists(&mut self, txn: TxnId, write_keys: Vec<Key>, locked_read_keys: Vec<Key>) {
        if let Some(info) = self.txns.get_mut(txn) {
            info.write_keys = write_keys;
            info.locked_read_keys = locked_read_keys;
        }
    }

    /// Mirrors the release, at a terminal, of every lock `txn` held (on its
    /// written keys, then its locked-read keys) and reports each holder
    /// pair that was certainly concurrent.
    fn release_locks(
        &mut self,
        txn: TxnId,
        write_keys: &[Key],
        locked_read_keys: &[Key],
        release: Interval,
    ) {
        if !self.cfg.mechanisms.mutual_exclusion {
            return;
        }
        let mut checks = std::mem::take(&mut self.scratch_lock_checks);
        self.locks
            .release_txn(txn, write_keys, release, &mut checks);
        self.locks
            .release_txn(txn, locked_read_keys, release, &mut checks);
        for (key, check) in checks.drain(..) {
            if let LockCheck::Violation { own_acquire, other } = check {
                self.report.violations.push(Violation::MutualExclusion {
                    key,
                    first: (txn, own_acquire, release),
                    second: other,
                });
            }
        }
        self.scratch_lock_checks = checks;
    }

    /// Moves `txn`'s freshly committed version to its mechanism-resolved
    /// position in `key`'s chain.
    ///
    /// The chain is kept in install-interval order, but for overlapping
    /// installs that order is only a guess; when ME (lock spans) or FUW
    /// (snapshot-commit spans) proves the opposite order for an adjacent
    /// pair, the entries are swapped. Without this, rw antidependencies
    /// derived from "readers of the predecessor" could point backwards in
    /// time and fabricate certifier violations.
    fn settle_version_order(&mut self, txn: TxnId, key: Key) {
        let me_spans = self.cfg.mechanisms.mutual_exclusion;
        let fuw_spans = self.cfg.mechanisms.first_updater_wins;
        if !me_spans && !fuw_spans {
            return; // no mechanism resolves overlapping orders
        }
        loop {
            let Some((pred, me_entry, succ)) = self.versions.committed_neighbors(key, txn) else {
                return;
            };
            let my_uid = me_entry.uid;
            let my_install = me_entry.install;
            let my_snapshot = me_entry.writer_snapshot;
            let Some(my_commit) = me_entry.visibility else {
                return;
            };
            // An uncommitted neighbour resolves no order (`None`): no swap.
            let resolve_with = |other: &VersionEntry| {
                let other_commit = other.visibility?;
                Some(if me_spans {
                    resolve_exclusive_pair(&my_install, &my_commit, &other.install, &other_commit)
                } else {
                    resolve_exclusive_pair(
                        &my_snapshot,
                        &my_commit,
                        &other.writer_snapshot,
                        &other_commit,
                    )
                })
            };
            // Does the resolved order contradict the chain order?
            let mut swap_with = None;
            if let Some(p) = pred {
                if p.txn != TxnId::INITIAL
                    && my_install.overlaps(&p.install)
                    && resolve_with(p) == Some(PairOrder::FirstThenSecond)
                {
                    // I certainly precede my chain predecessor: swap.
                    swap_with = Some(p.uid);
                }
            }
            if swap_with.is_none() {
                if let Some(s) = succ {
                    if my_install.overlaps(&s.install)
                        && resolve_with(s) == Some(PairOrder::SecondThenFirst)
                    {
                        // My chain successor certainly precedes me: swap.
                        swap_with = Some(s.uid);
                    }
                }
            }
            match swap_with {
                Some(other_uid) => {
                    self.versions.swap_entries(key, my_uid, other_uid);
                }
                None => return,
            }
        }
    }

    fn handle_abort(&mut self, txn: TxnId, abort: Interval) {
        let Some(info) = self.txns.get_mut(txn) else {
            return;
        };
        if info.outcome.is_some() {
            return;
        }
        info.outcome = Some(TxnOutcome::Aborted(abort));
        let write_keys = std::mem::take(&mut info.write_keys);
        let locked_read_keys = std::mem::take(&mut info.locked_read_keys);
        info.matched_reads.clear();
        self.aborted += 1;

        // Locks were held regardless of the outcome: ME violations between
        // an aborted and any other transaction are still bugs.
        self.release_locks(txn, &write_keys, &locked_read_keys, abort);

        // Aborted versions are discarded (§II-A).
        self.versions.abort(txn, &write_keys);
        self.restore_key_lists(txn, write_keys, locked_read_keys);
    }

    /// First-updater-wins (§V-C, Alg. 2): for every other committed writer
    /// of `key`, either a serial order is deducible (ww) or the two
    /// updates were certainly concurrent — a lost update.
    fn check_fuw(&mut self, txn: TxnId, key: Key, snapshot: Interval, commit: Interval) {
        let mut violations = Vec::new();
        for other in self.versions.committed_others(key, txn) {
            let Some(other_commit) = other.visibility else {
                continue;
            };
            match resolve_exclusive_pair(&snapshot, &commit, &other.writer_snapshot, &other_commit)
            {
                PairOrder::CertainlyConcurrent => {
                    violations.push((other.txn, other.writer_snapshot, other_commit))
                }
                // Serial orders: the ww dependency is recorded by version
                // adjacency (link_version_adjacency); pairwise resolutions
                // beyond adjacency are implied transitively.
                PairOrder::FirstThenSecond | PairOrder::SecondThenFirst => {}
            }
        }
        for (other_txn, other_snapshot, other_commit) in violations {
            self.report.violations.push(Violation::FirstUpdaterWins {
                key,
                first: (txn, snapshot, commit),
                second: (other_txn, other_snapshot, other_commit),
            });
        }
    }

    /// Emits ww edges between `txn`'s freshly committed version on `key`
    /// and its committed neighbours, plus rw edges from the predecessor's
    /// readers (Fig. 9 derivation).
    fn link_version_adjacency(&mut self, txn: TxnId, key: Key) {
        let mut planned = std::mem::take(&mut self.scratch_planned);
        'plan: {
            let Some((pred, me_entry, succ)) = self.versions.committed_neighbors(key, txn) else {
                break 'plan;
            };
            let my_install = me_entry.install;
            let Some(my_commit) = me_entry.visibility else {
                break 'plan;
            };
            let my_snapshot = me_entry.writer_snapshot;
            // `None` for an uncommitted neighbour: no ww edge to plan.
            let plan_pair = |other: &VersionEntry, other_is_pred: bool| -> Option<Planned> {
                let other_commit = other.visibility?;
                let overlap = my_install.overlaps(&other.install);
                let (from, to, bucket);
                if !overlap {
                    // Installation order is certain.
                    if other_is_pred {
                        from = other.txn;
                        to = txn;
                    } else {
                        from = txn;
                        to = other.txn;
                    }
                    bucket = 0;
                } else if self.cfg.mechanisms.mutual_exclusion {
                    // Locks pin the order: hold span is install..commit.
                    match resolve_exclusive_pair(
                        &my_install,
                        &my_commit,
                        &other.install,
                        &other_commit,
                    ) {
                        PairOrder::FirstThenSecond => {
                            from = txn;
                            to = other.txn;
                            bucket = 1;
                        }
                        PairOrder::SecondThenFirst => {
                            from = other.txn;
                            to = txn;
                            bucket = 1;
                        }
                        // Certain concurrency was already reported by the
                        // ME lock check; no order is deducible.
                        PairOrder::CertainlyConcurrent => {
                            from = txn;
                            to = other.txn;
                            bucket = 2;
                        }
                    }
                } else if self.cfg.mechanisms.first_updater_wins {
                    // FUW pins the order via snapshot..commit spans.
                    match resolve_exclusive_pair(
                        &my_snapshot,
                        &my_commit,
                        &other.writer_snapshot,
                        &other_commit,
                    ) {
                        PairOrder::FirstThenSecond => {
                            from = txn;
                            to = other.txn;
                            bucket = 1;
                        }
                        PairOrder::SecondThenFirst => {
                            from = other.txn;
                            to = txn;
                            bucket = 1;
                        }
                        PairOrder::CertainlyConcurrent => {
                            from = txn;
                            to = other.txn;
                            bucket = 2;
                        }
                    }
                } else {
                    // No mechanism resolves overlapping blind writes
                    // (e.g. pure OCC): the dependency stays uncertain.
                    from = txn;
                    to = other.txn;
                    bucket = 2;
                }
                Some(Planned {
                    from,
                    to,
                    kind: DepKind::Ww,
                    bucket,
                })
            };
            if let Some(pred) = pred {
                if pred.txn != TxnId::INITIAL {
                    planned.extend(plan_pair(pred, true));
                } else {
                    planned.push(Planned {
                        from: TxnId::INITIAL,
                        to: txn,
                        kind: DepKind::Ww,
                        bucket: 3, // initial: no edge, no stats
                    });
                }
                // rw edges: readers of the direct predecessor antidepend on
                // this writer (Fig. 9).
                if self.cfg.dep_transfer {
                    for &(reader, read_op) in &pred.readers {
                        if reader == txn {
                            continue;
                        }
                        let certain = read_op.certainly_before(&my_install);
                        planned.push(Planned {
                            from: reader,
                            to: txn,
                            kind: DepKind::Rw,
                            bucket: u8::from(!certain),
                        });
                    }
                }
            }
            if let Some(succ) = succ {
                // Out-of-order commit: this version's successor committed
                // first, so the pair was never linked.
                planned.extend(plan_pair(succ, false));
            }
        }
        for p in planned.drain(..) {
            match (p.kind, p.bucket) {
                (DepKind::Ww, 0) => self.stats.ww.certain += 1,
                (DepKind::Ww, 1) => self.stats.ww.deduced += 1,
                (DepKind::Ww, 2) => {
                    self.stats.ww.uncertain += 1;
                    continue; // no edge for unresolved pairs
                }
                (DepKind::Ww, _) => {
                    continue; // initial-state predecessor: nothing to add
                }
                (DepKind::Rw, 0) => self.stats.rw.certain += 1,
                (DepKind::Rw, _) => self.stats.rw.deduced += 1,
                (DepKind::Wr, _) => unreachable!("wr edges are planned elsewhere"),
            }
            self.add_dep(p.from, p.to, p.kind);
        }
        self.scratch_planned = planned;
    }

    /// Adds a dependency edge and reports any certifier-rule match.
    fn add_dep(&mut self, from: TxnId, to: TxnId, kind: DepKind) {
        let rule = self.cfg.mechanisms.certifier;
        if let Some(v) = self.graph.add_edge(from, to, kind, rule) {
            self.report
                .violations
                .push(Violation::SerializationCertifier {
                    pattern: v.pattern.to_string(),
                    txns: v.txns,
                });
        }
    }

    /// Periodic pruning of structures no active transaction can still
    /// conflict with (§V complexity-analysis paragraphs; Definition 4).
    pub(super) fn collect_garbage(&mut self) {
        let before = self.footprint().total();
        self.peak_footprint = self.peak_footprint.max(before);
        let t0 = obs::timer_start();
        let mut low = self
            .txns
            .earliest_active_snapshot()
            .unwrap_or(self.stream_pos)
            .min(self.stream_pos);
        if let Some(pending_low) = self
            .pending_reads
            .iter()
            .map(|Reverse(p)| p.snapshot.lo)
            .min()
        {
            low = low.min(pending_low);
        }
        // The table first: what it still holds after its own pass is the
        // liveness rule the reader lists are pruned by.
        self.txns.prune(low);
        let txns = &self.txns;
        self.versions
            .prune(low, |reader| txns.get(reader).is_some());
        self.locks.prune(low);
        self.graph.prune(low);
        if t0.is_some() {
            obs::hist(obs::HistId::GcPauseUs, obs::timer_end(t0));
            obs::ctr(obs::Counter::GcPasses, 1);
            let after = self.footprint().total();
            obs::ctr(
                obs::Counter::GcReclaimedEntries,
                before.saturating_sub(after) as u64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::CaptureReader;
    use crate::catalog::IsolationLevel;
    use crate::verify::Verifier;

    /// The governor is verdict-neutral when it has nothing to govern: the
    /// core driven alone — applying traces, collecting when told — and a
    /// [`Verifier`] at an unlimited budget end in the same report,
    /// statistics, counters and footprint, on every corpus capture at every
    /// level, degraded mode on and off. Cells in which the quarantine gate
    /// holds a trace back are the governor's doing and are skipped.
    #[test]
    fn the_core_alone_equals_the_verifier_with_nothing_to_govern() {
        let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
        let (mut cells, mut quarantined, mut demoted, mut collected) = (0, 0, 0, 0);
        for entry in std::fs::read_dir(corpus).expect("tests/corpus exists") {
            let path = entry.expect("dir entry").path();
            if path.extension().and_then(|x| x.to_str()) != Some("jsonl") {
                continue;
            }
            let file = std::fs::File::open(&path).expect("open capture");
            let reader = CaptureReader::new(file).expect("capture header");
            let preload = reader.header().preload.clone();
            let traces: Vec<Trace> = reader.map(|t| t.expect("well-formed trace")).collect();
            for level in [
                IsolationLevel::ReadCommitted,
                IsolationLevel::RepeatableRead,
                IsolationLevel::SnapshotIsolation,
                IsolationLevel::Serializable,
            ] {
                for degraded in [false, true] {
                    let what = format!("{} @ {level:?}, degraded {degraded}", path.display());
                    let mut cfg = VerifierConfig::for_level(level);
                    cfg.degraded = degraded;
                    cfg.gc_every = 16; // the captures are shorter than the default

                    let mut verifier = Verifier::new(cfg);
                    let mut core = MechanismCore::new(cfg);
                    for &(key, value) in &preload {
                        verifier.preload(key, value);
                        core.preload(key, value);
                    }
                    for trace in &traces {
                        verifier.process(trace);
                        core.apply(trace);
                        if core.traces.is_multiple_of(cfg.gc_every) {
                            let before = core.footprint().total();
                            core.collect_garbage();
                            collected += before - core.footprint().total();
                        }
                    }
                    if verifier.coverage().quarantined_traces > 0 {
                        quarantined += 1;
                        continue;
                    }
                    assert_eq!(core.footprint(), verifier.footprint(), "{what}");
                    assert_eq!(core.mem_usage(), verifier.mem_usage(), "{what}");
                    let indeterminate = core.finish();
                    let outcome = verifier.finish();
                    assert_eq!(core.report, outcome.report, "{what}");
                    assert_eq!(core.stats, outcome.stats, "{what}");
                    assert_eq!(
                        (
                            core.traces,
                            core.committed,
                            core.aborted,
                            core.peak_footprint
                        ),
                        (
                            outcome.counters.traces,
                            outcome.counters.committed,
                            outcome.counters.aborted,
                            outcome.counters.peak_footprint
                        ),
                        "{what}"
                    );
                    assert_eq!(indeterminate, outcome.coverage.indeterminate_txns, "{what}");
                    assert_eq!(
                        core.demoted.len() as u64,
                        outcome.coverage.demoted_reads,
                        "{what}"
                    );
                    demoted += core.demoted.len();
                    cells += 1;
                }
            }
        }
        assert!(cells > 100, "{cells} cells compared");
        assert!(quarantined > 0 && demoted > 0 && collected > 0, "vacuous");
    }
}

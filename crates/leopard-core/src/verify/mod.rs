//! Mechanism-mirrored verification (§V, Algorithm 2 of the paper).
//!
//! The [`Verifier`] consumes the trace stream the two-level pipeline
//! dispatches (sorted by `ts_bef`) and mirrors the internal state a DBMS's
//! concurrency control would have built: the ordered version chains, the
//! lock table, and the dependency graph. Each mirrored structure checks
//! its own mechanism — consistent read, mutual exclusion, first updater
//! wins and the serialization certifier — and the dependencies one
//! mechanism deduces feed the others (§V-A last paragraph).
//!
//! Checks that depend on information that may still be in flight are
//! deferred to the precise point where the sorted stream guarantees
//! completeness: a read with snapshot interval `S` is checked once the
//! stream position passes `S.ts_aft`, because any commit trace arriving
//! later starts after `S` and is a *future version* by definition.

// A panic here kills the stream being verified: return a typed error, or
// mark the exception `#[expect(clippy::…, reason = "…")]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod depgraph;
pub mod engine;
mod lock_table;
mod txn_table;
mod version_store;

pub use depgraph::{CertifierViolation, DepGraph, NodeSnap};
pub use lock_table::{KeyLocks, LockCheck, LockEntry, LockTable};
pub use txn_table::{MatchedRead, TxnInfo, TxnOutcome, TxnSnap, TxnTable};
pub use version_store::{
    KeyVersions, PruneBreakdown, ReadMatch, RecordVersions, SpillIndexEntry, VersionClass,
    VersionEntry, VersionStore, VersionUid,
};

use crate::budget::{BudgetCounters, MemBudget, MemUsage};
use crate::catalog::{IsolationLevel, MechanismSet, SnapshotLevel};
use crate::checkpoint::{Checkpoint, CheckpointError, PendingReadSnap, CHECKPOINT_VERSION};
use crate::fxhash::FxHashSet;
use crate::interval::{resolve_exclusive_pair, Interval, PairOrder};
use crate::obs;
use crate::preflight::QuarantineGate;
use crate::report::{BugReport, Violation};
use crate::stats::{DeductionStats, DepKind};
use crate::trace::{OpKind, Trace};
use crate::types::{ClientId, Key, Timestamp, TxnId, Value};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Verifier configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VerifierConfig {
    /// Which mechanisms to verify, and how (from the DBMS profile).
    pub mechanisms: MechanismSet,
    /// Run periodic garbage collection (versions, locks, graph, table).
    pub gc: bool,
    /// GC period in processed traces.
    pub gc_every: u64,
    /// Cross-mechanism dependency transfer (§V-A): rw derivation from
    /// wr+ww. Disabling it is the `abl_dep_transfer` ablation.
    pub dep_transfer: bool,
    /// Use the Theorem-2 minimal candidate version set. Disabling it is
    /// the `abl_candidate_set` ablation (garbage versions stay candidates,
    /// so stale reads go undetected and matches get more ambiguous).
    pub minimal_candidate_set: bool,
    /// Maximum clock-synchronisation error between any two clients, in
    /// nanoseconds (the paper's §IV-A NTP assumption made explicit).
    ///
    /// Every trace interval is widened by this bound on ingestion, so a
    /// timestamp that is off by at most `clock_skew_bound` can never turn
    /// a legal execution into a reported violation — at the cost of more
    /// uncertain (overlapping) dependencies. Zero assumes perfect sync.
    pub clock_skew_bound: u64,
    /// Degraded mode for partially observed histories (crashed clients,
    /// dropped trace deliveries). Ill-formed traces are quarantined rather
    /// than fatal, and consistent-read mismatches explainable by a missing
    /// delivery are demoted to coverage notes instead of violations.
    /// Degraded mode may *miss* true violations but never fabricates one;
    /// the [`Coverage`] section of the outcome records every hole.
    pub degraded: bool,
    /// Memory budget for the mirrored structures
    /// ([`MemBudget::UNLIMITED`] disables governance). When the
    /// estimated usage exceeds the budget, a garbage-collection pass is
    /// forced immediately, off the `gc_every` cadence; the online
    /// governor ([`crate::online`]) escalates further (force-dispatch,
    /// client eviction) when GC alone is not enough.
    pub mem_budget: MemBudget,
}

impl VerifierConfig {
    /// Configuration mirroring PostgreSQL at `level` (the paper's default
    /// subject).
    #[must_use]
    pub fn for_level(level: IsolationLevel) -> VerifierConfig {
        VerifierConfig::for_mechanisms(MechanismSet::postgres(level))
    }

    /// Configuration for an explicit mechanism assembly (from
    /// [`crate::catalog::catalog`] or hand-built).
    #[must_use]
    pub fn for_mechanisms(mechanisms: MechanismSet) -> VerifierConfig {
        VerifierConfig {
            mechanisms,
            gc: true,
            gc_every: 512,
            dep_transfer: true,
            minimal_candidate_set: true,
            clock_skew_bound: 0,
            degraded: false,
            mem_budget: MemBudget::UNLIMITED,
        }
    }
}

/// Live memory footprint of the verifier's mirrored structures, in number
/// of retained entries (the Fig. 10(a)/14(b) memory metric).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Mirrored record versions.
    pub versions: usize,
    /// Mirrored lock entries.
    pub locks: usize,
    /// Dependency-graph nodes.
    pub graph_nodes: usize,
    /// Dependency-graph edges.
    pub graph_edges: usize,
    /// Tracked transactions.
    pub txns: usize,
    /// Deferred read checks.
    pub pending_checks: usize,
}

impl Footprint {
    /// Total retained entries.
    #[must_use]
    pub fn total(&self) -> usize {
        self.versions
            + self.locks
            + self.graph_nodes
            + self.graph_edges
            + self.txns
            + self.pending_checks
    }
}

/// Counters summarising one verification run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerifyCounters {
    /// Traces processed.
    pub traces: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted.
    pub aborted: u64,
    /// Peak footprint observed at GC points.
    pub peak_footprint: usize,
    /// Resource-governor counters: memory high-water marks and what the
    /// overload ladder had to do (forced GC, forced dispatch, shedding,
    /// budget evictions). Part of the checkpoint image, so they survive
    /// resume.
    pub budget: BudgetCounters,
}

/// Maximum number of human-readable notes retained in [`Coverage`];
/// further degradations are still counted, just not itemised.
pub const MAX_COVERAGE_NOTES: usize = 100;

/// How much of the history the verdict actually covers (the `Degraded`
/// section of a chaos run's outcome). A clean report is only as strong as
/// its coverage: every evicted client, quarantined trace, demoted read and
/// indeterminate transaction is a hole the verdict does not speak for.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Coverage {
    /// Clients force-closed by watermark-stall eviction, sorted.
    pub evicted_clients: Vec<ClientId>,
    /// Ill-formed traces routed to quarantine instead of the verifier.
    pub quarantined_traces: u64,
    /// Consistent-read mismatches demoted to notes (explainable by a
    /// missing delivery) instead of reported as violations.
    pub demoted_reads: u64,
    /// Transactions with no terminal trace: their effects are unverified.
    pub indeterminate_txns: Vec<TxnId>,
    /// Human-readable descriptions of the first
    /// [`MAX_COVERAGE_NOTES`] degradations.
    pub notes: Vec<String>,
}

impl Coverage {
    /// `true` when the whole history was verified: no evictions, no
    /// quarantined traces, no demotions, no indeterminate transactions.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.evicted_clients.is_empty()
            && self.quarantined_traces == 0
            && self.demoted_reads == 0
            && self.indeterminate_txns.is_empty()
    }

    fn push_note(&mut self, note: String) {
        if self.notes.len() < MAX_COVERAGE_NOTES {
            self.notes.push(note);
        }
    }
}

impl fmt::Display for Coverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_complete() {
            return writeln!(f, "coverage: complete");
        }
        writeln!(f, "coverage: DEGRADED")?;
        if !self.evicted_clients.is_empty() {
            write!(f, "  evicted clients:")?;
            for c in &self.evicted_clients {
                write!(f, " {c}")?;
            }
            writeln!(f)?;
        }
        if self.quarantined_traces > 0 {
            writeln!(f, "  quarantined traces: {}", self.quarantined_traces)?;
        }
        if self.demoted_reads > 0 {
            writeln!(f, "  demoted reads: {}", self.demoted_reads)?;
        }
        if !self.indeterminate_txns.is_empty() {
            writeln!(f, "  indeterminate txns: {}", self.indeterminate_txns.len())?;
        }
        for note in &self.notes {
            writeln!(f, "  note: {note}")?;
        }
        Ok(())
    }
}

/// Result of a finished verification run.
#[derive(Debug)]
pub struct VerifyOutcome {
    /// All violations found.
    pub report: BugReport,
    /// Dependency-deduction statistics (β accounting).
    pub stats: DeductionStats,
    /// Run counters.
    pub counters: VerifyCounters,
    /// How much of the history the verdict covers.
    pub coverage: Coverage,
    /// Observability snapshot, present only when [`crate::obs`]
    /// recording was enabled for the run. Never feeds back into a
    /// verdict: with recording off this is `None` and the rest of the
    /// outcome is byte-identical (`tests/obs_equivalence.rs`).
    pub obs: Option<crate::obs::ObsSnapshot>,
    /// The first unrecoverable spill-store failure, if one occurred.
    /// When set, the run stopped admitting traces at the fault and the
    /// report/coverage cover only the prefix: not a verdict. Read the
    /// outcome through [`VerifyOutcome::into_result`], which makes that
    /// an `Err`.
    pub store_fault: Option<crate::store::StoreError>,
}

impl VerifyOutcome {
    /// The outcome as a verdict, or the store fault that means there is
    /// none.
    pub fn into_result(mut self) -> Result<VerifyOutcome, crate::store::StoreError> {
        match self.store_fault.take() {
            Some(fault) => Err(fault),
            None => Ok(self),
        }
    }
}

/// A deferred consistent-read check (due once the stream passes
/// `snapshot.hi`).
///
/// The tie-break after `due` is the check's *birth position* in the
/// stream — (trace sequence, element index) — so equal-`due` checks run in
/// the order they were deferred.
#[derive(Debug)]
struct PendingRead {
    due: Timestamp,
    born_seq: u64,
    born_elem: u64,
    reader: TxnId,
    key: Key,
    observed: Value,
    snapshot: Interval,
    read_op: Interval,
}

impl PendingRead {
    fn key(&self) -> (Timestamp, u64, u64) {
        (self.due, self.born_seq, self.born_elem)
    }
}
impl PartialEq for PendingRead {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for PendingRead {}
impl PartialOrd for PendingRead {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingRead {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// One step `Verifier::link_version_adjacency` planned while it had the
/// version store borrowed: a dependency to count and, unless unresolved,
/// to add.
#[derive(Debug)]
struct Planned {
    from: TxnId,
    to: TxnId,
    kind: DepKind,
    bucket: u8, // 0 certain, 1 deduced, 2 uncertain (no edge)
}

/// The mechanism-mirrored verifier.
#[derive(Debug)]
pub struct Verifier {
    cfg: VerifierConfig,
    txns: TxnTable,
    versions: VersionStore,
    locks: LockTable,
    graph: DepGraph,
    report: BugReport,
    stats: DeductionStats,
    pending_reads: BinaryHeap<Reverse<PendingRead>>,
    stream_pos: Timestamp,
    counters: VerifyCounters,
    coverage: Coverage,
    quarantine: QuarantineGate,
    // Scratch buffers reused across traces to avoid per-trace allocation.
    scratch_lock_checks: Vec<(Key, LockCheck)>,
    scratch_planned: Vec<Planned>,
    /// First unrecoverable spill-store failure. Once latched the
    /// verifier refuses further work: a spilled chain that cannot be
    /// faulted back in makes any verdict unreliable, and a typed error
    /// beats a silent wrong one.
    store_fault: Option<crate::store::StoreError>,
    /// Cleared after a spill-write failure: the tier stays attached for
    /// reads (already-spilled records must remain reachable) but no
    /// further spill passes run — the counted in-memory fallback.
    spill_writes_enabled: bool,
    /// The usage above which the ladder's relief rungs (forced GC, spill
    /// pass) run: the budget itself until a relief ends close to or above
    /// it, then that level plus an eighth of the budget, so a floor the
    /// rungs cannot lower is not fought again on every trace; back at the
    /// budget once a periodic GC leaves usage under it. Part of the
    /// checkpoint image, like everything else the ladder decides by.
    armed: MemBudget,
    /// The floor-above-budget warning went to stderr already.
    floor_warned: bool,
}

impl Verifier {
    /// Creates a verifier.
    #[must_use]
    pub fn new(cfg: VerifierConfig) -> Verifier {
        Verifier {
            txns: TxnTable::default(),
            versions: VersionStore::default(),
            locks: LockTable::default(),
            graph: DepGraph::default(),
            report: BugReport::default(),
            stats: DeductionStats::default(),
            pending_reads: BinaryHeap::new(),
            stream_pos: Timestamp::ZERO,
            counters: VerifyCounters::default(),
            coverage: Coverage::default(),
            quarantine: QuarantineGate::default(),
            scratch_lock_checks: Vec::new(),
            scratch_planned: Vec::new(),
            store_fault: None,
            spill_writes_enabled: true,
            armed: cfg.mem_budget,
            floor_warned: false,
            cfg,
        }
    }

    /// Installs the initial database state: reads may observe these values
    /// before the first traced write commits.
    pub fn preload(&mut self, key: Key, value: Value) {
        self.versions.preload(key, value);
    }

    /// Processes one dispatched trace. Traces must arrive in
    /// non-decreasing `ts_bef` order (the pipeline guarantees this).
    pub fn process(&mut self, trace: &Trace) {
        // A latched store fault means some spilled state is unreachable:
        // every verdict from here on would be built on a partial store.
        // Refuse the work; the caller surfaces the typed error.
        if self.store_fault.is_some() {
            return;
        }
        // Residency pre-fault: every record this trace (or the terminal
        // it triggers) will touch must be in memory before dispatch, so
        // the mechanism code below never observes a spilled chain as
        // "no record".
        if self.versions.spill_attached() {
            self.fault_in_for(trace);
            if self.store_fault.is_some() {
                return;
            }
        }
        // Degraded mode: route ill-formed traces (inverted interval,
        // per-client clock regression, post-terminal operation, duplicate
        // mismatched terminal) to quarantine instead of corrupting the
        // mirrored state; verification continues on the rest.
        if self.cfg.degraded {
            if let Some(diag) = self.quarantine.admit(trace) {
                self.coverage.quarantined_traces += 1;
                self.coverage.push_note(format!("quarantined: {diag}"));
                obs::ctr(obs::Counter::QuarantinedTraces, 1);
                return;
            }
        }
        // Clock-skew tolerance: widen the interval so bounded
        // synchronisation error cannot fabricate a "certain" order. Only
        // the interval is adjusted; the operation payload is borrowed.
        let interval = if self.cfg.clock_skew_bound > 0 {
            let eps = self.cfg.clock_skew_bound;
            Interval::new(
                Timestamp(trace.interval.lo.0.saturating_sub(eps)),
                trace.interval.hi.saturating_add(eps),
            )
        } else {
            trace.interval
        };
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

        self.counters.traces += 1;
        obs::ctr(obs::Counter::OpsIngested, 1);
        if self.cfg.gc && self.counters.traces.is_multiple_of(self.cfg.gc_every) {
            self.collect_garbage();
            if !self.cfg.mem_budget.exceeded_by(self.mem_usage()) {
                // Back under the budget: whatever floor the last relief
                // ran into is gone, and the next one is due at the budget.
                self.armed = self.cfg.mem_budget;
            }
        }
        // Budget governance: all the count accessors behind `mem_usage`
        // are O(1), so re-checking after every trace is cheap. The
        // high-water mark is observed *after* enforcement: it measures
        // the governed steady-state footprint, not the transient spike a
        // forced GC exists to remove.
        let mut usage = self.mem_usage();
        if self.armed.exceeded_by(usage) {
            usage = self.relieve();
        }
        self.counters.budget.observe(usage);
    }

    /// [`Verifier::relieve_beside`] for a verifier that is the whole
    /// footprint.
    fn relieve(&mut self) -> MemUsage {
        self.relieve_beside(MemUsage::default())
    }

    /// The online chain's entry to the one relief: `beside` is what the
    /// chain holds outside the verifier (the tracer's buffers) and counts
    /// against the same budget. Gated by `armed` like the per-trace
    /// check, so a floor above the budget is not fought on every poll.
    /// Returns the chain's usage afterwards.
    pub(crate) fn relieve_if_armed(&mut self, beside: MemUsage) -> MemUsage {
        let usage = self.mem_usage() + beside;
        if self.armed.exceeded_by(usage) {
            self.relieve_beside(beside)
        } else {
            usage
        }
    }

    /// Rungs 1 and 1.5 of the overload ladder: a forced GC and, if the
    /// budget is still exceeded and a tier takes writes, a spill pass —
    /// cold chains go to disk before any rung that costs coverage gets a
    /// chance to run. Re-arms an eighth of the budget above where it
    /// ends, or at the budget if that is higher. Returns the usage left,
    /// `beside` included.
    fn relieve_beside(&mut self, beside: MemUsage) -> MemUsage {
        self.force_gc();
        let mut usage = self.mem_usage() + beside;
        let cap = self.cfg.mem_budget;
        if cap.exceeded_by(usage) && self.can_spill() {
            self.spill_pass(beside.bytes);
            usage = self.mem_usage() + beside;
        }
        if cap.exceeded_by(usage) {
            // What is left cannot be collected or spilled. Not a coverage
            // event: the verdict is exactly the unconstrained one.
            obs::ctr(obs::Counter::BudgetFloorExceeded, 1);
            if !self.floor_warned {
                self.floor_warned = true;
                eprintln!(
                    "leopard: warning: memory floor above budget: {} bytes / {} entries of \
                     verifier state can be neither collected nor spilled (budget {} bytes / \
                     {} entries, 0 = unlimited)",
                    usage.bytes, usage.entries, cap.max_bytes, cap.max_entries
                );
            }
        }
        let rearm = |cap: u64, left: u64| if cap == 0 { 0 } else { cap.max(left + cap / 8) };
        self.armed = MemBudget {
            max_bytes: rearm(cap.max_bytes, usage.bytes),
            max_entries: rearm(cap.max_entries, usage.entries),
        };
        usage
    }

    /// Forces a garbage-collection pass immediately, off the periodic
    /// `gc_every` cadence — rung 1 of the overload ladder.
    pub(crate) fn force_gc(&mut self) {
        self.counters.budget.forced_gcs += 1;
        obs::ctr(obs::Counter::ForcedGcs, 1);
        self.collect_garbage();
    }

    /// `true` when a spill tier is attached and still accepting writes.
    fn can_spill(&self) -> bool {
        self.spill_writes_enabled && self.versions.spill_attached() && self.store_fault.is_none()
    }

    /// Runs one spill pass — rung 1.5 of the overload ladder, between
    /// forced GC and forced dispatch: cold fully-committed version
    /// chains no open transaction will come back to page out to the
    /// spill tier, coldest first, until estimated usage drops to half
    /// the byte budget (less `beside_bytes`, what the chain holds outside
    /// the verifier) — well below it, so the pass pays for a long run of
    /// traces, not for the next one. Write failures are *never*
    /// fatal: the records stay resident, the pass is abandoned, further
    /// passes are disabled, and the fallback is counted — the ladder
    /// then proceeds exactly as it would without a spill tier.
    fn spill_pass(&mut self, beside_bytes: u64) {
        let t0 = obs::span_start();
        // A record an open transaction wrote or matched a read against,
        // or a deferred check names, is faulted back in when that
        // transaction ends or the check comes due: spilling it buys
        // nothing.
        let pinned: FxHashSet<Key> = self
            .txns
            .open_keys()
            .chain(self.pending_reads.iter().map(|Reverse(p)| p.key))
            .collect();
        // With no byte cap configured the pass is a no-op (entry caps
        // alone cannot be relieved by spilling, and the ladder's other
        // rungs handle them as before).
        let target = match self.cfg.mem_budget.max_bytes {
            0 => u64::MAX,
            cap => {
                let elsewhere =
                    self.mem_usage().bytes - self.versions.mem_usage().bytes + beside_bytes;
                (cap / 2).saturating_sub(elsewhere)
            }
        };
        let (spilled, wrote) = self.versions.spill_cold(target, &pinned);
        self.counters.budget.spilled_records += spilled as u64;
        match wrote {
            Ok(()) => self.counters.budget.spill_passes += 1,
            Err(e) => {
                self.counters.budget.spill_fallbacks += 1;
                self.spill_writes_enabled = false;
                self.coverage.push_note(format!(
                    "spill disabled after write failure (records stay in memory): {e}"
                ));
            }
        }
        if t0.is_some() {
            let dur = obs::span_end(obs::Stage::Spill, obs::LANE_DRIVER, t0);
            obs::hist(obs::HistId::SpillPassUs, dur);
        }
        if let Some(tier) = self.versions.spill_tier() {
            let stats = tier.stats();
            obs::gauge_set(obs::Gauge::SpillBytes, stats.bytes_on_disk);
            obs::gauge_set(obs::Gauge::SpillWriteAmp, stats.write_amp_milli());
            obs::gauge_set(obs::Gauge::SpillLiveRatio, stats.live_ratio_milli());
        }
    }

    /// Faults in every record `trace` will touch. Read/write sets name
    /// their keys directly; terminals touch the transaction's write keys
    /// and the keys of its matched reads (replayed at commit).
    fn fault_in_for(&mut self, trace: &Trace) {
        match &trace.op {
            OpKind::Read(set) | OpKind::LockedRead(set) | OpKind::Write(set) => {
                for &(key, _) in set {
                    if !self.fault_in(key) {
                        return;
                    }
                }
            }
            OpKind::Commit | OpKind::Abort => {
                let Some(info) = self.txns.get(trace.txn) else {
                    return;
                };
                let mut keys: Vec<Key> = info
                    .write_keys
                    .iter()
                    .chain(info.matched_reads.iter().map(|m| &m.key))
                    .copied()
                    .collect();
                keys.sort_unstable();
                keys.dedup();
                for key in keys {
                    if !self.fault_in(key) {
                        return;
                    }
                }
            }
        }
    }

    /// Faults one record back in, latching the store fault on an
    /// unrecoverable error. Returns `false` when latched.
    fn fault_in(&mut self, key: Key) -> bool {
        match self.versions.ensure_resident(key) {
            Ok(faulted) => {
                if faulted {
                    self.counters.budget.spill_faults += 1;
                }
                true
            }
            Err(e) => {
                self.coverage
                    .push_note(format!("spill store fault on {key:?}: {e}"));
                self.store_fault = Some(e);
                false
            }
        }
    }

    /// Records that a spill tier could not be attached — a clean counted
    /// fallback to the in-memory path: the run proceeds with a coverage
    /// note, never a silent change of verdict. Rung 1.5 stays disarmed;
    /// the ladder's other rungs govern exactly as before. Returns the
    /// warning for an operator.
    fn note_spill_unavailable(&mut self, why: &crate::store::StoreError) -> String {
        self.counters.budget.spill_fallbacks += 1;
        obs::ctr(obs::Counter::SpillFallbacks, 1);
        self.coverage
            .push_note(format!("spill unavailable (records stay in memory): {why}"));
        format!("spill tier unavailable ({why}); continuing in memory")
    }

    /// Attaches a spill tier (rung 1.5 of the overload ladder) to the
    /// version store. Call before feeding traces.
    pub fn attach_spill(&mut self, tier: crate::store::SpillTier) {
        self.versions.attach_spill(tier);
    }

    /// Resume path: re-attaches the spill tier and adopts the
    /// checkpoint's spill index, clearing the spilled-state-unavailable
    /// latch set by [`Verifier::from_checkpoint`].
    fn resume_spill(&mut self, tier: crate::store::SpillTier, index: &[SpillIndexEntry]) {
        self.versions.adopt_spill(tier, index);
        if matches!(
            self.store_fault,
            Some(crate::store::StoreError::Unavailable(_))
        ) {
            self.store_fault = None;
        }
    }

    /// Durably syncs the spill tier (no-op without one). Called before a
    /// checkpoint is written so the image never references unsynced
    /// pages.
    fn sync_spill(&self) -> crate::store::StoreResult<()> {
        match self.versions.spill_tier() {
            Some(tier) => tier.sync(),
            None => Ok(()),
        }
    }

    /// Spill-tier activity counters (zeroes without a tier).
    #[must_use]
    pub fn spill_stats(&self) -> crate::store::SpillStats {
        self.versions
            .spill_tier()
            .map(crate::store::SpillTier::stats)
            .unwrap_or_default()
    }

    /// Folds an externally measured usage sample (e.g. verifier plus
    /// pipeline, from the online governor) into the budget high-water
    /// marks carried by the checkpointable counters.
    pub fn observe_usage(&mut self, usage: MemUsage) {
        self.counters.budget.observe(usage);
    }

    /// Cheap estimate of the verifier's live memory across the four
    /// mirrored mechanism structures and the deferred read checks.
    #[must_use]
    pub fn mem_usage(&self) -> MemUsage {
        self.versions.mem_usage()
            + self.locks.mem_usage()
            + self.graph.mem_usage()
            + self.txns.mem_usage()
            + MemUsage::per_entry(self.pending_reads.len(), 96)
    }

    /// Flushes every remaining deferred check and returns the outcome.
    #[must_use]
    pub fn finish(mut self) -> VerifyOutcome {
        self.flush_pending_reads(Timestamp::MAX);
        self.counters.peak_footprint = self.counters.peak_footprint.max(self.footprint().total());
        let mut coverage = self.coverage;
        let indeterminate = self.txns.active_txns();
        for &txn in &indeterminate {
            coverage.push_note(format!("indeterminate: {txn} has no terminal trace"));
        }
        coverage.indeterminate_txns = indeterminate;
        VerifyOutcome {
            report: self.report,
            stats: self.stats,
            counters: self.counters,
            coverage,
            obs: obs::snapshot_if_enabled(),
            store_fault: self.store_fault,
        }
    }

    /// Records that `client` was force-evicted by the pipeline (its
    /// in-flight transaction, if any, will surface as indeterminate).
    pub fn note_evicted_client(&mut self, client: ClientId) {
        if self.evict_from_coverage(client, "force-closed by stall timeout") {
            obs::ctr(obs::Counter::StallEvictions, 1);
        }
    }

    /// Records that the tracer closed `client`'s stream at `error` (its
    /// clock stepped backwards): what the client sent from there on is a
    /// hole in the verdict, exactly as if it had been evicted.
    pub fn note_stream_error(&mut self, client: ClientId, error: &dyn fmt::Display) {
        self.evict_from_coverage(client, &format!("stream closed: {error}"));
    }

    /// Adds `client` to the evicted set with a note saying `why`; `false`
    /// if it was there already.
    fn evict_from_coverage(&mut self, client: ClientId, why: &str) -> bool {
        let new = !self.coverage.evicted_clients.contains(&client);
        if new {
            self.coverage.evicted_clients.push(client);
            self.coverage.evicted_clients.sort_unstable();
            self.coverage.push_note(format!("evicted: {client} {why}"));
        }
        new
    }

    /// Records that `client` was evicted by rung 3 of the overload
    /// ladder: the memory budget was still exceeded after forced GC and
    /// forced dispatch, so the laggiest client was sacrificed. The hole
    /// is counted separately from stall-timeout evictions.
    pub fn note_budget_eviction(&mut self, client: ClientId) {
        self.counters.budget.budget_evictions += 1;
        obs::ctr(obs::Counter::BudgetEvictions, 1);
        self.evict_from_coverage(client, "force-closed under memory pressure");
    }

    /// Folds `n` newly shed traces (lossy backpressure, records into a
    /// closed stream, what an evicted buffer held, forced-dispatch
    /// stragglers) into the budget counters so they survive
    /// checkpoint/resume.
    pub fn note_shed_traces(&mut self, n: u64) {
        if n > 0 {
            self.counters.budget.shed_traces += n;
            self.coverage
                .push_note(format!("shed: {n} traces dropped under backpressure"));
        }
    }

    /// Counts a pipeline force-dispatch (rung 2) in the budget counters.
    pub fn note_forced_dispatch(&mut self) {
        self.counters.budget.forced_dispatches += 1;
    }

    /// The coverage accumulated so far (finalised, with indeterminate
    /// transactions, only by [`Verifier::finish`]).
    #[must_use]
    pub fn coverage(&self) -> &Coverage {
        &self.coverage
    }

    /// Images the complete verifier state as a [`Checkpoint`].
    ///
    /// The image is byte-stable: two identical verifier states produce
    /// identical checkpoints (all maps are flattened in sorted order).
    #[must_use]
    pub fn checkpoint(&self) -> Checkpoint {
        let mut pending: Vec<PendingReadSnap> = self
            .pending_reads
            .iter()
            .map(|Reverse(p)| PendingReadSnap {
                due: p.due,
                born_seq: p.born_seq,
                born_elem: p.born_elem,
                reader: p.reader,
                key: p.key,
                observed: p.observed,
                snapshot: p.snapshot,
                read_op: p.read_op,
            })
            .collect();
        pending.sort_unstable_by_key(|p| (p.due, p.born_seq, p.born_elem));
        let (quarantine_seq, quarantine_clients, quarantine_terminals) = self.quarantine.snapshot();
        Checkpoint {
            version: CHECKPOINT_VERSION,
            config: self.cfg,
            stream_pos: self.stream_pos,
            next_uid: self.versions.next_uid(),
            traces_ingested: self.counters.traces,
            txns: self.txns.snapshot(),
            versions: self.versions.snapshot(),
            locks: self.locks.snapshot(),
            graph: self.graph.snapshot(),
            pending_reads: pending,
            quarantine_seq,
            quarantine_clients,
            quarantine_terminals,
            counters: self.counters,
            stats: self.stats,
            report: self.report.clone(),
            coverage: self.coverage.clone(),
            spill: self.versions.spill_index(),
            armed: self.armed,
        }
    }

    /// Rebuilds a verifier from a [`Checkpoint`]. Do **not** re-preload
    /// initial state: the preloaded versions are part of the image. Feed
    /// the capture's traces starting at index
    /// [`Checkpoint::traces_ingested`] and the run continues to the same
    /// verdict as an uninterrupted one.
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Result<Verifier, CheckpointError> {
        if ckpt.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version {
                found: ckpt.version,
                expected: CHECKPOINT_VERSION,
            });
        }
        let mut pending_reads = BinaryHeap::with_capacity(ckpt.pending_reads.len());
        for p in &ckpt.pending_reads {
            pending_reads.push(Reverse(PendingRead {
                due: p.due,
                born_seq: p.born_seq,
                born_elem: p.born_elem,
                reader: p.reader,
                key: p.key,
                observed: p.observed,
                snapshot: p.snapshot,
                read_op: p.read_op,
            }));
        }
        Ok(Verifier {
            cfg: ckpt.config,
            txns: TxnTable::restore(&ckpt.txns),
            versions: VersionStore::restore(&ckpt.versions, ckpt.next_uid),
            locks: LockTable::restore(&ckpt.locks),
            graph: DepGraph::restore(&ckpt.graph),
            report: ckpt.report.clone(),
            stats: ckpt.stats,
            pending_reads,
            stream_pos: ckpt.stream_pos,
            counters: ckpt.counters,
            coverage: ckpt.coverage.clone(),
            quarantine: QuarantineGate::restore(
                ckpt.quarantine_seq,
                &ckpt.quarantine_clients,
                &ckpt.quarantine_terminals,
            ),
            scratch_lock_checks: Vec::new(),
            scratch_planned: Vec::new(),
            // A checkpoint referencing spilled records cannot verify
            // without its spill directory: latch the typed error now;
            // `resume_spill` clears it.
            store_fault: (!ckpt.spill.is_empty()).then(|| {
                crate::store::StoreError::Unavailable(format!(
                    "checkpoint references {} spilled records; resume it through \
                     engine::open with its spill directory",
                    ckpt.spill.len()
                ))
            }),
            spill_writes_enabled: true,
            armed: ckpt.armed,
            floor_warned: false,
        })
    }

    /// The violations found so far.
    #[must_use]
    pub fn report(&self) -> &BugReport {
        &self.report
    }

    /// Dependency-deduction statistics so far.
    #[must_use]
    pub fn stats(&self) -> &DeductionStats {
        &self.stats
    }

    /// Current memory footprint of the mirrored structures.
    #[must_use]
    pub fn footprint(&self) -> Footprint {
        Footprint {
            versions: self.versions.version_count(),
            locks: self.locks.lock_count(),
            graph_nodes: self.graph.node_count(),
            graph_edges: self.graph.edge_count(),
            txns: self.txns.len(),
            pending_checks: self.pending_reads.len(),
        }
    }

    /// Run counters so far.
    #[must_use]
    pub fn counters(&self) -> VerifyCounters {
        self.counters
    }

    /// Read access to the mirrored dependency graph (tests, baselines).
    #[must_use]
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// Read access to the mirrored version store (tests, diagnostics).
    #[must_use]
    pub fn versions(&self) -> &VersionStore {
        &self.versions
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
                    self.demote_read(format!(
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
            born_seq: self.counters.traces,
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

    /// Counts and notes a consistent-read mismatch demoted to coverage
    /// (degraded mode only).
    fn demote_read(&mut self, note: String) {
        self.coverage.demoted_reads += 1;
        self.coverage.push_note(note);
        obs::ctr(obs::Counter::DemotedReads, 1);
    }

    fn flush_pending_reads(&mut self, up_to: Timestamp) {
        while self
            .pending_reads
            .peek()
            .is_some_and(|Reverse(front)| front.due <= up_to)
        {
            if let Some(Reverse(check)) = self.pending_reads.pop() {
                // The record may have been spilled since the check was
                // deferred; fault it in, and on a latched store fault put
                // the check back (the typed error supersedes any verdict,
                // but state must stay consistent for diagnostics).
                if self.versions.spill_attached() && !self.fault_in(check.key) {
                    self.pending_reads.push(Reverse(check));
                    return;
                }
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
                    self.demote_read(format!(
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
        self.counters.committed += 1;

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
        self.counters.aborted += 1;

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
    fn collect_garbage(&mut self) {
        let before = self.footprint().total();
        self.counters.peak_footprint = self.counters.peak_footprint.max(before);
        let t0 = obs::span_start();
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
            let dur = obs::span_end(obs::Stage::GcBarrier, obs::LANE_DRIVER, t0);
            obs::hist(obs::HistId::GcPauseUs, dur);
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
    use crate::trace::TraceBuilder;

    fn verify_all(
        cfg: VerifierConfig,
        preload: &[(u64, u64)],
        traces: Vec<Trace>,
    ) -> VerifyOutcome {
        let mut v = Verifier::new(cfg);
        for &(k, val) in preload {
            v.preload(Key(k), Value(val));
        }
        for t in &traces {
            v.process(t);
        }
        v.finish()
    }

    fn sr_cfg() -> VerifierConfig {
        VerifierConfig::for_level(IsolationLevel::Serializable)
    }

    #[test]
    fn clean_serial_history_is_clean() {
        let mut b = TraceBuilder::new();
        // t1 writes k1=10 and commits; t2 reads 10 and commits.
        b.write(10, 12, 0, 1, vec![(1, 10)]);
        b.commit(13, 15, 0, 1);
        b.read(20, 22, 1, 2, vec![(1, 10)]);
        b.commit(23, 25, 1, 2);
        let out = verify_all(sr_cfg(), &[(1, 0)], b.build_sorted());
        assert!(out.report.is_clean(), "{}", out.report);
        assert_eq!(out.counters.committed, 2);
        assert_eq!(out.stats.wr.certain, 1);
    }

    #[test]
    fn dirty_read_is_cr_violation() {
        let mut b = TraceBuilder::new();
        // t1 writes k1=10 but has not committed; t2 reads 10: dirty read.
        b.write(10, 12, 0, 1, vec![(1, 10)]);
        b.read(20, 22, 1, 2, vec![(1, 10)]);
        b.commit(23, 25, 1, 2);
        b.commit(30, 32, 0, 1);
        let out = verify_all(sr_cfg(), &[(1, 0)], b.build_sorted());
        assert_eq!(
            out.report.count(crate::report::Mechanism::ConsistentRead),
            1
        );
    }

    #[test]
    fn stale_read_is_cr_violation() {
        let mut b = TraceBuilder::new();
        // k1 is updated to 10 and committed long before t2's snapshot, yet
        // t2 reads the initial 0.
        b.write(10, 12, 0, 1, vec![(1, 10)]);
        b.commit(13, 15, 0, 1);
        b.read(100, 102, 1, 2, vec![(1, 0)]);
        b.commit(103, 105, 1, 2);
        let out = verify_all(sr_cfg(), &[(1, 0)], b.build_sorted());
        assert_eq!(
            out.report.count(crate::report::Mechanism::ConsistentRead),
            1
        );
    }

    #[test]
    fn read_own_write_is_fine_and_mismatch_is_violation() {
        let mut b = TraceBuilder::new();
        b.write(10, 12, 0, 1, vec![(1, 7)]);
        b.read(13, 15, 0, 1, vec![(1, 7)]); // own write: fine
        b.commit(16, 18, 0, 1);
        let out = verify_all(sr_cfg(), &[(1, 0)], b.build_sorted());
        assert!(out.report.is_clean(), "{}", out.report);

        let mut b = TraceBuilder::new();
        b.write(10, 12, 0, 1, vec![(1, 7)]);
        b.read(13, 15, 0, 1, vec![(1, 0)]); // lost own update
        b.commit(16, 18, 0, 1);
        let out = verify_all(sr_cfg(), &[(1, 0)], b.build_sorted());
        assert_eq!(
            out.report.count(crate::report::Mechanism::ConsistentRead),
            1
        );
    }

    #[test]
    fn repeatable_read_violation_under_txn_snapshot() {
        // t2 reads k1 twice; between the reads t1 commits an update and the
        // second read observes it. Legal at RC (statement snapshots),
        // a CR violation at RR/SI (transaction snapshot).
        let history = |b: &mut TraceBuilder| {
            b.read(10, 12, 1, 2, vec![(1, 0)]);
            b.write(20, 22, 0, 1, vec![(1, 9)]);
            b.commit(23, 25, 0, 1);
            b.read(30, 32, 1, 2, vec![(1, 9)]);
            b.commit(33, 35, 1, 2);
        };
        let mut b = TraceBuilder::new();
        history(&mut b);
        let out = verify_all(
            VerifierConfig::for_level(IsolationLevel::RepeatableRead),
            &[(1, 0)],
            b.build_sorted(),
        );
        assert_eq!(
            out.report.count(crate::report::Mechanism::ConsistentRead),
            1
        );

        let mut b = TraceBuilder::new();
        history(&mut b);
        let out = verify_all(
            VerifierConfig::for_level(IsolationLevel::ReadCommitted),
            &[(1, 0)],
            b.build_sorted(),
        );
        assert!(out.report.is_clean(), "{}", out.report);
    }

    #[test]
    fn certainly_concurrent_write_locks_are_me_violation() {
        let mut b = TraceBuilder::new();
        // Two transactions hold the write lock on k1 at the same time.
        b.write(0, 10, 0, 1, vec![(1, 5)]);
        b.write(1, 9, 1, 2, vec![(1, 6)]);
        b.commit(11, 20, 0, 1);
        b.commit(12, 21, 1, 2);
        let out = verify_all(sr_cfg(), &[(1, 0)], b.build_sorted());
        assert_eq!(
            out.report.count(crate::report::Mechanism::MutualExclusion),
            1
        );
    }

    #[test]
    fn lost_update_is_fuw_violation_without_me_noise() {
        // Two certainly-concurrent committed updates of the same record,
        // with lock checking off (an MVCC-FUW system like Percolator).
        let mut cfg = VerifierConfig::for_mechanisms(MechanismSet {
            consistent_read: Some(SnapshotLevel::Transaction),
            mutual_exclusion: false,
            first_updater_wins: true,
            certifier: None,
        });
        cfg.gc = false;
        let mut b = TraceBuilder::new();
        // Both snapshots happen before either commit: certainly concurrent.
        b.read(0, 2, 0, 1, vec![(1, 0)]);
        b.read(1, 3, 1, 2, vec![(1, 0)]);
        b.write(10, 12, 0, 1, vec![(1, 5)]);
        b.write(11, 13, 1, 2, vec![(1, 6)]);
        b.commit(20, 22, 0, 1);
        b.commit(21, 23, 1, 2);
        let out = verify_all(cfg, &[(1, 0)], b.build_sorted());
        assert!(out
            .report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::FirstUpdaterWins { .. })));
    }

    #[test]
    fn write_skew_triggers_ssi_dangerous_structure() {
        // Classic write skew: t1 reads k1 writes k2, t2 reads k2 writes k1,
        // both concurrent, both commit. rw(t1->t2) and rw(t2->t1): each
        // transaction is a pivot with concurrent in+out rw edges.
        let mut b = TraceBuilder::new();
        b.read(0, 2, 0, 1, vec![(1, 0)]);
        b.read(1, 3, 1, 2, vec![(2, 0)]);
        b.write(10, 12, 0, 1, vec![(2, 5)]);
        b.write(11, 13, 1, 2, vec![(1, 6)]);
        b.commit(20, 22, 0, 1);
        b.commit(21, 23, 1, 2);
        let out = verify_all(sr_cfg(), &[(1, 0), (2, 0)], b.build_sorted());
        assert!(
            out.report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::SerializationCertifier { .. })),
            "{}",
            out.report
        );
    }

    #[test]
    fn write_skew_is_legal_at_snapshot_isolation() {
        let mut b = TraceBuilder::new();
        b.read(0, 2, 0, 1, vec![(1, 0)]);
        b.read(1, 3, 1, 2, vec![(2, 0)]);
        b.write(10, 12, 0, 1, vec![(2, 5)]);
        b.write(11, 13, 1, 2, vec![(1, 6)]);
        b.commit(20, 22, 0, 1);
        b.commit(21, 23, 1, 2);
        let out = verify_all(
            VerifierConfig::for_level(IsolationLevel::SnapshotIsolation),
            &[(1, 0), (2, 0)],
            b.build_sorted(),
        );
        assert!(out.report.is_clean(), "{}", out.report);
    }

    #[test]
    fn ww_dependencies_deduced_for_serial_writers() {
        let mut b = TraceBuilder::new();
        b.write(10, 12, 0, 1, vec![(1, 5)]);
        b.commit(13, 15, 0, 1);
        b.write(20, 22, 1, 2, vec![(1, 6)]);
        b.commit(23, 25, 1, 2);
        let out = verify_all(sr_cfg(), &[(1, 0)], b.build_sorted());
        assert!(out.report.is_clean());
        assert_eq!(out.stats.ww.certain, 1);
    }

    #[test]
    fn overlapping_blind_writes_deduced_via_me() {
        // Install intervals overlap, but lock order resolves: t1 released
        // (committed) before t2's commit started.
        let mut b = TraceBuilder::new();
        b.write(10, 20, 0, 1, vec![(1, 5)]);
        b.write(15, 40, 1, 2, vec![(1, 6)]);
        b.commit(21, 30, 0, 1);
        b.commit(41, 50, 1, 2);
        let out = verify_all(sr_cfg(), &[(1, 0)], b.build_sorted());
        assert!(out.report.is_clean(), "{}", out.report);
        assert_eq!(out.stats.ww.deduced, 1);
        assert_eq!(out.stats.ww.uncertain, 0);
    }

    #[test]
    fn overlapping_blind_writes_uncertain_without_me_or_fuw() {
        let mut cfg = VerifierConfig::for_mechanisms(MechanismSet {
            consistent_read: Some(SnapshotLevel::Transaction),
            mutual_exclusion: false,
            first_updater_wins: false,
            certifier: None,
        });
        cfg.gc = false;
        let mut b = TraceBuilder::new();
        b.write(10, 20, 0, 1, vec![(1, 5)]);
        b.write(15, 40, 1, 2, vec![(1, 6)]);
        b.commit(21, 30, 0, 1);
        b.commit(41, 50, 1, 2);
        let out = verify_all(cfg, &[(1, 0)], b.build_sorted());
        assert_eq!(out.stats.ww.uncertain, 1);
    }

    #[test]
    fn aborted_transactions_leave_no_trace_in_graph() {
        let mut b = TraceBuilder::new();
        b.write(10, 12, 0, 1, vec![(1, 5)]);
        b.abort(13, 15, 0, 1);
        b.read(20, 22, 1, 2, vec![(1, 0)]); // must still see initial value
        b.commit(23, 25, 1, 2);
        let out = verify_all(sr_cfg(), &[(1, 0)], b.build_sorted());
        assert!(out.report.is_clean(), "{}", out.report);
        assert_eq!(out.counters.aborted, 1);
    }

    #[test]
    fn reading_aborted_write_is_violation() {
        let mut b = TraceBuilder::new();
        b.write(10, 12, 0, 1, vec![(1, 5)]);
        b.abort(13, 15, 0, 1);
        b.read(20, 22, 1, 2, vec![(1, 5)]); // observes discarded version
        b.commit(23, 25, 1, 2);
        let out = verify_all(sr_cfg(), &[(1, 0)], b.build_sorted());
        assert_eq!(
            out.report.count(crate::report::Mechanism::ConsistentRead),
            1
        );
    }

    #[test]
    fn gc_keeps_verification_correct() {
        // Long serial chain with aggressive GC; every read checks out and
        // footprint stays bounded.
        let mut cfg = sr_cfg();
        cfg.gc_every = 8;
        let mut v = Verifier::new(cfg);
        for k in 1..=3 {
            v.preload(Key(k), Value(0));
        }
        let mut ts = 10u64;
        for i in 0..200u64 {
            let txn = i + 1;
            let expect = if i == 0 { 0 } else { i };
            let mut b = TraceBuilder::new();
            b.read(ts, ts + 2, 0, txn, vec![(1, expect)]);
            b.write(ts + 3, ts + 5, 0, txn, vec![(1, i + 1)]);
            b.commit(ts + 6, ts + 8, 0, txn);
            for t in b.build_sorted() {
                v.process(&t);
            }
            ts += 10;
        }
        let fp = v.footprint();
        assert!(fp.versions < 20, "versions not pruned: {fp:?}");
        assert!(fp.graph_nodes < 20, "graph not pruned: {fp:?}");
        assert!(v.report().is_clean(), "{}", v.report());

        // An rw edge across a collection: t201 reads k2 and commits, a GC
        // pass runs, and only then does t202 — concurrent with t201 and
        // overwriting k2 — commit. The edge t201 -> t202 is derived at
        // that commit from a reader list the pass has already visited;
        // with its mirror image it is a write skew's dangerous structure.
        let mut b = TraceBuilder::new();
        b.read(ts, ts + 2, 0, 201, vec![(2, 0)]);
        b.read(ts + 1, ts + 3, 1, 202, vec![(3, 0)]);
        b.write(ts + 10, ts + 12, 0, 201, vec![(3, 5)]);
        b.write(ts + 11, ts + 13, 1, 202, vec![(2, 6)]);
        b.commit(ts + 20, ts + 22, 0, 201);
        for t in b.build_sorted() {
            v.process(&t);
        }
        v.collect_garbage();
        let mut b = TraceBuilder::new();
        b.commit(ts + 21, ts + 23, 1, 202);
        v.process(&b.build_sorted()[0]);
        let out = v.finish();
        assert!(
            matches!(
                out.report.violations.as_slice(),
                [Violation::SerializationCertifier { .. }]
            ),
            "{}",
            out.report
        );
        assert_eq!(out.counters.committed, 202);
    }

    #[test]
    fn locked_read_conflicts_with_write_lock() {
        // Bug 3 shape (§VI-F): a FOR UPDATE read overlapping a held write
        // lock on the same record.
        let mut b = TraceBuilder::new();
        b.write(0, 10, 0, 1, vec![(1, 5)]);
        let mut traces = b.build_sorted();
        traces.push(Trace::new(
            Interval::new(Timestamp(1), Timestamp(9)),
            crate::types::ClientId(1),
            TxnId(2),
            OpKind::LockedRead(vec![(Key(1), Value(0))]),
        ));
        let mut b = TraceBuilder::new();
        b.commit(11, 20, 0, 1);
        b.commit(12, 21, 1, 2);
        traces.extend(b.build_sorted());
        traces.sort_by_key(|t| t.ts_bef());
        let out = verify_all(sr_cfg(), &[(1, 0)], traces);
        assert_eq!(
            out.report.count(crate::report::Mechanism::MutualExclusion),
            1
        );
    }

    #[test]
    fn finish_flushes_pending_reads() {
        let mut v = Verifier::new(sr_cfg());
        v.preload(Key(1), Value(0));
        let mut b = TraceBuilder::new();
        b.read(10, 12, 0, 1, vec![(1, 99)]); // bad read, check deferred
        for t in b.build_sorted() {
            v.process(&t);
        }
        // No later trace arrived to trigger the flush; finish must.
        let out = v.finish();
        assert_eq!(
            out.report.count(crate::report::Mechanism::ConsistentRead),
            1
        );
    }
}

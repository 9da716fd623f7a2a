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

mod core;
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

use self::core::MechanismCore;
use crate::budget::{BudgetCounters, MemBudget, MemUsage};
use crate::catalog::{IsolationLevel, MechanismSet};
use crate::checkpoint::{Checkpoint, CheckpointError, CHECKPOINT_VERSION};
use crate::fxhash::FxHashSet;
use crate::obs;
use crate::preflight::QuarantineGate;
use crate::report::BugReport;
use crate::stats::DeductionStats;
use crate::store::{SpillTier, StoreError};
use crate::trace::Trace;
use crate::types::{ClientId, Key, Timestamp, TxnId, Value};
use serde::{Deserialize, Serialize};
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

    pub(crate) fn push_note(&mut self, note: String) {
        if self.notes.len() < MAX_COVERAGE_NOTES {
            self.notes.push(note);
        }
    }

    /// Adds `client` to the evicted set with a note saying `why`: what it
    /// sent from there on is a hole in the verdict, and its in-flight
    /// transaction, if any, will surface as indeterminate. `false` if it
    /// was there already.
    pub(crate) fn evict(&mut self, client: ClientId, why: &str) -> bool {
        let new = !self.evicted_clients.contains(&client);
        if new {
            self.evicted_clients.push(client);
            self.evicted_clients.sort_unstable();
            self.push_note(format!("evicted: {client} {why}"));
        }
        new
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

/// The mechanism-mirrored verifier: the four checks (`MechanismCore`)
/// under the one resource policy that governs them.
///
/// Everything about budgets, the spill tier, quarantine and the store
/// fault is decided here and nowhere else. [`Verifier::process`] is a
/// prologue (refuse after a store fault; make resident every version chain
/// the trace will touch; quarantine), the core's `apply`, and an epilogue
/// (GC cadence, then rungs 1 and 1.5 of the overload ladder —
/// `Verifier::relieve` — and the high-water mark). The online chain
/// takes rungs 2 and 3 from what `relieve` returns.
#[derive(Debug)]
pub struct Verifier {
    core: MechanismCore,
    /// What the ladder had to do, and the memory high-water marks.
    budget: BudgetCounters,
    coverage: Coverage,
    quarantine: QuarantineGate,
    /// First unrecoverable spill-store failure. Once latched the
    /// verifier refuses further work: a spilled chain that cannot be
    /// faulted back in makes any verdict unreliable, and a typed error
    /// beats a silent wrong one.
    store_fault: Option<StoreError>,
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
    /// Scratch: the keys being made resident.
    keys: Vec<Key>,
}

impl Verifier {
    /// Creates a verifier.
    #[must_use]
    pub fn new(cfg: VerifierConfig) -> Verifier {
        Verifier::around(MechanismCore::new(cfg))
    }

    /// A governor with nothing on its books yet, around `core`.
    fn around(core: MechanismCore) -> Verifier {
        Verifier {
            budget: BudgetCounters::default(),
            coverage: Coverage::default(),
            quarantine: QuarantineGate::default(),
            store_fault: None,
            spill_writes_enabled: true,
            armed: core.cfg.mem_budget,
            floor_warned: false,
            keys: Vec::new(),
            core,
        }
    }

    /// Installs the initial database state: reads may observe these values
    /// before the first traced write commits.
    pub fn preload(&mut self, key: Key, value: Value) {
        self.core.preload(key, value);
    }

    /// Processes one dispatched trace. Traces must arrive in
    /// non-decreasing `ts_bef` order (the pipeline guarantees this).
    pub fn process(&mut self, trace: &Trace) {
        // A latched store fault means some spilled state is unreachable:
        // every verdict from here on would be built on a partial store.
        // Refuse the work; the caller surfaces the typed error.
        if self.store_fault.is_some() || !self.make_resident(Some(trace)) {
            return;
        }
        // Degraded mode: route ill-formed traces (inverted interval,
        // per-client clock regression, post-terminal operation, duplicate
        // mismatched terminal) to quarantine instead of corrupting the
        // mirrored state; verification continues on the rest.
        if self.core.cfg.degraded {
            if let Some(diag) = self.quarantine.admit(trace) {
                self.coverage.quarantined_traces += 1;
                self.coverage.push_note(format!("quarantined: {diag}"));
                obs::ctr(obs::Counter::QuarantinedTraces, 1);
                return;
            }
        }
        self.core.apply(trace);
        self.take_demotions();

        let cfg = self.core.cfg;
        if cfg.gc && self.core.traces.is_multiple_of(cfg.gc_every) {
            self.core.collect_garbage();
            if !cfg.mem_budget.exceeded_by(self.core.mem_usage()) {
                // Back under the budget: whatever floor the last relief
                // ran into is gone, and the next one is due at the budget.
                self.armed = cfg.mem_budget;
            }
        }
        // All the count accessors behind `mem_usage` are O(1), so checking
        // after every trace is cheap. The high-water mark is observed
        // *after* enforcement: it measures the governed steady-state
        // footprint, not the transient spike a forced GC exists to remove.
        let usage = self.relieve(MemUsage::default());
        self.budget.observe(usage);
    }

    /// Residency: faults in every version chain the core will look up —
    /// for `trace` ([`MechanismCore::touched_keys`]), or with `None` for
    /// every deferred check, which is what finishing runs — so that the
    /// mechanism code never observes a spilled chain as "no record".
    /// `false` when a chain could not be read back: the fault is latched.
    fn make_resident(&mut self, trace: Option<&Trace>) -> bool {
        if !self.core.versions.spill_attached() {
            return true;
        }
        let mut keys = std::mem::take(&mut self.keys);
        match trace {
            Some(trace) => self.core.touched_keys(trace, &mut keys),
            None => keys.extend(self.core.pending_keys(Timestamp::MAX)),
        }
        let resident = keys.drain(..).all(|key| self.fault_in(key));
        self.keys = keys;
        resident
    }

    /// Faults one record back in, latching the store fault on an
    /// unrecoverable error. Returns `false` when latched.
    fn fault_in(&mut self, key: Key) -> bool {
        match self.core.versions.ensure_resident(key) {
            Ok(faulted) => {
                self.budget.spill_faults += u64::from(faulted);
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

    /// Moves the consistent-read mismatches the core demoted (degraded
    /// mode only) into coverage.
    fn take_demotions(&mut self) {
        for note in self.core.demoted.drain(..) {
            self.coverage.demoted_reads += 1;
            self.coverage.push_note(note);
            obs::ctr(obs::Counter::DemotedReads, 1);
        }
    }

    /// Rungs 1 and 1.5 of the overload ladder, run when the usage — the
    /// verifier's plus `beside`, what the caller holds outside it against
    /// the same budget (the online chain's tracer buffers) — is above the
    /// armed level: a forced GC and, if the budget is still exceeded and a
    /// tier takes writes, a spill pass — cold chains go to disk before any
    /// rung that costs coverage gets a chance to run. Re-arms an eighth of
    /// the budget above where it ends, or at the budget if that is higher,
    /// so a floor above the budget is not fought on every trace. Returns
    /// the usage left, `beside` included: still over the budget means
    /// rungs 2 and 3 are the caller's to take.
    pub(crate) fn relieve(&mut self, beside: MemUsage) -> MemUsage {
        let mut usage = self.core.mem_usage() + beside;
        if !self.armed.exceeded_by(usage) {
            return usage;
        }
        self.force_gc();
        usage = self.core.mem_usage() + beside;
        let cap = self.core.cfg.mem_budget;
        let can_spill = self.spill_writes_enabled
            && self.store_fault.is_none()
            && self.core.versions.spill_attached();
        if cap.exceeded_by(usage) && can_spill {
            self.spill_pass(beside.bytes);
            usage = self.core.mem_usage() + beside;
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
        self.budget.forced_gcs += 1;
        obs::ctr(obs::Counter::ForcedGcs, 1);
        self.core.collect_garbage();
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
        let t0 = obs::timer_start();
        // A record an open transaction wrote or matched a read against,
        // or a deferred check names, is looked up again when that
        // transaction ends or the check comes due: spilling it buys
        // nothing.
        let pending = self.core.pending_keys(Timestamp::MAX);
        let pinned: FxHashSet<Key> = self.core.txns.open_keys().chain(pending).collect();
        // With no byte cap configured the pass is a no-op (entry caps
        // alone cannot be relieved by spilling, and the ladder's other
        // rungs handle them as before).
        let target = match self.core.cfg.mem_budget.max_bytes {
            0 => u64::MAX,
            cap => {
                let elsewhere = self.core.mem_usage().bytes - self.core.versions.mem_usage().bytes
                    + beside_bytes;
                (cap / 2).saturating_sub(elsewhere)
            }
        };
        let (spilled, wrote) = self.core.versions.spill_cold(target, &pinned);
        self.budget.spilled_records += spilled as u64;
        match wrote {
            Ok(()) => self.budget.spill_passes += 1,
            Err(e) => {
                self.budget.spill_fallbacks += 1;
                self.spill_writes_enabled = false;
                self.coverage.push_note(format!(
                    "spill disabled after write failure (records stay in memory): {e}"
                ));
            }
        }
        if t0.is_some() {
            obs::hist(obs::HistId::SpillPassUs, obs::timer_end(t0));
        }
        if let Some(tier) = self.core.versions.spill_tier() {
            let stats = tier.stats();
            obs::gauge_set(obs::Gauge::SpillBytes, stats.bytes_on_disk);
            obs::gauge_set(obs::Gauge::SpillWriteAmp, stats.write_amp_milli());
            obs::gauge_set(obs::Gauge::SpillLiveRatio, stats.live_ratio_milli());
        }
    }

    /// Records that a spill tier could not be attached — a clean counted
    /// fallback to the in-memory path: the run proceeds with a coverage
    /// note, never a silent change of verdict. Rung 1.5 stays disarmed;
    /// the ladder's other rungs govern exactly as before. Returns the
    /// warning for an operator.
    fn note_spill_unavailable(&mut self, why: &StoreError) -> String {
        self.budget.spill_fallbacks += 1;
        obs::ctr(obs::Counter::SpillFallbacks, 1);
        self.coverage
            .push_note(format!("spill unavailable (records stay in memory): {why}"));
        format!("spill tier unavailable ({why}); continuing in memory")
    }

    /// Attaches a spill tier (rung 1.5 of the overload ladder) to the
    /// version store. Call before feeding traces.
    pub fn attach_spill(&mut self, tier: SpillTier) {
        self.core.versions.attach_spill(tier);
    }

    /// Spill-tier activity counters (zeroes without a tier).
    #[must_use]
    pub fn spill_stats(&self) -> crate::store::SpillStats {
        self.core
            .versions
            .spill_tier()
            .map(SpillTier::stats)
            .unwrap_or_default()
    }

    /// Cheap estimate of the verifier's live memory across the four
    /// mirrored mechanism structures and the deferred read checks.
    #[must_use]
    pub fn mem_usage(&self) -> MemUsage {
        self.core.mem_usage()
    }

    /// Flushes every remaining deferred check and returns the outcome.
    #[must_use]
    pub fn finish(mut self) -> VerifyOutcome {
        // After a store fault, latched earlier or met here, the deferred
        // checks stay unrun: the outcome is not a verdict either way.
        let indeterminate = if self.store_fault.is_none() && self.make_resident(None) {
            self.core.finish()
        } else {
            self.core.txns.active_txns()
        };
        self.take_demotions();
        let counters = self.counters();
        let mut coverage = self.coverage;
        for &txn in &indeterminate {
            coverage.push_note(format!("indeterminate: {txn} has no terminal trace"));
        }
        coverage.indeterminate_txns = indeterminate;
        VerifyOutcome {
            report: self.core.report,
            stats: self.core.stats,
            counters,
            coverage,
            store_fault: self.store_fault,
        }
    }

    /// The ladder's books, for the rungs and evictions a driver takes
    /// outside the verifier: the holes in coverage and the budget counters
    /// (both part of the image).
    pub(crate) fn ledger(&mut self) -> (&mut Coverage, &mut BudgetCounters) {
        (&mut self.coverage, &mut self.budget)
    }

    /// The latched store fault, if any: see [`engine::feed`].
    pub(crate) fn store_fault(&self) -> Option<&StoreError> {
        self.store_fault.as_ref()
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
        let core = &self.core;
        let (quarantine_seq, quarantine_clients, quarantine_terminals) = self.quarantine.snapshot();
        Checkpoint {
            version: CHECKPOINT_VERSION,
            config: core.cfg,
            stream_pos: core.stream_pos,
            next_uid: core.versions.next_uid(),
            traces_ingested: core.traces,
            txns: core.txns.snapshot(),
            versions: core.versions.snapshot(),
            locks: core.locks.snapshot(),
            graph: core.graph.snapshot(),
            pending_reads: core.pending_snapshot(),
            quarantine_seq,
            quarantine_clients,
            quarantine_terminals,
            counters: self.counters(),
            stats: core.stats,
            report: core.report.clone(),
            coverage: self.coverage.clone(),
            spill: core.versions.spill_index(),
            armed: self.armed,
        }
    }

    /// Rebuilds a verifier from a [`Checkpoint`]. Do **not** re-preload
    /// initial state: the preloaded versions are part of the image. Feed
    /// the capture's traces starting at index
    /// [`Checkpoint::traces_ingested`] and the run continues to the same
    /// verdict as an uninterrupted one. An image that names spilled
    /// records is refused: resume it through [`engine::open`] with its
    /// spill directory.
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Result<Verifier, CheckpointError> {
        Verifier::resume(ckpt, None)
    }

    /// [`Verifier::from_checkpoint`], re-attaching `tier` as the one the
    /// image's spill index points into.
    fn resume(ckpt: &Checkpoint, tier: Option<SpillTier>) -> Result<Verifier, CheckpointError> {
        if ckpt.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version {
                found: ckpt.version,
                expected: CHECKPOINT_VERSION,
            });
        }
        let mut core = MechanismCore::restore(ckpt);
        match tier {
            Some(tier) => core.versions.adopt_spill(tier, &ckpt.spill),
            None if ckpt.spill.is_empty() => {}
            None => {
                return Err(CheckpointError::SpillUnavailable(format!(
                    "checkpoint references {} spilled record(s) but no spill directory is \
                     configured",
                    ckpt.spill.len()
                )))
            }
        }
        Ok(Verifier {
            budget: ckpt.counters.budget,
            coverage: ckpt.coverage.clone(),
            quarantine: QuarantineGate::restore(
                ckpt.quarantine_seq,
                &ckpt.quarantine_clients,
                &ckpt.quarantine_terminals,
            ),
            armed: ckpt.armed,
            ..Verifier::around(core)
        })
    }

    /// The violations found so far.
    #[must_use]
    pub fn report(&self) -> &BugReport {
        &self.core.report
    }

    /// Dependency-deduction statistics so far.
    #[must_use]
    pub fn stats(&self) -> &DeductionStats {
        &self.core.stats
    }

    /// Current memory footprint of the mirrored structures.
    #[must_use]
    pub fn footprint(&self) -> Footprint {
        self.core.footprint()
    }

    /// Run counters so far.
    #[must_use]
    pub fn counters(&self) -> VerifyCounters {
        VerifyCounters {
            traces: self.core.traces,
            committed: self.core.committed,
            aborted: self.core.aborted,
            peak_footprint: self.core.peak_footprint,
            budget: self.budget,
        }
    }

    /// Read access to the mirrored dependency graph (tests, baselines).
    #[must_use]
    pub fn graph(&self) -> &DepGraph {
        &self.core.graph
    }

    /// Read access to the mirrored version store (tests, diagnostics).
    #[must_use]
    pub fn versions(&self) -> &VersionStore {
        &self.core.versions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::SnapshotLevel;
    use crate::interval::Interval;
    use crate::report::Violation;
    use crate::trace::{OpKind, TraceBuilder};

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
        v.core.collect_garbage();
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

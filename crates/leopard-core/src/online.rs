//! The assembled online verifier: Fig. 2 of the paper as one object.
//!
//! [`OnlineLeopard`] owns the whole Tracer→Verifier chain: client threads
//! record into [`ClientHandle`]s; a background thread takes their hand-off
//! buffers through the two-level pipeline and feeds the mechanism-mirrored
//! verifier as traces become dispatchable. Dropping a handle closes its
//! client's stream; [`OnlineLeopard::finish`] joins the verifier thread
//! and returns the outcome.
//!
//! ```
//! use leopard_core::online::OnlineLeopard;
//! use leopard_core::{
//!     IsolationLevel, Key, OpKind, Trace, TxnId, Value, VerifierConfig,
//!     Interval, Timestamp, ClientId,
//! };
//!
//! let (leopard, mut handles) = OnlineLeopard::start(
//!     1,
//!     VerifierConfig::for_level(IsolationLevel::Serializable),
//!     vec![(Key(1), Value(0))],
//! );
//! let handle = handles.remove(0);
//! let iv = |lo, hi| Interval::new(Timestamp(lo), Timestamp(hi));
//! handle.record(Trace::new(iv(10, 12), ClientId(0), TxnId(1), OpKind::Write(vec![(Key(1), Value(7))])));
//! handle.record(Trace::new(iv(13, 15), ClientId(0), TxnId(1), OpKind::Commit));
//! drop(handle); // close the stream
//! let outcome = leopard.finish();
//! assert!(outcome.report.is_clean());
//! ```

// A panic here kills the stream being verified: return a typed error, or
// mark the exception `#[expect(clippy::…, reason = "…")]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::lockwitness::TrackedMutex;
use crate::obs;
use crate::pipeline::{Backpressure, ChannelTracer, ClientHandle, PipelineConfig, PipelineStats};
use crate::store::FsIo;
use crate::types::{ClientId, Key, Value};
use crate::verify::engine::{self, EngineOpts};
use crate::verify::{Verifier, VerifierConfig, VerifyOutcome};
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Degradation and checkpoint knobs for the online chain.
#[derive(Debug, Clone, Default)]
pub struct OnlineOptions {
    /// Pipeline configuration (fetch strategy, batching).
    pub pipeline: PipelineConfig,
    /// Evict the client pinning the watermark after this long without any
    /// dispatch progress. When all clients fall silent for this long with
    /// nothing buffered, every open client is presumed dead and evicted.
    /// `None` (the default) never evicts: a silent open client blocks
    /// forever, exactly as the original blocking chain did.
    pub eviction_timeout: Option<Duration>,
    /// Hand-off policy between client handles and the collector. The
    /// default keeps the historical unbounded buffers; the bounded policy
    /// couples ingest rate to verification rate. See [`Backpressure`].
    pub backpressure: Backpressure,
    /// The engine: spill tier, checkpoint path and cadence.
    /// [`OnlineLeopard::start_opts`] takes the verifier configuration as
    /// its own argument, which replaces [`EngineOpts::verifier`] here.
    /// When the tier cannot be attached or a spill write fails, the chain
    /// falls back to the in-memory path (counted, noted in coverage); an
    /// unrecoverable spill *read* failure latches
    /// [`VerifyOutcome::store_fault`] instead of risking a wrong verdict.
    pub engine: EngineOpts,
}

/// Best-effort image write: an unwritable checkpoint must not take the
/// verification down, but it is said, and it is not counted as written.
fn save_image(verifier: &Verifier, cursor: u64, path: &Path) {
    if let Err(e) = engine::save(verifier, cursor, &FsIo, path) {
        eprintln!(
            "leopard: warning: checkpoint not written to {}: {e}",
            path.display()
        );
    }
}

/// Force-closes `client`'s stream because it stalled the chain and records
/// the hole (its in-flight transaction, if any, will surface as
/// indeterminate).
fn stall_evict(tracer: &mut ChannelTracer, verifier: &mut Verifier, client: usize) {
    let _ = tracer.evict(client);
    let (coverage, _) = verifier.ledger();
    if coverage.evict(ClientId(client as u32), "force-closed by stall timeout") {
        obs::ctr(obs::Counter::StallEvictions, 1);
    }
}

/// [`OnlineLeopard::finish_with_timeout`] gave up waiting: some client
/// never closed its trace stream. The named clients were force-evicted and
/// verification completed in degraded mode — the (degraded) outcome is
/// still carried so no verification work is lost.
#[derive(Debug)]
pub struct FinishTimeout {
    /// Clients whose streams were still open at the timeout; the first
    /// entries are the ones that were pinning the watermark.
    pub pinning: Vec<ClientId>,
    /// The outcome of the degraded completion (coverage names the evicted
    /// clients).
    pub outcome: VerifyOutcome,
    /// Pipeline statistics of the degraded completion.
    pub stats: PipelineStats,
}

impl fmt::Display for FinishTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "online finish timed out: client stream(s) never closed ["
        )?;
        for (i, c) in self.pinning.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]; evicted them and completed with degraded coverage")
    }
}

impl std::error::Error for FinishTimeout {}

/// State shared between the verifier thread and the front-end handle.
#[derive(Debug)]
struct Shared {
    /// Set by the front end to force-evict every open client (used by
    /// [`OnlineLeopard::finish_with_timeout`] to guarantee termination).
    force_evict: AtomicBool,
    /// Clients whose streams were open at the worker's last poll.
    open: TrackedMutex<Vec<ClientId>>,
}

impl Default for Shared {
    fn default() -> Self {
        Shared {
            force_evict: AtomicBool::new(false),
            open: TrackedMutex::new("Shared.open", Vec::new()),
        }
    }
}

/// A running Tracer→Verifier chain.
#[derive(Debug)]
pub struct OnlineLeopard {
    worker: std::thread::JoinHandle<(VerifyOutcome, PipelineStats)>,
    done: mpsc::Receiver<()>,
    shared: Arc<Shared>,
}

impl OnlineLeopard {
    /// Starts the chain for `clients` trace producers with the default
    /// pipeline configuration, returning one handle per client.
    #[must_use]
    pub fn start(
        clients: usize,
        cfg: VerifierConfig,
        preload: Vec<(Key, Value)>,
    ) -> (OnlineLeopard, Vec<ClientHandle>) {
        OnlineLeopard::start_with(clients, cfg, PipelineConfig::default(), preload)
    }

    /// Starts the chain with an explicit pipeline configuration.
    #[must_use]
    pub fn start_with(
        clients: usize,
        cfg: VerifierConfig,
        pipeline: PipelineConfig,
        preload: Vec<(Key, Value)>,
    ) -> (OnlineLeopard, Vec<ClientHandle>) {
        OnlineLeopard::start_opts(
            clients,
            cfg,
            OnlineOptions {
                pipeline,
                ..OnlineOptions::default()
            },
            preload,
        )
    }

    /// Starts the chain with full degradation/checkpoint options; `cfg`
    /// is the verifier configuration ([`OnlineOptions::engine`]).
    #[must_use]
    pub fn start_opts(
        clients: usize,
        cfg: VerifierConfig,
        opts: OnlineOptions,
        preload: Vec<(Key, Value)>,
    ) -> (OnlineLeopard, Vec<ClientHandle>) {
        let (mut tracer, handles) =
            ChannelTracer::with_backpressure(clients, opts.pipeline, opts.backpressure);
        let shared = Arc::new(Shared::default());
        let worker_shared = Arc::clone(&shared);
        let (done_tx, done_rx) = mpsc::channel();
        #[expect(
            clippy::disallowed_methods,
            reason = "the eviction timeout is wall-clock by definition; verdicts stay trace-time only"
        )]
        let worker = std::thread::spawn(move || {
            let shared = worker_shared;
            let engine = EngineOpts {
                verifier: cfg,
                ..opts.engine
            };
            #[expect(
                clippy::expect_used,
                reason = "open refuses images only, and a fresh start has none"
            )]
            let opened = engine::open(&engine, None, &preload).expect("a fresh start");
            let mut verifier = opened.verifier;
            let mut batch = Vec::new();
            let mut processed: u64 = 0;
            let mut last_dispatched: u64 = 0;
            let mut last_shed: u64 = 0;
            let mut folded_errors = 0;
            // Streams only ever close, so the count identifies the set.
            let mut published_open = usize::MAX;
            let budget = cfg.mem_budget;
            let mut last_progress = Instant::now();
            loop {
                let live = tracer.poll(&mut batch);
                for trace in batch.drain(..) {
                    verifier.process(&trace);
                    processed += 1;
                    if let Some(path) = engine.checkpoint.as_deref() {
                        if engine.checkpoint_due(processed) {
                            save_image(&verifier, processed, path);
                        }
                    }
                }
                // A stream the tracer closed at a clock regression is an
                // eviction the client caused itself: the verdict does not
                // speak for what that client did afterwards.
                let (coverage, counters) = verifier.ledger();
                for e in &tracer.errors()[folded_errors..] {
                    coverage.evict(ClientId(e.client() as u32), &format!("stream closed: {e}"));
                }
                folded_errors = tracer.errors().len();
                // Newly shed traces (records into a closed stream, what an
                // evicted buffer held, forced-dispatch stragglers) go on
                // the books, which checkpoints carry.
                let stats = tracer.stats();
                let shed_now = stats.shed_traces + stats.late_dropped;
                if shed_now > last_shed {
                    let n = shed_now - last_shed;
                    counters.shed_traces += n;
                    coverage.push_note(format!("shed: {n} traces dropped under backpressure"));
                    last_shed = shed_now;
                }
                // Resource governance: the graduated overload ladder
                // (DESIGN §8.3). Rungs 1 and 1.5 are the verifier's own
                // relief (forced GC below the watermark, then cold records
                // spilled to disk when a tier is attached), with the
                // tracer's buffers counted in; rung 2 flushes the
                // pipeline's buffers through the verifier; rung 3 evicts
                // the laggiest client into degraded coverage. Each rung
                // runs only if the previous one left the chain over budget
                // — spilling relieves pressure without losing coverage, so
                // it always runs before the coverage-degrading rungs.
                if !budget.is_unlimited() {
                    let mut usage = verifier.relieve(tracer.mem_usage());
                    if budget.exceeded_by(usage) {
                        let mut forced = Vec::new();
                        if tracer.force_dispatch(&mut forced) > 0 {
                            verifier.ledger().1.forced_dispatches += 1;
                            for trace in &forced {
                                verifier.process(trace);
                                processed += 1;
                            }
                            verifier.force_gc();
                            usage = verifier.mem_usage() + tracer.mem_usage();
                        }
                    }
                    if budget.exceeded_by(usage) {
                        // The laggiest client is the one holding the
                        // watermark furthest back; sacrificing it lets
                        // everything the healthy clients deliver flow and
                        // be garbage-collected. The hole is counted apart
                        // from stall-timeout evictions.
                        if let Some(lag) = tracer.laggard_client() {
                            let _ = tracer.evict(lag);
                            let (coverage, counters) = verifier.ledger();
                            counters.budget_evictions += 1;
                            obs::ctr(obs::Counter::BudgetEvictions, 1);
                            coverage
                                .evict(ClientId(lag as u32), "force-closed under memory pressure");
                        }
                    }
                    // Record the governed (post-ladder) footprint: the HWM
                    // measures what governance let stand, not the spike it
                    // just removed.
                    let usage = verifier.mem_usage() + tracer.mem_usage();
                    obs::gauge_set(obs::Gauge::MemBytes, usage.bytes);
                    verifier.ledger().1.observe(usage);
                }
                if tracer.open_count() != published_open {
                    published_open = tracer.open_count();
                    let open: Vec<ClientId> = tracer
                        .open_clients()
                        .into_iter()
                        .map(|i| ClientId(i as u32))
                        .collect();
                    *shared.open.lock() = open;
                }
                if !live {
                    break;
                }
                if shared.force_evict.load(Ordering::SeqCst) {
                    for c in tracer.open_clients() {
                        stall_evict(&mut tracer, &mut verifier, c);
                    }
                    continue; // next poll drains the unblocked pipeline
                }
                let dispatched = tracer.stats().dispatched;
                if dispatched != last_dispatched {
                    last_dispatched = dispatched;
                    last_progress = Instant::now();
                } else if let Some(timeout) = opts.eviction_timeout {
                    if last_progress.elapsed() >= timeout {
                        if let Some(pin) = tracer.pinning_client() {
                            // Watermark stall: one silent client blocks all
                            // dispatch. Force-close it; its in-flight txn
                            // surfaces as indeterminate in coverage.
                            stall_evict(&mut tracer, &mut verifier, pin);
                        } else {
                            // Global silence with nothing buffered: every
                            // still-open client is presumed dead.
                            for c in tracer.open_clients() {
                                stall_evict(&mut tracer, &mut verifier, c);
                            }
                        }
                        last_progress = Instant::now();
                    }
                }
                tracer.idle_wait();
            }
            if let Some(path) = engine.checkpoint.as_deref() {
                // Final image so a post-run resume replays nothing.
                save_image(&verifier, processed, path);
            }
            let result = (verifier.finish(), tracer.stats());
            let _ = done_tx.send(());
            result
        });
        (
            OnlineLeopard {
                worker,
                done: done_rx,
                shared,
            },
            handles,
        )
    }

    /// Waits for every client stream to close and every trace to be
    /// verified, then returns the outcome.
    ///
    /// Call only after all [`ClientHandle`]s have been dropped, or the
    /// verifier thread will wait forever — use
    /// [`OnlineLeopard::finish_with_timeout`] when that cannot be
    /// guaranteed.
    #[must_use]
    pub fn finish(self) -> VerifyOutcome {
        self.finish_with_stats().0
    }

    /// Like [`OnlineLeopard::finish`], also returning pipeline statistics.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "re-raising a worker-thread panic is the only sane join policy"
    )]
    pub fn finish_with_stats(self) -> (VerifyOutcome, PipelineStats) {
        self.worker.join().expect("verifier thread panicked")
    }

    /// Waits up to `timeout` for the chain to complete on its own. If some
    /// client stream never closes (a leaked [`ClientHandle`], a crashed
    /// client that kept its connection), returns a [`FinishTimeout`] that
    /// *names the offending clients* — after force-evicting them so the
    /// run still terminates with a degraded outcome instead of hanging.
    #[expect(
        clippy::expect_used,
        reason = "re-raising a worker-thread panic is the only sane join policy"
    )]
    pub fn finish_with_timeout(
        self,
        timeout: Duration,
    ) -> Result<(VerifyOutcome, PipelineStats), Box<FinishTimeout>> {
        match self.done.recv_timeout(timeout) {
            Ok(()) => Ok(self.worker.join().expect("verifier thread panicked")),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let pinning = self.shared.open.lock().clone();
                self.shared.force_evict.store(true, Ordering::SeqCst);
                // The worker evicts every open client on its next loop
                // iteration, drains, and completes.
                let (outcome, stats) = self.worker.join().expect("verifier thread panicked");
                Err(Box::new(FinishTimeout {
                    pinning,
                    outcome,
                    stats,
                }))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // The worker died without sending; join to surface the
                // panic.
                Ok(self.worker.join().expect("verifier thread panicked"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::IsolationLevel;
    use crate::trace::{OpKind, Trace};
    use crate::types::{ClientId, Timestamp, TxnId};
    use crate::Interval;

    fn iv(lo: u64, hi: u64) -> Interval {
        Interval::new(Timestamp(lo), Timestamp(hi))
    }

    #[test]
    fn multi_client_online_verification() {
        let (leopard, handles) = OnlineLeopard::start(
            4,
            VerifierConfig::for_level(IsolationLevel::Serializable),
            (0..16).map(|k| (Key(k), Value(0))).collect(),
        );
        let mut joins = Vec::new();
        for (c, handle) in handles.into_iter().enumerate() {
            joins.push(std::thread::spawn(move || {
                // Each client writes its own key range serially.
                for i in 0..50u64 {
                    let txn = TxnId((c as u64) * 1000 + i + 1);
                    let base = i * 100 + c as u64 * 3;
                    let key = Key(c as u64 * 4 + (i % 4));
                    handle.record(Trace::new(
                        iv(base + 1, base + 2),
                        ClientId(c as u32),
                        txn,
                        OpKind::Write(vec![(key, Value(1_000_000 + txn.0))]),
                    ));
                    handle.record(Trace::new(
                        iv(base + 3, base + 4),
                        ClientId(c as u32),
                        txn,
                        OpKind::Commit,
                    ));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let (outcome, stats) = leopard.finish_with_stats();
        assert_eq!(stats.dispatched, 4 * 50 * 2);
        assert_eq!(outcome.counters.committed, 200);
        assert!(outcome.report.is_clean(), "{}", outcome.report);
    }

    #[test]
    // The leak IS the scenario under test: a client that never closes.
    #[allow(clippy::mem_forget)]
    fn leaked_handle_times_out_naming_the_pinning_client() {
        // Regression test for the `finish` hang: client 1's handle is never
        // dropped, so its stream never closes and the old blocking `finish`
        // would wait forever. `finish_with_timeout` must instead name the
        // offending client, evict it, and still return the verified result
        // for everything client 0 delivered.
        let (leopard, mut handles) = OnlineLeopard::start(
            2,
            VerifierConfig::for_level(IsolationLevel::Serializable),
            vec![(Key(1), Value(0))],
        );
        let alive = handles.remove(0);
        alive.record(Trace::new(
            iv(10, 12),
            ClientId(0),
            TxnId(1),
            OpKind::Write(vec![(Key(1), Value(7))]),
        ));
        alive.record(Trace::new(
            iv(13, 15),
            ClientId(0),
            TxnId(1),
            OpKind::Commit,
        ));
        drop(alive);
        // `handles[0]` is now client 1's handle: leak it.
        std::mem::forget(handles);
        let err = leopard
            .finish_with_timeout(std::time::Duration::from_millis(200))
            .expect_err("a leaked handle must surface as a timeout");
        assert!(
            err.pinning.contains(&ClientId(1)),
            "timeout must name the client whose stream never closed: {err}"
        );
        assert!(!err.pinning.contains(&ClientId(0)));
        // The degraded completion still verified client 0's transaction.
        assert_eq!(err.outcome.counters.committed, 1);
        assert!(err.outcome.report.is_clean());
        assert!(err.outcome.coverage.evicted_clients.contains(&ClientId(1)));
        assert!(!err.outcome.coverage.is_complete());
    }

    #[test]
    // The leak IS the scenario under test: a crashed client's stream stays
    // open forever.
    #[allow(clippy::mem_forget)]
    fn stall_timeout_evicts_the_pinning_client() {
        // Client 1 delivers one write then goes silent mid-transaction
        // (crashed client: no terminal trace, stream never closed). With an
        // eviction timeout the chain must terminate on its own, mark the
        // transaction indeterminate, and stay clean.
        let (leopard, mut handles) = OnlineLeopard::start_opts(
            2,
            VerifierConfig::for_level(IsolationLevel::Serializable),
            OnlineOptions {
                eviction_timeout: Some(std::time::Duration::from_millis(100)),
                ..OnlineOptions::default()
            },
            vec![(Key(1), Value(0)), (Key(2), Value(0))],
        );
        let stalled = handles.remove(1);
        stalled.record(Trace::new(
            iv(5, 6),
            ClientId(1),
            TxnId(100),
            OpKind::Write(vec![(Key(2), Value(9))]),
        ));
        std::mem::forget(stalled); // never closes, never commits
        let alive = handles.remove(0);
        alive.record(Trace::new(
            iv(10, 12),
            ClientId(0),
            TxnId(1),
            OpKind::Write(vec![(Key(1), Value(7))]),
        ));
        alive.record(Trace::new(
            iv(13, 15),
            ClientId(0),
            TxnId(1),
            OpKind::Commit,
        ));
        drop(alive);
        let (outcome, stats) = leopard
            .finish_with_timeout(std::time::Duration::from_secs(30))
            .map_err(|e| e.to_string())
            .expect("eviction timeout must let the chain terminate by itself");
        assert_eq!(stats.evicted_clients, 1);
        assert!(outcome.coverage.evicted_clients.contains(&ClientId(1)));
        assert!(outcome.coverage.indeterminate_txns.contains(&TxnId(100)));
        assert!(outcome.report.is_clean(), "{}", outcome.report);
    }

    #[test]
    // The leak IS the scenario under test: the laggard never closes.
    #[allow(clippy::mem_forget)]
    fn memory_budget_ladder_evicts_laggard_instead_of_growing() {
        use crate::budget::MemBudget;
        // Client 1 is silent forever, pinning the watermark at ZERO, while
        // client 0 floods open (never-terminated) transactions the GC can
        // never reclaim. With no eviction timeout, only the budget ladder
        // can unblock the chain: rung 2 force-dispatches the pipeline,
        // rung 3 evicts the pinning laggard, and the run completes with an
        // explicit coverage hole instead of growing without bound.
        let mut cfg = VerifierConfig::for_level(IsolationLevel::Serializable);
        cfg.mem_budget = MemBudget::bytes(4096);
        let (leopard, mut handles) =
            OnlineLeopard::start_opts(2, cfg, OnlineOptions::default(), vec![(Key(1), Value(0))]);
        let laggard = handles.remove(1);
        std::mem::forget(laggard);
        let alive = handles.remove(0);
        for i in 0..300u64 {
            // Each write opens a fresh transaction that never terminates:
            // irreducible verifier state, far beyond the 4 KiB budget.
            alive.record(Trace::new(
                iv(10 + 2 * i, 11 + 2 * i),
                ClientId(0),
                TxnId(i + 1),
                OpKind::Write(vec![(Key(1), Value(i + 1))]),
            ));
        }
        alive.record(Trace::new(
            iv(1000, 1001),
            ClientId(0),
            TxnId(301),
            OpKind::Write(vec![(Key(1), Value(999))]),
        ));
        alive.record(Trace::new(
            iv(1002, 1003),
            ClientId(0),
            TxnId(301),
            OpKind::Commit,
        ));
        drop(alive);
        let (outcome, stats) = leopard
            .finish_with_timeout(Duration::from_secs(30))
            .map_err(|e| e.to_string())
            .expect("budget ladder must terminate the chain without a timeout");
        assert!(outcome.report.is_clean(), "{}", outcome.report);
        assert_eq!(outcome.counters.committed, 1);
        assert!(
            outcome.counters.budget.budget_evictions >= 1,
            "rung 3 must have fired: {:?}",
            outcome.counters.budget
        );
        assert!(
            outcome.counters.budget.forced_dispatches >= 1,
            "rung 2 must have fired"
        );
        assert!(
            outcome.counters.budget.forced_gcs >= 1,
            "rung 1 must have fired"
        );
        assert!(outcome.counters.budget.peak_bytes > 0);
        assert!(outcome.coverage.evicted_clients.contains(&ClientId(1)));
        assert!(!outcome.coverage.is_complete());
        assert!(stats.forced_dispatches >= 1);
    }

    #[test]
    fn violations_surface_through_the_chain() {
        let (leopard, mut handles) = OnlineLeopard::start(
            1,
            VerifierConfig::for_level(IsolationLevel::Serializable),
            vec![(Key(1), Value(0))],
        );
        let handle = handles.remove(0);
        // A dirty read: observes a value that was never committed.
        handle.record(Trace::new(
            iv(10, 12),
            ClientId(0),
            TxnId(1),
            OpKind::Read(vec![(Key(1), Value(99))]),
        ));
        handle.record(Trace::new(
            iv(13, 15),
            ClientId(0),
            TxnId(1),
            OpKind::Commit,
        ));
        drop(handle);
        let outcome = leopard.finish();
        assert_eq!(outcome.report.violations.len(), 1);
    }

    #[test]
    fn client_clock_regression_is_a_recorded_hole_not_a_silent_drop() {
        let (leopard, mut handles) = OnlineLeopard::start(
            2,
            VerifierConfig::for_level(IsolationLevel::Serializable),
            vec![(Key(1), Value(0))],
        );
        // Client 1 only keeps the chain alive until client 0 is through.
        let keepalive = handles.remove(1);
        let stepped = handles.remove(0);
        let record =
            |lo, txn, op| stepped.record(Trace::new(iv(lo, lo + 1), ClientId(0), TxnId(txn), op));
        record(100, 1, OpKind::Write(vec![(Key(1), Value(7))]));
        record(104, 1, OpKind::Commit);
        // The clock steps back; behind the step, two dirty reads of a
        // value nobody wrote — the second with the clock back in order.
        record(50, 2, OpKind::Read(vec![(Key(1), Value(99))]));
        record(60, 2, OpKind::Commit);
        record(200, 3, OpKind::Read(vec![(Key(1), Value(99))]));
        record(210, 3, OpKind::Commit);
        drop(stepped);
        drop(keepalive);
        let (outcome, stats) = leopard.finish_with_stats();
        assert_eq!(outcome.counters.traces, 2);
        assert_eq!(outcome.counters.committed, 1);
        // The stream was closed at the step, so the reads went unverified
        // — and the verdict says so instead of "clean, complete".
        assert!(outcome.report.is_clean(), "{}", outcome.report);
        assert!(!outcome.coverage.is_complete());
        assert_eq!(outcome.coverage.evicted_clients, vec![ClientId(0)]);
        assert!(
            outcome
                .coverage
                .notes
                .iter()
                .any(|n| n.contains("ts_bef 50ns after 104ns")),
            "a note must name the regression: {:?}",
            outcome.coverage.notes
        );
        assert_eq!(stats.shed_traces, 4, "the discarded remainder is counted");
        assert_eq!(outcome.counters.budget.shed_traces, 4);
    }
}

//! The two-level pipeline that sorts massive streaming traces online
//! (§IV-C, Algorithm 1 of the paper).
//!
//! Each client appends traces — in increasing `ts_bef` order — to its own
//! *local buffer*. A *global buffer* (min-heap keyed on `ts_bef`) fetches
//! traces from the local buffers and dispatches them to the verifier once
//! the *watermark* proves no smaller-timestamped trace can still arrive.
//!
//! Theorem 1 (dispatch order) is enforced structurally: a trace leaves the
//! heap only when its `ts_bef` is at or below the minimum possible
//! `ts_bef` of every trace not yet in the heap, which is tracked per
//! client as "head of its local buffer, else the last timestamp it was
//! seen at, else +∞ once closed".
//!
//! The two §IV-C optimizations are independently switchable so the paper's
//! `w/o Opt` baseline (Fig. 10) shares this exact code path:
//!
//! * **prefer-smallest fetch** — fetch only from the local buffer whose
//!   head timestamp currently blocks the watermark, instead of draining
//!   every buffer each round;
//! * **bounded global buffer** — stop fetching once the heap holds enough
//!   dispatchable traces, keeping in-rate equal to out-rate and the heap
//!   size stable.

// A panic here kills the stream being verified: return a typed error, or
// mark the exception `#[expect(clippy::…, reason = "…")]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod channel;

pub use channel::{Backpressure, ChannelTracer, ClientHandle};

use crate::obs;
use crate::trace::Trace;
use crate::types::Timestamp;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Pipeline tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Optimization (a): fetch from the local buffer with the smallest
    /// head timestamp first, rather than draining all buffers each round.
    pub prefer_smallest: bool,
    /// Optimization (b): keep fetch and dispatch rates matched by moving
    /// at most `fetch_batch` traces per fetch step instead of draining
    /// the pinning buffer completely.
    pub bound_global: bool,
    /// Maximum traces moved from one local buffer per fetch step when
    /// `bound_global` is set.
    pub fetch_batch: usize,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            prefer_smallest: true,
            bound_global: true,
            fetch_batch: 256,
        }
    }
}

impl PipelineConfig {
    /// The paper's `w/o Opt` configuration: Algorithm 1 verbatim, fetching
    /// every local buffer fully each round with no size bound.
    #[must_use]
    pub fn without_optimizations() -> PipelineConfig {
        PipelineConfig {
            prefer_smallest: false,
            bound_global: false,
            ..PipelineConfig::default()
        }
    }
}

/// Errors surfaced by the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// A client pushed a trace whose `ts_bef` went backwards. Per-client
    /// monotonicity is the precondition of Theorem 1.
    NonMonotonicClient {
        /// Index of the offending local buffer.
        client: usize,
        /// Timestamp the client was last seen at.
        last: Timestamp,
        /// The regressing timestamp that was pushed.
        pushed: Timestamp,
    },
    /// A push or close referenced a client index that does not exist.
    UnknownClient(usize),
    /// A push arrived after the client was closed.
    ClientClosed(usize),
}

impl PipelineError {
    /// The client index the error is about.
    #[must_use]
    pub fn client(&self) -> usize {
        match *self {
            PipelineError::NonMonotonicClient { client, .. }
            | PipelineError::UnknownClient(client)
            | PipelineError::ClientClosed(client) => client,
        }
    }
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::NonMonotonicClient {
                client,
                last,
                pushed,
            } => write!(
                f,
                "client {client} pushed ts_bef {pushed} after {last}: traces must be \
                 pushed in increasing ts_bef order"
            ),
            PipelineError::UnknownClient(c) => write!(f, "unknown client index {c}"),
            PipelineError::ClientClosed(c) => write!(f, "client {c} already closed"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Occupancy and progress counters of one pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Traces dispatched so far.
    pub dispatched: u64,
    /// Traces fetched from local buffers into the global heap so far.
    pub fetched: u64,
    /// Fetch rounds executed.
    pub rounds: u64,
    /// Maximum size the global heap ever reached.
    pub max_global: usize,
    /// Maximum total occupancy of all local buffers.
    pub max_local_total: usize,
    /// Maximum of (heap + local buffers): the pipeline's peak footprint
    /// in buffered traces (Fig. 10(a)'s memory metric).
    pub max_total_buffered: usize,
    /// Clients force-closed by [`TwoLevelPipeline::evict`] (stall-timeout
    /// eviction under degraded-mode operation).
    pub evicted_clients: u64,
    /// Exact back-to-back duplicate pushes dropped at the local buffers
    /// (re-delivery under chaotic trace transport).
    pub duplicates_dropped: u64,
    /// Traces shed before reaching the pipeline: records refused by a
    /// closed stream or after collector shutdown, what an evicted client's
    /// buffer still held, and the remainder of a stream closed at a clock
    /// regression (see [`ClientHandle::record`]).
    pub shed_traces: u64,
    /// Traces dropped because they arrived below a forced-dispatch
    /// floor: [`TwoLevelPipeline::force_dispatch`] flushed the buffers
    /// past them, so replaying them would break Theorem 1's dispatch
    /// order. Each one is an explicit coverage hole.
    pub late_dropped: u64,
    /// Budget-ladder rung 2 activations ([`TwoLevelPipeline::force_dispatch`]).
    pub forced_dispatches: u64,
    /// High-water mark of the pipeline's estimated buffered bytes
    /// (`max_total_buffered × ~bytes-per-trace`).
    pub peak_mem_bytes: u64,
}

/// Cheap per-trace byte estimate used by the pipeline's
/// [`MemUsage`](crate::budget::MemUsage) accounting: the inline `Trace`
/// struct plus a flat allowance for its op payload (key/value vectors).
pub const TRACE_APPROX_BYTES: usize = std::mem::size_of::<Trace>() + 64;

#[derive(Debug)]
struct HeapEntry {
    trace: Trace,
    seq: u64,
}

impl HeapEntry {
    fn key(&self) -> (Timestamp, Timestamp, u64) {
        (self.trace.ts_bef(), self.trace.ts_aft(), self.seq)
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

#[derive(Debug)]
struct LocalBuffer {
    queue: VecDeque<Trace>,
    /// Lower bound on the `ts_bef` of any trace this client may still
    /// produce: the last timestamp seen from it.
    last_seen: Timestamp,
    closed: bool,
    local_total: usize,
    /// The most recent trace accepted from this client, once it has left
    /// `queue`: while the queue is non-empty its tail is that trace, so a
    /// copy is made only by the fetch that empties the queue.
    last_fetched: Option<Trace>,
}

impl LocalBuffer {
    /// Minimum `ts_bef` any not-yet-fetched trace of this client can have;
    /// `None` means "no further traces" (closed and drained).
    fn lower_bound(&self) -> Option<Timestamp> {
        if let Some(front) = self.queue.front() {
            Some(front.ts_bef())
        } else if self.closed {
            None
        } else {
            Some(self.last_seen)
        }
    }

    /// The most recent trace accepted from this client, kept to drop
    /// exact re-deliveries (duplicates arrive back-to-back per client).
    fn last_accepted(&self) -> Option<&Trace> {
        self.queue.back().or(self.last_fetched.as_ref())
    }
}

/// The two-level pipeline: local buffers + watermarked global min-heap.
///
/// This is a single-owner deterministic structure; multi-threaded trace
/// collection wraps it via [`ChannelTracer`].
#[derive(Debug)]
pub struct TwoLevelPipeline {
    locals: Vec<LocalBuffer>,
    heap: BinaryHeap<Reverse<HeapEntry>>,
    cfg: PipelineConfig,
    stats: PipelineStats,
    seq: u64,
    local_total: usize,
    last_dispatched: Timestamp,
    /// Set by [`force_dispatch`](Self::force_dispatch): traces below this
    /// floor can no longer be dispatched in order and are shed on push.
    forced_floor: Timestamp,
}

impl TwoLevelPipeline {
    /// Creates a pipeline for `n_clients` trace-producing clients.
    #[must_use]
    pub fn new(n_clients: usize, cfg: PipelineConfig) -> TwoLevelPipeline {
        TwoLevelPipeline {
            locals: (0..n_clients)
                .map(|_| LocalBuffer {
                    queue: VecDeque::new(),
                    last_seen: Timestamp::ZERO,
                    closed: false,
                    local_total: 0,
                    last_fetched: None,
                })
                .collect(),
            heap: BinaryHeap::new(),
            cfg,
            stats: PipelineStats::default(),
            seq: 0,
            local_total: 0,
            last_dispatched: Timestamp::ZERO,
            forced_floor: Timestamp::ZERO,
        }
    }

    /// Number of clients the pipeline was created with.
    #[must_use]
    pub fn clients(&self) -> usize {
        self.locals.len()
    }

    /// Appends a trace to `client`'s local buffer. Traces must arrive in
    /// non-decreasing `ts_bef` order per client (Theorem 1 precondition).
    pub fn push(&mut self, client: usize, trace: Trace) -> Result<(), PipelineError> {
        let local = self
            .locals
            .get_mut(client)
            .ok_or(PipelineError::UnknownClient(client))?;
        if local.closed {
            return Err(PipelineError::ClientClosed(client));
        }
        if local.last_accepted() == Some(&trace) {
            // A re-delivered trace: transports under fault injection may
            // duplicate a delivery; the duplicate arrives immediately after
            // the original because pushes are per-client FIFO. Dropping it
            // here keeps duplicates out of the watermark accounting and the
            // verifier alike.
            self.stats.duplicates_dropped += 1;
            obs::ctr(obs::Counter::DuplicatesDropped, 1);
            return Ok(());
        }
        if trace.ts_bef() < local.last_seen {
            return Err(PipelineError::NonMonotonicClient {
                client,
                last: local.last_seen,
                pushed: trace.ts_bef(),
            });
        }
        if trace.ts_bef() < self.forced_floor {
            // A forced dispatch already flushed the stream past this
            // timestamp; replaying the trace would dispatch out of order.
            // Shed it (counted — it is a coverage hole, not a silent loss)
            // but still advance the client's bound so the watermark moves.
            local.last_seen = trace.ts_bef();
            self.stats.late_dropped += 1;
            obs::ctr(obs::Counter::LateDropped, 1);
            return Ok(());
        }
        local.last_seen = trace.ts_bef();
        local.queue.push_back(trace);
        local.local_total += 1;
        self.local_total += 1;
        self.stats.max_local_total = self.stats.max_local_total.max(self.local_total);
        self.note_footprint();
        Ok(())
    }

    /// Declares that `client` will produce no further traces.
    pub fn close(&mut self, client: usize) -> Result<(), PipelineError> {
        let local = self
            .locals
            .get_mut(client)
            .ok_or(PipelineError::UnknownClient(client))?;
        local.closed = true;
        Ok(())
    }

    /// Force-closes a dead or stalled client so it stops pinning the
    /// watermark. Identical to [`close`](Self::close) except the eviction
    /// is counted in [`PipelineStats::evicted_clients`]; traces the client
    /// already buffered are still dispatched in order, so the watermark
    /// stays monotone.
    pub fn evict(&mut self, client: usize) -> Result<(), PipelineError> {
        let local = self
            .locals
            .get_mut(client)
            .ok_or(PipelineError::UnknownClient(client))?;
        if !local.closed {
            local.closed = true;
            self.stats.evicted_clients += 1;
        }
        Ok(())
    }

    /// The open client currently *pinning* the watermark with an empty
    /// local buffer — i.e. the one client whose silence alone blocks every
    /// dispatch — or `None` if dispatch is not blocked on a silent client.
    ///
    /// This is the stall-detection probe: when the pipeline makes no
    /// progress for longer than the eviction timeout, the pinning client is
    /// the one to [`evict`](Self::evict).
    #[must_use]
    pub fn pinning_client(&self) -> Option<usize> {
        if self.heap.is_empty() && self.local_total == 0 {
            return None; // nothing buffered: no dispatch is blocked
        }
        let (_, empty, idx) = self
            .locals
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.lower_bound().map(|b| (b, l.queue.is_empty(), i)))
            .min()?;
        if empty && !self.locals[idx].closed {
            Some(idx)
        } else {
            None
        }
    }

    /// The open client holding the watermark furthest back — the one
    /// with the smallest lower bound — regardless of whether anything is
    /// currently buffered. This is the budget ladder's rung-3 target:
    /// unlike [`pinning_client`](Self::pinning_client) it also names the
    /// laggard when a forced dispatch just emptied the buffers.
    #[must_use]
    pub fn laggard_client(&self) -> Option<usize> {
        self.locals
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.closed)
            .filter_map(|(i, l)| l.lower_bound().map(|b| (b, i)))
            .min()
            .map(|(_, i)| i)
    }

    /// The current watermark: the smallest `ts_bef` any not-yet-fetched
    /// trace can have, or `None` when every client is closed and drained
    /// (in which case everything in the heap is dispatchable).
    #[must_use]
    pub fn watermark(&self) -> Option<Timestamp> {
        self.locals
            .iter()
            .filter_map(LocalBuffer::lower_bound)
            .min()
    }

    /// Tries to dispatch the next trace in global `ts_bef` order.
    ///
    /// Returns `None` when no trace can currently be *proven* next — either
    /// the pipeline is empty, or an open client with an empty buffer pins
    /// the watermark (more pushes or a `close` are needed).
    pub fn try_dispatch(&mut self) -> Option<Trace> {
        loop {
            if self.heap_top_dispatchable() {
                // `heap_top_dispatchable` returned true, so the heap is
                // non-empty; degrade to "nothing provable" otherwise.
                let Reverse(entry) = self.heap.pop()?;
                self.stats.dispatched += 1;
                debug_assert!(
                    entry.trace.ts_bef() >= self.last_dispatched,
                    "Theorem 1 violated: dispatch went backwards"
                );
                self.last_dispatched = entry.trace.ts_bef();
                return Some(entry.trace);
            }
            if !self.fetch_round() {
                return None;
            }
        }
    }

    /// Dispatches every currently provable trace into `out`.
    pub fn drain_available(&mut self, out: &mut Vec<Trace>) {
        let timer = obs::timer_start();
        let before = out.len();
        while let Some(t) = self.try_dispatch() {
            out.push(t);
        }
        let drained = out.len() - before;
        if timer.is_some() && drained > 0 {
            obs::hist(obs::HistId::DispatchLatencyUs, obs::timer_end(timer));
            obs::ctr(obs::Counter::Dispatched, drained as u64);
            obs::gauge_set(obs::Gauge::WatermarkLag, self.watermark_lag());
        }
    }

    /// Observability estimate of how far dispatch trails ingest: the
    /// newest `ts_bef` any client has pushed minus the current watermark,
    /// in capture-timestamp units. Zero when everything provable has been
    /// dispatched or the pipeline is fully drained.
    fn watermark_lag(&self) -> u64 {
        let Some(wm) = self.watermark() else { return 0 };
        let newest = self.locals.iter().map(|l| l.last_seen).max().unwrap_or(wm);
        newest.0.saturating_sub(wm.0)
    }

    /// Rung 2 of the overload ladder: flush *everything* buffered —
    /// local buffers and global heap — into `out` in global `ts_bef`
    /// order, without waiting for the watermark proof.
    ///
    /// The flushed traces themselves are emitted sorted (the heap pops
    /// in order), so the verifier still sees a monotone stream; the cost
    /// is paid by stragglers: any trace later pushed below the forced
    /// floor is shed and counted in [`PipelineStats::late_dropped`].
    /// Returns the number of traces flushed.
    pub fn force_dispatch(&mut self, out: &mut Vec<Trace>) -> usize {
        for idx in 0..self.locals.len() {
            self.move_from_local(idx, usize::MAX);
        }
        let mut n = 0;
        while let Some(Reverse(entry)) = self.heap.pop() {
            self.stats.dispatched += 1;
            self.last_dispatched = entry.trace.ts_bef();
            out.push(entry.trace);
            n += 1;
        }
        self.forced_floor = self.forced_floor.max(self.last_dispatched);
        self.stats.forced_dispatches += 1;
        obs::ctr(obs::Counter::ForcedDispatches, 1);
        obs::ctr(obs::Counter::Dispatched, n as u64);
        n
    }

    /// Cheap estimate of the pipeline's buffered memory: every trace in
    /// the local buffers and the global heap at
    /// [`TRACE_APPROX_BYTES`] each.
    #[must_use]
    pub fn mem_usage(&self) -> crate::budget::MemUsage {
        crate::budget::MemUsage::per_entry(self.heap.len() + self.local_total, TRACE_APPROX_BYTES)
    }

    /// `true` when every client is closed and every buffer (local and
    /// global) is empty.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.heap.is_empty() && self.locals.iter().all(|l| l.closed && l.queue.is_empty())
    }

    /// Progress and occupancy counters.
    #[must_use]
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Current global heap occupancy.
    #[must_use]
    pub fn global_len(&self) -> usize {
        self.heap.len()
    }

    /// Current total local buffer occupancy.
    #[must_use]
    pub fn local_len(&self) -> usize {
        self.local_total
    }

    fn heap_top_dispatchable(&self) -> bool {
        match self.heap.peek() {
            None => false,
            Some(Reverse(top)) => match self.watermark() {
                None => true,
                Some(w) => top.trace.ts_bef() <= w,
            },
        }
    }

    /// One fetch round (stage (b) of Algorithm 1). Returns `false` when no
    /// trace could be moved, i.e. the caller must wait for more pushes.
    fn fetch_round(&mut self) -> bool {
        self.stats.rounds += 1;
        let moved = if self.cfg.prefer_smallest {
            self.fetch_preferring_smallest()
        } else {
            self.fetch_all_locals()
        };
        moved > 0
    }

    /// Optimized fetch: move traces only from the buffer that *pins the
    /// watermark*, a batch at a time, and only while that helps dispatch.
    ///
    /// Fetching from any other buffer cannot raise the watermark, so it
    /// would only inflate the heap with traces that are not yet provably
    /// next — this is precisely how the optimized pipeline keeps the
    /// global buffer small on skewed clients (Fig. 10(a)). If the
    /// watermark is pinned by an open client with an empty buffer, no
    /// fetch can help: the dispatcher must wait for that client.
    fn fetch_preferring_smallest(&mut self) -> usize {
        let mut moved = 0;
        loop {
            if self.heap_top_dispatchable() {
                break;
            }
            // The client with the smallest lower bound pins the watermark.
            let pin = self
                .locals
                .iter()
                .enumerate()
                .filter_map(|(i, l)| l.lower_bound().map(|b| (b, l.queue.is_empty(), i)))
                .min();
            let Some((_, empty, idx)) = pin else {
                break; // every client closed and drained
            };
            if empty {
                break; // pinned by a silent open client: wait for pushes
            }
            let batch = if self.cfg.bound_global {
                self.cfg.fetch_batch
            } else {
                usize::MAX
            };
            let n = self.move_from_local(idx, batch);
            moved += n;
            if n == 0 {
                break;
            }
        }
        moved
    }

    /// Unoptimized fetch: drain every local buffer completely into the
    /// global heap (Algorithm 1 lines 4–5, verbatim).
    fn fetch_all_locals(&mut self) -> usize {
        let mut moved = 0;
        for idx in 0..self.locals.len() {
            moved += self.move_from_local(idx, usize::MAX);
        }
        moved
    }

    fn move_from_local(&mut self, idx: usize, limit: usize) -> usize {
        let mut n = 0;
        while n < limit {
            let local = &mut self.locals[idx];
            let Some(trace) = local.queue.pop_front() else {
                break;
            };
            if local.queue.is_empty() {
                local.last_fetched = Some(trace.clone());
            }
            local.local_total -= 1;
            self.local_total -= 1;
            self.seq += 1;
            self.heap.push(Reverse(HeapEntry {
                trace,
                seq: self.seq,
            }));
            n += 1;
        }
        self.stats.fetched += n as u64;
        self.stats.max_global = self.stats.max_global.max(self.heap.len());
        self.note_footprint();
        n
    }

    fn note_footprint(&mut self) {
        let total = self.heap.len() + self.local_total;
        self.stats.max_total_buffered = self.stats.max_total_buffered.max(total);
        self.stats.peak_mem_bytes = self
            .stats
            .peak_mem_bytes
            .max((total as u64) * (TRACE_APPROX_BYTES as u64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{OpKind, Trace};
    use crate::types::{ClientId, TxnId};
    use crate::Interval;

    fn t(client: u32, lo: u64, hi: u64) -> Trace {
        Trace::new(
            Interval::new(Timestamp(lo), Timestamp(hi)),
            ClientId(client),
            TxnId(u64::from(client) * 1000 + lo),
            OpKind::Commit,
        )
    }

    fn run_to_completion(p: &mut TwoLevelPipeline) -> Vec<Trace> {
        let mut out = Vec::new();
        p.drain_available(&mut out);
        assert!(p.is_exhausted(), "pipeline left traces behind");
        out
    }

    #[test]
    fn dispatches_in_ts_bef_order_across_clients() {
        let mut p = TwoLevelPipeline::new(2, PipelineConfig::default());
        // Fig. 5's example: interleaved odd/even timestamps on two clients.
        for ts in [1u64, 3, 5, 7, 9, 11] {
            p.push(0, t(0, ts, ts + 1)).unwrap();
        }
        for ts in [2u64, 4, 6, 8, 10, 12] {
            p.push(1, t(1, ts, ts + 1)).unwrap();
        }
        p.close(0).unwrap();
        p.close(1).unwrap();
        let out = run_to_completion(&mut p);
        let times: Vec<u64> = out.iter().map(|t| t.ts_bef().0).collect();
        assert_eq!(times, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
    }

    #[test]
    fn waits_for_slow_open_client() {
        let mut p = TwoLevelPipeline::new(2, PipelineConfig::default());
        p.push(0, t(0, 10, 11)).unwrap();
        // Client 1 is open and silent: nothing may be dispatched because a
        // trace with ts_bef < 10 could still arrive from it.
        assert_eq!(p.try_dispatch(), None);
        p.push(1, t(1, 5, 6)).unwrap();
        // Now 5 is provably first (client 0's bound is 10, client 1's is 5).
        let first = p.try_dispatch().unwrap();
        assert_eq!(first.ts_bef(), Timestamp(5));
        // 10 still can't go: client 1's bound is its last seen ts (5).
        assert_eq!(p.try_dispatch(), None);
        p.close(1).unwrap();
        assert_eq!(p.try_dispatch().unwrap().ts_bef(), Timestamp(10));
    }

    #[test]
    fn rejects_non_monotonic_push() {
        let mut p = TwoLevelPipeline::new(1, PipelineConfig::default());
        p.push(0, t(0, 10, 11)).unwrap();
        let err = p.push(0, t(0, 9, 12)).unwrap_err();
        assert!(matches!(err, PipelineError::NonMonotonicClient { .. }));
    }

    #[test]
    fn rejects_unknown_and_closed_clients() {
        let mut p = TwoLevelPipeline::new(1, PipelineConfig::default());
        assert!(matches!(
            p.push(3, t(0, 1, 2)),
            Err(PipelineError::UnknownClient(3))
        ));
        p.close(0).unwrap();
        assert!(matches!(
            p.push(0, t(0, 1, 2)),
            Err(PipelineError::ClientClosed(0))
        ));
    }

    #[test]
    fn equal_timestamps_are_dispatched_stably() {
        let mut p = TwoLevelPipeline::new(2, PipelineConfig::default());
        p.push(0, t(0, 5, 6)).unwrap();
        p.push(1, t(1, 5, 6)).unwrap();
        p.close(0).unwrap();
        p.close(1).unwrap();
        let out = run_to_completion(&mut p);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].ts_bef(), out[1].ts_bef());
    }

    #[test]
    fn optimized_keeps_heap_smaller_on_skewed_clients() {
        // Client 0 runs far behind client 1; the unoptimized pipeline
        // accumulates all of client 1's traces in the heap while waiting.
        let make_pushes = |p: &mut TwoLevelPipeline| {
            for i in 0..500u64 {
                p.push(1, t(1, 10_000 + i, 10_001 + i)).unwrap();
            }
            for i in 0..5u64 {
                p.push(0, t(0, i, i + 1)).unwrap();
            }
            p.close(0).unwrap();
            p.close(1).unwrap();
        };

        let mut opt = TwoLevelPipeline::new(2, PipelineConfig::default());
        make_pushes(&mut opt);
        let out_opt = run_to_completion(&mut opt);

        let mut noopt = TwoLevelPipeline::new(2, PipelineConfig::without_optimizations());
        make_pushes(&mut noopt);
        let out_noopt = run_to_completion(&mut noopt);

        assert_eq!(out_opt.len(), out_noopt.len());
        assert!(
            opt.stats().max_global < noopt.stats().max_global,
            "optimized heap {} should be smaller than unoptimized {}",
            opt.stats().max_global,
            noopt.stats().max_global
        );
    }

    #[test]
    fn incremental_push_dispatch_cycles() {
        let mut p = TwoLevelPipeline::new(2, PipelineConfig::default());
        let mut out = Vec::new();
        let mut next = [0u64, 0u64];
        // Interleave pushes and drains in small batches, like the 0.5 s
        // batching of §VI-C.
        for round in 0..50 {
            for (c, n) in next.iter_mut().enumerate() {
                for _ in 0..3 {
                    *n += 1 + (round as u64 % 3);
                    let ts = *n * 2 + c as u64;
                    p.push(c, t(c as u32, ts, ts + 1)).unwrap();
                }
            }
            p.drain_available(&mut out);
        }
        p.close(0).unwrap();
        p.close(1).unwrap();
        p.drain_available(&mut out);
        assert!(p.is_exhausted());
        assert_eq!(out.len(), 300);
        assert!(out.windows(2).all(|w| w[0].ts_bef() <= w[1].ts_bef()));
    }

    #[test]
    fn close_with_buffered_traces_still_dispatches_them() {
        let mut p = TwoLevelPipeline::new(2, PipelineConfig::default());
        for ts in [1u64, 4, 7] {
            p.push(0, t(0, ts, ts + 1)).unwrap();
        }
        p.push(1, t(1, 2, 3)).unwrap();
        // Close client 0 while it still has three buffered traces; they
        // must all come out, interleaved in global order.
        p.close(0).unwrap();
        p.close(1).unwrap();
        let out = run_to_completion(&mut p);
        let times: Vec<u64> = out.iter().map(|t| t.ts_bef().0).collect();
        assert_eq!(times, vec![1, 2, 4, 7]);
    }

    #[test]
    fn evicting_all_clients_unblocks_and_exhausts() {
        let mut p = TwoLevelPipeline::new(3, PipelineConfig::default());
        p.push(0, t(0, 10, 11)).unwrap();
        p.push(1, t(1, 20, 21)).unwrap();
        // Client 2 is silent and pins the watermark at ZERO.
        assert_eq!(p.try_dispatch(), None);
        assert_eq!(p.pinning_client(), Some(2));
        p.evict(2).unwrap();
        // Clients 0 and 1 are now the (successive) pins once drained.
        let first = p.try_dispatch().unwrap();
        assert_eq!(first.ts_bef(), Timestamp(10));
        p.evict(0).unwrap();
        p.evict(1).unwrap();
        let out = run_to_completion(&mut p);
        assert_eq!(out.len(), 1);
        assert_eq!(p.stats().evicted_clients, 3);
        // Evicting an already-closed client is a no-op, not a double count.
        p.evict(1).unwrap();
        assert_eq!(p.stats().evicted_clients, 3);
    }

    #[test]
    fn duplicate_delivery_is_dropped_exactly_once() {
        let mut p = TwoLevelPipeline::new(1, PipelineConfig::default());
        let tr = t(0, 5, 6);
        p.push(0, tr.clone()).unwrap();
        p.push(0, tr.clone()).unwrap(); // exact re-delivery: dropped
        p.push(0, t(0, 7, 8)).unwrap();
        p.close(0).unwrap();
        let out = run_to_completion(&mut p);
        assert_eq!(out.len(), 2, "duplicate must be deduped exactly once");
        assert_eq!(out[0], tr);
        assert_eq!(p.stats().duplicates_dropped, 1);
        assert_eq!(p.stats().dispatched, 2);
    }

    #[test]
    fn duplicate_of_a_trace_already_fetched_is_dropped() {
        let mut p = TwoLevelPipeline::new(1, PipelineConfig::default());
        let tr = t(0, 5, 6);
        p.push(0, tr.clone()).unwrap();
        // The fetch empties the queue: the original is no longer its tail.
        assert_eq!(p.try_dispatch(), Some(tr.clone()));
        assert_eq!(p.local_len(), 0);
        p.push(0, tr).unwrap();
        assert_eq!(p.stats().duplicates_dropped, 1);
        assert_eq!(p.local_len(), 0);
    }

    #[test]
    fn distinct_traces_at_equal_timestamps_are_not_deduped() {
        let mut p = TwoLevelPipeline::new(1, PipelineConfig::default());
        // Same interval, different txn ids: both must survive.
        let a = Trace::new(
            Interval::new(Timestamp(5), Timestamp(6)),
            ClientId(0),
            TxnId(1),
            OpKind::Commit,
        );
        let b = Trace::new(
            Interval::new(Timestamp(5), Timestamp(6)),
            ClientId(0),
            TxnId(2),
            OpKind::Commit,
        );
        p.push(0, a).unwrap();
        p.push(0, b).unwrap();
        p.close(0).unwrap();
        let out = run_to_completion(&mut p);
        assert_eq!(out.len(), 2);
        assert_eq!(p.stats().duplicates_dropped, 0);
    }

    #[test]
    fn watermark_stays_monotone_under_eviction() {
        let mut p = TwoLevelPipeline::new(3, PipelineConfig::default());
        for ts in [3u64, 6, 9] {
            p.push(0, t(0, ts, ts + 1)).unwrap();
        }
        for ts in [4u64, 8] {
            p.push(1, t(1, ts, ts + 1)).unwrap();
        }
        p.push(2, t(2, 1, 2)).unwrap();
        let mut out = Vec::new();
        p.drain_available(&mut out);
        // Client 2 went silent after ts 1; evicting it mid-stream must not
        // let any dispatch go backwards.
        p.evict(2).unwrap();
        p.drain_available(&mut out);
        p.close(0).unwrap();
        p.close(1).unwrap();
        p.drain_available(&mut out);
        assert!(p.is_exhausted());
        assert_eq!(out.len(), 6);
        assert!(
            out.windows(2).all(|w| w[0].ts_bef() <= w[1].ts_bef()),
            "dispatch order regressed after eviction"
        );
    }

    #[test]
    fn pinning_client_is_none_when_idle_or_fetchable() {
        let mut p = TwoLevelPipeline::new(2, PipelineConfig::default());
        // Nothing buffered: no dispatch is blocked, so no pin.
        assert_eq!(p.pinning_client(), None);
        p.push(0, t(0, 5, 6)).unwrap();
        // Client 1 is silent at ZERO and blocks client 0's trace.
        assert_eq!(p.pinning_client(), Some(1));
        p.push(1, t(1, 3, 4)).unwrap();
        // The smallest bound now heads a non-empty buffer: fetchable.
        assert_eq!(p.pinning_client(), None);
    }

    #[test]
    fn force_dispatch_flushes_everything_in_order() {
        let mut p = TwoLevelPipeline::new(3, PipelineConfig::default());
        for ts in [10u64, 20, 30] {
            p.push(0, t(0, ts, ts + 1)).unwrap();
        }
        p.push(1, t(1, 15, 16)).unwrap();
        // Client 2 is silent at ZERO: nothing is provably dispatchable.
        assert_eq!(p.try_dispatch(), None);
        let mut out = Vec::new();
        let n = p.force_dispatch(&mut out);
        assert_eq!(n, 4);
        let times: Vec<u64> = out.iter().map(|t| t.ts_bef().0).collect();
        assert_eq!(times, vec![10, 15, 20, 30]);
        assert_eq!(p.stats().forced_dispatches, 1);
        assert_eq!(p.global_len() + p.local_len(), 0);
    }

    #[test]
    fn straggler_below_forced_floor_is_shed_not_reordered() {
        let mut p = TwoLevelPipeline::new(2, PipelineConfig::default());
        p.push(0, t(0, 10, 11)).unwrap();
        let mut out = Vec::new();
        p.force_dispatch(&mut out);
        assert_eq!(out.len(), 1);
        // Client 1 now reports a trace from before the forced floor: it
        // cannot be dispatched in order any more, so it is shed (counted),
        // and the client's bound still advances.
        p.push(1, t(1, 5, 6)).unwrap();
        assert_eq!(p.stats().late_dropped, 1);
        // At-or-above the floor still flows normally.
        p.push(1, t(1, 10, 12)).unwrap();
        p.close(0).unwrap();
        p.close(1).unwrap();
        p.drain_available(&mut out);
        assert!(p.is_exhausted());
        let times: Vec<u64> = out.iter().map(|t| t.ts_bef().0).collect();
        assert_eq!(times, vec![10, 10]);
    }

    #[test]
    fn mem_usage_tracks_buffered_traces() {
        let mut p = TwoLevelPipeline::new(2, PipelineConfig::default());
        assert_eq!(p.mem_usage().entries, 0);
        for ts in [1u64, 2, 3] {
            p.push(0, t(0, ts, ts + 1)).unwrap();
        }
        let u = p.mem_usage();
        assert_eq!(u.entries, 3);
        assert_eq!(u.bytes, 3 * TRACE_APPROX_BYTES as u64);
        assert!(p.stats().peak_mem_bytes >= u.bytes);
        p.close(0).unwrap();
        p.close(1).unwrap();
        let mut out = Vec::new();
        p.drain_available(&mut out);
        assert_eq!(p.mem_usage().entries, 0);
    }

    #[test]
    fn stats_track_progress() {
        let mut p = TwoLevelPipeline::new(1, PipelineConfig::default());
        for i in 0..10u64 {
            p.push(0, t(0, i, i + 1)).unwrap();
        }
        p.close(0).unwrap();
        let out = run_to_completion(&mut p);
        let s = p.stats();
        assert_eq!(out.len(), 10);
        assert_eq!(s.dispatched, 10);
        assert_eq!(s.fetched, 10);
        assert!(s.max_total_buffered >= 10);
        assert!(s.rounds >= 1);
    }
}

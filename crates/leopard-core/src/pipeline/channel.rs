//! Multi-threaded front end for the two-level pipeline.
//!
//! Worker threads hold a [`ClientHandle`] each and record traces without
//! any cross-thread coordination beyond their own hand-off buffer (the
//! paper's "local buffers asynchronously buffer traces from each
//! client"). The collector side takes each buffer *whole*, once per
//! poll, feeds the deterministic
//! [`TwoLevelPipeline`](super::TwoLevelPipeline) and dispatches.
//!
//! A hand-off buffer is a mutex-guarded `Vec<Trace>` and one condvar.
//! `record` appends under the lock and never holds a trace back on the
//! client side, so the hand-off adds no latency; `poll` swaps the filled
//! vector for its own emptied one (capacity circulates instead of being
//! reallocated), so a trace costs an uncontended lock and a push on the
//! way in and a share of one exchange on the way out — no system call
//! unless the two sides actually contend or a sender has to wait.
//!
//! Buffers are governed by a [`Backpressure`] policy. The historical
//! default is unbounded buffering, which lets ingest outrun verification
//! until the process OOMs; the bounded policy couples the two rates
//! instead: `Blocking` stalls the recording client when the collector
//! lags.

use super::{PipelineConfig, PipelineError, PipelineStats, TwoLevelPipeline, TRACE_APPROX_BYTES};
use crate::budget::MemUsage;
use crate::obs;
use crate::trace::Trace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How a [`ClientHandle`] behaves when the collector lags behind ingest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Backpressure {
    /// Unbounded buffers: `record` never blocks and never sheds, memory
    /// grows with the collector's lag. The historical default.
    #[default]
    Unbounded,
    /// Bounded buffers of the given per-client capacity: `record`
    /// blocks until the collector catches up, coupling ingest rate to
    /// verification rate.
    Blocking(usize),
}

impl Backpressure {
    /// Traces a client's buffer may hold before `record` waits.
    fn capacity(self) -> usize {
        match self {
            Backpressure::Unbounded => usize::MAX,
            Backpressure::Blocking(cap) => cap.max(1),
        }
    }
}

/// Capacity (in traces) the collector's exchange vector keeps between
/// polls; what an `Unbounded` burst grew beyond it is given back.
const EXCHANGE_KEEP: usize = 4096;

/// One client's hand-off buffer.
#[derive(Debug, Default)]
struct Handoff {
    // A std mutex, not a `TrackedMutex`: a condvar wait takes the guard
    // by value, which the witness's guard (a wrapper over parking_lot's,
    // whose offline stand-in has no `wait`) cannot give. There is no order
    // to witness either: the lock is a leaf — neither side acquires
    // anything while holding it.
    state: Mutex<HandoffState>,
    /// Where a `Blocking` sender waits for room: signalled by the
    /// exchange that empties a full buffer, and by `close`.
    room: Condvar,
}

#[derive(Debug, Default)]
struct HandoffState {
    traces: Vec<Trace>,
    /// The client dropped its handle: `traces` ends its stream.
    finished: bool,
    /// The collector takes no more (eviction, stream error, tracer
    /// dropped): records are refused.
    closed: bool,
}

impl Handoff {
    fn lock(&self) -> MutexGuard<'_, HandoffState> {
        // Every critical section is a push, a swap or a flag: the state
        // is valid at each step, so a poisoned lock is still good.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Refuses further records and wakes a blocked sender. Returns how
    /// many undelivered traces were dropped with the buffer.
    fn close(&self) -> usize {
        let dropped = {
            let mut state = self.lock();
            state.closed = true;
            std::mem::take(&mut state.traces).len()
        };
        self.room.notify_all();
        dropped
    }
}

/// The client-thread side: a cheap trace sink, one per client.
#[derive(Debug)]
pub struct ClientHandle {
    handoff: Arc<Handoff>,
    shed: Arc<AtomicU64>,
    backpressure: Backpressure,
}

impl ClientHandle {
    /// Records one trace. Returns `true` if it was delivered to the
    /// client's hand-off buffer, `false` if it was shed because the
    /// collector has shut down or closed this client's stream (eviction,
    /// a per-client clock regression). Every shed trace is counted in the
    /// tracer's shared [`PipelineStats::shed_traces`] counter, so even
    /// callers that ignore the return value never lose traces silently.
    ///
    /// Under [`Backpressure::Blocking`] this blocks while the buffer is
    /// full. Dropping the handle closes the client's stream.
    pub fn record(&self, trace: Trace) -> bool {
        let cap = self.backpressure.capacity();
        let mut state = self.handoff.lock();
        while !state.closed && state.traces.len() >= cap {
            state = self
                .handoff
                .room
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if state.closed {
            drop(state);
            obs::ctr_always(obs::Counter::PostShutdownDrops, 1);
            // relaxed: a monotonically increasing tally read only for
            // reporting; no other memory depends on its ordering.
            self.shed.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        state.traces.push(trace);
        true
    }

    /// Traces shed so far across *all* handles of this tracer (the
    /// counter is shared): records refused by a closed stream or after
    /// collector shutdown, and what an evicted client's buffer still held.
    #[must_use]
    pub fn shed_count(&self) -> u64 {
        // relaxed: monotone counter, an in-flight increment may be missed
        // by one read and picked up by the next; exactness is only needed
        // after the streams close, which synchronizes via the buffer lock.
        self.shed.load(Ordering::Relaxed)
    }
}

impl Drop for ClientHandle {
    fn drop(&mut self) {
        self.handoff.lock().finished = true;
    }
}

/// The collector side: owns the per-client hand-off buffers and the
/// pipeline.
#[derive(Debug)]
pub struct ChannelTracer {
    handoffs: Vec<Arc<Handoff>>,
    disconnected: Vec<bool>,
    /// Under `Blocking`, the buffer length at which a sender waits, so
    /// that taking that many must wake it; `usize::MAX` otherwise.
    wake_at: usize,
    /// The emptied vector the next exchange hands to a client.
    exchange: Vec<Trace>,
    pipeline: TwoLevelPipeline,
    errors: Vec<PipelineError>,
    shed: Arc<AtomicU64>,
    /// How long [`ChannelTracer::idle_wait`] sleeps; zero after a poll
    /// that moved a trace.
    idle: Duration,
}

impl ChannelTracer {
    /// Creates a tracer for `n_clients` worker threads with unbounded
    /// buffers, returning the handles to distribute to them.
    #[must_use]
    pub fn new(n_clients: usize, cfg: PipelineConfig) -> (ChannelTracer, Vec<ClientHandle>) {
        ChannelTracer::with_backpressure(n_clients, cfg, Backpressure::Unbounded)
    }

    /// Creates a tracer whose per-client buffers follow the given
    /// [`Backpressure`] policy.
    #[must_use]
    pub fn with_backpressure(
        n_clients: usize,
        cfg: PipelineConfig,
        backpressure: Backpressure,
    ) -> (ChannelTracer, Vec<ClientHandle>) {
        let shed = Arc::new(AtomicU64::new(0));
        let handoffs: Vec<Arc<Handoff>> = (0..n_clients).map(|_| Arc::default()).collect();
        let handles = handoffs
            .iter()
            .map(|handoff| ClientHandle {
                handoff: Arc::clone(handoff),
                shed: Arc::clone(&shed),
                backpressure,
            })
            .collect();
        let tracer = ChannelTracer {
            handoffs,
            disconnected: vec![false; n_clients],
            wake_at: backpressure.capacity(),
            exchange: Vec::new(),
            pipeline: TwoLevelPipeline::new(n_clients, cfg),
            errors: Vec::new(),
            shed,
            idle: Duration::ZERO,
        };
        (tracer, handles)
    }

    /// Takes every client's buffer — one exchange each — into the local
    /// buffers, then dispatches every provable trace into `out`. Returns
    /// `true` while more traces may still arrive (some client handle is
    /// still alive or undrained).
    pub fn poll(&mut self, out: &mut Vec<Trace>) -> bool {
        let before = out.len();
        let mut taken = 0;
        for i in 0..self.handoffs.len() {
            if self.disconnected[i] {
                continue;
            }
            let finished = {
                let mut state = self.handoffs[i].lock();
                if !state.traces.is_empty() {
                    std::mem::swap(&mut state.traces, &mut self.exchange);
                }
                state.finished
            };
            if self.exchange.len() >= self.wake_at {
                self.handoffs[i].room.notify_all();
            }
            taken += self.exchange.len();
            let mut batch = self.exchange.drain(..);
            let error = batch.find_map(|trace| self.pipeline.push(i, trace).err());
            let discarded = batch.len();
            drop(batch);
            if self.exchange.capacity() > EXCHANGE_KEEP {
                self.exchange.shrink_to(EXCHANGE_KEEP);
            }
            if let Some(e) = error {
                // Client threads time operations with a monotonic clock,
                // so per-client order normally holds; a stepping clock
                // breaks it. Close the broken stream at the offending
                // trace — it and everything behind it are shed, counted —
                // instead of taking the verification thread down.
                self.errors.push(e);
                self.note_shed(1 + discarded);
                self.shut(i);
            } else if finished {
                self.disconnect(i);
            }
        }
        self.pipeline.drain_available(out);
        self.idle = if taken > 0 || out.len() > before {
            Duration::ZERO
        } else {
            (self.idle * 2).clamp(Duration::from_micros(50), Duration::from_millis(1))
        };
        !self.pipeline.is_exhausted() || self.open_count() > 0
    }

    /// What a polling loop does between polls: yields after a poll that
    /// moved a trace, and sleeps — 50 µs doubling to 1 ms — while polls
    /// move nothing, so a chain that is keeping up does not take a core
    /// from the DBMS beside it.
    pub(crate) fn idle_wait(&self) {
        if self.idle.is_zero() {
            std::thread::yield_now();
        } else {
            std::thread::sleep(self.idle);
        }
    }

    /// Runs `poll` until every client has disconnected and every buffered
    /// trace has been dispatched, yielding them to `sink` in order.
    pub fn run_to_completion(mut self, mut sink: impl FnMut(Trace)) -> PipelineStats {
        let mut batch = Vec::new();
        loop {
            let live = self.poll(&mut batch);
            for t in batch.drain(..) {
                sink(t);
            }
            if !live {
                // `poll` only reports dead once every client disconnected
                // and the pipeline drained.
                debug_assert!(self.pipeline.is_exhausted());
                return self.stats();
            }
            self.idle_wait();
        }
    }

    /// Force-closes a dead or stalled client: its hand-off buffer is
    /// closed and its local buffer closed via
    /// [`TwoLevelPipeline::evict`], so it stops pinning the watermark.
    /// Traces it already delivered still dispatch; what its buffer still
    /// holds is dropped and every later `record` refused, both counted in
    /// [`PipelineStats::shed_traces`]; a sender blocked on the buffer is
    /// woken. Safe to call for an already-disconnected client.
    pub fn evict(&mut self, client: usize) -> Result<(), PipelineError> {
        if client >= self.handoffs.len() {
            return Err(PipelineError::UnknownClient(client));
        }
        self.shut(client);
        Ok(())
    }

    /// Closes `client`'s stream from the collector's side: an eviction.
    fn shut(&mut self, client: usize) {
        let dropped = self.handoffs[client].close();
        self.note_shed(dropped);
        // Cannot fail: `client` indexes `handoffs`, which the pipeline
        // was sized by.
        let _ = self.pipeline.evict(client);
        self.disconnect(client);
    }

    /// Marks the end of `client`'s stream, however it ended.
    fn disconnect(&mut self, client: usize) {
        self.disconnected[client] = true;
        // Cannot fail, as above.
        let _ = self.pipeline.close(client);
    }

    fn note_shed(&self, n: usize) {
        // relaxed: same monotone-tally argument as `shed_count`.
        self.shed.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Rung 2 of the overload ladder: take the hand-off buffers one last
    /// time, then flush every buffered trace into `out` in global order
    /// via [`TwoLevelPipeline::force_dispatch`]. Stragglers that later
    /// arrive below the forced floor are shed (counted).
    pub fn force_dispatch(&mut self, out: &mut Vec<Trace>) -> usize {
        let before = out.len();
        self.poll(out);
        self.pipeline.force_dispatch(out);
        out.len() - before
    }

    /// The client currently pinning the watermark (blocking every
    /// dispatch by its silence), if any. See
    /// [`TwoLevelPipeline::pinning_client`].
    #[must_use]
    pub fn pinning_client(&self) -> Option<usize> {
        self.pipeline.pinning_client()
    }

    /// The open client with the smallest watermark bound, buffered or
    /// not. See [`TwoLevelPipeline::laggard_client`].
    #[must_use]
    pub fn laggard_client(&self) -> Option<usize> {
        self.pipeline.laggard_client()
    }

    /// Indices of clients whose streams are still open (not yet
    /// disconnected, errored or evicted).
    #[must_use]
    pub fn open_clients(&self) -> Vec<usize> {
        self.disconnected
            .iter()
            .enumerate()
            .filter_map(|(i, d)| (!d).then_some(i))
            .collect()
    }

    /// How many clients [`ChannelTracer::open_clients`] would name.
    pub(crate) fn open_count(&self) -> usize {
        self.disconnected.iter().filter(|&&d| !d).count()
    }

    /// Stream errors encountered so far (a client whose timestamps went
    /// backwards; its stream was closed at the offending trace).
    #[must_use]
    pub fn errors(&self) -> &[PipelineError] {
        &self.errors
    }

    /// Occupancy/progress counters of the underlying pipeline, with the
    /// hand-off layer's shed counter folded in.
    #[must_use]
    pub fn stats(&self) -> PipelineStats {
        let mut stats = self.pipeline.stats();
        // relaxed: same monotone-tally argument as `shed_count`.
        stats.shed_traces = self.shed.load(Ordering::Relaxed);
        stats
    }

    /// Cheap estimate of everything buffered on the collector side:
    /// the hand-off buffers' backlog plus the pipeline's local buffers
    /// and global heap.
    #[must_use]
    pub fn mem_usage(&self) -> MemUsage {
        let backlog: usize = self.handoffs.iter().map(|h| h.lock().traces.len()).sum();
        self.pipeline.mem_usage() + MemUsage::per_entry(backlog, TRACE_APPROX_BYTES)
    }
}

impl Drop for ChannelTracer {
    /// Collector gone: blocked senders wake and every later `record` is
    /// refused (and counted by the handle that made it).
    fn drop(&mut self) {
        for handoff in &self.handoffs {
            handoff.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::OpKind;
    use crate::types::{ClientId, Timestamp, TxnId};
    use crate::Interval;
    use std::thread;

    fn t(client: u32, lo: u64) -> Trace {
        Trace::new(
            Interval::new(Timestamp(lo), Timestamp(lo + 1)),
            ClientId(client),
            TxnId(lo),
            OpKind::Commit,
        )
    }

    #[test]
    fn threads_stream_in_sorted_out() {
        let (tracer, handles) = ChannelTracer::new(4, PipelineConfig::default());
        let mut joins = Vec::new();
        for (c, handle) in handles.into_iter().enumerate() {
            joins.push(thread::spawn(move || {
                for i in 0..250u64 {
                    // Distinct ts per client: ts = i * 4 + client.
                    handle.record(t(c as u32, i * 4 + c as u64));
                }
                // handle dropped here -> stream closed
            }));
        }
        let mut out = Vec::new();
        let stats = tracer.run_to_completion(|trace| out.push(trace));
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(out.len(), 1000);
        assert_eq!(stats.dispatched, 1000);
        assert_eq!(stats.shed_traces, 0);
        assert!(out.windows(2).all(|w| w[0].ts_bef() <= w[1].ts_bef()));
    }

    #[test]
    fn non_monotonic_client_stream_is_closed_not_fatal() {
        let (mut tracer, handles) = ChannelTracer::new(2, PipelineConfig::default());
        handles[0].record(t(0, 100));
        handles[0].record(t(0, 50)); // clock stepped backwards
        handles[0].record(t(0, 200)); // discarded: stream already closed
        handles[1].record(t(1, 10));
        drop(handles);
        let mut out = Vec::new();
        while tracer.poll(&mut out) {}
        assert_eq!(tracer.errors().len(), 1);
        assert!(matches!(
            tracer.errors()[0],
            crate::pipeline::PipelineError::NonMonotonicClient { client: 0, .. }
        ));
        // The healthy client's trace and the pre-error trace still flow.
        let ts: Vec<u64> = out.iter().map(|t| t.ts_bef().0).collect();
        assert_eq!(ts, vec![10, 100]);
    }

    #[test]
    fn poll_reports_liveness() {
        let (mut tracer, handles) = ChannelTracer::new(1, PipelineConfig::default());
        let mut out = Vec::new();
        assert!(tracer.poll(&mut out), "client still connected");
        handles[0].record(t(0, 1));
        drop(handles);
        // Poll until fully drained.
        while tracer.poll(&mut out) {}
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn record_after_collector_shutdown_is_counted_not_silent() {
        let (tracer, handles) = ChannelTracer::new(2, PipelineConfig::default());
        assert!(handles[0].record(t(0, 1)));
        drop(tracer); // collector gone: channels disconnect
        assert!(!handles[0].record(t(0, 2)));
        assert!(!handles[1].record(t(1, 3)));
        // The shared counter saw both drops, from either handle's view.
        assert_eq!(handles[0].shed_count(), 2);
        assert_eq!(handles[1].shed_count(), 2);
    }

    #[test]
    fn blocking_backpressure_couples_ingest_to_drain_rate() {
        let (mut tracer, mut handles) = ChannelTracer::with_backpressure(
            1,
            PipelineConfig::default(),
            Backpressure::Blocking(2),
        );
        let handle = handles.remove(0);
        let producer = thread::spawn(move || {
            for i in 0..100u64 {
                // Blocks whenever the collector is 2 traces behind.
                assert!(handle.record(t(0, i)));
            }
        });
        let mut out = Vec::new();
        while tracer.poll(&mut out) {
            assert!(
                tracer.mem_usage().entries <= 3,
                "bounded channel must cap collector-side backlog"
            );
            thread::yield_now();
        }
        producer.join().unwrap();
        assert_eq!(out.len(), 100);
        assert_eq!(tracer.stats().shed_traces, 0);
    }

    #[test]
    fn client_dropping_handle_mid_drain_closes_cleanly() {
        let (mut tracer, mut handles) = ChannelTracer::new(2, PipelineConfig::default());
        let h0 = handles.remove(0);
        let h1 = handles.remove(0);
        h0.record(t(0, 1));
        h0.record(t(0, 5));
        h1.record(t(1, 2));
        let mut out = Vec::new();
        assert!(tracer.poll(&mut out));
        // Client 0 dies between polls with one more trace in flight.
        h0.record(t(0, 9));
        drop(h0);
        assert!(tracer.poll(&mut out));
        // Its buffered traces must all still dispatch once client 1 ends.
        drop(h1);
        while tracer.poll(&mut out) {}
        let ts: Vec<u64> = out.iter().map(|t| t.ts_bef().0).collect();
        assert_eq!(ts, vec![1, 2, 5, 9]);
        assert!(tracer.errors().is_empty());
    }

    #[test]
    fn evicting_already_disconnected_client_is_a_noop() {
        let (mut tracer, mut handles) = ChannelTracer::new(2, PipelineConfig::default());
        let h0 = handles.remove(0);
        h0.record(t(0, 3));
        drop(h0); // client 0 disconnects on its own
        let mut out = Vec::new();
        tracer.poll(&mut out);
        assert_eq!(tracer.open_clients(), vec![1]);
        // Evicting it afterwards must not error or double-count.
        tracer.evict(0).unwrap();
        tracer.evict(0).unwrap();
        assert_eq!(tracer.stats().evicted_clients, 0, "close beat the evict");
        drop(handles);
        while tracer.poll(&mut out) {}
        assert_eq!(out.len(), 1);
        assert!(tracer.evict(7).is_err(), "unknown client index");
    }

    #[test]
    fn drain_after_all_channels_closed_flushes_everything() {
        let (mut tracer, handles) = ChannelTracer::new(3, PipelineConfig::default());
        handles[0].record(t(0, 10));
        handles[1].record(t(1, 20));
        handles[2].record(t(2, 15));
        drop(handles); // all channels close before the first poll
        let mut out = Vec::new();
        let mut polls = 0;
        while tracer.poll(&mut out) {
            polls += 1;
            assert!(polls < 100, "tracer failed to report exhaustion");
        }
        let ts: Vec<u64> = out.iter().map(|t| t.ts_bef().0).collect();
        assert_eq!(ts, vec![10, 15, 20]);
        assert!(tracer.open_clients().is_empty());
        // A further poll after exhaustion stays dead and yields nothing.
        assert!(!tracer.poll(&mut out));
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn force_dispatch_drains_channels_and_heap() {
        let (mut tracer, handles) = ChannelTracer::new(2, PipelineConfig::default());
        handles[0].record(t(0, 10));
        handles[0].record(t(0, 30));
        // Client 1 silent: nothing provable.
        let mut out = Vec::new();
        assert!(tracer.poll(&mut out));
        assert!(out.is_empty());
        let n = tracer.force_dispatch(&mut out);
        assert_eq!(n, 2);
        let ts: Vec<u64> = out.iter().map(|t| t.ts_bef().0).collect();
        assert_eq!(ts, vec![10, 30]);
        assert_eq!(tracer.stats().forced_dispatches, 1);
        drop(handles);
    }

    /// How long a test waits for a thread that must not hang.
    const RELEASED_WITHIN: Duration = Duration::from_secs(20);

    /// Spins until the hand-off buffers hold `n` traces.
    fn await_backlog(tracer: &ChannelTracer, n: u64) {
        while tracer.mem_usage().entries < n {
            thread::yield_now();
        }
    }

    #[test]
    fn evicted_live_client_under_blocking_is_woken_and_refused() {
        // Rung 3's usual target is slow, not dead: its handle lives on.
        let (mut tracer, mut handles) = ChannelTracer::with_backpressure(
            2,
            PipelineConfig::default(),
            Backpressure::Blocking(4),
        );
        let laggard = handles.remove(1);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let producer = thread::spawn(move || {
            let delivered = (0..10u64).filter(|&i| laggard.record(t(1, i))).count();
            let _ = done_tx.send(delivered);
        });
        // Four fit; the fifth waits for room that only a poll would make.
        await_backlog(&tracer, 4);
        tracer.evict(1).unwrap();
        let delivered = done_rx
            .recv_timeout(RELEASED_WITHIN)
            .expect("a sender blocked on an evicted client's buffer must be woken");
        producer.join().unwrap();
        assert_eq!(delivered, 4);
        // The four it held were dropped, the six after them refused.
        assert_eq!(tracer.stats().shed_traces, 10);
        assert_eq!(tracer.mem_usage().entries, 0);
        let mut out = Vec::new();
        drop(handles);
        while tracer.poll(&mut out) {}
        assert!(
            out.is_empty(),
            "nothing of an evicted backlog is dispatched"
        );
        assert_eq!(tracer.stats().evicted_clients, 1);
    }

    #[test]
    fn evicted_live_client_under_unbounded_is_shed_counted_and_holds_no_memory() {
        let (mut tracer, handles) = ChannelTracer::new(2, PipelineConfig::default());
        assert!(handles[1].record(t(1, 0)));
        tracer.evict(1).unwrap();
        let refused = (1..=1000u64)
            .filter(|&i| !handles[1].record(t(1, i)))
            .count();
        assert_eq!(refused, 1000, "an evicted client's records are refused");
        assert_eq!(
            handles[1].shed_count(),
            1001,
            "and counted, with its backlog"
        );
        // What the ladder compares: the abandoned backlog must not count
        // against the budget, or evicting a live laggard frees nothing.
        assert_eq!(tracer.mem_usage().entries, 0);
        assert_eq!(tracer.open_clients(), vec![0]);
    }

    #[test]
    fn handoff_blocked_sender_is_released_by_exchange_evict_and_drop() {
        for release in ["exchange", "evict", "drop"] {
            let (mut tracer, mut handles) = ChannelTracer::with_backpressure(
                1,
                PipelineConfig::default(),
                Backpressure::Blocking(2),
            );
            let handle = handles.remove(0);
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let producer = thread::spawn(move || {
                let delivered: Vec<bool> = (0..3u64).map(|i| handle.record(t(0, i))).collect();
                let _ = done_tx.send(delivered);
            });
            await_backlog(&tracer, 2);
            assert!(
                done_rx.try_recv().is_err(),
                "the third record cannot return while the buffer is full"
            );
            let third = match release {
                "exchange" => {
                    tracer.poll(&mut Vec::new());
                    true
                }
                "evict" => {
                    tracer.evict(0).unwrap();
                    false
                }
                _ => {
                    drop(tracer);
                    false
                }
            };
            let delivered = done_rx
                .recv_timeout(RELEASED_WITHIN)
                .unwrap_or_else(|_| panic!("sender still blocked after {release}"));
            producer.join().unwrap();
            assert_eq!(delivered, vec![true, true, third], "released by {release}");
        }
    }

    #[test]
    fn handoff_loses_nothing_duplicates_nothing_and_keeps_client_order() {
        const CLIENTS: u64 = 4;
        const PER_CLIENT: u64 = 3000;
        let modes = [
            Backpressure::Unbounded,
            Backpressure::Blocking(1),
            Backpressure::Blocking(64),
        ];
        for (seed, backpressure) in modes.into_iter().enumerate() {
            let (mut tracer, handles) = ChannelTracer::with_backpressure(
                CLIENTS as usize,
                PipelineConfig::default(),
                backpressure,
            );
            let producers: Vec<_> = handles
                .into_iter()
                .zip(0..CLIENTS)
                .map(|(handle, c)| {
                    thread::spawn(move || {
                        // Distinct, per-client increasing timestamps.
                        (0..PER_CLIENT)
                            .map(|i| i * CLIENTS + c)
                            .filter(|&ts| handle.record(t(c as u32, ts)))
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            // Polls at random distances, so exchanges land anywhere in a
            // producer's stream: on an empty, a part-filled, a full buffer.
            let mut rng = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(seed as u64 + 1);
            let mut out = Vec::new();
            while tracer.poll(&mut out) {
                // xorshift64
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                for _ in 0..rng % 4 {
                    thread::yield_now();
                }
            }
            let stats = tracer.stats();
            let mut delivered_total = 0;
            for (producer, c) in producers.into_iter().zip(0..CLIENTS) {
                let delivered = producer.join().unwrap();
                let dispatched: Vec<u64> = out
                    .iter()
                    .filter(|t| t.client.0 == c as u32)
                    .map(|t| t.ts_bef().0)
                    .collect();
                assert_eq!(
                    dispatched, delivered,
                    "{backpressure:?}: client {c} lost, duplicated or reordered a trace"
                );
                assert_eq!(delivered.len() as u64, PER_CLIENT, "{backpressure:?} sheds");
                delivered_total += delivered.len() as u64;
            }
            assert_eq!(stats.dispatched, delivered_total);
            assert_eq!(
                stats.shed_traces,
                CLIENTS * PER_CLIENT - delivered_total,
                "{backpressure:?}: every refused record is counted, and nothing else"
            );
            assert!(out.windows(2).all(|w| w[0].ts_bef() <= w[1].ts_bef()));
        }
    }
}

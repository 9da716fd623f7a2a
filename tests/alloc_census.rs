//! The allocation census of the collector thread, pinned so that it cannot
//! creep back: what the online chain does per trace — a push into the
//! two-level pipeline, a dispatch, `Verifier::process` — measured with a
//! counting global allocator. Its own test binary, because the allocator is
//! the process's; the counter is per thread, so the tests may run side by
//! side.

// A `GlobalAlloc` impl is unsafe by signature; nothing else here is.
#![allow(unsafe_code)]

use leopard_core::verify::{ReadMatch, VersionStore};
use leopard_core::{
    Interval, IsolationLevel, Key, PipelineConfig, Timestamp, TraceBuilder, TwoLevelPipeline,
    TxnId, Value, Verifier, VerifierConfig,
};
use leopard_oracle::{generate_clean_capture, CleanRunSpec, Schedule};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls made by this thread. `alloc_zeroed` and `realloc`
    /// are left at their defaults, which go through `alloc` once each.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: a thread frees its locals through the allocator too.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: both methods hand their arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. The counter is a const-initialised
// `Cell<u64>` thread-local: it has no destructor and touching it never
// allocates, so counting cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation calls this thread makes inside `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (CALLS.with(Cell::get) - before, out)
}

fn iv(lo: u64, hi: u64) -> Interval {
    Interval::new(Timestamp(lo), Timestamp(hi))
}

#[test]
fn check_read_on_a_resident_chain_allocates_nothing() {
    let mut store = VersionStore::default();
    store.preload(Key(1), Value(0));
    for (txn, value) in [(1, 5), (2, 5), (3, 7)] {
        let at = 10 * txn;
        store.install(
            Key(1),
            Value(value),
            TxnId(txn),
            iv(at, at + 1),
            iv(at, at + 1),
        );
        store.commit(TxnId(txn), &[Key(1)], iv(at + 2, at + 3));
    }
    // Snapshot astride txn 2's commit: the pivot (txn 1), an overlap.
    let (calls, matched) = allocations(|| {
        [
            store.check_read(Key(1), Value(5), &iv(21, 23), true),
            store.check_read(Key(1), Value(7), &iv(100, 101), true),
        ]
    });
    assert!(
        matches!(matched[0], ReadMatch::Ambiguous { matches: 2 }),
        "{matched:?}"
    );
    assert!(
        matches!(matched[1], ReadMatch::Unique { .. }),
        "{matched:?}"
    );
    assert_eq!(calls, 0, "a read that matches builds no vector");
}

#[test]
fn push_into_a_non_empty_buffer_allocates_nothing() {
    let mut traces = TraceBuilder::new();
    for i in 0..12u64 {
        traces.write(10 * i, 10 * i + 5, 0, i + 1, vec![(i, i)]);
    }
    let mut traces = traces.build().into_iter();
    let mut pipeline = TwoLevelPipeline::new(1, PipelineConfig::default());
    // Nine pushes leave the queue with room for sixteen.
    for trace in traces.by_ref().take(9) {
        pipeline.push(0, trace).expect("monotone");
    }
    let (calls, ()) = allocations(|| {
        for trace in traces {
            pipeline.push(0, trace).expect("monotone");
        }
    });
    assert_eq!(pipeline.local_len(), 12);
    assert_eq!(calls, 0, "the duplicate check compares, it does not copy");
}

/// Allocation calls per trace of the collector thread's work — push,
/// dispatch, `Verifier::process` — on this test's input, measured with
/// this file at the commit before the hand-off rebuild: 70 836 calls over
/// 17 406 traces. The rebuild left 17 255 (0.991 per trace).
const PARENT_CALLS_PER_TRACE: f64 = 4.07;

#[test]
fn the_collector_path_allocates_at_most_half_of_what_it_did() {
    // The benchmark's `online_tpcc` recipe, a thirtieth of its length.
    let spec = CleanRunSpec {
        workload: "tpcc".to_string(),
        rows: 0,
        clients: 4,
        txns_per_client: 300,
        level: IsolationLevel::Serializable,
        seed: 42,
        tick: 100,
        schedule: Schedule::Interleaved,
    };
    let capture = generate_clean_capture(&spec).expect("clean capture");
    let n = capture.traces.len();
    let mut cfg = VerifierConfig::for_level(IsolationLevel::Serializable);
    cfg.clock_skew_bound = 2_000;
    let mut verifier = Verifier::new(cfg);
    for &(key, value) in &capture.header.preload {
        verifier.preload(key, value);
    }
    let mut pipeline = TwoLevelPipeline::new(spec.clients, PipelineConfig::default());
    let mut batch = Vec::with_capacity(n);
    let (calls, ()) = allocations(|| {
        for (i, trace) in capture.traces.into_iter().enumerate() {
            let client = trace.client.0 as usize;
            pipeline.push(client, trace).expect("monotone");
            if i % 256 == 255 {
                pipeline.drain_available(&mut batch);
                batch.drain(..).for_each(|t| verifier.process(&t));
            }
        }
        for client in 0..spec.clients {
            pipeline.close(client).expect("a client");
        }
        pipeline.drain_available(&mut batch);
        batch.drain(..).for_each(|t| verifier.process(&t));
    });
    let outcome = verifier.finish();
    assert_eq!(outcome.counters.traces, n as u64);
    assert!(outcome.report.is_clean(), "{}", outcome.report);
    let per_trace = calls as f64 / n as f64;
    println!("{calls} allocation calls over {n} traces: {per_trace:.3} per trace");
    assert!(
        per_trace <= PARENT_CALLS_PER_TRACE / 2.0,
        "{per_trace:.3} allocation calls per trace, {PARENT_CALLS_PER_TRACE} before"
    );
}

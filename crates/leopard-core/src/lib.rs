//! # Leopard: black-box verification of database isolation levels
//!
//! A from-scratch Rust implementation of *Leopard: A Black-Box Approach for
//! Efficiently Verifying Various Isolation Levels* (ICDE 2023).
//!
//! Leopard verifies that a DBMS actually delivers the isolation level it
//! promises, using nothing but **interval-based traces** collected at the
//! clients: for every operation, the timestamps just before and just after
//! the call, plus the data it touched. No DBMS instrumentation, no
//! constraints on the workload.
//!
//! The crate has two halves, mirroring the paper's architecture (Fig. 2):
//!
//! * [`pipeline`] — the *Tracer*: a two-level pipeline (per-client local
//!   buffers + a watermarked global min-heap) that merges the per-client
//!   trace streams into one stream sorted by `ts_bef`, online and with
//!   bounded memory (§IV-C, Theorem 1 — enforced, not just stated: the
//!   [`budget`] module's [`MemBudget`] caps the chain, bounded
//!   backpressure channels couple ingest to verification rate
//!   ([`ChannelTracer::with_backpressure`]), and the online governor
//!   ([`online`]) drives watermark GC plus a graduated shedding ladder
//!   when the cap is hit).
//! * [`verify`] — the *Verifier*: mechanism-mirrored verification (§V).
//!   Instead of searching a giant dependency graph for cycles, it mirrors
//!   the four mechanisms every commercial DBMS assembles its isolation
//!   levels from — consistent read, mutual exclusion, first updater wins,
//!   and a serialization certifier — and checks each directly against the
//!   trace intervals.
//!
//! ## Quick start
//!
//! ```
//! use leopard_core::{
//!     IsolationLevel, Key, TraceBuilder, Value, Verifier, VerifierConfig,
//! };
//!
//! // Traces normally come from the pipeline; build a tiny history by hand.
//! let mut history = TraceBuilder::new();
//! history.write(10, 12, 0, 1, vec![(1, 42)]); // t1 writes key 1 := 42
//! history.commit(13, 15, 0, 1);
//! history.read(20, 22, 1, 2, vec![(1, 42)]); // t2 reads 42
//! history.commit(23, 25, 1, 2);
//!
//! let mut verifier = Verifier::new(VerifierConfig::for_level(IsolationLevel::Serializable));
//! verifier.preload(Key(1), Value(0));
//! for trace in history.build_sorted() {
//!     verifier.process(&trace);
//! }
//! let outcome = verifier.finish();
//! assert!(outcome.report.is_clean());
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod budget;
pub mod capture;
pub mod catalog;
pub mod checkpoint;
pub mod fxhash;
pub mod interval;
pub mod lockwitness;
pub mod obs;
pub mod online;
pub mod pipeline;
pub mod preflight;
pub mod report;
pub mod serve;
pub mod stats;
pub mod store;
pub mod trace;
pub mod types;
pub mod verify;
pub mod wire;

pub use budget::{BudgetCounters, MemBudget, MemUsage};
pub use capture::{CaptureError, CaptureHeader, CaptureReader, CaptureWriter, CAPTURE_VERSION};
pub use catalog::{
    catalog, CertifierRule, DbmsProfile, IsolationLevel, MechanismSet, SnapshotLevel,
};
pub use checkpoint::{
    Checkpoint, CheckpointError, LoadedImage, PendingReadSnap, CHECKPOINT_VERSION,
};
pub use interval::{Interval, PairOrder};
pub use lockwitness::{TrackedMutex, TrackedMutexGuard};
pub use obs::{ObsSnapshot, Registry};
pub use online::{FinishTimeout, OnlineLeopard, OnlineOptions};
pub use pipeline::{
    Backpressure, ChannelTracer, ClientHandle, PipelineConfig, PipelineStats, TwoLevelPipeline,
    TRACE_APPROX_BYTES,
};
pub use preflight::{
    DiagCode, Diagnostic, PreflightAnalyzer, PreflightConfig, PreflightReport, QuarantineGate,
    Severity,
};
pub use report::{BugReport, Mechanism, Violation};
pub use serve::{
    control_command, ingest_capture, Endpoint, IngestError, ServeOptions, Server, ServerHandle,
    StreamInfo, StreamState, StreamVerdict, WireConn,
};
pub use stats::{DeductionStats, DepCounts, DepKind};
pub use store::{
    FaultIo, FaultSpec, FsIo, RetryPolicy, SpillSettings, SpillStats, SpillTier, StoreError,
    StoreIo,
};
pub use trace::{OpKind, Trace, TraceBuilder};
pub use types::{ClientId, Key, Timestamp, TxnId, Value};
pub use verify::engine::{self, EngineOpts};
pub use verify::{
    Coverage, Footprint, Verifier, VerifierConfig, VerifyCounters, VerifyOutcome,
    MAX_COVERAGE_NOTES,
};
pub use wire::{Frame, FrameDecoder, Hello, RejectReason, TraceFrame, WireError, WIRE_VERSION};

//! Process-wide observability: one metrics registry, two exporters.
//!
//! Leopard's value is *efficient online* verification, which makes the
//! engine's own behavior part of the product: where a streaming run
//! spends time (dispatch, GC, spill), how far the dispatch watermark lags
//! the newest capture, and how often the overload ladder fires are all
//! questions a verdict alone cannot answer. This module is the single,
//! dependency-free answer:
//!
//! * a static [`Registry`] of atomic **counters**, **gauges** and
//!   fixed-bucket **histograms** covering every stage of the chain
//!   (ingest, dispatch, GC, budget ladder,
//!   sheds/evictions/quarantines);
//! * a gated **timer** ([`timer_start`] / [`timer_end`]) that feeds the
//!   histograms and reads no clock while recording is off;
//! * two **exporters**: Prometheus text exposition
//!   ([`Registry::render_prometheus`]) and a structured JSON snapshot
//!   ([`Registry::snapshot`], the `"obs"` block of `--json` output).
//!
//! Everything is a plain relaxed atomic: every metric is an independent
//! tally or sample, so there is no multi-word protocol to get wrong. The
//! global registry starts **disabled**; every gated entry point is a
//! single relaxed boolean load when off, so instrumented builds pay
//! nothing measurable until a caller opts in with [`set_enabled`].
//! Instrumentation is verdict-neutral by construction — nothing in this
//! module is read back by the verification state machines, and the `obs`
//! row of `tests/equivalence.rs` enforces byte-identical verdicts and
//! checkpoints with observability on and off.
//!
//! Two counters are deliberately *ungated* ([`ctr_always`]): post-shutdown
//! drops and wire decode errors are loss accounting and must never vanish
//! just because metrics exporting is off.
//!
//! The registry is process-global and cumulative. Benches and the CLI
//! call [`reset`] at the start of a measured cell; tests that inspect
//! values should use a private `Registry` instance instead of the
//! global one, which races against concurrently-running tests.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Upper bounds (µs) of the finite histogram buckets, shared by every
/// histogram in the registry. `+Inf` is implicit (the `_count` series).
pub const BUCKET_BOUNDS_US: [u64; 14] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000,
];

/// Monotonic counters tracked by the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Traces admitted into the verification engine.
    OpsIngested,
    /// Traces dispatched by the two-level pipeline in timestamp order.
    Dispatched,
    /// Trace records dropped because the collector had already shut down.
    PostShutdownDrops,
    /// Traces dropped below a forced-dispatch floor (arrived too late).
    LateDropped,
    /// Duplicate trace ids dropped by the pipeline.
    DuplicatesDropped,
    /// Garbage-collection passes (periodic cadence and forced).
    GcPasses,
    /// Mechanism-table entries reclaimed by garbage collection.
    GcReclaimedEntries,
    /// Budget ladder rung 1: GC passes forced outside the cadence.
    ForcedGcs,
    /// Budget ladder rung 2: pipeline buffers flushed above the watermark.
    ForcedDispatches,
    /// Budget ladder rung 3: clients evicted to shed retained state.
    BudgetEvictions,
    /// Clients evicted for stalling (eviction timeout), not for memory.
    StallEvictions,
    /// Traces quarantined by degraded-mode admission.
    QuarantinedTraces,
    /// Reads demoted to unverifiable in degraded mode.
    DemotedReads,
    /// Checkpoint images serialized to disk.
    CheckpointsWritten,
    /// Batches of wire frames appended (and synced) to a stream journal.
    JournalAppends,
    /// Bytes appended to stream journals.
    JournalBytes,
    /// Journal frames replayed through a verifier at stream recovery.
    JournalReplayedFrames,
    /// Wire frames decoded by the serve daemon (all streams).
    WireFrames,
    /// Wire payload bytes decoded by the serve daemon.
    WireBytes,
    /// Wire frames that failed to decode (truncated, corrupt, unknown).
    WireDecodeErrors,
    /// Streams admitted by the serve daemon (fresh and resumed).
    StreamsAccepted,
    /// Streams refused at the handshake (version, admission, draining).
    StreamsRejected,
    /// Streams quarantined mid-flight (malformed input or a panicking
    /// verifier), finished with a degraded verdict.
    StreamsQuarantined,
    /// Version-chain records spilled out to segment files.
    SpillRecordsOut,
    /// Spilled records faulted back into memory.
    SpillRecordsIn,
    /// Transient spill-I/O retries performed under the retry policy.
    SpillRetries,
    /// Spill writes abandoned to the in-memory fallback after retries.
    SpillFallbacks,
    /// Unrecoverable spill I/O or corruption errors (tier poisonings).
    SpillIoErrors,
    /// Reliefs (forced GC plus spill pass) that ended above the budget.
    BudgetFloorExceeded,
}

const COUNTER_COUNT: usize = 29;

impl Counter {
    /// Every counter, in registry (and exposition) order.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::OpsIngested,
        Counter::Dispatched,
        Counter::PostShutdownDrops,
        Counter::LateDropped,
        Counter::DuplicatesDropped,
        Counter::GcPasses,
        Counter::GcReclaimedEntries,
        Counter::ForcedGcs,
        Counter::ForcedDispatches,
        Counter::BudgetEvictions,
        Counter::StallEvictions,
        Counter::QuarantinedTraces,
        Counter::DemotedReads,
        Counter::CheckpointsWritten,
        Counter::JournalAppends,
        Counter::JournalBytes,
        Counter::JournalReplayedFrames,
        Counter::WireFrames,
        Counter::WireBytes,
        Counter::WireDecodeErrors,
        Counter::StreamsAccepted,
        Counter::StreamsRejected,
        Counter::StreamsQuarantined,
        Counter::SpillRecordsOut,
        Counter::SpillRecordsIn,
        Counter::SpillRetries,
        Counter::SpillFallbacks,
        Counter::SpillIoErrors,
        Counter::BudgetFloorExceeded,
    ];

    fn idx(self) -> usize {
        Counter::ALL
            .iter()
            .position(|&c| c == self)
            .expect("Counter::ALL covers every variant")
    }

    /// Prometheus metric name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::OpsIngested => "leopard_ops_ingested_total",
            Counter::Dispatched => "leopard_pipeline_dispatched_total",
            Counter::PostShutdownDrops => "leopard_pipeline_post_shutdown_drops_total",
            Counter::LateDropped => "leopard_pipeline_late_dropped_total",
            Counter::DuplicatesDropped => "leopard_pipeline_duplicates_dropped_total",
            Counter::GcPasses => "leopard_gc_passes_total",
            Counter::GcReclaimedEntries => "leopard_gc_reclaimed_entries_total",
            Counter::ForcedGcs => "leopard_forced_gcs_total",
            Counter::ForcedDispatches => "leopard_forced_dispatches_total",
            Counter::BudgetEvictions => "leopard_budget_evictions_total",
            Counter::StallEvictions => "leopard_stall_evictions_total",
            Counter::QuarantinedTraces => "leopard_quarantined_traces_total",
            Counter::DemotedReads => "leopard_demoted_reads_total",
            Counter::CheckpointsWritten => "leopard_checkpoints_written_total",
            Counter::JournalAppends => "leopard_journal_appends_total",
            Counter::JournalBytes => "leopard_journal_bytes_total",
            Counter::JournalReplayedFrames => "leopard_journal_replayed_frames_total",
            Counter::WireFrames => "leopard_wire_frames_total",
            Counter::WireBytes => "leopard_wire_bytes_total",
            Counter::WireDecodeErrors => "leopard_wire_decode_errors_total",
            Counter::StreamsAccepted => "leopard_serve_streams_accepted_total",
            Counter::StreamsRejected => "leopard_serve_streams_rejected_total",
            Counter::StreamsQuarantined => "leopard_serve_streams_quarantined_total",
            Counter::SpillRecordsOut => "leopard_spill_records_out_total",
            Counter::SpillRecordsIn => "leopard_spill_records_in_total",
            Counter::SpillRetries => "leopard_spill_retries_total",
            Counter::SpillFallbacks => "leopard_spill_fallbacks_total",
            Counter::SpillIoErrors => "leopard_spill_io_errors_total",
            Counter::BudgetFloorExceeded => "leopard_budget_floor_exceeded_total",
        }
    }

    /// One-line help string for the exposition.
    #[must_use]
    pub fn help(self) -> &'static str {
        match self {
            Counter::OpsIngested => "Traces admitted into the verification engine.",
            Counter::Dispatched => {
                "Traces dispatched by the two-level pipeline in timestamp order."
            }
            Counter::PostShutdownDrops => {
                "Trace records dropped because the collector had already shut down."
            }
            Counter::LateDropped => "Traces dropped below a forced-dispatch floor.",
            Counter::DuplicatesDropped => "Duplicate trace ids dropped by the pipeline.",
            Counter::GcPasses => "Garbage-collection passes (periodic and forced).",
            Counter::GcReclaimedEntries => "Mechanism-table entries reclaimed by GC.",
            Counter::ForcedGcs => "Budget ladder rung 1: GC passes forced outside the cadence.",
            Counter::ForcedDispatches => "Budget ladder rung 2: forced pipeline flushes.",
            Counter::BudgetEvictions => "Budget ladder rung 3: clients evicted for memory.",
            Counter::StallEvictions => "Clients evicted for stalling (eviction timeout).",
            Counter::QuarantinedTraces => "Traces quarantined by degraded-mode admission.",
            Counter::DemotedReads => "Reads demoted to unverifiable in degraded mode.",
            Counter::CheckpointsWritten => "Checkpoint images serialized to disk.",
            Counter::JournalAppends => "Frame batches appended and synced to stream journals.",
            Counter::JournalBytes => "Bytes appended to stream journals.",
            Counter::JournalReplayedFrames => {
                "Journal frames replayed through a verifier at stream recovery."
            }
            Counter::WireFrames => "Wire frames decoded by the serve daemon.",
            Counter::WireBytes => "Wire payload bytes decoded by the serve daemon.",
            Counter::WireDecodeErrors => {
                "Wire frames that failed to decode (truncated, corrupt, unknown)."
            }
            Counter::StreamsAccepted => "Streams admitted by the serve daemon.",
            Counter::StreamsRejected => "Streams refused at the handshake.",
            Counter::StreamsQuarantined => {
                "Streams quarantined into a degraded verdict mid-flight."
            }
            Counter::SpillRecordsOut => "Version-chain records spilled to segment files.",
            Counter::SpillRecordsIn => "Spilled records faulted back into memory.",
            Counter::SpillRetries => "Transient spill-I/O retries under the retry policy.",
            Counter::SpillFallbacks => {
                "Spill writes abandoned to the in-memory fallback after retries."
            }
            Counter::SpillIoErrors => "Unrecoverable spill I/O or corruption errors.",
            Counter::BudgetFloorExceeded => {
                "Forced GC plus spill pass that still ended above the memory budget."
            }
        }
    }
}

/// Point-in-time gauges tracked by the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Newest buffered capture timestamp minus the dispatch watermark.
    WatermarkLag,
    /// Current estimated bytes retained by the verification chain.
    MemBytes,
    /// High-water mark of estimated retained bytes.
    PeakMemBytes,
    /// High-water mark of retained entries.
    PeakMemEntries,
    /// Bytes held in spill segment files on disk.
    SpillBytes,
    /// Bytes appended to spill segments per byte of record spilled, in
    /// thousandths.
    SpillWriteAmp,
    /// Share of the spill bytes on disk that is records not yet faulted
    /// back in, in thousandths.
    SpillLiveRatio,
}

const GAUGE_COUNT: usize = 7;

impl Gauge {
    /// Every gauge, in registry (and exposition) order.
    pub const ALL: [Gauge; GAUGE_COUNT] = [
        Gauge::WatermarkLag,
        Gauge::MemBytes,
        Gauge::PeakMemBytes,
        Gauge::PeakMemEntries,
        Gauge::SpillBytes,
        Gauge::SpillWriteAmp,
        Gauge::SpillLiveRatio,
    ];

    fn idx(self) -> usize {
        Gauge::ALL
            .iter()
            .position(|&g| g == self)
            .expect("Gauge::ALL covers every variant")
    }

    /// Prometheus metric name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Gauge::WatermarkLag => "leopard_watermark_lag",
            Gauge::MemBytes => "leopard_mem_bytes",
            Gauge::PeakMemBytes => "leopard_peak_mem_bytes",
            Gauge::PeakMemEntries => "leopard_peak_mem_entries",
            Gauge::SpillBytes => "leopard_spill_bytes",
            Gauge::SpillWriteAmp => "leopard_spill_write_amp",
            Gauge::SpillLiveRatio => "leopard_spill_live_ratio",
        }
    }

    /// One-line help string for the exposition.
    #[must_use]
    pub fn help(self) -> &'static str {
        match self {
            Gauge::WatermarkLag => {
                "Newest buffered capture timestamp minus the dispatch watermark."
            }
            Gauge::MemBytes => "Current estimated bytes retained by the verification chain.",
            Gauge::PeakMemBytes => "High-water mark of estimated retained bytes.",
            Gauge::PeakMemEntries => "High-water mark of retained entries.",
            Gauge::SpillBytes => "Bytes held in spill segment files on disk.",
            Gauge::SpillWriteAmp => {
                "Bytes appended to spill segments per byte of record spilled, in thousandths."
            }
            Gauge::SpillLiveRatio => {
                "Live record bytes per byte of spill segment on disk, in thousandths."
            }
        }
    }
}

/// Fixed-bucket microsecond histograms tracked by the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistId {
    /// Wall time of one pipeline drain call that dispatched traces.
    DispatchLatencyUs,
    /// Wall time of one garbage-collection pass.
    GcPauseUs,
    /// Wall time of one spill pass (records written out under pressure).
    SpillPassUs,
}

const HIST_COUNT: usize = 3;

impl HistId {
    /// Every histogram, in registry (and exposition) order.
    pub const ALL: [HistId; HIST_COUNT] = [
        HistId::DispatchLatencyUs,
        HistId::GcPauseUs,
        HistId::SpillPassUs,
    ];

    fn idx(self) -> usize {
        HistId::ALL
            .iter()
            .position(|&h| h == self)
            .expect("HistId::ALL covers every variant")
    }

    /// Prometheus metric name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HistId::DispatchLatencyUs => "leopard_dispatch_latency_us",
            HistId::GcPauseUs => "leopard_gc_pause_us",
            HistId::SpillPassUs => "leopard_spill_pass_us",
        }
    }

    /// One-line help string for the exposition.
    #[must_use]
    pub fn help(self) -> &'static str {
        match self {
            HistId::DispatchLatencyUs => "Wall time of one dispatching pipeline drain call (us).",
            HistId::GcPauseUs => "Wall time of one garbage-collection pass (us).",
            HistId::SpillPassUs => "Wall time of one spill pass (us).",
        }
    }
}

/// One fixed-bucket microsecond histogram: per-bucket tallies plus sum
/// and count, all relaxed atomics.
struct Hist {
    buckets: [AtomicU64; BUCKET_BOUNDS_US.len()],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Hist {
    const fn new() -> Hist {
        Hist {
            buckets: [const { AtomicU64::new(0) }; BUCKET_BOUNDS_US.len()],
            sum_us: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn observe(&self, us: u64) {
        for (i, &bound) in BUCKET_BOUNDS_US.iter().enumerate() {
            if us <= bound {
                self.buckets[i].fetch_add(1, Ordering::Relaxed); // relaxed: independent tally, read only by exporters
                break;
            }
        }
        self.sum_us.fetch_add(us, Ordering::Relaxed); // relaxed: independent tally, read only by exporters
        self.count.fetch_add(1, Ordering::Relaxed); // relaxed: independent tally, read only by exporters
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed); // relaxed: reset between bench cells; no readers race a reset
        }
        self.sum_us.store(0, Ordering::Relaxed); // relaxed: reset between bench cells; no readers race a reset
        self.count.store(0, Ordering::Relaxed); // relaxed: reset between bench cells; no readers race a reset
    }
}

/// The observability registry: every counter, gauge and histogram, as
/// relaxed atomics.
///
/// A process-global instance backs the module-level free functions
/// ([`ctr`], [`hist`], …); tests construct private instances so
/// assertions don't race concurrently-running suites.
pub struct Registry {
    enabled: AtomicBool,
    counters: [AtomicU64; COUNTER_COUNT],
    gauges: [AtomicU64; GAUGE_COUNT],
    hists: [Hist; HIST_COUNT],
}

static GLOBAL: Registry = Registry::new();

impl Registry {
    /// A fresh, disabled registry with every metric at zero.
    #[must_use]
    pub const fn new() -> Registry {
        Registry {
            enabled: AtomicBool::new(false),
            counters: [const { AtomicU64::new(0) }; COUNTER_COUNT],
            gauges: [const { AtomicU64::new(0) }; GAUGE_COUNT],
            hists: [const { Hist::new() }; HIST_COUNT],
        }
    }

    /// True when recording through the gated entry points is on.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed) // relaxed: an on/off hint; no data is ordered against the flag
    }

    /// Turns gated recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed); // relaxed: an on/off hint; no data is ordered against the flag
    }

    /// Zeroes every metric. The enabled flag is preserved. Meant for
    /// bench cells and CLI run starts; racing a reset against live
    /// recording yields mixed (but safe) values.
    pub fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed); // relaxed: reset between bench cells; no readers race a reset
        }
        for g in &self.gauges {
            g.store(0, Ordering::Relaxed); // relaxed: reset between bench cells; no readers race a reset
        }
        for h in &self.hists {
            h.reset();
        }
    }

    /// Adds `n` to a counter.
    pub fn ctr_add(&self, c: Counter, n: u64) {
        self.counters[c.idx()].fetch_add(n, Ordering::Relaxed); // relaxed: monotonic tally, read only by exporters
    }

    /// Current value of a counter.
    #[must_use]
    pub fn counter_value(&self, c: Counter) -> u64 {
        self.counters[c.idx()].load(Ordering::Relaxed) // relaxed: exporter read of an independent tally
    }

    /// Stores a gauge value.
    pub fn gauge_set(&self, g: Gauge, v: u64) {
        self.gauges[g.idx()].store(v, Ordering::Relaxed); // relaxed: last-writer-wins sample, read only by exporters
    }

    /// Raises a gauge to `v` if `v` is larger (high-water mark).
    pub fn gauge_max(&self, g: Gauge, v: u64) {
        self.gauges[g.idx()].fetch_max(v, Ordering::Relaxed); // relaxed: monotone high-water mark, read only by exporters
    }

    /// Current value of a gauge.
    #[must_use]
    pub fn gauge_value(&self, g: Gauge) -> u64 {
        self.gauges[g.idx()].load(Ordering::Relaxed) // relaxed: exporter read of an independent sample
    }

    /// Records one microsecond observation into a histogram.
    pub fn hist_observe(&self, h: HistId, us: u64) {
        self.hists[h.idx()].observe(us);
    }

    /// Point-in-time structured snapshot of every metric.
    #[must_use]
    pub fn snapshot(&self) -> ObsSnapshot {
        let counters = Counter::ALL
            .iter()
            .map(|&c| MetricSample {
                name: c.name().to_string(),
                value: self.counter_value(c),
            })
            .collect();
        let gauges = Gauge::ALL
            .iter()
            .map(|&g| MetricSample {
                name: g.name().to_string(),
                value: self.gauge_value(g),
            })
            .collect();
        let histograms = HistId::ALL
            .iter()
            .map(|&h| {
                let hist = &self.hists[h.idx()];
                let mut buckets = Vec::with_capacity(BUCKET_BOUNDS_US.len());
                for (i, &bound) in BUCKET_BOUNDS_US.iter().enumerate() {
                    buckets.push(BucketCount {
                        le_us: bound,
                        count: hist.buckets[i].load(Ordering::Relaxed), // relaxed: exporter read of an independent tally
                    });
                }
                HistSnapshot {
                    name: h.name().to_string(),
                    count: hist.count.load(Ordering::Relaxed), // relaxed: exporter read of an independent tally
                    sum_us: hist.sum_us.load(Ordering::Relaxed), // relaxed: exporter read of an independent tally
                    buckets,
                }
            })
            .collect();
        ObsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Renders every metric in Prometheus text exposition format.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(8 * 1024);
        for c in Counter::ALL {
            render_header(&mut out, c.name(), c.help(), "counter");
            render_sample(&mut out, c.name(), &[], self.counter_value(c));
        }
        for g in Gauge::ALL {
            render_header(&mut out, g.name(), g.help(), "gauge");
            render_sample(&mut out, g.name(), &[], self.gauge_value(g));
        }
        for h in HistId::ALL {
            let hist = &self.hists[h.idx()];
            render_header(&mut out, h.name(), h.help(), "histogram");
            let mut cumulative = 0u64;
            for (i, &bound) in BUCKET_BOUNDS_US.iter().enumerate() {
                cumulative += hist.buckets[i].load(Ordering::Relaxed); // relaxed: exporter read of an independent tally
                render_sample(
                    &mut out,
                    &format!("{}_bucket", h.name()),
                    &[("le", &bound.to_string())],
                    cumulative,
                );
            }
            let count = hist.count.load(Ordering::Relaxed); // relaxed: exporter read of an independent tally
            render_sample(
                &mut out,
                &format!("{}_bucket", h.name()),
                &[("le", "+Inf")],
                count,
            );
            render_sample(
                &mut out,
                &format!("{}_sum", h.name()),
                &[],
                hist.sum_us.load(Ordering::Relaxed), // relaxed: exporter read of an independent tally
            );
            render_sample(&mut out, &format!("{}_count", h.name()), &[], count);
        }
        out
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

fn render_header(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(&escape_help(help));
    out.push('\n');
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

fn render_sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: u64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label(v));
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

/// Escapes a HELP string per the Prometheus text format: backslash and
/// newline.
#[must_use]
pub fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value per the Prometheus text format: backslash,
/// double quote, and newline.
#[must_use]
pub fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// True if `s` is a valid Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
#[must_use]
pub fn is_valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// True if `s` is a valid Prometheus label name
/// (`[a-zA-Z_][a-zA-Z0-9_]*`).
#[must_use]
pub fn is_valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Structured point-in-time snapshot of the registry, the `"obs"` block
/// of `--json` output when observability is enabled.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsSnapshot {
    /// Every counter with its value, in registry order.
    pub counters: Vec<MetricSample>,
    /// Every gauge with its value, in registry order.
    pub gauges: Vec<MetricSample>,
    /// Every histogram with per-bucket tallies.
    pub histograms: Vec<HistSnapshot>,
}

impl ObsSnapshot {
    /// Value of the named counter, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
    }

    /// Value of the named gauge, if present.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|s| s.name == name).map(|s| s.value)
    }
}

/// One named metric value in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricSample {
    /// Metric name (matches the Prometheus exposition).
    pub name: String,
    /// Current value.
    pub value: u64,
}

/// Snapshot of one fixed-bucket histogram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistSnapshot {
    /// Metric name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values, microseconds.
    pub sum_us: u64,
    /// Non-cumulative tallies per finite bucket bound.
    pub buckets: Vec<BucketCount>,
}

/// One histogram bucket: inclusive upper bound and its tally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Inclusive upper bound, microseconds.
    pub le_us: u64,
    /// Observations in this bucket (non-cumulative).
    pub count: u64,
}

/// The process-global registry backing the module-level free functions.
#[must_use]
pub fn global() -> &'static Registry {
    &GLOBAL
}

/// True when global gated recording is on.
#[must_use]
pub fn enabled() -> bool {
    GLOBAL.enabled()
}

/// Turns global gated recording on or off.
pub fn set_enabled(on: bool) {
    GLOBAL.set_enabled(on);
}

/// Zeroes the global registry (see [`Registry::reset`]).
pub fn reset() {
    GLOBAL.reset();
}

/// Adds `n` to a global counter when recording is enabled.
#[inline]
pub fn ctr(c: Counter, n: u64) {
    if GLOBAL.enabled() {
        GLOBAL.ctr_add(c, n);
    }
}

/// Adds `n` to a global counter unconditionally. Reserved for loss
/// accounting (sheds, post-shutdown drops) that must stay visible even
/// with metrics exporting off.
#[inline]
pub fn ctr_always(c: Counter, n: u64) {
    GLOBAL.ctr_add(c, n);
}

/// Current value of a global counter.
#[must_use]
pub fn counter_value(c: Counter) -> u64 {
    GLOBAL.counter_value(c)
}

/// Stores a global gauge value when recording is enabled.
#[inline]
pub fn gauge_set(g: Gauge, v: u64) {
    if GLOBAL.enabled() {
        GLOBAL.gauge_set(g, v);
    }
}

/// Raises a global gauge high-water mark when recording is enabled.
#[inline]
pub fn gauge_max(g: Gauge, v: u64) {
    if GLOBAL.enabled() {
        GLOBAL.gauge_max(g, v);
    }
}

/// Records a histogram observation when recording is enabled.
#[inline]
pub fn hist(h: HistId, us: u64) {
    if GLOBAL.enabled() {
        GLOBAL.hist_observe(h, us);
    }
}

/// Starts a timer: `Some(now)` when recording is enabled, `None` (and no
/// clock read) when disabled.
#[inline]
#[must_use]
#[expect(
    clippy::disallowed_methods,
    reason = "observability only: a histogram's wall-clock duration never feeds verification state"
)]
pub fn timer_start() -> Option<Instant> {
    enabled().then(Instant::now)
}

/// Microseconds since a timer opened by [`timer_start`] (0 when it was
/// never started), for [`hist`].
#[inline]
#[must_use]
pub fn timer_end(start: Option<Instant>) -> u64 {
    start.map_or(0, |t| t.elapsed().as_micros() as u64)
}

/// Global snapshot when recording is enabled, `None` otherwise.
#[must_use]
pub fn snapshot_if_enabled() -> Option<ObsSnapshot> {
    enabled().then(|| GLOBAL.snapshot())
}

/// Renders the global registry in Prometheus text exposition format.
#[must_use]
pub fn render_prometheus() -> String {
    GLOBAL.render_prometheus()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Box<Registry> {
        let r = Box::new(Registry::new());
        r.set_enabled(true);
        r
    }

    #[test]
    fn histogram_buckets_are_inclusive_upper_bounds() {
        let r = fresh();
        // A value equal to a bound lands in that bucket, one above it
        // lands in the next, and an over-the-top value only reaches
        // sum/count (the implicit +Inf bucket).
        r.hist_observe(HistId::GcPauseUs, 50);
        r.hist_observe(HistId::GcPauseUs, 51);
        r.hist_observe(HistId::GcPauseUs, 5_000_000);
        let snap = r.snapshot();
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "leopard_gc_pause_us")
            .expect("gc hist present");
        assert_eq!(h.count, 3);
        assert_eq!(h.sum_us, 50 + 51 + 5_000_000);
        assert_eq!(
            h.buckets[0],
            BucketCount {
                le_us: 50,
                count: 1
            }
        );
        assert_eq!(
            h.buckets[1],
            BucketCount {
                le_us: 100,
                count: 1
            }
        );
        let finite: u64 = h.buckets.iter().map(|b| b.count).sum();
        assert_eq!(finite, 2, "over-the-top value stays out of finite buckets");
    }

    #[test]
    fn exposition_histogram_buckets_are_cumulative_and_end_at_inf() {
        let r = fresh();
        r.hist_observe(HistId::SpillPassUs, 10);
        r.hist_observe(HistId::SpillPassUs, 10);
        r.hist_observe(HistId::SpillPassUs, 200);
        r.hist_observe(HistId::SpillPassUs, 10_000_000);
        let text = r.render_prometheus();
        assert!(text.contains("leopard_spill_pass_us_bucket{le=\"50\"} 2\n"));
        assert!(text.contains("leopard_spill_pass_us_bucket{le=\"250\"} 3\n"));
        assert!(text.contains("leopard_spill_pass_us_bucket{le=\"1000000\"} 3\n"));
        assert!(text.contains("leopard_spill_pass_us_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("leopard_spill_pass_us_count 4\n"));
        assert!(text.contains("leopard_spill_pass_us_sum 10000220\n"));
    }

    #[test]
    fn counters_are_monotonic_across_renders() {
        let r = fresh();
        let mut last = 0u64;
        for step in 1..=5u64 {
            r.ctr_add(Counter::OpsIngested, step);
            let v = r.counter_value(Counter::OpsIngested);
            assert!(v > last, "counter regressed: {v} after {last}");
            last = v;
            let line = format!("leopard_ops_ingested_total {v}\n");
            assert!(r.render_prometheus().contains(&line));
        }
    }

    #[test]
    fn every_metric_and_label_name_is_valid() {
        for c in Counter::ALL {
            assert!(is_valid_metric_name(c.name()), "{}", c.name());
        }
        for g in Gauge::ALL {
            assert!(is_valid_metric_name(g.name()), "{}", g.name());
        }
        for h in HistId::ALL {
            assert!(is_valid_metric_name(h.name()), "{}", h.name());
        }
        assert!(is_valid_label_name("le"));
        assert!(!is_valid_metric_name("9starts_with_digit"));
        assert!(!is_valid_metric_name("has-dash"));
        assert!(!is_valid_label_name("has:colon"));
        assert!(!is_valid_label_name(""));
    }

    #[test]
    fn exposition_lines_match_the_text_format() {
        let r = fresh();
        r.ctr_add(Counter::Dispatched, 7);
        for line in r.render_prometheus().lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment line: {line}"
                );
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(
                value == "+Inf" || value.parse::<u64>().is_ok(),
                "bad value in: {line}"
            );
            let name = series.split('{').next().expect("series has a name");
            assert!(is_valid_metric_name(name), "bad metric name in: {line}");
        }
    }

    #[test]
    fn escaping_covers_backslash_quote_and_newline() {
        assert_eq!(escape_help("a\\b\nc"), "a\\\\b\\nc");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn loss_counters_land_on_a_disabled_registry() {
        let r = Box::new(Registry::new());
        assert!(!r.enabled());
        // ctr_add itself is ungated — the gating lives in the module
        // fns — so loss accounting through ctr_always always lands.
        r.ctr_add(Counter::PostShutdownDrops, 2);
        assert_eq!(r.counter_value(Counter::PostShutdownDrops), 2);
    }

    #[test]
    fn reset_zeroes_every_metric() {
        let r = fresh();
        r.ctr_add(Counter::GcPasses, 5);
        r.gauge_set(Gauge::MemBytes, 123);
        r.hist_observe(HistId::DispatchLatencyUs, 9);
        r.reset();
        assert!(r.enabled(), "reset preserves the enabled flag");
        let snap = r.snapshot();
        assert_eq!(snap.counter("leopard_gc_passes_total"), Some(0));
        assert_eq!(snap.gauge("leopard_mem_bytes"), Some(0));
        assert!(snap.histograms.iter().all(|h| h.count == 0));
    }

    #[test]
    fn both_exporters_carry_exactly_the_registry() {
        let r = fresh();
        // The JSON block: three top-level keys, nothing else.
        let json = serde_json::to_string(&r.snapshot()).expect("snapshot serializes");
        let (mut depth, mut keys) = (0, Vec::new());
        for (at, c) in json.char_indices() {
            match c {
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                ':' if depth == 1 => keys.push(json[..at].rsplit('"').nth(1).expect("a key")),
                _ => {}
            }
        }
        assert_eq!(keys, ["counters", "gauges", "histograms"]);
        // The exposition: one series per metric, in registry order.
        let text = r.render_prometheus();
        let series: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .map(|l| l.split(' ').next().expect("TYPE has a name"))
            .collect();
        let registry: Vec<&str> = (Counter::ALL.iter().map(|c| c.name()))
            .chain(Gauge::ALL.iter().map(|g| g.name()))
            .chain(HistId::ALL.iter().map(|h| h.name()))
            .collect();
        assert_eq!(series, registry);
    }

    #[test]
    fn snapshot_serializes_to_json_and_back() {
        let r = fresh();
        r.ctr_add(Counter::GcPasses, 4);
        r.gauge_set(Gauge::MemBytes, 2);
        let snap = r.snapshot();
        let json = serde_json::to_string(&snap).expect("snapshot serializes");
        let back: ObsSnapshot = serde_json::from_str(&json).expect("snapshot round-trips");
        assert_eq!(snap, back);
        assert_eq!(back.counter("leopard_gc_passes_total"), Some(4));
        assert_eq!(back.gauge("leopard_mem_bytes"), Some(2));
    }

    // --- The exporters through the public API: Prometheus text exposition
    // (monotone cumulative buckets, `+Inf` = `_count`, name validity).

    /// A registry with a little of everything, for the exporter tests.
    fn populated_registry() -> Box<Registry> {
        let r = Box::new(Registry::new());
        r.set_enabled(true);
        r.ctr_add(Counter::OpsIngested, 1234);
        r.ctr_add(Counter::GcPasses, 7);
        r.gauge_set(Gauge::WatermarkLag, 42);
        for us in [10, 80, 300, 7_000, 2_000_000] {
            r.hist_observe(HistId::GcPauseUs, us);
        }
        r
    }

    #[test]
    fn exposition_lines_are_structurally_valid() {
        let r = populated_registry();
        let text = r.render_prometheus();
        assert!(!text.is_empty());
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().expect("HELP has a name");
                assert!(is_valid_metric_name(name), "bad HELP name in {line:?}");
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split(' ');
                let name = it.next().expect("TYPE has a name");
                let kind = it.next().expect("TYPE has a kind");
                assert!(is_valid_metric_name(name), "bad TYPE name in {line:?}");
                assert!(
                    ["counter", "gauge", "histogram"].contains(&kind),
                    "unknown TYPE kind in {line:?}"
                );
                continue;
            }
            // A sample: `name{labels} value` or `name value`.
            let (head, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(
                value.parse::<u64>().is_ok(),
                "non-numeric value in {line:?}"
            );
            let name = head.split('{').next().expect("sample has a name");
            assert!(is_valid_metric_name(name), "bad sample name in {line:?}");
            if let Some(labels) = head.strip_prefix(name) {
                if !labels.is_empty() {
                    assert!(
                        labels.starts_with('{') && labels.ends_with('}'),
                        "malformed label block in {line:?}"
                    );
                    for pair in labels[1..labels.len() - 1].split(',') {
                        let (k, v) = pair.split_once('=').expect("label has =");
                        assert!(is_valid_label_name(k), "bad label name in {line:?}");
                        assert!(
                            v.starts_with('"') && v.ends_with('"'),
                            "unquoted label value in {line:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_capped_by_inf() {
        let r = populated_registry();
        let text = r.render_prometheus();
        let mut prev = 0u64;
        let mut inf = None;
        let mut count = None;
        for line in text.lines() {
            if line.starts_with("leopard_gc_pause_us_bucket{le=\"+Inf\"}") {
                inf = line.rsplit(' ').next().and_then(|v| v.parse::<u64>().ok());
            } else if line.starts_with("leopard_gc_pause_us_bucket") {
                let v: u64 = line
                    .rsplit(' ')
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("bucket value");
                assert!(v >= prev, "bucket counts must be cumulative: {line:?}");
                prev = v;
            } else if line.starts_with("leopard_gc_pause_us_count") {
                count = line.rsplit(' ').next().and_then(|v| v.parse::<u64>().ok());
            }
        }
        assert_eq!(inf, Some(5), "+Inf bucket must count every observation");
        assert_eq!(count, inf, "_count must equal the +Inf bucket");
        // The 2s outlier is beyond the largest finite bound, so the largest
        // finite bucket must stay below the +Inf bucket.
        assert!(
            prev < 5,
            "outlier beyond the largest bound leaked into a finite bucket"
        );
    }

    #[test]
    fn counters_are_monotonic_through_the_public_api() {
        let r = Box::new(Registry::new());
        r.set_enabled(true);
        let mut last = r.counter_value(Counter::Dispatched);
        for n in [1, 10, 100] {
            r.ctr_add(Counter::Dispatched, n);
            let now = r.counter_value(Counter::Dispatched);
            assert!(now > last, "counter went backwards: {last} -> {now}");
            last = now;
        }
        assert_eq!(last, 111);
    }

    #[test]
    fn snapshot_round_trips_counter_names() {
        let r = populated_registry();
        let snap = r.snapshot();
        assert_eq!(snap.counter("leopard_ops_ingested_total"), Some(1234));
        assert_eq!(snap.counter("leopard_gc_passes_total"), Some(7));
        assert_eq!(snap.counter("no_such_counter"), None);
        assert_eq!(snap.gauge("leopard_watermark_lag"), Some(42));
        let json = serde_json::to_string(&snap).expect("snapshot serializes");
        assert!(json.contains("\"leopard_ops_ingested_total\""));
    }
}

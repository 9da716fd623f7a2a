//! Implementations of the CLI subcommands.

use crate::args::{
    ChaosConfig, EngineArgs, IngestConfig, LintHistoryConfig, OracleConfig, RecordConfig,
    ServeCliConfig, SoakCliConfig, VerifyConfig,
};
use leopard_core::obs;
use leopard_core::{
    engine, ingest_capture, Backpressure, BudgetCounters, CaptureHeader, CaptureReader,
    CaptureWriter, Checkpoint, CheckpointError, Endpoint, FsIo, IsolationLevel, OnlineLeopard,
    OnlineOptions, PreflightAnalyzer, PreflightConfig, PreflightReport, ServeOptions, Server,
    CAPTURE_VERSION, TRACE_APPROX_BYTES,
};
use leopard_db::{Database, DbConfig, FaultPlan};
use leopard_oracle::{corpus_files, run_matrix, CleanRunSpec, Schedule};
use leopard_workloads::{
    bundled_workload, preload_database, run_chaos_with_sinks_stoppable, run_collect, run_soak,
    ChaosPlan, RetryPolicy, RunLimit, SoakOptions,
};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The sink behind `--metrics-out`. Constructing one with a path turns the
/// process-global registry on and clears state left by a previous run,
/// so the exported file describes exactly this invocation.
struct MetricsOut(Option<PathBuf>);

impl MetricsOut {
    fn new(args: &EngineArgs) -> MetricsOut {
        if args.metrics_out.is_some() {
            obs::reset();
            obs::set_enabled(true);
        }
        MetricsOut(args.metrics_out.as_ref().map(PathBuf::from))
    }

    /// Writes the exposition file. Returns `false` (after printing the
    /// error) if it cannot be written.
    fn finish(&self, out: &mut dyn Write, quiet: bool) -> bool {
        let Some(path) = &self.0 else {
            return true;
        };
        if let Err(e) = std::fs::write(path, obs::render_prometheus()) {
            let _ = writeln!(out, "error: cannot write {}: {e}", path.display());
            return false;
        }
        if !quiet {
            let _ = writeln!(out, "metrics written to {}", path.display());
        }
        true
    }

    /// The `,"obs":{...}` suffix spliced into the single-line JSON
    /// summary, or an empty string when observability is off.
    fn json_block(&self) -> String {
        if self.0.is_none() {
            return String::new();
        }
        obs::snapshot_if_enabled()
            .and_then(|s| serde_json::to_string(&s).ok())
            .map(|j| format!(",\"obs\":{j}"))
            .unwrap_or_default()
    }
}

/// `leopard record`: run the bundled engine + workload, write a capture.
pub fn record(cfg: &RecordConfig, out: &mut dyn Write) -> i32 {
    let (proto, gens) = match bundled_workload(&cfg.workload, cfg.scale, cfg.threads) {
        Ok(x) => x,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            return 2;
        }
    };
    let faults = match cfg.fault {
        Some(kind) => FaultPlan::with_probability(kind, cfg.fault_prob, cfg.seed),
        None => FaultPlan::none(),
    };
    let db = Database::with_faults(DbConfig::at(cfg.level), faults);
    let preload = preload_database(&db, proto.as_ref());
    let run = run_collect(&db, gens, RunLimit::Txns(cfg.txns), cfg.seed);

    let header = CaptureHeader {
        version: CAPTURE_VERSION,
        description: format!(
            "{} scale={} level={} threads={} fault={:?}",
            cfg.workload, cfg.scale, cfg.level, cfg.threads, cfg.fault
        ),
        preload,
    };
    let file = match std::fs::File::create(&cfg.out) {
        Ok(f) => f,
        Err(e) => {
            let _ = writeln!(out, "error: cannot create {}: {e}", cfg.out);
            return 1;
        }
    };
    let mut writer = match CaptureWriter::new(file, &header) {
        Ok(w) => w,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            return 1;
        }
    };
    for trace in run.merged_sorted() {
        if let Err(e) = writer.write(&trace) {
            let _ = writeln!(out, "error: {e}");
            return 1;
        }
    }
    match writer.finish() {
        Ok(n) => {
            let _ = writeln!(
                out,
                "recorded {} traces ({} committed, {} aborted txns) to {}",
                n, run.stats.committed, run.stats.aborted, cfg.out
            );
            0
        }
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            1
        }
    }
}

/// Streams a capture through the preflight analyzer. `Err` carries the
/// process exit code for I/O or format failures.
fn preflight_capture(path: &str, out: &mut dyn Write) -> Result<PreflightReport, i32> {
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) => {
            let _ = writeln!(out, "error: cannot open {path}: {e}");
            return Err(1);
        }
    };
    let mut reader = match CaptureReader::new(file) {
        Ok(r) => r,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            return Err(1);
        }
    };
    let mut analyzer = PreflightAnalyzer::new(PreflightConfig::default());
    for &(k, v) in &reader.header().preload.clone() {
        analyzer.preload(k, v);
    }
    loop {
        match reader.next_trace() {
            Ok(Some(trace)) => analyzer.observe(&trace),
            Ok(None) => break,
            Err(e) => {
                let _ = writeln!(out, "error: {e}");
                return Err(1);
            }
        }
    }
    Ok(analyzer.finish())
}

/// `leopard lint-history`: run only the preflight analysis on a capture.
pub fn lint_history(cfg: &LintHistoryConfig, out: &mut dyn Write) -> i32 {
    let report = match preflight_capture(&cfg.file, out) {
        Ok(r) => r,
        Err(code) => return code,
    };
    if cfg.json {
        match serde_json::to_string(&report) {
            Ok(json) => {
                let _ = writeln!(out, "{json}");
            }
            Err(e) => {
                let _ = writeln!(out, "error: {e}");
                return 1;
            }
        }
    } else {
        let _ = writeln!(out, "{report}");
    }
    if report.is_clean() {
        0
    } else {
        3
    }
}

/// The budget / spill counter block of a run summary, one rendering for
/// `verify` and `chaos`. As JSON it is the run of keys from `peak_bytes`
/// to `spill_fallbacks` (CI strip-diffs them: keys, order and values are
/// fixed); `channel` — chaos's `post_shutdown_drops` — selects chaos's
/// key set, which has that one and no `peak_entries`.
/// As text it is the `resources:` line under a budget and the `spill:`
/// line with a spill directory.
fn render_budget(
    b: &BudgetCounters,
    args: &EngineArgs,
    json: bool,
    channel: Option<u64>,
) -> String {
    if json {
        let entries = match channel {
            None => format!("\"peak_entries\":{},", b.peak_entries),
            Some(_) => String::new(),
        };
        let channel = channel
            .map(|late| format!("\"post_shutdown_drops\":{late},"))
            .unwrap_or_default();
        return format!(
            "\"peak_bytes\":{},{entries}\"forced_gcs\":{},\"forced_dispatches\":{},\
             \"shed_traces\":{},{channel}\"budget_evictions\":{},\
             \"spill_passes\":{},\"spilled_records\":{},\"spill_faults\":{},\
             \"spill_fallbacks\":{},",
            b.peak_bytes,
            b.forced_gcs,
            b.forced_dispatches,
            b.shed_traces,
            b.budget_evictions,
            b.spill_passes,
            b.spilled_records,
            b.spill_faults,
            b.spill_fallbacks,
        );
    }
    let mut text = String::new();
    if args.mem_budget.is_some() {
        text += &format!(
            "resources: peak {} bytes / {} entries, {} forced gcs, {} forced dispatches, \
             {} shed, {} budget evictions\n",
            b.peak_bytes,
            b.peak_entries,
            b.forced_gcs,
            b.forced_dispatches,
            b.shed_traces,
            b.budget_evictions
        );
    }
    if args.spill_dir.is_some() {
        text += &format!(
            "spill: {} pass(es), {} record(s) paged out, {} fault(s), {} fallback(s)\n",
            b.spill_passes, b.spilled_records, b.spill_faults, b.spill_fallbacks
        );
    }
    text
}

/// The part of `leopard verify` that runs the engine: feeds `reader`'s
/// traces past the first `skip`, writes the checkpoints `opts` asks for
/// and finishes the verifier. `Err` carries the process exit code and has
/// said why.
fn feed_capture(
    cfg: &VerifyConfig,
    opts: &engine::EngineOpts,
    reader: &mut CaptureReader<std::fs::File>,
    mut verifier: leopard_core::Verifier,
    skip: u64,
    out: &mut dyn Write,
) -> Result<leopard_core::VerifyOutcome, i32> {
    let save = |verifier: &leopard_core::Verifier, cursor: u64, out: &mut dyn Write| {
        let Some(path) = &opts.checkpoint else {
            return Ok(());
        };
        if let Err(e) = engine::save(verifier, cursor, &FsIo, path) {
            let _ = writeln!(out, "error: cannot checkpoint: {e}");
            return Err(1);
        }
        Ok(())
    };
    crate::signals::install_termination_handler();
    let mut seen = 0u64;
    loop {
        if crate::signals::termination_requested() {
            // Graceful shutdown: persist the exact resume point (the caller
            // flushes the metrics), then exit with the conventional 128+SIG
            // code so wrappers can tell "interrupted" from "violations".
            let processed = seen.saturating_sub(skip);
            save(&verifier, seen.max(skip), out)?;
            match &opts.checkpoint {
                Some(path) => {
                    let _ = writeln!(
                        out,
                        "interrupted after {processed} traces; checkpoint flushed to {}",
                        path.display()
                    );
                }
                None => {
                    let _ = writeln!(out, "interrupted after {processed} traces");
                }
            }
            return Err(130);
        }
        match reader.next_trace() {
            Ok(Some(trace)) => {
                seen += 1;
                if seen <= skip {
                    continue;
                }
                // A latched store fault means spilled state could not be
                // read back: the engine has stopped ingesting, and
                // reporting a verdict would be unsound. Fail typed.
                if let Err(fault) = engine::feed(&mut verifier, &trace) {
                    let _ = writeln!(
                        out,
                        "error: {fault} after {} traces; no verdict is \
                         reported (rerun from the last good checkpoint)",
                        seen - skip
                    );
                    return Err(1);
                }
                if opts.checkpoint_due(seen - skip) {
                    save(&verifier, seen, out)?;
                }
            }
            Ok(None) => break,
            Err(e) => {
                let _ = writeln!(out, "error: {e}");
                return Err(1);
            }
        }
    }
    save(&verifier, seen.max(skip), out)?;
    if let (Some(path), false) = (&opts.checkpoint, cfg.json) {
        let _ = writeln!(out, "checkpoint written to {}", path.display());
    }
    engine::finish(verifier).map_err(|fault| {
        // Deferred checks may fault records in at finish; the same rule
        // applies — a typed error, never a verdict over partial state.
        let _ = writeln!(out, "error: {fault}; no verdict is reported");
        1
    })
}

/// `leopard verify`: audit a capture file.
pub fn verify(cfg: &VerifyConfig, out: &mut dyn Write) -> i32 {
    let sinks = MetricsOut::new(&cfg.engine);
    if cfg.skip_preflight {
        if !cfg.json {
            let _ = writeln!(out, "preflight: skipped (--skip-preflight)");
        }
    } else {
        let report = match preflight_capture(&cfg.file, out) {
            Ok(r) => r,
            Err(code) => return code,
        };
        if !cfg.json {
            let _ = writeln!(out, "{report}");
        }
        if report.has_errors() {
            if cfg.engine.degraded {
                if !cfg.json {
                    let _ = writeln!(
                        out,
                        "preflight found errors; continuing in degraded mode \
                         (ill-formed traces are quarantined, not verified)"
                    );
                }
            } else {
                let _ = writeln!(
                    out,
                    "refusing to verify: the history failed preflight, so verification \
                     verdicts would be untrustworthy (rerun with --skip-preflight to force)"
                );
                return 4;
            }
        }
    }

    let file = match std::fs::File::open(&cfg.file) {
        Ok(f) => f,
        Err(e) => {
            let _ = writeln!(out, "error: cannot open {}: {e}", cfg.file);
            return 1;
        }
    };
    let mut reader = match CaptureReader::new(file) {
        Ok(r) => r,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            return 1;
        }
    };
    if !cfg.json {
        let _ = writeln!(out, "capture: {}", reader.header().description);
    }

    // Fresh from the flags and the capture's preload, or resumed from an
    // image written under the same flags (the preload is inside it).
    let opts = cfg.engine.to_opts();
    let image = cfg.resume.as_ref().map(|path| {
        let absent = std::io::Error::new(std::io::ErrorKind::NotFound, "no checkpoint there");
        Checkpoint::load(&FsIo, Path::new(path))?.ok_or(CheckpointError::Io(absent))
    });
    let opened = image
        .transpose()
        .and_then(|image| engine::open(&opts, image, &reader.header().preload));
    let opened = match opened {
        Ok(opened) => opened,
        Err(e) => {
            let from = cfg.resume.as_deref().unwrap_or_default();
            let _ = writeln!(out, "error: cannot resume from {from}: {e}");
            return 1;
        }
    };
    for warning in &opened.warnings {
        let _ = writeln!(out, "warning: {warning}");
    }
    let (verifier, skip) = (opened.verifier, opened.cursor);
    if let (Some(from), false) = (&cfg.resume, cfg.json) {
        let _ = writeln!(out, "resumed from {from}: {skip} traces already ingested");
    }

    // Every exit from here on has run the engine: the metrics file is
    // written once, whichever way the stream ended.
    let streamed = feed_capture(cfg, &opts, &mut reader, verifier, skip, out);
    let flushed = sinks.finish(out, cfg.json);
    let outcome = match streamed {
        Ok(outcome) if flushed => outcome,
        Ok(_) => return 1,
        Err(code) => return code,
    };
    if cfg.json {
        let cov = &outcome.coverage;
        let evicted: Vec<String> = cov
            .evicted_clients
            .iter()
            .map(|c| c.0.to_string())
            .collect();
        let _ = writeln!(
            out,
            "{{\"level\":\"{}\",\"traces\":{},\"committed\":{},{}\
             \"evicted_clients\":[{}],\"quarantined_traces\":{},\"demoted_reads\":{},\
             \"violations\":{},\"clean\":{},\"complete\":{}{}}}",
            cfg.engine.level,
            outcome.counters.traces,
            outcome.counters.committed,
            render_budget(&outcome.counters.budget, &cfg.engine, true, None),
            evicted.join(","),
            cov.quarantined_traces,
            cov.demoted_reads,
            outcome.report.violations.len(),
            outcome.report.is_clean(),
            cov.is_complete(),
            sinks.json_block(),
        );
        return if outcome.report.is_clean() { 0 } else { 3 };
    }
    let _ = writeln!(
        out,
        "verified {} traces / {} committed transactions at {}",
        outcome.counters.traces, outcome.counters.committed, cfg.engine.level
    );
    let _ = writeln!(out, "{}", outcome.stats);
    let _ = write!(
        out,
        "{}",
        render_budget(&outcome.counters.budget, &cfg.engine, false, None)
    );
    if !outcome.coverage.is_complete() {
        let _ = write!(out, "{}", outcome.coverage);
    }
    if outcome.report.is_clean() {
        let _ = writeln!(out, "verdict: CLEAN");
        0
    } else {
        let _ = writeln!(out, "verdict: VIOLATIONS\n{}", outcome.report);
        3
    }
}

/// `leopard chaos`: run a bundled workload under seeded fault injection
/// (client kills, stalls, dropped/duplicated deliveries, clock-skew
/// bursts) through the *online* Tracer→Verifier chain in degraded mode,
/// and report both the verdict and how much of the history it covers.
pub fn chaos(cfg: &ChaosConfig, out: &mut dyn Write) -> i32 {
    let sinks = MetricsOut::new(&cfg.engine);
    // Channel-layer losses are counted unconditionally in the global
    // registry (they must never be silent), so the per-run figure is a
    // before/after delta rather than an absolute read.
    let post_shutdown_before = obs::counter_value(obs::Counter::PostShutdownDrops);
    let (proto, gens) = match bundled_workload(&cfg.workload, cfg.scale, cfg.threads) {
        Ok(x) => x,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            return 2;
        }
    };
    let plan = ChaosPlan {
        seed: cfg.chaos_seed,
        kill_prob: cfg.kill_prob,
        stall_prob: cfg.stall_prob,
        stall: Duration::from_millis(cfg.stall_ms),
        drop_prob: cfg.drop_prob,
        dup_prob: cfg.dup_prob,
        truncate_after: None,
        skew_burst_prob: cfg.skew_burst_prob,
        skew_magnitude: cfg.skew_magnitude,
        // Bound total divergence so the verifier's skew bound stays finite.
        max_skew_bursts: if cfg.skew_burst_prob > 0.0 { 8 } else { 0 },
        disk_fault_prob: cfg.disk_fault_prob,
        disk_enospc_after_bytes: cfg.disk_enospc_after,
    };
    // A chaos run mangles deliveries, so it verifies degraded and under
    // the skew its plan injects; the spill tier rides under the same
    // seeded chaos umbrella — the plan's disk knobs become the tier's
    // fault-injection spec.
    let mut engine = cfg.engine.to_opts();
    engine.verifier.degraded = true;
    engine.verifier.clock_skew_bound = plan.skew_bound();
    if let Some(spill) = &mut engine.spill {
        spill.fault = plan.fault_spec();
    }
    let vcfg = engine.verifier;
    let retry = RetryPolicy::with_backoff(
        cfg.retry_attempts,
        Duration::from_millis(cfg.retry_backoff_ms),
    )
    .with_jitter(cfg.retry_jitter);

    let db = Database::new(DbConfig::at(cfg.engine.level));
    let preload = preload_database(&db, proto.as_ref());

    // Under a memory budget the per-client channels are bounded too, so
    // ingest cannot outrun the collector by more than the budget allows.
    let backpressure = match cfg.engine.mem_budget {
        Some(bytes) => {
            let per_client =
                (bytes as usize / TRACE_APPROX_BYTES / cfg.threads.max(1)).clamp(16, 4096);
            Backpressure::Blocking(per_client)
        }
        None => Backpressure::Unbounded,
    };
    let opts = OnlineOptions {
        eviction_timeout: Some(Duration::from_millis(cfg.evict_timeout_ms)),
        backpressure,
        engine,
        ..OnlineOptions::default()
    };
    // SIGINT/SIGTERM flip a flag the client threads poll; the run then
    // winds down through the normal path, so the final checkpoint and
    // metrics snapshot are flushed before the process exits with 130.
    crate::signals::install_termination_handler();
    let interrupt = Arc::new(AtomicBool::new(false));
    let watcher = {
        let interrupt = Arc::clone(&interrupt);
        std::thread::spawn(move || {
            while !interrupt.load(Ordering::SeqCst) {
                if crate::signals::termination_requested() {
                    interrupt.store(true, Ordering::SeqCst);
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        })
    };
    let (online, handles) = OnlineLeopard::start_opts(cfg.threads, vcfg, opts, preload);
    let (mut stats, client_sinks) = run_chaos_with_sinks_stoppable(
        &db,
        gens,
        handles,
        RunLimit::Txns(cfg.txns),
        cfg.seed,
        &plan,
        retry,
        &interrupt,
    );
    drop(client_sinks); // close every client stream
    interrupt.store(true, Ordering::SeqCst);
    let _ = watcher.join();
    let interrupted = crate::signals::termination_requested();
    let (outcome, pstats) = match online.finish_with_timeout(Duration::from_secs(60)) {
        Ok(x) => x,
        Err(timeout) => {
            let _ = writeln!(out, "warning: {timeout}");
            (timeout.outcome, timeout.stats)
        }
    };
    // saturating: a concurrent in-process run (tests) may reset the
    // registry mid-flight; a clamped-to-zero figure beats a panic.
    let post_shutdown_drops =
        obs::counter_value(obs::Counter::PostShutdownDrops).saturating_sub(post_shutdown_before);
    if !sinks.finish(out, cfg.json) {
        return 1;
    }

    stats.absorb_pipeline(&pstats);
    let outcome = match outcome.into_result() {
        Ok(outcome) => outcome,
        Err(fault) => {
            // An unrecoverable spill-tier fault (after retries) is a typed
            // terminal outcome: the verdict over partial state would be
            // unsound, so none is reported.
            let _ = writeln!(out, "error: {fault}; no verdict is reported");
            return 1;
        }
    };
    let cov = &outcome.coverage;
    let budget = &outcome.counters.budget;
    if cfg.json {
        let evicted: Vec<String> = cov
            .evicted_clients
            .iter()
            .map(|c| c.0.to_string())
            .collect();
        let _ = writeln!(
            out,
            "{{\"workload\":\"{}\",\"level\":\"{}\",\"seed\":{},\"chaos_seed\":{},\
             \"committed\":{},\"aborted\":{},\"retries\":{},\"killed\":{},\"stalled\":{},\
             \"traces_dropped\":{},\"traces_duplicated\":{},\
             \"dispatched\":{},\"duplicates_deduped\":{},\"evicted_clients\":[{}],\
             \"quarantined_traces\":{},\"demoted_reads\":{},\"indeterminate_txns\":{},{}\
             \"violations\":{},\"clean\":{},\"complete\":{}{}}}",
            cfg.workload,
            cfg.engine.level,
            cfg.seed,
            cfg.chaos_seed,
            stats.committed,
            stats.aborted,
            stats.retries,
            stats.killed,
            stats.stalled,
            stats.traces_dropped,
            stats.traces_duplicated,
            pstats.dispatched,
            pstats.duplicates_dropped,
            evicted.join(","),
            cov.quarantined_traces,
            cov.demoted_reads,
            cov.indeterminate_txns.len(),
            render_budget(budget, &cfg.engine, true, Some(post_shutdown_drops)),
            outcome.report.violations.len(),
            outcome.report.is_clean(),
            cov.is_complete(),
            sinks.json_block(),
        );
    } else {
        let _ = writeln!(
            out,
            "chaos: {} level={} threads={} txns/client={} seed={} chaos-seed={}",
            cfg.workload, cfg.engine.level, cfg.threads, cfg.txns, cfg.seed, cfg.chaos_seed
        );
        let _ = writeln!(
            out,
            "run: {} committed, {} aborted, {} retries, {} killed, {} stalled",
            stats.committed, stats.aborted, stats.retries, stats.killed, stats.stalled
        );
        let _ = writeln!(
            out,
            "transport: {} deliveries dropped, {} duplicated",
            stats.traces_dropped, stats.traces_duplicated
        );
        let _ = writeln!(
            out,
            "pipeline: {} dispatched, {} duplicates deduped, {} clients evicted",
            pstats.dispatched, pstats.duplicates_dropped, pstats.evicted_clients
        );
        let _ = write!(out, "{}", render_budget(budget, &cfg.engine, false, None));
        let _ = write!(out, "{cov}");
    }
    let code = if outcome.report.is_clean() {
        if !cfg.json {
            let _ = writeln!(out, "verdict: CLEAN");
        }
        0
    } else {
        if !cfg.json {
            let _ = writeln!(out, "verdict: VIOLATIONS\n{}", outcome.report);
        }
        3
    };
    if interrupted {
        if !cfg.json {
            let _ = writeln!(
                out,
                "interrupted: final checkpoint and metrics snapshot flushed before exit"
            );
        }
        return 130;
    }
    code
}

/// `leopard oracle`: run the anomaly-injection differential matrix and
/// optionally write the corpus to disk.
pub fn oracle(cfg: &OracleConfig, out: &mut dyn Write) -> i32 {
    let spec = CleanRunSpec {
        workload: cfg.workload.clone(),
        rows: cfg.rows,
        clients: cfg.clients,
        txns_per_client: cfg.txns,
        level: IsolationLevel::Serializable,
        seed: cfg.seed,
        tick: 100,
        schedule: Schedule::Serial,
    };
    let report = match run_matrix(&spec) {
        Ok(r) => r,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            return 2;
        }
    };
    if cfg.json {
        match serde_json::to_string(&report) {
            Ok(json) => {
                let _ = writeln!(out, "{json}");
            }
            Err(e) => {
                let _ = writeln!(out, "error: {e}");
                return 1;
            }
        }
    } else {
        let _ = writeln!(out, "{report}");
    }
    if let Some(dir) = &cfg.out_dir {
        let files = match corpus_files(&spec) {
            Ok(f) => f,
            Err(e) => {
                let _ = writeln!(out, "error: {e}");
                return 1;
            }
        };
        if let Err(e) = std::fs::create_dir_all(dir) {
            let _ = writeln!(out, "error: cannot create {dir}: {e}");
            return 1;
        }
        for (name, bytes) in &files {
            let path = std::path::Path::new(dir).join(name);
            if let Err(e) = std::fs::write(&path, bytes) {
                let _ = writeln!(out, "error: cannot write {}: {e}", path.display());
                return 1;
            }
        }
        let _ = writeln!(out, "wrote {} corpus files to {dir}", files.len());
    }
    if report.all_ok {
        0
    } else {
        3
    }
}

/// `leopard serve`: run the verification daemon until SIGINT/SIGTERM
/// (or a `shutdown` control command) asks it to flush every active
/// stream's checkpoint and exit.
pub fn serve(cfg: &ServeCliConfig, out: &mut dyn Write) -> i32 {
    let ingest = match Endpoint::parse(&cfg.listen) {
        Ok(ep) => ep,
        Err(e) => {
            let _ = writeln!(out, "error: --listen: {e}");
            return 2;
        }
    };
    let control = match cfg.control.as_deref().map(Endpoint::parse).transpose() {
        Ok(ep) => ep,
        Err(e) => {
            let _ = writeln!(out, "error: --control: {e}");
            return 2;
        }
    };
    let mut opts = ServeOptions::new(PathBuf::from(&cfg.dir));
    opts.engine = cfg.engine.to_opts();
    opts.global_budget_bytes = cfg.global_budget;
    let server = match Server::bind(&ingest, control.as_ref(), opts) {
        Ok(s) => s,
        Err(e) => {
            let _ = writeln!(out, "error: cannot bind {}: {e}", cfg.listen);
            return 1;
        }
    };
    let handle = server.handle();
    let recovered = handle.streams().len();
    let _ = writeln!(
        out,
        "serving on {} (control: {}), checkpoints in {}, {} stream(s) recovered",
        cfg.listen,
        cfg.control.as_deref().unwrap_or("off"),
        cfg.dir,
        recovered
    );
    // The signal watcher translates SIGINT/SIGTERM into the same
    // shutdown request the control endpoint issues, so both paths flush
    // final checkpoints through Server::run's join-on-exit.
    crate::signals::install_termination_handler();
    let watcher = std::thread::spawn(move || {
        while !handle.is_shutting_down() {
            if crate::signals::termination_requested() {
                handle.shutdown();
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    });
    let code = match server.run() {
        Ok(()) => {
            let _ = writeln!(out, "shutdown complete; all stream checkpoints flushed");
            if crate::signals::termination_requested() {
                130
            } else {
                0
            }
        }
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            1
        }
    };
    let _ = watcher.join();
    code
}

/// `leopard ingest`: stream a capture file to a running daemon and print
/// its verdict. Exit 0 for a clean, complete verdict; 3 when violations
/// were found or coverage is degraded; 1 on transport/daemon errors.
pub fn ingest(cfg: &IngestConfig, out: &mut dyn Write) -> i32 {
    let endpoint = match Endpoint::parse(&cfg.to) {
        Ok(ep) => ep,
        Err(e) => {
            let _ = writeln!(out, "error: --to: {e}");
            return 2;
        }
    };
    let file = match std::fs::File::open(&cfg.file) {
        Ok(f) => f,
        Err(e) => {
            let _ = writeln!(out, "error: cannot open {}: {e}", cfg.file);
            return 1;
        }
    };
    let mut reader = match CaptureReader::new(file) {
        Ok(r) => r,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            return 1;
        }
    };
    let stream = cfg.stream.clone().unwrap_or_else(|| {
        Path::new(&cfg.file)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "capture".to_string())
    });
    let verdict = match ingest_capture(
        &endpoint,
        &stream,
        cfg.engine.level,
        cfg.engine.mem_budget.unwrap_or(0),
        &mut reader,
    ) {
        Ok(v) => v,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            return 1;
        }
    };
    if cfg.json {
        let _ = writeln!(out, "{}", verdict.to_json());
    } else {
        let _ = writeln!(
            out,
            "stream {}: {} — {} traces, {} committed, {} violations",
            verdict.stream, verdict.status, verdict.traces, verdict.committed, verdict.violations
        );
        if verdict.quarantined_traces > 0 || verdict.demoted_reads > 0 {
            let _ = writeln!(
                out,
                "coverage: {} traces quarantined, {} reads demoted",
                verdict.quarantined_traces, verdict.demoted_reads
            );
        }
        let _ = writeln!(
            out,
            "verdict: {}",
            if verdict.clean && verdict.complete {
                "CLEAN"
            } else if verdict.clean {
                "CLEAN (incomplete coverage)"
            } else {
                "VIOLATIONS"
            }
        );
    }
    if verdict.clean && verdict.complete && verdict.status == "ok" {
        0
    } else {
        3
    }
}

/// `leopard soak`: hammer a running daemon with concurrent streams over
/// the real wire under seeded chaos (connection cuts, torn frames,
/// duplicated frames, stalls) and check that every stream still
/// converges to a clean, complete verdict.
pub fn soak(cfg: &SoakCliConfig, out: &mut dyn Write) -> i32 {
    let endpoint = match Endpoint::parse(&cfg.to) {
        Ok(ep) => ep,
        Err(e) => {
            let _ = writeln!(out, "error: --to: {e}");
            return 2;
        }
    };
    let mut opts = SoakOptions::new(endpoint);
    opts.streams = cfg.streams;
    opts.workload = cfg.workload.clone();
    opts.txns = cfg.txns;
    opts.clients = cfg.clients;
    opts.level = cfg.level;
    opts.seed = cfg.seed;
    opts.chaos = ChaosPlan {
        seed: cfg.seed ^ 0xC4A5_0A7E,
        kill_prob: cfg.kill_prob,
        dup_prob: cfg.dup_prob,
        stall_prob: cfg.stall_prob,
        stall: Duration::from_millis(cfg.stall_ms),
        ..ChaosPlan::none()
    };
    opts.retry = RetryPolicy::with_backoff(
        cfg.retry_attempts,
        Duration::from_millis(cfg.retry_backoff_ms),
    )
    .with_jitter(cfg.retry_jitter);
    opts.max_reconnect_attempts = cfg.retry_attempts;
    let report = run_soak(&opts);
    report.render(out);
    let _ = writeln!(
        out,
        "soak: {} stream(s), {} fault(s) injected",
        report.outcomes.len(),
        report.total_faults()
    );
    if report.all_clean() {
        let _ = writeln!(out, "verdict: CLEAN");
        0
    } else {
        let _ = writeln!(out, "verdict: DEGRADED");
        3
    }
}

/// `leopard catalog`: print the Fig. 1 table.
pub fn catalog(out: &mut dyn Write) -> i32 {
    let _ = writeln!(
        out,
        "{:<38} {:<16} {:<4} {:>3} {:>7} {:>4} {:>6}",
        "DBMS", "CC", "IL", "ME", "CR", "FUW", "SC"
    );
    for profile in leopard_core::catalog() {
        for (level, m) in &profile.levels {
            let _ = writeln!(
                out,
                "{:<38} {:<16} {:<4} {:>3} {:>7} {:>4} {:>6}",
                profile.name,
                profile.concurrency_control,
                level.to_string(),
                if m.mutual_exclusion { "x" } else { "" },
                match m.consistent_read {
                    Some(leopard_core::SnapshotLevel::Transaction) => "x(txn)",
                    Some(leopard_core::SnapshotLevel::Statement) => "x(stmt)",
                    None => "",
                },
                if m.first_updater_wins { "x" } else { "" },
                match m.certifier {
                    Some(leopard_core::CertifierRule::SsiDangerousStructure) => "SSI",
                    Some(leopard_core::CertifierRule::MvtoTimestampOrder) => "MVTO",
                    Some(leopard_core::CertifierRule::AcyclicGraph) => "cycle",
                    None => "",
                },
            );
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{RecordConfig, VerifyConfig};
    use leopard_core::IsolationLevel;
    use leopard_db::FaultKind;

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("leopard_cli_{name}_{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn record_then_verify_clean_round_trip() {
        let path = tmp("clean");
        let mut out = Vec::new();
        let code = record(
            &RecordConfig {
                workload: "blindw-rw".to_string(),
                threads: 2,
                txns: 50,
                out: path.clone(),
                ..RecordConfig::default()
            },
            &mut out,
        );
        assert_eq!(code, 0, "{}", String::from_utf8_lossy(&out));

        let mut out = Vec::new();
        let code = verify(
            &VerifyConfig {
                file: path.clone(),
                ..VerifyConfig::default()
            },
            &mut out,
        );
        let text = String::from_utf8_lossy(&out);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("CLEAN"));

        let mut out = Vec::new();
        let code = lint_history(
            &LintHistoryConfig {
                file: path.clone(),
                json: false,
            },
            &mut out,
        );
        let text = String::from_utf8_lossy(&out);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("preflight: clean"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn faulty_recording_fails_verification() {
        let path = tmp("faulty");
        let mut out = Vec::new();
        // PhantomExtraVersion resurrects a long-overwritten version in a
        // range read; the stale version is certainly garbage for the
        // snapshot, so detection does not depend on thread timing.
        let code = record(
            &RecordConfig {
                workload: "blindw-rw+".to_string(),
                level: IsolationLevel::RepeatableRead,
                threads: 4,
                txns: 400,
                scale: 1,
                fault: Some(FaultKind::PhantomExtraVersion),
                fault_prob: 0.20,
                seed: 9,
                out: path.clone(),
            },
            &mut out,
        );
        assert_eq!(code, 0);

        let mut out = Vec::new();
        let code = verify(
            &VerifyConfig {
                file: path.clone(),
                engine: EngineArgs {
                    level: IsolationLevel::RepeatableRead,
                    ..EngineArgs::default()
                },
                ..VerifyConfig::default()
            },
            &mut out,
        );
        let text = String::from_utf8_lossy(&out);
        assert_eq!(code, 3, "{text}");
        assert!(text.contains("VIOLATIONS"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn verify_missing_file_fails_cleanly() {
        let mut out = Vec::new();
        let code = verify(
            &VerifyConfig {
                file: "/nonexistent/definitely/missing.jsonl".to_string(),
                ..VerifyConfig::default()
            },
            &mut out,
        );
        assert_eq!(code, 1);
    }

    #[test]
    fn verify_refuses_broken_history_unless_skipped() {
        use leopard_core::{CaptureHeader, CaptureWriter, TraceBuilder, CAPTURE_VERSION};

        // A history with a phantom read (H006): value 777 never written.
        let mut b = TraceBuilder::new();
        b.read(10, 12, 0, 1, vec![(1, 777)]);
        b.commit(13, 15, 0, 1);
        let header = CaptureHeader {
            version: CAPTURE_VERSION,
            description: "hand-built broken history".to_string(),
            preload: vec![],
        };
        let path = tmp("broken");
        let file = std::fs::File::create(&path).unwrap();
        let mut writer = CaptureWriter::new(file, &header).unwrap();
        for trace in b.build() {
            writer.write(&trace).unwrap();
        }
        writer.finish().unwrap();

        let base = VerifyConfig {
            file: path.clone(),
            ..VerifyConfig::default()
        };
        let mut out = Vec::new();
        let code = verify(&base, &mut out);
        let text = String::from_utf8_lossy(&out);
        assert_eq!(code, 4, "{text}");
        assert!(text.contains("H006"));
        assert!(text.contains("refusing to verify"));

        let mut out = Vec::new();
        let code = verify(
            &VerifyConfig {
                skip_preflight: true,
                ..base
            },
            &mut out,
        );
        let text = String::from_utf8_lossy(&out);
        assert_ne!(code, 4, "{text}");
        assert!(text.contains("preflight: skipped"));

        let mut out = Vec::new();
        let code = lint_history(
            &LintHistoryConfig {
                file: path.clone(),
                json: true,
            },
            &mut out,
        );
        let text = String::from_utf8_lossy(&out);
        assert_eq!(code, 3, "{text}");
        assert!(text.contains("\"H006\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn oracle_matrix_agrees_and_writes_corpus() {
        let dir = std::env::temp_dir().join(format!("leopard_oracle_cmd_{}", std::process::id()));
        let mut out = Vec::new();
        let code = oracle(
            &crate::args::OracleConfig {
                out_dir: Some(dir.to_string_lossy().into_owned()),
                ..crate::args::OracleConfig::default()
            },
            &mut out,
        );
        let text = String::from_utf8_lossy(&out);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("all cells agree"), "{text}");
        for name in [
            "base.jsonl",
            "write-skew.jsonl",
            "matrix.json",
            "manifest.json",
        ] {
            assert!(dir.join(name).is_file(), "{name} missing");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oracle_json_output_is_parseable() {
        let mut out = Vec::new();
        let code = oracle(
            &crate::args::OracleConfig {
                json: true,
                ..crate::args::OracleConfig::default()
            },
            &mut out,
        );
        let text = String::from_utf8_lossy(&out);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("\"all_ok\":true"), "{text}");
        let mut out = Vec::new();
        assert_eq!(
            oracle(
                &crate::args::OracleConfig {
                    workload: "nope".to_string(),
                    ..crate::args::OracleConfig::default()
                },
                &mut out,
            ),
            2
        );
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let mut out = Vec::new();
        let code = record(
            &RecordConfig {
                workload: "nope".to_string(),
                ..RecordConfig::default()
            },
            &mut out,
        );
        assert_eq!(code, 2);
    }

    #[test]
    fn chaos_run_terminates_with_degraded_coverage() {
        let mut out = Vec::new();
        let code = chaos(
            &crate::args::ChaosConfig {
                threads: 3,
                txns: 60,
                kill_prob: 0.15,
                drop_prob: 0.05,
                dup_prob: 0.05,
                ..crate::args::ChaosConfig::default()
            },
            &mut out,
        );
        let text = String::from_utf8_lossy(&out);
        assert_eq!(code, 0, "chaos run must stay clean: {text}");
        assert!(text.contains("verdict: CLEAN"), "{text}");
        assert!(text.contains("coverage: DEGRADED"), "{text}");
    }

    #[test]
    fn chaos_json_summary_is_emitted() {
        let mut out = Vec::new();
        let code = chaos(
            &crate::args::ChaosConfig {
                threads: 2,
                txns: 30,
                json: true,
                ..crate::args::ChaosConfig::default()
            },
            &mut out,
        );
        let text = String::from_utf8_lossy(&out);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("\"clean\":true"), "{text}");
        assert!(text.contains("\"killed\":"), "{text}");
        assert!(text.contains("\"retries\":"), "{text}");
        let mut out = Vec::new();
        assert_eq!(
            chaos(
                &crate::args::ChaosConfig {
                    workload: "nope".to_string(),
                    ..crate::args::ChaosConfig::default()
                },
                &mut out,
            ),
            2
        );
    }

    #[test]
    fn verify_json_reports_peak_memory_and_budget_counters() {
        let path = tmp("budget_json");
        let mut out = Vec::new();
        let code = record(
            &RecordConfig {
                workload: "blindw-rw".to_string(),
                threads: 2,
                txns: 60,
                out: path.clone(),
                ..RecordConfig::default()
            },
            &mut out,
        );
        assert_eq!(code, 0);

        // A tight budget forces GC but must not change the verdict.
        let mut out = Vec::new();
        let code = verify(
            &VerifyConfig {
                file: path.clone(),
                json: true,
                engine: EngineArgs {
                    mem_budget: Some(8 * 1024),
                    ..EngineArgs::default()
                },
                ..VerifyConfig::default()
            },
            &mut out,
        );
        let text = String::from_utf8_lossy(&out);
        assert_eq!(code, 0, "{text}");
        // JSON mode emits exactly one line: the summary object.
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.contains("\"clean\":true"), "{text}");
        assert!(text.contains("\"peak_bytes\":"), "{text}");
        assert!(text.contains("\"forced_gcs\":"), "{text}");
        assert!(text.contains("\"shed_traces\":"), "{text}");
        assert!(text.contains("\"budget_evictions\":"), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn chaos_with_mem_budget_stays_clean_and_reports_resources() {
        let mut out = Vec::new();
        let code = chaos(
            &crate::args::ChaosConfig {
                threads: 2,
                txns: 40,
                engine: EngineArgs {
                    mem_budget: Some(256 * 1024),
                    ..EngineArgs::default()
                },
                ..crate::args::ChaosConfig::default()
            },
            &mut out,
        );
        let text = String::from_utf8_lossy(&out);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("resources: peak"), "{text}");
        assert!(text.contains("verdict: CLEAN"), "{text}");
    }

    #[test]
    fn verify_with_observability_writes_metrics_whether_or_not_it_succeeds() {
        let path = tmp("obs_cap");
        let metrics = tmp("obs_metrics");
        let mut out = Vec::new();
        let code = record(
            &RecordConfig {
                workload: "blindw-rw".to_string(),
                threads: 2,
                txns: 50,
                out: path.clone(),
                ..RecordConfig::default()
            },
            &mut out,
        );
        assert_eq!(code, 0);

        let mut out = Vec::new();
        let code = verify(
            &VerifyConfig {
                file: path.clone(),
                json: true,
                engine: EngineArgs {
                    metrics_out: Some(metrics.clone()),
                    ..EngineArgs::default()
                },
                ..VerifyConfig::default()
            },
            &mut out,
        );
        let text = String::from_utf8_lossy(&out);
        assert_eq!(code, 0, "{text}");
        // The summary stays a single line with the obs block spliced in.
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.contains("\"obs\":{"), "{text}");
        assert!(text.contains("leopard_ops_ingested_total"), "{text}");

        let prom = std::fs::read_to_string(&metrics).unwrap();
        assert!(prom.contains("# TYPE leopard_ops_ingested_total counter"));
        assert!(prom.contains("leopard_dispatch_latency_us_bucket{le=\"+Inf\"}"));

        // A run that dies on its checkpoint is the one whose metrics are
        // wanted: exit 1, and the file is there all the same.
        std::fs::remove_file(&metrics).unwrap();
        let mut out = Vec::new();
        let code = verify(
            &VerifyConfig {
                file: path.clone(),
                json: true,
                engine: EngineArgs {
                    metrics_out: Some(metrics.clone()),
                    checkpoint: Some(format!("{}/ckpt", tmp("obs_no_such_dir"))),
                    ..EngineArgs::default()
                },
                ..VerifyConfig::default()
            },
            &mut out,
        );
        let text = String::from_utf8_lossy(&out);
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("error: cannot checkpoint"), "{text}");
        let prom = std::fs::read_to_string(&metrics).unwrap();
        assert!(prom.contains("# TYPE leopard_ops_ingested_total counter"));

        leopard_core::obs::set_enabled(false);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&metrics);
    }

    #[test]
    fn verify_checkpoint_then_resume_agrees() {
        let path = tmp("ckpt_cap");
        let ckpt = tmp("ckpt_state");
        let mut out = Vec::new();
        let code = record(
            &RecordConfig {
                workload: "blindw-rw".to_string(),
                threads: 2,
                txns: 40,
                out: path.clone(),
                ..RecordConfig::default()
            },
            &mut out,
        );
        assert_eq!(code, 0);

        // Full pass writing intermediate + final checkpoints.
        let mut out = Vec::new();
        let code = verify(
            &VerifyConfig {
                file: path.clone(),
                engine: EngineArgs {
                    checkpoint: Some(ckpt.clone()),
                    checkpoint_every: Some(50),
                    ..EngineArgs::default()
                },
                ..VerifyConfig::default()
            },
            &mut out,
        );
        let full = String::from_utf8_lossy(&out).into_owned();
        assert_eq!(code, 0, "{full}");
        assert!(full.contains("checkpoint written"), "{full}");

        // Resuming from the *final* checkpoint re-ingests nothing and must
        // reach the same verdict.
        let mut out = Vec::new();
        let code = verify(
            &VerifyConfig {
                file: path.clone(),
                resume: Some(ckpt.clone()),
                ..VerifyConfig::default()
            },
            &mut out,
        );
        let resumed = String::from_utf8_lossy(&out);
        assert_eq!(code, 0, "{resumed}");
        assert!(resumed.contains("resumed from"), "{resumed}");
        assert!(resumed.contains("verdict: CLEAN"), "{resumed}");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&ckpt);
    }

    #[test]
    fn degraded_verify_tolerates_broken_history() {
        use leopard_core::{CaptureHeader, CaptureWriter, TraceBuilder, CAPTURE_VERSION};

        // H006 phantom read: value 777 never written. Plain verify refuses
        // (exit 4); --degraded quarantines/demotes and stays clean.
        let mut b = TraceBuilder::new();
        b.read(10, 12, 0, 1, vec![(1, 777)]);
        b.commit(13, 15, 0, 1);
        let header = CaptureHeader {
            version: CAPTURE_VERSION,
            description: "degraded tolerance".to_string(),
            preload: vec![],
        };
        let path = tmp("degraded");
        let file = std::fs::File::create(&path).unwrap();
        let mut writer = CaptureWriter::new(file, &header).unwrap();
        for trace in b.build() {
            writer.write(&trace).unwrap();
        }
        writer.finish().unwrap();

        let mut out = Vec::new();
        let code = verify(
            &VerifyConfig {
                file: path.clone(),
                engine: EngineArgs {
                    degraded: true,
                    ..EngineArgs::default()
                },
                ..VerifyConfig::default()
            },
            &mut out,
        );
        let text = String::from_utf8_lossy(&out);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("continuing in degraded mode"), "{text}");
        assert!(text.contains("coverage: DEGRADED"), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn catalog_prints_all_profiles() {
        let mut out = Vec::new();
        assert_eq!(catalog(&mut out), 0);
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("PostgreSQL"));
        assert!(text.contains("CockroachDB"));
        assert!(text.contains("MVTO"));
    }
}

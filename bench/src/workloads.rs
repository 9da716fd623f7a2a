//! The four workloads: set-up (inputs, reference verdicts, canary), one
//! repetition of each against a fresh child process, and the checks that
//! every repetition's verdict equals the reference.

use crate::inputs::{self, Manifest, Path as ProductPath, Verdict, Workload, LEVEL};
use crate::proc::{Launcher, Usage};
use leopard_core::wire::read_frame;
use leopard_core::{
    Backpressure, Endpoint, Frame, FrameDecoder, OnlineLeopard, OnlineOptions, RejectReason,
    StreamVerdict, VerifierConfig,
};
use leopard_oracle::Capture;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `--mem-budget` of `audit_spill`: a quarter of the bytes the same capture
/// peaks at unconstrained (542 944 at seed 42, and about as much at any
/// size, since the preloaded rows dominate it), frozen so that a change to
/// the verifier's footprint cannot move its own goalposts.
pub const SPILL_BUDGET: u64 = 136_000;

/// Streams `serve_2stream` feeds concurrently: one per core.
pub const STREAMS: usize = 2;

/// `leopard serve`'s default `--checkpoint-every`.
pub const SERVE_CHECKPOINT_EVERY: u64 = 512;

/// Where things are and how big the run is.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The `leopard` binary under test.
    pub leopard: PathBuf,
    /// How children are started and measured; also this benchmark's own
    /// binary, for its `worker` mode.
    pub launcher: Launcher,
    /// Scratch directory of this invocation.
    pub dir: PathBuf,
    /// One repetition, inputs divided by 20.
    pub smoke: bool,
}

/// What a child reports about its own run: the fields of `leopard verify
/// --json` the benchmark reads, which the `worker` mode prints too.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ChildReport {
    /// Traces verified.
    pub traces: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Violations reported.
    pub violations: u64,
    /// No violation found.
    pub clean: bool,
    /// Coverage is complete: nothing evicted, quarantined or demoted.
    pub complete: bool,
    /// High-water mark of estimated state bytes.
    pub peak_bytes: u64,
    /// High-water mark of retained entries.
    pub peak_entries: u64,
    /// GC passes forced by the budget.
    pub forced_gcs: u64,
    /// Pipeline flushes forced by the budget.
    pub forced_dispatches: u64,
    /// Traces shed.
    pub shed_traces: u64,
    /// Clients evicted by the budget.
    pub budget_evictions: u64,
    /// Spill passes.
    pub spill_passes: u64,
    /// Records paged out.
    pub spilled_records: u64,
    /// Records faulted back in.
    pub spill_faults: u64,
    /// Spill passes abandoned to memory.
    pub spill_fallbacks: u64,
    /// Traces quarantined as ill-formed.
    pub quarantined_traces: u64,
}

impl ChildReport {
    fn verdict(&self) -> Verdict {
        Verdict {
            clean: self.clean,
            traces: self.traces,
            committed: self.committed,
            violations: self.violations,
        }
    }
}

/// One generated input on disk with everything needed to check runs of it.
#[derive(Debug)]
pub struct Prepared {
    /// The workload this input belongs to.
    pub workload: Workload,
    /// The capture in memory.
    pub capture: Capture,
    /// Its encoding on disk.
    pub input: PathBuf,
    /// Trace and Bye frames, for workloads that send them over a socket.
    pub wire_body: Vec<u8>,
    /// What every run must report.
    pub reference: Verdict,
    /// Identity of the input.
    pub manifest: Manifest,
    /// Seconds the generator took.
    pub gen_s: f64,
    /// Seconds the whole set-up took.
    pub setup_s: f64,
}

fn io_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

fn path_str(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| (*s).to_string()).collect()
}

/// The last non-empty line a child printed, parsed as its report.
fn parse_report(usage: &Usage) -> Result<ChildReport, String> {
    let line = usage
        .stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed nothing")?;
    serde_json::from_str(line).map_err(|e| format!("child report `{line}`: {e}"))
}

/// Generates, encodes and writes a workload's input, computes the reference
/// verdict with the in-process sequential verifier, and proves on the canary
/// that the binary under test still finds violations.
pub fn setup(ctx: &Ctx, w: Workload, seed: u64) -> Result<Prepared, String> {
    let t0 = Instant::now();
    let spec = w.spec(seed, ctx.smoke);
    let (capture, gen_s) = inputs::generate(&spec)?;
    let (bytes, wire_body, ext) = if w.path.reads_jsonl() {
        (capture.to_jsonl(), Vec::new(), "jsonl")
    } else {
        let body = inputs::wire_body(&capture);
        let mut all = inputs::hello(&capture, w.name);
        all.extend_from_slice(&body);
        (all, body, "frames")
    };
    let input = ctx.dir.join(format!("{}.{ext}", w.name));
    std::fs::write(&input, &bytes).map_err(|e| io_err("write input", e))?;

    let reference = Verdict::of(&inputs::verify_sequential(&capture, w.verifier_config()));
    if !reference.clean || reference.traces != capture.traces.len() as u64 {
        return Err(format!(
            "{}: seed {seed} does not generate a clean capture ({reference:?})",
            w.name
        ));
    }
    check_canary(ctx, seed)?;

    let manifest = Manifest {
        spec: capture.header.description.clone(),
        traces: reference.traces,
        committed: reference.committed,
        bytes: bytes.len() as u64,
        hash: format!("{:016x}", inputs::fxhash(&bytes)),
    };
    Ok(Prepared {
        workload: w,
        capture,
        input,
        wire_body,
        reference,
        manifest,
        gen_s,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

/// `leopard verify canary.jsonl --level sr` must exit 3 with exactly the
/// violations the in-process verifier finds.
fn check_canary(ctx: &Ctx, seed: u64) -> Result<(), String> {
    let canary = inputs::canary(seed)?;
    let want = Verdict::of(&inputs::verify_sequential(
        &canary,
        VerifierConfig::for_level(LEVEL),
    ));
    if want.violations == 0 {
        return Err("canary: the reference verifier finds no violation".to_string());
    }
    let path = ctx.dir.join("canary.jsonl");
    std::fs::write(&path, canary.to_jsonl()).map_err(|e| io_err("write canary", e))?;
    let args = strings(&["verify", &path_str(&path), "--level", "sr", "--json"]);
    let usage = ctx
        .launcher
        .run(&ctx.leopard, &args)
        .map_err(|e| io_err("run leopard on the canary", e))?;
    let got = parse_report(&usage)?.verdict();
    if usage.exit_code != 3 || got != want {
        return Err(format!(
            "canary: leopard exited {} with {got:?}, want exit 3 with {want:?}",
            usage.exit_code
        ));
    }
    Ok(())
}

/// One repetition of a workload.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// First input byte to verdict, seconds.
    pub wall_s: f64,
    /// Child user plus system CPU seconds.
    pub cpu_s: f64,
    /// Child peak resident set, MiB.
    pub rss_mb: f64,
    /// Traces offered.
    pub attempted: u64,
    /// Traces shed, quarantined or rejected; all of them on a wrong verdict.
    pub failed: u64,
    /// Why the repetition counts as failed, if it does.
    pub error: Option<String>,
    /// What the child reported.
    pub report: ChildReport,
    /// Bye sent to Verdict received, milliseconds (`serve_2stream`).
    pub tail_ms: f64,
    /// Streams the daemon rejected (`serve_2stream`).
    pub rejected: u64,
    /// Streams the daemon quarantined (`serve_2stream`).
    pub quarantined: u64,
    /// Bytes left in the spill directory (`audit_spill`).
    pub disk_bytes: u64,
}

impl Rep {
    /// Fills in `failed` and `error` by comparing against the reference.
    fn judge(mut self, want_exit: i32, exit: i32, reference: &Verdict, per_stream: u64) -> Rep {
        let mut want = *reference;
        want.traces *= per_stream;
        want.committed *= per_stream;
        let got = self.report.verdict();
        if exit != want_exit || got != want || !self.report.complete {
            self.error = Some(format!(
                "exit {exit} (want {want_exit}), verdict {got:?} complete={} (want {want:?})",
                self.report.complete
            ));
            self.failed = self.attempted;
        } else {
            self.failed = self.report.shed_traces + self.report.quarantined_traces;
        }
        self
    }
}

/// The repetition of a child that read one copy of the input, printed its
/// report and exited.
fn one_shot_rep(prep: &Prepared, usage: &Usage) -> Result<Rep, String> {
    let rep = Rep {
        wall_s: usage.wall_s,
        cpu_s: usage.cpu_s,
        rss_mb: usage.peak_rss_mb,
        attempted: prep.reference.traces,
        report: parse_report(usage)?,
        ..Rep::default()
    };
    Ok(rep.judge(0, usage.exit_code, &prep.reference, 1))
}

/// Runs one repetition of `prep`'s workload against a fresh child.
pub fn run_rep(ctx: &Ctx, prep: &Prepared) -> Result<Rep, String> {
    match prep.workload.path {
        ProductPath::Audit => audit(ctx, prep, &[]),
        ProductPath::AuditSpill => audit_spill(ctx, prep),
        ProductPath::Online => online(ctx, prep),
        ProductPath::Serve => serve(ctx, prep, None),
    }
}

/// `leopard verify <capture> --level sr --json` plus `extra` flags.
pub fn audit(ctx: &Ctx, prep: &Prepared, extra: &[String]) -> Result<Rep, String> {
    let mut args = strings(&["verify", &path_str(&prep.input), "--level", "sr", "--json"]);
    args.extend_from_slice(extra);
    let usage = ctx
        .launcher
        .run(&ctx.leopard, &args)
        .map_err(|e| io_err("run leopard verify", e))?;
    one_shot_rep(prep, &usage)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The audit under a quarter of the memory it needs, spilling to disk.
fn audit_spill(ctx: &Ctx, prep: &Prepared) -> Result<Rep, String> {
    let spill = ctx.dir.join("spill");
    let _ = std::fs::remove_dir_all(&spill);
    let mut rep = audit(
        ctx,
        prep,
        &[
            "--mem-budget".to_string(),
            SPILL_BUDGET.to_string(),
            "--spill-dir".to_string(),
            path_str(&spill),
        ],
    )?;
    rep.disk_bytes = dir_bytes(&spill);
    let _ = std::fs::remove_dir_all(&spill);
    Ok(rep)
}

/// The bench binary's `worker` mode as the child: the library path.
fn online(ctx: &Ctx, prep: &Prepared) -> Result<Rep, String> {
    let args = strings(&[
        "worker",
        &path_str(&prep.input),
        &prep.workload.clients.to_string(),
        &prep.workload.skew_bound.to_string(),
    ]);
    let usage = ctx
        .launcher
        .run(&ctx.launcher.bench, &args)
        .map_err(|e| io_err("run worker", e))?;
    one_shot_rep(prep, &usage)
}

/// The `worker` child: streams wire frames from `frames` in 64 KiB chunks
/// through an incremental decoder into the online Tracer→Verifier chain,
/// one `ClientHandle` per recorded client, and prints a [`ChildReport`].
pub fn worker(frames: &Path, clients: usize, skew_bound: u64) -> Result<(), String> {
    let mut file = std::fs::File::open(frames).map_err(|e| io_err("open frames", e))?;
    let mut dec = FrameDecoder::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut chain = None;
    loop {
        let n = file
            .read(&mut chunk)
            .map_err(|e| io_err("read frames", e))?;
        if n == 0 {
            break;
        }
        dec.extend(&chunk[..n]);
        while let Some(frame) = dec.next_frame().map_err(|e| io_err("decode", e))? {
            match (frame, &chain) {
                (Frame::Hello(h), None) => {
                    let mut cfg = VerifierConfig::for_level(h.level);
                    cfg.clock_skew_bound = skew_bound;
                    let opts = OnlineOptions {
                        backpressure: Backpressure::Blocking(4096),
                        ..OnlineOptions::default()
                    };
                    chain = Some(OnlineLeopard::start_opts(clients, cfg, opts, h.preload));
                }
                (Frame::Trace(tf), Some((_, handles))) => {
                    let handle = handles
                        .get(tf.trace.client.0 as usize)
                        .ok_or("trace from a client beyond --clients")?;
                    handle.record(tf.trace);
                }
                (Frame::Bye { .. }, Some(_)) => {}
                (other, _) => return Err(format!("unexpected frame {other:?}")),
            }
        }
    }
    dec.finish().map_err(|e| io_err("decode", e))?;
    let (leopard, handles) = chain.ok_or("no Hello frame")?;
    drop(handles);
    let (outcome, stats) = leopard.finish_with_stats();
    let budget = &outcome.counters.budget;
    let report = ChildReport {
        traces: outcome.counters.traces,
        committed: outcome.counters.committed,
        violations: outcome.report.violations.len() as u64,
        clean: outcome.report.is_clean(),
        complete: outcome.coverage.is_complete(),
        peak_bytes: budget.peak_bytes,
        peak_entries: budget.peak_entries,
        forced_gcs: budget.forced_gcs,
        forced_dispatches: budget.forced_dispatches,
        shed_traces: budget.shed_traces + stats.shed_traces + stats.late_dropped,
        budget_evictions: budget.budget_evictions,
        spill_passes: budget.spill_passes,
        spilled_records: budget.spilled_records,
        spill_faults: budget.spill_faults,
        spill_fallbacks: budget.spill_fallbacks,
        quarantined_traces: outcome.coverage.quarantined_traces,
    };
    println!(
        "{}",
        serde_json::to_string(&report).map_err(|e| io_err("print report", e))?
    );
    Ok(())
}

/// What one sender thread saw.
struct StreamRun {
    done: Instant,
    tail_ms: f64,
    outcome: Result<StreamVerdict, RejectReason>,
}

/// Hello, the pre-encoded traces, Bye; then waits for the Verdict frame.
fn send_stream(endpoint: &Endpoint, hello: &[u8], body: &[u8]) -> Result<StreamRun, String> {
    let mut sock = endpoint.connect().map_err(|e| io_err("connect", e))?;
    sock.write_all(hello).map_err(|e| io_err("send hello", e))?;
    sock.flush().map_err(|e| io_err("send hello", e))?;
    match read_frame(&mut sock).map_err(|e| io_err("read ack", e))? {
        Some(Frame::Ack { resume_from: 0 }) => {}
        Some(Frame::Reject { reason, .. }) => {
            return Ok(StreamRun {
                done: Instant::now(),
                tail_ms: 0.0,
                outcome: Err(reason),
            })
        }
        other => return Err(format!("expected Ack, got {other:?}")),
    }
    sock.write_all(body).map_err(|e| io_err("send traces", e))?;
    sock.flush().map_err(|e| io_err("send traces", e))?;
    let bye = Instant::now();
    let outcome = match read_frame(&mut sock).map_err(|e| io_err("read verdict", e))? {
        Some(Frame::Verdict { json }) => Ok(StreamVerdict::from_json(&json)?),
        Some(Frame::Reject { reason, .. }) => Err(reason),
        other => return Err(format!("expected Verdict, got {other:?}")),
    };
    let done = Instant::now();
    Ok(StreamRun {
        done,
        tail_ms: (done - bye).as_secs_f64() * 1e3,
        outcome,
    })
}

/// A fresh `leopard serve` daemon at product defaults (or with
/// `--checkpoint-every` overridden), [`STREAMS`] concurrent sender threads,
/// then SIGTERM, which the daemon must answer with exit 130.
pub fn serve(ctx: &Ctx, prep: &Prepared, checkpoint_every: Option<u64>) -> Result<Rep, String> {
    let dir = ctx.dir.join("serve");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| io_err("create serve dir", e))?;
    let listen = format!("unix:{}", path_str(&dir.join("in.sock")));
    let endpoint = Endpoint::parse(&listen)?;
    let mut args = strings(&[
        "serve",
        "--listen",
        &listen,
        "--dir",
        &path_str(&dir.join("ckpt")),
    ]);
    if let Some(every) = checkpoint_every {
        args.extend(["--checkpoint-every".to_string(), every.to_string()]);
    }
    let mut daemon = ctx
        .launcher
        .spawn(&ctx.leopard, &args)
        .map_err(|e| io_err("spawn leopard serve", e))?;
    let banner = daemon
        .read_line()
        .map_err(|e| io_err("read serve banner", e))?;
    if !banner.starts_with("serving on") {
        return Err(format!("leopard serve did not start: `{}`", banner.trim()));
    }

    let hellos: Vec<Vec<u8>> = (0..STREAMS)
        .map(|i| inputs::hello(&prep.capture, &format!("s{i}")))
        .collect();
    let t0 = Instant::now();
    let runs: Vec<Result<StreamRun, String>> = std::thread::scope(|scope| {
        let senders: Vec<_> = hellos
            .iter()
            .map(|hello| scope.spawn(|| send_stream(&endpoint, hello, &prep.wire_body)))
            .collect();
        senders
            .into_iter()
            .map(|s| {
                s.join()
                    .unwrap_or_else(|_| Err("sender panicked".to_string()))
            })
            .collect()
    });
    daemon.terminate();
    let usage = daemon.wait().map_err(|e| io_err("reap leopard serve", e))?;
    let _ = std::fs::remove_dir_all(&dir);

    let mut rep = Rep {
        cpu_s: usage.cpu_s,
        rss_mb: usage.peak_rss_mb,
        attempted: prep.reference.traces * STREAMS as u64,
        report: ChildReport {
            clean: true,
            complete: true,
            ..ChildReport::default()
        },
        ..Rep::default()
    };
    let mut tails = Vec::new();
    for run in runs {
        let run = run?;
        rep.wall_s = rep.wall_s.max((run.done - t0).as_secs_f64());
        match run.outcome {
            Ok(v) => {
                tails.push(run.tail_ms);
                rep.report.traces += v.traces;
                rep.report.committed += v.committed;
                rep.report.violations += v.violations;
                rep.report.clean &= v.clean;
                rep.report.complete &= v.complete && v.status == "ok";
                rep.report.quarantined_traces += v.quarantined_traces;
            }
            Err(RejectReason::Quarantined) => rep.quarantined += 1,
            Err(_) => rep.rejected += 1,
        }
    }
    rep.tail_ms = crate::metrics::median(&tails);
    Ok(rep.judge(130, usage.exit_code, &prep.reference, STREAMS as u64))
}

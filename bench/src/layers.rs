//! The traced run: a staged replay of one workload's input through each
//! layer's public functions, in this process, with one span per layer call.
//!
//! Spans are recorded here, around the calls into the product, and written
//! out when the replay ends; spans inside the product are a later change.
//! A span's `blocking` field says how many times that call sits on the
//! workload's blocking path (0: measured for reference only), which is what
//! `trace.coverage` sums: Σ blocking × self time ÷ untraced wall (the best
//! repetition's, as in `traces_per_s`). Calls are sampled [`SAMPLES`] times
//! and the fastest sample stands for the layer, for the reason the
//! end-to-end metrics report the best repetition (`metrics::Metric`).

use crate::inputs::{self, Path, Verdict, LEVEL};
use crate::metrics::{self, median, Better};
use crate::workloads::{
    self, ChildReport, Ctx, Prepared, Rep, SERVE_CHECKPOINT_EVERY, SPILL_BUDGET, STREAMS,
};
use leopard_core::serve::stream_config;
use leopard_core::{
    Backpressure, CaptureReader, ChannelTracer, Checkpoint, DepCounts, Frame, FrameDecoder,
    MechanismSet, MemBudget, PipelineConfig, PipelineStats, PreflightAnalyzer, PreflightConfig,
    SnapshotLevel, SpillSettings, SpillTier, Trace, TwoLevelPipeline, Verifier, VerifierConfig,
    VerifyOutcome,
};
use leopard_db::{Database, DbConfig};
use leopard_workloads::{bundled_workload, preload_database, run_collect, RunLimit};
use serde::Serialize;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Samples per layer call; the fastest is the layer's time.
const SAMPLES: usize = 3;

/// One layer call.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// `layer.call`.
    pub name: String,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Microseconds since the replay started.
    pub start_us: f64,
    /// Microseconds since the replay started.
    pub end_us: f64,
    /// Times this call occurs on the workload's blocking path; 0 for calls
    /// measured for reference and for all but the fastest sample of a call.
    pub blocking: f64,
}

/// The spans of one traced run, as written to `trace-<workload>.json`.
#[derive(Debug, Serialize)]
pub struct SpanLog {
    /// The workload replayed.
    pub workload: String,
    /// Every span, in start order.
    pub spans: Vec<Span>,
}

/// Records spans in memory while the replay runs.
struct Recorder {
    spans: Vec<Span>,
    t0: Instant,
    open: Vec<usize>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            spans: Vec::new(),
            t0: Instant::now(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span nested under the innermost open one, off the
    /// blocking path, and returns its result with the seconds it took.
    fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
            blocking: 0.0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_us = self.now_us();
        self.spans[id].end_us = end_us;
        (out, (end_us - start_us) / 1e6)
    }

    /// Runs `f` [`SAMPLES`] times, one span each, and returns the fastest
    /// sample's result and seconds. Only that sample, with the spans nested
    /// in it, carries the `blocking` weight.
    fn sample<T>(
        &mut self,
        name: &str,
        blocking: f64,
        mut f: impl FnMut(&mut Recorder) -> T,
    ) -> (T, f64) {
        let mut best: Option<(usize, T, f64)> = None;
        for _ in 0..SAMPLES {
            let id = self.spans.len();
            let (out, s) = self.time(name, &mut f);
            if best.as_ref().is_none_or(|(_, _, b)| s < *b) {
                best = Some((id, out, s));
            }
        }
        let (id, out, s) = best.expect("SAMPLES is not zero");
        for (i, span) in self.spans.iter_mut().enumerate() {
            if i == id || span.parent == Some(id) {
                span.blocking = blocking;
            }
        }
        (out, s)
    }

    /// A span's duration minus the part its child spans cover, in seconds.
    fn self_time_s(&self, id: usize) -> f64 {
        let dur = |s: &Span| s.end_us - s.start_us;
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(dur)
            .sum();
        (dur(&self.spans[id]) - children) / 1e6
    }

    /// Σ blocking × self time over all spans, in seconds.
    fn blocking_path_s(&self) -> f64 {
        (0..self.spans.len())
            .map(|id| self.spans[id].blocking * self.self_time_s(id))
            .sum()
    }
}

/// The per-layer metrics of one traced run, by name.
pub type Values = Vec<(&'static str, f64)>;

fn push_all<const N: usize>(out: &mut Values, names: [&'static str; N], values: [f64; N]) {
    out.extend(names.into_iter().zip(values));
}

const NONE: MechanismSet = MechanismSet {
    consistent_read: None,
    mutual_exclusion: false,
    first_updater_wins: false,
    certifier: None,
};

/// The state of one staged replay.
struct Replay<'a> {
    ctx: &'a Ctx,
    prep: &'a Prepared,
    reps: &'a [Rep],
    /// Wall seconds of the best untraced repetition.
    wall: f64,
    log: Recorder,
    out: Values,
}

/// How often a call sits on the blocking path: `times` if `cond`.
fn on(cond: bool, times: f64) -> f64 {
    if cond {
        times
    } else {
        0.0
    }
}

/// The fastest of some wall times.
fn best(seconds: &[f64]) -> f64 {
    metrics::best(Better::Lower, seconds)
}

/// Preloads, replays every trace, finishes (in a nested span); returns the
/// outcome with the seconds `finish` took.
fn replay(log: &mut Recorder, prep: &Prepared, mut v: Verifier) -> (VerifyOutcome, f64) {
    for &(k, val) in &prep.capture.header.preload {
        v.preload(k, val);
    }
    for t in &prep.capture.traces {
        v.process(t);
    }
    log.time("verify.finish", |_| v.finish())
}

impl Replay<'_> {
    fn is(&self, path: Path) -> bool {
        self.prep.workload.path == path
    }

    fn traces(&self) -> f64 {
        self.prep.capture.traces.len() as f64
    }

    /// The JSONL codec. An audit decodes the file twice: preflight, verify.
    fn capture(&mut self) -> Result<(), String> {
        let cap = &self.prep.capture;
        let audit = self.prep.workload.path.reads_jsonl();
        let (jsonl, encode_s) = self.log.time("capture.encode", |_| cap.to_jsonl());
        let (decoded, decode_s) = self.log.sample("capture.decode", on(audit, 2.0), |_| {
            let mut reader = CaptureReader::new(&jsonl[..]).map_err(|e| e.to_string())?;
            let mut count = 0usize;
            while let Some(t) = reader.next_trace().map_err(|e| e.to_string())? {
                black_box(&t);
                count += 1;
            }
            Ok::<usize, String>(count)
        });
        if decoded? != cap.traces.len() {
            return Err("capture.decode lost traces".to_string());
        }
        let bytes_per_trace = jsonl.len() as f64 / self.traces();
        push_all(
            &mut self.out,
            [
                "capture.encode_s",
                "capture.decode_s",
                "capture.bytes_per_trace",
            ],
            [encode_s, decode_s, bytes_per_trace],
        );
        Ok(())
    }

    fn preflight(&mut self) {
        let cap = &self.prep.capture;
        let audit = self.prep.workload.path.reads_jsonl();
        let (report, observe_s) = self.log.sample("preflight.observe", on(audit, 1.0), |_| {
            PreflightAnalyzer::analyze(
                PreflightConfig::default(),
                cap.header.preload.iter().copied(),
                cap.traces.iter(),
            )
        });
        push_all(
            &mut self.out,
            ["preflight.observe_s", "preflight.diagnostics"],
            [observe_s, report.diagnostics.len() as f64],
        );
    }

    /// The wire codec, decoded incrementally in 64 KiB chunks as the online
    /// worker and the daemon do.
    fn wire(&mut self) -> Result<(), String> {
        let cap = &self.prep.capture;
        let framed = !self.prep.workload.path.reads_jsonl();
        let (frames, encode_s) = self.log.time("wire.encode", |_| {
            let mut bytes = inputs::hello(cap, "replay");
            bytes.extend_from_slice(&inputs::wire_body(cap));
            bytes
        });
        let ((decoded, errors), decode_s) = self.log.sample("wire.decode", on(framed, 1.0), |_| {
            let mut dec = FrameDecoder::new();
            let (mut count, mut errors) = (0usize, 0u64);
            'chunks: for chunk in frames.chunks(64 * 1024) {
                dec.extend(chunk);
                loop {
                    match dec.next_frame() {
                        Ok(Some(Frame::Trace(tf))) => {
                            black_box(&tf);
                            count += 1;
                        }
                        Ok(Some(_)) => {}
                        Ok(None) => break,
                        Err(_) => {
                            errors += 1;
                            break 'chunks;
                        }
                    }
                }
            }
            (count, errors + u64::from(dec.finish().is_err()))
        });
        if decoded != cap.traces.len() {
            return Err("wire.decode lost traces".to_string());
        }
        let bytes_per_trace = frames.len() as f64 / self.traces();
        push_all(
            &mut self.out,
            [
                "wire.encode_s",
                "wire.decode_s",
                "wire.bytes_per_trace",
                "wire.decode_errors",
            ],
            [encode_s, decode_s, bytes_per_trace, errors as f64],
        );
        Ok(())
    }

    /// The two-level pipeline on its own thread's terms (`push_drain`, what
    /// the online collector does between channel reads) and behind the
    /// per-client channels with one feeder thread (`channel`).
    fn pipeline(&mut self) -> Result<(), String> {
        let cap = &self.prep.capture;
        let clients = self.prep.workload.clients;
        let online = self.is(Path::Online);
        // The pipeline takes traces by value; the copies are made up front
        // so that no sample times a clone.
        let mut copies: Vec<Vec<Trace>> = (0..2 * SAMPLES).map(|_| cap.traces.clone()).collect();
        let mut owned = move || copies.pop().expect("one copy per sample");
        let (stats, push_drain_s) = self
            .log
            .sample("pipeline.push_drain", on(online, 1.0), |_| {
                let owned = owned();
                let mut p = TwoLevelPipeline::new(clients, PipelineConfig::default());
                let mut batch = Vec::new();
                for (i, t) in owned.into_iter().enumerate() {
                    let client = t.client.0 as usize;
                    p.push(client, t).map_err(|e| e.to_string())?;
                    if i % 256 == 255 {
                        p.drain_available(&mut batch);
                        black_box(&batch);
                        batch.clear();
                    }
                }
                for c in 0..clients {
                    p.close(c).map_err(|e| e.to_string())?;
                }
                p.drain_available(&mut batch);
                black_box(&batch);
                Ok::<PipelineStats, String>(p.stats())
            });
        let stats = stats?;
        if stats.dispatched != cap.traces.len() as u64 {
            return Err("pipeline.push_drain lost traces".to_string());
        }
        let (chan, channel_s) = self.log.sample("pipeline.channel", 0.0, |_| {
            let owned = owned();
            let (tracer, handles) = ChannelTracer::with_backpressure(
                clients,
                PipelineConfig::default(),
                Backpressure::Blocking(4096),
            );
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    for t in owned {
                        handles[t.client.0 as usize].record(t);
                    }
                });
                tracer.run_to_completion(|t| {
                    black_box(t);
                })
            })
        });
        push_all(
            &mut self.out,
            [
                "pipeline.push_drain_s",
                "pipeline.channel_s",
                "pipeline.peak_buffered",
                "pipeline.late_dropped",
                "pipeline.shed",
            ],
            [
                push_drain_s,
                channel_s,
                stats.max_total_buffered.max(chan.max_total_buffered) as f64,
                (stats.late_dropped + chan.late_dropped) as f64,
                (stats.shed_traces + chan.shed_traces) as f64,
            ],
        );
        Ok(())
    }

    /// Times a full replay under one mechanism set.
    fn replay_with(&mut self, name: &str, set: MechanismSet) -> f64 {
        let prep = self.prep;
        let mut cfg = VerifierConfig::for_mechanisms(set);
        cfg.clock_skew_bound = prep.workload.skew_bound;
        self.log
            .sample(name, 0.0, |log| replay(log, prep, Verifier::new(cfg)))
            .1
    }

    /// One verifier replay per mechanism set (the Fig. 11 breakdown), then
    /// the full replay every workload's blocking path runs, except where the
    /// same code goes through the disk tier instead. Returns its outcome.
    fn verify(&mut self) -> Result<VerifyOutcome, String> {
        let prep = self.prep;
        let sr = MechanismSet::postgres(LEVEL);
        let only = [
            MechanismSet {
                consistent_read: Some(SnapshotLevel::Transaction),
                ..NONE
            },
            MechanismSet {
                mutual_exclusion: true,
                ..NONE
            },
            MechanismSet {
                first_updater_wins: true,
                ..NONE
            },
        ];
        let none_s = self.replay_with("verify.none", NONE);
        let cr_s = self.replay_with("verify.cr", only[0]);
        let me_s = self.replay_with("verify.me", only[1]);
        let fuw_s = self.replay_with("verify.fuw", only[2]);
        let no_sc = MechanismSet {
            certifier: None,
            ..sr
        };
        let no_sc_s = self.replay_with("verify.no_sc", no_sc);
        // Without GC the state only grows, which takes ten times as long on
        // the long-transaction input: one sample.
        let mut gc_off = prep.workload.verifier_config();
        gc_off.gc = false;
        let gc_off_s = self
            .log
            .time("verify.gc_off", |log| {
                replay(log, prep, Verifier::new(gc_off))
            })
            .1;
        let on_path = on(!self.is(Path::AuditSpill), 1.0);
        let ((outcome, finish_s), full_s) = self.log.sample("verify.full", on_path, |log| {
            replay(log, prep, Verifier::new(prep.workload.verifier_config()))
        });
        if Verdict::of(&outcome) != prep.reference {
            return Err("verify.full disagrees with the reference verdict".to_string());
        }
        let stats = outcome.stats;
        let deps = |f: fn(&DepCounts) -> u64| (f(&stats.ww) + f(&stats.wr) + f(&stats.rw)) as f64;
        push_all(
            &mut self.out,
            [
                "verify.none_s",
                "verify.cr_s",
                "verify.me_s",
                "verify.fuw_s",
                "verify.no_sc_s",
                "verify.full_s",
                "verify.sc_marginal_s",
                "verify.gc_off_s",
                "verify.finish_s",
                "verify.committed",
                "verify.aborted",
                "verify.violations",
                "verify.deps_certain",
                "verify.deps_deduced",
                "verify.deps_uncertain",
                "verify.peak_state_bytes",
                "verify.peak_entries",
            ],
            [
                none_s,
                cr_s,
                me_s,
                fuw_s,
                no_sc_s,
                full_s,
                full_s - no_sc_s,
                gc_off_s,
                finish_s,
                outcome.counters.committed as f64,
                outcome.counters.aborted as f64,
                outcome.report.violations.len() as f64,
                deps(|d| d.certain),
                deps(|d| d.deduced),
                deps(|d| d.uncertain),
                outcome.counters.budget.peak_bytes as f64,
                outcome.counters.budget.peak_entries as f64,
            ],
        );
        Ok(outcome)
    }

    fn report(&mut self, outcome: &VerifyOutcome) {
        let (_, render_s) = self.log.sample("report.render", 0.0, |_| {
            black_box(format!("{}\n{}", outcome.stats, outcome.report));
        });
        self.out.push(("report.render_s", render_s));
    }

    /// Each step of a checkpoint at the stream's mid-state (`serve_2stream`).
    /// Per checkpoint the daemon calls `checkpoint()` and then `write()`,
    /// which encodes, writes, fsyncs, renames and fsyncs the directory; the
    /// separately measured encode is taken out of `checkpoint.write_s` to
    /// leave the durable write alone. Decode and restore are on no
    /// workload's path yet; the stub JSON parser makes decode too slow to
    /// sample more than once.
    fn checkpoint(&mut self) -> Result<(), String> {
        let mut values = [0.0; 7];
        if self.is(Path::Serve) {
            let cap = &self.prep.capture;
            let mut v = Verifier::new(stream_config(LEVEL, 0));
            for &(k, val) in &cap.header.preload {
                v.preload(k, val);
            }
            for t in &cap.traces[..cap.traces.len() / 2] {
                v.process(t);
            }
            // Per stream: one image per 512 traces and one at Bye. The
            // streams run side by side, so one stream's checkpoints block.
            let count = cap.traces.len() as u64 / SERVE_CHECKPOINT_EVERY + 1;
            let path = self.ctx.dir.join("sample.ckpt");
            let (image, image_s) = self
                .log
                .sample("checkpoint.image", count as f64, |_| v.checkpoint());
            let (json, encode_s) = self
                .log
                .sample("checkpoint.encode", 0.0, |_| image.to_json());
            let (written, write_s) = self
                .log
                .sample("checkpoint.write", count as f64, |_| image.write(&path));
            written.map_err(|e| e.to_string())?;
            let (decoded, decode_s) = self
                .log
                .time("checkpoint.decode", |_| Checkpoint::from_json(&json));
            let decoded = decoded.map_err(|e| e.to_string())?;
            let (restored, restore_s) = self.log.sample("checkpoint.restore", 0.0, |_| {
                Verifier::from_checkpoint(&decoded).map(|_| ())
            });
            restored.map_err(|e| e.to_string())?;
            values = [
                image_s,
                encode_s,
                (write_s - encode_s).max(0.0),
                decode_s,
                restore_s,
                json.len() as f64,
                (count * STREAMS as u64) as f64,
            ];
        }
        push_all(
            &mut self.out,
            [
                "checkpoint.image_s",
                "checkpoint.encode_s",
                "checkpoint.write_s",
                "checkpoint.decode_s",
                "checkpoint.restore_s",
                "checkpoint.bytes",
                "checkpoint.count",
            ],
            values,
        );
        Ok(())
    }

    /// The daemon with checkpoints off, against the measured repetitions.
    fn serve(&mut self) -> Result<(), String> {
        let mut values = [0.0; 5];
        if self.is(Path::Serve) {
            let mut nockpt = Vec::new();
            for _ in 0..SAMPLES {
                let rep = workloads::serve(self.ctx, self.prep, Some(1 << 40))?;
                if let Some(e) = rep.error {
                    return Err(format!("serve without checkpoints: {e}"));
                }
                nockpt.push(rep.wall_s);
            }
            let reps = self.reps;
            values = [
                best(&nockpt),
                1.0 - best(&nockpt) / self.wall,
                median(&reps.iter().map(|r| r.tail_ms).collect::<Vec<_>>()),
                reps.iter().map(|r| r.rejected).sum::<u64>() as f64,
                reps.iter().map(|r| r.quarantined).sum::<u64>() as f64,
            ];
        }
        push_all(
            &mut self.out,
            [
                "serve.nockpt_wall_s",
                "serve.checkpoint_share",
                "serve.tail_ms",
                "serve.rejected",
                "serve.quarantined",
            ],
            values,
        );
        Ok(())
    }

    /// The verifier through the disk tier (`audit_spill`): the span is an
    /// in-process replay under the same budget; the counters come from the
    /// last measured child's `--json` and its spill directory.
    fn store(&mut self) -> Result<(), String> {
        let mut values = [0.0; 9];
        if self.is(Path::AuditSpill) {
            let prep = self.prep;
            let mut unconstrained = Vec::new();
            let mut peak_bytes = 0;
            for _ in 0..SAMPLES {
                let rep = workloads::audit(self.ctx, prep, &[])?;
                if let Some(e) = rep.error {
                    return Err(format!("unconstrained audit: {e}"));
                }
                unconstrained.push(rep.wall_s);
                peak_bytes = rep.report.peak_bytes;
            }
            let dir = self.ctx.dir.join("spill-replay");
            let (spilled, _) = self.log.sample("store.verify", 1.0, |log| {
                let _ = std::fs::remove_dir_all(&dir);
                let mut cfg = prep.workload.verifier_config();
                cfg.mem_budget = MemBudget::bytes(SPILL_BUDGET);
                let mut v = Verifier::new(cfg);
                let tier = SpillTier::open(&SpillSettings::new(&dir)).map_err(|e| e.to_string())?;
                v.attach_spill(tier);
                Ok::<_, String>(replay(log, prep, v).0)
            });
            let _ = std::fs::remove_dir_all(&dir);
            if Verdict::of(&spilled?) != prep.reference {
                return Err("store.verify disagrees with the reference verdict".to_string());
            }
            let last = self.reps.last().ok_or("no repetition measured")?;
            let r = &last.report;
            values = [
                best(&unconstrained),
                self.wall / best(&unconstrained),
                r.spill_passes as f64,
                r.spilled_records as f64,
                r.spill_faults as f64,
                r.spill_fallbacks as f64,
                last.disk_bytes as f64,
                last.disk_bytes as f64 / peak_bytes as f64,
                r.peak_bytes as f64 / SPILL_BUDGET as f64,
            ];
        }
        push_all(
            &mut self.out,
            [
                "store.unconstrained_s",
                "store.slowdown",
                "store.spill_passes",
                "store.spilled_records",
                "store.spill_faults",
                "store.spill_fallbacks",
                "store.disk_bytes",
                "store.write_amp",
                "store.peak_over_budget",
            ],
            values,
        );
        Ok(())
    }

    /// What the overload ladder did in the measured children.
    fn budget(&mut self) {
        let reps = self.reps;
        let sum =
            |f: fn(&ChildReport) -> u64| reps.iter().map(|r| f(&r.report)).sum::<u64>() as f64;
        push_all(
            &mut self.out,
            [
                "budget.forced_gcs",
                "budget.forced_dispatches",
                "budget.evictions",
                "budget.shed_traces",
            ],
            [
                sum(|r| r.forced_gcs),
                sum(|r| r.forced_dispatches),
                sum(|r| r.budget_evictions),
                sum(|r| r.shed_traces),
            ],
        );
    }

    /// The same audit with the metrics registry recording, in alternating
    /// pairs with the plain one (`audit_smallbank`).
    fn obs(&mut self) -> Result<(), String> {
        let mut overhead_pct = 0.0;
        if self.is(Path::Audit) {
            let metrics = self.ctx.dir.join("metrics.prom");
            let flag = [
                "--metrics-out".to_string(),
                metrics.to_string_lossy().into_owned(),
            ];
            let (mut plain, mut recording) = (Vec::new(), Vec::new());
            for _ in 0..self.reps.len().clamp(1, 5) {
                for (extra, walls) in [(&[][..], &mut plain), (&flag[..], &mut recording)] {
                    let rep = workloads::audit(self.ctx, self.prep, extra)?;
                    if let Some(e) = rep.error {
                        return Err(format!("audit for obs.overhead_pct: {e}"));
                    }
                    walls.push(rep.wall_s);
                }
            }
            overhead_pct = (best(&recording) / best(&plain) - 1.0) * 100.0;
        }
        self.out.push(("obs.overhead_pct", overhead_pct));
        Ok(())
    }

    /// How fast the substrate produces what is verified (Fig. 12).
    fn db(&mut self) -> Result<(), String> {
        let w = self.prep.workload;
        let smoke = self.ctx.smoke;
        let txns = (w.clients as u64 * w.spec(0, smoke).txns_per_client) as f64;
        let live_for = Duration::from_secs_f64(if smoke { 0.2 } else { 2.0 });
        let (live, _) = self.log.time("db.live", |_| {
            let (proto, gens) = bundled_workload(w.source, 1, 2)?;
            let db = Database::new(DbConfig::at(LEVEL));
            preload_database(&db, proto.as_ref());
            Ok::<_, String>(run_collect(&db, gens, RunLimit::Duration(live_for), 1).stats)
        });
        let live_txn_per_s = live?.throughput();
        let streams = if self.is(Path::Serve) { STREAMS } else { 1 } as f64;
        let verified_txn_per_s = self.prep.reference.committed as f64 * streams / self.wall;
        push_all(
            &mut self.out,
            ["db.gen_txn_per_s", "db.live_txn_per_s", "pace_ratio"],
            [
                txns / self.prep.gen_s,
                live_txn_per_s,
                verified_txn_per_s / live_txn_per_s,
            ],
        );
        Ok(())
    }
}

/// Runs the staged replay for `prep`'s workload. `reps` are the untraced
/// repetitions already measured; the best one's wall is the denominator of
/// `trace.coverage`.
pub fn traced_run(ctx: &Ctx, prep: &Prepared, reps: &[Rep]) -> Result<(Values, SpanLog), String> {
    let mut r = Replay {
        ctx,
        prep,
        reps,
        wall: best(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
        log: Recorder::new(),
        out: Vec::new(),
    };
    r.capture()?;
    r.preflight();
    r.wire()?;
    r.pipeline()?;
    let outcome = r.verify()?;
    r.report(&outcome);
    r.checkpoint()?;
    r.serve()?;
    r.store()?;
    r.budget();
    r.obs()?;
    r.db()?;
    r.out
        .push(("trace.coverage", r.log.blocking_path_s() / r.wall));
    let log = SpanLog {
        workload: prep.workload.name.to_string(),
        spans: r.log.spans,
    };
    Ok((r.out, log))
}

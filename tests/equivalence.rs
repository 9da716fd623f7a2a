//! The one equivalence table: every engine configuration, through the one
//! open → feed → save → finish path, reaches the verdict of the plain
//! engine — or a typed error and no verdict.
//!
//! Rows are [`EngineOpts`] values (plus whether the observability registry
//! records), the garbage collector's cadence among them: off, the default,
//! and after every trace. They are crossed with every
//! `tests/corpus/*.jsonl` capture (and a chaos-degraded copy of the base
//! capture), the four isolation levels, and a kill point — none, or
//! mid-stream: the engine is saved to an image file, dropped, and opened
//! again from the file, as `leopard verify --resume` and a reconnecting
//! `leopard serve` stream do.
//!
//! A cell's reference is the uninterrupted plain run at the same level and
//! the same `degraded` setting (degraded mode is a different question put
//! to the history, not a different engine). Compared: the verdict —
//! report, trace / commit / abort counts, coverage — and, where the row
//! leaves the GC cadence alone (no budget forces passes, no `gc_every`),
//! the deduction statistics and the bytes of the image file at the kill
//! point, so nothing a row switches on leaks into persisted state. The
//! budget and footprint gauges measure the engine's memory topology, not
//! the history, and are left out.
//!
//! Beside the table: what the spill rung may cost when the budget is below
//! anything it can reach (no thrashing).

use leopard::testseed::test_seed;
use leopard_core::obs;
use leopard_core::store::io::FaultSpec;
use leopard_core::{
    engine, Backpressure, CaptureReader, Checkpoint, EngineOpts, FsIo, Interval, IsolationLevel,
    MemBudget, OnlineLeopard, OnlineOptions, OpKind, RetryPolicy, SpillSettings, Timestamp, Trace,
    TraceBuilder, VerifierConfig, VerifyOutcome, Violation,
};
use leopard_oracle::{
    degrade_capture, generate_clean_capture, Capture, CleanRunSpec, DegradeSpec, Schedule, LEVELS,
};
use std::fs::File;
use std::path::{Path, PathBuf};

/// One engine configuration of the table.
#[derive(Clone, Copy)]
struct Row {
    name: &'static str,
    /// Collect after this many traces; 0 switches the collector off.
    gc_every: u64,
    /// A starvation-level budget: a quarter of the plain run's peak.
    budget: bool,
    spill: bool,
    degraded: bool,
    obs: bool,
    /// The spill tier's disk fails a fifth of its reads and is not retried.
    hostile: bool,
    /// The spill tier's disk cuts half of its writes short; the tier goes
    /// on at the residual offset.
    short_writes: bool,
}

const PLAIN: Row = Row {
    name: "plain",
    gc_every: 512,
    budget: false,
    spill: false,
    degraded: false,
    obs: false,
    hostile: false,
    short_writes: false,
};

const BUDGET_SPILL: Row = Row {
    name: "budget+spill",
    budget: true,
    spill: true,
    ..PLAIN
};

/// The two references — the product defaults, plain and degraded — run
/// first.
const ROWS: [Row; 10] = [
    PLAIN,
    Row {
        name: "degraded",
        degraded: true,
        ..PLAIN
    },
    Row {
        name: "gc off",
        gc_every: 0,
        ..PLAIN
    },
    Row {
        name: "gc after every trace",
        gc_every: 1,
        ..PLAIN
    },
    Row {
        name: "budget",
        budget: true,
        ..PLAIN
    },
    BUDGET_SPILL,
    Row {
        name: "obs",
        obs: true,
        ..PLAIN
    },
    Row {
        name: "budget+spill+degraded+obs",
        degraded: true,
        obs: true,
        ..BUDGET_SPILL
    },
    Row {
        name: "budget+spill, failing reads",
        hostile: true,
        ..BUDGET_SPILL
    },
    Row {
        name: "budget+spill, short writes",
        short_writes: true,
        ..BUDGET_SPILL
    },
];

/// Cells (capture, level, row) that do *not* reach the plain verdict, and
/// are pinned as they are until they are fixed. Empty: the one cell it
/// held — `write-skew` at SR under a budget with no spill tier — was GC
/// forgetting a live reader, and is closed.
const KNOWN_GAPS: [(&str, IsolationLevel, &str); 0] = [];

impl Row {
    /// Whether collections run off the default cadence: statistics and
    /// image bytes then differ from the reference's, the verdict may not.
    fn moves_gc(&self) -> bool {
        self.budget || self.gc_every != PLAIN.gc_every
    }

    fn is_reference(&self) -> bool {
        !(self.moves_gc() || self.spill || self.obs)
    }

    fn opts(&self, level: IsolationLevel, plain_peak: u64, dir: &Path) -> EngineOpts {
        let mut verifier = VerifierConfig::for_level(level);
        verifier.degraded = self.degraded;
        verifier.gc = self.gc_every > 0;
        verifier.gc_every = self.gc_every;
        if self.budget {
            // Low enough to force the relief rungs; no rung that costs
            // coverage exists to run (there is no tracer).
            verifier.mem_budget = MemBudget::bytes((plain_peak / 4).max(4096));
        }
        let mut spill = self.spill.then(|| SpillSettings::new(dir.join("tier")));
        if let (Some(settings), true) = (&mut spill, self.hostile) {
            settings.retry = RetryPolicy::none();
            settings.fault = FaultSpec {
                seed: plain_peak,
                read_err_prob: 0.2,
                ..FaultSpec::default()
            };
        }
        if let (Some(settings), true) = (&mut spill, self.short_writes) {
            settings.fault = FaultSpec {
                seed: plain_peak,
                short_write_prob: 0.5,
                ..FaultSpec::default()
            };
        }
        EngineOpts {
            verifier,
            spill,
            checkpoint: Some(dir.join("image.ckpt")),
            checkpoint_every: None,
        }
    }
}

/// Drives one engine over the capture through the one path. With a kill
/// point, the engine is saved there, dropped, and the rest of the stream
/// goes to an engine opened from the image file, whose bytes are returned.
/// `Err` is a typed refusal — from `open`, `feed`, `save` or `finish` —
/// and no verdict.
fn run_cell(
    opts: &EngineOpts,
    cap: &Capture,
    kill: Option<usize>,
) -> Result<(VerifyOutcome, Vec<u8>), String> {
    let feed = |v: &mut leopard_core::Verifier, traces: &[Trace]| {
        traces
            .iter()
            .try_for_each(|t| engine::feed(v, t).map_err(|e| e.to_string()))
    };
    let path = opts.checkpoint.as_deref().expect("rows name an image path");
    let dir = path.parent().expect("image path has a parent");
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("mkdir");

    let opened = engine::open(opts, None, &cap.header.preload).map_err(|e| e.to_string())?;
    assert!(opened.warnings.is_empty(), "{:?}", opened.warnings);
    let mut v = opened.verifier;
    let split = kill.unwrap_or(0);
    feed(&mut v, &cap.traces[..split])?;
    let mut image_file = Vec::new();
    if kill.is_some() {
        engine::save(&v, split as u64, &FsIo, path).map_err(|e| e.to_string())?;
        drop(v); // the process dies here
        image_file = std::fs::read(path).expect("image file");
        let image = Checkpoint::load(&FsIo, path).map_err(|e| e.to_string())?;
        let image = image.expect("the image just saved");
        assert_eq!(image.warning, None);
        let opened = engine::open(opts, Some(image), &[]).map_err(|e| e.to_string())?;
        assert_eq!(opened.cursor, split as u64);
        v = opened.verifier;
    }
    feed(&mut v, &cap.traces[split..])?;
    let outcome = engine::finish(v).map_err(|e| e.to_string())?;
    Ok((outcome, image_file))
}

fn comparable(o: &VerifyOutcome, with_stats: bool) -> String {
    let stats = with_stats.then_some(o.stats);
    format!(
        "{:?}|{stats:?}|{}|{}|{}|{:?}",
        o.report, o.counters.traces, o.counters.committed, o.counters.aborted, o.coverage
    )
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("leopard-equivalence-{tag}-{}", std::process::id()))
}

fn read_capture(path: &Path) -> Capture {
    let reader =
        CaptureReader::new(File::open(path).expect("open capture")).expect("capture header");
    let header = reader.header().clone();
    let traces = reader.map(|t| t.expect("well-formed trace")).collect();
    Capture { header, traces }
}

/// Every corpus capture, plus the base capture with deliveries dropped,
/// duplicated and a client killed (what a chaos run leaves behind).
fn inputs() -> Vec<(String, Capture)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().and_then(|x| x.to_str()) == Some("jsonl"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no corpus captures found");
    let mut inputs = Vec::new();
    for path in files {
        let name = path.file_name().expect("file name").to_string_lossy();
        let capture = read_capture(&path);
        if name == "base.jsonl" {
            let chaos = degrade_capture(&capture, &DegradeSpec::moderate(7));
            inputs.push(("base.jsonl+chaos".to_string(), chaos));
        }
        inputs.push((name.into_owned(), capture));
    }
    inputs
}

/// The table. One test function: the observability registry is
/// process-global, and the rows that switch it on must not overlap.
#[test]
fn every_engine_configuration_reaches_the_plain_verdict() {
    let dir = scratch("table");
    let (mut spilled, mut spilled_in_storm, mut typed, mut hostile_verdicts) = (0, 0, 0, 0);
    obs::set_enabled(false);
    for (fi, (name, cap)) in inputs().iter().enumerate() {
        for (li, level) in LEVELS.iter().enumerate() {
            // The kill point varies from cell to cell.
            let mid = (7 * fi + 3 * li + 1) * cap.traces.len() / (7 * 17 + 3 * 4);
            // Per `degraded`: the reference verdict, and its image at `mid`.
            let mut reference: [Option<(VerifyOutcome, Vec<u8>)>; 2] = [None, None];
            for row in ROWS {
                let is_reference = row.is_reference();
                let slot = usize::from(row.degraded);
                let peak = reference[slot]
                    .as_ref()
                    .map_or(0, |(whole, _)| whole.counters.budget.peak_bytes);
                let opts = row.opts(*level, peak, &dir);
                for kill in [None, Some(mid)] {
                    let what = format!("{name} @ {level:?}, row {}, kill {kill:?}", row.name);
                    if row.obs {
                        obs::reset();
                    }
                    obs::set_enabled(row.obs);
                    let cell = run_cell(&opts, cap, kill);
                    let recorded = obs::snapshot_if_enabled();
                    obs::set_enabled(false);
                    let (mut outcome, image) = match cell {
                        Ok(cell) => cell,
                        // The other legal outcome, of a disk made to fail.
                        Err(_) if row.hostile => {
                            typed += 1;
                            continue;
                        }
                        Err(e) => panic!("{what}: {e}"),
                    };
                    if is_reference && kill.is_none() {
                        reference[slot] = Some((outcome, Vec::new()));
                        continue;
                    }
                    let (whole, image_at_mid) = reference[slot].as_mut().expect("references first");
                    if is_reference {
                        image_at_mid.clone_from(&image);
                    }
                    let b = outcome.counters.budget;
                    if row.hostile {
                        // A tier the disk would not let open, or write to,
                        // is a counted fallback to memory, and coverage
                        // says so.
                        let notes = &mut outcome.coverage.notes;
                        let before = notes.len();
                        notes.retain(|n| !n.starts_with("spill "));
                        assert_eq!(b.spill_fallbacks > 0, notes.len() < before, "{what}");
                        hostile_verdicts += 1;
                    } else {
                        assert_eq!(b.spill_fallbacks, 0, "{what}");
                        spilled += b.spilled_records;
                        if row.short_writes {
                            spilled_in_storm += b.spilled_records;
                        }
                    }
                    if KNOWN_GAPS.contains(&(name.as_str(), *level, row.name)) {
                        assert_ne!(
                            comparable(whole, false),
                            comparable(&outcome, false),
                            "{what}: the gap is closed — take it off KNOWN_GAPS"
                        );
                        continue;
                    }
                    assert_eq!(
                        comparable(whole, !row.moves_gc()),
                        comparable(&outcome, !row.moves_gc()),
                        "{what}: the verdict moved"
                    );
                    assert_eq!(recorded.is_some(), row.obs, "{what}");
                    let ingested = obs::counter_value(obs::Counter::OpsIngested);
                    assert!(
                        !row.obs || ingested > 0,
                        "{what}: the registry recorded nothing"
                    );
                    assert!(
                        kill.is_none() || row.moves_gc() || image == *image_at_mid,
                        "{what}: the image file differs from the plain row's"
                    );
                    assert_eq!(b.budget_evictions, 0, "{what}: spilling pre-empts eviction");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(spilled > 0, "the budget never forced a spill: vacuous rows");
    assert!(
        spilled_in_storm > 0,
        "nothing was written through the short-write storm: a vacuous row"
    );
    assert!(
        typed > 0 && hostile_verdicts > 0,
        "the failing disk should end some cells typed ({typed}) and let some through \
         ({hostile_verdicts})"
    );
}

/// The benchmark's shape — SmallBank over 2 000 preloaded rows at a
/// quarter of the memory the run needs, which is below what the ladder
/// can collect or spill its way down to. The verdict must not move, and
/// the tier must not thrash: passes are batched and re-armed by growth
/// (not one per trace), a record is not spilled to be faulted straight
/// back, and the log stays within a small multiple of what went into it.
#[test]
fn a_budget_below_the_resident_floor_does_not_thrash() {
    let seed = test_seed(0x7445);
    let spec = CleanRunSpec {
        workload: "smallbank".to_string(),
        rows: 2_000,
        clients: 8,
        txns_per_client: 150,
        level: IsolationLevel::Serializable,
        seed,
        tick: 10,
        schedule: Schedule::Interleaved,
    };
    let cap = generate_clean_capture(&spec).expect("clean capture");
    let dir = scratch("thrash");
    let plain = PLAIN.opts(IsolationLevel::Serializable, 0, &dir);
    let (base, _) = run_cell(&plain, &cap, None).expect("a verdict");
    let peak = base.counters.budget.peak_bytes;
    let opts = BUDGET_SPILL.opts(IsolationLevel::Serializable, peak, &dir);
    let budget = opts.verifier.mem_budget.max_bytes;
    assert_eq!(budget, peak / 4);

    let opened = engine::open(&opts, None, &cap.header.preload).expect("opens");
    assert!(opened.warnings.is_empty(), "{:?}", opened.warnings);
    let mut v = opened.verifier;
    for t in &cap.traces {
        engine::feed(&mut v, t).expect("no store fault");
    }
    let tier = v.spill_stats();
    let on_disk: u64 = std::fs::read_dir(dir.join("tier"))
        .expect("spill dir")
        .map(|e| e.expect("entry").metadata().expect("metadata").len())
        .sum();
    let out = engine::finish(v).expect("a verdict");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        comparable(&base, false),
        comparable(&out, false),
        "spilling changed the verdict (seed {seed:#x})"
    );
    let b = out.counters.budget;
    let traces = cap.traces.len() as u64;
    assert!(
        b.peak_bytes > budget,
        "premise: the floor ({}) is above the budget ({budget})",
        b.peak_bytes
    );
    assert!(b.spilled_records > 0, "premise: the tier was used");
    assert!(
        b.spill_passes <= traces / 8,
        "{} spill passes for {traces} traces",
        b.spill_passes
    );
    assert!(
        b.forced_gcs <= traces / 8,
        "{} forced GCs for {traces} traces",
        b.forced_gcs
    );
    assert!(
        b.spill_faults <= b.spilled_records,
        "{} faults for {} records spilled",
        b.spill_faults,
        b.spilled_records
    );
    assert_eq!(
        tier.bytes_on_disk, on_disk,
        "the tier's own account of the directory"
    );
    assert!(
        on_disk <= 4 * tier.record_bytes_out,
        "{on_disk} bytes on disk for {} bytes of records",
        tier.record_bytes_out
    );
}

/// The online rows: every corpus capture through the Tracer→Verifier
/// chain, one [`ClientHandle`](leopard_core::ClientHandle) per capture
/// client, under a hand-off that never waits and one that waits every
/// third trace. The chain re-sorts what the clients hand it and must reach
/// the sequential verdict — except where a client's clock steps backwards:
/// the chain closes that stream at the step, and must say so.
#[test]
fn the_online_chain_reaches_the_sequential_verdict() {
    let dir = scratch("online");
    let mut holes = 0;
    for (name, cap) in inputs() {
        if name.ends_with("+chaos") {
            continue; // the degraded copy is the degraded rows' input
        }
        let clients = cap.traces.iter().map(|t| t.client.0 as usize + 1).max();
        let clients = clients.expect("a capture has traces");
        for level in LEVELS {
            let opts = PLAIN.opts(level, 0, &dir);
            let (sequential, _) = run_cell(&opts, &cap, None).expect("a verdict");
            for backpressure in [Backpressure::Unbounded, Backpressure::Blocking(3)] {
                let what = format!("{name} @ {level:?}, online, {backpressure:?}");
                let online = OnlineOptions {
                    backpressure,
                    ..OnlineOptions::default()
                };
                let (leopard, handles) = OnlineLeopard::start_opts(
                    clients,
                    opts.verifier,
                    online,
                    cap.header.preload.clone(),
                );
                for trace in &cap.traces {
                    handles[trace.client.0 as usize].record(trace.clone());
                }
                drop(handles);
                let (outcome, stats) = leopard.finish_with_stats();
                if name == "corrupt-nonmonotonic-client.jsonl" {
                    let hole = &outcome.coverage;
                    assert!(!hole.is_complete(), "{what}: a silent drop");
                    assert_eq!(hole.evicted_clients.len(), 1, "{what}");
                    assert!(
                        hole.notes.iter().any(|n| n.contains("stream closed")),
                        "{what}: {:?}",
                        hole.notes
                    );
                    let verified = outcome.counters.traces;
                    assert!(stats.shed_traces > 0, "{what}");
                    assert_eq!(
                        verified + stats.shed_traces,
                        cap.traces.len() as u64,
                        "{what}: every trace is verified or counted as shed"
                    );
                    holes += 1;
                } else {
                    assert_eq!(
                        comparable(&sequential, true),
                        comparable(&outcome, true),
                        "{what}: the verdict moved"
                    );
                    assert_eq!(stats.shed_traces + stats.late_dropped, 0, "{what}");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        holes, 8,
        "the clock-regression capture at every level and hand-off"
    );
}

/// Exhaustive over split points: no "lucky k" can hide a state field
/// missing from the image.
#[test]
fn resume_at_every_split_point_of_a_small_capture() {
    let spec = CleanRunSpec {
        workload: "blindw-rw".to_string(),
        rows: 8,
        clients: 2,
        txns_per_client: 4,
        level: IsolationLevel::Serializable,
        seed: 42,
        tick: 10,
        schedule: Schedule::Interleaved,
    };
    let cap = generate_clean_capture(&spec).expect("clean capture");
    let dir = scratch("splits");
    let opts = PLAIN.opts(IsolationLevel::Serializable, 0, &dir);
    let whole_outcome = |kill: Option<usize>| {
        let (outcome, _) = run_cell(&opts, &cap, kill).expect("a verdict");
        format!("{outcome:?}")
    };
    let whole = whole_outcome(None);
    for k in 0..=cap.traces.len() {
        assert_eq!(whole, whole_outcome(Some(k)), "killed after {k} traces");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The SR outcome on `cap` with a collection every `gc_every` traces (0:
/// never), everything else at the product defaults.
fn sr_outcome(cap: &Capture, gc_every: u64, dir: &Path) -> VerifyOutcome {
    let row = Row { gc_every, ..PLAIN };
    let opts = row.opts(IsolationLevel::Serializable, 0, dir);
    run_cell(&opts, cap, None).expect("a verdict").0
}

fn write_skew_capture() -> Capture {
    read_capture(&PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/write-skew.jsonl"))
}

/// A collection landing between two commits must lose no edge between
/// them, wherever it lands: every cadence up to the capture's length.
#[test]
fn write_skew_is_found_at_every_gc_cadence() {
    let cap = write_skew_capture();
    let dir = scratch("gc-sweep");
    let off = sr_outcome(&cap, 0, &dir);
    assert!(!off.report.is_clean(), "{}", off.report);
    for every in 1..=160 {
        assert_eq!(
            comparable(&off, false),
            comparable(&sr_outcome(&cap, every, &dir), false),
            "gc_every = {every}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same at the product default of 512: the capture pushed back until
/// the skew's first commit is the trace a collection follows.
#[test]
fn write_skew_astride_the_default_gc_tick_is_found() {
    let cap = write_skew_capture();
    let dir = scratch("gc-tick");
    let outcome = sr_outcome(&cap, 0, &dir);
    let [Violation::SerializationCertifier { txns, .. }] = outcome.report.violations.as_slice()
    else {
        panic!("one dangerous structure expected: {}", outcome.report);
    };
    let is_skew_commit = |t: &Trace| t.op == OpKind::Commit && txns.contains(&t.txn);
    let first = cap.traces.iter().position(is_skew_commit).expect("commits");
    // One read-only transaction of `pad` traces ahead of everything puts
    // that commit at trace 512.
    let pad = (511 - first % 512) as u64;
    let &(key, value) = cap.header.preload.first().expect("a preloaded row");
    let mut padding = TraceBuilder::new();
    for i in 0..pad - 1 {
        padding.read(
            200 * i + 1,
            200 * i + 100,
            9_999,
            9_999,
            vec![(key.0, value.0)],
        );
    }
    let end = 200 * pad;
    padding.commit(end - 199, end - 100, 9_999, 9_999);
    let mut padded = Capture {
        header: cap.header.clone(),
        traces: padding.build(),
    };
    padded
        .traces
        .extend(cap.traces.iter().cloned().map(|mut t| {
            let Interval { lo, hi } = t.interval;
            t.interval = Interval::new(Timestamp(lo.0 + end), Timestamp(hi.0 + end));
            t
        }));
    assert!(is_skew_commit(&padded.traces[511]) && is_skew_commit(&padded.traces[512]));
    assert_eq!(
        comparable(&sr_outcome(&padded, 0, &dir), false),
        comparable(&sr_outcome(&padded, PLAIN.gc_every, &dir), false),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

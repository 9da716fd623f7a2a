//! End-to-end acceptance tests for `leopard serve`, driving the real
//! binary over the real wire:
//!
//! * kill -9 the daemon mid-stream, restart it on the same checkpoint
//!   directory, replay the capture — the final verdict and the on-disk
//!   checkpoint must be byte-identical to an uninterrupted run — also when
//!   the last durable boundary before the kill was a journal append, not
//!   an image;
//! * a stream whose verifier panics is quarantined into a degraded
//!   verdict while a concurrently-ingesting healthy stream (and every
//!   later stream) is untouched.

use leopard_core::wire::{read_frame, write_frame};
use leopard_core::{
    control_command, ingest_capture, CaptureReader, Endpoint, Frame, Hello, IngestError,
    IsolationLevel, RejectReason, StreamVerdict, TraceFrame, WIRE_VERSION,
};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_leopard"))
}

/// Fresh scratch directory under the target-aware tmp root.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("leopard-serve-{}-{}", tag, std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Records a small SmallBank capture and returns its path.
fn record_capture(dir: &Path) -> PathBuf {
    let out = dir.join("capture.bin");
    let status = bin()
        .args([
            "record",
            "--workload",
            "smallbank",
            "--threads",
            "2",
            "--txns",
            "12",
            "--seed",
            "7",
            "--out",
        ])
        .arg(&out)
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "record failed");
    out
}

struct Daemon {
    child: Child,
    ingest: Endpoint,
    control: Endpoint,
}

impl Daemon {
    /// Spawns `leopard serve` and waits until both endpoints accept.
    fn spawn(dir: &Path, ckpt_dir: &Path, every: u64, env: &[(&str, &str)]) -> Daemon {
        Daemon::spawn_opts(dir, ckpt_dir, every, env, &[])
    }

    /// [`Daemon::spawn`] with extra CLI flags (e.g. `--spill-dir`).
    fn spawn_opts(
        dir: &Path,
        ckpt_dir: &Path,
        every: u64,
        env: &[(&str, &str)],
        extra: &[&str],
    ) -> Daemon {
        fs::create_dir_all(dir).unwrap();
        let ingest_path = dir.join("ingest.sock");
        let control_path = dir.join("control.sock");
        let mut cmd = bin();
        cmd.args([
            "serve",
            "--listen",
            &format!("unix:{}", ingest_path.display()),
            "--control",
            &format!("unix:{}", control_path.display()),
            "--dir",
            &ckpt_dir.display().to_string(),
            "--checkpoint-every",
            &every.to_string(),
        ])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
        for (k, v) in env {
            cmd.env(k, v);
        }
        let child = cmd.spawn().unwrap();
        let ingest = Endpoint::parse(&format!("unix:{}", ingest_path.display())).unwrap();
        let control = Endpoint::parse(&format!("unix:{}", control_path.display())).unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if control_command(&control, "streams").is_ok() {
                break;
            }
            assert!(Instant::now() < deadline, "daemon did not come up");
            std::thread::sleep(Duration::from_millis(25));
        }
        Daemon {
            child,
            ingest,
            control,
        }
    }

    /// Graceful stop through the control endpoint; waits for exit.
    fn shutdown(mut self) {
        let _ = control_command(&self.control, "shutdown");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if self.child.try_wait().unwrap().is_some() {
                return;
            }
            assert!(Instant::now() < deadline, "daemon did not exit");
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// SIGKILL — no flush, no goodbye. The crash the recovery protocol
    /// exists for.
    fn kill9(mut self) {
        self.child.kill().unwrap();
        let _ = self.child.wait();
    }
}

fn ingest_file(
    endpoint: &Endpoint,
    capture: &Path,
    stream: &str,
) -> Result<StreamVerdict, IngestError> {
    let file = fs::File::open(capture).unwrap();
    let mut reader = CaptureReader::new(file).unwrap();
    ingest_capture(
        endpoint,
        stream,
        IsolationLevel::Serializable,
        0,
        &mut reader,
    )
}

#[test]
fn kill_dash_nine_then_restart_matches_uninterrupted_run_byte_for_byte() {
    let base = scratch("kill9");
    let capture = record_capture(&base);

    // Uninterrupted reference run.
    let ref_dir = base.join("ref");
    let d = Daemon::spawn(&base.join("ref-sock"), &ref_dir, 8, &[]);
    let ref_verdict = ingest_file(&d.ingest, &capture, "t").unwrap();
    d.shutdown();
    assert_eq!(ref_verdict.status, "ok");
    assert!(ref_verdict.clean && ref_verdict.complete);
    let ref_ckpt = fs::read(ref_dir.join("t.ckpt")).unwrap();
    let ref_verdict_json = fs::read_to_string(ref_dir.join("t.verdict.json")).unwrap();

    // Interrupted run: stream 20 traces (past two checkpoint boundaries),
    // leave the connection open, and SIGKILL the daemon.
    let kill_dir = base.join("kill");
    let sock_dir = base.join("kill-sock");
    let d = Daemon::spawn(&sock_dir, &kill_dir, 8, &[]);
    {
        let file = fs::File::open(&capture).unwrap();
        let mut reader = CaptureReader::new(file).unwrap();
        let header = reader.header().clone();
        let mut sock = d.ingest.connect().unwrap();
        write_frame(
            &mut sock,
            &Frame::Hello(Hello {
                version: WIRE_VERSION,
                stream: "t".to_string(),
                description: header.description,
                level: IsolationLevel::Serializable,
                mem_budget: 0,
                preload: header.preload,
            }),
        )
        .unwrap();
        sock.flush().unwrap();
        match read_frame(&mut sock).unwrap() {
            Some(Frame::Ack { resume_from }) => assert_eq!(resume_from, 0),
            other => panic!("expected Ack, got {other:?}"),
        }
        for seq in 1..=20u64 {
            let trace = reader
                .next_trace()
                .unwrap()
                .expect("capture has 20+ traces");
            write_frame(&mut sock, &Frame::Trace(TraceFrame { seq, trace })).unwrap();
        }
        sock.flush().unwrap();
        // Wait for durable progress: the first cadence checkpoint (8
        // ingested traces) must be on disk before the crash.
        let ckpt = kill_dir.join("t.ckpt");
        let deadline = Instant::now() + Duration::from_secs(20);
        while !ckpt.exists() {
            assert!(Instant::now() < deadline, "no checkpoint before kill");
            std::thread::sleep(Duration::from_millis(25));
        }
        d.kill9();
        // The connection is dead; drop the socket with the daemon.
    }

    // Restart on the same directory: recovery re-opens the checkpoint,
    // the client replays, and the resume protocol skips what survived.
    let d = Daemon::spawn(&sock_dir, &kill_dir, 8, &[]);
    let streams = control_command(&d.control, "streams").unwrap();
    assert!(
        streams.contains("\"t\""),
        "recovered stream missing from listing: {streams}"
    );
    let verdict = ingest_file(&d.ingest, &capture, "t").unwrap();
    d.shutdown();

    assert_eq!(verdict, ref_verdict, "verdicts diverged after crash");
    let ckpt = fs::read(kill_dir.join("t.ckpt")).unwrap();
    let verdict_json = fs::read_to_string(kill_dir.join("t.verdict.json")).unwrap();
    assert_eq!(ckpt, ref_ckpt, "checkpoint not byte-identical");
    assert_eq!(verdict_json, ref_verdict_json, "verdict not byte-identical");
}

/// Opens stream `t` with the capture's header, asserts the `Ack` cursor,
/// and sends the capture's traces `resume_from + 1 ..= upto` without a
/// `Bye`. The connection is returned open.
fn feed_partial(
    endpoint: &Endpoint,
    capture: &Path,
    expect_resume_from: u64,
    upto: u64,
) -> leopard_core::serve::WireConn {
    let file = fs::File::open(capture).unwrap();
    let mut reader = CaptureReader::new(file).unwrap();
    let header = reader.header().clone();
    let mut sock = endpoint.connect().unwrap();
    write_frame(
        &mut sock,
        &Frame::Hello(Hello {
            version: WIRE_VERSION,
            stream: "t".to_string(),
            description: header.description,
            level: IsolationLevel::Serializable,
            mem_budget: 0,
            preload: header.preload,
        }),
    )
    .unwrap();
    sock.flush().unwrap();
    match read_frame(&mut sock).unwrap() {
        Some(Frame::Ack { resume_from }) => assert_eq!(resume_from, expect_resume_from),
        other => panic!("expected Ack, got {other:?}"),
    }
    for seq in 1..=upto {
        let trace = reader
            .next_trace()
            .unwrap()
            .expect("capture is long enough");
        if seq > expect_resume_from {
            write_frame(&mut sock, &Frame::Trace(TraceFrame { seq, trace })).unwrap();
        }
    }
    sock.flush().unwrap();
    sock
}

/// Polls the `streams` listing until its only stream is in this state
/// with this durable cursor.
fn wait_for_stream(control: &Endpoint, state: &str, cursor: u64) {
    let want = format!("\"state\":\"{state}\",\"ingested\":{cursor}}}");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let streams = control_command(control, "streams").unwrap_or_default();
        if streams.contains(&want) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "stream never became {state} at {cursor}: {streams}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn metric(control: &Endpoint, name: &str) -> u64 {
    let metrics = control_command(control, "metrics").unwrap();
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("{name} missing from /metrics"))
}

/// Kill -9 after a boundary that wrote no image: with `--checkpoint-every
/// 8` the boundary at 8 writes the stream's first image and the boundary
/// at 16 only appends eight frames to the journal. The restart must ack
/// 16 — image cursor plus journal replay — and still converge on the
/// uninterrupted run's bytes.
#[test]
fn kill_dash_nine_after_a_journal_only_boundary_resumes_from_the_journal() {
    let base = scratch("kill9wal");
    let capture = record_capture(&base);

    let ref_dir = base.join("ref");
    let d = Daemon::spawn(&base.join("ref-sock"), &ref_dir, 8, &[]);
    let ref_verdict = ingest_file(&d.ingest, &capture, "t").unwrap();
    d.shutdown();
    let ref_ckpt = fs::read(ref_dir.join("t.ckpt")).unwrap();
    let ref_verdict_json = fs::read_to_string(ref_dir.join("t.verdict.json")).unwrap();

    let kill_dir = base.join("kill");
    let sock_dir = base.join("kill-sock");
    let d = Daemon::spawn(&sock_dir, &kill_dir, 8, &[]);
    let sock = feed_partial(&d.ingest, &capture, 0, 20);
    // The listing shows the durable cursor of a stream that is still
    // being fed; 16 means the second boundary has been synced.
    wait_for_stream(&d.control, "active", 16);
    assert_eq!(metric(&d.control, "leopard_checkpoints_written_total"), 1);
    assert_eq!(metric(&d.control, "leopard_journal_appends_total"), 1);
    d.kill9();
    drop(sock);
    let image = leopard_core::Checkpoint::load(&leopard_core::FsIo, &kill_dir.join("t.ckpt"))
        .unwrap()
        .expect("an image");
    assert_eq!(image.warning, None);
    assert_eq!(
        image.checkpoint.traces_ingested, 8,
        "the only image is the first"
    );

    let d = Daemon::spawn(&sock_dir, &kill_dir, 8, &[]);
    wait_for_stream(&d.control, "idle", 16);
    assert_eq!(
        metric(&d.control, "leopard_journal_replayed_frames_total"),
        0
    );
    // A bare handshake: the Ack must name 16, and getting there replayed
    // the eight journaled frames. Dropping it makes the stream idle again.
    drop(feed_partial(&d.ingest, &capture, 16, 16));
    assert_eq!(
        metric(&d.control, "leopard_journal_replayed_frames_total"),
        8
    );
    wait_for_stream(&d.control, "idle", 16);
    let verdict = ingest_file(&d.ingest, &capture, "t").unwrap();
    d.shutdown();

    assert_eq!(verdict, ref_verdict, "verdicts diverged after crash");
    let ckpt = fs::read(kill_dir.join("t.ckpt")).unwrap();
    let verdict_json = fs::read_to_string(kill_dir.join("t.verdict.json")).unwrap();
    assert_eq!(ckpt, ref_ckpt, "checkpoint not byte-identical");
    assert_eq!(verdict_json, ref_verdict_json, "verdict not byte-identical");
    assert!(
        !kill_dir.join("t.wal").exists(),
        "a finished stream keeps no journal"
    );
}

/// Counts segment files in a stream's spill-tier directory.
fn spill_segments(dir: &Path) -> usize {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("lps"))
                .count()
        })
        .unwrap_or(0)
}

/// Kill -9 while the stream's verifier is actively spilling cold state
/// to disk: restart on the same checkpoint + spill directories, replay
/// the capture, and the verdict must be byte-identical to an
/// uninterrupted spilling run — no lost records, no degraded coverage.
#[test]
fn kill_dash_nine_mid_spill_recovers_byte_identical_verdicts() {
    let base = scratch("kill9spill");
    let capture = record_capture(&base);
    // Tight enough that the spill rung fires on this capture, loose
    // enough that the coverage-costing rungs below it never run.
    const BUDGET: u64 = 24 * 1024;

    // Uninterrupted spilling reference run.
    let ref_dir = base.join("ref");
    let ref_spill = base.join("ref-spill");
    let d = Daemon::spawn_opts(
        &base.join("ref-sock"),
        &ref_dir,
        8,
        &[],
        &["--spill-dir", &ref_spill.display().to_string()],
    );
    let file = fs::File::open(&capture).unwrap();
    let mut reader = CaptureReader::new(file).unwrap();
    let ref_verdict = ingest_capture(
        &d.ingest,
        "t",
        IsolationLevel::Serializable,
        BUDGET,
        &mut reader,
    )
    .unwrap();
    d.shutdown();
    assert_eq!(ref_verdict.status, "ok");
    assert!(
        ref_verdict.clean && ref_verdict.complete,
        "spilling cost coverage: {ref_verdict:?}"
    );
    let ref_verdict_json = fs::read_to_string(ref_dir.join("t.verdict.json")).unwrap();
    assert!(
        spill_segments(&ref_spill.join("t")) > 0,
        "reference run never spilled — the budget is too generous for this capture"
    );

    // Interrupted run: same budget, stream 20 traces past two checkpoint
    // boundaries, confirm the tier has segments on disk, then SIGKILL.
    let kill_dir = base.join("kill");
    let kill_spill = base.join("kill-spill");
    let sock_dir = base.join("kill-sock");
    let spill_flag = kill_spill.display().to_string();
    let d = Daemon::spawn_opts(&sock_dir, &kill_dir, 8, &[], &["--spill-dir", &spill_flag]);
    {
        let file = fs::File::open(&capture).unwrap();
        let mut reader = CaptureReader::new(file).unwrap();
        let header = reader.header().clone();
        let mut sock = d.ingest.connect().unwrap();
        write_frame(
            &mut sock,
            &Frame::Hello(Hello {
                version: WIRE_VERSION,
                stream: "t".to_string(),
                description: header.description,
                level: IsolationLevel::Serializable,
                mem_budget: BUDGET,
                preload: header.preload,
            }),
        )
        .unwrap();
        sock.flush().unwrap();
        match read_frame(&mut sock).unwrap() {
            Some(Frame::Ack { resume_from }) => assert_eq!(resume_from, 0),
            other => panic!("expected Ack, got {other:?}"),
        }
        for seq in 1..=20u64 {
            let trace = reader
                .next_trace()
                .unwrap()
                .expect("capture has 20+ traces");
            write_frame(&mut sock, &Frame::Trace(TraceFrame { seq, trace })).unwrap();
        }
        sock.flush().unwrap();
        // Wait for durable progress: a cadence checkpoint AND spilled
        // segments must both be on disk, so the kill lands mid-spill.
        let ckpt = kill_dir.join("t.ckpt");
        let deadline = Instant::now() + Duration::from_secs(20);
        while !ckpt.exists() || spill_segments(&kill_spill.join("t")) == 0 {
            assert!(
                Instant::now() < deadline,
                "no checkpoint + spill segments before kill"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
        d.kill9();
    }

    // Restart on the same directories: recovery re-opens the checkpoint
    // image AND the spill tier (the checkpoint references spilled
    // record addresses), then the resume protocol skips what survived.
    let d = Daemon::spawn_opts(&sock_dir, &kill_dir, 8, &[], &["--spill-dir", &spill_flag]);
    let streams = control_command(&d.control, "streams").unwrap();
    assert!(
        streams.contains("\"t\""),
        "recovered stream missing from listing: {streams}"
    );
    let file = fs::File::open(&capture).unwrap();
    let mut reader = CaptureReader::new(file).unwrap();
    let verdict = ingest_capture(
        &d.ingest,
        "t",
        IsolationLevel::Serializable,
        BUDGET,
        &mut reader,
    )
    .unwrap();
    d.shutdown();

    assert_eq!(
        verdict, ref_verdict,
        "verdicts diverged after mid-spill crash"
    );
    let verdict_json = fs::read_to_string(kill_dir.join("t.verdict.json")).unwrap();
    assert_eq!(
        verdict_json, ref_verdict_json,
        "verdict JSON not byte-identical after mid-spill crash"
    );
}

#[test]
fn panicking_stream_is_quarantined_without_touching_neighbours() {
    let base = scratch("panic");
    let capture = record_capture(&base);
    let dir = base.join("serve");
    // The injection hook makes the "bad" stream's verifier panic while
    // processing its 5th trace.
    let d = Daemon::spawn(
        &base.join("sock"),
        &dir,
        8,
        &[("LEOPARD_SERVE_PANIC_AT", "bad:5")],
    );

    // A healthy stream ingests concurrently with the panicking one.
    let good = {
        let endpoint = d.ingest.clone();
        let capture = capture.clone();
        std::thread::spawn(move || ingest_file(&endpoint, &capture, "good"))
    };
    let bad = ingest_file(&d.ingest, &capture, "bad");
    match bad {
        Err(IngestError::Rejected { reason, .. }) => {
            assert_eq!(reason, RejectReason::Quarantined);
        }
        other => panic!("expected quarantine rejection, got {other:?}"),
    }
    let good_verdict = good.join().unwrap().unwrap();
    assert_eq!(good_verdict.status, "ok");
    assert!(good_verdict.clean && good_verdict.complete);

    // The daemon survives the panic and serves fresh streams.
    let later = ingest_file(&d.ingest, &capture, "later").unwrap();
    assert!(later.clean && later.complete);

    // The quarantined stream's degraded verdict is on disk and in the
    // stream listing.
    let streams = control_command(&d.control, "streams").unwrap();
    assert!(
        streams.contains("quarantined"),
        "quarantine missing from listing: {streams}"
    );
    let bad_verdict: StreamVerdict =
        StreamVerdict::from_json(&fs::read_to_string(dir.join("bad.verdict.json")).unwrap())
            .unwrap();
    assert_eq!(bad_verdict.status, "quarantined");
    d.shutdown();
}

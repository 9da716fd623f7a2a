//! The `leopard serve` daemon: a long-running, fault-isolated,
//! multi-tenant verification service (DESIGN.md §12).
//!
//! Many concurrent capture streams connect over the binary wire protocol
//! ([`crate::wire`]); each stream gets its own degraded-mode
//! [`Verifier`] on its own connection thread, so one tenant's ill-formed
//! input — or a panic inside its verifier — is quarantined into a
//! degraded verdict without touching its neighbors. Global admission
//! control ([`GlobalAdmission`]) refuses handshakes the shared memory
//! pool cannot cover. Every stream's ingest cursor is made durable every
//! `checkpoint_every` ingested traces and on disconnect, keyed by stream
//! name under the checkpoint directory: a full image of the verifier
//! (`<stream>.ckpt`) now and then, and in between a journal of the wire
//! frames ingested since (`<stream>.wal`, [`crate::store::Journal`]). On
//! restart the daemon re-opens every image it finds and replays its
//! journal, and a reconnecting client is told the resume cursor in the
//! handshake `Ack`, so a `kill -9` mid-stream converges to a final
//! verdict and checkpoint byte-identical to an uninterrupted run.
//!
//! A second (control) endpoint serves the [`crate::obs`] registry's
//! Prometheus exposition and a tiny line protocol: `metrics`, `streams`,
//! `drain` (stop accepting new streams), `shutdown` (flush all stream
//! checkpoints and exit). `GET /metrics` over the same socket answers
//! with a minimal HTTP response, so a stock Prometheus scraper can point
//! at it directly.

use crate::budget::{GlobalAdmission, MemBudget};
use crate::capture::CaptureReader;
use crate::catalog::{IsolationLevel, MechanismSet};
use crate::checkpoint::Checkpoint;
use crate::lockwitness::TrackedMutex;
use crate::obs;
use crate::store::{FsIo, Journal, RetryPolicy, StoreError, StoreIo, StoreResult};
use crate::verify::engine::{self, EngineOpts};
use crate::verify::{Verifier, VerifierConfig};
use crate::wire::{
    read_frame, write_frame, Frame, FrameDecoder, Hello, RejectReason, TraceFrame, WireError,
    WIRE_VERSION,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often blocked socket reads wake up to check the shutdown/drain
/// flags, and how often the accept loops poll.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// An ingest or control endpoint address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP address in `host:port` form.
    Tcp(String),
}

impl Endpoint {
    /// Parses `unix:<path>` or `tcp:<host:port>`.
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix endpoint needs a path: unix:/some/path.sock".to_string());
            }
            Ok(Endpoint::Unix(PathBuf::from(path)))
        } else if let Some(addr) = s.strip_prefix("tcp:") {
            if !addr.contains(':') {
                return Err("tcp endpoint needs host:port: tcp:127.0.0.1:7878".to_string());
            }
            Ok(Endpoint::Tcp(addr.to_string()))
        } else {
            Err(format!(
                "endpoint must start with unix: or tcp: (got {s:?})"
            ))
        }
    }

    /// Connects a client socket to this endpoint.
    pub fn connect(&self) -> std::io::Result<WireConn> {
        match self {
            Endpoint::Unix(path) => Ok(WireConn::Unix(UnixStream::connect(path)?)),
            Endpoint::Tcp(addr) => Ok(WireConn::Tcp(TcpStream::connect(addr.as_str())?)),
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// One bidirectional wire connection (either transport).
#[derive(Debug)]
pub enum WireConn {
    /// Unix-domain socket.
    Unix(UnixStream),
    /// TCP socket.
    Tcp(TcpStream),
}

impl WireConn {
    /// Sets the read timeout (used by the server to poll shutdown flags).
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            WireConn::Unix(s) => s.set_read_timeout(dur),
            WireConn::Tcp(s) => s.set_read_timeout(dur),
        }
    }

    /// Shuts down the write half, signalling end-of-stream to the peer.
    pub fn shutdown_write(&self) -> std::io::Result<()> {
        match self {
            WireConn::Unix(s) => s.shutdown(std::net::Shutdown::Write),
            WireConn::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
        }
    }
}

impl Read for WireConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            WireConn::Unix(s) => s.read(buf),
            WireConn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for WireConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            WireConn::Unix(s) => s.write(buf),
            WireConn::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            WireConn::Unix(s) => s.flush(),
            WireConn::Tcp(s) => s.flush(),
        }
    }
}

enum AnyListener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl AnyListener {
    fn bind(ep: &Endpoint) -> std::io::Result<AnyListener> {
        match ep {
            Endpoint::Unix(path) => {
                // A stale socket file from a killed daemon would fail the
                // bind; remove it first (crash recovery is a feature).
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(AnyListener::Unix(l))
            }
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                Ok(AnyListener::Tcp(l))
            }
        }
    }

    /// Non-blocking accept: `Ok(None)` when no connection is pending.
    fn accept(&self) -> std::io::Result<Option<WireConn>> {
        match self {
            AnyListener::Unix(l) => match l.accept() {
                Ok((s, _)) => Ok(Some(WireConn::Unix(s))),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            AnyListener::Tcp(l) => match l.accept() {
                Ok((s, _)) => Ok(Some(WireConn::Tcp(s))),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Directory holding per-stream checkpoints and verdicts. Created if
    /// missing; scanned for existing checkpoints on startup.
    pub checkpoint_dir: PathBuf,
    /// What every stream's engine is cut from.
    ///
    /// `checkpoint_every`: make each stream's cursor durable every N
    /// ingested traces (also on disconnect and on shutdown) — the frames
    /// since the last boundary are journaled and synced, and a full image
    /// replaces the journal once it has grown to the size of the last
    /// image. Boundaries land on exact multiples of N, so after a kill -9
    /// the `Ack` cursor is at least the last multiple of N the daemon
    /// passed.
    ///
    /// `spill`: disk-spilling backing tier for cold verifier state, one
    /// private subdirectory per stream; `None` (the default) keeps every
    /// stream fully in memory.
    ///
    /// `verifier` and `checkpoint` are per stream — the handshake's level
    /// and budget in degraded mode ([`stream_config`]), and
    /// `<checkpoint_dir>/<stream>.ckpt` — and are not read from here.
    pub engine: EngineOpts,
    /// Global admission pool in bytes (0 = unlimited).
    pub global_budget_bytes: u64,
    /// Retry schedule for stream image and journal writes: transient
    /// I/O failures back off and retry; only repeated failure degrades
    /// the stream.
    pub checkpoint_retry: RetryPolicy,
}

impl ServeOptions {
    /// Options with the default cadence (every 512 traces) and an
    /// unlimited admission pool.
    #[must_use]
    pub fn new(checkpoint_dir: PathBuf) -> ServeOptions {
        ServeOptions {
            checkpoint_dir,
            engine: EngineOpts {
                checkpoint_every: Some(512),
                ..EngineOpts::default()
            },
            global_budget_bytes: 0,
            checkpoint_retry: RetryPolicy::default(),
        }
    }
}

/// Lifecycle of one stream as the registry tracks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamState {
    /// A connection is feeding the stream right now.
    Active,
    /// No live connection; a checkpoint holds the resume cursor.
    Idle,
    /// Finished cleanly; the verdict file is on disk.
    Finished,
    /// Quarantined into a degraded verdict (malformed input or panic).
    Quarantined,
}

impl StreamState {
    /// Lower-case label used in stream listings.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StreamState::Active => "active",
            StreamState::Idle => "idle",
            StreamState::Finished => "finished",
            StreamState::Quarantined => "quarantined",
        }
    }
}

/// One row of the `streams` control listing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamInfo {
    /// Stream (tenant) name from the handshake, as its files spell it
    /// ([`sanitize_stream_name`]).
    pub stream: String,
    /// Isolation level label (`RC`/`RR`/`SI`/`SR`, `-` if unknown).
    pub level: String,
    /// Current state label.
    pub state: String,
    /// Durable cursor: traces ingested and recoverable after a crash. An
    /// active stream advances it at every `checkpoint_every` boundary.
    pub ingested: u64,
}

/// The final verdict document for one stream — written durably next to
/// the stream's checkpoint and returned in the `Verdict` frame. The JSON
/// serialization of this struct is the byte-identity surface of the
/// kill-recovery guarantee.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamVerdict {
    /// Stream name.
    pub stream: String,
    /// Isolation level verified.
    pub level: String,
    /// `"ok"` for a finished verification, `"quarantined"` for a stream
    /// aborted by malformed input or a verifier panic.
    pub status: String,
    /// Traces ingested.
    pub traces: u64,
    /// Committed transactions.
    pub committed: u64,
    /// Violations found.
    pub violations: u64,
    /// True when no violations were found.
    pub clean: bool,
    /// True when coverage is complete (no quarantine/demotion holes).
    pub complete: bool,
    /// Traces quarantined by degraded-mode admission.
    pub quarantined_traces: u64,
    /// Reads demoted to unverifiable in degraded mode.
    pub demoted_reads: u64,
}

impl StreamVerdict {
    /// Serializes to the canonical verdict JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("verdict serializes")
    }

    /// Parses a verdict JSON document.
    pub fn from_json(json: &str) -> Result<StreamVerdict, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

/// One registry row, keyed by the stream's file stem
/// ([`sanitize_stream_name`]) — the key its files have, so two names that
/// share files are one stream here too.
#[derive(Clone)]
struct StreamEntry {
    stem: String,
    level: String,
    state: StreamState,
    ingested: u64,
}

struct Shared {
    opts: ServeOptions,
    admission: GlobalAdmission,
    streams: TrackedMutex<Vec<StreamEntry>>,
    draining: AtomicBool,
    shutdown: AtomicBool,
    active_conns: AtomicUsize,
}

impl Shared {
    fn update_stream(&self, stem: &str, level: &str, state: StreamState, ingested: u64) {
        let mut streams = self.streams.lock();
        if let Some(e) = streams.iter_mut().find(|e| e.stem == stem) {
            e.state = state;
            e.ingested = ingested;
            if level != "-" {
                e.level = level.to_string();
            }
        } else {
            streams.push(StreamEntry {
                stem: stem.to_string(),
                level: level.to_string(),
                state,
                ingested,
            });
        }
    }

    /// Makes the calling connection the owner of stream `stem`, unless
    /// another connection is: the "already `Active`?" check and the
    /// `Active` mark are one critical section, so of two simultaneous
    /// handshakes for one stream exactly one gets a claim.
    fn claim<'a>(&'a self, stem: &'a str, level: &str) -> Option<Claim<'a>> {
        let mut streams = self.streams.lock();
        let found = match streams.iter_mut().find(|e| e.stem == stem) {
            Some(e) if e.state == StreamState::Active => return None,
            Some(e) => {
                let found = e.clone();
                e.state = StreamState::Active;
                Some(found)
            }
            None => {
                streams.push(StreamEntry {
                    stem: stem.to_string(),
                    level: level.to_string(),
                    state: StreamState::Active,
                    ingested: 0,
                });
                None
            }
        };
        Some(Claim {
            shared: self,
            stem,
            found,
            settled: false,
        })
    }

    fn stream_infos(&self) -> Vec<StreamInfo> {
        let mut rows: Vec<StreamInfo> = self
            .streams
            .lock()
            .iter()
            .map(|e| StreamInfo {
                stream: e.stem.clone(),
                level: e.level.clone(),
                state: e.state.label().to_string(),
                ingested: e.ingested,
            })
            .collect();
        rows.sort_by(|a, b| a.stream.cmp(&b.stream));
        rows
    }
}

/// One connection's ownership of a stream ([`Shared::claim`]): the row
/// says `Active` until the connection settles it as `Idle`, `Finished`
/// or `Quarantined`. A claim dropped unsettled — a refused handshake, a
/// connection thread unwinding — puts the row back as it was found, so a
/// stream is never left owned by a connection that is gone.
struct Claim<'a> {
    shared: &'a Shared,
    stem: &'a str,
    found: Option<StreamEntry>,
    settled: bool,
}

impl Claim<'_> {
    /// Ends the ownership: the row moves to `state` at `cursor`, and the
    /// next handshake for the stream may claim it.
    fn settle(&mut self, level: &str, state: StreamState, cursor: u64) {
        self.shared.update_stream(self.stem, level, state, cursor);
        self.settled = true;
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if self.settled {
            return;
        }
        let mut streams = self.shared.streams.lock();
        if let Some(i) = streams.iter().position(|e| e.stem == self.stem) {
            match self.found.take() {
                Some(found) => streams[i] = found,
                None => {
                    streams.remove(i);
                }
            }
        }
    }
}

/// A handle for poking a running [`Server`] from another thread: drain,
/// shut down, list streams.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Stops accepting new streams; existing streams keep running.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Asks the daemon to flush every active stream's checkpoint and
    /// exit. [`Server::run`] returns once all connection threads have
    /// finished their final checkpoints.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once shutdown has been requested.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Current stream listing, sorted by name.
    #[must_use]
    pub fn streams(&self) -> Vec<StreamInfo> {
        self.shared.stream_infos()
    }
}

/// The daemon: an ingest listener, an optional control listener, and the
/// shared stream registry.
pub struct Server {
    ingest: AnyListener,
    control: Option<AnyListener>,
    shared: Arc<Shared>,
}

/// Maps a tenant-supplied stream name to a safe file stem: alphanumerics,
/// `-`, `_` and interior dots survive; everything else becomes `_`, and a
/// leading dot is masked so names cannot hide or traverse.
#[must_use]
pub fn sanitize_stream_name(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.is_empty() {
        s.push('_');
    }
    if s.starts_with('.') {
        s.replace_range(..1, "_");
    }
    s
}

/// A stream's file under `dir`: `<stem>.ckpt` (image), `<stem>.wal`
/// (journal) or `<stem>.verdict.json`.
fn stream_file(dir: &Path, stem: &str, ext: &str) -> PathBuf {
    dir.join(format!("{stem}.{ext}"))
}

/// Derives the isolation-level label back out of a checkpointed
/// mechanism assembly (checkpoints store mechanisms, not level names).
fn level_label_of(mechanisms: &MechanismSet) -> String {
    for level in [
        IsolationLevel::ReadCommitted,
        IsolationLevel::RepeatableRead,
        IsolationLevel::SnapshotIsolation,
        IsolationLevel::Serializable,
    ] {
        if MechanismSet::postgres(level) == *mechanisms {
            return level.to_string();
        }
    }
    "-".to_string()
}

/// The verifier configuration a serve stream runs with: the handshake's
/// level and budget, degraded mode always on (a multi-tenant daemon must
/// absorb ill-formed input, not corrupt itself on it).
#[must_use]
pub fn stream_config(level: IsolationLevel, mem_budget: u64) -> VerifierConfig {
    let mut vcfg = VerifierConfig::for_level(level);
    vcfg.degraded = true;
    if mem_budget != 0 {
        vcfg.mem_budget = MemBudget::bytes(mem_budget);
    }
    vcfg
}

impl Server {
    /// Binds the ingest (and optional control) endpoints, creates the
    /// checkpoint directory, and recovers every stream checkpoint found
    /// in it into the registry as an idle, resumable stream.
    pub fn bind(
        ingest: &Endpoint,
        control: Option<&Endpoint>,
        opts: ServeOptions,
    ) -> std::io::Result<Server> {
        std::fs::create_dir_all(&opts.checkpoint_dir)?;
        let ingest_l = AnyListener::bind(ingest)?;
        let control_l = match control {
            Some(ep) => Some(AnyListener::bind(ep)?),
            None => None,
        };
        let shared = Arc::new(Shared {
            admission: GlobalAdmission::new(opts.global_budget_bytes),
            opts,
            streams: TrackedMutex::new("Shared.streams", Vec::new()),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
        });
        let server = Server {
            ingest: ingest_l,
            control: control_l,
            shared,
        };
        server.recover_streams()?;
        Ok(server)
    }

    /// Scans the checkpoint directory and registers every stream whose
    /// image loads as idle with its durable cursor: the image's cursor
    /// plus the frames of the stream's journal that replay onto it.
    /// Unreadable or temporary files are skipped — recovery must never
    /// refuse to start over one bad file.
    fn recover_streams(&self) -> std::io::Result<()> {
        let dir = &self.shared.opts.checkpoint_dir;
        // A stream killed between the two renames of an image write has
        // only its previous image; it is a stream all the same.
        let mut stems = std::collections::BTreeSet::new();
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else {
                continue;
            };
            let stem = name
                .strip_suffix(".ckpt")
                .or_else(|| name.strip_suffix(".ckpt.prev"));
            stems.extend(stem.map(str::to_string));
        }
        for stem in stems {
            let Ok(Some(image)) = Checkpoint::load(&FsIo, &stream_file(dir, &stem, "ckpt")) else {
                continue;
            };
            let ckpt = image.checkpoint;
            // A finished stream has no journal; do not create one for it.
            let wal = stream_file(dir, &stem, "wal");
            let journaled = if wal.exists() {
                Journal::open(&FsIo, &wal, ckpt.traces_ingested).map_or(0, |(_, r)| r.len())
            } else {
                0
            };
            self.shared.update_stream(
                &stem,
                &level_label_of(&ckpt.config.mechanisms),
                StreamState::Idle,
                ckpt.traces_ingested + journaled as u64,
            );
        }
        Ok(())
    }

    /// A control handle usable from other threads (signal watchers, the
    /// embedding test) while [`Server::run`] blocks.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the daemon: accepts ingest and control connections until
    /// shutdown is requested, then waits for every connection thread to
    /// flush its final checkpoint before returning.
    pub fn run(self) -> std::io::Result<()> {
        obs::set_enabled(true);
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let mut accepted = false;
            if let Some(conn) = self.ingest.accept()? {
                accepted = true;
                let shared = Arc::clone(&self.shared);
                shared.active_conns.fetch_add(1, Ordering::SeqCst);
                workers.push(std::thread::spawn(move || {
                    // The connection thread owns the decrement; a panic
                    // inside handle_stream is already caught per-trace,
                    // and a panic elsewhere in the handler only kills
                    // this thread, never the daemon.
                    let _guard = ConnGuard(Arc::clone(&shared));
                    handle_ingest_conn(&shared, conn);
                }));
            }
            if let Some(ctrl) = &self.control {
                if let Some(conn) = ctrl.accept()? {
                    accepted = true;
                    let shared = Arc::clone(&self.shared);
                    handle_control_conn(&shared, conn);
                }
            }
            workers.retain(|w| !w.is_finished());
            if !accepted {
                std::thread::sleep(POLL_INTERVAL);
            }
        }
        // Shutdown: connection threads see the flag at their next poll
        // tick, flush checkpoints, and exit; join them all.
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.active_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What the framed-read loop yielded.
enum NextFrame {
    Frame(Frame),
    /// Peer closed cleanly at a frame boundary.
    Eof,
    /// Shutdown was requested while waiting.
    Stop,
    /// The stream is undecodable from here on.
    Bad(WireError),
}

/// Reads the next frame, polling the shutdown flag during quiet periods.
fn next_frame(sock: &mut WireConn, dec: &mut FrameDecoder, shared: &Shared) -> NextFrame {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match dec.next_frame() {
            Ok(Some(f)) => {
                obs::ctr(obs::Counter::WireFrames, 1);
                return NextFrame::Frame(f);
            }
            Ok(None) => {}
            Err(e) => {
                obs::ctr_always(obs::Counter::WireDecodeErrors, 1);
                return NextFrame::Bad(e);
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return NextFrame::Stop;
        }
        match sock.read(&mut buf) {
            Ok(0) => {
                // A torn trailing frame is what a killed client leaves
                // behind — indistinguishable from a crash, so it is a
                // disconnect (checkpoint + resume), never a quarantine.
                // Everything up to the tear was checksummed and ingested.
                return NextFrame::Eof;
            }
            Ok(n) => {
                obs::ctr(obs::Counter::WireBytes, n as u64);
                dec.extend(&buf[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return NextFrame::Bad(WireError::Io(e)),
        }
    }
}

fn send(sock: &mut WireConn, frame: &Frame) {
    if write_frame(sock, frame).is_ok() {
        let _ = sock.flush();
    }
}

fn reject(sock: &mut WireConn, reason: RejectReason, message: &str) {
    obs::ctr(obs::Counter::StreamsRejected, 1);
    send(
        sock,
        &Frame::Reject {
            reason,
            message: message.to_string(),
        },
    );
}

/// Chaos hook: `LEOPARD_SERVE_PANIC_AT=<stream-substring>:<seq>` makes
/// the verifier panic while ingesting that sequence number of matching
/// streams — the fault-isolation tests use it to prove a panicking
/// tenant cannot take its neighbors down.
fn panic_injection_for(stream: &str) -> Option<u64> {
    let spec = std::env::var("LEOPARD_SERVE_PANIC_AT").ok()?;
    let (substr, seq) = spec.rsplit_split_once()?;
    if stream.contains(substr) {
        seq.parse().ok()
    } else {
        None
    }
}

/// Helper trait so the hook parses `"name:7"` without unstable API.
trait RSplitOnce {
    fn rsplit_split_once(&self) -> Option<(&str, &str)>;
}

impl RSplitOnce for String {
    fn rsplit_split_once(&self) -> Option<(&str, &str)> {
        let idx = self.rfind(':')?;
        Some((&self[..idx], &self[idx + 1..]))
    }
}

/// Handles one ingest connection, start to finish.
fn handle_ingest_conn(shared: &Shared, mut sock: WireConn) {
    let _ = sock.set_read_timeout(Some(POLL_INTERVAL));
    let mut dec = FrameDecoder::new();

    // --- Handshake -----------------------------------------------------
    let hello = match next_frame(&mut sock, &mut dec, shared) {
        NextFrame::Frame(Frame::Hello(h)) => h,
        NextFrame::Frame(_) => {
            reject(&mut sock, RejectReason::Malformed, "expected Hello first");
            return;
        }
        NextFrame::Bad(e) => {
            let reason = match dec.unverified_hello_version() {
                Some(v) if v != u64::from(WIRE_VERSION) => RejectReason::Version,
                _ => RejectReason::Malformed,
            };
            reject(&mut sock, reason, &e.to_string());
            return;
        }
        NextFrame::Eof | NextFrame::Stop => return,
    };
    if hello.version != WIRE_VERSION {
        reject(
            &mut sock,
            RejectReason::Version,
            &format!(
                "wire version {} not supported (want {WIRE_VERSION})",
                hello.version
            ),
        );
        return;
    }
    if shared.draining.load(Ordering::SeqCst) {
        reject(&mut sock, RejectReason::Draining, "server is draining");
        return;
    }
    // One live connection per stream: every return below this line
    // drops the claim.
    let level_label = hello.level.to_string();
    let stem = sanitize_stream_name(&hello.stream);
    let Some(mut claim) = shared.claim(&stem, &level_label) else {
        reject(
            &mut sock,
            RejectReason::Admission,
            "stream is already being fed by another connection",
        );
        return;
    };
    let Some(grant) = shared.admission.admit(hello.mem_budget) else {
        reject(
            &mut sock,
            RejectReason::Admission,
            &format!(
                "global budget exhausted ({}/{} bytes granted)",
                shared.admission.outstanding(),
                shared.admission.capacity()
            ),
        );
        return;
    };

    // --- Build or resume the stream's verifier -------------------------
    let quarantine = |claim: &mut Claim<'_>, sock: &mut WireConn, cursor: u64, why: &str| {
        obs::ctr(obs::Counter::StreamsQuarantined, 1);
        let verdict = StreamVerdict {
            stream: hello.stream.clone(),
            level: level_label.clone(),
            status: "quarantined".to_string(),
            traces: cursor,
            committed: 0,
            violations: 0,
            clean: false,
            complete: false,
            quarantined_traces: 0,
            demoted_reads: 0,
        };
        let vpath = stream_file(&shared.opts.checkpoint_dir, &stem, "verdict.json");
        let _ = FsIo.write_atomic(&vpath, verdict.to_json().as_bytes());
        claim.settle(&level_label, StreamState::Quarantined, cursor);
        reject(sock, RejectReason::Quarantined, why);
    };

    let panic_at = panic_injection_for(&hello.stream);
    let (mut verifier, mut cursor, mut durable) =
        match recover_stream(&FsIo, &shared.opts, &stem, &hello, panic_at) {
            Ok(recovered) => recovered,
            Err(RecoverError::Refused(why)) => {
                reject(&mut sock, RejectReason::Malformed, &why);
                return;
            }
            Err(RecoverError::Poisoned { cursor, why }) => {
                quarantine(&mut claim, &mut sock, cursor, &why);
                return;
            }
        };

    shared.update_stream(&stem, &level_label, StreamState::Active, cursor);
    obs::ctr(obs::Counter::StreamsAccepted, 1);
    send(
        &mut sock,
        &Frame::Ack {
            resume_from: cursor,
        },
    );

    // --- Ingest loop ---------------------------------------------------
    loop {
        match next_frame(&mut sock, &mut dec, shared) {
            NextFrame::Frame(Frame::Trace(tf)) => {
                if tf.seq <= cursor {
                    // Duplicate delivery (chaos or a cautious resender):
                    // idempotently dropped.
                    continue;
                }
                if tf.seq != cursor + 1 {
                    quarantine(
                        &mut claim,
                        &mut sock,
                        cursor,
                        &format!("sequence gap: expected {} got {}", cursor + 1, tf.seq),
                    );
                    return;
                }
                if let Err(why) = ingest_one(&mut verifier, &tf, panic_at) {
                    // The trace was refused or the verifier's invariants
                    // are suspect: it is dropped, not checkpointed, and
                    // the frame never reaches the journal.
                    quarantine(&mut claim, &mut sock, cursor, &why);
                    return;
                }
                cursor += 1;
                durable.ingested(tf);
                if shared.opts.engine.checkpoint_due(cursor) {
                    if let Err(e) = durable.boundary(&verifier, cursor) {
                        quarantine(
                            &mut claim,
                            &mut sock,
                            cursor,
                            &format!("checkpoint write failed: {e}"),
                        );
                        return;
                    }
                    shared.update_stream(&stem, &level_label, StreamState::Active, cursor);
                }
            }
            NextFrame::Frame(Frame::Bye { traces_sent }) => {
                if traces_sent != cursor {
                    quarantine(
                        &mut claim,
                        &mut sock,
                        cursor,
                        &format!("client sent {traces_sent} traces, server ingested {cursor}"),
                    );
                    return;
                }
                let vpath = stream_file(&shared.opts.checkpoint_dir, &stem, "verdict.json");
                match finalize_stream(
                    &vpath,
                    &hello.stream,
                    &level_label,
                    verifier,
                    cursor,
                    durable,
                ) {
                    Ok(verdict) => {
                        claim.settle(&level_label, StreamState::Finished, cursor);
                        send(
                            &mut sock,
                            &Frame::Verdict {
                                json: verdict.to_json(),
                            },
                        );
                    }
                    Err(e) => {
                        quarantine(
                            &mut claim,
                            &mut sock,
                            cursor,
                            &format!("finalize failed: {e}"),
                        );
                    }
                }
                drop(grant);
                return;
            }
            NextFrame::Frame(_) => {
                quarantine(&mut claim, &mut sock, cursor, "unexpected frame mid-stream");
                return;
            }
            NextFrame::Bad(e) => {
                quarantine(&mut claim, &mut sock, cursor, &e.to_string());
                return;
            }
            NextFrame::Eof | NextFrame::Stop => {
                // Disconnect (or daemon shutdown) without Bye: persist the
                // cursor so a reconnect resumes exactly here.
                let _ = durable.image(&verifier, cursor);
                claim.settle(&level_label, StreamState::Idle, cursor);
                return;
            }
        }
    }
}

/// Why a stream could not be brought back to its durable cursor.
#[derive(Debug)]
enum RecoverError {
    /// The image, the journal or the spill tier cannot be used: the
    /// handshake is refused and the files are left as they are.
    Refused(String),
    /// Replaying the journal broke the verifier at `cursor`; the stream
    /// is quarantined exactly as if the socket had delivered that frame.
    Poisoned { cursor: u64, why: String },
}

/// Brings a stream to its durable cursor — the one recovery path, for a
/// first connection, a reconnect and a restart after kill -9 alike: load
/// the newest good image if there is one (else start from the
/// handshake's preload), then replay the journal through [`ingest_one`],
/// which is what a client resending those frames would have caused.
fn recover_stream<'a>(
    io: &'a dyn StoreIo,
    opts: &'a ServeOptions,
    stem: &str,
    hello: &Hello,
    panic_at: Option<u64>,
) -> Result<(Verifier, u64, DurableCursor<'a>), RecoverError> {
    let refused = |why: String| RecoverError::Refused(why);
    let ckpt_path = stream_file(&opts.checkpoint_dir, stem, "ckpt");
    // The handshake's level and budget, the daemon's cadence, and its
    // spill settings rooted at a private `<spill dir>/<stem>`
    // subdirectory, so tenant tiers never share segment files.
    let engine = EngineOpts {
        verifier: stream_config(hello.level, hello.mem_budget),
        spill: opts.engine.spill.as_ref().map(|s| {
            let mut per = s.clone();
            per.dir = s.dir.join(stem);
            per
        }),
        checkpoint: Some(ckpt_path.clone()),
        checkpoint_every: opts.engine.checkpoint_every,
    };
    let opened = Checkpoint::load(io, &ckpt_path)
        .and_then(|image| engine::open(&engine, image, &hello.preload))
        .map_err(|e| refused(format!("cannot resume stream checkpoint: {e}")))?;
    let (mut verifier, mut cursor) = (opened.verifier, opened.cursor);

    let wal_path = stream_file(&opts.checkpoint_dir, stem, "wal");
    let (journal, replay) = Journal::open(io, &wal_path, cursor)
        .map_err(|e| refused(format!("cannot open stream journal: {e}")))?;
    for tf in &replay {
        ingest_one(&mut verifier, tf, panic_at)
            .map_err(|why| RecoverError::Poisoned { cursor, why })?;
        cursor += 1;
    }
    obs::ctr(obs::Counter::JournalReplayedFrames, replay.len() as u64);

    let durable = DurableCursor {
        io,
        retry: &opts.checkpoint_retry,
        ckpt_path,
        journal,
        pending: Vec::new(),
        image_bytes: opened.image_bytes,
    };
    Ok((verifier, cursor, durable))
}

/// Feeds one trace, catching panics so a poisoned tenant stream cannot
/// unwind into the daemon. `Err` says why the stream must be quarantined
/// without advancing its cursor: the verifier panicked mid-trace (its
/// invariants are suspect), or an unrecoverable spill-store fault latched
/// it and the trace was refused — a typed error, never a wrong verdict.
fn ingest_one(v: &mut Verifier, tf: &TraceFrame, panic_at: Option<u64>) -> Result<(), String> {
    let seq = tf.seq;
    let fed = catch_unwind(AssertUnwindSafe(|| {
        if panic_at == Some(seq) {
            panic!("injected fault (LEOPARD_SERVE_PANIC_AT) at seq {seq}");
        }
        engine::feed(v, &tf.trace).map_err(|e| format!("spill store fault: {e}"))
    }));
    fed.unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string());
        Err(format!("verifier panicked: {msg}"))
    })
}

/// What makes one stream's cursor durable: the newest full image of its
/// verifier at `<stream>.ckpt`, plus the wire frames ingested since that
/// image, journaled at `<stream>.wal` (DESIGN.md §12).
struct DurableCursor<'a> {
    io: &'a dyn StoreIo,
    retry: &'a RetryPolicy,
    ckpt_path: PathBuf,
    journal: Journal,
    /// Frames ingested since the last boundary, encoded, not yet durable.
    pending: Vec<u8>,
    /// Byte size of the newest image (0 before the first): how large the
    /// journal may grow before an image replaces it. This keeps the bytes
    /// written within about twice the input plus the images, and a
    /// replay within one image's worth of frames.
    image_bytes: u64,
}

impl DurableCursor<'_> {
    /// The size rule: once the journal and the pending batch reach the
    /// size of the last image, the next boundary writes an image.
    fn image_due(&self) -> bool {
        self.journal.len() + self.pending.len() as u64 >= self.image_bytes
    }

    /// Queues a frame the verifier accepted for the next boundary. Once
    /// an image is due the frames it will cover are not queued, which
    /// also bounds the batch by the image size whatever the cadence.
    fn ingested(&mut self, tf: TraceFrame) {
        if !self.image_due() {
            self.pending.extend_from_slice(&Frame::Trace(tf).to_bytes());
        }
    }

    /// A `checkpoint_every` boundary: makes `cursor` durable by appending
    /// the pending frames to the journal, or by a full image when one is
    /// due.
    fn boundary(&mut self, v: &Verifier, cursor: u64) -> StoreResult<()> {
        if self.image_due() {
            return self.image(v, cursor);
        }
        let (journal, pending) = (&mut self.journal, &self.pending);
        self.retry.run(|_| (), || journal.append(pending))?;
        obs::ctr(obs::Counter::JournalAppends, 1);
        obs::ctr(obs::Counter::JournalBytes, self.pending.len() as u64);
        self.pending.clear();
        Ok(())
    }

    /// Writes a full image at `cursor` and only then empties the journal:
    /// a crash between the two leaves frames at or below the new image's
    /// cursor, which replay drops as duplicates.
    fn image(&mut self, v: &Verifier, cursor: u64) -> StoreResult<()> {
        let (io, path) = (self.io, &self.ckpt_path);
        self.image_bytes = self
            .retry
            .run(|_| (), || engine::save(v, cursor, io, path))?;
        self.pending.clear();
        let journal = &mut self.journal;
        self.retry.run(|_| (), || journal.reset())
    }

    /// The final image of a finished stream; nothing is left to replay,
    /// so the journal goes.
    fn finish(mut self, v: &Verifier, cursor: u64) -> StoreResult<()> {
        self.image(v, cursor)?;
        self.journal.remove(self.io)
    }
}

/// Finishes a stream: final image at the terminal cursor, journal
/// removed, verdict document written durably at `vpath`, verdict
/// returned for the `Verdict` frame.
fn finalize_stream(
    vpath: &Path,
    stream: &str,
    level_label: &str,
    v: Verifier,
    cursor: u64,
    durable: DurableCursor<'_>,
) -> StoreResult<StreamVerdict> {
    let io = durable.io;
    durable.finish(&v, cursor)?;
    let outcome = engine::finish(v)?;
    let verdict = StreamVerdict {
        stream: stream.to_string(),
        level: level_label.to_string(),
        status: "ok".to_string(),
        traces: outcome.counters.traces,
        committed: outcome.counters.committed,
        violations: outcome.report.violations.len() as u64,
        clean: outcome.report.is_clean(),
        complete: outcome.coverage.is_complete(),
        quarantined_traces: outcome.coverage.quarantined_traces,
        demoted_reads: outcome.coverage.demoted_reads,
    };
    io.write_atomic(vpath, verdict.to_json().as_bytes())
        .map_err(StoreError::Io)?;
    Ok(verdict)
}

// -----------------------------------------------------------------------
// Control endpoint
// -----------------------------------------------------------------------

/// Handles one control connection: one line (or HTTP request line) in,
/// one response out, close. Runs inline on the accept loop — control
/// traffic is tiny and must work even when every worker is busy.
fn handle_control_conn(shared: &Shared, mut sock: WireConn) {
    let _ = sock.set_read_timeout(Some(Duration::from_millis(500)));
    let mut buf = [0u8; 1024];
    let mut line = String::new();
    loop {
        match sock.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                line.push_str(&String::from_utf8_lossy(&buf[..n]));
                if line.contains('\n') {
                    break;
                }
                if line.len() > 4096 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let first = line.lines().next().unwrap_or("").trim();
    let (http, command) = if let Some(rest) = first.strip_prefix("GET ") {
        let path = rest.split_whitespace().next().unwrap_or("/");
        let cmd = match path {
            "/metrics" => "metrics",
            "/streams" => "streams",
            _ => "",
        };
        (true, cmd)
    } else {
        (false, first)
    };
    let (status, body) = match command {
        "metrics" => ("200 OK", obs::render_prometheus()),
        "streams" => (
            "200 OK",
            serde_json::to_string(&shared.stream_infos()).unwrap_or_else(|_| "[]".to_string()),
        ),
        "drain" => {
            shared.draining.store(true, Ordering::SeqCst);
            ("200 OK", "ok draining\n".to_string())
        }
        "shutdown" => {
            shared.draining.store(true, Ordering::SeqCst);
            shared.shutdown.store(true, Ordering::SeqCst);
            ("200 OK", "ok shutting down\n".to_string())
        }
        _ => (
            "404 Not Found",
            "unknown command (metrics|streams|drain|shutdown)\n".to_string(),
        ),
    };
    if http {
        let _ = write!(
            sock,
            "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
    } else {
        let _ = sock.write_all(body.as_bytes());
    }
    let _ = sock.flush();
}

// -----------------------------------------------------------------------
// Client side
// -----------------------------------------------------------------------

/// Why a client-side ingest failed.
#[derive(Debug)]
pub enum IngestError {
    /// Socket/file I/O failure.
    Io(std::io::Error),
    /// A protocol decode failure.
    Wire(WireError),
    /// The capture file could not be read.
    Capture(crate::capture::CaptureError),
    /// The server refused the stream.
    Rejected {
        /// Typed refusal class.
        reason: RejectReason,
        /// Server-provided detail.
        message: String,
    },
    /// The server answered out of protocol.
    Protocol(String),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "ingest i/o error: {e}"),
            IngestError::Wire(e) => write!(f, "ingest wire error: {e}"),
            IngestError::Capture(e) => write!(f, "ingest capture error: {e}"),
            IngestError::Rejected { reason, message } => {
                write!(f, "server rejected stream ({}): {message}", reason.label())
            }
            IngestError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<std::io::Error> for IngestError {
    fn from(e: std::io::Error) -> Self {
        IngestError::Io(e)
    }
}

impl From<WireError> for IngestError {
    fn from(e: WireError) -> Self {
        IngestError::Wire(e)
    }
}

impl From<crate::capture::CaptureError> for IngestError {
    fn from(e: crate::capture::CaptureError) -> Self {
        IngestError::Capture(e)
    }
}

/// Streams a capture into a daemon over one connection: handshake,
/// traces the server has not already ingested, `Bye`, verdict. The
/// sequenced resume protocol makes calling this again after a daemon
/// crash (or client kill) converge on the same verdict.
pub fn ingest_capture<R: Read>(
    endpoint: &Endpoint,
    stream_name: &str,
    level: IsolationLevel,
    mem_budget: u64,
    reader: &mut CaptureReader<R>,
) -> Result<StreamVerdict, IngestError> {
    let mut sock = endpoint.connect()?;
    let header = reader.header().clone();
    write_frame(
        &mut sock,
        &Frame::Hello(Hello {
            version: WIRE_VERSION,
            stream: stream_name.to_string(),
            description: header.description,
            level,
            mem_budget,
            preload: header.preload,
        }),
    )?;
    sock.flush()?;
    let resume_from = match read_frame(&mut sock)? {
        Some(Frame::Ack { resume_from }) => resume_from,
        Some(Frame::Reject { reason, message }) => {
            return Err(IngestError::Rejected { reason, message })
        }
        other => {
            return Err(IngestError::Protocol(format!(
                "expected Ack, got {other:?}"
            )))
        }
    };
    let mut seq = 0u64;
    while let Some(trace) = reader.next_trace()? {
        seq += 1;
        if seq <= resume_from {
            continue;
        }
        write_frame(&mut sock, &Frame::Trace(TraceFrame { seq, trace }))?;
    }
    write_frame(&mut sock, &Frame::Bye { traces_sent: seq })?;
    sock.flush()?;
    match read_frame(&mut sock)? {
        Some(Frame::Verdict { json }) => {
            StreamVerdict::from_json(&json).map_err(IngestError::Protocol)
        }
        Some(Frame::Reject { reason, message }) => Err(IngestError::Rejected { reason, message }),
        other => Err(IngestError::Protocol(format!(
            "expected Verdict, got {other:?}"
        ))),
    }
}

/// Sends one control command (`metrics`, `streams`, `drain`, `shutdown`)
/// and returns the raw response body.
pub fn control_command(endpoint: &Endpoint, command: &str) -> std::io::Result<String> {
    let mut sock = endpoint.connect()?;
    sock.write_all(command.as_bytes())?;
    sock.write_all(b"\n")?;
    sock.flush()?;
    let _ = sock.shutdown_write();
    let mut body = String::new();
    sock.read_to_string(&mut body)?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{CaptureHeader, CaptureWriter, CAPTURE_VERSION};
    use crate::trace::{Trace, TraceBuilder};
    use crate::types::{Key, Value};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("leopard-serve-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_capture_bytes(traces: &[Trace]) -> Vec<u8> {
        let header = CaptureHeader {
            version: CAPTURE_VERSION,
            description: "serve unit test".to_string(),
            preload: vec![(Key(1), Value(0))],
        };
        let mut bytes = Vec::new();
        let mut w = CaptureWriter::new(&mut bytes, &header).unwrap();
        for t in traces {
            w.write(t).unwrap();
        }
        w.finish().unwrap();
        bytes
    }

    fn clean_traces() -> Vec<Trace> {
        let mut b = TraceBuilder::new();
        b.write(10, 12, 0, 1, vec![(1, 42)]);
        b.commit(13, 15, 0, 1);
        b.read(20, 22, 1, 2, vec![(1, 42)]);
        b.commit(23, 25, 1, 2);
        b.build_sorted()
    }

    fn start_server(
        dir: &Path,
        tag: &str,
    ) -> (Endpoint, ServerHandle, std::thread::JoinHandle<()>) {
        let ingest = Endpoint::Unix(dir.join(format!("{tag}.sock")));
        let server = Server::bind(&ingest, None, ServeOptions::new(dir.join("ckpt"))).unwrap();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run().unwrap());
        (ingest, handle, join)
    }

    #[test]
    fn stream_verdict_round_trips() {
        let v = StreamVerdict {
            stream: "s".into(),
            level: "SI".into(),
            status: "ok".into(),
            traces: 4,
            committed: 2,
            violations: 0,
            clean: true,
            complete: true,
            quarantined_traces: 0,
            demoted_reads: 0,
        };
        let back = StreamVerdict::from_json(&v.to_json()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn sanitizer_masks_hostile_names() {
        assert_eq!(sanitize_stream_name("tenant-a.prod"), "tenant-a.prod");
        assert_eq!(sanitize_stream_name("../../etc/passwd"), "_._.._etc_passwd");
        assert_eq!(sanitize_stream_name(""), "_");
        assert_eq!(sanitize_stream_name(".hidden"), "_hidden");
    }

    #[test]
    fn endpoint_parse_and_display() {
        assert_eq!(
            Endpoint::parse("unix:/tmp/x.sock").unwrap().to_string(),
            "unix:/tmp/x.sock"
        );
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7878").unwrap().to_string(),
            "tcp:127.0.0.1:7878"
        );
        assert!(Endpoint::parse("udp:1234").is_err());
        assert!(Endpoint::parse("unix:").is_err());
        assert!(Endpoint::parse("tcp:7878").is_err());
    }

    #[test]
    fn end_to_end_clean_stream() {
        let dir = temp_dir("e2e");
        let (ingest, handle, join) = start_server(&dir, "ingest");
        let bytes = sample_capture_bytes(&clean_traces());
        let mut reader = CaptureReader::new(bytes.as_slice()).unwrap();
        let verdict = ingest_capture(
            &ingest,
            "tenant-a",
            IsolationLevel::Serializable,
            0,
            &mut reader,
        )
        .unwrap();
        assert!(verdict.clean);
        assert!(verdict.complete);
        assert_eq!(verdict.traces, 4);
        assert_eq!(verdict.status, "ok");
        let listing = handle.streams();
        assert_eq!(listing.len(), 1);
        assert_eq!(listing[0].state, "finished");
        assert!(dir.join("ckpt").join("tenant-a.ckpt").exists());
        assert!(dir.join("ckpt").join("tenant-a.verdict.json").exists());
        handle.shutdown();
        join.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn draining_server_rejects_new_streams() {
        let dir = temp_dir("drain");
        let (ingest, handle, join) = start_server(&dir, "ingest");
        handle.drain();
        let bytes = sample_capture_bytes(&clean_traces());
        let mut reader = CaptureReader::new(bytes.as_slice()).unwrap();
        let err = ingest_capture(
            &ingest,
            "late",
            IsolationLevel::Serializable,
            0,
            &mut reader,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            IngestError::Rejected {
                reason: RejectReason::Draining,
                ..
            }
        ));
        handle.shutdown();
        join.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admission_pool_refuses_oversized_streams() {
        let dir = temp_dir("admission");
        let ingest = Endpoint::Unix(dir.join("i.sock"));
        let mut opts = ServeOptions::new(dir.join("ckpt"));
        opts.global_budget_bytes = 1000;
        let server = Server::bind(&ingest, None, opts).unwrap();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run().unwrap());
        let bytes = sample_capture_bytes(&clean_traces());
        let mut reader = CaptureReader::new(bytes.as_slice()).unwrap();
        let err = ingest_capture(
            &ingest,
            "pig",
            IsolationLevel::Serializable,
            100_000,
            &mut reader,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            IngestError::Rejected {
                reason: RejectReason::Admission,
                ..
            }
        ));
        // A modest stream still fits.
        let mut reader = CaptureReader::new(bytes.as_slice()).unwrap();
        let verdict = ingest_capture(
            &ingest,
            "ok",
            IsolationLevel::Serializable,
            500,
            &mut reader,
        )
        .unwrap();
        assert!(verdict.clean);
        handle.shutdown();
        join.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Polls `done` (every 5 ms, for at most 20 s) until it holds.
    #[expect(
        clippy::disallowed_methods,
        reason = "a test's give-up deadline is wall-clock by definition"
    )]
    fn wait_for(mut done: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "timed out waiting");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Sends `hello` on a fresh connection and returns it with the answer.
    fn handshake(ingest: &Endpoint, hello: Hello) -> (WireConn, Frame) {
        let mut sock = ingest.connect().unwrap();
        write_frame(&mut sock, &Frame::Hello(hello)).unwrap();
        sock.flush().unwrap();
        let answer = read_frame(&mut sock).unwrap().expect("an answer");
        (sock, answer)
    }

    /// Sends `traces` under the given sequence numbers.
    fn send_traces(sock: &mut WireConn, traces: &[Trace], seqs: &[u64]) {
        for (trace, &seq) in traces.iter().zip(seqs) {
            let trace = trace.clone();
            write_frame(sock, &Frame::Trace(TraceFrame { seq, trace })).unwrap();
        }
        sock.flush().unwrap();
    }

    fn rejected_for(answer: &Frame) -> Option<RejectReason> {
        match answer {
            Frame::Reject { reason, .. } => Some(*reason),
            _ => None,
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let dir = temp_dir("version");
        let (ingest, handle, join) = start_server(&dir, "ingest");
        let hello = Hello {
            version: 99,
            ..hello_for("future")
        };
        let (_, answer) = handshake(&ingest, hello);
        assert_eq!(
            rejected_for(&answer),
            Some(RejectReason::Version),
            "{answer:?}"
        );
        // A version-1 peer: its frames end in FxHash cut to 32 bits, which
        // this build cannot verify. Refused for its version all the same,
        // not as a corrupt frame.
        let payload = Frame::Hello(Hello {
            version: 1,
            ..hello_for("past")
        })
        .encode_payload();
        let mut fx = crate::fxhash::FxHasher::default();
        std::hash::Hasher::write(&mut fx, &payload);
        let mut bytes = Vec::new();
        crate::wire::put_varint(&mut bytes, payload.len() as u64);
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&(std::hash::Hasher::finish(&fx) as u32).to_le_bytes());
        let mut sock = ingest.connect().unwrap();
        sock.write_all(&bytes).unwrap();
        sock.flush().unwrap();
        let answer = read_frame(&mut sock).unwrap().expect("an answer");
        assert_eq!(
            rejected_for(&answer),
            Some(RejectReason::Version),
            "{answer:?}"
        );
        handle.shutdown();
        join.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequence_gap_quarantines_the_stream() {
        let dir = temp_dir("gap");
        let (ingest, handle, join) = start_server(&dir, "ingest");
        let (mut sock, answer) = handshake(&ingest, hello_for("gappy"));
        assert!(
            matches!(answer, Frame::Ack { resume_from: 0 }),
            "{answer:?}"
        );
        // seq 1 then seq 5: a gap.
        send_traces(&mut sock, &clean_traces(), &[1, 5]);
        let answer = read_frame(&mut sock).unwrap().expect("an answer");
        assert_eq!(
            rejected_for(&answer),
            Some(RejectReason::Quarantined),
            "{answer:?}"
        );
        // The quarantined verdict is on disk.
        let vjson = std::fs::read_to_string(dir.join("ckpt").join("gappy.verdict.json")).unwrap();
        let verdict = StreamVerdict::from_json(&vjson).unwrap();
        assert_eq!(verdict.status, "quarantined");
        assert!(!verdict.clean);
        handle.shutdown();
        join.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disconnect_and_resume_reaches_identical_verdict_and_checkpoint() {
        let dir = temp_dir("resume");
        let traces = clean_traces();
        let bytes = sample_capture_bytes(&traces);

        // Uninterrupted reference run.
        let ref_dir = temp_dir("resume-ref");
        let (ingest_r, handle_r, join_r) = start_server(&ref_dir, "ingest");
        let mut reader = CaptureReader::new(bytes.as_slice()).unwrap();
        let ref_verdict =
            ingest_capture(&ingest_r, "t", IsolationLevel::Serializable, 0, &mut reader).unwrap();
        handle_r.shutdown();
        join_r.join().unwrap();
        let ref_ckpt = std::fs::read(ref_dir.join("ckpt").join("t.ckpt")).unwrap();

        // Interrupted run: send 2 traces, drop the connection without a
        // Bye (a killed client), then restart the whole daemon and replay
        // from a fresh client.
        let (ingest, handle, join) = start_server(&dir, "ingest");
        let (mut sock, answer) = handshake(&ingest, hello_for("t"));
        assert!(
            matches!(answer, Frame::Ack { resume_from: 0 }),
            "{answer:?}"
        );
        send_traces(&mut sock, &traces, &[1, 2]);
        drop(sock);
        // The daemon must have read both frames before it is told to
        // stop, or it stops with fewer ingested.
        wait_for(|| {
            let streams = handle.streams();
            streams.len() == 1 && streams[0].state == "idle" && streams[0].ingested == 2
        });
        // Daemon shutdown (flushes the stream checkpoint) + restart.
        handle.shutdown();
        join.join().unwrap();
        let ingest2 = Endpoint::Unix(dir.join("restart.sock"));
        let server = Server::bind(&ingest2, None, ServeOptions::new(dir.join("ckpt"))).unwrap();
        let recovered = server.handle().streams();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].state, "idle");
        assert_eq!(recovered[0].ingested, 2);
        let handle2 = server.handle();
        let join2 = std::thread::spawn(move || server.run().unwrap());
        let mut reader = CaptureReader::new(bytes.as_slice()).unwrap();
        let verdict =
            ingest_capture(&ingest2, "t", IsolationLevel::Serializable, 0, &mut reader).unwrap();
        handle2.shutdown();
        join2.join().unwrap();

        assert_eq!(verdict, ref_verdict, "verdicts must be byte-identical");
        let ckpt = std::fs::read(dir.join("ckpt").join("t.ckpt")).unwrap();
        assert!(ckpt == ref_ckpt, "final checkpoints must be byte-identical");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&ref_dir);
    }

    /// Two handshakes for one stream at the same moment: exactly one owns
    /// it. The stream has an image large enough that recovering it takes
    /// far longer than the two `Hello`s are apart, which is the window the
    /// check and the `Active` mark must close.
    #[test]
    fn simultaneous_hellos_for_one_stream_get_one_ack_and_one_reject() {
        let dir = temp_dir("two-hellos");
        let (ingest, handle, join) = start_server(&dir, "ingest");
        let hello = || Hello {
            preload: (0..600).map(|k| (Key(k), Value(0))).collect(),
            ..hello_for("t")
        };
        // Connect, disconnect: the stream is idle with an image on disk.
        drop(handshake(&ingest, hello()));
        wait_for(|| handle.streams().first().is_some_and(|s| s.state == "idle"));

        let (start, answered) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        let contend = || {
            start.wait();
            let (sock, answer) = handshake(&ingest, hello());
            // The winner keeps the stream until the loser has been answered.
            answered.wait();
            drop(sock);
            answer
        };
        let answers = std::thread::scope(|scope| {
            let contenders = [scope.spawn(contend), scope.spawn(contend)];
            contenders.map(|c| c.join().unwrap())
        });
        let acks = answers.iter().filter(|a| matches!(a, Frame::Ack { .. }));
        let rejects = answers
            .iter()
            .filter(|a| rejected_for(a) == Some(RejectReason::Admission));
        assert_eq!((acks.count(), rejects.count()), (1, 1), "{answers:?}");
        // The loser's refusal left the winner's claim alone, and the
        // winner's disconnect released it.
        wait_for(|| handle.streams()[0].state == "idle");
        assert!(matches!(handshake(&ingest, hello()).1, Frame::Ack { .. }));
        handle.shutdown();
        join.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `a/b` and `a_b` have the same files, so they are the same stream:
    /// one registry row, one owner at a time, one cursor.
    #[test]
    fn names_that_share_files_are_one_stream() {
        let dir = temp_dir("one-stem");
        let (ingest, handle, join) = start_server(&dir, "ingest");
        let (mut first, answer) = handshake(&ingest, hello_for("a/b"));
        assert!(
            matches!(answer, Frame::Ack { resume_from: 0 }),
            "{answer:?}"
        );
        // While `a/b` is being fed, `a_b` is taken.
        let (_, answer) = handshake(&ingest, hello_for("a_b"));
        assert_eq!(
            rejected_for(&answer),
            Some(RejectReason::Admission),
            "{answer:?}"
        );
        send_traces(&mut first, &clean_traces(), &[1, 2]);
        drop(first);
        wait_for(|| handle.streams()[0].state == "idle" && handle.streams()[0].ingested == 2);
        // Afterwards `a_b` resumes what `a/b` ingested.
        let (_, answer) = handshake(&ingest, hello_for("a_b"));
        assert!(
            matches!(answer, Frame::Ack { resume_from: 2 }),
            "{answer:?}"
        );
        let streams = handle.streams();
        assert_eq!(streams.len(), 1, "{streams:?}");
        assert_eq!(streams[0].stream, "a_b");
        handle.shutdown();
        join.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A stream whose image an older build wrote — a bare JSON document —
    /// is refused by type; the file is neither parsed nor replaced.
    #[test]
    fn a_stream_image_in_an_old_layout_is_rejected() {
        let dir = temp_dir("old-layout");
        let (ingest, handle, join) = start_server(&dir, "ingest");
        let v = Verifier::new(stream_config(IsolationLevel::Serializable, 0));
        let old = v.checkpoint().to_json();
        let path = dir.join("ckpt").join("t.ckpt");
        std::fs::write(&path, &old).unwrap();
        let (_, answer) = handshake(&ingest, hello_for("t"));
        assert_eq!(
            rejected_for(&answer),
            Some(RejectReason::Malformed),
            "{answer:?}"
        );
        assert!(
            format!("{answer:?}").contains("not a checkpoint image"),
            "{answer:?}"
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), old);
        // The refusal leaves no row (once the connection thread is done).
        wait_for(|| handle.streams().is_empty());
        handle.shutdown();
        join.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn hello_for(stream: &str) -> Hello {
        Hello {
            version: WIRE_VERSION,
            stream: stream.to_string(),
            description: "serve unit test".to_string(),
            level: IsolationLevel::Serializable,
            mem_budget: 0,
            preload: vec![(Key(1), Value(0))],
        }
    }

    /// `txns` serial write-then-commit transactions: two traces each.
    fn serial_traces(txns: u64) -> Vec<Trace> {
        let mut b = TraceBuilder::new();
        for i in 0..txns {
            b.write(10 * i, 10 * i + 2, 0, i + 1, vec![(1, i + 1)]);
            b.commit(10 * i + 3, 10 * i + 5, 0, i + 1);
        }
        b.build_sorted()
    }

    /// Recovers the stream and feeds it `traces` past its cursor the way
    /// the ingest loop does, then drops everything without a final image
    /// — a kill -9. Returns the last cursor a boundary made durable, the
    /// reason a boundary gave up (the quarantine), and the image size.
    fn feed_then_crash(
        io: &dyn StoreIo,
        opts: &ServeOptions,
        traces: &[Trace],
    ) -> (u64, Option<String>, u64) {
        let hello = hello_for("t");
        let (mut v, mut cursor, mut durable) =
            recover_stream(io, opts, "t", &hello, None).expect("recovers");
        let mut made_durable = cursor;
        for (i, trace) in traces.iter().enumerate().skip(cursor as usize) {
            let tf = TraceFrame {
                seq: i as u64 + 1,
                trace: trace.clone(),
            };
            ingest_one(&mut v, &tf, None).expect("clean trace");
            cursor += 1;
            durable.ingested(tf);
            if opts.engine.checkpoint_due(cursor) {
                match durable.boundary(&v, cursor) {
                    Ok(()) => made_durable = cursor,
                    Err(e) => return (made_durable, Some(e.to_string()), durable.image_bytes),
                }
            }
        }
        (made_durable, None, durable.image_bytes)
    }

    #[test]
    fn journal_faults_end_in_retry_or_quarantine_and_never_over_ack() {
        use crate::store::{FaultIo, FaultSpec};
        let traces = serial_traces(20);
        let retry = RetryPolicy {
            max_attempts: 6,
            base: Duration::ZERO,
            cap: Duration::ZERO,
            seed: 1,
        };
        let options = |dir: &Path| {
            let mut opts = ServeOptions::new(dir.join("ckpt"));
            std::fs::create_dir_all(&opts.checkpoint_dir).unwrap();
            opts.engine.checkpoint_every = Some(2);
            opts.checkpoint_retry = retry;
            opts
        };
        // A fault-free run sizes the first image, so ENOSPC can be made to
        // strike after it, in the middle of the journal's life.
        let dir = temp_dir("wal-dry");
        let (durable, why, image_bytes) = feed_then_crash(&FsIo, &options(&dir), &traces);
        assert_eq!((durable, why), (40, None));
        let _ = std::fs::remove_dir_all(&dir);

        // (tag, faults, whether retries run out and the stream quarantines)
        let cases = [
            (
                "enospc",
                true,
                FaultSpec {
                    enospc_after_bytes: Some(image_bytes + 200),
                    ..FaultSpec::default()
                },
            ),
            (
                "short",
                false,
                FaultSpec {
                    seed: 11,
                    short_write_prob: 0.5,
                    ..FaultSpec::default()
                },
            ),
            (
                "delayed",
                false,
                FaultSpec {
                    seed: 12,
                    delayed_write_err_prob: 0.3,
                    ..FaultSpec::default()
                },
            ),
            (
                "torn-and-sync",
                true,
                FaultSpec {
                    seed: 13,
                    torn_write_prob: 0.6,
                    sync_fail_prob: 0.6,
                    ..FaultSpec::default()
                },
            ),
        ];
        for (tag, quarantines, spec) in cases {
            let dir = temp_dir(&format!("wal-{tag}"));
            let opts = options(&dir);
            let io = FaultIo::new(FsIo, spec);
            let (durable, why, _) = feed_then_crash(&io, &opts, &traces);
            assert!(io.injected().total() > 0, "{tag}: nothing was injected");
            match &why {
                // Retries exhausted: the typed reason the ingest loop
                // quarantines with, at a boundary short of the end.
                Some(why) => {
                    assert!(quarantines, "{tag}: {why}");
                    assert!(why.contains("i/o error"), "{tag}: {why}");
                    assert!(durable < 40, "{tag}");
                }
                None => assert_eq!((durable, quarantines), (40, false), "{tag}"),
            }
            // The restart acks exactly what was made durable, and what it
            // replayed is the state a clean run has at that cursor.
            let (v, cursor, _) =
                recover_stream(&FsIo, &opts, "t", &hello_for("t"), None).expect("recovers");
            assert_eq!(cursor, durable, "{tag}");
            let mut clean = Verifier::new(stream_config(IsolationLevel::Serializable, 0));
            clean.preload(Key(1), Value(0));
            for t in &traces[..cursor as usize] {
                clean.process(t);
            }
            assert_eq!(
                v.checkpoint().to_json(),
                clean.checkpoint().to_json(),
                "{tag}"
            );
            // And the stream carries on from there to the end.
            let (durable, why, _) = feed_then_crash(&FsIo, &opts, &traces);
            assert_eq!((durable, why), (40, None), "{tag}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn control_endpoint_serves_metrics_streams_and_shutdown() {
        let dir = temp_dir("control");
        let ingest = Endpoint::Unix(dir.join("i.sock"));
        let control = Endpoint::Unix(dir.join("c.sock"));
        let server =
            Server::bind(&ingest, Some(&control), ServeOptions::new(dir.join("ckpt"))).unwrap();
        let join = std::thread::spawn(move || server.run().unwrap());
        let bytes = sample_capture_bytes(&clean_traces());
        let mut reader = CaptureReader::new(bytes.as_slice()).unwrap();
        ingest_capture(&ingest, "m", IsolationLevel::Serializable, 0, &mut reader).unwrap();

        let metrics = control_command(&control, "metrics").unwrap();
        assert!(
            metrics.contains("leopard_serve_streams_accepted_total"),
            "{metrics}"
        );
        let streams = control_command(&control, "streams").unwrap();
        assert!(streams.contains("\"m\""), "{streams}");
        // HTTP form.
        let mut sock = control.connect().unwrap();
        sock.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        sock.flush().unwrap();
        let _ = sock.shutdown_write();
        let mut resp = String::new();
        sock.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.0 200 OK"), "{resp}");
        assert!(resp.contains("leopard_wire_frames_total"), "{resp}");

        let bye = control_command(&control, "shutdown").unwrap();
        assert!(bye.contains("ok"), "{bye}");
        join.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

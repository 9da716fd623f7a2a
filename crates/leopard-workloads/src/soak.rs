//! Soak driver for the `leopard serve` daemon: simulated wire clients
//! hammering a live daemon over the real binary protocol under a
//! [`ChaosPlan`].
//!
//! Each soak stream generates a real workload history (its own little
//! database at the target isolation level), then plays it into the
//! daemon as a sequenced trace stream — while chaos cuts connections
//! (cleanly at frame boundaries or *mid-frame*, the torn tail a killed
//! client leaves behind), duplicates frames, and stalls. Every fault is
//! recoverable by protocol design: duplicates are idempotently dropped
//! by the server's sequence cursor, cuts are resumed from the
//! handshake's `Ack` cursor after a jittered backoff, so every stream
//! must still converge to a clean verdict. The driver is what the CI
//! soak job runs against a daemon that is additionally being `kill -9`ed
//! and restarted underneath it.
//!
//! [`ChaosPlan`] fields are mapped to wire faults: `kill_prob` is the
//! per-frame probability of dropping the connection (half the time
//! mid-frame), `dup_prob` duplicates the frame, `stall_prob` sleeps
//! [`ChaosPlan::stall`] before sending. Engine-side fields
//! (`drop_prob`, skew) are not used — a dropped frame would be a
//! sequence gap, which the server rightly refuses to paper over.

use crate::bundled::bundled_workload_mini;
use crate::chaos::{ChaosPlan, RetryPolicy};
use crate::runner::{preload_database, run_collect, RunLimit};
use leopard_core::serve::{Endpoint, IngestError, StreamVerdict};
use leopard_core::wire::{
    read_frame, write_frame, Frame, Hello, RejectReason, TraceFrame, WIRE_VERSION,
};
use leopard_core::{IsolationLevel, Trace};
use leopard_db::{Database, DbConfig};
use rand::Rng;
use std::io::Write;
use std::sync::Arc;

/// Configuration for one soak run.
#[derive(Debug, Clone)]
pub struct SoakOptions {
    /// The daemon's ingest endpoint.
    pub endpoint: Endpoint,
    /// Number of concurrent client streams.
    pub streams: usize,
    /// Bundled workload name feeding each stream's history.
    pub workload: String,
    /// Transactions per workload client (each stream runs
    /// [`SoakOptions::clients`] workload clients to build its history).
    pub txns: u64,
    /// Workload clients per stream.
    pub clients: usize,
    /// Isolation level each stream asks the daemon to verify.
    pub level: IsolationLevel,
    /// Master seed: workload histories and chaos derive from it.
    pub seed: u64,
    /// Wire chaos (see the module docs for the field mapping).
    pub chaos: ChaosPlan,
    /// Reconnect backoff (jittered) after a chaos cut or a daemon
    /// restart.
    pub retry: RetryPolicy,
    /// Per-stream memory budget sent in the handshake (0 = unlimited).
    pub mem_budget: u64,
    /// Give up on a stream after this many consecutive failed
    /// reconnect attempts (the daemon is presumed gone for good).
    pub max_reconnect_attempts: u32,
}

impl SoakOptions {
    /// A small default soak against `endpoint`: 4 streams of SmallBank.
    #[must_use]
    pub fn new(endpoint: Endpoint) -> SoakOptions {
        SoakOptions {
            endpoint,
            streams: 4,
            workload: "smallbank".to_string(),
            txns: 50,
            clients: 3,
            level: IsolationLevel::Serializable,
            seed: 1,
            chaos: ChaosPlan::none(),
            retry: RetryPolicy::with_backoff(10, std::time::Duration::from_millis(5))
                .with_jitter(0.5),
            mem_budget: 0,
            max_reconnect_attempts: 200,
        }
    }
}

/// Per-stream soak outcome.
#[derive(Debug)]
pub struct StreamOutcome {
    /// Stream name (`soak-<i>`).
    pub stream: String,
    /// Traces in the stream's history.
    pub traces: u64,
    /// Connection cuts chaos injected (clean and torn).
    pub cuts: u64,
    /// Of those, cuts that tore a frame in half.
    pub torn: u64,
    /// Frames delivered twice.
    pub dup_frames: u64,
    /// Stalls injected.
    pub stalls: u64,
    /// Connections established: 1 for an undisturbed stream, plus one
    /// per reconnect after a chaos cut or daemon restart.
    pub connections: u64,
    /// The daemon's verdict, or the error that ended the stream.
    pub result: Result<StreamVerdict, String>,
}

/// Aggregated soak report.
#[derive(Debug)]
pub struct SoakReport {
    /// Per-stream outcomes, in stream order.
    pub outcomes: Vec<StreamOutcome>,
}

impl SoakReport {
    /// `true` iff every stream converged to a clean, complete verdict.
    #[must_use]
    pub fn all_clean(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| matches!(&o.result, Ok(v) if v.status == "ok" && v.clean && v.complete))
    }

    /// Total chaos injections across all streams.
    #[must_use]
    pub fn total_faults(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| o.cuts + o.dup_frames + o.stalls)
            .sum()
    }

    /// Writes a one-line-per-stream summary.
    pub fn render(&self, out: &mut dyn Write) {
        for o in &self.outcomes {
            match &o.result {
                Ok(v) => {
                    let _ = writeln!(
                        out,
                        "{}: {} traces={} cuts={} (torn {}) dups={} stalls={} connections={} \
                         clean={} complete={}",
                        o.stream,
                        v.status,
                        o.traces,
                        o.cuts,
                        o.torn,
                        o.dup_frames,
                        o.stalls,
                        o.connections,
                        v.clean,
                        v.complete
                    );
                }
                Err(e) => {
                    let _ = writeln!(
                        out,
                        "{}: FAILED after {} connections: {e}",
                        o.stream, o.connections
                    );
                }
            }
        }
    }
}

/// Runs the soak: spawns one thread per stream and drives them all to a
/// verdict (or a terminal failure).
pub fn run_soak(opts: &SoakOptions) -> SoakReport {
    let mut joins = Vec::with_capacity(opts.streams);
    for i in 0..opts.streams {
        let opts = opts.clone();
        joins.push(std::thread::spawn(move || drive_stream(&opts, i as u64)));
    }
    let outcomes = joins
        .into_iter()
        .map(|j| match j.join() {
            Ok(o) => o,
            Err(_) => StreamOutcome {
                stream: "?".to_string(),
                traces: 0,
                cuts: 0,
                torn: 0,
                dup_frames: 0,
                stalls: 0,
                connections: 0,
                result: Err("soak client thread panicked".to_string()),
            },
        })
        .collect();
    SoakReport { outcomes }
}

/// A generated stream history plus the preload the verifier needs to
/// seed its database image with.
type History = (Vec<Trace>, Vec<(leopard_core::Key, leopard_core::Value)>);

/// Builds stream `i`'s history: a real workload run against a private
/// database at the soak's isolation level.
fn build_history(opts: &SoakOptions, i: u64) -> Result<History, String> {
    let (proto, gens) = bundled_workload_mini(&opts.workload, 64, opts.clients)?;
    let db = Arc::new(Database::new(DbConfig::at(opts.level)));
    let preload = preload_database(&db, proto.as_ref());
    let out = run_collect(
        &db,
        gens,
        RunLimit::Txns(opts.txns),
        opts.seed
            .wrapping_add(i.wrapping_mul(0x517c_c1b7_2722_0a95)),
    );
    Ok((out.merged_sorted(), preload))
}

/// Drives one stream to its verdict over the chaotic wire.
fn drive_stream(opts: &SoakOptions, i: u64) -> StreamOutcome {
    let stream = format!("soak-{i}");
    let mut outcome = StreamOutcome {
        stream: stream.clone(),
        traces: 0,
        cuts: 0,
        torn: 0,
        dup_frames: 0,
        stalls: 0,
        connections: 0,
        result: Err("did not run".to_string()),
    };
    let (traces, preload) = match build_history(opts, i) {
        Ok(x) => x,
        Err(e) => {
            outcome.result = Err(e);
            return outcome;
        }
    };
    outcome.traces = traces.len() as u64;
    // Lane 3: wire chaos, independent of the engine-side lanes 0-2.
    let mut rng = opts.chaos.client_rng(i, 3);
    let mut failures = 0u32;
    'reconnect: loop {
        if failures >= opts.max_reconnect_attempts {
            outcome.result = Err(format!(
                "gave up after {failures} consecutive failed attempts"
            ));
            return outcome;
        }
        if failures > 0 || outcome.connections > 0 {
            std::thread::sleep(opts.retry.backoff_jittered(failures.max(1), &mut rng));
        }
        let mut sock = match opts.endpoint.connect() {
            Ok(s) => s,
            Err(_) => {
                // Daemon down (restarting under external kill -9).
                failures += 1;
                continue 'reconnect;
            }
        };
        let hello = Frame::Hello(Hello {
            version: WIRE_VERSION,
            stream: stream.clone(),
            description: format!("soak {} {}", opts.workload, opts.level),
            level: opts.level,
            mem_budget: opts.mem_budget,
            preload: preload.clone(),
        });
        if write_frame(&mut sock, &hello)
            .and_then(|()| Ok(sock.flush()?))
            .is_err()
        {
            failures += 1;
            continue 'reconnect;
        }
        let resume_from = match read_frame(&mut sock) {
            Ok(Some(Frame::Ack { resume_from })) => resume_from,
            Ok(Some(Frame::Reject { reason, message })) => match reason {
                // Transient: the server may not have reaped our previous
                // connection yet, or is draining before a restart.
                RejectReason::Admission | RejectReason::Draining => {
                    failures += 1;
                    continue 'reconnect;
                }
                _ => {
                    outcome.result = Err(IngestError::Rejected { reason, message }.to_string());
                    return outcome;
                }
            },
            _ => {
                failures += 1;
                continue 'reconnect;
            }
        };
        failures = 0;
        outcome.connections += 1;
        let mut seq = resume_from;
        for trace in traces.iter().skip(resume_from as usize) {
            seq += 1;
            if opts.chaos.stall_prob > 0.0 && rng.random_bool(opts.chaos.stall_prob) {
                outcome.stalls += 1;
                std::thread::sleep(opts.chaos.stall);
            }
            let frame = Frame::Trace(TraceFrame {
                seq,
                trace: trace.clone(),
            });
            let bytes = frame.to_bytes();
            if opts.chaos.kill_prob > 0.0 && rng.random_bool(opts.chaos.kill_prob) {
                outcome.cuts += 1;
                // Half the cuts tear the frame mid-bytes: the torn tail a
                // killed client leaves on the socket.
                if bytes.len() > 1 && rng.random_bool(0.5) {
                    outcome.torn += 1;
                    let cut = rng.random_range(1..bytes.len() as u64) as usize;
                    let _ = sock.write_all(&bytes[..cut]);
                }
                let _ = sock.flush();
                drop(sock);
                continue 'reconnect;
            }
            let dup = opts.chaos.dup_prob > 0.0 && rng.random_bool(opts.chaos.dup_prob);
            let mut payload = bytes.clone();
            if dup {
                outcome.dup_frames += 1;
                payload.extend_from_slice(&bytes);
            }
            if sock.write_all(&payload).is_err() {
                failures += 1;
                continue 'reconnect;
            }
        }
        let bye = Frame::Bye { traces_sent: seq };
        if write_frame(&mut sock, &bye)
            .and_then(|()| Ok(sock.flush()?))
            .is_err()
        {
            failures += 1;
            continue 'reconnect;
        }
        match read_frame(&mut sock) {
            Ok(Some(Frame::Verdict { json })) => {
                outcome.result =
                    StreamVerdict::from_json(&json).map_err(|e| format!("bad verdict json: {e}"));
                return outcome;
            }
            Ok(Some(Frame::Reject { reason, message })) => {
                outcome.result = Err(IngestError::Rejected { reason, message }.to_string());
                return outcome;
            }
            _ => {
                // Daemon died between Bye and Verdict; replay converges.
                failures += 1;
                continue 'reconnect;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_core::serve::{ServeOptions, Server};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("leopard-soak-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn chaotic_soak_converges_to_clean_verdicts() {
        let dir = temp_dir("chaos");
        let ingest = Endpoint::Unix(dir.join("ingest.sock"));
        let mut sopts = ServeOptions::new(dir.join("ckpt"));
        sopts.engine.checkpoint_every = Some(16);
        let server = Server::bind(&ingest, None, sopts).unwrap();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run().unwrap());

        let mut opts = SoakOptions::new(ingest);
        opts.streams = 3;
        opts.txns = 20;
        opts.clients = 2;
        opts.chaos = ChaosPlan {
            seed: 11,
            kill_prob: 0.02,
            dup_prob: 0.05,
            stall_prob: 0.0,
            ..ChaosPlan::none()
        };
        let report = run_soak(&opts);
        let mut rendered = Vec::new();
        report.render(&mut rendered);
        assert!(
            report.all_clean(),
            "soak must converge despite chaos:\n{}",
            String::from_utf8_lossy(&rendered)
        );
        assert!(
            report.outcomes.iter().any(|o| o.cuts > 0),
            "chaos must actually fire for the soak to mean anything"
        );
        assert!(report.outcomes.iter().any(|o| o.dup_frames > 0));
        handle.shutdown();
        join.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Seeded inputs: every capture the benchmark feeds the checker is a pure
//! function of `--seed`, generated on one thread against a simulated clock
//! (`leopard_oracle::corpus`), so trace counts and bytes repeat exactly.

use leopard_core::fxhash::FxHasher;
use leopard_core::{
    Frame, Hello, IsolationLevel, TraceFrame, Verifier, VerifierConfig, VerifyOutcome, WIRE_VERSION,
};
use leopard_oracle::{
    generate_clean_capture, AnomalyClass, Capture, CleanRunSpec, Mutation, Schedule,
};
use serde::{Deserialize, Serialize};
use std::hash::Hasher;
use std::time::Instant;

/// The level every workload records and audits at.
pub const LEVEL: IsolationLevel = IsolationLevel::Serializable;

/// The product path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `leopard verify` on a JSONL capture.
    Audit,
    /// The same under a memory budget, spilling to disk.
    AuditSpill,
    /// Wire frames from disk into the online chain (the `worker` child).
    Online,
    /// Wire frames over two connections into `leopard serve`.
    Serve,
}

impl Path {
    /// `true` when the input is a JSONL capture file, as `leopard record`
    /// writes it; otherwise it is Hello, one Trace frame per trace, Bye.
    pub fn reads_jsonl(self) -> bool {
        matches!(self, Path::Audit | Path::AuditSpill)
    }
}

/// One of the four benchmark workloads.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists, in one line (`BENCHMARK.json`).
    pub why: &'static str,
    /// The product path it drives.
    pub path: Path,
    /// Bundled workload the input is recorded from.
    pub source: &'static str,
    /// Preloaded rows (ignored by tpcc, which always loads one warehouse).
    pub rows: u64,
    /// Logical clients of the recorded run.
    pub clients: usize,
    /// Transaction attempts per client.
    pub txns_per_client: u64,
    /// `clock_skew_bound` the checker runs with.
    pub skew_bound: u64,
}

/// Sized so one repetition takes about a second on two 2 GHz cores: the
/// driver allows roughly half a minute per run, set-up included, and the
/// more repetitions a run has, the likelier one of them ran undisturbed.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "audit_smallbank",
        why: "offline audit of a JSONL capture: JSON decode runs twice (preflight, verify) and dominates, so codec and preflight work shows here and core work barely does",
        path: Path::Audit,
        source: "smallbank",
        rows: 20_000,
        clients: 8,
        txns_per_client: 9_000,
        skew_bound: 0,
    },
    Workload {
        name: "online_tpcc",
        why: "library path: wire frames from disk into the two-thread online chain with overlapping intervals; no JSON, no checkpoints, so pipeline and verifier core work shows here",
        path: Path::Online,
        source: "tpcc",
        rows: 0,
        clients: 4,
        txns_per_client: 9_000,
        skew_bound: 2_000,
    },
    Workload {
        name: "serve_2stream",
        why: "daemon path: two concurrent streams into leopard serve at product defaults; periodic full-image checkpoints dominate, so checkpoint and codec work shows here only",
        path: Path::Serve,
        source: "smallbank",
        rows: 2_000,
        clients: 8,
        txns_per_client: 1_500,
        skew_bound: 0,
    },
    Workload {
        name: "audit_spill",
        why: "same verifier and version store run through the disk tier at a quarter of the needed memory, so a core change that hurts the spilling use shows",
        path: Path::AuditSpill,
        source: "smallbank",
        rows: 2_000,
        clients: 8,
        txns_per_client: 600,
        skew_bound: 0,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The generator recipe at `seed`; `--smoke` divides the input by 20.
    pub fn spec(&self, seed: u64, smoke: bool) -> CleanRunSpec {
        CleanRunSpec {
            workload: self.source.to_string(),
            rows: self.rows,
            clients: self.clients,
            txns_per_client: if smoke {
                (self.txns_per_client / 20).max(1)
            } else {
                self.txns_per_client
            },
            level: LEVEL,
            seed,
            tick: 100,
            schedule: Schedule::Interleaved,
        }
    }

    /// The verifier configuration the reference verdict is computed with.
    pub fn verifier_config(&self) -> VerifierConfig {
        let mut cfg = VerifierConfig::for_level(LEVEL);
        cfg.clock_skew_bound = self.skew_bound;
        cfg
    }
}

/// What a checker run must report for an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Verdict {
    /// No violation found.
    pub clean: bool,
    /// Traces verified.
    pub traces: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Violations reported.
    pub violations: u64,
}

impl Verdict {
    /// The verdict part of a verifier outcome.
    pub fn of(outcome: &VerifyOutcome) -> Verdict {
        Verdict {
            clean: outcome.report.is_clean(),
            traces: outcome.counters.traces,
            committed: outcome.counters.committed,
            violations: outcome.report.violations.len() as u64,
        }
    }
}

/// Replays a capture through the plain sequential verifier.
pub fn verify_sequential(cap: &Capture, cfg: VerifierConfig) -> VerifyOutcome {
    let mut v = Verifier::new(cfg);
    for &(k, val) in &cap.header.preload {
        v.preload(k, val);
    }
    for t in &cap.traces {
        v.process(t);
    }
    v.finish()
}

/// Identity of one generated input; two set-ups of one seed must agree on it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// The generator recipe, as its description line.
    pub spec: String,
    /// Traces in the capture.
    pub traces: u64,
    /// Transactions the reference verifier saw commit.
    pub committed: u64,
    /// Encoded size in bytes.
    pub bytes: u64,
    /// FxHash of the encoded bytes, in hex.
    pub hash: String,
}

/// FxHash of a byte string, the hash the wire protocol already uses.
pub fn fxhash(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// Generates the capture for `spec`, returning it with the seconds it took.
pub fn generate(spec: &CleanRunSpec) -> Result<(Capture, f64), String> {
    let t0 = Instant::now();
    let cap = generate_clean_capture(spec)?;
    Ok((cap, t0.elapsed().as_secs_f64()))
}

/// The handshake a stream of `cap` opens with.
pub fn hello(cap: &Capture, stream: &str) -> Vec<u8> {
    Frame::Hello(Hello {
        version: WIRE_VERSION,
        stream: stream.to_string(),
        description: cap.header.description.clone(),
        level: LEVEL,
        mem_budget: 0,
        preload: cap.header.preload.clone(),
    })
    .to_bytes()
}

/// Every trace of `cap` as sequenced Trace frames, then Bye.
pub fn wire_body(cap: &Capture) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, trace) in cap.traces.iter().enumerate() {
        let frame = Frame::Trace(TraceFrame {
            seq: i as u64 + 1,
            trace: trace.clone(),
        });
        out.extend_from_slice(&frame.to_bytes());
    }
    let bye = Frame::Bye {
        traces_sent: cap.traces.len() as u64,
    };
    out.extend_from_slice(&bye.to_bytes());
    out
}

/// The canary: the golden corpus's clean base at `seed` with one gadget of
/// each anomaly class appended. A checker that stopped checking passes every
/// clean workload; it cannot pass this one.
pub fn canary(seed: u64) -> Result<Capture, String> {
    let base = generate_clean_capture(&CleanRunSpec {
        seed,
        ..CleanRunSpec::corpus_default()
    })?;
    Ok(AnomalyClass::ALL
        .iter()
        .fold(base, |cap, &class| Mutation::anomaly(class).apply(&cap)))
}

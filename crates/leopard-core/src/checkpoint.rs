//! Checkpoint/resume for long verification runs.
//!
//! A [`Checkpoint`] is a complete, plain-data image of a
//! [`crate::verify::Verifier`] mid-stream: the transaction table, version
//! chains, lock table, dependency graph, deferred read checks, quarantine
//! gate and all accumulated results. Writing one on an interval (or on
//! demand) makes a days-long online verification crash-safe: after a kill,
//! `leopard verify --resume <ckpt>` rebuilds the verifier with
//! [`crate::verify::Verifier::from_checkpoint`], skips the first
//! [`Checkpoint::traces_ingested`] traces of the capture, and continues to
//! a verdict identical to the uninterrupted run.
//!
//! The format is versioned JSON. All maps are flattened to sorted vectors
//! (the offline-capable serde stub has no `HashMap` support, and sorting
//! makes checkpoints byte-stable for identical verifier states).

use crate::budget::MemBudget;
use crate::interval::Interval;
use crate::report::BugReport;
use crate::stats::DeductionStats;
use crate::types::{ClientId, Key, Timestamp, TxnId, Value};
use crate::verify::{
    Coverage, KeyLocks, KeyVersions, NodeSnap, SpillIndexEntry, TxnSnap, VerifierConfig,
    VerifyCounters,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Current checkpoint format version; bumped on incompatible change.
///
/// Version 3: pending reads are ordered by their birth position in the
/// stream (`born_seq`, `born_elem`) instead of a private heap counter; the
/// counter field was dropped.
///
/// Version 4: checkpoints became incremental under the spill tier — the
/// image carries a spill index (paged-out records stay in their segment
/// files instead of being folded into the JSON) and the budget counters
/// grew spill accounting. Written through
/// [`crate::store::GenChain`] when spilling is enabled, with CRC'd
/// generations and corrupt-head fallback.
///
/// Version 5: the key-sharded engine is gone — matched reads lost their
/// cross-shard ordering key and the sharded envelope no longer exists.
///
/// Version 6: the spill tier packs records into a log, so a spill-index
/// address is (segment, byte offset, length, sequence) instead of a page
/// range, and the image carries the level the overload ladder is armed
/// at ([`Checkpoint::armed`]).
pub const CHECKPOINT_VERSION: u32 = 6;

/// A deferred consistent-read check, flattened for checkpointing
/// (mirrors the verifier's private pending-read heap entries).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PendingReadSnap {
    /// Stream position at which the check becomes runnable.
    pub due: Timestamp,
    /// Stream sequence of the trace that deferred the check (tie-break).
    pub born_seq: u64,
    /// Element index within that trace's read set (second tie-break).
    pub born_elem: u64,
    /// The reading transaction.
    pub reader: TxnId,
    /// The record read.
    pub key: Key,
    /// The value observed.
    pub observed: Value,
    /// The snapshot interval to check against.
    pub snapshot: Interval,
    /// The read operation's own interval.
    pub read_op: Interval,
}

/// A complete verifier state image. See the module docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The configuration the run was started with; resume refuses a
    /// mismatched configuration (it would change the verdict).
    pub config: VerifierConfig,
    /// Stream position (max `ts_bef` ingested, after skew widening).
    pub stream_pos: Timestamp,
    /// Version-uid counter of the version store.
    pub next_uid: u64,
    /// Traces ingested so far — the resume cursor: skip this many traces
    /// of the capture before feeding the restored verifier.
    pub traces_ingested: u64,
    /// Transaction table.
    pub txns: Vec<TxnSnap>,
    /// Version store.
    pub versions: Vec<KeyVersions>,
    /// Lock table.
    pub locks: Vec<KeyLocks>,
    /// Dependency graph.
    pub graph: Vec<NodeSnap>,
    /// Deferred read checks.
    pub pending_reads: Vec<PendingReadSnap>,
    /// Quarantine gate: traces seen by the gate.
    pub quarantine_seq: u64,
    /// Quarantine gate: last admitted `ts_bef` per client.
    pub quarantine_clients: Vec<(ClientId, Timestamp)>,
    /// Quarantine gate: transactions with an admitted terminal.
    pub quarantine_terminals: Vec<TxnId>,
    /// Run counters.
    pub counters: VerifyCounters,
    /// Deduction statistics.
    pub stats: DeductionStats,
    /// Violations found so far.
    pub report: BugReport,
    /// Coverage accumulated so far.
    pub coverage: Coverage,
    /// Spill index: records paged out to the spill tier at checkpoint
    /// time, with their durable addresses. Empty when no tier is
    /// attached. Resume must re-attach the same spill directory
    /// ([`crate::verify::Verifier::resume_spill`]) when non-empty.
    pub spill: Vec<SpillIndexEntry>,
    /// The usage above which the overload ladder next forces a GC and a
    /// spill pass: the configured budget, or higher after a relief that
    /// could not get usage comfortably below it.
    pub armed: MemBudget,
}

/// Just enough of an image to tell which version wrote it.
#[derive(Deserialize)]
struct ImageVersion {
    version: u32,
    /// Present in every image version; keeps documents that merely
    /// carry a `version` field from passing for one.
    #[allow(dead_code)]
    traces_ingested: u64,
}

/// Why a checkpoint could not be written, read or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file carries an unsupported format version.
    Version {
        /// Version found in the file.
        found: u32,
        /// Version this build supports.
        expected: u32,
    },
    /// The file is not valid checkpoint JSON.
    Malformed(String),
    /// The file could not be read or written.
    Io(std::io::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Version { found, expected } => write!(
                f,
                "unsupported checkpoint version {found} (this build supports {expected})"
            ),
            CheckpointError::Malformed(e) => write!(f, "malformed checkpoint: {e}"),
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Writes `json` to `path` atomically *and durably*: write to a
/// temporary sibling, fsync the file, rename over `path`, then fsync the
/// parent directory. The directory fsync is what makes the rename itself
/// survive a power loss — without it the new directory entry can still be
/// sitting in the page cache when the machine dies, and the checkpoint
/// "written" before the crash simply never existed on disk.
pub(crate) fn write_atomic_durable(path: &Path, json: &str) -> Result<(), CheckpointError> {
    let tmp = path.with_extension("ckpt.tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(json.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    // Opening a directory read-only for fsync is the portable unix idiom.
    fs::File::open(parent)?.sync_all()?;
    Ok(())
}

/// Converts a spill-store failure surfaced by the generation chain into
/// the checkpoint error taxonomy.
fn store_to_ckpt(e: crate::store::StoreError) -> CheckpointError {
    match e {
        crate::store::StoreError::Io(io) => CheckpointError::Io(io),
        other => CheckpointError::Malformed(other.to_string()),
    }
}

/// Appends `json` as a new generation of the [`crate::store::GenChain`]
/// rooted at `path` (manifest + CRC-verified generation files).
fn write_chained_json(path: &Path, json: &str) -> Result<(), CheckpointError> {
    let chain = crate::store::GenChain::new(path);
    chain
        .append(&crate::store::FsIo, json.as_bytes())
        .map(|_gen| ())
        .map_err(store_to_ckpt)
}

/// Loads the newest good generation at `path`, accepting plain (legacy)
/// checkpoint files transparently. Returns the JSON plus a warning when
/// the head generation was corrupt and an older one was used.
fn read_chained_json(path: &Path) -> Result<(String, Option<String>), CheckpointError> {
    let chain = crate::store::GenChain::new(path);
    let load = chain
        .load_latest(&crate::store::FsIo)
        .map_err(store_to_ckpt)?
        .ok_or_else(|| {
            CheckpointError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no checkpoint at {}", path.display()),
            ))
        })?;
    let json = String::from_utf8(load.payload)
        .map_err(|e| CheckpointError::Malformed(format!("checkpoint is not utf-8: {e}")))?;
    Ok((json, load.warning))
}

impl Checkpoint {
    /// Serializes to one JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serializes")
    }

    /// Parses a JSON document, validating the format version.
    pub fn from_json(json: &str) -> Result<Checkpoint, CheckpointError> {
        let version = |found: u32| {
            (found != CHECKPOINT_VERSION).then_some(CheckpointError::Version {
                found,
                expected: CHECKPOINT_VERSION,
            })
        };
        match serde_json::from_str::<Checkpoint>(json) {
            Ok(ckpt) => version(ckpt.version).map_or(Ok(ckpt), Err),
            // An image of another version need not parse as this one (a
            // version-5 spill index does not): refuse it for its
            // version, not as damage.
            Err(e) => Err(serde_json::from_str::<ImageVersion>(json)
                .ok()
                .and_then(|image| version(image.version))
                .unwrap_or_else(|| CheckpointError::Malformed(e.to_string()))),
        }
    }

    /// Writes the checkpoint to `path` atomically and durably
    /// (write-to-temp, fsync, rename, fsync parent directory), so a
    /// crash mid-write never leaves a truncated checkpoint behind and a
    /// power loss after the rename cannot lose the directory entry.
    pub fn write(&self, path: &Path) -> Result<(), CheckpointError> {
        write_atomic_durable(path, &self.to_json())
    }

    /// Reads and parses a checkpoint from `path`.
    pub fn read(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let json = fs::read_to_string(path)?;
        Checkpoint::from_json(&json)
    }

    /// Writes the checkpoint as a new generation of the generation chain
    /// rooted at `path` (see [`crate::store::GenChain`]): the image goes
    /// to a CRC-recorded sibling generation file and the manifest at
    /// `path` is atomically updated, keeping the previous generation as
    /// a verified fallback.
    pub fn write_chained(&self, path: &Path) -> Result<(), CheckpointError> {
        write_chained_json(path, &self.to_json())
    }

    /// Reads the newest *good* checkpoint generation at `path`, falling
    /// back generation-by-generation past truncated or corrupt heads.
    /// Plain (pre-chain) checkpoint files are accepted transparently.
    /// Returns the checkpoint plus a warning describing any fallback —
    /// a degraded-but-safe load the caller should surface, not abort on.
    pub fn read_chained(path: &Path) -> Result<(Checkpoint, Option<String>), CheckpointError> {
        let (json, warning) = read_chained_json(path)?;
        Ok((Checkpoint::from_json(&json)?, warning))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::IsolationLevel;
    use crate::trace::TraceBuilder;
    use crate::verify::Verifier;

    #[test]
    fn json_round_trip_is_identity() {
        let mut v = Verifier::new(VerifierConfig::for_level(IsolationLevel::Serializable));
        v.preload(Key(1), Value(0));
        let mut b = TraceBuilder::new();
        b.write(10, 12, 0, 1, vec![(1, 10)]);
        b.commit(13, 15, 0, 1);
        b.read(20, 22, 1, 2, vec![(1, 10)]);
        for t in b.build_sorted() {
            v.process(&t);
        }
        let ckpt = v.checkpoint();
        let back = Checkpoint::from_json(&ckpt.to_json()).expect("round-trips");
        assert_eq!(back, ckpt);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let v = Verifier::new(VerifierConfig::for_level(IsolationLevel::Serializable));
        let mut ckpt = v.checkpoint();
        for found in [99, 4] {
            ckpt.version = found;
            let err = Checkpoint::from_json(&ckpt.to_json()).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Version { found: f, .. } if f == found),
                "{err}"
            );
        }
        // The envelope the removed sharded engine wrote at version 4: its
        // per-shard images sit one level down, so it is not an image at all.
        let image = ckpt.to_json();
        let envelope = format!(
            r#"{{"version":4,"n_shards":2,"config":{},"traces_fed":0,"shards":[{image},{image}],"graph":[]}}"#,
            serde_json::to_string(&ckpt.config).expect("config serializes"),
        );
        let err = Checkpoint::from_json(&envelope).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(_)), "{err}");
    }

    /// A version-5 image whose spill index is not empty does not parse as
    /// this version's (its addresses are page ranges); it must be refused
    /// for its version, not as damage — and never read as if the page
    /// numbers were byte offsets.
    #[test]
    fn v5_image_with_a_spill_index_is_refused_for_its_version() {
        let v = Verifier::new(VerifierConfig::for_level(IsolationLevel::Serializable));
        let v6 = v.checkpoint().to_json();
        let v5 = v6.replace(r#""version":6"#, r#""version":5"#).replace(
            r#""spill":[]"#,
            r#""spill":[{"key":7,"versions":2,"addr":{"segment":0,"page":3,"parts":1,"seq":9}}]"#,
        );
        assert_ne!(v5, v6, "the image has the fields this test rewrites");
        let v5 = v5
            .rsplit_once(r#","armed""#)
            .expect("armed is last")
            .0
            .to_string()
            + "}";
        let err = Checkpoint::from_json(&v5).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::Version {
                    found: 5,
                    expected: CHECKPOINT_VERSION
                }
            ),
            "{err}"
        );
        // The same document without a version it could be refused for is
        // damage, as before.
        let err =
            Checkpoint::from_json(&v5.replace(r#""version":5"#, r#""version":6"#)).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(_)), "{err}");
    }

    #[test]
    fn file_round_trip() {
        let v = Verifier::new(VerifierConfig::for_level(IsolationLevel::Serializable));
        let ckpt = v.checkpoint();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("leopard-ckpt-test-{}.json", std::process::id()));
        ckpt.write(&path).expect("writes");
        let back = Checkpoint::read(&path).expect("reads");
        let _ = fs::remove_file(&path);
        assert_eq!(back, ckpt);
    }
}

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
//!
//! On disk every image has one layout, whoever wrote it and whether or
//! not a spill tier is attached ([`Checkpoint::store`] /
//! [`Checkpoint::load`]): the JSON document under a length + CRC-32
//! seal, with the image it replaced kept beside it as the single
//! fallback (DESIGN.md §7.3).

use crate::budget::MemBudget;
use crate::interval::Interval;
use crate::report::BugReport;
use crate::stats::DeductionStats;
use crate::store::crc32::crc32;
use crate::store::{FsIo, StoreIo};
use crate::types::{ClientId, Key, Timestamp, TxnId, Value};
use crate::verify::{
    Coverage, KeyLocks, KeyVersions, NodeSnap, SpillIndexEntry, TxnSnap, VerifierConfig,
    VerifyCounters,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};

/// Current checkpoint format version; bumped on incompatible change.
///
/// Version 3: pending reads are ordered by their birth position in the
/// stream (`born_seq`, `born_elem`) instead of a private heap counter; the
/// counter field was dropped.
///
/// Version 4: checkpoints became incremental under the spill tier — the
/// image carries a spill index (paged-out records stay in their segment
/// files instead of being folded into the JSON) and the budget counters
/// grew spill accounting.
///
/// Version 5: the key-sharded engine is gone — matched reads lost their
/// cross-shard ordering key and the sharded envelope no longer exists.
///
/// Version 6: the spill tier packs records into a log, so a spill-index
/// address is (segment, byte offset, length, sequence) instead of a page
/// range, and the image carries the level the overload ladder is armed
/// at ([`Checkpoint::armed`]).
pub const CHECKPOINT_VERSION: u32 = 6;

/// A deferred consistent-read check: the entry of the verifier's
/// pending-read heap, and what an image carries of it.
///
/// Ordered by `due` and then by the check's *birth position* in the
/// stream — (trace sequence, element index), which no two checks share —
/// so equal-`due` checks run in the order they were deferred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

impl Ord for PendingReadSnap {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let key = |p: &Self| (p.due, p.born_seq, p.born_elem);
        key(self).cmp(&key(other))
    }
}
impl PartialOrd for PendingReadSnap {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
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
    /// attached. Resume ([`crate::verify::engine::open`]) must re-attach
    /// the same spill directory when non-empty.
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
    /// No image at the path verifies: no seal (which is also what a
    /// plain-JSON or manifest file of an older build lacks), a length that
    /// disagrees with the file, or a CRC mismatch — in the head image
    /// and, where one exists, in the previous image too.
    Corrupt(String),
    /// The image was written under a different verifier configuration;
    /// resuming it under this one would change the verdict.
    ConfigMismatch,
    /// The image references spilled records but no spill tier holding
    /// them could be attached.
    SpillUnavailable(String),
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
            CheckpointError::Corrupt(e) => write!(f, "corrupt checkpoint: {e}"),
            CheckpointError::ConfigMismatch => write!(
                f,
                "the configuration differs from the one the checkpoint was written under"
            ),
            CheckpointError::SpillUnavailable(e) => write!(f, "{e}"),
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

/// Marks the seal at the end of every image file. Files of the two
/// layouts older builds wrote (a bare JSON document, a generation
/// manifest) end in `}` and are refused for it, not parsed.
const IMAGE_MAGIC: [u8; 8] = *b"LEOPIMG1";

/// Seal size: magic, `u64le` document length, `u32le` CRC-32 of the
/// document, the magic and the length.
const SEAL: usize = 8 + 8 + 4;

/// Appends the seal to a JSON document, in place: the seal trails the
/// document so that an image is never held in memory twice.
fn seal(json: String) -> Vec<u8> {
    let mut file = json.into_bytes();
    let len = file.len() as u64;
    file.extend_from_slice(&IMAGE_MAGIC);
    file.extend_from_slice(&len.to_le_bytes());
    let crc = crc32(&file);
    file.extend_from_slice(&crc.to_le_bytes());
    file
}

/// The JSON document inside an image file, if its seal verifies.
fn unseal(file: &[u8]) -> Result<&str, String> {
    if file.len() < SEAL {
        return Err("is not a checkpoint image (too short)".to_string());
    }
    let (sealed, crc) = file.split_at(file.len() - 4);
    let (body, tail) = sealed.split_at(sealed.len() - 16);
    if tail[..8] != IMAGE_MAGIC {
        return Err(
            "is not a checkpoint image (no seal; the plain-JSON and manifest files \
                    older builds wrote are not read)"
                .to_string(),
        );
    }
    if tail[8..] != (body.len() as u64).to_le_bytes() {
        return Err(format!(
            "has a length field that disagrees with the {} bytes present",
            body.len()
        ));
    }
    let found = crc32(sealed);
    if crc != found.to_le_bytes() {
        return Err(format!("fails its crc (computed {found:#010x})"));
    }
    std::str::from_utf8(body).map_err(|e| format!("is not utf-8: {e}"))
}

/// Where the image that `path` held before the newest write is kept.
fn previous_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".prev");
    PathBuf::from(name)
}

/// An image read back by [`Checkpoint::load`].
#[derive(Debug)]
pub struct LoadedImage {
    /// The image.
    pub checkpoint: Checkpoint,
    /// Set when the head image was missing or did not verify and the
    /// previous image was used: a degraded-but-safe load the caller
    /// should surface, not abort on — the older image plus its resume
    /// cursor reaches the identical verdict.
    pub warning: Option<String>,
    /// Byte length of the image's JSON document.
    pub bytes: u64,
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

    /// Writes the image file at `path` — the one layout every image has,
    /// with or without a spill tier: [`Checkpoint::to_json`] followed by a
    /// magic + length + CRC-32 seal, replaced atomically and durably
    /// ([`StoreIo::write_atomic`]). The file `path` held before is first
    /// renamed to `<path>.prev` and stays there as the one fallback
    /// [`Checkpoint::load`] has; between the two renames `path` does not
    /// exist and `<path>.prev` is the newest image. (Only a head that
    /// verified is ever there to be renamed: `load` removes one it
    /// refused.) Returns the byte length of the JSON document.
    pub fn store(&self, io: &dyn StoreIo, path: &Path) -> std::io::Result<u64> {
        let file = seal(self.to_json());
        match io.rename(path, &previous_path(path)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        io.write_atomic(path, &file)?;
        Ok((file.len() - SEAL) as u64)
    }

    /// [`Checkpoint::store`] on the real filesystem.
    pub fn write(&self, path: &Path) -> Result<(), CheckpointError> {
        self.store(&FsIo, path)?;
        Ok(())
    }

    /// Reads the image at `path` back: the head if its seal verifies,
    /// else the previous image with a [`LoadedImage::warning`], else
    /// [`CheckpointError::Corrupt`]. `Ok(None)` when neither file exists.
    /// A head refused for the previous image is removed, so that the next
    /// [`Checkpoint::store`] does not rotate it over the one good image
    /// before its own write is durable.
    /// A document that verifies but does not parse as this build's
    /// version is refused as such; the previous image is no older a
    /// version and is not tried.
    pub fn load(io: &dyn StoreIo, path: &Path) -> Result<Option<LoadedImage>, CheckpointError> {
        let read = |path: &Path| match io.read(path) {
            Ok(file) => Ok(Some(file)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(CheckpointError::Io(e)),
        };
        let loaded = |json: &str, warning: Option<String>| {
            Checkpoint::from_json(json).map(|checkpoint| {
                Some(LoadedImage {
                    checkpoint,
                    warning,
                    bytes: json.len() as u64,
                })
            })
        };
        let head = match read(path)? {
            None => None,
            Some(file) => match unseal(&file) {
                Ok(json) => return loaded(json, None),
                Err(why) => Some(why),
            },
        };
        let previous = read(&previous_path(path))?;
        if head.is_none() && previous.is_none() {
            return Ok(None);
        }
        let head = head.unwrap_or_else(|| "is missing (an image write was interrupted)".into());
        let Some(previous) = previous else {
            return Err(CheckpointError::Corrupt(format!(
                "head image {head}; there is no previous image"
            )));
        };
        match unseal(&previous) {
            Ok(json) => {
                let image = loaded(
                    json,
                    Some(format!(
                        "checkpoint head image {head}; resumed from the previous image"
                    )),
                )?;
                io.remove(path)?;
                Ok(image)
            }
            Err(why) => Err(CheckpointError::Corrupt(format!(
                "head image {head}; previous image {why}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::IsolationLevel;
    use crate::store::io::{FaultIo, FaultSpec};
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

    // --- The image file: one layout, one fallback -------------------------

    /// A fresh directory, and the image path tests use inside it.
    fn image_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("leopard-image-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join("state.ckpt")
    }

    /// Distinguishable images: an empty verifier's, at cursor `cursor`.
    fn image(cursor: u64) -> Checkpoint {
        let v = Verifier::new(VerifierConfig::for_level(IsolationLevel::Serializable));
        Checkpoint {
            traces_ingested: cursor,
            ..v.checkpoint()
        }
    }

    /// Loads `path`: the cursor of the image that came back and whether it
    /// came with a fallback warning, or `None` for no image.
    fn load(path: &Path) -> Result<Option<(u64, bool)>, CheckpointError> {
        let loaded = Checkpoint::load(&FsIo, path)?;
        Ok(loaded.map(|l| (l.checkpoint.traces_ingested, l.warning.is_some())))
    }

    fn damage(path: &Path, how: impl FnOnce(&mut Vec<u8>)) {
        let mut file = std::fs::read(path).expect("image file");
        how(&mut file);
        std::fs::write(path, &file).expect("damage");
    }

    #[test]
    fn the_head_wins_when_good_and_the_previous_image_is_the_one_fallback() {
        let path = image_path("fallback");
        assert!(matches!(load(&path), Ok(None)), "absent is not an error");
        image(1).write(&path).expect("first image");
        let bytes = image(2).store(&FsIo, &path).expect("second image");
        assert_eq!(bytes, image(2).to_json().len() as u64);
        let loaded = Checkpoint::load(&FsIo, &path)
            .expect("loads")
            .expect("present");
        assert_eq!((&loaded.checkpoint, loaded.bytes), (&image(2), bytes));
        assert_eq!(loaded.warning, None);
        // A head that does not verify — flipped byte, truncated, or gone,
        // which is what a crash between the two renames leaves — loads the
        // image it replaced, with a warning, and is not kept.
        let head = std::fs::read(&path).expect("head");
        let refused = |what: &str, how: fn(&mut Vec<u8>)| {
            std::fs::write(&path, &head).expect("restore head");
            damage(&path, how);
            assert!(matches!(load(&path), Ok(Some((1, true)))), "{what}");
            assert!(!path.exists(), "{what}: the refused head is still there");
        };
        refused("flipped byte", |file| file[5] ^= 0x01);
        refused("truncated", |file| file.truncate(SEAL + 3));
        assert!(matches!(load(&path), Ok(Some((1, true)))), "missing");
        // Nothing that verifies is a typed error, with or without a
        // previous image to have tried.
        std::fs::write(&path, &head).expect("restore head");
        for p in [previous_path(&path), path.clone()] {
            damage(&p, |file| file[0] ^= 0x40);
            let err = load(&path).err();
            assert!(
                matches!(err, None | Some(CheckpointError::Corrupt(_))),
                "{err:?}"
            );
        }
        assert!(load(&path).is_err(), "both bad");
        std::fs::remove_file(previous_path(&path)).expect("remove previous");
        assert!(matches!(load(&path), Err(CheckpointError::Corrupt(_))));
    }

    /// A head that failed its seal is never rotated over the good previous
    /// image: the write after a fallback load may fail, and the previous
    /// image is still what loads.
    #[test]
    fn a_failed_store_after_a_fallback_load_keeps_the_previous_image() {
        let path = image_path("failed-store");
        image(1).write(&path).expect("first image");
        image(2).write(&path).expect("second image");
        damage(&path, |file| file[5] ^= 0x01);
        assert!(matches!(load(&path), Ok(Some((1, true)))));
        let full_disk = FaultIo::new(
            FsIo,
            FaultSpec {
                enospc_after_bytes: Some(0),
                ..FaultSpec::default()
            },
        );
        image(3).store(&full_disk, &path).expect_err("disk is full");
        let loaded = load(&path);
        assert!(matches!(loaded, Ok(Some((1, true)))), "{loaded:?}");
        // And a write that lands is the head again, with the image the
        // fallback found behind it.
        image(3).write(&path).expect("third image");
        assert!(matches!(load(&path), Ok(Some((3, false)))));
        damage(&path, |file| file[5] ^= 0x01);
        assert!(matches!(load(&path), Ok(Some((1, true)))));
    }

    /// The two layouts older builds wrote — a bare JSON document, a
    /// generation manifest — are refused for what they are, not parsed.
    #[test]
    fn files_in_the_old_layouts_are_refused_not_sniffed() {
        let path = image_path("old");
        let manifest = r#"{"genchain_version":1,"generations":[{"gen":1,"file":"state.ckpt.gen1","len":2,"crc32":0}]}"#;
        for old in [image(1).to_json(), manifest.to_string()] {
            std::fs::write(&path, &old).expect("old-layout file");
            let err = load(&path).expect_err("refused");
            assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
            assert!(err.to_string().contains("not a checkpoint image"), "{err}");
        }
    }

    /// Every truncation length and every single-bit flip of an image file
    /// fails the seal check, and — sampled through the file system,
    /// with nothing to fall back to — is refused by type: none loads as
    /// some other image.
    #[test]
    fn every_truncation_and_bit_flip_of_an_image_is_typed() {
        let path = image_path("exhaustive");
        image(1).write(&path).expect("image");
        let head = std::fs::read(&path).expect("head");
        let truncations = (0..head.len()).map(|len| head[..len].to_vec());
        let flips = (0..head.len() * 8).map(|bit| {
            let mut file = head.clone();
            file[bit / 8] ^= 1 << (bit % 8);
            file
        });
        for (i, file) in truncations.chain(flips).enumerate() {
            assert!(unseal(&file).is_err(), "damage #{i} verifies");
            if i % 61 == 0 {
                std::fs::write(&path, &file).expect("damage head");
                let loaded = load(&path);
                assert!(
                    matches!(loaded, Err(CheckpointError::Corrupt(_))),
                    "#{i}: {loaded:?}"
                );
            }
        }
    }
}

//! The spill tier: cold record chains appended to the segment log.
//!
//! [`SpillTier`] turns version chains into log records
//! ([`crate::wire::put_key_versions`]) and back. Which record lives at
//! which [`RecordAddr`] is the caller's knowledge (the version store
//! keeps one map for residency and addresses alike); the tier owns the
//! bytes, the retry policy and the failure latch.
//!
//! Error discipline (the tentpole contract):
//! * **write path** — a whole pass's records go out in one append that is
//!   read back and compared ([`SegmentLog::append`]); transient errors
//!   retry under the tier's [`RetryPolicy`]; persistent failure returns
//!   the error and the caller keeps every record of the batch in memory
//!   (clean fallback, counted);
//! * **read path** — transient errors retry; CRC/corruption failures
//!   poison the tier ([`StoreError::Poisoned`] thereafter), because a
//!   record that cannot be faulted back in means full-coverage
//!   verification is no longer possible — the caller must surface a
//!   typed fatal error, never guess.
//!
//! The tier is internally synchronized (one `TrackedMutex`), so the
//! verifier can sync it through `&self`.

use super::io::StoreIo;
use super::segment::{Batch, RecordAddr, SegmentLog};
use super::{RetryPolicy, SpillSettings, StoreError, StoreResult};
use crate::lockwitness::TrackedMutex;
use crate::obs;
use crate::types::Key;
use crate::verify::KeyVersions;
use crate::wire::{decode_key_versions, put_key_versions};

/// Spill-tier activity counters, for gauges and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Records written out to segments.
    pub records_out: u64,
    /// Records faulted back into memory.
    pub records_in: u64,
    /// Transient I/O retries performed.
    pub retries: u64,
    /// Batches abandoned to the in-memory fallback after retries.
    pub fallbacks: u64,
    /// Encoded bytes of the records written out, headers excluded.
    pub record_bytes_out: u64,
    /// Bytes appended to segments: those records and their headers.
    pub bytes_appended: u64,
    /// Bytes across all segment files.
    pub bytes_on_disk: u64,
    /// Bytes on disk that belong to records not yet faulted back in.
    pub live_bytes: u64,
}

impl SpillStats {
    /// Bytes appended per byte of record spilled, in thousandths.
    #[must_use]
    pub fn write_amp_milli(&self) -> u64 {
        self.bytes_appended * 1000 / self.record_bytes_out.max(1)
    }

    /// Share of the bytes on disk that is live records, in thousandths.
    #[must_use]
    pub fn live_ratio_milli(&self) -> u64 {
        self.live_bytes * 1000 / self.bytes_on_disk.max(1)
    }
}

#[derive(Debug)]
struct TierInner {
    io: Box<dyn StoreIo>,
    log: SegmentLog,
    /// The append buffer, reused from pass to pass.
    batch: Batch,
    retry: RetryPolicy,
    stats: SpillStats,
    /// Set on the first unrecoverable read-path failure; every later
    /// operation fails fast with [`StoreError::Poisoned`].
    poison: Option<String>,
}

impl TierInner {
    fn check_poison(&self) -> StoreResult<()> {
        match &self.poison {
            Some(p) => Err(StoreError::Poisoned(p.clone())),
            None => Ok(()),
        }
    }
}

/// A disk-backed store of spilled version chains. See the module docs.
#[derive(Debug)]
pub struct SpillTier {
    inner: TrackedMutex<TierInner>,
}

impl SpillTier {
    /// Opens (or re-opens, recovering a torn tail) the tier at
    /// `settings.dir` over the real filesystem — wrapped in a
    /// [`super::io::FaultIo`] injector when `settings.fault` enables any
    /// fault (chaos runs, CI fault matrix).
    pub fn open(settings: &SpillSettings) -> StoreResult<SpillTier> {
        if settings.fault.is_noop() {
            SpillTier::open_with(settings, Box::new(super::io::FsIo))
        } else {
            SpillTier::open_with(
                settings,
                Box::new(super::io::FaultIo::new(super::io::FsIo, settings.fault)),
            )
        }
    }

    /// Opens the tier over an injected [`StoreIo`] implementation.
    pub fn open_with(settings: &SpillSettings, io: Box<dyn StoreIo>) -> StoreResult<SpillTier> {
        let log = SegmentLog::open(io.as_ref(), &settings.dir)?;
        Ok(SpillTier {
            inner: TrackedMutex::new(
                "SpillTier.inner",
                TierInner {
                    log,
                    batch: Batch::default(),
                    retry: settings.retry,
                    stats: SpillStats::default(),
                    poison: None,
                    io,
                },
            ),
        })
    }

    /// Spills `records` with one verified append and returns where each
    /// landed, in order. On success the tier owns the only durable copy
    /// and the caller may drop the in-memory ones. On error nothing was
    /// kept and the caller **must** keep every record in memory (the
    /// error is the fallback signal; it is already counted in
    /// [`SpillStats::fallbacks`]).
    pub fn put_batch(&self, records: &[KeyVersions]) -> StoreResult<Vec<RecordAddr>> {
        let n = records.len() as u64;
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        inner.check_poison()?;
        inner.batch.clear();
        for record in records {
            inner.batch.push(|buf| put_key_versions(buf, record));
        }
        let TierInner {
            io,
            log,
            batch,
            retry,
            stats,
            ..
        } = inner;
        let result = retry.run(
            |_| {
                stats.retries += 1;
                obs::ctr(obs::Counter::SpillRetries, 1);
            },
            // SegmentLog and RetryPolicy hold no lock of their own; a
            // `FaultIo` under them does, always taken after this one
            // (`SpillTier.inner -> FaultIo.state`, the workspace's one
            // nested acquisition).
            || log.append(io.as_ref(), batch),
        );
        match &result {
            Ok(_) => {
                stats.records_out += n;
                stats.record_bytes_out += batch.payload_bytes() as u64;
                stats.bytes_appended += batch.bytes() as u64;
                obs::ctr(obs::Counter::SpillRecordsOut, n);
            }
            Err(_) => {
                // Write-path failure is never fatal: the caller keeps the
                // records in memory. A mismatching read-back of a fresh
                // write is treated the same way — the disk copy is
                // abandoned, the memory copy is authoritative.
                stats.fallbacks += 1;
                obs::ctr(obs::Counter::SpillFallbacks, 1);
            }
        }
        result
    }

    /// Faults the record for `key` back in from `addr` and gives its
    /// bytes up (the in-memory copy becomes authoritative again; the
    /// disk bytes become garbage).
    pub fn take(&self, key: Key, addr: &RecordAddr) -> StoreResult<KeyVersions> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        inner.check_poison()?;
        let TierInner {
            io,
            log,
            retry,
            stats,
            ..
        } = inner;
        let read = retry.run(
            |_| {
                stats.retries += 1;
                obs::ctr(obs::Counter::SpillRetries, 1);
            },
            || log.read(io.as_ref(), addr),
        );
        let record = read.and_then(|payload| {
            let record = decode_key_versions(&payload)
                .map_err(|e| StoreError::corrupt(format!("record failed to decode: {e}")))?;
            if record.key == key {
                Ok(record)
            } else {
                Err(StoreError::corrupt(format!(
                    "the index points at a record for {:?}",
                    record.key
                )))
            }
        });
        match record {
            Ok(record) => {
                inner.log.mark_dead(addr);
                inner.stats.records_in += 1;
                obs::ctr(obs::Counter::SpillRecordsIn, 1);
                Ok(record)
            }
            Err(e) => {
                // Unrecoverable read failure: full coverage is gone — a
                // spilled record cannot be reconstructed. Poison so every
                // caller sees a typed error instead of a partial store.
                inner.poison = Some(format!("record for {key:?} unreadable: {e}"));
                obs::ctr(obs::Counter::SpillIoErrors, 1);
                Err(e)
            }
        }
    }

    /// Resume path: `live` are the records a checkpoint's spill index
    /// names; whole segments it names nothing in are removed.
    pub fn adopt_live(&self, live: impl Iterator<Item = RecordAddr>) {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        inner.log.retain_only(inner.io.as_ref(), live);
    }

    /// Durably flushes the active segment, with retries. Called before
    /// a checkpoint is written so the image never references unsynced
    /// records.
    pub fn sync(&self) -> StoreResult<()> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        inner.check_poison()?;
        let TierInner {
            io,
            log,
            retry,
            stats,
            ..
        } = inner;
        retry.run(
            |_| {
                stats.retries += 1;
                obs::ctr(obs::Counter::SpillRetries, 1);
            },
            || log.sync(io.as_ref()),
        )
    }

    /// The poison message, if the tier has failed unrecoverably.
    #[must_use]
    pub fn poisoned(&self) -> Option<String> {
        self.inner.lock().poison.clone()
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> SpillStats {
        let inner = self.inner.lock();
        SpillStats {
            bytes_on_disk: inner.log.bytes_on_disk(),
            live_bytes: inner.log.live_bytes(),
            ..inner.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::io::{FaultIo, FaultSpec, FsIo};
    use super::super::segment::{RECORD_HEADER, SEGMENT_HEADER};
    use super::*;
    use crate::interval::Interval;
    use crate::types::{Timestamp, TxnId, Value};
    use crate::verify::VersionEntry;
    use std::path::{Path, PathBuf};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("leopard-store-tier-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(key: u64, versions: usize) -> KeyVersions {
        let entries = (0..versions)
            .map(|i| VersionEntry {
                uid: crate::verify::VersionUid(i as u64 + 1),
                value: Value(i as u64),
                txn: TxnId(i as u64 + 1),
                install: Interval::new(Timestamp(i as u64 * 10), Timestamp(i as u64 * 10 + 1)),
                visibility: Some(Interval::new(
                    Timestamp(i as u64 * 10 + 2),
                    Timestamp(i as u64 * 10 + 3),
                )),
                writer_snapshot: Interval::new(Timestamp(0), Timestamp(1)),
                readers: vec![(TxnId(90 + i as u64), Interval::GENESIS)],
            })
            .collect();
        KeyVersions {
            key: Key(key),
            entries,
        }
    }

    /// Bytes one `record(_, 1)` occupies in a segment.
    fn one_record_bytes() -> u64 {
        let mut payload = Vec::new();
        put_key_versions(&mut payload, &record(1, 1));
        (RECORD_HEADER + payload.len()) as u64
    }

    fn settings(dir: &Path) -> SpillSettings {
        SpillSettings {
            dir: dir.to_path_buf(),
            retry: RetryPolicy::none(),
            fault: super::super::io::FaultSpec::default(),
        }
    }

    fn put(tier: &SpillTier, rec: &KeyVersions) -> StoreResult<RecordAddr> {
        tier.put_batch(std::slice::from_ref(rec)).map(|a| a[0])
    }

    #[test]
    fn put_take_round_trip() {
        let dir = tmp_dir("rt");
        let tier = SpillTier::open(&settings(&dir)).expect("open");
        let recs = [record(7, 5), record(8, 0), record(9, 1)];
        let addrs = tier.put_batch(&recs).expect("put");
        assert_eq!(addrs.len(), 3);
        assert!(tier.stats().live_bytes > 0);
        for (rec, addr) in recs.iter().zip(&addrs).rev() {
            assert_eq!(&tier.take(rec.key, addr).expect("take"), rec);
        }
        let stats = tier.stats();
        assert_eq!(stats.records_out, 3);
        assert_eq!(stats.records_in, 3);
        assert_eq!(stats.live_bytes, 0, "taken records are garbage");
        assert_eq!(
            stats.bytes_appended,
            stats.record_bytes_out + 3 * RECORD_HEADER as u64
        );
        assert_eq!(
            stats.bytes_on_disk,
            stats.bytes_appended + SEGMENT_HEADER as u64
        );
        assert!((1000..2000).contains(&stats.write_amp_milli()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn take_under_the_wrong_key_is_corrupt() {
        let dir = tmp_dir("wrongkey");
        let tier = SpillTier::open(&settings(&dir)).expect("open");
        let addr = put(&tier, &record(3, 2)).expect("put");
        let err = tier.take(Key(4), &addr).expect_err("index/data disagree");
        assert!(matches!(err, StoreError::Corrupt(_)), "typed: {err}");
        assert!(tier.poisoned().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_put_falls_back_cleanly() {
        let dir = tmp_dir("enospc");
        let io = FaultIo::new(
            FsIo,
            FaultSpec {
                // segment header + one record
                enospc_after_bytes: Some(SEGMENT_HEADER as u64 + one_record_bytes()),
                ..FaultSpec::default()
            },
        );
        let tier = SpillTier::open_with(&settings(&dir), Box::new(io)).expect("open");
        let addr = put(&tier, &record(1, 1)).expect("first put fits");
        let err = put(&tier, &record(2, 1)).expect_err("second put hits ENOSPC");
        assert!(matches!(err, StoreError::Io(_)), "typed i/o error: {err}");
        // The tier is NOT poisoned by a write failure: reads still work
        // and the caller keeps record 2 in memory.
        assert!(tier.poisoned().is_none());
        assert_eq!(tier.take(Key(1), &addr).expect("take"), record(1, 1));
        assert_eq!(tier.stats().fallbacks, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_is_caught_by_read_back() {
        let dir = tmp_dir("torn");
        // Lay the segment down cleanly first so reopening under the
        // always-torn spec does not fail at the header write.
        put(
            &SpillTier::open(&settings(&dir)).expect("clean open"),
            &record(0, 1),
        )
        .expect("clean put");
        let io = FaultIo::new(
            FsIo,
            FaultSpec {
                seed: 3,
                torn_write_prob: 1.0,
                ..FaultSpec::default()
            },
        );
        let tier = SpillTier::open_with(&settings(&dir), Box::new(io)).expect("open");
        let err = put(&tier, &record(1, 1)).expect_err("torn write must not succeed");
        assert!(
            matches!(err, StoreError::Io(_) | StoreError::Corrupt(_)),
            "typed error: {err}"
        );
        assert!(tier.poisoned().is_none(), "write failures never poison");
        assert_eq!(tier.stats().fallbacks, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_write_fault_retries_to_success() {
        let dir = tmp_dir("retry");
        // Short writes are repaired by the write_fully loop; a seed with
        // bounded fault probability plus retries must converge.
        let io = FaultIo::new(
            FsIo,
            FaultSpec {
                seed: 11,
                short_write_prob: 0.5,
                ..FaultSpec::default()
            },
        );
        let mut s = settings(&dir);
        s.retry = RetryPolicy {
            max_attempts: 6,
            base: std::time::Duration::ZERO,
            cap: std::time::Duration::ZERO,
            seed: 1,
        };
        let tier = SpillTier::open_with(&s, Box::new(io)).expect("open");
        let addrs: Vec<RecordAddr> = (0..20u64)
            .map(|k| put(&tier, &record(k, 3)).expect("retries absorb short writes"))
            .collect();
        for (k, addr) in addrs.iter().enumerate() {
            assert_eq!(
                tier.take(Key(k as u64), addr).expect("take"),
                record(k as u64, 3)
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_page_poisons_reads() {
        let dir = tmp_dir("poison");
        let tier = SpillTier::open(&settings(&dir)).expect("open");
        let addr = put(&tier, &record(5, 1)).expect("put");
        tier.sync().expect("sync");
        // Corrupt the record on disk behind the tier's back.
        let seg = dir.join("seg-00000000.lps");
        let mut bytes = std::fs::read(&seg).expect("read");
        let off = SEGMENT_HEADER + RECORD_HEADER + 3; // inside the first record
        bytes[off] ^= 0xff;
        std::fs::write(&seg, &bytes).expect("write");
        let err = tier
            .take(Key(5), &addr)
            .expect_err("corruption must surface");
        assert!(matches!(err, StoreError::Corrupt(_)), "typed: {err}");
        assert!(
            tier.poisoned().is_some(),
            "read corruption poisons the tier"
        );
        // Every later operation fails fast with the poison.
        assert!(matches!(
            put(&tier, &record(6, 1)),
            Err(StoreError::Poisoned(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn addresses_survive_a_reopen() {
        let dir = tmp_dir("index");
        let tier = SpillTier::open(&settings(&dir)).expect("open");
        let recs = [record(9, 2), record(2, 2), record(5, 2)];
        let addrs = tier.put_batch(&recs).expect("put");
        tier.sync().expect("sync");
        drop(tier);
        // Re-open (as resume would) and adopt the checkpointed addresses.
        let tier = SpillTier::open(&settings(&dir)).expect("re-open");
        assert_eq!(tier.stats().live_bytes, 0);
        tier.adopt_live(addrs.iter().copied());
        assert!(tier.stats().live_bytes > 0);
        for (rec, addr) in recs.iter().zip(&addrs) {
            assert_eq!(&tier.take(rec.key, addr).expect("take"), rec);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

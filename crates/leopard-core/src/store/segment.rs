//! Append-organized segment files holding spilled records, packed back
//! to back.
//!
//! A segment (`seg-NNNNNNNN.lps`) is a 16-byte versioned header followed
//! by variable-length records:
//!
//! ```text
//! u32le len ‖ u64le seq ‖ u32le crc32(len ‖ seq ‖ payload) ‖ payload
//! ```
//!
//! Records append only, a whole [`Batch`] per write; a record faulted
//! back into memory leaves its bytes behind as garbage. Space comes back
//! a segment at a time: a sealed segment with no live record is removed
//! at the second [`SegmentLog::sync`] after it died (see there for why
//! not sooner). When the active segment reaches [`SEGMENT_BYTES`] the log
//! rolls to a new file.
//!
//! Crash recovery: on open, the newest segment is scanned from its
//! header and cut after the last record that validates — a kill -9
//! mid-append leaves at worst a torn tail, never a record the reader
//! misparses. Earlier records are protected by their CRCs and validated
//! on every read against the length and sequence number their address
//! carries.

use super::crc32::{crc32, crc32_update};
use super::io::{StoreFile, StoreIo};
use super::{StoreError, StoreResult};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Size at which the active segment is sealed and a new one started.
pub const SEGMENT_BYTES: u64 = 4 << 20;

/// Magic bytes opening a segment header (`LPsg`).
pub const SEGMENT_MAGIC: u32 = 0x4c50_7367;

/// Segment format version; bumped on incompatible change. Version 1 was
/// one record per chain of 4 KiB pages.
pub const SEGMENT_VERSION: u32 = 2;

/// Bytes of the segment header: magic, version, id, CRC-32 of those.
pub const SEGMENT_HEADER: usize = 16;

/// Bytes of the header in front of every record's payload.
pub const RECORD_HEADER: usize = 16;

/// Durable address of one spilled record. The length and sequence number
/// are repeated in the record's header, so an address that points at the
/// wrong bytes (a stale checkpoint over a rewritten tail) fails
/// validation instead of decoding some other record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordAddr {
    /// Segment file id (`seg-<id>.lps`).
    pub segment: u32,
    /// Byte offset of the record's header within the segment.
    pub offset: u32,
    /// Payload bytes (the header is not counted).
    pub len: u32,
    /// Record sequence number.
    pub seq: u64,
}

impl RecordAddr {
    /// Bytes the record occupies on disk, header included.
    fn disk_bytes(&self) -> u64 {
        RECORD_HEADER as u64 + u64::from(self.len)
    }
}

/// Records framed for one append: header space followed by the payload,
/// back to back. Sequence numbers and checksums are stamped by
/// [`SegmentLog::append`], which knows where the batch lands.
#[derive(Debug, Default)]
pub struct Batch {
    buf: Vec<u8>,
    /// Offset of each record's header within `buf`.
    starts: Vec<usize>,
}

impl Batch {
    /// Adds one record whose payload `fill` appends to the buffer.
    pub fn push(&mut self, fill: impl FnOnce(&mut Vec<u8>)) {
        self.starts.push(self.buf.len());
        self.buf.resize(self.buf.len() + RECORD_HEADER, 0);
        fill(&mut self.buf);
    }

    /// Bytes the batch will occupy on disk.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.buf.len()
    }

    /// Records in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// `true` when no record was pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Payload bytes, headers excluded.
    #[must_use]
    pub fn payload_bytes(&self) -> usize {
        self.buf.len() - self.starts.len() * RECORD_HEADER
    }

    /// Empties the batch, keeping its allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.starts.clear();
    }

    fn record(&self, i: usize) -> std::ops::Range<usize> {
        let end = self.starts.get(i + 1).copied().unwrap_or(self.buf.len());
        self.starts[i]..end
    }
}

fn segment_path(dir: &Path, id: u32) -> PathBuf {
    dir.join(format!("seg-{id:08}.lps"))
}

/// Parses `seg-XXXXXXXX.lps` back to the id.
fn segment_id(path: &Path) -> Option<u32> {
    let name = path.file_name()?.to_str()?;
    let id = name.strip_prefix("seg-")?.strip_suffix(".lps")?;
    id.parse().ok()
}

fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

/// The sequence number in a record header.
fn record_seq(record: &[u8]) -> u64 {
    u64::from(le_u32(record, 4)) | u64::from(le_u32(record, 8)) << 32
}

fn encode_segment_header(id: u32) -> [u8; SEGMENT_HEADER] {
    let mut hdr = [0u8; SEGMENT_HEADER];
    hdr[0..4].copy_from_slice(&SEGMENT_MAGIC.to_le_bytes());
    hdr[4..8].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    hdr[8..12].copy_from_slice(&id.to_le_bytes());
    let crc = crc32(&hdr[0..12]);
    hdr[12..16].copy_from_slice(&crc.to_le_bytes());
    hdr
}

fn check_segment_header(hdr: &[u8], id: u32) -> StoreResult<()> {
    if le_u32(hdr, 0) != SEGMENT_MAGIC {
        return Err(StoreError::corrupt(format!("segment {id}: bad magic")));
    }
    if le_u32(hdr, 4) != SEGMENT_VERSION {
        return Err(StoreError::corrupt(format!(
            "segment {id}: unsupported version {}",
            le_u32(hdr, 4)
        )));
    }
    if le_u32(hdr, 8) != id {
        return Err(StoreError::corrupt(format!(
            "segment {id}: header claims id {}",
            le_u32(hdr, 8)
        )));
    }
    if le_u32(hdr, 12) != crc32(&hdr[0..12]) {
        return Err(StoreError::corrupt(format!(
            "segment {id}: header crc mismatch"
        )));
    }
    Ok(())
}

/// CRC of one framed record (`len ‖ seq ‖ crc ‖ payload`): everything
/// but the CRC field itself.
fn record_crc(record: &[u8]) -> u32 {
    let state = crc32_update(0xffff_ffff, &record[..12]);
    crc32_update(state, &record[RECORD_HEADER..]) ^ 0xffff_ffff
}

/// What the log knows about one segment file.
#[derive(Debug, Clone, Copy, Default)]
struct SegmentUse {
    /// File length.
    bytes: u64,
    /// Bytes of records some index still points at.
    live: u64,
    /// Had no live record at the last [`SegmentLog::sync`].
    doomed: bool,
}

/// The append cursor over a directory of segment files.
///
/// Not internally synchronized: the owning [`super::tier::SpillTier`]
/// serializes access behind its own lock.
#[derive(Debug)]
pub struct SegmentLog {
    dir: PathBuf,
    /// Active (newest) segment file.
    active: Box<dyn StoreFile>,
    active_id: u32,
    /// The sealed segment read last, kept open: faults cluster by age.
    sealed: Option<(u32, Box<dyn StoreFile>)>,
    /// Next record sequence number.
    next_seq: u64,
    /// Every segment file on disk, the active one included.
    segments: BTreeMap<u32, SegmentUse>,
}

impl SegmentLog {
    /// Opens the segment directory, recovering from a torn tail: the
    /// newest segment is scanned and cut after its last record that
    /// validates. Returns the log positioned for the next append.
    pub fn open(io: &dyn StoreIo, dir: &Path) -> StoreResult<SegmentLog> {
        io.create_dir_all(dir).map_err(StoreError::io)?;
        let mut segments = BTreeMap::new();
        for path in io.list(dir).map_err(StoreError::io)? {
            if let Some(id) = segment_id(&path) {
                let bytes = io
                    .open(&path)
                    .and_then(|mut f| f.len())
                    .map_err(StoreError::io)?;
                segments.insert(
                    id,
                    SegmentUse {
                        bytes,
                        ..SegmentUse::default()
                    },
                );
            }
        }
        let active_id = segments.keys().next_back().copied().unwrap_or(0);
        let mut active = io
            .open(&segment_path(dir, active_id))
            .map_err(StoreError::io)?;
        let (good_len, max_seq) = recover_tail(active.as_mut(), active_id)?;
        let on_disk = segments.entry(active_id).or_default();
        if on_disk.bytes != good_len {
            active.set_len(good_len).map_err(StoreError::io)?;
            on_disk.bytes = good_len;
        }
        let mut log = SegmentLog {
            dir: dir.to_path_buf(),
            active,
            active_id,
            sealed: None,
            next_seq: max_seq + 1,
            segments,
        };
        if good_len == 0 {
            log.write_header()?;
        }
        Ok(log)
    }

    fn active_use(&mut self) -> &mut SegmentUse {
        self.segments.entry(self.active_id).or_default()
    }

    fn write_header(&mut self) -> StoreResult<()> {
        let hdr = encode_segment_header(self.active_id);
        write_fully(self.active.as_mut(), 0, &hdr)?;
        self.active_use().bytes = SEGMENT_HEADER as u64;
        Ok(())
    }

    /// Appends every record of `batch` with one write, then reads the
    /// bytes back and compares them — a torn or silently short write is
    /// caught here, while the caller still holds the records in memory,
    /// not at fault-in time. Returns one address per record, in order.
    ///
    /// On any error the segment is cut back to its length before the
    /// call and nothing is consumed, so the same batch can be retried.
    pub fn append(&mut self, io: &dyn StoreIo, batch: &mut Batch) -> StoreResult<Vec<RecordAddr>> {
        let mut at = self.active_use().bytes;
        if at > SEGMENT_HEADER as u64 && at + batch.bytes() as u64 > SEGMENT_BYTES {
            self.roll(io)?;
            at = self.active_use().bytes;
        }
        if at + batch.bytes() as u64 > u64::from(u32::MAX) {
            return Err(StoreError::corrupt(format!(
                "batch of {} bytes does not fit a segment",
                batch.bytes()
            )));
        }
        let mut addrs = Vec::with_capacity(batch.len());
        for i in 0..batch.len() {
            let range = batch.record(i);
            let addr = RecordAddr {
                segment: self.active_id,
                offset: (at as usize + range.start) as u32,
                len: (range.len() - RECORD_HEADER) as u32,
                seq: self.next_seq + i as u64,
            };
            let record = &mut batch.buf[range];
            record[0..4].copy_from_slice(&addr.len.to_le_bytes());
            record[4..12].copy_from_slice(&addr.seq.to_le_bytes());
            let crc = record_crc(record);
            record[12..16].copy_from_slice(&crc.to_le_bytes());
            addrs.push(addr);
        }
        let wrote = write_fully(self.active.as_mut(), at, &batch.buf).and_then(|()| {
            if read_fully(self.active.as_mut(), at, batch.buf.len())? == batch.buf {
                Ok(())
            } else {
                Err(StoreError::corrupt(format!(
                    "read-back mismatch for {} records at segment {} offset {at}",
                    batch.len(),
                    self.active_id
                )))
            }
        });
        if let Err(e) = wrote {
            // Best effort: the next append starts at `at` and covers the
            // torn bytes even if this truncation fails too.
            let _ = self.active.set_len(at);
            return Err(e);
        }
        self.next_seq += batch.len() as u64;
        let active = self.active_use();
        active.bytes += batch.bytes() as u64;
        active.live += batch.bytes() as u64;
        Ok(addrs)
    }

    /// Reads the payload of the record at `addr`, validating its
    /// checksum and that its header names the length and sequence number
    /// the address does.
    pub fn read(&mut self, io: &dyn StoreIo, addr: &RecordAddr) -> StoreResult<Vec<u8>> {
        let on_disk = self.segments.get(&addr.segment).map_or(0, |s| s.bytes);
        if u64::from(addr.offset) + addr.disk_bytes() > on_disk {
            return Err(StoreError::corrupt(format!(
                "segment {} offset {}: a {}-byte record ends past the segment's {on_disk} bytes",
                addr.segment, addr.offset, addr.len
            )));
        }
        let f: &mut dyn StoreFile = if addr.segment == self.active_id {
            self.active.as_mut()
        } else {
            if self.sealed.as_ref().map(|(id, _)| *id) != Some(addr.segment) {
                let file = io
                    .open(&segment_path(&self.dir, addr.segment))
                    .map_err(StoreError::io)?;
                self.sealed = Some((addr.segment, file));
            }
            let (_, file) = self.sealed.as_mut().expect("opened just above");
            file.as_mut()
        };
        let mut record = read_fully(f, u64::from(addr.offset), addr.disk_bytes() as usize)?;
        let seq = record_seq(&record);
        if le_u32(&record, 0) != addr.len || seq != addr.seq {
            return Err(StoreError::corrupt(format!(
                "segment {} offset {}: header names record {seq} of {} bytes, \
                 address names record {} of {} bytes",
                addr.segment,
                addr.offset,
                le_u32(&record, 0),
                addr.seq,
                addr.len
            )));
        }
        let (stored, computed) = (le_u32(&record, 12), record_crc(&record));
        if stored != computed {
            return Err(StoreError::corrupt(format!(
                "segment {} offset {}: record crc mismatch: stored {stored:#010x}, \
                 computed {computed:#010x}",
                addr.segment, addr.offset
            )));
        }
        record.drain(..RECORD_HEADER);
        Ok(record)
    }

    /// Notes that no index points at the record at `addr` any more.
    pub fn mark_dead(&mut self, addr: &RecordAddr) {
        if let Some(seg) = self.segments.get_mut(&addr.segment) {
            seg.live = seg.live.saturating_sub(addr.disk_bytes());
        }
    }

    /// Resume path: `live` are the records a checkpoint's index points
    /// at and nothing else on disk is. Sealed segments it names no record
    /// in are removed — what a killed process appended after that
    /// checkpoint, and what was dead before it.
    pub fn retain_only(&mut self, io: &dyn StoreIo, live: impl Iterator<Item = RecordAddr>) {
        for seg in self.segments.values_mut() {
            seg.live = 0;
        }
        for addr in live {
            if let Some(seg) = self.segments.get_mut(&addr.segment) {
                seg.live += addr.disk_bytes();
            }
        }
        self.remove_sealed(io, |seg| seg.live == 0);
    }

    /// Durably flushes the active segment; called before a checkpoint
    /// image is written, so the image never names unsynced records.
    ///
    /// Also where dead segments go: a sealed segment that had no live
    /// record at the *previous* sync is removed now, and one that has
    /// none now is marked for the next. Not sooner, because the newest
    /// durable image was written after the previous sync and may still
    /// name records that died since; it cannot name a segment that was
    /// already dead then. A run that never checkpoints never syncs and
    /// keeps its dead segments: they are bounded by what it spilled.
    pub fn sync(&mut self, io: &dyn StoreIo) -> StoreResult<()> {
        self.active.sync().map_err(StoreError::io)?;
        self.remove_sealed(io, |seg| seg.doomed);
        let active_id = self.active_id;
        for (&id, seg) in &mut self.segments {
            seg.doomed = id != active_id && seg.live == 0;
        }
        Ok(())
    }

    /// Removes every sealed segment `dead` selects. A file that cannot
    /// be removed stays accounted for and is tried again.
    fn remove_sealed(&mut self, io: &dyn StoreIo, dead: impl Fn(&SegmentUse) -> bool) {
        let (dir, active_id) = (&self.dir, self.active_id);
        self.segments.retain(|&id, seg| {
            id == active_id || !dead(seg) || io.remove(&segment_path(dir, id)).is_err()
        });
        if let Some((id, _)) = &self.sealed {
            if !self.segments.contains_key(id) {
                self.sealed = None;
            }
        }
    }

    /// Total bytes across all segment files (live and garbage).
    #[must_use]
    pub fn bytes_on_disk(&self) -> u64 {
        self.segments.values().map(|s| s.bytes).sum()
    }

    /// Bytes of records some index still points at, headers included.
    #[must_use]
    pub fn live_bytes(&self) -> u64 {
        self.segments.values().map(|s| s.live).sum()
    }

    /// Seals the active segment and starts the next one.
    fn roll(&mut self, io: &dyn StoreIo) -> StoreResult<()> {
        self.active.sync().map_err(StoreError::io)?;
        self.active_id += 1;
        self.active = io
            .open(&segment_path(&self.dir, self.active_id))
            .map_err(StoreError::io)?;
        self.write_header()
    }
}

/// Scans a segment from the front and returns `(good_len, max_seq)`:
/// the length of the header plus every record up to (not including) the
/// first one that is cut short or fails its checksum — the torn-tail
/// truncation point — and the highest record sequence seen. A file too
/// short to hold a header is treated as empty (`good_len` 0: the header
/// is rewritten).
fn recover_tail(f: &mut dyn StoreFile, id: u32) -> StoreResult<(u64, u64)> {
    let len = f.len().map_err(StoreError::io)?;
    if len < SEGMENT_HEADER as u64 {
        return Ok((0, 0));
    }
    check_segment_header(&read_fully(f, 0, SEGMENT_HEADER)?, id)?;
    let mut good = SEGMENT_HEADER as u64;
    let mut max_seq = 0u64;
    while good + RECORD_HEADER as u64 <= len {
        let hdr = read_fully(f, good, RECORD_HEADER)?;
        let total = RECORD_HEADER as u64 + u64::from(le_u32(&hdr, 0));
        if good + total > len {
            break;
        }
        let record = read_fully(f, good, total as usize)?;
        if le_u32(&record, 12) != record_crc(&record) {
            break;
        }
        max_seq = max_seq.max(record_seq(&record));
        good += total;
    }
    Ok((good, max_seq))
}

/// Reads exactly `n` bytes at `off`, looping over short reads. A read
/// that ends early (EOF inside the range) is a truncation error.
fn read_fully(f: &mut dyn StoreFile, off: u64, n: usize) -> StoreResult<Vec<u8>> {
    let mut buf = vec![0u8; n];
    let mut done = 0usize;
    while done < n {
        let got = f
            .read_at(off + done as u64, &mut buf[done..])
            .map_err(StoreError::io)?;
        if got == 0 {
            return Err(StoreError::corrupt(format!(
                "short read: {done} of {n} bytes at offset {off}"
            )));
        }
        done += got;
    }
    Ok(buf)
}

/// Writes all of `data` at `off`, looping over short writes (a short
/// write is not an error at the `StoreFile` layer — `pwrite` semantics —
/// so the loop is what turns "some bytes landed" into "all bytes
/// landed or a real error surfaced").
pub(super) fn write_fully(f: &mut dyn StoreFile, off: u64, data: &[u8]) -> StoreResult<()> {
    let mut done = 0usize;
    while done < data.len() {
        let put = f
            .write_at(off + done as u64, &data[done..])
            .map_err(StoreError::io)?;
        if put == 0 {
            return Err(StoreError::io(std::io::Error::other(
                "write_at returned 0 bytes",
            )));
        }
        done += put;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::io::FsIo;
    use super::*;
    use std::fs;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("leopard-store-seg-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn append(log: &mut SegmentLog, payloads: &[&[u8]]) -> Vec<RecordAddr> {
        let mut batch = Batch::default();
        for p in payloads {
            batch.push(|buf| buf.extend_from_slice(p));
        }
        log.append(&FsIo, &mut batch).expect("append")
    }

    #[test]
    fn a_batch_lands_packed_and_reads_back() {
        let dir = tmp_dir("rt");
        let mut log = SegmentLog::open(&FsIo, &dir).expect("open");
        let big = vec![0xabu8; 10_000];
        let addrs = append(&mut log, &[b"just a little record", &big, b""]);
        assert_eq!(addrs[0].offset as usize, SEGMENT_HEADER);
        assert_eq!(
            addrs[1].offset as usize,
            SEGMENT_HEADER + RECORD_HEADER + 20,
            "records are packed back to back"
        );
        assert_eq!(
            log.read(&FsIo, &addrs[0]).expect("read"),
            b"just a little record"
        );
        assert_eq!(log.read(&FsIo, &addrs[1]).expect("read"), big);
        assert_eq!(log.read(&FsIo, &addrs[2]).expect("read"), b"");
        assert_eq!(
            log.bytes_on_disk(),
            (SEGMENT_HEADER + 3 * RECORD_HEADER + 20 + 10_000) as u64
        );
        assert_eq!(
            log.live_bytes(),
            log.bytes_on_disk() - SEGMENT_HEADER as u64
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_positions_after_existing_records() {
        let dir = tmp_dir("reopen");
        let a1 = {
            let mut log = SegmentLog::open(&FsIo, &dir).expect("open");
            let a = append(&mut log, &[b"first"]);
            log.sync(&FsIo).expect("sync");
            a[0]
        };
        let mut log = SegmentLog::open(&FsIo, &dir).expect("reopen");
        let a2 = append(&mut log, &[b"second"])[0];
        assert!(a2.seq > a1.seq, "sequence resumes past recovered records");
        assert_eq!(a2.offset, a1.offset + RECORD_HEADER as u32 + 5);
        assert_eq!(log.read(&FsIo, &a1).expect("read"), b"first");
        assert_eq!(log.read(&FsIo, &a2).expect("read"), b"second");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_rolls_when_full_and_dead_segments_go_at_the_second_sync() {
        let dir = tmp_dir("roll");
        let mut log = SegmentLog::open(&FsIo, &dir).expect("open");
        let chunk = vec![7u8; 1 << 20];
        let mut addrs = Vec::new();
        for _ in 0..5 {
            addrs.extend(append(&mut log, &[&chunk]));
        }
        let last = addrs[4];
        assert_eq!(addrs[0].segment, 0);
        assert!(last.segment >= 1, "rolled to a second segment");
        assert_eq!(log.read(&FsIo, &last).expect("read"), chunk);
        assert_eq!(
            log.read(&FsIo, &addrs[0]).expect("read sealed"),
            chunk,
            "sealed segments stay readable"
        );
        let seg0 = segment_path(&dir, 0);
        for a in addrs.iter().filter(|a| a.segment == 0) {
            log.mark_dead(a);
        }
        log.sync(&FsIo).expect("sync");
        assert!(
            seg0.exists(),
            "the image before this sync may still name it"
        );
        log.sync(&FsIo).expect("sync");
        assert!(!seg0.exists(), "dead at two syncs running: removed");
        assert_eq!(log.read(&FsIo, &last).expect("read"), chunk);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn adopting_an_index_drops_the_segments_it_does_not_name() {
        let dir = tmp_dir("adopt");
        let chunk = vec![1u8; 3 << 20];
        let kept = {
            let mut log = SegmentLog::open(&FsIo, &dir).expect("open");
            append(&mut log, &[&chunk]);
            let kept = append(&mut log, &[&chunk])[0];
            append(&mut log, &[&chunk]);
            kept
        };
        assert_eq!(kept.segment, 1);
        let mut log = SegmentLog::open(&FsIo, &dir).expect("reopen");
        log.retain_only(&FsIo, std::iter::once(kept));
        assert!(!segment_path(&dir, 0).exists());
        assert!(segment_path(&dir, 1).exists());
        assert!(segment_path(&dir, 2).exists(), "the active segment stays");
        assert_eq!(log.read(&FsIo, &kept).expect("read"), chunk);
        assert_eq!(log.live_bytes(), kept.disk_bytes());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_address_that_disagrees_with_the_record_is_corrupt() {
        let dir = tmp_dir("mismatch");
        let mut log = SegmentLog::open(&FsIo, &dir).expect("open");
        let a = append(&mut log, &[b"one", b"two"]);
        for wrong in [
            RecordAddr {
                seq: a[0].seq + 1,
                ..a[0]
            },
            RecordAddr { len: 2, ..a[0] },
            RecordAddr {
                offset: a[0].offset + 1,
                ..a[0]
            },
            RecordAddr {
                len: u32::MAX,
                ..a[1]
            },
            RecordAddr { segment: 9, ..a[0] },
        ] {
            assert!(
                matches!(log.read(&FsIo, &wrong), Err(StoreError::Corrupt(_))),
                "{wrong:?}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

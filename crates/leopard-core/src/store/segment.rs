//! Append-organized segment files holding spilled records.
//!
//! A segment is a versioned header page followed by record pages
//! ([`crate::store::page`]). Records append only; a record faulted back
//! into memory leaves its pages behind as garbage (space is reclaimed
//! only by dropping whole segments, which keeps the write path a pure
//! append and crash recovery a suffix scan). When the active segment
//! reaches [`SEGMENT_PAGES`] pages the writer rolls to a new file.
//!
//! Crash recovery: on open, the writer scans the tail of the newest
//! segment and truncates after the last page that decodes cleanly — a
//! kill -9 mid-flush leaves at worst a torn tail, never a segment the
//! reader misparses. Earlier pages are protected by their CRCs and
//! validated on every read.

use super::io::{StoreFile, StoreIo};
use super::page::{chunk_payload, crc32, decode_page, encode_page, PageHeader, PAGE_SIZE};
use super::{StoreError, StoreResult};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Pages per segment file (header page included): 16 MiB segments.
pub const SEGMENT_PAGES: u32 = 4096;

/// Magic bytes opening a segment header page (`LPsg`).
pub const SEGMENT_MAGIC: u32 = 0x4c50_7367;

/// Segment format version; bumped on incompatible change.
pub const SEGMENT_VERSION: u32 = 1;

/// Durable address of one spilled record: which segment, which page
/// range, and the record sequence number stamped into each page header
/// (belt-and-braces check that the address and the data agree).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordAddr {
    /// Segment file id (`seg-<id>.lps`).
    pub segment: u32,
    /// First page of the record (page 0 is the segment header).
    pub page: u32,
    /// Number of pages the record spans.
    pub parts: u32,
    /// Record sequence number stamped into each page.
    pub seq: u64,
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

/// Encodes the segment header page.
fn encode_segment_header(id: u32) -> Vec<u8> {
    let mut page = vec![0u8; PAGE_SIZE];
    page[0..4].copy_from_slice(&SEGMENT_MAGIC.to_le_bytes());
    page[4..8].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    page[8..12].copy_from_slice(&id.to_le_bytes());
    let crc = crc32(&page[0..12]);
    page[12..16].copy_from_slice(&crc.to_le_bytes());
    page
}

/// Validates a segment header page against the expected id.
fn check_segment_header(page: &[u8], id: u32) -> StoreResult<()> {
    if page.len() < PAGE_SIZE {
        return Err(StoreError::corrupt(format!(
            "segment {id}: truncated header ({} bytes)",
            page.len()
        )));
    }
    let word = |at: usize| u32::from_le_bytes([page[at], page[at + 1], page[at + 2], page[at + 3]]);
    if word(0) != SEGMENT_MAGIC {
        return Err(StoreError::corrupt(format!("segment {id}: bad magic")));
    }
    if word(4) != SEGMENT_VERSION {
        return Err(StoreError::corrupt(format!(
            "segment {id}: unsupported version {}",
            word(4)
        )));
    }
    if word(8) != id {
        return Err(StoreError::corrupt(format!(
            "segment {id}: header claims id {}",
            word(8)
        )));
    }
    if word(12) != crc32(&page[0..12]) {
        return Err(StoreError::corrupt(format!(
            "segment {id}: header crc mismatch"
        )));
    }
    Ok(())
}

/// The append cursor over a directory of segment files.
///
/// Not internally synchronized: the owning [`super::tier::SpillTier`]
/// serializes access behind its own lock.
#[derive(Debug)]
pub struct SegmentWriter {
    dir: PathBuf,
    /// Active (newest) segment file.
    active: Box<dyn StoreFile>,
    active_id: u32,
    /// Next page to append within the active segment.
    next_page: u32,
    /// Next record sequence number.
    next_seq: u64,
    /// Total bytes across all segment files (garbage included).
    bytes_on_disk: u64,
}

impl SegmentWriter {
    /// Opens the segment directory, recovering from a torn tail: the
    /// newest segment is scanned and truncated after its last cleanly
    /// decoding page. Returns the writer positioned for the next append.
    pub fn open(io: &dyn StoreIo, dir: &Path) -> StoreResult<SegmentWriter> {
        io.create_dir_all(dir).map_err(StoreError::io)?;
        let mut ids: Vec<u32> = io
            .list(dir)
            .map_err(StoreError::io)?
            .iter()
            .filter_map(|p| segment_id(p))
            .collect();
        ids.sort_unstable();
        let mut bytes_on_disk: u64 = 0;
        for &id in &ids {
            let mut f = io.open(&segment_path(dir, id)).map_err(StoreError::io)?;
            bytes_on_disk += f.len().map_err(StoreError::io)?;
        }
        let (active_id, next_page, next_seq) = match ids.last() {
            None => (0, 0, 1),
            Some(&id) => {
                let mut f = io.open(&segment_path(dir, id)).map_err(StoreError::io)?;
                let (pages, max_seq) = recover_tail(f.as_mut(), id)?;
                let new_len = u64::from(pages) * PAGE_SIZE as u64;
                let old_len = f.len().map_err(StoreError::io)?;
                if old_len != new_len {
                    f.set_len(new_len).map_err(StoreError::io)?;
                    bytes_on_disk = bytes_on_disk - old_len + new_len;
                }
                (id, pages, max_seq + 1)
            }
        };
        let active = io
            .open(&segment_path(dir, active_id))
            .map_err(StoreError::io)?;
        let mut writer = SegmentWriter {
            dir: dir.to_path_buf(),
            active,
            active_id,
            next_page,
            next_seq,
            bytes_on_disk,
        };
        if writer.next_page == 0 {
            writer.write_header(io)?;
        }
        Ok(writer)
    }

    /// Writes the active segment's header page (page 0).
    fn write_header(&mut self, _io: &dyn StoreIo) -> StoreResult<()> {
        let hdr = encode_segment_header(self.active_id);
        write_fully(self.active.as_mut(), 0, &hdr)?;
        self.next_page = 1;
        self.bytes_on_disk += PAGE_SIZE as u64;
        Ok(())
    }

    /// Appends one record payload, returning its durable address. The
    /// payload is chunked into pages, each CRC-stamped. Short writes are
    /// retried at the residual offset; any error leaves the tail torn,
    /// which the next open (or a verified read-back) detects.
    pub fn append(&mut self, io: &dyn StoreIo, payload: &[u8]) -> StoreResult<RecordAddr> {
        let chunks = chunk_payload(payload);
        let parts = u32::try_from(chunks.len())
            .map_err(|_| StoreError::corrupt("record spans more than u32::MAX pages"))?;
        if self.next_page + parts > SEGMENT_PAGES {
            self.roll(io)?;
        }
        let seq = self.next_seq;
        let addr = RecordAddr {
            segment: self.active_id,
            page: self.next_page,
            parts,
            seq,
        };
        for (i, chunk) in chunks.iter().enumerate() {
            let hdr = PageHeader {
                record_seq: seq,
                part: i as u32,
                parts,
                len: chunk.len() as u32,
            };
            let page = encode_page(&hdr, chunk);
            let off = u64::from(self.next_page + i as u32) * PAGE_SIZE as u64;
            write_fully(self.active.as_mut(), off, &page)?;
        }
        self.next_page += parts;
        self.next_seq += 1;
        self.bytes_on_disk += u64::from(parts) * PAGE_SIZE as u64;
        Ok(addr)
    }

    /// Reads the record at `addr`, validating every page CRC, the part
    /// chain and the stamped sequence number.
    pub fn read_record(&mut self, io: &dyn StoreIo, addr: &RecordAddr) -> StoreResult<Vec<u8>> {
        let mut file;
        let f: &mut dyn StoreFile = if addr.segment == self.active_id {
            self.active.as_mut()
        } else {
            file = io
                .open(&segment_path(&self.dir, addr.segment))
                .map_err(StoreError::io)?;
            file.as_mut()
        };
        read_record_from(f, addr)
    }

    /// Durably flushes the active segment.
    pub fn sync(&mut self) -> StoreResult<()> {
        self.active.sync().map_err(StoreError::io)
    }

    /// Total bytes across all segment files (live and garbage pages).
    #[must_use]
    pub fn bytes_on_disk(&self) -> u64 {
        self.bytes_on_disk
    }

    /// Rolls to a fresh segment file.
    fn roll(&mut self, io: &dyn StoreIo) -> StoreResult<()> {
        self.active.sync().map_err(StoreError::io)?;
        self.active_id += 1;
        self.active = io
            .open(&segment_path(&self.dir, self.active_id))
            .map_err(StoreError::io)?;
        self.next_page = 0;
        self.write_header(io)
    }
}

/// Reads one record from an open segment file, validating everything.
fn read_record_from(f: &mut dyn StoreFile, addr: &RecordAddr) -> StoreResult<Vec<u8>> {
    let mut out = Vec::new();
    for i in 0..addr.parts {
        let off = u64::from(addr.page + i) * PAGE_SIZE as u64;
        let page = read_fully(f, off, PAGE_SIZE)?;
        let (hdr, payload) = decode_page(&page).map_err(|e| {
            StoreError::corrupt(format!(
                "segment {} page {}: {e}",
                addr.segment,
                addr.page + i
            ))
        })?;
        if hdr.record_seq != addr.seq || hdr.part != i || hdr.parts != addr.parts {
            return Err(StoreError::corrupt(format!(
                "segment {} page {}: header names record {} part {}/{}, address names record {} part {}/{}",
                addr.segment,
                addr.page + i,
                hdr.record_seq,
                hdr.part,
                hdr.parts,
                addr.seq,
                i,
                addr.parts
            )));
        }
        out.extend_from_slice(payload);
    }
    Ok(out)
}

/// Scans a segment from the front and returns `(pages, max_seq)` where
/// `pages` counts the header page plus every record page up to (not
/// including) the first one that fails to decode — the torn-tail
/// truncation point — and `max_seq` is the highest record sequence seen.
fn recover_tail(f: &mut dyn StoreFile, id: u32) -> StoreResult<(u32, u64)> {
    let len = f.len().map_err(StoreError::io)?;
    if len < PAGE_SIZE as u64 {
        // Not even a whole header page: treat as empty (header rewritten).
        return Ok((0, 0));
    }
    let hdr_page = read_fully(f, 0, PAGE_SIZE)?;
    check_segment_header(&hdr_page, id)?;
    let full_pages = (len / PAGE_SIZE as u64) as u32;
    let mut pages = 1u32;
    let mut max_seq = 0u64;
    while pages < full_pages {
        let off = u64::from(pages) * PAGE_SIZE as u64;
        let page = read_fully(f, off, PAGE_SIZE)?;
        match decode_page(&page) {
            Ok((hdr, _)) => {
                max_seq = max_seq.max(hdr.record_seq);
                pages += 1;
            }
            Err(_) => break, // torn tail starts here
        }
    }
    Ok((pages, max_seq))
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

    #[test]
    fn append_and_read_round_trip() {
        let dir = tmp_dir("rt");
        let io = FsIo;
        let mut w = SegmentWriter::open(&io, &dir).expect("open");
        let small = b"just a little record".to_vec();
        let big = vec![0xabu8; PAGE_SIZE * 3 + 100]; // spans 4 pages
        let a1 = w.append(&io, &small).expect("append small");
        let a2 = w.append(&io, &big).expect("append big");
        assert_eq!(w.read_record(&io, &a1).expect("read"), small);
        assert_eq!(w.read_record(&io, &a2).expect("read"), big);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_positions_after_existing_records() {
        let dir = tmp_dir("reopen");
        let io = FsIo;
        let a1;
        {
            let mut w = SegmentWriter::open(&io, &dir).expect("open");
            a1 = w.append(&io, b"first").expect("append");
            w.sync().expect("sync");
        }
        let mut w = SegmentWriter::open(&io, &dir).expect("reopen");
        let a2 = w.append(&io, b"second").expect("append");
        assert!(a2.seq > a1.seq, "sequence resumes past recovered records");
        assert_eq!(w.read_record(&io, &a1).expect("read"), b"first");
        assert_eq!(w.read_record(&io, &a2).expect("read"), b"second");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmp_dir("torn");
        let io = FsIo;
        let a1;
        {
            let mut w = SegmentWriter::open(&io, &dir).expect("open");
            a1 = w.append(&io, b"good record").expect("append");
            w.append(&io, b"doomed record").expect("append");
            w.sync().expect("sync");
        }
        // Tear the last page: overwrite its second half with garbage.
        let seg = segment_path(&dir, 0);
        let mut bytes = fs::read(&seg).expect("read segment");
        let torn_from = bytes.len() - PAGE_SIZE / 2;
        for b in &mut bytes[torn_from..] {
            *b = 0xff;
        }
        fs::write(&seg, &bytes).expect("write torn segment");

        let mut w = SegmentWriter::open(&io, &dir).expect("recovering open");
        assert_eq!(
            w.read_record(&io, &a1).expect("survivor intact"),
            b"good record"
        );
        let a3 = w.append(&io, b"after recovery").expect("append");
        assert_eq!(a3.page, a1.page + 1, "writer reuses the truncated tail");
        assert_eq!(w.read_record(&io, &a3).expect("read"), b"after recovery");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_rolls_when_full() {
        let dir = tmp_dir("roll");
        let io = FsIo;
        let mut w = SegmentWriter::open(&io, &dir).expect("open");
        // Each record takes one page; fill past one segment.
        let mut last = None;
        for i in 0..u64::from(SEGMENT_PAGES) {
            last = Some(w.append(&io, format!("r{i}").as_bytes()).expect("append"));
        }
        let last = last.expect("appended");
        assert!(last.segment >= 1, "rolled to a second segment");
        assert_eq!(
            w.read_record(&io, &last).expect("read"),
            format!("r{}", u64::from(SEGMENT_PAGES) - 1).as_bytes()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn address_data_mismatch_is_corrupt() {
        let dir = tmp_dir("mismatch");
        let io = FsIo;
        let mut w = SegmentWriter::open(&io, &dir).expect("open");
        let a1 = w.append(&io, b"one").expect("append");
        let _a2 = w.append(&io, b"two").expect("append");
        let wrong = RecordAddr {
            seq: a1.seq + 1,
            ..a1
        };
        assert!(matches!(
            w.read_record(&io, &wrong),
            Err(StoreError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}

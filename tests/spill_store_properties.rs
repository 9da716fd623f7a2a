//! Property tests of the spill tier's on-disk record format.
//!
//! The packed record log is the layer every spilled verdict-critical
//! record crosses twice, so its guarantees are pinned exhaustively over a
//! multi-record segment and as properties over randomized payloads:
//!
//! * **every truncation** — a segment cut at any byte reopens to exactly
//!   the whole records before the cut, and the next append lands
//!   directly after them;
//! * **every bit flip** — one flipped bit anywhere inside a live record
//!   makes reading it a typed [`StoreError`], never different bytes, and
//!   leaves every other record readable;
//! * **round-trip** — any batch of payloads, and any version chain
//!   through the record codec, comes back byte-identical;
//! * **byte-dribbled reads** — an I/O layer that returns a few bytes per
//!   `read_at` call (legal, exactly like `pread`) never corrupts or
//!   truncates a record read or a recovery scan;
//! * **short-write storms** — an I/O layer that persists only a prefix
//!   of most writes never costs a record.

use leopard_core::store::io::{FaultIo, FaultSpec, FsIo, StoreFile, StoreIo};
use leopard_core::store::segment::{Batch, RecordAddr, SegmentLog, RECORD_HEADER, SEGMENT_HEADER};
use leopard_core::store::StoreError;
use leopard_core::verify::{KeyVersions, VersionEntry, VersionUid};
use leopard_core::wire::{decode_key_versions, put_key_versions};
use leopard_core::{Interval, Key, Timestamp, TxnId, Value};
use proptest::prelude::*;
use std::io;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("leopard-spill-props-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic pseudo-random payload of `len` bytes.
fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state & 0xff) as u8
        })
        .collect()
}

fn append(log: &mut SegmentLog, io: &dyn StoreIo, payloads: &[Vec<u8>]) -> Vec<RecordAddr> {
    let mut batch = Batch::default();
    for p in payloads {
        batch.push(|buf| buf.extend_from_slice(p));
    }
    log.append(io, &mut batch).expect("append")
}

/// A five-record segment (an empty and a one-byte record among them)
/// written in two batches: its payloads, their addresses, the file's
/// bytes and the offset each record ends at.
struct Fixture {
    payloads: Vec<Vec<u8>>,
    addrs: Vec<RecordAddr>,
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

fn fixture(tag: &str) -> Fixture {
    let dir = tmp_dir(tag);
    let payloads: Vec<Vec<u8>> = [0usize, 5, 300, 1, 64]
        .iter()
        .enumerate()
        .map(|(i, &len)| payload(i as u64 + 1, len))
        .collect();
    let mut log = SegmentLog::open(&FsIo, &dir).expect("open");
    let mut addrs = append(&mut log, &FsIo, &payloads[..3]);
    addrs.extend(append(&mut log, &FsIo, &payloads[3..]));
    log.sync(&FsIo).expect("sync");
    let bytes = std::fs::read(dir.join("seg-00000000.lps")).expect("read segment");
    let ends: Vec<usize> = addrs
        .iter()
        .map(|a| a.offset as usize + RECORD_HEADER + a.len as usize)
        .collect();
    assert_eq!(*ends.last().expect("five records"), bytes.len());
    let _ = std::fs::remove_dir_all(&dir);
    Fixture {
        payloads,
        addrs,
        bytes,
        ends,
    }
}

#[test]
fn every_truncation_reopens_to_exactly_the_whole_records() {
    let fx = fixture("trunc-src");
    let dir = tmp_dir("trunc");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let seg = dir.join("seg-00000000.lps");
    let fresh = payload(99, 40);
    for cut in 0..=fx.bytes.len() {
        std::fs::write(&seg, &fx.bytes[..cut]).expect("write prefix");
        let mut log = SegmentLog::open(&FsIo, &dir).expect("open never fails on a torn tail");
        let whole = fx.ends.iter().take_while(|&&e| e <= cut).count();
        for (i, addr) in fx.addrs.iter().enumerate() {
            match log.read(&FsIo, addr) {
                Ok(got) => {
                    assert!(i < whole, "cut at {cut}: record {i} is past the cut");
                    assert_eq!(got, fx.payloads[i], "cut at {cut}: record {i}");
                }
                Err(e) => {
                    assert!(i >= whole, "cut at {cut}: record {i} was whole: {e}");
                    assert!(matches!(e, StoreError::Corrupt(_)), "cut at {cut}: {e}");
                }
            }
        }
        // The next append lands directly after the accepted prefix and
        // carries a sequence number past every record kept.
        let accepted = if whole == 0 {
            SEGMENT_HEADER
        } else {
            fx.ends[whole - 1]
        };
        let addr = append(&mut log, &FsIo, std::slice::from_ref(&fresh))[0];
        assert_eq!(addr.offset as usize, accepted, "cut at {cut}");
        let last_kept = fx.addrs[..whole].last().map_or(0, |a| a.seq);
        assert!(addr.seq > last_kept, "cut at {cut}");
        assert_eq!(log.read(&FsIo, &addr).expect("read fresh"), fresh);
        drop(log);
        let after = std::fs::read(&seg).expect("read back");
        assert_eq!(
            after.len(),
            accepted + RECORD_HEADER + fresh.len(),
            "cut at {cut}"
        );
        if whole > 0 {
            assert_eq!(after[..accepted], fx.bytes[..accepted], "cut at {cut}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_bit_flip_in_a_live_record_is_a_typed_error_never_other_bytes() {
    let fx = fixture("flip-src");
    let dir = tmp_dir("flip");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let seg = dir.join("seg-00000000.lps");
    std::fs::write(&seg, &fx.bytes).expect("write");
    // One log stays open across the flips: damage arriving after the
    // recovery scan is what the read path alone has to catch.
    let mut open_log = SegmentLog::open(&FsIo, &dir).expect("open");
    for at in SEGMENT_HEADER..fx.bytes.len() {
        let hit = fx.ends.iter().take_while(|&&e| e <= at).count();
        for bit in 0..8 {
            let mut damaged = fx.bytes.clone();
            damaged[at] ^= 1 << bit;
            std::fs::write(&seg, &damaged).expect("write damaged");
            for (i, addr) in fx.addrs.iter().enumerate() {
                let got = open_log.read(&FsIo, addr);
                if i == hit {
                    assert!(
                        matches!(got, Err(StoreError::Corrupt(_))),
                        "bit {bit} of byte {at}: record {i} read as {got:?}"
                    );
                } else {
                    assert_eq!(
                        got.expect("undamaged record"),
                        fx.payloads[i],
                        "bit {bit} of byte {at}: record {i}"
                    );
                }
            }
        }
        // A reopen over the damage (one bit per byte is enough here) cuts
        // the log at the damaged record: the records before it read
        // exactly, it and the ones after are typed errors.
        let mut damaged = fx.bytes.clone();
        damaged[at] ^= 0x10;
        let redir = dir.join("reopen");
        std::fs::create_dir_all(&redir).expect("mkdir");
        std::fs::write(redir.join("seg-00000000.lps"), &damaged).expect("write damaged");
        let mut log = SegmentLog::open(&FsIo, &redir).expect("open");
        for (i, addr) in fx.addrs.iter().enumerate() {
            match log.read(&FsIo, addr) {
                Ok(got) => {
                    assert!(i < hit, "byte {at}: record {i} survived");
                    assert_eq!(got, fx.payloads[i], "byte {at}: record {i}");
                }
                Err(e) => {
                    assert!(i >= hit, "byte {at}: record {i} lost: {e}");
                    assert!(matches!(e, StoreError::Corrupt(_)), "byte {at}: {e}");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A version chain built from a seed: pending and committed versions,
/// inverted and extreme intervals, reader lists.
fn chain(seed: u64, versions: usize) -> KeyVersions {
    let raw = payload(seed, versions * 16 + 8);
    let word = |i: usize| {
        u64::from_le_bytes(raw[i * 8..i * 8 + 8].try_into().expect("eight bytes"))
            >> (raw[i * 8] % 60)
    };
    // Not Interval::new: inverted bounds must survive as they are.
    let iv = |a: u64, b: u64| Interval {
        lo: Timestamp(a),
        hi: Timestamp(b),
    };
    let entries = (0..versions)
        .map(|i| VersionEntry {
            uid: VersionUid(word(2 * i)),
            value: Value(word(2 * i + 1)),
            txn: TxnId(i as u64),
            install: iv(word(2 * i), word(2 * i + 1)),
            visibility: (i % 3 != 0).then(|| iv(word(2 * i + 1), u64::MAX)),
            writer_snapshot: iv(0, word(2 * i)),
            readers: (0..i % 4)
                .map(|r| (TxnId(word(r)), iv(word(r + 1), word(r))))
                .collect(),
        })
        .collect();
    KeyVersions {
        key: Key(word(0)),
        entries,
    }
}

proptest! {
    #[test]
    fn version_chains_round_trip_and_no_prefix_decodes(
        seed in 0u64..1 << 32,
        versions in 0usize..12,
    ) {
        let rec = chain(seed, versions);
        let mut bytes = Vec::new();
        put_key_versions(&mut bytes, &rec);
        prop_assert_eq!(&decode_key_versions(&bytes).expect("decodes"), &rec);
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_key_versions(&bytes[..cut]).is_err(),
                "a {cut}-byte prefix of {} bytes decoded",
                bytes.len()
            );
        }
        bytes.push(0);
        prop_assert!(decode_key_versions(&bytes).is_err(), "trailing byte accepted");
    }

    #[test]
    fn segment_round_trips_any_batches(
        seed in 0u64..1 << 20,
        lens in prop::collection::vec(0usize..9000, 1..12),
        split in 0usize..12,
    ) {
        let dir = tmp_dir(&format!("rt-{seed}-{}-{split}", lens.len()));
        let records: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| payload(seed.wrapping_add(i as u64), len))
            .collect();
        let split = split.min(records.len());
        let mut log = SegmentLog::open(&FsIo, &dir).expect("open segment dir");
        let mut addrs = append(&mut log, &FsIo, &records[..split]);
        addrs.extend(append(&mut log, &FsIo, &records[split..]));
        log.sync(&FsIo).expect("sync");
        drop(log);
        let mut log = SegmentLog::open(&FsIo, &dir).expect("reopen");
        for (rec, addr) in records.iter().zip(&addrs) {
            prop_assert_eq!(&log.read(&FsIo, addr).expect("read back"), rec);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dribbled_reads_return_exact_records(
        seed in 0u64..1 << 20,
        chunk in 1usize..7,
    ) {
        let dir = tmp_dir(&format!("dribble-{seed}-{chunk}"));
        let io = DribbleIo { inner: FsIo, chunk };
        let records = [payload(seed, 4417), Vec::new(), payload(seed ^ 1, 33)];
        let mut log = SegmentLog::open(&io, &dir).expect("open");
        // The read-back that verifies the append dribbles too.
        let addrs = append(&mut log, &io, &records);
        drop(log);
        // So does the recovery scan of a reopen.
        let mut log = SegmentLog::open(&io, &dir).expect("reopen through dribble");
        for (rec, addr) in records.iter().zip(&addrs) {
            prop_assert_eq!(&log.read(&io, addr).expect("read through dribble"), rec);
        }
        let next = append(&mut log, &io, &records[2..])[0];
        prop_assert_eq!(
            next.offset as usize,
            addrs[2].offset as usize + RECORD_HEADER + 33,
            "the scan accepted every record"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_write_storms_lose_no_record(seed in 0u64..1 << 20) {
        let dir = tmp_dir(&format!("storm-{seed}"));
        let io = FaultIo::new(
            FsIo,
            FaultSpec {
                seed,
                short_write_prob: 0.7,
                ..FaultSpec::default()
            },
        );
        let mut log = SegmentLog::open(&io, &dir).expect("open");
        let mut all = Vec::new();
        for round in 0..6u64 {
            let records: Vec<Vec<u8>> = (0..4)
                .map(|i| payload(seed ^ (round * 4 + i), 50 + 700 * i as usize))
                .collect();
            let addrs = append(&mut log, &io, &records);
            all.extend(records.into_iter().zip(addrs));
        }
        prop_assert!(io.injected().short_writes > 0, "nothing was injected");
        drop(log);
        let mut log = SegmentLog::open(&FsIo, &dir).expect("reopen");
        for (rec, addr) in &all {
            prop_assert_eq!(&log.read(&FsIo, addr).expect("read back"), rec);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// An I/O layer whose reads return at most `chunk` bytes per call —
/// legal `pread` behaviour that exposes any missing read-retry loop.
#[derive(Debug)]
struct DribbleIo {
    inner: FsIo,
    chunk: usize,
}

#[derive(Debug)]
struct DribbleFile {
    inner: Box<dyn StoreFile>,
    chunk: usize,
}

impl StoreFile for DribbleFile {
    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }

    fn read_at(&mut self, off: u64, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.chunk);
        self.inner.read_at(off, &mut buf[..n])
    }

    fn write_at(&mut self, off: u64, data: &[u8]) -> io::Result<usize> {
        self.inner.write_at(off, data)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }
}

impl StoreIo for DribbleIo {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn StoreFile>> {
        Ok(Box::new(DribbleFile {
            inner: self.inner.open(path)?,
            chunk: self.chunk,
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.inner.write_atomic(path, data)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn list(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list(path)
    }
}

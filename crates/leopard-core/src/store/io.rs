//! Injectable storage I/O: the [`StoreIo`] boundary, the real
//! filesystem implementation, and a seeded hostile-disk fault injector.
//!
//! Every byte the spill tier, the stream journal and the checkpoint image
//! move crosses this trait, so the fault-injection suite can subject the
//! *production* code paths — not mocks of them — to ENOSPC, short
//! writes, torn writes, fsync failures and delayed errors, and prove
//! each one resolves to a retry, a counted fallback or a typed error.
//!
//! The injector's randomness is a hand-rolled splitmix64: `leopard-core`
//! has no `rand` runtime dependency and the whole point of seeded faults
//! is bit-reproducible schedules.

use crate::lockwitness::TrackedMutex;
use std::fmt;
use std::fs;
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One open, random-access storage file.
pub trait StoreFile: Send + fmt::Debug {
    /// Current length in bytes.
    fn len(&mut self) -> io::Result<u64>;
    /// Whether the file holds no bytes.
    fn is_empty(&mut self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
    /// Reads up to `buf.len()` bytes at `off`, returning the count
    /// (short reads are legal, exactly like `pread`).
    fn read_at(&mut self, off: u64, buf: &mut [u8]) -> io::Result<usize>;
    /// Writes up to `data.len()` bytes at `off`, returning the count
    /// (short writes are legal, exactly like `pwrite`).
    fn write_at(&mut self, off: u64, data: &[u8]) -> io::Result<usize>;
    /// Truncates (or extends with zeros) to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Durably flushes file contents (`fsync`).
    fn sync(&mut self) -> io::Result<()>;
}

/// The storage-I/O boundary of the spill tier, the stream journal and
/// the checkpoint image.
pub trait StoreIo: Send + Sync + fmt::Debug {
    /// Creates `path` and every missing parent directory.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Opens (creating if absent) `path` for random-access read/write.
    fn open(&self, path: &Path) -> io::Result<Box<dyn StoreFile>>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Atomically and durably replaces `path` with `data`
    /// (write-to-temp, fsync, rename, fsync parent directory).
    fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Renames `from` over `to` within one directory. Not synced by
    /// itself: the next [`StoreIo::write_atomic`] in that directory
    /// makes it durable, and until then either name is a valid outcome.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file; absent files are not an error.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Paths of the directory's entries (files only), sorted.
    fn list(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
}

/// The real filesystem behind [`StoreIo`].
#[derive(Debug, Default, Clone, Copy)]
pub struct FsIo;

/// A real file opened by [`FsIo`]. Positioned reads/writes are done with
/// seek + read/write so the implementation stays platform-portable.
#[derive(Debug)]
struct FsFile {
    file: fs::File,
}

impl StoreFile for FsFile {
    fn len(&mut self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn read_at(&mut self, off: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.file.seek(SeekFrom::Start(off))?;
        self.file.read(buf)
    }

    fn write_at(&mut self, off: u64, data: &[u8]) -> io::Result<usize> {
        self.file.seek(SeekFrom::Start(off))?;
        self.file.write(data)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }
}

impl StoreIo for FsIo {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn StoreFile>> {
        let file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(Box::new(FsFile { file }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension("store.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(data)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        fs::File::open(parent)?.sync_all()?;
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        match fs::remove_file(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }

    fn list(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(path)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }
}

/// Seeded splitmix64 stream — the injector's only source of randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `true` with probability `prob` (clamped to `[0, 1]`).
    pub fn chance(&mut self, prob: f64) -> bool {
        if prob <= 0.0 {
            return false;
        }
        if prob >= 1.0 {
            return true;
        }
        // 53 uniform mantissa bits, the standard float-in-[0,1) recipe.
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < prob
    }
}

/// What the fault injector is allowed to do, all off by default.
/// Probabilities are per-operation; the schedule is fully determined by
/// [`FaultSpec::seed`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultSpec {
    /// Seed of the injector's splitmix64 stream.
    pub seed: u64,
    /// Fail writes with `ENOSPC` once this many bytes were written
    /// through the injector (`None` = unlimited disk).
    pub enospc_after_bytes: Option<u64>,
    /// Probability a write persists only a prefix (short write, no
    /// error reported — the caller must notice the count).
    pub short_write_prob: f64,
    /// Probability a write persists a prefix *and* reports an error
    /// (torn write: the bytes are damaged and the caller knows
    /// something went wrong, but not how much landed).
    pub torn_write_prob: f64,
    /// Probability an `fsync` fails after the data already reached the
    /// file (the dreaded fsyncgate shape).
    pub sync_fail_prob: f64,
    /// Probability a read fails with `EIO`.
    pub read_err_prob: f64,
    /// Probability a write reports success but the error surfaces on
    /// the *next* `sync` (delayed error, writeback semantics).
    pub delayed_write_err_prob: f64,
}

impl FaultSpec {
    /// `true` when every fault is disabled (the injector is a
    /// pass-through).
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.enospc_after_bytes.is_none()
            && self.short_write_prob == 0.0
            && self.torn_write_prob == 0.0
            && self.sync_fail_prob == 0.0
            && self.read_err_prob == 0.0
            && self.delayed_write_err_prob == 0.0
    }
}

/// Shared mutable state of one [`FaultIo`] and all files it opened.
#[derive(Debug)]
struct FaultState {
    rng: SplitMix64,
    spec: FaultSpec,
    bytes_written: u64,
    /// A delayed write error armed for the next sync.
    pending_sync_err: bool,
    /// Faults injected so far, by kind, for test assertions.
    injected: InjectedFaults,
}

/// Tally of faults a [`FaultIo`] injected, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Writes failed with `ENOSPC`.
    pub enospc: u64,
    /// Silent short writes.
    pub short_writes: u64,
    /// Torn writes (prefix persisted + error reported).
    pub torn_writes: u64,
    /// Failed `fsync` calls.
    pub sync_failures: u64,
    /// Failed reads.
    pub read_errors: u64,
    /// Write errors delayed to the following sync.
    pub delayed_errors: u64,
}

impl InjectedFaults {
    /// Total faults injected across all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.enospc
            + self.short_writes
            + self.torn_writes
            + self.sync_failures
            + self.read_errors
            + self.delayed_errors
    }
}

/// A fault-injecting [`StoreIo`] wrapping an inner implementation.
///
/// All files opened through one `FaultIo` share one seeded fault stream,
/// so a run's fault schedule is a pure function of the seed and the
/// operation sequence.
#[derive(Debug, Clone)]
pub struct FaultIo<I> {
    inner: Arc<I>,
    state: Arc<TrackedMutex<FaultState>>,
}

impl<I: StoreIo> FaultIo<I> {
    /// Wraps `inner` with the fault schedule of `spec`.
    #[must_use]
    pub fn new(inner: I, spec: FaultSpec) -> FaultIo<I> {
        FaultIo {
            inner: Arc::new(inner),
            state: Arc::new(TrackedMutex::new(
                "FaultIo.state",
                FaultState {
                    rng: SplitMix64::new(spec.seed),
                    spec,
                    bytes_written: 0,
                    pending_sync_err: false,
                    injected: InjectedFaults::default(),
                },
            )),
        }
    }

    /// Faults injected so far.
    #[must_use]
    pub fn injected(&self) -> InjectedFaults {
        self.state.lock().injected
    }
}

fn enospc() -> io::Error {
    io::Error::new(io::ErrorKind::StorageFull, "injected ENOSPC")
}

fn eio(what: &str) -> io::Error {
    io::Error::other(format!("injected i/o error: {what}"))
}

/// A file opened through a [`FaultIo`].
#[derive(Debug)]
struct FaultFile {
    inner: Box<dyn StoreFile>,
    state: Arc<TrackedMutex<FaultState>>,
}

impl StoreFile for FaultFile {
    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }

    fn read_at(&mut self, off: u64, buf: &mut [u8]) -> io::Result<usize> {
        {
            let mut st = self.state.lock();
            let prob = st.spec.read_err_prob;
            if st.rng.chance(prob) {
                st.injected.read_errors += 1;
                return Err(eio("read"));
            }
        }
        self.inner.read_at(off, buf)
    }

    fn write_at(&mut self, off: u64, data: &[u8]) -> io::Result<usize> {
        enum Plan {
            Enospc,
            Short(usize),
            Torn(usize),
            Delayed,
            Clean,
        }
        let plan = {
            let mut st = self.state.lock();
            if let Some(cap) = st.spec.enospc_after_bytes {
                if st.bytes_written + data.len() as u64 > cap {
                    st.injected.enospc += 1;
                    Plan::Enospc
                } else {
                    st.bytes_written += data.len() as u64;
                    Plan::Clean
                }
            } else {
                st.bytes_written += data.len() as u64;
                Plan::Clean
            }
        };
        let plan = match plan {
            Plan::Clean => {
                // Reborrowed once so a draw can read its probability from
                // `spec` while `rng` is borrowed. The draws keep this order
                // and stay short-circuited: seeded schedules depend on it.
                let st = &mut *self.state.lock();
                if data.len() > 1 && st.rng.chance(st.spec.short_write_prob) {
                    st.injected.short_writes += 1;
                    let cut = 1 + (st.rng.next_u64() as usize) % (data.len() - 1);
                    Plan::Short(cut)
                } else if data.len() > 1 && st.rng.chance(st.spec.torn_write_prob) {
                    st.injected.torn_writes += 1;
                    let cut = 1 + (st.rng.next_u64() as usize) % (data.len() - 1);
                    Plan::Torn(cut)
                } else if st.rng.chance(st.spec.delayed_write_err_prob) {
                    st.injected.delayed_errors += 1;
                    st.pending_sync_err = true;
                    Plan::Delayed
                } else {
                    Plan::Clean
                }
            }
            other => other,
        };
        match plan {
            Plan::Enospc => Err(enospc()),
            Plan::Short(cut) => self.inner.write_at(off, &data[..cut]),
            Plan::Torn(cut) => {
                let _ = self.inner.write_at(off, &data[..cut]);
                Err(eio("torn write"))
            }
            // A delayed error still persists the data (writeback cached);
            // the failure surfaces at the next sync.
            Plan::Delayed | Plan::Clean => self.inner.write_at(off, data),
        }
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn sync(&mut self) -> io::Result<()> {
        {
            let mut st = self.state.lock();
            if st.pending_sync_err {
                st.pending_sync_err = false;
                return Err(eio("delayed write error reported at fsync"));
            }
            let prob = st.spec.sync_fail_prob;
            if st.rng.chance(prob) {
                st.injected.sync_failures += 1;
                return Err(eio("fsync"));
            }
        }
        self.inner.sync()
    }
}

impl<I: StoreIo + 'static> StoreIo for FaultIo<I> {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn StoreFile>> {
        let inner = self.inner.open(path)?;
        Ok(Box::new(FaultFile {
            inner,
            state: Arc::clone(&self.state),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        {
            let mut st = self.state.lock();
            let prob = st.spec.read_err_prob;
            if st.rng.chance(prob) {
                st.injected.read_errors += 1;
                return Err(eio("read"));
            }
        }
        self.inner.read(path)
    }

    fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        {
            let mut st = self.state.lock();
            if let Some(cap) = st.spec.enospc_after_bytes {
                if st.bytes_written + data.len() as u64 > cap {
                    st.injected.enospc += 1;
                    return Err(enospc());
                }
            }
            st.bytes_written += data.len() as u64;
            let prob = st.spec.sync_fail_prob;
            if st.rng.chance(prob) {
                st.injected.sync_failures += 1;
                return Err(eio("fsync during atomic replace"));
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("leopard-store-io-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    #[test]
    fn fs_io_round_trips() {
        let dir = tmp_dir("fs");
        let io = FsIo;
        let path = dir.join("a.seg");
        let mut f = io.open(&path).expect("open");
        assert_eq!(f.write_at(0, b"hello").expect("write"), 5);
        assert_eq!(f.write_at(5, b" world").expect("write"), 6);
        f.sync().expect("sync");
        let mut buf = [0u8; 11];
        assert_eq!(f.read_at(0, &mut buf).expect("read"), 11);
        assert_eq!(&buf, b"hello world");
        assert_eq!(f.len().expect("len"), 11);
        io.write_atomic(&dir.join("m.json"), b"{}").expect("atomic");
        assert_eq!(io.read(&dir.join("m.json")).expect("read"), b"{}");
        assert_eq!(io.list(&dir).expect("list").len(), 2);
        io.remove(&path).expect("remove");
        io.remove(&path).expect("idempotent remove");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_fires_at_the_byte_cap() {
        let dir = tmp_dir("enospc");
        let io = FaultIo::new(
            FsIo,
            FaultSpec {
                enospc_after_bytes: Some(8),
                ..FaultSpec::default()
            },
        );
        let mut f = io.open(&dir.join("a.seg")).expect("open");
        assert_eq!(f.write_at(0, b"12345678").expect("fits"), 8);
        let err = f.write_at(8, b"9").expect_err("over cap");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(io.injected().enospc, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn faults_are_seed_deterministic() {
        let spec = FaultSpec {
            seed: 0xfeed,
            short_write_prob: 0.3,
            torn_write_prob: 0.2,
            sync_fail_prob: 0.2,
            read_err_prob: 0.1,
            ..FaultSpec::default()
        };
        let run = || {
            let dir = tmp_dir("det");
            let io = FaultIo::new(FsIo, spec);
            let mut f = io.open(&dir.join("a.seg")).expect("open");
            let mut log = Vec::new();
            for i in 0..200u64 {
                log.push(f.write_at(i * 8, b"01234567").map_err(|e| e.to_string()));
                if i % 10 == 0 {
                    log.push(f.sync().map(|()| 8).map_err(|e| e.to_string()));
                }
            }
            let _ = fs::remove_dir_all(&dir);
            (log, io.injected())
        };
        let (log_a, inj_a) = run();
        let (log_b, inj_b) = run();
        assert_eq!(log_a, log_b);
        assert_eq!(inj_a, inj_b);
        assert!(inj_a.total() > 0, "spec should have injected something");
    }

    #[test]
    fn delayed_error_surfaces_on_next_sync() {
        let dir = tmp_dir("delayed");
        let io = FaultIo::new(
            FsIo,
            FaultSpec {
                seed: 1,
                delayed_write_err_prob: 1.0,
                ..FaultSpec::default()
            },
        );
        let mut f = io.open(&dir.join("a.seg")).expect("open");
        assert_eq!(f.write_at(0, b"abc").expect("write reports success"), 3);
        assert!(f.sync().is_err(), "the armed error fires at fsync");
        let _ = fs::remove_dir_all(&dir);
    }
}

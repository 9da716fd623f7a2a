//! The stream journal: wire frames appended beside a checkpoint image.
//!
//! `leopard serve` makes a stream's ingest cursor durable with a full
//! image only occasionally; between images it appends the trace frames
//! it ingested — in the wire format ([`crate::wire`]: varint length ‖
//! payload ‖ CRC-32), exactly as the client sent them — to
//! `<stream>.wal` and syncs. Recovery loads the image and replays the
//! journal through the verifier, which is what a reconnecting client
//! resending from the image's cursor would have caused anyway.
//!
//! The file is untrusted on the way back in: replay drops frames at or
//! below the image's cursor (a crash between writing an image and
//! resetting the journal leaves exactly those), and stops at the first
//! sequence gap, checksum failure, undecodable frame or torn tail. The
//! file is cut back to the accepted prefix before anything is appended
//! again, so a damaged frame can never hide the frames written after it.

use super::io::{StoreFile, StoreIo};
use super::segment::write_fully;
use super::{StoreError, StoreResult};
use crate::wire::{Frame, FrameDecoder, TraceFrame};
use std::path::{Path, PathBuf};

/// An open journal file and the length of its accepted, synced prefix.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Box<dyn StoreFile>,
    /// Where the next append lands; every byte before it is synced.
    len: u64,
}

/// Splits journal `bytes` against an image at `cursor`: the frames that
/// replay (`cursor + 1`, `cursor + 2`, … without a gap) and the byte
/// length of the prefix they and the duplicates before them occupy.
fn scan(bytes: &[u8], cursor: u64) -> (Vec<TraceFrame>, u64) {
    let mut dec = FrameDecoder::new();
    dec.extend(bytes);
    let mut frames = Vec::new();
    let mut next = cursor + 1;
    loop {
        let frame_start = bytes.len() - dec.buffered();
        match dec.next_frame() {
            Ok(Some(Frame::Trace(tf))) if tf.seq < next => {}
            Ok(Some(Frame::Trace(tf))) if tf.seq == next => {
                frames.push(tf);
                next += 1;
            }
            // A gap, a frame that is not a trace, a torn tail, or bytes
            // that fail their checksum: nothing from here on is applied.
            _ => return (frames, frame_start as u64),
        }
    }
}

impl Journal {
    /// Opens the journal at `path` for a stream whose image is at
    /// `cursor`, returning it positioned after the accepted prefix
    /// together with the frames to replay. The file is created if
    /// absent and truncated to the accepted prefix if it holds more.
    pub fn open(
        io: &dyn StoreIo,
        path: &Path,
        cursor: u64,
    ) -> StoreResult<(Journal, Vec<TraceFrame>)> {
        let bytes = match io.read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // Created through the atomic-replace path for the fsync
                // of the parent directory it ends with: syncing appends
                // to a file whose directory entry a power loss can drop
                // would make nothing durable.
                io.write_atomic(path, &[]).map_err(StoreError::Io)?;
                Vec::new()
            }
            Err(e) => return Err(StoreError::Io(e)),
        };
        let (frames, len) = scan(&bytes, cursor);
        let mut file = io.open(path).map_err(StoreError::Io)?;
        if len < bytes.len() as u64 {
            file.set_len(len).map_err(StoreError::Io)?;
        }
        let journal = Journal {
            path: path.to_path_buf(),
            file,
            len,
        };
        Ok((journal, frames))
    }

    /// Bytes in the journal: the accepted prefix plus every append since.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when nothing is journaled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends already-encoded frames and syncs. On failure the file is
    /// cut back to the last synced length, so a retry (or a later
    /// append) never leaves a torn frame in the middle.
    pub fn append(&mut self, frames: &[u8]) -> StoreResult<()> {
        let wrote = write_fully(self.file.as_mut(), self.len, frames)
            .and_then(|()| self.file.sync().map_err(StoreError::Io));
        match wrote {
            Ok(()) => {
                self.len += frames.len() as u64;
                Ok(())
            }
            Err(e) => {
                // Best effort: the next write starts at `len` and covers
                // the torn bytes even if this truncation fails too.
                let _ = self.file.set_len(self.len);
                Err(e)
            }
        }
    }

    /// Empties the journal after an image made its frames redundant.
    /// Not synced: if a crash loses the truncation, every frame left
    /// behind is at or below the image's cursor and replay drops it.
    pub fn reset(&mut self) -> StoreResult<()> {
        self.file.set_len(0).map_err(StoreError::Io)?;
        self.len = 0;
        Ok(())
    }

    /// Deletes the journal file (a finished stream has nothing to replay).
    pub fn remove(self, io: &dyn StoreIo) -> StoreResult<()> {
        io.remove(&self.path).map_err(StoreError::Io)
    }
}

#[cfg(test)]
mod tests {
    use super::super::io::{FaultIo, FaultSpec, FsIo};
    use super::*;
    use crate::trace::{Trace, TraceBuilder};
    use std::fs;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("leopard-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    fn traces(n: usize) -> Vec<Trace> {
        let mut b = TraceBuilder::new();
        for i in 0..n as u64 {
            b.write(10 * i, 10 * i + 2, 0, i + 1, vec![(i % 3, i)]);
        }
        b.build_sorted()
    }

    /// Frames `from..=to` encoded back to back, and each frame's end
    /// offset within the returned bytes.
    fn batch(all: &[Trace], from: u64, to: u64) -> (Vec<u8>, Vec<usize>) {
        let mut bytes = Vec::new();
        let mut ends = Vec::new();
        for seq in from..=to {
            let frame = Frame::Trace(TraceFrame {
                seq,
                trace: all[seq as usize - 1].clone(),
            });
            bytes.extend_from_slice(&frame.to_bytes());
            ends.push(bytes.len());
        }
        (bytes, ends)
    }

    fn seqs(frames: &[TraceFrame]) -> Vec<u64> {
        frames.iter().map(|f| f.seq).collect()
    }

    #[test]
    fn append_reopen_replays_in_order() {
        let dir = tmp_dir("reopen");
        let path = dir.join("s.wal");
        let all = traces(6);
        let (mut j, replay) = Journal::open(&FsIo, &path, 2).expect("open");
        assert!(replay.is_empty() && j.is_empty());
        j.append(&batch(&all, 3, 4).0).expect("append");
        j.append(&batch(&all, 5, 6).0).expect("append");
        let len = j.len();
        drop(j);
        let (j, replay) = Journal::open(&FsIo, &path, 2).expect("reopen");
        assert_eq!(seqs(&replay), [3, 4, 5, 6]);
        assert_eq!(replay[0].trace, all[2]);
        assert_eq!(j.len(), len);
        j.remove(&FsIo).expect("remove");
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_truncation_accepts_exactly_the_whole_frames() {
        let dir = tmp_dir("trunc");
        let path = dir.join("s.wal");
        let all = traces(9);
        // Three batches of three frames over an image at cursor 0.
        let (bytes, ends) = batch(&all, 1, 9);
        for cut in 0..=bytes.len() {
            fs::write(&path, &bytes[..cut]).expect("write prefix");
            let whole = ends.iter().take_while(|&&e| e <= cut).count();
            let (mut j, replay) = Journal::open(&FsIo, &path, 0).expect("open never fails");
            let want: Vec<u64> = (1..=whole as u64).collect();
            assert_eq!(seqs(&replay), want, "cut at {cut}");
            let accepted = if whole == 0 { 0 } else { ends[whole - 1] };
            assert_eq!(j.len(), accepted as u64, "cut at {cut}");
            // The next append lands directly after the accepted prefix.
            j.append(&bytes[accepted..]).expect("append");
            drop(j);
            assert_eq!(fs::read(&path).expect("read back"), bytes, "cut at {cut}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every single-bit flip of a nine-frame journal. The frames here have
    /// 10-byte payloads, which the wire checksum covers completely; it is
    /// FxHash truncated to its low 32 bits, so bytes 4..8 of a payload's
    /// last 8-byte word never reach it (a property of the wire format the
    /// journal inherits, see DESIGN.md §12).
    #[test]
    fn a_flipped_bit_stops_replay_before_the_damaged_frame() {
        let dir = tmp_dir("flip");
        let path = dir.join("s.wal");
        let all = traces(9);
        let (bytes, ends) = batch(&all, 1, 9);
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut damaged = bytes.clone();
                damaged[at] ^= 1 << bit;
                fs::write(&path, &damaged).expect("write");
                let intact = ends.iter().take_while(|&&e| e <= at).count();
                let (j, replay) = Journal::open(&FsIo, &path, 0).expect("open");
                let want: Vec<u64> = (1..=intact as u64).collect();
                assert_eq!(seqs(&replay), want, "bit {bit} of byte {at}");
                let accepted = if intact == 0 { 0 } else { ends[intact - 1] };
                assert_eq!(j.len(), accepted as u64, "bit {bit} of byte {at}");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_and_gap_journals_replay_nothing() {
        let dir = tmp_dir("stale");
        let path = dir.join("s.wal");
        let all = traces(9);
        // Stale: the image moved to cursor 6 and the reset was lost.
        let (stale, _) = batch(&all, 1, 6);
        fs::write(&path, &stale).expect("write");
        let (j, replay) = Journal::open(&FsIo, &path, 6).expect("open");
        assert!(replay.is_empty());
        assert_eq!(j.len(), stale.len() as u64, "duplicates stay in place");
        drop(j);
        // Gap: the image fell back to cursor 2, the journal starts at 7.
        let (gap, _) = batch(&all, 7, 9);
        fs::write(&path, &gap).expect("write");
        let (j, replay) = Journal::open(&FsIo, &path, 2).expect("open");
        assert!(replay.is_empty());
        assert_eq!(j.len(), 0, "nothing before the gap is kept");
        drop(j);
        assert_eq!(fs::read(&path).expect("read").len(), 0);
        // A non-trace frame ends the replay like any other damage.
        let mut mixed = batch(&all, 3, 4).0;
        let kept = mixed.len();
        mixed.extend_from_slice(&Frame::Bye { traces_sent: 4 }.to_bytes());
        mixed.extend_from_slice(&batch(&all, 5, 5).0);
        fs::write(&path, &mixed).expect("write");
        let (j, replay) = Journal::open(&FsIo, &path, 2).expect("open");
        assert_eq!(seqs(&replay), [3, 4]);
        assert_eq!(j.len(), kept as u64);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_append_leaves_no_torn_frame_behind() {
        let all = traces(8);
        let first = batch(&all, 1, 4).0;
        let second = batch(&all, 5, 8).0;
        for (tag, spec) in [
            (
                "enospc",
                FaultSpec {
                    enospc_after_bytes: Some(first.len() as u64 + 10),
                    ..FaultSpec::default()
                },
            ),
            (
                "torn",
                FaultSpec {
                    seed: 3,
                    torn_write_prob: 0.5,
                    ..FaultSpec::default()
                },
            ),
            (
                "delayed",
                FaultSpec {
                    seed: 5,
                    delayed_write_err_prob: 0.5,
                    ..FaultSpec::default()
                },
            ),
            (
                "short",
                FaultSpec {
                    seed: 7,
                    short_write_prob: 0.7,
                    ..FaultSpec::default()
                },
            ),
        ] {
            let dir = tmp_dir(tag);
            let path = dir.join("s.wal");
            let io = FaultIo::new(FsIo, spec);
            let (mut j, _) = Journal::open(&io, &path, 0).expect("open");
            // Up to a handful of attempts per batch, like the daemon's
            // retry; a batch that never lands ends the stream there.
            let mut acked = 0u64;
            for part in [&first, &second] {
                if !(0..6).any(|_| j.append(part).is_ok()) {
                    break;
                }
                acked += 4;
            }
            let len = j.len();
            drop(j);
            assert!(io.injected().total() > 0, "{tag}: nothing was injected");
            // Whatever failed, the file replays exactly what was acked.
            let (j, replay) = Journal::open(&FsIo, &path, 0).expect("reopen");
            let want: Vec<u64> = (1..=acked).collect();
            assert_eq!(seqs(&replay), want, "{tag}");
            assert_eq!(j.len(), len, "{tag}");
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

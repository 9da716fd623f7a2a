//! Compact binary wire protocol for streaming interval traces into a
//! `leopard serve` daemon (DESIGN.md §12).
//!
//! The capture JSONL format ([`crate::capture`]) is the archival hand-off;
//! this module is the *live* hand-off: a length-prefixed binary framing
//! that a thin client-side shim can emit per operation with no JSON
//! machinery and a few bytes per trace. Layout of one frame:
//!
//! ```text
//! varint(payload_len) ‖ payload ‖ u32le checksum(payload)
//! ```
//!
//! where the checksum is the CRC-32 of the payload
//! ([`crate::store::crc32`], the one the spill log and the checkpoint
//! seal use) — it catches every torn or bit-flipped frame the chaos soak
//! injects; it is not a cryptographic MAC. The payload's first byte is a
//! frame tag;
//! integers are LEB128 varints; `ts_aft` is a zigzag delta against
//! `ts_bef` (intervals are short, inverted ones — an ill-formedness the
//! verifier must be able to *see* — still round-trip via wrapping).
//!
//! Client→server frames: [`Hello`] (versioned handshake: stream name,
//! isolation level, per-stream [`MemBudget`](crate::budget::MemBudget)
//! byte request, preload image), [`TraceFrame`] (one sequenced trace),
//! `Bye` (total sent, requests the verdict). Server→client: `Ack`
//! (handshake accepted, resume cursor), `Reject` (typed refusal),
//! `Verdict` (final verdict JSON). Every decode failure is a typed
//! [`WireError`]; nothing panics on hostile input.

use crate::catalog::IsolationLevel;
use crate::interval::Interval;
use crate::trace::{OpKind, Trace};
use crate::types::{ClientId, Key, Timestamp, TxnId, Value};
use crate::verify::{KeyVersions, VersionEntry, VersionUid};
use std::fmt;
use std::io::{Read, Write};

/// Wire protocol version carried in every [`Hello`]; the server rejects
/// anything else with [`RejectReason::Version`].
///
/// Version 2: the frame checksum is CRC-32. Version 1's was FxHash cut to
/// 32 bits, which never saw bytes 4–7 of a payload's last 8-byte word.
pub const WIRE_VERSION: u32 = 2;

/// Upper bound on one frame's payload, enforced on both encode and
/// decode. A trace frame is tens of bytes; a `Hello` with a large
/// preload or a `Verdict` with a large report stays well under this.
/// Anything bigger is a corrupt length prefix, not a real frame.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Bytes of the trailing payload checksum.
const CHECKSUM_LEN: usize = 4;

/// Frame tags (first payload byte). Client→server tags are small,
/// server→client tags start at 16 so a confused peer fails fast.
const TAG_HELLO: u8 = 1;
const TAG_TRACE: u8 = 2;
const TAG_BYE: u8 = 3;
const TAG_ACK: u8 = 16;
const TAG_REJECT: u8 = 17;
const TAG_VERDICT: u8 = 18;

/// Why a frame (or stream of frames) could not be decoded.
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket/file I/O failure.
    Io(std::io::Error),
    /// The stream ended in the middle of a frame.
    Truncated,
    /// A length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized {
        /// The declared payload length.
        len: u64,
    },
    /// A varint ran past 10 bytes (more than 64 bits of payload).
    VarintOverflow,
    /// The payload checksum did not match — a torn or bit-flipped frame.
    Corrupt {
        /// Checksum recomputed from the payload.
        expected: u32,
        /// Checksum found on the wire.
        found: u32,
    },
    /// The frame tag is not part of the protocol.
    UnknownFrame(u8),
    /// A trace frame carried an operation tag outside `0..=4`.
    UnknownOp(u8),
    /// A hello frame carried an isolation-level byte outside `0..=3`.
    UnknownLevel(u8),
    /// A reject frame carried an unassigned reason byte.
    UnknownReason(u8),
    /// A version-chain record carried a visibility flag other than 0/1.
    UnknownFlag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// The payload had bytes left over after the frame was fully parsed
    /// — a framing bug or corruption the checksum happened to miss.
    Trailing {
        /// Number of undecoded payload bytes.
        extra: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Truncated => f.write_str("stream truncated mid-frame"),
            WireError::Oversized { len } => {
                write!(f, "frame length {len} exceeds maximum {MAX_FRAME_LEN}")
            }
            WireError::VarintOverflow => f.write_str("varint longer than 64 bits"),
            WireError::Corrupt { expected, found } => write!(
                f,
                "frame checksum mismatch (computed {expected:#010x}, wire {found:#010x})"
            ),
            WireError::UnknownFrame(t) => write!(f, "unknown frame tag {t}"),
            WireError::UnknownOp(t) => write!(f, "unknown trace operation tag {t}"),
            WireError::UnknownLevel(l) => write!(f, "unknown isolation-level byte {l}"),
            WireError::UnknownReason(r) => write!(f, "unknown reject-reason byte {r}"),
            WireError::UnknownFlag(b) => write!(f, "unknown visibility flag {b}"),
            WireError::BadUtf8 => f.write_str("string field is not valid utf-8"),
            WireError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after frame payload")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Why the server refused a handshake or aborted a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The client's [`WIRE_VERSION`] is not supported.
    Version,
    /// Global admission control: the shared budget has no room for the
    /// stream's requested slice.
    Admission,
    /// The stream sent an undecodable or out-of-sequence frame and was
    /// quarantined.
    Malformed,
    /// The server is draining and accepts no new streams.
    Draining,
    /// The stream's verifier panicked; the stream is quarantined into a
    /// degraded verdict.
    Quarantined,
}

impl RejectReason {
    fn to_byte(self) -> u8 {
        match self {
            RejectReason::Version => 1,
            RejectReason::Admission => 2,
            RejectReason::Malformed => 3,
            RejectReason::Draining => 4,
            RejectReason::Quarantined => 5,
        }
    }

    fn from_byte(b: u8) -> Result<RejectReason, WireError> {
        match b {
            1 => Ok(RejectReason::Version),
            2 => Ok(RejectReason::Admission),
            3 => Ok(RejectReason::Malformed),
            4 => Ok(RejectReason::Draining),
            5 => Ok(RejectReason::Quarantined),
            other => Err(WireError::UnknownReason(other)),
        }
    }

    /// Short lower-case label used in logs and stream listings.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::Version => "version",
            RejectReason::Admission => "admission",
            RejectReason::Malformed => "malformed",
            RejectReason::Draining => "draining",
            RejectReason::Quarantined => "quarantined",
        }
    }
}

/// The versioned handshake opening every stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version the client speaks ([`WIRE_VERSION`]).
    pub version: u32,
    /// Stream name — the tenant identity. Checkpoints and verdicts are
    /// keyed by it, and reconnecting under the same name resumes.
    pub stream: String,
    /// Free-form description of the workload / DBMS under test.
    pub description: String,
    /// Isolation level the stream claims and the verifier checks.
    pub level: IsolationLevel,
    /// Requested per-stream memory budget in bytes (0 = unlimited; the
    /// server may still charge a default slice against the global budget).
    pub mem_budget: u64,
    /// Initial database contents (what `Verifier::preload` needs).
    pub preload: Vec<(Key, Value)>,
}

/// One sequenced trace on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFrame {
    /// 1-based position of this trace in the stream. The server ingests
    /// exactly the sequence `resume_from+1, resume_from+2, …`: duplicates
    /// (`seq` at or below the cursor) are dropped idempotently, gaps
    /// quarantine the stream. This is what makes reconnect-and-resume
    /// and chaos-duplicated frames safe.
    pub seq: u64,
    /// The trace itself.
    pub trace: Trace,
}

/// One protocol frame, either direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client→server: open (or resume) a stream.
    Hello(Hello),
    /// Client→server: one sequenced trace.
    Trace(TraceFrame),
    /// Client→server: end of stream; `traces_sent` is the highest `seq`
    /// the client emitted, cross-checked by the server before finishing.
    Bye {
        /// Highest sequence number the client sent.
        traces_sent: u64,
    },
    /// Server→client: handshake accepted. The client must skip traces
    /// with `seq <= resume_from` (already ingested before a reconnect).
    Ack {
        /// The server's ingest cursor for this stream.
        resume_from: u64,
    },
    /// Server→client: handshake refused or stream aborted.
    Reject {
        /// Typed refusal class.
        reason: RejectReason,
        /// Human-readable detail.
        message: String,
    },
    /// Server→client: the stream's final verdict document (the JSON
    /// serialization of [`crate::serve::StreamVerdict`]).
    Verdict {
        /// Verdict JSON.
        json: String,
    },
}

// ---------------------------------------------------------------------
// varint / zigzag primitives
// ---------------------------------------------------------------------

/// Appends `v` to `out` as a LEB128 varint (1–10 bytes).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag-encodes a signed delta so small magnitudes of either sign stay
/// short on the wire.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `iv` as `varint(lo) ‖ varint(zigzag(hi - lo))`.
fn put_interval(out: &mut Vec<u8>, iv: &Interval) {
    put_varint(out, iv.lo.0);
    put_varint(out, zigzag(iv.hi.0.wrapping_sub(iv.lo.0) as i64));
}

/// A bounds-checked cursor over one frame payload.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for shift in 0..10 {
            let byte = self.u8()?;
            let bits = u64::from(byte & 0x7f);
            if shift == 9 && byte > 1 {
                // The 10th byte can only contribute the final bit.
                return Err(WireError::VarintOverflow);
            }
            v |= bits << (shift * 7);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::VarintOverflow)
    }

    fn interval(&mut self) -> Result<Interval, WireError> {
        let lo = self.varint()?;
        let hi = lo.wrapping_add(unzigzag(self.varint()?) as u64);
        // Not Interval::new: that would silently swap inverted bounds,
        // and the verifier must see the ill-formedness exactly as the
        // client sent it.
        Ok(Interval {
            lo: Timestamp(lo),
            hi: Timestamp(hi),
        })
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.varint()? as usize;
        let raw = self.bytes(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn kv_set(&mut self) -> Result<Vec<(Key, Value)>, WireError> {
        let n = self.varint()? as usize;
        // Bound the preallocation by what the payload could possibly
        // hold (2 bytes minimum per pair) so a lying count cannot OOM.
        let mut set = Vec::with_capacity(n.min(self.buf.len() / 2 + 1));
        for _ in 0..n {
            let k = self.varint()?;
            let v = self.varint()?;
            set.push((Key(k), Value(v)));
        }
        Ok(set)
    }

    fn done(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Trailing {
                extra: self.buf.len() - self.pos,
            })
        }
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_kv_set(out: &mut Vec<u8>, set: &[(Key, Value)]) {
    put_varint(out, set.len() as u64);
    for &(k, v) in set {
        put_varint(out, k.0);
        put_varint(out, v.0);
    }
}

fn level_to_byte(level: IsolationLevel) -> u8 {
    match level {
        IsolationLevel::ReadCommitted => 0,
        IsolationLevel::RepeatableRead => 1,
        IsolationLevel::SnapshotIsolation => 2,
        IsolationLevel::Serializable => 3,
    }
}

fn level_from_byte(b: u8) -> Result<IsolationLevel, WireError> {
    match b {
        0 => Ok(IsolationLevel::ReadCommitted),
        1 => Ok(IsolationLevel::RepeatableRead),
        2 => Ok(IsolationLevel::SnapshotIsolation),
        3 => Ok(IsolationLevel::Serializable),
        other => Err(WireError::UnknownLevel(other)),
    }
}

/// CRC-32 of `payload` — the frame checksum.
#[must_use]
pub fn checksum(payload: &[u8]) -> u32 {
    crate::store::crc32::crc32(payload)
}

impl Frame {
    /// Serializes the frame payload (tag byte onward, no length prefix or
    /// checksum).
    #[must_use]
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            Frame::Hello(h) => {
                out.push(TAG_HELLO);
                put_varint(&mut out, u64::from(h.version));
                out.push(level_to_byte(h.level));
                put_varint(&mut out, h.mem_budget);
                put_string(&mut out, &h.stream);
                put_string(&mut out, &h.description);
                put_kv_set(&mut out, &h.preload);
            }
            Frame::Trace(tf) => {
                out.push(TAG_TRACE);
                put_varint(&mut out, tf.seq);
                put_varint(&mut out, u64::from(tf.trace.client.0));
                put_varint(&mut out, tf.trace.txn.0);
                put_interval(&mut out, &tf.trace.interval);
                match &tf.trace.op {
                    OpKind::Read(set) => {
                        out.push(0);
                        put_kv_set(&mut out, set);
                    }
                    OpKind::LockedRead(set) => {
                        out.push(1);
                        put_kv_set(&mut out, set);
                    }
                    OpKind::Write(set) => {
                        out.push(2);
                        put_kv_set(&mut out, set);
                    }
                    OpKind::Commit => out.push(3),
                    OpKind::Abort => out.push(4),
                }
            }
            Frame::Bye { traces_sent } => {
                out.push(TAG_BYE);
                put_varint(&mut out, *traces_sent);
            }
            Frame::Ack { resume_from } => {
                out.push(TAG_ACK);
                put_varint(&mut out, *resume_from);
            }
            Frame::Reject { reason, message } => {
                out.push(TAG_REJECT);
                out.push(reason.to_byte());
                put_string(&mut out, message);
            }
            Frame::Verdict { json } => {
                out.push(TAG_VERDICT);
                put_string(&mut out, json);
            }
        }
        out
    }

    /// Serializes the complete framed bytes: length prefix, payload,
    /// checksum — what actually goes on the wire.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        debug_assert!(payload.len() <= MAX_FRAME_LEN);
        let mut out = Vec::with_capacity(payload.len() + 8);
        put_varint(&mut out, payload.len() as u64);
        let sum = checksum(&payload);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parses one frame payload (as produced by [`Frame::encode_payload`]).
    pub fn decode_payload(payload: &[u8]) -> Result<Frame, WireError> {
        let mut cur = Cur::new(payload);
        let frame = match cur.u8()? {
            TAG_HELLO => {
                let version = cur.varint()?;
                if version > u64::from(u32::MAX) {
                    return Err(WireError::VarintOverflow);
                }
                let level = level_from_byte(cur.u8()?)?;
                let mem_budget = cur.varint()?;
                let stream = cur.string()?;
                let description = cur.string()?;
                let preload = cur.kv_set()?;
                Frame::Hello(Hello {
                    version: version as u32,
                    stream,
                    description,
                    level,
                    mem_budget,
                    preload,
                })
            }
            TAG_TRACE => {
                let seq = cur.varint()?;
                let client = cur.varint()?;
                let txn = cur.varint()?;
                let interval = cur.interval()?;
                let op = match cur.u8()? {
                    0 => OpKind::Read(cur.kv_set()?),
                    1 => OpKind::LockedRead(cur.kv_set()?),
                    2 => OpKind::Write(cur.kv_set()?),
                    3 => OpKind::Commit,
                    4 => OpKind::Abort,
                    other => return Err(WireError::UnknownOp(other)),
                };
                Frame::Trace(TraceFrame {
                    seq,
                    trace: Trace::new(
                        interval,
                        ClientId((client & 0xffff_ffff) as u32),
                        TxnId(txn),
                        op,
                    ),
                })
            }
            TAG_BYE => Frame::Bye {
                traces_sent: cur.varint()?,
            },
            TAG_ACK => Frame::Ack {
                resume_from: cur.varint()?,
            },
            TAG_REJECT => Frame::Reject {
                reason: RejectReason::from_byte(cur.u8()?)?,
                message: cur.string()?,
            },
            TAG_VERDICT => Frame::Verdict {
                json: cur.string()?,
            },
            other => return Err(WireError::UnknownFrame(other)),
        };
        cur.done()?;
        Ok(frame)
    }
}

// ---------------------------------------------------------------------
// version-chain records (the spill tier's payload)
// ---------------------------------------------------------------------

/// Appends one record's version chain to `out` in the frame encoding
/// (varints, zigzag interval deltas). The spill tier wraps the bytes in
/// its own length/sequence/CRC header, so nothing here is framed.
pub fn put_key_versions(out: &mut Vec<u8>, rec: &KeyVersions) {
    put_varint(out, rec.key.0);
    put_varint(out, rec.entries.len() as u64);
    for e in &rec.entries {
        put_varint(out, e.uid.0);
        put_varint(out, e.value.0);
        put_varint(out, e.txn.0);
        put_interval(out, &e.install);
        match &e.visibility {
            None => out.push(0),
            Some(vis) => {
                out.push(1);
                put_interval(out, vis);
            }
        }
        put_interval(out, &e.writer_snapshot);
        put_varint(out, e.readers.len() as u64);
        for (reader, read_op) in &e.readers {
            put_varint(out, reader.0);
            put_interval(out, read_op);
        }
    }
}

/// Parses bytes produced by [`put_key_versions`]; trailing bytes, a
/// truncated chain or an unknown flag are typed errors.
pub fn decode_key_versions(bytes: &[u8]) -> Result<KeyVersions, WireError> {
    let mut cur = Cur::new(bytes);
    let key = Key(cur.varint()?);
    let n = cur.varint()? as usize;
    // As in `kv_set`: a lying count must not size an allocation.
    let mut entries = Vec::with_capacity(n.min(bytes.len() / 8 + 1));
    for _ in 0..n {
        let uid = VersionUid(cur.varint()?);
        let value = Value(cur.varint()?);
        let txn = TxnId(cur.varint()?);
        let install = cur.interval()?;
        let visibility = match cur.u8()? {
            0 => None,
            1 => Some(cur.interval()?),
            other => return Err(WireError::UnknownFlag(other)),
        };
        let writer_snapshot = cur.interval()?;
        let n_readers = cur.varint()? as usize;
        let mut readers = Vec::with_capacity(n_readers.min(bytes.len() / 3 + 1));
        for _ in 0..n_readers {
            readers.push((TxnId(cur.varint()?), cur.interval()?));
        }
        entries.push(VersionEntry {
            uid,
            value,
            txn,
            install,
            visibility,
            writer_snapshot,
            readers,
        });
    }
    cur.done()?;
    Ok(KeyVersions { key, entries })
}

/// Writes one framed message to `w` (no flush — callers batch).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), WireError> {
    w.write_all(&frame.to_bytes())?;
    Ok(())
}

/// Reads one framed message from `r`, blocking. `Ok(None)` on clean EOF
/// at a frame boundary; [`WireError::Truncated`] on EOF mid-frame.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, WireError> {
    // Length prefix, byte by byte; EOF on the first byte is a clean end.
    let mut len: u64 = 0;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                if shift == 0 {
                    return Ok(None);
                }
                return Err(WireError::Truncated);
            }
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
        let b = byte[0];
        if shift == 63 && b > 1 {
            return Err(WireError::VarintOverflow);
        }
        len |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift > 63 {
            return Err(WireError::VarintOverflow);
        }
    }
    if len as usize > MAX_FRAME_LEN {
        return Err(WireError::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    })?;
    let mut sum = [0u8; CHECKSUM_LEN];
    r.read_exact(&mut sum).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    })?;
    let found = u32::from_le_bytes(sum);
    let expected = checksum(&payload);
    if found != expected {
        return Err(WireError::Corrupt { expected, found });
    }
    Frame::decode_payload(&payload).map(Some)
}

/// An incremental frame decoder for non-blocking ingestion: feed raw
/// bytes with [`FrameDecoder::extend`], drain complete frames with
/// [`FrameDecoder::next_frame`].
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// New empty decoder.
    #[must_use]
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends raw bytes received from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact consumed prefix before growing, keeping the buffer
        // proportional to the unconsumed tail.
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > MAX_FRAME_LEN {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The protocol version the buffered bytes claim if they start a
    /// [`Hello`], checksum *not* verified. A peer of another version may
    /// checksum differently (version 1 did), and is to be refused for its
    /// version, not as damage.
    pub(crate) fn unverified_hello_version(&self) -> Option<u64> {
        let mut cur = Cur::new(&self.buf[self.pos..]);
        cur.varint().ok()?;
        if cur.u8().ok()? != TAG_HELLO {
            return None;
        }
        cur.varint().ok()
    }

    /// Decodes the next complete frame. `Ok(None)` means more bytes are
    /// needed. Errors are not recoverable: the stream position is
    /// ambiguous after a bad frame, so the caller must drop the
    /// connection (and, server-side, quarantine the stream).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let tail = &self.buf[self.pos..];
        // Decode the length prefix.
        let mut len: u64 = 0;
        let mut used = 0usize;
        loop {
            let Some(&b) = tail.get(used) else {
                // Prefix itself is incomplete; an absurdly long prefix is
                // still caught once its continuation bits keep coming.
                if used > 10 {
                    return Err(WireError::VarintOverflow);
                }
                return Ok(None);
            };
            if used == 9 && b > 1 {
                return Err(WireError::VarintOverflow);
            }
            len |= u64::from(b & 0x7f) << (used as u32 * 7);
            used += 1;
            if b & 0x80 == 0 {
                break;
            }
            if used >= 10 {
                return Err(WireError::VarintOverflow);
            }
        }
        if len as usize > MAX_FRAME_LEN {
            return Err(WireError::Oversized { len });
        }
        let frame_end = used + len as usize + CHECKSUM_LEN;
        if tail.len() < frame_end {
            return Ok(None);
        }
        let payload = &tail[used..used + len as usize];
        let sum_bytes = &tail[used + len as usize..frame_end];
        let found = u32::from_le_bytes([sum_bytes[0], sum_bytes[1], sum_bytes[2], sum_bytes[3]]);
        let expected = checksum(payload);
        if found != expected {
            return Err(WireError::Corrupt { expected, found });
        }
        let frame = Frame::decode_payload(payload)?;
        self.pos += frame_end;
        Ok(Some(frame))
    }

    /// Declares end of input: `Err(Truncated)` if a partial frame is
    /// still buffered.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.buffered() == 0 {
            Ok(())
        } else {
            Err(WireError::Truncated)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

    fn sample_hello() -> Frame {
        Frame::Hello(Hello {
            version: WIRE_VERSION,
            stream: "tenant-a".to_string(),
            description: "unit test".to_string(),
            level: IsolationLevel::SnapshotIsolation,
            mem_budget: 1 << 20,
            preload: vec![(Key(1), Value(0)), (Key(300), Value(7))],
        })
    }

    fn sample_frames() -> Vec<Frame> {
        let mut b = TraceBuilder::new();
        b.write(10, 12, 0, 1, vec![(1, 5)]);
        b.commit(13, 15, 0, 1);
        b.read(20, 22, 1, 2, vec![(1, 5), (300, 7)]);
        b.abort(23, 25, 1, 2);
        let mut frames = vec![sample_hello()];
        for (i, t) in b.build_sorted().into_iter().enumerate() {
            frames.push(Frame::Trace(TraceFrame {
                seq: i as u64 + 1,
                trace: t,
            }));
        }
        frames.push(Frame::Bye { traces_sent: 4 });
        frames.push(Frame::Ack { resume_from: 2 });
        frames.push(Frame::Reject {
            reason: RejectReason::Admission,
            message: "no room".to_string(),
        });
        frames.push(Frame::Verdict {
            json: "{\"clean\":true}".to_string(),
        });
        frames
    }

    #[test]
    fn frames_round_trip_via_blocking_io() {
        let frames = sample_frames();
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut r = wire.as_slice();
        let mut back = Vec::new();
        while let Some(f) = read_frame(&mut r).unwrap() {
            back.push(f);
        }
        assert_eq!(back, frames);
    }

    #[test]
    fn frames_round_trip_via_incremental_decoder_byte_at_a_time() {
        let frames = sample_frames();
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.to_bytes());
        }
        let mut dec = FrameDecoder::new();
        let mut back = Vec::new();
        for byte in wire {
            dec.extend(&[byte]);
            while let Some(f) = dec.next_frame().unwrap() {
                back.push(f);
            }
        }
        dec.finish().unwrap();
        assert_eq!(back, frames);
    }

    #[test]
    fn inverted_interval_round_trips() {
        // Ill-formed intervals (hi < lo) must survive the wire so the
        // verifier's quarantine machinery can classify them.
        let t = Trace::new(
            Interval::new(Timestamp(100), Timestamp(3)),
            ClientId(1),
            TxnId(9),
            OpKind::Commit,
        );
        let f = Frame::Trace(TraceFrame { seq: 1, trace: t });
        let back = Frame::decode_payload(&f.encode_payload()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn extreme_timestamps_round_trip() {
        for (lo, hi) in [
            (0u64, u64::MAX),
            (u64::MAX, 0),
            (u64::MAX, u64::MAX),
            (1 << 63, (1 << 63) - 1),
        ] {
            let t = Trace::new(
                Interval::new(Timestamp(lo), Timestamp(hi)),
                ClientId(0),
                TxnId(0),
                OpKind::Abort,
            );
            let f = Frame::Trace(TraceFrame { seq: 1, trace: t });
            let back = Frame::decode_payload(&f.encode_payload()).unwrap();
            assert_eq!(back, f, "lo={lo} hi={hi}");
        }
    }

    #[test]
    fn corrupt_checksum_is_detected() {
        let mut bytes = sample_hello().to_bytes();
        let n = bytes.len();
        bytes[n - 1] ^= 0x40; // flip a checksum bit
        let mut r = bytes.as_slice();
        assert!(matches!(read_frame(&mut r), Err(WireError::Corrupt { .. })));
    }

    #[test]
    fn corrupt_payload_is_detected() {
        let mut bytes = sample_hello().to_bytes();
        bytes[3] ^= 0x01; // flip a payload bit
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        assert!(matches!(dec.next_frame(), Err(WireError::Corrupt { .. })));
    }

    #[test]
    fn truncated_stream_is_detected() {
        let bytes = sample_hello().to_bytes();
        for cut in 1..bytes.len() {
            let mut r = &bytes[..cut];
            assert!(
                matches!(read_frame(&mut r), Err(WireError::Truncated)),
                "cut={cut}"
            );
            let mut dec = FrameDecoder::new();
            dec.extend(&bytes[..cut]);
            assert!(matches!(dec.next_frame(), Ok(None)), "cut={cut}");
            assert!(matches!(dec.finish(), Err(WireError::Truncated)));
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut bytes = Vec::new();
        put_varint(&mut bytes, (MAX_FRAME_LEN + 1) as u64);
        bytes.extend_from_slice(&[0u8; 16]);
        let mut r = bytes.as_slice();
        assert!(matches!(
            read_frame(&mut r),
            Err(WireError::Oversized { .. })
        ));
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        assert!(matches!(dec.next_frame(), Err(WireError::Oversized { .. })));
    }

    #[test]
    fn varint_overflow_is_rejected() {
        // 11 continuation bytes: more than 64 bits.
        let bytes = [0xffu8; 11];
        let mut r = bytes.as_slice();
        assert!(matches!(read_frame(&mut r), Err(WireError::VarintOverflow)));
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        assert!(matches!(dec.next_frame(), Err(WireError::VarintOverflow)));
    }

    #[test]
    fn unknown_tags_are_typed_errors() {
        assert!(matches!(
            Frame::decode_payload(&[99]),
            Err(WireError::UnknownFrame(99))
        ));
        // Trace frame with op tag 9.
        let f = Frame::Trace(TraceFrame {
            seq: 1,
            trace: Trace::new(
                Interval::new(Timestamp(1), Timestamp(2)),
                ClientId(0),
                TxnId(1),
                OpKind::Commit,
            ),
        });
        let mut payload = f.encode_payload();
        let last = payload.len() - 1;
        payload[last] = 9;
        assert!(matches!(
            Frame::decode_payload(&payload),
            Err(WireError::UnknownOp(9))
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Frame::Bye { traces_sent: 3 }.encode_payload();
        payload.push(0);
        assert!(matches!(
            Frame::decode_payload(&payload),
            Err(WireError::Trailing { extra: 1 })
        ));
    }

    #[test]
    fn varint_boundaries_round_trip() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            (1 << 32) - 1,
            1 << 32,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut cur = Cur::new(&buf);
            assert_eq!(cur.varint().unwrap(), v);
            assert!(cur.done().is_ok());
        }
    }

    #[test]
    fn decoder_compacts_consumed_prefix() {
        let frame = Frame::Bye { traces_sent: 1 };
        let bytes = frame.to_bytes();
        let mut dec = FrameDecoder::new();
        for _ in 0..1000 {
            dec.extend(&bytes);
            assert_eq!(dec.next_frame().unwrap(), Some(frame.clone()));
        }
        assert_eq!(dec.buffered(), 0);
    }
}

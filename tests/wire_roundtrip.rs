//! Property tests for the `leopard serve` wire protocol: every frame
//! survives an encode→decode round trip (both through `read_frame` and
//! through a byte-dribbled `FrameDecoder`), truncated prefixes and
//! bit-flipped bytes are rejected with typed errors instead of being
//! misparsed, oversized length prefixes are refused before allocation,
//! and varints round-trip at every 7-bit boundary.
//!
//! Seeding is fixed through `leopard::testseed`; a failure reproduces
//! with `LEOPARD_TEST_SEED=<seed> cargo test --test wire_roundtrip`.

use leopard::testseed::{derive, test_seed};
use leopard_core::wire::{put_varint, read_frame, MAX_FRAME_LEN};
use leopard_core::{
    ClientId, Frame, FrameDecoder, Hello, Interval, IsolationLevel, Key, OpKind, RejectReason,
    Timestamp, Trace, TraceFrame, TxnId, Value, WireError, WIRE_VERSION,
};
use proptest::prelude::*;
use proptest::SampleRng;

/// Cases per property; each case gets its own derived sub-seed.
const CASES: u64 = 256;

fn kv_set() -> impl Strategy<Value = Vec<(Key, Value)>> {
    prop::collection::vec(
        (0u64..1 << 48, 0u64..1 << 48).prop_map(|(k, v)| (Key(k), Value(v))),
        0..8,
    )
}

fn string_field() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..128, 0..24).prop_map(|cs| {
        cs.into_iter()
            .filter_map(char::from_u32)
            .collect::<String>()
    })
}

fn level_of(i: u8) -> IsolationLevel {
    match i % 4 {
        0 => IsolationLevel::ReadCommitted,
        1 => IsolationLevel::RepeatableRead,
        2 => IsolationLevel::SnapshotIsolation,
        _ => IsolationLevel::Serializable,
    }
}

/// Strategy: an arbitrary trace, including inverted intervals
/// (`ts_aft < ts_bef`, a broken client clock) — the zigzag delta
/// encoding must carry those through unchanged.
fn trace() -> impl Strategy<Value = Trace> {
    (any::<u64>(), 0i64..5_000, any::<u32>(), any::<u64>()).prop_map(|(lo, delta, client, txn)| {
        let hi = lo.wrapping_add_signed(delta - 1_000);
        Trace {
            // Deliberately NOT Interval::new — that would normalise
            // the inverted bounds the wire must preserve verbatim.
            interval: Interval {
                lo: Timestamp(lo),
                hi: Timestamp(hi),
            },
            client: ClientId(client),
            txn: TxnId(txn),
            op: OpKind::Commit, // replaced by the caller
        }
    })
}

fn op_of(kind: u8, set: Vec<(Key, Value)>) -> OpKind {
    match kind % 5 {
        0 => OpKind::Read(set),
        1 => OpKind::LockedRead(set),
        2 => OpKind::Write(set),
        3 => OpKind::Commit,
        _ => OpKind::Abort,
    }
}

fn reason_of(i: u8) -> RejectReason {
    match i % 5 {
        0 => RejectReason::Version,
        1 => RejectReason::Admission,
        2 => RejectReason::Malformed,
        3 => RejectReason::Draining,
        _ => RejectReason::Quarantined,
    }
}

/// Draws one arbitrary frame of any variant.
fn arbitrary_frame(rng: &mut SampleRng) -> Frame {
    let variant = (0u8..6).sample_with(rng);
    match variant {
        0 => Frame::Hello(Hello {
            version: (0u32..16).sample_with(rng),
            stream: string_field().sample_with(rng),
            description: string_field().sample_with(rng),
            level: level_of((0u8..4).sample_with(rng)),
            mem_budget: any::<u64>().sample_with(rng),
            preload: kv_set().sample_with(rng),
        }),
        1 => {
            let mut t = trace().sample_with(rng);
            let kind = (0u8..5).sample_with(rng);
            t.op = op_of(kind, kv_set().sample_with(rng));
            Frame::Trace(TraceFrame {
                seq: any::<u64>().sample_with(rng),
                trace: t,
            })
        }
        2 => Frame::Bye {
            traces_sent: any::<u64>().sample_with(rng),
        },
        3 => Frame::Ack {
            resume_from: any::<u64>().sample_with(rng),
        },
        4 => Frame::Reject {
            reason: reason_of((0u8..5).sample_with(rng)),
            message: string_field().sample_with(rng),
        },
        _ => Frame::Verdict {
            json: string_field().sample_with(rng),
        },
    }
}

#[test]
fn every_frame_round_trips_through_read_frame_and_decoder() {
    let seed = test_seed(0x1EA7_0A2D_417E_0001);
    for case in 0..CASES {
        let mut rng = SampleRng::for_case(derive(seed, case));
        let frame = arbitrary_frame(&mut rng);
        let bytes = frame.to_bytes();

        // Blocking reader path.
        let mut slice = bytes.as_slice();
        let back = read_frame(&mut slice)
            .unwrap_or_else(|e| panic!("seed={seed:#x} case={case}: read_frame failed: {e}"))
            .unwrap_or_else(|| panic!("seed={seed:#x} case={case}: clean EOF instead of frame"));
        assert_eq!(
            back, frame,
            "seed={seed:#x} case={case}: read_frame mismatch"
        );
        assert!(
            read_frame(&mut slice).unwrap().is_none(),
            "seed={seed:#x} case={case}: trailing bytes after frame"
        );

        // Incremental decoder, fed one byte at a time: the frame must
        // appear exactly at the final byte, never earlier.
        let mut dec = FrameDecoder::new();
        for (i, b) in bytes.iter().enumerate() {
            dec.extend(&[*b]);
            let got = dec
                .next_frame()
                .unwrap_or_else(|e| panic!("seed={seed:#x} case={case} byte={i}: {e}"));
            if i + 1 < bytes.len() {
                assert!(
                    got.is_none(),
                    "seed={seed:#x} case={case}: frame complete {} bytes early",
                    bytes.len() - 1 - i
                );
            } else {
                assert_eq!(
                    got.as_ref(),
                    Some(&frame),
                    "seed={seed:#x} case={case}: decoder mismatch"
                );
            }
        }
        dec.finish()
            .unwrap_or_else(|e| panic!("seed={seed:#x} case={case}: finish: {e}"));
    }
}

#[test]
fn truncated_prefixes_are_typed_truncation_errors() {
    let seed = test_seed(0x1EA7_0A2D_417E_0002);
    for case in 0..CASES {
        let mut rng = SampleRng::for_case(derive(seed, case));
        let bytes = arbitrary_frame(&mut rng).to_bytes();
        let cut = (0usize..bytes.len()).sample_with(&mut rng);
        let mut slice = &bytes[..cut];
        let res = read_frame(&mut slice);
        if cut == 0 {
            // EOF at a frame boundary is a clean end of stream.
            assert!(
                matches!(res, Ok(None)),
                "seed={seed:#x} case={case}: empty input must be clean EOF, got {res:?}"
            );
        } else {
            assert!(
                matches!(res, Err(WireError::Truncated)),
                "seed={seed:#x} case={case}: cut at {cut}/{} must be Truncated, got {res:?}",
                bytes.len()
            );
            // The incremental decoder agrees once the input is declared over.
            let mut dec = FrameDecoder::new();
            dec.extend(&bytes[..cut]);
            assert!(
                dec.next_frame().unwrap().is_none(),
                "seed={seed:#x} case={case}: partial frame decoded"
            );
            assert!(
                matches!(dec.finish(), Err(WireError::Truncated)),
                "seed={seed:#x} case={case}: finish on partial frame must be Truncated"
            );
        }
    }
}

#[test]
fn single_byte_corruption_never_yields_the_original_frame() {
    let seed = test_seed(0x1EA7_0A2D_417E_0003);
    for case in 0..CASES {
        let mut rng = SampleRng::for_case(derive(seed, case));
        let frame = arbitrary_frame(&mut rng);
        let mut bytes = frame.to_bytes();
        let pos = (0usize..bytes.len()).sample_with(&mut rng);
        let flip = (1u8..=255).sample_with(&mut rng);
        bytes[pos] ^= flip;

        let mut slice = bytes.as_slice();
        match read_frame(&mut slice) {
            // A typed decode error (Corrupt / Truncated / Oversized /
            // VarintOverflow / Unknown*) is the expected outcome.
            Err(_) => {}
            // A flipped length prefix may reframe the stream into a
            // shorter frame that still checksums — astronomically
            // unlikely — or into a clean-looking EOF; it must never
            // reproduce the original frame from damaged bytes.
            Ok(decoded) => assert_ne!(
                decoded.as_ref(),
                Some(&frame),
                "seed={seed:#x} case={case}: corrupt byte {pos} went unnoticed"
            ),
        }
    }
}

#[test]
fn oversized_length_prefixes_are_refused() {
    let seed = test_seed(0x1EA7_0A2D_417E_0004);
    for case in 0..64 {
        let mut rng = SampleRng::for_case(derive(seed, case));
        let len = (MAX_FRAME_LEN as u64 + 1..u64::MAX / 2).sample_with(&mut rng);
        let mut bytes = Vec::new();
        put_varint(&mut bytes, len);
        bytes.extend_from_slice(&[0u8; 16]); // garbage the reader must not trust
        let mut slice = bytes.as_slice();
        match read_frame(&mut slice) {
            Err(WireError::Oversized { len: got }) => assert_eq!(
                got, len,
                "seed={seed:#x} case={case}: oversized error echoes the wrong length"
            ),
            other => panic!("seed={seed:#x} case={case}: expected Oversized, got {other:?}"),
        }
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        assert!(
            matches!(dec.next_frame(), Err(WireError::Oversized { .. })),
            "seed={seed:#x} case={case}: decoder accepted an oversized prefix"
        );
    }
}

#[test]
fn varint_boundaries_round_trip_through_frames() {
    // Every 7-bit group boundary, its neighbours, and the extremes:
    // these exercise 1..10-byte varints including the 10-byte u64::MAX.
    let mut values = vec![0u64, 1, u64::MAX];
    for bits in 1..=9 {
        let b = 7 * bits;
        values.push((1u64 << b) - 1);
        values.push(1u64 << b);
        values.push((1u64 << b) + 1);
    }
    values.push(u64::MAX - 1);
    for v in values {
        for frame in [Frame::Bye { traces_sent: v }, Frame::Ack { resume_from: v }] {
            let bytes = frame.to_bytes();
            let mut slice = bytes.as_slice();
            let back = read_frame(&mut slice)
                .unwrap_or_else(|e| panic!("varint {v}: {e}"))
                .unwrap_or_else(|| panic!("varint {v}: clean EOF"));
            assert_eq!(back, frame, "varint {v} did not round-trip");
        }
    }
}

#[test]
fn hello_version_constant_is_on_the_wire() {
    // A pinned handshake: the version constant must appear in the
    // payload varint so old servers reject new clients deliberately.
    let frame = Frame::Hello(Hello {
        version: WIRE_VERSION,
        stream: "s".to_string(),
        description: String::new(),
        level: IsolationLevel::Serializable,
        mem_budget: 0,
        preload: Vec::new(),
    });
    let bytes = frame.to_bytes();
    let mut slice = bytes.as_slice();
    match read_frame(&mut slice).unwrap().unwrap() {
        Frame::Hello(h) => assert_eq!(h.version, WIRE_VERSION),
        other => panic!("expected Hello, got {other:?}"),
    }
}

/// The checksum sees every bit of a payload. Version 1's — FxHash cut to
/// its low 32 bits — never saw bytes 4–7 of a payload's last 8-byte word:
/// a flip there decoded as a different, valid trace.
#[test]
fn every_single_bit_flip_of_a_corpus_trace_payload_fails_the_checksum() {
    let corpus = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut frames = 0u64;
    for entry in std::fs::read_dir(corpus).expect("tests/corpus exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|x| x.to_str()) != Some("jsonl") {
            continue;
        }
        let file = std::fs::File::open(&path).expect("open capture");
        let reader = leopard_core::CaptureReader::new(file).expect("capture header");
        for (i, trace) in reader.enumerate() {
            let trace = trace.expect("well-formed trace");
            let bytes = Frame::Trace(TraceFrame {
                seq: i as u64 + 1,
                trace,
            })
            .to_bytes();
            // One length byte (a trace frame is tens of bytes), the
            // payload, four checksum bytes.
            assert!(bytes[0] < 0x80, "{}: frame {i} is long", path.display());
            let payload = 1..bytes.len() - 4;
            assert_eq!(payload.len(), usize::from(bytes[0]));
            for bit in payload.start * 8..payload.end * 8 {
                let mut damaged = bytes.clone();
                damaged[bit / 8] ^= 1 << (bit % 8);
                let got = read_frame(&mut damaged.as_slice());
                assert!(
                    matches!(got, Err(WireError::Corrupt { .. })),
                    "{}: frame {i}, payload bit {}: {got:?}",
                    path.display(),
                    bit - 8
                );
            }
            frames += 1;
        }
    }
    assert!(frames > 1_000, "only {frames} corpus trace frames");
}

//! A failed image write is a typed error that is not counted as a written
//! checkpoint, and what happens next is each driver's own policy: `leopard
//! verify` exits 1, the online chain says so and carries on to its
//! verdict. (`leopard serve` retries and then quarantines the stream:
//! `serve::tests::journal_faults_end_in_retry_or_quarantine_and_never_over_ack`
//! in `leopard-core`.)
//!
//! One test function, in a test binary of its own: it reads
//! `leopard_checkpoints_written_total` from the process-global registry.

use leopard_cli::args::{EngineArgs, RecordConfig, VerifyConfig};
use leopard_cli::commands::{record, verify};
use leopard_core::obs::{self, Counter};
use leopard_core::{
    engine, Checkpoint, EngineOpts, FaultIo, FaultSpec, FsIo, IsolationLevel, Key, OnlineLeopard,
    OnlineOptions, StoreError, TraceBuilder, Value, VerifierConfig,
};

#[test]
fn a_failed_image_write_is_typed_uncounted_and_each_driver_keeps_its_policy() {
    let dir = std::env::temp_dir().join(format!("leopard-image-policy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    obs::reset();
    obs::set_enabled(true);
    let written = || obs::counter_value(Counter::CheckpointsWritten);
    let preload = vec![(Key(1), Value(0))];

    // --- The one save function, over a disk that fills up ----------------
    let v = engine::open(&EngineOpts::default(), None, &preload).unwrap();
    let path = dir.join("engine.ckpt");
    let bytes = engine::save(&v.verifier, 0, &FsIo, &path).expect("healthy disk");
    assert_eq!(written(), 1);
    let spec = FaultSpec {
        enospc_after_bytes: Some(bytes / 2),
        ..FaultSpec::default()
    };
    let err = engine::save(&v.verifier, 7, &FaultIo::new(FsIo, spec), &path).expect_err("full");
    assert!(matches!(err, StoreError::Io(_)), "{err}");
    assert_eq!(written(), 1, "a failed write is not a written checkpoint");
    // The write failed after the old head was moved aside: the image
    // written before the failure is the previous image now, and loads.
    let image = Checkpoint::load(&FsIo, &path).unwrap().expect("an image");
    assert_eq!(image.checkpoint.traces_ingested, 0);
    assert!(image.warning.is_some_and(|w| w.contains("previous image")));

    // An image path no write can succeed at: its directory is a file.
    std::fs::write(dir.join("not-a-dir"), b"").unwrap();
    let unwritable = dir.join("not-a-dir").join("image.ckpt");

    // --- verify: exit 1, no verdict --------------------------------------
    let capture = dir.join("cap.jsonl").display().to_string();
    let recording = RecordConfig {
        workload: "blindw-rw".to_string(),
        threads: 2,
        txns: 20,
        out: capture.clone(),
        ..RecordConfig::default()
    };
    assert_eq!(record(&recording, &mut Vec::new()), 0);
    let audit = VerifyConfig {
        file: capture,
        engine: EngineArgs {
            checkpoint: Some(unwritable.display().to_string()),
            checkpoint_every: Some(8),
            ..EngineArgs::default()
        },
        ..VerifyConfig::default()
    };
    let mut out = Vec::new();
    let code = verify(&audit, &mut out);
    let text = String::from_utf8_lossy(&out);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("error: cannot checkpoint"), "{text}");
    assert!(!text.contains("verdict:"), "{text}");
    assert_eq!(written(), 1);

    // --- the online chain: says so, carries on ---------------------------
    let opts = OnlineOptions {
        engine: EngineOpts {
            checkpoint: Some(unwritable),
            checkpoint_every: Some(1),
            ..EngineOpts::default()
        },
        ..OnlineOptions::default()
    };
    let cfg = VerifierConfig::for_level(IsolationLevel::Serializable);
    let (online, mut handles) = OnlineLeopard::start_opts(1, cfg, opts, preload);
    let mut history = TraceBuilder::new();
    history.write(10, 12, 0, 1, vec![(1, 7)]);
    history.commit(13, 15, 0, 1);
    let handle = handles.remove(0);
    for trace in history.build_sorted() {
        handle.record(trace);
    }
    drop(handle);
    let outcome = online.finish().into_result().expect("a verdict");
    assert!(outcome.report.is_clean(), "{}", outcome.report);
    assert_eq!(outcome.counters.committed, 1);
    assert_eq!(written(), 1, "three failed writes, none counted");

    obs::set_enabled(false);
    let _ = std::fs::remove_dir_all(&dir);
}

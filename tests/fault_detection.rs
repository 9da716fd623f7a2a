//! No false negatives: every mechanism fault injected into the engine is
//! detected by the verifier, at the isolation level that promises the
//! mechanism.

use leopard::testseed::{derive, test_seed};
use leopard::{IsolationLevel, Mechanism, Verifier, VerifierConfig};
use leopard_db::{Database, DbConfig, FaultKind, FaultPlan};
use leopard_workloads::{preload_database, run_collect, RunLimit, SmallBank, WorkloadGen};
use std::time::Duration;

fn run_faulty(
    fault: FaultKind,
    probability: f64,
    level: IsolationLevel,
    seed: u64,
) -> leopard::VerifyOutcome {
    let db = Database::with_faults(
        DbConfig {
            op_latency: Duration::from_micros(20),
            ..DbConfig::at(level)
        },
        FaultPlan::with_probability(fault, probability, derive(seed, 0)),
    );
    let workload = SmallBank::new(32);
    let preload = preload_database(&db, &workload);
    let clients: Vec<Box<dyn WorkloadGen>> =
        (0..8).map(|_| Box::new(workload.clone()) as _).collect();
    let run = run_collect(&db, clients, RunLimit::Txns(800), derive(seed, 1));
    assert!(
        db.faults().fired_count() > 0,
        "fault {fault:?} never fired — the test exercises nothing (seed={seed})"
    );
    let mut verifier = Verifier::new(VerifierConfig::for_level(level));
    for (k, v) in preload {
        verifier.preload(k, v);
    }
    for t in run.merged_sorted() {
        verifier.process(&t);
    }
    verifier.finish()
}

#[test]
fn dirty_reads_are_detected_at_rc() {
    let seed = test_seed(0xFA_0701);
    let out = run_faulty(
        FaultKind::DirtyRead,
        0.02,
        IsolationLevel::ReadCommitted,
        seed,
    );
    assert!(
        out.report.count(Mechanism::ConsistentRead) > 0,
        "seed={seed}"
    );
}

#[test]
fn stale_snapshots_are_detected_at_rc() {
    let seed = test_seed(0xFA_0702);
    let out = run_faulty(
        FaultKind::StaleSnapshot,
        0.02,
        IsolationLevel::ReadCommitted,
        seed,
    );
    assert!(
        out.report.count(Mechanism::ConsistentRead) > 0,
        "seed={seed}"
    );
}

#[test]
fn skipped_locks_are_detected_at_rr() {
    let seed = test_seed(0xFA_0703);
    let out = run_faulty(
        FaultKind::SkipLock,
        0.20,
        IsolationLevel::RepeatableRead,
        seed,
    );
    assert!(
        out.report.count(Mechanism::MutualExclusion) > 0,
        "seed={seed}"
    );
}

#[test]
fn lost_updates_are_detected_at_si() {
    let seed = test_seed(0xFA_0704);
    let out = run_faulty(
        FaultKind::AllowLostUpdate,
        0.05,
        IsolationLevel::SnapshotIsolation,
        seed,
    );
    assert!(
        out.report.count(Mechanism::FirstUpdaterWins) > 0,
        "seed={seed}"
    );
}

/// A skipped certifier only shows in the history when two faulted
/// transactions overlap in real time, which a loaded 2-core host does not
/// grant every run. Up to five sub-seeded runs; the verifier must flag a
/// certifier violation in one of them.
#[test]
fn skipped_certifier_is_detected_at_sr() {
    let seed = test_seed(0xFA_0705);
    let sub_seeds: Vec<u64> = (0..5).map(|i| derive(seed, i)).collect();
    let caught = sub_seeds.iter().any(|&sub| {
        let out = run_faulty(
            FaultKind::SkipCertifier,
            0.5,
            IsolationLevel::Serializable,
            sub,
        );
        out.report.count(Mechanism::SerializationCertifier) > 0
    });
    assert!(caught, "seed={seed}, sub-seeds tried: {sub_seeds:#x?}");
}

#[test]
fn stale_snapshot_is_legal_noise_at_weaker_checks() {
    // The same stale-snapshot engine verified only for ME never triggers
    // an ME violation: faults map to their own mechanism.
    let seed = test_seed(0xFA_0706);
    let db = Database::with_faults(
        DbConfig::at(IsolationLevel::ReadCommitted),
        FaultPlan::with_probability(FaultKind::StaleSnapshot, 0.02, derive(seed, 0)),
    );
    let workload = SmallBank::new(32);
    let preload = preload_database(&db, &workload);
    let clients: Vec<Box<dyn WorkloadGen>> =
        (0..4).map(|_| Box::new(workload.clone()) as _).collect();
    let run = run_collect(&db, clients, RunLimit::Txns(300), derive(seed, 1));
    let mut cfg = VerifierConfig::for_level(IsolationLevel::ReadCommitted);
    cfg.mechanisms.consistent_read = None; // CR check off
    let mut verifier = Verifier::new(cfg);
    for (k, v) in preload {
        verifier.preload(k, v);
    }
    for t in run.merged_sorted() {
        verifier.process(&t);
    }
    let out = verifier.finish();
    assert_eq!(
        out.report.count(Mechanism::MutualExclusion),
        0,
        "seed={seed}"
    );
}

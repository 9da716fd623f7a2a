//! Spill-tier behaviour beyond verdict equivalence (which
//! `tests/equivalence.rs` holds for every capture, level and kill point):
//! the tier must not thrash when the budget is below what it can relieve,
//! and a hostile disk (seeded short writes, transparently retried at the
//! residual offset) must not move the verdict.

use leopard::testseed::test_seed;
use leopard_core::store::io::FaultSpec;
use leopard_core::{
    Key, MemBudget, SpillSettings, SpillTier, Trace, Value, Verifier, VerifierConfig, VerifyOutcome,
};
use leopard_oracle::{generate_clean_capture, CleanRunSpec, Schedule};
use std::path::PathBuf;

/// The comparable projection of a verdict: everything except the
/// budget/footprint gauges and the deduction-stats gauge. The latter is
/// excluded because a memory budget changes the *forced-GC cadence*, and
/// GC legitimately collects versions before some certain edges get
/// tallied — measurably so with the budget alone and no spill tier
/// attached (`rw.certain` drops while `deduced` and the verdict hold).
/// Stats are a measure of the engine's work, not of the history; the
/// verdict-critical fields (report, counters, coverage) are all in.
fn comparable(o: &VerifyOutcome) -> String {
    format!(
        "{:?}|{}|{}|{}|{:?}",
        o.report, o.counters.traces, o.counters.committed, o.counters.aborted, o.coverage
    )
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("leopard-spill-equiv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_unconstrained(
    preload: &[(Key, Value)],
    traces: &[Trace],
    cfg: VerifierConfig,
) -> VerifyOutcome {
    let mut v = Verifier::new(cfg);
    for &(k, val) in preload {
        v.preload(k, val);
    }
    for t in traces {
        v.process(t);
    }
    v.finish()
}

/// Runs under `budget` with a spill tier in `dir`; asserts the run ended
/// fault-free and cleans the tier up afterwards.
fn run_spilling(
    preload: &[(Key, Value)],
    traces: &[Trace],
    cfg: VerifierConfig,
    budget: u64,
    settings: &SpillSettings,
) -> VerifyOutcome {
    let mut cfg = cfg;
    cfg.mem_budget = MemBudget::bytes(budget);
    let mut v = Verifier::new(cfg);
    v.attach_spill(SpillTier::open(settings).expect("open spill tier"));
    for &(k, val) in preload {
        v.preload(k, val);
    }
    for t in traces {
        v.process(t);
    }
    let out = v.finish();
    assert!(
        out.store_fault.is_none(),
        "healthy-disk spill run latched a store fault: {:?}",
        out.store_fault
    );
    let _ = std::fs::remove_dir_all(&settings.dir);
    out
}

/// A budget low enough to force the spill rung but high enough that the
/// ladder never needs the coverage-costing rungs below it.
fn starvation_budget(unconstrained_peak: u64) -> u64 {
    (unconstrained_peak / 4).max(4096)
}

/// The benchmark's shape — SmallBank over 2 000 preloaded rows at a
/// quarter of the memory the run needs, which is below what the ladder
/// can collect or spill its way down to. The verdict must not move, and
/// the tier must not thrash: passes are batched and re-armed by growth
/// (not one per trace), a record is not spilled to be faulted straight
/// back, and the log stays within a small multiple of what went into it.
#[test]
fn a_budget_below_the_resident_floor_does_not_thrash() {
    let seed = test_seed(0x7445);
    let spec = CleanRunSpec {
        workload: "smallbank".to_string(),
        rows: 2_000,
        clients: 8,
        txns_per_client: 150,
        level: leopard_core::IsolationLevel::Serializable,
        seed,
        tick: 10,
        schedule: Schedule::Interleaved,
    };
    let cap = generate_clean_capture(&spec).expect("clean capture");
    let cfg = VerifierConfig::for_level(leopard_core::IsolationLevel::Serializable);
    let base = run_unconstrained(&cap.header.preload, &cap.traces, cfg);
    let budget = base.counters.budget.peak_bytes / 4;

    let dir = tmp_dir("thrash");
    let mut tight = cfg;
    tight.mem_budget = MemBudget::bytes(budget);
    let mut v = Verifier::new(tight);
    v.attach_spill(SpillTier::open(&SpillSettings::new(&dir)).expect("open spill tier"));
    for &(k, val) in &cap.header.preload {
        v.preload(k, val);
    }
    for t in &cap.traces {
        v.process(t);
    }
    let tier = v.spill_stats();
    let on_disk: u64 = std::fs::read_dir(&dir)
        .expect("spill dir")
        .map(|e| e.expect("entry").metadata().expect("metadata").len())
        .sum();
    let out = v.finish();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(out.store_fault.is_none(), "{:?}", out.store_fault);
    assert_eq!(
        comparable(&base),
        comparable(&out),
        "spilling changed the verdict (seed {seed:#x})"
    );
    let b = out.counters.budget;
    let traces = cap.traces.len() as u64;
    assert!(
        b.peak_bytes > budget,
        "premise: the floor ({}) is above the budget ({budget})",
        b.peak_bytes
    );
    assert!(b.spilled_records > 0, "premise: the tier was used");
    assert!(
        b.spill_passes <= traces / 8,
        "{} spill passes for {traces} traces",
        b.spill_passes
    );
    assert!(
        b.forced_gcs <= traces / 8,
        "{} forced GCs for {traces} traces",
        b.forced_gcs
    );
    assert!(
        b.spill_faults <= b.spilled_records,
        "{} faults for {} records spilled",
        b.spill_faults,
        b.spilled_records
    );
    assert_eq!(
        tier.bytes_on_disk, on_disk,
        "the tier's own account of the directory"
    );
    assert!(
        on_disk <= 4 * tier.record_bytes_out,
        "{on_disk} bytes on disk for {} bytes of records",
        tier.record_bytes_out
    );
}

/// Hostile-disk differential: seeded short writes force the tier's
/// residual-offset retry loop on, and the verdict must not move.
#[test]
fn short_write_storms_do_not_move_the_verdict() {
    let seed = test_seed(0x5877);
    let spec = CleanRunSpec {
        workload: "blindw-rw".to_string(),
        rows: 16,
        clients: 3,
        txns_per_client: 10,
        level: leopard_core::IsolationLevel::Serializable,
        seed,
        tick: 10,
        schedule: Schedule::Interleaved,
    };
    let cap = generate_clean_capture(&spec).expect("clean capture");
    let cfg = VerifierConfig::for_level(leopard_core::IsolationLevel::Serializable);

    let base = run_unconstrained(&cap.header.preload, &cap.traces, cfg);
    let budget = starvation_budget(base.counters.budget.peak_bytes);

    let mut settings = SpillSettings::new(tmp_dir("shortw"));
    settings.fault = FaultSpec {
        seed,
        short_write_prob: 0.5,
        ..FaultSpec::default()
    };
    let stormy = run_spilling(&cap.header.preload, &cap.traces, cfg, budget, &settings);
    assert_eq!(
        comparable(&base),
        comparable(&stormy),
        "short-write storm changed the verdict (seed {seed:#x})"
    );
}

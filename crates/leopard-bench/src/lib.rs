//! Shared harness utilities for the experiment binaries that regenerate
//! every table and figure of the paper's evaluation (§VI).
//!
//! Each binary in `src/bin/` reproduces one figure; see `DESIGN.md` for
//! the experiment index and `EXPERIMENTS.md` for recorded results.

use leopard_core::{IsolationLevel, Key, Trace, Value, Verifier, VerifierConfig, VerifyOutcome};
use leopard_db::{Database, DbConfig};
use leopard_workloads::{preload_database, run_collect, RunLimit, RunOutput, WorkloadGen};
use std::time::{Duration, Instant};

/// A collected workload run: everything a verifier needs to replay it.
pub struct CollectedRun {
    /// Initial database contents.
    pub preload: Vec<(Key, Value)>,
    /// Per-client trace streams plus run statistics.
    pub output: RunOutput,
    /// Merged stream sorted by `ts_bef`.
    pub merged: Vec<Trace>,
}

/// Runs the given generators against a fresh database at `level`,
/// collecting all traces. One client per generator.
pub fn collect_run(
    proto: &dyn WorkloadGen,
    gens: Vec<Box<dyn WorkloadGen>>,
    level: IsolationLevel,
    txns_per_client: u64,
    seed: u64,
) -> CollectedRun {
    collect_run_cfg(
        proto,
        gens,
        DbConfig::at(level),
        RunLimit::Txns(txns_per_client),
        seed,
    )
}

/// Runs against a database with an explicit configuration (e.g. with
/// simulated operation latency for the overlap studies).
pub fn collect_run_cfg(
    proto: &dyn WorkloadGen,
    gens: Vec<Box<dyn WorkloadGen>>,
    cfg: DbConfig,
    limit: RunLimit,
    seed: u64,
) -> CollectedRun {
    let db = Database::new(cfg);
    let preload = preload_database(&db, proto);
    let output = run_collect(&db, gens, limit, seed);
    let merged = output.merged_sorted();
    CollectedRun {
        preload,
        output,
        merged,
    }
}

/// Runs the given generators for a fixed wall-clock duration.
pub fn collect_run_for(
    proto: &dyn WorkloadGen,
    gens: Vec<Box<dyn WorkloadGen>>,
    level: IsolationLevel,
    duration: Duration,
    seed: u64,
) -> CollectedRun {
    let db = Database::new(DbConfig::at(level));
    let preload = preload_database(&db, proto);
    let output = run_collect(&db, gens, RunLimit::Duration(duration), seed);
    let merged = output.merged_sorted();
    CollectedRun {
        preload,
        output,
        merged,
    }
}

/// Clones a `Clone` generator for `n` clients.
pub fn fork_clones<G: WorkloadGen + Clone + 'static>(g: &G, n: usize) -> Vec<Box<dyn WorkloadGen>> {
    (0..n).map(|_| Box::new(g.clone()) as _).collect()
}

/// Replays a collected run through a Leopard verifier, returning the
/// outcome and the verification wall time.
pub fn verify_collected(run: &CollectedRun, cfg: VerifierConfig) -> (VerifyOutcome, Duration) {
    let mut v = Verifier::new(cfg);
    for &(k, val) in &run.preload {
        v.preload(k, val);
    }
    let start = Instant::now();
    for t in &run.merged {
        v.process(t);
    }
    let outcome = v.finish();
    (outcome, start.elapsed())
}

/// Default Leopard configuration for a collected run at `level`.
#[must_use]
pub fn leopard_cfg(level: IsolationLevel) -> VerifierConfig {
    VerifierConfig::for_level(level)
}

/// Approximate retained bytes for an entry-count footprint (entries
/// dominate and average ~64 bytes each across the mirrored structures).
#[must_use]
pub fn approx_bytes(entries: usize) -> f64 {
    entries as f64 * 64.0
}

/// Formats a byte count human-readably.
#[must_use]
pub fn fmt_bytes(bytes: f64) -> String {
    if bytes >= 1024.0 * 1024.0 {
        format!("{:.1} MiB", bytes / 1024.0 / 1024.0)
    } else if bytes >= 1024.0 {
        format!("{:.1} KiB", bytes / 1024.0)
    } else {
        format!("{bytes:.0} B")
    }
}

/// Formats a duration compactly.
#[must_use]
pub fn fmt_dur(d: Duration) -> String {
    if d.as_secs_f64() >= 1.0 {
        format!("{:.2} s", d.as_secs_f64())
    } else if d.as_millis() >= 1 {
        format!("{:.2} ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.0} µs", d.as_secs_f64() * 1e6)
    }
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown-style table header.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_workloads::{BlindW, BlindWVariant};

    #[test]
    fn collect_and_verify_round_trip() {
        let g = BlindW::new(BlindWVariant::ReadWrite).with_table_size(64);
        let run = collect_run(&g, fork_clones(&g, 2), IsolationLevel::Serializable, 20, 7);
        assert!(run.merged.len() > 10);
        let (outcome, _) = verify_collected(&run, leopard_cfg(IsolationLevel::Serializable));
        assert!(outcome.report.is_clean(), "{}", outcome.report);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_bytes(512.0), "512 B");
        assert!(fmt_bytes(2048.0).contains("KiB"));
        assert!(fmt_bytes(3.0 * 1024.0 * 1024.0).contains("MiB"));
        assert!(fmt_dur(Duration::from_millis(5)).contains("ms"));
        assert!(fmt_dur(Duration::from_secs(2)).contains("s"));
        assert!(fmt_dur(Duration::from_nanos(500)).contains("µs"));
    }
}

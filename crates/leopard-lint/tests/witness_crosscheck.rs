//! The lock-order witness (`leopard_core::lockwitness`), from the outside:
//! the two acquisitions it exists to stop each panic at the offending
//! `lock()`; the workspace's one nested acquisition — which runs through
//! `Box<dyn StoreIo>` / `dyn StoreFile`, where no source-level call graph
//! follows — is observed and accepted; and every lock identity in the
//! workspace is an id of the static shared-state inventory (L103), so the
//! names a panic prints are the names a reader can look up.

use leopard_core::lockwitness::{self, TrackedMutex};
use leopard_core::store::io::FaultSpec;
use leopard_core::store::SpillTier;
use leopard_core::verify::KeyVersions;
use leopard_core::{Key, SpillSettings};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

#[test]
#[cfg_attr(
    debug_assertions,
    should_panic(
        expected = "lock-order inversion: wc_inv.a acquired while wc_inv.b is held, \
                    but wc_inv.b was previously acquired while wc_inv.a was held"
    )
)]
fn an_inverted_acquisition_panics_naming_both_locks() {
    let a = TrackedMutex::new("wc_inv.a", ());
    let b = TrackedMutex::new("wc_inv.b", ());
    {
        let _ga = a.lock();
        let _gb = b.lock();
    }
    let _gb = b.lock();
    let _ga = a.lock();
}

#[test]
#[cfg_attr(
    debug_assertions,
    should_panic(
        expected = "recursive acquisition: wc_rec.m acquired while this thread already holds \
                    wc_rec.m"
    )
)]
fn a_recursive_acquisition_panics_instead_of_deadlocking() {
    // Two instances under one identity: what the witness refuses is the
    // name held twice, so the test does not have to deadlock to show it.
    let outer = TrackedMutex::new("wc_rec.m", ());
    let inner = TrackedMutex::new("wc_rec.m", ());
    let _go = outer.lock();
    let _gi = inner.lock();
}

#[test]
fn a_fault_io_backed_spill_nests_the_tier_lock_over_the_injector_lock() {
    let dir = std::env::temp_dir().join(format!("leopard-witness-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut settings = SpillSettings::new(&dir);
    // Armed, so the tier is opened over a `FaultIo`; never reached.
    settings.fault = FaultSpec {
        enospc_after_bytes: Some(u64::MAX),
        ..FaultSpec::default()
    };
    let tier = SpillTier::open(&settings).expect("open tier");
    let record = KeyVersions {
        key: Key(1),
        entries: Vec::new(),
    };
    tier.put_batch(&[record]).expect("spill");
    let _ = std::fs::remove_dir_all(&dir);
    let nested = ("SpillTier.inner", "FaultIo.state");
    // Release builds do no bookkeeping at all.
    assert_eq!(
        lockwitness::observed_edges().contains(&nested),
        cfg!(debug_assertions)
    );
}

/// Every `TrackedMutex::new("…")` in non-test workspace source, by
/// scanning the literals: a lock no workload happens to drive cannot be
/// skipped.
fn tracked_mutex_names(dir: &Path, out: &mut BTreeSet<String>) {
    const CALL: &str = "TrackedMutex::new(";
    for entry in std::fs::read_dir(dir).expect("read_dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            tracked_mutex_names(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            let text = std::fs::read_to_string(&path).expect("source file");
            // By repo convention the unit-test module trails the file.
            let code = text.split("#[cfg(test)]").next().unwrap_or(&text);
            for (at, _) in code.match_indices(CALL) {
                let name = code[at + CALL.len()..]
                    .trim_start()
                    .strip_prefix('"')
                    .and_then(|rest| rest.split_once('"'))
                    .map(|(name, _)| name.to_string());
                let name = name.unwrap_or_else(|| {
                    panic!("{}: a TrackedMutex named by a non-literal", path.display())
                });
                out.insert(name);
            }
        }
    }
}

#[test]
fn every_lock_identity_is_a_shared_state_inventory_id() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut names = BTreeSet::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        tracked_mutex_names(&krate.expect("dir entry").path().join("src"), &mut names);
    }
    assert!(names.len() >= 9, "the scan lost locks: {names:?}");

    let analysis = leopard_lint::analyze_workspace(&root).expect("workspace scan");
    let inventory: BTreeSet<&str> = analysis
        .manifest
        .iter()
        .filter(|e| e.kind == "mutex")
        .map(|e| e.id.as_str())
        .collect();
    for name in &names {
        assert!(
            inventory.contains(name.as_str()),
            "lock identity {name} is not a mutex in the shared-state inventory"
        );
    }
}

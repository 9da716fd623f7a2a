//! The lock-order witness (`leopard_core::lockwitness`), from the outside:
//! the two acquisitions it exists to stop each panic at the offending
//! `lock()`, and the workspace's one nested acquisition — which runs through
//! `Box<dyn StoreIo>` / `dyn StoreFile`, where no source-level call graph
//! follows — is observed and accepted.
//!
//! Beside them, the two source conventions no compiler lint can state, kept
//! by one scan of `crates/*/src`: lock names are literals and unique (the
//! witness identifies a lock by its name, so a shared name reads as a
//! recursive acquisition), and every `Relaxed` ordering says why it is
//! enough.

use leopard_core::lockwitness::{self, TrackedMutex};
use leopard_core::store::io::FaultSpec;
use leopard_core::store::SpillTier;
use leopard_core::verify::KeyVersions;
use leopard_core::{Key, SpillSettings};
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

/// Appends `(path, non-test text)` of every `.rs` file under `dir`. By repo
/// convention the unit-test module trails the file.
fn product_sources(dir: &Path, out: &mut Vec<(PathBuf, String)>) {
    for entry in std::fs::read_dir(dir).expect("read_dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            product_sources(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            let text = std::fs::read_to_string(&path).expect("source file");
            let code = text.split("#[cfg(test)]").next().unwrap_or(&text);
            out.push((path, code.to_string()));
        }
    }
}

/// Every `TrackedMutex::new(` whose name is not a string literal, or is a
/// literal some other site already uses.
fn lock_name_findings(sources: &[(PathBuf, String)]) -> Vec<String> {
    const CALL: &str = "TrackedMutex::new(";
    let mut seen: Vec<(&str, &Path)> = Vec::new();
    let mut findings = Vec::new();
    for (path, code) in sources {
        for (at, _) in code.match_indices(CALL) {
            let literal = code[at + CALL.len()..]
                .trim_start()
                .strip_prefix('"')
                .and_then(|rest| rest.split_once('"'));
            match literal {
                None => findings.push(format!("{}: lock named by a non-literal", path.display())),
                Some((name, _)) => {
                    if let Some((_, first)) = seen.iter().find(|(n, _)| *n == name) {
                        findings.push(format!(
                            "lock name {name} is used in both {} and {}",
                            first.display(),
                            path.display()
                        ));
                    }
                    seen.push((name, path));
                }
            }
        }
    }
    findings
}

/// Every line that names the `Relaxed` ordering with no `relaxed` in a
/// comment on that line or in the comment block directly above it.
fn unjustified_relaxed(sources: &[(PathBuf, String)]) -> Vec<String> {
    let mut findings = Vec::new();
    for (path, text) in sources {
        let mut above = String::new();
        for (idx, line) in text.lines().enumerate() {
            let (code, comment) = line.split_once("//").unwrap_or((line, ""));
            above.push_str(comment);
            if code.trim().is_empty() && !comment.is_empty() {
                continue;
            }
            if code.contains("Relaxed") && !above.to_lowercase().contains("relaxed") {
                findings.push(format!("{}:{}", path.display(), idx + 1));
            }
            above.clear();
        }
    }
    findings
}

#[test]
fn lock_names_are_unique_literals_and_every_relaxed_ordering_is_justified() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/");
    let mut sources = Vec::new();
    for krate in std::fs::read_dir(crates).expect("read crates/") {
        product_sources(&krate.expect("dir entry").path().join("src"), &mut sources);
    }
    let locks: usize = sources
        .iter()
        .map(|(_, code)| code.matches("TrackedMutex::new(").count())
        .sum();
    assert!(locks >= 9, "the scan lost locks: {locks} found");
    assert_eq!(lock_name_findings(&sources), Vec::<String>::new());
    assert_eq!(
        unjustified_relaxed(&sources),
        Vec::<String>::new(),
        "`Ordering::Relaxed` needs `// relaxed: <why it is enough>` on its line or directly above"
    );
}

#[test]
fn the_source_scan_fails_when_seeded() {
    let file = |name: &str, text: &str| (PathBuf::from(name), text.to_string());
    let dup = [
        file("a.rs", "let a = TrackedMutex::new(\"Owner.field\", 0);"),
        file(
            "b.rs",
            "let b = TrackedMutex::new(\n    \"Owner.field\", 1);",
        ),
    ];
    assert_eq!(lock_name_findings(&dup).len(), 1);
    assert!(lock_name_findings(&dup[..1]).is_empty());
    let computed = [file("c.rs", "let c = TrackedMutex::new(name, 0);")];
    assert_eq!(lock_name_findings(&computed).len(), 1);

    let bare = [file(
        "d.rs",
        "// relaxed: a statistic\nn.load(Ordering::Relaxed);\n\nn.load(Ordering::Relaxed);\n\
         n.store(1, Ordering::Relaxed); // relaxed: publishes nothing\n",
    )];
    assert_eq!(unjustified_relaxed(&bare), vec!["d.rs:4".to_string()]);
}

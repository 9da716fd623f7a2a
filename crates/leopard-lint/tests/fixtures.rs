//! Golden fixture corpus: each directory under `tests/fixtures/` seeds
//! one violation class, and the analyzer must report *exactly* the
//! expected findings — same file, line, code, and message. The fixture
//! trees are skipped by the workspace walk (`collect_rust_files` prunes
//! any directory named `fixtures`), so these violations never pollute
//! the real workspace scan; only these tests analyze them, each as its
//! own miniature workspace root.

use leopard_lint::{analyze_workspace, Analysis};
use std::path::PathBuf;

fn analyze(fixture: &str) -> Analysis {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    analyze_workspace(&root).expect("fixture scan")
}

fn rendered(analysis: &Analysis) -> Vec<String> {
    analysis.findings.iter().map(|f| f.to_string()).collect()
}

#[test]
fn atomics_fixture_yields_the_exact_pairing_findings() {
    let analysis = analyze("atomics");
    assert_eq!(
        rendered(&analysis),
        vec![
            "src/flags.rs:15: L102: Release-ordered write to Flags.ready is never paired \
             with an Acquire-or-stronger load"
                .to_string(),
            "src/flags.rs:22: L102: Relaxed access to Flags.state, which is elsewhere \
             accessed with stronger orderings"
                .to_string(),
            "src/flags.rs:26: L003: `Ordering::Relaxed` without a justification comment; \
             add `// relaxed: <why this ordering is sufficient>` or use a stronger ordering"
                .to_string(),
        ]
    );
}

#[test]
fn manifest_drift_fixture_yields_the_exact_baseline_findings() {
    let analysis = analyze("manifest_drift");
    assert_eq!(
        rendered(&analysis),
        vec![
            "crates/leopard-lint/shared_state_baseline.json:1: L103: baseline entry \
             Cache.retired (mutex) no longer exists in the workspace — regenerate the \
             baseline with `leopard-lint --update-baseline`"
                .to_string(),
            "src/cache.rs:7: L103: new shared state Cache.entries (mutex) is not in \
             crates/leopard-lint/shared_state_baseline.json — review it and regenerate \
             the baseline with `leopard-lint --update-baseline`"
                .to_string(),
        ]
    );
    // The manifest itself still records the live field.
    assert!(analysis.manifest.iter().any(|e| e.id == "Cache.entries"));
}

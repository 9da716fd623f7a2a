//! Repo-specific static analysis for the Leopard workspace.
//!
//! This is **level 1** of Leopard's two-level static analysis story: the
//! verifier's verdicts are only as trustworthy as the verifier's own code,
//! so a hand-rolled analyzer (no `syn`, no external dependencies)
//! enforces the source-level invariants the design relies on.
//!
//! The per-line *token lints*:
//!
//! | code | invariant |
//! |------|-----------|
//! | L001 | no `unwrap()` / `expect()` / `panic!` in `leopard-core/src/verify/**`, `pipeline/**`, `online.rs`, `budget.rs` |
//! | L002 | no raw `std::collections::HashMap`/`HashSet` outside `fxhash.rs` |
//! | L003 | every `Ordering::Relaxed` carries a justification comment (`// relaxed: <why>`) |
//! | L004 | no `Instant::now()` / `SystemTime::now()` inside `leopard-core` |
//!
//! And the workspace-level *concurrency passes* (built on a real item
//! model — see [`model`]):
//!
//! | code | invariant |
//! |------|-----------|
//! | L102 | atomic `Ordering`s pair up: Release writes ⇄ Acquire reads, no Relaxed on strongly-ordered fields ([`atomics`]) |
//! | L103 | every piece of shared state is in the committed `shared_state_baseline.json` ([`manifest`]) |
//!
//! A violation can be acknowledged in place with an **allow comment** that
//! must carry a reason:
//!
//! ```text
//! // lint: allow(L001): the key was inserted two lines above
//! let info = self.txns.get_mut(txn).expect("observed");
//! ```
//!
//! The allow applies to the same line when trailing, or to the next
//! code-bearing line when it stands alone. An allow without a reason is
//! ignored.
//!
//! The lexer underneath ([`lexer`]) strips string literals and comments
//! before matching, tracks multi-line strings and nested block comments,
//! and stops at the first `#[cfg(test)]` attribute of a file — by repo
//! convention the trailing unit-test module, which is free to `unwrap()`
//! at will. Lock *order* is not checked here: `leopard_core::lockwitness`
//! panics at an inverted or recursive acquisition in every debug-build
//! test run (DESIGN §9); this crate supplies the lock identities it uses
//! (the L103 inventory ids).

pub mod atomics;
pub mod lexer;
pub mod manifest;
pub mod model;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The lint code, e.g. `"L001"`.
    pub code: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.code, self.message
        )
    }
}

impl Finding {
    /// Serializes this finding as a JSON object (hand-rolled — the lint
    /// crate stays dependency-free).
    #[must_use]
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        format!(
            "{{ \"code\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\" }}",
            self.code,
            esc(&self.file),
            self.line,
            esc(&self.message)
        )
    }
}

/// Which token lints apply to a workspace-relative path.
#[derive(Debug, Clone, Copy)]
struct Scope {
    l001: bool,
    l002: bool,
    l004: bool,
}

fn scope_for(rel: &str) -> Scope {
    Scope {
        l001: rel.starts_with("crates/leopard-core/src/verify/")
            || rel.starts_with("crates/leopard-core/src/pipeline/")
            || rel == "crates/leopard-core/src/online.rs"
            || rel == "crates/leopard-core/src/budget.rs",
        l002: rel != "crates/leopard-core/src/fxhash.rs",
        l004: rel.starts_with("crates/leopard-core/"),
    }
}

/// Scans one file's source text with the per-line token lints
/// (L001–L004), returning its violations.
///
/// `rel` is the workspace-relative path (used both for scoping and for
/// reporting). The workspace-level passes (L102, L103) need the whole
/// workspace — see [`analyze_workspace`].
#[must_use]
pub fn scan_file(rel: &str, content: &str) -> Vec<Finding> {
    let scope = scope_for(rel);
    let scan = lexer::scan_lines(content);
    let mut findings = Vec::new();
    for (idx, line_scan) in scan.lines.iter().enumerate() {
        let line = idx + 1;
        let code = &line_scan.code;
        if code.trim().is_empty() {
            continue;
        }
        let allowed = |c: &str| line_scan.allowed(c);

        if scope.l001 && !allowed("L001") {
            for (hits, what) in [
                (lexer::method_calls(code, "unwrap"), "unwrap()"),
                (lexer::method_calls(code, "expect"), "expect()"),
                (lexer::word_starts(code, "panic!"), "panic!"),
            ] {
                for _ in 0..hits {
                    findings.push(Finding {
                        code: "L001",
                        file: rel.to_string(),
                        line,
                        message: format!(
                            "`{what}` in a verifier/pipeline hot path; return a typed \
                             error or annotate with `// lint: allow(L001): <reason>`"
                        ),
                    });
                }
            }
        }
        if scope.l002 && !allowed("L002") {
            for what in ["HashMap", "HashSet"] {
                for _ in 0..lexer::word_starts(code, what) {
                    findings.push(Finding {
                        code: "L002",
                        file: rel.to_string(),
                        line,
                        message: format!(
                            "raw std `{what}` outside fxhash.rs; hot-path maps must use \
                             Fx{what} (crate::fxhash)"
                        ),
                    });
                }
            }
        }
        if !allowed("L003") {
            let relaxed = scan
                .ordering_aliases
                .iter()
                .any(|a| code.contains(&format!("{a}::Relaxed")));
            if relaxed {
                let justified = line_scan.comment.to_lowercase().contains("relaxed")
                    || line_scan.above.to_lowercase().contains("relaxed");
                if !justified {
                    findings.push(Finding {
                        code: "L003",
                        file: rel.to_string(),
                        line,
                        message: "`Ordering::Relaxed` without a justification comment; add \
                                  `// relaxed: <why this ordering is sufficient>` or use a \
                                  stronger ordering"
                            .to_string(),
                    });
                }
            }
        }
        if scope.l004 && !allowed("L004") {
            for what in ["Instant::now", "SystemTime::now"] {
                for _ in 0..lexer::word_starts(code, what) {
                    findings.push(Finding {
                        code: "L004",
                        file: rel.to_string(),
                        line,
                        message: format!(
                            "wall-clock read `{what}` inside leopard-core; the verifier \
                             must be deterministic — clock access belongs to leopard-db \
                             or the capture layer"
                        ),
                    });
                }
            }
        }
    }
    findings
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `fixtures/` holds deliberately-bad lint corpus files — they
            // are scanned by the fixture tests, never as workspace code.
            if matches!(
                name.as_ref(),
                "target" | ".git" | ".claude" | "results" | "devtools" | "fixtures"
            ) {
                continue;
            }
            collect_rust_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The result of a full workspace analysis.
#[derive(Debug)]
pub struct Analysis {
    /// All findings (token lints + concurrency passes), sorted by file,
    /// line, and code.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub scanned: usize,
    /// The shared-state manifest entries.
    pub manifest: Vec<manifest::ManifestEntry>,
    /// The serialized `shared_state.json` document.
    pub manifest_json: String,
}

/// Runs every pass over the workspace rooted at `root`: token lints per
/// file, then the L102 atomics audit and the L103 manifest diff against the committed baseline (silently skipped
/// when no baseline exists — fresh checkouts and test sandboxes).
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    let mut files = Vec::new();
    collect_rust_files(root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in &files {
        let content = fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(scan_file(&rel, &content));
        sources.push((rel, content));
    }
    let model = model::Model::build(&sources);
    findings.extend(atomics::analyze(&model));
    let entries = manifest::build(&model);
    let manifest_json = manifest::to_json(&entries);
    let baseline_path = root.join(manifest::BASELINE_REL);
    if let Ok(text) = fs::read_to_string(&baseline_path) {
        let baseline = manifest::parse_baseline(&text);
        findings.extend(manifest::diff(&entries, &baseline));
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.code).cmp(&(&b.file, b.line, b.code)));
    Ok(Analysis {
        findings,
        scanned: files.len(),
        manifest: entries,
        manifest_json,
    })
}

/// Scans every `.rs` file under `root` (skipping `target/`, `.git/`,
/// `results/`, `devtools/`, fixture corpora) with all passes. Returns
/// the findings, sorted by file and line, plus the number of files
/// scanned. Thin compatibility wrapper over [`analyze_workspace`].
pub fn scan_workspace(root: &Path) -> io::Result<(Vec<Finding>, usize)> {
    let analysis = analyze_workspace(root)?;
    Ok((analysis.findings, analysis.scanned))
}

#[cfg(test)]
mod tests {
    use super::*;

    const VERIFY_PATH: &str = "crates/leopard-core/src/verify/mod.rs";

    fn codes(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn l001_fires_only_in_hot_paths() {
        let src = "fn f() { x.unwrap(); y.expect(\"msg\"); panic!(\"no\"); }\n";
        let found = scan_file(VERIFY_PATH, src);
        assert_eq!(codes(&found), vec!["L001", "L001", "L001"]);
        assert_eq!(found[0].line, 1);
        assert!(scan_file("crates/leopard-db/src/engine.rs", src).is_empty());
    }

    #[test]
    fn l001_covers_online_and_budget() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(
            codes(&scan_file("crates/leopard-core/src/online.rs", src)),
            vec!["L001"]
        );
        assert_eq!(
            codes(&scan_file("crates/leopard-core/src/budget.rs", src)),
            vec!["L001"]
        );
    }

    #[test]
    fn l001_allow_with_reason_suppresses() {
        let src = "\
// lint: allow(L001): inserted two lines above, lookup cannot fail
let info = table.get_mut(txn).expect(\"observed\");
let other = table.get_mut(txn).expect(\"observed\"); // lint: allow(L001): same
let bad = table.get_mut(txn).expect(\"observed\");
";
        let found = scan_file(VERIFY_PATH, src);
        assert_eq!(codes(&found), vec!["L001"]);
        assert_eq!(found[0].line, 4);
    }

    #[test]
    fn allow_without_reason_is_ignored() {
        let src = "// lint: allow(L001)\nx.unwrap();\n// lint: allow(L001):   \ny.unwrap();\n";
        let found = scan_file(VERIFY_PATH, src);
        assert_eq!(codes(&found), vec!["L001", "L001"]);
    }

    #[test]
    fn l002_spares_fx_wrappers_and_fxhash_rs() {
        let src =
            "use std::collections::HashMap;\nlet m: FxHashMap<K, V> = FxHashMap::default();\n";
        let found = scan_file("crates/leopard-db/src/storage.rs", src);
        assert_eq!(codes(&found), vec!["L002"]);
        assert_eq!(found[0].line, 1);
        assert!(scan_file("crates/leopard-core/src/fxhash.rs", src).is_empty());
    }

    #[test]
    fn l003_requires_justification() {
        let bare = "let n = c.fetch_add(1, Ordering::Relaxed);\n";
        assert_eq!(
            codes(&scan_file("crates/leopard-db/src/clock.rs", bare)),
            vec!["L003"]
        );
        let trailing = "let n = c.fetch_add(1, Ordering::Relaxed); // relaxed: counter only\n";
        assert!(scan_file("crates/leopard-db/src/clock.rs", trailing).is_empty());
        let above = "// relaxed: id allocation needs uniqueness, not ordering\nlet n = c.fetch_add(1, Ordering::Relaxed);\n";
        assert!(scan_file("crates/leopard-db/src/clock.rs", above).is_empty());
        // A blank line breaks the justification block.
        let gap = "// relaxed: stale\n\nlet n = c.fetch_add(1, Ordering::Relaxed);\n";
        assert_eq!(
            codes(&scan_file("crates/leopard-db/src/clock.rs", gap)),
            vec!["L003"]
        );
    }

    #[test]
    fn l003_sees_aliased_orderings() {
        let src = "use std::sync::atomic::Ordering as O;\nlet n = c.fetch_add(1, O::Relaxed);\n";
        assert_eq!(
            codes(&scan_file("crates/leopard-db/src/clock.rs", src)),
            vec!["L003"]
        );
    }

    #[test]
    fn l004_confined_to_core() {
        let src = "let t = Instant::now();\nlet s = SystemTime::now();\n";
        let found = scan_file("crates/leopard-core/src/stats.rs", src);
        assert_eq!(codes(&found), vec!["L004", "L004"]);
        assert!(scan_file("crates/leopard-db/src/engine.rs", src).is_empty());
    }

    #[test]
    fn strings_and_comments_are_not_code() {
        let src = r#"
let s = "call unwrap() and panic! here";
let r = r"HashMap inside a raw string";
// a comment mentioning x.unwrap() and HashMap
/* block comment: Ordering::Relaxed */
"#;
        assert!(scan_file(VERIFY_PATH, src).is_empty());
    }

    #[test]
    fn multiline_strings_are_tracked() {
        let src = "const USAGE: &str = \"\\\nline with unwrap() inside string\nstill HashMap inside\";\nx.unwrap();\n";
        let found = scan_file(VERIFY_PATH, src);
        assert_eq!(codes(&found), vec!["L001"]);
        assert_eq!(found[0].line, 4);
    }

    #[test]
    fn char_literals_do_not_derail_lexer() {
        let src = "let q = '\"';\nlet c = 'a';\nlet lt: &'static str = \"x\";\nx.unwrap();\n";
        let found = scan_file(VERIFY_PATH, src);
        assert_eq!(codes(&found), vec!["L001"]);
        assert_eq!(found[0].line, 4);
    }

    #[test]
    fn scanning_stops_at_test_module() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(scan_file(VERIFY_PATH, src).is_empty());
    }

    #[test]
    fn identifier_containing_pattern_does_not_match() {
        let src = "fn my_unwrap() {}\nlet do_panic!_ish = 0;\nstruct NotHashMapped;\n";
        // `NotHashMapped` begins mid-identifier; `my_unwrap` is not a
        // method call; only a real `.unwrap()` would fire.
        assert!(scan_file(VERIFY_PATH, "let x = my_unwrap();\n").is_empty());
        assert!(scan_file("crates/leopard-db/src/x.rs", "struct NotHashMapped;\n").is_empty());
        let _ = src;
    }

    #[test]
    fn workspace_scan_walks_and_reports_relative_paths() {
        let dir = std::env::temp_dir().join(format!("leopard_lint_ws_{}", std::process::id()));
        let hot = dir.join("crates/leopard-core/src/verify");
        std::fs::create_dir_all(&hot).unwrap();
        std::fs::write(hot.join("mod.rs"), "fn f() { x.unwrap(); }\n").unwrap();
        std::fs::write(dir.join("crates/leopard-core/src/ok.rs"), "fn g() {}\n").unwrap();
        let (findings, scanned) = scan_workspace(&dir).unwrap();
        assert_eq!(scanned, 2);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].file, "crates/leopard-core/src/verify/mod.rs");
        assert_eq!(findings[0].line, 1);
        assert_eq!(findings[0].code, "L001");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn finding_json_escapes_and_shapes() {
        let f = Finding {
            code: "L103",
            file: "src/a.rs".to_string(),
            line: 3,
            message: "cycle \"x\"".to_string(),
        };
        assert_eq!(
            f.to_json(),
            "{ \"code\": \"L103\", \"file\": \"src/a.rs\", \"line\": 3, \"message\": \"cycle \\\"x\\\"\" }"
        );
    }
}

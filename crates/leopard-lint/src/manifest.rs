//! L103: the shared-state manifest.
//!
//! Every concurrency-relevant field in the workspace — mutexes, rwlocks,
//! condvars, atomics, channel endpoints — is emitted into a
//! machine-readable `shared_state.json`. CI diffs the manifest against a
//! committed baseline (`crates/leopard-lint/shared_state_baseline.json`):
//! a new piece of shared state, or a stale baseline entry, is an L103
//! finding until the baseline is deliberately regenerated with
//! `leopard-lint --update-baseline`. The diff compares `(id, kind)`
//! pairs only, so moving a field between files does not break CI —
//! file/line in the manifest are informational.
//!
//! The JSON is hand-rolled (and the baseline parsed line-wise against
//! our own emitter's shape): `leopard-lint` stays dependency-free so it
//! can never be broken by the very workspace it checks.

use crate::model::{FieldKind, Model};
use crate::Finding;

/// Workspace-relative path of the committed baseline.
pub const BASELINE_REL: &str = "crates/leopard-lint/shared_state_baseline.json";

/// One shared-state inventory entry.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ManifestEntry {
    /// Stable identity: `Owner.field` or `static.NAME`.
    pub id: String,
    /// Kind label: `mutex` / `rwlock` / `condvar` / `atomic` / `channel`.
    pub kind: String,
    /// Declared type, verbatim.
    pub ty: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based declaration line.
    pub line: usize,
}

/// Builds the manifest from the model: every non-plain field, sorted.
#[must_use]
pub fn build(model: &Model) -> Vec<ManifestEntry> {
    let mut entries: Vec<ManifestEntry> = model
        .fields
        .iter()
        .filter(|f| f.kind != FieldKind::Plain)
        .map(|f| ManifestEntry {
            id: f.id(),
            kind: f.kind.label().to_string(),
            ty: f.ty.clone(),
            file: f.file.clone(),
            line: f.line,
        })
        .collect();
    entries.sort();
    entries.dedup_by(|a, b| a.id == b.id && a.kind == b.kind);
    entries
}

/// Minimal JSON string escaping for the fields we emit.
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

/// Serializes the manifest (one entry object per line — the baseline
/// parser depends on that shape).
#[must_use]
pub fn to_json(entries: &[ManifestEntry]) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"id\": \"{}\", \"kind\": \"{}\", \"type\": \"{}\", \"file\": \"{}\", \"line\": {} }}{}\n",
            esc(&e.id),
            esc(&e.kind),
            esc(&e.ty),
            esc(&e.file),
            e.line,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extracts the quoted value after `"key":` on a line, if present.
fn field_on_line(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let pos = line.find(&pat)?;
    let rest = &line[pos + pat.len()..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => {
                if let Some(n) = chars.next() {
                    out.push(match n {
                        'n' => '\n',
                        't' => '\t',
                        other => other,
                    });
                }
            }
            c => out.push(c),
        }
    }
    None
}

/// Parses a baseline produced by [`to_json`] into `(id, kind)` pairs.
/// Lines that are not entries are ignored.
#[must_use]
pub fn parse_baseline(text: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for line in text.lines() {
        if let (Some(id), Some(kind)) = (field_on_line(line, "id"), field_on_line(line, "kind")) {
            out.push((id, kind));
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Diffs the current manifest against the baseline pairs.
#[must_use]
pub fn diff(entries: &[ManifestEntry], baseline: &[(String, String)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for e in entries {
        let known = baseline
            .iter()
            .any(|(id, kind)| id == &e.id && kind == &e.kind);
        if !known {
            findings.push(Finding {
                code: "L103",
                file: e.file.clone(),
                line: e.line,
                message: format!(
                    "new shared state {} ({}) is not in {BASELINE_REL} — review it and regenerate the baseline with `leopard-lint --update-baseline`",
                    e.id, e.kind
                ),
            });
        }
    }
    for (id, kind) in baseline {
        let exists = entries.iter().any(|e| &e.id == id && &e.kind == kind);
        if !exists {
            findings.push(Finding {
                code: "L103",
                file: BASELINE_REL.to_string(),
                line: 1,
                message: format!(
                    "baseline entry {id} ({kind}) no longer exists in the workspace — regenerate the baseline with `leopard-lint --update-baseline`"
                ),
            });
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    fn entries_of(src: &str) -> Vec<ManifestEntry> {
        let model = Model::build(&[("src/lib.rs".to_string(), src.to_string())]);
        build(&model)
    }

    #[test]
    fn manifest_inventories_all_shared_state() {
        let e = entries_of(
            "struct S {\n    m: Arc<Mutex<u32>>,\n    c: AtomicU64,\n    tx: Sender<u8>,\n    plain: u32,\n}\n",
        );
        let ids: Vec<&str> = e.iter().map(|x| x.id.as_str()).collect();
        assert_eq!(ids, vec!["S.c", "S.m", "S.tx"]);
        assert_eq!(e[0].kind, "atomic");
        assert_eq!(e[1].kind, "mutex");
        assert_eq!(e[2].kind, "channel");
    }

    #[test]
    fn json_round_trips_through_baseline_parser() {
        let e = entries_of("struct S {\n    m: Mutex<Vec<u32>>,\n    c: AtomicBool,\n}\n");
        let json = to_json(&e);
        let parsed = parse_baseline(&json);
        assert_eq!(
            parsed,
            vec![
                ("S.c".to_string(), "atomic".to_string()),
                ("S.m".to_string(), "mutex".to_string()),
            ]
        );
    }

    #[test]
    fn diff_flags_new_and_stale_entries() {
        let e = entries_of("struct S {\n    m: Mutex<u32>,\n}\n");
        let baseline = vec![("S.gone".to_string(), "atomic".to_string())];
        let f = diff(&e, &baseline);
        assert_eq!(f.len(), 2);
        assert!(f.iter().any(|x| x.message.contains("new shared state S.m")));
        assert!(f
            .iter()
            .any(|x| x.message.contains("S.gone") && x.message.contains("no longer")));
        assert!(f.iter().all(|x| x.code == "L103"));
    }

    #[test]
    fn matching_baseline_is_clean() {
        let e = entries_of("struct S {\n    m: Mutex<u32>,\n}\n");
        let json = to_json(&e);
        let baseline = parse_baseline(&json);
        assert!(diff(&e, &baseline).is_empty());
    }
}

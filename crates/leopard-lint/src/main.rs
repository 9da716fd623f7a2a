//! `leopard-lint` — run the workspace lints (token lints L001–L004 plus
//! the concurrency passes L102 and L103) and exit non-zero on any violation.
//! See the library docs for the lint table and the allow-comment escape
//! hatch.
//!
//! Findings go to stdout (text or `--json`); everything else — progress,
//! summaries, failures — is emitted on stderr as single-line JSON events
//! (`{"tool":"leopard-lint","level":...,"event":...,"message":...}`) so
//! wrapper scripts can grep for machine-stable markers instead of prose.
//! `--quiet` suppresses `info` events; `error` events always print.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
leopard-lint — Leopard workspace static analysis (L001-L004, L102, L103)

USAGE:
  leopard-lint [--root <DIR>] [--json] [--manifest-out <FILE>] [--update-baseline] [--quiet]

OPTIONS:
  --root <DIR>          Workspace root to scan (default: the workspace this
                        binary was built from)
  --json                Print findings as a JSON array instead of
                        `file:line: Lxxx: message` lines
  --manifest-out <FILE> Write the shared-state manifest (shared_state.json)
                        to FILE after the scan
  --update-baseline     Rewrite crates/leopard-lint/shared_state_baseline.json
                        from the current workspace instead of diffing against
                        it (L103 findings are recomputed after the update)
  --quiet               Suppress info-level stderr events (summaries,
                        progress); error events always print

Exits 0 when clean, 1 on violations, 2 on usage or I/O errors.";

/// Severity of a stderr event. `Info` is suppressed by `--quiet`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Level {
    Info,
    Error,
}

/// Emits one structured event line on stderr. Findings stay on stdout;
/// this channel carries only tool status, JSON-framed so scripts can
/// match on `"event":"..."` instead of prose that may be reworded.
fn event(quiet: bool, level: Level, kind: &str, message: &str) {
    if quiet && level == Level::Info {
        return;
    }
    let lvl = match level {
        Level::Info => "info",
        Level::Error => "error",
    };
    eprintln!(
        "{{\"tool\":\"leopard-lint\",\"level\":\"{lvl}\",\"event\":\"{kind}\",\"message\":\"{}\"}}",
        escape_json(message)
    );
}

/// Minimal JSON string escaping for event messages.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn usage_error(message: &str) -> ExitCode {
    event(false, Level::Error, "usage", message);
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut manifest_out: Option<PathBuf> = None;
    let mut update_baseline = false;
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--json" => json = true,
            "--update-baseline" => update_baseline = true,
            "--quiet" => quiet = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage_error("--root needs a value"),
            },
            "--manifest-out" => match args.next() {
                Some(path) => manifest_out = Some(PathBuf::from(path)),
                None => return usage_error("--manifest-out needs a value"),
            },
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }
    // The crate lives at <workspace>/crates/leopard-lint.
    let root = root.unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")));

    if update_baseline {
        // Rewrite the baseline first so the analysis below diffs cleanly.
        match leopard_lint::analyze_workspace(&root) {
            Ok(analysis) => {
                let path = root.join(leopard_lint::manifest::BASELINE_REL);
                if let Err(e) = std::fs::write(&path, &analysis.manifest_json) {
                    event(
                        quiet,
                        Level::Error,
                        "io",
                        &format!("writing {} failed: {e}", path.display()),
                    );
                    return ExitCode::from(2);
                }
                event(
                    quiet,
                    Level::Info,
                    "baseline-updated",
                    &format!("{} shared-state entries", analysis.manifest.len()),
                );
            }
            Err(e) => {
                event(quiet, Level::Error, "scan-failed", &e.to_string());
                return ExitCode::from(2);
            }
        }
    }

    match leopard_lint::analyze_workspace(&root) {
        Ok(analysis) => {
            if let Some(path) = &manifest_out {
                if let Err(e) = std::fs::write(path, &analysis.manifest_json) {
                    event(
                        quiet,
                        Level::Error,
                        "io",
                        &format!("writing {} failed: {e}", path.display()),
                    );
                    return ExitCode::from(2);
                }
            }
            let findings = &analysis.findings;
            let scanned = analysis.scanned;
            if json {
                println!("[");
                for (i, f) in findings.iter().enumerate() {
                    println!(
                        "  {}{}",
                        f.to_json(),
                        if i + 1 < findings.len() { "," } else { "" }
                    );
                }
                println!("]");
            } else {
                for f in findings {
                    println!("{f}");
                }
            }
            if findings.is_empty() {
                event(
                    quiet,
                    Level::Info,
                    "clean",
                    &format!(
                        "{scanned} files clean ({} shared-state entries)",
                        analysis.manifest.len()
                    ),
                );
                ExitCode::SUCCESS
            } else {
                event(
                    quiet,
                    Level::Error,
                    "violations",
                    &format!(
                        "{} violation(s) across {scanned} scanned files",
                        findings.len()
                    ),
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            event(quiet, Level::Error, "scan-failed", &e.to_string());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::escape_json;

    #[test]
    fn event_messages_are_json_safe() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}

//! What a run prints: metric tables, the environment block, the JSON
//! document of a full run, and `--compare` over two such documents.

use crate::metrics::{Better, EndToEnd, Metric, END_TO_END};
use crate::WorkloadResult;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::process::Command;

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// A JSON number with every digit measured (never `NaN` or `inf`, which
/// JSON cannot carry).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Prints one line per metric: workload, name, value, unit, then the
/// median, quartiles and sample count it was taken from.
pub fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        if m.n > 1 {
            println!(
                "{workload:<16} {:<26} {:>16.4} {:<6} median {:.4} q1 {:.4} q3 {:.4} n {}",
                m.name, m.value, m.unit, m.median, m.q1, m.q3, m.n
            );
        } else {
            println!("{workload:<16} {:<26} {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
}

/// Where and on what the numbers were measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Env {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_sha: String,
    /// Cores available to this process.
    pub nproc: u64,
    /// `rustc --version`.
    pub rustc: String,
    /// How third-party crates were provided: the build always patches in
    /// `devtools/offline-stubs`, whose locks, channels and JSON codec are
    /// slower stand-ins for the published crates.
    pub deps: String,
    /// CPU model name.
    pub cpu: String,
    /// One-minute load average when the run started.
    pub load_1m: f64,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status
        .success()
        .then(|| text.trim().to_string())
        .filter(|s| !s.is_empty())
}

impl Env {
    /// Reads the environment of this run.
    pub fn capture() -> Env {
        let unknown = || "unknown".to_string();
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(unknown);
        let load_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(0.0);
        Env {
            git_sha: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(unknown),
            deps: "offline-stubs".to_string(),
            cpu,
            load_1m,
        }
    }

    /// Prints the block, warning when the machine is already busy.
    pub fn print(&self) {
        println!(
            "env: git {} | {} core(s) | {} | deps {} | {} | load {:.2}",
            self.git_sha, self.nproc, self.rustc, self.deps, self.cpu, self.load_1m
        );
        if self.load_1m > self.nproc as f64 {
            eprintln!(
                "warning: load average {:.2} exceeds {} core(s); timings will be noisy",
                self.load_1m, self.nproc
            );
        }
    }
}

/// The JSON document of a full run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteDoc {
    /// Document format version.
    pub schema: u32,
    /// `--seed`.
    pub seed: u64,
    /// `--smoke` runs are for CI, not for quoting.
    pub smoke: bool,
    /// The environment block.
    pub env: Env,
    /// One entry per workload.
    pub workloads: Vec<WorkloadResult>,
}

fn load(path: &Path) -> Result<SuiteDoc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(text.trim()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Judges `after` against `before` by `def`'s direction and bound.
fn judge(def: &EndToEnd, before: &Metric, after: &Metric) -> (&'static str, f64) {
    let change = (after.value - before.value) / before.value;
    let worse = match def.better {
        Better::Higher => -change,
        Better::Lower => change,
    };
    let label = if def.scatter && before.spread().max(after.spread()) > def.bound {
        "unresolved"
    } else if worse > def.bound {
        "regressed"
    } else if -worse > def.bound {
        "improved"
    } else {
        "unchanged"
    };
    (label, change)
}

/// Applies each end-to-end metric's bound to two result documents, one row
/// per workload. A metric whose quartiles lie further apart than its bound
/// ([`Metric::spread`]), in either document, is `unresolved`: that run was
/// disturbed, and nothing can be said about it.
/// Returns `false` when anything regressed or is unresolved.
pub fn compare(before: &Path, after: &Path) -> Result<bool, String> {
    let (a, b) = (load(before)?, load(after)?);
    if a.seed != b.seed || a.smoke != b.smoke {
        eprintln!("warning: the two runs differ in seed or size; the comparison means little");
    }
    println!(
        "before: {} ({})\nafter:  {} ({})",
        before.display(),
        a.env.git_sha,
        after.display(),
        b.env.git_sha
    );
    let mut ok = true;
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.workload == wa.workload) else {
            println!("{:<16} missing from {}", wa.workload, after.display());
            ok = false;
            continue;
        };
        let mut row = format!("{:<16}", wa.workload);
        for def in END_TO_END {
            let find =
                |r: &WorkloadResult| r.end_to_end.iter().find(|m| m.name == def.name).cloned();
            let (Some(ma), Some(mb)) = (find(wa), find(wb)) else {
                row.push_str(&format!(" | {} missing", def.name));
                ok = false;
                continue;
            };
            let (label, change) = judge(&def, &ma, &mb);
            ok &= label != "regressed" && label != "unresolved";
            row.push_str(&format!(
                " | {} {label} ({:+.1}%, bound {:.0}%)",
                def.name,
                change * 100.0,
                def.bound * 100.0
            ));
        }
        if !(wa.correct && wb.correct) {
            row.push_str(" | INCORRECT");
            ok = false;
        }
        println!("{row}");
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate(samples: &[f64]) -> Metric {
        Metric::of("traces_per_s", "1/s", Better::Higher, samples)
    }

    #[test]
    fn judge_applies_the_bound_in_the_metric_direction() {
        let before = rate(&[98.0, 99.0, 100.0, 100.0]);
        let def = EndToEnd {
            bound: 0.10,
            ..END_TO_END[0]
        };
        let label = |after: &[f64]| judge(&def, &before, &rate(after)).0;
        assert_eq!(label(&[95.0, 96.0, 96.0, 96.0]), "unchanged");
        assert_eq!(label(&[85.0, 86.0, 86.0, 86.0]), "regressed");
        assert_eq!(label(&[115.0, 116.0, 116.0, 116.0]), "improved");
        // A run whose repetitions scatter more than the bound was disturbed.
        assert_eq!(label(&[60.0, 70.0, 80.0, 90.0, 100.0]), "unresolved");
    }
}

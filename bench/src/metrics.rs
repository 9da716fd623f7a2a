//! The metric catalogue (names, units, directions, regression bounds) and
//! the order statistics every reported number goes through.
//!
//! `BENCHMARK.json` at the root of the repository is this table printed by
//! `bench/run.sh --print-manifest`; regenerate it that way, never by hand.

use crate::inputs::WORKLOADS;
use crate::report::json_str;
use serde::{Deserialize, Serialize};

/// Seconds one driver run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A user-visible metric with the share of the parent's median by which it
/// may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound.
    pub bound: f64,
    /// Whether `--compare` reads the samples' scatter as a sign of a
    /// disturbed run. Not for `setup_s`: set-ups are few and, on the small
    /// inputs, tens of milliseconds long, so their scatter says little, and
    /// the driver does not judge it either.
    pub scatter: bool,
}

/// The four end-to-end metrics, reported for every workload.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "traces_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        scatter: true,
    },
    EndToEnd {
        name: "cpu_s_per_mtrace",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        scatter: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        scatter: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        scatter: false,
    },
];

use Better::{Higher, Lower};

/// Every per-layer metric: name, unit, direction. A metric of a layer that
/// is not on a workload's path reads 0 there.
pub const PER_LAYER: [(&str, &str, Better); 62] = [
    ("capture.encode_s", "s", Lower),
    ("capture.decode_s", "s", Lower),
    ("capture.bytes_per_trace", "B", Lower),
    ("preflight.observe_s", "s", Lower),
    ("preflight.diagnostics", "count", Lower),
    ("wire.encode_s", "s", Lower),
    ("wire.decode_s", "s", Lower),
    ("wire.bytes_per_trace", "B", Lower),
    ("wire.decode_errors", "count", Lower),
    ("pipeline.push_drain_s", "s", Lower),
    ("pipeline.channel_s", "s", Lower),
    ("pipeline.peak_buffered", "count", Lower),
    ("pipeline.late_dropped", "count", Lower),
    ("pipeline.shed", "count", Lower),
    ("verify.none_s", "s", Lower),
    ("verify.cr_s", "s", Lower),
    ("verify.me_s", "s", Lower),
    ("verify.fuw_s", "s", Lower),
    ("verify.no_sc_s", "s", Lower),
    ("verify.full_s", "s", Lower),
    ("verify.sc_marginal_s", "s", Lower),
    ("verify.gc_off_s", "s", Lower),
    ("verify.finish_s", "s", Lower),
    ("verify.committed", "count", Higher),
    ("verify.aborted", "count", Lower),
    ("verify.violations", "count", Lower),
    ("verify.deps_certain", "count", Higher),
    ("verify.deps_deduced", "count", Higher),
    ("verify.deps_uncertain", "count", Lower),
    ("verify.peak_state_bytes", "B", Lower),
    ("verify.peak_entries", "count", Lower),
    ("checkpoint.image_s", "s", Lower),
    ("checkpoint.encode_s", "s", Lower),
    ("checkpoint.write_s", "s", Lower),
    ("checkpoint.decode_s", "s", Lower),
    ("checkpoint.restore_s", "s", Lower),
    ("checkpoint.bytes", "B", Lower),
    ("checkpoint.count", "count", Lower),
    ("serve.nockpt_wall_s", "s", Lower),
    ("serve.checkpoint_share", "ratio", Lower),
    ("serve.tail_ms", "ms", Lower),
    ("serve.rejected", "count", Lower),
    ("serve.quarantined", "count", Lower),
    ("store.unconstrained_s", "s", Lower),
    ("store.slowdown", "ratio", Lower),
    ("store.spill_passes", "count", Lower),
    ("store.spilled_records", "count", Lower),
    ("store.spill_faults", "count", Lower),
    ("store.spill_fallbacks", "count", Lower),
    ("store.disk_bytes", "B", Lower),
    ("store.write_amp", "ratio", Lower),
    ("store.peak_over_budget", "ratio", Lower),
    ("budget.forced_gcs", "count", Lower),
    ("budget.forced_dispatches", "count", Lower),
    ("budget.evictions", "count", Lower),
    ("budget.shed_traces", "count", Lower),
    ("report.render_s", "s", Lower),
    ("obs.overhead_pct", "%", Lower),
    ("db.gen_txn_per_s", "1/s", Higher),
    ("db.live_txn_per_s", "1/s", Higher),
    ("pace_ratio", "ratio", Higher),
    ("trace.coverage", "ratio", Higher),
];

/// One reported number, summarising `n` samples.
///
/// The hosts this benchmark runs on change speed in steps: a spin loop takes
/// 0.23 s for some seconds, then 0.31 s for some more, on one virtual CPU or
/// both, as neighbours come and go. The disturbance only ever slows a
/// repetition down, and every repetition does the same work on the same
/// input, so `value` is the *best* sample: what the checker does when left
/// alone, which is what repeats from run to run. The median and quartiles
/// are kept beside it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The best sample: the reported value.
    pub value: f64,
    /// Median of the samples.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: u64,
}

impl Metric {
    /// Summarises samples of a metric that improves in direction `better`.
    pub fn of(name: &str, unit: &str, better: Better, samples: &[f64]) -> Metric {
        let (q1, median, q3) = quartiles(samples);
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value: best(better, samples),
            median,
            q1,
            q3,
            n: samples.len() as u64,
        }
    }

    /// How far the samples scatter: the distance between the quartiles as a
    /// share of the median. A run that was disturbed shows it here even when
    /// its best sample happens to look plausible.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// The best of `samples` in direction `better`.
pub fn best(better: Better, samples: &[f64]) -> f64 {
    let samples = samples.iter().copied();
    match better {
        Better::Higher => samples.fold(f64::MIN, f64::max),
        Better::Lower => samples.fold(f64::MAX, f64::min),
    }
}

/// Median of `samples` (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does, which is what the driver uses.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut x: Vec<f64> = samples.to_vec();
    x.sort_by(f64::total_cmp);
    match x.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (x[0], x[0], x[0]),
        n => {
            let cut = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.label()),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(name),
                json_str(unit),
                json_str(better.label())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"bench/run.sh\"],\n  \"paths\": [\"bench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn the_reported_value_is_the_best_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let rate = Metric::of("r", "1/s", Better::Higher, &v);
        assert_eq!((rate.value, rate.median), (10.0, 5.5));
        let cost = Metric::of("c", "s", Better::Lower, &v);
        assert_eq!((cost.value, cost.median), (1.0, 5.5));
        assert_eq!(cost.spread(), (8.25 - 2.75) / 5.5);
    }

    #[test]
    fn the_manifest_fits_the_driver_limits() {
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(WORKLOADS.iter().map(|w| w.name));
        let mut seen = std::collections::BTreeSet::new();
        for name in names {
            assert!(name.len() <= 64 && seen.insert(name), "{name}");
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128 && benchmark_manifest().len() < 64 * 1024);
    }
}

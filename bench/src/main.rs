//! `leopard-e2e`: the end-to-end benchmark of the Leopard checker.
//!
//! Four workloads, each measured against a fresh child process of the
//! product (`leopard verify`, `leopard serve`, or this binary's `worker`
//! mode for the library path), with wall time, CPU time and peak resident
//! set taken from `wait4` of that child alone. `bench/README.md` defines
//! the workloads and metrics; `bench/run.sh` builds and runs this binary.

mod inputs;
mod layers;
mod metrics;
mod proc;
mod report;
mod workloads;

use inputs::{Manifest, Workload, WORKLOADS};
use metrics::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::{Ctx, Prepared, Rep};

/// Repetitions a run never reports fewer than (one with `--smoke`).
const MIN_REPS: usize = 7;
/// How many times a run sets up; the fastest set-up is `setup_s`.
#[derive(Clone, Copy)]
struct Setups {
    at_least: usize,
    /// More set-ups follow until this many seconds have gone into them...
    seconds: f64,
    /// ...or this many are done.
    at_most: usize,
}

/// The small inputs set up in tens of milliseconds, where only many samples
/// are steady; the large ones take a second each.
const SETUPS: Setups = Setups {
    at_least: 5,
    seconds: 6.0,
    at_most: 25,
};
const ONCE: Setups = Setups {
    at_least: 1,
    seconds: 0.0,
    at_most: 1,
};

/// Everything one run of one workload produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// Every repetition's verdict equalled the reference.
    pub correct: bool,
    /// Traces offered to the checker, over all repetitions.
    pub ops_attempted: u64,
    /// Traces shed, quarantined or rejected, or all of a repetition's
    /// traces when its exit code or verdict differed from the reference.
    pub ops_failed: u64,
    /// The first mismatch, if any.
    pub error: Option<String>,
    /// Identity of the generated input.
    pub input: Manifest,
    /// End-to-end metrics (untraced repetitions).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub per_layer: Vec<Metric>,
}

/// Options shared by every mode that runs workloads.
struct Options {
    seed: u64,
    seconds: f64,
    smoke: bool,
    leopard: PathBuf,
    out_dir: PathBuf,
}

fn setup_checked(
    ctx: &Ctx,
    w: Workload,
    seed: u64,
    times: Setups,
) -> Result<(Prepared, Vec<f64>), String> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut prepared: Option<Prepared> = None;
    while setup_s.len() < times.at_least
        || (setup_s.len() < times.at_most && setup_s.iter().sum::<f64>() < times.seconds)
    {
        let next = workloads::setup(ctx, w, seed)?;
        setup_s.push(next.setup_s);
        // Determinism proof: every set-up of one seed yields the same bytes
        // and the same counts.
        if let Some(prev) = &prepared {
            if prev.manifest != next.manifest {
                return Err(format!(
                    "{}: seed {seed} generated two different inputs: {:?} vs {:?}",
                    w.name, prev.manifest, next.manifest
                ));
            }
        }
        prepared = Some(next);
    }
    Ok((prepared.ok_or("no set-up ran")?, setup_s))
}

/// Runs one workload: set-up, untraced repetitions for `seconds`, and the
/// staged replay when `traced`.
fn run_workload(
    opts: &Options,
    w: Workload,
    setups: Setups,
    traced: bool,
) -> Result<WorkloadResult, String> {
    let dir = opts.out_dir.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let ctx = Ctx {
        leopard: opts.leopard.clone(),
        launcher: proc::Launcher {
            bench: std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?,
            usage_file: dir.join("child.usage"),
        },
        dir: dir.clone(),
        smoke: opts.smoke,
    };
    let result = run_in(&ctx, opts, w, setups, traced);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(
    ctx: &Ctx,
    opts: &Options,
    w: Workload,
    setups: Setups,
    traced: bool,
) -> Result<WorkloadResult, String> {
    let (prep, setup_s) = setup_checked(ctx, w, opts.seed, setups)?;

    let min_reps = if opts.smoke { 1 } else { MIN_REPS };
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < min_reps || (!opts.smoke && Instant::now() < deadline) {
        let rep = workloads::run_rep(ctx, &prep)?;
        eprintln!(
            "{} rep {}: wall {:.4} s, cpu {:.4} s, rss {:.2} MiB{}",
            w.name,
            reps.len() + 1,
            rep.wall_s,
            rep.cpu_s,
            rep.rss_mb,
            rep.error
                .as_deref()
                .map_or(String::new(), |e| format!(", FAILED: {e}"))
        );
        reps.push(rep);
    }

    let samples = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let values = [
        samples(&|r| r.attempted as f64 / r.wall_s),
        samples(&|r| r.cpu_s / (r.attempted as f64 / 1e6)),
        samples(&|r| r.rss_mb),
        setup_s,
    ];
    let end_to_end = END_TO_END
        .iter()
        .zip(&values)
        .map(|(m, v)| Metric::of(m.name, m.unit, m.better, v))
        .collect();

    let mut per_layer = Vec::new();
    if traced {
        let (values, log) = layers::traced_run(ctx, &prep, &reps)?;
        if values.len() != PER_LAYER.len() {
            return Err(format!(
                "traced run measured {} metrics, the catalogue has {}",
                values.len(),
                PER_LAYER.len()
            ));
        }
        for (name, unit, better) in PER_LAYER {
            let (_, value) = values
                .iter()
                .find(|(got, _)| got == &name)
                .ok_or_else(|| format!("traced run did not measure {name}"))?;
            per_layer.push(Metric::of(name, unit, better, &[*value]));
        }
        let path = opts.out_dir.join(format!("trace-{}.json", w.name));
        let json = serde_json::to_string(&log).map_err(|e| e.to_string())?;
        std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    let error = reps.iter().find_map(|r| r.error.clone());
    Ok(WorkloadResult {
        workload: w.name.to_string(),
        correct: error.is_none(),
        ops_attempted: reps.iter().map(|r| r.attempted).sum(),
        ops_failed: reps.iter().map(|r| r.failed).sum(),
        error,
        input: prep.manifest,
        end_to_end,
        per_layer,
    })
}

/// The driver's contract: one workload, human-readable metrics first, then
/// one JSON object as the last line of standard output.
fn driver_run(opts: &Options, name: &str, traced: bool) -> Result<bool, String> {
    let w = Workload::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    report::Env::capture().print();
    // The traced run reports no `setup_s`, so it sets up once.
    let setups = if traced || opts.smoke { ONCE } else { SETUPS };
    let result = run_workload(opts, w, setups, traced)?;
    println!("{:<16} input {:?}", result.workload, result.input);
    let shown = if traced {
        &result.per_layer
    } else {
        &result.end_to_end
    };
    report::print_metrics(&result.workload, shown);
    if let Some(e) = &result.error {
        eprintln!("{}: INCORRECT: {e}", result.workload);
    }
    let metrics: Vec<String> = shown
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                report::json_str(&m.name),
                report::json_num(m.value),
                report::json_str(&m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.ops_attempted,
        result.ops_failed,
        metrics.join(", ")
    );
    Ok(result.correct)
}

/// Every workload untraced then traced, all metrics printed by name, and
/// one JSON document for `--compare`.
fn suite(opts: &Options, out: Option<&Path>) -> Result<bool, String> {
    let env = report::Env::capture();
    env.print();
    let mut results = Vec::new();
    for w in WORKLOADS {
        // One run serves both: the repetitions are measured with tracing
        // off, and the staged replay starts only after the last of them.
        let setups = if opts.smoke { ONCE } else { SETUPS };
        let result = run_workload(opts, w, setups, true)?;
        report::print_metrics(&result.workload, &result.end_to_end);
        report::print_metrics(&result.workload, &result.per_layer);
        println!(
            "{:<16} ops_attempted {} ops_failed {} correct {}",
            result.workload, result.ops_attempted, result.ops_failed, result.correct
        );
        if let Some(e) = &result.error {
            eprintln!("{}: INCORRECT: {e}", result.workload);
        }
        results.push(result);
    }
    let correct = results.iter().all(|r| r.correct);
    let doc = report::SuiteDoc {
        schema: 1,
        seed: opts.seed,
        smoke: opts.smoke,
        env,
        workloads: results,
    };
    let json = serde_json::to_string(&doc).map_err(|e| e.to_string())?;
    match out {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("write {}: {e}", path.display()))?;
            println!("results written to {}", path.display());
        }
        None => println!("{json}"),
    }
    Ok(correct)
}

fn usage() -> String {
    "usage: bench/run.sh [--seed N] [--smoke] [--out FILE]          run every workload, traced\n       \
     bench/run.sh --workload NAME --seed N --seconds S --trace 0|1   one driver run\n       \
     bench/run.sh --compare A.json B.json                        apply the bounds to two results\n       \
     bench/run.sh --print-manifest                               print BENCHMARK.json"
        .to_string()
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse `{value}`"))
}

fn real_main() -> Result<bool, String> {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("launch") {
        args.next();
        let usage_file: PathBuf = parse("launch <usage-file>", args.next())?;
        let program: String = parse("launch <program>", args.next())?;
        let rest: Vec<String> = args.collect();
        return proc::launch(&usage_file, &program, &rest).map(|()| true);
    }
    if args.peek().map(String::as_str) == Some("worker") {
        args.next();
        let frames: PathBuf = parse("worker <frames>", args.next())?;
        let clients = parse("worker <clients>", args.next())?;
        let skew = parse("worker <skew>", args.next())?;
        return workloads::worker(&frames, clients, skew).map(|()| true);
    }

    let own_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    let mut opts = Options {
        seed: 42,
        seconds: RUN_SECONDS as f64,
        smoke: false,
        leopard: own_dir.join("leopard"),
        out_dir: PathBuf::from("bench/out"),
    };
    let mut workload = None;
    let mut traced = false;
    let mut out = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => workload = Some(parse::<String>(&flag, args.next())?),
            "--seed" => opts.seed = parse(&flag, args.next())?,
            "--seconds" => opts.seconds = parse(&flag, args.next())?,
            "--trace" => traced = parse::<u8>(&flag, args.next())? != 0,
            "--smoke" => opts.smoke = true,
            "--out" => out = Some(parse::<PathBuf>(&flag, args.next())?),
            "--leopard" => opts.leopard = parse(&flag, args.next())?,
            "--out-dir" => opts.out_dir = parse(&flag, args.next())?,
            "--compare" => {
                let a: PathBuf = parse(&flag, args.next())?;
                let b: PathBuf = parse(&flag, args.next())?;
                return report::compare(&a, &b);
            }
            "--print-manifest" => {
                print!("{}", metrics::benchmark_manifest());
                return Ok(true);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(true);
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if !opts.leopard.is_file() {
        return Err(format!(
            "no leopard binary at {} (bench/run.sh builds it)",
            opts.leopard.display()
        ));
    }
    match workload {
        Some(name) => driver_run(&opts, &name, traced),
        None => suite(&opts, out.as_deref()),
    }
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

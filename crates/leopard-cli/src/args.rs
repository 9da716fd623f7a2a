//! Hand-rolled argument parsing for the `leopard` CLI.

use leopard_core::{EngineOpts, IsolationLevel, MemBudget, SpillSettings, VerifierConfig};
use leopard_db::FaultKind;
use std::fmt;
use std::path::PathBuf;

/// Usage text.
pub const USAGE: &str = "\
leopard — black-box isolation-level verification

USAGE:
  leopard record [OPTIONS]          run a workload, write a capture file
  leopard verify <FILE> [OPTS]      audit a capture file
  leopard chaos [OPTIONS]           run a workload under fault injection
                                    through the online verifier
  leopard lint-history <FILE> [OPTS]  preflight a capture file (H001-H006)
  leopard oracle [OPTIONS]          run the anomaly-injection verdict matrix
  leopard serve [OPTIONS]           run the verification daemon (many
                                    concurrent streams over the wire protocol)
  leopard ingest <FILE> [OPTS]      stream a capture file into a daemon
  leopard soak [OPTIONS]            chaos-soak a daemon with wire clients
  leopard catalog                   print the DBMS mechanism catalog (Fig. 1)
  leopard help                      show this message

record options:
  --workload <smallbank|tpcc|ycsb|blindw-w|blindw-rw|blindw-rw+>  (default smallbank)
  --level <rc|rr|si|sr>         isolation level of the engine (default sr)
  --threads <N>                 client threads (default 4)
  --txns <N>                    transactions per client (default 500)
  --scale <N>                   workload scale factor (default 1)
  --fault <dirty-read|stale-snapshot|skip-lock|lost-update|skip-certifier>
  --fault-prob <0..1>           fault probability (default 0.05)
  --seed <N>                    RNG seed (default 42)
  --out <FILE>                  capture path (default capture.jsonl)

verify options:
  --level <rc|rr|si|sr>         level the DBMS promised (default sr)
  --skew-bound <NANOS>          clock synchronisation error bound (default 0)
  --no-gc                       disable verifier garbage collection
  --skip-preflight              verify even if history preflight finds errors
  --degraded                    tolerate incomplete histories: quarantine
                                ill-formed traces, demote unexplainable reads
  --resume <CKPT>               resume from a checkpoint image (refused unless
                                the flags give the configuration it was
                                written under)
  --checkpoint <FILE>           write a checkpoint of the final state here
  --checkpoint-every <N>        also checkpoint every N ingested traces
  --mem-budget <BYTES>          cap verifier state; over budget the verifier
                                forces GC and sheds into degraded coverage
  --spill-dir <DIR>             spill cold verifier state to segment files
                                under DIR when over --mem-budget (rung 1.5:
                                runs before forced dispatch and eviction, so
                                coverage is never degraded by spilling)
  --json                        emit the verdict, peak memory and shed /
                                eviction counters as JSON (plus an `obs`
                                metrics block when observability is on)
  --metrics-out <FILE>          enable observability; write the metrics
                                registry in Prometheus text format here

chaos options:
  --workload <NAME>             bundled workload (default blindw-rw)
  --level <rc|rr|si|sr>         engine + verifier isolation level (default sr)
  --threads <N>                 client threads (default 4)
  --txns <N>                    transactions per client (default 200)
  --scale <N>                   workload scale factor (default 1)
  --seed <N>                    workload RNG seed (default 42)
  --chaos-seed <N>              fault-injection seed (default 7)
  --kill-prob <0..1>            kill client mid-txn, no terminal (default 0.05)
  --stall-prob <0..1>           stall client mid-txn (default 0.05)
  --stall-ms <MS>               stall duration (default 3)
  --drop-prob <0..1>            drop a trace delivery (default 0.02)
  --dup-prob <0..1>             duplicate a trace delivery (default 0.02)
  --skew-burst-prob <0..1>      clock skew burst probability (default 0)
  --skew-magnitude <NANOS>      skew added per burst (default 0)
  --retry-attempts <N>          attempts per transaction (default 3)
  --retry-backoff-ms <MS>       base exponential backoff (default 1)
  --retry-jitter <0..1>         jitter fraction around each backoff sleep,
                                decorrelating retry storms (default 0)
  --evict-timeout-ms <MS>       evict a watermark-pinning client after this
                                long without progress (default 1000)
  --checkpoint <FILE>           write online checkpoints to this path
  --checkpoint-every <N>        checkpoint every N dispatched traces
  --mem-budget <BYTES>          cap tracer + verifier memory; over budget the
                                governor forces GC, force-dispatches, then
                                evicts the laggiest client
  --spill-dir <DIR>             spill cold verifier state to segment files
                                under DIR when over --mem-budget
  --disk-fault-prob <0..1>      inject seeded disk faults (short/torn writes,
                                read errors, fsync failures) into the spill
                                tier with this probability (default 0)
  --disk-enospc-after <BYTES>   spill tier hits ENOSPC after this many bytes
                                (default: unlimited disk)
  --json                        emit the run summary as JSON (plus an `obs`
                                metrics block when observability is on)
  --metrics-out <FILE>          enable observability; write Prometheus
                                metrics here at the end of the run

lint-history options:
  --json                        emit the diagnostic report as JSON

oracle options:
  --workload <NAME>             clean-run workload (default blindw-rw)
  --rows <N>                    preloaded rows of the clean run (default 32)
  --clients <N>                 clients of the clean run (default 2)
  --txns <N>                    transactions per client (default 8)
  --seed <N>                    clean-run RNG seed (default 42)
  --json                        emit the verdict matrix as JSON
  --out-dir <DIR>               also write the corpus (captures + matrix.json)

serve options:
  --listen <unix:PATH|tcp:ADDR> ingest endpoint (default unix:leopard.sock)
  --control <unix:PATH|tcp:ADDR> control endpoint: `metrics`, `streams`,
                                `drain`, `shutdown`, plus HTTP GET /metrics
                                for a Prometheus scraper (optional)
  --dir <DIR>                   per-stream checkpoint + verdict directory;
                                scanned on startup for crash recovery
                                (default leopard-serve)
  --checkpoint-every <N>        make the cursor durable every N ingested traces
                                per stream: journal the frames, write a full
                                image once the journal is as large as the
                                last one (default 512)
  --global-budget <BYTES>       shared admission pool across all streams
                                (default unlimited)
  --spill-dir <DIR>             spill cold stream state to per-stream segment
                                files under DIR when over a stream's budget

ingest options:
  --to <unix:PATH|tcp:ADDR>     daemon ingest endpoint
                                (default unix:leopard.sock)
  --stream <NAME>               stream name at the daemon (default: the
                                capture file name)
  --level <rc|rr|si|sr>         level to verify (default sr)
  --mem-budget <BYTES>          per-stream budget sent in the handshake
  --json                        print the daemon's verdict JSON verbatim

soak options:
  --to <unix:PATH|tcp:ADDR>     daemon ingest endpoint
                                (default unix:leopard.sock)
  --streams <N>                 concurrent client streams (default 4)
  --workload <NAME>             history workload per stream (default smallbank)
  --txns <N>                    transactions per workload client (default 50)
  --clients <N>                 workload clients per stream (default 3)
  --level <rc|rr|si|sr>         level to verify (default sr)
  --seed <N>                    master seed (default 1)
  --kill-prob <0..1>            cut the connection per frame (default 0.02)
  --dup-prob <0..1>             duplicate a frame (default 0.05)
  --stall-prob <0..1>           stall before a frame (default 0)
  --stall-ms <MS>               stall duration (default 3)
  --retry-attempts <N>          reconnect attempts before giving up on a
                                stream (default 200)
  --retry-backoff-ms <MS>       base reconnect backoff (default 5)
  --retry-jitter <0..1>         reconnect backoff jitter (default 0.5)

exit codes: 0 clean, 1 i/o error, 2 usage error, 3 violations /
preflight errors found, 4 verify refused (history failed preflight);
interrupted runs (SIGINT/SIGTERM) flush checkpoints and exit 130";

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `leopard record ...`
    Record(RecordConfig),
    /// `leopard verify ...`
    Verify(VerifyConfig),
    /// `leopard chaos ...`
    Chaos(ChaosConfig),
    /// `leopard lint-history ...`
    LintHistory(LintHistoryConfig),
    /// `leopard oracle ...`
    Oracle(OracleConfig),
    /// `leopard serve ...`
    Serve(ServeCliConfig),
    /// `leopard ingest ...`
    Ingest(IngestConfig),
    /// `leopard soak ...`
    Soak(SoakCliConfig),
    /// `leopard catalog`
    Catalog,
    /// `leopard help`
    Help,
}

/// Configuration of `leopard serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCliConfig {
    /// Ingest endpoint (`unix:<path>` or `tcp:<host:port>`).
    pub listen: String,
    /// Optional control/metrics endpoint.
    pub control: Option<String>,
    /// Checkpoint + verdict directory.
    pub dir: String,
    /// Shared admission pool in bytes (0 = unlimited).
    pub global_budget: u64,
    /// Engine flags ([`ENGINE_FLAGS`]): the per-stream durability cadence
    /// and the spill directory for cold stream state.
    pub engine: EngineArgs,
}

impl Default for ServeCliConfig {
    fn default() -> Self {
        ServeCliConfig {
            listen: "unix:leopard.sock".to_string(),
            control: None,
            dir: "leopard-serve".to_string(),
            global_budget: 0,
            engine: EngineArgs {
                checkpoint_every: Some(512),
                ..EngineArgs::default()
            },
        }
    }
}

/// Configuration of `leopard ingest`.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestConfig {
    /// Capture file to stream.
    pub file: String,
    /// Daemon ingest endpoint.
    pub to: String,
    /// Stream name (`None` = the capture file name).
    pub stream: Option<String>,
    /// Engine flags ([`ENGINE_FLAGS`]): the level and per-stream memory
    /// budget the handshake carries.
    pub engine: EngineArgs,
    /// Print the verdict JSON verbatim.
    pub json: bool,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            file: String::new(),
            to: "unix:leopard.sock".to_string(),
            stream: None,
            engine: EngineArgs::default(),
            json: false,
        }
    }
}

/// Configuration of `leopard soak`.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakCliConfig {
    /// Daemon ingest endpoint.
    pub to: String,
    /// Concurrent client streams.
    pub streams: usize,
    /// History workload per stream.
    pub workload: String,
    /// Transactions per workload client.
    pub txns: u64,
    /// Workload clients per stream.
    pub clients: usize,
    /// Isolation level to verify.
    pub level: IsolationLevel,
    /// Master seed.
    pub seed: u64,
    /// Per-frame connection-cut probability.
    pub kill_prob: f64,
    /// Per-frame duplication probability.
    pub dup_prob: f64,
    /// Per-frame stall probability.
    pub stall_prob: f64,
    /// Stall duration in milliseconds.
    pub stall_ms: u64,
    /// Reconnect attempts before giving up on a stream.
    pub retry_attempts: u32,
    /// Base reconnect backoff in milliseconds.
    pub retry_backoff_ms: u64,
    /// Reconnect backoff jitter fraction.
    pub retry_jitter: f64,
}

impl Default for SoakCliConfig {
    fn default() -> Self {
        SoakCliConfig {
            to: "unix:leopard.sock".to_string(),
            streams: 4,
            workload: "smallbank".to_string(),
            txns: 50,
            clients: 3,
            level: IsolationLevel::Serializable,
            seed: 1,
            kill_prob: 0.02,
            dup_prob: 0.05,
            stall_prob: 0.0,
            stall_ms: 3,
            retry_attempts: 200,
            retry_backoff_ms: 5,
            retry_jitter: 0.5,
        }
    }
}

/// Configuration of `leopard record`.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordConfig {
    /// Workload name.
    pub workload: String,
    /// Engine isolation level.
    pub level: IsolationLevel,
    /// Client threads.
    pub threads: usize,
    /// Transactions per client.
    pub txns: u64,
    /// Scale factor (accounts ×1000, warehouses, records ×1000, ...).
    pub scale: u64,
    /// Injected fault, if any.
    pub fault: Option<FaultKind>,
    /// Fault probability.
    pub fault_prob: f64,
    /// RNG seed.
    pub seed: u64,
    /// Output capture path.
    pub out: String,
}

impl Default for RecordConfig {
    fn default() -> Self {
        RecordConfig {
            workload: "smallbank".to_string(),
            level: IsolationLevel::Serializable,
            threads: 4,
            txns: 500,
            scale: 1,
            fault: None,
            fault_prob: 0.05,
            seed: 42,
            out: "capture.jsonl".to_string(),
        }
    }
}

/// The engine flag group: every option of the verifier engine and of its
/// metrics sink, declared ([`ENGINE_FLAGS`]), parsed and validated
/// once for every subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineArgs {
    /// The isolation level to verify.
    pub level: IsolationLevel,
    /// Clock-skew bound (ns).
    pub skew_bound: u64,
    /// Disable garbage collection (keeps everything; for debugging).
    pub no_gc: bool,
    /// Quarantine ill-formed traces and demote reads that a missing
    /// delivery could explain instead of reporting them.
    pub degraded: bool,
    /// Write the checkpoint image to this path.
    pub checkpoint: Option<String>,
    /// Also write it every N ingested traces.
    pub checkpoint_every: Option<u64>,
    /// Memory budget in bytes (`None` = unlimited).
    pub mem_budget: Option<u64>,
    /// Spill directory for cold verifier state (`None` = in-memory only).
    pub spill_dir: Option<String>,
    /// Enable observability and write Prometheus metrics to this path.
    pub metrics_out: Option<String>,
}

impl Default for EngineArgs {
    fn default() -> Self {
        EngineArgs {
            level: IsolationLevel::Serializable,
            skew_bound: 0,
            no_gc: false,
            degraded: false,
            checkpoint: None,
            checkpoint_every: None,
            mem_budget: None,
            spill_dir: None,
            metrics_out: None,
        }
    }
}

/// Every engine flag, and the subcommands that accept it. `chaos` runs
/// degraded, under the skew bound its plan needs; the rest of a `serve`
/// stream's engine comes from its handshake, which is what `ingest`'s two
/// flags fill in.
const ENGINE_FLAGS: [(&str, &str); 9] = [
    ("--level", "verify chaos ingest"),
    ("--skew-bound", "verify"),
    ("--no-gc", "verify"),
    ("--degraded", "verify"),
    ("--checkpoint", "verify chaos"),
    ("--checkpoint-every", "verify chaos serve"),
    ("--mem-budget", "verify chaos ingest"),
    ("--spill-dir", "verify chaos serve"),
    ("--metrics-out", "verify chaos"),
];

/// `true` when subcommand `sub` accepts engine flag `flag`.
fn accepts(sub: &str, flag: &str) -> bool {
    ENGINE_FLAGS
        .iter()
        .any(|(f, subs)| *f == flag && subs.split(' ').any(|s| s == sub))
}

impl EngineArgs {
    /// Consumes `flag` and its value if subcommand `sub` accepts it as an
    /// engine flag; `false` leaves it to the subcommand's own flags.
    fn take<'a>(
        &mut self,
        sub: &str,
        flag: &str,
        it: &mut impl Iterator<Item = &'a String>,
    ) -> Result<bool, ParseError> {
        if !accepts(sub, flag) {
            return Ok(false);
        }
        match flag {
            "--level" => self.level = parse_level(&want::<String>(flag, it.next())?)?,
            "--skew-bound" => self.skew_bound = want(flag, it.next())?,
            "--no-gc" => self.no_gc = true,
            "--degraded" => self.degraded = true,
            "--checkpoint" => self.checkpoint = Some(want(flag, it.next())?),
            "--checkpoint-every" => self.checkpoint_every = Some(want(flag, it.next())?),
            "--mem-budget" => self.mem_budget = Some(want(flag, it.next())?),
            "--spill-dir" => self.spill_dir = Some(want(flag, it.next())?),
            "--metrics-out" => self.metrics_out = Some(want(flag, it.next())?),
            other => unreachable!("`{other}` is in ENGINE_FLAGS but is not parsed"),
        }
        Ok(true)
    }

    /// The rules between the flags, for subcommand `sub`.
    fn validate(&self, sub: &str) -> Result<(), ParseError> {
        let fail = |message: &str| Err(ParseError(message.to_string()));
        if self.checkpoint_every == Some(0) {
            return fail("--checkpoint-every must be at least 1");
        }
        // Where the image's place is not a flag (serve: `--dir`), the
        // cadence stands alone.
        if self.checkpoint_every.is_some()
            && self.checkpoint.is_none()
            && accepts(sub, "--checkpoint")
        {
            return fail("--checkpoint-every needs --checkpoint <FILE>");
        }
        // A zero budget would shed everything; reject it loudly.
        if self.mem_budget == Some(0) {
            return fail("--mem-budget must be at least 1 byte");
        }
        Ok(())
    }

    /// The engine these flags ask for.
    #[must_use]
    pub fn to_opts(&self) -> EngineOpts {
        let mut verifier = VerifierConfig::for_level(self.level);
        verifier.clock_skew_bound = self.skew_bound;
        verifier.gc = !self.no_gc;
        verifier.degraded = self.degraded;
        if let Some(bytes) = self.mem_budget {
            verifier.mem_budget = MemBudget::bytes(bytes);
        }
        EngineOpts {
            verifier,
            spill: self.spill_dir.as_ref().map(SpillSettings::new),
            checkpoint: self.checkpoint.as_ref().map(PathBuf::from),
            checkpoint_every: self.checkpoint_every,
        }
    }
}

/// Configuration of `leopard verify`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VerifyConfig {
    /// Capture file to audit.
    pub file: String,
    /// Run the verifier even when history preflight reports errors.
    pub skip_preflight: bool,
    /// Resume verification from this checkpoint image.
    pub resume: Option<String>,
    /// Emit the verdict and resource counters as JSON.
    pub json: bool,
    /// Engine flags ([`ENGINE_FLAGS`]); `level` is the isolation level
    /// the DBMS promised.
    pub engine: EngineArgs,
}

/// Configuration of `leopard chaos`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Workload name.
    pub workload: String,
    /// Client threads.
    pub threads: usize,
    /// Transactions per client.
    pub txns: u64,
    /// Workload scale factor.
    pub scale: u64,
    /// Workload RNG seed.
    pub seed: u64,
    /// Fault-injection seed (chaos plan).
    pub chaos_seed: u64,
    /// Probability a transaction's client is killed mid-transaction.
    pub kill_prob: f64,
    /// Probability a client stalls mid-transaction.
    pub stall_prob: f64,
    /// Stall duration in milliseconds.
    pub stall_ms: u64,
    /// Probability a trace delivery is dropped.
    pub drop_prob: f64,
    /// Probability a trace delivery is duplicated.
    pub dup_prob: f64,
    /// Probability a clock reading triggers a skew burst.
    pub skew_burst_prob: f64,
    /// Nanoseconds added per skew burst.
    pub skew_magnitude: u64,
    /// Attempts per transaction (1 = no retry).
    pub retry_attempts: u32,
    /// Base exponential backoff in milliseconds.
    pub retry_backoff_ms: u64,
    /// Jitter fraction around each backoff sleep (0 = deterministic).
    pub retry_jitter: f64,
    /// Watermark-stall eviction timeout in milliseconds.
    pub evict_timeout_ms: u64,
    /// Probability of each seeded disk fault in the spill tier.
    pub disk_fault_prob: f64,
    /// Spill tier ENOSPC threshold in bytes (`None` = unlimited disk).
    pub disk_enospc_after: Option<u64>,
    /// Emit the run summary as JSON.
    pub json: bool,
    /// Engine flags ([`ENGINE_FLAGS`]); `level` is the engine's and the
    /// verifier's isolation level, `checkpoint_every` counts dispatched
    /// traces.
    pub engine: EngineArgs,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            workload: "blindw-rw".to_string(),
            threads: 4,
            txns: 200,
            scale: 1,
            seed: 42,
            chaos_seed: 7,
            kill_prob: 0.05,
            stall_prob: 0.05,
            stall_ms: 3,
            drop_prob: 0.02,
            dup_prob: 0.02,
            skew_burst_prob: 0.0,
            skew_magnitude: 0,
            retry_attempts: 3,
            retry_backoff_ms: 1,
            retry_jitter: 0.0,
            evict_timeout_ms: 1000,
            disk_fault_prob: 0.0,
            disk_enospc_after: None,
            json: false,
            engine: EngineArgs::default(),
        }
    }
}

/// Configuration of `leopard lint-history`.
#[derive(Debug, Clone, PartialEq)]
pub struct LintHistoryConfig {
    /// Capture file to analyze.
    pub file: String,
    /// Emit the report as JSON instead of human-readable text.
    pub json: bool,
}

/// Configuration of `leopard oracle`.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleConfig {
    /// Workload of the clean base capture.
    pub workload: String,
    /// Preloaded rows of the clean run.
    pub rows: u64,
    /// Clients of the clean run.
    pub clients: usize,
    /// Transactions per client.
    pub txns: u64,
    /// Clean-run RNG seed.
    pub seed: u64,
    /// Emit the verdict matrix as JSON instead of the table.
    pub json: bool,
    /// Also write the corpus (mutated captures + matrix.json + manifest)
    /// into this directory.
    pub out_dir: Option<String>,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            workload: "blindw-rw".to_string(),
            rows: 32,
            clients: 2,
            txns: 8,
            seed: 42,
            json: false,
            out_dir: None,
        }
    }
}

/// Parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

fn parse_level(s: &str) -> Result<IsolationLevel, ParseError> {
    match s.to_ascii_lowercase().as_str() {
        "rc" | "read-committed" => Ok(IsolationLevel::ReadCommitted),
        "rr" | "repeatable-read" => Ok(IsolationLevel::RepeatableRead),
        "si" | "snapshot-isolation" => Ok(IsolationLevel::SnapshotIsolation),
        "sr" | "serializable" => Ok(IsolationLevel::Serializable),
        other => Err(ParseError(format!("unknown isolation level `{other}`"))),
    }
}

fn parse_fault(s: &str) -> Result<FaultKind, ParseError> {
    match s.to_ascii_lowercase().as_str() {
        "dirty-read" => Ok(FaultKind::DirtyRead),
        "stale-snapshot" => Ok(FaultKind::StaleSnapshot),
        "skip-lock" => Ok(FaultKind::SkipLock),
        "lost-update" => Ok(FaultKind::AllowLostUpdate),
        "skip-certifier" => Ok(FaultKind::SkipCertifier),
        "first-write-no-lock" => Ok(FaultKind::FirstWriteNoLock),
        "phantom-extra-version" => Ok(FaultKind::PhantomExtraVersion),
        other => Err(ParseError(format!("unknown fault `{other}`"))),
    }
}

fn want<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, ParseError> {
    let v = value.ok_or_else(|| ParseError(format!("{flag} needs a value")))?;
    v.parse()
        .map_err(|_| ParseError(format!("invalid value `{v}` for {flag}")))
}

/// Parses `argv` (without the program name).
pub fn parse_args(argv: &[String]) -> Result<Command, ParseError> {
    let Some(cmd) = argv.first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "catalog" => Ok(Command::Catalog),
        "record" => {
            let mut cfg = RecordConfig::default();
            let mut it = argv[1..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--workload" => {
                        cfg.workload = want::<String>(flag, it.next())?;
                    }
                    "--level" => cfg.level = parse_level(&want::<String>(flag, it.next())?)?,
                    "--threads" => cfg.threads = want(flag, it.next())?,
                    "--txns" => cfg.txns = want(flag, it.next())?,
                    "--scale" => cfg.scale = want(flag, it.next())?,
                    "--fault" => cfg.fault = Some(parse_fault(&want::<String>(flag, it.next())?)?),
                    "--fault-prob" => cfg.fault_prob = want(flag, it.next())?,
                    "--seed" => cfg.seed = want(flag, it.next())?,
                    "--out" => cfg.out = want::<String>(flag, it.next())?,
                    other => return Err(ParseError(format!("unknown flag `{other}`"))),
                }
            }
            if cfg.threads == 0 {
                return Err(ParseError("--threads must be at least 1".to_string()));
            }
            Ok(Command::Record(cfg))
        }
        "verify" => {
            let mut file = None;
            let mut cfg = VerifyConfig::default();
            let mut it = argv[1..].iter();
            while let Some(arg) = it.next() {
                if cfg.engine.take("verify", arg, &mut it)? {
                    continue;
                }
                match arg.as_str() {
                    "--skip-preflight" => cfg.skip_preflight = true,
                    "--resume" => cfg.resume = Some(want::<String>(arg, it.next())?),
                    "--json" => cfg.json = true,
                    flag if flag.starts_with("--") => {
                        return Err(ParseError(format!("unknown flag `{flag}`")))
                    }
                    path => {
                        if file.replace(path.to_string()).is_some() {
                            return Err(ParseError("more than one capture file given".into()));
                        }
                    }
                }
            }
            cfg.file = file.ok_or_else(|| ParseError("verify needs a capture file".into()))?;
            cfg.engine.validate("verify")?;
            Ok(Command::Verify(cfg))
        }
        "chaos" => {
            let mut cfg = ChaosConfig::default();
            let mut it = argv[1..].iter();
            while let Some(flag) = it.next() {
                if cfg.engine.take("chaos", flag, &mut it)? {
                    continue;
                }
                match flag.as_str() {
                    "--workload" => cfg.workload = want::<String>(flag, it.next())?,
                    "--threads" => cfg.threads = want(flag, it.next())?,
                    "--txns" => cfg.txns = want(flag, it.next())?,
                    "--scale" => cfg.scale = want(flag, it.next())?,
                    "--seed" => cfg.seed = want(flag, it.next())?,
                    "--chaos-seed" => cfg.chaos_seed = want(flag, it.next())?,
                    "--kill-prob" => cfg.kill_prob = want(flag, it.next())?,
                    "--stall-prob" => cfg.stall_prob = want(flag, it.next())?,
                    "--stall-ms" => cfg.stall_ms = want(flag, it.next())?,
                    "--drop-prob" => cfg.drop_prob = want(flag, it.next())?,
                    "--dup-prob" => cfg.dup_prob = want(flag, it.next())?,
                    "--skew-burst-prob" => cfg.skew_burst_prob = want(flag, it.next())?,
                    "--skew-magnitude" => cfg.skew_magnitude = want(flag, it.next())?,
                    "--retry-attempts" => cfg.retry_attempts = want(flag, it.next())?,
                    "--retry-backoff-ms" => cfg.retry_backoff_ms = want(flag, it.next())?,
                    "--retry-jitter" => cfg.retry_jitter = want(flag, it.next())?,
                    "--evict-timeout-ms" => cfg.evict_timeout_ms = want(flag, it.next())?,
                    "--disk-fault-prob" => cfg.disk_fault_prob = want(flag, it.next())?,
                    "--disk-enospc-after" => cfg.disk_enospc_after = Some(want(flag, it.next())?),
                    "--json" => cfg.json = true,
                    other => return Err(ParseError(format!("unknown flag `{other}`"))),
                }
            }
            if cfg.threads == 0 {
                return Err(ParseError("--threads must be at least 1".to_string()));
            }
            cfg.engine.validate("chaos")?;
            for (name, p) in [
                ("--kill-prob", cfg.kill_prob),
                ("--stall-prob", cfg.stall_prob),
                ("--drop-prob", cfg.drop_prob),
                ("--dup-prob", cfg.dup_prob),
                ("--skew-burst-prob", cfg.skew_burst_prob),
                ("--retry-jitter", cfg.retry_jitter),
                ("--disk-fault-prob", cfg.disk_fault_prob),
            ] {
                if !(0.0..=1.0).contains(&p) {
                    return Err(ParseError(format!("{name} must be within 0..1")));
                }
            }
            if (cfg.disk_fault_prob > 0.0 || cfg.disk_enospc_after.is_some())
                && cfg.engine.spill_dir.is_none()
            {
                return Err(ParseError(
                    "--disk-fault-prob/--disk-enospc-after need --spill-dir <DIR>".into(),
                ));
            }
            Ok(Command::Chaos(cfg))
        }
        "lint-history" => {
            let mut file = None;
            let mut json = false;
            let mut it = argv[1..].iter();
            for arg in &mut it {
                match arg.as_str() {
                    "--json" => json = true,
                    flag if flag.starts_with("--") => {
                        return Err(ParseError(format!("unknown flag `{flag}`")))
                    }
                    path => {
                        if file.replace(path.to_string()).is_some() {
                            return Err(ParseError("more than one capture file given".into()));
                        }
                    }
                }
            }
            let file =
                file.ok_or_else(|| ParseError("lint-history needs a capture file".into()))?;
            Ok(Command::LintHistory(LintHistoryConfig { file, json }))
        }
        "serve" => {
            let mut cfg = ServeCliConfig::default();
            let mut it = argv[1..].iter();
            while let Some(flag) = it.next() {
                if cfg.engine.take("serve", flag, &mut it)? {
                    continue;
                }
                match flag.as_str() {
                    "--listen" => cfg.listen = want::<String>(flag, it.next())?,
                    "--control" => cfg.control = Some(want::<String>(flag, it.next())?),
                    "--dir" => cfg.dir = want::<String>(flag, it.next())?,
                    "--global-budget" => cfg.global_budget = want(flag, it.next())?,
                    other => return Err(ParseError(format!("unknown flag `{other}`"))),
                }
            }
            cfg.engine.validate("serve")?;
            for ep in std::iter::once(&cfg.listen).chain(cfg.control.as_ref()) {
                if let Err(e) = leopard_core::Endpoint::parse(ep) {
                    return Err(ParseError(e));
                }
            }
            Ok(Command::Serve(cfg))
        }
        "ingest" => {
            let mut file = None;
            let mut cfg = IngestConfig::default();
            let mut it = argv[1..].iter();
            while let Some(arg) = it.next() {
                if cfg.engine.take("ingest", arg, &mut it)? {
                    continue;
                }
                match arg.as_str() {
                    "--to" => cfg.to = want::<String>(arg, it.next())?,
                    "--stream" => cfg.stream = Some(want::<String>(arg, it.next())?),
                    "--json" => cfg.json = true,
                    flag if flag.starts_with("--") => {
                        return Err(ParseError(format!("unknown flag `{flag}`")))
                    }
                    path => {
                        if file.replace(path.to_string()).is_some() {
                            return Err(ParseError("more than one capture file given".into()));
                        }
                    }
                }
            }
            cfg.file = file.ok_or_else(|| ParseError("ingest needs a capture file".into()))?;
            cfg.engine.validate("ingest")?;
            if let Err(e) = leopard_core::Endpoint::parse(&cfg.to) {
                return Err(ParseError(e));
            }
            Ok(Command::Ingest(cfg))
        }
        "soak" => {
            let mut cfg = SoakCliConfig::default();
            let mut it = argv[1..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--to" => cfg.to = want::<String>(flag, it.next())?,
                    "--streams" => cfg.streams = want(flag, it.next())?,
                    "--workload" => cfg.workload = want::<String>(flag, it.next())?,
                    "--txns" => cfg.txns = want(flag, it.next())?,
                    "--clients" => cfg.clients = want(flag, it.next())?,
                    "--level" => cfg.level = parse_level(&want::<String>(flag, it.next())?)?,
                    "--seed" => cfg.seed = want(flag, it.next())?,
                    "--kill-prob" => cfg.kill_prob = want(flag, it.next())?,
                    "--dup-prob" => cfg.dup_prob = want(flag, it.next())?,
                    "--stall-prob" => cfg.stall_prob = want(flag, it.next())?,
                    "--stall-ms" => cfg.stall_ms = want(flag, it.next())?,
                    "--retry-attempts" => cfg.retry_attempts = want(flag, it.next())?,
                    "--retry-backoff-ms" => cfg.retry_backoff_ms = want(flag, it.next())?,
                    "--retry-jitter" => cfg.retry_jitter = want(flag, it.next())?,
                    other => return Err(ParseError(format!("unknown flag `{other}`"))),
                }
            }
            if cfg.streams == 0 || cfg.clients == 0 {
                return Err(ParseError(
                    "--streams and --clients must be at least 1".into(),
                ));
            }
            for (name, p) in [
                ("--kill-prob", cfg.kill_prob),
                ("--dup-prob", cfg.dup_prob),
                ("--stall-prob", cfg.stall_prob),
                ("--retry-jitter", cfg.retry_jitter),
            ] {
                if !(0.0..=1.0).contains(&p) {
                    return Err(ParseError(format!("{name} must be within 0..1")));
                }
            }
            if let Err(e) = leopard_core::Endpoint::parse(&cfg.to) {
                return Err(ParseError(e));
            }
            Ok(Command::Soak(cfg))
        }
        "oracle" => {
            let mut cfg = OracleConfig::default();
            let mut it = argv[1..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--workload" => cfg.workload = want::<String>(flag, it.next())?,
                    "--rows" => cfg.rows = want(flag, it.next())?,
                    "--clients" => cfg.clients = want(flag, it.next())?,
                    "--txns" => cfg.txns = want(flag, it.next())?,
                    "--seed" => cfg.seed = want(flag, it.next())?,
                    "--json" => cfg.json = true,
                    "--out-dir" => cfg.out_dir = Some(want::<String>(flag, it.next())?),
                    other => return Err(ParseError(format!("unknown flag `{other}`"))),
                }
            }
            if cfg.clients == 0 {
                return Err(ParseError("--clients must be at least 1".to_string()));
            }
            Ok(Command::Oracle(cfg))
        }
        other => Err(ParseError(format!("unknown command `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn empty_argv_is_help() {
        assert_eq!(parse_args(&[]), Ok(Command::Help));
    }

    #[test]
    fn record_defaults_and_overrides() {
        let cmd = parse_args(&args(
            "record --workload tpcc --level rc --threads 8 --txns 100 --fault skip-lock --out t.jsonl",
        ))
        .unwrap();
        let Command::Record(cfg) = cmd else { panic!() };
        assert_eq!(cfg.workload, "tpcc");
        assert_eq!(cfg.level, IsolationLevel::ReadCommitted);
        assert_eq!(cfg.threads, 8);
        assert_eq!(cfg.txns, 100);
        assert_eq!(cfg.fault, Some(FaultKind::SkipLock));
        assert_eq!(cfg.out, "t.jsonl");
    }

    #[test]
    fn verify_requires_a_file() {
        assert!(parse_args(&args("verify --level sr")).is_err());
        let cmd = parse_args(&args("verify cap.jsonl --level si --skew-bound 500")).unwrap();
        let Command::Verify(cfg) = cmd else { panic!() };
        assert_eq!(cfg.file, "cap.jsonl");
        assert_eq!(cfg.engine.level, IsolationLevel::SnapshotIsolation);
        assert_eq!(cfg.engine.skew_bound, 500);
        assert!(!cfg.skip_preflight);
        let cmd = parse_args(&args("verify cap.jsonl --skip-preflight")).unwrap();
        let Command::Verify(cfg) = cmd else { panic!() };
        assert!(cfg.skip_preflight);
    }

    /// One parser: what an engine flag sets is the same on every
    /// subcommand that accepts it, so it is pinned once, on the subcommand
    /// that accepts them all.
    #[test]
    fn engine_flags_set_the_engine_group() {
        let cmd = parse_args(&args(
            "verify cap.jsonl --level rr --skew-bound 5 --no-gc --degraded --resume a.ckpt \
             --checkpoint b.ckpt --checkpoint-every 64 --mem-budget 1048576 --spill-dir d \
             --json --metrics-out m.prom",
        ));
        let engine = EngineArgs {
            level: IsolationLevel::RepeatableRead,
            skew_bound: 5,
            no_gc: true,
            degraded: true,
            checkpoint: Some("b.ckpt".to_string()),
            checkpoint_every: Some(64),
            mem_budget: Some(1_048_576),
            spill_dir: Some("d".to_string()),
            metrics_out: Some("m.prom".to_string()),
        };
        let all = VerifyConfig {
            file: "cap.jsonl".to_string(),
            skip_preflight: false,
            resume: Some("a.ckpt".to_string()),
            json: true,
            engine,
        };
        assert_eq!(cmd, Ok(Command::Verify(all)));
        let none = VerifyConfig {
            file: "cap.jsonl".to_string(),
            ..VerifyConfig::default()
        };
        assert_eq!(
            parse_args(&args("verify cap.jsonl")),
            Ok(Command::Verify(none))
        );
    }

    /// Every engine flag on every subcommand: accepted exactly where the
    /// CLI accepted it before the flags were declared once. The table is
    /// that CLI's, written out again and not read from `ENGINE_FLAGS`;
    /// `record` and `soak` have a `--level` of their own.
    #[test]
    fn engine_flags_are_accepted_exactly_where_they_were() {
        let was = [
            ("--level si", "verify chaos ingest record soak"),
            ("--skew-bound 5", "verify"),
            ("--no-gc", "verify"),
            ("--degraded", "verify"),
            ("--checkpoint c.ckpt", "verify chaos"),
            ("--checkpoint-every 8", "verify chaos serve"),
            ("--mem-budget 4096", "verify chaos ingest"),
            ("--spill-dir d", "verify chaos serve"),
            ("--metrics-out m.prom", "verify chaos"),
        ];
        let accepted = |sub: &str, flag: &str| {
            was.iter()
                .any(|(f, subs)| f.starts_with(flag) && subs.split(' ').any(|s| s == sub))
        };
        for sub in "verify chaos serve ingest record soak lint-history oracle".split(' ') {
            for (flag, _) in was {
                // The flag another one needs rides along, so that only
                // acceptance decides the outcome.
                let needs = match flag {
                    "--checkpoint-every 8" if accepted(sub, "--checkpoint ") => "--checkpoint c",
                    _ => "",
                };
                let file = if "verify ingest lint-history".contains(sub) {
                    "cap.jsonl"
                } else {
                    ""
                };
                let line = format!("{sub} {file} {needs} {flag}");
                let parsed = parse_args(&args(&line));
                let name = flag.split(' ').next().unwrap_or(flag);
                if accepted(sub, flag) {
                    assert!(parsed.is_ok(), "`{line}`: {parsed:?}");
                } else {
                    let unknown = ParseError(format!("unknown flag `{name}`"));
                    assert_eq!(parsed, Err(unknown), "`{line}`");
                }
            }
        }
    }

    /// The rules between engine flags give one message, whichever
    /// subcommand accepts the flag.
    #[test]
    fn engine_flag_edges_have_one_message_everywhere() {
        let cases = [
            (
                "--checkpoint c --checkpoint-every 0",
                "verify cap.jsonl|chaos",
                "--checkpoint-every must be at least 1",
            ),
            // serve names the image's place with --dir: there the cadence
            // stands alone, but not at zero.
            (
                "--checkpoint-every 0",
                "serve",
                "--checkpoint-every must be at least 1",
            ),
            (
                "--checkpoint-every 64",
                "verify cap.jsonl|chaos",
                "--checkpoint-every needs --checkpoint <FILE>",
            ),
            // A zero budget would shed everything.
            (
                "--mem-budget 0",
                "verify cap.jsonl|chaos|ingest cap.jsonl",
                "--mem-budget must be at least 1 byte",
            ),
        ];
        for (flags, subcommands, message) in cases {
            for sub in subcommands.split('|') {
                let parsed = parse_args(&args(&format!("{sub} {flags}")));
                assert_eq!(
                    parsed,
                    Err(ParseError(message.to_string())),
                    "`{sub} {flags}`"
                );
            }
        }
        assert!(parse_args(&args("serve --checkpoint-every 64")).is_ok());
    }

    #[test]
    fn removed_flags_are_usage_errors() {
        let check = |line: &str, flag: &str| {
            let err = parse_args(&args(line)).unwrap_err();
            assert_eq!(err.0, format!("unknown flag `{flag}`"), "{line}");
            assert_eq!(crate::run(&args(line), &mut Vec::new()), 2, "{line}");
        };
        // The span timeline and the metrics rewriter: gone everywhere.
        for sub in "verify cap.jsonl|chaos|serve|ingest cap.jsonl|record|soak|lint-history cap.jsonl|oracle"
            .split('|')
        {
            check(&format!("{sub} --trace-out t.json"), "--trace-out");
            check(&format!("{sub} --metrics-interval 5"), "--metrics-interval");
        }
        for (line, flag) in [
            ("verify cap.jsonl --shards 4", "--shards"),
            ("chaos --shards 4", "--shards"),
            (
                "verify cap.jsonl --spill-dir d --spill-cache-pages 8",
                "--spill-cache-pages",
            ),
            (
                "chaos --spill-dir d --spill-cache-pages 8",
                "--spill-cache-pages",
            ),
            (
                "serve --listen unix:/tmp/s --spill-dir d --spill-cache-pages 8",
                "--spill-cache-pages",
            ),
        ] {
            check(line, flag);
        }
    }

    #[test]
    fn chaos_defaults_and_overrides() {
        let cmd = parse_args(&args("chaos")).unwrap();
        assert_eq!(cmd, Command::Chaos(ChaosConfig::default()));
        let cmd = parse_args(&args(
            "chaos --workload smallbank --level si --threads 2 --txns 50 --chaos-seed 9 \
             --kill-prob 0.1 --stall-prob 0.2 --stall-ms 5 --drop-prob 0.03 --dup-prob 0.04 \
             --skew-burst-prob 0.01 --skew-magnitude 500 --retry-attempts 5 \
             --retry-backoff-ms 2 --evict-timeout-ms 250 --checkpoint c.ckpt \
             --checkpoint-every 128 --json",
        ))
        .unwrap();
        let Command::Chaos(cfg) = cmd else { panic!() };
        assert_eq!(cfg.workload, "smallbank");
        assert_eq!(cfg.engine.level, IsolationLevel::SnapshotIsolation);
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.txns, 50);
        assert_eq!(cfg.chaos_seed, 9);
        assert_eq!(cfg.kill_prob, 0.1);
        assert_eq!(cfg.stall_ms, 5);
        assert_eq!(cfg.skew_magnitude, 500);
        assert_eq!(cfg.retry_attempts, 5);
        assert_eq!(cfg.evict_timeout_ms, 250);
        assert_eq!(cfg.engine.checkpoint.as_deref(), Some("c.ckpt"));
        assert_eq!(cfg.engine.checkpoint_every, Some(128));
        assert!(cfg.json);
        assert!(parse_args(&args("chaos --kill-prob 1.5")).is_err());
        assert!(parse_args(&args("chaos --threads 0")).is_err());
        assert!(parse_args(&args("chaos --bogus")).is_err());
    }

    #[test]
    fn lint_history_parses() {
        assert!(parse_args(&args("lint-history")).is_err());
        assert!(parse_args(&args("lint-history a.jsonl b.jsonl")).is_err());
        assert!(parse_args(&args("lint-history a.jsonl --bogus")).is_err());
        let cmd = parse_args(&args("lint-history cap.jsonl --json")).unwrap();
        let Command::LintHistory(cfg) = cmd else {
            panic!()
        };
        assert_eq!(cfg.file, "cap.jsonl");
        assert!(cfg.json);
    }

    #[test]
    fn oracle_defaults_and_overrides() {
        let cmd = parse_args(&args("oracle")).unwrap();
        assert_eq!(cmd, Command::Oracle(OracleConfig::default()));
        let cmd = parse_args(&args(
            "oracle --workload ycsb --rows 64 --clients 3 --txns 12 --seed 7 --json --out-dir corpus",
        ))
        .unwrap();
        let Command::Oracle(cfg) = cmd else { panic!() };
        assert_eq!(cfg.workload, "ycsb");
        assert_eq!(cfg.rows, 64);
        assert_eq!(cfg.clients, 3);
        assert_eq!(cfg.txns, 12);
        assert_eq!(cfg.seed, 7);
        assert!(cfg.json);
        assert_eq!(cfg.out_dir.as_deref(), Some("corpus"));
        assert!(parse_args(&args("oracle --clients 0")).is_err());
        assert!(parse_args(&args("oracle --bogus")).is_err());
    }

    #[test]
    fn chaos_retry_jitter_parses_and_validates() {
        let cmd = parse_args(&args("chaos --retry-jitter 0.3")).unwrap();
        let Command::Chaos(cfg) = cmd else { panic!() };
        assert_eq!(cfg.retry_jitter, 0.3);
        assert_eq!(ChaosConfig::default().retry_jitter, 0.0);
        assert!(parse_args(&args("chaos --retry-jitter 1.5")).is_err());
        assert!(parse_args(&args("chaos --retry-jitter -0.1")).is_err());
    }

    #[test]
    fn serve_defaults_and_overrides() {
        let cmd = parse_args(&args("serve")).unwrap();
        assert_eq!(cmd, Command::Serve(ServeCliConfig::default()));
        let cmd = parse_args(&args(
            "serve --listen tcp:127.0.0.1:7878 --control unix:/tmp/c.sock --dir state \
             --checkpoint-every 64 --global-budget 1048576",
        ))
        .unwrap();
        let Command::Serve(cfg) = cmd else { panic!() };
        assert_eq!(cfg.listen, "tcp:127.0.0.1:7878");
        assert_eq!(cfg.control.as_deref(), Some("unix:/tmp/c.sock"));
        assert_eq!(cfg.dir, "state");
        assert_eq!(cfg.engine.checkpoint_every, Some(64));
        assert_eq!(cfg.global_budget, 1_048_576);
        assert!(parse_args(&args("serve --listen bogus")).is_err());
        assert!(parse_args(&args("serve --control udp:x")).is_err());
        assert!(parse_args(&args("serve --bogus")).is_err());
    }

    #[test]
    fn ingest_requires_a_file_and_valid_endpoint() {
        assert!(parse_args(&args("ingest")).is_err());
        assert!(parse_args(&args("ingest a.jsonl b.jsonl")).is_err());
        assert!(parse_args(&args("ingest a.jsonl --to bogus")).is_err());
        let cmd = parse_args(&args(
            "ingest cap.jsonl --to unix:/tmp/i.sock --stream t1 --level si --mem-budget 4096 --json",
        ))
        .unwrap();
        let Command::Ingest(cfg) = cmd else { panic!() };
        assert_eq!(cfg.file, "cap.jsonl");
        assert_eq!(cfg.to, "unix:/tmp/i.sock");
        assert_eq!(cfg.stream.as_deref(), Some("t1"));
        assert_eq!(cfg.engine.level, IsolationLevel::SnapshotIsolation);
        assert_eq!(cfg.engine.mem_budget, Some(4096));
        assert!(cfg.json);
    }

    #[test]
    fn soak_defaults_and_overrides() {
        let cmd = parse_args(&args("soak")).unwrap();
        assert_eq!(cmd, Command::Soak(SoakCliConfig::default()));
        let cmd = parse_args(&args(
            "soak --to tcp:127.0.0.1:9000 --streams 8 --workload ycsb --txns 30 --clients 2 \
             --level rr --seed 5 --kill-prob 0.1 --dup-prob 0.1 --stall-prob 0.05 --stall-ms 1 \
             --retry-attempts 50 --retry-backoff-ms 2 --retry-jitter 0.25",
        ))
        .unwrap();
        let Command::Soak(cfg) = cmd else { panic!() };
        assert_eq!(cfg.streams, 8);
        assert_eq!(cfg.workload, "ycsb");
        assert_eq!(cfg.level, IsolationLevel::RepeatableRead);
        assert_eq!(cfg.kill_prob, 0.1);
        assert_eq!(cfg.retry_jitter, 0.25);
        assert!(parse_args(&args("soak --streams 0")).is_err());
        assert!(parse_args(&args("soak --kill-prob 2.0")).is_err());
        assert!(parse_args(&args("soak --to bogus")).is_err());
    }

    #[test]
    fn bad_flags_are_rejected_with_context() {
        let err = parse_args(&args("record --bogus 3")).unwrap_err();
        assert!(err.0.contains("--bogus"));
        let err = parse_args(&args("record --threads zero")).unwrap_err();
        assert!(err.0.contains("zero"));
        let err = parse_args(&args("record --threads 0")).unwrap_err();
        assert!(err.0.contains("at least 1"));
        let err = parse_args(&args("frobnicate")).unwrap_err();
        assert!(err.0.contains("frobnicate"));
    }

    #[test]
    fn all_levels_and_faults_parse() {
        for (s, l) in [
            ("rc", IsolationLevel::ReadCommitted),
            ("rr", IsolationLevel::RepeatableRead),
            ("si", IsolationLevel::SnapshotIsolation),
            ("sr", IsolationLevel::Serializable),
        ] {
            assert_eq!(parse_level(s).unwrap(), l);
        }
        for s in [
            "dirty-read",
            "stale-snapshot",
            "skip-lock",
            "lost-update",
            "skip-certifier",
            "first-write-no-lock",
            "phantom-extra-version",
        ] {
            assert!(parse_fault(s).is_ok(), "{s}");
        }
        assert!(parse_level("chaos").is_err());
        assert!(parse_fault("chaos").is_err());
    }
}

//! Child processes measured through `wait4`: wall time, CPU time and peak
//! resident set of the system under test alone, never of the bench.
//!
//! Linux seeds a new program's `ru_maxrss` with the high-water mark of the
//! address space it was spawned from, so a child spawned directly by this
//! process would report the benchmark's own hundred-odd MiB (it holds the
//! capture) as its peak. Every child therefore goes through a *launcher*:
//! a fresh exec of this binary that has never been larger than a few MiB,
//! spawns the real program, reaps it with `wait4`, and writes what the
//! kernel accounted to a file. `std` discards the `rusage`, so `wait4` and
//! `kill` are declared here; the `struct rusage` layout is 64-bit Linux's.

#![allow(unsafe_code)]

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads `struct rusage` with its 64-bit Linux layout");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// Set once the launcher has reaped its child, after which the child's pid
/// may belong to someone else and must not be signalled.
static REAPED: AtomicBool = AtomicBool::new(false);

/// The launcher: runs `program`, forwards a graceful stop, and writes
/// `exit-code wall-seconds cpu-seconds peak-rss-MiB` to `usage_file`.
/// The program inherits the launcher's standard output and error. When the
/// launcher's standard input reaches its end, the program gets SIGTERM.
pub fn launch(usage_file: &Path, program: &str, args: &[String]) -> Result<(), String> {
    let started = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {program}: {e}"))?;
    let pid = child.id() as i32;
    // Detached on purpose: it blocks on standard input until the parent
    // closes it, and dies with the process when the program ends first.
    std::thread::spawn(move || {
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        if !REAPED.load(Ordering::SeqCst) {
            // SAFETY: `kill` takes plain integers; the pid is this process's
            // own child and has not been reaped, so it cannot be recycled.
            unsafe {
                kill(pid, SIGTERM);
            }
        }
    });
    let mut status = 0i32;
    let mut ru = Rusage::default();
    // SAFETY: both pointers refer to live, writable locals of the types the
    // call fills in; nobody else reaps this child (`Child::wait` is never
    // called and dropping a `Child` does not wait).
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut ru) };
    REAPED.store(true, Ordering::SeqCst);
    if reaped < 0 {
        return Err(format!("wait4: {}", std::io::Error::last_os_error()));
    }
    let wall_s = started.elapsed().as_secs_f64();
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    let exit_code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    let line = format!(
        "{exit_code} {wall_s:?} {:?} {:?}\n",
        secs(&ru.utime) + secs(&ru.stime),
        ru.maxrss_kb as f64 / 1024.0
    );
    std::fs::write(usage_file, line).map_err(|e| format!("write {}: {e}", usage_file.display()))
}

/// What the kernel accounted to one finished child.
#[derive(Debug, Clone, Default)]
pub struct Usage {
    /// Exit code, or `128 + signal` when the child was killed by a signal.
    pub exit_code: i32,
    /// Spawn to reap, in seconds.
    pub wall_s: f64,
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set in MiB (`ru_maxrss`).
    pub peak_rss_mb: f64,
    /// What the child wrote to its standard output and nobody read yet.
    pub stdout: String,
}

/// How children are started: this binary as the launcher, and the file the
/// launcher reports through. One child at a time.
#[derive(Debug, Clone)]
pub struct Launcher {
    /// This benchmark's own binary.
    pub bench: PathBuf,
    /// Where the launcher writes the child's usage.
    pub usage_file: PathBuf,
}

/// A launched child that is stopped and reaped on every path.
pub struct Running {
    launcher: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    usage_file: PathBuf,
}

impl Drop for Running {
    /// An error path must not leave the child behind: ask it to stop, then
    /// wait for the launcher, which waits for the child.
    fn drop(&mut self) {
        self.stdin = None;
        let _ = self.launcher.wait();
    }
}

impl Launcher {
    /// Starts `program` under the launcher with its standard output piped.
    pub fn spawn(&self, program: &Path, args: &[String]) -> std::io::Result<Running> {
        let _ = std::fs::remove_file(&self.usage_file);
        let mut launcher = Command::new(&self.bench)
            .arg("launch")
            .arg(&self.usage_file)
            .arg(program)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = launcher.stdin.take();
        let stdout = BufReader::new(launcher.stdout.take().expect("stdout was piped"));
        Ok(Running {
            launcher,
            stdin,
            stdout,
            usage_file: self.usage_file.clone(),
        })
    }

    /// Runs `program` to its end and returns its usage.
    pub fn run(&self, program: &Path, args: &[String]) -> std::io::Result<Usage> {
        self.spawn(program, args)?.wait()
    }
}

impl Running {
    /// Asks the child to shut down gracefully (SIGTERM, through the launcher).
    pub fn terminate(&mut self) {
        self.stdin = None;
    }

    /// Blocks until the child has printed one more line, and returns it.
    pub fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        Ok(line)
    }

    /// Reads the rest of the child's output, waits for it to end and returns
    /// what the launcher measured.
    pub fn wait(mut self) -> std::io::Result<Usage> {
        let mut stdout = String::new();
        self.stdout.read_to_string(&mut stdout)?;
        self.launcher.wait()?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let line = std::fs::read_to_string(&self.usage_file)
            .map_err(|_| bad("the launcher reported no usage (could it start the program?)"))?;
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [exit_code, wall_s, cpu_s, peak_rss_mb] = fields[..] else {
            return Err(bad("malformed usage line"));
        };
        let number = |s: &str| s.parse::<f64>().map_err(|_| bad("malformed usage number"));
        Ok(Usage {
            exit_code: exit_code.parse().map_err(|_| bad("malformed exit code"))?,
            wall_s: number(wall_s)?,
            cpu_s: number(cpu_s)?,
            peak_rss_mb: number(peak_rss_mb)?,
            stdout,
        })
    }
}

//! `leopard_core::store` — the disk-spilling backing tier for cold
//! verifier state, plus the `leopard serve` stream journal ([`journal`]).
//!
//! The module exists so captures larger than RAM verify with **zero
//! coverage loss**: when the [`crate::budget::MemBudget`] is exceeded,
//! the overload ladder's *spill* rung writes cold
//! [`crate::verify::VersionStore`] records out to an append-organized
//! record log ([`segment`]) instead of escalating straight to forced
//! dispatch and degraded-coverage evictions, and reads them back one
//! record at a time when a trace touches them ([`tier`]).
//!
//! Because the tier holds verdict-critical state, the disk is treated as
//! hostile: every byte moves through the injectable [`StoreIo`] trait
//! ([`io`]) and every record carries a CRC ([`crc32`]) — as does the
//! checkpoint image, which moves through the same two
//! ([`crate::checkpoint`]). Every error path resolves to exactly one of three
//! outcomes — transparent retry ([`RetryPolicy`]), counted fallback to
//! the in-memory path, or a typed [`StoreError`] — never a silent wrong
//! verdict.

pub mod crc32;
pub mod io;
pub mod journal;
pub mod segment;
pub mod tier;

pub use io::{FaultIo, FaultSpec, FsIo, InjectedFaults, SplitMix64, StoreFile, StoreIo};
pub use journal::Journal;
pub use segment::{RecordAddr, SegmentLog};
pub use tier::{SpillStats, SpillTier};

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

/// Result alias of the store module.
pub type StoreResult<T> = Result<T, StoreError>;

/// Why a store operation failed, after retries were exhausted.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying I/O failed (ENOSPC, EIO, fsync failure, ...).
    Io(std::io::Error),
    /// On-disk data failed validation (CRC mismatch, bad magic, torn
    /// record, address/data disagreement). Retrying cannot help; the
    /// caller must fall back or fail with this typed error.
    Corrupt(String),
    /// The spill tier is poisoned by an earlier unrecoverable fault;
    /// the original failure is carried as a message.
    Poisoned(String),
}

impl StoreError {
    /// Wraps an I/O error.
    #[must_use]
    pub fn io(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }

    /// A corruption finding.
    #[must_use]
    pub fn corrupt(msg: impl Into<String>) -> StoreError {
        StoreError::Corrupt(msg.into())
    }

    /// `true` when retrying the operation could plausibly succeed
    /// (transient I/O); corruption and poisoning are never retriable.
    #[must_use]
    pub fn is_retriable(&self) -> bool {
        matches!(self, StoreError::Io(_))
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt(m) => write!(f, "store corruption: {m}"),
            StoreError::Poisoned(m) => write!(f, "spill tier poisoned: {m}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Bounded decorrelated-jitter retry schedule for transient store I/O.
///
/// This mirrors the workload runner's `RetryPolicy` (leopard-workloads)
/// but lives in core because the tier cannot depend on the workloads
/// crate. Jitter derives from a seeded [`SplitMix64`], so schedules are
/// reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts before giving up (1 = no retry).
    pub max_attempts: u32,
    /// Base backoff; attempt `n` waits in `[base, base * 2^n * 3]`,
    /// capped at [`RetryPolicy::cap`].
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub cap: Duration,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(200),
            seed: 0x1e0_9a5d,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (tests, and the strict fault suite).
    #[must_use]
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base: Duration::ZERO,
            cap: Duration::ZERO,
            seed: 0,
        }
    }

    /// Runs `op` up to [`RetryPolicy::max_attempts`] times, sleeping a
    /// jittered backoff between attempts. Non-retriable errors
    /// (corruption, poisoning) are returned immediately. The number of
    /// retries actually performed is reported to the `on_retry` hook so
    /// callers can count them.
    pub fn run<T>(
        &self,
        mut on_retry: impl FnMut(&StoreError),
        mut op: impl FnMut() -> StoreResult<T>,
    ) -> StoreResult<T> {
        let mut rng = SplitMix64::new(self.seed);
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if !e.is_retriable() => return Err(e),
                Err(e) => {
                    attempt += 1;
                    if attempt >= self.max_attempts.max(1) {
                        return Err(e);
                    }
                    on_retry(&e);
                    let backoff = self.backoff(attempt, &mut rng);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                }
            }
        }
    }

    /// The jittered backoff before retry number `attempt` (1-based).
    fn backoff(&self, attempt: u32, rng: &mut SplitMix64) -> Duration {
        if self.base.is_zero() {
            return Duration::ZERO;
        }
        let exp = attempt.min(16);
        let upper = self
            .base
            .saturating_mul(1u32 << exp.min(10))
            .saturating_mul(3)
            .min(self.cap.max(self.base));
        let span = upper.saturating_sub(self.base);
        let jitter_nanos = if span.is_zero() {
            0
        } else {
            rng.next_u64() % span.as_nanos().min(u128::from(u64::MAX)) as u64
        };
        (self.base + Duration::from_nanos(jitter_nanos)).min(upper)
    }
}

/// Configuration of one spill tier.
#[derive(Debug, Clone)]
pub struct SpillSettings {
    /// Directory holding segment files (created if missing).
    pub dir: PathBuf,
    /// Retry schedule for transient I/O.
    pub retry: RetryPolicy,
    /// Fault-injection plan applied to all tier I/O (chaos runs and the
    /// CI fault matrix); the default no-op spec is the real filesystem
    /// untouched.
    pub fault: io::FaultSpec,
}

impl SpillSettings {
    /// Settings for `dir` with the default retries.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> SpillSettings {
        SpillSettings {
            dir: dir.into(),
            retry: RetryPolicy::default(),
            fault: io::FaultSpec::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn retry_runs_until_success() {
        let fails = AtomicU32::new(2);
        let mut retries = 0u32;
        let policy = RetryPolicy {
            max_attempts: 4,
            base: Duration::ZERO,
            cap: Duration::ZERO,
            seed: 7,
        };
        let out = policy.run(
            |_| retries += 1,
            || {
                if fails
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                        Some(v.saturating_sub(1))
                    })
                    .unwrap_or(0)
                    > 0
                {
                    Err(StoreError::io(std::io::Error::other("transient")))
                } else {
                    Ok(42)
                }
            },
        );
        assert_eq!(out.unwrap(), 42);
        assert_eq!(retries, 2);
    }

    #[test]
    fn retry_gives_up_after_max_attempts() {
        let policy = RetryPolicy::none();
        let out: StoreResult<()> = policy.run(
            |_| {},
            || Err(StoreError::io(std::io::Error::other("always"))),
        );
        assert!(matches!(out, Err(StoreError::Io(_))));
    }

    #[test]
    fn corruption_is_not_retried() {
        let mut attempts = 0;
        let policy = RetryPolicy {
            max_attempts: 5,
            base: Duration::ZERO,
            cap: Duration::ZERO,
            seed: 0,
        };
        let out: StoreResult<()> = policy.run(
            |_| {},
            || {
                attempts += 1;
                Err(StoreError::corrupt("crc"))
            },
        );
        assert!(matches!(out, Err(StoreError::Corrupt(_))));
        assert_eq!(attempts, 1, "corruption must fail fast");
    }
}

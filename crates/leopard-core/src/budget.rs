//! Memory budgets for the resource-governed verification chain.
//!
//! Theorem 1 (§IV-C) promises that Leopard verifies in bounded memory:
//! everything below the dispatch watermark can be garbage-collected. This
//! module turns that claim into an enforced contract. A [`MemBudget`]
//! caps the *estimated* bytes and entry counts retained across the
//! tracer pipeline and the four mechanism tables; [`MemUsage`] is the
//! cheap O(1) estimate each structure reports; [`BudgetCounters`] records
//! what the governor had to do to stay under the cap (forced GC passes,
//! forced heap dispatches, shed traces, budget evictions) so a verdict
//! produced under pressure is auditable after the fact.
//!
//! Enforcement is a graduated ladder (see `DESIGN.md` §8):
//!
//! 1. **GC** — prune all mechanism state below the watermark, off the
//!    periodic `gc_every` cadence.
//! 2. **Force-dispatch** — flush the pipeline's buffers to the verifier
//!    in sorted order, even above the watermark; later stragglers below
//!    the forced floor are shed (counted, surfaced in coverage).
//! 3. **Evict** — force-close the laggiest (watermark-pinning) client
//!    into the degraded-mode [`crate::verify::Coverage`] machinery.
//!
//! The ladder trades coverage for memory *explicitly*: the run degrades
//! with a named hole instead of growing until the OOM killer decides.

// A panic here kills the stream being verified: return a typed error, or
// mark the exception `#[expect(clippy::…, reason = "…")]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use serde::{Deserialize, Serialize};

/// A cap on the estimated memory retained by the verification chain.
///
/// A limit of `0` in either dimension means "unlimited" for that
/// dimension; [`MemBudget::UNLIMITED`] disables governance entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemBudget {
    /// Maximum estimated bytes (0 = unlimited).
    pub max_bytes: u64,
    /// Maximum retained entries across all governed structures
    /// (0 = unlimited).
    pub max_entries: u64,
}

impl MemBudget {
    /// No limits; governance is disabled.
    pub const UNLIMITED: MemBudget = MemBudget {
        max_bytes: 0,
        max_entries: 0,
    };

    /// Budget limited by bytes only.
    #[must_use]
    pub fn bytes(max_bytes: u64) -> MemBudget {
        MemBudget {
            max_bytes,
            max_entries: 0,
        }
    }

    /// True if neither dimension is limited.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.max_bytes == 0 && self.max_entries == 0
    }

    /// True if `usage` exceeds any limited dimension.
    #[must_use]
    pub fn exceeded_by(&self, usage: MemUsage) -> bool {
        (self.max_bytes != 0 && usage.bytes > self.max_bytes)
            || (self.max_entries != 0 && usage.entries > self.max_entries)
    }
}

impl Default for MemBudget {
    fn default() -> MemBudget {
        MemBudget::UNLIMITED
    }
}

/// A cheap estimate of a structure's live memory.
///
/// Estimates are per-entry constants derived from `size_of` plus a flat
/// allowance for heap indirection (vectors, hash-map buckets); they are
/// deliberately O(1) to compute so the governor can re-check after every
/// trace. They track growth faithfully even where the absolute byte
/// count is approximate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemUsage {
    /// Estimated bytes.
    pub bytes: u64,
    /// Retained entries.
    pub entries: u64,
}

impl MemUsage {
    /// An estimate of `entries` entries at `bytes_per_entry` bytes each.
    #[must_use]
    pub fn per_entry(entries: usize, bytes_per_entry: usize) -> MemUsage {
        MemUsage {
            bytes: (entries as u64) * (bytes_per_entry as u64),
            entries: entries as u64,
        }
    }

    /// Component-wise sum with `other`.
    #[must_use]
    pub fn plus(self, other: MemUsage) -> MemUsage {
        MemUsage {
            bytes: self.bytes + other.bytes,
            entries: self.entries + other.entries,
        }
    }
}

impl std::ops::Add for MemUsage {
    type Output = MemUsage;
    fn add(self, other: MemUsage) -> MemUsage {
        self.plus(other)
    }
}

impl std::ops::AddAssign for MemUsage {
    fn add_assign(&mut self, other: MemUsage) {
        *self = self.plus(other);
    }
}

/// What the resource governor did during a run. Part of the checkpoint
/// image, so a resumed run keeps accounting for the pressure its
/// predecessor absorbed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BudgetCounters {
    /// High-water mark of the estimated bytes across verifier state
    /// (plus the pipeline, when governed online).
    pub peak_bytes: u64,
    /// High-water mark of retained entries.
    pub peak_entries: u64,
    /// GC passes forced by the budget, outside the periodic cadence.
    pub forced_gcs: u64,
    /// Ladder rung 2 activations: pipeline buffers flushed to the
    /// verifier above the watermark.
    pub forced_dispatches: u64,
    /// Ladder rung 3 activations: clients evicted because the budget
    /// was still exceeded after GC and force-dispatch.
    pub budget_evictions: u64,
    /// Traces shed by the chain: records into a closed stream, what an
    /// evicted buffer held, and stragglers below a forced-dispatch floor.
    pub shed_traces: u64,
    /// Ladder rung 1.5 activations: spill passes that paged cold version
    /// chains to disk instead of degrading coverage.
    pub spill_passes: u64,
    /// Records paged out across all spill passes.
    pub spilled_records: u64,
    /// Spilled records faulted back into memory on access.
    pub spill_faults: u64,
    /// Spill passes abandoned to the in-memory fallback after a write
    /// failure (the tier stopped accepting writes).
    pub spill_fallbacks: u64,
}

impl BudgetCounters {
    /// Fold a usage sample into the high-water marks. The registry
    /// gauges are only touched when a mark actually rises — this runs
    /// once per trace on the sequential hot path, and an unconditional
    /// atomic max per sample is measurable there.
    pub fn observe(&mut self, usage: MemUsage) {
        if usage.bytes > self.peak_bytes {
            self.peak_bytes = usage.bytes;
            crate::obs::gauge_max(crate::obs::Gauge::PeakMemBytes, self.peak_bytes);
        }
        if usage.entries > self.peak_entries {
            self.peak_entries = usage.entries;
            crate::obs::gauge_max(crate::obs::Gauge::PeakMemEntries, self.peak_entries);
        }
    }
}

/// Global admission control for the multi-tenant serve daemon
/// ([`crate::serve`]): one shared byte pool that every admitted stream
/// draws its [`MemBudget`] slice from. A stream that asks for more than
/// the pool has left is refused at the handshake instead of being
/// allowed to starve its neighbors at runtime — admission is the rung
/// *above* the per-stream overload ladder.
///
/// Cloning shares the pool; grants release their charge on drop.
#[derive(Clone)]
pub struct GlobalAdmission {
    inner: std::sync::Arc<AdmissionInner>,
}

struct AdmissionInner {
    /// Total pool in bytes; 0 = unlimited (admission always succeeds).
    capacity: u64,
    /// Bytes currently granted to live streams.
    outstanding: crate::lockwitness::TrackedMutex<u64>,
}

impl GlobalAdmission {
    /// A pool of `capacity` bytes; `0` disables admission control.
    #[must_use]
    pub fn new(capacity: u64) -> GlobalAdmission {
        GlobalAdmission {
            inner: std::sync::Arc::new(AdmissionInner {
                capacity,
                outstanding: crate::lockwitness::TrackedMutex::new("AdmissionInner.outstanding", 0),
            }),
        }
    }

    /// The charge a stream request costs against the pool. A stream that
    /// asks for an explicit budget is charged exactly that; a stream that
    /// asks for *unlimited* (0) is charged one eighth of the pool, so a
    /// handful of unbounded tenants cannot silently claim everything.
    #[must_use]
    pub fn charge_for(&self, requested_bytes: u64) -> u64 {
        if self.inner.capacity == 0 {
            return 0;
        }
        if requested_bytes == 0 {
            (self.inner.capacity / 8).max(1)
        } else {
            requested_bytes
        }
    }

    /// Tries to admit a stream requesting `requested_bytes` (0 =
    /// unlimited). `None` means the pool cannot cover the charge.
    #[must_use]
    pub fn admit(&self, requested_bytes: u64) -> Option<AdmissionGrant> {
        let charge = self.charge_for(requested_bytes);
        if self.inner.capacity == 0 {
            return Some(AdmissionGrant {
                inner: std::sync::Arc::clone(&self.inner),
                charge: 0,
            });
        }
        let mut outstanding = self.inner.outstanding.lock();
        if outstanding.saturating_add(charge) > self.inner.capacity {
            return None;
        }
        *outstanding += charge;
        Some(AdmissionGrant {
            inner: std::sync::Arc::clone(&self.inner),
            charge,
        })
    }

    /// Bytes currently granted to live streams.
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        *self.inner.outstanding.lock()
    }

    /// The pool size (0 = unlimited).
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.inner.capacity
    }
}

impl std::fmt::Debug for GlobalAdmission {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalAdmission")
            .field("capacity", &self.inner.capacity)
            .field("outstanding", &self.outstanding())
            .finish()
    }
}

/// A live stream's claim on the global pool; released on drop.
#[derive(Debug)]
pub struct AdmissionGrant {
    inner: std::sync::Arc<AdmissionInner>,
    charge: u64,
}

impl std::fmt::Debug for AdmissionInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionInner")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl AdmissionGrant {
    /// Bytes this grant holds against the pool.
    #[must_use]
    pub fn charge(&self) -> u64 {
        self.charge
    }
}

impl Drop for AdmissionGrant {
    fn drop(&mut self) {
        if self.charge > 0 {
            let mut outstanding = self.inner.outstanding.lock();
            *outstanding = outstanding.saturating_sub(self.charge);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_grants_and_releases() {
        let pool = GlobalAdmission::new(1000);
        let a = pool.admit(400).expect("fits");
        let b = pool.admit(400).expect("fits");
        assert_eq!(pool.outstanding(), 800);
        assert!(pool.admit(400).is_none(), "pool exhausted");
        drop(a);
        assert_eq!(pool.outstanding(), 400);
        let c = pool.admit(600).expect("fits after release");
        drop(b);
        drop(c);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn unlimited_requests_are_charged_a_slice() {
        let pool = GlobalAdmission::new(800);
        assert_eq!(pool.charge_for(0), 100);
        let grants: Vec<_> = (0..8).map(|_| pool.admit(0).expect("slice fits")).collect();
        assert!(pool.admit(0).is_none(), "ninth unbounded tenant refused");
        drop(grants);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn zero_capacity_pool_admits_everything() {
        let pool = GlobalAdmission::new(0);
        let g = pool.admit(u64::MAX).expect("unlimited pool");
        assert_eq!(g.charge(), 0);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn unlimited_budget_is_never_exceeded() {
        let b = MemBudget::UNLIMITED;
        assert!(b.is_unlimited());
        assert!(!b.exceeded_by(MemUsage {
            bytes: u64::MAX,
            entries: u64::MAX,
        }));
    }

    #[test]
    fn byte_budget_trips_on_bytes_only() {
        let b = MemBudget::bytes(1000);
        assert!(!b.is_unlimited());
        assert!(!b.exceeded_by(MemUsage {
            bytes: 1000,
            entries: 1 << 40,
        }));
        assert!(b.exceeded_by(MemUsage {
            bytes: 1001,
            entries: 0,
        }));
    }

    #[test]
    fn entry_budget_trips_on_entries() {
        let b = MemBudget {
            max_bytes: 0,
            max_entries: 10,
        };
        assert!(b.exceeded_by(MemUsage {
            bytes: 0,
            entries: 11,
        }));
        assert!(!b.exceeded_by(MemUsage {
            bytes: 1 << 40,
            entries: 10,
        }));
    }

    #[test]
    fn usage_sums_and_peaks() {
        let a = MemUsage::per_entry(3, 64);
        let b = MemUsage::per_entry(2, 100);
        let sum = a + b;
        assert_eq!(sum.bytes, 3 * 64 + 2 * 100);
        assert_eq!(sum.entries, 5);
        let mut c = BudgetCounters::default();
        c.observe(sum);
        c.observe(a);
        assert_eq!(c.peak_bytes, sum.bytes);
        assert_eq!(c.peak_entries, 5);
    }
}

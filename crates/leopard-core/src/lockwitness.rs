//! The lock-order check: a runtime witness at the point of acquisition.
//!
//! Every lock that matters is wrapped in a [`TrackedMutex`] carrying a
//! stable identity, `Owner.field` (e.g. `"Storage.map"`), a string literal
//! no other lock shares (`tests/lockwitness.rs` scans for that). In debug
//! builds each acquisition records, per thread, which locks were already
//! held, and **panics at the offending `lock()`**, naming both locks, when
//!
//! * the thread already holds a lock of that name (self-deadlock), or
//! * the reverse order has been observed anywhere in the process before —
//!   lock B taken while A is held, after A was taken while B was held.
//!
//! So every test that takes a lock is a lock-order test, through `dyn`
//! calls and closures alike, and an inversion fails the test that commits
//! it. The check runs *before* blocking on the inner mutex: an actual
//! deadlock still panics instead of hanging.
//!
//! In release builds the wrapper compiles down to a plain
//! `parking_lot::Mutex` — no thread-local bookkeeping, no global
//! registry, zero overhead on the verification hot path.
//!
//! The observed edges are process-global. Tests that inspect them should
//! use uniquely-named locks and filter [`observed_edges`].

use std::fmt;
use std::ops::{Deref, DerefMut};

#[cfg(debug_assertions)]
mod witness {
    use std::cell::RefCell;
    use std::sync::{Mutex, PoisonError};

    // A const-initialized std mutex: usable from any thread at any time,
    // including before main in other statics' initializers.
    static EDGES: Mutex<Vec<(&'static str, &'static str)>> = Mutex::new(Vec::new());

    thread_local! {
        static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    /// Checks the intent to acquire `name` against every lock this thread
    /// holds and records the acquired-while-held edges. Called *before*
    /// blocking on the inner mutex.
    pub(super) fn before_acquire(name: &'static str) {
        let violation = HELD.with(|held| {
            let held = held.borrow();
            if held.is_empty() {
                return None;
            }
            let mut edges = EDGES.lock().unwrap_or_else(PoisonError::into_inner);
            for &from in held.iter() {
                if from == name {
                    return Some(format!(
                        "recursive acquisition: {name} acquired while this thread already \
                         holds {from} (self-deadlock)"
                    ));
                }
                if edges.contains(&(name, from)) {
                    return Some(format!(
                        "lock-order inversion: {name} acquired while {from} is held, \
                         but {from} was previously acquired while {name} was held"
                    ));
                }
                if !edges.contains(&(from, name)) {
                    edges.push((from, name));
                }
            }
            None
        });
        // Outside the registry's own lock, so the panic poisons nothing.
        if let Some(violation) = violation {
            panic!("{violation}");
        }
    }

    /// Marks `name` as held by this thread (called after the inner
    /// mutex is actually acquired).
    pub(super) fn acquired(name: &'static str) {
        HELD.with(|h| h.borrow_mut().push(name));
    }

    /// Removes the most recent hold of `name` on this thread. Runs in a
    /// `Drop`, possibly while the thread's locals are being torn down:
    /// then there is no record left to clear.
    pub(super) fn release(name: &'static str) {
        let _ = HELD.try_with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&n| n == name) {
                held.remove(pos);
            }
        });
    }

    pub(super) fn edges() -> Vec<(&'static str, &'static str)> {
        EDGES.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

/// A mutex with a stable identity, tracked by the debug-build
/// lock-order witness. Release builds see a plain `parking_lot::Mutex`.
pub struct TrackedMutex<T> {
    name: &'static str,
    inner: parking_lot::Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// Creates a tracked mutex. `name` is the id the shared-state
    /// inventory lists this lock under: `Owner.field` for struct fields
    /// (e.g. `"Storage.map"`), `static.NAME` for statics.
    #[must_use]
    pub const fn new(name: &'static str, value: T) -> Self {
        TrackedMutex {
            name,
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Acquires the lock. Never poisons.
    ///
    /// # Panics
    /// In debug builds, when this thread already holds a lock of this
    /// name, or holds one that has been acquired *under* this one before
    /// (see the module docs).
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        witness::before_acquire(self.name);
        let guard = self.inner.lock();
        #[cfg(debug_assertions)]
        witness::acquired(self.name);
        TrackedMutexGuard {
            guard,
            #[cfg(debug_assertions)]
            name: self.name,
        }
    }

    /// Consumes the mutex, returning the inner value.
    #[must_use]
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }

    /// Mutable access without locking (requires exclusive ownership, so
    /// no tracking is needed).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T> fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TrackedMutex").field(&self.name).finish()
    }
}

/// Guard returned by [`TrackedMutex::lock`]; releases the hold record
/// (debug builds) and the inner mutex on drop.
pub struct TrackedMutexGuard<'a, T> {
    guard: parking_lot::MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    name: &'static str,
}

impl<T> Deref for TrackedMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for TrackedMutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        witness::release(self.name);
        // The inner parking_lot guard is released by its own drop glue,
        // after this runs — the hold record never outlives the hold.
    }
}

/// Every acquired-while-held edge observed so far, as `(held, acquired)`
/// witness identities. Empty in release builds.
#[must_use]
pub fn observed_edges() -> Vec<(&'static str, &'static str)> {
    #[cfg(debug_assertions)]
    {
        witness::edges()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // All tests use the `lw_test_` prefix and filter on it: the observed
    // edges are process-global and other tests run concurrently. The two
    // acquisitions that panic are seeded in `tests/lockwitness.rs`.

    #[test]
    fn nested_acquisition_records_an_edge() {
        let a = TrackedMutex::new("lw_test_edge.a", 0u32);
        let b = TrackedMutex::new("lw_test_edge.b", 0u32);
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        if cfg!(debug_assertions) {
            assert!(observed_edges().contains(&("lw_test_edge.a", "lw_test_edge.b")));
        } else {
            assert!(observed_edges().is_empty());
        }
    }

    #[test]
    fn sequential_acquisition_records_no_edge() {
        let a = TrackedMutex::new("lw_test_seq.a", 0u32);
        let b = TrackedMutex::new("lw_test_seq.b", 0u32);
        {
            let _ga = a.lock();
        }
        {
            let _gb = b.lock();
        }
        assert!(!observed_edges()
            .iter()
            .any(|(f, t)| f.starts_with("lw_test_seq") && t.starts_with("lw_test_seq")));
    }

    #[test]
    fn guard_drop_clears_the_hold() {
        let a = TrackedMutex::new("lw_test_drop.a", 0u32);
        let b = TrackedMutex::new("lw_test_drop.b", 0u32);
        {
            let g = a.lock();
            drop(g);
            let _gb = b.lock();
        }
        assert!(!observed_edges().contains(&("lw_test_drop.a", "lw_test_drop.b")));
    }

    #[test]
    fn guard_derefs_to_the_value() {
        let m = TrackedMutex::new("lw_test_deref.m", vec![1u32]);
        {
            let mut g = m.lock();
            g.push(2);
            assert_eq!(*g, vec![1, 2]);
        }
        assert_eq!(m.into_inner(), vec![1, 2]);
    }
}

//! Lock helpers that centralise this crate's poisoning policy.
//!
//! A `std::sync` mutex is poisoned only when a thread panicked while
//! holding it. Every lock in this crate guards plain counters or
//! accumulator maps with no partially-applied invariants, but a panic in
//! an ingest worker still means the run's numbers can no longer be
//! trusted — so the policy is to re-raise the panic on whoever touches
//! the lock next rather than limp on with `into_inner`. These helpers
//! state (and pragma) that decision once instead of at each of the
//! crate's lock sites.
//!
//! The rule also covers a worker's own death, wherever it panics. Each
//! ingest worker runs under `catch_unwind`. On a panic it takes the days
//! lock (past any earlier poisoning), closes the queue so no lane stays
//! parked on a full quota, wakes the close barrier, and resumes the
//! unwind still holding the lock, which poisons it. A waiter woken by
//! the close or the wake-up can only get the lock back poisoned, so the
//! barrier, a close, `finish`, and every lane's next push re-raise the
//! panic instead of waiting for records no worker will fold.

use std::sync::{Condvar, LockResult, Mutex, MutexGuard};

/// Acquires `mutex`, re-raising any panic that poisoned it.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    unpoisoned(mutex.lock()) // lock: generic
}

/// Blocks on `condvar`, re-raising any panic that poisoned the lock.
pub(crate) fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    unpoisoned(condvar.wait(guard))
}

/// The guard, or the poisoning holder's panic re-raised.
fn unpoisoned<G>(result: LockResult<G>) -> G {
    // check: allow(no_panic, "poisoning means a holder panicked; re-raising on the next toucher is the crate-wide policy stated at module level")
    result.expect("stream lock poisoned")
}

//! blocking_under_lock fixture: the pragma'd twin of
//! `blocking_under_lock_store_bad.rs`.

use std::path::Path;
use std::sync::Mutex;

/// Stand-in for `mt_store::ResultsStore`.
pub struct Store;

impl Store {
    /// Persists the summary; the real one encodes and writes a file.
    pub fn write_summary(&self, _summary: &u64) {}
}

/// Writes the summary under the lock, with the hazard argued away.
pub fn persist(index: &Mutex<u64>, store: &Store) {
    let idx = index.lock().unwrap_or_else(|e| e.into_inner()); // lock: fixture.index
    // check: allow(blocking_under_lock, "fixture: nothing else takes fixture.index")
    store.write_summary(&idx);
}

/// The same through `std::fs` directly.
pub fn persist_raw(index: &Mutex<u64>, tmp: &Path, path: &Path) -> std::io::Result<()> {
    let idx = index.lock().unwrap_or_else(|e| e.into_inner()); // lock: fixture.index
    // check: allow(blocking_under_lock, "fixture: nothing else takes fixture.index")
    std::fs::write(tmp, idx.to_le_bytes())?;
    // check: allow(blocking_under_lock, "fixture: nothing else takes fixture.index")
    std::fs::rename(tmp, path)
}

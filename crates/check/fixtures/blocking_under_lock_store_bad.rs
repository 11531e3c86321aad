//! blocking_under_lock fixture: file writes behind a plain-looking
//! call. Neither site names an io method, and both put the disk inside
//! the guard's extent.

use std::path::Path;
use std::sync::Mutex;

/// Stand-in for `mt_store::ResultsStore`.
pub struct Store;

impl Store {
    /// Persists the summary; the real one encodes and writes a file.
    pub fn write_summary(&self, _summary: &u64) {}
}

/// Writes the summary with the index lock held — every reader of
/// `fixture.index` now waits for the disk.
pub fn persist(index: &Mutex<u64>, store: &Store) {
    let idx = index.lock().unwrap_or_else(|e| e.into_inner()); // lock: fixture.index
    store.write_summary(&idx);
}

/// The same through `std::fs` directly: tmp file, then rename.
pub fn persist_raw(index: &Mutex<u64>, tmp: &Path, path: &Path) -> std::io::Result<()> {
    let idx = index.lock().unwrap_or_else(|e| e.into_inner()); // lock: fixture.index
    std::fs::write(tmp, idx.to_le_bytes())?;
    std::fs::rename(tmp, path)
}

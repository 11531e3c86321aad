//! Filesystem layout and atomic persistence for window and summary
//! files.
//!
//! One directory per telescope: `window-<day>.mtw` per closed day plus
//! a single `summary.mts` holding the running multi-day combination.
//! Writes go through a temp file and rename, so a crashed writer never
//! leaves a half-written file under a valid name. Reads re-validate
//! everything: checksums and structure via decode, and the slot-index
//! fingerprint against the live index, so a store written under an old
//! RIB is a typed error instead of silently misaligned rows. The cold
//! load reads a window file by the verdict-only load
//! ([`WindowData::decode_verdicts`]): the same checks, in the same
//! order, with the same errors as [`ResultsStore::read_window`]'s full
//! decode, but no row is built, since the query cache keeps only the
//! window's verdicts.
//!
//! Every write encodes into one buffer the store keeps between calls:
//! the summary file is rewritten on every close and runs to ≈ 13 MB on
//! world traffic, as large as a window file, so a close would otherwise
//! allocate (and touch) two buffers that size. The buffer sits behind
//! the `store.encode` mutex, a leaf held only to take the buffer and
//! to hand it back, never across the encode or the file write.

use crate::error::StoreError;
use crate::format::{SummaryData, Verdicts, WindowData};
use mt_types::{Day, Slot24Index};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// Where a store lives and which slot index its files must match.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the window and summary files.
    pub dir: PathBuf,
    /// The live slot index; persisted files must carry its
    /// fingerprint.
    pub slots: Arc<Slot24Index>,
}

/// A results store rooted at one directory.
#[derive(Debug)]
pub struct ResultsStore {
    cfg: StoreConfig,
    /// The retained encode buffer (`store.encode`). A writer takes it,
    /// leaving an empty `Vec`, and hands it back after the write; two
    /// writers at once each get a buffer and the larger one is kept.
    encode: Mutex<Vec<u8>>,
}

impl ResultsStore {
    /// Opens (creating if needed) the store directory.
    pub fn open(cfg: StoreConfig) -> Result<ResultsStore, StoreError> {
        std::fs::create_dir_all(&cfg.dir)?;
        Ok(ResultsStore {
            cfg,
            encode: Mutex::new(Vec::new()),
        })
    }

    /// The live slot index this store validates files against.
    pub fn slots(&self) -> &Arc<Slot24Index> {
        &self.cfg.slots
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }

    /// Path of one day's window file.
    pub fn window_path(&self, day: Day) -> PathBuf {
        self.cfg.dir.join(format!("window-{:05}.mtw", day.0))
    }

    /// Path of the running summary file.
    pub fn summary_path(&self) -> PathBuf {
        self.cfg.dir.join("summary.mts")
    }

    /// Where window files that failed validation are moved aside.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.cfg.dir.join("quarantine")
    }

    /// Moves one day's window file into [`quarantine_dir`], keeping its
    /// name, so the day reads as never persisted while the bytes stay
    /// on disk for inspection.
    ///
    /// [`quarantine_dir`]: Self::quarantine_dir
    pub(crate) fn quarantine_window(&self, day: Day) -> Result<(), StoreError> {
        let from = self.window_path(day);
        let dir = self.quarantine_dir();
        std::fs::create_dir_all(&dir)?;
        std::fs::rename(&from, dir.join(from.file_name().unwrap_or_default()))?;
        Ok(())
    }

    /// Persists one closed window atomically. Returns bytes written.
    pub fn write_window(&self, w: &WindowData) -> Result<u64, StoreError> {
        self.write_encoded(&self.window_path(w.day), |buf| w.encode_into(buf))
    }

    /// Persists the running summary atomically. Returns bytes written.
    pub fn write_summary(&self, s: &SummaryData) -> Result<u64, StoreError> {
        self.write_encoded(&self.summary_path(), |buf| s.encode_into(buf))
    }

    /// Encodes into the retained buffer and writes it to `path`; the
    /// buffer goes back whether or not the write succeeded. A panic
    /// cannot leave the buffer in a state that matters, since every
    /// encode clears it first, so a poisoned lock is simply taken over.
    fn write_encoded(
        &self,
        path: &Path,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<u64, StoreError> {
        let mut buf = std::mem::take(
            &mut *self.encode.lock().unwrap_or_else(PoisonError::into_inner), // lock: store.encode
        );
        encode(&mut buf);
        let written = self.write_atomic(path, &buf);
        // lock: store.encode
        let mut kept = self.encode.lock().unwrap_or_else(PoisonError::into_inner);
        if buf.capacity() > kept.capacity() {
            *kept = buf;
        }
        written
    }

    /// Loads and validates one day's window, gating on the live
    /// slot-index fingerprint.
    pub fn read_window(&self, day: Day) -> Result<WindowData, StoreError> {
        let bytes = std::fs::read(self.window_path(day))?;
        let w = WindowData::decode(&bytes)?;
        self.gate(w.fingerprint)?;
        Ok(w)
    }

    /// The verdict-only load of one day's window, with the bytes it
    /// read: the file is validated as [`read_window`](Self::read_window)
    /// validates it, by [`WindowData::decode_verdicts`], and gated on
    /// the live slot-index fingerprint, but no row is built.
    pub(crate) fn load_window_verdicts(&self, day: Day) -> Result<(Verdicts, u64), StoreError> {
        let bytes = std::fs::read(self.window_path(day))?;
        let (fingerprint, verdicts) = WindowData::decode_verdicts(&bytes)?;
        self.gate(fingerprint)?;
        Ok((verdicts, bytes.len() as u64))
    }

    /// Loads the summary if one has been written, gating on the live
    /// slot-index fingerprint.
    pub fn read_summary(&self) -> Result<Option<SummaryData>, StoreError> {
        Ok(self.load_summary()?.map(|(s, _)| s))
    }

    /// [`read_summary`](Self::read_summary), with the bytes it read.
    pub(crate) fn load_summary(&self) -> Result<Option<(SummaryData, u64)>, StoreError> {
        let bytes = match std::fs::read(self.summary_path()) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io(e)),
        };
        let s = SummaryData::decode(&bytes)?;
        if s.windows > 0 {
            self.gate(s.fingerprint)?;
        }
        Ok(Some((s, bytes.len() as u64)))
    }

    /// Rejects a file written against another slot index than the live
    /// one.
    fn gate(&self, found: u64) -> Result<(), StoreError> {
        let expected = self.cfg.slots.fingerprint();
        if found != expected {
            return Err(StoreError::FingerprintMismatch { expected, found });
        }
        Ok(())
    }

    /// Days with a persisted window file, ascending.
    pub fn window_days(&self) -> Result<Vec<Day>, StoreError> {
        let mut days = Vec::new();
        for entry in std::fs::read_dir(&self.cfg.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name.strip_prefix("window-") else {
                continue;
            };
            let Some(stem) = stem.strip_suffix(".mtw") else {
                continue;
            };
            if let Ok(day) = stem.parse::<u32>() {
                days.push(Day(day));
            }
        }
        days.sort_unstable();
        Ok(days)
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<u64, StoreError> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, path)?;
        Ok(bytes.len() as u64)
    }
}

//! mt-store: the persistent, queryable results store for closed
//! telescope windows.
//!
//! The streaming scheduler closes one day window at a time; this crate
//! turns each closed window into a compact on-disk artifact and keeps
//! the multi-day combination as a *mergeable running summary* instead
//! of re-merging every window from scratch:
//!
//! - [`codec`] — byte primitives: varints, delta-coded ascending id
//!   lists, bitmap words, the FNV-1a and lane checksums, a total
//!   bounds-checked reader that can also check a column without
//!   building its values;
//! - [`mod@format`] — the self-describing file format (magic, the
//!   versions it reads and the one it writes, kind, RIB fingerprint,
//!   checksums) and the [`WindowData`] / [`SummaryData`] payloads with
//!   their incremental [`SummaryData::merge_window`], and the
//!   verdict-only window load [`WindowData::decode_verdicts`];
//! - [`store`] — directory layout and atomic window/summary
//!   persistence, fingerprint-gated reads;
//! - [`query`] — the in-memory slot-indexed [`QueryIndex`] behind
//!   mt-serve's `GET /v1/block/{a.b.c.0}` point lookups and
//!   `GET /v1/windows/{day}/verdicts` range scans, with
//!   [`QueryIndex::cold_load`] from disk;
//! - [`error`] — typed [`StoreError`]s: corrupt or truncated files,
//!   stale-RIB fingerprint mismatches, out-of-order merges.
//!
//! The load-bearing invariant (pinned by `tests/store_equivalence.rs`
//! at the workspace root): a summary reconstructed by loading and
//! merging persisted windows is bit-identical to the in-process
//! multi-day combination.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// The format module's tests share `tests/common`, which names the
// crate as its integration tests do.
#[cfg(test)]
extern crate self as mt_store;

pub mod codec;
pub mod error;
pub mod format;
pub mod query;
pub mod store;

pub use error::StoreError;
pub use format::{reseal, SummaryData, Verdicts, WindowData};
pub use query::{BlockProfile, BlockReport, ColdLoad, QueryIndex, RangeReport};
pub use store::{ResultsStore, StoreConfig};

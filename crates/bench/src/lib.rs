//! Paper-reproduction harness for the meta-telescope workspace.
//!
//! - [`harness`] — scenario setup and the multi-day orchestration that
//!   collects everything the paper's exhibits need;
//! - [`experiments`] — one function per table/figure (see DESIGN.md §4);
//! - [`report`] — plain-text report assembly.
//!
//! The `repro` binary (`src/bin/repro.rs`) drives these. Performance
//! is measured elsewhere: the ledger in `benchmark/` is the repo's only
//! source of numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod report;

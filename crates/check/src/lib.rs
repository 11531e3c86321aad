//! mt-check: workspace-native static analysis for the meta-telescope.
//!
//! The pipeline's headline guarantee — sharded, streamed, and
//! instrumented runs stay *bit-identical* to the serial batch — rests
//! on invariants no stock lint knows about: atomics whose orderings
//! must be argued, library code that must never panic mid-ingest,
//! hot-path crates that must not regress to SipHash maps, pipeline
//! code that must never read a wall clock, a documented metric
//! catalogue that must match what the code registers, and — since the
//! multi-lane rework — the concurrency protocols themselves: a
//! machine-checked lock-order catalogue, whole release/acquire
//! protocols, and no blocking calls under a live guard. This crate
//! enforces all of that offline, with a hand-rolled lexer plus a
//! lightweight brace-matched syntax layer (crates.io, and therefore
//! `syn`, is unavailable here) and no I/O beyond reading the
//! workspace.
//!
//! Three enforcement points share this library:
//!
//! - the `mt-check` binary (`cargo run -p mt-check`) for humans and CI,
//!   with `--json PATH` emitting the validated report document;
//! - the umbrella crate's `tests/static_analysis.rs`, which fails
//!   `cargo test` on any violation and prints the human report;
//! - the CI job, which schema-validates `check_report.json`.
//!
//! Violations are suppressed — never silently — with
//! `// check: allow(<rule>, <reason>)` on the offending line or the
//! line above; an empty reason does not suppress. See DESIGN.md
//! §"Static analysis" for each rule's rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concurrency;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod syntax;
pub mod workspace;

pub use report::{Report, RuleSummary, Suppression, Violation};
pub use rules::{run_all, RULE_DESCRIPTIONS, RULE_IDS};
pub use workspace::{SourceFile, Workspace};

/// Checks the workspace rooted at `root` and returns the report.
pub fn check_root(root: &std::path::Path) -> std::io::Result<Report> {
    Ok(run_all(&Workspace::from_root(root)?))
}

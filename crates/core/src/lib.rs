//! The meta-telescope inference pipeline — the paper's contribution.
//!
//! Given per-/24 aggregates of sampled vantage-point flows (any
//! [`mt_flow::TrafficView`]: flat [`mt_flow::TrafficStats`] or sharded
//! [`mt_flow::ShardedTrafficStats`]), a RIB snapshot, and the
//! special-purpose registry, the [`engine::PipelineEngine`] executes the
//! filtering/classification stages of Section 4.2 and returns the
//! inferred **dark** (meta-telescope prefix), **unclean**, and **gray**
//! /24 sets plus per-stage funnel accounting (Figure 2).
//! [`engine::PipelineEngine::run`] walks the stats serially;
//! [`engine::PipelineEngine::run_sharded`] evaluates shards in parallel
//! with bit-identical results.
//!
//! Around the pipeline:
//! - [`engine`] — the funnel's six filter steps, its [`Funnel`]
//!   accounting, and the serial/sharded traversals;
//! - [`pipeline`] — the thresholds and spoofing rule
//!   ([`PipelineConfig`]) and the output ([`PipelineResult`]);
//! - [`classifier`] — the packet-size fingerprint calibration of
//!   Section 4.1 / Table 3 (median vs average feature, threshold sweep,
//!   confusion matrices);
//! - [`spoofing`] — the spoofing tolerance of Section 7.2: the
//!   [`SpoofRule`] a run is configured with (a fixed count, or the
//!   [`SPOOF_PERCENTILE`] of per-/24 source packets in unrouted /8s,
//!   which the engine estimates on the stats it judges);
//! - [`combine`] — multi-day and multi-vantage-point combination;
//! - [`eval`] — evaluation against ground truth and the activity
//!   datasets (telescope coverage of Table 4, false-positive scrubbing);
//! - [`analysis`] — the measurement analyses of Sections 6 and 8
//!   (geography, network types, prefix index, port profiles);
//! - [`baseline`] — the naive origin-only comparator;
//! - [`render`] — Hilbert-map rendering for Figures 3/5/6;
//! - [`stability`] — day-over-day stability tracking (Section 7.1's
//!   operational recommendation);
//! - [`federate`] — combining inferences from several operators
//!   (Section 9's federated meta-telescopes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod baseline;
pub mod classifier;
pub mod combine;
pub mod engine;
pub mod eval;
pub mod federate;
pub mod pipeline;
pub mod render;
pub mod spoofing;
pub mod stability;

pub use classifier::{ClassifierFeature, ConfusionMatrix};
pub use engine::{Funnel, PipelineEngine, StageCount};
pub use pipeline::{PipelineConfig, PipelineResult};
pub use spoofing::{SpoofRule, SpoofTolerance, SPOOF_PERCENTILE};

//! The pipeline's thresholds and output (Section 4.2, Figure 2).
//!
//! The funnel itself — its steps, its accounting, and both traversals —
//! lives in [`crate::engine`]; run it with
//! [`PipelineEngine::standard().run(..)`](crate::engine::PipelineEngine::run).

use crate::engine::Funnel;
use crate::spoofing::SpoofRule;
use mt_types::Block24Set;

/// Tunable pipeline parameters.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Maximum average TCP packet size (bytes) for a block to remain a
    /// candidate (the paper picks 44 after the Table 3 sweep).
    pub avg_size_threshold: f64,
    /// Maximum estimated *true* packets per /24 per day (the paper's
    /// 1.7 M, scaled 1:1000 in this workspace).
    pub volume_threshold_per_day: f64,
    /// How many sampled source packets a block may emit before it
    /// counts as originating: a fixed count (the default,
    /// `Fixed(0)`, is strict) or Section 7.2's estimate over unrouted
    /// space, which the engine takes on the stats it judges.
    pub spoof_tolerance: SpoofRule,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            avg_size_threshold: 44.0,
            volume_threshold_per_day: 1_700.0,
            spoof_tolerance: SpoofRule::default(),
        }
    }
}

/// The pipeline's output.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Inferred meta-telescope prefixes.
    pub dark: Block24Set,
    /// Candidates with a clean host but also hosts that failed the
    /// per-IP size check.
    pub unclean: Block24Set,
    /// Candidates where some host originated traffic.
    pub gray: Block24Set,
    /// Per-stage accounting.
    pub funnel: Funnel,
    /// The sampled source packets this run forgave per block: the
    /// config's [`SpoofRule`] resolved on the run's stats.
    pub spoof_tolerance: u64,
}

impl PipelineResult {
    /// Total classified candidates (dark + unclean + gray).
    pub fn classified(&self) -> usize {
        self.dark.len() + self.unclean.len() + self.gray.len()
    }
}

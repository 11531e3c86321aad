//! Flow-level plumbing between the traffic generators, the vantage
//! points, and the inference pipeline.
//!
//! The IXPs in the paper export *sampled* IPFIX flows: the switching
//! fabric samples 1-in-N packets, aggregates the samples into flow
//! records, and exports them. This crate models that chain:
//!
//! - [`record`] — [`FlowIntent`] (what a traffic source actually sent:
//!   true packet counts) and [`FlowRecord`] (what the vantage point saw
//!   after sampling), plus lossless conversion to/from the IPFIX-lite
//!   wire format;
//! - [`meter`] — the RFC 7011 metering process: aggregating sampled
//!   packets into flow records with active/idle timeouts (for
//!   packet-level inputs such as replayed pcaps);
//! - [`sampling`] — deterministic 1-in-N packet sampling (binomial
//!   thinning) and re-thinning of already-sampled data, the operation
//!   behind the paper's Figure 10 sub-sampling sweep;
//! - [`stats`] — per-/24 destination and source accumulators: exactly the
//!   aggregates the seven-step inference pipeline consumes (TCP packet
//!   counts and sizes per block and per host, originated-traffic counts,
//!   packet-size distributions for the median/average classifiers), plus
//!   the [`TrafficView`] read abstraction over them;
//! - [`columnar`] — the same aggregates stored struct-of-arrays with
//!   one dense row per *announced* /24 (row = `Slot24Index` slot),
//!   sized for full-IPv4 windows where hashmap-per-block overheads
//!   dominate;
//! - [`export`] — owned, slot-ordered column slices of the same
//!   [`DstBlockStats`]/[`SrcBlockStats`] rows: the snapshot the results
//!   store (mt-store) persists and reloads, with rebuild back to
//!   map-layout stats that merge bit-identically;
//! - [`sharded`] — both representations split over fixed shards
//!   (`/24 % N` for the map layout, contiguous slot ranges for the
//!   columnar layout) for parallel ingest, one shard folded at a time,
//!   and per-shard parallel pipeline evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod columnar;
pub mod export;
mod histogram;
pub mod meter;
pub mod record;
pub mod sampling;
pub mod sharded;
pub mod stats;

pub use columnar::ColumnarStats;
pub use export::ColumnSlices;
pub use histogram::SizeHistogram;
pub use meter::{FlowKey, FlowMeter, MeteredPacket};
pub use record::{FlowIntent, FlowRecord};
pub use sampling::{binomial, Sampler};
pub use sharded::{ShardedTrafficStats, StatsLayout, StatsShard};
pub use stats::{DstBlockStats, DstRef, HostSet, SrcBlockStats, SrcRef, TrafficStats, TrafficView};

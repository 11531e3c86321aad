//! mt-serve: the socket-facing collection daemon.
//!
//! The rest of the workspace ingests flows through in-process function
//! calls; a deployed telescope is fed by independently-operated
//! exporters over the network. This crate closes that gap with a
//! long-running daemon built on one hand-rolled nonblocking epoll event
//! loop (`reactor`; no async runtime, no external crates), run once per
//! ingest shard around the IPFIX handler and once more around the HTTP
//! handler:
//!
//! - **UDP** (RFC 7011 §10.3): one datagram carries whole IPFIX
//!   message(s); torn or garbage datagrams are counted and dropped
//!   without desyncing the peer's session ([`mt_stream`]'s datagram
//!   path). A wake's datagrams from one peer are pushed as one run.
//! - **TCP** (RFC 7011 §10.4): messages framed back to back on the
//!   stream, any chunking, via the existing per-peer
//!   [`StreamCollector`](mt_stream::StreamCollector) sessions.
//! - **HTTP/1.1**: `GET /health` (the accounting-identity snapshot as
//!   JSON), `GET /metrics` (Prometheus text exposition), and the
//!   results store's `GET /v1/block/{addr}` and
//!   `GET /v1/windows/{day}/verdicts` queries, and `GET /v1/events`
//!   (the bounded ring of store quarantines and failed persists),
//!   answered by a minimal
//!   responder on a control loop of its own, never on an ingest loop.
//! - **One exit path**: SIGTERM, a [`ShutdownHandle`] trigger, or any
//!   event loop that fails or panics stops every loop. Each drains
//!   (adopting connections already in its backlog), then the service
//!   finishes — the final windows close and persist — and `run` returns
//!   a quiescent [`StreamOutput`](mt_stream::StreamOutput) whose ledger
//!   identities hold exactly, or, after the same steps, the first loop
//!   error.
//!
//! Records delivered over sockets produce window verdicts bit-identical
//! to an in-process batch run — each event loop is just a producer
//! lane ([`LaneProducer`](mt_stream::LaneProducer)) of one
//! [`MultiStreamService`](mt_stream::MultiStreamService), and all
//! gating stays watermark-driven (simulated time), never
//! wall-clock-driven.
//!
//! All `unsafe` lives in [`sys`], a small audited wrapper over the
//! epoll/signal syscalls; the crate root denies rather than forbids
//! unsafe so that one module can opt in explicitly.

// check: allow(crate_hygiene, "sys is the one audited unsafe module: epoll/signalfd have no std equivalent and the container vendors no libc crate")
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
mod events;
pub mod http;
mod reactor;
pub mod replay;
#[allow(unsafe_code)]
pub mod sys;

pub use daemon::{Daemon, ServeConfig, ServeOutput, ShutdownHandle};
pub use replay::Workload;

//! # pcm-telemetry
//!
//! Observability for the Tetris Write memory hierarchy. The simulator
//! computes per-bank occupancy, queue residency, and write-pause behaviour
//! internally but — before this crate — only the coarse `SimResult`
//! aggregates survived a run. This crate exposes that internal timeline:
//!
//! * [`TelemetryEvent`] — time-stamped events: bank busy/idle transitions,
//!   queue-depth samples, write pause/resume, drain start/stop, and
//!   batch-pack outcomes (lines packed, write units, Write0 jobs stolen
//!   into sub-write-unit slack, current-budget utilization).
//! * [`Telemetry`] — the sink trait the simulator records into. The
//!   default [`NullSink`] is a no-op the optimizer removes from the hot
//!   path; [`JsonlSink`] streams one JSON object per line to any
//!   `io::Write`; [`MemorySink`] collects events in a `Vec` for tests.
//! * [`Counter`] / [`Histogram`] — stdlib-only aggregation primitives
//!   (the histogram uses logarithmic buckets, so percentile queries stay
//!   O(buckets) regardless of sample count).
//! * [`TraceSummary`] — turns a recorded event stream back into per-bank
//!   utilization and queue-depth percentile tables (the `report`
//!   subcommand of `tetris-experiments` renders these).
//!
//! Like the rest of the workspace this crate is stdlib-only, deterministic,
//! and `#![forbid(unsafe_code)]`. Events serialize via
//! [`pcm_types::JsonCodec`], so a `.jsonl` trace is self-describing and
//! greppable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod async_sink;
pub mod event;
pub mod sink;
pub mod stats;
pub mod summary;

pub use async_sink::{read_tagged_events, AsyncRankSink, AsyncTraceWriter};
pub use event::{OpKind, TelemetryEvent, TraceDetail};
pub use sink::{read_events, read_events_str, JsonlSink, MemorySink, NullSink, Telemetry};
pub use stats::{Counter, Histogram};
pub use summary::{percentile, BankUsage, TraceSummary};

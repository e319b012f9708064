//! # pcm-memsim
//!
//! A discrete-event memory-system simulator standing in for the paper's
//! GEM5 + NVMain stack:
//!
//! * [`engine`] — the event queue (picosecond timestamps, deterministic
//!   tie-breaking).
//! * [`cache`] / [`hierarchy`] — set-associative write-back caches and
//!   the 3-level hierarchy of Table II (32 KB L1, 2 MB L2, 32 MB shared L3).
//! * [`replacement`] — the pluggable eviction decision (LRU / Clock / 2Q)
//!   behind both the hierarchy and the write cache, registered in the
//!   [`PolicySelect`] registry.
//! * [`writecache`] — the hybrid DRAM write-cache tier: a fixed frame
//!   budget coalescing dirty lines in front of the controller write
//!   queues, drained in the background past a watermark.
//! * [`cpu`] — trace-driven cores (2 GHz, blocking loads, fire-and-forget
//!   stores with write-queue backpressure).
//! * [`controller`] — the FRFCFS memory controller: separate 32-entry read
//!   and write queues, read priority, and write service **only when the
//!   write queue fills** (drain to a low watermark) — the policy behind the
//!   paper's blackscholes/swaptions write-latency anomaly.
//! * [`sched`] — pluggable write-scheduling policies: adaptive drain
//!   watermarks, least-utilized-first bank steering, and read-priority
//!   windows that bound drain-induced read starvation.
//! * [`bankstate`] — per-bank busy tracking and an open-row buffer model.
//! * [`memory`] — the 4 GB sparse PCM backing store: per-line stored bits,
//!   flip tags and wear, with every write planned by a pluggable
//!   [`pcm_schemes::WriteScheme`].
//! * [`content`] — write-content models: the new-vs-old bit deltas are
//!   synthesized at memory-write time (see DESIGN.md §5), letting workloads
//!   reproduce the paper's Fig. 3 SET/RESET statistics exactly where the
//!   schemes consume them.
//! * [`rank`] — one rank's core: controller, banks, write-cache slice and
//!   address map behind one set of enqueue/drain/complete primitives,
//!   shared by [`System`] and `pcm-serve`'s engine.
//! * [`system`] — wires cores + hierarchy + one rank core and runs to
//!   completion, producing the latency/IPC/runtime statistics of
//!   Figs. 11–14.
//! * [`shard`] — one [`System`] per PCM rank over a partitioned trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bankstate;
pub mod cache;
pub mod config;
pub mod content;
pub mod controller;
pub mod cpu;
pub mod engine;
pub mod hierarchy;
pub mod memory;
pub mod prelude;
pub mod rank;
pub mod replacement;
pub mod request;
pub mod sched;
pub mod shard;
pub mod stats;
pub mod system;
pub mod writecache;

pub use config::{
    CacheConfig, CacheConfigBuilder, ConfigError, ControllerConfig, SystemConfig,
    SystemConfigBuilder, WriteCacheConfig,
};
pub use content::{ExplicitContent, UniformRandomContent, WriteContent};
pub use controller::{MemoryController, ReadEnqueue};
pub use cpu::{Core, RequestSource, TraceOp, VecTrace};
pub use memory::{BatchOutcome, PcmMainMemory, WriteOutcome};
pub use pcm_schemes::{SchemeConfig, SchemeSelect, WriteCtx, WriteScheme};
pub use rank::{CachedWrite, RankCore};
pub use replacement::{ParsePolicyError, PolicySelect, ReplacementPolicy};
pub use request::{AccessKind, MemRequest};
pub use sched::{SchedConfig, SchedPolicy, WindowPoll};
pub use shard::{Rank, RankPlan, ShardedSystem};
pub use stats::{LatencyStats, SimResult};
pub use system::{System, TraceLevel};
pub use writecache::{WriteAdmit, WriteCache, WriteCacheStats};

//! One-stop imports for driving the simulator.
//!
//! The workspace splits the stack across several crates (types, schemes,
//! the Tetris scheduler, telemetry, the simulator itself); a typical
//! experiment or example needs a handful of names from each. Instead of
//! five `use` blocks, pull in the prelude:
//!
//! ```
//! use pcm_memsim::prelude::*;
//!
//! let cfg = SystemConfig::builder().small_caches().build().unwrap();
//! let scheme: Box<dyn WriteScheme> = Box::new(DcwWrite);
//! assert_eq!(scheme.name(), "DCW (baseline)");
//! assert!(cfg.validate().is_ok());
//! ```
//!
//! The prelude re-exports only names that are unambiguous across the
//! workspace; crate-specific detail (cache internals, the event engine,
//! analytic models) stays behind its module path.

pub use crate::config::{
    CacheConfig, CacheConfigBuilder, ConfigError, ControllerConfig, SystemConfig,
    SystemConfigBuilder, WriteCacheConfig,
};
pub use crate::content::{ExplicitContent, UniformRandomContent, WriteContent};
pub use crate::cpu::{RequestSource, TraceOp, VecTrace};
pub use crate::memory::{BatchOutcome, PcmMainMemory, WriteOutcome};
pub use crate::replacement::{ParsePolicyError, PolicySelect, ReplacementPolicy};
pub use crate::request::{AccessKind, MemRequest};
pub use crate::sched::SchedConfig;
pub use crate::shard::{Rank, RankPlan, ShardedSystem};
pub use crate::stats::{LatencyStats, SimResult};
pub use crate::system::{System, TraceLevel};
pub use crate::writecache::{WriteAdmit, WriteCache, WriteCacheStats};

pub use pcm_schemes::{
    ConventionalWrite, DcwWrite, FlipNWrite, PreSetWrite, SchemeConfig, SchemeConfigBuilder,
    SchemeSelect, ThreeStageWrite, TwoStageWrite, WriteCtx, WritePlan, WriteScheme,
};

pub use pcm_telemetry::{
    AsyncRankSink, AsyncTraceWriter, JsonlSink, MemorySink, NullSink, OpKind, Telemetry,
    TelemetryEvent, TraceDetail, TraceSummary,
};

pub use pcm_types::{
    LineData, LineDemand, PcmError, PcmTimings, PhysAddr, PicoJoules, PowerParams, Ps, UnitDemand,
};

pub use tetris_write::{analyze, render_gantt, TetrisConfig, TetrisWrite};

//! Deterministic load generation: open-loop (arrivals keep coming no
//! matter how the system responds — the right model for measuring tail
//! latency and shed rate under overload) and closed-loop (N users each
//! wait for their previous request before thinking and issuing the next —
//! the right model for interactive clients).
//!
//! Both generators draw from [`pcm_types::rng::SmallRng`], so a seed
//! fully determines the request stream. The open-loop generator is a
//! plain iterator of [`WireRequest`]s and can feed a local
//! [`ServeEngine`], a TCP connection, or a request file; the closed-loop
//! driver needs completion feedback and therefore runs an engine
//! directly.

use crate::engine::{Admission, ServeEngine};
use crate::proto::WireRequest;
use pcm_memsim::AccessKind;
use pcm_types::rng::{Rng, SmallRng};
use pcm_types::{PcmError, Ps};
use std::collections::{BTreeMap, BTreeSet};

/// Knobs for the open-loop arrival process.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopConfig {
    /// RNG seed; the stream is a pure function of this config.
    pub seed: u64,
    /// Total requests to emit.
    pub requests: u64,
    /// Number of tenants (round-robin ids `0..tenants`).
    pub tenants: u32,
    /// Mean inter-arrival gap in nanoseconds (exponentially distributed).
    pub mean_gap_ns: u64,
    /// Probability a request arrives back-to-back with its predecessor
    /// (gap 0), modelling bursty arrivals on top of the Poisson base.
    pub burstiness: f64,
    /// Probability a request is a write.
    pub write_frac: f64,
    /// Probability a request targets tenant 0 regardless of the uniform
    /// tenant draw (a hot-tenant skew knob; 0.0 = uniform mix).
    pub hot_frac: f64,
    /// Per-tenant working-set size in cache lines; tenants address
    /// disjoint windows so per-tenant SLOs reflect real contention, not
    /// address aliasing.
    pub working_set_lines: u64,
    /// Cache-line size in bytes (addresses are line-aligned).
    pub line_bytes: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            seed: 1,
            requests: 4_096,
            tenants: 2,
            mean_gap_ns: 100,
            burstiness: 0.1,
            write_frac: 0.3,
            hot_frac: 0.0,
            working_set_lines: 1 << 16,
            line_bytes: 64,
        }
    }
}

/// The open-loop request stream (an iterator of [`WireRequest`]s).
pub struct OpenLoop {
    cfg: OpenLoopConfig,
    rng: SmallRng,
    emitted: u64,
    at_ns: u64,
}

impl OpenLoop {
    /// A stream fully determined by `cfg` (including its seed).
    pub fn new(cfg: OpenLoopConfig) -> Self {
        OpenLoop {
            rng: SmallRng::seed_from_u64(cfg.seed),
            cfg,
            emitted: 0,
            at_ns: 0,
        }
    }
}

impl Iterator for OpenLoop {
    type Item = WireRequest;

    fn next(&mut self) -> Option<WireRequest> {
        if self.emitted >= self.cfg.requests {
            return None;
        }
        let gap_ns = if self.rng.gen_bool(self.cfg.burstiness) {
            0
        } else {
            // Inverse-transform exponential draw; u ∈ [0, 1) keeps the
            // argument of ln strictly positive.
            let u: f64 = self.rng.gen();
            (-(1.0 - u).ln() * self.cfg.mean_gap_ns as f64) as u64
        };
        self.at_ns += gap_ns;
        let tenant = if self.cfg.hot_frac > 0.0 && self.rng.gen_bool(self.cfg.hot_frac) {
            0
        } else {
            self.rng.gen_range(0..self.cfg.tenants.max(1))
        };
        let kind = if self.rng.gen_bool(self.cfg.write_frac) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let ws = self.cfg.working_set_lines.max(1);
        let line = self.rng.gen_range(0..ws);
        let addr = (u64::from(tenant) * ws + line) * self.cfg.line_bytes;
        let id = self.emitted;
        self.emitted += 1;
        Some(WireRequest {
            id,
            tenant,
            kind,
            addr,
            at_ns: self.at_ns,
        })
    }
}

/// Feed an entire open-loop stream into a local engine and drain it.
pub fn run_open_loop(engine: &mut ServeEngine, cfg: OpenLoopConfig) -> Result<(), PcmError> {
    for r in OpenLoop::new(cfg) {
        engine.submit(r.tenant, r.kind, r.addr, Ps::from_ns(r.at_ns))?;
    }
    engine.drain()
}

/// Knobs for the closed-loop user population.
#[derive(Clone, Copy, Debug)]
pub struct ClosedLoopConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of simulated users.
    pub users: u32,
    /// Requests each user completes before leaving.
    pub requests_per_user: u64,
    /// Think time between a completion and the user's next request, in
    /// nanoseconds (also the retry backoff after a shed).
    pub think_ns: u64,
    /// Tenants; user `u` belongs to tenant `u % tenants`.
    pub tenants: u32,
    /// Probability a request is a write.
    pub write_frac: f64,
    /// Per-user working-set size in cache lines.
    pub working_set_lines: u64,
    /// Cache-line size in bytes.
    pub line_bytes: u64,
}

impl Default for ClosedLoopConfig {
    fn default() -> Self {
        ClosedLoopConfig {
            seed: 1,
            users: 8,
            requests_per_user: 64,
            think_ns: 200,
            tenants: 2,
            write_frac: 0.25,
            working_set_lines: 1 << 14,
            line_bytes: 64,
        }
    }
}

/// Outcome counters for one closed-loop run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClosedLoopStats {
    /// Requests completed across all users.
    pub completed: u64,
    /// Shed responses absorbed (each retried after one think time).
    pub shed_retries: u64,
}

/// The closed-loop driver. Users are scheduled from a `BTreeSet` keyed
/// `(ready-time, user)`, so the interleaving — and therefore the entire
/// simulation — is deterministic for a given seed.
pub struct ClosedLoop {
    cfg: ClosedLoopConfig,
    rng: SmallRng,
}

impl ClosedLoop {
    /// A driver fully determined by `cfg` (including its seed).
    pub fn new(cfg: ClosedLoopConfig) -> Self {
        ClosedLoop {
            rng: SmallRng::seed_from_u64(cfg.seed),
            cfg,
        }
    }

    /// Run every user to completion against `engine`.
    ///
    /// Each user repeats: think → submit → wait for the completion. A
    /// shed response costs one think time and the slot is retried; the
    /// engine's idle-drain (see [`ServeEngine::step`]) guarantees parked
    /// writes eventually clear, so retries terminate.
    pub fn run(mut self, engine: &mut ServeEngine) -> Result<ClosedLoopStats, PcmError> {
        let users = self.cfg.users.max(1);
        let tenants = self.cfg.tenants.max(1);
        let think = Ps::from_ns(self.cfg.think_ns);
        let ws = self.cfg.working_set_lines.max(1);
        let mut ready: BTreeSet<(Ps, u32)> = (0..users).map(|u| (Ps::ZERO, u)).collect();
        let mut remaining = vec![self.cfg.requests_per_user; users as usize];
        let mut waiting: BTreeMap<u64, u32> = BTreeMap::new();
        let mut stats = ClosedLoopStats::default();
        while !ready.is_empty() || !waiting.is_empty() {
            // Submit every user whose think time has elapsed. When no one
            // is blocked in the engine, also admit the earliest future
            // user (the engine clamps the clock forward).
            while let Some(&(t, u)) = ready.iter().next() {
                if t > engine.now() && !waiting.is_empty() {
                    break;
                }
                ready.remove(&(t, u));
                let tenant = u % tenants;
                let kind = if self.rng.gen_bool(self.cfg.write_frac) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let addr = (u64::from(u) * ws + self.rng.gen_range(0..ws)) * self.cfg.line_bytes;
                match engine.submit(tenant, kind, addr, t)? {
                    Admission::Accepted { id } => {
                        waiting.insert(id, u);
                    }
                    Admission::Shed { .. } => {
                        stats.shed_retries += 1;
                        ready.insert((engine.now() + think, u));
                        if waiting.is_empty() {
                            // Nothing in flight to unblock the queue:
                            // step once so the idle-drain makes progress.
                            engine.step();
                        }
                    }
                }
            }
            for c in engine.take_completions() {
                if let Some(u) = waiting.remove(&c.id) {
                    stats.completed += 1;
                    remaining[u as usize] -= 1;
                    if remaining[u as usize] > 0 {
                        ready.insert((c.at + think, u));
                    }
                }
            }
            if !waiting.is_empty() {
                engine.step();
            }
        }
        engine.drain()?;
        for c in engine.take_completions() {
            if waiting.remove(&c.id).is_some() {
                stats.completed += 1;
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use pcm_telemetry::NullSink;

    fn small_system(ranks: u32) -> ServeConfig {
        ServeConfig {
            system: pcm_memsim::SystemConfig::builder()
                .small_caches()
                .ranks(ranks)
                .build()
                .unwrap(),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn open_loop_stream_is_seed_deterministic() {
        let cfg = OpenLoopConfig {
            requests: 256,
            ..OpenLoopConfig::default()
        };
        let a: Vec<_> = OpenLoop::new(cfg).collect();
        let b: Vec<_> = OpenLoop::new(cfg).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 256);
        assert!(
            a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns),
            "monotone arrivals"
        );
        assert!(a.iter().any(|r| r.tenant == 0) && a.iter().any(|r| r.tenant == 1));
        assert!(a.iter().any(|r| r.kind == AccessKind::Write));
    }

    #[test]
    fn hot_fraction_skews_the_tenant_mix() {
        let cfg = OpenLoopConfig {
            requests: 2_048,
            tenants: 4,
            hot_frac: 0.9,
            ..OpenLoopConfig::default()
        };
        let hot = OpenLoop::new(cfg).filter(|r| r.tenant == 0).count();
        assert!(hot > 1_600, "tenant 0 should dominate, got {hot}/2048");
    }

    #[test]
    fn open_loop_serves_through_the_engine() {
        let mut engine = ServeEngine::new(small_system(2), Box::new(NullSink)).unwrap();
        let cfg = OpenLoopConfig {
            requests: 1_024,
            mean_gap_ns: 200,
            ..OpenLoopConfig::default()
        };
        run_open_loop(&mut engine, cfg).unwrap();
        let s = engine.stats();
        assert_eq!(s.served + s.shed, 1_024);
        assert!(s.served > 0);
    }

    #[test]
    fn closed_loop_users_all_finish() {
        let mut engine = ServeEngine::new(small_system(1), Box::new(NullSink)).unwrap();
        let load = ClosedLoopConfig {
            users: 4,
            requests_per_user: 32,
            ..ClosedLoopConfig::default()
        };
        let stats = ClosedLoop::new(load).run(&mut engine).unwrap();
        assert_eq!(stats.completed, 4 * 32);
        assert!(engine.now() > Ps::ZERO);
    }

    /// A clonable sink whose event log outlives the engine that owns it.
    #[derive(Clone, Default)]
    struct SharedSink(std::rc::Rc<std::cell::RefCell<Vec<pcm_telemetry::TelemetryEvent>>>);

    impl pcm_telemetry::Telemetry for SharedSink {
        fn detail(&self) -> Option<pcm_telemetry::TraceDetail> {
            Some(pcm_telemetry::TraceDetail::Fine)
        }
        fn record(&mut self, ev: &pcm_telemetry::TelemetryEvent) {
            self.0.borrow_mut().push(ev.clone());
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn closed_loop_same_seed_is_byte_identical() {
        let run = || {
            let sink = SharedSink::default();
            let mut engine = ServeEngine::new(small_system(2), Box::new(sink.clone())).unwrap();
            let load = ClosedLoopConfig {
                users: 6,
                requests_per_user: 24,
                ..ClosedLoopConfig::default()
            };
            let stats = ClosedLoop::new(load).run(&mut engine).unwrap();
            let events = sink.0.borrow().clone();
            let report = crate::report::SloReport::from_events(&events).render();
            (stats, events, report)
        };
        let (s1, e1, r1) = run();
        let (s2, e2, r2) = run();
        assert_eq!(s1, s2);
        assert_eq!(e1, e2, "telemetry stream is bit-identical across runs");
        assert_eq!(r1, r2, "rendered report is byte-identical across runs");
        assert_eq!(s1.completed, 6 * 24);
        assert!(r1.starts_with("tenant"), "report renders: {r1}");
    }

    #[test]
    fn closed_loop_terminates_under_forced_shedding() {
        let mut cfg = small_system(1);
        cfg.shed_watermark = 2;
        let mut engine = ServeEngine::new(cfg, Box::new(NullSink)).unwrap();
        let load = ClosedLoopConfig {
            users: 8,
            requests_per_user: 16,
            think_ns: 10,
            write_frac: 1.0,
            ..ClosedLoopConfig::default()
        };
        let stats = ClosedLoop::new(load).run(&mut engine).unwrap();
        assert_eq!(stats.completed, 8 * 16, "every user finishes despite sheds");
    }
}

//! The monitor's benchmark: three workloads that load the serving paths
//! end to end, and a traced run that attributes their time to layers.
//!
//! * `socket_closed` — two closed-loop TCP clients against the ingress
//!   service ([`socket`]);
//! * `fleet_f32` / `fleet_int8` — 64 lockstep sessions over the sharded
//!   pool with a reactor per session ([`fleet`]).
//!
//! Every decision is checked bit-equal against a sequential
//! `InferenceEngine` reference computed before timing ([`setup`]). The
//! traced run adds the single-layer measurements of [`layers`] and keeps
//! spans in memory ([`trace`]) until the run ends. See `README.md` for the
//! metrics and which end-to-end number each layer metric should move.

use std::time::Duration;

use context_monitor::Precision;
use kinematics::Vec3;
use raven_sim::{ArmCommand, Commands};
use reactor::ReactorConfig;

pub mod fleet;
pub mod layers;
pub mod report;
pub mod setup;
pub mod socket;
pub mod trace;

/// Shard workers of every pool, one per host core.
pub const WORKERS: usize = 2;

/// Decision deadline: one kinematic frame at 30 Hz.
pub const DEADLINE: Duration = Duration::from_micros(33_300);

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two closed-loop TCP clients, f32.
    SocketClosed,
    /// 64 lockstep pool sessions, f32.
    FleetF32,
    /// 64 lockstep pool sessions, int8.
    FleetInt8,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::SocketClosed, Workload::FleetF32, Workload::FleetInt8];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SocketClosed => "socket_closed",
            Workload::FleetF32 => "fleet_f32",
            Workload::FleetInt8 => "fleet_int8",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The numeric tier its sessions infer at.
    pub fn tier(self) -> Precision {
        match self {
            Workload::FleetInt8 => Precision::Int8,
            Workload::SocketClosed | Workload::FleetF32 => Precision::F32,
        }
    }
}

/// The robot-side reactor every session's decisions go to.
pub fn reactor_config(tier: Precision) -> ReactorConfig {
    ReactorConfig { threshold: setup::THRESHOLD, precision: tier, ..ReactorConfig::default() }
}

/// A fixed setpoint for the reactor's command gate.
pub fn hold_commands() -> Commands {
    let arm =
        ArmCommand { position: Vec3::new(0.0, 0.0, 0.0), grasper: 0.0, euler: (0.0, 0.0, 0.0) };
    Commands { arms: [arm; 2] }
}

/// What one load phase measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Frames sent in the measured phase.
    pub ops: u64,
    /// Of those, frames whose decision was wrong, missing or late.
    pub failed: u64,
    /// Decisions not bit-equal to the reference (whole phase).
    pub mismatches: u64,
    /// Socket, protocol or routing errors (whole phase).
    pub errors: u64,
    /// Measured decisions that missed the 33.3 ms deadline.
    pub late: u64,
    /// Decisions received (whole phase, warm-up included).
    pub decisions: u64,
    /// Warm decisions in the measured phase.
    pub warm: u64,
    /// Latency of each warm measured decision, ms.
    pub latency_ms: Vec<f64>,
    /// The same decisions' own `compute_ms`.
    pub compute_ms: Vec<f64>,
    /// When each of them was sent, s after the measured phase began.
    pub sent_at_s: Vec<f64>,
    /// Length of the measured phase, s.
    pub elapsed_s: f64,
    /// Decisions the reactors applied (whole phase).
    pub reactor_applied: u64,
    /// Measured ticks a reactor failed safe for want of a decision.
    pub reactor_misses: u64,
    /// Sessions (demo streams) started.
    pub sessions: u64,
    /// Spans, when traced.
    pub tracer: trace::Tracer,
}

impl Outcome {
    /// An empty outcome with room for `samples` latency samples, touched
    /// up front: the buffers neither reallocate nor fault pages in during
    /// the load, so peak RSS does not depend on how many samples the host
    /// let the run take.
    pub fn reserved(samples: usize, tracer: trace::Tracer) -> Self {
        let room = || {
            // A non-zero fill: zeroed memory would come from calloc
            // without faulting its pages in.
            let mut v = vec![-1.0; samples];
            v.clear();
            v
        };
        Self {
            latency_ms: room(),
            compute_ms: room(),
            sent_at_s: room(),
            tracer,
            ..Self::default()
        }
    }

    /// Adds another generator thread's counts and samples.
    pub fn merge(&mut self, o: Outcome) {
        self.ops += o.ops;
        self.failed += o.failed;
        self.mismatches += o.mismatches;
        self.errors += o.errors;
        self.late += o.late;
        self.decisions += o.decisions;
        self.warm += o.warm;
        self.latency_ms.extend(o.latency_ms);
        self.compute_ms.extend(o.compute_ms);
        self.sent_at_s.extend(o.sent_at_s);
        self.reactor_applied += o.reactor_applied;
        self.reactor_misses += o.reactor_misses;
        self.sessions += o.sessions;
        if o.tracer.is_on() && !self.tracer.is_on() {
            self.tracer = trace::Tracer::on(o.tracer.count());
        }
        self.tracer.absorb(o.tracer);
    }

    /// Each sampled decision's latency minus its own compute time, ms.
    pub fn wait_ms(&self) -> Vec<f64> {
        self.latency_ms.iter().zip(&self.compute_ms).map(|(l, c)| l - c).collect()
    }

    /// Warm decisions per second of the measured phase.
    pub fn rate(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.warm as f64 / self.elapsed_s
        } else {
            0.0
        }
    }
}

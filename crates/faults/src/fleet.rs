//! Fleet-scale closed loop: N concurrent guarded procedures riding **one**
//! shared [`ShardedMonitorPool`], with deadline-gated fail-safe decisions.
//!
//! [`run_closed_loop_campaign`](crate::run_closed_loop_campaign) closes the
//! loop for a single simulated robot: each monitored twin owns a private
//! `InferenceEngine`. This module is the production topology the ROADMAP
//! asks for — a *fleet* of simulated procedures multiplexed over one
//! sharded serving pool:
//!
//! ```text
//!   trial 0 ─ plan → fault → PooledReactor ─ apply ─┐
//!   trial 1 ─ plan → fault → PooledReactor ─ apply ─┤ lockstep tick
//!   …                                               │
//!        frames ──────────────► ShardedMonitorPool (shards)
//!        decisions ◄──────────── drain (barrier or per-tick deadline)
//! ```
//!
//! Each fleet tick, every live trial advances one physics step
//! ([`BlockTransferSim::step`]), its logged frame is submitted to the pool,
//! and the pool is drained — with a blocking barrier
//! ([`FleetConfig::tick_budget_ms`] `= None`, the deterministic default) or
//! a wall-clock deadline budget. A decision that misses its tick trips the
//! [`PooledReactor`] fail-safe: the trial's commands hold at the last
//! un-gated setpoint (never an unexamined plan command) until the late
//! decision arrives, and the miss is counted.
//!
//! **Determinism guarantee:** with the barrier drain, the fleet campaign's
//! [`ClosedLoopReport`] is bit-identical across pool worker counts and
//! fleet sizes, *and* bit-identical to the single-robot
//! `run_closed_loop_campaign` for the same configuration — the pool's
//! decisions are bit-exact to a sequential engine, and both reactor shapes
//! share one `AlertGate` state machine. CI enforces this via
//! `repro_fleet --smoke`.

use crate::campaign::{grid_work, sample_spec, table3_grid, tally_closed_loop};
use crate::campaign::{ClosedLoopConfig, ClosedLoopReport, GridCell, TwinOutcome};
use crate::run_injection;
use crate::spec::FaultInjector;
use context_monitor::serve::{Decision, ServeConfig, ShardedMonitorPool};
use context_monitor::{PoolStats, TrainedPipeline};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use raven_sim::{BlockTransferSim, CommandFilter, Commands, FailureMode, SimConfig};
use reactor::{ConfigError, Guarded, PooledReactor, ReactorConfig};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Derives one monitored trial from a `(cell, seed)` work item: the same
/// rng → spec → sim seeding as the unmonitored baselines, shared by the
/// campaign and the drill so the two can never diverge on what a "trial"
/// is.
///
/// # Errors
///
/// [`ConfigError`] when `reactor_cfg` fails [`ReactorConfig::validate`]
/// (callers pre-validate against the pipeline, so this propagates rather
/// than fires in practice).
fn make_guarded_trial(
    grid: &[GridCell],
    ci: usize,
    seed: u64,
    sim: SimConfig,
    reactor_cfg: ReactorConfig,
    deadline_ticks: usize,
) -> Result<(BlockTransferSim, Guarded<FaultInjector, PooledReactor>), ConfigError> {
    let mut trial_rng = SmallRng::seed_from_u64(seed);
    // lint: allow(panic, reason = "ci is produced by grid_work over this same grid, in-range by construction")
    let spec = sample_spec(&grid[ci], &mut trial_rng);
    Ok((
        BlockTransferSim::new(&SimConfig { seed, ..sim }),
        Guarded::new(FaultInjector::new(spec), PooledReactor::new(reactor_cfg, deadline_ticks)?),
    ))
}

/// Drains one serving tick into `decisions` (cleared first): a blocking
/// barrier when `budget_ms` is `None`, a wall-clock deadline otherwise —
/// the one drain path both the campaign and the drill ride.
fn drain_serving_tick(
    pool: &mut ShardedMonitorPool,
    budget_ms: Option<f32>,
    decisions: &mut Vec<Decision>,
) {
    decisions.clear();
    match budget_ms {
        // The deterministic serving tick: a barrier guarantees every
        // decision rides the tick it was submitted in.
        None => pool.flush_into(decisions),
        // The deadline-gated serving tick: whatever the pool delivers
        // inside the budget is applied now; the rest arrives late and
        // trips the per-trial fail-safe.
        Some(ms) => {
            let deadline = Instant::now() + Duration::from_secs_f32(ms.max(0.0) / 1e3);
            let _ = pool.drain_deadline(deadline, decisions);
        }
    }
}

/// Configuration of the fleet campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Grid, seed derivation, scale, baseline threads, and the reactor
    /// configuration every guarded procedure runs.
    pub closed_loop: ClosedLoopConfig,
    /// Shard worker threads of the shared serving pool (clamped to ≥ 1).
    pub workers: usize,
    /// Concurrent guarded procedures per wave — the pool's session count
    /// (clamped to ≥ 1).
    pub fleet: usize,
    /// Allowed decision lag in ticks beyond the structural one-tick sensing
    /// delay before a trial fails safe (see
    /// [`PooledReactor`]). `0` = the decision for frame `t-1` must be
    /// drained before tick `t` actuates.
    pub deadline_ticks: usize,
    /// Per-tick drain budget in milliseconds. `None` (default) drains with
    /// a blocking barrier — every decision rides its tick, which is what
    /// makes the report bit-identical across worker counts. `Some(ms)`
    /// drains on a wall-clock deadline: decisions that miss it trip the
    /// fail-safe and are applied late (outcomes then depend on host
    /// timing — use for load/fail-safe drills, not for reproducible
    /// reports).
    pub tick_budget_ms: Option<f32>,
}

impl FleetConfig {
    /// A deterministic (barrier-drained) fleet over `workers` shards and
    /// `fleet` concurrent procedures.
    pub fn barrier(closed_loop: ClosedLoopConfig, workers: usize, fleet: usize) -> Self {
        Self { closed_loop, workers, fleet, deadline_ticks: 0, tick_budget_ms: None }
    }
}

/// Serving-side accounting of a fleet campaign: how the reaction-time
/// margin decomposes into compute vs. queueing, and how often the deadline
/// gate had to fail safe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetStats {
    /// Guarded procedures run.
    pub trials: usize,
    /// Frames submitted across all trials.
    pub frames: usize,
    /// Ticks (across all trials) whose commands were fail-safe-held
    /// because their gating decision missed the deadline. Always 0 with
    /// the barrier drain.
    pub deadline_misses: usize,
    /// Pool latency decomposition: per-decision compute and
    /// ingress-to-egress queueing.
    pub pool: PoolStats,
}

/// Runs the closed-loop twin-run campaign with every monitored twin served
/// by **one shared pool**: baselines run exactly like
/// [`run_closed_loop_campaign`](crate::run_closed_loop_campaign) (same
/// seeds, same specs — trial-for-trial the open-loop campaign), monitored
/// twins run in waves of [`FleetConfig::fleet`] concurrent procedures in
/// lockstep over the pool's serving tick.
///
/// Returns the [`ClosedLoopReport`] (bit-identical across worker counts
/// under the barrier drain) plus the fleet's serving stats.
///
/// # Errors
///
/// [`ConfigError`] when the reactor configuration is invalid for
/// `pipeline` — one bad sweep point fails this call, not the process.
pub fn run_fleet_campaign(
    cfg: &FleetConfig,
    pipeline: &Arc<TrainedPipeline>,
) -> Result<(ClosedLoopReport, FleetStats), ConfigError> {
    let reactor_cfg = cfg.closed_loop.reactor;
    reactor_cfg.validate_for(pipeline)?;
    let grid = table3_grid();
    let work = grid_work(&grid, &cfg.closed_loop.campaign);
    let sim = cfg.closed_loop.campaign.sim;

    // Unmonitored twins: the counterfactuals, same parallel path as the
    // single-robot campaign.
    let baselines: Vec<(Option<FailureMode>, Option<usize>)> = context_monitor::serve::parallel_map(
        &work,
        cfg.closed_loop.campaign.threads.max(1),
        |&(ci, seed)| {
            let mut trial_rng = SmallRng::seed_from_u64(seed);
            // lint: allow(panic, reason = "ci is produced by grid_work over this same grid, in-range by construction")
            let spec = sample_spec(&grid[ci], &mut trial_rng);
            let sim_cfg = SimConfig { seed, ..sim };
            let (trial, _) = run_injection(&sim_cfg, spec);
            (trial.outcome.failure, trial.outcome.error_tick)
        },
    );

    // Monitored twins: waves of concurrent procedures over one shared pool.
    let fleet = cfg.fleet.max(1);
    let mut pool = ShardedMonitorPool::with_sessions(
        Arc::clone(pipeline),
        reactor_cfg.mode,
        ServeConfig {
            workers: cfg.workers.max(1),
            threshold: reactor_cfg.threshold,
            precision: reactor_cfg.precision,
        },
        fleet,
    );

    let mut outcomes: Vec<TwinOutcome> = Vec::with_capacity(work.len());
    let mut decisions: Vec<Decision> = Vec::new();
    let mut deadline_misses = 0usize;
    let mut frames = 0usize;
    // Baselines were computed over `work` in order; waves consume them in
    // the same order, so this pairing can never misalign.
    let mut baseline_iter = baselines.into_iter();

    for wave in work.chunks(fleet) {
        let mut sims: Vec<BlockTransferSim> = Vec::with_capacity(wave.len());
        let mut guards: Vec<Guarded<FaultInjector, PooledReactor>> = Vec::with_capacity(wave.len());
        for &(ci, seed) in wave {
            let (sim_run, guard) =
                make_guarded_trial(&grid, ci, seed, sim, reactor_cfg, cfg.deadline_ticks)?;
            sims.push(sim_run);
            guards.push(guard);
        }

        let ticks = sims.first().map_or(0, BlockTransferSim::ticks); // shared hz × duration
        for _ in 0..ticks {
            for (s, (sim_run, guard)) in sims.iter_mut().zip(guards.iter_mut()).enumerate() {
                let frame = sim_run.step(guard);
                // Non-Perfect mode was validated above, the sole way submit
                // can fail — surface it as the config error it is.
                pool.submit(s, frame).map_err(|_| ConfigError::PerfectContext)?;
                frames += 1;
            }
            drain_serving_tick(&mut pool, cfg.tick_budget_ms, &mut decisions);
            for d in &decisions {
                // lint: allow(panic, reason = "a decision routed to an out-of-range session is a pool bug; fail loud, never misroute a gating decision")
                guards[d.session].reactor.on_decision(d);
            }
        }

        // Budget mode can end the wave with stragglers still in flight:
        // drain them so every decision is applied (exactly once) and the
        // sessions can be reset cleanly.
        decisions.clear();
        pool.flush_into(&mut decisions);
        for d in &decisions {
            // lint: allow(panic, reason = "a decision routed to an out-of-range session is a pool bug; fail loud, never misroute a gating decision")
            guards[d.session].reactor.on_decision(d);
        }

        for (((sim_done, guard), &(cell, _seed)), baseline) in
            sims.into_iter().zip(guards).zip(wave).zip(baseline_iter.by_ref())
        {
            let trial = sim_done.finish();
            let gate = guard.reactor.gate();
            deadline_misses += guard.reactor.deadline_misses();
            outcomes.push(TwinOutcome {
                cell,
                baseline_failure: baseline.0,
                baseline_error_tick: baseline.1,
                monitored_failure: trial.outcome.failure,
                first_alert_tick: gate.first_alert_tick(),
                engaged_tick: gate.engaged_tick(),
                ticks_gated: gate.ticks_gated(),
            });
        }
        for s in 0..wave.len() {
            pool.reset_session(s);
        }
    }

    let stats = FleetStats { trials: work.len(), frames, deadline_misses, pool: pool.stats() };
    Ok((tally_closed_loop(&grid, outcomes, sim.hz, reactor_cfg), stats))
}

/// Per-trial result of an elastic wave ([`run_elastic_wave`]): the
/// deterministic fields of the trial's closed loop plus its warm
/// decision keys, comparable bit-for-bit across fleet shapes.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticOutcome {
    /// Ticks this trial ran (its own duration — trials differ).
    pub ticks: usize,
    /// Failure observed by the monitored run, if any.
    pub monitored_failure: Option<FailureMode>,
    /// First alert tick of the trial's gate.
    pub first_alert_tick: Option<usize>,
    /// Tick mitigation engaged, if it did.
    pub engaged_tick: Option<usize>,
    /// Ticks spent gated.
    pub ticks_gated: usize,
    /// `(frame, gesture index, score bits, alert)` of every warm
    /// decision, in frame order — the bit-equality payload.
    pub decision_keys: Vec<(usize, usize, u32, bool)>,
}

/// Serving-side accounting of an elastic wave.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticStats {
    /// Trials run (one per duration entry).
    pub trials: usize,
    /// Frames submitted across all trials.
    pub frames: usize,
    /// Most sessions live at once (≤ [`FleetConfig::fleet`]).
    pub peak_live: usize,
    /// Session ids the pool handed out — equals `trials`: every trial got
    /// a fresh session, finished ones were removed, slots recycled.
    pub sessions_opened: usize,
    /// Per-shard live-session occupancy after the wave — all zeros when
    /// every trial drained cleanly.
    pub final_occupancy: Vec<usize>,
}

/// Runs a **variable-length** trial cohort through one pool with elastic
/// session membership: at most [`FleetConfig::fleet`] trials run
/// concurrently in lockstep, each lasting `durations_s[i]` seconds of
/// sim time. When a trial ends, its session is **removed** from the pool
/// ([`ShardedMonitorPool::remove_session`]) and the freed slot admits
/// the next pending trial — the fixed-wave chunking of
/// [`run_fleet_campaign`] (which pads every wave to the longest trial)
/// is replaced by drain-and-readmit.
///
/// With the barrier drain (the default), every trial's
/// [`ElasticOutcome`] is **bit-identical** regardless of fleet size,
/// worker count, or which sessions it shared the pool with — the
/// elasticity machinery (occupancy-based placement, slot recycling) is
/// invisible in the decisions. The `faults::fleet` test suite pins this
/// against solo runs.
///
/// # Errors
///
/// [`ConfigError`] when the reactor configuration is invalid for
/// `pipeline`.
pub fn run_elastic_wave(
    cfg: &FleetConfig,
    pipeline: &Arc<TrainedPipeline>,
    durations_s: &[f32],
) -> Result<(Vec<ElasticOutcome>, ElasticStats), ConfigError> {
    let reactor_cfg = cfg.closed_loop.reactor;
    reactor_cfg.validate_for(pipeline)?;
    let grid = table3_grid();
    let work = grid_work(&grid, &cfg.closed_loop.campaign);
    let base_sim = cfg.closed_loop.campaign.sim;
    let fleet = cfg.fleet.max(1);

    let mut pool = ShardedMonitorPool::new(
        Arc::clone(pipeline),
        reactor_cfg.mode,
        ServeConfig {
            workers: cfg.workers.max(1),
            threshold: reactor_cfg.threshold,
            precision: reactor_cfg.precision,
        },
    );

    struct Live {
        trial: usize,
        session: usize,
        ticks: usize,
        stepped: usize,
        sim: BlockTransferSim,
        guard: Guarded<FaultInjector, PooledReactor>,
        keys: Vec<(usize, usize, u32, bool)>,
    }

    /// Routes a drained batch to the live cohort: gate feedback plus the
    /// warm-key record. Linear session lookup — the cohort is fleet-sized.
    fn route_elastic(decisions: &[Decision], live: &mut [Live]) {
        for d in decisions {
            if let Some(l) = live.iter_mut().find(|l| l.session == d.session) {
                l.guard.reactor.on_decision(d);
                if let Some(o) = d.output {
                    l.keys.push((
                        d.frame,
                        o.gesture.index(),
                        o.unsafe_probability.to_bits(),
                        o.alert,
                    ));
                }
            }
        }
    }

    let mut outcomes: Vec<Option<ElasticOutcome>> = vec![None; durations_s.len()];
    let mut live: Vec<Live> = Vec::new();
    let mut next_trial = 0usize;
    let mut frames = 0usize;
    let mut peak_live = 0usize;
    let mut decisions: Vec<Decision> = Vec::new();

    loop {
        // Admit pending trials into freed (or fresh) capacity. Session
        // ids are never reused; engine slots are — that recycling is
        // exactly what this wave exercises.
        while live.len() < fleet && next_trial < durations_s.len() {
            let (ci, seed) = work[next_trial % work.len().max(1)]; // lint: allow(panic, reason = "index is taken modulo the non-empty work list's length")
            let trial_sim = SimConfig { duration_s: durations_s[next_trial], ..base_sim }; // lint: allow(panic, reason = "the admit loop condition bounds next_trial by durations_s.len()")
            let (sim_run, guard) =
                make_guarded_trial(&grid, ci, seed, trial_sim, reactor_cfg, cfg.deadline_ticks)?;
            live.push(Live {
                trial: next_trial,
                session: pool.add_session(),
                ticks: sim_run.ticks(),
                stepped: 0,
                sim: sim_run,
                guard,
                keys: Vec::new(),
            });
            next_trial += 1;
        }
        if live.is_empty() {
            break;
        }
        peak_live = peak_live.max(live.len());

        // One lockstep tick across whoever is live right now.
        for l in &mut live {
            let frame = l.sim.step(&mut l.guard);
            // Non-Perfect mode was validated above, the sole way submit
            // can fail — surface it as the config error it is.
            pool.submit(l.session, frame).map_err(|_| ConfigError::PerfectContext)?;
            l.stepped += 1;
            frames += 1;
        }
        drain_serving_tick(&mut pool, cfg.tick_budget_ms, &mut decisions);
        route_elastic(&decisions, &mut live);

        // Budget mode can leave a finishing trial's decisions in flight;
        // drain them before the session is removed so nothing is lost.
        if cfg.tick_budget_ms.is_some() && live.iter().any(|l| l.stepped >= l.ticks) {
            decisions.clear();
            pool.flush_into(&mut decisions);
            route_elastic(&decisions, &mut live);
        }

        // Retire finished trials: the barrier above delivered their last
        // decisions, so removal drops nothing and frees the slot.
        let mut i = 0;
        while i < live.len() {
            // lint: allow(panic, reason = "the retire loop condition bounds i by live.len()")
            if live[i].stepped < live[i].ticks {
                i += 1;
                continue;
            }
            let l = live.swap_remove(i);
            pool.remove_session(l.session);
            let trial = l.sim.finish();
            let gate = l.guard.reactor.gate();
            // lint: allow(panic, reason = "trial index was minted from the outcomes range at admission")
            outcomes[l.trial] = Some(ElasticOutcome {
                ticks: l.ticks,
                monitored_failure: trial.outcome.failure,
                first_alert_tick: gate.first_alert_tick(),
                engaged_tick: gate.engaged_tick(),
                ticks_gated: gate.ticks_gated(),
                decision_keys: l.keys,
            });
        }
    }

    let stats = ElasticStats {
        trials: durations_s.len(),
        frames,
        peak_live,
        sessions_opened: pool.sessions_opened(),
        final_occupancy: pool.shard_occupancy().to_vec(),
    };
    let outcomes: Vec<ElasticOutcome> = outcomes.into_iter().flatten().collect();
    assert_eq!(outcomes.len(), durations_s.len(), "every admitted trial must retire exactly once");
    Ok((outcomes, stats))
}

/// Outcome of a forced-deadline-miss drill ([`run_forced_miss_drill`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrillReport {
    /// Concurrent guarded trials driven ([`FleetConfig::fleet`]).
    pub trials: usize,
    /// Ticks each guarded trial ran.
    pub ticks: usize,
    /// Frames submitted across all trials (`trials * ticks`).
    pub frames: usize,
    /// Ticks (across all trials) whose commands were fail-safe-held
    /// because their decision missed the deadline.
    pub deadline_misses: usize,
    /// Fail-safe-held ticks whose commands did **not** equal the held
    /// setpoint — i.e. un-gated commands that escaped during a miss. The
    /// safety invariant is that this is always 0.
    pub ungated_during_miss: usize,
    /// Decisions applied by the gates (late ones included, exactly once;
    /// equals [`DrillReport::frames`] when nothing was lost).
    pub decisions_applied: usize,
}

/// Records the post-gate command of every tick plus whether the gate was
/// failing safe at that tick, so the drill can audit the safety invariant
/// from outside the reactor.
struct Recorder {
    guard: Guarded<FaultInjector, PooledReactor>,
    carried: Vec<Commands>,
    failsafe: Vec<bool>,
}

impl CommandFilter for Recorder {
    fn apply(&mut self, tick: usize, progress: f32, commands: &mut Commands) {
        self.guard.apply(tick, progress, commands);
        self.carried.push(*commands);
        self.failsafe.push(self.guard.reactor.failing_safe());
    }
}

/// The fail-safe drill: [`FleetConfig::fleet`] concurrent guarded Block
/// Transfer trials through a pool whose shard 0 is deliberately stalled for
/// `stall` mid-trial, drained with a (deliberately too small) per-tick
/// deadline budget. Every tick whose decision misses the deadline must
/// carry the held setpoint — never an un-gated plan command — and every
/// late decision must be applied exactly once when it finally arrives;
/// trials on the healthy shards must keep flowing while the stalled
/// shard's trials hold.
///
/// Returns the audit counts; callers assert `deadline_misses > 0` (the
/// stall really forced misses) and `ungated_during_miss == 0` (nothing
/// escaped any gate). The drill is wall-clock driven, so the *number* of
/// misses varies with the host — the invariants do not.
///
/// # Errors
///
/// [`ConfigError`] when the reactor configuration is invalid for
/// `pipeline`.
pub fn run_forced_miss_drill(
    cfg: &FleetConfig,
    pipeline: &Arc<TrainedPipeline>,
    stall: Duration,
) -> Result<DrillReport, ConfigError> {
    let reactor_cfg = cfg.closed_loop.reactor;
    reactor_cfg.validate_for(pipeline)?;
    let grid = table3_grid();
    let work = grid_work(&grid, &cfg.closed_loop.campaign);
    let sim = cfg.closed_loop.campaign.sim;
    let budget_ms = cfg.tick_budget_ms.unwrap_or(2.0).max(0.0);
    let fleet = cfg.fleet.max(1);

    let mut pool = ShardedMonitorPool::with_sessions(
        Arc::clone(pipeline),
        reactor_cfg.mode,
        ServeConfig {
            workers: cfg.workers.max(1),
            threshold: reactor_cfg.threshold,
            precision: reactor_cfg.precision,
        },
        fleet,
    );

    let mut sims: Vec<BlockTransferSim> = Vec::with_capacity(fleet);
    let mut recs: Vec<Recorder> = Vec::with_capacity(fleet);
    for &(ci, seed) in work.iter().cycle().take(fleet) {
        let (sim_run, guard) =
            make_guarded_trial(&grid, ci, seed, sim, reactor_cfg, cfg.deadline_ticks)?;
        recs.push(Recorder {
            guard,
            carried: Vec::with_capacity(sim_run.ticks()),
            failsafe: Vec::with_capacity(sim_run.ticks()),
        });
        sims.push(sim_run);
    }

    let ticks = sims.first().map_or(0, BlockTransferSim::ticks);
    let stall_at = ticks / 3;
    let mut decisions: Vec<Decision> = Vec::new();
    for t in 0..ticks {
        if t == stall_at {
            pool.inject_stall(0, stall);
        }
        for (s, (sim_run, rec)) in sims.iter_mut().zip(recs.iter_mut()).enumerate() {
            let frame = sim_run.step(rec);
            // Non-Perfect mode was validated above, the sole way submit can
            // fail — surface it as the config error it is.
            pool.submit(s, frame).map_err(|_| ConfigError::PerfectContext)?;
        }
        drain_serving_tick(&mut pool, Some(budget_ms), &mut decisions);
        for d in &decisions {
            // lint: allow(panic, reason = "a decision routed to an out-of-range session is a pool bug; fail loud, never misroute a gating decision")
            recs[d.session].guard.reactor.on_decision(d);
        }
    }
    // Let the stall clear and apply the stragglers (exactly once each).
    decisions.clear();
    pool.flush_into(&mut decisions);
    for d in &decisions {
        // lint: allow(panic, reason = "a decision routed to an out-of-range session is a pool bug; fail loud, never misroute a gating decision")
        recs[d.session].guard.reactor.on_decision(d);
    }

    // Audit every trial: a fail-safe-held tick must carry its
    // predecessor's command — the frozen setpoint — bit for bit. The
    // shifted zip starts the audit at tick 1: tick 0 never requires a
    // decision, so it can never be fail-safe-held.
    let mut deadline_misses = 0usize;
    let mut ungated_during_miss = 0usize;
    let mut decisions_applied = 0usize;
    for (sim_run, rec) in sims.into_iter().zip(&recs) {
        let _ = sim_run.finish();
        deadline_misses += rec.guard.reactor.deadline_misses();
        decisions_applied += rec.guard.reactor.decisions_applied();
        ungated_during_miss += rec
            .carried
            .iter()
            .zip(rec.carried.iter().skip(1).zip(rec.failsafe.iter().skip(1)))
            .filter(|(prev, (cur, &held))| held && cur != prev)
            .count();
    }

    Ok(DrillReport {
        trials: fleet,
        ticks,
        frames: fleet * ticks,
        deadline_misses,
        ungated_during_miss,
        decisions_applied,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignConfig;
    use crate::run_closed_loop_campaign;
    use crate::testutil::{bt_pipeline, closed_loop_sim};
    use reactor::{MitigationPolicy, ReactorConfig};

    fn fleet_cfg(scale: f32, workers: usize, fleet: usize) -> FleetConfig {
        FleetConfig::barrier(
            ClosedLoopConfig {
                campaign: CampaignConfig { sim: closed_loop_sim(), seed: 42, scale, threads: 4 },
                reactor: ReactorConfig {
                    policy: MitigationPolicy::StopAndHold,
                    ..ReactorConfig::default()
                },
            },
            workers,
            fleet,
        )
    }

    #[test]
    fn fleet_report_is_bit_identical_across_worker_counts_and_to_single_robot() {
        let pipeline = bt_pipeline();
        let cfg1 = fleet_cfg(0.02, 1, 3);
        let (report1, stats1) = run_fleet_campaign(&cfg1, &pipeline).expect("valid config");
        let cfg3 = fleet_cfg(0.02, 3, 5);
        let (report3, stats3) = run_fleet_campaign(&cfg3, &pipeline).expect("valid config");
        assert_eq!(
            report1, report3,
            "fleet report must be bit-identical across pool worker counts and fleet sizes"
        );
        assert_eq!(stats1.deadline_misses, 0, "barrier drain never misses");
        assert_eq!(stats3.deadline_misses, 0);
        assert_eq!(stats1.trials, stats3.trials);
        assert!(stats1.pool.queue.count > 0, "queueing telemetry covers the fleet's frames");

        // The pooled reactor and the in-process reactor share one state
        // machine over bit-exact scores: the fleet campaign reproduces the
        // single-robot campaign's report exactly.
        let single = run_closed_loop_campaign(&cfg1.closed_loop, &pipeline).expect("valid config");
        assert_eq!(report1, single, "fleet must equal the single-robot closed loop bit-for-bit");

        let summary = report1.summary();
        assert!(summary.baseline_unsafe > 0, "grid too small to produce block drops");
        assert!(summary.prevented > 0, "fleet prevention must beat the unmonitored 0% baseline");
    }

    #[test]
    fn forced_miss_drill_holds_failsafe_and_applies_late_decisions_once() {
        let pipeline = bt_pipeline();
        let mut cfg = fleet_cfg(0.02, 2, 2);
        cfg.tick_budget_ms = Some(2.0);
        let report = run_forced_miss_drill(&cfg, &pipeline, Duration::from_millis(120))
            .expect("valid config");
        assert_eq!(report.trials, 2, "the drill honors FleetConfig::fleet");
        assert_eq!(report.frames, 2 * report.ticks);
        assert!(report.deadline_misses > 0, "the stalled shard must force deadline misses");
        assert_eq!(
            report.ungated_during_miss, 0,
            "zero un-gated commands may escape while decisions are missing"
        );
        assert_eq!(
            report.decisions_applied, report.frames,
            "every late decision is applied exactly once"
        );
    }

    #[test]
    fn elastic_wave_mixed_lengths_bit_identical_to_solo_sessions() {
        let pipeline = bt_pipeline();
        // Five trials, four lengths: the short ones finish first, their
        // sessions are removed mid-wave, and trial 5 is admitted into a
        // recycled slot while the long trials are still streaming.
        let durations = [2.0f32, 4.0, 3.0, 2.0, 3.0];

        let wide = fleet_cfg(0.02, 3, 4);
        let (out_wide, stats_wide) = run_elastic_wave(&wide, &pipeline, &durations).expect("valid");
        let solo = fleet_cfg(0.02, 1, 1);
        let (out_solo, stats_solo) = run_elastic_wave(&solo, &pipeline, &durations).expect("valid");

        // The bit-equality proof: concurrency, mixed lengths, removal,
        // and slot recycling change *nothing* about any trial's decision
        // stream or closed-loop outcome.
        assert_eq!(
            out_wide, out_solo,
            "elastic wave must be bit-identical to running every trial solo"
        );
        assert!(
            out_wide.iter().any(|o| !o.decision_keys.is_empty()),
            "no trial ever warmed up — the equality above would be vacuous"
        );
        assert_ne!(
            out_wide.iter().map(|o| o.ticks).min(),
            out_wide.iter().map(|o| o.ticks).max(),
            "durations must actually differ for this test to exercise elasticity"
        );

        // Elasticity accounting: the wide wave really ran concurrently
        // (and readmitted into freed capacity), the solo wave serially.
        assert_eq!(stats_wide.peak_live, 4);
        assert_eq!(stats_solo.peak_live, 1);
        assert_eq!(stats_wide.sessions_opened, durations.len());
        assert_eq!(stats_solo.sessions_opened, durations.len());
        assert_eq!(stats_wide.frames, stats_solo.frames);
        assert!(
            stats_wide.final_occupancy.iter().all(|&n| n == 0),
            "every session must have been removed: occupancy {:?}",
            stats_wide.final_occupancy
        );
    }

    #[test]
    fn fleet_rejects_bad_sweep_points_with_typed_errors() {
        let pipeline = bt_pipeline();
        let mut cfg = fleet_cfg(0.02, 1, 1);
        cfg.closed_loop.reactor.debounce = 0;
        assert_eq!(
            run_fleet_campaign(&cfg, &pipeline).err(),
            Some(ConfigError::ZeroDebounce),
            "a bad sweep point fails the call, not the process"
        );
    }
}

//! The alert/gating state machine, and the pool-fed decision gate.
//!
//! [`AlertGate`] is the debounce → engage → gate state machine extracted
//! from [`SafetyReactor`](crate::SafetyReactor) so that both deployment
//! shapes of the closed loop execute literally the same decision logic:
//!
//! * **in-process** — `SafetyReactor` steps a private
//!   [`InferenceEngine`](context_monitor::InferenceEngine) and feeds the
//!   gate synchronously (one robot, one engine);
//! * **pooled** — [`PooledReactor`] consumes [`Decision`]s produced by a
//!   shared [`ShardedMonitorPool`](context_monitor::serve::ShardedMonitorPool),
//!   so N guarded procedures ride one serving tick.
//!
//! The pooled shape adds the one thing the in-process shape never needed: a
//! **deadline**. A pool decision travels ingress → shard → egress, and under
//! load (or a stalled shard) it can miss the tick it was meant to gate.
//! [`PooledReactor::apply`] therefore fails safe: when the decision for
//! frame `t - 1 - deadline_ticks` has not been applied by tick `t`'s
//! actuation, the commands are held at the **last un-gated setpoint** — an
//! unexamined plan command is never emitted — and the miss is counted. Late
//! decisions are applied exactly once, in frame order, when they arrive.

use crate::policy::{ConfigError, MitigationPolicy, ReactorConfig};
use context_monitor::serve::Decision;
use raven_sim::{CommandFilter, Commands};

/// The debounce/engage/gate state machine shared by the in-process and the
/// pooled reactor. Score events go in via [`AlertGate::on_score`]; each
/// tick's commands pass through [`AlertGate::gate_commands`].
#[derive(Debug, Clone)]
pub struct AlertGate {
    cfg: ReactorConfig,
    /// Alert frames seen (score above threshold).
    alerts: usize,
    /// Tick of the first alert frame.
    first_alert: Option<usize>,
    /// Current consecutive-alert streak.
    streak: usize,
    /// Tick from which gating is (or will be) active, once scheduled.
    gate_from: Option<usize>,
    /// Tick at which mitigation was first scheduled (never cleared; this is
    /// what "the reactor intervened" means for false-stop accounting).
    engaged: Option<usize>,
    /// Frozen command snapshot while gating.
    hold: Option<Commands>,
    /// Last commands that passed through un-gated.
    last_cmds: Option<Commands>,
    /// Ticks actually gated so far.
    ticks_gated: usize,
}

impl AlertGate {
    /// Creates the state machine for a validated configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when the config fails [`ReactorConfig::validate`].
    pub fn new(cfg: ReactorConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Self {
            cfg,
            alerts: 0,
            first_alert: None,
            streak: 0,
            gate_from: None,
            engaged: None,
            hold: None,
            last_cmds: None,
            ticks_gated: 0,
        })
    }

    /// The configuration this gate runs.
    pub fn config(&self) -> &ReactorConfig {
        &self.cfg
    }

    /// Alert frames seen (unsafe score above threshold).
    pub fn alerts(&self) -> usize {
        self.alerts
    }

    /// Tick of the first alert frame, if any — the timestamp reaction-time
    /// margins are measured from.
    pub fn first_alert_tick(&self) -> Option<usize> {
        self.first_alert
    }

    /// Tick at which mitigation was first scheduled (`None` for
    /// [`MitigationPolicy::LogOnly`] or when no alert was confirmed).
    pub fn engaged_tick(&self) -> Option<usize> {
        self.engaged
    }

    /// Ticks whose commands were actually gated so far.
    pub fn ticks_gated(&self) -> usize {
        self.ticks_gated
    }

    /// The last commands that passed through un-gated, if any — the
    /// setpoint a fail-safe hold freezes at.
    // lint: hot-path
    pub fn last_commands(&self) -> Option<Commands> {
        self.last_cmds
    }

    /// Clears all per-trial state so the gate can guard another trial.
    pub fn reset(&mut self) {
        self.alerts = 0;
        self.first_alert = None;
        self.streak = 0;
        self.gate_from = None;
        self.engaged = None;
        self.hold = None;
        self.last_cmds = None;
        self.ticks_gated = 0;
    }

    /// Feeds the score decision made from the state of `tick`: alert
    /// bookkeeping, debounce, and — once the streak confirms — scheduling
    /// of the mitigation gate.
    // lint: hot-path
    pub fn on_score(&mut self, tick: usize, alert: bool) {
        if !alert {
            self.streak = 0;
            return;
        }
        self.alerts += 1;
        if self.first_alert.is_none() {
            self.first_alert = Some(tick);
        }
        self.streak += 1;
        let engage =
            self.streak >= self.cfg.debounce && self.cfg.policy != MitigationPolicy::LogOnly;
        if engage && self.gate_from.is_none() {
            // A decision made from tick `t`'s state can first affect the
            // commands of tick `t + 1`; actuation latency stacks on top.
            let from = tick + 1 + self.cfg.actuation_latency;
            self.gate_from = Some(from);
            if self.engaged.is_none() {
                self.engaged = Some(from);
            }
        }
    }

    /// Gates (or passes through) the commands of `tick`.
    // lint: hot-path
    pub fn gate_commands(&mut self, tick: usize, commands: &mut Commands) {
        if self.gating_active(tick) {
            // Freeze at the last un-gated setpoint (falling back to the
            // current commands if gating engaged before any passed).
            let hold = match self.hold {
                Some(h) => h,
                None => {
                    let h = self.last_cmds.unwrap_or(*commands);
                    self.hold = Some(h);
                    h
                }
            };
            *commands = hold;
            self.ticks_gated += 1;
        } else {
            self.last_cmds = Some(*commands);
        }
    }

    /// Whether gating is active at `tick`, retiring an expired pause.
    // lint: hot-path
    fn gating_active(&mut self, tick: usize) -> bool {
        let Some(from) = self.gate_from else { return false };
        if tick < from {
            return false;
        }
        match self.cfg.policy {
            // LogOnly never schedules a gate, so `gate_from` stays None.
            MitigationPolicy::LogOnly => false,
            MitigationPolicy::StopAndHold => true,
            MitigationPolicy::PauseTicks(n) => {
                if tick < from + n {
                    true
                } else {
                    // Pause over: hand control back and allow a later
                    // confirmed alert to re-engage. The streak reset is
                    // load-bearing — without it, a streak accrued *during*
                    // the pause (the stream keeps alerting while gated)
                    // would instantly re-trigger mitigation on the first
                    // post-pause frame, and the hand-back would never
                    // actually hand anything back.
                    self.gate_from = None;
                    self.hold = None;
                    self.streak = 0;
                    false
                }
            }
        }
    }
}

/// A safety reactor fed by a shared serving pool instead of a private
/// engine: the fleet deployment shape, where gating decisions ride the
/// sharded serving tick and a **per-tick deadline** guards against
/// decisions arriving too late to act on.
///
/// Wiring (one instance per guarded procedure / pool session):
///
/// 1. each tick, the driver calls [`apply`](PooledReactor::apply) (via
///    [`CommandFilter`]) on the tick's commands **before** stepping physics;
/// 2. the frame logged by the physics step goes to the pool
///    (`ShardedMonitorPool::submit`);
/// 3. the driver drains the pool (with a barrier or a deadline budget) and
///    routes this session's decisions into
///    [`on_decision`](PooledReactor::on_decision).
///
/// With every decision on time, the gating timeline is **bit-identical** to
/// an in-process [`SafetyReactor`](crate::SafetyReactor) over the same
/// frames (the pool's decisions are bit-exact to a sequential engine, and
/// both shapes share one [`AlertGate`]) — asserted by this crate's tests
/// and the fleet campaign's determinism gate. When a decision misses its
/// deadline, [`apply`](PooledReactor::apply) fails safe instead: commands
/// hold at the last un-gated setpoint until the late decision arrives, and
/// the miss is counted in [`deadline_misses`](PooledReactor::deadline_misses).
#[derive(Debug, Clone)]
pub struct PooledReactor {
    gate: AlertGate,
    /// Allowed decision lag in ticks beyond the structural one-tick sensing
    /// delay (0 = the decision for frame `t-1` must be in before tick `t`).
    deadline_ticks: usize,
    /// Decisions applied so far == the next expected frame index.
    decided: usize,
    /// Ticks whose commands were fail-safe-held because the required
    /// decision had not arrived.
    deadline_misses: usize,
    /// The setpoint held while failing safe (cleared when decisions catch
    /// up).
    failsafe_hold: Option<Commands>,
}

impl PooledReactor {
    /// Creates a pool-fed reactor with the given decision-deadline budget.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when the config fails [`ReactorConfig::validate`].
    pub fn new(cfg: ReactorConfig, deadline_ticks: usize) -> Result<Self, ConfigError> {
        Ok(Self {
            gate: AlertGate::new(cfg)?,
            deadline_ticks,
            decided: 0,
            deadline_misses: 0,
            failsafe_hold: None,
        })
    }

    /// The underlying state machine (alert counts, engage tick, …).
    pub fn gate(&self) -> &AlertGate {
        &self.gate
    }

    /// Decisions applied so far (equals the frames scored on time plus the
    /// late ones already caught up).
    pub fn decisions_applied(&self) -> usize {
        self.decided
    }

    /// Ticks whose commands were fail-safe-held because their gating
    /// decision missed the deadline.
    pub fn deadline_misses(&self) -> usize {
        self.deadline_misses
    }

    /// Whether the last [`PooledReactor::apply`] failed safe (decisions
    /// were lagging past the deadline budget at that tick).
    pub fn failing_safe(&self) -> bool {
        self.failsafe_hold.is_some()
    }

    /// Clears all per-trial state so the reactor can guard another trial
    /// (pair with `ShardedMonitorPool::reset_session`).
    pub fn reset(&mut self) {
        self.gate.reset();
        self.decided = 0;
        self.deadline_misses = 0;
        self.failsafe_hold = None;
    }

    /// Applies one drained pool decision. Decisions must arrive in frame
    /// order, each exactly once — the pool guarantees per-session frame
    /// order, so a violation here is a routing bug in the driver.
    ///
    /// A late decision (drained after its tick was fail-safe-held) is
    /// applied here exactly once like any other: its alert still counts,
    /// and a confirmed streak schedules the gate from `frame + 1 +
    /// actuation_latency` — possibly already in the past, in which case
    /// gating begins at the very next [`PooledReactor::apply`].
    ///
    /// # Panics
    ///
    /// Panics when `decision.frame` is not the next expected frame.
    // lint: hot-path
    pub fn on_decision(&mut self, decision: &Decision) {
        assert_eq!(
            decision.frame, self.decided,
            "pool decisions must be routed in frame order exactly once"
        );
        self.decided += 1;
        let alert = decision
            .output
            .as_ref()
            .is_some_and(|o| o.unsafe_probability > self.gate.config().threshold);
        self.gate.on_score(decision.frame, alert);
    }
}

impl CommandFilter for PooledReactor {
    /// Gates the commands of `tick`, failing safe when the decision for
    /// frame `tick - 1 - deadline_ticks` has not been applied yet.
    // lint: hot-path
    fn apply(&mut self, tick: usize, _progress: f32, commands: &mut Commands) {
        if let Some(required_frame) = tick.checked_sub(1 + self.deadline_ticks) {
            if self.decided <= required_frame {
                // Deadline miss: the gating decision is still in flight.
                // Never emit an unexamined plan command — hold the last
                // un-gated setpoint until decisions catch up.
                self.deadline_misses += 1;
                let hold = *self
                    .failsafe_hold
                    .get_or_insert_with(|| self.gate.last_commands().unwrap_or(*commands));
                *commands = hold;
                return;
            }
        }
        self.failsafe_hold = None;
        self.gate.gate_commands(tick, commands);
    }

    // `observe` stays the default no-op: frames reach the model through the
    // pool (`ShardedMonitorPool::submit`), not through this filter.
}

#[cfg(test)]
mod tests {
    use super::*;
    use context_monitor::ContextMode;
    use raven_sim::ArmCommand;

    fn cmds(x: f32) -> Commands {
        let arm = ArmCommand {
            position: kinematics::Vec3::new(x, 0.0, 0.0),
            grasper: 0.1,
            euler: (0.0, 0.0, 0.0),
        };
        Commands { arms: [arm, arm] }
    }

    fn decision(frame: usize, score: Option<f32>) -> Decision {
        Decision {
            session: 0,
            frame,
            output: score.map(|s| context_monitor::MonitorOutput {
                gesture: gestures::Gesture::G2,
                unsafe_probability: s,
                alert: s > 0.5,
                compute_ms: 0.1,
            }),
        }
    }

    fn reactor(deadline_ticks: usize) -> PooledReactor {
        PooledReactor::new(
            ReactorConfig { debounce: 2, actuation_latency: 0, ..ReactorConfig::default() },
            deadline_ticks,
        )
        .expect("valid config")
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        assert_eq!(
            PooledReactor::new(ReactorConfig { threshold: 0.0, ..Default::default() }, 0)
                .unwrap_err(),
            ConfigError::Threshold(0.0)
        );
        assert_eq!(
            PooledReactor::new(ReactorConfig { debounce: 0, ..Default::default() }, 0).unwrap_err(),
            ConfigError::ZeroDebounce
        );
        assert_eq!(
            PooledReactor::new(
                ReactorConfig { mode: ContextMode::Perfect, ..Default::default() },
                0
            )
            .unwrap_err(),
            ConfigError::PerfectContext
        );
    }

    #[test]
    fn on_time_decisions_gate_like_the_state_machine_says() {
        let mut r = reactor(0);
        // Tick 0 needs no decision yet.
        let mut c = cmds(0.0);
        r.apply(0, 0.0, &mut c);
        assert_eq!(c, cmds(0.0));
        // Warm-up decision (no output) keeps the stream flowing.
        r.on_decision(&decision(0, None));
        let mut c = cmds(1.0);
        r.apply(1, 0.0, &mut c);
        assert_eq!(c, cmds(1.0));
        r.on_decision(&decision(1, Some(0.9)));
        // One alert < debounce 2: not engaged yet.
        let mut c = cmds(2.0);
        r.apply(2, 0.0, &mut c);
        assert_eq!(c, cmds(2.0));
        r.on_decision(&decision(2, Some(0.9)));
        // Streak confirmed at frame 2 → gate from tick 3 (latency 0).
        assert_eq!(r.gate().engaged_tick(), Some(3));
        let mut c = cmds(3.0);
        r.apply(3, 0.0, &mut c);
        assert_eq!(c, cmds(2.0), "held at the last un-gated setpoint");
        assert_eq!(r.deadline_misses(), 0);
    }

    #[test]
    fn missing_decision_fails_safe_and_late_arrival_is_applied_once() {
        let mut r = reactor(0);
        let mut c = cmds(0.0);
        r.apply(0, 0.0, &mut c); // no decision required yet
                                 // Decision for frame 0 never drained: tick 1 must fail safe on the
                                 // last un-gated setpoint, not emit the plan.
        let mut c = cmds(1.0);
        r.apply(1, 0.0, &mut c);
        assert_eq!(c, cmds(0.0), "fail-safe hold, never an un-gated command");
        assert!(r.failing_safe());
        assert_eq!(r.deadline_misses(), 1);
        // Still missing at tick 2: the hold persists.
        let mut c = cmds(2.0);
        r.apply(2, 0.0, &mut c);
        assert_eq!(c, cmds(0.0));
        assert_eq!(r.deadline_misses(), 2);

        // The late decisions arrive (frames 0..=2 — physics kept stepping
        // during the hold, so held ticks still produced frames), each
        // applied exactly once.
        r.on_decision(&decision(0, Some(0.9)));
        r.on_decision(&decision(1, Some(0.9)));
        r.on_decision(&decision(2, Some(0.9)));
        assert_eq!(r.decisions_applied(), 3);
        // Streak confirmed at frame 1 → gate from tick 2, already past:
        // tick 3 is mitigation-gated (not fail-safe-held).
        let mut c = cmds(3.0);
        r.apply(3, 0.0, &mut c);
        assert!(!r.failing_safe(), "decisions caught up");
        assert_eq!(c, cmds(0.0), "late-confirmed mitigation gates immediately");
        assert_eq!(r.gate().ticks_gated(), 1);
        assert_eq!(r.deadline_misses(), 2, "no further misses once caught up");
    }

    #[test]
    fn deadline_budget_tolerates_allowed_lag() {
        let mut r = reactor(1); // one extra tick of allowed lag
        let mut c = cmds(0.0);
        r.apply(0, 0.0, &mut c);
        let mut c = cmds(1.0);
        r.apply(1, 0.0, &mut c);
        assert_eq!(c, cmds(1.0), "frame 0's decision may lag one tick");
        assert_eq!(r.deadline_misses(), 0);
        let mut c = cmds(2.0);
        r.apply(2, 0.0, &mut c);
        assert_eq!(c, cmds(1.0), "two ticks of lag exceeds the budget");
        assert_eq!(r.deadline_misses(), 1);
    }

    #[test]
    #[should_panic(expected = "frame order")]
    fn out_of_order_decision_is_rejected() {
        let mut r = reactor(0);
        r.on_decision(&decision(1, None));
    }

    #[test]
    #[should_panic(expected = "frame order")]
    fn duplicate_decision_is_rejected() {
        let mut r = reactor(0);
        r.on_decision(&decision(0, None));
        r.on_decision(&decision(0, None));
    }

    #[test]
    fn reset_restores_a_cold_gate() {
        let mut r = reactor(0);
        r.apply(0, 0.0, &mut cmds(0.0));
        r.on_decision(&decision(0, Some(0.9)));
        r.apply(1, 0.0, &mut cmds(1.0));
        r.apply(2, 0.0, &mut cmds(2.0)); // miss (frame 1 undecided)
        assert!(r.deadline_misses() > 0);
        r.reset();
        assert_eq!(r.decisions_applied(), 0);
        assert_eq!(r.deadline_misses(), 0);
        assert!(!r.failing_safe());
        assert_eq!(r.gate().alerts(), 0);
        assert_eq!(r.gate().first_alert_tick(), None);
    }
}

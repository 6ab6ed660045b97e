//! The fleet workloads: 64 sessions over a 2-shard [`ShardedMonitorPool`]
//! in lockstep ticks, each decision applied to its session's
//! [`PooledReactor`] — the `faults::fleet` topology run at saturation.
//!
//! Each tick submits one frame per session, drains with a 33.3 ms budget
//! counted from the tick's start, gates the next tick through every
//! reactor, and only then collects stragglers (each one a deadline miss).
//! The next tick starts once the previous one has fully drained. A session
//! that reaches the end of its demo restarts on the next demo with
//! `reset_session`.

use std::sync::Arc;
use std::time::Instant;

use context_monitor::{
    ContextMode, Decision, Precision, ServeConfig, ShardedMonitorPool, TrainedPipeline,
};
use kinematics::KinematicSample;
use raven_sim::CommandFilter;
use reactor::PooledReactor;

use crate::report::Phase;
use crate::setup::{key_of, Key, THRESHOLD};
use crate::trace::{SpanRef, Tracer};
use crate::{hold_commands, reactor_config, Outcome, DEADLINE, WORKERS};

/// Concurrent sessions: 32 per shard per tick, so micro-batching is fully
/// engaged.
pub const SESSIONS: usize = 64;

/// Starts the pool with every session open.
pub fn start_pool(pipeline: &Arc<TrainedPipeline>, tier: Precision) -> ShardedMonitorPool {
    let cfg = ServeConfig { workers: WORKERS, threshold: THRESHOLD, precision: tier };
    ShardedMonitorPool::with_sessions(Arc::clone(pipeline), ContextMode::Predicted, cfg, SESSIONS)
}

/// Per-session stream position and robot-side reactor.
struct Session {
    demo: usize,
    frame: usize,
    reactor: PooledReactor,
    /// Whether this tick's decision has been taken.
    decided: bool,
}

/// Runs lockstep ticks on `pool` (every session restarted cold) until
/// `phase` ends.
pub fn run(
    pool: &mut ShardedMonitorPool,
    tier: Precision,
    demos: &[Vec<KinematicSample>],
    refs: &[Vec<Key>],
    phase: Phase,
    tracer: Tracer,
) -> Outcome {
    let n = pool.session_count();
    let mut sessions: Vec<Session> = (0..n)
        .map(|s| {
            pool.reset_session(s);
            Session {
                demo: s % demos.len(),
                frame: 0,
                reactor: PooledReactor::new(reactor_config(tier), 0).expect("valid reactor config"),
                decided: false,
            }
        })
        .collect();
    // Room for 20k warm decisions per second, beyond what two cores reach.
    let room = (phase.end - phase.measure_from).as_secs_f64() * 20_000.0;
    let mut out = Outcome::reserved(room as usize, tracer);
    let mut decisions: Vec<Decision> = Vec::with_capacity(n);
    let mut commands = hold_commands();
    let mut first_measured: Option<Instant> = None;
    let mut last_end = phase.measure_from;
    let mut tick: u64 = 0;

    loop {
        let t0 = Instant::now();
        if t0 >= phase.end {
            break;
        }
        let measured = phase.measured(t0);
        if measured && first_measured.is_none() {
            first_measured = Some(t0);
        }
        out.tracer.pause(!measured);
        let tracing = out.tracer.enabled();
        let tick_span = out.tracer.record("fleet.tick", tick, None, t0, t0);
        let base = tick * n as u64;

        for (s, sess) in sessions.iter_mut().enumerate() {
            let ts = tracing.then(Instant::now);
            pool.submit(s, &demos[sess.demo][sess.frame]).expect("Predicted mode needs no context");
            if let Some(ts) = ts {
                out.tracer.record(
                    "serve.submit",
                    base + s as u64,
                    Some(tick_span),
                    ts,
                    Instant::now(),
                );
            }
            sess.decided = false;
        }
        if measured {
            out.ops += n as u64;
        }

        decisions.clear();
        let td = Instant::now();
        let on_time = pool.drain_deadline(t0 + DEADLINE, &mut decisions);
        let in_hand = Instant::now();
        out.tracer.record("serve.drain", tick, Some(tick_span), td, in_hand);
        let taken =
            Taken { t0, in_hand, measured, measure_from: phase.measure_from, base, tick_span };
        for d in &decisions {
            take(d, &mut sessions, refs, &taken, &mut out);
        }

        // Gate the next tick: each reactor needs this tick's decision now.
        for sess in &mut sessions {
            let before = sess.reactor.deadline_misses();
            sess.reactor.apply(sess.frame + 1, 0.0, &mut commands);
            if measured && sess.reactor.deadline_misses() > before {
                out.reactor_misses += 1;
            }
        }

        if !on_time {
            decisions.clear();
            pool.flush_into(&mut decisions);
            let late = Taken { in_hand: Instant::now(), ..taken };
            for d in &decisions {
                take(d, &mut sessions, refs, &late, &mut out);
                if measured {
                    out.late += 1;
                    out.failed += 1;
                }
            }
        }

        for (s, sess) in sessions.iter_mut().enumerate() {
            if !sess.decided {
                out.errors += 1; // a decision went missing
                if measured {
                    out.failed += 1;
                }
            }
            sess.frame += 1;
            if sess.frame == demos[sess.demo].len() {
                out.reactor_applied += sess.reactor.decisions_applied() as u64;
                sess.reactor.reset();
                pool.reset_session(s);
                out.sessions += 1;
                sess.demo = (sess.demo + 1) % demos.len();
                sess.frame = 0;
            }
        }

        let t_end = Instant::now();
        out.tracer.close(tick_span, t_end);
        if measured {
            last_end = t_end;
        }
        tick += 1;
    }

    out.reactor_applied +=
        sessions.iter().map(|s| s.reactor.decisions_applied() as u64).sum::<u64>();
    out.elapsed_s = first_measured.map_or(0.0, |f| (last_end - f).as_secs_f64());
    out
}

/// When and where one tick's decisions landed.
#[derive(Clone, Copy)]
struct Taken {
    t0: Instant,
    in_hand: Instant,
    measured: bool,
    measure_from: Instant,
    base: u64,
    tick_span: SpanRef,
}

/// Checks one decision against the reference, hands it to its reactor,
/// and records its latency.
fn take(d: &Decision, sessions: &mut [Session], refs: &[Vec<Key>], at: &Taken, out: &mut Outcome) {
    out.decisions += 1;
    let Some(sess) = sessions.get_mut(d.session) else {
        out.errors += 1;
        return;
    };
    let expected = refs[sess.demo].get(d.frame);
    if sess.decided || d.frame != sess.frame || expected != Some(&key_of(d.output.as_ref())) {
        out.mismatches += 1;
        if at.measured && !sess.decided {
            out.failed += 1;
        }
        // Keep the reactor in frame order so a wrong value cannot wedge it.
        if d.frame == sess.reactor.decisions_applied() {
            sess.reactor.on_decision(d);
        }
        sess.decided = true;
        return;
    }
    sess.decided = true;
    let id = at.base + d.session as u64;
    let span = out.tracer.record("fleet.decision", id, Some(at.tick_span), at.t0, at.in_hand);
    let tr = out.tracer.enabled().then(Instant::now);
    sess.reactor.on_decision(d);
    if let Some(tr) = tr {
        out.tracer.record("reactor.on_decision", id, Some(span), tr, Instant::now());
    }
    if let (true, Some(o)) = (at.measured, d.output.as_ref()) {
        out.warm += 1;
        out.latency_ms.push((at.in_hand - at.t0).as_secs_f64() * 1e3);
        out.sent_at_s.push((at.t0 - at.measure_from).as_secs_f64());
        out.compute_ms.push(f64::from(o.compute_ms));
    }
}

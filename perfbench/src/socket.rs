//! The `socket_closed` workload: two TCP connections to an
//! [`IngressServer`], each a closed loop with one frame in flight on the
//! f32 tier. Each connection streams held-out demos back to back, one
//! HELLO…GOODBYE session per demo, so session open and close run beside
//! the frame path. Decisions go to a robot-side [`PooledReactor`].
//!
//! The client waits by polling a non-blocking socket and yielding between
//! polls ([`WAIT_STRATEGY`]); blocking reads add several milliseconds at
//! p99 on a small host.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use context_monitor::{
    ContextMode, Decision, MonitorOutput, Precision, ServeConfig, TrainedPipeline,
};
use gestures::Gesture;
use ingress::{Connection, DecisionMsg, IngressServer, ServerConfig, ServerMsg};
use kinematics::KinematicSample;
use raven_sim::CommandFilter;
use reactor::PooledReactor;

use crate::report::Phase;
use crate::setup::{Key, THRESHOLD};
use crate::trace::Tracer;
use crate::{hold_commands, reactor_config, Outcome, DEADLINE, WORKERS};

/// Client connections (and client threads), one per host core.
pub const CONNECTIONS: usize = 2;

/// How a client waits for its decision.
pub const WAIT_STRATEGY: &str = "non-blocking try_recv poll, yield_now between polls";

/// A reply that takes longer than this is treated as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Starts the ingress service on a free localhost port.
pub fn start_server(pipeline: &Arc<TrainedPipeline>) -> IngressServer {
    let cfg = ServerConfig {
        mode: ContextMode::Predicted,
        serve: ServeConfig { workers: WORKERS, threshold: THRESHOLD, precision: Precision::F32 },
        ..ServerConfig::default()
    };
    IngressServer::start(Arc::clone(pipeline), cfg).expect("bind a localhost port")
}

/// Streams demos over [`CONNECTIONS`] connections until `phase` ends.
pub fn run(
    addr: SocketAddr,
    demos: &[Vec<KinematicSample>],
    refs: &[Vec<Key>],
    phase: Phase,
    trace: bool,
) -> Outcome {
    let clients: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| scope.spawn(move || client(c, addr, demos, refs, phase, trace)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut out = Outcome::reserved(CONNECTIONS * room(&phase), Tracer::off());
    for c in clients {
        out.merge(c);
    }
    out.elapsed_s = (phase.end - phase.measure_from).as_secs_f64();
    out
}

/// Sample room per connection: 5k decisions per second, beyond what one
/// closed loop reaches.
fn room(phase: &Phase) -> usize {
    ((phase.end - phase.measure_from).as_secs_f64() * 5_000.0) as usize
}

/// One client: demo after demo, one session each, until the phase ends.
fn client(
    c: usize,
    addr: SocketAddr,
    demos: &[Vec<KinematicSample>],
    refs: &[Vec<Key>],
    phase: Phase,
    trace: bool,
) -> Outcome {
    let mut out =
        Outcome::reserved(room(&phase), if trace { Tracer::on(1 << 17) } else { Tracer::off() });
    let mut reactor = PooledReactor::new(reactor_config(Precision::F32), 0).expect("valid config");
    let mut demo = c % demos.len();
    let mut next_id = (c as u64) << 40;
    while Instant::now() < phase.end {
        out.sessions += 1;
        let stream = Stream { frames: &demos[demo], expect: &refs[demo], phase };
        if let Err(e) = stream.run(addr, &mut out, &mut reactor, &mut next_id) {
            eprintln!("perfbench: client {c}: {e}");
            out.errors += 1;
            break;
        }
        out.reactor_applied += reactor.decisions_applied() as u64;
        reactor.reset();
        demo = (demo + CONNECTIONS) % demos.len();
    }
    out
}

/// One demo streamed as one session.
struct Stream<'a> {
    frames: &'a [KinematicSample],
    expect: &'a [Key],
    phase: Phase,
}

impl Stream<'_> {
    fn run(
        &self,
        addr: SocketAddr,
        out: &mut Outcome,
        reactor: &mut PooledReactor,
        next_id: &mut u64,
    ) -> Result<(), String> {
        let mut conn = Connection::connect(addr).map_err(|e| format!("connect: {e}"))?;
        conn.send_hello(false).map_err(|e| format!("hello: {e}"))?;
        match conn.recv().map_err(|e| format!("welcome: {e}"))? {
            ServerMsg::Welcome { .. } => {}
            other => return Err(format!("expected WELCOME, got {other:?}")),
        }
        conn.set_nonblocking(true).map_err(|e| e.to_string())?;
        let mut commands = hold_commands();
        let mut delivered = 0u64;

        for (seq, frame) in self.frames.iter().enumerate() {
            if Instant::now() >= self.phase.end {
                break;
            }
            let before = reactor.deadline_misses();
            reactor.apply(seq, 0.0, &mut commands);

            let t0 = Instant::now();
            let measured = self.phase.measured(t0);
            out.tracer.pause(!measured);
            conn.send_frame(seq as u32, None, frame).map_err(|e| format!("frame: {e}"))?;
            let t_sent = out.tracer.enabled().then(Instant::now);
            let reply = poll(&mut conn)?;
            let t1 = Instant::now();
            let ServerMsg::Decision(msg) = reply else {
                return Err(format!("expected DECISION, got {reply:?}"));
            };
            delivered += 1;
            out.decisions += 1;

            if measured {
                out.ops += 1;
                if reactor.deadline_misses() > before {
                    out.reactor_misses += 1;
                }
            }
            let id = *next_id;
            *next_id += 1;
            let output = monitor_output(&msg)?;
            let equal = msg.seq as usize == seq && Some(&key(&msg)) == self.expect.get(seq);
            if !equal {
                out.mismatches += 1;
                if measured {
                    out.failed += 1;
                }
            }
            let span = out.tracer.record("client.frame", id, None, t0, t1);
            if let Some(t_sent) = t_sent {
                out.tracer.record("client.send", id, Some(span), t0, t_sent);
                out.tracer.record("client.wait", id, Some(span), t_sent, t1);
            }
            let tr = out.tracer.enabled().then(Instant::now);
            reactor.on_decision(&Decision { session: 0, frame: seq, output });
            if let Some(tr) = tr {
                out.tracer.record("reactor.on_decision", id, Some(span), tr, Instant::now());
            }

            if measured && equal {
                let rtt = t1 - t0;
                if rtt > DEADLINE {
                    out.late += 1;
                    out.failed += 1;
                }
                if let Some(o) = output {
                    out.warm += 1;
                    out.latency_ms.push(rtt.as_secs_f64() * 1e3);
                    out.sent_at_s.push((t0 - self.phase.measure_from).as_secs_f64());
                    out.compute_ms.push(f64::from(o.compute_ms));
                }
            }
        }

        conn.send_goodbye().map_err(|e| format!("goodbye: {e}"))?;
        match poll(&mut conn)? {
            ServerMsg::Bye { delivered: d } if d == delivered => Ok(()),
            other => Err(format!("expected BYE after {delivered} decisions, got {other:?}")),
        }
    }
}

/// Polls until one message is decoded.
fn poll(conn: &mut Connection) -> Result<ServerMsg, String> {
    let since = Instant::now();
    loop {
        match conn.try_recv() {
            Ok(Some(msg)) => return Ok(msg),
            Ok(None) => {
                if since.elapsed() > REPLY_TIMEOUT {
                    return Err("no reply within 10 s".to_string());
                }
                std::thread::yield_now();
            }
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// The bit-equality key of a wire decision.
fn key(msg: &DecisionMsg) -> Key {
    msg.warm.then_some((msg.gesture, msg.score_bits, msg.alert))
}

/// The monitor output a wire decision carries, for the reactor.
fn monitor_output(msg: &DecisionMsg) -> Result<Option<MonitorOutput>, String> {
    if !msg.warm {
        return Ok(None);
    }
    let gesture = Gesture::from_index(usize::from(msg.gesture))
        .ok_or_else(|| format!("gesture index {} out of range", msg.gesture))?;
    Ok(Some(MonitorOutput {
        gesture,
        unsafe_probability: f32::from_bits(msg.score_bits),
        alert: msg.alert,
        compute_ms: f32::from_bits(msg.compute_ms_bits),
    }))
}

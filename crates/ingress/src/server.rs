//! TCP front end over an elastic [`ShardedMonitorPool`].
//!
//! Thread topology (all std-net blocking sockets, no async runtime):
//!
//! ```text
//!   acceptor ──spawns──▶ reader (1/conn) ──PoolCmd──▶ pool thread ──┐
//!                          ▲                              owns      │
//!                          │ recycled KinematicSample   the pool    │
//!                          └──────────────────────────────┘         │
//!   client ◀── writer (1/conn) ◀───────── Egress ───────────────────┘
//! ```
//!
//! The pool thread is the *only* owner of the [`ShardedMonitorPool`]; it
//! multiplexes every admitted session onto the pool's shard workers, so
//! the socket layer adds threads per connection but the inference fleet
//! stays at `ServeConfig::workers` threads regardless of session count.
//!
//! **Admission control sheds, never delays**: a HELLO past the session
//! cap gets a typed BUSY reply and a closed connection immediately.
//! Admitted sessions never queue behind arrivals — the paper's real-time
//! framing (every decision inside the 30 Hz tick budget) survives
//! overload because overload is turned away at the door
//! (DESIGN.md §13).
//!
//! A session slot is released back to the admission counter only after
//! the pool thread has called [`ShardedMonitorPool::remove_session`],
//! so `active ≤ cap` also bounds the pool's live sessions.
//!
//! Per-frame steady state is allocation-free end to end: the decoder
//! reuses one [`FrameMsg`], decoded samples travel reader → pool thread
//! by value and come back over a per-connection recycle channel, and the
//! writer reuses one encode buffer.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::{Buf, BytesMut};
use context_monitor::{ContextMode, ServeConfig, ShardedMonitorPool, TrainedPipeline};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use gestures::Gesture;
use kinematics::KinematicSample;

use crate::codec::{
    encode_busy, encode_bye, encode_decision, encode_error, encode_welcome, DecisionMsg, Decoded,
    Decoder, ErrorCode, FrameMsg,
};

/// How to run the service.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` picks a free port (see
    /// [`IngressServer::local_addr`]).
    pub addr: String,
    /// Admission cap: concurrent admitted sessions. HELLOs beyond it get
    /// BUSY, never a queue slot.
    pub max_sessions: usize,
    /// Manipulators per frame the served pipeline was trained on
    /// (JIGSAWS: 2). Frames with any other count are rejected with
    /// [`ErrorCode::BadShape`] before they can reach a shard worker.
    pub manipulators: usize,
    /// Context mode every session runs in. `Perfect` requires clients to
    /// attach a gesture label to every FRAME; the other modes forbid it.
    pub mode: ContextMode,
    /// Shard-pool shape (worker threads, alert threshold, precision).
    pub serve: ServeConfig,
    /// Reader poll tick: how often an idle connection checks the
    /// shutdown flag. Bounds shutdown latency, not decision latency.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_sessions: 64,
            manipulators: 2,
            mode: ContextMode::Predicted,
            serve: ServeConfig::default(),
            read_timeout: Duration::from_millis(25),
        }
    }
}

/// Monotonic service counters (cheap atomics, readable while serving).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Sessions currently admitted (HELLO accepted, not yet removed).
    pub active: usize,
    /// Sessions ever admitted.
    pub admitted: u64,
    /// HELLOs turned away with BUSY.
    pub shed: u64,
    /// Connections closed for protocol violations.
    pub protocol_errors: u64,
    /// DECISION messages routed to writers.
    pub decisions: u64,
}

#[derive(Default)]
struct Counters {
    active: AtomicUsize,
    admitted: AtomicU64,
    shed: AtomicU64,
    protocol_errors: AtomicU64,
    decisions: AtomicU64,
}

/// Reader → pool-thread commands.
enum PoolCmd {
    Open {
        conn: u64,
        egress: Sender<Egress>,
        recycle: Sender<KinematicSample>,
    },
    Frame {
        conn: u64,
        context: Option<Gesture>,
        sample: KinematicSample,
    },
    Goodbye {
        conn: u64,
    },
    /// Connection vanished (EOF, socket error, reader shutdown): remove
    /// the session immediately, dropping undelivered decisions.
    Gone {
        conn: u64,
    },
}

/// Pool-thread / reader → writer messages.
enum Egress {
    Welcome {
        session: u64,
    },
    Busy {
        active: u32,
        cap: u32,
    },
    Decision(DecisionMsg),
    Error {
        code: ErrorCode,
    },
    Bye {
        delivered: u64,
    },
    /// Flush nothing more; shut the socket down.
    Close,
}

/// Handle to a running ingress service. Dropping it shuts the service
/// down and joins every thread.
pub struct IngressServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
    cmd_tx: Option<Sender<PoolCmd>>,
    acceptor: Option<JoinHandle<()>>,
    pool_thread: Option<JoinHandle<()>>,
    threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

#[derive(Clone)]
struct ReaderCtx {
    cmd_tx: Sender<PoolCmd>,
    counters: Arc<Counters>,
    shutdown: Arc<AtomicBool>,
    mode: ContextMode,
    manipulators: usize,
    max_sessions: usize,
    read_timeout: Duration,
}

impl IngressServer {
    /// Binds, spawns the acceptor and pool threads, and starts serving.
    pub fn start(pipeline: Arc<TrainedPipeline>, cfg: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let (cmd_tx, cmd_rx) = unbounded::<PoolCmd>();

        let pool_counters = Arc::clone(&counters);
        let pool_mode = cfg.mode;
        let pool_serve = cfg.serve;
        let pool_thread = std::thread::Builder::new()
            .name("ingress-pool".to_string())
            .spawn(move || pool_loop(pipeline, pool_mode, pool_serve, cmd_rx, pool_counters))?;

        let ctx = ReaderCtx {
            cmd_tx: cmd_tx.clone(),
            counters: Arc::clone(&counters),
            shutdown: Arc::clone(&shutdown),
            mode: cfg.mode,
            manipulators: cfg.manipulators,
            max_sessions: cfg.max_sessions,
            read_timeout: cfg.read_timeout,
        };
        let acceptor_shutdown = Arc::clone(&shutdown);
        let acceptor_threads = Arc::clone(&threads);
        let acceptor = std::thread::Builder::new()
            .name("ingress-accept".to_string())
            .spawn(move || accept_loop(listener, ctx, acceptor_shutdown, acceptor_threads))?;

        Ok(Self {
            addr,
            shutdown,
            counters,
            cmd_tx: Some(cmd_tx),
            acceptor: Some(acceptor),
            pool_thread: Some(pool_thread),
            threads,
        })
    }

    /// The address the service is listening on (with the real port when
    /// bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            active: self.counters.active.load(Ordering::Acquire),
            admitted: self.counters.admitted.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            protocol_errors: self.counters.protocol_errors.load(Ordering::Relaxed),
            decisions: self.counters.decisions.load(Ordering::Relaxed),
        }
    }

    /// Reader threads whose handles the server still holds: the live
    /// connections plus those that exited since the last accept (each
    /// accept joins and drops the finished ones).
    pub fn retained_threads(&self) -> usize {
        // A poisoned list is still a valid Vec: every update is one push
        // or one whole-list swap.
        self.threads.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Stops accepting, drains every connection, and joins all threads.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // Readers exit within one read-timeout tick of the flag; once the
        // last one drops its command sender the channel disconnects and
        // the pool thread drains and exits.
        self.cmd_tx = None;
        if let Some(h) = self.pool_thread.take() {
            let _ = h.join();
        }
        let handles = match self.threads.lock() {
            Ok(mut guard) => std::mem::take(&mut *guard),
            Err(_) => Vec::new(),
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for IngressServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    ctx: ReaderCtx,
    shutdown: Arc<AtomicBool>,
    threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut next_conn: u64 = 0;
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn = next_conn;
                next_conn += 1;
                let conn_ctx = ctx.clone();
                let spawned = std::thread::Builder::new()
                    .name(format!("ingress-conn-{conn}"))
                    .spawn(move || reader_loop(stream, conn, conn_ctx));
                if let (Ok(handle), Ok(mut guard)) = (spawned, threads.lock()) {
                    reap_finished(&mut guard);
                    guard.push(handle);
                }
            }
            Err(ref e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Joins and drops the handles of reader threads that have exited, so
/// the list tracks live connections instead of growing with session churn.
fn reap_finished(handles: &mut Vec<JoinHandle<()>>) {
    let (finished, live): (Vec<_>, Vec<_>) =
        std::mem::take(handles).into_iter().partition(JoinHandle::is_finished);
    *handles = live;
    for h in finished {
        let _ = h.join();
    }
}

/// Per-connection protocol state.
#[derive(PartialEq, Eq, Clone, Copy)]
enum ConnState {
    AwaitHello,
    Streaming,
    Draining,
}

fn reader_loop(mut stream: TcpStream, conn: u64, ctx: ReaderCtx) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(ctx.read_timeout));
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (egress_tx, egress_rx) = unbounded::<Egress>();
    // The writer thread is detached: nothing joins it. It exits when
    // every Egress sender is gone (reader + pool entry).
    let writer = std::thread::Builder::new()
        .name(format!("ingress-write-{conn}"))
        .spawn(move || writer_loop(writer_stream, egress_rx));
    match writer {
        Ok(_detached_until_senders_drop) => {}
        Err(_) => return,
    }

    let (recycle_tx, recycle_rx) = unbounded::<KinematicSample>();
    let mut dec = Decoder::new();
    let mut frame = FrameMsg::default();
    let mut buf = [0u8; 16 * 1024];
    let mut state = ConnState::AwaitHello;
    let mut next_seq: u32 = 0;
    let mut opened = false;

    // Sends the typed error reply, closes the socket, and counts it.
    let fail = |code: ErrorCode| {
        ctx.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
        let _ = egress_tx.send(Egress::Error { code });
        let _ = egress_tx.send(Egress::Close);
    };

    'conn: loop {
        match stream.read(&mut buf) {
            Ok(0) => break 'conn,
            Ok(n) => {
                // lint: allow(panic, reason = "read() contract: n <= buf.len()")
                dec.extend(&buf[..n]);
                loop {
                    match dec.decode_next(&mut frame) {
                        Ok(None) => break,
                        Err(err) => {
                            fail(err.into());
                            break 'conn;
                        }
                        Ok(Some(Decoded::Hello { wants_context })) => {
                            if state != ConnState::AwaitHello {
                                fail(ErrorCode::UnexpectedMessage);
                                break 'conn;
                            }
                            if wants_context != (ctx.mode == ContextMode::Perfect) {
                                fail(ErrorCode::BadContext);
                                break 'conn;
                            }
                            let cap = ctx.max_sessions;
                            let seat = ctx.counters.active.fetch_update(
                                Ordering::AcqRel,
                                Ordering::Acquire,
                                |active| if active < cap { Some(active + 1) } else { None },
                            );
                            match seat {
                                Err(active) => {
                                    // Shed, don't delay: typed BUSY and out.
                                    ctx.counters.shed.fetch_add(1, Ordering::Relaxed);
                                    let _ = egress_tx.send(Egress::Busy {
                                        active: active as u32,
                                        cap: cap as u32,
                                    });
                                    let _ = egress_tx.send(Egress::Close);
                                    break 'conn;
                                }
                                Ok(_) => {
                                    ctx.counters.admitted.fetch_add(1, Ordering::Relaxed);
                                    let open = ctx.cmd_tx.send(PoolCmd::Open {
                                        conn,
                                        egress: egress_tx.clone(),
                                        recycle: recycle_tx.clone(),
                                    });
                                    if open.is_err() {
                                        ctx.counters.active.fetch_sub(1, Ordering::AcqRel);
                                        let _ = egress_tx.send(Egress::Close);
                                        break 'conn;
                                    }
                                    opened = true;
                                    state = ConnState::Streaming;
                                }
                            }
                        }
                        Ok(Some(Decoded::Frame)) => {
                            if state != ConnState::Streaming {
                                fail(ErrorCode::UnexpectedMessage);
                                break 'conn;
                            }
                            if frame.seq != next_seq {
                                fail(ErrorCode::BadSequence);
                                break 'conn;
                            }
                            let wants = ctx.mode == ContextMode::Perfect;
                            if frame.context.is_some() != wants {
                                fail(ErrorCode::BadContext);
                                break 'conn;
                            }
                            if frame.sample.manipulators.len() != ctx.manipulators {
                                fail(ErrorCode::BadShape);
                                break 'conn;
                            }
                            next_seq += 1;
                            // Swap the decoded sample out against a
                            // recycled one so the decoder's scratch keeps
                            // its warmed-up capacity.
                            let mut sample = recycle_rx.try_recv().unwrap_or_default();
                            std::mem::swap(&mut sample, &mut frame.sample);
                            let sent = ctx.cmd_tx.send(PoolCmd::Frame {
                                conn,
                                context: frame.context,
                                sample,
                            });
                            if sent.is_err() {
                                break 'conn;
                            }
                        }
                        Ok(Some(Decoded::Goodbye)) => {
                            if state != ConnState::Streaming {
                                fail(ErrorCode::UnexpectedMessage);
                                break 'conn;
                            }
                            state = ConnState::Draining;
                            if ctx.cmd_tx.send(PoolCmd::Goodbye { conn }).is_err() {
                                break 'conn;
                            }
                        }
                        // Server→client kinds arriving *from* a client.
                        Ok(Some(_)) => {
                            fail(ErrorCode::BadKind);
                            break 'conn;
                        }
                    }
                }
            }
            Err(ref e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if ctx.shutdown.load(Ordering::Acquire) {
                    break 'conn;
                }
            }
            Err(_) => break 'conn,
        }
    }
    if opened {
        // Idempotent: the pool ignores conns it already finished.
        let _ = ctx.cmd_tx.send(PoolCmd::Gone { conn });
    }
}

fn writer_loop(mut stream: TcpStream, egress_rx: Receiver<Egress>) {
    let mut enc = BytesMut::new();
    while let Ok(msg) = egress_rx.recv() {
        enc.clear();
        match msg {
            Egress::Close => break,
            Egress::Welcome { session } => encode_welcome(&mut enc, session),
            Egress::Busy { active, cap } => encode_busy(&mut enc, active, cap),
            Egress::Decision(d) => encode_decision(&mut enc, &d),
            Egress::Error { code } => encode_error(&mut enc, code),
            Egress::Bye { delivered } => encode_bye(&mut enc, delivered),
        }
        if stream.write_all(enc.chunk()).is_err() {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

struct ConnEntry {
    session: usize,
    egress: Sender<Egress>,
    recycle: Sender<KinematicSample>,
    submitted: u64,
    delivered: u64,
    draining: bool,
}

/// Sole owner of the [`ShardedMonitorPool`]: admits sessions into it,
/// forwards frames, routes decisions back to the right writer, and
/// removes sessions when their connection ends (elasticity — freed
/// engine slots are recycled for future sessions).
fn pool_loop(
    pipeline: Arc<TrainedPipeline>,
    mode: ContextMode,
    serve: ServeConfig,
    cmd_rx: Receiver<PoolCmd>,
    counters: Arc<Counters>,
) {
    let mut pool = ShardedMonitorPool::new(pipeline, mode, serve);
    let mut conns: HashMap<u64, ConnEntry> = HashMap::new();
    let mut by_session: HashMap<usize, u64> = HashMap::new();
    let mut decisions = Vec::new();

    'serve: loop {
        match cmd_rx.recv_timeout(Duration::from_micros(500)) {
            Ok(cmd) => {
                handle_cmd(cmd, &mut pool, &mut conns, &mut by_session, &counters);
                while let Ok(cmd) = cmd_rx.try_recv() {
                    handle_cmd(cmd, &mut pool, &mut conns, &mut by_session, &counters);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break 'serve,
        }
        pool.poll_into(&mut decisions);
        route_decisions(&mut decisions, &mut pool, &mut conns, &mut by_session, &counters);
    }

    // Shutdown: nothing can submit any more; drain in-flight compute so
    // the counters stay truthful, then release every writer.
    pool.flush_into(&mut decisions);
    route_decisions(&mut decisions, &mut pool, &mut conns, &mut by_session, &counters);
    for entry in conns.values() {
        let _ = entry.egress.send(Egress::Close);
    }
    counters.active.store(0, Ordering::Release);
}

fn handle_cmd(
    cmd: PoolCmd,
    pool: &mut ShardedMonitorPool,
    conns: &mut HashMap<u64, ConnEntry>,
    by_session: &mut HashMap<usize, u64>,
    counters: &Arc<Counters>,
) {
    match cmd {
        PoolCmd::Open { conn, egress, recycle } => {
            let session = pool.add_session();
            let _ = egress.send(Egress::Welcome { session: session as u64 });
            by_session.insert(session, conn);
            conns.insert(
                conn,
                ConnEntry { session, egress, recycle, submitted: 0, delivered: 0, draining: false },
            );
        }
        PoolCmd::Frame { conn, context, sample } => {
            let Some(entry) = conns.get_mut(&conn) else { return };
            match context {
                Some(gesture) => pool.submit_with_context(entry.session, &sample, gesture),
                None => {
                    // The reader enforced mode/context agreement, so this
                    // cannot be Err(MissingContext).
                    let _ = pool.submit(entry.session, &sample);
                }
            }
            entry.submitted += 1;
            let _ = entry.recycle.send(sample);
        }
        PoolCmd::Goodbye { conn } => {
            let finished = match conns.get_mut(&conn) {
                Some(entry) => {
                    entry.draining = true;
                    entry.delivered == entry.submitted
                }
                None => false,
            };
            if finished {
                finish_conn(conn, pool, conns, by_session, counters);
            }
        }
        PoolCmd::Gone { conn } => {
            if let Some(entry) = conns.remove(&conn) {
                by_session.remove(&entry.session);
                pool.remove_session(entry.session);
                counters.active.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }
}

fn route_decisions(
    decisions: &mut Vec<context_monitor::Decision>,
    pool: &mut ShardedMonitorPool,
    conns: &mut HashMap<u64, ConnEntry>,
    by_session: &mut HashMap<usize, u64>,
    counters: &Arc<Counters>,
) {
    for d in decisions.drain(..) {
        // Sessions whose connection died mid-flight still drain their
        // decisions out of the pool; they just have nowhere to go.
        let Some(&conn) = by_session.get(&d.session) else { continue };
        let finished = match conns.get_mut(&conn) {
            Some(entry) => {
                entry.delivered += 1;
                counters.decisions.fetch_add(1, Ordering::Relaxed);
                let msg = DecisionMsg::from_decision(d.frame as u32, d.output.as_ref());
                let _ = entry.egress.send(Egress::Decision(msg));
                entry.draining && entry.delivered == entry.submitted
            }
            None => false,
        };
        if finished {
            finish_conn(conn, pool, conns, by_session, counters);
        }
    }
}

/// Clean GOODBYE completion: every submitted frame has its decision on
/// the wire, so acknowledge with BYE, close, and free the session slot.
fn finish_conn(
    conn: u64,
    pool: &mut ShardedMonitorPool,
    conns: &mut HashMap<u64, ConnEntry>,
    by_session: &mut HashMap<usize, u64>,
    counters: &Arc<Counters>,
) {
    let Some(entry) = conns.remove(&conn) else { return };
    let _ = entry.egress.send(Egress::Bye { delivered: entry.delivered });
    let _ = entry.egress.send(Egress::Close);
    by_session.remove(&entry.session);
    pool.remove_session(entry.session);
    counters.active.fetch_sub(1, Ordering::AcqRel);
}

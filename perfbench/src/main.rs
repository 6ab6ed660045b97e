//! Runs one workload of the monitor's benchmark and prints its result.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_f32 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the result line carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics, and the spans are written
//! under the build directory. The line before the result is a record of
//! the host, the generator and every metric's sample count. The exit code
//! is non-zero when any decision is not bit-equal to the reference.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use context_monitor::{Precision, ShardedMonitorPool};
use ingress::{IngressServer, ServerStats};
use perfbench::layers;
use perfbench::report::{
    median, metric_details, num, object, peak_rss_mb, quantile, result_line, steal_ticks, string,
    Metric, Phase, Windows,
};
use perfbench::setup::{self, Key, Prepared, SetupTimes};
use perfbench::trace::Tracer;
use perfbench::{fleet, socket, Outcome, Workload, DEADLINE, WORKERS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Window of the per-window statistics behind the end-to-end metrics, s.
const WINDOW_S: f64 = 1.0;
/// `/proc/stat` clock ticks per second (`USER_HZ`).
const CLOCK_TICKS_PER_S: f64 = 100.0;
/// Unmeasured lead-in of every load phase.
const WARMUP: Duration = Duration::from_secs(1);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The system under load: the ingress service or the in-process pool.
enum Service {
    Server(IngressServer),
    Pool(ShardedMonitorPool),
}

impl Service {
    fn start(workload: Workload, prepared: &Prepared) -> Service {
        match workload {
            Workload::SocketClosed => Service::Server(socket::start_server(&prepared.pipeline)),
            Workload::FleetF32 | Workload::FleetInt8 => {
                Service::Pool(fleet::start_pool(&prepared.pipeline, workload.tier()))
            }
        }
    }
}

/// One load phase on `service`, with the server's counters around it.
fn load(
    service: &mut Service,
    tier: Precision,
    demos: &[Vec<kinematics::KinematicSample>],
    refs: &[Vec<Key>],
    phase: Phase,
    traced: bool,
) -> (Outcome, Option<ServerStats>) {
    match service {
        Service::Server(server) => {
            let before = server.stats();
            let out = socket::run(server.local_addr(), demos, refs, phase, traced);
            let after = server.stats();
            let delta = ServerStats {
                active: after.active,
                admitted: after.admitted - before.admitted,
                shed: after.shed - before.shed,
                protocol_errors: after.protocol_errors - before.protocol_errors,
                decisions: after.decisions - before.decisions,
            };
            (out, Some(delta))
        }
        Service::Pool(pool) => {
            let tracer = if traced { Tracer::on(1 << 20) } else { Tracer::off() };
            (fleet::run(pool, tier, demos, refs, phase, tracer), None)
        }
    }
}

/// Problems the run found; any one makes the result incorrect.
#[derive(Default)]
struct Problems(Vec<String>);

impl Problems {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    fn outcome(&mut self, phase: &str, o: &Outcome) {
        self.check(o.mismatches == 0, || format!("{phase}: {} decisions differ", o.mismatches));
        self.check(o.errors == 0, || {
            format!("{phase}: {} socket/protocol/routing errors", o.errors)
        });
        self.check(o.reactor_applied == o.decisions, || {
            format!("{phase}: reactors applied {} of {} decisions", o.reactor_applied, o.decisions)
        });
        self.check(o.warm > 0, || format!("{phase}: no warm decision measured"));
    }

    fn server(&mut self, phase: &str, o: &Outcome, s: &ServerStats) {
        self.check(s.decisions == o.decisions, || {
            format!("{phase}: server sent {} decisions, clients got {}", s.decisions, o.decisions)
        });
        self.check(s.admitted == o.sessions, || {
            format!(
                "{phase}: server admitted {} sessions, clients opened {}",
                s.admitted, o.sessions
            )
        });
        self.check(s.shed == 0 && s.protocol_errors == 0, || {
            format!("{phase}: {} shed, {} protocol errors", s.shed, s.protocol_errors)
        });
    }
}

fn us(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|s| s * 1e6).collect()
}

fn ms(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|s| s * 1e3).collect()
}

/// Per-layer metrics every load phase gives.
fn serve_layers(o: &Outcome) -> Vec<Metric> {
    let wait = o.wait_ms();
    let n = o.latency_ms.len();
    let on_decision = us(&o.tracer.secs("reactor.on_decision"));
    vec![
        Metric::new("serve.compute_ms.p50", quantile(&o.compute_ms, 0.5), "ms", n),
        Metric::new("serve.compute_ms.p99", quantile(&o.compute_ms, 0.99), "ms", n),
        Metric::new("serve.wait_ms.p50", quantile(&wait, 0.5), "ms", n),
        Metric::new("serve.wait_ms.p99", quantile(&wait, 0.99), "ms", n),
        Metric::new("serve.deadline_misses", o.late as f64, "count", o.ops as usize),
        Metric::new("reactor.deadline_misses", o.reactor_misses as f64, "count", o.ops as usize),
        Metric::new("reactor.on_decision_us", median(&on_decision), "us", on_decision.len()),
        Metric::new("reactor.decisions_applied", o.reactor_applied as f64, "count", 1),
        Metric::new(
            "engine.warm_ratio",
            o.warm as f64 / o.ops.max(1) as f64,
            "ratio",
            o.ops as usize,
        ),
    ]
}

/// Per-layer metrics of a socket phase.
fn ingress_layers(o: &Outcome, s: &ServerStats) -> Vec<Metric> {
    let hop = o.wait_ms();
    vec![
        Metric::new("ingress.hop_ms.p50", quantile(&hop, 0.5), "ms", hop.len()),
        Metric::new("ingress.hop_ms.p99", quantile(&hop, 0.99), "ms", hop.len()),
        Metric::new("ingress.server_decisions", s.decisions as f64, "count", 1),
        Metric::new("ingress.shed", s.shed as f64, "count", 1),
        Metric::new("ingress.protocol_errors", s.protocol_errors as f64, "count", 1),
    ]
}

/// Per-layer metrics of a fleet phase.
fn pool_layers(o: &Outcome) -> Vec<Metric> {
    let submit = us(&o.tracer.secs("serve.submit"));
    let drain = ms(&o.tracer.secs("serve.drain"));
    vec![
        Metric::new("serve.submit_us", median(&submit), "us", submit.len()),
        Metric::new("serve.drain_ms", median(&drain), "ms", drain.len()),
    ]
}

fn setup_layers(t: &SetupTimes) -> Vec<Metric> {
    vec![
        Metric::new("setup.dataset_s", t.dataset_s, "s", 1),
        Metric::new("setup.train_s", t.train_s, "s", 1),
        Metric::new("setup.quantize_s", t.quantize_s, "s", 1),
        Metric::new("setup.start_s", t.start_s, "s", 1),
    ]
}

/// Where the spans of a traced run go: the build directory.
fn trace_path(workload: Workload, seed: u64) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"), PathBuf::from);
    dir.join("perfbench-traces").join(format!("{}-seed{seed}.csv", workload.name()))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload socket_closed|fleet_f32|fleet_int8 \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let correct = run(&args);
    std::process::exit(if correct { 0 } else { 1 });
}

/// Runs the workload, prints the record and result lines, and returns
/// whether every check passed.
fn run(args: &Args) -> bool {
    let origin = Instant::now();
    let workload = args.workload;
    let tier = workload.tier();
    let mut problems = Problems::default();

    // Set-up, several times; the median one is reported.
    let mut reps: Vec<SetupTimes> = Vec::with_capacity(SETUP_REPS);
    let mut live: Option<(Prepared, Service)> = None;
    for _ in 0..SETUP_REPS {
        drop(live.take());
        let mut prepared = setup::prepare(args.seed);
        let t = Instant::now();
        let service = Service::start(workload, &prepared);
        prepared.times.start_s = t.elapsed().as_secs_f64();
        reps.push(prepared.times);
        live = Some((prepared, service));
    }
    let (prepared, mut service) = live.expect("at least one set-up");
    reps.sort_by(|a, b| a.total().total_cmp(&b.total()));
    let setup_times = reps[reps.len() / 2];

    let setup_peak_rss = peak_rss_mb();
    let refs = setup::reference(&prepared.pipeline, &prepared.demos, tier);
    let digest = setup::digest(&refs);
    let demos = &prepared.demos;
    let measure = Duration::from_secs_f64(args.seconds);

    // A traced run loads twice, untraced then traced, each for half the
    // time, so it takes about as long as an untraced run.
    let measure = if args.trace { measure / 2 } else { measure };
    let steal_before = steal_ticks();
    let plain_phase = Phase::new(WARMUP, measure);
    let (plain, plain_stats) = load(&mut service, tier, demos, &refs, plain_phase, false);
    let steal_s = (steal_ticks() - steal_before) as f64 / CLOCK_TICKS_PER_S;
    // Read before any post-processing allocates.
    let peak_rss = peak_rss_mb();
    problems.outcome("load", &plain);
    if let Some(s) = &plain_stats {
        problems.server("load", &plain, s);
    }

    let mut attempted = plain.ops;
    let mut failed = plain.failed;
    let mut metrics: Vec<Metric>;
    let mut extra: Vec<(&str, String)> = Vec::new();

    if !args.trace {
        let win = Windows::new(&plain, WINDOW_S, measure.as_secs_f64());
        let n = plain.latency_ms.len();
        metrics = vec![
            Metric::new("latency_p50_ms", median(&win.p50), "ms", n),
            Metric::new("latency_p99_ms", quantile(&win.p99, 0.1), "ms", n),
            Metric::new("decisions_per_s", median(&win.rate), "1/s", n),
            Metric::new("setup_s", setup_times.total(), "s", SETUP_REPS),
            Metric::new("peak_rss_mb", peak_rss, "MB", 1),
        ];
        extra.push(("windows", win.record()));
        extra.push((
            "pooled",
            object(&[
                ("latency_p50_ms", num(quantile(&plain.latency_ms, 0.5))),
                ("latency_p99_ms", num(quantile(&plain.latency_ms, 0.99))),
                ("decisions_per_s", num(plain.rate())),
            ]),
        ));
    } else {
        // The same load again, traced; the rate difference is the
        // tracing overhead.
        let traced_phase = Phase::new(WARMUP, measure);
        let (traced, traced_stats) = load(&mut service, tier, demos, &refs, traced_phase, true);
        problems.outcome("traced load", &traced);
        attempted += traced.ops;
        failed += traced.failed;
        metrics = serve_layers(&traced);

        // The layers the workload's own path does not cross are measured
        // by a shorter phase of the other path shape, on the f32 tier.
        let side = Phase::new(WARMUP / 2, measure / 4);
        let mut side_tracer = Tracer::on(1 << 16);
        let f32_refs = match tier {
            Precision::F32 => refs.clone(),
            Precision::Int8 => setup::reference(&prepared.pipeline, demos, Precision::F32),
        };
        match traced_stats {
            Some(stats) => {
                problems.server("traced load", &traced, &stats);
                metrics.extend(ingress_layers(&traced, &stats));
                let mut pool = fleet::start_pool(&prepared.pipeline, Precision::F32);
                let o = fleet::run(&mut pool, Precision::F32, demos, &f32_refs, side, side_tracer);
                problems.outcome("fleet side phase", &o);
                attempted += o.ops;
                failed += o.failed;
                metrics.extend(pool_layers(&o).into_iter().map(|m| m.from_phase("fleet_f32 side")));
                side_tracer = o.tracer;
            }
            None => {
                metrics.extend(pool_layers(&traced));
                let mut server = Service::Server(socket::start_server(&prepared.pipeline));
                let (o, stats) = load(&mut server, Precision::F32, demos, &f32_refs, side, true);
                let stats = stats.expect("a server phase reports its counters");
                problems.outcome("socket side phase", &o);
                problems.server("socket side phase", &o, &stats);
                attempted += o.ops;
                failed += o.failed;
                metrics.extend(
                    ingress_layers(&o, &stats)
                        .into_iter()
                        .map(|m| m.from_phase("socket_closed side")),
                );
                side_tracer = o.tracer;
            }
        }

        // Layer replay at both tiers on the workload's frames; the
        // workload's own tier gives the step breakdown.
        let mut micro = Tracer::on(1 << 16);
        let other = if tier == Precision::F32 { Precision::Int8 } else { Precision::F32 };
        let replay = layers::replay(&prepared.pipeline, demos, tier, 0);
        let replay_other = layers::replay(&prepared.pipeline, demos, other, 1 << 32);
        for r in [&replay, &replay_other] {
            problems.check(r.mismatches == 0, || {
                format!("layer replay: {} of {} frames differ from step", r.mismatches, r.frames)
            });
        }
        let stage1 = layers::stage1_layers(&prepared.pipeline, demos, &mut micro);
        problems.check(stage1.equal, || "predict_traced differs from predict_scratch".to_string());
        let gemm = layers::lstm_gate_gemm(args.seed, &mut micro);
        problems.check(gemm.equal, || "gemm_ab differs from naive_ab".to_string());
        let codec = layers::codec(demos, &mut micro);
        problems.check(codec.equal, || "codec round trip differs".to_string());

        let warm = replay.warm_ids.len();
        let at = |name: &str| median(&replay.warm_us(name));
        let (f32_replay, int8_replay) = if tier == Precision::F32 {
            (&replay, &replay_other)
        } else {
            (&replay_other, &replay)
        };
        let stage1_f32 = median(&f32_replay.warm_us(layers::stage1_span(Precision::F32)));
        let stage1_int8 = median(&int8_replay.warm_us(layers::stage1_span(Precision::Int8)));
        let (step, features, stage2, filter) =
            (at("engine.step"), at("kinematics.features"), at("core.stage2"), at("engine.filter"));
        let parts = features + at(layers::stage1_span(tier)) + stage2 + filter;
        let gap_pct = (parts / step - 1.0) * 100.0;
        let rp = "replay";
        let w1 = stage1.windows;
        metrics.extend([
            Metric::new("engine.step_us", step, "us", warm).from_phase(rp),
            Metric::new("kinematics.features_us", features, "us", warm).from_phase(rp),
            Metric::new("nn.stage1_us", stage1_f32, "us", warm).from_phase(rp),
            Metric::new("nn.stage1.lstm0_us", stage1.lstm0_us, "us", w1).from_phase(rp),
            Metric::new("nn.stage1.lstm1_us", stage1.lstm1_us, "us", w1).from_phase(rp),
            Metric::new("nn.stage1.head_us", stage1.head_us, "us", w1).from_phase(rp),
            Metric::new("nn.stage1_int8_us", stage1_int8, "us", warm).from_phase(rp),
            Metric::new("core.stage2_us", stage2, "us", warm).from_phase(rp),
            Metric::new("engine.filter_us", filter, "us", warm).from_phase(rp),
            Metric::new("replay.parts_gap_pct", gap_pct.abs(), "%", warm).from_phase(rp),
            Metric::new("kernels.lstm_gate_ns", gemm.ns, "ns", gemm.calls).from_phase("kernel"),
            Metric::new("kernels.lstm_gate_gflops", gemm.gflops, "GFLOP/s", gemm.calls)
                .from_phase("kernel"),
            Metric::new("kernels.lstm_gate_bytes", gemm.bytes, "B", 1).from_phase("kernel"),
            Metric::new("ingress.encode_us", codec.encode_us, "us", codec.frames)
                .from_phase("codec"),
            Metric::new("ingress.decode_us", codec.decode_us, "us", codec.frames)
                .from_phase("codec"),
            Metric::new("ingress.bytes_per_decision", codec.bytes_per_decision, "B", 1)
                .from_phase("codec"),
        ]);
        metrics.extend(setup_layers(&setup_times).into_iter().map(|m| m.from_phase("setup")));
        let overhead = (plain.rate() - traced.rate()) / plain.rate() * 100.0;
        metrics.push(Metric::new("trace.overhead_pct", overhead, "%", 2));

        extra.push((
            "replay",
            object(&[
                ("bit_equal_to_step", (replay.mismatches == 0).to_string()),
                ("frames", replay.frames.to_string()),
                ("warm_frames", warm.to_string()),
                ("parts_sum_us", num(parts)),
                ("step_us", num(step)),
                ("parts_minus_step_pct", num(gap_pct)),
            ]),
        ));

        let mut spans = traced.tracer;
        spans.absorb(side_tracer);
        spans.absorb(replay.tracer);
        spans.absorb(replay_other.tracer);
        spans.absorb(micro);
        let path = trace_path(workload, args.seed);
        match spans.write_csv(&path, origin) {
            Ok(()) => extra.push(("trace_file", string(&path.display().to_string()))),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        extra.push(("spans", spans.count().to_string()));
    }

    let correct = problems.0.is_empty();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let over_socket = workload == Workload::SocketClosed;
    let mut record: Vec<(&str, String)> = vec![
        ("workload", string(workload.name())),
        ("seed", args.seed.to_string()),
        ("trace", args.trace.to_string()),
        ("tier", string(&tier.to_string())),
        ("cores", cores.to_string()),
        ("gemm_backend", string(&nn::kernels::gemm_backend_label())),
        ("pool_workers", WORKERS.to_string()),
        ("generator_threads", (if over_socket { socket::CONNECTIONS } else { 1 }).to_string()),
        ("connections", (if over_socket { socket::CONNECTIONS } else { 0 }).to_string()),
        (
            "sessions_in_flight",
            (if over_socket { socket::CONNECTIONS } else { fleet::SESSIONS }).to_string(),
        ),
        (
            "wait_strategy",
            string(if over_socket {
                socket::WAIT_STRATEGY
            } else {
                "drain_deadline, 33.3 ms per tick"
            }),
        ),
        ("deadline_ms", num(DEADLINE.as_micros() as f64 / 1e3)),
        ("warmup_s", num(WARMUP.as_secs_f64())),
        ("measure_s", num(measure.as_secs_f64())),
        ("setup_reps", SETUP_REPS.to_string()),
        ("held_out_demos", demos.len().to_string()),
        ("demo_streams", plain.sessions.to_string()),
        (
            "host_steal_pct",
            num(steal_s / ((WARMUP + measure).as_secs_f64() * cores as f64) * 100.0),
        ),
        ("peak_rss_after_setup_mb", num(setup_peak_rss)),
        ("decision_digest", string(&format!("{digest:016x}"))),
        ("metrics", metric_details(&metrics)),
        (
            "problems",
            format!("[{}]", problems.0.iter().map(|p| string(p)).collect::<Vec<_>>().join(", ")),
        ),
    ];
    record.extend(extra);
    for p in &problems.0 {
        eprintln!("perfbench: FAILED: {p}");
    }
    for m in &metrics {
        eprintln!(
            "{:<28} {:>14} {:<8} ({} samples, {})",
            m.name,
            num(m.value),
            m.unit,
            m.samples,
            m.source
        );
    }
    println!("{}", object(&[("record", object(&record))]));
    println!("{}", result_line(correct, attempted.max(1), failed, &metrics));
    correct
}

//! Fleet-scale closed loop — the serving story behind the paper's claim.
//!
//! `repro_closed_loop` proves one simulated robot can be stopped in time;
//! this binary proves a **fleet** can: N concurrent guarded procedures ride
//! one shared `ShardedMonitorPool`, gating decisions travel the sharded
//! serving tick, and a per-tick deadline fails safe (hold,
//! never an un-gated command) when a decision arrives late. The pool's
//! telemetry decomposes the reaction-time margin into per-decision compute
//! vs. ingress-to-egress queueing.
//!
//! `--smoke` (the CI gate) asserts, on a small fixed-seed grid:
//!
//! 1. the fleet `ClosedLoopReport` is **bit-identical** for 1 vs N pool
//!    workers (and different fleet sizes),
//! 2. it is bit-identical to the single-robot `run_closed_loop_campaign`
//!    (prevention strictly above the unmonitored 0% baseline), and
//! 3. under a forced deadline miss (stalled shard + tiny budget), **zero**
//!    un-gated commands escape and every late decision applies exactly once.

use bench::{block_transfer_dataset, block_transfer_monitor_cfg, header, Scale};
use context_monitor::{Precision, TrainedPipeline};
use faults::{
    run_closed_loop_campaign, run_fleet_campaign, run_forced_miss_drill, CampaignConfig,
    ClosedLoopConfig, FleetConfig,
};
use raven_sim::SimConfig;
use reactor::{MitigationPolicy, ReactorConfig};
use std::sync::Arc;
use std::time::Duration;

/// Numeric tier for every engine in the campaign, from the
/// `MONITOR_PRECISION` env knob (`f32` default, `int8`/`i8` for the
/// quantized tier). An unrecognized value fails loud — a CI matrix row that
/// silently fell back to f32 would fake quantized coverage.
fn monitor_precision() -> Precision {
    match std::env::var("MONITOR_PRECISION") {
        Ok(v) => Precision::parse(&v)
            .unwrap_or_else(|| panic!("MONITOR_PRECISION={v}: expected f32, int8, or i8")),
        Err(_) => Precision::F32,
    }
}

fn train_pipeline(scale: Scale, precision: Precision) -> Arc<TrainedPipeline> {
    let ds = block_transfer_dataset(scale);
    let cfg = block_transfer_monitor_cfg(scale);
    let idx: Vec<usize> = (0..ds.len()).collect();
    let mut pipeline = TrainedPipeline::train(&ds, &idx, &cfg);
    if precision == Precision::Int8 {
        pipeline.quantize(&ds, &idx).expect("built-in specs are quantizable");
    }
    Arc::new(pipeline)
}

fn closed_loop(sim: SimConfig, scale: f32, precision: Precision) -> ClosedLoopConfig {
    ClosedLoopConfig {
        campaign: CampaignConfig { sim, seed: bench::SEED, scale, threads: 8 },
        reactor: ReactorConfig {
            policy: MitigationPolicy::StopAndHold,
            precision,
            ..ReactorConfig::default()
        },
    }
}

fn print_fleet(report: &faults::ClosedLoopReport, stats: &faults::FleetStats) {
    print!("{}", report.summary().render());
    println!(
        "fleet: {} trials, {} frames through the pool, {} deadline misses",
        stats.trials, stats.frames, stats.deadline_misses
    );
    println!("{}", stats.pool);
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    let scale = Scale::from_env();
    let (sim, grid_scale) = match scale {
        Scale::Fast => (SimConfig { hz: 50.0, duration_s: 5.0, seed: 0, tremor: 0.3 }, 0.25),
        Scale::Full => (SimConfig::default(), 1.0),
    };

    let precision = monitor_precision();
    header("training the Block Transfer monitor");
    let pipeline = train_pipeline(scale, precision);

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("gemm backend: {} | tier: {precision}", nn::kernels::gemm_backend_label());
    for (workers, fleet) in [(1usize, 4usize), (4, 16)] {
        header(&format!(
            "fleet campaign — {fleet} concurrent procedures x {workers} pool workers \
             ({cores} host core(s), {precision} tier)"
        ));
        let cfg = FleetConfig::barrier(closed_loop(sim, grid_scale, precision), workers, fleet);
        let (report, stats) = run_fleet_campaign(&cfg, &pipeline).expect("valid config");
        print_fleet(&report, &stats);
    }

    header("forced deadline miss (stalled shard, 2 ms budget)");
    let mut cfg = FleetConfig::barrier(closed_loop(sim, grid_scale, precision), 2, 2);
    cfg.tick_budget_ms = Some(2.0);
    let drill =
        run_forced_miss_drill(&cfg, &pipeline, Duration::from_millis(150)).expect("valid config");
    println!(
        "{} trials x {} ticks: {} deadline misses, {} un-gated commands during misses, \
         {}/{} decisions applied",
        drill.trials,
        drill.ticks,
        drill.deadline_misses,
        drill.ungated_during_miss,
        drill.decisions_applied,
        drill.frames
    );
}

/// Small fixed-seed fleet campaign: the CI gate for worker-count
/// determinism, single-robot equivalence, and deadline-miss fail-safety.
fn smoke() {
    let precision = monitor_precision();
    header("fleet smoke (small grid, fixed seeds)");
    println!("gemm backend: {} | tier: {precision}", nn::kernels::gemm_backend_label());
    let sim = SimConfig { hz: 50.0, duration_s: 5.0, seed: 0, tremor: 0.3 };
    let pipeline = train_pipeline(Scale::Fast, precision);
    let cl = closed_loop(sim, 0.05, precision);

    let (one, _) = run_fleet_campaign(&FleetConfig::barrier(cl, 1, 3), &pipeline)
        .expect("smoke config is valid");
    let (many, stats) = run_fleet_campaign(&FleetConfig::barrier(cl, 4, 8), &pipeline)
        .expect("smoke config is valid");
    assert_eq!(
        one, many,
        "fleet report must be bit-identical for 1 vs 4 pool workers (3 vs 8 sessions)"
    );
    assert_eq!(stats.deadline_misses, 0, "barrier drain never misses a deadline");

    let single = run_closed_loop_campaign(&cl, &pipeline).expect("smoke config is valid");
    assert_eq!(one, single, "fleet must reproduce the single-robot closed loop bit-for-bit");

    let s = one.summary();
    assert!(s.baseline_unsafe > 0, "smoke grid produced no baseline unsafe events");
    assert!(s.prevented > 0, "prevention must be strictly above the unmonitored baseline (0%)");
    print_fleet(&one, &stats);

    let mut drill_cfg = FleetConfig::barrier(cl, 2, 2);
    drill_cfg.tick_budget_ms = Some(2.0);
    let drill = run_forced_miss_drill(&drill_cfg, &pipeline, Duration::from_millis(120))
        .expect("smoke config is valid");
    assert!(drill.deadline_misses > 0, "the stalled shard must force deadline misses");
    assert_eq!(drill.ungated_during_miss, 0, "zero un-gated commands under a deadline miss");
    assert_eq!(drill.decisions_applied, drill.frames, "late decisions applied exactly once");

    println!(
        "smoke OK: deterministic across workers, fleet == single-robot, prevented {}/{} \
         ({}% > unmonitored 0%), {} forced misses all fail-safe",
        s.prevented,
        s.baseline_unsafe,
        (100.0 * s.prevention_rate()).round(),
        drill.deadline_misses
    );
}

//! Quantized-tier parity gate: the acceptance check for `Precision::Int8`.
//!
//! Trains the Suturing monitor on a LOSO split, builds the calibrated int8
//! twin from the training demos only, and replays the **held-out** demos
//! through both tiers. The gate then asserts two different things:
//!
//! 1. **Accuracy parity (f32 ↔ int8, bounded, not bit-equal).** Per-frame
//!    gesture agreement, unsafe-score MAE, alert flip rate, and the mean
//!    held-out AUC delta must all stay inside documented tolerances. Int8
//!    is a different numeric program than f32 — bit-equality across tiers
//!    is impossible and not claimed.
//! 2. **Determinism within the int8 tier (bit-exact).** The same demo
//!    replayed twice, and the same sessions served through the sharded pool
//!    at 1 vs 4 workers, must produce
//!    bit-identical int8 decisions. The gate prints an order-independent
//!    digest of every int8 output; CI runs this binary under
//!    `GEMM_BACKEND=scalar` and `GEMM_BACKEND=simd` and diffs the digest
//!    line, which pins cross-backend bit-identity at the pipeline level
//!    (the kernel level is pinned by `nn`'s property tests).
//!
//! ```sh
//! cargo run --release -p bench --bin repro_quant_parity
//! ```

use bench::{header, jigsaws_dataset, suturing_monitor_cfg, Scale};
use context_monitor::serve::{ServeConfig, ShardedMonitorPool};
use context_monitor::{evaluate_run, ContextMode, MonitorRun, Precision, TrainedPipeline};
use gestures::Task;
use kinematics::Dataset;
use std::sync::Arc;

/// Accuracy-parity tolerances, chosen from measured headroom (see
/// DESIGN.md "Quantized tier"): the fast-scale gate typically measures
/// ≥ 0.99 gesture agreement and < 0.01 score MAE; the bounds below leave
/// room for backend/seed variation while still catching a broken
/// calibration (which degrades all four metrics catastrophically).
const MIN_GESTURE_AGREEMENT: f32 = 0.95;
const MAX_SCORE_MAE: f32 = 0.02;
const MAX_ALERT_FLIP_RATE: f32 = 0.05;
const MAX_AUC_DELTA: f32 = 0.02;

/// FNV-1a over every deterministic bit of a run (gesture, score bits,
/// alert), so two runs digest equal iff they are bit-identical.
fn digest(runs: &[MonitorRun]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for run in runs {
        for t in 0..run.unsafe_score.len() {
            for b in (run.gesture_pred[t] as u64).to_le_bytes() {
                mix(b);
            }
            for b in run.unsafe_score[t].to_bits().to_le_bytes() {
                mix(b);
            }
            mix(u8::from(run.unsafe_pred[t]));
        }
    }
    h
}

/// The deterministic bits of one pooled decision: gesture index, raw
/// unsafe-score bits, alert flag.
type Decision = (usize, u32, bool);

/// Streams each test demo as its own session through a sharded int8 pool
/// and returns the deterministic decision fields per session, frame-ordered.
fn pooled_int8(
    pipeline: &Arc<TrainedPipeline>,
    ds: &Dataset,
    test: &[usize],
    workers: usize,
) -> Vec<Vec<Decision>> {
    let cfg = ServeConfig { workers, threshold: 0.5, precision: Precision::Int8 };
    let mut pool = ShardedMonitorPool::with_sessions(
        Arc::clone(pipeline),
        ContextMode::Predicted,
        cfg,
        test.len(),
    );
    let longest = test.iter().map(|&i| ds.demos[i].len()).max().unwrap();
    for t in 0..longest {
        for (s, &i) in test.iter().enumerate() {
            if let Some(frame) = ds.demos[i].frames.get(t) {
                pool.submit(s, frame).expect("Predicted mode");
            }
        }
    }
    let mut outs: Vec<Vec<(usize, Decision)>> = vec![Vec::new(); test.len()];
    for d in pool.flush() {
        if let Some(o) = d.output {
            outs[d.session]
                .push((d.frame, (o.gesture.index(), o.unsafe_probability.to_bits(), o.alert)));
        }
    }
    outs.into_iter().map(|v| v.into_iter().map(|(_, k)| k).collect()).collect()
}

fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f32>() / xs.len() as f32
    }
}

fn main() {
    header("quantized-tier parity gate (Suturing, LOSO fold 0)");
    println!("gemm backend: {}", nn::kernels::gemm_backend_label());

    let ds = jigsaws_dataset(Task::Suturing, Scale::Fast);
    let cfg = suturing_monitor_cfg(Scale::Fast);
    let fold = &ds.loso_folds()[0];
    let mut pipeline = TrainedPipeline::train(&ds, &fold.train, &cfg);
    // Calibration sees training demos only; the parity below is held-out.
    pipeline.quantize(&ds, &fold.train).expect("built-in specs are quantizable");

    let mut agreement = Vec::new();
    let mut maes = Vec::new();
    let mut flips = Vec::new();
    let mut auc_deltas = Vec::new();
    let mut int8_runs = Vec::new();
    let mut f32_ms = Vec::new();
    let mut int8_ms = Vec::new();
    for &i in &fold.test {
        let demo = &ds.demos[i];
        let f = pipeline.run_demo(demo, ContextMode::Predicted);
        let q = pipeline.run_demo_with(demo, ContextMode::Predicted, Precision::Int8);
        let n = f.unsafe_score.len() as f32;
        let agree =
            f.gesture_pred.iter().zip(&q.gesture_pred).filter(|(a, b)| a == b).count() as f32 / n;
        let mae =
            f.unsafe_score.iter().zip(&q.unsafe_score).map(|(a, b)| (a - b).abs()).sum::<f32>() / n;
        let flip =
            f.unsafe_pred.iter().zip(&q.unsafe_pred).filter(|(a, b)| a != b).count() as f32 / n;
        if let (Some(fa), Some(qa)) = (evaluate_run(demo, &f).auc, evaluate_run(demo, &q).auc) {
            auc_deltas.push((fa - qa).abs());
        }
        println!(
            "{:<10} gesture agreement {:.3}  score MAE {:.4}  alert flips {:.3}  \
             compute {:.3} -> {:.3} ms/frame",
            demo.id, agree, mae, flip, f.compute_ms, q.compute_ms
        );
        agreement.push(agree);
        maes.push(mae);
        flips.push(flip);
        f32_ms.push(f.compute_ms);
        int8_ms.push(q.compute_ms);
        int8_runs.push(q);
    }

    let (agree, mae, flip) = (mean(&agreement), mean(&maes), mean(&flips));
    let auc_delta = mean(&auc_deltas);
    println!(
        "held-out means: gesture agreement {agree:.4}, score MAE {mae:.4}, alert flips \
         {flip:.4}, |AUC delta| {auc_delta:.4} ({} demos with AUC)",
        auc_deltas.len()
    );
    println!(
        "per-frame compute: f32 {:.3} ms, int8 {:.3} ms ({:.2}x)",
        mean(&f32_ms),
        mean(&int8_ms),
        mean(&f32_ms) / mean(&int8_ms)
    );
    assert!(agree >= MIN_GESTURE_AGREEMENT, "gesture agreement {agree} < {MIN_GESTURE_AGREEMENT}");
    assert!(mae <= MAX_SCORE_MAE, "unsafe-score MAE {mae} > {MAX_SCORE_MAE}");
    assert!(flip <= MAX_ALERT_FLIP_RATE, "alert flip rate {flip} > {MAX_ALERT_FLIP_RATE}");
    assert!(auc_delta <= MAX_AUC_DELTA, "held-out AUC delta {auc_delta} > {MAX_AUC_DELTA}");

    // Bit-exact determinism inside the tier: replaying is reproducible...
    let replay: Vec<MonitorRun> = fold
        .test
        .iter()
        .map(|&i| pipeline.run_demo_with(&ds.demos[i], ContextMode::Predicted, Precision::Int8))
        .collect();
    let d = digest(&int8_runs);
    assert_eq!(d, digest(&replay), "int8 replay must be bit-identical run to run");

    // ...and the sharded pool agrees with itself at every worker count.
    let shared = Arc::new(pipeline);
    let one = pooled_int8(&shared, &ds, &fold.test, 1);
    let four = pooled_int8(&shared, &ds, &fold.test, 4);
    assert_eq!(one, four, "int8 pool output must be bit-identical for 1 vs 4 workers");
    let warm: usize = one.iter().map(Vec::len).sum();
    assert!(warm > 0, "pool sessions should warm up");

    // The digest line CI diffs across GEMM_BACKEND=scalar/simd processes.
    println!("int8 output digest: {d:016x} over {} held-out demos", fold.test.len());
    println!("parity gate OK");
}

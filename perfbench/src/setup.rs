//! Workload inputs and set-up: the seeded Suturing dataset, the reduced
//! training run, the int8 twin, and the sequential reference every served
//! decision is checked against.

use std::sync::Arc;
use std::time::Instant;

use context_monitor::{ContextMode, InferenceEngine, MonitorConfig, Precision, TrainedPipeline};
use gestures::Task;
use jigsaws::{generate, GeneratorConfig};
use kinematics::{FeatureSet, KinematicSample};

/// Demonstrations generated per seed.
const DEMOS: usize = 24;
/// Of those, the last `HELD_OUT` are streamed; the rest train the model.
const HELD_OUT: usize = 8;
/// Model seed. Fixed: the benchmark seed varies the inputs, not the weights.
const MODEL_SEED: u64 = 2020;
/// Alert threshold of every pool and reactor.
pub const THRESHOLD: f32 = 0.5;

/// Wall-clock parts of one set-up, in seconds. They sum to its total.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Dataset generation.
    pub dataset_s: f64,
    /// Training both stages.
    pub train_s: f64,
    /// Building the int8 twin.
    pub quantize_s: f64,
    /// Starting the pool or server, up to the first frame it can take.
    pub start_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.dataset_s + self.train_s + self.quantize_s + self.start_s
    }
}

/// A trained pipeline plus the frames of the held-out demos it serves.
pub struct Prepared {
    /// The served model, with its int8 twin.
    pub pipeline: Arc<TrainedPipeline>,
    /// Frames of each held-out demo.
    pub demos: Vec<Vec<KinematicSample>>,
    /// Time spent so far (`start_s` is filled in by the caller).
    pub times: SetupTimes,
}

/// The dataset generator for `seed`: the fast-scale Suturing shape the
/// repository's benches use.
fn generator_config(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        num_demos: DEMOS,
        duration_scale: 0.45,
        max_gestures: 14,
        ..GeneratorConfig::new(Task::Suturing)
    }
    .with_seed(seed)
}

/// The reduced training configuration (`epochs = 2`, `train_stride = 6`).
/// Latency does not depend on the weights: every error classifier shares
/// one architecture.
fn monitor_config() -> MonitorConfig {
    let mut cfg = MonitorConfig::fast(FeatureSet::CRG).with_seed(MODEL_SEED);
    cfg.train.epochs = 2;
    cfg.train_stride = 6;
    cfg
}

/// Generates the dataset for `seed`, trains on its first demos, builds the
/// int8 twin, and keeps the held-out demos' frames.
pub fn prepare(seed: u64) -> Prepared {
    let t0 = Instant::now();
    let ds = generate(&generator_config(seed));
    let t1 = Instant::now();
    let train_idx: Vec<usize> = (0..DEMOS - HELD_OUT).collect();
    let mut pipeline = TrainedPipeline::train(&ds, &train_idx, &monitor_config());
    let t2 = Instant::now();
    pipeline.quantize(&ds, &train_idx).expect("built-in specs are quantizable");
    let t3 = Instant::now();
    let demos = ds.demos.into_iter().skip(DEMOS - HELD_OUT).map(|d| d.frames).collect();
    Prepared {
        pipeline: Arc::new(pipeline),
        demos,
        times: SetupTimes {
            dataset_s: (t1 - t0).as_secs_f64(),
            train_s: (t2 - t1).as_secs_f64(),
            quantize_s: (t3 - t2).as_secs_f64(),
            start_s: 0.0,
        },
    }
}

/// One decision's bit-equality key: `None` while the session warms up,
/// else `(gesture index, score bits, alert)`.
pub type Key = Option<(u8, u32, bool)>;

/// The key of a pool decision's output.
pub fn key_of(output: Option<&context_monitor::MonitorOutput>) -> Key {
    output.map(|o| (o.gesture.index() as u8, o.unsafe_probability.to_bits(), o.alert))
}

/// Per held-out demo, the decision keys a sequential [`InferenceEngine`]
/// at `tier` produces, frame by frame.
pub fn reference(
    pipeline: &TrainedPipeline,
    demos: &[Vec<KinematicSample>],
    tier: Precision,
) -> Vec<Vec<Key>> {
    demos
        .iter()
        .map(|frames| {
            let mut engine =
                InferenceEngine::with_precision(pipeline, ContextMode::Predicted, tier);
            frames
                .iter()
                .map(|f| {
                    let step = engine.step(pipeline, f).expect("Predicted mode needs no context");
                    step.complete().map(|(g, s)| (g.index() as u8, s.to_bits(), s > THRESHOLD))
                })
                .collect()
        })
        .collect()
}

/// FNV-1a digest of the reference decision streams, in demo order.
pub fn digest(refs: &[Vec<Key>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (d, stream) in refs.iter().enumerate() {
        eat(&(d as u64).to_le_bytes());
        for key in stream {
            match key {
                None => eat(&[0]),
                Some((g, bits, alert)) => {
                    eat(&[1, *g, u8::from(*alert)]);
                    eat(&bits.to_le_bytes());
                }
            }
        }
    }
    h
}

//! Single-layer measurements for the traced run, each timed from outside
//! through public functions:
//!
//! * [`replay`] feeds the workload's frames through the engine's building
//!   blocks on one thread and checks every result bit-equal to
//!   `InferenceEngine::step` at the same tier;
//! * [`stage1_layers`] times the f32 gesture network per layer;
//! * [`lstm_gate_gemm`] times `nn::kernels::gemm_ab` at the stage-1 input
//!   projection shape;
//! * [`codec`] times the wire codec on the workload's frames.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use bytes::BytesMut;
use context_monitor::{ContextMode, InferenceEngine, MajorityFilter, Precision, TrainedPipeline};
use gestures::{Gesture, NUM_GESTURES};
use ingress::codec::{encode_decision, encode_frame};
use ingress::{DecisionMsg, Decoded, Decoder, FrameMsg};
use kinematics::{KinematicSample, SlidingWindow};
use nn::kernels::{gemm_ab, naive_ab, GemmScratch};
use nn::{Mat, QuantScratch};

use crate::report::median;
use crate::trace::Tracer;

/// What the engine replay found.
pub struct Replay {
    /// Spans per frame: `engine.step` and the `replay.frame` tree.
    pub tracer: Tracer,
    /// Frames where both stages ran.
    pub warm_ids: Vec<u64>,
    /// Frames replayed.
    pub frames: usize,
    /// Frames whose replayed result differs from `InferenceEngine::step`.
    pub mismatches: usize,
}

impl Replay {
    /// Per warm frame, the summed duration (µs) of the spans named `name`.
    pub fn warm_us(&self, name: &str) -> Vec<f64> {
        let mut per_id: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.tracer.spans_named(name) {
            *per_id.entry(s.id).or_default() += s.secs() * 1e6;
        }
        self.warm_ids.iter().filter_map(|id| per_id.get(id).copied()).collect()
    }
}

/// Per-session state of the replayed engine, built only from public parts.
struct Parts {
    gesture_window: SlidingWindow,
    window: SlidingWindow,
    filter: MajorityFilter,
    gesture: Option<Gesture>,
    gfeat: Vec<f32>,
    feat: Vec<f32>,
    logits: Mat,
    probs: [f32; 2],
    gscratch: nn::NetworkScratch,
    escratch: nn::NetworkScratch,
    qscratch: QuantScratch,
}

impl Parts {
    fn new(p: &TrainedPipeline) -> Self {
        let cfg = &p.config;
        Self {
            gesture_window: SlidingWindow::new(cfg.gesture_window, p.gesture_in_dim),
            window: SlidingWindow::new(cfg.window.width, p.in_dim),
            filter: MajorityFilter::new(cfg.gesture_smoothing.max(1), NUM_GESTURES),
            gesture: None,
            gfeat: Vec::with_capacity(p.gesture_in_dim),
            feat: Vec::with_capacity(p.in_dim),
            logits: Mat::zeros(1, NUM_GESTURES),
            probs: [0.0; 2],
            gscratch: p.gesture_net.make_scratch(),
            escratch: p.error_scratch(),
            qscratch: p.quant_scratch(),
        }
    }

    /// One frame through the building blocks, in the engine's order,
    /// recording a span around each. Returns `(gesture, score)`.
    fn step(
        &mut self,
        p: &TrainedPipeline,
        tier: Precision,
        frame: &KinematicSample,
        id: u64,
        tr: &mut Tracer,
    ) -> (Option<Gesture>, Option<f32>) {
        let cfg = &p.config;
        let t0 = Instant::now();
        let parent = tr.record("replay.frame", id, None, t0, t0);

        frame.to_feature_vec_into(&cfg.gesture_features, &mut self.gfeat);
        p.gesture_normalizer.apply_frame_inplace(&mut self.gfeat);
        let gwindow = self.gesture_window.push(&self.gfeat);
        let t1 = Instant::now();
        tr.record("kinematics.features", id, Some(parent), t0, t1);
        if let Some(gw) = gwindow {
            match tier {
                Precision::F32 => {
                    p.gesture_net.predict_scratch(gw, &mut self.logits, &mut self.gscratch)
                }
                Precision::Int8 => quantized(p).gesture_net.predict_scratch(
                    gw,
                    &mut self.logits,
                    &mut self.qscratch,
                ),
            }
            let t2 = Instant::now();
            tr.record(stage1_span(tier), id, Some(parent), t1, t2);
            let smoothed = self.filter.push(self.logits.argmax_row(0));
            self.gesture = Gesture::from_index(smoothed);
            tr.record("engine.filter", id, Some(parent), t2, Instant::now());
        }

        let t3 = Instant::now();
        frame.to_feature_vec_into(&cfg.features, &mut self.feat);
        p.normalizer.apply_frame_inplace(&mut self.feat);
        let window = self.window.push(&self.feat);
        let t4 = Instant::now();
        tr.record("kinematics.features", id, Some(parent), t3, t4);
        let score = match (window, self.gesture) {
            (Some(w), Some(g)) => {
                let (logits, probs) = (&mut self.logits, &mut self.probs);
                let s = match tier {
                    Precision::F32 => p.score_window_scratch(
                        w,
                        g.index(),
                        ContextMode::Predicted,
                        logits,
                        probs,
                        &mut self.escratch,
                    ),
                    Precision::Int8 => p.score_window_scratch_q(
                        w,
                        g.index(),
                        ContextMode::Predicted,
                        logits,
                        probs,
                        &mut self.qscratch,
                    ),
                };
                tr.record("core.stage2", id, Some(parent), t4, Instant::now());
                Some(s)
            }
            _ => None,
        };
        tr.close(parent, Instant::now());
        (self.gesture, score)
    }
}

/// The span name of stage 1 at `tier`.
pub fn stage1_span(tier: Precision) -> &'static str {
    match tier {
        Precision::F32 => "nn.stage1",
        Precision::Int8 => "nn.stage1_int8",
    }
}

fn quantized(p: &TrainedPipeline) -> &context_monitor::QuantizedPipeline {
    p.quantized.as_ref().expect("the pipeline was quantized at set-up")
}

/// Replays every demo on one thread, frame by frame: `InferenceEngine::step`
/// (timed as `engine.step`) and the same frame through the building
/// blocks, in alternating order, comparing the two bit for bit. Span ids
/// start at `first_id`.
pub fn replay(
    p: &TrainedPipeline,
    demos: &[Vec<KinematicSample>],
    tier: Precision,
    first_id: u64,
) -> Replay {
    let frames: usize = demos.iter().map(Vec::len).sum();
    let mut tracer = Tracer::on(frames * 7);
    let mut warm_ids = Vec::with_capacity(frames);
    let mut mismatches = 0;
    let mut id = first_id;
    for demo in demos {
        let mut engine = InferenceEngine::with_precision(p, ContextMode::Predicted, tier);
        let mut parts = Parts::new(p);
        for frame in demo {
            let parts_first = id % 2 == 1;
            let replayed = parts_first.then(|| parts.step(p, tier, frame, id, &mut tracer));
            let ta = Instant::now();
            let step = engine.step(p, frame).expect("Predicted mode needs no context");
            tracer.record("engine.step", id, None, ta, Instant::now());
            let (gesture, score) =
                replayed.unwrap_or_else(|| parts.step(p, tier, frame, id, &mut tracer));
            if gesture != step.gesture
                || score.map(f32::to_bits) != step.unsafe_score.map(f32::to_bits)
            {
                mismatches += 1;
            }
            if step.complete().is_some() {
                warm_ids.push(id);
            }
            id += 1;
        }
    }
    Replay { tracer, warm_ids, frames, mismatches }
}

/// The f32 gesture network per layer (µs per window, medians).
pub struct Stage1Layers {
    /// First LSTM.
    pub lstm0_us: f64,
    /// Second LSTM.
    pub lstm1_us: f64,
    /// Dense head.
    pub head_us: f64,
    /// Windows timed.
    pub windows: usize,
    /// Whether every traced pass gave the logits `predict_scratch` gives.
    pub equal: bool,
}

/// Times the f32 gesture network per layer on every warm gesture window of
/// `demos`, from the `Network::predict_traced` observe hook, which fires
/// before each layer: the intervals are LSTM 0, LSTM 1, and the head.
pub fn stage1_layers(
    p: &TrainedPipeline,
    demos: &[Vec<KinematicSample>],
    tr: &mut Tracer,
) -> Stage1Layers {
    let cfg = &p.config;
    let mut logits = Mat::zeros(1, NUM_GESTURES);
    let mut expect = Mat::zeros(1, NUM_GESTURES);
    let mut scratch = p.gesture_net.make_scratch();
    let mut gfeat = Vec::with_capacity(p.gesture_in_dim);
    let (mut l0, mut l1, mut head) = (Vec::new(), Vec::new(), Vec::new());
    let mut equal = true;
    // Span ids apart from the replays' frame ids.
    let mut id = 2u64 << 32;
    for demo in demos {
        let mut sw = SlidingWindow::new(cfg.gesture_window, p.gesture_in_dim);
        for frame in demo {
            frame.to_feature_vec_into(&cfg.gesture_features, &mut gfeat);
            p.gesture_normalizer.apply_frame_inplace(&mut gfeat);
            let Some(w) = sw.push(&gfeat) else { continue };
            let mut marks = [None::<Instant>; 3];
            let t0 = Instant::now();
            p.gesture_net.predict_traced(w, &mut logits, &mut scratch, &mut |layer, _| {
                if let Some(m) = marks.get_mut(layer) {
                    *m = Some(Instant::now());
                }
            });
            let end = Instant::now();
            p.gesture_net.predict_scratch(w, &mut expect, &mut scratch);
            equal &= logits
                .row(0)
                .iter()
                .map(|x| x.to_bits())
                .eq(expect.row(0).iter().map(|x| x.to_bits()));
            let [Some(a), Some(b), Some(c)] = marks else {
                equal = false;
                continue;
            };
            let parent = tr.record("nn.stage1.traced", id, None, t0, end);
            tr.record("nn.stage1.lstm0", id, Some(parent), a, b);
            tr.record("nn.stage1.lstm1", id, Some(parent), b, c);
            tr.record("nn.stage1.head", id, Some(parent), c, end);
            l0.push((b - a).as_secs_f64() * 1e6);
            l1.push((c - b).as_secs_f64() * 1e6);
            head.push((end - c).as_secs_f64() * 1e6);
            id += 1;
        }
    }
    Stage1Layers {
        lstm0_us: median(&l0),
        lstm1_us: median(&l1),
        head_us: median(&head),
        windows: l0.len(),
        equal,
    }
}

/// `gemm_ab` at one shape.
pub struct Gemm {
    /// Median nanoseconds per call.
    pub ns: f64,
    /// `2·m·k·n` FLOPs over `ns`.
    pub gflops: f64,
    /// Bytes of A, B and C, from the shapes.
    pub bytes: f64,
    /// Calls timed.
    pub calls: usize,
    /// Whether the result is bit-equal to `naive_ab`.
    pub equal: bool,
}

/// Times `gemm_ab` at the stage-1 input projection shape, 15×38 · 38×192
/// (gesture window × features, into the fused gates of 48 hidden units),
/// in batches, and reports the median batch.
pub fn lstm_gate_gemm(seed: u64, tr: &mut Tracer) -> Gemm {
    const M: usize = 15;
    const K: usize = 38;
    const N: usize = 192;
    let mut state = seed | 1;
    let mut fill = |len: usize| -> Vec<f32> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u64 << 23) as f32) - 1.0
            })
            .collect()
    };
    let a = fill(M * K);
    let b = fill(K * N);
    let mut out = vec![0.0f32; M * N];
    let mut expect = vec![0.0f32; M * N];
    let mut scratch = GemmScratch::default();
    naive_ab(M, K, N, &a, &b, &mut expect);
    gemm_ab(M, K, N, &a, &b, &mut out, &mut scratch);
    let equal = out.iter().map(|x| x.to_bits()).eq(expect.iter().map(|x| x.to_bits()));

    let run = |calls: usize, out: &mut [f32], scratch: &mut GemmScratch| {
        let t0 = Instant::now();
        for _ in 0..calls {
            gemm_ab(M, K, N, black_box(&a), black_box(&b), out, scratch);
            black_box(&*out);
        }
        (t0, Instant::now())
    };
    let (t0, t1) = run(200, &mut out, &mut scratch);
    let per_call = ((t1 - t0).as_secs_f64() / 200.0).max(1e-9);
    let calls = ((0.02 / per_call) as usize).clamp(100, 1_000_000);
    let mut per_call_ns = Vec::new();
    for batch in 0..9u64 {
        let (t0, t1) = run(calls, &mut out, &mut scratch);
        tr.record("kernels.gemm_ab.batch", batch, None, t0, t1);
        per_call_ns.push((t1 - t0).as_secs_f64() * 1e9 / calls as f64);
    }
    let ns = median(&per_call_ns);
    Gemm {
        ns,
        gflops: 2.0 * (M * K * N) as f64 / ns,
        bytes: (4 * (M * K + K * N + M * N)) as f64,
        calls: calls * 9,
        equal,
    }
}

/// The wire codec on the workload's frames.
pub struct Codec {
    /// Median `encode_frame` time per frame, µs.
    pub encode_us: f64,
    /// Median `Decoder::extend` + `decode_next` time per frame, µs.
    pub decode_us: f64,
    /// FRAME plus DECISION message bytes.
    pub bytes_per_decision: f64,
    /// Frames timed.
    pub frames: usize,
    /// Whether every frame decoded back bit-equal.
    pub equal: bool,
}

/// Encodes the frames in batches of 64, then decodes the same bytes.
pub fn codec(demos: &[Vec<KinematicSample>], tr: &mut Tracer) -> Codec {
    const BATCH: usize = 64;
    let frames: Vec<&KinematicSample> = demos.iter().flatten().collect();
    let mut wire = BytesMut::new();
    let mut dec = Decoder::new();
    let mut msg = FrameMsg::default();
    let (mut enc_us, mut dec_us) = (Vec::new(), Vec::new());
    let mut equal = true;
    let mut frame_bytes = 0.0;
    for (b, chunk) in frames.chunks(BATCH).enumerate() {
        wire.clear();
        let t0 = Instant::now();
        for (i, f) in chunk.iter().enumerate() {
            encode_frame(&mut wire, i as u32, None, f);
        }
        let t1 = Instant::now();
        dec.extend(&wire);
        let mut decoded = 0;
        while let Ok(Some(Decoded::Frame)) = dec.decode_next(&mut msg) {
            decoded += 1;
            black_box(&msg);
        }
        let t2 = Instant::now();
        tr.record("ingress.encode.batch", b as u64, None, t0, t1);
        tr.record("ingress.decode.batch", b as u64, None, t1, t2);
        enc_us.push((t1 - t0).as_secs_f64() * 1e6 / chunk.len() as f64);
        dec_us.push((t2 - t1).as_secs_f64() * 1e6 / chunk.len() as f64);
        frame_bytes = wire.len() as f64 / chunk.len() as f64;

        // Verify outside the timed loops: the same bytes decode back.
        dec.extend(&wire);
        for (i, f) in chunk.iter().enumerate() {
            let ok = matches!(dec.decode_next(&mut msg), Ok(Some(Decoded::Frame)))
                && msg.seq == i as u32
                && msg.sample == **f;
            equal &= ok;
        }
        equal &= decoded == chunk.len() && dec.pending() == 0;
    }
    let mut decision = BytesMut::new();
    let warm = DecisionMsg {
        seq: 0,
        warm: true,
        alert: false,
        gesture: 0,
        score_bits: 0,
        compute_ms_bits: 0,
    };
    encode_decision(&mut decision, &warm);
    Codec {
        encode_us: median(&enc_us),
        decode_us: median(&dec_us),
        bytes_per_decision: frame_bytes + decision.len() as f64,
        frames: frames.len(),
        equal,
    }
}

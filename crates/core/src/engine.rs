//! The shared incremental inference core.
//!
//! Both deployment shapes of the monitor — offline replay
//! ([`TrainedPipeline::run_demo`](crate::pipeline::TrainedPipeline::run_demo))
//! and online streaming ([`SafetyMonitor`](crate::monitor::SafetyMonitor) /
//! [`MonitorPool`](crate::monitor::MonitorPool)) — are thin adapters over
//! [`InferenceEngine`]: an allocation-free, frame-at-a-time evaluator that
//! owns the per-session state (sliding windows, the causal gesture-smoothing
//! filter, and inference scratch buffers) while the model weights stay in the
//! shared [`TrainedPipeline`]. Offline/online agreement is therefore true by
//! construction: the two paths execute literally the same code.
//!
//! Per frame, the steady-state hot path performs **no heap allocation**:
//! feature extraction, normalization, windowing, both network forward passes
//! (via [`nn::Network::predict_scratch`]), the softmax, and the majority filter
//! all reuse preallocated buffers. The paper reports 1.5–3.2 ms per-sample
//! compute (Table VIII); keeping the per-frame path allocation-free is what
//! lets one process multiplex many concurrent surgical sessions
//! ([`MonitorPool`](crate::monitor::MonitorPool)) at that budget.

use crate::config::Precision;
use crate::pipeline::{ContextMode, QuantizedPipeline, TrainedPipeline};
use gestures::{Gesture, NUM_GESTURES};
use kinematics::{KinematicSample, SlidingWindow};
use nn::{Mat, NetworkScratch, QuantScratch};
use std::collections::VecDeque;

/// The quantized twin an [`Precision::Int8`] engine infers through.
/// Engines assert its presence at construction, so a miss here is a
/// caller swapping pipelines mid-session.
// lint: hot-path
fn quantized(pipeline: &TrainedPipeline) -> &QuantizedPipeline {
    // lint: allow(panic, reason = "with_precision asserts the quantized twin exists; losing it mid-session means the caller swapped pipelines and must fail loud")
    pipeline.quantized.as_ref().expect("Precision::Int8 requires TrainedPipeline::quantize()")
}

/// Typed error for the streaming decision path: a misconfigured caller gets
/// a value it can handle instead of a panic that would take down a serving
/// process hosting other sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineError {
    /// [`InferenceEngine::step`] (or a monitor `push`) was called on a
    /// [`ContextMode::Perfect`] engine, which needs externally supplied
    /// gesture boundaries (`step_with_context` / `push_with_context`).
    MissingContext,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::MissingContext => f.write_str(
                "ContextMode::Perfect requires externally supplied gesture context \
                 (use step_with_context / push_with_context)",
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Causal majority filter over a bounded trailing window with O(1) updates.
///
/// Replaces the O(k log k) per-frame recounts that the offline
/// (`mode_of`) and online (`mode_of_deque`) paths used to duplicate: counts
/// are maintained incrementally, and per-class queues of insertion indices
/// resolve ties by **earliest appearance in the window** — the same rule as
/// the historical recount ("first value whose class attains the maximal
/// count wins").
#[derive(Debug, Clone)]
pub struct MajorityFilter {
    capacity: usize,
    values: VecDeque<usize>,
    counts: Vec<usize>,
    /// Per class: insertion indices of its occurrences still in the window
    /// (monotonically increasing; front = earliest).
    positions: Vec<VecDeque<u64>>,
    next_index: u64,
}

impl MajorityFilter {
    /// Creates a filter over the `capacity` most recent values drawn from
    /// `classes` distinct classes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `classes == 0`.
    pub fn new(capacity: usize, classes: usize) -> Self {
        assert!(capacity > 0, "MajorityFilter: capacity must be positive");
        assert!(classes > 0, "MajorityFilter: classes must be positive");
        Self {
            capacity,
            values: VecDeque::with_capacity(capacity + 1),
            counts: vec![0; classes],
            positions: (0..classes).map(|_| VecDeque::with_capacity(capacity + 1)).collect(),
            next_index: 0,
        }
    }

    /// Pushes the newest value (evicting the oldest once at capacity) and
    /// returns the current majority. Amortized O(1) update, O(classes)
    /// query.
    ///
    /// # Panics
    ///
    /// Panics if `value` is out of the class range.
    // lint: hot-path
    pub fn push(&mut self, value: usize) -> usize {
        assert!(value < self.counts.len(), "MajorityFilter: class {value} out of range");
        if self.values.len() == self.capacity {
            // lint: allow(panic, reason = "window is at capacity, so pop_front cannot fail")
            let evicted = self.values.pop_front().expect("non-empty at capacity");
            // Covers this line and the next: evicted was admitted through
            // the entry assert, so it indexes in range.
            self.counts[evicted] -= 1; // lint: allow(panic, reason = "evicted passed the entry assert; counts/positions share its range")
            self.positions[evicted].pop_front();
        }
        self.values.push_back(value);
        // Covers this line and the next: value < counts.len() is asserted
        // at entry and positions has the same length.
        self.counts[value] += 1; // lint: allow(panic, reason = "value < counts.len() asserted at entry; positions same length")
        self.positions[value].push_back(self.next_index);
        self.next_index += 1;
        // lint: allow(panic, reason = "a value was just pushed, so the window cannot be empty")
        self.majority().expect("filter non-empty after push")
    }

    /// The majority class of the current window (earliest-seen wins ties),
    /// or `None` when empty.
    // lint: hot-path
    pub fn majority(&self) -> Option<usize> {
        let mut best: Option<(usize, usize, u64)> = None; // (class, count, first_idx)
        for (class, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            // lint: allow(panic, reason = "class enumerates counts, positions has the same length, and count > 0 means a position exists")
            let first = *self.positions[class].front().expect("count > 0");
            let better = match best {
                None => true,
                Some((_, bc, bf)) => count > bc || (count == bc && first < bf),
            };
            if better {
                best = Some((class, count, first));
            }
        }
        // lint: allow(hot-path, reason = "receiver is an Option, not a Mat -- std .map() name collision in the receiver-blind resolver")
        best.map(|(class, _, _)| class)
    }

    /// Number of values currently in the window.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Empties the window (capacity and class range are kept).
    pub fn clear(&mut self) {
        self.values.clear();
        self.counts.fill(0);
        for p in &mut self.positions {
            p.clear();
        }
        self.next_index = 0;
    }
}

/// Per-frame engine output. Each stage reports `Some` once its sliding
/// window (and, for the error stage, its routing context) is warm:
///
/// * `gesture` — the smoothed gesture context, from frame `gesture_window-1`
///   on (immediately in [`ContextMode::Perfect`]).
/// * `unsafe_score` — the erroneous-gesture probability, from the first
///   frame where both the error window and the required context exist.
///
/// The gesture is a typed [`Gesture`], not a raw class index: the engine
/// proves the index in-range at the single point where it leaves the
/// bounded [`MajorityFilter`], so downstream consumers can never observe
/// (or silently "repair") an out-of-range context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineStep {
    /// Smoothed operational context, once available.
    pub gesture: Option<Gesture>,
    /// Probability that the current window is unsafe, once available.
    pub unsafe_score: Option<f32>,
}

impl EngineStep {
    /// Both stages warm: `(gesture, unsafe_score)`.
    // lint: hot-path
    pub fn complete(&self) -> Option<(Gesture, f32)> {
        match (self.gesture, self.unsafe_score) {
            (Some(g), Some(s)) => Some((g, s)),
            _ => None,
        }
    }
}

/// Incremental two-stage evaluator holding **only per-session state**; model
/// weights live in the [`TrainedPipeline`] passed to every [`step`](Self::step),
/// so many engines can share one pipeline (see
/// [`MonitorPool`](crate::monitor::MonitorPool)).
///
/// The engine must be stepped with the pipeline it was created from (or an
/// identically configured one); window widths and feature dimensions are
/// fixed at construction.
#[derive(Debug)]
pub struct InferenceEngine {
    mode: ContextMode,
    /// Numeric tier the forward passes run at.
    precision: Precision,
    /// Error-stage sliding window over normalized features.
    window: SlidingWindow,
    /// Gesture-stage sliding window over normalized features.
    gesture_window: SlidingWindow,
    /// Causal smoothing over raw stage-1 predictions.
    filter: MajorityFilter,
    /// Last smoothed gesture (stage-2 routing context).
    gesture: Option<Gesture>,
    frames_seen: usize,
    // Scratch buffers (reused every frame; no steady-state allocation).
    // The network scratch lives here — not in the shared networks — so one
    // read-only `TrainedPipeline` can serve many engines across threads.
    feat: Vec<f32>,
    gfeat: Vec<f32>,
    logits: Mat,
    probs: [f32; 2],
    /// Inference scratch for the stage-1 gesture classifier.
    gscratch: NetworkScratch,
    /// Inference scratch for the stage-2 error classifiers (they share one
    /// architecture, so one scratch serves every route without reshaping).
    escratch: NetworkScratch,
    /// Int8-tier inference scratch (both stages; every buffer is
    /// high-water, so one scratch serves them sequentially). Empty and
    /// untouched on the f32 tier.
    qscratch: QuantScratch,
}

impl InferenceEngine {
    /// Creates a fresh (cold) engine for one session on the default
    /// [`Precision::F32`] tier.
    pub fn new(pipeline: &TrainedPipeline, mode: ContextMode) -> Self {
        Self::with_precision(pipeline, mode, Precision::F32)
    }

    /// Creates a fresh engine on a chosen numeric tier.
    ///
    /// # Panics
    ///
    /// Panics when asked for [`Precision::Int8`] before
    /// [`TrainedPipeline::quantize`](crate::pipeline::TrainedPipeline::quantize)
    /// populated the pipeline's quantized twin — a misconfiguration that
    /// must fail at session setup, not on the first warm frame.
    pub fn with_precision(
        pipeline: &TrainedPipeline,
        mode: ContextMode,
        precision: Precision,
    ) -> Self {
        assert!(
            precision == Precision::F32 || pipeline.quantized.is_some(),
            "Precision::Int8 requires TrainedPipeline::quantize() before engine creation"
        );
        let cfg = &pipeline.config;
        Self {
            mode,
            precision,
            window: SlidingWindow::new(cfg.window.width, pipeline.in_dim),
            gesture_window: SlidingWindow::new(cfg.gesture_window, pipeline.gesture_in_dim),
            filter: MajorityFilter::new(cfg.gesture_smoothing.max(1), NUM_GESTURES),
            gesture: None,
            frames_seen: 0,
            feat: Vec::with_capacity(pipeline.in_dim),
            gfeat: Vec::with_capacity(pipeline.gesture_in_dim),
            logits: Mat::zeros(1, NUM_GESTURES),
            probs: [0.0; 2],
            gscratch: pipeline.gesture_net.make_scratch(),
            escratch: pipeline.error_scratch(),
            qscratch: QuantScratch::default(),
        }
    }

    /// The context mode this engine evaluates.
    pub fn mode(&self) -> ContextMode {
        self.mode
    }

    /// The numeric tier this engine infers at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Frames consumed since construction or the last [`reset`](Self::reset).
    pub fn frames_seen(&self) -> usize {
        self.frames_seen
    }

    /// Clears all per-session state (call between procedures).
    pub fn reset(&mut self) {
        self.window.clear();
        self.gesture_window.clear();
        self.filter.clear();
        self.gesture = None;
        self.frames_seen = 0;
    }

    /// Feeds one frame, inferring the gesture context with stage 1.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::MissingContext`] in [`ContextMode::Perfect`]
    /// — perfect boundaries must be supplied via
    /// [`step_with_context`](Self::step_with_context). The frame is **not**
    /// consumed on error (no window or counter advances).
    // lint: hot-path
    pub fn step(
        &mut self,
        pipeline: &TrainedPipeline,
        frame: &KinematicSample,
    ) -> Result<EngineStep, EngineError> {
        if self.mode == ContextMode::Perfect {
            return Err(EngineError::MissingContext);
        }
        Ok(self.step_inner(pipeline, frame, None))
    }

    /// Feeds one frame with externally supplied context (the
    /// perfect-boundary upper bound). In the other modes the supplied
    /// context is ignored and stage 1 infers it as usual.
    // lint: hot-path
    pub fn step_with_context(
        &mut self,
        pipeline: &TrainedPipeline,
        frame: &KinematicSample,
        gesture: Gesture,
    ) -> EngineStep {
        self.step_inner(pipeline, frame, Some(gesture))
    }

    // lint: hot-path
    fn step_inner(
        &mut self,
        pipeline: &TrainedPipeline,
        frame: &KinematicSample,
        context: Option<Gesture>,
    ) -> EngineStep {
        self.frames_seen += 1;

        // Stage 1: operational context.
        self.gesture = if self.mode == ContextMode::Perfect {
            // `step` rejects Perfect mode, so context is always Some here.
            debug_assert!(context.is_some(), "Perfect mode requires context");
            context
        } else {
            frame.to_feature_vec_into(&pipeline.config.gesture_features, &mut self.gfeat);
            pipeline.gesture_normalizer.apply_frame_inplace(&mut self.gfeat);
            match self.gesture_window.push(&self.gfeat) {
                Some(gwindow) => {
                    match self.precision {
                        Precision::F32 => pipeline.gesture_net.predict_scratch(
                            gwindow,
                            &mut self.logits,
                            &mut self.gscratch,
                        ),
                        Precision::Int8 => quantized(pipeline).gesture_net.predict_scratch(
                            gwindow,
                            &mut self.logits,
                            &mut self.qscratch,
                        ),
                    }
                    debug_assert_eq!(self.logits.cols(), NUM_GESTURES);
                    Some(self.smooth_raw_class(self.logits.argmax_row(0)))
                }
                // Not warm yet: keep the previous smoothed value (always
                // `None` here, since stage 1 warms before it cools).
                None => self.gesture,
            }
        };

        // Stage 2: unsafe probability, routed by the stage-1 context. In
        // `NoContext` mode the single global classifier needs no context and
        // scores as soon as its own window is warm.
        frame.to_feature_vec_into(&pipeline.config.features, &mut self.feat);
        pipeline.normalizer.apply_frame_inplace(&mut self.feat);
        let routing = match self.mode {
            ContextMode::NoContext => Some(0),
            // lint: allow(hot-path, reason = "receiver is an Option, not a Mat -- std .map() name collision in the receiver-blind resolver")
            _ => self.gesture.map(Gesture::index),
        };
        let unsafe_score = match (self.window.push(&self.feat), routing) {
            (Some(window), Some(route)) => Some(match self.precision {
                Precision::F32 => pipeline.score_window_scratch(
                    window,
                    route,
                    self.mode,
                    &mut self.logits,
                    &mut self.probs,
                    &mut self.escratch,
                ),
                Precision::Int8 => pipeline.score_window_scratch_q(
                    window,
                    route,
                    self.mode,
                    &mut self.logits,
                    &mut self.probs,
                    &mut self.qscratch,
                ),
            }),
            _ => None,
        };

        EngineStep { gesture: self.gesture, unsafe_score }
    }

    /// Smooths a raw stage-1 class index and converts it to a typed
    /// [`Gesture`], the **only** place a class index crosses into the typed
    /// domain. In-range is an invariant, not a hope: `MajorityFilter::push`
    /// asserts `raw < NUM_GESTURES` on entry and only ever returns values it
    /// admitted, so the conversion cannot fail — a malformed gesture
    /// classifier (logit width ≠ `NUM_GESTURES`) is rejected loudly here
    /// instead of being silently mapped to `Gesture::G1` downstream.
    // lint: hot-path
    fn smooth_raw_class(&mut self, raw: usize) -> Gesture {
        let smoothed = self.filter.push(raw);
        // lint: allow(panic, reason = "the filter only returns values it admitted, all < NUM_GESTURES; a malformed classifier must fail loud")
        Gesture::from_index(smoothed).expect("MajorityFilter output is bounded by NUM_GESTURES")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recount reference: most frequent value in a non-empty slice,
    /// earliest-seen winning ties. This is the exact rule the historical
    /// duplicated `mode_of` / `mode_of_deque` implementations enforced;
    /// [`MajorityFilter`] must stay equivalent to it forever.
    fn mode_of(values: &[usize]) -> usize {
        debug_assert!(!values.is_empty());
        let mut counts = std::collections::BTreeMap::new();
        for &v in values {
            *counts.entry(v).or_insert(0usize) += 1;
        }
        let mut best = values[0];
        let mut best_n = 0usize;
        for &v in values {
            let n = counts[&v];
            if n > best_n {
                best = v;
                best_n = n;
            }
        }
        best
    }

    /// Sliding-window recount reference implementing the historical
    /// semantics of `pipeline::mode_of` over the trailing `k` values.
    fn recount_reference(stream: &[usize], k: usize) -> Vec<usize> {
        (0..stream.len())
            .map(|i| {
                let lo = i.saturating_sub(k - 1);
                mode_of(&stream[lo..=i])
            })
            .collect()
    }

    #[test]
    fn majority_matches_recount_on_random_streams() {
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for &k in &[1usize, 2, 5, 9] {
            for classes in [2usize, 5, NUM_GESTURES] {
                let stream: Vec<usize> = (0..300).map(|_| next() % classes).collect();
                let expected = recount_reference(&stream, k);
                let mut filter = MajorityFilter::new(k, classes);
                let got: Vec<usize> = stream.iter().map(|&v| filter.push(v)).collect();
                assert_eq!(got, expected, "k={k}, classes={classes}");
            }
        }
    }

    #[test]
    fn tie_break_is_earliest_seen_in_window() {
        let mut filter = MajorityFilter::new(4, 3);
        assert_eq!(filter.push(2), 2); // [2]
        assert_eq!(filter.push(1), 2); // [2, 1]: 1-1 tie, 2 seen first
        assert_eq!(filter.push(1), 1); // [2, 1, 1]: 1 leads outright
        assert_eq!(filter.push(2), 2); // [2, 1, 1, 2]: 2-2 tie, 2 seen first
        assert_eq!(filter.push(2), 1); // [1, 1, 2, 2]: 2-2 tie, 1 seen first
        assert_eq!(filter.push(2), 2); // [1, 2, 2, 2]: 2 leads outright
                                       // Matches the recount reference rule exactly.
        assert_eq!(mode_of(&[2, 1]), 2);
        assert_eq!(mode_of(&[2, 1, 1, 2]), 2);
        assert_eq!(mode_of(&[1, 1, 2, 2]), 1);
        assert_eq!(mode_of(&[1, 2, 2, 2]), 2);
    }

    #[test]
    fn eviction_forgets_old_values() {
        let mut filter = MajorityFilter::new(2, 4);
        filter.push(3);
        filter.push(3);
        assert_eq!(filter.majority(), Some(3));
        filter.push(0);
        filter.push(0);
        assert_eq!(filter.majority(), Some(0), "3s evicted");
        assert_eq!(filter.len(), 2);
    }

    #[test]
    fn clear_resets_filter() {
        let mut filter = MajorityFilter::new(3, 2);
        filter.push(1);
        filter.clear();
        assert!(filter.is_empty());
        assert_eq!(filter.majority(), None);
        assert_eq!(filter.push(0), 0);
    }
}

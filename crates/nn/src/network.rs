//! Network container: an ordered stack of layers with (de)serialization.

use crate::layers::{build_layer, LayerScratch, LayerSpec, SeqLayer};
use crate::mat::Mat;
use crate::param::Param;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Serializable description of a network architecture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct NetworkSpec {
    /// Layers applied in order.
    pub layers: Vec<LayerSpec>,
}

impl NetworkSpec {
    /// Creates a spec from a list of layers.
    pub fn new(layers: Vec<LayerSpec>) -> Self {
        Self { layers }
    }
}

/// A feed-forward stack of [`SeqLayer`]s built from a [`NetworkSpec`].
///
/// # Examples
///
/// ```
/// use nn::network::{Network, NetworkSpec};
/// use nn::layers::LayerSpec;
/// use nn::mat::Mat;
///
/// let spec = NetworkSpec::new(vec![
///     LayerSpec::Lstm { in_dim: 4, hidden: 8, return_sequences: false },
///     LayerSpec::Dense { in_dim: 8, out_dim: 3 },
/// ]);
/// let mut net = Network::new(spec, 42);
/// let logits = net.forward(&Mat::zeros(10, 4));
/// assert_eq!(logits.shape(), (1, 3));
/// ```
pub struct Network {
    spec: NetworkSpec,
    layers: Vec<Box<dyn SeqLayer>>,
}

/// Caller-owned buffers for the `&self` inference methods: ping-pong
/// activation matrices plus one [`LayerScratch`] per layer.
///
/// Weights stay in the (shared, read-only) [`Network`]; everything mutable
/// during inference lives here. Create one per engine/thread with
/// [`Network::make_scratch`] and reuse it across calls — all buffers grow to
/// a high-water mark, so steady-state inference performs no allocation.
/// A scratch is shape-agnostic: the same instance may be reused across
/// networks with the **same layer count** (e.g. the per-gesture error
/// classifiers, which share one architecture).
#[derive(Debug, Default, Clone)]
pub struct NetworkScratch {
    ping: Mat,
    pong: Mat,
    layers: Vec<LayerScratch>,
}

/// The one inference loop: runs the sequence `x` through `layers`,
/// ping-ponging activations through the scratch and writing the final activation into `out`. `observe(i,
/// input)` fires with each layer's *input* activation right before the
/// layer runs; the quantized tier's activation calibration records
/// per-layer input ranges through it ([`Network::predict_traced`]) without
/// the network exposing layer internals. The hook never changes what is
/// computed.
fn run_layers_observed(
    layers: &[Box<dyn SeqLayer>],
    x: &Mat,
    out: &mut Mat,
    scratch: &mut NetworkScratch,
    observe: &mut dyn FnMut(usize, &Mat),
) {
    if layers.is_empty() {
        out.copy_from(x);
        return;
    }
    assert_eq!(
        scratch.layers.len(),
        layers.len(),
        "NetworkScratch layer count does not match the network"
    );
    let mut cur = 0usize;
    for (i, layer) in layers.iter().enumerate() {
        let ls = &mut scratch.layers[i];
        if i == 0 {
            observe(i, x);
            layer.infer(x, &mut scratch.ping, ls);
        } else if cur == 0 {
            observe(i, &scratch.ping);
            layer.infer(&scratch.ping, &mut scratch.pong, ls);
            cur = 1;
        } else {
            observe(i, &scratch.pong);
            layer.infer(&scratch.pong, &mut scratch.ping, ls);
            cur = 0;
        }
    }
    out.copy_from(if cur == 0 { &scratch.ping } else { &scratch.pong });
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("layers", &self.layers.iter().map(|l| l.name()).collect::<Vec<_>>())
            .field("num_params", &{
                // visit_params requires &mut; report spec size instead.
                self.spec.layers.len()
            })
            .finish()
    }
}

/// Weight checkpoint: spec plus flattened weights in visit order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedNetwork {
    /// The architecture.
    pub spec: NetworkSpec,
    /// Parameter values in [`Network::visit_params`] order.
    pub weights: Vec<Mat>,
}

impl Network {
    /// Builds a network from `spec`, initializing weights from `seed`.
    pub fn new(spec: NetworkSpec, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let layers: Vec<Box<dyn SeqLayer>> =
            spec.layers.iter().map(|s| build_layer(s, &mut rng)).collect();
        Self { spec, layers }
    }

    /// Creates a caller-owned scratch sized for this network's layer stack,
    /// for use with [`Network::predict_scratch`].
    pub fn make_scratch(&self) -> NetworkScratch {
        NetworkScratch {
            ping: Mat::zeros(0, 0),
            pong: Mat::zeros(0, 0),
            layers: vec![LayerScratch::default(); self.layers.len()],
        }
    }

    /// The architecture this network was built from.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Runs the training forward pass, caching what [`Network::backward`]
    /// needs. Also the reference the inference methods are tested against.
    pub fn forward(&mut self, x: &Mat) -> Mat {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur);
        }
        cur
    }

    /// Runs the backward pass; must follow a `forward` call. Returns the
    /// gradient with respect to the network input.
    pub fn backward(&mut self, grad_out: &Mat) -> Mat {
        let mut cur = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward(&cur);
        }
        cur
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Visits every parameter block in a stable (layer, block) order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Total number of scalar trainable parameters.
    pub fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Allocation-free inference with **caller-owned** scratch: the network
    /// itself stays immutable, so one trained `Network` (it is `Sync`) can
    /// serve many engines/threads concurrently, each holding its own
    /// [`NetworkScratch`]. Bit-identical to [`Network::forward`], but
    /// records nothing for `backward` and performs no heap allocation once
    /// the scratch has warmed up to the input shape.
    pub fn predict_scratch(&self, x: &Mat, out: &mut Mat, scratch: &mut NetworkScratch) {
        run_layers_observed(&self.layers, x, out, scratch, &mut |_, _| {});
    }

    /// [`Network::predict_scratch`] plus an observation hook:
    /// `observe(i, input)` fires with layer `i`'s input activation right
    /// before that layer runs. Used by the quantized tier's activation
    /// calibration ([`crate::quant`]) to record per-layer input ranges;
    /// the outputs are bit-identical to the unobserved path.
    pub fn predict_traced(
        &self,
        x: &Mat,
        out: &mut Mat,
        scratch: &mut NetworkScratch,
        observe: &mut dyn FnMut(usize, &Mat),
    ) {
        run_layers_observed(&self.layers, x, out, scratch, observe);
    }

    /// Copies all parameter values out (for early-stopping snapshots).
    pub fn snapshot_weights(&mut self) -> Vec<Mat> {
        let mut out = Vec::new();
        self.visit_params(&mut |p| out.push(p.value.clone()));
        out
    }

    /// Restores parameter values from a snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot does not match the network architecture.
    pub fn restore_weights(&mut self, weights: &[Mat]) {
        let mut k = 0;
        self.visit_params(&mut |p| {
            assert!(k < weights.len(), "restore_weights: snapshot too short");
            assert_eq!(
                p.value.shape(),
                weights[k].shape(),
                "restore_weights: shape mismatch at block {k}"
            );
            p.value = weights[k].clone();
            k += 1;
        });
        assert_eq!(k, weights.len(), "restore_weights: snapshot too long");
    }

    /// Scales all accumulated gradients by `s` (used to average over a batch).
    pub fn scale_grads(&mut self, s: f32) {
        self.visit_params(&mut |p| {
            for g in p.grad.as_mut_slice() {
                *g *= s;
            }
        });
    }

    /// Global L2 gradient-norm clipping; returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let mut sq = 0.0f32;
        self.visit_params(&mut |p| {
            sq += p.grad.as_slice().iter().map(|g| g * g).sum::<f32>();
        });
        let norm = sq.sqrt();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            self.scale_grads(s);
        }
        norm
    }

    /// Serializes architecture and weights into a [`SavedNetwork`].
    pub fn save(&mut self) -> SavedNetwork {
        SavedNetwork { spec: self.spec.clone(), weights: self.snapshot_weights() }
    }

    /// Rebuilds a network from a checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint weights do not match its own spec.
    pub fn from_saved(saved: &SavedNetwork) -> Self {
        let mut net = Network::new(saved.spec.clone(), 0);
        net.restore_weights(&saved.weights);
        net
    }

    /// Serializes the checkpoint to a JSON string.
    ///
    /// # Errors
    ///
    /// Returns an error if JSON serialization fails.
    pub fn to_json(&mut self) -> Result<String, serde_json::Error> {
        serde_json::to_string(&self.save())
    }

    /// Deserializes a checkpoint from a JSON string.
    ///
    /// # Errors
    ///
    /// Returns an error if the JSON is malformed.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let saved: SavedNetwork = serde_json::from_str(json)?;
        Ok(Self::from_saved(&saved))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Padding;

    fn small_spec() -> NetworkSpec {
        NetworkSpec::new(vec![
            LayerSpec::Conv1d {
                in_channels: 3,
                out_channels: 4,
                kernel: 3,
                padding: Padding::Same,
            },
            LayerSpec::Relu,
            LayerSpec::GlobalMaxPool,
            LayerSpec::Dense { in_dim: 4, out_dim: 2 },
        ])
    }

    #[test]
    fn forward_produces_logits() {
        let mut net = Network::new(small_spec(), 1);
        let y = net.forward(&Mat::full(8, 3, 0.5));
        assert_eq!(y.shape(), (1, 2));
    }

    #[test]
    fn seeded_construction_is_deterministic() {
        let mut a = Network::new(small_spec(), 7);
        let mut b = Network::new(small_spec(), 7);
        let x = Mat::full(8, 3, 0.3);
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Network::new(small_spec(), 7);
        let mut b = Network::new(small_spec(), 8);
        let x = Mat::full(8, 3, 0.3);
        assert_ne!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut net = Network::new(small_spec(), 3);
        let x = Mat::full(8, 3, 0.1);
        let before = net.forward(&x);
        let snap = net.snapshot_weights();
        // Perturb weights.
        net.visit_params(&mut |p| {
            for w in p.value.as_mut_slice() {
                *w += 1.0;
            }
        });
        assert_ne!(net.forward(&x), before);
        net.restore_weights(&snap);
        assert_eq!(net.forward(&x), before);
    }

    #[test]
    fn json_roundtrip_preserves_predictions() {
        let mut net = Network::new(small_spec(), 3);
        let x = Mat::full(8, 3, 0.1);
        let before = net.forward(&x);
        let json = net.to_json().unwrap();
        let mut restored = Network::from_json(&json).unwrap();
        assert_eq!(restored.forward(&x), before);
    }

    #[test]
    fn num_params_counts_all_blocks() {
        let mut net =
            Network::new(NetworkSpec::new(vec![LayerSpec::Dense { in_dim: 3, out_dim: 2 }]), 0);
        assert_eq!(net.num_params(), 3 * 2 + 2);
    }

    #[test]
    fn clip_grad_norm_scales_down() {
        let mut net =
            Network::new(NetworkSpec::new(vec![LayerSpec::Dense { in_dim: 2, out_dim: 2 }]), 0);
        net.visit_params(&mut |p| {
            for g in p.grad.as_mut_slice() {
                *g = 10.0;
            }
        });
        let pre = net.clip_grad_norm(1.0);
        assert!(pre > 1.0);
        let mut sq = 0.0;
        net.visit_params(&mut |p| sq += p.grad.as_slice().iter().map(|g| g * g).sum::<f32>());
        assert!((sq.sqrt() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn debug_is_nonempty() {
        let net = Network::new(small_spec(), 1);
        assert!(!format!("{net:?}").is_empty());
    }

    /// A trained network must be shareable read-only across worker threads
    /// (the sharded serving layer holds it behind an `Arc`).
    #[test]
    fn network_and_mat_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Mat>();
        assert_send_sync::<Network>();
        assert_send_sync::<NetworkScratch>();
    }

    /// Inference against the training forward pass, on the gesture
    /// classifier, both error classifiers (conv and LSTM), a
    /// sequence-returning LSTM and a valid-padded conv: `forward(x)` equals
    /// `predict_scratch` and `predict_traced`. One scratch serves every
    /// window length, so buffer resizing is exercised too.
    #[test]
    fn inference_is_bit_exact_with_forward() {
        let conv = |cin, cout, padding| LayerSpec::Conv1d {
            in_channels: cin,
            out_channels: cout,
            kernel: 3,
            padding,
        };
        let cases = [
            (
                "gesture",
                NetworkSpec::new(vec![
                    LayerSpec::Lstm { in_dim: 4, hidden: 6, return_sequences: true },
                    LayerSpec::Lstm { in_dim: 6, hidden: 3, return_sequences: false },
                    LayerSpec::Dense { in_dim: 3, out_dim: 5 },
                    LayerSpec::Relu,
                    LayerSpec::Dense { in_dim: 5, out_dim: 15 },
                ]),
            ),
            (
                "conv error",
                NetworkSpec::new(vec![
                    conv(4, 5, Padding::Same),
                    LayerSpec::Relu,
                    conv(5, 6, Padding::Same),
                    LayerSpec::Relu,
                    LayerSpec::GlobalMaxPool,
                    LayerSpec::Dense { in_dim: 6, out_dim: 4 },
                    LayerSpec::Relu,
                    LayerSpec::Dense { in_dim: 4, out_dim: 2 },
                ]),
            ),
            (
                "lstm error",
                NetworkSpec::new(vec![
                    LayerSpec::Lstm { in_dim: 4, hidden: 5, return_sequences: false },
                    LayerSpec::Dense { in_dim: 5, out_dim: 4 },
                    LayerSpec::Relu,
                    LayerSpec::Dense { in_dim: 4, out_dim: 2 },
                ]),
            ),
            (
                "lstm sequences",
                NetworkSpec::new(vec![LayerSpec::Lstm {
                    in_dim: 4,
                    hidden: 3,
                    return_sequences: true,
                }]),
            ),
            ("valid conv", NetworkSpec::new(vec![conv(4, 3, Padding::Valid), LayerSpec::Relu])),
        ];
        for (ci, (name, spec)) in cases.into_iter().enumerate() {
            let mut net = Network::new(spec, 7 + ci as u64);
            let mut scratch = net.make_scratch();
            let mut out = Mat::zeros(0, 0);
            let mut traced = Mat::zeros(0, 0);
            for (w, t) in [9usize, 15, 4, 9].into_iter().enumerate() {
                let vals = (0..t * 4).map(|i| ((i + w * 50) as f32 * 0.17).sin());
                let x = Mat::from_vec(t, 4, vals.collect());
                let at = format!("{name}, t={t}");
                net.predict_scratch(&x, &mut out, &mut scratch);
                assert_eq!(net.forward(&x), out, "forward vs predict_scratch: {at}");
                net.predict_traced(&x, &mut traced, &mut scratch, &mut |_, _| {});
                assert_eq!(traced, out, "predict_traced vs predict_scratch: {at}");
            }
        }
    }
}

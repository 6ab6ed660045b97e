//! Post-training int8 quantization: calibrated weights + activations over
//! the [`crate::kernels::int8`] GEMM, the inference substrate of the
//! quantized serving tier.
//!
//! # Scheme
//!
//! * **Weights** are quantized per output channel (per-row symmetric):
//!   each output channel's weight vector is stored as a row of a
//!   [`QuantizedMat`] — already transposed into the `(out, in)` layout the
//!   `A·Bᵀ` int8 kernel consumes — with its own `f32` scale
//!   `max_abs / 127`.
//! * **Activations** are quantized per tensor with a scale calibrated
//!   offline: a traced pass over held-out calibration windows
//!   ([`Network::predict_traced`]) records each quantizable layer's input
//!   `max_abs`, and the scale is frozen into the [`QuantizedNetwork`].
//! * **Requantization is deterministic**: `q = clamp(round_ties_even(x ·
//!   inv_scale), -127, 127)` where `inv_scale` is the reciprocal computed
//!   **once** at quantization time. Multiply and `round_ties_even` are
//!   exactly-specified IEEE operations, so quantized outputs are
//!   bit-identical across runs, worker counts, and — because
//!   the int8 GEMM is exact — across scalar/SIMD backends.
//!
//! Only inference is quantized; f32 stays the training substrate and the
//! [`QuantizedNetwork`] is derived from a trained [`Network`]
//! (quantize-after-train). Softmax inputs, pooling, and biases stay in
//! f32. LSTM gate nonlinearities also stay in f32 but swap `libm`
//! sigmoid/tanh for the deterministic rational approximants
//! ([`fast_tanh`], error < 1e-4 — far below the tier's own quantization
//! step): the matrix products *and* the gate math dominate the per-tick
//! cost, and the int8 tier buys throughput on both.
//!
//! The LSTM hidden state is quantized with a **fixed** scale of `1/127`
//! rather than a calibrated one: `h = o · tanh(c)` is analytically inside
//! `(-1, 1)` (pinned by the layer's `hidden_states_are_bounded` test), so
//! the full int8 range is always used and calibration cannot improve it.

use crate::kernels::int8::{gemm_i8_abt, K_ALIGN};
use crate::layers::{LayerSpec, Padding};
use crate::mat::Mat;
use crate::network::Network;

/// Why a trained network could not be quantized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantError {
    /// No calibration windows were supplied: activation scales would be
    /// arbitrary and the tier would clamp silently.
    NoCalibration,
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::NoCalibration => {
                f.write_str("activation calibration requires at least one calibration window")
            }
        }
    }
}

impl std::error::Error for QuantError {}

/// Per-row symmetric int8 weight matrix in the `(out, in)` layout the
/// `A·Bᵀ` kernel consumes: row `j` is output channel `j`, quantized with
/// its own scale `max_abs(row) / 127` (`1.0` for all-zero rows).
///
/// Rows are stored at a [`stride`](Self::stride) of [`K_ALIGN`]-rounded
/// width with exact-zero padding, so the GEMM's k-loop is pure vector
/// steps with no scalar tail; zero terms contribute exactly 0, keeping the
/// padded product bit-identical to the unpadded one.
#[derive(Debug, Clone)]
pub struct QuantizedMat {
    rows: usize,
    cols: usize,
    stride: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantizedMat {
    /// Quantizes the **columns** of `w` (stored `(in, out)`, the layer
    /// convention) into rows of a `(out, in)` int8 matrix — transposition
    /// and quantization in one pass, at quantize time, so inference never
    /// strides a column.
    pub fn from_columns(w: &Mat) -> Self {
        let (in_dim, out_dim) = w.shape();
        let stride = in_dim.next_multiple_of(K_ALIGN);
        let mut data = vec![0i8; out_dim * stride];
        let mut scales = vec![1.0f32; out_dim];
        for j in 0..out_dim {
            let mut max_abs = 0.0f32;
            for i in 0..in_dim {
                max_abs = max_abs.max(w[(i, j)].abs());
            }
            let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
            let inv = scale.recip();
            scales[j] = scale;
            for i in 0..in_dim {
                data[j * stride + i] = quantize_rne(w[(i, j)], inv);
            }
        }
        Self { rows: out_dim, cols: in_dim, stride, data, scales }
    }

    /// Output channels (rows of the transposed layout).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input width (columns of the transposed layout), excluding padding.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stored row width: [`cols`](Self::cols) rounded up to [`K_ALIGN`].
    /// The activation operand must be staged at this same stride, and it is
    /// the `k` passed to the GEMM.
    // lint: hot-path
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The quantized values, row-major `(out, stride)` with zero padding.
    // lint: hot-path
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Per-output-channel scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }
}

/// Deterministic round-to-nearest-even int8 quantization:
/// `clamp(round_ties_even(x · inv_scale), -127, 127)`.
///
/// `inv_scale` is the reciprocal of the scale, computed once when the
/// quantizer is built — multiplication by a frozen reciprocal plus
/// `round_ties_even` are exactly-specified IEEE operations, which is what
/// makes requantization reproducible bit-for-bit everywhere. Non-finite
/// inputs saturate through the `as` cast (NaN to 0), never trap.
#[inline]
// lint: hot-path
pub fn quantize_rne(x: f32, inv_scale: f32) -> i8 {
    (x * inv_scale).round_ties_even().clamp(-127.0, 127.0) as i8
}

/// A frozen per-tensor activation quantizer: the calibrated scale and its
/// precomputed reciprocal.
#[derive(Debug, Clone, Copy)]
pub struct ActQuant {
    /// Dequantization scale (`max_abs / 127` from calibration).
    pub scale: f32,
    inv_scale: f32,
}

impl ActQuant {
    /// Builds a quantizer from a calibrated `max_abs` (`1.0` scale when the
    /// calibration pass only saw zeros).
    pub fn from_max_abs(max_abs: f32) -> Self {
        let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
        Self { scale, inv_scale: scale.recip() }
    }

    /// Quantizes one value (see [`quantize_rne`]).
    #[inline]
    // lint: hot-path
    pub fn quantize(&self, x: f32) -> i8 {
        quantize_rne(x, self.inv_scale)
    }
}

/// Quantized dense layer: int8 `x·Wᵀ` plus f32 bias.
#[derive(Debug, Clone)]
struct QDense {
    wq: QuantizedMat, // (out, in)
    /// Per-output-channel dequantization factor `w_scale · x_scale`.
    deq: Vec<f32>,
    bias: Vec<f32>,
    x: ActQuant,
}

/// Quantized 1-D convolution: int8 im2col patches against pre-transposed
/// `(Cout, k·Cin)` weights. Zero padding quantizes exactly to 0, so the
/// patch matrix is assembled directly in int8.
#[derive(Debug, Clone)]
struct QConv1d {
    wq: QuantizedMat, // (Cout, k*Cin)
    deq: Vec<f32>,
    bias: Vec<f32>,
    x: ActQuant,
    in_channels: usize,
    kernel: usize,
    padding: Padding,
}

/// Quantized LSTM: the input projection `x·Wᵀ` uses the calibrated
/// input scale; the per-step recurrence `h·Uᵀ` uses the fixed `1/127`
/// hidden scale (module docs). Gates and cell state stay f32 in the f32
/// layer's operation order, with [`fast_tanh`]/[`fast_sigmoid`] as the
/// nonlinearities.
#[derive(Debug, Clone)]
struct QLstm {
    wq: QuantizedMat, // (4H, in)
    uq: QuantizedMat, // (4H, H)
    /// `w_scale · x_scale` per gate column.
    deq_w: Vec<f32>,
    /// `u_scale / 127` per gate column (fixed hidden scale).
    deq_u: Vec<f32>,
    bias: Vec<f32>,
    x: ActQuant,
    hidden: usize,
    return_sequences: bool,
}

/// One layer of a [`QuantizedNetwork`].
#[derive(Debug, Clone)]
enum QLayer {
    Dense(QDense),
    Relu,
    GlobalMaxPool,
    Lstm(QLstm),
    Conv1d(QConv1d),
}

/// Reusable int8/i32/f32 staging buffers for one quantized inference pass.
/// All buffers grow to a high-water mark; steady-state ticks allocate
/// nothing.
#[derive(Debug, Default, Clone)]
struct QuantBuffers {
    /// Quantized GEMM A operand (activation rows or im2col patches).
    qa: Vec<i8>,
    /// Quantized input rows, pre-patching (Conv1d).
    qx: Vec<i8>,
    /// Quantized hidden state (LSTM recurrence).
    qh: Vec<i8>,
    /// i32 GEMM accumulator.
    acc: Vec<i32>,
    /// i32 accumulator for the per-step LSTM recurrence.
    acc_h: Vec<i32>,
    /// Dequantized LSTM input projection `(T, 4H)`.
    xw: Mat,
    /// LSTM hidden-to-gate projection.
    hu: Vec<f32>,
    /// LSTM hidden state.
    h: Vec<f32>,
    /// LSTM cell state.
    c: Vec<f32>,
}

/// Caller-owned scratch for [`QuantizedNetwork`] inference: ping-pong
/// activation matrices plus the int8 staging buffers. One per
/// engine/thread, exactly like [`crate::network::NetworkScratch`].
#[derive(Debug, Default, Clone)]
pub struct QuantScratch {
    ping: Mat,
    pong: Mat,
    buf: QuantBuffers,
}

/// A post-training-quantized twin of a trained [`Network`]: per-channel
/// int8 weights, calibrated activation scales, f32 glue.
///
/// Outputs are *close to* — not bit-identical to — the f32 network
/// (quantization error is the point of the parity gate), but are
/// **bit-identical to themselves** across GEMM backends and worker
/// counts: the int8 products are exact and every f32 step follows
/// one fixed operation order.
#[derive(Debug, Clone)]
pub struct QuantizedNetwork {
    layers: Vec<QLayer>,
}

impl QuantizedNetwork {
    /// Quantizes a trained network, calibrating activation scales from a
    /// traced pass over `calib` (each entry one `(T, F)` input window, e.g.
    /// a sample of the training windows).
    ///
    /// # Errors
    ///
    /// [`QuantError::NoCalibration`] if `calib` is empty. Every
    /// [`LayerSpec`] kind has an int8 counterpart, so no architecture is
    /// rejected.
    pub fn quantize(net: &mut Network, calib: &[Mat]) -> Result<Self, QuantError> {
        if calib.is_empty() {
            return Err(QuantError::NoCalibration);
        }
        let saved = net.save();
        let n_layers = saved.spec.layers.len();

        // Calibration: record each layer's input max_abs over all windows.
        let mut max_abs = vec![0.0f32; n_layers];
        let mut scratch = net.make_scratch();
        let mut out = Mat::zeros(0, 0);
        for x in calib {
            net.predict_traced(x, &mut out, &mut scratch, &mut |i, input| {
                for &v in input.as_slice() {
                    if v.abs() > max_abs[i] {
                        max_abs[i] = v.abs();
                    }
                }
            });
        }

        // Map the flat visit-order weight list onto quantized layers.
        let mut layers = Vec::with_capacity(n_layers);
        let mut w_idx = 0usize;
        for (i, spec) in saved.spec.layers.iter().enumerate() {
            match *spec {
                LayerSpec::Dense { .. } => {
                    let w = &saved.weights[w_idx];
                    let b = &saved.weights[w_idx + 1];
                    w_idx += 2;
                    let x = ActQuant::from_max_abs(max_abs[i]);
                    let wq = QuantizedMat::from_columns(w);
                    let deq = wq.scales().iter().map(|s| s * x.scale).collect();
                    layers.push(QLayer::Dense(QDense { wq, deq, bias: b.row(0).to_vec(), x }));
                }
                LayerSpec::Relu => layers.push(QLayer::Relu),
                LayerSpec::GlobalMaxPool => layers.push(QLayer::GlobalMaxPool),
                LayerSpec::Lstm { hidden, return_sequences, .. } => {
                    let w = &saved.weights[w_idx];
                    let u = &saved.weights[w_idx + 1];
                    let b = &saved.weights[w_idx + 2];
                    w_idx += 3;
                    let x = ActQuant::from_max_abs(max_abs[i]);
                    let wq = QuantizedMat::from_columns(w);
                    let uq = QuantizedMat::from_columns(u);
                    let deq_w = wq.scales().iter().map(|s| s * x.scale).collect();
                    let deq_u = uq.scales().iter().map(|s| s / 127.0).collect();
                    layers.push(QLayer::Lstm(QLstm {
                        wq,
                        uq,
                        deq_w,
                        deq_u,
                        bias: b.row(0).to_vec(),
                        x,
                        hidden,
                        return_sequences,
                    }));
                }
                LayerSpec::Conv1d { in_channels, kernel, padding, .. } => {
                    let w = &saved.weights[w_idx];
                    let b = &saved.weights[w_idx + 1];
                    w_idx += 2;
                    let x = ActQuant::from_max_abs(max_abs[i]);
                    let wq = QuantizedMat::from_columns(w);
                    let deq = wq.scales().iter().map(|s| s * x.scale).collect();
                    layers.push(QLayer::Conv1d(QConv1d {
                        wq,
                        deq,
                        bias: b.row(0).to_vec(),
                        x,
                        in_channels,
                        kernel,
                        padding,
                    }));
                }
            }
        }
        Ok(Self { layers })
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Creates a caller-owned scratch for this network.
    pub fn make_scratch(&self) -> QuantScratch {
        QuantScratch::default()
    }

    /// Quantized inference on one sequence. The result depends only on
    /// `x` and the weights, never on what the scratch held before — which
    /// is what keeps the sharded pool's decisions independent of worker
    /// count on the int8 tier too.
    // lint: hot-path
    pub fn predict_scratch(&self, x: &Mat, out: &mut Mat, scratch: &mut QuantScratch) {
        if self.layers.is_empty() {
            out.copy_from(x);
            return;
        }
        let QuantScratch { ping, pong, buf } = scratch;
        let mut cur = 0usize;
        for (i, layer) in self.layers.iter().enumerate() {
            if i == 0 {
                layer.infer(x, ping, buf);
            } else if cur == 0 {
                layer.infer(ping, pong, buf);
                cur = 1;
            } else {
                layer.infer(pong, ping, buf);
                cur = 0;
            }
        }
        out.copy_from(if cur == 0 { ping } else { pong });
    }
}

impl QLayer {
    /// Runs one quantized layer.
    // lint: hot-path
    fn infer(&self, x: &Mat, out: &mut Mat, buf: &mut QuantBuffers) {
        match self {
            QLayer::Dense(d) => d.infer(x, out, buf),
            QLayer::Relu => {
                out.resize(x.rows(), x.cols());
                for (o, &v) in out.as_mut_slice().iter_mut().zip(x.as_slice()) {
                    *o = if v > 0.0 { v } else { 0.0 };
                }
            }
            QLayer::GlobalMaxPool => {
                assert!(x.rows() > 0, "GlobalMaxPool: empty input");
                out.resize(1, x.cols());
                for col in 0..x.cols() {
                    let mut best = x[(0, col)];
                    for r in 1..x.rows() {
                        if x[(r, col)] > best {
                            best = x[(r, col)];
                        }
                    }
                    out[(0, col)] = best;
                }
            }
            QLayer::Lstm(l) => l.infer(x, out, buf),
            QLayer::Conv1d(cv) => cv.infer(x, out, buf),
        }
    }
}

/// Deterministic rational tanh for the quantized tier's LSTM gates: the
/// [7/6] Padé approximant of tanh on a clamped domain.
///
/// `|fast_tanh(x) - tanh(x)| < 1e-4` everywhere — far below the ~8e-3
/// quantization step the int8 tier already injects per value, so the
/// parity gate's accuracy budget is unaffected. What it buys: no `libm`
/// call, so the gate loop is straight-line mul/add/div in one fixed IEEE
/// order — still bit-deterministic across runs, backends, and worker
/// counts (the determinism contract needs *reproducible* gates, not
/// f32-identical ones) — and auto-vectorizable, which is where the tier's
/// per-frame latency win over f32's `exp`-based gates comes from.
#[inline]
// lint: hot-path
fn fast_tanh(x: f32) -> f32 {
    // Beyond ±4.9 the approximant and tanh are both within 1.2e-4 of ±1.
    let x = x.clamp(-4.9, 4.9);
    let x2 = x * x;
    let num = x * (135135.0 + x2 * (17325.0 + x2 * (378.0 + x2)));
    let den = 135135.0 + x2 * (62370.0 + x2 * (3150.0 + x2 * 28.0));
    num / den
}

/// Deterministic sigmoid via [`fast_tanh`]:
/// `σ(x) = 0.5 + 0.5·tanh(x/2)` (same error bound, halved).
#[inline]
// lint: hot-path
fn fast_sigmoid(x: f32) -> f32 {
    0.5 + 0.5 * fast_tanh(0.5 * x)
}

/// Quantizes every row of `x` into `dst` at row stride `stride`
/// (≥ `x.cols()`), zero-filling the padding — exactly the layout
/// [`QuantizedMat`] stores weights in, so the GEMM runs tail-free.
// lint: hot-path
fn quantize_rows(x: &Mat, q: &ActQuant, stride: usize, dst: &mut Vec<i8>) {
    let (rows, cols) = x.shape();
    dst.resize(rows * stride, 0);
    dst.fill(0);
    let src = x.as_slice();
    for r in 0..rows {
        let drow = &mut dst[r * stride..r * stride + cols];
        for (d, &v) in drow.iter_mut().zip(&src[r * cols..(r + 1) * cols]) {
            *d = q.quantize(v);
        }
    }
}

impl QDense {
    /// `out = dequant(quant(x) · Wqᵀ) + b`, rows independent.
    // lint: hot-path
    fn infer(&self, x: &Mat, out: &mut Mat, buf: &mut QuantBuffers) {
        let (rows, in_dim) = x.shape();
        let out_dim = self.wq.rows();
        assert_eq!(in_dim, self.wq.cols(), "QDense: input width mismatch");
        let stride = self.wq.stride();
        quantize_rows(x, &self.x, stride, &mut buf.qa);
        buf.acc.resize(rows * out_dim, 0);
        gemm_i8_abt(rows, stride, out_dim, &buf.qa, self.wq.data(), &mut buf.acc);
        out.resize(rows, out_dim);
        for r in 0..rows {
            let acc_row = &buf.acc[r * out_dim..(r + 1) * out_dim];
            let out_row = out.row_mut(r);
            for j in 0..out_dim {
                out_row[j] = acc_row[j] as f32 * self.deq[j] + self.bias[j];
            }
        }
    }
}

impl QConv1d {
    // lint: hot-path
    fn pad_lo(&self) -> usize {
        match self.padding {
            Padding::Valid => 0,
            Padding::Same => self.kernel.saturating_sub(1) / 2,
        }
    }

    fn output_len(&self, t: usize) -> usize {
        let total = match self.padding {
            Padding::Valid => 0,
            Padding::Same => self.kernel.saturating_sub(1),
        };
        let padded = t + total;
        assert!(
            padded >= self.kernel,
            "QConv1d: input of {t} steps too short for kernel {}",
            self.kernel
        );
        padded - self.kernel + 1
    }

    /// Quantizes the input rows once, assembles the int8 im2col patch
    /// matrix (padding is exactly 0), and runs one int8 GEMM per call.
    // lint: hot-path
    fn infer(&self, x: &Mat, out: &mut Mat, buf: &mut QuantBuffers) {
        let cin = self.in_channels;
        assert_eq!(x.cols(), cin, "QConv1d: expected {} channels, got {}", cin, x.cols());
        let t = x.rows();
        let t_out = self.output_len(t);
        let lo = self.pad_lo();
        let k = self.kernel;
        let cin_kcin = k * cin;
        let stride = self.wq.stride();
        debug_assert_eq!(self.wq.cols(), cin_kcin);
        let cout = self.wq.rows();

        quantize_rows(x, &self.x, cin, &mut buf.qx);
        buf.qa.resize(t_out * stride, 0);
        buf.qa.fill(0);
        for o in 0..t_out {
            let row = &mut buf.qa[o * stride..o * stride + cin_kcin];
            for j in 0..k {
                let src = (o + j) as isize - lo as isize;
                if src >= 0 && (src as usize) < t {
                    let src_row = src as usize * cin;
                    row[j * cin..(j + 1) * cin].copy_from_slice(&buf.qx[src_row..src_row + cin]);
                }
            }
        }
        buf.acc.resize(t_out * cout, 0);
        gemm_i8_abt(t_out, stride, cout, &buf.qa, self.wq.data(), &mut buf.acc);
        out.resize(t_out, cout);
        for r in 0..t_out {
            let acc_row = &buf.acc[r * cout..(r + 1) * cout];
            let out_row = out.row_mut(r);
            for j in 0..cout {
                out_row[j] = acc_row[j] as f32 * self.deq[j] + self.bias[j];
            }
        }
    }
}

impl QLstm {
    /// The f32 layer's structure with quantized projections: one int8
    /// `x·Wᵀ` for every time step, then the per-step recurrence with an
    /// int8 `h·Uᵀ` at the fixed `1/127` hidden scale. Gate math follows the
    /// f32 layer's operation order with the deterministic rational
    /// nonlinearities ([`fast_tanh`]).
    // lint: hot-path
    fn infer(&self, x: &Mat, out: &mut Mat, buf: &mut QuantBuffers) {
        let h = self.hidden;
        let in_dim = x.cols();
        assert_eq!(in_dim, self.wq.cols(), "QLstm: input width mismatch");
        let t_len = x.rows();
        assert!(t_len > 0, "QLstm: empty input sequence");

        // Input projection of every time step.
        let stride_w = self.wq.stride();
        quantize_rows(x, &self.x, stride_w, &mut buf.qa);
        buf.acc.resize(t_len * 4 * h, 0);
        gemm_i8_abt(t_len, stride_w, 4 * h, &buf.qa, self.wq.data(), &mut buf.acc);
        buf.xw.resize(t_len, 4 * h);
        for r in 0..t_len {
            let acc_row = &buf.acc[r * 4 * h..(r + 1) * 4 * h];
            let xw_row = buf.xw.row_mut(r);
            for j in 0..4 * h {
                xw_row[j] = acc_row[j] as f32 * self.deq_w[j];
            }
        }

        let stride_u = self.uq.stride();
        buf.hu.resize(4 * h, 0.0);
        buf.h.resize(h, 0.0);
        buf.c.resize(h, 0.0);
        buf.h.fill(0.0);
        buf.c.fill(0.0);
        // The shared buffer may hold another layer's data; zero it once so
        // the `stride_u - h` padding tail is exact 0 for every step.
        buf.qh.resize(stride_u, 0);
        buf.qh.fill(0);
        buf.acc_h.resize(4 * h, 0);
        if self.return_sequences {
            out.resize(t_len, h);
        } else {
            out.resize(1, h);
        }

        let b_row = &self.bias;
        for t in 0..t_len {
            // h is in (-1, 1); quantize at the fixed 1/127 scale.
            for (qh, &hv) in buf.qh[..h].iter_mut().zip(buf.h.iter()) {
                *qh = quantize_rne(hv, 127.0);
            }
            gemm_i8_abt(1, stride_u, 4 * h, &buf.qh, self.uq.data(), &mut buf.acc_h);
            for j in 0..4 * h {
                buf.hu[j] = buf.acc_h[j] as f32 * self.deq_u[j];
            }
            let xw_row = buf.xw.row(t);
            let hu = &buf.hu;
            for k in 0..h {
                let zi = xw_row[k] + hu[k] + b_row[k];
                let zf = xw_row[h + k] + hu[h + k] + b_row[h + k];
                let zg = xw_row[2 * h + k] + hu[2 * h + k] + b_row[2 * h + k];
                let zo = xw_row[3 * h + k] + hu[3 * h + k] + b_row[3 * h + k];
                let i = fast_sigmoid(zi);
                let f = fast_sigmoid(zf);
                let g = fast_tanh(zg);
                let o = fast_sigmoid(zo);
                let c_new = f * buf.c[k] + i * g;
                buf.c[k] = c_new;
                buf.h[k] = o * fast_tanh(c_new);
            }
            if self.return_sequences {
                out.row_mut(t).copy_from_slice(&buf.h);
            }
        }
        if !self.return_sequences {
            out.row_mut(0).copy_from_slice(&buf.h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkSpec;

    fn calib_windows(t: usize, f: usize, n: usize) -> Vec<Mat> {
        (0..n)
            .map(|w| {
                Mat::from_vec(
                    t,
                    f,
                    (0..t * f).map(|i| ((i + w * 31) as f32 * 0.23).sin()).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn rational_gates_stay_within_1e4_of_libm() {
        let mut worst = 0.0f32;
        for i in -12000..=12000 {
            let x = i as f32 * 1e-3; // dense grid over [-12, 12]
            worst = worst.max((fast_tanh(x) - x.tanh()).abs());
            worst = worst.max((fast_sigmoid(x) - crate::layers::activation::sigmoid(x)).abs());
        }
        assert!(worst < 1e-4, "gate approximation error {worst} too large");
        // Saturation and symmetry edges.
        assert_eq!(fast_tanh(0.0), 0.0);
        assert_eq!(fast_tanh(100.0), -fast_tanh(-100.0));
        assert!(fast_tanh(100.0) <= 1.0 && fast_tanh(100.0) > 0.9998);
    }

    #[test]
    fn rne_requantization_is_pinned() {
        // Ties go to even; clamped symmetric at ±127.
        assert_eq!(quantize_rne(2.5, 1.0), 2);
        assert_eq!(quantize_rne(3.5, 1.0), 4);
        assert_eq!(quantize_rne(-2.5, 1.0), -2);
        assert_eq!(quantize_rne(-0.5, 1.0), 0);
        assert_eq!(quantize_rne(1.5, 1.0), 2);
        assert_eq!(quantize_rne(200.0, 1.0), 127);
        assert_eq!(quantize_rne(-200.0, 1.0), -127);
        assert_eq!(quantize_rne(f32::NAN, 1.0), 0);
    }

    #[test]
    fn per_row_scales_cover_channels_independently() {
        let w = Mat::from_rows(&[&[1.0, 100.0], &[-2.0, 50.0]]);
        let q = QuantizedMat::from_columns(&w);
        assert_eq!(q.rows(), 2);
        assert_eq!(q.cols(), 2);
        // Rows are stored at the K_ALIGN stride with zero padding.
        assert_eq!(q.stride(), K_ALIGN);
        assert_eq!(q.data().len(), 2 * K_ALIGN);
        assert!(q.data()[2..K_ALIGN].iter().all(|&v| v == 0));
        // Channel 0 max_abs 2, channel 1 max_abs 100.
        assert_eq!(q.scales()[0], 2.0 / 127.0);
        assert_eq!(q.scales()[1], 100.0 / 127.0);
        // Max-magnitude entries hit ±127 exactly.
        assert_eq!(q.data()[1], -127); // w[(1,0)] = -2
        assert_eq!(q.data()[q.stride()], 127); // w[(0,1)] = 100
    }

    #[test]
    fn zero_rows_quantize_with_unit_scale() {
        let w = Mat::zeros(3, 2);
        let q = QuantizedMat::from_columns(&w);
        assert_eq!(q.scales(), &[1.0, 1.0]);
        assert!(q.data().iter().all(|&v| v == 0));
    }

    fn conv_spec() -> NetworkSpec {
        NetworkSpec::new(vec![
            LayerSpec::Conv1d {
                in_channels: 3,
                out_channels: 8,
                kernel: 3,
                padding: Padding::Same,
            },
            LayerSpec::Relu,
            LayerSpec::Conv1d {
                in_channels: 8,
                out_channels: 8,
                kernel: 3,
                padding: Padding::Same,
            },
            LayerSpec::Relu,
            LayerSpec::GlobalMaxPool,
            LayerSpec::Dense { in_dim: 8, out_dim: 6 },
            LayerSpec::Relu,
            LayerSpec::Dense { in_dim: 6, out_dim: 2 },
        ])
    }

    fn lstm_spec() -> NetworkSpec {
        NetworkSpec::new(vec![
            LayerSpec::Lstm { in_dim: 3, hidden: 8, return_sequences: true },
            LayerSpec::Lstm { in_dim: 8, hidden: 5, return_sequences: false },
            LayerSpec::Dense { in_dim: 5, out_dim: 4 },
            LayerSpec::Relu,
            LayerSpec::Dense { in_dim: 4, out_dim: 3 },
        ])
    }

    #[test]
    fn quantized_outputs_track_f32_closely() {
        for (spec, seed) in [(conv_spec(), 3u64), (lstm_spec(), 7u64)] {
            let mut net = Network::new(spec, seed);
            let calib = calib_windows(9, 3, 6);
            let qnet = QuantizedNetwork::quantize(&mut net, &calib).unwrap();
            let mut scratch = net.make_scratch();
            let mut qscratch = qnet.make_scratch();
            let mut want = Mat::zeros(0, 0);
            let mut got = Mat::zeros(0, 0);
            for x in &calib {
                net.predict_scratch(x, &mut want, &mut scratch);
                qnet.predict_scratch(x, &mut got, &mut qscratch);
                assert_eq!(want.shape(), got.shape());
                for (w, g) in want.as_slice().iter().zip(got.as_slice()) {
                    // Untrained random nets: just pin that quantization is a
                    // perturbation, not a rewrite. The trained-accuracy
                    // tolerance lives in the parity gate.
                    assert!((w - g).abs() < 0.2, "f32 {w} vs int8 {g}");
                }
            }
        }
    }

    /// One scratch shared by the conv and LSTM networks, across windows
    /// of several lengths, gives exactly what a fresh scratch gives: no
    /// state leaks from one call (or one network) into the next.
    #[test]
    fn quantized_inference_is_independent_of_scratch_history() {
        let nets: Vec<QuantizedNetwork> = [(conv_spec(), 11u64), (lstm_spec(), 13u64)]
            .into_iter()
            .map(|(spec, seed)| {
                let mut net = Network::new(spec, seed);
                QuantizedNetwork::quantize(&mut net, &calib_windows(9, 3, 4)).unwrap()
            })
            .collect();
        let mut shared = nets[0].make_scratch();
        let mut got = Mat::zeros(0, 0);
        let mut want = Mat::zeros(0, 0);
        for t in [9usize, 15, 4, 9] {
            for qnet in &nets {
                for x in &calib_windows(t, 3, 2) {
                    qnet.predict_scratch(x, &mut got, &mut shared);
                    qnet.predict_scratch(x, &mut want, &mut qnet.make_scratch());
                    assert_eq!(got, want, "t={t}");
                }
            }
        }
    }

    #[test]
    fn quantization_requires_calibration() {
        let mut net = Network::new(conv_spec(), 1);
        assert_eq!(
            QuantizedNetwork::quantize(&mut net, &[]).err(),
            Some(QuantError::NoCalibration)
        );
    }
}

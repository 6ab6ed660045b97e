//! Property-based tests for the numeric core: matrix algebra laws, softmax
//! invariants, layer shape contracts, and optimizer sanity.

use nn::layers::{LayerSpec, Padding};
use nn::loss::{cross_entropy, softmax};
use nn::{Mat, Network, NetworkSpec};
use proptest::prelude::*;

fn mat_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Mat> {
    prop::collection::vec(-3.0f32..3.0, rows * cols).prop_map(move |v| Mat::from_vec(rows, cols, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (A B) C == A (B C) within float tolerance.
    #[test]
    fn matmul_is_associative(
        a in mat_strategy(3, 4),
        b in mat_strategy(4, 2),
        c in mat_strategy(2, 5),
    ) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice().iter()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// A(B + C) == AB + AC.
    #[test]
    fn matmul_distributes_over_addition(
        a in mat_strategy(3, 4),
        b in mat_strategy(4, 3),
        c in mat_strategy(4, 3),
    ) {
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice().iter()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// (A^T)^T == A and transpose variants agree with explicit transpose.
    #[test]
    fn transpose_identities(a in mat_strategy(4, 6), b in mat_strategy(5, 6)) {
        prop_assert_eq!(a.transpose().transpose(), a.clone());
        let mt = a.matmul_transpose(&b);
        let explicit = a.matmul(&b.transpose());
        for (x, y) in mt.as_slice().iter().zip(explicit.as_slice().iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Softmax output is a probability distribution and invariant to
    /// constant shifts of the logits.
    #[test]
    fn softmax_invariants(logits in prop::collection::vec(-20.0f32..20.0, 2..10), shift in -50.0f32..50.0) {
        let p = softmax(&logits);
        prop_assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        let shifted: Vec<f32> = logits.iter().map(|&x| x + shift).collect();
        let q = softmax(&shifted);
        for (a, b) in p.iter().zip(q.iter()) {
            prop_assert!((a - b).abs() < 1e-4, "shift invariance broken: {a} vs {b}");
        }
    }

    /// Cross-entropy loss is non-negative and its gradient sums to zero
    /// over the class axis (softmax Jacobian property).
    #[test]
    fn cross_entropy_gradient_sums_to_zero(
        logits in prop::collection::vec(-5.0f32..5.0, 3..8),
        target_raw in 0usize..8,
    ) {
        let c = logits.len();
        let target = target_raw % c;
        let m = Mat::row_vector(&logits);
        let (loss, grad) = cross_entropy(&m, target);
        prop_assert!(loss >= 0.0);
        prop_assert!(grad.sum().abs() < 1e-5, "gradient sum {}", grad.sum());
    }

    /// Network forward passes produce the architecturally implied shapes
    /// for any window length >= the kernel.
    #[test]
    fn network_shape_contract(t in 5usize..30, seed in 0u64..64) {
        let spec = NetworkSpec::new(vec![
            LayerSpec::Conv1d { in_channels: 6, out_channels: 8, kernel: 3, padding: Padding::Same },
            LayerSpec::Relu,
            LayerSpec::Conv1d { in_channels: 8, out_channels: 8, kernel: 3, padding: Padding::Valid },
            LayerSpec::GlobalMaxPool,
            LayerSpec::Dense { in_dim: 8, out_dim: 4 },
        ]);
        let mut net = Network::new(spec, seed);
        let y = net.forward(&Mat::full(t, 6, 0.5));
        prop_assert_eq!(y.shape(), (1, 4));
        prop_assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    /// Checkpoint JSON roundtrip preserves predictions for arbitrary seeds.
    #[test]
    fn checkpoint_roundtrip(seed in 0u64..256) {
        let spec = NetworkSpec::new(vec![
            LayerSpec::Lstm { in_dim: 4, hidden: 6, return_sequences: false },
            LayerSpec::Dense { in_dim: 6, out_dim: 3 },
        ]);
        let mut net = Network::new(spec, seed);
        let x = Mat::full(7, 4, 0.25);
        let before = net.forward(&x);
        let json = net.to_json().unwrap();
        let mut restored = Network::from_json(&json).unwrap();
        prop_assert_eq!(restored.forward(&x), before);
    }

    /// LSTM hidden states stay strictly inside (-1, 1) for any input.
    #[test]
    fn lstm_outputs_bounded(x in mat_strategy(12, 3), seed in 0u64..64) {
        let spec = NetworkSpec::new(vec![LayerSpec::Lstm {
            in_dim: 3,
            hidden: 5,
            return_sequences: true,
        }]);
        let mut net = Network::new(spec, seed);
        let y = net.forward(&x);
        prop_assert!(y.as_slice().iter().all(|v| v.abs() < 1.0));
    }

    /// Gradient clipping caps the global norm without changing direction.
    #[test]
    fn grad_clip_caps_norm(scale in 0.1f32..20.0) {
        let spec = NetworkSpec::new(vec![LayerSpec::Dense { in_dim: 3, out_dim: 3 }]);
        let mut net = Network::new(spec, 1);
        net.visit_params(&mut |p| {
            for g in p.grad.as_mut_slice() {
                *g = scale;
            }
        });
        let pre = net.clip_grad_norm(1.0);
        let mut sq = 0.0f32;
        net.visit_params(&mut |p| sq += p.grad.as_slice().iter().map(|g| g * g).sum::<f32>());
        let post = sq.sqrt();
        prop_assert!(post <= 1.0 + 1e-4);
        if pre <= 1.0 {
            prop_assert!((post - pre).abs() < 1e-4, "norm changed without need");
        }
    }
}

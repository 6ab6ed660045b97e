//! The ReLU activation layer and the scalar sigmoid the LSTM gates use.

use crate::layers::{LayerScratch, SeqLayer};
use crate::mat::Mat;
use crate::param::Param;

/// Rectified linear unit `max(0, x)`.
#[derive(Debug, Default)]
pub struct Relu {
    cached_input: Option<Mat>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SeqLayer for Relu {
    fn forward(&mut self, x: &Mat) -> Mat {
        self.cached_input = Some(x.clone());
        x.map(|v| v.max(0.0))
    }

    fn infer(&self, x: &Mat, out: &mut Mat, _scratch: &mut LayerScratch) {
        out.resize(x.rows(), x.cols());
        for (o, &v) in out.as_mut_slice().iter_mut().zip(x.as_slice().iter()) {
            *o = v.max(0.0);
        }
    }

    fn backward(&mut self, grad_out: &Mat) -> Mat {
        let x = self.cached_input.as_ref().expect("Relu::backward called before forward");
        x.zip_with(grad_out, |xi, g| if xi > 0.0 { g } else { 0.0 })
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "Relu"
    }
}

/// Numerically stable scalar sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    #[test]
    fn relu_clamps_negatives() {
        let mut l = Relu::new();
        let y = l.forward(&Mat::from_rows(&[&[-1.0, 0.0, 2.0]]));
        assert_eq!(y, Mat::from_rows(&[&[0.0, 0.0, 2.0]]));
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!((sigmoid(40.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(-40.0) < 1e-6);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn relu_gradients_match_numerical() {
        let mut l = Relu::new();
        let x = Mat::from_rows(&[&[-0.5, 0.3, 1.2], &[0.7, -0.1, 0.4]]);
        check_layer_gradients(&mut l, &x, 1e-2);
    }
}

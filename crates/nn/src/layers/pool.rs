//! Global max pooling over the time axis.

use crate::layers::{LayerScratch, SeqLayer};
use crate::mat::Mat;
use crate::param::Param;

/// Collapses `(T, F)` to `(1, F)` by per-feature maxima.
#[derive(Debug, Default)]
pub struct GlobalMaxPool {
    argmax: Option<Vec<usize>>,
    in_shape: (usize, usize),
}

impl GlobalMaxPool {
    /// Creates a global max-pool layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SeqLayer for GlobalMaxPool {
    fn forward(&mut self, x: &Mat) -> Mat {
        assert!(x.rows() > 0, "GlobalMaxPool: empty input");
        let c = x.cols();
        let mut y = Mat::zeros(1, c);
        let mut argmax = vec![0usize; c];
        for col in 0..c {
            let mut best = x[(0, col)];
            for r in 1..x.rows() {
                if x[(r, col)] > best {
                    best = x[(r, col)];
                    argmax[col] = r;
                }
            }
            y[(0, col)] = best;
        }
        self.argmax = Some(argmax);
        self.in_shape = x.shape();
        y
    }

    fn infer(&self, x: &Mat, out: &mut Mat, _scratch: &mut LayerScratch) {
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

    fn backward(&mut self, grad_out: &Mat) -> Mat {
        let argmax = self.argmax.as_ref().expect("GlobalMaxPool::backward called before forward");
        let (t, c) = self.in_shape;
        let mut dx = Mat::zeros(t, c);
        for col in 0..c {
            dx[(argmax[col], col)] = grad_out[(0, col)];
        }
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "GlobalMaxPool"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    #[test]
    fn global_max_pool_gradients() {
        let mut l = GlobalMaxPool::new();
        let x = Mat::from_rows(&[&[0.1, 0.9], &[0.7, 0.2], &[0.3, 0.4]]);
        check_layer_gradients(&mut l, &x, 1e-2);
    }
}

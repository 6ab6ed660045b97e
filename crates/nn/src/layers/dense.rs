//! Fully connected layer, applied independently to every time step.

use crate::init;
use crate::kernels::{self, GemmScratch};
use crate::layers::{LayerScratch, SeqLayer};
use crate::mat::Mat;
use crate::param::Param;
use rand::Rng;

/// Fully connected (affine) layer `y = x W + b`.
///
/// For a `(T, in_dim)` input the layer is applied per row (time-distributed),
/// producing `(T, out_dim)`. For `(1, in_dim)` inputs this is an ordinary
/// dense layer.
#[derive(Debug)]
pub struct Dense {
    weight: Param, // (in_dim, out_dim)
    bias: Param,   // (1, out_dim)
    cached_input: Option<Mat>,
    /// Training-side GEMM packing scratch (inference uses the caller's
    /// [`LayerScratch`] instead; `backward` takes `&mut self`, so the layer
    /// owning its training scratch is fine).
    gemm: GemmScratch,
    /// Weight-gradient staging buffer, reused across steps.
    dw: Mat,
}

impl Dense {
    /// Creates a dense layer with He-uniform weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            weight: Param::new(init::he_uniform(rng, in_dim, in_dim, out_dim)),
            bias: Param::new(Mat::zeros(1, out_dim)),
            cached_input: None,
            gemm: GemmScratch::default(),
            dw: Mat::zeros(0, 0),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.value.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.value.cols()
    }
}

impl SeqLayer for Dense {
    fn forward(&mut self, x: &Mat) -> Mat {
        let mut y = Mat::zeros(0, 0);
        kernels::matmul_into(x, &self.weight.value, &mut y, &mut self.gemm);
        y.add_row_inplace(self.bias.value.row(0));
        self.cached_input = Some(x.clone());
        y
    }

    fn infer(&self, x: &Mat, out: &mut Mat, scratch: &mut LayerScratch) {
        kernels::matmul_into(x, &self.weight.value, out, &mut scratch.gemm);
        out.add_row_inplace(self.bias.value.row(0));
    }

    fn backward(&mut self, grad_out: &Mat) -> Mat {
        let x = self.cached_input.as_ref().expect("Dense::backward called before forward");
        // dW = x^T * dY ; db = sum over rows of dY ; dX = dY * W^T
        kernels::transpose_matmul_into(x, grad_out, &mut self.dw, &mut self.gemm);
        self.weight.grad.add_scaled_inplace(&self.dw, 1.0);
        self.bias.grad.add_scaled_inplace(&grad_out.sum_rows(), 1.0);
        let mut dx = Mat::zeros(0, 0);
        kernels::matmul_transpose_into(grad_out, &self.weight.value, &mut dx, &mut self.gemm);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn name(&self) -> &'static str {
        "Dense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_is_time_distributed() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut layer = Dense::new(4, 2, &mut rng);
        let x = Mat::full(5, 4, 0.5);
        let y = layer.forward(&x);
        assert_eq!(y.shape(), (5, 2));
        assert_eq!(layer.in_dim(), 4);
        assert_eq!(layer.out_dim(), 2);
    }

    #[test]
    fn forward_matches_manual_affine() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut layer = Dense::new(2, 2, &mut rng);
        layer.weight.value = Mat::from_rows(&[&[1., 2.], &[3., 4.]]);
        layer.bias.value = Mat::from_rows(&[&[0.5, -0.5]]);
        let y = layer.forward(&Mat::from_rows(&[&[1., 1.]]));
        assert_eq!(y, Mat::from_rows(&[&[4.5, 5.5]]));
    }

    #[test]
    fn gradients_match_numerical() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut layer = Dense::new(3, 2, &mut rng);
        let x = crate::init::uniform(&mut rng, 4, 3, 1.0);
        check_layer_gradients(&mut layer, &x, 1e-2);
    }
}

#![cfg(debug_assertions)]
//! Debug-only stress: drives the GEMM kernels and `Mat` through degenerate
//! and tile-boundary shapes with overflow and bounds checks armed. A
//! fencepost error in the tiling loops (or a usize underflow in a tail
//! computation) that release builds would silently wrap past trips a loud
//! panic here. `cargo test --release` compiles this file out; the
//! debug-profile `cargo test` step in CI runs it.

use nn::kernels::{gemm_ab_with, gemm_abt_with, gemm_atb_with, simd_isa, GemmIsa, GemmScratch};
use nn::Mat;

/// Scalar always, plus the detected SIMD backend when the host has one.
fn backends() -> Vec<GemmIsa> {
    let mut isas = vec![GemmIsa::Scalar];
    isas.extend(simd_isa());
    isas
}

/// Deterministic finite values spanning sign and magnitude.
fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as i32 as f32) * 1e-4
        })
        .collect()
}

/// Every (m, k, n) combination of empty, unit, and tile-boundary dims, on
/// every backend, all three transposition variants. Outputs are poisoned
/// with NaN first: the kernels must fully overwrite `m * n` elements even
/// at degenerate shapes, and every write must land in bounds (debug panics
/// otherwise).
#[test]
fn gemm_degenerate_and_tile_boundary_shapes() {
    let dims = [0usize, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33];
    for isa in backends() {
        let mut scratch = GemmScratch::default();
        for &m in &dims {
            for &k in &dims {
                for &n in &dims {
                    let a = fill(m * k, 1);
                    let b = fill(k * n, 2);
                    let bt = fill(n * k, 3);
                    let at = fill(k * m, 4);
                    let mut out = vec![f32::NAN; m * n];

                    gemm_ab_with(isa, m, k, n, &a, &b, &mut out, &mut scratch);
                    assert!(
                        out.iter().all(|v| v.is_finite()),
                        "{} AB m={m} k={k} n={n}: NaN survived — incomplete overwrite",
                        isa.name()
                    );

                    out.fill(f32::NAN);
                    gemm_abt_with(isa, m, k, n, &a, &bt, &mut out, &mut scratch);
                    assert!(
                        out.iter().all(|v| v.is_finite()),
                        "{} ABT m={m} k={k} n={n}: NaN survived — incomplete overwrite",
                        isa.name()
                    );

                    out.fill(f32::NAN);
                    gemm_atb_with(isa, m, k, n, &at, &b, &mut out, &mut scratch);
                    assert!(
                        out.iter().all(|v| v.is_finite()),
                        "{} ATB m={m} k={k} n={n}: NaN survived — incomplete overwrite",
                        isa.name()
                    );
                }
            }
        }
    }
}

/// `Mat` boundary operations: last-row access and grow/shrink resizes —
/// every off-by-one in the row arithmetic panics under debug bounds
/// checks.
#[test]
fn mat_boundary_row_arithmetic() {
    for (rows, cols) in [(1usize, 1usize), (1, 7), (5, 1), (4, 6), (7, 3)] {
        let mut m = Mat::from_vec(rows, cols, fill(rows * cols, 9));
        assert_eq!(m.row(rows - 1).len(), cols);
        m.row_mut(rows - 1)[cols - 1] = 0.5;
        assert_eq!(m.iter_rows().count(), rows);

        // Shrink then regrow; the buffer must stay consistent.
        m.resize(1, cols);
        assert_eq!(m.shape(), (1, cols));
        m.resize(rows + 2, cols);
        assert_eq!(m.shape(), (rows + 2, cols));
        assert_eq!(m.row(rows + 1).len(), cols);
    }
}

//! Criterion bench for the kernel layer: scalar tiled and SIMD GEMM
//! backends (`nn::kernels`) vs the naive reference, on the pipeline's
//! **real** shapes.
//!
//! The shapes below are exactly what the fast-profile monitor multiplies
//! per frame / per training step:
//!
//! * `lstm_gate` — stage-1 LSTM input projection: `(15, 38) · (38, 192)`
//!   (gesture window × ALL features, into 4·48 fused gates).
//! * `lstm_gate_batch8` — the same projection over 8 stacked windows:
//!   `(120, 38) · (38, 192)`, the tall-`m` reference for the kernel.
//! * `im2col` — stage-2 conv as a patch-matrix product:
//!   `(5, 78) · (78, 16)` (error window × kernel·CRG channels).
//! * `conv_dw` — conv weight gradient `AᵀB`: `(5, 78)ᵀ · (5, 16)`.
//! * `lstm_dx` — LSTM input gradient `ABᵀ`: `(15, 192) · (38, 192)ᵀ`.
//!
//! Every backend's result is asserted bit-equal to its naive twin before
//! timing, so the bench doubles as an end-to-end smoke of the
//! accumulation-order contract. Besides time-per-iter, each line reports
//! MFLOP/s (at `2·m·k·n` flops per product) so speedups are comparable
//! across shapes, and a scalar-vs-SIMD summary is written to
//! `BENCH_gemm.json` at the repo root.

use criterion::{black_box, criterion_group, criterion_main, BenchStats, Criterion};
use nn::kernels::{
    gemm_ab_with, gemm_abt_with, gemm_atb_with, naive_ab, naive_abt, naive_atb, simd_isa, GemmIsa,
    GemmScratch,
};

/// `zero_every = 0` → fully dense (normalized kinematic windows, weights);
/// otherwise ~1/`zero_every` exact zeros (post-ReLU activations, im2col
/// padding).
fn fill(len: usize, seed: u64, zero_every: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if zero_every > 0 && state.is_multiple_of(zero_every) {
                0.0
            } else {
                ((state >> 33) as i32 as f32) / (1u32 << 30) as f32
            }
        })
        .collect()
}

#[derive(Clone, Copy)]
enum Variant {
    Ab,
    Abt,
    Atb,
}

/// One shape's scalar-vs-SIMD outcome, for the JSON summary.
struct ShapeResult {
    name: &'static str,
    dims: (usize, usize, usize),
    flops: u64,
    naive: BenchStats,
    scalar: BenchStats,
    simd: Option<BenchStats>,
}

#[allow(clippy::too_many_arguments)] // one line per shape parameter keeps call sites legible
fn bench_shape(
    c: &mut Criterion,
    name: &'static str,
    dims_label: &str,
    variant: Variant,
    m: usize,
    k: usize,
    n: usize,
    a_zero_every: u64,
) -> ShapeResult {
    let (a_len, b_len) = match variant {
        Variant::Ab => (m * k, k * n),
        Variant::Abt => (m * k, n * k),
        Variant::Atb => (k * m, k * n),
    };
    let a = fill(a_len, 11 + m as u64, a_zero_every);
    let b = fill(b_len, 23 + n as u64, 0);
    let mut out = vec![0.0f32; m * n];
    let mut reference = vec![0.0f32; m * n];
    let mut scratch = GemmScratch::default();
    let flops = 2 * (m * k * n) as u64;

    let run = |isa: GemmIsa, out: &mut [f32], scratch: &mut GemmScratch, a: &[f32], b: &[f32]| {
        match variant {
            Variant::Ab => gemm_ab_with(isa, m, k, n, a, b, out, scratch),
            Variant::Abt => gemm_abt_with(isa, m, k, n, a, b, out, scratch),
            Variant::Atb => gemm_atb_with(isa, m, k, n, a, b, out, scratch),
        }
    };

    // Smoke: every available backend must be bit-equal to naive on this
    // shape before anything is timed.
    match variant {
        Variant::Ab => naive_ab(m, k, n, &a, &b, &mut reference),
        Variant::Abt => naive_abt(m, k, n, &a, &b, &mut reference),
        Variant::Atb => naive_atb(m, k, n, &a, &b, &mut reference),
    }
    let mut isas = vec![GemmIsa::Scalar];
    isas.extend(simd_isa());
    for &isa in &isas {
        run(isa, &mut out, &mut scratch, &a, &b);
        for (i, (g, w)) in out.iter().zip(reference.iter()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{name}: {} != naive at element {i}", isa.name());
        }
    }

    let naive = c.bench_stats(&format!("{name}_naive {dims_label}"), Some(flops), |bch| {
        bch.iter(|| match variant {
            Variant::Ab => naive_ab(m, k, n, black_box(&a), black_box(&b), &mut out),
            Variant::Abt => naive_abt(m, k, n, black_box(&a), black_box(&b), &mut out),
            Variant::Atb => naive_atb(m, k, n, black_box(&a), black_box(&b), &mut out),
        })
    });
    let scalar = c.bench_stats(&format!("{name}_scalar {dims_label}"), Some(flops), |bch| {
        bch.iter(|| run(GemmIsa::Scalar, &mut out, &mut scratch, black_box(&a), black_box(&b)))
    });
    let simd = simd_isa().map(|isa| {
        c.bench_stats(&format!("{name}_{} {dims_label}", isa.name()), Some(flops), |bch| {
            bch.iter(|| run(isa, &mut out, &mut scratch, black_box(&a), black_box(&b)))
        })
    });

    ShapeResult { name, dims: (m, k, n), flops, naive, scalar, simd }
}

fn bench_gemm(c: &mut Criterion) {
    println!(
        "gemm kernels: {} core(s) | backend: {} | detected simd: {}",
        std::thread::available_parallelism().map_or(1, usize::from),
        nn::kernels::gemm_backend_label(),
        simd_isa().map_or("none", GemmIsa::name),
    );

    let results = [
        // Stage-1 LSTM input projection (the dominant per-frame matmul).
        bench_shape(c, "lstm_gate", "(15x38 * 38x192)", Variant::Ab, 15, 38, 192, 0),
        // The same over 8 stacked windows (tall-m kernel reference).
        bench_shape(c, "lstm_gate_batch8", "(120x38 * 38x192)", Variant::Ab, 120, 38, 192, 0),
        // Stage-2 im2col convolution product.
        bench_shape(c, "im2col", "(5x78 * 78x16)", Variant::Ab, 5, 78, 16, 8),
        // Training-side contractions.
        bench_shape(c, "conv_dw", "(78x5^T * 5x16)", Variant::Atb, 78, 5, 16, 8),
        bench_shape(c, "lstm_dw", "(38x15^T * 15x192)", Variant::Atb, 38, 15, 192, 0),
        bench_shape(c, "lstm_dx", "(15x192 * (38x192)^T)", Variant::Abt, 15, 192, 38, 0),
    ];

    write_summary(&results);
}

/// Hand-formatted JSON summary (the bench crate deliberately has no serde
/// dependency) written to the repo root, newest run wins.
fn write_summary(results: &[ShapeResult]) {
    let simd_name = simd_isa().map_or("none".to_string(), |i| i.name().to_string());
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"bench\": \"gemm\",\n  \"simd_isa\": \"{simd_name}\",\n  \"flops_model\": \"2*m*k*n\",\n  \"shapes\": [\n"
    ));
    for (idx, r) in results.iter().enumerate() {
        let (m, k, n) = r.dims;
        let speedup =
            r.simd.map(|s| if s.median_ns > 0.0 { r.scalar.median_ns / s.median_ns } else { 0.0 });
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"m\": {m}, \"k\": {k}, \"n\": {n},\n     \"naive_ns\": {:.1}, \"scalar_ns\": {:.1}, \"simd_ns\": {},\n     \"scalar_mflops\": {:.1}, \"simd_mflops\": {}, \"simd_speedup_vs_scalar\": {}}}{}\n",
            r.name,
            r.naive.median_ns,
            r.scalar.median_ns,
            r.simd.map_or("null".to_string(), |s| format!("{:.1}", s.median_ns)),
            r.scalar.mflops(r.flops),
            r.simd.map_or("null".to_string(), |s| format!("{:.1}", s.mflops(r.flops))),
            speedup.map_or("null".to_string(), |s| format!("{s:.2}")),
            if idx + 1 < results.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gemm.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote scalar-vs-simd summary to {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_gemm
}
criterion_main!(benches);

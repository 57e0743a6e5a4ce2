//! Criterion benchmarks pinning the batched backend against the
//! scalar reference on the functional GEMM flows.
//!
//! The batched kernel (`pacq_fp16::batch::tile_dot`) replaces the
//! per-element softfloat classify/round chains with f32 column tiles,
//! branch-free rounding and lane products by arithmetic — the speedup here is
//! the whole point of the backend, while the equivalence suites pin
//! that the bits never change. Expect the `batched` rows at several
//! times the `scalar` throughput on every flow; `jobs` is held at 1 so
//! the ratio measures the kernels, not the thread pool.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pacq::{Architecture, Backend, GemmRunner, GroupShape, NumericsMode};
use pacq_fp16::WeightPrecision;
use pacq_quant::synth::SynthGenerator;
use std::hint::black_box;

/// Pins the pool at one worker so the backend ratio is kernel-only.
fn set_serial() {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global()
        .expect("shim pool reconfigures");
}

/// One flow × precision × backend grid point at a Llama-7B-derived
/// column slice (m16 n256 k4096 — milliseconds per sample, many tiles).
fn bench_backends(c: &mut Criterion) {
    set_serial();
    let (m, n, k) = (16, 256, 4096);
    let mut gen = SynthGenerator::new(7);
    let a = gen.llm_activations(m, k).to_f16();
    let w = gen.llm_weights(k, n);

    let mut group = c.benchmark_group("batched_vs_scalar_m16n256k4096");
    group.throughput(Throughput::Elements((m * n * k) as u64));
    for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
        for arch in [
            Architecture::Pacq,
            Architecture::PackedK,
            Architecture::StandardDequant,
        ] {
            let base = GemmRunner::new()
                .with_group(GroupShape::along_k(128))
                .with_numerics(NumericsMode::PaperRounded);
            let packed = base.quantize_and_pack(&w, precision, arch).expect("packs");
            for backend in Backend::ALL {
                let runner = base.clone().with_backend(backend);
                group.bench_with_input(
                    BenchmarkId::new(format!("{}_{precision}", arch.token()), backend),
                    &backend,
                    |bencher, _| bencher.iter(|| black_box(runner.execute(arch, &a, &packed))),
                );
            }
        }
    }
    group.finish();
    rayon::ThreadPoolBuilder::new()
        .num_threads(0)
        .build_global()
        .expect("shim pool restores");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_backends
}
criterion_main!(benches);

//! Bit-identity of every parallelized path under different job counts.
//!
//! The parallel execution layer promises that fanning work out over the
//! rayon pool never changes a single output bit (DESIGN.md §9): only
//! whole output rows / columns / sweep points are distributed, and the
//! per-element accumulation order is untouched. This suite pins that
//! contract for the three functional GEMM flows, the f64 oracle, and
//! the symmetric and asymmetric RTN quantizers by running each computation at
//! `jobs = 1` and `jobs = 4` and comparing raw f32 bit patterns.
//!
//! The suite additionally pins the batched kernel's contract: the
//! column-tile kernel (`Backend::Batched`) must agree with the scalar
//! reference to the last bit, at every job count — a three-way scalar ≡
//! rayon ≡ batched check over the flows, precisions, numerics modes,
//! randomized shapes/group sizes, partial column tiles, and the fp16
//! classify/round frontier inputs (subnormals, ±∞, NaN,
//! carry-to-infinity magnitudes).

use pacq_fp16::{Backend, Fp16, NumericsMode, WeightPrecision};
use pacq_quant::{
    synth::SynthGenerator, GroupShape, MatrixF16, MatrixF32, PackDim, PackedMatrix,
    QuantizedMatrix, RtnQuantizer,
};
use pacq_simt::{execute, execute_with_backend, reference, Architecture};

/// Runs `f` at `jobs = 1` and `jobs = 4` and returns both results. The
/// job count is scoped to this thread, so tests run side by side.
fn at_1_and_4<T: Send>(f: impl Fn() -> T + Send + Sync) -> (T, T) {
    let at = |n| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("the shim builds any pool")
            .install(&f)
    };
    (at(1), at(4))
}

/// Asserts two f32 matrices agree to the last bit.
fn assert_bits_eq(serial: &MatrixF32, parallel: &MatrixF32, what: &str) {
    assert_eq!(serial.rows(), parallel.rows(), "{what}: row mismatch");
    assert_eq!(serial.cols(), parallel.cols(), "{what}: col mismatch");
    for r in 0..serial.rows() {
        for c in 0..serial.cols() {
            let (s, p) = (serial.get(r, c), parallel.get(r, c));
            assert_eq!(
                s.to_bits(),
                p.to_bits(),
                "{what}: ({r},{c}) diverges: jobs=1 {s} vs jobs=4 {p}"
            );
        }
    }
}

/// Asserts two quantization artifacts agree exactly (codes, raw scale
/// bits, zero points).
fn assert_artifacts_eq(serial: &QuantizedMatrix, parallel: &QuantizedMatrix, what: &str) {
    assert_eq!(serial.codes(), parallel.codes(), "{what}: codes diverge");
    let sb: Vec<u32> = serial.scales().iter().map(|s| s.to_bits()).collect();
    let pb: Vec<u32> = parallel.scales().iter().map(|s| s.to_bits()).collect();
    assert_eq!(sb, pb, "{what}: scale bits diverge");
    assert_eq!(
        serial.zero_points(),
        parallel.zero_points(),
        "{what}: zero points diverge"
    );
}

// m = 5 deliberately avoids the band size dividing the row count, so
// the last parallel band is ragged.
const M: usize = 5;
const N: usize = 16;
const K: usize = 64;

fn pack_for(arch: Architecture) -> PackDim {
    match arch {
        Architecture::PackedK | Architecture::InputStationary => PackDim::K,
        _ => PackDim::N,
    }
}

#[test]
fn execute_is_bit_identical_across_job_counts() {
    for arch in Architecture::ALL {
        for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
            for numerics in [NumericsMode::PaperRounded, NumericsMode::Wide] {
                let mut g = SynthGenerator::new(77);
                let a = g.llm_activations(M, K).to_f16();
                let w = g.llm_weights(K, N);
                let q = RtnQuantizer::new(precision, GroupShape::along_k(32))
                    .quantize(&w)
                    .expect("quantizes");
                let p = PackedMatrix::pack(&q, pack_for(arch)).expect("packs");
                let (serial, parallel) =
                    at_1_and_4(|| execute(arch, &a, &p, numerics).expect("executes"));
                assert_bits_eq(
                    &serial,
                    &parallel,
                    &format!("execute({arch:?}, {precision}, {numerics:?})"),
                );
            }
        }
    }
}

#[test]
fn reference_oracle_is_bit_identical_across_job_counts() {
    let mut g = SynthGenerator::new(78);
    let a = g.llm_activations(M, K).to_f16();
    let w = g.llm_weights(K, N);
    let q = RtnQuantizer::new(WeightPrecision::Int4, GroupShape::along_k(32))
        .quantize(&w)
        .expect("quantizes");
    let p = PackedMatrix::pack(&q, PackDim::N).expect("packs");
    let (serial, parallel) = at_1_and_4(|| reference(&a, &p));
    assert_bits_eq(&serial, &parallel, "reference");
}

#[test]
fn matmul_is_bit_identical_across_job_counts() {
    let mut g = SynthGenerator::new(79);
    let lhs = g.llm_activations(M, K);
    let rhs = g.llm_weights(K, N);
    let (serial, parallel) = at_1_and_4(|| lhs.matmul(&rhs));
    assert_bits_eq(&serial, &parallel, "matmul");
}

#[test]
fn rtn_artifacts_are_bit_identical_across_job_counts() {
    let mut g = SynthGenerator::new(80);
    let w = g.llm_weights(K, N);
    for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
        for (name, quantizer) in [
            (
                "symmetric",
                RtnQuantizer::new(precision, GroupShape::along_k(32)),
            ),
            (
                "asymmetric",
                RtnQuantizer::asymmetric(precision, GroupShape::along_k(32)),
            ),
        ] {
            let (serial, parallel) = at_1_and_4(|| quantizer.quantize(&w).expect("quantizes"));
            assert_artifacts_eq(&serial, &parallel, &format!("rtn/{name}/{precision}"));
        }
    }
}

/// Asserts two f32 matrices agree to the last bit, except that a NaN
/// may face a NaN with a different payload: once an f32/f64 accumulator
/// goes NaN, the surviving payload depends on float-add operand order
/// the compiler is free to commute, so payloads are outside the
/// backend contract (finite values are never exempted).
fn assert_bits_eq_nan_loose(left: &MatrixF32, right: &MatrixF32, what: &str) {
    assert_eq!(left.rows(), right.rows(), "{what}: row mismatch");
    assert_eq!(left.cols(), right.cols(), "{what}: col mismatch");
    for r in 0..left.rows() {
        for c in 0..left.cols() {
            let (l, p) = (left.get(r, c), right.get(r, c));
            assert!(
                l.to_bits() == p.to_bits() || (l.is_nan() && p.is_nan()),
                "{what}: ({r},{c}) diverges: {l} vs {p}"
            );
        }
    }
}

/// The tentpole contract: scalar ≡ rayon ≡ batched. Every flow ×
/// precision × numerics mode runs under both backends at `jobs = 1`
/// and `jobs = 4`; all four results must carry identical bits.
#[test]
fn batched_backend_is_bit_identical_to_scalar_across_job_counts() {
    for arch in Architecture::ALL {
        for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
            for numerics in [NumericsMode::PaperRounded, NumericsMode::Wide] {
                let mut g = SynthGenerator::new(83);
                let a = g.llm_activations(M, K).to_f16();
                let w = g.llm_weights(K, N);
                let q = RtnQuantizer::new(precision, GroupShape::along_k(32))
                    .quantize(&w)
                    .expect("quantizes");
                let p = PackedMatrix::pack(&q, pack_for(arch)).expect("packs");
                let what = format!("execute({arch:?}, {precision}, {numerics:?})");
                let run = |backend| {
                    at_1_and_4(|| {
                        execute_with_backend(arch, &a, &p, numerics, backend).expect("executes")
                    })
                };
                let (scalar_1, scalar_4) = run(Backend::Scalar);
                let (batched_1, batched_4) = run(Backend::Batched);
                assert_bits_eq(&scalar_1, &scalar_4, &format!("{what} scalar jobs"));
                assert_bits_eq(&batched_1, &batched_4, &format!("{what} batched jobs"));
                assert_bits_eq(&scalar_1, &batched_1, &format!("{what} backends"));
            }
        }
    }
}

/// Three-way equivalence over randomized shapes, precisions, group
/// sizes and numerics modes — the property that lets every execution
/// path run the batched kernel and keep the scalar datapath as its
/// reference.
#[test]
fn three_way_equivalence_over_randomized_shapes() {
    let mut state = 0x2545f4914f6cdd1du64;
    let mut next = move |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 33) as usize % bound
    };
    for trial in 0..8 {
        let m = 1 + next(8);
        let k = [32usize, 64, 128][next(3)];
        let n = [16usize, 32][next(2)];
        let group = [16usize, 32][next(2)].min(k);
        let precision = [WeightPrecision::Int4, WeightPrecision::Int2][next(2)];
        let numerics = [NumericsMode::PaperRounded, NumericsMode::Wide][next(2)];
        let mut g = SynthGenerator::new(900 + trial);
        let a = g.llm_activations(m, k).to_f16();
        let w = g.llm_weights(k, n);
        let q = RtnQuantizer::new(precision, GroupShape::along_k(group))
            .quantize(&w)
            .expect("quantizes");
        for arch in Architecture::ALL {
            let p = PackedMatrix::pack(&q, pack_for(arch)).expect("packs");
            let what =
                format!("trial {trial}: {arch:?} m{m} n{n} k{k} g{group} {precision} {numerics:?}");
            let run = |backend| {
                at_1_and_4(|| {
                    execute_with_backend(arch, &a, &p, numerics, backend).expect("executes")
                })
            };
            let (scalar_1, scalar_4) = run(Backend::Scalar);
            let (batched_1, batched_4) = run(Backend::Batched);
            assert_bits_eq(&scalar_1, &scalar_4, &format!("{what} scalar jobs"));
            assert_bits_eq(&batched_1, &batched_4, &format!("{what} batched jobs"));
            assert_bits_eq(&scalar_1, &batched_1, &format!("{what} backends"));
        }
    }
}

/// Three-way equivalence on activations sitting on every fp16
/// classify/round frontier (the same families as the fp16 RNE frontier
/// suite): subnormals, ±max-finite carry-to-infinity magnitudes, ±∞
/// and NaN. Weights stay quantized (their domain is the packed codes),
/// the activations carry the hostile bits.
#[test]
fn three_way_equivalence_survives_frontier_activations() {
    let frontier: Vec<u16> = vec![
        0x0001, 0x8001, // min subnormals
        0x03ff, 0x83ff, // max subnormals
        0x0400, 0x8400, // min normals
        0x3c00, 0xbc00, // ±1
        0x7bff, 0xfbff, // ±max finite (carry-to-infinity inputs)
        0x7a00, 0xfa00, // large magnitudes that overflow mid-sum
        0x7c00, 0xfc00, // ±inf
        0x7e00, 0xfe77, // NaNs
        0x0000, 0x8000, // ±0
    ];
    let (m, n, k) = (3usize, 16, 32);
    let a = MatrixF16::from_vec(
        m,
        k,
        (0..m * k)
            .map(|i| Fp16::from_bits(frontier[(i * 7 + i / k) % frontier.len()]))
            .collect(),
    );
    let w = SynthGenerator::new(84).llm_weights(k, n);
    for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
        for numerics in [NumericsMode::PaperRounded, NumericsMode::Wide] {
            let q = RtnQuantizer::new(precision, GroupShape::along_k(16))
                .quantize(&w)
                .expect("quantizes");
            for arch in Architecture::ALL {
                let p = PackedMatrix::pack(&q, pack_for(arch)).expect("packs");
                let what = format!("frontier {arch:?} {precision} {numerics:?}");
                let run = |backend| {
                    at_1_and_4(|| {
                        execute_with_backend(arch, &a, &p, numerics, backend).expect("executes")
                    })
                };
                let (scalar_1, scalar_4) = run(Backend::Scalar);
                let (batched_1, batched_4) = run(Backend::Batched);
                assert_bits_eq_nan_loose(&scalar_1, &scalar_4, &format!("{what} scalar jobs"));
                assert_bits_eq_nan_loose(&batched_1, &batched_4, &format!("{what} batched jobs"));
                assert_bits_eq_nan_loose(&scalar_1, &batched_1, &format!("{what} backends"));
            }
        }
    }
}

/// Three-way equivalence at the edges of the batched kernel's
/// [`COLS`]-wide column tiles: n = 12, 20, 36 at INT4 leave a partial
/// last tile of whole 4-lane words, and n = 24, 40 at INT2 are whole
/// tiles of one 8-lane word each. Rows m = 1 and m = 17 cover a
/// one-row band and a ragged last band on the scalar backend; at 4
/// workers the batched backend splits m = 17 into two row parts per
/// column tile wherever n spans fewer than 4 tiles. The groups cover
/// two segments, a single segment (group = k) and the 2-D `g[32,4]`.
/// The standard flow runs on both pack directions, since it accepts
/// either.
///
/// [`COLS`]: pacq_fp16::batch::COLS
#[test]
fn three_way_equivalence_covers_partial_column_tiles() {
    const K: usize = 64;
    let cases = [
        (WeightPrecision::Int4, 12usize),
        (WeightPrecision::Int4, 20),
        (WeightPrecision::Int4, 36),
        (WeightPrecision::Int2, 24),
        (WeightPrecision::Int2, 40),
    ];
    for (precision, n) in cases {
        for m in [1usize, 17] {
            for group in [
                GroupShape::along_k(32),
                GroupShape::along_k(K),
                GroupShape::new(32, 4),
            ] {
                let mut g = SynthGenerator::new((n * 100 + m) as u64);
                let a = g.llm_activations(m, K).to_f16();
                let w = g.llm_weights(K, n);
                let q = RtnQuantizer::new(precision, group)
                    .quantize(&w)
                    .expect("quantizes");
                let mut runs: Vec<(Architecture, PackDim, NumericsMode)> = Architecture::ALL
                    .into_iter()
                    .map(|arch| (arch, pack_for(arch), NumericsMode::PaperRounded))
                    .collect();
                runs.push((Architecture::Pacq, PackDim::N, NumericsMode::Wide));
                runs.push((
                    Architecture::StandardDequant,
                    PackDim::K,
                    NumericsMode::PaperRounded,
                ));
                for (arch, dim, numerics) in runs {
                    let p = PackedMatrix::pack(&q, dim).expect("packs");
                    let what = format!(
                        "{arch:?} P(B)_{dim} m{m} n{n} k{K} {group} {precision} {numerics:?}"
                    );
                    let run = |backend| {
                        at_1_and_4(|| {
                            execute_with_backend(arch, &a, &p, numerics, backend).expect("executes")
                        })
                    };
                    let (scalar_1, scalar_4) = run(Backend::Scalar);
                    let (batched_1, batched_4) = run(Backend::Batched);
                    assert_bits_eq(&scalar_1, &scalar_4, &format!("{what} scalar jobs"));
                    assert_bits_eq(&batched_1, &batched_4, &format!("{what} batched jobs"));
                    assert_bits_eq(&scalar_1, &batched_1, &format!("{what} backends"));
                }
            }
        }
    }
}

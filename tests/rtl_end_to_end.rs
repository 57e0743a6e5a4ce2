//! Capstone cross-stack test: a small GEMM computed entirely through the
//! **gate-level** parallel multiplier — quantize → pack → drive the
//! netlist word by word → recover via Eq. (1) — and compared against
//! the dequantized oracle.

use pacq::{Architecture, GemmRunner, GroupShape, NumericsMode};
use pacq_fp16::{Fp16, WeightPrecision};
use pacq_quant::synth::SynthGenerator;
use pacq_rtl::ParallelFpIntCircuit;

#[test]
fn gate_level_gemm_matches_oracle() {
    let (m, n, k) = (2usize, 8usize, 32usize);
    let mut gen = SynthGenerator::new(2025);
    let a = gen.llm_activations(m, k).to_f16();
    let w = gen.llm_weights(k, n);

    let runner = GemmRunner::new()
        .with_group(GroupShape::along_k(k))
        .with_numerics(NumericsMode::Wide);
    let packed = runner
        .quantize_and_pack(&w, WeightPrecision::Int4, Architecture::Pacq)
        .expect("packs along n");

    let oracle = pacq_simt::reference(&a, &packed);

    // Drive the gate-level circuit: for every (row, word-column), stream
    // the k products, recover Σ A·B = Σ A·(B+1032) − 1032·Σ A per lane.
    let mut circuit = ParallelFpIntCircuit::build();
    let lanes = 4usize;
    for i in 0..m {
        for wc in 0..packed.word_cols() {
            let mut lane_sums = [0f64; 4];
            let mut sum_a = 0f64;
            for kk in 0..k {
                let act = a.get(i, kk);
                sum_a += act.to_f32() as f64;
                let word = packed.word(kk, wc);
                let products = circuit.multiply(act.to_bits(), word.to_bits());
                for (lane, &p) in products.iter().enumerate() {
                    lane_sums[lane] += Fp16::from_bits(p).to_f32() as f64;
                }
            }
            for (lane, &biased_sum) in lane_sums.iter().enumerate() {
                let nn = wc * lanes + lane;
                let scale = packed.scale(0, nn) as f64;
                let recovered = (biased_sum - 1032.0 * sum_a) * scale;
                let want = oracle.get(i, nn) as f64;
                // The gate-level path rounds each biased product to FP16
                // (the PaperRounded numerics), so allow the corresponding
                // error budget: ~0.5·|A| absolute per term, scaled.
                let budget = (0..k)
                    .map(|kk| 0.5 * a.get(i, kk).to_f32().abs() as f64)
                    .sum::<f64>()
                    * scale
                    + 1e-6;
                assert!(
                    (recovered - want).abs() <= budget,
                    "C[{i},{nn}]: gate-level {recovered} vs oracle {want} (budget {budget})"
                );
            }
        }
    }
}

/// The same stream, but checking the gate-level circuit against the
/// behavioral parallel multiplier product by product (bit-exact under
/// flush-to-zero; the synthetic activations here are all normal).
#[test]
fn gate_level_products_match_behavioral_over_gemm_stream() {
    use pacq_fp16::{ParallelFpIntMultiplier, SubnormalMode};

    let (m, k) = (2usize, 16usize);
    let mut gen = SynthGenerator::new(77);
    let a = gen.llm_activations(m, k).to_f16();
    let w = gen.llm_weights(k, 8);
    let runner = GemmRunner::new().with_group(GroupShape::along_k(k));
    let packed = runner
        .quantize_and_pack(&w, WeightPrecision::Int4, Architecture::Pacq)
        .expect("packs");

    let mut circuit = ParallelFpIntCircuit::build();
    let unit = ParallelFpIntMultiplier::with_subnormal_mode(
        WeightPrecision::Int4,
        SubnormalMode::FlushToZero,
    );
    for i in 0..m {
        for wc in 0..packed.word_cols() {
            for kk in 0..k {
                let act = a.get(i, kk);
                let word = packed.word(kk, wc);
                let rtl = circuit.multiply(act.to_bits(), word.to_bits());
                let behav = unit.multiply(act, word);
                for (lane, lt) in behav.lane_traces().iter().enumerate() {
                    assert_eq!(
                        rtl[lane],
                        lt.product.to_bits(),
                        "A={:04x} word={:04x} lane {lane}",
                        act.to_bits(),
                        word.to_bits()
                    );
                }
            }
        }
    }
}

//! Weight-only quantization walkthrough: quantize an LLM-like matrix
//! with every Table II group geometry, inspect error metrics and the
//! perplexity proxy, and show the bit-level packed artifact including
//! the `B + 1032` biased codes the PacQ hardware consumes.
//!
//! Run with: `cargo run --release --example quantize_and_pack`

use pacq::{GroupShape, PackDim, PackedMatrix, RtnQuantizer};
use pacq_fp16::{Fp16, WeightPrecision};
use pacq_quant::evaluate_rtn;
use pacq_quant::lm::TinyLm;
use pacq_quant::synth::SynthGenerator;

fn main() -> pacq::PacqResult<()> {
    let mut generator = SynthGenerator::new(7);
    let weights = generator.llm_weights(512, 128);
    let activations = generator.llm_activations(16, 512);

    // ------------------------------------------------------------------
    // Table II-style group study: weight error and output perturbation.
    // ------------------------------------------------------------------
    println!("== RTN INT4 quantization error by group geometry (512x128 weights) ==");
    println!(
        "{:<10} {:>12} {:>12} {:>16}",
        "group", "weight MSE", "SQNR (dB)", "output rel err"
    );
    for group in [
        GroupShape::G128,
        GroupShape::G32X4,
        GroupShape::G256,
        GroupShape::G64X4,
    ] {
        let e = evaluate_rtn(&weights, &activations, WeightPrecision::Int4, group)?;
        println!(
            "{:<10} {:>12.3e} {:>12.2} {:>16.4}",
            group.to_string(),
            e.weight_mse,
            e.weight_sqnr_db,
            e.output_rel_err
        );
    }

    // ------------------------------------------------------------------
    // Symmetric vs asymmetric (zero-point) RTN; the zero points reach
    // the PacQ datapath through the Σ A term of Eq. (1).
    // ------------------------------------------------------------------
    println!("\n== RTN schemes (output rel err, INT4 g128, salient activations) ==");
    {
        let mut g2 = SynthGenerator::new(70);
        let w = g2.llm_weights(256, 64);
        let base = g2.llm_activations(16, 256);
        // Boost a few channels to emulate salient activations.
        let acts = pacq_quant::MatrixF32::from_fn(16, 256, |m, k| {
            base.get(m, k) * if k % 41 == 0 { 15.0 } else { 1.0 }
        });
        let out_err = |deq: &pacq_quant::MatrixF32| {
            let r = acts.matmul(&w);
            let q = acts.matmul(deq);
            let d = pacq_quant::MatrixF32::from_fn(r.rows(), r.cols(), |i, j| {
                r.get(i, j) - q.get(i, j)
            });
            d.frobenius_norm() / r.frobenius_norm().max(1e-30)
        };
        let group = GroupShape::along_k(128);
        let rtn = RtnQuantizer::new(WeightPrecision::Int4, group).quantize(&w)?;
        println!(
            "  RTN (symmetric):        {:.5}",
            out_err(&rtn.dequantize())
        );
        let asym = RtnQuantizer::asymmetric(WeightPrecision::Int4, group).quantize(&w)?;
        println!(
            "  RTN (asymmetric):       {:.5}",
            out_err(&asym.dequantize())
        );
    }

    // ------------------------------------------------------------------
    // Perplexity proxy (the Table II substitution).
    // ------------------------------------------------------------------
    println!("\n== perplexity proxy (TinyLm, sequences sampled from the fp16 model) ==");
    let lm = TinyLm::new(2024, 64, 128, 256);
    let tokens = lm.sample(0, 600, 99);
    println!("{:<22} {:>10}", "model", "ppl");
    println!("{:<22} {:>10.3}", "fp16 baseline", lm.perplexity(&tokens));
    for group in [
        GroupShape::G128,
        GroupShape::G32X4,
        GroupShape::G256,
        GroupShape::G64X4,
    ] {
        let q = lm.quantize_ffn(WeightPrecision::Int4, group)?;
        println!(
            "{:<22} {:>10.3}",
            format!("W4A16 {group}"),
            q.perplexity(&tokens)
        );
    }

    // ------------------------------------------------------------------
    // The packed artifact, bit by bit.
    // ------------------------------------------------------------------
    println!("\n== packed P(B_4)_n artifact ==");
    let q = RtnQuantizer::new(WeightPrecision::Int4, GroupShape::G32X4).quantize(&weights)?;
    let packed = PackedMatrix::pack(&q, PackDim::N)?;
    println!("{packed}");
    println!("first word (k=0, lanes n=0..3):");
    let word = packed.word(0, 0);
    for lane in 0..4 {
        let signed = word.signed_lane(WeightPrecision::Int4, lane);
        let biased = word.biased_lane(WeightPrecision::Int4, lane);
        let fp = Fp16::from_f32((signed as i32 + 1032) as f32);
        println!(
            "  lane {lane}: B = {signed:>3}  biased code = {biased:>2}  B+1032 = fp16 0x{:04X} \
             (exp {:05b}, mantissa {:010b})",
            fp.to_bits(),
            fp.biased_exponent(),
            fp.mantissa()
        );
    }
    println!(
        "\nnote the constant exponent 11001 and the code sitting in the low \
         mantissa bits —\nobservations ① and ② that make the parallel FP-INT \
         multiplier possible (§IV)."
    );
    println!(
        "\nstorage: {:.3} bits/weight (codes + FP16 group scales)",
        packed.storage_bits() as f64 / (packed.k() * packed.n()) as f64
    );
    Ok(())
}

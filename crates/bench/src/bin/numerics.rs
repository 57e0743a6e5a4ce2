//! Extended experiment: numeric fidelity of the PacQ datapath.
//!
//! The paper states "there is no approximation in our design" (§V). This
//! study quantifies what the *literal* datapath — which rounds every
//! biased product `A × (B + 1032)` to FP16 before the adder trees — does
//! to the recovered GEMM, versus a Wide variant that keeps the exact
//! 22-bit products, versus the dequantization baseline. See
//! EXPERIMENTS.md, "Reproduction findings beyond the paper".

use pacq::{Architecture, GemmRunner, GroupShape, NumericsMode};
use pacq_bench::banner;
use pacq_fp16::{Fp16, Int4, PackedWord, ParallelDpUnit, RoundingMode, WeightPrecision};
use pacq_quant::synth::SynthGenerator;
use pacq_quant::MatrixF32;
use std::fmt::Write;

fn rel_err(got: &MatrixF32, want: &MatrixF32) -> f64 {
    let d = MatrixF32::from_fn(got.rows(), got.cols(), |r, c| {
        got.get(r, c) - want.get(r, c)
    });
    d.frobenius_norm() / want.frobenius_norm().max(1e-30)
}

fn main() -> std::process::ExitCode {
    pacq_bench::exit(run())
}

fn run() -> pacq::PacqResult<String> {
    let metrics = pacq_bench::init("numerics")?;
    let mut out = banner(
        "Numerics study (extension)",
        "GEMM error of the PacQ datapath: rounded biased products vs wide products",
        "paper asserts 'no approximation'; the literal rounding units say otherwise",
    );

    let _ = writeln!(
        out,
        "\n{:<8} {:>6} {:<10} {:>16} {:>16} {:>16}",
        "weights", "k", "act scale", "std dequant", "PacQ (rounded)", "PacQ (wide)"
    );
    for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
        for k in [64usize, 256, 1024] {
            for act_scale in [0.25f32, 1.0, 4.0] {
                let mut g = SynthGenerator::new(1000 + k as u64);
                let w = g.llm_weights(k, 32);
                let base_a = g.llm_activations(8, k);
                let a = MatrixF32::from_fn(8, k, |m, kk| base_a.get(m, kk) * act_scale).to_f16();

                let group = GroupShape::along_k(64.min(k));
                let mk = |mode| {
                    GemmRunner::new()
                        .with_group(group)
                        .with_numerics(mode)
                        .with_cache_opt(metrics.cache())
                };

                let p_n =
                    mk(NumericsMode::Wide).quantize_and_pack(&w, precision, Architecture::Pacq)?;
                let p_k = mk(NumericsMode::Wide).quantize_and_pack(
                    &w,
                    precision,
                    Architecture::PackedK,
                )?;
                let oracle = pacq_simt::reference(&a, &p_n);

                let std =
                    mk(NumericsMode::Wide).execute(Architecture::StandardDequant, &a, &p_k)?;
                let rounded =
                    mk(NumericsMode::PaperRounded).execute(Architecture::Pacq, &a, &p_n)?;
                let wide = mk(NumericsMode::Wide).execute(Architecture::Pacq, &a, &p_n)?;

                let _ = writeln!(
                    out,
                    "{:<8} {:>6} {:<10} {:>16.3e} {:>16.3e} {:>16.3e}",
                    precision.to_string(),
                    k,
                    format!("x{act_scale}"),
                    rel_err(&std, &oracle),
                    rel_err(&rounded, &oracle),
                    rel_err(&wide, &oracle),
                );
            }
        }
    }
    rounding_unit_study(&mut out)?;

    let _ = writeln!(
        out,
        "\nreading: the rounded-product datapath carries orders of magnitude more\n\
         error than either the dequantization baseline or the wide variant,\n\
         because rounding the ~1032x-inflated products erases the bits where\n\
         the true Σ A·B lives. Exactness requires the 22-bit products to reach\n\
         the accumulator unrounded (NumericsMode::Wide)."
    );
    metrics.finish(&mut out)?;
    Ok(out)
}

/// RNE vs truncating rounding units on a k=128 packed dot product: the
/// truncation bias is systematic, so it does not average out over k the
/// way RNE's symmetric error does.
fn rounding_unit_study(out: &mut String) -> pacq::PacqResult<()> {
    let _ = writeln!(
        out,
        "\n-- rounding-unit design point: RNE vs truncate (k=128 dot, INT4) --"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>16} {:>16}",
        "mode", "mean |err|", "mean signed err"
    );
    let k = 128;
    let a: Vec<Fp16> = (0..k)
        .map(|i| Fp16::from_f32(((i * 37 + 11) % 64) as f32 / 16.0 - 2.0))
        .collect();
    let words: Vec<PackedWord> = (0..k)
        .map(|i| {
            PackedWord::pack_int4(core::array::from_fn(|l| {
                Int4::new(((i * 13 + l * 5) % 16) as i8 - 8).unwrap()
            }))
        })
        .collect();
    let exact: Vec<f64> = (0..4)
        .map(|lane| {
            a.iter()
                .zip(&words)
                .map(|(&x, w)| {
                    x.to_f32() as f64 * w.signed_lane(WeightPrecision::Int4, lane) as f64
                })
                .sum()
        })
        .collect();
    for (name, mode) in [
        ("RNE", RoundingMode::NearestEven),
        ("truncate", RoundingMode::Truncate),
    ] {
        let dp = ParallelDpUnit::new(4, 2, WeightPrecision::Int4)?.with_rounding(mode);
        let rec = dp.dot_packed(&a, &words).recover();
        let mut abs = 0f64;
        let mut signed = 0f64;
        for lane in 0..4 {
            let e = rec[lane] as f64 - exact[lane];
            abs += e.abs() / 4.0;
            signed += e / 4.0;
        }
        let _ = writeln!(out, "{name:<12} {abs:>16.4} {signed:>16.4}");
    }
    Ok(())
}

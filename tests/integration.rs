//! End-to-end integration tests spanning every crate: quantize → pack →
//! simulate → execute → price.

use pacq::{Architecture, Comparison, GemmRunner, GemmShape, GroupShape, NumericsMode, Workload};
use pacq_fp16::WeightPrecision;
use pacq_quant::synth::SynthGenerator;
use pacq_quant::MatrixF32;

fn rel_err(got: &MatrixF32, want: &MatrixF32) -> f64 {
    let d = MatrixF32::from_fn(got.rows(), got.cols(), |r, c| {
        got.get(r, c) - want.get(r, c)
    });
    d.frobenius_norm() / want.frobenius_norm().max(1e-12)
}

#[test]
fn full_pipeline_int4() {
    let mut gen = SynthGenerator::new(100);
    let weights = gen.llm_weights(128, 32);
    let a = gen.llm_activations(8, 128).to_f16();

    let runner = GemmRunner::new()
        .with_group(GroupShape::along_k(32))
        .with_numerics(NumericsMode::Wide);

    // Quantize + pack for each flow.
    let p_n = runner
        .quantize_and_pack(&weights, WeightPrecision::Int4, Architecture::Pacq)
        .expect("packs along n");
    let p_k = runner
        .quantize_and_pack(&weights, WeightPrecision::Int4, Architecture::PackedK)
        .expect("packs along k");

    // Functional execution agrees with the oracle on every flow.
    let oracle = pacq_simt::reference(&a, &p_n);
    let std = runner
        .execute(Architecture::StandardDequant, &a, &p_k)
        .unwrap();
    let pk = runner.execute(Architecture::PackedK, &a, &p_k).unwrap();
    let pq = runner.execute(Architecture::Pacq, &a, &p_n).unwrap();
    assert!(
        rel_err(&std, &oracle) < 5e-3,
        "std: {}",
        rel_err(&std, &oracle)
    );
    assert!(
        rel_err(&pk, &oracle) < 5e-3,
        "pk: {}",
        rel_err(&pk, &oracle)
    );
    assert!(
        rel_err(&pq, &oracle) < 5e-3,
        "pq: {}",
        rel_err(&pq, &oracle)
    );
}

#[test]
fn pipeline_int2() {
    let mut gen = SynthGenerator::new(200);
    let weights = gen.llm_weights(64, 32);
    let a = gen.llm_activations(4, 64).to_f16();

    let runner = GemmRunner::new()
        .with_group(GroupShape::along_k(32))
        .with_numerics(NumericsMode::Wide);
    let p_n = runner
        .quantize_and_pack(&weights, WeightPrecision::Int2, Architecture::Pacq)
        .expect("packs along n");
    let oracle = pacq_simt::reference(&a, &p_n);
    let pq = runner.execute(Architecture::Pacq, &a, &p_n).unwrap();
    assert!(
        rel_err(&pq, &oracle) < 5e-3,
        "int2 pacq: {}",
        rel_err(&pq, &oracle)
    );
}

#[test]
fn analysis_pipeline_all_architectures_all_precisions() {
    let runner = GemmRunner::new();
    for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
        for shape in [
            GemmShape::M16N16K16,
            GemmShape::new(32, 256, 512),
            GemmShape::new(16, 4096, 4096),
        ] {
            let wl = Workload::new(shape, precision);
            let reports: Vec<_> = [
                Architecture::StandardDequant,
                Architecture::PackedK,
                Architecture::Pacq,
            ]
            .iter()
            .map(|&arch| runner.analyze(arch, wl).unwrap())
            .collect();
            for r in &reports {
                assert!(r.stats.total_cycles > 0, "{wl} {:?}: zero cycles", r.arch);
                assert!(r.total_energy_pj() > 0.0);
                assert!(r.edp_pj_s > 0.0);
                assert!(
                    r.stats.total_cycles >= r.stats.tc_cycles,
                    "total < tc cycles on {:?}",
                    r.arch
                );
            }
            let cmp = Comparison::new(reports);
            let edp = cmp.normalized_edp();
            assert!(
                edp[2] < edp[0],
                "{wl}: PacQ EDP {} !< std {}",
                edp[2],
                edp[0]
            );
        }
    }
}

#[test]
fn two_dimensional_groups_reduce_scale_fetches_end_to_end() {
    let wl = Workload::new(GemmShape::new(16, 4096, 4096), WeightPrecision::Int4);
    let g1 = GemmRunner::new()
        .with_group(GroupShape::G128)
        .analyze(Architecture::Pacq, wl)
        .unwrap();
    let g2 = GemmRunner::new()
        .with_group(GroupShape::G32X4)
        .analyze(Architecture::Pacq, wl)
        .unwrap();
    assert_eq!(
        g1.stats.ops.scale_fetches,
        4 * g2.stats.ops.scale_fetches,
        "g[32,4] should cut scale fetches 4x"
    );
}

#[test]
fn weight_storage_shrinks_as_advertised() {
    // Figure 1 motivation: Llama2-70B needs 131.6 GB at FP16 but 35.8 GB
    // at INT4 — weight storage shrinks ~3.7-4x (scales add back a little).
    let mut gen = SynthGenerator::new(9);
    let w = gen.llm_weights(1024, 256);
    let runner = GemmRunner::new();
    let packed = runner
        .quantize_and_pack(&w, WeightPrecision::Int4, Architecture::Pacq)
        .expect("packs");
    let fp16_bits = (1024 * 256 * 16) as f64;
    let ratio = fp16_bits / packed.storage_bits() as f64;
    assert!((3.5..4.0).contains(&ratio), "compression ratio = {ratio}");
}

/// Cache keys and dse job ids are on-disk formats: existing stores and
/// checkpoints must keep hitting, so every (architecture × precision)
/// pair is pinned byte for byte.
#[test]
fn cache_keys_and_dse_job_ids_are_pinned() {
    use pacq::DseJob;
    const CFG: &str = "pacq-cache/v1;ver=0.1.0;cfg=tc8,dpu4,dpw4,dup2,ob3072x2,rf262144,\
                       l198304,dq4020000000000000,clk41b7d78400000000,dram7ff0000000000000;\
                       shape=m16n4096k4096";
    const ARCH_ID: &str = "arch=builtin;em=buf3faeb851eb851eb8,rf3fe3333333333333,\
                           l1400783ddb1a48e37,dram4049000000000000";
    use Architecture::{InputStationary, PackedK, Pacq, StandardDequant};
    use WeightPrecision::{Int2, Int4};
    let runner = GemmRunner::new();
    let archs = [
        (StandardDequant, "std"),
        (PackedK, "packedk"),
        (InputStationary, "is"),
        (Pacq, "pacq"),
    ];
    for (arch, a) in archs {
        for (precision, p, bits) in [(Int4, "int4", 4), (Int2, "int2", 2)] {
            let workload = Workload::new(GemmShape::new(16, 4096, 4096), precision);
            assert_eq!(
                runner.cache_key(arch, workload).canonical(),
                format!("{CFG};wbits={bits};flow={a}:g128:rounded;{ARCH_ID}")
            );
            let (width, dup, group) = (4, 2, GroupShape::G128);
            let job = DseJob {
                arch,
                workload,
                width,
                dup,
                group,
            };
            assert_eq!(job.id(), format!("b16:{a}:{p}:w4:d2:g128"));
        }
    }
}

/// The same pin for a non-default design point (DP-8, dup 4,
/// `g[32,4]`) derived from two base machines: the builtin one and the
/// `examples/arch/pacq.toml` template, whose digest replaces `builtin`
/// in the architecture identity. A derivation that dropped the point's
/// width, dup or group — or the base's template — would change these
/// strings.
#[test]
fn non_default_point_cache_keys_are_pinned() {
    use pacq::cli::{load_arch_template, Knobs};
    use pacq::DseJob;
    const CFG: &str = "pacq-cache/v1;ver=0.1.0;cfg=tc8,dpu4,dpw8,dup4,ob3072x2,rf262144,\
                       l198304,dq4020000000000000,clk41b7d78400000000,dram7ff0000000000000;\
                       shape=m16n4096k4096";
    const EM: &str = "em=buf3faeb851eb851eb8,rf3fe3333333333333,\
                      l1400783ddb1a48e37,dram4049000000000000";
    use Architecture::{InputStationary, PackedK, Pacq, StandardDequant};
    use WeightPrecision::{Int2, Int4};
    let path = format!(
        "{}/../../examples/arch/pacq.toml",
        env!("CARGO_MANIFEST_DIR")
    );
    let templated = Knobs {
        metrics: None,
        cache: None,
        jobs: None,
        template: Some(load_arch_template(&path).unwrap()),
    }
    .runner()
    .unwrap();
    let bases = [
        (GemmRunner::new(), "builtin"),
        (templated, "tpl:19160e7e2afb1c15a000091acb0b6c5a"),
    ];
    for (base, source) in &bases {
        for (arch, a) in [
            (StandardDequant, "std"),
            (PackedK, "packedk"),
            (InputStationary, "is"),
            (Pacq, "pacq"),
        ] {
            for (precision, p, bits) in [(Int4, "int4", 4), (Int2, "int2", 2)] {
                let job = DseJob {
                    arch,
                    workload: Workload::new(GemmShape::new(16, 4096, 4096), precision),
                    width: 8,
                    dup: 4,
                    group: GroupShape::G32X4,
                };
                assert_eq!(
                    job.runner(base)
                        .cache_key(job.arch, job.workload)
                        .canonical(),
                    format!("{CFG};wbits={bits};flow={a}:g[32,4]:rounded;arch={source};{EM}")
                );
                assert_eq!(job.id(), format!("b16:{a}:{p}:w8:d4:g[32,4]"));
            }
        }
    }
}

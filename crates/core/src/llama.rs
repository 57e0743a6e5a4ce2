//! Llama2-7B layer shapes — the Figure 10 workload catalog.
//!
//! The paper evaluates EDP on "selected LLM inference workloads"; the
//! named example is `m16n4096k4096`, "a FFN layer in Llama2-7B with 16
//! batches". This module enumerates the GEMM shapes of one Llama2-7B
//! decoder layer (hidden 4096, intermediate 11008) at a configurable
//! batch size.

use pacq_simt::GemmShape;

/// One named GEMM layer of a transformer decoder block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlamaLayer {
    /// Human-readable layer name.
    pub name: &'static str,
    /// The GEMM shape at the requested batch.
    pub shape: GemmShape,
}

/// Llama2-7B hidden size.
pub const LLAMA2_7B_HIDDEN: usize = 4096;
/// Llama2-7B FFN intermediate size.
pub const LLAMA2_7B_INTERMEDIATE: usize = 11008;

/// The GEMM layers of one Llama2-7B decoder block at batch size `m`
/// (tokens in flight).
///
/// # Panics
///
/// Panics if `m` is not a multiple of 16 (warp-tile alignment).
///
/// # Examples
///
/// ```
/// use pacq::llama::llama2_7b_layers;
///
/// let layers = llama2_7b_layers(16);
/// assert!(layers.iter().any(|l| l.shape.to_string() == "m16n4096k4096"));
/// ```
pub fn llama2_7b_layers(m: usize) -> Vec<LlamaLayer> {
    assert!(
        m.is_multiple_of(16),
        "batch must be a multiple of 16, got {m}"
    );
    let h = LLAMA2_7B_HIDDEN;
    let i = LLAMA2_7B_INTERMEDIATE;
    vec![
        LlamaLayer {
            name: "attn.q_proj",
            shape: GemmShape::new(m, h, h),
        },
        LlamaLayer {
            name: "attn.k_proj",
            shape: GemmShape::new(m, h, h),
        },
        LlamaLayer {
            name: "attn.v_proj",
            shape: GemmShape::new(m, h, h),
        },
        LlamaLayer {
            name: "attn.o_proj",
            shape: GemmShape::new(m, h, h),
        },
        LlamaLayer {
            name: "mlp.gate_proj",
            shape: GemmShape::new(m, i, h),
        },
        LlamaLayer {
            name: "mlp.up_proj",
            shape: GemmShape::new(m, i, h),
        },
        LlamaLayer {
            name: "mlp.down_proj",
            shape: GemmShape::new(m, h, i),
        },
    ]
}

/// The Figure 10 headline workload: `m16n4096k4096`.
pub fn fig10_headline() -> GemmShape {
    GemmShape::new(16, LLAMA2_7B_HIDDEN, LLAMA2_7B_HIDDEN)
}

/// A transformer model whose decoder-block GEMMs the simulator can sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// Llama2-7B: hidden 4096, intermediate 11008, MHA.
    Llama2_7b,
    /// Llama2-13B: hidden 5120, intermediate 13824, MHA.
    Llama2_13b,
    /// Llama2-70B: hidden 8192, intermediate 28672, GQA (8 KV heads).
    Llama2_70b,
    /// OPT-6.7B: hidden 4096, FFN 16384, MHA.
    Opt6_7b,
}

impl Model {
    /// Every catalogued model.
    pub const ALL: [Model; 4] = [
        Model::Llama2_7b,
        Model::Llama2_13b,
        Model::Llama2_70b,
        Model::Opt6_7b,
    ];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Model::Llama2_7b => "Llama2-7B",
            Model::Llama2_13b => "Llama2-13B",
            Model::Llama2_70b => "Llama2-70B",
            Model::Opt6_7b => "OPT-6.7B",
        }
    }

    /// Number of decoder blocks.
    pub fn blocks(&self) -> usize {
        match self {
            Model::Llama2_7b => 32,
            Model::Llama2_13b => 40,
            Model::Llama2_70b => 80,
            Model::Opt6_7b => 32,
        }
    }

    /// The GEMM layers of one decoder block at batch `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a multiple of 16.
    pub fn layers(&self, m: usize) -> Vec<LlamaLayer> {
        assert!(
            m.is_multiple_of(16),
            "batch must be a multiple of 16, got {m}"
        );
        match self {
            Model::Llama2_7b => llama2_7b_layers(m),
            Model::Llama2_13b => gqa_layers(m, 5120, 13824, 5120),
            // 70B uses grouped-query attention: K/V project to 1024.
            Model::Llama2_70b => gqa_layers(m, 8192, 28672, 1024),
            Model::Opt6_7b => {
                let h = 4096;
                let f = 16384;
                vec![
                    LlamaLayer {
                        name: "attn.q_proj",
                        shape: GemmShape::new(m, h, h),
                    },
                    LlamaLayer {
                        name: "attn.k_proj",
                        shape: GemmShape::new(m, h, h),
                    },
                    LlamaLayer {
                        name: "attn.v_proj",
                        shape: GemmShape::new(m, h, h),
                    },
                    LlamaLayer {
                        name: "attn.out_proj",
                        shape: GemmShape::new(m, h, h),
                    },
                    LlamaLayer {
                        name: "fc1",
                        shape: GemmShape::new(m, f, h),
                    },
                    LlamaLayer {
                        name: "fc2",
                        shape: GemmShape::new(m, h, f),
                    },
                ]
            }
        }
    }

    /// Total weight count of all catalogued GEMMs (block layers × blocks).
    pub fn gemm_weights(&self) -> u64 {
        self.layers(16)
            .iter()
            .map(|l| (l.shape.n * l.shape.k) as u64)
            .sum::<u64>()
            * self.blocks() as u64
    }
}

/// Analyzes one decoder block of `model` on every architecture in
/// `arches`, fanning the `layers × arches` sweep points out across the
/// worker pool. Returns `(layer, per-arch reports)` pairs in catalog
/// order.
///
/// # Errors
///
/// Propagates the first sweep point's simulator error.
///
/// # Panics
///
/// Panics if `m` is not a multiple of 16.
pub fn analyze_block(
    runner: &crate::runner::GemmRunner,
    model: Model,
    m: usize,
    precision: pacq_fp16::WeightPrecision,
    arches: &[pacq_simt::Architecture],
) -> pacq_error::PacqResult<Vec<(LlamaLayer, Vec<crate::report::GemmReport>)>> {
    let layers = model.layers(m);
    let points: Vec<_> = layers
        .iter()
        .flat_map(|l| {
            arches
                .iter()
                .map(|&a| (a, pacq_simt::Workload::new(l.shape, precision)))
        })
        .collect();
    let reports = runner.analyze_sweep(&points)?;
    Ok(layers
        .into_iter()
        .zip(reports.chunks(arches.len().max(1)))
        .map(|(l, per_arch)| (l, per_arch.to_vec()))
        .collect())
}

fn gqa_layers(m: usize, h: usize, inter: usize, kv: usize) -> Vec<LlamaLayer> {
    vec![
        LlamaLayer {
            name: "attn.q_proj",
            shape: GemmShape::new(m, h, h),
        },
        LlamaLayer {
            name: "attn.k_proj",
            shape: GemmShape::new(m, kv, h),
        },
        LlamaLayer {
            name: "attn.v_proj",
            shape: GemmShape::new(m, kv, h),
        },
        LlamaLayer {
            name: "attn.o_proj",
            shape: GemmShape::new(m, h, h),
        },
        LlamaLayer {
            name: "mlp.gate_proj",
            shape: GemmShape::new(m, inter, h),
        },
        LlamaLayer {
            name: "mlp.up_proj",
            shape: GemmShape::new(m, inter, h),
        },
        LlamaLayer {
            name: "mlp.down_proj",
            shape: GemmShape::new(m, h, inter),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_catalog_is_complete_and_aligned() {
        let layers = llama2_7b_layers(16);
        assert_eq!(layers.len(), 7);
        for l in &layers {
            assert!(l.shape.is_tile_aligned(), "{} misaligned", l.name);
        }
        // Every layer, even at a 64 Ki-token prefill, is far inside the
        // simulator's MAC bound.
        for l in llama2_7b_layers(1 << 16) {
            let GemmShape { m, n, k } = l.shape;
            assert!(GemmShape::try_new(m, n, k).is_ok(), "{} rejected", l.name);
        }
    }

    #[test]
    fn ffn_down_uses_intermediate_k() {
        let layers = llama2_7b_layers(32);
        let down = layers
            .iter()
            .find(|l| l.name == "mlp.down_proj")
            .expect("exists");
        assert_eq!(down.shape.k, 11008);
        assert_eq!(down.shape.n, 4096);
        assert_eq!(down.shape.m, 32);
    }

    #[test]
    #[should_panic(expected = "multiple of 16")]
    fn odd_batch_rejected() {
        llama2_7b_layers(10);
    }

    #[test]
    fn model_catalog_shapes_are_aligned() {
        for model in Model::ALL {
            for l in model.layers(16) {
                assert!(l.shape.is_tile_aligned(), "{} {}", model.name(), l.name);
            }
            assert!(model.blocks() >= 32);
        }
    }

    #[test]
    fn weight_counts_scale_with_model_size() {
        // The Figure 1 motivation quotes Llama2-70B at 131.6 GB FP16;
        // our GEMM-weight catalogue should land near that (attention +
        // FFN dominate the parameter count).
        let w70 = Model::Llama2_70b.gemm_weights();
        let gb_fp16 = w70 as f64 * 2.0 / 1e9;
        assert!((100.0..140.0).contains(&gb_fp16), "70B fp16 GB = {gb_fp16}");
        assert!(Model::Llama2_70b.gemm_weights() > Model::Llama2_13b.gemm_weights());
        assert!(Model::Llama2_13b.gemm_weights() > Model::Llama2_7b.gemm_weights());
    }

    #[test]
    fn analyze_block_pairs_layers_with_reports() {
        use pacq_simt::Architecture;
        let runner = crate::runner::GemmRunner::new();
        let arches = [Architecture::StandardDequant, Architecture::Pacq];
        let rows = analyze_block(
            &runner,
            Model::Llama2_7b,
            16,
            pacq_fp16::WeightPrecision::Int4,
            &arches,
        )
        .unwrap();
        assert_eq!(rows.len(), 7);
        for (layer, reports) in &rows {
            assert_eq!(reports.len(), 2);
            for (r, arch) in reports.iter().zip(arches) {
                assert_eq!(r.arch, arch);
                assert_eq!(r.workload.shape, layer.shape);
            }
        }
    }

    #[test]
    fn gqa_shrinks_kv_projections() {
        let layers = Model::Llama2_70b.layers(16);
        let k = layers
            .iter()
            .find(|l| l.name == "attn.k_proj")
            .expect("exists");
        assert_eq!(k.shape.n, 1024);
    }
}

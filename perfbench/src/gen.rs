//! Seeded input generation. Every input a workload feeds the program is
//! a pure function of `--seed`, so two runs with one seed see the same
//! bytes and a change can be re-measured on a seed it was not tuned on.

use pacq::{Architecture, GemmShape, MatrixF32, WeightPrecision, Workload};
use pacq_quant::synth::SynthGenerator;

/// The LLaMA-2-7B decoder-layer GEMM extents `(n, k)`: the attention
/// projections, the FFN gate/up projections and the FFN down
/// projection.
pub const LLAMA2_7B_LAYERS: [(usize, usize); 3] = [(4096, 4096), (11008, 4096), (4096, 11008)];

/// The four dataflows, in the order the workloads rotate through them.
pub const DATAFLOWS: [Architecture; 4] = [
    Architecture::StandardDequant,
    Architecture::PackedK,
    Architecture::InputStationary,
    Architecture::Pacq,
];

/// SplitMix64: tiny, seedable, and stable across platforms and
/// toolchains (the inputs must not drift with a dependency's version).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// Sub-seeds for independent streams of one run, so adding a stream
/// never shifts another stream's values.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// A Zipf(`s`) sampler over ranks `0..n`: rank `r` has weight
/// `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// The probability mass of the `top` most popular ranks.
    #[cfg(test)]
    pub fn head_mass(&self, top: usize) -> f64 {
        match top {
            0 => 0.0,
            t => self.cdf[t.min(self.cdf.len()) - 1],
        }
    }
}

/// dse-llama inputs: the layer shapes in the order the ops visit them —
/// a fixed rotation whose starting layer the seed picks.
pub fn dse_rotation(seed: u64) -> Vec<(usize, usize)> {
    let start = (stream_seed(seed, 1) % 3) as usize;
    (0..3).map(|i| LLAMA2_7B_LAYERS[(start + i) % 3]).collect()
}

/// serve-hot inputs: the served point set, a seeded popularity order
/// over it, and one Zipf-distributed request stream per client.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeInputs {
    /// Every point a client may ask for.
    pub points: Vec<(Architecture, Workload)>,
    /// `by_rank[r]` is the index in `points` of the `r`-th most popular
    /// point. Fixed for the workload, so the mean work per request, the
    /// hot tier's share and the MACs per request do not move with the
    /// seed.
    pub by_rank: Vec<usize>,
    /// Per client, the point indices it requests, in order (cycled if a
    /// run outlasts the stream).
    pub streams: Vec<Vec<u16>>,
}

/// The serve-hot point set: every LLaMA-2-7B layer × dataflow × INT4/
/// INT2 × batch 16, 32, 48, 64 (96 points).
pub fn serve_points() -> Vec<(Architecture, Workload)> {
    let mut points = Vec::new();
    for &(n, k) in &LLAMA2_7B_LAYERS {
        for arch in DATAFLOWS {
            for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
                for m in (16..=64).step_by(16) {
                    points.push((arch, Workload::new(GemmShape::new(m, n, k), precision)));
                }
            }
        }
    }
    points
}

const POPULARITY_SEED: u64 = 0x5EED_0F7B;

/// Zipf exponent of point popularity.
const ZIPF_S: f64 = 1.0;

pub fn serve_inputs(seed: u64, clients: usize, per_client: usize) -> ServeInputs {
    let points = serve_points();
    // A fixed Fisher-Yates shuffle spreads popularity over layers,
    // dataflows and precisions; the seed drives only the request order.
    let mut by_rank: Vec<usize> = (0..points.len()).collect();
    let mut rng = SplitMix64::new(POPULARITY_SEED);
    for i in (1..by_rank.len()).rev() {
        by_rank.swap(i, rng.below(i + 1));
    }
    let zipf = Zipf::new(points.len(), ZIPF_S);
    let streams = (0..clients)
        .map(|c| {
            let mut rng = SplitMix64::new(stream_seed(seed, 100 + c as u64));
            (0..per_client)
                .map(|_| by_rank[zipf.sample(&mut rng)] as u16)
                .collect()
        })
        .collect();
    ServeInputs {
        points,
        by_rank,
        streams,
    }
}

/// exec-decode inputs: FP32 weights `[k, n]`, FP32 activations `[m, k]`
/// (converted to FP16 by the caller, as the program would be handed
/// them) and the dataflow the first op uses.
pub struct ExecInputs {
    pub weights: MatrixF32,
    pub activations: MatrixF32,
    pub first_dataflow: usize,
}

pub fn exec_inputs(seed: u64, m: usize, n: usize, k: usize) -> ExecInputs {
    let mut g = SynthGenerator::new(stream_seed(seed, 3));
    let weights = g.llm_weights(k, n);
    let activations = g.llm_activations(m, k);
    ExecInputs {
        weights,
        activations,
        first_dataflow: (stream_seed(seed, 4) % DATAFLOWS.len() as u64) as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix_bytes(m: &MatrixF32) -> Vec<u8> {
        m.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn exec_bytes(seed: u64) -> Vec<u8> {
        let e = exec_inputs(seed, 16, 32, 256);
        let mut bytes = matrix_bytes(&e.weights);
        bytes.extend(matrix_bytes(&e.activations));
        bytes.push(e.first_dataflow as u8);
        bytes
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for seed in [0, 1, 7, u64::MAX] {
            assert_eq!(dse_rotation(seed), dse_rotation(seed));
            assert_eq!(serve_inputs(seed, 2, 4096), serve_inputs(seed, 2, 4096));
            assert_eq!(exec_bytes(seed), exec_bytes(seed));
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(serve_inputs(1, 2, 4096), serve_inputs(2, 2, 4096));
        assert_ne!(exec_bytes(1), exec_bytes(2));
        let starts: std::collections::BTreeSet<_> = (0..32).map(|s| dse_rotation(s)[0]).collect();
        assert_eq!(starts.len(), 3, "every layer starts some rotation");
    }

    #[test]
    fn serve_streams_are_skewed_and_in_range() {
        let inputs = serve_inputs(9, 2, 20_000);
        assert_eq!(inputs.points.len(), 96);
        let mut seen = inputs.by_rank.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..96).collect::<Vec<_>>());
        let hottest = inputs.by_rank[0] as u16;
        let coldest = inputs.by_rank[95] as u16;
        let count = |p: u16| inputs.streams[0].iter().filter(|&&x| x == p).count();
        assert!(count(hottest) > 20 * count(coldest).max(1));
        assert!(inputs.streams.iter().flatten().all(|&p| (p as usize) < 96));
    }

    #[test]
    fn zipf_head_mass_matches_its_samples() {
        let zipf = Zipf::new(96, 1.0);
        let mut rng = SplitMix64::new(5);
        let hits = (0..100_000).filter(|_| zipf.sample(&mut rng) < 32).count();
        let expected = zipf.head_mass(32);
        assert!((hits as f64 / 100_000.0 - expected).abs() < 0.01);
        assert_eq!(zipf.head_mass(0), 0.0);
        assert!((zipf.head_mass(96) - 1.0).abs() < 1e-12);
    }
}

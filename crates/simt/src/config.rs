//! Machine configuration: the Volta-like streaming multiprocessor of
//! Table I.

use pacq_error::{PacqError, PacqResult};
use pacq_fp16::WeightPrecision;

/// Architecture variant under simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Standard dequantization-based W16A16 flow (Figure 1(a)): packed INT
    /// weights are unpacked + dequantized to FP16 by the general core at
    /// the L1 boundary, then a plain FP16 GEMM runs on baseline tensor
    /// cores with weight-stationary tile movement.
    StandardDequant,
    /// Hyper-asymmetric GEMM with weights packed along k (`P(B_x)_k`):
    /// packed words travel into the tensor core, but k-alignment forces
    /// extra A fetches and operand-buffer evictions (Figure 4(a)–(b));
    /// weights are processed sequentially.
    PackedK,
    /// PacQ: weights packed along n (`P(B_x)_n`), output-stationary tile
    /// movement and compute, parallel FP-INT multipliers, Σ A accumulators
    /// with the Eq. (1) fixup in the general core.
    Pacq,
    /// Input-stationary hyper-asymmetric GEMM (`P(B_x)_k` packing with the
    /// activation tile held): A stays resident in the tensor-core operand
    /// buffers across the n loop, so each activation element is fetched
    /// from the RF exactly once — the dual of the `P(B_x)_k` A-refetch
    /// pathology — while packed-B words and C partial sums stream.
    InputStationary,
}

impl Architecture {
    /// Every architecture, in stationarity order: the two
    /// weight-stationary flows, input-stationary, then output-stationary
    /// PacQ.
    pub const ALL: [Architecture; 4] = [
        Architecture::StandardDequant,
        Architecture::PackedK,
        Architecture::InputStationary,
        Architecture::Pacq,
    ];

    /// The one token table: the canonical token first (the wire form in
    /// cache keys, entries, dse job ids and serve frames), then the
    /// aliases `--arch` also accepts.
    pub const fn tokens(self) -> &'static [&'static str] {
        match self {
            Architecture::StandardDequant => &["std", "standard", "dequant"],
            Architecture::PackedK => &["packedk", "packed-k", "pbk"],
            Architecture::Pacq => &["pacq"],
            Architecture::InputStationary => &["is", "input-stationary"],
        }
    }

    /// The canonical token (`std` / `packedk` / `pacq` / `is`).
    pub const fn token(self) -> &'static str {
        self.tokens()[0]
    }

    /// Parses any token of [`Architecture::tokens`], exactly (callers
    /// diagnose).
    pub fn parse(token: &str) -> Option<Architecture> {
        Architecture::ALL
            .into_iter()
            .find(|a| a.tokens().contains(&token))
    }
}

impl core::fmt::Display for Architecture {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Architecture::StandardDequant => f.write_str("Standard (dequant W16A16)"),
            Architecture::PackedK => f.write_str("P(B_x)_k hyper-asymmetric"),
            Architecture::Pacq => f.write_str("PacQ P(B_x)_n"),
            Architecture::InputStationary => f.write_str("Input-stationary P(B_x)_k"),
        }
    }
}

/// Streaming-multiprocessor configuration (Table I, bottom rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmConfig {
    /// Tensor cores per SM (Table I: 8).
    pub tensor_cores: usize,
    /// DP-4 units per tensor core (Table I: 4).
    pub dp_units_per_tc: usize,
    /// Dot-product unit width (4; Figure 12(a) studies 8 and 16).
    pub dp_width: usize,
    /// Adder-tree duplication in the PacQ DP units (2; Figure 11 ablation).
    pub adder_tree_duplication: usize,
    /// Operand buffer size in bits (Table I: 2 × 3072-bit).
    pub operand_buffer_bits: u64,
    /// Number of operand buffers per tensor core.
    pub operand_buffers: usize,
    /// Register file capacity in bytes (Table I: 256 KB).
    pub register_file_bytes: u64,
    /// Shared L1 capacity in bytes (Table I: 96 KB).
    pub l1_bytes: u64,
    /// General-core unpack+dequantize throughput in weights per SM cycle
    /// (StandardDequant only). Sets the dequantization overhead the paper
    /// attributes to the standard flow (§I challenge (2)). The default (8)
    /// equals the tensor cores' k-consumption rate at batch 16, matching
    /// the near-100% dequantization overhead measured for weight-only
    /// quantized kernels at small batch (AWQ, the paper’s ref. 10); at larger batches the
    /// overhead amortizes away, as on real GPUs.
    pub dequant_weights_per_cycle: f64,
    /// Clock frequency (400 MHz synthesis point).
    pub clock_hz: f64,
    /// DRAM bandwidth available to the SM in bytes per cycle, the
    /// roofline memory floor of the timing model. `f64::INFINITY`
    /// (the default) disables the floor — the paper's simulator tracks
    /// kernel cycles with operands staged on chip. Set it to a real
    /// figure (Volta-class: ~900 GB/s over 80 SMs ≈ 8 B/cycle/SM) for
    /// end-to-end studies; see `SmConfig::with_dram_bound`.
    pub dram_bytes_per_cycle: f64,
}

impl SmConfig {
    /// The Volta-like configuration of Table I.
    pub fn volta_like() -> Self {
        SmConfig {
            tensor_cores: 8,
            dp_units_per_tc: 4,
            dp_width: 4,
            adder_tree_duplication: 2,
            operand_buffer_bits: 3072,
            operand_buffers: 2,
            register_file_bytes: 256 * 1024,
            l1_bytes: 96 * 1024,
            dequant_weights_per_cycle: 8.0,
            clock_hz: 400.0e6,
            dram_bytes_per_cycle: f64::INFINITY,
        }
    }

    /// Enables the DRAM-bandwidth roofline floor at `bytes_per_cycle`.
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::InvalidInput`] if `bytes_per_cycle` is not
    /// positive (NaN included).
    pub fn with_dram_bound(mut self, bytes_per_cycle: f64) -> PacqResult<Self> {
        if bytes_per_cycle <= 0.0 || bytes_per_cycle.is_nan() {
            return Err(PacqError::invalid_input(
                "SmConfig::with_dram_bound",
                format!("bandwidth must be positive, got {bytes_per_cycle}"),
            ));
        }
        self.dram_bytes_per_cycle = bytes_per_cycle;
        Ok(self)
    }

    /// Validates the configuration against the datapath's documented
    /// domains — called by the dataflow engines before simulating so a
    /// hand-built config cannot divide by zero mid-walk.
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::InvalidInput`] naming the offending field.
    pub fn validate(&self) -> PacqResult<()> {
        if !matches!(self.dp_width, 4 | 8 | 16) {
            return Err(PacqError::invalid_input(
                "SmConfig",
                format!("dp_width must be 4, 8 or 16, got {}", self.dp_width),
            ));
        }
        if !matches!(self.adder_tree_duplication, 1 | 2 | 4) {
            return Err(PacqError::invalid_input(
                "SmConfig",
                format!(
                    "adder_tree_duplication must be 1, 2 or 4, got {}",
                    self.adder_tree_duplication
                ),
            ));
        }
        if self.tensor_cores == 0 || self.dp_units_per_tc == 0 {
            return Err(PacqError::invalid_input(
                "SmConfig",
                format!(
                    "tensor_cores ({}) and dp_units_per_tc ({}) must be non-zero",
                    self.tensor_cores, self.dp_units_per_tc
                ),
            ));
        }
        // NaN must fail too, so compare against the accepting range.
        if self.dequant_weights_per_cycle <= 0.0 || self.dequant_weights_per_cycle.is_nan() {
            return Err(PacqError::invalid_input(
                "SmConfig",
                format!(
                    "dequant_weights_per_cycle must be positive, got {}",
                    self.dequant_weights_per_cycle
                ),
            ));
        }
        Ok(())
    }

    /// Octets per warp (Figure 3(b)).
    pub const fn octets_per_warp(&self) -> usize {
        4
    }

    /// DP units serving one octet (Figure 3(d): two DP-4 per octet).
    pub const fn dp_units_per_octet(&self) -> usize {
        2
    }

    /// Tensor cores occupied by one warp: 4 octets × 2 DP-4 over
    /// `dp_units_per_tc`-wide tensor cores.
    pub fn tensor_cores_per_warp(&self) -> usize {
        (self.octets_per_warp() * self.dp_units_per_octet()).div_ceil(self.dp_units_per_tc)
    }

    /// Warps resident on the SM's tensor cores at once.
    pub fn concurrent_warps(&self) -> usize {
        (self.tensor_cores / self.tensor_cores_per_warp()).max(1)
    }

    /// Peak FP16 MAC throughput per SM cycle on the baseline units.
    pub fn baseline_macs_per_cycle(&self) -> f64 {
        (self.tensor_cores * self.dp_units_per_tc * self.dp_width) as f64
    }
}

impl Default for SmConfig {
    fn default() -> Self {
        Self::volta_like()
    }
}

/// The most units any one counter of [`crate::simulate`] charges per MAC
/// of the tile-padded shape. The largest counter is `P(B_x)_k`'s
/// register-file bits at DP-4 with INT4 weights: 23.5 per MAC (16 A bits,
/// since every packed word re-fetches the aligned A sub-tile, plus C and
/// B bits). Rounded up to a power of two; the dataflow test
/// `no_counter_exceeds_the_per_mac_bound` pins it.
pub const MAX_COUNTER_PER_MAC: u64 = 32;

/// The most MACs a [`GemmShape`] may hold once padded to the warp-tile
/// grid, 2⁵⁹ − 1: at [`MAX_COUNTER_PER_MAC`] units per MAC, no u64
/// counter of [`crate::simulate`] can wrap. `m16n16k1073741824` holds 2³⁸
/// MACs and the largest LLaMA-2-7B layer at batch 512 about 2³⁴.
pub const MAX_MACS: u64 = u64::MAX / MAX_COUNTER_PER_MAC;

/// The GEMM shape `C[m,n] = A[m,k] × B[k,n]` in the paper's `mXnYkZ`
/// notation (`m16n4096k4096` is a Llama2-7B FFN layer at batch 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Batch/output rows.
    pub m: usize,
    /// Output features.
    pub n: usize,
    /// Input features.
    pub k: usize,
}

impl GemmShape {
    /// Creates a shape.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero. Intended for literal shapes in
    /// code; use [`GemmShape::try_new`] for untrusted input.
    pub fn new(m: usize, n: usize, k: usize) -> Self {
        assert!(m > 0 && n > 0 && k > 0, "GEMM extents must be non-zero");
        GemmShape { m, n, k }
    }

    /// Creates a shape from untrusted extents, rejecting with a typed
    /// error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`PacqError::ZeroDim`] for a zero extent and
    /// [`PacqError::ShapeTooLarge`] when the tile-padded shape holds more
    /// than [`MAX_MACS`] MACs.
    pub fn try_new(m: usize, n: usize, k: usize) -> PacqResult<Self> {
        const CONTEXT: &str = "GemmShape::try_new";
        if m == 0 || n == 0 || k == 0 {
            return Err(PacqError::ZeroDim { context: CONTEXT });
        }
        let padded = |e: usize| e.div_ceil(16) as u128 * 16;
        let macs = padded(m)
            .checked_mul(padded(n))
            .and_then(|mn| mn.checked_mul(padded(k)));
        if macs.is_none_or(|macs| macs > u128::from(MAX_MACS)) {
            return Err(PacqError::ShapeTooLarge {
                context: CONTEXT,
                extents: (m, n, k),
                max: MAX_MACS,
            });
        }
        Ok(GemmShape { m, n, k })
    }

    /// The Figure 7 unit workload.
    pub const M16N16K16: GemmShape = GemmShape {
        m: 16,
        n: 16,
        k: 16,
    };

    /// Total multiply-accumulates.
    pub fn macs(&self) -> u64 {
        self.m as u64 * self.n as u64 * self.k as u64
    }

    /// Warp-level `mma.m16n16k16` instruction count (Figure 3(a)).
    pub fn warp_tiles(&self) -> u64 {
        (self.m.div_ceil(16) * self.n.div_ceil(16) * self.k.div_ceil(16)) as u64
    }

    /// `true` when every extent is 16-aligned (the engines assume this,
    /// like the paper's workloads).
    pub fn is_tile_aligned(&self) -> bool {
        self.m.is_multiple_of(16) && self.n.is_multiple_of(16) && self.k.is_multiple_of(16)
    }

    /// The shape rounded up to the warp-tile grid: every extent padded to
    /// the next multiple of 16. Ragged GEMMs execute as if zero-padded
    /// onto full `mma.m16n16k16` tiles — the hardware has no partial-tile
    /// path, so a ragged edge costs a full tile of movement and compute.
    /// Identity for tile-aligned shapes.
    pub fn padded_to_tiles(&self) -> GemmShape {
        GemmShape {
            m: self.m.next_multiple_of(16),
            n: self.n.next_multiple_of(16),
            k: self.k.next_multiple_of(16),
        }
    }
}

impl core::fmt::Display for GemmShape {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "m{}n{}k{}", self.m, self.n, self.k)
    }
}

/// Workload: a GEMM shape plus the weight precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Workload {
    /// The GEMM shape.
    pub shape: GemmShape,
    /// Weight precision (activations are always FP16).
    pub precision: WeightPrecision,
}

impl Workload {
    /// Creates a workload.
    pub fn new(shape: GemmShape, precision: WeightPrecision) -> Self {
        Workload { shape, precision }
    }
}

impl core::fmt::Display for Workload {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} {}", self.shape, self.precision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volta_like_matches_table_i() {
        let c = SmConfig::volta_like();
        assert_eq!(c.tensor_cores, 8);
        assert_eq!(c.dp_units_per_tc, 4);
        assert_eq!(c.register_file_bytes, 256 * 1024);
        assert_eq!(c.l1_bytes, 96 * 1024);
        assert_eq!(c.operand_buffer_bits, 3072);
        assert_eq!(c.operand_buffers, 2);
        assert_eq!(c.tensor_cores_per_warp(), 2);
        assert_eq!(c.concurrent_warps(), 4);
        assert_eq!(c.baseline_macs_per_cycle(), 128.0);
    }

    #[test]
    fn shape_arithmetic() {
        let s = GemmShape::new(16, 4096, 4096);
        assert_eq!(s.macs(), 16 * 4096 * 4096);
        assert_eq!(s.warp_tiles(), 256 * 256);
        assert!(s.is_tile_aligned());
        assert_eq!(s.to_string(), "m16n4096k4096");
        assert!(!GemmShape::new(8, 16, 16).is_tile_aligned());
    }

    #[test]
    fn padding_rounds_each_extent_up_to_the_tile_grid() {
        let ragged = GemmShape::new(3, 40, 17);
        let padded = ragged.padded_to_tiles();
        assert_eq!(padded, GemmShape::new(16, 48, 32));
        assert!(padded.is_tile_aligned());
        // Padding is idempotent and warp-tile counts agree before/after.
        assert_eq!(padded.padded_to_tiles(), padded);
        assert_eq!(ragged.warp_tiles(), padded.warp_tiles());
        let aligned = GemmShape::new(16, 4096, 4096);
        assert_eq!(aligned.padded_to_tiles(), aligned);
    }

    #[test]
    fn try_new_bounds_the_padded_mac_count() {
        let too_large = |m, n, k| {
            let err = GemmShape::try_new(m, n, k).unwrap_err();
            assert!(matches!(err, PacqError::ShapeTooLarge { .. }), "{err}");
            assert_eq!(err.exit_code(), 3, "{err}");
        };
        assert!(GemmShape::try_new(16, 16, 1 << 30).is_ok());
        // n = k = 16 leaves 2⁵⁹ / 256 = 2⁵¹ MACs' worth of rows: the last
        // tile row below it fits, the first one at it does not.
        let edge = (1usize << 51) - 16;
        assert_eq!(
            GemmShape::try_new(edge, 16, 16)
                .unwrap()
                .padded_to_tiles()
                .macs(),
            MAX_MACS - 4095
        );
        too_large(1 << 51, 16, 16);
        // Padding counts: one ragged row past the edge pads into the next tile.
        too_large(edge + 1, 16, 16);
        too_large(1 << 62, 16, 16);
        too_large(usize::MAX, usize::MAX, usize::MAX);
        assert!(matches!(
            GemmShape::try_new(0, usize::MAX, 16),
            Err(PacqError::ZeroDim { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_extent_rejected() {
        GemmShape::new(0, 16, 16);
    }
}

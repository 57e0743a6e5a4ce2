//! The three dataflow engines: analytic octet-level simulation of the
//! Figure 3 pipeline for each architecture.
//!
//! A GEMM is tiled into warp-level `mma.m16n16k16` instructions
//! (Figure 3(a)), each split across 4 octets owning an 8(m)×8(n) output
//! chunk over k=16 (Figure 3(b)), iterated in 4(m)×4(n)×w(k) compute
//! tiles where `w` is the DP width (Figure 3(c)–(d)). The engines count,
//! per octet per warp tile, every operand movement between the register
//! file and the tensor-core buffers, every fetch instruction, buffer
//! eviction and compute cycle — the quantities behind Figures 7 and 10.
//!
//! The per-step loops are folded analytically (each step contributes a
//! constant), which keeps `m16n4096k4096`-scale simulations instant while
//! remaining auditable: every constant is derived in comments from the
//! Figure 3/4 tile walk.

use crate::config::{Architecture, GemmShape, SmConfig, Workload};
use crate::stats::{GemmStats, GeneralCoreOps, RfTraffic};
use pacq_error::PacqResult;
use pacq_fp16::WeightPrecision;
use pacq_quant::GroupShape;

/// Octet geometry constants of Figure 3.
const OCTET_M: u64 = 8;
const OCTET_N: u64 = 8;
const WARP_K: u64 = 16;
const TILE_M: u64 = 4;
const TILE_N: u64 = 4;

/// Simulates one GEMM on the given architecture and returns its
/// statistics.
///
/// `group` is the quantization-group geometry (it determines how many
/// scale fetches and Eq. (1) fixup segments the general core performs;
/// irrelevant counts are zero for the flows that do not use it).
///
/// Ragged shapes (extents not multiples of 16) execute zero-padded onto
/// the warp-tile grid via [`GemmShape::padded_to_tiles`]: the hardware
/// has no partial-tile path, so a ragged edge costs a full tile of
/// movement and compute. Every counter returned reflects the padded
/// extents — `simulate(m3n40k17) == simulate(m16n48k32)` exactly, an
/// invariant `pacq audit` checks.
///
/// # Errors
///
/// Returns [`PacqError::InvalidInput`](pacq_error::PacqError::InvalidInput) if the [`SmConfig`] fails
/// [`SmConfig::validate`].
pub fn simulate(
    arch: Architecture,
    workload: Workload,
    config: &SmConfig,
    group: GroupShape,
) -> PacqResult<GemmStats> {
    let _span = pacq_trace::span("simt.simulate");
    let shape = workload.shape.padded_to_tiles();
    config.validate()?;
    pacq_trace::add_counter("simt.simulate.calls", 1);
    let precision = workload.precision;

    let per_octet = match arch {
        Architecture::StandardDequant => octet_standard(config),
        Architecture::PackedK => octet_packed_k(config, precision),
        Architecture::Pacq => octet_pacq(config, precision),
        Architecture::InputStationary => octet_is(config, precision),
    };

    let warp_tiles = shape.warp_tiles();
    let octets = warp_tiles * 4;

    // --- register-file traffic: octet counts × octet instances ---------
    let mut stats = GemmStats {
        rf: RfTraffic {
            a_reads: per_octet.rf.a_reads * octets,
            b_reads: per_octet.rf.b_reads * octets,
            c_reads: per_octet.rf.c_reads * octets,
            c_writes: per_octet.rf.c_writes * octets,
            a_bits: per_octet.rf.a_bits * octets,
            b_bits: per_octet.rf.b_bits * octets,
            c_bits: per_octet.rf.c_bits * octets,
        },
        buffer_fills: per_octet.buffer_fills * octets,
        buffer_evictions: per_octet.buffer_evictions * octets,
        fetch_instructions: per_octet.fetch_instructions * octets,
        ..GemmStats::default()
    };

    // --- memory hierarchy traffic --------------------------------------
    let (m, n, k) = (shape.m as u64, shape.n as u64, shape.k as u64);
    let wbits = precision.bits() as u64;
    let n_tiles = n.div_ceil(16);
    let m_tiles = m.div_ceil(16);

    // DRAM: every operand streamed once; weights are stored packed in
    // DRAM for ALL flows (Figure 1(a) keeps DRAM packed even for the
    // dequantization baseline). Post-padding n·k is a multiple of 256 and
    // lanes divides 16, so the packed-word division is exact; div_ceil
    // keeps it honest if the padding invariant ever moves.
    stats.dram.reads = m * k + (n * k).div_ceil(precision.lanes() as u64);
    stats.dram.read_bits = m * k * 16 + n * k * wbits;
    stats.dram.writes = m * n;
    stats.dram.write_bits = m * n * 16;

    // L1 fills mirror DRAM reads.
    stats.l1.writes = stats.dram.reads;
    stats.l1.write_bits = stats.dram.read_bits;

    // L1 → RF: A re-read once per warp-tile column; B re-read once per
    // warp-tile row.
    let a_l1_reads = m * k * n_tiles;
    let a_l1_bits = a_l1_reads * 16;
    let (b_l1_reads, b_l1_bits, l1_dequant_writes, l1_dequant_write_bits) = match arch {
        Architecture::StandardDequant => {
            // The general core reads packed words once, writes dequantized
            // FP16 weights back to L1, and the RF then loads FP16.
            let packed_reads = (n * k).div_ceil(precision.lanes() as u64);
            let fp16_reads = n * k * m_tiles;
            (
                packed_reads + fp16_reads,
                packed_reads * 16 + fp16_reads * 16,
                n * k,
                n * k * 16,
            )
        }
        Architecture::PackedK | Architecture::Pacq | Architecture::InputStationary => {
            let words = (n * k).div_ceil(precision.lanes() as u64) * m_tiles;
            (words, words * 16, 0, 0)
        }
    };
    stats.l1.reads += a_l1_reads + b_l1_reads;
    stats.l1.read_bits += a_l1_bits + b_l1_bits;
    stats.l1.writes += l1_dequant_writes;
    stats.l1.write_bits += l1_dequant_write_bits;

    // PackedK with INT2: the A-eviction pathology escalates past the
    // register file (§III: "this issue can even escalate beyond the
    // register file level to the L1 cache") — half the A re-fetches miss
    // the RF-resident set.
    if arch == Architecture::PackedK && precision == WeightPrecision::Int2 {
        let extra = stats.rf.a_reads / 2;
        stats.l1.reads += extra;
        stats.l1.read_bits += extra * 16;
    }

    // --- general-core operations ----------------------------------------
    stats.ops = general_core_ops(arch, shape, precision, group);

    // --- timing ----------------------------------------------------------
    let per_warp_cycles = per_octet.compute_cycles + PIPELINE_TAIL;
    let waves = warp_tiles.div_ceil(config.concurrent_warps() as u64);
    stats.tc_cycles = waves * per_warp_cycles;

    match arch {
        Architecture::StandardDequant => {
            // Unpack+dequant is a non-overlapped general-core phase
            // (§I challenge (2): "significant latency and computational
            // overhead").
            stats.general_cycles =
                (stats.ops.dequant_ops as f64 / config.dequant_weights_per_cycle).ceil() as u64;
            stats.total_cycles = stats.tc_cycles + stats.general_cycles;
        }
        Architecture::PackedK | Architecture::InputStationary => {
            // Inline conversion overlaps the tensor-core pipeline.
            stats.general_cycles = 0;
            stats.total_cycles = stats.tc_cycles;
        }
        Architecture::Pacq => {
            // Fixup + scaling stream behind the tensor cores (Figure 6);
            // they only lengthen the run if they out-pace the TCs.
            let epilogue_rate = 32.0; // fixups per SM cycle
            stats.general_cycles = (stats.ops.offset_fixups as f64 / epilogue_rate).ceil() as u64;
            stats.total_cycles = stats.tc_cycles.max(stats.general_cycles) + EPILOGUE_TAIL;
        }
    }

    // Optional roofline memory floor: no flow finishes before its DRAM
    // traffic has streamed (compute and transfer overlapping fully in
    // the best case). Disabled by default — the paper's simulator tracks
    // kernel cycles with operands staged on chip.
    if config.dram_bytes_per_cycle.is_finite() {
        let dram_floor = ((stats.dram.read_bits + stats.dram.write_bits) as f64
            / 8.0
            / config.dram_bytes_per_cycle)
            .ceil() as u64;
        stats.total_cycles = stats.total_cycles.max(dram_floor);
    }

    Ok(stats)
}

/// Pipeline fill/drain tail per warp tile (multiply + tree + accumulate).
const PIPELINE_TAIL: u64 = 3;
/// General-core epilogue tail for the PacQ fixup path.
const EPILOGUE_TAIL: u64 = 2;

/// Per-octet per-warp-tile contribution.
#[derive(Debug, Clone, Copy, Default)]
struct OctetCounts {
    rf: RfTraffic,
    buffer_fills: u64,
    buffer_evictions: u64,
    fetch_instructions: u64,
    compute_cycles: u64,
}

/// Standard dequantization flow: FP16 operands, weight-stationary tile
/// movement (Figure 3(c) left), output-stationary compute.
fn octet_standard(config: &SmConfig) -> OctetCounts {
    let w = config.dp_width as u64; // k-extent of one compute step
    let mt = OCTET_M / TILE_M; // 2
    let nt = OCTET_N / TILE_N; // 2
    let kt = WARP_K / w; // 4 at DP-4
    let steps = mt * nt * kt;

    // Movement nt { kt { mt } }: B tile fetched once per (nt,kt) and held
    // across mt; A re-fetched every step; C read+written every step except
    // the first k-slice of each output tile (no read) — partial sums
    // cannot stay resident because mt cycles under the held B.
    let a_reads = steps * TILE_M * w;
    let b_reads = nt * kt * w * TILE_N; // each B element exactly once
    let c_writes = steps * TILE_M * TILE_N;
    let c_reads = c_writes - mt * nt * TILE_M * TILE_N; // first slice free

    // Fetch instructions fold the explicit schedule of
    // `pipeline::octet_schedule`: 2 A fetches every step (two
    // thread-group buffers, Figure 3(d)), one B fetch per (nt, kt) held
    // across the m loop, a C read on every step past each output tile's
    // first k-slice, and a C write every step. A and B fetches fill an
    // operand buffer; C moves go straight to the accumulators.
    let a_fetches = steps * 2;
    let b_fetches = nt * kt;
    let c_read_fetches = steps - mt * nt;
    let fetch_instructions = a_fetches + b_fetches + c_read_fetches + steps;
    let buffer_fills = a_fetches + b_fetches;

    // Per step: 4×4 outputs, each one w-element dot product; 2 DP units
    // per octet at issue interval 1 → 8 cycles.
    let dots_per_step = TILE_M * TILE_N;
    let compute_cycles = steps * dots_per_step / config.dp_units_per_octet() as u64;

    OctetCounts {
        rf: RfTraffic {
            a_reads,
            b_reads,
            c_reads,
            c_writes,
            a_bits: a_reads * 16,
            b_bits: b_reads * 16,
            c_bits: (c_reads + c_writes) * 16,
        },
        buffer_fills,
        buffer_evictions: 0,
        fetch_instructions,
        compute_cycles,
    }
}

/// `P(B_x)_k`: packed words enter the tensor core, but every packed word
/// forces `x` aligned A fetches (Figure 4(a)) and evicts the A buffer
/// before reuse (Figure 4(b)).
fn octet_packed_k(config: &SmConfig, precision: WeightPrecision) -> OctetCounts {
    let w = config.dp_width as u64;
    let lanes = precision.lanes() as u64;
    let mt = OCTET_M / TILE_M;
    let nt = OCTET_N / TILE_N;
    let kt = WARP_K / w;
    let steps = mt * nt * kt;

    // Each packed word covers `lanes` k-values in ONE output column, so a
    // compute step over a w(k)×4(n) weight tile touches
    // `4 × max(1, w/lanes)` word-fragments; every word is read from the RF
    // once (weight-stationary movement reuses it across mt).
    let words_in_region = OCTET_N * WARP_K / lanes;
    let b_reads = words_in_region;

    // The A pathology: for every output column of every step, the aligned
    // A sub-tile (4m × w k) is re-fetched because the previous column's
    // processing evicted it — no reuse of A across the packed words.
    let a_reads = steps * TILE_N * TILE_M * w;

    // C: same weight-stationary movement as the standard flow.
    let c_writes = steps * TILE_M * TILE_N;
    let c_reads = c_writes - mt * nt * TILE_M * TILE_N;

    // Figure 4(a): `lanes` distinct aligned A fetch instructions per
    // output column on every step (the previous column's processing
    // evicted the sub-tile, so none are elided). B words are fetched
    // once per (nt, kt) and held across the m loop; C movement mirrors
    // the standard flow. Each A and B fetch fills an operand buffer —
    // the refilled A buffer is the Figure 4(b) pathology itself.
    let a_fetches = steps * TILE_N * lanes.min(w);
    let b_fetches = nt * kt;
    let c_read_fetches = steps - mt * nt;
    let fetch_instructions = a_fetches + b_fetches + c_read_fetches + steps;
    let buffer_fills = a_fetches + b_fetches;
    let buffer_evictions = steps * TILE_N; // A evicted per column

    // Sequential weight processing: same dot count as the baseline.
    let dots_per_step = TILE_M * TILE_N;
    let compute_cycles = steps * dots_per_step / config.dp_units_per_octet() as u64;

    OctetCounts {
        rf: RfTraffic {
            a_reads,
            b_reads,
            c_reads,
            c_writes,
            a_bits: a_reads * 16,
            b_bits: b_reads * 16,
            c_bits: (c_reads + c_writes) * 16,
        },
        buffer_fills,
        buffer_evictions,
        fetch_instructions,
        compute_cycles,
    }
}

/// PacQ `P(B_x)_n`: output-stationary movement and compute; A fetched once
/// per (m, k) step and reused across all packed lanes; C lives in the
/// accumulators; Σ A tracked in the side accumulators.
fn octet_pacq(config: &SmConfig, precision: WeightPrecision) -> OctetCounts {
    let w = config.dp_width as u64;
    let lanes = precision.lanes() as u64;
    let dup = config.adder_tree_duplication as u64;
    let mt = OCTET_M / TILE_M;
    // One packed word spans `lanes` output columns; the octet's 8 columns
    // form max(1, 8/lanes) word-columns.
    let word_cols = (OCTET_N / lanes).max(1);
    let kt = WARP_K / w;
    let steps = mt * word_cols * kt;

    // Output-stationary: A fetched once per step (4m × w k), fully reused
    // across the packed lanes inside the parallel multipliers; B words
    // streamed once per step; C written once when a tile retires.
    let a_reads = steps * TILE_M * w;
    let b_reads = steps * w; // one packed word per k-value of the step
    let c_writes = mt * word_cols * TILE_M * lanes.min(OCTET_N);
    let c_reads = 0;

    // Per step: 2 A fetch instructions + 1 packed-B fetch.
    let fetch_instructions = steps * 3 + mt * word_cols; // + C writeback
    let buffer_fills = steps * 3;

    // Per step: each m row issues once into a DP unit (w activations ×
    // w packed words → `lanes` partial dot products); the duplicated
    // adder trees retire `dup` lanes per cycle → issue interval
    // lanes/dup; 4 rows over 2 DP units → 2 sequential issues.
    let issue_interval = lanes.div_ceil(dup).max(1);
    let issues_per_step = TILE_M / config.dp_units_per_octet() as u64;
    let compute_cycles = steps * issues_per_step * issue_interval;

    OctetCounts {
        rf: RfTraffic {
            a_reads,
            b_reads,
            c_reads,
            c_writes,
            a_bits: a_reads * 16,
            b_bits: b_reads * 16,
            c_bits: (c_reads + c_writes) * 16,
        },
        buffer_fills,
        buffer_evictions: 0,
        fetch_instructions,
        compute_cycles,
    }
}

/// Input-stationary `P(B_x)_k`: the activation tile is the held operand.
/// The Figure 3 walk is re-ordered with the m/k loops hoisted outside n —
/// the mirror image of the standard flow's `nt { kt { mt } }` — so the A
/// sub-tile loaded for a (mt, kt) coordinate stays resident in the operand
/// buffers while all n columns consume it, and packed-B words plus C
/// partial sums stream instead.
fn octet_is(config: &SmConfig, precision: WeightPrecision) -> OctetCounts {
    let w = config.dp_width as u64;
    let lanes = precision.lanes() as u64;
    let mt = OCTET_M / TILE_M; // 2
    let nt = OCTET_N / TILE_N; // 2
    let kt = WARP_K / w; // 4 at DP-4
    let steps = mt * nt * kt;

    // Movement mt { kt { nt } }: the A tile (4m × w k) is fetched once per
    // (mt, kt) and held across nt, so each of the octet's 8×16 activation
    // elements crosses the RF boundary exactly once — the property the
    // `P(B_x)_k` eviction pathology destroys (Figure 4(b)).
    let a_reads = mt * kt * TILE_M * w;

    // B streams: each step consumes a w(k)×4(n) weight region as packed
    // words. One word covers `lanes` k-values of one output column, so a
    // column needs max(1, w/lanes) word reads per step; nothing is held
    // across the m loop (the buffers belong to A), so the region is
    // re-streamed for every mt — the B-traffic price of holding A.
    let b_reads = steps * TILE_N * w.div_ceil(lanes);

    // C streams exactly as in the weight-stationary flows: with k outside
    // the innermost loop, an output tile's partial sums cannot stay in the
    // accumulators between k-slices — written every step, read back on
    // every step past each tile's first k-slice.
    let c_writes = steps * TILE_M * TILE_N;
    let c_reads = c_writes - mt * nt * TILE_M * TILE_N; // first slice free

    // Fetch instructions fold the `pipeline::octet_schedule` walk: 2 A
    // fetches per (mt, kt) — the two thread-group buffers of Figure 3(d),
    // filled once and reused across nt — one packed-B fetch every step,
    // a C read on every step past each tile's first k-slice, and a C
    // write every step. A and B fetches fill operand buffers; nothing is
    // ever evicted early because the packed words are k-aligned with the
    // held A sub-tile.
    let a_fetches = mt * kt * 2;
    let b_fetches = steps;
    let c_read_fetches = steps - mt * nt;
    let fetch_instructions = a_fetches + b_fetches + c_read_fetches + steps;
    let buffer_fills = a_fetches + b_fetches;

    // Sequential weight processing on the baseline DP units (packed words
    // are converted inline, not multiplied in parallel): same dot count
    // and issue rate as the standard and `P(B_x)_k` flows.
    let dots_per_step = TILE_M * TILE_N;
    let compute_cycles = steps * dots_per_step / config.dp_units_per_octet() as u64;

    OctetCounts {
        rf: RfTraffic {
            a_reads,
            b_reads,
            c_reads,
            c_writes,
            a_bits: a_reads * 16,
            b_bits: b_reads * 16,
            c_bits: (c_reads + c_writes) * 16,
        },
        buffer_fills,
        buffer_evictions: 0,
        fetch_instructions,
        compute_cycles,
    }
}

/// General-core operation counts for the whole GEMM.
fn general_core_ops(
    arch: Architecture,
    shape: GemmShape,
    precision: WeightPrecision,
    group: GroupShape,
) -> GeneralCoreOps {
    let (m, n, k) = (shape.m as u64, shape.n as u64, shape.k as u64);
    let weights = n * k;
    match arch {
        Architecture::StandardDequant => GeneralCoreOps {
            unpack_ops: weights,
            dequant_ops: weights,
            ..Default::default()
        },
        Architecture::PackedK => GeneralCoreOps {
            // Inline INT→FP16 conversion on every buffer fill: the packed
            // region is re-converted once per warp-tile row. div_ceil, not
            // truncation — a ragged m still walks a full tile row.
            inline_converts: weights * m.div_ceil(16),
            scale_applies: m * n * (k as usize).div_ceil(group.k_size) as u64,
            scale_fetches: m.div_ceil(16)
                * group.scale_fetches_for_tiled_walk(shape.k, shape.n, 1, 4) as u64,
            ..Default::default()
        },
        Architecture::InputStationary => GeneralCoreOps {
            // Inline conversion on every packed-B buffer fill. B is
            // re-streamed once per mt inside each octet (the buffers hold
            // A), so the region converts OCTET_M/TILE_M = 2 times per
            // warp-tile row — twice the `P(B_x)_k` count, and the scale
            // walk repeats with it.
            inline_converts: 2 * weights * m.div_ceil(16),
            scale_applies: m * n * (k as usize).div_ceil(group.k_size) as u64,
            scale_fetches: 2
                * m.div_ceil(16)
                * group.scale_fetches_for_tiled_walk(shape.k, shape.n, 1, 4) as u64,
            ..Default::default()
        },
        Architecture::Pacq => {
            let k_segments = (shape.k).div_ceil(group.k_size) as u64;
            GeneralCoreOps {
                // One Eq. (1) fixup and one scale application per output
                // element per k-group segment (Figure 6 ①–③).
                offset_fixups: m * n * k_segments,
                scale_applies: m * n * k_segments,
                scale_fetches: m.div_ceil(16)
                    * group.scale_fetches_for_tiled_walk(shape.k, shape.n, precision.lanes(), 4)
                        as u64,
                ..Default::default()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MAX_COUNTER_PER_MAC;
    use pacq_error::PacqError;

    fn volta() -> SmConfig {
        SmConfig::volta_like()
    }

    fn run(arch: Architecture, precision: WeightPrecision) -> GemmStats {
        simulate(
            arch,
            Workload::new(GemmShape::M16N16K16, precision),
            &volta(),
            GroupShape::along_k(16),
        )
        .unwrap()
    }

    #[test]
    fn pacq_speedup_over_packed_k_is_about_2x() {
        // Figure 7(b): average speedup 1.99×.
        for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
            let base = run(Architecture::PackedK, precision);
            let pacq = run(Architecture::Pacq, precision);
            let speedup = base.total_cycles as f64 / pacq.total_cycles as f64;
            assert!(
                (1.85..2.05).contains(&speedup),
                "{precision}: speedup = {speedup}"
            );
        }
    }

    #[test]
    fn pacq_reduces_rf_accesses() {
        // Figure 7(a): PacQ needs fewer register file accesses than
        // P(B_x)_k, and the reduction grows from INT4 to INT2.
        let red = |p| {
            let base = run(Architecture::PackedK, p).rf.total_accesses() as f64;
            let pacq = run(Architecture::Pacq, p).rf.total_accesses() as f64;
            1.0 - pacq / base
        };
        let r4 = red(WeightPrecision::Int4);
        let r2 = red(WeightPrecision::Int2);
        assert!(r4 > 0.4, "INT4 reduction = {r4}");
        assert!(r2 > r4, "INT2 {r2} should exceed INT4 {r4}");
    }

    #[test]
    fn packed_k_suffers_a_refetch_and_evictions() {
        let std = run(Architecture::StandardDequant, WeightPrecision::Int4);
        let pk = run(Architecture::PackedK, WeightPrecision::Int4);
        assert_eq!(pk.rf.a_reads, 4 * std.rf.a_reads, "4 lanes → 4x A traffic");
        assert!(pk.buffer_evictions > 0);
        assert_eq!(std.buffer_evictions, 0);
        assert!(pk.fetch_instructions > std.fetch_instructions);
    }

    #[test]
    fn packed_weights_shrink_b_traffic() {
        let std = run(Architecture::StandardDequant, WeightPrecision::Int4);
        let pacq = run(Architecture::Pacq, WeightPrecision::Int4);
        // Std holds B across the m-loop (weight stationary) so each FP16
        // element is read once; PacQ streams packed words once per m-tile
        // but each word carries 4 weights → net 2× fewer B reads and bits.
        assert_eq!(pacq.rf.b_reads * 2, std.rf.b_reads);
        assert_eq!(pacq.rf.b_bits * 2, std.rf.b_bits);
    }

    #[test]
    fn standard_flow_pays_dequant_cycles_and_ops() {
        let std = run(Architecture::StandardDequant, WeightPrecision::Int4);
        assert_eq!(std.ops.dequant_ops, 16 * 16);
        assert_eq!(std.ops.unpack_ops, 16 * 16);
        assert!(std.general_cycles > 0);
        let pacq = run(Architecture::Pacq, WeightPrecision::Int4);
        assert_eq!(pacq.ops.dequant_ops, 0);
        assert!(pacq.ops.offset_fixups > 0);
    }

    #[test]
    fn int2_packed_k_escalates_to_l1() {
        // §III: hyper-asymmetry at INT2 pushes refetches past the RF.
        let pk4 = run(Architecture::PackedK, WeightPrecision::Int4);
        let pk2 = run(Architecture::PackedK, WeightPrecision::Int2);
        assert!(pk2.l1.reads > pk4.l1.reads);
    }

    #[test]
    fn large_shapes_scale_linearly() {
        let small = simulate(
            Architecture::Pacq,
            Workload::new(GemmShape::new(16, 64, 64), WeightPrecision::Int4),
            &volta(),
            GroupShape::along_k(64),
        )
        .unwrap();
        let big = simulate(
            Architecture::Pacq,
            Workload::new(GemmShape::new(16, 128, 64), WeightPrecision::Int4),
            &volta(),
            GroupShape::along_k(64),
        )
        .unwrap();
        assert_eq!(big.rf.a_reads, 2 * small.rf.a_reads);
        assert_eq!(big.rf.b_reads, 2 * small.rf.b_reads);
        assert_eq!(big.dram.write_bits, 2 * small.dram.write_bits);
    }

    #[test]
    fn no_counter_exceeds_the_per_mac_bound() {
        // Every counter, and every sum of counters the report prices,
        // stays within MAX_COUNTER_PER_MAC per padded MAC on every flow,
        // precision, datapath, group geometry and ragged edge.
        let groups = [
            GroupShape::new(1, 1),
            GroupShape::along_k(16),
            GroupShape::G128,
            GroupShape::G32X4,
        ];
        let shapes = [(1, 1, 1), (16, 16, 16), (17, 33, 65), (48, 16, 256)];
        for arch in Architecture::ALL {
            for precision in WeightPrecision::ALL {
                for (dp_width, dup) in [(4, 1), (8, 2), (16, 4)] {
                    let cfg = SmConfig {
                        dp_width,
                        adder_tree_duplication: dup,
                        ..volta()
                    };
                    for group in groups {
                        for (m, n, k) in shapes {
                            let shape = GemmShape::new(m, n, k);
                            let s = simulate(arch, Workload::new(shape, precision), &cfg, group)
                                .unwrap();
                            let bound = MAX_COUNTER_PER_MAC * shape.padded_to_tiles().macs();
                            let ops = s.ops;
                            for (name, v) in [
                                ("rf bits", s.rf.total_bits()),
                                ("l1 bits", s.l1.read_bits + s.l1.write_bits),
                                ("dram bits", s.dram.read_bits + s.dram.write_bits),
                                ("fetches", s.fetch_instructions),
                                ("cycles", s.total_cycles),
                                ("scale fetches", ops.scale_fetches),
                                ("converts", ops.inline_converts),
                                ("fixups", ops.offset_fixups),
                            ] {
                                assert!(
                                    v <= bound,
                                    "{name} {v} > {bound}: {arch:?} {precision} DP-{dp_width} \
                                     {group:?} m{m}n{n}k{k}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn counters_at_the_largest_shape_do_not_wrap() {
        // The largest accepted shape with n = k = 16: register-file
        // traffic is linear in the tile rows, so it must be exactly
        // (m / 16) times the one-tile figure — a wrapped product is not.
        let m = (1usize << 51) - 16;
        let edge = GemmShape::try_new(m, 16, 16).unwrap();
        for arch in Architecture::ALL {
            for precision in WeightPrecision::ALL {
                let at = |shape| {
                    simulate(
                        arch,
                        Workload::new(shape, precision),
                        &volta(),
                        GroupShape::G128,
                    )
                    .unwrap()
                };
                let (one, big) = (at(GemmShape::M16N16K16), at(edge));
                let rows = (m / 16) as u128;
                assert_eq!(
                    u128::from(big.rf.total_bits()),
                    u128::from(one.rf.total_bits()) * rows
                );
                assert_eq!(
                    u128::from(big.rf.total_accesses()),
                    u128::from(one.rf.total_accesses()) * rows
                );
            }
        }
    }

    #[test]
    fn adder_tree_duplication_shortens_pacq() {
        let mut cfg = volta();
        let wl = Workload::new(GemmShape::M16N16K16, WeightPrecision::Int4);
        let g = GroupShape::along_k(16);
        cfg.adder_tree_duplication = 1;
        let d1 = simulate(Architecture::Pacq, wl, &cfg, g).unwrap().tc_cycles;
        cfg.adder_tree_duplication = 2;
        let d2 = simulate(Architecture::Pacq, wl, &cfg, g).unwrap().tc_cycles;
        cfg.adder_tree_duplication = 4;
        let d4 = simulate(Architecture::Pacq, wl, &cfg, g).unwrap().tc_cycles;
        assert!(d1 > d2 && d2 > d4, "cycles {d1} > {d2} > {d4}");
    }

    #[test]
    fn dram_bound_floors_small_kernels() {
        let wl = Workload::new(GemmShape::M16N16K16, WeightPrecision::Int4);
        let g = GroupShape::along_k(16);
        let free = simulate(Architecture::Pacq, wl, &volta(), g).unwrap();
        let bound_cfg = SmConfig::volta_like().with_dram_bound(8.0).unwrap();
        let bound = simulate(Architecture::Pacq, wl, &bound_cfg, g).unwrap();
        assert!(bound.total_cycles > free.total_cycles);
        // The floor equals the streamed bytes over the bandwidth.
        let bytes = (bound.dram.read_bits + bound.dram.write_bits) / 8;
        assert_eq!(bound.total_cycles, bytes.div_ceil(8));
    }

    #[test]
    fn ragged_shape_executes_as_its_padded_counterpart() {
        // A ragged GEMM is zero-padded onto the warp-tile grid: every
        // counter equals the padded shape's, exactly — no truncated
        // traffic, no phantom partial tiles.
        let g = GroupShape::along_k(16);
        for arch in Architecture::ALL {
            for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
                let ragged = simulate(
                    arch,
                    Workload::new(GemmShape::new(3, 40, 17), precision),
                    &volta(),
                    g,
                )
                .unwrap();
                let padded = simulate(
                    arch,
                    Workload::new(GemmShape::new(16, 48, 32), precision),
                    &volta(),
                    g,
                )
                .unwrap();
                assert_eq!(ragged, padded, "{arch:?}/{precision}");
            }
        }
    }

    #[test]
    fn ragged_m_pays_a_full_tile_row() {
        // Regression pin for the former `(m / 16).max(1)` truncation: at
        // m = 17 the general core walks TWO tile rows, not one.
        let run_m = |m| {
            simulate(
                Architecture::PackedK,
                Workload::new(GemmShape::new(m, 64, 64), WeightPrecision::Int4),
                &volta(),
                GroupShape::along_k(64),
            )
            .unwrap()
        };
        let m16 = run_m(16);
        let m17 = run_m(17);
        assert_eq!(m17.ops.inline_converts, 2 * m16.ops.inline_converts);
        assert_eq!(m17.ops.scale_fetches, 2 * m16.ops.scale_fetches);
        assert_eq!(m17.rf.a_reads, 2 * m16.rf.a_reads);
    }

    #[test]
    fn input_stationary_reads_each_activation_once() {
        // The defining property of the flow: holding A across the n loop
        // brings RF A-traffic down to one read per activation element per
        // octet column (the 2×2 octet grid's two n-columns share A rows,
        // so a warp tile reads each of its 16×16 activations twice) —
        // where the standard flow re-fetches A every step and P(B_x)_k
        // multiplies that by the eviction factor.
        for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
            let is = run(Architecture::InputStationary, precision);
            let std = run(Architecture::StandardDequant, precision);
            let pk = run(Architecture::PackedK, precision);
            assert_eq!(is.rf.a_reads, 2 * 16 * 16, "{precision}: once/octet-col");
            assert_eq!(std.rf.a_reads, 2 * is.rf.a_reads);
            assert!(pk.rf.a_reads > std.rf.a_reads);
            assert_eq!(is.buffer_evictions, 0, "held A is never evicted");
        }
    }

    #[test]
    fn input_stationary_coincides_with_ws_and_os_where_the_flows_overlap() {
        // On degenerate M=1 / N=1 shapes (padded to a single tile row /
        // column) the walks collapse and the flows' shared structure is
        // directly comparable:
        //  - C streams identically to the weight-stationary flows (k sits
        //    outside the innermost loop in both), so C traffic matches the
        //    standard flow exactly;
        //  - weights are processed sequentially, so tensor-core cycles
        //    match P(B_x)_k exactly;
        //  - at INT2 one packed word spans the whole octet row, so the
        //    output-stationary walk also touches each activation exactly
        //    once and A traffic coincides with PacQ.
        let g = GroupShape::along_k(16);
        for shape in [GemmShape::new(1, 16, 16), GemmShape::new(16, 1, 16)] {
            for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
                let at =
                    |arch| simulate(arch, Workload::new(shape, precision), &volta(), g).unwrap();
                let is = at(Architecture::InputStationary);
                let ws = at(Architecture::StandardDequant);
                let pk = at(Architecture::PackedK);
                let os = at(Architecture::Pacq);
                assert_eq!(is.rf.c_reads, ws.rf.c_reads, "{shape}/{precision}");
                assert_eq!(is.rf.c_writes, ws.rf.c_writes, "{shape}/{precision}");
                assert_eq!(is.rf.c_bits, ws.rf.c_bits, "{shape}/{precision}");
                assert_eq!(is.tc_cycles, pk.tc_cycles, "{shape}/{precision}");
                if precision == WeightPrecision::Int2 {
                    assert_eq!(is.rf.a_reads, os.rf.a_reads, "{shape}/{precision}");
                }
            }
        }
    }

    #[test]
    fn degenerate_config_is_a_typed_error() {
        let wl = Workload::new(GemmShape::M16N16K16, WeightPrecision::Int4);
        let g = GroupShape::along_k(16);
        for mutate in [
            (|c: &mut SmConfig| c.dp_width = 0) as fn(&mut SmConfig),
            |c| c.dp_width = 5,
            |c| c.adder_tree_duplication = 0,
            |c| c.adder_tree_duplication = 3,
            |c| c.tensor_cores = 0,
            |c| c.dp_units_per_tc = 0,
            |c| c.dequant_weights_per_cycle = 0.0,
            |c| c.dequant_weights_per_cycle = f64::NAN,
        ] {
            let mut cfg = volta();
            mutate(&mut cfg);
            let err = simulate(Architecture::StandardDequant, wl, &cfg, g).unwrap_err();
            assert!(
                matches!(err, PacqError::InvalidInput { .. }),
                "expected InvalidInput, got {err}"
            );
        }
    }

    #[test]
    fn bad_dram_bound_is_a_typed_error() {
        for bad in [0.0, -1.0, f64::NAN] {
            let err = SmConfig::volta_like().with_dram_bound(bad).unwrap_err();
            assert!(matches!(err, PacqError::InvalidInput { .. }), "{bad}");
        }
    }
}

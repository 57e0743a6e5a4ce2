//! Functional execution: the three flows computing real numbers through
//! the bit-accurate datapaths.
//!
//! The paper's simulator only tracks access patterns; this module
//! additionally *executes* each dataflow so the numeric behaviour of
//! PacQ's biased arithmetic can be compared against the dequantization
//! baseline (see the numerics finding in EXPERIMENTS.md).

//! # Parallel tiling
//!
//! All three flows walk the output in `(m, n)` tiles, and every weight
//! column (or column tile) is gathered once per job and then streamed
//! by every row of the job.
//!
//! * The scalar backend fans out bands of up to [`ROW_TILE`] rows
//!   across the rayon pool with `par_chunks_mut`, visits the columns in
//!   [`COL_TILE`] blocks (PacQ: one packed-word column at a time) and
//!   feeds each row through the structural DP units.
//! * The batched backend (`run_tiled`) converts all `m` activation
//!   rows to f32 once, then fans out over `pacq_fp16::batch::COLS`-wide
//!   column tiles: each job gathers its tile's `[k][COLS]` f32 operand
//!   once, straight from the packed words, and one `batch::tile_dot`
//!   call per row and k-segment yields `COLS` outputs. Jobs return
//!   `[rows][COLS]` blocks that are scattered into the output after
//!   the join; with fewer tiles than workers, a tile's rows are split
//!   over several jobs. Each worker's scratch is one tile, never a
//!   whole k×n operand.
//!
//! Jobs only ever own whole output elements and the k-accumulation
//! order per element is untouched, so the result is bit-identical at
//! any thread count (`jobs = 1` and `jobs = N` agree to the last bit)
//! and across backends; see the equivalence suite in
//! `tests/parallel_equivalence.rs`.

use crate::config::Architecture;
use pacq_error::{PacqError, PacqResult};
use pacq_fp16::batch::{self, TileRow, COLS};
use pacq_fp16::{
    Backend, BaselineDpUnit, Fp16, NumericsMode, PackedWord, ParallelDpUnit, MAX_LANES,
};
use pacq_quant::{MatrixF16, MatrixF32, PackDim, PackedMatrix};
use rayon::prelude::*;

/// Executes a GEMM functionally on the given architecture through the
/// scalar reference datapaths (shorthand for [`execute_with_backend`]
/// at [`Backend::Scalar`]).
///
/// * `a` — FP16 activations `[m, k]`;
/// * `packed` — packed quantized weights `[k, n]`; must be packed along
///   `n` for [`Architecture::Pacq`] and along `k` for
///   [`Architecture::PackedK`] (any direction for the dequantization
///   baseline, which unpacks at the L1 boundary anyway);
/// * `numerics` — product-rounding behaviour of the PacQ datapath.
///
/// Returns `C = A × dequant(B)` in f32.
///
/// # Errors
///
/// Returns [`PacqError::ShapeMismatch`] on a dimension mismatch,
/// [`PacqError::InvalidInput`] for a pack direction that contradicts the
/// architecture, and [`PacqError::Misaligned`] for a k-extent or group
/// k-extent not aligned to the DP width.
pub fn execute(
    arch: Architecture,
    a: &MatrixF16,
    packed: &PackedMatrix,
    numerics: NumericsMode,
) -> PacqResult<MatrixF32> {
    execute_with_backend(arch, a, packed, numerics, Backend::Scalar)
}

/// [`execute`] with an explicit compute backend.
///
/// [`Backend::Scalar`] walks every element through the structural
/// datapath models; [`Backend::Batched`] runs every flow through the
/// one f32 column-tile kernel of `pacq_fp16::batch` (f32 activations,
/// branch-free fp16 rounding, lane products `A × (1024 + code)` by
/// arithmetic); the flows differ only in the gathered operand and the
/// epilogue. Both backends preserve the per-element accumulation order
/// whatever work they distribute, so they are bit-identical — the
/// three-way equivalence suite in `tests/parallel_equivalence.rs` pins
/// scalar ≡ rayon ≡ batched on every flow.
///
/// # Errors
///
/// Exactly as [`execute`].
pub fn execute_with_backend(
    arch: Architecture,
    a: &MatrixF16,
    packed: &PackedMatrix,
    numerics: NumericsMode,
    backend: Backend,
) -> PacqResult<MatrixF32> {
    if a.cols() != packed.k() {
        return Err(PacqError::ShapeMismatch {
            context: "simt::execute (A columns vs B rows)",
            left: a.cols(),
            right: packed.k(),
        });
    }
    match arch {
        Architecture::StandardDequant => run_standard(a, packed, backend),
        Architecture::PackedK => {
            if packed.pack_dim() != PackDim::K {
                return Err(PacqError::invalid_input(
                    "simt::execute",
                    "PackedK flow requires P(B_x)_k packing",
                ));
            }
            run_packed_k(a, packed, backend)
        }
        Architecture::InputStationary => {
            // The input-stationary flow consumes the same k-packed words
            // through the same sequential datapath as `P(B_x)_k`; only
            // the operand *movement* differs, and re-ordering which tile
            // is held never changes the per-element k-accumulation order
            // — so the functional result is bit-identical to PackedK's.
            if packed.pack_dim() != PackDim::K {
                return Err(PacqError::invalid_input(
                    "simt::execute",
                    "input-stationary flow requires P(B_x)_k packing",
                ));
            }
            run_packed_k(a, packed, backend)
        }
        Architecture::Pacq => {
            if packed.pack_dim() != PackDim::N {
                return Err(PacqError::invalid_input(
                    "simt::execute",
                    "PacQ flow requires P(B_x)_n packing",
                ));
            }
            run_pacq(a, packed, numerics, backend)
        }
    }
}

/// The f64 oracle: `A × dequant(B)` with exact accumulation.
pub fn reference(a: &MatrixF16, packed: &PackedMatrix) -> MatrixF32 {
    let deq = packed.unpack().dequantize();
    a.to_f32().matmul(&deq)
}

/// DP width of every flow's units: the scalar DP-4 and the batched
/// kernel's adder trees.
const DP_WIDTH: usize = batch::TREE_WIDTH;

/// Upper bound on rows per parallel band (the m-extent of a tile).
const ROW_TILE: usize = 8;

/// Columns per tile pass inside a band (the n-extent of a tile).
const COL_TILE: usize = 64;

/// Rows per band: small enough to spread `m` over the pool, capped at
/// [`ROW_TILE`] so a band's activation rows stay cache-resident.
fn band_rows(m: usize) -> usize {
    m.div_ceil(rayon::current_num_threads().max(1))
        .clamp(1, ROW_TILE)
}

/// StandardDequant: weights dequantized to FP16 storage, then a plain
/// FP16 GEMM on the baseline DP units with f32 accumulation.
fn run_standard(a: &MatrixF16, packed: &PackedMatrix, backend: Backend) -> PacqResult<MatrixF32> {
    let dp = BaselineDpUnit::new(DP_WIDTH)?;
    let (m, n, k) = (a.rows(), packed.n(), packed.k());
    if k % DP_WIDTH != 0 {
        return Err(PacqError::Misaligned {
            context: "simt::execute (k vs DP width)",
            extent: k,
            multiple: DP_WIDTH,
        });
    }
    if backend == Backend::Batched {
        return Ok(run_tiled(TileFlow::Standard, a, packed, k));
    }
    let deq = packed.unpack().dequantize().to_f16();

    let mut out = MatrixF32::zeros(m, n);
    if m == 0 || n == 0 {
        return Ok(out);
    }
    let band = band_rows(m);
    out.as_mut_slice()
        .par_chunks_mut(n * band)
        .enumerate()
        .for_each(|(c, chunk)| {
            let i0 = c * band;
            let rows = chunk.len() / n;
            // Per-tile scratch: one dequantized B column, gathered once and
            // then streamed by every row of the band.
            let mut bcol = vec![Fp16::ZERO; k];
            for j0 in (0..n).step_by(COL_TILE) {
                for j in j0..(j0 + COL_TILE).min(n) {
                    for (t, b) in bcol.iter_mut().enumerate() {
                        *b = deq.get(t, j);
                    }
                    for r in 0..rows {
                        let arow = a.row(i0 + r);
                        let mut acc = 0f32;
                        for k0 in (0..k).step_by(DP_WIDTH) {
                            acc =
                                dp.dot_acc(acc, &arow[k0..k0 + DP_WIDTH], &bcol[k0..k0 + DP_WIDTH]);
                        }
                        chunk[r * n + j] = acc;
                    }
                }
            }
        });
    Ok(out)
}

/// PackedK: packed words enter the tensor core; each weight is converted
/// inline to FP16 (exact for 4-bit signed integers) and processed
/// sequentially; group scales are applied per k-segment in the epilogue.
fn run_packed_k(a: &MatrixF16, packed: &PackedMatrix, backend: Backend) -> PacqResult<MatrixF32> {
    let dp = BaselineDpUnit::new(DP_WIDTH)?;
    let (m, n, k) = (a.rows(), packed.n(), packed.k());
    let seg = packed.group().k_size.min(k);
    if seg % DP_WIDTH != 0 {
        return Err(PacqError::Misaligned {
            context: "simt::execute (group k-extent vs DP width)",
            extent: seg,
            multiple: DP_WIDTH,
        });
    }
    if k % seg != 0 {
        return Err(PacqError::Misaligned {
            context: "simt::execute (k vs group k-extent)",
            extent: k,
            multiple: seg,
        });
    }
    if backend == Backend::Batched {
        return Ok(run_tiled(TileFlow::PackedK, a, packed, seg));
    }
    let bias = packed.precision().bias();

    let mut out = MatrixF32::zeros(m, n);
    if m == 0 || n == 0 {
        return Ok(out);
    }
    let band = band_rows(m);
    out.as_mut_slice()
        .par_chunks_mut(n * band)
        .enumerate()
        .for_each(|(c, chunk)| {
            let i0 = c * band;
            let rows = chunk.len() / n;
            // Per-tile scratch: the zero-point-corrected column (exact in
            // FP16) and its per-segment scales, gathered once per column and
            // reused by every row of the band.
            let mut bcol = vec![Fp16::ZERO; k];
            let mut scales = vec![0f32; k / seg];
            for j0 in (0..n).step_by(COL_TILE) {
                for j in j0..(j0 + COL_TILE).min(n) {
                    for (s, s0) in (0..k).step_by(seg).enumerate() {
                        let z = packed.zero_point(s0, j) as i32;
                        scales[s] = packed.scale(s0, j);
                        for (t, b) in bcol[s0..s0 + seg].iter_mut().enumerate() {
                            // Inline conversion: the zero-point-corrected
                            // small integer (q − z) is exact in FP16.
                            let q = packed.code(s0 + t, j) as i32 + bias;
                            *b = Fp16::from_f32((q - z) as f32);
                        }
                    }
                    for r in 0..rows {
                        let arow = a.row(i0 + r);
                        let mut acc = 0f64;
                        for (s, s0) in (0..k).step_by(seg).enumerate() {
                            let mut seg_acc = 0f32;
                            for k0 in (s0..s0 + seg).step_by(DP_WIDTH) {
                                seg_acc = dp.dot_acc(
                                    seg_acc,
                                    &arow[k0..k0 + DP_WIDTH],
                                    &bcol[k0..k0 + DP_WIDTH],
                                );
                            }
                            acc += seg_acc as f64 * scales[s] as f64;
                        }
                        chunk[r * n + j] = acc as f32;
                    }
                }
            }
        });
    Ok(out)
}

/// PacQ: activations stream through the parallel FP-INT multipliers
/// against n-packed words; the Σ A accumulators and the general core
/// remove the `+offset` bias per k-segment (Eq. (1), Figure 6) and apply
/// the group scales.
fn run_pacq(
    a: &MatrixF16,
    packed: &PackedMatrix,
    numerics: NumericsMode,
    backend: Backend,
) -> PacqResult<MatrixF32> {
    let precision = packed.precision();
    let lanes = precision.lanes();
    let dp = ParallelDpUnit::new(DP_WIDTH, 2, precision)?.with_numerics(numerics);
    let (m, n, k) = (a.rows(), packed.n(), packed.k());
    let seg = packed.group().k_size.min(k);
    if seg % DP_WIDTH != 0 {
        return Err(PacqError::Misaligned {
            context: "simt::execute (group k-extent vs DP width)",
            extent: seg,
            multiple: DP_WIDTH,
        });
    }
    if k % seg != 0 {
        return Err(PacqError::Misaligned {
            context: "simt::execute (k vs group k-extent)",
            extent: k,
            multiple: seg,
        });
    }
    if backend == Backend::Batched {
        return Ok(run_tiled(TileFlow::Pacq(numerics), a, packed, seg));
    }
    let bias = precision.bias();
    let offset = precision.fp_offset();

    let mut out = MatrixF32::zeros(m, n);
    if m == 0 || n == 0 {
        return Ok(out);
    }
    let band = band_rows(m);
    out.as_mut_slice()
        .par_chunks_mut(n * band)
        .enumerate()
        .for_each(|(c, chunk)| {
            let i0 = c * band;
            let rows = chunk.len() / n;
            // Per-tile scratch: one word column's segment of packed words,
            // scales and zero points, gathered once and reused by every row
            // of the band; `lane_sums` is the allocation-free result buffer
            // of the value-only DP entry point.
            let mut words = vec![PackedWord::default(); seg];
            let mut scales = vec![0f32; lanes];
            let mut zps = vec![0i32; lanes];
            let mut lane_sums = [0f32; MAX_LANES];
            for wc in 0..packed.word_cols() {
                let n0 = wc * lanes;
                for s0 in (0..k).step_by(seg) {
                    for (t, w) in words.iter_mut().enumerate() {
                        *w = packed.word(s0 + t, wc);
                    }
                    for lane in 0..lanes {
                        scales[lane] = packed.scale(s0, n0 + lane);
                        zps[lane] = packed.zero_point(s0, n0 + lane) as i32;
                    }
                    for r in 0..rows {
                        let arow = a.row(i0 + r);
                        let sum_a = dp.dot_packed_into(&arow[s0..s0 + seg], &words, &mut lane_sums);
                        // Eq. (1) recovery gives Σ A·(q − bias); asymmetric
                        // zero points shift by (bias − z)·Σ A — absorbed by
                        // the same Σ A accumulator at zero extra hardware.
                        // The f32 cast between the two steps mirrors
                        // `PackedDotResult::recover` bit for bit.
                        for lane in 0..lanes {
                            let rec = (lane_sums[lane] as f64 - offset as f64 * sum_a) as f32;
                            let v = (rec as f64 + (bias - zps[lane]) as f64 * sum_a) as f32
                                * scales[lane];
                            chunk[r * n + n0 + lane] += v;
                        }
                    }
                }
            }
        });
    Ok(out)
}

/// What distinguishes the flows on the batched backend: the operand a
/// column tile gathers and the epilogue that turns a row's segment sums
/// into outputs.
#[derive(Debug, Clone, Copy)]
enum TileFlow {
    /// StandardDequant: gathers the fp16-dequantized weight
    /// `round16((q − z)·s)`; one segment spans all of k.
    Standard,
    /// PackedK and input-stationary: gathers the exact `q − z`; each
    /// segment sum is scaled and accumulated in f64.
    PackedK,
    /// PacQ: gathers the biased `1024 + q`; each segment's lane sums are
    /// recovered by Eq. (1) from the row's Σ A and scaled.
    Pacq(NumericsMode),
}

/// The batched backend of every flow: one pass of the
/// `pacq_fp16::batch` column-tile kernel per `(row, segment, tile)`.
///
/// All `m` activation rows are widened to f32 once (and, for PacQ,
/// their Σ A once per segment) before the fan-out. The jobs are the
/// output's [`COLS`]-wide column tiles: a job gathers its tile's
/// `[k][COLS]` f32 operand once, straight from the packed words, and
/// streams every row through it into an `[m][COLS]` block; the blocks
/// are scattered into the output after the join. When there are fewer
/// tiles than workers, each tile's rows are split over several jobs
/// (each then returns a block of its rows) so small-n shapes keep
/// their parallelism. The segment order and
/// every per-element accumulation order are the scalar flows', so the
/// result is bit-identical to them.
///
/// `seg` is the k-extent of one accumulation segment; it divides `k`.
fn run_tiled(flow: TileFlow, a: &MatrixF16, packed: &PackedMatrix, seg: usize) -> MatrixF32 {
    let (m, n, k) = (a.rows(), packed.n(), packed.k());
    let mut out = MatrixF32::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        return out;
    }
    let precision = packed.precision();
    let (bias, offset) = (
        f64::from(precision.bias()),
        f64::from(precision.fp_offset()),
    );
    let segs = k / seg;
    let mut af = vec![0f32; m * k];
    for (r, dst) in af.chunks_exact_mut(k).enumerate() {
        batch::widen_into(a.row(r), dst);
    }
    let sums: Vec<f64> = match flow {
        TileFlow::Pacq(_) => af.chunks_exact(seg).map(batch::activation_sum).collect(),
        _ => Vec::new(),
    };

    let tiles = n.div_ceil(COLS);
    let row_parts = rayon::current_num_threads().max(1).div_ceil(tiles).min(m);
    let part = m.div_ceil(row_parts);
    let jobs: Vec<(usize, usize)> = (0..n)
        .step_by(COLS)
        .flat_map(|j0| (0..m).step_by(part).map(move |r0| (j0, r0)))
        .collect();
    let groups = k.div_ceil(packed.group().k_size);
    // Per-worker scratch: one gathered column tile, and its scales and
    // zero points per group k-segment.
    let scratch = || {
        (
            vec![[0f32; COLS]; k],
            vec![[0f32; COLS]; groups],
            vec![[0f32; COLS]; groups],
        )
    };
    let blocks: Vec<Vec<TileRow>> = jobs
        .clone()
        .into_par_iter()
        .map_init(scratch, |(tile, scales, zps), (j0, r0)| {
            gather_tile(
                packed,
                j0,
                COLS.min(n - j0),
                tile,
                scales,
                zps,
                |q, z, s| match flow {
                    TileFlow::Standard => batch::round16((q - z) * s),
                    TileFlow::PackedK => q - z,
                    TileFlow::Pacq(_) => 1024.0 + q,
                },
            );
            (r0..(r0 + part).min(m))
                .map(|r| {
                    let arow = &af[r * k..(r + 1) * k];
                    let segments = arow.chunks_exact(seg).zip(tile.chunks_exact(seg));
                    match flow {
                        TileFlow::Standard => {
                            batch::tile_dot(NumericsMode::PaperRounded, arow, tile)
                        }
                        TileFlow::PackedK => {
                            let mut acc = [0f64; COLS];
                            for ((x, w), sc) in segments.zip(scales.iter()) {
                                let sum = batch::tile_dot(NumericsMode::PaperRounded, x, w);
                                for ((acc, &v), &s) in acc.iter_mut().zip(&sum).zip(sc) {
                                    *acc += f64::from(v) * f64::from(s);
                                }
                            }
                            acc.map(|v| v as f32)
                        }
                        TileFlow::Pacq(numerics) => {
                            let mut dst = [0f32; COLS];
                            let row_sums = &sums[r * segs..(r + 1) * segs];
                            for (((x, w), (sc, zp)), &sum_a) in
                                segments.zip(scales.iter().zip(zps.iter())).zip(row_sums)
                            {
                                let lane = batch::tile_dot(numerics, x, w);
                                // Eq. (1) recovery, then the zero-point
                                // shift (bias − z)·Σ A, with the f32 cast
                                // between them exactly as the scalar flow.
                                for (col, d) in dst.iter_mut().enumerate() {
                                    let rec = (f64::from(lane[col]) - offset * sum_a) as f32;
                                    *d += (f64::from(rec) + (bias - f64::from(zp[col])) * sum_a)
                                        as f32
                                        * sc[col];
                                }
                            }
                            dst
                        }
                    }
                })
                .collect()
        })
        .collect();

    let dst = out.as_mut_slice();
    for ((j0, r0), block) in jobs.into_iter().zip(blocks) {
        let cols = COLS.min(n - j0);
        for (r, row) in (r0..).zip(&block) {
            dst[r * n + j0..r * n + j0 + cols].copy_from_slice(&row[..cols]);
        }
    }
    out
}

/// Gathers output columns `j0..j0 + cols` of `packed` into `tile`
/// straight from the packed words: `tile[t][c] = operand(q, z, s)` for
/// weight `(t, j0 + c)`, with `q` its biased code and `z`, `s` its
/// group's zero point and scale (all as f32). `scales` and `zps` receive
/// `s` and `z` per group k-segment. Columns from `cols` on are padding:
/// they hold `operand(0, 0, 0)` and are never stored.
fn gather_tile(
    packed: &PackedMatrix,
    j0: usize,
    cols: usize,
    tile: &mut [TileRow],
    scales: &mut [TileRow],
    zps: &mut [TileRow],
    operand: impl Fn(f32, f32, f32) -> f32,
) {
    let precision = packed.precision();
    let lanes = precision.lanes();
    let bits = precision.bits();
    let mask = (1u16 << bits) - 1;
    let code =
        |w: PackedWord, lane: usize| f32::from((w.to_bits() >> (bits as usize * lane)) & mask);
    for row in tile.iter_mut() {
        row[cols..].fill(0.0);
    }
    match packed.pack_dim() {
        // `j0` and `cols` are whole words here: n is a multiple of the
        // lane count, and so is COLS.
        PackDim::N => {
            for (t, row) in tile.iter_mut().enumerate() {
                for (wc, lanes_out) in row[..cols].chunks_exact_mut(lanes).enumerate() {
                    let w = packed.word(t, j0 / lanes + wc);
                    for (lane, v) in lanes_out.iter_mut().enumerate() {
                        *v = code(w, lane);
                    }
                }
            }
        }
        PackDim::K => {
            for (wr, rows) in tile.chunks_exact_mut(lanes).enumerate() {
                for c in 0..cols {
                    let w = packed.word(wr, j0 + c);
                    for (lane, row) in rows.iter_mut().enumerate() {
                        row[c] = code(w, lane);
                    }
                }
            }
        }
    }
    let gk = packed.group().k_size;
    for (g, (rows, (sc, zp))) in tile
        .chunks_mut(gk)
        .zip(scales.iter_mut().zip(zps.iter_mut()))
        .enumerate()
    {
        for c in 0..COLS {
            (sc[c], zp[c]) = if c < cols {
                let (kk, nn) = (g * gk, j0 + c);
                (packed.scale(kk, nn), f32::from(packed.zero_point(kk, nn)))
            } else {
                (0.0, 0.0)
            };
        }
        for row in rows {
            for ((v, &z), &s) in row.iter_mut().zip(&*zp).zip(&*sc) {
                *v = operand(*v, z, s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacq_fp16::WeightPrecision;
    use pacq_quant::{synth::SynthGenerator, GroupShape, RtnQuantizer};

    fn setup(
        m: usize,
        n: usize,
        k: usize,
        precision: WeightPrecision,
        group: GroupShape,
        dim: PackDim,
    ) -> (MatrixF16, PackedMatrix) {
        let mut g = SynthGenerator::new(9);
        let a = g.llm_activations(m, k).to_f16();
        let w = g.llm_weights(k, n);
        let q = RtnQuantizer::new(precision, group).quantize(&w).unwrap();
        (a, PackedMatrix::pack(&q, dim).expect("packs"))
    }

    fn rel_err(got: &MatrixF32, want: &MatrixF32) -> f64 {
        let diff = MatrixF32::from_fn(got.rows(), got.cols(), |r, c| {
            got.get(r, c) - want.get(r, c)
        });
        diff.frobenius_norm() / want.frobenius_norm().max(1e-12)
    }

    #[test]
    fn standard_flow_matches_reference() {
        let (a, p) = setup(
            4,
            16,
            64,
            WeightPrecision::Int4,
            GroupShape::along_k(32),
            PackDim::N,
        );
        let got = execute(
            Architecture::StandardDequant,
            &a,
            &p,
            NumericsMode::PaperRounded,
        )
        .unwrap();
        let want = reference(&a, &p);
        assert!(rel_err(&got, &want) < 2e-3);
    }

    #[test]
    fn packed_k_flow_matches_reference() {
        let (a, p) = setup(
            4,
            16,
            64,
            WeightPrecision::Int4,
            GroupShape::along_k(32),
            PackDim::K,
        );
        let got = execute(Architecture::PackedK, &a, &p, NumericsMode::PaperRounded).unwrap();
        let want = reference(&a, &p);
        assert!(rel_err(&got, &want) < 2e-3);
    }

    #[test]
    fn pacq_wide_matches_reference_tightly() {
        for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
            let (a, p) = setup(4, 16, 64, precision, GroupShape::along_k(32), PackDim::N);
            let got = execute(Architecture::Pacq, &a, &p, NumericsMode::Wide).unwrap();
            let want = reference(&a, &p);
            let e = rel_err(&got, &want);
            assert!(e < 2e-3, "{precision}: rel err {e}");
        }
    }

    #[test]
    fn pacq_paper_rounded_shows_measurable_error() {
        // The reproduction's numerics finding: rounding the biased
        // products to FP16 leaves visible error after Eq. (1) recovery.
        let (a, p) = setup(
            4,
            16,
            64,
            WeightPrecision::Int4,
            GroupShape::along_k(32),
            PackDim::N,
        );
        let rounded = execute(Architecture::Pacq, &a, &p, NumericsMode::PaperRounded).unwrap();
        let want = reference(&a, &p);
        let e = rel_err(&rounded, &want);
        assert!(e > 1e-3, "expected visible biased-rounding error, got {e}");
        assert!(e < 0.6, "error should stay bounded, got {e}");
    }

    #[test]
    fn pacq_executes_asymmetric_quantization_exactly() {
        // The Σ A accumulator absorbs the zero point: PacQ's recovered
        // output matches the dequantized oracle for asymmetric codes too.
        let mut g = SynthGenerator::new(33);
        let a = g.llm_activations(4, 64).to_f16();
        // Skewed (strictly positive) weights where asymmetric wins.
        let w = pacq_quant::MatrixF32::from_fn(64, 16, |k, n| {
            0.2 + ((k * 5 + n * 3) % 17) as f32 / 40.0
        });
        let q = RtnQuantizer::asymmetric(WeightPrecision::Int4, GroupShape::along_k(32))
            .quantize(&w)
            .unwrap();
        let p = PackedMatrix::pack(&q, PackDim::N).expect("packs");
        let got = execute(Architecture::Pacq, &a, &p, NumericsMode::Wide).unwrap();
        let want = reference(&a, &p);
        let e = rel_err(&got, &want);
        assert!(e < 2e-3, "asymmetric PacQ rel err {e}");
        // And the PackedK flow handles zero points too.
        let pk = PackedMatrix::pack(&q, PackDim::K).expect("packs");
        let got = execute(Architecture::PackedK, &a, &pk, NumericsMode::Wide).unwrap();
        let e = rel_err(&got, &want);
        assert!(e < 2e-3, "asymmetric PackedK rel err {e}");
    }

    #[test]
    fn pacq_2d_groups_execute_correctly() {
        let (a, p) = setup(
            4,
            16,
            64,
            WeightPrecision::Int4,
            GroupShape::new(32, 4),
            PackDim::N,
        );
        let got = execute(Architecture::Pacq, &a, &p, NumericsMode::Wide).unwrap();
        let want = reference(&a, &p);
        assert!(rel_err(&got, &want) < 2e-3);
    }

    #[test]
    fn pacq_rejects_k_packing() {
        let (a, p) = setup(
            4,
            16,
            64,
            WeightPrecision::Int4,
            GroupShape::along_k(32),
            PackDim::K,
        );
        let err = execute(Architecture::Pacq, &a, &p, NumericsMode::Wide).unwrap_err();
        assert!(err.to_string().contains("requires P(B_x)_n"));
    }

    #[test]
    fn packed_k_rejects_n_packing() {
        let (a, p) = setup(
            4,
            16,
            64,
            WeightPrecision::Int4,
            GroupShape::along_k(32),
            PackDim::N,
        );
        let err = execute(Architecture::PackedK, &a, &p, NumericsMode::Wide).unwrap_err();
        assert!(err.to_string().contains("requires P(B_x)_k"));
    }

    #[test]
    fn mismatched_activation_width_is_a_typed_error() {
        let (_, p) = setup(
            4,
            16,
            64,
            WeightPrecision::Int4,
            GroupShape::along_k(32),
            PackDim::N,
        );
        let narrow = SynthGenerator::new(10).llm_activations(4, 32).to_f16();
        let err = execute(Architecture::Pacq, &narrow, &p, NumericsMode::Wide).unwrap_err();
        assert!(matches!(err, PacqError::ShapeMismatch { .. }));
    }
}

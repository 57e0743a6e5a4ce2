//! `exec-decode`: functional INT4 GEMMs on the batched backend over a
//! column slice of a LLaMA-2-7B attention projection at decode batch
//! (m16, k4096). Each op quantizes the FP32 weights (RTN, g128), packs
//! them for the op's dataflow and executes; the four dataflows run in a
//! fixed rotation. The only workload that enters `quant`, `fp16::batch`
//! and `simt::exec`.

use crate::gen::{exec_inputs, DATAFLOWS};
use crate::spans::{Breakdown, Recorder};
use crate::stats::{median_chunk_rate, plain_median, OkTally, Samples};
use crate::{finish_layers, keep_going, overhead_ratio, Ctx, Metrics, RunResult, MIN_TRACED_OPS};
use pacq::{
    Architecture, Backend, GemmRunner, GroupShape, MatrixF16, MatrixF32, NumericsMode, PackDim,
    PackedMatrix, PacqResult, RtnQuantizer, WeightPrecision,
};
use pacq_simt::execute_with_backend;
use std::time::Instant;

/// Decode batch, output columns of the slice, and reduction depth.
const M: usize = 16;
const N: usize = 128;
const K: usize = 4096;

const PRECISION: WeightPrecision = WeightPrecision::Int4;

/// The highest percentile `MIN_OPS` ops support (ten samples beyond
/// it), and the fewest ops an untraced run measures; a run still short
/// of them at the end of `--seconds` keeps going.
const TAIL_PERCENTILE: f64 = 90.0;
const MIN_OPS: usize = 100;

/// Independent set-ups per run; `setup_s` is the one-time table build
/// plus their median.
const SETUP_REPS: usize = 3;

/// Ops per chunk for the chunk-rate throughput median: two full
/// rotations, so every chunk has the same dataflow mix.
const CHUNK_OPS: usize = 8;

/// FNV-1a over the row-major result bits (the `pacq exec` digest).
fn digest(c: &MatrixF32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in c.as_slice() {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn pack_dim(arch: Architecture) -> PackDim {
    match arch {
        Architecture::Pacq => PackDim::N,
        _ => PackDim::K,
    }
}

/// Bytes one GEMM moves, from tensor sizes: FP16 activations, packed
/// words and scales, FP32 results.
fn bytes_moved(packed: &PackedMatrix) -> f64 {
    (M * K * 2) as f64 + (packed.storage_bits() / 8) as f64 + (M * N * 4) as f64
}

/// One user op, untraced: what `pacq exec --backend batched` does.
fn op(runner: &GemmRunner, arch: Architecture, w: &MatrixF32, a: &MatrixF16) -> PacqResult<u64> {
    let packed = runner.quantize_and_pack(w, PRECISION, arch)?;
    let c = runner.execute(arch, a, &packed)?;
    Ok(digest(&c))
}

/// The same op from the public functions the runner calls, each inside
/// a span. Returns the digest and the bytes the kernel moved.
fn traced_op(
    rec: &Recorder,
    id: u64,
    arch: Architecture,
    w: &MatrixF32,
    a: &MatrixF16,
) -> PacqResult<(u64, f64)> {
    let root = rec.open("op", id, None);
    let q = rec.leaf("quant.quantize", id, root, || {
        RtnQuantizer::new(PRECISION, GroupShape::G128).quantize(w)
    })?;
    let packed = rec.leaf("quant.pack", id, root, || {
        PackedMatrix::pack(&q, pack_dim(arch))
    })?;
    let c = rec.leaf("simt.exec", id, root, || {
        execute_with_backend(
            arch,
            a,
            &packed,
            NumericsMode::PaperRounded,
            Backend::Batched,
        )
    })?;
    rec.close(root);
    Ok((digest(&c), bytes_moved(&packed)))
}

pub fn run(ctx: &Ctx, trace: bool) -> Result<RunResult, String> {
    let err = |e: pacq::PacqError| e.to_string();

    // The kernel's tables are built on first use; build them here so no
    // timed op pays for them.
    let t0 = Instant::now();
    std::hint::black_box(pacq_fp16::batch::to_f32_table());
    std::hint::black_box(pacq_fp16::batch::product_lut(PRECISION));
    let lut_s = t0.elapsed().as_secs_f64();

    // Set-up: input synthesis and the oracle (the scalar backend's
    // digest, once per dataflow), repeated; `setup_s` is the table
    // build plus their median.
    let runner = GemmRunner::new();
    let scalar = runner.clone().with_backend(Backend::Scalar);
    let mut setup_times = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let e = exec_inputs(ctx.seed, M, N, K);
        let a = e.activations.to_f16();
        let expected = DATAFLOWS
            .iter()
            .map(|&arch| op(&scalar, arch, &e.weights, &a))
            .collect::<PacqResult<Vec<u64>>>()
            .map_err(err)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        setup = Some((e.weights, a, e.first_dataflow, expected));
    }
    let (w, a, first, expected) = setup.ok_or("no set-up ran")?;
    let setup_s = lut_s + plain_median(setup_times).ok_or("no set-up ran")?;
    let runner = runner.with_backend(Backend::Batched);
    let macs = (M * N * K) as f64;

    let mut tally = OkTally::default();
    let mut metrics = Metrics::default();
    let window = if trace { ctx.seconds / 2 } else { ctx.seconds };
    let min_ops = if trace { 2 * DATAFLOWS.len() } else { MIN_OPS };

    let mut wall_us: Vec<Vec<f64>> = vec![Vec::new(); DATAFLOWS.len()];
    let mut chunks = Vec::new();
    let mut all_us = Vec::new();
    let started = Instant::now();
    let mut i = 0;
    while keep_going(started.elapsed(), i, window, min_ops) {
        let slot = (first + i) % DATAFLOWS.len();
        let t0 = Instant::now();
        let result = op(&runner, DATAFLOWS[slot], &w, &a);
        let secs = t0.elapsed().as_secs_f64();
        let ok = result.is_ok_and(|d| d == expected[slot]);
        if ok {
            chunks.push((macs, secs));
            all_us.push(secs * 1e6);
            wall_us[slot].push(secs * 1e6);
        }
        tally.record(ok);
        i += 1;
    }

    if !trace {
        let lat = Samples::new(all_us);
        metrics.set("setup_s", setup_s);
        metrics.set_pct("latency_p50_us", &lat, 50.0)?;
        metrics.set_tail(&lat, TAIL_PERCENTILE)?;
        let macs_rate = median_chunk_rate(&chunks, CHUNK_OPS).ok_or("too few ops for a rate")?;
        metrics.set("macs_per_s", macs_rate);
        metrics.set("points_per_s", macs_rate / macs);
        metrics.samples.push(("ops", chunks.len()));
        return Ok(RunResult {
            tally,
            metrics,
            spans: None,
        });
    }

    let rec = Recorder::new();
    let mut traced_us: Vec<Vec<f64>> = vec![Vec::new(); DATAFLOWS.len()];
    let mut bytes = Vec::new();
    let started = Instant::now();
    let mut t = 0;
    while keep_going(started.elapsed(), t, window, MIN_TRACED_OPS) {
        let slot = (first + i + t) % DATAFLOWS.len();
        let t0 = Instant::now();
        let result = traced_op(&rec, t as u64, DATAFLOWS[slot], &w, &a);
        let secs = t0.elapsed().as_secs_f64();
        // The traced op must compute what the untraced op computed.
        let ok = match result {
            Ok((d, moved)) if d == expected[slot] => {
                bytes.push(moved);
                true
            }
            _ => false,
        };
        if ok {
            traced_us[slot].push(secs * 1e6);
        }
        tally.record(ok);
        t += 1;
    }

    let b = Breakdown::new(rec.into_spans());
    metrics.set_layer_p50("quant.quantize.us_p50", b.durations_us("quant.quantize"))?;
    metrics.set("quant.quantize.busy_s", b.busy_s("quant.quantize"));
    metrics.set_layer_p50("quant.pack.us_p50", b.durations_us("quant.pack"))?;
    metrics.set("quant.pack.busy_s", b.busy_s("quant.pack"));
    metrics.set("fp16.lut_build.ms", lut_s * 1e3);
    metrics.set_layer_p50("simt.exec.us_p50", b.durations_us("simt.exec"))?;
    metrics.set("simt.exec.busy_s", b.busy_s("simt.exec"));
    metrics.set("simt.exec.macs", macs);
    metrics.set(
        "simt.exec.bytes",
        plain_median(bytes).ok_or("no traced op passed")?,
    );
    metrics.set(
        "trace.overhead_ratio",
        overhead_ratio(&wall_us, &traced_us)?,
    );
    metrics.set("trace.unattributed_ratio", b.unattributed_ratio("op"));
    metrics.set("trace.ops", t as f64);
    finish_layers(&mut metrics, ctx, &b);
    Ok(RunResult {
        tally,
        metrics,
        spans: Some(b),
    })
}

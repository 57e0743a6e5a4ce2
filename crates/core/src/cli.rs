//! The `pacq` command-line interface (library side, so it is testable).
//!
//! Every command parses argv through the one grammar in [`crate::args`]
//! — the workspace deliberately keeps its dependency set to the numeric
//! essentials (see DESIGN.md §8).

use crate::args::{does_not_apply, Args};
use crate::dse::{run_dse, DseAxes, DseJob, DsePlan};
use crate::par;
use crate::params::parse_params;
use crate::report::{Comparison, GemmReport};
use crate::roofline;
use crate::runner::GemmRunner;
use core::fmt::Write as _;
use pacq_arch::ArchTemplate;
use pacq_cache::{ReportCache, Shard, SweepCheckpoint};
use pacq_error::{PacqError, PacqResult};
use pacq_fp16::{batch, Backend, WeightPrecision};
use pacq_quant::synth::SynthGenerator;
use pacq_quant::GroupShape;
use pacq_simt::{
    octet_schedule, simulate, Architecture, GemmShape, OctetPipeline, SmConfig, Workload,
};
use pacq_trace::{ChromeTrace, Json, RunManifest};
use std::sync::Arc;

/// Usage text shown by `pacq help` and on errors.
pub const USAGE: &str = "\
pacq — PacQ hyper-asymmetric GEMM simulator (DAC 2025 reproduction)

USAGE:
  pacq analyze --shape mMnNkK [--arch std|packedk|is|pacq] [--precision int4|int2]
               [--group g128|g256|g32x4|g64x4|gK] [--dup 1|2|4] [--width 4|8|16]
               [--json] [--cache DIR [--hot N]] [--arch-template FILE]
  pacq compare --shape mMnNkK [--precision int4|int2] [--group ...] [--dup ...]
               [--width ...] [--cache DIR [--hot N]] [--arch-template FILE]
  pacq dse --shape mMnNkK [--param axis=v1,v2,...]... [--pareto]
           [--shard i/N] [--checkpoint FILE] [--cache DIR [--hot N]]
           [--arch-template FILE]
  pacq exec --shape mMnNkK [--arch std|packedk|is|pacq] [--precision int4|int2]
            [--group ...] [--check]
  pacq cache stats|clear|verify --cache DIR
  pacq audit [--activity] [--tolerance X] [--activity-scale S]
             [--cache DIR [--hot N]] [--arch-template FILE]
  pacq trace --out trace.json [--arch ...] [--precision ...] [--dup ...] [--width ...]
             [--arch-template FILE]
  pacq serve (--port N | --stdio) [--rate N] [--burst N] [--max-clients N]
             [--cache DIR [--hot N]]
  pacq loadgen (--addr HOST:PORT | --ready-log FILE | --spawn)
               [--requests N] [--clients N] [--window N] [--unique N]
               [--sample N] [--cache DIR [--hot N]]
  pacq help

Every command also accepts --jobs N (worker threads for grids and
functional execution; defaults to the PACQ_JOBS environment variable,
then the host parallelism; results are bit-identical at any job count)
and --metrics PATH (write a machine-readable JSON run manifest, schema
pacq-metrics/v1 — see DESIGN.md §11).

The commands that price reports also accept --cache DIR (a
content-addressed on-disk report cache: repeated analyses of the same
point become lookups, bit-identical to fresh runs — see DESIGN.md §12)
and --hot N (with --cache: a bounded in-memory LRU hot tier of N
entries in front of the disk store; hits are bit-identical and tallied
separately as cache.hot_hits/hot_misses/hot_evictions — see DESIGN.md
§15). `pacq cache` takes --cache alone.

analyze, compare, dse and trace also accept --arch-template FILE: a
declarative pacq-arch/v2 architecture template (JSON, see DESIGN.md
§18) replacing the builtin Volta-like machine — memory hierarchy
capacities and access energies, datapath widths and clock all come
from the file. The template describes only the machine: --arch (or
dse's --param arch=) still picks the dataflow, PacQ by default. The
template's content digest is folded into every cache key, checkpoint
binding and run manifest, so editing the template invalidates stale
artifacts with typed errors. The committed example
examples/arch/volta_like.json is the hardcoded Table I machine, bit for
bit.

`pacq dse` grid-searches design points over the template (or builtin)
machine. It takes only n and k from --shape; the batches (the m
extents) come from --param batch, so the m of --shape is not used.
Repeated --param flags name the axes, each spelled name=v1,v2,... —
batch=16,32 arch=std,packedk,is,pacq precision=int4,int2 width=4,8,16
dup=1,2,4 group=g128,g64 — and every unnamed axis keeps its default:
batches 16..512 × std, packedk, pacq × int4, int2 over the machine's
own width and dup and g128. --pareto prints the non-dominated (cycles,
energy) front as a stable table (ties keep every point, rows ordered
by cycles/energy/id) and records it in the --metrics manifest (kind
\"dse.pareto\"). --shard i/N slices the grid into N disjoint index
classes (for split runs), and --checkpoint FILE records completed jobs
so an interrupted run resumes where it stopped; with --cache,
checkpoint-resumed rows are rehydrated from the store so best-EDP/Pareto
rankings stay complete (otherwise they are flagged partial).

Every value flag is spelled --f V or --f=V. A flag a command does not
use is a usage error naming the flag and the command, never silently
ignored. The figure binaries (pacq-bench) take --jobs and --metrics
under the same rules; those that simulate a machine also take --cache,
--hot and --arch-template.

`pacq exec` functionally executes one GEMM through the bit-accurate
DP-4 datapath of the builtin machine on deterministic synthetic data
(so it takes no --dup, --width or --arch-template), printing a result
digest and throughput of the batched column-tile kernel. With --check
it also runs the scalar reference datapath on the same inputs, asserts
the results are bit-identical, and reports the batched-over-scalar
speedup (also recorded in the --metrics manifest). Each operand (m x k
activations, k x n weights, m x n results) is capped at 2^26 elements;
a larger shape is rejected (exit 4) before anything is allocated.

`pacq audit` cross-checks the analytic dataflow engine against the
event-driven per-octet replay on a grid of shapes (including ragged,
zero-padded ones), architectures and precisions, plus the energy/EDP
accounting identities and the roofline crossover search; the first
diverging counter is reported as a typed error (exit code 7). With
--activity it instead runs the activity calibration: both multiplier
netlists are simulated gate by gate over deterministic
precision-representative operand streams, the per-gate-class toggle
histograms are priced through the energy BOM, and each activity-derived
pJ/op figure must match its analytic counterpart within the declared
tolerance (--tolerance, or the template's audit.activity_tolerance, or
the documented default — see DESIGN.md). --activity-scale S multiplies
the BOM's per-toggle energies (the tests smoke the exit-7 mismatch path
with a deliberately perturbed BOM). Both numbers and the toggle histogram
go to the --metrics manifest. `pacq audit --activity` is the only
audit form that accepts --arch-template (solely for the pinned
tolerance).

`pacq trace` replays one warp-tile octet cycle-by-cycle and writes a
Chrome trace_event JSON (open in chrome://tracing or Perfetto; 1 trace
microsecond = 1 SM cycle).

`pacq serve` runs a long-lived evaluation server speaking the
newline-delimited JSON protocol pacq-serve/v1 over TCP (--port N;
--port 0 picks an ephemeral port, announced in the ready frame) or
over stdin/stdout (--stdio). Each connection answers its frames in
order on its own thread; batch frames fan out over --jobs / PACQ_JOBS
workers. Admission control: --rate N caps each connection at N work
requests per second (token bucket; denials are typed rate_limited
frames, class 8), --burst N sets the bucket capacity (defaults to the
rate), and --max-clients N turns away connections beyond N at the
accept gate. A `shutdown` frame or stdio EOF drains gracefully. See
DESIGN.md §13 and §16.

`pacq loadgen` drives a live pacq serve instance with a deterministic
mixed-point analyze workload: --requests N total requests across
--clients C pipelined connections (--window frames in flight each),
cycling --unique distinct evaluation points (repeats exercise the
cache tiers). The target is --addr HOST:PORT, --ready-log FILE (polls
a server log for the pacq-serve/v1 ready frame, as written by
`pacq serve --port 0`), or --spawn (an in-process server sharing this
invocation's --cache/--hot, which apply only with --spawn). Every
request must be answered exactly once (lost replies are a typed
error); the first --sample unique points are re-evaluated in process
and must match the served bytes exactly. Latency p50/p95/p99, a log2 histogram, and throughput
go to stdout and the --metrics manifest. See DESIGN.md §16.

EXAMPLES:
  pacq analyze --shape m16n4096k4096 --arch pacq
  pacq compare --shape m16n11008k4096 --precision int2
  pacq dse --shape m16n4096k4096 --param arch=std,pacq --metrics run.json
  pacq trace --arch pacq --precision int2 --out octet.trace.json";

fn err(msg: impl Into<String>) -> PacqError {
    PacqError::usage(msg)
}

/// The run knobs every entry point accepts.
pub const GLOBAL_FLAGS: &str = "--metrics --jobs";

/// Every run knob [`Knobs`] resolves: [`GLOBAL_FLAGS`] plus the store
/// and the template, which only the entry points that read them list.
/// A run manifest's invocation record leaves all of them out.
const RUN_KNOBS: &str = "--metrics --cache --hot --jobs --arch-template";

/// Every `pacq` command, each followed by the flags it accepts besides
/// [`GLOBAL_FLAGS`]. Only the commands that read the report store list
/// `--cache --hot`, and only those that simulate a machine list
/// `--arch-template`: a flag nothing reads would misattribute the
/// output to it.
const COMMANDS: [&str; 9] = [
    "analyze --shape --arch --precision --group --dup --width --json --cache --hot \
     --arch-template",
    "compare --shape --precision --group --dup --width --cache --hot --arch-template",
    "dse --shape --param --shard --checkpoint --pareto --cache --hot --arch-template",
    "exec --shape --arch --precision --group --check",
    "cache --cache",
    "audit --activity --tolerance --activity-scale --cache --hot --arch-template",
    "trace --arch --precision --dup --width --out --arch-template",
    "serve --port --stdio --rate --burst --max-clients --cache --hot",
    "loadgen --addr --ready-log --spawn --requests --clients --window --unique --sample \
     --cache --hot",
];

/// The flags `pacq <command>` accepts besides [`GLOBAL_FLAGS`]; `None`
/// for an unknown command.
pub(crate) fn command_flags(command: &str) -> Option<&'static str> {
    COMMANDS
        .into_iter()
        .map(|c| c.split_once(' ').unwrap_or((c, "")))
        .find_map(|(name, flags)| (name == command).then_some(flags))
}

/// The global run knobs of one invocation, resolved the same way for
/// `pacq` and every `pacq-bench` binary.
#[derive(Debug)]
pub struct Knobs {
    /// `--metrics PATH`: where the run manifest goes.
    pub metrics: Option<String>,
    /// The `--cache DIR` store, with the `--hot N` tier mounted in front.
    pub cache: Option<Arc<ReportCache>>,
    /// `--jobs N`, else `PACQ_JOBS`; `None` leaves the host default.
    pub jobs: Option<usize>,
    /// The validated `--arch-template` design point.
    pub template: Option<ArchTemplate>,
}

impl Knobs {
    /// Resolves the knobs of a parsed argv: validates every value and
    /// both environment spellings (even when the flag wins), requires
    /// `--cache` under `--hot`, loads the template and opens the store.
    /// Installs nothing process-wide.
    ///
    /// # Errors
    ///
    /// Usage errors for malformed values, I/O errors for an unreadable
    /// template or store, template errors for an invalid template.
    pub fn resolve(args: &Args) -> PacqResult<Knobs> {
        /// Upper bound on hot-tier entries; a tier bigger than this
        /// should be the disk store.
        const MAX_HOT_ENTRIES: u64 = 1 << 20;
        let jobs = args.last("--jobs", |v| par::validate_jobs(v, "--jobs"))?;
        let env_jobs = par::validated_env_jobs()?;
        let hot = args.last("--hot", |v| {
            crate::args::validate_count(v, "--hot", MAX_HOT_ENTRIES)
        })?;
        let template = args.last("--arch-template", load_arch_template)?;
        let cache = match (args.values("--cache").last(), hot) {
            (None, Some(_)) => {
                return Err(err(
                    "--hot mounts a memory tier in front of --cache; pass --cache DIR too",
                ))
            }
            (None, None) => None,
            (Some(dir), hot) => {
                let store = ReportCache::open(dir)?;
                Some(Arc::new(match hot {
                    Some(n) => store.with_hot_tier(n as usize),
                    None => store,
                }))
            }
        };
        Ok(Knobs {
            metrics: args.values("--metrics").last().map(String::from),
            cache,
            jobs: jobs.or(env_jobs),
            template,
        })
    }

    /// A [`GemmRunner`] carrying every knob of this run: the `--cache`
    /// store and, with `--arch-template`, the template's machine, energy
    /// model and content digest (its per-level energies price every
    /// report; the digest travels into cache keys, checkpoint bindings
    /// and run provenance).
    ///
    /// # Errors
    ///
    /// Returns a template error (exit code 9) when the template's energy
    /// model cannot be derived.
    pub fn runner(&self) -> PacqResult<GemmRunner> {
        let mut runner = GemmRunner::new().with_cache_opt(self.cache.clone());
        if let Some(t) = &self.template {
            runner = runner
                .with_config(t.config)
                .with_energy_model(t.energy_model()?)
                .with_template_digest(t.digest());
        }
        Ok(runner)
    }

    /// With `--metrics PATH`, drains the collector into the run manifest
    /// of `binary` (its argv without the global flags, the requested
    /// `jobs`, the effective pool size, the template digest) and, if
    /// `write`, writes it to PATH; a failed run only drains.
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::Io`] (exit code 6) when the write fails.
    pub fn finish_metrics(
        &self,
        binary: &str,
        args: &Args,
        jobs: Option<usize>,
        write: bool,
    ) -> PacqResult<()> {
        let Some(path) = &self.metrics else {
            return Ok(());
        };
        let invocation = args.without(RUN_KNOBS);
        let mut manifest = RunManifest::new(binary, &invocation)
            .with_jobs(jobs)
            .with_effective_jobs(rayon::current_num_threads())
            .with_arch_template(self.template.as_ref().map(ArchTemplate::digest));
        manifest.gather();
        pacq_trace::disable();
        if write {
            manifest.write_to(path)?;
        }
        Ok(())
    }
}

/// Loads, parses and validates the `--arch-template` file. I/O failures
/// are [`PacqError::Io`] (exit 6); schema and validation failures are
/// typed template errors (exit 9) naming the file.
pub fn load_arch_template(path: &str) -> PacqResult<ArchTemplate> {
    let text = std::fs::read_to_string(path).map_err(|e| PacqError::Io {
        context: "cli::--arch-template",
        message: format!("cannot read `{path}`: {e}"),
    })?;
    ArchTemplate::load(&text, path)
}

/// Writes a command's (or a figure binary's) output to stdout in one
/// piece. A reader that closed the pipe early (`pacq dse … | head -1`)
/// has all it asked for, so a broken pipe is a quiet success; any other
/// write failure is an I/O error (exit 6).
///
/// # Errors
///
/// Returns [`PacqError::Io`] when stdout fails for any reason but a
/// closed pipe.
pub fn write_stdout(output: &str) -> PacqResult<()> {
    use std::io::Write as _;
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(output.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(PacqError::Io {
            context: "pacq stdout",
            message: e.to_string(),
        }),
        _ => Ok(()),
    }
}

/// Runs the CLI on pre-split arguments, returning the output text.
///
/// # Errors
///
/// Returns [`PacqError::Usage`] for any unknown command, missing or
/// malformed option, and propagates typed simulator errors.
pub fn run(argv: &[String]) -> PacqResult<String> {
    let command = Args::first_positional(argv);
    let (name, accepted) = match command {
        None | Some("help" | "-h") => ("help", "--help"),
        Some(c) => (
            c,
            command_flags(c).ok_or_else(|| err(format!("unknown command `{c}`")))?,
        ),
    };
    let entry = command.map_or("pacq".to_string(), |c| format!("pacq {c}"));
    let args = Args::parse(argv, &entry, &format!("{GLOBAL_FLAGS} {accepted}"))?;
    // The command itself, plus `cache`'s action.
    if let Some(extra) = args.positionals().nth(if name == "cache" { 2 } else { 1 }) {
        return Err(does_not_apply(extra, &entry));
    }
    let knobs = Knobs::resolve(&args)?;
    // Only touch the global pool when the user asked for a count — a
    // plain invocation must not clobber a programmatically configured
    // pool (and concurrent unit tests share the process-wide setting).
    if knobs.jobs.is_some() {
        par::configure_jobs(knobs.jobs);
    }
    if knobs.metrics.is_some() {
        pacq_trace::enable();
    }
    let result = dispatch(name, &args, &knobs);
    knobs.finish_metrics("pacq", &args, knobs.jobs, result.is_ok())?;
    result
}

fn dispatch(command: &str, args: &Args, knobs: &Knobs) -> PacqResult<String> {
    match command {
        "analyze" => analyze(args, knobs),
        "compare" => compare(args, knobs),
        "dse" => dse(args, knobs),
        "exec" => exec(args, knobs),
        "cache" => cache_cmd(args, knobs.cache.as_ref()),
        "audit" => audit(args, knobs),
        "trace" => trace(args, knobs),
        "serve" => crate::serve::run_cli(args, knobs.cache.clone()),
        "loadgen" => crate::loadgen::run_cli(args, knobs.cache.clone()),
        _ => Ok(format!("{USAGE}\n")),
    }
}

/// Parsed design-point options. `dup` and `width` stay `None` until the
/// user passes the flag — the template's datapath must not be silently
/// clobbered by a hardcoded default, so [`runner_for`] resolves them.
struct Options {
    shape: GemmShape,
    precision: WeightPrecision,
    arch: Architecture,
    group: GroupShape,
    dup: Option<usize>,
    width: Option<usize>,
}

/// Validates the design-point flags of a parsed argv (the grammar has
/// already rejected every flag the command does not accept).
fn parse_options(args: &Args, require_shape: bool) -> PacqResult<Options> {
    let opts = Options {
        shape: args
            .last("--shape", parse_shape)?
            .unwrap_or(GemmShape::M16N16K16),
        precision: args
            .last("--precision", parse_precision)?
            .unwrap_or(WeightPrecision::Int4),
        arch: args
            .last("--arch", parse_arch)?
            .unwrap_or(Architecture::Pacq),
        group: args
            .last("--group", parse_group)?
            .unwrap_or(GroupShape::G128),
        dup: args.last("--dup", |v| parse_dup(v, "--dup"))?,
        width: args.last("--width", |v| parse_width(v, "--width"))?,
    };
    if require_shape && !args.has("--shape") {
        return Err(err("--shape is required (e.g. --shape m16n4096k4096)"));
    }
    Ok(opts)
}

/// Parses the paper's `mMnNkK` shape notation.
///
/// # Errors
///
/// Returns [`PacqError::Usage`] for malformed, zero or 16-misaligned
/// extents.
pub fn parse_shape(text: &str) -> PacqResult<GemmShape> {
    let bad = || {
        err(format!(
            "malformed shape `{text}`; expected e.g. m16n4096k4096"
        ))
    };
    let rest = text.strip_prefix('m').ok_or_else(bad)?;
    let n_pos = rest.find('n').ok_or_else(bad)?;
    let k_pos = rest.find('k').ok_or_else(bad)?;
    if k_pos < n_pos {
        return Err(bad());
    }
    let m: usize = rest[..n_pos].parse().map_err(|_| bad())?;
    let n: usize = rest[n_pos + 1..k_pos].parse().map_err(|_| bad())?;
    let k: usize = rest[k_pos + 1..].parse().map_err(|_| bad())?;
    if m == 0 || n == 0 || k == 0 {
        return Err(err("shape extents must be non-zero"));
    }
    if !m.is_multiple_of(16) || !n.is_multiple_of(16) || !k.is_multiple_of(16) {
        return Err(err(format!(
            "shape {text} is not 16-aligned (the simulator tiles in 16s)"
        )));
    }
    GemmShape::try_new(m, n, k)
}

/// Parses any [`Architecture::tokens`] entry the way `--arch` does;
/// shared with `pacq serve` request decoding and `--param arch=`.
///
/// # Errors
///
/// Returns [`PacqError::Usage`] for an unknown name.
pub fn parse_arch(text: &str) -> PacqResult<Architecture> {
    Architecture::parse(text).ok_or_else(|| err(format!("unknown architecture `{text}`")))
}

/// Parses any [`WeightPrecision::tokens`] entry the way `--precision`
/// does; shared with `pacq serve` request decoding and
/// `--param precision=`.
///
/// # Errors
///
/// Returns [`PacqError::Usage`] for an unknown name.
pub fn parse_precision(text: &str) -> PacqResult<WeightPrecision> {
    WeightPrecision::parse(text).ok_or_else(|| err(format!("unknown precision `{text}`")))
}

/// Parses a quantization-group name the way `--group` does; shared with
/// `pacq serve` request decoding.
///
/// # Errors
///
/// Returns [`PacqError::Usage`] for an unknown or zero-sized group.
pub fn parse_group(text: &str) -> PacqResult<GroupShape> {
    match text {
        "g128" => Ok(GroupShape::G128),
        "g256" => Ok(GroupShape::G256),
        "g32x4" | "g[32,4]" => Ok(GroupShape::G32X4),
        "g64x4" | "g[64,4]" => Ok(GroupShape::G64X4),
        other => {
            let k: usize = other
                .strip_prefix('g')
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| err(format!("unknown group `{other}`")))?;
            if k == 0 {
                return Err(err("group size must be non-zero"));
            }
            Ok(GroupShape::along_k(k))
        }
    }
}

/// Parses a count that must be one of `allowed`; `source` names the
/// spelling in the error.
fn parse_one_of(text: &str, source: &str, allowed: [usize; 3]) -> PacqResult<usize> {
    match text.parse() {
        Ok(v) if allowed.contains(&v) => Ok(v),
        _ => {
            let [a, b, c] = allowed;
            Err(err(format!(
                "{source} expects {a}, {b} or {c}, got `{text}`"
            )))
        }
    }
}

/// The one adder-tree duplication validator, behind `--dup D`,
/// `pacq dse --param dup=D,...` and the serve frames' `dup` field.
///
/// # Errors
///
/// Returns [`PacqError::Usage`] naming `source` unless `text` is 1, 2
/// or 4.
pub fn parse_dup(text: &str, source: &str) -> PacqResult<usize> {
    parse_one_of(text, source, [1, 2, 4])
}

/// The one DP-width validator, behind `--width W`,
/// `pacq dse --param width=W,...` and the serve frames' `width` field.
///
/// # Errors
///
/// Returns [`PacqError::Usage`] naming `source` unless `text` is 4, 8
/// or 16.
pub fn parse_width(text: &str, source: &str) -> PacqResult<usize> {
    parse_one_of(text, source, [4, 8, 16])
}

/// The run's runner ([`Knobs::runner`]: the template's machine or the
/// builtin one) with `--dup`/`--width` overriding its datapath and
/// `--group` its group geometry.
fn runner_for(opts: &Options, knobs: &Knobs) -> PacqResult<GemmRunner> {
    let runner = knobs.runner()?;
    let mut config = *runner.config();
    if let Some(dup) = opts.dup {
        config.adder_tree_duplication = dup;
    }
    if let Some(width) = opts.width {
        config.dp_width = width;
    }
    Ok(runner.with_config(config).with_group(opts.group))
}

/// FNV-1a over the row-major result bits: a stable fingerprint that two
/// runs (or the kernel and its reference) can be compared by at a glance.
fn result_digest(c: &pacq_quant::MatrixF32) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for r in 0..c.rows() {
        for col in 0..c.cols() {
            for byte in c.get(r, col).to_bits().to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
    }
    h
}

/// The most elements `pacq exec` synthesizes or computes per operand
/// (`m×k` activations, `k×n` weights, `m×n` results): 2²⁶, which admits
/// every LLaMA-2-7B projection (k4096 × n11008 is 45 M) and keeps the
/// largest run's buffers (f32 weights, codes, words, widened
/// activations) in the hundreds of MiB.
pub const EXEC_MAX_ELEMENTS: u64 = 1 << 26;

/// `pacq exec`: functionally executes one GEMM through the bit-accurate
/// datapath on deterministic synthetic data (seeded from the shape, so
/// reruns see identical inputs), timing the batched column-tile kernel.
/// `--check` also runs the scalar reference datapath on the same
/// inputs, asserts bit-identity, and reports the speedup.
fn exec(args: &Args, knobs: &Knobs) -> PacqResult<String> {
    let opts = parse_options(args, true)?;
    let arch = opts.arch;
    let _span = pacq_trace::span("cli.exec");
    let (m, n, k) = (opts.shape.m, opts.shape.n, opts.shape.k);
    for (what, rows, cols) in [("activation", m, k), ("weight", k, n), ("result", m, n)] {
        let elements = (rows as u64).saturating_mul(cols as u64);
        if elements > EXEC_MAX_ELEMENTS {
            return Err(PacqError::invalid_input(
                "pacq exec",
                format!(
                    "{} needs {elements} {what} elements; exec synthesizes at most \
{EXEC_MAX_ELEMENTS} per operand",
                    opts.shape
                ),
            ));
        }
    }
    let runner = runner_for(&opts, knobs)?;
    let mut g = SynthGenerator::new((m ^ (n << 8) ^ (k << 16)) as u64 | 1);
    let a = g.llm_activations(m, k).to_f16();
    let w = g.llm_weights(k, n);
    let packed = runner.quantize_and_pack(&w, opts.precision, arch)?;

    let timed = |r: &GemmRunner| -> PacqResult<(pacq_quant::MatrixF32, f64)> {
        let t0 = std::time::Instant::now();
        let c = r.execute(arch, &a, &packed)?;
        Ok((c, t0.elapsed().as_secs_f64()))
    };
    let (c, seconds) = timed(&runner)?;
    let digest = result_digest(&c);
    let flops = 2.0 * m as f64 * n as f64 * k as f64;
    let gflops = flops / seconds.max(1e-12) / 1e9;

    let kernel = batch::kernel_variant();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "exec {} on {} ({}, batched kernel, {kernel}): digest {digest:016x}, {seconds:.6} s, {gflops:.3} GFLOP/s",
        Workload::new(opts.shape, opts.precision),
        arch,
        opts.group,
    );
    let mut record = Json::object();
    record.set("digest", format!("{digest:016x}"));
    record.set("kernel", kernel);

    if args.has("--check") {
        // Run the scalar reference datapath on the same inputs: results
        // must agree to the bit, and the ratio of wall times is the
        // measured speedup of the batched kernel.
        let (reference, scalar_s) = timed(&runner.clone().with_backend(Backend::Scalar))?;
        for r in 0..c.rows() {
            for col in 0..c.cols() {
                let (x, y) = (c.get(r, col), reference.get(r, col));
                if x.to_bits() != y.to_bits() {
                    return Err(PacqError::AuditMismatch {
                        counter: "exec.backend_bits".to_string(),
                        case: format!("({r},{col}) under batched vs scalar"),
                        observed: format!("{:#010x}", x.to_bits()),
                        expected: format!("{:#010x}", y.to_bits()),
                    });
                }
            }
        }
        let speedup = scalar_s / seconds.max(1e-12);
        let _ = writeln!(
            out,
            "check OK: scalar reference bit-identical (digest {:016x}); batched speedup \
{speedup:.2}x (scalar {scalar_s:.6} s, batched {seconds:.6} s)",
            result_digest(&reference),
        );
        record.set("check", "bit-identical");
        record.set("batched_speedup", speedup);
    }
    if pacq_trace::is_enabled() {
        pacq_trace::record_result(format!("exec|{}|{arch}", opts.shape), record);
    }
    Ok(out)
}

fn analyze(args: &Args, knobs: &Knobs) -> PacqResult<String> {
    let opts = parse_options(args, true)?;
    let runner = runner_for(&opts, knobs)?;
    let report = runner.analyze(opts.arch, Workload::new(opts.shape, opts.precision))?;
    if args.has("--json") {
        Ok(report_json(&report))
    } else {
        Ok(report_text(&report))
    }
}

fn compare(args: &Args, knobs: &Knobs) -> PacqResult<String> {
    let opts = parse_options(args, true)?;
    // With a template, compare runs all three dataflows on the
    // template's machine (capacities, datapath, energies).
    let runner = runner_for(&opts, knobs)?;
    let wl = Workload::new(opts.shape, opts.precision);
    let cmp = Comparison::new(vec![
        runner.analyze(Architecture::StandardDequant, wl)?,
        runner.analyze(Architecture::PackedK, wl)?,
        runner.analyze(Architecture::Pacq, wl)?,
    ]);
    let mut out = String::new();
    let _ = writeln!(out, "workload {wl}, group {}:", opts.group);
    let _ = writeln!(
        out,
        "{:<28} {:>12} {:>14} {:>10} {:>10} {:>12}",
        "architecture", "cycles", "energy (uJ)", "speedup", "EDP(norm)", "RF accesses"
    );
    let edp = cmp.normalized_edp();
    let speed = cmp.normalized_speedup();
    for (i, r) in cmp.reports().iter().enumerate() {
        let _ = writeln!(
            out,
            "{:<28} {:>12} {:>14.2} {:>9.2}x {:>10.3} {:>12}",
            r.arch.to_string(),
            r.stats.total_cycles,
            r.total_energy_pj() / 1e6,
            speed[i],
            edp[i],
            r.stats.rf.total_accesses(),
        );
    }
    Ok(out)
}

/// `pacq dse`: grid-searches design points (batch × architecture ×
/// precision × width × dup × group) over the `--shape` layer's n×k on
/// the template (or builtin) machine through the one grid engine —
/// sharding, checkpoint resume bound to the (grid × machine × template)
/// digest, report caching. See [`crate::dse`]. Rows print in grid
/// order; jobs other shards own are omitted, and a checkpointed job
/// whose report is not in the cache prints as `done (resumed)`. With
/// `--pareto` the non-dominated (cycles, energy) set is printed as a
/// stable table and recorded in the `--metrics` manifest.
fn dse(args: &Args, knobs: &Knobs) -> PacqResult<String> {
    let opts = parse_options(args, true)?;
    let shard = args.last("--shard", Shard::parse)?.unwrap_or(Shard::FULL);
    // dse takes no single-point flags: the base is the machine's own
    // runner, and the axes carry every per-point override.
    let base = knobs.runner()?;
    let cfg = *base.config();
    let mut axes = DseAxes::defaults(cfg.dp_width, cfg.adder_tree_duplication, base.group());
    axes.apply(&parse_params(args.values("--param"))?)?;
    let plan = DsePlan::enumerate(&axes, opts.shape.n, opts.shape.k);
    // The checkpoint is bound to grid × machine × template: resuming a
    // half-done run under any other runner is a typed mismatch, never a
    // silent skip.
    let checkpoint = match args.values("--checkpoint").last() {
        Some(path) => Some(SweepCheckpoint::open(path, &plan.binding_digest(&base))?),
        None => None,
    };
    let outcome = {
        let _span = pacq_trace::span("core.dse");
        run_dse(&base, &plan, shard, checkpoint.as_ref())?
    };
    let t = outcome.tally;
    for (name, count) in [
        ("dse.jobs.total", t.total),
        ("dse.jobs.selected", t.selected),
        ("dse.jobs.skipped", t.skipped),
        ("dse.jobs.executed", t.executed),
    ] {
        pacq_trace::add_counter(name, count as u64);
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<32} {:>14} {:>14} {:>14}",
        "design point", "cycles", "energy (uJ)", "EDP (pJ*s)"
    );
    for row in &outcome.rows {
        let id = row.job.id();
        let _ = match &row.report {
            Some(r) => writeln!(
                out,
                "{id:<32} {:>14} {:>14.2} {:>14.6}",
                r.stats.total_cycles,
                r.total_energy_pj() / 1e6,
                r.edp_pj_s,
            ),
            None => writeln!(out, "{id:<32} {:>14}", "done (resumed)"),
        };
    }
    // Rankings must never silently drop rows: resumed rows are
    // rehydrated from --cache inside run_dse; any still left without a
    // report makes every ranking line explicitly partial.
    let unranked = outcome.rows.iter().filter(|r| r.report.is_none()).count();
    let partial = if unranked > 0 {
        format!(" (partial: {unranked} resumed rows excluded)")
    } else {
        String::new()
    };
    // The best completed point by EDP — the headline of a design-space
    // search; ties break by job id, so the winner is byte-identical
    // across --jobs counts and shard interleavings.
    if let Some((job, best)) = crate::dse::best_edp(&outcome.rows) {
        let _ = writeln!(
            out,
            "best EDP: {} ({:.6} pJ*s){partial}",
            job.id(),
            best.edp_pj_s
        );
    }
    if args.has("--pareto") {
        let points: Vec<crate::pareto::ParetoPoint> = outcome
            .rows
            .iter()
            .filter_map(|r| {
                r.report.as_ref().map(|rep| crate::pareto::ParetoPoint {
                    id: r.job.id(),
                    cycles: rep.stats.total_cycles,
                    energy_pj: rep.total_energy_pj(),
                })
            })
            .collect();
        let front = crate::pareto::pareto_front(&points);
        let _ = writeln!(
            out,
            "pareto front ({} of {} points){partial}:",
            front.len(),
            points.len()
        );
        let _ = writeln!(
            out,
            "{:<36} {:>14} {:>14}",
            "design point", "cycles", "energy (uJ)"
        );
        let mut records = Vec::new();
        for p in &front {
            let _ = writeln!(
                out,
                "{:<36} {:>14} {:>14.2}",
                p.id,
                p.cycles,
                p.energy_pj / 1e6
            );
            let mut rec = Json::object();
            rec.set("id", p.id.as_str());
            rec.set("cycles", p.cycles);
            rec.set("energy_pj", p.energy_pj);
            records.push(rec);
        }
        // The front also lands in the --metrics manifest as one
        // structured record (kind "dse.pareto").
        let mut record = Json::object();
        record.set("kind", "dse.pareto");
        record.set("points_ranked", points.len() as u64);
        record.set("points_excluded", unranked as u64);
        record.set("front", Json::Arr(records));
        pacq_trace::record_result("dse.pareto", record);
    }
    let _ = writeln!(
        out,
        "dse: {} points, shard {} selected {}, resumed {}, executed {}{}",
        t.total,
        shard,
        t.selected,
        t.skipped,
        t.executed,
        match &knobs.template {
            Some(tpl) => format!("; template {} ({})", tpl.name, tpl.digest()),
            None => "; builtin machine".to_string(),
        }
    );
    if let Some(c) = &knobs.cache {
        let _ = writeln!(out, "cache: {} hits, {} misses", c.hits(), c.misses());
    }
    Ok(out)
}

/// `pacq cache stats|clear|verify --cache DIR`: maintenance operations
/// on the content-addressed report cache the global `--cache` opened.
/// `verify` exits nonzero (typed, exit code 4) when any entry fails its
/// integrity walk, so CI can gate on store health.
fn cache_cmd(args: &Args, ambient: Option<&Arc<ReportCache>>) -> PacqResult<String> {
    // The action is the positional after the command.
    let action = match args.positionals().nth(1) {
        Some(action @ ("stats" | "clear" | "verify")) => action,
        Some(other) => return Err(does_not_apply(other, "pacq cache")),
        None => return Err(err("cache wants an action: stats, clear or verify")),
    };
    let store = ambient.ok_or_else(|| err("cache wants --cache DIR"))?;
    match action {
        "stats" => {
            let s = store.stats()?;
            Ok(format!(
                "cache {}: {} entries, {} bytes, {} corrupt\n",
                store.dir().display(),
                s.entries,
                s.bytes,
                s.corrupt
            ))
        }
        "clear" => {
            let removed = store.clear()?;
            Ok(format!(
                "cache {}: removed {removed} entries\n",
                store.dir().display()
            ))
        }
        _ => {
            let v = store.verify()?;
            if v.corrupt.is_empty() {
                Ok(format!(
                    "cache {}: {} entries verified OK\n",
                    store.dir().display(),
                    v.valid
                ))
            } else {
                Err(PacqError::invalid_input(
                    "cli::cache verify",
                    format!(
                        "{} of {} entries corrupt: {}",
                        v.corrupt.len(),
                        v.valid + v.corrupt.len(),
                        v.corrupt.join(", ")
                    ),
                ))
            }
        }
    }
}

/// `pacq audit`: cross-checks the two independent simulators (analytic
/// closed forms vs event-driven per-octet replay) counter by counter on
/// a grid of shapes — including ragged ones that exercise the
/// zero-padding path — then verifies the energy/EDP accounting
/// identities and the roofline crossover search against a dense
/// reference scan. With `--cache DIR`, priced reports go through (and
/// into) the store, so the audit doubles as a check that cached reports
/// satisfy the same invariants as fresh ones.
fn audit(args: &Args, knobs: &Knobs) -> PacqResult<String> {
    let (cache, template) = (knobs.cache.as_ref(), knobs.template.as_ref());
    let tolerance_flag = args.last("--tolerance", |v| {
        let t: f64 = v.parse().map_err(|_| err("--tolerance expects a number"))?;
        if !(t > 0.0 && t.is_finite()) {
            return Err(err(format!(
                "--tolerance must be positive and finite, got {t}"
            )));
        }
        Ok(t)
    })?;
    let scale = args.last("--activity-scale", |v| {
        v.parse::<f64>()
            .map_err(|_| err("--activity-scale expects a number"))
    })?;
    if args.has("--activity") {
        return audit_activity(tolerance_flag, scale, template);
    }
    if tolerance_flag.is_some() || scale.is_some() || template.is_some() {
        return Err(err(
            "--tolerance, --activity-scale and --arch-template configure the activity \
             cross-check; pass --activity too",
        ));
    }
    // along_k(16) matches the per-octet schedule's scale granularity, so
    // the replay×octets == analytic identity is exact (see pipeline.rs).
    let group = GroupShape::along_k(16);
    let shapes = [
        GemmShape::new(16, 16, 16),
        GemmShape::new(3, 40, 17),  // ragged: zero-pads to m16n48k32
        GemmShape::new(24, 48, 48), // ragged m only
        GemmShape::new(16, 256, 256),
    ];
    let base = GemmRunner::new().with_cache_opt(cache.cloned());
    let mut cases = 0u64;
    let mut checks = 0u64;
    for width in [4usize, 8] {
        for shape in shapes {
            for arch in Architecture::ALL {
                for precision in WeightPrecision::ALL {
                    let job = DseJob {
                        arch,
                        workload: Workload::new(shape, precision),
                        width,
                        dup: base.config().adder_tree_duplication,
                        group,
                    };
                    checks += audit_point(&job, &base)?;
                    cases += 1;
                }
            }
        }
    }
    let mut roofline_checks = 0u64;
    for (n, k) in [(4096usize, 4096usize), (11008, 4096), (500, 700), (64, 64)] {
        for bits in [16u32, 4, 2] {
            roofline_checks += audit_roofline(n, k, bits)?;
        }
    }
    pacq_trace::add_counter("cli.audit.checks", checks + roofline_checks);
    Ok(format!(
        "audit OK: {checks} counter/energy checks across {cases} replay cases \
(shapes incl. ragged, INT4/INT2, DP-4/DP-8) and {roofline_checks} roofline \
crossover checks (FP16/INT4/INT2 weights)\n"
    ))
}

/// `pacq audit --activity`: simulates both multiplier netlists over the
/// reference operand streams at both precisions, prices the toggle
/// histograms through the per-gate-class energy BOM, and cross-checks
/// every activity-derived pJ/op figure against its analytic
/// counterpart. The first point whose relative error exceeds the
/// declared tolerance is a typed [`PacqError::AuditMismatch`]
/// (exit code 7) naming the diverging unit. Every point — numbers,
/// toggle histogram, tolerance — is recorded in the metrics manifest.
///
/// Tolerance resolution: `--tolerance` and a template's
/// `audit.activity_tolerance` conflict; either alone wins over
/// [`activity::DEFAULT_TOLERANCE`]. `--activity-scale` multiplies the
/// BOM's per-toggle energies (tests use it to smoke the mismatch path).
fn audit_activity(
    tolerance_flag: Option<f64>,
    scale: Option<f64>,
    template: Option<&ArchTemplate>,
) -> PacqResult<String> {
    use crate::activity::{self, UnitCalibration};

    let template_tolerance = template.and_then(|t| t.activity_tolerance);
    let tolerance = match (tolerance_flag, template_tolerance) {
        (Some(_), Some(_)) => {
            return Err(err(
                "--tolerance conflicts with the template's audit.activity_tolerance",
            ))
        }
        (Some(t), None) | (None, Some(t)) => t,
        (None, None) => activity::DEFAULT_TOLERANCE,
    };
    let bom = match scale {
        Some(s) => pacq_energy::ActivityBom::calibrated().with_scale(s)?,
        None => pacq_energy::ActivityBom::calibrated(),
    };
    let points = activity::calibrate(&bom, activity::DEFAULT_OPS, activity::DEFAULT_SEED)?;

    let record = |p: &UnitCalibration| {
        let mut result = Json::object();
        result.set("kind", "audit.activity");
        result.set("unit", p.unit_token());
        result.set("precision", p.precision_token());
        result.set("analytic_pj_per_op", p.analytic_pj_per_op);
        result.set("activity_pj_per_op", p.activity_pj_per_op);
        result.set("activity_pj_per_cycle", p.activity_pj_per_cycle);
        result.set("rel_error", p.rel_error());
        result.set("tolerance", tolerance);
        result.set("ops", p.profile.ops);
        result.set("seed", p.profile.seed);
        result.set("lanes", p.profile.lanes);
        result.set("total_toggles", p.profile.total_toggles);
        result.set("logic_toggles", p.profile.logic_toggles());
        let mut hist = Json::object();
        for &(class, toggles) in &p.profile.toggles_by_class {
            hist.set(class, toggles);
        }
        result.set("toggles_by_class", hist);
        pacq_trace::record_result(
            format!("audit.activity.{}.{}", p.precision_token(), p.unit_token()),
            result,
        );
    };

    let mut table = String::new();
    for p in &points {
        record(p);
        let _ = writeln!(
            table,
            "  {:<8} {:<4}  analytic {:>8.4} pJ/op  activity {:>8.4} pJ/op  rel {:>+7.1}%",
            p.unit_token(),
            p.precision_token(),
            p.analytic_pj_per_op,
            p.activity_pj_per_op,
            100.0 * p.rel_error()
        );
        // `!(.. <= ..)` so a NaN relative error also trips the check.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(p.rel_error().abs() <= tolerance) {
            return Err(PacqError::AuditMismatch {
                counter: format!(
                    "activity.{}.{}.pj_per_op",
                    p.unit_token(),
                    p.precision_token()
                ),
                case: format!(
                    "{} multiplier at {} (ops {}, seed {:#x}, tolerance {tolerance})",
                    p.unit_token(),
                    p.precision_token(),
                    p.profile.ops,
                    p.profile.seed
                ),
                observed: format!("{:.4} pJ/op (activity-derived)", p.activity_pj_per_op),
                expected: format!(
                    "{:.4} pJ/op (analytic, within ±{tolerance} relative)",
                    p.analytic_pj_per_op
                ),
            });
        }
    }
    pacq_trace::add_counter("audit.activity.checks", points.len() as u64);
    Ok(format!(
        "audit OK (activity): {} multiplier points within tolerance ±{tolerance} \
(ops {}, seed {:#x})\n{table}",
        points.len(),
        activity::DEFAULT_OPS,
        activity::DEFAULT_SEED
    ))
}

/// Audits one design point on `base`'s machine: every traffic counter
/// of the analytic engine must equal the per-octet replay scaled by the
/// warp-tile octet count, and the priced report must satisfy its own
/// accounting identities.
fn audit_point(job: &DseJob, base: &GemmRunner) -> PacqResult<u64> {
    let runner = job.runner(base);
    let (arch, wl, cfg) = (job.arch, job.workload, runner.config());
    let case = format!("{wl} on {arch} (DP-{})", cfg.dp_width);
    let analytic = simulate(arch, wl, cfg, runner.group())?;
    let octets = wl.shape.padded_to_tiles().warp_tiles() * 4;
    let replay = OctetPipeline::new().run(&octet_schedule(arch, wl.precision, cfg));

    let pairs = [
        ("rf.a_reads", replay.rf.a_reads, analytic.rf.a_reads),
        ("rf.b_reads", replay.rf.b_reads, analytic.rf.b_reads),
        ("rf.c_reads", replay.rf.c_reads, analytic.rf.c_reads),
        ("rf.c_writes", replay.rf.c_writes, analytic.rf.c_writes),
        ("rf.a_bits", replay.rf.a_bits, analytic.rf.a_bits),
        ("rf.b_bits", replay.rf.b_bits, analytic.rf.b_bits),
        ("rf.c_bits", replay.rf.c_bits, analytic.rf.c_bits),
        ("buffer_fills", replay.buffer_fills, analytic.buffer_fills),
        (
            "buffer_evictions",
            replay.buffer_evictions,
            analytic.buffer_evictions,
        ),
        (
            "fetch_instructions",
            replay.fetch_instructions,
            analytic.fetch_instructions,
        ),
    ];
    for (counter, per_octet, total) in pairs {
        let observed = per_octet * octets;
        if observed != total {
            return Err(PacqError::AuditMismatch {
                counter: counter.to_string(),
                case,
                observed: format!("{observed} (replay {per_octet} x {octets} octets)"),
                expected: format!("{total} (analytic)"),
            });
        }
    }

    // The priced report's EDP / energy-BOM / Figure-7 identities —
    // through the cache when one is attached, so cached entries face the
    // same checks as fresh ones.
    let report = runner.analyze(arch, wl)?;
    report.check_invariants()?;
    Ok(pairs.len() as u64 + 3)
}

/// Audits the roofline crossover search for one layer: the
/// galloping-plus-binary search must agree exactly with a dense 16-step
/// reference scan, and a layer whose intensity saturates below the
/// ridge must be a typed error, not a sentinel batch.
fn audit_roofline(n: usize, k: usize, bits: u32) -> PacqResult<u64> {
    let cfg = SmConfig::volta_like();
    let case = format!("roofline n{n} k{k} w{bits}");
    let fast = roofline::crossover_batch_with_weight_bits(n, k, bits, &cfg);

    let mut reference = None;
    let mut m = 16usize;
    while m <= (1 << 20) {
        let a = roofline::analyze_with_weight_bits(GemmShape::new(m, n, k), bits, &cfg);
        if a.bound == roofline::Bound::ComputeBound {
            reference = Some(m);
            break;
        }
        m += 16;
    }

    match (&fast, reference) {
        (Ok(f), Some(r)) if *f == r => Ok(1),
        (Err(e), None) if !e.is_usage() => Ok(1),
        _ => Err(PacqError::AuditMismatch {
            counter: "roofline.crossover_batch".to_string(),
            case,
            observed: match &fast {
                Ok(f) => format!("m={f}"),
                Err(e) => format!("error ({e})"),
            },
            expected: match reference {
                Some(r) => format!("m={r} (reference linear scan)"),
                None => "saturating-layer error (reference scan never crosses)".to_string(),
            },
        }),
    }
}

/// `pacq trace`: replays one warp-tile octet through the event-driven
/// pipeline and writes the cycle-resolved activity as Chrome trace_event
/// JSON (1 trace microsecond = 1 SM cycle).
fn trace(args: &Args, knobs: &Knobs) -> PacqResult<String> {
    let opts = parse_options(args, false)?;
    let arch = opts.arch;
    let out = args
        .values("--out")
        .last()
        .ok_or_else(|| err("--out PATH is required for trace"))?;
    let runner = runner_for(&opts, knobs)?;
    let schedule = octet_schedule(arch, opts.precision, runner.config());
    let (replay, events) = OctetPipeline::new().run_traced(&schedule);

    let mut chrome = ChromeTrace::new();
    let mut lanes: Vec<(u64, String)> = Vec::new();
    for e in &events {
        let lane_name = match e.kind {
            "compute" => "DP compute".to_string(),
            "evict A" => "A-buffer evictions".to_string(),
            _ => format!("RF port {}", e.lane),
        };
        if !lanes.iter().any(|(l, _)| *l == e.lane) {
            lanes.push((e.lane, lane_name));
        }
        if e.dur == 0 {
            chrome.instant_event(e.kind, "octet", 1, e.lane, e.start);
        } else {
            chrome.complete_event(e.kind, "octet", 1, e.lane, e.start, e.dur, &[]);
        }
    }
    lanes.sort_by_key(|(l, _)| *l);
    for (lane, name) in &lanes {
        chrome.name_lane(1, *lane, name);
    }
    chrome.set_metadata("architecture", Json::from(arch.to_string()));
    chrome.set_metadata("precision", Json::from(opts.precision.to_string()));
    chrome.set_metadata("cycles", Json::from(replay.cycles));
    chrome.set_metadata("time_units", Json::from("1 trace microsecond = 1 SM cycle"));
    chrome.write_to(out)?;
    Ok(format!(
        "wrote Chrome trace: {} events over {} cycles ({} stall) -> {out}\n",
        events.len(),
        replay.cycles,
        replay.fetch_stall_cycles,
    ))
}

fn report_text(r: &GemmReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "workload:        {}", r.workload);
    let _ = writeln!(out, "architecture:    {}", r.arch);
    let _ = writeln!(out, "total cycles:    {}", r.stats.total_cycles);
    let _ = writeln!(out, "  tensor core:   {}", r.stats.tc_cycles);
    let _ = writeln!(out, "  general core:  {}", r.stats.general_cycles);
    let _ = writeln!(out, "latency:         {:.3} us", r.latency_s * 1e6);
    let _ = writeln!(out, "energy:          {:.3} uJ", r.total_energy_pj() / 1e6);
    let _ = writeln!(out, "  tensor core:   {:.3} uJ", r.energy.tc_pj / 1e6);
    let _ = writeln!(out, "  register file: {:.3} uJ", r.energy.rf_pj / 1e6);
    let _ = writeln!(out, "  L1:            {:.3} uJ", r.energy.l1_pj / 1e6);
    let _ = writeln!(out, "  DRAM:          {:.3} uJ", r.energy.dram_pj / 1e6);
    let _ = writeln!(out, "  general core:  {:.3} uJ", r.energy.general_pj / 1e6);
    let _ = writeln!(out, "EDP:             {:.6} pJ*s", r.edp_pj_s);
    let _ = writeln!(out, "RF accesses:     {}", r.stats.rf.total_accesses());
    let _ = writeln!(out, "fetch instrs:    {}", r.stats.fetch_instructions);
    let _ = writeln!(out, "buffer evicts:   {}", r.stats.buffer_evictions);
    out
}

/// The `--json` rendering of one report (human-oriented: floats are
/// rounded for reading; the lossless wire form is the cache entry /
/// serve reply codec, `GemmReport::to_json`). Public so the serve
/// conformance suite can pin the one-shot CLI path against it.
pub fn report_json(r: &GemmReport) -> String {
    // Hand-rolled JSON keeps the dependency set minimal; all values are
    // numbers or simple strings, so no escaping is needed.
    format!(
        concat!(
            "{{\n",
            "  \"workload\": \"{}\",\n",
            "  \"architecture\": \"{}\",\n",
            "  \"total_cycles\": {},\n",
            "  \"tc_cycles\": {},\n",
            "  \"general_cycles\": {},\n",
            "  \"latency_s\": {:e},\n",
            "  \"energy_pj\": {:.3},\n",
            "  \"energy_breakdown_pj\": {{\n",
            "    \"tensor_core\": {:.3},\n",
            "    \"register_file\": {:.3},\n",
            "    \"l1\": {:.3},\n",
            "    \"dram\": {:.3},\n",
            "    \"buffers\": {:.3},\n",
            "    \"general_core\": {:.3}\n",
            "  }},\n",
            "  \"edp_pj_s\": {:e},\n",
            "  \"rf_accesses\": {},\n",
            "  \"fetch_instructions\": {},\n",
            "  \"buffer_evictions\": {}\n",
            "}}\n"
        ),
        r.workload,
        r.arch,
        r.stats.total_cycles,
        r.stats.tc_cycles,
        r.stats.general_cycles,
        r.latency_s,
        r.total_energy_pj(),
        r.energy.tc_pj,
        r.energy.rf_pj,
        r.energy.l1_pj,
        r.energy.dram_pj,
        r.energy.buffer_pj,
        r.energy.general_pj,
        r.edp_pj_s,
        r.stats.rf.total_accesses(),
        r.stats.fetch_instructions,
        r.stats.buffer_evictions,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// `argv(cmd)` followed by `tail` verbatim (paths may hold spaces).
    fn with(cmd: &str, tail: &[&str]) -> Vec<String> {
        let mut args = argv(cmd);
        args.extend(tail.iter().map(|s| s.to_string()));
        args
    }

    #[test]
    fn parse_shape_accepts_paper_notation() {
        let s = parse_shape("m16n4096k4096").expect("parses");
        assert_eq!((s.m, s.n, s.k), (16, 4096, 4096));
        assert!(parse_shape("m16k16n16").is_err()); // wrong order
        assert!(parse_shape("16n16k16").is_err());
        assert!(parse_shape("m15n16k16").is_err()); // misaligned
        assert!(parse_shape("m0n16k16").is_err());
    }

    #[test]
    fn parse_group_variants() {
        assert_eq!(parse_group("g128").unwrap(), GroupShape::G128);
        assert_eq!(parse_group("g32x4").unwrap(), GroupShape::G32X4);
        assert_eq!(parse_group("g64").unwrap(), GroupShape::along_k(64));
        assert!(parse_group("h128").is_err());
    }

    #[test]
    fn help_and_empty() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&argv("help")).unwrap().contains("USAGE"));
    }

    #[test]
    fn analyze_produces_report() {
        let out = run(&argv("analyze --shape m16n256k256 --arch pacq")).expect("runs");
        assert!(out.contains("PacQ"));
        assert!(out.contains("total cycles"));
        assert!(out.contains("EDP"));
    }

    #[test]
    fn analyze_json_is_wellformed_enough() {
        let out = run(&argv("analyze --shape m16n256k256 --json")).expect("runs");
        assert!(out.trim_start().starts_with('{'));
        assert!(out.trim_end().ends_with('}'));
        assert!(out.contains("\"total_cycles\""));
        assert_eq!(out.matches('{').count(), out.matches('}').count());
    }

    #[test]
    fn compare_lists_three_architectures() {
        let out = run(&argv("compare --shape m16n256k256")).expect("runs");
        assert!(out.contains("Standard"));
        assert!(out.contains("P(B_x)_k"));
        assert!(out.contains("PacQ"));
    }

    #[test]
    fn jobs_flag_is_accepted_everywhere() {
        let _guard = crate::par::test_lock();
        let grid = "dse --shape m16n256k256 --param batch=16 --param arch=pacq,packedk \
                    --param width=4,8,16";
        let out = run(&argv(&format!("{grid} --jobs 2"))).expect("runs");
        assert!(out.contains("b16:pacq:int4:w16:d2:g128"), "{out}");
        let serial = run(&argv(&format!("{grid} --jobs 1"))).expect("runs");
        assert_eq!(out, serial, "dse output must not depend on the job count");
        crate::par::configure_jobs(Some(0));
        assert!(run(&argv("analyze --shape m16n16k16 --jobs many")).is_err());
    }

    #[test]
    fn zero_jobs_rejected_with_usage_error() {
        let _guard = crate::par::test_lock();
        for cmd in [
            "analyze --shape m16n16k16 --jobs 0",
            "compare --shape m16n16k16 --jobs=0",
            "dse --shape m16n16k16 --jobs 0",
        ] {
            let err = run(&argv(cmd)).unwrap_err();
            assert!(err.is_usage(), "{cmd}: {err}");
            assert_eq!(err.exit_code(), 2, "{cmd}");
        }
    }

    #[test]
    fn zero_jobs_env_rejected() {
        let _guard = crate::par::test_lock();
        std::env::set_var(crate::par::JOBS_ENV, "0");
        let err = run(&argv("analyze --shape m16n16k16")).unwrap_err();
        std::env::remove_var(crate::par::JOBS_ENV);
        assert!(err.is_usage(), "{err}");
        assert!(err.to_string().contains("PACQ_JOBS"), "{err}");
    }

    #[test]
    fn exec_runs_and_check_pins_backend_identity() {
        let _guard = crate::par::test_lock();
        let plain = run(&argv("exec --shape m16n32k128 --group g32")).expect("runs");
        let kernel = format!("batched kernel, {})", batch::kernel_variant());
        assert!(plain.contains(&kernel), "{plain}");
        let checked = run(&argv(
            "exec --shape m16n32k128 --arch packedk --precision int2 --group g32 --check",
        ))
        .expect("runs");
        assert!(checked.contains("check OK: scalar reference"), "{checked}");
        assert!(checked.contains("speedup"), "{checked}");
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&argv("analyze")).is_err()); // missing shape
        assert!(run(&argv("analyze --shape m16n16k16 --precision int5")).is_err());
        assert!(run(&argv("dse --param batch=16")).is_err()); // missing shape
        for retired in ["frobnicate", "sweep --param grid --shape m16n16k16"] {
            let e = run(&argv(retired)).unwrap_err();
            assert_eq!(e.exit_code(), 2, "{retired}: {e}");
            assert!(e.to_string().contains("unknown command"), "{retired}: {e}");
        }
        assert!(run(&argv("analyze --shape m16n16k16 --dup 3")).is_err());
    }

    fn tmp_path(tag: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("pacq-cli-test-{}-{tag}.json", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn audit_cross_checks_the_two_simulators() {
        let out = run(&argv("audit")).expect("audit passes");
        assert!(out.contains("audit OK"), "{out}");
        assert!(out.contains("ragged"), "{out}");
        assert!(run(&argv("audit --shape m16n16k16")).is_err());
    }

    #[test]
    fn audit_activity_cross_checks_all_four_points() {
        let out = run(&argv("audit --activity")).expect("activity audit passes");
        assert!(
            out.contains("audit OK (activity): 4 multiplier points"),
            "{out}"
        );
        for token in ["baseline", "parallel", "int4", "int2"] {
            assert!(out.contains(token), "missing {token} in: {out}");
        }
        // An explicit (achievable) tolerance also passes; a tight one
        // (wider than the anchor's sub-percent residual, tighter than
        // the structural divergence) trips the typed exit-7 mismatch
        // naming the first diverging unit — parallel INT4, the first
        // non-anchored point.
        run(&argv("audit --activity --tolerance 4")).expect("explicit tolerance");
        let e = run(&argv("audit --activity --tolerance 0.01")).unwrap_err();
        assert_eq!(e.exit_code(), 7, "{e}");
        assert!(
            e.to_string().contains("activity.parallel.int4.pj_per_op"),
            "{e}"
        );
        // A perturbed BOM diverges even at the default tolerance —
        // 16x pushes the anchored baseline point far off the analytic
        // figure, so it is named first.
        let e = run(&argv("audit --activity --activity-scale 16")).unwrap_err();
        assert_eq!(e.exit_code(), 7, "{e}");
        assert!(
            e.to_string().contains("activity.baseline.int4.pj_per_op"),
            "{e}"
        );
    }

    #[test]
    fn audit_activity_flag_validation() {
        // Activity options without --activity are usage errors.
        for args in [
            "audit --tolerance 0.5",
            "audit --activity-scale 2",
            "audit --activity --tolerance",
            "audit --activity --tolerance -1",
            "audit --activity --tolerance nan",
            "audit --activity --activity-scale 0",
            "audit --activity --bogus",
        ] {
            assert!(run(&argv(args)).is_err(), "`{args}` must fail");
        }
    }

    #[test]
    fn audit_activity_takes_the_template_tolerance() {
        let mut template = pacq_arch::ArchTemplate::volta_like();
        template.activity_tolerance = Some(0.001);
        let path = tmp_path("audit-template");
        std::fs::write(&path, template.render()).unwrap();
        // The pinned (absurdly tight) tolerance governs the check.
        let e = run(&with("audit --activity --arch-template", &[&path])).unwrap_err();
        assert_eq!(e.exit_code(), 7, "{e}");
        // An explicit --tolerance on top of the pinned one conflicts.
        let e = run(&with(
            "audit --activity --tolerance 4 --arch-template",
            &[&path],
        ))
        .unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
        assert!(e.to_string().contains("conflicts"), "{e}");
        // A template without --activity still does not apply to the
        // replay audit.
        let e = run(&with("audit --arch-template", &[&path])).unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_writes_chrome_trace_json() {
        let path = tmp_path("trace");
        let out =
            run(&with("trace --arch pacq --precision int2 --out", &[&path])).expect("trace runs");
        assert!(out.contains("wrote Chrome trace"), "{out}");
        let text = std::fs::read_to_string(&path).expect("trace file exists");
        let doc = pacq_trace::Json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert!(!events.is_empty(), "trace has events");
        // Every event carries a phase; timed phases also carry a
        // timestamp (metadata `"M"` events are timeless per the spec).
        for e in events {
            let ph = e.get("ph").and_then(|p| p.as_str()).unwrap();
            assert!(ph == "M" || e.get("ts").is_some(), "{text}");
        }
        std::fs::remove_file(&path).ok();
        assert!(run(&argv("trace")).is_err(), "--out is required");
    }

    #[test]
    fn metrics_flag_writes_a_schema_valid_manifest() {
        let _guard = crate::par::test_lock();
        let path = tmp_path("metrics");
        let out = run(&with(
            "analyze --shape m16n256k256",
            &[&format!("--metrics={path}")],
        ))
        .expect("analyze runs");
        assert!(out.contains("total cycles"));
        let text = std::fs::read_to_string(&path).expect("manifest exists");
        let doc = pacq_trace::Json::parse(&text).expect("valid JSON");
        pacq_trace::validate_manifest(&doc).expect("schema-valid manifest");
        // The analyzed report landed in the results section.
        let results = doc.get("results").and_then(|r| r.as_arr()).unwrap();
        assert!(
            results
                .iter()
                .any(|r| r.get("total_cycles").is_some() && r.get("edp_pj_s").is_some()),
            "{text}"
        );
        std::fs::remove_file(&path).ok();
        assert!(run(&argv("analyze --shape m16n16k16 --metrics")).is_err());
    }

    fn tmp_dir(tag: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("pacq-cli-test-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn sweep_grid_prints_rows_and_tally() {
        // A flag-less dse runs the default grid; the m of --shape is not
        // a batch.
        let out = run(&argv("dse --shape m64n256k256")).expect("runs");
        assert!(out.contains("b512:pacq:int2:w4:d2:g128"), "{out}");
        assert!(out.contains("b16:std:int4:w4:d2:g128"), "{out}");
        assert!(
            out.contains("dse: 36 points, shard 1/1 selected 36, resumed 0, executed 36"),
            "{out}"
        );
    }

    #[test]
    fn sweep_grid_shards_split_the_rows() {
        let full = run(&argv("dse --shape m16n256k256")).unwrap();
        let a = run(&argv("dse --shape m16n256k256 --shard 1/2")).unwrap();
        let b = run(&argv("dse --shape m16n256k256 --shard 2/2")).unwrap();
        assert!(a.contains("selected 18"), "{a}");
        assert!(b.contains("selected 18"), "{b}");
        // Every full-grid row lands in exactly one shard's output.
        for line in full.lines().filter(|l| l.contains(":g128 ")) {
            assert!(
                a.contains(line) ^ b.contains(line),
                "row `{line}` must be in exactly one shard"
            );
        }
    }

    #[test]
    fn sweep_grid_resumes_from_checkpoint() {
        let path = tmp_path("ckpt");
        std::fs::remove_file(&path).ok();
        let first =
            run(&with("dse --shape m16n256k256 --checkpoint", &[&path])).expect("first pass runs");
        assert!(first.contains("executed 36"), "{first}");
        let second =
            run(&with("dse --shape m16n256k256 --checkpoint", &[&path])).expect("resume runs");
        assert!(second.contains("done (resumed)"), "{second}");
        assert!(second.contains("resumed 36, executed 0"), "{second}");
        // A checkpoint written for a different grid must be a typed
        // error, not a silent fresh start.
        let err = run(&with("dse --shape m16n512k512 --checkpoint", &[&path])).unwrap_err();
        assert!(err.to_string().contains("checkpoint"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_and_checkpoint_are_grid_only() {
        for command in ["analyze", "compare", "exec"] {
            let err =
                run(&argv(&format!("{command} --shape m16n256k256 --shard 1/2"))).unwrap_err();
            assert!(
                err.to_string()
                    .contains(&format!("`--shard` does not apply to `pacq {command}`")),
                "{err}"
            );
        }
        for bad in ["0/4", "5/4", "+1/4", "1of4", "1/0"] {
            let err = run(&with("dse --shape m16n256k256 --shard", &[bad])).unwrap_err();
            assert!(err.is_usage(), "--shard {bad}: {err}");
        }
    }

    #[test]
    fn cache_flag_memoizes_and_subcommands_manage_the_store() {
        let dir = tmp_dir("cache");
        let cached = |cmd: &str| run(&with(&format!("{cmd} --cache"), &[&dir]));
        let cold = cached("analyze --shape m16n256k256 --arch pacq").expect("cold run");
        let warm = cached("analyze --shape m16n256k256 --arch pacq").expect("warm run");
        assert_eq!(cold, warm, "cached report must render identically");

        let stats = cached("cache stats").expect("stats");
        assert!(stats.contains("1 entries"), "{stats}");
        let verify = cached("cache verify").expect("verify");
        assert!(verify.contains("verified OK"), "{verify}");

        // Corrupt the single entry: verify now fails with the typed
        // invalid-input exit code, while analyze still succeeds (a bad
        // entry is a miss, never an error).
        let entry = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .find(|e| e.path().extension().is_some_and(|x| x == "json"))
            .expect("one cache entry")
            .path();
        std::fs::write(&entry, "{\"schema\": \"pacq-cache/v1\", \"tru").unwrap();
        let err = cached("cache verify").unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        let healed = cached("analyze --shape m16n256k256 --arch pacq").expect("recomputes");
        assert_eq!(healed, cold);

        let cleared = cached("cache clear").expect("clear");
        assert!(cleared.contains("removed"), "{cleared}");
        assert!(run(&argv("cache stats")).is_err(), "--cache is required");
        // `--cache` is the one flag that names the store.
        let e = run(&with("cache stats --dir", &[&dir])).unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
        assert!(e.to_string().contains("does not apply"), "{e}");
        assert!(cached("cache frobnicate").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hot_flag_requires_a_cache_and_validates_its_capacity() {
        // --hot without --cache is a usage error: there is no store to
        // front.
        let err = run(&argv("analyze --shape m16n256k256 --hot 8")).unwrap_err();
        assert!(err.is_usage(), "{err}");
        assert!(err.to_string().contains("--cache"), "{err}");

        let dir = tmp_dir("hotcli");
        for bad in ["0", "-1", "4.0", "nope", ""] {
            let args = with(
                "analyze --shape m16n256k256 --cache",
                &[&dir, &format!("--hot={bad}")],
            );
            let err = run(&args).unwrap_err();
            assert_eq!(err.exit_code(), 2, "--hot {bad}: {err}");
        }

        // With a store, --hot N is accepted (both spellings) and the
        // warm run renders identically to the cold one.
        let hot = |cmd: &str| run(&with(&format!("{cmd} --cache"), &[&dir, "--hot", "8"]));
        let cold = hot("analyze --shape m16n256k256 --arch pacq").expect("cold run");
        let warm = hot("analyze --shape m16n256k256 --arch pacq").expect("warm run");
        assert_eq!(cold, warm);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flags_a_command_would_ignore_are_usage_errors() {
        // Every row used to exit 0 with the flag silently dropped. The
        // error names both the flag and the command.
        const SHAPE: &str = "--shape m16n256k256";
        for (command, rest, flag) in [
            ("dse", SHAPE, "--precision int2"),
            ("dse", SHAPE, "--arch pacq"),
            ("dse", SHAPE, "--dup 4"),
            ("dse", SHAPE, "--width 8"),
            ("dse", SHAPE, "--group g64"),
            ("dse", SHAPE, "--json"),
            ("dse", SHAPE, "--check"),
            ("compare", SHAPE, "--pareto"),
            ("analyze", SHAPE, "--shard 1/2"),
            ("analyze", SHAPE, "--checkpoint f"),
            ("analyze", SHAPE, "--param x"),
            ("analyze", SHAPE, "--out y"),
            ("analyze", SHAPE, "--check"),
            ("compare", SHAPE, "--arch pacq"),
            ("compare", SHAPE, "--json"),
            ("exec", SHAPE, "--json"),
            // Execution is fixed DP-4 on the builtin machine.
            ("exec", SHAPE, "--dup 4"),
            ("exec", SHAPE, "--width 16"),
            ("exec", SHAPE, "--arch-template t.json"),
            // Neither reads the report store.
            ("exec", SHAPE, "--cache d"),
            ("exec", SHAPE, "--hot 4"),
            ("trace", "--out t.json", "--cache d"),
            ("trace", "--out t.json", "--hot 4"),
            ("trace", "--out t.json", "--shape m16n16k16"),
            ("trace", "--out t.json", "--group g64"),
        ] {
            let err = run(&argv(&format!("{command} {rest} {flag}"))).unwrap_err();
            let name = flag.split(' ').next().unwrap_or(flag);
            assert_eq!(err.exit_code(), 2, "{command} {flag}: {err}");
            assert!(
                err.to_string()
                    .contains(&format!("`{name}` does not apply to `pacq {command}`")),
                "{command} {flag}: {err}"
            );
        }
        // loadgen reads the store only for the server it spawns; the
        // refusal comes before any connection is tried.
        let dir = tmp_dir("loadgen-store");
        for target in ["--addr 127.0.0.1:1", "--ready-log never.log"] {
            let err = run(&with(&format!("loadgen {target} --cache"), &[&dir])).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{target}: {err}");
            assert!(
                err.to_string()
                    .contains("`--cache` does not apply to `pacq loadgen` without --spawn"),
                "{target}: {err}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_param_duplicates_and_value_lists_are_usage_errors() {
        // The --param regression table (alongside the --jobs cases
        // above): every row used to be accepted silently.
        for cmd in [
            "dse --shape m16n256k256 --param batch=16 --param batch=32",
            "dse --shape m16n256k256 --param batch=16 --param arch=pacq --param batch=16",
            "dse --shape m16n256k256 --param batch=16,,32",
            "dse --shape m16n256k256 --param batch=",
            "dse --shape m16n256k256 --param =16",
            "dse --shape m16n256k256 --param batch",
            "dse --shape m16n256k256 --param grid",
            "dse --shape m16n256k256 --param tile=4",
        ] {
            let err = run(&argv(cmd)).unwrap_err();
            assert!(err.is_usage(), "{cmd}: {err}");
            assert_eq!(err.exit_code(), 2, "{cmd}");
        }
    }

    #[test]
    fn dse_params_shape_the_search_and_shards_compose() {
        let out = run(&argv(
            "dse --shape m16n256k256 --param batch=16,32 --param arch=pacq --param width=4,8",
        ))
        .expect("runs");
        assert!(out.contains("dse: 8 points"), "{out}");
        assert!(out.contains("b32:pacq:int2:w8:d2:g128"), "{out}");
        let a = run(&argv(
            "dse --shape m16n256k256 --param batch=16,32 --param arch=pacq --shard 1/2",
        ))
        .unwrap();
        assert!(a.contains("selected 2"), "{a}");
        // Single-value flags are rejected: axes go through --param.
        let err = run(&argv("dse --shape m16n256k256 --arch pacq")).unwrap_err();
        assert!(err.is_usage(), "{err}");
        let err = run(&argv("dse --shape m16n256k256 --dup 4")).unwrap_err();
        assert!(err.is_usage(), "{err}");
    }

    #[test]
    fn dse_checkpoint_resumes_and_binds_to_the_run() {
        let path = tmp_path("dse-ckpt");
        std::fs::remove_file(&path).ok();
        let base = "dse --shape m16n256k256 --param batch=16,32 --param arch=pacq";
        let args = with(&format!("{base} --checkpoint"), &[&path]);
        let first = run(&args).expect("first pass");
        assert!(first.contains("executed 4"), "{first}");
        let second = run(&args).expect("resume");
        assert!(second.contains("resumed 4, executed 0"), "{second}");
        // A different search over the same checkpoint is a typed error.
        // So is the same search over a different layer.
        for other in [
            "dse --shape m16n256k256 --param batch=16 --param arch=pacq",
            "dse --shape m16n512k512 --param batch=16,32 --param arch=pacq",
        ] {
            let err = run(&with(&format!("{other} --checkpoint"), &[&path])).unwrap_err();
            assert_eq!(err.exit_code(), 4, "{err}");
            assert!(
                err.to_string().contains("belongs to a different run"),
                "{err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn analyze_and_audit_cover_the_input_stationary_flow() {
        let out = run(&argv("analyze --shape m16n256k256 --arch is")).expect("runs");
        assert!(out.contains("Input-stationary"), "{out}");
        assert!(out.contains("total cycles"), "{out}");
        let alias =
            run(&argv("analyze --shape m16n256k256 --arch input-stationary")).expect("runs");
        assert_eq!(out, alias);
    }

    #[test]
    fn dse_pareto_prints_a_stable_front_and_records_it() {
        let base = "dse --shape m16n256k256 --param batch=16,32 \
                    --param arch=std,packedk,is,pacq --pareto";
        let out = run(&argv(base)).expect("runs");
        assert!(out.contains("pareto front ("), "{out}");
        assert!(out.contains("of 16 points"), "{out}");
        // Determinism: a second run and a different job count render
        // the identical front bytes.
        let _guard = crate::par::test_lock();
        let again = run(&argv(&format!("{base} --jobs 1"))).expect("runs");
        let front_of = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("pareto front"))
                .take_while(|l| !l.starts_with("dse:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(front_of(&out), front_of(&again), "{out}\n---\n{again}");
        // The front lands in the --metrics manifest as a dse.pareto
        // record.
        let path = tmp_path("pareto-manifest");
        run(&with(base, &[&format!("--metrics={path}")])).expect("runs with metrics");
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = pacq_trace::Json::parse(&text).unwrap();
        let results = doc.get("results").and_then(|r| r.as_arr()).unwrap();
        let pareto = results
            .iter()
            .find(|r| r.get("kind").and_then(pacq_trace::Json::as_str) == Some("dse.pareto"))
            .unwrap_or_else(|| panic!("no dse.pareto record in {text}"));
        let count = |key: &str| pareto.get(key).and_then(pacq_trace::Json::as_num);
        assert_eq!(count("points_ranked"), Some(16.0), "{text}");
        assert_eq!(count("points_excluded"), Some(0.0), "{text}");
        let front = pareto.get("front").and_then(|f| f.as_arr()).unwrap();
        assert!(!front.is_empty(), "{text}");
        for point in front {
            let pacq_trace::Json::Obj(fields) = point else {
                panic!("front entry is not an object: {text}");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["id", "cycles", "energy_pj"], "{text}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dse_resumed_rankings_rehydrate_or_flag_partial() {
        // The resume-then-rank regression, end to end: with --cache the
        // resumed pass rehydrates every row and reprints the complete
        // ranking; without it the best-EDP line says what's missing
        // instead of silently excluding the resumed rows.
        let dir = tmp_dir("dse-rehydrate");
        let ckpt = tmp_path("dse-rehydrate-ckpt");
        std::fs::remove_file(&ckpt).ok();
        let base = "dse --shape m16n256k256 --param batch=16,32 --param arch=pacq,is --pareto";
        let with = |extra: &[&str]| with(base, &[extra, &["--checkpoint", &ckpt]].concat());
        let first = run(&with(&["--cache", &dir])).expect("first pass");
        assert!(first.contains("executed 8"), "{first}");
        let best_line = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("best EDP"))
                .map(str::to_string)
                .unwrap_or_default()
        };
        assert!(!best_line(&first).contains("partial"), "{first}");

        let resumed = run(&with(&["--cache", &dir])).expect("cached resume");
        assert!(resumed.contains("resumed 8, executed 0"), "{resumed}");
        assert_eq!(
            best_line(&first),
            best_line(&resumed),
            "rehydrated ranking must equal the fresh one\n{first}\n---\n{resumed}"
        );
        assert!(!resumed.contains("done (resumed)"), "{resumed}");

        // Cache-less resume: rows can't rehydrate, so the ranking and
        // the Pareto header are explicitly partial (and no best-EDP
        // winner is invented from zero completed rows).
        let dry = run(&with(&[])).expect("cache-less resume");
        assert!(dry.contains("resumed 8, executed 0"), "{dry}");
        assert!(dry.contains("(partial: 8 resumed rows excluded)"), "{dry}");
        assert!(!dry.contains("best EDP:"), "{dry}");

        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    fn write_template(tag: &str, text: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("pacq-cli-tpl-{}-{tag}.json", std::process::id()));
        std::fs::write(&p, text).unwrap();
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn arch_template_flag_reproduces_the_builtin_machine() {
        // The template names the machine and --arch the dataflow; the
        // two compose, and without --arch the dataflow is PacQ, template
        // or not.
        let path = write_template("volta", &crate::ArchTemplate::volta_like().render());
        for arch in ["", " --arch std", " --arch is"] {
            let cmd = format!("analyze --shape m16n256k256{arch}");
            let builtin = run(&argv(&cmd)).expect("builtin runs");
            let templated = run(&with(&format!("{cmd} --arch-template"), &[&path])).expect("runs");
            assert_eq!(
                builtin, templated,
                "`{cmd}`: the volta-like template must reproduce the hardcoded report"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn arch_template_errors_are_typed() {
        // Missing file: I/O error, exit 6.
        let err = run(&argv(
            "analyze --shape m16n16k16 --arch-template /nonexistent/x.json",
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 6, "{err}");
        // A broken template and a TOML document: typed template
        // errors, exit 9, naming the file.
        for (tag, text) in [
            ("broken", "{\"schema\": \"pacq-arch/v2\", \"name\": \"x\"}"),
            ("toml", "schema = \"pacq-arch/v2\"\nname = \"x\"\n"),
        ] {
            let path = write_template(tag, text);
            let err = run(&with(
                "analyze --shape m16n16k16",
                &[&format!("--arch-template={path}")],
            ))
            .unwrap_err();
            assert_eq!(err.exit_code(), 9, "{tag}: {err}");
            assert!(err.to_string().contains(&path), "{err}");
            std::fs::remove_file(&path).ok();
        }
        // Commands with no machine to describe reject the flag.
        let path = write_template("volta2", &crate::ArchTemplate::volta_like().render());
        let err = run(&with("audit --arch-template", &[&path])).unwrap_err();
        assert!(err.is_usage(), "{err}");
        std::fs::remove_file(&path).ok();
        // And a missing value is a usage error.
        assert!(run(&argv("analyze --shape m16n16k16 --arch-template")).is_err());
    }

    #[test]
    fn editing_a_template_invalidates_cache_and_checkpoint() {
        let dir = tmp_dir("tpl-cache");
        let ckpt = tmp_path("tpl-ckpt");
        std::fs::remove_file(&ckpt).ok();
        let template = crate::ArchTemplate::volta_like();
        let path = write_template("evolving", &template.render());

        let grid_args = |tpl: &str| {
            let flags = [dir.as_str(), "--checkpoint", &ckpt, "--arch-template", tpl];
            with("dse --shape m16n256k256 --cache", &flags)
        };
        let first = run(&grid_args(&path)).expect("first pass");
        assert!(first.contains("executed 36"), "{first}");
        let warm = run(&grid_args(&path)).expect("warm pass");
        assert!(warm.contains("resumed 36, executed 0"), "{warm}");

        // Edit one access energy: same SmConfig, different machine.
        let mut edited = template.clone();
        edited.l1_pj = Some(3.5);
        std::fs::write(&path, edited.render()).unwrap();
        let err = run(&grid_args(&path)).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        assert!(
            err.to_string().contains("belongs to a different run"),
            "{err}"
        );

        // Without the stale checkpoint the run proceeds — and gets zero
        // cache hits, because the template digest is in every key.
        let fresh = with("dse --shape m16n256k256 --cache", &[&dir]);
        let out = run(&[fresh, with("--arch-template", &[&path])].concat())
            .expect("edited template runs");
        assert!(out.contains("cache: 0 hits, 36 misses"), "{out}");

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_value_flag_takes_both_spellings() {
        // For every value flag of every command, `--f=V` parses the
        // same as `--f V`; a switch given `=V` is a usage error.
        for command in COMMANDS.map(|c| c.split(' ').next().unwrap()) {
            let flags = command_flags(command).unwrap();
            let entry = format!("pacq {command}");
            let accepted = format!("{GLOBAL_FLAGS} {flags}");
            for flag in accepted.split_whitespace() {
                let joined = Args::parse(&argv(&format!("{command} {flag}=V")), &entry, &accepted);
                if crate::args::takes_value(flag) {
                    let split =
                        Args::parse(&argv(&format!("{command} {flag} V")), &entry, &accepted);
                    assert_eq!(joined.unwrap(), split.unwrap(), "{entry} {flag}");
                } else {
                    let e = joined.unwrap_err();
                    assert_eq!(e.exit_code(), 2, "{entry} {flag}: {e}");
                }
            }
        }
        // End to end: per-command and global flags take `=V` too, and a
        // flag a command does not take still names the command.
        assert_eq!(
            run(&argv("analyze --shape=m16n256k256 --arch=is")).unwrap(),
            run(&argv("analyze --shape m16n256k256 --arch is")).unwrap()
        );
        let e = run(&argv("audit --shape=m16n16k16")).unwrap_err();
        assert!(
            e.to_string()
                .contains("`--shape` does not apply to `pacq audit`"),
            "{e}"
        );
        let dir = tmp_dir("dir-equals");
        let stats = run(&with("cache stats", &[&format!("--cache={dir}")])).unwrap();
        assert!(stats.contains("0 entries"), "{stats}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn options_affect_the_simulation() {
        let d1 = run(&argv("analyze --shape m16n256k256 --dup 1")).unwrap();
        let d4 = run(&argv("analyze --shape m16n256k256 --dup 4")).unwrap();
        assert_ne!(d1, d4);
        let int2 = run(&argv("analyze --shape m16n256k256 --precision int2")).unwrap();
        assert!(int2.contains("INT2"));
    }
}

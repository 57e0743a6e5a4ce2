//! Event-driven octet pipeline: a second, finer-grained simulator that
//! executes the Figure 3 schedule cycle by cycle with explicit operand
//! buffers, fetch-port contention and issue intervals.
//!
//! The analytic engine in [`crate::dataflow`] folds the per-step loop
//! into closed-form counts; this module *replays* the same schedule
//! event by event, so the two can be checked against each other
//! (`tests::event_matches_analytic_*`). It also exposes a cycle-resolved
//! trace for inspecting stalls, which the analytic model cannot provide.

use crate::config::{Architecture, SmConfig};
use crate::stats::RfTraffic;
use pacq_fp16::WeightPrecision;

/// What one fetch instruction moves from the register file into an
/// operand buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchKind {
    /// Activation sub-tile (2×w elements; two of these per A tile).
    ATile {
        /// Elements moved.
        elements: u64,
    },
    /// Weight tile: FP16 elements or packed words.
    BTile {
        /// RF reads performed (elements or words).
        reads: u64,
        /// Bits moved.
        bits: u64,
    },
    /// Partial-sum read (weight-stationary movement only).
    CRead {
        /// Elements read.
        elements: u64,
    },
    /// Partial-sum / result write.
    CWrite {
        /// Elements written.
        elements: u64,
    },
}

/// One compute step of the octet schedule.
#[derive(Debug, Clone)]
pub struct ScheduleStep {
    /// Fetch instructions that must complete before the step issues.
    pub fetches: Vec<FetchKind>,
    /// Number of DP issues this step makes (per DP unit).
    pub issues: u64,
    /// Issue interval of each issue (cycles the DP is occupied).
    pub issue_interval: u64,
    /// A-buffer evictions this step forces (the Figure 4(b) pathology of
    /// k-packed processing): one per output column whose processing
    /// displaces the aligned A sub-tile — 4 per step for `P(B_x)_k`,
    /// 0 for the other flows.
    pub a_evictions: u64,
}

/// Cycle-resolved result of replaying a schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineTrace {
    /// Total cycles from first fetch to last writeback.
    pub cycles: u64,
    /// Cycles the DP units sat idle waiting for operands.
    pub fetch_stall_cycles: u64,
    /// Register-file traffic replayed from the fetches.
    pub rf: RfTraffic,
    /// Operand-buffer fills.
    pub buffer_fills: u64,
    /// Forced operand-buffer evictions.
    pub buffer_evictions: u64,
    /// Fetch instructions issued.
    pub fetch_instructions: u64,
}

/// One cycle-resolved event from a traced replay — the raw material of
/// the Chrome-trace export (`pacq trace`): a fetch occupying a
/// register-file port, a compute issue occupying the octet's DP units,
/// or a forced A-buffer eviction (zero-width marker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineEvent {
    /// What happened: `"A fetch"`, `"B fetch"`, `"C read"`, `"C write"`,
    /// `"compute"`, or `"evict A"`.
    pub kind: &'static str,
    /// Lane the event occupies: fetch-port index for fetches, one lane
    /// past the ports for compute, another for eviction markers.
    pub lane: u64,
    /// Start cycle.
    pub start: u64,
    /// Duration in cycles (fetches take 1; compute `issues ×
    /// issue_interval`; evictions 0).
    pub dur: u64,
}

/// The event-driven octet pipeline.
///
/// `fetch_ports` register-file read ports serve fetch instructions (one
/// instruction per port per cycle); the two operand buffers of Table I
/// allow the next step's fetches to overlap the current step's compute
/// (double buffering).
#[derive(Debug, Clone, Copy)]
pub struct OctetPipeline {
    fetch_ports: u64,
    pipeline_tail: u64,
}

impl OctetPipeline {
    /// A pipeline with the default port count (3; enough that the
    /// baseline flows are compute-bound, matching the paper's speedups —
    /// see DESIGN.md).
    pub fn new() -> Self {
        OctetPipeline {
            fetch_ports: 3,
            pipeline_tail: 3,
        }
    }

    /// Overrides the fetch-port count (for stall studies).
    pub fn with_fetch_ports(mut self, ports: u64) -> Self {
        assert!(ports > 0, "need at least one fetch port");
        self.fetch_ports = ports;
        self
    }

    /// Replays a schedule and returns the trace.
    pub fn run(&self, schedule: &[ScheduleStep]) -> PipelineTrace {
        self.replay(schedule, None)
    }

    /// Replays a schedule and additionally returns the cycle-resolved
    /// event list — same arbitration, bit-identical [`PipelineTrace`].
    pub fn run_traced(&self, schedule: &[ScheduleStep]) -> (PipelineTrace, Vec<PipelineEvent>) {
        let mut events = Vec::new();
        let trace = self.replay(schedule, Some(&mut events));
        (trace, events)
    }

    fn replay(
        &self,
        schedule: &[ScheduleStep],
        mut events: Option<&mut Vec<PipelineEvent>>,
    ) -> PipelineTrace {
        let _span = pacq_trace::span("simt.pipeline.replay");
        let mut trace = PipelineTrace::default();
        // Cycle from which the current step may begin (its fetches can
        // overlap earlier compute thanks to the double buffers).
        let mut cycle: u64 = 0;
        // Earliest cycle the DP units are free.
        let mut dp_free: u64 = 0;
        // Fetch-port arbitration: `used` instructions already issued in
        // `fetch_cycle`.
        let mut fetch_cycle: u64 = 0;
        let mut used: u64 = 0;

        for step in schedule {
            let mut step_ready = cycle;
            for fetch in &step.fetches {
                if fetch_cycle < cycle {
                    fetch_cycle = cycle;
                    used = 0;
                }
                if used >= self.fetch_ports {
                    fetch_cycle += 1;
                    used = 0;
                }
                used += 1;
                let done = fetch_cycle + 1; // 1-cycle RF access
                step_ready = step_ready.max(done);
                trace.fetch_instructions += 1;
                self.account(fetch, &mut trace);
                if let Some(out) = events.as_deref_mut() {
                    out.push(PipelineEvent {
                        kind: fetch_kind_name(fetch),
                        lane: used - 1,
                        start: fetch_cycle,
                        dur: 1,
                    });
                }
            }

            // DP issues wait for operands and the previous issue, but a
            // step with no compute (pure writeback) does not hold the DP.
            if step.issues > 0 {
                let issue_start = dp_free.max(step_ready.saturating_sub(1));
                if issue_start > dp_free {
                    trace.fetch_stall_cycles += issue_start - dp_free;
                }
                if let Some(out) = events.as_deref_mut() {
                    out.push(PipelineEvent {
                        kind: "compute",
                        lane: self.fetch_ports,
                        start: issue_start,
                        dur: step.issues * step.issue_interval,
                    });
                }
                dp_free = issue_start + step.issues * step.issue_interval;
                cycle = issue_start;
            }

            if step.a_evictions > 0 {
                trace.buffer_evictions += step.a_evictions;
                if let Some(out) = events.as_deref_mut() {
                    out.push(PipelineEvent {
                        kind: "evict A",
                        lane: self.fetch_ports + 1,
                        start: cycle,
                        dur: 0,
                    });
                }
            }
        }
        trace.cycles = dp_free + self.pipeline_tail;
        pacq_trace::add_counter("simt.pipeline.replays", 1);
        pacq_trace::add_counter("simt.pipeline.cycles", trace.cycles);
        trace
    }

    fn account(&self, fetch: &FetchKind, trace: &mut PipelineTrace) {
        match *fetch {
            FetchKind::ATile { elements } => {
                trace.rf.a_reads += elements;
                trace.rf.a_bits += elements * 16;
                trace.buffer_fills += 1;
            }
            FetchKind::BTile { reads, bits } => {
                trace.rf.b_reads += reads;
                trace.rf.b_bits += bits;
                trace.buffer_fills += 1;
            }
            FetchKind::CRead { elements } => {
                trace.rf.c_reads += elements;
                trace.rf.c_bits += elements * 16;
            }
            FetchKind::CWrite { elements } => {
                trace.rf.c_writes += elements;
                trace.rf.c_bits += elements * 16;
            }
        }
    }
}

impl Default for OctetPipeline {
    fn default() -> Self {
        Self::new()
    }
}

/// Display name of a fetch kind for traces.
fn fetch_kind_name(fetch: &FetchKind) -> &'static str {
    match fetch {
        FetchKind::ATile { .. } => "A fetch",
        FetchKind::BTile { .. } => "B fetch",
        FetchKind::CRead { .. } => "C read",
        FetchKind::CWrite { .. } => "C write",
    }
}

/// Builds the per-octet schedule of one warp tile (`mma.m16n16k16`) for
/// the given architecture — the explicit loop nest the analytic engine
/// folds.
pub fn octet_schedule(
    arch: Architecture,
    precision: WeightPrecision,
    config: &SmConfig,
) -> Vec<ScheduleStep> {
    let w = config.dp_width as u64;
    let lanes = precision.lanes() as u64;
    let dup = config.adder_tree_duplication as u64;
    let mt = 2u64; // 8 m / 4
    let nt = 2u64; // 8 n / 4
    let kt = 16 / w;

    let mut steps = Vec::new();
    match arch {
        Architecture::StandardDequant => {
            // Movement nt { kt { mt } }, FP16 operands.
            for _n in 0..nt {
                for k in 0..kt {
                    for _m in 0..mt {
                        let mut fetches = vec![
                            FetchKind::ATile { elements: 2 * w },
                            FetchKind::ATile { elements: 2 * w },
                        ];
                        if _m == 0 {
                            // B tile fetched once per (nt, kt), held
                            // across the m loop.
                            fetches.push(FetchKind::BTile {
                                reads: w * 4,
                                bits: w * 4 * 16,
                            });
                        } else {
                            // Refetch-free reuse, but the schedule still
                            // carries a B descriptor with zero traffic.
                        }
                        if k > 0 {
                            fetches.push(FetchKind::CRead { elements: 16 });
                        }
                        fetches.push(FetchKind::CWrite { elements: 16 });
                        steps.push(ScheduleStep {
                            fetches,
                            issues: 16 / config.dp_units_per_octet() as u64,
                            issue_interval: 1,
                            a_evictions: 0,
                        });
                    }
                }
            }
        }
        Architecture::PackedK => {
            for _n in 0..nt {
                for k in 0..kt {
                    for _m in 0..mt {
                        let mut fetches = Vec::new();
                        // Per output column: `lanes`-aligned A fetches
                        // (Figure 4(a)) re-loading the 4m × w sub-tile.
                        for _col in 0..4 {
                            for _i in 0..lanes.min(w) {
                                fetches.push(FetchKind::ATile {
                                    elements: 4 * w / lanes.min(w),
                                });
                            }
                        }
                        if _m == 0 {
                            let words = 4 * w / lanes.clamp(1, 16);
                            fetches.push(FetchKind::BTile {
                                reads: words.max(1),
                                bits: words.max(1) * 16,
                            });
                        }
                        if k > 0 {
                            fetches.push(FetchKind::CRead { elements: 16 });
                        }
                        fetches.push(FetchKind::CWrite { elements: 16 });
                        steps.push(ScheduleStep {
                            fetches,
                            issues: 16 / config.dp_units_per_octet() as u64,
                            issue_interval: 1,
                            // Figure 4(b): each of the 4 output columns
                            // displaces the aligned A sub-tile.
                            a_evictions: 4,
                        });
                    }
                }
            }
        }
        Architecture::InputStationary => {
            // Movement mt { kt { nt } }: the two A sub-tile fetches land
            // on the first n step of each (mt, kt) and the filled buffers
            // stay resident across the n loop; one packed-B fetch streams
            // every step; C moves exactly as in the weight-stationary
            // flows (read past each tile's first k-slice, written every
            // step).
            for _m in 0..mt {
                for k in 0..kt {
                    for n in 0..nt {
                        let mut fetches = Vec::new();
                        if n == 0 {
                            fetches.push(FetchKind::ATile { elements: 2 * w });
                            fetches.push(FetchKind::ATile { elements: 2 * w });
                        }
                        // One packed word covers `lanes` k-values of one
                        // output column → 4 × max(1, w/lanes) word reads
                        // per step.
                        let words = 4 * w.div_ceil(lanes);
                        fetches.push(FetchKind::BTile {
                            reads: words,
                            bits: words * 16,
                        });
                        if k > 0 {
                            fetches.push(FetchKind::CRead { elements: 16 });
                        }
                        fetches.push(FetchKind::CWrite { elements: 16 });
                        steps.push(ScheduleStep {
                            fetches,
                            issues: 16 / config.dp_units_per_octet() as u64,
                            issue_interval: 1,
                            a_evictions: 0,
                        });
                    }
                }
            }
        }
        Architecture::Pacq => {
            let word_cols = (8 / lanes).max(1);
            for _m in 0..mt {
                for _wc in 0..word_cols {
                    for _k in 0..kt {
                        let fetches = vec![
                            FetchKind::ATile { elements: 2 * w },
                            FetchKind::ATile { elements: 2 * w },
                            FetchKind::BTile {
                                reads: w,
                                bits: w * 16,
                            },
                        ];
                        steps.push(ScheduleStep {
                            fetches,
                            issues: 4 / config.dp_units_per_octet() as u64,
                            issue_interval: lanes.div_ceil(dup).max(1),
                            a_evictions: 0,
                        });
                    }
                    // Tile retires: single C writeback from accumulators.
                    steps.push(ScheduleStep {
                        fetches: vec![FetchKind::CWrite {
                            elements: 4 * lanes.min(8),
                        }],
                        issues: 0,
                        issue_interval: 0,
                        a_evictions: 0,
                    });
                }
            }
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GemmShape, Workload};
    use crate::dataflow::simulate;
    use pacq_quant::GroupShape;

    fn event_trace(arch: Architecture, precision: WeightPrecision) -> PipelineTrace {
        let cfg = SmConfig::volta_like();
        let schedule = octet_schedule(arch, precision, &cfg);
        OctetPipeline::new().run(&schedule)
    }

    fn analytic(arch: Architecture, precision: WeightPrecision) -> crate::stats::GemmStats {
        let cfg = SmConfig::volta_like();
        simulate(
            arch,
            Workload::new(GemmShape::M16N16K16, precision),
            &cfg,
            GroupShape::along_k(16),
        )
        .unwrap()
    }

    /// The event-driven replay reproduces the analytic per-octet counts
    /// exactly (scaled by 4 octets × 1 warp tile) — not just RF traffic
    /// but every audited counter. The buffer-fill and fetch-instruction
    /// closed forms historically over/under-counted against the replayed
    /// schedule (Standard: B counted per step instead of per (nt, kt);
    /// PackedK: A refills not counted as fills); this test pins the
    /// reconciled forms.
    #[test]
    fn event_matches_analytic_rf_traffic() {
        for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
            for arch in Architecture::ALL {
                let t = event_trace(arch, precision);
                let a = analytic(arch, precision);
                assert_eq!(
                    t.rf.a_reads * 4,
                    a.rf.a_reads,
                    "{arch:?}/{precision}: A reads"
                );
                assert_eq!(
                    t.rf.b_reads * 4,
                    a.rf.b_reads,
                    "{arch:?}/{precision}: B reads"
                );
                assert_eq!(
                    t.rf.c_reads * 4,
                    a.rf.c_reads,
                    "{arch:?}/{precision}: C reads"
                );
                assert_eq!(
                    t.rf.c_writes * 4,
                    a.rf.c_writes,
                    "{arch:?}/{precision}: C writes"
                );
                assert_eq!(t.rf.a_bits * 4, a.rf.a_bits, "{arch:?}/{precision}: A bits");
                assert_eq!(t.rf.b_bits * 4, a.rf.b_bits, "{arch:?}/{precision}: B bits");
                assert_eq!(t.rf.c_bits * 4, a.rf.c_bits, "{arch:?}/{precision}: C bits");
                assert_eq!(
                    t.buffer_fills * 4,
                    a.buffer_fills,
                    "{arch:?}/{precision}: buffer fills"
                );
                assert_eq!(
                    t.buffer_evictions * 4,
                    a.buffer_evictions,
                    "{arch:?}/{precision}: buffer evictions"
                );
                assert_eq!(
                    t.fetch_instructions * 4,
                    a.fetch_instructions,
                    "{arch:?}/{precision}: fetch instructions"
                );
            }
        }
    }

    /// The replayed counters stay in lockstep with the analytic model on
    /// ragged shapes too: the analytic engine pads onto the tile grid,
    /// so per-octet replay × octets(padded) covers the ragged GEMM.
    #[test]
    fn event_matches_analytic_on_ragged_shapes() {
        let cfg = SmConfig::volta_like();
        for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
            for arch in Architecture::ALL {
                for shape in [GemmShape::new(3, 40, 17), GemmShape::new(24, 48, 48)] {
                    let t = OctetPipeline::new().run(&octet_schedule(arch, precision, &cfg));
                    let a = simulate(
                        arch,
                        Workload::new(shape, precision),
                        &cfg,
                        GroupShape::along_k(16),
                    )
                    .unwrap();
                    let octets = shape.padded_to_tiles().warp_tiles() * 4;
                    assert_eq!(t.rf.a_reads * octets, a.rf.a_reads, "{arch:?}/{shape}: A");
                    assert_eq!(t.rf.b_reads * octets, a.rf.b_reads, "{arch:?}/{shape}: B");
                    assert_eq!(
                        t.buffer_fills * octets,
                        a.buffer_fills,
                        "{arch:?}/{shape}: fills"
                    );
                    assert_eq!(
                        t.buffer_evictions * octets,
                        a.buffer_evictions,
                        "{arch:?}/{shape}: evictions"
                    );
                    assert_eq!(
                        t.fetch_instructions * octets,
                        a.fetch_instructions,
                        "{arch:?}/{shape}: fetches"
                    );
                }
            }
        }
    }

    /// `run_traced` returns the bit-identical trace plus a consistent
    /// event list: one event per fetch/compute/eviction, none extending
    /// past the measured cycle count.
    #[test]
    fn traced_replay_is_bit_identical() {
        let cfg = SmConfig::volta_like();
        for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
            for arch in Architecture::ALL {
                let schedule = octet_schedule(arch, precision, &cfg);
                let plain = OctetPipeline::new().run(&schedule);
                let (traced, events) = OctetPipeline::new().run_traced(&schedule);
                assert_eq!(plain, traced, "{arch:?}/{precision}");
                let fetches = events.iter().filter(|e| e.kind.contains("fetch")).count()
                    + events.iter().filter(|e| e.kind.starts_with('C')).count();
                assert_eq!(fetches as u64, traced.fetch_instructions);
                let computes = events.iter().filter(|e| e.kind == "compute").count();
                assert_eq!(computes, schedule.iter().filter(|s| s.issues > 0).count());
                for e in &events {
                    assert!(
                        e.start + e.dur <= traced.cycles,
                        "{arch:?}: event {e:?} past end {}",
                        traced.cycles
                    );
                }
            }
        }
    }

    /// Event-driven cycle counts agree with the analytic model within
    /// the pipeline-fill slack (the analytic model adds a fixed tail).
    #[test]
    fn event_matches_analytic_cycles() {
        for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
            for arch in Architecture::ALL {
                let t = event_trace(arch, precision);
                let a = analytic(arch, precision);
                let analytic_cycles = a.tc_cycles; // one warp tile, one wave
                let diff = t.cycles.abs_diff(analytic_cycles);
                assert!(
                    diff <= 8,
                    "{arch:?}/{precision}: event {} vs analytic {}",
                    t.cycles,
                    analytic_cycles
                );
            }
        }
    }

    /// With too few fetch ports the k-packed flow becomes fetch-bound —
    /// the stall the Figure 4(a) extra fetch instructions threaten.
    #[test]
    fn packed_k_stalls_with_one_fetch_port() {
        let cfg = SmConfig::volta_like();
        let schedule = octet_schedule(Architecture::PackedK, WeightPrecision::Int4, &cfg);
        let starved = OctetPipeline::new().with_fetch_ports(1).run(&schedule);
        let fed = OctetPipeline::new().run(&schedule);
        assert!(
            starved.fetch_stall_cycles > fed.fetch_stall_cycles,
            "starved {} vs fed {}",
            starved.fetch_stall_cycles,
            fed.fetch_stall_cycles
        );
        assert!(starved.cycles > fed.cycles);
    }

    /// PacQ issues far fewer fetch instructions than the k-packed flow.
    #[test]
    fn pacq_issues_fewer_fetch_instructions() {
        let pk = event_trace(Architecture::PackedK, WeightPrecision::Int4);
        let pq = event_trace(Architecture::Pacq, WeightPrecision::Int4);
        assert!(pq.fetch_instructions * 3 < pk.fetch_instructions);
    }

    /// Event/analytic agreement holds at every DP width (Figure 12(a)'s
    /// machine variants).
    #[test]
    fn event_matches_analytic_across_dp_widths() {
        for width in [4usize, 8, 16] {
            let mut cfg = SmConfig::volta_like();
            cfg.dp_width = width;
            for arch in Architecture::ALL {
                let schedule = octet_schedule(arch, WeightPrecision::Int4, &cfg);
                let t = OctetPipeline::new().run(&schedule);
                let a = simulate(
                    arch,
                    Workload::new(GemmShape::M16N16K16, WeightPrecision::Int4),
                    &cfg,
                    GroupShape::along_k(16),
                )
                .unwrap();
                assert_eq!(t.rf.a_reads * 4, a.rf.a_reads, "{arch:?} DP-{width}: A");
                assert_eq!(t.rf.b_reads * 4, a.rf.b_reads, "{arch:?} DP-{width}: B");
                let diff = t.cycles.abs_diff(a.tc_cycles);
                assert!(
                    diff <= 8,
                    "{arch:?} DP-{width}: {} vs {}",
                    t.cycles,
                    a.tc_cycles
                );
            }
        }
    }

    /// Evictions appear only in the k-packed schedule.
    #[test]
    fn only_packed_k_evicts() {
        for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
            assert_eq!(
                event_trace(Architecture::StandardDequant, precision).buffer_evictions,
                0
            );
            assert!(event_trace(Architecture::PackedK, precision).buffer_evictions > 0);
            assert_eq!(
                event_trace(Architecture::Pacq, precision).buffer_evictions,
                0
            );
            assert_eq!(
                event_trace(Architecture::InputStationary, precision).buffer_evictions,
                0
            );
        }
    }
}

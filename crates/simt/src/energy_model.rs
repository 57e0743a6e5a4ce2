//! Energy accounting: turns [`GemmStats`] into picojoules and EDP.
//!
//! Composes the `pacq-energy` component/unit/SRAM models with the traffic
//! and cycle counts produced by the dataflow engines — the machinery
//! behind Figure 10's normalized EDP comparison.

use crate::config::{Architecture, SmConfig};
use crate::stats::GemmStats;
use pacq_energy::{Component, GemmUnit, SramModel, ENERGY_UNIT_PJ};

/// Activity-calibrated multiplier energies, in pJ per fully-active
/// cycle, measured by gate-level netlist simulation (`pacq-rtl`) and
/// priced through the per-gate-class BOM of `pacq_energy::activity`.
///
/// When installed on an [`EnergyModel`], these replace the analytic
/// multiplier constants inside every DP-unit price while the rest of
/// each unit's bill of materials (adder trees, accumulator) stays
/// analytic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MulEnergyOverride {
    /// Baseline FP16 multiplier energy per cycle, in pJ.
    pub baseline_pj_per_cycle: f64,
    /// Parallel FP-INT multiplier energy per cycle, in pJ.
    pub parallel_pj_per_cycle: f64,
}

/// Energy model for one simulated machine.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    rf: SramModel,
    l1: SramModel,
    dram: SramModel,
    buffer: SramModel,
    clock_hz: f64,
    /// Activity-calibrated multiplier energies; `None` prices the
    /// multipliers analytically.
    mul_override: Option<MulEnergyOverride>,
}

/// Energy split of one GEMM run, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyReport {
    /// Tensor-core datapath energy.
    pub tc_pj: f64,
    /// Register-file access energy.
    pub rf_pj: f64,
    /// L1 access energy.
    pub l1_pj: f64,
    /// DRAM access energy.
    pub dram_pj: f64,
    /// Operand-buffer energy.
    pub buffer_pj: f64,
    /// General-core energy (unpack, dequant, fixup, scaling).
    pub general_pj: f64,
}

impl EnergyReport {
    /// Total energy in pJ.
    pub fn total_pj(&self) -> f64 {
        self.tc_pj + self.rf_pj + self.l1_pj + self.dram_pj + self.buffer_pj + self.general_pj
    }
}

impl EnergyModel {
    /// Builds the model for a machine configuration.
    pub fn new(config: &SmConfig) -> Self {
        EnergyModel {
            rf: SramModel::new(
                pacq_energy::MemoryKind::RegisterFile,
                config.register_file_bytes,
            ),
            l1: SramModel::new(pacq_energy::MemoryKind::Cache, config.l1_bytes),
            dram: SramModel::dram(),
            buffer: SramModel::volta_operand_buffer(),
            clock_hz: config.clock_hz,
            mul_override: None,
        }
    }

    /// Builds the model from **explicit** per-level SRAM models — the
    /// constructor the `pacq-arch/v2` template layer uses when a
    /// template overrides per-level access energies. [`EnergyModel::new`]
    /// is exactly `with_levels` over the capacity-derived defaults, so a
    /// template that declares no energy overrides prices bit-identically
    /// to the hardcoded configuration.
    pub fn with_levels(
        rf: SramModel,
        l1: SramModel,
        dram: SramModel,
        buffer: SramModel,
        clock_hz: f64,
    ) -> Self {
        EnergyModel {
            rf,
            l1,
            dram,
            buffer,
            clock_hz,
            mul_override: None,
        }
    }

    /// Returns the model with activity-calibrated multiplier energies
    /// installed: DP-unit tensor-core prices substitute the measured
    /// per-cycle multiplier figures for the analytic constants.
    pub fn with_activity_calibrated(mut self, mul: MulEnergyOverride) -> Self {
        self.mul_override = Some(mul);
        self
    }

    /// The installed activity-calibrated multiplier energies, if any.
    pub fn activity_calibrated(&self) -> Option<MulEnergyOverride> {
        self.mul_override
    }

    /// The provenance token of the multiplier energy source, as it
    /// appears in manifests: `"analytic"` or `"activity_calibrated"`.
    pub fn mul_energy_source(&self) -> &'static str {
        if self.mul_override.is_some() {
            "activity_calibrated"
        } else {
            "analytic"
        }
    }

    /// The memory levels in hierarchy order (operand buffer, register
    /// file, L1, DRAM).
    pub fn levels(&self) -> [&SramModel; 4] {
        [&self.buffer, &self.rf, &self.l1, &self.dram]
    }

    /// The canonical identity string of this model's resolved per-level
    /// access energies (exact f64 bit patterns). Folded into cache keys:
    /// two models that price any level differently — even by one ulp —
    /// must never share a content address, whatever configuration or
    /// template produced them.
    pub fn energy_canonical(&self) -> String {
        let mut canonical = format!(
            "buf{:016x},rf{:016x},l1{:016x},dram{:016x}",
            self.buffer.energy_per_word16_pj().to_bits(),
            self.rf.energy_per_word16_pj().to_bits(),
            self.l1.energy_per_word16_pj().to_bits(),
            self.dram.energy_per_word16_pj().to_bits(),
        );
        if let Some(mul) = self.mul_override {
            // An activity-calibrated model must never share a content
            // address with the analytic one (or with a calibration run
            // that measured different figures).
            let _ = core::fmt::Write::write_fmt(
                &mut canonical,
                format_args!(
                    ",mulb{:016x},mulp{:016x}",
                    mul.baseline_pj_per_cycle.to_bits(),
                    mul.parallel_pj_per_cycle.to_bits(),
                ),
            );
        }
        canonical
    }

    /// Energy of one fully-active cycle of a tensor-core DP unit, in
    /// pJ: the analytic price, with the multiplier share substituted by
    /// the activity-calibrated figures when installed. Non-DP units
    /// price analytically either way.
    fn dp_unit_cycle_pj(&self, unit: GemmUnit) -> f64 {
        let analytic = unit.energy_per_cycle_pj();
        let Some(mul) = self.mul_override else {
            return analytic;
        };
        match unit {
            GemmUnit::BaselineDp { width } => {
                analytic
                    + width as f64
                        * (mul.baseline_pj_per_cycle
                            - GemmUnit::BaselineFp16Mul.energy_per_cycle_pj())
            }
            GemmUnit::ParallelDp { width, .. } => {
                analytic
                    + width as f64
                        * (mul.parallel_pj_per_cycle
                            - GemmUnit::ParallelFpIntMul.energy_per_cycle_pj())
            }
            _ => analytic,
        }
    }

    /// The tensor-core unit active on this architecture.
    pub fn tensor_core_unit(arch: Architecture, config: &SmConfig) -> GemmUnit {
        match arch {
            // The input-stationary flow re-orders tile movement but keeps
            // the baseline sequential-weight datapath — no parallel FP-INT
            // multipliers, so it prices like the other baseline flows.
            Architecture::StandardDequant
            | Architecture::PackedK
            | Architecture::InputStationary => GemmUnit::BaselineDp {
                width: config.dp_width,
            },
            Architecture::Pacq => GemmUnit::ParallelDp {
                width: config.dp_width,
                duplication: config.adder_tree_duplication,
            },
        }
    }

    /// Energy of one simulated GEMM.
    pub fn energy(&self, arch: Architecture, config: &SmConfig, stats: &GemmStats) -> EnergyReport {
        // Tensor cores: the per-warp DP units are busy `tc_cycles`, and
        // the SM keeps `concurrent_warps × dp_units_per_warp` units
        // occupied. The unit count multiplies three small machine
        // constants, not counters, and `tc_cycles` is widened to f64
        // before its product, so neither can wrap.
        let dp_unit = Self::tensor_core_unit(arch, config);
        let dp_units_active = (config.concurrent_warps()
            * config.octets_per_warp()
            * config.dp_units_per_octet()) as f64;
        let tc_pj = self.dp_unit_cycle_pj(dp_unit) * stats.tc_cycles as f64 * dp_units_active;

        // Memories: element accesses are 16-bit; level traffic is counted
        // in bits. The one u64 sum, `a_bits + b_bits`, is at most
        // `rf.total_bits()`, which `MAX_COUNTER_PER_MAC` bounds below
        // u64::MAX at `MAX_MACS`; halving `c_bits` only shrinks it. Every
        // other counter reaches `read/write_energy_pj` alone, which
        // widen it to f64 before pricing.
        let rf_pj = self.rf.read_energy_pj(stats.rf.a_bits + stats.rf.b_bits)
            + self.rf.write_energy_pj(stats.rf.c_bits / 2)
            + self.rf.read_energy_pj(stats.rf.c_bits / 2);
        let l1_pj = self.l1.read_energy_pj(stats.l1.read_bits)
            + self.l1.write_energy_pj(stats.l1.write_bits);
        let dram_pj = self.dram.read_energy_pj(stats.dram.read_bits)
            + self.dram.write_energy_pj(stats.dram.write_bits);
        // Each fill writes 128 bits. Scaling the energy rather than the
        // bit count keeps a fill count near `MAX_MACS` from wrapping u64;
        // a power-of-two factor rounds identically either way.
        let buffer_pj = 128.0 * self.buffer.write_energy_pj(stats.buffer_fills);

        // General core: each op count is widened to f64 before its
        // product, so no term is computed in u64.
        let ops = &stats.ops;
        let general_units = ops.unpack_ops as f64 * Component::UnpackShifter.energy_units()
            + ops.dequant_ops as f64 * Component::DequantMultiplier.energy_units()
            + ops.inline_converts as f64 * Component::UnpackShifter.energy_units()
            + ops.offset_fixups as f64 * Component::OffsetFixup.energy_units()
            + ops.scale_applies as f64 * Component::ScaleApply.energy_units()
            + ops.scale_fetches as f64 * 0.2; // scalar fetch + broadcast
        let general_pj = general_units * ENERGY_UNIT_PJ;

        EnergyReport {
            tc_pj,
            rf_pj,
            l1_pj,
            dram_pj,
            buffer_pj,
            general_pj,
        }
    }

    /// Energy-delay product in pJ·s.
    pub fn edp(&self, report: &EnergyReport, stats: &GemmStats) -> f64 {
        report.total_pj() * stats.latency_s(self.clock_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GemmShape, Workload};
    use crate::dataflow::simulate;
    use pacq_fp16::WeightPrecision;
    use pacq_quant::GroupShape;

    fn edp_of(arch: Architecture, shape: GemmShape, precision: WeightPrecision) -> f64 {
        let cfg = SmConfig::volta_like();
        let stats = simulate(
            arch,
            Workload::new(shape, precision),
            &cfg,
            GroupShape::G128,
        )
        .unwrap();
        let model = EnergyModel::new(&cfg);
        let report = model.energy(arch, &cfg, &stats);
        model.edp(&report, &stats)
    }

    #[test]
    fn with_levels_over_defaults_is_identical_to_new() {
        let cfg = SmConfig::volta_like();
        let auto = EnergyModel::new(&cfg);
        let explicit = EnergyModel::with_levels(
            SramModel::new(
                pacq_energy::MemoryKind::RegisterFile,
                cfg.register_file_bytes,
            ),
            SramModel::new(pacq_energy::MemoryKind::Cache, cfg.l1_bytes),
            SramModel::dram(),
            SramModel::volta_operand_buffer(),
            cfg.clock_hz,
        );
        assert_eq!(auto.energy_canonical(), explicit.energy_canonical());
        let stats = simulate(
            Architecture::Pacq,
            Workload::new(GemmShape::new(16, 256, 256), WeightPrecision::Int4),
            &cfg,
            GroupShape::G128,
        )
        .unwrap();
        let a = auto.energy(Architecture::Pacq, &cfg, &stats);
        let b = explicit.energy(Architecture::Pacq, &cfg, &stats);
        assert_eq!(a.total_pj().to_bits(), b.total_pj().to_bits());
        assert_eq!(
            auto.edp(&a, &stats).to_bits(),
            explicit.edp(&b, &stats).to_bits()
        );
    }

    #[test]
    fn energy_canonical_distinguishes_one_level_edits() {
        let cfg = SmConfig::volta_like();
        let base = EnergyModel::new(&cfg);
        let bumped = EnergyModel::with_levels(
            SramModel::with_access_energy(
                pacq_energy::MemoryKind::RegisterFile,
                cfg.register_file_bytes,
                base.levels()[1].energy_per_word16_pj() * (1.0 + 1e-12),
            )
            .unwrap(),
            *base.levels()[2],
            *base.levels()[3],
            *base.levels()[0],
            cfg.clock_hz,
        );
        assert_ne!(base.energy_canonical(), bumped.energy_canonical());
    }

    #[test]
    fn activity_override_substitutes_only_the_multiplier_share() {
        let cfg = SmConfig::volta_like();
        let stats = simulate(
            Architecture::Pacq,
            Workload::new(GemmShape::new(16, 256, 256), WeightPrecision::Int4),
            &cfg,
            GroupShape::G128,
        )
        .unwrap();
        let analytic = EnergyModel::new(&cfg);
        // Installing the analytic figures themselves must be a no-op:
        // the substitution touches exactly the multiplier share.
        let identity = EnergyModel::new(&cfg).with_activity_calibrated(MulEnergyOverride {
            baseline_pj_per_cycle: GemmUnit::BaselineFp16Mul.energy_per_cycle_pj(),
            parallel_pj_per_cycle: GemmUnit::ParallelFpIntMul.energy_per_cycle_pj(),
        });
        let a = analytic.energy(Architecture::Pacq, &cfg, &stats);
        let b = identity.energy(Architecture::Pacq, &cfg, &stats);
        assert!((a.tc_pj - b.tc_pj).abs() / a.tc_pj < 1e-12);
        assert_eq!(a.rf_pj.to_bits(), b.rf_pj.to_bits());

        // A doubled parallel multiplier must raise Pacq tensor-core
        // energy but leave baseline flows untouched.
        let doubled = EnergyModel::new(&cfg).with_activity_calibrated(MulEnergyOverride {
            baseline_pj_per_cycle: GemmUnit::BaselineFp16Mul.energy_per_cycle_pj(),
            parallel_pj_per_cycle: 2.0 * GemmUnit::ParallelFpIntMul.energy_per_cycle_pj(),
        });
        let c = doubled.energy(Architecture::Pacq, &cfg, &stats);
        assert!(c.tc_pj > a.tc_pj * 1.2, "{} !> {}", c.tc_pj, a.tc_pj);
        let std_stats = simulate(
            Architecture::StandardDequant,
            Workload::new(GemmShape::new(16, 256, 256), WeightPrecision::Int4),
            &cfg,
            GroupShape::G128,
        )
        .unwrap();
        let d = analytic.energy(Architecture::StandardDequant, &cfg, &std_stats);
        let e = doubled.energy(Architecture::StandardDequant, &cfg, &std_stats);
        assert_eq!(d.tc_pj.to_bits(), e.tc_pj.to_bits());
    }

    #[test]
    fn activity_override_changes_the_canonical_identity() {
        let cfg = SmConfig::volta_like();
        let base = EnergyModel::new(&cfg);
        assert_eq!(base.mul_energy_source(), "analytic");
        assert!(base.activity_calibrated().is_none());
        let ov = MulEnergyOverride {
            baseline_pj_per_cycle: 0.9,
            parallel_pj_per_cycle: 1.06,
        };
        let calibrated = EnergyModel::new(&cfg).with_activity_calibrated(ov);
        assert_eq!(calibrated.mul_energy_source(), "activity_calibrated");
        assert_eq!(calibrated.activity_calibrated(), Some(ov));
        assert_ne!(base.energy_canonical(), calibrated.energy_canonical());
        assert!(calibrated
            .energy_canonical()
            .starts_with(&base.energy_canonical()));
        let ulp = EnergyModel::new(&cfg).with_activity_calibrated(MulEnergyOverride {
            baseline_pj_per_cycle: f64::from_bits(0.9f64.to_bits() + 1),
            parallel_pj_per_cycle: 1.06,
        });
        assert_ne!(calibrated.energy_canonical(), ulp.energy_canonical());
    }

    #[test]
    fn energy_components_are_positive() {
        let cfg = SmConfig::volta_like();
        let stats = simulate(
            Architecture::Pacq,
            Workload::new(GemmShape::new(16, 256, 256), WeightPrecision::Int4),
            &cfg,
            GroupShape::G128,
        )
        .unwrap();
        let r = EnergyModel::new(&cfg).energy(Architecture::Pacq, &cfg, &stats);
        assert!(r.tc_pj > 0.0);
        assert!(r.rf_pj > 0.0);
        assert!(r.l1_pj > 0.0);
        assert!(r.dram_pj > 0.0);
        assert!(r.general_pj > 0.0);
        assert!(r.total_pj() > r.tc_pj);
    }

    #[test]
    fn buffer_energy_at_the_largest_shapes_does_not_wrap() {
        // Near `MAX_MACS` the fill count times 128 bits passes u64; the
        // buffer energy must still scale with the warp tiles.
        let cfg = SmConfig::volta_like();
        let model = EnergyModel::new(&cfg);
        let edge = (1usize << 51) - 16;
        let tiles = (edge / 16) as f64;
        for (m, n, k) in [(edge, 16, 16), (16, 16, edge), (16, edge, 16)] {
            let shape = GemmShape::try_new(m, n, k).unwrap();
            for arch in Architecture::ALL {
                for precision in WeightPrecision::ALL {
                    let buffer_pj = |shape| {
                        let wl = Workload::new(shape, precision);
                        let stats = simulate(arch, wl, &cfg, GroupShape::G128).unwrap();
                        model.energy(arch, &cfg, &stats).buffer_pj
                    };
                    let (one, big) = (buffer_pj(GemmShape::M16N16K16), buffer_pj(shape));
                    assert!(
                        (big - one * tiles).abs() <= 1e-9 * one * tiles,
                        "{arch:?} {precision:?} {shape:?}: {big} vs {one} per tile"
                    );
                }
            }
        }
    }

    #[test]
    fn every_energy_term_at_the_largest_shapes_does_not_wrap() {
        // Each term recomputed from its counters, every counter widened
        // to f64 on its own, so no sum or product can wrap: a term whose
        // u64 arithmetic wrapped near `MAX_MACS` would miss it by about
        // 2^64 units.
        let cfg = SmConfig::volta_like();
        let model = EnergyModel::new(&cfg);
        let edge = (1usize << 51) - 16;
        let pj_per_bit = |level: &SramModel| level.energy_per_word16_pj() / 16.0;
        let [_, rf, l1, dram] = model.levels().map(pj_per_bit);
        let units = [
            Component::UnpackShifter,
            Component::DequantMultiplier,
            Component::UnpackShifter,
            Component::OffsetFixup,
            Component::ScaleApply,
        ]
        .map(|c| c.energy_units());
        for (m, n, k) in [(edge, 16, 16), (16, 16, edge), (16, edge, 16)] {
            let shape = GemmShape::try_new(m, n, k).unwrap();
            for arch in Architecture::ALL {
                for precision in WeightPrecision::ALL {
                    let wl = Workload::new(shape, precision);
                    let s = simulate(arch, wl, &cfg, GroupShape::G128).unwrap();
                    let e = model.energy(arch, &cfg, &s);
                    let f = |v: u64| v as f64;
                    let dp_units =
                        cfg.concurrent_warps() * cfg.octets_per_warp() * cfg.dp_units_per_octet();
                    let dp = model.dp_unit_cycle_pj(EnergyModel::tensor_core_unit(arch, &cfg));
                    let o = s.ops;
                    let ops = [
                        o.unpack_ops,
                        o.dequant_ops,
                        o.inline_converts,
                        o.offset_fixups,
                        o.scale_applies,
                    ];
                    let general: f64 = ops.iter().zip(units).map(|(&n, u)| f(n) * u).sum();
                    for (term, priced, wide) in [
                        ("tc", e.tc_pj, dp * f(s.tc_cycles) * dp_units as f64),
                        (
                            "rf",
                            e.rf_pj,
                            rf * (f(s.rf.a_bits) + f(s.rf.b_bits) + 2.1 * f(s.rf.c_bits) / 2.0),
                        ),
                        (
                            "l1",
                            e.l1_pj,
                            l1 * (f(s.l1.read_bits) + 1.1 * f(s.l1.write_bits)),
                        ),
                        (
                            "dram",
                            e.dram_pj,
                            dram * (f(s.dram.read_bits) + 1.1 * f(s.dram.write_bits)),
                        ),
                        (
                            "general",
                            e.general_pj,
                            (general + f(o.scale_fetches) * 0.2) * ENERGY_UNIT_PJ,
                        ),
                    ] {
                        assert!(
                            wide > 0.0 && (priced - wide).abs() <= 1e-12 * wide,
                            "{term}: {arch:?} {precision:?} {shape:?}: {priced} vs {wide}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pacq_beats_baselines_on_edp_for_llm_shapes() {
        // Figure 10's ordering: PacQ < P(B)k < Standard for the Llama2
        // FFN shape at batch 16.
        let shape = GemmShape::new(16, 1024, 1024); // scaled-down FFN
        for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
            let std = edp_of(Architecture::StandardDequant, shape, precision);
            let pk = edp_of(Architecture::PackedK, shape, precision);
            let pq = edp_of(Architecture::Pacq, shape, precision);
            assert!(pq < pk, "{precision}: PacQ {pq} !< PackedK {pk}");
            assert!(pq < std, "{precision}: PacQ {pq} !< Standard {std}");
        }
        // At INT4 the packed baseline still beats dequantization; at INT2
        // its A-refetch pathology escalates to the L1 (§III) and can cost
        // more than dequantizing — which is exactly the paper's
        // motivation for fixing the packing direction.
        let std = edp_of(Architecture::StandardDequant, shape, WeightPrecision::Int4);
        let pk = edp_of(Architecture::PackedK, shape, WeightPrecision::Int4);
        assert!(pk < std, "INT4: PackedK {pk} !< Standard {std}");
    }

    #[test]
    fn edp_reduction_matches_fig10_band() {
        // Paper: up to 81.4 % EDP reduction at m16n4096k4096.
        let shape = GemmShape::new(16, 4096, 4096);
        let best = [WeightPrecision::Int4, WeightPrecision::Int2]
            .iter()
            .map(|&p| {
                1.0 - edp_of(Architecture::Pacq, shape, p)
                    / edp_of(Architecture::StandardDequant, shape, p)
            })
            .fold(0.0f64, f64::max);
        assert!(
            (0.75..0.88).contains(&best),
            "best EDP reduction = {best}, paper reports 0.814"
        );
    }
}

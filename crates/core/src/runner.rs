//! The high-level GEMM runner: one object that quantizes, packs,
//! simulates, executes and prices a hyper-asymmetric GEMM on any of the
//! three architectures.

use std::sync::Arc;

use crate::report::GemmReport;
use pacq_cache::{config_canonical, CacheKey, CachedReport, ReportCache};
use pacq_error::PacqResult;
use pacq_fp16::{Backend, NumericsMode, WeightPrecision};
use pacq_quant::{GroupShape, MatrixF16, MatrixF32, PackDim, PackedMatrix, RtnQuantizer};
use pacq_simt::{execute_with_backend, simulate, Architecture, EnergyModel, SmConfig, Workload};
use rayon::prelude::*;

/// End-to-end runner with a fixed machine configuration, quantization
/// group geometry and numerics mode.
///
/// # Examples
///
/// ```
/// use pacq::{Architecture, GemmRunner, GemmShape, Workload};
/// use pacq_fp16::WeightPrecision;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let runner = GemmRunner::new();
/// let wl = Workload::new(GemmShape::new(16, 256, 256), WeightPrecision::Int4);
/// let base = runner.analyze(Architecture::StandardDequant, wl)?;
/// let pacq = runner.analyze(Architecture::Pacq, wl)?;
/// assert!(pacq.edp_pj_s < base.edp_pj_s);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GemmRunner {
    config: SmConfig,
    group: GroupShape,
    numerics: NumericsMode,
    backend: Backend,
    cache: Option<Arc<ReportCache>>,
    record_results: bool,
    /// Explicit per-level energy model (from an architecture template).
    /// `None` means the capacity-derived defaults of
    /// [`EnergyModel::new`].
    energy: Option<EnergyModel>,
    /// Content digest of the architecture template this runner was built
    /// from, if any. Folded into [`GemmRunner::arch_id`] so cache
    /// entries and checkpoints are bound to the template's content.
    template_digest: Option<String>,
}

impl GemmRunner {
    /// A runner with the Table I Volta-like configuration, `g128` groups,
    /// the paper's product-rounding numerics and the batched execution
    /// kernel.
    pub fn new() -> Self {
        GemmRunner {
            config: SmConfig::volta_like(),
            group: GroupShape::G128,
            numerics: NumericsMode::PaperRounded,
            backend: Backend::Batched,
            cache: None,
            record_results: true,
            energy: None,
            template_digest: None,
        }
    }

    /// Replaces the machine configuration.
    pub fn with_config(mut self, config: SmConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the energy model with explicit per-level SRAM models (an
    /// architecture template's energy overrides). Without this, pricing
    /// uses the capacity-derived [`EnergyModel::new`] defaults.
    pub fn with_energy_model(mut self, energy: EnergyModel) -> Self {
        self.energy = Some(energy);
        self
    }

    /// Records the content digest of the architecture template this
    /// runner was configured from. The digest becomes part of
    /// [`GemmRunner::arch_id`], so editing the template invalidates
    /// cache entries and checkpoint bindings even when the edit happens
    /// to leave every `SmConfig` field unchanged.
    pub fn with_template_digest(mut self, digest: impl Into<String>) -> Self {
        self.template_digest = Some(digest.into());
        self
    }

    /// Replaces the quantization group geometry.
    pub fn with_group(mut self, group: GroupShape) -> Self {
        self.group = group;
        self
    }

    /// Replaces the PacQ datapath numerics mode.
    pub fn with_numerics(mut self, numerics: NumericsMode) -> Self {
        self.numerics = numerics;
        self
    }

    /// Replaces the functional compute backend of
    /// [`GemmRunner::execute`]. [`Backend::Scalar`] is the structural
    /// reference the batched kernel is checked against (`pacq exec
    /// --check`, the equivalence suites); both produce bit-identical
    /// results, so the choice is part of neither
    /// [`GemmRunner::cache_key`] nor [`GemmRunner::provenance`].
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Attaches a content-addressed report cache: [`GemmRunner::analyze`]
    /// looks points up before simulating and stores fresh results after.
    pub fn with_cache(mut self, cache: Arc<ReportCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// [`GemmRunner::with_cache`] for an optional handle (the common CLI
    /// shape, where `--cache` may or may not be present).
    pub fn with_cache_opt(mut self, cache: Option<Arc<ReportCache>>) -> Self {
        self.cache = cache;
        self
    }

    /// Disables per-analysis result records in the metrics collector.
    ///
    /// Figure sweeps and `pacq exec` want one result record per point —
    /// that is what `tests/cli_golden.rs` diffs cold against warm. A
    /// serving process answering an unbounded request stream must not:
    /// with recording on, a million-request `pacq serve --metrics` run
    /// accumulates a million `gemm_report` records and renders a ~1 GB
    /// manifest at drain time. The serve path turns recording off and
    /// accounts for traffic through its `serve.*` counters instead.
    pub fn without_result_recording(mut self) -> Self {
        self.record_results = false;
        self
    }

    /// The attached report cache, if any.
    pub fn cache(&self) -> Option<&Arc<ReportCache>> {
        self.cache.as_ref()
    }

    /// The machine configuration.
    pub fn config(&self) -> &SmConfig {
        &self.config
    }

    /// The quantization group geometry.
    pub fn group(&self) -> GroupShape {
        self.group
    }

    /// Analytically simulates `workload` on `arch` and prices it.
    ///
    /// In debug builds every report is additionally audited against the
    /// EDP/energy-BOM/Figure-7 invariants
    /// ([`GemmReport::check_invariants`]); release builds defer that
    /// check to `pacq audit`.
    ///
    /// # Errors
    ///
    /// Propagates [`pacq_simt::simulate`]'s shape/config errors, and (in
    /// debug builds) [`pacq_error::PacqError::AuditMismatch`] if the
    /// priced report violates its own accounting identities.
    pub fn analyze(&self, arch: Architecture, workload: Workload) -> PacqResult<GemmReport> {
        let _span = pacq_trace::span("core.analyze");
        let report = match &self.cache {
            Some(cache) => {
                let key = self.cache_key(arch, workload);
                match cache.get(&key).and_then(Self::accept_hit) {
                    Some(report) => report,
                    None => {
                        let fresh = self.price(arch, workload)?;
                        cache.put_degraded(&key, &fresh.to_cached());
                        fresh
                    }
                }
            }
            None => self.price(arch, workload)?,
        };
        // Cache hits record their result too, so a run served from the
        // store produces a manifest bit-identical (modulo timings) to a
        // fresh one — the property `tests/cli_golden.rs` asserts.
        if self.record_results && pacq_trace::is_enabled() {
            pacq_trace::record_result(
                format!("{}|{}", report.workload, report.arch),
                report.metrics_json(),
            );
        }
        Ok(report)
    }

    /// The energy model pricing this runner's reports: the template's
    /// explicit per-level model when one is attached, otherwise the
    /// capacity-derived defaults for this configuration.
    pub fn energy_model(&self) -> EnergyModel {
        match &self.energy {
            Some(model) => model.clone(),
            None => EnergyModel::new(&self.config),
        }
    }

    /// Simulates and prices one point (the uncached core of
    /// [`GemmRunner::analyze`]).
    fn price(&self, arch: Architecture, workload: Workload) -> PacqResult<GemmReport> {
        let stats = simulate(arch, workload, &self.config, self.group)?;
        let model = self.energy_model();
        let energy = model.energy(arch, &self.config, &stats);
        let edp_pj_s = model.edp(&energy, &stats);
        let report = GemmReport {
            arch,
            workload,
            stats,
            energy,
            latency_s: stats.latency_s(self.config.clock_hz),
            edp_pj_s,
        };
        #[cfg(debug_assertions)]
        report.check_invariants()?;
        Ok(report)
    }

    /// The identity of the architecture *definition* behind this runner:
    /// the template content digest (or `builtin` for the hardcoded
    /// configurations) plus the resolved per-level access energies of the
    /// effective energy model, as exact bit patterns.
    ///
    /// This is the cache-correctness linchpin for templates: `SmConfig`
    /// does not carry access energies, so two templates sharing every
    /// config field but differing in one `access_energy_pj_per_word16`
    /// produce identical `SmConfig`s — and before this segment existed
    /// they collided into one cache entry and one checkpoint binding.
    pub fn arch_id(&self) -> String {
        let source = match &self.template_digest {
            Some(digest) => format!("tpl:{digest}"),
            None => "builtin".to_string(),
        };
        format!("{source};em={}", self.energy_model().energy_canonical())
    }

    /// The full provenance string of this runner for checkpoint binding:
    /// the canonical machine configuration, group geometry, numerics
    /// mode and architecture identity ([`GemmRunner::arch_id`]). A
    /// sweep/dse checkpoint digests this together with the job grid, so
    /// resuming under a different machine or template is a typed
    /// mismatch instead of a silent skip.
    pub fn provenance(&self) -> String {
        format!(
            "{cfg};group={group};numerics={numerics};arch={arch}",
            cfg = config_canonical(&self.config),
            group = self.group,
            numerics = self.numerics_token(),
            arch = self.arch_id(),
        )
    }

    fn numerics_token(&self) -> &'static str {
        match self.numerics {
            NumericsMode::PaperRounded => "rounded",
            NumericsMode::Wide => "wide",
        }
    }

    /// The content address of one analysis point under this runner: the
    /// machine configuration, the workload, a dataflow string that folds
    /// in everything else report-shaping — architecture token, group
    /// geometry, numerics mode — and the architecture identity
    /// ([`GemmRunner::arch_id`]).
    pub fn cache_key(&self, arch: Architecture, workload: Workload) -> CacheKey {
        let dataflow = format!("{}:{}:{}", arch.token(), self.group, self.numerics_token());
        CacheKey::new(
            &self.config,
            workload.shape,
            workload.precision.bits(),
            &dataflow,
            &self.arch_id(),
        )
    }

    /// Probes the attached cache for an already-priced report without
    /// computing on a miss — the rehydration path for checkpoint-resumed
    /// sweep/dse rows, whose reports were priced by an earlier run.
    /// Returns `None` when no cache is attached or the point is absent
    /// (the caller then reports the ranking as partial rather than
    /// silently wrong).
    pub fn cached_report(&self, arch: Architecture, workload: Workload) -> Option<GemmReport> {
        let cache = self.cache.as_ref()?;
        let key = self.cache_key(arch, workload);
        cache.get(&key).and_then(Self::accept_hit)
    }

    /// Converts a stored entry back into a report, rejecting (as a miss)
    /// any entry that decodes but fails the report's own accounting
    /// invariants in debug builds — a tampered entry must degrade to a
    /// recompute, never an error exit.
    fn accept_hit(hit: CachedReport) -> Option<GemmReport> {
        let report = GemmReport::from_cached(hit);
        #[cfg(debug_assertions)]
        if report.check_invariants().is_err() {
            return None;
        }
        Some(report)
    }

    /// Analyzes every `(architecture, workload)` sweep point on the
    /// worker pool, returning reports in input order (the analysis is
    /// deterministic per point, so the sweep result does not depend on
    /// the job count).
    ///
    /// # Errors
    ///
    /// Returns the first point's error in input order; no partial sweep
    /// is returned.
    pub fn analyze_sweep(
        &self,
        points: &[(Architecture, Workload)],
    ) -> PacqResult<Vec<GemmReport>> {
        points
            .to_vec()
            .into_par_iter()
            .map(|(arch, wl)| self.analyze(arch, wl))
            .collect::<Vec<PacqResult<GemmReport>>>()
            .into_iter()
            .collect()
    }

    /// Quantizes FP32 weights with this runner's group geometry and packs
    /// them in the direction `arch` requires (`P(B_x)_n` for PacQ,
    /// `P(B_x)_k` otherwise).
    ///
    /// # Errors
    ///
    /// Propagates the quantizer's degenerate-input errors and the packing
    /// error when the matrix extent is misaligned with the lane count.
    pub fn quantize_and_pack(
        &self,
        weights: &MatrixF32,
        precision: WeightPrecision,
        arch: Architecture,
    ) -> PacqResult<PackedMatrix> {
        let q = RtnQuantizer::new(precision, self.group).quantize(weights)?;
        let dim = match arch {
            Architecture::Pacq => PackDim::N,
            Architecture::PackedK
            | Architecture::StandardDequant
            | Architecture::InputStationary => PackDim::K,
        };
        PackedMatrix::pack(&q, dim)
    }

    /// Functionally executes a GEMM through the modeled datapath.
    ///
    /// # Errors
    ///
    /// See [`pacq_simt::execute`] for the error conditions.
    pub fn execute(
        &self,
        arch: Architecture,
        a: &MatrixF16,
        packed: &PackedMatrix,
    ) -> PacqResult<MatrixF32> {
        execute_with_backend(arch, a, packed, self.numerics, self.backend)
    }
}

impl Default for GemmRunner {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacq_quant::synth::SynthGenerator;
    use pacq_simt::GemmShape;

    #[test]
    fn analyze_produces_consistent_reports() {
        let runner = GemmRunner::new();
        let wl = Workload::new(GemmShape::new(16, 512, 512), WeightPrecision::Int4);
        let r = runner.analyze(Architecture::Pacq, wl).unwrap();
        assert_eq!(r.arch, Architecture::Pacq);
        assert!(r.latency_s > 0.0);
        assert!((r.edp_pj_s - r.total_energy_pj() * r.latency_s).abs() < 1e-9 * r.edp_pj_s);
    }

    #[test]
    fn cached_reports_are_bit_identical_to_fresh_ones() {
        let dir = std::env::temp_dir().join(format!("pacq-runner-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(ReportCache::open(&dir).unwrap());
        let runner = GemmRunner::new().with_cache(Arc::clone(&cache));
        let wl = Workload::new(GemmShape::new(16, 512, 512), WeightPrecision::Int4);

        let fresh = runner.analyze(Architecture::Pacq, wl).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let cached = runner.analyze(Architecture::Pacq, wl).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        assert_eq!(cached.stats, fresh.stats);
        assert_eq!(cached.latency_s.to_bits(), fresh.latency_s.to_bits());
        assert_eq!(cached.edp_pj_s.to_bits(), fresh.edp_pj_s.to_bits());
        assert_eq!(
            cached.total_energy_pj().to_bits(),
            fresh.total_energy_pj().to_bits()
        );

        // A different architecture is a different key.
        runner.analyze(Architecture::PackedK, wl).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn result_recording_can_be_disabled_for_unbounded_streams() {
        // Serialize against every other test that arms the process-wide
        // collector (the CLI --metrics tests share this lock).
        let _guard = crate::par::test_lock();
        let wl = Workload::new(GemmShape::new(16, 256, 256), WeightPrecision::Int4);

        pacq_trace::enable();
        GemmRunner::new()
            .without_result_recording()
            .analyze(Architecture::Pacq, wl)
            .unwrap();
        let (spans, _, results, _) = pacq_trace::drain();
        assert!(
            results.is_empty(),
            "a serve-path runner must not grow the collector per request"
        );
        assert!(
            spans.iter().any(|s| s.name == "core.analyze"),
            "spans still record (and are bounded by the collector's cap)"
        );

        // The default runner keeps the sweep/exec contract: one result
        // record per analysis.
        GemmRunner::new().analyze(Architecture::Pacq, wl).unwrap();
        let (_, _, results, _) = pacq_trace::drain();
        assert_eq!(results.len(), 1);
        pacq_trace::disable();
    }

    #[test]
    fn cache_key_covers_group_and_numerics() {
        let wl = Workload::new(GemmShape::new(16, 512, 512), WeightPrecision::Int4);
        let base = GemmRunner::new().cache_key(Architecture::Pacq, wl);
        let group = GemmRunner::new()
            .with_group(GroupShape::along_k(32))
            .cache_key(Architecture::Pacq, wl);
        let numerics = GemmRunner::new()
            .with_numerics(NumericsMode::Wide)
            .cache_key(Architecture::Pacq, wl);
        assert_ne!(base, group);
        assert_ne!(base, numerics);
    }

    #[test]
    fn cache_key_covers_energy_overrides_and_template_digest() {
        // The key-binding regression: two runners with identical
        // SmConfigs but different per-level access energies (two
        // templates differing in one energy) must never share an entry.
        use pacq_energy::{MemoryKind, SramModel};
        let wl = Workload::new(GemmShape::new(16, 512, 512), WeightPrecision::Int4);
        let base = GemmRunner::new();
        let cfg = *base.config();
        let bumped = EnergyModel::with_levels(
            SramModel::with_access_energy(
                MemoryKind::RegisterFile,
                cfg.register_file_bytes,
                SramModel::volta_register_file().energy_per_word16_pj() * 1.5,
            )
            .unwrap(),
            SramModel::new(MemoryKind::Cache, cfg.l1_bytes),
            SramModel::dram(),
            SramModel::volta_operand_buffer(),
            cfg.clock_hz,
        );
        let overridden = GemmRunner::new().with_energy_model(bumped);
        assert_ne!(
            base.cache_key(Architecture::Pacq, wl),
            overridden.cache_key(Architecture::Pacq, wl),
            "an access-energy edit must change the cache key"
        );

        // A template digest alone (same resolved config and energies)
        // still separates entries: template content is authoritative.
        let tagged = GemmRunner::new().with_template_digest("deadbeef");
        assert_ne!(
            base.cache_key(Architecture::Pacq, wl),
            tagged.cache_key(Architecture::Pacq, wl)
        );
        assert!(tagged.arch_id().starts_with("tpl:deadbeef;em="));
        assert!(base.arch_id().starts_with("builtin;em="));
    }

    #[test]
    fn provenance_covers_machine_group_numerics_and_arch() {
        let base = GemmRunner::new();
        let variants = [
            GemmRunner::new().with_group(GroupShape::along_k(32)),
            GemmRunner::new().with_numerics(NumericsMode::Wide),
            GemmRunner::new().with_template_digest("deadbeef"),
            GemmRunner::new().with_config(SmConfig {
                adder_tree_duplication: 4,
                ..SmConfig::volta_like()
            }),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(
                base.provenance(),
                v.provenance(),
                "provenance variant {i} not bound"
            );
        }
    }

    #[test]
    fn explicit_default_energy_model_prices_bit_identically() {
        // A template with no energy overrides resolves to the same
        // levels as EnergyModel::new — reports must match to the bit.
        let wl = Workload::new(GemmShape::new(16, 512, 512), WeightPrecision::Int4);
        let base = GemmRunner::new();
        let explicit = GemmRunner::new().with_energy_model(EnergyModel::new(base.config()));
        let a = base.analyze(Architecture::Pacq, wl).unwrap();
        let b = explicit.analyze(Architecture::Pacq, wl).unwrap();
        assert_eq!(a.edp_pj_s.to_bits(), b.edp_pj_s.to_bits());
        assert_eq!(a.total_energy_pj().to_bits(), b.total_energy_pj().to_bits());
        // And they share a cache key, because the resolved energies are
        // identical (the em= segment matches).
        assert_eq!(
            base.cache_key(Architecture::Pacq, wl),
            explicit.cache_key(Architecture::Pacq, wl)
        );
    }

    #[test]
    fn execute_matches_the_scalar_reference() {
        // The batched kernel (the default) must reproduce the scalar
        // reference runner to the bit.
        let mut g = SynthGenerator::new(23);
        let a = g.llm_activations(4, 64).to_f16();
        let w = g.llm_weights(64, 16);
        for arch in Architecture::ALL {
            let batched = GemmRunner::new().with_group(GroupShape::along_k(32));
            let scalar = batched.clone().with_backend(Backend::Scalar);
            let p = scalar
                .quantize_and_pack(&w, WeightPrecision::Int4, arch)
                .expect("packs");
            let rs = scalar.execute(arch, &a, &p).unwrap();
            let rb = batched.execute(arch, &a, &p).unwrap();
            for r in 0..rs.rows() {
                for c in 0..rs.cols() {
                    assert_eq!(
                        rs.get(r, c).to_bits(),
                        rb.get(r, c).to_bits(),
                        "{arch:?} ({r},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn quantize_and_pack_picks_the_right_direction() {
        let runner = GemmRunner::new().with_group(GroupShape::along_k(32));
        let w = SynthGenerator::new(5).llm_weights(64, 32);
        let pn = runner
            .quantize_and_pack(&w, WeightPrecision::Int4, Architecture::Pacq)
            .expect("packs");
        assert_eq!(pn.pack_dim(), PackDim::N);
        let pk = runner
            .quantize_and_pack(&w, WeightPrecision::Int4, Architecture::PackedK)
            .expect("packs");
        assert_eq!(pk.pack_dim(), PackDim::K);
        let is = runner
            .quantize_and_pack(&w, WeightPrecision::Int4, Architecture::InputStationary)
            .expect("packs");
        assert_eq!(is.pack_dim(), PackDim::K);
    }

    #[test]
    fn end_to_end_execution_matches_across_flows() {
        // All three flows compute the same quantized GEMM (different
        // schedules of the same arithmetic), so results agree closely.
        let runner = GemmRunner::new()
            .with_group(GroupShape::along_k(32))
            .with_numerics(NumericsMode::Wide);
        let mut g = SynthGenerator::new(17);
        let a = g.llm_activations(4, 64).to_f16();
        let w = g.llm_weights(64, 16);

        let p_n = runner
            .quantize_and_pack(&w, WeightPrecision::Int4, Architecture::Pacq)
            .expect("packs");
        let p_k = runner
            .quantize_and_pack(&w, WeightPrecision::Int4, Architecture::PackedK)
            .expect("packs");

        let std = runner
            .execute(Architecture::StandardDequant, &a, &p_k)
            .unwrap();
        let pk = runner.execute(Architecture::PackedK, &a, &p_k).unwrap();
        let pq = runner.execute(Architecture::Pacq, &a, &p_n).unwrap();

        let err = |x: &MatrixF32, y: &MatrixF32| {
            let d = MatrixF32::from_fn(x.rows(), x.cols(), |r, c| x.get(r, c) - y.get(r, c));
            d.frobenius_norm() / y.frobenius_norm().max(1e-12)
        };
        assert!(err(&pq, &pk) < 5e-3, "PacQ vs PackedK: {}", err(&pq, &pk));
        assert!(
            err(&pq, &std) < 5e-3,
            "PacQ vs Standard: {}",
            err(&pq, &std)
        );
    }
}

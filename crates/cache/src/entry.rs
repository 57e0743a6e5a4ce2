//! The priced report, [`GemmReport`], and its on-disk form: one report
//! as a `pacq-cache/v1` JSON entry.
//!
//! The report lives in this crate, next to its codec, because the codec
//! is keyed by a [`crate::CacheKey`]; the `pacq` crate re-exports it
//! under the same name, so the store, the hot tier, the runner and the
//! server all hand around the one type.
//!
//! The entry must round-trip **bit-exactly**: a cached report has to be
//! indistinguishable from a freshly computed one. Two encoding rules
//! make that hold over the workspace's float-backed JSON model:
//!
//! - every `u64` counter is written as a **decimal string** — an `f64`
//!   JSON number only represents integers exactly up to 2^53, and a
//!   large-shape sweep's bit counters can exceed that;
//! - every `f64` is written as a plain JSON number — the writer emits
//!   the shortest round-trip form, so parsing returns the identical
//!   bits (non-finite values cannot occur in a priced report).

use pacq_error::{PacqError, PacqResult};
use pacq_fp16::WeightPrecision;
use pacq_simt::{
    Architecture, EnergyReport, GemmShape, GemmStats, GeneralCoreOps, LevelTraffic, RfTraffic,
    Workload,
};
use pacq_trace::Json;

/// Schema identifier written into (and required of) every entry.
pub const ENTRY_SCHEMA: &str = "pacq-cache/v1";

/// The stable token for an architecture, used in cache keys and entries
/// (the `Display` form is presentation text, not a wire format). The
/// token table itself is [`Architecture::tokens`]; this function stays
/// exported because the benchmark crate (`perfbench/`) imports it.
pub const fn arch_token(arch: Architecture) -> &'static str {
    arch.token()
}

/// The stable token for a weight precision ([`WeightPrecision::tokens`]);
/// exported for the same reason as [`arch_token`].
pub const fn precision_token(precision: WeightPrecision) -> &'static str {
    precision.token()
}

/// Full analysis of one GEMM on one architecture: traffic, timing,
/// energy, EDP.
#[derive(Debug, Clone, PartialEq)]
pub struct GemmReport {
    /// The architecture simulated.
    pub arch: Architecture,
    /// The workload.
    pub workload: Workload,
    /// Raw simulator statistics.
    pub stats: GemmStats,
    /// Energy split in pJ.
    pub energy: EnergyReport,
    /// End-to-end latency in seconds.
    pub latency_s: f64,
    /// Energy-delay product in pJ·s.
    pub edp_pj_s: f64,
}

impl GemmReport {
    /// Total energy in pJ.
    pub fn total_energy_pj(&self) -> f64 {
        self.energy.total_pj()
    }

    /// Speedup of this report over another (other ÷ self, in cycles).
    pub fn speedup_over(&self, other: &GemmReport) -> f64 {
        other.stats.total_cycles as f64 / self.stats.total_cycles as f64
    }

    /// EDP of this report normalized to another (self ÷ other).
    pub fn edp_normalized_to(&self, other: &GemmReport) -> f64 {
        self.edp_pj_s / other.edp_pj_s
    }

    /// A clone of this report. Nothing in the workspace calls it; it
    /// stays exported because the benchmark crate (`perfbench/`) does.
    pub fn to_cached(&self) -> GemmReport {
        self.clone()
    }

    /// The identity; exported for the same reason as
    /// [`GemmReport::to_cached`].
    pub fn from_cached(report: GemmReport) -> GemmReport {
        report
    }

    /// Internal-consistency audit of this report (DESIGN.md §11).
    ///
    /// Promotes the invariants historically pinned only in unit tests to
    /// first-class checks used by `pacq audit` and (in debug builds) by
    /// every `GemmRunner::analyze` call:
    ///
    /// 1. `edp_pj_s == total_energy_pj * latency_s` (within 1e-9
    ///    relative) — the EDP is a *derived* quantity, never priced
    ///    independently.
    /// 2. The energy bill-of-materials sums: the report total equals the
    ///    sum of the six priced components.
    /// 3. The Figure-7 identity: `rf.total_accesses()` is exactly the
    ///    sum of the four access counters it claims to aggregate.
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::AuditMismatch`] naming the first diverging
    /// quantity.
    pub fn check_invariants(&self) -> PacqResult<()> {
        let case = format!("{} on {}", self.workload, self.arch);
        let mismatch = |counter: &str, observed: String, expected: String| {
            Err(PacqError::AuditMismatch {
                counter: counter.to_string(),
                case: case.clone(),
                observed,
                expected,
            })
        };

        let edp_expected = self.total_energy_pj() * self.latency_s;
        if (self.edp_pj_s - edp_expected).abs() > 1e-9 * edp_expected.abs() {
            return mismatch(
                "edp_pj_s",
                format!("{:e}", self.edp_pj_s),
                format!("{edp_expected:e} (total_energy_pj * latency_s)"),
            );
        }

        let e = &self.energy;
        let bom = e.tc_pj + e.rf_pj + e.l1_pj + e.dram_pj + e.buffer_pj + e.general_pj;
        if (e.total_pj() - bom).abs() > 1e-9 * bom.abs() {
            return mismatch(
                "energy.total_pj",
                format!("{:.6}", e.total_pj()),
                format!("{bom:.6} (component BOM sum)"),
            );
        }

        let rf = &self.stats.rf;
        let accesses = rf.a_reads + rf.b_reads + rf.c_reads + rf.c_writes;
        if rf.total_accesses() != accesses {
            return mismatch(
                "rf.total_accesses",
                rf.total_accesses().to_string(),
                format!("{accesses} (a+b+c reads + c writes)"),
            );
        }
        Ok(())
    }

    /// The report as a [`Json`] object for the run manifest
    /// (`pacq --metrics`, DESIGN.md §11). Field names mirror
    /// `pacq analyze --json`.
    pub fn metrics_json(&self) -> Json {
        let mut shape = Json::object();
        shape.set("m", self.workload.shape.m as u64);
        shape.set("n", self.workload.shape.n as u64);
        shape.set("k", self.workload.shape.k as u64);

        let mut rf = Json::object();
        rf.set("a_reads", self.stats.rf.a_reads);
        rf.set("b_reads", self.stats.rf.b_reads);
        rf.set("c_reads", self.stats.rf.c_reads);
        rf.set("c_writes", self.stats.rf.c_writes);
        rf.set("total_accesses", self.stats.rf.total_accesses());

        let mut energy = Json::object();
        energy.set("tensor_core", self.energy.tc_pj);
        energy.set("register_file", self.energy.rf_pj);
        energy.set("l1", self.energy.l1_pj);
        energy.set("dram", self.energy.dram_pj);
        energy.set("buffers", self.energy.buffer_pj);
        energy.set("general_core", self.energy.general_pj);

        let mut doc = Json::object();
        doc.set("workload", self.workload.to_string());
        doc.set("architecture", self.arch.to_string());
        doc.set("shape", shape);
        doc.set("total_cycles", self.stats.total_cycles);
        doc.set("tc_cycles", self.stats.tc_cycles);
        doc.set("general_cycles", self.stats.general_cycles);
        doc.set("latency_s", self.latency_s);
        doc.set("energy_pj", self.total_energy_pj());
        doc.set("energy_breakdown_pj", energy);
        doc.set("edp_pj_s", self.edp_pj_s);
        doc.set("rf", rf);
        doc.set("fetch_instructions", self.stats.fetch_instructions);
        doc.set("buffer_fills", self.stats.buffer_fills);
        doc.set("buffer_evictions", self.stats.buffer_evictions);
        doc
    }
}

fn decode_error(what: impl Into<String>) -> PacqError {
    PacqError::invalid_input("cache::GemmReport::from_json", what.into())
}

fn set_u64(obj: &mut Json, field: &str, value: u64) {
    obj.set(field, Json::Str(value.to_string()));
}

fn get_u64(obj: &Json, field: &str) -> PacqResult<u64> {
    obj.get(field)
        .and_then(Json::as_str)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| decode_error(format!("missing or non-decimal u64 field `{field}`")))
}

fn get_f64(obj: &Json, field: &str) -> PacqResult<f64> {
    obj.get(field)
        .and_then(Json::as_num)
        .ok_or_else(|| decode_error(format!("missing numeric field `{field}`")))
}

impl GemmReport {
    /// Renders the entry document for `key` (the canonical key string is
    /// embedded so reads can reject digest collisions and `verify` can
    /// re-derive the expected filename).
    pub fn to_json(&self, key: &crate::CacheKey) -> Json {
        let mut shape = Json::object();
        set_u64(&mut shape, "m", self.workload.shape.m as u64);
        set_u64(&mut shape, "n", self.workload.shape.n as u64);
        set_u64(&mut shape, "k", self.workload.shape.k as u64);

        let mut rf = Json::object();
        set_u64(&mut rf, "a_reads", self.stats.rf.a_reads);
        set_u64(&mut rf, "b_reads", self.stats.rf.b_reads);
        set_u64(&mut rf, "c_reads", self.stats.rf.c_reads);
        set_u64(&mut rf, "c_writes", self.stats.rf.c_writes);
        set_u64(&mut rf, "a_bits", self.stats.rf.a_bits);
        set_u64(&mut rf, "b_bits", self.stats.rf.b_bits);
        set_u64(&mut rf, "c_bits", self.stats.rf.c_bits);

        let level = |t: &LevelTraffic| {
            let mut o = Json::object();
            set_u64(&mut o, "reads", t.reads);
            set_u64(&mut o, "writes", t.writes);
            set_u64(&mut o, "read_bits", t.read_bits);
            set_u64(&mut o, "write_bits", t.write_bits);
            o
        };

        let mut ops = Json::object();
        set_u64(&mut ops, "unpack_ops", self.stats.ops.unpack_ops);
        set_u64(&mut ops, "dequant_ops", self.stats.ops.dequant_ops);
        set_u64(&mut ops, "inline_converts", self.stats.ops.inline_converts);
        set_u64(&mut ops, "offset_fixups", self.stats.ops.offset_fixups);
        set_u64(&mut ops, "scale_applies", self.stats.ops.scale_applies);
        set_u64(&mut ops, "scale_fetches", self.stats.ops.scale_fetches);

        let mut stats = Json::object();
        stats.set("rf", rf);
        stats.set("l1", level(&self.stats.l1));
        stats.set("dram", level(&self.stats.dram));
        set_u64(&mut stats, "buffer_fills", self.stats.buffer_fills);
        set_u64(&mut stats, "buffer_evictions", self.stats.buffer_evictions);
        set_u64(
            &mut stats,
            "fetch_instructions",
            self.stats.fetch_instructions,
        );
        set_u64(&mut stats, "tc_cycles", self.stats.tc_cycles);
        set_u64(&mut stats, "general_cycles", self.stats.general_cycles);
        set_u64(&mut stats, "total_cycles", self.stats.total_cycles);
        stats.set("ops", ops);

        let mut energy = Json::object();
        energy.set("tc_pj", self.energy.tc_pj);
        energy.set("rf_pj", self.energy.rf_pj);
        energy.set("l1_pj", self.energy.l1_pj);
        energy.set("dram_pj", self.energy.dram_pj);
        energy.set("buffer_pj", self.energy.buffer_pj);
        energy.set("general_pj", self.energy.general_pj);

        let mut doc = Json::object();
        doc.set("schema", ENTRY_SCHEMA);
        doc.set("key", key.canonical());
        doc.set("arch", arch_token(self.arch));
        doc.set("precision", precision_token(self.workload.precision));
        doc.set("shape", shape);
        doc.set("stats", stats);
        doc.set("energy", energy);
        doc.set("latency_s", self.latency_s);
        doc.set("edp_pj_s", self.edp_pj_s);
        doc
    }

    /// Decodes an entry document, requiring its embedded key to equal
    /// `expected_key` exactly (a digest collision or a mis-filed entry
    /// must decode as "not this point", which the store turns into a
    /// miss).
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::InvalidInput`] naming the first malformed
    /// field; the store treats every error here as a cache miss.
    pub fn from_json(doc: &Json, expected_key: Option<&crate::CacheKey>) -> PacqResult<GemmReport> {
        match doc.get("schema").and_then(Json::as_str) {
            Some(s) if s == ENTRY_SCHEMA => {}
            Some(s) => return Err(decode_error(format!("schema drift: `{s}`"))),
            None => return Err(decode_error("missing string field `schema`")),
        }
        let stored_key = doc
            .get("key")
            .and_then(Json::as_str)
            .ok_or_else(|| decode_error("missing string field `key`"))?;
        if let Some(expected) = expected_key {
            if stored_key != expected.canonical() {
                return Err(decode_error("entry key does not match the requested key"));
            }
        }

        let arch = doc
            .get("arch")
            .and_then(Json::as_str)
            .and_then(Architecture::parse)
            .ok_or_else(|| decode_error("missing or unknown `arch` token"))?;
        let precision = doc
            .get("precision")
            .and_then(Json::as_str)
            .and_then(WeightPrecision::parse)
            .ok_or_else(|| decode_error("missing or unknown `precision` token"))?;

        let shape = doc
            .get("shape")
            .ok_or_else(|| decode_error("missing object field `shape`"))?;
        let (m, n, k) = (
            get_u64(shape, "m")? as usize,
            get_u64(shape, "n")? as usize,
            get_u64(shape, "k")? as usize,
        );
        let shape = GemmShape::try_new(m, n, k).map_err(|e| decode_error(e.to_string()))?;

        let stats_doc = doc
            .get("stats")
            .ok_or_else(|| decode_error("missing object field `stats`"))?;
        let rf_doc = stats_doc
            .get("rf")
            .ok_or_else(|| decode_error("missing object field `stats.rf`"))?;
        let level = |field: &str| -> PacqResult<LevelTraffic> {
            let o = stats_doc
                .get(field)
                .ok_or_else(|| decode_error(format!("missing object field `stats.{field}`")))?;
            Ok(LevelTraffic {
                reads: get_u64(o, "reads")?,
                writes: get_u64(o, "writes")?,
                read_bits: get_u64(o, "read_bits")?,
                write_bits: get_u64(o, "write_bits")?,
            })
        };
        let ops_doc = stats_doc
            .get("ops")
            .ok_or_else(|| decode_error("missing object field `stats.ops`"))?;
        let stats = GemmStats {
            rf: RfTraffic {
                a_reads: get_u64(rf_doc, "a_reads")?,
                b_reads: get_u64(rf_doc, "b_reads")?,
                c_reads: get_u64(rf_doc, "c_reads")?,
                c_writes: get_u64(rf_doc, "c_writes")?,
                a_bits: get_u64(rf_doc, "a_bits")?,
                b_bits: get_u64(rf_doc, "b_bits")?,
                c_bits: get_u64(rf_doc, "c_bits")?,
            },
            l1: level("l1")?,
            dram: level("dram")?,
            buffer_fills: get_u64(stats_doc, "buffer_fills")?,
            buffer_evictions: get_u64(stats_doc, "buffer_evictions")?,
            fetch_instructions: get_u64(stats_doc, "fetch_instructions")?,
            tc_cycles: get_u64(stats_doc, "tc_cycles")?,
            general_cycles: get_u64(stats_doc, "general_cycles")?,
            total_cycles: get_u64(stats_doc, "total_cycles")?,
            ops: GeneralCoreOps {
                unpack_ops: get_u64(ops_doc, "unpack_ops")?,
                dequant_ops: get_u64(ops_doc, "dequant_ops")?,
                inline_converts: get_u64(ops_doc, "inline_converts")?,
                offset_fixups: get_u64(ops_doc, "offset_fixups")?,
                scale_applies: get_u64(ops_doc, "scale_applies")?,
                scale_fetches: get_u64(ops_doc, "scale_fetches")?,
            },
        };

        let energy_doc = doc
            .get("energy")
            .ok_or_else(|| decode_error("missing object field `energy`"))?;
        let energy = EnergyReport {
            tc_pj: get_f64(energy_doc, "tc_pj")?,
            rf_pj: get_f64(energy_doc, "rf_pj")?,
            l1_pj: get_f64(energy_doc, "l1_pj")?,
            dram_pj: get_f64(energy_doc, "dram_pj")?,
            buffer_pj: get_f64(energy_doc, "buffer_pj")?,
            general_pj: get_f64(energy_doc, "general_pj")?,
        };

        Ok(GemmReport {
            arch,
            workload: Workload::new(shape, precision),
            stats,
            energy,
            latency_s: get_f64(doc, "latency_s")?,
            edp_pj_s: get_f64(doc, "edp_pj_s")?,
        })
    }

    /// The canonical key string embedded in a parsed entry document, for
    /// `verify`-style integrity checks.
    pub fn stored_key(doc: &Json) -> Option<&str> {
        doc.get("key").and_then(Json::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheKey;
    use pacq_simt::SmConfig;

    fn sample() -> (CacheKey, GemmReport) {
        let key = CacheKey::new(
            &SmConfig::volta_like(),
            GemmShape::new(16, 256, 256),
            4,
            "pacq:g128:rounded",
            "builtin",
        );
        let report = GemmReport {
            arch: Architecture::Pacq,
            workload: Workload::new(GemmShape::new(16, 256, 256), WeightPrecision::Int4),
            stats: GemmStats {
                rf: RfTraffic {
                    a_reads: 1,
                    b_reads: 2,
                    c_reads: 3,
                    c_writes: 4,
                    a_bits: 5,
                    b_bits: 1 << 60, // beyond f64's exact-integer range
                    c_bits: 7,
                },
                l1: LevelTraffic {
                    reads: 8,
                    writes: 9,
                    read_bits: 10,
                    write_bits: 11,
                },
                dram: LevelTraffic {
                    reads: 12,
                    writes: 13,
                    read_bits: u64::MAX,
                    write_bits: 15,
                },
                buffer_fills: 16,
                buffer_evictions: 17,
                fetch_instructions: 18,
                tc_cycles: 19,
                general_cycles: 20,
                total_cycles: 21,
                ops: GeneralCoreOps {
                    unpack_ops: 22,
                    dequant_ops: 23,
                    inline_converts: 24,
                    offset_fixups: 25,
                    scale_applies: 26,
                    scale_fetches: 27,
                },
            },
            energy: EnergyReport {
                tc_pj: 0.1 + 0.2, // a value with no short decimal form
                rf_pj: 2.0,
                l1_pj: 3.0,
                dram_pj: 4.0,
                buffer_pj: 5.0,
                general_pj: 6.0,
            },
            latency_s: 1.234e-6,
            edp_pj_s: 6.789e-3,
        };
        (key, report)
    }

    #[test]
    fn round_trips_bit_exactly_including_wide_u64s() {
        let (key, report) = sample();
        let text = report.to_json(&key).render();
        let doc = Json::parse(&text).unwrap();
        let back = GemmReport::from_json(&doc, Some(&key)).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.stats.rf.b_bits, 1 << 60);
        assert_eq!(back.stats.dram.read_bits, u64::MAX);
        assert_eq!(back.energy.tc_pj.to_bits(), (0.1f64 + 0.2).to_bits());
    }

    #[test]
    fn key_mismatch_is_rejected() {
        let (key, report) = sample();
        let doc = report.to_json(&key);
        let other = CacheKey::new(
            &SmConfig::volta_like(),
            GemmShape::new(32, 256, 256),
            4,
            "pacq:g128:rounded",
            "builtin",
        );
        assert!(GemmReport::from_json(&doc, Some(&other)).is_err());
        assert!(GemmReport::from_json(&doc, None).is_ok());
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        let (key, report) = sample();
        let good = report.to_json(&key);
        // Drop each top-level field in turn.
        let Json::Obj(entries) = good.clone() else {
            unreachable!()
        };
        for (field, _) in &entries {
            let stripped = Json::Obj(
                entries
                    .iter()
                    .filter(|(k, _)| k != field)
                    .cloned()
                    .collect(),
            );
            assert!(
                GemmReport::from_json(&stripped, Some(&key)).is_err(),
                "must reject entry without `{field}`"
            );
        }
        // A u64 counter stored as a bare number (lossy) is rejected.
        let mut bad = good;
        if let Some(Json::Obj(stats)) = bad.get("stats").cloned() {
            let mut stats_obj = Json::Obj(stats);
            stats_obj.set("total_cycles", Json::from(21u64));
            bad.set("stats", stats_obj);
        }
        assert!(GemmReport::from_json(&bad, Some(&key)).is_err());
    }

    #[test]
    fn tokens_round_trip() {
        for arch in Architecture::ALL {
            assert_eq!(Architecture::parse(arch_token(arch)), Some(arch));
        }
        for p in [WeightPrecision::Int4, WeightPrecision::Int2] {
            assert_eq!(WeightPrecision::parse(precision_token(p)), Some(p));
        }
        assert_eq!(Architecture::parse("volta"), None);
    }
}

//! The `pacq-arch/v2` architecture template: a declarative JSON
//! description of one machine, following FactorFlow's declarative
//! memory-hierarchy idiom and LLMCompass's
//! `read_architecture_template → compile_and_simulate` split.
//!
//! A template names the memory hierarchy (per-level capacities, optional
//! explicit access energies, DRAM bandwidth) and the datapath (DP width,
//! adder-tree duplication, tensor-core counts, clock). It does not name
//! a dataflow: the paper holds the machine fixed and varies the dataflow,
//! so `--arch` picks the dataflow on every command, template or not.
//! The template's [`SmConfig`] and [`EnergyModel`] price every report,
//! and its content digest travels with every derived result (cache keys,
//! checkpoint bindings, run manifests), so an edited template can never
//! satisfy a stale artifact.
//!
//! All schema violations are typed [`PacqError::Template`] errors
//! (exit code 9). See DESIGN.md §18.

use pacq_energy::{MemoryKind, SramModel};
use pacq_error::{PacqError, PacqResult};
use pacq_simt::{EnergyModel, SmConfig};
use pacq_trace::Json;

/// The schema identifier every template must declare.
pub const TEMPLATE_SCHEMA: &str = "pacq-arch/v2";

/// The key of every level's optional access energy.
const ENERGY: &str = "access_energy_pj_per_word16";

/// A parsed `pacq-arch/v2` template: the machine it describes, its name,
/// the per-level access energies it declares and its audit tolerance.
/// Construct via [`ArchTemplate::load`] (or [`ArchTemplate::parse`] then
/// [`ArchTemplate::validate`]) or [`ArchTemplate::volta_like`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArchTemplate {
    /// Human-readable design-point name (letters, digits, `-`, `_`).
    pub name: String,
    /// The machine: datapath, capacities, clock and DRAM bandwidth.
    pub config: SmConfig,
    /// Explicit register-file access energy, pJ per 16-bit word; `None`
    /// derives it from the capacity.
    pub register_file_pj: Option<f64>,
    /// Explicit shared-L1 access energy, pJ per 16-bit word.
    pub l1_pj: Option<f64>,
    /// Explicit operand-buffer access energy, pJ per 16-bit word.
    pub operand_buffer_pj: Option<f64>,
    /// Explicit DRAM access energy, pJ per 16-bit word.
    pub dram_pj: Option<f64>,
    /// Declared tolerance for the `pacq audit --activity` cross-check
    /// (maximum relative error between analytic and activity-derived
    /// multiplier energy). `None` leaves the audit's default in force.
    pub activity_tolerance: Option<f64>,
}

impl ArchTemplate {
    /// The template of the hardcoded Table I machine
    /// ([`SmConfig::volta_like`] with the capacity-derived energies),
    /// the content of the committed `examples/arch/volta_like.json`.
    pub fn volta_like() -> ArchTemplate {
        ArchTemplate {
            name: "volta-like".to_string(),
            config: SmConfig::volta_like(),
            register_file_pj: None,
            l1_pj: None,
            operand_buffer_pj: None,
            dram_pj: None,
            activity_tolerance: None,
        }
    }

    /// Parses a template from JSON text. `context` names the input
    /// (typically the file path) in every error.
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::Template`] for syntax errors, unknown or
    /// duplicate keys, missing required keys, a wrong `schema`, and
    /// type mismatches. Parsing does *not* validate the design point —
    /// call [`ArchTemplate::validate`] (or [`ArchTemplate::load`]).
    pub fn parse(text: &str, context: &str) -> PacqResult<ArchTemplate> {
        let doc = Json::parse(text)
            .map_err(|e| PacqError::template(context, format!("JSON syntax: {e}")))?;
        let root = Table::root(
            &doc,
            context,
            &["schema", "name", "compute", "memory", "audit"],
        )?;
        let schema = root.string("schema")?;
        if schema != TEMPLATE_SCHEMA {
            return Err(root.fail(format!(
                "schema must be \"{TEMPLATE_SCHEMA}\", got \"{schema}\""
            )));
        }
        let compute = root.table(
            "compute",
            &[
                "tensor_cores",
                "dp_units_per_tc",
                "dp_width",
                "adder_tree_duplication",
                "dequant_weights_per_cycle",
                "clock_hz",
            ],
        )?;
        let memory = root.table("memory", &["register_file", "l1", "operand_buffer", "dram"])?;
        let rf = memory.table("register_file", &["capacity_bytes", ENERGY])?;
        let l1 = memory.table("l1", &["capacity_bytes", ENERGY])?;
        let buffer = memory.table("operand_buffer", &["capacity_bits", "count", ENERGY])?;
        let dram = memory.table("dram", &["bandwidth_bytes_per_cycle", ENERGY])?;
        // `audit` is optional: absent means the audit defaults apply.
        let activity_tolerance = match doc.get("audit") {
            Some(_) => root
                .table("audit", &["activity_tolerance"])?
                .optional("activity_tolerance")?,
            None => None,
        };
        Ok(ArchTemplate {
            name: root.string("name")?.to_string(),
            config: SmConfig {
                tensor_cores: compute.count("tensor_cores")?,
                dp_units_per_tc: compute.count("dp_units_per_tc")?,
                dp_width: compute.count("dp_width")?,
                adder_tree_duplication: compute.count("adder_tree_duplication")?,
                operand_buffer_bits: buffer.uint("capacity_bits")?,
                operand_buffers: buffer.count("count")?,
                register_file_bytes: rf.uint("capacity_bytes")?,
                l1_bytes: l1.uint("capacity_bytes")?,
                dequant_weights_per_cycle: compute.number("dequant_weights_per_cycle")?,
                clock_hz: compute.number("clock_hz")?,
                dram_bytes_per_cycle: dram.number("bandwidth_bytes_per_cycle")?,
            },
            register_file_pj: rf.optional(ENERGY)?,
            l1_pj: l1.optional(ENERGY)?,
            operand_buffer_pj: buffer.optional(ENERGY)?,
            dram_pj: dram.optional(ENERGY)?,
            activity_tolerance,
        })
    }

    /// [`ArchTemplate::parse`] followed by [`ArchTemplate::validate`] —
    /// the one call every consumer of user-supplied template text wants.
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::Template`] as for parse and validate.
    pub fn load(text: &str, context: &str) -> PacqResult<ArchTemplate> {
        let template = Self::parse(text, context)?;
        template.validate(context)?;
        Ok(template)
    }

    /// Validates the design point: the datapath domains must hold
    /// ([`SmConfig::validate`]), every declared energy must be positive
    /// and finite, and the resolved per-level energies must respect the
    /// hierarchy ordering `operand buffer < RF < L1 < DRAM` the
    /// dataflow analysis relies on.
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::Template`] naming the first violated rule.
    pub fn validate(&self, context: &str) -> PacqResult<()> {
        let fail = |message: String| -> PacqError { PacqError::template(context, message) };
        let c = &self.config;
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|ch| ch.is_ascii_alphanumeric() || ch == '-' || ch == '_')
        {
            return Err(fail(format!(
                "name `{}` must be non-empty [A-Za-z0-9_-]",
                self.name
            )));
        }
        c.validate().map_err(|e| fail(format!("datapath: {e}")))?;
        if !(c.clock_hz > 0.0 && c.clock_hz.is_finite()) {
            return Err(fail(format!(
                "compute.clock_hz must be positive and finite, got {}",
                c.clock_hz
            )));
        }
        // NaN must fail too, hence the negated comparison.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(c.dram_bytes_per_cycle > 0.0) {
            return Err(fail(format!(
                "memory.dram.bandwidth_bytes_per_cycle must be positive (\"inf\" = unbounded), \
                 got {}",
                c.dram_bytes_per_cycle
            )));
        }
        if c.operand_buffer_bits < 8 || !c.operand_buffer_bits.is_multiple_of(8) {
            return Err(fail(format!(
                "memory.operand_buffer.capacity_bits must be a positive multiple of 8, got {}",
                c.operand_buffer_bits
            )));
        }
        if c.operand_buffers == 0 {
            return Err(fail(
                "memory.operand_buffer.count must be non-zero".to_string(),
            ));
        }
        if c.register_file_bytes == 0 || c.l1_bytes == 0 {
            return Err(fail(
                "memory.register_file and memory.l1 capacities must be non-zero".to_string(),
            ));
        }
        if let Some(t) = self.activity_tolerance {
            if !(t > 0.0 && t.is_finite()) {
                return Err(fail(format!(
                    "audit.activity_tolerance must be positive and finite, got {t}"
                )));
            }
        }
        let model = self.energy_model().map_err(|e| match e {
            PacqError::Template { message, .. } => PacqError::template(context, message),
            other => other,
        })?;
        // Hierarchy ordering of the *resolved* energies — the invariant
        // the paper's traffic analysis (RF ≪ L1 ≪ DRAM) rests on.
        let [buffer, rf, l1, dram] = model.levels();
        let ordered = [
            ("operand buffer", buffer.energy_per_word16_pj()),
            ("register file", rf.energy_per_word16_pj()),
            ("L1", l1.energy_per_word16_pj()),
            ("DRAM", dram.energy_per_word16_pj()),
        ];
        for pair in ordered.windows(2) {
            let [(inner, e_inner), (outer, e_outer)] = pair else {
                continue;
            };
            if e_inner >= e_outer {
                return Err(fail(format!(
                    "inconsistent hierarchy: {inner} access energy ({e_inner} pJ) must be \
                     below {outer} ({e_outer} pJ)"
                )));
            }
        }
        Ok(())
    }

    /// The per-level energy model: declared access energies where the
    /// template gives them, the capacity-derived analytical defaults
    /// everywhere else — so a template with no overrides prices
    /// bit-identically to [`EnergyModel::new`] over its `SmConfig`.
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::Template`] for non-positive or non-finite
    /// declared energies.
    pub fn energy_model(&self) -> PacqResult<EnergyModel> {
        let level = |kind: MemoryKind, capacity: u64, energy: Option<f64>| match energy {
            Some(e) => SramModel::with_access_energy(kind, capacity, e),
            None => Ok(SramModel::new(kind, capacity)),
        };
        let c = &self.config;
        Ok(EnergyModel::with_levels(
            level(
                MemoryKind::RegisterFile,
                c.register_file_bytes,
                self.register_file_pj,
            )?,
            level(MemoryKind::Cache, c.l1_bytes, self.l1_pj)?,
            level(MemoryKind::Dram, 0, self.dram_pj)?,
            level(
                MemoryKind::OperandBuffer,
                c.operand_buffer_bits / 8,
                self.operand_buffer_pj,
            )?,
            c.clock_hz,
        ))
    }

    /// The canonical form: the template as a JSON document in schema key
    /// order, optional keys present only when set, the unbounded DRAM
    /// bandwidth spelled `"inf"` (JSON has no infinity literal).
    /// [`ArchTemplate::parse`] of its rendering reproduces the template
    /// exactly.
    pub fn to_json(&self) -> Json {
        let num = |v: f64| {
            if v == f64::INFINITY {
                Json::from("inf")
            } else {
                Json::Num(v)
            }
        };
        let with_energy = |mut level: Json, energy: Option<f64>| {
            if let Some(e) = energy {
                level.set(ENERGY, num(e));
            }
            level
        };
        let c = &self.config;
        let mut compute = Json::object();
        compute
            .set("tensor_cores", c.tensor_cores)
            .set("dp_units_per_tc", c.dp_units_per_tc)
            .set("dp_width", c.dp_width)
            .set("adder_tree_duplication", c.adder_tree_duplication)
            .set(
                "dequant_weights_per_cycle",
                num(c.dequant_weights_per_cycle),
            )
            .set("clock_hz", num(c.clock_hz));
        let (mut rf, mut l1, mut buffer, mut dram) = (
            Json::object(),
            Json::object(),
            Json::object(),
            Json::object(),
        );
        rf.set("capacity_bytes", c.register_file_bytes);
        l1.set("capacity_bytes", c.l1_bytes);
        buffer
            .set("capacity_bits", c.operand_buffer_bits)
            .set("count", c.operand_buffers);
        dram.set("bandwidth_bytes_per_cycle", num(c.dram_bytes_per_cycle));
        let mut memory = Json::object();
        memory
            .set("register_file", with_energy(rf, self.register_file_pj))
            .set("l1", with_energy(l1, self.l1_pj))
            .set(
                "operand_buffer",
                with_energy(buffer, self.operand_buffer_pj),
            )
            .set("dram", with_energy(dram, self.dram_pj));
        let mut doc = Json::object();
        doc.set("schema", TEMPLATE_SCHEMA)
            .set("name", self.name.as_str())
            .set("compute", compute)
            .set("memory", memory);
        if let Some(t) = self.activity_tolerance {
            let mut audit = Json::object();
            audit.set("activity_tolerance", num(t));
            doc.set("audit", audit);
        }
        doc
    }

    /// The canonical text: [`Json::render`] of [`ArchTemplate::to_json`].
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// The template's content digest: 32 hex characters, two FNV-1a
    /// hashes of the canonical text. This is the identity folded into
    /// cache keys (`tpl:<digest>` in the runner's arch id), checkpoint
    /// bindings and run manifests — any content edit changes it;
    /// whitespace and key order do not.
    pub fn digest(&self) -> String {
        let text = self.render();
        format!(
            "{:016x}{:016x}",
            fnv1a(text.as_bytes(), 0xcbf2_9ce4_8422_2325),
            fnv1a(text.as_bytes(), 0x6c62_272e_07bb_0142)
        )
    }
}

fn fnv1a(bytes: &[u8], offset_basis: u64) -> u64 {
    let mut h = offset_basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One object of a template document and its dotted path, for reading
/// typed values with errors that name the full key.
struct Table<'d> {
    doc: &'d Json,
    path: String,
    context: &'d str,
}

impl<'d> Table<'d> {
    /// The document root, which must be an object holding only `allowed`
    /// keys.
    fn root(doc: &'d Json, context: &'d str, allowed: &[&str]) -> PacqResult<Table<'d>> {
        let root = Table {
            doc,
            path: String::new(),
            context,
        };
        root.check_keys(allowed)?;
        Ok(root)
    }

    fn fail(&self, message: String) -> PacqError {
        PacqError::template(self.context, message)
    }

    /// The dotted path of `key` in this table.
    fn name(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// Rejects a non-object and any key outside `allowed` or given twice
    /// (a typo'd or repeated key must never be silently ignored: it would
    /// change the simulated machine without changing the digest of the
    /// template the author thought they wrote).
    fn check_keys(&self, allowed: &[&str]) -> PacqResult<()> {
        let Json::Obj(entries) = self.doc else {
            return Err(self.fail(format!("`{}` must be an object", self.path)));
        };
        for (i, (key, _)) in entries.iter().enumerate() {
            if !allowed.contains(&key.as_str()) {
                return Err(self.fail(format!(
                    "unknown key `{}` (allowed: {})",
                    self.name(key),
                    allowed.join(", ")
                )));
            }
            if entries[..i].iter().any(|(k, _)| k == key) {
                return Err(self.fail(format!("duplicate key `{}`", self.name(key))));
            }
        }
        Ok(())
    }

    fn field(&self, key: &str) -> PacqResult<&'d Json> {
        self.doc
            .get(key)
            .ok_or_else(|| self.fail(format!("missing required key `{}`", self.name(key))))
    }

    /// The required sub-object `key`, holding only `allowed` keys.
    fn table(&self, key: &str, allowed: &[&str]) -> PacqResult<Table<'d>> {
        let table = Table {
            doc: self.field(key)?,
            path: self.name(key),
            context: self.context,
        };
        table.check_keys(allowed)?;
        Ok(table)
    }

    fn string(&self, key: &str) -> PacqResult<&'d str> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| self.fail(format!("`{}` must be a string", self.name(key))))
    }

    /// A number, with the string `"inf"` accepted as positive infinity.
    fn number(&self, key: &str) -> PacqResult<f64> {
        match self.field(key)? {
            Json::Num(n) => Ok(*n),
            Json::Str(s) if s == "inf" => Ok(f64::INFINITY),
            _ => Err(self.fail(format!(
                "`{}` must be a number (or \"inf\")",
                self.name(key)
            ))),
        }
    }

    fn optional(&self, key: &str) -> PacqResult<Option<f64>> {
        match self.doc.get(key) {
            Some(_) => self.number(key).map(Some),
            None => Ok(None),
        }
    }

    /// A non-negative integer stored as a JSON number (exact below 2^53 —
    /// far above any plausible capacity or unit count).
    fn uint(&self, key: &str) -> PacqResult<u64> {
        let n = self.number(key)?;
        if !(n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= (1u64 << 53) as f64) {
            return Err(self.fail(format!(
                "`{}` must be a non-negative integer, got {n}",
                self.name(key)
            )));
        }
        Ok(n as u64)
    }

    fn count(&self, key: &str) -> PacqResult<usize> {
        self.uint(key).map(|n| n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example(name: &str) -> String {
        let path = format!("{}/../../examples/arch/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
    }

    #[test]
    fn builtin_templates_reproduce_the_hardcoded_configs_bit_for_bit() {
        let template = ArchTemplate::volta_like();
        template.validate("builtin").unwrap();
        assert_eq!(template.config, SmConfig::volta_like());
        let derived = EnergyModel::new(&SmConfig::volta_like());
        assert_eq!(
            template.energy_model().unwrap().energy_canonical(),
            derived.energy_canonical(),
            "no-override template energies must equal the capacity-derived defaults"
        );
    }

    #[test]
    fn committed_examples_reproduce_the_builders_digest_stably() {
        // The committed example is the builder's canonical text, byte for
        // byte: it parses back to the builder and keeps its digest.
        let text = example("volta_like.json");
        let parsed = ArchTemplate::load(&text, "volta_like.json").unwrap();
        assert_eq!(parsed, ArchTemplate::volta_like());
        assert_eq!(text, parsed.render(), "volta_like.json is not canonical");
        assert_eq!(parsed.digest(), ArchTemplate::volta_like().digest());
    }

    #[test]
    fn digest_tracks_content_not_formatting() {
        let t = ArchTemplate::volta_like();
        // Whitespace and key order are not content.
        let squeezed = t.to_json().render_line();
        let reordered = t
            .render()
            .replacen(
                "\"schema\": \"pacq-arch/v2\",\n  \"name\": \"volta-like\",",
                "\"name\": \"volta-like\",\n  \"schema\": \"pacq-arch/v2\",",
                1,
            )
            .replacen(
                "\"capacity_bits\": 3072,\n      \"count\": 2",
                "\"count\": 2, \"capacity_bits\": 3072",
                1,
            );
        assert_ne!(reordered, t.render());
        for text in [squeezed, reordered] {
            let reparsed = ArchTemplate::parse(&text, "test").unwrap();
            assert_eq!(reparsed, t);
            assert_eq!(reparsed.digest(), t.digest());
        }

        // One access energy, one capacity: different machines.
        let mut energy = t.clone();
        energy.l1_pj = Some(
            EnergyModel::new(&SmConfig::volta_like()).levels()[2].energy_per_word16_pj() + 1.0,
        );
        let mut capacity = t.clone();
        capacity.config.l1_bytes += 1024;
        for edited in [energy, capacity] {
            assert_ne!(edited.digest(), t.digest());
        }
    }

    #[test]
    fn audit_tolerance_round_trips_and_moves_the_digest() {
        let mut t = ArchTemplate::volta_like();
        t.activity_tolerance = Some(0.5);
        t.validate("test").unwrap();
        assert_eq!(ArchTemplate::parse(&t.render(), "json").unwrap(), t);
        assert!(
            t.render()
                .contains("\"audit\": {\n    \"activity_tolerance\": 0.5\n  }"),
            "{}",
            t.render()
        );
        assert_ne!(
            t.digest(),
            ArchTemplate::volta_like().digest(),
            "pinning a tolerance is a content edit"
        );
        // An empty `audit` object is allowed and means "defaults".
        let text = ArchTemplate::volta_like()
            .render()
            .replacen("\n}", ",\n  \"audit\": {}\n}", 1);
        let parsed = ArchTemplate::parse(&text, "json").unwrap();
        assert_eq!(parsed.activity_tolerance, None);
        assert_eq!(parsed.digest(), ArchTemplate::volta_like().digest());
    }

    #[test]
    fn audit_section_rejects_unknown_keys_and_bad_tolerances() {
        let mut t = ArchTemplate::volta_like();
        t.activity_tolerance = Some(0.5);
        let typo = t.render().replace("activity_tolerance", "activity_tol");
        let err = ArchTemplate::parse(&typo, "test").unwrap_err();
        assert_eq!(err.exit_code(), 9, "{err}");
        assert!(err.to_string().contains("audit.activity_tol"), "{err}");
        for bad in [0.0, -0.5, f64::INFINITY, f64::NAN] {
            t.activity_tolerance = Some(bad);
            let err = t.validate("test").unwrap_err();
            assert_eq!(err.exit_code(), 9, "{err}");
            assert!(err.to_string().contains("activity_tolerance"), "{err}");
        }
    }

    #[test]
    fn validation_rejects_inconsistent_hierarchies() {
        // An L1 cheaper than the register file breaks the RF < L1 < DRAM
        // ordering the dataflow analysis rests on.
        let mut t = ArchTemplate::volta_like();
        t.l1_pj = Some(0.001);
        let err = t.validate("test").unwrap_err();
        assert_eq!(err.exit_code(), 9, "{err}");
        assert!(err.to_string().contains("hierarchy"), "{err}");

        let mut t = ArchTemplate::volta_like();
        t.config.dp_width = 5;
        let err = t.validate("test").unwrap_err();
        assert_eq!(err.exit_code(), 9, "{err}");
        assert!(err.to_string().contains("dp_width"), "{err}");

        let mut t = ArchTemplate::volta_like();
        t.register_file_pj = Some(-1.0);
        assert_eq!(t.validate("test").unwrap_err().exit_code(), 9);

        let mut t = ArchTemplate::volta_like();
        t.config.clock_hz = f64::NAN;
        assert_eq!(t.validate("test").unwrap_err().exit_code(), 9);

        let mut t = ArchTemplate::volta_like();
        t.name = "bad name!".to_string();
        assert_eq!(t.validate("test").unwrap_err().exit_code(), 9);
    }

    #[test]
    fn unknown_and_missing_keys_are_rejected_with_the_context() {
        let text = ArchTemplate::volta_like().render();
        let typed = |text: &str, want: &str| {
            let err = ArchTemplate::parse(text, "examples/arch/x.json").unwrap_err();
            assert_eq!(err.exit_code(), 9, "{err}");
            assert!(err.to_string().contains(want), "{err}");
            assert!(err.to_string().contains("examples/arch/x.json"), "{err}");
        };
        // An extra level, a dropped key, a repeated key.
        typed(
            &text.replacen(
                "\"l1\": {",
                "\"l2\": {\"capacity_bytes\": 1},\n\"l1\": {",
                1,
            ),
            "memory.l2",
        );
        typed(
            &text.replacen("\"dp_width\": 4,", "", 1),
            "missing required key `compute.dp_width`",
        );
        typed(
            &text.replacen("\"dp_width\": 4,", "\"dp_width\": 4, \"dp_width\": 8,", 1),
            "duplicate key `compute.dp_width`",
        );
        // The retired dataflow keys are unknown keys now.
        typed(
            &text.replacen("\"compute\"", "\"dataflow\": \"os\",\n  \"compute\"", 1),
            "unknown key `dataflow`",
        );
        // The old schema, and a TOML document, are template errors too.
        typed(
            &text.replace("pacq-arch/v2", "pacq-arch/v1"),
            "pacq-arch/v2",
        );
        typed("schema = \"pacq-arch/v2\"\nname = \"x\"\n", "JSON syntax");
    }
}

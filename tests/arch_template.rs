//! Integration and property tests for the `pacq-arch/v1` declarative
//! architecture-template layer (DESIGN.md §18):
//!
//! - parse → render → parse is the identity, for TOML and JSON alike,
//!   over generated templates (proptest);
//! - every committed example under `examples/arch/` parses, validates,
//!   and reproduces the corresponding hardcoded builder bit for bit;
//! - the volta-like and PacQ templates reproduce the hardcoded
//!   configs' GemmReports bit-identically through `pacq exec --check`
//!   (the batched kernel, checked against the scalar reference);
//! - editing a template's content (even one access energy) changes its
//!   digest and therefore every derived cache key — two machines that
//!   price differently can never share a cache entry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pacq::{
    ArchTemplate, Architecture, Dataflow, GemmRunner, GemmShape, Packing, ReportCache, Workload,
};
use pacq_arch::MemLevel;
use pacq_fp16::WeightPrecision;
use proptest::prelude::*;

/// Path of a committed example template.
fn example(name: &str) -> String {
    format!("{}/../../examples/arch/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn read_example(name: &str) -> String {
    let path = example(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// A unique scratch directory per case (cases run concurrently).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "pacq-arch-tpl-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

// ---------------------------------------------------------------------
// Committed examples.
// ---------------------------------------------------------------------

#[test]
fn committed_examples_validate_and_reproduce_the_builders() {
    let volta = ArchTemplate::load(&read_example("volta_like.toml"), "volta_like.toml")
        .expect("volta_like.toml validates");
    assert_eq!(volta, ArchTemplate::volta_like());
    assert_eq!(volta.digest(), ArchTemplate::volta_like().digest());
    assert_eq!(volta.architecture().unwrap(), Architecture::StandardDequant);

    let pacq =
        ArchTemplate::load(&read_example("pacq.toml"), "pacq.toml").expect("pacq.toml validates");
    assert_eq!(pacq, ArchTemplate::pacq());
    assert_eq!(pacq.architecture().unwrap(), Architecture::Pacq);
    assert_ne!(pacq.digest(), volta.digest());

    let is = ArchTemplate::load(
        &read_example("input_stationary.toml"),
        "input_stationary.toml",
    )
    .expect("input_stationary.toml validates");
    assert_eq!(is, ArchTemplate::input_stationary());
    assert_eq!(is.architecture().unwrap(), Architecture::InputStationary);
    assert_ne!(is.digest(), volta.digest());
    assert_ne!(is.digest(), pacq.digest());
    // Round-trip digest stability through the canonical rendering.
    let rendered = ArchTemplate::load(&is.render(), "is-rendered").unwrap();
    assert_eq!(rendered.digest(), is.digest());

    // The JSON twin is the *same design point* as the TOML rendering:
    // identical template, identical digest, despite the different
    // surface syntax.
    let json = ArchTemplate::load(&read_example("volta_like.json"), "volta_like.json")
        .expect("volta_like.json validates");
    assert_eq!(json, volta);
    assert_eq!(json.digest(), volta.digest());
}

#[test]
fn committed_examples_derive_the_hardcoded_machine() {
    let volta = ArchTemplate::load(&read_example("volta_like.toml"), "volta_like.toml").unwrap();
    let cfg = volta.sm_config();
    assert_eq!(cfg.tensor_cores, pacq::SmConfig::volta_like().tensor_cores);
    assert_eq!(cfg.dp_width, pacq::SmConfig::volta_like().dp_width);
    // The derived energy model prices exactly like the default one.
    let derived = volta.energy_model().expect("derives");
    let builtin = pacq::EnergyModel::new(&pacq::SmConfig::volta_like());
    assert_eq!(derived.energy_canonical(), builtin.energy_canonical());
}

// ---------------------------------------------------------------------
// Bit-identical reports through the CLI.
// ---------------------------------------------------------------------

/// The result digests `pacq exec` prints — the bit-identity witness
/// for the computed output matrix, free of wall-clock noise.
fn digests(out: &str) -> Vec<&str> {
    out.split("digest ")
        .skip(1)
        .filter_map(|t| t.split([',', ')', ' ']).next())
        .collect()
}

#[test]
fn templates_reproduce_hardcoded_reports_through_exec_check() {
    for (tpl, arch) in [
        ("volta_like.toml", "std"),
        ("pacq.toml", "pacq"),
        ("input_stationary.toml", "is"),
    ] {
        let run = |extra: [String; 2]| {
            let mut argv: Vec<String> = "exec --shape m16n32k128 --group g32 --check"
                .split(' ')
                .map(String::from)
                .collect();
            argv.extend(extra);
            let out = pacq::cli::run(&argv).unwrap_or_else(|e| panic!("{argv:?}: {e}"));
            assert!(out.contains("check OK"), "{out}");
            out
        };
        let builtin = run(["--arch".to_string(), arch.to_string()]);
        let templated = run(["--arch-template".to_string(), example(tpl)]);
        assert!(!digests(&builtin).is_empty(), "{builtin}");
        assert_eq!(
            digests(&builtin),
            digests(&templated),
            "{tpl} must reproduce the hardcoded result bit for bit\nbuiltin: {builtin}\ntemplated: {templated}"
        );
    }
}

// ---------------------------------------------------------------------
// Cache-key binding: template identity is part of every key.
// ---------------------------------------------------------------------

#[test]
fn templates_with_different_energies_never_share_a_cache_entry() {
    let dir = scratch_dir("energy-edit");
    let cache = Arc::new(ReportCache::open(&dir).expect("cache opens"));
    let wl = Workload::new(GemmShape::new(16, 32, 64), WeightPrecision::Int4);

    let runner_for = |tpl: &ArchTemplate| {
        GemmRunner::new()
            .with_config(tpl.sm_config())
            .with_energy_model(tpl.energy_model().expect("derives"))
            .with_template_digest(tpl.digest())
            .with_cache(Arc::clone(&cache))
    };

    let original = ArchTemplate::volta_like();
    let mut edited = original.clone();
    edited.l1.access_energy_pj_per_word16 = Some(3.5);
    assert_ne!(original.digest(), edited.digest());

    let a = runner_for(&original)
        .analyze(Architecture::StandardDequant, wl)
        .expect("runs");
    // Same SmConfig, same workload — but a different machine. A shared
    // entry here would serve the original template's energies under the
    // edited template's name.
    let b = runner_for(&edited)
        .analyze(Architecture::StandardDequant, wl)
        .expect("runs");
    assert_eq!(cache.hits(), 0, "edited template must not hit the cache");
    assert_eq!(cache.misses(), 2);
    assert_eq!(a.stats.total_cycles, b.stats.total_cycles);
    assert_ne!(
        a.energy.total_pj().to_bits(),
        b.energy.total_pj().to_bits(),
        "the edited L1 energy must be visible in the report"
    );

    // Re-running the original template is a hit: binding is by content
    // digest, not by load order or path.
    let a2 = runner_for(&original)
        .analyze(Architecture::StandardDequant, wl)
        .expect("runs");
    assert_eq!(cache.hits(), 1);
    assert_eq!(
        a.energy.total_pj().to_bits(),
        a2.energy.total_pj().to_bits()
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn template_digest_distinguishes_builtin_from_templated_identity() {
    let tpl = ArchTemplate::volta_like();
    let builtin = GemmRunner::new();
    let templated = GemmRunner::new()
        .with_energy_model(tpl.energy_model().unwrap())
        .with_template_digest(tpl.digest());
    assert_ne!(
        builtin.arch_id(),
        templated.arch_id(),
        "a templated machine is a distinct identity even when it prices identically"
    );
    assert!(templated.arch_id().contains(&tpl.digest()));
}

// ---------------------------------------------------------------------
// Property tests: round-trips and digest stability.
// ---------------------------------------------------------------------

fn any_dataflow() -> impl Strategy<Value = Dataflow> {
    prop_oneof![
        Just(Dataflow::WeightStationary),
        Just(Dataflow::OutputStationary),
        Just(Dataflow::InputStationary),
    ]
}

fn any_packing() -> impl Strategy<Value = Packing> {
    prop_oneof![Just(Packing::AlongK), Just(Packing::AlongN)]
}

fn any_energy() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![
        Just(None),
        (1u32..10_000).prop_map(|e| Some(f64::from(e) / 16.0)),
    ]
}

/// Generated templates cover the whole schema surface, including
/// combinations `validate` would reject — parse/render must round-trip
/// any schema-conformant document, valid design point or not.
fn any_template() -> impl Strategy<Value = ArchTemplate> {
    (
        (
            (0u32..10_000).prop_map(|i| format!("design_{i}")),
            any_dataflow(),
            any_packing(),
            prop_oneof![Just(true), Just(false)],
            1usize..32,
            1usize..16,
        ),
        (
            prop_oneof![Just(4usize), Just(8), Just(16), Just(3)],
            prop_oneof![Just(1usize), Just(2), Just(4), Just(5)],
            1u32..64,
            1u64..1_048_576,
            1u64..1_048_576,
            8u64..65_536,
        ),
        (
            1usize..8,
            prop_oneof![Just(f64::INFINITY), (1u32..4096).prop_map(f64::from)],
            any_energy(),
            any_energy(),
            any_energy(),
            // Nested pair: the tuple-strategy impls cap at six slots.
            (
                any_energy(),
                prop_oneof![
                    Just(None),
                    (1u32..100).prop_map(|x| Some(f64::from(x) / 10.0))
                ],
            ),
        ),
    )
        .prop_map(
            |(
                (name, dataflow, packing, dequant, tc, dp),
                (width, dup, dwpc, rf, l1, buf_bits),
                (bufs, dram_bw, rf_e, l1_e, buf_e, (dram_e, activity_tolerance)),
            )| ArchTemplate {
                name,
                dataflow,
                packing,
                dequant,
                tensor_cores: tc,
                dp_units_per_tc: dp,
                dp_width: width,
                adder_tree_duplication: dup,
                dequant_weights_per_cycle: f64::from(dwpc),
                clock_hz: 400.0e6,
                register_file: MemLevel {
                    capacity_bytes: rf,
                    access_energy_pj_per_word16: rf_e,
                },
                l1: MemLevel {
                    capacity_bytes: l1,
                    access_energy_pj_per_word16: l1_e,
                },
                operand_buffer_bits: buf_bits - buf_bits % 8,
                operand_buffers: bufs,
                operand_buffer_energy_pj_per_word16: buf_e,
                dram_bytes_per_cycle: dram_bw,
                dram_energy_pj_per_word16: dram_e,
                activity_tolerance,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// TOML: parse(render(t)) == t, and the digest survives.
    #[test]
    fn toml_rendering_round_trips(tpl in any_template()) {
        let text = tpl.render();
        let back = ArchTemplate::parse(&text, "prop.toml").expect("round-trip parses");
        prop_assert_eq!(&back, &tpl);
        prop_assert_eq!(back.digest(), tpl.digest());
    }

    /// JSON: parse(render_json(t)) == t, and the digest equals the
    /// TOML digest — identity is content, not syntax.
    #[test]
    fn json_rendering_round_trips(tpl in any_template()) {
        let text = tpl.render_json();
        let back = ArchTemplate::parse(&text, "prop.json").expect("round-trip parses");
        prop_assert_eq!(&back, &tpl);
        prop_assert_eq!(back.digest(), tpl.digest());
    }

    /// Injected TOML noise (comments, blank lines) never changes the
    /// parsed template or its digest.
    #[test]
    fn formatting_noise_is_identity_neutral(tpl in any_template(), seed in 0u8..8) {
        let text = tpl.render();
        let noisy: String = text
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i as u8 % 4 == seed % 4 {
                    format!("{l}   # noise\n\n")
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let back = ArchTemplate::parse(&noisy, "noisy.toml").expect("still parses");
        prop_assert_eq!(&back, &tpl);
        prop_assert_eq!(back.digest(), tpl.digest());
    }

    /// Any single-field content change moves the digest.
    #[test]
    fn digest_tracks_every_field(tpl in any_template()) {
        let base = tpl.digest();
        let mut cases: Vec<ArchTemplate> = Vec::new();
        let mut t = tpl.clone();
        t.tensor_cores += 1;
        cases.push(t);
        let mut t = tpl.clone();
        t.register_file.capacity_bytes += 8;
        cases.push(t);
        let mut t = tpl.clone();
        t.l1.access_energy_pj_per_word16 =
            Some(tpl.l1.access_energy_pj_per_word16.unwrap_or(0.0) + 0.25);
        cases.push(t);
        let mut t = tpl.clone();
        t.dequant = !tpl.dequant;
        cases.push(t);
        for edited in cases {
            prop_assert_ne!(edited.digest(), base.clone());
        }
    }
}

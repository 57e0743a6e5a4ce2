//! Integration and property tests for the `pacq-arch/v2` declarative
//! architecture-template layer (DESIGN.md §18):
//!
//! - parse → render → parse is the identity over generated templates,
//!   and whitespace never moves the digest (proptest);
//! - the committed `examples/arch/volta_like.json` parses, validates,
//!   and reproduces the hardcoded machine bit for bit;
//! - that template reproduces the hardcoded reports through `pacq
//!   analyze` on every dataflow `--arch` picks;
//! - editing a template's content (even one access energy) changes its
//!   digest and therefore every derived cache key — two machines that
//!   price differently can never share a cache entry.

use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pacq::{ArchTemplate, Architecture, GemmRunner, GemmShape, ReportCache, SmConfig, Workload};
use pacq_fp16::WeightPrecision;
use proptest::prelude::*;

/// Path of the committed example template.
fn example() -> String {
    format!(
        "{}/../../examples/arch/volta_like.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn load_example() -> ArchTemplate {
    let path = example();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    ArchTemplate::load(&text, &path).expect("volta_like.json validates")
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
// The committed example.
// ---------------------------------------------------------------------

#[test]
fn committed_examples_validate_and_reproduce_the_builders() {
    let volta = load_example();
    assert_eq!(volta, ArchTemplate::volta_like());
    assert_eq!(volta.digest(), ArchTemplate::volta_like().digest());
    // Round-trip digest stability through the canonical rendering.
    let rendered = ArchTemplate::load(&volta.render(), "rendered").unwrap();
    assert_eq!(rendered.digest(), volta.digest());
}

#[test]
fn committed_examples_derive_the_hardcoded_machine() {
    let volta = load_example();
    assert_eq!(volta.config, SmConfig::volta_like());
    // The derived energy model prices exactly like the default one.
    let derived = volta.energy_model().expect("derives");
    let builtin = pacq::EnergyModel::new(&SmConfig::volta_like());
    assert_eq!(derived.energy_canonical(), builtin.energy_canonical());
}

// ---------------------------------------------------------------------
// Bit-identical reports through the CLI.
// ---------------------------------------------------------------------

/// `pacq analyze --shape m16n4096k4096 --arch X`, with and without the
/// committed template, prints the same bytes for every dataflow: the
/// template names the machine, `--arch` the dataflow.
#[test]
fn templates_reproduce_hardcoded_reports_through_analyze() {
    let analyze = |extra: &[&str]| {
        let output = Command::new(env!("CARGO_BIN_EXE_pacq"))
            .args(["analyze", "--shape", "m16n4096k4096"])
            .args(extra)
            .env_remove("PACQ_JOBS")
            .output()
            .expect("spawn pacq");
        assert!(
            output.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8(output.stdout).expect("UTF-8 stdout")
    };
    let path = example();
    for arch in Architecture::ALL {
        let builtin = analyze(&["--arch", arch.token()]);
        assert!(builtin.contains("total cycles"), "{builtin}");
        let templated = analyze(&["--arch", arch.token(), "--arch-template", &path]);
        assert_eq!(
            builtin, templated,
            "--arch {arch:?}: the template must reproduce the hardcoded report"
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
            .with_config(tpl.config)
            .with_energy_model(tpl.energy_model().expect("derives"))
            .with_template_digest(tpl.digest())
            .with_cache(Arc::clone(&cache))
    };

    let original = ArchTemplate::volta_like();
    let mut edited = original.clone();
    edited.l1_pj = Some(3.5);
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

fn any_energy() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![
        Just(None),
        (1u32..10_000).prop_map(|e| Some(f64::from(e) / 16.0)),
    ]
}

/// Generated templates cover the whole schema surface, including
/// machines `validate` would reject — parse/render must round-trip any
/// schema-conformant document, valid design point or not.
fn any_template() -> impl Strategy<Value = ArchTemplate> {
    (
        (
            (0u32..10_000).prop_map(|i| format!("design_{i}")),
            1usize..32,
            1usize..16,
            prop_oneof![Just(4usize), Just(8), Just(16), Just(3)],
            prop_oneof![Just(1usize), Just(2), Just(4), Just(5)],
            1u32..64,
        ),
        (
            1u64..1_048_576,
            1u64..1_048_576,
            8u64..65_536,
            1usize..8,
            prop_oneof![Just(f64::INFINITY), (1u32..4096).prop_map(f64::from)],
        ),
        (
            any_energy(),
            any_energy(),
            any_energy(),
            any_energy(),
            prop_oneof![
                Just(None),
                (1u32..100).prop_map(|x| Some(f64::from(x) / 10.0))
            ],
        ),
    )
        .prop_map(
            |(
                (name, tc, dp, width, dup, dwpc),
                (rf, l1, buf_bits, bufs, dram_bw),
                (rf_e, l1_e, buf_e, dram_e, activity_tolerance),
            )| ArchTemplate {
                name,
                config: SmConfig {
                    tensor_cores: tc,
                    dp_units_per_tc: dp,
                    dp_width: width,
                    adder_tree_duplication: dup,
                    operand_buffer_bits: buf_bits - buf_bits % 8,
                    operand_buffers: bufs,
                    register_file_bytes: rf,
                    l1_bytes: l1,
                    dequant_weights_per_cycle: f64::from(dwpc),
                    clock_hz: 400.0e6,
                    dram_bytes_per_cycle: dram_bw,
                },
                register_file_pj: rf_e,
                l1_pj: l1_e,
                operand_buffer_pj: buf_e,
                dram_pj: dram_e,
                activity_tolerance,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// parse(render(t)) == t, and the digest survives.
    #[test]
    fn json_rendering_round_trips(tpl in any_template()) {
        let back = ArchTemplate::parse(&tpl.render(), "prop.json").expect("round-trip parses");
        prop_assert_eq!(&back, &tpl);
        prop_assert_eq!(back.digest(), tpl.digest());
    }

    /// Whitespace noise (the one-line rendering, extra blank lines and
    /// indentation) never changes the parsed template or its digest.
    #[test]
    fn formatting_noise_is_identity_neutral(tpl in any_template(), seed in 0u8..8) {
        let noisy: String = tpl
            .render()
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i as u8 % 4 == seed % 4 {
                    format!("\t{l}   \n\n")
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        for text in [noisy, tpl.to_json().render_line()] {
            let back = ArchTemplate::parse(&text, "noisy.json").expect("still parses");
            prop_assert_eq!(&back, &tpl);
            prop_assert_eq!(back.digest(), tpl.digest());
        }
    }

    /// Any single-field content change moves the digest.
    #[test]
    fn digest_tracks_every_field(tpl in any_template()) {
        let base = tpl.digest();
        let mut cases: Vec<ArchTemplate> = Vec::new();
        let mut t = tpl.clone();
        t.config.tensor_cores += 1;
        cases.push(t);
        let mut t = tpl.clone();
        t.config.register_file_bytes += 8;
        cases.push(t);
        let mut t = tpl.clone();
        t.l1_pj = Some(tpl.l1_pj.unwrap_or(0.0) + 0.25);
        cases.push(t);
        let mut t = tpl.clone();
        t.activity_tolerance = Some(tpl.activity_tolerance.unwrap_or(0.0) + 0.5);
        cases.push(t);
        for edited in cases {
            prop_assert_ne!(edited.digest(), base.clone());
        }
    }
}

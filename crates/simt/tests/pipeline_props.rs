//! Property-based tests for the event-driven pipeline and the analytic
//! engines' mutual consistency.

use pacq_fp16::WeightPrecision;
use pacq_quant::GroupShape;
use pacq_simt::pipeline::{FetchKind, ScheduleStep};
use pacq_simt::{
    octet_schedule, simulate, Architecture, GemmShape, OctetPipeline, SmConfig, Workload,
};
use proptest::prelude::*;

fn arb_step() -> impl Strategy<Value = ScheduleStep> {
    (
        prop::collection::vec(
            prop_oneof![
                (1u64..16).prop_map(|e| FetchKind::ATile { elements: e }),
                (1u64..8).prop_map(|r| FetchKind::BTile {
                    reads: r,
                    bits: r * 16
                }),
                (1u64..16).prop_map(|e| FetchKind::CWrite { elements: e }),
            ],
            0..6,
        ),
        0u64..4,
        1u64..5,
        0u64..5,
    )
        .prop_map(
            |(fetches, issues, issue_interval, a_evictions)| ScheduleStep {
                fetches,
                issues,
                issue_interval,
                a_evictions,
            },
        )
}

proptest! {
    /// Appending steps never shortens the replayed schedule, and traffic
    /// accumulates exactly.
    #[test]
    fn pipeline_cycles_monotone_in_schedule(
        steps in prop::collection::vec(arb_step(), 1..40),
    ) {
        let pipe = OctetPipeline::new();
        let full = pipe.run(&steps);
        let prefix = pipe.run(&steps[..steps.len() - 1]);
        prop_assert!(full.cycles >= prefix.cycles);
        prop_assert!(full.fetch_instructions >= prefix.fetch_instructions);
        prop_assert!(full.rf.total_accesses() >= prefix.rf.total_accesses());
    }

    /// More fetch ports never make a schedule slower.
    #[test]
    fn more_ports_never_hurt(steps in prop::collection::vec(arb_step(), 1..40)) {
        let slow = OctetPipeline::new().with_fetch_ports(1).run(&steps);
        let fast = OctetPipeline::new().with_fetch_ports(4).run(&steps);
        prop_assert!(fast.cycles <= slow.cycles);
        prop_assert!(fast.fetch_stall_cycles <= slow.fetch_stall_cycles);
        // Traffic is schedule-determined, not port-determined.
        prop_assert_eq!(fast.rf, slow.rf);
    }

    /// The analytic engine's RF counts are invariant to the machine's
    /// duplication knob (it only changes timing), for every architecture.
    #[test]
    fn rf_traffic_independent_of_duplication(
        dup in prop::sample::select(vec![1usize, 2, 4]),
        ni in 1usize..4,
        ki in 1usize..4,
    ) {
        let shape = GemmShape::new(16, ni * 16, ki * 16);
        let group = GroupShape::along_k(ki * 16);
        for arch in Architecture::ALL {
            let mut a = SmConfig::volta_like();
            a.adder_tree_duplication = dup;
            let mut b = SmConfig::volta_like();
            b.adder_tree_duplication = 2;
            let wl = Workload::new(shape, WeightPrecision::Int4);
            let ra = simulate(arch, wl, &a, group).expect("valid config");
            let rb = simulate(arch, wl, &b, group).expect("valid config");
            prop_assert_eq!(ra.rf, rb.rf, "{:?}", arch);
            prop_assert_eq!(ra.fetch_instructions, rb.fetch_instructions);
        }
    }

    /// Event and analytic engines agree on RF traffic for every machine
    /// width/duplication combination (generalizing the unit test).
    #[test]
    fn event_analytic_agreement_random_machines(
        width in prop::sample::select(vec![4usize, 8, 16]),
        dup in prop::sample::select(vec![1usize, 2, 4]),
        precision in prop::sample::select(vec![WeightPrecision::Int4, WeightPrecision::Int2]),
    ) {
        let mut cfg = SmConfig::volta_like();
        cfg.dp_width = width;
        cfg.adder_tree_duplication = dup;
        for arch in Architecture::ALL {
            let schedule = octet_schedule(arch, precision, &cfg);
            let t = OctetPipeline::new().run(&schedule);
            let a = simulate(
                arch,
                Workload::new(GemmShape::M16N16K16, precision),
                &cfg,
                GroupShape::along_k(16),
            )
            .expect("valid config");
            prop_assert_eq!(t.rf.a_reads * 4, a.rf.a_reads, "{:?} A", arch);
            prop_assert_eq!(t.rf.b_reads * 4, a.rf.b_reads, "{:?} B", arch);
            prop_assert_eq!(t.rf.c_writes * 4, a.rf.c_writes, "{:?} C", arch);
        }
    }
}

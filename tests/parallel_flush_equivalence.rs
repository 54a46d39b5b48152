//! Fabric and flush equivalence: the lazy, budgeted flushes of one
//! [`TimingGraph`] must be **bit-identical** to the eager oracles — a
//! from-scratch `analyze_with` pass, `required_times` over it and
//! `completion_bounds` over it — on every queryable value, under any
//! interleaving of resize / surgery / option / constraint bursts. The
//! sequences run on the six suite circuits and on the synthetic
//! `synth10k` fabric (whose wide levels and spread seed sets drive the
//! drain → sweep cut-over far more often than the narrow suite
//! circuits); the `synth100k` runs are `#[ignore]`d and run in the
//! release CI job.
//!
//! Also covered here: validity and determinism of the synthetic
//! scaling fabrics the large-circuit rows build on, and the
//! sweep-budget extremes (forced drain vs forced sweep) converging to
//! the same bits on a suite circuit and on a spread fabric burst.
//!
//! The file keeps the name it had while the level flush also had a
//! worker-pool arm, so the ids of its tests stay stable.
//!
//! Seeded via `pops_netlist::rng::SplitMix64`, so failures reproduce.

use pops::netlist::rng::SplitMix64;
use pops::netlist::surgery::{EditOp, EditPlan};
use pops::netlist::{builders, suite};
use pops::prelude::*;
use pops::sta::analysis::{analyze_with, AnalyzeOptions, EdgeDir};
use pops::sta::{completion_bounds, TimingGraph};

/// Every queryable value of `a` and `b` is bit-identical (the graphs
/// must be timing the same circuit).
fn assert_graphs_bit_equal(a: &TimingGraph, b: &TimingGraph, label: &str) {
    let circuit = a.circuit();
    assert_eq!(
        a.critical_delay_ps().to_bits(),
        b.critical_delay_ps().to_bits(),
        "{label}: critical delay diverged"
    );
    for net in circuit.net_ids() {
        for dir in [EdgeDir::Rising, EdgeDir::Falling] {
            assert_eq!(
                a.arrival_ps(net, dir).to_bits(),
                b.arrival_ps(net, dir).to_bits(),
                "{label}: arrival of {net} {dir:?}"
            );
            assert_eq!(
                a.slope_ps(net, dir).to_bits(),
                b.slope_ps(net, dir).to_bits(),
                "{label}: slope of {net} {dir:?}"
            );
            assert_eq!(
                a.slack_ps(net, dir).to_bits(),
                b.slack_ps(net, dir).to_bits(),
                "{label}: slack of {net} {dir:?}"
            );
        }
        assert_eq!(
            a.net_load_ff(net).to_bits(),
            b.net_load_ff(net).to_bits(),
            "{label}: load of {net}"
        );
    }
    for g in circuit.gate_ids() {
        assert_eq!(
            a.gate_delay_worst_ps(g).to_bits(),
            b.gate_delay_worst_ps(g).to_bits(),
            "{label}: worst delay of {g}"
        );
        assert_eq!(
            a.completion_ps(g).to_bits(),
            b.completion_ps(g).to_bits(),
            "{label}: completion bound of {g}"
        );
    }
    assert_eq!(
        a.worst_slack_overall_ps().map(f64::to_bits),
        b.worst_slack_overall_ps().map(f64::to_bits),
        "{label}: design-worst slack diverged"
    );
    assert_eq!(
        a.critical_path().gates,
        b.critical_path().gates,
        "{label}: critical path diverged"
    );
}

/// Every queryable value of `graph` is bit-identical to the eager
/// oracles: a fresh `analyze_with` pass for the forward state and,
/// under a constraint, `required_times` and `completion_bounds` over
/// that pass for the backward state.
fn assert_matches_eager(graph: &TimingGraph, lib: &Library, label: &str) {
    let circuit = graph.circuit();
    let fresh = analyze_with(circuit, lib, graph.sizing(), graph.options()).expect("acyclic");
    assert_eq!(
        graph.critical_delay_ps().to_bits(),
        fresh.critical_delay_ps().to_bits(),
        "{label}: critical delay diverged from the eager pass"
    );
    for net in circuit.net_ids() {
        for dir in [EdgeDir::Rising, EdgeDir::Falling] {
            assert_eq!(
                graph.arrival_ps(net, dir).to_bits(),
                fresh.arrival_ps(net, dir).to_bits(),
                "{label}: arrival of {net} {dir:?}"
            );
            assert_eq!(
                graph.slope_ps(net, dir).to_bits(),
                fresh.slope_ps(net, dir).to_bits(),
                "{label}: slope of {net} {dir:?}"
            );
        }
        assert_eq!(
            graph.net_load_ff(net).to_bits(),
            fresh.net_load_ff(net).to_bits(),
            "{label}: load of {net}"
        );
    }
    for g in circuit.gate_ids() {
        assert_eq!(
            graph.gate_delay_worst_ps(g).to_bits(),
            fresh.gate_delay_worst_ps(g).to_bits(),
            "{label}: worst delay of {g}"
        );
    }
    assert_eq!(
        graph.critical_path().gates,
        fresh.critical_path().gates,
        "{label}: critical path diverged"
    );

    let Some(tc) = graph.constraint_ps() else {
        return;
    };
    let slacks = required_times(circuit, lib, graph.sizing(), &fresh, tc).expect("acyclic");
    for net in circuit.net_ids() {
        for dir in [EdgeDir::Rising, EdgeDir::Falling] {
            assert_eq!(
                graph.required_ps(net, dir).to_bits(),
                slacks.required_ps(net, dir).to_bits(),
                "{label}: required of {net} {dir:?}"
            );
            assert_eq!(
                graph.slack_ps(net, dir).to_bits(),
                slacks.slack_ps(net, dir).to_bits(),
                "{label}: slack of {net} {dir:?}"
            );
        }
    }
    assert_eq!(
        graph.worst_slack_overall_ps().map(f64::to_bits),
        slacks.worst_slack_overall_ps().map(f64::to_bits),
        "{label}: design-worst slack diverged"
    );
    let bounds = completion_bounds(circuit, &fresh);
    for g in circuit.gate_ids() {
        assert_eq!(
            graph.completion_ps(g).to_bits(),
            bounds[g.index()].to_bits(),
            "{label}: completion bound of {g}"
        );
    }
}

/// A buffer-insertion plan on a random fanout-heavy driven net of the
/// current circuit.
fn random_buffer_plan(
    graph: &TimingGraph,
    lib: &Library,
    rng: &mut SplitMix64,
) -> Option<EditPlan> {
    let circuit = graph.circuit();
    let candidates: Vec<_> = circuit
        .net_ids()
        .filter(|&n| circuit.driver_gate(n).is_some() && circuit.net(n).fanout() >= 2)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let net = *rng.pick(&candidates);
    let loads = circuit.net(net).loads()[1..].to_vec();
    if loads.is_empty() {
        return None;
    }
    Some(
        vec![EditOp::InsertBuffer {
            net,
            loads,
            stage_cin_ff: [
                lib.min_drive_ff() * (1.0 + rng.next_f64()),
                lib.min_drive_ff() * (2.0 + 4.0 * rng.next_f64()),
            ],
        }]
        .into(),
    )
}

/// Drive one graph through `steps` random mutation bursts, checking it
/// against the eager oracles every `check_every` steps and at the end.
fn random_flush_sequence(circuit: Circuit, seed: u64, steps: usize, check_every: usize) {
    let lib = Library::cmos025();
    let sizing = Sizing::minimum(&circuit, &lib);
    let mut graph = TimingGraph::new(&circuit, &lib, &sizing).expect("acyclic");
    let t0 = graph.critical_delay_ps();
    graph.set_constraint(0.9 * t0);

    let mut rng = SplitMix64::new(seed);
    let cref = lib.min_drive_ff();
    for step in 0..steps {
        let gates: Vec<GateId> = graph.circuit().gate_ids().collect();
        match rng.below(8) {
            0 => {
                let batch: Vec<(GateId, f64)> = (0..2 + rng.below(8))
                    .map(|_| {
                        let g = *rng.pick(&gates);
                        (g, cref * (1.0 + 25.0 * rng.next_f64()))
                    })
                    .collect();
                graph.resize_gates(batch);
            }
            1 => {
                // Structural surgery: re-levels, re-ranks and re-slots
                // under pending seeds.
                if let Some(plan) = random_buffer_plan(&graph, &lib, &mut rng) {
                    graph.apply_edits(&plan).expect("valid edit");
                }
            }
            2 => {
                // Option change: the full-rescan path (and usually the
                // budgeted full-sweep cut-over).
                let options = AnalyzeOptions {
                    po_load_ff: 5.0 + 40.0 * rng.next_f64(),
                    input_transition_ps: 20.0 + 100.0 * rng.next_f64(),
                };
                graph.set_options(&options);
            }
            3 => {
                let tc = t0 * (0.7 + 0.6 * rng.next_f64());
                graph.set_constraint(tc);
            }
            _ => {
                let g = *rng.pick(&gates);
                graph.resize_gate(g, cref * (1.0 + 25.0 * rng.next_f64()));
            }
        }
        if step % check_every == check_every - 1 {
            assert_matches_eager(&graph, &lib, &format!("step {step}"));
        }
    }
    assert_matches_eager(&graph, &lib, "final");
    graph
        .verify_state()
        .unwrap_or_else(|e| panic!("graph failed the deep-consistency audit: {e}"));
}

/// Backward-focused sequence: every burst is *immediately* followed by
/// backward queries checked against the oracles, so `flush_required`
/// and `flush_completion` fire once per burst — in whatever dirty-state
/// mix the burst schedule leaves behind — instead of only at the
/// periodic full checks. Constraint bursts saturate the backward dirty
/// sets, so the next query runs the gate-centric full-sweep path.
fn random_backward_sequence(circuit: Circuit, seed: u64, steps: usize, check_every: usize) {
    let lib = Library::cmos025();
    let sizing = Sizing::minimum(&circuit, &lib);
    let mut graph = TimingGraph::new(&circuit, &lib, &sizing).expect("acyclic");
    let t0 = graph.critical_delay_ps();
    graph.set_constraint(0.92 * t0);

    let mut rng = SplitMix64::new(seed);
    let cref = lib.min_drive_ff();
    for step in 0..steps {
        let gates: Vec<GateId> = graph.circuit().gate_ids().collect();
        match rng.below(6) {
            0 => {
                let batch: Vec<(GateId, f64)> = (0..2 + rng.below(8))
                    .map(|_| {
                        let g = *rng.pick(&gates);
                        (g, cref * (1.0 + 25.0 * rng.next_f64()))
                    })
                    .collect();
                graph.resize_gates(batch);
            }
            1 => {
                if let Some(plan) = random_buffer_plan(&graph, &lib, &mut rng) {
                    graph.apply_edits(&plan).expect("valid edit");
                }
            }
            2 => {
                // Wholesale backward invalidation: the queries below
                // run the full-sweep flush path.
                let tc = t0 * (0.7 + 0.6 * rng.next_f64());
                graph.set_constraint(tc);
            }
            _ => {
                let g = *rng.pick(&gates);
                graph.resize_gate(g, cref * (1.0 + 25.0 * rng.next_f64()));
            }
        }
        // Flush both backward directions every burst, before anything
        // else reads the graph, and pin the answers to the oracles.
        let probe_net = *rng.pick(&graph.circuit().net_ids().collect::<Vec<_>>());
        let probe_gate = *rng.pick(&gates);
        let worst = graph.worst_slack_overall_ps().map(f64::to_bits);
        let slack = [
            graph.slack_ps(probe_net, EdgeDir::Rising).to_bits(),
            graph.slack_ps(probe_net, EdgeDir::Falling).to_bits(),
        ];
        let completion = graph.completion_ps(probe_gate).to_bits();
        let circuit = graph.circuit();
        let fresh = analyze_with(circuit, &lib, graph.sizing(), graph.options()).expect("acyclic");
        let tc = graph.constraint_ps().expect("constraint set");
        let slacks = required_times(circuit, &lib, graph.sizing(), &fresh, tc).expect("acyclic");
        assert_eq!(
            worst,
            slacks.worst_slack_overall_ps().map(f64::to_bits),
            "step {step}: design-worst slack diverged"
        );
        assert_eq!(
            slack,
            [
                slacks.slack_ps(probe_net, EdgeDir::Rising).to_bits(),
                slacks.slack_ps(probe_net, EdgeDir::Falling).to_bits(),
            ],
            "step {step}: slack of {probe_net} diverged"
        );
        assert_eq!(
            completion,
            completion_bounds(circuit, &fresh)[probe_gate.index()].to_bits(),
            "step {step}: completion of {probe_gate} diverged"
        );
        if step % check_every == check_every - 1 {
            assert_matches_eager(&graph, &lib, &format!("step {step}"));
        }
    }
    assert_matches_eager(&graph, &lib, "final");
    graph
        .verify_state()
        .unwrap_or_else(|e| panic!("graph failed the deep-consistency audit: {e}"));
}

#[test]
fn fpd_flushes_match_oracles() {
    let c = suite::circuit("fpd").unwrap();
    random_flush_sequence(c, 0x9A51_F00D, 32, 4);
}

#[test]
fn c432_flushes_match_oracles() {
    let c = suite::circuit("c432").unwrap();
    random_flush_sequence(c, 0x9A51_0432, 32, 4);
}

#[test]
fn c880_flushes_match_oracles() {
    let c = suite::circuit("c880").unwrap();
    random_flush_sequence(c, 0x9A51_0880, 24, 4);
}

#[test]
fn c1908_flushes_match_oracles() {
    let c = suite::circuit("c1908").unwrap();
    random_flush_sequence(c, 0x9A51_1908, 24, 4);
}

#[test]
fn c6288_flushes_match_oracles() {
    let c = suite::circuit("c6288").unwrap();
    random_flush_sequence(c, 0x9A51_6288, 9, 3);
}

#[test]
fn c7552_flushes_match_oracles() {
    let c = suite::circuit("c7552").unwrap();
    random_flush_sequence(c, 0x9A51_7552, 9, 3);
}

#[test]
fn synth10k_flushes_match_oracles() {
    // Wide random-logic levels and spread seed sets: the adaptive
    // drain → sweep cut-over fires here far more often than on the
    // narrow suite circuits.
    let c = suite::scaling_circuit("synth10k").unwrap();
    random_flush_sequence(c, 0x9A51_E010, 6, 3);
}

#[test]
#[ignore = "expensive: 100k-gate fabric; run with --ignored (CI release job does)"]
fn synth100k_flushes_match_oracles() {
    // The headline class: a ≥100k-gate fabric under mixed bursts. The
    // oracle passes and the full per-net bit sweep per check are what
    // make this expensive, not the flushes.
    let c = suite::scaling_circuit("synth100k").unwrap();
    random_flush_sequence(c, 0x9A51_E100, 4, 2);
}

#[test]
fn fpd_backward_flushes_match_oracles() {
    let c = suite::circuit("fpd").unwrap();
    random_backward_sequence(c, 0xBAC4_F00D, 24, 4);
}

#[test]
fn c432_backward_flushes_match_oracles() {
    let c = suite::circuit("c432").unwrap();
    random_backward_sequence(c, 0xBAC4_0432, 24, 4);
}

#[test]
fn c880_backward_flushes_match_oracles() {
    let c = suite::circuit("c880").unwrap();
    random_backward_sequence(c, 0xBAC4_0880, 16, 4);
}

#[test]
fn c1908_backward_flushes_match_oracles() {
    let c = suite::circuit("c1908").unwrap();
    random_backward_sequence(c, 0xBAC4_1908, 16, 4);
}

#[test]
fn c6288_backward_flushes_match_oracles() {
    let c = suite::circuit("c6288").unwrap();
    random_backward_sequence(c, 0xBAC4_6288, 8, 4);
}

#[test]
fn c7552_backward_flushes_match_oracles() {
    let c = suite::circuit("c7552").unwrap();
    random_backward_sequence(c, 0xBAC4_7552, 8, 4);
}

#[test]
fn synth10k_backward_flushes_match_oracles() {
    let c = suite::scaling_circuit("synth10k").unwrap();
    random_backward_sequence(c, 0xBAC4_E010, 5, 3);
}

#[test]
#[ignore = "expensive: 100k-gate fabric; run with --ignored (CI release job does)"]
fn synth100k_backward_flushes_match_oracles() {
    let c = suite::scaling_circuit("synth100k").unwrap();
    random_backward_sequence(c, 0xBAC4_E100, 3, 2);
}

#[test]
fn backward_full_sweep_fires_and_is_bit_identical() {
    // A constraint change saturates the backward dirty sets, so the
    // next slack query must take the gate-centric full-sweep path —
    // proven by the reevaluation count covering every net — and land
    // on the oracles' bits.
    let lib = Library::cmos025();
    let circuit = suite::circuit("c880").unwrap();
    let sizing = Sizing::minimum(&circuit, &lib);
    let mut graph = TimingGraph::new(&circuit, &lib, &sizing).unwrap();
    let t0 = graph.critical_delay_ps();
    let n_nets = circuit.net_count();
    for tc in [0.9 * t0, 0.8 * t0, 1.1 * t0] {
        graph.set_constraint(tc);
        let before = graph.stats().required_reevaluated;
        let _ = graph.worst_slack_overall_ps();
        assert!(
            graph.stats().required_reevaluated - before >= n_nets,
            "a post-constraint flush must run the full sweep"
        );
        assert_matches_eager(&graph, &lib, &format!("tc {tc}"));
    }
}

#[test]
fn scaling_fabrics_are_valid_and_deterministic() {
    {
        let class = "synth10k";
        let spec = suite::scaling_class(class).unwrap();
        let c = suite::scaling_circuit(class).unwrap();
        assert_eq!(
            c.gate_count(),
            spec.target_gates,
            "{class}: generator must hit the target exactly"
        );
        // Structurally sound: acyclic, fully driven, realistically deep.
        let topo = c.topo_order().expect("fabric must be acyclic");
        assert_eq!(topo.len(), c.gate_count());
        let levels = c.logic_levels().expect("fabric must level");
        let depth = levels.iter().copied().max().unwrap_or(0);
        assert!(depth >= 16, "{class}: implausibly shallow (depth {depth})");
        assert!(!c.primary_outputs().is_empty(), "{class}: no outputs");
        // Deterministic: the same class builds bit-identical timing.
        let c2 = suite::scaling_circuit(class).unwrap();
        assert_eq!(c.gate_count(), c2.gate_count());
        assert_eq!(c.net_count(), c2.net_count());
        let lib = Library::cmos025();
        let t1 = analyze_with(
            &c,
            &lib,
            &Sizing::minimum(&c, &lib),
            &AnalyzeOptions::default(),
        )
        .unwrap();
        let t2 = analyze_with(
            &c2,
            &lib,
            &Sizing::minimum(&c2, &lib),
            &AnalyzeOptions::default(),
        )
        .unwrap();
        assert_eq!(
            t1.critical_delay_ps().to_bits(),
            t2.critical_delay_ps().to_bits(),
            "{class}: generator must be deterministic"
        );
    }
    // The component builders compose the fabric; sanity-check them at
    // sizes the netlist unit tests do not cover.
    let csa = builders::carry_select_adder(64, 8);
    assert!(csa.topo_order().is_ok());
    let mult = builders::array_multiplier(16);
    assert!(mult.topo_order().is_ok());
    let cloud = builders::random_logic_cloud(64, 5_000, 0xC10D_5EED);
    assert_eq!(cloud.gate_count(), 5_000);
    assert!(cloud.topo_order().is_ok());
}

/// Three graphs of one circuit — default budgets, pure drain `(1,1)`
/// and forced sweep `(0,1)` — take the same resize batches and must
/// agree bit for bit after each, and with the eager oracles and the
/// deep-consistency audit at the end.
fn assert_budget_extremes_agree(
    circuit: &Circuit,
    lib: &Library,
    batches: &[Vec<(GateId, f64)>],
    label: &str,
) {
    let sizing = Sizing::minimum(circuit, lib);
    let mut dflt = TimingGraph::new(circuit, lib, &sizing).unwrap();
    let mut drain = TimingGraph::new(circuit, lib, &sizing).unwrap();
    drain.set_sweep_budgets((1, 1), (1, 1));
    let mut sweep = TimingGraph::new(circuit, lib, &sizing).unwrap();
    sweep.set_sweep_budgets((0, 1), (0, 1));
    let t0 = dflt.critical_delay_ps();
    for g in [&mut dflt, &mut drain, &mut sweep] {
        g.set_constraint(0.85 * t0);
        // Settle the initial backward pass, so the first batch drains.
        let _ = g.worst_slack_overall_ps();
    }
    for (round, batch) in batches.iter().enumerate() {
        for g in [&mut dflt, &mut drain, &mut sweep] {
            g.resize_gates(batch.clone());
        }
        assert_graphs_bit_equal(
            &dflt,
            &drain,
            &format!("{label} round {round}: default vs drain"),
        );
        assert_graphs_bit_equal(
            &dflt,
            &sweep,
            &format!("{label} round {round}: default vs sweep"),
        );
    }
    assert_matches_eager(&dflt, lib, &format!("{label}: budget extremes"));
    // The knob reports what it was set to.
    assert_eq!(drain.sweep_budgets(), ((1, 1), (1, 1)));
    assert_eq!(sweep.sweep_budgets(), ((0, 1), (0, 1)));
    dflt.verify_state()
        .unwrap_or_else(|e| panic!("{label}: graph failed the deep-consistency audit: {e}"));
}

#[test]
fn sweep_budget_extremes_are_bit_identical() {
    // (1,1) disables the count cut-over (pure drain); (0,1) forces the
    // full sweep on any dirty flush. Both extremes — and the default —
    // must land on identical bits after identical mutations: drain and
    // sweep are alternative schedules of the same converged state.
    let lib = Library::cmos025();
    let cref = lib.min_drive_ff();

    // Random batches on a suite circuit.
    let circuit = suite::circuit("c880").unwrap();
    let mut rng = SplitMix64::new(0xB0D6_E7E5);
    let gates: Vec<GateId> = circuit.gate_ids().collect();
    let batches: Vec<Vec<(GateId, f64)>> = (0..10)
        .map(|_| {
            (0..3 + rng.below(6))
                .map(|_| (*rng.pick(&gates), cref * (1.0 + 20.0 * rng.next_f64())))
                .collect()
        })
        .collect();
    assert_budget_extremes_agree(&circuit, &lib, &batches, "c880");

    // A spread burst on the fabric: an eighth of the gates resized,
    // evenly spaced, so the seed count sits far below the ¾ forward
    // budget while the fanout closure is nearly the whole circuit;
    // then a single-gate probe on top.
    let circuit = suite::scaling_circuit("synth10k").unwrap();
    let gates: Vec<GateId> = circuit.gate_ids().collect();
    let spread: Vec<(GateId, f64)> = gates
        .iter()
        .step_by(8)
        .enumerate()
        .map(|(i, &g)| (g, cref * (1.5 + 0.01 * (i % 7) as f64)))
        .collect();
    let probe = vec![(gates[gates.len() / 2], 2.0 * cref)];
    assert_budget_extremes_agree(&circuit, &lib, &[spread, probe], "synth10k");
}

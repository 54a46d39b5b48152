//! The validated mutation boundary: every `try_*` entry point of the
//! timing engine rejects malformed input with a typed [`StaError`]
//! **before** any state changes.
//!
//! * under injected faults — corrupted resize batches, bad drives,
//!   stale gate/net ids, NaN or negative constraints and malformed edit
//!   plans, landing on settled graphs and between a mutation and its
//!   flush — a graph keeps the **same bits** as a clean twin driven
//!   through the identical valid mutation bursts, on all six suite
//!   circuits and the synth10k fabric;
//! * a corrupted mutation batch (NaN or negative drives) is rejected
//!   atomically: typed error out, graph bit-untouched, the deep
//!   consistency audit still passing, and the clean batch applying
//!   normally afterwards;
//! * the boundaries reject out-of-range ids, non-finite
//!   drives/constraints and malformed edit plans, never by corrupting
//!   state;
//! * [`TimingGraph::verify_state`] (the deep-consistency audit) passes
//!   on fresh, mutated, structurally edited and multi-corner graphs.

use pops::netlist::rng::SplitMix64;
use pops::netlist::surgery::{EditOp, EditPlan};
use pops::netlist::{builders, suite, NetlistError, VtClass};
use pops::prelude::*;
use pops::sta::analysis::{AnalyzeOptions, EdgeDir};
use pops::sta::{StaError, TimingGraph};

/// Every queryable value of `a` and `b` is bit-identical.
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

/// A buffer-insertion plan on a random fanout-heavy driven net.
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

/// A stale id handle: gate and net ids of a longer inverter chain whose
/// indices lie past everything `circuit` can grow to within `steps`
/// mutation bursts (each buffer insertion adds two gates and two nets).
fn foreign_ids(circuit: &Circuit, steps: usize) -> (Vec<GateId>, Vec<NetId>) {
    let len = circuit.net_count().max(circuit.gate_count()) + 4 * steps + 16;
    let chain = builders::inverter_chain(len);
    let gates: Vec<GateId> = chain.gate_ids().skip(len - 8).collect();
    let nets: Vec<NetId> = chain.net_ids().skip(len - 8).collect();
    (gates, nets)
}

/// Inject one corrupted mutation through a validated `try_*` entry
/// point and assert it is rejected with the expected typed error.
fn inject_fault(
    graph: &mut TimingGraph,
    lib: &Library,
    foreign: &(Vec<GateId>, Vec<NetId>),
    rng: &mut SplitMix64,
    label: &str,
) {
    let gates: Vec<GateId> = graph.circuit().gate_ids().collect();
    let n_gates = gates.len();
    let stale_gate = *rng.pick(&foreign.0);
    let stale_net = *rng.pick(&foreign.1);
    assert!(
        stale_gate.index() >= n_gates,
        "{label}: stale gate id in range"
    );
    assert!(
        stale_net.index() >= graph.circuit().net_count(),
        "{label}: stale net id in range"
    );
    let bad_drive = *rng.pick(&[f64::NAN, f64::INFINITY, 0.0, -lib.min_drive_ff()]);
    let cref = lib.min_drive_ff();
    let err = match rng.below(7) {
        0 | 1 => {
            // Valid entries around one corrupted entry: a bad drive or
            // a stale id, anywhere in the batch.
            let mut batch: Vec<(GateId, f64)> = (0..2 + rng.below(6))
                .map(|_| (*rng.pick(&gates), cref * (1.0 + 25.0 * rng.next_f64())))
                .collect();
            let at = rng.below(batch.len());
            let stale = rng.below(2) == 0;
            if stale {
                batch[at].0 = stale_gate;
            } else {
                batch[at].1 = bad_drive;
            }
            let err = graph
                .try_resize_gates(batch)
                .expect_err("a corrupted batch must be rejected");
            if stale {
                assert!(
                    matches!(err, StaError::GateOutOfRange { .. }),
                    "{label}: wrong rejection {err}"
                );
            }
            err
        }
        2 => graph
            .try_resize_gate(*rng.pick(&gates), bad_drive)
            .expect_err("a corrupted drive must be rejected"),
        3 => {
            let tc = *rng.pick(&[f64::NAN, f64::NEG_INFINITY, -250.0]);
            let err = graph
                .try_set_constraint(tc)
                .expect_err("a corrupted constraint must be rejected");
            assert!(
                matches!(err, StaError::InvalidConstraint { .. }),
                "{label}: wrong rejection {err}"
            );
            err
        }
        4 => {
            let plan: EditPlan = vec![EditOp::InsertBuffer {
                net: stale_net,
                loads: vec![],
                stage_cin_ff: [cref, 2.0 * cref],
            }]
            .into();
            graph
                .try_apply_edits(&plan)
                .expect_err("a plan on a stale net must be rejected")
        }
        5 => {
            // A corrupted created-stage drive on a net that exists.
            let nets: Vec<NetId> = graph.circuit().net_ids().collect();
            let mut stage_cin_ff = [cref, 2.0 * cref];
            stage_cin_ff[rng.below(2)] = bad_drive;
            let plan: EditPlan = vec![EditOp::InsertBuffer {
                net: *rng.pick(&nets),
                loads: vec![],
                stage_cin_ff,
            }]
            .into();
            graph
                .try_apply_edits(&plan)
                .expect_err("a plan with a corrupted stage must be rejected")
        }
        _ => {
            let err = graph
                .try_set_vt_class(stale_gate, VtClass::Hvt)
                .expect_err("a stale Vt target must be rejected");
            assert!(
                matches!(err, StaError::GateOutOfRange { .. }),
                "{label}: wrong rejection {err}"
            );
            err
        }
    };
    assert!(
        matches!(
            err,
            StaError::InvalidDrive { .. }
                | StaError::GateOutOfRange { .. }
                | StaError::InvalidConstraint { .. }
                | StaError::InvalidEdit(_)
        ),
        "{label}: untyped rejection {err}"
    );
    assert_eq!(graph.circuit().gate_count(), n_gates, "{label}: gates grew");
}

/// The core twin driver: a clean graph and a faulted twin driven
/// through identical random mutation bursts (resize batches, buffer
/// surgery, constraint moves, single resizes, Vt swaps), where the
/// faulted twin additionally takes corrupted mutations at the `try_*`
/// boundary — injected both on a settled graph and between a mutation
/// and its flush, while seed logs are pending. Every rejected fault must
/// leave no trace: after each burst the forward and both backward
/// flushes answer with the clean twin's bits, and the final state
/// bit-matches everywhere and passes `verify_state` on both.
fn faulted_twin_sequence(circuit: Circuit, seed: u64, steps: usize) {
    let lib = Library::cmos025();
    let sizing = Sizing::minimum(&circuit, &lib);
    let mut clean = TimingGraph::new(&circuit, &lib, &sizing).expect("acyclic");
    let mut faulted = TimingGraph::new(&circuit, &lib, &sizing).expect("acyclic");
    let t0 = clean.critical_delay_ps();
    clean.set_constraint(0.9 * t0);
    faulted
        .try_set_constraint(0.9 * t0)
        .expect("valid constraint");
    let foreign = foreign_ids(&circuit, steps);

    let mut rng = SplitMix64::new(seed);
    let cref = lib.min_drive_ff();
    for step in 0..steps {
        let label = format!("step {step}");
        let gates: Vec<GateId> = clean.circuit().gate_ids().collect();
        // A fault on the settled graph (or on whatever the previous
        // step left pending).
        inject_fault(&mut faulted, &lib, &foreign, &mut rng, &label);
        match rng.below(7) {
            0 => {
                let batch: Vec<(GateId, f64)> = (0..2 + rng.below(8))
                    .map(|_| (*rng.pick(&gates), cref * (1.0 + 25.0 * rng.next_f64())))
                    .collect();
                clean.resize_gates(batch.clone());
                faulted.try_resize_gates(batch).expect("valid batch");
            }
            1 => {
                if let Some(plan) = random_buffer_plan(&clean, &lib, &mut rng) {
                    clean.apply_edits(&plan).expect("valid edit");
                    faulted.try_apply_edits(&plan).expect("valid edit");
                }
            }
            2 => {
                let tc = t0 * (0.7 + 0.6 * rng.next_f64());
                clean.set_constraint(tc);
                faulted.try_set_constraint(tc).expect("valid constraint");
            }
            3 => {
                let g = *rng.pick(&gates);
                let class = *rng.pick(&[VtClass::Lvt, VtClass::Svt, VtClass::Hvt]);
                clean.set_vt_class(g, class);
                faulted.try_set_vt_class(g, class).expect("valid Vt swap");
            }
            _ => {
                let g = *rng.pick(&gates);
                let cin = cref * (1.0 + 25.0 * rng.next_f64());
                clean.resize_gate(g, cin);
                faulted.try_resize_gate(g, cin).expect("valid drive");
            }
        }
        // Faults between the mutation and its flush: the pending seed
        // logs must survive the rejections untouched.
        for _ in 0..1 + rng.below(3) {
            inject_fault(&mut faulted, &lib, &foreign, &mut rng, &label);
        }
        // Force forward + both backward flushes and pin the answers to
        // the clean twin's bits.
        let probe = *rng.pick(&gates);
        assert_eq!(
            faulted.critical_delay_ps().to_bits(),
            clean.critical_delay_ps().to_bits(),
            "{label}: critical delay diverged under faults"
        );
        assert_eq!(
            faulted.worst_slack_overall_ps().map(f64::to_bits),
            clean.worst_slack_overall_ps().map(f64::to_bits),
            "{label}: design-worst slack diverged under faults"
        );
        assert_eq!(
            faulted.completion_ps(probe).to_bits(),
            clean.completion_ps(probe).to_bits(),
            "{label}: completion of {probe} diverged under faults"
        );
    }

    // A final option change invalidates everything and forces the full
    // forward rescan; a fault lands while it is pending.
    let options = AnalyzeOptions {
        po_load_ff: 42.0,
        input_transition_ps: 77.0,
    };
    clean.set_options(&options);
    faulted.set_options(&options);
    inject_fault(&mut faulted, &lib, &foreign, &mut rng, "after options");

    assert_graphs_bit_equal(&clean, &faulted, "final");
    faulted
        .verify_state()
        .unwrap_or_else(|e| panic!("faulted twin failed the audit: {e}"));
    clean
        .verify_state()
        .unwrap_or_else(|e| panic!("clean twin failed the audit: {e}"));
    // No recovery path exists: rejection at the boundary is the whole
    // mechanism, and the kept counters say so.
    assert_eq!(faulted.stats().panic_recoveries, 0);
    assert_eq!(faulted.stats().sequential_fallbacks, 0);
}

#[test]
fn fpd_recovers_bit_exact_under_faults() {
    faulted_twin_sequence(suite::circuit("fpd").unwrap(), 0xFA17_F00D, 12);
}

#[test]
fn c432_recovers_bit_exact_under_faults() {
    faulted_twin_sequence(suite::circuit("c432").unwrap(), 0xFA17_0432, 12);
}

#[test]
fn c880_recovers_bit_exact_under_faults() {
    faulted_twin_sequence(suite::circuit("c880").unwrap(), 0xFA17_0880, 10);
}

#[test]
fn c1908_recovers_bit_exact_under_faults() {
    faulted_twin_sequence(suite::circuit("c1908").unwrap(), 0xFA17_1908, 10);
}

#[test]
fn c6288_recovers_bit_exact_under_faults() {
    faulted_twin_sequence(suite::circuit("c6288").unwrap(), 0xFA17_6288, 6);
}

#[test]
fn c7552_recovers_bit_exact_under_faults() {
    faulted_twin_sequence(suite::circuit("c7552").unwrap(), 0xFA17_7552, 6);
}

#[test]
fn synth10k_recovers_bit_exact_under_faults() {
    // Wide levels and spread seed sets: the faults land while the
    // drain → sweep cut-over decides over large pending logs.
    faulted_twin_sequence(suite::scaling_circuit("synth10k").unwrap(), 0xFA17_E010, 4);
}

#[test]
fn corrupted_batch_is_rejected_atomically() {
    let lib = Library::cmos025();
    let circuit = suite::circuit("c432").unwrap();
    let sizing = Sizing::minimum(&circuit, &lib);
    let mut graph = TimingGraph::new(&circuit, &lib, &sizing).unwrap();
    let mut reference = TimingGraph::new(&circuit, &lib, &sizing).unwrap();
    let t0 = graph.critical_delay_ps();
    graph.set_constraint(0.9 * t0);
    reference.set_constraint(0.9 * t0);

    let gates: Vec<GateId> = circuit.gate_ids().collect();
    let batch: Vec<(GateId, f64)> = gates
        .iter()
        .take(4)
        .map(|&g| (g, 3.0 * lib.min_drive_ff()))
        .collect();

    // Valid entries around a NaN drive and a negative drive: the whole
    // batch is rejected, naming the first offending value.
    let mut corrupted = batch.clone();
    corrupted[1].1 = f64::NAN;
    corrupted[3].1 = -corrupted[3].1;
    let err = graph
        .try_resize_gates(corrupted)
        .expect_err("a corrupted batch must be rejected");
    assert!(
        matches!(err, StaError::InvalidDrive { .. }),
        "wrong rejection: {err}"
    );
    assert!(
        err.to_string().contains("NaN"),
        "error must name the value: {err}"
    );

    // Atomicity: the graph is bit-untouched by the rejected batch...
    assert_graphs_bit_equal(&graph, &reference, "after rejected batch");
    graph.verify_state().expect("audit after rejected batch");

    // ...and the clean batch applies normally.
    graph
        .try_resize_gates(batch.clone())
        .expect("clean batch applies");
    reference.resize_gates(batch);
    assert_graphs_bit_equal(&graph, &reference, "after clean re-apply");
}

#[test]
fn constraint_boundary_rejects_nan_and_negative() {
    let lib = Library::cmos025();
    let circuit = builders::inverter_chain(4);
    let mut graph = TimingGraph::new(&circuit, &lib, &Sizing::minimum(&circuit, &lib)).unwrap();

    let err = graph.try_set_constraint(f64::NAN).unwrap_err();
    assert!(matches!(err, StaError::InvalidConstraint { .. }));
    assert!(
        err.to_string().contains("NaN"),
        "must name the value: {err}"
    );
    let err = graph.try_set_constraint(-3.0).unwrap_err();
    assert!(err.to_string().contains("-3"), "must name the value: {err}");
    let err = graph.try_set_constraint(f64::NEG_INFINITY).unwrap_err();
    assert!(matches!(err, StaError::InvalidConstraint { .. }));

    // Zero and +inf are meaningful constraints (everything violated /
    // nothing constrained) and must keep working.
    graph.try_set_constraint(0.0).unwrap();
    graph.try_set_constraint(f64::INFINITY).unwrap();
    graph.try_set_constraint(250.0).unwrap();
    graph.verify_state().expect("audit after constraint churn");
}

#[test]
fn id_boundaries_reject_foreign_gates() {
    let lib = Library::cmos025();
    let small = builders::inverter_chain(3);
    let mut graph = TimingGraph::new(&small, &lib, &Sizing::minimum(&small, &lib)).unwrap();
    let d0 = graph.critical_delay_ps().to_bits();

    // A high-index id from a bigger circuit is the realistic stale-id
    // bug: a handle from a pre-surgery snapshot used after rebuild.
    let big = suite::circuit("c432").unwrap();
    let foreign = big.gate_ids().last().unwrap();

    let err = graph.try_resize_gate(foreign, 5.0).unwrap_err();
    assert!(
        matches!(err, StaError::GateOutOfRange { n_gates: 3, .. }),
        "wrong rejection: {err}"
    );
    let err = graph.try_set_vt_class(foreign, VtClass::Hvt).unwrap_err();
    assert!(matches!(err, StaError::GateOutOfRange { .. }));

    // Non-finite / non-positive drives, with a valid id.
    let g = small.gate_ids().next().unwrap();
    for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
        let err = graph.try_resize_gate(g, bad).unwrap_err();
        assert!(
            matches!(err, StaError::InvalidDrive { .. }),
            "cin {bad}: wrong rejection {err}"
        );
    }
    // A batch with one bad entry is rejected whole.
    let err = graph
        .try_resize_gates(vec![(g, 4.0), (foreign, 4.0)])
        .unwrap_err();
    assert!(matches!(err, StaError::GateOutOfRange { .. }));

    assert_eq!(
        graph.critical_delay_ps().to_bits(),
        d0,
        "rejected mutations must not move timing"
    );
    graph.verify_state().expect("audit after rejections");
}

#[test]
fn edit_plan_boundary_rejects_malformed_plans() {
    let lib = Library::cmos025();
    let small = builders::inverter_chain(3);
    let mut graph = TimingGraph::new(&small, &lib, &Sizing::minimum(&small, &lib)).unwrap();
    let d0 = graph.critical_delay_ps().to_bits();
    let n_gates = graph.circuit().gate_count();

    let big = suite::circuit("c432").unwrap();
    let foreign_net = big.net_ids().last().unwrap();
    let plan: EditPlan = vec![EditOp::InsertBuffer {
        net: foreign_net,
        loads: vec![],
        stage_cin_ff: [1.0, 2.0],
    }]
    .into();
    let err = graph.apply_edits(&plan).unwrap_err();
    assert!(matches!(err, NetlistError::InvalidId(_)), "got {err}");
    let err = graph.try_apply_edits(&plan).unwrap_err();
    assert!(matches!(err, StaError::InvalidEdit(_)), "got {err}");

    // Non-finite created-stage capacitance, on a net that exists.
    let net = small.net_ids().next().unwrap();
    let plan: EditPlan = vec![EditOp::InsertBuffer {
        net,
        loads: vec![],
        stage_cin_ff: [f64::NAN, 2.0],
    }]
    .into();
    let err = graph.apply_edits(&plan).unwrap_err();
    assert!(matches!(err, NetlistError::UnsupportedEdit(_)), "got {err}");

    assert_eq!(graph.circuit().gate_count(), n_gates, "nothing applied");
    assert_eq!(graph.critical_delay_ps().to_bits(), d0);
    graph.verify_state().expect("audit after rejected plans");
}

#[test]
fn sizing_extend_dense_boundary() {
    let lib = Library::cmos025();
    let chain2 = builders::inverter_chain(2);
    let chain4 = builders::inverter_chain(4);
    let mut sizing = Sizing::minimum(&chain2, &lib); // len 2

    // Gapped id set: index 3 cannot extend len()==2.
    let g3 = chain4.gate_ids().nth(3).unwrap();
    let err = sizing.try_extend_dense(vec![(g3, 1.0)]).unwrap_err();
    assert!(
        matches!(
            err,
            StaError::NonDenseSizing {
                gate: 3,
                expected: 2
            }
        ),
        "got {err}"
    );
    // Dense id, garbage capacitance.
    let g2 = chain4.gate_ids().nth(2).unwrap();
    let err = sizing.try_extend_dense(vec![(g2, f64::NAN)]).unwrap_err();
    assert!(
        matches!(err, StaError::InvalidDrive { gate: 2, .. }),
        "got {err}"
    );
    // Rejections are atomic: nothing was pushed.
    assert_eq!(sizing.len(), 2);

    // A dense batch listed out of order still lands correctly.
    sizing.try_extend_dense(vec![(g3, 4.0), (g2, 3.0)]).unwrap();
    assert_eq!(sizing.len(), 4);
    assert_eq!(sizing.cin_ff(g2), 3.0);
    assert_eq!(sizing.cin_ff(g3), 4.0);
}

#[test]
fn verify_state_passes_on_live_graphs() {
    let lib = Library::cmos025();
    let circuit = suite::circuit("c880").unwrap();
    let sizing = Sizing::minimum(&circuit, &lib);

    // Fresh, mutated, structurally edited and multi-corner graphs all
    // pass the deep audit (it is a health check, not a fault detector —
    // a healthy engine must never trip it).
    let mut graph = TimingGraph::new(&circuit, &lib, &sizing).unwrap();
    graph.verify_state().expect("fresh graph");
    let t0 = graph.critical_delay_ps();
    graph.set_constraint(0.9 * t0);
    let gates: Vec<GateId> = circuit.gate_ids().collect();
    graph.resize_gates(gates.iter().map(|&g| (g, 2.0 * lib.min_drive_ff())));
    let _ = graph.worst_slack_overall_ps();
    graph.verify_state().expect("after resizes");

    let mut rng = SplitMix64::new(0xAD17_0880);
    if let Some(plan) = random_buffer_plan(&graph, &lib, &mut rng) {
        graph.apply_edits(&plan).unwrap();
        let _ = graph.critical_delay_ps();
        graph.verify_state().expect("after surgery");
    }

    let corners = CornerSet::slow_typical_fast(lib.process().clone());
    let mut mc = TimingGraph::with_corners(
        &circuit,
        &lib,
        &sizing,
        &pops::sta::analysis::AnalyzeOptions::default(),
        &corners,
    )
    .unwrap();
    mc.set_constraint(0.95 * t0);
    let _ = mc.worst_slack_overall_ps();
    mc.verify_state().expect("multi-corner graph");
}

//! The benchmark's own tests: the traced twin agrees with
//! `optimize_circuit` in each regime, tampered results are counted as
//! failed, and the seeded inputs reproduce the committed profiles.

use flowbench::check::{check_result, Tally};
use flowbench::trace::Tracer;
use flowbench::twin::{first_difference, optimize_circuit_traced, Counts};
use flowbench::workload::{derive_seed, fabric, suite_circuit, Case, Workload, DEFAULT_SEED};
use pops::delay::Library;
use pops::flow::{optimize_circuit, FlowOptions, FlowResult};
use pops::netlist::bench_format::write_bench;
use pops::netlist::{suite, Circuit, VtClass};
use pops::sta::{analyze, Sizing};

fn case(circuit: Circuit, lib: &Library, factor: f64) -> Case {
    let min = Sizing::minimum(&circuit, lib);
    let t0_ps = analyze(&circuit, lib, &min).unwrap().critical_delay_ps();
    Case {
        profile: 0,
        instance: 0,
        tc_ps: factor * t0_ps,
        min_cin_ff: min.total_cin_ff(),
        circuit,
    }
}

/// Run the flow and its traced twin on `case`; assert they agree bit for
/// bit and the result passes every check. Returns the result and the
/// twin's counts.
fn twin_agrees(case: &Case, lib: &Library, options: &FlowOptions) -> (FlowResult, Counts) {
    let plain = optimize_circuit(&case.circuit, lib, case.tc_ps, options).unwrap();
    let mut tr = Tracer::new();
    let mut counts = Counts::default();
    let traced = optimize_circuit_traced(
        &case.circuit,
        lib,
        case.tc_ps,
        options,
        &mut tr,
        &mut counts,
    )
    .unwrap();
    assert_eq!(first_difference(&plain, &traced), None);
    check_result(
        &case.circuit,
        lib,
        case.tc_ps,
        options.vt_assignment,
        &plain,
        7,
    )
    .unwrap();
    // Every span closed, and every layer span sits under the flow span.
    let spans = tr.spans();
    assert_eq!(spans[0].name, "flow");
    assert!(spans[1..].iter().all(|s| s.parent.is_some()));
    (plain, counts)
}

#[test]
fn twin_agrees_in_the_tight_sizing_regime() {
    let lib = Library::cmos025();
    let c = case(suite_circuit("c432", DEFAULT_SEED, 0), &lib, 0.8);
    let (r, n) = twin_agrees(&c, &lib, &FlowOptions::default());
    assert!(r.paths_optimized > 0);
    assert_eq!(n.rounds, r.rounds);
    assert_eq!(n.paths_sized, r.paths_optimized);
    assert_eq!(n.bounds_calls, n.distribute_calls + n.repeat_calls);
    assert!(n.bounds_sweeps >= n.bounds_calls);
}

#[test]
fn twin_agrees_in_the_hard_regime_with_surgery() {
    let lib = Library::cmos025();
    let c = case(suite_circuit("c880", DEFAULT_SEED, 0), &lib, 0.5);
    let (r, n) = twin_agrees(&c, &lib, &FlowOptions::default());
    assert!(r.edits_applied > 0, "surgery must fire at 0.5·T0 on c880");
    assert!(n.surgery_edits >= r.edits_applied);
    assert_eq!(n.kept_edits, r.edits_applied);
    assert!(n.repeat_calls > 0);
}

#[test]
fn twin_agrees_in_the_relaxed_regime_with_vt() {
    let lib = Library::cmos025();
    let c = case(suite_circuit("fpd", DEFAULT_SEED, 0), &lib, 1.5);
    let options = Workload::FabricVt.options();
    let (r, n) = twin_agrees(&c, &lib, &options);
    assert!(r.hvt_gates > 0);
    assert_eq!(n.vt_demotions, r.hvt_gates);
    assert_eq!(n.vt_probes, r.circuit.gate_count());
    assert!(n.vt_threads >= 1);
}

fn tally_of(c: &Case, lib: &Library, options: &FlowOptions, r: FlowResult) -> Tally {
    let mut tally = Tally::default();
    tally.account(c, lib, options, 7, &Ok(r), None);
    tally
}

#[test]
fn a_nudged_size_is_counted_as_failed() {
    let lib = Library::cmos025();
    let c = case(suite_circuit("fpd", DEFAULT_SEED, 0), &lib, 0.8);
    let options = FlowOptions::default();
    let r = optimize_circuit(&c.circuit, &lib, c.tc_ps, &options).unwrap();
    let clean = tally_of(&c, &lib, &options, r.clone());
    assert_eq!((clean.attempted, clean.failed), (1, 0));

    // Nudge the last gate of the critical path: the reported delay no
    // longer reproduces.
    let mut bad = r;
    let report = analyze(&bad.circuit, &lib, &bad.sizing).unwrap();
    let g = *report.critical_path().gates.last().unwrap();
    bad.sizing.set(g, 1.5 * bad.sizing.cin_ff(g));
    let tally = tally_of(&c, &lib, &options, bad);
    assert_eq!((tally.attempted, tally.failed), (1, 1));
}

#[test]
fn a_flipped_vt_class_is_counted_as_failed() {
    let lib = Library::cmos025();
    let c = case(suite_circuit("fpd", DEFAULT_SEED, 0), &lib, 1.5);
    let options = Workload::FabricVt.options();
    let r = optimize_circuit(&c.circuit, &lib, c.tc_ps, &options).unwrap();
    assert_eq!(tally_of(&c, &lib, &options, r.clone()).failed, 0);

    // One class flipped, count left alone: the count check fails.
    let mut flipped = r.clone();
    let i = flipped
        .vt_classes
        .iter()
        .position(|&v| v == VtClass::Svt)
        .expect("some gate stays SVT");
    flipped.vt_classes[i] = VtClass::Hvt;
    assert_eq!(tally_of(&c, &lib, &options, flipped.clone()).failed, 1);

    // Count fixed up too: the leakage no longer recomputes.
    flipped.hvt_gates += 1;
    assert_eq!(tally_of(&c, &lib, &options, flipped).failed, 1);
}

#[test]
fn a_reference_mismatch_is_counted_as_failed() {
    let lib = Library::cmos025();
    let c = case(suite_circuit("fpd", DEFAULT_SEED, 0), &lib, 0.8);
    let options = FlowOptions::default();
    let r = optimize_circuit(&c.circuit, &lib, c.tc_ps, &options).unwrap();
    let mut other = r.clone();
    other.rounds += 1;
    let mut tally = Tally::default();
    assert!(!tally.account(&c, &lib, &options, 7, &Ok(r), Some((&other, "test"))));
    assert_eq!(tally.failed, 1);
}

#[test]
fn the_default_seed_reproduces_the_committed_profiles() {
    for name in Workload::SuiteTight.profiles() {
        let committed = suite::circuit(name).unwrap();
        assert_eq!(
            write_bench(&suite_circuit(name, DEFAULT_SEED, 0)),
            write_bench(&committed),
            "{name}"
        );
    }
    assert_eq!(
        write_bench(&fabric("synth10k", DEFAULT_SEED, 0)),
        write_bench(&suite::scaling_circuit("synth10k").unwrap())
    );
}

#[test]
fn other_seeds_keep_size_and_depth_but_change_the_netlist() {
    let committed = suite::circuit("c432").unwrap();
    for (seed, instance) in [(0, 1), (1, 0), (5, 3)] {
        assert_ne!(derive_seed(0xC432, seed, instance), 0xC432);
        let c = suite_circuit("c432", seed, instance);
        assert_eq!(c.gate_count(), committed.gate_count());
        assert_eq!(c.depth().unwrap(), committed.depth().unwrap());
        assert_ne!(write_bench(&c), write_bench(&committed));
    }
}

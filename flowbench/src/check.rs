//! Result checks run on every `optimize_circuit` result, outside the
//! timed region. A result that fails any check counts as failed.

use std::collections::HashMap;

use pops::delay::power::leakage_nw;
use pops::delay::{CornerSet, Library};
use pops::flow::{FlowError, FlowOptions, FlowResult};
use pops::netlist::rng::SplitMix64;
use pops::netlist::{Circuit, VtClass};
use pops::sta::analysis::AnalyzeOptions;
use pops::sta::{analyze, TimingGraph};

use crate::twin::first_difference;
use crate::workload::Case;

/// Random input vectors compared between the input and returned netlist.
pub const LOGIC_VECTORS: usize = 16;

/// Check one flow result against its input netlist.
///
/// * a fresh `analyze` of the returned pair reproduces
///   `final_delay_ps` bit for bit;
/// * the returned netlist validates and the sizing covers every gate;
/// * the flow never returns a slower design than it started from;
/// * primary outputs equal the input netlist's on `LOGIC_VECTORS`
///   seeded random input vectors;
/// * with the Vt pass on: `hvt_gates` counts the HVT entries of
///   `vt_classes`, `leakage_nw` recomputes exactly, and, when gates were
///   demoted, a fresh 3-corner graph under the returned classes meets
///   `tc_ps` at every corner (the pass's promise).
///
/// # Errors
///
/// The first failed check, described.
pub fn check_result(
    input: &Circuit,
    lib: &Library,
    tc_ps: f64,
    vt_assignment: bool,
    r: &FlowResult,
    seed: u64,
) -> Result<(), String> {
    r.circuit
        .validate()
        .map_err(|e| format!("returned netlist invalid: {e}"))?;
    if r.sizing.len() != r.circuit.gate_count() {
        return Err(format!(
            "sizing covers {} gates of {}",
            r.sizing.len(),
            r.circuit.gate_count()
        ));
    }
    let fresh = analyze(&r.circuit, lib, &r.sizing)
        .map_err(|e| format!("returned pair does not time: {e}"))?
        .critical_delay_ps();
    if fresh.to_bits() != r.final_delay_ps.to_bits() {
        return Err(format!(
            "fresh analysis gives {fresh} ps, result reports {} ps",
            r.final_delay_ps
        ));
    }
    if r.final_delay_ps > r.initial_delay_ps {
        return Err(format!(
            "final delay {} ps above initial {} ps",
            r.final_delay_ps, r.initial_delay_ps
        ));
    }
    check_logic(input, &r.circuit, seed)?;
    if vt_assignment {
        check_vt(lib, tc_ps, r)?;
    }
    Ok(())
}

fn check_logic(input: &Circuit, output: &Circuit, seed: u64) -> Result<(), String> {
    let names: Vec<&str> = input
        .primary_inputs()
        .iter()
        .map(|&n| input.net(n).name())
        .collect();
    let mut rng = SplitMix64::new(seed ^ 0x10C1_C000);
    for _ in 0..LOGIC_VECTORS {
        let values: HashMap<&str, bool> = names.iter().map(|&n| (n, rng.chance(0.5))).collect();
        let want = input.evaluate(&values).map_err(|e| e.to_string())?;
        let got = output.evaluate(&values).map_err(|e| e.to_string())?;
        if want != got {
            return Err("returned netlist computes different primary outputs".into());
        }
    }
    Ok(())
}

fn check_vt(lib: &Library, tc_ps: f64, r: &FlowResult) -> Result<(), String> {
    if r.vt_classes.len() != r.circuit.gate_count() {
        return Err(format!(
            "{} Vt classes for {} gates",
            r.vt_classes.len(),
            r.circuit.gate_count()
        ));
    }
    let hvt = r.vt_classes.iter().filter(|&&v| v == VtClass::Hvt).count();
    if hvt != r.hvt_gates {
        return Err(format!("hvt_gates {} but {hvt} HVT classes", r.hvt_gates));
    }
    let leakage: f64 = r
        .circuit
        .gate_ids()
        .map(|g| leakage_nw(lib.process(), r.vt_classes[g.index()], r.sizing.cin_ff(g)))
        .sum();
    if leakage.to_bits() != r.leakage_nw.to_bits() {
        return Err(format!(
            "leakage recomputes to {leakage} nW, result reports {} nW",
            r.leakage_nw
        ));
    }
    if r.hvt_gates > 0 {
        let corners = CornerSet::slow_typical_fast(lib.process().clone());
        let mut g = TimingGraph::with_corners(
            &r.circuit,
            lib,
            &r.sizing,
            &AnalyzeOptions::default(),
            &corners,
        )
        .map_err(|e| e.to_string())?;
        for (gate, &class) in r.circuit.gate_ids().zip(&r.vt_classes) {
            g.set_vt_class(gate, class);
        }
        g.set_constraint(tc_ps);
        match g.worst_slack_overall_ps() {
            Some(s) if s < 0.0 => {
                return Err(format!("demoted design misses tc by {} ps at a corner", -s))
            }
            _ => {}
        }
    }
    Ok(())
}

/// All-SVT leakage of the returned sizing (nW): the base of
/// `leakage_ratio`, which then isolates the Vt pass from area.
pub fn svt_leakage_nw(lib: &Library, r: &FlowResult) -> f64 {
    r.circuit
        .gate_ids()
        .map(|g| leakage_nw(lib.process(), VtClass::Svt, r.sizing.cin_ff(g)))
        .sum()
}

/// Calls attempted and failed.
#[derive(Debug, Default)]
pub struct Tally {
    /// `optimize_circuit` calls made.
    pub attempted: usize,
    /// Calls that returned `Err`, failed a check or disagreed with
    /// their reference.
    pub failed: usize,
}

impl Tally {
    /// Account for one call on `case`: it must return `Ok`, pass
    /// [`check_result`], and match `reference` — an earlier result on
    /// the same circuit, with what the comparison is — bit for bit. A
    /// failure is counted and described on stderr. Returns whether the
    /// call passed.
    pub fn account(
        &mut self,
        case: &Case,
        lib: &Library,
        options: &FlowOptions,
        seed: u64,
        result: &Result<FlowResult, FlowError>,
        reference: Option<(&FlowResult, &str)>,
    ) -> bool {
        self.attempted += 1;
        let verdict = match result {
            Err(e) => Err(format!("optimize_circuit returned {e}")),
            Ok(r) => check_result(
                &case.circuit,
                lib,
                case.tc_ps,
                options.vt_assignment,
                r,
                seed,
            )
            .and_then(|()| match reference {
                Some((want, what)) => first_difference(want, r).map_or(Ok(()), |field| {
                    Err(format!("{what}: first differing field {field}"))
                }),
                None => Ok(()),
            }),
        };
        match verdict {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                eprintln!(
                    "flowbench: FAILED {}#{}: {why}",
                    case.circuit.name(),
                    case.instance
                );
                false
            }
        }
    }
}

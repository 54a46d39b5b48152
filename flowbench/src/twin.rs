//! Traced twin of `pops::flow::optimize_circuit`.
//!
//! The twin calls the same public functions in the same order as the
//! flow and wraps each layer call in a span. The only call the flow
//! makes that is not public — `optimize` with structure conserved —
//! is unrolled into its two public steps, `delay_bounds` and
//! `distribute_constraint_with`, so the two can be timed apart; the
//! private surgery planner and growth cap are mirrored below. Any drift
//! from the flow shows as a disagreement with the untraced call, which
//! the benchmark checks on every traced run.
//!
//! The one extra call is an untimed side call per bounds call (span
//! `trace.side`): a polish-free `tmin_with`, which runs the same
//! link-equation sweeps and so reports how many of them the bounds call
//! made. It is excluded from every layer's time but counted in the
//! tracing overhead.

use std::collections::{HashMap, HashSet};

use pops::core::bounds::{delay_bounds, tmin_with, TminOptions};
use pops::core::buffer::{plan_buffer_insertions, FlimitCache};
use pops::core::restructure::plan_demorgan_restructure;
use pops::core::sensitivity::distribute_constraint_with;
use pops::delay::power::leakage_nw;
use pops::delay::{CornerSet, Library};
use pops::flow::{FlowError, FlowOptions, FlowResult};
use pops::netlist::surgery::{EditOp, EditPlan};
use pops::netlist::{Circuit, GateId, NetId, VtClass};
use pops::sta::analysis::{AnalyzeOptions, EdgeDir, NetlistPath};
use pops::sta::incremental::UpdateStats;
use pops::sta::{extract_timed_path, k_most_critical_paths, Sizing, TimingGraph};

use crate::trace::Tracer;

/// Mirror of the flow's private per-round growth cap.
const ROUND_GROWTH_CAP: f64 = 3.0;

/// Work counted at the layer boundaries of one or more traced calls.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Flow rounds run.
    pub rounds: usize,
    /// Rounds that ended without lowering the best critical delay.
    pub noop_rounds: usize,
    /// Paths whose sizes were written back.
    pub paths_sized: usize,
    /// `delay_bounds` calls made by the protocol step.
    pub bounds_calls: usize,
    /// Link-equation sweeps those calls ran (from the side call).
    pub bounds_sweeps: usize,
    /// Second `delay_bounds` calls on infeasible paths.
    pub repeat_calls: usize,
    /// `distribute_constraint_with` calls.
    pub distribute_calls: usize,
    /// Of those, the ones that returned a sizing.
    pub distribute_feasible: usize,
    /// `k_most_critical_paths` calls.
    pub kpaths_calls: usize,
    /// Paths those calls returned.
    pub kpaths_paths: usize,
    /// Structural edits applied over the whole run.
    pub surgery_edits: usize,
    /// Edits present in the returned netlist.
    pub kept_edits: usize,
    /// Vt demotions probed.
    pub vt_probes: usize,
    /// Vt demotions kept.
    pub vt_demotions: usize,
    /// Worker threads of the Vt graph (0 when the pass is off).
    pub vt_threads: usize,
    /// Primary-graph engine work, from construction to the end of the
    /// sizing loop.
    pub sta: StaWork,
    /// Vt-graph engine work during the probe loop.
    pub vt: StaWork,
}

/// The `UpdateStats` fields the benchmark reports, as deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StaWork {
    /// Gate re-evaluations.
    pub gates_reevaluated: usize,
    /// Of those, bit-unchanged ones that cut the cone.
    pub converged_early: usize,
    /// Required-time re-evaluations.
    pub required_reevaluated: usize,
    /// K-paths completion-bound re-evaluations.
    pub completion_reevaluated: usize,
    /// Lazy forward flushes.
    pub forward_flushes: usize,
    /// Lazy backward flushes.
    pub backward_flushes: usize,
}

impl StaWork {
    fn delta(before: &UpdateStats, after: &UpdateStats) -> StaWork {
        StaWork {
            gates_reevaluated: after.gates_reevaluated - before.gates_reevaluated,
            converged_early: after.converged_early - before.converged_early,
            required_reevaluated: after.required_reevaluated - before.required_reevaluated,
            completion_reevaluated: after.completion_reevaluated - before.completion_reevaluated,
            forward_flushes: after.forward_flushes - before.forward_flushes,
            backward_flushes: after.backward_flushes - before.backward_flushes,
        }
    }

    fn add(&mut self, o: &StaWork) {
        self.gates_reevaluated += o.gates_reevaluated;
        self.converged_early += o.converged_early;
        self.required_reevaluated += o.required_reevaluated;
        self.completion_reevaluated += o.completion_reevaluated;
        self.forward_flushes += o.forward_flushes;
        self.backward_flushes += o.backward_flushes;
    }
}

/// `optimize_circuit` with a span around every layer call. The whole
/// call is one `flow` span; `counts` accumulates this call's work.
///
/// # Errors
///
/// As `optimize_circuit`.
pub fn optimize_circuit_traced(
    circuit: &Circuit,
    lib: &Library,
    tc_ps: f64,
    options: &FlowOptions,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<FlowResult, FlowError> {
    let flow = tr.enter("flow");
    let result = flow_body(circuit, lib, tc_ps, options, tr, counts);
    tr.exit(flow);
    result
}

/// Run `f` inside a span named `name`.
fn span<T>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = tr.enter(name);
    let out = f();
    tr.exit(id);
    out
}

fn flow_body(
    circuit: &Circuit,
    lib: &Library,
    tc_ps: f64,
    options: &FlowOptions,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<FlowResult, FlowError> {
    assert!(tc_ps > 0.0, "constraint must be positive");
    let build = tr.enter("sta.build");
    let mut graph = TimingGraph::new(circuit, lib, &Sizing::minimum(circuit, lib))?;
    let stats_before = graph.stats();
    graph.set_constraint(tc_ps);
    let initial_delay_ps = graph.critical_delay_ps();
    tr.exit(build);

    let sensitivity = &options.protocol.sensitivity;
    let mut paths_optimized = 0;
    let mut edits_applied = 0;
    let mut buffers_inserted = 0;
    let mut gates_restructured = 0;
    let mut edit_slack_gain_ps = 0.0;
    let mut rounds = 0;
    let mut best_sizing = graph.sizing().clone();
    let mut best_circuit = circuit.clone();
    let mut best_delay = initial_delay_ps;
    let mut best_edits = (0usize, 0usize, 0usize, 0.0f64);
    let mut flimits = FlimitCache::new();

    for _ in 0..options.max_rounds {
        rounds += 1;
        let failing = span(
            tr,
            "sta.query",
            || matches!(graph.worst_slack_overall_ps(), Some(s) if s < 0.0),
        );
        if !failing {
            break;
        }
        let round_entry_delay = span(tr, "sta.query", || graph.critical_delay_ps());
        let round_start = graph.sizing().clone();
        let paths = span(tr, "kpaths", || {
            k_most_critical_paths(graph.circuit(), &graph, options.paths_per_round)
        });
        counts.kpaths_calls += 1;
        counts.kpaths_paths += paths.len();
        let mut any_change = false;
        let mut stalled: Vec<NetlistPath> = Vec::new();
        for path in &paths {
            let Some(&last) = path.gates.last() else {
                continue;
            };
            let endpoint = graph.circuit().gate(last).output();
            if span(tr, "sta.query", || graph.worst_slack_ps(endpoint)) >= 0.0 {
                continue;
            }
            let required = span(tr, "sta.query", || {
                graph
                    .required_ps(endpoint, EdgeDir::Rising)
                    .min(graph.required_ps(endpoint, EdgeDir::Falling))
            });
            let budget = if required.is_finite() && required > 0.0 {
                required
            } else {
                tc_ps
            };
            let extracted = span(tr, "extract", || {
                extract_timed_path(graph.circuit(), lib, graph.sizing(), path, &options.extract)
            });
            // `optimize` with structure conserved, unrolled: bounds, then
            // distribution when the budget is at or above Tmin.
            let bounds = span(tr, "bounds", || delay_bounds(lib, &extracted.timed));
            counts.bounds_calls += 1;
            counts.bounds_sweeps += span(tr, "trace.side", || {
                let sweeps_only = TminOptions {
                    polish: false,
                    ..TminOptions::default()
                };
                tmin_with(lib, &extracted.timed, &sweeps_only).iterations
            });
            let mut solution = None;
            if budget >= bounds.tmin_ps {
                let distributed = span(tr, "distribute", || {
                    distribute_constraint_with(lib, &extracted.timed, budget, sensitivity)
                });
                counts.distribute_calls += 1;
                if let Ok(sol) = distributed {
                    counts.distribute_feasible += 1;
                    solution = Some(sol.sizes);
                }
            }
            let mut sizes = match solution {
                Some(sizes) => sizes,
                None => {
                    stalled.push(path.clone());
                    counts.repeat_calls += 1;
                    span(tr, "bounds.repeat", || delay_bounds(lib, &extracted.timed)).tmin_sizes
                }
            };
            for (s, &g) in sizes.iter_mut().zip(&extracted.gates) {
                let cap = round_start.cin_ff(g) * ROUND_GROWTH_CAP;
                *s = s.min(cap).max(lib.min_drive_ff());
            }
            sizes[0] = extracted.timed.source_drive_ff();
            let changes: Vec<(GateId, f64)> = extracted
                .gates
                .iter()
                .copied()
                .zip(sizes.iter().copied())
                .collect();
            span(tr, "sta.resize", || graph.resize_gates(changes));
            paths_optimized += 1;
            any_change = true;
        }

        let sizing_plateaued =
            span(tr, "sta.query", || graph.critical_delay_ps()) >= round_entry_delay - 1e-9;
        if options.apply_structure
            && sizing_plateaued
            && !stalled.is_empty()
            && edits_applied < options.max_edits
            && span(
                tr,
                "sta.query",
                || matches!(graph.worst_slack_overall_ps(), Some(s) if s < 0.0),
            )
        {
            let budget = options.max_edits - edits_applied;
            let plan = span(tr, "surgery.plan", || {
                plan_structural_edits(&graph, lib, &stalled[..1], &mut flimits, budget)
            });
            if !plan.is_empty() {
                let ws_before = span(tr, "sta.query", || {
                    graph.worst_slack_overall_ps().unwrap_or(0.0)
                });
                let applied = span(tr, "surgery.apply", || graph.apply_edits(&plan))?;
                edits_applied += applied.len();
                counts.surgery_edits += applied.len();
                for op in plan.ops() {
                    match op {
                        EditOp::InsertBuffer { .. } => buffers_inserted += 1,
                        EditOp::DeMorgan { .. } => gates_restructured += 1,
                        EditOp::ReplaceGate { .. } => {}
                    }
                }
                edit_slack_gain_ps += span(tr, "sta.query", || {
                    graph.worst_slack_overall_ps().unwrap_or(0.0)
                }) - ws_before;
                any_change = true;
            }
        }

        let round_end_delay = span(tr, "sta.query", || graph.critical_delay_ps());
        if round_end_delay < best_delay {
            best_delay = graph.critical_delay_ps();
            best_sizing = graph.sizing().clone();
            best_circuit = graph.circuit().clone();
            best_edits = (
                edits_applied,
                buffers_inserted,
                gates_restructured,
                edit_slack_gain_ps,
            );
        } else {
            counts.noop_rounds += 1;
        }
        if !any_change {
            break;
        }
    }
    counts
        .sta
        .add(&StaWork::delta(&stats_before, &graph.stats()));
    counts.rounds += rounds;
    counts.paths_sized += paths_optimized;

    let (edits_applied, buffers_inserted, gates_restructured, edit_slack_gain_ps) = best_edits;
    counts.kept_edits += edits_applied;

    let mut vt_classes = vec![VtClass::Svt; best_circuit.gate_count()];
    let mut hvt_gates = 0usize;
    let mut panic_recoveries = 0usize;
    let mut sequential_fallbacks = 0usize;
    if options.vt_assignment {
        let build = tr.enter("vt.build");
        let corners = CornerSet::slow_typical_fast(lib.process().clone());
        let mut vt_graph = TimingGraph::with_corners(
            &best_circuit,
            lib,
            &best_sizing,
            &AnalyzeOptions::default(),
            &corners,
        )?;
        vt_graph.set_constraint(tc_ps);
        let headroom = matches!(vt_graph.worst_slack_overall_ps(), Some(s) if s >= 0.0);
        tr.exit(build);
        counts.vt_threads = counts.vt_threads.max(vt_graph.threads());
        let probe_stats = vt_graph.stats();
        if headroom {
            let probe = tr.enter("vt.probe");
            for g in best_circuit.gate_ids() {
                counts.vt_probes += 1;
                vt_graph.set_vt_class(g, VtClass::Hvt);
                if matches!(vt_graph.worst_slack_overall_ps(), Some(s) if s >= 0.0) {
                    vt_classes[g.index()] = VtClass::Hvt;
                    hvt_gates += 1;
                } else {
                    vt_graph.set_vt_class(g, VtClass::Svt);
                }
            }
            tr.exit(probe);
        }
        counts.vt_demotions += hvt_gates;
        let vt_stats = vt_graph.stats();
        counts.vt.add(&StaWork::delta(&probe_stats, &vt_stats));
        panic_recoveries += vt_stats.panic_recoveries;
        sequential_fallbacks += vt_stats.sequential_fallbacks;
    }
    let leakage: f64 = best_circuit
        .gate_ids()
        .map(|g| leakage_nw(lib.process(), vt_classes[g.index()], best_sizing.cin_ff(g)))
        .sum();

    let stats = graph.stats();
    panic_recoveries += stats.panic_recoveries;
    sequential_fallbacks += stats.sequential_fallbacks;

    Ok(FlowResult {
        final_delay_ps: best_delay,
        total_cin_ff: best_sizing.total_cin_ff(),
        circuit: best_circuit,
        sizing: best_sizing,
        initial_delay_ps,
        paths_optimized,
        edits_applied,
        buffers_inserted,
        gates_restructured,
        edit_slack_gain_ps,
        rounds,
        vt_classes,
        hvt_gates,
        leakage_nw: leakage,
        panic_recoveries,
        sequential_fallbacks,
    })
}

/// Mirror of the flow's private structural planner: buffer ops first,
/// then De Morgan rewrites, each stalled path's on-path successor kept
/// on the direct net, truncated to the edit budget.
fn plan_structural_edits(
    graph: &TimingGraph,
    lib: &Library,
    stalled: &[NetlistPath],
    flimits: &mut FlimitCache,
    budget: usize,
) -> EditPlan {
    let circuit = graph.circuit();
    let cins: Vec<f64> = circuit
        .gate_ids()
        .map(|g| graph.sizing().cin_ff(g))
        .collect();
    let po_load_ff = graph.options().po_load_ff;

    let mut on_path_next: HashMap<NetId, GateId> = HashMap::new();
    let mut candidate_gates: Vec<GateId> = Vec::new();
    for path in stalled {
        for (i, &g) in path.gates.iter().enumerate() {
            candidate_gates.push(g);
            if let Some(&next) = path.gates.get(i + 1) {
                on_path_next.entry(circuit.gate(g).output()).or_insert(next);
            }
        }
    }

    let demorgan =
        plan_demorgan_restructure(circuit, lib, &cins, po_load_ff, &candidate_gates, flimits);
    let rewritten: HashSet<GateId> = demorgan
        .ops()
        .iter()
        .filter_map(|op| match op {
            EditOp::DeMorgan { gate, .. } => Some(*gate),
            _ => None,
        })
        .collect();
    let buffer_nets: Vec<NetId> = candidate_gates
        .iter()
        .filter(|g| !rewritten.contains(g))
        .map(|&g| circuit.gate(g).output())
        .collect();
    let mut plan = plan_buffer_insertions(
        circuit,
        lib,
        &cins,
        po_load_ff,
        &buffer_nets,
        |net, g| {
            if on_path_next.get(&net) == Some(&g) {
                return false;
            }
            graph.worst_slack_ps(circuit.gate(g).output()) > graph.worst_slack_ps(net)
        },
        flimits,
    );
    plan.extend(demorgan);

    if plan.len() > budget {
        let ops: Vec<EditOp> = plan.ops()[..budget].to_vec();
        return ops.into();
    }
    plan
}

/// The first field in which two flow results differ, bit for bit, or
/// `None` when they agree.
pub fn first_difference(a: &FlowResult, b: &FlowResult) -> Option<&'static str> {
    let bits = |x: f64| x.to_bits();
    if bits(a.final_delay_ps) != bits(b.final_delay_ps) {
        return Some("final_delay_ps");
    }
    if bits(a.initial_delay_ps) != bits(b.initial_delay_ps) {
        return Some("initial_delay_ps");
    }
    if a.circuit.gate_count() != b.circuit.gate_count() {
        return Some("gate_count");
    }
    if a.sizing.len() != b.sizing.len()
        || a.circuit
            .gate_ids()
            .any(|g| bits(a.sizing.cin_ff(g)) != bits(b.sizing.cin_ff(g)))
    {
        return Some("sizing");
    }
    if a.hvt_gates != b.hvt_gates {
        return Some("hvt_gates");
    }
    if a.vt_classes != b.vt_classes {
        return Some("vt_classes");
    }
    if bits(a.leakage_nw) != bits(b.leakage_nw) {
        return Some("leakage_nw");
    }
    if (a.rounds, a.paths_optimized) != (b.rounds, b.paths_optimized) {
        return Some("rounds");
    }
    if (a.edits_applied, a.buffers_inserted, a.gates_restructured)
        != (b.edits_applied, b.buffers_inserted, b.gates_restructured)
    {
        return Some("edits_applied");
    }
    None
}

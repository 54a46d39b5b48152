//! Incremental graph surgery vs full rebuild: the cost of landing one
//! structural edit under live timing state.
//!
//! The measured operation is the write-back flow's hot move once sizing
//! stalls: insert one Inv-pair buffer on a fanout-heavy net and bring
//! the whole timing picture — forward arrivals *and* the maintained
//! backward required/slack/k-paths state — back to bit-exactness.
//!
//! * `surgery` — clone a warm [`TimingGraph`] (cheap memcpy setup,
//!   excluded by measuring only the edit), then `apply_edits` with one
//!   `InsertBuffer` op: circuit mutation + structural array rebuild +
//!   seeded dirty-cone re-timing, forward and backward.
//! * `rebuild` — what landing the same edit cost before `apply_edits`:
//!   apply the op to a circuit copy, build a fresh `TimingGraph` on it
//!   and set the constraint (full forward + full backward pass).
//!
//! One sample per candidate net (the deepest fanout-heavy nets), timed
//! individually; median and mean per edit are reported. Results are
//! recorded as a baseline in `BENCH_sta_surgery.json` at the repository
//! root.

use std::time::Instant;

use pops_bench::microbench::format_ns;
use pops_bench::{mean, median, write_baseline};
use pops_delay::Library;
use pops_netlist::suite;
use pops_netlist::surgery::{EditOp, EditPlan};
use pops_netlist::NetId;
use pops_sta::{Sizing, TimingGraph};

struct CircuitBaseline {
    circuit: String,
    gates: usize,
    edits_sampled: usize,
    surgery_median_ns: f64,
    surgery_mean_ns: f64,
    rebuild_median_ns: f64,
    rebuild_mean_ns: f64,
    speedup_median: f64,
    speedup_mean: f64,
}
pops_bench::json_fields!(CircuitBaseline {
    circuit,
    gates,
    edits_sampled,
    surgery_median_ns,
    surgery_mean_ns,
    rebuild_median_ns,
    rebuild_mean_ns,
    speedup_median,
    speedup_mean
});

fn main() {
    let lib = Library::cmos025();
    let mut baselines = Vec::new();

    for name in ["c6288", "c7552"] {
        let circuit = suite::circuit(name).expect("suite circuit");
        let sizing = Sizing::minimum(&circuit, &lib);
        let mut graph = TimingGraph::new(&circuit, &lib, &sizing).expect("acyclic");
        graph.set_constraint(0.9 * graph.critical_delay_ps());

        // Candidate nets: the deepest 24 with fanout >= 3 — the shape
        // the flow actually buffers (relieving a loaded driver without
        // re-timing the whole design).
        let order = circuit.topo_order().expect("acyclic");
        let nets: Vec<NetId> = order
            .iter()
            .rev()
            .map(|&g| circuit.gate(g).output())
            .filter(|&n| circuit.net(n).fanout() >= 3)
            .take(24)
            .collect();
        assert!(!nets.is_empty(), "{name} has fanout-heavy nets");

        let plan_for = |net: NetId| -> EditPlan {
            vec![EditOp::InsertBuffer {
                net,
                loads: circuit.net(net).loads()[1..].to_vec(),
                stage_cin_ff: [lib.min_drive_ff(), 4.0 * lib.min_drive_ff()],
            }]
            .into()
        };

        // Steady state: the graph owns its circuit after the first edit
        // of a write-back run (the one-time copy-on-write copy is not
        // the recurring cost). Every sample lands one edit untimed on a
        // fresh clone, which also gives the clone a circuit body of its
        // own, then measures the next edit from that owned state.
        let warm_up = plan_for(nets[0]);
        let samples = &nets[1..];

        let mut surgery_ns = Vec::with_capacity(samples.len());
        let mut rebuild_ns = Vec::with_capacity(samples.len());
        for &net in samples {
            let plan = plan_for(net);

            // Incremental: mutate + patch + re-time the seeded cones.
            let mut patched = graph.clone();
            patched.apply_edits(&warm_up).expect("valid edit");
            let t0 = Instant::now();
            patched.apply_edits(&plan).expect("valid edit");
            std::hint::black_box(patched.worst_slack_overall_ps());
            surgery_ns.push(t0.elapsed().as_nanos() as f64);

            // Rebuild: same edit, from-scratch graph + backward pass.
            let mut edited = circuit.clone();
            warm_up.apply_to(&mut edited).expect("valid edit");
            let tc = graph.constraint_ps().expect("constraint set");
            let sizing_after = patched.sizing().clone();
            let t0 = Instant::now();
            plan.apply_to(&mut edited).expect("valid edit");
            let mut fresh = TimingGraph::new(&edited, &lib, &sizing_after).expect("still acyclic");
            fresh.set_constraint(tc);
            std::hint::black_box(fresh.worst_slack_overall_ps());
            rebuild_ns.push(t0.elapsed().as_nanos() as f64);

            // The two must agree bit-for-bit — the bench is only valid
            // while the equivalence contract holds.
            assert_eq!(
                patched.worst_slack_overall_ps().map(f64::to_bits),
                fresh.worst_slack_overall_ps().map(f64::to_bits),
                "{name}: surgery diverged from rebuild"
            );
        }

        let (s_med, s_mean) = (median(surgery_ns.clone()), mean(&surgery_ns));
        let (r_med, r_mean) = (median(rebuild_ns.clone()), mean(&rebuild_ns));
        baselines.push(CircuitBaseline {
            circuit: name.to_string(),
            gates: circuit.gate_count(),
            edits_sampled: samples.len(),
            surgery_median_ns: s_med,
            surgery_mean_ns: s_mean,
            rebuild_median_ns: r_med,
            rebuild_mean_ns: r_mean,
            speedup_median: r_med / s_med,
            speedup_mean: r_mean / s_mean,
        });
    }

    println!(
        "circuit      gates  edits   surgery median   rebuild median   speedup (median / mean)"
    );
    for b in &baselines {
        println!(
            "{:<10} {:>6} {:>6}  {:>14}  {:>15}  {:>7.1}x / {:.1}x",
            b.circuit,
            b.gates,
            b.edits_sampled,
            format_ns(b.surgery_median_ns),
            format_ns(b.rebuild_median_ns),
            b.speedup_median,
            b.speedup_mean,
        );
    }

    write_baseline("sta_surgery", &baselines);
}

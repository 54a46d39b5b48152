//! The per-gate timing kernels, both directions.
//!
//! The timing state lives in rank-major slabs (see
//! [`crate::incremental`]): gates are in topological order, the net
//! driven by the gate at topo position `pos` occupies slot
//! `n_src + pos`, and every per-corner slab is corner-innermost (slot
//! `s` at corner `c` is index `s * n_corners + c`). Every evaluation the
//! incremental engine performs — the forward drain and sweep, the
//! required-time and completion drains, the gate-centric required
//! sweep — goes through the kernels here, so a drain and a sweep of the
//! same state cannot diverge: each kernel reproduces the full pass's
//! per-gate (or per-net) step with the same arc order, comparisons and
//! floating-point operations, and the `debug_assert`s cross-check every
//! cached-constant arc delay against the reference delay model.

use pops_delay::model::{gate_delay_with_output_edge_vt, Edge};
use pops_delay::{Library, VtTiming};
use pops_netlist::{CellKind, GateId, NetId, VtClass};

use crate::analysis::{compatible_input_edges, eidx, EDGES};
use crate::incremental::{ArcTerms, GateParams};

/// Arrival or slope of the gate's output net changed (bitwise) — the
/// forward cone expands through its fanouts.
pub(crate) const F_SLOPE: u8 = 1 << 0;
/// The gate's worst delay changed — its completion bound re-derives.
pub(crate) const F_DELAY: u8 = 1 << 1;
/// The output net's arrival changed — its slack leaf re-folds.
pub(crate) const F_ARRIVAL: u8 = 1 << 2;
/// The output net moved at all (slope or arrival): fanouts re-mark.
pub(crate) const F_OUT_CHANGED: u8 = F_SLOPE | F_ARRIVAL;

/// Predecessor record per edge: `(fanin net, input edge)` of the worst
/// arrival.
pub(crate) type PredPair = [Option<(NetId, Edge)>; 2];

/// Read-only view of every circuit-derived array the kernels need,
/// assembled by the graph per flush so the kernels never borrow the
/// graph itself (which holds `RefCell`s).
pub(crate) struct EvalCtx<'a> {
    /// Gates in topological order (`pos` indexes this).
    pub topo: &'a [GateId],
    /// Cell kind per gate (id-indexed).
    pub cell: &'a [CellKind],
    /// Flattened model constants per (gate, corner), corner-innermost:
    /// gate `gi` at corner `c` is `gate_params[gi * n_corners + c]`.
    pub gate_params: &'a [GateParams],
    /// Number of process corners (the stride of every per-corner slab).
    pub n_corners: usize,
    /// Vt variant per gate (id-indexed; for the debug model cross-check
    /// — the electrical effect is baked into `gate_params`).
    pub vt_class: &'a [VtClass],
    /// Flattened fanin nets (ids, for predecessor records).
    pub fanin: &'a [NetId],
    /// Slot of each flattened fanin net (parallel to `fanin`).
    pub fanin_slots: &'a [u32],
    /// Fanin offsets per gate id.
    pub fanin_off: &'a [u32],
    /// Input capacitance per gate (id-indexed).
    pub cins: &'a [f64],
    /// Slots `0..n_src` hold driverless nets; gate `pos` writes slot
    /// `n_src + pos`.
    pub n_src: usize,
    /// Output net per gate id (backward kernels key their fanout walk
    /// on it).
    pub out_net: &'a [NetId],
    /// Flattened fanout gates per net id (`fanout_off` delimits).
    pub fanout: &'a [GateId],
    /// Fanout offsets per net id.
    pub fanout_off: &'a [u32],
    /// Topo position per gate id (fanout gates resolve to their slots
    /// as `n_src + rank`).
    pub rank: &'a [u32],
    /// Primary-output flag per net id.
    pub is_po: &'a [bool],
    /// One characterized library per corner, corner-indexed — for the
    /// debug cross-check against the reference delay model.
    pub libs: &'a [Library],
}

/// The mutable forward slabs of one flush.
pub(crate) struct FwdView<'a> {
    arrival: &'a mut [[f64; 2]],
    slope: &'a mut [[f64; 2]],
    pred: &'a mut [PredPair],
    load: &'a [f64],
    gate_delay: &'a mut [f64],
}

impl<'a> FwdView<'a> {
    pub(crate) fn new(
        arrival: &'a mut [[f64; 2]],
        slope: &'a mut [[f64; 2]],
        pred: &'a mut [PredPair],
        load: &'a [f64],
        gate_delay: &'a mut [f64],
    ) -> Self {
        FwdView {
            arrival,
            slope,
            pred,
            load,
            gate_delay,
        }
    }

    /// The forward per-gate kernel: re-run the full pass's step for the
    /// gate at `pos` across every corner, write its output slots and
    /// return the change flags OR-ed over corners. Corners are fully
    /// independent lanes — identical arc order, comparisons and
    /// floating-point operations per corner to a single-corner engine
    /// (the `debug_assert` cross-checks the model).
    pub(crate) fn eval_gate(&mut self, ctx: &EvalCtx<'_>, pos: usize) -> u8 {
        let gid = ctx.topo[pos];
        let gi = gid.index();
        let cell = ctx.cell[gi];
        let cin = ctx.cins[gi];
        let out_slot = ctx.n_src + pos;
        let load = self.load[out_slot];
        let nc = ctx.n_corners;
        let fanin_range = ctx.fanin_off[gi] as usize..ctx.fanin_off[gi + 1] as usize;

        let mut flags = 0u8;
        for c in 0..nc {
            let params = &ctx.gate_params[gi * nc + c];
            // The arc terms that do not depend on the fanin are hoisted
            // out of the loop (shared with the backward kernels).
            let ArcTerms {
                tau_out_by_edge,
                miller,
            } = params.arc_terms(cin, load);

            let mut new_arrival = [f64::NEG_INFINITY; 2];
            let mut new_slope = [0.0f64; 2];
            let mut new_pred: PredPair = [None, None];
            let mut worst_gate_delay = 0.0f64;

            for out_edge in EDGES {
                let tau_out = tau_out_by_edge[eidx(out_edge)];
                let mut best: Option<(f64, NetId, Edge)> = None;
                for idx in fanin_range.clone() {
                    let in_net = ctx.fanin[idx];
                    let in_slot = ctx.fanin_slots[idx] as usize;
                    let in_arrival = self.arrival[in_slot * nc + c];
                    let in_slope = self.slope[in_slot * nc + c];
                    for &in_edge in compatible_input_edges(cell, out_edge) {
                        let t_in = in_arrival[eidx(in_edge)];
                        if t_in == f64::NEG_INFINITY {
                            continue;
                        }
                        let s_in = in_slope[eidx(in_edge)];
                        let i = eidx(in_edge);
                        let delay_ps = 0.5 * params.vt[i] * s_in + 0.5 * miller[i] * tau_out;
                        debug_assert!(
                            delay_ps.to_bits()
                                == gate_delay_with_output_edge_vt(
                                    &ctx.libs[c],
                                    cell,
                                    VtTiming::of(ctx.vt_class[gi]),
                                    cin,
                                    load,
                                    s_in,
                                    in_edge,
                                    out_edge,
                                )
                                .delay_ps
                                .to_bits(),
                            "cached-constant arc delay must match the model"
                        );
                        worst_gate_delay = worst_gate_delay.max(delay_ps);
                        let t_out = t_in + delay_ps;
                        if best.map(|(t, ..)| t_out > t).unwrap_or(true) {
                            best = Some((t_out, in_net, in_edge));
                        }
                    }
                }
                if let Some((t, n, e)) = best {
                    let i = eidx(out_edge);
                    new_arrival[i] = t;
                    new_slope[i] = tau_out;
                    new_pred[i] = Some((n, e));
                }
            }

            let old_delay = self.gate_delay[pos * nc + c];
            let old_arrival = self.arrival[out_slot * nc + c];
            let old_slope = self.slope[out_slot * nc + c];
            if old_delay.to_bits() != worst_gate_delay.to_bits() {
                flags |= F_DELAY;
            }
            if new_slope[0].to_bits() != old_slope[0].to_bits()
                || new_slope[1].to_bits() != old_slope[1].to_bits()
            {
                flags |= F_SLOPE;
            }
            if new_arrival[0].to_bits() != old_arrival[0].to_bits()
                || new_arrival[1].to_bits() != old_arrival[1].to_bits()
            {
                flags |= F_ARRIVAL;
            }
            self.gate_delay[pos * nc + c] = worst_gate_delay;
            self.arrival[out_slot * nc + c] = new_arrival;
            self.slope[out_slot * nc + c] = new_slope;
            self.pred[out_slot * nc + c] = new_pred;
        }
        flags
    }
}

/// The mutable backward slabs of one flush, plus the read-only forward
/// state they derive from (settled first — the two-phase flush
/// contract).
pub(crate) struct BwdView<'a> {
    required: &'a mut [[f64; 2]],
    completion: &'a mut [f64],
    slope: &'a [[f64; 2]],
    load: &'a [f64],
    gate_delay_worst: &'a [f64],
    tc_ps: f64,
}

impl<'a> BwdView<'a> {
    pub(crate) fn new(
        required: &'a mut [[f64; 2]],
        completion: &'a mut [f64],
        slope: &'a [[f64; 2]],
        load: &'a [f64],
        gate_delay_worst: &'a [f64],
        tc_ps: f64,
    ) -> Self {
        BwdView {
            required,
            completion,
            slope,
            load,
            gate_delay_worst,
            tc_ps,
        }
    }

    /// Recompute the required times of the net `net` (slab slot `slot`)
    /// from its fanout arcs and write its slot; returns whether any
    /// corner changed (bitwise).
    ///
    /// Candidates are exactly the full backward pass's for this net —
    /// same arc delays (via the cached constants, asserted against the
    /// model), accumulated by the same `<` min — so the result is
    /// bit-identical to a fresh [`crate::required_times`]: a min over
    /// one multiset is order-independent.
    pub(crate) fn eval_required_net(&mut self, ctx: &EvalCtx<'_>, net: usize, slot: usize) -> bool {
        let nc = ctx.n_corners;
        let (lo, hi) = (
            ctx.fanout_off[net] as usize,
            ctx.fanout_off[net + 1] as usize,
        );
        let mut changed = false;
        for c in 0..nc {
            let mut req = if ctx.is_po[net] {
                [self.tc_ps; 2]
            } else {
                [f64::INFINITY; 2]
            };
            let slope = self.slope[slot * nc + c];
            for &h in &ctx.fanout[lo..hi] {
                let g = h.index();
                let cell = ctx.cell[g];
                // A gate's output slot is `n_src + rank` — no net-id
                // round-trip.
                let h_out_slot = ctx.n_src + ctx.rank[g] as usize;
                let cin = ctx.cins[g];
                let load = self.load[h_out_slot];
                let params = &ctx.gate_params[g * nc + c];
                // Same hoisted arc terms as the forward kernel
                // (bit-identical to `gate_delay_with_output_edge_vt`).
                let ArcTerms {
                    tau_out_by_edge,
                    miller,
                } = params.arc_terms(cin, load);
                for out_edge in EDGES {
                    let req_out = self.required[h_out_slot * nc + c][eidx(out_edge)];
                    if req_out == f64::INFINITY {
                        continue;
                    }
                    let tau_out = tau_out_by_edge[eidx(out_edge)];
                    for &in_edge in compatible_input_edges(cell, out_edge) {
                        let i = eidx(in_edge);
                        let delay_ps = 0.5 * params.vt[i] * slope[i] + 0.5 * miller[i] * tau_out;
                        debug_assert_eq!(
                            delay_ps.to_bits(),
                            gate_delay_with_output_edge_vt(
                                &ctx.libs[c],
                                cell,
                                VtTiming::of(ctx.vt_class[g]),
                                cin,
                                load,
                                slope[i],
                                in_edge,
                                out_edge,
                            )
                            .delay_ps
                            .to_bits(),
                            "cached-constant backward arc delay must match the model"
                        );
                        let candidate = req_out - delay_ps;
                        if candidate < req[i] {
                            req[i] = candidate;
                        }
                    }
                }
            }
            let cur = self.required[slot * nc + c];
            changed |= req[0].to_bits() != cur[0].to_bits() || req[1].to_bits() != cur[1].to_bits();
            self.required[slot * nc + c] = req;
        }
        changed
    }

    /// Recompute the completion bound of the gate at topo position
    /// `pos`; returns whether it changed (bitwise). Same fold, in the
    /// same successor order, as [`crate::kpaths::completion_bounds`].
    pub(crate) fn eval_completion_gate(&mut self, ctx: &EvalCtx<'_>, pos: usize) -> bool {
        let gid = ctx.topo[pos];
        let out = ctx.out_net[gid.index()].index();
        let nc = ctx.n_corners;
        let (lo, hi) = (
            ctx.fanout_off[out] as usize,
            ctx.fanout_off[out + 1] as usize,
        );
        let mut changed = false;
        for c in 0..nc {
            let mut best = if ctx.is_po[out] {
                0.0
            } else {
                f64::NEG_INFINITY
            };
            for &succ in &ctx.fanout[lo..hi] {
                let succ_pos = ctx.rank[succ.index()] as usize;
                let comp = self.completion[succ_pos * nc + c];
                if comp.is_finite() {
                    best = best.max(comp);
                }
            }
            let new = if best.is_finite() {
                self.gate_delay_worst[pos * nc + c] + best
            } else {
                f64::NEG_INFINITY
            };
            let cur = self.completion[pos * nc + c];
            changed |= new.to_bits() != cur.to_bits();
            self.completion[pos * nc + c] = new;
        }
        changed
    }

    /// One gate of the gate-centric required sweep: read the gate's own
    /// (settled) required slot, hoist its arc terms once, and min-fold
    /// one candidate per fanin arc into the fanin slots — exactly
    /// [`crate::required_times`]'s per-gate walk over the cached
    /// constants. Fanin slots belong to strictly lower ranks, so the
    /// folds never touch the slot this gate reads.
    pub(crate) fn sweep_gate_fold(&mut self, ctx: &EvalCtx<'_>, pos: usize) {
        let gid = ctx.topo[pos];
        let gi = gid.index();
        let out_slot = ctx.n_src + pos;
        let cell = ctx.cell[gi];
        let cin = ctx.cins[gi];
        let load = self.load[out_slot];
        let nc = ctx.n_corners;
        let fanin_range = ctx.fanin_off[gi] as usize..ctx.fanin_off[gi + 1] as usize;
        for c in 0..nc {
            let params = &ctx.gate_params[gi * nc + c];
            let ArcTerms {
                tau_out_by_edge,
                miller,
            } = params.arc_terms(cin, load);
            for out_edge in EDGES {
                let req_out = self.required[out_slot * nc + c][eidx(out_edge)];
                if req_out == f64::INFINITY {
                    continue;
                }
                let tau_out = tau_out_by_edge[eidx(out_edge)];
                for idx in fanin_range.clone() {
                    let in_slot = ctx.fanin_slots[idx] as usize;
                    for &in_edge in compatible_input_edges(cell, out_edge) {
                        let i = eidx(in_edge);
                        let slope = self.slope[in_slot * nc + c][i];
                        let delay_ps = 0.5 * params.vt[i] * slope + 0.5 * miller[i] * tau_out;
                        debug_assert_eq!(
                            delay_ps.to_bits(),
                            gate_delay_with_output_edge_vt(
                                &ctx.libs[c],
                                cell,
                                VtTiming::of(ctx.vt_class[gi]),
                                cin,
                                load,
                                slope,
                                in_edge,
                                out_edge,
                            )
                            .delay_ps
                            .to_bits(),
                            "cached-constant sweep arc delay must match the model"
                        );
                        let candidate = req_out - delay_ps;
                        let cur = &mut self.required[in_slot * nc + c][i];
                        if candidate < *cur {
                            *cur = candidate;
                        }
                    }
                }
            }
        }
    }
}

//! Arena-based combinational circuit graph.
//!
//! A [`Circuit`] holds two arenas — nets and gates — indexed by the opaque
//! ids [`NetId`] and [`GateId`]. Every net has at most one driver (a
//! primary input or a gate output) and any number of loads (gate input
//! pins or primary outputs). The graph must be acyclic; [`Circuit::topo_order`]
//! both checks this and provides the evaluation/timing order used by the
//! STA and optimizer crates.
//!
//! A `Circuit` is a copy-on-write handle: clones share one body until one
//! of them mutates, so keeping a snapshot of a netlist costs nothing
//! until the netlist is edited.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::cell::CellKind;
use crate::error::NetlistError;

/// Opaque index of a net within a [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

/// Opaque index of a gate within a [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub(crate) u32);

impl NetId {
    /// Raw index (stable for the lifetime of the circuit).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl GateId {
    /// Raw index (stable for the lifetime of the circuit).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetDriver {
    /// The net is a primary input of the circuit.
    PrimaryInput,
    /// The net is driven by the output of a gate.
    Gate(GateId),
}

/// A net: one driver, many loads.
#[derive(Debug, Clone)]
pub struct Net {
    name: String,
    driver: Option<NetDriver>,
    /// `(gate, pin index)` pairs loading this net.
    loads: Vec<(GateId, usize)>,
    is_output: bool,
}

impl Net {
    /// Net name as declared.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The driver, if the net is driven yet.
    pub fn driver(&self) -> Option<NetDriver> {
        self.driver
    }

    /// Gate input pins loading this net.
    pub fn loads(&self) -> &[(GateId, usize)] {
        &self.loads
    }

    /// Whether the net is marked as a primary output.
    pub fn is_output(&self) -> bool {
        self.is_output
    }

    /// Fan-out count (number of gate input pins driven).
    pub fn fanout(&self) -> usize {
        self.loads.len()
    }
}

/// A gate instance: a cell plus its net connections.
#[derive(Debug, Clone)]
pub struct Gate {
    kind: CellKind,
    inputs: Vec<NetId>,
    output: NetId,
}

impl Gate {
    /// The library cell implementing this gate.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// Input nets, in pin order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Output net.
    pub fn output(&self) -> NetId {
        self.output
    }
}

/// A combinational gate-level circuit.
///
/// `Circuit` is a handle on a reference-counted body. Cloning is O(1)
/// and shares the body; reads borrow it. Every `&mut self` method goes
/// through [`Arc::make_mut`], which copies the body first when another
/// handle shares it (copy-on-write), so an edit through one clone is
/// never seen through another, and the structure caches it resets are
/// that handle's own.
///
/// # Example
///
/// ```
/// use pops_netlist::{CellKind, Circuit};
///
/// # fn main() -> Result<(), pops_netlist::NetlistError> {
/// let mut c = Circuit::new("half_adder");
/// let a = c.add_input("a");
/// let b = c.add_input("b");
/// let s = c.add_gate(CellKind::Xor2, &[a, b], "sum")?;
/// let co = c.add_gate(CellKind::And2, &[a, b], "carry")?;
/// c.mark_output(s);
/// c.mark_output(co);
/// assert_eq!(c.gate_count(), 2);
/// assert_eq!(c.primary_inputs().len(), 2);
/// assert!(c.topo_order().is_ok());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Circuit(Arc<CircuitBody>);

/// The arenas and caches behind a [`Circuit`] handle. Shared by every
/// clone until one of them mutates.
#[derive(Debug, Clone)]
struct CircuitBody {
    name: String,
    nets: Vec<Net>,
    gates: Vec<Gate>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    by_name: HashMap<String, NetId>,
    /// Cached [`Circuit::topo_order`] result; reset by every structural
    /// mutation so a stale order can never be observed.
    topo_cache: OnceLock<Result<Vec<GateId>, NetlistError>>,
    /// Cached [`Circuit::logic_levels`] result, invalidated likewise.
    levels_cache: OnceLock<Result<Vec<usize>, NetlistError>>,
}

/// Record of one [`Circuit::insert_buffer`]: the Inv→Inv pair and the
/// nets it created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferInsertion {
    /// First (load-isolating) inverter; its input is the buffered net.
    pub first: GateId,
    /// Second (driving) inverter; it takes over the moved loads.
    pub second: GateId,
    /// Internal net between the two inverters.
    pub mid_net: NetId,
    /// New net carrying the moved load pins, driven by `second`.
    pub out_net: NetId,
}

/// Record of one [`Circuit::demorgan_gate`]: the inverters and nets the
/// rewrite created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeMorganEdit {
    /// Per-input inverters, in pin order.
    pub input_invs: Vec<GateId>,
    /// Their output nets — the rewired gate's new inputs, in pin order.
    pub input_nets: Vec<NetId>,
    /// New internal net now driven by the rewired (dual) gate.
    pub inner_net: NetId,
    /// Output inverter restoring the original polarity on the original
    /// output net.
    pub output_inv: GateId,
}

impl Circuit {
    /// Create an empty circuit with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Circuit(Arc::new(CircuitBody {
            name: name.into(),
            nets: Vec::new(),
            gates: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            by_name: HashMap::new(),
            topo_cache: OnceLock::new(),
            levels_cache: OnceLock::new(),
        }))
    }

    /// Write access to the body, copying it first if another handle
    /// shares it. Every mutator goes through here, so edits to one clone
    /// are never seen by another.
    fn body_mut(&mut self) -> &mut CircuitBody {
        Arc::make_mut(&mut self.0)
    }

    /// Drop the memoized topo/level results. Every mutation of gates,
    /// drivers or load pins must call this before returning.
    fn invalidate_structure_caches(&mut self) {
        let body = self.body_mut();
        body.topo_cache = OnceLock::new();
        body.levels_cache = OnceLock::new();
    }

    /// Circuit name.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// Number of gates.
    pub fn gate_count(&self) -> usize {
        self.0.gates.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.0.nets.len()
    }

    /// Primary input nets, in declaration order.
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.0.inputs
    }

    /// Primary output nets, in declaration order.
    pub fn primary_outputs(&self) -> &[NetId] {
        &self.0.outputs
    }

    /// Iterate over all gate ids.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.0.gates.len() as u32).map(GateId)
    }

    /// Iterate over all net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.0.nets.len() as u32).map(NetId)
    }

    /// Access a gate.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this circuit.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.0.gates[id.index()]
    }

    /// Access a net.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this circuit.
    pub fn net(&self, id: NetId) -> &Net {
        &self.0.nets[id.index()]
    }

    /// Look a net up by name.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.0.by_name.get(name).copied()
    }

    /// Create an undriven, unnamed-load net.
    ///
    /// If `name` collides with an existing net, a fresh suffixed name is
    /// generated (netlist builders rely on this for internal nets).
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let body = self.body_mut();
        let mut name = name.into();
        if body.by_name.contains_key(&name) {
            let mut i = 1usize;
            loop {
                let candidate = format!("{name}_{i}");
                if !body.by_name.contains_key(&candidate) {
                    name = candidate;
                    break;
                }
                i += 1;
            }
        }
        let id = NetId(body.nets.len() as u32);
        body.by_name.insert(name.clone(), id);
        body.nets.push(Net {
            name,
            driver: None,
            loads: Vec::new(),
            is_output: false,
        });
        id
    }

    /// Declare a primary input net.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.add_net(name);
        let body = self.body_mut();
        body.nets[id.index()].driver = Some(NetDriver::PrimaryInput);
        body.inputs.push(id);
        self.invalidate_structure_caches();
        id
    }

    /// Add a gate driving a freshly created net named `output_name`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] if `inputs` does not match
    /// the cell's pin count, or [`NetlistError::InvalidId`] if an input net
    /// id is out of range.
    pub fn add_gate(
        &mut self,
        kind: CellKind,
        inputs: &[NetId],
        output_name: impl Into<String>,
    ) -> Result<NetId, NetlistError> {
        let out = self.add_net(output_name);
        self.add_gate_driving(kind, inputs, out)?;
        Ok(out)
    }

    /// Add a gate driving an existing (so far undriven) net.
    ///
    /// # Errors
    ///
    /// As [`Circuit::add_gate`], plus [`NetlistError::MultipleDrivers`] if
    /// `output` already has a driver.
    pub fn add_gate_driving(
        &mut self,
        kind: CellKind,
        inputs: &[NetId],
        output: NetId,
    ) -> Result<GateId, NetlistError> {
        if inputs.len() != kind.num_inputs() {
            return Err(NetlistError::ArityMismatch {
                cell: kind.to_string(),
                expected: kind.num_inputs(),
                got: inputs.len(),
            });
        }
        for &net in inputs.iter().chain(std::iter::once(&output)) {
            if net.index() >= self.0.nets.len() {
                return Err(NetlistError::InvalidId(format!("net {net}")));
            }
        }
        if self.0.nets[output.index()].driver.is_some() {
            return Err(NetlistError::MultipleDrivers(
                self.0.nets[output.index()].name.clone(),
            ));
        }
        let body = self.body_mut();
        let gid = GateId(body.gates.len() as u32);
        for (pin, &net) in inputs.iter().enumerate() {
            body.nets[net.index()].loads.push((gid, pin));
        }
        body.nets[output.index()].driver = Some(NetDriver::Gate(gid));
        body.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output,
        });
        self.invalidate_structure_caches();
        Ok(gid)
    }

    /// The gate driving a net, if any (`None` for primary inputs and
    /// undriven nets).
    pub fn driver_gate(&self, net: NetId) -> Option<GateId> {
        match self.0.nets[net.index()].driver {
            Some(NetDriver::Gate(g)) => Some(g),
            _ => None,
        }
    }

    /// Gates loading a net, one entry per connected input pin (a gate
    /// tapping the net on several pins appears once per pin).
    ///
    /// This is the fanout adjacency the incremental timing engine walks
    /// when a net's arrival changes.
    pub fn fanout_gates(&self, net: NetId) -> impl Iterator<Item = GateId> + '_ {
        self.0.nets[net.index()].loads.iter().map(|&(g, _pin)| g)
    }

    /// Mark a net as a primary output.
    pub fn mark_output(&mut self, net: NetId) {
        if !self.0.nets[net.index()].is_output {
            let body = self.body_mut();
            body.nets[net.index()].is_output = true;
            body.outputs.push(net);
        }
    }

    // ---- netlist surgery ----
    //
    // The structural write-back primitives: every mutation below keeps
    // the arena append-only (existing `GateId`/`NetId` values stay
    // valid), validates its preconditions *before* touching anything,
    // and invalidates the topo/level caches on success.

    /// Check that every `(gate, pin)` pair currently loads `net`, with
    /// no duplicates. Shared precondition of the pin-moving edits.
    fn check_load_pins(&self, net: NetId, loads: &[(GateId, usize)]) -> Result<(), NetlistError> {
        if loads.is_empty() {
            return Err(NetlistError::UnsupportedEdit(format!(
                "no load pins to move off net `{}`",
                self.0.nets[net.index()].name
            )));
        }
        for (i, &(g, pin)) in loads.iter().enumerate() {
            if g.index() >= self.0.gates.len() {
                return Err(NetlistError::InvalidId(format!("gate {g}")));
            }
            let gate = &self.0.gates[g.index()];
            if pin >= gate.inputs.len() || gate.inputs[pin] != net {
                return Err(NetlistError::UnsupportedEdit(format!(
                    "pin {pin} of {g} does not load net `{}`",
                    self.0.nets[net.index()].name
                )));
            }
            if loads[..i].contains(&(g, pin)) {
                return Err(NetlistError::UnsupportedEdit(format!(
                    "pin {pin} of {g} listed twice"
                )));
            }
        }
        Ok(())
    }

    /// Move the given load pins of `net` onto a fresh, *undriven* net
    /// and return it. The caller must attach a driver (this is the load
    /// re-homing step of buffer insertion; [`Circuit::insert_buffer`]
    /// does both). Primary-output status stays on the original net.
    ///
    /// # Errors
    ///
    /// [`NetlistError::InvalidId`] for out-of-range ids,
    /// [`NetlistError::UnsupportedEdit`] if `loads` is empty, lists a
    /// pin twice or names a pin that does not load `net`.
    pub fn split_net(
        &mut self,
        net: NetId,
        loads: &[(GateId, usize)],
    ) -> Result<NetId, NetlistError> {
        if net.index() >= self.0.nets.len() {
            return Err(NetlistError::InvalidId(format!("net {net}")));
        }
        self.check_load_pins(net, loads)?;
        let new = self.add_net(format!("{}_split", self.0.nets[net.index()].name));
        let body = self.body_mut();
        body.nets[net.index()]
            .loads
            .retain(|pin| !loads.contains(pin));
        for &(g, pin) in loads {
            body.gates[g.index()].inputs[pin] = new;
            body.nets[new.index()].loads.push((g, pin));
        }
        self.invalidate_structure_caches();
        Ok(new)
    }

    /// Insert a polarity-preserving Inv→Inv buffer pair after `net`,
    /// re-homing the given load pins onto the pair's output (the
    /// paper's Fig. 5 load isolation: the relieved driver now sees the
    /// first inverter instead of the moved pins).
    ///
    /// The original net keeps its driver, its remaining loads and its
    /// primary-output status; the moved pins see the same logic value
    /// through the double inversion.
    ///
    /// # Errors
    ///
    /// As [`Circuit::split_net`], plus [`NetlistError::UndefinedNet`]
    /// if `net` has no driver (buffering an undriven net would leave
    /// the pair dangling).
    pub fn insert_buffer(
        &mut self,
        net: NetId,
        loads: &[(GateId, usize)],
    ) -> Result<BufferInsertion, NetlistError> {
        if net.index() >= self.0.nets.len() {
            return Err(NetlistError::InvalidId(format!("net {net}")));
        }
        if self.0.nets[net.index()].driver.is_none() {
            return Err(NetlistError::UndefinedNet(
                self.0.nets[net.index()].name.clone(),
            ));
        }
        let out_net = self.split_net(net, loads)?;
        let mid_net = self.add_net(format!("{}_buf", self.0.nets[net.index()].name));
        let first = self.add_gate_driving(CellKind::Inv, &[net], mid_net)?;
        let second = self.add_gate_driving(CellKind::Inv, &[mid_net], out_net)?;
        Ok(BufferInsertion {
            first,
            second,
            mid_net,
            out_net,
        })
    }

    /// Whether `target` is reachable from `gate`'s output through the
    /// load/driver adjacency (i.e. `target` lies in `gate`'s transitive
    /// fanout). Used to reject rewirings that would close a cycle.
    fn in_fanout_cone(&self, gate: GateId, target: GateId) -> bool {
        let mut seen = vec![false; self.0.gates.len()];
        let mut stack = vec![gate];
        seen[gate.index()] = true;
        while let Some(g) = stack.pop() {
            let out = self.0.gates[g.index()].output;
            for &(load, _) in &self.0.nets[out.index()].loads {
                if load == target {
                    return true;
                }
                if !seen[load.index()] {
                    seen[load.index()] = true;
                    stack.push(load);
                }
            }
        }
        false
    }

    /// Swap a gate's cell and rewire its input pins; the output net is
    /// untouched. This is the raw replacement primitive — it does *not*
    /// preserve the logic function by itself (see
    /// [`Circuit::demorgan_gate`] for the polarity-correct rewrite).
    ///
    /// All preconditions are validated *before* anything mutates —
    /// including acyclicity: unlike construction-time `add_gate`, the
    /// surgery primitive operates on complete circuits, so undriven
    /// input nets are rejected and a rewiring that would close a
    /// combinational cycle (a new input driven from the gate's own
    /// fanout cone) fails up front instead of poisoning the circuit
    /// for the next [`Circuit::topo_order`].
    ///
    /// # Errors
    ///
    /// [`NetlistError::InvalidId`] for out-of-range ids,
    /// [`NetlistError::ArityMismatch`] if `inputs` does not match the
    /// new cell's pin count, [`NetlistError::UndefinedNet`] for an
    /// undriven input and [`NetlistError::CombinationalCycle`] if the
    /// rewiring would create a cycle.
    pub fn replace_gate(
        &mut self,
        gate: GateId,
        kind: CellKind,
        inputs: &[NetId],
    ) -> Result<(), NetlistError> {
        if gate.index() >= self.0.gates.len() {
            return Err(NetlistError::InvalidId(format!("gate {gate}")));
        }
        if inputs.len() != kind.num_inputs() {
            return Err(NetlistError::ArityMismatch {
                cell: kind.to_string(),
                expected: kind.num_inputs(),
                got: inputs.len(),
            });
        }
        for &net in inputs {
            if net.index() >= self.0.nets.len() {
                return Err(NetlistError::InvalidId(format!("net {net}")));
            }
            // Nets already feeding the gate cannot introduce anything
            // new; only genuinely new connections need the checks.
            if self.0.gates[gate.index()].inputs.contains(&net) {
                continue;
            }
            match self.0.nets[net.index()].driver {
                None => {
                    return Err(NetlistError::UndefinedNet(
                        self.0.nets[net.index()].name.clone(),
                    ));
                }
                Some(NetDriver::Gate(d)) => {
                    if d == gate || self.in_fanout_cone(gate, d) {
                        return Err(NetlistError::CombinationalCycle);
                    }
                }
                Some(NetDriver::PrimaryInput) => {}
            }
        }
        let body = self.body_mut();
        let old_inputs = std::mem::take(&mut body.gates[gate.index()].inputs);
        for (pin, &n) in old_inputs.iter().enumerate() {
            body.nets[n.index()]
                .loads
                .retain(|&(g, p)| !(g == gate && p == pin));
        }
        for (pin, &n) in inputs.iter().enumerate() {
            body.nets[n.index()].loads.push((gate, pin));
        }
        let g = &mut body.gates[gate.index()];
        g.kind = kind;
        g.inputs = inputs.to_vec();
        self.invalidate_structure_caches();
        Ok(())
    }

    /// Rewrite a NAND/NOR gate into its De Morgan dual (§4.2 of the
    /// paper): `NORn(a…)` becomes `NANDn(¬a…)` followed by an output
    /// inverter, and vice versa. One inverter is inserted per input,
    /// the gate itself is [`Circuit::replace_gate`]d by its dual onto a
    /// fresh internal net, and the original output net — loads and
    /// primary-output status untouched — is re-driven by the polarity
    /// restoring inverter, so the logic function at the output net (and
    /// everywhere downstream) is preserved exactly.
    ///
    /// # Errors
    ///
    /// [`NetlistError::InvalidId`] for an out-of-range gate and
    /// [`NetlistError::UnsupportedEdit`] for cells without a
    /// series-stack dual (anything outside the NAND/NOR families).
    pub fn demorgan_gate(&mut self, gate: GateId) -> Result<DeMorganEdit, NetlistError> {
        if gate.index() >= self.0.gates.len() {
            return Err(NetlistError::InvalidId(format!("gate {gate}")));
        }
        let kind = self.0.gates[gate.index()].kind;
        let Some(dual) = kind.demorgan_dual() else {
            return Err(NetlistError::UnsupportedEdit(format!(
                "{kind} has no De Morgan dual"
            )));
        };
        let old_inputs = self.0.gates[gate.index()].inputs.clone();
        let y = self.0.gates[gate.index()].output;

        let mut input_invs = Vec::with_capacity(old_inputs.len());
        let mut input_nets = Vec::with_capacity(old_inputs.len());
        for &a in &old_inputs {
            let na = self.add_net(format!("{}_dm", self.0.nets[a.index()].name));
            let inv = self.add_gate_driving(CellKind::Inv, &[a], na)?;
            input_invs.push(inv);
            input_nets.push(na);
        }

        // Re-home the gate's output onto a fresh internal net, then swap
        // in the dual over the inverted inputs and restore polarity on
        // the original net.
        let inner_net = self.add_net(format!("{}_dmz", self.0.nets[y.index()].name));
        let body = self.body_mut();
        body.nets[y.index()].driver = None;
        body.nets[inner_net.index()].driver = Some(NetDriver::Gate(gate));
        body.gates[gate.index()].output = inner_net;
        self.replace_gate(gate, dual, &input_nets)?;
        let output_inv = self.add_gate_driving(CellKind::Inv, &[inner_net], y)?;

        self.invalidate_structure_caches();
        Ok(DeMorganEdit {
            input_invs,
            input_nets,
            inner_net,
            output_inv,
        })
    }

    /// Gates in a valid topological (fanin-before-fanout) order.
    ///
    /// The result is memoized: repeated calls between mutations return a
    /// clone of the cached order instead of re-running the graph walk
    /// (STA construction, evaluation and level queries all start here).
    /// Every structural mutation — adding gates or inputs, netlist
    /// surgery — invalidates the cache, so a stale order is impossible.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the circuit is
    /// cyclic, or [`NetlistError::UndefinedNet`] if some gate input net has
    /// no driver.
    pub fn topo_order(&self) -> Result<Vec<GateId>, NetlistError> {
        self.0
            .topo_cache
            .get_or_init(|| self.compute_topo_order())
            .clone()
    }

    fn compute_topo_order(&self) -> Result<Vec<GateId>, NetlistError> {
        // Kahn's algorithm over gates; a gate becomes ready once all of its
        // input nets are resolved (primary inputs start resolved).
        let mut unresolved: Vec<usize> = self
            .0
            .gates
            .iter()
            .map(|g| {
                g.inputs
                    .iter()
                    .filter(|&&n| {
                        !matches!(self.0.nets[n.index()].driver, Some(NetDriver::PrimaryInput))
                    })
                    .count()
            })
            .collect();
        for gate in &self.0.gates {
            for &n in &gate.inputs {
                if self.0.nets[n.index()].driver.is_none() {
                    return Err(NetlistError::UndefinedNet(
                        self.0.nets[n.index()].name.clone(),
                    ));
                }
            }
        }
        let mut ready: Vec<GateId> = self
            .gate_ids()
            .filter(|&g| unresolved[g.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(self.0.gates.len());
        while let Some(gid) = ready.pop() {
            order.push(gid);
            let out = self.0.gates[gid.index()].output;
            for &(load, _) in &self.0.nets[out.index()].loads {
                unresolved[load.index()] -= 1;
                if unresolved[load.index()] == 0 {
                    ready.push(load);
                }
            }
        }
        if order.len() != self.0.gates.len() {
            return Err(NetlistError::CombinationalCycle);
        }
        Ok(order)
    }

    /// Logic level of every gate: 1 + max level over fanin gates
    /// (primary inputs are level 0).
    ///
    /// Memoized and invalidated together with [`Circuit::topo_order`].
    ///
    /// # Errors
    ///
    /// Propagates [`Circuit::topo_order`] errors.
    pub fn logic_levels(&self) -> Result<Vec<usize>, NetlistError> {
        self.0
            .levels_cache
            .get_or_init(|| {
                let order = self.topo_order()?;
                let mut level = vec![0usize; self.0.gates.len()];
                for gid in order {
                    let mut lvl = 1;
                    for &n in self.0.gates[gid.index()].inputs() {
                        if let Some(NetDriver::Gate(src)) = self.0.nets[n.index()].driver {
                            lvl = lvl.max(level[src.index()] + 1);
                        }
                    }
                    level[gid.index()] = lvl;
                }
                Ok(level)
            })
            .clone()
    }

    /// Depth of the circuit in gate levels (0 for an empty circuit).
    ///
    /// # Errors
    ///
    /// Propagates [`Circuit::topo_order`] errors.
    pub fn depth(&self) -> Result<usize, NetlistError> {
        Ok(self.logic_levels()?.into_iter().max().unwrap_or(0))
    }

    /// Evaluate the circuit on the given primary-input assignment and
    /// return the value of every *named output* net.
    ///
    /// # Errors
    ///
    /// [`NetlistError::MissingInputValue`] if an input has no value,
    /// plus any [`Circuit::topo_order`] error.
    pub fn evaluate(
        &self,
        input_values: &HashMap<&str, bool>,
    ) -> Result<HashMap<String, bool>, NetlistError> {
        let values = self.evaluate_all(input_values)?;
        Ok(self
            .0
            .outputs
            .iter()
            .map(|&n| (self.0.nets[n.index()].name.clone(), values[n.index()]))
            .collect())
    }

    /// Evaluate the circuit and return the value of *every* net, indexed by
    /// [`NetId::index`].
    ///
    /// # Errors
    ///
    /// As [`Circuit::evaluate`].
    pub fn evaluate_all(
        &self,
        input_values: &HashMap<&str, bool>,
    ) -> Result<Vec<bool>, NetlistError> {
        let order = self.topo_order()?;
        let mut values = vec![false; self.0.nets.len()];
        for &n in &self.0.inputs {
            let name = self.0.nets[n.index()].name.as_str();
            match input_values.get(name) {
                Some(&v) => values[n.index()] = v,
                None => return Err(NetlistError::MissingInputValue(name.to_string())),
            }
        }
        let mut buf = Vec::with_capacity(4);
        for gid in order {
            let gate = &self.0.gates[gid.index()];
            buf.clear();
            buf.extend(gate.inputs.iter().map(|&n| values[n.index()]));
            values[gate.output.index()] = gate.kind.evaluate(&buf);
        }
        Ok(values)
    }

    /// Structural sanity check: every output reachable, every net driven,
    /// acyclic. Builders call this before handing circuits to timing.
    ///
    /// # Errors
    ///
    /// The first violation found, as a [`NetlistError`].
    pub fn validate(&self) -> Result<(), NetlistError> {
        for net in &self.0.nets {
            if net.driver.is_none() && (net.is_output || !net.loads.is_empty()) {
                return Err(NetlistError::UndefinedNet(net.name.clone()));
            }
        }
        self.topo_order()?;
        Ok(())
    }

    /// Total number of gate input pins (a cheap size proxy used in reports).
    pub fn pin_count(&self) -> usize {
        self.0.gates.iter().map(|g| g.inputs.len()).sum()
    }

    /// Histogram of cell kinds used.
    pub fn cell_histogram(&self) -> HashMap<CellKind, usize> {
        let mut h = HashMap::new();
        for g in &self.0.gates {
            *h.entry(g.kind).or_insert(0) += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn and_of_two() -> (Circuit, NetId) {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let n = c.add_gate(CellKind::Nand2, &[a, b], "n").unwrap();
        let y = c.add_gate(CellKind::Inv, &[n], "y").unwrap();
        c.mark_output(y);
        (c, y)
    }

    #[test]
    fn build_and_evaluate() {
        let (c, _) = and_of_two();
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let out = c
                .evaluate(&[("a", a), ("b", b)].into_iter().collect())
                .unwrap();
            assert_eq!(out["y"], a && b);
        }
    }

    #[test]
    fn topo_order_is_fanin_first() {
        let (c, _) = and_of_two();
        let order = c.topo_order().unwrap();
        let pos: HashMap<GateId, usize> = order.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        for gid in c.gate_ids() {
            for &n in c.gate(gid).inputs() {
                if let Some(NetDriver::Gate(src)) = c.net(n).driver() {
                    assert!(pos[&src] < pos[&gid]);
                }
            }
        }
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let err = c.add_gate(CellKind::Nand2, &[a], "n").unwrap_err();
        assert!(matches!(err, NetlistError::ArityMismatch { .. }));
    }

    #[test]
    fn double_drive_is_rejected() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let n = c.add_gate(CellKind::Inv, &[a], "n").unwrap();
        let err = c.add_gate_driving(CellKind::Inv, &[a], n).unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers(_)));
    }

    #[test]
    fn undriven_loaded_net_fails_validation() {
        let mut c = Circuit::new("t");
        let ghost = c.add_net("ghost");
        let _ = c.add_gate(CellKind::Inv, &[ghost], "y").unwrap();
        assert!(matches!(
            c.validate(),
            Err(NetlistError::UndefinedNet(name)) if name == "ghost"
        ));
    }

    #[test]
    fn net_name_collision_gets_suffixed() {
        let mut c = Circuit::new("t");
        let a = c.add_net("x");
        let b = c.add_net("x");
        assert_ne!(a, b);
        assert_eq!(c.net(a).name(), "x");
        assert_eq!(c.net(b).name(), "x_1");
    }

    #[test]
    fn levels_and_depth() {
        let (c, _) = and_of_two();
        let levels = c.logic_levels().unwrap();
        assert_eq!(levels.iter().max(), Some(&2));
        assert_eq!(c.depth().unwrap(), 2);
    }

    #[test]
    fn fanout_counts_pins() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let _x = c.add_gate(CellKind::Inv, &[a], "x").unwrap();
        let _y = c.add_gate(CellKind::Inv, &[a], "y").unwrap();
        let _z = c.add_gate(CellKind::Nand2, &[a, a], "z").unwrap();
        // 'a' drives inv, inv and both pins of the nand: 4 pins.
        assert_eq!(c.net(a).fanout(), 4);
    }

    #[test]
    fn missing_input_value_is_reported() {
        let (c, _) = and_of_two();
        let err = c
            .evaluate(&[("a", true)].into_iter().collect())
            .unwrap_err();
        assert!(matches!(err, NetlistError::MissingInputValue(n) if n == "b"));
    }

    #[test]
    fn histogram_counts_cells() {
        let (c, _) = and_of_two();
        let h = c.cell_histogram();
        assert_eq!(h[&CellKind::Nand2], 1);
        assert_eq!(h[&CellKind::Inv], 1);
    }

    #[test]
    fn mark_output_is_idempotent() {
        let (mut c, y) = and_of_two();
        c.mark_output(y);
        c.mark_output(y);
        assert_eq!(c.primary_outputs().len(), 1);
    }

    /// A net with a driver, three inverter loads and PO status — the
    /// shared fixture for the surgery tests.
    fn fanout_tree() -> (Circuit, NetId, Vec<GateId>) {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let n = c.add_gate(CellKind::Inv, &[a], "n").unwrap();
        let mut loads = Vec::new();
        for i in 0..3 {
            let y = c.add_gate(CellKind::Inv, &[n], format!("y{i}")).unwrap();
            loads.push(c.driver_gate(y).unwrap());
            c.mark_output(y);
        }
        c.mark_output(n);
        (c, n, loads)
    }

    #[test]
    fn split_net_moves_exactly_the_named_pins() {
        let (mut c, n, loads) = fanout_tree();
        let moved = [(loads[1], 0), (loads[2], 0)];
        let new = c.split_net(n, &moved).unwrap();
        assert_eq!(c.net(n).loads(), &[(loads[0], 0)]);
        assert_eq!(c.net(new).loads(), &moved);
        assert!(c.net(new).driver().is_none());
        assert_eq!(c.gate(loads[1]).inputs(), &[new]);
        // PO status stays on the original net.
        assert!(c.net(n).is_output());
        assert!(!c.net(new).is_output());
    }

    #[test]
    fn split_net_rejects_bogus_pins() {
        let (mut c, n, loads) = fanout_tree();
        assert!(matches!(
            c.split_net(n, &[]),
            Err(NetlistError::UnsupportedEdit(_))
        ));
        assert!(matches!(
            c.split_net(n, &[(loads[0], 7)]),
            Err(NetlistError::UnsupportedEdit(_))
        ));
        assert!(matches!(
            c.split_net(n, &[(loads[0], 0), (loads[0], 0)]),
            Err(NetlistError::UnsupportedEdit(_))
        ));
    }

    #[test]
    fn insert_buffer_preserves_logic_and_relieves_the_net() {
        let (mut c, n, loads) = fanout_tree();
        let before = c.evaluate(&[("a", true)].into_iter().collect()).unwrap();
        let ins = c.insert_buffer(n, &[(loads[0], 0), (loads[1], 0)]).unwrap();
        c.validate().unwrap();
        // The net now drives one remaining load + the first inverter.
        assert_eq!(c.net(n).fanout(), 2);
        assert_eq!(c.net(ins.out_net).fanout(), 2);
        assert_eq!(c.gate(ins.first).kind(), CellKind::Inv);
        assert_eq!(c.gate(ins.second).kind(), CellKind::Inv);
        let after = c.evaluate(&[("a", true)].into_iter().collect()).unwrap();
        assert_eq!(before, after, "buffering must not change any output");
    }

    #[test]
    fn insert_buffer_requires_a_driven_net() {
        let mut c = Circuit::new("t");
        let ghost = c.add_net("ghost");
        let y = c.add_gate(CellKind::Inv, &[ghost], "y").unwrap();
        let g = c.driver_gate(y).unwrap();
        assert!(matches!(
            c.insert_buffer(ghost, &[(g, 0)]),
            Err(NetlistError::UndefinedNet(_))
        ));
    }

    #[test]
    fn replace_gate_rewires_pin_loads() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let d = c.add_input("d");
        let y = c.add_gate(CellKind::Nand2, &[a, b], "y").unwrap();
        let g = c.driver_gate(y).unwrap();
        c.replace_gate(g, CellKind::Nor2, &[a, d]).unwrap();
        assert_eq!(c.gate(g).kind(), CellKind::Nor2);
        assert_eq!(c.gate(g).inputs(), &[a, d]);
        assert_eq!(c.net(b).fanout(), 0);
        assert_eq!(c.net(d).loads(), &[(g, 1)]);
        c.validate().unwrap();
    }

    #[test]
    fn replace_gate_rejects_cycles_and_undriven_inputs_up_front() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let x = c.add_gate(CellKind::Inv, &[a], "x").unwrap();
        let y = c.add_gate(CellKind::Inv, &[x], "y").unwrap();
        let z = c.add_gate(CellKind::Inv, &[y], "z").unwrap();
        c.mark_output(z);
        let gx = c.driver_gate(x).unwrap();
        // Rewiring x's driver to read its own transitive fanout (z)
        // would close a cycle: rejected before any mutation.
        assert!(matches!(
            c.replace_gate(gx, CellKind::Inv, &[z]),
            Err(NetlistError::CombinationalCycle)
        ));
        // Undriven inputs are rejected too (surgery runs on complete
        // circuits, unlike construction-time add_gate).
        let ghost = c.add_net("ghost");
        assert!(matches!(
            c.replace_gate(gx, CellKind::Inv, &[ghost]),
            Err(NetlistError::UndefinedNet(_))
        ));
        // Nothing was mutated by the failed attempts.
        assert_eq!(c.gate(gx).inputs(), &[a]);
        c.validate().unwrap();
        // A legal rewiring still works.
        c.replace_gate(gx, CellKind::Buf, &[a]).unwrap();
        assert_eq!(c.gate(gx).kind(), CellKind::Buf);
        c.validate().unwrap();
    }

    #[test]
    fn replace_gate_rejects_arity_mismatch() {
        let (mut c, _, loads) = fanout_tree();
        let a = c.primary_inputs()[0];
        assert!(matches!(
            c.replace_gate(loads[0], CellKind::Nand3, &[a]),
            Err(NetlistError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn demorgan_preserves_the_truth_table() {
        for kind in [CellKind::Nor2, CellKind::Nand3, CellKind::Nor4] {
            let n = kind.num_inputs();
            let mut c = Circuit::new("t");
            let ins: Vec<NetId> = (0..n).map(|i| c.add_input(format!("i{i}"))).collect();
            let y = c.add_gate(kind, &ins, "y").unwrap();
            let g = c.driver_gate(y).unwrap();
            c.mark_output(y);
            let mut dual = c.clone();
            let edit = dual.demorgan_gate(g).unwrap();
            dual.validate().unwrap();
            assert_eq!(dual.gate(g).kind(), kind.demorgan_dual().unwrap());
            assert_eq!(edit.input_invs.len(), n);
            for pattern in 0..(1u32 << n) {
                let names: Vec<String> = (0..n).map(|i| format!("i{i}")).collect();
                let values: HashMap<&str, bool> = names
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (s.as_str(), pattern >> i & 1 == 1))
                    .collect();
                assert_eq!(
                    c.evaluate(&values).unwrap()["y"],
                    dual.evaluate(&values).unwrap()["y"],
                    "{kind} pattern {pattern:b}"
                );
            }
        }
    }

    #[test]
    fn demorgan_rejects_cells_without_a_dual() {
        let (mut c, _, loads) = fanout_tree();
        assert!(matches!(
            c.demorgan_gate(loads[0]),
            Err(NetlistError::UnsupportedEdit(_))
        ));
    }

    #[test]
    fn demorgan_keeps_the_output_net_and_its_loads() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let y = c.add_gate(CellKind::Nor2, &[a, b], "y").unwrap();
        let g = c.driver_gate(y).unwrap();
        let z = c.add_gate(CellKind::Inv, &[y], "z").unwrap();
        c.mark_output(z);
        c.mark_output(y);
        let edit = c.demorgan_gate(g).unwrap();
        assert_eq!(c.driver_gate(y), Some(edit.output_inv));
        assert!(c.net(y).is_output());
        assert_eq!(c.net(y).fanout(), 1, "downstream load untouched");
        assert_eq!(c.driver_gate(edit.inner_net), Some(g));
        c.validate().unwrap();
    }

    #[test]
    fn clones_share_one_body_until_one_mutates() {
        let (a, y) = and_of_two();
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.0, &b.0), "a clone shares the body");
        // A no-op mutator call (the net is already an output) keeps it.
        b.mark_output(y);
        assert!(Arc::ptr_eq(&a.0, &b.0));
        b.add_net("fresh");
        assert!(!Arc::ptr_eq(&a.0, &b.0), "the first edit copies");
        assert_eq!(a.net_count() + 1, b.net_count());
    }

    #[test]
    fn surgery_on_a_clone_leaves_the_original_untouched() {
        // A NOR driving three inverter loads: room for every primitive.
        let mut a = Circuit::new("t");
        let x = a.add_input("x");
        let z = a.add_input("z");
        let n = a.add_gate(CellKind::Nor2, &[x, z], "n").unwrap();
        let nor = a.driver_gate(n).unwrap();
        let mut loads = Vec::new();
        for i in 0..3 {
            let y = a.add_gate(CellKind::Inv, &[n], format!("y{i}")).unwrap();
            loads.push(a.driver_gate(y).unwrap());
            a.mark_output(y);
        }
        let patterns: Vec<HashMap<&str, bool>> = (0..4u32)
            .map(|p| [("x", p & 1 == 1), ("z", p & 2 == 2)].into_iter().collect())
            .collect();
        let gates = a.gate_count();
        let order = a.topo_order().unwrap();
        let levels = a.logic_levels().unwrap();
        let outputs: Vec<_> = patterns.iter().map(|p| a.evaluate(p).unwrap()).collect();

        let mut b = a.clone();
        b.insert_buffer(n, &[(loads[0], 0), (loads[1], 0)]).unwrap();
        b.demorgan_gate(nor).unwrap();
        b.replace_gate(loads[2], CellKind::Buf, &[x]).unwrap();
        b.validate().unwrap();
        assert!(b.gate_count() > gates);

        assert_eq!(a.gate_count(), gates);
        assert_eq!(a.gate(nor).kind(), CellKind::Nor2);
        // The original's caches were warm before the clone and no edit
        // through `b` reset them.
        assert!(a.0.topo_cache.get().is_some());
        assert!(a.0.levels_cache.get().is_some());
        assert_eq!(a.topo_order().unwrap(), order);
        assert_eq!(a.logic_levels().unwrap(), levels);
        for (p, before) in patterns.iter().zip(&outputs) {
            assert_eq!(&a.evaluate(p).unwrap(), before);
        }
        // The cached order is still a valid fanin-first order of `a`.
        let pos: HashMap<GateId, usize> = order.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        assert_eq!(pos.len(), a.gate_count());
        for gid in a.gate_ids() {
            for &net in a.gate(gid).inputs() {
                if let Some(NetDriver::Gate(src)) = a.net(net).driver() {
                    assert!(pos[&src] < pos[&gid]);
                }
            }
        }
        a.validate().unwrap();
    }

    #[test]
    fn topo_and_level_caches_survive_reads_and_reset_on_surgery() {
        let (mut c, n, loads) = fanout_tree();
        // Warm both caches, twice (second call must hit the cache).
        let t1 = c.topo_order().unwrap();
        let t2 = c.topo_order().unwrap();
        assert_eq!(t1, t2);
        let l1 = c.logic_levels().unwrap();
        assert_eq!(l1, c.logic_levels().unwrap());

        // Every surgery primitive must refresh them.
        c.insert_buffer(n, &[(loads[0], 0)]).unwrap();
        let t3 = c.topo_order().unwrap();
        assert_eq!(t3.len(), c.gate_count(), "stale topo after insert_buffer");
        assert_eq!(c.logic_levels().unwrap().len(), c.gate_count());

        let g = c.driver_gate(n).unwrap();
        c.demorgan_gate(loads[1]).ok();
        let a = c.primary_inputs()[0];
        c.replace_gate(g, CellKind::Inv, &[a]).unwrap();
        let t4 = c.topo_order().unwrap();
        assert_eq!(t4.len(), c.gate_count(), "stale topo after replace_gate");

        // The cached order stays a valid fanin-first order.
        let pos: HashMap<GateId, usize> = t4.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        for gid in c.gate_ids() {
            for &net in c.gate(gid).inputs() {
                if let Some(NetDriver::Gate(src)) = c.net(net).driver() {
                    assert!(pos[&src] < pos[&gid]);
                }
            }
        }
    }
}

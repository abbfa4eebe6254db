//! The central gate-level netlist data structure.

use crate::error::{NetlistError, Result};
use crate::gate::GateType;
use crate::library::CellLibrary;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a net (wire) within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

/// Identifier of a gate within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub(crate) u32);

/// Identifier of a top-level input within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InputId(pub(crate) u32);

impl NetId {
    /// Raw index of the net.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild an id from [`NetId::index`] — for external serialization
    /// ([`Netlist::from_parts`]); an out-of-range index is rejected
    /// there, not here.
    pub fn from_index(index: usize) -> NetId {
        NetId(index as u32)
    }
}

impl GateId {
    /// Raw index of the gate.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild an id from [`GateId::index`] — for external serialization.
    pub fn from_index(index: usize) -> GateId {
        GateId(index as u32)
    }
}

impl InputId {
    /// Raw index of the input.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild an id from [`InputId::index`] — for external serialization.
    pub fn from_index(index: usize) -> InputId {
        InputId(index as u32)
    }
}

/// Kind of a top-level input: a regular primary input or a key input.
///
/// The attacker model (paper Section III) assumes key inputs are
/// distinguishable from primary inputs, which both the bench and Verilog
/// writers preserve through the `keyinput` name prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputKind {
    /// A functional primary input.
    Primary,
    /// A key input driven from tamper-proof memory.
    Key,
}

/// Ground-truth provenance of a gate, used as the GNN training label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub enum NodeRole {
    /// Original design logic.
    #[default]
    Design,
    /// SFLL-HD / TTLock perturb unit.
    Perturb,
    /// SFLL-HD / TTLock restore unit.
    Restore,
    /// Anti-SAT block.
    AntiSat,
}

impl NodeRole {
    /// `true` for any protection-logic role.
    pub fn is_protection(self) -> bool {
        !matches!(self, NodeRole::Design)
    }

    /// Short label used in reports (`DN`, `PN`, `RN`, `AN`).
    pub fn tag(self) -> &'static str {
        match self {
            NodeRole::Design => "DN",
            NodeRole::Perturb => "PN",
            NodeRole::Restore => "RN",
            NodeRole::AntiSat => "AN",
        }
    }
}

impl fmt::Display for NodeRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Driven by a top-level input.
    Input(InputId),
    /// Driven by the output of a gate.
    Gate(GateId),
    /// Tied to a constant.
    Const(bool),
    /// Not driven (an error in a finished netlist).
    Undriven,
}

#[derive(Debug, Clone)]
struct NetInfo {
    name: String,
    driver: Driver,
}

#[derive(Debug, Clone)]
struct InputInfo {
    name: String,
    kind: InputKind,
    net: NetId,
}

#[derive(Debug, Clone)]
struct OutputInfo {
    name: String,
    net: NetId,
}

#[derive(Debug, Clone)]
struct GateInfo {
    ty: GateType,
    inputs: Vec<NetId>,
    output: NetId,
    role: NodeRole,
    alive: bool,
}

/// A combinational gate-level netlist.
///
/// Gates read nets and drive exactly one net each; top-level inputs
/// (primary or key) drive nets; outputs name nets. Gates removed during
/// rewriting are tombstoned and skipped by the iteration API; call
/// [`Netlist::compact`] to reclaim them.
///
/// # Examples
///
/// ```
/// use gnnunlock_netlist::{GateType, Netlist};
/// let mut nl = Netlist::new("toy");
/// let a = nl.add_primary_input("a");
/// let b = nl.add_primary_input("b");
/// let g = nl.add_gate(GateType::Nand, &[a, b]);
/// nl.add_output("y", nl.gate_output(g));
/// assert_eq!(nl.num_gates(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    nets: Vec<NetInfo>,
    inputs: Vec<InputInfo>,
    outputs: Vec<OutputInfo>,
    gates: Vec<GateInfo>,
    net_by_name: HashMap<String, NetId>,
    const_nets: [Option<NetId>; 2],
    fresh_counter: u64,
    dead_gates: usize,
}

/// A flat, fully public view of a [`Netlist`] for external serialization
/// (the campaign persistence codec). [`Netlist::to_parts`] /
/// [`Netlist::from_parts`] round-trip losslessly: every id, tombstone
/// and role is preserved, so a deserialized netlist is observationally
/// identical to the original.
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistParts {
    /// Module name.
    pub name: String,
    /// `(net name, driver)` per net, in id order.
    pub nets: Vec<(String, Driver)>,
    /// `(input name, kind, driven net index)` per input, in id order.
    pub inputs: Vec<(String, InputKind, u32)>,
    /// `(output name, net index)` in declaration order.
    pub outputs: Vec<(String, u32)>,
    /// `(alive, type, input net indices, output net index, role)` per
    /// gate slot — tombstoned gates included, keeping ids stable.
    pub gates: Vec<(bool, GateType, Vec<u32>, u32, NodeRole)>,
    /// Cached constant-0 / constant-1 net indices.
    pub const_nets: [Option<u32>; 2],
    /// Fresh-name counter (preserved so later `fresh_net` calls on the
    /// restored netlist never collide).
    pub fresh_counter: u64,
}

impl Netlist {
    /// Flatten into a [`NetlistParts`] view.
    pub fn to_parts(&self) -> NetlistParts {
        NetlistParts {
            name: self.name.clone(),
            nets: self
                .nets
                .iter()
                .map(|n| (n.name.clone(), n.driver))
                .collect(),
            inputs: self
                .inputs
                .iter()
                .map(|i| (i.name.clone(), i.kind, i.net.0))
                .collect(),
            outputs: self
                .outputs
                .iter()
                .map(|o| (o.name.clone(), o.net.0))
                .collect(),
            gates: self
                .gates
                .iter()
                .map(|g| {
                    (
                        g.alive,
                        g.ty,
                        g.inputs.iter().map(|n| n.0).collect(),
                        g.output.0,
                        g.role,
                    )
                })
                .collect(),
            const_nets: [
                self.const_nets[0].map(|n| n.0),
                self.const_nets[1].map(|n| n.0),
            ],
            fresh_counter: self.fresh_counter,
        }
    }

    /// Reassemble a netlist from [`Netlist::to_parts`]. `None` when the
    /// parts are internally inconsistent (out-of-range indices,
    /// duplicate net names) — a corrupt payload decodes to a cache miss,
    /// never a panic.
    pub fn from_parts(parts: NetlistParts) -> Option<Netlist> {
        let n_nets = parts.nets.len();
        let net_ok = |i: u32| (i as usize) < n_nets;
        let mut net_by_name = HashMap::with_capacity(n_nets);
        for (i, (name, driver)) in parts.nets.iter().enumerate() {
            if net_by_name.insert(name.clone(), NetId(i as u32)).is_some() {
                return None;
            }
            match *driver {
                Driver::Input(id) => {
                    if id.index() >= parts.inputs.len() {
                        return None;
                    }
                }
                Driver::Gate(id) => {
                    if id.index() >= parts.gates.len() {
                        return None;
                    }
                }
                Driver::Const(_) | Driver::Undriven => {}
            }
        }
        if parts.inputs.iter().any(|&(_, _, net)| !net_ok(net))
            || parts.outputs.iter().any(|&(_, net)| !net_ok(net))
            || parts
                .gates
                .iter()
                .any(|(_, _, ins, out, _)| !net_ok(*out) || ins.iter().any(|&i| !net_ok(i)))
            || parts
                .const_nets
                .iter()
                .any(|slot| slot.is_some_and(|n| !net_ok(n)))
        {
            return None;
        }
        let dead_gates = parts.gates.iter().filter(|(alive, ..)| !alive).count();
        Some(Netlist {
            name: parts.name,
            nets: parts
                .nets
                .into_iter()
                .map(|(name, driver)| NetInfo { name, driver })
                .collect(),
            inputs: parts
                .inputs
                .into_iter()
                .map(|(name, kind, net)| InputInfo {
                    name,
                    kind,
                    net: NetId(net),
                })
                .collect(),
            outputs: parts
                .outputs
                .into_iter()
                .map(|(name, net)| OutputInfo {
                    name,
                    net: NetId(net),
                })
                .collect(),
            gates: parts
                .gates
                .into_iter()
                .map(|(alive, ty, inputs, output, role)| GateInfo {
                    ty,
                    inputs: inputs.into_iter().map(NetId).collect(),
                    output: NetId(output),
                    role,
                    alive,
                })
                .collect(),
            net_by_name,
            const_nets: [
                parts.const_nets[0].map(NetId),
                parts.const_nets[1].map(NetId),
            ],
            fresh_counter: parts.fresh_counter,
            dead_gates,
        })
    }
}

impl Netlist {
    /// Create an empty netlist with a module `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            nets: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            gates: Vec::new(),
            net_by_name: HashMap::new(),
            const_nets: [None, None],
            fresh_counter: 0,
            dead_gates: 0,
        }
    }

    /// Module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the module.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Declare a named net with no driver yet.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateNet`] if the name is taken.
    pub fn add_net(&mut self, name: impl Into<String>) -> Result<NetId> {
        let name = name.into();
        if self.net_by_name.contains_key(&name) {
            return Err(NetlistError::DuplicateNet(name));
        }
        let id = NetId(self.nets.len() as u32);
        self.net_by_name.insert(name.clone(), id);
        self.nets.push(NetInfo {
            name,
            driver: Driver::Undriven,
        });
        Ok(id)
    }

    /// Create a fresh net with an auto-generated unique name.
    pub fn fresh_net(&mut self) -> NetId {
        loop {
            let name = format!("_n{}", self.fresh_counter);
            self.fresh_counter += 1;
            if !self.net_by_name.contains_key(&name) {
                return self.add_net(name).expect("fresh name is unique");
            }
        }
    }

    /// Add a top-level input of the given kind and return the net it drives.
    ///
    /// # Panics
    ///
    /// Panics if the name is already a net.
    pub fn add_input(&mut self, name: impl Into<String>, kind: InputKind) -> NetId {
        let name = name.into();
        let net = self
            .add_net(name.clone())
            .unwrap_or_else(|_| panic!("input name `{name}` already used"));
        let id = InputId(self.inputs.len() as u32);
        self.nets[net.index()].driver = Driver::Input(id);
        self.inputs.push(InputInfo { name, kind, net });
        net
    }

    /// Add a primary input. See [`Netlist::add_input`].
    pub fn add_primary_input(&mut self, name: impl Into<String>) -> NetId {
        self.add_input(name, InputKind::Primary)
    }

    /// Add a key input. See [`Netlist::add_input`].
    pub fn add_key_input(&mut self, name: impl Into<String>) -> NetId {
        self.add_input(name, InputKind::Key)
    }

    /// Net tied to the constant `value`, created on first use.
    pub fn const_net(&mut self, value: bool) -> NetId {
        let slot = value as usize;
        if let Some(net) = self.const_nets[slot] {
            return net;
        }
        let net = loop {
            let name = format!("_const{}_{}", value as u8, self.fresh_counter);
            self.fresh_counter += 1;
            if !self.net_by_name.contains_key(&name) {
                break self.add_net(name).expect("fresh name is unique");
            }
        };
        self.nets[net.index()].driver = Driver::Const(value);
        self.const_nets[slot] = Some(net);
        net
    }

    /// Tie an existing undriven net to a constant value.
    ///
    /// # Panics
    ///
    /// Panics if `net` already has a driver.
    pub fn tie_const(&mut self, net: NetId, value: bool) {
        assert!(
            matches!(self.nets[net.index()].driver, Driver::Undriven),
            "net `{}` already driven",
            self.nets[net.index()].name
        );
        self.nets[net.index()].driver = Driver::Const(value);
        if self.const_nets[value as usize].is_none() {
            self.const_nets[value as usize] = Some(net);
        }
    }

    /// Add a gate with a fresh output net; returns the gate id.
    ///
    /// # Panics
    ///
    /// Panics if the input count is illegal for the family.
    pub fn add_gate(&mut self, ty: GateType, inputs: &[NetId]) -> GateId {
        let out = self.fresh_net();
        self.add_gate_into(ty, inputs, out)
    }

    /// Add a gate with role metadata. See [`Netlist::add_gate`].
    pub fn add_gate_with_role(&mut self, ty: GateType, inputs: &[NetId], role: NodeRole) -> GateId {
        let g = self.add_gate(ty, inputs);
        self.gates[g.index()].role = role;
        g
    }

    /// Add a gate that drives an existing (undriven) net `out`.
    ///
    /// # Panics
    ///
    /// Panics if the arity is illegal or `out` already has a driver.
    pub fn add_gate_into(&mut self, ty: GateType, inputs: &[NetId], out: NetId) -> GateId {
        assert!(
            ty.arity_ok(inputs.len()),
            "gate {ty} does not accept {} inputs",
            inputs.len()
        );
        assert!(
            matches!(self.nets[out.index()].driver, Driver::Undriven),
            "net `{}` already driven",
            self.nets[out.index()].name
        );
        let id = GateId(self.gates.len() as u32);
        self.nets[out.index()].driver = Driver::Gate(id);
        self.gates.push(GateInfo {
            ty,
            inputs: inputs.to_vec(),
            output: out,
            role: NodeRole::Design,
            alive: true,
        });
        id
    }

    /// Declare a primary output named `name` reading `net`.
    pub fn add_output(&mut self, name: impl Into<String>, net: NetId) {
        self.outputs.push(OutputInfo {
            name: name.into(),
            net,
        });
    }

    /// Remove all primary-output declarations (nets and gates are kept).
    /// Used by rewrites that re-point outputs.
    pub fn clear_outputs(&mut self) {
        self.outputs.clear();
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Number of live gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len() - self.dead_gates
    }

    /// Number of nets (including dead ones until [`Netlist::compact`]).
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Iterate over all net ids (including currently unused ones).
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nets.len()).map(|i| NetId(i as u32))
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Iterate over live gate ids.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> + '_ {
        self.gates
            .iter()
            .enumerate()
            .filter(|(_, g)| g.alive)
            .map(|(i, _)| GateId(i as u32))
    }

    /// Upper bound on gate indices (including tombstones); useful for
    /// index-keyed side tables.
    pub fn gate_capacity(&self) -> usize {
        self.gates.len()
    }

    /// Whether `g` is still live.
    pub fn is_alive(&self, g: GateId) -> bool {
        self.gates[g.index()].alive
    }

    /// Gate family of `g`.
    pub fn gate_type(&self, g: GateId) -> GateType {
        self.gates[g.index()].ty
    }

    /// Input nets of `g`.
    pub fn gate_inputs(&self, g: GateId) -> &[NetId] {
        &self.gates[g.index()].inputs
    }

    /// Output net of `g`.
    pub fn gate_output(&self, g: GateId) -> NetId {
        self.gates[g.index()].output
    }

    /// Ground-truth role of `g`.
    pub fn role(&self, g: GateId) -> NodeRole {
        self.gates[g.index()].role
    }

    /// Set the ground-truth role of `g`.
    pub fn set_role(&mut self, g: GateId, role: NodeRole) {
        self.gates[g.index()].role = role;
    }

    /// Name of net `n`.
    pub fn net_name(&self, n: NetId) -> &str {
        &self.nets[n.index()].name
    }

    /// Driver of net `n`.
    pub fn driver(&self, n: NetId) -> Driver {
        self.nets[n.index()].driver
    }

    /// Look up a net by name.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.net_by_name.get(name).copied()
    }

    /// All top-level inputs as `(name, kind, net)`.
    pub fn inputs(&self) -> impl Iterator<Item = (&str, InputKind, NetId)> + '_ {
        self.inputs.iter().map(|i| (i.name.as_str(), i.kind, i.net))
    }

    /// Nets driven by primary inputs, in declaration order.
    pub fn primary_inputs(&self) -> Vec<NetId> {
        self.inputs
            .iter()
            .filter(|i| i.kind == InputKind::Primary)
            .map(|i| i.net)
            .collect()
    }

    /// Nets driven by key inputs, in declaration order.
    pub fn key_inputs(&self) -> Vec<NetId> {
        self.inputs
            .iter()
            .filter(|i| i.kind == InputKind::Key)
            .map(|i| i.net)
            .collect()
    }

    /// Kind of the input driving net `n`, if any.
    pub fn input_kind(&self, n: NetId) -> Option<InputKind> {
        match self.driver(n) {
            Driver::Input(id) => Some(self.inputs[id.index()].kind),
            _ => None,
        }
    }

    /// Primary outputs as `(name, net)`.
    pub fn outputs(&self) -> impl Iterator<Item = (&str, NetId)> + '_ {
        self.outputs.iter().map(|o| (o.name.as_str(), o.net))
    }

    /// Nets read by primary outputs, in declaration order.
    pub fn output_nets(&self) -> Vec<NetId> {
        self.outputs.iter().map(|o| o.net).collect()
    }

    /// Whether net `n` is read by at least one primary output.
    pub fn is_output_net(&self, n: NetId) -> bool {
        self.outputs.iter().any(|o| o.net == n)
    }

    // ------------------------------------------------------------------
    // Mutation (used by locking and synthesis rewrites)
    // ------------------------------------------------------------------

    /// Change the family of gate `g`.
    ///
    /// # Panics
    ///
    /// Panics if the current input count is illegal for the new family.
    pub fn set_gate_type(&mut self, g: GateId, ty: GateType) {
        let n = self.gates[g.index()].inputs.len();
        assert!(ty.arity_ok(n), "gate {ty} does not accept {n} inputs");
        self.gates[g.index()].ty = ty;
    }

    /// Replace the input list of gate `g`.
    ///
    /// # Panics
    ///
    /// Panics if the new input count is illegal for the gate's family.
    pub fn set_gate_inputs(&mut self, g: GateId, inputs: &[NetId]) {
        let ty = self.gates[g.index()].ty;
        assert!(
            ty.arity_ok(inputs.len()),
            "gate {ty} does not accept {} inputs",
            inputs.len()
        );
        self.gates[g.index()].inputs = inputs.to_vec();
    }

    /// Redirect every reader of `old` (gate inputs and primary outputs) to
    /// `new`. The driver of `old` is untouched.
    pub fn replace_net_uses(&mut self, old: NetId, new: NetId) {
        for gate in &mut self.gates {
            if !gate.alive {
                continue;
            }
            for input in &mut gate.inputs {
                if *input == old {
                    *input = new;
                }
            }
        }
        for out in &mut self.outputs {
            if out.net == old {
                out.net = new;
            }
        }
    }

    /// Tombstone gate `g`; its output net becomes undriven.
    pub fn remove_gate(&mut self, g: GateId) {
        let info = &mut self.gates[g.index()];
        if !info.alive {
            return;
        }
        info.alive = false;
        let out = info.output;
        self.nets[out.index()].driver = Driver::Undriven;
        self.dead_gates += 1;
    }

    /// Rebuild the netlist, dropping tombstoned gates and unused nets.
    /// Gate and net ids are *not* stable across this call.
    pub fn compact(&mut self) {
        let mut rebuilt = Netlist::new(self.name.clone());
        rebuilt.fresh_counter = self.fresh_counter;
        // Which nets are reachable as gate IO, input nets or output nets.
        let mut used = vec![false; self.nets.len()];
        for inp in &self.inputs {
            used[inp.net.index()] = true;
        }
        for out in &self.outputs {
            used[out.net.index()] = true;
        }
        for gate in self.gates.iter().filter(|g| g.alive) {
            used[gate.output.index()] = true;
            for &i in &gate.inputs {
                used[i.index()] = true;
            }
        }
        let mut net_map: Vec<Option<NetId>> = vec![None; self.nets.len()];
        for (idx, net) in self.nets.iter().enumerate() {
            if !used[idx] {
                continue;
            }
            let new_id = rebuilt
                .add_net(net.name.clone())
                .expect("names unique in source");
            net_map[idx] = Some(new_id);
        }
        let map = |id: NetId| net_map[id.index()].expect("used net was mapped");
        for inp in &self.inputs {
            let net = map(inp.net);
            let new_id = InputId(rebuilt.inputs.len() as u32);
            rebuilt.nets[net.index()].driver = Driver::Input(new_id);
            rebuilt.inputs.push(InputInfo {
                name: inp.name.clone(),
                kind: inp.kind,
                net,
            });
        }
        for (idx, net) in self.nets.iter().enumerate() {
            if used[idx] {
                if let Driver::Const(v) = net.driver {
                    let new_net = map(NetId(idx as u32));
                    rebuilt.nets[new_net.index()].driver = Driver::Const(v);
                    if rebuilt.const_nets[v as usize].is_none() {
                        rebuilt.const_nets[v as usize] = Some(new_net);
                    }
                }
            }
        }
        for gate in self.gates.iter().filter(|g| g.alive) {
            let inputs: Vec<NetId> = gate.inputs.iter().map(|&i| map(i)).collect();
            let out = map(gate.output);
            let g = rebuilt.add_gate_into(gate.ty, &inputs, out);
            rebuilt.gates[g.index()].role = gate.role;
        }
        for out in &self.outputs {
            rebuilt.add_output(out.name.clone(), map(out.net));
        }
        *self = rebuilt;
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Check structural sanity: every read net is driven, every cell legal
    /// in `library` (if provided), and the netlist is acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self, library: Option<CellLibrary>) -> Result<()> {
        for gate in self.gates.iter().filter(|g| g.alive) {
            if let Some(lib) = library {
                if !lib.allows(gate.ty, gate.inputs.len()) {
                    return Err(NetlistError::CellNotInLibrary {
                        cell: format!("{}{}", gate.ty, gate.inputs.len()),
                        library: lib.to_string(),
                    });
                }
            } else if !gate.ty.arity_ok(gate.inputs.len()) {
                return Err(NetlistError::BadArity {
                    gate: gate.ty.to_string(),
                    arity: gate.inputs.len(),
                });
            }
            for &i in &gate.inputs {
                if matches!(self.nets[i.index()].driver, Driver::Undriven) {
                    return Err(NetlistError::UndrivenNet(self.nets[i.index()].name.clone()));
                }
            }
        }
        for out in &self.outputs {
            if matches!(self.nets[out.net.index()].driver, Driver::Undriven) {
                return Err(NetlistError::UndrivenNet(
                    self.nets[out.net.index()].name.clone(),
                ));
            }
        }
        // Acyclicity is established by computing a topological order.
        self.topo_order().map(|_| ())
    }

    /// Gate count per `(family, arity)` pair.
    pub fn cell_histogram(&self) -> HashMap<(GateType, usize), usize> {
        let mut hist = HashMap::new();
        for gate in self.gates.iter().filter(|g| g.alive) {
            *hist.entry((gate.ty, gate.inputs.len())).or_insert(0) += 1;
        }
        hist
    }

    /// Gate count per [`NodeRole`], indexed `[Design, Perturb, Restore,
    /// AntiSat]`.
    pub fn role_histogram(&self) -> [usize; 4] {
        let mut hist = [0usize; 4];
        for gate in self.gates.iter().filter(|g| g.alive) {
            let idx = match gate.role {
                NodeRole::Design => 0,
                NodeRole::Perturb => 1,
                NodeRole::Restore => 2,
                NodeRole::AntiSat => 3,
            };
            hist[idx] += 1;
        }
        hist
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pis = self.primary_inputs().len();
        let kis = self.key_inputs().len();
        write!(
            f,
            "{}: {} gates, {} PIs, {} KIs, {} POs",
            self.name,
            self.num_gates(),
            pis,
            kis,
            self.num_outputs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_gate() -> Netlist {
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a");
        let b = nl.add_primary_input("b");
        let k = nl.add_key_input("keyinput0");
        let g0 = nl.add_gate(GateType::And, &[a, b]);
        let g1 = nl.add_gate(GateType::Xor, &[nl.gate_output(g0), k]);
        nl.add_output("y", nl.gate_output(g1));
        nl
    }

    #[test]
    fn construction_and_counts() {
        let nl = two_gate();
        assert_eq!(nl.num_gates(), 2);
        assert_eq!(nl.primary_inputs().len(), 2);
        assert_eq!(nl.key_inputs().len(), 1);
        assert_eq!(nl.num_outputs(), 1);
        nl.validate(None).unwrap();
    }

    #[test]
    fn duplicate_net_rejected() {
        let mut nl = Netlist::new("t");
        nl.add_net("x").unwrap();
        assert_eq!(nl.add_net("x"), Err(NetlistError::DuplicateNet("x".into())));
    }

    #[test]
    fn const_net_is_shared() {
        let mut nl = Netlist::new("t");
        let c0 = nl.const_net(false);
        let c0b = nl.const_net(false);
        let c1 = nl.const_net(true);
        assert_eq!(c0, c0b);
        assert_ne!(c0, c1);
        assert_eq!(nl.driver(c1), Driver::Const(true));
    }

    #[test]
    fn remove_and_compact() {
        let mut nl = two_gate();
        let g0 = nl.gate_ids().next().unwrap();
        // Bypass the AND gate: wire its readers to input `a`.
        let a = nl.net_by_name("a").unwrap();
        let out = nl.gate_output(g0);
        nl.replace_net_uses(out, a);
        nl.remove_gate(g0);
        assert_eq!(nl.num_gates(), 1);
        nl.compact();
        assert_eq!(nl.num_gates(), 1);
        nl.validate(None).unwrap();
        // `a` now feeds the XOR.
        let g = nl.gate_ids().next().unwrap();
        assert!(nl.gate_inputs(g).contains(&nl.net_by_name("a").unwrap()));
    }

    #[test]
    fn undriven_net_detected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a");
        let hole = nl.add_net("hole").unwrap();
        let g = nl.add_gate(GateType::And, &[a, hole]);
        nl.add_output("y", nl.gate_output(g));
        assert_eq!(
            nl.validate(None),
            Err(NetlistError::UndrivenNet("hole".into()))
        );
    }

    #[test]
    fn roles_survive_compaction() {
        let mut nl = two_gate();
        let g1 = nl.gate_ids().nth(1).unwrap();
        nl.set_role(g1, NodeRole::Restore);
        nl.compact();
        let roles = nl.role_histogram();
        assert_eq!(roles, [1, 0, 1, 0]);
    }

    #[test]
    fn parts_round_trip_is_observationally_lossless() {
        let mut nl = two_gate();
        // Exercise the trickier state: tombstones, consts, key inputs,
        // fresh names.
        let k = nl.add_key_input("keyinput9");
        let c = nl.const_net(true);
        let g = nl.add_gate_with_role(GateType::Or, &[k, c], NodeRole::AntiSat);
        nl.add_output("extra", nl.gate_output(g));
        let dead = nl.add_gate(GateType::Inv, &[k]);
        nl.remove_gate(dead);

        let back = Netlist::from_parts(nl.to_parts()).expect("self-parts are valid");
        assert_eq!(back.to_parts(), nl.to_parts());
        assert_eq!(back.num_gates(), nl.num_gates());
        assert_eq!(back.num_nets(), nl.num_nets());
        assert_eq!(back.role_histogram(), nl.role_histogram());
        assert_eq!(
            back.key_inputs(),
            nl.key_inputs(),
            "input ids and kinds survive"
        );
        back.validate(None).unwrap();
        // Fresh-name counter survives: no collisions after restore.
        let mut back = back;
        let fresh = back.fresh_net();
        assert!(nl.net_by_name(back.net_name(fresh)).is_none());

        // Inconsistent parts are rejected, not panicked on.
        let mut bad = nl.to_parts();
        bad.gates[0].3 = 10_000; // dangling output net
        assert!(Netlist::from_parts(bad).is_none());
        let mut dup = nl.to_parts();
        let first_name = dup.nets[0].0.clone();
        dup.nets[1].0 = first_name; // duplicate net name
        assert!(Netlist::from_parts(dup).is_none());
    }

    #[test]
    fn library_validation() {
        let nl = two_gate();
        // AND2/XOR2 exist in Lpe65.
        nl.validate(Some(CellLibrary::Lpe65)).unwrap();
        let mut wide = Netlist::new("w");
        let ins: Vec<NetId> = (0..6)
            .map(|i| wide.add_primary_input(format!("i{i}")))
            .collect();
        let g = wide.add_gate(GateType::And, &ins);
        wide.add_output("y", wide.gate_output(g));
        assert!(wide.validate(Some(CellLibrary::Lpe65)).is_err());
        wide.validate(Some(CellLibrary::Bench8)).unwrap();
    }
}

//! The netlist arena itself.

use std::sync::{Arc, OnceLock};

use odcfp_logic::sim::{gather_block, Block, BLOCK_LANES};
use odcfp_logic::PrimitiveFn;

use crate::{CellId, CellLibrary, GateId, NetId, NetlistError, NetlistStats, PinRef};

/// What produces the value on a [`Net`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetDriver {
    /// Nothing drives the net yet (illegal in a validated netlist).
    None,
    /// The net is a primary input of the circuit.
    PrimaryInput,
    /// The net is tied to a constant value.
    Const(bool),
    /// The net is the output of a gate.
    Gate(GateId),
}

/// A signal in the netlist.
#[derive(Debug, Clone)]
pub struct Net {
    name: String,
    driver: NetDriver,
    sinks: Vec<PinRef>,
    is_primary_output: bool,
}

impl Net {
    /// The net's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// What drives this net.
    pub fn driver(&self) -> NetDriver {
        self.driver
    }

    /// The gate input pins this net fans out to.
    ///
    /// Primary-output consumption is tracked separately via
    /// [`Net::is_primary_output`].
    pub fn sinks(&self) -> &[PinRef] {
        &self.sinks
    }

    /// True if this net is (also) a primary output of the circuit.
    pub fn is_primary_output(&self) -> bool {
        self.is_primary_output
    }

    /// Total fanout as seen by the delay model: gate sinks plus one if the
    /// net is a primary output.
    pub fn fanout(&self) -> usize {
        self.sinks.len() + usize::from(self.is_primary_output)
    }
}

/// A gate instance.
#[derive(Debug, Clone)]
pub struct Gate {
    name: String,
    cell: CellId,
    inputs: Vec<NetId>,
    output: NetId,
}

impl Gate {
    /// The instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The library cell this gate instantiates.
    pub fn cell(&self) -> CellId {
        self.cell
    }

    /// The input nets, in pin order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The output net.
    pub fn output(&self) -> NetId {
        self.output
    }
}

/// A combinational gate-level netlist over a shared [`CellLibrary`].
///
/// See the [crate-level documentation](crate) for a building example.
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    library: Arc<CellLibrary>,
    nets: Vec<Net>,
    gates: Vec<Gate>,
    primary_inputs: Vec<NetId>,
    primary_outputs: Vec<NetId>,
    /// Memoized topological gate order; recomputed lazily after any
    /// structural mutation (see [`Netlist::cached_topo`]).
    topo_cache: OnceLock<Vec<GateId>>,
}

impl Netlist {
    /// Creates an empty netlist over `library`.
    pub fn new(name: impl Into<String>, library: Arc<CellLibrary>) -> Self {
        Netlist {
            name: name.into(),
            library,
            nets: Vec::new(),
            gates: Vec::new(),
            primary_inputs: Vec::new(),
            primary_outputs: Vec::new(),
            topo_cache: OnceLock::new(),
        }
    }

    /// Drops the memoized topological order; called by every structural
    /// mutator that can change gate dependencies.
    fn invalidate_topo(&mut self) {
        self.topo_cache = OnceLock::new();
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the design.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The cell library the netlist is mapped to.
    pub fn library(&self) -> &Arc<CellLibrary> {
        &self.library
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Adds a fresh, undriven net.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let id = NetId::from_index(self.nets.len());
        self.nets.push(Net {
            name: name.into(),
            driver: NetDriver::None,
            sinks: Vec::new(),
            is_primary_output: false,
        });
        id
    }

    /// Adds a primary input and returns its net.
    pub fn add_primary_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.add_net(name);
        self.nets[id.index()].driver = NetDriver::PrimaryInput;
        self.primary_inputs.push(id);
        id
    }

    /// Adds a constant-driven net.
    pub fn add_constant(&mut self, name: impl Into<String>, value: bool) -> NetId {
        let id = self.add_net(name);
        self.nets[id.index()].driver = NetDriver::Const(value);
        id
    }

    /// Adds a gate with an automatically created output net named after the
    /// instance, returning the gate's id. The output net is
    /// [`Netlist::gate_output`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the cell's arity or any input
    /// net id is stale.
    pub fn add_gate(&mut self, name: impl Into<String>, cell: CellId, inputs: &[NetId]) -> GateId {
        let name = name.into();
        let out = self.add_net(format!("{name}_o"));
        self.add_gate_driving(name, cell, inputs, out)
    }

    /// Adds a gate that drives an existing net.
    ///
    /// # Panics
    ///
    /// Panics if the output net is already driven, if `inputs.len()` differs
    /// from the cell's arity, or any net id is stale.
    pub fn add_gate_driving(
        &mut self,
        name: impl Into<String>,
        cell: CellId,
        inputs: &[NetId],
        output: NetId,
    ) -> GateId {
        let arity = self.library.cell(cell).arity();
        assert_eq!(
            inputs.len(),
            arity,
            "cell {} has arity {arity}",
            self.library.cell(cell).name()
        );
        assert!(
            matches!(self.nets[output.index()].driver, NetDriver::None),
            "net {output} already driven"
        );
        self.invalidate_topo();
        let id = GateId::from_index(self.gates.len());
        for (pin, &n) in inputs.iter().enumerate() {
            self.nets[n.index()].sinks.push(PinRef { gate: id, pin });
        }
        self.nets[output.index()].driver = NetDriver::Gate(id);
        self.gates.push(Gate {
            name: name.into(),
            cell,
            inputs: inputs.to_vec(),
            output,
        });
        id
    }

    /// Marks a net as a primary output.
    ///
    /// Marking twice is idempotent; ordering of outputs follows first
    /// marking.
    pub fn set_primary_output(&mut self, net: NetId) {
        let n = &mut self.nets[net.index()];
        if !n.is_primary_output {
            n.is_primary_output = true;
            self.primary_outputs.push(net);
        }
    }

    // ------------------------------------------------------------------
    // Mutation (used by fingerprint embedding)
    // ------------------------------------------------------------------

    /// Re-types a gate and rewires its inputs in one step, keeping all sink
    /// bookkeeping consistent. This is the primitive operation behind every
    /// fingerprint modification (widening a gate to accept a trigger input).
    ///
    /// # Panics
    ///
    /// Panics if `new_inputs.len()` differs from the new cell's arity.
    pub fn replace_gate(&mut self, gate: GateId, new_cell: CellId, new_inputs: &[NetId]) {
        let arity = self.library.cell(new_cell).arity();
        assert_eq!(
            new_inputs.len(),
            arity,
            "cell {} has arity {arity}",
            self.library.cell(new_cell).name()
        );
        self.invalidate_topo();
        let old_inputs = self.gates[gate.index()].inputs.clone();
        for (pin, &n) in old_inputs.iter().enumerate() {
            let sinks = &mut self.nets[n.index()].sinks;
            let at = sinks
                .iter()
                .position(|p| p.gate == gate && p.pin == pin)
                .expect("sink bookkeeping out of sync");
            sinks.swap_remove(at);
        }
        for (pin, &n) in new_inputs.iter().enumerate() {
            self.nets[n.index()].sinks.push(PinRef { gate, pin });
        }
        let g = &mut self.gates[gate.index()];
        g.cell = new_cell;
        g.inputs = new_inputs.to_vec();
    }

    // ------------------------------------------------------------------
    // Access
    // ------------------------------------------------------------------

    /// Looks up a gate.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Looks up a net.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// The output net of a gate.
    pub fn gate_output(&self, id: GateId) -> NetId {
        self.gates[id.index()].output
    }

    /// The [`PrimitiveFn`] of a gate's cell.
    pub fn gate_fn(&self, id: GateId) -> PrimitiveFn {
        self.library.cell(self.gates[id.index()].cell).function()
    }

    /// The primary inputs, in declaration order.
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.primary_inputs
    }

    /// The primary outputs, in declaration order.
    pub fn primary_outputs(&self) -> &[NetId] {
        &self.primary_outputs
    }

    /// The number of gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// The number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Iterates over `(id, gate)` pairs in insertion order.
    pub fn gates(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId::from_index(i), g))
    }

    /// Iterates over `(id, net)` pairs in insertion order.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId::from_index(i), n))
    }

    /// Finds a net by name (linear scan; intended for tests and I/O).
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.nets
            .iter()
            .position(|n| n.name == name)
            .map(NetId::from_index)
    }

    /// Finds a gate by instance name (linear scan; intended for tests/I/O).
    pub fn gate_by_name(&self, name: &str) -> Option<GateId> {
        self.gates
            .iter()
            .position(|g| g.name == name)
            .map(GateId::from_index)
    }

    // ------------------------------------------------------------------
    // Structure
    // ------------------------------------------------------------------

    /// Gates in topological order (inputs before outputs).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the gate graph is
    /// cyclic.
    pub fn topo_order(&self) -> Result<Vec<GateId>, NetlistError> {
        self.cached_topo().map(<[GateId]>::to_vec)
    }

    /// Gates in topological order, borrowed from a per-netlist memo.
    ///
    /// The first call after a structural mutation runs Kahn's algorithm;
    /// subsequent calls are free. Simulation, depth computation, validation,
    /// and the SAT encoders all share this order, so hot loops (per-buyer
    /// verification, per-pattern simulation) no longer re-sort the graph.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the gate graph is
    /// cyclic. Errors are not memoized.
    pub fn cached_topo(&self) -> Result<&[GateId], NetlistError> {
        if let Some(order) = self.topo_cache.get() {
            return Ok(order);
        }
        let order = self.compute_topo_order()?;
        // A racing thread may have initialized the cache first; both
        // computed the same order, so either value is fine.
        Ok(self.topo_cache.get_or_init(|| order))
    }

    fn compute_topo_order(&self) -> Result<Vec<GateId>, NetlistError> {
        let n = self.gates.len();
        let mut indegree = vec![0usize; n];
        for (gi, g) in self.gates.iter().enumerate() {
            indegree[gi] = g
                .inputs
                .iter()
                .filter(|&&i| matches!(self.nets[i.index()].driver, NetDriver::Gate(_)))
                .count();
        }
        let mut queue: Vec<GateId> = (0..n)
            .filter(|&i| indegree[i] == 0)
            .map(GateId::from_index)
            .collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let g = queue[head];
            head += 1;
            order.push(g);
            let out = self.gates[g.index()].output;
            for p in &self.nets[out.index()].sinks {
                let d = &mut indegree[p.gate.index()];
                *d -= 1;
                if *d == 0 {
                    queue.push(p.gate);
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n)
                .find(|&i| indegree[i] > 0)
                .map(GateId::from_index)
                .expect("cycle must leave a gate with positive indegree");
            return Err(NetlistError::CombinationalCycle { gate: stuck });
        }
        Ok(order)
    }

    /// Logic depth of every gate: 1 + max depth of gate-driven inputs
    /// (primary inputs and constants have depth 0). Index by
    /// [`GateId::index`].
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist is cyclic.
    pub fn gate_depths(&self) -> Result<Vec<usize>, NetlistError> {
        let order = self.cached_topo()?;
        let mut depth = vec![0usize; self.gates.len()];
        for &g in order {
            let d = self.gates[g.index()]
                .inputs
                .iter()
                .map(|&i| match self.nets[i.index()].driver {
                    NetDriver::Gate(src) => depth[src.index()] + 1,
                    _ => 1,
                })
                .max()
                .unwrap_or(1);
            depth[g.index()] = d;
        }
        Ok(depth)
    }

    /// Checks structural sanity: every net driven, pin counts match cell
    /// arities, sink bookkeeping consistent, no combinational cycles, and
    /// all primary outputs driven.
    ///
    /// # Errors
    ///
    /// Returns the first defect found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (ni, net) in self.nets.iter().enumerate() {
            if matches!(net.driver, NetDriver::None) {
                return Err(NetlistError::UndrivenNet {
                    net: NetId::from_index(ni),
                    name: net.name.clone(),
                });
            }
        }
        for (gi, g) in self.gates.iter().enumerate() {
            let arity = self.library.cell(g.cell).arity();
            if g.inputs.len() != arity {
                return Err(NetlistError::ArityMismatch {
                    gate: GateId::from_index(gi),
                    expected: arity,
                    found: g.inputs.len(),
                });
            }
        }
        // Sink bookkeeping: each gate input pin appears exactly once in its
        // net's sink list, and nothing else does. A sink list that holds
        // only valid, distinct pins pointing back at its net, as many as
        // the gate inputs name the net, is that multiset.
        let mut expected = vec![0usize; self.nets.len()];
        // Pin slot of gate `g` pin `p` is `first_slot[g] + p`.
        let mut first_slot = Vec::with_capacity(self.gates.len());
        let mut slots = 0usize;
        for g in &self.gates {
            first_slot.push(slots);
            slots += g.inputs.len();
            for &net in &g.inputs {
                expected[net.index()] += 1;
            }
        }
        // A slot can only pass the points-back test for its own net, so
        // one flag per slot catches every repeat.
        let mut seen = vec![false; slots];
        for (ni, net) in self.nets.iter().enumerate() {
            let id = NetId::from_index(ni);
            let consistent = net.sinks.len() == expected[ni]
                && net.sinks.iter().all(|p| {
                    let Some(g) = self.gates.get(p.gate.index()) else {
                        return false;
                    };
                    if g.inputs.get(p.pin) != Some(&id) {
                        return false;
                    }
                    let slot = &mut seen[first_slot[p.gate.index()] + p.pin];
                    !std::mem::replace(slot, true)
                });
            if !consistent {
                return Err(NetlistError::InconsistentSinks { net: id });
            }
        }
        for &po in &self.primary_outputs {
            if matches!(self.nets[po.index()].driver, NetDriver::None) {
                return Err(NetlistError::DanglingOutput { net: po });
            }
        }
        self.cached_topo()?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Simulation
    // ------------------------------------------------------------------

    /// Bit-parallel simulation: given one pattern stream (of equal length
    /// `num_words`) per primary input, returns a pattern stream per net,
    /// indexed by [`NetId::index`].
    ///
    /// # Panics
    ///
    /// Panics if `pi_patterns.len()` differs from the number of primary
    /// inputs, the streams have unequal lengths, or the netlist is cyclic
    /// (validate first).
    pub fn simulate(&self, pi_patterns: &[Vec<u64>]) -> Vec<Vec<u64>> {
        assert_eq!(
            pi_patterns.len(),
            self.primary_inputs.len(),
            "one pattern stream per primary input required"
        );
        let num_words = pi_patterns.first().map_or(0, Vec::len);
        assert!(
            pi_patterns.iter().all(|p| p.len() == num_words),
            "pattern streams must have equal length"
        );
        let mut values = vec![vec![0u64; num_words]; self.nets.len()];
        for (k, &pi) in self.primary_inputs.iter().enumerate() {
            values[pi.index()].copy_from_slice(&pi_patterns[k]);
        }
        for (ni, net) in self.nets.iter().enumerate() {
            if let NetDriver::Const(true) = net.driver {
                values[ni].fill(u64::MAX);
            }
        }
        let order = self.cached_topo().expect("cyclic netlist");
        // 256-bit inner kernel: gather each input's lanes into a reused
        // block buffer and evaluate four words per gate dispatch; a scalar
        // loop mops up the sub-block tail.
        let full_blocks = num_words / BLOCK_LANES;
        let tail_start = full_blocks * BLOCK_LANES;
        let mut in_blocks: Vec<Block> = Vec::new();
        let mut in_words: Vec<u64> = Vec::new();
        for &g in order {
            let gate = &self.gates[g.index()];
            let f = self.library.cell(gate.cell).function();
            let out = gate.output.index();
            for blk in 0..full_blocks {
                let word = blk * BLOCK_LANES;
                in_blocks.clear();
                in_blocks.extend(
                    gate.inputs
                        .iter()
                        .map(|i| gather_block(&values[i.index()], word)),
                );
                let res = f.eval_blocks(&in_blocks);
                values[out][word..word + BLOCK_LANES].copy_from_slice(&res);
            }
            #[allow(clippy::needless_range_loop)] // values is indexed by two axes
            for w in tail_start..num_words {
                in_words.clear();
                in_words.extend(gate.inputs.iter().map(|i| values[i.index()][w]));
                values[out][w] = f.eval_words(&in_words);
            }
        }
        values
    }

    /// Evaluates the netlist on a single input assignment, returning the
    /// primary output values in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        let patterns: Vec<Vec<u64>> = inputs
            .iter()
            .map(|&b| vec![if b { 1 } else { 0 }])
            .collect();
        let values = self.simulate(&patterns);
        self.primary_outputs
            .iter()
            .map(|po| values[po.index()][0] & 1 == 1)
            .collect()
    }

    /// Summary statistics (gate count, per-function histogram, I/O counts).
    pub fn stats(&self) -> NetlistStats {
        NetlistStats::of(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odcfp_logic::sim::exhaustive_patterns;
    use std::collections::HashMap;

    fn fig1_left() -> Netlist {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("fig1", lib);
        let a = n.add_primary_input("A");
        let b = n.add_primary_input("B");
        let c = n.add_primary_input("C");
        let d = n.add_primary_input("D");
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let or2 = n.library().cell_for(PrimitiveFn::Or, 2).unwrap();
        let x = n.add_gate("gx", and2, &[a, b]);
        let y = n.add_gate("gy", or2, &[c, d]);
        let f = n.add_gate("gf", and2, &[n.gate_output(x), n.gate_output(y)]);
        n.set_primary_output(n.gate_output(f));
        n
    }

    #[test]
    fn build_and_validate() {
        let n = fig1_left();
        n.validate().unwrap();
        assert_eq!(n.num_gates(), 3);
        assert_eq!(n.primary_inputs().len(), 4);
        assert_eq!(n.primary_outputs().len(), 1);
    }

    #[test]
    fn eval_matches_function() {
        let n = fig1_left();
        for i in 0..16usize {
            let bits: Vec<bool> = (0..4).map(|v| (i >> v) & 1 == 1).collect();
            let expect = (bits[0] && bits[1]) && (bits[2] || bits[3]);
            assert_eq!(n.eval(&bits), vec![expect], "assignment {i}");
        }
    }

    #[test]
    fn simulate_exhaustive_matches_eval() {
        let n = fig1_left();
        let pats = exhaustive_patterns(4);
        let values = n.simulate(&pats);
        let po = n.primary_outputs()[0];
        for i in 0..16usize {
            let bits: Vec<bool> = (0..4).map(|v| (i >> v) & 1 == 1).collect();
            let sim_bit = (values[po.index()][0] >> i) & 1 == 1;
            assert_eq!(sim_bit, n.eval(&bits)[0]);
        }
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let n = fig1_left();
        let order = n.topo_order().unwrap();
        let pos: HashMap<GateId, usize> = order.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        for (g, gate) in n.gates() {
            for &i in gate.inputs() {
                if let NetDriver::Gate(src) = n.net(i).driver() {
                    assert!(pos[&src] < pos[&g]);
                }
            }
        }
    }

    #[test]
    fn depths() {
        let n = fig1_left();
        let d = n.gate_depths().unwrap();
        let gx = n.gate_by_name("gx").unwrap();
        let gf = n.gate_by_name("gf").unwrap();
        assert_eq!(d[gx.index()], 1);
        assert_eq!(d[gf.index()], 2);
    }

    #[test]
    fn undriven_net_detected() {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("bad", lib);
        let a = n.add_primary_input("a");
        let floating = n.add_net("floating");
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        n.add_gate("g", and2, &[a, floating]);
        match n.validate() {
            Err(NetlistError::UndrivenNet { name, .. }) => assert_eq!(name, "floating"),
            other => panic!("expected UndrivenNet, got {other:?}"),
        }
    }

    #[test]
    fn replace_gate_keeps_bookkeeping() {
        let mut n = fig1_left();
        let gx = n.gate_by_name("gx").unwrap();
        let a = n.net_by_name("A").unwrap();
        let b = n.net_by_name("B").unwrap();
        let gy_out = n.gate_output(n.gate_by_name("gy").unwrap());
        let and3 = n.library().cell_for(PrimitiveFn::And, 3).unwrap();
        // The paper's Figure 1 right circuit: X = A & B & Y.
        n.replace_gate(gx, and3, &[a, b, gy_out]);
        n.validate().unwrap();
        // Function is unchanged (Y is an ODC trigger for X).
        for i in 0..16usize {
            let bits: Vec<bool> = (0..4).map(|v| (i >> v) & 1 == 1).collect();
            let expect = (bits[0] && bits[1]) && (bits[2] || bits[3]);
            assert_eq!(n.eval(&bits), vec![expect], "assignment {i}");
        }
    }

    #[test]
    fn constants_simulate() {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("consts", lib);
        let a = n.add_primary_input("a");
        let one = n.add_constant("one", true);
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let g = n.add_gate("g", and2, &[a, one]);
        n.set_primary_output(n.gate_output(g));
        n.validate().unwrap();
        assert_eq!(n.eval(&[true]), vec![true]);
        assert_eq!(n.eval(&[false]), vec![false]);
    }

    #[test]
    fn inconsistent_sinks_report_the_lowest_net() {
        let mut n = fig1_left();
        let a = n.net_by_name("A").unwrap();
        let c = n.net_by_name("C").unwrap();
        let gx = n.gate_by_name("gx").unwrap();
        let gy = n.gate_by_name("gy").unwrap();
        // C loses its sink; A gains a duplicate of its own.
        n.nets[c.index()].sinks.clear();
        n.nets[a.index()].sinks.push(PinRef { gate: gx, pin: 0 });
        assert_eq!(
            n.validate(),
            Err(NetlistError::InconsistentSinks { net: a })
        );
        // A sink naming another net's pin, with the count still right.
        let mut n = fig1_left();
        n.nets[a.index()].sinks[0] = PinRef { gate: gy, pin: 0 };
        n.nets[c.index()].sinks.push(PinRef { gate: gx, pin: 7 });
        assert_eq!(
            n.validate(),
            Err(NetlistError::InconsistentSinks { net: a })
        );
        // A repeated pin in place of a missing one, with the count right.
        let mut n = fig1_left();
        let gf = n.gate_by_name("gf").unwrap();
        let x = n.gate_output(gx);
        n.replace_gate(gf, n.gate(gf).cell(), &[x, x]);
        n.validate().unwrap();
        n.nets[x.index()].sinks = vec![PinRef { gate: gf, pin: 1 }; 2];
        assert_eq!(
            n.validate(),
            Err(NetlistError::InconsistentSinks { net: x })
        );
    }

    #[test]
    fn cycle_detected() {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("cyc", lib);
        let a = n.add_primary_input("a");
        let fwd = n.add_net("fwd");
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let g1 = n.add_gate("g1", and2, &[a, fwd]);
        // g2 closes the loop: drives fwd from g1's output.
        n.add_gate_driving("g2", and2, &[n.gate_output(g1), a], fwd);
        assert!(matches!(
            n.validate(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn accessors_and_lookup_misses() {
        let mut n = fig1_left();
        assert_eq!(n.name(), "fig1");
        n.set_name("renamed");
        assert_eq!(n.name(), "renamed");
        assert!(n.net_by_name("nope").is_none());
        assert!(n.gate_by_name("nope").is_none());
        let gx = n.gate_by_name("gx").unwrap();
        assert_eq!(n.gate_fn(gx), PrimitiveFn::And);
        assert_eq!(n.gate(gx).name(), "gx");
        let c = n.add_constant("tie", true);
        assert_eq!(n.net(c).driver(), NetDriver::Const(true));
        assert!(!n.net(c).is_primary_output());
        n.set_primary_output(c);
        n.set_primary_output(c); // idempotent
        assert_eq!(n.primary_outputs().iter().filter(|&&p| p == c).count(), 1);
    }

    #[test]
    fn num_nets_counts_everything() {
        let n = fig1_left();
        // 4 PIs + 3 gate outputs.
        assert_eq!(n.num_nets(), 7);
    }

    #[test]
    fn fanout_counts_po() {
        let n = fig1_left();
        let gf_out = n.gate_output(n.gate_by_name("gf").unwrap());
        assert_eq!(n.net(gf_out).fanout(), 1);
        let gx_out = n.gate_output(n.gate_by_name("gx").unwrap());
        assert_eq!(n.net(gx_out).fanout(), 1);
        let a = n.net_by_name("A").unwrap();
        assert_eq!(n.net(a).fanout(), 1);
    }
}

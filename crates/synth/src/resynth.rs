//! Resynthesis round-trips: un-mapping a gate-level netlist back into a
//! technology-independent SOP network and pushing it through the mapper
//! and optimizer again.
//!
//! This models the classic fingerprint-removal attack (the threat framed
//! by the universal-circuits security analysis in PAPERS.md): an adversary
//! who buys a fingerprinted netlist does not have to ship it verbatim —
//! they can re-synthesize it, hoping the tool restructures the redundant
//! ODC wires away. The round-trip here is the strongest such transform the
//! in-tree flow offers: [`unmap`] dissolves every gate into its SOP cover
//! (erasing cell choices), [`map_network`] re-makes
//! cell choices from scratch (with NAND/NOR/XOR peepholes), and
//! [`optimize`] folds constants and sweeps dead
//! logic on both sides.
//!
//! Every pass is semantics-preserving by construction, and
//! `tests/resynth_equivalence.rs` checks that invariant differentially
//! against the verify ladder on the fault-battery circuits.

use std::fmt;

use odcfp_blif::{LogicNetwork, LogicNode};
use odcfp_logic::{Cube, CubeLit, PrimitiveFn, Sop};
use odcfp_netlist::{NetDriver, Netlist};

use crate::opt::{optimize, OptStats};
use crate::{map_network, MapError};

/// Reserved prefix for signal names synthesized by [`unmap`] for internal
/// nets. Primary inputs keep their own names, so they must not use it.
const RESERVED: &str = "__rs";

/// Why a netlist could not be resynthesized.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ResynthError {
    /// The netlist contains a combinational cycle.
    Cyclic,
    /// A primary input uses the reserved internal-name prefix.
    ReservedName {
        /// The offending input name.
        name: String,
    },
    /// Re-mapping the un-mapped network failed.
    Map(MapError),
}

impl fmt::Display for ResynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResynthError::Cyclic => write!(f, "netlist has a combinational cycle"),
            ResynthError::ReservedName { name } => {
                write!(
                    f,
                    "primary input {name:?} collides with the reserved {RESERVED} prefix"
                )
            }
            ResynthError::Map(e) => write!(f, "remap failed: {e}"),
        }
    }
}

impl std::error::Error for ResynthError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResynthError::Map(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MapError> for ResynthError {
    fn from(e: MapError) -> Self {
        ResynthError::Map(e)
    }
}

/// The effort level of a resynthesis round-trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResynthLevel {
    /// Level 1: constant folding and dead-logic sweep only.
    Opt,
    /// Level 2: optimize, un-map to SOP, re-map, optimize again.
    Remap,
    /// Level 3: two full un-map/re-map round-trips.
    RemapTwice,
}

impl ResynthLevel {
    /// All levels, in escalating order.
    pub const ALL: [ResynthLevel; 3] = [
        ResynthLevel::Opt,
        ResynthLevel::Remap,
        ResynthLevel::RemapTwice,
    ];

    /// Stable lowercase name (used in traces, scorecards, and the CLI).
    pub fn name(self) -> &'static str {
        match self {
            ResynthLevel::Opt => "opt",
            ResynthLevel::Remap => "remap",
            ResynthLevel::RemapTwice => "remap2",
        }
    }

    /// Parses a level from its [`name`](ResynthLevel::name) or its 1-based
    /// number.
    pub fn parse(s: &str) -> Option<ResynthLevel> {
        match s {
            "opt" | "1" => Some(ResynthLevel::Opt),
            "remap" | "2" => Some(ResynthLevel::Remap),
            "remap2" | "3" => Some(ResynthLevel::RemapTwice),
            _ => None,
        }
    }

    /// How many un-map/re-map round-trips the level performs.
    pub fn round_trips(self) -> usize {
        match self {
            ResynthLevel::Opt => 0,
            ResynthLevel::Remap => 1,
            ResynthLevel::RemapTwice => 2,
        }
    }
}

/// What a resynthesis pass did to the circuit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResynthStats {
    /// Un-map/re-map round-trips performed.
    pub round_trips: usize,
    /// Gates folded to constants, summed over every optimize pass.
    pub gates_folded: usize,
    /// Constant pins pruned, summed over every optimize pass.
    pub pins_pruned: usize,
    /// Dead gates swept, summed over every optimize pass.
    pub dead_gates_removed: usize,
    /// Gate count before the first pass.
    pub gates_before: usize,
    /// Gate count after the last pass.
    pub gates_after: usize,
}

impl ResynthStats {
    fn absorb(&mut self, o: &OptStats) {
        self.gates_folded += o.gates_folded;
        self.pins_pruned += o.pins_pruned;
        self.dead_gates_removed += o.dead_gates_removed;
    }
}

/// The canonical SOP cover of a primitive cell function at a given arity.
fn primitive_cover(f: PrimitiveFn, arity: usize) -> Sop {
    let lit = |pos: usize, v: CubeLit| {
        let mut lits = vec![CubeLit::DontCare; arity];
        lits[pos] = v;
        Cube::new(lits)
    };
    match f {
        PrimitiveFn::Buf => Sop::new(arity, vec![lit(0, CubeLit::One)], true),
        PrimitiveFn::Inv => Sop::new(arity, vec![lit(0, CubeLit::Zero)], true),
        PrimitiveFn::And => Sop::new(arity, vec![Cube::new(vec![CubeLit::One; arity])], true),
        PrimitiveFn::Nand => Sop::new(arity, vec![Cube::new(vec![CubeLit::One; arity])], false),
        PrimitiveFn::Or => Sop::new(
            arity,
            (0..arity).map(|i| lit(i, CubeLit::One)).collect(),
            true,
        ),
        PrimitiveFn::Nor => Sop::new(
            arity,
            (0..arity).map(|i| lit(i, CubeLit::One)).collect(),
            false,
        ),
        PrimitiveFn::Xor | PrimitiveFn::Xnor => {
            // Minterm expansion of odd parity; the mapper's XOR-detection
            // peephole recovers a balanced XOR2 tree from exactly this
            // shape, so the round-trip stays compact.
            let cubes = (0..1usize << arity)
                .filter(|m| m.count_ones() % 2 == 1)
                .map(|m| {
                    Cube::new(
                        (0..arity)
                            .map(|b| {
                                if (m >> b) & 1 == 1 {
                                    CubeLit::One
                                } else {
                                    CubeLit::Zero
                                }
                            })
                            .collect(),
                    )
                })
                .collect();
            Sop::new(arity, cubes, f == PrimitiveFn::Xor)
        }
    }
}

/// Dissolves a gate-level netlist back into a technology-independent
/// [`LogicNetwork`]: one SOP node per gate, carrying exactly the gate's
/// primitive function. Primary inputs and outputs keep their order (and
/// inputs their names), so the result maps back to an interface-compatible
/// netlist.
///
/// # Errors
///
/// Returns [`ResynthError::Cyclic`] on a cyclic netlist and
/// [`ResynthError::ReservedName`] if a primary input collides with the
/// reserved internal prefix.
pub fn unmap(netlist: &Netlist) -> Result<LogicNetwork, ResynthError> {
    let mut out = LogicNetwork::new(netlist.name());
    let mut names: Vec<String> = (0..netlist.num_nets())
        .map(|i| format!("{RESERVED}{i}"))
        .collect();
    for &pi in netlist.primary_inputs() {
        let name = netlist.net(pi).name().to_string();
        if name.starts_with(RESERVED) {
            return Err(ResynthError::ReservedName { name });
        }
        names[pi.index()] = name.clone();
        out.add_input(name);
    }
    for (id, net) in netlist.nets() {
        if let NetDriver::Const(v) = net.driver() {
            out.add_node(LogicNode {
                output: names[id.index()].clone(),
                fanins: Vec::new(),
                cover: Sop::constant(0, v),
            });
        }
    }
    let order = netlist.topo_order().map_err(|_| ResynthError::Cyclic)?;
    for g in order {
        let gate = netlist.gate(g);
        out.add_node(LogicNode {
            output: names[gate.output().index()].clone(),
            fanins: gate
                .inputs()
                .iter()
                .map(|n| names[n.index()].clone())
                .collect(),
            cover: primitive_cover(netlist.gate_fn(g), gate.inputs().len()),
        });
    }
    for &po in netlist.primary_outputs() {
        out.add_output(names[po.index()].clone());
    }
    Ok(out)
}

/// Runs a full resynthesis pass at the given effort level and returns the
/// rewritten netlist (same library, same primary-input/-output interface,
/// same function) plus what the pass did.
///
/// Deterministic: every stage is a pure function of the input netlist, so
/// equal inputs produce byte-equal outputs at any thread count.
///
/// # Errors
///
/// Propagates [`unmap`] and [`map_network`] failures;
/// a validated netlist over the standard library cannot fail.
pub fn resynthesize(
    netlist: &Netlist,
    level: ResynthLevel,
) -> Result<(Netlist, ResynthStats), ResynthError> {
    let mut span = odcfp_obs::span("synth.resynth");
    span.field("level", level.name());
    let lib = netlist.library().clone();
    let mut stats = ResynthStats {
        gates_before: netlist.num_gates(),
        ..ResynthStats::default()
    };
    let (mut cur, first) = optimize(netlist);
    stats.absorb(&first);
    for _ in 0..level.round_trips() {
        let network = unmap(&cur)?;
        let mapped = map_network(&network, lib.clone())?;
        let (opt, o) = optimize(&mapped);
        stats.absorb(&o);
        stats.round_trips += 1;
        cur = opt;
    }
    stats.gates_after = cur.num_gates();
    span.field("gates_before", stats.gates_before);
    span.field("gates_after", stats.gates_after);
    Ok((cur, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use odcfp_netlist::CellLibrary;

    /// Exhaustively compares a netlist against its resynthesized form.
    fn assert_same_function(a: &Netlist, b: &Netlist) {
        let n = a.primary_inputs().len();
        assert!(n <= 12, "exhaustive check only for small circuits");
        for m in 0..1u64 << n {
            let inputs: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(a.eval(&inputs), b.eval(&inputs), "inputs {inputs:?}");
        }
    }

    fn sample() -> Netlist {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("sample", lib);
        let a = n.add_primary_input("a");
        let b = n.add_primary_input("b");
        let c = n.add_primary_input("c");
        let d = n.add_primary_input("d");
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let nor2 = n.library().cell_for(PrimitiveFn::Nor, 2).unwrap();
        let xor2 = n.library().cell_for(PrimitiveFn::Xor, 2).unwrap();
        let inv = n.library().cell_for(PrimitiveFn::Inv, 1).unwrap();
        let g1 = n.add_gate("g1", and2, &[a, b]);
        let g2 = n.add_gate("g2", nor2, &[c, d]);
        let g3 = n.add_gate("g3", xor2, &[n.gate_output(g1), n.gate_output(g2)]);
        let g4 = n.add_gate("g4", inv, &[n.gate_output(g3)]);
        n.set_primary_output(n.gate_output(g3));
        n.set_primary_output(n.gate_output(g4));
        n
    }

    #[test]
    fn primitive_covers_match_truth_tables() {
        for f in PrimitiveFn::ALL {
            let arity = match f {
                PrimitiveFn::Buf | PrimitiveFn::Inv => 1,
                _ => 3,
            };
            let cover = primitive_cover(f, arity);
            for m in 0..1u64 << arity {
                let bits: Vec<bool> = (0..arity).map(|i| (m >> i) & 1 == 1).collect();
                assert_eq!(cover.eval(&bits), f.eval(&bits), "{f:?} at {bits:?}");
            }
        }
    }

    #[test]
    fn unmap_remap_preserves_function_and_interface() {
        let n = sample();
        let network = unmap(&n).unwrap();
        network.validate().unwrap();
        let back = map_network(&network, n.library().clone()).unwrap();
        assert_eq!(back.primary_inputs().len(), n.primary_inputs().len());
        assert_eq!(back.primary_outputs().len(), n.primary_outputs().len());
        assert_same_function(&n, &back);
    }

    #[test]
    fn every_level_preserves_function() {
        let n = sample();
        for level in ResynthLevel::ALL {
            let (out, stats) = resynthesize(&n, level).unwrap();
            assert_eq!(stats.round_trips, level.round_trips());
            assert_same_function(&n, &out);
        }
    }

    #[test]
    fn resynthesis_is_deterministic() {
        let n = sample();
        let (a, _) = resynthesize(&n, ResynthLevel::Remap).unwrap();
        let (b, _) = resynthesize(&n, ResynthLevel::Remap).unwrap();
        assert_eq!(
            odcfp_verilog::write_verilog(&a),
            odcfp_verilog::write_verilog(&b)
        );
    }

    #[test]
    fn level_names_round_trip() {
        for level in ResynthLevel::ALL {
            assert_eq!(ResynthLevel::parse(level.name()), Some(level));
        }
        assert_eq!(ResynthLevel::parse("4"), None);
    }
}

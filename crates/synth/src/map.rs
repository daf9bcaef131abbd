//! Technology mapping: SOP logic networks onto the standard-cell library.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use odcfp_blif::{LogicNetwork, NetworkError};
use odcfp_logic::{CubeLit, PrimitiveFn, Sop};
use odcfp_netlist::{CellLibrary, NetId, Netlist};

use crate::builder::CircuitBuilder;

/// Why a network could not be mapped.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MapError {
    /// The input network is semantically invalid.
    Network(NetworkError),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Network(e) => write!(f, "invalid logic network: {e}"),
        }
    }
}

impl std::error::Error for MapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MapError::Network(e) => Some(e),
        }
    }
}

impl From<NetworkError> for MapError {
    fn from(e: NetworkError) -> Self {
        MapError::Network(e)
    }
}

/// Maximum node fanin for which exact truth-table pattern matching (XOR
/// detection) is attempted.
const DETECT_LIMIT: usize = 12;

/// Maps a validated [`LogicNetwork`] onto `library`, producing a gate-level
/// [`Netlist`] that computes the same function.
///
/// Each SOP node becomes a two-level AND/OR structure over balanced trees of
/// the widest available cells, with these peepholes:
///
/// * buffer/inverter covers map to `BUF`/`INV` cells;
/// * constant covers become constant nets;
/// * single-cube covers with complemented output map to a `NAND` when it
///   fits one cell;
/// * multi-cube single-literal covers with complemented output map to `NOR`;
/// * nodes whose truth table is exact n-ary parity map to `XOR2` trees
///   (plus a final `INV` for XNOR), which keeps ECC-style circuits compact.
///
/// Input inverters are cached per signal.
///
/// # Errors
///
/// Returns [`MapError::Network`] if the network fails validation.
pub fn map_network(network: &LogicNetwork, library: Arc<CellLibrary>) -> Result<Netlist, MapError> {
    network.validate()?;
    let mut b = CircuitBuilder::new(network.name(), library);
    let mut signals: HashMap<&str, NetId> = HashMap::new();
    for name in network.inputs() {
        let id = b.input(name.clone());
        signals.insert(name.as_str(), id);
    }
    for &node_index in &network.topo_order()? {
        let node = &network.nodes()[node_index];
        let fanins: Vec<NetId> = node
            .fanins
            .iter()
            .map(|f| *signals.get(f.as_str()).expect("validated"))
            .collect();
        let out = map_node(&mut b, &node.cover, &fanins);
        signals.insert(node.output.as_str(), out);
    }
    let mut emitted: HashSet<NetId> = HashSet::new();
    for name in network.outputs() {
        let mut id = *signals.get(name.as_str()).expect("validated");
        // Sharing (the inverter cache, aliased covers) can resolve two
        // output signals to the same net, but a net carries at most one
        // primary-output marking — split duplicates through a buffer so
        // the mapped netlist keeps the network's output arity.
        if !emitted.insert(id) {
            id = b.gate(PrimitiveFn::Buf, &[id]);
            emitted.insert(id);
        }
        b.output(id);
    }
    Ok(b.finish())
}

fn map_node(b: &mut CircuitBuilder, cover: &Sop, fanins: &[NetId]) -> NetId {
    let value = cover.output_value();
    // Constant covers.
    if cover.cubes().is_empty() {
        return b.constant(!value);
    }
    if cover
        .cubes()
        .iter()
        .any(|c| c.lits().iter().all(|l| matches!(l, CubeLit::DontCare)))
    {
        return b.constant(value);
    }
    // Buffer / inverter.
    if fanins.len() == 1 && cover.num_cubes() == 1 {
        let lit = cover.cubes()[0].lits()[0];
        let positive = matches!(lit, CubeLit::One) == value;
        return if positive {
            b.gate(PrimitiveFn::Buf, &[fanins[0]])
        } else {
            b.not(fanins[0])
        };
    }
    // Exact parity detection.
    if fanins.len() >= 2 && fanins.len() <= DETECT_LIMIT {
        let tt = cover.truth_table();
        if tt == PrimitiveFn::Xor.truth_table(fanins.len()) {
            return b.xor_tree(fanins);
        }
        if tt == PrimitiveFn::Xnor.truth_table(fanins.len()) {
            let x = b.xor_tree(fanins);
            return b.not(x);
        }
    }
    // Generic two-level structure.
    let max_and = b
        .netlist()
        .library()
        .max_arity(PrimitiveFn::Nand)
        .unwrap_or(4);
    let max_or = b
        .netlist()
        .library()
        .max_arity(PrimitiveFn::Nor)
        .unwrap_or(4);
    let cube_literals = |b: &mut CircuitBuilder, cube: &odcfp_logic::Cube| -> Vec<NetId> {
        cube.lits()
            .iter()
            .zip(fanins)
            .filter_map(|(l, &net)| match l {
                CubeLit::One => Some(net),
                CubeLit::Zero => Some(b.not(net)),
                CubeLit::DontCare => None,
            })
            .collect()
    };

    if cover.num_cubes() == 1 {
        let lits = cube_literals(b, &cover.cubes()[0]);
        debug_assert!(!lits.is_empty(), "all-don't-care cube handled above");
        if value {
            return b.tree(PrimitiveFn::And, &lits);
        }
        // Complemented single cube.
        if lits.len() == 1 {
            return b.not(lits[0]);
        }
        if lits.len() <= max_and {
            return b.gate(PrimitiveFn::Nand, &lits);
        }
        let t = b.tree(PrimitiveFn::And, &lits);
        return b.not(t);
    }

    let cube_nets: Vec<NetId> = cover
        .cubes()
        .iter()
        .map(|cube| {
            let lits = cube_literals(b, cube);
            debug_assert!(!lits.is_empty(), "all-don't-care cube handled above");
            b.tree(PrimitiveFn::And, &lits)
        })
        .collect();
    if value {
        b.tree(PrimitiveFn::Or, &cube_nets)
    } else if cube_nets.len() <= max_or {
        b.gate(PrimitiveFn::Nor, &cube_nets)
    } else {
        let or = b.tree(PrimitiveFn::Or, &cube_nets);
        b.not(or)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odcfp_blif::parse_blif;
    use odcfp_blif::LogicNode;
    use odcfp_logic::rng::Xoshiro256;
    use odcfp_logic::Cube;

    fn assert_matches_network(net: &LogicNetwork, mapped: &Netlist) {
        let k = net.inputs().len();
        assert!(k <= 14, "test helper is exhaustive");
        for i in 0..(1usize << k) {
            let bits: Vec<bool> = (0..k).map(|v| (i >> v) & 1 == 1).collect();
            assert_eq!(
                mapped.eval(&bits),
                net.eval(&bits),
                "{} assignment {i:b}",
                net.name()
            );
        }
    }

    #[test]
    fn maps_majority() {
        let src = "\
.model maj
.inputs a b c
.outputs m
.names a b c m
11- 1
1-1 1
-11 1
.end
";
        let net = parse_blif(src).unwrap();
        let mapped = map_network(&net, CellLibrary::standard()).unwrap();
        assert_matches_network(&net, &mapped);
    }

    #[test]
    fn nand_nor_peepholes() {
        let src = "\
.model nn
.inputs a b c d
.outputs x y
.names a b x
11 0
.names c d y
1- 0
-1 0
.end
";
        let net = parse_blif(src).unwrap();
        let mapped = map_network(&net, CellLibrary::standard()).unwrap();
        assert_matches_network(&net, &mapped);
        // x is one NAND2, y is one NOR2: two gates total.
        assert_eq!(mapped.num_gates(), 2);
    }

    #[test]
    fn xor_detection_is_compact() {
        // 4-input parity as 8 minterm cubes.
        let mut cubes = Vec::new();
        for i in 0..16usize {
            if (i as u32).count_ones() % 2 == 1 {
                let s: String = (0..4)
                    .map(|v| if (i >> v) & 1 == 1 { '1' } else { '0' })
                    .collect();
                cubes.push(s.parse::<Cube>().unwrap());
            }
        }
        let mut net = LogicNetwork::new("par");
        for i in 0..4 {
            net.add_input(format!("x{i}"));
        }
        net.add_output("p");
        net.add_node(LogicNode {
            output: "p".into(),
            fanins: (0..4).map(|i| format!("x{i}")).collect(),
            cover: Sop::new(4, cubes, true),
        });
        let mapped = map_network(&net, CellLibrary::standard()).unwrap();
        assert_matches_network(&net, &mapped);
        assert_eq!(mapped.num_gates(), 3, "three XOR2 cells expected");
    }

    #[test]
    fn constants_and_buffers() {
        let src = "\
.model cb
.inputs a
.outputs one zero same flip
.names one
1
.names zero
.names a same
1 1
.names a flip
1 0
.end
";
        let net = parse_blif(src).unwrap();
        let mapped = map_network(&net, CellLibrary::standard()).unwrap();
        assert_matches_network(&net, &mapped);
    }

    #[test]
    fn passthrough_output() {
        let src = ".model p\n.inputs a\n.outputs a\n.end\n";
        let net = parse_blif(src).unwrap();
        let mapped = map_network(&net, CellLibrary::standard()).unwrap();
        assert_eq!(mapped.eval(&[true]), vec![true]);
        assert_eq!(mapped.num_gates(), 0);
    }

    #[test]
    fn invalid_network_rejected() {
        let mut net = LogicNetwork::new("bad");
        net.add_output("ghost");
        assert!(matches!(
            map_network(&net, CellLibrary::standard()),
            Err(MapError::Network(_))
        ));
    }

    #[test]
    fn random_networks_map_correctly() {
        let mut rng = Xoshiro256::seed_from_u64(99);
        for round in 0..25 {
            let num_inputs = 2 + rng.next_below(5);
            let num_nodes = 1 + rng.next_below(6);
            let mut net = LogicNetwork::new(format!("r{round}"));
            let mut signals: Vec<String> = (0..num_inputs)
                .map(|i| {
                    let s = format!("i{i}");
                    net.add_input(&s);
                    s
                })
                .collect();
            for k in 0..num_nodes {
                let nf = 1 + rng.next_below(3.min(signals.len()));
                let mut fanins = Vec::new();
                let mut pool = signals.clone();
                for _ in 0..nf {
                    let at = rng.next_below(pool.len());
                    fanins.push(pool.swap_remove(at));
                }
                let ncubes = 1 + rng.next_below(4);
                let cubes: Vec<Cube> = (0..ncubes)
                    .map(|_| {
                        let s: String = (0..nf)
                            .map(|_| ['0', '1', '-'][rng.next_below(3)])
                            .collect();
                        s.parse().unwrap()
                    })
                    .collect();
                let name = format!("n{k}");
                net.add_node(LogicNode {
                    output: name.clone(),
                    fanins,
                    cover: Sop::new(nf, cubes, rng.next_bool()),
                });
                signals.push(name);
            }
            let last = signals.last().unwrap().clone();
            net.add_output(last);
            let mapped = map_network(&net, CellLibrary::standard()).unwrap();
            assert_matches_network(&net, &mapped);
        }
    }
}

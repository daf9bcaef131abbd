//! Technology-independent Boolean networks (the semantic content of a BLIF
//! model).

use std::collections::HashMap;
use std::fmt;

use odcfp_logic::Sop;

/// One internal node: a signal defined by a sum-of-products cover over named
/// fanin signals (a BLIF `.names` block).
#[derive(Debug, Clone, PartialEq)]
pub struct LogicNode {
    /// The signal this node defines.
    pub output: String,
    /// The fanin signal names, in cover-column order.
    pub fanins: Vec<String>,
    /// The cover defining the node function.
    pub cover: Sop,
}

/// A semantic defect in a [`LogicNetwork`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetworkError {
    /// A signal is referenced but neither a primary input nor defined by a
    /// node.
    Undefined {
        /// The missing signal.
        signal: String,
    },
    /// A signal is defined more than once.
    Redefined {
        /// The multiply-defined signal.
        signal: String,
    },
    /// The node dependency graph is cyclic.
    Cyclic {
        /// A signal on the cycle.
        signal: String,
    },
    /// A node's cover width does not match its fanin count.
    CoverWidthMismatch {
        /// The offending node's output signal.
        signal: String,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::Undefined { signal } => write!(f, "signal {signal:?} is undefined"),
            NetworkError::Redefined { signal } => {
                write!(f, "signal {signal:?} is defined more than once")
            }
            NetworkError::Cyclic { signal } => {
                write!(f, "combinational cycle through signal {signal:?}")
            }
            NetworkError::CoverWidthMismatch { signal } => {
                write!(f, "cover width mismatch at node {signal:?}")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// A named Boolean network: primary inputs, primary outputs, and SOP nodes.
///
/// This is the exchange type between the BLIF front end and the technology
/// mapper; see the [crate documentation](crate) for an example.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicNetwork {
    name: String,
    inputs: Vec<String>,
    outputs: Vec<String>,
    nodes: Vec<LogicNode>,
}

impl LogicNetwork {
    /// Creates an empty network.
    pub fn new(name: impl Into<String>) -> Self {
        LogicNetwork {
            name: name.into(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            nodes: Vec::new(),
        }
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares a primary input.
    pub fn add_input(&mut self, name: impl Into<String>) {
        self.inputs.push(name.into());
    }

    /// Declares a primary output.
    pub fn add_output(&mut self, name: impl Into<String>) {
        self.outputs.push(name.into());
    }

    /// Adds an SOP node.
    pub fn add_node(&mut self, node: LogicNode) {
        self.nodes.push(node);
    }

    /// The primary input names.
    pub fn inputs(&self) -> &[String] {
        &self.inputs
    }

    /// The primary output names.
    pub fn outputs(&self) -> &[String] {
        &self.outputs
    }

    /// The internal nodes, in declaration order.
    pub fn nodes(&self) -> &[LogicNode] {
        &self.nodes
    }

    /// The node defining `signal`, if any.
    pub fn node_for(&self, signal: &str) -> Option<&LogicNode> {
        self.nodes.iter().find(|n| n.output == signal)
    }

    /// Checks the network: unique definitions, every referenced signal
    /// defined, acyclic, cover widths consistent.
    ///
    /// # Errors
    ///
    /// Returns the first defect found.
    pub fn validate(&self) -> Result<(), NetworkError> {
        let mut defined: HashMap<&str, usize> = HashMap::new();
        for i in &self.inputs {
            if defined.insert(i.as_str(), usize::MAX).is_some() {
                return Err(NetworkError::Redefined { signal: i.clone() });
            }
        }
        for (k, n) in self.nodes.iter().enumerate() {
            if n.cover.num_inputs() != n.fanins.len() {
                return Err(NetworkError::CoverWidthMismatch {
                    signal: n.output.clone(),
                });
            }
            if defined.insert(n.output.as_str(), k).is_some() {
                return Err(NetworkError::Redefined {
                    signal: n.output.clone(),
                });
            }
        }
        for n in &self.nodes {
            for fi in &n.fanins {
                if !defined.contains_key(fi.as_str()) {
                    return Err(NetworkError::Undefined { signal: fi.clone() });
                }
            }
        }
        for o in &self.outputs {
            if !defined.contains_key(o.as_str()) {
                return Err(NetworkError::Undefined { signal: o.clone() });
            }
        }
        self.topo_order().map(|_| ())
    }

    /// Node indices in topological order (fanins before the node).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::Cyclic`] on a combinational cycle and
    /// [`NetworkError::Undefined`] on a dangling reference.
    pub fn topo_order(&self) -> Result<Vec<usize>, NetworkError> {
        let index: HashMap<&str, usize> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.output.as_str(), i))
            .collect();
        let input_set: HashMap<&str, ()> = self.inputs.iter().map(|i| (i.as_str(), ())).collect();
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, node) in self.nodes.iter().enumerate() {
            for fi in &node.fanins {
                if let Some(&src) = index.get(fi.as_str()) {
                    indegree[i] += 1;
                    dependents[src].push(i);
                } else if !input_set.contains_key(fi.as_str()) {
                    return Err(NetworkError::Undefined { signal: fi.clone() });
                }
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let i = queue[head];
            head += 1;
            order.push(i);
            for &d in &dependents[i] {
                indegree[d] -= 1;
                if indegree[d] == 0 {
                    queue.push(d);
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n).find(|&i| indegree[i] > 0).expect("cycle remnant");
            return Err(NetworkError::Cyclic {
                signal: self.nodes[stuck].output.clone(),
            });
        }
        Ok(order)
    }

    /// Evaluates the network on one assignment of the primary inputs (in
    /// declaration order), returning primary output values in declaration
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the input count or the network
    /// is invalid (validate first).
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.inputs.len(), "input count mismatch");
        let mut values: HashMap<&str, bool> = HashMap::new();
        for (name, &v) in self.inputs.iter().zip(inputs) {
            values.insert(name.as_str(), v);
        }
        let order = self.topo_order().expect("invalid network");
        for i in order {
            let node = &self.nodes[i];
            let fanin_values: Vec<bool> = node
                .fanins
                .iter()
                .map(|f| *values.get(f.as_str()).expect("undefined fanin"))
                .collect();
            values.insert(node.output.as_str(), node.cover.eval(&fanin_values));
        }
        self.outputs
            .iter()
            .map(|o| *values.get(o.as_str()).expect("undefined output"))
            .collect()
    }

    /// The number of internal nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odcfp_logic::Cube;

    fn xor_network() -> LogicNetwork {
        let mut net = LogicNetwork::new("xor2");
        net.add_input("a");
        net.add_input("b");
        net.add_output("y");
        net.add_node(LogicNode {
            output: "y".into(),
            fanins: vec!["a".into(), "b".into()],
            cover: Sop::new(
                2,
                vec!["10".parse::<Cube>().unwrap(), "01".parse().unwrap()],
                true,
            ),
        });
        net
    }

    #[test]
    fn validate_and_eval() {
        let net = xor_network();
        net.validate().unwrap();
        assert_eq!(net.eval(&[false, false]), vec![false]);
        assert_eq!(net.eval(&[true, false]), vec![true]);
        assert_eq!(net.eval(&[true, true]), vec![false]);
    }

    #[test]
    fn undefined_signal_detected() {
        let mut net = xor_network();
        net.add_output("ghost");
        assert_eq!(
            net.validate(),
            Err(NetworkError::Undefined {
                signal: "ghost".into()
            })
        );
    }

    #[test]
    fn redefinition_detected() {
        let mut net = xor_network();
        net.add_node(LogicNode {
            output: "y".into(),
            fanins: vec!["a".into()],
            cover: Sop::new(1, vec!["1".parse().unwrap()], true),
        });
        assert_eq!(
            net.validate(),
            Err(NetworkError::Redefined { signal: "y".into() })
        );
    }

    #[test]
    fn cycle_detected() {
        let mut net = LogicNetwork::new("cyc");
        net.add_input("a");
        net.add_output("p");
        let buf = |from: &str, to: &str| LogicNode {
            output: to.into(),
            fanins: vec![from.into()],
            cover: Sop::new(1, vec!["1".parse().unwrap()], true),
        };
        net.add_node(buf("q", "p"));
        net.add_node(buf("p", "q"));
        assert!(matches!(net.validate(), Err(NetworkError::Cyclic { .. })));
    }

    #[test]
    fn cover_width_mismatch_detected() {
        let mut net = LogicNetwork::new("w");
        net.add_input("a");
        net.add_output("y");
        net.add_node(LogicNode {
            output: "y".into(),
            fanins: vec!["a".into()],
            cover: Sop::new(2, vec!["11".parse().unwrap()], true),
        });
        assert!(matches!(
            net.validate(),
            Err(NetworkError::CoverWidthMismatch { .. })
        ));
    }

    #[test]
    fn multi_level_eval() {
        // f = (a & b) | c built from two nodes.
        let mut net = LogicNetwork::new("two-level");
        for i in ["a", "b", "c"] {
            net.add_input(i);
        }
        net.add_output("f");
        net.add_node(LogicNode {
            output: "t".into(),
            fanins: vec!["a".into(), "b".into()],
            cover: Sop::new(2, vec!["11".parse().unwrap()], true),
        });
        net.add_node(LogicNode {
            output: "f".into(),
            fanins: vec!["t".into(), "c".into()],
            cover: Sop::new(2, vec!["1-".parse().unwrap(), "-1".parse().unwrap()], true),
        });
        net.validate().unwrap();
        for i in 0..8usize {
            let bits: Vec<bool> = (0..3).map(|v| (i >> v) & 1 == 1).collect();
            let expect = (bits[0] && bits[1]) || bits[2];
            assert_eq!(net.eval(&bits), vec![expect]);
        }
    }
}

//! Writer for the structural Verilog subset.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

use odcfp_netlist::{NetDriver, NetId, Netlist};

use crate::input_pin_name;

/// Emits a netlist as a flat gate-level Verilog module with named ports.
///
/// Net and instance names are sanitized to legal simple identifiers
/// (alphanumerics and `_`; anything else becomes `_`) and uniquified with
/// numeric suffixes when sanitization collides, so any netlist — including
/// ones built from BLIF files with bracketed names — round-trips through
/// [`crate::parse_verilog`] functionally (names may differ textually).
pub fn write_verilog(netlist: &Netlist) -> String {
    let mut namer = Namer::with_capacity(netlist.num_nets() + netlist.num_gates());
    // Reserve language keywords and cell names up front.
    for kw in ["module", "endmodule", "input", "output", "wire", "assign"] {
        namer.reserve(kw);
    }
    for (_, cell) in netlist.library().iter() {
        namer.reserve(cell.name());
    }

    // Each net's name, resolved once; indexed by `NetId::index`.
    let net_names: Vec<Cow<'_, str>> = netlist
        .nets()
        .map(|(_, net)| namer.fresh(net.name()))
        .collect();

    // Size the text up front: a net's name is written once where it is
    // declared, once where it is driven and once per sink, an instance
    // name is about as long, and each pin adds `.A(` and `), `.
    let pins: usize = netlist.gates().map(|(_, g)| g.inputs().len() + 1).sum();
    let name_bytes: usize = net_names.iter().map(|n| n.len()).sum();
    let mean_name = name_bytes / net_names.len().max(1) + 1;
    let mut out = String::with_capacity(
        64 + mean_name * (2 * net_names.len() + pins + netlist.num_gates())
            + 16 * netlist.num_gates()
            + 6 * pins,
    );
    let pis = netlist.primary_inputs();
    let pos = netlist.primary_outputs();
    out.push_str("module ");
    out.push_str(&sanitize(netlist.name()));
    out.push_str(" (");
    push_list(&mut out, &net_names, pis.iter().chain(pos).copied());
    out.push_str(");\n");
    if !pis.is_empty() {
        out.push_str("  input ");
        push_list(&mut out, &net_names, pis.iter().copied());
        out.push_str(";\n");
    }
    if !pos.is_empty() {
        out.push_str("  output ");
        push_list(&mut out, &net_names, pos.iter().copied());
        out.push_str(";\n");
    }
    let mut wires = netlist
        .nets()
        .filter(|(_, n)| matches!(n.driver(), NetDriver::Gate(_)) && !n.is_primary_output())
        .map(|(id, _)| id)
        .peekable();
    if wires.peek().is_some() {
        out.push_str("  wire ");
        push_list(&mut out, &net_names, wires);
        out.push_str(";\n");
    }
    for (id, net) in netlist.nets() {
        if let NetDriver::Const(v) = net.driver() {
            out.push_str("  assign ");
            out.push_str(&net_names[id.index()]);
            out.push_str(if v { " = 1'b1;\n" } else { " = 1'b0;\n" });
        }
    }
    out.push('\n');

    for (_, gate) in netlist.gates() {
        out.push_str("  ");
        out.push_str(netlist.library().cell(gate.cell()).name());
        out.push(' ');
        out.push_str(&namer.fresh(gate.name()));
        out.push_str(" (");
        for (pin, n) in gate.inputs().iter().enumerate() {
            out.push('.');
            out.push(input_pin_name(pin));
            out.push('(');
            out.push_str(&net_names[n.index()]);
            out.push_str("), ");
        }
        out.push_str(".Y(");
        out.push_str(&net_names[gate.output().index()]);
        out.push_str("));\n");
    }
    out.push_str("endmodule\n");
    out
}

/// Writes the names of `ids` separated by `", "`.
fn push_list(out: &mut String, names: &[Cow<'_, str>], ids: impl Iterator<Item = NetId>) {
    for (k, id) in ids.enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        out.push_str(&names[id.index()]);
    }
}

/// Whether `name` is already a legal simple identifier under [`sanitize`].
fn is_simple_identifier(name: &str) -> bool {
    let bytes = name.as_bytes();
    bytes.first().is_some_and(|b| !b.is_ascii_digit())
        && bytes
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || b == b'_')
}

/// `name` as a legal simple identifier: every other character becomes `_`,
/// and a leading digit or empty name gets an `n` prefix. Borrows `name`
/// when it is already legal.
fn sanitize(name: &str) -> Cow<'_, str> {
    if is_simple_identifier(name) {
        return Cow::Borrowed(name);
    }
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.is_empty() || s.starts_with(|c: char| c.is_ascii_digit()) {
        s.insert(0, 'n');
    }
    Cow::Owned(s)
}

/// Hands out unique sanitized names; a name that is already legal and
/// unused is borrowed, not copied.
#[derive(Default)]
struct Namer<'n> {
    /// Every name handed out or reserved, with the last numeric suffix
    /// tried for it.
    used: HashMap<Cow<'n, str>, usize>,
}

impl<'n> Namer<'n> {
    fn with_capacity(capacity: usize) -> Self {
        Namer {
            used: HashMap::with_capacity(capacity),
        }
    }

    fn reserve(&mut self, name: &'n str) {
        self.used.insert(Cow::Borrowed(name), 0);
    }

    fn fresh(&mut self, want: &'n str) -> Cow<'n, str> {
        let base = sanitize(want);
        if let Entry::Vacant(slot) = self.used.entry(base.clone()) {
            slot.insert(0);
            return base;
        }
        loop {
            let counter = self.used.get_mut(base.as_ref()).expect("base present");
            *counter += 1;
            let candidate = format!("{base}_{counter}");
            if !self.used.contains_key(candidate.as_str()) {
                self.used.insert(Cow::Owned(candidate.clone()), 0);
                return Cow::Owned(candidate);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_verilog;
    use odcfp_logic::PrimitiveFn;
    use odcfp_netlist::CellLibrary;

    fn sample() -> Netlist {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("sample", lib);
        let a = n.add_primary_input("a");
        let b = n.add_primary_input("b[0]"); // hostile name
        let one = n.add_constant("tie1", true);
        let nand2 = n.library().cell_for(PrimitiveFn::Nand, 2).unwrap();
        let and3 = n.library().cell_for(PrimitiveFn::And, 3).unwrap();
        let g1 = n.add_gate("u1", nand2, &[a, b]);
        let g2 = n.add_gate("u 2", and3, &[n.gate_output(g1), b, one]);
        n.set_primary_output(n.gate_output(g2));
        n
    }

    #[test]
    fn roundtrip_functionality() {
        let n = sample();
        let text = write_verilog(&n);
        let back = parse_verilog(&text, n.library().clone()).unwrap();
        assert_eq!(back.num_gates(), n.num_gates());
        for i in 0..4usize {
            let bits: Vec<bool> = (0..2).map(|v| (i >> v) & 1 == 1).collect();
            assert_eq!(back.eval(&bits), n.eval(&bits), "assignment {i}");
        }
    }

    #[test]
    fn hostile_names_sanitized_and_unique() {
        let text = write_verilog(&sample());
        assert!(text.contains("b_0_"), "bracketed name sanitized: {text}");
        assert!(!text.contains('['));
        assert!(text.contains("assign"));
    }

    #[test]
    fn sanitize_rules() {
        assert_eq!(sanitize("a[3]"), "a_3_");
        assert_eq!(sanitize("3x"), "n3x");
        assert_eq!(sanitize(""), "n");
    }

    #[test]
    fn namer_uniquifies() {
        let mut n = Namer::default();
        assert_eq!(n.fresh("x"), "x");
        assert_eq!(n.fresh("x"), "x_1");
        assert_eq!(n.fresh("x"), "x_2");
        n.reserve("y");
        assert_eq!(n.fresh("y"), "y_1");
    }

    #[test]
    fn keywords_avoided() {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("kw", lib);
        let w = n.add_primary_input("wire");
        n.set_primary_output(w);
        let text = write_verilog(&n);
        assert!(text.contains("input wire_1;"), "{text}");
    }
}

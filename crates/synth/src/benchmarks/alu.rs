//! ALU-class and priority-controller generators (C880/C3540/dalu/C432).

use std::sync::Arc;

use odcfp_netlist::{CellLibrary, NetId, Netlist};

use crate::builder::CircuitBuilder;

/// Parameters of [`alu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AluParams {
    /// Datapath width in bits.
    pub width: usize,
    /// Number of operation-select inputs (the ALU offers `2^select_bits`
    /// operations).
    pub select_bits: usize,
    /// Number of cascaded ALU stages (a second stage models
    /// accumulator-style dedicated ALUs).
    pub stages: usize,
    /// Append a BCD correction stage per nibble (the C3540 flavour).
    pub bcd: bool,
    /// Emit carry, zero and parity flags.
    pub flags: bool,
}

impl AluParams {
    /// The 8-bit ALU profile of C880 (paper: 255 gates).
    pub fn c880_like() -> Self {
        AluParams {
            width: 8,
            select_bits: 3,
            stages: 1,
            bcd: false,
            flags: true,
        }
    }

    /// The 8-bit ALU-with-BCD profile of C3540 (paper: 851 gates).
    pub fn c3540_like() -> Self {
        AluParams {
            width: 12,
            select_bits: 3,
            stages: 2,
            bcd: true,
            flags: true,
        }
    }

    /// The dedicated-ALU profile of dalu (paper: 836 gates).
    pub fn dalu_like() -> Self {
        AluParams {
            width: 13,
            select_bits: 3,
            stages: 2,
            bcd: false,
            flags: true,
        }
    }
}

/// One ALU stage over operand vectors `a` and `b`: per-bit logic units, a
/// ripple adder, and a per-bit mux tree steered by `sel`.
fn alu_stage(
    b: &mut CircuitBuilder,
    a_bits: &[NetId],
    b_bits: &[NetId],
    sel: &[NetId],
    cin: NetId,
) -> (Vec<NetId>, NetId) {
    use odcfp_logic::PrimitiveFn as F;
    let width = a_bits.len();
    let num_ops = 1usize << sel.len();
    // Adder chain.
    let mut carry = cin;
    let mut sums = Vec::with_capacity(width);
    for i in 0..width {
        let (s, c) = b.full_adder(a_bits[i], b_bits[i], carry);
        sums.push(s);
        carry = c;
    }
    let mut outs = Vec::with_capacity(width);
    for i in 0..width {
        // Operation table; truncated to num_ops.
        let mut ops: Vec<NetId> = Vec::with_capacity(num_ops);
        ops.push(sums[i]);
        ops.push(b.gate(F::And, &[a_bits[i], b_bits[i]]));
        ops.push(b.gate(F::Or, &[a_bits[i], b_bits[i]]));
        ops.push(b.gate(F::Xor, &[a_bits[i], b_bits[i]]));
        if num_ops > 4 {
            ops.push(b.gate(F::Nor, &[a_bits[i], b_bits[i]]));
            ops.push(b.gate(F::Nand, &[a_bits[i], b_bits[i]]));
            // Shift left (bit 0 pulls in the carry-in as a serial input).
            ops.push(if i == 0 { cin } else { a_bits[i - 1] });
            ops.push(b_bits[i]);
        }
        ops.truncate(num_ops);
        // Mux tree over the select bits.
        let mut level = ops;
        for &s in sel.iter().take(usize::BITS as usize) {
            if level.len() == 1 {
                break;
            }
            let mut next = Vec::with_capacity(level.len() / 2);
            for pair in level.chunks(2) {
                if pair.len() == 2 {
                    next.push(b.mux2(s, pair[0], pair[1]));
                } else {
                    next.push(pair[0]);
                }
            }
            level = next;
        }
        outs.push(level[0]);
    }
    (outs, carry)
}

/// A BCD correction stage: for each 4-bit nibble, add 6 when the nibble
/// exceeds 9 (the decimal-adjust step of a BCD ALU).
fn bcd_correct(b: &mut CircuitBuilder, bits: &[NetId]) -> Vec<NetId> {
    let mut out = Vec::with_capacity(bits.len());
    for nibble in bits.chunks(4) {
        if nibble.len() < 4 {
            out.extend_from_slice(nibble);
            continue;
        }
        // gt9 = n3 & (n2 | n1).
        let t = b.or2(nibble[2], nibble[1]);
        let gt9 = b.and2(nibble[3], t);
        // n + 6 = n + 0b0110 (ripple through bits 1..3).
        let zero = b.constant(false);
        let (s1, c1) = b.full_adder(nibble[1], gt9, zero);
        let (s2, c2) = b.full_adder(nibble[2], gt9, c1);
        let (s3, _c3) = b.full_adder(nibble[3], zero, c2);
        out.push(nibble[0]);
        for (raw, adj) in [(nibble[1], s1), (nibble[2], s2), (nibble[3], s3)] {
            let chosen = b.mux2(gt9, raw, adj);
            out.push(chosen);
        }
    }
    out
}

/// Generates an ALU benchmark: see [`AluParams`].
///
/// Inputs: `a0..`, `b0..`, `s0..` (select), `cin`. Outputs: the result word
/// plus flags when configured.
pub fn alu(library: Arc<CellLibrary>, p: AluParams) -> Netlist {
    assert!(p.width >= 2 && p.select_bits >= 1 && p.stages >= 1);
    let mut b = CircuitBuilder::new("alu", library);
    let a_bits = b.inputs("a", p.width);
    let b_bits = b.inputs("b", p.width);
    let sel = b.inputs("s", p.select_bits);
    let cin = b.input("cin");

    let (mut result, mut carry) = alu_stage(&mut b, &a_bits, &b_bits, &sel, cin);
    for _ in 1..p.stages {
        let (r, c) = alu_stage(&mut b, &result, &b_bits, &sel, carry);
        result = r;
        carry = c;
    }
    if p.bcd {
        result = bcd_correct(&mut b, &result);
    }
    for &bit in &result {
        b.output(bit);
    }
    if p.flags {
        b.output(carry);
        // zero = NOR over the result word (tree of ORs + final NOR).
        let or_all = b.tree(odcfp_logic::PrimitiveFn::Or, &result);
        let zero = b.not(or_all);
        b.output(zero);
        let parity = b.xor_tree(&result);
        b.output(parity);
    }
    b.finish()
}

/// Generates a C432-class priority interrupt controller: `channels` request
/// lines split into `groups` groups with in-group and cross-group priority,
/// per-group enable inputs, an encoded grant index and a valid flag.
pub fn priority_controller(library: Arc<CellLibrary>, channels: usize, groups: usize) -> Netlist {
    assert!(groups >= 1 && channels >= groups && channels.is_multiple_of(groups));
    let per_group = channels / groups;
    let mut b = CircuitBuilder::new("prio", library);
    let requests = b.inputs("req", channels);
    let enables = b.inputs("en", groups * 3);

    // In-group priority: grant_i = req_i & !(req_0 | .. | req_{i-1}).
    let mut grants: Vec<NetId> = Vec::with_capacity(channels);
    let mut group_any: Vec<NetId> = Vec::with_capacity(groups);
    for g in 0..groups {
        let base = g * per_group;
        let mut prefix: Option<NetId> = None;
        for i in 0..per_group {
            let req = requests[base + i];
            let grant = match prefix {
                None => req,
                Some(p) => {
                    let np = b.not(p);
                    b.and2(req, np)
                }
            };
            grants.push(grant);
            prefix = Some(match prefix {
                None => req,
                Some(p) => b.or2(p, req),
            });
        }
        // Group enable: majority of its three enable pins.
        let e = &enables[g * 3..g * 3 + 3];
        let m1 = b.and2(e[0], e[1]);
        let m2 = b.and2(e[0], e[2]);
        let m3 = b.and2(e[1], e[2]);
        let t = b.or2(m1, m2);
        let en = b.or2(t, m3);
        let any = b.and2(prefix.expect("per_group >= 1"), en);
        group_any.push(any);
    }

    // Cross-group priority: group g wins iff no lower-indexed group is any.
    let mut group_sel: Vec<NetId> = Vec::with_capacity(groups);
    let mut prefix: Option<NetId> = None;
    for &any in &group_any {
        let sel = match prefix {
            None => any,
            Some(p) => {
                let np = b.not(p);
                b.and2(any, np)
            }
        };
        group_sel.push(sel);
        prefix = Some(match prefix {
            None => any,
            Some(p) => b.or2(p, any),
        });
    }

    // Final per-channel grant gated by its group's selection.
    let final_grants: Vec<NetId> = grants
        .iter()
        .enumerate()
        .map(|(i, &gr)| b.and2(gr, group_sel[i / per_group]))
        .collect();

    // Encoded grant index: bit k = OR of grants whose index has bit k set.
    let code_bits = usize::BITS as usize - (channels - 1).leading_zeros() as usize;
    for k in 0..code_bits {
        let members: Vec<NetId> = final_grants
            .iter()
            .enumerate()
            .filter(|(i, _)| (i >> k) & 1 == 1)
            .map(|(_, &n)| n)
            .collect();
        let bit = b.tree(odcfp_logic::PrimitiveFn::Or, &members);
        b.output(bit);
    }
    let valid = b.tree(odcfp_logic::PrimitiveFn::Or, &group_sel);
    b.output(valid);
    // A daisy-chain acknowledge parity line (keeps the output count at the
    // original's seven and adds the XOR column the real controller has).
    let parity = b.xor_tree(&final_grants);
    b.output(parity);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_bits(n: &Netlist, bits: &[bool]) -> Vec<bool> {
        n.eval(bits)
    }

    #[test]
    fn alu_operations_correct() {
        let p = AluParams {
            width: 4,
            select_bits: 2,
            stages: 1,
            bcd: false,
            flags: true,
        };
        let n = alu(CellLibrary::standard(), p);
        // inputs: a0..3, b0..3, s0..1, cin
        let run = |a: u64, bv: u64, op: usize| -> (u64, bool) {
            let mut bits = Vec::new();
            for i in 0..4 {
                bits.push((a >> i) & 1 == 1);
            }
            for i in 0..4 {
                bits.push((bv >> i) & 1 == 1);
            }
            bits.push(op & 1 == 1);
            bits.push(op & 2 == 2);
            bits.push(false); // cin
            let out = eval_bits(&n, &bits);
            let word: u64 = out[..4]
                .iter()
                .enumerate()
                .map(|(i, &v)| (v as u64) << i)
                .sum();
            (word, out[4]) // (result, carry)
        };
        for a in [0u64, 3, 9, 15] {
            for bv in [0u64, 5, 10, 15] {
                assert_eq!(run(a, bv, 0).0, (a + bv) & 0xF, "add {a} {bv}");
                assert_eq!(run(a, bv, 0).1, a + bv > 15, "carry {a} {bv}");
                assert_eq!(run(a, bv, 1).0, a & bv, "and");
                assert_eq!(run(a, bv, 2).0, a | bv, "or");
                assert_eq!(run(a, bv, 3).0, a ^ bv, "xor");
            }
        }
    }

    #[test]
    fn alu_zero_flag() {
        let p = AluParams {
            width: 4,
            select_bits: 2,
            stages: 1,
            bcd: false,
            flags: true,
        };
        let n = alu(CellLibrary::standard(), p);
        // a=0, b=0, op=and -> result 0, zero flag set.
        let mut bits = vec![false; 4 + 4];
        bits.push(true); // s0 -> op 1 = and
        bits.push(false);
        bits.push(false);
        let out = n.eval(&bits);
        assert!(
            out[5],
            "zero flag expected (output order: word, carry, zero, parity)"
        );
    }

    #[test]
    fn bcd_stage_adjusts() {
        // Isolate bcd_correct through a tiny ALU: width 4, add, a=7, b=6
        // -> raw 13 -> BCD 0b0011 with the gt9 mux taking the adjusted path.
        let p = AluParams {
            width: 4,
            select_bits: 1,
            stages: 1,
            bcd: true,
            flags: false,
        };
        let n = alu(CellLibrary::standard(), p);
        let mut bits = Vec::new();
        for i in 0..4 {
            bits.push((7u64 >> i) & 1 == 1);
        }
        for i in 0..4 {
            bits.push((6u64 >> i) & 1 == 1);
        }
        bits.push(false); // s0 = add
        bits.push(false); // cin
        let out = n.eval(&bits);
        let word: u64 = out[..4]
            .iter()
            .enumerate()
            .map(|(i, &v)| (v as u64) << i)
            .sum();
        assert_eq!(word, 3, "13 decimal-adjusted is 3 (plus dropped carry)");
    }

    #[test]
    fn priority_controller_grants_highest_priority() {
        let n = priority_controller(CellLibrary::standard(), 9, 3);
        let channels = 9;
        // All enables on (majority needs 2 of 3).
        let run = |reqs: &[usize]| -> (u64, bool) {
            let mut bits = vec![false; channels];
            for &r in reqs {
                bits[r] = true;
            }
            bits.extend(std::iter::repeat_n(true, 9)); // enables
            let out = n.eval(&bits);
            // Outputs: code bits, valid, parity.
            let code: u64 = out[..out.len() - 2]
                .iter()
                .enumerate()
                .map(|(i, &v)| (v as u64) << i)
                .sum();
            (code, out[out.len() - 2])
        };
        assert_eq!(run(&[4]), (4, true));
        assert_eq!(run(&[7, 4]), (4, true), "lower channel wins");
        assert_eq!(run(&[8, 2, 5]), (2, true));
        assert_eq!(run(&[]), (0, false), "no request, no valid");
    }

    #[test]
    fn disabled_group_yields_to_next() {
        let n = priority_controller(CellLibrary::standard(), 9, 3);
        // Request on channel 1 (group 0) and channel 6 (group 2), but group
        // 0's enables are off.
        let mut bits = vec![false; 9];
        bits[1] = true;
        bits[6] = true;
        let mut enables = vec![true; 9];
        enables[0] = false;
        enables[1] = false;
        enables[2] = false;
        bits.extend(enables);
        let out = n.eval(&bits);
        let code: u64 = out[..out.len() - 2]
            .iter()
            .enumerate()
            .map(|(i, &v)| (v as u64) << i)
            .sum();
        assert_eq!(code, 6);
        assert!(out[out.len() - 2], "valid flag");
    }

    #[test]
    fn benchmark_sizes() {
        let lib = CellLibrary::standard();
        let c880 = alu(lib.clone(), AluParams::c880_like());
        let c432 = priority_controller(lib, 27, 3);
        // Calibration corridors around the paper's 255 / 166.
        let g880 = c880.num_gates();
        let g432 = c432.num_gates();
        assert!((150..450).contains(&g880), "c880-like: {g880}");
        assert!((100..280).contains(&g432), "c432-like: {g432}");
    }
}

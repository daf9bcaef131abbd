//! Primitive Boolean functions realized by standard-cell library gates.

use std::fmt;
use std::str::FromStr;

use crate::TruthTable;

/// The Boolean function of a library cell, independent of arity.
///
/// The n-ary semantics are the natural ones: `And`/`Nand` over all inputs,
/// `Or`/`Nor` over all inputs, `Xor` is odd parity and `Xnor` even parity.
/// `Buf` and `Inv` are the single-input identity and complement.
///
/// Two properties of these functions drive the fingerprinting method:
///
/// * the **controlling value** ([`PrimitiveFn::controlling_value`]): a value
///   which, applied to *any one* input, fixes the output and therefore makes
///   every other input an Observability Don't Care;
/// * the **neutral value** ([`PrimitiveFn::neutral_input_value`]): a value
///   which, supplied on an *additional* input, leaves the function over the
///   original inputs unchanged — this is what lets a trigger signal be wired
///   into a gate without altering its useful behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PrimitiveFn {
    /// Single-input identity.
    Buf,
    /// Single-input complement.
    Inv,
    /// n-ary conjunction.
    And,
    /// n-ary disjunction.
    Or,
    /// Complemented conjunction.
    Nand,
    /// Complemented disjunction.
    Nor,
    /// Odd parity.
    Xor,
    /// Even parity.
    Xnor,
}

impl PrimitiveFn {
    /// All primitive functions, in a fixed order.
    pub const ALL: [PrimitiveFn; 8] = [
        PrimitiveFn::Buf,
        PrimitiveFn::Inv,
        PrimitiveFn::And,
        PrimitiveFn::Or,
        PrimitiveFn::Nand,
        PrimitiveFn::Nor,
        PrimitiveFn::Xor,
        PrimitiveFn::Xnor,
    ];

    /// True for the single-input functions `Buf` and `Inv`.
    pub fn is_single_input(self) -> bool {
        matches!(self, PrimitiveFn::Buf | PrimitiveFn::Inv)
    }

    /// The smallest legal arity: 1 for `Buf`/`Inv`, 2 otherwise.
    pub fn min_arity(self) -> usize {
        if self.is_single_input() {
            1
        } else {
            2
        }
    }

    /// Evaluates the function 64 assignments at a time (bit-parallel).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` is not a legal arity for the function.
    pub fn eval_words(self, inputs: &[u64]) -> u64 {
        assert!(
            inputs.len() >= self.min_arity(),
            "{self} needs at least {} inputs",
            self.min_arity()
        );
        match self {
            PrimitiveFn::Buf => {
                assert_eq!(inputs.len(), 1, "Buf takes exactly one input");
                inputs[0]
            }
            PrimitiveFn::Inv => {
                assert_eq!(inputs.len(), 1, "Inv takes exactly one input");
                !inputs[0]
            }
            PrimitiveFn::And => inputs.iter().fold(u64::MAX, |a, &b| a & b),
            PrimitiveFn::Or => inputs.iter().fold(0, |a, &b| a | b),
            PrimitiveFn::Nand => !inputs.iter().fold(u64::MAX, |a, &b| a & b),
            PrimitiveFn::Nor => !inputs.iter().fold(0, |a, &b| a | b),
            PrimitiveFn::Xor => inputs.iter().fold(0, |a, &b| a ^ b),
            PrimitiveFn::Xnor => !inputs.iter().fold(0, |a, &b| a ^ b),
        }
    }

    /// Evaluates the function 256 assignments at a time: the 4-lane block
    /// counterpart of [`PrimitiveFn::eval_words`]. Lanes are independent,
    /// so the loop body is branch-free and auto-vectorizes.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` is not a legal arity for the function.
    pub fn eval_blocks(self, inputs: &[crate::sim::Block]) -> crate::sim::Block {
        use crate::sim::{Block, BLOCK_LANES};
        assert!(
            inputs.len() >= self.min_arity(),
            "{self} needs at least {} inputs",
            self.min_arity()
        );
        fn fold(inputs: &[Block], init: u64, f: impl Fn(u64, u64) -> u64) -> Block {
            let mut acc = [init; BLOCK_LANES];
            for inp in inputs {
                for lane in 0..BLOCK_LANES {
                    acc[lane] = f(acc[lane], inp[lane]);
                }
            }
            acc
        }
        match self {
            PrimitiveFn::Buf => {
                assert_eq!(inputs.len(), 1, "Buf takes exactly one input");
                inputs[0]
            }
            PrimitiveFn::Inv => {
                assert_eq!(inputs.len(), 1, "Inv takes exactly one input");
                inputs[0].map(|w| !w)
            }
            PrimitiveFn::And => fold(inputs, u64::MAX, |a, b| a & b),
            PrimitiveFn::Or => fold(inputs, 0, |a, b| a | b),
            PrimitiveFn::Nand => fold(inputs, u64::MAX, |a, b| a & b).map(|w| !w),
            PrimitiveFn::Nor => fold(inputs, 0, |a, b| a | b).map(|w| !w),
            PrimitiveFn::Xor => fold(inputs, 0, |a, b| a ^ b),
            PrimitiveFn::Xnor => fold(inputs, 0, |a, b| a ^ b).map(|w| !w),
        }
    }

    /// Evaluates the function on Boolean inputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` is not a legal arity for the function.
    pub fn eval(self, inputs: &[bool]) -> bool {
        let words: Vec<u64> = inputs.iter().map(|&b| if b { 1 } else { 0 }).collect();
        self.eval_words(&words) & 1 == 1
    }

    /// The complete truth table of the `arity`-input version.
    ///
    /// # Panics
    ///
    /// Panics if `arity` is not legal for the function or exceeds
    /// [`crate::MAX_VARS`].
    pub fn truth_table(self, arity: usize) -> TruthTable {
        TruthTable::from_fn(arity, |i| {
            let bits: Vec<bool> = (0..arity).map(|v| (i >> v) & 1 == 1).collect();
            self.eval(&bits)
        })
    }

    /// The controlling input value, if the function has one.
    ///
    /// Applying the controlling value to any single input fixes the output
    /// at [`PrimitiveFn::controlled_output`] regardless of all other inputs;
    /// those other inputs then satisfy their ODC condition. `Xor`, `Xnor`,
    /// `Buf` and `Inv` have no controlling value (every input is always
    /// observable), which is exactly why the paper's Definition 1 excludes
    /// them as *primary* gates.
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            PrimitiveFn::And | PrimitiveFn::Nand => Some(false),
            PrimitiveFn::Or | PrimitiveFn::Nor => Some(true),
            _ => None,
        }
    }

    /// The output value forced when any input takes the controlling value.
    ///
    /// Returns `None` for functions without a controlling value.
    pub fn controlled_output(self) -> Option<bool> {
        match self {
            PrimitiveFn::And => Some(false),
            PrimitiveFn::Nand => Some(true),
            PrimitiveFn::Or => Some(true),
            PrimitiveFn::Nor => Some(false),
            _ => None,
        }
    }

    /// True if an `arity`-input instance has a non-zero ODC condition with
    /// respect to each input — i.e. there exist values of the other inputs
    /// that make an input unobservable (the paper's "Table I" gates).
    pub fn has_nonzero_odc(self, arity: usize) -> bool {
        arity >= 2 && self.controlling_value().is_some()
    }

    /// The value which, supplied on one *extra* input of the widened
    /// function, leaves the function of the original inputs unchanged.
    ///
    /// For the AND-plane (`And`, `Nand`) this is 1; for the OR- and
    /// XOR-planes (`Or`, `Nor`, `Xor`, `Xnor`) this is 0. `Buf` and `Inv`
    /// cannot be widened in place (they must be converted to `And`/`Nand`
    /// first) and return `None`.
    ///
    /// # Example
    ///
    /// ```
    /// use odcfp_logic::PrimitiveFn;
    ///
    /// assert_eq!(PrimitiveFn::And.neutral_input_value(), Some(true));
    /// assert_eq!(PrimitiveFn::Nor.neutral_input_value(), Some(false));
    /// assert_eq!(PrimitiveFn::Inv.neutral_input_value(), None);
    /// ```
    pub fn neutral_input_value(self) -> Option<bool> {
        match self {
            PrimitiveFn::And | PrimitiveFn::Nand => Some(true),
            PrimitiveFn::Or | PrimitiveFn::Nor | PrimitiveFn::Xor | PrimitiveFn::Xnor => {
                Some(false)
            }
            PrimitiveFn::Buf | PrimitiveFn::Inv => None,
        }
    }

    /// The widened form of the function used when a trigger input is added.
    ///
    /// `Buf` widens to `And` and `Inv` to `Nand` (with a constant-one-like
    /// neutral trigger); every other function keeps its kind at arity + 1.
    pub fn widened(self) -> PrimitiveFn {
        match self {
            PrimitiveFn::Buf => PrimitiveFn::And,
            PrimitiveFn::Inv => PrimitiveFn::Nand,
            other => other,
        }
    }

    /// True if the output is the complement of the underlying plane
    /// (`Nand`, `Nor`, `Xnor`, `Inv`).
    pub fn is_inverting(self) -> bool {
        matches!(
            self,
            PrimitiveFn::Nand | PrimitiveFn::Nor | PrimitiveFn::Xnor | PrimitiveFn::Inv
        )
    }

    /// For an AND-like or OR-like function, the value `v` such that the
    /// output equal to `f(nc, nc, ...)`-with-one-input-`x` is a *transparent*
    /// function of `x`... more precisely: given that the function's output is
    /// `o` when some input is at its controlling value `c`, this returns
    /// `(c, o)` as a pair for convenience in ODC reasoning.
    ///
    /// Returns `None` for functions without a controlling value.
    pub fn control_pair(self) -> Option<(bool, bool)> {
        Some((self.controlling_value()?, self.controlled_output()?))
    }

    /// Canonical lowercase name (`"and"`, `"nor"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            PrimitiveFn::Buf => "buf",
            PrimitiveFn::Inv => "inv",
            PrimitiveFn::And => "and",
            PrimitiveFn::Or => "or",
            PrimitiveFn::Nand => "nand",
            PrimitiveFn::Nor => "nor",
            PrimitiveFn::Xor => "xor",
            PrimitiveFn::Xnor => "xnor",
        }
    }
}

impl fmt::Display for PrimitiveFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing a [`PrimitiveFn`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePrimitiveFnError(pub String);

impl fmt::Display for ParsePrimitiveFnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown primitive function name: {:?}", self.0)
    }
}

impl std::error::Error for ParsePrimitiveFnError {}

impl FromStr for PrimitiveFn {
    type Err = ParsePrimitiveFnError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "buf" | "buff" => Ok(PrimitiveFn::Buf),
            "inv" | "not" => Ok(PrimitiveFn::Inv),
            "and" => Ok(PrimitiveFn::And),
            "or" => Ok(PrimitiveFn::Or),
            "nand" => Ok(PrimitiveFn::Nand),
            "nor" => Ok(PrimitiveFn::Nor),
            "xor" => Ok(PrimitiveFn::Xor),
            "xnor" => Ok(PrimitiveFn::Xnor),
            other => Err(ParsePrimitiveFnError(other.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_matches_truth_tables() {
        for f in PrimitiveFn::ALL {
            let arities: &[usize] = if f.is_single_input() {
                &[1]
            } else {
                &[2, 3, 4]
            };
            for &n in arities {
                let tt = f.truth_table(n);
                for i in 0..(1usize << n) {
                    let bits: Vec<bool> = (0..n).map(|v| (i >> v) & 1 == 1).collect();
                    assert_eq!(tt.eval(i), f.eval(&bits), "{f} arity {n} row {i}");
                }
            }
        }
    }

    #[test]
    fn word_eval_matches_scalar_eval() {
        // Pack all 16 assignments of a 4-input function into one word per pin.
        for f in [
            PrimitiveFn::And,
            PrimitiveFn::Or,
            PrimitiveFn::Nand,
            PrimitiveFn::Nor,
            PrimitiveFn::Xor,
            PrimitiveFn::Xnor,
        ] {
            let mut pins = [0u64; 4];
            for i in 0..16 {
                for (v, pin) in pins.iter_mut().enumerate() {
                    if (i >> v) & 1 == 1 {
                        *pin |= 1 << i;
                    }
                }
            }
            let out = f.eval_words(&pins);
            for i in 0..16 {
                let bits: Vec<bool> = (0..4).map(|v| (i >> v) & 1 == 1).collect();
                assert_eq!((out >> i) & 1 == 1, f.eval(&bits), "{f} row {i}");
            }
        }
    }

    #[test]
    fn controlling_values_control() {
        for f in PrimitiveFn::ALL {
            if let Some(c) = f.controlling_value() {
                let o = f.controlled_output().unwrap();
                for n in 2..=4 {
                    for i in 0..(1usize << n) {
                        for pin in 0..n {
                            let mut bits: Vec<bool> = (0..n).map(|v| (i >> v) & 1 == 1).collect();
                            bits[pin] = c;
                            assert_eq!(f.eval(&bits), o, "{f} pin {pin} row {i}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn neutral_value_is_neutral() {
        for f in [
            PrimitiveFn::And,
            PrimitiveFn::Or,
            PrimitiveFn::Nand,
            PrimitiveFn::Nor,
            PrimitiveFn::Xor,
            PrimitiveFn::Xnor,
        ] {
            let nv = f.neutral_input_value().unwrap();
            for n in 2..=3 {
                for i in 0..(1usize << n) {
                    let bits: Vec<bool> = (0..n).map(|v| (i >> v) & 1 == 1).collect();
                    let mut wide = bits.clone();
                    wide.push(nv);
                    assert_eq!(f.eval(&bits), f.eval(&wide), "{f} arity {n} row {i}");
                }
            }
        }
    }

    #[test]
    fn widening_buf_inv_preserves_function() {
        // Buf(a) == And(a, 1) and Inv(a) == Nand(a, 1).
        for a in [false, true] {
            assert_eq!(
                PrimitiveFn::Buf.eval(&[a]),
                PrimitiveFn::Buf.widened().eval(&[a, true])
            );
            assert_eq!(
                PrimitiveFn::Inv.eval(&[a]),
                PrimitiveFn::Inv.widened().eval(&[a, true])
            );
        }
    }

    #[test]
    fn nonzero_odc_table() {
        // The paper's Table I: AND/OR/NAND/NOR have exploitable ODCs,
        // XOR/XNOR do not, BUF/INV are "single input gates".
        assert!(PrimitiveFn::And.has_nonzero_odc(2));
        assert!(PrimitiveFn::Nor.has_nonzero_odc(4));
        assert!(!PrimitiveFn::Xor.has_nonzero_odc(2));
        assert!(!PrimitiveFn::Xnor.has_nonzero_odc(3));
        assert!(!PrimitiveFn::Inv.has_nonzero_odc(1));
        assert!(!PrimitiveFn::And.has_nonzero_odc(1));
    }

    #[test]
    fn odc_from_truth_table_matches_controlling_reasoning() {
        // For And(x0, x1, x2): ODC of x0 == (x1' | x2').
        let f = PrimitiveFn::And.truth_table(3);
        let odc0 = f.odc(0);
        let expect = &!&TruthTable::var(1, 3) | &!&TruthTable::var(2, 3);
        assert_eq!(odc0, expect);
        // For Nor(x0, x1): ODC of x0 == x1.
        let g = PrimitiveFn::Nor.truth_table(2);
        assert_eq!(g.odc(0), TruthTable::var(1, 2));
    }

    #[test]
    fn parse_roundtrip() {
        for f in PrimitiveFn::ALL {
            assert_eq!(f.name().parse::<PrimitiveFn>().unwrap(), f);
            assert_eq!(f.name().to_uppercase().parse::<PrimitiveFn>().unwrap(), f);
        }
        assert!("mux".parse::<PrimitiveFn>().is_err());
    }
}

//! Cubes and sum-of-products covers in the style of BLIF `.names` bodies.

use std::fmt;

use crate::TruthTable;

/// A single literal position inside a [`Cube`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CubeLit {
    /// The input must be 0 (`0` in BLIF).
    Zero,
    /// The input must be 1 (`1` in BLIF).
    One,
    /// The input is not tested (`-` in BLIF).
    DontCare,
}

impl CubeLit {
    fn matches_word(self, word: u64) -> u64 {
        match self {
            CubeLit::Zero => !word,
            CubeLit::One => word,
            CubeLit::DontCare => u64::MAX,
        }
    }

    fn to_char(self) -> char {
        match self {
            CubeLit::Zero => '0',
            CubeLit::One => '1',
            CubeLit::DontCare => '-',
        }
    }
}

/// Error produced when a cube or cover row fails to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCubeError {
    /// The offending character.
    pub found: char,
    /// Its position within the row.
    pub position: usize,
}

impl fmt::Display for ParseCubeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid cube character {:?} at position {}",
            self.found, self.position
        )
    }
}

impl std::error::Error for ParseCubeError {}

/// A product term over an ordered set of inputs.
///
/// # Example
///
/// ```
/// use odcfp_logic::Cube;
///
/// let c: Cube = "1-0".parse()?;
/// assert!(c.eval(&[true, true, false]));
/// assert!(c.eval(&[true, false, false]));
/// assert!(!c.eval(&[true, true, true]));
/// # Ok::<(), odcfp_logic::ParseCubeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cube {
    lits: Vec<CubeLit>,
}

impl Cube {
    /// Creates a cube from its literals.
    pub fn new(lits: Vec<CubeLit>) -> Self {
        Cube { lits }
    }

    /// The all-don't-care cube of the given width (the constant-one product).
    pub fn tautology(width: usize) -> Self {
        Cube {
            lits: vec![CubeLit::DontCare; width],
        }
    }

    /// The number of input positions.
    pub fn width(&self) -> usize {
        self.lits.len()
    }

    /// The literals of this cube.
    pub fn lits(&self) -> &[CubeLit] {
        &self.lits
    }

    /// The number of tested (non-don't-care) positions.
    pub fn num_literals(&self) -> usize {
        self.lits
            .iter()
            .filter(|l| !matches!(l, CubeLit::DontCare))
            .count()
    }

    /// Evaluates the cube on Boolean inputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.width()`.
    pub fn eval(&self, inputs: &[bool]) -> bool {
        assert_eq!(inputs.len(), self.width(), "cube width mismatch");
        self.lits.iter().zip(inputs).all(|(l, &b)| match l {
            CubeLit::Zero => !b,
            CubeLit::One => b,
            CubeLit::DontCare => true,
        })
    }

    /// Evaluates the cube on 64 assignments at once.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.width()`.
    pub fn eval_words(&self, inputs: &[u64]) -> u64 {
        assert_eq!(inputs.len(), self.width(), "cube width mismatch");
        self.lits
            .iter()
            .zip(inputs)
            .fold(u64::MAX, |acc, (l, &w)| acc & l.matches_word(w))
    }
}

impl std::str::FromStr for Cube {
    type Err = ParseCubeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut lits = Vec::with_capacity(s.len());
        for (position, ch) in s.chars().enumerate() {
            lits.push(match ch {
                '0' => CubeLit::Zero,
                '1' => CubeLit::One,
                '-' | '~' | '2' => CubeLit::DontCare,
                found => return Err(ParseCubeError { found, position }),
            });
        }
        Ok(Cube { lits })
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for l in &self.lits {
            write!(f, "{}", l.to_char())?;
        }
        Ok(())
    }
}

/// A sum-of-products cover: the function is `output_value` whenever any cube
/// matches, and `!output_value` otherwise (BLIF on-set/off-set semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sop {
    num_inputs: usize,
    cubes: Vec<Cube>,
    output_value: bool,
}

impl Sop {
    /// Creates a cover from cubes.
    ///
    /// `output_value = true` means the cubes describe the on-set (the common
    /// case); `false` means they describe the off-set.
    ///
    /// # Panics
    ///
    /// Panics if any cube's width differs from `num_inputs`.
    pub fn new(num_inputs: usize, cubes: Vec<Cube>, output_value: bool) -> Self {
        for c in &cubes {
            assert_eq!(c.width(), num_inputs, "cube width mismatch");
        }
        Sop {
            num_inputs,
            cubes,
            output_value,
        }
    }

    /// The constant function with no cubes: evaluates to `!output_value`
    /// everywhere. A BLIF `.names` with no rows is constant 0.
    pub fn constant(num_inputs: usize, value: bool) -> Self {
        if value {
            // Constant one: a single tautology cube in the on-set.
            Sop::new(num_inputs, vec![Cube::tautology(num_inputs)], true)
        } else {
            Sop::new(num_inputs, Vec::new(), true)
        }
    }

    /// The number of inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// The cubes of the cover.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Whether the cubes describe the on-set (`true`) or off-set (`false`).
    pub fn output_value(&self) -> bool {
        self.output_value
    }

    /// Evaluates the cover on Boolean inputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn eval(&self, inputs: &[bool]) -> bool {
        let hit = self.cubes.iter().any(|c| c.eval(inputs));
        hit == self.output_value
    }

    /// Evaluates the cover on 64 assignments at once.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn eval_words(&self, inputs: &[u64]) -> u64 {
        let hit = self
            .cubes
            .iter()
            .fold(0u64, |acc, c| acc | c.eval_words(inputs));
        if self.output_value {
            hit
        } else {
            !hit
        }
    }

    /// The complete truth table of the cover.
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs >` [`crate::MAX_VARS`].
    pub fn truth_table(&self) -> TruthTable {
        TruthTable::from_fn(self.num_inputs, |i| {
            let bits: Vec<bool> = (0..self.num_inputs).map(|v| (i >> v) & 1 == 1).collect();
            self.eval(&bits)
        })
    }

    /// The total number of cube rows.
    pub fn num_cubes(&self) -> usize {
        self.cubes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_parse_and_display_roundtrip() {
        let c: Cube = "10-1".parse().unwrap();
        assert_eq!(c.to_string(), "10-1");
        assert_eq!(c.width(), 4);
        assert_eq!(c.num_literals(), 3);
        let err = "10x".parse::<Cube>().unwrap_err();
        assert_eq!(err.position, 2);
        assert_eq!(err.found, 'x');
    }

    #[test]
    fn cube_eval_scalar_and_words_agree() {
        let c: Cube = "1-0".parse().unwrap();
        let mut pins = [0u64; 3];
        for i in 0..8usize {
            for (v, p) in pins.iter_mut().enumerate() {
                if (i >> v) & 1 == 1 {
                    *p |= 1 << i;
                }
            }
        }
        let words = c.eval_words(&pins);
        for i in 0..8usize {
            let bits: Vec<bool> = (0..3).map(|v| (i >> v) & 1 == 1).collect();
            assert_eq!((words >> i) & 1 == 1, c.eval(&bits), "row {i}");
        }
    }

    #[test]
    fn sop_onset_semantics() {
        // f = a'b + c (three inputs a=0, b=1, c=2).
        let sop = Sop::new(
            3,
            vec!["01-".parse().unwrap(), "--1".parse().unwrap()],
            true,
        );
        assert!(sop.eval(&[false, true, false]));
        assert!(sop.eval(&[true, true, true]));
        assert!(!sop.eval(&[true, true, false]));
        let tt = sop.truth_table();
        assert_eq!(tt.count_ones(), 5);
    }

    #[test]
    fn sop_offset_semantics() {
        // Cubes describe when the output is 0: f = !(a & b).
        let sop = Sop::new(2, vec!["11".parse().unwrap()], false);
        assert!(sop.eval(&[false, true]));
        assert!(!sop.eval(&[true, true]));
        assert_eq!(sop.truth_table(), crate::PrimitiveFn::Nand.truth_table(2));
    }

    #[test]
    fn empty_cover_is_constant() {
        let zero = Sop::constant(2, false);
        let one = Sop::constant(2, true);
        assert!(zero.truth_table().is_zero());
        assert!(one.truth_table().is_one());
    }

    #[test]
    fn accessors() {
        let c = Cube::tautology(3);
        assert_eq!(c.num_literals(), 0);
        assert_eq!(c.lits().len(), 3);
        assert_eq!(c.to_string(), "---");
        let sop = Sop::new(2, vec!["11".parse().unwrap()], true);
        assert_eq!(sop.num_inputs(), 2);
        assert_eq!(sop.num_cubes(), 1);
        assert!(sop.output_value());
        assert_eq!(sop.cubes().len(), 1);
        let err = ParseCubeError {
            found: 'z',
            position: 4,
        };
        assert!(err.to_string().contains("'z'"));
    }

    #[test]
    fn sop_words_match_truth_table() {
        let sop = Sop::new(
            4,
            vec![
                "1--0".parse().unwrap(),
                "0110".parse().unwrap(),
                "---1".parse().unwrap(),
            ],
            true,
        );
        let tt = sop.truth_table();
        let mut pins = [0u64; 4];
        for i in 0..16usize {
            for (v, p) in pins.iter_mut().enumerate() {
                if (i >> v) & 1 == 1 {
                    *p |= 1 << i;
                }
            }
        }
        let w = sop.eval_words(&pins);
        for i in 0..16usize {
            assert_eq!((w >> i) & 1 == 1, tt.eval(i));
        }
    }
}

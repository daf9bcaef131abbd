//! Standard-cell library: the set of gates a netlist may instantiate,
//! together with the area/delay/power characterization the analysis crate
//! uses.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use odcfp_logic::PrimitiveFn;

use crate::CellId;

/// One library cell: a [`PrimitiveFn`] at a fixed arity with physical
/// characterization.
///
/// The characterization mirrors the MCNC `genlib` style the paper's flow
/// (ABC + standard library) consumed: an area in λ²-like units, an intrinsic
/// propagation delay in ns-like units, a per-fanout load delay slope, and an
/// input capacitance used by the switching-activity power model.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    name: String,
    function: PrimitiveFn,
    arity: usize,
    area: f64,
    intrinsic_delay: f64,
    load_delay: f64,
    input_cap: f64,
}

impl Cell {
    /// Creates a cell description.
    ///
    /// # Panics
    ///
    /// Panics if `arity` is illegal for `function` (e.g. a 3-input inverter)
    /// or any physical quantity is negative.
    pub fn new(
        name: impl Into<String>,
        function: PrimitiveFn,
        arity: usize,
        area: f64,
        intrinsic_delay: f64,
        load_delay: f64,
        input_cap: f64,
    ) -> Self {
        if function.is_single_input() {
            assert_eq!(arity, 1, "{function} must have exactly one input");
        } else {
            assert!(arity >= 2, "{function} needs at least two inputs");
        }
        assert!(
            area >= 0.0 && intrinsic_delay >= 0.0 && load_delay >= 0.0 && input_cap >= 0.0,
            "physical quantities must be non-negative"
        );
        Cell {
            name: name.into(),
            function,
            arity,
            area,
            intrinsic_delay,
            load_delay,
            input_cap,
        }
    }

    /// The cell's library name, e.g. `"NAND3"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The Boolean function the cell realizes.
    pub fn function(&self) -> PrimitiveFn {
        self.function
    }

    /// The number of input pins.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Cell area in λ²-like units.
    pub fn area(&self) -> f64 {
        self.area
    }

    /// Intrinsic propagation delay (zero-load), ns-like units.
    pub fn intrinsic_delay(&self) -> f64 {
        self.intrinsic_delay
    }

    /// Additional delay per fanout sink.
    pub fn load_delay(&self) -> f64 {
        self.load_delay
    }

    /// Input pin capacitance, in unit-inverter loads.
    pub fn input_cap(&self) -> f64 {
        self.input_cap
    }

    /// The delay of this cell when driving `fanout` sinks.
    pub fn delay(&self, fanout: usize) -> f64 {
        self.intrinsic_delay + self.load_delay * fanout as f64
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}{}, area {}, delay {})",
            self.name, self.function, self.arity, self.area, self.intrinsic_delay
        )
    }
}

/// An immutable collection of [`Cell`]s indexed by `(function, arity)`.
///
/// Libraries are shared between netlists via [`Arc`], so cloning a netlist
/// (e.g. to produce many fingerprinted copies) never duplicates the library.
///
/// # Example
///
/// ```
/// use odcfp_netlist::CellLibrary;
/// use odcfp_logic::PrimitiveFn;
///
/// let lib = CellLibrary::standard();
/// let nand3 = lib.cell_for(PrimitiveFn::Nand, 3).expect("NAND3 exists");
/// assert_eq!(lib.cell(nand3).name(), "NAND3");
/// assert!(lib.cell_for(PrimitiveFn::Xor, 4).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct CellLibrary {
    name: String,
    cells: Vec<Cell>,
    by_fn_arity: HashMap<(PrimitiveFn, usize), CellId>,
}

impl CellLibrary {
    /// Creates an empty library.
    pub fn empty(name: impl Into<String>) -> Self {
        CellLibrary {
            name: name.into(),
            cells: Vec::new(),
            by_fn_arity: HashMap::new(),
        }
    }

    /// The default standard-cell library used throughout the workspace.
    ///
    /// Functions and relative sizes follow the MCNC `genlib` tradition
    /// (unit-ish inverter of area 928): INV/BUF, NAND/NOR/AND/OR at arities
    /// 2–4, and 2-input XOR/XNOR. NAND/NOR are the fast compact cells;
    /// AND/OR cost an extra stage; XORs are big and slow. These are the
    /// "gates in our library" the paper's Tables I/II refer to.
    pub fn standard() -> Arc<Self> {
        let mut lib = CellLibrary::empty("odcfp-std");
        let mut add = |name: &str, f: PrimitiveFn, n: usize, area: f64, d: f64| {
            // Load slope and input cap scale gently with drive/size.
            lib.push(Cell::new(name, f, n, area, d, 0.12, area / 928.0));
        };
        add("INV", PrimitiveFn::Inv, 1, 928.0, 0.9);
        add("BUF", PrimitiveFn::Buf, 1, 1392.0, 1.6);
        add("NAND2", PrimitiveFn::Nand, 2, 1392.0, 1.0);
        add("NAND3", PrimitiveFn::Nand, 3, 1856.0, 1.1);
        add("NAND4", PrimitiveFn::Nand, 4, 2320.0, 1.2);
        add("NOR2", PrimitiveFn::Nor, 2, 1392.0, 1.3);
        add("NOR3", PrimitiveFn::Nor, 3, 1856.0, 1.5);
        add("NOR4", PrimitiveFn::Nor, 4, 2320.0, 1.7);
        add("AND2", PrimitiveFn::And, 2, 1856.0, 1.8);
        add("AND3", PrimitiveFn::And, 3, 2320.0, 1.9);
        add("AND4", PrimitiveFn::And, 4, 2784.0, 2.0);
        add("OR2", PrimitiveFn::Or, 2, 1856.0, 2.0);
        add("OR3", PrimitiveFn::Or, 3, 2320.0, 2.2);
        add("OR4", PrimitiveFn::Or, 4, 2784.0, 2.4);
        add("XOR2", PrimitiveFn::Xor, 2, 2784.0, 1.9);
        add("XNOR2", PrimitiveFn::Xnor, 2, 2784.0, 2.1);
        Arc::new(lib)
    }

    /// Adds a cell and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if a cell with the same `(function, arity)` already exists.
    pub fn push(&mut self, cell: Cell) -> CellId {
        let key = (cell.function(), cell.arity());
        assert!(
            !self.by_fn_arity.contains_key(&key),
            "duplicate cell for {} arity {}",
            key.0,
            key.1
        );
        let id = CellId::from_index(self.cells.len());
        self.by_fn_arity.insert(key, id);
        self.cells.push(cell);
        id
    }

    /// The library's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Looks up a cell by handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this library.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// The cell realizing `function` at exactly `arity` inputs, if any.
    pub fn cell_for(&self, function: PrimitiveFn, arity: usize) -> Option<CellId> {
        self.by_fn_arity.get(&(function, arity)).copied()
    }

    /// The cell by library name (case-insensitive), if any.
    pub fn cell_by_name(&self, name: &str) -> Option<CellId> {
        self.cells
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
            .map(CellId::from_index)
    }

    /// The largest available arity for `function`, if the function exists at
    /// all.
    pub fn max_arity(&self, function: PrimitiveFn) -> Option<usize> {
        self.by_fn_arity
            .keys()
            .filter(|(f, _)| *f == function)
            .map(|&(_, n)| n)
            .max()
    }

    /// The number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the library has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates over `(id, cell)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId::from_index(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_library_contents() {
        let lib = CellLibrary::standard();
        assert_eq!(lib.len(), 16);
        for f in [
            PrimitiveFn::Nand,
            PrimitiveFn::Nor,
            PrimitiveFn::And,
            PrimitiveFn::Or,
        ] {
            for n in 2..=4 {
                assert!(lib.cell_for(f, n).is_some(), "{f}{n} missing");
            }
            assert_eq!(lib.max_arity(f), Some(4));
        }
        assert!(lib.cell_for(PrimitiveFn::Xor, 2).is_some());
        assert!(lib.cell_for(PrimitiveFn::Xor, 3).is_none());
        assert!(lib.cell_for(PrimitiveFn::Inv, 1).is_some());
        assert_eq!(lib.max_arity(PrimitiveFn::Inv), Some(1));
    }

    #[test]
    fn lookup_by_name_case_insensitive() {
        let lib = CellLibrary::standard();
        let a = lib.cell_by_name("nand2").unwrap();
        let b = lib.cell_by_name("NAND2").unwrap();
        assert_eq!(a, b);
        assert!(lib.cell_by_name("MUX21").is_none());
    }

    #[test]
    fn delay_grows_with_fanout() {
        let lib = CellLibrary::standard();
        let c = lib.cell(lib.cell_for(PrimitiveFn::Nand, 2).unwrap());
        assert!(c.delay(4) > c.delay(1));
        assert!((c.delay(0) - c.intrinsic_delay()).abs() < 1e-12);
    }

    #[test]
    fn wider_cells_are_bigger_and_slower() {
        let lib = CellLibrary::standard();
        for f in [
            PrimitiveFn::Nand,
            PrimitiveFn::Nor,
            PrimitiveFn::And,
            PrimitiveFn::Or,
        ] {
            for n in 2..4 {
                let small = lib.cell(lib.cell_for(f, n).unwrap());
                let big = lib.cell(lib.cell_for(f, n + 1).unwrap());
                assert!(big.area() > small.area(), "{f}{}", n + 1);
                assert!(big.intrinsic_delay() > small.intrinsic_delay());
            }
        }
    }

    #[test]
    fn iteration_and_display() {
        let lib = CellLibrary::standard();
        assert_eq!(lib.iter().count(), lib.len());
        assert!(!lib.is_empty());
        assert_eq!(lib.name(), "odcfp-std");
        let (id, cell) = lib.iter().next().unwrap();
        assert_eq!(lib.cell(id).name(), cell.name());
        let shown = cell.to_string();
        assert!(shown.contains(cell.name()));
        assert!(shown.contains("area"));
        let empty = CellLibrary::empty("void");
        assert!(empty.is_empty());
        assert!(empty.max_arity(PrimitiveFn::And).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate cell")]
    fn duplicate_fn_arity_rejected() {
        let mut lib = CellLibrary::empty("t");
        lib.push(Cell::new("A", PrimitiveFn::And, 2, 1.0, 1.0, 0.0, 1.0));
        lib.push(Cell::new("B", PrimitiveFn::And, 2, 1.0, 1.0, 0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "must have exactly one input")]
    fn bad_inv_arity_rejected() {
        Cell::new("INV3", PrimitiveFn::Inv, 3, 1.0, 1.0, 0.0, 1.0);
    }
}

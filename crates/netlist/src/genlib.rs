//! Parser for the MCNC/SIS `genlib` cell-library format.
//!
//! The paper's flow feeds ABC "a library of gate cells"; `genlib` is the
//! interchange format those libraries ship in. A library line looks like:
//!
//! ```text
//! GATE NAND2  1392  Y=!(A*B);  PIN * INV 1 999 1.0 0.12 1.0 0.12
//! ```
//!
//! The parser reads each gate's area, function expression and (first) PIN
//! characterization, recognizes the Boolean function by truth-table
//! matching against the primitive set this workspace supports, and builds a
//! [`CellLibrary`]. Gates computing functions outside the primitive set
//! (AOI cells, MUXes, ...) are reported in
//! [`GenlibReport::skipped`] rather than silently dropped.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use odcfp_logic::{PrimitiveFn, TruthTable};

use crate::{Cell, CellLibrary};

/// A `genlib` parse failure with its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseGenlibError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseGenlibError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "genlib parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseGenlibError {}

/// The result of [`parse_genlib`].
#[derive(Debug, Clone)]
pub struct GenlibReport {
    /// The constructed library.
    pub library: Arc<CellLibrary>,
    /// Gates that could not be admitted, with reasons (unsupported
    /// function, duplicate function/arity, ...).
    pub skipped: Vec<(String, String)>,
}

fn err(line: usize, message: impl Into<String>) -> ParseGenlibError {
    ParseGenlibError {
        line,
        message: message.into(),
    }
}

/// Parses `genlib` text into a [`CellLibrary`].
///
/// # Errors
///
/// Returns an error on malformed syntax. Functionally exotic gates are
/// *skipped*, not errors — see [`GenlibReport::skipped`].
pub fn parse_genlib(src: &str, name: impl Into<String>) -> Result<GenlibReport, ParseGenlibError> {
    let mut library = CellLibrary::empty(name);
    let mut skipped = Vec::new();

    // Statements run from GATE to the next GATE; normalize lines first.
    let mut statements: Vec<(usize, String)> = Vec::new();
    let mut current: Option<(usize, String)> = None;
    for (i, raw) in src.lines().enumerate() {
        let line_no = i + 1;
        let text = match raw.find('#') {
            Some(p) => &raw[..p],
            None => raw,
        };
        if text.trim().is_empty() {
            continue;
        }
        if text.trim_start().starts_with("GATE") || text.trim_start().starts_with("LATCH") {
            if let Some(stmt) = current.take() {
                statements.push(stmt);
            }
            current = Some((line_no, text.trim().to_owned()));
        } else if let Some((_, acc)) = &mut current {
            acc.push(' ');
            acc.push_str(text.trim());
        } else {
            return Err(err(line_no, "text before first GATE"));
        }
    }
    if let Some(stmt) = current.take() {
        statements.push(stmt);
    }

    for (line, stmt) in statements {
        if stmt.starts_with("LATCH") {
            return Err(err(line, "sequential LATCH cells are not supported"));
        }
        match parse_gate(&stmt, line)? {
            ParsedGate::Constant(name) => {
                skipped.push((name, "constant cell (use netlist constants)".into()));
            }
            ParsedGate::Cell(cell) => {
                let key_fn = cell.function();
                let key_ar = cell.arity();
                if library.cell_for(key_fn, key_ar).is_some() {
                    skipped.push((
                        cell.name().to_owned(),
                        format!("duplicate {key_fn}{key_ar} (first wins)"),
                    ));
                } else {
                    library.push(cell);
                }
            }
            ParsedGate::Unsupported(name, reason) => skipped.push((name, reason)),
        }
    }
    Ok(GenlibReport {
        library: Arc::new(library),
        skipped,
    })
}

enum ParsedGate {
    Cell(Cell),
    Constant(String),
    Unsupported(String, String),
}

fn parse_gate(stmt: &str, line: usize) -> Result<ParsedGate, ParseGenlibError> {
    // GATE <name> <area> <out>=<expr> ; [PIN ...]
    let body = stmt
        .strip_prefix("GATE")
        .expect("statement starts with GATE");
    let (head, tail) = match body.find(';') {
        Some(p) => (&body[..p], &body[p + 1..]),
        None => return Err(err(line, "missing ';' after gate function")),
    };
    let mut toks = head.split_whitespace();
    let name = toks
        .next()
        .ok_or_else(|| err(line, "missing gate name"))?
        .to_owned();
    let area: f64 = toks
        .next()
        .ok_or_else(|| err(line, "missing area"))?
        .parse()
        .map_err(|_| err(line, "invalid area"))?;
    let func_text: String = toks.collect::<Vec<_>>().join(" ");
    let (_, expr_text) = func_text
        .split_once('=')
        .ok_or_else(|| err(line, "missing '=' in gate function"))?;

    let (expr, inputs) = parse_expr(expr_text, line)?;
    if inputs.is_empty() {
        return Ok(ParsedGate::Constant(name));
    }
    let arity = inputs.len();
    if arity > odcfp_logic::MAX_VARS {
        return Ok(ParsedGate::Unsupported(name, "too many inputs".into()));
    }
    let tt = expr.truth_table(&inputs);
    let Some(function) = recognize(&tt, arity) else {
        return Ok(ParsedGate::Unsupported(
            name,
            format!("function {tt} is not a supported primitive"),
        ));
    };
    if function.is_single_input() && arity != 1 {
        return Ok(ParsedGate::Unsupported(name, "degenerate function".into()));
    }

    // PIN characterization: use the first PIN statement's numbers.
    // PIN <name|*> <phase> <input-load> <max-load> <rise-delay>
    //     <rise-fanout-delay> <fall-delay> <fall-fanout-delay>
    let mut intrinsic = 1.0f64;
    let mut slope = 0.1f64;
    let mut cap = 1.0f64;
    if let Some(pin_at) = tail.find("PIN") {
        let nums: Vec<f64> = tail[pin_at..]
            .split_whitespace()
            .skip(3) // "PIN", pin name, phase
            .map_while(|t| t.parse::<f64>().ok())
            .collect();
        if nums.len() >= 6 {
            cap = nums[0];
            intrinsic = (nums[2] + nums[4]) / 2.0;
            slope = (nums[3] + nums[5]) / 2.0;
        }
    }
    Ok(ParsedGate::Cell(Cell::new(
        name, function, arity, area, intrinsic, slope, cap,
    )))
}

fn recognize(tt: &TruthTable, arity: usize) -> Option<PrimitiveFn> {
    PrimitiveFn::ALL
        .into_iter()
        .filter(|f| {
            if f.is_single_input() {
                arity == 1
            } else {
                arity >= 2
            }
        })
        .find(|f| &f.truth_table(arity) == tt)
}

/// A parsed Boolean expression over named inputs.
enum Expr {
    Input(usize),
    Const(bool),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
}

impl Expr {
    fn eval(&self, assignment: usize) -> bool {
        match self {
            Expr::Input(i) => (assignment >> i) & 1 == 1,
            Expr::Const(b) => *b,
            Expr::Not(e) => !e.eval(assignment),
            Expr::And(a, b) => a.eval(assignment) && b.eval(assignment),
            Expr::Or(a, b) => a.eval(assignment) || b.eval(assignment),
            Expr::Xor(a, b) => a.eval(assignment) ^ b.eval(assignment),
        }
    }

    fn truth_table(&self, inputs: &[String]) -> TruthTable {
        TruthTable::from_fn(inputs.len(), |i| self.eval(i))
    }
}

struct ExprParser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    inputs: Vec<String>,
    index: HashMap<String, usize>,
    line: usize,
}

/// Parses a genlib expression; returns the tree and input names in first-
/// appearance order (which defines pin order).
fn parse_expr(text: &str, line: usize) -> Result<(Expr, Vec<String>), ParseGenlibError> {
    let mut p = ExprParser {
        chars: text.chars().peekable(),
        inputs: Vec::new(),
        index: HashMap::new(),
        line,
    };
    let e = p.or_expr()?;
    p.skip_ws();
    if p.chars.peek().is_some() {
        return Err(err(line, "trailing text in expression"));
    }
    Ok((e, p.inputs))
}

impl ExprParser<'_> {
    fn skip_ws(&mut self) {
        while self.chars.peek().is_some_and(|c| c.is_whitespace()) {
            self.chars.next();
        }
    }

    fn or_expr(&mut self) -> Result<Expr, ParseGenlibError> {
        let mut acc = self.and_expr()?;
        loop {
            self.skip_ws();
            if self.chars.peek() == Some(&'+') {
                self.chars.next();
                let rhs = self.and_expr()?;
                acc = Expr::Or(Box::new(acc), Box::new(rhs));
            } else if self.chars.peek() == Some(&'^') {
                self.chars.next();
                let rhs = self.and_expr()?;
                acc = Expr::Xor(Box::new(acc), Box::new(rhs));
            } else {
                return Ok(acc);
            }
        }
    }

    fn and_expr(&mut self) -> Result<Expr, ParseGenlibError> {
        let mut acc = self.factor()?;
        loop {
            self.skip_ws();
            match self.chars.peek() {
                Some('*') => {
                    self.chars.next();
                    let rhs = self.factor()?;
                    acc = Expr::And(Box::new(acc), Box::new(rhs));
                }
                // Juxtaposition also means AND in genlib: `A B` or `A(B+C)`.
                Some(c) if c.is_ascii_alphanumeric() || *c == '(' || *c == '!' || *c == '_' => {
                    let rhs = self.factor()?;
                    acc = Expr::And(Box::new(acc), Box::new(rhs));
                }
                _ => return Ok(acc),
            }
        }
    }

    fn factor(&mut self) -> Result<Expr, ParseGenlibError> {
        self.skip_ws();
        let mut e = match self.chars.peek() {
            Some('!') => {
                self.chars.next();
                let inner = self.factor()?;
                Expr::Not(Box::new(inner))
            }
            Some('(') => {
                self.chars.next();
                let inner = self.or_expr()?;
                self.skip_ws();
                if self.chars.next() != Some(')') {
                    return Err(err(self.line, "missing ')'"));
                }
                inner
            }
            Some(c) if c.is_ascii_alphanumeric() || *c == '_' => {
                let mut ident = String::new();
                while self
                    .chars
                    .peek()
                    .is_some_and(|c| c.is_ascii_alphanumeric() || *c == '_')
                {
                    ident.push(self.chars.next().expect("peeked"));
                }
                match ident.as_str() {
                    "CONST0" => Expr::Const(false),
                    "CONST1" => Expr::Const(true),
                    _ => {
                        let next = self.inputs.len();
                        let idx = *self.index.entry(ident.clone()).or_insert_with(|| {
                            self.inputs.push(ident);
                            next
                        });
                        Expr::Input(idx)
                    }
                }
            }
            other => {
                return Err(err(
                    self.line,
                    format!(
                        "unexpected {:?} in expression",
                        other.copied().unwrap_or(' ')
                    ),
                ))
            }
        };
        // Postfix complement: A'
        loop {
            self.skip_ws();
            if self.chars.peek() == Some(&'\'') {
                self.chars.next();
                e = Expr::Not(Box::new(e));
            } else {
                return Ok(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a comment
GATE INVX1   928  Y=!A;          PIN * INV 1.0 999 0.9 0.12 0.9 0.12
GATE NAND2X1 1392 Y=!(A*B);      PIN * INV 1.5 999 1.0 0.12 1.0 0.12
GATE NOR2X1  1392 Y=!(A+B);      PIN * INV 1.5 999 1.3 0.12 1.3 0.12
GATE AND3X1  2320 Y=A*B*C;       PIN * NONINV 2.0 999 1.9 0.12 1.9 0.12
GATE XOR2X1  2784 Y=A*!B + !A*B; PIN * UNKNOWN 2.5 999 1.9 0.14 1.9 0.14
GATE AOI21   1856 Y=!(A*B+C);    PIN * INV 1.5 999 1.2 0.12 1.2 0.12
GATE ONE     0    Y=CONST1;
";

    #[test]
    fn parses_standard_cells_and_skips_exotics() {
        let report = parse_genlib(SAMPLE, "test").unwrap();
        let lib = &report.library;
        assert!(lib.cell_for(PrimitiveFn::Inv, 1).is_some());
        assert!(lib.cell_for(PrimitiveFn::Nand, 2).is_some());
        assert!(lib.cell_for(PrimitiveFn::Nor, 2).is_some());
        assert!(lib.cell_for(PrimitiveFn::And, 3).is_some());
        assert!(lib.cell_for(PrimitiveFn::Xor, 2).is_some());
        let names: Vec<&str> = report.skipped.iter().map(|(n, _)| n.as_str()).collect();
        assert!(
            names.contains(&"AOI21"),
            "AOI is not a primitive: {names:?}"
        );
        assert!(names.contains(&"ONE"), "constants are skipped: {names:?}");
    }

    #[test]
    fn characterization_numbers_flow_through() {
        let report = parse_genlib(SAMPLE, "test").unwrap();
        let lib = &report.library;
        let nand2 = lib.cell(lib.cell_for(PrimitiveFn::Nand, 2).unwrap());
        assert_eq!(nand2.name(), "NAND2X1");
        assert!((nand2.area() - 1392.0).abs() < 1e-9);
        assert!((nand2.intrinsic_delay() - 1.0).abs() < 1e-9);
        assert!((nand2.load_delay() - 0.12).abs() < 1e-9);
        assert!((nand2.input_cap() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn xor_via_sop_is_recognized() {
        let report = parse_genlib("GATE X 1 Y=A'*B + A*B';\n", "t").unwrap();
        assert!(report.library.cell_for(PrimitiveFn::Xor, 2).is_some());
    }

    #[test]
    fn xnor_and_buffer_forms() {
        let report = parse_genlib("GATE XN 1 Y=!(A^B);\nGATE BUFX 1 Y=A;\n", "t").unwrap();
        assert!(report.library.cell_for(PrimitiveFn::Xnor, 2).is_some());
        assert!(report.library.cell_for(PrimitiveFn::Buf, 1).is_some());
    }

    #[test]
    fn duplicate_function_first_wins() {
        let report = parse_genlib("GATE N1 1 Y=!(A*B);\nGATE N2 2 Y=!(B*A);\n", "t").unwrap();
        let id = report.library.cell_for(PrimitiveFn::Nand, 2).unwrap();
        assert_eq!(report.library.cell(id).name(), "N1");
        assert_eq!(report.skipped.len(), 1);
    }

    #[test]
    fn syntax_errors_reported_with_line() {
        let e = parse_genlib("GATE BAD 1 Y=A*\n", "t").unwrap_err();
        assert_eq!(e.line, 1);
        let e2 = parse_genlib("PIN * INV 1 999 1 1 1 1\n", "t").unwrap_err();
        assert!(e2.message.contains("before first GATE"));
        let e3 = parse_genlib("GATE G 1 Y=(A+B;\n", "t").unwrap_err();
        assert!(e3.message.contains("')'"));
    }

    #[test]
    fn latch_rejected() {
        let e = parse_genlib("LATCH DFF 1 Q=D;\n", "t").unwrap_err();
        assert!(e.message.contains("LATCH"));
    }

    #[test]
    fn parsed_library_drives_the_full_pipeline() {
        // A minimal genlib library is enough to build and fingerprint a
        // netlist.
        let src = "\
GATE INV  928  Y=!A;     PIN * INV 1 999 0.9 0.12 0.9 0.12
GATE AND2 1856 Y=A*B;    PIN * NONINV 2 999 1.8 0.12 1.8 0.12
GATE AND3 2320 Y=A*B*C;  PIN * NONINV 2 999 1.9 0.12 1.9 0.12
GATE OR2  1856 Y=A+B;    PIN * NONINV 2 999 2.0 0.12 2.0 0.12
";
        let lib = parse_genlib(src, "mini").unwrap().library;
        let mut n = crate::Netlist::new("fig1", lib);
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
        n.validate().unwrap();
        assert_eq!(n.eval(&[true, true, true, false]), vec![true]);
    }
}

//! DIMACS CNF parsing, making the solver usable as a standalone tool and
//! letting test cases be exchanged with other solvers.

use std::fmt;

use crate::{CnfBuilder, Lit, Var};

/// A DIMACS parse failure with its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDimacsError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DIMACS parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseDimacsError {}

/// Parses DIMACS `cnf` text into a [`CnfBuilder`].
///
/// Accepts comments (`c ...`), the `p cnf <vars> <clauses>` header, and
/// clauses terminated by `0` (possibly spanning lines). Variables beyond
/// the header's count are an error; a missing final `0` is tolerated for
/// compatibility with sloppy generators.
///
/// # Errors
///
/// Returns a [`ParseDimacsError`] on malformed headers or literals.
///
/// # Example
///
/// ```
/// use odcfp_sat::{parse_dimacs, SolveResult, Solver};
///
/// let cnf = parse_dimacs("p cnf 2 2\n1 -2 0\n2 0\n")?;
/// let mut solver = Solver::from_cnf(&cnf);
/// assert!(matches!(solver.solve(), SolveResult::Sat(_)));
/// # Ok::<(), odcfp_sat::ParseDimacsError>(())
/// ```
pub fn parse_dimacs(src: &str) -> Result<CnfBuilder, ParseDimacsError> {
    let mut cnf = CnfBuilder::new();
    let mut declared_vars: Option<usize> = None;
    let mut clause: Vec<Lit> = Vec::new();
    for (i, raw) in src.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') || line.starts_with('%') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('p') {
            if declared_vars.is_some() {
                return Err(ParseDimacsError {
                    line: line_no,
                    message: "duplicate problem header".into(),
                });
            }
            let toks: Vec<&str> = rest.split_whitespace().collect();
            if toks.len() != 3 || toks[0] != "cnf" {
                return Err(ParseDimacsError {
                    line: line_no,
                    message: format!("bad header {line:?}"),
                });
            }
            let nv: usize = toks[1].parse().map_err(|_| ParseDimacsError {
                line: line_no,
                message: "bad variable count".into(),
            })?;
            cnf.new_vars(nv);
            declared_vars = Some(nv);
            continue;
        }
        let nv = declared_vars.ok_or(ParseDimacsError {
            line: line_no,
            message: "clause before 'p cnf' header".into(),
        })?;
        for tok in line.split_whitespace() {
            let v: i64 = tok.parse().map_err(|_| ParseDimacsError {
                line: line_no,
                message: format!("bad literal {tok:?}"),
            })?;
            if v == 0 {
                cnf.add_clause(clause.drain(..));
            } else {
                let index = v.unsigned_abs() as usize - 1;
                if index >= nv {
                    return Err(ParseDimacsError {
                        line: line_no,
                        message: format!("literal {v} exceeds declared variables"),
                    });
                }
                clause.push(Lit::with_polarity(Var::from_index(index), v > 0));
            }
        }
    }
    if !clause.is_empty() {
        cnf.add_clause(clause.drain(..));
    }
    Ok(cnf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SolveResult, Solver};

    #[test]
    fn roundtrip_with_writer() {
        let mut cnf = CnfBuilder::new();
        let vars = cnf.new_vars(3);
        cnf.add_clause([Lit::pos(vars[0]), Lit::neg(vars[1])]);
        cnf.add_clause([Lit::pos(vars[2])]);
        let text = cnf.to_dimacs();
        let back = parse_dimacs(&text).unwrap();
        assert_eq!(back.num_vars(), 3);
        assert_eq!(back.num_clauses(), 2);
        assert_eq!(back.to_dimacs(), text);
    }

    #[test]
    fn comments_and_multiline_clauses() {
        let src = "\
c a comment
p cnf 4 2
1 -2
3 0
-1 4 0
";
        let cnf = parse_dimacs(src).unwrap();
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.clause(0).len(), 3, "clause spans two lines");
        let mut s = Solver::from_cnf(&cnf);
        assert!(matches!(s.solve(), SolveResult::Sat(_)));
    }

    #[test]
    fn missing_trailing_zero_tolerated() {
        let cnf = parse_dimacs("p cnf 2 1\n1 2\n").unwrap();
        assert_eq!(cnf.num_clauses(), 1);
    }

    #[test]
    fn unsat_instance_solves_unsat() {
        let src = "p cnf 1 2\n1 0\n-1 0\n";
        let cnf = parse_dimacs(src).unwrap();
        let mut s = Solver::from_cnf(&cnf);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn errors_reported() {
        assert!(parse_dimacs("1 2 0\n").is_err());
        assert!(parse_dimacs("p cnf x 1\n").is_err());
        assert!(parse_dimacs("p cnf 1 1\np cnf 1 1\n").is_err());
        let e = parse_dimacs("p cnf 2 1\n5 0\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(parse_dimacs("p cnf 2 1\nfoo 0\n").is_err());
    }
}

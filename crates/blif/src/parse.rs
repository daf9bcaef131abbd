//! The BLIF parser.

use std::fmt;

use odcfp_logic::{Cube, Sop};

use crate::network::{LogicNetwork, LogicNode};

/// A parse failure with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBlifError {
    /// 1-based line number of the offending construct.
    pub line: usize,
    /// What went wrong.
    pub kind: ParseBlifErrorKind,
}

/// The specific parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseBlifErrorKind {
    /// A directive appeared before `.model`.
    MissingModel,
    /// A second `.model` was found (multi-model files are unsupported).
    MultipleModels,
    /// A `.latch` (or other sequential construct) was found.
    Sequential,
    /// An unknown dot-directive.
    UnknownDirective(String),
    /// A cover row with a bad character or wrong arity.
    BadCoverRow(String),
    /// A cover row appeared outside a `.names` block.
    StrayCoverRow,
    /// `.names` had no signals.
    EmptyNames,
    /// The file ended without any `.model`.
    Empty,
}

impl fmt::Display for ParseBlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BLIF parse error at line {}: ", self.line)?;
        match &self.kind {
            ParseBlifErrorKind::MissingModel => write!(f, "directive before .model"),
            ParseBlifErrorKind::MultipleModels => write!(f, "multiple .model declarations"),
            ParseBlifErrorKind::Sequential => {
                write!(f, "sequential constructs (.latch) are not supported")
            }
            ParseBlifErrorKind::UnknownDirective(d) => write!(f, "unknown directive {d:?}"),
            ParseBlifErrorKind::BadCoverRow(r) => write!(f, "bad cover row {r:?}"),
            ParseBlifErrorKind::StrayCoverRow => write!(f, "cover row outside .names"),
            ParseBlifErrorKind::EmptyNames => write!(f, ".names with no signals"),
            ParseBlifErrorKind::Empty => write!(f, "no .model found"),
        }
    }
}

impl std::error::Error for ParseBlifError {}

fn err(line: usize, kind: ParseBlifErrorKind) -> ParseBlifError {
    ParseBlifError { line, kind }
}

/// A `.names` block under construction: start line, signal list, cube rows
/// and the output value seen so far.
type NamesBlock = (usize, Vec<String>, Vec<Cube>, Option<bool>);

/// Parses a single-model combinational BLIF file into a [`LogicNetwork`].
///
/// Handles comments (`#` to end of line), backslash line continuations, and
/// `.names` covers with on-set (`1`) or off-set (`0`) output columns. The
/// resulting network is *not* validated — call
/// [`LogicNetwork::validate`] to check semantic consistency.
///
/// # Errors
///
/// Returns a [`ParseBlifError`] carrying the 1-based source line on any
/// syntactic problem, on sequential constructs, and on multi-model files.
pub fn parse_blif(src: &str) -> Result<LogicNetwork, ParseBlifError> {
    // Pre-pass: strip comments, join continuations, remember line numbers.
    let mut lines: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (i, raw) in src.lines().enumerate() {
        let line_no = i + 1;
        let no_comment = match raw.find('#') {
            Some(p) => &raw[..p],
            None => raw,
        };
        let trimmed = no_comment.trim_end();
        let (continued, text) = match trimmed.strip_suffix('\\') {
            Some(t) => (true, t),
            None => (false, trimmed),
        };
        match pending.take() {
            Some((start, mut acc)) => {
                acc.push(' ');
                acc.push_str(text);
                if continued {
                    pending = Some((start, acc));
                } else {
                    lines.push((start, acc));
                }
            }
            None => {
                if continued {
                    pending = Some((line_no, text.to_owned()));
                } else if !text.trim().is_empty() {
                    lines.push((line_no, text.to_owned()));
                }
            }
        }
    }
    if let Some((start, acc)) = pending {
        lines.push((start, acc));
    }

    let mut network: Option<LogicNetwork> = None;
    // The `.names` block currently being filled.
    let mut current: Option<NamesBlock> = None;

    fn flush(network: &mut Option<LogicNetwork>, current: &mut Option<NamesBlock>) {
        if let Some((_, signals, cubes, out_value)) = current.take() {
            let (output, fanins) = signals.split_last().expect("names checked nonempty");
            let num_inputs = fanins.len();
            let cover = match out_value {
                Some(v) => Sop::new(num_inputs, cubes, v),
                // No rows at all: constant 0 per BLIF convention.
                None => Sop::constant(num_inputs, false),
            };
            network.as_mut().expect("model exists").add_node(LogicNode {
                output: output.clone(),
                fanins: fanins.to_vec(),
                cover,
            });
        }
    }

    for (line_no, text) in &lines {
        let line_no = *line_no;
        let mut tokens = text.split_whitespace();
        let first = match tokens.next() {
            Some(t) => t,
            None => continue,
        };
        if let Some(directive) = first.strip_prefix('.') {
            match directive {
                "model" => {
                    if network.is_some() {
                        return Err(err(line_no, ParseBlifErrorKind::MultipleModels));
                    }
                    let name = tokens.next().unwrap_or("unnamed").to_owned();
                    network = Some(LogicNetwork::new(name));
                }
                "inputs" => {
                    flush(&mut network, &mut current);
                    let net = network
                        .as_mut()
                        .ok_or_else(|| err(line_no, ParseBlifErrorKind::MissingModel))?;
                    for t in tokens {
                        net.add_input(t);
                    }
                }
                "outputs" => {
                    flush(&mut network, &mut current);
                    let net = network
                        .as_mut()
                        .ok_or_else(|| err(line_no, ParseBlifErrorKind::MissingModel))?;
                    for t in tokens {
                        net.add_output(t);
                    }
                }
                "names" => {
                    if network.is_none() {
                        return Err(err(line_no, ParseBlifErrorKind::MissingModel));
                    }
                    flush(&mut network, &mut current);
                    let signals: Vec<String> = tokens.map(str::to_owned).collect();
                    if signals.is_empty() {
                        return Err(err(line_no, ParseBlifErrorKind::EmptyNames));
                    }
                    current = Some((line_no, signals, Vec::new(), None));
                }
                "latch" => return Err(err(line_no, ParseBlifErrorKind::Sequential)),
                "end" => {
                    flush(&mut network, &mut current);
                }
                // Harmless metadata directives some tools emit.
                "default_input_arrival"
                | "default_output_required"
                | "area"
                | "delay"
                | "wire_load_slope"
                | "search" => {
                    flush(&mut network, &mut current);
                }
                other => {
                    return Err(err(
                        line_no,
                        ParseBlifErrorKind::UnknownDirective(format!(".{other}")),
                    ))
                }
            }
        } else {
            // A cover row.
            let Some((_, signals, cubes, out_value)) = current.as_mut() else {
                return Err(err(line_no, ParseBlifErrorKind::StrayCoverRow));
            };
            let num_inputs = signals.len() - 1;
            let row: Vec<&str> = text.split_whitespace().collect();
            let (input_part, output_part): (&str, &str) = if num_inputs == 0 {
                if row.len() != 1 {
                    return Err(err(line_no, ParseBlifErrorKind::BadCoverRow(text.clone())));
                }
                ("", row[0])
            } else {
                if row.len() != 2 {
                    return Err(err(line_no, ParseBlifErrorKind::BadCoverRow(text.clone())));
                }
                (row[0], row[1])
            };
            let value = match output_part {
                "1" => true,
                "0" => false,
                _ => return Err(err(line_no, ParseBlifErrorKind::BadCoverRow(text.clone()))),
            };
            if let Some(prev) = out_value {
                if *prev != value {
                    // Mixed on-set/off-set covers are not legal BLIF.
                    return Err(err(line_no, ParseBlifErrorKind::BadCoverRow(text.clone())));
                }
            } else {
                *out_value = Some(value);
            }
            let cube: Cube = input_part
                .parse()
                .map_err(|_| err(line_no, ParseBlifErrorKind::BadCoverRow(text.clone())))?;
            if cube.width() != num_inputs {
                return Err(err(line_no, ParseBlifErrorKind::BadCoverRow(text.clone())));
            }
            cubes.push(cube);
        }
    }
    flush(&mut network, &mut current);
    network.ok_or_else(|| err(lines.last().map_or(1, |l| l.0), ParseBlifErrorKind::Empty))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_majority() {
        let src = "\
# a comment
.model majority
.inputs a b c
.outputs m
.names a b c m
11- 1
1-1 1
-11 1
.end
";
        let net = parse_blif(src).unwrap();
        net.validate().unwrap();
        assert_eq!(net.name(), "majority");
        assert_eq!(net.inputs(), ["a", "b", "c"]);
        assert_eq!(net.outputs(), ["m"]);
        assert_eq!(net.num_nodes(), 1);
        assert_eq!(net.eval(&[true, false, true]), vec![true]);
        assert_eq!(net.eval(&[false, false, true]), vec![false]);
    }

    #[test]
    fn offset_cover() {
        // y is 0 iff a&b: a NAND.
        let src = ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n";
        let net = parse_blif(src).unwrap();
        assert_eq!(net.eval(&[true, true]), vec![false]);
        assert_eq!(net.eval(&[false, true]), vec![true]);
    }

    #[test]
    fn constant_nodes() {
        let src = "\
.model consts
.inputs a
.outputs one zero
.names one
1
.names zero
.names a unused_buf
1 1
.end
";
        let net = parse_blif(src).unwrap();
        assert_eq!(net.eval(&[false]), vec![true, false]);
    }

    #[test]
    fn line_continuation() {
        let src = ".model c\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end\n";
        let net = parse_blif(src).unwrap();
        assert_eq!(net.inputs(), ["a", "b"]);
    }

    #[test]
    fn latch_rejected() {
        let src = ".model s\n.inputs a\n.outputs y\n.latch a y re clk 0\n.end\n";
        let e = parse_blif(src).unwrap_err();
        assert_eq!(e.kind, ParseBlifErrorKind::Sequential);
        assert_eq!(e.line, 4);
    }

    #[test]
    fn unknown_directive_rejected() {
        let e = parse_blif(".model m\n.frobnicate x\n").unwrap_err();
        assert!(matches!(e.kind, ParseBlifErrorKind::UnknownDirective(_)));
    }

    #[test]
    fn stray_row_rejected() {
        let e = parse_blif(".model m\n11 1\n").unwrap_err();
        assert_eq!(e.kind, ParseBlifErrorKind::StrayCoverRow);
    }

    #[test]
    fn bad_rows_rejected() {
        for body in ["1x 1", "11 2", "111 1", "11"] {
            let src = format!(".model m\n.inputs a b\n.outputs y\n.names a b y\n{body}\n");
            let e = parse_blif(&src).unwrap_err();
            assert!(
                matches!(e.kind, ParseBlifErrorKind::BadCoverRow(_)),
                "{body:?} should be a bad row, got {e:?}"
            );
            assert_eq!(e.line, 5);
        }
    }

    #[test]
    fn mixed_onset_offset_rejected() {
        let src = ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n";
        assert!(parse_blif(src).is_err());
    }

    #[test]
    fn multiple_models_rejected() {
        let e = parse_blif(".model a\n.model b\n").unwrap_err();
        assert_eq!(e.kind, ParseBlifErrorKind::MultipleModels);
    }

    #[test]
    fn empty_file_rejected() {
        assert!(matches!(
            parse_blif("# nothing\n").unwrap_err().kind,
            ParseBlifErrorKind::Empty
        ));
    }

    #[test]
    fn directive_before_model_rejected() {
        let e = parse_blif(".inputs a\n").unwrap_err();
        assert_eq!(e.kind, ParseBlifErrorKind::MissingModel);
    }
}

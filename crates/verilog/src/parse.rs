//! Parser for the structural Verilog subset.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use odcfp_netlist::{CellId, CellLibrary, NetDriver, NetId, Netlist};

use crate::pin_index;

/// A parse failure with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseVerilogError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub kind: ParseVerilogErrorKind,
}

/// The specific parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseVerilogErrorKind {
    /// Expected a different token.
    Expected {
        /// What the parser wanted.
        wanted: String,
        /// What it found.
        found: String,
    },
    /// An instance references a cell absent from the library.
    UnknownCell(String),
    /// An unknown pin name in a named port connection.
    UnknownPin(String),
    /// An instance's connections don't match its cell (missing output,
    /// wrong input count, duplicate pin).
    BadConnections(String),
    /// A net is driven more than once.
    MultipleDrivers(String),
    /// The file ended unexpectedly.
    UnexpectedEof,
    /// Input ended without a module.
    Empty,
    /// A construct outside the supported subset (vectors, behavioral code).
    Unsupported(String),
}

impl fmt::Display for ParseVerilogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Verilog parse error at line {}: ", self.line)?;
        match &self.kind {
            ParseVerilogErrorKind::Expected { wanted, found } => {
                write!(f, "expected {wanted}, found {found:?}")
            }
            ParseVerilogErrorKind::UnknownCell(c) => write!(f, "unknown cell {c:?}"),
            ParseVerilogErrorKind::UnknownPin(p) => write!(f, "unknown pin {p:?}"),
            ParseVerilogErrorKind::BadConnections(m) => write!(f, "bad connections: {m}"),
            ParseVerilogErrorKind::MultipleDrivers(n) => {
                write!(f, "net {n:?} has multiple drivers")
            }
            ParseVerilogErrorKind::UnexpectedEof => write!(f, "unexpected end of input"),
            ParseVerilogErrorKind::Empty => write!(f, "no module found"),
            ParseVerilogErrorKind::Unsupported(w) => write!(f, "unsupported construct: {w}"),
        }
    }
}

impl std::error::Error for ParseVerilogError {}

/// One token; identifiers borrow their text from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Punct(u8),
    Literal(bool),
    /// The end of the source.
    Eof,
    /// A character outside the subset; [`Lexer::bad_char`] describes it.
    Bad,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => f.write_str(s),
            Tok::Punct(c) => write!(f, "{}", char::from(*c)),
            Tok::Literal(b) => write!(f, "1'b{}", u8::from(*b)),
            Tok::Eof => f.write_str("end of input"),
            Tok::Bad => f.write_str("unsupported character"),
        }
    }
}

/// Byte classes the lexer dispatches on.
mod class {
    /// Not ASCII, or ASCII outside the subset: decoded to decide.
    pub const OTHER: u8 = 0;
    /// ASCII whitespace except `\n`: `char::is_whitespace` on ASCII is
    /// tab, LF, VT, FF, CR and space (`u8::is_ascii_whitespace` leaves
    /// out VT).
    pub const SPACE: u8 = 1;
    pub const NEWLINE: u8 = 2;
    /// Starts a simple identifier: `a-z`, `A-Z`, `_`.
    pub const IDENT: u8 = 3;
    pub const PUNCT: u8 = 4;
    pub const SLASH: u8 = 5;
    pub const ONE: u8 = 6;
    pub const BACKSLASH: u8 = 7;
    /// Continues a simple identifier: an `IDENT` byte, a digit or `$`.
    pub const CONTINUES: u8 = 8;

    pub static TABLE: [u8; 256] = {
        let mut t = [OTHER; 256];
        let mut b = 0;
        while b < 128 {
            t[b] = match b as u8 {
                b'\n' => NEWLINE,
                b'\t' | 0x0b | 0x0c | b'\r' | b' ' => SPACE,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => IDENT | CONTINUES,
                b'1' => ONE | CONTINUES,
                b'0'..=b'9' | b'$' => CONTINUES,
                b'(' | b')' | b',' | b';' | b'.' | b'=' => PUNCT,
                b'/' => SLASH,
                b'\\' => BACKSLASH,
                _ => OTHER,
            };
            b += 1;
        }
        t
    };
}

/// Splits the source into tokens one byte at a time. Only non-ASCII text
/// is decoded, to apply the Unicode whitespace rule.
struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    /// The next token and the line it starts on. A [`Tok::Bad`] leaves
    /// the lexer on the bad character, so asking again repeats it.
    ///
    /// Inlined into its callers: as an out-of-line call it made a des
    /// parse about 1.7x slower.
    #[inline(always)]
    fn next_token(&mut self) -> (usize, Tok<'a>) {
        let bytes = self.src.as_bytes();
        loop {
            let Some(&b) = bytes.get(self.pos) else {
                return (self.line, Tok::Eof);
            };
            let start = self.pos;
            let tok = match class::TABLE[usize::from(b)] & !class::CONTINUES {
                class::SPACE => {
                    self.pos += 1;
                    continue;
                }
                class::NEWLINE => {
                    self.line += 1;
                    self.pos += 1;
                    continue;
                }
                class::IDENT => {
                    let rest = &bytes[start + 1..];
                    let len = rest
                        .iter()
                        .position(|&c| class::TABLE[usize::from(c)] & class::CONTINUES == 0)
                        .unwrap_or(rest.len());
                    self.pos = start + 1 + len;
                    Tok::Ident(&self.src[start..self.pos])
                }
                class::PUNCT => {
                    self.pos += 1;
                    Tok::Punct(b)
                }
                class::SLASH if bytes.get(start + 1) == Some(&b'/') => {
                    self.pos = match bytes[start + 2..].iter().position(|&c| c == b'\n') {
                        Some(k) => {
                            self.line += 1;
                            start + 2 + k + 1
                        }
                        None => bytes.len(),
                    };
                    continue;
                }
                class::SLASH if bytes.get(start + 1) == Some(&b'*') => {
                    // An unterminated block comment runs to the end.
                    let end = bytes[start + 2..]
                        .windows(2)
                        .position(|w| w == b"*/")
                        .map_or(bytes.len(), |k| start + 2 + k + 2);
                    self.line += bytes[start..end].iter().filter(|&&c| c == b'\n').count();
                    self.pos = end;
                    continue;
                }
                class::ONE
                    if bytes[start..].starts_with(b"1'b0")
                        || bytes[start..].starts_with(b"1'b1") =>
                {
                    self.pos += 4;
                    Tok::Literal(bytes[start + 3] == b'1')
                }
                class::BACKSLASH => {
                    // Escaped identifier: runs to (Unicode) whitespace.
                    self.pos = escaped_end(self.src, start + 1);
                    Tok::Ident(&self.src[start + 1..self.pos])
                }
                _ => {
                    let c = self.src[start..]
                        .chars()
                        .next()
                        .expect("at a char boundary");
                    if !c.is_whitespace() {
                        return (self.line, Tok::Bad);
                    }
                    self.pos += c.len_utf8();
                    continue;
                }
            };
            return (self.line, tok);
        }
    }

    /// The error for the [`Tok::Bad`] character the lexer stopped on.
    fn bad_char(&self) -> ParseVerilogError {
        let c = self.src[self.pos..]
            .chars()
            .next()
            .expect("stopped on a character");
        ParseVerilogError {
            line: self.line,
            kind: ParseVerilogErrorKind::Unsupported(format!("character {c:?}")),
        }
    }
}

/// The end of an escaped identifier whose text starts at `from`: the first
/// whitespace character, ASCII or not, or the end of the source.
fn escaped_end(src: &str, from: usize) -> usize {
    let bytes = src.as_bytes();
    let mut i = from;
    while let Some(&b) = bytes.get(i) {
        if b.is_ascii() {
            if class::TABLE[usize::from(b)] & !class::CONTINUES == class::SPACE || b == b'\n' {
                break;
            }
            i += 1;
        } else {
            let c = src[i..].chars().next().expect("at a char boundary");
            if c.is_whitespace() {
                break;
            }
            i += c.len_utf8();
        }
    }
    i
}

/// A recursive-descent cursor one token ahead of the grammar.
struct Parser<'a> {
    lexer: Lexer<'a>,
    peeked: Tok<'a>,
    /// The line of the peeked token, or at the end of the source the line
    /// of the last token (1 if there was none).
    line: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        let mut p = Parser {
            lexer: Lexer {
                src,
                pos: 0,
                line: 1,
            },
            peeked: Tok::Eof,
            line: 1,
        };
        p.advance();
        p
    }

    fn advance(&mut self) {
        let (line, tok) = self.lexer.next_token();
        if tok != Tok::Eof {
            self.line = line;
        }
        self.peeked = tok;
    }

    /// The first bad character from the lexer's position on, if any. A
    /// bad character anywhere in the file outranks a grammar error before
    /// it, so every parse error is checked against the rest of the input.
    fn bad_char_in_rest(&mut self) -> Option<ParseVerilogError> {
        loop {
            match self.lexer.next_token().1 {
                Tok::Eof => return None,
                Tok::Bad => return Some(self.lexer.bad_char()),
                _ => {}
            }
        }
    }

    fn line(&self) -> usize {
        self.line
    }

    fn peek(&self) -> Tok<'a> {
        self.peeked
    }

    fn next(&mut self) -> Result<Tok<'a>, ParseVerilogError> {
        match self.peeked {
            Tok::Eof => Err(ParseVerilogError {
                line: self.line,
                kind: ParseVerilogErrorKind::UnexpectedEof,
            }),
            Tok::Bad => Err(self.lexer.bad_char()),
            tok => {
                self.advance();
                Ok(tok)
            }
        }
    }

    fn expect_punct(&mut self, c: u8) -> Result<(), ParseVerilogError> {
        let line = self.line();
        match self.next()? {
            Tok::Punct(p) if p == c => Ok(()),
            other => Err(ParseVerilogError {
                line,
                kind: ParseVerilogErrorKind::Expected {
                    wanted: format!("{:?}", char::from(c)),
                    found: other.to_string(),
                },
            }),
        }
    }

    fn expect_ident(&mut self) -> Result<&'a str, ParseVerilogError> {
        let line = self.line();
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(ParseVerilogError {
                line,
                kind: ParseVerilogErrorKind::Expected {
                    wanted: "identifier".into(),
                    found: other.to_string(),
                },
            }),
        }
    }

    /// Parses `name, name, ... ;` into `names`.
    fn ident_list_until_semi(&mut self, names: &mut Vec<&'a str>) -> Result<(), ParseVerilogError> {
        names.clear();
        names.push(self.expect_ident()?);
        loop {
            let line = self.line();
            match self.next()? {
                Tok::Punct(b';') => return Ok(()),
                Tok::Punct(b',') => names.push(self.expect_ident()?),
                other => {
                    return Err(ParseVerilogError {
                        line,
                        kind: ParseVerilogErrorKind::Expected {
                            wanted: "',' or ';'".into(),
                            found: other.to_string(),
                        },
                    })
                }
            }
        }
    }
}

/// Parses a single flat gate-level module into a [`Netlist`] over `library`.
///
/// See the [crate documentation](crate) for the accepted subset. The
/// returned netlist is validated structurally before being returned.
///
/// # Errors
///
/// Returns a [`ParseVerilogError`] with a 1-based line number on syntax
/// errors, unknown cells/pins, arity mismatches, multiply-driven nets, and
/// unsupported constructs. A character outside the subset is reported
/// wherever it is, ahead of any other error.
pub fn parse_verilog(src: &str, library: Arc<CellLibrary>) -> Result<Netlist, ParseVerilogError> {
    let mut p = Parser::new(src);
    parse_module(&mut p, library).map_err(|e| p.bad_char_in_rest().unwrap_or(e))
}

/// A declaration after the first instance or `assign`.
fn late_declaration(line: usize) -> ParseVerilogError {
    ParseVerilogError {
        line,
        kind: ParseVerilogErrorKind::Unsupported("declaration after instances".into()),
    }
}

fn parse_module<'a>(
    p: &mut Parser<'a>,
    library: Arc<CellLibrary>,
) -> Result<Netlist, ParseVerilogError> {
    // module NAME ( ports ) ;
    let line = p.line();
    match p.peek() {
        Tok::Ident("module") => {
            p.next()?;
        }
        _ => {
            return Err(ParseVerilogError {
                line,
                kind: ParseVerilogErrorKind::Empty,
            })
        }
    }
    let module_name = p.expect_ident()?;
    p.expect_punct(b'(')?;
    // Skip the port list (names repeated in input/output declarations).
    loop {
        match p.next()? {
            Tok::Punct(b')') => break,
            Tok::Ident(_) | Tok::Punct(b',') => {}
            other => {
                return Err(ParseVerilogError {
                    line: p.line(),
                    kind: ParseVerilogErrorKind::Expected {
                        wanted: "port name".into(),
                        found: other.to_string(),
                    },
                })
            }
        }
    }
    p.expect_punct(b';')?;

    let mut netlist = Netlist::new(module_name, library.clone());
    // Names come from files others hand back, so the tables keep std's
    // keyed SipHash: a multiplicative hash has collisions a crafted file
    // could use to make every lookup linear. A written netlist spends
    // well over 48 bytes of source per net.
    let mut nets: HashMap<&'a str, NetId> = HashMap::with_capacity(p.lexer.src.len() / 48);
    let mut cells: HashMap<&'a str, CellId> = HashMap::with_capacity(library.len());
    let mut names: Vec<&'a str> = Vec::new();
    let mut pins = Pins::default();
    // Declarations must precede every instance and `assign`.
    let mut in_body = false;
    let mut instance_counter = 0usize;

    loop {
        let line = p.line();
        match p.next()? {
            Tok::Ident("endmodule") => break,
            Tok::Ident("input") => {
                if in_body {
                    return Err(late_declaration(line));
                }
                p.ident_list_until_semi(&mut names)?;
                for &name in &names {
                    match nets.entry(name) {
                        Entry::Occupied(_) => {
                            return Err(ParseVerilogError {
                                line,
                                kind: ParseVerilogErrorKind::MultipleDrivers(name.to_owned()),
                            })
                        }
                        Entry::Vacant(slot) => {
                            slot.insert(netlist.add_primary_input(name));
                        }
                    }
                }
            }
            Tok::Ident("output") => {
                if in_body {
                    return Err(late_declaration(line));
                }
                p.ident_list_until_semi(&mut names)?;
                for &name in &names {
                    let id = *nets.entry(name).or_insert_with(|| netlist.add_net(name));
                    netlist.set_primary_output(id);
                }
            }
            Tok::Ident("wire") => {
                if in_body {
                    return Err(late_declaration(line));
                }
                p.ident_list_until_semi(&mut names)?;
                for &name in &names {
                    nets.entry(name).or_insert_with(|| netlist.add_net(name));
                }
            }
            Tok::Ident("assign") => {
                in_body = true;
                // assign net = 1'b0 ; | assign net = net2 ; (buffer alias is
                // unsupported: netlists use BUF cells instead).
                let name = p.expect_ident()?;
                p.expect_punct(b'=')?;
                let val_line = p.line();
                let value = match p.next()? {
                    Tok::Literal(b) => b,
                    other => {
                        return Err(ParseVerilogError {
                            line: val_line,
                            kind: ParseVerilogErrorKind::Unsupported(format!(
                                "assign from {other}"
                            )),
                        })
                    }
                };
                p.expect_punct(b';')?;
                match nets.entry(name) {
                    // The arena has no "retype", so a constant must be
                    // declared by its `assign` alone.
                    Entry::Occupied(_) => {
                        return Err(ParseVerilogError {
                            line,
                            kind: ParseVerilogErrorKind::Unsupported(
                                "assign to a declared net (declare via assign only)".into(),
                            ),
                        })
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(netlist.add_constant(name, value));
                    }
                }
            }
            Tok::Ident(cell_name) => {
                in_body = true;
                let cell = match cells.entry(cell_name) {
                    Entry::Occupied(hit) => *hit.get(),
                    Entry::Vacant(slot) => {
                        *slot.insert(library.cell_by_name(cell_name).ok_or_else(|| {
                            ParseVerilogError {
                                line,
                                kind: ParseVerilogErrorKind::UnknownCell(cell_name.to_owned()),
                            }
                        })?)
                    }
                };
                let inst_name = match p.peek() {
                    Tok::Ident(_) => Some(p.expect_ident()?),
                    _ => None,
                };
                let arity = library.cell(cell).arity();
                let output = parse_connections(p, &mut netlist, &mut nets, arity, line, &mut pins)?;
                if !matches!(netlist.net(output).driver(), NetDriver::None) {
                    return Err(ParseVerilogError {
                        line,
                        kind: ParseVerilogErrorKind::MultipleDrivers(
                            netlist.net(output).name().to_owned(),
                        ),
                    });
                }
                match inst_name {
                    Some(name) => netlist.add_gate_driving(name, cell, &pins.inputs, output),
                    None => {
                        instance_counter += 1;
                        let name = format!("_u{instance_counter}");
                        netlist.add_gate_driving(name, cell, &pins.inputs, output)
                    }
                };
            }
            other => {
                return Err(ParseVerilogError {
                    line,
                    kind: ParseVerilogErrorKind::Expected {
                        wanted: "declaration, instance or endmodule".into(),
                        found: other.to_string(),
                    },
                })
            }
        }
    }

    // The grammar is one flat module: anything after `endmodule` (a
    // second module, stray text) is rejected rather than silently
    // dropped, so concatenated or corrupted files cannot half-parse.
    let tok = p.peek();
    if tok != Tok::Eof {
        return Err(ParseVerilogError {
            line: p.line(),
            kind: ParseVerilogErrorKind::Unsupported(format!(
                "trailing input after endmodule (starting with {tok})"
            )),
        });
    }

    netlist.validate().map_err(|e| ParseVerilogError {
        line: 1,
        kind: ParseVerilogErrorKind::BadConnections(e.to_string()),
    })?;
    Ok(netlist)
}

/// One instance's connections, reused from instance to instance.
#[derive(Default)]
struct Pins {
    /// Slot 0 is the output `Y`, slot `1 + i` input pin `i`.
    slots: Vec<Option<NetId>>,
    /// The connected inputs in pin order, once complete.
    inputs: Vec<NetId>,
}

/// Parses `( connections ) ;` of a cell with `arity` inputs, leaving the
/// inputs in `pins.inputs` and returning the output net.
fn parse_connections<'a>(
    p: &mut Parser<'a>,
    netlist: &mut Netlist,
    nets: &mut HashMap<&'a str, NetId>,
    arity: usize,
    inst_line: usize,
    pins: &mut Pins,
) -> Result<NetId, ParseVerilogError> {
    p.expect_punct(b'(')?;
    pins.slots.clear();
    pins.slots.resize(arity + 1, None);
    // The first repeated named pin, reported once the list has parsed.
    let mut duplicate: Option<usize> = None;
    let mut positional = 0usize;
    let mut is_named = None;
    let mixed = |line| ParseVerilogError {
        line,
        kind: ParseVerilogErrorKind::BadConnections("mixed named and positional ports".into()),
    };
    loop {
        let line = p.line();
        match p.next()? {
            Tok::Punct(b')') => break,
            Tok::Punct(b',') => {}
            Tok::Punct(b'.') => {
                if is_named == Some(false) {
                    return Err(mixed(line));
                }
                is_named = Some(true);
                let pin_name = p.expect_ident()?;
                p.expect_punct(b'(')?;
                let net_name = p.expect_ident()?;
                p.expect_punct(b')')?;
                // An undeclared net is an implicit wire.
                let net = *nets
                    .entry(net_name)
                    .or_insert_with(|| netlist.add_net(net_name));
                let slot = if pin_name.eq_ignore_ascii_case("Y") {
                    0
                } else {
                    match pin_index(pin_name) {
                        Some(i) if i < arity => i + 1,
                        _ => {
                            return Err(ParseVerilogError {
                                line,
                                kind: ParseVerilogErrorKind::UnknownPin(pin_name.to_owned()),
                            })
                        }
                    }
                };
                if pins.slots[slot].replace(net).is_some() && duplicate.is_none() {
                    duplicate = Some(slot);
                }
            }
            Tok::Ident(net_name) => {
                if is_named == Some(true) {
                    return Err(mixed(line));
                }
                is_named = Some(false);
                let net = *nets
                    .entry(net_name)
                    .or_insert_with(|| netlist.add_net(net_name));
                if let Some(slot) = pins.slots.get_mut(positional) {
                    *slot = Some(net);
                }
                positional += 1;
            }
            other => {
                return Err(ParseVerilogError {
                    line,
                    kind: ParseVerilogErrorKind::Expected {
                        wanted: "port connection".into(),
                        found: other.to_string(),
                    },
                })
            }
        }
    }
    p.expect_punct(b';')?;

    let bad = |message: String| ParseVerilogError {
        line: inst_line,
        kind: ParseVerilogErrorKind::BadConnections(message),
    };
    if is_named == Some(true) {
        match duplicate {
            Some(0) => return Err(bad("duplicate output pin".into())),
            Some(slot) => {
                return Err(bad(format!(
                    "duplicate input pin {}",
                    crate::input_pin_name(slot - 1)
                )))
            }
            None => {}
        }
        let output = pins.slots[0].ok_or_else(|| bad("missing output pin Y".into()))?;
        pins.inputs.clear();
        for slot in &pins.slots[1..] {
            pins.inputs
                .push(slot.ok_or_else(|| bad("missing input pin".into()))?);
        }
        Ok(output)
    } else {
        // Positional: output first, then inputs.
        if positional != arity + 1 {
            return Err(bad(format!(
                "expected {} connections, found {positional}",
                arity + 1
            )));
        }
        pins.inputs.clear();
        pins.inputs.extend(
            pins.slots[1..]
                .iter()
                .map(|s| s.expect("every slot filled")),
        );
        Ok(pins.slots[0].expect("output slot filled"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> Arc<CellLibrary> {
        CellLibrary::standard()
    }

    #[test]
    fn named_ports() {
        let src = "\
module m (a, b, y);
  input a, b;
  output y;
  wire t;
  AND2 u1 (.A(a), .B(b), .Y(t));
  INV u2 (.A(t), .Y(y));
endmodule
";
        let n = parse_verilog(src, lib()).unwrap();
        assert_eq!(n.name(), "m");
        assert_eq!(n.num_gates(), 2);
        assert_eq!(n.eval(&[true, true]), vec![false]);
        assert_eq!(n.eval(&[false, true]), vec![true]);
    }

    #[test]
    fn trailing_input_after_endmodule_is_rejected() {
        let one = "module m (a, y);\ninput a;\noutput y;\nINV u1 (.A(a), .Y(y));\nendmodule\n";
        assert!(parse_verilog(one, lib()).is_ok());
        for trailing in [
            // A second module (concatenated files) must not half-parse.
            "module m2 (b, z);\ninput b;\noutput z;\nINV u2 (.A(b), .Y(z));\nendmodule\n",
            "garbage\n",
        ] {
            let e = parse_verilog(&format!("{one}{trailing}"), lib()).unwrap_err();
            assert!(
                e.to_string().contains("trailing input after endmodule"),
                "{e}"
            );
        }
    }

    #[test]
    fn positional_ports_output_first() {
        let src = "module m (a, y);\ninput a;\noutput y;\nINV u1 (y, a);\nendmodule\n";
        let n = parse_verilog(src, lib()).unwrap();
        assert_eq!(n.eval(&[false]), vec![true]);
    }

    #[test]
    fn comments_and_shuffled_pin_order() {
        let src = "\
// line comment
module m (a, b, y); /* block
   comment */
  input a, b; output y;
  NOR2 u1 (.Y(y), .B(b), .A(a));
endmodule
";
        let n = parse_verilog(src, lib()).unwrap();
        assert_eq!(n.eval(&[false, false]), vec![true]);
    }

    #[test]
    fn constants_via_assign() {
        let src = "\
module m (a, y);
  input a;
  output y;
  assign one = 1'b1;
  AND2 u1 (.A(a), .B(one), .Y(y));
endmodule
";
        let n = parse_verilog(src, lib()).unwrap();
        assert_eq!(n.eval(&[true]), vec![true]);
        assert_eq!(n.eval(&[false]), vec![false]);
    }

    #[test]
    fn unknown_cell_rejected() {
        let src = "module m (y);\noutput y;\nMUX21 u1 (.Y(y));\nendmodule\n";
        let e = parse_verilog(src, lib()).unwrap_err();
        assert!(matches!(e.kind, ParseVerilogErrorKind::UnknownCell(_)));
        assert_eq!(e.line, 3);
    }

    #[test]
    fn unknown_pin_rejected() {
        let src = "module m (a, y);\ninput a;\noutput y;\nINV u1 (.Q(y), .A(a));\nendmodule\n";
        let e = parse_verilog(src, lib()).unwrap_err();
        assert!(matches!(e.kind, ParseVerilogErrorKind::UnknownPin(_)));
    }

    #[test]
    fn pin_out_of_arity_rejected() {
        let src = "module m (a, y);\ninput a;\noutput y;\nINV u1 (.B(a), .Y(y));\nendmodule\n";
        let e = parse_verilog(src, lib()).unwrap_err();
        assert!(matches!(e.kind, ParseVerilogErrorKind::UnknownPin(_)));
    }

    #[test]
    fn missing_output_rejected() {
        let src = "module m (a, b);\ninput a, b;\nAND2 u1 (.A(a), .B(b));\nendmodule\n";
        let e = parse_verilog(src, lib()).unwrap_err();
        assert!(matches!(e.kind, ParseVerilogErrorKind::BadConnections(_)));
    }

    #[test]
    fn double_driver_rejected() {
        let src = "\
module m (a, y);
  input a;
  output y;
  INV u1 (.A(a), .Y(y));
  INV u2 (.A(a), .Y(y));
endmodule
";
        let e = parse_verilog(src, lib()).unwrap_err();
        assert!(matches!(e.kind, ParseVerilogErrorKind::MultipleDrivers(_)));
    }

    #[test]
    fn wrong_positional_count_rejected() {
        let src = "module m (a, y);\ninput a;\noutput y;\nAND2 u1 (y, a);\nendmodule\n";
        let e = parse_verilog(src, lib()).unwrap_err();
        assert!(matches!(e.kind, ParseVerilogErrorKind::BadConnections(_)));
    }

    #[test]
    fn empty_input_rejected() {
        let e = parse_verilog("// nothing\n", lib()).unwrap_err();
        assert!(matches!(e.kind, ParseVerilogErrorKind::Empty));
    }

    #[test]
    fn eof_mid_module_rejected() {
        let e = parse_verilog("module m (a);\ninput a;\n", lib()).unwrap_err();
        assert!(matches!(e.kind, ParseVerilogErrorKind::UnexpectedEof));
    }

    #[test]
    fn escaped_identifiers() {
        let src = "module m (\\a[0] , y);\ninput \\a[0] ;\noutput y;\nINV u1 (.A(\\a[0] ), .Y(y));\nendmodule\n";
        let n = parse_verilog(src, lib()).unwrap();
        assert_eq!(n.primary_inputs().len(), 1);
        assert_eq!(n.net(n.primary_inputs()[0]).name(), "a[0]");
        assert_eq!(n.eval(&[true]), vec![false]);
    }

    #[test]
    fn unicode_whitespace_separates_tokens_without_ending_lines() {
        // `char::is_whitespace`, not ASCII whitespace: U+00A0, U+2028,
        // U+0085, U+3000 and VT all separate tokens, and only `\n` counts
        // as a line end.
        let src = "module m (a,\u{a0}y);\u{2028}input\u{3000}a;\x0boutput\u{85}y;\n\
                   INV u1 (.A(a), .Y(y));\u{2029}MUX21 u2 (.Y(y));\nendmodule\n";
        let e = parse_verilog(src, lib()).unwrap_err();
        assert_eq!(e.kind, ParseVerilogErrorKind::UnknownCell("MUX21".into()));
        assert_eq!(e.line, 2);
        // A non-whitespace non-ASCII character is still rejected, by name.
        let e = parse_verilog("module m (a);\ninput a;\u{e9}\n", lib()).unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(
            e.kind,
            ParseVerilogErrorKind::Unsupported("character '\u{e9}'".into())
        );
    }

    #[test]
    fn escaped_identifier_ends_at_unicode_whitespace() {
        let src = "module m (\\a[0]\u{a0}, y);\ninput \\a[0]\u{2028};\noutput y;\n\
                   INV u1 (.A(\\a[0]\u{3000}), .Y(\\y\x0b));\nendmodule\n";
        let n = parse_verilog(src, lib()).unwrap();
        assert_eq!(n.net(n.primary_inputs()[0]).name(), "a[0]");
        assert_eq!(n.num_nets(), 2, "y names one net however it is spelled");
        assert_eq!(n.eval(&[true]), vec![false]);
        // Other non-ASCII characters belong to the name.
        let src = "module m (x, y);\ninput \\\u{e9}\u{2192}x ;\noutput y;\n\
                   INV u1 (.A(\\\u{e9}\u{2192}x\u{85}), .Y(y));\nendmodule\n";
        let n = parse_verilog(src, lib()).unwrap();
        assert_eq!(n.net(n.primary_inputs()[0]).name(), "\u{e9}\u{2192}x");
        assert_eq!(n.num_nets(), 2);
    }

    #[test]
    fn a_bad_character_outranks_an_earlier_grammar_error() {
        // The whole file is lexed before any grammar error is reported.
        let src = "module m (a, y);\ninput a a;\noutput y;\n#\nendmodule\n";
        let e = parse_verilog(src, lib()).unwrap_err();
        assert_eq!(e.line, 4);
        assert_eq!(
            e.kind,
            ParseVerilogErrorKind::Unsupported("character '#'".into())
        );
    }

    #[test]
    fn block_comment_line_numbers_tracked() {
        let src = "module m (a, y);\n/* one\n   two\n   three */\ninput a;\noutput y;\nMUX21 u (.Y(y));\nendmodule\n";
        let e = parse_verilog(src, lib()).unwrap_err();
        assert_eq!(e.line, 7, "line numbers must survive block comments");
    }

    #[test]
    fn anonymous_instances_get_names() {
        let src = "module m (a, y);\ninput a;\noutput y;\nINV (.A(a), .Y(y));\nendmodule\n";
        let n = parse_verilog(src, lib()).unwrap();
        assert_eq!(n.num_gates(), 1);
        assert!(n.gate_by_name("_u1").is_some());
    }
}

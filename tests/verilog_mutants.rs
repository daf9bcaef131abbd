//! Seeded byte-level mutants of a Verilog source, shared by the mutation
//! tests. A mutant is a pure function of the source and its seed, so a
//! failing seed replays anywhere.
//!
//! Each mutant applies one to three edits. Besides bit flips, inserts,
//! deletes and truncation, the edits aim at what a byte-level lexer can get
//! wrong: Unicode whitespace (U+00A0, U+2028), CRLF line ends, a `\`
//! escape directly before whitespace, and a literal cut off at the end of
//! the file. Sources that stop being UTF-8 are read lossily, as a caller
//! holding raw bytes would.

/// SplitMix64: small, seedable and the same on every platform.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` must be positive.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The edit kinds, in the order the generator draws them.
pub const KINDS: [&str; 9] = [
    "flip",
    "insert",
    "delete",
    "truncate",
    "nbsp",
    "line_separator",
    "crlf",
    "backslash_before_space",
    "literal_at_eof",
];

/// Bytes worth inserting: the grammar's punctuation, identifier and
/// literal characters, every ASCII whitespace byte (VT included), and a
/// few that are never legal.
const INSERTS: &[u8] = b"();,.=\\/*1'b_aY09$ \t\n\r\x0b\x0c#\x00\xff";

/// Mutant `seed` of `src`: the edits applied and the mutated source.
pub fn mutant(src: &str, seed: u64) -> (Vec<&'static str>, String) {
    let mut rng = Rng(seed);
    let mut bytes = src.as_bytes().to_vec();
    let mut kinds = Vec::new();
    for _ in 0..1 + rng.below(3) {
        let kind = rng.below(KINDS.len());
        kinds.push(KINDS[kind]);
        let at = rng.below(bytes.len() + 1);
        match kind {
            0 => {
                if let Some(b) = bytes.get_mut(at) {
                    *b ^= 1 << rng.below(8);
                }
            }
            1 => bytes.insert(at, INSERTS[rng.below(INSERTS.len())]),
            2 => {
                let end = (at + 1 + rng.below(8)).min(bytes.len());
                bytes.drain(at..end);
            }
            3 => bytes.truncate(at),
            4 => splice(&mut bytes, at, "\u{a0}".as_bytes()),
            5 => splice(&mut bytes, at, "\u{2028}".as_bytes()),
            6 => {
                // Turn the next line end into CRLF (or add one at the end).
                let nl = bytes[at..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |k| at + k);
                splice(&mut bytes, nl, b"\r");
                if nl == bytes.len() - 1 {
                    bytes.push(b'\n');
                }
            }
            7 => {
                let ws = bytes[at..]
                    .iter()
                    .position(|b| b.is_ascii_whitespace())
                    .map_or(bytes.len(), |k| at + k);
                splice(&mut bytes, ws, b"\\");
            }
            _ => {
                bytes.truncate(at);
                bytes.extend_from_slice(b"1'b");
            }
        }
    }
    (kinds, String::from_utf8_lossy(&bytes).into_owned())
}

fn splice(bytes: &mut Vec<u8>, at: usize, what: &[u8]) {
    bytes.splice(at..at, what.iter().copied());
}

//! Stable content digests for artifacts and journal records.
//!
//! Campaign runs persist fingerprinted netlists to disk and journal
//! every step; both need a digest that is (a) identical across runs,
//! platforms, and Rust releases — unlike `std::hash` hashers, whose
//! output is explicitly unstable — and (b) dependency-free. FNV-1a over
//! 64 bits fits: trivially portable, fast on short records, and strong
//! enough to flag torn writes, truncation, and bit rot (the threat model
//! here is *corruption*, not an adversary forging collisions — suspect
//! netlists are re-verified functionally, never trusted by digest).
//!
//! Digests render as `fnv1a64:<16 lowercase hex digits>` so journals
//! stay self-describing if the algorithm is ever upgraded.
//!
//! Two widths exist with distinct roles:
//!
//! * [`Digest`] (64-bit) — torn-write and corruption detection: journal
//!   line CRCs, resume-time artifact intactness. Collisions only matter
//!   if corruption happens to collide, so 64 bits is ample.
//! * [`Digest128`] (128-bit) — artifact *identity* at population scale.
//!   With n distinct artifacts the 64-bit birthday bound is about
//!   n²/2^65 (≈ 2.7×10⁻⁸ at n = 10⁶ — small per campaign, but a fleet
//!   of campaigns multiplies it, and an identity collision silently
//!   aliases two buyers). At 128 bits the bound is n²/2^129 ≈ 5×10⁻²⁷:
//!   negligible forever. Codebooks therefore key artifact identity by
//!   `fnv1a128:<32 hex>`.

use std::fmt;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 128-bit offset basis.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime: 2^88 + 2^8 + 0x3b.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A 64-bit FNV-1a content digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest(pub u64);

impl Digest {
    /// Digests a byte string in one call.
    pub fn of(bytes: &[u8]) -> Digest {
        let mut d = Digester::new();
        d.update(bytes);
        d.finish()
    }

    /// Parses the `fnv1a64:<hex>` rendering back into a digest.
    ///
    /// Returns `None` for any other shape — unknown scheme, wrong width,
    /// non-hex digits — so journal readers treat malformed digests as
    /// corruption rather than guessing.
    pub fn parse(text: &str) -> Option<Digest> {
        let hex = text.strip_prefix("fnv1a64:")?;
        if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(hex, 16).ok().map(Digest)
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fnv1a64:{:016x}", self.0)
    }
}

/// Incremental FNV-1a 64 state, for digesting streams without buffering.
#[derive(Debug, Clone)]
pub struct Digester {
    state: u64,
}

impl Digester {
    /// Fresh state at the FNV offset basis.
    pub fn new() -> Digester {
        Digester { state: FNV_OFFSET }
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.state = h;
    }

    /// The digest of everything folded in so far.
    pub fn finish(&self) -> Digest {
        Digest(self.state)
    }
}

impl Default for Digester {
    fn default() -> Self {
        Digester::new()
    }
}

/// A 128-bit FNV-1a content digest, for artifact identity.
///
/// See the module docs for when to prefer this over [`Digest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest128(pub u128);

impl Digest128 {
    /// Digests a byte string in one call.
    pub fn of(bytes: &[u8]) -> Digest128 {
        let mut d = Digester128::new();
        d.update(bytes);
        d.finish()
    }

    /// Parses the `fnv1a128:<hex>` rendering back into a digest.
    ///
    /// Returns `None` for any other shape — unknown scheme, wrong width,
    /// non-hex digits — mirroring [`Digest::parse`].
    pub fn parse(text: &str) -> Option<Digest128> {
        let hex = text.strip_prefix("fnv1a128:")?;
        if hex.len() != 32 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u128::from_str_radix(hex, 16).ok().map(Digest128)
    }
}

impl fmt::Display for Digest128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fnv1a128:{:032x}", self.0)
    }
}

/// Incremental FNV-1a 128 state, for digesting streams without buffering.
#[derive(Debug, Clone)]
pub struct Digester128 {
    state: u128,
}

impl Digester128 {
    /// Fresh state at the FNV-1a 128 offset basis.
    pub fn new() -> Digester128 {
        Digester128 {
            state: FNV128_OFFSET,
        }
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for &b in bytes {
            h ^= u128::from(b);
            h = h.wrapping_mul(FNV128_PRIME);
        }
        self.state = h;
    }

    /// The digest of everything folded in so far.
    pub fn finish(&self) -> Digest128 {
        Digest128(self.state)
    }
}

impl Default for Digester128 {
    fn default() -> Self {
        Digester128::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_vectors() {
        // Reference vectors from the FNV specification (Noll).
        assert_eq!(Digest::of(b"").0, 0xcbf29ce484222325);
        assert_eq!(Digest::of(b"a").0, 0xaf63dc4c8601ec8c);
        assert_eq!(Digest::of(b"foobar").0, 0x85944171f73967e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut d = Digester::new();
        d.update(b"foo");
        d.update(b"");
        d.update(b"bar");
        assert_eq!(d.finish(), Digest::of(b"foobar"));
    }

    #[test]
    fn display_parse_roundtrip() {
        let d = Digest::of(b"campaign");
        let text = d.to_string();
        assert!(text.starts_with("fnv1a64:"));
        assert_eq!(text.len(), "fnv1a64:".len() + 16);
        assert_eq!(Digest::parse(&text), Some(d));
    }

    #[test]
    fn parse_rejects_malformed_renderings() {
        for bad in [
            "",
            "fnv1a64:",
            "fnv1a64:123",               // too short
            "fnv1a64:00000000000000000", // too long
            "fnv1a64:00000000000000zz",  // non-hex
            "sha256:0000000000000000",   // wrong scheme
            "0000000000000000",          // no scheme
        ] {
            assert_eq!(Digest::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn matches_published_fnv1a128_vectors() {
        // Reference vectors from the FNV specification (Noll), 128-bit.
        assert_eq!(Digest128::of(b"").0, 0x6c62272e07bb014262b821756295c58d);
        assert_eq!(Digest128::of(b"a").0, 0xd228cb696f1a8caf78912b704e4a8964);
        assert_eq!(
            Digest128::of(b"foobar").0,
            0x343e1662793c64bf6f0d3597ba446f18
        );
    }

    #[test]
    fn digest128_streaming_display_parse_roundtrip() {
        let mut d = Digester128::new();
        d.update(b"camp");
        d.update(b"aign");
        let one = d.finish();
        assert_eq!(one, Digest128::of(b"campaign"));
        let text = one.to_string();
        assert!(text.starts_with("fnv1a128:"));
        assert_eq!(text.len(), "fnv1a128:".len() + 32);
        assert_eq!(Digest128::parse(&text), Some(one));
        // 64-bit renderings must not parse as 128-bit and vice versa.
        assert_eq!(Digest128::parse(&Digest::of(b"campaign").to_string()), None);
        assert_eq!(Digest::parse(&text), None);
    }

    #[test]
    fn distinct_content_distinct_digest() {
        // Not a collision-resistance claim — just a sanity check that
        // nearby inputs (the realistic corruption shapes) separate.
        let base = Digest::of(b"module m(); endmodule\n");
        assert_ne!(Digest::of(b"module m(); endmodule"), base); // truncated
        assert_ne!(Digest::of(b"module n(); endmodule\n"), base); // bit flip
    }
}

//! A minimal, dependency-free stand-in for the `proptest` crate.
//!
//! Offline builds of this workspace cannot download crates, so this
//! vendored crate implements exactly the subset of the proptest API the
//! repository's property tests use:
//!
//! * the [`Strategy`] trait with [`Strategy::prop_map`];
//! * strategies for integer ranges, [`any`], [`Just`], tuples,
//!   [`collection::vec`] and a small `[class]{lo,hi}` regex-string subset;
//! * the [`proptest!`], [`prop_oneof!`], [`prop_assert!`] and
//!   [`prop_assert_eq!`] macros;
//! * [`ProptestConfig::with_cases`].
//!
//! Unlike the real crate there is **no shrinking** and no persistence:
//! cases are generated from a deterministic per-test seed, so failures
//! reproduce exactly but are reported at their original (unshrunk) size.

#![forbid(unsafe_code)]

/// Everything a test file needs, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_oneof, proptest, Arbitrary, Just,
        ProptestConfig, Strategy,
    };
}

/// Mirrors `proptest::prop`: re-exports the collection module.
pub mod prop {
    pub use crate::collection;
}

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` generated inputs per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// The deterministic generator handed to strategies (splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds a generator; the same seed replays the same case.
    pub fn seed(seed: u64) -> Self {
        TestRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// FNV-1a over a test name, for stable per-test seeds.
pub fn seed_for(name: &str, case: u64) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ case.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// A source of random values of an associated type.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// The [`Strategy::prop_map`] combinator.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical whole-domain strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_ints {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// The strategy returned by [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The whole-domain strategy for `T`, mirroring `proptest::prelude::any`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let lo = self.start as u64;
                let hi = self.end as u64;
                assert!(hi > lo, "empty range strategy");
                (lo + rng.below(hi - lo)) as $t
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};

    /// A length specification: an exact size or a range of sizes.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.end > r.start, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy for `Vec`s of `element` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// A uniform choice between boxed strategies (see [`prop_oneof!`]).
pub struct Union<V> {
    options: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> Union<V> {
    /// Builds a union over the given options; must be non-empty.
    pub fn new(options: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let k = rng.below(self.options.len() as u64) as usize;
        self.options[k].generate(rng)
    }
}

/// Boxing helper used by [`prop_oneof!`] so heterogeneous strategy types
/// unify on their value type.
pub trait IntoBoxedStrategy<V> {
    /// Boxes the strategy.
    fn into_boxed(self) -> Box<dyn Strategy<Value = V>>;
}

impl<V, S: Strategy<Value = V> + 'static> IntoBoxedStrategy<V> for S {
    fn into_boxed(self) -> Box<dyn Strategy<Value = V>> {
        Box::new(self)
    }
}

/// String strategies from a tiny regex subset: `[class]{lo,hi}` where the
/// class supports literal characters, `a-z` ranges and `\n`/`\t`/`\\`
/// escapes. This covers the patterns used by the workspace's tests.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (chars, lo, hi) = parse_simple_regex(self)
            .unwrap_or_else(|| panic!("unsupported regex strategy {self:?}"));
        let len = lo + rng.below((hi - lo + 1) as u64) as usize;
        (0..len)
            .map(|_| chars[rng.below(chars.len() as u64) as usize])
            .collect()
    }
}

/// Parses `[class]{lo,hi}` into (alphabet, lo, hi); `None` if unsupported.
fn parse_simple_regex(pat: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let close = rest.find(']')?;
    let class = &rest[..close];
    let counts = rest[close + 1..]
        .strip_prefix('{')?
        .strip_suffix('}')?
        .split_once(',')?;
    let lo: usize = counts.0.parse().ok()?;
    let hi: usize = counts.1.parse().ok()?;
    if hi < lo {
        return None;
    }

    let mut alphabet = Vec::new();
    let mut chars = class.chars().peekable();
    let mut prev: Option<char> = None;
    while let Some(c) = chars.next() {
        match c {
            '\\' => {
                let escaped = match chars.next()? {
                    'n' => '\n',
                    't' => '\t',
                    'r' => '\r',
                    other => other,
                };
                alphabet.push(escaped);
                prev = Some(escaped);
            }
            '-' if prev.is_some() && chars.peek().is_some() => {
                let start = prev.take().expect("checked");
                let end = chars.next()?;
                for code in (start as u32 + 1)..=(end as u32) {
                    alphabet.push(char::from_u32(code)?);
                }
            }
            other => {
                alphabet.push(other);
                prev = Some(other);
            }
        }
    }
    if alphabet.is_empty() {
        return None;
    }
    Some((alphabet, lo, hi))
}

/// Mirrors `proptest::prop_oneof!`: uniform choice among strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $($crate::IntoBoxedStrategy::into_boxed($strategy)),+
        ])
    };
}

/// Mirrors `proptest::prop_assert!` (panics instead of returning `Err`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Mirrors `proptest::prop_assert_eq!` (panics instead of returning `Err`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Mirrors the `proptest!` block macro: expands each contained function
/// into a `#[test]` that generates and runs `cases` deterministic inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[doc = $doc:expr])*
        #[test]
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[doc = $doc])*
        #[test]
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            for case in 0..u64::from(cfg.cases) {
                let mut rng =
                    $crate::TestRng::seed($crate::seed_for(stringify!($name), case));
                $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)+
                $body
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::seed(1);
        for _ in 0..1000 {
            let v = Strategy::generate(&(3u64..17), &mut rng);
            assert!((3..17).contains(&v));
        }
    }

    #[test]
    fn regex_subset_generates_class_members() {
        let mut rng = TestRng::seed(2);
        for _ in 0..200 {
            let s = Strategy::generate(&"[ -~\\n\\t]{0,20}", &mut rng);
            assert!(s.len() <= 20);
            assert!(s
                .chars()
                .all(|c| (' '..='~').contains(&c) || c == '\n' || c == '\t'));
        }
    }

    #[test]
    fn oneof_and_map_compose() {
        let strat = prop::collection::vec(prop_oneof![Just("a".to_owned()), "[bc]{1,2}"], 0..4)
            .prop_map(|parts| parts.join(""));
        let mut rng = TestRng::seed(3);
        for _ in 0..100 {
            let s = Strategy::generate(&strat, &mut rng);
            assert!(s.chars().all(|c| "abc".contains(c)), "{s:?}");
        }
    }

    #[test]
    fn exact_vec_sizes() {
        let mut rng = TestRng::seed(4);
        let v = Strategy::generate(&prop::collection::vec(any::<bool>(), 4), &mut rng);
        assert_eq!(v.len(), 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The macro itself: args bind, asserts work.
        #[test]
        fn macro_smoke(x in 0u32..10, flag in any::<bool>()) {
            prop_assert!(x < 10);
            prop_assert_eq!(flag, flag);
        }
    }
}

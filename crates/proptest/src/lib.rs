//! Offline drop-in subset of the `proptest` crate.
//!
//! The container this workspace builds in has no crates.io access, so
//! the real `proptest` cannot be fetched. The property tests only use a
//! small, well-defined slice of its API — the `proptest!` macro, range
//! and `any::<T>()` strategies, tuple composition, and
//! `prop::collection::vec` — so this crate reimplements exactly that
//! slice on top of a deterministic SplitMix64 stream.
//!
//! Differences from upstream, by design:
//!
//! * **no shrinking** — a failing case reports its seed and case index
//!   instead; rerunning is deterministic, so the failure reproduces,
//! * **deterministic seeding** — the stream is derived from the test
//!   name, so runs are reproducible across machines and never flaky,
//! * `prop_assert*` delegate to `assert*` (a failure panics directly).

use std::ops::Range;

/// Runner configuration. Only `cases` is honored.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each test executes.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` random cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Deterministic SplitMix64 stream for value generation.
#[derive(Clone, Copy, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed a stream.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)` (Lemire widening multiply).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// FNV-1a — stable test-name hashing for seed derivation: the
/// reference offset basis `0xcbf2_9ce4_8422_2325`, but multiplier
/// `0x1000_0000_01b3`, not the reference prime `0x100_0000_01b3` (the
/// same constant `sunbfs-net`'s frame tags, checkpoint and store seals
/// use). Every proptest seed depends on it, so it stays.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.next_below(span) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($(($($n:tt $s:ident),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )+};
}
impl_tuple_strategy! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: Sized {
    /// Draw one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy wrapper for [`Arbitrary`] types.
#[derive(Clone, Copy, Debug, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The full domain of `T` as a strategy (`any::<u64>()`, ...).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Combinator namespaces mirroring `proptest::prop`.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// A strategy producing `Vec`s of a length drawn from `sizes`.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        sizes: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.sizes.end - self.sizes.start).max(1) as u64;
            let len = self.sizes.start + rng.next_below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `prop::collection::vec(element, size_range)`.
    pub fn vec<S: Strategy>(element: S, sizes: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, sizes }
    }
}

/// `proptest::prelude::prop` namespace.
pub mod prop {
    pub use super::collection;
}

/// Everything a property-test file imports.
pub mod prelude {
    pub use super::{
        any, collection, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest,
        Any, Arbitrary, ProptestConfig, Strategy, TestRng,
    };
}

/// Delegates to [`assert!`]; a failing property panics with its message.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Delegates to [`assert_eq!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Delegates to [`assert_ne!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skip the current case when its precondition fails (no replacement
/// case is drawn; the case simply counts as passed).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return;
        }
    };
}

/// The `proptest!` test-definition macro: each `fn name(pat in strategy,
/// ...) { body }` becomes a `#[test]` running `cases` deterministic
/// random cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Expansion backend for [`proptest!`]; the config expression is bound
/// outside any repetition so every generated test can reference it.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        config = ($cfg:expr);
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($p:pat in $s:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let __seed = $crate::fnv1a(concat!(module_path!(), "::", stringify!($name)).as_bytes());
                for __case in 0..__cfg.cases {
                    let mut __rng = $crate::TestRng::new(
                        __seed ^ (__case as u64).wrapping_mul(0xA24B_AED4_963E_E407),
                    );
                    $(let $p = $crate::Strategy::generate(&($s), &mut __rng);)+
                    // The body runs in an immediately-invoked closure so
                    // `prop_assume!` can skip the case with `return`.
                    let mut __run = || { $body };
                    __run();
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(1);
        for _ in 0..1000 {
            let x = (10u64..20).generate(&mut rng);
            assert!((10..20).contains(&x));
            let y = (3usize..4).generate(&mut rng);
            assert_eq!(y, 3);
        }
    }

    #[test]
    fn vec_strategy_respects_sizes() {
        let mut rng = TestRng::new(2);
        for _ in 0..200 {
            let v = collection::vec(0u32..5, 2..7).generate(&mut rng);
            assert!((2..7).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = |seed| {
            let mut rng = TestRng::new(seed);
            (0..16)
                .map(|_| (0u64..1000).generate(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_binds_tuples_and_vecs(
            (a, b) in (0u64..10, 0u64..10),
            mut v in prop::collection::vec(any::<u64>(), 0..20),
            flag in any::<bool>(),
        ) {
            prop_assume!(a + b < 100);
            v.push(a + b);
            prop_assert!(v.len() <= 20);
            prop_assert_eq!(flag, flag);
        }
    }
}

//! Offline stand-in for [`proptest`](https://crates.io/crates/proptest).
//!
//! The build environment has no crates.io access, so this crate
//! reimplements the subset of proptest the workspace's property tests
//! use: the [`proptest!`] test macro, the [`strategy::Strategy`] trait
//! with `prop_map` / `prop_flat_map`, [`strategy::Just`], ranges and
//! tuples as strategies, [`prop_oneof!`] unions, [`collection`] /
//! [`option`] / [`sample`] strategies, `any::<T>()` over an
//! [`strategy::Arbitrary`] trait, and the `prop_assert*` /
//! [`prop_assume!`] macros.
//!
//! Differences from the real crate, deliberately accepted:
//!
//! * **no shrinking** — a failing case (a `prop_assert*` failure or a
//!   panic in the body alike) panics with its case number and message,
//!   but is not minimized
//!   (`max_shrink_iters` in [`test_runner::ProptestConfig`] is
//!   accepted and ignored);
//! * **deterministic seeding** — each test's RNG is seeded from the
//!   hash of its function name, so runs are reproducible and CI-stable
//!   rather than freshly random per run;
//! * the default number of cases is 64 (the real default is 256).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod test_runner {
    //! Test-case plumbing: RNG, config, and the error type the
    //! `prop_assert*` macros return.

    /// Why a single generated case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The case was rejected by `prop_assume!` — generate another.
        Reject(String),
        /// An assertion failed — the whole test fails.
        Fail(String),
    }

    impl TestCaseError {
        /// Creates a failure.
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError::Fail(msg.into())
        }

        /// Creates a rejection.
        pub fn reject(msg: impl Into<String>) -> TestCaseError {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Result of one generated case.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Per-test configuration, usable with struct-update syntax:
    /// `ProptestConfig { cases: 24, ..ProptestConfig::default() }`.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
        /// Accepted for API compatibility; the shim never shrinks.
        pub max_shrink_iters: u32,
        /// Upper bound on `prop_assume!` rejections before giving up.
        pub max_global_rejects: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 64, max_shrink_iters: 0, max_global_rejects: 4096 }
        }
    }

    /// The deterministic RNG driving value generation (xoshiro256++).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        /// Seeds the generator from an arbitrary string (the test name),
        /// so each test gets a distinct but reproducible stream.
        pub fn for_test(name: &str) -> TestRng {
            let mut h: u64 = 0xcbf29ce484222325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            TestRng::from_seed(h)
        }

        /// Seeds the generator from a 64-bit value via SplitMix64.
        pub fn from_seed(seed: u64) -> TestRng {
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            };
            TestRng { s: [next(), next(), next(), next()] }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        /// Uniform value in `[0, bound)`.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "below(0)");
            self.next_u64() % bound
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and basic combinators.

    use super::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike the real proptest there is no value *tree* (no
    /// shrinking): a strategy just samples.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { base: self, f }
        }

        /// Generates a value, then uses it to pick a second strategy to
        /// draw the final value from.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { base: self, f }
        }

        /// Generates values satisfying `pred`, panicking after too many
        /// consecutive rejections.
        fn prop_filter<F>(self, whence: &'static str, pred: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter { base: self, whence, pred }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy { inner: Box::new(self) }
        }
    }

    /// Object-safe view of [`Strategy`], used by [`BoxedStrategy`].
    pub trait DynStrategy {
        /// The type of generated values.
        type Value;
        /// Draws one value.
        fn sample_dyn(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl<S: Strategy> DynStrategy for S {
        type Value = S::Value;
        fn sample_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.sample(rng)
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<V> {
        inner: Box<dyn DynStrategy<Value = V>>,
    }

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn sample(&self, rng: &mut TestRng) -> V {
            self.inner.sample_dyn(rng)
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        base: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.base.sample(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        base: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn sample(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.base.sample(rng)).sample(rng)
        }
    }

    /// See [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        base: S,
        whence: &'static str,
        pred: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.base.sample(rng);
                if (self.pred)(&v) {
                    return v;
                }
            }
            panic!("prop_filter gave up after 1000 rejections: {}", self.whence)
        }
    }

    /// Weighted choice between boxed strategies; built by
    /// [`prop_oneof!`](crate::prop_oneof).
    pub struct Union<V> {
        arms: Vec<(u32, BoxedStrategy<V>)>,
        total: u64,
    }

    impl<V> Union<V> {
        /// Creates a union from `(weight, strategy)` arms.
        pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<V>)>) -> Union<V> {
            let total = arms.iter().map(|(w, _)| *w as u64).sum();
            assert!(total > 0, "prop_oneof! needs at least one arm with weight > 0");
            Union { arms, total }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn sample(&self, rng: &mut TestRng) -> V {
            let mut pick = rng.below(self.total);
            for (w, s) in &self.arms {
                if pick < *w as u64 {
                    return s.sample(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weights are exhaustive")
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    // In u128 so a full-width 64-bit range (span 2^64)
                    // does not wrap to 0.
                    let span = (hi as i128).wrapping_sub(lo as i128) as u128 + 1;
                    let raw = if span > u64::MAX as u128 {
                        rng.next_u64()
                    } else {
                        rng.below(span as u64)
                    };
                    (lo as i128).wrapping_add(raw as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);

    /// Values with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Draws an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    // Bias 1-in-8 draws toward boundary values, which is
                    // where codec/overflow bugs live.
                    if rng.below(8) == 0 {
                        match rng.below(3) {
                            0 => 0 as $t,
                            1 => 1 as $t,
                            _ => <$t>::MAX,
                        }
                    } else {
                        rng.next_u64() as $t
                    }
                }
            }
        )*};
    }

    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.below(2) == 1
        }
    }

    /// String strategies from a regex-like pattern, as in the real
    /// proptest. The shim supports the subset this workspace's tests
    /// use: a single atom — `.` (any char) or a `[...]` class of
    /// literals and `a-z` ranges — followed by a `{n}` / `{lo,hi}`
    /// repetition. Anything else panics with a clear message.
    impl Strategy for &'static str {
        type Value = String;
        fn sample(&self, rng: &mut TestRng) -> String {
            let (chars, lo, hi) = parse_simple_regex(self);
            let n = lo + rng.below((hi - lo + 1) as u64) as usize;
            (0..n)
                .map(|_| match &chars {
                    CharSet::Any => {
                        // Mostly printable ASCII, sometimes an arbitrary
                        // scalar, so UTF-8 handling gets exercised.
                        if rng.below(8) == 0 {
                            loop {
                                if let Some(c) = char::from_u32(rng.below(0x110000) as u32) {
                                    break c;
                                }
                            }
                        } else {
                            char::from_u32(0x20 + rng.below(0x5f) as u32).unwrap()
                        }
                    }
                    CharSet::Of(set) => set[rng.below(set.len() as u64) as usize],
                })
                .collect()
        }
    }

    enum CharSet {
        Any,
        Of(Vec<char>),
    }

    /// Parses `.{lo,hi}`, `[class]{lo,hi}`, `.{n}`, `[class]{n}`.
    fn parse_simple_regex(pat: &str) -> (CharSet, usize, usize) {
        let mut it = pat.chars().peekable();
        let set = match it.next() {
            Some('.') => CharSet::Any,
            Some('[') => {
                let mut set = Vec::new();
                loop {
                    match it.next() {
                        Some(']') => break,
                        Some(a) => {
                            if it.peek() == Some(&'-') {
                                it.next();
                                let b = it.next().unwrap_or_else(|| {
                                    panic!("proptest shim: unterminated range in {pat:?}")
                                });
                                if b == ']' {
                                    set.push(a);
                                    set.push('-');
                                    break;
                                }
                                assert!(a <= b, "proptest shim: decreasing range in {pat:?}");
                                set.extend(a..=b);
                            } else {
                                set.push(a);
                            }
                        }
                        None => panic!("proptest shim: unterminated [class] in {pat:?}"),
                    }
                }
                assert!(!set.is_empty(), "proptest shim: empty [class] in {pat:?}");
                CharSet::Of(set)
            }
            _ => panic!(
                "proptest shim: unsupported string pattern {pat:?} \
                 (supported: '.' or '[class]' followed by {{n}} or {{lo,hi}})"
            ),
        };
        let rest: String = it.collect();
        let inner = rest.strip_prefix('{').and_then(|r| r.strip_suffix('}')).unwrap_or_else(|| {
            panic!(
                "proptest shim: unsupported repetition {rest:?} in {pat:?} \
                     (supported: {{n}} or {{lo,hi}})"
            )
        });
        let (lo, hi) = match inner.split_once(',') {
            Some((a, b)) => (
                a.trim().parse().expect("bad repetition lower bound"),
                b.trim().parse().expect("bad repetition upper bound"),
            ),
            None => {
                let n = inner.trim().parse().expect("bad repetition count");
                (n, n)
            }
        };
        assert!(lo <= hi, "proptest shim: empty repetition range in {pat:?}");
        (set, lo, hi)
    }

    /// Strategy for any value of `T`; created by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Returns the canonical strategy for `T` (`any::<u64>()`, ...).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Strategies for collections of generated values.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::collections::{BTreeMap, BTreeSet};
    use std::ops::{Range, RangeInclusive};

    /// An inclusive range of collection sizes. Converted from `usize`
    /// (exact), `Range<usize>`, or `RangeInclusive<usize>`.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize {
            self.lo + rng.below((self.hi - self.lo + 1) as u64) as usize
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    /// Strategy for `Vec`s of values from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet`s of values from `elem`. Sizes are
    /// best-effort: duplicates are redrawn a bounded number of times.
    pub fn btree_set<S>(elem: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { elem, size: size.into() }
    }

    /// See [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let n = self.size.pick(rng);
            let mut set = BTreeSet::new();
            for _ in 0..(n * 4 + 8) {
                if set.len() >= n {
                    break;
                }
                set.insert(self.elem.sample(rng));
            }
            set
        }
    }

    /// Strategy for `BTreeMap`s with keys from `key` and values from
    /// `value`. Sizes are best-effort, as for [`btree_set`].
    pub fn btree_map<K, V>(key: K, value: V, size: impl Into<SizeRange>) -> BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        BTreeMapStrategy { key, value, size: size.into() }
    }

    /// See [`btree_map`].
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: SizeRange,
    }

    impl<K, V> Strategy for BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn sample(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
            let n = self.size.pick(rng);
            let mut map = BTreeMap::new();
            for _ in 0..(n * 4 + 8) {
                if map.len() >= n {
                    break;
                }
                map.insert(self.key.sample(rng), self.value.sample(rng));
            }
            map
        }
    }
}

pub mod option {
    //! Strategies for `Option`s of generated values.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Strategy yielding `None` half the time and `Some(inner)` the rest.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(2) == 0 {
                None
            } else {
                Some(self.inner.sample(rng))
            }
        }
    }
}

pub mod sample {
    //! Sampling from runtime-sized collections.

    use super::strategy::Arbitrary;
    use super::test_runner::TestRng;

    /// An abstract index into a collection whose size is only known
    /// when the test body runs; obtained via `any::<Index>()`.
    #[derive(Clone, Copy, Debug)]
    pub struct Index {
        raw: u64,
    }

    impl Index {
        /// Projects this abstract index onto a collection of `size`
        /// elements (proportionally, so it is uniform for any size).
        ///
        /// # Panics
        /// Panics if `size == 0`.
        pub fn index(&self, size: usize) -> usize {
            assert!(size > 0, "Index::index on empty collection");
            ((self.raw as u128 * size as u128) >> 64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Index {
            Index { raw: rng.next_u64() }
        }
    }
}

pub mod prelude {
    //! One-stop imports for property tests, mirroring
    //! `proptest::prelude`.

    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)+);
    }};
}

/// Fails the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left), stringify!($right), l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, $($fmt)+);
    }};
}

/// Rejects the current case (without failing the test) unless `cond`
/// holds; another case is generated in its place.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        $crate::prop_assume!($cond, concat!("assumption failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                format!($($fmt)+),
            ));
        }
    };
}

/// Chooses between several strategies producing the same value type,
/// optionally weighted: `prop_oneof![2 => a, 1 => b]` or
/// `prop_oneof![a, b, c]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` (the attribute is written inside the macro, as
/// with the real proptest) that runs the body over `config.cases`
/// generated inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_tests! { config = ($cfg); $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_tests! {
            config = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ( config = ($cfg:expr); ) => {};
    (
        config = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident( $($args:tt)* ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::TestRng::for_test(concat!(
                module_path!(), "::", stringify!($name)
            ));
            let mut __cases: u32 = 0;
            let mut __rejects: u32 = 0;
            while __cases < __config.cases {
                $crate::__proptest_sample_args!((&mut __rng) $($args)*);
                // The closure gives `prop_assert*` a `Result` scope to
                // return into; catching its unwind gives a plain `assert!`
                // in the body the same report, case number included.
                let __result: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    match ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(move || {
                        $body
                        ::core::result::Result::Ok(())
                    })) {
                        ::core::result::Result::Ok(__result) => __result,
                        ::core::result::Result::Err(__panic) => {
                            let __msg = __panic
                                .downcast_ref::<&str>()
                                .map(|s| s.to_string())
                                .or_else(|| __panic.downcast_ref::<String>().cloned())
                                .unwrap_or_default();
                            ::core::result::Result::Err(
                                $crate::test_runner::TestCaseError::Fail(__msg),
                            )
                        }
                    };
                match __result {
                    ::core::result::Result::Ok(()) => {
                        __cases += 1;
                    }
                    ::core::result::Result::Err(
                        $crate::test_runner::TestCaseError::Reject(__why),
                    ) => {
                        __rejects += 1;
                        if __rejects > __config.max_global_rejects {
                            panic!(
                                "proptest '{}': too many prop_assume rejections ({}): {}",
                                stringify!($name), __rejects, __why
                            );
                        }
                    }
                    ::core::result::Result::Err(
                        $crate::test_runner::TestCaseError::Fail(__msg),
                    ) => {
                        panic!(
                            "proptest '{}' failed at case {}: {}",
                            stringify!($name), __cases + 1, __msg
                        );
                    }
                }
            }
        }
        $crate::__proptest_tests! { config = ($cfg); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]: expands the argument list of
/// a property-test fn into one sampling `let` per argument. Supports
/// both proptest argument forms — `pat in strategy` and `ident: Type`
/// (shorthand for `ident in any::<Type>()`) — in any order.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_sample_args {
    ( ($rng:expr) ) => {};
    ( ($rng:expr) $name:ident : $ty:ty ) => {
        let $name = <$ty as $crate::strategy::Arbitrary>::arbitrary($rng);
    };
    ( ($rng:expr) $name:ident : $ty:ty, $($rest:tt)* ) => {
        let $name = <$ty as $crate::strategy::Arbitrary>::arbitrary($rng);
        $crate::__proptest_sample_args!(($rng) $($rest)*);
    };
    ( ($rng:expr) $pat:pat in $strat:expr ) => {
        let $pat = $crate::strategy::Strategy::sample(&($strat), $rng);
    };
    ( ($rng:expr) $pat:pat in $strat:expr, $($rest:tt)* ) => {
        let $pat = $crate::strategy::Strategy::sample(&($strat), $rng);
        $crate::__proptest_sample_args!(($rng) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn evens() -> impl Strategy<Value = u64> {
        (0u64..1000).prop_map(|x| x * 2)
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 10u32..20) {
            prop_assert!((10..20).contains(&x));
        }

        #[test]
        fn maps_apply(x in evens()) {
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u64..100) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }

        #[test]
        fn vectors_respect_size(v in crate::collection::vec(0u8..10, 3..=5)) {
            prop_assert!((3..=5).contains(&v.len()));
            prop_assert!(v.iter().all(|&b| b < 10));
        }

        #[test]
        fn oneof_honours_arms(x in prop_oneof![Just(1u8), Just(2u8)]) {
            prop_assert!(x == 1 || x == 2);
        }

        #[test]
        fn flat_map_links_values((n, v) in (1usize..8).prop_flat_map(|n| {
            (Just(n), crate::collection::vec(0u8..=255, n))
        })) {
            prop_assert_eq!(v.len(), n);
        }

        #[test]
        fn index_projects_uniformly(ix in any::<crate::sample::Index>()) {
            prop_assert!(ix.index(10) < 10);
        }

        #[test]
        fn full_width_inclusive_ranges_sample(x in 0u64..=u64::MAX, y in i64::MIN..=i64::MAX) {
            // Must not panic; any value of the type is admissible.
            let _ = (x, y);
        }

        #[test]
        fn signed_inclusive_ranges_stay_in_bounds(x in -5i32..=5) {
            prop_assert!((-5..=5).contains(&x));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]

        #[test]
        fn config_is_honoured(_x in 0u8..=255) {
            // Runs only 5 cases; nothing to assert beyond completion.
        }
    }

    proptest! {
        // No #[test] attribute: generated as a plain fn so the harness
        // does not run it directly; driven by the should_panic test.
        fn always_fails(x in 0u32..10) {
            prop_assert!(x > 100, "x was {}", x);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic_with_case_number() {
        always_fails();
    }

    proptest! {
        // A plain `assert!`, not `prop_assert!`: the body panics.
        fn always_panics(x in 0u32..10) {
            assert!(x > 100, "x was {}", x);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case 1: x was")]
    fn a_panicking_body_reports_its_case() {
        always_panics();
    }
}

//! Stand-in for `proptest` 1.x: strategies that draw values from a seeded
//! splitmix64 stream and a runner that checks `cases` of them. It does not
//! shrink: a failure reports the case's seed and the whole input, and the
//! same seed regenerates it on every run. Seeds derive from the test's path,
//! so a test sees the same cases every time it runs.
//!
//! Surface: `proptest!` (with `#![proptest_config(..)]`, `name in strategy`
//! and `name: Type` arguments), `prop_assert!`, `prop_assert_eq!`,
//! `prop_assert_ne!`, `prop_assume!`, `prop_oneof!` (weighted and plain),
//! `prop_compose!`; `any::<T>()` for the primitive integers, `bool`, `f64`
//! and `sample::Index`; integer and float ranges; tuples of up to twelve
//! strategies; `Just`; `collection::vec`; `num::f64::ANY`; the combinators
//! `prop_map`, `prop_filter`, `prop_flat_map` and `boxed`; `&str` as a
//! regex of literals, `.`, classes like `[a-z0-9_]` and the quantifiers
//! `* + ? {n} {m,n} {m,}`; `test_runner::{Config, TestCaseError,
//! TestCaseResult}`. `PROPTEST_CASES` sets the default case count.

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::fmt::Debug;
    use std::ops::{Range, RangeInclusive};

    /// Something values can be drawn from.
    pub trait Strategy {
        type Value: Debug;

        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Redraws until `keep` accepts the value.
        fn prop_filter<R: Into<String>, F: Fn(&Self::Value) -> bool>(
            self,
            whence: R,
            keep: F,
        ) -> Filter<Self, F>
        where
            Self: Sized,
        {
            Filter {
                inner: self,
                whence: whence.into(),
                keep,
            }
        }

        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.new_value(rng))
        }
    }

    pub struct Filter<S, F> {
        inner: S,
        whence: String,
        keep: F,
    }

    /// Draws a filter may reject in a row before the strategy is declared
    /// unsatisfiable.
    const MAX_FILTER_DRAWS: u32 = 10_000;

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn new_value(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..MAX_FILTER_DRAWS {
                let v = self.inner.new_value(rng);
                if (self.keep)(&v) {
                    return v;
                }
            }
            panic!("prop_filter({:?}) rejected {MAX_FILTER_DRAWS} draws in a row", self.whence)
        }
    }

    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn new_value(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.new_value(rng)).new_value(rng)
        }
    }

    /// A type-erased strategy (what `prop_oneof!` holds).
    pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

    impl<T: Debug> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            self.0.new_value(rng)
        }
    }

    /// Always the same value.
    #[derive(Clone, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// One of several strategies, picked by weight.
    pub struct Union<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
        total: u64,
    }

    impl<T> Union<T> {
        pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
            let total = arms.iter().map(|&(w, _)| w as u64).sum();
            assert!(total > 0, "prop_oneof! needs a positive total weight");
            Union { arms, total }
        }
    }

    impl<T: Debug> Strategy for Union<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.below(self.total);
            for (w, s) in &self.arms {
                if pick < *w as u64 {
                    return s.new_value(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("pick is below the total weight")
        }
    }

    macro_rules! int_ranges {
        ($($t:ty => $u:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = self.end.wrapping_sub(self.start) as $u as u64;
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi.wrapping_sub(lo) as $u as u64).wrapping_add(1);
                    lo.wrapping_add(rng.below(span) as $t)
                }
            }
        )*};
    }

    int_ranges!(
        u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
        i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize
    );

    macro_rules! float_ranges {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let x = self.start + (self.end - self.start) * rng.unit_f64() as $t;
                    if x < self.end { x } else { self.start }
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    (lo + (hi - lo) * rng.unit_f64() as $t).min(hi)
                }
            }
        )*};
    }

    float_ranges!(f32, f64);

    macro_rules! tuples {
        ($(($($s:ident $i:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.new_value(rng),)+)
                }
            }
        )*};
    }

    tuples! {
        (A 0)
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
        (A 0, B 1, C 2, D 3, E 4, F 5)
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6)
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7)
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8)
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8, J 9)
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8, J 9, K 10)
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8, J 9, K 10, L 11)
    }

    /// A string literal is a regex over the strings it generates.
    impl Strategy for &str {
        type Value = String;
        fn new_value(&self, rng: &mut TestRng) -> String {
            crate::string::generate(self, rng)
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::fmt::Debug;
    use std::marker::PhantomData;

    /// Types `any::<T>()` can draw.
    pub trait Arbitrary: Debug + Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    pub struct Any<T>(PhantomData<fn() -> T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Every value of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    macro_rules! ints {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                /// Uniform, except that one draw in sixteen is an edge:
                /// zero, one, the minimum or the maximum.
                fn arbitrary(rng: &mut TestRng) -> $t {
                    let x = rng.next_u64();
                    if x % 16 == 0 {
                        [0, 1, <$t>::MIN, <$t>::MAX][(x >> 4) as usize % 4]
                    } else {
                        rng.next_u64() as $t
                    }
                }
            }
        )*};
    }

    ints!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            crate::num::f64::ANY.new_value(rng)
        }
    }
}

pub mod num {
    pub mod f64 {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        use core::primitive::f64 as F64;

        /// Every `f64`: NaNs, infinities, zeros and subnormals included.
        #[derive(Clone, Copy, Debug)]
        pub struct Any;

        pub const ANY: Any = Any;

        impl Strategy for Any {
            type Value = F64;
            fn new_value(&self, rng: &mut TestRng) -> F64 {
                const EDGES: [F64; 8] = [
                    0.0,
                    -0.0,
                    F64::INFINITY,
                    F64::NEG_INFINITY,
                    F64::NAN,
                    F64::MIN,
                    F64::MAX,
                    F64::MIN_POSITIVE / 2.0,
                ];
                let x = rng.next_u64();
                if x & 7 == 0 {
                    EDGES[(x >> 3) as usize % EDGES.len()]
                } else {
                    F64::from_bits(rng.next_u64())
                }
            }
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive bounds on a collection's length.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Vectors of `element` draws, their length uniform in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64 + 1;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

pub mod sample {
    use crate::arbitrary::Arbitrary;
    use crate::test_runner::TestRng;

    /// A position in a collection whose size is known only later.
    #[derive(Clone, Copy, Debug)]
    pub struct Index(u64);

    impl Index {
        /// This index scaled into `0..size`.
        pub fn index(&self, size: usize) -> usize {
            assert!(size > 0, "Index::index of an empty collection");
            ((self.0 as u128 * size as u128) >> 64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Index {
            Index(rng.next_u64())
        }
    }
}

mod string {
    use crate::test_runner::TestRng;

    /// Repeats an unbounded quantifier (`*`, `+`, `{m,}`) allows past its
    /// minimum.
    const UNBOUNDED_EXTRA: u32 = 32;

    /// Characters `.` draws besides printable ASCII, so multi-byte UTF-8
    /// shows up.
    const WIDE: [char; 6] = ['é', 'ß', 'Ж', '中', '€', '🦀'];

    enum Atom {
        Any,
        Class(Vec<(char, char)>),
        Literal(char),
    }

    impl Atom {
        fn draw(&self, rng: &mut TestRng) -> char {
            match self {
                Atom::Any => {
                    if rng.below(8) == 0 {
                        WIDE[rng.below(WIDE.len() as u64) as usize]
                    } else {
                        char::from(b' ' + rng.below(95) as u8)
                    }
                }
                Atom::Class(ranges) => {
                    let total: u64 = ranges.iter().map(|&(a, b)| (b as u64 - a as u64) + 1).sum();
                    let mut pick = rng.below(total);
                    for &(a, b) in ranges {
                        let width = (b as u64 - a as u64) + 1;
                        if pick < width {
                            return char::from_u32(a as u32 + pick as u32).unwrap_or(a);
                        }
                        pick -= width;
                    }
                    unreachable!("pick is below the class width")
                }
                Atom::Literal(c) => *c,
            }
        }
    }

    fn unsupported(pattern: &str) -> ! {
        panic!("regex strategy {pattern:?} uses syntax this stand-in does not support")
    }

    fn number(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<u32> {
        let mut digits = String::new();
        while let Some(c) = chars.peek().copied().filter(char::is_ascii_digit) {
            digits.push(c);
            chars.next();
        }
        digits.parse().ok()
    }

    pub(crate) fn generate(pattern: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        let mut chars = pattern.chars().peekable();
        while let Some(c) = chars.next() {
            let atom = match c {
                '.' => Atom::Any,
                '\\' => Atom::Literal(chars.next().unwrap_or_else(|| unsupported(pattern))),
                '[' => {
                    let mut ranges = Vec::new();
                    loop {
                        let lo = match chars.next() {
                            Some(']') => break,
                            Some('\\') => chars.next().unwrap_or_else(|| unsupported(pattern)),
                            Some('^') if ranges.is_empty() => unsupported(pattern),
                            Some(c) => c,
                            None => unsupported(pattern),
                        };
                        if chars.peek() == Some(&'-') {
                            chars.next();
                            match chars.next() {
                                Some(']') => {
                                    ranges.push((lo, lo));
                                    ranges.push(('-', '-'));
                                    break;
                                }
                                Some(hi) if hi >= lo => ranges.push((lo, hi)),
                                _ => unsupported(pattern),
                            }
                        } else {
                            ranges.push((lo, lo));
                        }
                    }
                    Atom::Class(ranges)
                }
                '(' | ')' | '|' | '^' | '$' | '*' | '+' | '?' | '{' => unsupported(pattern),
                c => Atom::Literal(c),
            };
            let quantifier = chars.next_if(|c| matches!(c, '*' | '+' | '?' | '{'));
            let (min, max) = match quantifier {
                Some('*') => (0, UNBOUNDED_EXTRA),
                Some('+') => (1, 1 + UNBOUNDED_EXTRA),
                Some('?') => (0, 1),
                Some('{') => {
                    let min = number(&mut chars).unwrap_or_else(|| unsupported(pattern));
                    let max = match chars.next() {
                        Some('}') => min,
                        Some(',') => {
                            let max = number(&mut chars).unwrap_or(min + UNBOUNDED_EXTRA);
                            if chars.next() != Some('}') || max < min {
                                unsupported(pattern)
                            }
                            max
                        }
                        _ => unsupported(pattern),
                    };
                    (min, max)
                }
                _ => (1, 1),
            };
            let n = min + rng.below((max - min) as u64 + 1) as u32;
            for _ in 0..n {
                out.push(atom.draw(rng));
            }
        }
        out
    }
}

pub mod test_runner {
    use crate::strategy::Strategy;
    use std::fmt;

    /// How many cases a test runs.
    #[derive(Clone, Debug)]
    pub struct Config {
        pub cases: u32,
        /// `prop_assume!` rejections a test may collect before it fails.
        pub max_global_rejects: u32,
    }

    impl Default for Config {
        /// 256 cases, or `PROPTEST_CASES` when it is set.
        fn default() -> Config {
            Config {
                cases: std::env::var("PROPTEST_CASES")
                    .ok()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(256),
                max_global_rejects: 1024,
            }
        }
    }

    /// Why a case did not pass.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum TestCaseError {
        /// `prop_assume!` discarded the input; the case is redrawn.
        Reject(String),
        /// An assertion failed.
        Fail(String),
    }

    impl TestCaseError {
        pub fn fail(reason: impl Into<String>) -> TestCaseError {
            TestCaseError::Fail(reason.into())
        }

        pub fn reject(reason: impl Into<String>) -> TestCaseError {
            TestCaseError::Reject(reason.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestCaseError::Reject(r) => write!(f, "input rejected: {r}"),
                TestCaseError::Fail(r) => write!(f, "{r}"),
            }
        }
    }

    impl std::error::Error for TestCaseError {}

    pub type TestCaseResult = Result<(), TestCaseError>;

    /// splitmix64.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn from_seed(seed: u64) -> TestRng {
            TestRng { state: seed }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, span)`; `span == 0` means all of u64.
        pub fn below(&mut self, span: u64) -> u64 {
            let x = self.next_u64();
            if span == 0 {
                x
            } else {
                ((x as u128 * span as u128) >> 64) as u64
            }
        }

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    fn fnv1a(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Check `test` on `config.cases` draws from `strategy`. Draw `i` is
    /// seeded from the test's name and `i`; a failure panics with that seed
    /// and the input, regenerated from it.
    pub fn run<S: Strategy>(
        config: &Config,
        name: &str,
        strategy: &S,
        mut test: impl FnMut(S::Value) -> TestCaseResult,
    ) {
        let base = fnv1a(name);
        let (mut passed, mut rejected, mut draw) = (0u32, 0u32, 0u64);
        while passed < config.cases {
            let seed = TestRng::from_seed(base ^ draw).next_u64();
            draw += 1;
            match test(strategy.new_value(&mut TestRng::from_seed(seed))) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject(why)) => {
                    rejected += 1;
                    if rejected > config.max_global_rejects {
                        panic!("{name}: {rejected} inputs rejected (last: {why}) after {passed} passed");
                    }
                }
                Err(TestCaseError::Fail(why)) => {
                    let input = strategy.new_value(&mut TestRng::from_seed(seed));
                    panic!(
                        "{name}: case {} failed (seed {seed:#018x}, no shrinking): {why}\ninput: {input:#?}",
                        passed + 1
                    );
                }
            }
        }
    }

    pub use Config as ProptestConfig;
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_compose, prop_oneof,
        proptest,
    };
    /// The crate, as real proptest's prelude names it.
    pub use crate as prop;
}

/// Property tests: each `fn` becomes a plain `#[test]` body run through
/// [`test_runner::run`].
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr)) => {};
    (($config:expr) $(#[$meta:meta])* fn $name:ident($($args:tt)*) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            $crate::__proptest_args!(($config) ($name) [] ($($args)*) $body);
        }
        $crate::__proptest_items! { ($config) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_args {
    (($config:expr) ($name:ident) [$($var:ident ($strat:expr))*] () $body:block) => {{
        let config: $crate::test_runner::Config = $config;
        $crate::test_runner::run(
            &config,
            concat!(module_path!(), "::", stringify!($name)),
            &($($strat,)*),
            |($($var,)*)| -> $crate::test_runner::TestCaseResult {
                let _: () = $body;
                ::core::result::Result::Ok(())
            },
        );
    }};
    (($config:expr) ($name:ident) [$($acc:tt)*] ($var:ident in $strat:expr $(, $($rest:tt)*)?) $body:block) => {
        $crate::__proptest_args!(($config) ($name) [$($acc)* $var ($strat)] ($($($rest)*)?) $body)
    };
    (($config:expr) ($name:ident) [$($acc:tt)*] ($var:ident : $ty:ty $(, $($rest:tt)*)?) $body:block) => {
        $crate::__proptest_args!(
            ($config) ($name) [$($acc)* $var ($crate::arbitrary::any::<$ty>())] ($($($rest)*)?) $body
        )
    };
}

/// `fn name(params)(var in strategy, …) -> T { body }`: a function
/// returning the strategy of `body` over the drawn variables.
#[macro_export]
macro_rules! prop_compose {
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($param:ident: $pty:ty),* $(,)?)
        ($($var:ident in $strat:expr),* $(,)?) -> $out:ty $body:block) => {
        $(#[$meta])*
        $vis fn $name($($param: $pty),*) -> impl $crate::strategy::Strategy<Value = $out> {
            $crate::strategy::Strategy::prop_map(($($strat,)*), move |($($var,)*)| -> $out { $body })
        }
    };
}

/// One of several strategies, uniformly or by `weight => strategy`.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left, right) => {
                if !(*left == *right) {
                    return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        format!(
                            "assertion failed: `(left == right)` {}\n  left: `{:?}`\n right: `{:?}`",
                            format!($($fmt)+), left, right
                        ),
                    ));
                }
            }
        }
    };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_ne!($left, $right, "")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left, right) => {
                if *left == *right {
                    return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        format!(
                            "assertion failed: `(left != right)` {}\n  both: `{:?}`",
                            format!($($fmt)+), left
                        ),
                    ));
                }
            }
        }
    };
}

/// Discard the current input (it is redrawn, not counted) unless `cond`.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::{run, Config, TestRng};

    fn draws<S: Strategy>(s: &S, seed: u64, n: usize) -> Vec<S::Value> {
        let mut rng = TestRng::from_seed(seed);
        (0..n).map(|_| s.new_value(&mut rng)).collect()
    }

    #[test]
    fn ranges_vecs_and_regexes_respect_their_bounds() {
        for v in draws(&prop::collection::vec(3u8..=5, 2..4), 1, 200) {
            assert!((2..4).contains(&v.len()) && v.iter().all(|x| (3..=5).contains(x)));
        }
        for s in draws(&"[a-z]{0,8}", 2, 200) {
            assert!(s.len() <= 8 && s.bytes().all(|b| b.is_ascii_lowercase()), "{s:?}");
        }
        assert!(draws(&".*", 3, 200).iter().any(|s| !s.is_ascii()));
        for x in draws(&(-1.5f64..2.5), 4, 200) {
            assert!((-1.5..2.5).contains(&x));
        }
        let idx = draws(&any::<prop::sample::Index>(), 5, 200);
        assert!(idx.iter().all(|i| i.index(7) < 7));
    }

    #[test]
    fn combinators_and_unions() {
        let even = (0u32..100).prop_filter("even", |x| x % 2 == 0).prop_map(|x| x + 1);
        assert!(draws(&even, 6, 100).iter().all(|x| x % 2 == 1));
        let nested = (1usize..4).prop_flat_map(|n| prop::collection::vec(Just(n), n));
        assert!(draws(&nested, 7, 100).iter().all(|v| v.iter().all(|&n| n == v.len())));
        let weighted = prop_oneof![3 => Just('a'), 1 => Just('b')];
        let a = draws(&weighted, 8, 4000).iter().filter(|&&c| c == 'a').count();
        assert!((2_700..3_300).contains(&a), "{a}");
        let plain = prop_oneof![Just(1), Just(2)];
        assert!(draws(&plain, 9, 100).iter().all(|&x| x == 1 || x == 2));
    }

    #[test]
    fn runner_is_seeded_and_counts_rejects_apart() {
        let seen = |name| {
            let mut out = Vec::new();
            let config = Config { cases: 5, ..Config::default() };
            run(&config, name, &(any::<u64>(),), |(x,)| {
                prop_assume!(x % 3 != 0);
                out.push(x);
                Ok(())
            });
            out
        };
        assert_eq!(seen("a"), seen("a"));
        assert_ne!(seen("a"), seen("b"));
        assert_eq!(seen("a").len(), 5);
    }

    #[test]
    #[should_panic(expected = "no shrinking")]
    fn failures_panic_with_their_seed() {
        run(&Config::default(), "fails", &(0u8..10,), |(x,)| {
            prop_assert!(x > 100, "x={}", x);
            Ok(())
        });
    }

    prop_compose! {
        fn pair()(a in 0u8..4, b in any::<bool>()) -> (u8, bool) {
            (a, b)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// Both argument forms, a trailing comma, and `?` on a helper.
        #[test]
        fn macro_forms(p in pair(), n: u32, v in prop::collection::vec(any::<u8>(), 0..3),) {
            prop_assert!(p.0 < 4);
            prop_assert_eq!(v.len() < 3, true, "len {}", v.len());
            prop_assert_ne!(n as u64, u64::MAX);
            helper(n)?;
        }
    }

    fn helper(_: u32) -> Result<(), TestCaseError> {
        Ok(())
    }
}

//! Seeded generators and the property-test harness.
//!
//! Every run of the simulator is a pure function of its seeds: fault
//! plans, generated DAGs, load and chaos schedules and the `Priority`
//! tie-break hashes all come from the generators below, so their streams
//! are pinned bit for bit (the tests at the bottom hold the first
//! outputs). Two xorshift families are in use and both are kept:
//!
//! * [`Xorshift64Star`] — xorshift64* with shifts 12/25/27, seeded
//!   `seed | 1`: graph generation, fault plans, synthetic address noise;
//! * [`xorshift_star`] / [`XorshiftStar`] — shifts 13/7/17 and the same
//!   multiplier: the stateless tie-break bijection and the load and chaos
//!   schedules.
//!
//! [`splitmix64`] avalanches a seed into a well-mixed word and [`fnv1a`]
//! folds a string into one. [`check`] runs a property over `cases` inputs
//! drawn from a [`Gen`] seeded by the property's name. None of this is for
//! cryptography or statistics.

use std::ops::{Range, RangeInclusive};
use std::panic::{self, AssertUnwindSafe};

/// The xorshift* output multiplier (odd, so the output step is a
/// bijection).
const STAR: u64 = 0x2545_F491_4F6C_DD1D;

/// 2^64 / φ: the Weyl increment of SplitMix64.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A `u64`'s top 53 bits as a uniform value in `[0, 1)`.
#[inline]
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// xorshift64* (shifts 12/25/27).
#[derive(Debug, Clone)]
pub struct Xorshift64Star {
    state: u64,
}

impl Xorshift64Star {
    /// Seeds the generator; `| 1` keeps a zero seed off the fixed point.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Xorshift64Star { state: seed | 1 }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        self.state.wrapping_mul(STAR)
    }

    /// Uniform-ish value in `0..m` (`m` must be nonzero).
    #[inline]
    pub fn below(&mut self, m: usize) -> usize {
        (self.next_u64() % m as u64) as usize
    }

    /// Uniform value in `[0, 1)` with 53-bit resolution.
    #[inline]
    pub fn frac(&mut self) -> f64 {
        unit(self.next_u64())
    }
}

/// Marsaglia's 13/7/17 xorshift: an invertible linear map over GF(2).
#[inline]
fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// One xorshift* step (13/7/17). A bijection on `u64`: the xorshift is
/// invertible and the multiplier odd, so distinct inputs stay distinct —
/// which is what lets tie-break keys be permuted without colliding.
#[inline]
pub fn xorshift_star(x: u64) -> u64 {
    xorshift(x).wrapping_mul(STAR)
}

/// The stateful xorshift* stream (13/7/17): the state steps through the
/// xorshift and each output is the new state times the multiplier.
#[derive(Debug, Clone)]
pub struct XorshiftStar {
    state: u64,
}

impl XorshiftStar {
    /// A stream starting from `state`. Zero is the xorshift's fixed point
    /// (it yields zeros forever), so callers seed with a nonzero word.
    #[inline]
    pub fn from_state(state: u64) -> Self {
        XorshiftStar { state }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = xorshift(self.state);
        self.state.wrapping_mul(STAR)
    }

    /// Uniform-ish value in `0..n` (`n` must be nonzero).
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly drawn element of a nonempty slice.
    #[inline]
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

/// One SplitMix64 step from `z`: adds the Weyl increment, then avalanches.
#[inline]
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An FNV-1a-shaped fold of `s`: xor in each byte, multiply by `prime`.
#[inline]
fn fold(s: &str, prime: u64) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(prime);
    }
    h
}

/// The FNV-1a fold of a string: deterministic across runs and platforms,
/// unlike `DefaultHasher`.
#[inline]
pub fn fnv1a(s: &str) -> u64 {
    fold(s, 0x0000_0100_0000_01B3)
}

/// The input source of one property: a SplitMix64 stream seeded by a
/// fold of the property's name, so every property draws a stable stream
/// of its own. The fold is FNV-1a's with `0x1000_0000_01B3` in place of
/// the FNV prime (one more hex zero): the multiplier the properties'
/// inputs have always been drawn with, kept so they stay the same.
#[derive(Debug, Clone)]
pub struct Gen {
    state: u64,
}

impl Gen {
    /// The stream [`check`] hands the property called `name`.
    fn for_name(name: &str) -> Self {
        Gen {
            state: fold(name, 0x1000_0000_01B3),
        }
    }

    /// Next raw 64-bit value.
    fn next_u64(&mut self) -> u64 {
        let z = splitmix64(self.state);
        self.state = self.state.wrapping_add(GAMMA);
        z
    }

    /// One value from an integer or float range.
    pub fn draw<D: Draw>(&mut self, range: D) -> D::Value {
        range.draw(self)
    }

    /// A vector whose length is drawn from `len` first, then each element
    /// by `element`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut element: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.draw(len);
        (0..n).map(|_| element(self)).collect()
    }
}

/// A range [`Gen::draw`] can sample: `start + next % span` for integers
/// (`span + 1` when inclusive), `start + unit * (end - start)` for floats.
pub trait Draw {
    /// The sampled type.
    type Value;
    /// Draws one value.
    fn draw(self, g: &mut Gen) -> Self::Value;
}

macro_rules! int_draw {
    ($($t:ty),*) => {$(
        impl Draw for Range<$t> {
            type Value = $t;
            // Instantiated for usize too, where `From` is unavailable;
            // the cast widens everywhere.
            #[allow(clippy::cast_lossless)]
            fn draw(self, g: &mut Gen) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + (g.next_u64() % span) as $t
            }
        }
        impl Draw for RangeInclusive<$t> {
            type Value = $t;
            #[allow(clippy::cast_lossless)]
            fn draw(self, g: &mut Gen) -> $t {
                let (start, end) = self.into_inner();
                assert!(start <= end, "empty range");
                let span = (end - start) as u64;
                if span == u64::MAX {
                    return g.next_u64() as $t;
                }
                start + (g.next_u64() % (span + 1)) as $t
            }
        }
    )*};
}

int_draw!(usize, u8, u32, u64);

macro_rules! float_draw {
    ($($t:ty),*) => {$(
        impl Draw for Range<$t> {
            type Value = $t;
            fn draw(self, g: &mut Gen) -> $t {
                self.start + unit(g.next_u64()) as $t * (self.end - self.start)
            }
        }
    )*};
}

float_draw!(f32, f64);

/// Runs `property` on `cases` successive draws of the [`Gen`] named
/// `name`. A case that returns early (an assumption that does not hold)
/// still counts. There is no shrinking: a failing case panics with its
/// index and the property's own panic message.
pub fn check(cases: u32, name: &str, mut property: impl FnMut(&mut Gen)) {
    let mut g = Gen::for_name(name);
    for case in 0..cases {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| property(&mut g))) {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            panic!("property {name} case {case}/{cases} failed: {message}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    // Every constant below was produced by the generators' previous,
    // hand-copied homes; a change here moves fault plans, generated
    // DAGs, load and chaos traces and every property's inputs.

    #[test]
    fn xorshift64_star_stream_is_pinned() {
        let expect: [(u64, [u64; 3], usize, u64); 3] = [
            (
                0,
                [
                    0x47e4_ce4b_896c_dd1d,
                    0xabcf_a6a8_e079_651d,
                    0xb9d1_0d8f_eb73_1f57,
                ],
                3,
                0x3fd3_6d06_282e_c6c0,
            ),
            (
                1,
                [
                    0x47e4_ce4b_896c_dd1d,
                    0xabcf_a6a8_e079_651d,
                    0xb9d1_0d8f_eb73_1f57,
                ],
                3,
                0x3fd3_6d06_282e_c6c0,
            ),
            (
                42,
                [
                    0x9eb3_1902_fb08_80bd,
                    0x7411_91fc_cc34_92f7,
                    0x1d2f_a72b_7757_ad59,
                ],
                2,
                0x3fe1_664a_39c8_9797,
            ),
        ];
        for (seed, outputs, below, frac) in expect {
            let mut rng = Xorshift64Star::new(seed);
            assert_eq!([rng.next_u64(), rng.next_u64(), rng.next_u64()], outputs);
            let mut fork = rng.clone();
            assert_eq!(rng.below(10), below, "seed {seed}");
            assert_eq!(fork.frac().to_bits(), frac, "seed {seed}");
        }
    }

    #[test]
    fn xorshift_star_stream_is_pinned() {
        let expect: [(u64, [u64; 3], usize); 3] = [
            (0, [0, 0, 0], 0),
            (
                1,
                [
                    0xbafa_cf62_4f01_c45d,
                    0x02da_6891_e507_685d,
                    0xfe17_a361_146f_b7a5,
                ],
                1,
            ),
            (
                42,
                [
                    0x089b_8aba_0d62_3742,
                    0x95bc_77bf_ee2d_32a3,
                    0xce46_e7f7_169b_a4d2,
                ],
                6,
            ),
        ];
        for (state, outputs, below) in expect {
            let mut rng = XorshiftStar::from_state(state);
            assert_eq!([rng.next_u64(), rng.next_u64(), rng.next_u64()], outputs);
            assert_eq!(rng.below(10), below, "state {state}");
        }
        // The stream's first output is the stateless step of its state.
        assert_eq!(XorshiftStar::from_state(42).next_u64(), xorshift_star(42));
    }

    #[test]
    fn stateless_mixers_are_pinned() {
        let star = [0, 0xbafa_cf62_4f01_c45d, 0x089b_8aba_0d62_3742];
        let mix = [
            0xe220_a839_7b1d_cdaf,
            0x910a_2dec_8902_5cc1,
            0xbdd7_3226_2feb_6e95,
        ];
        for ((seed, star), mix) in [0, 1, 42].into_iter().zip(star).zip(mix) {
            assert_eq!(xorshift_star(seed), star, "seed {seed}");
            assert_eq!(splitmix64(seed), mix, "seed {seed}");
        }
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("conv1"), 0x65da_2a8e_19f1_d9c2);
    }

    #[test]
    fn xorshift_star_is_injective_on_a_window() {
        let mut seen = HashSet::new();
        for n in 0..10_000u64 {
            assert!(seen.insert(xorshift_star(n ^ splitmix64(42))));
        }
    }

    /// The stream the former proptest stand-in's `TestRng` drew for the
    /// same name, so every ported property sees its old inputs.
    #[test]
    fn harness_stream_is_pinned() {
        let mut g = Gen::for_name("harness_stream_is_pinned");
        assert_eq!(g.draw(0u64..=u64::MAX), 0x41a4_e25c_9164_63ad);
        assert_eq!(g.next_u64(), 0xf3c5_77db_d9b0_00f9);
        assert_eq!(g.draw(3usize..9), 5);
        assert_eq!(g.draw(1u32..=6), 3);
        assert_eq!(g.draw(-2.0f32..2.0).to_bits(), 0xbf93_6994);
        assert_eq!(g.draw(0.0f64..1e12).to_bits(), 0x4260_22ae_8e50_5ab3);
        assert_eq!(g.vec(2..5, |g| g.draw(0u64..10)), [7, 5]);
        assert_eq!(g.vec(2..5, |g| g.draw(0u64..10)), [0, 0]);
    }

    #[test]
    fn draws_stay_in_bounds() {
        check(32, "draws_stay_in_bounds", |g| {
            let x = g.draw(3usize..9);
            let y = g.draw(2u8..=4);
            let f = g.draw(-2.0f32..2.0);
            assert!((3..9).contains(&x));
            assert!((2..=4).contains(&y));
            assert!((-2.0..2.0).contains(&f));
        });
    }

    #[test]
    fn vec_length_stays_in_range() {
        check(32, "vec_length_stays_in_range", |g| {
            let v = g.vec(2..5, |g| g.draw(0u64..10));
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        });
    }

    #[test]
    fn assumed_away_cases_end_without_failing() {
        let mut ran = 0;
        check(64, "assumed_away_cases_end_without_failing", |g| {
            let x = g.draw(0usize..10);
            ran += 1;
            if x % 2 != 0 {
                return;
            }
            assert_eq!(x % 2, 0);
        });
        assert_eq!(ran, 64, "an assumed-away case still counts");
    }

    #[test]
    fn failing_property_panics_naming_its_case() {
        let payload = panic::catch_unwind(|| {
            check(4, "always_fails", |g| {
                let x = g.draw(0usize..4);
                assert!(x > 100, "x was only {x}");
            });
        })
        .expect_err("a failing property must panic");
        let message = payload.downcast_ref::<String>().expect("formatted panic");
        assert!(
            message.starts_with("property always_fails case 0/4 failed: x was only "),
            "{message}"
        );
    }
}

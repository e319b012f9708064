//! In-repo pseudo-random number generation (no external crates).
//!
//! Two small, well-studied generators:
//!
//! * [`SplitMix64`] — Steele/Lea/Flood's 64-bit mixer. One multiply-xor
//!   chain per output, passes BigCrush, and is the standard way to expand
//!   a single `u64` seed into a full generator state.
//! * [`Xoshiro256StarStar`] — Blackman/Vigna's xoshiro256**, the
//!   general-purpose generator behind `rand`'s `SmallRng`. 256 bits of
//!   state, period 2^256 − 1, seeded here through SplitMix64 exactly as
//!   its authors recommend.
//!
//! The [`Rng`] trait mirrors the small slice of the `rand` API this
//! workspace actually uses (`gen`, `gen_bool`, `gen_range`), so swapping
//! the dependency out left call sites almost untouched. Both generators
//! are deterministic: the same seed always produces the same stream, on
//! every platform, forever — a hard requirement for reproducible
//! simulation traces.
//!
//! That promise covers the derived draws too: a change to `gen_range`,
//! `gen_bool` or `gen` must return the same values from the same raw
//! draws and consume exactly as many of them, so every seeded stream in
//! the workspace stays draw for draw what it was. `gen_range`'s rejection
//! test is the one place this is subtle; `uniform_u64_to` documents why
//! its division-free fast accept is exact, and its tests replay scripted
//! raw draws at the edges of the rejection zone against the original
//! two-division loop.

use std::ops::{Range, RangeInclusive};

/// SplitMix64: one 64-bit state word advanced by a Weyl sequence.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256**: 4×64-bit state, the `rand` crate's `SmallRng` algorithm.
#[derive(Clone, Debug)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Seed through SplitMix64, as the xoshiro authors specify. A zero
    /// seed is fine (SplitMix64 never emits four zero words in a row).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256StarStar {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }
}

/// The workspace's small-and-fast generator (xoshiro256**).
pub type SmallRng = Xoshiro256StarStar;
/// Alias kept for call-site compatibility with the old `rand::StdRng`
/// usage; statistically interchangeable for simulation purposes.
pub type StdRng = Xoshiro256StarStar;

/// Values that can be drawn uniformly from an [`Rng`] (the `gen` method).
pub trait Standard: Sized {
    /// Draw one uniformly distributed value.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for u8 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl Standard for bool {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Integer types that support uniform range sampling (`gen_range`).
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[low, high]` (inclusive on both ends).
    fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
    /// The largest value strictly below `v` (for half-open ranges).
    fn pred(v: Self) -> Self;
}

/// Draw a `u64` uniformly from `[0, span]` by rejection sampling
/// (unbiased; expected retries < 1 for any span).
///
/// A raw draw `v` is rejected iff it lies in the top `2^64 mod n` values
/// (`n = span + 1`), above the largest multiple of `n`, so `v % n` is
/// exact. That zone is narrower than `n`, so every `v <= u64::MAX - span`
/// lies below it: the fast accept never takes a draw the exact test would
/// reject, and only the ~`n / 2^64` draws above it pay the division that
/// sizes the zone. Results and draw counts are those of the exact test
/// alone.
#[inline]
fn uniform_u64_to<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    if span == u64::MAX {
        return rng.next_u64();
    }
    let n = span + 1;
    loop {
        let v = rng.next_u64();
        // `n.wrapping_neg() % n` is `(2^64 - n) mod n = 2^64 mod n`.
        if v <= u64::MAX - span || v <= u64::MAX - n.wrapping_neg() % n {
            return v % n;
        }
    }
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                debug_assert!(low <= high, "gen_range: empty range");
                let span = (high as u64).wrapping_sub(low as u64);
                low.wrapping_add(uniform_u64_to(rng, span) as $t)
            }
            #[inline]
            fn pred(v: Self) -> Self { v - 1 }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize);

impl SampleUniform for i32 {
    #[inline]
    fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        debug_assert!(low <= high, "gen_range: empty range");
        let span = (high as i64 - low as i64) as u64;
        (low as i64 + uniform_u64_to(rng, span) as i64) as i32
    }
    #[inline]
    fn pred(v: Self) -> Self {
        v - 1
    }
}

/// Range arguments accepted by [`Rng::gen_range`] (`a..b` and `a..=b`).
pub trait IntoInclusive<T: SampleUniform> {
    /// Convert to inclusive `(low, high)` bounds.
    fn into_inclusive(self) -> (T, T);
}

impl<T: SampleUniform> IntoInclusive<T> for Range<T> {
    #[inline]
    fn into_inclusive(self) -> (T, T) {
        (self.start, T::pred(self.end))
    }
}

impl<T: SampleUniform> IntoInclusive<T> for RangeInclusive<T> {
    #[inline]
    fn into_inclusive(self) -> (T, T) {
        self.into_inner()
    }
}

/// The drawing interface: the `rand`-compatible subset the workspace uses.
pub trait Rng {
    /// Next raw 64-bit output (the only method generators must provide).
    fn next_u64(&mut self) -> u64;

    /// Draw a uniformly distributed value of type `T`.
    #[inline]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        debug_assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p}");
        f64::sample(self) < p
    }

    /// Uniform draw from a `a..b` or `a..=b` range.
    #[inline]
    fn gen_range<T: SampleUniform, Rg: IntoInclusive<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        let (low, high) = range.into_inclusive();
        T::sample_inclusive(self, low, high)
    }
}

impl Rng for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        SplitMix64::next_u64(self)
    }
}

impl Rng for Xoshiro256StarStar {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        Xoshiro256StarStar::next_u64(self)
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain
        // splitmix64.c test vectors.
        let mut sm = SplitMix64::new(1234567);
        let first: Vec<u64> = (0..3).map(|_| sm.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                6457827717110365317,
                3203168211198807973,
                9817491932198370423
            ]
        );
    }

    #[test]
    fn xoshiro_reference_vector() {
        // First outputs for seed 42 (state expanded through SplitMix64),
        // cross-checked against an independent implementation.
        let mut r = Xoshiro256StarStar::seed_from_u64(42);
        let first: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                1546998764402558742,
                6990951692964543102,
                12544586762248559009
            ]
        );
    }

    #[test]
    fn xoshiro_deterministic_and_distinct_seeds() {
        let a: Vec<u64> = {
            let mut r = Xoshiro256StarStar::seed_from_u64(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Xoshiro256StarStar::seed_from_u64(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Xoshiro256StarStar::seed_from_u64(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v: f64 = r.gen();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = SmallRng::seed_from_u64(8);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.gen::<f64>()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn gen_range_bounds_respected() {
        let mut r = SmallRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = r.gen_range(3u32..17);
            assert!((3..17).contains(&v));
            let w = r.gen_range(5u64..=5);
            assert_eq!(w, 5);
            let x = r.gen_range(0..64);
            assert!((0..64).contains(&x));
        }
    }

    #[test]
    fn gen_range_uniformity() {
        let mut r = SmallRng::seed_from_u64(10);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.gen_range(0usize..10)] += 1;
        }
        for &c in &counts {
            assert!((9_300..10_700).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn gen_bool_probability() {
        let mut r = SmallRng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.2)).count();
        assert!((19_000..21_000).contains(&hits), "{hits}");
        assert_eq!((0..100).filter(|_| r.gen_bool(0.0)).count(), 0);
        assert_eq!((0..100).filter(|_| r.gen_bool(1.0)).count(), 100);
    }

    /// Replays queued raw values and counts how many were drawn.
    struct Scripted {
        queue: std::collections::VecDeque<u64>,
        drawn: usize,
    }

    impl Scripted {
        fn new(values: &[u64]) -> Self {
            Scripted {
                queue: values.iter().copied().collect(),
                drawn: 0,
            }
        }
    }

    impl Rng for Scripted {
        fn next_u64(&mut self) -> u64 {
            self.drawn += 1;
            self.queue.pop_front().expect("script has a value left")
        }
    }

    /// The two-division rejection loop `uniform_u64_to` replaced.
    fn uniform_u64_to_oracle<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
        if span == u64::MAX {
            return rng.next_u64();
        }
        let n = span + 1;
        let rem = (u64::MAX % n + 1) % n; // 2^64 mod n
        loop {
            let v = rng.next_u64();
            if rem == 0 || v < u64::MAX - rem + 1 {
                return v % n;
            }
        }
    }

    #[test]
    fn fast_accept_matches_exact_rejection_at_zone_edges() {
        let spans = [
            0,
            1,
            2,
            63,
            1 << 32,
            (1 << 63) - 1,
            1 << 63,
            u64::MAX - 1,
            u64::MAX,
        ];
        for span in spans {
            let n = span.wrapping_add(1);
            let rem = if n == 0 { 0 } else { (u64::MAX % n + 1) % n };
            let fast = u64::MAX - span;
            let mut firsts = vec![0, 1, fast, fast.saturating_add(1), u64::MAX - 1, u64::MAX];
            if rem > 0 {
                // Inside the true rejection zone: its lower edge and middle.
                let zone = u64::MAX - rem + 1;
                firsts.extend([zone - 1, zone, zone + (rem - 1) / 2]);
            }
            for first in firsts {
                // A rejected draw falls through to the next scripted one.
                let script = [first, u64::MAX, 7, 0];
                let (mut a, mut b) = (Scripted::new(&script), Scripted::new(&script));
                let got = uniform_u64_to(&mut a, span);
                let want = uniform_u64_to_oracle(&mut b, span);
                assert_eq!(got, want, "span {span:#x}, first draw {first:#x}");
                assert_eq!(a.drawn, b.drawn, "span {span:#x}, first draw {first:#x}");
                assert!(got <= span);
            }
        }
    }

    crate::propcheck! {
        /// Any span, with draws crowded toward the top of the range where
        /// the fast accept and the rejection zone meet.
        fn fast_accept_matches_exact_rejection(
            span_bits in crate::propcheck::any_u64(),
            span_shift in 0u32..=63,
            below_top in crate::propcheck::any_u64(),
            top_shift in 0u32..=63,
            second in crate::propcheck::any_u64(),
        ) {
            let span = span_bits >> span_shift;
            // A trailing 0 is always accepted, so the script never runs dry.
            let script = [u64::MAX - (below_top >> top_shift), second, 0];
            let (mut a, mut b) = (Scripted::new(&script), Scripted::new(&script));
            crate::prop_assert_eq!(uniform_u64_to(&mut a, span), uniform_u64_to_oracle(&mut b, span));
            crate::prop_assert_eq!(a.drawn, b.drawn);
        }
    }

    #[test]
    fn u8_u32_bool_draw() {
        let mut r = SmallRng::seed_from_u64(12);
        let _: u8 = r.gen();
        let _: u32 = r.gen();
        let trues = (0..10_000).filter(|_| r.gen::<bool>()).count();
        assert!((4_500..5_500).contains(&trues));
    }
}

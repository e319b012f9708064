//! The Fig. 3-calibrated write-content model.
//!
//! For each data unit of a line being written back, sample SET and RESET
//! counts around the profile's means (Poisson), then realize them as bit
//! transitions against the old contents: SETs pick '0' positions, RESETs
//! pick '1' positions. Totals are clamped below the flip threshold (half a
//! unit), so flip coding never inverts these writes and the realized
//! post-flip demand equals the sampled counts — exactly the statistics the
//! paper's Observations 1–2 are built on.
//!
//! Two regimes keep the model stationary:
//!
//! * **First touch** — a never-written (all-zero) line receives an
//!   initialization write at moderate density, modeling the application
//!   populating fresh memory (this is also where SET-dominance physically
//!   comes from).
//! * **Density guard** — units drifting above ~75% ones have their
//!   SET/RESET means swapped, pulling them back toward the middle instead
//!   of saturating (which would silently clamp the statistics).
//!
//! # Host cost and the exact-stream invariant
//!
//! Every simulated write-back calls [`ProfileContent::generate`], which
//! makes it the simulator's heaviest host-time layer: a line costs one
//! `gen_range` draw per candidate bit, several hundred in all. The model's
//! output is pinned draw for draw (`content_stream_is_pinned`): a faster
//! implementation must consume exactly the same xoshiro draws, in the same
//! order, and return exactly the same lines, because every simulated
//! figure and fingerprint downstream depends on them. Three choices keep
//! it cheap within that rule:
//!
//! * `pick_bits` decides take/skip with a mask instead of a branch. The
//!   outcome is close to a coin flip, so as a branch it mispredicts on
//!   about half the bits; as arithmetic it costs a compare and a few ALU
//!   ops, and the divisions of successive draws can overlap. The stream
//!   still needs one draw per visited bit and the stop at `need == 0`.
//! * `poisson` takes its `exp(-mean)` threshold from a table built in
//!   [`ProfileContent::new`]: the mean is always one of two base means
//!   times one of three intensity multipliers, so the six thresholds are
//!   computed once. Each must be exactly `(-(base * multiplier)).exp()`;
//!   a differently rounded threshold would move some draw counts.
//! * `gen_range` skips the division that sizes its rejection zone unless a
//!   draw lands near the top of the range (see `pcm_types::rng`).

use crate::profiles::WorkloadProfile;
use pcm_memsim::WriteContent;
use pcm_types::rng::{Rng, SmallRng};
use pcm_types::LineData;

/// Density (ones per 64) above which the drift direction is reversed.
const DENSITY_GUARD: u32 = 48;
/// Ones per 64-bit unit in an initialization write.
const INIT_ONES_PER_UNIT: u32 = 16;
/// Hard cap on changed bits per unit (stays below the flip threshold).
const MAX_CHANGED_PER_UNIT: u32 = 30;

/// The stopping threshold `exp(-mean)` of [`poisson`], or `None` for a
/// non-positive mean, which draws nothing.
fn knuth_threshold(mean: f64) -> Option<f64> {
    if mean <= 0.0 {
        None
    } else {
        Some((-mean).exp())
    }
}

/// Knuth's Poisson sampler (fine for the small means used here), given
/// its [`knuth_threshold`].
fn poisson<R: Rng>(rng: &mut R, threshold: Option<f64>) -> u32 {
    let Some(l) = threshold else {
        return 0;
    };
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 200 {
            return k; // numerically impossible for our means; safety stop
        }
    }
}

/// Pick `n` distinct set bits of `mask` uniformly; returns the chosen mask.
///
/// Selection sampling over the set bits, lowest first: each is taken with
/// probability `need / remaining`, one draw per visited bit, until `need`
/// reaches zero. The take/skip step is branch-free (see the module docs).
fn pick_bits<R: Rng>(rng: &mut R, mask: u64, n: u32) -> u64 {
    let avail = mask.count_ones();
    let n = n.min(avail);
    if n == 0 {
        return 0;
    }
    if n == avail {
        return mask;
    }
    let mut chosen = 0u64;
    let mut m = mask;
    let mut need = n;
    // `need <= remaining` throughout, and a bit is always taken once they
    // are equal, so `m` still has a set bit whenever `need > 0`.
    let mut remaining = avail;
    while need != 0 {
        let low = m & m.wrapping_neg();
        m ^= low;
        let take = u32::from(rng.gen_range(0..remaining) < need);
        chosen |= low & u64::from(take).wrapping_neg();
        need -= take;
        remaining -= 1;
    }
    chosen
}

/// Mean total changed bits per unit in a fresh-content write
/// (uniform 24..=30).
const FRESH_TOTAL_MEAN: f64 = 27.0;

/// Per-line intensity multipliers, indexed by [`ProfileContent::intensity`].
const INTENSITY: [f64; 3] = [0.5, 1.0, 2.0];

/// Write-content generator for one workload profile.
#[derive(Debug)]
pub struct ProfileContent {
    /// [`knuth_threshold`] of the in-place-update SET and RESET means times
    /// each [`INTENSITY`]. The means are compensated so that mixing with
    /// `fresh_fraction` fresh writes reproduces the profile's Fig. 3 means.
    set_thresholds: [Option<f64>; 3],
    reset_thresholds: [Option<f64>; 3],
    /// SET share of a fresh write's changed bits.
    set_ratio: f64,
    fresh_fraction: f64,
    rng: SmallRng,
}

impl ProfileContent {
    /// Model calibrated to `profile`, deterministic under `seed`.
    pub fn new(profile: &WorkloadProfile, seed: u64) -> Self {
        let p = profile.fresh_fraction;
        let ratio = profile.set_mean / profile.total_mean().max(f64::MIN_POSITIVE);
        // target = (1-p)·base + p·fresh  ⇒  base = (target − p·fresh)/(1−p).
        let fresh_sets = FRESH_TOTAL_MEAN * ratio;
        let fresh_resets = FRESH_TOTAL_MEAN * (1.0 - ratio);
        let base_set = ((profile.set_mean - p * fresh_sets) / (1.0 - p)).max(0.0);
        let base_reset = ((profile.reset_mean - p * fresh_resets) / (1.0 - p)).max(0.0);
        ProfileContent {
            set_thresholds: INTENSITY.map(|i| knuth_threshold(base_set * i)),
            reset_thresholds: INTENSITY.map(|i| knuth_threshold(base_reset * i)),
            set_ratio: ratio,
            fresh_fraction: p,
            rng: SmallRng::seed_from_u64(seed ^ 0x7e7_215),
        }
    }

    /// Replace a unit with fresh content: 24–30 changed bits in the
    /// profile's SET/RESET proportion.
    fn fresh_unit(&mut self, old: u64) -> u64 {
        let total = self.rng.gen_range(24..=MAX_CHANGED_PER_UNIT);
        let n_set = ((total as f64 * self.set_ratio).round() as u32).min(total);
        let n_reset = total - n_set;
        let set_mask = pick_bits(&mut self.rng, !old, n_set);
        let reset_mask = pick_bits(&mut self.rng, old, n_reset);
        (old | set_mask) & !reset_mask
    }

    /// An initialization line: every unit gets ~[`INIT_ONES_PER_UNIT`] ones.
    fn init_line(&mut self, len: usize) -> LineData {
        let mut out = LineData::zeroed(len);
        for i in 0..out.num_units() {
            out.set_unit(i, pick_bits(&mut self.rng, u64::MAX, INIT_ONES_PER_UNIT));
        }
        out
    }

    /// Draw a per-line intensity multiplier with mean exactly 1, as an
    /// index into [`INTENSITY`].
    ///
    /// Real write-back traffic is bursty: some lines change a few bits,
    /// some change many. Per-unit Poisson alone is too narrow to ever
    /// produce the >1-write-unit lines behind the paper's Fig. 10 range
    /// (Tetris 1.06–1.46); the {½, 1, 2} mixture (w.p. ⅓, ½, ⅙) widens the
    /// per-line distribution without moving the Fig. 3 means.
    fn intensity(&mut self) -> usize {
        let u: f64 = self.rng.gen();
        if u < 1.0 / 3.0 {
            0
        } else if u < 1.0 / 3.0 + 0.5 {
            1
        } else {
            2
        }
    }

    /// Mutate one unit per the calibrated delta distribution.
    fn mutate_unit(&mut self, old: u64, intensity: usize) -> u64 {
        let mut set_t = self.set_thresholds[intensity];
        let mut reset_t = self.reset_thresholds[intensity];
        // Density guard: reverse the drift for near-saturated units.
        if old.count_ones() > DENSITY_GUARD {
            std::mem::swap(&mut set_t, &mut reset_t);
        }
        let mut n_set = poisson(&mut self.rng, set_t);
        let mut n_reset = poisson(&mut self.rng, reset_t);
        // Keep below the flip threshold so the realized demand equals the
        // sampled counts.
        while n_set + n_reset > MAX_CHANGED_PER_UNIT {
            if n_set >= n_reset {
                n_set -= 1;
            } else {
                n_reset -= 1;
            }
        }
        let set_mask = pick_bits(&mut self.rng, !old, n_set);
        let reset_mask = pick_bits(&mut self.rng, old, n_reset);
        (old | set_mask) & !reset_mask
    }
}

impl WriteContent for ProfileContent {
    fn generate(&mut self, _core: usize, old_logical: &LineData) -> LineData {
        if old_logical.popcount() == 0 {
            return self.init_line(old_logical.len());
        }
        let mut out = *old_logical;
        if self.rng.gen_bool(self.fresh_fraction) {
            // Whole-line replacement with fresh content.
            for i in 0..out.num_units() {
                let old = old_logical.unit(i);
                let fresh = self.fresh_unit(old);
                out.set_unit(i, fresh);
            }
            return out;
        }
        let intensity = self.intensity();
        for i in 0..out.num_units() {
            out.set_unit(i, self.mutate_unit(old_logical.unit(i), intensity));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::ALL_PROFILES;
    use pcm_types::propcheck::any_u64;
    use pcm_types::rng::StdRng;
    use pcm_types::{prop_assert_eq, propcheck, transitions};

    /// The per-call `exp()` sampler `poisson` + `knuth_threshold` replaced.
    fn poisson_reference<R: Rng>(rng: &mut R, mean: f64) -> u32 {
        if mean <= 0.0 {
            return 0;
        }
        let l = (-mean).exp();
        let mut k = 0u32;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
            if k > 200 {
                return k;
            }
        }
    }

    /// The branching reservoir loop `pick_bits` replaced.
    fn pick_bits_reference<R: Rng>(rng: &mut R, mask: u64, n: u32) -> u64 {
        let avail = mask.count_ones();
        let n = n.min(avail);
        if n == 0 {
            return 0;
        }
        if n == avail {
            return mask;
        }
        let mut chosen = 0u64;
        let mut seen = 0u32;
        let mut m = mask;
        let mut need = n;
        while m != 0 {
            let low = m & m.wrapping_neg();
            m &= !low;
            seen += 1;
            let remaining_positions = avail - seen + 1;
            if rng.gen_range(0..remaining_positions) < need {
                chosen |= low;
                need -= 1;
                if need == 0 {
                    break;
                }
            }
        }
        chosen
    }

    propcheck! {
        cases = 2_000;
        /// Same mask and same generator state afterwards, over sparse,
        /// dense and uniform masks.
        fn pick_bits_matches_reference(
            a in any_u64(),
            b in any_u64(),
            shift in 0u32..=63,
            form in 0u32..=2,
            n in 0u32..=70,
            seed in any_u64(),
        ) {
            let mask = match form {
                0 => a >> shift,
                1 => a | (b >> shift),
                _ => a & (b >> shift),
            };
            let mut fast = SmallRng::seed_from_u64(seed);
            let mut reference = fast.clone();
            prop_assert_eq!(
                pick_bits(&mut fast, mask, n),
                pick_bits_reference(&mut reference, mask, n)
            );
            prop_assert_eq!(fast.next_u64(), reference.next_u64());
        }

        /// Same count and same generator state afterwards, including the
        /// draw-free non-positive means.
        fn poisson_matches_reference(mean_milli in 0u32..=80_000, seed in any_u64()) {
            let mean = f64::from(mean_milli) / 1000.0 - 1.0;
            let mut fast = SmallRng::seed_from_u64(seed);
            let mut reference = fast.clone();
            prop_assert_eq!(
                poisson(&mut fast, knuth_threshold(mean)),
                poisson_reference(&mut reference, mean)
            );
            prop_assert_eq!(fast.next_u64(), reference.next_u64());
        }
    }

    #[test]
    fn poisson_mean_tracks() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let t = knuth_threshold(6.7);
        let total: u64 = (0..n).map(|_| poisson(&mut rng, t) as u64).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 6.7).abs() < 0.15, "poisson mean {mean}");
        assert_eq!(poisson(&mut rng, knuth_threshold(0.0)), 0);
    }

    #[test]
    fn pick_bits_subset_of_mask() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..1000 {
            let mask: u64 = rng.gen();
            let n = rng.gen_range(0..=70u32);
            let picked = pick_bits(&mut rng, mask, n);
            assert_eq!(picked & !mask, 0, "picked bits outside mask");
            assert_eq!(picked.count_ones(), n.min(mask.count_ones()));
        }
    }

    #[test]
    fn first_touch_initializes() {
        let p = &ALL_PROFILES[0];
        let mut m = ProfileContent::new(p, 1);
        let old = LineData::zeroed(64);
        let new = m.generate(0, &old);
        let per_unit = new.popcount() / 8;
        assert!(
            (12..=20).contains(&per_unit),
            "init density per unit: {per_unit}"
        );
    }

    #[test]
    fn steady_state_matches_profile_means() {
        for p in &ALL_PROFILES {
            let mut m = ProfileContent::new(p, 42);
            let mut line = m.generate(0, &LineData::zeroed(64)); // init
            let writes = 300usize;
            let (mut sets, mut resets) = (0u64, 0u64);
            for _ in 0..writes {
                let new = m.generate(0, &line);
                for i in 0..8 {
                    let t = transitions(line.unit(i), new.unit(i));
                    sets += t.num_sets() as u64;
                    resets += t.num_resets() as u64;
                }
                line = new;
            }
            let units = (writes * 8) as f64;
            let s = sets as f64 / units;
            let r = resets as f64 / units;
            // Repeated rewrites of ONE line are the worst case for drift;
            // totals must still land near the calibration.
            let total = s + r;
            assert!(
                (total - p.total_mean()).abs() / p.total_mean() < 0.25,
                "{}: measured total {total:.2} vs {:.2}",
                p.name,
                p.total_mean()
            );
        }
    }

    #[test]
    fn changed_bits_never_cross_flip_threshold() {
        let p = &ALL_PROFILES[7]; // vips, the heaviest
        let mut m = ProfileContent::new(p, 9);
        let mut line = m.generate(0, &LineData::zeroed(64));
        for _ in 0..500 {
            let new = m.generate(0, &line);
            for i in 0..8 {
                let t = transitions(line.unit(i), new.unit(i));
                assert!(t.num_changed() <= MAX_CHANGED_PER_UNIT);
            }
            line = new;
        }
    }

    /// Which branches of `generate` a stream took, classified from
    /// outside without touching the model's stream (the fresh/in-place
    /// coin is peeked on a clone of the generator). Lines count for the
    /// first two, in-place units for the last two.
    #[derive(Default, Debug)]
    struct PathCounts {
        first_touch: u32,
        fresh: u32,
        in_place: u32,
        density_guard: u32,
    }

    /// FNV-1a over every unit of `STREAM_CALLS` outputs on a 16-line
    /// working set, then over the model's next raw draw.
    fn stream_hash(p: &WorkloadProfile) -> (u64, PathCounts) {
        const STREAM_CALLS: usize = 20_000;
        let mut m = ProfileContent::new(p, 0xC0FFEE);
        // Half the set starts never-written (first touch); the rest start
        // above the density guard.
        let mut lines: Vec<LineData> = (0..16)
            .map(|i| {
                if i % 2 == 0 {
                    LineData::zeroed(64)
                } else {
                    LineData::from_units(&[0xFFFF_FFFF_FFFF_F000 >> (i % 4); 8])
                }
            })
            .collect();
        let mut pick = SmallRng::seed_from_u64(0x5EED);
        let mut paths = PathCounts::default();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fnv = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for _ in 0..STREAM_CALLS {
            let idx = (pick.next_u64() % lines.len() as u64) as usize;
            let old = lines[idx];
            if old.popcount() == 0 {
                paths.first_touch += 1;
            } else if m.rng.clone().gen_bool(m.fresh_fraction) {
                paths.fresh += 1;
            } else {
                for u in old.units() {
                    if u.count_ones() > DENSITY_GUARD {
                        paths.density_guard += 1;
                    } else {
                        paths.in_place += 1;
                    }
                }
            }
            let new = m.generate(0, &old);
            new.units().for_each(&mut fnv);
            lines[idx] = new;
        }
        fnv(m.rng.next_u64());
        (h, paths)
    }

    /// The exact output stream of every profile, pinned: any change to
    /// the draws the model consumes or to what it does with them moves
    /// these hashes.
    #[test]
    fn content_stream_is_pinned() {
        // Captured from the original per-bit reservoir loop, per-call
        // `exp()` Poisson and two-division `gen_range`.
        const PINNED: [u64; 8] = [
            0x156b_0ef0_a62d_86c5, // blackscholes
            0x6b1e_2041_300b_4809, // bodytrack
            0xfd79_9556_c1af_7d9e, // canneal
            0xd241_ea15_473f_5c3f, // dedup
            0xfee0_52db_2819_33b2, // ferret
            0xe7c1_bd0f_3970_4478, // freqmine
            0xa075_4b65_9247_edc4, // swaptions
            0x5f0b_c395_3fa4_4b44, // vips
        ];
        let mut got = [0u64; 8];
        for (p, hash) in ALL_PROFILES.iter().zip(&mut got) {
            let paths;
            (*hash, paths) = stream_hash(p);
            assert!(
                paths.first_touch > 0
                    && paths.fresh > 0
                    && paths.in_place > 0
                    && paths.density_guard > 0,
                "{}: not every path exercised: {paths:?}",
                p.name
            );
        }
        assert_eq!(got, PINNED, "content stream changed (one hash per profile)");
    }

    #[test]
    fn determinism() {
        let p = &ALL_PROFILES[3];
        let old = LineData::from_units(&[0xF0F0; 8]);
        let a = ProfileContent::new(p, 11).generate(0, &old);
        let b = ProfileContent::new(p, 11).generate(0, &old);
        assert_eq!(a, b);
        let c = ProfileContent::new(p, 12).generate(0, &old);
        assert_ne!(a, c, "different seed, different data");
    }
}

//! The inverse sensitivity mechanism and `FiniteDomainQuantile`
//! (Section 2.5, Algorithm 2, Lemmas 2.7–2.8).
//!
//! To privately release the τ-th order statistic of a dataset `D` over a
//! finite ordered domain `X = Z ∩ [lo, hi]`, INV instantiates the
//! exponential mechanism with the *path length* score
//! `len(Q, D, y) = min { d(D, D′) : Q(D′) = y }`, i.e. the number of
//! records that must change before `y` becomes the true τ-quantile:
//!
//! ```text
//! Pr[INV(Q, D) = y] ∝ exp(−ε · len(Q, D, y) / 2).
//! ```
//!
//! `len` only changes when `y` crosses an element of `D`, so the domain
//! partitions into `O(n)` maximal segments of constant score, and sampling
//! is `O(n)` after sorting (`O(n log n)` total) rather than `O(|X|)` —
//! which matters because the paper routinely uses domains of width `2^40+`.
//! The segments are never materialized: one streaming Gumbel-max pass
//! visits them in domain order with `O(1)` extra memory, and segments
//! too light to ever win consume their draw without the three `ln`s
//! (DESIGN.md §12.4).
//!
//! Algorithm 2 additionally clamps ranks that are too extreme (within
//! `(2/ε)·log(|X|/β)` of either end), because INV can behave arbitrarily
//! badly there; Lemma 2.8 then gives rank error `≤ (4/ε)·log(|X|/β)`.

use crate::error::{Result, UpdpError};
use crate::exponential::{discard_gumbel, sample_gumbel};
use crate::privacy::Epsilon;
use rand::Rng;

/// The rank-clamping margin of Algorithm 2: `(2/ε)·log(|X|/β)`.
///
/// `domain_size` is `|X| = hi − lo + 1`.
pub fn rank_clamp_margin(epsilon: Epsilon, domain_size: f64, beta: f64) -> f64 {
    (2.0 / epsilon.get()) * (domain_size / beta).ln().max(1.0)
}

/// The rank-error bound of Lemma 2.8: `(4/ε)·log(|X|/β)`, valid whenever
/// `n` exceeds the same quantity.
pub fn rank_error_bound(epsilon: Epsilon, domain_size: f64, beta: f64) -> f64 {
    (4.0 / epsilon.get()) * (domain_size / beta).ln().max(1.0)
}

/// Releases a privatized τ-th order statistic of `sorted` over the finite
/// integer domain `[lo, hi]` — Algorithm 2 (`FiniteDomainQuantile`).
///
/// * `sorted` must be sorted ascending; each value is clamped into
///   `[lo, hi]` as it is read, so callers pass unclipped data (the
///   clipping steps of Algorithms 4 and 6 happen here, without a copy).
/// * `tau` is the 1-based target rank; it is clamped per Algorithm 2.
/// * Satisfies ε-DP.
///
/// With probability ≥ 1 − β the result is within rank error
/// [`rank_error_bound`] of the true `X_τ`, provided
/// `n > (4/ε)·log(|X|/β)` (Lemma 2.8). The mechanism still runs (and is
/// still private) below that size; only the utility guarantee lapses.
pub fn finite_domain_quantile<R: Rng + ?Sized>(
    rng: &mut R,
    sorted: &[i64],
    tau: usize,
    lo: i64,
    hi: i64,
    epsilon: Epsilon,
    beta: f64,
) -> Result<i64> {
    if sorted.is_empty() {
        return Err(UpdpError::EmptyDataset);
    }
    if lo > hi {
        return Err(UpdpError::InvalidParameter {
            name: "domain",
            reason: format!("lo ({lo}) must not exceed hi ({hi})"),
        });
    }
    if !(beta > 0.0 && beta < 1.0) {
        return Err(UpdpError::InvalidParameter {
            name: "beta",
            reason: format!("must be in (0, 1), got {beta}"),
        });
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");

    if lo == hi {
        return Ok(lo);
    }

    let n = sorted.len();
    let domain_size = (hi as i128 - lo as i128 + 1) as f64;

    // Rank clamping (Algorithm 2 lines 1–7).
    let margin = rank_clamp_margin(epsilon, domain_size, beta);
    let tau_f = tau as f64;
    let tau_prime_f = if tau_f <= margin {
        margin
    } else if tau_f >= n as f64 - margin {
        n as f64 - margin
    } else {
        tau_f
    };
    let tau_prime = (tau_prime_f.round() as i64).clamp(1, n as i64) as usize;

    // Stream the constant-score segments in ascending domain order
    // (values clamped into the domain; duplicates collapse into
    // (value, multiplicity) runs). Segment j has total weight
    // count_j·exp(log_weight_j); Gumbel-max keeps the first strict
    // maximum of ln(count_j) + log_weight_j + G_j as `winner`. A segment
    // that cannot win still consumes its draw, so the RNG stream and the
    // choice are those of a Gumbel-max pass over every segment.
    // len(y) given counts: c_le = #{x ≤ y}, c_lt = #{x < y}.
    let eps = epsilon.get();
    let len_for = |c_le: usize, c_lt: usize| -> u64 {
        let need_low = tau_prime.saturating_sub(c_le);
        let need_high = (c_lt + 1).saturating_sub(tau_prime);
        (need_low + need_high) as u64
    };
    let mut best_score = f64::NEG_INFINITY;
    let mut winner: Option<(i128, u64)> = None; // (start, count)
    let mut offer = |start: i128, width: i128, c_le: usize, c_lt: usize| {
        let log_weight = -eps * len_for(c_le, c_lt) as f64 / 2.0;
        // updp-lint: allow(R5, reason="-inf is the exact empty-weight sentinel in log space; equality against it is a tag check, not an approximate comparison")
        if log_weight == f64::NEG_INFINITY {
            return;
        }
        if log_weight < PRUNE_LOG_WEIGHT {
            discard_gumbel(rng);
            return;
        }
        let count = width as u64;
        let score = (count as f64).ln() + log_weight + sample_gumbel(rng);
        if score > best_score {
            best_score = score;
            winner = Some((start, count));
        }
    };

    let hi_w = hi as i128;
    let mut cursor = lo as i128; // first domain point not yet covered
    let mut count_before = 0usize; // #{x < current unique value}
    let mut i = 0usize;
    while i < n {
        let v = sorted[i].clamp(lo, hi);
        let mut j = i + 1;
        while j < n && sorted[j].clamp(lo, hi) == v {
            j += 1;
        }
        let mult = j - i;
        let v = v as i128;
        // Clamping is monotone, so each unique value lies at or past the
        // cursor (one past the previous unique value).
        debug_assert!(v >= cursor);
        // Gap strictly below v, then the singleton at v.
        if v > cursor {
            offer(cursor, v - cursor, count_before, count_before);
        }
        offer(v, 1, count_before + mult, count_before);
        cursor = v + 1;
        count_before += mult;
        i = j;
    }
    // Gap above the largest value.
    if hi_w >= cursor {
        offer(cursor, hi_w - cursor + 1, n, n);
    }

    let (start, count) = winner.ok_or(UpdpError::EmptyDataset)?;
    let offset = if count == 1 {
        0
    } else {
        rng.gen_range(0..count)
    };
    Ok((start + offset as i128) as i64)
}

/// Per-candidate log weight below which a segment can never win the
/// Gumbel-max race (DESIGN.md §12.4).
///
/// The shim's uniforms are `k·2⁻⁵³` with `0 < k < 2⁵³` after
/// [`sample_gumbel`]'s rejection of 0, so every Gumbel draw lies in
/// `[−ln(53·ln 2), −ln(−ln(1 − 2⁻⁵³))] ≈ [−3.604, 36.737]`. The len-0
/// singleton at `X_τ′` always exists, so the winning score is at least
/// −3.61; a segment of at most 2⁶⁴ candidates adds `ln count ≤ 44.4`.
/// Below −128 its score is at most −46.9 — more than 40 nats short.
const PRUNE_LOG_WEIGHT: f64 = -128.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use oracle::{materialized_finite_domain_quantile, sample_weighted_segment, WeightedSegment};
    use proptest::prelude::*;
    use rand::RngCore;

    /// The materialized Algorithm 2 that the streamed pass replaced:
    /// every constant-score segment is pushed into a vector (2n + 1 of
    /// them), then one is sampled. Kept as the reference the equivalence
    /// tests compare the streamed [`finite_domain_quantile`] against.
    mod oracle {
        use crate::error::{Result, UpdpError};
        use crate::exponential::sample_gumbel;
        use crate::inverse_sensitivity::rank_clamp_margin;
        use crate::privacy::Epsilon;
        use rand::Rng;

        /// A segment of candidates sharing one log-weight.
        ///
        /// The inverse sensitivity mechanism over an interval domain partitions
        /// the domain into `O(n)` maximal runs of equal score; each run is a
        /// `WeightedSegment` with `count` = number of candidates in the run and
        /// `log_weight` = per-candidate log weight (`−ε·len/2` for INV).
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub(super) struct WeightedSegment {
            /// Number of equally-weighted candidates in this segment (> 0).
            pub(super) count: u64,
            /// Natural-log weight of *each* candidate in the segment.
            pub(super) log_weight: f64,
        }

        /// Samples a segment index from `segments` where segment `j` has total
        /// weight `count_j · exp(log_weight_j)`.
        ///
        /// Exact sampling via Gumbel-max over `ln(count) + log_weight`. Segments
        /// with `count == 0` are skipped. Errors if every segment is empty.
        pub(super) fn sample_weighted_segment<R: Rng + ?Sized>(
            rng: &mut R,
            segments: &[WeightedSegment],
        ) -> Result<usize> {
            let mut best: Option<usize> = None;
            let mut best_score = f64::NEG_INFINITY;
            for (j, seg) in segments.iter().enumerate() {
                if seg.count == 0 {
                    continue;
                }
                debug_assert!(seg.log_weight.is_finite() || seg.log_weight == f64::NEG_INFINITY);
                if seg.log_weight == f64::NEG_INFINITY {
                    continue;
                }
                let score = (seg.count as f64).ln() + seg.log_weight + sample_gumbel(rng);
                if score > best_score {
                    best_score = score;
                    best = Some(j);
                }
            }
            best.ok_or(UpdpError::EmptyDataset)
        }

        pub(super) fn materialized_finite_domain_quantile<R: Rng + ?Sized>(
            rng: &mut R,
            sorted: &[i64],
            tau: usize,
            lo: i64,
            hi: i64,
            epsilon: Epsilon,
            beta: f64,
        ) -> Result<i64> {
            if sorted.is_empty() {
                return Err(UpdpError::EmptyDataset);
            }
            if lo > hi {
                return Err(UpdpError::InvalidParameter {
                    name: "domain",
                    reason: format!("lo ({lo}) must not exceed hi ({hi})"),
                });
            }
            if !(beta > 0.0 && beta < 1.0) {
                return Err(UpdpError::InvalidParameter {
                    name: "beta",
                    reason: format!("must be in (0, 1), got {beta}"),
                });
            }
            debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");

            if lo == hi {
                return Ok(lo);
            }

            let n = sorted.len();
            let domain_size = (hi as i128 - lo as i128 + 1) as f64;

            // Rank clamping (Algorithm 2 lines 1–7).
            let margin = rank_clamp_margin(epsilon, domain_size, beta);
            let tau_f = tau as f64;
            let tau_prime_f = if tau_f <= margin {
                margin
            } else if tau_f >= n as f64 - margin {
                n as f64 - margin
            } else {
                tau_f
            };
            let tau_prime = (tau_prime_f.round() as i64).clamp(1, n as i64) as usize;

            // Build the constant-score segments. Values are clipped into the
            // domain first; duplicates collapse into (value, multiplicity) runs.
            let mut segments: Vec<WeightedSegment> = Vec::with_capacity(2 * n + 1);
            let mut starts: Vec<i128> = Vec::with_capacity(2 * n + 1);

            let eps = epsilon.get();
            // len(y) given counts: c_le = #{x ≤ y}, c_lt = #{x < y}.
            let len_for = |c_le: usize, c_lt: usize| -> u64 {
                let need_low = tau_prime.saturating_sub(c_le);
                let need_high = (c_lt + 1).saturating_sub(tau_prime);
                (need_low + need_high) as u64
            };
            let push = |start: i128,
                        width: i128,
                        c_le: usize,
                        c_lt: usize,
                        segments: &mut Vec<WeightedSegment>,
                        starts: &mut Vec<i128>| {
                if width <= 0 {
                    return;
                }
                let len = len_for(c_le, c_lt);
                segments.push(WeightedSegment {
                    count: width as u64,
                    log_weight: -eps * len as f64 / 2.0,
                });
                starts.push(start);
            };

            let lo_w = lo as i128;
            let hi_w = hi as i128;
            let mut cursor = lo_w; // first domain point not yet covered
            let mut count_before = 0usize; // #{x < current unique value}
            let mut i = 0usize;
            while i < n {
                let v = (sorted[i].clamp(lo, hi)) as i128;
                let mut j = i;
                while j < n && (sorted[j].clamp(lo, hi)) as i128 == v {
                    j += 1;
                }
                let mult = j - i;
                // Gap strictly below v (may be empty if duplicates clip together).
                if v > cursor {
                    push(
                        cursor,
                        v - cursor,
                        count_before,
                        count_before,
                        &mut segments,
                        &mut starts,
                    );
                }
                // Singleton at v.
                if v >= cursor {
                    push(
                        v,
                        1,
                        count_before + mult,
                        count_before,
                        &mut segments,
                        &mut starts,
                    );
                    cursor = v + 1;
                }
                count_before += mult;
                i = j;
            }
            // Gap above the largest value.
            if hi_w >= cursor {
                push(cursor, hi_w - cursor + 1, n, n, &mut segments, &mut starts);
            }

            let chosen = sample_weighted_segment(rng, &segments)?;
            let seg = segments[chosen];
            let start = starts[chosen];
            let offset = if seg.count == 1 {
                0
            } else {
                rng.gen_range(0..seg.count)
            };
            Ok((start + offset as i128) as i64)
        }
    }

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    /// True rank distance between the returned value and the target order
    /// statistic: number of data elements strictly between them.
    fn rank_error(sorted: &[i64], tau: usize, y: i64) -> usize {
        let xt = sorted[tau - 1];
        if y >= xt {
            sorted.iter().filter(|&&x| x > xt && x <= y).count()
        } else {
            sorted.iter().filter(|&&x| x >= y && x < xt).count()
        }
    }

    #[test]
    fn median_of_large_dataset_is_accurate() {
        let n = 2000i64;
        let sorted: Vec<i64> = (0..n).collect();
        let e = eps(1.0);
        let beta = 0.1;
        let mut failures = 0;
        let trials = 100;
        for seed in 0..trials {
            let mut rng = seeded(seed);
            let y =
                finite_domain_quantile(&mut rng, &sorted, 1000, -10_000, 10_000, e, beta).unwrap();
            let err = rank_error(&sorted, 1000, y);
            let bound = rank_error_bound(e, 20_001.0, beta);
            if err as f64 > bound {
                failures += 1;
            }
        }
        assert!(failures <= 15, "rank-error bound violated {failures}/100");
    }

    #[test]
    fn respects_domain_bounds() {
        let sorted = vec![5, 5, 5, 5, 5];
        for seed in 0..50 {
            let mut rng = seeded(seed);
            let y = finite_domain_quantile(&mut rng, &sorted, 3, 0, 10, eps(1.0), 0.1).unwrap();
            assert!((0..=10).contains(&y));
        }
    }

    #[test]
    fn point_mass_concentrates_on_value() {
        // 1000 copies of 42 in a wide domain: the median must be 42 nearly
        // always, because any other value needs ≥ 500 changes.
        let sorted = vec![42i64; 1000];
        let mut hits = 0;
        for seed in 0..100 {
            let mut rng = seeded(100 + seed);
            let y = finite_domain_quantile(
                &mut rng,
                &sorted,
                500,
                -1_000_000,
                1_000_000,
                eps(1.0),
                0.1,
            )
            .unwrap();
            if y == 42 {
                hits += 1;
            }
        }
        assert_eq!(hits, 100, "point mass leaked: {hits}/100");
    }

    #[test]
    fn handles_duplicates_correctly() {
        let sorted = vec![0, 0, 0, 10, 10, 10, 10, 20, 20, 20];
        let mut rng = seeded(7);
        for tau in 1..=10 {
            let y =
                finite_domain_quantile(&mut rng, &sorted, tau, -100, 100, eps(2.0), 0.1).unwrap();
            assert!((-100..=100).contains(&y));
        }
    }

    #[test]
    fn extreme_ranks_are_clamped_not_crazy() {
        // τ = 1 with a small margin would let INV return the domain edge;
        // clamping keeps it near the low order statistics.
        let sorted: Vec<i64> = (0..1000).collect();
        let mut rng = seeded(8);
        let y = finite_domain_quantile(&mut rng, &sorted, 1, -1_000_000, 1_000_000, eps(1.0), 0.1)
            .unwrap();
        // Clamped rank is ~29; allow the Lemma 2.8 slack around it.
        assert!(y > -500 && y < 500, "clamped extreme rank gave {y}");
    }

    #[test]
    fn degenerate_domain_returns_the_point() {
        let sorted = vec![3, 3, 3];
        let mut rng = seeded(9);
        assert_eq!(
            finite_domain_quantile(&mut rng, &sorted, 2, 7, 7, eps(1.0), 0.1).unwrap(),
            7
        );
    }

    #[test]
    fn rejects_invalid_inputs() {
        let mut rng = seeded(10);
        assert!(finite_domain_quantile(&mut rng, &[], 1, 0, 10, eps(1.0), 0.1).is_err());
        assert!(finite_domain_quantile(&mut rng, &[1], 1, 10, 0, eps(1.0), 0.1).is_err());
        assert!(finite_domain_quantile(&mut rng, &[1], 1, 0, 10, eps(1.0), 0.0).is_err());
        assert!(finite_domain_quantile(&mut rng, &[1], 1, 0, 10, eps(1.0), 1.0).is_err());
    }

    #[test]
    fn huge_domain_does_not_overflow() {
        let sorted = vec![0i64; 100];
        let mut rng = seeded(11);
        let y = finite_domain_quantile(
            &mut rng,
            &sorted,
            50,
            i64::MIN / 2,
            i64::MAX / 2,
            eps(1.0),
            0.1,
        )
        .unwrap();
        assert!((i64::MIN / 2..=i64::MAX / 2).contains(&y));
    }

    #[test]
    fn values_outside_domain_are_clipped() {
        // Data far outside [0, 10] behaves as if clipped to the edges.
        let sorted = vec![-1000, -1000, 5, 1000, 1000];
        let mut rng = seeded(12);
        for _ in 0..20 {
            let y = finite_domain_quantile(&mut rng, &sorted, 3, 0, 10, eps(5.0), 0.1).unwrap();
            assert!((0..=10).contains(&y));
        }
    }

    #[test]
    fn higher_epsilon_concentrates_sampling() {
        let sorted: Vec<i64> = (0..500).map(|i| i * 2).collect();
        let tau = 250;
        let spread = |e: f64, master: u64| -> f64 {
            let mut errs = Vec::new();
            for s in 0..60 {
                let mut rng = seeded(master + s);
                let y =
                    finite_domain_quantile(&mut rng, &sorted, tau, -10_000, 10_000, eps(e), 0.1)
                        .unwrap();
                errs.push(rank_error(&sorted, tau, y) as f64);
            }
            errs.iter().sum::<f64>() / errs.len() as f64
        };
        let loose = spread(0.1, 400);
        let tight = spread(5.0, 800);
        assert!(
            tight < loose,
            "mean rank error did not shrink with ε: {tight} !< {loose}"
        );
    }

    #[test]
    fn segment_sampling_respects_count_and_weight() {
        let mut rng = seeded(5);
        // Segment 0: 1000 candidates at weight e^0; segment 1: 1 candidate
        // at weight e^0. Segment 0 should win ~1000/1001 of the time.
        let segments = [
            WeightedSegment {
                count: 1000,
                log_weight: 0.0,
            },
            WeightedSegment {
                count: 1,
                log_weight: 0.0,
            },
        ];
        let trials = 50_000;
        let mut seg0 = 0;
        for _ in 0..trials {
            if sample_weighted_segment(&mut rng, &segments).unwrap() == 0 {
                seg0 += 1;
            }
        }
        let p = seg0 as f64 / trials as f64;
        assert!(p > 0.995, "p = {p}");
    }

    #[test]
    fn segment_sampling_balances_count_against_weight() {
        let mut rng = seeded(6);
        // count 100 at log-weight −ln(100) ≡ total weight 1, vs count 1 at
        // log-weight 0 ≡ total weight 1: should be ~50/50.
        let segments = [
            WeightedSegment {
                count: 100,
                log_weight: -(100.0f64).ln(),
            },
            WeightedSegment {
                count: 1,
                log_weight: 0.0,
            },
        ];
        let trials = 100_000;
        let mut seg0 = 0;
        for _ in 0..trials {
            if sample_weighted_segment(&mut rng, &segments).unwrap() == 0 {
                seg0 += 1;
            }
        }
        let p = seg0 as f64 / trials as f64;
        assert!((p - 0.5).abs() < 0.01, "p = {p}");
    }

    #[test]
    fn segment_sampling_skips_empty_segments() {
        let mut rng = seeded(7);
        let segments = [
            WeightedSegment {
                count: 0,
                log_weight: 100.0,
            },
            WeightedSegment {
                count: 1,
                log_weight: -50.0,
            },
        ];
        assert_eq!(sample_weighted_segment(&mut rng, &segments).unwrap(), 1);
    }

    #[test]
    fn segment_sampling_errors_on_all_empty() {
        let mut rng = seeded(8);
        let segments = [WeightedSegment {
            count: 0,
            log_weight: 0.0,
        }];
        assert!(sample_weighted_segment(&mut rng, &segments).is_err());
    }

    /// Runs the streamed and the materialized sampler from the same seed;
    /// each result comes with its RNG's next draw.
    fn run_both(
        seed: u64,
        sorted: &[i64],
        tau: usize,
        lo: i64,
        hi: i64,
        e: f64,
        beta: f64,
    ) -> [(Option<i64>, u64); 2] {
        let (mut a, mut b) = (seeded(seed), seeded(seed));
        let streamed = finite_domain_quantile(&mut a, sorted, tau, lo, hi, eps(e), beta).ok();
        let oracle =
            materialized_finite_domain_quantile(&mut b, sorted, tau, lo, hi, eps(e), beta).ok();
        [(streamed, a.next_u64()), (oracle, b.next_u64())]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn streamed_sampler_matches_materialized_oracle(
            raw in prop::collection::vec(-60i64..60, 1..120),
            shape in 0u8..4,
            scale_bits in 0u32..55,
            lo_raw in -80i64..80,
            width_raw in 0i64..200,
            tau_raw in 0usize..130,
            log10_eps in -3.0f64..1.7,
            beta in 0.01f64..0.5,
            seed in 0u64..u64::MAX,
        ) {
            // Duplicates come from the narrow value range; the scale
            // spreads them over domains up to i64::MIN/2..i64::MAX/2.
            let scale = 1i64 << scale_bits;
            let mut sorted: Vec<i64> = raw.iter().map(|&v| v * scale).collect();
            sorted.sort_unstable();
            let (lo, hi) = match shape {
                // A domain around (and often narrower than) the data.
                0 => (lo_raw * scale, (lo_raw + width_raw) * scale),
                // The widest domain the estimators use.
                1 => (i64::MIN / 2, i64::MAX / 2),
                // A single point.
                2 => (lo_raw * scale, lo_raw * scale),
                // Strictly inside the data: values clamp at both edges.
                _ => (-scale, scale),
            };
            let tau = tau_raw.min(sorted.len() + 5);
            let e = 10f64.powf(log10_eps);
            let [streamed, oracle] = run_both(seed, &sorted, tau, lo, hi, e, beta);
            prop_assert_eq!(streamed, oracle, "(value, next draw) differ");
        }
    }

    #[test]
    fn segments_straddling_the_prune_line_match_the_oracle() {
        // ε = 2 puts the prune line at len = 128: rank distances 0..300
        // give segments exactly on it (log weight −128, kept), just past
        // it (−129, pruned) and far beyond, on both sides of X_τ′.
        let sorted: Vec<i64> = (0..600).map(|i| i * 3 - 900).collect();
        let log_weight = |len: u64| -2.0 * len as f64 / 2.0;
        assert!(log_weight(128) >= PRUNE_LOG_WEIGHT && log_weight(129) < PRUNE_LOG_WEIGHT);
        for seed in 0..200 {
            for tau in [1, 129, 300, 472, 600] {
                let [streamed, oracle] = run_both(seed, &sorted, tau, -2000, 2000, 2.0, 0.1);
                assert_eq!(streamed, oracle, "seed {seed} tau {tau}");
            }
        }
    }

    #[test]
    fn prune_line_leaves_a_margin_over_40_nats() {
        // The extreme Gumbel draws of the shim's 53-bit uniforms.
        let u_min = 2f64.powi(-53);
        let u_max = 1.0 - 2f64.powi(-53);
        let g_min = -(-u_min.ln()).ln();
        let g_max = -(-u_max.ln()).ln();
        assert!(g_min > -3.61 && g_max < 36.74, "{g_min} {g_max}");
        // The len-0 singleton scores at least ln 1 + 0 + g_min; a pruned
        // segment of up to 2^64 candidates at most 64·ln 2 + line + g_max.
        let winner_floor = g_min;
        let pruned_ceiling = 64.0 * std::f64::consts::LN_2 + PRUNE_LOG_WEIGHT + g_max;
        assert!(winner_floor - pruned_ceiling > 40.0);
    }
}

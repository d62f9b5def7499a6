//! The exponential mechanism and its Gumbel-max sampling primitives.
//!
//! Given candidates `y ∈ Y` with utility scores `u(D, y)` of sensitivity
//! `Δu`, the exponential mechanism samples `y` with probability
//! `∝ exp(ε·u(D,y) / (2Δu))` and satisfies ε-DP. The inverse sensitivity
//! mechanism (Section 2.5) instantiates it with `u = −len(Q, D, y)`.
//!
//! Sampling is done with the Gumbel-max trick in log space, which is exact
//! (same distribution as normalized weights) and immune to `exp` overflow
//! or underflow even when scores span thousands of nats — which happens
//! routinely for quantile domains of width `2^40`. The weighted-segment
//! form the inverse sensitivity mechanism needs is streamed inside
//! [`crate::inverse_sensitivity::finite_domain_quantile`] on top of
//! [`sample_gumbel`] and `discard_gumbel`.

use crate::error::{ensure_nonempty, Result, UpdpError};
use crate::privacy::Epsilon;
use rand::Rng;

/// Draws one standard Gumbel variate: `−ln(−ln U)` for `U ~ Uniform(0,1)`.
#[inline]
pub fn sample_gumbel<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen();
        if u > 0.0 {
            let e = -u.ln();
            if e > 0.0 {
                return -e.ln();
            }
        }
    }
}

/// The exponential mechanism over an explicit candidate list.
///
/// Samples index `i` with probability `∝ exp(ε·utilities[i] / (2·Δu))`.
/// Returns the chosen index. Errors on empty input, non-positive
/// sensitivity, or non-finite utilities (use `f64::NEG_INFINITY`-free
/// scores; impossible candidates should simply be omitted).
pub fn exponential_mechanism<R: Rng + ?Sized>(
    rng: &mut R,
    utilities: &[f64],
    sensitivity: f64,
    epsilon: Epsilon,
) -> Result<usize> {
    ensure_nonempty(utilities)?;
    if !(sensitivity.is_finite() && sensitivity > 0.0) {
        return Err(UpdpError::InvalidParameter {
            name: "sensitivity",
            reason: format!("must be finite and positive, got {sensitivity}"),
        });
    }
    if utilities.iter().any(|u| !u.is_finite()) {
        return Err(UpdpError::NonFiniteInput {
            context: "exponential mechanism utilities",
        });
    }
    let factor = epsilon.get() / (2.0 * sensitivity);
    let mut best = 0;
    let mut best_score = f64::NEG_INFINITY;
    for (i, &u) in utilities.iter().enumerate() {
        let score = factor * u + sample_gumbel(rng);
        if score > best_score {
            best_score = score;
            best = i;
        }
    }
    Ok(best)
}

/// Consumes exactly the uniforms [`sample_gumbel`] would draw, without
/// computing the variate — for candidates that provably cannot win a
/// Gumbel-max race but must still advance the RNG stream.
///
/// The draw sequences agree because `sample_gumbel`'s inner rejection
/// (`−ln U > 0`) never fires: the shim's `gen::<f64>()` is `k·2⁻⁵³`
/// with `k < 2⁵³`, so every `U > 0` is at most `1 − 2⁻⁵³`, whose `ln`
/// is already negative. Only the `U == 0` rejection remains, and it is
/// kept here.
#[inline]
pub(crate) fn discard_gumbel<R: Rng + ?Sized>(rng: &mut R) {
    loop {
        let u: f64 = rng.gen();
        if u > 0.0 {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn prefers_high_utility() {
        let mut rng = seeded(1);
        let utilities = [0.0, 0.0, 40.0, 0.0];
        let mut counts = [0usize; 4];
        for _ in 0..500 {
            let i = exponential_mechanism(&mut rng, &utilities, 1.0, eps(1.0)).unwrap();
            counts[i] += 1;
        }
        assert!(counts[2] > 480, "counts = {counts:?}");
    }

    #[test]
    fn frequencies_match_exponential_weights() {
        let mut rng = seeded(2);
        // Two candidates with utility gap g: ratio should be e^{εg/2}.
        let utilities = [0.0, 2.0];
        let e = eps(1.0);
        let trials = 200_000;
        let mut hit1 = 0;
        for _ in 0..trials {
            if exponential_mechanism(&mut rng, &utilities, 1.0, e).unwrap() == 1 {
                hit1 += 1;
            }
        }
        let p1 = hit1 as f64 / trials as f64;
        let expected = (1.0f64).exp() / (1.0 + (1.0f64).exp()); // e^{ε·2/2} vs e^0
        assert!(
            (p1 - expected).abs() < 0.01,
            "p1 = {p1}, expected {expected}"
        );
    }

    #[test]
    fn survives_huge_score_ranges() {
        let mut rng = seeded(3);
        // Scores spanning thousands of nats would overflow a naive exp.
        let utilities: Vec<f64> = (0..100).map(|i| -(i as f64) * 100.0).collect();
        let i = exponential_mechanism(&mut rng, &utilities, 1.0, eps(1.0)).unwrap();
        assert_eq!(i, 0);
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut rng = seeded(4);
        assert!(exponential_mechanism(&mut rng, &[], 1.0, eps(1.0)).is_err());
        assert!(exponential_mechanism(&mut rng, &[0.0], 0.0, eps(1.0)).is_err());
        assert!(exponential_mechanism(&mut rng, &[f64::NAN], 1.0, eps(1.0)).is_err());
    }

    #[test]
    fn largest_uniform_has_a_negative_log() {
        // `sample_gumbel` rejects U = 0 and then `−ln U ≤ 0`; the second
        // rejection can only fire at U = 1, which the 53-bit shim never
        // returns. So `discard_gumbel`, which keeps only the first, draws
        // the same uniforms.
        let largest = 1.0 - 2f64.powi(-53);
        assert!(-largest.ln() > 0.0);
    }

    #[test]
    fn discard_gumbel_consumes_the_draws_of_sample_gumbel() {
        use rand::RngCore;
        for seed in 0..64 {
            let (mut a, mut b) = (seeded(seed), seeded(seed));
            for _ in 0..100 {
                sample_gumbel(&mut a);
                discard_gumbel(&mut b);
            }
            assert_eq!(a.next_u64(), b.next_u64(), "seed {seed}");
        }
        // A zero uniform is rejected by both: words below 2^11 map to 0.
        struct Script(std::vec::IntoIter<u64>);
        impl RngCore for Script {
            fn next_u32(&mut self) -> u32 {
                (self.next_u64() >> 32) as u32
            }
            fn next_u64(&mut self) -> u64 {
                self.0.next().expect("script exhausted")
            }
            fn fill_bytes(&mut self, _: &mut [u8]) {
                unimplemented!()
            }
        }
        let words = vec![0, 2047, u64::MAX, 7 << 11, 99];
        let (mut a, mut b) = (Script(words.clone().into_iter()), Script(words.into_iter()));
        sample_gumbel(&mut a);
        discard_gumbel(&mut b);
        assert_eq!(a.next_u64(), 7 << 11);
        assert_eq!(b.next_u64(), 7 << 11);
    }
}

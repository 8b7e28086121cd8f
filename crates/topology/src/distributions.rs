//! Small seeded sampling helpers.
//!
//! The evaluation needs three distributions: Weibull (per-fiber failure
//! probabilities, §6), log-normal (gravity-model site weights), and
//! discrete histograms (wavelengths-per-IP-link, Fig. 22b). `rand_distr` is
//! not among the approved dependencies, so the inverse-CDF / Box–Muller
//! forms are implemented here directly.

use rand::Rng;

/// Samples a Weibull(`shape`, `scale`) variate by inverse CDF:
/// `scale * (-ln(1 - U))^(1/shape)`.
pub(crate) fn weibull<R: Rng + ?Sized>(rng: &mut R, shape: f64, scale: f64) -> f64 {
    assert!(shape > 0.0 && scale > 0.0, "Weibull parameters must be positive");
    let u: f64 = rng.gen_range(0.0..1.0);
    scale * (-(1.0 - u).ln()).powf(1.0 / shape)
}

/// Samples a standard normal variate via Box–Muller.
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples a log-normal variate `exp(mu + sigma * Z)`.
pub(crate) fn log_normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * standard_normal(rng)).exp()
}

/// Samples an index from a discrete histogram of nonnegative weights.
///
/// # Panics
/// Panics if the weights are empty or sum to zero.
pub(crate) fn discrete<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0 && !weights.is_empty(), "histogram must have positive mass");
    let mut t = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if t < w {
            return i;
        }
        t -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn weibull_mean_matches_theory() {
        // Mean of Weibull(k, λ) is λ·Γ(1 + 1/k). For k=0.8: Γ(2.25) ≈ 1.1330.
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| weibull(&mut rng, 0.8, 0.02)).sum::<f64>() / n as f64;
        let expected = 0.02 * 1.1330;
        assert!((mean - expected).abs() / expected < 0.02, "mean {mean} vs {expected}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn log_normal_is_positive() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(log_normal(&mut rng, 0.0, 1.5) > 0.0);
        }
    }

    #[test]
    fn discrete_respects_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[discrete(&mut rng, &[1.0, 0.0, 3.0])] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn determinism_under_seed() {
        let a: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..5).map(|_| weibull(&mut rng, 0.8, 0.02)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..5).map(|_| weibull(&mut rng, 0.8, 0.02)).collect()
        };
        assert_eq!(a, b);
    }
}

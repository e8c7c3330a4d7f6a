//! Statistics for the experiment harness: a χ² uniformity test (the tool
//! used to check the *fairness* of honest executions). Binomial confidence
//! intervals are [`fle_harness::wilson_ci95`].

/// Pearson χ² statistic and p-value for the hypothesis that `counts` are
/// uniform draws over `counts.len()` categories.
///
/// # Panics
///
/// Panics if fewer than two categories are given.
pub fn chi_square_uniform(counts: &[u64]) -> (f64, f64) {
    assert!(counts.len() >= 2, "need at least two categories");
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return (0.0, 1.0);
    }
    let expected = total as f64 / counts.len() as f64;
    let stat: f64 = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum();
    let dof = (counts.len() - 1) as f64;
    (stat, gamma_q(dof / 2.0, stat / 2.0))
}

/// Upper regularized incomplete gamma `Q(a, x) = Γ(a, x) / Γ(a)` —
/// the χ² survival function is `Q(k/2, x/2)`.
///
/// Series expansion for `x < a + 1`, Lentz continued fraction otherwise
/// (Numerical Recipes 6.2). Accurate to ~1e-10 for the ranges used here.
fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_q domain error");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_contfrac(a, x)
    }
}

fn ln_gamma(z: f64) -> f64 {
    // Lanczos approximation (g = 7, n = 9).
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if z < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * z).sin()).ln() - ln_gamma(1.0 - z);
    }
    let z = z - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (z + i as f64);
    }
    let t = z + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (z + 0.5) * t.ln() - t + acc.ln()
}

fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut term = 1.0 / a;
    let mut sum = term;
    let mut ap = a;
    for _ in 0..500 {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if term.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

fn gamma_q_contfrac(a: f64, x: f64) -> f64 {
    let tiny = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / tiny;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < tiny {
            d = tiny;
        }
        c = b + an / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(5) = 24, Γ(0.5) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn gamma_q_known_values() {
        // Q(0.5, x/2) is the χ²₁ survival function: Q at x=3.841 ≈ 0.05.
        assert!((gamma_q(0.5, 3.841 / 2.0) - 0.05).abs() < 1e-3);
        // χ²₁₀ at 18.307 ≈ 0.05.
        assert!((gamma_q(5.0, 18.307 / 2.0) - 0.05).abs() < 1e-3);
        assert!((gamma_q(1.0, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chi_square_accepts_uniform_rejects_skewed() {
        let uniform = vec![100u64; 10];
        let (_, p) = chi_square_uniform(&uniform);
        assert!(p > 0.99);
        let skewed = vec![500, 100, 100, 100, 100, 100, 100, 100, 100, 100];
        let (_, p) = chi_square_uniform(&skewed);
        assert!(p < 1e-6);
    }
}

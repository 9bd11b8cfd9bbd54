//! Special functions: ln-gamma, regularized incomplete gamma and beta,
//! and the error function.
//!
//! These are the numerical roots of every quality measure the paper
//! relies on (Section 3: "we could use the R² coefficient of
//! determination or the results of an F-test"): the F and Student-t
//! cumulative distributions are regularized incomplete beta functions,
//! and erf is a regularized incomplete gamma.
//!
//! Implementations follow the classic Lanczos / continued-fraction
//! formulations (Numerical Recipes style) with double-precision accuracy
//! of roughly 1e-13 over the ranges exercised by model diagnostics.

/// Natural log of the gamma function for `x > 0`, via a 9-term Lanczos
/// approximation (g = 7).
pub fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients for g = 7, n = 9.
    const COEF: [f64; 9] = [
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
    if x <= 0.0 {
        // Reflection formula for the log-gamma of non-positive reals is
        // only needed by tests; diagnostics always pass positive df.
        if x == x.floor() {
            return f64::INFINITY; // poles at non-positive integers
        }
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin().abs()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma function `P(a, x)`.
///
/// Uses the series expansion for `x < a + 1` and the continued fraction
/// otherwise, per the usual domain split.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    if !(a > 0.0) || x < 0.0 || x.is_nan() {
        return f64::NAN;
    }
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 − P(a, x)`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    if !(a > 0.0) || x < 0.0 || x.is_nan() {
        return f64::NAN;
    }
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

fn gamma_p_series(a: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-15;
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

fn gamma_q_cf(a: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-15;
    const FPMIN: f64 = f64::MIN_POSITIVE / EPS;
    // Modified Lentz algorithm for the continued fraction.
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Regularized incomplete beta function `I_x(a, b)`.
pub fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    if !(a > 0.0) || !(b > 0.0) || x.is_nan() {
        return f64::NAN;
    }
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    // Symmetry split keeps the continued fraction convergent.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-15;
    const FPMIN: f64 = f64::MIN_POSITIVE / EPS;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Error function, via the regularized incomplete gamma: `erf(x) =
/// sign(x) · P(1/2, x²)`.
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let v = gamma_p(0.5, x * x);
    if x >= 0.0 {
        v
    } else {
        -v
    }
}

/// Complementary error function.
pub fn erfc(x: f64) -> f64 {
    1.0 - erf(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn ln_gamma_integer_factorials() {
        // Γ(n) = (n-1)!
        close(ln_gamma(1.0), 0.0, 1e-13);
        close(ln_gamma(2.0), 0.0, 1e-13);
        close(ln_gamma(5.0), 24.0_f64.ln(), 1e-12);
        close(ln_gamma(11.0), 3_628_800.0_f64.ln(), 1e-11);
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = √π.
        close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-13);
        // Γ(3/2) = √π/2.
        close(ln_gamma(1.5), (std::f64::consts::PI.sqrt() / 2.0).ln(), 1e-13);
    }

    #[test]
    fn gamma_p_q_complementary() {
        for &(a, x) in &[(0.5, 0.3), (2.0, 1.0), (5.0, 10.0), (10.0, 3.0)] {
            close(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-13);
        }
    }

    #[test]
    fn gamma_p_exponential_special_case() {
        // P(1, x) = 1 − e^{−x}.
        for &x in &[0.1, 1.0, 2.5, 7.0] {
            close(gamma_p(1.0, x), 1.0 - (-x).exp(), 1e-13);
        }
    }

    #[test]
    fn gamma_p_boundaries() {
        assert_eq!(gamma_p(2.0, 0.0), 0.0);
        assert_eq!(gamma_q(2.0, 0.0), 1.0);
        assert!(gamma_p(-1.0, 1.0).is_nan());
        assert!(gamma_p(1.0, -1.0).is_nan());
    }

    #[test]
    fn beta_inc_boundaries_and_symmetry() {
        assert_eq!(beta_inc(2.0, 3.0, 0.0), 0.0);
        assert_eq!(beta_inc(2.0, 3.0, 1.0), 1.0);
        // I_x(a,b) = 1 − I_{1−x}(b,a).
        for &(a, b, x) in &[(2.0, 3.0, 0.4), (0.5, 0.5, 0.2), (7.0, 1.5, 0.8)] {
            close(beta_inc(a, b, x), 1.0 - beta_inc(b, a, 1.0 - x), 1e-12);
        }
    }

    #[test]
    fn beta_inc_uniform_special_case() {
        // I_x(1, 1) = x.
        for &x in &[0.1, 0.37, 0.9] {
            close(beta_inc(1.0, 1.0, x), x, 1e-13);
        }
    }

    #[test]
    fn beta_inc_known_value() {
        // I_{0.5}(2, 2) = 0.5 by symmetry.
        close(beta_inc(2.0, 2.0, 0.5), 0.5, 1e-13);
        // I_x(1, 2) = 1 − (1−x)² = 2x − x².
        close(beta_inc(1.0, 2.0, 0.3), 2.0 * 0.3 - 0.09, 1e-13);
    }

    #[test]
    fn erf_reference_values() {
        close(erf(0.0), 0.0, 1e-15);
        close(erf(1.0), 0.842_700_792_949_714_9, 1e-12);
        close(erf(-1.0), -0.842_700_792_949_714_9, 1e-12);
        close(erf(2.0), 0.995_322_265_018_952_7, 1e-12);
        close(erfc(1.0), 1.0 - 0.842_700_792_949_714_9, 1e-12);
    }

    #[test]
    fn erf_saturates() {
        assert!(erf(10.0) > 0.999_999_999);
        assert!(erf(-10.0) < -0.999_999_999);
    }
}

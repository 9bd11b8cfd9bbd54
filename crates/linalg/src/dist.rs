//! Probability distributions for model diagnostics.
//!
//! The paper's interception layer judges every captured model (Section 3,
//! step 2: "Judge the quality of the model"). That judging needs:
//!
//! * the **F distribution** — F-test of a fitted model against a reduced
//!   model with fewer parameters;
//! * the **Student-t distribution** — per-parameter significance
//!   (t-statistics) and prediction intervals on approximate answers
//!   ("returned with error bounds", Figure 2 step 5);
//! * the **Normal distribution** — CLT error bars for the sampling-AQP
//!   baseline.

use crate::special::{beta_inc, erf};

/// Standard normal cumulative distribution function.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Standard normal density.
pub fn normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Inverse of the standard normal CDF (the probit function).
///
/// Acklam's rational approximation refined with one Halley step; accurate
/// to well below 1e-12 across (0, 1). Returns ±∞ at the boundaries and
/// NaN outside [0, 1].
pub fn normal_quantile(p: f64) -> f64 {
    if p.is_nan() || !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    // Coefficients of Acklam's approximation.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement step against the true CDF.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Student-t cumulative distribution function with `df` degrees of
/// freedom.
pub fn t_cdf(t: f64, df: f64) -> f64 {
    if !(df > 0.0) || t.is_nan() {
        return f64::NAN;
    }
    let x = df / (df + t * t);
    let p = 0.5 * beta_inc(0.5 * df, 0.5, x);
    if t > 0.0 {
        1.0 - p
    } else {
        p
    }
}

/// Two-sided p-value for a t-statistic.
pub fn t_two_sided_p(t: f64, df: f64) -> f64 {
    if t.is_nan() {
        return f64::NAN;
    }
    2.0 * (1.0 - t_cdf(t.abs(), df))
}

/// Quantile of the Student-t distribution via bisection on [`t_cdf`].
///
/// The fitting layer only evaluates this a handful of times per captured
/// model (confidence bands), so a robust 1e-12 bisection is preferable to
/// a long closed-form approximation.
pub fn t_quantile(p: f64, df: f64) -> f64 {
    if !(df > 0.0) || !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    if (p - 0.5).abs() < 1e-300 {
        return 0.0;
    }
    // Bracket: normal quantile is a good starting scale; widen until the
    // CDF brackets p.
    let mut lo = -1.0;
    let mut hi = 1.0;
    while t_cdf(lo, df) > p {
        lo *= 2.0;
        if lo < -1e12 {
            return f64::NEG_INFINITY;
        }
    }
    while t_cdf(hi, df) < p {
        hi *= 2.0;
        if hi > 1e12 {
            return f64::INFINITY;
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if t_cdf(mid, df) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-13 * (1.0 + hi.abs()) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// F-distribution cumulative distribution function with `(d1, d2)`
/// degrees of freedom.
pub fn f_cdf(f: f64, d1: f64, d2: f64) -> f64 {
    if !(d1 > 0.0) || !(d2 > 0.0) || f.is_nan() {
        return f64::NAN;
    }
    if f <= 0.0 {
        return 0.0;
    }
    beta_inc(0.5 * d1, 0.5 * d2, d1 * f / (d1 * f + d2))
}

/// Upper-tail p-value of an F statistic — the quantity reported by the
/// model-vs-reduced-model F-test in fit diagnostics.
pub fn f_p_value(f: f64, d1: f64, d2: f64) -> f64 {
    if f.is_nan() {
        return f64::NAN;
    }
    if f <= 0.0 {
        return 1.0;
    }
    1.0 - f_cdf(f, d1, d2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn normal_cdf_reference() {
        close(normal_cdf(0.0), 0.5, 1e-15);
        close(normal_cdf(1.959_963_984_540_054), 0.975, 1e-12);
        close(normal_cdf(-1.0), 0.158_655_253_931_457_05, 1e-12);
    }

    #[test]
    fn normal_quantile_roundtrip() {
        for &p in &[0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999] {
            close(normal_cdf(normal_quantile(p)), p, 1e-12);
        }
        close(normal_quantile(0.975), 1.959_963_984_540_054, 1e-9);
        assert_eq!(normal_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(normal_quantile(1.0), f64::INFINITY);
        assert!(normal_quantile(1.5).is_nan());
    }

    #[test]
    fn t_cdf_matches_normal_for_large_df() {
        for &x in &[-2.0, -0.5, 0.0, 1.0, 2.5] {
            close(t_cdf(x, 1e7), normal_cdf(x), 1e-6);
        }
    }

    #[test]
    fn t_cdf_cauchy_special_case() {
        // t with df = 1 is the Cauchy distribution: CDF = 1/2 + atan(x)/π.
        for &x in &[-3.0, -1.0, 0.0, 0.5, 4.0] {
            close(t_cdf(x, 1.0), 0.5 + x.atan() / std::f64::consts::PI, 1e-12);
        }
    }

    #[test]
    fn t_quantile_reference() {
        // t_{0.975, 10} = 2.228138852 (standard table value).
        close(t_quantile(0.975, 10.0), 2.228_138_852, 1e-7);
        close(t_quantile(0.5, 7.0), 0.0, 1e-12);
        // Symmetry.
        close(t_quantile(0.025, 10.0), -t_quantile(0.975, 10.0), 1e-9);
    }

    #[test]
    fn f_cdf_reference() {
        // F(1, d2) relates to t²: P(F ≤ f) = P(|t| ≤ √f) for t with d2 df.
        let f = 4.0;
        let via_t = t_cdf(2.0, 12.0) - t_cdf(-2.0, 12.0);
        close(f_cdf(f, 1.0, 12.0), via_t, 1e-12);
        // F_{0.95}(2, 10) ≈ 4.10282 — check CDF there is 0.95.
        close(f_cdf(4.102_821, 2.0, 10.0), 0.95, 1e-5);
    }

    #[test]
    fn f_p_value_edges() {
        assert_eq!(f_p_value(0.0, 2.0, 10.0), 1.0);
        assert!(f_p_value(1e6, 2.0, 10.0) < 1e-9);
    }

    #[test]
    fn invalid_inputs_yield_nan() {
        assert!(t_cdf(1.0, 0.0).is_nan());
        assert!(f_cdf(1.0, -1.0, 2.0).is_nan());
    }
}

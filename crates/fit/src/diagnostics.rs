//! Goodness-of-fit judgment — step 2 of the paper's capture protocol
//! ("Judge the quality of the model") and the source of the error
//! bounds attached to approximate answers.

use lawsdb_linalg::dist::{f_p_value, t_two_sided_p};
use lawsdb_linalg::Matrix;

/// Per-parameter inference.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamStats {
    /// Parameter name.
    pub name: String,
    /// Fitted value.
    pub estimate: f64,
    /// Standard error `√(σ̂²·[(XᵀX)⁻¹]ⱼⱼ)` (Jacobian-based for NLLS).
    pub std_error: f64,
    /// t-statistic `estimate / std_error`.
    pub t_stat: f64,
    /// Two-sided p-value under t(n−p).
    pub p_value: f64,
}

/// Goodness-of-fit summary for one fitted model.
#[derive(Debug, Clone, PartialEq)]
pub struct FitDiagnostics {
    /// Usable observations.
    pub n: usize,
    /// Fitted parameters.
    pub p: usize,
    /// Residual sum of squares.
    pub rss: f64,
    /// Total sum of squares around the response mean.
    pub tss: f64,
    /// Coefficient of determination R² = 1 − RSS/TSS.
    pub r2: f64,
    /// Adjusted R².
    pub adj_r2: f64,
    /// Residual standard error `√(RSS/(n−p))` — the paper's Table 1
    /// "Residual SE" column.
    pub residual_se: f64,
    /// F statistic against the intercept-only model.
    pub f_stat: f64,
    /// Upper-tail p-value of `f_stat` under F(p−1, n−p).
    pub f_p_value: f64,
    /// Akaike information criterion (Gaussian likelihood).
    pub aic: f64,
    /// Bayesian information criterion.
    pub bic: f64,
    /// Per-parameter inference, in parameter order.
    pub param_stats: Vec<ParamStats>,
}

impl FitDiagnostics {
    /// Assemble diagnostics from the fit ingredients.
    ///
    /// `xtx_inv` is `(XᵀX)⁻¹` for linear fits or `(JᵀJ)⁻¹` at the
    /// optimum for non-linear fits; pass `None` when it is unavailable
    /// (singular at the optimum) and per-parameter inference will be
    /// NaN while the aggregate measures stay valid.
    pub fn compute(
        n: usize,
        param_names: &[String],
        estimates: &[f64],
        rss: f64,
        tss: f64,
        xtx_inv: Option<&Matrix>,
    ) -> FitDiagnostics {
        let p = param_names.len();
        let df_resid = n.saturating_sub(p);
        let r2 = if tss > 0.0 { 1.0 - rss / tss } else { f64::NAN };
        let adj_r2 = if tss > 0.0 && df_resid > 0 && n > 1 {
            1.0 - (rss / df_resid as f64) / (tss / (n as f64 - 1.0))
        } else {
            f64::NAN
        };
        let sigma2 = if df_resid > 0 { rss / df_resid as f64 } else { f64::NAN };
        let residual_se = sigma2.sqrt();
        // F-test vs the intercept-only reduced model (the paper:
        // "the results of an F-test against a model with fewer
        // parameters").
        let (f_stat, f_p) = if p > 1 && df_resid > 0 && rss > 0.0 && tss > rss {
            let fstat = ((tss - rss) / (p as f64 - 1.0)) / (rss / df_resid as f64);
            (fstat, f_p_value(fstat, p as f64 - 1.0, df_resid as f64))
        } else if p > 1 && df_resid > 0 && rss == 0.0 {
            (f64::INFINITY, 0.0)
        } else {
            (f64::NAN, f64::NAN)
        };
        // Gaussian log-likelihood based criteria; the +1 counts σ².
        let k = p as f64 + 1.0;
        let (aic, bic) = if n > 0 && rss > 0.0 {
            let ll = -0.5 * n as f64 * ((2.0 * std::f64::consts::PI * rss / n as f64).ln() + 1.0);
            (2.0 * k - 2.0 * ll, k * (n as f64).ln() - 2.0 * ll)
        } else {
            (f64::NEG_INFINITY, f64::NEG_INFINITY)
        };
        let param_stats = param_names
            .iter()
            .zip(estimates)
            .enumerate()
            .map(|(j, (name, &estimate))| {
                let std_error = match xtx_inv {
                    Some(m) if df_resid > 0 => (sigma2 * m[(j, j)]).sqrt(),
                    _ => f64::NAN,
                };
                let t_stat = estimate / std_error;
                let p_value = if std_error.is_finite() && df_resid > 0 {
                    t_two_sided_p(t_stat, df_resid as f64)
                } else {
                    f64::NAN
                };
                ParamStats { name: name.clone(), estimate, std_error, t_stat, p_value }
            })
            .collect();
        // One structured event per judged fit: with a subscriber
        // installed, capture sweeps leave an audit trail of every
        // quality judgment (paper Table 1's columns); without one this
        // is a single relaxed atomic load.
        lawsdb_obs::event!("fit.diagnostics", n, p, r2, residual_se, f_stat);
        FitDiagnostics {
            n,
            p,
            rss,
            tss,
            r2,
            adj_r2,
            residual_se,
            f_stat,
            f_p_value: f_p,
            aic,
            bic,
            param_stats,
        }
    }

    /// The quality gate the capture layer applies: a model is worth
    /// storing when it explains at least `min_r2` of the variance and
    /// its F-test (when defined) is significant at `alpha`.
    pub fn is_acceptable(&self, min_r2: f64, alpha: f64) -> bool {
        if !(self.r2 >= min_r2) {
            return false;
        }
        if self.f_p_value.is_nan() {
            // Single-parameter models have no F-test; R² decides.
            return true;
        }
        self.f_p_value <= alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(ns: &[&str]) -> Vec<String> {
        ns.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn perfect_fit_has_r2_one() {
        let d = FitDiagnostics::compute(10, &names(&["a", "b"]), &[1.0, 2.0], 0.0, 100.0, None);
        assert_eq!(d.r2, 1.0);
        assert_eq!(d.residual_se, 0.0);
        assert_eq!(d.f_stat, f64::INFINITY);
        assert_eq!(d.f_p_value, 0.0);
        assert!(d.is_acceptable(0.9, 0.05));
    }

    #[test]
    fn useless_fit_has_r2_zero() {
        let d = FitDiagnostics::compute(10, &names(&["a", "b"]), &[0.0, 0.0], 100.0, 100.0, None);
        assert!((d.r2 - 0.0).abs() < 1e-12);
        assert!(!d.is_acceptable(0.5, 0.05));
    }

    #[test]
    fn known_simple_regression_values() {
        // y = x over x = 1..=5 with rss known: residuals all 0.1 off.
        // Construct: n=5, p=2, rss=0.05, tss=10.
        let d = FitDiagnostics::compute(5, &names(&["b0", "b1"]), &[0.0, 1.0], 0.05, 10.0, None);
        assert!((d.r2 - 0.995).abs() < 1e-12);
        // adj R² = 1 − (rss/3)/(tss/4) = 1 − (0.016667)/(2.5)
        assert!((d.adj_r2 - (1.0 - (0.05 / 3.0) / (10.0 / 4.0))).abs() < 1e-12);
        assert!((d.residual_se - (0.05f64 / 3.0).sqrt()).abs() < 1e-12);
        // F = ((10-0.05)/1)/(0.05/3) = 597
        assert!((d.f_stat - 597.0).abs() < 1e-9);
        assert!(d.f_p_value < 1e-3);
    }

    #[test]
    fn param_stats_use_covariance_diagonal() {
        let xtx_inv = Matrix::from_vec(2, 2, vec![0.5, 0.0, 0.0, 2.0]).unwrap();
        let d = FitDiagnostics::compute(
            12,
            &names(&["a", "b"]),
            &[4.0, 1.0],
            10.0,
            110.0,
            Some(&xtx_inv),
        );
        let sigma2: f64 = 10.0 / 10.0;
        assert!((d.param_stats[0].std_error - (sigma2 * 0.5f64).sqrt()).abs() < 1e-12);
        assert!((d.param_stats[1].std_error - (sigma2 * 2.0f64).sqrt()).abs() < 1e-12);
        assert!((d.param_stats[0].t_stat - 4.0 / (0.5f64).sqrt()).abs() < 1e-12);
        assert!(d.param_stats[0].p_value < 0.01);
    }

    #[test]
    fn aic_bic_prefer_better_fit_at_equal_complexity() {
        let good = FitDiagnostics::compute(50, &names(&["a", "b"]), &[0., 0.], 1.0, 100.0, None);
        let bad = FitDiagnostics::compute(50, &names(&["a", "b"]), &[0., 0.], 50.0, 100.0, None);
        assert!(good.aic < bad.aic);
        assert!(good.bic < bad.bic);
    }

    #[test]
    fn single_parameter_model_acceptable_by_r2_alone() {
        let d = FitDiagnostics::compute(10, &names(&["k"]), &[2.0], 1.0, 100.0, None);
        assert!(d.f_p_value.is_nan());
        assert!(d.is_acceptable(0.9, 0.05));
    }

    #[test]
    fn degenerate_shapes_do_not_panic() {
        // n == p: no residual degrees of freedom.
        let d = FitDiagnostics::compute(2, &names(&["a", "b"]), &[0., 0.], 0.0, 1.0, None);
        assert!(d.residual_se.is_nan());
        // Empty data.
        let d = FitDiagnostics::compute(0, &names(&["a"]), &[0.], 0.0, 0.0, None);
        assert!(d.r2.is_nan());
        assert!(!d.is_acceptable(0.5, 0.05));
    }
}

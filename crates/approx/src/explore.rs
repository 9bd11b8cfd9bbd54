//! Model exploration — the ⊕ opportunity of Section 4.2:
//!
//! > "We can facilitate the exploration of the model's domain by the
//! > user. For example, we can find interesting subsets of the data by
//! > analyzing the first derivative of the model function for regions in
//! > the parameter space with high gradients."
//!
//! Given a captured model, [`explore_gradients`] differentiates the model
//! body symbolically in each input variable, evaluates the gradient
//! magnitude over the enumerated parameter space (groups × variable
//! domains), and returns the regions ranked steepest-first — all without
//! touching the base data.

use crate::error::{ApproxError, Result};
use lawsdb_expr::deriv::differentiate;
use lawsdb_expr::Bindings;
use lawsdb_models::CapturedModel;

/// One explored point of the parameter space.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientPoint {
    /// Group key (`None` for global models).
    pub group: Option<i64>,
    /// Input coordinates, in `coverage.variables` order.
    pub inputs: Vec<f64>,
    /// Model value at the point.
    pub value: f64,
    /// L2 norm of the gradient in the input variables.
    pub gradient_norm: f64,
}

/// Evaluate gradient magnitudes over the model's enumerable parameter
/// space and return the `top_k` steepest points.
///
/// Fails when a variable has no captured domain (nothing to sweep) or
/// the model body is not differentiable in some variable.
pub fn explore_gradients(model: &CapturedModel, top_k: usize) -> Result<Vec<GradientPoint>> {
    let vars = &model.coverage.variables;
    if vars.is_empty() {
        return Err(ApproxError::NotAnswerable {
            reason: "model has no input variables to explore".to_string(),
        });
    }
    // Enumerated domain per variable.
    let domains: Vec<&[f64]> = vars
        .iter()
        .map(|v| {
            model.coverage.domain_of(v).ok_or_else(|| ApproxError::NotAnswerable {
                reason: format!("variable {v:?} has no enumerable domain"),
            })
        })
        .collect::<Result<_>>()?;
    // Symbolic gradient, one expression per variable.
    let grads: Vec<lawsdb_expr::Expr> = vars
        .iter()
        .map(|v| {
            differentiate(&model.rhs, v).map_err(|e| ApproxError::NotAnswerable {
                reason: format!("model not differentiable in {v:?}: {e}"),
            })
        })
        .collect::<Result<_>>()?;

    // Sweep the cartesian product, one parameter row (group) at a time.
    let params = &model.params;
    let mut points = Vec::new();
    let mut index = vec![0usize; vars.len()];
    for row in 0..params.rows() {
        let group = params.keys.get(row).copied();
        let mut bindings = Bindings::new();
        for (name, v) in params.row_values(row) {
            bindings.set(name, v);
        }
        index.iter_mut().for_each(|i| *i = 0);
        loop {
            for (d, var) in vars.iter().enumerate() {
                bindings.set(var, domains[d][index[d]]);
            }
            let value = model.rhs.eval(&bindings).map_err(ApproxError::from_expr)?;
            let mut sq = 0.0;
            for g in &grads {
                let gi = g.eval(&bindings).map_err(ApproxError::from_expr)?;
                sq += gi * gi;
            }
            points.push(GradientPoint {
                group,
                inputs: index.iter().enumerate().map(|(d, &i)| domains[d][i]).collect(),
                value,
                gradient_norm: sq.sqrt(),
            });
            // Advance the mixed-radix counter.
            let mut d = 0;
            loop {
                if d == vars.len() {
                    break;
                }
                index[d] += 1;
                if index[d] < domains[d].len() {
                    break;
                }
                index[d] = 0;
                d += 1;
            }
            if d == vars.len() {
                break;
            }
        }
    }
    points.sort_by(|a, b| {
        b.gradient_norm
            .partial_cmp(&a.gradient_norm)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    points.truncate(top_k);
    Ok(points)
}

impl ApproxError {
    fn from_expr(e: lawsdb_expr::ExprError) -> ApproxError {
        ApproxError::NotAnswerable { reason: format!("expression evaluation failed: {e}") }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lawsdb_fit::FitOptions;
    use lawsdb_models::bridge::fit_table_grouped;
    use lawsdb_storage::TableBuilder;

    /// Two sources: one flat (α ≈ 0), one steep (α = −1.5). The steep
    /// source's low-frequency corner must dominate the gradient ranking.
    fn model() -> CapturedModel {
        let freqs: [f64; 4] = [0.12, 0.15, 0.16, 0.18];
        let laws: [(f64, f64); 2] = [(1.0, -0.01), (1.0, -1.5)];
        let mut src = Vec::new();
        let mut nu = Vec::new();
        let mut intensity = Vec::new();
        for (s, &(p, a)) in laws.iter().enumerate() {
            for i in 0..40 {
                src.push(s as i64);
                nu.push(freqs[i % 4]);
                intensity.push(p * freqs[i % 4].powf(a));
            }
        }
        let mut b = TableBuilder::new("m");
        b.add_i64("source", src);
        b.add_f64("nu", nu);
        b.add_f64("intensity", intensity);
        let t = b.build().unwrap();
        fit_table_grouped(
            &t,
            "intensity ~ p * nu ^ alpha",
            "source",
            &FitOptions::default().with_initial("alpha", -0.7),
            1,
        )
        .unwrap()
        .0
    }

    #[test]
    fn steepest_region_is_the_steep_sources_low_frequency_corner() {
        let m = model();
        let top = explore_gradients(&m, 3).unwrap();
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].group, Some(1), "steep source first: {top:?}");
        assert_eq!(top[0].inputs, vec![0.12], "lowest frequency is steepest");
        // |d/dν p·ν^α| = |p·α|·ν^(α−1) at ν=0.12, α=−1.5, p=1.
        let want = 1.5 * 0.12_f64.powf(-2.5);
        assert!((top[0].gradient_norm - want).abs() / want < 1e-3);
        // And the ranking is monotone.
        assert!(top[0].gradient_norm >= top[1].gradient_norm);
        assert!(top[1].gradient_norm >= top[2].gradient_norm);
    }

    #[test]
    fn all_points_covered_when_k_large() {
        let m = model();
        let all = explore_gradients(&m, 1000).unwrap();
        // 2 groups × 4 frequencies.
        assert_eq!(all.len(), 8);
    }

    #[test]
    fn flat_source_has_negligible_gradients() {
        let m = model();
        let all = explore_gradients(&m, 1000).unwrap();
        let flat_max = all
            .iter()
            .filter(|p| p.group == Some(0))
            .map(|p| p.gradient_norm)
            .fold(0.0f64, f64::max);
        let steep_min = all
            .iter()
            .filter(|p| p.group == Some(1))
            .map(|p| p.gradient_norm)
            .fold(f64::INFINITY, f64::min);
        assert!(flat_max < steep_min, "flat {flat_max} vs steep {steep_min}");
    }
}

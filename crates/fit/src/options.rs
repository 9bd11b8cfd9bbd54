//! Fitting options.

/// Which iterative optimizer to run for non-linear models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Plain Gauss-Newton — the paper's printed update rule. Fast near
    /// the optimum; can diverge from poor starts.
    GaussNewton,
    /// Levenberg-Marquardt — Gauss-Newton with adaptive damping; the
    /// default because the database fits *unattended* (the user is not
    /// there to pick a better start when a group misbehaves).
    LevenbergMarquardt,
}

/// How the Jacobian ∂r/∂β is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JacobianMode {
    /// Symbolic differentiation of the model body (default: exact and,
    /// per the E-ablation benchmark, faster than re-evaluating the model
    /// p+1 times per iteration).
    Symbolic,
    /// Central finite differences with step `h·(1+|βⱼ|)`.
    FiniteDifference,
}

/// Which solver the linear (analytic) path uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinearSolver {
    /// Householder QR of the design matrix — numerically safest.
    Qr,
    /// Cholesky of the normal equations `XᵀX β = Xᵀy` — fastest, used
    /// by grouped fitting where the same tiny system repeats thousands
    /// of times; squares the condition number.
    NormalEquations,
}

/// Options controlling a fit.
#[derive(Debug, Clone)]
pub struct FitOptions {
    /// Iterative algorithm for non-linear models.
    pub algorithm: Algorithm,
    /// Jacobian construction.
    pub jacobian: JacobianMode,
    /// Linear-path solver.
    pub linear_solver: LinearSolver,
    /// Initial parameter values, `(name, value)`; unnamed parameters
    /// start at [`FitOptions::default_start`]. Naming any parameter
    /// turns off the start from the data for the whole fit.
    pub initial: Vec<(String, f64)>,
    /// Starting value for the parameters `initial` does not name, where
    /// an iterative fit does not start from its rows. A fit starts from
    /// its rows (the least squares of `ln y`, see
    /// [`crate::detect_log_linear`]) unless the formula is not
    /// log-linear, `initial` names any parameter, fewer rows with
    /// `y > 0` and a finite basis remain than there are parameters, the
    /// solution is singular or not finite, or the model is not finite
    /// there. Linear fits have no start.
    pub default_start: f64,
    /// Maximum optimizer iterations.
    pub max_iterations: usize,
    /// Relative RSS-improvement convergence tolerance.
    pub tolerance: f64,
    /// Ridge penalty λ ≥ 0 on the linear path (0 = plain OLS).
    pub ridge_lambda: f64,
    /// Optional per-observation weights column name (weighted least
    /// squares); weights must be positive where finite.
    pub weights_column: Option<String>,
    /// Finite-difference step scale.
    pub fd_step: f64,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            algorithm: Algorithm::LevenbergMarquardt,
            jacobian: JacobianMode::Symbolic,
            linear_solver: LinearSolver::Qr,
            initial: Vec::new(),
            default_start: 1.0,
            max_iterations: 100,
            tolerance: 1e-10,
            ridge_lambda: 0.0,
            weights_column: None,
            fd_step: 1e-7,
        }
    }
}

impl FitOptions {
    /// Set a starting value for one parameter.
    pub fn with_initial(mut self, name: &str, value: f64) -> Self {
        if let Some(e) = self.initial.iter_mut().find(|(n, _)| n == name) {
            e.1 = value;
        } else {
            self.initial.push((name.to_string(), value));
        }
        self
    }

    /// Select the algorithm.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Select the Jacobian mode.
    pub fn with_jacobian(mut self, jacobian: JacobianMode) -> Self {
        self.jacobian = jacobian;
        self
    }

    /// The start of a named parameter where the fit does not start
    /// from its rows: its value in `initial`, else `default_start`.
    pub fn start_for(&self, name: &str) -> f64 {
        self.initial
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(self.default_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_style_updates() {
        let o = FitOptions::default()
            .with_initial("alpha", -1.0)
            .with_initial("alpha", -0.5)
            .with_algorithm(Algorithm::GaussNewton);
        assert_eq!(o.start_for("alpha"), -0.5);
        assert_eq!(o.start_for("p"), 1.0);
        assert_eq!(o.algorithm, Algorithm::GaussNewton);
    }
}

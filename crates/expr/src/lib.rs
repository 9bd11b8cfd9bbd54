//! # lawsdb-expr
//!
//! The model-formula language of LawsDB.
//!
//! Section 3 of *"Capturing the Laws of (Data) Nature"* makes no
//! restriction on the class of user models: "they consist of two parts,
//! an arbitrary function of the input variables and various constant but
//! unknown parameters". This crate is that arbitrary function:
//!
//! * a small expression **AST** ([`Expr`]) with arithmetic, powers and
//!   the elementary functions scientists actually write (`exp`, `ln`,
//!   `sqrt`, trigonometry, …). It has no comparison or boolean
//!   operator: a model's coverage predicate and its
//!   *legal-parameter-combination* filter (Section 4.2) are SQL, parsed
//!   and evaluated by `lawsdb-query` like any `WHERE` clause;
//! * a **parser** for model formulas such as
//!   `"intensity ~ p * nu ^ alpha"` (R-style `response ~ body`);
//! * a scalar and a **vectorized, compiled** evaluator
//!   ([`compile::CompiledExpr`]) — stack-based bytecode executed over
//!   column batches, so that model-backed "zero-IO" scans are genuinely
//!   CPU-bound and fast;
//! * **symbolic differentiation** ([`deriv::differentiate`]) — the
//!   Gauss-Newton and Levenberg-Marquardt fitters need the Jacobian
//!   `∂r/∂βⱼ` of the residual in the unknown parameters, and symbolic
//!   derivatives are both faster and more accurate than finite
//!   differences (ablation in the benchmark suite);
//! * a **simplifier** (constant folding and algebraic identities) that
//!   keeps derived expressions small.
//!
//! Symbols are resolved late: an identifier is a *variable* when it names
//! a column of the fitted table and a *parameter* otherwise. The
//! [`Formula`] type records that split once a schema is known.

pub mod ast;
pub mod compile;
pub mod deriv;
pub mod error;
pub mod eval;
pub mod parser;
pub mod simplify;
pub mod token;

pub use ast::{Expr, Func};
pub use compile::CompiledExpr;
pub use error::{ExprError, Result};
pub use eval::Bindings;
pub use parser::{parse_expr, parse_formula, Formula};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_power_law() {
        // The paper's LOFAR model: I = p * nu^alpha.
        let f = parse_formula("intensity ~ p * nu ^ alpha").unwrap();
        assert_eq!(f.response, "intensity");
        let split = f.split_symbols(&["intensity", "nu"]);
        assert_eq!(split.variables, vec!["nu".to_string()]);
        assert_eq!(split.parameters, vec!["alpha".to_string(), "p".to_string()]);

        let mut b = Bindings::new();
        b.set("p", 2.0);
        b.set("nu", 0.14);
        b.set("alpha", -0.7);
        let v = f.rhs.eval(&b).unwrap();
        assert!((v - 2.0 * 0.14_f64.powf(-0.7)).abs() < 1e-12);
    }

    #[test]
    fn derivative_of_power_law_wrt_alpha() {
        // d/dalpha (p * nu^alpha) = p * nu^alpha * ln(nu)
        let e = parse_expr("p * nu ^ alpha").unwrap();
        let d = deriv::differentiate(&e, "alpha").unwrap();
        let mut b = Bindings::new();
        b.set("p", 3.0);
        b.set("nu", 0.5);
        b.set("alpha", 1.5);
        let got = d.eval(&b).unwrap();
        let want = 3.0 * 0.5_f64.powf(1.5) * 0.5_f64.ln();
        assert!((got - want).abs() < 1e-12);
    }
}

//! Symbolic differentiation of model bodies.
//!
//! The Gauss-Newton iteration in Section 3 of the paper needs the
//! Jacobian `Jr = ∂rᵢ(β)/∂βⱼ` of the residual functions in the model
//! parameters. Because residuals are `observed − model(β, x)`, it is
//! enough to differentiate the model body symbolically with respect to
//! each parameter; the fitter negates the result.
//!
//! Compared with finite differences (also implemented, in `lawsdb-fit`,
//! for the ablation benchmark), symbolic Jacobians avoid both the extra
//! model evaluations and the step-size/accuracy trade-off.

use crate::ast::{Expr, Func};
use crate::error::{ExprError, Result};
use crate::simplify::simplify;

/// Differentiate `expr` with respect to symbol `wrt` and simplify the
/// result.
///
/// Fails with [`ExprError::NotDifferentiable`] when the path to `wrt`
/// crosses a construct without a derivative (comparisons, boolean
/// connectives, `floor`/`ceil`, or `abs`/`min`/`max`, which are only
/// piecewise differentiable and deliberately rejected to keep fitting
/// honest).
pub fn differentiate(expr: &Expr, wrt: &str) -> Result<Expr> {
    Ok(simplify(&d(expr, wrt)?))
}

/// Gradient with respect to several symbols at once.
pub fn gradient(expr: &Expr, wrt: &[&str]) -> Result<Vec<Expr>> {
    wrt.iter().map(|w| differentiate(expr, w)).collect()
}

fn d(e: &Expr, x: &str) -> Result<Expr> {
    // Subtrees not containing x differentiate to zero regardless of the
    // constructs they contain; checking first keeps e.g. a comparison in
    // an unrelated branch from poisoning the derivative.
    if !e.contains_symbol(x) {
        return Ok(Expr::Num(0.0));
    }
    Ok(match e {
        Expr::Num(_) => Expr::Num(0.0),
        Expr::Sym(s) => {
            if s == x {
                Expr::Num(1.0)
            } else {
                Expr::Num(0.0)
            }
        }
        Expr::Add(a, b) => Expr::Add(Box::new(d(a, x)?), Box::new(d(b, x)?)),
        Expr::Sub(a, b) => Expr::Sub(Box::new(d(a, x)?), Box::new(d(b, x)?)),
        Expr::Neg(a) => Expr::Neg(Box::new(d(a, x)?)),
        Expr::Mul(a, b) => {
            // Product rule: a'b + ab'
            Expr::Add(
                Box::new(Expr::Mul(Box::new(d(a, x)?), b.clone())),
                Box::new(Expr::Mul(a.clone(), Box::new(d(b, x)?))),
            )
        }
        Expr::Div(a, b) => {
            // Quotient rule: (a'b − ab') / b²
            Expr::Div(
                Box::new(Expr::Sub(
                    Box::new(Expr::Mul(Box::new(d(a, x)?), b.clone())),
                    Box::new(Expr::Mul(a.clone(), Box::new(d(b, x)?))),
                )),
                Box::new(Expr::Pow(b.clone(), Box::new(Expr::Num(2.0)))),
            )
        }
        Expr::Pow(a, b) => {
            let da = d(a, x)?;
            let db = d(b, x)?;
            let a_has = a.contains_symbol(x);
            let b_has = b.contains_symbol(x);
            match (a_has, b_has) {
                // u^c → c·u^(c−1)·u'
                (true, false) => Expr::Mul(
                    Box::new(Expr::Mul(
                        b.clone(),
                        Box::new(Expr::Pow(
                            a.clone(),
                            Box::new(Expr::Sub(b.clone(), Box::new(Expr::Num(1.0)))),
                        )),
                    )),
                    Box::new(da),
                ),
                // c^v → c^v·ln(c)·v' — exactly the spectral-index case
                // nu^alpha differentiated in alpha.
                (false, true) => Expr::Mul(
                    Box::new(Expr::Mul(
                        Box::new(e.clone()),
                        Box::new(Expr::Call(Func::Ln, vec![(**a).clone()])),
                    )),
                    Box::new(db),
                ),
                // u^v → u^v·(v'·ln u + v·u'/u)
                (true, true) => Expr::Mul(
                    Box::new(e.clone()),
                    Box::new(Expr::Add(
                        Box::new(Expr::Mul(
                            Box::new(db),
                            Box::new(Expr::Call(Func::Ln, vec![(**a).clone()])),
                        )),
                        Box::new(Expr::Div(
                            Box::new(Expr::Mul(b.clone(), Box::new(da))),
                            a.clone(),
                        )),
                    )),
                ),
                (false, false) => unreachable!("guarded by contains_symbol above"),
            }
        }
        Expr::Call(f, args) => {
            let u = &args[0];
            let du = d(u, x)?;
            let outer = match f {
                Func::Exp => Expr::Call(Func::Exp, vec![u.clone()]),
                Func::Ln => Expr::Div(Box::new(Expr::Num(1.0)), Box::new(u.clone())),
                Func::Log10 => Expr::Div(
                    Box::new(Expr::Num(std::f64::consts::LOG10_E)),
                    Box::new(u.clone()),
                ),
                Func::Sqrt => Expr::Div(
                    Box::new(Expr::Num(0.5)),
                    Box::new(Expr::Call(Func::Sqrt, vec![u.clone()])),
                ),
                Func::Sin => Expr::Call(Func::Cos, vec![u.clone()]),
                Func::Cos => Expr::Neg(Box::new(Expr::Call(Func::Sin, vec![u.clone()]))),
                Func::Tan => {
                    // sec² u = 1 / cos² u
                    Expr::Div(
                        Box::new(Expr::Num(1.0)),
                        Box::new(Expr::Pow(
                            Box::new(Expr::Call(Func::Cos, vec![u.clone()])),
                            Box::new(Expr::Num(2.0)),
                        )),
                    )
                }
                Func::Abs | Func::Min | Func::Max | Func::Floor | Func::Ceil => {
                    return Err(ExprError::NotDifferentiable { construct: f.name() })
                }
            };
            Expr::Mul(Box::new(outer), Box::new(du))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Bindings;
    use crate::parser::parse_expr;

    /// Central finite difference for cross-checking symbolic results.
    fn numeric_d(src: &str, wrt: &str, at: &[(&str, f64)]) -> f64 {
        let e = parse_expr(src).unwrap();
        let h = 1e-6;
        let mut lo: Bindings = at.iter().copied().collect();
        let mut hi: Bindings = at.iter().copied().collect();
        let x0 = lo.get(wrt).unwrap();
        lo.set(wrt, x0 - h);
        hi.set(wrt, x0 + h);
        (e.eval(&hi).unwrap() - e.eval(&lo).unwrap()) / (2.0 * h)
    }

    fn symbolic_d(src: &str, wrt: &str, at: &[(&str, f64)]) -> f64 {
        let e = parse_expr(src).unwrap();
        let de = differentiate(&e, wrt).unwrap();
        let b: Bindings = at.iter().copied().collect();
        de.eval(&b).unwrap()
    }

    fn check(src: &str, wrt: &str, at: &[(&str, f64)]) {
        let s = symbolic_d(src, wrt, at);
        let n = numeric_d(src, wrt, at);
        let scale = 1.0 + n.abs();
        assert!((s - n).abs() / scale < 1e-5, "{src} d/d{wrt}: symbolic {s} vs numeric {n}");
    }

    #[test]
    fn polynomial_rules() {
        check("3 * x ^ 2 + 2 * x + 1", "x", &[("x", 1.7)]);
        check("x ^ 5 - x ^ 3", "x", &[("x", 0.8)]);
    }

    #[test]
    fn power_law_in_both_arguments() {
        let at = [("p", 2.0), ("nu", 0.5), ("alpha", -0.7)];
        check("p * nu ^ alpha", "p", &at);
        check("p * nu ^ alpha", "alpha", &at);
        check("p * nu ^ alpha", "nu", &at);
    }

    #[test]
    fn general_power_u_pow_v() {
        check("x ^ x", "x", &[("x", 1.3)]);
    }

    #[test]
    fn transcendental_functions() {
        check("exp(2 * x)", "x", &[("x", 0.4)]);
        check("ln(x ^ 2 + 1)", "x", &[("x", 1.1)]);
        check("log10(x)", "x", &[("x", 3.0)]);
        check("sqrt(x + 1)", "x", &[("x", 2.0)]);
        check("sin(x) * cos(x)", "x", &[("x", 0.6)]);
        check("tan(x / 2)", "x", &[("x", 0.9)]);
    }

    #[test]
    fn quotient_rule() {
        check("x / (1 + x)", "x", &[("x", 2.5)]);
        check("(x ^ 2 + 1) / (x - 3)", "x", &[("x", 1.0)]);
    }

    #[test]
    fn derivative_wrt_absent_symbol_is_zero() {
        let e = parse_expr("a * b + sin(c)").unwrap();
        assert_eq!(differentiate(&e, "zz").unwrap(), Expr::Num(0.0));
    }

    #[test]
    fn unrelated_nondifferentiable_branch_is_fine() {
        // The kink doesn't involve x, so d/dx succeeds.
        let e = parse_expr("x ^ 2 + abs(a)").unwrap();
        let de = differentiate(&e, "x").unwrap();
        let b: Bindings = [("x", 3.0), ("a", 5.0)].into_iter().collect();
        assert!((de.eval(&b).unwrap() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn nondifferentiable_constructs_are_rejected() {
        for src in ["abs(x)", "min(x, 1)", "floor(x)", "ceil(x) * 2"] {
            let e = parse_expr(src).unwrap();
            assert!(
                matches!(differentiate(&e, "x"), Err(ExprError::NotDifferentiable { .. })),
                "{src} should be rejected"
            );
        }
    }

    #[test]
    fn gradient_returns_one_entry_per_parameter() {
        let e = parse_expr("p * nu ^ alpha").unwrap();
        let g = gradient(&e, &["p", "alpha"]).unwrap();
        assert_eq!(g.len(), 2);
        // dp is nu^alpha
        let b: Bindings = [("p", 2.0), ("nu", 0.5), ("alpha", -0.7)].into_iter().collect();
        assert!((g[0].eval(&b).unwrap() - 0.5_f64.powf(-0.7)).abs() < 1e-12);
    }

    #[test]
    fn derivatives_are_simplified() {
        // d/dx (x) = 1 exactly, not (1 * 1 + x * 0) etc.
        let e = parse_expr("x").unwrap();
        assert_eq!(differentiate(&e, "x").unwrap(), Expr::Num(1.0));
        let e = parse_expr("2 * x").unwrap();
        assert_eq!(differentiate(&e, "x").unwrap(), Expr::Num(2.0));
    }
}

//! Algebraic simplification: constant folding plus the identity rules
//! that keep symbolic derivatives from exploding.
//!
//! The simplifier is deliberately conservative: only rewrites that are
//! valid for all finite inputs are applied (e.g. `x*1 → x`), with two
//! documented exceptions that follow the conventions of symbolic math
//! systems (`0*x → 0` and `x^0 → 1`, which differ from IEEE semantics
//! when `x` is NaN/∞ — acceptable because fitted model bodies are
//! evaluated on finite data and guards reject non-finite parameters).

use crate::ast::{Expr, Func};

/// Simplify an expression to a fixed point (bounded at 16 passes, which
/// is far beyond what any derivative produced in this workspace needs).
pub fn simplify(expr: &Expr) -> Expr {
    let mut cur = expr.clone();
    for _ in 0..16 {
        let next = simplify_once(&cur);
        if next == cur {
            return next;
        }
        cur = next;
    }
    cur
}

fn simplify_once(e: &Expr) -> Expr {
    match e {
        Expr::Num(_) | Expr::Sym(_) => e.clone(),
        Expr::Neg(a) => {
            let a = simplify_once(a);
            match a {
                Expr::Num(v) => Expr::Num(-v),
                // --x → x
                Expr::Neg(inner) => *inner,
                other => Expr::Neg(Box::new(other)),
            }
        }
        Expr::Add(a, b) => {
            let a = simplify_once(a);
            let b = simplify_once(b);
            match (a.as_const(), b.as_const()) {
                (Some(x), Some(y)) => Expr::Num(x + y),
                (Some(0.0), _) => b,
                (_, Some(0.0)) => a,
                _ => Expr::Add(Box::new(a), Box::new(b)),
            }
        }
        Expr::Sub(a, b) => {
            let a = simplify_once(a);
            let b = simplify_once(b);
            match (a.as_const(), b.as_const()) {
                (Some(x), Some(y)) => Expr::Num(x - y),
                (_, Some(0.0)) => a,
                (Some(0.0), _) => Expr::Neg(Box::new(b)),
                _ => {
                    if a == b {
                        Expr::Num(0.0)
                    } else {
                        Expr::Sub(Box::new(a), Box::new(b))
                    }
                }
            }
        }
        Expr::Mul(a, b) => {
            let a = simplify_once(a);
            let b = simplify_once(b);
            match (a.as_const(), b.as_const()) {
                (Some(x), Some(y)) => Expr::Num(x * y),
                // Convention: 0·x → 0 (see module docs).
                (Some(0.0), _) | (_, Some(0.0)) => Expr::Num(0.0),
                (Some(1.0), _) => b,
                (_, Some(1.0)) => a,
                (Some(-1.0), _) => Expr::Neg(Box::new(b)),
                (_, Some(-1.0)) => Expr::Neg(Box::new(a)),
                _ => Expr::Mul(Box::new(a), Box::new(b)),
            }
        }
        Expr::Div(a, b) => {
            let a = simplify_once(a);
            let b = simplify_once(b);
            match (a.as_const(), b.as_const()) {
                (Some(x), Some(y)) if y != 0.0 => Expr::Num(x / y),
                (Some(0.0), _) => Expr::Num(0.0),
                (_, Some(1.0)) => a,
                _ => {
                    if a == b && a.as_const().is_none() {
                        // x/x → 1 (valid away from x = 0; model bodies are
                        // evaluated on the legal domain).
                        Expr::Num(1.0)
                    } else {
                        Expr::Div(Box::new(a), Box::new(b))
                    }
                }
            }
        }
        Expr::Pow(a, b) => {
            let a = simplify_once(a);
            let b = simplify_once(b);
            match (a.as_const(), b.as_const()) {
                (Some(x), Some(y)) => Expr::Num(x.powf(y)),
                (_, Some(0.0)) => Expr::Num(1.0), // convention: x^0 → 1
                (_, Some(1.0)) => a,
                (Some(1.0), _) => Expr::Num(1.0),
                _ => Expr::Pow(Box::new(a), Box::new(b)),
            }
        }
        Expr::Call(f, args) => {
            let args: Vec<Expr> = args.iter().map(simplify_once).collect();
            if let Some(consts) = args.iter().map(Expr::as_const).collect::<Option<Vec<f64>>>() {
                return Expr::Num(f.apply(&consts));
            }
            // ln(exp(x)) → x and exp(ln(x)) → x: these pairs appear
            // constantly in power-law derivatives.
            if args.len() == 1 {
                if let Expr::Call(inner_f, inner_args) = &args[0] {
                    match (f, inner_f) {
                        (Func::Ln, Func::Exp) | (Func::Exp, Func::Ln) => {
                            return inner_args[0].clone()
                        }
                        _ => {}
                    }
                }
            }
            Expr::Call(*f, args)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn s(src: &str) -> String {
        simplify(&parse_expr(src).unwrap()).to_string()
    }

    #[test]
    fn constant_folding() {
        assert_eq!(s("1 + 2 * 3"), "7");
        assert_eq!(s("2 ^ 10"), "1024");
        assert_eq!(s("ln(exp(1))"), "1");
    }

    #[test]
    fn additive_and_multiplicative_identities() {
        assert_eq!(s("x + 0"), "x");
        assert_eq!(s("0 + x"), "x");
        assert_eq!(s("x * 1"), "x");
        assert_eq!(s("x * 0"), "0");
        assert_eq!(s("x - 0"), "x");
        assert_eq!(s("x / 1"), "x");
        assert_eq!(s("0 / x"), "0");
    }

    #[test]
    fn power_identities() {
        assert_eq!(s("x ^ 0"), "1");
        assert_eq!(s("x ^ 1"), "x");
        assert_eq!(s("1 ^ x"), "1");
    }

    #[test]
    fn negation_rules() {
        assert_eq!(s("--x"), "x");
        assert_eq!(s("x * -1"), "(-x)");
        assert_eq!(s("0 - x"), "(-x)");
    }

    #[test]
    fn self_cancellation() {
        assert_eq!(s("x - x"), "0");
        assert_eq!(s("x / x"), "1");
    }

    #[test]
    fn inverse_function_pairs() {
        assert_eq!(s("ln(exp(y))"), "y");
        assert_eq!(s("exp(ln(y))"), "y");
    }

    #[test]
    fn simplification_preserves_value() {
        use crate::eval::Bindings;
        let sources = [
            "p * nu ^ alpha * 1 + 0",
            "(x + 0) * (1 * y) - 0",
            "exp(ln(x)) + x ^ 1 - x * 1",
            "min(x, y) * 1 + max(x, y) * 1",
        ];
        let b: Bindings = [("p", 2.0), ("nu", 0.5), ("alpha", -0.7), ("x", 3.0), ("y", 4.0)]
            .into_iter()
            .collect();
        for src in sources {
            let orig = parse_expr(src).unwrap();
            let simp = simplify(&orig);
            assert!(
                (orig.eval(&b).unwrap() - simp.eval(&b).unwrap()).abs() < 1e-12,
                "{src} changed value"
            );
            assert!(simp.node_count() <= orig.node_count(), "{src} grew");
        }
    }
}

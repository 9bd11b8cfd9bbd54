//! Property tests for the formula language: the compiled bytecode
//! evaluator must agree with the tree-walking reference on *arbitrary*
//! expressions, display must re-parse to the same tree, and symbolic
//! derivatives must match finite differences wherever both are finite.

use lawsdb_expr::ast::{Expr, Func};
use lawsdb_expr::{parse_expr, Bindings, CompiledExpr};
use proptest::prelude::*;

/// Strategy for arbitrary *differentiable* expressions over symbols
/// `x` (column) and `a`, `b` (scalars).
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-4.0f64..4.0).prop_map(Expr::Num),
        Just(Expr::Sym("x".to_string())),
        Just(Expr::Sym("a".to_string())),
        Just(Expr::Sym("b".to_string())),
    ];
    leaf.prop_recursive(4, 64, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| Expr::Add(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| Expr::Sub(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| Expr::Mul(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| Expr::Div(Box::new(l), Box::new(r))),
            inner.clone().prop_map(|e| Expr::Neg(Box::new(e))),
            inner.clone().prop_map(|e| Expr::Call(Func::Sin, vec![e])),
            inner.clone().prop_map(|e| Expr::Call(Func::Cos, vec![e])),
            inner.clone().prop_map(|e| Expr::Call(Func::Exp, vec![e])),
            (inner.clone(), inner).prop_map(|(l, r)| Expr::Call(Func::Min, vec![l, r])),
        ]
    })
}

fn bits_eq_or_both_nan(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || a == b || (a - b).abs() <= 1e-9 * (1.0 + a.abs())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Compiled batch evaluation ≡ tree-walking reference, per row.
    #[test]
    fn compiled_matches_tree_walk(
        e in arb_expr(),
        xs in prop::collection::vec(-3.0f64..3.0, 1..24),
        a in -3.0f64..3.0,
        b in -3.0f64..3.0,
    ) {
        let compiled = CompiledExpr::compile(&e, &["x"]).unwrap();
        // Map compiled scalar order to our (a, b) values.
        let scalars: Vec<f64> = compiled
            .scalars()
            .iter()
            .map(|s| if s == "a" { a } else { b })
            .collect();
        let cols: Vec<&[f64]> = compiled.columns().iter().map(|_| &xs[..]).collect();
        let batch = compiled.eval_batch(&cols, &scalars).unwrap();
        let n = if compiled.columns().is_empty() { 1 } else { xs.len() };
        prop_assert_eq!(batch.len(), n);
        for (i, &x) in xs.iter().enumerate().take(n) {
            let mut bind = Bindings::new();
            bind.set("x", x);
            bind.set("a", a);
            bind.set("b", b);
            let reference = e.eval(&bind).unwrap();
            prop_assert!(
                bits_eq_or_both_nan(batch[i], reference),
                "{e}: batch {} vs tree {} at x={x}", batch[i], reference
            );
        }
    }

    /// Display → parse stabilizes after one round: parser-produced
    /// trees round-trip structurally. (A hand-built `Neg(Num(x))`
    /// legitimately normalizes to `Num(-x)` on the first parse.)
    #[test]
    fn display_parse_roundtrip_stabilizes(e in arb_expr()) {
        let once = parse_expr(&e.to_string()).unwrap();
        let twice = parse_expr(&once.to_string()).unwrap();
        prop_assert_eq!(&twice, &once, "from {}", e);
        // And the normalized tree is semantically identical.
        let mut bind = Bindings::new();
        bind.set("x", 0.7);
        bind.set("a", -1.3);
        bind.set("b", 2.1);
        let v1 = e.eval(&bind).unwrap();
        let v2 = once.eval(&bind).unwrap();
        prop_assert!(bits_eq_or_both_nan(v1, v2), "{e}: {v1} vs {v2}");
    }

    /// Simplification never changes the value (where finite).
    #[test]
    fn simplify_preserves_value(
        e in arb_expr(),
        x in -3.0f64..3.0,
        a in -3.0f64..3.0,
        b in -3.0f64..3.0,
    ) {
        let simplified = lawsdb_expr::simplify::simplify(&e);
        let mut bind = Bindings::new();
        bind.set("x", x);
        bind.set("a", a);
        bind.set("b", b);
        let v1 = e.eval(&bind).unwrap();
        let v2 = simplified.eval(&bind).unwrap();
        // The simplifier's documented conventions (0·x → 0, x^0 → 1)
        // only diverge on non-finite subvalues; skip those draws.
        if v1.is_finite() && v2.is_finite() {
            prop_assert!(
                (v1 - v2).abs() <= 1e-6 * (1.0 + v1.abs()),
                "{e} simplified to {simplified}: {v1} vs {v2}"
            );
        }
    }

    /// Symbolic derivative ≈ central finite difference at points where
    /// the function is smooth and well-scaled.
    #[test]
    fn derivative_matches_finite_difference(
        e in arb_expr(),
        x in 0.3f64..2.0,
        a in 0.3f64..2.0,
        b in 0.3f64..2.0,
    ) {
        // min() is only piecewise differentiable; the deriv module
        // rejects it, which is also correct behaviour — skip such draws.
        let d = match lawsdb_expr::deriv::differentiate(&e, "x") {
            Ok(d) => d,
            Err(_) => return Ok(()),
        };
        let h = 1e-6;
        let eval_at = |xv: f64| {
            let mut bind = Bindings::new();
            bind.set("x", xv);
            bind.set("a", a);
            bind.set("b", b);
            e.eval(&bind).unwrap()
        };
        let f_hi = eval_at(x + h);
        let f_lo = eval_at(x - h);
        let numeric = (f_hi - f_lo) / (2.0 * h);
        let mut bind = Bindings::new();
        bind.set("x", x);
        bind.set("a", a);
        bind.set("b", b);
        let symbolic = d.eval(&bind).unwrap();
        // Only check well-conditioned draws: smooth value, moderate
        // magnitude (division can create poles where FD is meaningless).
        if symbolic.is_finite()
            && numeric.is_finite()
            && symbolic.abs() < 1e4
            && f_hi.is_finite()
            && f_lo.is_finite()
        {
            prop_assert!(
                (symbolic - numeric).abs() <= 1e-3 * (1.0 + symbolic.abs().max(numeric.abs())),
                "{e}: d/dx symbolic {symbolic} vs numeric {numeric} at x={x}"
            );
        }
    }
}

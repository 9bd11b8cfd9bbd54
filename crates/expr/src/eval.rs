//! Scalar (tree-walking) evaluation of expressions.
//!
//! The scalar evaluator is the reference semantics; the vectorized
//! bytecode evaluator in [`crate::compile`] must agree with it exactly
//! (there is a property test asserting this).

use crate::ast::Expr;
use crate::error::{ExprError, Result};

/// Symbol table mapping names to scalar values.
///
/// Small formulas bind a handful of symbols, so a sorted `Vec` beats a
/// `HashMap` here both in speed and in allocation count.
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    entries: Vec<(String, f64)>,
}

impl Bindings {
    /// Empty binding set.
    pub fn new() -> Self {
        Bindings::default()
    }

    /// Bind `name` to `value`, replacing any previous binding.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.entries.binary_search_by(|(k, _)| k.as_str().cmp(name)) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (name.to_string(), value)),
        }
    }

    /// Look a binding up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Number of bound symbols.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no symbols are bound.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

impl<'a> FromIterator<(&'a str, f64)> for Bindings {
    fn from_iter<T: IntoIterator<Item = (&'a str, f64)>>(iter: T) -> Self {
        let mut b = Bindings::new();
        for (k, v) in iter {
            b.set(k, v);
        }
        b
    }
}

impl Expr {
    /// Evaluate the expression with the given bindings.
    ///
    /// Unbound symbols are an error (the fitting layer always binds everything; the
    /// approximate-query layer relies on this error to detect missing
    /// parameter-space dimensions — Section 4.2's "parameter space
    /// enumeration" challenge).
    pub fn eval(&self, b: &Bindings) -> Result<f64> {
        Ok(match self {
            Expr::Num(v) => *v,
            Expr::Sym(s) => {
                b.get(s).ok_or_else(|| ExprError::UnboundSymbol { name: s.clone() })?
            }
            Expr::Add(x, y) => x.eval(b)? + y.eval(b)?,
            Expr::Sub(x, y) => x.eval(b)? - y.eval(b)?,
            Expr::Mul(x, y) => x.eval(b)? * y.eval(b)?,
            Expr::Div(x, y) => x.eval(b)? / y.eval(b)?,
            Expr::Pow(x, y) => x.eval(b)?.powf(y.eval(b)?),
            Expr::Neg(x) => -x.eval(b)?,
            Expr::Call(func, args) => {
                // Functions have arity ≤ 2; avoid a Vec allocation.
                let a0 = args[0].eval(b)?;
                if func.arity() == 1 {
                    func.apply(&[a0])
                } else {
                    let a1 = args[1].eval(b)?;
                    func.apply(&[a0, a1])
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    #[test]
    fn bindings_insert_lookup_replace() {
        let mut b = Bindings::new();
        assert!(b.is_empty());
        b.set("beta", 1.0);
        b.set("alpha", 2.0);
        b.set("beta", 3.0);
        assert_eq!(b.len(), 2);
        assert_eq!(b.get("alpha"), Some(2.0));
        assert_eq!(b.get("beta"), Some(3.0));
        assert_eq!(b.get("gamma"), None);
        let names: Vec<&str> = b.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "beta"]); // sorted
    }

    #[test]
    fn unbound_symbol_is_an_error() {
        let e = parse_expr("x + 1").unwrap();
        let b = Bindings::new();
        assert!(matches!(e.eval(&b), Err(ExprError::UnboundSymbol { .. })));
    }

    #[test]
    fn division_by_zero_follows_ieee() {
        let e = parse_expr("1 / 0").unwrap();
        assert_eq!(e.eval(&Bindings::new()).unwrap(), f64::INFINITY);
        let e = parse_expr("0 / 0").unwrap();
        assert!(e.eval(&Bindings::new()).unwrap().is_nan());
    }

    #[test]
    fn power_law_evaluation() {
        let e = parse_expr("p * nu ^ alpha").unwrap();
        let b: Bindings = [("p", 0.0626), ("nu", 0.16), ("alpha", -0.718)].into_iter().collect();
        let want = 0.0626 * 0.16_f64.powf(-0.718);
        assert!((e.eval(&b).unwrap() - want).abs() < 1e-15);
    }

    #[test]
    fn from_iterator_builds_bindings() {
        let b: Bindings = [("x", 1.0), ("y", 2.0)].into_iter().collect();
        assert_eq!(b.get("y"), Some(2.0));
    }
}

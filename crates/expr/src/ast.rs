//! Expression AST for user model bodies.

use std::fmt;

/// Built-in elementary functions.
///
/// This set covers the model vocabulary surveyed in the paper's future
/// work ("survey scientific fields and their models"): exponentials and
/// logarithms (growth/decay laws, power laws after log-transform),
/// trigonometry (periodic signals — pulsars in the LOFAR use case),
/// and numeric utilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Func {
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Ln,
    /// Base-10 logarithm.
    Log10,
    /// Square root.
    Sqrt,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Tangent.
    Tan,
    /// Absolute value.
    Abs,
    /// Two-argument minimum.
    Min,
    /// Two-argument maximum.
    Max,
    /// Floor.
    Floor,
    /// Ceiling.
    Ceil,
}

impl Func {
    /// Number of arguments the function takes.
    pub fn arity(self) -> usize {
        match self {
            Func::Min | Func::Max => 2,
            _ => 1,
        }
    }

    /// Name as written in formulas.
    pub fn name(self) -> &'static str {
        match self {
            Func::Exp => "exp",
            Func::Ln => "ln",
            Func::Log10 => "log10",
            Func::Sqrt => "sqrt",
            Func::Sin => "sin",
            Func::Cos => "cos",
            Func::Tan => "tan",
            Func::Abs => "abs",
            Func::Min => "min",
            Func::Max => "max",
            Func::Floor => "floor",
            Func::Ceil => "ceil",
        }
    }

    /// Look a function up by source name; `log` is accepted as an alias
    /// for the natural logarithm, matching R.
    pub fn by_name(name: &str) -> Option<Func> {
        Some(match name {
            "exp" => Func::Exp,
            "ln" | "log" => Func::Ln,
            "log10" => Func::Log10,
            "sqrt" => Func::Sqrt,
            "sin" => Func::Sin,
            "cos" => Func::Cos,
            "tan" => Func::Tan,
            "abs" => Func::Abs,
            "min" => Func::Min,
            "max" => Func::Max,
            "floor" => Func::Floor,
            "ceil" => Func::Ceil,
            _ => return None,
        })
    }

    /// Apply to scalar arguments. `args` length must equal [`Func::arity`].
    #[inline]
    pub fn apply(self, args: &[f64]) -> f64 {
        match self {
            Func::Exp => args[0].exp(),
            Func::Ln => args[0].ln(),
            Func::Log10 => args[0].log10(),
            Func::Sqrt => args[0].sqrt(),
            Func::Sin => args[0].sin(),
            Func::Cos => args[0].cos(),
            Func::Tan => args[0].tan(),
            Func::Abs => args[0].abs(),
            Func::Min => args[0].min(args[1]),
            Func::Max => args[0].max(args[1]),
            Func::Floor => args[0].floor(),
            Func::Ceil => args[0].ceil(),
        }
    }
}

/// An expression tree: arithmetic over numbers and symbols. It has no
/// comparison or boolean node; predicates over a model's inputs (its
/// coverage and legal filter) are SQL.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Num(f64),
    /// Symbol — a data variable or a model parameter; which one is
    /// decided when the formula is bound against a table schema.
    Sym(String),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Division.
    Div(Box<Expr>, Box<Expr>),
    /// Exponentiation (right-associative `^`).
    Pow(Box<Expr>, Box<Expr>),
    /// Unary negation.
    Neg(Box<Expr>),
    /// Function call.
    Call(Func, Vec<Expr>),
}

impl Expr {
    /// Convenience constructor for a literal.
    pub fn num(v: f64) -> Expr {
        Expr::Num(v)
    }

    /// Convenience constructor for a symbol.
    pub fn sym(name: impl Into<String>) -> Expr {
        Expr::Sym(name.into())
    }

    /// Collect the distinct symbol names used in this expression, sorted.
    pub fn symbols(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Sym(s) = e {
                if !out.contains(s) {
                    out.push(s.clone());
                }
            }
        });
        out.sort();
        out
    }

    /// Pre-order traversal calling `f` on every node.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Num(_) | Expr::Sym(_) => {}
            Expr::Neg(a) => a.walk(f),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Pow(a, b) => {
                a.walk(f);
                b.walk(f);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.walk(f);
                }
            }
        }
    }

    /// Number of nodes in the tree (used to bound simplifier growth and
    /// reported by catalog statistics).
    pub fn node_count(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    /// Replace every occurrence of symbol `name` by `replacement`.
    pub fn substitute(&self, name: &str, replacement: &Expr) -> Expr {
        match self {
            Expr::Num(v) => Expr::Num(*v),
            Expr::Sym(s) => {
                if s == name {
                    replacement.clone()
                } else {
                    Expr::Sym(s.clone())
                }
            }
            Expr::Neg(a) => Expr::Neg(Box::new(a.substitute(name, replacement))),
            Expr::Add(a, b) => Expr::Add(
                Box::new(a.substitute(name, replacement)),
                Box::new(b.substitute(name, replacement)),
            ),
            Expr::Sub(a, b) => Expr::Sub(
                Box::new(a.substitute(name, replacement)),
                Box::new(b.substitute(name, replacement)),
            ),
            Expr::Mul(a, b) => Expr::Mul(
                Box::new(a.substitute(name, replacement)),
                Box::new(b.substitute(name, replacement)),
            ),
            Expr::Div(a, b) => Expr::Div(
                Box::new(a.substitute(name, replacement)),
                Box::new(b.substitute(name, replacement)),
            ),
            Expr::Pow(a, b) => Expr::Pow(
                Box::new(a.substitute(name, replacement)),
                Box::new(b.substitute(name, replacement)),
            ),
            Expr::Call(func, args) => {
                Expr::Call(*func, args.iter().map(|a| a.substitute(name, replacement)).collect())
            }
        }
    }

    /// True when the expression contains the given symbol.
    pub fn contains_symbol(&self, name: &str) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if let Expr::Sym(s) = e {
                if s == name {
                    found = true;
                }
            }
        });
        found
    }

    /// True when the expression is a plain constant.
    pub fn as_const(&self) -> Option<f64> {
        match self {
            Expr::Num(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Fully parenthesized rendering: unambiguous and re-parseable,
        // which is what the model catalog stores ("store the models in
        // their source code form inside the database").
        match self {
            Expr::Num(v) => write!(f, "{v}"),
            Expr::Sym(s) => write!(f, "{s}"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
            Expr::Pow(a, b) => write!(f, "({a} ^ {b})"),
            Expr::Neg(a) => write!(f, "(-{a})"),
            Expr::Call(func, args) => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_are_sorted_and_deduped() {
        let e = Expr::Mul(
            Box::new(Expr::sym("p")),
            Box::new(Expr::Pow(Box::new(Expr::sym("nu")), Box::new(Expr::sym("alpha")))),
        );
        assert_eq!(e.symbols(), vec!["alpha", "nu", "p"]);
    }

    #[test]
    fn substitute_replaces_all_occurrences() {
        let e = Expr::Add(Box::new(Expr::sym("x")), Box::new(Expr::sym("x")));
        let s = e.substitute("x", &Expr::num(2.0));
        assert_eq!(s, Expr::Add(Box::new(Expr::num(2.0)), Box::new(Expr::num(2.0))));
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let e = Expr::Mul(
            Box::new(Expr::sym("p")),
            Box::new(Expr::Pow(Box::new(Expr::sym("nu")), Box::new(Expr::sym("alpha")))),
        );
        let printed = e.to_string();
        let reparsed = crate::parser::parse_expr(&printed).unwrap();
        assert_eq!(reparsed, e);
    }

    #[test]
    fn func_lookup_and_arity() {
        assert_eq!(Func::by_name("log"), Some(Func::Ln));
        assert_eq!(Func::by_name("nope"), None);
        assert_eq!(Func::Min.arity(), 2);
        assert_eq!(Func::Exp.arity(), 1);
        assert_eq!(Func::Max.apply(&[1.0, 3.0]), 3.0);
    }

    #[test]
    fn node_count_counts_all_nodes() {
        let e = crate::parser::parse_expr("a + b * c").unwrap();
        assert_eq!(e.node_count(), 5);
    }

    #[test]
    fn contains_symbol_finds_nested() {
        let e = crate::parser::parse_expr("exp(a * ln(b))").unwrap();
        assert!(e.contains_symbol("b"));
        assert!(!e.contains_symbol("c"));
    }
}

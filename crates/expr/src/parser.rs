//! Recursive-descent parser for model formulas.
//!
//! Grammar (lowest to highest precedence):
//!
//! ```text
//! formula    := ident '~' add_expr
//! add_expr   := mul_expr ( ('+'|'-') mul_expr )*
//! mul_expr   := unary ( ('*'|'/') unary )*
//! unary      := '-' unary | pow
//! pow        := atom ( '^' unary )?          // right-associative
//! atom       := number | ident | ident '(' args ')' | '(' add_expr ')'
//! ```
//!
//! The language is arithmetic only: a predicate over a model's inputs
//! (its coverage or legal filter) is SQL.

use crate::ast::{Expr, Func};
use crate::error::{ExprError, Result};
use crate::token::{tokenize, Token, TokenKind};

/// A parsed model formula `response ~ body`.
#[derive(Debug, Clone, PartialEq)]
pub struct Formula {
    /// Name of the observed output column.
    pub response: String,
    /// Model body — function of variables and parameters.
    pub rhs: Expr,
    /// Original source text (stored verbatim in the model catalog).
    pub source: String,
}

/// The variable/parameter split of a formula's symbols against a known
/// set of column names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolSplit {
    /// Symbols that name table columns — the model's input variables.
    pub variables: Vec<String>,
    /// Remaining symbols — the unknown parameters to fit.
    pub parameters: Vec<String>,
}

impl Formula {
    /// Split the body's symbols into variables (present in `columns`)
    /// and parameters (everything else), per Section 3: "an arbitrary
    /// function of the input variables and various constant but unknown
    /// parameters". Both lists come out sorted.
    pub fn split_symbols(&self, columns: &[&str]) -> SymbolSplit {
        let mut variables = Vec::new();
        let mut parameters = Vec::new();
        for s in self.rhs.symbols() {
            if columns.contains(&s.as_str()) {
                variables.push(s);
            } else {
                parameters.push(s);
            }
        }
        SymbolSplit { variables, parameters }
    }
}

/// Parse a full formula of the form `response ~ body`.
pub fn parse_formula(src: &str) -> Result<Formula> {
    let tokens = tokenize(src)?;
    let tilde_at = tokens
        .iter()
        .position(|t| t.kind == TokenKind::Tilde)
        .ok_or(ExprError::MalformedFormula { reason: "missing '~' separator" })?;
    if tilde_at != 1 {
        return Err(ExprError::MalformedFormula {
            reason: "response side must be a single identifier",
        });
    }
    let response = match &tokens[0].kind {
        TokenKind::Ident(name) => name.clone(),
        _ => {
            return Err(ExprError::MalformedFormula {
                reason: "response side must be a single identifier",
            })
        }
    };
    let mut p = Parser { tokens: &tokens[tilde_at + 1..], pos: 0 };
    let rhs = p.parse_add()?;
    p.expect_end()?;
    Ok(Formula { response, rhs, source: src.trim().to_string() })
}

/// Parse a bare expression (a model body).
pub fn parse_expr(src: &str) -> Result<Expr> {
    let tokens = tokenize(src)?;
    let mut p = Parser { tokens: &tokens, pos: 0 };
    let e = p.parse_add()?;
    p.expect_end()?;
    Ok(e)
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn peek_pos(&self) -> usize {
        self.tokens.get(self.pos).map_or(usize::MAX, |t| t.pos)
    }

    fn bump(&mut self) -> Option<&Token> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, kind: &TokenKind, expected: &'static str) -> Result<()> {
        match self.peek() {
            Some(k) if k == kind => {
                self.pos += 1;
                Ok(())
            }
            Some(k) => Err(ExprError::UnexpectedToken {
                found: k.describe(),
                expected,
                pos: self.peek_pos(),
            }),
            None => Err(ExprError::UnexpectedEnd { expected }),
        }
    }

    fn expect_end(&self) -> Result<()> {
        match self.peek() {
            None => Ok(()),
            Some(k) => Err(ExprError::UnexpectedToken {
                found: k.describe(),
                expected: "end of input",
                pos: self.peek_pos(),
            }),
        }
    }

    fn parse_add(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_mul()?;
        loop {
            match self.peek() {
                Some(TokenKind::Plus) => {
                    self.pos += 1;
                    let rhs = self.parse_mul()?;
                    lhs = Expr::Add(Box::new(lhs), Box::new(rhs));
                }
                Some(TokenKind::Minus) => {
                    self.pos += 1;
                    let rhs = self.parse_mul()?;
                    lhs = Expr::Sub(Box::new(lhs), Box::new(rhs));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn parse_mul(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        loop {
            match self.peek() {
                Some(TokenKind::Star) => {
                    self.pos += 1;
                    let rhs = self.parse_unary()?;
                    lhs = Expr::Mul(Box::new(lhs), Box::new(rhs));
                }
                Some(TokenKind::Slash) => {
                    self.pos += 1;
                    let rhs = self.parse_unary()?;
                    lhs = Expr::Div(Box::new(lhs), Box::new(rhs));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        match self.peek() {
            Some(TokenKind::Minus) => {
                self.pos += 1;
                let inner = self.parse_unary()?;
                // Fold a negated literal into a negative literal so that
                // display → parse round-trips structurally (`-0.5` is
                // Num(-0.5), not Neg(Num(0.5))). Applies only when the
                // operand is *exactly* a literal; `-2 ^ 2` still parses
                // as -(2^2) because `^` binds inside parse_unary first.
                if let Expr::Num(v) = inner {
                    return Ok(Expr::Num(-v));
                }
                Ok(Expr::Neg(Box::new(inner)))
            }
            _ => self.parse_pow(),
        }
    }

    fn parse_pow(&mut self) -> Result<Expr> {
        let base = self.parse_atom()?;
        if self.peek() == Some(&TokenKind::Caret) {
            self.pos += 1;
            // Right-associative: `a^b^c` = `a^(b^c)`; exponent may carry
            // a unary minus: `nu ^ -alpha`.
            let exponent = self.parse_unary()?;
            return Ok(Expr::Pow(Box::new(base), Box::new(exponent)));
        }
        Ok(base)
    }

    fn parse_atom(&mut self) -> Result<Expr> {
        let pos = self.peek_pos();
        match self.bump().map(|t| t.kind.clone()) {
            Some(TokenKind::Number(v)) => Ok(Expr::Num(v)),
            Some(TokenKind::Ident(name)) => {
                if self.peek() == Some(&TokenKind::LParen) {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if self.peek() != Some(&TokenKind::RParen) {
                        loop {
                            args.push(self.parse_add()?);
                            if self.peek() == Some(&TokenKind::Comma) {
                                self.pos += 1;
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(&TokenKind::RParen, "')'")?;
                    let func = Func::by_name(&name)
                        .ok_or_else(|| ExprError::UnknownFunction { name: name.clone() })?;
                    if args.len() != func.arity() {
                        return Err(ExprError::WrongArity {
                            func: func.name(),
                            expected: func.arity(),
                            got: args.len(),
                        });
                    }
                    Ok(Expr::Call(func, args))
                } else {
                    Ok(Expr::Sym(name))
                }
            }
            Some(TokenKind::LParen) => {
                let e = self.parse_add()?;
                self.expect(&TokenKind::RParen, "')'")?;
                Ok(e)
            }
            Some(k) => Err(ExprError::UnexpectedToken {
                found: k.describe(),
                expected: "number, identifier or '('",
                pos,
            }),
            None => Err(ExprError::UnexpectedEnd { expected: "number, identifier or '('" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(src: &str, pairs: &[(&str, f64)]) -> f64 {
        let e = parse_expr(src).unwrap();
        let mut b = crate::eval::Bindings::new();
        for (k, v) in pairs {
            b.set(k, *v);
        }
        e.eval(&b).unwrap()
    }

    #[test]
    fn precedence_mul_over_add() {
        assert_eq!(eval("1 + 2 * 3", &[]), 7.0);
        assert_eq!(eval("(1 + 2) * 3", &[]), 9.0);
    }

    #[test]
    fn pow_is_right_associative_and_binds_tighter_than_mul() {
        assert_eq!(eval("2 ^ 3 ^ 2", &[]), 512.0);
        assert_eq!(eval("2 * 3 ^ 2", &[]), 18.0);
    }

    #[test]
    fn unary_minus_in_exponent() {
        assert!((eval("2 ^ -1", &[]) - 0.5).abs() < 1e-15);
        // -2^2 parses as -(2^2) like in R and Python.
        assert_eq!(eval("-2 ^ 2", &[]), -4.0);
    }

    #[test]
    fn function_calls_and_arity_checking() {
        assert!((eval("exp(ln(5))", &[]) - 5.0).abs() < 1e-12);
        assert_eq!(eval("max(2, min(3, 4))", &[]), 3.0);
        assert!(matches!(parse_expr("exp(1, 2)"), Err(ExprError::WrongArity { .. })));
        assert!(matches!(parse_expr("frob(1)"), Err(ExprError::UnknownFunction { .. })));
    }

    #[test]
    fn predicates_are_not_formula_syntax() {
        assert!(matches!(parse_expr("a && b"), Err(ExprError::UnexpectedChar { ch: '&', .. })));
        assert!(matches!(
            parse_formula("y ~ a * (x > 1)"),
            Err(ExprError::UnexpectedChar { ch: '>', .. })
        ));
    }

    #[test]
    fn formula_parsing() {
        let f = parse_formula("intensity ~ p * nu ^ alpha").unwrap();
        assert_eq!(f.response, "intensity");
        assert_eq!(f.source, "intensity ~ p * nu ^ alpha");
        let split = f.split_symbols(&["nu", "intensity"]);
        assert_eq!(split.variables, vec!["nu"]);
        assert_eq!(split.parameters, vec!["alpha", "p"]);
    }

    #[test]
    fn formula_requires_simple_response() {
        assert!(matches!(parse_formula("a + b ~ c"), Err(ExprError::MalformedFormula { .. })));
        assert!(matches!(parse_formula("a + b"), Err(ExprError::MalformedFormula { .. })));
        assert!(matches!(parse_formula("1 ~ c"), Err(ExprError::MalformedFormula { .. })));
    }

    #[test]
    fn trailing_tokens_are_rejected() {
        assert!(matches!(parse_expr("1 + 2 3"), Err(ExprError::UnexpectedToken { .. })));
        assert!(matches!(parse_expr("(1 + 2"), Err(ExprError::UnexpectedEnd { .. })));
    }

    #[test]
    fn deeply_nested_parens() {
        assert_eq!(eval("((((1))))", &[]), 1.0);
    }

    #[test]
    fn linear_model_formula() {
        // y = b0 + b1*x — the "simpler case of linear models".
        let f = parse_formula("y ~ b0 + b1 * x").unwrap();
        let split = f.split_symbols(&["x", "y"]);
        assert_eq!(split.parameters, vec!["b0", "b1"]);
        assert_eq!(split.variables, vec!["x"]);
    }
}

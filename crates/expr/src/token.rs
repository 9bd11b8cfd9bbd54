//! Lexer for the model-formula language.

use crate::error::{ExprError, Result};

/// One lexical token, tagged with its byte offset for error reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Token kind and payload.
    pub kind: TokenKind,
    /// Byte offset of the first character in the source.
    pub pos: usize,
}

/// Token kinds of the formula language.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Floating-point or integer literal.
    Number(f64),
    /// Identifier: variable, parameter, or function name.
    Ident(String),
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `^` — exponentiation, right-associative.
    Caret,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `~` — formula separator (`response ~ body`).
    Tilde,
}

impl TokenKind {
    /// Human-readable description used by parser error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Number(n) => format!("number {n}"),
            TokenKind::Ident(s) => format!("identifier {s:?}"),
            other => format!("{other:?}"),
        }
    }
}

/// Tokenize a source string.
pub fn tokenize(src: &str) -> Result<Vec<Token>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '+' => {
                out.push(Token { kind: TokenKind::Plus, pos: start });
                i += 1;
            }
            '-' => {
                out.push(Token { kind: TokenKind::Minus, pos: start });
                i += 1;
            }
            '*' => {
                out.push(Token { kind: TokenKind::Star, pos: start });
                i += 1;
            }
            '/' => {
                out.push(Token { kind: TokenKind::Slash, pos: start });
                i += 1;
            }
            '^' => {
                out.push(Token { kind: TokenKind::Caret, pos: start });
                i += 1;
            }
            '(' => {
                out.push(Token { kind: TokenKind::LParen, pos: start });
                i += 1;
            }
            ')' => {
                out.push(Token { kind: TokenKind::RParen, pos: start });
                i += 1;
            }
            ',' => {
                out.push(Token { kind: TokenKind::Comma, pos: start });
                i += 1;
            }
            '~' => {
                out.push(Token { kind: TokenKind::Tilde, pos: start });
                i += 1;
            }
            '0'..='9' | '.' => {
                let mut j = i;
                let mut seen_e = false;
                while j < bytes.len() {
                    let d = bytes[j] as char;
                    let is_num_char = d.is_ascii_digit()
                        || d == '.'
                        || d == 'e'
                        || d == 'E'
                        || ((d == '+' || d == '-')
                            && seen_e
                            && (bytes[j - 1] == b'e' || bytes[j - 1] == b'E'));
                    if !is_num_char {
                        break;
                    }
                    if d == 'e' || d == 'E' {
                        if seen_e {
                            break;
                        }
                        // Only treat as exponent when followed by digit/sign.
                        match bytes.get(j + 1) {
                            Some(b'0'..=b'9') | Some(b'+') | Some(b'-') => seen_e = true,
                            _ => break,
                        }
                    }
                    j += 1;
                }
                let text = &src[i..j];
                let val: f64 = text
                    .parse()
                    .map_err(|_| ExprError::BadNumber { text: text.to_string(), pos: start })?;
                out.push(Token { kind: TokenKind::Number(val), pos: start });
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i;
                while j < bytes.len() {
                    let d = bytes[j] as char;
                    if d.is_ascii_alphanumeric() || d == '_' || d == '.' {
                        j += 1;
                    } else {
                        break;
                    }
                }
                out.push(Token { kind: TokenKind::Ident(src[i..j].to_string()), pos: start });
                i = j;
            }
            other => return Err(ExprError::UnexpectedChar { ch: other, pos: start }),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn tokenizes_power_law() {
        assert_eq!(
            kinds("p * nu ^ alpha"),
            vec![
                TokenKind::Ident("p".into()),
                TokenKind::Star,
                TokenKind::Ident("nu".into()),
                TokenKind::Caret,
                TokenKind::Ident("alpha".into()),
            ]
        );
    }

    #[test]
    fn tokenizes_scientific_notation() {
        assert_eq!(kinds("1.5e-3"), vec![TokenKind::Number(1.5e-3)]);
        assert_eq!(kinds("2E4"), vec![TokenKind::Number(2e4)]);
        assert_eq!(kinds(".5"), vec![TokenKind::Number(0.5)]);
    }

    #[test]
    fn e_not_followed_by_digit_is_identifier_boundary() {
        // "2e" should lex as number 2 then identifier e.
        assert_eq!(kinds("2e"), vec![TokenKind::Number(2.0), TokenKind::Ident("e".into())]);
    }

    #[test]
    fn comparison_and_logic_characters_are_not_tokens() {
        // Predicates over a model's inputs are SQL, not formula text.
        for (src, ch) in [("a && b", '&'), ("a || b", '|'), ("!a", '!'), ("x > 1", '>')] {
            assert!(
                matches!(tokenize(src), Err(ExprError::UnexpectedChar { ch: c, .. }) if c == ch),
                "{src}"
            );
        }
    }

    #[test]
    fn tilde_and_dotted_identifiers() {
        assert_eq!(
            kinds("y ~ t.x"),
            vec![TokenKind::Ident("y".into()), TokenKind::Tilde, TokenKind::Ident("t.x".into())]
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(tokenize("a # b"), Err(ExprError::UnexpectedChar { ch: '#', pos: 2 })));
    }

    #[test]
    fn positions_are_byte_offsets() {
        let toks = tokenize("ab + cd").unwrap();
        assert_eq!(toks[0].pos, 0);
        assert_eq!(toks[1].pos, 3);
        assert_eq!(toks[2].pos, 5);
    }
}

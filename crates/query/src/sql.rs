//! SQL lexer and parser for the supported SELECT subset.

use crate::error::{QueryError, Result};
use crate::sexpr::{ArithOp, CmpOp, ScalarExpr};
use lawsdb_storage::schema::DataType;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT`
    Count,
    /// `SUM`
    Sum,
    /// `AVG`
    Avg,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
}

impl AggFunc {
    /// SQL name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }

    /// The type of this aggregate's result column, given whether its
    /// argument is a string column: COUNT is Int64, MIN/MAX of strings
    /// stay Str, everything else is Float64.
    pub fn result_type(self, over_strings: bool) -> DataType {
        match self {
            AggFunc::Count => DataType::Int64,
            AggFunc::Min | AggFunc::Max if over_strings => DataType::Str,
            _ => DataType::Float64,
        }
    }

    fn by_name(s: &str) -> Option<AggFunc> {
        Some(match s.to_ascii_uppercase().as_str() {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "AVG" => AggFunc::Avg,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            _ => return None,
        })
    }
}

/// One item in the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// A scalar expression with optional alias.
    Expr {
        /// The expression.
        expr: ScalarExpr,
        /// `AS alias`, if given.
        alias: Option<String>,
    },
    /// An aggregate call; `arg = None` means `COUNT(*)`.
    Agg {
        /// Which aggregate.
        func: AggFunc,
        /// Argument expression, or `None` for `*`.
        arg: Option<ScalarExpr>,
        /// `AS alias`, if given.
        alias: Option<String>,
    },
}

impl SelectItem {
    /// Output column name: alias, or a derived name.
    pub fn output_name(&self) -> String {
        match self {
            SelectItem::Star => "*".to_string(),
            SelectItem::Expr { expr, alias } => {
                alias.clone().unwrap_or_else(|| match expr {
                    ScalarExpr::Column(c) => c.clone(),
                    other => other.to_string(),
                })
            }
            SelectItem::Agg { func, arg, alias } => alias.clone().unwrap_or_else(|| {
                match arg {
                    None => format!("{}(*)", func.name().to_ascii_lowercase()),
                    Some(e) => format!("{}({})", func.name().to_ascii_lowercase(), e),
                }
            }),
        }
    }
}

/// A sort key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderBy {
    /// Column (or output alias) to sort by.
    pub column: String,
    /// Sort descending?
    pub desc: bool,
}

/// An `INNER JOIN other ON left_col = right_col` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// Right-side table.
    pub table: String,
    /// Join key on the left (FROM) table.
    pub left_col: String,
    /// Join key on the right (JOIN) table.
    pub right_col: String,
}

/// A parsed SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStatement {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// FROM table.
    pub table: String,
    /// Optional single inner equi-join.
    pub join: Option<JoinClause>,
    /// WHERE predicate.
    pub predicate: Option<ScalarExpr>,
    /// GROUP BY columns.
    pub group_by: Vec<String>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderBy>,
    /// LIMIT row count.
    pub limit: Option<usize>,
}

// ---------------------------------------------------------------- lexer

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(f64),
    Str(String),
    Star,
    Comma,
    LParen,
    RParen,
    Plus,
    Minus,
    Slash,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    Dot,
}

/// Sink that stamps every pushed token with the byte offset of the
/// source position it began at.
struct PushAt<'a> {
    out: &'a mut Vec<(Tok, usize)>,
    at: usize,
}

impl PushAt<'_> {
    fn push(&mut self, t: Tok) {
        self.out.push((t, self.at));
    }
}

/// Tokens paired with the byte offset where each begins, so parse
/// errors can point at the offending spot in the source text.
fn lex(src: &str) -> Result<Vec<(Tok, usize)>> {
    let b = src.as_bytes();
    let mut out: Vec<(Tok, usize)> = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i] as char;
        // Every arm pushes at most one token that starts at `i`.
        let mut out = PushAt { out: &mut out, at: i };
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            ',' => {
                out.push(Tok::Comma);
                i += 1;
            }
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            '*' => {
                out.push(Tok::Star);
                i += 1;
            }
            '+' => {
                out.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                out.push(Tok::Minus);
                i += 1;
            }
            '/' => {
                out.push(Tok::Slash);
                i += 1;
            }
            '.' if i + 1 < b.len() && !(b[i + 1] as char).is_ascii_digit() => {
                out.push(Tok::Dot);
                i += 1;
            }
            '=' => {
                out.push(Tok::Eq);
                i += 1;
            }
            '<' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Le);
                    i += 2;
                } else if b.get(i + 1) == Some(&b'>') {
                    out.push(Tok::Ne);
                    i += 2;
                } else {
                    out.push(Tok::Lt);
                    i += 1;
                }
            }
            '>' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Ge);
                    i += 2;
                } else {
                    out.push(Tok::Gt);
                    i += 1;
                }
            }
            '!' if b.get(i + 1) == Some(&b'=') => {
                out.push(Tok::Ne);
                i += 2;
            }
            '\'' => {
                let mut j = i + 1;
                let mut s = String::new();
                loop {
                    match b.get(j) {
                        None => {
                            return Err(QueryError::Lex {
                                detail: "unterminated string literal".to_string(),
                                pos: i,
                            })
                        }
                        Some(b'\'') => {
                            // '' escapes a quote.
                            if b.get(j + 1) == Some(&b'\'') {
                                s.push('\'');
                                j += 2;
                            } else {
                                j += 1;
                                break;
                            }
                        }
                        Some(&ch) => {
                            s.push(ch as char);
                            j += 1;
                        }
                    }
                }
                out.push(Tok::Str(s));
                i = j;
            }
            '0'..='9' | '.' => {
                let start = i;
                let mut j = i;
                let mut seen_e = false;
                while j < b.len() {
                    let d = b[j] as char;
                    let ok = d.is_ascii_digit()
                        || d == '.'
                        || d == 'e'
                        || d == 'E'
                        || ((d == '+' || d == '-')
                            && seen_e
                            && (b[j - 1] == b'e' || b[j - 1] == b'E'));
                    if !ok {
                        break;
                    }
                    if d == 'e' || d == 'E' {
                        match b.get(j + 1) {
                            Some(b'0'..=b'9') | Some(b'+') | Some(b'-') => seen_e = true,
                            _ => break,
                        }
                    }
                    j += 1;
                }
                let text = &src[start..j];
                let v: f64 = text.parse().map_err(|_| QueryError::Lex {
                    detail: format!("bad number {text:?}"),
                    pos: start,
                })?;
                out.push(Tok::Number(v));
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' || c == '"' => {
                // Double-quoted identifiers pass through verbatim.
                if c == '"' {
                    let mut j = i + 1;
                    while j < b.len() && b[j] != b'"' {
                        j += 1;
                    }
                    if j == b.len() {
                        return Err(QueryError::Lex {
                            detail: "unterminated quoted identifier".to_string(),
                            pos: i,
                        });
                    }
                    out.push(Tok::Ident(src[i + 1..j].to_string()));
                    i = j + 1;
                } else {
                    let start = i;
                    let mut j = i;
                    while j < b.len() {
                        let d = b[j] as char;
                        if d.is_ascii_alphanumeric() || d == '_' {
                            j += 1;
                        } else {
                            break;
                        }
                    }
                    out.push(Tok::Ident(src[start..j].to_string()));
                    i = j;
                }
            }
            ';' => i += 1, // trailing semicolons are harmless
            other => {
                return Err(QueryError::Lex {
                    detail: format!("unexpected character {other:?}"),
                    pos: i,
                })
            }
        }
    }
    Ok(out)
}

// --------------------------------------------------------------- parser

struct P {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

impl P {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    /// Byte offset of the token the parser is looking at (`None` at
    /// end of input).
    fn peek_pos(&self) -> Option<usize> {
        self.toks.get(self.pos).map(|(_, at)| *at)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, expected: &str) -> Result<T> {
        Err(QueryError::Parse {
            expected: expected.to_string(),
            found: self
                .peek()
                .map(|t| format!("{t:?}"))
                .unwrap_or_else(|| "end of input".to_string()),
            pos: self.peek_pos(),
        })
    }

    /// Consume a keyword (case-insensitive); false if not present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(&format!("keyword {kw}"))
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<()> {
        if self.peek() == Some(t) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(what)
        }
    }

    fn ident(&mut self) -> Result<String> {
        if let Some(Tok::Ident(s)) = self.peek() {
            let s = s.clone();
            self.pos += 1;
            Ok(s)
        } else {
            // Not consumed, so the error points at the offending token
            // (or reports end of input — `bump` would rewind onto the
            // previous token here and misattribute the position).
            self.err("identifier")
        }
    }

    /// Identifier with optional `table.` qualifier; qualifiers are
    /// stripped (single-table and explicitly-joined queries only).
    fn column_name(&mut self) -> Result<String> {
        let first = self.ident()?;
        if self.peek() == Some(&Tok::Dot) {
            self.pos += 1;
            let col = self.ident()?;
            Ok(format!("{first}.{col}"))
        } else {
            Ok(first)
        }
    }

    fn is_keyword(s: &str) -> bool {
        const KWS: [&str; 17] = [
            "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "LIMIT", "AND", "OR", "NOT",
            "AS", "ASC", "DESC", "BETWEEN", "JOIN", "ON", "DISTINCT",
        ];
        KWS.iter().any(|k| s.eq_ignore_ascii_case(k))
    }

    // expr := or
    fn expr(&mut self) -> Result<ScalarExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<ScalarExpr> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("OR") {
            let rhs = self.and_expr()?;
            lhs = ScalarExpr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<ScalarExpr> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("AND") {
            let rhs = self.not_expr()?;
            lhs = ScalarExpr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<ScalarExpr> {
        if self.eat_kw("NOT") {
            let inner = self.not_expr()?;
            return Ok(ScalarExpr::Not(Box::new(inner)));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<ScalarExpr> {
        let lhs = self.add_expr()?;
        if self.eat_kw("BETWEEN") {
            let lo = self.add_expr()?;
            self.expect_kw("AND")?;
            let hi = self.add_expr()?;
            return Ok(ScalarExpr::And(
                Box::new(ScalarExpr::Cmp(CmpOp::Ge, Box::new(lhs.clone()), Box::new(lo))),
                Box::new(ScalarExpr::Cmp(CmpOp::Le, Box::new(lhs), Box::new(hi))),
            ));
        }
        let op = match self.peek() {
            Some(Tok::Lt) => CmpOp::Lt,
            Some(Tok::Le) => CmpOp::Le,
            Some(Tok::Gt) => CmpOp::Gt,
            Some(Tok::Ge) => CmpOp::Ge,
            Some(Tok::Eq) => CmpOp::Eq,
            Some(Tok::Ne) => CmpOp::Ne,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.add_expr()?;
        Ok(ScalarExpr::Cmp(op, Box::new(lhs), Box::new(rhs)))
    }

    fn add_expr(&mut self) -> Result<ScalarExpr> {
        let mut lhs = self.mul_expr()?;
        loop {
            match self.peek() {
                Some(Tok::Plus) => {
                    self.pos += 1;
                    let rhs = self.mul_expr()?;
                    lhs = ScalarExpr::Arith(ArithOp::Add, Box::new(lhs), Box::new(rhs));
                }
                Some(Tok::Minus) => {
                    self.pos += 1;
                    let rhs = self.mul_expr()?;
                    lhs = ScalarExpr::Arith(ArithOp::Sub, Box::new(lhs), Box::new(rhs));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn mul_expr(&mut self) -> Result<ScalarExpr> {
        let mut lhs = self.unary_expr()?;
        loop {
            match self.peek() {
                Some(Tok::Star) => {
                    self.pos += 1;
                    let rhs = self.unary_expr()?;
                    lhs = ScalarExpr::Arith(ArithOp::Mul, Box::new(lhs), Box::new(rhs));
                }
                Some(Tok::Slash) => {
                    self.pos += 1;
                    let rhs = self.unary_expr()?;
                    lhs = ScalarExpr::Arith(ArithOp::Div, Box::new(lhs), Box::new(rhs));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn unary_expr(&mut self) -> Result<ScalarExpr> {
        if self.peek() == Some(&Tok::Minus) {
            self.pos += 1;
            let inner = self.unary_expr()?;
            return Ok(ScalarExpr::Neg(Box::new(inner)));
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<ScalarExpr> {
        match self.peek().cloned() {
            Some(Tok::Number(v)) => {
                self.pos += 1;
                Ok(ScalarExpr::Number(v))
            }
            Some(Tok::Str(s)) => {
                self.pos += 1;
                Ok(ScalarExpr::Str(s))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect(&Tok::RParen, "')'")?;
                Ok(e)
            }
            Some(Tok::Ident(s)) if !Self::is_keyword(&s) => {
                let name = self.column_name()?;
                Ok(ScalarExpr::Column(name))
            }
            _ => self.err("expression"),
        }
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.peek() == Some(&Tok::Star) {
            self.pos += 1;
            return Ok(SelectItem::Star);
        }
        // Aggregate call?
        if let Some(Tok::Ident(name)) = self.peek().cloned() {
            if let Some(func) = AggFunc::by_name(&name) {
                if self.toks.get(self.pos + 1).map(|(t, _)| t) == Some(&Tok::LParen) {
                    self.pos += 2;
                    let arg = if self.peek() == Some(&Tok::Star) {
                        self.pos += 1;
                        None
                    } else {
                        Some(self.expr()?)
                    };
                    self.expect(&Tok::RParen, "')'")?;
                    if arg.is_none() && func != AggFunc::Count {
                        return Err(QueryError::InvalidAggregate {
                            reason: format!("{}(*) is only valid for COUNT", func.name()),
                        });
                    }
                    let alias = self.optional_alias()?;
                    return Ok(SelectItem::Agg { func, arg, alias });
                }
            }
        }
        let expr = self.expr()?;
        let alias = self.optional_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn optional_alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw("AS") {
            return Ok(Some(self.ident()?));
        }
        Ok(None)
    }
}

/// Parse one SELECT statement.
pub fn parse_select(sql: &str) -> Result<SelectStatement> {
    let toks = lex(sql)?;
    let mut p = P { toks, pos: 0 };
    p.expect_kw("SELECT")?;
    let distinct = p.eat_kw("DISTINCT");
    let mut items = vec![p.select_item()?];
    while p.peek() == Some(&Tok::Comma) {
        p.pos += 1;
        items.push(p.select_item()?);
    }
    p.expect_kw("FROM")?;
    let table = p.ident()?;

    let mut join = None;
    if p.eat_kw("INNER") {
        p.expect_kw("JOIN")?;
        join = Some(parse_join(&mut p)?);
    } else if p.eat_kw("JOIN") {
        join = Some(parse_join(&mut p)?);
    }

    let predicate = if p.eat_kw("WHERE") { Some(p.expr()?) } else { None };

    let mut group_by = Vec::new();
    if p.eat_kw("GROUP") {
        p.expect_kw("BY")?;
        group_by.push(p.column_name()?);
        while p.peek() == Some(&Tok::Comma) {
            p.pos += 1;
            group_by.push(p.column_name()?);
        }
    }

    let mut order_by = Vec::new();
    if p.eat_kw("ORDER") {
        p.expect_kw("BY")?;
        loop {
            let column = p.column_name()?;
            let desc = if p.eat_kw("DESC") {
                true
            } else {
                p.eat_kw("ASC");
                false
            };
            order_by.push(OrderBy { column, desc });
            if p.peek() == Some(&Tok::Comma) {
                p.pos += 1;
            } else {
                break;
            }
        }
    }

    let limit = if p.eat_kw("LIMIT") {
        match p.bump() {
            Some(Tok::Number(v)) if v >= 0.0 && v.fract() == 0.0 => Some(v as usize),
            _ => return p.err("non-negative integer LIMIT"),
        }
    } else {
        None
    };

    if p.peek().is_some() {
        return p.err("end of statement");
    }
    Ok(SelectStatement { distinct, items, table, join, predicate, group_by, order_by, limit })
}

/// Parse one SQL boolean expression, as it would follow `WHERE`: a
/// captured model's coverage predicate and its legal filter are
/// written this way.
pub fn parse_predicate(src: &str) -> Result<ScalarExpr> {
    let mut p = P { toks: lex(src)?, pos: 0 };
    let predicate = p.expr()?;
    if p.peek().is_some() {
        return p.err("end of predicate");
    }
    Ok(predicate)
}

fn parse_join(p: &mut P) -> Result<JoinClause> {
    let table = p.ident()?;
    p.expect_kw("ON")?;
    let a = p.column_name()?;
    p.expect(&Tok::Eq, "'=' in join condition")?;
    let b = p.column_name()?;
    Ok(JoinClause { table, left_col: a, right_col: b })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_query_one() {
        let s = parse_select(
            "SELECT intensity FROM measurements WHERE source = 42 AND wavelength = 0.14;",
        )
        .unwrap();
        assert_eq!(s.table, "measurements");
        assert_eq!(s.items.len(), 1);
        assert!(s.predicate.is_some());
        assert_eq!(
            s.predicate.unwrap().to_string(),
            "((source == 42) AND (wavelength == 0.14))"
        );
    }

    #[test]
    fn parses_aggregates_and_grouping() {
        let s = parse_select(
            "SELECT source, COUNT(*), AVG(intensity) AS mean_i FROM m GROUP BY source \
             ORDER BY source DESC LIMIT 10",
        )
        .unwrap();
        assert_eq!(s.group_by, vec!["source"]);
        assert_eq!(s.order_by, vec![OrderBy { column: "source".to_string(), desc: true }]);
        assert_eq!(s.limit, Some(10));
        match &s.items[1] {
            SelectItem::Agg { func: AggFunc::Count, arg: None, .. } => {}
            other => panic!("expected COUNT(*), got {other:?}"),
        }
        assert_eq!(s.items[2].output_name(), "mean_i");
    }

    #[test]
    fn between_desugars() {
        let s = parse_select("SELECT * FROM t WHERE x BETWEEN 1 AND 2").unwrap();
        assert_eq!(s.predicate.unwrap().to_string(), "((x >= 1) AND (x <= 2))");
    }

    #[test]
    fn string_literals_and_escapes() {
        let s = parse_select("SELECT * FROM t WHERE name = 'O''Brien'").unwrap();
        assert_eq!(s.predicate.unwrap().to_string(), "(name == 'O'Brien')");
    }

    #[test]
    fn join_clause() {
        let s = parse_select(
            "SELECT a, b FROM t JOIN u ON t.k = u.k WHERE b > 1",
        )
        .unwrap();
        let j = s.join.unwrap();
        assert_eq!(j.table, "u");
        assert_eq!(j.left_col, "t.k");
        assert_eq!(j.right_col, "u.k");
    }

    #[test]
    fn arithmetic_precedence() {
        let s = parse_select("SELECT a + b * 2 FROM t").unwrap();
        match &s.items[0] {
            SelectItem::Expr { expr, .. } => {
                assert_eq!(expr.to_string(), "(a + (b * 2))");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn count_star_only_for_count() {
        assert!(matches!(
            parse_select("SELECT SUM(*) FROM t"),
            Err(QueryError::InvalidAggregate { .. })
        ));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_select("SELECT FROM t").is_err());
        assert!(parse_select("SELECT a").is_err());
        assert!(parse_select("SELECT a FROM t WHERE").is_err());
        assert!(parse_select("SELECT a FROM t LIMIT -1").is_err());
        assert!(parse_select("SELECT a FROM t garbage").is_err());
        assert!(parse_select("SELECT a FROM t WHERE s = 'unterminated").is_err());
    }

    #[test]
    fn parse_errors_carry_positions() {
        // `>` begins at byte 22 of the source text.
        let err = parse_select("SELECT a FROM t WHERE >").unwrap_err();
        match &err {
            QueryError::Parse { pos: Some(p), .. } => assert_eq!(*p, 22),
            other => panic!("expected positioned parse error, got {other:?}"),
        }
        assert!(err.to_string().contains("at byte 22"), "{err}");
        // Running off the end of the input has no position to point at.
        let err = parse_select("SELECT a FROM").unwrap_err();
        assert!(matches!(&err, QueryError::Parse { pos: None, .. }), "{err:?}");
        assert!(err.to_string().contains("end of input"), "{err}");
    }

    #[test]
    fn not_and_or_precedence() {
        let s = parse_select("SELECT * FROM t WHERE NOT a = 1 AND b = 2 OR c = 3").unwrap();
        // NOT binds tighter than AND, AND tighter than OR.
        assert_eq!(
            s.predicate.unwrap().to_string(),
            "(((NOT (a == 1)) AND (b == 2)) OR (c == 3))"
        );
    }

    #[test]
    fn a_predicate_parses_like_a_where_clause() {
        let src = "nu >= 0.15 AND nu <= 0.18 OR NOT source = 2";
        let where_clause = parse_select(&format!("SELECT * FROM t WHERE {src}")).unwrap();
        assert_eq!(parse_predicate(src).unwrap(), where_clause.predicate.unwrap());
        let between = parse_predicate("x BETWEEN 1 AND 2").unwrap();
        assert_eq!(between.to_string(), "((x >= 1) AND (x <= 2))");
        for bad in ["", "x >", "x > 1 y", "x > 1 LIMIT 3"] {
            assert!(matches!(parse_predicate(bad), Err(QueryError::Parse { .. })), "{bad:?}");
        }
        // The formula language's connectives are not SQL.
        let formula_text = parse_predicate("nu >= 0.15 && nu <= 0.18");
        assert!(matches!(formula_text, Err(QueryError::Lex { .. })), "{formula_text:?}");
    }

    #[test]
    fn quoted_identifier() {
        let s = parse_select("SELECT \"weird name\" FROM t").unwrap();
        match &s.items[0] {
            SelectItem::Expr { expr: ScalarExpr::Column(c), .. } => {
                assert_eq!(c, "weird name")
            }
            other => panic!("{other:?}"),
        }
    }
}

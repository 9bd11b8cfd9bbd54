//! Scalar expressions over table columns.
//!
//! This is the SQL-side expression AST: unlike the model-formula AST in
//! `lawsdb-expr` it carries string literals, comparisons, connectives
//! and NULL semantics, because predicates run over relational data. It
//! is the one predicate language: a `WHERE` clause, a captured model's
//! coverage and its legal filter all parse to it and run as the same
//! vectorized [`PredMask`] filter, over base rows or over the cells a
//! model leaf enumerates.

use crate::error::{QueryError, Result};
use lawsdb_storage::bitmap::Bitmap;
use lawsdb_storage::{Column, Table, Value};
use std::fmt;

/// Vectorized predicate result as a bitmap pair: `truth` marks rows
/// that compare TRUE, `known` marks rows whose result is not SQL
/// UNKNOWN (NULL). Invariant: `truth ⊆ known`.
///
/// Filters keep exactly the `truth` rows (SQL discards both FALSE and
/// UNKNOWN), and the boolean connectives run at word speed instead of
/// per-row `Option<bool>` matching.
#[derive(Debug, Clone, PartialEq)]
pub struct PredMask {
    truth: Bitmap,
    known: Bitmap,
}

impl PredMask {
    fn from_parts(len: usize, truth: Vec<u64>, known: Vec<u64>) -> PredMask {
        PredMask {
            truth: Bitmap::from_parts(len, truth),
            known: Bitmap::from_parts(len, known),
        }
    }

    /// Build from per-row three-valued results.
    pub fn from_options(vals: &[Option<bool>]) -> PredMask {
        PredMask {
            truth: Bitmap::from_fn(vals.len(), |i| vals[i] == Some(true)),
            known: Bitmap::from_fn(vals.len(), |i| vals[i].is_some()),
        }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.truth.len()
    }

    /// True when the mask covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.truth.is_empty()
    }

    /// Three-valued result for row `i`.
    pub fn get(&self, i: usize) -> Option<bool> {
        if self.known.get(i) {
            Some(self.truth.get(i))
        } else {
            None
        }
    }

    /// Rows a filter keeps: exactly the known-TRUE rows, in order.
    pub fn selected_indices(&self) -> Vec<usize> {
        self.truth.iter_set().collect()
    }

    /// Number of rows a filter would keep.
    pub fn selected_count(&self) -> usize {
        self.truth.count_set()
    }

    /// Bitmap of known-TRUE rows.
    pub fn truth(&self) -> &Bitmap {
        &self.truth
    }

    /// Per-row three-valued results (the legacy representation).
    pub fn to_options(&self) -> Vec<Option<bool>> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// SQL three-valued AND at word speed: FALSE dominates UNKNOWN.
    pub fn and(&self, other: &PredMask) -> PredMask {
        let truth = self.truth.and(&other.truth);
        let known = self
            .known
            .and(&other.known)
            .or(&self.known.and_not(&self.truth))
            .or(&other.known.and_not(&other.truth));
        PredMask { truth, known }
    }

    /// SQL three-valued OR at word speed: TRUE dominates UNKNOWN.
    pub fn or(&self, other: &PredMask) -> PredMask {
        let truth = self.truth.or(&other.truth);
        let known = self.known.and(&other.known).or(&truth);
        PredMask { truth, known }
    }

    /// SQL three-valued NOT: UNKNOWN stays UNKNOWN.
    pub fn not(&self) -> PredMask {
        PredMask { truth: self.known.and_not(&self.truth), known: self.known.clone() }
    }
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl ArithOp {
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div => a / b,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        }
    }
}

/// Binary comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        }
    }
}

/// A scalar SQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Column reference.
    Column(String),
    /// Numeric literal.
    Number(f64),
    /// String literal.
    Str(String),
    /// Arithmetic.
    Arith(ArithOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// Comparison (SQL three-valued logic: NULL operands → NULL).
    Cmp(CmpOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// Conjunction.
    And(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Disjunction.
    Or(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Negation.
    Not(Box<ScalarExpr>),
    /// Unary minus.
    Neg(Box<ScalarExpr>),
}

impl ScalarExpr {
    /// All column names referenced, deduplicated, in first-use order.
    pub fn columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    /// The top-level AND-connected conjuncts, left to right. A
    /// non-conjunction is its own single conjunct. SQL `AND` is Kleene
    /// (commutative and associative over `(truth, known)` masks), so
    /// evaluating the conjuncts in any order and folding with
    /// [`PredMask::and`] reproduces `eval_mask` of the whole expression
    /// bit for bit — the planner exploits this to reorder them, and the
    /// executor to short-circuit.
    pub fn conjuncts(&self) -> Vec<&ScalarExpr> {
        let mut out = Vec::new();
        self.collect_conjuncts(&mut out);
        out
    }

    fn collect_conjuncts<'a>(&'a self, out: &mut Vec<&'a ScalarExpr>) {
        match self {
            ScalarExpr::And(a, b) => {
                a.collect_conjuncts(out);
                b.collect_conjuncts(out);
            }
            other => out.push(other),
        }
    }

    fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            ScalarExpr::Column(c) => {
                if !out.contains(c) {
                    out.push(c.clone());
                }
            }
            ScalarExpr::Number(_) | ScalarExpr::Str(_) => {}
            ScalarExpr::Neg(a) | ScalarExpr::Not(a) => a.collect_columns(out),
            ScalarExpr::Arith(_, a, b)
            | ScalarExpr::Cmp(_, a, b)
            | ScalarExpr::And(a, b)
            | ScalarExpr::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
        }
    }

    /// Evaluate on one row of a table (used by tests and point paths;
    /// the executor uses the vectorized [`ScalarExpr::eval_batch`]).
    pub fn eval_row(&self, table: &Table, row: usize) -> Result<Value> {
        Ok(match self {
            ScalarExpr::Column(name) => table.column(name)?.value(row)?,
            ScalarExpr::Number(v) => Value::Float(*v),
            ScalarExpr::Str(s) => Value::Str(s.clone()),
            ScalarExpr::Neg(a) => match a.eval_row(table, row)?.as_f64() {
                Some(v) => Value::Float(-v),
                None => Value::Null,
            },
            ScalarExpr::Arith(op, a, b) => {
                let av = a.eval_row(table, row)?;
                let bv = b.eval_row(table, row)?;
                match (av.as_f64(), bv.as_f64()) {
                    (Some(x), Some(y)) => Value::Float(op.apply(x, y)),
                    _ => Value::Null,
                }
            }
            ScalarExpr::Cmp(op, a, b) => {
                let av = a.eval_row(table, row)?;
                let bv = b.eval_row(table, row)?;
                match av.sql_cmp(&bv) {
                    None => Value::Null,
                    Some(ord) => Value::Bool(cmp_matches(*op, ord)),
                }
            }
            ScalarExpr::And(a, b) => three_valued_and(
                a.eval_row(table, row)?.truth(),
                b.eval_row(table, row)?.truth(),
            ),
            ScalarExpr::Or(a, b) => three_valued_or(
                a.eval_row(table, row)?.truth(),
                b.eval_row(table, row)?.truth(),
            ),
            ScalarExpr::Not(a) => match a.eval_row(table, row)?.truth() {
                Some(t) => Value::Bool(!t),
                None => Value::Null,
            },
        })
    }

    /// Vectorized evaluation over all rows of a table.
    ///
    /// Returns a `Column` of the expression's natural type. Boolean
    /// results use NULL (validity=0) for SQL UNKNOWN.
    pub fn eval_batch(&self, table: &Table) -> Result<Column> {
        let n = table.row_count();
        match self {
            ScalarExpr::Column(name) => Ok(table.column(name)?.clone()),
            ScalarExpr::Number(v) => Ok(Column::from_f64(vec![*v; n])),
            ScalarExpr::Str(s) => Ok(Column::from_str(vec![s.clone(); n])),
            ScalarExpr::Neg(a) => {
                let inner = a.eval_numeric(table)?;
                Ok(Column::from_f64_opt(
                    inner.into_iter().map(|v| v.map(|x| -x)).collect(),
                ))
            }
            ScalarExpr::Arith(op, a, b) => {
                let av = a.eval_numeric(table)?;
                let bv = b.eval_numeric(table)?;
                Ok(Column::from_f64_opt(
                    av.into_iter()
                        .zip(bv)
                        .map(|(x, y)| match (x, y) {
                            (Some(x), Some(y)) => Some(op.apply(x, y)),
                            _ => None,
                        })
                        .collect(),
                ))
            }
            ScalarExpr::Cmp(..) | ScalarExpr::And(..) | ScalarExpr::Or(..) | ScalarExpr::Not(..) => {
                let truth = self.eval_predicate(table)?;
                let mut vals = Vec::with_capacity(n);
                for t in truth {
                    vals.push(t);
                }
                // Encode Some(bool) → Bool, None → NULL.
                let bools: Vec<bool> = vals.iter().map(|t| t.unwrap_or(false)).collect();
                let mut col = Column::from_bool(&bools);
                if let Column::Bool { validity, .. } = &mut col {
                    for (i, t) in vals.iter().enumerate() {
                        if t.is_none() {
                            validity.set(i, false);
                        }
                    }
                }
                Ok(col)
            }
        }
    }

    /// Vectorized numeric evaluation: per-row `Option<f64>` (None = NULL).
    pub fn eval_numeric(&self, table: &Table) -> Result<Vec<Option<f64>>> {
        let n = table.row_count();
        match self {
            ScalarExpr::Column(name) => {
                let col = table.column(name)?;
                let vals = col.to_f64_lossy().map_err(|_| QueryError::Type {
                    reason: format!("column {name:?} is not numeric"),
                })?;
                Ok(vals.into_iter().map(|v| if v.is_nan() { None } else { Some(v) }).collect())
            }
            ScalarExpr::Number(v) => Ok(vec![Some(*v); n]),
            ScalarExpr::Str(_) => Err(QueryError::Type {
                reason: "string literal in numeric context".to_string(),
            }),
            ScalarExpr::Neg(a) => {
                Ok(a.eval_numeric(table)?.into_iter().map(|v| v.map(|x| -x)).collect())
            }
            ScalarExpr::Arith(op, a, b) => {
                let av = a.eval_numeric(table)?;
                let bv = b.eval_numeric(table)?;
                Ok(av
                    .into_iter()
                    .zip(bv)
                    .map(|(x, y)| match (x, y) {
                        (Some(x), Some(y)) => Some(op.apply(x, y)),
                        _ => None,
                    })
                    .collect())
            }
            other => {
                // Booleans coerce to 0/1 (NULL stays NULL).
                let truth = other.eval_predicate(table)?;
                Ok(truth
                    .into_iter()
                    .map(|t| t.map(|b| if b { 1.0 } else { 0.0 }))
                    .collect())
            }
        }
    }

    /// Vectorized predicate evaluation with SQL three-valued logic:
    /// per-row `Option<bool>` where `None` is UNKNOWN.
    ///
    /// Thin wrapper over [`ScalarExpr::eval_mask`]; the executor's filter
    /// path uses the mask directly and never materializes the options.
    pub fn eval_predicate(&self, table: &Table) -> Result<Vec<Option<bool>>> {
        Ok(self.eval_mask(table)?.to_options())
    }

    /// Vectorized predicate evaluation into a [`PredMask`].
    ///
    /// Comparisons between a `Float64`/`Int64` column and a numeric
    /// literal (or another such column) run directly over the raw value
    /// buffers; everything else falls back to [`ScalarExpr::eval_numeric`].
    /// A data value of NaN is UNKNOWN, matching `eval_numeric`'s
    /// missing-value semantics.
    pub fn eval_mask(&self, table: &Table) -> Result<PredMask> {
        let n = table.row_count();
        match self {
            ScalarExpr::Cmp(op, a, b) => {
                // String comparisons take the row-wise path; numeric
                // comparisons vectorize.
                if a.is_stringy(table) || b.is_stringy(table) {
                    let mut out = Vec::with_capacity(n);
                    for row in 0..n {
                        let av = a.eval_row(table, row)?;
                        let bv = b.eval_row(table, row)?;
                        out.push(av.sql_cmp(&bv).map(|ord| cmp_matches(*op, ord)));
                    }
                    return Ok(PredMask::from_options(&out));
                }
                if let Some(mask) = cmp_fast_path(*op, a, b, table) {
                    return Ok(mask);
                }
                let av = a.eval_numeric(table)?;
                let bv = b.eval_numeric(table)?;
                let mut truth = vec![0u64; n.div_ceil(64)];
                let mut known = vec![0u64; n.div_ceil(64)];
                for (i, (x, y)) in av.into_iter().zip(bv).enumerate() {
                    if let (Some(x), Some(y)) = (x, y) {
                        if let Some(ord) = x.partial_cmp(&y) {
                            known[i / 64] |= 1 << (i % 64);
                            if cmp_matches(*op, ord) {
                                truth[i / 64] |= 1 << (i % 64);
                            }
                        }
                    }
                }
                Ok(PredMask::from_parts(n, truth, known))
            }
            ScalarExpr::And(a, b) => Ok(a.eval_mask(table)?.and(&b.eval_mask(table)?)),
            ScalarExpr::Or(a, b) => Ok(a.eval_mask(table)?.or(&b.eval_mask(table)?)),
            ScalarExpr::Not(a) => Ok(a.eval_mask(table)?.not()),
            other => {
                // Numeric used as predicate: non-zero is true.
                let vals = other.eval_numeric(table)?;
                let mut truth = vec![0u64; n.div_ceil(64)];
                let mut known = vec![0u64; n.div_ceil(64)];
                for (i, v) in vals.into_iter().enumerate() {
                    if let Some(x) = v {
                        known[i / 64] |= 1 << (i % 64);
                        if x != 0.0 {
                            truth[i / 64] |= 1 << (i % 64);
                        }
                    }
                }
                Ok(PredMask::from_parts(n, truth, known))
            }
        }
    }

    fn is_stringy(&self, table: &Table) -> bool {
        match self {
            ScalarExpr::Str(_) => true,
            ScalarExpr::Column(name) => table
                .column(name)
                .map(|c| c.data_type() == lawsdb_storage::DataType::Str)
                .unwrap_or(false),
            _ => false,
        }
    }

    /// Fold constant subtrees (the optimizer's constant-folding rule).
    pub fn fold_constants(&self) -> ScalarExpr {
        match self {
            ScalarExpr::Arith(op, a, b) => {
                let a = a.fold_constants();
                let b = b.fold_constants();
                if let (ScalarExpr::Number(x), ScalarExpr::Number(y)) = (&a, &b) {
                    ScalarExpr::Number(op.apply(*x, *y))
                } else {
                    ScalarExpr::Arith(*op, Box::new(a), Box::new(b))
                }
            }
            ScalarExpr::Neg(a) => {
                let a = a.fold_constants();
                if let ScalarExpr::Number(x) = &a {
                    ScalarExpr::Number(-x)
                } else {
                    ScalarExpr::Neg(Box::new(a))
                }
            }
            ScalarExpr::Cmp(op, a, b) => ScalarExpr::Cmp(
                *op,
                Box::new(a.fold_constants()),
                Box::new(b.fold_constants()),
            ),
            ScalarExpr::And(a, b) => {
                ScalarExpr::And(Box::new(a.fold_constants()), Box::new(b.fold_constants()))
            }
            ScalarExpr::Or(a, b) => {
                ScalarExpr::Or(Box::new(a.fold_constants()), Box::new(b.fold_constants()))
            }
            ScalarExpr::Not(a) => ScalarExpr::Not(Box::new(a.fold_constants())),
            other => other.clone(),
        }
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Column(c) => write!(f, "{c}"),
            ScalarExpr::Number(v) => write!(f, "{v}"),
            ScalarExpr::Str(s) => write!(f, "'{s}'"),
            ScalarExpr::Arith(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            ScalarExpr::Cmp(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            ScalarExpr::And(a, b) => write!(f, "({a} AND {b})"),
            ScalarExpr::Or(a, b) => write!(f, "({a} OR {b})"),
            ScalarExpr::Not(a) => write!(f, "(NOT {a})"),
            ScalarExpr::Neg(a) => write!(f, "(-{a})"),
        }
    }
}

/// Extension: read a Value as SQL truth.
trait Truth {
    fn truth(&self) -> Option<bool>;
}

impl Truth for Value {
    fn truth(&self) -> Option<bool> {
        match self {
            Value::Null => None,
            Value::Bool(b) => Some(*b),
            other => other.as_f64().map(|v| v != 0.0),
        }
    }
}

fn cmp_matches(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
    }
}

/// A comparison operand the typed kernels can read without boxing:
/// a raw numeric buffer plus validity, or a literal.
enum NumOperand<'a> {
    F(&'a [f64], &'a Bitmap),
    I(&'a [i64], &'a Bitmap),
    Lit(f64),
}

fn num_operand<'a>(e: &ScalarExpr, table: &'a Table) -> Option<NumOperand<'a>> {
    match e {
        ScalarExpr::Number(v) => Some(NumOperand::Lit(*v)),
        ScalarExpr::Column(name) => match table.column(name).ok()? {
            Column::Float64 { data, validity } => Some(NumOperand::F(data, validity)),
            Column::Int64 { data, validity } => Some(NumOperand::I(data, validity)),
            _ => None,
        },
        _ => None,
    }
}

/// Validity probe that skips per-bit lookups on all-valid columns.
fn valid_fn(v: &Bitmap) -> impl Fn(usize) -> bool + '_ {
    let all = v.all_set();
    move |i| all || v.get(i)
}

/// Comparison kernel, monomorphized per operand-type pair so each
/// combination compiles to a tight loop over the raw buffers. NaN
/// values compare UNKNOWN, matching `eval_numeric`'s missing-value
/// semantics.
///
/// Processes 64 rows per iteration, accumulating the truth/known bits
/// of one mask word in registers. The inner lane loop is branch-free —
/// validity, NaN-ness, and the comparison outcome are materialized as
/// `0/1` and shifted into place — so LLVM can unroll and autovectorize
/// it; nothing here depends on lane order.
fn cmp_lanes(
    op: CmpOp,
    n: usize,
    get_a: impl Fn(usize) -> f64,
    valid_a: impl Fn(usize) -> bool,
    get_b: impl Fn(usize) -> f64,
    valid_b: impl Fn(usize) -> bool,
) -> PredMask {
    #[inline(always)]
    fn run(
        n: usize,
        get_a: impl Fn(usize) -> f64,
        valid_a: impl Fn(usize) -> bool,
        get_b: impl Fn(usize) -> f64,
        valid_b: impl Fn(usize) -> bool,
        cmp: impl Fn(f64, f64) -> bool,
    ) -> PredMask {
        let words = n.div_ceil(64);
        let mut truth = vec![0u64; words];
        let mut known = vec![0u64; words];
        for w in 0..words {
            let base = w * 64;
            let lanes = (n - base).min(64);
            let mut kword = 0u64;
            let mut tword = 0u64;
            for j in 0..lanes {
                let i = base + j;
                let a = get_a(i);
                let b = get_b(i);
                // NaN comparisons are all-false except `!=`; masking
                // with `k` (which requires both sides non-NaN) keeps
                // NaN rows UNKNOWN under every operator.
                let k = (valid_a(i) && valid_b(i) && !a.is_nan() && !b.is_nan()) as u64;
                let t = cmp(a, b) as u64 & k;
                kword |= k << j;
                tword |= t << j;
            }
            known[w] = kword;
            truth[w] = tword;
        }
        PredMask::from_parts(n, truth, known)
    }
    match op {
        CmpOp::Lt => run(n, get_a, valid_a, get_b, valid_b, |a, b| a < b),
        CmpOp::Le => run(n, get_a, valid_a, get_b, valid_b, |a, b| a <= b),
        CmpOp::Gt => run(n, get_a, valid_a, get_b, valid_b, |a, b| a > b),
        CmpOp::Ge => run(n, get_a, valid_a, get_b, valid_b, |a, b| a >= b),
        CmpOp::Eq => run(n, get_a, valid_a, get_b, valid_b, |a, b| a == b),
        CmpOp::Ne => run(n, get_a, valid_a, get_b, valid_b, |a, b| a != b),
    }
}

/// Typed fast path for `column <op> literal` / `column <op> column`
/// over `Float64` and `Int64` buffers. Returns `None` when either side
/// is not such an operand (the caller falls back to the generic path).
fn cmp_fast_path(op: CmpOp, a: &ScalarExpr, b: &ScalarExpr, table: &Table) -> Option<PredMask> {
    use NumOperand::*;
    let lhs = num_operand(a, table)?;
    let rhs = num_operand(b, table)?;
    let n = table.row_count();
    let always = |_: usize| true;
    Some(match (lhs, rhs) {
        // Constant-vs-constant is rare; let the generic path fold it.
        (Lit(_), Lit(_)) => return None,
        (F(d, v), Lit(c)) => cmp_lanes(op, n, |i| d[i], valid_fn(v), |_| c, always),
        (Lit(c), F(d, v)) => cmp_lanes(op, n, |_| c, always, |i| d[i], valid_fn(v)),
        (I(d, v), Lit(c)) => cmp_lanes(op, n, |i| d[i] as f64, valid_fn(v), |_| c, always),
        (Lit(c), I(d, v)) => cmp_lanes(op, n, |_| c, always, |i| d[i] as f64, valid_fn(v)),
        (F(da, va), F(db, vb)) => {
            cmp_lanes(op, n, |i| da[i], valid_fn(va), |i| db[i], valid_fn(vb))
        }
        (I(da, va), I(db, vb)) => {
            cmp_lanes(op, n, |i| da[i] as f64, valid_fn(va), |i| db[i] as f64, valid_fn(vb))
        }
        (F(da, va), I(db, vb)) => {
            cmp_lanes(op, n, |i| da[i], valid_fn(va), |i| db[i] as f64, valid_fn(vb))
        }
        (I(da, va), F(db, vb)) => {
            cmp_lanes(op, n, |i| da[i] as f64, valid_fn(va), |i| db[i], valid_fn(vb))
        }
    })
}

fn three_valued_and(a: Option<bool>, b: Option<bool>) -> Value {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Value::Bool(false),
        (Some(true), Some(true)) => Value::Bool(true),
        _ => Value::Null,
    }
}

fn three_valued_or(a: Option<bool>, b: Option<bool>) -> Value {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Value::Bool(true),
        (Some(false), Some(false)) => Value::Bool(false),
        _ => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lawsdb_storage::TableBuilder;

    fn table() -> Table {
        let mut b = TableBuilder::new("t");
        b.add_i64("a", vec![1, 2, 3]);
        b.add_f64_opt("x", vec![Some(1.5), None, Some(3.5)]);
        b.add_str("s", vec!["red".into(), "green".into(), "red".into()]);
        b.build().unwrap()
    }

    fn col(n: &str) -> ScalarExpr {
        ScalarExpr::Column(n.to_string())
    }
    fn num(v: f64) -> ScalarExpr {
        ScalarExpr::Number(v)
    }

    #[test]
    fn arithmetic_with_null_propagation() {
        let t = table();
        let e = ScalarExpr::Arith(ArithOp::Add, Box::new(col("a")), Box::new(col("x")));
        let v = e.eval_numeric(&t).unwrap();
        assert_eq!(v, vec![Some(2.5), None, Some(6.5)]);
    }

    #[test]
    fn three_valued_comparison() {
        let t = table();
        let e = ScalarExpr::Cmp(CmpOp::Gt, Box::new(col("x")), Box::new(num(2.0)));
        let p = e.eval_predicate(&t).unwrap();
        assert_eq!(p, vec![Some(false), None, Some(true)]);
    }

    #[test]
    fn null_and_false_is_false() {
        let t = table();
        // (x > 2) AND (a < 0): row 1 is NULL AND false = false.
        let e = ScalarExpr::And(
            Box::new(ScalarExpr::Cmp(CmpOp::Gt, Box::new(col("x")), Box::new(num(2.0)))),
            Box::new(ScalarExpr::Cmp(CmpOp::Lt, Box::new(col("a")), Box::new(num(0.0)))),
        );
        let p = e.eval_predicate(&t).unwrap();
        assert_eq!(p, vec![Some(false), Some(false), Some(false)]);
    }

    #[test]
    fn null_or_true_is_true() {
        let t = table();
        let e = ScalarExpr::Or(
            Box::new(ScalarExpr::Cmp(CmpOp::Gt, Box::new(col("x")), Box::new(num(2.0)))),
            Box::new(ScalarExpr::Cmp(CmpOp::Gt, Box::new(col("a")), Box::new(num(0.0)))),
        );
        let p = e.eval_predicate(&t).unwrap();
        assert_eq!(p, vec![Some(true), Some(true), Some(true)]);
    }

    #[test]
    fn string_equality() {
        let t = table();
        let e = ScalarExpr::Cmp(
            CmpOp::Eq,
            Box::new(col("s")),
            Box::new(ScalarExpr::Str("red".to_string())),
        );
        let p = e.eval_predicate(&t).unwrap();
        assert_eq!(p, vec![Some(true), Some(false), Some(true)]);
    }

    #[test]
    fn numeric_context_rejects_strings() {
        let t = table();
        let e = ScalarExpr::Arith(ArithOp::Add, Box::new(col("s")), Box::new(num(1.0)));
        assert!(e.eval_numeric(&t).is_err());
    }

    #[test]
    fn constant_folding() {
        let e = ScalarExpr::Arith(
            ArithOp::Add,
            Box::new(num(1.0)),
            Box::new(ScalarExpr::Arith(ArithOp::Mul, Box::new(num(2.0)), Box::new(num(3.0)))),
        );
        assert_eq!(e.fold_constants(), num(7.0));
        // Non-constant parts survive.
        let e2 = ScalarExpr::Arith(ArithOp::Add, Box::new(col("a")), Box::new(num(0.0)));
        assert!(matches!(e2.fold_constants(), ScalarExpr::Arith(..)));
    }

    #[test]
    fn mask_selected_rows_are_known_true_only() {
        let t = table();
        let e = ScalarExpr::Cmp(CmpOp::Gt, Box::new(col("x")), Box::new(num(2.0)));
        let m = e.eval_mask(&t).unwrap();
        // Row 1 is NULL → UNKNOWN: excluded from selection.
        assert_eq!(m.to_options(), vec![Some(false), None, Some(true)]);
        assert_eq!(m.selected_indices(), vec![2]);
        assert_eq!(m.selected_count(), 1);
    }

    #[test]
    fn predmask_connectives_match_three_valued_truth_tables() {
        let vals = [Some(false), Some(true), None];
        let mut a_opts = Vec::new();
        let mut b_opts = Vec::new();
        for &x in &vals {
            for &y in &vals {
                a_opts.push(x);
                b_opts.push(y);
            }
        }
        let a = PredMask::from_options(&a_opts);
        let b = PredMask::from_options(&b_opts);
        let want_and: Vec<Option<bool>> = a_opts
            .iter()
            .zip(&b_opts)
            .map(|(&x, &y)| three_valued_and(x, y).truth())
            .collect();
        let want_or: Vec<Option<bool>> = a_opts
            .iter()
            .zip(&b_opts)
            .map(|(&x, &y)| three_valued_or(x, y).truth())
            .collect();
        let want_not: Vec<Option<bool>> = a_opts.iter().map(|&x| x.map(|v| !v)).collect();
        assert_eq!(a.and(&b).to_options(), want_and);
        assert_eq!(a.or(&b).to_options(), want_or);
        assert_eq!(a.not().to_options(), want_not);
    }

    #[test]
    fn fast_path_treats_nan_as_unknown() {
        let mut b = TableBuilder::new("t");
        b.add_f64("x", vec![f64::NAN, 1.0, -2.0]);
        let t = b.build().unwrap();
        let e = ScalarExpr::Cmp(CmpOp::Gt, Box::new(col("x")), Box::new(num(0.5)));
        assert_eq!(e.eval_predicate(&t).unwrap(), vec![None, Some(true), Some(false)]);
        // NaN literal: every comparison is UNKNOWN.
        let e = ScalarExpr::Cmp(CmpOp::Lt, Box::new(col("x")), Box::new(num(f64::NAN)));
        assert_eq!(e.eval_predicate(&t).unwrap(), vec![None, None, None]);
    }

    #[test]
    fn fast_path_handles_reversed_and_column_column_operands() {
        let t = table();
        // literal <op> column mirrors column <op> literal.
        let e = ScalarExpr::Cmp(CmpOp::Lt, Box::new(num(2.0)), Box::new(col("x")));
        assert_eq!(e.eval_predicate(&t).unwrap(), vec![Some(false), None, Some(true)]);
        // Int column vs float column, NULL propagating.
        let e = ScalarExpr::Cmp(CmpOp::Lt, Box::new(col("a")), Box::new(col("x")));
        assert_eq!(e.eval_predicate(&t).unwrap(), vec![Some(true), None, Some(true)]);
        // Int column vs literal.
        let e = ScalarExpr::Cmp(CmpOp::Ge, Box::new(col("a")), Box::new(num(2.0)));
        assert_eq!(e.eval_predicate(&t).unwrap(), vec![Some(false), Some(true), Some(true)]);
    }

    #[test]
    fn fast_path_agrees_with_generic_path() {
        let mut b = TableBuilder::new("t");
        b.add_f64_opt("x", vec![Some(1.0), None, Some(f64::NAN), Some(-3.0), Some(2.0)]);
        b.add_i64("a", vec![1, 2, 3, -3, 0]);
        let t = b.build().unwrap();
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne] {
            // Wrap one operand in `+ 0` to defeat the fast path; results
            // must match exactly.
            let fast = ScalarExpr::Cmp(op, Box::new(col("x")), Box::new(col("a")));
            let generic = ScalarExpr::Cmp(
                op,
                Box::new(ScalarExpr::Arith(ArithOp::Add, Box::new(col("x")), Box::new(num(0.0)))),
                Box::new(col("a")),
            );
            assert_eq!(
                fast.eval_predicate(&t).unwrap(),
                generic.eval_predicate(&t).unwrap(),
                "op {op:?}"
            );
        }
    }

    #[test]
    fn columns_are_collected_in_order() {
        let e = ScalarExpr::And(
            Box::new(ScalarExpr::Cmp(CmpOp::Eq, Box::new(col("x")), Box::new(col("a")))),
            Box::new(ScalarExpr::Cmp(CmpOp::Eq, Box::new(col("a")), Box::new(num(1.0)))),
        );
        assert_eq!(e.columns(), vec!["x", "a"]);
    }
}

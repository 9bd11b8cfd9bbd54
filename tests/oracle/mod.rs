//! The naive interpreter: the one definition of an exact answer.
//!
//! It reads a `SELECT` through `parse_select` and walks the statement
//! one row at a time. It calls nothing of the executor: no kernel, no
//! pruning, no synopsis, no partial aggregate. Every exact path in the
//! engine must return its bits (`tests/equivalence.rs`). The rules it
//! encodes, and so the rules the engine is held to:
//!
//! - **Cells.** A bare column reads its cell as stored: NULL stays NULL,
//!   NaN stays NaN, an int stays an int.
//! - **Arithmetic** (`+ - * /`, unary `-`) is on `f64`. Ints widen, and
//!   a comparison reads as 1 or 0. NULL and a *stored* NaN are missing,
//!   so the result is NULL. A NaN the arithmetic makes is a value.
//! - **Comparisons** are three-valued: a missing or NaN operand makes
//!   them UNKNOWN. AND, OR and NOT are Kleene's. WHERE keeps the TRUE
//!   rows. A bare number used as a predicate is TRUE when non-zero.
//! - **Aggregates** see the same numbers: NULL and NaN are missing.
//!   `COUNT(*)` counts rows and `COUNT(e)` non-missing values. SUM is
//!   the exact sum rounded once (`ExactSum`), and AVG is that sum over
//!   the count. MIN and MAX order by `f64::total_cmp`, so −0.0 < +0.0.
//!   Over no values SUM, AVG, MIN and MAX are NULL and COUNT is 0.
//! - **Groups.** NULL is one group. A float with no fraction groups with
//!   the equal int, so −0.0 and +0.0 are one group. Any other float
//!   groups by its bit pattern, so each NaN payload is its own group.
//!   Groups come out in the order of their first row, and a key cell is
//!   that row's cell. An aggregate without GROUP BY yields one row, even
//!   over no rows.
//! - **DISTINCT** keeps the first of the rows whose cells group together.
//! - **ORDER BY** is stable. NULLs sort last in both directions. Other
//!   values: ints as `i64`; floats by `f64::total_cmp`, except that every
//!   NaN, of either sign, sorts after +inf and ties with the other NaNs.
//!   DESC reverses the non-NULL order only.
//! - **LIMIT n** keeps the first n rows.
//! - **Columns** come in SELECT-list order (`*` is the table's columns).
//!   A name is the alias, else the column's name, else the engine's
//!   rendering of the item. A bare column keeps its type, a predicate
//!   is Bool, COUNT is Int64, MIN and MAX of a string column are Str,
//!   and everything else is Float64 — with or without rows. An
//!   aggregate's GROUP BY columns are output only where selected.

use lawsdb::query::parse_select;
use lawsdb::query::sexpr::{ArithOp, CmpOp, ScalarExpr};
use lawsdb::query::sql::{AggFunc, SelectItem, SelectStatement};
use lawsdb::storage::{DataType, ExactSum, Table, Value};
use std::cmp::Ordering;
use std::collections::HashMap;

/// A result as every path is compared: typed columns, then rows.
pub struct Relation {
    columns: Vec<(String, DataType)>,
    pub rows: Vec<Vec<Value>>,
}

impl Relation {
    /// An engine result in the oracle's form.
    pub fn of(t: &Table) -> Relation {
        Relation {
            columns: t.schema().fields().iter().map(|f| (f.name.clone(), f.data_type)).collect(),
            rows: (0..t.row_count()).map(|i| t.row(i).unwrap()).collect(),
        }
    }

    /// Typed names, then one line per row with floats as raw bits:
    /// equal strings ⇔ equal schema, rows and bits.
    pub fn fingerprint(&self) -> String {
        let names: Vec<String> = self.columns.iter().map(|(n, t)| format!("{n}:{t}")).collect();
        let mut out = vec![names.join(" ")];
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .map(|v| match v {
                    Value::Null => "∅".to_string(),
                    Value::Int(i) => format!("i{i}"),
                    Value::Float(x) => format!("f{:016x}", x.to_bits()),
                    Value::Str(s) => format!("s{s:?}"),
                    Value::Bool(b) => format!("b{b}"),
                })
                .collect();
            out.push(cells.join(" "));
        }
        out.join("\n")
    }
}

/// The rows of `table` a `WHERE predicate` keeps: those where it is TRUE.
pub fn rows_where(table: &Table, predicate: &ScalarExpr) -> Vec<usize> {
    let input = Relation::of(table);
    let names: Vec<&str> = input.columns.iter().map(|(n, _)| n.as_str()).collect();
    let truth = |row| Scope { names: &names, row }.truth(predicate);
    (0..input.rows.len()).filter(|&i| truth(&input.rows[i]) == Some(true)).collect()
}

/// The fingerprint of an engine result.
pub fn fingerprint(t: &Table) -> String {
    Relation::of(t).fingerprint()
}

/// The exact answer to `sql` over `table`, the statement's one table.
pub fn answer(table: &Table, sql: &str) -> Relation {
    let stmt = parse_select(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    assert!(stmt.join.is_none() && stmt.table == table.name(), "outside the oracle: {sql}");
    let input = Relation::of(table);
    let names: Vec<&str> = input.columns.iter().map(|(n, _)| n.as_str()).collect();
    let rows = match &stmt.predicate {
        Some(p) => rows_where(table, p),
        None => (0..table.row_count()).collect(),
    };
    let kept: Vec<Scope> =
        rows.iter().map(|&i| Scope { names: &names, row: &input.rows[i] }).collect();
    let aggregated =
        !stmt.group_by.is_empty() || stmt.items.iter().any(|i| matches!(i, SelectItem::Agg { .. }));
    let mut out =
        if aggregated { aggregate(&stmt, &input, &kept) } else { project(&stmt, &input, &kept) };
    if stmt.distinct {
        let mut seen = std::collections::HashSet::new();
        out.rows.retain(|r| seen.insert(r.iter().map(Key::of).collect::<Vec<_>>()));
    }
    let keys: Vec<(usize, bool)> = stmt
        .order_by
        .iter()
        .map(|o| (out.columns.iter().position(|(n, _)| *n == o.column).unwrap(), o.desc))
        .collect();
    out.rows.sort_by(|a, b| {
        keys.iter()
            .map(|&(i, desc)| match (&a[i], &b[i]) {
                (Value::Null, Value::Null) => Ordering::Equal,
                (Value::Null, _) => Ordering::Greater,
                (_, Value::Null) => Ordering::Less,
                (x, y) if desc => order(y, x),
                (x, y) => order(x, y),
            })
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    out.rows.truncate(stmt.limit.unwrap_or(usize::MAX));
    out
}

fn project(stmt: &SelectStatement, input: &Relation, kept: &[Scope]) -> Relation {
    let mut columns = Vec::new();
    let mut exprs = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Star => {
                columns.extend(input.columns.iter().cloned());
                exprs.extend(input.columns.iter().map(|(n, _)| ScalarExpr::Column(n.clone())));
            }
            SelectItem::Expr { expr, .. } => {
                columns.push((item.output_name(), expr_type(expr, input)));
                exprs.push(expr.clone());
            }
            SelectItem::Agg { .. } => unreachable!("projections hold no aggregate"),
        }
    }
    let rows = kept.iter().map(|s| exprs.iter().map(|e| s.value(e)).collect()).collect();
    Relation { columns, rows }
}

fn aggregate(stmt: &SelectStatement, input: &Relation, kept: &[Scope]) -> Relation {
    let key_of =
        |s: &Scope| -> Vec<Key> { stmt.group_by.iter().map(|g| Key::of(s.cell(g))).collect() };
    let mut index: HashMap<Vec<Key>, usize> = HashMap::new();
    let mut groups: Vec<Vec<&Scope>> = Vec::new();
    for s in kept {
        let g = *index.entry(key_of(s)).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(s);
    }
    if stmt.group_by.is_empty() && groups.is_empty() {
        groups.push(Vec::new());
    }
    let columns = stmt
        .items
        .iter()
        .map(|item| match item {
            SelectItem::Expr { expr: e @ ScalarExpr::Column(c), .. }
                if stmt.group_by.contains(c) =>
            {
                (item.output_name(), expr_type(e, input))
            }
            SelectItem::Agg { func: AggFunc::Count, .. } => (item.output_name(), DataType::Int64),
            SelectItem::Agg { func: AggFunc::Min | AggFunc::Max, arg: Some(e), .. }
                if expr_type(e, input) == DataType::Str =>
            {
                (item.output_name(), DataType::Str)
            }
            SelectItem::Agg { .. } => (item.output_name(), DataType::Float64),
            other => panic!("neither aggregated nor a GROUP BY column: {other:?}"),
        })
        .collect();
    let rows = groups
        .iter()
        .map(|rows| {
            stmt.items
                .iter()
                .map(|item| match item {
                    SelectItem::Expr { expr, .. } => rows[0].value(expr),
                    SelectItem::Agg { func, arg, .. } => fold(*func, arg.as_ref(), rows),
                    SelectItem::Star => unreachable!(),
                })
                .collect()
        })
        .collect();
    Relation { columns, rows }
}

/// One aggregate over a group's rows.
fn fold(func: AggFunc, arg: Option<&ScalarExpr>, rows: &[&Scope]) -> Value {
    let Some(arg) = arg else {
        return Value::Int(rows.len() as i64);
    };
    let xs: Vec<f64> = rows.iter().filter_map(|s| s.num(arg)).collect();
    let sum = || {
        let mut acc = ExactSum::new();
        xs.iter().for_each(|&x| acc.add(x));
        acc.value()
    };
    match func {
        AggFunc::Count => Value::Int(xs.len() as i64),
        _ if xs.is_empty() => Value::Null,
        AggFunc::Sum => Value::Float(sum()),
        AggFunc::Avg => Value::Float(sum() / xs.len() as f64),
        AggFunc::Min => Value::Float(xs.iter().copied().min_by(f64::total_cmp).unwrap()),
        AggFunc::Max => Value::Float(xs.iter().copied().max_by(f64::total_cmp).unwrap()),
    }
}

fn expr_type(e: &ScalarExpr, input: &Relation) -> DataType {
    match e {
        ScalarExpr::Column(c) => input.columns.iter().find(|(n, _)| n == c).unwrap().1,
        ScalarExpr::Cmp(..) | ScalarExpr::And(..) | ScalarExpr::Or(..) | ScalarExpr::Not(..) => {
            DataType::Bool
        }
        _ => DataType::Float64,
    }
}

/// One input row with its column names.
struct Scope<'a> {
    names: &'a [&'a str],
    row: &'a [Value],
}

impl Scope<'_> {
    fn cell(&self, name: &str) -> &Value {
        let i = self.names.iter().position(|n| *n == name);
        &self.row[i.unwrap_or_else(|| panic!("no column {name}"))]
    }

    /// A SELECT-list item's cell.
    fn value(&self, e: &ScalarExpr) -> Value {
        match e {
            ScalarExpr::Column(c) => self.cell(c).clone(),
            ScalarExpr::Cmp(..)
            | ScalarExpr::And(..)
            | ScalarExpr::Or(..)
            | ScalarExpr::Not(..) => self.truth(e).map_or(Value::Null, Value::Bool),
            _ => self.num(e).map_or(Value::Null, Value::Float),
        }
    }

    /// The numeric view; `None` is missing.
    fn num(&self, e: &ScalarExpr) -> Option<f64> {
        match e {
            ScalarExpr::Column(c) => match self.cell(c) {
                Value::Float(x) if x.is_nan() => None,
                v => v.as_f64(),
            },
            ScalarExpr::Number(x) => Some(*x),
            ScalarExpr::Neg(a) => self.num(a).map(|x| -x),
            ScalarExpr::Arith(op, a, b) => {
                let (x, y) = (self.num(a)?, self.num(b)?);
                Some(match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => x / y,
                })
            }
            ScalarExpr::Str(_) => panic!("strings are outside the oracle"),
            predicate => self.truth(predicate).map(|t| if t { 1.0 } else { 0.0 }),
        }
    }

    /// Three-valued truth; `None` is UNKNOWN.
    fn truth(&self, e: &ScalarExpr) -> Option<bool> {
        match e {
            ScalarExpr::Cmp(op, a, b) => {
                let ord = self.num(a)?.partial_cmp(&self.num(b)?)?;
                Some(match op {
                    CmpOp::Lt => ord.is_lt(),
                    CmpOp::Le => ord.is_le(),
                    CmpOp::Gt => ord.is_gt(),
                    CmpOp::Ge => ord.is_ge(),
                    CmpOp::Eq => ord.is_eq(),
                    CmpOp::Ne => ord.is_ne(),
                })
            }
            ScalarExpr::And(a, b) => match (self.truth(a), self.truth(b)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            ScalarExpr::Or(a, b) => match (self.truth(a), self.truth(b)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            ScalarExpr::Not(a) => self.truth(a).map(|t| !t),
            number => self.num(number).map(|x| x != 0.0),
        }
    }
}

/// A cell under the grouping rule.
#[derive(PartialEq, Eq, Hash)]
enum Key {
    Null,
    Int(i64),
    Bits(u64),
    Str(String),
    Bool(bool),
}

impl Key {
    fn of(v: &Value) -> Key {
        match v {
            Value::Null => Key::Null,
            Value::Int(i) => Key::Int(*i),
            Value::Float(x) if x.fract() == 0.0 && x.abs() < 9.0e18 => Key::Int(*x as i64),
            Value::Float(x) => Key::Bits(x.to_bits()),
            Value::Str(s) => Key::Str(s.clone()),
            Value::Bool(b) => Key::Bool(*b),
        }
    }
}

/// ORDER BY's order on two non-NULL cells of one column.
fn order(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        _ => {
            let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
            match (x.is_nan(), y.is_nan()) {
                (false, false) => x.total_cmp(&y),
                (x_nan, y_nan) => x_nan.cmp(&y_nan),
            }
        }
    }
}

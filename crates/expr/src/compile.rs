//! Compiled, vectorized evaluation of expressions.
//!
//! Model-backed query answering evaluates one model body over millions of
//! reconstructed rows (the paper's "zero-IO scan" turns an IO-bound scan
//! into a CPU-bound recomputation, Section 4.1), and a fit evaluates a
//! body and its Jacobian at every step. A per-row tree walk with name
//! lookups would dominate both, so a list of expressions (the *roots*) is
//! compiled once into one register program over column batches:
//!
//! * operands are slots resolved at compile time. Input columns are read
//!   in place, and a scalar (a constant, a fitted parameter, or a value
//!   computed from those alone) stays one value, never a column;
//! * structurally equal subtrees, within a root and across roots, are
//!   one instruction (constants compare by their bits), so the `nu ^
//!   alpha` of a body and of its derivatives is computed once;
//! * the instructions that read no scalar slot, such as `ln(nu)`, form a
//!   prologue that runs once per set of rows ([`CompiledExpr::bind`]);
//!   the rest runs once per set of scalars ([`CompiledExpr::eval`]).
//!
//! Each instruction is the tree walk's `f64` operation on the same
//! inputs, so every output has [`Expr::eval`]'s bits.

use crate::ast::{Expr, Func};
use crate::error::{ExprError, Result};
use std::collections::HashMap;

/// An instruction's operation. A unary one reads its first operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Neg,
    Call(Func),
}

impl Op {
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            Op::Add => a + b,
            Op::Sub => a - b,
            Op::Mul => a * b,
            Op::Div => a / b,
            Op::Pow => a.powf(b),
            Op::Neg => -a,
            Op::Call(f) if f.arity() == 1 => f.apply(&[a]),
            Op::Call(f) => f.apply(&[a, b]),
        }
    }

    /// `out` = this operation over `a` and `b`, at least one a column;
    /// one loop per operation, so each is a plain loop over the rows.
    fn apply_columns(self, a: Value<'_>, b: Value<'_>, out: &mut Vec<f64>) {
        match self {
            Op::Add => map(a, b, out, |x, y| x + y),
            Op::Sub => map(a, b, out, |x, y| x - y),
            Op::Mul => map(a, b, out, |x, y| x * y),
            Op::Div => map(a, b, out, |x, y| x / y),
            Op::Pow => map(a, b, out, f64::powf),
            Op::Neg => map(a, b, out, |x, _| -x),
            Op::Call(f) if f.arity() == 1 => map(a, b, out, |x, _| f.apply(&[x])),
            Op::Call(f) => map(a, b, out, |x, y| f.apply(&[x, y])),
        }
    }
}

fn map(a: Value<'_>, b: Value<'_>, out: &mut Vec<f64>, f: impl Fn(f64, f64) -> f64) {
    out.clear();
    match (a, b) {
        (Value::Column(x), Value::Column(y)) => out.extend(x.iter().zip(y).map(|(&x, &y)| f(x, y))),
        (Value::Column(x), Value::Scalar(y)) => out.extend(x.iter().map(|&x| f(x, y))),
        (Value::Scalar(x), Value::Column(y)) => out.extend(y.iter().map(|&y| f(x, y))),
        (Value::Scalar(_), Value::Scalar(_)) => unreachable!("a column instruction reads a column"),
    }
}

/// One output of a program, or one operand of an instruction: a column
/// of one value per bound row, or one value for every row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value<'a> {
    /// One value per row.
    Column(&'a [f64]),
    /// The same value for every row.
    Scalar(f64),
}

impl Value<'_> {
    /// The value at row `i`.
    pub fn get(&self, i: usize) -> f64 {
        match self {
            Value::Column(c) => c[i],
            Value::Scalar(v) => *v,
        }
    }

    /// The values of `n` rows; a column's are its own, all `n` of them.
    pub fn to_vec(&self, n: usize) -> Vec<f64> {
        match self {
            Value::Column(c) => c.to_vec(),
            Value::Scalar(v) => vec![*v; n],
        }
    }
}

/// Where an instruction reads an operand, or a program finds an output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Src {
    /// A constant, by its bits.
    Const(u64),
    /// Input column slot `i`, read in place.
    Column(usize),
    /// Scalar slot `i`.
    Scalar(usize),
    /// The column register an instruction wrote.
    ColumnReg(usize),
    /// The scalar register an instruction wrote.
    ScalarReg(usize),
}

#[derive(Debug, Clone)]
struct Instr {
    op: Op,
    a: Src,
    /// The first operand again for a unary operation.
    b: Src,
    /// Whether the result is a column (an operand is one) or a scalar.
    column: bool,
    /// The register written, a column or a scalar one as `column` says.
    dst: usize,
}

/// A compiled list of expressions: one program that computes every root.
///
/// Symbols are split at compile time into *column* slots (vary per row)
/// and *scalar* slots (constant across the batch — the fitted
/// parameters). The split is supplied by the caller, because only the
/// schema knows which identifiers are columns.
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    /// Prologue instructions first, then the ones that read a scalar slot.
    instrs: Vec<Instr>,
    /// The number of prologue instructions.
    prologue: usize,
    /// Where each root's value is, in root order.
    outputs: Vec<Src>,
    column_regs: usize,
    scalar_regs: usize,
    /// Column symbol names in slot order.
    columns: Vec<String>,
    /// Scalar symbol names in slot order.
    scalars: Vec<String>,
}

/// The registers a program runs in, reusable across programs and row
/// sets: [`CompiledExpr::bind`] sizes them for its program and rows.
#[derive(Debug, Default)]
pub struct Registers {
    columns: Vec<Vec<f64>>,
    scalars: Vec<f64>,
    /// The scalar slots' values of the last [`CompiledExpr::eval`].
    params: Vec<f64>,
    /// The row count last bound.
    rows: usize,
}

impl Registers {
    fn value<'a>(&'a self, src: Src, cols: &[&'a [f64]]) -> Value<'a> {
        match src {
            Src::Const(bits) => Value::Scalar(f64::from_bits(bits)),
            Src::Column(i) => Value::Column(cols[i]),
            Src::Scalar(i) => Value::Scalar(self.params[i]),
            Src::ColumnReg(r) => Value::Column(&self.columns[r]),
            Src::ScalarReg(r) => Value::Scalar(self.scalars[r]),
        }
    }

    fn scalar(&self, src: Src) -> f64 {
        match self.value(src, &[]) {
            Value::Scalar(v) => v,
            Value::Column(_) => unreachable!("a scalar instruction reads no column"),
        }
    }
}

impl CompiledExpr {
    /// Compile `expr`, treating the names in `column_syms` as batched
    /// columns and every other symbol as a broadcast scalar: the
    /// one-root program.
    pub fn compile(expr: &Expr, column_syms: &[&str]) -> Result<CompiledExpr> {
        CompiledExpr::compile_roots(std::slice::from_ref(expr), column_syms)
    }

    /// Compile `roots` into one program, with the names in `column_syms`
    /// as column slots and every other symbol of any root as a scalar
    /// slot, in name order. Output `k` is root `k`.
    pub fn compile_roots(roots: &[Expr], column_syms: &[&str]) -> Result<CompiledExpr> {
        let mut symbols: Vec<String> = roots.iter().flat_map(Expr::symbols).collect();
        symbols.sort();
        symbols.dedup();
        let (columns, scalars): (Vec<String>, Vec<String>) =
            symbols.into_iter().partition(|s| column_syms.contains(&s.as_str()));
        let mut dag = Dag { columns: &columns, scalars: &scalars, ..Dag::default() };
        let roots = roots.iter().map(|r| dag.arg(r)).collect::<Result<Vec<_>>>()?;
        let program = dag.schedule(&roots);
        Ok(CompiledExpr { columns, scalars, ..program })
    }

    /// Column symbol names, in the order `cols` arguments take them.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Scalar symbol names, in the order `scalars` arguments take them.
    pub fn scalars(&self) -> &[String] {
        &self.scalars
    }

    /// Evaluate the first root over a batch: [`CompiledExpr::bind`],
    /// [`CompiledExpr::eval`], and the output as one value per row (one
    /// value when the program reads no column).
    ///
    /// `cols[i]` is the data for `self.columns()[i]`; all columns must
    /// share one length. `scalars[i]` is the value for
    /// `self.scalars()[i]`.
    pub fn eval_batch(&self, cols: &[&[f64]], scalars: &[f64]) -> Result<Vec<f64>> {
        let mut regs = Registers::default();
        self.bind(cols, &mut regs)?;
        self.eval(cols, scalars, &mut regs)?;
        Ok(match self.outputs[0] {
            // The register is the result; no copy.
            Src::ColumnReg(r) => std::mem::take(&mut regs.columns[r]),
            src => regs.value(src, cols).to_vec(regs.rows),
        })
    }

    /// Bind a set of rows: check `cols` (as [`CompiledExpr::eval_batch`]
    /// takes them), size `regs` and run the prologue over them.
    pub fn bind(&self, cols: &[&[f64]], regs: &mut Registers) -> Result<()> {
        if cols.len() != self.columns.len() {
            return Err(ExprError::LengthMismatch {
                expected: self.columns.len(),
                got: cols.len(),
                symbol: "<column count>".to_string(),
            });
        }
        let n = cols.first().map_or(1, |c| c.len());
        if let Some(i) = cols.iter().position(|c| c.len() != n) {
            let symbol = self.columns[i].clone();
            return Err(ExprError::LengthMismatch { expected: n, got: cols[i].len(), symbol });
        }
        if regs.columns.len() < self.column_regs {
            regs.columns.resize_with(self.column_regs, Vec::new);
        }
        regs.scalars.resize(self.scalar_regs.max(regs.scalars.len()), 0.0);
        regs.params.clear();
        regs.rows = n;
        run(&self.instrs[..self.prologue], cols, regs);
        Ok(())
    }

    /// Run the instructions that read a scalar slot at `scalars`, over
    /// the rows `cols` that [`CompiledExpr::bind`] last bound into `regs`
    /// for this program.
    pub fn eval(&self, cols: &[&[f64]], scalars: &[f64], regs: &mut Registers) -> Result<()> {
        if scalars.len() != self.scalars.len() {
            return Err(ExprError::LengthMismatch {
                expected: self.scalars.len(),
                got: scalars.len(),
                symbol: "<scalar count>".to_string(),
            });
        }
        regs.params.clear();
        regs.params.extend_from_slice(scalars);
        run(&self.instrs[self.prologue..], cols, regs);
        Ok(())
    }

    /// Output `k` (root `k`'s value) of the last [`CompiledExpr::eval`]
    /// over `cols`.
    pub fn output<'a>(&self, k: usize, cols: &[&'a [f64]], regs: &'a Registers) -> Value<'a> {
        regs.value(self.outputs[k], cols)
    }
}

fn run(instrs: &[Instr], cols: &[&[f64]], regs: &mut Registers) {
    for ins in instrs {
        if ins.column {
            // The destination is never an operand's register.
            let mut out = std::mem::take(&mut regs.columns[ins.dst]);
            ins.op.apply_columns(regs.value(ins.a, cols), regs.value(ins.b, cols), &mut out);
            regs.columns[ins.dst] = out;
        } else {
            regs.scalars[ins.dst] = ins.op.apply(regs.scalar(ins.a), regs.scalar(ins.b));
        }
    }
}

/// An operand while the roots are read: a leaf, or a node of the DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Arg {
    Const(u64),
    Column(usize),
    Scalar(usize),
    Node(usize),
}

#[derive(Debug)]
struct Node {
    op: Op,
    args: [Arg; 2],
    /// Reads a column slot, so its value is a column.
    column: bool,
    /// Reads a scalar slot, so it runs once per set of scalars.
    param: bool,
}

/// The roots as a DAG of operations, each distinct one once, in an
/// order where every node follows its operands.
#[derive(Default)]
struct Dag<'s> {
    columns: &'s [String],
    scalars: &'s [String],
    nodes: Vec<Node>,
    index: HashMap<(Op, [Arg; 2]), usize>,
}

impl Dag<'_> {
    fn arg(&mut self, e: &Expr) -> Result<Arg> {
        let slot = |names: &[String], s: &String| names.iter().position(|n| n == s);
        Ok(match e {
            Expr::Num(v) => Arg::Const(v.to_bits()),
            Expr::Sym(s) => match (slot(self.columns, s), slot(self.scalars, s)) {
                (Some(i), _) => Arg::Column(i),
                (None, Some(i)) => Arg::Scalar(i),
                (None, None) => return Err(ExprError::UnboundSymbol { name: s.clone() }),
            },
            Expr::Add(a, b) => self.binary(Op::Add, a, b)?,
            Expr::Sub(a, b) => self.binary(Op::Sub, a, b)?,
            Expr::Mul(a, b) => self.binary(Op::Mul, a, b)?,
            Expr::Div(a, b) => self.binary(Op::Div, a, b)?,
            Expr::Pow(a, b) => self.binary(Op::Pow, a, b)?,
            Expr::Neg(a) => {
                let a = self.arg(a)?;
                self.node(Op::Neg, [a, a])
            }
            Expr::Call(f, args) if f.arity() == 1 => {
                let a = self.arg(&args[0])?;
                self.node(Op::Call(*f), [a, a])
            }
            Expr::Call(f, args) => self.binary(Op::Call(*f), &args[0], &args[1])?,
        })
    }

    fn binary(&mut self, op: Op, a: &Expr, b: &Expr) -> Result<Arg> {
        let a = self.arg(a)?;
        let b = self.arg(b)?;
        Ok(self.node(op, [a, b]))
    }

    fn node(&mut self, op: Op, args: [Arg; 2]) -> Arg {
        if let Some(&i) = self.index.get(&(op, args)) {
            return Arg::Node(i);
        }
        let reads = |column: bool| {
            args.iter().any(|a| match *a {
                Arg::Column(_) => column,
                Arg::Scalar(_) => !column,
                Arg::Node(i) => {
                    if column {
                        self.nodes[i].column
                    } else {
                        self.nodes[i].param
                    }
                }
                Arg::Const(_) => false,
            })
        };
        let node = Node { op, args, column: reads(true), param: reads(false) };
        self.nodes.push(node);
        self.index.insert((op, args), self.nodes.len() - 1);
        Arg::Node(self.nodes.len() - 1)
    }

    /// Order the nodes prologue first, give each a register (a column
    /// register is reused once its value is dead, unless an output or
    /// the part after the prologue still reads it), and emit.
    /// The slot names are left empty for the caller.
    fn schedule(self, roots: &[Arg]) -> CompiledExpr {
        let nodes = self.nodes;
        let order: Vec<usize> = (0..nodes.len())
            .filter(|&i| !nodes[i].param)
            .chain((0..nodes.len()).filter(|&i| nodes[i].param))
            .collect();
        let prologue = nodes.iter().filter(|n| !n.param).count();
        let mut last_use = vec![0usize; nodes.len()];
        for (at, &i) in order.iter().enumerate() {
            for arg in nodes[i].args {
                if let Arg::Node(j) = arg {
                    let kept = at >= prologue && !nodes[j].param;
                    last_use[j] = last_use[j].max(if kept { usize::MAX } else { at });
                }
            }
        }
        for root in roots {
            if let Arg::Node(j) = *root {
                last_use[j] = usize::MAX;
            }
        }
        let (mut reg, mut free) = (vec![0usize; nodes.len()], Vec::new());
        let (mut column_regs, mut scalar_regs) = (0, 0);
        for (at, &i) in order.iter().enumerate() {
            reg[i] = if nodes[i].column {
                free.pop().unwrap_or_else(|| {
                    column_regs += 1;
                    column_regs - 1
                })
            } else {
                scalar_regs += 1;
                scalar_regs - 1
            };
            let [a, b] = nodes[i].args;
            let dead = |arg: Arg| match arg {
                Arg::Node(j) if nodes[j].column && last_use[j] == at => Some(reg[j]),
                _ => None,
            };
            free.extend(dead(a));
            if b != a {
                free.extend(dead(b));
            }
        }
        let src = |arg: Arg| match arg {
            Arg::Const(bits) => Src::Const(bits),
            Arg::Column(i) => Src::Column(i),
            Arg::Scalar(i) => Src::Scalar(i),
            Arg::Node(j) if nodes[j].column => Src::ColumnReg(reg[j]),
            Arg::Node(j) => Src::ScalarReg(reg[j]),
        };
        let instrs = order
            .iter()
            .map(|&i| {
                let n = &nodes[i];
                let (a, b) = (src(n.args[0]), src(n.args[1]));
                Instr { op: n.op, a, b, column: n.column, dst: reg[i] }
            })
            .collect();
        let outputs = roots.iter().map(|&r| src(r)).collect();
        let (columns, scalars) = (Vec::new(), Vec::new());
        CompiledExpr { instrs, prologue, outputs, column_regs, scalar_regs, columns, scalars }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Bindings;
    use crate::parser::parse_expr;

    fn compile(src: &str, cols: &[&str]) -> CompiledExpr {
        CompiledExpr::compile(&parse_expr(src).unwrap(), cols).unwrap()
    }

    #[test]
    fn batch_matches_scalar_eval() {
        let src = "p * nu ^ alpha + ln(nu) / 2";
        let ce = compile(src, &["nu"]);
        let e = parse_expr(src).unwrap();
        let nus = [0.12, 0.15, 0.16, 0.18];
        // scalar slots sorted: [alpha, p]
        assert_eq!(ce.scalars(), &["alpha".to_string(), "p".to_string()]);
        let out = ce.eval_batch(&[&nus], &[-0.7, 2.0]).unwrap();
        for (i, &nu) in nus.iter().enumerate() {
            let b: Bindings = [("p", 2.0), ("alpha", -0.7), ("nu", nu)].into_iter().collect();
            assert_eq!(out[i].to_bits(), e.eval(&b).unwrap().to_bits());
        }
    }

    #[test]
    fn constant_expression_broadcasts_to_len_one() {
        let ce = compile("2 + 3", &[]);
        assert_eq!(ce.eval_batch(&[], &[]).unwrap(), vec![5.0]);
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let ce = compile("a + b", &["a", "b"]);
        let a = [1.0, 2.0];
        let b = [1.0];
        assert!(matches!(ce.eval_batch(&[&a, &b], &[]), Err(ExprError::LengthMismatch { .. })));
    }

    #[test]
    fn wrong_scalar_count_is_rejected() {
        let ce = compile("a * k", &["a"]);
        let a = [1.0];
        assert!(ce.eval_batch(&[&a], &[]).is_err());
        assert!(ce.eval_batch(&[&a], &[2.0]).is_ok());
    }

    #[test]
    fn registers_are_reused_across_batches() {
        let ce = compile("sin(x) * cos(x)", &["x"]);
        let mut regs = Registers::default();
        for n in [1usize, 7, 256] {
            let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.1).collect();
            ce.bind(&[&xs], &mut regs).unwrap();
            ce.eval(&[&xs], &[], &mut regs).unwrap();
            let Value::Column(out) = ce.output(0, &[&xs], &regs) else { panic!("a column") };
            assert_eq!(out.len(), n);
            for (o, x) in out.iter().zip(&xs) {
                assert_eq!(o.to_bits(), (x.sin() * x.cos()).to_bits());
            }
        }
    }

    #[test]
    fn dead_column_registers_are_reused() {
        // Each sum is dead once the next one reads it.
        let left = compile("x+1+2+3+4", &["x"]);
        assert_eq!(left.column_regs, 2);
        let x = [1.0, 2.0];
        assert_eq!(left.eval_batch(&[&x], &[]).unwrap(), vec![11.0, 12.0]);
        // Scalar subtrees stay scalars and take no column register.
        let right = compile("x+(2+(3+(4+5)))", &["x"]);
        assert_eq!((right.column_regs, right.scalar_regs), (1, 3));
        assert_eq!(right.eval_batch(&[&x], &[]).unwrap(), vec![15.0, 16.0]);
    }

    #[test]
    fn equal_subtrees_are_one_instruction_and_the_prologue_runs_once() {
        // f, ∂f/∂alpha and ∂f/∂p of the power law.
        let roots = ["p * nu ^ alpha", "p * ((nu ^ alpha) * ln(nu))", "nu ^ alpha"]
            .map(|s| parse_expr(s).unwrap());
        let ce = CompiledExpr::compile_roots(&roots, &["nu"]).unwrap();
        // ln(nu) in the prologue; nu ^ alpha, its product with p, with
        // ln(nu), and that product's with p after it.
        assert_eq!((ce.prologue, ce.instrs.len()), (1, 5));
        assert_eq!(ce.outputs[2], Src::ColumnReg(ce.instrs[1].dst));
        let nus = [0.12, 0.15, 0.16, 0.18];
        let mut regs = Registers::default();
        ce.bind(&[&nus], &mut regs).unwrap();
        for (alpha, p) in [(-0.7, 2.0), (0.3, -1.5)] {
            ce.eval(&[&nus], &[alpha, p], &mut regs).unwrap();
            for (k, root) in roots.iter().enumerate() {
                let out = ce.output(k, &[&nus], &regs);
                for (i, &nu) in nus.iter().enumerate() {
                    let b: Bindings =
                        [("p", p), ("alpha", alpha), ("nu", nu)].into_iter().collect();
                    assert_eq!(out.get(i).to_bits(), root.eval(&b).unwrap().to_bits());
                }
            }
        }
    }

    #[test]
    fn constants_are_equal_by_their_bits() {
        let x = || Box::new(Expr::Sym("x".into()));
        let sum = |c: f64| Box::new(Expr::Add(x(), Box::new(Expr::Num(c))));
        let ce = CompiledExpr::compile(&Expr::Mul(sum(0.0), sum(-0.0)), &["x"]).unwrap();
        // 0 and -0 are two constants, so two sums.
        assert_eq!(ce.instrs.len(), 3);
        let ce = compile("(x + 2) * (x + 2)", &["x"]);
        assert_eq!(ce.instrs.len(), 2);
    }

    #[test]
    fn outputs_may_be_inputs_or_scalars() {
        let roots = ["x", "k", "2 * k", "x * k"].map(|s| parse_expr(s).unwrap());
        let ce = CompiledExpr::compile_roots(&roots, &["x"]).unwrap();
        let x = [1.0, 2.0];
        let mut regs = Registers::default();
        ce.bind(&[&x], &mut regs).unwrap();
        ce.eval(&[&x], &[3.0], &mut regs).unwrap();
        let out: Vec<Value> = (0..4).map(|k| ce.output(k, &[&x], &regs)).collect();
        assert_eq!(out[0], Value::Column(&x));
        assert_eq!((out[1], out[2]), (Value::Scalar(3.0), Value::Scalar(6.0)));
        assert_eq!(out[3], Value::Column(&[3.0, 6.0]));
    }

    #[test]
    fn two_arg_function_in_bytecode() {
        let ce = compile("max(x, 0)", &["x"]);
        let x = [-1.0, 2.0];
        assert_eq!(ce.eval_batch(&[&x], &[]).unwrap(), vec![0.0, 2.0]);
    }
}

//! Vectorized bytecode compilation of expressions.
//!
//! Model-backed query answering evaluates one model body over millions of
//! reconstructed rows (the paper's "zero-IO scan" turns an IO-bound scan
//! into a CPU-bound recomputation, Section 4.1). A per-row tree walk with
//! name lookups would dominate that CPU cost, so expressions are compiled
//! once into a flat postfix program whose operands are *slot indices*
//! resolved at compile time, and then executed over column batches with a
//! reusable stack of `Vec<f64>` registers.

use crate::ast::{Expr, Func};
use crate::error::{ExprError, Result};

/// One bytecode instruction. Operands live on an implicit value stack of
/// whole column vectors.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Push a constant, broadcast over the batch.
    Const(f64),
    /// Push the column bound to slot *i* (batched input).
    LoadCol(u16),
    /// Push the scalar bound to slot *i*, broadcast (fitted parameters).
    LoadScalar(u16),
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Neg,
    Call1(Func),
    Call2(Func),
}

/// A compiled expression: postfix program plus the symbol→slot map.
///
/// Symbols are split at compile time into *column* slots (vary per row)
/// and *scalar* slots (constant across the batch — the fitted
/// parameters). The split is supplied by the caller, because only the
/// schema knows which identifiers are columns.
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    ops: Vec<Op>,
    /// Column symbol names in slot order.
    columns: Vec<String>,
    /// Scalar symbol names in slot order.
    scalars: Vec<String>,
    /// Maximum stack depth, pre-computed so execution never reallocates.
    max_depth: usize,
}

impl CompiledExpr {
    /// Compile `expr`, treating the names in `column_syms` as batched
    /// columns and every other symbol as a broadcast scalar.
    pub fn compile(expr: &Expr, column_syms: &[&str]) -> Result<CompiledExpr> {
        let mut columns: Vec<String> = Vec::new();
        let mut scalars: Vec<String> = Vec::new();
        for s in expr.symbols() {
            if column_syms.contains(&s.as_str()) {
                columns.push(s);
            } else {
                scalars.push(s);
            }
        }
        let mut ops = Vec::with_capacity(expr.node_count());
        emit(expr, &columns, &scalars, &mut ops)?;
        let max_depth = stack_depth(&ops);
        Ok(CompiledExpr { ops, columns, scalars, max_depth })
    }

    /// Column symbol names, in the order `eval_batch` expects them.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Scalar symbol names, in the order `eval_batch` expects them.
    pub fn scalars(&self) -> &[String] {
        &self.scalars
    }

    /// Evaluate over a batch.
    ///
    /// `cols[i]` is the data for `self.columns()[i]`; all columns must
    /// share one length. `scalars[i]` is the value for
    /// `self.scalars()[i]`. Returns one output value per row.
    pub fn eval_batch(&self, cols: &[&[f64]], scalars: &[f64]) -> Result<Vec<f64>> {
        let n = self.batch_len(cols, scalars)?;
        let mut stack = ExecStack::new(self.max_depth, n);
        self.run(cols, scalars, n, &mut stack)?;
        Ok(stack.pop_final())
    }

    /// Evaluate into a caller-provided stack, letting hot loops reuse
    /// buffers across calls. Returns the result by value (the top
    /// register is swapped out, not copied).
    pub fn eval_batch_with(
        &self,
        cols: &[&[f64]],
        scalars: &[f64],
        stack: &mut ExecStack,
    ) -> Result<Vec<f64>> {
        let n = self.batch_len(cols, scalars)?;
        stack.reset(self.max_depth, n);
        self.run(cols, scalars, n, stack)?;
        Ok(stack.pop_final())
    }

    fn batch_len(&self, cols: &[&[f64]], scalars: &[f64]) -> Result<usize> {
        if cols.len() != self.columns.len() {
            return Err(ExprError::LengthMismatch {
                expected: self.columns.len(),
                got: cols.len(),
                symbol: "<column count>".to_string(),
            });
        }
        if scalars.len() != self.scalars.len() {
            return Err(ExprError::LengthMismatch {
                expected: self.scalars.len(),
                got: scalars.len(),
                symbol: "<scalar count>".to_string(),
            });
        }
        let n = cols.first().map_or(1, |c| c.len());
        for (i, c) in cols.iter().enumerate() {
            if c.len() != n {
                return Err(ExprError::LengthMismatch {
                    expected: n,
                    got: c.len(),
                    symbol: self.columns[i].clone(),
                });
            }
        }
        Ok(n)
    }

    fn run(&self, cols: &[&[f64]], scalars: &[f64], n: usize, stack: &mut ExecStack) -> Result<()> {
        for op in &self.ops {
            match *op {
                Op::Const(v) => stack.push_fill(v, n),
                Op::LoadScalar(i) => stack.push_fill(scalars[i as usize], n),
                Op::LoadCol(i) => stack.push_copy(cols[i as usize]),
                Op::Add => stack.binary(|a, b| a + b),
                Op::Sub => stack.binary(|a, b| a - b),
                Op::Mul => stack.binary(|a, b| a * b),
                Op::Div => stack.binary(|a, b| a / b),
                Op::Pow => stack.binary(f64::powf),
                Op::Neg => stack.unary(|a| -a),
                Op::Call1(f) => stack.unary(move |a| f.apply(&[a])),
                Op::Call2(f) => stack.binary(move |a, b| f.apply(&[a, b])),
            }
        }
        Ok(())
    }
}

/// Reusable execution stack of column registers.
#[derive(Debug, Default)]
pub struct ExecStack {
    regs: Vec<Vec<f64>>,
    top: usize,
}

impl ExecStack {
    fn new(depth: usize, n: usize) -> ExecStack {
        let mut s = ExecStack::default();
        s.reset(depth, n);
        s
    }

    fn reset(&mut self, depth: usize, n: usize) {
        self.top = 0;
        while self.regs.len() < depth {
            self.regs.push(Vec::new());
        }
        for r in &mut self.regs {
            // Resize up front so push paths are plain writes.
            r.clear();
            r.resize(n, 0.0);
        }
    }

    #[inline]
    fn push_fill(&mut self, v: f64, n: usize) {
        let reg = &mut self.regs[self.top];
        reg.clear();
        reg.resize(n, v);
        self.top += 1;
    }

    #[inline]
    fn push_copy(&mut self, src: &[f64]) {
        let reg = &mut self.regs[self.top];
        reg.clear();
        reg.extend_from_slice(src);
        self.top += 1;
    }

    #[inline]
    fn unary(&mut self, f: impl Fn(f64) -> f64) {
        let reg = &mut self.regs[self.top - 1];
        for v in reg.iter_mut() {
            *v = f(*v);
        }
    }

    #[inline]
    fn binary(&mut self, f: impl Fn(f64, f64) -> f64) {
        // Stack layout: ... a b  →  ... f(a, b)
        let (head, tail) = self.regs.split_at_mut(self.top - 1);
        let a = &mut head[self.top - 2];
        let b = &tail[0];
        for (x, &y) in a.iter_mut().zip(b.iter()) {
            *x = f(*x, y);
        }
        self.top -= 1;
    }

    fn pop_final(&mut self) -> Vec<f64> {
        debug_assert_eq!(self.top, 1, "program must leave exactly one value");
        self.top = 0;
        std::mem::take(&mut self.regs[0])
    }
}

fn emit(expr: &Expr, columns: &[String], scalars: &[String], ops: &mut Vec<Op>) -> Result<()> {
    match expr {
        Expr::Num(v) => ops.push(Op::Const(*v)),
        Expr::Sym(s) => {
            if let Some(i) = columns.iter().position(|c| c == s) {
                ops.push(Op::LoadCol(i as u16));
            } else if let Some(i) = scalars.iter().position(|c| c == s) {
                ops.push(Op::LoadScalar(i as u16));
            } else {
                return Err(ExprError::UnboundSymbol { name: s.clone() });
            }
        }
        Expr::Add(a, b) => {
            emit(a, columns, scalars, ops)?;
            emit(b, columns, scalars, ops)?;
            ops.push(Op::Add);
        }
        Expr::Sub(a, b) => {
            emit(a, columns, scalars, ops)?;
            emit(b, columns, scalars, ops)?;
            ops.push(Op::Sub);
        }
        Expr::Mul(a, b) => {
            emit(a, columns, scalars, ops)?;
            emit(b, columns, scalars, ops)?;
            ops.push(Op::Mul);
        }
        Expr::Div(a, b) => {
            emit(a, columns, scalars, ops)?;
            emit(b, columns, scalars, ops)?;
            ops.push(Op::Div);
        }
        Expr::Pow(a, b) => {
            emit(a, columns, scalars, ops)?;
            emit(b, columns, scalars, ops)?;
            ops.push(Op::Pow);
        }
        Expr::Neg(a) => {
            emit(a, columns, scalars, ops)?;
            ops.push(Op::Neg);
        }
        Expr::Call(f, args) => {
            for a in args {
                emit(a, columns, scalars, ops)?;
            }
            ops.push(if f.arity() == 1 { Op::Call1(*f) } else { Op::Call2(*f) });
        }
    }
    Ok(())
}

/// Compute the maximum stack depth of a postfix program.
fn stack_depth(ops: &[Op]) -> usize {
    let mut depth = 0usize;
    let mut max = 0usize;
    for op in ops {
        match op {
            Op::Const(_) | Op::LoadCol(_) | Op::LoadScalar(_) => {
                depth += 1;
                max = max.max(depth);
            }
            Op::Neg | Op::Call1(_) => {}
            _ => depth -= 1, // all binary ops consume one
        }
    }
    max
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
            let b: Bindings =
                [("p", 2.0), ("alpha", -0.7), ("nu", nu)].into_iter().collect();
            assert!((out[i] - e.eval(&b).unwrap()).abs() < 1e-15);
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
        assert!(matches!(
            ce.eval_batch(&[&a, &b], &[]),
            Err(ExprError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn wrong_scalar_count_is_rejected() {
        let ce = compile("a * k", &["a"]);
        let a = [1.0];
        assert!(ce.eval_batch(&[&a], &[]).is_err());
        assert!(ce.eval_batch(&[&a], &[2.0]).is_ok());
    }

    #[test]
    fn stack_reuse_across_batches() {
        let ce = compile("sin(x) * cos(x)", &["x"]);
        let mut stack = ExecStack::default();
        for n in [1usize, 7, 256] {
            let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.1).collect();
            let out = ce.eval_batch_with(&[&xs], &[], &mut stack).unwrap();
            assert_eq!(out.len(), n);
            for (o, x) in out.iter().zip(&xs) {
                assert!((o - x.sin() * x.cos()).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn deep_expression_has_correct_depth() {
        // ((((1+2)+3)+4)+5) needs depth 2; 1+(2+(3+(4+5))) needs depth 5.
        let left = compile("1+2+3+4+5", &[]);
        assert_eq!(left.max_depth, 2);
        let right = compile("1+(2+(3+(4+5)))", &[]);
        assert_eq!(right.max_depth, 5);
        assert_eq!(left.eval_batch(&[], &[]).unwrap(), vec![15.0]);
        assert_eq!(right.eval_batch(&[], &[]).unwrap(), vec![15.0]);
    }

    #[test]
    fn two_arg_function_in_bytecode() {
        let ce = compile("max(x, 0)", &["x"]);
        let x = [-1.0, 2.0];
        assert_eq!(ce.eval_batch(&[&x], &[]).unwrap(), vec![0.0, 2.0]);
    }
}

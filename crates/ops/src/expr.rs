//! Vectorised expression evaluation over batches.
//!
//! Expressions are evaluated one batch at a time into transient vectors —
//! within a compiled pipeline these play the role of the "registers" JIT
//! code generation keeps intermediate results in (§2.2): they are never
//! materialised across operators.

use std::borrow::Cow;

use hape_storage::table::DataType;
use hape_storage::Batch;

/// A scalar expression over the columns of a batch.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference by index.
    Col(usize),
    /// `i32` literal.
    LitI32(i32),
    /// `i64` literal.
    LitI64(i64),
    /// `f64` literal.
    LitF64(f64),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Equality.
    Eq(Box<Expr>, Box<Expr>),
    /// Less-than.
    Lt(Box<Expr>, Box<Expr>),
    /// Less-or-equal.
    Le(Box<Expr>, Box<Expr>),
    /// Greater-than.
    Gt(Box<Expr>, Box<Expr>),
    /// Greater-or-equal.
    Ge(Box<Expr>, Box<Expr>),
    /// Logical and.
    And(Box<Expr>, Box<Expr>),
    /// Logical or.
    Or(Box<Expr>, Box<Expr>),
}

// The `add`/`sub`/`mul` constructors intentionally mirror the SQL-ish
// builder vocabulary rather than implementing `std::ops` (they take the
// operands by value as plain functions, not methods on self).
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// `a + b`.
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Add(Box::new(a), Box::new(b))
    }

    /// `a - b`.
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Sub(Box::new(a), Box::new(b))
    }

    /// `a * b`.
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Mul(Box::new(a), Box::new(b))
    }

    /// `a == b`.
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::Eq(Box::new(a), Box::new(b))
    }

    /// `a < b`.
    pub fn lt(a: Expr, b: Expr) -> Expr {
        Expr::Lt(Box::new(a), Box::new(b))
    }

    /// `a <= b`.
    pub fn le(a: Expr, b: Expr) -> Expr {
        Expr::Le(Box::new(a), Box::new(b))
    }

    /// `a > b`.
    pub fn gt(a: Expr, b: Expr) -> Expr {
        Expr::Gt(Box::new(a), Box::new(b))
    }

    /// `a >= b`.
    pub fn ge(a: Expr, b: Expr) -> Expr {
        Expr::Ge(Box::new(a), Box::new(b))
    }

    /// `a && b`.
    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::And(Box::new(a), Box::new(b))
    }

    /// `a || b`.
    pub fn or(a: Expr, b: Expr) -> Expr {
        Expr::Or(Box::new(a), Box::new(b))
    }

    /// Approximate arithmetic operations per row (for cost charging).
    pub fn ops_per_row(&self) -> f64 {
        match self {
            Expr::Col(_) | Expr::LitI32(_) | Expr::LitI64(_) | Expr::LitF64(_) => 0.25,
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Eq(a, b)
            | Expr::Lt(a, b)
            | Expr::Le(a, b)
            | Expr::Gt(a, b)
            | Expr::Ge(a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b) => 1.0 + a.ops_per_row() + b.ops_per_row(),
        }
    }

    /// Column indices referenced by this expression.
    pub fn columns_used(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        self.collect_columns(&mut cols);
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// The [`ExprValue`] arm [`eval`] produces — or the operand `eval` would
    /// panic on instead. Every logical type reads as a number (strings as
    /// their dictionary codes), so no column's type decides the kind.
    pub fn kind(&self) -> Result<ExprKind, KindMismatch> {
        use ExprKind::{Bool, Num};
        let (a, b, expected, kind) = match self {
            Expr::Col(_) | Expr::LitI32(_) | Expr::LitI64(_) | Expr::LitF64(_) => {
                return Ok(Num)
            }
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => (a, b, Num, Num),
            Expr::Eq(a, b)
            | Expr::Lt(a, b)
            | Expr::Le(a, b)
            | Expr::Gt(a, b)
            | Expr::Ge(a, b) => (a, b, Num, Bool),
            Expr::And(a, b) | Expr::Or(a, b) => (a, b, Bool, Bool),
        };
        for side in [a, b] {
            let found = side.kind()?;
            if found != expected {
                return Err(KindMismatch { expected, found });
            }
        }
        Ok(kind)
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => out.push(*i),
            Expr::LitI32(_) | Expr::LitI64(_) | Expr::LitF64(_) => {}
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Eq(a, b)
            | Expr::Lt(a, b)
            | Expr::Le(a, b)
            | Expr::Gt(a, b)
            | Expr::Ge(a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
        }
    }
}

/// Which [`ExprValue`] arm an expression evaluates to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExprKind {
    /// [`ExprValue::F64`]: columns, literals, arithmetic.
    Num,
    /// [`ExprValue::Bool`]: comparisons and logic.
    Bool,
}

/// An operand of the wrong kind ([`Expr::kind`]): arithmetic and
/// comparisons take numbers, `and`/`or` take booleans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindMismatch {
    /// What the operator takes.
    pub expected: ExprKind,
    /// What the operand evaluates to.
    pub found: ExprKind,
}

/// A scalar expression over *named* columns — what the logical query
/// builder accepts before lowering.
///
/// Built with [`col`] / [`lit`] and the combinator methods, then resolved
/// against a visible column set into a positional [`Expr`] by
/// [`NamedExpr::resolve`]. String literals are legal only as the direct
/// operand of a comparison against a column; the resolver translates them
/// into dictionary codes (or a never-matching sentinel when the value is
/// absent from the dictionary, mirroring SQL semantics).
#[derive(Debug, Clone, PartialEq)]
pub enum NamedExpr {
    /// Column reference by name.
    Col(String),
    /// `i32` literal.
    LitI32(i32),
    /// `i64` literal.
    LitI64(i64),
    /// `f64` literal.
    LitF64(f64),
    /// String literal (resolved to a dictionary code).
    LitStr(String),
    /// Addition.
    Add(Box<NamedExpr>, Box<NamedExpr>),
    /// Subtraction.
    Sub(Box<NamedExpr>, Box<NamedExpr>),
    /// Multiplication.
    Mul(Box<NamedExpr>, Box<NamedExpr>),
    /// Equality.
    Eq(Box<NamedExpr>, Box<NamedExpr>),
    /// Less-than.
    Lt(Box<NamedExpr>, Box<NamedExpr>),
    /// Less-or-equal.
    Le(Box<NamedExpr>, Box<NamedExpr>),
    /// Greater-than.
    Gt(Box<NamedExpr>, Box<NamedExpr>),
    /// Greater-or-equal.
    Ge(Box<NamedExpr>, Box<NamedExpr>),
    /// Logical and.
    And(Box<NamedExpr>, Box<NamedExpr>),
    /// Logical or.
    Or(Box<NamedExpr>, Box<NamedExpr>),
}

/// A named column reference: `col("l_shipdate")`.
pub fn col(name: impl Into<String>) -> NamedExpr {
    NamedExpr::Col(name.into())
}

/// A literal: `lit(42)`, `lit(0.05)`, `lit("ASIA")`.
pub fn lit(value: impl Into<NamedExpr>) -> NamedExpr {
    value.into()
}

impl From<i32> for NamedExpr {
    fn from(v: i32) -> Self {
        NamedExpr::LitI32(v)
    }
}

impl From<i64> for NamedExpr {
    fn from(v: i64) -> Self {
        NamedExpr::LitI64(v)
    }
}

impl From<f64> for NamedExpr {
    fn from(v: f64) -> Self {
        NamedExpr::LitF64(v)
    }
}

impl From<&str> for NamedExpr {
    fn from(v: &str) -> Self {
        NamedExpr::LitStr(v.to_string())
    }
}

impl From<String> for NamedExpr {
    fn from(v: String) -> Self {
        NamedExpr::LitStr(v)
    }
}

macro_rules! named_binop {
    ($(#[$doc:meta] $fn_name:ident => $variant:ident),* $(,)?) => {$(
        #[$doc]
        pub fn $fn_name(self, rhs: impl Into<NamedExpr>) -> NamedExpr {
            NamedExpr::$variant(Box::new(self), Box::new(rhs.into()))
        }
    )*};
}

// `add`/`sub`/`mul` are the query-builder vocabulary (`col("a").add(lit(1))`),
// deliberately consuming `impl Into<NamedExpr>` rather than the std::ops
// signatures.
#[allow(clippy::should_implement_trait)]
impl NamedExpr {
    named_binop! {
        /// `self + rhs`.
        add => Add,
        /// `self - rhs`.
        sub => Sub,
        /// `self * rhs`.
        mul => Mul,
        /// `self == rhs`.
        eq => Eq,
        /// `self < rhs`.
        lt => Lt,
        /// `self <= rhs`.
        le => Le,
        /// `self > rhs`.
        gt => Gt,
        /// `self >= rhs`.
        ge => Ge,
        /// `self && rhs`.
        and => And,
        /// `self || rhs`.
        or => Or,
    }

    /// `lo <= self < hi` — the half-open range filter every date predicate
    /// in TPC-H uses.
    pub fn between(self, lo: impl Into<NamedExpr>, hi: impl Into<NamedExpr>) -> NamedExpr {
        let lo_cmp = self.clone().ge(lo);
        let hi_cmp = self.lt(hi);
        lo_cmp.and(hi_cmp)
    }

    /// Column names referenced by this expression (deduplicated, sorted).
    pub fn columns_used(&self) -> Vec<String> {
        let mut cols = Vec::new();
        self.collect_named_columns(&mut cols);
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    fn collect_named_columns(&self, out: &mut Vec<String>) {
        match self {
            NamedExpr::Col(n) => out.push(n.clone()),
            NamedExpr::LitI32(_)
            | NamedExpr::LitI64(_)
            | NamedExpr::LitF64(_)
            | NamedExpr::LitStr(_) => {}
            NamedExpr::Add(a, b)
            | NamedExpr::Sub(a, b)
            | NamedExpr::Mul(a, b)
            | NamedExpr::Eq(a, b)
            | NamedExpr::Lt(a, b)
            | NamedExpr::Le(a, b)
            | NamedExpr::Gt(a, b)
            | NamedExpr::Ge(a, b)
            | NamedExpr::And(a, b)
            | NamedExpr::Or(a, b) => {
                a.collect_named_columns(out);
                b.collect_named_columns(out);
            }
        }
    }

    /// Resolve names into positions, producing a positional [`Expr`].
    ///
    /// String literals are resolved through the comparison they appear in:
    /// `col("r_name").eq(lit("ASIA"))` becomes an integer comparison on the
    /// column's dictionary code.
    pub fn resolve<R: ColumnResolver>(&self, r: &R) -> Result<Expr, ResolveError> {
        match self {
            NamedExpr::Col(n) => Ok(Expr::Col(self.resolve_col(n, r)?)),
            NamedExpr::LitI32(v) => Ok(Expr::LitI32(*v)),
            NamedExpr::LitI64(v) => Ok(Expr::LitI64(*v)),
            NamedExpr::LitF64(v) => Ok(Expr::LitF64(*v)),
            NamedExpr::LitStr(s) => {
                Err(ResolveError::StringLiteralContext { literal: s.clone() })
            }
            NamedExpr::Add(a, b) => Ok(Expr::add(a.resolve(r)?, b.resolve(r)?)),
            NamedExpr::Sub(a, b) => Ok(Expr::sub(a.resolve(r)?, b.resolve(r)?)),
            NamedExpr::Mul(a, b) => Ok(Expr::mul(a.resolve(r)?, b.resolve(r)?)),
            NamedExpr::Eq(a, b) => self.resolve_cmp(a, b, r, Expr::eq),
            NamedExpr::Lt(a, b) => self.resolve_cmp(a, b, r, Expr::lt),
            NamedExpr::Le(a, b) => self.resolve_cmp(a, b, r, Expr::le),
            NamedExpr::Gt(a, b) => self.resolve_cmp(a, b, r, Expr::gt),
            NamedExpr::Ge(a, b) => self.resolve_cmp(a, b, r, Expr::ge),
            NamedExpr::And(a, b) => Ok(Expr::and(a.resolve(r)?, b.resolve(r)?)),
            NamedExpr::Or(a, b) => Ok(Expr::or(a.resolve(r)?, b.resolve(r)?)),
        }
    }

    fn resolve_col<R: ColumnResolver>(&self, name: &str, r: &R) -> Result<usize, ResolveError> {
        r.index_of(name).ok_or_else(|| ResolveError::UnknownColumn { column: name.to_string() })
    }

    /// Resolve a comparison, translating a string-literal operand against
    /// the column on the other side.
    fn resolve_cmp<R: ColumnResolver>(
        &self,
        a: &NamedExpr,
        b: &NamedExpr,
        r: &R,
        build: fn(Expr, Expr) -> Expr,
    ) -> Result<Expr, ResolveError> {
        match (a, b) {
            (NamedExpr::Col(c), NamedExpr::LitStr(s)) => {
                let idx = self.resolve_col(c, r)?;
                Ok(build(Expr::Col(idx), Expr::LitI32(r.str_code(c, s)?)))
            }
            (NamedExpr::LitStr(s), NamedExpr::Col(c)) => {
                let idx = self.resolve_col(c, r)?;
                Ok(build(Expr::LitI32(r.str_code(c, s)?), Expr::Col(idx)))
            }
            _ => Ok(build(a.resolve(r)?, b.resolve(r)?)),
        }
    }
}

/// What [`NamedExpr::resolve`] needs from the surrounding scope.
pub trait ColumnResolver {
    /// Positional index of a visible column, if any.
    fn index_of(&self, name: &str) -> Option<usize>;

    /// Dictionary code of `value` in string column `name`. Implementations
    /// return a never-matching sentinel (e.g. `-1`) when `value` is not in
    /// the dictionary, and an error when the column is not a string column.
    fn str_code(&self, name: &str, value: &str) -> Result<i32, ResolveError>;
}

/// Why a [`NamedExpr`] failed to resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// The name is not visible in the current scope.
    UnknownColumn {
        /// The unresolved name.
        column: String,
    },
    /// A string literal appeared outside a direct column comparison.
    StringLiteralContext {
        /// The literal.
        literal: String,
    },
    /// A string literal was compared against a non-string column.
    StringLiteralType {
        /// The literal.
        literal: String,
        /// The non-string column.
        column: String,
    },
}

/// Result of evaluating an expression over a batch.
///
/// The numeric arm borrows the Arc-backed column storage whenever the
/// expression is a direct reference to an `f64` column — the hot
/// aggregate-argument and projection paths never copy those values; only
/// genuinely computed results own their vector.
#[derive(Debug, Clone)]
pub enum ExprValue<'a> {
    /// Numeric values (all arithmetic is carried out in `f64`; exact-integer
    /// paths matter only for key columns, which operators read directly).
    /// Borrowed when the expression is a bare `f64` column reference.
    F64(Cow<'a, [f64]>),
    /// Boolean vector (predicates).
    Bool(Vec<bool>),
}

impl<'a> ExprValue<'a> {
    /// The numeric values; panics on booleans.
    pub fn as_f64(&self) -> &[f64] {
        match self {
            ExprValue::F64(v) => v,
            // Invariant: hape_core's binding walk (`plan::bind`) refuses a plan that reads one.
            ExprValue::Bool(_) => panic!("expected numeric expression, got boolean"),
        }
    }

    /// The boolean vector; panics on numerics.
    pub fn as_bool(&self) -> &[bool] {
        match self {
            ExprValue::Bool(v) => v,
            // Invariant: a plan's `and`/`or` operands are boolean (`Expr::kind`, binding walk).
            ExprValue::F64(_) => panic!("expected boolean expression, got numeric"),
        }
    }

    /// The numeric values as a possibly-borrowed slice; panics on booleans.
    pub fn into_f64(self) -> Cow<'a, [f64]> {
        match self {
            ExprValue::F64(v) => v,
            // Invariant: a plan's numeric positions hold numbers (`Expr::kind`, binding walk).
            ExprValue::Bool(_) => panic!("expected numeric expression, got boolean"),
        }
    }
}

fn column_as_f64(batch: &Batch, i: usize) -> Cow<'_, [f64]> {
    let c = batch.col(i);
    match c.data_type() {
        DataType::I32 | DataType::Date => {
            Cow::Owned(c.as_i32().iter().map(|&v| v as f64).collect())
        }
        DataType::I64 => Cow::Owned(c.as_i64().iter().map(|&v| v as f64).collect()),
        DataType::F64 => Cow::Borrowed(c.as_f64()),
        DataType::Str => Cow::Owned(c.as_codes().iter().map(|&v| v as f64).collect()),
    }
}

/// Evaluate `expr` over `batch`.
pub fn eval<'a>(expr: &Expr, batch: &'a Batch) -> ExprValue<'a> {
    eval_memo(expr, batch, &[])
}

/// Evaluate several numeric expressions over one batch, each distinct
/// expression once: the returned indices map every `Some` entry of `exprs`
/// to its values (`None` entries are skipped). An expression that recurs
/// as an operand inside a later one — Q1's `disc_price` inside `charge` —
/// is reused there too rather than recomputed.
pub(crate) fn eval_distinct<'a>(
    exprs: &[Option<&Expr>],
    batch: &'a Batch,
) -> (Vec<Cow<'a, [f64]>>, Vec<Option<usize>>) {
    let mut done: Vec<&Expr> = Vec::new();
    let mut vals: Vec<Cow<'a, [f64]>> = Vec::new();
    let mut index = Vec::with_capacity(exprs.len());
    for expr in exprs {
        index.push(expr.map(|e| {
            done.iter().position(|d| same_expr(d, e)).unwrap_or_else(|| {
                let memo: Vec<(&Expr, &[f64])> =
                    done.iter().copied().zip(vals.iter().map(|v| &**v)).collect();
                let v = eval_memo(e, batch, &memo).into_f64();
                done.push(e);
                vals.push(v);
                vals.len() - 1
            })
        }));
    }
    (vals, index)
}

/// Whether two expressions evaluate to the same bits, so one may stand in
/// for the other. Float literals compare by bit pattern: the derived
/// `PartialEq` equates `0.0` and `-0.0`, which `x * lit` tells apart.
fn same_expr(a: &Expr, b: &Expr) -> bool {
    use Expr::*;
    match (a, b) {
        (LitF64(x), LitF64(y)) => x.to_bits() == y.to_bits(),
        (Add(a1, a2), Add(b1, b2))
        | (Sub(a1, a2), Sub(b1, b2))
        | (Mul(a1, a2), Mul(b1, b2))
        | (Eq(a1, a2), Eq(b1, b2))
        | (Lt(a1, a2), Lt(b1, b2))
        | (Le(a1, a2), Le(b1, b2))
        | (Gt(a1, a2), Gt(b1, b2))
        | (Ge(a1, a2), Ge(b1, b2))
        | (And(a1, a2), And(b1, b2))
        | (Or(a1, a2), Or(b1, b2)) => same_expr(a1, b1) && same_expr(a2, b2),
        // Remaining leaves, and nodes of different kinds.
        (Col(_) | LitI32(_) | LitI64(_), _) => a == b,
        _ => false,
    }
}

/// [`eval`] with a memo of already-evaluated expressions an operand may
/// borrow instead of recomputing.
fn eval_memo<'a>(expr: &Expr, batch: &'a Batch, memo: &[(&Expr, &[f64])]) -> ExprValue<'a> {
    let n = batch.rows();
    let num = |vals: Vec<f64>| ExprValue::F64(Cow::Owned(vals));
    match expr {
        Expr::Col(i) => ExprValue::F64(column_as_f64(batch, *i)),
        Expr::LitI32(v) => num(vec![*v as f64; n]),
        Expr::LitI64(v) => num(vec![*v as f64; n]),
        Expr::LitF64(v) => num(vec![*v; n]),
        Expr::Add(a, b) => num(zip_with(a, b, batch, memo, |x, y| x + y)),
        Expr::Sub(a, b) => num(zip_with(a, b, batch, memo, |x, y| x - y)),
        Expr::Mul(a, b) => num(zip_with(a, b, batch, memo, |x, y| x * y)),
        Expr::Eq(a, b) => ExprValue::Bool(zip_with(a, b, batch, memo, |x, y| x == y)),
        Expr::Lt(a, b) => ExprValue::Bool(zip_with(a, b, batch, memo, |x, y| x < y)),
        Expr::Le(a, b) => ExprValue::Bool(zip_with(a, b, batch, memo, |x, y| x <= y)),
        Expr::Gt(a, b) => ExprValue::Bool(zip_with(a, b, batch, memo, |x, y| x > y)),
        Expr::Ge(a, b) => ExprValue::Bool(zip_with(a, b, batch, memo, |x, y| x >= y)),
        Expr::And(a, b) => binary_bool(a, b, batch, memo, |x, y| x && y),
        Expr::Or(a, b) => binary_bool(a, b, batch, memo, |x, y| x || y),
    }
}

/// A numeric operand of a binary node: literals stay scalar, so the node
/// runs one scalar loop instead of materialising `vec![lit; n]`.
enum Operand<'x> {
    Lit(f64),
    Vals(Cow<'x, [f64]>),
}

fn operand<'x>(expr: &Expr, batch: &'x Batch, memo: &[(&Expr, &'x [f64])]) -> Operand<'x> {
    match expr {
        Expr::LitI32(v) => Operand::Lit(*v as f64),
        Expr::LitI64(v) => Operand::Lit(*v as f64),
        Expr::LitF64(v) => Operand::Lit(*v),
        _ => match memo.iter().find(|(e, _)| same_expr(e, expr)) {
            Some((_, vals)) => Operand::Vals(Cow::Borrowed(vals)),
            None => Operand::Vals(eval_memo(expr, batch, memo).into_f64()),
        },
    }
}

/// `f` over the rows of two numeric operands, in operand order.
fn zip_with<T: Clone>(
    a: &Expr,
    b: &Expr,
    batch: &Batch,
    memo: &[(&Expr, &[f64])],
    f: impl Fn(f64, f64) -> T,
) -> Vec<T> {
    match (operand(a, batch, memo), operand(b, batch, memo)) {
        (Operand::Vals(va), Operand::Vals(vb)) => {
            va.iter().zip(vb.iter()).map(|(&x, &y)| f(x, y)).collect()
        }
        (Operand::Vals(va), Operand::Lit(y)) => va.iter().map(|&x| f(x, y)).collect(),
        (Operand::Lit(x), Operand::Vals(vb)) => vb.iter().map(|&y| f(x, y)).collect(),
        (Operand::Lit(x), Operand::Lit(y)) => vec![f(x, y); batch.rows()],
    }
}

fn binary_bool<'a>(
    a: &Expr,
    b: &Expr,
    batch: &Batch,
    memo: &[(&Expr, &[f64])],
    f: impl Fn(bool, bool) -> bool,
) -> ExprValue<'a> {
    let va = eval_memo(a, batch, memo);
    let vb = eval_memo(b, batch, memo);
    let (va, vb) = (va.as_bool(), vb.as_bool());
    ExprValue::Bool(va.iter().zip(vb).map(|(&x, &y)| f(x, y)).collect())
}

/// Evaluate a predicate into a boolean vector.
pub fn eval_bool(expr: &Expr, batch: &Batch) -> Vec<bool> {
    match eval(expr, batch) {
        ExprValue::Bool(v) => v,
        // Invariant: a plan's filters are boolean — the binding walk refuses the rest.
        ExprValue::F64(_) => panic!("predicate does not evaluate to boolean"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hape_storage::Column;

    fn batch() -> Batch {
        Batch::new(vec![
            Column::from_i32(vec![1, 2, 3, 4]),
            Column::from_f64(vec![10.0, 20.0, 30.0, 40.0]),
        ])
    }

    #[test]
    fn arithmetic() {
        // col1 * (1 - col0) — the Q1 `extendedprice * (1 - discount)` shape.
        let e = Expr::mul(Expr::col(1), Expr::sub(Expr::LitF64(1.0), Expr::col(0)));
        let b = batch();
        let v = eval(&e, &b);
        assert_eq!(v.as_f64(), &[0.0, -20.0, -60.0, -120.0]);
    }

    #[test]
    fn comparisons_and_logic() {
        let e = Expr::and(
            Expr::ge(Expr::col(0), Expr::LitI32(2)),
            Expr::lt(Expr::col(1), Expr::LitF64(40.0)),
        );
        assert_eq!(eval_bool(&e, &batch()), vec![false, true, true, false]);
    }

    #[test]
    fn ops_per_row_counts_nodes() {
        let e = Expr::mul(Expr::col(1), Expr::sub(Expr::LitF64(1.0), Expr::col(0)));
        assert!(e.ops_per_row() > 2.0);
        assert!(Expr::col(0).ops_per_row() < 1.0);
    }

    #[test]
    fn f64_column_reference_borrows_the_storage() {
        // The hot aggregate-argument path: a bare `f64` column reference
        // must evaluate to a borrow of the Arc-backed slice, not a copy.
        let b = batch();
        match eval(&Expr::col(1), &b) {
            ExprValue::F64(Cow::Borrowed(s)) => {
                assert_eq!(s.as_ptr(), b.col(1).as_f64().as_ptr());
            }
            other => panic!("expected a borrowed slice, got {other:?}"),
        }
        // Computed expressions still own their result.
        match eval(&Expr::add(Expr::col(1), Expr::LitF64(0.0)), &b) {
            ExprValue::F64(Cow::Owned(_)) => {}
            other => panic!("expected an owned vector, got {other:?}"),
        }
    }

    fn f64_bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn literal_operands_evaluate_as_scalars_on_either_side() {
        let b = batch();
        let (x, one) = (Expr::col(1), Expr::LitF64(1.0));
        // Sub is not commutative: `1 - x` must not become `x - 1`.
        assert_eq!(
            eval(&Expr::sub(one.clone(), x.clone()), &b).as_f64(),
            &[-9.0, -19.0, -29.0, -39.0]
        );
        assert_eq!(eval(&Expr::sub(x.clone(), one), &b).as_f64(), &[9.0, 19.0, 29.0, 39.0]);
        assert_eq!(eval(&Expr::sub(Expr::LitI32(3), Expr::LitI64(5)), &b).as_f64(), &[-2.0; 4]);
        // A bare literal still materialises one value per row.
        assert_eq!(eval(&Expr::LitI64(7), &b).as_f64(), &[7.0; 4]);
        // Comparisons keep operand order with the literal on the left.
        let twenty = Expr::LitF64(20.0);
        assert_eq!(
            eval_bool(&Expr::lt(twenty.clone(), x.clone()), &b),
            [false, false, true, true]
        );
        assert_eq!(
            eval_bool(&Expr::ge(twenty.clone(), x.clone()), &b),
            [true, true, false, false]
        );
        assert_eq!(eval_bool(&Expr::ge(x, twenty), &b), [false, true, true, true]);
        assert_eq!(eval_bool(&Expr::lt(Expr::LitI32(1), Expr::LitI32(2)), &b), [true; 4]);
    }

    #[test]
    fn scalar_loops_round_like_the_materialised_literal() {
        // The scalar path must be the same IEEE operation per row as the
        // `vec![lit; n]` path it replaced, not an algebraic rewrite.
        let xs = vec![0.1, 1e16, -3.3e-9, 2.5];
        let b = Batch::new(vec![Column::from_f64(xs.clone())]);
        let lit = 0.3;
        let e = Expr::mul(Expr::sub(Expr::LitF64(lit), Expr::col(0)), Expr::LitF64(lit));
        let want: Vec<f64> = xs.iter().map(|&x| (lit - x) * lit).collect();
        assert_eq!(f64_bits(eval(&e, &b).as_f64()), f64_bits(&want));
    }

    #[test]
    fn repeated_arguments_are_evaluated_once_with_the_same_bits() {
        // Q1's shape: disc_price, charge = disc_price * (1 + tax), and
        // disc_price again; a skipped (count) slot in between.
        let b = Batch::new(vec![
            Column::from_f64(vec![901.5, 33.25, 1e7]),
            Column::from_f64(vec![0.05, 0.1, 0.07]),
        ]);
        let disc_price = Expr::mul(Expr::col(0), Expr::sub(Expr::LitF64(1.0), Expr::col(1)));
        let charge = Expr::mul(disc_price.clone(), Expr::add(Expr::LitF64(1.0), Expr::col(1)));
        let exprs = [Some(&disc_price), None, Some(&charge), Some(&disc_price), Some(&charge)];
        let (vals, index) = eval_distinct(&exprs, &b);
        assert_eq!(index, [Some(0), None, Some(1), Some(0), Some(1)]);
        assert_eq!(vals.len(), 2);
        assert_eq!(f64_bits(&vals[0]), f64_bits(eval(&disc_price, &b).as_f64()));
        assert_eq!(f64_bits(&vals[1]), f64_bits(eval(&charge, &b).as_f64()));

        // The operand of `charge` that equals an evaluated expression is
        // borrowed from the memo, not recomputed: plant a sentinel there.
        let sentinel = [2.0, 4.0, 8.0];
        let memo = [(&disc_price, &sentinel[..])];
        match operand(&disc_price, &b, &memo) {
            Operand::Vals(Cow::Borrowed(v)) => assert_eq!(v.as_ptr(), sentinel.as_ptr()),
            _ => panic!("memo hit must borrow the memoised values"),
        }
        let from_memo = eval_memo(&charge, &b, &memo).into_f64();
        assert_eq!(&from_memo[..], &[2.0 * 1.05, 4.0 * 1.1, 8.0 * 1.07]);

        // Literals that differ only in the sign of zero are `==` but fold
        // different bits (`x * 0.0` vs `x * -0.0`): not the same argument,
        // neither at the top level nor as an operand.
        let times = |z: f64| Expr::mul(Expr::col(0), Expr::LitF64(z));
        let (pos, neg) = (times(0.0), times(-0.0));
        assert_eq!(pos, neg);
        let nested = Expr::add(neg.clone(), Expr::LitF64(-0.0));
        let (vals, index) = eval_distinct(&[Some(&pos), Some(&neg), Some(&nested)], &b);
        assert_eq!(index, [Some(0), Some(1), Some(2)]);
        assert_eq!(f64_bits(&vals[0]), [0.0f64.to_bits(); 3]);
        assert_eq!(f64_bits(&vals[1]), [(-0.0f64).to_bits(); 3]);
        assert_eq!(f64_bits(&vals[2]), [(-0.0f64).to_bits(); 3]);
    }

    #[test]
    fn columns_used_deduplicates() {
        let e = Expr::add(Expr::col(1), Expr::mul(Expr::col(0), Expr::col(1)));
        assert_eq!(e.columns_used(), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "boolean")]
    fn type_confusion_panics() {
        let e = Expr::add(Expr::col(0), Expr::col(1));
        eval_bool(&e, &batch());
    }

    #[test]
    fn kind_is_the_arm_eval_produces_and_refuses_what_eval_panics_on() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let b = batch();
        let (x, one, twenty) = (Expr::col(1), Expr::LitF64(1.0), Expr::LitF64(20.0));
        let disc_price = Expr::mul(Expr::col(0), Expr::sub(one.clone(), Expr::col(1)));
        // Every shape the tests above evaluate.
        let shapes = [
            Expr::mul(Expr::col(1), Expr::sub(one.clone(), Expr::col(0))),
            Expr::and(
                Expr::ge(Expr::col(0), Expr::LitI32(2)),
                Expr::lt(Expr::col(1), Expr::LitF64(40.0)),
            ),
            x.clone(),
            Expr::add(x.clone(), Expr::LitF64(0.0)),
            Expr::sub(Expr::LitI32(3), Expr::LitI64(5)),
            Expr::LitI64(7),
            Expr::lt(twenty.clone(), x.clone()),
            Expr::ge(x.clone(), twenty),
            Expr::lt(Expr::LitI32(1), Expr::LitI32(2)),
            Expr::mul(disc_price.clone(), Expr::add(one, Expr::col(1))),
            Expr::add(Expr::mul(Expr::col(0), Expr::LitF64(-0.0)), Expr::LitF64(-0.0)),
            Expr::add(Expr::col(1), Expr::mul(Expr::col(0), Expr::col(1))),
            Expr::or(Expr::eq(Expr::col(0), Expr::LitI32(1)), Expr::le(x.clone(), disc_price)),
        ];
        for e in &shapes {
            let arm = match eval(e, &b) {
                ExprValue::F64(_) => ExprKind::Num,
                ExprValue::Bool(_) => ExprKind::Bool,
            };
            assert_eq!(e.kind(), Ok(arm), "{e:?}");
        }

        // The four kind `panic!`s, each with a shape that reaches it — and
        // `kind` naming the mismatch instead.
        let (num, boolean) = (Expr::add(Expr::col(0), Expr::col(1)), Expr::lt(x.clone(), x));
        let panics = |f: &dyn Fn()| catch_unwind(AssertUnwindSafe(f)).is_err();
        // `eval_bool` over a numeric predicate; `as_f64` over a boolean.
        assert!(panics(&|| drop(eval_bool(&num, &b))));
        assert_eq!(num.kind(), Ok(ExprKind::Num));
        assert!(panics(&|| drop(eval(&boolean, &b).as_f64().to_vec())));
        assert_eq!(boolean.kind(), Ok(ExprKind::Bool));
        // `as_bool` over a numeric operand of `and` / `or`.
        let mixed = Expr::and(Expr::col(0), boolean.clone());
        assert!(panics(&|| drop(eval(&mixed, &b))));
        let (expected, found) = (ExprKind::Bool, ExprKind::Num);
        assert_eq!(mixed.kind(), Err(KindMismatch { expected, found }));
        // `into_f64` over a boolean operand of arithmetic or a comparison.
        let (expected, found) = (ExprKind::Num, ExprKind::Bool);
        for mixed in [Expr::mul(boolean.clone(), num.clone()), Expr::eq(num, boolean)] {
            assert!(panics(&|| drop(eval(&mixed, &b))));
            assert_eq!(mixed.kind(), Err(KindMismatch { expected, found }));
        }
    }

    /// Toy scope: `a` at 0 (numeric), `region` at 1 (strings ASIA=7).
    struct ToyScope;

    impl ColumnResolver for ToyScope {
        fn index_of(&self, name: &str) -> Option<usize> {
            match name {
                "a" => Some(0),
                "region" => Some(1),
                _ => None,
            }
        }

        fn str_code(&self, name: &str, value: &str) -> Result<i32, ResolveError> {
            if name != "region" {
                return Err(ResolveError::StringLiteralType {
                    literal: value.to_string(),
                    column: name.to_string(),
                });
            }
            Ok(if value == "ASIA" { 7 } else { -1 })
        }
    }

    #[test]
    fn named_exprs_resolve_to_positions() {
        let e = col("a").mul(lit(2.0)).resolve(&ToyScope).unwrap();
        let b = batch();
        let v = eval(&e, &b);
        assert_eq!(v.as_f64(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn named_unknown_column_reported() {
        let err = col("missing").le(lit(3)).resolve(&ToyScope).unwrap_err();
        assert_eq!(err, ResolveError::UnknownColumn { column: "missing".into() });
    }

    #[test]
    fn string_literal_becomes_dictionary_code() {
        let e = col("region").eq(lit("ASIA")).resolve(&ToyScope).unwrap();
        assert_eq!(e.columns_used(), vec![1]);
        // And an absent value resolves to the never-matching sentinel.
        let e = col("region").eq(lit("ATLANTIS")).resolve(&ToyScope).unwrap();
        match e {
            Expr::Eq(_, rhs) => assert_eq!(*rhs, Expr::LitI32(-1)),
            other => panic!("unexpected shape {other:?}"),
        }
    }

    #[test]
    fn string_literal_against_numeric_column_rejected() {
        let err = col("a").eq(lit("ASIA")).resolve(&ToyScope).unwrap_err();
        assert!(matches!(err, ResolveError::StringLiteralType { .. }));
    }

    #[test]
    fn stray_string_literal_rejected() {
        let err = col("a").add(lit("ASIA")).resolve(&ToyScope).unwrap_err();
        assert!(matches!(err, ResolveError::StringLiteralContext { .. }));
    }

    #[test]
    fn between_expands_to_half_open_range() {
        let e = col("a").between(lit(2), lit(4)).resolve(&ToyScope).unwrap();
        assert_eq!(eval_bool(&e, &batch()), vec![false, true, true, false]);
    }

    #[test]
    fn named_columns_used_deduplicates() {
        let e = col("a").add(col("region").mul(col("a")));
        assert_eq!(e.columns_used(), vec!["a".to_string(), "region".to_string()]);
    }
}

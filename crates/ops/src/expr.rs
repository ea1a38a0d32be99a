//! Vectorised expression evaluation over batches.
//!
//! Expressions are evaluated one batch at a time into transient vectors —
//! within a compiled pipeline these play the role of the "registers" JIT
//! code generation keeps intermediate results in (§2.2): they are never
//! materialised across operators. [`eval`] walks the tree per call; the
//! filter kernel [`select`] reads columns typed; a [`Program`] compiles a
//! stage's numeric expressions once into typed block ops over a per-thread
//! register file — what the aggregation and the §5 stage's pre-evaluated
//! arguments run, with [`eval`] as its oracle.

use std::borrow::Cow;
use std::cell::Cell;

use hape_storage::table::DataType;
use hape_storage::{Batch, Column};

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

    /// Whether the expression reads column `i`.
    fn reads(&self, i: usize) -> bool {
        match self {
            Expr::Col(c) => *c == i,
            Expr::LitI32(_) | Expr::LitI64(_) | Expr::LitF64(_) => false,
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Eq(a, b)
            | Expr::Lt(a, b)
            | Expr::Le(a, b)
            | Expr::Gt(a, b)
            | Expr::Ge(a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b) => a.reads(i) || b.reads(i),
        }
    }

    /// Bytes per row of the columns the expression reads out of a schema
    /// of column `widths`, each counted once: the widths of
    /// [`Expr::columns_used`], without collecting them.
    pub fn row_bytes(&self, widths: &[u64]) -> u64 {
        let widths = widths.iter().enumerate();
        widths.filter(|&(i, _)| self.reads(i)).map(|(_, w)| w).sum()
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

/// An element of a physical column, widened to `f64` the one way every
/// evaluation path widens it (`as`: exact for `i32`, dates and codes,
/// rounding to nearest for `i64` beyond 2^53).
trait Widen: Copy {
    fn widen(self) -> f64;
}

macro_rules! widen_as_f64 {
    ($($t:ty),*) => {$(
        impl Widen for $t {
            fn widen(self) -> f64 {
                self as f64
            }
        }
    )*};
}

widen_as_f64!(i32, i64, u32);

impl Widen for f64 {
    fn widen(self) -> f64 {
        self
    }
}

/// Evaluate `$body` with `$v` bound to the typed slice behind column
/// `$col`: one monomorphised copy of the body per physical type.
macro_rules! typed {
    ($col:expr, $v:ident => $body:expr) => {{
        let col = $col;
        match col.data_type() {
            DataType::I32 | DataType::Date => {
                let $v = col.as_i32();
                $body
            }
            DataType::I64 => {
                let $v = col.as_i64();
                $body
            }
            DataType::F64 => {
                let $v = col.as_f64();
                $body
            }
            DataType::Str => {
                let $v = col.as_codes();
                $body
            }
        }
    }};
}

/// The rows `sel` selects of `col` (all of them when `None`), gathered and
/// widened to `f64` in one pass. An unselected `f64` column is borrowed.
fn gather_f64<'a>(col: &'a Column, sel: Option<&[u32]>) -> Cow<'a, [f64]> {
    match (col.data_type(), sel) {
        (DataType::F64, None) => Cow::Borrowed(col.as_f64()),
        (_, None) => Cow::Owned(typed!(col, v => v.iter().map(|x| x.widen()).collect())),
        (_, Some(sel)) => {
            Cow::Owned(typed!(col, v => sel.iter().map(|&r| v[r as usize].widen()).collect()))
        }
    }
}

/// Evaluate `expr` over the rows of `batch` (its selected rows, when it
/// carries a selection).
pub fn eval<'a>(expr: &Expr, batch: &'a Batch) -> ExprValue<'a> {
    let n = batch.rows();
    let num = |vals: Vec<f64>| ExprValue::F64(Cow::Owned(vals));
    match expr {
        Expr::Col(i) => ExprValue::F64(gather_f64(batch.col(*i), batch.selection())),
        Expr::LitI32(v) => num(vec![*v as f64; n]),
        Expr::LitI64(v) => num(vec![*v as f64; n]),
        Expr::LitF64(v) => num(vec![*v; n]),
        Expr::Add(a, b) => num(zip_with(a, b, batch, |x, y| x + y)),
        Expr::Sub(a, b) => num(zip_with(a, b, batch, |x, y| x - y)),
        Expr::Mul(a, b) => num(zip_with(a, b, batch, |x, y| x * y)),
        Expr::Eq(a, b) => ExprValue::Bool(zip_with(a, b, batch, |x, y| x == y)),
        Expr::Lt(a, b) => ExprValue::Bool(zip_with(a, b, batch, |x, y| x < y)),
        Expr::Le(a, b) => ExprValue::Bool(zip_with(a, b, batch, |x, y| x <= y)),
        Expr::Gt(a, b) => ExprValue::Bool(zip_with(a, b, batch, |x, y| x > y)),
        Expr::Ge(a, b) => ExprValue::Bool(zip_with(a, b, batch, |x, y| x >= y)),
        Expr::And(a, b) => binary_bool(a, b, batch, |x, y| x && y),
        Expr::Or(a, b) => binary_bool(a, b, batch, |x, y| x || y),
    }
}

/// Whether two expressions evaluate to the same bits, so one may stand in
/// for the other. Float literals compare by bit pattern: the derived
/// `PartialEq` equates `0.0` and `-0.0`, which `x * lit` tells apart.
pub fn same_expr(a: &Expr, b: &Expr) -> bool {
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

/// The value of a literal operand, widened as [`eval`] widens it.
fn literal(e: &Expr) -> Option<f64> {
    match e {
        Expr::LitI32(v) => Some(*v as f64),
        Expr::LitI64(v) => Some(*v as f64),
        Expr::LitF64(v) => Some(*v),
        _ => None,
    }
}

/// A numeric operand of a binary node: literals stay scalar, so the node
/// runs one scalar loop instead of materialising `vec![lit; n]`.
enum Operand<'x> {
    Lit(f64),
    Vals(Cow<'x, [f64]>),
}

fn operand<'x>(expr: &Expr, batch: &'x Batch) -> Operand<'x> {
    match literal(expr) {
        Some(x) => Operand::Lit(x),
        None => Operand::Vals(eval(expr, batch).into_f64()),
    }
}

/// `f` over the rows of two numeric operands, in operand order.
fn zip_with<T: Clone>(a: &Expr, b: &Expr, batch: &Batch, f: impl Fn(f64, f64) -> T) -> Vec<T> {
    match (operand(a, batch), operand(b, batch)) {
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
    f: impl Fn(bool, bool) -> bool,
) -> ExprValue<'a> {
    let va = eval(a, batch);
    let vb = eval(b, batch);
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

/// Append to `out`, ascending, the rows of `batch` where `pred` holds, as
/// indices into its columns — among its selected rows, when it carries a
/// selection. The filter kernel: `and` tests its right side only on the
/// rows its left side kept, `or` merges what each side selects, and a
/// comparison of a column with a literal or with a column runs over the
/// columns' own element types, widening each element in-register exactly
/// as [`eval`] widens a column. Every truth value is therefore the one [`eval_bool`] computes —
/// `i64` beyond 2^53, NaN and `-0.0` included.
pub fn select(pred: &Expr, batch: &Batch, out: &mut Vec<u32>) {
    select_among(pred, batch, batch.selection(), out);
}

/// [`select`] among the candidate rows `cand` (ascending indices into the
/// columns; every row when `None`).
fn select_among(pred: &Expr, batch: &Batch, cand: Option<&[u32]>, out: &mut Vec<u32>) {
    match pred {
        Expr::And(a, b) => {
            let mut left = Vec::new();
            select_among(a, batch, cand, &mut left);
            select_among(b, batch, Some(&left), out);
        }
        Expr::Or(a, b) => {
            let (mut left, mut right) = (Vec::new(), Vec::new());
            select_among(a, batch, cand, &mut left);
            select_among(b, batch, cand, &mut right);
            union(&left, &right, out);
        }
        Expr::Eq(a, b) => compare(a, b, batch, cand, out, |x, y| x == y),
        Expr::Lt(a, b) => compare(a, b, batch, cand, out, |x, y| x < y),
        Expr::Le(a, b) => compare(a, b, batch, cand, out, |x, y| x <= y),
        Expr::Gt(a, b) => compare(a, b, batch, cand, out, |x, y| x > y),
        Expr::Ge(a, b) => compare(a, b, batch, cand, out, |x, y| x >= y),
        // Invariant: a plan's filters are boolean — the binding walk refuses the rest.
        _ => panic!("predicate does not evaluate to boolean"),
    }
}

/// The candidates where `f(a, b)` holds, appended to `out`.
fn compare(
    a: &Expr,
    b: &Expr,
    batch: &Batch,
    cand: Option<&[u32]>,
    out: &mut Vec<u32>,
    f: impl Fn(f64, f64) -> bool + Copy,
) {
    // Without candidates the batch carries no selection: all its rows.
    let n = batch.rows();
    match (a, b, literal(a), literal(b)) {
        (Expr::Col(i), _, _, Some(y)) => {
            typed!(batch.col(*i), v => keep(n, cand, out, |r| f(v[r].widen(), y)));
        }
        (_, Expr::Col(j), Some(x), _) => {
            typed!(batch.col(*j), v => keep(n, cand, out, |r| f(x, v[r].widen())));
        }
        (Expr::Col(i), Expr::Col(j), _, _) => typed!(batch.col(*i), u => {
            typed!(batch.col(*j), v => keep(n, cand, out, |r| f(u[r].widen(), v[r].widen())));
        }),
        _ => {
            // Computed operands: evaluated over the candidate rows only.
            let among = match cand {
                None => Cow::Borrowed(batch),
                Some(c) => Cow::Owned(batch.clone().with_selection(c.into())),
            };
            let holds = zip_with(a, b, &among, f);
            let rows = (0..holds.len() as u32).map(|k| cand.map_or(k, |c| c[k as usize]));
            out.extend(rows.zip(holds).filter(|&(_, h)| h).map(|(r, _)| r));
        }
    }
}

/// Append to `out` the candidates (all `n` rows when `None`) that pass
/// `test`, branch-free: every candidate is written, and the write position
/// advances past the ones that pass.
fn keep(n: usize, cand: Option<&[u32]>, out: &mut Vec<u32>, test: impl Fn(usize) -> bool) {
    let start = out.len();
    out.resize(start + cand.map_or(n, <[u32]>::len), 0);
    let mut k = start;
    match cand {
        None => {
            for r in 0..n {
                out[k] = r as u32;
                k += test(r) as usize;
            }
        }
        Some(c) => {
            for &r in c {
                out[k] = r;
                k += test(r as usize) as usize;
            }
        }
    }
    out.truncate(k);
}

/// The ascending union of two ascending row lists, appended to `out`.
fn union(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += (x <= y) as usize;
        j += (y <= x) as usize;
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Selected rows a register program evaluates at a time: the registers of
/// a dense block span at most twice as many column rows, so a block of a
/// program as wide as Q1's (eight registers) stays within a 128 KiB L2.
pub(crate) const BLOCK_ROWS: usize = 1 << 10;

thread_local! {
    /// Each data-plane thread's register file, kept between blocks,
    /// packets and stages and grown to the widest block it has run.
    static REGISTERS: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// The three arithmetic operators, each the one IEEE operation [`eval`]
/// performs for it.
#[derive(Debug, Clone, Copy)]
enum Arith {
    Add,
    Sub,
    Mul,
}

impl Arith {
    fn op(self) -> fn(f64, f64) -> f64 {
        match self {
            Arith::Add => |x, y| x + y,
            Arith::Sub => |x, y| x - y,
            Arith::Mul => |x, y| x * y,
        }
    }
}

/// An operand of a register instruction.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// An earlier register.
    Reg(usize),
    /// A literal, widened as [`eval`] widens it.
    Lit(f64),
}

/// One register of a [`Program`], computed from earlier ones.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Column `c` widened to `f64`; an `f64` column over a dense span is
    /// read in place instead.
    Leaf(usize),
    /// A literal output (`sum(2.0)`): the value on every row.
    Splat(f64),
    /// An arithmetic node over registers and literals, in operand order.
    Bin(Arith, Src, Src),
}

/// The rows one block of a [`Program`] run covers.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rows<'s> {
    /// Column rows `start..start + len`, every one evaluated.
    Span(usize, usize),
    /// The listed column rows, gathered.
    Gather(&'s [u32]),
}

impl Rows<'_> {
    fn len(&self) -> usize {
        match self {
            Rows::Span(_, len) => *len,
            Rows::Gather(rows) => rows.len(),
        }
    }
}

/// Numeric expressions compiled once into a register program: one leaf
/// register per column they read, one instruction per distinct arithmetic
/// node (common sub-expressions found once with [`same_expr`], literal-only
/// subtrees folded with the same `f64` operation [`eval`] applies), in
/// dependency order. [`Program::eval_into`] runs it block by block over a
/// batch's selected rows, with the registers in a per-thread file.
///
/// Every value is the IEEE operation [`eval`] computes, on the same widened
/// operands, so the two agree bit for bit — NaN, `-0.0` and `i64` beyond
/// 2^53 included; the seeded oracle in this module's tests holds it to that.
#[derive(Debug, Clone, Default)]
pub struct Program {
    slots: Vec<Slot>,
    /// The register each compiled expression's value sits in.
    outs: Vec<usize>,
}

impl Program {
    /// Compile numeric expressions ([`ExprKind::Num`]; the binding walk
    /// refuses a plan whose aggregate argument or projection is boolean).
    pub fn new<'e>(exprs: impl IntoIterator<Item = &'e Expr>) -> Program {
        let mut program = Program::default();
        let mut nodes: Vec<(&Expr, usize)> = Vec::new();
        for expr in exprs {
            let out = match program.lower(expr, &mut nodes) {
                Src::Reg(r) => r,
                Src::Lit(x) => program.register(Slot::Splat(x)),
            };
            program.outs.push(out);
        }
        program
    }

    /// The register holding `expr`'s value, or its literal value.
    fn lower<'e>(&mut self, expr: &'e Expr, nodes: &mut Vec<(&'e Expr, usize)>) -> Src {
        if let Some(x) = literal(expr) {
            return Src::Lit(x);
        }
        let (op, a, b) = match expr {
            Expr::Col(c) => return Src::Reg(self.register(Slot::Leaf(*c))),
            Expr::Add(a, b) => (Arith::Add, a, b),
            Expr::Sub(a, b) => (Arith::Sub, a, b),
            Expr::Mul(a, b) => (Arith::Mul, a, b),
            // Invariant: hape_core's binding walk (`plan::bind`) refuses a
            // plan whose numeric positions hold a boolean (`Expr::kind`).
            _ => panic!("expected numeric expression, got boolean"),
        };
        if let Some(&(_, r)) = nodes.iter().find(|(node, _)| same_expr(node, expr)) {
            return Src::Reg(r);
        }
        match (self.lower(a, nodes), self.lower(b, nodes)) {
            (Src::Lit(x), Src::Lit(y)) => Src::Lit(op.op()(x, y)),
            (a, b) => {
                let r = self.register(Slot::Bin(op, a, b));
                nodes.push((expr, r));
                Src::Reg(r)
            }
        }
    }

    /// The register computing `slot`: an existing leaf or splat of the same
    /// column or bits, or a new one.
    fn register(&mut self, slot: Slot) -> usize {
        let same = |s: &Slot| match (s, &slot) {
            (Slot::Leaf(a), Slot::Leaf(b)) => a == b,
            (Slot::Splat(a), Slot::Splat(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        };
        self.slots.iter().position(same).unwrap_or_else(|| {
            self.slots.push(slot);
            self.slots.len() - 1
        })
    }

    /// The register output `j` sits in: two outputs in one register are
    /// the same values.
    pub(crate) fn out_register(&self, j: usize) -> usize {
        self.outs[j]
    }

    /// Evaluate every compiled expression over the rows of `batch` (its
    /// selected rows, when it carries a selection): expression `j` into
    /// `outs[j]`, which holds one value per row.
    pub fn eval_into(&self, batch: &Batch, outs: &mut [&mut [f64]]) {
        self.for_each_block(batch, |off, regs| {
            for (j, out) in outs.iter_mut().enumerate() {
                let (vals, dst) = (regs.out(j), &mut out[off..off + regs.rows]);
                match regs.dense {
                    None => dst.copy_from_slice(vals),
                    Some((sel, start)) => {
                        dst.iter_mut()
                            .zip(sel)
                            .for_each(|(d, &r)| *d = vals[r as usize - start]);
                    }
                }
            }
        });
    }

    /// Run the program over `batch`'s selected rows [`BLOCK_ROWS`] at a
    /// time, handing `f` each block's offset among them and its registers.
    /// A block evaluates densely over the column span it covers when its
    /// rows fill at least half of that span (Q1's date filter keeps 98 %),
    /// reading `f64` columns in place and widening each integer element
    /// once; a sparser block (Q6 keeps 2 %) is gathered, because evaluating
    /// the rows between its own would cost more than gathering them.
    pub(crate) fn for_each_block(&self, batch: &Batch, mut f: impl FnMut(usize, &Regs<'_>)) {
        let (n, sel) = (batch.rows(), batch.selection());
        let mut file = REGISTERS.take();
        for off in (0..n).step_by(BLOCK_ROWS) {
            let len = BLOCK_ROWS.min(n - off);
            let (rows, dense) = match sel {
                None => (Rows::Span(off, len), None),
                Some(sel) => {
                    let block = &sel[off..off + len];
                    let start = block[0] as usize;
                    let span = block[len - 1] as usize + 1 - start;
                    match 2 * len >= span {
                        true => (Rows::Span(start, span), Some((block, start))),
                        false => (Rows::Gather(block), None),
                    }
                }
            };
            let regs = self.run(batch, rows, &mut file);
            f(off, &Regs { dense, rows: len, ..regs });
        }
        REGISTERS.set(file);
    }

    /// Evaluate every register over `rows` of `batch`, register `r` into
    /// `file[r * len..][..len]` unless it is read in place.
    pub(crate) fn run<'a>(
        &'a self,
        batch: &'a Batch,
        rows: Rows<'a>,
        file: &'a mut Vec<f64>,
    ) -> Regs<'a> {
        let len = rows.len();
        let need = self.slots.len() * len;
        if file.len() < need {
            file.resize(need, 0.0);
        }
        for (r, slot) in self.slots.iter().enumerate() {
            if self.in_place(r, batch, rows).is_some() {
                continue;
            }
            let (done, rest) = file.split_at_mut(r * len);
            let dst = &mut rest[..len];
            match *slot {
                Slot::Leaf(c) => widen_into(batch.col(c), rows, dst),
                Slot::Splat(x) => dst.fill(x),
                Slot::Bin(op, a, b) => {
                    let src = |s: Src| match s {
                        Src::Reg(q) => Ok(self.view(q, batch, rows, done)),
                        Src::Lit(x) => Err(x),
                    };
                    let (a, b) = (src(a), src(b));
                    match op {
                        Arith::Add => apply(dst, a, b, |x, y| x + y),
                        Arith::Sub => apply(dst, a, b, |x, y| x - y),
                        Arith::Mul => apply(dst, a, b, |x, y| x * y),
                    }
                }
            }
        }
        Regs { program: self, batch, rows: len, span: rows, file: &file[..need], dense: None }
    }

    /// Register `r` read in place: an `f64` column over a span.
    fn in_place<'a>(&self, r: usize, batch: &'a Batch, rows: Rows<'_>) -> Option<&'a [f64]> {
        match (self.slots[r], rows) {
            (Slot::Leaf(c), Rows::Span(start, len))
                if batch.col(c).data_type() == DataType::F64 =>
            {
                Some(&batch.col(c).as_f64()[start..start + len])
            }
            _ => None,
        }
    }

    /// The values of register `r` over `rows`, from the file of the
    /// registers before it or in place.
    fn view<'a>(
        &self,
        r: usize,
        batch: &'a Batch,
        rows: Rows<'_>,
        file: &'a [f64],
    ) -> &'a [f64] {
        let len = rows.len();
        self.in_place(r, batch, rows).unwrap_or(&file[r * len..][..len])
    }
}

/// A block's registers after a [`Program`] run.
pub(crate) struct Regs<'a> {
    program: &'a Program,
    batch: &'a Batch,
    /// Selected rows in the block.
    pub(crate) rows: usize,
    span: Rows<'a>,
    file: &'a [f64],
    /// For a selected block evaluated over its span: its rows (ascending
    /// column indices) and the span's first row, so row `k`'s values sit at
    /// `sel[k] - start`. Otherwise row `k`'s values sit at `k`.
    pub(crate) dense: Option<(&'a [u32], usize)>,
}

impl<'a> Regs<'a> {
    /// The values of compiled expression `j`, one per row of the span.
    pub(crate) fn out(&self, j: usize) -> &'a [f64] {
        self.program.view(self.program.outs[j], self.batch, self.span, self.file)
    }
}

/// `dst[k] = f(a[k], b[k])`, a literal operand standing for every row. Both
/// literal is folded when the program is compiled.
fn apply(
    dst: &mut [f64],
    a: Result<&[f64], f64>,
    b: Result<&[f64], f64>,
    f: impl Fn(f64, f64) -> f64,
) {
    match (a, b) {
        (Ok(a), Ok(b)) => dst.iter_mut().zip(a).zip(b).for_each(|((d, &x), &y)| *d = f(x, y)),
        (Ok(a), Err(y)) => dst.iter_mut().zip(a).for_each(|(d, &x)| *d = f(x, y)),
        (Err(x), Ok(b)) => dst.iter_mut().zip(b).for_each(|(d, &y)| *d = f(x, y)),
        (Err(x), Err(y)) => dst.fill(f(x, y)),
    }
}

/// `col`'s `rows`, widened to `f64` into `dst` as [`eval`] widens them.
fn widen_into(col: &Column, rows: Rows<'_>, dst: &mut [f64]) {
    typed!(col, v => match rows {
        Rows::Span(start, len) => {
            dst.iter_mut().zip(&v[start..start + len]).for_each(|(d, x)| *d = x.widen());
        }
        Rows::Gather(sel) => dst.iter_mut().zip(sel).for_each(|(d, &r)| *d = v[r as usize].widen()),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// `program` over `batch` through [`Program::eval_into`], one vector
    /// per compiled expression.
    fn program_values(program: &Program, batch: &Batch) -> Vec<Vec<f64>> {
        let mut outs = vec![vec![f64::NAN; batch.rows()]; program.outs.len()];
        let mut dsts: Vec<&mut [f64]> = outs.iter_mut().map(|v| &mut v[..]).collect();
        program.eval_into(batch, &mut dsts);
        outs
    }

    #[test]
    fn repeated_arguments_are_evaluated_once_with_the_same_bits() {
        // Q1's shape: disc_price, charge = disc_price * (1 + tax), and
        // disc_price again.
        let b = Batch::new(vec![
            Column::from_f64(vec![901.5, 33.25, 1e7]),
            Column::from_f64(vec![0.05, 0.1, 0.07]),
        ]);
        let disc_price = Expr::mul(Expr::col(0), Expr::sub(Expr::LitF64(1.0), Expr::col(1)));
        let charge = Expr::mul(disc_price.clone(), Expr::add(Expr::LitF64(1.0), Expr::col(1)));
        let program = Program::new([&disc_price, &charge, &disc_price, &charge]);
        // Two leaves, `1 - x1`, disc_price, `1 + x1`, charge: the operand of
        // `charge` that equals disc_price is disc_price's register.
        assert_eq!(program.slots.len(), 6);
        assert_eq!(program.outs, [3, 5, 3, 5]);
        assert!(matches!(program.slots[5], Slot::Bin(Arith::Mul, Src::Reg(3), Src::Reg(4))));
        let vals = program_values(&program, &b);
        assert_eq!(f64_bits(&vals[0]), f64_bits(eval(&disc_price, &b).as_f64()));
        assert_eq!(f64_bits(&vals[1]), f64_bits(eval(&charge, &b).as_f64()));

        // Literals that differ only in the sign of zero are `==` but fold
        // different bits (`x * 0.0` vs `x * -0.0`): not the same argument,
        // neither at the top level nor as an operand.
        let times = |z: f64| Expr::mul(Expr::col(0), Expr::LitF64(z));
        let (pos, neg) = (times(0.0), times(-0.0));
        assert_eq!(pos, neg);
        let nested = Expr::add(neg.clone(), Expr::LitF64(-0.0));
        let program = Program::new([&pos, &neg, &nested]);
        assert_eq!(program.outs, [1, 2, 3]);
        let vals = program_values(&program, &b);
        assert_eq!(f64_bits(&vals[0]), [0.0f64.to_bits(); 3]);
        assert_eq!(f64_bits(&vals[1]), [(-0.0f64).to_bits(); 3]);
        assert_eq!(f64_bits(&vals[2]), [(-0.0f64).to_bits(); 3]);

        // A literal-only subtree folds at compile time with the operation
        // `eval` applies per row; a bare literal output is one register.
        let two = Expr::add(Expr::LitI32(1), Expr::LitF64(1.0));
        let program = Program::new([&Expr::mul(Expr::col(1), two.clone()), &two]);
        assert!(
            matches!(program.slots[1], Slot::Bin(Arith::Mul, Src::Reg(0), Src::Lit(x)) if x == 2.0)
        );
        assert_eq!(program_values(&program, &b)[1], [2.0; 3]);
    }

    /// A random numeric expression over [`typed_batch`]'s columns: a
    /// column, a literal of each type (a literal-only subtree now and then),
    /// or `+ - *` of two smaller ones; half the time a subtree already
    /// drawn, so programs share sub-expressions.
    fn random_numeric(depth: usize, pool: &mut Vec<Expr>, rng: &mut StdRng) -> Expr {
        if !pool.is_empty() && rng.gen_bool(0.25) {
            return pool[rng.gen_range(0..pool.len())].clone();
        }
        let leaf = depth == 0 || rng.gen_bool(0.3);
        let e = match (leaf, rng.gen_range(0..3usize)) {
            (true, 0) => random_literal(rng),
            (true, _) => Expr::col(rng.gen_range(0..6)),
            (false, op) => {
                let (a, b) = (
                    random_numeric(depth - 1, pool, rng),
                    random_numeric(depth - 1, pool, rng),
                );
                [Expr::add, Expr::sub, Expr::mul][op](a, b)
            }
        };
        pool.push(e.clone());
        e
    }

    /// Run `program` over `rows` of `batch` and read row `k`'s value of
    /// output `j` at `at(k)`.
    fn run_mode(
        program: &Program,
        batch: &Batch,
        rows: Rows<'_>,
        n: usize,
        at: impl Fn(usize) -> usize,
    ) -> Vec<Vec<u64>> {
        let mut file = Vec::new();
        let regs = program.run(batch, rows, &mut file);
        (0..program.outs.len())
            .map(|j| (0..n).map(|k| regs.out(j)[at(k)].to_bits()).collect())
            .collect()
    }

    /// Seeded cases: each compiles a few random expressions, then over no
    /// selection, a dense one (~90 %) and a sparse one (~3 %) runs them
    /// densely over the selection's span, gathered, and through
    /// `eval_into`, each `to_bits`-equal to `eval` per expression.
    fn assert_program_matches_eval(cases: u64) {
        let mut rng = StdRng::seed_from_u64(42);
        for case in 0..cases {
            let n = match rng.gen_range(0..8usize) {
                0 => rng.gen_range(0..4),
                1 => rng.gen_range(BLOCK_ROWS..3 * BLOCK_ROWS),
                _ => rng.gen_range(4..300),
            };
            let batch = typed_batch(n, &mut rng);
            let mut pool = Vec::new();
            let exprs: Vec<Expr> = (0..rng.gen_range(1..5))
                .map(|_| random_numeric(3, &mut pool, &mut rng))
                .collect();
            let program = Program::new(&exprs);
            for share in [1.0, 0.9, 0.03] {
                let sel: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(share)).collect();
                let view = match share {
                    1.0 => batch.clone(),
                    _ => batch.clone().with_selection(sel.clone().into()),
                };
                let want: Vec<Vec<u64>> =
                    exprs.iter().map(|e| f64_bits(eval(e, &view).as_f64())).collect();
                let got: Vec<Vec<u64>> =
                    program_values(&program, &view).iter().map(|v| f64_bits(v)).collect();
                assert_eq!(got, want, "case {case}: eval_into of {exprs:?}");
                let gathered = run_mode(&program, &batch, Rows::Gather(&sel), sel.len(), |k| k);
                assert_eq!(gathered, want, "case {case}: gathered {exprs:?}");
                let start = sel.first().map_or(0, |&r| r as usize);
                let span = sel.last().map_or(0, |&r| r as usize + 1 - start);
                let at = |k: usize| sel[k] as usize - start;
                let dense = run_mode(&program, &batch, Rows::Span(start, span), sel.len(), at);
                assert_eq!(dense, want, "case {case}: dense {exprs:?}");
            }
        }
    }

    #[test]
    fn register_program_matches_eval() {
        assert_program_matches_eval(1_000);
    }

    #[test]
    #[ignore = "10^5 seeded programs: cargo test --release -p hape-ops -- --ignored register_program"]
    fn register_program_matches_eval_at_scale() {
        assert_program_matches_eval(100_000);
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

    /// The filter kernel's oracle batch: one column per physical type —
    /// `i32` in `0..100` (so `< 0`, `< 2`, `< 98`, `<= 99` select 0 %, ~2 %,
    /// ~98 % and 100 %), dates, `i64` straddling 2^53 (where widening
    /// rounds), `f64` salted with NaN, `-0.0` and `0.0`, dictionary codes —
    /// and a second `f64` for column-vs-column comparisons.
    fn typed_batch(n: usize, rng: &mut StdRng) -> Batch {
        let big = 1i64 << 53;
        let specials = [f64::NAN, -0.0, 0.0];
        let f64s = |rng: &mut StdRng| -> Vec<f64> {
            (0..n)
                .map(|_| match rng.gen_range(0..8usize) {
                    k @ 0..=2 => specials[k],
                    _ => rng.gen_range(-2.0..2.0),
                })
                .collect()
        };
        let names = ["AIR", "MAIL", "RAIL", "SHIP", "TRUCK"];
        Batch::new(vec![
            Column::from_i32((0..n).map(|_| rng.gen_range(0..100)).collect()),
            Column::from_i32((0..n).map(|_| rng.gen_range(8_760..8_780)).collect()),
            Column::from_i64((0..n).map(|_| big + rng.gen_range(-3..4i64)).collect()),
            Column::from_f64(f64s(rng)),
            Column::from_strs((0..n).map(|_| names[rng.gen_range(0..names.len())])),
            Column::from_f64(f64s(rng)),
        ])
    }

    /// A random literal of a random type, near the values the columns hold.
    fn random_literal(rng: &mut StdRng) -> Expr {
        let big = 1i64 << 53;
        match rng.gen_range(0..6usize) {
            0 => Expr::LitI32(rng.gen_range(-1..101)),
            1 => Expr::LitI32(rng.gen_range(8_759..8_781)),
            2 => Expr::LitI64(big + rng.gen_range(-4..5i64)),
            3 => Expr::LitF64([0.0, -0.0, f64::NAN, 0.5][rng.gen_range(0..4usize)]),
            4 => Expr::LitI32(rng.gen_range(0..5)),
            _ => Expr::LitF64(rng.gen_range(-2.0..2.0)),
        }
    }

    /// A random predicate: comparisons of a column with a literal (either
    /// side), a column, or a computed operand, under nested `and` / `or`.
    fn random_predicate(depth: usize, rng: &mut StdRng) -> Expr {
        let cols = 6;
        if depth > 0 && rng.gen_bool(0.5) {
            let (a, b) = (random_predicate(depth - 1, rng), random_predicate(depth - 1, rng));
            return if rng.gen_bool(0.5) { Expr::and(a, b) } else { Expr::or(a, b) };
        }
        let column = Expr::col(rng.gen_range(0..cols));
        let (a, b) = match rng.gen_range(0..4usize) {
            0 => (column, random_literal(rng)),
            1 => (random_literal(rng), column),
            2 => (column, Expr::col(rng.gen_range(0..cols))),
            _ => (Expr::mul(column, Expr::LitF64(0.5)), Expr::col(rng.gen_range(0..cols))),
        };
        let cmp = [Expr::eq, Expr::lt, Expr::le, Expr::gt, Expr::ge][rng.gen_range(0..5usize)];
        cmp(a, b)
    }

    /// `select` over `batch` against the positions `eval_bool` says hold,
    /// mapped through the batch's selection.
    fn assert_select_matches_eval_bool(pred: &Expr, batch: &Batch) {
        let mut got = vec![7]; // `select` appends: what is there stays.
        select(pred, batch, &mut got);
        let want: Vec<u32> = std::iter::once(7)
            .chain(
                eval_bool(pred, batch)
                    .iter()
                    .enumerate()
                    .filter(|(_, &t)| t)
                    .map(|(k, _)| batch.selection().map_or(k as u32, |sel| sel[k])),
            )
            .collect();
        assert_eq!(got, want, "{pred:?} over {} rows", batch.rows());
    }

    #[test]
    fn select_holds_exactly_where_eval_bool_does() {
        let mut rng = StdRng::seed_from_u64(32);
        let x = || Expr::col(0);
        let shares = [
            Expr::lt(x(), Expr::LitI32(0)),
            Expr::lt(x(), Expr::LitI32(2)),
            Expr::lt(x(), Expr::LitI32(98)),
            Expr::le(x(), Expr::LitI32(99)),
        ];
        for n in [0, 1, 3, 700, 5_000] {
            let batch = typed_batch(n, &mut rng);
            let every = (0..n as u32).collect::<Vec<_>>();
            let some = every.iter().copied().filter(|_| rng.gen_bool(0.6)).collect::<Vec<_>>();
            let views = [
                batch.clone(),
                batch.clone().with_selection(some.into()),
                batch.clone().with_selection(every.into()),
                batch.clone().with_selection(Vec::new().into()),
            ];
            let mut preds: Vec<Expr> = shares.to_vec();
            preds.extend((0..200).map(|_| random_predicate(3, &mut rng)));
            for view in &views {
                for pred in &preds {
                    assert_select_matches_eval_bool(pred, view);
                }
            }
            if n == 5_000 {
                let count = |p: &Expr| eval_bool(p, &batch).iter().filter(|&&t| t).count();
                let got = shares.each_ref().map(count);
                assert_eq!((got[0], got[3]), (0, n));
                assert!((50..=150).contains(&got[1]) && (4_850..=4_950).contains(&got[2]));
            }
        }
        // The lossy widening and the float specials, pinned: 2^53 + 1
        // widens to 2^53, NaN compares false, `-0.0 == 0.0`.
        let b = Batch::new(vec![
            Column::from_i64(vec![(1 << 53) - 1, 1 << 53, (1 << 53) + 1, (1 << 53) + 2]),
            Column::from_f64(vec![f64::NAN, -0.0, 0.0, 1.0]),
        ]);
        let mut got = Vec::new();
        select(&Expr::eq(Expr::col(0), Expr::LitI64((1 << 53) + 1)), &b, &mut got);
        assert_eq!(got, [1, 2]);
        got.clear();
        select(&Expr::le(Expr::col(1), Expr::LitF64(0.0)), &b, &mut got);
        assert_eq!(got, [1, 2]);
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

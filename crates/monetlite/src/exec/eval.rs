//! Columnar expression evaluation.

use std::cmp::Ordering;

use crate::engine::Engine;
use crate::error::DbError;
use crate::sql::ast::{BinaryOp, SqlExpr, UnaryOp};
use crate::table::Table;
use crate::types::{Column, SqlValue};
use crate::udf::{self, UdfInput};

/// Result of evaluating an expression against a table: a whole column or a
/// single scalar (literals, aggregates, scalar-returning UDFs).
#[derive(Debug, Clone)]
pub enum Evaluated {
    Column(Column),
    Scalar(SqlValue),
}

impl Evaluated {
    /// Value at row `i` (scalars broadcast).
    pub fn get(&self, i: usize) -> SqlValue {
        match self {
            Evaluated::Column(c) => c.get(i),
            Evaluated::Scalar(s) => s.clone(),
        }
    }

    /// Length if columnar.
    pub fn column_len(&self) -> Option<usize> {
        match self {
            Evaluated::Column(c) => Some(c.len()),
            Evaluated::Scalar(_) => None,
        }
    }

    /// Materialize as a column of `rows` values.
    pub fn into_column(self, name: &str, rows: usize) -> Result<Column, DbError> {
        match self {
            Evaluated::Column(mut c) => {
                c.name = name.to_string();
                Ok(c)
            }
            Evaluated::Scalar(s) => Column::from_values(name, &vec![s; rows]),
        }
    }
}

/// Names of aggregate functions handled by the evaluator.
fn is_aggregate(name: &str) -> bool {
    matches!(
        name.to_ascii_lowercase().as_str(),
        "count" | "sum" | "avg" | "min" | "max" | "median"
    )
}

/// Evaluate `expr` against `source` (None = no FROM clause).
pub fn eval_expr(
    engine: &Engine,
    source: Option<&Table>,
    expr: &SqlExpr,
) -> Result<Evaluated, DbError> {
    match expr {
        SqlExpr::Literal(v) => Ok(Evaluated::Scalar(v.clone())),
        SqlExpr::Star => Err(DbError::exec("'*' is only valid inside count(*)")),
        SqlExpr::Column(name) => {
            let table = source.ok_or_else(|| {
                DbError::catalog(format!("column '{name}' referenced without a FROM clause"))
            })?;
            resolve_column(table, name).map(|c| Evaluated::Column(c.clone()))
        }
        SqlExpr::Unary { op, expr } => {
            let v = eval_expr(engine, source, expr)?;
            apply_unary(*op, v)
        }
        SqlExpr::Binary { left, op, right } => {
            let l = eval_expr(engine, source, left)?;
            let r = eval_expr(engine, source, right)?;
            apply_binary(*op, l, r)
        }
        SqlExpr::IsNull { expr, negated } => {
            let v = eval_expr(engine, source, expr)?;
            Ok(match v {
                Evaluated::Scalar(s) => Evaluated::Scalar(SqlValue::Bool(s.is_null() != *negated)),
                Evaluated::Column(c) => {
                    let out: Vec<SqlValue> = (0..c.len())
                        .map(|i| SqlValue::Bool(c.is_null(i) != *negated))
                        .collect();
                    Evaluated::Column(Column::from_values("is_null", &out)?)
                }
            })
        }
        SqlExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval_expr(engine, source, expr)?;
            let p = eval_expr(engine, source, pattern)?;
            let Evaluated::Scalar(SqlValue::Str(pat)) = p else {
                return Err(DbError::type_err("LIKE pattern must be a string literal"));
            };
            let apply = |s: &SqlValue| -> Result<SqlValue, DbError> {
                match s {
                    SqlValue::Null => Ok(SqlValue::Null),
                    SqlValue::Str(text) => Ok(SqlValue::Bool(like_match(text, &pat) != *negated)),
                    other => Err(DbError::type_err(format!(
                        "LIKE requires a string operand, got {}",
                        other.sql_type().map(|t| t.name()).unwrap_or("NULL")
                    ))),
                }
            };
            map_evaluated(v, "like", apply)
        }
        SqlExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_expr(engine, source, expr)?;
            let mut options = Vec::with_capacity(list.len());
            for item in list {
                match eval_expr(engine, source, item)? {
                    Evaluated::Scalar(s) => options.push(s),
                    Evaluated::Column(_) => {
                        return Err(DbError::type_err("IN list items must be scalars"))
                    }
                }
            }
            let apply = move |s: &SqlValue| -> Result<SqlValue, DbError> {
                if s.is_null() {
                    return Ok(SqlValue::Null);
                }
                let found = options
                    .iter()
                    .any(|o| cmp_sql(s, o) == Ordering::Equal && !o.is_null());
                Ok(SqlValue::Bool(found != *negated))
            };
            map_evaluated(v, "in", apply)
        }
        SqlExpr::Call { name, args } => eval_call(engine, source, name, args),
        SqlExpr::Cast { expr, target } => {
            let v = eval_expr(engine, source, expr)?;
            let target = *target;
            // Typed fast paths for the numeric casts the UDF inliner emits
            // (float()/int() lower to CAST); identical to `coerce` per value.
            if let Evaluated::Column(c) = &v {
                if !c.has_nulls() {
                    use crate::types::{ColumnData, SqlType};
                    match (&c.data, target) {
                        (ColumnData::Int(_), SqlType::Integer)
                        | (ColumnData::Double(_), SqlType::Double) => return Ok(v),
                        (ColumnData::Int(ints), SqlType::Double) => {
                            return Ok(Evaluated::Column(Column::new(
                                "cast",
                                ColumnData::Double(ints.iter().map(|&x| x as f64).collect()),
                            )))
                        }
                        (ColumnData::Double(ds), SqlType::Integer) => {
                            return Ok(Evaluated::Column(Column::new(
                                "cast",
                                ColumnData::Int(ds.iter().map(|d| d.trunc() as i64).collect()),
                            )))
                        }
                        _ => {}
                    }
                }
            }
            map_evaluated(v, "cast", move |s| s.coerce(target))
        }
        SqlExpr::Case { branches, else_ } => eval_case(engine, source, branches, else_),
    }
}

/// Evaluate each distinct aggregate subexpression of an inlined UDF plan
/// once and substitute its scalar result as a literal, innermost first.
///
/// Sound because the inlined subset is pure and every non-CASE position is
/// evaluated eagerly: a hoisted aggregate's value — and any error — is
/// exactly what the plain evaluation would produce, just computed once
/// instead of per occurrence (the lowering substitutes bound variables, so
/// `mean = sum(c)/len(c)` repeats its aggregates at every use site).
/// CASE subtrees are left untouched on both the collect and replace side:
/// branch values run lazily, possibly against filtered sub-tables.
pub(crate) fn hoist_aggregates(
    engine: &Engine,
    table: &Table,
    expr: &SqlExpr,
) -> Result<SqlExpr, DbError> {
    let mut expr = expr.clone();
    loop {
        let mut found: Vec<SqlExpr> = Vec::new();
        collect_innermost_aggregates(&expr, &mut found);
        if found.is_empty() {
            return Ok(expr);
        }
        for agg in found {
            let value = match eval_expr(engine, Some(table), &agg)? {
                Evaluated::Scalar(s) => s,
                Evaluated::Column(_) => return Err(DbError::exec("aggregate produced a column")),
            };
            let lit = SqlExpr::Literal(value);
            replace_subexpr(&mut expr, &agg, &lit);
        }
    }
}

/// Collect aggregate calls whose arguments contain no further aggregates
/// (outside CASE), deduplicated. Returns whether `expr` contains any
/// aggregate at a non-CASE-nested position.
fn collect_innermost_aggregates(expr: &SqlExpr, out: &mut Vec<SqlExpr>) -> bool {
    match expr {
        SqlExpr::Literal(_) | SqlExpr::Column(_) | SqlExpr::Star => false,
        SqlExpr::Unary { expr, .. } | SqlExpr::Cast { expr, .. } | SqlExpr::IsNull { expr, .. } => {
            collect_innermost_aggregates(expr, out)
        }
        SqlExpr::Like { expr, pattern, .. } => {
            let a = collect_innermost_aggregates(expr, out);
            let b = collect_innermost_aggregates(pattern, out);
            a | b
        }
        SqlExpr::Binary { left, right, .. } => {
            let a = collect_innermost_aggregates(left, out);
            let b = collect_innermost_aggregates(right, out);
            a | b
        }
        SqlExpr::InList { expr, list, .. } => {
            let mut any = collect_innermost_aggregates(expr, out);
            for item in list {
                any |= collect_innermost_aggregates(item, out);
            }
            any
        }
        // Opaque: lazy branches may see filtered sub-tables.
        SqlExpr::Case { .. } => false,
        SqlExpr::Call { name, args } => {
            let mut inner = false;
            for a in args {
                inner |= collect_innermost_aggregates(a, out);
            }
            if is_aggregate(name) {
                if !inner && !out.contains(expr) {
                    out.push(expr.clone());
                }
                return true;
            }
            inner
        }
    }
}

fn replace_subexpr(expr: &mut SqlExpr, target: &SqlExpr, replacement: &SqlExpr) {
    if expr == target {
        *expr = replacement.clone();
        return;
    }
    match expr {
        SqlExpr::Literal(_) | SqlExpr::Column(_) | SqlExpr::Star => {}
        SqlExpr::Unary { expr, .. } | SqlExpr::Cast { expr, .. } | SqlExpr::IsNull { expr, .. } => {
            replace_subexpr(expr, target, replacement)
        }
        SqlExpr::Like { expr, pattern, .. } => {
            replace_subexpr(expr, target, replacement);
            replace_subexpr(pattern, target, replacement);
        }
        SqlExpr::Binary { left, right, .. } => {
            replace_subexpr(left, target, replacement);
            replace_subexpr(right, target, replacement);
        }
        SqlExpr::InList { expr, list, .. } => {
            replace_subexpr(expr, target, replacement);
            for item in list {
                replace_subexpr(item, target, replacement);
            }
        }
        SqlExpr::Call { args, .. } => {
            for a in args {
                replace_subexpr(a, target, replacement);
            }
        }
        // Opaque, mirroring collect_innermost_aggregates: an aggregate under
        // a CASE may evaluate against a filtered sub-table, where the
        // hoisted full-table value would be wrong.
        SqlExpr::Case { .. } => {}
    }
}

/// CASE truthiness: TRUE or non-zero integer selects the branch; NULL and
/// FALSE do not; anything else is a type error.
fn case_truth(v: &SqlValue) -> Result<bool, DbError> {
    match v {
        SqlValue::Null => Ok(false),
        SqlValue::Bool(b) => Ok(*b),
        SqlValue::Int(i) => Ok(*i != 0),
        other => Err(DbError::type_err(format!(
            "CASE condition must be a boolean, got {}",
            other.render()
        ))),
    }
}

/// Lazy CASE evaluation. Conditions are checked in order; a branch value is
/// only ever evaluated for the rows that branch selects (so
/// `CASE WHEN b <> 0 THEN a / b ELSE 0 END` never divides by zero).
///
/// Scalar conditions pick one branch for the whole batch. Columnar
/// conditions evaluate each branch against the filtered sub-table and
/// scatter the per-branch results back into row order.
fn eval_case(
    engine: &Engine,
    source: Option<&Table>,
    branches: &[(SqlExpr, SqlExpr)],
    else_: &SqlExpr,
) -> Result<Evaluated, DbError> {
    // First pass: evaluate conditions until one is columnar or one scalar
    // condition is true.
    let mut cond_cols: Vec<(usize, Column)> = Vec::new();
    let mut columnar = false;
    for (idx, (cond, value)) in branches.iter().enumerate() {
        match eval_expr(engine, source, cond)? {
            Evaluated::Scalar(s) => {
                if !columnar && case_truth(&s)? {
                    return eval_expr(engine, source, value);
                }
                // A scalar false under columnar mode: contributes no rows.
                if columnar && case_truth(&s)? {
                    // Scalar true: all remaining rows take this branch.
                    let table = source
                        .ok_or_else(|| DbError::exec("columnar CASE requires a FROM clause"))?;
                    let trues = Column::new(
                        "case",
                        crate::types::ColumnData::Bool(vec![true; table.row_count()]),
                    );
                    cond_cols.push((idx, trues));
                    break;
                }
            }
            Evaluated::Column(c) => {
                columnar = true;
                cond_cols.push((idx, c));
            }
        }
    }
    if !columnar {
        // Every condition was a scalar false: the ELSE arm wins.
        return eval_expr(engine, source, else_);
    }
    let table = source.ok_or_else(|| DbError::exec("columnar CASE requires a FROM clause"))?;
    let rows = table.row_count();
    let mut out: Vec<Option<SqlValue>> = vec![None; rows];
    let mut remaining = vec![true; rows];
    for (idx, cond) in &cond_cols {
        if cond.len() != rows {
            return Err(DbError::exec("CASE condition length mismatch"));
        }
        let mut mask = vec![false; rows];
        let mut any = false;
        for i in 0..rows {
            if remaining[i] && case_truth(&cond.get(i))? {
                mask[i] = true;
                remaining[i] = false;
                any = true;
            }
        }
        if !any {
            continue;
        }
        let sub = table.filter(&mask);
        let value = eval_expr(engine, Some(&sub), &branches[*idx].1)?;
        let mut j = 0;
        for i in 0..rows {
            if mask[i] {
                out[i] = Some(value.get(j));
                j += 1;
            }
        }
    }
    if remaining.iter().any(|r| *r) {
        let sub = table.filter(&remaining);
        let value = eval_expr(engine, Some(&sub), else_)?;
        let mut j = 0;
        for i in 0..rows {
            if remaining[i] {
                out[i] = Some(value.get(j));
                j += 1;
            }
        }
    }
    let values: Vec<SqlValue> = out
        .into_iter()
        .map(|v| v.expect("every row assigned"))
        .collect();
    Ok(Evaluated::Column(Column::from_values("case", &values)?))
}

/// Resolve a (possibly qualified) column reference against a table whose
/// columns may themselves be alias-qualified (join outputs).
///
/// Resolution order: exact name match; then, for a bare name, a unique
/// `*.name` suffix match (ambiguity is an error); for a qualified name, a
/// bare-leaf match (single-table queries referenced as `t.col`).
pub fn resolve_column<'t>(table: &'t Table, name: &str) -> Result<&'t Column, DbError> {
    if let Some(c) = table
        .columns
        .iter()
        .find(|c| c.name.eq_ignore_ascii_case(name))
    {
        return Ok(c);
    }
    if !name.contains('.') {
        let suffix = format!(".{}", name.to_ascii_lowercase());
        let mut matches = table
            .columns
            .iter()
            .filter(|c| c.name.to_ascii_lowercase().ends_with(&suffix));
        match (matches.next(), matches.next()) {
            (Some(c), None) => return Ok(c),
            (Some(a), Some(b)) => {
                return Err(DbError::catalog(format!(
                    "column reference '{name}' is ambiguous ('{}' vs '{}')",
                    a.name, b.name
                )))
            }
            _ => {}
        }
    } else if let Some(leaf) = name.rsplit('.').next() {
        if let Some(c) = table
            .columns
            .iter()
            .find(|c| c.name.eq_ignore_ascii_case(leaf))
        {
            return Ok(c);
        }
    }
    Err(DbError::catalog(format!("no such column '{name}'")))
}

/// Map a scalar function over an evaluated value.
fn map_evaluated(
    v: Evaluated,
    name: &str,
    f: impl Fn(&SqlValue) -> Result<SqlValue, DbError>,
) -> Result<Evaluated, DbError> {
    Ok(match v {
        Evaluated::Scalar(s) => Evaluated::Scalar(f(&s)?),
        Evaluated::Column(c) => {
            let mut out = Vec::with_capacity(c.len());
            for i in 0..c.len() {
                out.push(f(&c.get(i))?);
            }
            Evaluated::Column(Column::from_values(name, &out)?)
        }
    })
}

fn apply_unary(op: UnaryOp, v: Evaluated) -> Result<Evaluated, DbError> {
    let f = move |s: &SqlValue| -> Result<SqlValue, DbError> {
        Ok(match (op, s) {
            (_, SqlValue::Null) => SqlValue::Null,
            // checked: -i64::MIN does not fit.
            (UnaryOp::Neg, SqlValue::Int(i)) => {
                SqlValue::Int(i.checked_neg().ok_or_else(overflow)?)
            }
            (UnaryOp::Neg, SqlValue::Double(d)) => SqlValue::Double(-d),
            (UnaryOp::Neg, SqlValue::Bool(b)) => SqlValue::Int(-(*b as i64)),
            (UnaryOp::Not, SqlValue::Bool(b)) => SqlValue::Bool(!b),
            (op, other) => {
                return Err(DbError::type_err(format!(
                    "cannot apply {op:?} to {}",
                    other.sql_type().map(|t| t.name()).unwrap_or("NULL")
                )))
            }
        })
    };
    map_evaluated(v, "unary", f)
}

fn apply_binary(op: BinaryOp, l: Evaluated, r: Evaluated) -> Result<Evaluated, DbError> {
    match (&l, &r) {
        (Evaluated::Scalar(a), Evaluated::Scalar(b)) => {
            Ok(Evaluated::Scalar(binary_values(op, a, b)?))
        }
        _ => {
            let len = match (l.column_len(), r.column_len()) {
                (Some(a), Some(b)) if a != b => {
                    return Err(DbError::exec(format!(
                        "operand column lengths differ ({a} vs {b})"
                    )))
                }
                (Some(a), _) => a,
                (_, Some(b)) => b,
                _ => unreachable!("scalar/scalar handled above"),
            };
            if let Some(done) = binary_fast(op, &l, &r) {
                return done;
            }
            let mut out = Vec::with_capacity(len);
            for i in 0..len {
                out.push(binary_values(op, &l.get(i), &r.get(i))?);
            }
            Ok(Evaluated::Column(Column::from_values(op.symbol(), &out)?))
        }
    }
}

/// One side of a typed kernel: a NULL-free column slice or a broadcast
/// scalar.
#[derive(Clone, Copy)]
enum Operand<'a, T> {
    Col(&'a [T]),
    Scalar(T),
}

/// Typed view of a NULL-free numeric operand for the columnar fast path.
#[derive(Clone, Copy)]
enum NumOperand<'a> {
    Int(Operand<'a, i64>),
    Float(Operand<'a, f64>),
}

/// Element types the kernels accept; comparisons and mixed arithmetic
/// promote through `f64`, like [`cmp_sql`] and [`binary_values`].
trait Num: Copy {
    fn to_f64(self) -> f64;
}

impl Num for i64 {
    fn to_f64(self) -> f64 {
        self as f64
    }
}

impl Num for f64 {
    fn to_f64(self) -> f64 {
        self
    }
}

fn num_operand(v: &Evaluated) -> Option<NumOperand<'_>> {
    use crate::types::ColumnData;
    match v {
        Evaluated::Scalar(SqlValue::Int(i)) => Some(NumOperand::Int(Operand::Scalar(*i))),
        // Booleans count as 0/1 integers, matching `as_int`.
        Evaluated::Scalar(SqlValue::Bool(b)) => Some(NumOperand::Int(Operand::Scalar(*b as i64))),
        Evaluated::Scalar(SqlValue::Double(d)) => Some(NumOperand::Float(Operand::Scalar(*d))),
        Evaluated::Column(c) if !c.has_nulls() => match &c.data {
            ColumnData::Int(v) => Some(NumOperand::Int(Operand::Col(v))),
            ColumnData::Double(v) => Some(NumOperand::Float(Operand::Col(v))),
            _ => None,
        },
        _ => None,
    }
}

/// Apply `f` elementwise. The operand shape is matched once, so each arm
/// is a tight slice loop the compiler specializes per kernel.
#[inline(always)]
fn map2<A: Copy, B: Copy, T>(a: Operand<A>, b: Operand<B>, f: impl Fn(A, B) -> T) -> Vec<T> {
    match (a, b) {
        (Operand::Col(x), Operand::Col(y)) => x.iter().zip(y).map(|(&x, &y)| f(x, y)).collect(),
        (Operand::Col(x), Operand::Scalar(k)) => x.iter().map(|&x| f(x, k)).collect(),
        (Operand::Scalar(k), Operand::Col(y)) => y.iter().map(|&y| f(k, y)).collect(),
        (Operand::Scalar(_), Operand::Scalar(_)) => {
            unreachable!("apply_binary evaluates scalar pairs directly")
        }
    }
}

/// [`map2`] for fallible kernels: stops at the first failing row, in row
/// order, exactly like the generic rowwise loop.
#[inline(always)]
fn try_map2<A: Copy, B: Copy, T>(
    a: Operand<A>,
    b: Operand<B>,
    f: impl Fn(A, B) -> Result<T, DbError>,
) -> Result<Vec<T>, DbError> {
    let mut out = Vec::new();
    match (a, b) {
        (Operand::Col(x), Operand::Col(y)) => {
            out.reserve(x.len());
            for (&x, &y) in x.iter().zip(y) {
                out.push(f(x, y)?);
            }
        }
        (Operand::Col(x), Operand::Scalar(k)) => {
            out.reserve(x.len());
            for &x in x {
                out.push(f(x, k)?);
            }
        }
        (Operand::Scalar(k), Operand::Col(y)) => {
            out.reserve(y.len());
            for &y in y {
                out.push(f(k, y)?);
            }
        }
        (Operand::Scalar(_), Operand::Scalar(_)) => {
            unreachable!("apply_binary evaluates scalar pairs directly")
        }
    }
    Ok(out)
}

/// Comparison kernel: every numeric pair is ordered through `f64`, and an
/// unordered pair (NaN) counts as equal, mirroring [`cmp_sql`].
fn compare<A: Num, B: Num>(op: BinaryOp, a: Operand<A>, b: Operand<B>) -> Vec<bool> {
    use BinaryOp::*;
    let ord = |x: A, y: B| {
        x.to_f64()
            .partial_cmp(&y.to_f64())
            .unwrap_or(Ordering::Equal)
    };
    match op {
        Eq => map2(a, b, |x, y| ord(x, y) == Ordering::Equal),
        NotEq => map2(a, b, |x, y| ord(x, y) != Ordering::Equal),
        Lt => map2(a, b, |x, y| ord(x, y) == Ordering::Less),
        Le => map2(a, b, |x, y| ord(x, y) != Ordering::Greater),
        Gt => map2(a, b, |x, y| ord(x, y) == Ordering::Greater),
        Ge => map2(a, b, |x, y| ord(x, y) != Ordering::Less),
        _ => unreachable!("compare() is only called with a comparison"),
    }
}

/// Checked integer arithmetic with [`binary_values`]' error strings.
/// `None` leaves the shape to the generic path.
fn int_arith(op: BinaryOp, a: Operand<i64>, b: Operand<i64>) -> Option<Result<Vec<i64>, DbError>> {
    use BinaryOp::*;
    Some(match op {
        Add => try_map2(a, b, |x, y| x.checked_add(y).ok_or_else(overflow)),
        Sub => try_map2(a, b, |x, y| x.checked_sub(y).ok_or_else(overflow)),
        Mul => try_map2(a, b, |x, y| x.checked_mul(y).ok_or_else(overflow)),
        Div => try_map2(a, b, |x, y| {
            if y == 0 {
                return Err(DbError::exec("division by zero"));
            }
            x.checked_div(y).ok_or_else(overflow)
        }),
        Mod => try_map2(a, b, |x, y| {
            if y == 0 {
                return Err(DbError::exec("modulo by zero"));
            }
            x.checked_rem(y).ok_or_else(overflow)
        }),
        FloorDiv => try_map2(a, b, |x, y| {
            if y == 0 {
                return Err(DbError::exec("integer division by zero"));
            }
            x.checked_div_euclid(y).ok_or_else(overflow)
        }),
        FloorMod => try_map2(a, b, |x, y| {
            if y == 0 {
                return Err(DbError::exec("modulo by zero"));
            }
            x.checked_rem_euclid(y).ok_or_else(overflow)
        }),
        // Pow with a columnar or negative exponent can go float per row;
        // leave those shapes to the generic path.
        Pow if matches!(b, Operand::Scalar(e) if e >= 0) => try_map2(a, b, |x, y| {
            let exp = u32::try_from(y).map_err(|_| DbError::exec("exponent too large"))?;
            x.checked_pow(exp).ok_or_else(overflow)
        }),
        _ => return None,
    })
}

/// Float arithmetic over any Int/Double mix (ints promote to `f64`).
fn float_arith<A: Num, B: Num>(
    op: BinaryOp,
    a: Operand<A>,
    b: Operand<B>,
) -> Option<Result<Vec<f64>, DbError>> {
    use BinaryOp::*;
    let nonzero = |y: f64, msg: &'static str| {
        if y == 0.0 {
            Err(DbError::exec(msg))
        } else {
            Ok(y)
        }
    };
    Some(match op {
        Add => Ok(map2(a, b, |x, y| x.to_f64() + y.to_f64())),
        Sub => Ok(map2(a, b, |x, y| x.to_f64() - y.to_f64())),
        Mul => Ok(map2(a, b, |x, y| x.to_f64() * y.to_f64())),
        Div => try_map2(a, b, |x, y| {
            Ok(x.to_f64() / nonzero(y.to_f64(), "division by zero")?)
        }),
        Mod => try_map2(a, b, |x, y| {
            Ok(x.to_f64() % nonzero(y.to_f64(), "modulo by zero")?)
        }),
        FloorDiv => try_map2(a, b, |x, y| {
            let y = nonzero(y.to_f64(), "float floor division by zero")?;
            Ok((x.to_f64() / y).floor())
        }),
        FloorMod => try_map2(a, b, |x, y| {
            let (x, y) = (x.to_f64(), nonzero(y.to_f64(), "float modulo by zero")?);
            Ok(x - y * (x / y).floor())
        }),
        Pow => Ok(map2(a, b, |x, y| x.to_f64().powf(y.to_f64()))),
        _ => return None,
    })
}

/// Columnar fast path over NULL-free numeric operands: same semantics and
/// error strings as [`binary_values`], without boxing each element into
/// `SqlValue`. The (operand shape × op) dispatch happens here, once, so
/// each kernel loop is a plain slice iteration. Returns `None` to fall
/// back to the generic rowwise loop.
fn binary_fast(op: BinaryOp, l: &Evaluated, r: &Evaluated) -> Option<Result<Evaluated, DbError>> {
    use crate::types::ColumnData;
    use BinaryOp::*;
    use NumOperand::{Float, Int};
    if matches!(op, And | Or) {
        return None;
    }
    let (a, b) = (num_operand(l)?, num_operand(r)?);
    let data = if matches!(op, Eq | NotEq | Lt | Le | Gt | Ge) {
        Ok(ColumnData::Bool(match (a, b) {
            (Int(x), Int(y)) => compare(op, x, y),
            (Int(x), Float(y)) => compare(op, x, y),
            (Float(x), Int(y)) => compare(op, x, y),
            (Float(x), Float(y)) => compare(op, x, y),
        }))
    } else {
        match (a, b) {
            (Int(x), Int(y)) => int_arith(op, x, y)?.map(ColumnData::Int),
            (Int(x), Float(y)) => float_arith(op, x, y)?.map(ColumnData::Double),
            (Float(x), Int(y)) => float_arith(op, x, y)?.map(ColumnData::Double),
            (Float(x), Float(y)) => float_arith(op, x, y)?.map(ColumnData::Double),
        }
    };
    Some(data.map(|d| Evaluated::Column(Column::new(op.symbol(), d))))
}

/// Scalar binary operation with SQL NULL propagation.
pub fn binary_values(op: BinaryOp, a: &SqlValue, b: &SqlValue) -> Result<SqlValue, DbError> {
    use BinaryOp::*;
    // Three-valued logic for AND/OR.
    if matches!(op, And | Or) {
        let truth = |v: &SqlValue| -> Result<Option<bool>, DbError> {
            Ok(match v {
                SqlValue::Null => None,
                SqlValue::Bool(b) => Some(*b),
                SqlValue::Int(i) => Some(*i != 0),
                other => {
                    return Err(DbError::type_err(format!(
                        "{} is not a boolean",
                        other.render()
                    )))
                }
            })
        };
        let (x, y) = (truth(a)?, truth(b)?);
        return Ok(match (op, x, y) {
            (And, Some(false), _) | (And, _, Some(false)) => SqlValue::Bool(false),
            (And, Some(true), Some(true)) => SqlValue::Bool(true),
            (Or, Some(true), _) | (Or, _, Some(true)) => SqlValue::Bool(true),
            (Or, Some(false), Some(false)) => SqlValue::Bool(false),
            _ => SqlValue::Null,
        });
    }
    if a.is_null() || b.is_null() {
        return Ok(SqlValue::Null);
    }
    // Comparisons.
    if matches!(op, Eq | NotEq | Lt | Le | Gt | Ge) {
        let ord = cmp_sql(a, b);
        return Ok(SqlValue::Bool(match op {
            Eq => ord == Ordering::Equal,
            NotEq => ord != Ordering::Equal,
            Lt => ord == Ordering::Less,
            Le => ord != Ordering::Greater,
            Gt => ord == Ordering::Greater,
            Ge => ord != Ordering::Less,
            _ => unreachable!(),
        }));
    }
    // String concatenation via `+`.
    if let (Add, SqlValue::Str(x), SqlValue::Str(y)) = (op, a, b) {
        return Ok(SqlValue::Str(format!("{x}{y}")));
    }
    // Arithmetic with int/double promotion. Booleans count as integers
    // (0/1), matching the interpreter's numeric coercion, so an inlined
    // `(a > b) + 1` agrees with pylite instead of silently going double.
    match (as_int(a), as_int(b)) {
        (Some(x), Some(y)) => {
            Ok(match op {
                Add => SqlValue::Int(x.checked_add(y).ok_or_else(overflow)?),
                Sub => SqlValue::Int(x.checked_sub(y).ok_or_else(overflow)?),
                Mul => SqlValue::Int(x.checked_mul(y).ok_or_else(overflow)?),
                Div => {
                    if y == 0 {
                        return Err(DbError::exec("division by zero"));
                    }
                    // Integer division truncates, SQL-style. checked:
                    // i64::MIN / -1 must error, not panic.
                    SqlValue::Int(x.checked_div(y).ok_or_else(overflow)?)
                }
                Mod => {
                    if y == 0 {
                        return Err(DbError::exec("modulo by zero"));
                    }
                    SqlValue::Int(x.checked_rem(y).ok_or_else(overflow)?)
                }
                FloorDiv => {
                    if y == 0 {
                        return Err(DbError::exec("integer division by zero"));
                    }
                    SqlValue::Int(x.checked_div_euclid(y).ok_or_else(overflow)?)
                }
                FloorMod => {
                    if y == 0 {
                        return Err(DbError::exec("modulo by zero"));
                    }
                    SqlValue::Int(x.checked_rem_euclid(y).ok_or_else(overflow)?)
                }
                Pow => {
                    if y >= 0 {
                        let exp =
                            u32::try_from(y).map_err(|_| DbError::exec("exponent too large"))?;
                        SqlValue::Int(x.checked_pow(exp).ok_or_else(overflow)?)
                    } else {
                        // Negative exponent goes float, Python-style.
                        SqlValue::Double((x as f64).powf(y as f64))
                    }
                }
                _ => return Err(bad_operands(op, a, b)),
            })
        }
        _ => {
            let x = to_f64(a).ok_or_else(|| bad_operands(op, a, b))?;
            let y = to_f64(b).ok_or_else(|| bad_operands(op, a, b))?;
            Ok(match op {
                Add => SqlValue::Double(x + y),
                Sub => SqlValue::Double(x - y),
                Mul => SqlValue::Double(x * y),
                Div => {
                    if y == 0.0 {
                        return Err(DbError::exec("division by zero"));
                    }
                    SqlValue::Double(x / y)
                }
                Mod => {
                    if y == 0.0 {
                        return Err(DbError::exec("modulo by zero"));
                    }
                    SqlValue::Double(x % y)
                }
                FloorDiv => {
                    if y == 0.0 {
                        return Err(DbError::exec("float floor division by zero"));
                    }
                    SqlValue::Double((x / y).floor())
                }
                FloorMod => {
                    if y == 0.0 {
                        return Err(DbError::exec("float modulo by zero"));
                    }
                    // Floor modulo: result carries the divisor's sign.
                    SqlValue::Double(x - y * (x / y).floor())
                }
                Pow => SqlValue::Double(x.powf(y)),
                _ => return Err(bad_operands(op, a, b)),
            })
        }
    }
}

/// Integer view of a value for arithmetic: Int as-is, Bool as 0/1.
fn as_int(v: &SqlValue) -> Option<i64> {
    match v {
        SqlValue::Int(i) => Some(*i),
        SqlValue::Bool(b) => Some(*b as i64),
        _ => None,
    }
}

fn overflow() -> DbError {
    DbError::exec("integer overflow")
}

fn bad_operands(op: BinaryOp, a: &SqlValue, b: &SqlValue) -> DbError {
    DbError::type_err(format!(
        "cannot apply {} to {} and {}",
        op.symbol(),
        a.sql_type().map(|t| t.name()).unwrap_or("NULL"),
        b.sql_type().map(|t| t.name()).unwrap_or("NULL"),
    ))
}

fn to_f64(v: &SqlValue) -> Option<f64> {
    match v {
        SqlValue::Int(i) => Some(*i as f64),
        SqlValue::Double(d) => Some(*d),
        SqlValue::Bool(b) => Some(*b as i64 as f64),
        _ => None,
    }
}

/// Total order over SQL values: NULL first, then numerics, strings, bools,
/// blobs; cross-type numeric comparison promotes to double.
pub fn cmp_sql(a: &SqlValue, b: &SqlValue) -> Ordering {
    match (a, b) {
        (SqlValue::Null, SqlValue::Null) => Ordering::Equal,
        (SqlValue::Null, _) => Ordering::Less,
        (_, SqlValue::Null) => Ordering::Greater,
        (SqlValue::Str(x), SqlValue::Str(y)) => x.cmp(y),
        (SqlValue::Bool(x), SqlValue::Bool(y)) => x.cmp(y),
        (SqlValue::Blob(x), SqlValue::Blob(y)) => x.cmp(y),
        _ => {
            let (x, y) = (to_f64(a), to_f64(b));
            match (x, y) {
                (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
                _ => format!("{a:?}").cmp(&format!("{b:?}")),
            }
        }
    }
}

/// Evaluate a WHERE predicate into a row mask. NULL counts as false.
pub fn predicate_mask(
    engine: &Engine,
    table: &Table,
    pred: &SqlExpr,
) -> Result<Vec<bool>, DbError> {
    match eval_expr(engine, Some(table), pred)? {
        Evaluated::Scalar(s) => {
            let keep = matches!(s, SqlValue::Bool(true) | SqlValue::Int(1));
            Ok(vec![keep; table.row_count()])
        }
        Evaluated::Column(c) => {
            if c.len() != table.row_count() {
                return Err(DbError::exec("predicate length mismatch"));
            }
            // Only a TRUE boolean keeps a row: a Bool vector is the mask
            // as is (NULL rows cleared), any other type keeps nothing.
            Ok(match c.data {
                crate::types::ColumnData::Bool(mut keep) => {
                    for (k, null) in keep.iter_mut().zip(&c.nulls) {
                        *k &= !null;
                    }
                    keep
                }
                _ => vec![false; c.len()],
            })
        }
    }
}

// ----------------------------------------------------------------------
// Function calls: aggregates, scalar builtins, stored UDFs
// ----------------------------------------------------------------------

fn eval_call(
    engine: &Engine,
    source: Option<&Table>,
    name: &str,
    args: &[SqlExpr],
) -> Result<Evaluated, DbError> {
    let lname = name.to_ascii_lowercase();
    if is_aggregate(&lname) {
        return eval_aggregate(engine, source, &lname, args);
    }
    if let Some(result) = eval_scalar_builtin(engine, source, &lname, args)? {
        return Ok(result);
    }
    // Stored UDF.
    let def = engine
        .get_function(name)?
        .ok_or_else(|| DbError::catalog(format!("no such function '{name}'")))?;
    if args.len() != def.params.len() {
        return Err(DbError::exec(format!(
            "function '{}' takes {} arguments, got {}",
            def.name,
            def.params.len(),
            args.len()
        )));
    }
    let mut inputs = Vec::with_capacity(args.len());
    for (arg, (pname, _)) in args.iter().zip(&def.params) {
        let input = match eval_expr(engine, source, arg)? {
            Evaluated::Column(c) => UdfInput::Column(c),
            Evaluated::Scalar(s) => UdfInput::Scalar(s),
        };
        inputs.push((pname.clone(), input));
    }

    // Input extraction interception (paper §2.2).
    if engine.extract_matches(&def.name) {
        engine.store_extracted(&inputs)?;
        return Err(DbError::exec(crate::engine::EXTRACT_SIGNAL));
    }

    // EXPLAIN ANALYZE disposition rows are recorded exactly where the
    // `monetlite.udf.*` counters bump, so plan rows and counters agree by
    // construction. "bailed"/"interpreted" is decided here but recorded
    // only after the interpreter finishes, with the full elapsed time.
    let udf_started = engine.analyze_active().then(std::time::Instant::now);
    let rows_in = inputs
        .iter()
        .map(|(_, i)| match i {
            UdfInput::Column(c) => c.len() as u64,
            UdfInput::Scalar(_) => 1,
        })
        .max()
        .unwrap_or(1);
    let record_udf = |disposition: &str, rows_out: u64| {
        if let Some(s) = udf_started {
            engine.analyze_record(
                "udf",
                format!("{} {disposition}", def.name),
                s.elapsed().as_nanos() as u64,
                rows_in,
                rows_out,
            );
        }
    };
    let rows_out_of = |v: &Evaluated| match v {
        Evaluated::Column(c) => c.len() as u64,
        Evaluated::Scalar(_) => 1,
    };
    let mut deferred_disposition: Option<&'static str> = None;

    // Froid-style inlining: straight-line bodies run as relational
    // expressions; anything else (or any runtime bail) falls through to
    // the interpreter below.
    if engine.inline_enabled() {
        let per_row = engine.model() == crate::engine::ExecutionModel::TupleAtATime;
        let plan = engine.udf_plan(&def);
        match &*plan {
            crate::inline::UdfPlan::Inlined(p) => {
                match crate::inline::run_inlined(engine, p, &inputs, per_row) {
                    crate::inline::InlineOutcome::Done(v) => {
                        obs::counter!("monetlite.udf.inlined").inc();
                        // Tuple-at-a-time calls the UDF once per source row;
                        // a row-independent body still yields one value per
                        // row, so broadcast scalar results.
                        let v = match v {
                            Evaluated::Scalar(s) if per_row => {
                                let rows = source.map(|t| t.row_count()).unwrap_or(1);
                                Evaluated::Column(Column::from_values(&def.name, &vec![s; rows])?)
                            }
                            other => other,
                        };
                        record_udf("inlined", rows_out_of(&v));
                        return Ok(v);
                    }
                    crate::inline::InlineOutcome::Bailed(_) => {
                        obs::counter!("monetlite.udf.bailed").inc();
                        deferred_disposition = Some("bailed");
                    }
                }
            }
            crate::inline::UdfPlan::Interpreted(_) => {
                obs::counter!("monetlite.udf.bailed").inc();
                deferred_disposition = Some("interpreted");
            }
        }
    }

    let result = match engine.model() {
        crate::engine::ExecutionModel::OperatorAtATime => {
            let out = udf::run_operator_at_a_time(engine, &def, &inputs)?;
            engine.append_udf_stdout(&out.stdout);
            match &out.value {
                pylite::Value::Array(_) | pylite::Value::List(_) | pylite::Value::Tuple(_) => {
                    Evaluated::Column(udf::py_to_column(&def.name, &out.value)?)
                }
                scalar => Evaluated::Scalar(udf::py_to_scalar(scalar)?),
            }
        }
        crate::engine::ExecutionModel::TupleAtATime => {
            let rows = source.map(|t| t.row_count()).unwrap_or(1);
            let (values, stdout) = udf::run_tuple_at_a_time(engine, &def, &inputs, rows)?;
            engine.append_udf_stdout(&stdout);
            let scalars: Result<Vec<SqlValue>, DbError> =
                values.iter().map(udf::py_to_scalar).collect();
            Evaluated::Column(Column::from_values(&def.name, &scalars?)?)
        }
    };
    if let Some(disposition) = deferred_disposition {
        record_udf(disposition, rows_out_of(&result));
    }
    Ok(result)
}

/// Aggregates reduce their argument column to a scalar.
fn eval_aggregate(
    engine: &Engine,
    source: Option<&Table>,
    name: &str,
    args: &[SqlExpr],
) -> Result<Evaluated, DbError> {
    let table = source
        .ok_or_else(|| DbError::exec(format!("aggregate {name}() requires a FROM clause")))?;
    // count(*) counts rows.
    if name == "count" && args.first() == Some(&SqlExpr::Star) {
        return Ok(Evaluated::Scalar(SqlValue::Int(table.row_count() as i64)));
    }
    if args.len() != 1 {
        return Err(DbError::exec(format!(
            "{name}() takes exactly one argument"
        )));
    }
    // A bare column reference folds in place; anything else materializes.
    let storage;
    let col: &Column = match &args[0] {
        SqlExpr::Column(name) => resolve_column(table, name)?,
        other => {
            storage =
                eval_expr(engine, Some(table), other)?.into_column("agg", table.row_count())?;
            &storage
        }
    };
    // Typed fast path: NULL-free numeric columns fold without boxing each
    // element into SqlValue. Semantics are bit-identical to the generic
    // loops below (same fold order, same overflow check). min/max stay
    // generic — their ordering goes through cmp_sql.
    if !col.has_nulls() && !col.is_empty() {
        use crate::types::ColumnData;
        match (&col.data, name) {
            (ColumnData::Int(_) | ColumnData::Double(_), "count") => {
                return Ok(Evaluated::Scalar(SqlValue::Int(col.len() as i64)))
            }
            (ColumnData::Int(v), "sum") => {
                let mut acc = 0i64;
                for &x in v {
                    acc = acc.checked_add(x).ok_or_else(overflow)?;
                }
                return Ok(Evaluated::Scalar(SqlValue::Int(acc)));
            }
            (ColumnData::Double(v), "sum") => {
                let mut acc = 0f64;
                for &x in v {
                    acc += x;
                }
                return Ok(Evaluated::Scalar(SqlValue::Double(acc)));
            }
            (ColumnData::Int(v), "avg") => {
                let mut acc = 0f64;
                for &x in v {
                    acc += x as f64;
                }
                return Ok(Evaluated::Scalar(SqlValue::Double(acc / v.len() as f64)));
            }
            (ColumnData::Double(v), "avg") => {
                let mut acc = 0f64;
                for &x in v {
                    acc += x;
                }
                return Ok(Evaluated::Scalar(SqlValue::Double(acc / v.len() as f64)));
            }
            _ => {}
        }
    }
    let non_null: Vec<SqlValue> = (0..col.len())
        .map(|i| col.get(i))
        .filter(|v| !v.is_null())
        .collect();
    if name == "count" {
        return Ok(Evaluated::Scalar(SqlValue::Int(non_null.len() as i64)));
    }
    if non_null.is_empty() {
        return Ok(Evaluated::Scalar(SqlValue::Null));
    }
    Ok(Evaluated::Scalar(match name {
        "sum" => {
            if non_null.iter().all(|v| matches!(v, SqlValue::Int(_))) {
                let mut acc = 0i64;
                for v in &non_null {
                    if let SqlValue::Int(i) = v {
                        acc = acc.checked_add(*i).ok_or_else(overflow)?;
                    }
                }
                SqlValue::Int(acc)
            } else {
                let mut acc = 0f64;
                for v in &non_null {
                    acc += to_f64(v)
                        .ok_or_else(|| DbError::type_err("sum() requires numeric values"))?;
                }
                SqlValue::Double(acc)
            }
        }
        "avg" => {
            let mut acc = 0f64;
            for v in &non_null {
                acc +=
                    to_f64(v).ok_or_else(|| DbError::type_err("avg() requires numeric values"))?;
            }
            SqlValue::Double(acc / non_null.len() as f64)
        }
        "min" => non_null
            .iter()
            .min_by(|a, b| cmp_sql(a, b))
            .cloned()
            .expect("non-empty"),
        "max" => non_null
            .iter()
            .max_by(|a, b| cmp_sql(a, b))
            .cloned()
            .expect("non-empty"),
        "median" => {
            let mut nums: Vec<f64> = non_null
                .iter()
                .map(|v| to_f64(v).ok_or_else(|| DbError::type_err("median() requires numbers")))
                .collect::<Result<_, _>>()?;
            nums.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
            let mid = nums.len() / 2;
            if nums.len() % 2 == 1 {
                SqlValue::Double(nums[mid])
            } else {
                SqlValue::Double((nums[mid - 1] + nums[mid]) / 2.0)
            }
        }
        _ => unreachable!("is_aggregate() gate"),
    }))
}

/// Scalar builtins evaluated rowwise. Returns Ok(None) when `name` is not a
/// builtin (the caller then tries stored UDFs).
fn eval_scalar_builtin(
    engine: &Engine,
    source: Option<&Table>,
    name: &str,
    args: &[SqlExpr],
) -> Result<Option<Evaluated>, DbError> {
    let unary =
        |f: fn(&SqlValue) -> Result<SqlValue, DbError>| -> Result<Option<Evaluated>, DbError> {
            if args.len() != 1 {
                return Err(DbError::exec(format!(
                    "{name}() takes exactly one argument"
                )));
            }
            let v = eval_expr(engine, source, &args[0])?;
            Ok(Some(map_evaluated(v, name, f)?))
        };
    match name {
        // Internal sequencing primitive used by UDF inlining: evaluate the
        // first argument only for its errors (division by zero, overflow),
        // then yield the second. Never produced by the SQL parser.
        "__seq" => {
            if args.len() != 2 {
                return Err(DbError::exec("__seq() takes exactly two arguments"));
            }
            eval_expr(engine, source, &args[0])?;
            Ok(Some(eval_expr(engine, source, &args[1])?))
        }
        "abs" => {
            if args.len() != 1 {
                return Err(DbError::exec(format!(
                    "{name}() takes exactly one argument"
                )));
            }
            let v = eval_expr(engine, source, &args[0])?;
            // Typed fast path over NULL-free numeric columns.
            if let Evaluated::Column(c) = &v {
                if !c.has_nulls() {
                    use crate::types::ColumnData;
                    match &c.data {
                        ColumnData::Int(ints) => {
                            let mut out = Vec::with_capacity(ints.len());
                            for &x in ints {
                                out.push(
                                    x.checked_abs().ok_or_else(|| {
                                        DbError::exec("integer overflow in abs()")
                                    })?,
                                );
                            }
                            return Ok(Some(Evaluated::Column(Column::new(
                                "abs",
                                ColumnData::Int(out),
                            ))));
                        }
                        ColumnData::Double(ds) => {
                            return Ok(Some(Evaluated::Column(Column::new(
                                "abs",
                                ColumnData::Double(ds.iter().map(|d| d.abs()).collect()),
                            ))));
                        }
                        _ => {}
                    }
                }
            }
            Ok(Some(map_evaluated(v, name, |v| {
                Ok(match v {
                    SqlValue::Null => SqlValue::Null,
                    SqlValue::Int(i) => SqlValue::Int(
                        i.checked_abs()
                            .ok_or_else(|| DbError::exec("integer overflow in abs()"))?,
                    ),
                    SqlValue::Double(d) => SqlValue::Double(d.abs()),
                    other => {
                        return Err(DbError::type_err(format!(
                            "abs({}) is invalid",
                            other.render()
                        )))
                    }
                })
            })?))
        }
        "length" => unary(|v| {
            Ok(match v {
                SqlValue::Null => SqlValue::Null,
                SqlValue::Str(s) => SqlValue::Int(s.chars().count() as i64),
                SqlValue::Blob(b) => SqlValue::Int(b.len() as i64),
                other => {
                    return Err(DbError::type_err(format!(
                        "length({}) is invalid",
                        other.render()
                    )))
                }
            })
        }),
        "upper" => unary(|v| {
            Ok(match v {
                SqlValue::Null => SqlValue::Null,
                SqlValue::Str(s) => SqlValue::Str(s.to_uppercase()),
                other => {
                    return Err(DbError::type_err(format!(
                        "upper({}) is invalid",
                        other.render()
                    )))
                }
            })
        }),
        "lower" => unary(|v| {
            Ok(match v {
                SqlValue::Null => SqlValue::Null,
                SqlValue::Str(s) => SqlValue::Str(s.to_lowercase()),
                other => {
                    return Err(DbError::type_err(format!(
                        "lower({}) is invalid",
                        other.render()
                    )))
                }
            })
        }),
        "sqrt" => unary(|v| {
            Ok(match v {
                SqlValue::Null => SqlValue::Null,
                other => {
                    let x = to_f64(other)
                        .ok_or_else(|| DbError::type_err("sqrt() requires a number"))?;
                    if x < 0.0 {
                        return Err(DbError::exec("sqrt() of a negative number"));
                    }
                    SqlValue::Double(x.sqrt())
                }
            })
        }),
        "floor" => unary(|v| {
            Ok(match v {
                SqlValue::Null => SqlValue::Null,
                other => SqlValue::Int(
                    to_f64(other)
                        .ok_or_else(|| DbError::type_err("floor() requires a number"))?
                        .floor() as i64,
                ),
            })
        }),
        "ceil" | "ceiling" => unary(|v| {
            Ok(match v {
                SqlValue::Null => SqlValue::Null,
                other => SqlValue::Int(
                    to_f64(other)
                        .ok_or_else(|| DbError::type_err("ceil() requires a number"))?
                        .ceil() as i64,
                ),
            })
        }),
        "round" => unary(|v| {
            Ok(match v {
                SqlValue::Null => SqlValue::Null,
                other => SqlValue::Double(
                    to_f64(other)
                        .ok_or_else(|| DbError::type_err("round() requires a number"))?
                        .round(),
                ),
            })
        }),
        _ => Ok(None),
    }
}

/// SQL LIKE matching with `%` (any run) and `_` (single char).
pub fn like_match(text: &str, pattern: &str) -> bool {
    fn matches(t: &[char], p: &[char]) -> bool {
        match (t.first(), p.first()) {
            (_, None) => t.is_empty(),
            (_, Some('%')) => {
                // Try consuming zero or more characters.
                (0..=t.len()).any(|skip| matches(&t[skip..], &p[1..]))
            }
            (None, _) => false,
            (Some(tc), Some('_')) => {
                let _ = tc;
                matches(&t[1..], &p[1..])
            }
            (Some(tc), Some(pc)) => tc.eq_ignore_ascii_case(pc) && matches(&t[1..], &p[1..]),
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    matches(&t, &p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use devharness::prop::{self, Config, Strategy};

    #[test]
    fn like_patterns() {
        assert!(like_match("mean_deviation", "mean%"));
        assert!(like_match("mean_deviation", "%deviation"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("anything", "%"));
        assert!(!like_match("short", "longer%pattern"));
        assert!(like_match("MiXeD", "mixed"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
    }

    #[test]
    fn binary_value_semantics() {
        use BinaryOp::*;
        assert_eq!(
            binary_values(Add, &SqlValue::Int(2), &SqlValue::Int(3)).unwrap(),
            SqlValue::Int(5)
        );
        assert_eq!(
            binary_values(Div, &SqlValue::Int(7), &SqlValue::Int(2)).unwrap(),
            SqlValue::Int(3)
        );
        assert_eq!(
            binary_values(Add, &SqlValue::Int(1), &SqlValue::Double(0.5)).unwrap(),
            SqlValue::Double(1.5)
        );
        assert_eq!(
            binary_values(Add, &SqlValue::Null, &SqlValue::Int(1)).unwrap(),
            SqlValue::Null
        );
        assert_eq!(
            binary_values(Eq, &SqlValue::Int(1), &SqlValue::Double(1.0)).unwrap(),
            SqlValue::Bool(true)
        );
        assert_eq!(
            binary_values(Add, &SqlValue::Str("a".into()), &SqlValue::Str("b".into())).unwrap(),
            SqlValue::Str("ab".into())
        );
        assert!(binary_values(Div, &SqlValue::Int(1), &SqlValue::Int(0)).is_err());
        let overflow = |op, a, b| binary_values(op, &SqlValue::Int(a), &SqlValue::Int(b));
        assert_eq!(
            overflow(Add, i64::MAX, 1).unwrap_err().message,
            "integer overflow"
        );
        assert_eq!(
            overflow(Div, i64::MIN, -1).unwrap_err().message,
            "integer overflow"
        );
        // Above 2^53, comparisons order through f64: adjacent integers tie.
        let big = 1i64 << 53;
        assert_eq!(
            binary_values(Eq, &SqlValue::Int(big), &SqlValue::Int(big + 1)).unwrap(),
            SqlValue::Bool(true)
        );
        // NaN is unordered and therefore compares "equal"; -0.0 == 0.0.
        let nan = SqlValue::Double(f64::NAN);
        assert_eq!(
            binary_values(Eq, &nan, &SqlValue::Int(3)).unwrap(),
            SqlValue::Bool(true)
        );
        assert_eq!(
            binary_values(Lt, &SqlValue::Double(-0.0), &SqlValue::Double(0.0)).unwrap(),
            SqlValue::Bool(false)
        );
    }

    /// Values at the kernels' edges: integer limits, integers f64 cannot
    /// represent exactly, NaN, signed zeros and infinities.
    fn edge_value() -> impl Strategy<Value = SqlValue> {
        let big = 1i64 << 53;
        let ints = [
            i64::MIN,
            i64::MIN + 1,
            -1,
            0,
            1,
            2,
            3,
            big,
            big + 1,
            i64::MAX,
        ];
        let doubles = [f64::NAN, -0.0, 0.0, 0.5, -2.5, 1e300, f64::INFINITY];
        prop::one_of(vec![
            prop::i64_in(-50..50).map(|v| SqlValue::Int(*v)).boxed(),
            prop::usize_in(0..ints.len())
                .map(move |i| SqlValue::Int(ints[*i]))
                .boxed(),
            prop::i64_in(-50..50)
                .map(|v| SqlValue::Double(*v as f64 / 4.0))
                .boxed(),
            prop::usize_in(0..doubles.len())
                .map(move |i| SqlValue::Double(doubles[*i]))
                .boxed(),
        ])
    }

    fn same_value(a: &SqlValue, b: &SqlValue) -> bool {
        match (a, b) {
            (SqlValue::Double(x), SqlValue::Double(y)) => {
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
            }
            _ => a == b,
        }
    }

    /// Differential check of every typed `binary_fast` shape (col×scalar,
    /// scalar×col, col×col; Int/Double mixes; every comparison and
    /// arithmetic op) against `binary_values` applied row by row: same
    /// values, bit for bit, and the same first error in row order.
    #[test]
    fn typed_kernels_match_rowwise_binary_values() {
        use BinaryOp::*;
        const OPS: [BinaryOp; 14] = [
            Eq, NotEq, Lt, Le, Gt, Ge, Add, Sub, Mul, Div, Mod, FloorDiv, FloorMod, Pow,
        ];
        // A side is (Int-typed?, Bool scalar?, values); a column takes one
        // type throughout, a scalar side uses the first value.
        let side = || {
            (
                prop::any_bool(),
                prop::any_bool(),
                prop::vec_of(edge_value(), 1..6),
            )
        };
        let strategy = (
            prop::usize_in(0..OPS.len()),
            side(),
            side(),
            prop::usize_in(0..3),
        );
        let operand = |(is_int, as_bool, values): &(bool, bool, Vec<SqlValue>), col, n| {
            let typed: Vec<SqlValue> = values[..n]
                .iter()
                .map(|v| match (v, is_int) {
                    (SqlValue::Int(i), false) => SqlValue::Double(*i as f64),
                    (SqlValue::Double(d), true) => SqlValue::Int(*d as i64),
                    _ => v.clone(),
                })
                .collect();
            if col {
                Evaluated::Column(Column::from_values("c", &typed).unwrap())
            } else if *as_bool && *is_int {
                Evaluated::Scalar(SqlValue::Bool(typed[0] == SqlValue::Int(1)))
            } else {
                Evaluated::Scalar(typed[0].clone())
            }
        };
        prop::check(Config::cases(4096), strategy, |(op, l, r, shape)| {
            // shape 0: col×scalar, 1: scalar×col, 2: col×col.
            let n = l.2.len().min(r.2.len());
            let (a, b) = (operand(l, *shape != 1, n), operand(r, *shape != 0, n));
            check_shape(OPS[*op], &a, &b, n)
        });
    }

    fn check_shape(op: BinaryOp, a: &Evaluated, b: &Evaluated, len: usize) -> Result<(), String> {
        let rowwise: Result<Vec<SqlValue>, DbError> = (0..len)
            .map(|i| binary_values(op, &a.get(i), &b.get(i)))
            .collect();
        let Some(fast) = binary_fast(op, a, b) else {
            // Only integer Pow without a non-negative scalar exponent
            // falls back; everything else must take a typed kernel.
            let int_pow = op == BinaryOp::Pow
                && [a, b].iter().all(|e| match e {
                    Evaluated::Column(c) => c.sql_type() == crate::types::SqlType::Integer,
                    Evaluated::Scalar(s) => matches!(s, SqlValue::Int(_) | SqlValue::Bool(_)),
                });
            return if int_pow {
                Ok(())
            } else {
                Err(format!("{op:?} fell back on {a:?} / {b:?}"))
            };
        };
        match (fast, rowwise) {
            (Ok(Evaluated::Column(got)), Ok(want)) => {
                if got.len() != len {
                    return Err(format!("{op:?}: {} rows, expected {len}", got.len()));
                }
                for (i, w) in want.iter().enumerate() {
                    if !same_value(&got.get(i), w) {
                        return Err(format!(
                            "{op:?} row {i} on {a:?} / {b:?}: fast {:?}, rowwise {w:?}",
                            got.get(i)
                        ));
                    }
                }
                Ok(())
            }
            (Err(got), Err(want)) if got.message == want.message && got.code == want.code => Ok(()),
            (got, want) => Err(format!(
                "{op:?} on {a:?} / {b:?}: fast {got:?}, rowwise {want:?}"
            )),
        }
    }

    #[test]
    fn three_valued_logic() {
        use BinaryOp::*;
        let t = SqlValue::Bool(true);
        let f = SqlValue::Bool(false);
        let n = SqlValue::Null;
        assert_eq!(binary_values(And, &f, &n).unwrap(), SqlValue::Bool(false));
        assert_eq!(binary_values(And, &t, &n).unwrap(), SqlValue::Null);
        assert_eq!(binary_values(Or, &t, &n).unwrap(), SqlValue::Bool(true));
        assert_eq!(binary_values(Or, &f, &n).unwrap(), SqlValue::Null);
    }

    #[test]
    fn cmp_orders_nulls_first() {
        assert_eq!(
            cmp_sql(&SqlValue::Null, &SqlValue::Int(-999)),
            Ordering::Less
        );
        assert_eq!(
            cmp_sql(&SqlValue::Int(2), &SqlValue::Double(1.5)),
            Ordering::Greater
        );
        assert_eq!(
            cmp_sql(&SqlValue::Str("a".into()), &SqlValue::Str("b".into())),
            Ordering::Less
        );
    }
}

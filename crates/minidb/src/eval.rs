//! Expression evaluation with SQL three-valued logic.
//!
//! The engine never evaluates the parser's [`Expr`] directly: BIND resolves
//! every column name to its row ordinal once ([`bind_expr`]) and a run
//! evaluates the resulting [`BoundExpr`] **by reference** — a column, a
//! literal or a parameter is borrowed, never cloned, so a predicate over a
//! VARCHAR column compares strings in place.

use std::borrow::Cow;

use crate::error::{DbError, DbResult};
use crate::schema::TableSchema;
use crate::sql::ast::{ArithOp, CmpOp, Expr};
use crate::value::Value;

/// An [`Expr`] whose column references are row ordinals.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Literal value.
    Lit(Value),
    /// Column, by position in the table's row layout.
    Col(usize),
    /// Positional parameter marker (0-based).
    Param(usize),
    /// Comparison.
    Cmp(Box<BoundExpr>, CmpOp, Box<BoundExpr>),
    /// Conjunction.
    And(Box<BoundExpr>, Box<BoundExpr>),
    /// Disjunction.
    Or(Box<BoundExpr>, Box<BoundExpr>),
    /// Negation.
    Not(Box<BoundExpr>),
    /// `expr IS NULL` (`negated` for IS NOT NULL).
    IsNull(Box<BoundExpr>, bool),
    /// Integer arithmetic.
    Arith(Box<BoundExpr>, ArithOp, Box<BoundExpr>),
}

/// Resolve `expr`'s column references against `schema`. `None` binds an
/// expression that may not reference columns at all (INSERT values, index
/// probe values).
pub fn bind_expr(expr: &Expr, schema: Option<&TableSchema>) -> DbResult<BoundExpr> {
    let pair = |l: &Expr, r: &Expr| -> DbResult<(Box<BoundExpr>, Box<BoundExpr>)> {
        Ok((Box::new(bind_expr(l, schema)?), Box::new(bind_expr(r, schema)?)))
    };
    Ok(match expr {
        Expr::Lit(v) => BoundExpr::Lit(v.clone()),
        Expr::Col(name) => match schema {
            Some(schema) => BoundExpr::Col(schema.col_index(name)?),
            None => {
                return Err(DbError::Plan(format!("column {name} referenced where no row exists")))
            }
        },
        Expr::Param(i) => BoundExpr::Param(*i),
        Expr::Cmp(l, op, r) => {
            let (l, r) = pair(l, r)?;
            BoundExpr::Cmp(l, *op, r)
        }
        Expr::And(l, r) => {
            let (l, r) = pair(l, r)?;
            BoundExpr::And(l, r)
        }
        Expr::Or(l, r) => {
            let (l, r) = pair(l, r)?;
            BoundExpr::Or(l, r)
        }
        Expr::Not(inner) => BoundExpr::Not(Box::new(bind_expr(inner, schema)?)),
        Expr::IsNull(inner, negated) => {
            BoundExpr::IsNull(Box::new(bind_expr(inner, schema)?), *negated)
        }
        Expr::Arith(l, op, r) => {
            let (l, r) = pair(l, r)?;
            BoundExpr::Arith(l, *op, r)
        }
    })
}

/// Evaluate `expr` against a row. Comparison/logic operators follow SQL
/// three-valued logic; unknown is represented as `Value::Null`. Leaves are
/// borrowed from the statement, the row or the parameters; only computed
/// results (booleans, integers — never heap data) are owned.
pub fn eval<'a>(
    expr: &'a BoundExpr,
    row: &'a [Value],
    params: &'a [Value],
) -> DbResult<Cow<'a, Value>> {
    let owned = |v: Value| Ok(Cow::Owned(v));
    match expr {
        BoundExpr::Lit(v) => Ok(Cow::Borrowed(v)),
        BoundExpr::Col(i) => row
            .get(*i)
            .map(Cow::Borrowed)
            .ok_or_else(|| DbError::Internal(format!("row has no column #{i}"))),
        BoundExpr::Param(i) => params.get(*i).map(Cow::Borrowed).ok_or(DbError::MissingParam(*i)),
        BoundExpr::Cmp(l, op, r) => {
            let lv = eval(l, row, params)?;
            let rv = eval(r, row, params)?;
            owned(match lv.sql_cmp(&rv) {
                None => Value::Null,
                Some(ord) => Value::Bool(op.eval(ord)),
            })
        }
        BoundExpr::And(l, r) => {
            let lv = as_tv(eval(l, row, params)?.as_ref())?;
            let rv = as_tv(eval(r, row, params)?.as_ref())?;
            owned(match (lv, rv) {
                (Some(false), _) | (_, Some(false)) => Value::Bool(false),
                (Some(true), Some(true)) => Value::Bool(true),
                _ => Value::Null,
            })
        }
        BoundExpr::Or(l, r) => {
            let lv = as_tv(eval(l, row, params)?.as_ref())?;
            let rv = as_tv(eval(r, row, params)?.as_ref())?;
            owned(match (lv, rv) {
                (Some(true), _) | (_, Some(true)) => Value::Bool(true),
                (Some(false), Some(false)) => Value::Bool(false),
                _ => Value::Null,
            })
        }
        BoundExpr::Not(inner) => match eval(inner, row, params)?.as_ref() {
            Value::Null => owned(Value::Null),
            Value::Bool(b) => owned(Value::Bool(!b)),
            other => Err(DbError::Type(format!("NOT applied to {other}"))),
        },
        BoundExpr::IsNull(inner, negated) => {
            let is_null = eval(inner, row, params)?.is_null();
            owned(Value::Bool(is_null != *negated))
        }
        BoundExpr::Arith(l, op, r) => {
            let lv = eval(l, row, params)?;
            let rv = eval(r, row, params)?;
            if lv.is_null() || rv.is_null() {
                return owned(Value::Null);
            }
            let a = lv.as_int()?;
            let b = rv.as_int()?;
            let out = match op {
                ArithOp::Add => a.checked_add(b),
                ArithOp::Sub => a.checked_sub(b),
            }
            .ok_or_else(|| DbError::Type("integer overflow".into()))?;
            owned(Value::Int(out))
        }
    }
}

fn as_tv(v: &Value) -> DbResult<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(DbError::Type(format!("boolean expected, found {other}"))),
    }
}

/// Evaluate a predicate: unknown (NULL) filters the row out, as in SQL.
pub fn eval_pred(expr: &BoundExpr, row: &[Value], params: &[Value]) -> DbResult<bool> {
    match eval(expr, row, params)?.as_ref() {
        Value::Bool(b) => Ok(*b),
        Value::Null => Ok(false),
        other => Err(DbError::Type(format!("predicate evaluated to {other}"))),
    }
}

/// Evaluate an expression that must not reference columns (e.g. INSERT
/// values) straight from the AST — for layers that inspect a statement
/// before running it.
pub fn eval_standalone(expr: &Expr, params: &[Value]) -> DbResult<Value> {
    Ok(eval(&bind_expr(expr, None)?, &[], params)?.into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableId};
    use crate::value::DataType;

    fn schema() -> TableSchema {
        TableSchema {
            id: TableId(1),
            name: "t".into(),
            columns: vec![
                ColumnDef::not_null("a", DataType::BigInt),
                ColumnDef::new("b", DataType::Varchar),
            ],
        }
    }

    /// Bind against the test schema, then evaluate.
    fn eval(e: &Expr, s: &TableSchema, row: &[Value], params: &[Value]) -> DbResult<Value> {
        Ok(super::eval(&bind_expr(e, Some(s))?, row, params)?.into_owned())
    }

    fn eval_pred(e: &Expr, s: &TableSchema, row: &[Value], params: &[Value]) -> DbResult<bool> {
        super::eval_pred(&bind_expr(e, Some(s))?, row, params)
    }

    fn cmp(l: Expr, op: CmpOp, r: Expr) -> Expr {
        Expr::Cmp(Box::new(l), op, Box::new(r))
    }

    #[test]
    fn column_and_literal() {
        let s = schema();
        let row = vec![Value::Int(5), Value::str("x")];
        let e = cmp(Expr::Col("a".into()), CmpOp::Gt, Expr::Lit(Value::Int(3)));
        assert_eq!(eval(&e, &s, &row, &[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn null_propagates_through_comparison() {
        let s = schema();
        let row = vec![Value::Int(5), Value::Null];
        let e = cmp(Expr::Col("b".into()), CmpOp::Eq, Expr::Lit(Value::str("x")));
        assert_eq!(eval(&e, &s, &row, &[]).unwrap(), Value::Null);
        assert!(!eval_pred(&e, &s, &row, &[]).unwrap());
    }

    #[test]
    fn three_valued_logic_tables() {
        let s = schema();
        let row = vec![Value::Int(1), Value::Null];
        let null_pred = cmp(Expr::Col("b".into()), CmpOp::Eq, Expr::Lit(Value::str("x")));
        let true_pred = cmp(Expr::Col("a".into()), CmpOp::Eq, Expr::Lit(Value::Int(1)));
        let false_pred = cmp(Expr::Col("a".into()), CmpOp::Eq, Expr::Lit(Value::Int(2)));
        // NULL AND FALSE = FALSE
        let e = Expr::And(Box::new(null_pred.clone()), Box::new(false_pred.clone()));
        assert_eq!(eval(&e, &s, &row, &[]).unwrap(), Value::Bool(false));
        // NULL AND TRUE = NULL
        let e = Expr::And(Box::new(null_pred.clone()), Box::new(true_pred.clone()));
        assert_eq!(eval(&e, &s, &row, &[]).unwrap(), Value::Null);
        // NULL OR TRUE = TRUE
        let e = Expr::Or(Box::new(null_pred.clone()), Box::new(true_pred));
        assert_eq!(eval(&e, &s, &row, &[]).unwrap(), Value::Bool(true));
        // NOT NULL = NULL
        let e = Expr::Not(Box::new(null_pred));
        assert_eq!(eval(&e, &s, &row, &[]).unwrap(), Value::Null);
    }

    #[test]
    fn is_null_predicates() {
        let s = schema();
        let row = vec![Value::Int(1), Value::Null];
        let e = Expr::IsNull(Box::new(Expr::Col("b".into())), false);
        assert_eq!(eval(&e, &s, &row, &[]).unwrap(), Value::Bool(true));
        let e = Expr::IsNull(Box::new(Expr::Col("b".into())), true);
        assert_eq!(eval(&e, &s, &row, &[]).unwrap(), Value::Bool(false));
    }

    #[test]
    fn params_resolve() {
        let s = schema();
        let row = vec![Value::Int(7), Value::Null];
        let e = cmp(Expr::Col("a".into()), CmpOp::Eq, Expr::Param(0));
        assert_eq!(eval(&e, &s, &row, &[Value::Int(7)]).unwrap(), Value::Bool(true));
        assert!(matches!(eval(&e, &s, &row, &[]), Err(DbError::MissingParam(0))));
    }

    #[test]
    fn arithmetic() {
        let e = Expr::Arith(
            Box::new(Expr::Lit(Value::Int(40))),
            ArithOp::Add,
            Box::new(Expr::Lit(Value::Int(2))),
        );
        assert_eq!(eval_standalone(&e, &[]).unwrap(), Value::Int(42));
        let o = Expr::Arith(
            Box::new(Expr::Lit(Value::Int(i64::MAX))),
            ArithOp::Add,
            Box::new(Expr::Lit(Value::Int(1))),
        );
        assert!(eval_standalone(&o, &[]).is_err());
    }

    #[test]
    fn type_errors_reported() {
        let s = schema();
        let row = vec![Value::Int(1), Value::str("x")];
        let e = Expr::Not(Box::new(Expr::Col("a".into())));
        assert!(matches!(eval(&e, &s, &row, &[]), Err(DbError::Type(_))));
    }
}

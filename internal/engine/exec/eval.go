// Package exec executes logical plans from internal/engine/plan as a tree
// of batch iterators: each operator pulls column batches — typed vectors
// plus a selection — from its input via Open/NextBatch/Close, so results
// stream from the storage cursor to the caller without materializing
// intermediate row sets (except where the operator is inherently
// blocking: sort, aggregation, a join's build side), and no operator
// boxes rows: Drain copies the root's batches into the result, typed.
//
// It also owns SQL expression evaluation under three-valued logic (NULL
// comparisons yield UNKNOWN, which filters the row out), shared with the
// engine's DML paths.
package exec

import (
	"fmt"

	"crowddb/internal/engine/plan"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// Tribool is SQL three-valued logic.
type Tribool uint8

const (
	TriFalse Tribool = iota
	TriTrue
	TriUnknown
)

func triOf(b bool) Tribool {
	if b {
		return TriTrue
	}
	return TriFalse
}

// Not is 3VL negation (UNKNOWN stays UNKNOWN).
func (t Tribool) Not() Tribool {
	switch t {
	case TriTrue:
		return TriFalse
	case TriFalse:
		return TriTrue
	default:
		return TriUnknown
	}
}

// And is 3VL conjunction.
func (t Tribool) And(o Tribool) Tribool {
	if t == TriFalse || o == TriFalse {
		return TriFalse
	}
	if t == TriUnknown || o == TriUnknown {
		return TriUnknown
	}
	return TriTrue
}

// Or is 3VL disjunction.
func (t Tribool) Or(o Tribool) Tribool {
	if t == TriTrue || o == TriTrue {
		return TriTrue
	}
	if t == TriUnknown || o == TriUnknown {
		return TriUnknown
	}
	return TriFalse
}

// Env resolves column references during expression evaluation. It is
// handed the reference node itself, so an implementation can resolve
// names once per query and key its bindings on the node.
type Env interface {
	Lookup(ref *sqlparse.ColumnRef) (storage.Value, error)
}

// EvalValue computes a scalar expression for one row.
func EvalValue(e sqlparse.Expr, env Env) (storage.Value, error) {
	switch n := e.(type) {
	case *sqlparse.Literal:
		return literalValue(n), nil
	case *sqlparse.ColumnRef:
		return env.Lookup(n)
	case *sqlparse.UnaryExpr:
		switch n.Op {
		case "-":
			v, err := EvalValue(n.Expr, env)
			if err != nil {
				return storage.Null(), err
			}
			if v.IsNull() {
				return storage.Null(), nil
			}
			if i, ok := v.AsInt(); ok && v.Kind() == storage.KindInt {
				return storage.Int(-i), nil
			}
			if f, ok := v.AsFloat(); ok {
				return storage.Float(-f), nil
			}
			return storage.Null(), fmt.Errorf("engine: cannot negate %s value", v.Kind())
		case "NOT":
			t, err := EvalPredicate(n, env)
			if err != nil {
				return storage.Null(), err
			}
			return triValue(t), nil
		}
		return storage.Null(), fmt.Errorf("engine: unknown unary operator %q", n.Op)
	case *sqlparse.BinaryExpr:
		switch n.Op {
		case "AND", "OR", "=", "!=", "<", "<=", ">", ">=":
			t, err := EvalPredicate(n, env)
			if err != nil {
				return storage.Null(), err
			}
			return triValue(t), nil
		case "+", "-", "*", "/":
			return evalArith(n, env)
		}
		return storage.Null(), fmt.Errorf("engine: unknown binary operator %q", n.Op)
	case *sqlparse.IsNullExpr:
		t, err := EvalPredicate(n, env)
		if err != nil {
			return storage.Null(), err
		}
		return triValue(t), nil
	default:
		return storage.Null(), fmt.Errorf("engine: unsupported expression %T", e)
	}
}

func triValue(t Tribool) storage.Value {
	switch t {
	case TriTrue:
		return storage.Bool(true)
	case TriFalse:
		return storage.Bool(false)
	default:
		return storage.Null()
	}
}

// literalValue delegates to the planner's single authoritative
// Literal→Value switch, so the evaluator and the index-probe paths can
// never disagree about a literal's storage value.
func literalValue(l *sqlparse.Literal) storage.Value { return plan.LitValue(l) }

func evalArith(n *sqlparse.BinaryExpr, env Env) (storage.Value, error) {
	l, err := EvalValue(n.Left, env)
	if err != nil {
		return storage.Null(), err
	}
	r, err := EvalValue(n.Right, env)
	if err != nil {
		return storage.Null(), err
	}
	if l.IsNull() || r.IsNull() {
		return storage.Null(), nil
	}
	lf, ok1 := l.AsFloat()
	rf, ok2 := r.AsFloat()
	if !ok1 || !ok2 {
		return storage.Null(), fmt.Errorf("engine: arithmetic on non-numeric values (%s %s %s)", l.Kind(), n.Op, r.Kind())
	}
	bothInt := l.Kind() == storage.KindInt && r.Kind() == storage.KindInt
	switch n.Op {
	case "+":
		if bothInt {
			li, _ := l.AsInt()
			ri, _ := r.AsInt()
			return storage.Int(li + ri), nil
		}
		return storage.Float(lf + rf), nil
	case "-":
		if bothInt {
			li, _ := l.AsInt()
			ri, _ := r.AsInt()
			return storage.Int(li - ri), nil
		}
		return storage.Float(lf - rf), nil
	case "*":
		if bothInt {
			li, _ := l.AsInt()
			ri, _ := r.AsInt()
			return storage.Int(li * ri), nil
		}
		return storage.Float(lf * rf), nil
	case "/":
		if rf == 0 {
			return storage.Null(), fmt.Errorf("engine: division by zero")
		}
		return storage.Float(lf / rf), nil
	}
	return storage.Null(), fmt.Errorf("engine: unknown arithmetic operator %q", n.Op)
}

// EvalPredicate computes a boolean expression under three-valued logic.
func EvalPredicate(e sqlparse.Expr, env Env) (Tribool, error) {
	switch n := e.(type) {
	case *sqlparse.Literal:
		if n.Kind == sqlparse.LitNull {
			return TriUnknown, nil
		}
		if n.Kind == sqlparse.LitBool {
			return triOf(n.Bool), nil
		}
		return TriFalse, fmt.Errorf("engine: %s literal used as predicate", n.String())
	case *sqlparse.ColumnRef:
		v, err := env.Lookup(n)
		if err != nil {
			return TriFalse, err
		}
		if v.IsNull() {
			return TriUnknown, nil
		}
		if b, ok := v.AsBool(); ok {
			return triOf(b), nil
		}
		return TriFalse, fmt.Errorf("engine: column %q is not boolean", n.Name)
	case *sqlparse.UnaryExpr:
		if n.Op == "NOT" {
			t, err := EvalPredicate(n.Expr, env)
			if err != nil {
				return TriFalse, err
			}
			return t.Not(), nil
		}
		return TriFalse, fmt.Errorf("engine: %q used as predicate", n.Op)
	case *sqlparse.IsNullExpr:
		v, err := EvalValue(n.Expr, env)
		if err != nil {
			return TriFalse, err
		}
		isNull := v.IsNull()
		if n.Negate {
			return triOf(!isNull), nil
		}
		return triOf(isNull), nil
	case *sqlparse.BinaryExpr:
		switch n.Op {
		case "AND":
			l, err := EvalPredicate(n.Left, env)
			if err != nil {
				return TriFalse, err
			}
			r, err := EvalPredicate(n.Right, env)
			if err != nil {
				return TriFalse, err
			}
			return l.And(r), nil
		case "OR":
			l, err := EvalPredicate(n.Left, env)
			if err != nil {
				return TriFalse, err
			}
			r, err := EvalPredicate(n.Right, env)
			if err != nil {
				return TriFalse, err
			}
			return l.Or(r), nil
		case "=", "!=", "<", "<=", ">", ">=":
			l, err := EvalValue(n.Left, env)
			if err != nil {
				return TriFalse, err
			}
			r, err := EvalValue(n.Right, env)
			if err != nil {
				return TriFalse, err
			}
			if l.IsNull() || r.IsNull() {
				return TriUnknown, nil
			}
			switch n.Op {
			case "=":
				return triOf(l.Equal(r)), nil
			case "!=":
				return triOf(!l.Equal(r)), nil
			default:
				c, err := l.Compare(r)
				if err != nil {
					return TriFalse, err
				}
				switch n.Op {
				case "<":
					return triOf(c < 0), nil
				case "<=":
					return triOf(c <= 0), nil
				case ">":
					return triOf(c > 0), nil
				case ">=":
					return triOf(c >= 0), nil
				}
			}
		}
		return TriFalse, fmt.Errorf("engine: operator %q used as predicate", n.Op)
	default:
		return TriFalse, fmt.Errorf("engine: unsupported predicate %T", e)
	}
}

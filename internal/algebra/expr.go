// Package algebra implements the relational algebra layer: expression
// compilation and evaluation, logical query plans for SPJ expressions
// (plus aggregation), a planner that lowers parsed SQL to plans, a
// heuristic optimizer (Section 5.2 of the paper names "select before
// join" and pushing cheap predicates first as the intended strategy), and
// a materializing executor.
package algebra

import (
	"errors"
	"fmt"
	"math"

	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
)

// Errors returned by expression compilation and evaluation.
var (
	ErrUnknownColumn = errors.New("algebra: unknown column")
	ErrTypeMismatch  = errors.New("algebra: type mismatch")
	ErrNotBoolean    = errors.New("algebra: predicate is not boolean")
	ErrDivideByZero  = errors.New("algebra: division by zero")
	ErrAggregate     = errors.New("algebra: aggregate in row-level expression")
)

// CompiledExpr is an expression bound to a schema, ready to evaluate
// against tuples of that schema.
type CompiledExpr interface {
	Eval(t relation.Tuple) (relation.Value, error)
	// Type is the static result type (best effort; TFloat for mixed math).
	Type() relation.Type
	String() string
}

// Compile binds a parsed expression to a schema, resolving column
// references to positions. Aggregate calls are rejected (they are handled
// by the Aggregate plan node, not row-level evaluation).
func Compile(e sql.Expr, schema relation.Schema) (CompiledExpr, error) {
	switch ex := e.(type) {
	case *sql.Literal:
		return litExpr{v: ex.Value}, nil
	case *sql.ColumnRef:
		idx, ok := schema.ColIndex(ex.Name)
		if !ok {
			return nil, fmt.Errorf("%w: %q in %s", ErrUnknownColumn, ex.Name, schema)
		}
		return colExpr{name: ex.Name, idx: idx, typ: schema.Col(idx).Type}, nil
	case *sql.UnaryExpr:
		inner, err := Compile(ex.E, schema)
		if err != nil {
			return nil, err
		}
		return unaryExpr{op: ex.Op, e: inner}, nil
	case *sql.BinaryExpr:
		l, err := Compile(ex.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := Compile(ex.R, schema)
		if err != nil {
			return nil, err
		}
		return binExpr{op: ex.Op, l: l, r: r, cmp: resolveColCmp(ex.Op, l, r)}, nil
	case *sql.FuncCall:
		if sql.AggregateFuncs[ex.Name] {
			return nil, fmt.Errorf("%w: %s", ErrAggregate, ex.Name)
		}
		if ex.Name == "ABS" {
			inner, err := Compile(ex.Arg, schema)
			if err != nil {
				return nil, err
			}
			return absExpr{e: inner}, nil
		}
		return nil, fmt.Errorf("algebra: unknown function %s", ex.Name)
	default:
		return nil, fmt.Errorf("algebra: cannot compile %T", e)
	}
}

// EvalPredicate evaluates a compiled expression as a predicate: NULL and
// non-boolean results are rejected, except NULL which is treated as false
// (SQL's unknown collapses to "do not select").
func EvalPredicate(e CompiledExpr, t relation.Tuple) (bool, error) {
	v, err := e.Eval(t)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	if v.Kind != relation.TBool {
		return false, fmt.Errorf("%w: got %s", ErrNotBoolean, v.Kind)
	}
	return v.AsBool(), nil
}

type litExpr struct{ v relation.Value }

func (l litExpr) Eval(relation.Tuple) (relation.Value, error) { return l.v, nil }
func (l litExpr) Type() relation.Type                         { return l.v.Kind }
func (l litExpr) String() string                              { return l.v.String() }

type colExpr struct {
	name string
	idx  int
	typ  relation.Type
}

func (c colExpr) Eval(t relation.Tuple) (relation.Value, error) {
	if c.idx >= len(t.Values) {
		return relation.Value{}, fmt.Errorf("%w: %q out of range", ErrUnknownColumn, c.name)
	}
	return t.Values[c.idx], nil
}
func (c colExpr) Type() relation.Type { return c.typ }
func (c colExpr) String() string      { return c.name }

type unaryExpr struct {
	op string
	e  CompiledExpr
}

func (u unaryExpr) Eval(t relation.Tuple) (relation.Value, error) {
	v, err := u.e.Eval(t)
	if err != nil {
		return relation.Value{}, err
	}
	if v.IsNull() {
		return relation.NullValue(), nil
	}
	switch u.op {
	case "NOT":
		if v.Kind != relation.TBool {
			return relation.Value{}, fmt.Errorf("%w: NOT applied to %s", ErrTypeMismatch, v.Kind)
		}
		return relation.Bool(!v.AsBool()), nil
	case "-":
		switch v.Kind {
		case relation.TInt:
			return relation.Int(-v.AsInt()), nil
		case relation.TFloat:
			return relation.Float(-v.AsFloat()), nil
		}
		return relation.Value{}, fmt.Errorf("%w: unary minus on %s", ErrTypeMismatch, v.Kind)
	}
	return relation.Value{}, fmt.Errorf("algebra: unknown unary op %q", u.op)
}

func (u unaryExpr) Type() relation.Type {
	if u.op == "NOT" {
		return relation.TBool
	}
	return u.e.Type()
}

func (u unaryExpr) String() string { return fmt.Sprintf("(%s %s)", u.op, u.e) }

type absExpr struct{ e CompiledExpr }

func (a absExpr) Eval(t relation.Tuple) (relation.Value, error) {
	v, err := a.e.Eval(t)
	if err != nil {
		return relation.Value{}, err
	}
	if v.IsNull() {
		return relation.NullValue(), nil
	}
	switch v.Kind {
	case relation.TInt:
		n := v.AsInt()
		if n < 0 {
			n = -n
		}
		return relation.Int(n), nil
	case relation.TFloat:
		return relation.Float(math.Abs(v.AsFloat())), nil
	}
	return relation.Value{}, fmt.Errorf("%w: ABS on %s", ErrTypeMismatch, v.Kind)
}

func (a absExpr) Type() relation.Type { return a.e.Type() }
func (a absExpr) String() string      { return fmt.Sprintf("ABS(%s)", a.e) }

type binExpr struct {
	op   string
	l, r CompiledExpr
	// cmp is the typed column-at-a-time form of a comparison between a
	// bare column and a literal (SelectBatch); nil for every other shape.
	cmp *colCmp
}

func (b binExpr) Eval(t relation.Tuple) (relation.Value, error) {
	switch b.op {
	case "AND", "OR":
		return b.evalLogical(t)
	}
	lv, err := b.l.Eval(t)
	if err != nil {
		return relation.Value{}, err
	}
	rv, err := b.r.Eval(t)
	if err != nil {
		return relation.Value{}, err
	}
	switch b.op {
	case "=", "!=", "<", "<=", ">", ">=":
		return evalComparison(b.op, lv, rv)
	case "+", "-", "*", "/", "%":
		return evalArith(b.op, lv, rv)
	}
	return relation.Value{}, fmt.Errorf("algebra: unknown binary op %q", b.op)
}

func (b binExpr) evalLogical(t relation.Tuple) (relation.Value, error) {
	lv, err := b.l.Eval(t)
	if err != nil {
		return relation.Value{}, err
	}
	lb := !lv.IsNull() && lv.Kind == relation.TBool && lv.AsBool()
	if !lv.IsNull() && lv.Kind != relation.TBool {
		return relation.Value{}, fmt.Errorf("%w: %s operand is %s", ErrTypeMismatch, b.op, lv.Kind)
	}
	// Short circuit.
	if b.op == "AND" && !lb {
		return relation.Bool(false), nil
	}
	if b.op == "OR" && lb {
		return relation.Bool(true), nil
	}
	rv, err := b.r.Eval(t)
	if err != nil {
		return relation.Value{}, err
	}
	if !rv.IsNull() && rv.Kind != relation.TBool {
		return relation.Value{}, fmt.Errorf("%w: %s operand is %s", ErrTypeMismatch, b.op, rv.Kind)
	}
	rb := !rv.IsNull() && rv.AsBool()
	if b.op == "AND" {
		return relation.Bool(lb && rb), nil
	}
	return relation.Bool(lb || rb), nil
}

func evalComparison(op string, lv, rv relation.Value) (relation.Value, error) {
	if lv.IsNull() || rv.IsNull() {
		return relation.NullValue(), nil
	}
	comparable := lv.Kind == rv.Kind || (lv.IsNumeric() && rv.IsNumeric())
	if !comparable {
		return relation.Value{}, fmt.Errorf("%w: comparing %s with %s", ErrTypeMismatch, lv.Kind, rv.Kind)
	}
	cmp := lv.Compare(rv)
	switch op {
	case "=":
		return relation.Bool(cmp == 0), nil
	case "!=":
		return relation.Bool(cmp != 0), nil
	case "<":
		return relation.Bool(cmp < 0), nil
	case "<=":
		return relation.Bool(cmp <= 0), nil
	case ">":
		return relation.Bool(cmp > 0), nil
	case ">=":
		return relation.Bool(cmp >= 0), nil
	}
	return relation.Value{}, fmt.Errorf("algebra: unknown comparison %q", op)
}

func evalArith(op string, lv, rv relation.Value) (relation.Value, error) {
	if lv.IsNull() || rv.IsNull() {
		return relation.NullValue(), nil
	}
	if !lv.IsNumeric() || !rv.IsNumeric() {
		return relation.Value{}, fmt.Errorf("%w: %s on %s and %s", ErrTypeMismatch, op, lv.Kind, rv.Kind)
	}
	if lv.Kind == relation.TInt && rv.Kind == relation.TInt {
		a, b := lv.AsInt(), rv.AsInt()
		switch op {
		case "+":
			return relation.Int(a + b), nil
		case "-":
			return relation.Int(a - b), nil
		case "*":
			return relation.Int(a * b), nil
		case "/":
			if b == 0 {
				return relation.Value{}, ErrDivideByZero
			}
			return relation.Int(a / b), nil
		case "%":
			if b == 0 {
				return relation.Value{}, ErrDivideByZero
			}
			return relation.Int(a % b), nil
		}
	}
	a, b := lv.AsFloat(), rv.AsFloat()
	switch op {
	case "+":
		return relation.Float(a + b), nil
	case "-":
		return relation.Float(a - b), nil
	case "*":
		return relation.Float(a * b), nil
	case "/":
		if b == 0 {
			return relation.Value{}, ErrDivideByZero
		}
		return relation.Float(a / b), nil
	case "%":
		return relation.Float(math.Mod(a, b)), nil
	}
	return relation.Value{}, fmt.Errorf("algebra: unknown arithmetic op %q", op)
}

func (b binExpr) Type() relation.Type {
	switch b.op {
	case "AND", "OR", "=", "!=", "<", "<=", ">", ">=":
		return relation.TBool
	}
	if b.l.Type() == relation.TInt && b.r.Type() == relation.TInt {
		return relation.TInt
	}
	return relation.TFloat
}

func (b binExpr) String() string { return fmt.Sprintf("(%s %s %s)", b.l, b.op, b.r) }

// ColumnsOf collects the column names referenced by a parsed expression.
func ColumnsOf(e sql.Expr) []string {
	var out []string
	var walk func(sql.Expr)
	walk = func(e sql.Expr) {
		switch ex := e.(type) {
		case *sql.ColumnRef:
			out = append(out, ex.Name)
		case *sql.BinaryExpr:
			walk(ex.L)
			walk(ex.R)
		case *sql.UnaryExpr:
			walk(ex.E)
		case *sql.FuncCall:
			if ex.Arg != nil {
				walk(ex.Arg)
			}
		}
	}
	walk(e)
	return out
}

// SplitConjuncts flattens a predicate into its AND-ed conjuncts.
func SplitConjuncts(e sql.Expr) []sql.Expr {
	if be, ok := e.(*sql.BinaryExpr); ok && be.Op == "AND" {
		return append(SplitConjuncts(be.L), SplitConjuncts(be.R)...)
	}
	return []sql.Expr{e}
}

// JoinConjuncts rebuilds a single predicate from conjuncts (nil for none).
func JoinConjuncts(es []sql.Expr) sql.Expr {
	switch len(es) {
	case 0:
		return nil
	case 1:
		return es[0]
	}
	out := es[0]
	for _, e := range es[1:] {
		out = &sql.BinaryExpr{Op: "AND", L: out, R: e}
	}
	return out
}

package algebra

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/diorama/continual/internal/guard"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
)

// Source provides base relation contents to the executor. Implementations
// include the storage engine (current contents), historical snapshots,
// and a client mirror's operand replicas.
type Source interface {
	Relation(table string) (*relation.Relation, error)
}

// MapSource is a Source backed by a map of relations, for tests.
type MapSource map[string]*relation.Relation

// Relation implements Source.
func (m MapSource) Relation(table string) (*relation.Relation, error) {
	r, ok := m[table]
	if !ok {
		return nil, fmt.Errorf("algebra: source has no relation %q", table)
	}
	return r, nil
}

// ExecStats counts the work done by one execution; the benchmark harness
// reads these to report tuples-scanned figures.
type ExecStats struct {
	TuplesScanned int
	TuplesOutput  int
}

// Executor materializes plans against a source.
type Executor struct {
	src Source
	// UseHashJoin selects hash joins for equi-join predicates; nested
	// loops otherwise, which tests use as the hash join's reference.
	UseHashJoin bool
	Stats       ExecStats
	// Deadline stops the execution with guard.ErrBudgetExceeded once it
	// has passed: read every guard.CheckRows rows a scan copies or a
	// join probes or emits, and after each plan node. Zero: no bound,
	// no clock read.
	Deadline time.Time
}

// NewExecutor creates an executor over a source with hash joins enabled.
func NewExecutor(src Source) *Executor {
	return &Executor{src: src, UseHashJoin: true}
}

// Execute materializes the plan. Scans are keyed by the scan's alias so a
// self-join reads the same table twice.
func (ex *Executor) Execute(p Plan) (*relation.Relation, error) {
	out, err := ex.exec(p)
	if err != nil {
		return nil, err
	}
	ex.Stats.TuplesOutput += out.Len()
	return out, nil
}

// exec materializes one plan node, then checks the deadline: a node's
// own pass over its input is linear, so only scans and joins, whose
// output can outgrow their input, check it row by row.
func (ex *Executor) exec(p Plan) (*relation.Relation, error) {
	out, err := ex.node(p)
	if err == nil {
		err = guard.Overdue(ex.Deadline)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (ex *Executor) node(p Plan) (*relation.Relation, error) {
	switch n := p.(type) {
	case *ScanPlan:
		return ex.execScan(n)
	case *SelectPlan:
		return ex.execSelect(n)
	case *ProjectPlan:
		return ex.execProject(n)
	case *JoinPlan:
		return ex.execJoin(n)
	case *AggregatePlan:
		return ex.execAggregate(n)
	case *DistinctPlan:
		return ex.execDistinct(n)
	case *SortPlan:
		return ex.execSort(n)
	case *LimitPlan:
		return ex.execLimit(n)
	default:
		return nil, fmt.Errorf("algebra: unknown plan node %T", p)
	}
}

func (ex *Executor) execScan(n *ScanPlan) (*relation.Relation, error) {
	base, err := ex.src.Relation(n.Table)
	if err != nil {
		return nil, err
	}
	ex.Stats.TuplesScanned += base.Len()
	// Rebadge the tuples under the plan's qualified schema. Values are
	// shared; the executor never mutates tuples.
	out := relation.New(n.Schema())
	dm := guard.Meter{Deadline: ex.Deadline}
	for _, t := range base.Tuples() {
		if err := dm.Tick(); err != nil {
			return nil, err
		}
		if err := out.Insert(t); err != nil {
			return nil, fmt.Errorf("scan %s: %w", n.Table, err)
		}
	}
	return out, nil
}

func (ex *Executor) execSelect(n *SelectPlan) (*relation.Relation, error) {
	in, err := ex.exec(n.Input)
	if err != nil {
		return nil, err
	}
	pred, err := Compile(n.Pred, in.Schema())
	if err != nil {
		return nil, err
	}
	out := relation.New(in.Schema())
	for _, t := range in.Tuples() {
		ok, err := EvalPredicate(pred, t)
		if err != nil {
			return nil, fmt.Errorf("select: %w", err)
		}
		if ok {
			if err := out.Insert(t); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func (ex *Executor) execProject(n *ProjectPlan) (*relation.Relation, error) {
	in, err := ex.exec(n.Input)
	if err != nil {
		return nil, err
	}
	compiled := make([]CompiledExpr, len(n.Items))
	for i, it := range n.Items {
		ce, err := Compile(it.Expr, in.Schema())
		if err != nil {
			return nil, err
		}
		compiled[i] = ce
	}
	out := relation.New(n.Schema())
	for _, t := range in.Tuples() {
		vals := make([]relation.Value, len(compiled))
		for i, ce := range compiled {
			v, err := ce.Eval(t)
			if err != nil {
				return nil, fmt.Errorf("project: %w", err)
			}
			vals[i] = v
		}
		// Projection keeps provenance identity (bag semantics): the output
		// tuple inherits the input tid.
		if err := out.Upsert(relation.Tuple{TID: t.TID, Values: vals}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// equiKeys extracts equi-join column pairs (left index, right index) from
// the conjuncts of the ON predicate. Conjuncts that are not simple
// col=col across the two inputs stay in residual.
func equiKeys(on sql.Expr, left, right relation.Schema) (lk, rk []int, residual []sql.Expr) {
	if on == nil {
		return nil, nil, nil
	}
	for _, c := range SplitConjuncts(on) {
		be, ok := c.(*sql.BinaryExpr)
		if ok && be.Op == "=" {
			lc, lok := be.L.(*sql.ColumnRef)
			rc, rok := be.R.(*sql.ColumnRef)
			if lok && rok {
				if li, ok1 := left.ColIndex(lc.Name); ok1 {
					if ri, ok2 := right.ColIndex(rc.Name); ok2 {
						lk = append(lk, li)
						rk = append(rk, ri)
						continue
					}
				}
				// Reversed orientation.
				if li, ok1 := left.ColIndex(rc.Name); ok1 {
					if ri, ok2 := right.ColIndex(lc.Name); ok2 {
						lk = append(lk, li)
						rk = append(rk, ri)
						continue
					}
				}
			}
		}
		residual = append(residual, c)
	}
	return lk, rk, residual
}

func (ex *Executor) execJoin(n *JoinPlan) (*relation.Relation, error) {
	left, err := ex.exec(n.Left)
	if err != nil {
		return nil, err
	}
	right, err := ex.exec(n.Right)
	if err != nil {
		return nil, err
	}
	return ex.joinRelations(left, right, n.On, n.Schema())
}

// joinRelations joins two materialized relations under the given ON
// predicate, producing tuples in outSchema (left columns then right
// columns): a hash join on the equi-join keys under UseHashJoin, a
// nested loop otherwise. Every pair it probes or emits ticks the
// deadline's meter. ON runs on one reused scratch pair, and only a pair
// that passes is copied into the output.
func (ex *Executor) joinRelations(left, right *relation.Relation, on sql.Expr, outSchema relation.Schema) (*relation.Relation, error) {
	lk, rk, residual := equiKeys(on, left.Schema(), right.Schema())
	hash := ex.UseHashJoin && len(lk) > 0
	// A hash join checks what its keys leave of ON; a nested loop (also
	// one with equi keys and hashing off) checks all of it.
	check := on
	if hash {
		check = JoinConjuncts(residual)
	}
	var pred CompiledExpr
	if check != nil {
		var err error
		if pred, err = Compile(check, outSchema); err != nil {
			return nil, fmt.Errorf("join predicate: %w", err)
		}
	}
	out := relation.New(outSchema)
	dm := guard.Meter{Deadline: ex.Deadline}
	scratch := make([]relation.Value, left.Schema().Len()+right.Schema().Len())
	emit := func(lt, rt relation.Tuple) error {
		if err := dm.Tick(); err != nil {
			return err
		}
		copy(scratch[copy(scratch, lt.Values):], rt.Values)
		joined := relation.Tuple{TID: relation.CombineTIDs(lt.TID, rt.TID), Values: scratch}
		if pred != nil {
			ok, err := EvalPredicate(pred, joined)
			if err != nil || !ok {
				return err
			}
		}
		joined.Values = slices.Clone(scratch)
		return out.Upsert(joined)
	}

	if !hash {
		for _, lt := range left.Tuples() {
			for _, rt := range right.Tuples() {
				if err := emit(lt, rt); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}
	// Build on the smaller side.
	build, probe, bk, pk, buildIsRight := right, left, rk, lk, true
	if left.Len() < right.Len() {
		build, probe, bk, pk, buildIsRight = left, right, lk, rk, false
	}
	idx := relation.BuildHashIndex(build, bk)
	key := make([]relation.Value, len(pk))
	for _, pt := range probe.Tuples() {
		if err := dm.Tick(); err != nil {
			return nil, err
		}
		for i, c := range pk {
			key[i] = pt.Values[c]
		}
		for _, bt := range idx.Probe(key) {
			var err error
			if buildIsRight {
				err = emit(pt, bt)
			} else {
				err = emit(bt, pt)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

type aggState struct {
	count    int64
	sumI     int64
	sumF     float64
	sawFloat bool
	min, max relation.Value
	any      bool
}

func (a *aggState) add(v relation.Value) {
	if v.IsNull() {
		return
	}
	a.count++
	if v.Kind == relation.TFloat {
		a.sawFloat = true
		a.sumF += v.AsFloat()
	} else if v.Kind == relation.TInt {
		a.sumI += v.AsInt()
		a.sumF += float64(v.AsInt())
	}
	if !a.any || v.Compare(a.min) < 0 {
		a.min = v
	}
	if !a.any || v.Compare(a.max) > 0 {
		a.max = v
	}
	a.any = true
}

func (a *aggState) result(fn string, outType relation.Type) relation.Value {
	switch fn {
	case "COUNT":
		return relation.Int(a.count)
	case "SUM":
		if !a.any {
			return relation.TypedNull(outType)
		}
		if a.sawFloat || outType == relation.TFloat {
			return relation.Float(a.sumF)
		}
		return relation.Int(a.sumI)
	case "AVG":
		if !a.any {
			return relation.TypedNull(relation.TFloat)
		}
		return relation.Float(a.sumF / float64(a.count))
	case "MIN":
		if !a.any {
			return relation.TypedNull(outType)
		}
		return a.min
	case "MAX":
		if !a.any {
			return relation.TypedNull(outType)
		}
		return a.max
	}
	return relation.NullValue()
}

func (ex *Executor) execAggregate(n *AggregatePlan) (*relation.Relation, error) {
	in, err := ex.exec(n.Input)
	if err != nil {
		return nil, err
	}
	groupEx := make([]CompiledExpr, len(n.GroupBy))
	for i, g := range n.GroupBy {
		ce, err := Compile(g.Expr, in.Schema())
		if err != nil {
			return nil, err
		}
		groupEx[i] = ce
	}
	aggEx := make([]CompiledExpr, len(n.Aggs))
	for i, a := range n.Aggs {
		if a.Arg == nil {
			continue // COUNT(*)
		}
		ce, err := Compile(a.Arg, in.Schema())
		if err != nil {
			return nil, err
		}
		aggEx[i] = ce
	}

	type group struct {
		key    []relation.Value
		states []*aggState
	}
	groups := make(map[uint64]*group)
	var order []uint64
	for _, t := range in.Tuples() {
		key := make([]relation.Value, len(groupEx))
		for i, ge := range groupEx {
			v, err := ge.Eval(t)
			if err != nil {
				return nil, fmt.Errorf("group by: %w", err)
			}
			key[i] = v
		}
		h := relation.HashValues(key)
		g, ok := groups[h]
		if !ok {
			g = &group{key: key, states: make([]*aggState, len(n.Aggs))}
			for i := range g.states {
				g.states[i] = &aggState{}
			}
			groups[h] = g
			order = append(order, h)
		}
		for i, a := range n.Aggs {
			if a.Arg == nil { // COUNT(*)
				g.states[i].count++
				continue
			}
			v, err := aggEx[i].Eval(t)
			if err != nil {
				return nil, fmt.Errorf("aggregate %s: %w", a.Name, err)
			}
			g.states[i].add(v)
		}
	}

	// Global aggregate over an empty input still yields one row.
	if len(groups) == 0 && len(n.GroupBy) == 0 {
		g := &group{states: make([]*aggState, len(n.Aggs))}
		for i := range g.states {
			g.states[i] = &aggState{}
		}
		groups[0] = g
		order = append(order, 0)
	}

	out := relation.New(n.Schema())
	var havingPred CompiledExpr
	if n.Having != nil {
		ce, err := Compile(n.Having, n.Schema())
		if err != nil {
			return nil, fmt.Errorf("having: %w", err)
		}
		havingPred = ce
	}
	for _, h := range order {
		g := groups[h]
		vals := make([]relation.Value, 0, len(g.key)+len(n.Aggs))
		vals = append(vals, g.key...)
		for i, a := range n.Aggs {
			outType := n.Schema().Col(len(g.key) + i).Type
			vals = append(vals, g.states[i].result(a.Func, outType))
		}
		row := relation.Tuple{TID: relation.HashTID(g.key), Values: vals}
		if len(n.GroupBy) == 0 {
			row.TID = 1 // the single global row
		}
		if havingPred != nil {
			ok, err := EvalPredicate(havingPred, row)
			if err != nil {
				return nil, fmt.Errorf("having: %w", err)
			}
			if !ok {
				continue
			}
		}
		if err := out.Insert(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (ex *Executor) execDistinct(n *DistinctPlan) (*relation.Relation, error) {
	in, err := ex.exec(n.Input)
	if err != nil {
		return nil, err
	}
	out := relation.New(in.Schema())
	seen := make(map[uint64]bool, in.Len())
	for _, t := range in.Tuples() {
		h := relation.HashValues(t.Values)
		if seen[h] {
			continue
		}
		seen[h] = true
		if err := out.Upsert(relation.Tuple{TID: relation.TID(h), Values: t.Values}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// CatalogSource combines schema resolution and relation access; the
// storage engine's Live and At views satisfy it.
type CatalogSource interface {
	Catalog
	Source
}

// RunQuery parses, plans, optimizes and executes a SELECT.
func RunQuery(query string, cs CatalogSource) (*relation.Relation, error) {
	plan, err := PlanSQL(query, cs)
	if err != nil {
		return nil, err
	}
	plan = Optimize(plan)
	return NewExecutor(cs).Execute(plan)
}

// RenderPlan pretty-prints a plan tree, one node per line.
func RenderPlan(p Plan) string {
	var b strings.Builder
	var walk func(Plan, int)
	walk = func(p Plan, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		switch n := p.(type) {
		case *ScanPlan:
			fmt.Fprintf(&b, "Scan %s", n.Table)
			if n.Alias != n.Table {
				fmt.Fprintf(&b, " AS %s", n.Alias)
			}
		case *SelectPlan:
			fmt.Fprintf(&b, "Select %s", n.Pred)
		case *ProjectPlan:
			names := make([]string, len(n.Items))
			for i, it := range n.Items {
				names[i] = it.Name
			}
			fmt.Fprintf(&b, "Project %s", strings.Join(names, ", "))
		case *JoinPlan:
			if n.On != nil {
				fmt.Fprintf(&b, "Join %s", n.On)
			} else {
				b.WriteString("Cross")
			}
		case *AggregatePlan:
			fmt.Fprintf(&b, "Aggregate")
		case *DistinctPlan:
			b.WriteString("Distinct")
		case *SortPlan:
			keys := make([]string, len(n.Keys))
			for i, k := range n.Keys {
				keys[i] = k.Expr.String()
				if k.Desc {
					keys[i] += " DESC"
				}
			}
			fmt.Fprintf(&b, "Sort %s", strings.Join(keys, ", "))
		case *LimitPlan:
			fmt.Fprintf(&b, "Limit %d", n.N)
		}
		b.WriteByte('\n')
		for _, c := range p.Children() {
			walk(c, depth+1)
		}
	}
	walk(p, 0)
	return b.String()
}

// HavingAggregateRewrite rewrites aggregate calls inside a HAVING
// expression into references to the aggregate output columns, matching by
// rendered call text against the aggregate specs. Unmatched calls error.
func HavingAggregateRewrite(e sql.Expr, aggs []AggSpec) (sql.Expr, error) {
	switch ex := e.(type) {
	case *sql.FuncCall:
		if sql.AggregateFuncs[ex.Name] {
			want := ex.String()
			for _, a := range aggs {
				have := (&sql.FuncCall{Name: a.Func, Arg: a.Arg, Star: a.Arg == nil}).String()
				if have == want {
					return &sql.ColumnRef{Name: a.Name}, nil
				}
			}
			return nil, fmt.Errorf("algebra: HAVING aggregate %s is not in the select list", want)
		}
		return ex, nil
	case *sql.BinaryExpr:
		l, err := HavingAggregateRewrite(ex.L, aggs)
		if err != nil {
			return nil, err
		}
		r, err := HavingAggregateRewrite(ex.R, aggs)
		if err != nil {
			return nil, err
		}
		return &sql.BinaryExpr{Op: ex.Op, L: l, R: r}, nil
	case *sql.UnaryExpr:
		inner, err := HavingAggregateRewrite(ex.E, aggs)
		if err != nil {
			return nil, err
		}
		return &sql.UnaryExpr{Op: ex.Op, E: inner}, nil
	default:
		return e, nil
	}
}

func (ex *Executor) execSort(n *SortPlan) (*relation.Relation, error) {
	in, err := ex.exec(n.Input)
	if err != nil {
		return nil, err
	}
	compiled := make([]CompiledExpr, len(n.Keys))
	for i, k := range n.Keys {
		ce, err := Compile(k.Expr, in.Schema())
		if err != nil {
			return nil, fmt.Errorf("order by: %w", err)
		}
		compiled[i] = ce
	}
	type keyed struct {
		t    relation.Tuple
		keys []relation.Value
	}
	rows := make([]keyed, 0, in.Len())
	for _, t := range in.Tuples() {
		ks := make([]relation.Value, len(compiled))
		for i, ce := range compiled {
			v, err := ce.Eval(t)
			if err != nil {
				return nil, fmt.Errorf("order by: %w", err)
			}
			ks[i] = v
		}
		rows = append(rows, keyed{t: t, keys: ks})
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for i, k := range n.Keys {
			cmp := rows[a].keys[i].Compare(rows[b].keys[i])
			if cmp != 0 {
				if k.Desc {
					return cmp > 0
				}
				return cmp < 0
			}
		}
		return rows[a].t.TID < rows[b].t.TID
	})
	out := relation.New(in.Schema())
	for _, r := range rows {
		if err := out.Insert(r.t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (ex *Executor) execLimit(n *LimitPlan) (*relation.Relation, error) {
	in, err := ex.exec(n.Input)
	if err != nil {
		return nil, err
	}
	out := relation.New(in.Schema())
	for i, t := range in.Tuples() {
		if int64(i) >= n.N {
			break
		}
		if err := out.Insert(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

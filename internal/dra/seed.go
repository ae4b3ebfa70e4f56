package dra

import (
	"errors"
	"fmt"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// The initial execution is the differential step from the empty state
// (Section 4.2 with every ΔR = R): each operand table enters as an
// all-insert columnar image, and the plan's own compiled kernels run
// over the images exactly as a refresh runs over windows — a selection
// is a view of its scan's image, a join group telescopes into empty
// replicas and leaves them current at the seed timestamp, a group table
// folds the input's batch. A re-seed (position.resume) takes the same
// path, and a truth-table term's pre-state takes it for one operand. The
// row executor serves complete re-evaluation only.

// imager is a Source that builds its tables' columnar images itself
// (storage.HistoricView: one pass over the live relation and the log,
// shared per timestamp when the view is a window cache's).
type imager interface {
	TableImage(table string) (*batch.Batch, error)
}

// tableImage returns table's contents in src as an all-insert columnar
// image. A source without images of its own (a client mirror's
// replicas, a test's MapSource, the live store) is converted row by
// row. The image is only read.
func tableImage(src algebra.Source, table string) (*batch.Batch, error) {
	if im, ok := src.(imager); ok {
		return im.TableImage(table)
	}
	rel, err := src.Relation(table)
	if err != nil {
		return nil, err
	}
	b := batch.New(rel.Schema(), rel.Len())
	for _, t := range rel.Tuples() {
		if !b.AppendRow(t.TID, +1, t.Values) {
			return nil, nonConforming("image of " + table)
		}
	}
	return b, nil
}

// seedContext is the input of a step from the empty state at ts: every
// table of plan as its image in src, standing in for a compacted window
// (each tid once, as a lone +1 row). Pre is unset: a step from the empty
// state reads no pre-state, its replicas start empty (emptyReplicas).
func seedContext(src algebra.Source, plan algebra.Plan, ts vclock.Timestamp) (*Context, error) {
	scans := algebra.Tables(plan)
	ctx := &Context{LastTS: ts, Compacted: true, Batches: make(map[string]*batch.Batch, len(scans))}
	for _, s := range scans {
		if _, ok := ctx.Batches[s.Table]; ok {
			continue
		}
		b, err := tableImage(src, s.Table)
		if err != nil {
			return nil, err
		}
		ctx.Batches[s.Table] = b
	}
	return ctx, nil
}

// emptyReplicas gives every join group in the tree empty operand
// replicas: the state a step from the empty state starts in.
func (n *compiledNode) emptyReplicas() {
	n.eachJoin(func(cj *compiledJoin) {
		if c := cj.cache; c != nil {
			for i, op := range cj.ops {
				c.ents[i] = &replica{t: batch.NewTable(op.plan.Schema(), 0)}
			}
		}
	})
}

// position is the timestamp a stateful evaluator's whole state is at: a
// Prepared's join replicas, or a group table's groups and its input's
// replicas (Section 4.2: each execution starts from the state the
// previous one left). A seed sets it, a successful step moves it to its
// execution timestamp, and a failed step clears it. The zero position
// is unset: the first step seeds.
type position struct {
	ts vclock.Timestamp
	ok bool
	// float marks state seeded from a source without a timestamp (the
	// stand-alone maintainers): it is taken to be at its first step's
	// LastTS.
	float bool
}

// set ends a seed or a step at ts; a failure (err non-nil) clears the
// position.
func (p *position) set(ts vclock.Timestamp, err error) {
	*p = position{ts: ts, ok: err == nil}
}

// resume readies an evaluator's state for a step from ctx.LastTS. State
// at the position serves as it is, one index-cache hit per replica under
// root. From any other timestamp the evaluator re-seeds: seed runs as
// the initial execution of plan at ctx.LastTS over ctx.Pre, into fresh
// state — never by undoing — and st counts every image row it reads as a
// pre-state tuple and one index-cache miss per replica it builds. A
// re-seed runs outside the step's deadline, as a registration's seed
// does: the budget bounds the window, so a CQ whose seed alone outlasts
// it still steps once its windows fit.
func (p *position) resume(ctx *Context, plan algebra.Plan, root *compiledNode, st *Stats, seed func(*Context) error) error {
	if p.float {
		*p = position{ts: ctx.LastTS, ok: true}
	}
	n := root.replicaCount()
	if p.ok && p.ts == ctx.LastTS {
		st.IndexCacheHits += n
		return nil
	}
	if ctx.Pre == nil {
		return errors.New("dra: re-seed: the context has no Pre source")
	}
	sctx, err := seedContext(ctx.Pre, plan, ctx.LastTS)
	if err != nil {
		return fmt.Errorf("dra: re-seed: %w", err)
	}
	for _, b := range sctx.Batches {
		st.PreTuplesScanned += b.Len()
	}
	st.IndexCacheMisses += n
	return seed(sctx)
}

// seed runs the compiled SPJ tree as one step from the empty state over
// ctx (seedContext) and fills its output into a fresh result table. Its
// join groups end with their replicas current at ctx.LastTS, so the
// first Step from there probes them. The table's rows are typed copies:
// the result outlives the seed by as long as the CQ stands, and must not
// keep the images or the step's batches alive.
func (e *Engine) seed(root *compiledNode, ctx *Context) (*batch.Table, error) {
	var st Stats
	v := newVecEval(e, ctx, ctx.LastTS, &st)
	defer v.release()
	root.emptyReplicas()
	if s := root.view; s != nil {
		w, err := v.view(s)
		if err != nil {
			return nil, err
		}
		out := batch.NewTable(w.schema, w.len())
		out.Load(w.b, w.sel, w.cols)
		return out, nil
	}
	b, err := v.nodeBatch(root)
	if err != nil {
		return nil, err
	}
	cols := make([]int, b.Schema.Len())
	for c := range cols {
		cols[c] = c
	}
	out := batch.NewTable(root.plan.Schema(), b.Len())
	out.Load(b, nil, cols)
	return out, nil
}

// tableOf writes a relation the row executor produced into a fresh
// result table; a value its column cannot hold fails the conversion.
func tableOf(rel *relation.Relation) (*batch.Table, error) {
	out := batch.NewTable(rel.Schema(), rel.Len())
	for _, t := range rel.Tuples() {
		if err := out.Set(t.TID, t.Values); err != nil {
			return nil, fmt.Errorf("dra: result: %w", err)
		}
	}
	return out, nil
}

// operandAt appends operand i's output as of ctx.LastTS to dst, for a
// truth-table term that needs the operand's pre-state:
// the operand's compiled subtree run as a step from the empty state over
// the images of its tables in ctx.Pre — the initial execution's path,
// for one operand.
func (v *vecEval) operandAt(cj *compiledJoin, i int, dst *batch.Batch) error {
	if v.ctx.Pre == nil {
		return errors.New("dra: operand pre-state: the context has no Pre source")
	}
	op, node := cj.ops[i].plan, cj.opNodes[i]
	if !node.joinFree() {
		// A join nested in the operand (a plan only the algebra API
		// builds) seeds from empty replicas of its own: the transient
		// tree's group keeps none.
		n, err := compilePlan(op)
		if err != nil {
			return err
		}
		n.attachReplicas()
		n.emptyReplicas()
		node = n
	}
	ctx, err := seedContext(v.ctx.Pre, op, v.ctx.LastTS)
	if err != nil {
		return fmt.Errorf("dra: operand pre-state: %w", err)
	}
	var st Stats
	sub := newVecEval(v.e, ctx, ctx.LastTS, &st)
	defer sub.release()
	b, err := sub.nodeBatch(node)
	if err != nil {
		return fmt.Errorf("dra: operand pre-state: %w", err)
	}
	for r := 0; r < b.Len(); r++ {
		dst.AppendFrom(b, r)
	}
	v.st.PreTuplesScanned += b.Len()
	return nil
}

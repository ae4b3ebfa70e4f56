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
// folds the input's batch. Replica rebuilds take the same path for one
// operand. The row executor serves complete re-evaluation only.

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
// replicas at ts: the state a step from the empty state starts in.
func (n *compiledNode) emptyReplicas(ts vclock.Timestamp) {
	n.eachJoin(func(cj *compiledJoin) {
		if c := cj.cache; c != nil {
			for i, op := range cj.ops {
				c.ents[i] = &replica{rows: batch.New(op.plan.Schema(), 0), ts: ts}
			}
		}
	})
}

// seed runs the compiled SPJ tree as one step from the empty state over
// ctx (seedContext) and renders its output as the query's result. Its
// join groups end with their replicas current at ctx.LastTS, so the
// first Step from there probes them. Every result row owns its values:
// the result outlives the seed by as long as the CQ stands, and rows on
// one shared backing would keep all of it alive for the last survivor.
func (e *Engine) seed(root *compiledNode, ctx *Context) (*relation.Relation, error) {
	var st Stats
	v := newVecEval(e, ctx, ctx.LastTS, &st)
	defer v.release()
	root.emptyReplicas(ctx.LastTS)
	if s := root.view; s != nil {
		w, err := v.view(s)
		if err != nil {
			return nil, err
		}
		out := relation.NewSized(w.schema, w.len())
		for k := 0; k < w.len(); k++ {
			i := int(w.at(k))
			vals := make([]relation.Value, len(w.cols))
			for c, ci := range w.cols {
				vals[c] = w.b.Value(i, ci)
			}
			_ = out.Upsert(relation.Tuple{TID: w.b.TIDs[i], Values: vals}) // arity matches
		}
		return out, nil
	}
	b, err := v.nodeBatch(root)
	if err != nil {
		return nil, err
	}
	out := relation.NewSized(root.plan.Schema(), b.Len())
	for r := 0; r < b.Len(); r++ {
		vals := make([]relation.Value, b.Schema.Len())
		b.ReadRow(r, vals)
		_ = out.Upsert(relation.Tuple{TID: b.TIDs[r], Values: vals}) // arity matches
	}
	return out, nil
}

// operandAt appends operand i's output as of ctx.LastTS to dst, for a
// replica (or a truth-table term) that needs the operand's pre-state:
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
		// builds) seeds from its own empty replicas: the standing group's
		// belong to this refresh, and a transient one has none.
		n, err := compilePlan(op)
		if err != nil {
			return err
		}
		n.attachReplicas(v.e)
		n.emptyReplicas(v.ctx.LastTS)
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

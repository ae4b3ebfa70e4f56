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
// is a view of its scan's image, a join group runs its last operand's
// image against the other operands' arrangements at the seed timestamp
// (building those no plan has built yet from the same images), a group
// table folds the input's batch. A group table's re-seed
// (position.resume) takes the same path. The row executor serves
// complete re-evaluation only.

// imager is a Source that builds its tables' columnar images itself
// (storage.HistoricView: one pass over the live relation and the log,
// shared per timestamp when the view is a window cache's).
type imager interface {
	TableImage(table string) (*batch.Batch, error)
}

// tableImage returns table's contents in src as an all-insert columnar
// image. A source without images of its own (a test's MapSource, the
// live store) is converted row by row. The image is only read.
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
// state reads no pre-state. Windows is src when src can read window
// images (storage.HistoricView), for an arrangement another plan has
// already moved away from ts.
func seedContext(src algebra.Source, plan algebra.Plan, ts vclock.Timestamp) (*Context, error) {
	scans := algebra.Tables(plan)
	ctx := &Context{LastTS: ts, Compacted: true, Batches: make(map[string]*batch.Batch, len(scans))}
	ctx.Windows, _ = src.(WindowSource)
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

// position is the timestamp a group table's groups are at (Section 4.2:
// each execution starts from the state the previous one left). A seed
// sets it, a successful step moves it to its execution timestamp, and a
// failed step clears it. The zero position is unset: the first step
// seeds. Joins have none: their arrangements are shared, and a step
// reads them at any timestamp (telescopeJoin).
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

// resume readies a group table's state for a step from ctx.LastTS.
// State at the position serves as it is. From any other timestamp the
// table re-seeds: seed runs as the initial execution of plan at
// ctx.LastTS over ctx.Pre, into fresh state — never by undoing — and st
// counts every image row it reads as a pre-state tuple. A re-seed runs
// outside the step's deadline, as a registration's seed does: the
// budget bounds the window, so a CQ whose seed alone outlasts it still
// steps once its windows fit.
func (p *position) resume(ctx *Context, plan algebra.Plan, st *Stats, seed func(*Context) error) error {
	if p.float {
		*p = position{ts: ctx.LastTS, ok: true}
	}
	if p.ok && p.ts == ctx.LastTS {
		return nil
	}
	if ctx.Pre == nil {
		return errors.New("dra: re-seed: the context has no Pre source")
	}
	sctx, err := seedContext(ctx.Pre, plan, ctx.LastTS)
	if err != nil {
		return fmt.Errorf("dra: re-seed: %w", err)
	}
	if ctx.Windows != nil {
		sctx.Windows = ctx.Windows
	}
	for _, b := range sctx.Batches {
		st.PreTuplesScanned += b.Len()
	}
	return seed(sctx)
}

// seed runs the compiled SPJ tree as one step from the empty state over
// ctx (seedContext) and fills its output into a fresh result table. Its
// join groups end with their arrangements at ctx.LastTS or past it. The
// table's rows are typed copies: the result outlives the seed by as long
// as the CQ stands, and must not keep the images or the step's batches
// alive.
func (e *Engine) seed(root *compiledNode, ctx *Context) (*batch.Table, error) {
	var st Stats
	v := newVecEval(e, ctx, ctx.LastTS, &st)
	defer v.release()
	v.seeding = true
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

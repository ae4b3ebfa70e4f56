package dra

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/guard"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// groupTable is the keyed Z-set operator behind a prepared aggregate or
// DISTINCT plan (Prepared; IncrementalAggregate and IncrementalDistinct
// wrap the same table): the signed delta of an SPJ input folds into one
// slot-addressed columnar table of groups, and the output delta is read
// off the groups the fold touched — never off the whole result.
//
// Layout, as in batch.Table: key columns live in a batch addressed by slot
// (Signs[slot] is +1 occupied, 0 free; TIDs[slot] is the group's output
// tid), accumulators in flat arrays beside it, freed slots are reused
// LIFO, and one relation.SlotIndex maps key hash → slot. The output tid
// of a group IS its key hash (1 for the single group of a global
// aggregate), so a hash holds at most one slot: a probe that finds the
// hash under a different key has found two output rows with one tid,
// which is an error, never a merge.
//
// DISTINCT is the configuration "every column is a key column, no
// aggregates": a group's row multiplicity alone decides its one output
// row.
type groupTable struct {
	engine *Engine
	schema relation.Schema // output schema
	// fold is the compiled input: the query's SPJ input projected to
	// [key columns..., aggregate arguments...], or the input itself for
	// DISTINCT. Its first nKeys columns have the layout of keys, which is
	// what lets key cells be hashed, compared and copied between the two
	// in place.
	fold   *compiledNode
	nKeys  int
	keyIdx []int // 0..nKeys-1
	aggs   []groupAgg
	global bool // aggregates without a key: one group, always rendered
	// none is the empty change every Result Step returns shares.
	none *delta.Delta

	keys *batch.Batch
	ix   relation.SlotIndex
	free []int32
	// cur is the accumulator state, stride cells per slot and adjacent —
	// a fold touches a group's whole state at once, so it sits on one
	// cache line, not on one per accumulator kind. The first cell's count
	// is the signed count of input rows in the group (the group is in the
	// output while it is positive); one cell per aggregate follows.
	stride int
	cur    []aggCell

	// touched lists the groups the current fold reached, in first-touch
	// order; snap holds their state as it was before the fold, stride
	// cells each — what the pre-refresh output row renders from. changed
	// is emit's scratch.
	touched []touchedGroup
	mark    []bool // by slot: already in touched
	snap    []aggCell
	changed []int32
	hashes  []uint64 // foldBatch's scratch, by batch row
	slots   []int32
	row     []relation.Value // one output row, emit's comparison scratch

	live   int // groups in the output
	gauged int // share of dra.agg.groups this table accounts for

	// pos is where the groups are (position).
	pos position
	// input is the SPJ input plan, whose tables seed reads; it sits after
	// the fields every Step reads.
	input algebra.Plan
}

// groupAgg is one aggregate of the output row.
type groupAgg struct {
	fn  string        // COUNT, SUM or AVG
	arg int           // fold column of the argument; -1 for COUNT(*)
	out relation.Type // output column type
}

// aggCell is one accumulator: the signed count of the rows (first cell)
// or non-NULL arguments (aggregate cells) folded in, and the arguments'
// sum as integer and as float.
type aggCell struct {
	count, sumI int64
	sumF        float64
}

type touchedGroup struct {
	slot int32
	tid  relation.TID
}

// state returns group i's cells in cur or snap.
func (g *groupTable) state(cells []aggCell, i int) []aggCell {
	return cells[i*g.stride : (i+1)*g.stride]
}

// newGroupTable compiles a group-table plan into an empty table, which
// seed fills: an AggregatePlan of SUM / COUNT / COUNT(*) / AVG without
// HAVING, or a DistinctPlan, over an SPJ input. Any other plan reports
// ErrNotIncremental with the reason.
func newGroupTable(engine *Engine, plan algebra.Plan) (*groupTable, error) {
	var input algebra.Plan
	var items []algebra.CompiledExpr // nil: the input row is the key, as for DISTINCT
	var cols []relation.Column       // fold columns, the nKeys key columns first
	var aggs []groupAgg
	var nKeys int
	switch n := plan.(type) {
	case *algebra.DistinctPlan:
		input, cols = n.Input, n.Schema().Columns()
		nKeys = len(cols)
	case *algebra.AggregatePlan:
		if n.Having != nil {
			return nil, fmt.Errorf("%w: HAVING requires group recomputation", ErrNotIncremental)
		}
		var err error
		if items, cols, aggs, err = aggregateFold(n); err != nil {
			return nil, err
		}
		input, nKeys = n.Input, len(n.GroupBy)
	default:
		return nil, fmt.Errorf("%w: root is %T", ErrNotIncremental, plan)
	}
	if !supportsDifferential(input) {
		return nil, fmt.Errorf("%w: input is not SPJ", ErrNotIncremental)
	}
	fold, err := compilePlan(input)
	if errors.Is(err, ErrUnsupportedPlan) {
		return nil, fmt.Errorf("%w: %w", ErrNotIncremental, err)
	}
	if err != nil {
		return nil, err
	}
	foldSchema, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	if items != nil {
		fold = newProjectNode(nil, fold, items, foldSchema)
	}
	keySchema, err := relation.NewSchema(cols[:nKeys]...)
	if err != nil {
		return nil, err
	}
	g := &groupTable{
		engine: engine, schema: plan.Schema(), fold: fold,
		input: input,
		nKeys: nKeys, aggs: aggs, global: nKeys == 0 && len(aggs) > 0,
		keys: batch.New(keySchema, 0), stride: 1 + len(aggs),
		row: make([]relation.Value, plan.Schema().Len()),
	}
	for i := 0; i < nKeys; i++ {
		g.keyIdx = append(g.keyIdx, i)
	}
	engine.attach(g.fold)
	return g, nil
}

// seed fills the table, emptied first, by the step from the empty state
// over ctx (seedContext of the input): the input's compiled kernels run
// over the images of its tables, and their batch folds in as a
// refresh's would. The groups end at ctx.LastTS, the table's position.
func (g *groupTable) seed(ctx *Context) error { return g.seedFrom(ctx, false) }

// seedFrom is seed; float marks a source without a timestamp
// (seededGroupTable), whose images a join in the input takes to be at
// its arrangements' own timestamp.
func (g *groupTable) seedFrom(ctx *Context, float bool) error {
	g.keys = batch.New(g.keys.Schema, 0)
	g.ix, g.free, g.cur, g.mark, g.live = relation.SlotIndex{}, nil, nil, nil, 0
	g.touched, g.snap = g.touched[:0], g.snap[:0]
	if g.global {
		// The one group exists from the start and never dies: a global
		// aggregate over an empty input still has its row.
		one := batch.New(g.keys.Schema, 1)
		one.AppendRow(0, 0, nil)
		g.keyedSlot(one, 0, relation.HashValues(nil))
		g.live = 1
	}
	var st Stats
	v := newVecEval(g.engine, ctx, ctx.LastTS, &st)
	defer v.release()
	v.seeding, v.float = true, float
	b, err := v.nodeBatch(g.fold)
	if err == nil {
		err = g.foldBatch(b, ctx.Deadline)
	}
	if err == nil {
		g.settle()
	}
	g.pos.set(ctx.LastTS, err)
	// seed-sized; refreshes need window-sized
	g.touched, g.snap, g.hashes, g.slots = nil, nil, nil, nil
	g.gauge()
	return err
}

// seededGroupTable compiles and seeds a group table in one go, for the
// stand-alone wrappers, whose plans must have a Root at the root.
func seededGroupTable[Root algebra.Plan](engine *Engine, plan algebra.Plan, src algebra.Source) (*groupTable, error) {
	if _, ok := plan.(Root); !ok {
		return nil, fmt.Errorf("%w: root is %T", ErrNotIncremental, plan)
	}
	g, err := newGroupTable(engine, plan)
	if err != nil {
		return nil, err
	}
	ctx, err := seedContext(src, g.input, 0)
	if err == nil {
		err = g.seedFrom(ctx, true)
	}
	if err != nil {
		g.Close()
		return nil, err
	}
	// src has no timestamp: the whole state is taken to be at the first
	// Step's LastTS.
	g.pos.float = true
	return g, nil
}

// Groups returns the number of groups currently in the output.
func (g *groupTable) Groups() int { return g.live }

// Replicas reports the arrangements a join in the fold input reads, as
// Prepared.Replicas does; nil for a join-free input.
func (g *groupTable) Replicas() []ReplicaStat { return g.engine.replicaStats(g.fold) }

// Close detaches the fold input from its arrangements and releases the
// table's share of the dra.agg.groups gauge. Closing twice is a no-op.
func (g *groupTable) Close() {
	if g.fold == nil {
		return
	}
	g.live, g.pos = 0, position{}
	g.engine.detach(g.fold)
	g.fold = nil
	g.gauge()
}

func (g *groupTable) gauge() {
	if m := g.engine.Metrics; m != nil {
		m.AggGroups.Add(int64(g.live - g.gauged))
	}
	g.gauged = g.live
}

// Result renders the maintained output as a fresh relation the caller
// owns — O(|groups|), for registration and recovery; refreshes never
// call it.
func (g *groupTable) Result() *relation.Relation {
	out := relation.NewSized(g.schema, g.live)
	for s := 0; s < g.keys.Len(); s++ {
		cells := g.state(g.cur, s)
		if g.keys.Signs[s] == 0 || !g.inOutput(cells) {
			continue
		}
		vals := make([]relation.Value, g.schema.Len())
		g.render(vals, int32(s), cells)
		// Tids are distinct by construction: one slot per key hash.
		_ = out.Insert(relation.Tuple{TID: g.keys.TIDs[s], Values: vals})
	}
	return out
}

// table renders the maintained output into a fresh result table, typed
// cell by cell through the scratch row — O(|groups|), for the seed.
func (g *groupTable) table() (*batch.Table, error) {
	out := batch.NewTable(g.schema, g.live)
	for s := 0; s < g.keys.Len(); s++ {
		cells := g.state(g.cur, s)
		if g.keys.Signs[s] == 0 || !g.inOutput(cells) {
			continue
		}
		g.render(g.row, int32(s), cells)
		if err := out.Set(g.keys.TIDs[s], g.row); err != nil {
			return nil, fmt.Errorf("dra: group result: %w", err)
		}
	}
	return out, nil
}

// inOutput reports whether a group in the given state has an output row.
func (g *groupTable) inOutput(cells []aggCell) bool { return g.global || cells[0].count > 0 }

// Step folds the update window into the table and returns the change of
// the output, read off the touched groups: O(|Δ|) beyond the evaluation
// of the input's own signed delta, which runs the columnar kernels (a
// selection view over ctx.Batches where the window image is shared,
// its selected rows copied out once into the fold batch; a join
// telescoping over the engine's arrangements). A Step from anything but
// the table's position re-seeds it first (position.resume); a failed
// Step clears the position, so its retry re-seeds and folds the window
// once.
func (g *groupTable) Step(ctx *Context, execTS vclock.Timestamp) (*Result, error) {
	res := &Result{none: g.none}
	if err := g.StepInto(ctx, execTS, res); err != nil {
		return nil, err
	}
	g.none = res.none
	return res, nil
}

// StepInto is Step into a Result the caller holds (Prepared.StepInto).
func (g *groupTable) StepInto(ctx *Context, execTS vclock.Timestamp, res *Result) error {
	res.reset(execTS)
	st := &res.Stats
	if g.fold == nil {
		return fmt.Errorf("dra: Step on closed group table")
	}
	err := g.pos.resume(ctx, g.input, st, g.seed)
	var b *batch.Batch
	if err == nil {
		v := newVecEval(g.engine, ctx, res.ExecTS, st)
		defer v.release()
		if b, err = v.nodeBatch(g.fold); err == nil {
			err = g.foldBatch(b, ctx.Deadline)
		}
	}
	g.pos.set(execTS, err)
	if err != nil {
		g.gauge()
		return err
	}
	st.GroupsTouched = len(g.touched)
	rows, halves := g.emit(res.ExecTS)
	st.GroupRowsEmitted = halves
	res.setRows(g.schema, rows)
	g.gauge()
	if m := g.engine.Metrics; m != nil {
		m.VecSteps.Inc()
		m.PreTuples.Add(int64(st.PreTuplesScanned))
		m.IndexHits.Add(int64(st.IndexCacheHits))
		m.IndexMisses.Add(int64(st.IndexCacheMisses))
		m.AggRowsFolded.Add(int64(b.Len()))
		m.AggGroupsTouched.Add(int64(st.GroupsTouched))
		m.AggRowsEmitted.Add(int64(st.GroupRowsEmitted))
	}
	return nil
}

// foldBatch folds a signed fold batch into the table, checking the
// step's deadline every guard.CheckRows rows. A fold stopped partway leaves
// the groups part-folded; the failed step clears the table's position,
// so the next step re-seeds.
func (g *groupTable) foldBatch(b *batch.Batch, deadline time.Time) error {
	// Hash and probe every row before folding any: the probes of a large
	// table miss the cache, and in a loop this tight the misses of
	// neighbouring rows overlap instead of queueing behind each fold.
	n := b.Len()
	g.hashes, g.slots = slices.Grow(g.hashes[:0], n)[:n], slices.Grow(g.slots[:0], n)[:n]
	for r := range g.hashes {
		g.hashes[r] = b.HashKey(r, g.keyIdx)
	}
	for r, h := range g.hashes {
		g.slots[r] = g.ix.First(h)
	}
	for r, h := range g.hashes {
		if r%guard.CheckRows == 0 {
			if err := guard.Overdue(deadline); err != nil {
				return err
			}
		}
		s := g.slots[r]
		if s < 0 {
			s = g.ix.First(h) // born earlier in this batch?
		}
		switch {
		case s < 0:
			s = g.keyedSlot(b, r, h)
		case !g.keys.KeyEqual(int(s), g.keyIdx, b, r, g.keyIdx):
			return g.collision(h)
		}
		cells := g.touch(s, h)
		sign := int64(b.Signs[r])
		cells[0].count += sign
		for j, a := range g.aggs {
			cell := &cells[1+j]
			if a.arg < 0 { // COUNT(*)
				cell.count += sign
				continue
			}
			col := &b.Cols[a.arg]
			if !col.IsValid(r) {
				continue
			}
			switch col.Type {
			case relation.TInt:
				cell.add(sign, true, col.I64[r], float64(col.I64[r]))
			case relation.TFloat:
				cell.add(sign, false, 0, col.F64[r])
			default:
				cell.add(sign, false, 0, 0)
			}
		}
	}
	return nil
}

// add folds one non-NULL argument into the cell.
func (c *aggCell) add(sign int64, isInt bool, i int64, f float64) {
	c.count += sign
	c.sumF += float64(sign) * f
	if isInt {
		c.sumI += sign * i
	} else {
		// A non-integer contribution poisons the integer accumulator; SUM
		// output type is already TFloat for float inputs.
		c.sumI = 0
	}
}

// tidOf is the output tid of the group whose key hashes to h.
func (g *groupTable) tidOf(h uint64) relation.TID {
	if g.global {
		return 1
	}
	return relation.TID(h)
}

func (g *groupTable) collision(h uint64) error {
	return fmt.Errorf("dra: two distinct group keys share output tid %d", g.tidOf(h))
}

// keyedSlot gives a new group a slot — a freed one, or a fresh one at the
// end — with its key cells copied from row r of src and indexed under h.
func (g *groupTable) keyedSlot(src *batch.Batch, r int, h uint64) int32 {
	var s int32
	if f := len(g.free); f > 0 {
		s, g.free = g.free[f-1], g.free[:f-1]
		g.keys.SetRowFrom(int(s), src, r)
	} else {
		s = int32(g.keys.Len())
		g.keys.AppendFrom(src, r)
		for i := 0; i < g.stride; i++ {
			g.cur = append(g.cur, aggCell{})
		}
		g.mark = append(g.mark, false)
	}
	g.keys.TIDs[s], g.keys.Signs[s] = g.tidOf(h), 1
	g.ix.Insert(s, h)
	return s
}

// touch returns the group's cells, snapshotting them the first time a
// fold reaches the group.
func (g *groupTable) touch(s int32, h uint64) []aggCell {
	cells := g.state(g.cur, int(s))
	if !g.mark[s] {
		g.mark[s] = true
		g.touched = append(g.touched, touchedGroup{slot: s, tid: g.tidOf(h)})
		g.snap = append(g.snap, cells...)
	}
	return cells
}

// emit renders the output change off the touched groups as result rows
// stamped execTS — insert on birth, delete on death, a modification
// where the rendered row changed, nothing where the fold netted to no
// change — in ascending tid order, the order delta.Diff gave, and
// settles the fold. emitted counts the halves rendered: the signed rows
// of the change, a modification being two.
func (g *groupTable) emit(execTS vclock.Timestamp) (rows []delta.Row, emitted int) {
	g.changed = g.changed[:0] // indexes into touched
	halves := 0
	for i, t := range g.touched {
		was, is := g.state(g.snap, i), g.state(g.cur, int(t.slot))
		if slices.Equal(was, is) || len(g.aggs) == 0 && g.inOutput(was) && g.inOutput(is) {
			continue // same accumulators, or only a DISTINCT row's multiplicity moved: same row
		}
		g.changed = append(g.changed, int32(i))
		if g.inOutput(was) {
			halves++
		}
		if g.inOutput(is) {
			halves++
		}
	}
	if len(g.changed) > 0 {
		slices.SortFunc(g.changed, func(a, b int32) int {
			return cmp.Compare(g.touched[a].tid, g.touched[b].tid)
		})
		// Every rendered half shares one backing, as a netting's do: the
		// rows live as long as the notification, and the caller's result
		// table copies what it keeps.
		width := g.schema.Len()
		flat := make([]relation.Value, halves*width)
		rows = make([]delta.Row, 0, len(g.changed))
		for _, i := range g.changed {
			t := g.touched[i]
			was, is := g.state(g.snap, int(i)), g.state(g.cur, int(t.slot))
			hadOld, stays := g.inOutput(was), g.inOutput(is)
			row := delta.Row{TID: t.tid, TS: execTS}
			if hadOld {
				row.Old = flat[:width:width]
				g.render(row.Old, t.slot, was)
			}
			if hadOld && stays {
				g.render(g.row, t.slot, is)
				if slices.EqualFunc(row.Old, g.row, relation.Value.Equal) {
					continue // e.g. an integer SUM whose float shadow alone moved
				}
			}
			if hadOld {
				flat = flat[width:]
				emitted++
			}
			if stays {
				row.New = flat[:width:width]
				g.render(row.New, t.slot, is)
				flat = flat[width:]
				emitted++
			}
			rows = append(rows, row)
		}
	}
	g.settle()
	return rows, emitted
}

// render writes the output row of slot s in the given state (live, or
// the first-touch snapshot) into dst, mirroring the executor: COUNT over
// nothing is 0, SUM and AVG are NULL.
func (g *groupTable) render(dst []relation.Value, s int32, cells []aggCell) {
	for c := 0; c < g.nKeys; c++ {
		dst[c] = g.keys.Value(int(s), c)
	}
	for j, a := range g.aggs {
		c := cells[1+j]
		var v relation.Value
		switch {
		case a.fn == "COUNT":
			v = relation.Int(c.count)
		case c.count == 0:
			v = relation.TypedNull(a.out)
		case a.fn == "AVG":
			v = relation.Float(c.sumF / float64(c.count))
		case a.out == relation.TInt:
			v = relation.Int(c.sumI)
		default:
			v = relation.Float(c.sumF)
		}
		dst[g.nKeys+j] = v
	}
}

// settle ends a fold. A group left with no rows frees its slot (nothing
// between refreshes holds an empty group, so "no rows in the snapshot"
// means "born in this fold"); the global group stays.
func (g *groupTable) settle() {
	for i, t := range g.touched {
		was, is := g.state(g.snap, i), g.state(g.cur, int(t.slot))
		if !g.global {
			if is[0].count > 0 {
				g.live++
			}
			if was[0].count > 0 {
				g.live--
			}
		}
		g.mark[t.slot] = false
		if is[0].count == 0 && !g.global {
			clear(is)
			g.ix.Delete(t.slot)
			g.keys.ClearRow(int(t.slot))
			g.free = append(g.free, t.slot)
		}
	}
	g.touched, g.snap = g.touched[:0], g.snap[:0]
}

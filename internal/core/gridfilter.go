package core

import (
	"fmt"
	"math"

	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/gridsig"
	"github.com/sealdb/seal/internal/invidx"
	"github.com/sealdb/seal/internal/model"
)

// GridFilter is algorithm Sig-Filter+ over grid-based spatial signatures
// (Section 4): the space is decomposed into a P×P uniform grid; an object's
// signature is the set of cells overlapping its region, weighted by clipped
// area w(g|o) = |g ∩ o.R|; the global order is ascending count(g); a cell's
// list is named by its (row, column) and its postings carry Lemma 3
// suffix-area bounds. A query retrieves, from the lists of its
// signature prefix, the postings with bound ≥ cR = τR·|q.R| (Lemma 1).
type GridFilter struct {
	sigIndex
	grid    *gridsig.Grid
	counter *gridsig.Counter
}

// NewGridFilter indexes all objects of ds on a p×p grid over the dataset
// space.
func NewGridFilter(ds *model.Dataset, p int) (*GridFilter, error) {
	grid, err := gridsig.New(ds.Space(), p)
	if err != nil {
		return nil, err
	}
	counter := gridsig.NewCounter(grid)
	for obj := 0; obj < ds.Len(); obj++ {
		counter.AddRegion(ds.Region(model.ObjectID(obj)))
	}
	var b invidx.Builder
	var sig []gridsig.CellWeight
	var weights, bounds []float64
	for obj := 0; obj < ds.Len(); obj++ {
		sig = grid.Signature(ds.Region(model.ObjectID(obj)), sig[:0])
		counter.SortSignature(sig)
		weights = weights[:0]
		for _, cw := range sig {
			weights = append(weights, cw.W)
		}
		bounds = append(bounds[:0], weights...)
		invidx.SuffixBounds(weights, bounds)
		for i, cw := range sig {
			b.Add(cellKey(grid, cw.Cell), uint32(obj), bounds[i])
		}
	}
	return &GridFilter{sigIndex{ds, compress(b.Build()), FilterSpec{Kind: "grid", P: p}}, grid, counter}, nil
}

// cellKey names cell's list (row, column): the row is the key's group.
func cellKey(g *gridsig.Grid, cell uint32) uint64 {
	p := uint32(g.P)
	return uint64(cell/p)<<32 | uint64(cell%p)
}

// openGridFilter recovers the query-side cell counter from the index itself:
// count(g) is by construction the length of cell g's posting list (both count
// the regions with positive overlap area), so the filter reopens in O(lists)
// with no geometry pass.
func openGridFilter(ds *model.Dataset, spec FilterSpec, src *invidx.Compressed) (Filter, error) {
	grid, err := gridsig.New(ds.Space(), spec.P)
	if err != nil {
		return nil, err
	}
	counter := gridsig.NewCounter(grid)
	p := uint64(spec.P)
	var bad error
	src.EachLen(func(key uint64, n int) {
		row, col := key>>32, key&(1<<32-1)
		if row >= p || col >= p {
			bad = fmt.Errorf("core: grid posting key (%d, %d) outside %d×%d grid", row, col, spec.P, spec.P)
			return
		}
		counter.AddCount(uint32(row*p+col), uint32(n))
	})
	if bad != nil {
		return nil, bad
	}
	return &GridFilter{sigIndex{ds, src, spec}, grid, counter}, nil
}

// Name implements Filter.
func (f *GridFilter) Name() string { return fmt.Sprintf("GridFilter(%d)", f.grid.P) }

// Collect implements Filter. Lemma 1: simR(q,o) ≥ τR only if
// Σ_{g∈SR(q)∩SR(o)} min(w(g|q), w(g|o)) ≥ τR·|q.R|, so prefix filtering on
// the grid signatures is complete. The query's grid signature and prefix
// weights live in the caller's scratch, so the scan is allocation free.
func (f *GridFilter) Collect(q *model.Query, cs *CandidateSet, st *FilterStats, stop func() bool, scr *Scratch) {
	cR, _ := Thresholds(q)
	if cR <= 0 {
		return
	}
	if !scr.resume(cs) {
		projectGrid(f.grid, f.counter, q.Region, scr)
	}
	p := invidx.PrefixLen(scr.gW, cR)
	slack := invidx.Code(invidx.Slack(cR))
	cur := scr.cursors(p)
	for j, cw := range scr.gsig[:p] {
		if stop != nil && stop() {
			return
		}
		l := f.idx.Probe(cellKey(f.grid, cw.Cell))
		if l.Len() == 0 {
			continue
		}
		from, to := cur[j].extend(&l, slack, st)
		for i := from; i < to; i++ {
			cs.Add(l.Obj(i))
		}
	}
}

// projectGrid puts region's grid signature in scr.gsig, sorted into the global
// order (ascending count), and its weights in scr.gW.
func projectGrid(g *gridsig.Grid, c *gridsig.Counter, region geo.Rect, scr *Scratch) {
	scr.gsig = g.Signature(region, scr.gsig[:0])
	c.SortSignature(scr.gsig)
	scr.gW = scr.gW[:0]
	for _, cw := range scr.gsig {
		scr.gW = append(scr.gW, cw.W)
	}
}

// PlainGridFilter is the baseline Sig-Filter of Figure 3 over grid
// signatures: it probes the full list of every query cell, accumulates the
// exact signature similarity Σ min(w(g|q), w(g|o)), and keeps objects
// reaching cR. Postings store w(g|o) in place of a bound.
type PlainGridFilter struct {
	ds   *model.Dataset
	grid *gridsig.Grid
	idx  *invidx.Index
}

// NewPlainGridFilter indexes all objects of ds on a p×p grid with plain
// weight postings.
func NewPlainGridFilter(ds *model.Dataset, p int) (*PlainGridFilter, error) {
	grid, err := gridsig.New(ds.Space(), p)
	if err != nil {
		return nil, err
	}
	var b invidx.Builder
	var sig []gridsig.CellWeight
	for obj := 0; obj < ds.Len(); obj++ {
		sig = grid.Signature(ds.Region(model.ObjectID(obj)), sig[:0])
		for _, cw := range sig {
			b.Add(cellKey(grid, cw.Cell), uint32(obj), cw.W)
		}
	}
	return &PlainGridFilter{ds: ds, grid: grid, idx: b.Build()}, nil
}

// Name implements Filter.
func (f *PlainGridFilter) Name() string { return fmt.Sprintf("PlainGridFilter(%d)", f.grid.P) }

// SizeBytes implements Filter.
func (f *PlainGridFilter) SizeBytes() int64 { return f.idx.SizeBytes() }

// Collect implements Filter; stop is polled before each list.
func (f *PlainGridFilter) Collect(q *model.Query, cs *CandidateSet, st *FilterStats, stop func() bool, scr *Scratch) {
	cR, _ := Thresholds(q)
	if cR <= 0 {
		return
	}
	scr.gsig = f.grid.Signature(q.Region, scr.gsig[:0])
	acc := scr.Weights(f.ds.Len())
	for _, cw := range scr.gsig {
		if stop != nil && stop() {
			return
		}
		objs, weights, _ := f.idx.List(cellKey(f.grid, cw.Cell))
		if len(objs) == 0 {
			continue
		}
		st.ListsProbed++
		st.PostingsScanned += len(objs)
		for i, obj := range objs {
			// The bound holds w(g|o); the signature similarity uses the
			// min-weight estimate of Equation (1).
			acc.Add(obj, math.Min(cw.W, weights[i]))
		}
	}
	slack := invidx.Slack(cR)
	for _, obj := range acc.Touched() {
		if acc.Sum(obj) >= slack {
			cs.Add(obj)
		}
	}
}

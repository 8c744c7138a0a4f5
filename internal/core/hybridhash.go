package core

import (
	"fmt"
	"slices"

	"github.com/sealdb/seal/internal/gridsig"
	"github.com/sealdb/seal/internal/invidx"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/text"
)

// HybridHashFilter is algorithm Hybrid-Sig-Filter+ with hash-based hybrid
// signatures (Section 5.1, Definition 5): the signature elements are
// (token, cell) pairs hashed into at most Buckets buckets; each posting
// carries both the textual bound c^T_h(o) and the spatial bound c^R_h(o),
// so a single probe applies textual and spatial pruning simultaneously.
type HybridHashFilter struct {
	sigIndex
	grid    *gridsig.Grid
	counter *gridsig.Counter
	buckets uint64
}

// NewHybridHashFilter indexes ds on a p×p grid. buckets limits the number of
// hash buckets (the index-size constraint of Section 5.1); buckets <= 0
// disables hashing and keys lists by the exact (token, cell) pair.
func NewHybridHashFilter(ds *model.Dataset, p int, buckets int) (*HybridHashFilter, error) {
	f, err := newHybridHashFilter(ds, FilterSpec{Kind: "hybrid", P: p, Buckets: buckets})
	if err != nil {
		return nil, err
	}

	vocab := ds.Vocab()
	b := invidx.Builder{Dual: true}
	var tsig []text.TokenID
	var tW, tB []float64
	var gsig []gridsig.CellWeight
	var gW, gB []float64
	for obj := 0; obj < ds.Len(); obj++ {
		id := model.ObjectID(obj)
		tsig = append(tsig[:0], ds.Tokens(id)...)
		vocab.SortBySignatureOrder(tsig)
		tW = tW[:0]
		for _, t := range tsig {
			tW = append(tW, ds.TokenWeight(t))
		}
		tB = append(tB[:0], tW...)
		invidx.SuffixBounds(tW, tB)

		gsig = f.grid.Signature(ds.Region(id), gsig[:0])
		f.counter.SortSignature(gsig)
		gW = gW[:0]
		for _, cw := range gsig {
			gW = append(gW, cw.W)
		}
		gB = append(gB[:0], gW...)
		invidx.SuffixBounds(gW, gB)

		for i, t := range tsig {
			for j, cw := range gsig {
				b.AddDual(f.key(t, cw.Cell), uint32(obj), gB[j], tB[i])
			}
		}
	}
	f.idx = compress(b.Build())
	return f, nil
}

// newHybridHashFilter wires everything but the postings: the grid and the
// cell counter, which the index does not carry (a bucket mixes cells) and an
// O(N) region pass recounts.
func newHybridHashFilter(ds *model.Dataset, spec FilterSpec) (*HybridHashFilter, error) {
	spec.Buckets = max(spec.Buckets, 0)
	grid, err := gridsig.New(ds.Space(), spec.P)
	if err != nil {
		return nil, err
	}
	counter := gridsig.NewCounter(grid)
	for obj := 0; obj < ds.Len(); obj++ {
		counter.AddRegion(ds.Region(model.ObjectID(obj)))
	}
	return &HybridHashFilter{sigIndex{ds: ds, spec: spec}, grid, counter, uint64(spec.Buckets)}, nil
}

// openHybridHashFilter pairs ds with persisted posting lists; spec's P and
// Buckets must match the build-time parameters (they determine the probe keys).
func openHybridHashFilter(ds *model.Dataset, spec FilterSpec, src *invidx.Compressed) (Filter, error) {
	f, err := newHybridHashFilter(ds, spec)
	if err != nil {
		return nil, err
	}
	f.idx = src
	return f, nil
}

// key names a (token, cell) pair's list: (t, cell) itself, or its bucket's
// (bucket, 0).
func (f *HybridHashFilter) key(t text.TokenID, cell uint32) uint64 {
	k := uint64(t)<<32 | uint64(cell)
	if f.buckets == 0 {
		return k
	}
	return (fnv64(k) % f.buckets) << 32
}

// list returns the list of (t, cell): by key when lists are bucketed, and
// otherwise at cell's place in t's run, which starts at list base and holds
// cells.
func (f *HybridHashFilter) list(t text.TokenID, base int, cells []uint32, cell uint32) invidx.List {
	if f.buckets > 0 {
		return f.idx.Probe(f.key(t, cell))
	}
	if k, ok := slices.BinarySearch(cells, cell); ok {
		return f.idx.At(base + k)
	}
	return invidx.List{}
}

// fnv64 hashes a 64-bit value with FNV-1a over its bytes.
func fnv64(v uint64) uint64 {
	const offset = 14695981039346656037
	const prime = 1099511628211
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

// Name implements Filter.
func (f *HybridHashFilter) Name() string {
	if f.buckets > 0 {
		return fmt.Sprintf("HybridFilter(%d,b=%d)", f.grid.P, f.buckets)
	}
	return fmt.Sprintf("HybridFilter(%d)", f.grid.P)
}

// Collect implements Filter. Correctness follows from composing the textual
// and spatial prefix arguments: a true answer o shares its first common
// token t* with the query inside both token prefixes and its first common
// cell g* inside both grid prefixes, so probing bucket h(t*, g*) with both
// bounds retrieves o. The textual prefix comes precompiled on the Query, the
// spatial one lives in the caller's scratch.
func (f *HybridHashFilter) Collect(q *model.Query, cs *CandidateSet, st *FilterStats, stop func() bool, scr *Scratch) {
	cR, cT := Thresholds(q)
	if cR <= 0 || cT <= 0 {
		return
	}
	// Textual prefix.
	tsig := q.SigTokens
	pT := invidx.PrefixLen(q.SigWeights, cT)
	// Spatial prefix.
	if !scr.resume(cs) {
		projectGrid(f.grid, f.counter, q.Region, scr)
	}
	pR := invidx.PrefixLen(scr.gW, cR)

	slackR, slackT := invidx.Code(invidx.Slack(cR)), invidx.Code(invidx.Slack(cT))
	retest := scr.retest(slackT)
	// List (i, j) is cursor j·|tsig| + i, so the cursors grow with pR alone.
	cur := scr.cursors(pR * len(tsig))
	runs, nodes := f.idx.Runs()
	for i, t := range tsig[:pT] {
		// Token t's exact lists are its run of cells: select it once, then
		// binary-search it a cell.
		base, cells := 0, []uint32(nil)
		if f.buckets == 0 {
			if int(t) >= runs.Len() {
				continue
			}
			lo, hi := runs.Span(int(t))
			if lo == hi {
				continue
			}
			base, cells = lo, nodes[lo:hi]
		}
		for j, cw := range scr.gsig[:pR] {
			if stop != nil && stop() {
				return
			}
			l := f.list(t, base, cells, cw.Cell)
			if l.Len() == 0 {
				continue
			}
			cur[j*len(tsig)+i].scanDual(&l, slackR, slackT, retest, cs, st)
		}
	}
}

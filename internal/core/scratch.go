package core

import (
	"github.com/sealdb/seal/internal/gridsig"
	"github.com/sealdb/seal/internal/invidx"
)

// Scratch is the per-searcher buffer pool the filters collect through. Each
// Searcher owns one, so every slice here is reused query after query and the
// steady-state filter step allocates nothing. Filters must treat the fields
// as free backing storage: truncate (buf[:0]), append, and leave the grown
// slice behind for the next query.
type Scratch struct {
	// gsig holds a query's grid signature (grid and hash-hybrid filters).
	gsig []gridsig.CellWeight
	// gW holds spatial element weights for prefix selection.
	gW []float64
	// hits holds hierarchical grid projections (the Seal filter).
	hits []gridHit
	// ids holds the sorted candidate order for ID-ordered streaming.
	ids []uint32
	// dec is the posting-list decode buffer: probes against compressed or
	// mapped indexes materialize lists here, so decoding allocates nothing
	// once the buffer has grown to the longest list (flat in-memory indexes
	// ignore it and return arena views).
	dec invidx.ListScratch
	// acc sums per-object weights for the filters that score whole lists
	// (the plain Sig-Filters, keyword-first); sized on first use.
	acc WeightAccumulator
}

// Weights returns the scratch's weight accumulator, emptied, for a dataset of
// n objects. It lives here and not on a filter because filters are shared
// between searchers and a scratch is not.
func (s *Scratch) Weights(n int) *WeightAccumulator {
	a := &s.acc
	if len(a.sum) < n {
		a.sum, a.mark, a.epoch = make([]float64, n), make([]uint32, n), 0
	}
	a.epoch++
	a.touched = a.touched[:0]
	if a.epoch == 0 {
		clear(a.mark)
		a.epoch = 1
	}
	return a
}

// WeightAccumulator sums per-object weights with epoch-based clearing.
type WeightAccumulator struct {
	sum     []float64
	mark    []uint32
	epoch   uint32
	touched []uint32
}

// Add adds w to obj's sum.
func (a *WeightAccumulator) Add(obj uint32, w float64) {
	if a.mark[obj] != a.epoch {
		a.mark[obj] = a.epoch
		a.sum[obj] = 0
		a.touched = append(a.touched, obj)
	}
	a.sum[obj] += w
}

// Touched returns the objects added to since Weights, in first-touch order.
func (a *WeightAccumulator) Touched() []uint32 { return a.touched }

// Sum returns the sum of a touched object.
func (a *WeightAccumulator) Sum(obj uint32) float64 { return a.sum[obj] }

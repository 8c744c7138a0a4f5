package core

import (
	"github.com/sealdb/seal/internal/invidx"
	"github.com/sealdb/seal/internal/model"
)

// Test hooks: the differential and epoch-wrap tests need to observe the
// accumulator state a search leaves behind, which is deliberately private.

// FlatPostings builds the filter spec describes over ds and returns it with
// the flat lists its build compressed.
func FlatPostings(ds *model.Dataset, spec FilterSpec) (Filter, *invidx.Index, error) {
	var flat *invidx.Index
	compress = func(ix *invidx.Index) *invidx.Compressed { flat = ix; return invidx.Compress(ix) }
	defer func() { compress = invidx.Compress }()
	f, err := BuildFilter(ds, spec)
	return f, flat, err
}

// CandidateIDs exposes the candidates of the searcher's last query. Valid
// until the next call on the searcher.
func (s *Searcher) CandidateIDs() []uint32 { return s.cs.IDs() }

// AccumSimT recomputes SimT for a candidate of the last query exactly the
// way verify did: through the accumulated membership marks when the filter
// accumulates, through the full intersection otherwise.
func (s *Searcher) AccumSimT(q *model.Query, id model.ObjectID) float64 {
	if s.cs.Accumulating() {
		return s.ds.SimTAccum(q, id, s.cs.AccBits(uint32(id)))
	}
	return s.ds.SimT(q, id)
}

// Accumulated reports whether the last query ran with the accumulator armed.
func (s *Searcher) Accumulated() bool { return s.cs.Accumulating() }

// ForceEpochWrap winds the candidate set's epoch to its maximum so the next
// Reset exercises the wrap path.
func ForceEpochWrap(c *CandidateSet) { c.epoch = ^uint32(0) }

// RawAccBits reads the accumulator word without the epoch guard.
func RawAccBits(c *CandidateSet, obj uint32) uint64 {
	if c.accBits == nil {
		return 0
	}
	return c.accBits[obj]
}

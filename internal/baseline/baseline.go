// Package baseline implements the straightforward methods of Section 2.3
// that the paper compares SEAL against: Keyword-first (textual candidates
// from a token inverted index, spatial check afterwards), Spatial-first
// (spatial candidates from an R-tree, textual check afterwards), and an
// exhaustive Scan used as the ground-truth oracle in tests.
//
// All three implement core.Filter, so they share SEAL's verification step —
// exactly how the paper frames them (generate candidates, then verify).
package baseline

import (
	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/rtree"
)

// KeywordFirst finds the objects with simT ≥ τT via token inverted lists and
// leaves the spatial check to verification. Its weakness — no spatial
// pruning at all — is what Figures 16/17 demonstrate. Its lists, their size
// and their merge are core.PlainTokenFilter's; only its gate is its own.
type KeywordFirst struct {
	*core.PlainTokenFilter
	ds *model.Dataset
}

// NewKeywordFirst indexes all objects of ds.
func NewKeywordFirst(ds *model.Dataset) *KeywordFirst {
	return &KeywordFirst{core.NewPlainTokenFilter(ds), ds}
}

// Name implements core.Filter.
func (f *KeywordFirst) Name() string { return "Keyword" }

// Collect implements core.Filter: it merges the query tokens' full lists,
// computes the exact weighted Jaccard from the accumulated common weight,
// and keeps objects passing τT. stop is polled before each list merge and
// between candidate insertions. Stopping mid-merge only loses candidates
// (partial weight sums can pass the τT gate solely when the full sums would
// too), which is exactly what an abandoned search wants.
func (f *KeywordFirst) Collect(q *model.Query, cs *core.CandidateSet, st *core.FilterStats, stop func() bool, scr *core.Scratch) {
	acc := f.Accumulate(q, st, stop, scr)
	if acc == nil {
		return
	}
	for _, obj := range acc.Touched() {
		if stop != nil && stop() {
			return
		}
		common := acc.Sum(obj)
		union := q.TotalWeight + f.ds.TotalWeight(model.ObjectID(obj)) - common
		if union <= 0 {
			continue
		}
		if common/union >= q.TauT-1e-12 {
			cs.Add(obj)
		}
	}
}

// SpatialFirst finds the objects with simR ≥ τR through an R-tree overlap
// search and leaves the textual check to verification.
type SpatialFirst struct {
	ds   *model.Dataset
	tree *rtree.Tree
}

// NewSpatialFirst bulk-loads an R-tree over all objects of ds.
func NewSpatialFirst(ds *model.Dataset, fanout int) (*SpatialFirst, error) {
	entries := make([]rtree.Entry, ds.Len())
	for i := range entries {
		entries[i] = rtree.Entry{Rect: ds.Region(model.ObjectID(i)), ID: uint32(i)}
	}
	tree, err := rtree.BulkLoad(entries, fanout)
	if err != nil {
		return nil, err
	}
	return &SpatialFirst{ds: ds, tree: tree}, nil
}

// Name implements core.Filter.
func (f *SpatialFirst) Name() string { return "Spatial" }

// SizeBytes implements core.Filter.
func (f *SpatialFirst) SizeBytes() int64 { return f.tree.SizeBytes() }

// Collect implements core.Filter: every object overlapping q.R is examined
// (objects with simR ≥ τR > 0 necessarily overlap), and the exact spatial
// similarity gates candidacy. stop is polled per overlapping entry, cutting
// the R-tree walk short.
func (f *SpatialFirst) Collect(q *model.Query, cs *core.CandidateSet, st *core.FilterStats, stop func() bool, _ *core.Scratch) {
	st.ListsProbed++
	f.tree.SearchOverlapping(q.Region, func(e rtree.Entry) bool {
		if stop != nil && stop() {
			return false
		}
		st.PostingsScanned++
		if f.ds.SimR(q, model.ObjectID(e.ID)) >= q.TauR-1e-12 {
			cs.Add(e.ID)
		}
		return true
	})
}

// Scan is the exhaustive filter: every object is a candidate. It is the
// correctness oracle for tests and the degenerate baseline for experiments.
type Scan struct {
	ds *model.Dataset
}

// NewScan creates a scan filter over ds.
func NewScan(ds *model.Dataset) *Scan { return &Scan{ds: ds} }

// Name implements core.Filter.
func (f *Scan) Name() string { return "Scan" }

// SizeBytes implements core.Filter: a scan needs no index.
func (f *Scan) SizeBytes() int64 { return 0 }

// Collect implements core.Filter: stop is polled per object, so an
// early-terminating consumer scans only as far as its answers reach.
func (f *Scan) Collect(q *model.Query, cs *core.CandidateSet, st *core.FilterStats, stop func() bool, _ *core.Scratch) {
	for obj := 0; obj < f.ds.Len(); obj++ {
		if stop != nil && stop() {
			return
		}
		st.PostingsScanned++
		cs.Add(uint32(obj))
	}
}

package core

import (
	"fmt"

	"github.com/sealdb/seal/internal/invidx"
	"github.com/sealdb/seal/internal/model"
)

// FilterSpec identifies a signature filter configuration: what a segment
// manifest records, and all BuildFilter and OpenFilter need. Kind is one of
// "token", "grid", "hybrid", "seal".
type FilterSpec struct {
	Kind       string `json:"kind"`
	P          int    `json:"p,omitempty"`
	Buckets    int    `json:"buckets,omitempty"`
	MaxLevel   int    `json:"max_level,omitempty"`
	GridBudget int    `json:"grid_budget,omitempty"`
}

// sigIndex is what the four signature filters share: the dataset, the
// quantized posting lists — compressed at the end of a build, or mapped from a
// segment by OpenFilter, the same bytes either way — and the spec that
// rebuilds or reopens the filter.
type sigIndex struct {
	ds   *model.Dataset
	idx  *invidx.Compressed
	spec FilterSpec
}

// compress is how every signature filter's build ends: its flat lists become
// the quantized layout the filter serves and a segment stores. A variable only
// so a test can see the flat lists a build produced.
var compress = invidx.Compress

// sigFilter is how Postings recognizes a signature filter: by the sigIndex it
// embeds.
type sigFilter interface{ postings() *sigIndex }

func (s *sigIndex) postings() *sigIndex { return s }

// SizeBytes implements Filter.
func (s *sigIndex) SizeBytes() int64 { return s.idx.SizeBytes() }

// sigKinds is the one place a FilterSpec becomes a signature filter: build
// generates the signatures over a dataset, open wraps posting storage read
// back from a segment, and dual is the flavour of list the kind probes.
var sigKinds = map[string]struct {
	dual  bool
	build func(ds *model.Dataset, s FilterSpec) (Filter, error)
	open  func(ds *model.Dataset, s FilterSpec, src *invidx.Compressed) (Filter, error)
}{
	"token": {false,
		func(ds *model.Dataset, _ FilterSpec) (Filter, error) { return NewTokenFilter(ds), nil },
		func(ds *model.Dataset, s FilterSpec, src *invidx.Compressed) (Filter, error) {
			return &TokenFilter{sigIndex{ds, src, s}}, nil
		}},
	"grid": {false,
		func(ds *model.Dataset, s FilterSpec) (Filter, error) { return orErr(NewGridFilter(ds, s.P)) },
		openGridFilter},
	"hybrid": {true,
		func(ds *model.Dataset, s FilterSpec) (Filter, error) {
			return orErr(NewHybridHashFilter(ds, s.P, s.Buckets))
		},
		openHybridHashFilter},
	"seal": {true,
		func(ds *model.Dataset, s FilterSpec) (Filter, error) {
			return orErr(NewHierarchicalFilter(ds, HierarchicalConfig{MaxLevel: s.MaxLevel, GridBudget: s.GridBudget}))
		},
		openHierarchicalFilter},
}

// orErr widens a constructor's result to Filter without wrapping a nil
// pointer in a non-nil interface.
func orErr[F Filter](f F, err error) (Filter, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

// BuildFilter builds the signature filter spec describes over ds.
func BuildFilter(ds *model.Dataset, spec FilterSpec) (Filter, error) {
	k, ok := sigKinds[spec.Kind]
	if !ok {
		return nil, fmt.Errorf("unknown filter kind %q", spec.Kind)
	}
	return k.build(ds, spec)
}

// OpenFilter pairs ds with persisted posting lists (mapped back from a
// segment) instead of regenerating signatures; spec must be the one the lists
// were built under — it determines the probe keys — and src must have been
// built over ds. The reopened filter reproduces the built one exactly.
func OpenFilter(ds *model.Dataset, spec FilterSpec, src *invidx.Compressed) (Filter, error) {
	k, ok := sigKinds[spec.Kind]
	if !ok {
		return nil, fmt.Errorf("unknown filter kind %q", spec.Kind)
	}
	if src.Dual() != k.dual {
		return nil, fmt.Errorf("segment bound flavour does not match filter kind %q", spec.Kind)
	}
	return k.open(ds, spec, src)
}

// Postings returns a signature filter's posting lists, for segment writers,
// and the spec that rebuilds or reopens it. ok is false for filters that keep
// no signature lists (scan, keyword-first, spatial-first, IR-tree).
func Postings(f Filter) (src *invidx.Compressed, spec FilterSpec, ok bool) {
	sf, ok := f.(sigFilter)
	if !ok {
		return nil, FilterSpec{}, false
	}
	s := sf.postings()
	return s.idx, s.spec, true
}

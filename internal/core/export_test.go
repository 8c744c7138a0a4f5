package core

import (
	"sync"

	"github.com/sealdb/seal/internal/invidx"
	"github.com/sealdb/seal/internal/model"
)

// Test hooks into state that is deliberately private.

// FlatPostings builds the filter spec describes over ds and returns it with
// the flat lists behind its served ones: the lists a keyed build compressed,
// or, for SEAL, the exact bounds its workers coded, frozen by a dual Builder
// (which orders each list as the workers do).
func FlatPostings(ds *model.Dataset, spec FilterSpec) (Filter, *invidx.Index, error) {
	var flat *invidx.Index
	compress = func(ix *invidx.Index) *invidx.Compressed { flat = ix; return invidx.Compress(ix) }
	var mu sync.Mutex
	coded := invidx.Builder{Dual: true}
	recordCoded = func(key uint64, obj uint32, rBound, tBound float64) {
		mu.Lock()
		coded.AddDual(key, obj, rBound, tBound)
		mu.Unlock()
	}
	defer func() { compress, recordCoded = invidx.Compress, nil }()
	f, err := BuildFilter(ds, spec)
	if flat == nil {
		flat = coded.Build()
	}
	return f, flat, err
}

package core

import (
	"github.com/sealdb/seal/internal/invidx"
	"github.com/sealdb/seal/internal/model"
)

// Test hooks into state that is deliberately private.

// FlatPostings builds the filter spec describes over ds and returns it with
// the flat lists its build compressed.
func FlatPostings(ds *model.Dataset, spec FilterSpec) (Filter, *invidx.Index, error) {
	var flat *invidx.Index
	compress = func(ix *invidx.Index) *invidx.Compressed { flat = ix; return invidx.Compress(ix) }
	defer func() { compress = invidx.Compress }()
	f, err := BuildFilter(ds, spec)
	return f, flat, err
}

package invidx

import "fmt"

// ListScratch is the reusable decode buffer for compressed posting lists.
// A probe against a compressed index, in memory or mapped from a segment,
// materializes the list into these slices; a probe against a flat index
// ignores it and returns a zero-copy arena view. Each Searcher owns one
// (inside core.Scratch), so steady-state decoding allocates nothing once the
// buffers have grown to the longest list probed.
type ListScratch struct {
	objs    []uint32
	bounds  []float64
	tBounds []float64
}

// grow resizes the scratch to hold n postings (dual adds the textual-bound
// lane) without shrinking capacity.
func (s *ListScratch) grow(n int, dual bool) {
	if cap(s.objs) < n {
		s.objs = make([]uint32, n)
		s.bounds = make([]float64, n)
	}
	s.objs = s.objs[:n]
	s.bounds = s.bounds[:n]
	if dual {
		if cap(s.tBounds) < n {
			s.tBounds = make([]float64, n)
		}
		s.tBounds = s.tBounds[:n]
	} else {
		s.tBounds = s.tBounds[:0]
	}
}

// Source is a read view over posting lists: the flat in-memory Index and its
// Compressed form, in memory or mapped from a segment, both satisfy it, so the
// signature filters probe storage without knowing the layout.
//
// At returns the i-th list in key order, and Probe the list of key (empty for
// absent keys): Probe is a key lookup and then At. The view is valid until the
// next call with the same scratch. A position outside [0, Lists()) is an
// error wrapping ErrCorrupt, as is corruption found by a layout that must
// decode; a Probe of the flat layout never fails.
type Source interface {
	At(i int, scr *ListScratch) (List, error)
	Probe(key uint64, scr *ListScratch) (List, error)
	// Dual reports whether the lists carry textual bounds.
	Dual() bool
	Lists() int
	Postings() int
	SizeBytes() int64
	// EachLen reports every (key, posting count) pair in ascending key order
	// without touching posting data: enough for consumers that derive state
	// from list lengths alone (the grid filter's cell counter, whose count(g)
	// is exactly cell g's posting count; the Seal filter's grid ranks).
	EachLen(fn func(key uint64, n int))
	// Runs returns the key column of an index frozen by FromSortedRuns:
	// group g's keys are g<<32 | nodes[i] for i in runs.Span(g), and i is the
	// position of that key's list. Both are nil for an index that keeps a key
	// array. They alias the index (for a mapped segment, its pages).
	// Read-only.
	Runs() (runs *Extents, nodes []uint32)
}

// EachLen reports every list's key and length from the start offsets.
func (ix *Index) EachLen(fn func(key uint64, n int)) {
	ix.eachKey(func(i int, key uint64) { fn(key, int(ix.starts[i+1]-ix.starts[i])) })
}

// errPosition is At's answer to a position that names no list. Positions come
// from state derived off the key column, which for a mapped segment is outside
// input, so this is corruption and not a caller's bug.
func errPosition(i, lists int) error {
	return fmt.Errorf("%w: list position %d outside [0, %d)", ErrCorrupt, i, lists)
}

// At returns a zero-copy arena view of list i; scr is unused. At and Probe
// are the filters' hot calls, so each builds the nine-word view where it is
// returned: built in a shared helper — an inlined one, or At called from Probe
// — it is copied once more on the way out (+6 to +10 ns a probe, measured on
// BenchmarkLayoutProbe).
func (ix *Index) At(i int, _ *ListScratch) (List, error) {
	if uint(i) >= uint(len(ix.starts)-1) {
		return List{}, errPosition(i, len(ix.starts)-1)
	}
	lo, hi := ix.starts[i], ix.starts[i+1]
	if ix.dual {
		return List{objs: ix.objs[lo:hi], bounds: ix.bounds[lo:hi], tBounds: ix.tBounds[lo:hi]}, nil
	}
	return List{objs: ix.objs[lo:hi], bounds: ix.bounds[lo:hi]}, nil
}

// Probe looks key up and returns the view At its position; the error is
// always nil.
func (ix *Index) Probe(key uint64, _ *ListScratch) (List, error) {
	i := ix.find(key)
	if i < 0 {
		return List{}, nil
	}
	lo, hi := ix.starts[i], ix.starts[i+1]
	if ix.dual {
		return List{objs: ix.objs[lo:hi], bounds: ix.bounds[lo:hi], tBounds: ix.tBounds[lo:hi]}, nil
	}
	return List{objs: ix.objs[lo:hi], bounds: ix.bounds[lo:hi]}, nil
}

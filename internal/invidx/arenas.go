package invidx

import "fmt"

// KeyArenas is an index's key column: a run table over the nodes.
type KeyArenas struct {
	Runs  []uint64 // Extents words: group g's nodes start at the g-th value
	Nodes []uint32 // the keys' low words, ascending inside a run
}

// CompressedArenas exposes a compressed index as its backing slices, in
// exactly the form a posting segment persists them: the key column, and one
// blob of fixed-width rows cut into lists by an extent table, counted in rows.
// Callers must not mutate any slice: for an in-memory index they alias the
// live arena, and for a mapped segment they alias read-only pages.
type CompressedArenas struct {
	KeyArenas
	Dual    bool
	Extents []uint64 // Extents words: list i holds the rows between values i and i+1
	Blob    []byte   // the lists' columns, one list after another
	Layout  Layout
}

func (c *keyColumn) arenas() KeyArenas { return KeyArenas{Runs: c.runs.words, Nodes: c.nodes} }

// validateKeys checks a persisted key column and wraps it: a run table — an
// extent table ending at the node count — over nodes strictly ascending inside
// every run, which is what makes binary searches of a run, and positions taken
// from it, mean what the writer meant.
func validateKeys(a KeyArenas) (keyColumn, error) {
	runs, err := extentsFromWords(a.Runs, uint64(len(a.Nodes)))
	if err != nil {
		return keyColumn{}, fmt.Errorf("run table: %w", err)
	}
	starts := runs.values()
	lo := starts.next()
	for g := 0; g < runs.Len(); g++ {
		hi := starts.next()
		for i := lo + 1; i < hi; i++ {
			if a.Nodes[i] <= a.Nodes[i-1] {
				return keyColumn{}, corrupt("run nodes not strictly ascending")
			}
		}
		lo = hi
	}
	return keyColumn{runs: runs, nodes: a.Nodes}, nil
}

// validateCompressedArenas checks, over the nk lists' extents, what the query
// path relies on, visiting every list once, and returns the extent table. It
// is the one check of outside bytes: a probe decodes without checking. The
// extent table ends at the posting
// total and holds nk lists, the blob is that many rows, and every list is
// checked where it lies — spatial codes never ascending, no code past
// infinity, objects in range.
func validateCompressedArenas(a CompressedArenas, nk, postings, objects int) (*Extents, error) {
	rows, err := extentsFromWords(a.Extents, uint64(postings))
	if err != nil {
		return nil, err
	}
	if rows.Len() != nk {
		return nil, corrupt("extent table length mismatch")
	}
	w := a.Layout.rowWidth(a.Dual)
	if len(a.Blob) != postings*w {
		return nil, corrupt("blob is not the posting total's rows")
	}
	starts := rows.values()
	lo := starts.next()
	for i := 0; i < nk; i++ {
		hi := starts.next()
		if err := walkLanes(a.Blob[lo*w:hi*w], hi-lo, a.Dual, a.Layout, objects); err != nil {
			return nil, err
		}
		lo = hi
	}
	return rows, nil
}

// CompressedFromArenas validates a and wraps it as a compressed index,
// sharing (not copying) the slices. postings is the expected posting total
// (the segment header's claim): the extent table must end there.
func CompressedFromArenas(a CompressedArenas, postings, objects int) (*Compressed, error) {
	col, err := validateKeys(a.KeyArenas)
	if err != nil {
		return nil, err
	}
	rows, err := validateCompressedArenas(a, col.lists(), postings, objects)
	if err != nil {
		return nil, err
	}
	return &Compressed{keyColumn: col, rows: *rows, blob: a.Blob, width: a.Layout.rowWidth(a.Dual), layout: a.Layout, dual: a.Dual}, nil
}

package baseline_test

import (
	"testing"

	"github.com/sealdb/seal/internal/baseline"
	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/geo"
)

func TestSpatialFirstFanoutValidation(t *testing.T) {
	ds, _ := paperSetup(t)
	if _, err := baseline.NewSpatialFirst(ds, 2); err == nil {
		t.Fatal("fanout < 4 should fail")
	}
}

// TestKeywordFirstUnknownOnlyQuery: a query with only unknown terms cannot
// match anything; the keyword filter must produce zero candidates, not
// crash on absent lists.
func TestKeywordFirstUnknownOnlyQuery(t *testing.T) {
	ds, _ := paperSetup(t)
	f := baseline.NewKeywordFirst(ds)
	q, err := ds.NewQuery(geo.Rect{MinX: 0, MinY: 0, MaxX: 120, MaxY: 120},
		[]string{"absent-one", "absent-two"}, 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cs := core.NewCandidateSet(ds.Len())
	cs.Reset()
	var st core.FilterStats
	f.Collect(q, cs, &st, nil, new(core.Scratch))
	if cs.Len() != 0 {
		t.Fatalf("unknown-only query produced candidates: %v", cs.IDs())
	}
}

// TestSpatialFirstDegenerateQueryRegion: a point query region overlaps
// nothing with positive area, so spatial-first must return no candidates
// even when the point lies inside object MBRs.
func TestSpatialFirstDegenerateQueryRegion(t *testing.T) {
	ds, _ := paperSetup(t)
	f, err := baseline.NewSpatialFirst(ds, 8)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ds.NewQuery(geo.Rect{MinX: 60, MinY: 40, MaxX: 60, MaxY: 40},
		[]string{"coffee"}, 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cs := core.NewCandidateSet(ds.Len())
	cs.Reset()
	var st core.FilterStats
	f.Collect(q, cs, &st, nil, new(core.Scratch))
	if cs.Len() != 0 {
		t.Fatalf("degenerate query region produced candidates: %v", cs.IDs())
	}
}

// TestScanIsCompleteOracle: the scan filter plus verification answers any
// query, including one whose region covers the whole space.
func TestScanIsCompleteOracle(t *testing.T) {
	ds, _ := paperSetup(t)
	s := core.NewSearcher(ds, baseline.NewScan(ds))
	q, err := ds.NewQuery(ds.Space(), []string{"coffee", "tea"}, 0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	matches, st := s.Search(q, nil, 0)
	if st.Candidates != ds.Len() {
		t.Fatalf("scan candidates = %d, want all %d", st.Candidates, ds.Len())
	}
	for _, m := range matches {
		if !ds.Matches(q, m.ID) {
			t.Fatalf("scan returned non-matching object %d", m.ID)
		}
	}
}

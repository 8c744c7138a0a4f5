package baseline_test

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/sealdb/seal/internal/baseline"
	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/paperdata"
	"github.com/sealdb/seal/internal/testutil"
)

func paperSetup(t *testing.T) (*model.Dataset, *model.Query) {
	t.Helper()
	ds, err := paperdata.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	q, err := paperdata.Query(ds)
	if err != nil {
		t.Fatal(err)
	}
	return ds, q
}

func buildBaselines(t *testing.T, ds *model.Dataset) []core.Filter {
	t.Helper()
	kw := baseline.NewKeywordFirst(ds)
	sp, err := baseline.NewSpatialFirst(ds, 8)
	if err != nil {
		t.Fatal(err)
	}
	return []core.Filter{kw, sp, baseline.NewScan(ds)}
}

func TestBaselinesOnPaperExample(t *testing.T) {
	ds, q := paperSetup(t)
	for _, f := range buildBaselines(t, ds) {
		s := core.NewSearcher(ds, f)
		matches, _ := s.Search(q, nil, 0)
		if len(matches) != 1 || matches[0].ID != 1 {
			t.Fatalf("%s answers = %v, want [o2]", f.Name(), matches)
		}
	}
}

// TestKeywordFirstCandidates: Keyword-first keeps exactly the objects with
// simT ≥ τT. On the paper data with τT = 0.3 these are {o1,o2,o4,o5}:
// o3 = {starbucks,ice,tea} has simT = 0.8/(1.9+2.7-0.8) ≈ 0.21 < 0.3.
func TestKeywordFirstCandidates(t *testing.T) {
	ds, q := paperSetup(t)
	f := baseline.NewKeywordFirst(ds)
	cs := core.NewCandidateSet(ds.Len())
	var st core.FilterStats
	cs.Reset()
	f.Collect(q, cs, &st, nil, new(core.Scratch))
	want := map[uint32]bool{0: true, 1: true, 3: true, 4: true}
	if cs.Len() != len(want) {
		t.Fatalf("candidates = %v, want o1,o2,o4,o5", cs.IDs())
	}
	for _, obj := range cs.IDs() {
		if !want[obj] {
			t.Fatalf("unexpected candidate o%d", obj+1)
		}
	}
	if f.SizeBytes() <= 0 {
		t.Fatalf("index stats not populated")
	}
}

// TestSpatialFirstCandidates: Spatial-first keeps exactly the objects with
// simR ≥ τR, which on the paper data is only o2.
func TestSpatialFirstCandidates(t *testing.T) {
	ds, q := paperSetup(t)
	f, err := baseline.NewSpatialFirst(ds, 8)
	if err != nil {
		t.Fatal(err)
	}
	cs := core.NewCandidateSet(ds.Len())
	var st core.FilterStats
	cs.Reset()
	f.Collect(q, cs, &st, nil, new(core.Scratch))
	if cs.Len() != 1 || cs.IDs()[0] != 1 {
		t.Fatalf("candidates = %v, want [o2]", cs.IDs())
	}
	// o1 overlaps q spatially, so the R-tree must have examined it.
	if st.PostingsScanned < 2 {
		t.Fatalf("expected at least 2 overlap checks, got %d", st.PostingsScanned)
	}
}

// TestBaselinesMatchBruteForce checks every baseline against a brute-force
// scan, from two searchers at once over each filter: searchers may share a
// filter, so under -race this also catches per-query state kept on one.
func TestBaselinesMatchBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds, err := testutil.RandomDataset(rng, 100+rng.Intn(300), 30)
		if err != nil {
			t.Fatal(err)
		}
		queries := make([]*model.Query, 25)
		want := make([][]model.ObjectID, len(queries))
		for qi := range queries {
			if queries[qi], err = testutil.RandomQuery(rng, ds, 30); err != nil {
				t.Fatal(err)
			}
			want[qi] = testutil.BruteForceAnswers(ds, queries[qi])
		}
		var wg sync.WaitGroup
		for _, f := range buildBaselines(t, ds) {
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s := core.NewSearcher(ds, f)
					for qi, q := range queries {
						matches, _ := s.Search(q, nil, 0)
						if len(matches) != len(want[qi]) {
							t.Errorf("seed %d q%d %s: %d results, want %d", seed, qi, f.Name(), len(matches), len(want[qi]))
							return
						}
						for i, m := range matches {
							if m.ID != want[qi][i] {
								t.Errorf("seed %d q%d %s: result %v, want %v", seed, qi, f.Name(), m.ID, want[qi][i])
								return
							}
						}
					}
				}()
			}
		}
		wg.Wait()
	}
}

func TestScanSize(t *testing.T) {
	ds, _ := paperSetup(t)
	if baseline.NewScan(ds).SizeBytes() != 0 {
		t.Fatal("scan should report zero index size")
	}
}

package core_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/testutil"
)

// bruteTopK computes the exact top-k by scanning every object.
func bruteTopK(ds *model.Dataset, q *model.Query, opts core.TopKOptions) []core.ScoredMatch {
	var out []core.ScoredMatch
	for id := model.ObjectID(0); int(id) < ds.Len(); id++ {
		simR := ds.SimR(q, id)
		simT := ds.SimT(q, id)
		if simR < opts.FloorR || simT < opts.FloorT {
			continue
		}
		out = append(out, core.ScoredMatch{
			ID: id, SimR: simR, SimT: simT,
			Score: opts.Alpha*simR + (1-opts.Alpha)*simT,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > opts.K {
		out = out[:opts.K]
	}
	return out
}

func TestTopKValidation(t *testing.T) {
	ds, q := paperSetup(t)
	s := core.NewSearcher(ds, core.NewTokenFilter(ds))
	if _, _, err := s.TopK(q, core.TopKOptions{K: 0}, nil); err == nil {
		t.Error("K=0 should fail")
	}
	if _, _, err := s.TopK(q, core.TopKOptions{K: 1, Alpha: 1.5}, nil); err == nil {
		t.Error("alpha > 1 should fail")
	}
	if _, _, err := s.TopK(q, core.TopKOptions{K: 1, FloorR: -0.1}, nil); err == nil {
		t.Error("negative floor should fail")
	}
}

func TestTopKPaperExample(t *testing.T) {
	ds, q := paperSetup(t)
	s := core.NewSearcher(ds, core.NewTokenFilter(ds))
	// Rank by equally-weighted score; o2 (simR=0.32, simT=1.0) must be #1.
	got, _, err := s.TopK(q, core.TopKOptions{K: 2, Alpha: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0].ID != 1 {
		t.Fatalf("top-1 = %+v, want o2", got)
	}
	wantScore := 0.5*(1000.0/3150.0) + 0.5*1.0
	if math.Abs(got[0].Score-wantScore) > 1e-12 {
		t.Fatalf("score = %v, want %v", got[0].Score, wantScore)
	}
	// Results are score-sorted.
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatalf("results not sorted: %+v", got)
		}
	}
}

// TestTopKMatchesBruteForce is the correctness property: threshold descent
// returns exactly the brute-force top-k for random data, filters, and
// parameters.
func TestTopKMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds, err := testutil.RandomDataset(rng, 150+rng.Intn(200), 30)
		if err != nil {
			t.Fatal(err)
		}
		filters := []core.Filter{
			core.NewTokenFilter(ds),
			mustGrid(t, ds, 32),
			mustHier(t, ds),
		}
		for qi := 0; qi < 15; qi++ {
			q, err := testutil.RandomQuery(rng, ds, 30)
			if err != nil {
				t.Fatal(err)
			}
			var terms []string
			for _, tok := range q.Tokens {
				terms = append(terms, ds.Vocab().Term(tok))
			}
			opts := core.TopKOptions{
				K:      1 + rng.Intn(8),
				Alpha:  []float64{0, 0.3, 0.5, 0.8, 1}[rng.Intn(5)],
				FloorR: 0.02,
				FloorT: 0.02,
			}
			oracleQ, err := ds.NewQuery(q.Region, terms, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteTopK(ds, oracleQ, opts)
			for _, f := range filters {
				s := core.NewSearcher(ds, f)
				got, _, err := s.TopK(oracleQ, opts, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d q%d %s: %d results, want %d (alpha=%g k=%d)",
						seed, qi, f.Name(), len(got), len(want), opts.Alpha, opts.K)
				}
				for i := range want {
					if got[i].ID != want[i].ID || math.Abs(got[i].Score-want[i].Score) > 1e-9 {
						t.Fatalf("seed %d q%d %s: rank %d = %+v, want %+v",
							seed, qi, f.Name(), i, got[i], want[i])
					}
				}
			}
		}
	}
}

func mustGrid(t *testing.T, ds *model.Dataset, p int) core.Filter {
	t.Helper()
	f, err := core.NewGridFilter(ds, p)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustHier(t *testing.T, ds *model.Dataset) core.Filter {
	t.Helper()
	f, err := core.NewHierarchicalFilter(ds, core.HierarchicalConfig{MaxLevel: 6, GridBudget: 4})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestTopKFewerThanK(t *testing.T) {
	ds, q := paperSetup(t)
	s := core.NewSearcher(ds, core.NewTokenFilter(ds))
	// Only o2 satisfies floors this strict.
	got, _, err := s.TopK(q, core.TopKOptions{K: 5, Alpha: 0.5, FloorR: 0.3, FloorT: 0.3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("got %+v, want just o2", got)
	}
}

// TestTopKStopBetweenRounds: stop is polled once before each round. When it
// first turns true before round r, the descent has done exactly the work of
// r−1 rounds — that of a descent StopBelow ends after round r−1 — observed
// r−1 complete prefixes, and returns no ranking and no error.
func TestTopKStopBetweenRounds(t *testing.T) {
	ds := allocDataset(t, 600)
	q, opts := topKQuery(t, ds)
	for _, f := range allocFilters(t, ds) {
		s := core.NewSearcher(ds, f)
		rounds := 0
		full := opts
		full.Observe = func([]core.ScoredMatch) { rounds++ }
		if _, _, err := s.TopK(q, full, nil); err != nil {
			t.Fatal(err)
		}
		if rounds < 2 {
			t.Fatalf("%s: the descent ran %d rounds; the test query must run several", f.Name(), rounds)
		}
		for r := 1; r <= rounds; r++ {
			var want core.SearchStats
			if r > 1 {
				ref, observed := opts, 0
				ref.Observe = func([]core.ScoredMatch) { observed++ }
				ref.StopBelow = func() float64 {
					if observed >= r-1 {
						return 2 // above every score: stop here
					}
					return -1
				}
				if _, want, _ = s.TopK(q, ref, nil); observed != r-1 {
					t.Fatalf("%s: reference descent observed %d rounds, want %d", f.Name(), observed, r-1)
				}
			}
			o, observed, polls := opts, 0, 0
			o.Observe = func([]core.ScoredMatch) { observed++ }
			ranked, st, err := s.TopK(q, o, func() bool { polls++; return polls == r })
			if err != nil || ranked != nil {
				t.Fatalf("%s stopped before round %d: ranking %v, error %v; want neither", f.Name(), r, ranked, err)
			}
			if polls != r || observed != r-1 {
				t.Fatalf("%s stopped before round %d: %d polls and %d observed rounds, want %d and %d", f.Name(), r, polls, observed, r, r-1)
			}
			if st.FilterStats != want.FilterStats {
				t.Fatalf("%s stopped before round %d: work %+v, want %+v", f.Name(), r, st.FilterStats, want.FilterStats)
			}
		}
	}
}

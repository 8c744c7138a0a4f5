package core_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/testutil"
)

// TestHierarchicalBuildDeterministic: index construction fans HSS selection
// out across goroutines; the resulting index must nevertheless be
// bit-for-bit deterministic — same sizes, same candidates, same stats — no
// matter how the scheduler interleaves workers.
func TestHierarchicalBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	ds, err := testutil.RandomDataset(rng, 400, 40)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.HierarchicalConfig{MaxLevel: 7, GridBudget: 6}
	build := func() *core.HierarchicalFilter {
		f, err := core.NewHierarchicalFilter(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	a := build()
	queries := make([]queryWithStats, 0, 30)
	for qi := 0; qi < 30; qi++ {
		q, err := testutil.RandomQuery(rng, ds, 40)
		if err != nil {
			t.Fatal(err)
		}
		ids, st := collect(t, a, ds, q)
		queries = append(queries, queryWithStats{q: q, ids: ids, st: st})
	}
	// Rebuild at the ambient parallelism, then with one token worker and with
	// several: which worker builds which token must leave no trace either.
	procs := []int{runtime.GOMAXPROCS(0), 1, max(4, runtime.NumCPU())}
	for rebuild := 0; rebuild < 3; rebuild++ {
		prev := runtime.GOMAXPROCS(procs[rebuild])
		b := build()
		runtime.GOMAXPROCS(prev)
		// The keys carry every token's selected grids; the arenas, all of it.
		ai, _, _ := core.Postings(a)
		bi, _, _ := core.Postings(b)
		if !reflect.DeepEqual(ai, bi) {
			t.Fatalf("rebuild %d (GOMAXPROCS %d): posting indexes differ", rebuild, procs[rebuild])
		}
		if a.SizeBytes() != b.SizeBytes() || ai.Postings() != bi.Postings() {
			t.Fatalf("rebuild %d: size %d/%d postings %d/%d differ",
				rebuild, a.SizeBytes(), b.SizeBytes(), ai.Postings(), bi.Postings())
		}
		for qi, rec := range queries {
			ids, st := collect(t, b, ds, rec.q)
			if !equalIDs(ids, rec.ids) {
				t.Fatalf("rebuild %d q%d: candidates differ", rebuild, qi)
			}
			if st != rec.st {
				t.Fatalf("rebuild %d q%d: stats differ: %+v vs %+v", rebuild, qi, st, rec.st)
			}
		}
	}
}

type queryWithStats struct {
	q   *model.Query
	ids []model.ObjectID
	st  core.FilterStats
}

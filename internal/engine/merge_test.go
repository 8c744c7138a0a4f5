package engine

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/model"
)

// TestMergeRuns: the k-way merge equals sorting the union and cutting it at
// the limit, for any number of runs (empty ones included) and any limit.
func TestMergeRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		runs := make([][]core.Match, rng.Intn(9))
		var all []core.Match
		for id := 0; id < rng.Intn(200); id++ {
			if len(runs) == 0 {
				break
			}
			m := core.Match{ID: model.ObjectID(id), SimR: rng.Float64()}
			r := rng.Intn(len(runs))
			runs[r] = append(runs[r], m)
			all = append(all, m)
		}
		limit := 0
		if rng.Intn(2) == 0 {
			limit = rng.Intn(len(all) + 3)
		}
		want := all
		if limit > 0 && len(want) > limit {
			want = want[:limit]
		}
		got := mergeRuns(runs, limit, func(m core.Match) core.Match { return m })
		if !slices.Equal(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("trial %d: %d runs, limit %d: merged %v, want %v", trial, len(runs), limit, got, want)
		}
	}
}

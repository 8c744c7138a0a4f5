package engine

import (
	"context"
	"runtime/debug"
	"testing"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/model"
)

// TestSearchAllocs pins what the execution core itself costs per query, on
// top of a searcher that allocates nothing in steady state: one pass, the
// per-shard run table and each shard's copied-out run — plus, when the query
// scatters, the live list, the outcome channel (header and buffer), the
// worker closure and the merged answer. The runtime may add one goroutine
// descriptor per worker when it has none to reuse; the scattered bound leaves
// room for exactly that.
func TestSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ds := testDataset(t, 400, 41)
	q := streamQuery(t, ds, 3)
	for _, tc := range []struct {
		shards int
		want   float64
	}{{1, 3}, {4, 2 + 4 + 5 + 4}} {
		e, err := Build(ds, Config{
			Shards:    tc.shards,
			NewFilter: func(sds *model.Dataset) (core.Filter, error) { return core.NewTokenFilter(sds), nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		search := func() {
			if m, _, err := e.Search(context.Background(), q, Options{}); err != nil || len(m) == 0 {
				t.Fatalf("search: %d matches, %v", len(m), err)
			}
		}
		for i := 0; i < 50; i++ {
			search() // fill the shard pools with warmed searchers
		}
		// A collection would empty the pools and bill the replacement
		// searchers to the runs it interrupts.
		gc := debug.SetGCPercent(-1)
		got := testing.AllocsPerRun(100, search)
		debug.SetGCPercent(gc)
		if got > tc.want {
			t.Errorf("shards=%d: %.1f allocs per collect-all search, want at most %.0f", tc.shards, got, tc.want)
		}
	}
}

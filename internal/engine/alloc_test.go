package engine

import (
	"context"
	"runtime/debug"
	"testing"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/text"
)

// TestSearchAllocs pins what the execution core itself costs per query, on
// top of a searcher that allocates nothing in steady state: one pass, the
// per-shard run table, each shard's copied-out run and the merged answer —
// plus, when the query scatters, the live list, the outcome channel (header
// and buffer) and the worker closure. The runtime may add one goroutine
// descriptor per worker when it has none to reuse; the scattered bound leaves
// room for exactly that. Pruning adds nothing to admit: the selective query
// below cost 7 allocations plus up to four goroutine descriptors at dce0780,
// where a static engine scattered it to all four shards (7–9 measured); with
// two of them pruned it costs the same 7 plus at most two.
func TestSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ds := testDataset(t, 400, 41)
	broad := streamQuery(t, ds, 3)
	// One object's own region at a high τR: the far shards cannot reach it.
	selective, err := ds.NewQuery(ds.Region(17), []string{ds.Vocab().Term(text.TokenID(ds.Tokens(17)[0]))}, 0.3, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		shards int
		q      *model.Query
		pruned bool
		want   float64
	}{{1, broad, false, 4}, {4, broad, false, 3 + 4 + 4 + 4}, {4, selective, true, 7 + 2}} {
		q := tc.q
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
		if _, st, _ := e.Search(context.Background(), q, Options{}); (st.ShardsPruned > 0) != tc.pruned {
			t.Fatalf("shards=%d: %d shards pruned, want pruning = %v", tc.shards, st.ShardsPruned, tc.pruned)
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
			t.Errorf("shards=%d pruned=%v: %.1f allocs per collect-all search, want at most %.0f", tc.shards, tc.pruned, got, tc.want)
		}
	}
}

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
// plus, when two or more shards are live and the query scatters, the
// outcome channel (header and buffer) and the worker closure. The live list
// stays on the stack. The runtime may add one goroutine descriptor per
// worker when it has none to reuse; the scattered bound leaves room for
// exactly that. Pruning adds nothing to admit: the selective query below
// cost 7 allocations plus up to four goroutine descriptors at dce0780,
// where a static engine scattered it to all four shards (7–9 measured);
// with two of them pruned it costs the same 7 plus at most two. A query
// that leaves one shard live runs on the caller's goroutine and costs what
// a 1-shard index's query costs. A search that can be stopped — under a
// Limit or a ctx that can expire — costs one stop hook more, once per pass.
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
	// Another object's own region: only the shard holding it can reach it.
	lone, err := ds.NewQuery(ds.Region(1), []string{ds.Vocab().Term(text.TokenID(ds.Tokens(1)[0]))}, 0.3, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	cancelable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		shards int
		q      *model.Query
		live   int // shards searched
		limit  int
		ctx    context.Context
		want   float64
	}{
		{1, broad, 1, 0, nil, 4}, {4, broad, 4, 0, nil, 3 + 4 + 4 + 4}, {4, selective, 2, 0, nil, 7 + 2},
		{1, broad, 1, 3, nil, 4 + 1}, {4, broad, 4, 3, nil, 3 + 4 + 4 + 4 + 1},
		{4, lone, 1, 0, nil, 4}, {4, lone, 1, 0, cancelable, 4 + 1},
	} {
		q, opt, ctx := tc.q, Options{Limit: tc.limit}, tc.ctx
		if ctx == nil {
			ctx = context.Background()
		}
		e, err := Build(ds, Config{
			Shards:    tc.shards,
			NewFilter: func(sds *model.Dataset) (core.Filter, error) { return core.NewTokenFilter(sds), nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		search := func() {
			if m, _, err := e.Search(ctx, q, opt); err != nil || len(m) == 0 {
				t.Fatalf("search: %d matches, %v", len(m), err)
			}
		}
		if _, st, _ := e.Search(ctx, q, opt); st.Shards != tc.live {
			t.Fatalf("shards=%d: %d shards searched, want %d", tc.shards, st.Shards, tc.live)
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
			t.Errorf("shards=%d live=%d limit=%d cancelable=%v: %.1f allocs per search, want at most %.0f", tc.shards, tc.live, tc.limit, tc.ctx != nil, got, tc.want)
		}
	}
}

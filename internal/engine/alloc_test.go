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
// So does a ranked query that leaves one shard live: its descent prunes
// against no other shard, so it builds no k-th-score tracker and feeds none,
// and its ranking is the answer with no merge (13.0 allocations against the
// 1-shard index's 9.0 when the tracker was built before admission and the
// lone ranking merged).
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

	// A top-k (k 10) on object 1's own region at a floor only its shard can
	// reach: on 4 shards it leaves one live, and costs what it costs on 1 —
	// the pass, its descent parameters and run table, the stop hook and the
	// descent's ranking. The query arrives compiled at the floors; when TopK compiled
	// it inside the call, each cost 9 allocations.
	opts := core.TopKOptions{K: 10, Alpha: 0.5, FloorR: 0.3, FloorT: 0.001}
	q, err := ds.NewQuery(ds.Region(1), []string{ds.Vocab().Term(text.TokenID(ds.Tokens(1)[0]))}, opts.FloorR, opts.FloorT)
	if err != nil {
		t.Fatal(err)
	}
	var allocs [2]float64
	for j, shards := range []int{1, 4} {
		e, err := Build(ds, Config{
			Shards:    shards,
			NewFilter: func(sds *model.Dataset) (core.Filter, error) { return core.NewTokenFilter(sds), nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		topk := func() {
			if m, st, err := e.TopK(context.Background(), q, opts, Options{}); err != nil || len(m) == 0 || st.Shards != 1 {
				t.Fatalf("top-k over %d shards: %d matches from %d shards, %v", shards, len(m), st.Shards, err)
			}
		}
		for i := 0; i < 50; i++ {
			topk()
		}
		gc := debug.SetGCPercent(-1)
		allocs[j] = testing.AllocsPerRun(100, topk)
		debug.SetGCPercent(gc)
		if allocs[j] > 5 {
			t.Errorf("top-k over %d shards: %.1f allocs, want at most 5", shards, allocs[j])
		}
	}
	if allocs[1] > allocs[0] {
		t.Errorf("a top-k leaving 1 of 4 shards live: %.1f allocs, the same query on 1 shard %.1f", allocs[1], allocs[0])
	}
}

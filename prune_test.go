package seal_test

// Shard pruning at the public API. Every index prunes, so the reference is
// the brute-force oracle (oracle_test.go), which scans the dataset without an
// engine, and the suite crosses what pruning must never disturb: the four
// storage layouts, 1/4/6 shards, and every query shape.
// Answers are bit-identical to the scan; Stats account for every shard once
// (pruned or dispatched); a traced query names the bound behind each skip.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/sealdb/seal"
)

// pruneLayouts are the four ways an index comes to hold its postings: built
// in memory, built and saved, mapped again by a Build over the saved
// directory, and mapped by Open.
var pruneLayouts = []struct {
	name  string
	build func(t testing.TB, objects []seal.Object, shards int) *seal.Index
}{
	{"built", func(t testing.TB, objects []seal.Object, shards int) *seal.Index {
		return pruneBuild(t, objects, shards)
	}},
	{"saved", func(t testing.TB, objects []seal.Object, shards int) *seal.Index {
		return pruneBuild(t, objects, shards, seal.WithSegmentDir(t.TempDir()))
	}},
	{"remapped", func(t testing.TB, objects []seal.Object, shards int) *seal.Index {
		dir := t.TempDir()
		if err := pruneBuild(t, objects, shards, seal.WithSegmentDir(dir)).Close(); err != nil {
			t.Fatal(err)
		}
		ix := pruneBuild(t, objects, shards, seal.WithSegmentDir(dir))
		if !ix.Stats().Mapped {
			t.Fatalf("a second Build over the saved directory did not map it")
		}
		return ix
	}},
	{"mapped", func(t testing.TB, objects []seal.Object, shards int) *seal.Index {
		dir := t.TempDir()
		if err := pruneBuild(t, objects, shards, seal.WithSegmentDir(dir)).Close(); err != nil {
			t.Fatal(err)
		}
		ix, err := seal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !ix.Stats().Mapped {
			t.Fatalf("reopened index is not mapped")
		}
		return ix
	}},
}

func pruneBuild(t testing.TB, objects []seal.Object, shards int, extra ...seal.Option) *seal.Index {
	t.Helper()
	opts := append([]seal.Option{seal.WithMethod(seal.MethodSeal), seal.WithMaxLevel(4), seal.WithShards(shards)}, extra...)
	ix, err := seal.Build(objects, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// checkAccounting holds one query's stats to the prune contract: every shard
// is pruned or dispatched at most once.
func checkAccounting(t *testing.T, label string, st *seal.Stats, shards int) int {
	t.Helper()
	if st == nil {
		t.Fatalf("%s: no stats collected", label)
	}
	if st.ShardsPruned+st.ShardFanout > shards || st.ShardErrors != 0 {
		t.Fatalf("%s: pruned %d + fanout %d (errors %d) on %d shards", label, st.ShardsPruned, st.ShardFanout, st.ShardErrors, shards)
	}
	return st.ShardsPruned
}

func TestPruneEveryLayoutAndShape(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	objects := shardObjects(300, rng)
	oracle := newOracle(t, objects)

	// Selective: tight rects at a high spatial threshold, which most
	// partitions cannot reach. Broad: the shard suites' mixed workload.
	var selective []seal.Request
	for i := 0; i < 30; i++ {
		x, y := rng.Float64()*95, rng.Float64()*95
		selective = append(selective, seal.Request{
			Region: seal.Rect{MinX: x, MinY: y, MaxX: x + 3, MaxY: y + 3},
			Tokens: []string{"t1", "t2"}, TauR: 0.5, TauT: 0.1,
		})
	}
	for id := 0; id < 20; id += 2 { // rects that do have answers: an object's own region
		if o := objects[id]; len(o.Regions) == 0 {
			selective = append(selective, seal.Request{Region: o.Region, Tokens: o.Tokens, TauR: 0.4, TauT: 0.1})
		}
	}
	queries := append(append([]seal.Request(nil), selective...), shardQueries(16, rng)...)

	for _, layout := range pruneLayouts {
		for _, shards := range []int{1, 4, 6} {
			t.Run(fmt.Sprintf("%s/shards=%d", layout.name, shards), func(t *testing.T) {
				ix := layout.build(t, objects, shards)
				defer ix.Close()
				method := ix.Stats().Method
				prunedSelective, answered := 0, 0

				for qi, q := range queries {
					label := fmt.Sprintf("query %d", qi)
					want := oracle.threshold(t, q)
					answered += len(want)

					// Query, with the trace's evidence for every skip.
					res, err := ix.Query(ctx, q, seal.CollectStats(), seal.CollectTrace())
					if err != nil {
						t.Fatal(err)
					}
					requireSameMatches(t, label+" Query", res.Matches, want)
					pruned := checkAccounting(t, label+" Query", res.Stats, shards)
					if qi < len(selective) {
						prunedSelective += pruned
					}
					if len(res.Trace.Pruned) != pruned {
						t.Fatalf("%s: trace lists %d pruned shards, stats %d", label, len(res.Trace.Pruned), pruned)
					}
					for _, pr := range res.Trace.Pruned {
						if pr.Bound >= pr.TauR || pr.TauR != q.TauR || pr.Shard < 0 || pr.Shard >= shards {
							t.Fatalf("%s: implausible prune evidence %+v at tauR %v", label, pr, q.TauR)
						}
					}
					for _, s := range res.Trace.Spans {
						if (s.Shard >= 0) != (s.Family == method) || (s.Shard < 0 && s.Family != "") {
							t.Fatalf("%s: span %+v, want family %q on shard spans only", label, s, method)
						}
					}

					// Query + Limit/Offset: the exact page of the ID order.
					var st seal.Stats
					page, err := ix.Query(ctx, q, seal.Offset(1), seal.Limit(2), seal.StatsInto(&st))
					if err != nil {
						t.Fatal(err)
					}
					requireSameMatches(t, label+" page", page.Matches, want[min(1, len(want)):min(3, len(want))])
					checkAccounting(t, label+" page", &st, shards)

					// Stream: arrival order, compared as a set.
					var streamed []seal.Match
					for m, err := range ix.Stream(ctx, q, seal.StatsInto(&st)) {
						if err != nil {
							t.Fatal(err)
						}
						streamed = append(streamed, m)
					}
					slices.SortFunc(streamed, func(a, b seal.Match) int { return a.ID - b.ID })
					requireSameMatches(t, label+" Stream", streamed, want)
					if got := checkAccounting(t, label+" Stream", &st, shards); got != pruned {
						t.Fatalf("%s: Stream pruned %d shards, Query %d", label, got, pruned)
					}

					// Ranked: pruning keys on FloorR — the default, and an
					// explicit one high enough to skip shards.
					for _, floorR := range []float64{0, 0.3} {
						req := seal.Request{Region: q.Region, Tokens: q.Tokens, K: 1 + qi%5, Alpha: 0.5, FloorR: floorR, FloorT: 0.01}
						ranked, err := ix.Query(ctx, req, seal.CollectStats())
						if err != nil {
							t.Fatal(err)
						}
						requireSameMatches(t, fmt.Sprintf("%s ranked floorR=%v", label, floorR), ranked.Matches, oracle.ranked(t, req))
						checkAccounting(t, label+" ranked", ranked.Stats, shards)
					}
				}

				// QueryBatch: every query at once, each against its own oracle.
				reqs := make([]seal.Request, len(queries))
				for i, q := range queries {
					reqs[i] = q
				}
				prunedBatch := 0
				for qi, br := range ix.QueryBatch(ctx, reqs, seal.CollectStats()) {
					if br.Err != nil {
						t.Fatal(br.Err)
					}
					requireSameMatches(t, fmt.Sprintf("batch query %d", qi), br.Results.Matches, oracle.threshold(t, queries[qi]))
					if p := checkAccounting(t, fmt.Sprintf("batch query %d", qi), br.Results.Stats, shards); qi < len(selective) {
						prunedBatch += p
					}
				}

				if answered == 0 {
					t.Fatal("no query has an answer; the suite compares nothing")
				}
				if prunedBatch != prunedSelective {
					t.Fatalf("QueryBatch pruned %d shards on the selective rects, Query %d", prunedBatch, prunedSelective)
				}
				if shards > 1 && prunedSelective == 0 {
					t.Fatalf("selective rects pruned nothing on %d %s shards", shards, layout.name)
				}
			})
		}
	}
}

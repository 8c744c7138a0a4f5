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
	"github.com/sealdb/seal/internal/model"
)

// pruneLayouts are the four ways an index holds its postings.
var pruneLayouts = []struct {
	name  string
	build func(t testing.TB, objects []seal.Object, shards int) *seal.Index
}{
	{"raw", func(t testing.TB, objects []seal.Object, shards int) *seal.Index {
		return pruneBuild(t, objects, shards)
	}},
	{"compressed", func(t testing.TB, objects []seal.Object, shards int) *seal.Index {
		return pruneBuild(t, objects, shards, seal.WithCompression(seal.CompressionQuantized))
	}},
	{"saved", func(t testing.TB, objects []seal.Object, shards int) *seal.Index {
		return pruneBuild(t, objects, shards, seal.WithSegmentDir(t.TempDir()))
	}},
	{"mapped", func(t testing.TB, objects []seal.Object, shards int) *seal.Index {
		dir := t.TempDir()
		built := pruneBuild(t, objects, shards, seal.WithCompression(seal.CompressionQuantized), seal.WithSegmentDir(dir))
		if err := built.Close(); err != nil {
			t.Fatal(err)
		}
		ix, err := seal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st := ix.Stats(); !st.Mapped || !st.Compressed {
			t.Fatalf("reopened index: mapped=%v compressed=%v, want both", st.Mapped, st.Compressed)
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
	oracle := newOracle(t, objects, model.SpaceJaccard, model.TextJaccard)

	// Selective: tight rects at a high spatial threshold, which most
	// partitions cannot reach. Broad: the shard suites' mixed workload.
	var selective []seal.Query
	for i := 0; i < 30; i++ {
		x, y := rng.Float64()*95, rng.Float64()*95
		selective = append(selective, seal.Query{
			Region: seal.Rect{MinX: x, MinY: y, MaxX: x + 3, MaxY: y + 3},
			Tokens: []string{"t1", "t2"}, TauR: 0.5, TauT: 0.1,
		})
	}
	for id := 0; id < 20; id += 2 { // rects that do have answers: an object's own region
		if o := objects[id]; len(o.Regions) == 0 {
			selective = append(selective, seal.Query{Region: o.Region, Tokens: o.Tokens, TauR: 0.4, TauT: 0.1})
		}
	}
	queries := append(append([]seal.Query(nil), selective...), shardQueries(16, rng)...)

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
					res, err := ix.Query(ctx, q.Request(), seal.CollectStats(), seal.CollectTrace())
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
					page, err := ix.Query(ctx, q.Request(), seal.Offset(1), seal.Limit(2), seal.StatsInto(&st))
					if err != nil {
						t.Fatal(err)
					}
					requireSameMatches(t, label+" page", page.Matches, want[min(1, len(want)):min(3, len(want))])
					checkAccounting(t, label+" page", &st, shards)

					// Stream: arrival order, compared as a set.
					var streamed []seal.Match
					for m, err := range ix.Stream(ctx, q.Request(), seal.StatsInto(&st)) {
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
					reqs[i] = q.Request()
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

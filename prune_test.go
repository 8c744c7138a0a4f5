package seal_test

// Shard pruning at the public API. Every index prunes, so the oracle here is
// a brute-force scan of the dataset — not a MethodScan index, which prunes
// with the same bound — and the suite crosses what pruning must never
// disturb: the four storage layouts, 1/4/6 shards, and every query shape.
// Answers are bit-identical to the scan; Stats account for every shard once
// (pruned or dispatched); a traced query names the bound behind each skip.

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/sealdb/seal"
	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/testutil"
)

// pruneOracle is the engine-free reference: the objects in a model.Dataset
// built exactly as seal.Build builds its own, scanned linearly.
type pruneOracle struct{ ds *model.Dataset }

func newPruneOracle(t testing.TB, objects []seal.Object) pruneOracle {
	t.Helper()
	rect := func(r seal.Rect) geo.Rect { return geo.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY} }
	var b model.Builder
	for i, o := range objects {
		var err error
		if len(o.Regions) > 0 {
			set := make(geo.RectSet, len(o.Regions))
			for j, r := range o.Regions {
				set[j] = rect(r)
			}
			_, err = b.AddMulti(set, o.Tokens)
		} else {
			_, err = b.Add(rect(o.Region), o.Tokens)
		}
		if err != nil {
			t.Fatalf("object %d: %v", i, err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return pruneOracle{ds}
}

// threshold returns the ID-ordered exact answer of a threshold request.
func (o pruneOracle) threshold(t testing.TB, q seal.Query) []seal.Match {
	t.Helper()
	mq, err := o.ds.NewQuery(geo.Rect{MinX: q.Region.MinX, MinY: q.Region.MinY, MaxX: q.Region.MaxX, MaxY: q.Region.MaxY}, q.Tokens, q.TauR, q.TauT)
	if err != nil {
		t.Fatal(err)
	}
	var out []seal.Match
	for _, id := range testutil.BruteForceAnswers(o.ds, mq) {
		out = append(out, seal.Match{ID: int(id), SimR: o.ds.SimR(mq, id), SimT: o.ds.SimT(mq, id)})
	}
	return out
}

// ranked returns the exact ranking of a ranked request: everything clearing
// the floors, by descending score, ties by ascending ID, cut at K.
func (o pruneOracle) ranked(t testing.TB, req seal.Request) []seal.Match {
	t.Helper()
	floorR, floorT := req.FloorR, req.FloorT
	if floorR == 0 {
		floorR = 0.05
	}
	if floorT == 0 {
		floorT = 0.05
	}
	out := o.threshold(t, seal.Query{Region: req.Region, Tokens: req.Tokens, TauR: floorR, TauT: floorT})
	for i := range out {
		out[i].Score = req.Alpha*out[i].SimR + (1-req.Alpha)*out[i].SimT
	}
	slices.SortFunc(out, func(a, b seal.Match) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.ID, b.ID))
	})
	if len(out) > req.K {
		out = out[:req.K]
	}
	return out
}

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
	oracle := newPruneOracle(t, objects)

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

package engine

import (
	"runtime"
	"testing"
	"time"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/gen"
	"github.com/sealdb/seal/internal/model"
)

// BenchmarkShardSearch is the shard rung of the in-process ladder: one
// shard's searcher answering the benchmark's three threshold shapes and its
// ranked one, with no HTTP, scheduling or merge around it. The corpus is
// gen.Twitter{N: 50000, Seed: 42} in 4 shards, and each shape is 400 queries
// (query seed 7) shaped as in TestGoldenWorkCounts: τ 0.4 on large regions
// (thin), τ 0.02 on small ones (scan), τ 0.005 on large regions widened to
// 1500 km² (fat), and thin's queries ranked with K 10 and Alpha 0.5 at the
// default floors (topk). The shapes at the top level run Seal at its
// defaults; token, grid1024 and hybrid1024 run the three threshold shapes
// under the keyed kinds — TokenFilter, GridFilter(1024) and
// HybridFilter(1024) — each engine built when its first shape runs. One op is
// one query on shard 0; filter-ns/op and verify-ns/op split it as SearchStats
// does, and the work counts per op show two trees compared did the same work.
//
//	GOMAXPROCS=1 go test -run '^$' -bench ShardSearch -count 10 ./internal/engine
func BenchmarkShardSearch(b *testing.B) {
	ds := rungCorpus(b)
	const n, seed = 400, 7
	wide := gen.LargeRegionConfig(n, seed)
	wide.MeanArea = 1500
	type shape struct {
		name string
		qs   []*model.Query
		topk bool
	}
	var shapes []shape
	for _, sh := range []struct {
		name string
		cfg  gen.QueryConfig
		tau  float64
		topk bool
	}{
		{"thin", gen.LargeRegionConfig(n, seed), 0.4, false},
		{"scan", gen.SmallRegionConfig(n, seed), 0.02, false},
		{"fat", wide, 0.005, false},
		{"topk", gen.LargeRegionConfig(n, seed), 0.4, true},
	} {
		specs, err := gen.Queries(ds, sh.cfg)
		if err != nil {
			b.Fatal(err)
		}
		qs := make([]*model.Query, len(specs))
		for i, s := range specs {
			if qs[i], err = ds.NewQuery(s.Region, s.Terms, sh.tau, sh.tau); err != nil {
				b.Fatal(err)
			}
		}
		shapes = append(shapes, shape{sh.name, qs, sh.topk})
	}
	run := func(b *testing.B, e *Engine, sh shape) {
		shard := e.shards[0]
		sr := shard.pool.Get()
		defer shard.pool.Put(sr)
		var filter, verify time.Duration
		var postings, candidates, matches int
		var err error
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var st core.SearchStats
			if sh.topk {
				if _, st, err = sr.TopK(sh.qs[i%len(sh.qs)], core.TopKOptions{K: 10, Alpha: 0.5}, nil); err != nil {
					b.Fatal(err)
				}
			} else {
				_, st = sr.Search(sh.qs[i%len(sh.qs)], nil, 0)
			}
			filter += st.FilterTime
			verify += st.VerifyTime
			postings += st.PostingsScanned
			candidates += st.Candidates
			matches += st.Results
		}
		per := func(v int64) float64 { return float64(v) / float64(b.N) }
		b.ReportMetric(per(filter.Nanoseconds()), "filter-ns/op")
		b.ReportMetric(per(verify.Nanoseconds()), "verify-ns/op")
		b.ReportMetric(per(int64(postings)), "postings/op")
		b.ReportMetric(per(int64(candidates)), "candidates/op")
		b.ReportMetric(per(int64(matches)), "matches/op")
	}
	var sealEngine *Engine
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			if sealEngine == nil {
				sealEngine = rungEngine(b, ds, sealRung)
			}
			run(b, sealEngine, sh)
		})
	}
	for _, kind := range []struct {
		name string
		spec core.FilterSpec
	}{
		{"token", core.FilterSpec{Kind: "token"}},
		{"grid1024", core.FilterSpec{Kind: "grid", P: 1024}},
		{"hybrid1024", core.FilterSpec{Kind: "hybrid", P: 1024}},
	} {
		b.Run(kind.name, func(b *testing.B) {
			var e *Engine
			for _, sh := range shapes[:3] {
				b.Run(sh.name, func(b *testing.B) {
					if e == nil {
						e = rungEngine(b, ds, kind.spec)
					}
					run(b, e, sh)
				})
			}
		})
	}
}

// rungShard0 is shard 0 of the rung's corpus, cut as Build cuts it.
func rungShard0(tb testing.TB) *model.Dataset {
	tb.Helper()
	ds := rungCorpus(tb)
	rows, bounds := partition(ds, ShardCount(4, ds.Len()))
	ordered, err := ds.Permute(rows)
	if err != nil {
		tb.Fatal(err)
	}
	shard0, err := ordered.Subset(int(bounds[0]), int(bounds[1]))
	if err != nil {
		tb.Fatal(err)
	}
	return shard0
}

// BenchmarkShardBuild is the build rung beside the search one: one op builds
// the filter of shard 0 of the rung's corpus (gen.Twitter{N: 50000, Seed:
// 42} cut in 4 shards as Build cuts it), with no save and no other shard.
// seal runs HSS-Greedy and the hybrid posting generation for every token;
// token, grid1024 and hybrid1024 run neither, so they are the control of a
// change to those two steps.
//
//	GOMAXPROCS=1 go test -run '^$' -bench ShardBuild -count 10 ./internal/engine
func BenchmarkShardBuild(b *testing.B) {
	shard0 := rungShard0(b)
	for _, kind := range []struct {
		name string
		spec core.FilterSpec
	}{
		{"seal", sealRung},
		{"token", core.FilterSpec{Kind: "token"}},
		{"grid1024", core.FilterSpec{Kind: "grid", P: 1024}},
		{"hybrid1024", core.FilterSpec{Kind: "hybrid", P: 1024}},
	} {
		b.Run(kind.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := core.BuildFilter(shard0, kind.spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestShardBuildAllocBytes bounds the bytes one Seal build of the rung's
// shard 0 allocates, at one worker (GOMAXPROCS 1, restored afterwards): the
// 50,511,782 B measured on linux/amd64 once the workers coded their runs and
// the served index was assembled from them (91,722,294 B when the workers
// kept float64 bounds, froze a flat index and compressed it), plus 10 %.
func TestShardBuildAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const bound = 50_511_782 * 110 / 100
	shard0 := rungShard0(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := core.BuildFilter(shard0, sealRung); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if got > bound {
		t.Fatalf("a Seal build of shard 0 allocated %d B, want <= %d", got, bound)
	}
	t.Logf("allocated %d B (bound %d)", got, bound)
}

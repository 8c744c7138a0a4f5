package engine

import (
	"testing"
	"time"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/gen"
	"github.com/sealdb/seal/internal/model"
)

// BenchmarkShardSearch is the shard rung of the in-process ladder: one
// shard's searcher answering the benchmark's three threshold shapes and its
// ranked one, with no HTTP, scheduling or merge around it. The corpus is
// gen.Twitter{N: 50000, Seed: 42} in 4 shards under Seal at its defaults, and
// each shape is 400 queries (query seed 7) shaped as in TestGoldenWorkCounts:
// τ 0.4 on large regions (thin), τ 0.02 on small ones (scan), τ 0.005 on
// large regions widened to 1500 km² (fat), and thin's queries ranked with
// K 10 and Alpha 0.5 at the default floors (topk). One op is one query on
// shard 0; filter-ns/op and verify-ns/op split it as SearchStats does, and
// the work counts per op show two trees compared did the same work.
//
//	GOMAXPROCS=1 go test -run '^$' -bench ShardSearch -count 10 ./internal/engine
func BenchmarkShardSearch(b *testing.B) {
	ds, e := shardRung(b)
	const n, seed = 400, 7
	wide := gen.LargeRegionConfig(n, seed)
	wide.MeanArea = 1500
	shapes := []struct {
		name string
		cfg  gen.QueryConfig
		tau  float64
		topk bool
	}{
		{"thin", gen.LargeRegionConfig(n, seed), 0.4, false},
		{"scan", gen.SmallRegionConfig(n, seed), 0.02, false},
		{"fat", wide, 0.005, false},
		{"topk", gen.LargeRegionConfig(n, seed), 0.4, true},
	}
	shard := e.shards[0]
	for _, sh := range shapes {
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
		b.Run(sh.name, func(b *testing.B) {
			sr := shard.pool.Get()
			defer shard.pool.Put(sr)
			var filter, verify time.Duration
			var postings, candidates, matches int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var st core.SearchStats
				if sh.topk {
					if _, st, err = sr.TopK(qs[i%len(qs)], core.TopKOptions{K: 10, Alpha: 0.5}, nil); err != nil {
						b.Fatal(err)
					}
				} else {
					_, st = sr.Search(qs[i%len(qs)], nil, 0)
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
		})
	}
}

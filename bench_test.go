// Benchmarks regenerating each table/figure of the paper at reduced scale.
// One benchmark per experiment exercises its representative configuration;
// the full parameter sweeps (all thresholds, all granularities) are produced
// by cmd/sealbench. Shared datasets and indexes build once per process.
package seal_test

import (
	"sync"
	"testing"

	"github.com/sealdb/seal/internal/bench"
	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/gen"
	"github.com/sealdb/seal/internal/model"
)

var (
	benchOnce sync.Once
	benchEnv  *bench.Env
)

// benchConfig keeps `go test -bench=.` under a few minutes while preserving
// every comparative shape.
var benchConfig = bench.Config{
	TwitterN:     15000,
	USAN:         15000,
	Queries:      30,
	Seed:         42,
	HierBudget:   8,
	HierMaxLevel: 11,
	RTreeFanout:  32,
}

func env(b *testing.B) *bench.Env {
	b.Helper()
	benchOnce.Do(func() { benchEnv = bench.NewEnv(benchConfig) })
	return benchEnv
}

// runWorkload executes the workload once per b.N iteration and reports
// per-query metrics.
func runWorkload(b *testing.B, ds *model.Dataset, f core.Filter, specs []gen.QuerySpec, tauR, tauT float64) {
	b.Helper()
	queries := make([]*model.Query, len(specs))
	for i, s := range specs {
		q, err := s.Compile(ds, tauR, tauT)
		if err != nil {
			b.Fatal(err)
		}
		queries[i] = q
	}
	searcher := core.NewSearcher(ds, f)
	var candidates, results int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			_, st := searcher.Search(q)
			candidates += st.Candidates
			results += st.Results
		}
	}
	b.StopTimer()
	perQuery := float64(b.N * len(queries))
	b.ReportMetric(float64(b.Elapsed().Microseconds())/perQuery, "µs/query")
	b.ReportMetric(float64(candidates)/perQuery, "cand/query")
	b.ReportMetric(float64(results)/perQuery, "res/query")
}

func workload(b *testing.B, dsName, kind string) (*model.Dataset, []gen.QuerySpec) {
	b.Helper()
	e := env(b)
	ds, err := e.Dataset(dsName)
	if err != nil {
		b.Fatal(err)
	}
	specs, err := e.Workload(dsName, kind)
	if err != nil {
		b.Fatal(err)
	}
	return ds, specs
}

func filter(b *testing.B, dsName string, spec bench.FilterSpec) core.Filter {
	b.Helper()
	f, err := env(b).Filter(dsName, spec)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkTable1IndexBuild measures building the full SEAL index (the
// HierarchicalInv row of Table 1).
func BenchmarkTable1IndexBuild(b *testing.B) {
	ds, _ := workload(b, "twitter", "large")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := core.NewHierarchicalFilter(ds, core.HierarchicalConfig{
			MaxLevel:   benchConfig.HierMaxLevel,
			GridBudget: benchConfig.HierBudget,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(f.SizeBytes())/(1<<20), "MB")
	}
}

// Figure 12: TokenFilter vs GridFilter at the default thresholds.
func BenchmarkFig12TokenFilterLarge(b *testing.B) {
	ds, specs := workload(b, "twitter", "large")
	runWorkload(b, ds, filter(b, "twitter", bench.FilterSpec{Kind: "token"}), specs, 0.4, 0.4)
}

func BenchmarkFig12GridFilter1024Large(b *testing.B) {
	ds, specs := workload(b, "twitter", "large")
	runWorkload(b, ds, filter(b, "twitter", bench.FilterSpec{Kind: "grid", P: 1024}), specs, 0.4, 0.4)
}

func BenchmarkFig12TokenFilterSmall(b *testing.B) {
	ds, specs := workload(b, "twitter", "small")
	runWorkload(b, ds, filter(b, "twitter", bench.FilterSpec{Kind: "token"}), specs, 0.4, 0.4)
}

func BenchmarkFig12GridFilter1024Small(b *testing.B) {
	ds, specs := workload(b, "twitter", "small")
	runWorkload(b, ds, filter(b, "twitter", bench.FilterSpec{Kind: "grid", P: 1024}), specs, 0.4, 0.4)
}

// Figure 13: the granularity sweep's endpoints and middle.
func BenchmarkFig13Granularity64(b *testing.B) {
	ds, specs := workload(b, "twitter", "small")
	runWorkload(b, ds, filter(b, "twitter", bench.FilterSpec{Kind: "grid", P: 64}), specs, 0.4, 0.4)
}

func BenchmarkFig13Granularity1024(b *testing.B) {
	ds, specs := workload(b, "twitter", "small")
	runWorkload(b, ds, filter(b, "twitter", bench.FilterSpec{Kind: "grid", P: 1024}), specs, 0.4, 0.4)
}

func BenchmarkFig13Granularity4096(b *testing.B) {
	ds, specs := workload(b, "twitter", "small")
	runWorkload(b, ds, filter(b, "twitter", bench.FilterSpec{Kind: "grid", P: 4096}), specs, 0.4, 0.4)
}

// Figure 14: hash-based hybrid vs grid-only at 1024.
func BenchmarkFig14Hybrid1024Large(b *testing.B) {
	ds, specs := workload(b, "twitter", "large")
	runWorkload(b, ds, filter(b, "twitter", bench.FilterSpec{Kind: "hybrid", P: 1024}), specs, 0.4, 0.4)
}

func BenchmarkFig14Hybrid1024Small(b *testing.B) {
	ds, specs := workload(b, "twitter", "small")
	runWorkload(b, ds, filter(b, "twitter", bench.FilterSpec{Kind: "hybrid", P: 1024}), specs, 0.4, 0.4)
}

// Figure 15: hash vs hierarchical hybrid signatures at the paper's
// thresholds (tau_R=0.4, tau_T=0.1).
func BenchmarkFig15HashBucketed(b *testing.B) {
	ds, specs := workload(b, "twitter", "small")
	runWorkload(b, ds, filter(b, "twitter", bench.FilterSpec{Kind: "hybrid", P: 1024, Buckets: 1 << 16}), specs, 0.4, 0.1)
}

func BenchmarkFig15Hierarchical(b *testing.B) {
	ds, specs := workload(b, "twitter", "small")
	runWorkload(b, ds, filter(b, "twitter", bench.FilterSpec{Kind: "seal"}), specs, 0.4, 0.1)
}

// Figures 16: the four methods on Twitter at default thresholds
// (small-region queries, the harder workload).
func BenchmarkFig16IRTree(b *testing.B) {
	ds, specs := workload(b, "twitter", "small")
	runWorkload(b, ds, filter(b, "twitter", bench.FilterSpec{Kind: "irtree"}), specs, 0.4, 0.4)
}

func BenchmarkFig16Keyword(b *testing.B) {
	ds, specs := workload(b, "twitter", "small")
	runWorkload(b, ds, filter(b, "twitter", bench.FilterSpec{Kind: "keyword"}), specs, 0.4, 0.4)
}

func BenchmarkFig16Spatial(b *testing.B) {
	ds, specs := workload(b, "twitter", "small")
	runWorkload(b, ds, filter(b, "twitter", bench.FilterSpec{Kind: "spatial"}), specs, 0.4, 0.4)
}

func BenchmarkFig16Seal(b *testing.B) {
	ds, specs := workload(b, "twitter", "small")
	runWorkload(b, ds, filter(b, "twitter", bench.FilterSpec{Kind: "seal"}), specs, 0.4, 0.4)
}

// Figure 17: the same comparison's endpoints on the USA dataset.
func BenchmarkFig17IRTreeUSA(b *testing.B) {
	ds, specs := workload(b, "usa", "small")
	runWorkload(b, ds, filter(b, "usa", bench.FilterSpec{Kind: "irtree"}), specs, 0.4, 0.4)
}

func BenchmarkFig17SealUSA(b *testing.B) {
	ds, specs := workload(b, "usa", "small")
	runWorkload(b, ds, filter(b, "usa", bench.FilterSpec{Kind: "seal"}), specs, 0.4, 0.4)
}

// Figure 18: scalability — Seal at half and full dataset size.
func BenchmarkFig18SealHalfScale(b *testing.B) {
	benchScaled(b, benchConfig.TwitterN/2)
}

func BenchmarkFig18SealFullScale(b *testing.B) {
	benchScaled(b, benchConfig.TwitterN)
}

func benchScaled(b *testing.B, n int) {
	b.Helper()
	e := env(b)
	ds, err := e.ScaledTwitter(n)
	if err != nil {
		b.Fatal(err)
	}
	f, err := e.FilterFor(ds, bench.FilterSpec{Kind: "seal"})
	if err != nil {
		b.Fatal(err)
	}
	specs, err := gen.Queries(ds, gen.LargeRegionConfig(benchConfig.Queries, benchConfig.Seed+300))
	if err != nil {
		b.Fatal(err)
	}
	runWorkload(b, ds, f, specs, 0.3, 0.4)
}

// Ablation: threshold-aware pruning off (plain Sig-Filter) vs on.
func BenchmarkAblationPlainTokenFilter(b *testing.B) {
	ds, specs := workload(b, "twitter", "small")
	runWorkload(b, ds, filter(b, "twitter", bench.FilterSpec{Kind: "plaintoken"}), specs, 0.4, 0.4)
}

func BenchmarkAblationPrefixTokenFilter(b *testing.B) {
	ds, specs := workload(b, "twitter", "small")
	runWorkload(b, ds, filter(b, "twitter", bench.FilterSpec{Kind: "token"}), specs, 0.4, 0.4)
}

// Extension: top-k via threshold descent over the Seal filter vs a scan.
func BenchmarkTopKSeal(b *testing.B) {
	benchTopK(b, bench.FilterSpec{Kind: "seal"})
}

func BenchmarkTopKScan(b *testing.B) {
	benchTopK(b, bench.FilterSpec{Kind: "scan"})
}

func benchTopK(b *testing.B, spec bench.FilterSpec) {
	b.Helper()
	ds, specs := workload(b, "twitter", "small")
	f := filter(b, "twitter", spec)
	searcher := core.NewSearcher(ds, f)
	opts := core.TopKOptions{K: 10, Alpha: 0.5, FloorR: 0.01, FloorT: 0.01}
	var results int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			q, err := ds.NewQuery(s.Region, s.Terms, opts.FloorR, opts.FloorT)
			if err != nil {
				b.Fatal(err)
			}
			found, err := searcher.TopK(q, opts)
			if err != nil {
				b.Fatal(err)
			}
			results += len(found)
		}
	}
	b.StopTimer()
	perQuery := float64(b.N * len(specs))
	b.ReportMetric(float64(b.Elapsed().Microseconds())/perQuery, "µs/query")
	b.ReportMetric(float64(results)/perQuery, "res/query")
}

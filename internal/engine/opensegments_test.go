package engine

import (
	"runtime"
	"testing"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/gen"
	"github.com/sealdb/seal/internal/model"
)

// shardRung builds the in-process ladder's shard-rung engine:
// gen.Twitter{N: 50000, Seed: 42} in 4 shards under Seal at its defaults.
func shardRung(b *testing.B) (*model.Dataset, *Engine) {
	b.Helper()
	ds, err := gen.Twitter(gen.TwitterConfig{N: 50000, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	spec := core.FilterSpec{
		Kind:       "seal",
		MaxLevel:   core.DefaultHierarchicalConfig.MaxLevel,
		GridBudget: core.DefaultHierarchicalConfig.GridBudget,
	}
	e, err := Build(ds, Config{Shards: 4, NewFilter: func(sds *model.Dataset) (core.Filter, error) {
		return core.BuildFilter(sds, spec)
	}})
	if err != nil {
		b.Fatal(err)
	}
	return ds, e
}

// BenchmarkOpenSegments is a boot of the shard rung's corpus off its segment
// directory, saved once: one op maps the directory with OpenSegmentsWith(dir,
// false) and closes it. Beside ns/op and allocs/op it reports retained-B/op,
// the heap still live after the open once a GC has run — what a booted
// daemon holds for the index beyond the mapped pages.
//
//	GOMAXPROCS=1 go test -run '^$' -bench OpenSegments -count 10 ./internal/engine
func BenchmarkOpenSegments(b *testing.B) {
	dir := b.TempDir()
	save := func() error { _, e := shardRung(b); return e.SaveSegments(dir) } // the built engine is garbage after
	if err := save(); err != nil {
		b.Fatal(err)
	}
	var ms runtime.MemStats
	heap := func() int64 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	var retained int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := heap()
		b.StartTimer()
		e, err := OpenSegmentsWith(dir, false)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		retained += heap() - before
		if err := e.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(retained)/float64(b.N), "retained-B/op")
}

package engine

import (
	"runtime"
	"testing"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/gen"
	"github.com/sealdb/seal/internal/model"
)

// rungCorpus is the in-process ladder's corpus: gen.Twitter{N: 50000, Seed:
// 42}.
func rungCorpus(tb testing.TB) *model.Dataset {
	tb.Helper()
	ds, err := gen.Twitter(gen.TwitterConfig{N: 50000, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

// sealRung is Seal at its defaults, the rung's production filter.
var sealRung = core.FilterSpec{
	Kind:       "seal",
	MaxLevel:   core.DefaultHierarchicalConfig.MaxLevel,
	GridBudget: core.DefaultHierarchicalConfig.GridBudget,
}

// rungEngine builds the shard rung's engine over ds: 4 shards under spec.
func rungEngine(tb testing.TB, ds *model.Dataset, spec core.FilterSpec) *Engine {
	tb.Helper()
	e, err := Build(ds, Config{Shards: 4, NewFilter: func(sds *model.Dataset) (core.Filter, error) {
		return core.BuildFilter(sds, spec)
	}})
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// saveRung saves the shard rung's Seal engine as a segment directory and
// returns it; the built engine is garbage afterwards.
func saveRung(tb testing.TB) string {
	tb.Helper()
	dir := tb.TempDir()
	if err := rungEngine(tb, rungCorpus(tb), sealRung).SaveSegments(dir); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// liveHeap returns the heap in use once a GC has run.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestOpenSegmentsRetainedHeap bounds the heap a boot of the shard rung's
// segment directory keeps live: what OpenSegmentsWith derives beyond the
// mapped pages. The bound is the 882,472 B measured on linux/amd64, plus
// 15 %.
func TestOpenSegmentsRetainedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const bound = 882_472 * 115 / 100
	dir := saveRung(t)
	before := liveHeap()
	e, err := OpenSegmentsWith(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	retained := liveHeap() - before
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if retained > bound {
		t.Fatalf("opening the rung's segments keeps %d B on the heap, want <= %d", retained, bound)
	}
	t.Logf("retained %d B (bound %d)", retained, bound)
}

// BenchmarkOpenSegments is a boot of the shard rung's corpus off its segment
// directory, saved once: one op maps the directory with OpenSegmentsWith(dir,
// false) and closes it. Beside ns/op and allocs/op it reports retained-B/op,
// the heap still live after the open once a GC has run — what a booted
// daemon holds for the index beyond the mapped pages.
//
//	GOMAXPROCS=1 go test -run '^$' -bench OpenSegments -count 10 ./internal/engine
func BenchmarkOpenSegments(b *testing.B) {
	dir := saveRung(b)
	var retained int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := liveHeap()
		b.StartTimer()
		e, err := OpenSegmentsWith(dir, false)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		retained += liveHeap() - before
		if err := e.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(retained)/float64(b.N), "retained-B/op")
}

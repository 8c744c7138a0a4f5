package seal_test

// Shard-equivalence property tests: a sharded index must return exactly the
// answers of the monolithic index — same IDs, same similarities, same top-k
// order — for every method, because shard datasets verify bit-identically
// and the engine's merges preserve the monolithic orderings; the monolithic
// answers themselves are held to the brute-force oracle. Plus context
// cancellation tests and the multi-shard speedup benchmarks.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/sealdb/seal"
	"github.com/sealdb/seal/internal/model"
)

// randomObjects draws n spatio-textual objects in a 100×100 space with a
// small vocabulary (so textual overlaps are common) and a sprinkling of
// multi-region objects.
func shardObjects(n int, rng *rand.Rand) []seal.Object {
	objs := make([]seal.Object, n)
	for i := range objs {
		tokens := make([]string, 1+rng.Intn(5))
		for j := range tokens {
			tokens[j] = fmt.Sprintf("t%d", rng.Intn(30))
		}
		if rng.Intn(10) == 0 {
			regions := make([]seal.Rect, 2+rng.Intn(2))
			for j := range regions {
				regions[j] = shardRect(rng, 6)
			}
			objs[i] = seal.Object{Regions: regions, Tokens: tokens}
			continue
		}
		objs[i] = seal.Object{Region: shardRect(rng, 12), Tokens: tokens}
	}
	return objs
}

func shardRect(rng *rand.Rand, maxSide float64) seal.Rect {
	x := rng.Float64() * 100
	y := rng.Float64() * 100
	w := 0.5 + rng.Float64()*maxSide
	h := 0.5 + rng.Float64()*maxSide
	return seal.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
}

func shardQueries(n int, rng *rand.Rand) []seal.Request {
	qs := make([]seal.Request, n)
	for i := range qs {
		tokens := make([]string, 1+rng.Intn(4))
		for j := range tokens {
			tokens[j] = fmt.Sprintf("t%d", rng.Intn(32)) // occasionally unknown
		}
		qs[i] = seal.Request{
			Region: shardRect(rng, 25),
			Tokens: tokens,
			TauR:   0.02 + rng.Float64()*0.4,
			TauT:   0.02 + rng.Float64()*0.4,
		}
	}
	return qs
}

func TestShardEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	objects := shardObjects(300, rng)
	queries := shardQueries(40, rng)

	methods := []struct {
		name string
		opts []seal.Option
	}{
		{"seal", []seal.Option{seal.WithMethod(seal.MethodSeal), seal.WithMaxLevel(8)}},
		{"grid", []seal.Option{seal.WithMethod(seal.MethodGridFilter), seal.WithGranularity(64)}},
		{"token", []seal.Option{seal.WithMethod(seal.MethodTokenFilter)}},
	}
	oracle := newOracle(t, objects, model.SpaceJaccard, model.TextJaccard)
	for _, method := range methods {
		t.Run(method.name, func(t *testing.T) {
			base, err := seal.Build(objects, method.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if base.Stats().Shards != 1 {
				t.Fatalf("default shard count = %d, want 1", base.Stats().Shards)
			}
			for qi, q := range queries {
				want, err := answer(base, q)
				if err != nil {
					t.Fatal(err)
				}
				requireSameMatches(t, fmt.Sprintf("1 shard query %d", qi), want, oracle.threshold(t, q))
			}
			for _, k := range []int{1, 2, 3, 8} {
				sharded, err := seal.Build(objects, append(append([]seal.Option(nil), method.opts...), seal.WithShards(k))...)
				if err != nil {
					t.Fatalf("shards=%d: %v", k, err)
				}
				if got := sharded.Stats().Shards; got != k {
					t.Fatalf("Stats().Shards = %d, want %d", got, k)
				}
				for qi, q := range queries {
					want, err := answer(base, q)
					if err != nil {
						t.Fatal(err)
					}
					got, err := answer(sharded, q)
					if err != nil {
						t.Fatalf("shards=%d query %d: %v", k, qi, err)
					}
					if len(got) != len(want) {
						t.Fatalf("shards=%d query %d: %d matches, want %d", k, qi, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("shards=%d query %d match %d: %+v, want %+v", k, qi, i, got[i], want[i])
						}
					}
				}
				for qi, q := range queries {
					tq := seal.Request{Region: q.Region, Tokens: q.Tokens, K: 1 + qi%7, Alpha: 0.5, FloorR: 0.01, FloorT: 0.01}
					want, err := answer(base, tq)
					if err != nil {
						t.Fatal(err)
					}
					got, err := answer(sharded, tq)
					if err != nil {
						t.Fatalf("shards=%d topk %d: %v", k, qi, err)
					}
					if len(got) != len(want) {
						t.Fatalf("shards=%d topk %d: %d results, want %d", k, qi, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("shards=%d topk %d rank %d: %+v, want %+v", k, qi, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestShardEquivalenceDegenerate: every object shares one center, so the
// Morton order cannot split space and the shards are ranges of one run of
// equal codes, ordered by ID.
func TestShardEquivalenceDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	objects := make([]seal.Object, 64)
	for i := range objects {
		objects[i] = seal.Object{
			Region: seal.Rect{MinX: 10, MinY: 10, MaxX: 20, MaxY: 20},
			Tokens: []string{fmt.Sprintf("t%d", i%9), "shared"},
		}
	}
	base, err := seal.Build(objects, seal.WithMethod(seal.MethodGridFilter), seal.WithGranularity(32))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := seal.Build(objects, seal.WithMethod(seal.MethodGridFilter), seal.WithGranularity(32), seal.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range shardQueries(20, rng) {
		want, err := answer(base, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := answer(sharded, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d matches, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("match %d: %+v, want %+v", i, got[i], want[i])
			}
		}
	}
}

func TestSearchContextCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ix, err := seal.Build(shardObjects(200, rng), seal.WithMethod(seal.MethodTokenFilter), seal.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := seal.Request{Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 50, MaxY: 50}, Tokens: []string{"t1"}, TauR: 0.1, TauT: 0.1}

	start := time.Now()
	if _, err := ix.Query(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("threshold Query error = %v, want context.Canceled", err)
	}
	if _, err := ix.Query(ctx, seal.Request{Region: q.Region, Tokens: q.Tokens, K: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ranked Query error = %v, want context.Canceled", err)
	}
	for _, br := range ix.QueryBatch(ctx, shardQueries(50, rng)) {
		if !errors.Is(br.Err, context.Canceled) {
			t.Fatalf("QueryBatch error = %v, want context.Canceled", br.Err)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("canceled searches took %v, want a prompt return", elapsed)
	}
}

// TestSearchTopKHugeK: an oversized K legitimately means "return every
// eligible object"; the sharded merge must bound its allocations by what
// exists, not by the ask.
func TestSearchTopKHugeK(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	objects := shardObjects(150, rng)
	tq := seal.Request{
		Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
		Tokens: []string{"t1", "t2"},
		K:      math.MaxInt,
		Alpha:  0.5,
		FloorR: 0.001,
		FloorT: 0.001,
	}
	want := newOracle(t, objects, model.SpaceJaccard, model.TextJaccard).ranked(t, tq)
	for _, shards := range []int{1, 4} {
		ix, err := seal.Build(objects, seal.WithMethod(seal.MethodTokenFilter), seal.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		got, err := answer(ix, tq)
		if err != nil {
			t.Fatal(err)
		}
		requireSameMatches(t, fmt.Sprintf("%d shards", shards), got, want)
	}
}

// TestSearchContextDeadlineSingleShard exercises mid-flight cancellation on
// the default 1-shard index: an already-expired deadline must surface even
// though the single-shard fast path has no scatter to interrupt.
func TestSearchContextDeadlineSingleShard(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	objects := shardObjects(500, rng)
	ix, err := seal.Build(objects, seal.WithMethod(seal.MethodTokenFilter))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	q := seal.Request{Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 90, MaxY: 90}, Tokens: []string{"t1"}, TauR: 0.01, TauT: 0.01}
	if _, err := ix.Query(ctx, q); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", err)
	}
	// A cancellable-but-live context must still answer normally.
	live, liveCancel := context.WithCancel(context.Background())
	defer liveCancel()
	res, err := ix.Query(live, q)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMatches(t, "live-context search", res.Matches, newOracle(t, objects, model.SpaceJaccard, model.TextJaccard).threshold(t, q))
}

func benchIndex(b *testing.B, shards int) (*seal.Index, []seal.Request) {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	objects := shardObjects(20000, rng)
	queries := shardQueries(64, rng)
	ix, err := seal.Build(objects, seal.WithMethod(seal.MethodSeal), seal.WithShards(shards))
	if err != nil {
		b.Fatal(err)
	}
	return ix, queries
}

// benchShardCounts sweeps 1 (the monolithic baseline) against growing shard
// counts; on an N-core machine the counts up to N show the build and
// scatter-gather speedups, and counts beyond GOMAXPROCS expose the
// coordination overhead floor.
func benchShardCounts() []int {
	counts := []int{1}
	for n := 2; n <= 8 || n <= runtime.GOMAXPROCS(0); n *= 2 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkShardedBuild measures parallel shard construction against the
// monolithic build.
func BenchmarkShardedBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	objects := shardObjects(20000, rng)
	for _, shards := range benchShardCounts() {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := seal.Build(objects, seal.WithMethod(seal.MethodSeal), seal.WithShards(shards)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedQuery measures latency-bound querying (one query in flight
// at a time): multi-shard indexes answer each query by concurrent
// scatter-gather, the monolithic index serially.
func BenchmarkShardedQuery(b *testing.B) {
	for _, shards := range benchShardCounts() {
		ix, reqs := benchIndex(b, shards)
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, req := range reqs {
					if _, err := ix.Query(context.Background(), req); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(reqs)), "µs/query")
		})
	}
}

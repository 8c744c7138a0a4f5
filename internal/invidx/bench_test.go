package invidx

import (
	"math/rand"
	"testing"
)

// benchList is a served list of n single-bound postings, read in place.
func benchList(n int) List {
	rng := rand.New(rand.NewSource(1))
	var b Builder
	for i := 0; i < n; i++ {
		b.Add(1, uint32(i), rng.Float64()*1000)
	}
	return Compress(b.Build()).At(0)
}

func BenchmarkCutoff(b *testing.B) {
	l := benchList(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Cutoff(Code(float64(i % 1000)))
	}
}

func BenchmarkPrefixLen(b *testing.B) {
	weights := make([]float64, 64)
	rng := rand.New(rand.NewSource(2))
	for i := range weights {
		weights[i] = rng.Float64() * 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PrefixLen(weights, float64(i%300))
	}
}

// BenchmarkDualScan times the query path's dual-bound head scan: the cutoff
// at a spatial code, then a textual-code test and an object read a head row.
func BenchmarkDualScan(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	db := Builder{Dual: true}
	for i := 0; i < 10000; i++ {
		db.AddDual(1, uint32(i), rng.Float64()*1000, rng.Float64())
	}
	l := Compress(db.Build()).At(0)
	cR, cT := Code(500), Code(0.5)
	var sink uint32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, n := 0, l.Cutoff(cR); j < n; j++ {
			if l.TCode(j) >= cT {
				sink += l.Obj(j)
			}
		}
	}
	_ = sink
}

// layoutBuilder fills a builder with a realistic shape: many short lists
// (Zipf-ish key skew), the regime where per-list overhead dominates.
func layoutBuilder(nKeys, nPostings int) (b Builder) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < nPostings; i++ {
		u := rng.Float64()
		key := uint64(u * u * float64(nKeys))
		b.Add(key, uint32(rng.Intn(1<<20)), rng.Float64()*100)
	}
	return b
}

// BenchmarkLayoutProbe times a probe, once for each way a list is reached: on
// the flat build layout, which the paper's baselines read whole (lookup and
// every object), hash is a Builder's index and its directory, search the same
// lists under a run-grouped key column (run lookup, then a binary search of
// the run's uint32 nodes); then quantized is positional At on that index
// compressed and the query path's read of the view in place (an extent-table
// select, a cutoff over the stored codes, and the head's objects: the Seal
// filter's path, in memory or mapped), and quantized-search its Probe. The
// map-of-pointers layout the flat one replaced last measured 88.9 ns against
// 47.0 ns for hash on this shape (README, Performance).
func BenchmarkLayoutProbe(b *testing.B) {
	const nKeys, nPostings = 1 << 14, 1 << 18
	fb := layoutBuilder(nKeys, nPostings)
	keyed := fb.Build()
	bare := runGrouped(keyed, 1) // every key is below 2^32: one run
	quant := Compress(bare)
	lists := keyed.Lists() // all but a handful of the nKeys keys drew a posting
	c := Code(50)

	flat := func(ix *Index) func(b *testing.B) {
		return func(b *testing.B) {
			var sink uint32
			for i := 0; i < b.N; i++ {
				objs, _, _ := ix.List(uint64(i % nKeys))
				for _, o := range objs {
					sink += o
				}
			}
			_ = sink
		}
	}
	served := func(probe func(i int) List) func(b *testing.B) {
		return func(b *testing.B) {
			var sink uint32
			for i := 0; i < b.N; i++ {
				l := probe(i)
				for j, n := 0, l.Cutoff(c); j < n; j++ {
					sink += l.Obj(j)
				}
			}
			_ = sink
		}
	}
	b.Run("hash", flat(keyed))
	b.Run("search", flat(bare))
	b.Run("quantized", served(func(i int) List { return quant.At(i % lists) }))
	b.Run("quantized-search", served(func(i int) List { return quant.Probe(uint64(i % nKeys)) }))
}

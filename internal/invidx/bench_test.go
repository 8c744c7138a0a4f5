package invidx

import (
	"math/rand"
	"testing"
)

func benchList(n int) List {
	rng := rand.New(rand.NewSource(1))
	var b Builder
	for i := 0; i < n; i++ {
		b.Add(1, uint32(i), rng.Float64()*1000)
	}
	return b.Build().List(1)
}

func BenchmarkCutoff(b *testing.B) {
	l := benchList(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Cutoff(float64(i % 1000))
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

func BenchmarkDualScan(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	db := Builder{Dual: true}
	for i := 0; i < 10000; i++ {
		db.AddDual(1, uint32(i), rng.Float64()*1000, rng.Float64())
	}
	l := db.Build().List(1)
	sink := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Scan(500, 0.5, func(obj uint32) { sink++ })
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

// BenchmarkLayoutProbe times a probe (lookup + cutoff + head scan), once for
// each way a list is reached: on the flat build layout, which the paper's
// baselines read, hash is a Builder's index and its directory, search the
// same lists under a run-grouped key column (run lookup, then a binary search
// of the run's uint32 nodes); then quantized is positional At on that index
// compressed (an extent-table select and a decode into a reused scratch: the
// Seal filter's path, in memory or mapped), and quantized-search its Probe.
// The map-of-pointers layout the flat one replaced last measured 88.9 ns
// against 47.0 ns for hash on this shape (README, Performance).
func BenchmarkLayoutProbe(b *testing.B) {
	const nKeys, nPostings = 1 << 14, 1 << 18
	fb := layoutBuilder(nKeys, nPostings)
	keyed := fb.Build()
	bare := runGrouped(keyed, 1) // every key is below 2^32: one run
	quant := Compress(bare)
	lists := keyed.Lists() // all but a handful of the nKeys keys drew a posting

	b.Run("hash", func(b *testing.B) {
		var sink uint32
		for i := 0; i < b.N; i++ {
			l := keyed.List(uint64(i % nKeys))
			n := l.Cutoff(50)
			for _, o := range l.Objs(n) {
				sink += o
			}
		}
		_ = sink
	})
	b.Run("search", func(b *testing.B) {
		var sink uint32
		for i := 0; i < b.N; i++ {
			l := bare.List(uint64(i % nKeys))
			n := l.Cutoff(50)
			for _, o := range l.Objs(n) {
				sink += o
			}
		}
		_ = sink
	})
	b.Run("quantized", func(b *testing.B) {
		var sink uint32
		var scr ListScratch
		for i := 0; i < b.N; i++ {
			l := quant.At(i%lists, &scr)
			n := l.Cutoff(50)
			for _, o := range l.Objs(n) {
				sink += o
			}
		}
		_ = sink
	})
	b.Run("quantized-search", func(b *testing.B) {
		var sink uint32
		var scr ListScratch
		for i := 0; i < b.N; i++ {
			l := quant.Probe(uint64(i%nKeys), &scr)
			n := l.Cutoff(50)
			for _, o := range l.Objs(n) {
				sink += o
			}
		}
		_ = sink
	})
}

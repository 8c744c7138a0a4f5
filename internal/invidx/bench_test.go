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
// (Zipf-ish skew over nKeys keys, the k-th named key(k)), the regime where
// per-list overhead dominates.
func layoutBuilder(nKeys, nPostings int, key func(k int) uint64) (b Builder) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < nPostings; i++ {
		u := rng.Float64()
		b.Add(key(int(u*u*float64(nKeys))), uint32(rng.Intn(1<<20)), rng.Float64()*100)
	}
	return b
}

// BenchmarkLayoutProbe times a probe for each shape of key the filters use:
// token — (token, 0), a hash bucket's (bucket, 0) too — grid, (row, column)
// of a 128×128 grid, and hybrid, (token, cell) with about sixteen cells a
// token. On each, flat is the build layout, which the paper's baselines read
// whole (lookup and every object), and quantized the query path's read of the
// served view in place (the group's run select, a binary search of the run,
// a cutoff over the stored codes, and the head's objects); position is
// positional At on the token shape, the read SEAL's locator makes once it
// holds a list's position.
func BenchmarkLayoutProbe(b *testing.B) {
	const nKeys, nPostings = 1 << 14, 1 << 18
	c := Code(50)
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
	for _, shape := range []struct {
		name string
		key  func(k int) uint64
	}{
		{"token", func(k int) uint64 { return uint64(k) << 32 }},
		{"grid", func(k int) uint64 { return uint64(k/128)<<32 | uint64(k%128) }},
		{"hybrid", func(k int) uint64 { return uint64(k/16)<<32 | uint64(k%16*4099) }},
	} {
		fb := layoutBuilder(nKeys, nPostings, shape.key)
		flat := fb.Build()
		quant := Compress(flat)
		b.Run(shape.name+"/flat", func(b *testing.B) {
			var sink uint32
			for i := 0; i < b.N; i++ {
				objs, _, _ := flat.List(shape.key(i % nKeys))
				for _, o := range objs {
					sink += o
				}
			}
			_ = sink
		})
		b.Run(shape.name+"/quantized", served(func(i int) List { return quant.Probe(shape.key(i % nKeys)) }))
		if shape.name == "token" {
			lists := quant.Lists() // all but a handful of the nKeys keys drew a posting
			b.Run("position", served(func(i int) List { return quant.At(i % lists) }))
		}
	}
}

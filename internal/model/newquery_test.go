package model_test

import (
	"path/filepath"
	"testing"

	"github.com/sealdb/seal/internal/diskidx"
	"github.com/sealdb/seal/internal/gen"
)

// BenchmarkNewQuery is query compilation as a served index runs it: keyword
// lookup in the vocabulary, the weight sum and the signature order, on a
// dataset opened off its segment, so the vocabulary reads a mapped term blob.
// The corpus is the shard rung's, gen.Twitter{N: 50000, Seed: 42}, and one op
// compiles one of the rung's 400 thin queries (large regions, query seed 7,
// τ 0.4).
//
//	GOMAXPROCS=1 go test -run '^$' -bench NewQuery -count 10 ./internal/model
func BenchmarkNewQuery(b *testing.B) {
	built, err := gen.Twitter(gen.TwitterConfig{N: 50000, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	specs, err := gen.Queries(built, gen.LargeRegionConfig(400, 7))
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "dataset.seg")
	if err := diskidx.WriteDataset(path, built, []uint32{0, uint32(built.Len())}); err != nil {
		b.Fatal(err)
	}
	seg, err := diskidx.OpenDataset(path)
	if err != nil {
		b.Fatal(err)
	}
	defer seg.Close()
	ds := seg.Dataset()
	var tokens int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := specs[i%len(specs)]
		q, err := ds.NewQuery(s.Region, s.Terms, 0.4, 0.4)
		if err != nil {
			b.Fatal(err)
		}
		tokens += len(q.Tokens)
	}
	b.ReportMetric(float64(tokens)/float64(b.N), "tokens/op")
}

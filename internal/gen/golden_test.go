package gen

import (
	"testing"

	"github.com/sealdb/seal/internal/engine"
	"github.com/sealdb/seal/internal/model"
)

// TestGoldenCorpus pins the generated corpora byte for byte through
// engine.Fingerprint — the vocabulary in interning order with its weights,
// and every object's region and tokens — so a generator rewrite that draws a
// different token, in a different order, or interns words in another order
// shows here. Twitter{N: 2000, Seed: 42} is pinned apart, by the dataset.seg
// digest of TestGoldenSegments; these are USA, Twitter at another seed and
// size, the shard rung's corpus (Twitter{N: 50000, Seed: 42}), and a
// vocabulary small enough that draws run out of attempts before k distinct
// words.
func TestGoldenCorpus(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func() (*model.Dataset, error)
		want string
	}{
		{"USA{N: 5000, Seed: 42}", func() (*model.Dataset, error) { return USA(USAConfig{N: 5000, Seed: 42}) }, "fed419e8698592da"},
		{"USA{N: 700, Seed: 3}", func() (*model.Dataset, error) { return USA(USAConfig{N: 700, Seed: 3}) }, "77913c874c92b693"},
		{"Twitter{N: 5000, Seed: 7}", func() (*model.Dataset, error) { return Twitter(TwitterConfig{N: 5000, Seed: 7}) }, "0b2b2ee10f43a8f5"},
		{"Twitter{N: 50000, Seed: 42}", func() (*model.Dataset, error) { return Twitter(TwitterConfig{N: 50000, Seed: 42}) }, "13806c6fb3b1e225"},
		{"Twitter{N: 500, Seed: 9, VocabSize: 20}", func() (*model.Dataset, error) {
			return Twitter(TwitterConfig{N: 500, Seed: 9, VocabSize: 20})
		}, "3404aa38c9db28f5"},
	} {
		ds, err := tc.gen()
		if err != nil {
			t.Fatal(err)
		}
		if got := engine.Fingerprint(ds); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}

package gen

import (
	"testing"

	"github.com/sealdb/seal/internal/engine"
	"github.com/sealdb/seal/internal/model"
)

// TestGoldenCorpus pins the generated corpora byte for byte through
// engine.Fingerprint — the vocabulary in interning order with its weights,
// and every object's ID, region and tokens — so a generator rewrite that draws
// a different token, in a different order, or interns words in another order
// shows here. The values were re-recorded once for the fingerprint of
// manifest version 10; the corpora did not change. Twitter{N: 2000, Seed: 42}
// is pinned apart, by the dataset.seg digest of TestGoldenSegmentDigests;
// these are USA, Twitter at another seed and
// size, the shard rung's corpus (Twitter{N: 50000, Seed: 42}), and a
// vocabulary small enough that draws run out of attempts before k distinct
// words.
func TestGoldenCorpus(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func() (*model.Dataset, error)
		want string
	}{
		{"USA{N: 5000, Seed: 42}", func() (*model.Dataset, error) { return USA(USAConfig{N: 5000, Seed: 42}) }, "da9f3e0773d4f4b2"},
		{"USA{N: 700, Seed: 3}", func() (*model.Dataset, error) { return USA(USAConfig{N: 700, Seed: 3}) }, "04a45a493b685d54"},
		{"Twitter{N: 5000, Seed: 7}", func() (*model.Dataset, error) { return Twitter(TwitterConfig{N: 5000, Seed: 7}) }, "3b41d548ed38b280"},
		{"Twitter{N: 50000, Seed: 42}", func() (*model.Dataset, error) { return Twitter(TwitterConfig{N: 50000, Seed: 42}) }, "e18306173b70bab4"},
		{"Twitter{N: 500, Seed: 9, VocabSize: 20}", func() (*model.Dataset, error) {
			return Twitter(TwitterConfig{N: 500, Seed: 9, VocabSize: 20})
		}, "8395ad94b32a2ba3"},
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

package engine

// Sharded differential test for verification: each shard verifies its
// candidates against its own row range, yet every similarity any shard
// reports must equal the root dataset's bit for bit — that is what keeps
// scatter-gather results identical to the monolithic search.

import (
	"context"
	"math/rand"
	"testing"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/testutil"
)

func TestShardedSimilaritiesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	ds, err := testutil.RandomDataset(rng, 260, 40)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]*model.Query, 0, 30)
	for len(queries) < 30 {
		q, err := testutil.RandomQuery(rng, ds, 40)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}

	methods := []struct {
		name string
		mk   func(sub *model.Dataset) (core.Filter, error)
	}{
		{"seal", func(sub *model.Dataset) (core.Filter, error) {
			return core.NewHierarchicalFilter(sub, core.HierarchicalConfig{MaxLevel: 5, GridBudget: 6})
		}},
		{"grid", func(sub *model.Dataset) (core.Filter, error) {
			return core.NewGridFilter(sub, 32)
		}},
		{"hybrid", func(sub *model.Dataset) (core.Filter, error) {
			return core.NewHybridHashFilter(sub, 16, 0)
		}},
		{"hybrid-hashed", func(sub *model.Dataset) (core.Filter, error) {
			return core.NewHybridHashFilter(sub, 16, 257)
		}},
		{"token", func(sub *model.Dataset) (core.Filter, error) {
			return core.NewTokenFilter(sub), nil
		}},
	}
	for _, method := range methods {
		t.Run(method.name, func(t *testing.T) {
			for _, shards := range []int{1, 2, 3, 8} {
				eng, err := Build(ds, Config{Shards: shards, NewFilter: method.mk})
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				for qi, q := range queries {
					matches, _, err := eng.Search(context.Background(), q, Options{})
					if err != nil {
						t.Fatalf("shards=%d query %d: %v", shards, qi, err)
					}
					for _, m := range matches {
						if want := ds.SimT(q, m.ID); m.SimT != want {
							t.Fatalf("shards=%d query %d: object %d SimT %v != exact SimT %v",
								shards, qi, m.ID, m.SimT, want)
						}
						if want := ds.SimR(q, m.ID); m.SimR != want {
							t.Fatalf("shards=%d query %d: object %d SimR %v != exact SimR %v",
								shards, qi, m.ID, m.SimR, want)
						}
					}
					// The answer set itself must be the brute-force one.
					want := testutil.BruteForceAnswers(ds, q)
					if len(matches) != len(want) {
						t.Fatalf("shards=%d query %d: %d matches, want %d", shards, qi, len(matches), len(want))
					}
					for i := range want {
						if matches[i].ID != want[i] {
							t.Fatalf("shards=%d query %d: match %d = %d, want %d",
								shards, qi, i, matches[i].ID, want[i])
						}
					}
				}
			}
		})
	}
}

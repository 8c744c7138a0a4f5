package irtree_test

import (
	"math/rand"
	"testing"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/irtree"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/paperdata"
	"github.com/sealdb/seal/internal/testutil"
)

func TestNewValidation(t *testing.T) {
	ds, err := paperdata.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := irtree.New(ds, 2); err == nil {
		t.Fatal("fanout < 4 should fail")
	}
}

func TestPaperExampleAnswer(t *testing.T) {
	ds, err := paperdata.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	tree, err := irtree.New(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	q, err := paperdata.Query(ds)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSearcher(ds, tree)
	matches, st := s.Search(q, nil, 0)
	if len(matches) != 1 || matches[0].ID != 1 {
		t.Fatalf("answers = %v, want [o2]", matches)
	}
	if st.ListsProbed == 0 {
		t.Fatalf("traversal should visit nodes: %+v", st)
	}
	if tree.SizeBytes() <= 0 || tree.Height() < 1 {
		t.Fatalf("size/height not populated")
	}
}

// TestCompleteAgainstBruteForce: the IR-tree must return exactly the
// brute-force answers on randomized data.
func TestCompleteAgainstBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds, err := testutil.RandomDataset(rng, 150+rng.Intn(250), 35)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := irtree.New(ds, 8)
		if err != nil {
			t.Fatal(err)
		}
		s := core.NewSearcher(ds, tree)
		for qi := 0; qi < 25; qi++ {
			q, err := testutil.RandomQuery(rng, ds, 35)
			if err != nil {
				t.Fatal(err)
			}
			want := testutil.BruteForceAnswers(ds, q)
			matches, _ := s.Search(q, nil, 0)
			if len(matches) != len(want) {
				t.Fatalf("seed %d q%d: %d results, want %d", seed, qi, len(matches), len(want))
			}
			for i, m := range matches {
				if m.ID != want[i] {
					t.Fatalf("seed %d q%d: result %d = %v, want %v", seed, qi, i, m.ID, want[i])
				}
			}
		}
	}
}

// TestPruningSkipsDistantSubtrees: a query in one corner should not visit
// every node of a tree spanning two distant clusters.
func TestPruningSkipsDistantSubtrees(t *testing.T) {
	var b model.Builder
	// Cluster A near origin, cluster B far away.
	for i := 0; i < 64; i++ {
		x := float64(i % 8)
		y := float64(i / 8)
		if _, err := b.Add(regionAt(x*10, y*10), []string{"alpha"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		x := 5000 + float64(i%8)
		y := 5000 + float64(i/8)
		if _, err := b.Add(regionAt(x, y), []string{"beta"}); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tree, err := irtree.New(ds, 8)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ds.NewQuery(regionAt(10, 10), []string{"alpha"}, 0.2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	cs := core.NewCandidateSet(ds.Len())
	var st core.FilterStats
	cs.Reset()
	tree.Collect(q, cs, &st, nil, nil)
	// 128 objects at fanout 8 → ≥ 16 leaves + internals. The far cluster
	// must be pruned high up: visiting everything would cost 19+ nodes.
	if st.ListsProbed > 12 {
		t.Fatalf("visited %d nodes; distant subtree not pruned", st.ListsProbed)
	}
}

func regionAt(x, y float64) geo.Rect {
	return geo.Rect{MinX: x, MinY: y, MaxX: x + 5, MaxY: y + 5}
}

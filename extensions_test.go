package seal_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	seal "github.com/sealdb/seal"
)

// TestMultiRegionObjects: the L-shaped footprint rejects queries in its
// notch even though the MBR overlaps them.
func TestMultiRegionObjects(t *testing.T) {
	objects := []seal.Object{
		{
			Regions: []seal.Rect{
				{MinX: 0, MinY: 0, MaxX: 10, MaxY: 2},
				{MinX: 0, MinY: 2, MaxX: 2, MaxY: 10},
			},
			Tokens: []string{"ell", "corner"},
		},
		{Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, Tokens: []string{"block", "corner"}},
	}
	for _, m := range allMethods {
		ix, err := seal.Build(objects, seal.WithMethod(m), seal.WithGranularity(8))
		if err != nil {
			t.Fatal(err)
		}
		// A query inside the notch: overlaps the MBR of o0 but none of its
		// rectangles; overlaps o1 fully.
		matches, err := answer(ix, seal.Request{
			Region: seal.Rect{MinX: 4, MinY: 4, MaxX: 9, MaxY: 9},
			Tokens: []string{"ell", "block", "corner"},
			TauR:   0.2, TauT: 0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) != 1 || matches[0].ID != 1 {
			t.Fatalf("%s: matches = %v, want only the block", ix.Stats().Method, matches)
		}
		// A query along the horizontal bar matches both.
		matches, err = answer(ix, seal.Request{
			Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 2},
			Tokens: []string{"ell", "block", "corner"},
			TauR:   0.15, TauT: 0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) != 2 {
			t.Fatalf("%s: bar query matches = %v, want both objects", ix.Stats().Method, matches)
		}
	}
}

// TestFootprint: Object returns a plain object's Region and no Regions, and a
// multi-region object's rectangles bit-exact — from an index built in memory
// and from one reopened from its segment directory.
func TestFootprint(t *testing.T) {
	multi := []seal.Rect{{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, {MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}}
	objects := []seal.Object{
		{Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, Tokens: []string{"a"}},
		{Regions: multi, Tokens: []string{"b"}},
	}
	open := map[string]func(t *testing.T) *seal.Index{
		"built": func(t *testing.T) *seal.Index {
			ix, err := seal.Build(objects, seal.WithMethod(seal.MethodTokenFilter))
			if err != nil {
				t.Fatal(err)
			}
			return ix
		},
		"segments": func(t *testing.T) *seal.Index {
			dir := t.TempDir()
			built, err := seal.Build(objects, seal.WithMethod(seal.MethodTokenFilter), seal.WithSegmentDir(dir))
			if err != nil {
				t.Fatal(err)
			}
			if err := built.Close(); err != nil {
				t.Fatal(err)
			}
			ix, err := seal.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ix.Close() })
			return ix
		},
	}
	for _, source := range []string{"built", "segments"} {
		t.Run(source, func(t *testing.T) {
			ix := open[source](t)
			t.Run("plain", func(t *testing.T) {
				o0, err := ix.Object(0)
				if err != nil || o0.Region != objects[0].Region || o0.Regions != nil {
					t.Fatalf("plain object = %+v, %v", o0, err)
				}
			})
			t.Run("multi-region", func(t *testing.T) {
				o1, err := ix.Object(1)
				if err != nil || !slices.Equal(o1.Regions, multi) {
					t.Fatalf("multi-region object = %+v, %v", o1, err)
				}
			})
			t.Run("out-of-range", func(t *testing.T) {
				if _, err := ix.Object(5); err == nil {
					t.Fatal("out-of-range object should error")
				}
			})
		})
	}
}

func TestSearchTopKPublic(t *testing.T) {
	ix, err := seal.Build(paperObjects())
	if err != nil {
		t.Fatal(err)
	}
	got, err := answer(ix, seal.Request{
		Region: paperQuery().Region,
		Tokens: paperQuery().Tokens,
		K:      3,
		Alpha:  0.5,
		FloorR: 0.05,
		FloorT: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0].ID != 1 {
		t.Fatalf("top result = %+v, want o2 first", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatalf("not sorted by score: %+v", got)
		}
	}
	if _, err := answer(ix, seal.Request{K: 0}); err == nil {
		t.Fatal("K=0 should error")
	}
}

func TestQueryBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	objects := randomObjects(rng, 300)
	ix, err := seal.Build(objects)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]seal.Request, 40)
	for i := range queries {
		queries[i] = randomQuery(rng, objects)
	}
	want := make([][]seal.Match, len(queries))
	for i, q := range queries {
		want[i], err = answer(ix, q)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, br := range ix.QueryBatch(context.Background(), queries) {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
		if !reflect.DeepEqual(br.Results.Matches, want[i]) {
			t.Fatalf("batch result %d differs from serial", i)
		}
	}
	// A bad query fails at its own position.
	bad := append([]seal.Request(nil), queries...)
	bad[7].TauR = 0
	if got := ix.QueryBatch(context.Background(), bad); got[7].Err == nil {
		t.Fatal("bad query should fail its batch entry")
	}
}

// TestTopKStability: repeated top-k calls return identical rankings
// (deterministic tie-breaks).
func TestTopKStability(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	objects := randomObjects(rng, 250)
	ix, err := seal.Build(objects)
	if err != nil {
		t.Fatal(err)
	}
	q := seal.Request{
		Region: randomQuery(rng, objects).Region,
		Tokens: objects[0].Tokens,
		K:      10,
		Alpha:  0.4,
	}
	first, err := answer(ix, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := answer(ix, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d differs from first", i)
		}
	}
	// Scores are within [0,1] and sorted.
	if !sort.SliceIsSorted(first, func(i, j int) bool { return first[i].Score > first[j].Score }) {
		// Equal scores are allowed; verify with tolerance.
		for i := 1; i < len(first); i++ {
			if first[i].Score-first[i-1].Score > 1e-12 {
				t.Fatalf("scores not descending: %+v", first)
			}
		}
	}
	for _, m := range first {
		if m.Score < 0 || m.Score > 1+1e-9 || math.IsNaN(m.Score) {
			t.Fatalf("score out of range: %+v", m)
		}
	}
}

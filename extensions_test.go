package seal_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	seal "github.com/sealdb/seal"
)

func TestClusterRegions(t *testing.T) {
	var pts []seal.Point
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		pts = append(pts, seal.Point{X: rng.Float64() * 3, Y: rng.Float64() * 3})
	}
	for i := 0; i < 50; i++ {
		pts = append(pts, seal.Point{X: 500 + rng.Float64()*3, Y: rng.Float64() * 3})
	}
	regions, err := seal.ClusterRegions(pts, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 2 {
		t.Fatalf("regions = %v, want 2", regions)
	}
	if _, err := seal.ClusterRegions(nil, 2, 1); err == nil {
		t.Fatal("no points should error")
	}
}

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
	for _, m := range []seal.Method{seal.MethodSeal, seal.MethodGridFilter, seal.MethodScan, seal.MethodIRTree} {
		ix, err := seal.Build(objects, seal.WithMethod(m), seal.WithGranularity(8), seal.WithRTreeFanout(4))
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

func TestFootprint(t *testing.T) {
	objects := []seal.Object{
		{Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, Tokens: []string{"a"}},
		{Regions: []seal.Rect{{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, {MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}}, Tokens: []string{"b"}},
	}
	ix, err := seal.Build(objects, seal.WithMethod(seal.MethodScan))
	if err != nil {
		t.Fatal(err)
	}
	fp0, err := ix.Footprint(0)
	if err != nil || len(fp0) != 1 {
		t.Fatalf("plain footprint = %v, %v", fp0, err)
	}
	fp1, err := ix.Footprint(1)
	if err != nil || len(fp1) != 2 {
		t.Fatalf("multi footprint = %v, %v", fp1, err)
	}
	if _, err := ix.Footprint(5); err == nil {
		t.Fatal("out-of-range footprint should error")
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
	if _, err := answer(ix, seal.TopKQuery{K: 0}.Request()); err == nil {
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
		queries[i] = randomQuery(rng, objects).Request()
	}
	want := make([][]seal.Match, len(queries))
	for i, q := range queries {
		want[i], err = answer(ix, q)
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, par := range []int{0, 1, 4, 100} {
		for i, br := range ix.QueryBatch(context.Background(), queries, seal.BatchParallelism(par)) {
			if br.Err != nil {
				t.Fatal(br.Err)
			}
			if !reflect.DeepEqual(br.Results.Matches, want[i]) {
				t.Fatalf("parallelism %d: batch result %d differs from serial", par, i)
			}
		}
	}
	// A bad query fails at its own position.
	bad := append([]seal.Request(nil), queries...)
	bad[7].TauR = 0
	if got := ix.QueryBatch(context.Background(), bad, seal.BatchParallelism(4)); got[7].Err == nil {
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
	q := seal.TopKQuery{
		Region: randomQuery(rng, objects).Region,
		Tokens: objects[0].Tokens,
		K:      10,
		Alpha:  0.4,
	}
	first, err := answer(ix, q.Request())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := answer(ix, q.Request())
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

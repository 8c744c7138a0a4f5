package model

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/sealdb/seal/internal/geo"
)

// orderedDataset is three objects — object 2 multi-region — permuted so that
// rows 0, 1, 2 hold objects 2, 0, 1.
func orderedDataset(t *testing.T) (ds, p *Dataset) {
	t.Helper()
	var b Builder
	if _, err := b.Add(geo.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Add(geo.Rect{MinX: 2, MinY: 2, MaxX: 8, MaxY: 8}, []string{"b", "c"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddMulti(geo.RectSet{
		{MinX: 10, MinY: 10, MaxX: 12, MaxY: 12},
		{MinX: 14, MinY: 10, MaxX: 16, MaxY: 12},
	}, []string{"a", "c", "d"}); err != nil {
		t.Fatal(err)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p, err = ds.Permute([]ObjectID{2, 0, 1}); err != nil {
		t.Fatal(err)
	}
	return ds, p
}

// TestSubsetVerifiesIdentically: a row range of a permuted dataset verifies
// every object exactly as the insertion-ordered dataset does, reports its
// object IDs, and keeps multi-region footprints with their objects.
func TestSubsetVerifiesIdentically(t *testing.T) {
	ds, p := orderedDataset(t)
	for id := ObjectID(0); id < 3; id++ {
		if got := p.ID(p.Row(id)); got != id {
			t.Fatalf("ID(Row(%d)) = %d", id, got)
		}
	}
	sub, err := p.Subset(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 2 {
		t.Fatalf("subset len = %d, want 2", sub.Len())
	}
	if sub.Space() != ds.Space() {
		t.Fatalf("subset space %v differs from parent %v", sub.Space(), ds.Space())
	}
	q, err := ds.NewQuery(geo.Rect{MinX: 1, MinY: 1, MaxX: 15, MaxY: 11}, []string{"a", "d", "zzz"}, 0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 of the subset is object 2, row 1 is object 0.
	for row, id := range []ObjectID{2, 0} {
		r := ObjectID(row)
		if got := sub.ID(r); got != id {
			t.Fatalf("subset row %d has ID %d, want %d", row, got, id)
		}
		if sub.Region(r) != ds.Region(id) || !slices.Equal(sub.Tokens(r), ds.Tokens(id)) || sub.TotalWeight(r) != ds.TotalWeight(id) {
			t.Errorf("subset row %d does not hold object %d", row, id)
		}
		if got, want := sub.SimR(q, r), ds.SimR(q, id); got != want {
			t.Errorf("SimR(subset row %d) = %v, want object %d's %v", row, got, id, want)
		}
		if got, want := sub.SimT(q, r), ds.SimT(q, id); got != want {
			t.Errorf("SimT(subset row %d) = %v, want object %d's %v", row, got, id, want)
		}
	}
	if !slices.Equal(sub.MultiRegion(0), ds.MultiRegion(2)) {
		t.Error("object 2 lost its multi-region footprint in row 0")
	}
	if sub.MultiRegion(1) != nil {
		t.Error("object 0 gained a spurious multi-region footprint")
	}
	// A range of a range is a range of the root.
	inner, err := sub.Subset(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if inner.Len() != 1 || inner.ID(0) != 0 || inner.SimT(q, 0) != ds.SimT(q, 0) {
		t.Errorf("subset of a subset holds object %d, want 0", inner.ID(0))
	}
	if allocs := testing.AllocsPerRun(10, func() { _, _ = p.Subset(1, 3) }); allocs > 1 {
		t.Errorf("Subset allocates %v times; it must copy no column", allocs)
	}
}

func TestSubsetErrors(t *testing.T) {
	ds, p := orderedDataset(t)
	for _, r := range [][2]int{{0, 0}, {2, 1}, {-1, 2}, {1, 4}} {
		if _, err := p.Subset(r[0], r[1]); err == nil {
			t.Errorf("Subset(%d, %d) should fail", r[0], r[1])
		}
	}
	if _, err := ds.Subset(0, 1); err == nil {
		t.Error("a dataset in insertion order has no ID column to subset")
	}
	sub, err := p.Subset(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, rows := range map[string][]ObjectID{
		"short":        {0, 1},
		"out of range": {0, 1, 3},
		"duplicate":    {0, 1, 1},
	} {
		if _, err := ds.Permute(rows); err == nil {
			t.Errorf("Permute(%s) should fail", name)
		}
	}
	if _, err := sub.Permute([]ObjectID{1, 0}); err == nil {
		t.Error("a subset's IDs are not a permutation of its rows")
	}
	if _, err := sub.Columns(); err == nil {
		t.Error("a subset exported columns of its own")
	}
}

// TestRowFindsEveryID: over permutations whose ID column ascends in one run,
// in a few shard-like runs, or in no order at all, Row inverts ID. An empty
// ID column has no runs.
func TestRowFindsEveryID(t *testing.T) {
	if runs := ascendingRuns(nil); !slices.Equal(runs, []uint32{0}) {
		t.Fatalf("an empty ID column has runs %v, want none", runs)
	}
	var b Builder
	const n = 300
	for i := 0; i < n; i++ {
		if _, err := b.Add(geo.Rect{MinX: float64(i), MinY: 0, MaxX: float64(i) + 1, MaxY: 1}, []string{"a"}); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, shards := range []int{1, 2, 7, n} {
		rows := make([]ObjectID, n)
		for i := range rows {
			rows[i] = ObjectID(i)
		}
		rng.Shuffle(n, func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		if shards < n {
			for s := 0; s < shards; s++ {
				slices.Sort(rows[s*n/shards : (s+1)*n/shards])
			}
		}
		p, err := ds.Permute(rows)
		if err != nil {
			t.Fatal(err)
		}
		if shards < n && len(p.runs)-1 > shards {
			t.Fatalf("%d shards: %d ascending runs", shards, len(p.runs)-1)
		}
		for r := 0; r < n; r++ {
			if got := p.Row(p.ID(ObjectID(r))); got != ObjectID(r) {
				t.Fatalf("%d shards: Row(ID(%d)) = %d", shards, r, got)
			}
		}
	}
}

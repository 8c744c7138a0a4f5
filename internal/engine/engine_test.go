package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"github.com/sealdb/seal/internal/baseline"
	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/model"
)

func testDataset(t testing.TB, n int, seed int64) *model.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var b model.Builder
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		r := geo.Rect{MinX: x, MinY: y, MaxX: x + 1 + rng.Float64()*8, MaxY: y + 1 + rng.Float64()*8}
		toks := []string{fmt.Sprintf("t%d", rng.Intn(20)), fmt.Sprintf("t%d", rng.Intn(20))}
		if _, err := b.Add(r, toks); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestPartitionInvariants: partition orders every object once, in
// non-decreasing Morton code (ties by ascending ID), and cuts the order into
// contiguous ranges whose sizes differ by at most one — including the
// degenerate case where every center, hence every code, is the same.
func TestPartitionInvariants(t *testing.T) {
	var b model.Builder
	for i := 0; i < 10; i++ {
		if _, err := b.Add(geo.Rect{MinX: 5, MinY: 5, MaxX: 7, MaxY: 7}, []string{"x"}); err != nil {
			t.Fatal(err)
		}
	}
	clones, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for name, ds := range map[string]*model.Dataset{"random": testDataset(t, 101, 5), "one center": clones} {
		space := ds.Space()
		code := func(id model.ObjectID) uint64 {
			r := ds.Region(id)
			return mortonCode(normalize((r.MinX+r.MaxX)/2, space.MinX, space.MaxX), normalize((r.MinY+r.MaxY)/2, space.MinY, space.MaxY))
		}
		for _, n := range []int{1, 2, 3, 7, 16, ds.Len()} {
			rows, bounds := partition(ds, n)
			if len(rows) != ds.Len() || len(bounds) != n+1 || bounds[0] != 0 || int(bounds[n]) != ds.Len() {
				t.Fatalf("%s n=%d: %d rows, bounds %v", name, n, len(rows), bounds)
			}
			for i := 0; i < n; i++ {
				if size := int(bounds[i+1]) - int(bounds[i]); size < ds.Len()/n || size > ds.Len()/n+1 {
					t.Fatalf("%s n=%d: shard %d has %d objects, want ~%d", name, n, i, size, ds.Len()/n)
				}
			}
			seen := make(map[model.ObjectID]bool)
			for i, id := range rows {
				if seen[id] {
					t.Fatalf("%s n=%d: object %d ordered twice", name, n, id)
				}
				seen[id] = true
				if i > 0 {
					prev := rows[i-1]
					if c, p := code(id), code(prev); c < p || (c == p && id < prev) {
						t.Fatalf("%s n=%d: row %d (object %d) out of Z-order after object %d", name, n, i, id, prev)
					}
				}
			}
		}
	}
}

func TestForEachCancelsOnFailure(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	err := ForEach(context.Background(), 1000, 1, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want the causal failure", err)
	}
	// With one worker the feed stops right after the failure: index 3 fails,
	// and at most one already-queued index may still drain.
	if n := ran.Load(); n > 5 {
		t.Fatalf("%d calls ran after a failure at index 3", n)
	}
}

func TestForEachPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	err := ForEach(ctx, 10, 4, func(ctx context.Context, i int) error {
		called = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if called {
		t.Fatal("fn ran despite a pre-canceled context")
	}
}

func TestBuildRejectsEmptyDataset(t *testing.T) {
	newFilter := func(sds *model.Dataset) (core.Filter, error) { return baseline.NewScan(sds), nil }
	if _, err := Build(nil, Config{Shards: 4, NewFilter: newFilter}); err == nil {
		t.Fatal("Build(nil dataset) should error, not panic")
	}
}

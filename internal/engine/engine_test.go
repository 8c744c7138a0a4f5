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
			// The shards are consecutive Z-order ranges: every object of
			// shard i precedes, by code and then ID, every object of shard
			// i+1. Inside a shard the rows ascend by ID.
			before := func(a, b model.ObjectID) bool {
				ca, cb := code(a), code(b)
				return ca < cb || (ca == cb && a < b)
			}
			seen := make(map[model.ObjectID]bool)
			// last is the Z-order last object of the shards before, if any.
			last, found := model.ObjectID(0), false
			for i := 0; i < n; i++ {
				shard := rows[bounds[i]:bounds[i+1]]
				for j, id := range shard {
					if seen[id] {
						t.Fatalf("%s n=%d: object %d ordered twice", name, n, id)
					}
					seen[id] = true
					if j > 0 && id <= shard[j-1] {
						t.Fatalf("%s n=%d: shard %d: object %d follows object %d", name, n, i, id, shard[j-1])
					}
					if found && !before(last, id) {
						t.Fatalf("%s n=%d: shard %d holds object %d, which does not follow object %d of an earlier shard in Z-order", name, n, i, id, last)
					}
				}
				for _, id := range shard {
					if !found || before(last, id) {
						last, found = id, true
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

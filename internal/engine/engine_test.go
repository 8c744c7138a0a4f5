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

func TestPartitionInvariants(t *testing.T) {
	ds := testDataset(t, 101, 5)
	for _, n := range []int{1, 2, 3, 7, 16, 101} {
		parts := partition(ds, n)
		if len(parts) != n {
			t.Fatalf("n=%d: %d parts", n, len(parts))
		}
		seen := make(map[model.ObjectID]bool)
		for pi, ids := range parts {
			if len(ids) == 0 {
				t.Fatalf("n=%d: part %d empty", n, pi)
			}
			if len(ids) < ds.Len()/n || len(ids) > ds.Len()/n+1 {
				t.Fatalf("n=%d: part %d has %d objects, want ~%d", n, pi, len(ids), ds.Len()/n)
			}
			for i, id := range ids {
				if i > 0 && ids[i-1] >= id {
					t.Fatalf("n=%d: part %d not strictly ID-sorted", n, pi)
				}
				if seen[id] {
					t.Fatalf("n=%d: object %d in two parts", n, id)
				}
				seen[id] = true
			}
		}
		if len(seen) != ds.Len() {
			t.Fatalf("n=%d: parts cover %d of %d objects", n, len(seen), ds.Len())
		}
	}
}

func TestPartitionDegenerateRoundRobin(t *testing.T) {
	var b model.Builder
	for i := 0; i < 10; i++ {
		if _, err := b.Add(geo.Rect{MinX: 5, MinY: 5, MaxX: 7, MaxY: 7}, []string{"x"}); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	parts := partition(ds, 3)
	want := [][]model.ObjectID{{0, 3, 6, 9}, {1, 4, 7}, {2, 5, 8}}
	for i := range want {
		if len(parts[i]) != len(want[i]) {
			t.Fatalf("part %d = %v, want %v", i, parts[i], want[i])
		}
		for j := range want[i] {
			if parts[i][j] != want[i][j] {
				t.Fatalf("part %d = %v, want %v", i, parts[i], want[i])
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

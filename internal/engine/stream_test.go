package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/sealdb/seal/internal/baseline"
	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/model"
)

func scanEngine(t testing.TB, ds *model.Dataset, shards int) *Engine {
	t.Helper()
	e, err := Build(ds, Config{
		Shards:    shards,
		NewFilter: func(sds *model.Dataset) (core.Filter, error) { return baseline.NewScan(sds), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func streamQuery(t testing.TB, ds *model.Dataset, seed int64) *model.Query {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	q, err := ds.NewQuery(geo.Rect{MinX: 0, MinY: 0, MaxX: 95, MaxY: 95},
		[]string{fmt.Sprintf("t%d", rng.Intn(20))}, 0.001, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// drain consumes a stream fully and returns the matches in arrival order.
func drain(ms *MatchStream) []core.Match {
	var out []core.Match
	for {
		m, ok := ms.Next()
		if !ok {
			return out
		}
		out = append(out, m)
	}
}

func TestSearchStreamLimitInterruptsWork(t *testing.T) {
	ds := testDataset(t, 4000, 22)
	e := scanEngine(t, ds, 4)
	q := streamQuery(t, ds, 5)

	_, full, err := e.Search(context.Background(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Results < 50 {
		t.Fatalf("want a dense query for this test, got %d results", full.Results)
	}

	const limit = 5
	ms := e.Stream(context.Background(), q, Options{Limit: limit})
	got := drain(ms)
	if err := ms.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != limit {
		t.Fatalf("limited stream yielded %d matches, want %d", len(got), limit)
	}
	st := ms.Stats()
	if st.PostingsScanned >= full.PostingsScanned/2 {
		t.Fatalf("limit did not reduce postings: %d scanned vs %d full", st.PostingsScanned, full.PostingsScanned)
	}
	if st.Candidates >= full.Candidates/2 {
		t.Fatalf("limit did not reduce candidates: %d vs %d full", st.Candidates, full.Candidates)
	}
}

func TestSearchStreamCloseInterruptsProducers(t *testing.T) {
	ds := testDataset(t, 2000, 23)
	e := scanEngine(t, ds, 4)
	q := streamQuery(t, ds, 7)

	// Tiny buffer so producers park on the channel, then walk away early.
	ms := e.Stream(context.Background(), q, Options{Buffer: 1})
	if _, ok := ms.Next(); !ok {
		t.Fatal("expected at least one match before closing")
	}
	ms.Close()
	if err := ms.Err(); err != nil {
		t.Fatalf("Close is not an error, got %v", err)
	}
	// Stats must be settled and partial (the full scan never happened).
	if st := ms.Stats(); st.PostingsScanned >= 2000 {
		t.Fatalf("abandoned stream still scanned everything (%d postings)", st.PostingsScanned)
	}
}

func TestSearchStreamContextCanceled(t *testing.T) {
	ds := testDataset(t, 500, 24)
	e := scanEngine(t, ds, 2)
	q := streamQuery(t, ds, 9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ms := e.Stream(ctx, q, Options{})
	drain(ms)
	if err := ms.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", err)
	}
}

func TestSearchStreamParallelismBound(t *testing.T) {
	ds := testDataset(t, 400, 26)
	e := scanEngine(t, ds, 8)
	q := streamQuery(t, ds, 13)
	want, _, err := e.Search(context.Background(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ms := e.Stream(context.Background(), q, Options{Parallelism: 2})
	got := drain(ms)
	if err := ms.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parallelism-bounded stream yielded %d matches, want %d", len(got), len(want))
	}
}

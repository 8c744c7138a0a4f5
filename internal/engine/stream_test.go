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

// drain runs a stream to its end and returns the matches in arrival order.
func drain(e *Engine, ctx context.Context, q *model.Query, opt Options) ([]core.Match, core.SearchStats, error) {
	var out []core.Match
	st, err := e.Stream(ctx, q, opt, func(m core.Match) bool {
		out = append(out, m)
		return true
	})
	return out, st, err
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
	got, st, err := drain(e, context.Background(), q, Options{Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != limit {
		t.Fatalf("limited stream yielded %d matches, want %d", len(got), limit)
	}
	if st.PostingsScanned >= full.PostingsScanned/2 {
		t.Fatalf("limit did not reduce postings: %d scanned vs %d full", st.PostingsScanned, full.PostingsScanned)
	}
	if st.Candidates >= full.Candidates/2 {
		t.Fatalf("limit did not reduce candidates: %d vs %d full", st.Candidates, full.Candidates)
	}
}

func TestSearchStreamCloseInterruptsProducers(t *testing.T) {
	ds := testDataset(t, 4000, 23)
	e := scanEngine(t, ds, 4)
	q := streamQuery(t, ds, 7)
	want, full, err := e.Search(context.Background(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// An answer well past the buffer, so producers park on the channel; then
	// walk away early.
	if len(want) <= 2*streamBuffer {
		t.Fatalf("want an answer past twice the %d-match buffer, got %d matches", streamBuffer, len(want))
	}
	got := 0
	st, err := e.Stream(context.Background(), q, Options{}, func(core.Match) bool {
		got++
		return false
	})
	if got != 1 {
		t.Fatalf("a consumer that declined its first match saw %d", got)
	}
	if err != nil {
		t.Fatalf("declining is not an error, got %v", err)
	}
	// Stats must be settled and partial (the full scan never happened).
	if st.PostingsScanned >= full.PostingsScanned {
		t.Fatalf("abandoned stream still scanned everything (%d postings)", st.PostingsScanned)
	}
}

func TestSearchStreamContextCanceled(t *testing.T) {
	ds := testDataset(t, 500, 24)
	e := scanEngine(t, ds, 2)
	q := streamQuery(t, ds, 9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := drain(e, ctx, q, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

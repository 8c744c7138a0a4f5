package seal_test

// Stream/limit equivalence property tests for the unified query API: Stream
// must yield exactly the brute-force answer set under every order, Limit must
// be a consistent prefix under the deterministic orders, and a small Limit
// must measurably reduce engine work (not just truncate) on a sharded index.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/sealdb/seal"
	"github.com/sealdb/seal/internal/model"
)

// collectStream drains a Stream iterator, failing the test on a yielded
// error.
func collectStream(t *testing.T, ix *seal.Index, req seal.Request, opts ...seal.QueryOption) []seal.Match {
	t.Helper()
	var out []seal.Match
	for m, err := range ix.Stream(context.Background(), req, opts...) {
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		out = append(out, m)
	}
	return out
}

func sortByID(ms []seal.Match) []seal.Match {
	out := append([]seal.Match(nil), ms...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func equalMatches(a, b []seal.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStreamEquivalence is the property test of the unified API: across
// shard counts and filter methods, with Query held to the brute-force
// oracle, (1) Stream in its default arrival order yields exactly that result
// set, (2) OrderByID streams reproduce its exact sequence, (3) Limit=L under
// OrderByID is the exact L-prefix of that sequence, and (4) Limit=L in
// arrival order yields L matches that all belong to the full result set.
func TestStreamEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260731))
	objects := shardObjects(300, rng)
	queries := shardQueries(20, rng)

	methods := []struct {
		name string
		opts []seal.Option
	}{
		{"seal", []seal.Option{seal.WithMethod(seal.MethodSeal), seal.WithMaxLevel(8)}},
		{"grid", []seal.Option{seal.WithMethod(seal.MethodGridFilter), seal.WithGranularity(64)}},
		{"token", []seal.Option{seal.WithMethod(seal.MethodTokenFilter)}},
	}
	oracle := newOracle(t, objects, model.SpaceJaccard, model.TextJaccard)
	for _, method := range methods {
		t.Run(method.name, func(t *testing.T) {
			for _, k := range []int{1, 2, 3, 8} {
				ix, err := seal.Build(objects, append(append([]seal.Option(nil), method.opts...), seal.WithShards(k))...)
				if err != nil {
					t.Fatalf("shards=%d: %v", k, err)
				}
				for qi, q := range queries {
					want := oracle.threshold(t, q)
					got, err := answer(ix, q.Request())
					if err != nil {
						t.Fatal(err)
					}
					requireSameMatches(t, fmt.Sprintf("shards=%d query %d", k, qi), got, want)
					req := q.Request()

					arrival := collectStream(t, ix, req)
					if !equalMatches(sortByID(arrival), want) {
						t.Fatalf("shards=%d query %d: arrival stream set differs from Search", k, qi)
					}

					byID := collectStream(t, ix, req, seal.OrderByID())
					if !equalMatches(byID, want) {
						t.Fatalf("shards=%d query %d: OrderByID stream differs from Search", k, qi)
					}

					L := 1 + qi%4
					prefix := want
					if len(prefix) > L {
						prefix = prefix[:L]
					}
					limID := collectStream(t, ix, req, seal.OrderByID(), seal.Limit(L))
					if !equalMatches(limID, prefix) {
						t.Fatalf("shards=%d query %d: OrderByID Limit(%d) = %v, want prefix %v", k, qi, L, limID, prefix)
					}
					res, err := ix.Query(context.Background(), req, seal.OrderByID(), seal.Limit(L))
					if err != nil {
						t.Fatal(err)
					}
					if !equalMatches(res.Matches, prefix) {
						t.Fatalf("shards=%d query %d: Query OrderByID Limit(%d) differs from prefix", k, qi, L)
					}

					limArrival := collectStream(t, ix, req, seal.Limit(L))
					if len(limArrival) != len(prefix) {
						t.Fatalf("shards=%d query %d: arrival Limit(%d) yielded %d matches, want %d",
							k, qi, L, len(limArrival), len(prefix))
					}
					full := make(map[int]seal.Match, len(want))
					for _, m := range want {
						full[m.ID] = m
					}
					seen := make(map[int]bool, len(limArrival))
					for _, m := range limArrival {
						if full[m.ID] != m {
							t.Fatalf("shards=%d query %d: arrival Limit match %+v not in full result set", k, qi, m)
						}
						if seen[m.ID] {
							t.Fatalf("shards=%d query %d: arrival Limit yielded object %d twice", k, qi, m.ID)
						}
						seen[m.ID] = true
					}
				}
			}
		})
	}
}

// TestStreamRankedEquivalence: ranked requests through Query/Stream must
// reproduce the brute-force ranking exactly, and Limit must select its
// score-order prefix.
func TestStreamRankedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260732))
	objects := shardObjects(250, rng)
	queries := shardQueries(12, rng)
	oracle := newOracle(t, objects, model.SpaceJaccard, model.TextJaccard)
	for _, k := range []int{1, 3} {
		ix, err := seal.Build(objects, seal.WithMethod(seal.MethodTokenFilter), seal.WithShards(k))
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			tq := seal.TopKQuery{Region: q.Region, Tokens: q.Tokens, K: 2 + qi%6, Alpha: 0.5, FloorR: 0.01, FloorT: 0.01}
			want := oracle.ranked(t, tq.Request())
			res, err := ix.Query(context.Background(), tq.Request())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Matches) != len(want) {
				t.Fatalf("shards=%d topk %d: %d matches, want %d", k, qi, len(res.Matches), len(want))
			}
			for i, m := range res.Matches {
				w := want[i]
				if m.ID != w.ID || m.SimR != w.SimR || m.SimT != w.SimT || m.Score != w.Score {
					t.Fatalf("shards=%d topk %d rank %d: %+v, want %+v", k, qi, i, m, w)
				}
			}
			streamed := collectStream(t, ix, tq.Request())
			if !equalMatches(streamed, res.Matches) {
				t.Fatalf("shards=%d topk %d: Stream differs from Query", k, qi)
			}
			if len(want) > 1 {
				L := 1 + qi%(len(want)-1)
				lim := collectStream(t, ix, tq.Request(), seal.Limit(L))
				if !equalMatches(lim, res.Matches[:L]) {
					t.Fatalf("shards=%d topk %d: ranked Limit(%d) is not the score-order prefix", k, qi, L)
				}
			}
		}
	}
}

// TestStreamLimitReducesEngineWork is the acceptance check for engine-level
// early termination: on a sharded index, a small Limit must cut the postings
// scanned and candidates verified well below the unbounded search — the
// limit interrupts shard searches, it does not truncate their output.
func TestStreamLimitReducesEngineWork(t *testing.T) {
	rng := rand.New(rand.NewSource(20260733))
	objects := shardObjects(4000, rng)
	ix, err := seal.Build(objects, seal.WithMethod(seal.MethodTokenFilter), seal.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	req := seal.Request{
		Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
		Tokens: []string{"t1", "t2", "t3"},
		TauR:   0.0005,
		TauT:   0.0005,
	}
	full, err := ix.Query(context.Background(), req, seal.CollectStats())
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Matches) < 100 {
		t.Fatalf("want a dense query for this test, got %d matches", len(full.Matches))
	}
	oracle := newOracle(t, objects, model.SpaceJaccard, model.TextJaccard)
	requireSameMatches(t, "full", full.Matches, oracle.threshold(t, seal.Query{Region: req.Region, Tokens: req.Tokens, TauR: req.TauR, TauT: req.TauT}))

	const limit = 5
	var st seal.Stats
	got := collectStream(t, ix, req, seal.Limit(limit), seal.StatsInto(&st))
	if len(got) != limit {
		t.Fatalf("limited stream yielded %d matches, want %d", len(got), limit)
	}
	if st.PostingsScanned >= full.Stats.PostingsScanned/2 {
		t.Fatalf("Limit(%d) did not reduce postings scanned: %d vs %d unbounded",
			limit, st.PostingsScanned, full.Stats.PostingsScanned)
	}
	if st.Candidates >= full.Stats.Candidates/2 {
		t.Fatalf("Limit(%d) did not reduce candidates: %d vs %d unbounded",
			limit, st.Candidates, full.Stats.Candidates)
	}

	// The materializing path reports the same reduction through Results.Stats.
	res, err := ix.Query(context.Background(), req, seal.OrderByArrival(), seal.Limit(limit), seal.CollectStats())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != limit {
		t.Fatalf("Query OrderByArrival Limit yielded %d matches, want %d", len(res.Matches), limit)
	}
	if res.Stats.PostingsScanned >= full.Stats.PostingsScanned/2 {
		t.Fatalf("Query with Limit did not reduce postings: %d vs %d",
			res.Stats.PostingsScanned, full.Stats.PostingsScanned)
	}
}

// TestStreamEarlyBreak: breaking out of a Stream loop must cancel the
// outstanding shard searches instead of leaking parked producers; the stats
// then report partial work.
func TestStreamEarlyBreak(t *testing.T) {
	rng := rand.New(rand.NewSource(20260734))
	objects := shardObjects(3000, rng)
	ix, err := seal.Build(objects, seal.WithMethod(seal.MethodTokenFilter), seal.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	req := seal.Request{
		Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
		Tokens: []string{"t1", "t2"},
		TauR:   0.0005,
		TauT:   0.0005,
	}
	var st seal.Stats
	n := 0
	for _, err := range ix.Stream(context.Background(), req, seal.StatsInto(&st)) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n == 3 {
			break
		}
	}
	if n != 3 {
		t.Fatalf("consumed %d matches, want 3", n)
	}
	if st.PostingsScanned == 0 || st.PostingsScanned >= 3000 {
		t.Fatalf("abandoned stream stats = %+v, want partial work", st)
	}
}

// TestStreamYieldsQueryError: a malformed request surfaces as a single
// yielded error, not a panic or silent empty stream.
func TestStreamYieldsQueryError(t *testing.T) {
	rng := rand.New(rand.NewSource(20260735))
	ix, err := seal.Build(shardObjects(50, rng))
	if err != nil {
		t.Fatal(err)
	}
	bad := seal.Request{Region: seal.Rect{MaxX: 1, MaxY: 1}, Tokens: []string{"t1"}} // zero thresholds
	sawErr := false
	for _, err := range ix.Stream(context.Background(), bad) {
		if err == nil {
			t.Fatal("malformed request yielded a match")
		}
		sawErr = true
	}
	if !sawErr {
		t.Fatal("malformed request streamed no error")
	}
	// And a canceled context surfaces the context error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := seal.Request{Region: seal.Rect{MaxX: 50, MaxY: 50}, Tokens: []string{"t1"}, TauR: 0.1, TauT: 0.1}
	var last error
	for _, err := range ix.Stream(ctx, req) {
		last = err
	}
	if !errors.Is(last, context.Canceled) {
		t.Fatalf("canceled stream reported %v, want context.Canceled", last)
	}
}

package seal_test

// Tests for the unified Request/Results API surface: boundary validation of
// ranked requests and options, per-query error reporting in QueryBatch (the
// regression fix for SearchBatch's all-or-nothing failure), and pagination
// semantics under the deterministic orders.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"github.com/sealdb/seal"
	"github.com/sealdb/seal/internal/model"
)

func queryTestObjects(n int) []seal.Object {
	return shardObjects(n, rand.New(rand.NewSource(int64(n))))
}

func queryTestIndex(t *testing.T, n int, opts ...seal.Option) *seal.Index {
	t.Helper()
	ix, err := seal.Build(queryTestObjects(n), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// queryTestOracle is the brute-force reference for queryTestIndex(t, n, ...).
func queryTestOracle(t *testing.T, n int) oracle {
	return newOracle(t, queryTestObjects(n), model.SpaceJaccard, model.TextJaccard)
}

func TestRequestValidation(t *testing.T) {
	ix := queryTestIndex(t, 60)
	region := seal.Rect{MinX: 0, MinY: 0, MaxX: 50, MaxY: 50}
	cases := []struct {
		name string
		req  seal.Request
		want string
	}{
		{"negative K", seal.Request{Region: region, Tokens: []string{"t1"}, K: -3}, "K >= 1"},
		{"alpha above 1", seal.Request{Region: region, Tokens: []string{"t1"}, K: 2, Alpha: 1.5}, "Alpha"},
		{"alpha below 0", seal.Request{Region: region, Tokens: []string{"t1"}, K: 2, Alpha: -0.1}, "Alpha"},
		{"floor above 1", seal.Request{Region: region, Tokens: []string{"t1"}, K: 2, Alpha: 0.5, FloorR: 1.2}, "floors"},
		{"negative floor", seal.Request{Region: region, Tokens: []string{"t1"}, K: 2, Alpha: 0.5, FloorT: -0.2}, "floors"},
		{"zero thresholds", seal.Request{Region: region, Tokens: []string{"t1"}}, "TauR and TauT"},
		{"threshold above 1", seal.Request{Region: region, Tokens: []string{"t1"}, TauR: 0.5, TauT: 1.5}, "TauR and TauT"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ix.Query(context.Background(), c.req); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Query error = %v, want one mentioning %q", err, c.want)
			}
		})
	}

	// A ranked request with K <= 0 must be rejected descriptively instead of
	// misbehaving — a negative K as such, a zero K as the threshold request
	// without thresholds it then is.
	for k, want := range map[int]string{0: "TauR and TauT", -1: "K >= 1"} {
		req := seal.Request{Region: region, Tokens: []string{"t1"}, K: k}
		if _, err := ix.Query(context.Background(), req); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("K=%d request error = %v, want one mentioning %q", k, err, want)
		}
	}

	// Option validation.
	okReq := seal.Request{Region: region, Tokens: []string{"t1"}, TauR: 0.2, TauT: 0.2}
	if _, err := ix.Query(context.Background(), okReq, seal.Limit(-1)); err == nil {
		t.Fatal("negative Limit should fail")
	}
	if _, err := ix.Query(context.Background(), okReq, seal.Offset(-2)); err == nil {
		t.Fatal("negative Offset should fail")
	}
	if _, err := ix.Query(context.Background(), okReq, seal.OrderByScore()); err == nil ||
		!strings.Contains(err.Error(), "ranked") {
		t.Fatal("OrderByScore on a threshold request should fail descriptively")
	}
}

// TestInvalidRequestSentinel: every error a request's own content causes —
// its fields, its options, its order, its region on either query path —
// wraps ErrInvalidRequest through Query, Stream and QueryBatch alike, and a
// region's through Similarity too. A NaN in any range-checked field is one
// such error; each case runs under a short deadline, because a NaN Alpha or
// floor that got past validation would send the top-k descent into a loop
// that never reaches its floors.
func TestInvalidRequestSentinel(t *testing.T) {
	ix := queryTestIndex(t, 60, seal.WithShards(2))
	region := seal.Rect{MinX: 0, MinY: 0, MaxX: 50, MaxY: 50}
	inverted := seal.Rect{MinX: 50, MinY: 50, MaxX: 0, MaxY: 0}
	ok := seal.Request{Region: region, Tokens: []string{"t1"}, TauR: 0.2, TauT: 0.2}
	nan := math.NaN()
	cases := []struct {
		name string
		req  seal.Request
		opts []seal.QueryOption
	}{
		{"tau_r zero", seal.Request{Region: region, Tokens: []string{"t1"}, TauT: 0.2}, nil},
		{"negative K", seal.Request{Region: region, Tokens: []string{"t1"}, K: -1}, nil},
		{"inverted region", seal.Request{Region: inverted, Tokens: []string{"t1"}, TauR: 0.2, TauT: 0.2}, nil},
		{"inverted ranked region", seal.Request{Region: inverted, Tokens: []string{"t1"}, K: 3}, nil},
		{"negative Limit", ok, []seal.QueryOption{seal.Limit(-1)}},
		{"negative Offset", ok, []seal.QueryOption{seal.Offset(-1)}},
		{"timeout without partial", ok, []seal.QueryOption{seal.ShardTimeout(1)}},
		{"score order", ok, []seal.QueryOption{seal.OrderByScore()}},
		{"NaN TauR", seal.Request{Region: region, Tokens: []string{"t1"}, TauR: nan, TauT: 0.2}, nil},
		{"NaN TauT", seal.Request{Region: region, Tokens: []string{"t1"}, TauR: 0.2, TauT: nan}, nil},
		{"NaN Alpha", seal.Request{Region: region, Tokens: []string{"t1"}, K: 2, Alpha: nan}, nil},
		{"NaN FloorR", seal.Request{Region: region, Tokens: []string{"t1"}, K: 2, Alpha: 0.5, FloorR: nan}, nil},
		{"NaN FloorT", seal.Request{Region: region, Tokens: []string{"t1"}, K: 2, Alpha: 0.5, FloorT: nan}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if _, err := ix.Query(ctx, c.req, c.opts...); !errors.Is(err, seal.ErrInvalidRequest) {
				t.Errorf("Query: %v, want ErrInvalidRequest", err)
			}
			var err error
			for _, err = range ix.Stream(ctx, c.req, c.opts...) {
			}
			if !errors.Is(err, seal.ErrInvalidRequest) {
				t.Errorf("Stream: %v, want ErrInvalidRequest", err)
			}
			if br := ix.QueryBatch(ctx, []seal.Request{c.req}, c.opts...); !errors.Is(br[0].Err, seal.ErrInvalidRequest) {
				t.Errorf("QueryBatch: %v, want ErrInvalidRequest", br[0].Err)
			}
		})
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.Query(canceled, ok); err == nil || errors.Is(err, seal.ErrInvalidRequest) {
		t.Errorf("canceled valid query: %v, want the context's error alone", err)
	}
	// Similarity compiles its request through the same boundary.
	if _, _, err := ix.Similarity(seal.Request{Region: inverted, Tokens: []string{"t1"}}, 0); !errors.Is(err, seal.ErrInvalidRequest) {
		t.Errorf("Similarity over an inverted region: %v, want ErrInvalidRequest", err)
	}
}

// TestInvalidRequestTexts pins what a caller reads of an invalid request: the
// root's prefix and the field's own complaint, naming no internal package, on
// the ranked and the threshold path alike.
func TestInvalidRequestTexts(t *testing.T) {
	ix := queryTestIndex(t, 60, seal.WithShards(2))
	region := seal.Rect{MinX: 0, MinY: 0, MaxX: 50, MaxY: 50}
	for _, c := range []struct {
		req  seal.Request
		want string
	}{
		{seal.Request{Region: region, Tokens: []string{"t1"}, K: 2, Alpha: 1.5},
			"seal: invalid request: top-k Alpha 1.5 outside [0, 1]"},
		{seal.Request{Region: region, Tokens: []string{"t1"}, K: -1},
			"seal: invalid request: top-k needs K >= 1, got -1"},
		{seal.Request{Region: region, Tokens: []string{"t1"}, TauT: 0.2},
			"seal: invalid request: similarity thresholds TauR and TauT must lie in (0, 1] (got tauR=0, tauT=0.2)"},
	} {
		_, err := ix.Query(context.Background(), c.req)
		if !errors.Is(err, seal.ErrInvalidRequest) || err.Error() != c.want {
			t.Errorf("Query(%+v): %v, want ErrInvalidRequest reading %q", c.req, err, c.want)
		}
	}
}

// TestQueryAllocs pins what a threshold query with the daemon's options
// (CollectStats, Limit, OrderByID) costs on a warm 1-shard index. The
// resolved options stay on the stack: when each option set a field through a
// pointer, they moved to the heap and the query cost one allocation more.
func TestQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ix := queryTestIndex(t, 400)
	req := seal.Request{
		Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
		Tokens: []string{"t1", "t2"},
		TauR:   0.001,
		TauT:   0.001,
	}
	query := func() {
		res, err := ix.Query(context.Background(), req, seal.CollectStats(), seal.Limit(5), seal.OrderByID())
		if err != nil || len(res.Matches) != 5 {
			t.Fatalf("query: %v, %v", res, err)
		}
	}
	for i := 0; i < 50; i++ {
		query() // fill the shard's searcher pool
	}
	// A collection would empty the pool and bill its refill to the runs.
	gc := debug.SetGCPercent(-1)
	got := testing.AllocsPerRun(100, query)
	debug.SetGCPercent(gc)
	if got > 28 {
		t.Errorf("Query with the daemon's options: %.1f allocs, want at most 28", got)
	}
}

// TestQueryBatchPerQueryErrors is the regression test for the satellite fix:
// one malformed query must cost only its own slot, and every other query's
// completed Results must survive.
func TestQueryBatchPerQueryErrors(t *testing.T) {
	ix := queryTestIndex(t, 300, seal.WithMethod(seal.MethodTokenFilter), seal.WithShards(3))
	oracle := queryTestOracle(t, 300)
	rng := rand.New(rand.NewSource(42))
	queries := shardQueries(10, rng)
	reqs := make([]seal.Request, len(queries))
	for i, q := range queries {
		reqs[i] = q
	}
	reqs[4].TauR = -1 // poison one slot

	out := ix.QueryBatch(context.Background(), reqs)
	if len(out) != len(reqs) {
		t.Fatalf("batch returned %d results for %d requests", len(out), len(reqs))
	}
	for i, r := range out {
		if i == 4 {
			if r.Err == nil || r.Results != nil {
				t.Fatalf("poisoned slot 4 = %+v, want only an error", r)
			}
			if !strings.Contains(r.Err.Error(), "batch query 4") {
				t.Fatalf("poisoned slot error %q does not identify the query", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("slot %d failed: %v (one bad query must not nuke the batch)", i, r.Err)
		}
		requireSameMatches(t, fmt.Sprintf("slot %d", i), r.Results.Matches, oracle.threshold(t, queries[i]))
	}
}

// TestQueryBatchStatsInto: a shared StatsInto pointer must not be written
// by concurrent batch queries (that would race); the implied CollectStats
// still attaches per-query breakdowns.
func TestQueryBatchStatsInto(t *testing.T) {
	ix := queryTestIndex(t, 200, seal.WithMethod(seal.MethodTokenFilter), seal.WithShards(2))
	rng := rand.New(rand.NewSource(44))
	queries := shardQueries(16, rng)
	reqs := make([]seal.Request, len(queries))
	for i, q := range queries {
		reqs[i] = q
	}
	var shared seal.Stats
	out := ix.QueryBatch(context.Background(), reqs, seal.StatsInto(&shared))
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("slot %d: %v", i, r.Err)
		}
		if r.Results.Stats == nil {
			t.Fatalf("slot %d missing its per-query Stats", i)
		}
	}
	if !reflect.DeepEqual(shared, seal.Stats{}) {
		t.Fatalf("shared StatsInto variable was written by the batch: %+v", shared)
	}
}

func TestQueryBatchContextCanceled(t *testing.T) {
	ix := queryTestIndex(t, 100, seal.WithMethod(seal.MethodTokenFilter))
	rng := rand.New(rand.NewSource(43))
	queries := shardQueries(20, rng)
	reqs := make([]seal.Request, len(queries))
	for i, q := range queries {
		reqs[i] = q
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := ix.QueryBatch(ctx, reqs)
	for i, r := range out {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("slot %d = %+v, want context.Canceled for a pre-canceled batch", i, r)
		}
	}
}

// TestQueryPagination: Offset/Limit pages under OrderByID concatenate back
// to the full ID-ordered result.
func TestQueryPagination(t *testing.T) {
	ix := queryTestIndex(t, 400, seal.WithMethod(seal.MethodTokenFilter), seal.WithShards(2))
	req := seal.Request{
		Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
		Tokens: []string{"t1", "t2"},
		TauR:   0.001,
		TauT:   0.001,
	}
	full, err := ix.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Matches) < 10 {
		t.Fatalf("want a dense query, got %d matches", len(full.Matches))
	}
	requireSameMatches(t, "full", full.Matches, queryTestOracle(t, 400).threshold(t, req))
	pageSize := 7
	var paged []seal.Match
	for off := 0; ; off += pageSize {
		res, err := ix.Query(context.Background(), req, seal.OrderByID(), seal.Offset(off), seal.Limit(pageSize))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) == 0 {
			break
		}
		paged = append(paged, res.Matches...)
	}
	if !equalMatches(paged, full.Matches) {
		t.Fatalf("concatenated pages (%d matches) differ from the full result (%d)", len(paged), len(full.Matches))
	}

	// Offset past the end is empty, not an error.
	res, err := ix.Query(context.Background(), req, seal.OrderByID(), seal.Offset(len(full.Matches)+5), seal.Limit(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Fatalf("offset past the end returned %d matches", len(res.Matches))
	}
}

// TestRankedPagination: for ranked requests, Offset/Limit walk the score
// ranking, and OrderByID re-orders only the selected page.
func TestRankedPagination(t *testing.T) {
	ix := queryTestIndex(t, 300, seal.WithMethod(seal.MethodTokenFilter), seal.WithShards(3))
	req := seal.Request{
		Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
		Tokens: []string{"t1", "t2"},
		K:      12,
		Alpha:  0.5,
		FloorR: 0.001,
		FloorT: 0.001,
	}
	full, err := ix.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Matches) < 8 {
		t.Fatalf("want at least 8 ranked matches, got %d", len(full.Matches))
	}
	requireSameMatches(t, "full ranking", full.Matches, queryTestOracle(t, 300).ranked(t, req))
	res, err := ix.Query(context.Background(), req, seal.Offset(2), seal.Limit(4))
	if err != nil {
		t.Fatal(err)
	}
	if !equalMatches(res.Matches, full.Matches[2:6]) {
		t.Fatalf("ranked page = %v, want ranks 2..5 of the full ranking", res.Matches)
	}
	byID, err := ix.Query(context.Background(), req, seal.Offset(2), seal.Limit(4), seal.OrderByID())
	if err != nil {
		t.Fatal(err)
	}
	if !equalMatches(byID.Matches, sortByID(full.Matches[2:6])) {
		t.Fatalf("ranked OrderByID page = %v, want the same ranks ID-sorted", byID.Matches)
	}
}

// TestQueryStats: CollectStats attaches a breakdown, its absence leaves
// Stats nil, and StatsInto fills the caller's variable.
func TestQueryStats(t *testing.T) {
	ix := queryTestIndex(t, 200)
	req := seal.Request{
		Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 60, MaxY: 60},
		Tokens: []string{"t1"},
		TauR:   0.01,
		TauT:   0.01,
	}
	res, err := ix.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != nil {
		t.Fatal("Stats attached without CollectStats")
	}
	var st seal.Stats
	res, err = ix.Query(context.Background(), req, seal.StatsInto(&st))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil || !reflect.DeepEqual(*res.Stats, st) {
		t.Fatalf("StatsInto: Results.Stats = %+v, variable = %+v", res.Stats, st)
	}
	if st.Results != len(res.Matches) {
		t.Fatalf("stats.Results = %d, want %d", st.Results, len(res.Matches))
	}

	// Ranked requests report descent work too, each probe, posting and
	// candidate once however many rounds reach it. A K beyond the index runs
	// the descent down to its floors, and every round's candidates are among
	// the last round's, so its work is exactly req's at those floors.
	var rst seal.Stats
	ranked, err := ix.Query(context.Background(), seal.Request{
		Region: req.Region, Tokens: req.Tokens, K: 1000, Alpha: 0.8, FloorR: req.TauR, FloorT: req.TauT,
	}, seal.StatsInto(&rst), seal.CollectTrace())
	if err != nil {
		t.Fatal(err)
	}
	if rounds := stageCount(ranked.Trace)["filter"]; rounds < 2 {
		t.Fatalf("ranked request descended %d rounds, want several", rounds)
	}
	if rst.Candidates == 0 || rst.Candidates != st.Candidates || rst.PostingsScanned != st.PostingsScanned || rst.ListsProbed != st.ListsProbed {
		t.Fatalf("ranked stats = %+v, want the distinct work of its descent, %+v", rst, st)
	}
}

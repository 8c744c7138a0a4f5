package seal_test

// Differential tests for adaptive planning: an index built with
// WithAdaptivePlanning must answer bit-for-bit identically to every static
// filter family, across shard counts and across every query mode (threshold,
// ranked, streamed, limited). The planner's choices change as its calibration
// warms up — cold-start round-robin, then cost-model picks, then cached
// plans — so every comparison runs over several passes to catch each phase,
// and a concurrent phase drives the planner's atomics under the race
// detector.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/sealdb/seal"
)

// adaptiveStatics are the static filter methods the adaptive planner must
// match exactly. Each is a complete filter over the same verification, so
// any disagreement is a planner bug, not a tolerance question.
var adaptiveStatics = []struct {
	name string
	opts []seal.Option
}{
	{"seal", []seal.Option{seal.WithMethod(seal.MethodSeal), seal.WithMaxLevel(4)}},
	{"token", []seal.Option{seal.WithMethod(seal.MethodTokenFilter)}},
	{"grid", []seal.Option{seal.WithMethod(seal.MethodGridFilter), seal.WithGranularity(64)}},
	{"hybrid", []seal.Option{seal.WithMethod(seal.MethodHybridHash)}},
}

func buildAdaptive(t testing.TB, objects []seal.Object, shards int) *seal.Index {
	t.Helper()
	opts := []seal.Option{
		seal.WithMethod(seal.MethodSeal), seal.WithMaxLevel(4),
		seal.WithAdaptivePlanning(), seal.WithShards(shards),
	}
	ix, err := seal.Build(objects, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func sameMatchSlice(t *testing.T, ctxt string, got, want []seal.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", ctxt, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d = %+v, want %+v", ctxt, i, got[i], want[i])
		}
	}
}

func TestAdaptiveDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	objects := shardObjects(300, rng)
	queries := shardQueries(24, rng)
	ctx := context.Background()

	// Reference answers from every static family, computed once on the
	// monolithic build: static answers are shard-count invariant (pinned by
	// TestShardEquivalence), so one oracle serves every shard count below.
	// The statics must also agree with each other (completeness), so any of
	// them is the oracle; check the agreement, then hold the adaptive engine
	// to it at every shard count, pass and mode.
	type refs struct {
		threshold [][]seal.Match
		ranked    [][]seal.ScoredMatch
	}
	var want refs
	for si, static := range adaptiveStatics {
		ix, err := seal.Build(objects, static.opts...)
		if err != nil {
			t.Fatalf("static %s: %v", static.name, err)
		}
		var r refs
		for qi, q := range queries {
			th, err := ix.Search(q)
			if err != nil {
				t.Fatalf("static %s query %d: %v", static.name, qi, err)
			}
			tq := seal.TopKQuery{Region: q.Region, Tokens: q.Tokens, K: 1 + qi%5, Alpha: 0.5, FloorR: 0.01, FloorT: 0.01}
			rk, err := ix.SearchTopK(tq)
			if err != nil {
				t.Fatalf("static %s topk %d: %v", static.name, qi, err)
			}
			r.threshold = append(r.threshold, append([]seal.Match(nil), th...))
			r.ranked = append(r.ranked, append([]seal.ScoredMatch(nil), rk...))
		}
		if si == 0 {
			want = r
			continue
		}
		for qi := range queries {
			sameMatchSlice(t, static.name+" vs "+adaptiveStatics[0].name, r.threshold[qi], want.threshold[qi])
			if len(r.ranked[qi]) != len(want.ranked[qi]) {
				t.Fatalf("%s ranked: %d results, want %d", static.name, len(r.ranked[qi]), len(want.ranked[qi]))
			}
			for i := range r.ranked[qi] {
				if r.ranked[qi][i] != want.ranked[qi][i] {
					t.Fatalf("%s ranked rank %d: %+v, want %+v", static.name, i, r.ranked[qi][i], want.ranked[qi][i])
				}
			}
		}
	}

	for _, k := range []int{1, 2, 3, 8} {
		adaptive := buildAdaptive(t, objects, k)
		if !adaptive.Stats().Adaptive {
			t.Fatalf("shards=%d: Stats().Adaptive = false on an adaptive build", k)
		}

		// Three passes: cold start, calibrated picks, cached plans. Answers
		// must be identical in every phase and every mode.
		for pass := 0; pass < 3; pass++ {
			for qi, q := range queries {
				got, err := adaptive.Search(q)
				if err != nil {
					t.Fatalf("shards=%d pass %d query %d: %v", k, pass, qi, err)
				}
				sameMatchSlice(t, "threshold", got, want.threshold[qi])

				tq := seal.TopKQuery{Region: q.Region, Tokens: q.Tokens, K: 1 + qi%5, Alpha: 0.5, FloorR: 0.01, FloorT: 0.01}
				rk, err := adaptive.SearchTopK(tq)
				if err != nil {
					t.Fatalf("shards=%d pass %d topk %d: %v", k, pass, qi, err)
				}
				if len(rk) != len(want.ranked[qi]) {
					t.Fatalf("ranked: %d results, want %d", len(rk), len(want.ranked[qi]))
				}
				for i := range rk {
					if rk[i] != want.ranked[qi][i] {
						t.Fatalf("ranked: rank %d = %+v, want %+v", i, rk[i], want.ranked[qi][i])
					}
				}

				var streamed []seal.Match
				for m, err := range adaptive.Stream(ctx, q.Request(), seal.OrderByID()) {
					if err != nil {
						t.Fatalf("shards=%d pass %d stream %d: %v", k, pass, qi, err)
					}
					streamed = append(streamed, m)
				}
				sameMatchSlice(t, "stream", streamed, want.threshold[qi])

				limit := 1 + qi%4
				res, err := adaptive.Query(ctx, q.Request(), seal.Limit(limit), seal.OrderByID())
				if err != nil {
					t.Fatalf("shards=%d pass %d limit %d: %v", k, pass, qi, err)
				}
				prefix := want.threshold[qi]
				if len(prefix) > limit {
					prefix = prefix[:limit]
				}
				sameMatchSlice(t, "limit", res.Matches, prefix)
			}
		}

		// Concurrent phase: hammer the adaptive index from several goroutines
		// so the planner's plan cache, calibration sums, and searcher pools
		// run under contention (and the race detector when enabled). Answers
		// must stay exact regardless of interleaving.
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				order := rand.New(rand.NewSource(int64(seed))).Perm(len(queries))
				for _, qi := range order {
					got, err := adaptive.Search(queries[qi])
					if err != nil {
						errs <- err
						return
					}
					if len(got) != len(want.threshold[qi]) {
						errs <- errMismatch{qi: qi, got: len(got), want: len(want.threshold[qi])}
						return
					}
					for i := range got {
						if got[i] != want.threshold[qi][i] {
							errs <- errMismatch{qi: qi, got: i, want: i}
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("shards=%d concurrent: %v", k, err)
		}
	}
}

type errMismatch struct{ qi, got, want int }

func (e errMismatch) Error() string {
	return fmt.Sprintf("concurrent adaptive answer diverged on query %d (got %d, want %d)", e.qi, e.got, e.want)
}

// TestAdaptivePruning pins the planner's other lever: on a sharded index,
// spatially selective queries must skip shards whose extent cannot reach
// TauR, and Stats must report the skips without any answer changing.
func TestAdaptivePruning(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	objects := shardObjects(300, rng)
	adaptive := buildAdaptive(t, objects, 6)
	static, err := seal.Build(objects, seal.WithMethod(seal.MethodSeal), seal.WithMaxLevel(4), seal.WithShards(6))
	if err != nil {
		t.Fatal(err)
	}

	pruned := 0
	for i := 0; i < 40; i++ {
		// Tight rects with a high spatial threshold: most partitions cannot
		// overlap enough to matter.
		x, y := rng.Float64()*95, rng.Float64()*95
		q := seal.Query{
			Region: seal.Rect{MinX: x, MinY: y, MaxX: x + 3, MaxY: y + 3},
			Tokens: []string{"t1", "t2"},
			TauR:   0.5,
			TauT:   0.1,
		}
		got, st, err := adaptive.SearchWithStats(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := static.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		sameMatchSlice(t, "pruned search", got, want)
		pruned += st.ShardsPruned
		if st.ShardsPruned+st.ShardFanout > 6 {
			t.Fatalf("query %d: pruned %d + fanout %d exceeds 6 shards", i, st.ShardsPruned, st.ShardFanout)
		}
	}
	if pruned == 0 {
		t.Fatal("selective rects at TauR=0.5 on 6 shards pruned nothing")
	}
}

// calibrationLanes reads the planner's calibrated ns-per-posting and
// ns-per-candidate lanes off a traced query's cost tables. The probe is
// itself a Limit(1) query, so reading the lanes must not move them.
func calibrationLanes(t *testing.T, ix *seal.Index, req seal.Request) map[string][2]float64 {
	t.Helper()
	res, err := ix.Query(context.Background(), req, seal.Limit(1), seal.CollectTrace())
	if err != nil {
		t.Fatal(err)
	}
	lanes := make(map[string][2]float64)
	for _, p := range res.Trace.Plans {
		for _, f := range p.Families {
			lanes[f.Family] = [2]float64{f.NsPosting, f.NsCandidate}
		}
	}
	if len(lanes) == 0 {
		t.Fatal("traced adaptive query recorded no plan cost table")
	}
	return lanes
}

// TestTruncatedSearchesDoNotCalibrate: the planner divides a shard search's
// measured time by the family's predicted work for the whole query, so only a
// search that ran to completion is a fair sample. A search cut short by Limit
// — in arrival order, where the shared emission count interrupts every
// shard's scan, or in ID order, where verification stops at Limit successes —
// must leave the calibrated lanes exactly where they were.
func TestTruncatedSearchesDoNotCalibrate(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(20260926))
	objects := shardObjects(1500, rng)
	// Dense on purpose: every shard holds several matches, so Limit(1) cuts
	// every shard's search short.
	dense := seal.Request{
		Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
		Tokens: []string{"t1", "t2", "t3"},
		TauR:   0.0002,
		TauT:   0.0002,
	}
	for _, shards := range []int{1, 3} {
		// A coarse grid family keeps the whole-space query cheap on every lane.
		ix, err := seal.Build(objects, seal.WithMethod(seal.MethodSeal), seal.WithMaxLevel(4),
			seal.WithGranularity(64), seal.WithAdaptivePlanning(), seal.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		// Warm the calibration with complete searches first, so the lanes hold
		// measured values rather than seeds.
		for i := 0; i < 40; i++ {
			res, err := ix.Query(ctx, dense)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Matches) < 10*shards {
				t.Fatalf("shards=%d: want a dense query, got %d matches", shards, len(res.Matches))
			}
		}
		before := calibrationLanes(t, ix, dense)
		for i := 0; i < 300; i++ {
			n := 0
			for _, err := range ix.Stream(ctx, dense, seal.Limit(1)) {
				if err != nil {
					t.Fatal(err)
				}
				n++
			}
			res, err := ix.Query(ctx, dense, seal.OrderByID(), seal.Limit(1))
			if err != nil {
				t.Fatal(err)
			}
			if n != 1 || len(res.Matches) != 1 {
				t.Fatalf("shards=%d: Limit(1) yielded %d streamed, %d ordered matches", shards, n, len(res.Matches))
			}
		}
		after := calibrationLanes(t, ix, dense)
		for family, want := range before {
			if got := after[family]; got != want {
				t.Errorf("shards=%d family %s: (ns/posting, ns/candidate) moved from %v to %v under Limit(1) queries",
					shards, family, want, got)
			}
		}
	}
}

package seal_test

// Trace differential tests: requesting a trace must never change an answer —
// traced and untraced runs are bit-identical across shard counts and
// execution modes (threshold, ranked, streamed, limited) — and the trace
// itself must carry every pipeline stage on one timeline. The pruned-shard
// evidence a trace carries is pinned in prune_test.go.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/sealdb/seal"
)

// stageCount tallies a trace's spans by stage name.
func stageCount(tr *seal.Trace) map[string]int {
	counts := make(map[string]int)
	for _, s := range tr.Spans {
		counts[s.Stage]++
	}
	return counts
}

// requireSameMatches asserts bit-identity between two match slices.
func requireSameMatches(t *testing.T, label string, got, want []seal.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s match %d: %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// requireTraceShape asserts the invariants every trace satisfies: time zero
// anchored at admission, a positive elapsed clock, and every span lying on
// the recorder's timeline.
func requireTraceShape(t *testing.T, label string, tr *seal.Trace, stages ...string) {
	t.Helper()
	if tr == nil {
		t.Fatalf("%s: no trace collected", label)
	}
	if tr.Elapsed <= 0 {
		t.Fatalf("%s: elapsed %v, want > 0", label, tr.Elapsed)
	}
	counts := stageCount(tr)
	for _, stage := range stages {
		if counts[stage] == 0 {
			t.Fatalf("%s: no %q span recorded (spans: %v)", label, stage, counts)
		}
	}
	for i, s := range tr.Spans {
		if s.Start < 0 || s.Duration < 0 {
			t.Fatalf("%s span %d (%s): negative timing start=%v dur=%v", label, i, s.Stage, s.Start, s.Duration)
		}
	}
	if tr.Spans[0].Stage != "admit" || tr.Spans[0].Shard != -1 || tr.Spans[0].Duration <= 0 {
		t.Fatalf("%s: first span %+v, want a query-level admit span with nonzero duration", label, tr.Spans[0])
	}
}

// requireStageTimes asserts that a trace's stage totals equal the same query's
// Stats stage times to the nanosecond: both read the same clocks. A stage with
// no span counts as 0.
func requireStageTimes(t *testing.T, label string, tr *seal.Trace, st *seal.Stats) {
	t.Helper()
	if st == nil {
		t.Fatalf("%s: no stats collected", label)
	}
	totals := tr.StageTotals()
	for stage, want := range map[string]time.Duration{
		"admit": st.AdmitTime, "filter": st.FilterTime, "verify": st.VerifyTime, "merge": st.MergeTime,
	} {
		if got := totals[stage]; got != want {
			t.Fatalf("%s: trace %s total %v, Stats %v", label, stage, got, want)
		}
	}
}

// TestTraceDifferential: across 1/2/3/8 shards and every execution mode, a
// traced query returns exactly the untraced answer, the trace reports the
// stages that mode runs, and its stage totals are the query's Stats times.
func TestTraceDifferential(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(20260808))
	objects := shardObjects(300, rng)
	queries := shardQueries(12, rng)

	for _, shards := range []int{1, 2, 3, 8} {
		ix, err := seal.Build(objects, seal.WithMethod(seal.MethodSeal), seal.WithMaxLevel(8), seal.WithShards(shards))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for qi, q := range queries {
			label := fmt.Sprintf("shards=%d query=%d", shards, qi)
			req := q

			// Threshold, default ID order: the materialized scatter path.
			plain, err := ix.Query(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Trace != nil {
				t.Fatalf("%s: untraced query carried a trace", label)
			}
			traced, err := ix.Query(ctx, req, seal.CollectTrace(), seal.CollectStats())
			if err != nil {
				t.Fatal(err)
			}
			requireSameMatches(t, label+" threshold", traced.Matches, plain.Matches)
			requireTraceShape(t, label+" threshold", traced.Trace, "admit", "filter", "verify", "merge")
			requireStageTimes(t, label+" threshold", traced.Trace, traced.Stats)

			// Limited: the verification-capped ID-ordered path.
			wantLimited := plain.Matches
			if len(wantLimited) > 3 {
				wantLimited = wantLimited[:3]
			}
			limited, err := ix.Query(ctx, req, seal.OrderByID(), seal.Limit(3), seal.CollectTrace(), seal.CollectStats())
			if err != nil {
				t.Fatal(err)
			}
			requireSameMatches(t, label+" limit", limited.Matches, wantLimited)
			requireTraceShape(t, label+" limit", limited.Trace, "admit", "filter", "merge")
			requireStageTimes(t, label+" limit", limited.Trace, limited.Stats)

			// Streamed, arrival order: collect everything, compare as a set
			// (arrival order is unspecified), and take the trace and stats
			// through TraceInto and StatsInto since the iterator has no
			// Results to carry them.
			var streamTrace seal.Trace
			var streamStats seal.Stats
			var streamed []seal.Match
			for m, err := range ix.Stream(ctx, req, seal.TraceInto(&streamTrace), seal.StatsInto(&streamStats)) {
				if err != nil {
					t.Fatal(err)
				}
				streamed = append(streamed, m)
			}
			slices.SortFunc(streamed, func(a, b seal.Match) int { return a.ID - b.ID })
			requireSameMatches(t, label+" stream", streamed, plain.Matches)
			requireTraceShape(t, label+" stream", &streamTrace, "admit", "filter")
			requireStageTimes(t, label+" stream", &streamTrace, &streamStats)

			// Ranked: the top-k descent.
			tq := seal.Request{Region: q.Region, Tokens: q.Tokens, K: 1 + qi%5, Alpha: 0.5, FloorR: 0.01, FloorT: 0.01}
			plainRanked, err := ix.Query(ctx, tq)
			if err != nil {
				t.Fatal(err)
			}
			tracedRanked, err := ix.Query(ctx, tq, seal.CollectTrace(), seal.CollectStats())
			if err != nil {
				t.Fatal(err)
			}
			requireSameMatches(t, label+" ranked", tracedRanked.Matches, plainRanked.Matches)
			requireTraceShape(t, label+" ranked", tracedRanked.Trace, "admit", "merge")
			requireStageTimes(t, label+" ranked", tracedRanked.Trace, tracedRanked.Stats)

			// StageTotals mirrors the spans exactly.
			totals := traced.Trace.StageTotals()
			for _, s := range traced.Trace.Spans {
				if totals[s.Stage] < s.Duration {
					t.Fatalf("%s: stage total %v below one of its spans (%v)", label, totals[s.Stage], s.Duration)
				}
			}
		}
	}
}

// TestTraceInto: the option fills the caller's Trace and implies collection;
// batch queries deliver per-query traces but never write the shared pointer.
func TestTraceInto(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	ix, err := seal.Build(shardObjects(120, rng), seal.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	q := shardQueries(1, rng)[0]

	var tr seal.Trace
	res, err := ix.Query(ctx, q, seal.TraceInto(&tr))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || len(tr.Spans) == 0 {
		t.Fatal("TraceInto did not imply CollectTrace or did not fill the target")
	}
	if len(tr.Spans) != len(res.Trace.Spans) || tr.Elapsed != res.Trace.Elapsed {
		t.Fatal("TraceInto target disagrees with Results.Trace")
	}

	var shared seal.Trace
	reqs := []seal.Request{q, q}
	for i, br := range ix.QueryBatch(ctx, reqs, seal.TraceInto(&shared)) {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
		if br.Results.Trace == nil || len(br.Results.Trace.Spans) == 0 {
			t.Fatalf("batch query %d missing its own trace", i)
		}
	}
	if shared.Spans != nil {
		t.Fatal("QueryBatch wrote the shared TraceInto pointer (a data race between queries)")
	}
}

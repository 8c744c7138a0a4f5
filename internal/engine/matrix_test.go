package engine

// The shape × fault matrix: every sink over the shard-execution core, under
// every shard fault the core isolates, strict and partial, on one and four
// shards, traced and untraced, against a brute-force oracle. One contract
// everywhere: the exact answer minus the failed shards' objects or the
// sentinel error, the realized Shards/ShardsPruned/ShardErrors counts, and no
// goroutine left behind.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/faultfs"
	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/trace"
)

// matrixQuery keeps the uncompiled form: ranked rows need region and terms.
type matrixQuery struct {
	region     geo.Rect
	terms      []string
	tauR, tauT float64
}

func (mq matrixQuery) compile(t *testing.T, ds *model.Dataset) *model.Query {
	t.Helper()
	q, err := ds.NewQuery(mq.region, mq.terms, mq.tauR, mq.tauT)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// matrixFault is one column of the matrix.
type matrixFault struct {
	name      string
	selective bool                               // runs the queries that prune shards
	arm       func(e *Engine, victim int) func() // injects the fault, returns its undo
	timeout   time.Duration                      // Partial.ShardTimeout for the row
	canceled  bool                               // the row runs under a pre-canceled ctx
	// fails reports whether the victim shard is lost to the fault, and strict
	// recognizes the error a strict query must then fail with.
	fails  bool
	strict func(error) bool
}

var matrixFaults = []matrixFault{
	{name: "healthy"},
	{name: "quarantined", fails: true,
		arm: func(e *Engine, v int) func() {
			e.shards[v].down = errors.New("test: corrupt segment")
			return func() { e.shards[v].down = nil }
		},
		strict: func(err error) bool { return errors.Is(err, ErrShardQuarantined) }},
	{name: "panic", fails: true,
		arm: func(_ *Engine, v int) func() {
			faultfs.Install((&faultfs.Injector{}).PanicShard(v, "injected shard bug"))
			return faultfs.Uninstall
		},
		strict: func(err error) bool { return err != nil && strings.Contains(err.Error(), "panicked") }},
	{name: "slow", fails: true, timeout: 4 * time.Millisecond,
		arm: func(_ *Engine, v int) func() {
			faultfs.Install((&faultfs.Injector{}).DelayShard(v, 25*time.Millisecond))
			return faultfs.Uninstall
		},
		strict: func(err error) bool { return errors.Is(err, errShardTimeout) }},
	{name: "pruned", selective: true},
	{name: "canceled", canceled: true,
		strict: func(err error) bool { return errors.Is(err, context.Canceled) }},
}

// matrixSink is one row group: how the engine is asked.
type matrixSink struct {
	name    string
	stream  bool
	ranked  bool
	limited bool // reruns under several limits; a ranked sink's limit is its K
}

var matrixSinks = []matrixSink{
	{name: "collect"},
	{name: "capped/limit", limited: true},
	{name: "stream", stream: true},
	{name: "stream/limit", stream: true, limited: true},
	{name: "topk", ranked: true},
	{name: "topk/k", ranked: true, limited: true},
}

// settleGoroutines waits for the live goroutine count to return to baseline:
// abandoned stragglers exit on their own shortly after their query returned.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// thresholdOracle scans ds for q's exact ID-ordered answer, skipping lost.
func thresholdOracle(ds *model.Dataset, q *model.Query, lost map[model.ObjectID]bool) []core.Match {
	var out []core.Match
	for id := model.ObjectID(0); int(id) < ds.Len(); id++ {
		if !lost[id] && ds.Matches(q, id) {
			out = append(out, core.Match{ID: id, SimR: ds.SimR(q, id), SimT: ds.SimT(q, id)})
		}
	}
	return out
}

// rankedOracle ranks every object clearing the floors by combined score
// (descending, ties by ID) and keeps the top k.
func rankedOracle(t *testing.T, ds *model.Dataset, mq matrixQuery, o core.TopKOptions, lost map[model.ObjectID]bool) []core.ScoredMatch {
	t.Helper()
	floors, err := ds.NewQuery(mq.region, mq.terms, o.FloorR, o.FloorT)
	if err != nil {
		t.Fatal(err)
	}
	var out []core.ScoredMatch
	for _, m := range thresholdOracle(ds, floors, lost) {
		out = append(out, core.ScoredMatch{ID: m.ID, SimR: m.SimR, SimT: m.SimT, Score: o.Alpha*m.SimR + (1-o.Alpha)*m.SimT})
	}
	slices.SortFunc(out, func(a, b core.ScoredMatch) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return int(a.ID) - int(b.ID)
	})
	if len(out) > o.K {
		out = out[:o.K]
	}
	return out
}

func TestShapeFaultMatrix(t *testing.T) {
	ds := testDataset(t, 300, 31)
	broad := []matrixQuery{
		{geo.Rect{MinX: 0, MinY: 0, MaxX: 95, MaxY: 95}, []string{"t3"}, 0.001, 0.001},
		{geo.Rect{MinX: 10, MinY: 5, MaxX: 90, MaxY: 100}, []string{"t7", "t11"}, 0.0005, 0.01},
		{geo.Rect{MinX: 30, MinY: 30, MaxX: 70, MaxY: 70}, []string{"t1", "t2", "t19"}, 0.002, 0.002},
	}
	baseline := runtime.NumGoroutine()
	for _, shards := range []int{1, 4} {
		e := scanEngine(t, ds, shards)
		if e.Shards() != shards {
			t.Fatalf("built %d shards, want %d", e.Shards(), shards)
		}
		// Pruning needs selective queries: on four shards one object's own
		// region at a high τR leaves the far shards out of reach; a single
		// shard is only out of reach of a region dwarfing its extent.
		selective := []matrixQuery{
			{ds.Region(17), []string{"t3", "t7"}, 0.3, 0.001},
			{ds.Region(120), []string{"t1"}, 0.4, 0.001},
		}
		if shards == 1 {
			selective = []matrixQuery{{geo.Rect{MinX: -2000, MinY: -2000, MaxX: 2000, MaxY: 2000}, []string{"t3"}, 0.5, 0.001}}
		}
		for _, f := range matrixFaults {
			queries := broad
			if f.selective {
				queries = selective
			}
			if f.timeout > 0 {
				queries = queries[:2] // every slow row sleeps through the injected delay
			}
			victim := shards - 1
			for _, allow := range []bool{false, true} {
				for _, traced := range []bool{false, true} {
					for _, sink := range matrixSinks {
						name := fmt.Sprintf("shards=%d/%s/allow=%v/traced=%v/%s", shards, f.name, allow, traced, sink.name)
						t.Run(name, func(t *testing.T) {
							if f.arm != nil {
								defer f.arm(e, victim)()
							}
							for qi, mq := range queries {
								matrixRow(t, fmt.Sprintf("query %d", qi), e, ds, mq, f, sink, victim, allow, traced)
							}
						})
					}
				}
			}
			settleGoroutines(t, baseline)
		}
	}
}

// matrixRow runs one query through one cell and checks the contract.
func matrixRow(t *testing.T, label string, e *Engine, ds *model.Dataset, mq matrixQuery, f matrixFault, sink matrixSink, victim int, allow, traced bool) {
	t.Helper()
	q := mq.compile(t, ds)
	ctx := context.Background()
	if f.canceled {
		c, cancel := context.WithCancel(ctx)
		cancel()
		ctx = c
	}
	// What the fault costs: the victim's objects, when a partial query drops it.
	var lost map[model.ObjectID]bool
	wantErrs := 0
	if f.fails {
		wantErrs = 1
		lost = make(map[model.ObjectID]bool)
		for id := model.ObjectID(0); int(id) < ds.Len(); id++ {
			if g := e.shards[victim].globalIDs; g == nil || slices.Contains(g, id) {
				lost[id] = true
			}
		}
	}
	topk := core.TopKOptions{K: 5, Alpha: 0.5, FloorR: 0.001, FloorT: 0.001}
	pruneR := mq.tauR
	if sink.ranked {
		pruneR = topk.FloorR
	}
	wantPruned := 0
	for _, s := range e.shards {
		if _, pruned := s.pruneBound(mq.region, pruneR); pruned && s.down == nil {
			wantPruned++
		}
	}
	if f.selective && !sink.ranked && wantPruned == 0 {
		t.Fatalf("%s: the selective query prunes no shard; the pruned column is not exercised", label)
	}
	full, minus := thresholdOracle(ds, q, nil), thresholdOracle(ds, q, lost)

	limits := []int{0}
	if sink.limited {
		n := len(full)
		if sink.ranked {
			every := topk
			every.K = ds.Len()
			n = len(rankedOracle(t, ds, mq, every, nil))
		}
		limits = []int{1, 3, n, n + 10}
	}
	for _, limit := range limits {
		if sink.limited && limit == 0 {
			continue // an empty answer has no full-length limit to try
		}
		label := fmt.Sprintf("%s limit=%d", label, limit)
		topk := topk
		var opt Options
		if sink.ranked && limit > 0 {
			topk.K = limit
		} else {
			opt.Limit = limit
		}
		opt.Partial = Partial{Allow: allow, ShardTimeout: f.timeout}
		if traced {
			opt.Trace = trace.New()
		}

		var got []core.Match
		var ranked []core.ScoredMatch
		var st core.SearchStats
		var err error
		switch {
		case sink.ranked:
			ranked, st, err = e.TopK(ctx, mq.region, mq.terms, topk, opt)
		case sink.stream:
			ms := e.Stream(ctx, q, opt)
			got = drain(ms)
			st, err = ms.Stats(), ms.Err()
			slices.SortFunc(got, func(a, b core.Match) int { return int(a.ID) - int(b.ID) })
		default:
			got, st, err = e.Search(ctx, q, opt)
		}

		// Strict queries, and any query whose caller gave up, fail with the
		// sentinel; they never pass a partial answer off as complete.
		if f.canceled || (f.fails && !allow) {
			if sink.stream && limit > 0 && err == nil && len(got) == limit && !f.canceled &&
				!slices.ContainsFunc(got, func(m core.Match) bool { return !slices.Contains(full, m) }) {
				continue // the limit was met, correctly, before the faulty shard was heard from
			}
			if err == nil || !f.strict(err) {
				t.Fatalf("%s: err = %v, want the %s sentinel", label, err, f.name)
			}
			if !sink.stream && (got != nil || ranked != nil) {
				t.Fatalf("%s: a failed query returned matches", label)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}

		// A stream cannot take back what a shard emitted before it was dropped
		// late, and a late shard may have tightened the top-k tracker: those
		// two cells promise correct entries, not exact-minus-the-shard.
		bestEffort := f.timeout > 0 && (sink.stream || sink.ranked)
		switch {
		case sink.ranked:
			want := rankedOracle(t, ds, mq, topk, lost)
			if bestEffort {
				for _, m := range ranked {
					if lost[m.ID] {
						t.Fatalf("%s: ranking holds object %d of the dropped shard", label, m.ID)
					}
				}
			} else if !slices.Equal(ranked, want) {
				t.Fatalf("%s: ranking %+v, want %+v", label, ranked, want)
			}
		case sink.stream && limit > 0:
			atLeast, atMost := min(limit, len(minus)), min(limit, len(full))
			if len(got) < atLeast || len(got) > atMost {
				t.Fatalf("%s: %d matches, want %d..%d", label, len(got), atLeast, atMost)
			}
			for i, m := range got {
				if (i > 0 && got[i-1].ID == m.ID) || !slices.Contains(full, m) || (lost[m.ID] && !bestEffort) {
					t.Fatalf("%s: match %+v is duplicated, wrong, or from the dropped shard", label, m)
				}
			}
		case bestEffort:
			for _, m := range minus {
				if !slices.Contains(got, m) {
					t.Fatalf("%s: surviving match %+v missing", label, m)
				}
			}
			for _, m := range got {
				if !slices.Contains(full, m) {
					t.Fatalf("%s: wrong match %+v", label, m)
				}
			}
		default:
			want := minus
			if limit > 0 && len(want) > limit {
				want = want[:limit] // the exact prefix of the ID-ordered answer
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: %d matches %+v, want %d %+v", label, len(got), got, len(want), want)
			}
		}
		answered := len(got) + len(ranked)
		if st.Results != answered && !bestEffort {
			t.Fatalf("%s: stats.Results = %d, answer has %d", label, st.Results, answered)
		}

		// The realized fan-out. A limited stream may satisfy its limit before
		// every shard started (or failed), so it only bounds the counts.
		wantShards := len(e.shards) - wantPruned - wantErrs
		if sink.stream && limit > 0 {
			if st.Shards > wantShards || st.ShardErrors > wantErrs || st.ShardsPruned != wantPruned {
				t.Fatalf("%s: fan-out %d/pruned %d/errors %d exceeds %d/%d/%d", label, st.Shards, st.ShardsPruned, st.ShardErrors, wantShards, wantPruned, wantErrs)
			}
		} else if st.Shards != wantShards || st.ShardsPruned != wantPruned || st.ShardErrors != wantErrs {
			t.Fatalf("%s: fan-out %d/pruned %d/errors %d, want %d/%d/%d", label, st.Shards, st.ShardsPruned, st.ShardErrors, wantShards, wantPruned, wantErrs)
		}
		if f.name == "healthy" && !sink.ranked && limit == 0 {
			// The scan filter visits every object, on however many shards, and
			// an unbounded stream does exactly the work of a search.
			if st.Candidates != ds.Len() || st.PostingsScanned != ds.Len() {
				t.Fatalf("%s: %d candidates, %d postings over a %d-object scan", label, st.Candidates, st.PostingsScanned, ds.Len())
			}
		}
		if traced {
			spans, pruned, _ := opt.Trace.Snapshot()
			if len(pruned) != st.ShardsPruned {
				t.Fatalf("%s: trace lists %d pruned shards, stats %d", label, len(pruned), st.ShardsPruned)
			}
			merged := slices.ContainsFunc(spans, func(s trace.Span) bool { return s.Stage == trace.StageMerge })
			if merged == sink.stream {
				t.Fatalf("%s: merge span recorded = %v", label, merged)
			}
		}
	}
}

package engine

// The shape × fault matrix: every sink over the shard-execution core, under
// every shard fault the core isolates, strict and partial, on one and four
// shards — and on four shards with one left live, which runs inline on the
// caller's goroutine — traced and untraced, against a brute-force oracle. One contract
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
	// Regions inside shard 1's extent and clear of the other three, so every
	// sink (a ranked one prunes at its 0.001 floor) searches shard 1 alone.
	lone := []matrixQuery{
		{geo.Rect{MinX: 63, MinY: 1.4, MaxX: 106, MaxY: 49}, []string{"t3"}, 0.001, 0.001},
		{geo.Rect{MinX: 70, MinY: 10, MaxX: 100, MaxY: 40}, []string{"t7", "t11"}, 0.0005, 0.01},
	}
	baseline := runtime.NumGoroutine()
	for _, layout := range []struct {
		name   string
		shards int
		lone   bool // every query leaves one shard live, the victim
	}{{"shards=1", 1, false}, {"shards=4", 4, false}, {"shards=4/lone", 4, true}} {
		shards := layout.shards
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
		victim := shards - 1
		if layout.lone {
			selective, victim = lone, loneShard(t, e, ds, lone)
		}
		for _, f := range matrixFaults {
			queries := broad
			if f.selective || layout.lone {
				queries = selective
			}
			if f.timeout > 0 {
				queries = queries[:2] // every slow row sleeps through the injected delay
			}
			for _, allow := range []bool{false, true} {
				for _, traced := range []bool{false, true} {
					for _, sink := range matrixSinks {
						name := fmt.Sprintf("%s/%s/allow=%v/traced=%v/%s", layout.name, f.name, allow, traced, sink.name)
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

// loneShard returns the one shard every query in qs leaves live, whether it
// prunes at its own τR or at a ranked sink's floor, and checks that each
// query has matches there.
func loneShard(t *testing.T, e *Engine, ds *model.Dataset, qs []matrixQuery) int {
	t.Helper()
	lone := -1
	for qi, mq := range qs {
		for _, tauR := range []float64{mq.tauR, 0.001} {
			var live []int
			for i, s := range e.shards {
				if _, pruned := s.pruneBound(mq.region, tauR); !pruned {
					live = append(live, i)
				}
			}
			if len(live) != 1 || (lone >= 0 && live[0] != lone) {
				t.Fatalf("lone query %d at τR %v leaves shards %v live, want one, the same for every query", qi, tauR, live)
			}
			lone = live[0]
		}
		if len(thresholdOracle(ds, mq.compile(t, ds), nil)) == 0 {
			t.Fatalf("lone query %d has no matches", qi)
		}
	}
	return lone
}

// streamLoss is the most of full that a stream reporting drops dropped
// shards can have missed: the matches of the victim and of the drops−1 other
// shards holding the most (exact for one drop). A shard that was not dropped
// either ran to completion or never started because the limit was met.
func streamLoss(e *Engine, full []core.Match, victim, drops int) int {
	if drops == 0 {
		return 0
	}
	held := make([]int, len(e.shards))
	for i, s := range e.shards {
		for row := model.ObjectID(0); int(row) < s.ds.Len(); row++ {
			if slices.ContainsFunc(full, func(m core.Match) bool { return m.ID == s.ds.ID(row) }) {
				held[i]++
			}
		}
	}
	loss := held[victim]
	others := slices.Delete(held, victim, victim+1)
	slices.Sort(others)
	for _, n := range others[max(0, len(others)-(drops-1)):] {
		loss += n
	}
	return loss
}

// dropLosses lists, for each set of drops shards a query may have dropped,
// the objects that set takes from its answer: the victim's, with those of
// drops−1 of others, the other shards the query left live. At drops 0 (a
// stream whose limit was met before the victim ran) the one set is the
// victim alone, whose faults strike before it emits anything. No set holds
// drops shards when drops exceeds them.
func dropLosses(e *Engine, victim, drops int, others []int) []map[model.ObjectID]bool {
	drops = max(drops, 1)
	var losses []map[model.ObjectID]bool
	var pick func(from int, set []int)
	pick = func(from int, set []int) {
		if len(set) == drops {
			lost := make(map[model.ObjectID]bool)
			for _, i := range set {
				s := e.shards[i].ds
				for row := model.ObjectID(0); int(row) < s.Len(); row++ {
					lost[s.ID(row)] = true
				}
			}
			losses = append(losses, lost)
			return
		}
		for k := from; k < len(others); k++ {
			pick(k+1, append(set, others[k]))
		}
	}
	pick(0, []int{victim})
	return losses
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
	wantErrs := 0
	if f.fails {
		wantErrs = 1 // the victim, when a partial query drops it
	}
	topk := core.TopKOptions{K: 5, Alpha: 0.5, FloorR: 0.001, FloorT: 0.001}
	pruneR := mq.tauR
	if sink.ranked {
		pruneR = topk.FloorR
	}
	wantPruned, scanned := 0, 0 // scanned: the objects of the shards left live
	var others []int            // the live shards besides the victim
	for i, s := range e.shards {
		switch _, pruned := s.pruneBound(mq.region, pruneR); {
		case s.down != nil:
		case pruned:
			wantPruned++
		default:
			scanned += s.ds.Len()
			if i != victim {
				others = append(others, i)
			}
		}
	}
	if f.selective && !sink.ranked && wantPruned == 0 {
		t.Fatalf("%s: the selective query prunes no shard; the pruned column is not exercised", label)
	}
	full := thresholdOracle(ds, q, nil)

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
			floors := matrixQuery{mq.region, mq.terms, topk.FloorR, topk.FloorT}.compile(t, ds)
			ranked, st, err = e.TopK(ctx, floors, topk, opt)
		case sink.stream:
			got, st, err = drain(e, ctx, q, opt)
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

		// The objects the query may have lost: those of the shards it reports
		// dropped. The victim is one of them; under a ShardTimeout a healthy
		// shard that also overran the deadline is dropped like it, and the
		// query says how many shards it dropped, not which. So every row's
		// expected answer must hold for one set of that many live shards
		// that includes the victim.
		losses := dropLosses(e, victim, st.ShardErrors, others)
		if !f.fails {
			losses = []map[model.ObjectID]bool{nil}
		}
		someLoss := func(ok func(lost map[model.ObjectID]bool) bool) bool { return slices.ContainsFunc(losses, ok) }

		// A stream cannot take back what a shard emitted before it was dropped
		// late, and a late shard may have tightened the top-k tracker: those
		// two cells promise correct entries, not exact-minus-the-shards.
		bestEffort := f.timeout > 0 && (sink.stream || sink.ranked)
		switch {
		case sink.ranked && bestEffort:
			every := topk
			every.K = ds.Len()
			all := rankedOracle(t, ds, mq, every, nil)
			for i, m := range ranked {
				if slices.ContainsFunc(ranked[:i], func(p core.ScoredMatch) bool { return p.ID == m.ID }) || !slices.Contains(all, m) {
					t.Fatalf("%s: ranked entry %+v is duplicated or wrong", label, m)
				}
			}
			if !someLoss(func(lost map[model.ObjectID]bool) bool {
				return !slices.ContainsFunc(ranked, func(m core.ScoredMatch) bool { return lost[m.ID] })
			}) {
				t.Fatalf("%s: ranking %+v holds an object of a shard it reports dropped (%d drops)", label, ranked, st.ShardErrors)
			}
		case sink.ranked:
			if !someLoss(func(lost map[model.ObjectID]bool) bool {
				return slices.Equal(ranked, rankedOracle(t, ds, mq, topk, lost))
			}) {
				t.Fatalf("%s: ranking %+v, want %+v less the shards it reports dropped (%d)", label, ranked, rankedOracle(t, ds, mq, topk, nil), st.ShardErrors)
			}
		case sink.stream && limit > 0:
			atLeast, atMost := min(limit, len(full)-streamLoss(e, full, victim, st.ShardErrors)), min(limit, len(full))
			if len(got) < atLeast || len(got) > atMost {
				t.Fatalf("%s: %d matches, want %d..%d", label, len(got), atLeast, atMost)
			}
			for i, m := range got {
				if (i > 0 && got[i-1].ID == m.ID) || !slices.Contains(full, m) {
					t.Fatalf("%s: match %+v is duplicated or wrong", label, m)
				}
			}
			if !bestEffort && !someLoss(func(lost map[model.ObjectID]bool) bool {
				return !slices.ContainsFunc(got, func(m core.Match) bool { return lost[m.ID] })
			}) {
				t.Fatalf("%s: matches %+v hold an object of a shard the stream reports dropped", label, got)
			}
		case bestEffort:
			for _, m := range got {
				if !slices.Contains(full, m) {
					t.Fatalf("%s: wrong match %+v", label, m)
				}
			}
			if !someLoss(func(lost map[model.ObjectID]bool) bool {
				return !slices.ContainsFunc(thresholdOracle(ds, q, lost), func(m core.Match) bool { return !slices.Contains(got, m) })
			}) {
				t.Fatalf("%s: %d matches miss a match of a shard the stream does not report dropped (%d drops)", label, len(got), st.ShardErrors)
			}
		default:
			if !someLoss(func(lost map[model.ObjectID]bool) bool {
				want := thresholdOracle(ds, q, lost)
				if limit > 0 && len(want) > limit {
					want = want[:limit] // the exact prefix of the ID-ordered answer
				}
				return slices.Equal(got, want)
			}) {
				t.Fatalf("%s: %d matches %+v, want the exact answer less the shards it reports dropped (%d)", label, len(got), got, st.ShardErrors)
			}
		}
		answered := len(got) + len(ranked)
		if st.Results != answered && !bestEffort {
			t.Fatalf("%s: stats.Results = %d, answer has %d", label, st.Results, answered)
		}

		// The realized fan-out. A limited stream may satisfy its limit before
		// every shard started (or failed), so it only bounds the counts. Under
		// a ShardTimeout a healthy shard that also overran the deadline is
		// dropped like the victim, so those rows count the drops reported.
		wantErrs := wantErrs
		if f.timeout > 0 && st.ShardErrors > wantErrs && st.ShardErrors <= len(e.shards)-wantPruned {
			wantErrs = st.ShardErrors
		}
		wantShards := len(e.shards) - wantPruned - wantErrs
		if sink.stream && limit > 0 {
			if st.Shards > wantShards || st.ShardErrors > wantErrs || st.ShardsPruned != wantPruned {
				t.Fatalf("%s: fan-out %d/pruned %d/errors %d exceeds %d/%d/%d", label, st.Shards, st.ShardsPruned, st.ShardErrors, wantShards, wantPruned, wantErrs)
			}
		} else if st.Shards != wantShards || st.ShardsPruned != wantPruned || st.ShardErrors != wantErrs {
			t.Fatalf("%s: fan-out %d/pruned %d/errors %d, want %d/%d/%d", label, st.Shards, st.ShardsPruned, st.ShardErrors, wantShards, wantPruned, wantErrs)
		}
		if f.name == "healthy" && !sink.ranked && limit == 0 {
			// The scan filter visits every object of every live shard, and an
			// unbounded stream does exactly the work of a search.
			if st.Candidates != scanned || st.PostingsScanned != scanned {
				t.Fatalf("%s: %d candidates, %d postings over a %d-object scan", label, st.Candidates, st.PostingsScanned, scanned)
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

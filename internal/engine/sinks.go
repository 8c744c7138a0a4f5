package engine

// The three sinks over the shard-execution core (exec.go), one per entry
// point and one searcher call each: Search collects every match or — under a
// Limit — the ID-ordered prefix (core.Searcher.Search), Stream pushes matches
// through a bounded channel as shards prove them (SearchStream), TopK merges
// cooperative per-shard descents into one ranking (TopK). Every searcher call
// takes the shard's stop hook.

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/model"
)

// Search answers a compiled threshold query: every shard that can answer
// searches with a pooled searcher, and per-shard stats merge into one report.
// Matches return sorted by object ID, exactly as a monolithic search would. With opt.Limit only the
// Limit matches with the smallest IDs return — the exact prefix of the full
// answer: a shard still collects its candidates fully (ordering needs the
// whole candidate set) but sweeps them in ascending ID order and stops
// after Limit local matches, since no shard can contribute more than that to
// the global prefix. Under Partial.Allow a dropped shard's matches are
// missing from the answer; the remaining entries are still exact.
//
// The query must be compiled against the engine's root dataset (shards share
// its vocabulary and weights, so the compiled form is valid on every shard).
//
// Cancellation is prompt: if ctx expires mid-scatter, Search returns
// ctx.Err() without waiting for in-flight shard searches, which finish in the
// background and are discarded; a lone live shard, searched on the caller's
// goroutine, polls ctx and returns at its next poll.
func (e *Engine) Search(ctx context.Context, q *model.Query, opt Options) ([]core.Match, core.SearchStats, error) {
	return SearchAs(e, ctx, q, opt, func(m core.Match) core.Match { return m })
}

// SearchAs is Search answering in the caller's match type: the per-shard
// runs merge once, straight into a []M sized to the answer, each entry
// converted by as. An answer therefore costs one shard-run entry and one M
// per match, never an intermediate merged copy.
func SearchAs[M any](e *Engine, ctx context.Context, q *model.Query, opt Options, as func(core.Match) M) ([]M, core.SearchStats, error) {
	p := &pass{
		e: e, ctx: ctx, opt: opt, q: q, region: q.Region, tauR: q.TauR,
		matches: make([][]core.Match, len(e.shards)),
	}
	// An uncapped search under a ctx that cannot expire has nothing to poll
	// for; runShard gives one under a ShardTimeout a hook of its own.
	if ctx.Done() != nil || opt.Limit > 0 {
		p.stop = p.stopped
	}
	st, err := p.run((*pass).orderedShard)
	if err != nil {
		return nil, core.SearchStats{}, err
	}
	mergeStart := time.Now()
	merged := mergeRuns(p.matches, opt.Limit, byID, as)
	// Per-shard Results count local emissions; the query's answer is the
	// truncated merge.
	st.Results = len(merged)
	st.MergeTime = time.Since(mergeStart)
	traceMerge(opt.Trace, mergeStart, st.MergeTime, len(merged))
	return merged, st, nil
}

// orderedShard collects one shard's matches in ascending object ID order:
// under a Limit only its Limit smallest-ID ones, the most one shard can add
// to the answer's prefix.
func (p *pass) orderedShard(i int, s *shard, sr *core.Searcher, stop func() bool) (core.SearchStats, error) {
	found, st := sr.Search(p.q, stop, p.opt.Limit)
	// Copy out of the searcher's reused buffer before it returns to the pool.
	p.matches[i] = slices.Clone(found)
	return st, nil
}

// byID is the order of threshold runs: ascending object ID.
func byID(a, b core.Match) bool { return a.ID < b.ID }

// byScore is the order of rankings: descending score, ties by ascending
// object ID — the exact order of the unsharded ranking.
func byScore(a, b core.ScoredMatch) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// mergeRuns unions the per-shard runs — each sorted by before, the shards'
// object sets disjoint — into one answer in that order of at most limit
// entries (0: all of them). It is a k-way merge whose heap is the run table
// itself: the non-empty runs, ordered by their first entry, each popped entry
// advancing its run in place. The table is consumed.
func mergeRuns[E, M any](runs [][]E, limit int, before func(a, b E) bool, as func(E) M) []M {
	heads, total := runs[:0], 0
	for _, r := range runs {
		if len(r) > 0 {
			heads = append(heads, r)
			total += len(r)
		}
	}
	if limit > 0 && total > limit {
		total = limit
	}
	out := make([]M, total)
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftRun(heads, i, before)
	}
	i := 0
	for ; len(heads) > 1 && i < total; i++ {
		r := heads[0]
		out[i] = as(r[0])
		if len(r) > 1 {
			heads[0] = r[1:]
		} else {
			last := len(heads) - 1
			heads[0], heads = heads[last], heads[:last]
		}
		siftRun(heads, 0, before)
	}
	if i < total {
		// One run is left: the rest of the answer is its prefix.
		for _, m := range heads[0][:total-i] {
			out[i] = as(m)
			i++
		}
	}
	return out
}

// loneRun returns the one non-empty run of runs, and whether there is
// exactly one.
func loneRun[E any](runs [][]E) ([]E, bool) {
	var lone []E
	n := 0
	for _, r := range runs {
		if len(r) > 0 {
			lone, n = r, n+1
		}
	}
	return lone, n == 1
}

// siftRun restores the heap order of heads (by each run's first entry)
// below position i.
func siftRun[E any](heads [][]E, i int, before func(a, b E) bool) {
	for {
		least, l := i, 2*i+1
		if l < len(heads) && before(heads[l][0], heads[least][0]) {
			least = l
		}
		if r := l + 1; r < len(heads) && before(heads[r][0], heads[least][0]) {
			least = r
		}
		if least == i {
			return
		}
		heads[i], heads[least] = heads[least], heads[i]
		i = least
	}
}

// MatchStream is a live streamed search. Consume with Next until it reports
// false; Err and Stats become valid once the stream ends (they block until
// the producers have exited). A consumer abandoning the stream early must
// call Close, or producer goroutines stay parked on the emission channel —
// Close is idempotent and safe after full consumption too.
type MatchStream struct {
	ch    chan core.Match
	pass  *pass
	done  chan struct{} // closed after stats/err are final
	err   error
	stats core.SearchStats
}

// Next returns the next verified match, or ok=false when the stream is
// exhausted (limit reached, shards drained, context expired, or Closed).
func (s *MatchStream) Next() (m core.Match, ok bool) {
	m, ok = <-s.ch
	return m, ok
}

// Err reports why the stream ended: nil for a complete (or limit-satisfied,
// or Closed) stream, the context's error if it expired mid-search, a shard's
// failure on a strict stream.
func (s *MatchStream) Err() error {
	<-s.done
	return s.err
}

// Stats reports the work actually performed, summed over shards. An
// early-terminated stream reports the reduced counts.
func (s *MatchStream) Stats() core.SearchStats {
	<-s.done
	return s.stats
}

// Close abandons the stream: outstanding shard searches are interrupted and
// their unread matches discarded.
func (s *MatchStream) Close() {
	s.pass.quit.Store(true)
	for range s.ch { // drain so parked producers get to poll quit and exit
	}
}

// streamBuffer is Stream's emission channel capacity: how many matches the
// producers run ahead of the consumer before they park — enough that a
// consumer keeping pace rarely stalls a shard, few enough that an abandoned
// stream has verified little it discards.
const streamBuffer = 64

// Stream answers a compiled threshold query as a push-based stream. Every
// shard runs an interleaved filter/verify search and emits its matches
// into the stream's bounded channel in arrival order (no cross-shard
// ordering). The query must be compiled against the engine's root dataset,
// exactly as for Search.
//
// Stream degradation is weaker than Search's: matches a shard emitted before
// it was dropped have already been delivered and stay delivered — emitted
// matches are always correct, only completeness is lost.
func (e *Engine) Stream(ctx context.Context, q *model.Query, opt Options) *MatchStream {
	ms := &MatchStream{ch: make(chan core.Match, streamBuffer), done: make(chan struct{})}
	ms.pass = &pass{e: e, ctx: ctx, opt: opt, q: q, region: q.Region, tauR: q.TauR, stream: ms}
	ms.pass.stop = ms.pass.stopped
	go func() {
		// A shard failure (strict mode) outranks the context; otherwise only
		// ctx's expiry is an error — a stream stopped by Close or Limit ended
		// because its consumer had enough.
		ms.stats, ms.err = ms.pass.run((*pass).arrivalShard)
		close(ms.ch)
		close(ms.done)
	}()
	return ms
}

// arrivalShard pushes one shard's matches into the stream as they verify.
func (p *pass) arrivalShard(i int, s *shard, sr *core.Searcher, stop func() bool) (core.SearchStats, error) {
	limit := int64(p.opt.Limit)
	return sr.SearchStream(p.q, stop, func(m core.Match) bool {
		// Reserve an emission slot before sending: at most Limit sends ever
		// succeed, and the reservation that fills the limit stops every
		// shard's search, not only this one.
		if limit > 0 {
			n := p.emitted.Add(1)
			if n >= limit {
				p.quit.Store(true)
			}
			if n > limit {
				return false
			}
		}
		select {
		case p.stream.ch <- m:
			return true
		case <-p.ctx.Done():
			return false
		}
	}), nil
}

// ranking is a top-k pass's descent parameters.
type ranking struct {
	opts core.TopKOptions
	// tracker is set by run once admission leaves two or more shards live;
	// a lone live descent has nothing to prune against.
	tracker *kthTracker
}

// TopK answers a top-k query with global-threshold pruning: every live shard
// runs the threshold-descent TopK and, when two or more are live, reports its
// provably-complete results to a shared tracker after each round and stops
// descending as soon as the running global k-th-best score proves its unseen
// objects irrelevant. The surviving per-shard lists — each sorted by
// descending score — merge through a heap into the global top k.
//
// The merge is exact: a shard stops early only when every object it has not
// yet retrieved scores strictly below k already-retrieved objects, so the
// global top k is always contained in the gathered lists, and ties break by
// ascending object ID exactly as in the unsharded search.
//
// The returned stats accumulate the descents' filter-and-verify work across
// shards, each probe, posting and candidate counted once per descent; a
// descent cut short by cooperative pruning (or a small effective k) reports
// the reduced counts.
//
// Degraded ranked answers carry one caveat beyond threshold queries. A shard
// that was quarantined at open (or panicked before observing results) never
// fed the tracker, so the survivors' merged ranking is exactly the ranking of
// an index built without that shard. A shard dropped by ShardTimeout,
// however, may already have tightened the tracker with results that are then
// discarded — the survivors may have stopped their descents early against a
// bound the final merge no longer witnesses, so a timed-out ranked answer is
// best-effort, not exact-minus-a-shard.
func (e *Engine) TopK(ctx context.Context, region geo.Rect, terms []string, opts core.TopKOptions, opt Options) ([]core.ScoredMatch, core.SearchStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, core.SearchStats{}, err
	}
	// Validate up front (applying the documented floor defaults in place):
	// shard pruning compares extents against the effective FloorR — every
	// descent round's τR is at least FloorR, so a shard whose extent cannot
	// reach FloorR cannot contribute to any round — and option errors must
	// surface even when every shard would be pruned.
	if err := opts.Validate(); err != nil {
		return nil, core.SearchStats{}, fmt.Errorf("engine: %w: %w", ErrInvalidQuery, err)
	}
	// The descents' one query compiles against the root dataset, at the
	// floors: unknown-term weights depend on the total object count, and
	// shards answer with the root's weights so their scores match the
	// monolithic index exactly. Each descent moves the thresholds of its own
	// copy.
	q, err := e.root.NewQuery(region, terms, opts.FloorR, opts.FloorT)
	if err != nil {
		return nil, core.SearchStats{}, fmt.Errorf("engine: %w: %w", ErrInvalidQuery, err)
	}
	p := &pass{
		e: e, ctx: ctx, opt: opt, q: q, region: region, tauR: opts.FloorR,
		ranked: &ranking{opts: opts}, scored: make([][]core.ScoredMatch, len(e.shards)),
	}
	p.stop = p.stopped
	st, err := p.run((*pass).rankedShard)
	if err != nil {
		return nil, core.SearchStats{}, err
	}
	mergeStart := time.Now()
	// A lone ranking is the answer as it stands: a descent returns at most k,
	// ranked.
	merged, lone := loneRun(p.scored)
	if !lone {
		merged = mergeRuns(p.scored, opts.K, byScore, func(m core.ScoredMatch) core.ScoredMatch { return m })
	}
	// Descent rounds each merged their own Results; the query's answer count
	// is the final ranking's length.
	st.Results = len(merged)
	st.MergeTime = time.Since(mergeStart)
	traceMerge(opt.Trace, mergeStart, st.MergeTime, len(merged))
	return merged, st, nil
}

// rankedShard runs one shard's descent: stop interrupts it between rounds,
// and the tracker prunes it against the other shards.
func (p *pass) rankedShard(i int, s *shard, sr *core.Searcher, stop func() bool) (core.SearchStats, error) {
	o := p.ranked.opts
	if t := p.ranked.tracker; t != nil {
		o.Observe = func(complete []core.ScoredMatch) { t.observe(i, complete) }
		o.StopBelow = t.kth
	}
	// The ranking is the descent's own copy, not a view of the searcher's
	// buffer, so it may outlive the searcher's return to its pool.
	found, st, err := sr.TopK(p.q, o, stop)
	p.scored[i] = found
	return st, err
}

// kthTracker maintains the running global k-th-best score across shards.
// Each shard replaces its contribution after every descent round (the
// complete prefix only grows), so the tracked bound only rises and is always
// witnessed by k genuinely retrieved objects.
type kthTracker struct {
	mu     sync.Mutex
	k      int
	scores [][]float64 // per shard, descending, at most k entries
}

func newKthTracker(shards, k int) *kthTracker {
	return &kthTracker{k: k, scores: make([][]float64, shards)}
}

// observe replaces shard i's contribution with the scores of its current
// complete prefix (already sorted by descending score).
func (t *kthTracker) observe(i int, complete []core.ScoredMatch) {
	n := len(complete)
	if n > t.k {
		n = t.k // only the top k of one shard can ever matter globally
	}
	scores := make([]float64, n)
	for j := 0; j < n; j++ {
		scores[j] = complete[j].Score
	}
	t.mu.Lock()
	t.scores[i] = scores
	t.mu.Unlock()
}

// kth returns the k-th best score observed so far across all shards, or -1
// while fewer than k objects have been observed (scores are always
// positive, so -1 never stops a descent). Allocation is bounded by the
// entries actually observed, never by k itself, which callers may set
// arbitrarily large to mean "return everything".
func (t *kthTracker) kth() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0
	for _, s := range t.scores {
		total += len(s)
	}
	if total < t.k {
		return -1
	}
	all := make([]float64, 0, total)
	for _, s := range t.scores {
		all = append(all, s...)
	}
	slices.Sort(all)
	return all[len(all)-t.k]
}

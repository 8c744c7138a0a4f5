package engine

// The shard-execution core. Every query — ordered, streamed or ranked —
// reaches a shard through runShard, which owns the invariant sequence exactly
// once, and through run, the one fan-out over the shards that can answer.
// What differs between query shapes is only the shardBody that drives the
// searcher and where its matches go; those sinks live in sinks.go. A body
// hands its stop hook to the searcher and returns no error of its own when
// the hook fires: runShard's lateness verdict and run's preference for ctx's
// error say why the search stopped.
//
// Shard failures follow Partial. By default a query is all-or-nothing — any
// shard failure (or a quarantined shard) fails the whole query, so callers
// can never mistake a partial answer for a complete one. Partial.Allow flips
// failed shards from fatal to dropped: the merge proceeds over the shards that
// answered, each drop counts in SearchStats.ShardErrors, and the caller
// surfaces the result as degraded. Every shard verifies exact similarity
// independently, so a partial answer is exactly the full answer minus the
// dropped shards' objects.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/faultfs"
	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/trace"
)

// Options carries one query's execution knobs; the zero value is an
// unlimited, untraced, strict query.
type Options struct {
	// Limit bounds the matches produced; 0 means unlimited. Search returns
	// the exact Limit-prefix of its ID-ordered answer, capping each shard's
	// verification at Limit successes. Stream shares one emission count
	// across shards, so reaching the limit cuts the outstanding filter scans
	// and verifications short. TopK ignores it (K is its limit).
	Limit int
	// Trace, when non-nil, collects per-shard filter/verify spans, pruned-shard
	// bounds and the engine-level merge span, each reusing the clock reads
	// that SearchStats already takes. Nil costs nothing more: no recording,
	// no allocations.
	Trace *trace.Rec
	// Partial selects the shard-failure policy.
	Partial Partial
}

// Partial selects how a query treats shard failures.
type Partial struct {
	// Allow drops failed, panicked, timed-out, or quarantined shards from the
	// merge (counting them in SearchStats.ShardErrors) instead of failing the
	// query. False — the default — keeps queries all-or-nothing.
	Allow bool
	// ShardTimeout bounds one shard's search; a shard that exceeds it is
	// dropped like a failed shard. Zero means no per-shard bound. Only
	// meaningful with Allow: a strict query has nothing to drop to.
	ShardTimeout time.Duration
}

// ErrClosed reports a call on an engine after Close: the mapped segments it
// would read are gone.
var ErrClosed = errors.New("engine: index is closed")

// ErrInvalidQuery marks a query rejected for its own content — options out
// of range, a region that is not a rectangle — before any shard search ran.
var ErrInvalidQuery = errors.New("invalid request")

// errShardTimeout marks a shard search dropped for exceeding ShardTimeout.
var errShardTimeout = errors.New("engine: shard search exceeded deadline")

// downErr wraps a quarantined shard's boot error with the query-facing
// sentinel.
func downErr(idx int, cause error) error {
	return fmt.Errorf("%w: shard %d: %v", ErrShardQuarantined, idx, cause)
}

// pass is one query's execution state: what every shard run shares, plus the
// accumulators of whichever sink the query feeds.
type pass struct {
	e      *Engine
	ctx    context.Context
	opt    Options
	q      *model.Query // compiled against the root; ranked descents copy it
	region geo.Rect     // shard-prune key: the query region and the lowest
	tauR   float64      // spatial threshold any of the pass's searches can use
	// stop is the hook the pass's shard searches poll, built once: stopped,
	// or nil for a search that nothing can cut short (an uncapped ordered
	// search under a ctx that cannot expire). A ShardTimeout replaces it with
	// a per-shard hook that also watches the shard's deadline.
	stop func() bool
	// quit is set once the query has its answer or its failure: polling
	// shard searches stop, unstarted ones never start.
	quit atomic.Bool

	matches [][]core.Match       // ID-ordered sink: per-shard runs
	scored  [][]core.ScoredMatch // top-k sink: per-shard rankings
	ranked  *ranking             // top-k sink: descent parameters
	stream  *MatchStream         // arrival sink
	emitted atomic.Int64         // arrival sink: emission slots reserved against Limit
}

// stopped reports that nothing the pass still computes can reach the caller.
func (p *pass) stopped() bool { return p.quit.Load() || p.ctx.Err() != nil }

// shardBody is the part of a shard search that differs between sinks: it
// drives the acquired searcher over shard i and puts the matches where its
// sink wants them. stop is nil when nothing can cut the search short;
// otherwise it reports that the search should be abandoned.
type shardBody func(p *pass, i int, s *shard, sr *core.Searcher, stop func() bool) (core.SearchStats, error)

// runShard executes body on live shard i under the invariant sequence:
// in-flight count → deadline clock → panic isolation → fault seam → searcher →
// body → release → lateness verdict.
func (p *pass) runShard(i int, body shardBody) (st core.SearchStats, err error) {
	if p.stopped() {
		return st, p.ctx.Err()
	}
	// Counted here, the one place a shard search starts, so Close waits for
	// every search — including the stragglers a returned query abandoned —
	// before it unmaps the segments they read.
	if err := p.e.Enter(); err != nil {
		return st, err
	}
	defer p.e.Exit()
	s, tr := p.e.shards[i], p.opt.Trace
	// The deadline clock starts before the shard-start hook so an injected
	// (or real) slow start counts against the budget, exactly like slowness
	// inside the search itself.
	timeout := p.opt.Partial.ShardTimeout
	var stopAt time.Time
	if timeout > 0 {
		stopAt = time.Now().Add(timeout)
	}
	stop := p.stop
	if timeout > 0 {
		stop = func() bool { return p.stopped() || time.Now().After(stopAt) }
	}
	defer func() {
		if r := recover(); r != nil {
			// The searcher's state is unknown mid-panic, so it is deliberately
			// not returned to the pool; the pool replaces it on demand.
			st, err = core.SearchStats{}, fmt.Errorf("engine: shard %d panicked: %v", i, r)
		}
	}()
	faultfs.ShardStart(i)
	sr := s.pool.Get()
	if tr != nil {
		// The shard's filter and verify spans land on the recorder; Put detaches.
		sr.SetTrace(tr, i)
	}
	st, err = body(p, i, s, sr, stop)
	s.pool.Put(sr)
	// The wall clock, not the poll, decides lateness: a search with no poll
	// points (a shard with no candidates) can return after the deadline
	// without stop ever firing.
	if timeout > 0 && time.Now().After(stopAt) {
		return st, fmt.Errorf("%w: shard %d after %v", errShardTimeout, i, timeout)
	}
	if err != nil {
		return core.SearchStats{}, err
	}
	st.Shards = 1
	return st, nil
}

// fold merges one shard's outcome into the query's stats. A failed shard is
// dropped or fails the query, as drop decides.
func (p *pass) fold(st *core.SearchStats, i int, sst core.SearchStats, err error) error {
	if err == nil {
		st.Merge(sst)
		return nil
	}
	// A shard that finished late stored its matches before the verdict; a
	// dropped shard contributes nothing to the merge.
	if p.matches != nil {
		p.matches[i] = nil
	}
	if p.scored != nil {
		p.scored[i] = nil
	}
	if ferr := p.drop(err, st); ferr != nil {
		return ferr
	}
	if p.stream != nil {
		// What a stream's shard emitted before it was dropped is delivered
		// and stays delivered, so the work behind it stays counted.
		st.Merge(sst)
	}
	return nil
}

// drop folds one failed shard into the merge decision: with Partial.Allow the
// failure becomes a ShardErrors count and a nil error; otherwise it is fatal.
// An expired ctx or a closed engine is never dropped — that is the caller's
// failure, not a shard's.
func (p *pass) drop(err error, st *core.SearchStats) error {
	if cerr := p.ctx.Err(); cerr != nil {
		return cerr
	}
	if !p.opt.Partial.Allow || errors.Is(err, ErrClosed) {
		return err
	}
	st.ShardErrors++
	return nil
}

// run is the one fan-out: it admits every shard, then takes body through
// runShard on each one left live and returns the merged stats (also alongside
// an error: a failed stream still reports the work it did). A lone live shard
// runs on the calling goroutine; two or more scatter. Nothing strands the
// caller inline: a search that ctx can stop polls it.
func (p *pass) run(body shardBody) (st core.SearchStats, err error) {
	if err := p.ctx.Err(); err != nil {
		return st, err
	}
	defer p.quit.Store(true)
	// The live list stays on the stack up to its buffer's length.
	var buf [8]int
	live := buf[:0]
	for i := range p.e.shards {
		ok, err := p.admit(i, &st)
		if err != nil {
			return st, err
		}
		if ok {
			live = append(live, i)
		}
	}
	if p.ranked != nil && len(live) > 1 {
		// Descents prune one another only when two or more run.
		p.ranked.tracker = newKthTracker(len(p.e.shards), p.ranked.opts.K)
	}
	switch len(live) {
	case 0:
	case 1:
		sst, serr := p.runShard(live[0], body)
		err = p.fold(&st, live[0], sst, serr)
	default:
		err = p.scatter(body, live, &st)
	}
	if err == nil {
		// A polling search that saw ctx expire returned what it had; prefer
		// ctx's error so an expired deadline never yields a nil-error result.
		err = p.ctx.Err()
	}
	return st, err
}

// admit reports whether shard i is to be searched. A quarantined shard is
// dropped or fails the query; a shard whose extent provably cannot reach τR is
// skipped entirely — no goroutine, no searcher, no scan. It never ran, so it
// counts toward ShardsPruned, not Shards (the realized fan-out).
func (p *pass) admit(i int, st *core.SearchStats) (bool, error) {
	s := p.e.shards[i]
	if s.down != nil {
		return false, p.drop(downErr(i, s.down), st)
	}
	if bound, pruned := s.pruneBound(p.region, p.tauR); pruned {
		st.ShardsPruned++
		// A trace that silently dropped shards would read as if they never
		// existed, so a pruned shard records the bound that pruned it.
		if tr := p.opt.Trace; tr != nil {
			tr.AddPruned(trace.PrunedShard{Shard: i, Bound: bound, TauR: p.tauR})
		}
		return false, nil
	}
	return true, nil
}

// pruneEps is the relative safety margin on the shard-prune bound: the exact
// float bound is computed with a handful of rounded operations, so pruning
// only when bound·(1+eps) < τR absorbs those ulps. Same discipline as
// invidx.Eps on the prefix cutoffs.
const pruneEps = 1e-9

// pruneBound reports whether the shard can be skipped for a query over region
// with spatial threshold tauR, and the evidence: the similarity of the query
// to ANY member object is bounded by the overlap of the query rect with the
// shard extent E. With A = |region ∩ E| and |q| = |region|, every member o
// satisfies |q ∩ o| ≤ A (o's footprint lies inside E, MBRs included), so
//
//	Jaccard: simR = |q∩o|/|q∪o| ≤ A/|q|
//	Dice:    simR = 2|q∩o|/(|q|+|o|) ≤ 2A/(|q|+A)   (x ↦ 2x/(|q|+x) grows)
//
// The shard is pruned only when the bound clears τR by the pruneEps margin,
// so float rounding can never drop a true answer. When no bound can be
// computed (non-positive threshold or degenerate query rect) the trivial
// bound 1 is reported and the shard is kept; a shard with no members has the
// zero extent, bound 0, and prunes for any positive threshold.
func (s *shard) pruneBound(region geo.Rect, tauR float64) (float64, bool) {
	qa := region.Area()
	if tauR <= 0 || qa <= 0 {
		return 1, false
	}
	a := region.IntersectionArea(s.extent)
	bound := a / qa
	if s.ds.SpatialSimFn() == model.SpaceDice {
		bound = 2 * a / (qa + a)
	}
	return bound, bound*(1+pruneEps) < tauR
}

// scatter runs each live shard on a goroutine of its own and gathers their
// outcomes into st. A query that fails, or whose ctx expires, returns at once
// and abandons its stragglers (Close waits for them); a stream instead waits
// for every producer, since it closes the channel they send on.
func (p *pass) scatter(body shardBody, live []int, st *core.SearchStats) error {
	type outcome struct {
		shard int
		st    core.SearchStats
		err   error
	}
	// Buffered to the dispatch count: a straggler abandoned by an early
	// return still finds room to send and exit.
	out := make(chan outcome, len(live))
	for _, i := range live {
		go func() {
			sst, err := p.runShard(i, body)
			out <- outcome{i, sst, err}
		}()
	}
	done := p.ctx.Done()
	if p.stream != nil {
		done = nil // the producers poll ctx themselves
	}
	var first error
	for range live {
		select {
		case r := <-out:
			if err := p.fold(st, r.shard, r.st, r.err); err != nil && first == nil {
				if p.stream == nil {
					return err
				}
				first = err
				p.quit.Store(true)
			}
		case <-done:
			// A nil channel (non-cancellable ctx, or a stream) never fires, so
			// this select degrades to a plain receive.
			return p.ctx.Err()
		}
	}
	return first
}

// traceMerge records the engine-level merge span — the k-way merge of the
// shard runs, or of the top-k rankings — over the interval the caller already
// timed into SearchStats.MergeTime.
func traceMerge(tr *trace.Rec, start time.Time, dur time.Duration, results int) {
	if tr == nil {
		return
	}
	tr.AddSpan(trace.Span{
		Stage: trace.StageMerge, Shard: -1,
		Start: tr.Offset(start), Dur: dur, Results: results,
	})
}

// ForEach is the scatter helper for work that is not a shard search (shard
// builds, batch queries): it runs fn(ctx, i) for every i in [0, n) across at
// most parallelism goroutines. The first failure (or ctx expiring) cancels
// the context handed to outstanding calls and stops feeding new indexes;
// ForEach waits for started calls to return. The error reported is the first
// failure observed, or ctx's error when the parent context expired first.
func ForEach(ctx context.Context, n, parallelism int, fn func(ctx context.Context, i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism < 1 {
		parallelism = 1
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		once  sync.Once
		cause error
		wg    sync.WaitGroup
	)
	fail := func(err error) {
		// An error that merely echoes the scatter's own canceled context is
		// not a cause: either a real failure already holds the once (our
		// cancel), or the parent expired and ForEach must report ctx.Err()
		// itself, not an arbitrary worker's wrapped copy of it.
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			cancel()
			return
		}
		once.Do(func() { cause = err })
		cancel()
	}
	next := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					continue // drain: the batch is already failed or canceled
				}
				if err := fn(ctx, i); err != nil {
					fail(err)
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if cause != nil {
		return cause
	}
	return ctx.Err()
}

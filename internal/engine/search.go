package engine

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/trace"
)

// Search answers a compiled threshold query by scatter-gather: every shard
// searches concurrently with a pooled searcher, shard matches remap to
// global object IDs, and per-shard stats merge into one report. Matches
// return sorted by global object ID, exactly as a monolithic search would.
//
// The query must be compiled against the engine's root dataset (shards share
// its vocabulary and weights, so the compiled form is valid on every shard).
//
// Cancellation is prompt: if ctx expires mid-scatter, Search returns
// ctx.Err() immediately without waiting for in-flight shard searches, which
// finish in the background and are discarded.
func (e *Engine) Search(ctx context.Context, q *model.Query) ([]core.Match, core.SearchStats, error) {
	return e.SearchExec(ctx, q, nil, Partial{})
}

// SearchTraced is Search with an optional trace recorder. A nil tr is
// exactly Search — no clock reads, no recording, no allocations beyond
// Search's own. A live tr collects per-shard plan/filter/verify spans, plan
// decisions, pruned-shard bounds, and an engine-level merge span.
func (e *Engine) SearchTraced(ctx context.Context, q *model.Query, tr *trace.Rec) ([]core.Match, core.SearchStats, error) {
	return e.SearchExec(ctx, q, tr, Partial{})
}

// SearchExec is the full-control entry point: SearchTraced plus a Partial
// policy for shard failures. The zero Partial is exactly SearchTraced.
func (e *Engine) SearchExec(ctx context.Context, q *model.Query, tr *trace.Rec, part Partial) ([]core.Match, core.SearchStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, core.SearchStats{}, err
	}
	if len(e.shards) == 1 {
		if ctx.Done() == nil {
			// Non-cancellable context (e.g. context.Background()): run on
			// the calling goroutine, exactly the pre-engine layout. A shard
			// deadline needs no goroutine either — the streaming collector
			// polls the clock itself.
			return e.searchSingle(ctx, q, tr, part)
		}
		// Cancellable context: the search runs aside so an expiring ctx
		// returns promptly; an abandoned search finishes in the background
		// and is discarded.
		type result struct {
			matches []core.Match
			st      core.SearchStats
			err     error
		}
		done := make(chan result, 1)
		e.abandonable.Add(1)
		go func() {
			defer e.abandonable.Done()
			matches, st, err := e.searchSingle(ctx, q, tr, part)
			done <- result{matches, st, err}
		}()
		select {
		case r := <-done:
			// The context may have expired while the search was finishing
			// (select picks randomly among ready cases); prefer ctx's error
			// so an expired deadline never yields a nil-error result.
			if err := ctx.Err(); err != nil {
				return nil, core.SearchStats{}, err
			}
			return r.matches, r.st, r.err
		case <-ctx.Done():
			return nil, core.SearchStats{}, ctx.Err()
		}
	}
	return e.searchScatter(ctx, q, tr, part)
}

// SearchBatched is Search for batch workers: ctx gates the start of the
// query but is not watched mid-query — the enclosing scatter loop observes
// cancellation between queries — so the single-shard fast path stays free of
// per-query goroutines and channels.
func (e *Engine) SearchBatched(ctx context.Context, q *model.Query) ([]core.Match, core.SearchStats, error) {
	return e.SearchBatchedExec(ctx, q, nil, Partial{})
}

// SearchBatchedTraced is SearchBatched with an optional trace recorder; see
// SearchTraced for the recording contract.
func (e *Engine) SearchBatchedTraced(ctx context.Context, q *model.Query, tr *trace.Rec) ([]core.Match, core.SearchStats, error) {
	return e.SearchBatchedExec(ctx, q, tr, Partial{})
}

// SearchBatchedExec is SearchBatched with a trace recorder and a Partial
// policy; see SearchExec.
func (e *Engine) SearchBatchedExec(ctx context.Context, q *model.Query, tr *trace.Rec, part Partial) ([]core.Match, core.SearchStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, core.SearchStats{}, err
	}
	if len(e.shards) == 1 {
		return e.searchSingle(ctx, q, tr, part)
	}
	return e.searchScatter(ctx, q, tr, part)
}

// searchSingle runs q synchronously on a single-shard engine.
func (e *Engine) searchSingle(ctx context.Context, q *model.Query, tr *trace.Rec, part Partial) ([]core.Match, core.SearchStats, error) {
	s := e.shards[0]
	if s.pruned(q.Region, q.TauR, tr, 0) {
		// Pruned shards never ran, so they do not count toward Shards (the
		// realized fan-out) — only toward ShardsPruned.
		return nil, core.SearchStats{ShardsPruned: 1}, nil
	}
	matches, st, err := e.runShard(ctx, s, 0, q, tr, part.ShardTimeout)
	if err != nil {
		var dst core.SearchStats
		if ferr := dropOrFail(ctx, part, err, &dst); ferr != nil {
			return nil, core.SearchStats{}, ferr
		}
		// The only shard was dropped: an empty, degraded answer.
		return nil, dst, nil
	}
	traceMerge(tr, time.Now(), len(matches))
	return matches, st, nil
}

// searchScatter fans q out across all shards concurrently and gathers the
// remapped, ID-ordered union. Shard failures follow part: strict queries fail
// on the first failed shard, partial queries drop it from the merge.
func (e *Engine) searchScatter(ctx context.Context, q *model.Query, tr *trace.Rec, part Partial) ([]core.Match, core.SearchStats, error) {
	type shardResult struct {
		idx     int
		matches []core.Match
		st      core.SearchStats
		err     error
	}
	var st core.SearchStats
	// Buffered to the dispatch count: a straggler abandoned by an early
	// (strict-failure or ctx) return still finds room to send and exit.
	resCh := make(chan shardResult, len(e.shards))
	dispatched := 0
	for i, s := range e.shards {
		if s.down != nil {
			if !part.Allow {
				return nil, core.SearchStats{}, downErr(i, s.down)
			}
			st.ShardErrors++
			continue
		}
		if s.pruned(q.Region, q.TauR, tr, i) {
			// The shard's extent provably cannot reach τR: skip the dispatch
			// entirely — no goroutine, no searcher, no scan. It never ran, so
			// it counts toward ShardsPruned, not Shards (the realized fan-out).
			st.ShardsPruned++
			continue
		}
		dispatched++
		e.abandonable.Add(1)
		go func(i int, s *shard) {
			defer e.abandonable.Done()
			if err := ctx.Err(); err != nil {
				resCh <- shardResult{idx: i, err: err}
				return
			}
			matches, sst, err := e.runShard(ctx, s, i, q, tr, part.ShardTimeout)
			resCh <- shardResult{idx: i, matches: matches, st: sst, err: err}
		}(i, s)
	}
	results := make([][]core.Match, len(e.shards))
	for got := 0; got < dispatched; got++ {
		select {
		case r := <-resCh:
			if r.err != nil {
				if ferr := dropOrFail(ctx, part, r.err, &st); ferr != nil {
					return nil, core.SearchStats{}, ferr
				}
				continue
			}
			results[r.idx] = r.matches
			st.Merge(r.st)
		case <-ctx.Done():
			// A nil Done channel (non-cancellable ctx) never fires, so this
			// select degrades to a plain receive.
			return nil, core.SearchStats{}, ctx.Err()
		}
	}

	var mergeStart time.Time
	if tr != nil {
		mergeStart = time.Now()
	}
	total := 0
	for _, m := range results {
		total += len(m)
	}
	merged := make([]core.Match, 0, total)
	for _, m := range results {
		merged = append(merged, m...)
	}
	// Shard partitions are ID-sorted and disjoint, so this is a k-way merge
	// of sorted runs; a plain sort keeps it simple.
	slices.SortFunc(merged, matchByID)
	traceMerge(tr, mergeStart, len(merged))
	return merged, st, nil
}

// matchByID orders matches by ascending global object ID.
func matchByID(a, b core.Match) int {
	switch {
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	default:
		return 0
	}
}

// ForEach is the engine's scatter helper: it runs fn(ctx, i) for every
// i in [0, n) across at most parallelism goroutines. The first failure (or
// ctx expiring) cancels the context handed to outstanding calls and stops
// feeding new indexes; ForEach waits for started calls to return. The error
// reported is the first failure observed, or ctx's error when the parent
// context expired first.
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

package seal

import (
	"context"
	"iter"
	"time"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/trace"
)

// Stream answers req as an incremental iterator instead of a materialized
// slice: matches are yielded as the engine proves them, so a consumer can
// render, forward or abandon results without waiting for the full answer
// set. Breaking out of the loop cancels the outstanding shard searches.
//
// Threshold requests default to OrderByArrival — matches flow while shards
// are still searching, in no particular order, and with Limit the engine
// interrupts all remaining filter and verification work the moment enough
// matches were emitted. Pass OrderByID() for the legacy Search order; the
// ordered stream (and every ranked stream) must gather before yielding, so
// it trades incremental delivery for determinism, though Limit still caps
// the verification (or descent) work.
//
// The iterator yields (Match, nil) pairs and ends with a single
// (zero Match, err) pair if the query fails or ctx expires mid-stream. Use
// StatsInto to receive the cost breakdown once the stream ends:
//
//	var st seal.Stats
//	for m, err := range ix.Stream(ctx, req, seal.Limit(10), seal.StatsInto(&st)) {
//	    if err != nil {
//	        return err
//	    }
//	    fmt.Println(m.ID, m.SimR, m.SimT)
//	}
func (ix *Index) Stream(ctx context.Context, req Request, opts ...QueryOption) iter.Seq2[Match, error] {
	return func(yield func(Match, error) bool) {
		if err := ix.eng.Enter(); err != nil {
			yield(Match{}, err)
			return
		}
		defer ix.eng.Exit()
		cfg, err := resolveOptions(opts)
		if err != nil {
			yield(Match{}, err)
			return
		}
		if err := req.validate(); err != nil {
			yield(Match{}, err)
			return
		}
		if req.Ranked() || cfg.order == orderID {
			// Materialized orders: ranked descents and ID-ordered results
			// need the gather before the first yield.
			ix.streamMaterialized(ctx, req, cfg, yield)
			return
		}
		if cfg.order == orderScore {
			yield(Match{}, errOrderByScore)
			return
		}
		ix.streamArrival(ctx, req, cfg, yield)
	}
}

// streamMaterialized runs the query through the materializing path and
// yields from the finished slice.
func (ix *Index) streamMaterialized(ctx context.Context, req Request, cfg queryConfig, yield func(Match, error) bool) {
	res, err := ix.query(ctx, req, cfg)
	if err != nil {
		yield(Match{}, err)
		return
	}
	for _, m := range res.Matches {
		if !yield(m, nil) {
			return
		}
	}
}

// streamArrival is the push-based path: the engine emits verified matches
// through a bounded channel as shards produce them, and a consumer break
// interrupts the producers.
func (ix *Index) streamArrival(ctx context.Context, req Request, cfg queryConfig, yield func(Match, error) bool) {
	var rec *trace.Rec
	if cfg.collectTrace {
		rec = trace.New()
	}
	admitStart := time.Now()
	mq, err := ix.compile(req)
	if err != nil {
		yield(Match{}, err)
		return
	}
	admit := time.Since(admitStart)
	admitSpan(rec, admitStart, admit)
	skip, abandoned := cfg.offset, false
	st, err := ix.arrival(ctx, mq, cfg, rec, func(m core.Match) bool {
		if skip > 0 {
			skip--
			return true
		}
		abandoned = !yield(matchOut(m), nil)
		return !abandoned
	})
	if cfg.statsInto != nil {
		*cfg.statsInto = statsOut(st, admit)
	}
	if cfg.traceInto != nil && rec != nil {
		*cfg.traceInto = *ix.traceOut(rec)
	}
	if err != nil && !abandoned {
		yield(Match{}, err)
	}
}

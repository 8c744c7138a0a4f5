package seal

import (
	"context"
	"iter"
)

// Stream answers req as an incremental iterator instead of a materialized
// slice: matches are yielded as the engine proves them, so a consumer can
// render, forward or abandon results without waiting for the full answer
// set. Breaking out of the loop cancels the outstanding shard searches. It
// is Query with a yield: the same admission, validation and options, with
// each match handed to the loop body instead of collected into Results.
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
		cfg, err := resolveOptions(opts)
		if err != nil {
			yield(Match{}, err)
			return
		}
		if !req.Ranked() && cfg.order == orderDefault {
			cfg.order = orderArrival
		}
		declined := false
		cfg.emit = func(m Match) bool {
			declined = !yield(m, nil)
			return !declined
		}
		if _, err := ix.query(ctx, req, cfg); err != nil && !declined {
			yield(Match{}, err)
		}
	}
}

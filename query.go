package seal

// The unified query API. One Request type covers both of the library's query
// models (fixed thresholds, and top-k ranking by combined score), one
// Results type carries matches plus optional cost stats, and QueryOption
// carries the per-query knobs: Limit/Offset, result order, stats and trace
// collection, and the shard-failure policy. Query materializes, Stream
// (stream.go) iterates, QueryBatch runs many requests with per-query error
// reporting.

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/engine"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/trace"
)

// Request unifies the library's two query models behind one type.
//
// A threshold request (K == 0, the zero value's mode) finds every object
// with simR ≥ TauR and simT ≥ TauT; both thresholds must lie in (0, 1].
//
// A ranked request (K > 0) finds the K objects maximizing
// Alpha·simR + (1−Alpha)·simT among objects with simR ≥ FloorR and
// simT ≥ FloorT (floors default to 0.05, must lie in [0, 1]); TauR and TauT
// are ignored. Objects below either floor are never ranked: a disjoint object
// has no meaningful similarity order.
type Request struct {
	Region Rect
	Tokens []string

	// Threshold mode.
	TauR, TauT float64

	// Ranked mode, selected by K > 0.
	K              int
	Alpha          float64
	FloorR, FloorT float64
}

// Ranked reports whether the request asks for top-k ranking rather than
// threshold filtering.
func (r Request) Ranked() bool { return r.K != 0 }

// validate catches malformed requests at the API boundary, before any
// engine work starts.
func (r Request) validate() error {
	if r.K < 0 {
		return fmt.Errorf("seal: %w: ranked request needs K >= 1, got %d", ErrInvalidRequest, r.K)
	}
	if r.K > 0 {
		if r.Alpha < 0 || r.Alpha > 1 {
			return fmt.Errorf("seal: %w: ranked request Alpha = %g outside [0, 1]", ErrInvalidRequest, r.Alpha)
		}
		if r.FloorR < 0 || r.FloorR > 1 || r.FloorT < 0 || r.FloorT > 1 {
			return fmt.Errorf("seal: %w: ranked request floors (%g, %g) outside [0, 1]", ErrInvalidRequest, r.FloorR, r.FloorT)
		}
		return nil
	}
	if r.TauR <= 0 || r.TauR > 1 || r.TauT <= 0 || r.TauT > 1 {
		return fmt.Errorf("seal: %w: threshold request needs TauR and TauT in (0, 1], got (%g, %g)", ErrInvalidRequest, r.TauR, r.TauT)
	}
	return nil
}

// Results is one query's answer.
type Results struct {
	// Matches holds the verified answers in the requested order. Ranked
	// requests fill each match's Score.
	Matches []Match
	// Stats is the query's cost breakdown, non-nil when CollectStats (or
	// StatsInto) was requested. On an early-terminated query the counters
	// report the reduced work actually done.
	Stats *Stats
	// Trace is the query's execution trace, non-nil when CollectTrace (or
	// TraceInto) was requested.
	Trace *Trace
	// Degraded reports that one or more shards were dropped from this answer
	// (failed, timed out, or quarantined at boot). Only AllowPartial queries
	// can return degraded results — default queries fail instead. A degraded
	// answer's matches are still exact for the shards that responded: it is
	// the full answer minus the dropped shards' objects, never wrong entries.
	Degraded bool
}

// BatchResult pairs one batch query's Results with its error; exactly one of
// the two fields is set.
type BatchResult struct {
	Results *Results
	Err     error
}

// resultOrder is the resolved value of the OrderBy* options.
type resultOrder int

const (
	orderDefault resultOrder = iota
	orderID
	orderScore
	orderArrival
)

// queryConfig is the resolved QueryOption set.
type queryConfig struct {
	limit        int
	offset       int
	order        resultOrder
	collectStats bool
	statsInto    *Stats
	collectTrace bool
	traceInto    *Trace
	allowPartial bool
	shardTimeout time.Duration
}

// engineOptions translates the resolved knobs for the engine.
func (c queryConfig) engineOptions(rec *trace.Rec) engine.Options {
	return engine.Options{
		Limit:   c.engineLimit(),
		Trace:   rec,
		Partial: engine.Partial{Allow: c.allowPartial, ShardTimeout: c.shardTimeout},
	}
}

// QueryOption tunes one Query, Stream or QueryBatch call.
type QueryOption func(*queryConfig)

// Limit bounds the number of matches returned (after Offset). On a sharded
// index the engine shares the emission count across shards and interrupts
// outstanding filter scans and verifications once the limit is reached, so a
// small limit does less work, not just returns less. Zero (the default)
// means unlimited.
func Limit(n int) QueryOption {
	return func(c *queryConfig) { c.limit = n }
}

// Offset skips the first n matches of the requested order before returning
// any; combine with Limit to page through results. Offsets are only
// meaningful under a deterministic order (OrderByID, or OrderByScore for
// ranked requests).
func Offset(n int) QueryOption {
	return func(c *queryConfig) { c.offset = n }
}

// OrderByID orders matches by ascending object ID — Query's default for
// threshold requests. With Limit the result is the exact limit-prefix of the
// full ID-ordered answer.
func OrderByID() QueryOption {
	return func(c *queryConfig) { c.order = orderID }
}

// OrderByScore orders matches by descending combined score (ties by
// ascending ID) — ranked requests only, and their default.
func OrderByScore() QueryOption {
	return func(c *queryConfig) { c.order = orderScore }
}

// OrderByArrival returns matches in the order shards verify them — no
// ordering guarantee, maximal early termination. It is Stream's default for
// threshold requests: matches flow to the consumer while shards are still
// searching, and with Limit the engine stops all remaining work the moment
// enough matches were emitted.
func OrderByArrival() QueryOption {
	return func(c *queryConfig) { c.order = orderArrival }
}

// CollectStats asks the query to report its cost breakdown in Results.Stats.
func CollectStats() QueryOption {
	return func(c *queryConfig) { c.collectStats = true }
}

// StatsInto writes the query's cost breakdown into st when execution
// finishes. It is the stats channel for Stream, whose iterator cannot carry
// a Results: st is filled when the stream ends (drained, limit satisfied, or
// abandoned — an abandoned stream reports the partial work done). It implies
// CollectStats on Query. QueryBatch only honors the CollectStats side (each
// query's breakdown arrives in its own Results.Stats); the shared pointer is
// not written, since concurrent queries would race on it.
func StatsInto(st *Stats) QueryOption {
	return func(c *queryConfig) { c.statsInto = st }
}

// AllowPartial opts this query into degraded answers: a shard that fails,
// exceeds ShardTimeout, or was quarantined at boot is dropped from the merge
// instead of failing the query. The result then has Degraded set and
// Stats.ShardErrors counts the drops. Without this option (the default) any
// shard problem fails the whole query — with ErrShardQuarantined for
// sidelined shards — so answers are always complete or absent, never
// silently partial.
//
// A degraded answer's matches are exact for the shards that responded (each
// shard verifies true similarity independently); what is lost is
// completeness. For ranked requests a shard dropped mid-descent by
// ShardTimeout additionally makes the ranking best-effort — see the
// "Failure modes & recovery" section of the package documentation.
func AllowPartial() QueryOption {
	return func(c *queryConfig) { c.allowPartial = true }
}

// ShardTimeout bounds each shard's search for this query; a shard exceeding
// d is dropped like a failed shard. It requires AllowPartial — without
// somewhere to drop a slow shard to, a per-shard deadline has no meaning
// (use a context deadline to bound the whole query instead). Zero (the
// default) means no per-shard bound.
func ShardTimeout(d time.Duration) QueryOption {
	return func(c *queryConfig) { c.shardTimeout = d }
}

func resolveOptions(opts []QueryOption) (queryConfig, error) {
	var c queryConfig
	for _, opt := range opts {
		opt(&c)
	}
	if c.limit < 0 {
		return c, fmt.Errorf("seal: %w: negative Limit %d", ErrInvalidRequest, c.limit)
	}
	if c.offset < 0 {
		return c, fmt.Errorf("seal: %w: negative Offset %d", ErrInvalidRequest, c.offset)
	}
	if c.shardTimeout < 0 {
		return c, fmt.Errorf("seal: %w: negative ShardTimeout %v", ErrInvalidRequest, c.shardTimeout)
	}
	if c.shardTimeout > 0 && !c.allowPartial {
		return c, fmt.Errorf("seal: %w: ShardTimeout requires AllowPartial", ErrInvalidRequest)
	}
	if c.statsInto != nil {
		c.collectStats = true
	}
	if c.traceInto != nil {
		c.collectTrace = true
	}
	return c, nil
}

// Query answers req, materializing the full result. Threshold requests
// default to OrderByID, ranked requests to OrderByScore. With Limit the
// engine terminates early instead of truncating (see Limit); Stream delivers
// the same matches incrementally.
func (ix *Index) Query(ctx context.Context, req Request, opts ...QueryOption) (*Results, error) {
	cfg, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	return ix.query(ctx, req, cfg)
}

// query is the shared execution path behind Query, QueryBatch and Stream's
// materialized orders.
func (ix *Index) query(ctx context.Context, req Request, cfg queryConfig) (*Results, error) {
	// Admitted for the whole call: compilation reads the (possibly mapped)
	// dataset before any shard search starts.
	if err := ix.eng.Enter(); err != nil {
		return nil, err
	}
	defer ix.eng.Exit()
	// The recorder's birth is the trace's time zero: everything from here on
	// — validation, compilation, engine work — lands on its timeline.
	var rec *trace.Rec
	if cfg.collectTrace {
		rec = trace.New()
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	if req.Ranked() {
		return ix.queryRanked(ctx, req, cfg, rec)
	}
	return ix.queryThreshold(ctx, req, cfg, rec)
}

// admitSpan closes the admission stage on rec: validation plus query
// compilation, from the recorder's birth to now. Nil rec no-ops.
func admitSpan(rec *trace.Rec) {
	if rec == nil {
		return
	}
	rec.AddSpan(trace.Span{
		Stage: trace.StageAdmit, Shard: -1,
		Start: 0, Dur: rec.Offset(time.Now()),
	})
}

// engineLimit is the number of matches the engine must produce to satisfy
// offset+limit pagination; 0 means unlimited.
func (c queryConfig) engineLimit() int {
	if c.limit == 0 {
		return 0
	}
	return c.offset + c.limit
}

// page applies offset/limit to an ordered match slice.
func (c queryConfig) page(matches []Match) []Match {
	if c.offset > 0 {
		if c.offset >= len(matches) {
			return matches[:0]
		}
		matches = matches[c.offset:]
	}
	if c.limit > 0 && len(matches) > c.limit {
		matches = matches[:c.limit]
	}
	return matches
}

func (ix *Index) queryThreshold(ctx context.Context, req Request, cfg queryConfig, rec *trace.Rec) (*Results, error) {
	order := cfg.order
	if order == orderDefault {
		order = orderID
	}
	if order == orderScore {
		return nil, errOrderByScore
	}
	mq, err := ix.compile(req)
	if err != nil {
		return nil, err
	}
	admitSpan(rec)

	var matches []Match
	var st core.SearchStats
	if order == orderArrival {
		st, err = ix.arrival(ctx, mq, cfg, rec, func(m core.Match) bool {
			matches = append(matches, matchOut(m))
			return true
		})
	} else {
		matches, st, err = engine.SearchAs(ix.eng, ctx, mq, cfg.engineOptions(rec), matchOut)
	}
	if err != nil {
		return nil, err
	}
	return ix.finish(cfg.page(matches), st, cfg, rec), nil
}

// compile compiles a threshold request against the root dataset. What
// fails to compile fails for its own content.
func (ix *Index) compile(req Request) (*model.Query, error) {
	mq, err := ix.ds.NewQuery(rectIn(req.Region), req.Tokens, req.TauR, req.TauT)
	if err != nil {
		return nil, fmt.Errorf("seal: %w: %w", ErrInvalidRequest, err)
	}
	return mq, nil
}

// errOrderByScore rejects OrderByScore on a threshold request, which has no
// scores to order by.
var errOrderByScore = fmt.Errorf("seal: %w: OrderByScore requires a ranked request (set Request.K)", ErrInvalidRequest)

// matchOut converts a threshold match to the public form.
func matchOut(m core.Match) Match {
	return Match{ID: int(m.ID), SimR: m.SimR, SimT: m.SimT}
}

// arrival runs mq as an arrival-order engine stream, handing each match to
// yield until it declines or the stream ends. The stats are final when it
// returns: an abandoned stream reports the partial work it actually did.
func (ix *Index) arrival(ctx context.Context, mq *model.Query, cfg queryConfig, rec *trace.Rec, yield func(core.Match) bool) (st core.SearchStats, err error) {
	ms := ix.eng.Stream(ctx, mq, cfg.engineOptions(rec))
	// Deferred so that a panicking consumer still releases the producers.
	// Close waits for them, so the stats (and rec) are quiescent after it.
	defer func() {
		ms.Close()
		st, err = ms.Stats(), ms.Err()
	}()
	for m, ok := ms.Next(); ok && yield(m); m, ok = ms.Next() {
	}
	return st, err
}

func (ix *Index) queryRanked(ctx context.Context, req Request, cfg queryConfig, rec *trace.Rec) (*Results, error) {
	order := cfg.order
	if order == orderDefault || order == orderArrival {
		// Ranking produces the score order; "arrival" has no distinct
		// meaning for a materialized descent.
		order = orderScore
	}
	effK := req.K
	if n := cfg.engineLimit(); n > 0 && n < effK {
		// The caller pages through fewer entries than K: a smaller effective
		// k lets the descent (and the cross-shard pruning bound) stop
		// earlier.
		effK = n
	}
	// Ranked admission ends here; the engine compiles the descents' one query
	// against the root dataset.
	admitSpan(rec)
	found, st, err := ix.eng.TopK(ctx, rectIn(req.Region), req.Tokens, core.TopKOptions{
		K:      effK,
		Alpha:  req.Alpha,
		FloorR: req.FloorR,
		FloorT: req.FloorT,
	}, cfg.engineOptions(rec))
	if err != nil {
		return nil, err
	}
	matches := make([]Match, len(found))
	for i, m := range found {
		matches[i] = Match{ID: int(m.ID), SimR: m.SimR, SimT: m.SimT, Score: m.Score}
	}
	// Pagination walks the score ranking; OrderByID then re-orders the
	// selected page for presentation.
	matches = cfg.page(matches)
	if order == orderID {
		slices.SortFunc(matches, func(a, b Match) int {
			switch {
			case a.ID < b.ID:
				return -1
			case a.ID > b.ID:
				return 1
			default:
				return 0
			}
		})
	}
	return ix.finish(matches, st, cfg, rec), nil
}

// finish assembles Results and serves the stats and trace options.
func (ix *Index) finish(matches []Match, st core.SearchStats, cfg queryConfig, rec *trace.Rec) *Results {
	// Degradation is reported unconditionally, not only under CollectStats:
	// a caller that opted into partial answers must always be able to tell a
	// complete answer from a degraded one.
	res := &Results{Matches: matches, Degraded: st.ShardErrors > 0}
	if cfg.collectStats {
		s := statsOut(st)
		res.Stats = &s
		if cfg.statsInto != nil {
			*cfg.statsInto = s
		}
	}
	if rec != nil {
		res.Trace = ix.traceOut(rec)
		if cfg.traceInto != nil {
			*cfg.traceInto = *res.Trace
		}
	}
	return res
}

func statsOut(st core.SearchStats) Stats {
	return Stats{
		Candidates:      st.Candidates,
		Results:         st.Results,
		ListsProbed:     st.ListsProbed,
		PostingsScanned: st.PostingsScanned,
		FilterTime:      st.FilterTime,
		VerifyTime:      st.VerifyTime,
		ShardFanout:     st.Shards,
		ShardsPruned:    st.ShardsPruned,
		ShardErrors:     st.ShardErrors,
	}
}

// QueryBatch answers many requests concurrently and reports each query's
// outcome individually: one malformed or failed query costs only its own
// slot, never the completed work of its neighbors. The result is
// positionally aligned with reqs. Canceling ctx stops the batch early;
// queries that never ran carry the context's error. Options apply to every
// query. One query per available CPU runs at a time, and each searches its
// admitted shards at once.
func (ix *Index) QueryBatch(ctx context.Context, reqs []Request, opts ...QueryOption) []BatchResult {
	out := make([]BatchResult, len(reqs))
	cfg, err := resolveOptions(opts)
	if err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	// Concurrent queries must not write one shared Stats (or Trace) variable;
	// keep the implied CollectStats/CollectTrace (per-query breakdowns in
	// each Results) but drop the pointers.
	cfg.statsInto = nil
	cfg.traceInto = nil
	// Each query runs under the batch's own ctx, not the scatter's derived one:
	// fn never fails, so the two expire together, and a ctx that cannot expire
	// keeps a single-shard query on the worker's goroutine.
	ferr := engine.ForEach(ctx, len(reqs), runtime.GOMAXPROCS(0), func(_ context.Context, i int) error {
		res, err := ix.query(ctx, reqs[i], cfg)
		if err != nil {
			// The inner error already carries the library prefix.
			out[i].Err = fmt.Errorf("batch query %d: %w", i, err)
			return nil // per-query failures stay per-query
		}
		out[i].Results = res
		return nil
	})
	if ferr != nil {
		for i := range out {
			if out[i].Results == nil && out[i].Err == nil {
				out[i].Err = ferr
			}
		}
	}
	return out
}

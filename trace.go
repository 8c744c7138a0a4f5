package seal

// The public face of query tracing. CollectTrace (or TraceInto) asks a query
// to record an execution trace: per-stage spans on a shared monotonic
// timeline, and the shards skipped by extent pruning with the bound that
// skipped them. Traces answer "where did this query's time go, and which
// shards did it never visit" — the library-level substrate under the server's
// /v1/explain endpoint and /v1/query's ?trace=1 flag. A trace's spans reuse
// the clock reads that Stats already takes, so its StageTotals equal the
// query's Stats stage times; per-stage metrics read Stats and need no trace.

import (
	"time"

	"github.com/sealdb/seal/internal/trace"
)

// TraceSpan is one timed pipeline stage of a traced query. Start and
// Duration are offsets on the query's monotonic timeline (time zero is
// request admission), so spans recorded by concurrent shard goroutines may
// overlap and their durations can sum past the query's elapsed wall clock.
type TraceSpan struct {
	// Stage is one of "admit", "filter", "verify", "merge".
	Stage string `json:"stage"`
	// Shard is the shard the stage ran on; -1 for query- or engine-level
	// spans (admit, merge).
	Shard int `json:"shard"`
	// Family names the filter a shard-level stage ran with (the index's one
	// filter, IndexStats.Method); empty on query- and engine-level spans.
	Family   string        `json:"family,omitempty"`
	Start    time.Duration `json:"start_ns"`
	Duration time.Duration `json:"duration_ns"`
	// Work counters attributed to the span, where the stage has them: filter
	// spans carry probe/scan/candidate counts, verify spans carry candidates
	// in and results out.
	ListsProbed     int `json:"lists_probed,omitempty"`
	PostingsScanned int `json:"postings_scanned,omitempty"`
	Candidates      int `json:"candidates,omitempty"`
	Results         int `json:"results,omitempty"`
}

// TracePrune records one shard skipped before dispatch: the upper bound on
// any member's spatial similarity (Bound) provably cannot reach the query's
// spatial threshold (TauR).
type TracePrune struct {
	Shard int     `json:"shard"`
	Bound float64 `json:"bound"`
	TauR  float64 `json:"tau_r"`
}

// Trace is one query's recorded execution: what ran, where the time went,
// and which shards were never visited.
type Trace struct {
	// Elapsed is the wall clock from request admission to trace assembly.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Spans lists every recorded stage in recording order. Spans from
	// concurrent shards overlap; see TraceSpan.
	Spans []TraceSpan `json:"spans"`
	// Pruned lists the shards skipped by extent pruning. Nil when none were.
	Pruned []TracePrune `json:"pruned,omitempty"`
}

// StageTotals sums span durations by stage name — the shape consumed by
// per-stage latency metrics. Concurrent shard spans sum, so a stage total
// can exceed Elapsed on a sharded index.
func (t *Trace) StageTotals() map[string]time.Duration {
	if t == nil {
		return nil
	}
	totals := make(map[string]time.Duration, 5)
	for _, s := range t.Spans {
		totals[s.Stage] += s.Duration
	}
	return totals
}

// CollectTrace asks the query to record an execution trace in Results.Trace.
// Tracing a query adds the recorder's allocations; its spans reuse the
// clock reads Stats takes. Queries without it keep the zero-allocation hot
// path.
func CollectTrace() QueryOption {
	return func(c queryConfig) queryConfig { c.collectTrace = true; return c }
}

// TraceInto writes the query's execution trace into t when execution
// finishes. It is the trace channel for Stream, whose iterator cannot carry
// a Results: t is filled when the stream ends, reporting the partial work an
// abandoned stream actually did. It implies CollectTrace on Query.
// QueryBatch only honors the CollectTrace side (each query's trace arrives
// in its own Results.Trace); the shared pointer is not written, since
// concurrent queries would race on it.
func TraceInto(t *Trace) QueryOption {
	return func(c queryConfig) queryConfig { c.traceInto = t; return c }
}

// traceOut converts the internal recorder into the public Trace.
func (ix *Index) traceOut(rec *trace.Rec) *Trace {
	spans, pruned, elapsed := rec.Snapshot()
	t := &Trace{Elapsed: elapsed}
	if len(spans) > 0 {
		t.Spans = make([]TraceSpan, len(spans))
		for i, s := range spans {
			t.Spans[i] = TraceSpan{
				Stage:           s.Stage.String(),
				Shard:           s.Shard,
				Start:           s.Start,
				Duration:        s.Dur,
				ListsProbed:     s.ListsProbed,
				PostingsScanned: s.PostingsScanned,
				Candidates:      s.Candidates,
				Results:         s.Results,
			}
			if s.Shard >= 0 {
				t.Spans[i].Family = ix.stats.Method
			}
		}
	}
	if len(pruned) > 0 {
		t.Pruned = make([]TracePrune, len(pruned))
		for i, p := range pruned {
			t.Pruned[i] = TracePrune{Shard: p.Shard, Bound: p.Bound, TauR: p.TauR}
		}
	}
	return t
}

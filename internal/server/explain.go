package server

// The execution trace on the wire: per-stage spans on the query's monotonic
// timeline, and the shards pruned before dispatch with the bound that pruned
// them. POST /v1/explain always carries it, /v1/query under ?trace=1, so
// both surfaces speak one schema.

import (
	"time"

	seal "github.com/sealdb/seal"
)

// wireSpan is one pipeline-stage span. Offsets and durations travel in
// microseconds; spans from concurrent shards overlap, so their durations can
// sum past the request's wall clock.
type wireSpan struct {
	Stage           string  `json:"stage"`
	Shard           int     `json:"shard"`
	Family          string  `json:"family,omitempty"`
	StartUS         float64 `json:"start_us"`
	DurationUS      float64 `json:"duration_us"`
	ListsProbed     int     `json:"lists_probed,omitempty"`
	PostingsScanned int     `json:"postings_scanned,omitempty"`
	Candidates      int     `json:"candidates,omitempty"`
	Results         int     `json:"results,omitempty"`
}

// wirePrune is one shard skipped before dispatch: its extent's similarity
// bound provably cannot reach the query's spatial threshold.
type wirePrune struct {
	Shard int     `json:"shard"`
	Bound float64 `json:"bound"`
	TauR  float64 `json:"tau_r"`
}

// wireTrace is the JSON form of one query's execution trace.
type wireTrace struct {
	ElapsedUS     float64            `json:"elapsed_us"`
	Spans         []wireSpan         `json:"spans"`
	StageTotalsUS map[string]float64 `json:"stage_totals_us"`
	Pruned        []wirePrune        `json:"pruned,omitempty"`
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// traceWire converts a library trace to the wire form; nil in, nil out.
func traceWire(t *seal.Trace) *wireTrace {
	if t == nil {
		return nil
	}
	wt := &wireTrace{
		ElapsedUS:     us(t.Elapsed),
		Spans:         make([]wireSpan, len(t.Spans)),
		StageTotalsUS: make(map[string]float64, 5),
	}
	for i, s := range t.Spans {
		wt.Spans[i] = wireSpan{
			Stage:           s.Stage,
			Shard:           s.Shard,
			Family:          s.Family,
			StartUS:         us(s.Start),
			DurationUS:      us(s.Duration),
			ListsProbed:     s.ListsProbed,
			PostingsScanned: s.PostingsScanned,
			Candidates:      s.Candidates,
			Results:         s.Results,
		}
	}
	for stage, d := range t.StageTotals() {
		wt.StageTotalsUS[stage] = us(d)
	}
	if len(t.Pruned) > 0 {
		wt.Pruned = make([]wirePrune, len(t.Pruned))
		for i, p := range t.Pruned {
			wt.Pruned[i] = wirePrune{Shard: p.Shard, Bound: p.Bound, TauR: p.TauR}
		}
	}
	return wt
}

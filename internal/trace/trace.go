// Package trace is the query-tracing spine of the engine: a lightweight span
// recorder threaded through the full execution pipeline — request admission,
// shard pruning, per-shard filter scans, verification, merge — so one query's
// cost can be attributed stage by stage after the fact.
//
// The package is a leaf (standard library only) so every layer can import it:
// core records filter/verify spans, the engine records prune and merge events,
// and the public API converts the recorder into its wire form.
//
// Tracing is strictly opt-in and free when off: every method no-ops on a nil
// *Rec receiver, so the untraced hot path pays a single nil check and zero
// allocations — the AllocsPerRun regression tests in core and engine pin
// this. A live Rec is safe for concurrent use (shards record spans from
// their own goroutines); timings are monotonic offsets from the recorder's
// birth, so spans from different goroutines share one timeline.
package trace

import (
	"sync"
	"time"
)

// Stage identifies one pipeline stage of a traced query.
type Stage uint8

const (
	// StageAdmit covers request validation and query compilation, before any
	// engine work.
	StageAdmit Stage = iota
	// StageFilter covers one shard's candidate collection (the filter scan).
	StageFilter
	// StageVerify covers one shard's exact verification of its candidates.
	StageVerify
	// StageMerge covers the engine-level gather: remap, union, sort.
	StageMerge
)

// String names the stage as it appears in traces, logs and metric labels.
func (s Stage) String() string {
	switch s {
	case StageAdmit:
		return "admit"
	case StageFilter:
		return "filter"
	case StageVerify:
		return "verify"
	case StageMerge:
		return "merge"
	default:
		return "unknown"
	}
}

// Span is one timed stage of a traced query. Start and Dur are monotonic
// offsets from the recorder's birth, so spans recorded by concurrent shard
// goroutines lie on one shared timeline (and may overlap).
type Span struct {
	Stage Stage
	// Shard is the shard the span ran on; -1 for engine- or query-level
	// spans (admit, merge).
	Shard int
	Start time.Duration
	Dur   time.Duration
	// SearchStats counters attributed to this span, where the stage has
	// them: filter spans carry probe/scan/candidate counts, verify spans
	// carry candidates in and results out.
	ListsProbed     int
	PostingsScanned int
	Candidates      int
	Results         int
}

// PrunedShard records one shard skipped before dispatch: its extent-overlap
// similarity bound provably cannot reach the query's spatial threshold.
type PrunedShard struct {
	Shard int
	// Bound is the upper bound on any member's spatial similarity to the
	// query; the shard was pruned because Bound < TauR (with margin).
	Bound float64
	TauR  float64
}

// Rec records one query's trace. The zero value is not useful; create with
// New. A nil *Rec is the disabled recorder: every method no-ops, so code
// threads a possibly-nil *Rec unconditionally.
type Rec struct {
	start time.Time

	mu     sync.Mutex
	spans  []Span
	pruned []PrunedShard
}

// New starts a recorder; its birth is the trace's time zero.
func New() *Rec { return &Rec{start: time.Now()} }

// Offset converts an absolute time into the recorder's monotonic timeline.
// Callers that already hold a stage's start time.Now() reuse it here, so
// tracing adds no extra clock reads to paths that time themselves anyway.
func (r *Rec) Offset(t time.Time) time.Duration {
	if r == nil {
		return 0
	}
	return t.Sub(r.start)
}

// AddSpan records one stage span.
func (r *Rec) AddSpan(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// AddPruned records one shard skipped by extent pruning.
func (r *Rec) AddPruned(p PrunedShard) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.pruned = append(r.pruned, p)
	r.mu.Unlock()
}

// Snapshot copies the recorded trace out and reports the elapsed time since
// the recorder's birth. The copies are the caller's; recording may continue
// (an abandoned shard search finishing in the background appends to the Rec,
// never to a snapshot).
func (r *Rec) Snapshot() (spans []Span, pruned []PrunedShard, elapsed time.Duration) {
	if r == nil {
		return nil, nil, 0
	}
	elapsed = time.Since(r.start)
	r.mu.Lock()
	defer r.mu.Unlock()
	spans = append([]Span(nil), r.spans...)
	pruned = append([]PrunedShard(nil), r.pruned...)
	return spans, pruned, elapsed
}

package trace

import (
	"sync"
	"testing"
	"time"
)

// TestNilRecIsDisabled: every method must no-op on a nil recorder — the
// untraced hot path threads a nil *Rec through the whole pipeline.
func TestNilRecIsDisabled(t *testing.T) {
	var r *Rec
	r.AddSpan(Span{Stage: StageFilter})
	r.AddPruned(PrunedShard{})
	if got := r.Offset(time.Now()); got != 0 {
		t.Fatalf("nil Rec Offset = %v, want 0", got)
	}
	spans, pruned, elapsed := r.Snapshot()
	if spans != nil || pruned != nil || elapsed != 0 {
		t.Fatalf("nil Rec Snapshot = (%v, %v, %v), want all empty", spans, pruned, elapsed)
	}
}

// TestRecordAndSnapshot: spans land on a shared monotonic timeline and the
// snapshot is an independent copy.
func TestRecordAndSnapshot(t *testing.T) {
	r := New()
	start := time.Now()
	off := r.Offset(start)
	if off < 0 {
		t.Fatalf("Offset of a later time is negative: %v", off)
	}
	r.AddSpan(Span{Stage: StageFilter, Shard: 2, Start: off, Dur: time.Microsecond, Candidates: 7})
	r.AddPruned(PrunedShard{Shard: 3, Bound: 0.01, TauR: 0.3})

	spans, pruned, elapsed := r.Snapshot()
	if len(spans) != 1 || len(pruned) != 1 {
		t.Fatalf("snapshot sizes = (%d, %d), want (1, 1)", len(spans), len(pruned))
	}
	if elapsed <= 0 {
		t.Fatalf("elapsed = %v, want > 0", elapsed)
	}
	if spans[0].Stage != StageFilter || spans[0].Shard != 2 || spans[0].Candidates != 7 {
		t.Fatalf("span round-trip mismatch: %+v", spans[0])
	}
	if pruned[0] != (PrunedShard{Shard: 3, Bound: 0.01, TauR: 0.3}) {
		t.Fatalf("pruned round-trip mismatch: %+v", pruned[0])
	}

	// The snapshot must not alias the recorder: later appends stay invisible.
	r.AddSpan(Span{Stage: StageMerge})
	if len(spans) != 1 {
		t.Fatal("snapshot aliases the recorder")
	}
	spans2, _, _ := r.Snapshot()
	if len(spans2) != 2 {
		t.Fatalf("second snapshot has %d spans, want 2", len(spans2))
	}
}

// TestConcurrentRecording: shards record from their own goroutines; the
// recorder must tolerate concurrent appends and snapshots (run under -race).
func TestConcurrentRecording(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	const workers, each = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.AddSpan(Span{Stage: StageFilter, Shard: w})
				r.AddPruned(PrunedShard{Shard: w})
				if i%10 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	spans, pruned, _ := r.Snapshot()
	if len(spans) != workers*each || len(pruned) != workers*each {
		t.Fatalf("got %d spans, %d pruned, want %d each", len(spans), len(pruned), workers*each)
	}
}

// TestStageString pins the stage names — they are metric labels and wire
// values, so renames are breaking changes.
func TestStageString(t *testing.T) {
	want := map[Stage]string{
		StageAdmit:  "admit",
		StageFilter: "filter",
		StageVerify: "verify",
		StageMerge:  "merge",
		Stage(99):   "unknown",
	}
	for s, name := range want {
		if got := s.String(); got != name {
			t.Errorf("Stage(%d).String() = %q, want %q", s, got, name)
		}
	}
}

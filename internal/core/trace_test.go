package core_test

// Tracing tests at the searcher layer: a live recorder must capture the
// filter/verify phase split with the search's own counters and change nothing
// about the answer, and a detached recorder must restore the zero-allocation
// steady state — tracing is observability, never a second execution path.

import (
	"testing"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/trace"
)

// TestSearchTraceSpans: a traced Search records exactly one filter and one
// verify span on the attributed shard, carrying the same counters the stats
// report, on one monotonic timeline.
func TestSearchTraceSpans(t *testing.T) {
	ds := allocDataset(t, 400)
	queries := allocQueries(t, ds, 4)
	for _, f := range allocFilters(t, ds) {
		s := core.NewSearcher(ds, f)
		rec := trace.New()
		s.SetTrace(rec, 3)
		for qi, q := range queries {
			before, _, _ := rec.Snapshot()
			matches, st := s.Search(q)
			spans, _, elapsed := rec.Snapshot()
			spans = spans[len(before):]

			if len(spans) != 2 {
				t.Fatalf("%s query %d: %d spans recorded, want 2 (filter+verify)", f.Name(), qi, len(spans))
			}
			filter, verify := spans[0], spans[1]
			if filter.Stage != trace.StageFilter || verify.Stage != trace.StageVerify {
				t.Fatalf("%s query %d: stages = %v,%v, want filter,verify", f.Name(), qi, filter.Stage, verify.Stage)
			}
			for _, sp := range spans {
				if sp.Shard != 3 {
					t.Errorf("%s query %d: %v span on shard %d, want 3", f.Name(), qi, sp.Stage, sp.Shard)
				}
			}
			if filter.ListsProbed != st.ListsProbed || filter.PostingsScanned != st.PostingsScanned ||
				filter.Candidates != st.Candidates {
				t.Errorf("%s query %d: filter span counters %d/%d/%d != stats %d/%d/%d",
					f.Name(), qi, filter.ListsProbed, filter.PostingsScanned, filter.Candidates,
					st.ListsProbed, st.PostingsScanned, st.Candidates)
			}
			if verify.Results != st.Results || verify.Results != len(matches) {
				t.Errorf("%s query %d: verify span results %d, want %d", f.Name(), qi, verify.Results, st.Results)
			}
			if filter.Dur != st.FilterTime || verify.Dur != st.VerifyTime {
				t.Errorf("%s query %d: span durations %v/%v != phase times %v/%v",
					f.Name(), qi, filter.Dur, verify.Dur, st.FilterTime, st.VerifyTime)
			}
			// The phases share one timeline: verify starts at or after the
			// filter phase ends, and nothing extends past the snapshot.
			if verify.Start < filter.Start+filter.Dur {
				t.Errorf("%s query %d: verify starts at %v inside filter span [%v, %v)",
					f.Name(), qi, verify.Start, filter.Start, filter.Start+filter.Dur)
			}
			if end := verify.Start + verify.Dur; end > elapsed {
				t.Errorf("%s query %d: verify span ends at %v past snapshot elapsed %v", f.Name(), qi, end, elapsed)
			}
		}
	}
}

// TestStreamTraceSpans pins the streaming span conventions: ByID keeps the
// two-phase split, arrival order records one filter span covering the whole
// interleaved scan and no verify span.
func TestStreamTraceSpans(t *testing.T) {
	ds := allocDataset(t, 400)
	q := allocQueries(t, ds, 1)[0]
	s := core.NewSearcher(ds, core.NewTokenFilter(ds))
	emit := func(core.Match) bool { return true }

	rec := trace.New()
	s.SetTrace(rec, 0)
	st := s.SearchStream(q, core.StreamOptions{ByID: true, Emit: emit})
	spans, _, _ := rec.Snapshot()
	if len(spans) != 2 || spans[0].Stage != trace.StageFilter || spans[1].Stage != trace.StageVerify {
		t.Fatalf("ByID stream: spans %v, want [filter verify]", spans)
	}
	if spans[1].Results != st.Results {
		t.Errorf("ByID stream: verify span results %d, want %d", spans[1].Results, st.Results)
	}

	rec = trace.New()
	s.SetTrace(rec, 0)
	st = s.SearchStream(q, core.StreamOptions{Emit: emit})
	spans, _, _ = rec.Snapshot()
	if len(spans) != 1 || spans[0].Stage != trace.StageFilter {
		t.Fatalf("arrival stream: spans %v, want exactly one filter span", spans)
	}
	if spans[0].Results != st.Results || spans[0].Candidates != st.Candidates {
		t.Errorf("arrival stream: span results/candidates %d/%d, want %d/%d",
			spans[0].Results, spans[0].Candidates, st.Results, st.Candidates)
	}
}

// TestTraceDoesNotChangeAnswers: attaching and detaching a recorder is
// invisible to the result — traced and untraced runs are bit-identical.
func TestTraceDoesNotChangeAnswers(t *testing.T) {
	ds := allocDataset(t, 400)
	queries := allocQueries(t, ds, 6)
	for _, f := range allocFilters(t, ds) {
		s := core.NewSearcher(ds, f)
		for qi, q := range queries {
			plain, plainSt := s.Search(q)
			plainCopy := append([]core.Match(nil), plain...)

			s.SetTrace(trace.New(), 0)
			traced, tracedSt := s.Search(q)
			s.SetTrace(nil, 0)

			if len(traced) != len(plainCopy) {
				t.Fatalf("%s query %d: traced %d matches, untraced %d", f.Name(), qi, len(traced), len(plainCopy))
			}
			for i := range traced {
				if traced[i] != plainCopy[i] {
					t.Fatalf("%s query %d match %d: traced %+v != untraced %+v",
						f.Name(), qi, i, traced[i], plainCopy[i])
				}
			}
			if tracedSt.Candidates != plainSt.Candidates || tracedSt.Results != plainSt.Results {
				t.Errorf("%s query %d: traced stats %d/%d != untraced %d/%d", f.Name(), qi,
					tracedSt.Candidates, tracedSt.Results, plainSt.Candidates, plainSt.Results)
			}
		}
	}
}

// TestDetachedTraceZeroAllocs: after a searcher has been traced, detaching
// the recorder restores the allocation-free steady state — the tracing field
// is one nil check on the hot path, not a lingering cost.
func TestDetachedTraceZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ds := allocDataset(t, 600)
	queries := allocQueries(t, ds, 8)
	for _, f := range allocFilters(t, ds) {
		s := core.NewSearcher(ds, f)
		// Trace a full pass first: the detached assertion must hold on a
		// searcher that has really recorded spans, not just a fresh one.
		s.SetTrace(trace.New(), 1)
		for _, q := range queries {
			s.Search(q)
		}
		s.SetTrace(nil, 0)
		for i := 0; i < 2; i++ {
			for _, q := range queries {
				s.Search(q)
			}
		}
		for qi, q := range queries {
			if avg := testing.AllocsPerRun(20, func() { s.Search(q) }); avg != 0 {
				t.Errorf("%s query %d after detach: %.1f allocs/op, want 0", f.Name(), qi, avg)
			}
		}
	}
}

package core

// Streaming execution: the push-based path behind the engine's Stream/Query
// API. A streamed search emits each verified match through a callback the
// moment it is proven, instead of materializing the full match slice, and
// polls a stop hook so that a consumer that has seen enough (a Limit, a
// canceled context, a shard whose work became irrelevant) interrupts the
// remaining filter scans and verifications — early termination reduces the
// work actually done, it does not merely truncate the answer.

import (
	"slices"
	"time"

	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/trace"
)

// StreamOptions parameterizes Searcher.SearchStream.
type StreamOptions struct {
	// Emit receives each verified match and reports whether the consumer
	// wants more; returning false stops the search. Required.
	Emit func(Match) bool
	// Stop, when non-nil, is polled between filter work units and between
	// verifications; returning true abandons the search. Wire it to context
	// cancellation or a shared emission counter.
	Stop func() bool
	// ByID delays verification until collection finishes and verifies in
	// ascending object-ID order, so matches emit ID-sorted exactly like
	// Search's result slice. The default verifies each candidate the moment
	// the filter produces it, which lets a Stop hook that trips once enough
	// matches were emitted cut the remaining postings scans — at the cost of
	// an unspecified emission order.
	ByID bool
}

// SearchStream answers q incrementally, pushing every verified match to
// opts.Emit as soon as it is proven. The returned stats report the work
// actually performed: an early-terminated search reports fewer postings,
// candidates and results than Search would.
//
// In the default arrival-order mode verification interleaves with
// collection, so the phase split is not observable; the entire elapsed time
// is reported as FilterTime and VerifyTime stays zero. The ByID mode keeps
// Search's two-phase timing.
func (s *Searcher) SearchStream(q *model.Query, opts StreamOptions) SearchStats {
	if opts.ByID {
		return s.streamByID(q, opts)
	}
	var st SearchStats
	start := time.Now()
	s.beginQuery(q)
	stopped := false
	stop := func() bool {
		return stopped || (opts.Stop != nil && opts.Stop())
	}
	s.cs.onAdd = func(obj uint32) {
		if stopped {
			// The consumer already declined a match; the filter keeps adding
			// candidates until its next stop poll, but verifying them would
			// be wasted work.
			return
		}
		m, ok := s.verify(q, model.ObjectID(obj))
		if !ok {
			return
		}
		if !opts.Emit(m) {
			stopped = true
			return
		}
		st.Results++
	}
	// The hook must not outlive this call: the searcher returns to its pool
	// and the next Search must not verify through a dead stream.
	defer func() { s.cs.onAdd = nil }()
	s.filter.Collect(q, s.cs, &st.FilterStats, stop, &s.scr)
	st.Candidates = s.cs.Len()
	st.FilterTime = time.Since(start)
	if s.tr != nil {
		// Arrival mode interleaves verification with collection, so the
		// phase split is not observable: the single filter span carries the
		// whole interleaved scan, results included, and no verify span is
		// recorded — mirroring the FilterTime/VerifyTime convention above.
		s.traceSpan(trace.StageFilter, start, st.FilterTime, &st)
	}
	return st
}

// streamByID is SearchStream's ordered mode: collection runs to completion
// (interrupted only by opts.Stop, e.g. a canceled context), candidates sort
// by ID, and verification proceeds in ascending ID order until Emit declines
// further matches — so a consumer wanting the L smallest-ID matches caps the
// verification work at L successes.
func (s *Searcher) streamByID(q *model.Query, opts StreamOptions) SearchStats {
	s.stats = SearchStats{}
	st := &s.stats
	start := time.Now()
	s.beginQuery(q)
	s.filter.Collect(q, s.cs, &st.FilterStats, opts.Stop, &s.scr)
	st.Candidates = s.cs.Len()
	st.FilterTime = time.Since(start)
	if s.tr != nil {
		s.traceSpan(trace.StageFilter, start, st.FilterTime, st)
	}

	start = time.Now()
	ids := append(s.scr.ids[:0], s.cs.IDs()...)
	s.scr.ids = ids
	slices.Sort(ids)
	for _, obj := range ids {
		if opts.Stop != nil && opts.Stop() {
			break
		}
		m, ok := s.verify(q, model.ObjectID(obj))
		if !ok {
			continue
		}
		if !opts.Emit(m) {
			break
		}
		st.Results++
	}
	st.VerifyTime = time.Since(start)
	if s.tr != nil {
		s.traceSpan(trace.StageVerify, start, st.VerifyTime, st)
	}
	return *st
}

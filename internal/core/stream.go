package core

// Streaming execution: the push-based path behind the engine's Stream/Query
// API. A streamed search emits each verified match through a callback the
// moment it is proven, instead of materializing the full match slice, and
// polls a stop hook so that a consumer that has seen enough (a Limit, a
// canceled context, a shard whose work became irrelevant) interrupts the
// remaining filter scans and verifications — early termination reduces the
// work actually done, it does not merely truncate the answer.

import (
	"time"

	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/trace"
)

// SearchStream answers q incrementally: each candidate is verified the
// moment the filter produces it, and every match goes to emit at once, in
// no particular order. emit reports whether the consumer wants more;
// returning false stops the search. stop, which may be nil, is polled
// between filter work units; returning true abandons the search. Wire it to
// context cancellation or a shared emission counter, so a consumer that has
// enough cuts the remaining posting scans.
//
// The returned stats report the work actually performed: an early-terminated
// search reports fewer postings, candidates and results than Search would.
// Verification interleaves with collection, so the phase split is not
// observable; the entire elapsed time is reported as FilterTime and
// VerifyTime stays zero.
func (s *Searcher) SearchStream(q *model.Query, stop func() bool, emit func(Match) bool) SearchStats {
	var st SearchStats
	start := time.Now()
	s.beginQuery(q)
	stopped := false
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
		if !emit(m) {
			stopped = true
			return
		}
		st.Results++
	}
	// The hook must not outlive this call: the searcher returns to its pool
	// and the next Search must not verify through a dead stream.
	defer func() { s.cs.onAdd = nil }()
	s.filter.Collect(q, s.cs, &st.FilterStats, func() bool {
		return stopped || (stop != nil && stop())
	}, &s.scr)
	st.Candidates = s.cs.Len()
	st.FilterTime = time.Since(start)
	if s.tr != nil {
		// Verification interleaves with collection, so the single filter
		// span carries the whole interleaved scan, results included, and no
		// verify span is recorded — mirroring the FilterTime/VerifyTime
		// convention above.
		s.traceSpan(trace.StageFilter, start, st.FilterTime, &st)
	}
	return st
}

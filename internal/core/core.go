// Package core implements the SEAL method itself (Sections 3–5): the
// filter-and-verification framework, textual and grid-based signature
// filters with threshold-aware (prefix) pruning, the hash-based and
// hierarchical hybrid filters, and grid-granularity selection.
//
// Every filter implements the Filter interface: given a compiled query it
// produces a candidate superset of the answers; the shared Searcher then
// verifies candidates with exact similarity computations (Sig-Verify). The
// Searcher runs that loop in three shapes — Search (a sweep of the candidate
// rows in ascending order, optionally limited), SearchStream (arrival order)
// and TopK (threshold descent) — and every one takes the same stop hook.
// The completeness contract — candidates ⊇ answers for every legal query —
// is what the property tests in this package enforce against a brute-force
// oracle.
//
// The hot path is engineered around per-searcher scratch: a Searcher owns
// every buffer a query needs (candidate set, grid signatures, match slice),
// so steady-state threshold searches do zero heap allocations — see the
// AllocsPerRun regression tests. Every filter leaves the same thing behind,
// a set of candidate rows, and verification computes each one's SimT by the
// same sorted merge of token sets.
package core

import (
	"math/bits"
	"time"

	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/trace"
)

// FilterStats counts the work done by one Collect call.
type FilterStats struct {
	// ListsProbed is the number of inverted lists examined.
	ListsProbed int
	// PostingsScanned is the number of postings examined, including hybrid
	// postings rejected by their textual bound.
	PostingsScanned int
	// Candidates is the number of distinct candidate objects produced.
	Candidates int
}

// Add accumulates other's counters into s. It is the merge step of
// scatter-gather search: per-shard filter work sums into one report.
func (s *FilterStats) Add(other FilterStats) {
	s.ListsProbed += other.ListsProbed
	s.PostingsScanned += other.PostingsScanned
	s.Candidates += other.Candidates
}

// Filter generates candidate objects whose signatures are similar to the
// query's (the filter step of Figure 3). A filter is shared by every Searcher
// over it, so Collect keeps its per-query state in cs and scr, never on the
// filter. The candidate set is a filter's only output: the Searcher verifies
// every candidate the same way, whichever filter found it.
type Filter interface {
	// Name identifies the filter in experiment output, e.g. "GridFilter(1024)".
	Name() string
	// SizeBytes estimates the filter's index footprint (Table 1).
	SizeBytes() int64
	// Collect adds every candidate for q to cs and accounts work in st,
	// drawing every temporary buffer from scr so the steady state allocates
	// nothing. Implementations must guarantee candidates ⊇ exact answers —
	// unless stop, which may be nil, fires: it is polled between units of
	// work (inverted-list probes, tree nodes, object batches), and once it
	// returns true collection is abandoned, leaving cs with the candidates
	// found so far. Abandonment is safe: a stopped search never claims its
	// partial candidate set is complete — the caller asked it to stop
	// producing.
	//
	// A Collect into a set not Reset since the previous Collect through the
	// same scr continues that one: same query, thresholds no higher (a top-k
	// descent's next round). The signature filters then resume from scr —
	// each list picks up where its scan stopped, so a probe, a posting and a
	// candidate count once however many rounds reach them; other filters
	// collect again and the set drops the repeats.
	Collect(q *model.Query, cs *CandidateSet, st *FilterStats, stop func() bool, scr *Scratch)
}

// CandidateSet is a reusable, allocation-free set of dataset rows: a bitmap
// with one bit a row, beside the list of rows in the order a filter found
// them. Search sweeps the bitmap, so it verifies in ascending row order —
// object-ID order inside a shard, whose rows ascend by ID; the arrival list
// feeds top-k rounds and the stream. A summary with one bit a bitmap word
// marks the words holding a row, so the sweep reads only those: a few
// candidates cost a few words, not the shard's size.
// It is not safe for concurrent use; create one per goroutine.
type CandidateSet struct {
	bits []uint64
	sum  []uint64 // bit w is set when bits[w] is not zero
	ids  []uint32
	// resets counts Resets, so Scratch can tell a fresh query from the next
	// round of the last one.
	resets uint64
	// onAdd, when non-nil, observes every distinct object at insertion.
	// SearchStream hooks verification here so matches emit while the filter
	// is still collecting.
	onAdd func(obj uint32)
}

// NewCandidateSet creates a set for datasets of n objects.
func NewCandidateSet(n int) *CandidateSet {
	words := (n + 63) / 64
	return &CandidateSet{bits: make([]uint64, words), sum: make([]uint64, (words+63)/64)}
}

// Reset empties the set, clearing only the bitmap and summary words its rows
// set.
func (c *CandidateSet) Reset() {
	c.resets++
	for _, obj := range c.ids {
		c.bits[obj/64] = 0
		c.sum[obj/(64*64)] = 0
	}
	c.ids = c.ids[:0]
}

// Add inserts obj, ignoring duplicates.
func (c *CandidateSet) Add(obj uint32) {
	w, b := obj/64, uint64(1)<<(obj%64)
	if c.bits[w]&b != 0 {
		return
	}
	c.bits[w] |= b
	c.sum[w/64] |= 1 << (w % 64)
	c.ids = append(c.ids, obj)
	if c.onAdd != nil {
		c.onAdd(obj)
	}
}

// Contains reports whether obj is in the set.
func (c *CandidateSet) Contains(obj uint32) bool { return c.bits[obj/64]&(1<<(obj%64)) != 0 }

// Len returns the number of distinct objects added since the last Reset.
func (c *CandidateSet) Len() int { return len(c.ids) }

// IDs returns the distinct objects in insertion order. The slice is
// invalidated by the next Reset.
func (c *CandidateSet) IDs() []uint32 { return c.ids }

// Match is one verified answer with its exact similarities.
type Match struct {
	ID   model.ObjectID // the object ID, not the row the searcher verified
	SimR float64
	SimT float64
}

// SearchStats reports one query's cost breakdown, mirroring the
// filter-time / verification-time split of the paper's Figure 13.
type SearchStats struct {
	FilterStats
	Results    int
	FilterTime time.Duration
	VerifyTime time.Duration
	// MergeTime is the engine's gather of the per-shard answers into one,
	// stamped by the engine's materializing sinks (a Searcher and a stream
	// report zero).
	MergeTime time.Duration
	// Shards counts the shard searches that actually ran for this query.
	// The engine stamps it when merging per-shard reports (a Searcher used
	// directly always reports zero), so on an early-terminated query it is
	// the realized fan-out, not the shard count of the index.
	Shards int
	// ShardsPruned counts shards skipped before dispatch because their
	// partition extent provably cannot reach TauR against the query rect.
	// Like Shards it is stamped by the engine, on every query.
	ShardsPruned int
	// ShardErrors counts shards dropped from this query's merge because they
	// failed, panicked, timed out, or were quarantined at open time. Always
	// zero on default (strict) queries, which fail instead of dropping; only
	// partial-tolerant queries record drops.
	ShardErrors int
}

// Elapsed returns the total query time.
func (s SearchStats) Elapsed() time.Duration { return s.FilterTime + s.VerifyTime }

// Merge accumulates another (sub)search's cost into s. Counters add, and so
// do the phase times: after merging shard searches that ran concurrently, the
// times report aggregate work across shards, not wall-clock time.
func (s *SearchStats) Merge(other SearchStats) {
	s.FilterStats.Add(other.FilterStats)
	s.Results += other.Results
	s.FilterTime += other.FilterTime
	s.VerifyTime += other.VerifyTime
	s.MergeTime += other.MergeTime
	s.Shards += other.Shards
	s.ShardsPruned += other.ShardsPruned
	s.ShardErrors += other.ShardErrors
}

// Searcher runs the two-step SealSig algorithm: filter, then verify. Its
// query methods share one contract: each takes a stop hook, which may be nil,
// polls it between units of work, and when it fires returns the work done so
// far and no error of its own — the caller that stopped it knows why.
// A Searcher owns every per-query buffer (candidate set, scratch, match
// slice, ranking) so that steady-state threshold searches allocate nothing
// and a top-k descent allocates only the ranking it returns.
// It is not safe for concurrent use; create one per goroutine (the dataset
// and filters may be shared).
type Searcher struct {
	ds     *model.Dataset
	filter Filter
	cs     *CandidateSet
	scr    Scratch
	// matches is the reused result buffer; see Search.
	matches []Match
	// stats is the per-call stats scratch: a stack-local SearchStats would
	// escape through the Filter interface call and cost one heap allocation
	// per query.
	stats SearchStats
	// q is a top-k descent's copy of its query, whose thresholds the rounds
	// move; ranked holds the descent's verified entries (see TopK).
	q      model.Query
	ranked []ScoredMatch
	// tr, when non-nil, receives filter and verify spans for every search,
	// attributed to shard trShard. The untraced path pays one nil check per
	// phase — the zero-allocation contract holds exactly when tr is nil.
	tr      *trace.Rec
	trShard int
}

// NewSearcher pairs a dataset with a filter.
func NewSearcher(ds *model.Dataset, f Filter) *Searcher {
	return &Searcher{ds: ds, filter: f, cs: NewCandidateSet(ds.Len())}
}

// SetTrace attaches a span recorder: subsequent searches on this Searcher
// record filter and verify spans attributed to shard. A nil r detaches.
// Pools clear the tracer on Put, so a recorder never leaks to the next
// borrower of a pooled searcher.
func (s *Searcher) SetTrace(r *trace.Rec, shard int) {
	s.tr = r
	s.trShard = shard
}

// traceSpan emits one stage span reusing the phase timing the search already
// measured — tracing adds no clock reads of its own.
func (s *Searcher) traceSpan(stage trace.Stage, start time.Time, dur time.Duration, st *SearchStats) {
	s.tr.AddSpan(trace.Span{
		Stage:           stage,
		Shard:           s.trShard,
		Start:           s.tr.Offset(start),
		Dur:             dur,
		ListsProbed:     st.ListsProbed,
		PostingsScanned: st.PostingsScanned,
		Candidates:      st.Candidates,
		Results:         st.Results,
	})
}

// Filter returns the searcher's filter.
func (s *Searcher) Filter() Filter { return s.filter }

// Search answers q: it collects candidates, then sweeps them in ascending
// row order, verifies each against the exact similarity thresholds, and stops
// once limit of them match (limit 0: none is skipped). A shard's rows ascend
// by object ID, so the matches come out sorted by ID, and a limited answer is
// the limit-prefix of the unlimited one at the cost of at most limit
// successful verifications.
//
// stop, which may be nil, is polled between filter work units; once it
// returns true collection is abandoned, and the candidates found so far are
// verified into an ascending subset of the answer.
//
// The returned slice is owned by the Searcher and reused: it is valid only
// until the next call on this Searcher. Callers that retain results across
// calls (or hand the searcher back to a pool) must copy them first.
func (s *Searcher) Search(q *model.Query, stop func() bool, limit int) ([]Match, SearchStats) {
	s.stats = SearchStats{}
	st := &s.stats
	start := time.Now()
	s.cs.Reset()
	s.filter.Collect(q, s.cs, &st.FilterStats, stop, &s.scr)
	st.Candidates = s.cs.Len()
	st.FilterTime = time.Since(start)
	if s.tr != nil {
		s.traceSpan(trace.StageFilter, start, st.FilterTime, st)
	}

	start = time.Now()
	matches := s.matches[:0]
	// The sweep tests nothing per candidate, not even stop: a check on every
	// candidate costs about 15 % of the verify time when most candidates
	// fail, and the candidate count already bounds the loop.
sweep:
	for sw, marks := range s.cs.sum {
		for ; marks != 0; marks &= marks - 1 {
			w := sw*64 + bits.TrailingZeros64(marks)
			for word := s.cs.bits[w]; word != 0; word &= word - 1 {
				row := model.ObjectID(w*64 + bits.TrailingZeros64(word))
				if m, ok := s.verify(q, row); ok {
					matches = append(matches, m)
					if len(matches) == limit {
						break sweep
					}
				}
			}
		}
	}
	s.matches = matches
	st.VerifyTime = time.Since(start)
	st.Results = len(matches)
	if s.tr != nil {
		s.traceSpan(trace.StageVerify, start, st.VerifyTime, st)
	}
	return matches, *st
}

// verify is the exact verification step shared by every execution path:
// it computes both similarities and reports whether the row passes q's
// thresholds. Streamed and materialized searches must agree on this
// predicate exactly — the Stream==Search property tests depend on it.
func (s *Searcher) verify(q *model.Query, row model.ObjectID) (Match, bool) {
	return s.verifyAt(q, row, q.TauR, q.TauT)
}

// verifyAt is verify against explicit thresholds in place of q's: a top-k
// descent verifies each candidate once, against its floors. The candidate is
// a row of the searcher's dataset; the match carries its object ID.
func (s *Searcher) verifyAt(q *model.Query, row model.ObjectID, tauR, tauT float64) (Match, bool) {
	simR := s.ds.SimR(q, row)
	if simR < tauR {
		return Match{}, false
	}
	simT := s.ds.SimT(q, row)
	if simT < tauT {
		return Match{}, false
	}
	return Match{ID: s.ds.ID(row), SimR: simR, SimT: simT}, true
}

// Thresholds derives the signature similarity thresholds of the paper:
// cR = τR·|q.R| (Lemma 1) and cT = τT·Σ_{t∈q.T} w(t) (Section 3.2).
func Thresholds(q *model.Query) (cR, cT float64) {
	return q.TauR * q.Area(), q.TauT * q.TotalWeight
}

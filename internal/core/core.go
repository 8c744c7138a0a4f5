// Package core implements the SEAL method itself (Sections 3–5): the
// filter-and-verification framework, textual and grid-based signature
// filters with threshold-aware (prefix) pruning, the hash-based and
// hierarchical hybrid filters, and grid-granularity selection.
//
// Every filter implements the Filter interface: given a compiled query it
// produces a candidate superset of the answers; the shared Searcher then
// verifies candidates with exact similarity computations (Sig-Verify). The
// Searcher runs that loop in three shapes — Search (ID-ordered, optionally
// limited), SearchStream (arrival order) and TopK (threshold descent) —
// and every one takes the same stop hook.
// The completeness contract — candidates ⊇ answers for every legal query —
// is what the property tests in this package enforce against a brute-force
// oracle.
//
// The hot path is engineered around two ideas. First, scan-time SimT
// accumulation: filters whose posting keys prove token membership (token and
// exact-key hybrid filters) mark each proven (token, object) pair in the
// CandidateSet's per-object accumulator as they scan, so verification
// reconstructs the exact common token weight from those marks instead of
// re-intersecting the token sets. Second, per-searcher scratch: a Searcher
// owns every buffer a query needs (candidate set, accumulator, grid
// signatures, match slice), so steady-state threshold searches do zero heap
// allocations — see the AllocsPerRun regression tests.
package core

import (
	"slices"
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
// filter.
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

// simTAccumulator is the capability a filter declares when its Collect
// proves token membership through posting keys and records it with
// CandidateSet.AddAcc: every bit it sets for (object, signature position i)
// must certify SigTokens[i] ∈ o.T. The Searcher then verifies SimT through
// model.Dataset.SimTAccum instead of a full sorted-merge intersection.
type simTAccumulator interface {
	accumulatesSimT() bool
}

// CandidateSet is a reusable, allocation-free set of object IDs using
// epoch-based marking, with an optional per-object accumulator of proven
// query-token memberships. It is not safe for concurrent use; create one
// per goroutine.
type CandidateSet struct {
	mark  []uint32
	epoch uint32
	ids   []uint32
	// accBits[obj] marks which of the query's signature positions (bit i ⇔
	// Query.SigTokens[i]) were proven to be in obj's token set during the
	// scan. Allocated on the first EnableAccum — at 8 bytes per object it
	// would triple the set's footprint for filters that never accumulate.
	// Valid only while accOn; lazily re-zeroed on an object's first
	// insertion of the epoch, like mark.
	accBits []uint64
	accOn   bool
	// onAdd, when non-nil, observes every distinct object at insertion.
	// SearchStream hooks verification here so matches emit while the filter
	// is still collecting.
	onAdd func(obj uint32)
}

// NewCandidateSet creates a set for datasets of n objects.
func NewCandidateSet(n int) *CandidateSet {
	return &CandidateSet{mark: make([]uint32, n), epoch: 0}
}

// Reset empties the set in O(1) and disables accumulation (re-enable per
// query with EnableAccum).
func (c *CandidateSet) Reset() {
	c.epoch++
	c.ids = c.ids[:0]
	c.accOn = false
	if c.epoch == 0 { // epoch wrapped: clear marks once every 2^32 resets
		for i := range c.mark {
			c.mark[i] = 0
		}
		// Partial scores from 2^32 resets ago must not alias the fresh
		// epoch's marks: clear them with the same sweep (nil when no query
		// ever accumulated).
		for i := range c.accBits {
			c.accBits[i] = 0
		}
		c.epoch = 1
	}
}

// EnableAccum turns on the membership accumulator for the current epoch.
// Call it right after Reset, before the filter scans. The first call pays
// the accumulator array's allocation; subsequent queries reuse it.
func (c *CandidateSet) EnableAccum() {
	if c.accBits == nil {
		c.accBits = make([]uint64, len(c.mark))
	}
	c.accOn = true
}

// Accumulating reports whether AddAcc marks are being recorded this epoch.
func (c *CandidateSet) Accumulating() bool { return c.accOn }

// Add inserts obj, ignoring duplicates.
func (c *CandidateSet) Add(obj uint32) {
	if c.mark[obj] == c.epoch {
		return
	}
	c.mark[obj] = c.epoch
	if c.accOn {
		c.accBits[obj] = 0
	}
	c.ids = append(c.ids, obj)
	if c.onAdd != nil {
		c.onAdd(obj)
	}
}

// AddAcc inserts obj and, when accumulation is enabled, records that the
// query's signature token at position bit is contained in obj's token set.
// Filters may call it with any bit ordering; duplicate marks are idempotent.
func (c *CandidateSet) AddAcc(obj uint32, bit uint32) {
	if c.mark[obj] == c.epoch {
		if c.accOn {
			c.accBits[obj] |= 1 << (bit & 63)
		}
		return
	}
	c.mark[obj] = c.epoch
	if c.accOn {
		c.accBits[obj] = 1 << (bit & 63)
	}
	c.ids = append(c.ids, obj)
	if c.onAdd != nil {
		c.onAdd(obj)
	}
}

// AccBits returns obj's accumulated membership marks for the current epoch.
// Only meaningful for objects inserted since the last Reset while
// accumulation was enabled.
func (c *CandidateSet) AccBits(obj uint32) uint64 {
	if !c.accOn || c.mark[obj] != c.epoch {
		return 0
	}
	return c.accBits[obj]
}

// Contains reports whether obj is in the set.
func (c *CandidateSet) Contains(obj uint32) bool { return c.mark[obj] == c.epoch }

// Len returns the number of distinct objects added since the last Reset.
func (c *CandidateSet) Len() int { return len(c.ids) }

// IDs returns the distinct objects in insertion order. The slice is
// invalidated by the next Reset.
func (c *CandidateSet) IDs() []uint32 { return c.ids }

// Match is one verified answer with its exact similarities.
type Match struct {
	ID   model.ObjectID
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
	s.Shards += other.Shards
	s.ShardsPruned += other.ShardsPruned
	s.ShardErrors += other.ShardErrors
}

// Searcher runs the two-step SealSig algorithm: filter, then verify. Its
// query methods share one contract: each takes a stop hook, which may be nil,
// polls it between units of work, and when it fires returns the work done so
// far and no error of its own — the caller that stopped it knows why.
// A Searcher owns every per-query buffer (candidate set, accumulator,
// scratch, match slice, ranking) so that steady-state threshold searches
// allocate nothing and a top-k descent allocates only the ranking it returns.
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
	// accum caches whether the filter certifies token memberships.
	accum bool
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
	s := &Searcher{ds: ds, filter: f, cs: NewCandidateSet(ds.Len())}
	if a, ok := f.(simTAccumulator); ok {
		s.accum = a.accumulatesSimT()
	}
	return s
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

// beginQuery readies the candidate set for q: reset, then arm the SimT
// accumulator when the filter certifies memberships and the query's token
// count fits the 64-bit marks.
func (s *Searcher) beginQuery(q *model.Query) {
	s.cs.Reset()
	if s.accum && len(q.Tokens) <= 64 {
		s.cs.EnableAccum()
	}
}

// Search answers q: it collects candidates, verifies each against the exact
// similarity thresholds, and returns matches sorted by object ID. limit
// picks the verify order. With limit > 0 the candidates are verified in
// ascending ID order until limit of them match, so the answer is the
// limit-prefix of the unlimited one at the cost of at most limit successful
// verifications. With limit 0 every candidate is verified in arrival order
// and the matches are sorted afterwards.
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
	s.beginQuery(q)
	s.filter.Collect(q, s.cs, &st.FilterStats, stop, &s.scr)
	st.Candidates = s.cs.Len()
	st.FilterTime = time.Since(start)
	if s.tr != nil {
		s.traceSpan(trace.StageFilter, start, st.FilterTime, st)
	}

	start = time.Now()
	ids, n, byID := s.cs.IDs(), s.cs.Len(), limit > 0
	if byID {
		ids = append(s.scr.ids[:0], ids...)
		s.scr.ids = ids
		slices.Sort(ids)
		n = min(n, limit)
	}
	if cap(s.matches) < n {
		s.matches = make([]Match, 0, n)
	}
	matches := s.matches[:0]
	// The loop tests nothing per candidate, not even stop: a check on every
	// candidate costs about 15 % of the verify time when most candidates
	// fail, and the candidate count already bounds the loop.
	for _, obj := range ids {
		if m, ok := s.verify(q, model.ObjectID(obj)); ok {
			matches = append(matches, m)
			if len(matches) == limit {
				break
			}
		}
	}
	if !byID {
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
	s.matches = matches
	st.VerifyTime = time.Since(start)
	st.Results = len(matches)
	if s.tr != nil {
		s.traceSpan(trace.StageVerify, start, st.VerifyTime, st)
	}
	return matches, *st
}

// verify is the exact verification step shared by every execution path:
// it computes both similarities and reports whether id passes q's
// thresholds. Streamed and materialized searches must agree on this
// predicate exactly — the Stream==Search property tests depend on it.
//
// When the filter accumulated token memberships, SimT is reconstructed from
// the marks (SimTAccum) instead of re-intersecting the token sets; the two
// paths are bit-identical by construction, which the differential tests pin.
func (s *Searcher) verify(q *model.Query, id model.ObjectID) (Match, bool) {
	return s.verifyAt(q, id, q.TauR, q.TauT)
}

// verifyAt is verify against explicit thresholds in place of q's: a top-k
// descent verifies each candidate once, against its floors.
func (s *Searcher) verifyAt(q *model.Query, id model.ObjectID, tauR, tauT float64) (Match, bool) {
	simR := s.ds.SimR(q, id)
	if simR < tauR {
		return Match{}, false
	}
	var simT float64
	if s.cs.Accumulating() {
		simT = s.ds.SimTAccum(q, id, s.cs.AccBits(uint32(id)))
	} else {
		simT = s.ds.SimT(q, id)
	}
	if simT < tauT {
		return Match{}, false
	}
	return Match{ID: id, SimR: simR, SimT: simT}, true
}

// Thresholds derives the signature similarity thresholds of the paper:
// cR = τR·|q.R| (Lemma 1) and cT = τT·Σ_{t∈q.T} w(t) (Section 3.2).
func Thresholds(q *model.Query) (cR, cT float64) {
	return q.TauR * q.Area(), q.TauT * q.TotalWeight
}

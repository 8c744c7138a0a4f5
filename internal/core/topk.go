package core

import (
	"fmt"
	"slices"
	"time"

	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/trace"
)

// Top-k spatio-textual similarity search: instead of fixed thresholds, the
// caller asks for the k objects maximizing a combined score
//
//	score(o) = Alpha·simR(q,o) + (1−Alpha)·simT(q,o),
//
// subject to minimum floors on both similarities. The paper's query model is
// threshold-based; this extension reuses the same complete filters through
// threshold descent: the sets A_s = {o : score ≥ s, sims ≥ floors} are
// retrieved exactly for geometrically decreasing s, because score ≥ s
// implies simR ≥ (s−(1−Alpha))/Alpha and simT ≥ (s−Alpha)/(1−Alpha), both
// valid filter thresholds. The descent stops as soon as |A_s| ≥ k — at that
// point every higher-scoring object is already in A_s — or when both derived
// thresholds saturate at the floors.
//
// The descent resumes instead of restarting. Its rounds collect one query at
// falling thresholds into one candidate set: each round's prefixes and list
// cutoffs extend the last round's, so a signature filter scans only what the
// lower thresholds added (see Filter.Collect). Each candidate is verified
// once, against the floors, when it first arrives, and a round ranks the
// verified entries that clear its thresholds. Those are exactly the matches a
// fresh search at the round's thresholds would return, since the filter is
// complete for them and every one of its candidates is in the set.

// TopKOptions parameterizes a top-k search.
type TopKOptions struct {
	// K is the number of results wanted (fewer may exist).
	K int
	// Alpha weighs the spatial similarity in the combined score; 1−Alpha
	// weighs the textual one. Must lie in [0, 1].
	Alpha float64
	// FloorR and FloorT are the minimum similarities an object must reach
	// to be ranked at all. They must be positive: objects with zero spatial
	// overlap (or zero shared token weight) are indistinguishable from each
	// other and cannot be ranked meaningfully by a similarity search.
	// Zero values default to 0.05.
	FloorR, FloorT float64

	// The hooks below exist for sharded scatter-gather top-k, where several
	// TopK descents run concurrently over disjoint shards and prune against
	// the best scores seen anywhere. Both are optional.

	// Observe, when non-nil, receives the provably-complete result prefix
	// after every descent round: entries whose score is at or above the
	// current score line, which no unseen object can outrank. Entries use
	// this searcher's local object IDs, and the slice is valid only for the
	// duration of the call.
	Observe func(complete []ScoredMatch)
	// StopBelow, when non-nil, returns an external lower bound on the k-th
	// best score (e.g. the running global k-th across all shards). Once the
	// descent's score line reaches that bound, every unseen local object
	// scores strictly below it and cannot enter the global top k, so the
	// descent stops early and returns what it has.
	StopBelow func() float64
}

// Validate checks the option invariants and applies the documented floor
// defaults (0 → 0.05) in place. TopK calls it internally; external callers
// that derive work from the effective floors (e.g. shard pruning against
// FloorR) call it first so both sides agree. It is idempotent.
func (o *TopKOptions) Validate() error {
	if o.K < 1 {
		return fmt.Errorf("core: top-k needs K >= 1, got %d", o.K)
	}
	if o.Alpha < 0 || o.Alpha > 1 {
		return fmt.Errorf("core: alpha %g outside [0,1]", o.Alpha)
	}
	if o.FloorR == 0 {
		o.FloorR = 0.05
	}
	if o.FloorT == 0 {
		o.FloorT = 0.05
	}
	if o.FloorR < 0 || o.FloorR > 1 || o.FloorT < 0 || o.FloorT > 1 {
		return fmt.Errorf("core: floors (%g, %g) outside (0,1]", o.FloorR, o.FloorT)
	}
	return nil
}

// ScoredMatch is one top-k result.
type ScoredMatch struct {
	ID    model.ObjectID
	SimR  float64
	SimT  float64
	Score float64
}

// TopK ranks the best K objects for q's region and tokens over the searcher's
// filter. q's thresholds are ignored: the descent moves those of its own copy.
// q must be compiled against the searcher's dataset or one sharing its
// vocabulary and weights, as a shard shares its root's. The ranking is the
// caller's; the warm searcher allocates nothing else.
//
// stop, which may be nil, is polled once before each round. A descent it
// stops returns no ranking and a nil error: it was asked to stop producing,
// and its partial ranking is not the answer.
//
// The stats report the descent's filter-and-verify work. A list probe, a
// posting scanned and a candidate verified count once per descent, however
// many rounds reach them, so the counts are those of one threshold search at
// the final round's thresholds (a paper baseline, which cannot resume,
// counts its probes and postings every round). A deeper descent (larger K,
// lower floors) shows up directly as more lists probed, postings scanned and
// candidates verified.
func (s *Searcher) TopK(q *model.Query, opts TopKOptions, stop func() bool) ([]ScoredMatch, SearchStats, error) {
	if err := opts.Validate(); err != nil {
		return nil, SearchStats{}, err
	}
	var st SearchStats
	s.q = *q
	ranked := s.descend(&opts, stop, &st)
	s.q = model.Query{} // a pooled searcher must not pin the caller's query
	st.Results = len(ranked)
	// The ranking leaves as a copy: s.ranked is the next descent's buffer,
	// and the searcher may be back in its pool before the caller is done.
	return slices.Clone(ranked), st, nil
}

// descend runs the rounds over s.q, adding their work to st, and returns the
// ranking as a view of s.ranked, or nil once stop fires.
func (s *Searcher) descend(opts *TopKOptions, stop func() bool, st *SearchStats) []ScoredMatch {
	q := &s.q
	s.beginQuery(q)
	s.ranked = s.ranked[:0]
	for score := 1.0; ; score /= 2 {
		if stop != nil && stop() {
			return nil
		}
		q.TauR = thresholdFor(score, opts.Alpha, opts.FloorR)
		q.TauT = thresholdFor(score, 1-opts.Alpha, opts.FloorT)
		ranked, complete := s.round(opts, score, st)
		if opts.Observe != nil {
			opts.Observe(ranked[:complete])
		}
		// Entries with score ≥ the current line are provably the best ones
		// overall; entries below the line may have unseen peers unless the
		// thresholds have saturated at the floors (then the search returned
		// every eligible object).
		if complete >= opts.K {
			return ranked[:opts.K]
		}
		if q.TauR == opts.FloorR && q.TauT == opts.FloorT {
			if len(ranked) > opts.K {
				ranked = ranked[:opts.K]
			}
			return ranked
		}
		if opts.StopBelow != nil && opts.StopBelow() >= score {
			// Every unseen object here scores below the current line, hence
			// below the external k-th-best bound: it can never reach the
			// global top k, so deeper descent is wasted work.
			return ranked[:complete]
		}
	}
}

// round collects s.q at its current thresholds on top of the earlier rounds,
// verifies the newcomers against the floors, and ranks the verified entries
// that clear the round's thresholds: descending score, ties by ID. It returns
// the ranking and the length of its prefix at or above the score line — the
// prefix that is provably complete.
func (s *Searcher) round(opts *TopKOptions, line float64, st *SearchStats) ([]ScoredMatch, int) {
	q, rst := &s.q, &s.stats
	*rst = SearchStats{}
	seen := s.cs.Len()
	start := time.Now()
	s.filter.Collect(q, s.cs, &rst.FilterStats, nil, &s.scr)
	rst.Candidates = s.cs.Len() - seen
	rst.FilterTime = time.Since(start)
	if s.tr != nil {
		s.traceSpan(trace.StageFilter, start, rst.FilterTime, rst)
	}

	start = time.Now()
	for _, obj := range s.cs.IDs()[seen:] {
		if m, ok := s.verifyAt(q, model.ObjectID(obj), opts.FloorR, opts.FloorT); ok {
			sc := opts.Alpha*m.SimR + (1-opts.Alpha)*m.SimT
			s.ranked = append(s.ranked, ScoredMatch{ID: m.ID, SimR: m.SimR, SimT: m.SimT, Score: sc})
		}
	}
	// The round's entries move to the front of s.ranked, the rest stay
	// behind it for the lower thresholds of the rounds to come.
	n := 0
	for i, m := range s.ranked {
		if m.SimR >= q.TauR && m.SimT >= q.TauT {
			s.ranked[i], s.ranked[n] = s.ranked[n], m
			n++
		}
	}
	ranked := s.ranked[:n]
	slices.SortFunc(ranked, func(a, b ScoredMatch) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		default:
			return 0
		}
	})
	complete := 0
	for complete < len(ranked) && ranked[complete].Score >= line-1e-12 {
		complete++
	}
	rst.Results = len(ranked)
	rst.VerifyTime = time.Since(start)
	if s.tr != nil {
		s.traceSpan(trace.StageVerify, start, rst.VerifyTime, rst)
	}
	st.Merge(*rst)
	return ranked, complete
}

// thresholdFor derives the similarity threshold implied by a score target:
// weight·sim + (1−weight)·1 ≥ score must hold for any object reaching the
// score, so sim ≥ (score − (1−weight)) / weight, floored.
func thresholdFor(score, weight, floor float64) float64 {
	if weight <= 0 {
		return floor
	}
	tau := (score - (1 - weight)) / weight
	if tau < floor {
		return floor
	}
	if tau > 1 {
		return 1
	}
	return tau
}

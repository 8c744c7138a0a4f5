package core

import (
	"fmt"
	"slices"

	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/model"
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
	// the best scores seen anywhere. All are optional.

	// Compile, when non-nil, compiles the descent's threshold queries in
	// place of the searcher dataset's NewQuery. Sharded search passes the
	// root dataset's NewQuery here: a query compiled against the root is
	// valid on every shard (they share the vocabulary and weight table), and
	// compiling against a shard would skew unknown-term weights, which
	// depend on the dataset's object count.
	Compile func(region geo.Rect, terms []string, tauR, tauT float64) (*model.Query, error)

	// Interrupt, when non-nil, is polled once per descent round; a non-nil
	// error aborts the search and is returned verbatim. Pass ctx.Err to make
	// a descent honor context cancellation.
	Interrupt func() error
	// Observe, when non-nil, receives the provably-complete result prefix
	// after every descent round: entries whose score is at or above the
	// current score line, which no unseen object can outrank. Entries use
	// this searcher's local object IDs.
	Observe func(complete []ScoredMatch)
	// StopBelow, when non-nil, returns an external lower bound on the k-th
	// best score (e.g. the running global k-th across all shards). Once the
	// descent's score line reaches that bound, every unseen local object
	// scores strictly below it and cannot enter the global top k, so the
	// descent stops early and returns what it has.
	StopBelow func() float64

	// Stats, when non-nil, accumulates the cost of every descent round's
	// underlying threshold search. Counters add across rounds, so a deeper
	// descent (larger K, lower floors) shows up directly as more lists
	// probed, postings scanned and candidates verified.
	Stats *SearchStats
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

// TopK runs top-k search over the searcher's filter.
func (s *Searcher) TopK(region geo.Rect, terms []string, opts TopKOptions) ([]ScoredMatch, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}

	compile := opts.Compile
	if compile == nil {
		compile = s.ds.NewQuery
	}
	// Rounds re-verify overlapping candidate sets; the memo replays exact
	// similarities across them (see verifyMemo).
	s.beginDescent()
	defer s.endDescent()
	for score := 1.0; ; score /= 2 {
		if opts.Interrupt != nil {
			if err := opts.Interrupt(); err != nil {
				return nil, err
			}
		}
		tauR := thresholdFor(score, opts.Alpha, opts.FloorR)
		tauT := thresholdFor(score, 1-opts.Alpha, opts.FloorT)
		q, err := compile(region, terms, tauR, tauT)
		if err != nil {
			return nil, err
		}
		matches, rst := s.Search(q)
		if opts.Stats != nil {
			opts.Stats.Merge(rst)
		}
		ranked, complete := rankMatches(matches, opts, score)
		if opts.Observe != nil {
			opts.Observe(ranked[:complete])
		}
		// Entries with score ≥ the current line are provably the best ones
		// overall; entries below the line may have unseen peers unless the
		// thresholds have saturated at the floors (then the search returned
		// every eligible object).
		if complete >= opts.K {
			return ranked[:opts.K], nil
		}
		if tauR == opts.FloorR && tauT == opts.FloorT {
			if len(ranked) > opts.K {
				ranked = ranked[:opts.K]
			}
			return ranked, nil
		}
		if opts.StopBelow != nil && opts.StopBelow() >= score {
			// Every unseen object here scores below the current line, hence
			// below the external k-th-best bound: it can never reach the
			// global top k, so deeper descent is wasted work.
			return ranked[:complete], nil
		}
	}
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

// rankMatches scores and sorts the matches (descending score, ties by ID)
// and returns the sorted list plus the count of entries at or above the
// current score line — the prefix that is provably complete.
func rankMatches(matches []Match, opts TopKOptions, minScore float64) ([]ScoredMatch, int) {
	out := make([]ScoredMatch, 0, len(matches))
	for _, m := range matches {
		sc := opts.Alpha*m.SimR + (1-opts.Alpha)*m.SimT
		out = append(out, ScoredMatch{ID: m.ID, SimR: m.SimR, SimT: m.SimT, Score: sc})
	}
	slices.SortFunc(out, func(a, b ScoredMatch) int {
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
	for complete < len(out) && out[complete].Score >= minScore-1e-12 {
		complete++
	}
	return out, complete
}

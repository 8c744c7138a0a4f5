package core

import (
	"slices"

	"github.com/sealdb/seal/internal/geo"
)

// The restarting threshold descent, kept as the oracle of the resumed one:
// every round compiles its query afresh and runs a whole Search, verifying
// every candidate it collects.

// RestartTopK is the restarting descent over the searcher's filter, compiling
// against the searcher's dataset.
func (s *Searcher) RestartTopK(region geo.Rect, terms []string, opts TopKOptions) ([]ScoredMatch, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}

	compile := s.ds.NewQuery
	for score := 1.0; ; score /= 2 {
		tauR := thresholdFor(score, opts.Alpha, opts.FloorR)
		tauT := thresholdFor(score, 1-opts.Alpha, opts.FloorT)
		q, err := compile(region, terms, tauR, tauT)
		if err != nil {
			return nil, err
		}
		matches, _ := s.Search(q, nil, 0)
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

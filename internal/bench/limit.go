package bench

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/engine"
	"github.com/sealdb/seal/internal/model"
)

// The early-termination experiment: how much engine work does a bounded
// result count save? For each limit, every workload query runs once through
// the unbounded scatter-gather search and once through the streamed search
// with that Limit; the ratio of postings scanned is the work reduction a
// paging caller (LIMIT n in a service API) gets for free. Unlike the paper
// experiments this axis tracks the engine's Limit plumbing, so future PRs
// can watch the reduction trajectory in sealbench's JSON output.

// limitShards is the shard count of the limit experiment's index: enough
// fan-out that shards genuinely interrupt each other.
const limitShards = 4

// limitTau is the experiment's threshold: low enough that queries answer
// with many matches — a Limit only reduces work when there is a surplus of
// answers to cut, which is exactly the paging-service regime this
// experiment models.
const limitTau = 0.05

// LimitPoint is one measured cell of the limit experiment. Full* columns
// repeat the unbounded search's means for reference; the reduction columns
// are 1 − limited/full.
type LimitPoint struct {
	Limit              int     `json:"limit"`
	Shards             int     `json:"shards"`
	Matches            float64 `json:"matches"`        // mean matches yielded by the limited stream
	FullResults        float64 `json:"full_results"`   // mean matches of the unbounded search
	FullPostings       float64 `json:"full_postings"`  // mean postings scanned, unbounded
	LimitPostings      float64 `json:"limit_postings"` // mean postings scanned with Limit
	PostingsReduction  float64 `json:"postings_reduction"`
	FullCandidates     float64 `json:"full_candidates"`
	LimitCandidates    float64 `json:"limit_candidates"`
	CandidateReduction float64 `json:"candidate_reduction"`
	FullUS             float64 `json:"full_us"`  // mean per query, unbounded
	LimitUS            float64 `json:"limit_us"` // mean per query, with Limit
}

// LimitScaling measures the sweep and returns one point per limit.
func LimitScaling(env *Env) ([]LimitPoint, error) {
	ds, err := env.Dataset("twitter")
	if err != nil {
		return nil, err
	}
	specs, err := env.Workload("twitter", "large")
	if err != nil {
		return nil, err
	}
	queries := make([]*model.Query, len(specs))
	for i, spec := range specs {
		q, err := spec.Compile(ds, limitTau, limitTau)
		if err != nil {
			return nil, fmt.Errorf("bench: compiling query: %w", err)
		}
		queries[i] = q
	}
	env.logf("building seal engine with %d shard(s) for the limit experiment ...", limitShards)
	eng, err := engine.Build(ds, engine.Config{
		Shards: limitShards,
		NewFilter: func(sds *model.Dataset) (core.Filter, error) {
			return core.NewHierarchicalFilter(sds, core.HierarchicalConfig{
				MaxLevel:   env.Cfg.HierMaxLevel,
				GridBudget: env.Cfg.HierBudget,
			})
		},
	})
	if err != nil {
		return nil, err
	}

	// The unbounded baseline, measured once and shared by every limit.
	var fullPostings, fullCandidates, fullResults float64
	start := time.Now()
	for _, q := range queries {
		_, st, err := eng.Search(context.Background(), q, engine.Options{})
		if err != nil {
			return nil, err
		}
		fullPostings += float64(st.PostingsScanned)
		fullCandidates += float64(st.Candidates)
		fullResults += float64(st.Results)
	}
	fullUS := float64(time.Since(start).Microseconds())

	sweep := env.Cfg.LimitSweep
	if len(sweep) == 0 {
		sweep = []int{1, 10, 100}
	}
	n := float64(len(queries))
	points := make([]LimitPoint, 0, len(sweep))
	for _, limit := range sweep {
		var limPostings, limCandidates, matches float64
		start := time.Now()
		for _, q := range queries {
			ms := eng.Stream(context.Background(), q, engine.Options{Limit: limit})
			for {
				if _, ok := ms.Next(); !ok {
					break
				}
				matches++
			}
			if err := ms.Err(); err != nil {
				return nil, err
			}
			st := ms.Stats()
			ms.Close()
			limPostings += float64(st.PostingsScanned)
			limCandidates += float64(st.Candidates)
		}
		limUS := float64(time.Since(start).Microseconds())
		points = append(points, LimitPoint{
			Limit:              limit,
			Shards:             eng.Shards(),
			Matches:            matches / n,
			FullResults:        fullResults / n,
			FullPostings:       fullPostings / n,
			LimitPostings:      limPostings / n,
			PostingsReduction:  reduction(limPostings, fullPostings),
			FullCandidates:     fullCandidates / n,
			LimitCandidates:    limCandidates / n,
			CandidateReduction: reduction(limCandidates, fullCandidates),
			FullUS:             fullUS / n,
			LimitUS:            limUS / n,
		})
	}
	return points, nil
}

func reduction(limited, full float64) float64 {
	if full <= 0 {
		return 0
	}
	return 1 - limited/full
}

// Limit prints the early-termination experiment as a table.
func Limit(w io.Writer, env *Env) error {
	fmt.Fprintf(w, "\n# Engine-level early termination: Limit vs full search (Twitter, Seal, %d shards, tau=%.2f)\n",
		limitShards, limitTau)
	points, err := LimitScaling(env)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "limit\tmatches\tpostings\tfull postings\treduction\tquery(µs)\tfull(µs)")
	for _, p := range points {
		fmt.Fprintf(tw, "%d\t%.1f\t%.0f\t%.0f\t%.1f%%\t%.1f\t%.1f\n",
			p.Limit, p.Matches, p.LimitPostings, p.FullPostings, 100*p.PostingsReduction, p.LimitUS, p.FullUS)
	}
	return tw.Flush()
}

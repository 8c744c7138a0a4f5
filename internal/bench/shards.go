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

// The shard-scaling experiment: build the Seal index over 1..N spatial
// shards and measure parallel build time and scatter-gather query time.
// Unlike the paper experiments (which compare filter methods), this axis
// tracks the engine's multi-core scaling, so future PRs can watch the
// trajectory in sealbench's JSON output.

// ShardPoint is one measured cell of the shard-scaling experiment.
type ShardPoint struct {
	Shards     int     `json:"shards"`
	BuildMS    float64 `json:"build_ms"`
	QueryUS    float64 `json:"query_us"`   // mean per query, serial dispatch
	Candidates float64 `json:"candidates"` // mean per query, summed over shards
	IndexMB    float64 `json:"index_mb"`
}

// defaultShardSweep is used when the config does not override it.
var defaultShardSweep = []int{1, 2, 4, 8}

// ShardScaling measures the sweep and returns one point per shard count.
func ShardScaling(env *Env) ([]ShardPoint, error) {
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
		q, err := spec.Compile(ds, defaultTau, defaultTau)
		if err != nil {
			return nil, fmt.Errorf("bench: compiling query: %w", err)
		}
		queries[i] = q
	}
	sweep := env.Cfg.ShardSweep
	if len(sweep) == 0 {
		sweep = defaultShardSweep
	}
	points := make([]ShardPoint, 0, len(sweep))
	for _, shards := range sweep {
		env.logf("building seal engine with %d shard(s) ...", shards)
		start := time.Now()
		eng, err := engine.Build(ds, engine.Config{
			Shards: shards,
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
		buildMS := ms(time.Since(start))

		var candidates float64
		start = time.Now()
		for _, q := range queries {
			_, st, err := eng.Search(context.Background(), q, engine.Options{})
			if err != nil {
				return nil, err
			}
			candidates += float64(st.Candidates)
		}
		elapsed := time.Since(start)
		n := float64(len(queries))
		points = append(points, ShardPoint{
			Shards:     eng.Shards(), // actual count (Build caps at the object count)
			BuildMS:    buildMS,
			QueryUS:    float64(elapsed.Microseconds()) / n,
			Candidates: candidates / n,
			IndexMB:    float64(eng.SizeBytes()) / (1 << 20),
		})
	}
	return points, nil
}

// Shards prints the shard-scaling experiment as a table.
func Shards(w io.Writer, env *Env) error {
	fmt.Fprintln(w, "\n# Shard scaling: parallel build and scatter-gather search (Twitter, Seal, tau=0.4)")
	points, err := ShardScaling(env)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "shards\tbuild(ms)\tquery(µs)\tcandidates\tindex(MB)")
	for _, p := range points {
		fmt.Fprintf(tw, "%d\t%.1f\t%.1f\t%.0f\t%.2f\n", p.Shards, p.BuildMS, p.QueryUS, p.Candidates, p.IndexMB)
	}
	return tw.Flush()
}

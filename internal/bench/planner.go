package bench

// The adaptive-planner experiment: static filter engines vs the adaptive
// planner over distinct query classes (textual-heavy, spatial-heavy, mixed,
// and spatially-selective rects on a sharded engine). Per class it reports
// the per-query latency of every static family, the adaptive engine's
// latency, its ratio to the best and worst static choice, what the planner
// picked, and how many shards extent pruning skipped — after verifying that
// the adaptive answers are bit-identical to every static family's.

import (
	"context"
	"fmt"
	"io"
	"math"
	"text/tabwriter"
	"time"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/engine"
	"github.com/sealdb/seal/internal/model"
)

// PlannerClass is one query class's static-vs-adaptive measurement.
type PlannerClass struct {
	Class   string  `json:"class"`
	Shards  int     `json:"shards"`
	TauR    float64 `json:"tau_r"`
	TauT    float64 `json:"tau_t"`
	Queries int     `json:"queries"`
	// StaticUS is mean µs/query per static filter family (min over passes).
	StaticUS map[string]float64 `json:"static_us"`
	// AdaptiveUS is the adaptive engine's mean µs/query (min over passes).
	AdaptiveUS    float64 `json:"adaptive_us"`
	BestStaticUS  float64 `json:"best_static_us"`
	WorstStaticUS float64 `json:"worst_static_us"`
	// RatioToBest is AdaptiveUS / BestStaticUS (≤ 1.10 is the CI gate);
	// RatioToWorst is WorstStaticUS / AdaptiveUS (the win over a wrong
	// static choice).
	RatioToBest  float64 `json:"ratio_to_best"`
	RatioToWorst float64 `json:"ratio_to_worst"`
	// PlanChoices counts shard searches routed to each family during the
	// measured passes; ShardsPruned counts shard dispatches skipped.
	PlanChoices  map[string]int `json:"plan_choices"`
	ShardsPruned int            `json:"shards_pruned"`
	// Identical reports that the adaptive answers matched every static
	// family's bit-for-bit (IDs and both similarities).
	Identical bool `json:"identical"`
}

// plannerPasses is the number of timed passes; the minimum is reported.
// plannerWarmups is how many untimed passes warm the adaptive engine past
// cold-start sampling and calibration maturity before its timed passes.
// plannerReps is how many times each timed pass repeats the query set; the
// per-rep time is reported. plannerRounds interleaves the whole
// static+adaptive timing block, each engine keeping its minimum.
const (
	plannerPasses  = 3
	plannerReps    = 8
	plannerWarmups = 3
	plannerRounds  = 3
)

// plannerClassSpec defines one query class.
type plannerClassSpec struct {
	name       string
	workload   string // Env workload kind: "large" | "small"
	tauR, tauT float64
	shards     int
}

// plannerClasses are the measured query classes. The selective class runs
// small rects against a sharded engine: rects land inside one partition, so
// extent pruning must shrink the realized fan-out (ShardsPruned > 0).
var plannerClasses = []plannerClassSpec{
	{"textual", "large", 0.1, 0.5, 1},
	{"spatial", "small", 0.5, 0.2, 1},
	{"mixed", "large", 0.4, 0.4, 1},
	{"selective", "small", 0.4, 0.4, 4},
}

// plannerFamilies mirrors the public API's adaptive family set for the
// Seal base method: every interchangeable signature filter, index-aligned
// across shards.
func plannerFamilies(env *Env) []FilterSpec {
	return []FilterSpec{
		{Kind: "seal"},
		{Kind: "token"},
		{Kind: "grid", P: 1024},
		{Kind: "grid", P: 256},
		{Kind: "hybrid", P: 1024},
	}
}

// plannerEngines builds the static engine per family plus the adaptive
// engine, all over the same dataset and shard count.
func plannerEngines(env *Env, ds *model.Dataset, shards int) (static []*engine.Engine, adaptive *engine.Engine, err error) {
	families := plannerFamilies(env)
	static = make([]*engine.Engine, len(families))
	for i, spec := range families {
		spec := spec
		static[i], err = engine.Build(ds, engine.Config{
			Shards:    shards,
			NewFilter: func(sds *model.Dataset) (core.Filter, error) { return env.FilterFor(sds, spec) },
		})
		if err != nil {
			return nil, nil, err
		}
	}
	adaptive, err = engine.Build(ds, engine.Config{
		Shards: shards,
		NewFilters: func(sds *model.Dataset) ([]core.Filter, error) {
			filters := make([]core.Filter, len(families))
			for i, spec := range families {
				f, err := env.FilterFor(sds, spec)
				if err != nil {
					return nil, err
				}
				filters[i] = f
			}
			return filters, nil
		},
	})
	if err != nil {
		return nil, nil, err
	}
	return static, adaptive, nil
}

// runEngine executes every query once, returning the answers (copied) and
// the merged stats.
func runEngine(eng *engine.Engine, queries []*model.Query) ([][]core.Match, core.SearchStats, error) {
	answers := make([][]core.Match, len(queries))
	var total core.SearchStats
	for i, q := range queries {
		found, st, err := eng.Search(context.Background(), q, engine.Options{})
		if err != nil {
			return nil, total, err
		}
		answers[i] = found
		total.Merge(st)
	}
	return answers, total, nil
}

// timeEngine reports the minimum per-rep elapsed time over plannerPasses
// timed passes, each running the query set plannerReps times. Smoke-scale
// passes finish in tens of microseconds, where scheduler jitter rivals the
// signal; bigger passes plus a min-of race the noise down to the steady
// state both engine kinds actually deliver.
func timeEngine(eng *engine.Engine, queries []*model.Query) (time.Duration, error) {
	var best time.Duration
	for p := 0; p < plannerPasses; p++ {
		start := time.Now()
		for r := 0; r < plannerReps; r++ {
			for _, q := range queries {
				if _, _, err := eng.Search(context.Background(), q, engine.Options{}); err != nil {
					return 0, err
				}
			}
		}
		if d := time.Since(start) / plannerReps; p == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// sameMatches reports bit-identity: same IDs, same exact similarities, same
// order.
func sameMatches(a, b []core.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].SimR != b[i].SimR || a[i].SimT != b[i].SimT {
			return false
		}
	}
	return true
}

// PlannerData measures every query class and returns one row per class.
func PlannerData(env *Env) ([]PlannerClass, error) {
	ds, err := env.Dataset("twitter")
	if err != nil {
		return nil, err
	}
	families := plannerFamilies(env)
	engines := map[int][2]any{} // shards -> [static []*engine.Engine, adaptive *engine.Engine]
	out := make([]PlannerClass, 0, len(plannerClasses))
	for _, cls := range plannerClasses {
		specs, err := env.Workload("twitter", cls.workload)
		if err != nil {
			return nil, err
		}
		queries := make([]*model.Query, len(specs))
		for i, spec := range specs {
			q, err := spec.Compile(ds, cls.tauR, cls.tauT)
			if err != nil {
				return nil, fmt.Errorf("bench: compiling query: %w", err)
			}
			queries[i] = q
		}

		cached, ok := engines[cls.shards]
		if !ok {
			env.logf("building planner engines (%d shard(s)) ...", cls.shards)
			static, adaptive, err := plannerEngines(env, ds, cls.shards)
			if err != nil {
				return nil, err
			}
			cached = [2]any{static, adaptive}
			engines[cls.shards] = cached
		}
		static := cached[0].([]*engine.Engine)
		adaptive := cached[1].(*engine.Engine)

		row := PlannerClass{
			Class: cls.name, Shards: adaptive.Shards(),
			TauR: cls.tauR, TauT: cls.tauT,
			Queries:  len(queries),
			StaticUS: make(map[string]float64, len(families)),
		}

		// Identity first: the adaptive answers must match every static
		// family's bit-for-bit. The pass doubles as planner warm-up (plan
		// cache fill + calibration from live stats).
		adaptiveAnswers, _, err := runEngine(adaptive, queries)
		if err != nil {
			return nil, err
		}
		row.Identical = true
		staticAnswers := make([][][]core.Match, len(static))
		for i, eng := range static {
			staticAnswers[i], _, err = runEngine(eng, queries)
			if err != nil {
				return nil, err
			}
			for j := range queries {
				if !sameMatches(adaptiveAnswers[j], staticAnswers[i][j]) {
					row.Identical = false
				}
			}
		}

		// The adaptive planner takes a few passes to reach steady state:
		// cold-start routing spends its first choices sampling every family,
		// and plan caching only engages once calibration is mature. Warm it
		// past that before timing — the experiment measures the planner's
		// converged behavior; the bounded cold-start cost amortizes away on
		// a real query stream.
		for w := 0; w < plannerWarmups; w++ {
			if _, _, err := runEngine(adaptive, queries); err != nil {
				return nil, err
			}
		}

		// Timed passes: every engine is timed in each of plannerRounds
		// interleaved rounds and keeps its minimum. Timing all statics and
		// then the adaptive engine in disjoint windows lets CPU-state drift
		// between the windows masquerade as a planner effect; interleaving
		// gives every engine a shot at the machine's quiet moments.
		n := float64(len(queries))
		staticUS := make([]float64, len(static))
		adaptiveUS := math.Inf(1)
		for round := 0; round < plannerRounds; round++ {
			for i, eng := range static {
				d, err := timeEngine(eng, queries)
				if err != nil {
					return nil, err
				}
				if us := float64(d.Microseconds()) / n; round == 0 || us < staticUS[i] {
					staticUS[i] = us
				}
			}
			d, err := timeEngine(adaptive, queries)
			if err != nil {
				return nil, err
			}
			if us := float64(d.Microseconds()) / n; us < adaptiveUS {
				adaptiveUS = us
			}
		}
		for i, eng := range static {
			row.StaticUS[eng.FilterName()] = staticUS[i]
			if i == 0 || staticUS[i] < row.BestStaticUS {
				row.BestStaticUS = staticUS[i]
			}
			if staticUS[i] > row.WorstStaticUS {
				row.WorstStaticUS = staticUS[i]
			}
		}
		row.AdaptiveUS = adaptiveUS
		if row.BestStaticUS > 0 {
			row.RatioToBest = row.AdaptiveUS / row.BestStaticUS
		}
		if row.AdaptiveUS > 0 {
			row.RatioToWorst = row.WorstStaticUS / row.AdaptiveUS
		}

		// Plan accounting from one more full pass (post-calibration, so it
		// reflects the choices the timed passes ran with).
		_, st, err := runEngine(adaptive, queries)
		if err != nil {
			return nil, err
		}
		row.ShardsPruned = st.ShardsPruned
		row.PlanChoices = make(map[string]int)
		for i, name := range adaptive.PlanFamilyNames() {
			if st.Plans[i] > 0 {
				row.PlanChoices[name] += st.Plans[i]
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// Planner prints the adaptive-planner experiment as a table.
func Planner(w io.Writer, env *Env) error {
	fmt.Fprintln(w, "\n# Adaptive planner: static filters vs cost-model selection + shard pruning (Twitter)")
	rows, err := PlannerData(env)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "class\tshards\tbest-static(µs)\tworst-static(µs)\tadaptive(µs)\tvs-best\tvs-worst\tpruned\tidentical")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.1f\t%.2f\t%.2f\t%d\t%v\n",
			r.Class, r.Shards, r.BestStaticUS, r.WorstStaticUS, r.AdaptiveUS,
			r.RatioToBest, r.RatioToWorst, r.ShardsPruned, r.Identical)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %s plan choices: %v\n", r.Class, r.PlanChoices)
	}
	return nil
}

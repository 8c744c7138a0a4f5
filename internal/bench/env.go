// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section 6) against the synthetic
// workloads of internal/gen. Each experiment prints the same rows/series the
// paper reports. It is the only home of the paper's §2.3 baselines
// (keyword-first, spatial-first, IR-tree) and of the full scan: they are
// reproduction filters, not serving methods. The engine itself is measured by
// the benchmark under benchmark/.
//
// Absolute milliseconds differ from the paper (different decade of hardware,
// different language, scaled-down datasets); the reproduction target is the
// comparative shape: which method wins, by what rough factor, and where the
// threshold crossovers fall.
package bench

import (
	"cmp"
	"fmt"
	"io"
	"sync"

	"github.com/sealdb/seal/internal/baseline"
	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/gen"
	"github.com/sealdb/seal/internal/irtree"
	"github.com/sealdb/seal/internal/model"
)

// Config sizes the experiment environment. The zero value is unusable; use
// DefaultConfig (full runs) or SmokeConfig (CI-scale).
type Config struct {
	TwitterN     int   // Twitter-like object count
	USAN         int   // USA-like object count
	Queries      int   // queries per workload (paper: 100)
	Seed         int64 // master seed
	HierBudget   int   // per-token grid budget m_t for Seal
	HierMaxLevel int   // grid-tree depth for Seal
	RTreeFanout  int   // IR-tree/R-tree fanout
}

// DefaultConfig is the full experiment scale (about a minute of dataset and
// index construction on a laptop).
var DefaultConfig = Config{
	TwitterN:     60000,
	USAN:         60000,
	Queries:      100,
	Seed:         42,
	HierBudget:   8,
	HierMaxLevel: 12,
	RTreeFanout:  64,
}

// SmokeConfig is a fast configuration for tests and -short runs.
var SmokeConfig = Config{
	TwitterN:     4000,
	USAN:         4000,
	Queries:      25,
	Seed:         42,
	HierBudget:   4,
	HierMaxLevel: 8,
	RTreeFanout:  16,
}

// Env lazily builds and caches datasets, query workloads and filter indexes
// shared across experiments. All getters are safe for concurrent use.
type Env struct {
	Cfg Config
	// Log receives progress lines (index building can take a while);
	// nil silences it.
	Log io.Writer

	mu       sync.Mutex
	datasets map[string]*model.Dataset
	queries  map[string][]gen.QuerySpec
	filters  map[string]core.Filter
}

// NewEnv creates an environment for cfg.
func NewEnv(cfg Config) *Env {
	return &Env{
		Cfg:      cfg,
		datasets: make(map[string]*model.Dataset),
		queries:  make(map[string][]gen.QuerySpec),
		filters:  make(map[string]core.Filter),
	}
}

func (e *Env) logf(format string, args ...any) {
	if e.Log != nil {
		fmt.Fprintf(e.Log, format+"\n", args...)
	}
}

// Dataset returns "twitter" or "usa" at the configured scale.
func (e *Env) Dataset(name string) (*model.Dataset, error) {
	switch name {
	case "twitter":
		return e.twitterScaled(e.Cfg.TwitterN)
	case "usa":
		return e.usa()
	default:
		return nil, fmt.Errorf("bench: unknown dataset %q", name)
	}
}

// ScaledTwitter returns a Twitter-like dataset with n objects (for the
// scalability experiment).
func (e *Env) ScaledTwitter(n int) (*model.Dataset, error) { return e.twitterScaled(n) }

func (e *Env) twitterScaled(n int) (*model.Dataset, error) {
	key := fmt.Sprintf("twitter@%d", n)
	e.mu.Lock()
	ds, ok := e.datasets[key]
	e.mu.Unlock()
	if ok {
		return ds, nil
	}
	e.logf("generating %s ...", key)
	ds, err := gen.Twitter(gen.TwitterConfig{N: n, Seed: e.Cfg.Seed})
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.datasets[key] = ds
	e.mu.Unlock()
	return ds, nil
}

func (e *Env) usa() (*model.Dataset, error) {
	e.mu.Lock()
	ds, ok := e.datasets["usa"]
	e.mu.Unlock()
	if ok {
		return ds, nil
	}
	e.logf("generating usa ...")
	ds, err := gen.USA(gen.USAConfig{N: e.Cfg.USAN, Seed: e.Cfg.Seed + 1})
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.datasets["usa"] = ds
	e.mu.Unlock()
	return ds, nil
}

// Workload returns the "large" or "small" region query set for a dataset.
func (e *Env) Workload(dsName, kind string) ([]gen.QuerySpec, error) {
	key := dsName + "/" + kind
	e.mu.Lock()
	specs, ok := e.queries[key]
	e.mu.Unlock()
	if ok {
		return specs, nil
	}
	ds, err := e.Dataset(dsName)
	if err != nil {
		return nil, err
	}
	var cfg gen.QueryConfig
	switch kind {
	case "large":
		cfg = gen.LargeRegionConfig(e.Cfg.Queries, e.Cfg.Seed+100)
	case "small":
		cfg = gen.SmallRegionConfig(e.Cfg.Queries, e.Cfg.Seed+200)
	default:
		return nil, fmt.Errorf("bench: unknown workload kind %q", kind)
	}
	specs, err = gen.Queries(ds, cfg)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.queries[key] = specs
	e.mu.Unlock()
	return specs, nil
}

// FilterSpec names a filter configuration for caching.
type FilterSpec struct {
	Kind    string // token, plaintoken, grid, plaingrid, hybrid, seal, keyword, spatial, irtree, scan
	P       int    // grid granularity (grid, plaingrid, hybrid)
	Buckets int    // hash buckets (hybrid); 0 = exact keys
	Budget  int    // per-token grid budget (seal); 0 = env default
	Level   int    // grid-tree depth (seal); 0 = env default
}

func (s FilterSpec) key(dsName string) string {
	return fmt.Sprintf("%s/%s/p%d/b%d/m%d/l%d", dsName, s.Kind, s.P, s.Buckets, s.Budget, s.Level)
}

// Filter builds (or returns the cached) filter for spec over the named
// dataset.
func (e *Env) Filter(dsName string, spec FilterSpec) (core.Filter, error) {
	key := spec.key(dsName)
	e.mu.Lock()
	f, ok := e.filters[key]
	e.mu.Unlock()
	if ok {
		return f, nil
	}
	ds, err := e.Dataset(dsName)
	if err != nil {
		return nil, err
	}
	f, err = e.build(ds, spec, key)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.filters[key] = f
	e.mu.Unlock()
	return f, nil
}

// FilterFor builds a filter over an explicit dataset (used by the
// scalability experiment, which bypasses the named-dataset cache).
func (e *Env) FilterFor(ds *model.Dataset, spec FilterSpec) (core.Filter, error) {
	return e.build(ds, spec, "")
}

func (e *Env) build(ds *model.Dataset, spec FilterSpec, key string) (core.Filter, error) {
	if key != "" {
		e.logf("building %s ...", key)
	}
	switch spec.Kind {
	case "token", "grid", "hybrid", "seal":
		return core.BuildFilter(ds, core.FilterSpec{
			Kind: spec.Kind, P: spec.P, Buckets: spec.Buckets,
			MaxLevel:   cmp.Or(spec.Level, e.Cfg.HierMaxLevel),
			GridBudget: cmp.Or(spec.Budget, e.Cfg.HierBudget),
		})
	case "plaintoken":
		return core.NewPlainTokenFilter(ds), nil
	case "plaingrid":
		return core.NewPlainGridFilter(ds, spec.P)
	case "keyword":
		return baseline.NewKeywordFirst(ds), nil
	case "spatial":
		return baseline.NewSpatialFirst(ds, e.Cfg.RTreeFanout)
	case "irtree":
		return irtree.New(ds, e.Cfg.RTreeFanout)
	case "scan":
		return baseline.NewScan(ds), nil
	default:
		return nil, fmt.Errorf("bench: unknown filter kind %q", spec.Kind)
	}
}

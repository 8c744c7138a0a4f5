// Package engine owns query execution for the public API. It spatially
// partitions a dataset into shards, builds every shard's filter in parallel,
// and answers queries by concurrent scatter-gather: each shard keeps its own
// searcher pool, per-shard stats merge into one report, and top-k queries
// share a running k-th-best score so shards prune each other's descents.
//
// Sharding is exact by construction. Shard datasets are model.Dataset
// subsets that share the parent's vocabulary, token weights, and space
// rectangle, so per-shard verification is bit-identical to the monolithic
// index and the union of shard answers equals the unsharded answer set. A
// one-shard engine reuses the parent dataset directly and preserves the
// pre-engine behavior and layout exactly.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/planner"
	"github.com/sealdb/seal/internal/trace"
)

// Config sizes an engine.
type Config struct {
	// Shards is the number of spatial partitions. Values below 1 mean 1; the
	// count is capped at the object count so no shard is empty.
	Shards int
	// BuildParallelism bounds the workers building shard filters. Values
	// below 1 mean GOMAXPROCS.
	BuildParallelism int
	// NewFilter builds one shard's filter over that shard's dataset. It must
	// be safe to call concurrently (each call receives a distinct dataset).
	NewFilter func(ds *model.Dataset) (core.Filter, error)
	// NewFilters, when non-nil, enables adaptive planning: it builds every
	// interchangeable filter family for one shard (1..core.MaxPlanFamilies
	// entries, every one a core.CostEstimator, same families in the same
	// order on every shard). The engine then picks the cheapest family per
	// (query, shard) and prunes shards whose partition extent cannot reach
	// the query's spatial threshold. Takes precedence over NewFilter.
	NewFilters func(ds *model.Dataset) ([]core.Filter, error)
}

// shard is one partition: a subset dataset, its filter(s), the local→global
// object ID mapping, and a pool of reusable searchers.
type shard struct {
	ds        *model.Dataset
	filter    core.Filter      // primary family (filters[0] when adaptive)
	globalIDs []model.ObjectID // nil ⇒ identity (the single-shard fast path)
	pool      *core.SearcherPool
	// Adaptive planning state; nil on static engines.
	filters []core.Filter
	plan    *planner.ShardPlan
	// down marks a shard quarantined at open time: its segment was corrupt or
	// missing and it holds no filter or pool. Strict queries fail with
	// ErrShardQuarantined; partial queries skip it and count a ShardError.
	down error
	// rebuilt marks a shard whose segment was repaired from the dataset
	// segment at open time (OpenOptions.Repair).
	rebuilt bool
}

// pruned reports whether the shard provably cannot answer a query over
// region with spatial threshold tauR (adaptive engines only). When tr is
// live, a pruned shard records the bound that pruned it: shard pruning is a
// planning decision, and a trace that silently dropped shards would read as
// if they never existed.
func (s *shard) pruned(region geo.Rect, tauR float64, tr *trace.Rec, idx int) bool {
	if s.plan == nil {
		return false
	}
	if tr == nil {
		return s.plan.Prune(region, tauR)
	}
	bound, p := s.plan.PruneBound(region, tauR)
	if p {
		tr.AddPruned(trace.PrunedShard{Shard: idx, Bound: bound, TauR: tauR})
	}
	return p
}

// planChoice runs the shard's planner for q. When tr is live the decision is
// recorded (ChooseTrace) along with a plan span covering the choice itself.
func (s *shard) planChoice(q *model.Query, tr *trace.Rec, idx int) int {
	if tr == nil {
		return s.plan.Choose(q)
	}
	start := time.Now()
	fi := s.plan.ChooseTrace(q, idx, tr)
	tr.AddSpan(trace.Span{
		Stage: trace.StagePlan, Shard: idx, Family: fi,
		Start: tr.Offset(start), Dur: time.Since(start),
	})
	return fi
}

// global translates a shard-local object ID to the parent dataset's ID.
func (s *shard) global(id model.ObjectID) model.ObjectID {
	if s.globalIDs == nil {
		return id
	}
	return s.globalIDs[id]
}

// Engine answers queries over a sharded dataset. It is immutable after Build
// and safe for concurrent use.
type Engine struct {
	root   *model.Dataset
	shards []*shard
	// planner holds adaptive-planning state (family calibration, cache
	// generation); nil on static engines.
	planner *planner.Planner
	// familyNames labels the adaptive filter families by index.
	familyNames []string
	// closers owns the mapped segments backing an engine opened from disk;
	// empty for an in-memory build. See Close in segments.go.
	closers []io.Closer
	// gate orders Enter's count against Close: inflight counts the calls —
	// queries and the shard searches they start, abandoned stragglers
	// included — that may be reading the mapped segments Close releases.
	gate     sync.RWMutex
	closed   bool
	inflight sync.WaitGroup
}

// Enter admits one call that reads the engine's dataset or postings, or
// reports ErrClosed; every admitted call must Exit. Close waits for the
// admitted and refuses the rest, so nothing reads a segment it has unmapped.
// Calls may nest (a query enters, and so does each shard search it starts):
// once Close has begun the inner Enter fails and the query reports ErrClosed.
func (e *Engine) Enter() error {
	// Under the read lock Close cannot be between setting closed and waiting,
	// so the count never rises from zero concurrently with Wait.
	e.gate.RLock()
	defer e.gate.RUnlock()
	if e.closed {
		return ErrClosed
	}
	e.inflight.Add(1)
	return nil
}

// Exit ends a call admitted by Enter.
func (e *Engine) Exit() { e.inflight.Done() }

// Build partitions root into cfg.Shards spatial shards and constructs each
// shard's filter, running up to cfg.BuildParallelism constructions
// concurrently. With cfg.NewFilters set, every shard gets all filter
// families plus adaptive-planning state.
func Build(root *model.Dataset, cfg Config) (*Engine, error) {
	if cfg.NewFilter == nil && cfg.NewFilters == nil {
		return nil, errors.New("engine: Config.NewFilter is required")
	}
	if root == nil || root.Len() == 0 {
		return nil, errors.New("engine: cannot build over an empty dataset")
	}
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	if n > root.Len() {
		n = root.Len()
	}
	e := &Engine{root: root}
	buildShard := func(sub *model.Dataset, ids []model.ObjectID) (*shard, error) {
		if cfg.NewFilters != nil {
			filters, err := cfg.NewFilters(sub)
			if err != nil {
				return nil, err
			}
			if len(filters) == 0 || len(filters) > core.MaxPlanFamilies {
				return nil, fmt.Errorf("engine: NewFilters returned %d families, want 1..%d", len(filters), core.MaxPlanFamilies)
			}
			return &shard{
				ds: sub, filter: filters[0], globalIDs: ids,
				pool: core.NewMultiSearcherPool(sub, filters), filters: filters,
			}, nil
		}
		f, err := cfg.NewFilter(sub)
		if err != nil {
			return nil, err
		}
		return &shard{ds: sub, filter: f, globalIDs: ids, pool: core.NewSearcherPool(sub, f)}, nil
	}

	if n == 1 {
		s, err := buildShard(root, nil)
		if err != nil {
			return nil, err
		}
		e.shards = []*shard{s}
	} else {
		parts := partition(root, n)
		par := cfg.BuildParallelism
		if par < 1 {
			par = runtime.GOMAXPROCS(0)
		}
		shards := make([]*shard, len(parts))
		err := ForEach(context.Background(), len(parts), par, func(_ context.Context, i int) error {
			sub, err := root.Subset(parts[i])
			if err != nil {
				return fmt.Errorf("engine: shard %d: %w", i, err)
			}
			s, err := buildShard(sub, parts[i])
			if err != nil {
				return fmt.Errorf("engine: shard %d: %w", i, err)
			}
			shards[i] = s
			return nil
		})
		if err != nil {
			return nil, err
		}
		e.shards = shards
	}
	if cfg.NewFilters != nil {
		if err := e.armPlanner(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// armPlanner wires the adaptive-planning state over already-built
// multi-filter shards: one cost-estimator set and partition extent per
// shard, one shared calibration per family.
func (e *Engine) armPlanner() error {
	first := e.shards[0].filters
	fullVerify := make([]bool, len(first))
	names := make([]string, len(first))
	for i, f := range first {
		fullVerify[i] = core.FullVerifyFilter(f)
		names[i] = f.Name()
	}
	pl := planner.New(fullVerify, e.root.SpatialSimFn())
	for si, s := range e.shards {
		if len(s.filters) != len(first) {
			return fmt.Errorf("engine: shard %d has %d filter families, shard 0 has %d", si, len(s.filters), len(first))
		}
		est := make([]core.CostEstimator, len(s.filters))
		for i, f := range s.filters {
			ce, ok := f.(core.CostEstimator)
			if !ok {
				return fmt.Errorf("engine: adaptive family %s cannot estimate query cost", f.Name())
			}
			est[i] = ce
		}
		extent, hasExtent := datasetExtent(s.ds)
		s.plan = pl.NewShard(est, extent, hasExtent)
	}
	e.planner = pl
	e.familyNames = names
	return nil
}

// datasetExtent computes the MBR of every member region of ds. Multi-region
// objects store their footprint's MBR as Region, so the extent covers exact
// footprints too — the soundness requirement of shard pruning.
func datasetExtent(ds *model.Dataset) (geo.Rect, bool) {
	if ds.Len() == 0 {
		return geo.Rect{}, false
	}
	ext := ds.Region(0)
	for i := 1; i < ds.Len(); i++ {
		ext = ext.Extend(ds.Region(model.ObjectID(i)))
	}
	return ext, true
}

// Shards returns the number of shards actually built.
func (e *Engine) Shards() int { return len(e.shards) }

// Adaptive reports whether the engine plans filter families per query.
func (e *Engine) Adaptive() bool { return e.planner != nil }

// PlanFamilyNames labels the adaptive filter families by plan index (the
// indexes of SearchStats.Plans); nil on static engines.
func (e *Engine) PlanFamilyNames() []string { return e.familyNames }

// FamilyName labels filter family i for traces: the adaptive family name by
// plan index, or the engine's single static filter for index 0. Indexes
// without a family (engine-level spans use -1) name to "".
func (e *Engine) FamilyName(i int) string {
	if i < 0 {
		return ""
	}
	if e.familyNames != nil {
		if i < len(e.familyNames) {
			return e.familyNames[i]
		}
		return ""
	}
	if i == 0 {
		return e.staticFilterName()
	}
	return ""
}

// staticFilterName names the engine's single static filter, speaking through
// the first shard that actually has one (a quarantined shard carries none).
func (e *Engine) staticFilterName() string {
	for _, s := range e.shards {
		if s.filter != nil {
			return s.filter.Name()
		}
	}
	return ""
}

// FilterName identifies the per-shard filter (all shards use the same
// configuration, so shard 0 speaks for everyone). Adaptive engines list
// every family behind the planner.
func (e *Engine) FilterName() string {
	if e.planner != nil {
		return "adaptive(" + strings.Join(e.familyNames, "+") + ")"
	}
	return e.staticFilterName()
}

// SizeBytes sums the index footprint across shards — every family's on
// adaptive engines (they are all resident).
func (e *Engine) SizeBytes() int64 {
	var n int64
	for _, s := range e.shards {
		if s.filters != nil {
			for _, f := range s.filters {
				n += f.SizeBytes()
			}
			continue
		}
		if s.filter != nil { // quarantined shards carry no filter
			n += s.filter.SizeBytes()
		}
	}
	return n
}

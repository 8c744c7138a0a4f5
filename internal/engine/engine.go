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
	"sync"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/model"
)

// Config sizes an engine.
type Config struct {
	// Shards is the number of spatial partitions. Values below 1 mean 1; the
	// count is capped at the object count so no shard is empty.
	Shards int
	// NewFilter builds one shard's filter over that shard's dataset. It must
	// be safe to call concurrently (each call receives a distinct dataset).
	NewFilter func(ds *model.Dataset) (core.Filter, error)
}

// shard is one partition: a subset dataset, its filter, the local→global
// object ID mapping, and a pool of reusable searchers.
type shard struct {
	ds        *model.Dataset
	filter    core.Filter
	globalIDs []model.ObjectID // nil ⇒ identity (the single-shard fast path)
	pool      *core.SearcherPool
	// extent is the MBR of the member regions, the shard-prune key (see
	// pruneBound); the zero Rect for a shard with no members.
	extent geo.Rect
	// down marks a shard quarantined at open time: its segment was corrupt or
	// missing and it holds no filter or pool. Strict queries fail with
	// ErrShardQuarantined; partial queries skip it and count a ShardError.
	down error
}

// newShard assembles one partition over its subset dataset. A nil filter
// makes a shard that cannot search (the caller marks it down); its extent is
// still known, since the dataset segment holds every shard's members.
func newShard(ds *model.Dataset, ids []model.ObjectID, f core.Filter) *shard {
	s := &shard{ds: ds, filter: f, globalIDs: ids, extent: datasetExtent(ds)}
	if f != nil {
		s.pool = core.NewSearcherPool(ds, f)
	}
	return s
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

// ShardCount is the number of shards Build makes of objects objects when
// asked for requested: at least one, and no more than there are objects.
func ShardCount(requested, objects int) int {
	return max(1, min(requested, objects))
}

// Build partitions root into cfg.Shards spatial shards and constructs each
// shard's filter, running up to GOMAXPROCS constructions concurrently.
func Build(root *model.Dataset, cfg Config) (*Engine, error) {
	if cfg.NewFilter == nil {
		return nil, errors.New("engine: Config.NewFilter is required")
	}
	if root == nil || root.Len() == 0 {
		return nil, errors.New("engine: cannot build over an empty dataset")
	}
	n := ShardCount(cfg.Shards, root.Len())
	e := &Engine{root: root}
	buildShard := func(sub *model.Dataset, ids []model.ObjectID) (*shard, error) {
		f, err := cfg.NewFilter(sub)
		if err != nil {
			return nil, err
		}
		return newShard(sub, ids, f), nil
	}

	if n == 1 {
		s, err := buildShard(root, nil)
		if err != nil {
			return nil, err
		}
		e.shards = []*shard{s}
	} else {
		parts := partition(root, n)
		shards := make([]*shard, len(parts))
		err := ForEach(context.Background(), len(parts), runtime.GOMAXPROCS(0), func(_ context.Context, i int) error {
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
	return e, nil
}

// datasetExtent computes the MBR of every member region of ds. Multi-region
// objects store their footprint's MBR as Region, so the extent covers exact
// footprints too — the soundness requirement of shard pruning.
func datasetExtent(ds *model.Dataset) geo.Rect {
	if ds.Len() == 0 {
		return geo.Rect{}
	}
	ext := ds.Region(0)
	for i := 1; i < ds.Len(); i++ {
		ext = ext.Extend(ds.Region(model.ObjectID(i)))
	}
	return ext
}

// Shards returns the number of shards actually built.
func (e *Engine) Shards() int { return len(e.shards) }

// FilterName identifies the per-shard filter. All shards use the same
// configuration, so the first shard that has one speaks for everyone (a
// quarantined shard carries none).
func (e *Engine) FilterName() string {
	for _, s := range e.shards {
		if s.filter != nil {
			return s.filter.Name()
		}
	}
	return ""
}

// SizeBytes sums the index footprint across shards.
func (e *Engine) SizeBytes() int64 {
	var n int64
	for _, s := range e.shards {
		if s.filter != nil { // quarantined shards carry no filter
			n += s.filter.SizeBytes()
		}
	}
	return n
}

// Package engine owns query execution for the public API. It spatially
// partitions a dataset into shards, builds every shard's filter in parallel,
// and answers queries by concurrent scatter-gather: each shard keeps its own
// searcher pool, per-shard stats merge into one report, and top-k queries
// share a running k-th-best score so shards prune each other's descents.
//
// Sharding is exact by construction. The engine cuts its dataset into
// Z-order ranges whose rows ascend by ID, and each shard's dataset is a
// model.Dataset range of those rows that shares the parent's vocabulary, token weights, and space rectangle, so
// per-shard verification is bit-identical to the monolithic index and the
// union of shard answers equals the unsharded answer set. Rows are the
// engine's business: every match a shard returns carries the object's ID,
// the position it had in the dataset the engine was built from.
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

// shard is one partition: a range of the root's rows, its filter, and a pool
// of reusable searchers.
type shard struct {
	ds     *model.Dataset
	filter core.Filter
	pool   *core.SearcherPool
	// extent is the MBR of the member regions, the shard-prune key (see
	// pruneBound).
	extent geo.Rect
	// down marks a shard quarantined at open time: its segment was corrupt or
	// missing and it holds no filter or pool. Strict queries fail with
	// ErrShardQuarantined; partial queries skip it and count a ShardError.
	down error
}

// newShard assembles one partition over its range of the root. A nil filter
// makes a shard that cannot search (the caller marks it down); its extent is
// still known, since the dataset segment holds every shard's rows.
func newShard(ds *model.Dataset, f core.Filter) *shard {
	s := &shard{ds: ds, filter: f, extent: datasetExtent(ds)}
	if f != nil {
		s.pool = core.NewSearcherPool(ds, f)
	}
	return s
}

// Engine answers queries over a sharded dataset. It is immutable after Build
// and safe for concurrent use.
type Engine struct {
	root   *model.Dataset
	shards []*shard
	// closers owns the mapped segments backing an engine opened from disk;
	// empty for an in-memory build. See Close in segments.go.
	closers []io.Closer
	// fingerprint returns Fingerprint(root), hashed once: an opened engine
	// keeps the value its manifest check verified, and a build hashes on
	// first use (its SaveSegments, or a caller asking).
	fingerprint func() string
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
// shard's filter, running up to GOMAXPROCS constructions concurrently. The
// engine serves a copy of root in shard-major order — each shard a Z-order
// range, its rows ascending by ID — whose objects keep their IDs.
func Build(root *model.Dataset, cfg Config) (*Engine, error) {
	if cfg.NewFilter == nil {
		return nil, errors.New("engine: Config.NewFilter is required")
	}
	if root == nil || root.Len() == 0 {
		return nil, errors.New("engine: cannot build over an empty dataset")
	}
	rows, bounds := partition(root, ShardCount(cfg.Shards, root.Len()))
	ordered, err := root.Permute(rows)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	e := &Engine{root: ordered, shards: make([]*shard, len(bounds)-1)}
	e.fingerprint = sync.OnceValue(func() string { return Fingerprint(ordered) })
	err = ForEach(context.Background(), len(e.shards), runtime.GOMAXPROCS(0), func(_ context.Context, i int) error {
		sub, err := ordered.Subset(int(bounds[i]), int(bounds[i+1]))
		var f core.Filter
		if err == nil {
			f, err = cfg.NewFilter(sub)
		}
		if err != nil {
			return fmt.Errorf("engine: shard %d: %w", i, err)
		}
		e.shards[i] = newShard(sub, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// datasetExtent computes the MBR of every member region of ds. Multi-region
// objects store their footprint's MBR as Region, so the extent covers exact
// footprints too — the soundness requirement of shard pruning.
func datasetExtent(ds *model.Dataset) geo.Rect {
	ext := ds.Region(0)
	for i := 1; i < ds.Len(); i++ {
		ext = ext.Extend(ds.Region(model.ObjectID(i)))
	}
	return ext
}

// Fingerprint returns the root dataset's Fingerprint, the value a segment
// manifest records.
func (e *Engine) Fingerprint() string { return e.fingerprint() }

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

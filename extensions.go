package seal

// This file holds the public surface of the library's extensions beyond the
// paper's core query model: multi-region objects (the paper's future-work
// item of clustering a user's locations into several active regions), top-k
// search by combined similarity score, clustering helpers, and batch query
// execution.

import (
	"context"
	"fmt"

	"github.com/sealdb/seal/internal/cluster"
	"github.com/sealdb/seal/internal/engine"
	"github.com/sealdb/seal/internal/geo"
)

// Point is a 2D location, used by ClusterRegions.
type Point struct {
	X, Y float64
}

// ClusterRegions derives up to k active regions from a cloud of locations
// by k-means clustering — the procedure the paper suggests for building
// user profiles from tweet locations. The result can be assigned to
// Object.Regions. The output is deterministic for a fixed seed.
func ClusterRegions(points []Point, k int, seed int64) ([]Rect, error) {
	ps := make([]cluster.Point, len(points))
	for i, p := range points {
		ps[i] = cluster.Point{X: p.X, Y: p.Y}
	}
	set, err := cluster.Regions(ps, k, seed)
	if err != nil {
		return nil, err
	}
	out := make([]Rect, len(set))
	for i, r := range set {
		out[i] = Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
	}
	return out, nil
}

// TopKQuery asks for the K objects maximizing
// Alpha·simR + (1−Alpha)·simT, among objects with simR ≥ FloorR and
// simT ≥ FloorT (floors default to 0.05; objects below either floor are
// never ranked — a disjoint object has no meaningful similarity order).
type TopKQuery struct {
	Region Rect
	Tokens []string
	K      int
	// Alpha weighs the spatial similarity; 1−Alpha the textual. In [0, 1].
	Alpha          float64
	FloorR, FloorT float64
}

// ScoredMatch is one top-k result, sorted by descending Score (ties by ID).
type ScoredMatch struct {
	ID    int
	SimR  float64
	SimT  float64
	Score float64
}

// SearchTopK answers a top-k query. Fewer than K results are returned when
// fewer objects satisfy the floors.
//
// Deprecated: Use [Index.Query] with a ranked Request (q.Request()); matches
// carry the combined score in Match.Score.
func (ix *Index) SearchTopK(q TopKQuery) ([]ScoredMatch, error) {
	return ix.SearchTopKContext(context.Background(), q)
}

// SearchTopKContext is SearchTopK honoring ctx: shards poll the context
// between descent rounds, so cancellation and deadlines cut the search short
// with ctx's error. On a sharded index the shards prune cooperatively
// against the running global k-th-best score.
//
// Deprecated: Use [Index.Query] with a ranked Request (q.Request()).
func (ix *Index) SearchTopKContext(ctx context.Context, q TopKQuery) ([]ScoredMatch, error) {
	if q.K <= 0 {
		return nil, fmt.Errorf("seal: top-k query needs K >= 1, got %d", q.K)
	}
	res, err := ix.Query(ctx, q.Request())
	if err != nil {
		return nil, err
	}
	out := make([]ScoredMatch, len(res.Matches))
	for i, m := range res.Matches {
		out[i] = ScoredMatch{ID: m.ID, SimR: m.SimR, SimT: m.SimT, Score: m.Score}
	}
	return out, nil
}

// Footprint returns the spatial footprint of an object: a single rectangle
// for plain objects, or the full rectangle set for multi-region objects.
func (ix *Index) Footprint(id int) ([]Rect, error) {
	if err := ix.eng.Enter(); err != nil {
		return nil, err
	}
	defer ix.eng.Exit()
	if id < 0 || id >= ix.ds.Len() {
		return nil, fmt.Errorf("seal: object ID %d out of range [0,%d)", id, ix.ds.Len())
	}
	oid := modelObjectID(id)
	if set := ix.ds.MultiRegion(oid); set != nil {
		out := make([]Rect, len(set))
		for i, r := range set {
			out[i] = rectOut(r)
		}
		return out, nil
	}
	return []Rect{rectOut(ix.ds.Region(oid))}, nil
}

// SearchBatch answers many queries concurrently with the given parallelism
// (values < 1 mean one goroutine per available CPU, capped at the query
// count). Results are positionally aligned with the input. The first failure
// cancels the queries still outstanding and aborts the batch with that
// query's error.
//
// Deprecated: Use [Index.QueryBatch], which reports each query's error
// individually instead of discarding the whole batch's completed work on
// the first failure.
func (ix *Index) SearchBatch(queries []Query, parallelism int) ([][]Match, error) {
	return ix.SearchBatchContext(context.Background(), queries, parallelism)
}

// SearchBatchContext is SearchBatch honoring ctx: canceling the context (or
// passing its deadline) stops the batch early with ctx's error.
//
// Deprecated: Use [Index.QueryBatch] with the [BatchParallelism] option.
func (ix *Index) SearchBatchContext(ctx context.Context, queries []Query, parallelism int) ([][]Match, error) {
	if parallelism < 1 {
		parallelism = defaultParallelism(len(queries))
	}
	results := make([][]Match, len(queries))
	// Each query runs under the batch's own ctx (see QueryBatch); a failed
	// query still stops the scatter from starting the rest.
	err := engine.ForEach(ctx, len(queries), parallelism, func(_ context.Context, i int) error {
		res, err := ix.query(ctx, queries[i].Request(), queryConfig{})
		if err != nil {
			// The inner error already carries the library prefix.
			return fmt.Errorf("batch query %d: %w", i, err)
		}
		results[i] = res.Matches
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

func rectOut(r geo.Rect) Rect {
	return Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
}

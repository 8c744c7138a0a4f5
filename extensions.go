package seal

// This file holds the public surface of the library's extensions beyond the
// paper's core query model: multi-region objects (the paper's future-work
// item of clustering a user's locations into several active regions), top-k
// search by combined similarity score, clustering helpers, and batch query
// execution.

import (
	"fmt"

	"github.com/sealdb/seal/internal/cluster"
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

func rectOut(r geo.Rect) Rect {
	return Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
}

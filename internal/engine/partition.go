package engine

import (
	"slices"

	"github.com/sealdb/seal/internal/model"
)

// partition orders root's objects along a Z-order curve, cuts the order into
// n spatially coherent shards of near-equal size, and orders each shard's
// rows by object ID. Objects sort by the Morton code of their region center
// within the dataset space, ties by object ID; shard i takes positions
// [bounds[i], bounds[i+1]) of that order, and rows lists root's rows shard by
// shard, ascending by ID inside each. Equal sizes keep build and query work
// balanced across shards; spatial coherence keeps a query's region
// overlapping few shards' populated cells, so most shards prune cheaply. ID
// order inside a shard lets a searcher answer in ID order by sweeping its
// candidate rows. At one shard the rows are in ID order.
//
// A run of equal codes — every center identical, e.g. a dataset of clones —
// is cut like any other run, so the shards stay balanced.
//
// n must satisfy 1 ≤ n ≤ root.Len(), so every shard is non-empty.
func partition(root *model.Dataset, n int) (rows []model.ObjectID, bounds []uint32) {
	total := root.Len()
	space := root.Space()
	type keyed struct {
		code uint64
		id   model.ObjectID
	}
	order := make([]keyed, total)
	for i := 0; i < total; i++ {
		id := model.ObjectID(i)
		r := root.Region(root.Row(id))
		cx, cy := (r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2
		order[i] = keyed{code: mortonCode(normalize(cx, space.MinX, space.MaxX), normalize(cy, space.MinY, space.MaxY)), id: id}
	}
	slices.SortFunc(order, func(a, b keyed) int {
		switch {
		case a.code < b.code:
			return -1
		case a.code > b.code:
			return 1
		case a.id < b.id:
			return -1
		case a.id > b.id:
			return 1
		default:
			return 0
		}
	})
	rows = make([]model.ObjectID, total)
	for i, k := range order {
		rows[i] = k.id
	}
	bounds = make([]uint32, n+1)
	for p := range bounds {
		bounds[p] = uint32(p * total / n)
	}
	for p := 0; p < n; p++ {
		slices.Sort(rows[bounds[p]:bounds[p+1]])
	}
	for i, id := range rows {
		rows[i] = root.Row(id)
	}
	return rows, bounds
}

// normalize maps v into [0, 1] within [lo, hi]; a zero-extent axis maps
// everything to 0 so the Morton code degrades to the other axis.
func normalize(v, lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	f := (v - lo) / (hi - lo)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// mortonCode interleaves 21-bit quantizations of x and y (both in [0, 1])
// into a 42-bit Z-order code.
func mortonCode(x, y float64) uint64 {
	const maxQ = 1<<21 - 1
	return spread(uint64(x*maxQ)) | spread(uint64(y*maxQ))<<1
}

// spread spaces the low 21 bits of v apart so every other bit is free.
func spread(v uint64) uint64 {
	v &= 0x1fffff
	v = (v | v<<32) & 0x1f00000000ffff
	v = (v | v<<16) & 0x1f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

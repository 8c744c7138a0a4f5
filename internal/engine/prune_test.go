package engine

// Shard pruning is on every query, so its bound is pinned here, where it
// lives, against nothing but the dataset's own exact similarity: a pruned
// shard must hold no member that reaches τR — for both spatial similarities,
// plain and multi-region members, shards of one object, and thresholds sitting
// exactly on (and one ulp either side of) the bound.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/model"
)

// pruneShard is a bare shard over extent whose dataset carries sim — all
// pruneBound reads.
func pruneShard(t testing.TB, sim model.SpatialSim, extent geo.Rect) *shard {
	t.Helper()
	var b model.Builder
	b.SetSimilarity(sim, model.TextJaccard)
	if _, err := b.Add(geo.Rect{MaxX: 1, MaxY: 1}, []string{"t"}); err != nil {
		t.Fatal(err)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &shard{ds: ds, extent: extent}
}

func TestPruneSoundness(t *testing.T) {
	extent := geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	// Query rects against a 10×10 extent: inside (bound 1), disjoint
	// (bound 0), and half-overlapping (A = |q|/2).
	inside := geo.Rect{MinX: 2, MinY: 2, MaxX: 6, MaxY: 6}
	disjoint := geo.Rect{MinX: 20, MinY: 20, MaxX: 24, MaxY: 24}
	half := geo.Rect{MinX: 5, MinY: 0, MaxX: 15, MaxY: 10} // A = 50, |q| = 100
	line := geo.Rect{MinX: 1, MinY: 1, MaxX: 5, MaxY: 1}
	point := geo.Rect{MinX: 3, MinY: 3, MaxX: 3, MaxY: 3}

	for _, tc := range []struct {
		name   string
		sim    model.SpatialSim
		extent geo.Rect
		region geo.Rect
		tauR   float64
		want   bool
	}{
		{"jaccard/inside-never-pruned", model.SpaceJaccard, extent, inside, 1.0, false},
		{"jaccard/disjoint-pruned", model.SpaceJaccard, extent, disjoint, 0.01, true},
		{"jaccard/half-below-bound", model.SpaceJaccard, extent, half, 0.5, false},
		{"jaccard/half-above-bound", model.SpaceJaccard, extent, half, 0.51, true},
		{"jaccard/tau-zero-never", model.SpaceJaccard, extent, disjoint, 0, false},
		{"jaccard/tau-negative-never", model.SpaceJaccard, extent, disjoint, -0.5, false},
		{"jaccard/line-query-never", model.SpaceJaccard, extent, line, 0.5, false},
		{"jaccard/point-query-never", model.SpaceJaccard, extent, point, 0.5, false},
		{"jaccard/empty-shard-pruned", model.SpaceJaccard, geo.Rect{}, inside, 0.01, true},
		{"jaccard/empty-shard-tau-zero", model.SpaceJaccard, geo.Rect{}, inside, 0, false},
		// Dice bound for the half case: 2A/(|q|+A) = 100/150 = 2/3 — looser
		// than Jaccard's 1/2, so τR=0.6 must NOT prune under Dice.
		{"dice/half-below-bound", model.SpaceDice, extent, half, 0.6, false},
		{"dice/half-above-bound", model.SpaceDice, extent, half, 0.67, true},
		{"dice/disjoint-pruned", model.SpaceDice, extent, disjoint, 0.01, true},
		{"dice/tau-zero-never", model.SpaceDice, extent, disjoint, 0, false},
		{"dice/line-query-never", model.SpaceDice, extent, line, 0.5, false},
		{"dice/empty-shard-pruned", model.SpaceDice, geo.Rect{}, inside, 0.01, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := pruneShard(t, tc.sim, tc.extent)
			if _, got := s.pruneBound(tc.region, tc.tauR); got != tc.want {
				t.Errorf("pruneBound(%+v, %v) pruned = %v, want %v", tc.region, tc.tauR, got, tc.want)
			}
		})
	}
}

func TestPruneBoundEvidence(t *testing.T) {
	extent := geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	half := geo.Rect{MinX: 5, MinY: 0, MaxX: 15, MaxY: 10}
	s := pruneShard(t, model.SpaceJaccard, extent)

	// Half-overlap: bound = A/|q| = 1/2 exactly; the reported bound must be
	// the number the verdict compared.
	bound, pruned := s.pruneBound(half, 0.51)
	if bound != 0.5 || !pruned {
		t.Errorf("pruneBound(half, 0.51) = %v,%v, want 0.5,true", bound, pruned)
	}
	// A threshold sitting on the bound, or one ulp either side of it, keeps
	// the shard: a member could score exactly the bound, and the margin is
	// there because the bound's own arithmetic is only good to a few ulps.
	for _, tauR := range []float64{0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1)} {
		if bound, pruned = s.pruneBound(half, tauR); bound != 0.5 || pruned {
			t.Errorf("pruneBound(half, %v) = %v,%v, want 0.5,false", tauR, bound, pruned)
		}
	}
	// Past the margin the verdict flips.
	if _, pruned = s.pruneBound(half, 0.5*(1+2*pruneEps)); !pruned {
		t.Errorf("pruneBound(half, bound·(1+2ε)) kept the shard")
	}
	if bound, pruned = pruneShard(t, model.SpaceDice, extent).pruneBound(half, 0.67); math.Abs(bound-2.0/3) > 1e-15 || !pruned {
		t.Errorf("dice pruneBound(half, 0.67) = %v,%v, want 2/3,true", bound, pruned)
	}
	// Degenerate inputs report the trivial bound and keep the shard.
	line := geo.Rect{MinX: 1, MinY: 1, MaxX: 5, MaxY: 1}
	for _, tc := range []struct {
		region geo.Rect
		tauR   float64
	}{{half, 0}, {half, -1}, {line, 0.5}} {
		if bound, pruned = s.pruneBound(tc.region, tc.tauR); bound != 1 || pruned {
			t.Errorf("pruneBound(%v, %v) = %v,%v, want 1,false", tc.region, tc.tauR, bound, pruned)
		}
	}
	// A shard with no members has the zero extent: bound 0, pruned.
	if bound, pruned = pruneShard(t, model.SpaceJaccard, geo.Rect{}).pruneBound(half, 0.01); bound != 0 || !pruned {
		t.Errorf("empty-shard pruneBound = %v,%v, want 0,true", bound, pruned)
	}
}

// pruneDataset scatters n objects over a 100×100 space; with multi, every
// third is a footprint of two or three rectangles up to 30 units apart.
func pruneDataset(t testing.TB, sim model.SpatialSim, multi bool, n int, seed int64) *model.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rect := func(x, y float64) geo.Rect {
		return geo.Rect{MinX: x, MinY: y, MaxX: x + 0.5 + rng.Float64()*8, MaxY: y + 0.5 + rng.Float64()*8}
	}
	var b model.Builder
	b.SetSimilarity(sim, model.TextJaccard)
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		toks := []string{fmt.Sprintf("t%d", rng.Intn(5))}
		var err error
		if multi && i%3 == 0 {
			set := geo.RectSet{rect(x, y)}
			for k := 1 + rng.Intn(2); k > 0; k-- {
				set = append(set, rect(x+rng.Float64()*30, y+rng.Float64()*30))
			}
			_, err = b.AddMulti(set, toks)
		} else {
			_, err = b.Add(rect(x, y), toks)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestPrunedShardHoldsNoAnswer is the bound's whole contract, asserted member
// by member with the dataset's exact similarity and no engine in the loop:
// whenever pruneBound prunes a shard for (region, τR), no member of that shard
// reaches τR. The thresholds are the adversarial ones — each member's own
// similarity (an object sitting exactly on τR, which a query region equal to
// or containing the object makes coincide with the bound itself), the bound,
// and both to within an ulp.
func TestPrunedShardHoldsNoAnswer(t *testing.T) {
	const n = 60
	for _, sim := range []model.SpatialSim{model.SpaceJaccard, model.SpaceDice} {
		for _, multi := range []bool{false, true} {
			ds := pruneDataset(t, sim, multi, n, 7)
			rng := rand.New(rand.NewSource(11))
			var regions []geo.Rect
			for id := 0; id < n; id++ {
				r := ds.Region(model.ObjectID(id)) // for a footprint, its MBR
				grown := geo.Rect{MinX: r.MinX - rng.Float64(), MinY: r.MinY - rng.Float64(), MaxX: r.MaxX + rng.Float64(), MaxY: r.MaxY + rng.Float64()}
				regions = append(regions, r, grown)
				if set := ds.MultiRegion(model.ObjectID(id)); set != nil {
					regions = append(regions, set[0])
				}
			}
			for i := 0; i < 40; i++ {
				x, y, side := rng.Float64()*100, rng.Float64()*100, 1+rng.Float64()*60
				regions = append(regions, geo.Rect{MinX: x, MinY: y, MaxX: x + side, MaxY: y + side})
			}
			for _, shards := range []int{1, 4, n} { // n: every shard is one object
				label := fmt.Sprintf("%v/multi=%v/shards=%d", sim, multi, shards)
				e := scanEngine(t, ds, shards)
				for si, s := range e.shards {
					for id := 0; id < s.ds.Len(); id++ {
						foot := s.ds.MultiRegion(model.ObjectID(id))
						if foot == nil {
							foot = geo.RectSet{s.ds.Region(model.ObjectID(id))}
						}
						for _, r := range foot {
							if !s.extent.Contains(r) {
								t.Fatalf("%s: shard %d extent %v does not cover member rect %v", label, si, s.extent, r)
							}
						}
					}
				}
				pruned, kept := 0, 0
				for _, region := range regions {
					q, err := ds.NewQuery(region, []string{"t1"}, 0.5, 0.5)
					if err != nil {
						t.Fatal(err)
					}
					for si, s := range e.shards {
						simR := make([]float64, s.ds.Len())
						bound, _ := s.pruneBound(region, 1)
						taus := []float64{bound, 0.05, 0.3}
						for id := range simR {
							simR[id] = s.ds.SimR(q, model.ObjectID(id))
							taus = append(taus, simR[id])
						}
						for _, tau := range taus {
							for _, tauR := range []float64{tau, math.Nextafter(tau, 0), math.Nextafter(tau, 2)} {
								if _, p := s.pruneBound(region, tauR); !p {
									kept++
									continue
								}
								pruned++
								for id, got := range simR {
									if got >= tauR {
										t.Fatalf("%s: shard %d pruned for region %v at tauR %v (bound %v), but member %d has simR %v",
											label, si, region, tauR, bound, id, got)
									}
								}
							}
						}
					}
				}
				if shards > 1 && (pruned == 0 || kept == 0) {
					t.Fatalf("%s: %d pruned / %d kept verdicts — the property is not exercised", label, pruned, kept)
				}
			}
		}
	}
}

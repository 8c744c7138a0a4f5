package seal_test

import (
	"cmp"
	"maps"
	"slices"
	"testing"

	"github.com/sealdb/seal"
	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/testutil"
	"github.com/sealdb/seal/internal/text"
)

// oracle is the engine-free reference the root tests compare indexes
// against: the objects in a model.Dataset built exactly as seal.Build builds
// its own, under the same similarity functions, scanned linearly.
type oracle struct{ ds *model.Dataset }

func newOracle(t testing.TB, objects []seal.Object, spatial model.SpatialSim, textual model.TextualSim) oracle {
	t.Helper()
	return newWeightedOracle(t, objects, spatial, textual, nil)
}

// newWeightedOracle is newOracle under explicit token weights, as
// WithTokenWeights sets them; nil weights are idf ones.
func newWeightedOracle(t testing.TB, objects []seal.Object, spatial model.SpatialSim, textual model.TextualSim, weights map[string]float64) oracle {
	t.Helper()
	rect := func(r seal.Rect) geo.Rect { return geo.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY} }
	var b model.Builder
	b.SetSimilarity(spatial, textual)
	for i, o := range objects {
		var err error
		if len(o.Regions) > 0 {
			set := make(geo.RectSet, len(o.Regions))
			for j, r := range o.Regions {
				set[j] = rect(r)
			}
			_, err = b.AddMulti(set, o.Tokens)
		} else {
			_, err = b.Add(rect(o.Region), o.Tokens)
		}
		if err != nil {
			t.Fatalf("object %d: %v", i, err)
		}
	}
	if weights == nil {
		ds, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return oracle{ds}
	}
	// Token IDs in term order, as Build assigns them: similarities sum
	// weights in ID order, so another order could move their last bit.
	terms := slices.Sorted(maps.Keys(weights))
	vals := make([]float64, len(terms))
	for i, term := range terms {
		vals[i] = weights[term]
	}
	vocab, err := text.NewWithWeights(terms, vals)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := b.BuildWithVocab(vocab)
	if err != nil {
		t.Fatal(err)
	}
	return oracle{ds}
}

// threshold returns the ID-ordered exact answer of a threshold request.
func (o oracle) threshold(t testing.TB, q seal.Query) []seal.Match {
	t.Helper()
	mq, err := o.ds.NewQuery(geo.Rect{MinX: q.Region.MinX, MinY: q.Region.MinY, MaxX: q.Region.MaxX, MaxY: q.Region.MaxY}, q.Tokens, q.TauR, q.TauT)
	if err != nil {
		t.Fatal(err)
	}
	var out []seal.Match
	for _, id := range testutil.BruteForceAnswers(o.ds, mq) {
		out = append(out, seal.Match{ID: int(id), SimR: o.ds.SimR(mq, id), SimT: o.ds.SimT(mq, id)})
	}
	return out
}

// ranked returns the exact ranking of a ranked request: everything clearing
// the floors, by descending score, ties by ascending ID, cut at K.
func (o oracle) ranked(t testing.TB, req seal.Request) []seal.Match {
	t.Helper()
	floorR, floorT := req.FloorR, req.FloorT
	if floorR == 0 {
		floorR = 0.05
	}
	if floorT == 0 {
		floorT = 0.05
	}
	out := o.threshold(t, seal.Query{Region: req.Region, Tokens: req.Tokens, TauR: floorR, TauT: floorT})
	for i := range out {
		out[i].Score = req.Alpha*out[i].SimR + (1-req.Alpha)*out[i].SimT
	}
	slices.SortFunc(out, func(a, b seal.Match) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.ID, b.ID))
	})
	if len(out) > req.K {
		out = out[:req.K]
	}
	return out
}

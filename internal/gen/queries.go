package gen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/model"
)

// QuerySpec is an uncompiled query: region and terms, without thresholds.
// Experiments compile it at each threshold setting via Compile.
type QuerySpec struct {
	Region geo.Rect
	Terms  []string
}

// Compile binds the spec to thresholds against ds.
func (qs QuerySpec) Compile(ds *model.Dataset, tauR, tauT float64) (*model.Query, error) {
	return ds.NewQuery(qs.Region, qs.Terms, tauR, tauT)
}

// QueryConfig parameterizes a query workload.
type QueryConfig struct {
	N          int     // number of queries
	Seed       int64   // PRNG seed
	MeanArea   float64 // mean query-region area (km²)
	MeanTokens float64 // mean query token count
}

// LargeRegionConfig reproduces the paper's large-region query set: mean area
// 554 km² ("the area of a district"), mean 6.97 tokens.
func LargeRegionConfig(n int, seed int64) QueryConfig {
	return QueryConfig{N: n, Seed: seed, MeanArea: 554, MeanTokens: 6.97}
}

// SmallRegionConfig reproduces the small-region query set: mean area
// 0.44 km² ("a small neighborhood"), mean 12.9 tokens.
func SmallRegionConfig(n int, seed int64) QueryConfig {
	return QueryConfig{N: n, Seed: seed, MeanArea: 0.44, MeanTokens: 12.9}
}

// Queries generates a query workload against ds. Each query anchors at a
// random object: its region is centered near the object with a lognormal
// area around MeanArea, and its terms mix the anchor's tokens with fresh
// Zipf draws, so both spatial and textual overlaps are plausible.
func Queries(ds *model.Dataset, cfg QueryConfig) ([]QuerySpec, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("gen: query N=%d must be positive", cfg.N)
	}
	if cfg.MeanArea <= 0 || cfg.MeanTokens <= 0 {
		return nil, fmt.Errorf("gen: MeanArea and MeanTokens must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	space := ds.Space()
	// The terms slice one copy of the vocabulary's blob, which may be mapped:
	// a pool of queries holds one allocation, not one a term.
	blob, off := ds.Vocab().Blob()
	blob = strings.Clone(blob)
	specs := make([]QuerySpec, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		anchor := model.ObjectID(rng.Intn(ds.Len()))
		ar := ds.Region(anchor)
		cx, cy := ar.Center()
		// Jitter the center by a fraction of the anchor's extent.
		cx += rng.NormFloat64() * (ar.Width()/4 + 0.1)
		cy += rng.NormFloat64() * (ar.Height()/4 + 0.1)
		// Lognormal area around the mean: exp(N(ln(mean)-σ²/2, σ)).
		const sigma = 0.6
		area := math.Exp(rng.NormFloat64()*sigma + math.Log(cfg.MeanArea) - sigma*sigma/2)
		region := placeRegion(rng, cx, cy, area, space)

		k := clampInt(int(math.Round(rng.NormFloat64()*cfg.MeanTokens/3+cfg.MeanTokens)), 1, int(3*cfg.MeanTokens)+1)
		terms := make([]string, 0, k)
		// Prefer the anchor's own tokens (shuffled), then fall back to the
		// corpus Zipf distribution via random other objects.
		toks := ds.Tokens(anchor)
		for _, j := range rng.Perm(len(toks)) {
			if len(terms) >= k {
				break
			}
			terms = append(terms, blob[off[toks[j]]:off[toks[j]+1]])
		}
		for attempts := 0; len(terms) < k && attempts < 8*k; attempts++ {
			other := ds.Tokens(model.ObjectID(rng.Intn(ds.Len())))
			if len(other) == 0 {
				continue
			}
			t := other[rng.Intn(len(other))]
			term := blob[off[t]:off[t+1]]
			if !containsString(terms, term) {
				terms = append(terms, term)
			}
		}
		specs = append(specs, QuerySpec{Region: region, Terms: terms})
	}
	return specs, nil
}

func containsString(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

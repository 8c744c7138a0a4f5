// Package gen synthesizes the paper's two evaluation workloads (Section 6.1)
// at configurable scale, substituting for the original data we cannot ship:
//
//   - Twitter: 1M user profiles — active regions (MBRs of a user's tweet
//     locations) plus frequent-word token sets. The generator reproduces the
//     paper's published statistics: heavy-tailed region areas matching the
//     quoted quantiles (4.4% ≤ 0.0001 km², 15.4% ≤ 0.01, 29.7% ≤ 1,
//     73% ≤ 100, mean ≈ 115 km²), mean 14.3 tokens per object, a world of
//     1342 million km², and city-clustered spatial placement.
//
//   - USA: 1M POIs grown into rectangles (mean area ≈ 5.4 km²) carrying
//     DBLP-like publication tokens (mean 12.5), in a 473 million km² space.
//
// Token usage follows a Zipf law over a synthetic vocabulary, giving the idf
// spread that textual signatures rely on. Both query workloads of the paper
// are also generated: large-region queries (mean 554 km², ≈7 tokens) and
// small-region queries (mean 0.44 km², ≈13 tokens), anchored at object
// locations so that non-trivial overlaps occur.
//
// Everything is deterministic given the config seed.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/model"
)

// TwitterConfig parameterizes the Twitter-like workload.
type TwitterConfig struct {
	N          int     // number of objects (paper: 1M)
	Seed       int64   // PRNG seed
	Cities     int     // spatial cluster count (default 100)
	CitySigma  float64 // mean city spread in km (default 15)
	VocabSize  int     // vocabulary size (default 50000)
	MeanTokens float64 // mean tokens per object (default 14.3)
	ZipfS      float64 // token-frequency Zipf exponent, > 1 (default 1.10)
}

func (c *TwitterConfig) defaults() {
	if c.Cities <= 0 {
		c.Cities = 100
	}
	if c.CitySigma <= 0 {
		// Tight clusters: the paper reports ~8000 ROIs overlapping even a
		// small query region on the 1M-object dataset, i.e. user activity
		// concentrates heavily in metropolitan areas.
		c.CitySigma = 15
	}
	if c.VocabSize <= 0 {
		c.VocabSize = 50000
	}
	if c.MeanTokens <= 0 {
		c.MeanTokens = 14.3
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.10
	}
}

// twitterSide is the side of the Twitter world: 1342 million km².
const twitterSide = 36633.0

// usaSide is the side of the USA space: 473 million km².
const usaSide = 21749.0

// twitterAreaKnots is the inverse CDF of log10(region area), piecewise
// linear through the paper's quoted quantiles, capped at 1000 km² so the
// mean lands at ≈115 km².
var twitterAreaKnots = []struct{ log10A, cdf float64 }{
	{-5, 0}, {-4, 0.044}, {-2, 0.154}, {0, 0.297}, {2, 0.73}, {3, 1.0},
}

// Twitter generates the Twitter-like dataset.
func Twitter(cfg TwitterConfig) (*model.Dataset, error) {
	cfg.defaults()
	if cfg.N <= 0 {
		return nil, fmt.Errorf("gen: Twitter N=%d must be positive", cfg.N)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	space := geo.Rect{MinX: 0, MinY: 0, MaxX: twitterSide, MaxY: twitterSide}
	cities := newCityModel(rng, cfg.Cities, space, cfg.CitySigma)
	tokens := newTokenModel(rng, cfg.VocabSize, cfg.ZipfS)

	var b model.Builder
	for i := 0; i < cfg.N; i++ {
		area := sampleAreaFromKnots(rng, twitterAreaKnots)
		cx, cy := cities.sample(rng)
		region := placeRegion(rng, cx, cy, area, space)
		k := clampInt(int(math.Round(rng.NormFloat64()*cfg.MeanTokens/3+cfg.MeanTokens)), 1, int(3*cfg.MeanTokens))
		if _, err := b.Add(region, tokens.draw(k)); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// USAConfig parameterizes the USA+DBLP-like workload.
type USAConfig struct {
	N          int     // number of objects (paper: 1M)
	Seed       int64   // PRNG seed
	Cities     int     // spatial cluster count (default 150)
	CitySigma  float64 // mean city spread in km (default 10)
	VocabSize  int     // vocabulary size (default 30000)
	MeanTokens float64 // mean tokens per object (default 12.5)
	MeanSide   float64 // mean rectangle side in km (default 2.32 → area ≈ 5.4)
	ZipfS      float64 // token-frequency Zipf exponent, > 1 (default 1.10)
}

func (c *USAConfig) defaults() {
	if c.Cities <= 0 {
		c.Cities = 150
	}
	if c.CitySigma <= 0 {
		c.CitySigma = 10
	}
	if c.VocabSize <= 0 {
		c.VocabSize = 30000
	}
	if c.MeanTokens <= 0 {
		c.MeanTokens = 12.5
	}
	if c.MeanSide <= 0 {
		c.MeanSide = 2.32
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.10
	}
}

// USA generates the USA-like dataset: POI centers extended with random
// widths and heights (exponentially distributed sides), publication-record
// tokens.
func USA(cfg USAConfig) (*model.Dataset, error) {
	cfg.defaults()
	if cfg.N <= 0 {
		return nil, fmt.Errorf("gen: USA N=%d must be positive", cfg.N)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	space := geo.Rect{MinX: 0, MinY: 0, MaxX: usaSide, MaxY: usaSide}
	cities := newCityModel(rng, cfg.Cities, space, cfg.CitySigma)
	tokens := newTokenModel(rng, cfg.VocabSize, cfg.ZipfS)

	var b model.Builder
	for i := 0; i < cfg.N; i++ {
		w := clampF(rng.ExpFloat64()*cfg.MeanSide, 0.01, 50)
		h := clampF(rng.ExpFloat64()*cfg.MeanSide, 0.01, 50)
		cx, cy := cities.sample(rng)
		region := clampRect(geo.Rect{MinX: cx - w/2, MinY: cy - h/2, MaxX: cx + w/2, MaxY: cy + h/2}, space)
		k := clampInt(int(math.Round(rng.NormFloat64()*cfg.MeanTokens/3+cfg.MeanTokens)), 1, int(3*cfg.MeanTokens))
		if _, err := b.Add(region, tokens.draw(k)); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// cityModel places objects around Zipf-popular city centers.
type cityModel struct {
	cx, cy []float64
	sigma  []float64
	zipf   *rand.Zipf
}

func newCityModel(rng *rand.Rand, n int, space geo.Rect, meanSigma float64) *cityModel {
	m := &cityModel{
		cx:    make([]float64, n),
		cy:    make([]float64, n),
		sigma: make([]float64, n),
		zipf:  rand.NewZipf(rng, 1.5, 2, uint64(n-1)),
	}
	for i := 0; i < n; i++ {
		m.cx[i] = space.MinX + rng.Float64()*space.Width()
		m.cy[i] = space.MinY + rng.Float64()*space.Height()
		m.sigma[i] = meanSigma * (0.3 + rng.ExpFloat64())
	}
	return m
}

// sample draws a point near a popularity-weighted city.
func (m *cityModel) sample(rng *rand.Rand) (x, y float64) {
	c := int(m.zipf.Uint64())
	return m.cx[c] + rng.NormFloat64()*m.sigma[c], m.cy[c] + rng.NormFloat64()*m.sigma[c]
}

// tokenModel draws Zipf-distributed synthetic words. A draw reuses the
// model's buffers, and each rank's word is spelled once, on its first draw.
type tokenModel struct {
	zipf  *rand.Zipf
	words []string // words[r] is WordFor(r), or "" before rank r's first draw
	ranks []uint64 // the current draw's ranks
	out   []string // the current draw's words
}

func newTokenModel(rng *rand.Rand, vocabSize int, s float64) *tokenModel {
	return &tokenModel{
		zipf:  rand.NewZipf(rng, s, 3, uint64(vocabSize-1)),
		words: make([]string, vocabSize),
	}
}

// draw returns up to k distinct words, valid until the next draw. A repeated
// rank is dropped and costs an attempt, so a draw stops short of k after
// 6k+20 attempts.
func (tm *tokenModel) draw(k int) []string {
	tm.ranks, tm.out = tm.ranks[:0], tm.out[:0]
	for attempts := 0; len(tm.out) < k && attempts < 6*k+20; attempts++ {
		r := tm.zipf.Uint64()
		if slices.Contains(tm.ranks, r) {
			continue
		}
		tm.ranks = append(tm.ranks, r)
		if tm.words[r] == "" {
			tm.words[r] = WordFor(int(r))
		}
		tm.out = append(tm.out, tm.words[r])
	}
	return tm.out
}

// WordFor deterministically maps a token rank to a pronounceable synthetic
// word ("banodi", "rukema", ...), with rank 0 the most frequent token.
func WordFor(rank int) string {
	syll := []string{
		"ba", "de", "ki", "lo", "mu", "na", "po", "ra", "se", "ti",
		"vu", "wa", "ye", "zo", "chi", "fa", "gu", "he", "jo", "ku",
	}
	// Base-20 digits of rank+1 become syllables; 3+ syllables per word.
	n := rank + 1
	word := ""
	for n > 0 || len(word) < 6 {
		word += syll[n%len(syll)]
		n /= len(syll)
	}
	return word
}

// sampleAreaFromKnots inverts the piecewise-linear CDF of log10(area).
func sampleAreaFromKnots(rng *rand.Rand, knots []struct{ log10A, cdf float64 }) float64 {
	u := rng.Float64()
	for i := 1; i < len(knots); i++ {
		if u <= knots[i].cdf {
			a, b := knots[i-1], knots[i]
			t := (u - a.cdf) / (b.cdf - a.cdf)
			return math.Pow(10, a.log10A+t*(b.log10A-a.log10A))
		}
	}
	return math.Pow(10, knots[len(knots)-1].log10A)
}

// placeRegion builds a rectangle of the given area near (cx, cy) with a
// random aspect ratio, clamped into the space.
func placeRegion(rng *rand.Rand, cx, cy, area float64, space geo.Rect) geo.Rect {
	aspect := clampF(math.Exp(rng.NormFloat64()*0.4), 0.25, 4)
	w := math.Sqrt(area * aspect)
	h := math.Sqrt(area / aspect)
	return clampRect(geo.Rect{MinX: cx - w/2, MinY: cy - h/2, MaxX: cx + w/2, MaxY: cy + h/2}, space)
}

// clampRect shifts (and if necessary shrinks) r to fit inside space.
func clampRect(r geo.Rect, space geo.Rect) geo.Rect {
	w := math.Min(r.Width(), space.Width())
	h := math.Min(r.Height(), space.Height())
	minX := clampF(r.MinX, space.MinX, space.MaxX-w)
	minY := clampF(r.MinY, space.MinY, space.MaxY-h)
	return geo.Rect{MinX: minX, MinY: minY, MaxX: minX + w, MaxY: minY + h}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

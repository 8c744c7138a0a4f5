package seal

import (
	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/model"
)

// Method selects the candidate-generation strategy (the filter step): one of
// the paper's four signature families, each of which a segment directory can
// persist. Every method verifies candidates exactly, so all methods return
// identical answers; they differ in speed and index size. (The paper's §2.3
// baselines are reproduced by cmd/sealbench, not served.)
type Method int

const (
	// MethodSeal is the paper's full method: hierarchical hybrid signatures
	// with per-token HSS-Greedy grid selection (Section 5.2). Default.
	MethodSeal Method = iota
	// MethodTokenFilter uses textual signatures only (Sig-Filter+, §3.2).
	MethodTokenFilter
	// MethodGridFilter uses uniform-grid spatial signatures only (§4).
	MethodGridFilter
	// MethodHybridHash uses hash-based hybrid signatures (§5.1).
	MethodHybridHash
)

// SpatialSimilarity selects the region similarity function.
type SpatialSimilarity int

const (
	// SpatialJaccard is |∩| / |∪| (Definition 1). Default.
	SpatialJaccard SpatialSimilarity = iota
	// SpatialDice is 2|∩| / (|a|+|b|).
	SpatialDice
)

// TextualSimilarity selects the token-set similarity function.
type TextualSimilarity int

const (
	// TextualJaccard is the weighted Jaccard coefficient (Definition 2). Default.
	TextualJaccard TextualSimilarity = iota
	// TextualDice is the weighted Dice coefficient.
	TextualDice
	// TextualCosine is the weighted cosine over binary vectors.
	TextualCosine
)

type options struct {
	method          Method
	granularity     int
	hashBuckets     int
	gridBudget      int
	maxLevel        int
	shards          int
	spatialSim      model.SpatialSim
	textualSim      model.TextualSim
	weights         map[string]float64
	autoSet         bool
	autoGranularity []Request
	autoMaxLevel    int
	autoBenefit     float64
	segmentDir      string
}

func defaultOptions() options {
	return options{
		method:      MethodSeal,
		granularity: 1024,
		gridBudget:  core.DefaultHierarchicalConfig.GridBudget,
		maxLevel:    core.DefaultHierarchicalConfig.MaxLevel,
		shards:      1,
	}
}

// Option configures Build.
type Option func(*options)

// WithMethod selects the filtering method. The default is MethodSeal.
func WithMethod(m Method) Option {
	return func(o *options) { o.method = m }
}

// WithGranularity sets the uniform grid granularity P (the space is split
// into P×P cells) for MethodGridFilter and MethodHybridHash. Default 1024.
func WithGranularity(p int) Option {
	return func(o *options) { o.granularity = p }
}

// WithHashBuckets caps the number of hash buckets for MethodHybridHash
// (the index-size constraint of Section 5.1). Zero, the default, keys lists
// by the exact (token, cell) pair.
func WithHashBuckets(n int) Option {
	return func(o *options) { o.hashBuckets = n }
}

// WithGridBudget sets the average per-token grid budget m_t for MethodSeal:
// HSS-Greedy gives each token a budget proportional to its posting count
// with this mean, so the total element budget is mt × #tokens. Default 8.
func WithGridBudget(mt int) Option {
	return func(o *options) { o.gridBudget = mt }
}

// WithMaxLevel sets the grid-tree depth for MethodSeal: the finest grids
// partition the space 2^level × 2^level. Default 12.
func WithMaxLevel(level int) Option {
	return func(o *options) { o.maxLevel = level }
}

// WithShards splits the index into n spatial partitions that build and
// search in parallel. Every method stays exact — shard answers are merged,
// not approximated — so this only trades memory locality and per-query
// fan-out against multi-core speedup. The default, 1, preserves the
// monolithic layout; values below 1 mean 1, and the count is capped at the
// object count.
func WithShards(n int) Option {
	return func(o *options) { o.shards = n }
}

// WithSpatialSimilarity selects the region similarity function.
func WithSpatialSimilarity(s SpatialSimilarity) Option {
	return func(o *options) {
		switch s {
		case SpatialDice:
			o.spatialSim = model.SpaceDice
		default:
			o.spatialSim = model.SpaceJaccard
		}
	}
}

// WithTextualSimilarity selects the token-set similarity function.
func WithTextualSimilarity(s TextualSimilarity) Option {
	return func(o *options) {
		switch s {
		case TextualDice:
			o.textualSim = model.TextDice
		case TextualCosine:
			o.textualSim = model.TextCosine
		default:
			o.textualSim = model.TextJaccard
		}
	}
}

// WithTokenWeights replaces idf weighting with explicit token weights.
// Every token used by any object must be present in the map; Build fails
// otherwise. Query tokens outside the map are treated as unknown terms.
func WithTokenWeights(weights map[string]float64) Option {
	return func(o *options) {
		copied := make(map[string]float64, len(weights))
		for k, v := range weights {
			copied[k] = v
		}
		o.weights = copied
	}
}

// WithAutoGranularity runs the paper's grid-granularity selection
// (Section 4.3) over the given sample workload at build time and indexes
// with MethodGridFilter at the selected granularity. The sample's threshold
// requests are the workload; their TauR and TauT matter, their ranking fields
// do not. maxLevel bounds the search (granularity ≤ 2^maxLevel); benefit is
// the stopping threshold (larger stops earlier, trading query speed for index
// size).
func WithAutoGranularity(sample []Request, maxLevel int, benefit float64) Option {
	return func(o *options) {
		o.autoSet = true
		o.autoGranularity = append([]Request(nil), sample...)
		o.autoMaxLevel = maxLevel
		o.autoBenefit = benefit
	}
}

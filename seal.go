package seal

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/engine"
	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/gridsig"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/text"
)

// Rect is an axis-aligned rectangle: bottom-left (MinX, MinY) to top-right
// (MaxX, MaxY). Coordinates are in arbitrary planar units (the similarity is
// scale-free).
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Object is one spatio-textual region of interest to index.
//
// Plain objects set Region. Multi-region objects — e.g. a user whose
// activity clusters into several areas — set Regions instead; their spatial
// footprint is the union of those rectangles, with exact union-area
// similarity at verification time, and Region is ignored.
type Object struct {
	Region  Rect
	Regions []Rect
	Tokens  []string
}

// Match is one verified answer.
type Match struct {
	// ID is the position of the object in the slice passed to Build.
	ID int
	// SimR and SimT are the exact similarities to the query.
	SimR, SimT float64
	// Score is the combined ranking score Alpha·SimR + (1−Alpha)·SimT,
	// filled for ranked requests (Request.K > 0) and zero otherwise.
	Score float64
}

// Stats reports the cost breakdown of one search.
type Stats struct {
	// Candidates is the number of objects that survived the filter step.
	Candidates int
	// Results is the number of verified answers.
	Results int
	// ListsProbed and PostingsScanned count inverted-index work.
	ListsProbed     int
	PostingsScanned int
	// AdmitTime, FilterTime, VerifyTime and MergeTime split the query's time
	// by pipeline stage, as a trace's spans do: admission (validation and
	// compilation, for either kind of request: a ranked one compiles at its
	// floors), the filter and verify steps summed over the shards searched
	// (so on a sharded index they can exceed the wall clock), and the merge
	// of the shard answers into one. An arrival-order stream verifies as it
	// filters and merges nothing: its whole search is FilterTime, and its
	// VerifyTime and MergeTime are zero. Unless a shard was dropped, each
	// equals the same query's Trace.StageTotals entry, read off the same
	// clocks.
	AdmitTime  time.Duration
	FilterTime time.Duration
	VerifyTime time.Duration
	MergeTime  time.Duration
	// ShardFanout is the number of shard searches that actually ran: the
	// shards that survived pruning (see ShardsPruned), fewer still when early
	// termination (Limit, top-k pruning, cancellation) stopped shards before
	// they started.
	ShardFanout int
	// ShardsPruned counts shards skipped before dispatch because their
	// spatial extent provably cannot reach the query's spatial threshold
	// (ranked requests: FloorR). Every index prunes, whatever its method,
	// layout or shard count; ShardsPruned + ShardFanout never exceeds
	// IndexStats.Shards.
	ShardsPruned int
	// ShardErrors counts shards dropped from this query's answer because
	// they failed, timed out, or were quarantined at boot. Always zero
	// without AllowPartial — default queries fail instead of dropping.
	ShardErrors int
}

// IndexStats describes a built index.
type IndexStats struct {
	Objects    int
	Vocabulary int
	Method     string
	// Shards is the number of spatial partitions actually built (1 unless
	// WithShards asked for more); IndexBytes sums over all of them.
	Shards     int
	IndexBytes int64
	// SegmentBytes is the size on disk of the segment directory the index
	// was saved into or opened from; zero for an index with none.
	SegmentBytes int64
	BuildTime    time.Duration
	// Mapped reports that posting lists are served from mmap-ed sealed
	// segments (the index was opened from a segment directory) rather than
	// rebuilt in memory. Either way they are the same quantized lists.
	Mapped bool
}

// ErrEmptyIndex is returned by Build when no objects are supplied.
var ErrEmptyIndex = errors.New("seal: cannot build an index over zero objects")

// Index answers spatio-textual similarity queries. It is immutable after
// Build and safe for concurrent use. Query execution is delegated to the
// sharded scatter-gather engine, which with the default single shard is one
// monolithic index over the objects in ID order.
type Index struct {
	ds    *model.Dataset
	eng   *engine.Engine
	stats IndexStats
}

// Build indexes the objects. The default configuration is the paper's full
// SEAL method; see the With* options for alternatives.
func Build(objects []Object, opts ...Option) (*Index, error) {
	if len(objects) == 0 {
		return nil, ErrEmptyIndex
	}
	cfg := defaultOptions()
	for _, opt := range opts {
		opt(&cfg)
	}
	start := time.Now()

	var b model.Builder
	for i, o := range objects {
		if len(o.Regions) > 0 {
			set := make(geo.RectSet, len(o.Regions))
			for j, r := range o.Regions {
				set[j] = rectIn(r)
			}
			if _, err := b.AddMulti(set, o.Tokens); err != nil {
				return nil, fmt.Errorf("seal: object %d: %w", i, err)
			}
			continue
		}
		if _, err := b.Add(rectIn(o.Region), o.Tokens); err != nil {
			return nil, fmt.Errorf("seal: object %d: %w", i, err)
		}
	}
	var ds *model.Dataset
	var err error
	if cfg.weights != nil {
		vocab, verr := vocabFromWeights(objects, cfg.weights)
		if verr != nil {
			return nil, verr
		}
		ds, err = b.BuildWithVocab(vocab)
	} else {
		ds, err = b.Build()
	}
	if err != nil {
		return nil, err
	}

	if cfg.autoSet {
		p, aerr := autoGranularity(ds, cfg)
		if aerr != nil {
			return nil, aerr
		}
		cfg.granularity = p
		if cfg.method == MethodSeal {
			cfg.method = MethodGridFilter
		}
	}

	if cfg.segmentDir != "" {
		// A segment directory built from these objects under this
		// configuration replaces the whole build with an mmap; anything
		// stale, corrupt, or differently configured falls through to a
		// rebuild that overwrites it.
		if man, err := engine.ReadManifest(cfg.segmentDir); err == nil && manifestMatches(man, cfg, ds.Len()) &&
			man.Fingerprint == engine.Fingerprint(ds) {
			if eng, err := engine.OpenSegmentsWith(cfg.segmentDir, false); err == nil {
				return newIndex(eng, cfg.segmentDir, start, true), nil
			}
		}
	}

	spec := segmentSpec(cfg)
	eng, err := engine.Build(ds, engine.Config{
		Shards:    cfg.shards,
		NewFilter: func(sds *model.Dataset) (core.Filter, error) { return core.BuildFilter(sds, spec) },
	})
	if err != nil {
		return nil, err
	}
	if cfg.segmentDir != "" {
		if err := eng.SaveSegments(cfg.segmentDir); err != nil {
			return nil, err
		}
	}
	return newIndex(eng, cfg.segmentDir, start, false), nil
}

// newIndex wraps an engine built or opened since start, with its stats: dir
// is the segment directory it was saved into or opened from ("" for none),
// and mapped whether its postings are served from that directory.
func newIndex(eng *engine.Engine, dir string, start time.Time, mapped bool) *Index {
	ds := eng.Root()
	return &Index{ds: ds, eng: eng, stats: IndexStats{
		Objects:      ds.Len(),
		Vocabulary:   ds.Vocab().Len(),
		Method:       eng.FilterName(),
		Shards:       eng.Shards(),
		IndexBytes:   eng.SizeBytes(),
		SegmentBytes: segmentBytes(dir),
		BuildTime:    time.Since(start),
		Mapped:       mapped,
	}}
}

func vocabFromWeights(objects []Object, weights map[string]float64) (*text.Vocab, error) {
	// Sorted terms give reproducible token IDs.
	terms := slices.Sorted(maps.Keys(weights))
	vals := make([]float64, len(terms))
	for i, term := range terms {
		vals[i] = weights[term]
	}
	vocab, err := text.NewWithWeights(terms, vals)
	if err != nil {
		return nil, fmt.Errorf("seal: %w", err)
	}
	for i, o := range objects {
		for _, tok := range o.Tokens {
			if _, ok := vocab.Lookup(tok); !ok {
				return nil, fmt.Errorf("seal: object %d uses token %q missing from WithTokenWeights", i, tok)
			}
		}
	}
	return vocab, nil
}

func autoGranularity(ds *model.Dataset, cfg options) (int, error) {
	sample := make([]*model.Query, 0, len(cfg.autoGranularity))
	for _, q := range cfg.autoGranularity {
		mq, err := ds.NewQuery(rectIn(q.Region), q.Tokens, q.TauR, q.TauT)
		if err != nil {
			return 0, fmt.Errorf("seal: auto-granularity sample: %w", err)
		}
		sample = append(sample, mq)
	}
	res, err := core.SelectGranularity(ds, sample, cfg.autoMaxLevel, cfg.autoBenefit, gridsig.DefaultCostModel)
	if err != nil {
		return 0, fmt.Errorf("seal: auto-granularity: %w", err)
	}
	return res.P, nil
}

// Similarity returns the exact spatial and textual similarities between a
// request's region and tokens and the object with the given ID; the request's
// thresholds and ranking fields are ignored. A region that is not a rectangle
// fails with ErrInvalidRequest, as it fails Query.
func (ix *Index) Similarity(q Request, id int) (simR, simT float64, err error) {
	if err := ix.eng.Enter(); err != nil {
		return 0, 0, err
	}
	defer ix.eng.Exit()
	if id < 0 || id >= ix.ds.Len() {
		return 0, 0, fmt.Errorf("seal: object ID %d out of range [0,%d)", id, ix.ds.Len())
	}
	mq, err := ix.compile(q.Region, q.Tokens, 1, 1)
	if err != nil {
		return 0, 0, err
	}
	row := ix.ds.Row(model.ObjectID(id))
	return ix.ds.SimR(mq, row), ix.ds.SimT(mq, row), nil
}

// Len returns the number of indexed objects.
func (ix *Index) Len() int { return ix.ds.Len() }

// Object reconstructs the indexed object with the given ID: its region (or
// multi-region set) and token terms, in indexed order. It is the inverse of
// the slice passed to Build, and works on indexes opened from sealed
// segments too — the serving layer uses it to synthesize warmup queries that
// touch real posting lists.
func (ix *Index) Object(id int) (Object, error) {
	if err := ix.eng.Enter(); err != nil {
		return Object{}, err
	}
	defer ix.eng.Exit()
	if id < 0 || id >= ix.ds.Len() {
		return Object{}, fmt.Errorf("seal: object ID %d out of range [0,%d)", id, ix.ds.Len())
	}
	row := ix.ds.Row(model.ObjectID(id))
	vocab := ix.ds.Vocab()
	toks := ix.ds.Tokens(row)
	obj := Object{Tokens: make([]string, len(toks))}
	for i, t := range toks {
		obj.Tokens[i] = vocab.Term(text.TokenID(t))
	}
	if set := ix.ds.MultiRegion(row); set != nil {
		obj.Regions = make([]Rect, len(set))
		for i, r := range set {
			obj.Regions[i] = Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
		}
		return obj, nil
	}
	r := ix.ds.Region(row)
	obj.Region = Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
	return obj, nil
}

// Stats describes the index.
func (ix *Index) Stats() IndexStats { return ix.stats }

// TokenWeight returns the weight the index assigned to a token (idf by
// default), and false if the token does not occur in the corpus. It reads the
// (possibly mapped) vocabulary, so it is admitted against Close like every
// other read; a closed index knows no tokens and reports false.
func (ix *Index) TokenWeight(token string) (float64, bool) {
	if ix.eng.Enter() != nil {
		return 0, false
	}
	defer ix.eng.Exit()
	id, ok := ix.ds.Vocab().Lookup(token)
	if !ok {
		return 0, false
	}
	return ix.ds.Vocab().Weight(id), true
}

func rectIn(r Rect) geo.Rect {
	return geo.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
}

// Package model defines the spatio-textual data and query model of SEAL
// (Section 2.1): a Dataset of ROI objects — each an MBR region plus a
// weighted token set — and similarity-search queries with separate spatial
// and textual thresholds. It also provides the exact similarity verification
// used by every method's verify step. Similarity is Jaccard in both
// dimensions (Definitions 1 and 2), the only function whose prefix bounds
// every signature filter derives its thresholds from.
package model

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/text"
)

// ObjectID is an object's ID — its insertion position — or a row of a
// Dataset (both dense, 0-based); see Dataset for which a method takes.
type ObjectID uint32

// Dataset is an immutable collection of spatio-textual objects sharing a
// vocabulary. Build one with a Builder.
//
// The per-object state is columnar and indexed by row: one regions column
// and one CSR token arena (row r's token set is tokIDs[tokOff[r]:tokOff[r+1]])
// instead of a slice per object. That is the layout a dataset segment stores,
// so a dataset opened from disk is a set of views over the mapped file
// (FromColumns), and a shard is a range of rows of its parent (Subset) rather
// than a copy.
//
// Rows and public object IDs meet in one column, ids. A Builder's dataset
// keeps insertion order, so its rows are its IDs; Permute reorders the rows
// (the engine cuts them into Z-order shards) and every object keeps its ID. Every
// method that takes an ObjectID reads a row, except Row, which finds one.
type Dataset struct {
	vocab   *text.Vocab
	weights []float64 // the vocabulary's weight table, indexed by TokenID
	regions []geo.Rect
	tokOff  []uint32
	tokIDs  []text.TokenID // ascending and de-duplicated within each row
	totalW  []float64      // Σ w(t) per row
	space   geo.Rect       // MBR of the root dataset's regions
	// multi holds the rectangle-union footprints of multi-region objects by
	// object ID (nil when the dataset has none); see multiregion.go.
	multi map[ObjectID]geo.RectSet
	// ids maps rows to object IDs; nil is the identity. For lookups by ID,
	// runs holds the first row of each maximal ascending run of ids, then
	// len(ids): run k is rows [runs[k], runs[k+1]). A root's rows ascend by
	// ID inside each shard, so there is one run a shard or fewer. nil when
	// ids is, and on a Subset, which answers no lookup by ID.
	ids  []ObjectID
	runs []uint32
}

// Builder accumulates objects and freezes them into a Dataset.
// The zero value is ready to use.
type Builder struct {
	vb      text.Builder
	regions []geo.Rect
	tokOff  []uint32 // row ends so far; the leading 0 is added on freeze
	tokIDs  []text.TokenID
	multi   map[ObjectID]geo.RectSet
}

// Add appends one object with the given region and raw terms. Duplicate
// terms within one object count once. It returns the object's ID.
func (b *Builder) Add(region geo.Rect, terms []string) (ObjectID, error) {
	if !region.Valid() {
		return 0, fmt.Errorf("model: object %d: invalid region %v", len(b.regions), region)
	}
	if len(b.tokIDs)+len(terms) > math.MaxUint32 {
		return 0, fmt.Errorf("model: object %d: token arena exceeds %d entries", len(b.regions), math.MaxUint32)
	}
	id := ObjectID(len(b.regions))
	b.regions = append(b.regions, region)
	b.tokIDs = b.vb.AppendDoc(b.tokIDs, terms)
	b.tokOff = append(b.tokOff, uint32(len(b.tokIDs)))
	return id, nil
}

// Len returns the number of objects added so far.
func (b *Builder) Len() int { return len(b.regions) }

// offsets returns the CSR offset table over the rows added so far.
func (b *Builder) offsets() []uint32 {
	return append(make([]uint32, 1, len(b.tokOff)+1), b.tokOff...)
}

// Build freezes the builder. The resulting dataset computes idf weights
// w(t) = ln(|O|/count(t,O)) over the added objects.
func (b *Builder) Build() (*Dataset, error) {
	if len(b.regions) == 0 {
		return nil, errors.New("model: cannot build an empty dataset")
	}
	vocab := b.vb.Build()
	return newDataset(vocab, b.regions, b.offsets(), b.tokIDs, b.multi), nil
}

// BuildWithVocab freezes the builder but verifies against the supplied
// vocabulary (e.g. one built by NewWithWeights for custom token weights).
// Every token used by an object must exist in vocab.
func (b *Builder) BuildWithVocab(vocab *text.Vocab) (*Dataset, error) {
	if len(b.regions) == 0 {
		return nil, errors.New("model: cannot build an empty dataset")
	}
	own := b.vb.Build()
	// Re-map token IDs from the builder's interning order to vocab's; a row
	// keeps its length (the mapping is injective) but must be re-sorted.
	tokOff := b.offsets()
	remapped := make([]text.TokenID, len(b.tokIDs))
	for i := range b.regions {
		row := remapped[tokOff[i]:tokOff[i+1]]
		for j, id := range b.tokIDs[tokOff[i]:tokOff[i+1]] {
			vid, ok := vocab.Lookup(own.Term(id))
			if !ok {
				return nil, fmt.Errorf("model: object %d uses token %q absent from supplied vocab", i, own.Term(id))
			}
			row[j] = vid
		}
		text.SortDedup(row)
	}
	return newDataset(vocab, b.regions, tokOff, remapped, b.multi), nil
}

func newDataset(vocab *text.Vocab, regions []geo.Rect, tokOff []uint32, tokIDs []text.TokenID, multi map[ObjectID]geo.RectSet) *Dataset {
	ds := &Dataset{
		vocab:   vocab,
		weights: vocab.Weights(),
		regions: regions,
		tokOff:  tokOff,
		tokIDs:  tokIDs,
		totalW:  make([]float64, len(regions)),
		space:   geo.MBR(regions),
		multi:   multi,
	}
	for i := range regions {
		ds.totalW[i] = vocab.TotalWeight(tokIDs[tokOff[i]:tokOff[i+1]])
	}
	return ds
}

// ID returns the object ID of a row.
func (ds *Dataset) ID(row ObjectID) ObjectID {
	if ds.ids == nil {
		return row
	}
	return ds.ids[row]
}

// Row returns the row of object id: a binary search in each ascending run of
// the ID column. Only a root dataset answers it: a Subset holds a range of its
// parent's rows, not a row for every ID.
func (ds *Dataset) Row(id ObjectID) ObjectID {
	if ds.runs == nil {
		return id
	}
	for k, lo := range ds.runs[:len(ds.runs)-1] {
		if i, ok := slices.BinarySearch(ds.ids[lo:ds.runs[k+1]], id); ok {
			return ObjectID(lo + uint32(i))
		}
	}
	panic(fmt.Sprintf("model: object ID %d not in the dataset", id))
}

// Len returns the number of objects.
func (ds *Dataset) Len() int { return len(ds.regions) }

// Vocab returns the dataset vocabulary.
func (ds *Dataset) Vocab() *text.Vocab { return ds.vocab }

// Region returns the MBR of a row's object.
func (ds *Dataset) Region(row ObjectID) geo.Rect { return ds.regions[row] }

// Tokens returns a row's sorted token-ID set. Callers must not mutate it.
func (ds *Dataset) Tokens(row ObjectID) []text.TokenID {
	return ds.tokIDs[ds.tokOff[row]:ds.tokOff[row+1]]
}

// TokenWeight returns w(t).
func (ds *Dataset) TokenWeight(t text.TokenID) float64 { return ds.weights[t] }

// Weights returns the weight table indexed by TokenID. Read-only.
func (ds *Dataset) Weights() []float64 { return ds.weights }

// TotalWeight returns Σ_{t ∈ o.T} w(t) for a row's object.
func (ds *Dataset) TotalWeight(row ObjectID) float64 { return ds.totalW[row] }

// Area returns |o.R| for a row's object.
func (ds *Dataset) Area(row ObjectID) float64 { return ds.Region(row).Area() }

// Space returns the MBR of all object regions — the space decomposed into
// grids by the spatial signatures (Section 4.1).
func (ds *Dataset) Space() geo.Rect { return ds.space }

// Query is a compiled spatio-textual similarity query against a particular
// Dataset. Build one with Dataset.NewQuery.
type Query struct {
	Region geo.Rect
	// Tokens holds the query tokens known to the dataset vocabulary,
	// ascending and de-duplicated.
	Tokens []text.TokenID
	// SigTokens is Tokens reordered into the vocabulary's global signature
	// order (descending weight, Section 3.2) — the order every signature
	// filter probes lists in. It is compiled once here so that concurrent
	// shard searches share it instead of each re-sorting per query.
	SigTokens []text.TokenID
	// SigWeights[i] is w(SigTokens[i]).
	SigWeights []float64
	// UnknownWeight is the weight mass of query terms absent from every
	// object. Unknown terms can never match, but they still enlarge the
	// union in the Jaccard denominator, so they contribute to TotalWeight.
	UnknownWeight float64
	// TotalWeight is Σ w over all query terms, known and unknown.
	TotalWeight float64
	TauR, TauT  float64

	area float64
}

// ErrThreshold reports an out-of-range similarity threshold. It and
// NewQuery's other errors describe the query, not this package: the root
// wraps them as an invalid request.
var ErrThreshold = errors.New("similarity thresholds TauR and TauT must lie in (0, 1]")

// NewQuery compiles a query. Unknown terms (absent from the vocabulary) are
// legal: they receive the maximum idf weight ln(|O|) and participate in the
// Jaccard denominator only. Thresholds must lie in (0, 1]: a zero threshold
// would turn similarity search into a full scan (every disjoint object
// trivially satisfies sim >= 0), which the signature framework deliberately
// rejects rather than silently answering incorrectly.
func (ds *Dataset) NewQuery(region geo.Rect, terms []string, tauR, tauT float64) (*Query, error) {
	if !region.Valid() {
		return nil, fmt.Errorf("invalid query region %v", region)
	}
	// Written so that a NaN threshold fails: it compares false both ways.
	if !(tauR > 0 && tauR <= 1) || !(tauT > 0 && tauT <= 1) {
		return nil, fmt.Errorf("%w (got tauR=%g, tauT=%g)", ErrThreshold, tauR, tauT)
	}
	q := &Query{Region: region, TauR: tauR, TauT: tauT, area: region.Area()}
	maxW := maxIDFWeight(ds.Len())
	var seenUnknown map[string]bool
	ids := make([]text.TokenID, 0, len(terms))
	for _, term := range terms {
		if id, ok := ds.vocab.Lookup(term); ok {
			ids = append(ids, id)
		} else {
			if seenUnknown == nil {
				seenUnknown = make(map[string]bool, 2)
			}
			if !seenUnknown[term] {
				seenUnknown[term] = true
				q.UnknownWeight += maxW
			}
		}
	}
	q.Tokens = text.SortDedup(ids)
	q.TotalWeight = ds.vocab.TotalWeight(q.Tokens) + q.UnknownWeight
	ds.compileSignature(q)
	return q, nil
}

// compileSignature precomputes the signature-ordered token view filters probe
// with.
func (ds *Dataset) compileSignature(q *Query) {
	q.SigTokens = append([]text.TokenID(nil), q.Tokens...)
	ds.vocab.SortBySignatureOrder(q.SigTokens)
	q.SigWeights = make([]float64, len(q.SigTokens))
	for i, t := range q.SigTokens {
		q.SigWeights[i] = ds.weights[t]
	}
}

func maxIDFWeight(numObjects int) float64 {
	if numObjects < 1 {
		numObjects = 1
	}
	return math.Log(float64(numObjects))
}

// Area returns the cached query-region area |q.R|.
func (q *Query) Area() float64 { return q.area }

// SimR returns the exact spatial Jaccard similarity |q ∩ o| / |q ∪ o|
// between the query and a row's object (Definition 1). Multi-region objects
// are measured against their rectangle union.
func (ds *Dataset) SimR(q *Query, row ObjectID) float64 {
	if ds.multi != nil {
		if set, ok := ds.multi[ds.ID(row)]; ok {
			return ds.simRMulti(q, set)
		}
	}
	return geo.Jaccard(q.Region, ds.regions[row])
}

// SimT returns the exact weighted textual Jaccard similarity between the
// query and a row's object (Definition 2). The query's unknown-term weight
// counts toward the union (denominator).
func (ds *Dataset) SimT(q *Query, row ObjectID) float64 {
	o := ds.tokIDs[ds.tokOff[row]:ds.tokOff[row+1]]
	return text.WeightedJaccard(q.Tokens, o, ds.weights, q.TotalWeight, ds.totalW[row])
}

// Matches reports whether a row's object satisfies both thresholds — the
// verification step shared by every search method.
func (ds *Dataset) Matches(q *Query, row ObjectID) bool {
	return ds.SimR(q, row) >= q.TauR && ds.SimT(q, row) >= q.TauT
}

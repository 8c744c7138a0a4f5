// Package text provides the textual model of SEAL: a token vocabulary with
// inverse-document-frequency weighting and weighted set-similarity functions
// over sorted token-ID sets (Definition 2 of the paper).
//
// Tokens are interned to dense uint32 IDs so that the rest of the library can
// work with sorted integer slices; the weight of token t is
// w(t) = ln(|O| / count(t, O)), where count(t, O) is the number of objects
// whose token set contains t.
package text

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// TokenID is the dense identifier of an interned token.
type TokenID uint32

// Vocab is an immutable token vocabulary with per-token document counts and
// weights. Build one with a Builder, or supply explicit weights with
// NewWithWeights.
type Vocab struct {
	ids map[string]TokenID
	// blob holds every term back to back — term id is
	// blob[off[id]:off[id+1]] — so the vocabulary is one heap string and an
	// offset table instead of a string header per term, and a dataset
	// segment stores and restores it as two flat sections.
	blob    string
	off     []uint32
	counts  []uint32 // nil when the weights were supplied, not counted
	weights []float64
	// rank[t] is the position of token t in the global signature order
	// (descending weight, ties broken by ascending ID), as required by the
	// prefix-filtering framework of Section 3.2.
	rank []uint32
}

// Builder accumulates documents (object token sets) and produces a Vocab.
// The zero value is ready to use.
type Builder struct {
	ids    map[string]TokenID
	terms  []string
	counts []uint32
	docs   int
}

// Intern returns the ID for term, creating it if needed, without touching
// document counts. Use AddDoc for counting.
func (b *Builder) Intern(term string) TokenID {
	if b.ids == nil {
		b.ids = make(map[string]TokenID)
	}
	if id, ok := b.ids[term]; ok {
		return id
	}
	id := TokenID(len(b.terms))
	b.ids[term] = id
	b.terms = append(b.terms, term)
	b.counts = append(b.counts, 0)
	return id
}

// AddDoc interns the document's terms, increments each distinct term's
// document count once, and returns the document's sorted, de-duplicated
// token-ID set.
func (b *Builder) AddDoc(terms []string) []TokenID {
	return b.AppendDoc(make([]TokenID, 0, len(terms)), terms)
}

// AppendDoc is AddDoc appending the document's token-ID set to dst, so a
// caller accumulating many documents into one arena allocates none of them
// separately.
func (b *Builder) AppendDoc(dst []TokenID, terms []string) []TokenID {
	start := len(dst)
	for _, term := range terms {
		dst = append(dst, b.Intern(term))
	}
	set := SortDedup(dst[start:])
	for _, id := range set {
		b.counts[id]++
	}
	b.docs++
	return dst[:start+len(set)]
}

// Docs returns the number of documents added so far.
func (b *Builder) Docs() int { return b.docs }

// Build freezes the builder into a Vocab using idf weights
// w(t) = ln(numDocs / count(t)). Tokens that were interned but never counted
// (query-only terms) receive the maximum weight ln(numDocs), i.e. they are
// treated as if they occurred once.
func (b *Builder) Build() *Vocab {
	n := b.docs
	if n < 1 {
		n = 1
	}
	weights := make([]float64, len(b.terms))
	for i, c := range b.counts {
		if c == 0 {
			c = 1
		}
		w := math.Log(float64(n) / float64(c))
		if w < 0 {
			w = 0
		}
		weights[i] = w
	}
	v := &Vocab{
		ids:     b.ids,
		counts:  b.counts,
		weights: weights,
	}
	v.blob, v.off = joinTerms(b.terms)
	v.buildRank()
	return v
}

// joinTerms lays terms out as one blob plus the offset table that slices it.
// Offsets are 32-bit: a vocabulary is far below 4 GiB of term bytes.
func joinTerms(terms []string) (string, []uint32) {
	total := 0
	for _, term := range terms {
		total += len(term)
	}
	var sb strings.Builder
	sb.Grow(total)
	off := make([]uint32, len(terms)+1)
	for i, term := range terms {
		sb.WriteString(term)
		off[i+1] = uint32(sb.Len())
	}
	return sb.String(), off
}

// NewWithWeights creates a vocabulary from parallel term/weight slices,
// bypassing idf computation. It is used when the caller supplies domain
// weights (and by tests reproducing the paper's rounded example weights).
// Weights must be non-negative.
func NewWithWeights(terms []string, weights []float64) (*Vocab, error) {
	if len(terms) != len(weights) {
		return nil, fmt.Errorf("text: %d terms but %d weights", len(terms), len(weights))
	}
	ids := make(map[string]TokenID, len(terms))
	for i, term := range terms {
		if _, dup := ids[term]; dup {
			return nil, fmt.Errorf("text: duplicate term %q", term)
		}
		if weights[i] < 0 {
			return nil, fmt.Errorf("text: negative weight %g for term %q", weights[i], term)
		}
		ids[term] = TokenID(i)
	}
	v := &Vocab{
		ids:     ids,
		weights: append([]float64(nil), weights...),
	}
	v.blob, v.off = joinTerms(terms)
	v.buildRank()
	return v, nil
}

// FromBlob restores a vocabulary from the flat form Blob exports plus its
// weight table: term id is blob[off[id]:off[id+1]] with weight weights[id].
// The input is untrusted (it comes from a dataset segment): the offsets must
// slice blob exactly, terms must be distinct, and weights finite and
// non-negative. blob, off and weights are retained, and every term Term and
// Lookup hand out aliases blob — so they must be heap memory, not a mapping.
func FromBlob(blob string, off []uint32, weights []float64) (*Vocab, error) {
	n := len(weights)
	if len(off) != n+1 || off[0] != 0 || int(off[n]) != len(blob) {
		return nil, fmt.Errorf("text: term offsets do not span the %d-byte blob for %d terms", len(blob), n)
	}
	ids := make(map[string]TokenID, n)
	for i := 0; i < n; i++ {
		if off[i] > off[i+1] || int(off[i+1]) > len(blob) {
			return nil, fmt.Errorf("text: term offsets not monotone inside the blob at term %d", i)
		}
		if !(weights[i] >= 0) || math.IsInf(weights[i], 1) { // NaN fails the first test
			return nil, fmt.Errorf("text: term %d has weight %g", i, weights[i])
		}
		ids[blob[off[i]:off[i+1]]] = TokenID(i)
	}
	if len(ids) != n {
		return nil, errors.New("text: vocabulary blob repeats a term")
	}
	v := &Vocab{ids: ids, blob: blob, off: off, weights: weights}
	v.buildRank()
	return v, nil
}

// Blob exports the terms in the flat form FromBlob restores. Read-only.
func (v *Vocab) Blob() (blob string, off []uint32) { return v.blob, v.off }

func (v *Vocab) buildRank() {
	order := make([]TokenID, len(v.weights))
	for i := range order {
		order[i] = TokenID(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if v.weights[a] != v.weights[b] {
			return v.weights[a] > v.weights[b]
		}
		return a < b
	})
	v.rank = make([]uint32, len(v.weights))
	for pos, id := range order {
		v.rank[id] = uint32(pos)
	}
}

// Len returns the number of distinct tokens.
func (v *Vocab) Len() int { return len(v.weights) }

// Lookup returns the ID of term, if interned.
func (v *Vocab) Lookup(term string) (TokenID, bool) {
	id, ok := v.ids[term]
	return id, ok
}

// Term returns the string form of id.
func (v *Vocab) Term(id TokenID) string { return v.blob[v.off[id]:v.off[id+1]] }

// Count returns the document count of id; 0 when the vocabulary's weights
// were supplied (NewWithWeights, FromBlob) rather than counted.
func (v *Vocab) Count(id TokenID) uint32 {
	if v.counts == nil {
		return 0
	}
	return v.counts[id]
}

// Weight returns w(id).
func (v *Vocab) Weight(id TokenID) float64 { return v.weights[id] }

// Weights returns the weight table indexed by TokenID. Read-only.
func (v *Vocab) Weights() []float64 { return v.weights }

// Rank returns the position of id in the global signature order
// (descending weight, ascending ID on ties). Lower rank means "rarer":
// rarer tokens come first in signature prefixes.
func (v *Vocab) Rank(id TokenID) uint32 { return v.rank[id] }

// Less reports whether a precedes b in the global signature order.
func (v *Vocab) Less(a, b TokenID) bool { return v.rank[a] < v.rank[b] }

// SortBySignatureOrder sorts ids in place by the global signature order.
func (v *Vocab) SortBySignatureOrder(ids []TokenID) {
	sort.Slice(ids, func(i, j int) bool { return v.rank[ids[i]] < v.rank[ids[j]] })
}

// TotalWeight returns the weight sum of the token set.
func (v *Vocab) TotalWeight(ids []TokenID) float64 {
	var sum float64
	for _, id := range ids {
		sum += v.weights[id]
	}
	return sum
}

// SortDedup sorts ids ascending and removes duplicates in place.
func SortDedup(ids []TokenID) []TokenID {
	if len(ids) < 2 {
		return ids
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}

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
	"cmp"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"strings"
)

// TokenID is the dense identifier of an interned token.
type TokenID uint32

// Vocab is an immutable token vocabulary with per-token document counts and
// weights. Build one with a Builder, or supply explicit weights with
// NewWithWeights.
type Vocab struct {
	// blob holds every term back to back — term id is
	// blob[off[id]:off[id+1]] — so the vocabulary is one string and an
	// offset table instead of a string header per term, and a dataset
	// segment stores and restores it as two flat sections. An opened segment
	// hands in its mapped section, so the package reads terms in place
	// (term) and Term copies what leaves it.
	blob string
	off  []uint32
	// slots is an open-addressing table over the terms: a term hashes to a
	// slot and probes linearly until a slot holding its ID + 1 or an empty
	// (0) slot. Its length is the least power of two at least 4/3 of the
	// vocabulary, so the table is at most ¾ full and every probe ends at an
	// empty slot.
	slots   []uint32
	counts  []uint32 // nil when the weights were supplied, not counted
	weights []float64
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
// document counts. Use AppendDoc for counting.
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

// AppendDoc interns the document's terms, increments each distinct term's
// document count once, and appends the document's sorted, de-duplicated
// token-ID set to dst, so a caller accumulating many documents into one
// arena allocates none of them separately.
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
	v := &Vocab{counts: b.counts, weights: weights}
	v.blob, v.off = joinTerms(b.terms)
	if err := v.index(); err != nil {
		panic(err) // Intern hands out one ID a term
	}
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
// Weights must be finite and non-negative (see validWeight).
func NewWithWeights(terms []string, weights []float64) (*Vocab, error) {
	if len(terms) != len(weights) {
		return nil, fmt.Errorf("text: %d terms but %d weights", len(terms), len(weights))
	}
	for i, term := range terms {
		if !validWeight(weights[i]) {
			return nil, fmt.Errorf("text: term %q has weight %g, want a finite weight >= 0", term, weights[i])
		}
	}
	v := &Vocab{weights: slices.Clone(weights)}
	v.blob, v.off = joinTerms(terms)
	if err := v.index(); err != nil {
		return nil, err
	}
	return v, nil
}

// FromBlob restores a vocabulary from the flat form Blob exports plus its
// weight table: term id is blob[off[id]:off[id+1]] with weight weights[id].
// The input is untrusted (it comes from a dataset segment): the offsets must
// slice blob exactly, terms must be distinct, and weights finite and
// non-negative. blob, off and weights are retained and read in place, and
// each may alias a read-only mapping: Term copies the terms it hands out, so
// none outlives the mapping.
func FromBlob(blob string, off []uint32, weights []float64) (*Vocab, error) {
	n := len(weights)
	if len(off) != n+1 || off[0] != 0 || int(off[n]) != len(blob) {
		return nil, fmt.Errorf("text: term offsets do not span the %d-byte blob for %d terms", len(blob), n)
	}
	for i := 0; i < n; i++ {
		if off[i] > off[i+1] || int(off[i+1]) > len(blob) {
			return nil, fmt.Errorf("text: term offsets not monotone inside the blob at term %d", i)
		}
		if !validWeight(weights[i]) {
			return nil, fmt.Errorf("text: term %d has weight %g", i, weights[i])
		}
	}
	v := &Vocab{blob: blob, off: off, weights: weights}
	if err := v.index(); err != nil {
		return nil, err
	}
	return v, nil
}

// hashSeed keys the term hash. It is drawn once a process, so no input can be
// crafted to collide in every process.
var hashSeed = maphash.MakeSeed()

// index builds the lookup table over v's terms and rejects a term that
// occurs twice.
func (v *Vocab) index() error {
	n := len(v.weights)
	size := 1
	for 3*size < 4*n {
		size <<= 1
	}
	v.slots = make([]uint32, size)
	mask := uint64(len(v.slots) - 1)
	for id := range n {
		term := v.term(TokenID(id))
		i := maphash.String(hashSeed, term) & mask
		for ; v.slots[i] != 0; i = (i + 1) & mask {
			if v.term(TokenID(v.slots[i]-1)) == term {
				return fmt.Errorf("text: vocabulary repeats the term %q", term)
			}
		}
		v.slots[i] = uint32(id) + 1
	}
	return nil
}

// validWeight reports whether w can weigh a term: finite and non-negative.
// NaN and +Inf would make every similarity and suffix bound over the term NaN.
func validWeight(w float64) bool { return w >= 0 && !math.IsInf(w, 1) } // NaN fails w >= 0

// Blob exports the terms in the flat form FromBlob restores. Read-only; the
// blob may alias a mapping (see FromBlob), so neither may outlive it.
func (v *Vocab) Blob() (blob string, off []uint32) { return v.blob, v.off }

// Len returns the number of distinct tokens.
func (v *Vocab) Len() int { return len(v.weights) }

// Lookup returns the ID of term, if interned.
func (v *Vocab) Lookup(term string) (TokenID, bool) {
	mask := uint64(len(v.slots) - 1)
	for i := maphash.String(hashSeed, term) & mask; v.slots[i] != 0; i = (i + 1) & mask {
		if id := TokenID(v.slots[i] - 1); v.term(id) == term {
			return id, true
		}
	}
	return 0, false
}

// Term returns the string form of id, as a copy: it may outlive a mapping
// the vocabulary reads.
func (v *Vocab) Term(id TokenID) string { return strings.Clone(v.term(id)) }

// term is Term read in place.
func (v *Vocab) term(id TokenID) string { return v.blob[v.off[id]:v.off[id+1]] }

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

// SortBySignatureOrder sorts ids in place by the global signature order of
// the prefix-filtering framework (Section 3.2): descending weight, ties broken
// by ascending ID, so rarer tokens come first in signature prefixes. Weights
// are never NaN (validWeight), so the order is total.
func (v *Vocab) SortBySignatureOrder(ids []TokenID) {
	slices.SortFunc(ids, func(a, b TokenID) int {
		if wa, wb := v.weights[a], v.weights[b]; wa != wb {
			if wa > wb {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	})
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
	slices.Sort(ids)
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}

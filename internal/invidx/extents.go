package invidx

import (
	"fmt"
	"math/bits"
)

// Extents is a monotone offset table: a non-decreasing sequence
// 0 = v₀ ≤ v₁ ≤ … ≤ vₙ coded in unary, as a bitmap with bit vᵢ + i set for
// every i. The ones are the entries and the zeros between two of them the
// extent of one — so vᵢ = select₁(i) − i, the table is monotone by
// construction, and it costs vₙ + n + 1 bits where an array of uint32 offsets
// costs 32(n + 1). It serves both of an index's offset tables: a compressed
// index's list extents, counted in rows, and its key column's group runs,
// counted in nodes. On the index SEAL builds the two take under six bits
// a list where their uint32 arrays took 40, because most lists and most runs
// are short.
//
// The words are stored little-endian in a segment and viewed in place. The
// select samples — the position of every 32nd one — are derived on the heap
// when the words are validated, so nothing is stored that could disagree with
// them. A select walks on from its sample through at most nine words, because
// a stretch of 32 ones spread wider than sparseSpan bits — a frequent token's
// run, a long list — keeps the position of each of its ones instead: one
// stretch in forty on the index SEAL builds.
type Extents struct {
	words   []uint64
	samples []uint32 // samples[k] is the position of one number 32k, or sparse | where spread holds its stretch
	spread  []uint32 // the positions of the ones of every sparse stretch, stretch after stretch
	n       int
}

const (
	extentSample = 32      // ones in a stretch: between two select samples
	sparseSpan   = 8 * 64  // bits a dense stretch spans at most
	sparse       = 1 << 31 // marks a sample that indexes spread
)

// extentsOf codes vals, which must start at 0 and never descend, as a table
// of len(vals)-1 extents. Input that breaks that is the producer's bug and
// panics.
func extentsOf(vals []uint32) *Extents {
	n := len(vals) - 1
	if n < 0 {
		panic("invidx: an extent table needs at least its starting value")
	}
	last := uint64(vals[n])
	words := make([]uint64, (last+uint64(n))/64+1)
	for i, v := range vals {
		p := uint64(v) + uint64(i)
		words[p/64] |= 1 << (p % 64)
	}
	e, err := extentsFromWords(words, last)
	if err != nil {
		panic(fmt.Sprintf("invidx: offsets do not ascend from 0: %v", err))
	}
	return e
}

// extentsFromWords validates words as the unary code of a sequence from 0 to
// last and wraps it, sharing (not copying) the slice: bit 0 set (v₀ = 0), the
// highest set bit — the terminal one — at last + n where n + 1 is the
// popcount, and no word past the terminal bit's. A table that passes decodes
// to a non-decreasing sequence of n + 1 values ending at last. The select
// samples are taken in the same pass, and the sparse stretches spread after.
func extentsFromWords(words []uint64, last uint64) (*Extents, error) {
	switch {
	case len(words) == 0 || words[len(words)-1] == 0:
		return nil, corrupt("extent table lacks its terminal bit")
	case words[0]&1 == 0:
		return nil, corrupt("extent table does not start at 0")
	case len(words) > sparse/64:
		return nil, corrupt("extent table exceeds 31-bit positions")
	}
	e := &Extents{words: words}
	ones := 0
	for w, word := range words {
		c := bits.OnesCount64(word)
		// The ones numbered next, next+32, … below ones+c lie in this word.
		for next := (ones + extentSample - 1) / extentSample * extentSample; next < ones+c; next += extentSample {
			e.samples = append(e.samples, uint32(w*64+selectInWord(word, next-ones)))
		}
		ones += c
	}
	e.n = ones - 1
	terminal := len(words)*64 - 1 - bits.LeadingZeros64(words[len(words)-1])
	if uint64(terminal) != last+uint64(e.n) {
		return nil, corrupt("extent table does not end at its total")
	}
	for k, p := range e.samples {
		end := terminal + 1
		if k+1 < len(e.samples) {
			end = int(e.samples[k+1])
		}
		if end-int(p) <= sparseSpan {
			continue
		}
		e.samples[k] = sparse | uint32(len(e.spread))
		c := extentCursor{words: words, word: words[p/64] >> (p % 64) << (p % 64), w: int(p / 64), i: k * extentSample}
		for j := k * extentSample; j < min((k+1)*extentSample, ones); j++ {
			e.spread = append(e.spread, uint32(c.next()+j)) // v_j + j: one j's position
		}
	}
	return e, nil
}

// Len returns n, the number of extents: the table holds n+1 values.
func (e *Extents) Len() int { return e.n }

// Get returns vᵢ, for 0 <= i <= Len().
func (e *Extents) Get(i int) int {
	w, word := e.locate(i)
	return w*64 + bits.TrailingZeros64(word) - i
}

// Span returns vᵢ and vᵢ₊₁, the bounds of extent i, for 0 <= i < Len(): one
// select, then the next one up, which is in the same word or the next unless
// the extent is long, and a second select then.
func (e *Extents) Span(i int) (lo, hi int) {
	w, word := e.locate(i)
	lo = w*64 + bits.TrailingZeros64(word) - i
	if word &= word - 1; word == 0 {
		if w++; e.words[w] == 0 { // the terminal bit is past one i: w is in range
			w, word = e.locate(i + 1)
		} else {
			word = e.words[w]
		}
	}
	return lo, w*64 + bits.TrailingZeros64(word) - i - 1
}

// sizeBytes is the table's stored size: the words, not the derived samples.
func (e *Extents) sizeBytes() int64 { return int64(len(e.words)) * 8 }

// locate is select₁: it returns the word holding one number i, less the
// ones below it, so that one i is the word's lowest set bit. In a sparse
// stretch the one's position is spread's; in a dense one the walk from the
// sample's word, most often that word or the next, ends within nine words,
// and the bit inside the last is a broadword select.
func (e *Extents) locate(i int) (w int, word uint64) {
	p, r := uint(e.samples[uint(i)/extentSample]), uint(i)%extentSample
	if p&sparse != 0 {
		p, r = uint(e.spread[p&^sparse+r]), 0
	}
	w = int(p / 64)
	word = e.words[w] >> (p % 64) << (p % 64)
	for c := uint(bits.OnesCount64(word)); r >= c; c = uint(bits.OnesCount64(word)) {
		r -= c
		w++
		word = e.words[w]
	}
	if r > 0 {
		b := uint(selectInWord(word, int(r)))
		word = word >> b << b
	}
	return w, word
}

// values returns a cursor over v₀, v₁, …, vₙ in order.
func (e *Extents) values() extentCursor { return extentCursor{words: e.words, word: e.words[0]} }

// extentCursor walks a table's values in order, one a next call; the caller
// makes at most Len()+1 calls.
type extentCursor struct {
	words []uint64
	word  uint64 // the current word, less the ones already visited
	w, i  int
}

func (c *extentCursor) next() int {
	for c.word == 0 {
		c.w++
		c.word = c.words[c.w]
	}
	v := c.w*64 + bits.TrailingZeros64(c.word) - c.i
	c.word &= c.word - 1
	c.i++
	return v
}

// selectInWord returns the position of the r-th one (from 0) of x, which has
// more than r: broadword (Vigna, "Broadword implementation of rank/select
// queries", 2008) — byte-wise popcounts summed into prefix counts by one
// multiply, the byte holding the one found by comparing all eight prefix
// counts with r at once, and the bit inside it by table. Small enough to
// inline.
func selectInWord(x uint64, r int) int {
	const ones8, highs8 = 0x0101010101010101, 0x8080808080808080
	s := x - (x>>1)&0x5555555555555555
	s = s&0x3333333333333333 + (s>>2)&0x3333333333333333
	s = ((s + s>>4) & 0x0F0F0F0F0F0F0F0F) * ones8 // byte j: ones in bytes 0..j
	// Byte j's high bit survives where its prefix count is > r; the lowest
	// such byte holds the one.
	place := uint(bits.TrailingZeros64(((s|highs8)-uint64(r+1)*ones8)&highs8)) &^ 7
	return int(place) + int(selectInByte[(x>>place)&0xFF|uint64(r-int(s<<8>>place&0xFF))<<8])
}

// selectInByte[b | r<<8] is the position of the r-th one of byte b.
var selectInByte = func() (t [8 * 256]uint8) {
	for b := 0; b < 256; b++ {
		r := 0
		for p := 0; p < 8; p++ {
			if b>>p&1 == 1 {
				t[b|r<<8] = uint8(p)
				r++
			}
		}
	}
	return t
}()

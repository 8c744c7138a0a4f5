package invidx

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// prefixSums returns 0 and the running sums of gaps: the values a table of
// those extents holds.
func prefixSums(gaps []uint32) []uint32 {
	vals := []uint32{0}
	for _, g := range gaps {
		vals = append(vals, vals[len(vals)-1]+g)
	}
	return vals
}

// checkExtents asserts that e holds exactly vals: its length, every value by
// Get, every extent by Span and the whole sequence by its cursor.
func checkExtents(t *testing.T, e *Extents, vals []uint32) {
	t.Helper()
	n := len(vals) - 1
	if e.Len() != n {
		t.Fatalf("Len %d, want %d", e.Len(), n)
	}
	cur := e.values()
	for i, v := range vals {
		if got := e.Get(i); got != int(v) {
			t.Fatalf("Get(%d) = %d, want %d", i, got, v)
		}
		if got := cur.next(); got != int(v) {
			t.Fatalf("value %d walked as %d, want %d", i, got, v)
		}
		if i < n {
			if lo, hi := e.Span(i); lo != int(v) || hi != int(vals[i+1]) {
				t.Fatalf("Span(%d) = [%d, %d), want [%d, %d)", i, lo, hi, v, vals[i+1])
			}
		}
	}
	if want := (int(vals[n])+n)/64 + 1; len(e.words) != want {
		t.Fatalf("%d words for %d bits", len(e.words), int(vals[n])+n+1)
	}
}

// TestSelectInWord holds the broadword select to the obvious loop over every
// one of random words of every density.
func TestSelectInWord(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	words := []uint64{1, 1 << 63, ^uint64(0), 0x8000000000000001, 0x0101010101010101}
	for i := 0; i < 2000; i++ {
		w := rng.Uint64()
		for k := rng.Intn(4); k > 0; k-- {
			w &= rng.Uint64() // sparser
		}
		words = append(words, w|1<<rng.Intn(64))
	}
	for _, w := range words {
		r := 0
		for p := 0; p < 64; p++ {
			if w>>p&1 == 0 {
				continue
			}
			if got := selectInWord(w, r); got != p {
				t.Fatalf("select(%#x, %d) = %d, want %d", w, r, got, p)
			}
			r++
		}
	}
}

// TestExtentsRoundTrip codes sequences of every shape — empty, one entry,
// zero gaps, gaps of 64 and of 65,536 that leave whole words without a one,
// and long random ones whose select samples cross many words — and reads each
// back by Get, Span and the cursor; revalidating the words gives the same
// table.
func TestExtentsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shapes := map[string][]uint32{
		"empty":          nil,
		"one":            {5},
		"zero gaps":      {0, 0, 0, 3, 0, 0},
		"word-wide gaps": {63, 64, 65, 0, 127, 128},
		"a 65,536 gap":   {1, 65536, 0, 2},
		// Stretches of 32 ones both dense — a walk of several words from the
		// sample — and sparse, whose ones' positions are kept.
		"long extents between samples": slices.Repeat([]uint32{0, 1, 600, 2, 0, 5000, 63, 64, 65, 0, 0, 511}, 40),
	}
	for _, n := range []int{31, 32, 33, 1000, 150000} {
		gaps := make([]uint32, n)
		for i := range gaps {
			switch r := rng.Intn(100); {
			case r < 64:
				gaps[i] = 1
			case r < 80:
				gaps[i] = uint32(rng.Intn(3))
			case r < 99:
				gaps[i] = uint32(rng.Intn(64))
			default:
				gaps[i] = uint32(rng.Intn(5000))
			}
		}
		shapes[fmt.Sprintf("%d random", n)] = gaps
	}
	for name, gaps := range shapes {
		t.Run(name, func(t *testing.T) {
			vals := prefixSums(gaps)
			e := extentsOf(vals)
			checkExtents(t, e, vals)
			again, err := extentsFromWords(slices.Clone(e.words), uint64(vals[len(vals)-1]))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(again.samples, e.samples) {
				t.Fatalf("revalidated samples differ")
			}
		})
	}
}

// TestExtentsRejectCorrupt: every lie a stored table can tell is ErrCorrupt
// — or, where the bits spell a valid table of another length, a length its
// owner checks.
func TestExtentsRejectCorrupt(t *testing.T) {
	vals := prefixSums([]uint32{1, 0, 3, 70, 1, 0})
	last := uint64(vals[len(vals)-1])
	good := extentsOf(vals).words
	for _, c := range extentCorruptions {
		if _, err := extentsFromWords(c.mutate(slices.Clone(good)), last); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err %v, want ErrCorrupt", c.name, err)
		}
	}
	for _, claim := range []uint64{last - 1, last + 1, 0} {
		if _, err := extentsFromWords(slices.Clone(good), claim); !errors.Is(err, ErrCorrupt) {
			t.Errorf("a table ending at %d claimed to end at %d: err %v", last, claim, err)
		}
	}
	// One more bit right after the terminal one is a valid table with an
	// empty last extent: its owner knows the length.
	if e, err := extentsFromWords(setBit(slices.Clone(good), terminalBit(good)+1), last); err != nil || e.Len() != len(vals) {
		t.Fatalf("an extra empty extent: Len %v, err %v", e, err)
	}
}

// FuzzExtents round-trips sequences drawn from the input — a byte a gap, 0xFF
// standing for a gap of 65,536 — and checks Get(i) against the prefix sums,
// then flips one bit of the coded words: the table must then be refused with
// ErrCorrupt, or decode to a length other than the sequence's, which every
// owner checks; never a panic.
func FuzzExtents(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{0, 0, 0}, uint32(1))
	f.Add([]byte{1, 1, 1, 2, 0, 0xFF, 3}, uint32(7))
	f.Add([]byte{0xFF}, uint32(65536))
	f.Add([]byte{64, 63, 65, 128}, uint32(200))
	f.Fuzz(func(t *testing.T, data []byte, flip uint32) {
		data = data[:min(len(data), 1<<12)] // keeps minimizing a find quick
		gaps := make([]uint32, len(data))
		total := 0
		for i, b := range data {
			gaps[i] = uint32(b)
			if b == 0xFF && total < 1<<20 {
				gaps[i] = 65536
			}
			total += int(gaps[i])
		}
		vals := prefixSums(gaps)
		last := uint64(vals[len(vals)-1])
		e := extentsOf(vals)
		checkExtents(t, e, vals)

		words := slices.Clone(e.words)
		p := int(flip % uint32(len(words)*64+64))
		if p/64 < len(words) && words[p/64]>>(p%64)&1 == 1 {
			words[p/64] &^= 1 << (p % 64)
		} else {
			words = setBit(words, p)
		}
		m, err := extentsFromWords(words, last)
		switch {
		case err != nil && !errors.Is(err, ErrCorrupt):
			t.Fatalf("bit %d flipped: error %v does not wrap ErrCorrupt", p, err)
		case err == nil && m.Len() == e.Len():
			t.Fatalf("bit %d flipped: accepted as a table of the same %d extents", p, m.Len())
		case err == nil:
			// A valid table of another length: it must read back consistently.
			got := make([]uint32, m.Len()+1)
			for i := range got {
				got[i] = uint32(m.Get(i))
			}
			if got[0] != 0 || uint64(got[m.Len()]) != last || !slices.IsSorted(got) {
				t.Fatalf("bit %d flipped: accepted table reads %v", p, got)
			}
		}
		if _, err := extentsFromWords(e.words, last+1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("a table ending at %d accepted as ending at %d (err %v)", last, last+1, err)
		}
	})
}

// BenchmarkExtents times random lookups on a 150,000-entry table shaped like
// the benchmark index's list extents (two lists in three hold one row): Get,
// one select, and Span, the (lo, hi) pair a probe asks for.
func BenchmarkExtents(b *testing.B) {
	const n = 150000
	rng := rand.New(rand.NewSource(3))
	gaps := make([]uint32, n)
	for i := range gaps {
		switch r := rng.Intn(100); {
		case r < 64:
			gaps[i] = 1
		case r < 79:
			gaps[i] = 2
		case r < 86:
			gaps[i] = 3
		default:
			gaps[i] = 4 + uint32(rng.ExpFloat64()*12)
		}
	}
	e := extentsOf(prefixSums(gaps))
	at := make([]int, 1<<16)
	for i := range at {
		at[i] = rng.Intn(n)
	}
	b.Run("get", func(b *testing.B) {
		sink := 0
		for i := 0; i < b.N; i++ {
			sink += e.Get(at[i&(len(at)-1)])
		}
		_ = sink
	})
	b.Run("span", func(b *testing.B) {
		sink := 0
		for i := 0; i < b.N; i++ {
			lo, hi := e.Span(at[i&(len(at)-1)])
			sink += hi - lo
		}
		_ = sink
	})
}

package text

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// lookupTerms returns n distinct terms: the empty term, multibyte terms and
// chains of shared prefixes first, then base-36 numbers behind a few common
// prefixes, shuffled so IDs do not follow the generation order.
func lookupTerms(n int, seed int64) []string {
	special := []string{"", "café", "東京", "naïve", "ü", "a", "ab", "abc", "abcd", "abcde", "abcdef", "b\x00"}
	prefixes := []string{"", "pre", "prefix", "北"}
	terms := make([]string, 0, n)
	seen := make(map[string]bool, n)
	add := func(term string) {
		if len(terms) < n && !seen[term] {
			seen[term] = true
			terms = append(terms, term)
		}
	}
	for _, term := range special {
		add(term)
	}
	for i := 0; len(terms) < n; i++ {
		add(prefixes[i%len(prefixes)] + strconv.FormatInt(int64(i), 36))
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
	return terms
}

// checkLookup looks up every term of ref, then every probe, on v and
// compares each answer with ref's.
func checkLookup(t *testing.T, v *Vocab, ref map[string]TokenID, probes []string) {
	t.Helper()
	if v.Len() != len(ref) {
		t.Fatalf("%d terms, want %d", v.Len(), len(ref))
	}
	for term, want := range ref {
		if got, ok := v.Lookup(term); !ok || got != want {
			t.Fatalf("Lookup(%q) = %d, %v; want %d, true", term, got, ok, want)
		}
	}
	for _, term := range probes {
		got, ok := v.Lookup(term)
		if want, in := ref[term]; ok != in || (in && got != want) {
			t.Fatalf("Lookup(%q) = %d, %v; the reference map says %d, %v", term, got, ok, want, in)
		}
	}
}

// absentProbes derives probes next to terms: each with a byte added, each
// without its last byte, and a few strings of no term's shape.
func absentProbes(terms []string) []string {
	probes := []string{"", "zzzzzzzz", "\xff", "caf", "東", strings.Repeat("a", 300)}
	for _, term := range terms {
		probes = append(probes, term+"x", "x"+term)
		if term != "" {
			probes = append(probes, term[:len(term)-1])
		}
	}
	return probes
}

// TestVocabLookupMatchesMap checks the open-addressing lookup against a Go
// map on every constructor: NewWithWeights and FromBlob over vocabularies of
// 0, 1, 2^k and 70k terms (with the empty term, multibyte terms and shared
// prefixes), present and absent probes; a Builder round trip; and repeated
// terms rejected wherever a vocabulary is assembled from outside input.
func TestVocabLookupMatchesMap(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 1 << 10, 1<<10 + 1, 70000} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			terms := lookupTerms(n, int64(n))
			ref := make(map[string]TokenID, n)
			weights := make([]float64, n)
			for i, term := range terms {
				ref[term] = TokenID(i)
				weights[i] = float64(i % 7)
			}
			v, err := NewWithWeights(terms, weights)
			if err != nil {
				t.Fatal(err)
			}
			probes := absentProbes(terms)
			checkLookup(t, v, ref, probes)
			if got := len(v.slots); 3*got < 4*n || 3*got >= 8*n && got > 1 || got&(got-1) != 0 {
				t.Fatalf("%d slots for %d terms, want the least power of two >= 4/3 of them", got, n)
			}
			blob, off := v.Blob()
			back, err := FromBlob(blob, off, v.Weights())
			if err != nil {
				t.Fatal(err)
			}
			checkLookup(t, back, ref, probes)
		})
	}

	t.Run("builder", func(t *testing.T) {
		terms := lookupTerms(5000, 1)
		rng := rand.New(rand.NewSource(2))
		var b Builder
		ref := make(map[string]TokenID)
		for d := 0; d < 2000; d++ {
			doc := make([]string, 1+rng.Intn(6))
			for i := range doc {
				doc[i] = terms[rng.Intn(len(terms))]
			}
			for _, term := range doc {
				if _, ok := ref[term]; !ok {
					ref[term] = TokenID(len(ref))
				}
			}
			b.AppendDoc(nil, doc)
		}
		b.Intern("query-only") // interned, never counted
		ref["query-only"] = TokenID(len(ref))
		v := b.Build()
		probes := absentProbes(terms)
		checkLookup(t, v, ref, probes)
		blob, off := v.Blob()
		back, err := FromBlob(blob, off, v.Weights())
		if err != nil {
			t.Fatal(err)
		}
		checkLookup(t, back, ref, probes)
	})

	t.Run("repeated terms", func(t *testing.T) {
		for _, terms := range [][]string{
			{"", ""},
			{"a", "b", "a"},
			{"東京", "東", "東京"},
			append(lookupTerms(1000, 3), "abc"),
		} {
			weights := make([]float64, len(terms))
			if _, err := NewWithWeights(terms, weights); err == nil {
				t.Errorf("NewWithWeights accepted %d terms with a repeat", len(terms))
			}
			blob, off := joinTerms(terms)
			if _, err := FromBlob(blob, off, weights); err == nil {
				t.Errorf("FromBlob accepted %d terms with a repeat", len(terms))
			}
		}
	})
}

// FuzzVocabLookup: a vocabulary built from NUL-separated terms accepts them
// exactly when they are distinct, and then finds every one of them and the
// probe as a map would; FromBlob over its flat form agrees.
//
//	go test -run '^$' -fuzz FuzzVocabLookup -fuzztime 30s ./internal/text/
func FuzzVocabLookup(f *testing.F) {
	f.Add("mocha\x00coffee\x00starbucks", "coffee")
	f.Add("\x00a\x00ab", "")
	f.Add("a\x00a", "a")
	f.Add("café\x00東京", "東")
	f.Fuzz(func(t *testing.T, joined, probe string) {
		terms := strings.Split(joined, "\x00")
		ref := make(map[string]TokenID, len(terms))
		for i, term := range terms {
			if _, dup := ref[term]; !dup {
				ref[term] = TokenID(i)
			}
		}
		weights := make([]float64, len(terms))
		v, err := NewWithWeights(terms, weights)
		if distinct := len(ref) == len(terms); (err == nil) != distinct {
			t.Fatalf("NewWithWeights(%q): err = %v with distinct = %v", terms, err, distinct)
		}
		blob, off := joinTerms(terms)
		back, berr := FromBlob(blob, off, weights)
		if (err == nil) != (berr == nil) {
			t.Fatalf("NewWithWeights err = %v but FromBlob err = %v", err, berr)
		}
		if err != nil {
			return
		}
		checkLookup(t, v, ref, []string{probe})
		checkLookup(t, back, ref, []string{probe})
	})
}

// BenchmarkVocabLookup times one Lookup in a vocabulary the size of the
// benchmark corpus's (41,858 terms), for terms it holds and terms it does not.
// The probes are copies, as a request's decoded keywords are: a probe sharing
// its bytes with the stored term would let the string comparison stop at the
// pointer.
//
//	go test -run '^$' -bench VocabLookup ./internal/text/
func BenchmarkVocabLookup(b *testing.B) {
	terms := lookupTerms(41858, 1)
	v, err := NewWithWeights(terms, make([]float64, len(terms)))
	if err != nil {
		b.Fatal(err)
	}
	present := make([]string, len(terms))
	absent := make([]string, len(terms))
	for i, term := range terms {
		present[i] = strings.Clone(term)
		absent[i] = term + "#"
	}
	for _, bc := range []struct {
		name   string
		probes []string
		found  bool
	}{{"present", present, true}, {"absent", absent, false}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := v.Lookup(bc.probes[i%len(bc.probes)]); ok != bc.found {
					b.Fatalf("Lookup(%q) found = %v", bc.probes[i%len(bc.probes)], ok)
				}
			}
		})
	}
}

package text

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// paperVocab returns the Figure 1 vocabulary with the paper's rounded idf
// weights: t1:mocha(0.8) t2:coffee(0.3) t3:starbucks(0.8) t4:ice(1.3)
// t5:tea(0.6).
func paperVocab(t *testing.T) *Vocab {
	t.Helper()
	v, err := NewWithWeights(
		[]string{"mocha", "coffee", "starbucks", "ice", "tea"},
		[]float64{0.8, 0.3, 0.8, 1.3, 0.6},
	)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func idsOf(t *testing.T, v *Vocab, terms ...string) []TokenID {
	t.Helper()
	ids := make([]TokenID, 0, len(terms))
	for _, term := range terms {
		id, ok := v.Lookup(term)
		if !ok {
			t.Fatalf("term %q not in vocab", term)
		}
		ids = append(ids, id)
	}
	return SortDedup(ids)
}

// TestPaperTextualSimilarity reproduces simT(q, o1) = (w1+w2)/(w1+w2+w3)
// = 1.1/1.9 ≈ 0.58 from Section 2.1.
func TestPaperTextualSimilarity(t *testing.T) {
	v := paperVocab(t)
	q := idsOf(t, v, "mocha", "coffee", "starbucks")
	o1 := idsOf(t, v, "mocha", "coffee")
	w := make([]float64, v.Len())
	for i := range w {
		w[i] = v.Weight(TokenID(i))
	}
	got := WeightedJaccard(q, o1, w, v.TotalWeight(q), v.TotalWeight(o1))
	want := 1.1 / 1.9
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("simT = %v, want %v", got, want)
	}
	// o2 has exactly the query tokens: similarity 1.
	o2 := idsOf(t, v, "mocha", "coffee", "starbucks")
	if got := WeightedJaccard(q, o2, w, v.TotalWeight(q), v.TotalWeight(o2)); got != 1 {
		t.Fatalf("identical sets simT = %v, want 1", got)
	}
	// o7 = {tea} shares nothing.
	o7 := idsOf(t, v, "tea")
	if got := WeightedJaccard(q, o7, w, v.TotalWeight(q), v.TotalWeight(o7)); got != 0 {
		t.Fatalf("disjoint simT = %v, want 0", got)
	}
}

// TestBuilderIDF reproduces the Figure 1 idf values from raw documents:
// the rounded weights in the figure follow from w(t) = ln(7/count).
func TestBuilderIDF(t *testing.T) {
	docs := [][]string{
		{"mocha", "coffee"},              // o1
		{"mocha", "coffee", "starbucks"}, // o2
		{"starbucks", "ice", "tea"},      // o3
		{"coffee", "starbucks", "tea"},   // o4
		{"mocha", "coffee", "tea"},       // o5
		{"coffee", "ice"},                // o6
		{"tea"},                          // o7
	}
	var b Builder
	for _, d := range docs {
		b.AppendDoc(nil, d)
	}
	v := b.Build()
	if v.Len() != 5 {
		t.Fatalf("vocab size = %d, want 5", v.Len())
	}
	wants := map[string]struct {
		count uint32
		idf   float64
	}{
		"mocha":     {3, math.Log(7.0 / 3)}, // ≈0.847, rounds to 0.8
		"coffee":    {5, math.Log(7.0 / 5)}, // ≈0.336, rounds to 0.3
		"starbucks": {3, math.Log(7.0 / 3)},
		"ice":       {2, math.Log(7.0 / 2)}, // ≈1.253, rounds to 1.3
		"tea":       {4, math.Log(7.0 / 4)}, // ≈0.560, rounds to 0.6
	}
	for term, want := range wants {
		id, ok := v.Lookup(term)
		if !ok {
			t.Fatalf("missing term %q", term)
		}
		if v.Count(id) != want.count {
			t.Errorf("%s count = %d, want %d", term, v.Count(id), want.count)
		}
		if math.Abs(v.Weight(id)-want.idf) > 1e-12 {
			t.Errorf("%s weight = %v, want %v", term, v.Weight(id), want.idf)
		}
	}
}

func TestBuilderDedupWithinDoc(t *testing.T) {
	var b Builder
	set := b.AppendDoc(nil, []string{"a", "b", "a", "a"})
	if len(set) != 2 {
		t.Fatalf("dedup set = %v", set)
	}
	v := b.Build()
	id, _ := v.Lookup("a")
	if v.Count(id) != 1 {
		t.Fatalf("count(a) = %d, want 1 (per-document counting)", v.Count(id))
	}
}

func TestUncountedTokenGetsMaxWeight(t *testing.T) {
	var b Builder
	b.AppendDoc(nil, []string{"x", "y"})
	b.AppendDoc(nil, []string{"x"})
	b.Intern("queryonly")
	v := b.Build()
	id, _ := v.Lookup("queryonly")
	if got, want := v.Weight(id), math.Log(2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("query-only token weight = %v, want ln(2)=%v", got, want)
	}
}

func TestSignatureOrder(t *testing.T) {
	v := paperVocab(t)
	ids := idsOf(t, v, "mocha", "coffee", "starbucks", "ice", "tea")
	v.SortBySignatureOrder(ids)
	// Descending weight with ID tie-break: ice(1.3), mocha(0.8), starbucks(0.8),
	// tea(0.6), coffee(0.3). mocha(id 0) precedes starbucks(id 2).
	want := []string{"ice", "mocha", "starbucks", "tea", "coffee"}
	for i, id := range ids {
		if v.Term(id) != want[i] {
			t.Fatalf("order[%d] = %s, want %s (full: %v)", i, v.Term(id), want[i], ids)
		}
	}
	if ref := refSignatureOrder(v, ids); !slices.Equal(ids, ref) {
		t.Fatalf("SortBySignatureOrder = %v, reference sort %v", ids, ref)
	}
}

// refSignatureOrder sorts a copy of ids by descending weight, then ascending
// ID: the signature order, spelled out independently of the Vocab.
func refSignatureOrder(v *Vocab, ids []TokenID) []TokenID {
	ref := slices.Clone(ids)
	sort.Slice(ref, func(i, j int) bool {
		a, b := ref[i], ref[j]
		if v.Weight(a) != v.Weight(b) {
			return v.Weight(a) > v.Weight(b)
		}
		return a < b
	})
	return ref
}

// allIDs returns every token ID of v in a shuffled order.
func allIDs(v *Vocab, rng *rand.Rand) []TokenID {
	ids := make([]TokenID, v.Len())
	for i := range ids {
		ids[i] = TokenID(i)
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

func TestNewWithWeightsErrors(t *testing.T) {
	if _, err := NewWithWeights([]string{"a"}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := NewWithWeights([]string{"a", "a"}, []float64{1, 2}); err == nil {
		t.Error("duplicate term should error")
	}
	for _, w := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := NewWithWeights([]string{"a"}, []float64{w}); err == nil {
			t.Errorf("weight %g should error", w)
		}
	}
}

func TestSortDedup(t *testing.T) {
	got := SortDedup([]TokenID{5, 1, 5, 3, 1, 1})
	want := []TokenID{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("SortDedup = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortDedup = %v, want %v", got, want)
		}
	}
	if out := SortDedup(nil); len(out) != 0 {
		t.Fatalf("SortDedup(nil) = %v", out)
	}
}

// randomSets builds two random sorted token sets plus a weight table.
func randomSets(seed int64) (a, b []TokenID, w []float64) {
	rng := rand.New(rand.NewSource(seed))
	n := 40
	w = make([]float64, n)
	for i := range w {
		w[i] = rng.Float64() * 3
	}
	draw := func() []TokenID {
		var s []TokenID
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				s = append(s, TokenID(i))
			}
		}
		return s
	}
	return draw(), draw(), w
}

func total(s []TokenID, w []float64) float64 {
	var t float64
	for _, id := range s {
		t += w[id]
	}
	return t
}

func TestSimilarityProperties(t *testing.T) {
	f := func(seed int64) bool {
		a, b, w := randomSets(seed)
		wa, wb := total(a, w), total(b, w)
		j := WeightedJaccard(a, b, w, wa, wb)
		// Symmetry.
		if j != WeightedJaccard(b, a, w, wb, wa) {
			return false
		}
		// Range.
		if j < 0 || j > 1+1e-9 || math.IsNaN(j) {
			return false
		}
		// Identity on non-empty sets.
		if wa > 0 && math.Abs(WeightedJaccard(a, a, w, wa, wa)-1) > 1e-12 {
			return false
		}
		// CommonWeight consistency with a brute-force map intersection.
		var brute float64
		in := map[TokenID]bool{}
		for _, id := range a {
			in[id] = true
		}
		for _, id := range b {
			if in[id] {
				brute += w[id]
			}
		}
		if math.Abs(CommonWeight(a, b, w)-brute) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestSignatureOrderMatchesReference: SortBySignatureOrder over every token,
// in a shuffled order, is a permutation equal to the reference sort by
// (weight desc, ID asc), ties included.
func TestSignatureOrderMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		terms := make([]string, n)
		weights := make([]float64, n)
		for i := range terms {
			terms[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
			weights[i] = math.Floor(rng.Float64()*5) / 2 // force ties
		}
		v, err := NewWithWeights(terms, weights)
		if err != nil {
			return false
		}
		ids := allIDs(v, rng)
		ref := refSignatureOrder(v, ids)
		v.SortBySignatureOrder(ids)
		seen := make([]bool, n)
		for _, id := range ids {
			if int(id) >= n || seen[id] {
				return false
			}
			seen[id] = true
		}
		return slices.Equal(ids, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBlobRoundTrip: FromBlob over what Blob exports is the same vocabulary —
// terms, IDs, weights and signature order — and rejects flat forms that do
// not describe one.
func TestBlobRoundTrip(t *testing.T) {
	var b Builder
	b.AppendDoc(nil, []string{"tea", "coffee", ""})
	b.AppendDoc(nil, []string{"coffee", "mocha"})
	b.AppendDoc(nil, []string{"ice"})
	v := b.Build()
	blob, off := v.Blob()
	back, err := FromBlob(blob, off, v.Weights())
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != v.Len() {
		t.Fatalf("%d terms, want %d", back.Len(), v.Len())
	}
	for i := 0; i < v.Len(); i++ {
		id := TokenID(i)
		if back.Term(id) != v.Term(id) || back.Weight(id) != v.Weight(id) {
			t.Fatalf("term %d: %q w=%v, want %q w=%v", i,
				back.Term(id), back.Weight(id), v.Term(id), v.Weight(id))
		}
		if got, ok := back.Lookup(v.Term(id)); !ok || got != id {
			t.Fatalf("Lookup(%q) = %d, %v", v.Term(id), got, ok)
		}
		if back.Count(id) != 0 {
			t.Fatalf("restored vocabulary reports a document count for term %d", i)
		}
	}
	ids := allIDs(back, rand.New(rand.NewSource(1)))
	ref := refSignatureOrder(v, ids)
	if back.SortBySignatureOrder(ids); !slices.Equal(ids, ref) {
		t.Fatalf("restored signature order %v, want %v", ids, ref)
	}

	w := v.Weights()
	bad := []struct {
		name string
		blob string
		off  []uint32
		w    []float64
	}{
		{"offsets too short", blob, off[:len(off)-1], w},
		{"offsets start past zero", blob, append([]uint32{1}, off[1:]...), w},
		{"offsets end before the blob", blob + "x", off, w},
		{"offsets run past the blob", blob, []uint32{0, 99, 3, 9, 14, uint32(len(blob))}, w},
		{"offsets not monotone", blob, []uint32{0, 5, 3, 9, 14, uint32(len(blob))}, w},
		{"repeated term", "aaaa", []uint32{0, 2, 4}, []float64{1, 1}},
		{"negative weight", "ab", []uint32{0, 1, 2}, []float64{1, -1}},
		{"NaN weight", "ab", []uint32{0, 1, 2}, []float64{math.NaN(), 1}},
		{"infinite weight", "ab", []uint32{0, 1, 2}, []float64{1, math.Inf(1)}},
	}
	for _, tc := range bad {
		if _, err := FromBlob(tc.blob, tc.off, tc.w); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestSortAllocs: compiling a query sorts its tokens twice — SortDedup, then
// SortBySignatureOrder — and neither sort allocates.
func TestSortAllocs(t *testing.T) {
	v := paperVocab(t)
	src := []TokenID{4, 1, 3, 1, 0, 2}
	ids := make([]TokenID, len(src))
	allocs := testing.AllocsPerRun(100, func() {
		copy(ids, src)
		v.SortBySignatureOrder(SortDedup(ids))
	})
	if allocs != 0 {
		t.Fatalf("sorting a query's tokens allocates %v times, want 0", allocs)
	}
}

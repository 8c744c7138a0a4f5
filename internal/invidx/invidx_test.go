package invidx

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// flatList returns key's postings in the flat index, the textual bound zero
// on a single-bound one.
func flatList(ix *Index, key uint64) []Posting {
	objs, bounds, tBounds := ix.List(key)
	ps := make([]Posting, len(objs))
	for i := range ps {
		ps[i] = Posting{Obj: objs[i], Bound: bounds[i]}
		if tBounds != nil {
			ps[i].TBound = tBounds[i]
		}
	}
	return ps
}

// flatObjs returns the objects of key's list in the flat index.
func flatObjs(ix *Index, key uint64) []uint32 {
	objs, _, _ := ix.List(key)
	return objs
}

// objsOf returns the objects of a served list, in list order.
func objsOf(l List) []uint32 {
	objs := make([]uint32, l.Len())
	for i := range objs {
		objs[i] = l.Obj(i)
	}
	return objs
}

// scan is the dual-bound head scan of the query path, as one call: the
// objects of l's head at cR whose textual bound clears cT, and the head's
// length.
func scan(l List, cR, cT float64) (objs []uint32, examined int) {
	n := l.Cutoff(Code(cR))
	for i := 0; i < n; i++ {
		if l.TCode(i) >= Code(cT) {
			objs = append(objs, l.Obj(i))
		}
	}
	return objs, n
}

func TestListCutoff(t *testing.T) {
	var b Builder
	b.Add(7, 1, 0.5)
	b.Add(7, 2, 2.0)
	b.Add(7, 3, 1.0)
	b.Add(9, 4, 3.0)
	idx := b.Build()

	// Sorted descending: bounds 2.0, 1.0, 0.5, each a code of its own.
	if _, bounds, _ := idx.List(7); !slices.Equal(bounds, []float64{2.0, 1.0, 0.5}) {
		t.Fatalf("flat bounds = %v, want [2 1 0.5]", bounds)
	}
	cx := Compress(idx)
	l := cx.Probe(7)
	if l.Len() != 3 {
		t.Fatalf("list len = %d, want 3", l.Len())
	}
	cases := []struct {
		c    float64
		want int
	}{
		{3.0, 0}, {2.0, 1}, {1.5, 1}, {1.0, 2}, {0.6, 2}, {0.5, 3}, {0.0, 3},
	}
	for _, c := range cases {
		if got := l.Cutoff(Code(c.c)); got != c.want {
			t.Errorf("Cutoff(Code(%v)) = %d, want %d", c.c, got, c.want)
		}
	}
	if objs, _, _ := idx.List(999); objs != nil {
		t.Errorf("absent key should return an empty list")
	}
	if cx.Probe(999).Cutoff(Code(1)) != 0 {
		t.Errorf("empty list should cut off at 0")
	}
	if idx.Postings() != 4 || idx.Lists() != 2 {
		t.Errorf("postings=%d lists=%d, want 4 and 2", idx.Postings(), idx.Lists())
	}
	if idx.SizeBytes() <= 0 {
		t.Errorf("SizeBytes should be positive")
	}
}

func TestListDeterministicTieBreak(t *testing.T) {
	var b Builder
	b.Add(1, 9, 1.0)
	b.Add(1, 3, 1.0)
	b.Add(1, 5, 1.0)
	ix := b.Build()
	for name, objs := range map[string][]uint32{"flat": flatObjs(ix, 1), "served": objsOf(Compress(ix).Probe(1))} {
		if !slices.Equal(objs, []uint32{3, 5, 9}) {
			t.Fatalf("%s tie order = %v, want ascending object IDs", name, objs)
		}
	}
}

// TestPrefixLenPaperExample reproduces the token prefix of Example 2/Fig. 4:
// query tokens sorted {t1:0.8, t3:0.8, t2:0.3}, cT = 0.57 → prefix {t1, t3}.
func TestPrefixLenPaperExample(t *testing.T) {
	weights := []float64{0.8, 0.8, 0.3}
	if got := PrefixLen(weights, 0.57); got != 2 {
		t.Fatalf("PrefixLen = %d, want 2 (prefix {t1,t3})", got)
	}
	// Grid example from Fig. 5: weights of q's cells in global order
	// {g7:150, g10:750, g11:450, g14:500, g15:300, g6:250}, cR = 600 →
	// prefix of length 4 ({g7,g10,g11,g14}), because the suffix {g15,g6}
	// weighs 550 < 600.
	grid := []float64{150, 750, 450, 500, 300, 250}
	if got := PrefixLen(grid, 600); got != 4 {
		t.Fatalf("grid PrefixLen = %d, want 4", got)
	}
}

func TestPrefixLenEdgeCases(t *testing.T) {
	if got := PrefixLen(nil, 1); got != 0 {
		t.Errorf("empty signature prefix = %d, want 0", got)
	}
	// Total below threshold: nothing can reach c.
	if got := PrefixLen([]float64{0.2, 0.1}, 0.5); got != 0 {
		t.Errorf("unreachable threshold prefix = %d, want 0", got)
	}
	// Total exactly the threshold: only the head qualifies, because the
	// suffix after position 1 (0.2) is already below c — Lemma 2's p is the
	// first i whose following suffix drops below the threshold.
	if got := PrefixLen([]float64{0.3, 0.2}, 0.5); got != 1 {
		t.Errorf("exact threshold prefix = %d, want 1", got)
	}
	if got := PrefixLen([]float64{0.5}, 0.5); got != 1 {
		t.Errorf("single exact element prefix = %d, want 1", got)
	}
	// Zero-weight tail is dropped.
	if got := PrefixLen([]float64{1, 0, 0}, 0.5); got != 1 {
		t.Errorf("zero tail prefix = %d, want 1", got)
	}
}

func TestSuffixBounds(t *testing.T) {
	w := []float64{0.8, 0.8, 0.3}
	bounds := make([]float64, 3)
	SuffixBounds(w, bounds)
	want := []float64{1.9, 1.1, 0.3}
	for i := range want {
		if math.Abs(bounds[i]-want[i]) > 1e-12 {
			t.Fatalf("bounds = %v, want %v", bounds, want)
		}
	}
}

// TestSuffixBoundsInPlace: the signature builders pass one slice as both
// weights and bounds, which must give the same bits as two slices.
func TestSuffixBoundsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		w := make([]float64, rng.Intn(20))
		for i := range w {
			w[i] = rng.Float64() * 10
		}
		want := make([]float64, len(w))
		SuffixBounds(w, want)
		SuffixBounds(w, w)
		for i := range w {
			if math.Float64bits(w[i]) != math.Float64bits(want[i]) {
				t.Fatalf("in place bounds = %v, want %v", w, want)
			}
		}
	}
}

// TestPrefixBoundConsistency is the central Lemma 2/3 invariant: element i
// is in the prefix for threshold c exactly when its suffix bound is >= c.
func TestPrefixBoundConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20)
		w := make([]float64, n)
		for i := range w {
			w[i] = math.Floor(rng.Float64()*100) / 10
		}
		bounds := make([]float64, n)
		SuffixBounds(w, bounds)
		for trial := 0; trial < 10; trial++ {
			c := rng.Float64() * 12
			p := PrefixLen(w, c)
			for i := 0; i < n; i++ {
				inPrefix := i < p
				byBound := bounds[i] >= Slack(c)
				if inPrefix != byBound {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestListScanDualBounds(t *testing.T) {
	b := Builder{Dual: true}
	b.AddDual(1, 10, 5.0, 0.9)
	b.AddDual(1, 11, 4.0, 0.2)
	b.AddDual(1, 12, 3.0, 0.8)
	b.AddDual(1, 13, 1.0, 0.9)
	cx := Compress(b.Build())
	l := cx.Probe(1)

	got, examined := scan(l, 2.5, 0.5)
	if examined != 3 {
		t.Fatalf("examined = %d, want 3 (spatial cutoff)", examined)
	}
	want := []uint32{10, 12} // 11 fails the textual bound, 13 the spatial cutoff
	if !slices.Equal(got, want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
	if none, n := scan(l, 10, 0.1); n != 0 || len(none) != 0 {
		t.Fatalf("high cR should scan nothing, got %v (examined %d)", none, n)
	}
	if _, n := scan(List{}, 0, 0); n != 0 {
		t.Fatalf("empty dual list should scan nothing")
	}
	if cx.Probe(424242).Len() != 0 {
		t.Fatalf("absent dual key should return an empty list")
	}
}

func TestBuilderDualMergesMaxBounds(t *testing.T) {
	b := Builder{Dual: true}
	b.AddDual(1, 42, 5.0, 0.2)
	b.AddDual(1, 42, 3.0, 0.9) // same object, same bucket: merge with max bounds
	idx := b.Build()
	l := Compress(idx).Probe(1)
	if l.Len() != 1 {
		t.Fatalf("merged list len = %d, want 1", l.Len())
	}
	if got, _ := scan(l, 4.5, 0.8); len(got) != 1 || got[0] != 42 {
		t.Fatalf("merged posting should satisfy (4.5, 0.8): got %v", got)
	}
	if idx.Postings() != 1 {
		t.Fatalf("postings = %d, want 1", idx.Postings())
	}
}

// TestFlatSizeBytesAccounting pins the flat layout's size model: every
// posting costs exactly obj+bound (12B single, 20B dual), every list exactly
// node+offset (8B), plus the closing offset and the run table's words — no
// per-list heap objects left to estimate.
func TestFlatSizeBytesAccounting(t *testing.T) {
	var b Builder
	for i := uint32(0); i < 100; i++ {
		b.Add(uint64(i%7)<<32, i, float64(i))
	}
	idx := b.Build()
	if idx.Postings() != 100 || idx.Lists() != 7 {
		t.Fatalf("postings=%d lists=%d, want 100 and 7", idx.Postings(), idx.Lists())
	}
	// Seven groups of one node: 7 + 7 + 1 bits of run table, one word.
	want := int64(100*(4+8) + 7*(4+4) + 4 + 8)
	if got := idx.SizeBytes(); got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}

	db := Builder{Dual: true}
	for i := uint32(0); i < 60; i++ {
		db.AddDual(uint64(i%5), i, float64(i), 1)
	}
	didx := db.Build()
	// Five nodes of group 0: 5 + 1 + 1 bits, one word.
	wantDual := int64(60*(4+8+8) + 5*(4+4) + 4 + 8)
	if got := didx.SizeBytes(); got != wantDual {
		t.Fatalf("dual SizeBytes = %d, want %d", got, wantDual)
	}
}

// TestCutoffMatchesLinearScan cross-checks the binary-search cutoff of a
// served list against a linear filter of its decoded bounds, over random
// lists.
func TestCutoffMatchesLinearScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var b Builder
		n := rng.Intn(50)
		bounds := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			bd := math.Floor(rng.Float64()*50) / 5
			bounds = append(bounds, bd)
			b.Add(1, uint32(i), bd)
		}
		l := Compress(b.Build()).Probe(1)
		for trial := 0; trial < 8; trial++ {
			c := rng.Float64() * 11
			want := 0
			for i := 0; i < l.Len(); i++ {
				if l.Posting(i).Bound >= c {
					want++
				}
			}
			if got := l.Cutoff(Code(c)); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// codedRuns cuts a dual index's lists into coded runs, one run a group or
// more — a new run starts at arbitrary keys inside a group — each bound coded
// as a producer codes it.
func codedRuns(rng *rand.Rand, ix *Index) []CodedRun {
	var runs []CodedRun
	for _, key := range flatKeys(ix) {
		objs, bounds, tBounds := ix.List(key)
		if len(runs) == 0 || runs[len(runs)-1].Group != uint32(key>>32) || rng.Intn(3) == 0 {
			runs = append(runs, CodedRun{Group: uint32(key >> 32)})
		}
		r := &runs[len(runs)-1]
		r.Nodes = append(r.Nodes, uint32(key))
		r.Lens = append(r.Lens, uint32(len(objs)))
		r.Objs = append(r.Objs, objs...)
		r.Codes, r.TCodes = appendCodes(r.Codes, bounds), appendCodes(r.TCodes, tBounds)
	}
	return runs
}

// equalArenas reports whether two compressed indexes are the same bytes:
// flavour, layout, key column, extent table and blob.
func equalArenas(a, b CompressedArenas) bool {
	return a.Dual == b.Dual && a.Layout == b.Layout && slices.Equal(a.Runs, b.Runs) && slices.Equal(a.Nodes, b.Nodes) &&
		slices.Equal(a.Extents, b.Extents) && slices.Equal(a.Blob, b.Blob)
}

// TestFromCodedRunsMatchesCompress: handing FromCodedRuns the lists a dual
// Builder would produce, coded and cut into runs at arbitrary key boundaries
// inside a group, must assemble exactly the bytes Compress makes of the
// builder's index — over groups with no lists, on either side of the 16-bit
// object boundary, and for no postings at all — and a run table over more
// groups than hold lists differs only in its trailing empty groups.
func TestFromCodedRunsMatchesCompress(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, tc := range []struct {
		name   string
		maxObj uint32 // the largest posted object
		lay    Layout
	}{
		{"16-bit objects", math.MaxUint16, Layout{Obj16: true}},
		{"32-bit objects", math.MaxUint16 + 1, Layout{}},
	} {
		b := Builder{Dual: true}
		for i := 0; i < 3000; i++ {
			// Groups 0 to 198 in steps of three, so two in three hold no
			// lists; coarse bounds force spatial-bound ties, which the
			// object breaks.
			g := uint64(3 * rng.Intn(67))
			b.AddDual(g<<32|uint64(rng.Intn(4)), uint32(rng.Intn(int(tc.maxObj))), float64(rng.Intn(8)), rng.Float64())
		}
		b.AddDual(7<<32, tc.maxObj, 9, 1)
		flat := b.Build()
		want := Compress(flat)
		got := FromCodedRuns(want.runs.Len(), codedRuns(rng, flat))
		if !equalArenas(got.Arenas(), want.Arenas()) || got.Arenas().Layout != tc.lay {
			t.Fatalf("%s: the index from coded runs is not the bytes Compress makes of the builder's index", tc.name)
		}
	}
	empty := Compress((&Builder{Dual: true}).Build())
	if got := FromCodedRuns(0, nil); !equalArenas(got.Arenas(), empty.Arenas()) || !got.dual || got.Lists() != 0 || got.Postings() != 0 || got.Probe(1).Len() != 0 {
		t.Fatalf("no runs should assemble the empty dual index Compress makes")
	}

	// Ten more groups than hold lists, the last named by an empty run (which
	// is legal): the same nodes, extents and blob under a run table longer by
	// a bit a group.
	b := Builder{Dual: true}
	for i := 0; i < 500; i++ {
		b.AddDual(uint64(rng.Intn(200))<<32|uint64(rng.Intn(4)), uint32(i), float64(rng.Intn(8)), rng.Float64())
	}
	flat := b.Build()
	want := Compress(flat)
	got := FromCodedRuns(210, append(codedRuns(rng, flat), CodedRun{Group: 209}))
	a, w := got.Arenas(), want.Arenas()
	if got.runs.Len() != 210 || want.runs.Len() != 200 || !slices.Equal(a.Nodes, w.Nodes) || !slices.Equal(a.Extents, w.Extents) ||
		!slices.Equal(a.Blob, w.Blob) || len(a.Runs) != (want.Lists()+210)/64+1 || got.SizeBytes() != want.SizeBytes()+int64(8*(len(a.Runs)-len(w.Runs))) {
		t.Fatalf("an index from coded runs should carry the builder's key column over 210 groups")
	}
	for i, key := range flatKeys(flat) {
		if !slices.Equal(objsOf(got.At(i)), flatObjs(flat, key)) || !slices.Equal(objsOf(got.Probe(key)), flatObjs(flat, key)) {
			t.Fatalf("list %d (%#x) from coded runs is not at position %d", i, key, i)
		}
	}

	mustPanic := func(name string, runs []CodedRun) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected a panic", name)
			}
		}()
		FromCodedRuns(8, runs)
	}
	one := func(group, node uint32) CodedRun {
		return CodedRun{Group: group, Nodes: []uint32{node}, Lens: []uint32{1}, Objs: []uint32{7}, Codes: []uint16{Code(1)}, TCodes: []uint16{Code(1)}}
	}
	mustPanic("descending nodes", []CodedRun{one(2, 5), one(2, 4)})
	mustPanic("repeated key", []CodedRun{one(2, 5), one(2, 5)})
	mustPanic("descending groups", []CodedRun{one(2, 5), one(1, 9)})
	mustPanic("group past the table", []CodedRun{one(8, 5)})
	short := one(3, 9)
	short.Lens[0] = 2
	mustPanic("lens exceed lanes", []CodedRun{short})
	noLens := one(3, 9)
	noLens.Lens = nil
	mustPanic("a node without a length", []CodedRun{noLens})
	single := one(3, 3)
	single.TCodes = nil
	mustPanic("missing textual lane", []CodedRun{single})
	uncoded := one(3, 3)
	uncoded.Codes = nil
	mustPanic("missing spatial lane", []CodedRun{uncoded})
	if ok := FromCodedRuns(8, []CodedRun{one(2, 5), one(2, 6), one(3, 0)}); ok.Lists() != 3 || ok.Probe(3<<32).Len() != 1 {
		t.Fatalf("ascending keys across runs of one group should assemble")
	}
}

// TestKeyShapesMatchLinearScan: for random key sets of every shape a filter
// names its lists by — token (t, 0), grid (row, column), hybrid (t, cell) and
// bucketed hybrid (bucket, 0) — Index.List and Compressed.Probe, in memory and
// wrapped from arenas as a mapped segment is, return exactly what a linear
// scan of the added postings finds for the key: for every present key, for
// absent nodes beside them, for groups with an empty run, and for groups past
// the run table.
func TestKeyShapesMatchLinearScan(t *testing.T) {
	const objects = 500
	type added struct {
		key uint64
		p   Posting
	}
	rng := rand.New(rand.NewSource(40))
	for _, sh := range []struct {
		name string
		dual bool
		key  func() uint64
	}{
		{"token", false, func() uint64 { return uint64(rng.Intn(400)) << 32 }},
		{"grid", false, func() uint64 { return uint64(rng.Intn(64))<<32 | uint64(rng.Intn(64)) }},
		{"hybrid", true, func() uint64 { return uint64(rng.Intn(200))<<32 | uint64(rng.Intn(1<<20)) }},
		{"bucket", true, func() uint64 { return uint64(rng.Intn(127)) << 32 }},
	} {
		t.Run(sh.name, func(t *testing.T) {
			for round := 0; round < 40; round++ {
				b := Builder{Dual: sh.dual}
				var all []added
				seen := map[[2]uint64]bool{}
				for i, n := 0, rng.Intn(300); i < n; i++ {
					key, obj := sh.key(), uint32(rng.Intn(objects))
					if seen[[2]uint64{key, uint64(obj)}] {
						continue // one posting an object a list, as every filter adds
					}
					seen[[2]uint64{key, uint64(obj)}] = true
					p := Posting{Obj: obj, Bound: float64(rng.Intn(64)) / 8}
					if sh.dual {
						p.TBound = float64(rng.Intn(16)) / 4
					}
					all = append(all, added{key, p})
					b.AddDual(key, p.Obj, p.Bound, p.TBound)
				}
				ix := b.Build()
				cx := Compress(ix)
				mapped, err := CompressedFromArenas(cx.Arenas(), cx.Postings(), objects)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				scan := func(key uint64) []Posting {
					var ps []Posting
					for _, a := range all {
						if a.key == key {
							ps = append(ps, a.p)
						}
					}
					sortPostings(ps)
					return ps
				}
				// Present keys, their neighbours, every group up to a few past
				// the last key's at nodes 0 and 1, and the far ends of the key
				// space.
				var probes []uint64
				maxGroup := uint64(0)
				for _, a := range all {
					probes = append(probes, a.key, a.key-1, a.key+1)
					maxGroup = max(maxGroup, a.key>>32)
				}
				for g := uint64(0); g <= maxGroup+3; g++ {
					probes = append(probes, g<<32, g<<32|1)
				}
				probes = append(probes, 1<<32-1, 1<<63, math.MaxUint64)
				for _, key := range probes {
					want := scan(key)
					if got := flatList(ix, key); !slices.Equal(got, want) {
						t.Fatalf("round %d: List(%#x) = %v, want %v", round, key, got, want)
					}
					for where, src := range map[string]*Compressed{"compressed": cx, "mapped": mapped} {
						l := src.Probe(key)
						if l.Len() != len(want) {
							t.Fatalf("round %d %s: Probe(%#x) holds %d postings, want %d", round, where, key, l.Len(), len(want))
						}
						for i, w := range want {
							if g := l.Posting(i); g.Obj != w.Obj || g.Bound < w.Bound || g.TBound < w.TBound {
								t.Fatalf("round %d %s: Probe(%#x) posting %d = %+v, want %+v or above", round, where, key, i, g, w)
							}
						}
					}
				}
				if runs, _ := cx.Runs(); len(all) > 0 && runs.Len() != int(maxGroup)+1 || len(all) == 0 && runs.Len() != 0 {
					t.Fatalf("round %d: %d runs, want one a group up to %d", round, runs.Len(), maxGroup)
				}
			}
		})
	}
}

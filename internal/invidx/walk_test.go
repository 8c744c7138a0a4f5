package invidx

import (
	"math/rand"
	"testing"
)

// walkColumns is the list walk segment opening ran before walkLanes: it cut
// each list into a List and read the list through its accessors. It is the
// oracle walkLanes must agree with.
func walkColumns(b []byte, n int, dual bool, lay Layout, objects int) error {
	l := lay.list(b, n, dual)
	if !walkCodes(l.codes, true) || !walkCodes(l.tCodes, false) {
		return corrupt("bound code past infinity, or spatial codes ascending")
	}
	for i := 0; i < n; i++ {
		if int(l.Obj(i)) >= objects {
			return corrupt("posting object out of range")
		}
	}
	return nil
}

// walkBoth cuts blob's whole rows into lists of the row counts cuts names —
// a count past the rows left takes what is left, and the rows after the last
// cut are one more list — and walks each list with walkLanes and with the
// oracle, under objects and under the bounds at and just past the list's
// largest object, failing on the first walk where the two disagree on
// acceptance or on the error. It reports how many walks rejected their list.
func walkBoth(t *testing.T, blob, cuts []byte, dual bool, lay Layout, objects int) (rejected int) {
	t.Helper()
	w := lay.rowWidth(dual)
	rows := len(blob) / w
	blob = blob[:rows*w] // a trailing part row belongs to no list
	lo := 0
	walk := func(n int) {
		list := blob[lo*w : (lo+n)*w]
		// Beside objects, the bounds either side of the list's largest
		// object, where an off-by-one would show.
		top := 0
		for i := 0; i < n; i++ {
			top = max(top, int(lay.list(list, n, dual).Obj(i)))
		}
		for _, objects := range []int{objects, top, top + 1} {
			got, want := walkLanes(list, n, dual, lay, objects), walkColumns(list, n, dual, lay, objects)
			if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
				t.Fatalf("list of %d rows at row %d (dual %v, %+v, %d objects): walkLanes %v, walkColumns %v", n, lo, dual, lay, objects, got, want)
			}
			if got != nil {
				rejected++
			}
		}
		lo += n
	}
	for _, c := range cuts {
		walk(min(int(c), rows-lo))
	}
	walk(rows - lo)
	return rejected
}

// cutsOf returns the row count of every list of a, in order, for walkBoth.
func cutsOf(a CompressedArenas) []byte {
	rows, err := extentsFromWords(a.Extents, uint64(len(a.Blob)/a.Layout.rowWidth(a.Dual)))
	if err != nil {
		panic(err)
	}
	var cuts []byte
	for i := 0; i < rows.Len(); i++ {
		lo, hi := rows.Span(i)
		cuts = append(cuts, byte(hi-lo))
	}
	return cuts
}

// walkFixtures is genuine encoder output in every layout — 16-bit and 4-byte
// objects, single and dual lists — with the objects bound each was built
// under.
func walkFixtures(rng *rand.Rand) []struct {
	a       CompressedArenas
	objects int
} {
	var out []struct {
		a       CompressedArenas
		objects int
	}
	for _, ix := range []struct {
		ix      *Index
		objects int
	}{
		{buildRandom(rng, 8, 60, 500), 500},
		{buildRandom(rng, 4, 60, 1<<20), 1 << 20},
		{buildRandomDual(rng, 6, 60, 500), 500},
		{buildRandomDual(rng, 5, 60, 1<<20), 1 << 20},
	} {
		out = append(out, struct {
			a       CompressedArenas
			objects int
		}{Compress(ix.ix).Arenas(), ix.objects})
	}
	return out
}

// TestWalkLanesMatchesColumns walks genuine arenas, and arenas with random
// bytes overwritten, rows cut off the end and lists cut at random row counts,
// under object bounds around the largest object and at each list's own, with
// walkLanes and with the List walk it replaced: every walk must get the same
// verdict and error.
func TestWalkLanesMatchesColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	var accepted, rejected int
	for _, fx := range walkFixtures(rng) {
		a := fx.a
		// Each list's own largest object rejects it, and nothing else does
		// (the empty list after the last cut holds no object).
		if r, lists := walkBoth(t, a.Blob, cutsOf(a), a.Dual, a.Layout, fx.objects), len(cutsOf(a)); r != lists {
			t.Fatalf("genuine %+v dual %v arena: %d walks of %d lists rejected, want %d", a.Layout, a.Dual, r, lists, lists)
		}
		for trial := 0; trial < 300; trial++ {
			blob := append([]byte(nil), a.Blob...)
			for k := rng.Intn(4); k > 0; k-- {
				blob[rng.Intn(len(blob))] = byte(rng.Intn(256))
			}
			blob = blob[:len(blob)-rng.Intn(9)]
			cuts := cutsOf(a)
			if trial%3 == 0 {
				cuts = cuts[:0]
				for k := rng.Intn(12); k > 0; k-- {
					cuts = append(cuts, byte(rng.Intn(70)))
				}
			}
			objects := fx.objects - rng.Intn(3)*fx.objects/4
			for _, dual := range []bool{a.Dual, !a.Dual} {
				for _, obj16 := range []bool{a.Layout.Obj16, !a.Layout.Obj16} {
					walks := 3 * (len(cuts) + 1)
					r := walkBoth(t, blob, cuts, dual, Layout{Obj16: obj16}, objects)
					rejected += r
					accepted += walks - r
				}
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("the sweep accepted %d and rejected %d lists; it must do both", accepted, rejected)
	}
}

// FuzzWalkLanes: over arbitrary bytes cut into lists of arbitrary row counts,
// in either object width, single or dual, under any object bound, walkLanes
// accepts exactly the lists the List walk accepted, and rejects the others
// with the same error.
func FuzzWalkLanes(f *testing.F) {
	rng := rand.New(rand.NewSource(55))
	for _, fx := range walkFixtures(rng) {
		a := fx.a
		f.Add(a.Blob, cutsOf(a), a.Dual, a.Layout.Obj16, uint32(fx.objects))
		f.Add(a.Blob, cutsOf(a), a.Dual, a.Layout.Obj16, uint32(fx.objects/2))
		f.Add(a.Blob[:len(a.Blob)-3], cutsOf(a), a.Dual, a.Layout.Obj16, uint32(fx.objects))
		f.Add(a.Blob, []byte{3, 200, 0, 17}, !a.Dual, !a.Layout.Obj16, uint32(fx.objects))
	}
	f.Add([]byte{0xff, 0xff, 0, 0}, []byte{}, false, true, uint32(1))
	f.Add([]byte{}, []byte{1}, true, false, uint32(0))
	f.Fuzz(func(t *testing.T, blob, cuts []byte, dual, obj16 bool, objects uint32) {
		walkBoth(t, blob, cuts, dual, Layout{Obj16: obj16}, int(objects))
	})
}

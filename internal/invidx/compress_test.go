package invidx

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// buildRandom returns a canonical index with nLists lists of up to maxLen
// postings each: unique objects per list, bounds drawn from a few magnitudes
// so ties of equal bounds and long sparse tails both occur.
func buildRandom(rng *rand.Rand, nLists, maxLen, objects int) *Index {
	var b Builder
	for k := 0; k < nLists; k++ {
		key := rng.Uint64()
		n := 1 + rng.Intn(maxLen)
		seen := make(map[uint32]bool, n)
		for i := 0; i < n; i++ {
			obj := uint32(rng.Intn(objects))
			if seen[obj] {
				continue
			}
			seen[obj] = true
			bound := math.Trunc(rng.Float64()*64) / 8 // coarse grid → tied bounds
			if rng.Intn(4) == 0 {
				bound = rng.Float64() * 8 // plus fully distinct bounds
			}
			b.Add(key, obj, bound)
		}
	}
	return b.Build()
}

func buildRandomDual(rng *rand.Rand, nLists, maxLen, objects int) *Index {
	b := Builder{Dual: true}
	for k := 0; k < nLists; k++ {
		key := rng.Uint64()
		n := 1 + rng.Intn(maxLen)
		for i := 0; i < n; i++ {
			rb := math.Trunc(rng.Float64()*64) / 8
			b.AddDual(key, uint32(rng.Intn(objects)), rb, rng.Float64()*2)
		}
	}
	return b.Build()
}

// unquantizable returns ix with one bound pushed past float32 range, which
// switches the whole compressed index to the exact layout.
func unquantizable(ix *Index) *Index {
	out := *ix
	out.bounds = slices.Clone(ix.bounds)
	out.bounds[out.starts[0]] = 2 * math.MaxFloat32 // a list head: still descending
	return &out
}

// TestSourceLayouts is the contract of Source over every layout an index can
// be served from — {single, dual} × {raw, compressed, and both again wrapped
// from their arenas, as a mapped segment is} — for bounds the quantized layout
// holds and bounds that force the exact fallback. Every layout reports the
// flat index's flavour, shape, keys and list lengths and probes to the same
// objects in the same order. Raw and exact lists are the flat lists bit for
// bit; quantized ones keep the ceiling contract — every decoded bound >= the
// exact one, spatial bounds still descending — so a Cutoff head over them is
// a superset of the exact head and verification keeps answers identical.
func TestSourceLayouts(t *testing.T) {
	const objects = 2000
	rng := rand.New(rand.NewSource(2))
	single, dual := buildRandom(rng, 50, 300, objects), buildRandomDual(rng, 40, 250, objects)
	for _, fx := range []struct {
		name  string
		ix    *Index
		exact bool
	}{
		{"single", single, false},
		{"dual", dual, false},
		{"single/unquantizable", unquantizable(single), true},
		{"dual/unquantizable", unquantizable(dual), true},
	} {
		ix, cx := fx.ix, Compress(fx.ix)
		if lay := cx.Arenas().Layout; lay.Exact != fx.exact {
			t.Fatalf("%s: layout %+v, want exact=%v", fx.name, lay, fx.exact)
		}
		mraw, err := FromArenas(ix.Arenas(), objects)
		if err != nil {
			t.Fatalf("%s: FromArenas: %v", fx.name, err)
		}
		mcomp, err := CompressedFromArenas(cx.Arenas(), cx.Postings(), objects)
		if err != nil {
			t.Fatalf("%s: CompressedFromArenas: %v", fx.name, err)
		}
		for _, row := range []struct {
			name    string
			src     Source
			bitwise bool
		}{
			{"raw", ix, true},
			{"compressed", cx, fx.exact},
			{"mapped raw", mraw, true},
			{"mapped compressed", mcomp, fx.exact},
		} {
			t.Run(fx.name+"/"+row.name, func(t *testing.T) {
				src := row.src
				if src.Dual() != ix.dual || src.Lists() != ix.Lists() || src.Postings() != ix.Postings() {
					t.Fatalf("dual/lists/postings %v/%d/%d, want %v/%d/%d",
						src.Dual(), src.Lists(), src.Postings(), ix.dual, ix.Lists(), ix.Postings())
				}
				if src.SizeBytes() <= 0 {
					t.Errorf("SizeBytes should be positive")
				}
				if !slices.Equal(src.Keys(), ix.keys) || !slices.IsSorted(src.Keys()) {
					t.Fatalf("keys differ from the flat index's ascending keys")
				}
				i, total := 0, 0
				src.EachLen(func(key uint64, n int) {
					if key != ix.keys[i] || n != ix.List(key).Len() {
						t.Fatalf("EachLen #%d: (%#x, %d), want (%#x, %d)", i, key, n, ix.keys[i], ix.List(ix.keys[i]).Len())
					}
					i++
					total += n
				})
				if i != ix.Lists() || total != ix.Postings() {
					t.Fatalf("EachLen reported %d lists / %d postings", i, total)
				}
				var scr ListScratch
				if l, err := src.Probe(ix.keys[len(ix.keys)-1]+1, &scr); err != nil || l.Len() != 0 {
					t.Fatalf("absent key probed to %d postings, err %v", l.Len(), err)
				}
				for _, key := range ix.keys {
					want := ix.List(key)
					got, err := src.Probe(key, &scr)
					if err != nil {
						t.Fatalf("probe %#x: %v", key, err)
					}
					if got.Len() != want.Len() || len(got.tBounds) != len(want.tBounds) {
						t.Fatalf("list %#x: %d postings / %d textual bounds, want %d / %d",
							key, got.Len(), len(got.tBounds), want.Len(), len(want.tBounds))
					}
					for i := 0; i < want.Len(); i++ {
						g, w := got.Posting(i), want.Posting(i)
						switch {
						case row.bitwise && g != w:
							t.Fatalf("list %#x posting %d: %+v, want %+v", key, i, g, w)
						case g.Obj != w.Obj:
							t.Fatalf("list %#x posting %d: object %d, want %d", key, i, g.Obj, w.Obj)
						case g.Bound < w.Bound || g.TBound < w.TBound:
							t.Fatalf("list %#x posting %d: %+v decoded below exact %+v", key, i, g, w)
						case i > 0 && g.Bound > got.Bound(i-1):
							t.Fatalf("list %#x: decoded bounds not descending at %d", key, i)
						}
					}
				}
			})
		}
	}
}

// withoutDirectory returns ix as FromSortedRuns would have frozen the same
// lists: no key directory, so Probe binary-searches the keys.
func withoutDirectory(ix *Index) *Index {
	out := *ix
	out.table = keyTable{}
	return &out
}

// TestAtMatchesProbe: position and key are two ways to the same list. Over
// {raw, compressed} × {heap, wrapped from arenas as a mapped segment is} ×
// {with, without a directory}, At(i) is Probe(Keys()[i]) for every i, a key
// the index does not hold probes empty, and a position outside [0, Lists())
// is ErrCorrupt — not a panic, not a neighbouring list.
func TestAtMatchesProbe(t *testing.T) {
	const objects = 1500
	rng := rand.New(rand.NewSource(21))
	for _, fx := range []struct {
		name string
		ix   *Index
	}{
		{"single", buildRandom(rng, 60, 40, objects)},
		{"dual", buildRandomDual(rng, 60, 40, objects)},
		{"empty", new(Builder).Build()},
	} {
		for _, keyed := range []bool{true, false} {
			ix := fx.ix
			if !keyed {
				ix = withoutDirectory(ix)
			}
			cx := Compress(ix)
			if (ix.Arenas().Slots != nil) != keyed || (cx.Arenas().Slots != nil) != keyed {
				t.Fatalf("%s keyed=%v: arenas disagree about the directory", fx.name, keyed)
			}
			mraw, err := FromArenas(ix.Arenas(), objects)
			if err != nil {
				t.Fatal(err)
			}
			mcomp, err := CompressedFromArenas(cx.Arenas(), cx.Postings(), objects)
			if err != nil {
				t.Fatal(err)
			}
			if dir := int64(tableSlots(ix.Lists())) * 4; !keyed && (ix.SizeBytes() != fx.ix.SizeBytes()-dir || cx.SizeBytes() != Compress(fx.ix).SizeBytes()-dir) {
				t.Fatalf("%s: dropping the directory should drop exactly %d bytes", fx.name, dir)
			}
			for name, src := range map[string]Source{"raw": ix, "compressed": cx, "mapped raw": mraw, "mapped compressed": mcomp} {
				label := fmt.Sprintf("%s keyed=%v %s", fx.name, keyed, name)
				keys := src.Keys()
				var a, b ListScratch
				for i, key := range keys {
					at, err := src.At(i, &a)
					if err != nil {
						t.Fatalf("%s: At(%d): %v", label, i, err)
					}
					probed, err := src.Probe(key, &b)
					if err != nil {
						t.Fatalf("%s: Probe(%#x): %v", label, key, err)
					}
					if at.Len() == 0 || !slices.Equal(at.objs, probed.objs) || !slices.Equal(at.bounds, probed.bounds) || !slices.Equal(at.tBounds, probed.tBounds) {
						t.Fatalf("%s: At(%d) and Probe(%#x) differ", label, i, key)
					}
					// Keys are random 64-bit draws: a neighbour is absent.
					for _, absent := range []uint64{key - 1, key + 1} {
						if _, held := slices.BinarySearch(keys, absent); held {
							continue
						}
						if l, err := src.Probe(absent, &b); err != nil || l.Len() != 0 {
							t.Fatalf("%s: absent key %#x probed to %d postings, err %v", label, absent, l.Len(), err)
						}
					}
				}
				if l, err := src.Probe(0, &b); err != nil || l.Len() != 0 {
					t.Fatalf("%s: key 0 probed to %d postings, err %v", label, l.Len(), err)
				}
				for _, i := range []int{-1, len(keys), len(keys) + 7, math.MinInt, math.MaxInt} {
					if l, err := src.At(i, &a); !errors.Is(err, ErrCorrupt) || l.Len() != 0 {
						t.Fatalf("%s: At(%d) = %d postings, err %v; want ErrCorrupt", label, i, l.Len(), err)
					}
				}
			}
		}
	}
}

func TestCompressedSmaller(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ix := buildRandom(rng, 80, 400, 4000)
	quant := Compress(ix).SizeBytes()
	exact := Compress(unquantizable(ix)).SizeBytes()
	flat := ix.SizeBytes()
	if quant >= flat || exact > flat {
		t.Fatalf("compression grew the index: quant %d, exact %d, flat %d", quant, exact, flat)
	}
	if float64(quant) > 0.7*float64(flat) {
		t.Fatalf("quantized size %d not under 70%% of flat %d", quant, flat)
	}
}

func TestCompressedProbeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	rng := rand.New(rand.NewSource(5))
	ix := buildRandom(rng, 30, 200, 1000)
	cx := Compress(ix)
	keys := append([]uint64(nil), ix.keys...)
	var scr ListScratch
	for _, k := range keys { // warm the scratch to the longest list
		if _, err := cx.Probe(k, &scr); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, k := range keys {
			l, err := cx.Probe(k, &scr)
			if err != nil || l.Len() == 0 {
				t.Fatal("probe failed")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("compressed probes allocated %v times per run, want 0", allocs)
	}
}

func TestFromArenasRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ix := buildRandom(rng, 20, 50, 400)
	base := ix.Arenas()
	clone := func() RawArenas {
		return RawArenas{
			Keys:   append([]uint64(nil), base.Keys...),
			Starts: append([]uint32(nil), base.Starts...),
			Objs:   append([]uint32(nil), base.Objs...),
			Bounds: append([]float64(nil), base.Bounds...),
			Slots:  append([]uint32(nil), base.Slots...),
		}
	}
	cases := []struct {
		name    string
		mutate  func(*RawArenas)
		objects int
	}{
		{"object out of range", func(a *RawArenas) {}, 1},
		{"keys unsorted", func(a *RawArenas) { a.Keys[0], a.Keys[1] = a.Keys[1], a.Keys[0] }, 400},
		{"starts truncated", func(a *RawArenas) { a.Starts = a.Starts[:len(a.Starts)-1] }, 400},
		{"starts overflow", func(a *RawArenas) { a.Starts[len(a.Starts)-1]++ }, 400},
		{"bounds ascending", func(a *RawArenas) {
			// Flip the first multi-posting list's head order.
			for i := 0; i < len(a.Starts)-1; i++ {
				if a.Starts[i+1]-a.Starts[i] >= 2 {
					a.Bounds[a.Starts[i]] = a.Bounds[a.Starts[i]+1] - 1
					return
				}
			}
			panic("no multi-posting list in fixture")
		}, 400},
		{"NaN bound", func(a *RawArenas) { a.Bounds[0] = math.NaN() }, 400},
		{"dual without its lane", func(a *RawArenas) { a.Dual = true }, 400},
		{"single with a lane", func(a *RawArenas) { a.TBounds = make([]float64, len(a.Objs)) }, 400},
		{"directory truncated", func(a *RawArenas) { a.Slots = a.Slots[:len(a.Slots)/2] }, 400},
		{"directory zeroed", func(a *RawArenas) {
			for i := range a.Slots {
				a.Slots[i] = 0
			}
		}, 400},
		{"directory out of range", func(a *RawArenas) {
			for i := range a.Slots {
				if a.Slots[i] != 0 {
					a.Slots[i] = uint32(len(a.Keys)) + 5
					return
				}
			}
		}, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := clone()
			tc.mutate(&a)
			if _, err := FromArenas(a, tc.objects); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("FromArenas accepted %s (err=%v)", tc.name, err)
			}
		})
	}
}

func TestCompressedFromArenasRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cx := Compress(buildRandom(rng, 20, 50, 400))
	base := cx.Arenas()
	clone := func() CompressedArenas {
		return CompressedArenas{
			Keys:   append([]uint64(nil), base.Keys...),
			Offs:   append([]uint32(nil), base.Offs...),
			Blob:   append([]byte(nil), base.Blob...),
			Slots:  append([]uint32(nil), base.Slots...),
			Layout: base.Layout,
		}
	}
	if !base.Layout.Obj16 || base.Layout.Exact {
		t.Fatalf("fixture layout %+v, want quantized with 16-bit objects", base.Layout)
	}
	cases := []struct {
		name     string
		mutate   func(*CompressedArenas)
		postings int
	}{
		{"posting total lies high", func(a *CompressedArenas) {}, cx.Postings() + 1},
		{"posting total lies low", func(a *CompressedArenas) {}, cx.Postings() - 1},
		{"blob truncated", func(a *CompressedArenas) {
			a.Blob = a.Blob[:len(a.Blob)-1]
			a.Offs[len(a.Offs)-1]--
		}, cx.Postings()},
		{"count inflated", func(a *CompressedArenas) { a.Blob[0] += 7 }, cx.Postings() + 7},
		{"count deflated", func(a *CompressedArenas) { a.Blob[0]-- }, cx.Postings() - 1},
		{"count not a varint", func(a *CompressedArenas) { a.Blob[0] = 0xff }, cx.Postings()},
		{"wide objects claimed", func(a *CompressedArenas) { a.Layout.Obj16 = false }, cx.Postings()},
		{"exact layout claimed", func(a *CompressedArenas) { a.Layout = Layout{Exact: true} }, cx.Postings()},
		{"both layouts claimed", func(a *CompressedArenas) { a.Layout.Exact = true }, cx.Postings()},
		{"extents shifted", func(a *CompressedArenas) { a.Offs[1]++ }, cx.Postings()},
		{"dual claimed", func(a *CompressedArenas) { a.Dual = true }, cx.Postings()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := clone()
			tc.mutate(&a)
			if _, err := CompressedFromArenas(a, tc.postings, 400); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("CompressedFromArenas accepted %s (err=%v)", tc.name, err)
			}
		})
	}
}

// adversarialBounds are the values where ceiling quantization has the least
// room: zero, denormals, the float32 range's edges, and numbers one float64
// step above a float32 (so rounding to nearest would round them down).
func adversarialBounds() []float64 {
	above := func(f float32) float64 { return math.Nextafter(float64(f), math.Inf(1)) }
	return []float64{
		0, 5e-324, 1e-310, // float64 denormals, far below float32's smallest
		float64(math.SmallestNonzeroFloat32), above(math.SmallestNonzeroFloat32),
		1e-39,                // a float32 denormal
		above(1), above(0.1), // just above a float32 boundary
		above(65535), 65535, 65536, 1.0 / 3, 2.5, 1e30,
		math.MaxFloat32,
	}
}

// TestQuantizationNeverUnderEstimates asserts the invariant every compressed
// answer rests on, directly on the encoder and decoder: for single and dual
// lists of every length class (the three header-less lengths, the first
// coded one, and long ones), over random and adversarial bounds, each decoded
// spatial and textual bound is >= the exact one, objects keep their order,
// and decoded spatial bounds stay descending.
func TestQuantizationNeverUnderEstimates(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	adv := adversarialBounds()
	draw := func(round int) float64 {
		switch {
		case round%3 == 0:
			return adv[rng.Intn(len(adv))]
		case round%3 == 1:
			return rng.Float64() * 4 // suffix weight sums live here
		default:
			return math.Ldexp(rng.Float64(), rng.Intn(200)-120) // every magnitude
		}
	}
	var scr ListScratch
	for _, n := range []int{1, 2, 3, 4, 5, 64, 257} {
		for _, dual := range []bool{false, true} {
			for _, obj16 := range []bool{true, false} {
				for round := 0; round < 60; round++ {
					bounds := make([]float64, n)
					objs := make([]uint32, n)
					var tBounds []float64
					if dual {
						tBounds = make([]float64, n)
					}
					for i := range bounds {
						bounds[i] = draw(round)
						if round%7 == 0 && i > 0 {
							bounds[i] = bounds[0] // bounds equal to the max
						}
						if dual {
							tBounds[i] = draw(round + 1)
						}
						objs[i] = uint32(rng.Intn(1 << 16))
						if !obj16 {
							objs[i] |= 1 << 20
						}
					}
					slices.SortFunc(bounds, func(a, b float64) int { return cmp.Compare(b, a) })
					lay := Layout{Obj16: obj16}
					data := appendList(nil, objs, bounds, tBounds, lay)
					if want := 1 + int(quantBodyLen(uint64(n), dual, obj16)); n < 128 && len(data) != want {
						t.Fatalf("n=%d dual=%v obj16=%v: %d bytes, want %d", n, dual, obj16, len(data), want)
					}
					got, err := decodeList(data, dual, lay, &scr)
					if err != nil || got != n {
						t.Fatalf("n=%d dual=%v obj16=%v: decoded %d postings, err %v", n, dual, obj16, got, err)
					}
					for i := 0; i < n; i++ {
						if scr.objs[i] != objs[i] {
							t.Fatalf("n=%d posting %d: object %d, want %d", n, i, scr.objs[i], objs[i])
						}
						if scr.bounds[i] < bounds[i] {
							t.Fatalf("n=%d posting %d: spatial bound %g decoded below exact %g", n, i, scr.bounds[i], bounds[i])
						}
						if i > 0 && scr.bounds[i] > scr.bounds[i-1] {
							t.Fatalf("n=%d posting %d: decoded spatial bounds ascend (%g after %g)", n, i, scr.bounds[i], scr.bounds[i-1])
						}
						if dual && scr.tBounds[i] < tBounds[i] {
							t.Fatalf("n=%d posting %d: textual bound %g decoded below exact %g", n, i, scr.tBounds[i], tBounds[i])
						}
						// Rounding up must stay tight: within one step of the list's max.
						if slack := scr.bounds[i] - bounds[i]; slack > bounds[0]/quantLevels*1.001+1e-44 {
							t.Fatalf("n=%d posting %d: spatial bound %g is %g above exact, more than a step", n, i, scr.bounds[i], slack)
						}
					}
				}
			}
		}
	}
}

// TestCompressFallsBackToExact: bounds outside the quantized layout's domain
// (negative, infinite, beyond float32) switch the whole index to the exact
// layout instead of being mangled.
func TestCompressFallsBackToExact(t *testing.T) {
	for _, bad := range []float64{-1, math.Inf(1), 2 * math.MaxFloat32} {
		var b Builder
		b.Add(1, 7, bad)
		b.Add(1, 8, 0.5)
		b.Add(2, 9, 0.25)
		cx := Compress(b.Build())
		if lay := cx.Arenas().Layout; !lay.Exact || lay.Obj16 {
			t.Fatalf("bound %g: layout %+v, want exact", bad, lay)
		}
		l, err := cx.Probe(1, nil)
		if err != nil || l.Len() != 2 {
			t.Fatalf("bound %g: probe len %d, err %v", bad, l.Len(), err)
		}
		if got := math.Max(l.Bound(0), l.Bound(1)); got != math.Max(bad, 0.5) {
			t.Fatalf("bound %g: decoded max %g", bad, got)
		}
	}
}

// FuzzDecodeList is the satellite fuzz target: arbitrary bytes fed to the
// compressed-list decoder must either decode cleanly — with every invariant
// the query path relies on actually holding — or fail with ErrCorrupt.
// Panics and silent mis-decodes are the bugs being hunted.
func FuzzDecodeList(f *testing.F) {
	// Seed with genuine encoder output in every layout, plus mutations.
	rng := rand.New(rand.NewSource(9))
	ix := buildRandom(rng, 8, 60, 500)
	wide := buildRandom(rng, 4, 60, 1<<20)
	dx := buildRandomDual(rng, 6, 60, 500)
	seed := func(ix *Index, exact bool) {
		lay := Compress(ix).Arenas().Layout
		lay.Exact, lay.Obj16 = exact, lay.Obj16 && !exact
		for _, key := range ix.keys {
			l := ix.List(key)
			f.Add(appendList(nil, l.objs, l.bounds, l.tBounds, lay), ix.dual, lay.Exact, lay.Obj16)
		}
	}
	seed(ix, false)
	seed(wide, false)
	seed(ix, true)
	seed(dx, false)
	seed(dx, true)
	f.Add([]byte{3}, false, false, true)
	f.Add([]byte{1, 2, 3}, true, true, false)

	f.Fuzz(func(t *testing.T, data []byte, dual, exact, obj16 bool) {
		var scr ListScratch
		n, err := decodeList(data, dual, Layout{Exact: exact, Obj16: obj16}, &scr)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		if n > len(data) {
			t.Fatalf("clean decode of %d bytes claims %d postings", len(data), n)
		}
		if len(scr.objs) != n || len(scr.bounds) != n {
			t.Fatalf("clean decode produced %d objs / %d bounds, want %d", len(scr.objs), len(scr.bounds), n)
		}
		if dual && len(scr.tBounds) != n {
			t.Fatalf("clean dual decode produced %d textual bounds, want %d", len(scr.tBounds), n)
		}
		for i := 0; i < n; i++ {
			if math.IsNaN(scr.bounds[i]) || (i > 0 && scr.bounds[i] > scr.bounds[i-1]) {
				t.Fatalf("clean decode produced non-descending bounds at %d", i)
			}
			if dual && math.IsNaN(scr.tBounds[i]) {
				t.Fatalf("clean dual decode produced NaN textual bound at %d", i)
			}
		}
	})
}

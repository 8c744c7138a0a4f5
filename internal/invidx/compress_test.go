package invidx

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// randomKey draws a (group, node) key: one of a few hundred groups, any node.
func randomKey(rng *rand.Rand) uint64 { return uint64(rng.Intn(300))<<32 | uint64(rng.Uint32()) }

// flatKeys lists ix's keys in position order.
func flatKeys(ix *Index) (keys []uint64) {
	ix.eachKey(func(_ int, key uint64) { keys = append(keys, key) })
	return keys
}

// buildRandom returns a canonical index with nLists lists of up to maxLen
// postings each: unique objects per list, bounds drawn from a few magnitudes
// so ties of equal bounds and long sparse tails both occur.
func buildRandom(rng *rand.Rand, nLists, maxLen, objects int) *Index {
	var b Builder
	for k := 0; k < nLists; k++ {
		key := randomKey(rng)
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
		key := randomKey(rng)
		n := 1 + rng.Intn(maxLen)
		for i := 0; i < n; i++ {
			rb := math.Trunc(rng.Float64()*64) / 8
			b.AddDual(key, uint32(rng.Intn(objects)), rb, rng.Float64()*2)
		}
	}
	return b.Build()
}

// saturated returns ix with one list head pushed past float32 range, which
// the bound code saturates to infinity.
func saturated(ix *Index) *Index {
	out := *ix
	out.bounds = slices.Clone(ix.bounds)
	if len(out.bounds) > 0 {
		out.bounds[out.starts[0]] = 2 * math.MaxFloat32 // a list head: still descending
	}
	return &out
}

// TestServedLayouts is the contract of the served layout over both ways an
// index reaches it — {single, dual} × {compressed, and compressed again
// wrapped from its arenas, as a mapped segment is} — for bounds of the finite
// codes and bounds that saturate to infinity. Both report the flat index's
// flavour, shape, keys and list lengths and probe to the same objects in the
// same order, and keep the ceiling contract — every decoded bound >= the
// exact one, spatial bounds still descending — so a Cutoff head over them is
// a superset of the exact head and verification keeps answers identical.
func TestServedLayouts(t *testing.T) {
	const objects = 2000
	rng := rand.New(rand.NewSource(2))
	single, dual := buildRandom(rng, 50, 300, objects), buildRandomDual(rng, 40, 250, objects)
	for _, fx := range []struct {
		name string
		ix   *Index
	}{
		{"single", single},
		{"dual", dual},
		{"single/saturated", saturated(single)},
		{"dual/saturated", saturated(dual)},
	} {
		ix, cx := fx.ix, Compress(fx.ix)
		if lay := cx.Arenas().Layout; lay != (Layout{Obj16: true}) {
			t.Fatalf("%s: layout %+v, want 16-bit objects", fx.name, lay)
		}
		mcomp, err := CompressedFromArenas(cx.Arenas(), cx.Postings(), objects)
		if err != nil {
			t.Fatalf("%s: CompressedFromArenas: %v", fx.name, err)
		}
		for _, row := range []struct {
			name string
			src  *Compressed
		}{
			{"compressed", cx},
			{"mapped compressed", mcomp},
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
				keys := flatKeys(ix)
				if runs, nodes := src.Runs(); runs.Len() != int(keys[len(keys)-1]>>32)+1 || len(nodes) != len(keys) {
					t.Fatalf("%d runs over %d nodes, want a run a group up to the last key's", runs.Len(), len(nodes))
				}
				i, total := 0, 0
				src.EachLen(func(key uint64, n int) {
					if key != keys[i] || n != len(flatObjs(ix, key)) {
						t.Fatalf("EachLen #%d: (%#x, %d), want (%#x, %d)", i, key, n, keys[i], len(flatObjs(ix, keys[i])))
					}
					i++
					total += n
				})
				if i != ix.Lists() || total != ix.Postings() {
					t.Fatalf("EachLen reported %d lists / %d postings", i, total)
				}
				if l := src.Probe(keys[len(keys)-1] + 1); l.Len() != 0 {
					t.Fatalf("absent key probed to %d postings", l.Len())
				}
				for _, key := range keys {
					want := flatList(ix, key)
					got := src.Probe(key)
					if _, _, tBounds := ix.List(key); got.Len() != len(want) || len(got.tCodes)/2 != len(tBounds) {
						t.Fatalf("list %#x: %d postings / %d textual codes, want %d / %d",
							key, got.Len(), len(got.tCodes)/2, len(want), len(tBounds))
					}
					for i, w := range want {
						g := got.Posting(i)
						switch {
						case g.Obj != w.Obj:
							t.Fatalf("list %#x posting %d: object %d, want %d", key, i, g.Obj, w.Obj)
						case g.Bound < w.Bound || g.TBound < w.TBound:
							t.Fatalf("list %#x posting %d: %+v decoded below exact %+v", key, i, g, w)
						case i > 0 && g.Bound > got.Posting(i-1).Bound:
							t.Fatalf("list %#x: decoded bounds not descending at %d", key, i)
						}
					}
				}
			})
		}
	}
}

// arenaBytes is what an index's arenas hold: every slice at its element
// width, which for a compressed index is the bytes of a segment's sections.
func arenaBytes(src any) int64 {
	var k KeyArenas
	var n int64
	switch ix := src.(type) {
	case *Index:
		k, n = ix.arenas(), int64(len(ix.starts)*4+len(ix.objs)*4+len(ix.bounds)*8+len(ix.tBounds)*8)
	case *Compressed:
		a := ix.Arenas()
		k, n = a.KeyArenas, int64(len(a.Extents)*8+len(a.Blob))
	}
	return n + int64(len(k.Runs)*8+len(k.Nodes)*4)
}

// keysOf lists ix's keys in position order, as EachLen reports them.
func keysOf(ix *Compressed) (keys []uint64) {
	ix.EachLen(func(key uint64, _ int) { keys = append(keys, key) })
	return keys
}

// atPanic returns what ix.At(i) panics with, or nil when it returns.
func atPanic(ix *Compressed, i int) (v any) {
	defer func() { v = recover() }()
	ix.At(i)
	return nil
}

// TestAtMatchesProbe: position and key are two ways to the same list. Over
// {quantized, saturated}, each also wrapped from arenas as a mapped segment
// is, At(i) is Probe of the i-th key — Probe(group<<32 | node) — for every i,
// a key the index does not hold (an absent node, a group with an empty run, a
// group past the run table) probes empty, and a position outside [0, Lists())
// panics naming the position and the count — it never decodes a neighbouring
// list. SizeBytes is the bytes of the index's arenas, flat or compressed.
func TestAtMatchesProbe(t *testing.T) {
	const objects, groups = 1500, 24
	rng := rand.New(rand.NewSource(21))
	// Keys are (group, node) pairs; groups 0, 7 and the last two stay empty.
	build := func(dual bool, lists int) *Index {
		b := Builder{Dual: dual}
		for k := 0; k < lists; k++ {
			g := 1 + rng.Intn(groups-3)
			if g == 7 {
				continue
			}
			key := uint64(g)<<32 | uint64(rng.Uint32())
			for i := 1 + rng.Intn(40); i > 0; i-- {
				b.AddDual(key, uint32(rng.Intn(objects)), math.Trunc(rng.Float64()*64)/8, rng.Float64()*2)
			}
		}
		return b.Build()
	}
	for _, fx := range []struct {
		name string
		ix   *Index
	}{
		{"single", build(false, 60)},
		{"dual", build(true, 60)},
		{"empty", new(Builder).Build()},
	} {
		ix := fx.ix
		cx, sx := Compress(ix), Compress(saturated(ix))
		mcomp, err := CompressedFromArenas(cx.Arenas(), cx.Postings(), objects)
		if err != nil {
			t.Fatal(err)
		}
		msat, err := CompressedFromArenas(sx.Arenas(), sx.Postings(), objects)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ix.SizeBytes(), arenaBytes(ix); got != want {
			t.Fatalf("%s flat: SizeBytes %d, arenas %d", fx.name, got, want)
		}
		flat := flatKeys(ix)
		for name, src := range map[string]*Compressed{"compressed": cx, "saturated": sx, "mapped compressed": mcomp, "mapped saturated": msat} {
			label := fmt.Sprintf("%s %s", fx.name, name)
			if got, want := src.SizeBytes(), arenaBytes(src); got != want {
				t.Fatalf("%s: SizeBytes %d, arenas %d", label, got, want)
			}
			keys := keysOf(src)
			if !slices.Equal(keys, flat) {
				t.Fatalf("%s: EachLen reports other keys than the builder froze", label)
			}
			// A run a group, up to the last key's.
			runs, nodes := src.Runs()
			want := 0
			if len(keys) > 0 {
				want = int(keys[len(keys)-1]>>32) + 1
			}
			if runs.Len() != want || len(nodes) != len(keys) {
				t.Fatalf("%s: Runs() = %d runs over %d nodes, want %d over %d", label, runs.Len(), len(nodes), want, len(keys))
			}
			for i, key := range keys {
				at, probed := src.At(i), src.Probe(key)
				if at.Len() == 0 || !slices.Equal(at.codes, probed.codes) || !slices.Equal(at.tCodes, probed.tCodes) || !slices.Equal(at.objs, probed.objs) {
					t.Fatalf("%s: At(%d) and Probe(%#x) differ", label, i, key)
				}
				// …and list i of the flat index: the same objects, bounds never
				// below the exact ones.
				if !slices.Equal(objsOf(at), flatObjs(ix, key)) {
					t.Fatalf("%s: list %d holds other objects than the flat index's", label, i)
				}
				for j, w := range flatList(ix, key) {
					if p := at.Posting(j); p.Bound < w.Bound || p.TBound < w.TBound {
						t.Fatalf("%s: list %d posting %d decoded below the exact bounds", label, i, j)
					}
				}
				// Nodes are random 32-bit draws: a neighbour is absent.
				for _, absent := range []uint64{key - 1, key + 1} {
					if _, held := slices.BinarySearch(keys, absent); held {
						continue
					}
					if l := src.Probe(absent); l.Len() != 0 {
						t.Fatalf("%s: absent key %#x probed to %d postings", label, absent, l.Len())
					}
				}
			}
			// Groups 0 and 7 have empty runs, groups-2 and beyond have no run
			// at all.
			for _, absent := range []uint64{0, 5, 7<<32 | 5, (groups-2)<<32 | 5, groups << 32, groups<<32 | 5, 1 << 63, math.MaxUint64} {
				if l := src.Probe(absent); l.Len() != 0 {
					t.Fatalf("%s: key %#x probed to %d postings", label, absent, l.Len())
				}
			}
			for _, i := range []int{-1, len(keys), len(keys) + 7, math.MinInt, math.MaxInt} {
				want := fmt.Sprintf("invidx: list position %d outside [0, %d)", i, len(keys))
				if got := atPanic(src, i); got != want {
					t.Fatalf("%s: At(%d) panicked with %v, want %q", label, i, got, want)
				}
			}
		}
	}
}

func TestCompressedSmaller(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ix := buildRandom(rng, 80, 400, 4000)
	quant, flat := Compress(ix).SizeBytes(), ix.SizeBytes()
	if float64(quant) > 0.7*float64(flat) {
		t.Fatalf("quantized size %d not under 70%% of flat %d", quant, flat)
	}
}

// TestCompressedProbeZeroAllocs: a probe reads its list in place, so there is
// no buffer to warm: probing every list of a fresh index allocates nothing.
func TestCompressedProbeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	rng := rand.New(rand.NewSource(5))
	ix := buildRandom(rng, 30, 200, 1000)
	cx := Compress(ix)
	keys := flatKeys(ix)
	allocs := testing.AllocsPerRun(1, func() {
		for _, k := range keys {
			if cx.Probe(k).Len() == 0 {
				t.Fatal("probe failed")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("compressed probes allocated %v times per run, want 0", allocs)
	}
}

func cloneKeys(k KeyArenas) KeyArenas {
	return KeyArenas{Runs: slices.Clone(k.Runs), Nodes: slices.Clone(k.Nodes)}
}

// groupedFixture is a dual index of (group, node) keys: seven groups, the
// first empty, every other holding several nodes.
func groupedFixture(rng *rand.Rand, objects int) *Index {
	b := Builder{Dual: true}
	for g := 1; g < 7; g++ {
		for k := 0; k < 4; k++ {
			key := uint64(g)<<32 | uint64(rng.Uint32())
			for i := 1 + rng.Intn(6); i > 0; i-- {
				b.AddDual(key, uint32(rng.Intn(objects)), rng.Float64()*8, rng.Float64()*2)
			}
		}
	}
	return b.Build()
}

// setBit returns words with bit p set, grown to hold it.
func setBit(words []uint64, p int) []uint64 {
	for len(words) <= p/64 {
		words = append(words, 0)
	}
	words[p/64] |= 1 << (p % 64)
	return words
}

// terminalBit is the position of a table's highest set bit.
func terminalBit(words []uint64) int {
	return len(words)*64 - 1 - bits.LeadingZeros64(words[len(words)-1])
}

// extentCorruptions are the ways a stored extent table can lie about the
// total it must end at, one per rule of extentsFromWords; every owner of one
// must refuse each.
var extentCorruptions = []struct {
	name   string
	mutate func([]uint64) []uint64
}{
	{"does not start at 0", func(w []uint64) []uint64 { w[0] &^= 1; return w }},
	{"one bit too many", func(w []uint64) []uint64 {
		for p := 1; ; p++ { // the first zero: an extra entry, the total unmoved
			if w[p/64]>>(p%64)&1 == 0 {
				w[p/64] |= 1 << (p % 64)
				return w
			}
		}
	}},
	{"a bit past the terminal one", func(w []uint64) []uint64 { return setBit(w, terminalBit(w)+2) }},
	{"ends in a zero word", func(w []uint64) []uint64 { return append(w, 0) }},
	{"empty", func([]uint64) []uint64 { return []uint64{} }},
}

// runCorruptions are the ways a persisted key column can lie, one per rule of
// validateKeys; CompressedFromArenas must refuse each.
var runCorruptions = func() (cs []struct {
	name   string
	mutate func(*KeyArenas)
}) {
	for _, c := range extentCorruptions {
		cs = append(cs, struct {
			name   string
			mutate func(*KeyArenas)
		}{"run table " + c.name, func(k *KeyArenas) { k.Runs = c.mutate(k.Runs) }})
	}
	return append(cs, []struct {
		name   string
		mutate func(*KeyArenas)
	}{
		{"runs end short of the nodes", func(k *KeyArenas) { k.Nodes = append(k.Nodes, math.MaxUint32) }},
		{"nodes descend inside a run", func(k *KeyArenas) { k.Nodes[0], k.Nodes[1] = k.Nodes[1], k.Nodes[0] }},
		{"node repeated inside a run", func(k *KeyArenas) { k.Nodes[1] = k.Nodes[0] }},
		{"nodes truncated", func(k *KeyArenas) { k.Nodes = k.Nodes[:len(k.Nodes)-1] }},
		{"nodes without a run table", func(k *KeyArenas) { k.Runs = nil }},
	}...)
}()

// firstLongList returns the rows of the first list of a.Blob holding at least
// two postings whose first two spatial codes differ.
func firstLongList(a *CompressedArenas) []byte {
	w := a.Layout.rowWidth(a.Dual)
	rows, err := extentsFromWords(a.Extents, uint64(len(a.Blob)/w))
	if err != nil {
		panic(err)
	}
	for i := 0; i < rows.Len(); i++ {
		if lo, hi := rows.Span(i); hi-lo >= 2 {
			if l := a.Blob[lo*w : hi*w]; !slices.Equal(l[0:2], l[2:4]) {
				return l
			}
		}
	}
	panic("no multi-posting list in fixture")
}

func TestCompressedFromArenasRejectsCorrupt(t *testing.T) {
	const objects = 400
	rng := rand.New(rand.NewSource(8))
	clone := func(base CompressedArenas) CompressedArenas {
		return CompressedArenas{
			KeyArenas: cloneKeys(base.KeyArenas),
			Dual:      base.Dual,
			Extents:   slices.Clone(base.Extents),
			Blob:      slices.Clone(base.Blob),
			Layout:    base.Layout,
		}
	}
	reject := func(t *testing.T, name string, a CompressedArenas, postings, objects int) {
		t.Helper()
		if _, err := CompressedFromArenas(a, postings, objects); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("CompressedFromArenas accepted %s (err=%v)", name, err)
		}
	}
	cx := Compress(buildRandom(rng, 20, 50, objects))
	base := cx.Arenas()
	if base.Layout != (Layout{Obj16: true}) {
		t.Fatalf("fixture layout %+v, want 16-bit objects", base.Layout)
	}
	cases := []struct {
		name     string
		mutate   func(*CompressedArenas)
		postings int
		objects  int
	}{
		{"posting total lies high", func(a *CompressedArenas) {}, cx.Postings() + 1, objects},
		{"posting total lies low", func(a *CompressedArenas) {}, cx.Postings() - 1, objects},
		{"object out of range", func(a *CompressedArenas) {}, cx.Postings(), 1},
		{"blob truncated by a row", func(a *CompressedArenas) { a.Blob = a.Blob[:len(a.Blob)-4] }, cx.Postings(), objects},
		{"extents do not reach the blob's end", func(a *CompressedArenas) { a.Blob = append(a.Blob, 0, 0, 0, 0) }, cx.Postings(), objects},
		{"extent table holds a list too many", func(a *CompressedArenas) { a.Extents = setBit(a.Extents, terminalBit(a.Extents)+1) }, cx.Postings(), objects},
		{"spatial codes ascend", func(a *CompressedArenas) {
			l := firstLongList(a)
			l[0], l[1], l[2], l[3] = l[2], l[3], l[0], l[1]
		}, cx.Postings(), objects},
		{"spatial code past infinity", func(a *CompressedArenas) {
			binary.LittleEndian.PutUint16(a.Blob, maxCode+1)
		}, cx.Postings(), objects},
		{"wide objects claimed", func(a *CompressedArenas) { a.Layout.Obj16 = false }, cx.Postings(), objects},
		{"dual claimed", func(a *CompressedArenas) { a.Dual = true }, cx.Postings(), objects},
	}
	for _, c := range extentCorruptions {
		cases = append(cases, struct {
			name     string
			mutate   func(*CompressedArenas)
			postings int
			objects  int
		}{"extent table " + c.name, func(a *CompressedArenas) { a.Extents = c.mutate(a.Extents) }, cx.Postings(), objects})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := clone(base)
			tc.mutate(&a)
			reject(t, tc.name, a, tc.postings, tc.objects)
		})
	}

	// The blob is exactly the posting total's rows, at each of the four row
	// widths: a byte more or less, up to a row, is refused.
	for _, dual := range []bool{false, true} {
		for _, lay := range []Layout{{Obj16: true}, {}} {
			ix := buildRandom(rng, 12, 30, objects)
			if dual {
				ix = buildRandomDual(rng, 12, 30, objects)
			}
			if !lay.Obj16 {
				ix.objs[0] |= 1 << 16
			}
			cx := Compress(ix)
			base, w := cx.Arenas(), lay.rowWidth(dual)
			if base.Layout != lay || len(base.Blob) != w*cx.Postings() {
				t.Fatalf("dual=%v %+v: layout %+v, %d bytes for %d postings", dual, lay, base.Layout, len(base.Blob), cx.Postings())
			}
			if _, err := CompressedFromArenas(clone(base), cx.Postings(), 1<<17); err != nil {
				t.Fatalf("dual=%v %+v: %v", dual, lay, err)
			}
			for d := 1; d < w; d++ {
				a := clone(base)
				a.Blob = append(a.Blob, make([]byte, d)...)
				reject(t, fmt.Sprintf("a blob %d bytes past its %d-byte rows", d, w), a, cx.Postings(), 1<<17)
				a = clone(base)
				a.Blob = a.Blob[:len(a.Blob)-d]
				reject(t, fmt.Sprintf("a blob %d bytes short of its %d-byte rows", d, w), a, cx.Postings(), 1<<17)
			}
		}
	}

	grouped := Compress(groupedFixture(rng, objects))
	base = grouped.Arenas()
	if _, err := CompressedFromArenas(clone(base), grouped.Postings(), objects); err != nil {
		t.Fatalf("run-grouped fixture: %v", err)
	}
	t.Run("textual code past infinity", func(t *testing.T) {
		a := clone(base)
		l := firstLongList(&a)
		binary.LittleEndian.PutUint16(l[len(l)/Layout{Obj16: true}.rowWidth(true)*2:], 0xFF80) // a NaN's top bits
		reject(t, "an infinite textual code", a, grouped.Postings(), objects)
	})
	for _, tc := range runCorruptions {
		t.Run(tc.name, func(t *testing.T) {
			a := clone(base)
			tc.mutate(&a.KeyArenas)
			reject(t, tc.name, a, grouped.Postings(), objects)
		})
	}
}

// adversarialBounds are the values where the bound code has the least room:
// zero and below, denormals of both widths, numbers one float64 step above a
// float32 (so rounding to nearest would round them down), a mantissa carry
// that bumps the exponent, the largest finite code, and past it the bounds
// that saturate to infinity.
func adversarialBounds() []float64 {
	above := func(f float32) float64 { return math.Nextafter(float64(f), math.Inf(1)) }
	carry := math.Float32frombits(0x3FFF_FFFF) // all-ones kept mantissa, low bits set: rounds up to 2
	return []float64{
		0, 5e-324, 1e-310, // float64 denormals, far below float32's smallest
		float64(math.SmallestNonzeroFloat32), above(math.SmallestNonzeroFloat32),
		1e-39,                // a float32 denormal
		above(1), above(0.1), // just above a float32 boundary
		float64(carry), above(carry), 2,
		above(65535), 65535, 65536, 1.0 / 3, 2.5, 1e30,
		float64(decodeBound(maxCode - 2)), float64(decodeBound(maxCode - 1)), above(decodeBound(maxCode - 1)),
		math.MaxFloat32, 1e300, math.Inf(1), math.MaxFloat64,
		-1, math.Copysign(0, -1), -math.MaxFloat64, math.Inf(-1),
	}
}

// checkBoundCode asserts the code's contract at v, any bound but NaN: the
// code is at most maxCode, its bound never under-estimates v and is the
// tightest code that does not, and a finite code stays within 2⁻⁸ of v once v
// is a normal float32.
func checkBoundCode(t *testing.T, v float64) uint16 {
	t.Helper()
	c := Code(v)
	got := float64(decodeBound(c))
	switch {
	case c > maxCode || math.IsNaN(got):
		t.Fatalf("bound %g: code %#x decodes to %g", v, c, got)
	case got < v:
		t.Fatalf("bound %g: code %#x decodes below it, to %g", v, c, got)
	case v > 0 && c == 0, c > 0 && float64(decodeBound(c-1)) >= v:
		t.Fatalf("bound %g: code %#x is not the smallest that covers it", v, c)
	case c < maxCode && v >= math.SmallestNonzeroFloat32*(1<<23) && got-v > v/256:
		t.Fatalf("bound %g: code %#x decodes %g above, more than 2^-8 of it", v, c, got-v)
	}
	return c
}

// TestQuantizationNeverUnderEstimates asserts the invariant every compressed
// answer rests on, as a property of the one code — decode(code(v)) >= v,
// decode(code(v)-1) < v, code monotone and never past maxCode — over
// adversarial and random bounds of every magnitude and sign, saturating ones
// included, and then on the encoder and decoder: for single and dual
// lists of every width and several lengths, each decoded spatial and textual
// bound is >= the exact one, objects keep their order, decoded spatial bounds
// stay descending and a list takes exactly a row a posting.
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
	if Code(0) != 0 || decodeBound(0) != 0 {
		t.Fatalf("zero should code to 0 and back")
	}
	if top := decodeBound(maxCode - 1); Code(float64(top)) != maxCode-1 || Code(math.Nextafter(float64(top), math.Inf(1))) != maxCode ||
		!math.IsInf(float64(decodeBound(maxCode)), 1) {
		t.Fatalf("the largest finite code %g should code to itself and anything above it to infinity", top)
	}
	var samples []float64
	for _, v := range adv {
		samples = append(samples, v)
	}
	for round := 0; round < 3000; round++ {
		samples = append(samples, draw(round))
	}
	slices.Sort(samples)
	prev := uint16(0)
	for _, v := range samples {
		c := checkBoundCode(t, v)
		if c < prev {
			t.Fatalf("bound %g codes to %#x, below a smaller bound's %#x", v, c, prev)
		}
		prev = c
	}

	for _, n := range []int{0, 1, 2, 3, 4, 5, 64, 257} {
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
					data := encodeList(objs, bounds, tBounds, lay)
					if want := n * lay.rowWidth(dual); len(data) != want {
						t.Fatalf("n=%d dual=%v obj16=%v: %d bytes, want %d", n, dual, obj16, len(data), want)
					}
					l, err := decodeList(data, dual, lay, 1<<21)
					if err != nil || l.Len() != n {
						t.Fatalf("n=%d dual=%v obj16=%v: read %d postings, err %v", n, dual, obj16, l.Len(), err)
					}
					for i := 0; i < n; i++ {
						if l.Obj(i) != objs[i] {
							t.Fatalf("n=%d posting %d: object %d, want %d", n, i, l.Obj(i), objs[i])
						}
						if l.code(i) != Code(bounds[i]) {
							t.Fatalf("n=%d posting %d: spatial code %#x is not the code of %g", n, i, l.code(i), bounds[i])
						}
						if i > 0 && l.code(i) > l.code(i-1) {
							t.Fatalf("n=%d posting %d: spatial codes ascend (%#x after %#x)", n, i, l.code(i), l.code(i-1))
						}
						if dual && l.TCode(i) != Code(tBounds[i]) {
							t.Fatalf("n=%d posting %d: textual code %#x is not the code of %g", n, i, l.TCode(i), tBounds[i])
						}
					}
				}
			}
		}
	}
}

// TestCompressSaturates: bounds the finite codes cannot hold — negative,
// infinite, beyond float32, or beyond the largest finite code, which
// MaxFloat32 itself is — compress like any other: the layout is the one
// layout, and every decoded bound is at or above its input, a bound past the
// finite codes decoding to infinity.
func TestCompressSaturates(t *testing.T) {
	for _, bad := range []float64{-1, math.Inf(1), 1e300, 2 * math.MaxFloat32, math.MaxFloat32, math.Nextafter(float64(decodeBound(maxCode-1)), math.Inf(1))} {
		var b Builder
		b.Add(1, 7, bad)
		b.Add(1, 8, 0.5)
		b.Add(2, 9, 0.25)
		flat := b.Build()
		cx := Compress(flat)
		if lay := cx.Arenas().Layout; lay != (Layout{Obj16: true}) {
			t.Fatalf("bound %g: layout %+v, want 16-bit objects", bad, lay)
		}
		got, want := cx.Probe(1), flatList(flat, 1)
		if got.Len() != 2 {
			t.Fatalf("bound %g: probe len %d", bad, got.Len())
		}
		for i, w := range want {
			if p := got.Posting(i); p.Obj != w.Obj || p.Bound < w.Bound {
				t.Fatalf("bound %g: posting %d decoded to %+v, flat %+v", bad, i, p, w)
			}
		}
		if bad > 0.5 && got.code(0) != maxCode {
			t.Fatalf("bound %g coded to %#x, want the infinity code", bad, got.code(0))
		}
	}
}

// FuzzBoundCode fuzzes the one bound code over pairs of float64s: for any
// pair but a NaN, each code is at most maxCode, decodes to a float32 that is
// never under its bound and is the tightest such code, and the codes order as
// the bounds do. As a threshold each is exact, which is what lets a query
// compare codes where it compared decoded bounds: decode(c) >= s exactly when
// c >= Code(s), checked at c = Code(s) and the code below it.
func FuzzBoundCode(f *testing.F) {
	adv := adversarialBounds()
	for i, v := range adv {
		f.Add(v, adv[(i+1)%len(adv)])
	}
	f.Add(-0.0, math.NaN())
	f.Fuzz(func(t *testing.T, a, b float64) {
		if math.IsNaN(a) || math.IsNaN(b) {
			return
		}
		if ca, cb := checkBoundCode(t, a), checkBoundCode(t, b); a <= b && ca > cb || b <= a && cb > ca {
			t.Fatalf("codes %#x, %#x do not order as bounds %g, %g", ca, cb, a, b)
		}
		for _, s := range []float64{a, b} {
			cs := Code(s)
			for _, c := range []uint16{cs, cs - 1} {
				if c > cs { // Code(s) is 0: no code below it
					continue
				}
				if float64(decodeBound(c)) >= s != (c >= cs) {
					t.Fatalf("threshold %g: code %#x decodes to %g, but Code(%g) = %#x", s, c, decodeBound(c), s, cs)
				}
			}
		}
	})
}

// encodeList encodes one flat list as Compress does: its bounds coded (a nil
// textual lane stays nil), then the rows.
func encodeList(objs []uint32, bounds, tBounds []float64, lay Layout) []byte {
	var tCodes []uint16
	if tBounds != nil {
		tCodes = appendCodes(nil, tBounds)
	}
	return appendList(nil, objs, appendCodes(nil, bounds), tCodes, lay)
}

// decodeList validates one list's bytes — exactly data, no more, no less, over
// objects below the exclusive bound objects — as opening a segment does, and
// returns the view a probe would: the rows data holds, a length off the row
// lattice being corrupt.
func decodeList(data []byte, dual bool, lay Layout, objects int) (List, error) {
	w := lay.rowWidth(dual)
	if len(data)%w != 0 {
		return List{}, corrupt("list length off the row lattice")
	}
	n := len(data) / w
	if err := walkLanes(data, n, dual, lay, objects); err != nil {
		return List{}, err
	}
	return lay.list(data, n, dual), nil
}

// FuzzDecodeList: arbitrary bytes walked as one list of either width must
// either pass the validation of segment opening and then read cleanly through
// the view in place — with every invariant the query path relies on actually
// holding: codes at most maxCode, spatial codes never ascending, objects in
// range — or fail with ErrCorrupt. Panics and silent misreads are the bugs
// being hunted.
func FuzzDecodeList(f *testing.F) {
	// Seed with genuine encoder output in every layout, each list once as
	// built and once with its head — spatial and, on a dual list, textual —
	// saturated to the infinity code.
	rng := rand.New(rand.NewSource(9))
	ix := buildRandom(rng, 8, 60, 500)
	wide := buildRandom(rng, 4, 60, 1<<20)
	dx := buildRandomDual(rng, 6, 60, 500)
	for _, ix := range []*Index{ix, wide, dx} {
		lay := Compress(ix).Arenas().Layout
		for _, key := range flatKeys(ix) {
			objs, bounds, tBounds := ix.List(key)
			f.Add(encodeList(objs, bounds, tBounds, lay), ix.dual, lay.Obj16)
			bounds, tBounds = slices.Clone(bounds), slices.Clone(tBounds)
			bounds[0] = 2 * math.MaxFloat32
			if ix.dual {
				tBounds[0] = math.Inf(1)
			}
			f.Add(encodeList(objs, bounds, tBounds, lay), ix.dual, lay.Obj16)
		}
	}
	f.Add([]byte{3}, false, true)
	f.Add([]byte{}, true, false)

	const objects = 1 << 20 // every seed's objects lie below it
	f.Fuzz(func(t *testing.T, data []byte, dual, obj16 bool) {
		lay := Layout{Obj16: obj16}
		l, err := decodeList(data, dual, lay, objects)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		n := l.Len()
		if n*lay.rowWidth(dual) != len(data) {
			t.Fatalf("clean read of %d bytes claims %d postings", len(data), n)
		}
		if dual && len(l.tCodes) != 2*n {
			t.Fatalf("clean read of a dual list has %d textual codes for %d postings", len(l.tCodes)/2, n)
		}
		for i := 0; i < n; i++ {
			if c := l.code(i); c > maxCode || i > 0 && c > l.code(i-1) {
				t.Fatalf("clean read has spatial code %#x at %d, past infinity or ascending", c, i)
			}
			if dual && l.TCode(i) > maxCode {
				t.Fatalf("clean read has textual code %#x at %d, past infinity", l.TCode(i), i)
			}
			if l.Obj(i) >= objects {
				t.Fatalf("clean read has object %d at %d, out of range", l.Obj(i), i)
			}
		}
	})
}

// cutoffDecoded is the float cutoff the query path used before it compared
// codes: the length of the leading run of the descending bounds that are >= c.
func cutoffDecoded(bounds []float64, c float64) int {
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bounds[mid] < c {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// TestCodeCutoffMatchesDecoded: comparing a list's codes with a threshold's
// Code selects exactly the rows that comparing the decoded bounds with the
// threshold did — the head by Cutoff, and row by row the textual test — so
// every head, candidate and count is the one the float comparison gave. Lists
// of 0, 1, 2 and 257 postings, single and dual, in both object widths, over
// codes of every magnitude (the saturated infinity code included), are cut at
// every code's bound and one float64 step either side of it, at thresholds at
// or below zero, past the largest finite code, and at +Inf.
func TestCodeCutoffMatchesDecoded(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var thresholds []float64
	for c := uint16(0); c <= maxCode; c++ {
		b := float64(decodeBound(c))
		thresholds = append(thresholds, math.Nextafter(b, math.Inf(-1)), b, math.Nextafter(b, math.Inf(1)))
	}
	thresholds = append(thresholds, math.Copysign(0, -1), -1, -math.MaxFloat64, math.Inf(-1),
		math.MaxFloat32, 1e300, math.MaxFloat64)
	for _, n := range []int{0, 1, 2, 257} {
		for _, dual := range []bool{false, true} {
			for _, obj16 := range []bool{true, false} {
				// Codes drawn over the whole range, the infinity code and zero
				// included, with runs of ties.
				codes := make([]uint16, n)
				for i := range codes {
					switch i % 5 {
					case 0:
						codes[i] = maxCode
					case 1:
						codes[i] = 0
					default:
						codes[i] = uint16(rng.Intn(maxCode + 1))
					}
				}
				bounds, tBounds := make([]float64, n), []float64(nil)
				objs := make([]uint32, n)
				for i := range bounds {
					bounds[i] = float64(decodeBound(codes[i]))
					objs[i] = uint32(i)
					if !obj16 {
						objs[i] |= 1 << 20
					}
				}
				if dual {
					tBounds = slices.Clone(bounds) // shuffled: the textual lane is not sorted
					rng.Shuffle(n, func(i, j int) { tBounds[i], tBounds[j] = tBounds[j], tBounds[i] })
				}
				slices.SortFunc(bounds, func(a, b float64) int { return cmp.Compare(b, a) })
				lay := Layout{Obj16: obj16}
				l, err := decodeList(encodeList(objs, bounds, tBounds, lay), dual, lay, 1<<21)
				if err != nil || l.Len() != n {
					t.Fatalf("n=%d dual=%v obj16=%v: %d postings, err %v", n, dual, obj16, l.Len(), err)
				}
				for _, s := range thresholds {
					c := Code(s)
					if got, want := l.Cutoff(c), cutoffDecoded(bounds, s); got != want {
						t.Fatalf("n=%d dual=%v obj16=%v: Cutoff(Code(%g) = %#x) = %d, decoded cutoff %d", n, dual, obj16, s, c, got, want)
					}
					for j := range tBounds {
						if got, want := l.TCode(j) >= c, tBounds[j] >= s; got != want {
							t.Fatalf("n=%d obj16=%v row %d: textual code %#x >= Code(%g) = %#x is %v, decoded %g >= %g is %v",
								n, obj16, j, l.TCode(j), s, c, got, tBounds[j], s, want)
						}
					}
				}
			}
		}
	}
}

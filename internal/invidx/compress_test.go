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

// TestSourceLayouts is the contract of Source over every layout an index can
// be served from — {single, dual} × {raw, compressed, and both again wrapped
// from their arenas, as a mapped segment is} — for bounds of the finite codes
// and bounds that saturate to infinity. Every layout reports the flat index's
// flavour, shape, keys and list lengths and probes to the same objects in the
// same order. Raw lists are the flat lists bit for bit; compressed ones keep
// the ceiling contract — every decoded bound >= the exact one, spatial bounds
// still descending — so a Cutoff head over them is a superset of the exact
// head and verification keeps answers identical.
func TestSourceLayouts(t *testing.T) {
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
			{"compressed", cx, false},
			{"mapped raw", mraw, true},
			{"mapped compressed", mcomp, false},
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
				if runs, nodes := src.Runs(); runs != nil || nodes != nil {
					t.Fatalf("a Builder's index reports a run-grouped key column")
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

// withoutDirectory returns ix over the same key array less its directory, as
// a segment written without one opens: Probe binary-searches the keys.
func withoutDirectory(ix *Index) *Index {
	out := *ix
	out.table = keyTable{}
	return &out
}

// runGrouped returns ix with its key array regrouped by high word into runs of
// low words, as FromSortedRuns would have frozen the same lists.
func runGrouped(ix *Index, groups int) *Index {
	out := *ix
	out.keyColumn = keyColumn{}
	starts := make([]uint32, groups+1)
	for _, k := range ix.keys {
		out.nodes = append(out.nodes, uint32(k))
		starts[k>>32+1]++
	}
	for g := 0; g < groups; g++ {
		starts[g+1] += starts[g]
	}
	out.runs = extentsOf(starts)
	return &out
}

// arenaBytes is what a segment of an index's arenas holds in its sections:
// every slice at its element width.
func arenaBytes(src Source) int64 {
	var k KeyArenas
	var n int64
	switch ix := src.(type) {
	case *Index:
		a := ix.Arenas()
		k, n = a.KeyArenas, int64(len(a.Starts)*4+len(a.Objs)*4+len(a.Bounds)*8+len(a.TBounds)*8)
	case *Compressed:
		a := ix.Arenas()
		k, n = a.KeyArenas, int64(len(a.Extents)*8+len(a.Blob))
	}
	return n + int64(len(k.Keys)*8+len(k.Slots)*4+len(k.Runs)*8+len(k.Nodes)*4)
}

// keysOf lists src's keys in position order, as EachLen reports them.
func keysOf(src Source) (keys []uint64) {
	src.EachLen(func(key uint64, _ int) { keys = append(keys, key) })
	return keys
}

// TestAtMatchesProbe: position and key are two ways to the same list. Over
// {keyed, keyed without a directory, run-grouped} × {raw, quantized, saturated} ×
// {heap, wrapped from arenas as a mapped segment is}, At(i) is Probe of the
// i-th key — for a run-grouped column Probe(run<<32 | node) — for every i, a
// key the index does not hold (an absent node, a token with an empty run, a
// token past the run table) probes empty, and a position outside [0, Lists())
// is ErrCorrupt — not a panic, not a neighbouring list. SizeBytes is the bytes
// of the arenas a segment would hold.
func TestAtMatchesProbe(t *testing.T) {
	const objects, groups = 1500, 24
	rng := rand.New(rand.NewSource(21))
	// Keys are (group, node) pairs; groups 0, 7 and the last stay empty.
	build := func(dual bool, lists int) *Index {
		b := Builder{Dual: dual}
		for k := 0; k < lists; k++ {
			g := 1 + rng.Intn(groups-2)
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
		for _, col := range []string{"keyed", "bare", "run-grouped"} {
			ix, dir := fx.ix, int64(tableSlots(fx.ix.Lists()))*4
			switch col {
			case "bare":
				ix = withoutDirectory(ix)
			case "run-grouped":
				ix = runGrouped(ix, groups)
			}
			cx, sx := Compress(ix), Compress(saturated(ix))
			if (ix.Arenas().Slots != nil) != (col == "keyed") || (cx.Arenas().Slots != nil) != (col == "keyed") ||
				(ix.Arenas().Runs != nil) != (col == "run-grouped") || (cx.Arenas().Runs != nil) != (col == "run-grouped") {
				t.Fatalf("%s %s: arenas disagree about the key column", fx.name, col)
			}
			mraw, err := FromArenas(ix.Arenas(), objects)
			if err != nil {
				t.Fatal(err)
			}
			mcomp, err := CompressedFromArenas(cx.Arenas(), cx.Postings(), objects)
			if err != nil {
				t.Fatal(err)
			}
			msat, err := CompressedFromArenas(sx.Arenas(), sx.Postings(), objects)
			if err != nil {
				t.Fatal(err)
			}
			// A directory is 8 bytes a list, and the column is all that differs.
			if col == "bare" && ix.SizeBytes() != fx.ix.SizeBytes()-dir {
				t.Fatalf("%s %s: SizeBytes should be the directory's %d bytes under the keyed index's", fx.name, col, dir)
			}
			for name, src := range map[string]Source{"raw": ix, "compressed": cx, "saturated": sx, "mapped raw": mraw, "mapped compressed": mcomp, "mapped saturated": msat} {
				label := fmt.Sprintf("%s %s %s", fx.name, col, name)
				if got, want := src.SizeBytes(), arenaBytes(src); got != want {
					t.Fatalf("%s: SizeBytes %d, arenas %d", label, got, want)
				}
				keys := keysOf(src)
				if !slices.Equal(keys, fx.ix.keys) {
					t.Fatalf("%s: EachLen reports other keys than the builder froze", label)
				}
				runs, nodes := src.Runs()
				if col != "run-grouped" && (runs != nil || nodes != nil) || col == "run-grouped" && (runs.Len() != groups || len(nodes) != len(keys)) {
					t.Fatalf("%s: Runs() = %v over %d nodes", label, runs, len(nodes))
				}
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
					// …and list i of the flat index: the same objects, bounds never
					// below the exact ones.
					flat, _ := fx.ix.At(i, nil)
					if !slices.Equal(at.objs, flat.objs) {
						t.Fatalf("%s: list %d holds other objects than the flat index's", label, i)
					}
					for j := range flat.objs {
						if at.Bound(j) < flat.Bound(j) || at.Posting(j).TBound < flat.Posting(j).TBound {
							t.Fatalf("%s: list %d posting %d decoded below the exact bounds", label, i, j)
						}
					}
					// Nodes are random 32-bit draws: a neighbour is absent.
					for _, absent := range []uint64{key - 1, key + 1} {
						if _, held := slices.BinarySearch(keys, absent); held {
							continue
						}
						if l, err := src.Probe(absent, &b); err != nil || l.Len() != 0 {
							t.Fatalf("%s: absent key %#x probed to %d postings, err %v", label, absent, l.Len(), err)
						}
					}
				}
				// Group 0 and 7 have empty runs, groups-1 is the last run and
				// empty, groups and beyond have no run at all.
				for _, absent := range []uint64{0, 5, 7<<32 | 5, (groups-1)<<32 | 5, groups << 32, groups<<32 | 5, 1 << 63, math.MaxUint64} {
					if l, err := src.Probe(absent, &b); err != nil || l.Len() != 0 {
						t.Fatalf("%s: key %#x probed to %d postings, err %v", label, absent, l.Len(), err)
					}
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
	quant, flat := Compress(ix).SizeBytes(), ix.SizeBytes()
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

func cloneKeys(k KeyArenas) KeyArenas {
	return KeyArenas{Keys: slices.Clone(k.Keys), Slots: slices.Clone(k.Slots), Runs: slices.Clone(k.Runs), Nodes: slices.Clone(k.Nodes)}
}

// groupedFixture is a dual index of (group, node) keys frozen run-grouped:
// eight groups, the first and last empty, every other holding several nodes.
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
	return runGrouped(b.Build(), 8)
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

// runCorruptions are the ways a persisted run-grouped key column can lie, one
// per rule of validateKeys; both arena wrappers must refuse each.
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
		{"run table beside a key array", func(k *KeyArenas) { k.Keys = make([]uint64, len(k.Nodes)) }},
		{"run table beside a directory", func(k *KeyArenas) { k.Slots = []uint32{} }},
		{"nodes without a run table", func(k *KeyArenas) { k.Runs = nil }},
	}...)
}()

func TestFromArenasRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ix := buildRandom(rng, 20, 50, 400)
	base := ix.Arenas()
	clone := func(base RawArenas) RawArenas {
		return RawArenas{
			KeyArenas: cloneKeys(base.KeyArenas),
			Dual:      base.Dual,
			Starts:    slices.Clone(base.Starts),
			Objs:      slices.Clone(base.Objs),
			Bounds:    slices.Clone(base.Bounds),
			TBounds:   slices.Clone(base.TBounds),
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
			a := clone(base)
			tc.mutate(&a)
			if _, err := FromArenas(a, tc.objects); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("FromArenas accepted %s (err=%v)", tc.name, err)
			}
		})
	}
	grouped := groupedFixture(rng, 400).Arenas()
	if _, err := FromArenas(clone(grouped), 400); err != nil {
		t.Fatalf("run-grouped fixture: %v", err)
	}
	for _, tc := range runCorruptions {
		t.Run(tc.name, func(t *testing.T) {
			a := clone(grouped)
			tc.mutate(&a.KeyArenas)
			if _, err := FromArenas(a, 400); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("FromArenas accepted %s (err=%v)", tc.name, err)
			}
		})
	}
}

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
	c := boundCode(v)
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
	if boundCode(0) != 0 || decodeBound(0) != 0 {
		t.Fatalf("zero should code to 0 and back")
	}
	if top := decodeBound(maxCode - 1); boundCode(float64(top)) != maxCode-1 || boundCode(math.Nextafter(float64(top), math.Inf(1))) != maxCode ||
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

	var scr ListScratch
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
					data := appendList(nil, objs, bounds, tBounds, lay)
					if want := n * lay.rowWidth(dual); len(data) != want {
						t.Fatalf("n=%d dual=%v obj16=%v: %d bytes, want %d", n, dual, obj16, len(data), want)
					}
					got, err := decodeList(data, dual, lay, &scr)
					if err != nil || got != n {
						t.Fatalf("n=%d dual=%v obj16=%v: decoded %d postings, err %v", n, dual, obj16, got, err)
					}
					if err := walkColumns(data, n, dual, lay, 1<<21, nil); err != nil {
						t.Fatalf("n=%d dual=%v obj16=%v: validated in place: %v", n, dual, obj16, err)
					}
					for i := 0; i < n; i++ {
						if scr.objs[i] != objs[i] {
							t.Fatalf("n=%d posting %d: object %d, want %d", n, i, scr.objs[i], objs[i])
						}
						if scr.bounds[i] != float64(decodeBound(boundCode(bounds[i]))) {
							t.Fatalf("n=%d posting %d: spatial bound %g is not the code of %g", n, i, scr.bounds[i], bounds[i])
						}
						if i > 0 && scr.bounds[i] > scr.bounds[i-1] {
							t.Fatalf("n=%d posting %d: decoded spatial bounds ascend (%g after %g)", n, i, scr.bounds[i], scr.bounds[i-1])
						}
						if dual && scr.tBounds[i] != float64(decodeBound(boundCode(tBounds[i]))) {
							t.Fatalf("n=%d posting %d: textual bound %g is not the code of %g", n, i, scr.tBounds[i], tBounds[i])
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
		got, err := cx.Probe(1, nil)
		want := flat.List(1)
		if err != nil || got.Len() != 2 {
			t.Fatalf("bound %g: probe len %d, err %v", bad, got.Len(), err)
		}
		for i := 0; i < 2; i++ {
			if got.Obj(i) != want.Obj(i) || got.Bound(i) < want.Bound(i) {
				t.Fatalf("bound %g: posting %d decoded to %+v, flat %+v", bad, i, got.Posting(i), want.Posting(i))
			}
		}
		if bad > 0.5 && !math.IsInf(got.Bound(0), 1) {
			t.Fatalf("bound %g decoded to %g, want infinity", bad, got.Bound(0))
		}
	}
}

// FuzzBoundCode fuzzes the one bound code over pairs of float64s: for any
// pair but a NaN, each code is at most maxCode, decodes to a float32 that is
// never under its bound and is the tightest such code, and the codes order as
// the bounds do.
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
	})
}

// decodeList decodes one list's bytes — exactly data, no more, no less — into
// scr as a probe would, and returns its posting count: the rows data holds,
// a length off the row lattice being corrupt.
func decodeList(data []byte, dual bool, lay Layout, scr *ListScratch) (int, error) {
	w := lay.rowWidth(dual)
	if len(data)%w != 0 {
		return 0, corrupt("list length off the row lattice")
	}
	n := len(data) / w
	scr.grow(n, dual)
	return n, walkColumns(data, n, dual, lay, math.MaxInt, scr)
}

// FuzzDecodeList: arbitrary bytes walked as one list of either width must
// either decode cleanly — with every invariant the query path relies on
// actually holding, and the scratch-less validation of segment opening
// agreeing — or fail with ErrCorrupt. Panics and silent mis-decodes are the
// bugs being hunted.
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
		for _, key := range ix.keys {
			l := ix.List(key)
			f.Add(appendList(nil, l.objs, l.bounds, l.tBounds, lay), ix.dual, lay.Obj16)
			bounds, tBounds := slices.Clone(l.bounds), slices.Clone(l.tBounds)
			bounds[0] = 2 * math.MaxFloat32
			if ix.dual {
				tBounds[0] = math.Inf(1)
			}
			f.Add(appendList(nil, l.objs, bounds, tBounds, lay), ix.dual, lay.Obj16)
		}
	}
	f.Add([]byte{3}, false, true)
	f.Add([]byte{}, true, false)

	f.Fuzz(func(t *testing.T, data []byte, dual, obj16 bool) {
		var scr ListScratch
		lay := Layout{Obj16: obj16}
		n, err := decodeList(data, dual, lay, &scr)
		if len(data)%lay.rowWidth(dual) == 0 {
			// The scratch-less walk of segment opening must agree.
			if cerr := walkColumns(data, n, dual, lay, 1<<32, nil); (cerr == nil) != (err == nil) {
				t.Fatalf("decode err %v; in-place validation err %v", err, cerr)
			}
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		if n*lay.rowWidth(dual) != len(data) {
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

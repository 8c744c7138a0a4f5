package rtree

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/sealdb/seal/internal/geo"
)

func randomEntries(rng *rand.Rand, n int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		es[i] = Entry{
			Rect: geo.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*40, MaxY: y + rng.Float64()*40},
			ID:   uint32(i),
		}
	}
	return es
}

func bruteIntersecting(es []Entry, r geo.Rect) []uint32 {
	var out []uint32
	for _, e := range es {
		if e.Rect.Intersects(r) {
			out = append(out, e.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func collectIntersecting(t *Tree, r geo.Rect) []uint32 {
	var out []uint32
	t.SearchIntersecting(r, func(e Entry) bool {
		out = append(out, e.ID)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equal(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNewValidation(t *testing.T) {
	if _, err := BulkLoad(nil, 2); err == nil {
		t.Error("bulk fanout < 4 should fail")
	}
}

func TestEmptyTree(t *testing.T) {
	tr, err := BulkLoad(nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("empty tree len=%d height=%d", tr.Len(), tr.Height())
	}
	found := false
	tr.SearchIntersecting(geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, func(Entry) bool {
		found = true
		return true
	})
	if found {
		t.Fatal("empty tree returned an entry")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 5, 63, 64, 65, 500, 3000} {
		es := randomEntries(rng, n)
		tr, err := BulkLoad(es, 16)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, tr.Len())
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for trial := 0; trial < 20; trial++ {
			x, y := rng.Float64()*1000, rng.Float64()*1000
			r := geo.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*200, MaxY: y + rng.Float64()*200}
			got := collectIntersecting(tr, r)
			want := bruteIntersecting(es, r)
			if !equal(got, want) {
				t.Fatalf("n=%d trial %d: got %d entries, want %d", n, trial, len(got), len(want))
			}
		}
	}
}

func TestSearchOverlappingExcludesTouches(t *testing.T) {
	es := []Entry{
		{Rect: geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, ID: 1},
		{Rect: geo.Rect{MinX: 10, MinY: 0, MaxX: 20, MaxY: 10}, ID: 2}, // touches query edge
	}
	tr, err := BulkLoad(es, 4)
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint32
	tr.SearchOverlapping(geo.Rect{MinX: 5, MinY: 0, MaxX: 10, MaxY: 10}, func(e Entry) bool {
		ids = append(ids, e.ID)
		return true
	})
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("overlapping = %v, want [1]", ids)
	}
}

func TestEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	es := randomEntries(rng, 200)
	tr, err := BulkLoad(es, 8)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	tr.SearchIntersecting(geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}, func(Entry) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d, want 5", count)
	}
}

func TestBoundsAndSize(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	es := randomEntries(rng, 100)
	tr, err := BulkLoad(es, 8)
	if err != nil {
		t.Fatal(err)
	}
	b := tr.Bounds()
	for _, e := range es {
		if !b.Contains(e.Rect) {
			t.Fatalf("bounds %v miss entry %v", b, e.Rect)
		}
	}
	if tr.SizeBytes() <= 0 {
		t.Fatal("SizeBytes should be positive")
	}
	if tr.Height() < 2 {
		t.Fatalf("height = %d, want >= 2 for 100 entries at fanout 8", tr.Height())
	}
}

func TestDuplicateRects(t *testing.T) {
	r := geo.Rect{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}
	var es []Entry
	for i := 0; i < 50; i++ {
		es = append(es, Entry{Rect: r, ID: uint32(i)})
	}
	tr, err := BulkLoad(es, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := collectIntersecting(tr, r)
	if len(got) != 50 {
		t.Fatalf("duplicate rects: found %d, want 50", len(got))
	}
}

// TestPackTiles: Pack cuts n items into ⌈n/fanout⌉ tiles of at most fanout,
// in the order it leaves items in: vertical slices of ⌈√tiles⌉·fanout items
// ascending by x-center, each ascending by y-center, ties by the tie-break.
func TestPackTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rect := func(e Entry) geo.Rect { return e.Rect }
	byID := func(a, b Entry) bool { return a.ID < b.ID }
	for _, n := range []int{0, 1, 7, 64, 100, 257} {
		for _, fanout := range []int{4, 8, 16} {
			es := randomEntries(rng, n)
			for i := range es { // many equal centers
				x, y := float64(rng.Intn(8)), float64(rng.Intn(4))
				es[i].Rect = geo.Rect{MinX: x, MinY: y, MaxX: x + 1, MaxY: y + 1}
			}
			tiles := Pack(es, fanout, rect, byID)
			if want := (n + fanout - 1) / fanout; len(tiles) != want {
				t.Fatalf("n=%d fanout=%d: %d tiles, want %d", n, fanout, len(tiles), want)
			}
			off := 0
			for _, tile := range tiles {
				if len(tile) == 0 || len(tile) > fanout {
					t.Fatalf("n=%d fanout=%d: tile of %d", n, fanout, len(tile))
				}
				if &tile[0] != &es[off] {
					t.Fatalf("n=%d fanout=%d: tile at %d is not the next run of items", n, fanout, off)
				}
				off += len(tile)
			}
			ids := map[uint32]bool{}
			for _, e := range es {
				ids[e.ID] = true
			}
			if off != n || len(ids) != n {
				t.Fatalf("n=%d: tiles hold %d items, %d distinct", n, off, len(ids))
			}
			size := int(math.Ceil(math.Sqrt(float64(len(tiles))))) * fanout
			for s := 0; s < n; s += size {
				slice := es[s:min(s+size, n)]
				for i := 1; i < len(slice); i++ {
					_, y0 := slice[i-1].Rect.Center()
					_, y1 := slice[i].Rect.Center()
					if y0 > y1 || (y0 == y1 && slice[i-1].ID > slice[i].ID) {
						t.Fatalf("n=%d fanout=%d: slice at %d not ascending by y, then ID", n, fanout, s)
					}
				}
				if s+size < n {
					byX := func(a, b Entry) int { return cmp.Or(cmp.Compare(a.Rect.MinX, b.Rect.MinX), cmp.Compare(a.ID, b.ID)) }
					if byX(slices.MaxFunc(slice, byX), slices.MinFunc(es[s+size:], byX)) > 0 {
						t.Fatalf("n=%d fanout=%d: slice at %d reaches past the next one's x, then ID", n, fanout, s)
					}
				}
			}
		}
	}
}
